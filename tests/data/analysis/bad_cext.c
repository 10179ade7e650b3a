/* C half of the known-bad engine-parity fixture (scanned as text only):
 * no policy hook name appears as a string literal, so the C engine
 * never reaches the on_ll_detect hook the object engine calls. */
static const char *names[] = {"_commit_width"};
