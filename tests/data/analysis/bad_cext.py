"""cext-driver half of the known-bad engine-parity fixture (parsed only).

The arena declares ``_col_seq`` but not ``_col_ghost``, a column the
fixture's SoAView reads.
"""


class CextCore:
    __slots__ = ("_col_seq",)

    def flush_thread(self, ts, after_seq):
        ts.stats.flushes += 1
