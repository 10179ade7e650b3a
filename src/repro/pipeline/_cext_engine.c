/* _cext_engine: the compiled `cext` engine backend's fused run loop.
 *
 * The cycle body of the object engine (repro/pipeline/core.py: the fused
 * _run_until loop, the event drains, _commit, _issue, _dispatch,
 * _fetch_thread) re-expressed over CextCore's struct-of-arrays state
 * (repro/pipeline/cext.py): the column lists, the event wheels, the
 * ready heaps and the ThreadState slots stay ordinary Python objects and
 * the single source of truth, and this module reads/writes them through
 * the C API.  Policy hooks, the memory hierarchy and CextCore.flush_thread
 * re-enter Python mid-stage on exactly that state; trace generation, the
 * fast-forward probe, the LLSR's zero advances and the policy-stall
 * check run here.  The golden matrix pins the result
 * bit-exact to the object engine, and REPRO_SANITIZE=1 drives this loop
 * in per-commit chunks with the arena checks in between.
 *
 * Keep in sync with core.py; engine-parity-lint checks that the policy
 * hook call sites here match core.py's set.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <limits.h>
#include <string.h>

#define CEXT_API_VERSION 3

/* Flag bits: must mirror repro/pipeline/dyninstr.py (verified in setup). */
#define F_IN_IQ (1 << 0)
#define F_IQ_FP (1 << 1)
#define F_ISSUED (1 << 2)
#define F_COMPLETED (1 << 3)
#define F_HAS_DEST (1 << 4)
#define F_DEST_FP (1 << 5)
#define F_SQUASHED (1 << 6)
#define F_IS_LOAD (1 << 7)
#define F_IS_STORE (1 << 8)
#define F_IS_BRANCH (1 << 9)
#define F_IS_LL (1 << 10)
#define F_INV (1 << 11)
#define F_LL_DEP (1 << 12)
#define F_RETIRED (1 << 13)
#define F_IN_DETECTS (1 << 14)
#define F_FREED (1 << 15)

#define F_MEM (F_IS_LOAD | F_IS_STORE)
#define F_DEAD_OR_DONE (F_SQUASHED | F_ISSUED | F_COMPLETED)
#define F_NO_WAKE (F_SQUASHED | F_ISSUED)
#define F_RETIRED_FREED (F_RETIRED | F_FREED)

#define SLOT_SHIFT 20
#define SLOT_MASK ((1LL << SLOT_SHIFT) - 1)

/* Trace-row kinds: must mirror repro/workloads/trace.py (verified in
 * setup). */
#define ROW_LINEAR 0
#define ROW_HASHED 1
#define ROW_BURST 2
#define ROW_BRANCH 3
#define ROW_FIELDS 10

#define SMALL_INT_LIMIT 65536
#define MAX_THREADS 256
#define MAX_SRCS 64
#define MAX_INSTR_SLOTS 32

/* ------------------------------------------------------------------ */
/* resolved member offsets                                             */
/* ------------------------------------------------------------------ */

typedef struct {
    /* core */
    Py_ssize_t cycle, gseq, wheel_mask;
    Py_ssize_t ev_buckets, ev_marks, ev_over;
    Py_ssize_t dt_buckets, dt_marks, dt_over;
    Py_ssize_t wb_buckets, wb_marks, wb_over, wb_used;
    Py_ssize_t ready_int, ready_ldst, ready_fp, ready_by_op;
    Py_ssize_t threads, policy, stats;
    Py_ssize_t policy_fetch_order, policy_fetch_pending,
        policy_can_dispatch, policy_on_fetch, policy_on_fetch_load,
        policy_on_load_complete, policy_on_resource_stall;
    Py_ssize_t hier_load, hier_ifetch, hier_store;
    Py_ssize_t gshare, btb;
    Py_ssize_t n_threads, full_mask, fe_mask, heads_mask;
    Py_ssize_t rotations, rot_cache, fetch_candidates;
    Py_ssize_t fetch_wake, dispatch_wake, stall_latch_until,
        stall_latch_epoch, release_epoch;
    Py_ssize_t committed_watermark, commit_pending, measure_start;
    Py_ssize_t fetch_width, fetch_max_threads, fast_forward,
        fetch_order_is_base, fe_capacity, frontend_depth, decode_width,
        commit_width, line_shift;
    Py_ssize_t rob_size, lsq_size, int_iq_size, fp_iq_size,
        int_rename_regs, fp_rename_regs, wb_entries;
    Py_ssize_t rob_used, lsq_used, iq_used, fq_used, int_regs_used,
        fp_regs_used;
    Py_ssize_t num_int_alu, num_ldst, num_fp;
    Py_ssize_t track_ll_dep;
    Py_ssize_t free_list;
    Py_ssize_t col_instr, col_thread, col_seq, col_gseq, col_packed,
        col_pending, col_fe_ready, col_flags, col_refs, col_waiter0,
        col_waiters, col_old_map, col_ll_parents, col_pred_ll,
        col_fill_line, col_level, col_views;
    Py_ssize_t cext_olc_cleanup_only, cext_ll_detect_is_base;
    /* ThreadState */
    Py_ssize_t ts_tid, ts_tid_bit, ts_icount, ts_rob_count, ts_lsq_count,
        ts_iq_count, ts_fq_count, ts_int_regs, ts_fp_regs;
    Py_ssize_t ts_fetch_blocked_until, ts_waiting_branch,
        ts_branch_wait_since, ts_allowed_end, ts_ll_owners;
    Py_ssize_t ts_last_ifetch_line, ts_outstanding_misses;
    Py_ssize_t ts_stats, ts_commit_cycles;
    Py_ssize_t ts_fe_queue, ts_window, ts_rename_map;
    Py_ssize_t ts_fetch_index, ts_head_ready, ts_dispatch_blocked_head,
        ts_dispatch_blocked_epoch, ts_dispatch_wait_until;
    Py_ssize_t ts_trace_get, ts_fe_append, ts_lll_predict, ts_pc_origin,
        ts_llsr_commit, ts_llsr_commit_zeros, ts_trace_static,
        ts_trace_body_len, ts_llsr_zeros, ts_trace_flags, ts_lll_pred,
        ts_trace_rows, ts_llsr, ts_policy_stalled_flag;
    /* LLSR */
    Py_ssize_t llsr_length, llsr_filled, llsr_total, llsr_last_one_total,
        llsr_head, llsr_bits;
    /* ThreadStats */
    Py_ssize_t st_fetched, st_committed, st_loads_executed, st_ll_loads,
        st_branch_stall_cycles, st_lll_pred_loads, st_lll_pred_correct,
        st_lll_pred_miss_actual, st_lll_pred_miss_correct;
    /* CoreStats */
    Py_ssize_t cs_resource_stall_cycles;
    /* Instr */
    Py_ssize_t in_pc, in_dest, in_srcs, in_addr, in_taken, in_has_dest,
        in_dest_fp, in_is_load, in_is_store, in_is_branch, in_op_i,
        in_fp_queue, in_latency;
    /* AccessResult */
    Py_ssize_t ar_complete_cycle, ar_detect_cycle, ar_level,
        ar_long_latency, ar_trigger, ar_fill_line;
} Offsets;

typedef struct {
    int ready;
    Offsets off;
    PyObject *view_cls;     /* SoAView */
    PyObject *limit_exc;    /* SimulationLimitExceeded */
    PyObject *deadlock_exc; /* SimulationDeadlock */
    PyTypeObject *instr_type; /* Instr (trace-row prototypes) */
    PyTypeObject *llsr_type;  /* LLSR (exact type: zero advances in C) */
    /* every Instr slot, for the prototype clone */
    Py_ssize_t instr_slots[MAX_INSTR_SLOTS];
    int n_instr_slots;
    PyObject *l1_level;     /* ServiceLevel.L1 (identity compare) */
    PyObject *small_ints[SMALL_INT_LIMIT];
    PyObject *neg_one;
    /* interned strings for the non-slot attribute calls */
    PyObject *s_append, *s_popleft, *s_update, *s_lookup, *s_insert,
        *s_train, *s_on_ll_detect, *s_soa_grow, *s_sync_policy_stall;
} Globals;

static Globals g;

/* ------------------------------------------------------------------ */
/* small helpers                                                       */
/* ------------------------------------------------------------------ */

static inline PyObject *SLOT(PyObject *o, Py_ssize_t off)
{
    return *(PyObject **)((char *)o + off);
}

/* Store a new reference into a slot, releasing the old value. */
static inline void slot_store(PyObject *o, Py_ssize_t off, PyObject *v)
{
    PyObject **p = (PyObject **)((char *)o + off);
    PyObject *old = *p;
    *p = v;
    Py_XDECREF(old);
}

static inline PyObject *box_ll(long long v)
{
    if (v >= 0 && v < SMALL_INT_LIMIT) {
        PyObject *o = g.small_ints[v];
        Py_INCREF(o);
        return o;
    }
    if (v == -1) {
        Py_INCREF(g.neg_one);
        return g.neg_one;
    }
    return PyLong_FromLongLong(v);
}

/* Unbox an int we created ourselves (never fails on real ints). */
static inline long long ll_of(PyObject *o)
{
    return PyLong_AsLongLong(o);
}

static inline long long slot_ll(PyObject *o, Py_ssize_t off)
{
    return ll_of(SLOT(o, off));
}

static inline int slot_store_ll(PyObject *o, Py_ssize_t off, long long v)
{
    PyObject *b = box_ll(v);
    if (b == NULL)
        return -1;
    slot_store(o, off, b);
    return 0;
}

static inline void slot_store_bool(PyObject *o, Py_ssize_t off, int v)
{
    PyObject *b = v ? Py_True : Py_False;
    Py_INCREF(b);
    slot_store(o, off, b);
}

static inline int slot_true(PyObject *o, Py_ssize_t off)
{
    return SLOT(o, off) == Py_True;
}

/* list cell store (new reference is stolen after releasing the old). */
static inline void lset(PyObject *l, Py_ssize_t i, PyObject *v)
{
    PyObject *old = PyList_GET_ITEM(l, i);
    PyList_SET_ITEM(l, i, v);
    Py_XDECREF(old);
}

static inline int lset_ll(PyObject *l, Py_ssize_t i, long long v)
{
    PyObject *b = box_ll(v);
    if (b == NULL)
        return -1;
    lset(l, i, b);
    return 0;
}

static inline long long lget_ll(PyObject *l, Py_ssize_t i)
{
    return ll_of(PyList_GET_ITEM(l, i));
}

static inline int stat_add(PyObject *obj, Py_ssize_t off, long long d)
{
    return slot_store_ll(obj, off, slot_ll(obj, off) + d);
}

/* Generic sequence item (tuple or list) without a new reference. */
static inline PyObject *seq_item(PyObject *seq, Py_ssize_t i)
{
    if (PyTuple_CheckExact(seq))
        return PyTuple_GET_ITEM(seq, i);
    return PyList_GET_ITEM(seq, i);
}

static inline Py_ssize_t seq_size(PyObject *seq)
{
    if (PyTuple_CheckExact(seq))
        return PyTuple_GET_SIZE(seq);
    return PyList_GET_SIZE(seq);
}

/* ------------------------------------------------------------------ */
/* heap ops (bit-compatible with heapq on lists of ints / int pairs)   */
/* ------------------------------------------------------------------ */

/* Entries are unique ints (packed stamps, cycle marks) or (int, int)
 * tuples, so the ordering is strict and total: any valid binary heap
 * pops the same element heapq would, which is what licenses mixing C
 * and Python pushes/pops on the same list. */

static inline int ent_lt(PyObject *a, PyObject *b)
{
    if (PyTuple_CheckExact(a)) {
        long long a0 = ll_of(PyTuple_GET_ITEM(a, 0));
        long long b0 = ll_of(PyTuple_GET_ITEM(b, 0));
        if (a0 != b0)
            return a0 < b0;
        return ll_of(PyTuple_GET_ITEM(a, 1)) < ll_of(PyTuple_GET_ITEM(b, 1));
    }
    return ll_of(a) < ll_of(b);
}

static int heap_push(PyObject *heap, PyObject *item)
{
    if (PyList_Append(heap, item) < 0)
        return -1;
    Py_ssize_t pos = PyList_GET_SIZE(heap) - 1;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        PyObject *pa = PyList_GET_ITEM(heap, parent);
        PyObject *it = PyList_GET_ITEM(heap, pos);
        if (!ent_lt(it, pa))
            break;
        PyList_SET_ITEM(heap, pos, pa);
        PyList_SET_ITEM(heap, parent, it);
        pos = parent;
    }
    return 0;
}

static int heap_push_ll(PyObject *heap, long long v)
{
    PyObject *b = box_ll(v);
    if (b == NULL)
        return -1;
    int rc = heap_push(heap, b);
    Py_DECREF(b);
    return rc;
}

/* Pop the minimum; returns a new reference (NULL on error). */
static PyObject *heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last = PyList_GET_ITEM(heap, n - 1);
    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    n--;
    if (n == 0)
        return last;
    PyObject *ret = PyList_GET_ITEM(heap, 0);
    /* the list's reference to ret transfers to us; last moves to root */
    PyList_SET_ITEM(heap, 0, last);
    Py_ssize_t pos = 0;
    for (;;) {
        Py_ssize_t child = 2 * pos + 1;
        if (child >= n)
            break;
        if (child + 1 < n
            && ent_lt(PyList_GET_ITEM(heap, child + 1),
                      PyList_GET_ITEM(heap, child)))
            child++;
        PyObject *c = PyList_GET_ITEM(heap, child);
        PyObject *p = PyList_GET_ITEM(heap, pos);
        if (!ent_lt(c, p))
            break;
        PyList_SET_ITEM(heap, pos, c);
        PyList_SET_ITEM(heap, child, p);
        pos = child;
    }
    return ret;
}

/* Discard the minimum (for mark heaps). */
static int heap_pop_drop(PyObject *heap)
{
    PyObject *r = heap_pop(heap);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* heap[0] key for int heaps / heap[0][0] for tuple heaps. */
static inline long long heap_min_key(PyObject *heap)
{
    PyObject *root = PyList_GET_ITEM(heap, 0);
    if (PyTuple_CheckExact(root))
        return ll_of(PyTuple_GET_ITEM(root, 0));
    return ll_of(root);
}

/* ------------------------------------------------------------------ */
/* deque helpers                                                       */
/* ------------------------------------------------------------------ */

static inline Py_ssize_t deq_len(PyObject *d)
{
    return PyObject_Size(d);
}

static inline long long deq_peek0_ll(PyObject *d)
{
    PyObject *o = PySequence_GetItem(d, 0);
    if (o == NULL)
        return -1;
    long long v = ll_of(o);
    Py_DECREF(o);
    return v;
}

static inline int deq_popleft_drop(PyObject *d)
{
    PyObject *r = PyObject_CallMethodNoArgs(d, g.s_popleft);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

static inline int deq_append_ll(PyObject *d, long long v)
{
    PyObject *b = box_ll(v);
    if (b == NULL)
        return -1;
    PyObject *r = PyObject_CallMethodOneArg(d, g.s_append, b);
    Py_DECREF(b);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* ------------------------------------------------------------------ */
/* call helpers                                                        */
/* ------------------------------------------------------------------ */

static PyObject *call_method(PyObject *obj, PyObject *name,
                             PyObject *const *args, Py_ssize_t n)
{
    PyObject *stack[6];
    stack[0] = obj;
    for (Py_ssize_t i = 0; i < n; i++)
        stack[i + 1] = args[i];
    return PyObject_VectorcallMethod(name, stack, (size_t)(n + 1), NULL);
}

/* Ensure the lazily-cached SoAView for slot s; returns a NEW reference. */
static PyObject *ensure_view(PyObject *core, PyObject *col_views,
                             PyObject *col_gseq, long long s)
{
    PyObject *v = PyList_GET_ITEM(col_views, s);
    if (v != Py_None) {
        Py_INCREF(v);
        return v;
    }
    PyObject *s_obj = box_ll(s);
    if (s_obj == NULL)
        return NULL;
    PyObject *args[3] = {core, s_obj, PyList_GET_ITEM(col_gseq, s)};
    PyObject *nv = PyObject_Vectorcall(g.view_cls, args, 3, NULL);
    Py_DECREF(s_obj);
    if (nv == NULL)
        return NULL;
    Py_INCREF(nv);
    lset(col_views, s, nv);
    return nv;
}

/* ------------------------------------------------------------------ */
/* run context (the fused loop's hoisted locals)                       */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject *core;
    /* hoisted, identity-stable objects (borrowed from slots) */
    PyObject *ev_buckets, *ev_marks, *ev_over;
    PyObject *dt_buckets, *dt_marks, *dt_over;
    PyObject *wb_buckets, *wb_marks, *wb_over;
    PyObject *ready_int, *ready_ldst, *ready_fp, *ready_by_op;
    PyObject *threads;
    PyObject *fetch_candidates;
    PyObject *free_list;
    PyObject *col_instr, *col_thread, *col_seq, *col_gseq, *col_packed,
        *col_pending, *col_fe_ready, *col_flags, *col_refs, *col_waiter0,
        *col_waiters, *col_old_map, *col_ll_parents, *col_pred_ll,
        *col_fill_line, *col_level, *col_views;
    PyObject *on_ll_detect; /* owned: policy.on_ll_detect bound method */
    int olc_cleanup_only, ll_detect_is_base;
    /* immutable config scalars */
    long long mask, fetch_width, fetch_max_threads, fe_capacity,
        frontend_depth, decode_width, commit_width, wb_entries, line_shift,
        n_threads, full_mask, rob_size, lsq_size, int_iq_size, fp_iq_size,
        int_rename_regs, fp_rename_regs, num_int_alu, num_ldst, num_fp;
    int fast_forward, fetch_order_is_base, can_fetch_one, track_dep;
} Ctx;

#define OFF (g.off)

/* ------------------------------------------------------------------ */
/* event-wheel pushes (issue/commit helpers)                           */
/* ------------------------------------------------------------------ */

/* Append `packed` to buckets[when & mask], arming the mark heap when
 * the bucket was empty — the in-horizon wheel push. */
static int wheel_push(PyObject *buckets, PyObject *marks, long long mask,
                      long long when, PyObject *packed)
{
    Py_ssize_t idx = (Py_ssize_t)(when & mask);
    PyObject *bucket = PyList_GET_ITEM(buckets, idx);
    if (bucket != Py_None && PyList_GET_SIZE(bucket) > 0)
        return PyList_Append(bucket, packed);
    if (bucket == Py_None) {
        PyObject *nb = PyList_New(1);
        if (nb == NULL)
            return -1;
        Py_INCREF(packed);
        PyList_SET_ITEM(nb, 0, packed);
        lset(buckets, idx, nb);
    } else if (PyList_Append(bucket, packed) < 0) {
        return -1;
    }
    return heap_push_ll(marks, when);
}

/* heappush(over, (when, packed)) — the over-horizon spill. */
static int over_push(PyObject *over, long long when, PyObject *packed)
{
    PyObject *w = box_ll(when);
    if (w == NULL)
        return -1;
    PyObject *t = PyTuple_New(2);
    if (t == NULL) {
        Py_DECREF(w);
        return -1;
    }
    PyTuple_SET_ITEM(t, 0, w);
    Py_INCREF(packed);
    PyTuple_SET_ITEM(t, 1, packed);
    int rc = heap_push(over, t);
    Py_DECREF(t);
    return rc;
}

/* SMTCore._schedule_wb_drain, transliterated (commit's store path). */
static int schedule_wb_drain(Ctx *c, long long when, long long cycle)
{
    if (when <= cycle)
        when = cycle + 1;
    if (when - cycle <= c->mask) {
        Py_ssize_t idx = (Py_ssize_t)(when & c->mask);
        if (lget_ll(c->wb_buckets, idx) == 0) {
            if (heap_push_ll(c->wb_marks, when) < 0)
                return -1;
        }
        if (lset_ll(c->wb_buckets, idx,
                    lget_ll(c->wb_buckets, idx) + 1) < 0)
            return -1;
    } else if (heap_push_ll(c->wb_over, when) < 0) {
        return -1;
    }
    return stat_add(c->core, OFF.wb_used, 1);
}

/* ------------------------------------------------------------------ */
/* stage: event drains (the two inline wheel drains of the fused loop) */
/* ------------------------------------------------------------------ */

static int drain_one_bucket_sort(PyObject *bucket)
{
    Py_ssize_t n_due = PyList_GET_SIZE(bucket);
    if (n_due == 2) {
        PyObject *a = PyList_GET_ITEM(bucket, 0);
        PyObject *b = PyList_GET_ITEM(bucket, 1);
        if (ll_of(b) < ll_of(a)) { /* packed ints sort in age order */
            PyList_SET_ITEM(bucket, 0, b);
            PyList_SET_ITEM(bucket, 1, a);
        }
    } else if (n_due > 2) {
        if (PyList_Sort(bucket) < 0)
            return -1;
    }
    return 0;
}

static int stage_drain(Ctx *c, long long cycle, PyObject *cycle_obj)
{
    PyObject *core = c->core;
    Py_ssize_t idx = (Py_ssize_t)(cycle & c->mask);
    PyObject *bucket = PyList_GET_ITEM(c->ev_buckets, idx);
    int due = (bucket != Py_None && PyList_GET_SIZE(bucket) > 0)
        || (PyList_GET_SIZE(c->ev_over) > 0
            && heap_min_key(c->ev_over) <= cycle);
    PyObject *on_load_complete = SLOT(core, OFF.policy_on_load_complete);
    if (due) {
        /* completion loop — keep in sync with core.py */
        if (bucket == Py_None) {
            PyObject *nb = PyList_New(0);
            if (nb == NULL)
                return -1;
            lset(c->ev_buckets, idx, nb);
            bucket = nb; /* borrowed: the bucket list owns it */
        }
        while (PyList_GET_SIZE(c->ev_over) > 0
               && heap_min_key(c->ev_over) <= cycle) {
            PyObject *pair = heap_pop(c->ev_over);
            if (pair == NULL)
                return -1;
            int rc = PyList_Append(bucket, PyTuple_GET_ITEM(pair, 1));
            Py_DECREF(pair);
            if (rc < 0)
                return -1;
        }
        while (PyList_GET_SIZE(c->ev_marks) > 0
               && heap_min_key(c->ev_marks) <= cycle) {
            if (heap_pop_drop(c->ev_marks) < 0)
                return -1;
        }
        if (drain_one_bucket_sort(bucket) < 0)
            return -1;
        for (Py_ssize_t bi = 0; bi < PyList_GET_SIZE(bucket); bi++) {
            long long packed = ll_of(PyList_GET_ITEM(bucket, bi));
            Py_ssize_t s = (Py_ssize_t)(packed & SLOT_MASK);
            if (lget_ll(c->col_packed, s) != packed)
                continue; /* slot reclaimed and refetched */
            long long fl = lget_ll(c->col_flags, s);
            PyObject *ts = PyTuple_GET_ITEM(
                c->threads, (Py_ssize_t)lget_ll(c->col_thread, s));
            if ((fl & F_IS_LOAD) && lget_ll(c->col_pending, s) == -1) {
                if (stat_add(ts, OFF.ts_outstanding_misses, -1) < 0)
                    return -1;
                if (lset_ll(c->col_pending, s, 0) < 0)
                    return -1;
            }
            if (fl & F_SQUASHED) {
                if (!(fl & (F_FREED | F_IN_DETECTS))
                    && lget_ll(c->col_refs, s) == 0
                    && lget_ll(c->col_pending, s) == 0) {
                    PyObject *v = PyList_GET_ITEM(c->col_views, s);
                    int owner = 0;
                    if (v != Py_None) {
                        owner = PyDict_Contains(
                            SLOT(ts, OFF.ts_ll_owners), v);
                        if (owner < 0)
                            return -1;
                    }
                    if (v == Py_None || !owner) {
                        if (lset_ll(c->col_waiter0, s, -1) < 0)
                            return -1;
                        Py_INCREF(Py_None);
                        lset(c->col_waiters, s, Py_None);
                        if (lset_ll(c->col_old_map, s, -1) < 0)
                            return -1;
                        Py_INCREF(Py_None);
                        lset(c->col_fill_line, s, Py_None);
                        Py_INCREF(Py_None);
                        lset(c->col_views, s, Py_None);
                        if (lset_ll(c->col_flags, s, fl | F_FREED) < 0)
                            return -1;
                        PyObject *sb = box_ll(s);
                        if (sb == NULL)
                            return -1;
                        int rc = PyList_Append(c->free_list, sb);
                        Py_DECREF(sb);
                        if (rc < 0)
                            return -1;
                    }
                }
                continue;
            }
            fl |= F_COMPLETED;
            if (lset_ll(c->col_flags, s, fl) < 0)
                return -1;
            PyObject *window = SLOT(ts, OFF.ts_window);
            Py_ssize_t wlen = deq_len(window);
            if (wlen < 0)
                return -1;
            if (wlen > 0 && deq_peek0_ll(window) == s) {
                slot_store_bool(ts, OFF.ts_head_ready, 1);
                if (slot_store_ll(core, OFF.heads_mask,
                                  slot_ll(core, OFF.heads_mask)
                                  | slot_ll(ts, OFF.ts_tid_bit)) < 0)
                    return -1;
                slot_store_bool(core, OFF.commit_pending, 1);
            }
            PyObject *w0_obj = PyList_GET_ITEM(c->col_waiter0, s);
            long long w0 = ll_of(w0_obj);
            if (w0 >= 0) {
                Py_INCREF(w0_obj);
                if (lset_ll(c->col_waiter0, s, -1) < 0) {
                    Py_DECREF(w0_obj);
                    return -1;
                }
                Py_ssize_t ws = (Py_ssize_t)(w0 & SLOT_MASK);
                if (lget_ll(c->col_packed, ws) == w0) {
                    long long wfl = lget_ll(c->col_flags, ws);
                    if (!(wfl & F_FREED)) {
                        long long p = lget_ll(c->col_pending, ws) - 1;
                        if (lset_ll(c->col_pending, ws, p) < 0) {
                            Py_DECREF(w0_obj);
                            return -1;
                        }
                        if (p == 0 && !(wfl & F_NO_WAKE)
                            && (wfl & F_IN_IQ)) {
                            PyObject *instr =
                                PyList_GET_ITEM(c->col_instr, ws);
                            PyObject *q = PyTuple_GET_ITEM(
                                c->ready_by_op,
                                (Py_ssize_t)slot_ll(instr, OFF.in_op_i));
                            if (heap_push(q, w0_obj) < 0) {
                                Py_DECREF(w0_obj);
                                return -1;
                            }
                        }
                    }
                }
                Py_DECREF(w0_obj);
                PyObject *wl = PyList_GET_ITEM(c->col_waiters, s);
                if (wl != Py_None) {
                    Py_INCREF(wl);
                    Py_INCREF(Py_None);
                    lset(c->col_waiters, s, Py_None);
                    for (Py_ssize_t wi = 0; wi < PyList_GET_SIZE(wl);
                         wi++) {
                        PyObject *w_obj = PyList_GET_ITEM(wl, wi);
                        long long w = ll_of(w_obj);
                        Py_ssize_t ws2 = (Py_ssize_t)(w & SLOT_MASK);
                        if (lget_ll(c->col_packed, ws2) != w)
                            continue;
                        long long wfl = lget_ll(c->col_flags, ws2);
                        if (wfl & F_FREED)
                            continue;
                        long long p = lget_ll(c->col_pending, ws2) - 1;
                        if (lset_ll(c->col_pending, ws2, p) < 0) {
                            Py_DECREF(wl);
                            return -1;
                        }
                        if (p == 0 && !(wfl & F_NO_WAKE)
                            && (wfl & F_IN_IQ)) {
                            PyObject *instr =
                                PyList_GET_ITEM(c->col_instr, ws2);
                            PyObject *q = PyTuple_GET_ITEM(
                                c->ready_by_op,
                                (Py_ssize_t)slot_ll(instr, OFF.in_op_i));
                            if (heap_push(q, w_obj) < 0) {
                                Py_DECREF(wl);
                                return -1;
                            }
                        }
                    }
                    Py_DECREF(wl);
                }
            }
            if ((fl & F_IS_BRANCH)) {
                PyObject *wb = SLOT(ts, OFF.ts_waiting_branch);
                if (wb != Py_None && ll_of(wb) == s) {
                    Py_INCREF(Py_None);
                    slot_store(ts, OFF.ts_waiting_branch, Py_None);
                    PyObject *st = SLOT(ts, OFF.ts_stats);
                    if (stat_add(st, OFF.st_branch_stall_cycles,
                                 cycle - slot_ll(
                                     ts, OFF.ts_branch_wait_since)) < 0)
                        return -1;
                    if (slot_ll(ts, OFF.ts_fetch_blocked_until)
                        < cycle + 1) {
                        if (slot_store_ll(ts, OFF.ts_fetch_blocked_until,
                                          cycle + 1) < 0)
                            return -1;
                    }
                    if (slot_store_ll(core, OFF.fetch_wake, 0) < 0)
                        return -1;
                }
            }
            if ((fl & F_IS_LOAD) && on_load_complete != Py_None) {
                PyObject *v = PyList_GET_ITEM(c->col_views, s);
                if (v != Py_None) {
                    Py_INCREF(v);
                    PyObject *args[2] = {v, ts};
                    PyObject *r = PyObject_Vectorcall(on_load_complete,
                                                      args, 2, NULL);
                    Py_DECREF(v);
                    if (r == NULL)
                        return -1;
                    Py_DECREF(r);
                } else if (!c->olc_cleanup_only) {
                    PyObject *nv = ensure_view(core, c->col_views,
                                               c->col_gseq, s);
                    if (nv == NULL)
                        return -1;
                    PyObject *args[2] = {nv, ts};
                    PyObject *r = PyObject_Vectorcall(on_load_complete,
                                                      args, 2, NULL);
                    Py_DECREF(nv);
                    if (r == NULL)
                        return -1;
                    Py_DECREF(r);
                }
            }
        }
        if (PyList_SetSlice(bucket, 0, PY_SSIZE_T_MAX, NULL) < 0)
            return -1;
    }
    /* detection wheel */
    bucket = PyList_GET_ITEM(c->dt_buckets, idx);
    due = (bucket != Py_None && PyList_GET_SIZE(bucket) > 0)
        || (PyList_GET_SIZE(c->dt_over) > 0
            && heap_min_key(c->dt_over) <= cycle);
    if (due) {
        if (bucket == Py_None) {
            PyObject *nb = PyList_New(0);
            if (nb == NULL)
                return -1;
            lset(c->dt_buckets, idx, nb);
            bucket = nb;
        }
        while (PyList_GET_SIZE(c->dt_over) > 0
               && heap_min_key(c->dt_over) <= cycle) {
            PyObject *pair = heap_pop(c->dt_over);
            if (pair == NULL)
                return -1;
            int rc = PyList_Append(bucket, PyTuple_GET_ITEM(pair, 1));
            Py_DECREF(pair);
            if (rc < 0)
                return -1;
        }
        while (PyList_GET_SIZE(c->dt_marks) > 0
               && heap_min_key(c->dt_marks) <= cycle) {
            if (heap_pop_drop(c->dt_marks) < 0)
                return -1;
        }
        if (drain_one_bucket_sort(bucket) < 0)
            return -1;
        for (Py_ssize_t bi = 0; bi < PyList_GET_SIZE(bucket); bi++) {
            /* F_IN_DETECTS pins the slot: no generation check. */
            long long packed = ll_of(PyList_GET_ITEM(bucket, bi));
            Py_ssize_t s = (Py_ssize_t)(packed & SLOT_MASK);
            long long fl = lget_ll(c->col_flags, s) & ~F_IN_DETECTS;
            if (lset_ll(c->col_flags, s, fl) < 0)
                return -1;
            if (fl & (F_SQUASHED | F_COMPLETED)) {
                if ((fl & (F_SQUASHED | F_RETIRED)) && !(fl & F_FREED)
                    && lget_ll(c->col_refs, s) == 0
                    && lget_ll(c->col_pending, s) != -1) {
                    PyObject *ts = PyTuple_GET_ITEM(
                        c->threads,
                        (Py_ssize_t)lget_ll(c->col_thread, s));
                    PyObject *v = PyList_GET_ITEM(c->col_views, s);
                    int owner = 0;
                    if (v != Py_None) {
                        owner = PyDict_Contains(
                            SLOT(ts, OFF.ts_ll_owners), v);
                        if (owner < 0)
                            return -1;
                    }
                    if (v == Py_None || !owner) {
                        if (lset_ll(c->col_waiter0, s, -1) < 0)
                            return -1;
                        Py_INCREF(Py_None);
                        lset(c->col_waiters, s, Py_None);
                        if (lset_ll(c->col_old_map, s, -1) < 0)
                            return -1;
                        Py_INCREF(Py_None);
                        lset(c->col_fill_line, s, Py_None);
                        Py_INCREF(Py_None);
                        lset(c->col_views, s, Py_None);
                        if (lset_ll(c->col_flags, s, fl | F_FREED) < 0)
                            return -1;
                        PyObject *sb = box_ll(s);
                        if (sb == NULL)
                            return -1;
                        int rc = PyList_Append(c->free_list, sb);
                        Py_DECREF(sb);
                        if (rc < 0)
                            return -1;
                    }
                }
                continue;
            }
            if (!c->ll_detect_is_base) {
                PyObject *v = ensure_view(core, c->col_views,
                                          c->col_gseq, s);
                if (v == NULL)
                    return -1;
                PyObject *ts = PyTuple_GET_ITEM(
                    c->threads, (Py_ssize_t)lget_ll(c->col_thread, s));
                PyObject *args[2] = {v, ts};
                PyObject *r = PyObject_Vectorcall(c->on_ll_detect, args,
                                                  2, NULL);
                Py_DECREF(v);
                if (r == NULL)
                    return -1;
                Py_DECREF(r);
            }
        }
        if (PyList_SetSlice(bucket, 0, PY_SSIZE_T_MAX, NULL) < 0)
            return -1;
    }
    (void)cycle_obj;
    return 0;
}

/* ------------------------------------------------------------------ */
/* stage: commit                                                       */
/* ------------------------------------------------------------------ */

/* Try to free slot `p` after its ref count hit zero at retire time
 * (the parents / old_map decrement paths of the commit stage). */
static int commit_try_free(Ctx *c, long long p, PyObject *ll_owners)
{
    long long pfl = lget_ll(c->col_flags, p);
    if (!(pfl & F_RETIRED) || (pfl & (F_IN_DETECTS | F_FREED)))
        return 0;
    PyObject *v = PyList_GET_ITEM(c->col_views, p);
    if (v != Py_None) {
        int owner = PyDict_Contains(ll_owners, v);
        if (owner < 0)
            return -1;
        if (owner)
            return 0;
    }
    Py_INCREF(Py_None);
    lset(c->col_fill_line, p, Py_None);
    Py_INCREF(Py_None);
    lset(c->col_views, p, Py_None);
    if (lset_ll(c->col_flags, p, pfl | F_FREED) < 0)
        return -1;
    PyObject *pb = box_ll(p);
    if (pb == NULL)
        return -1;
    int rc = PyList_Append(c->free_list, pb);
    Py_DECREF(pb);
    return rc;
}

/* LLSR.commit_zeros(k) for the thread's staged zero run, on the LLSR's
 * slots: while the register is still filling, zeros land on pristine
 * entries; after that, when none of the (at most `length`) entries the
 * advance shifts out is a 1, the advance is a head/total bump (a 0 entry
 * always holds (0, -1), and the zero shifted in reuses the slot).  Only
 * when a 1 exits the head, whose measurement must fire in order, does
 * the Python method run. */
static int llsr_zeros(PyObject *ts, long long k)
{
    PyObject *llsr = SLOT(ts, OFF.ts_llsr);
    if (Py_TYPE(llsr) == g.llsr_type) {
        long long length = slot_ll(llsr, OFF.llsr_length);
        long long filled = slot_ll(llsr, OFF.llsr_filled);
        long long total = slot_ll(llsr, OFF.llsr_total);
        if (filled < length) {
            long long take = length - filled < k ? length - filled : k;
            total += take;
            k -= take;
            if (slot_store_ll(llsr, OFF.llsr_filled, filled + take) < 0
                || slot_store_ll(llsr, OFF.llsr_total, total) < 0)
                return -1;
            if (!k)
                return 0;
        }
        long long head = slot_ll(llsr, OFF.llsr_head);
        int exits_one = 0;
        if (slot_ll(llsr, OFF.llsr_last_one_total) + length > total) {
            /* a 1 is in the live window: does it reach the head? */
            PyObject *bits = SLOT(llsr, OFF.llsr_bits);
            long long n = k < length ? k : length;
            for (long long j = 0; j < n && !exits_one; j++)
                exits_one = lget_ll(bits, (head + j) % length) != 0;
        }
        if (!exits_one) {
            if (slot_store_ll(llsr, OFF.llsr_total, total + k) < 0
                || slot_store_ll(llsr, OFF.llsr_head,
                                 (head + k) % length) < 0)
                return -1;
            return 0;
        }
    }
    PyObject *kb = box_ll(k);
    if (kb == NULL)
        return -1;
    PyObject *r = PyObject_CallOneArg(SLOT(ts, OFF.ts_llsr_commit_zeros),
                                      kb);
    Py_DECREF(kb);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

static int stage_commit(Ctx *c, long long cycle, PyObject *cycle_obj)
{
    PyObject *core = c->core;
    long long n = c->n_threads;
    long long budget = c->commit_width;
    long long heads_mask = slot_ll(core, OFF.heads_mask);
    PyObject *order;
    if (n == 1) {
        order = c->threads;
    } else {
        PyObject *rot_cache = SLOT(core, OFF.rot_cache);
        PyObject *rotations = SLOT(core, OFF.rotations);
        Py_ssize_t rot = (Py_ssize_t)(cycle % n);
        if (rot_cache == Py_None) {
            order = seq_item(rotations, rot);
        } else {
            Py_ssize_t key = (Py_ssize_t)(heads_mask * n) + rot;
            order = PyList_GET_ITEM(rot_cache, key);
            if (order == Py_None) {
                PyObject *full = seq_item(rotations, rot);
                Py_ssize_t rn = seq_size(full);
                PyObject *lst = PyList_New(0);
                if (lst == NULL)
                    return -1;
                for (Py_ssize_t i = 0; i < rn; i++) {
                    PyObject *ts = seq_item(full, i);
                    if ((heads_mask >> slot_ll(ts, OFF.ts_tid)) & 1) {
                        if (PyList_Append(lst, ts) < 0) {
                            Py_DECREF(lst);
                            return -1;
                        }
                    }
                }
                PyObject *tup = PyList_AsTuple(lst);
                Py_DECREF(lst);
                if (tup == NULL)
                    return -1;
                lset(rot_cache, key, tup);      /* cache owns it now */
                order = tup;
            }
        }
    }
    long long rob_used = slot_ll(core, OFF.rob_used);
    long long lsq_used = slot_ll(core, OFF.lsq_used);
    long long int_regs_used = slot_ll(core, OFF.int_regs_used);
    long long fp_regs_used = slot_ll(core, OFF.fp_regs_used);
    long long watermark = slot_ll(core, OFF.committed_watermark);
    long long measure_start = slot_ll(core, OFF.measure_start);
    Py_ssize_t order_n = seq_size(order);
    while (budget > 0) {
        int progress = 0;
        for (Py_ssize_t oi = 0; oi < order_n; oi++) {
            PyObject *ts = seq_item(order, oi);
            if (budget == 0)
                break;
            if (!slot_true(ts, OFF.ts_head_ready))
                continue;
            PyObject *window = SLOT(ts, OFF.ts_window);
            long long s = deq_peek0_ll(window);
            if (s < 0)
                return -1;
            long long fl = lget_ll(c->col_flags, s);
            PyObject *instr = PyList_GET_ITEM(c->col_instr, s);
            if (fl & F_IS_STORE) {
                if (slot_ll(core, OFF.wb_used) >= c->wb_entries)
                    continue;
                PyObject *args[4] = {SLOT(ts, OFF.ts_tid),
                                     SLOT(instr, OFF.in_pc),
                                     SLOT(instr, OFF.in_addr), cycle_obj};
                PyObject *result = PyObject_Vectorcall(
                    SLOT(core, OFF.hier_store), args, 4, NULL);
                if (result == NULL)
                    return -1;
                long long when = slot_ll(result, OFF.ar_complete_cycle);
                Py_DECREF(result);
                if (schedule_wb_drain(c, when, cycle) < 0)
                    return -1;
            }
            if (deq_popleft_drop(window) < 0)
                return -1;
            int next_ready = 0;
            if (deq_len(window) > 0) {
                long long h = deq_peek0_ll(window);
                if (h < 0)
                    return -1;
                next_ready = (lget_ll(c->col_flags, h) & F_COMPLETED) != 0;
            }
            if (!next_ready) {
                slot_store_bool(ts, OFF.ts_head_ready, 0);
                heads_mask &= ~slot_ll(ts, OFF.ts_tid_bit);
            }
            rob_used -= 1;
            if (stat_add(ts, OFF.ts_rob_count, -1) < 0)
                return -1;
            PyObject *st = SLOT(ts, OFF.ts_stats);
            long long committed = slot_ll(st, OFF.st_committed) + 1;
            if (slot_store_ll(st, OFF.st_committed, committed) < 0)
                return -1;
            if (committed > watermark)
                watermark = committed;
            PyObject *cc = SLOT(ts, OFF.ts_commit_cycles);
            if (cc != Py_None) {
                PyObject *b = box_ll(cycle - measure_start);
                if (b == NULL)
                    return -1;
                int rc = PyList_Append(cc, b);
                Py_DECREF(b);
                if (rc < 0)
                    return -1;
            }
            if (fl & F_MEM) {
                if (stat_add(ts, OFF.ts_lsq_count, -1) < 0)
                    return -1;
                lsq_used -= 1;
            }
            if (fl & F_HAS_DEST) {
                if (fl & F_DEST_FP) {
                    if (stat_add(ts, OFF.ts_fp_regs, -1) < 0)
                        return -1;
                    fp_regs_used -= 1;
                } else {
                    if (stat_add(ts, OFF.ts_int_regs, -1) < 0)
                        return -1;
                    int_regs_used -= 1;
                }
            }
            int dependent = 0;
            PyObject *parents = PyList_GET_ITEM(c->col_ll_parents, s);
            if (parents != Py_None) {
                Py_INCREF(parents);
                Py_INCREF(Py_None);
                lset(c->col_ll_parents, s, Py_None);
                PyObject *ll_owners = SLOT(ts, OFF.ts_ll_owners);
                Py_ssize_t pn = PyTuple_GET_SIZE(parents);
                for (Py_ssize_t i = 0; i < pn; i++) {
                    long long p = ll_of(PyTuple_GET_ITEM(parents, i));
                    if (lget_ll(c->col_flags, p)
                            & (F_IS_LL | F_LL_DEP)) {
                        dependent = 1;
                        break;
                    }
                }
                if (dependent) {
                    fl |= F_LL_DEP;
                    if (lset_ll(c->col_flags, s, fl) < 0) {
                        Py_DECREF(parents);
                        return -1;
                    }
                }
                for (Py_ssize_t i = 0; i < pn; i++) {
                    long long p = ll_of(PyTuple_GET_ITEM(parents, i));
                    long long r = lget_ll(c->col_refs, p) - 1;
                    if (lset_ll(c->col_refs, p, r) < 0) {
                        Py_DECREF(parents);
                        return -1;
                    }
                    if (r == 0 && commit_try_free(c, p, ll_owners) < 0) {
                        Py_DECREF(parents);
                        return -1;
                    }
                }
                Py_DECREF(parents);
            }
            /* F_IS_LL implies F_IS_LOAD (set only in the issue load
             * body), matching the object engine's two-flag test. */
            if (fl & F_IS_LL) {
                long long z = slot_ll(ts, OFF.ts_llsr_zeros);
                if (z) {
                    if (slot_store_ll(ts, OFF.ts_llsr_zeros, 0) < 0
                        || llsr_zeros(ts, z) < 0)
                        return -1;
                }
                PyObject *args[3] = {Py_True, SLOT(instr, OFF.in_pc),
                                     dependent ? Py_True : Py_False};
                PyObject *r = PyObject_Vectorcall(
                    SLOT(ts, OFF.ts_llsr_commit), args, 3, NULL);
                if (r == NULL)
                    return -1;
                Py_DECREF(r);
            } else if (stat_add(ts, OFF.ts_llsr_zeros, 1) < 0) {
                return -1;
            }
            long long old = lget_ll(c->col_old_map, s);
            if (old >= 0) {
                if (lset_ll(c->col_old_map, s, -1) < 0)
                    return -1;
                long long r = lget_ll(c->col_refs, old) - 1;
                if (lset_ll(c->col_refs, old, r) < 0)
                    return -1;
                if (r == 0
                    && commit_try_free(c, old,
                                       SLOT(ts, OFF.ts_ll_owners)) < 0)
                    return -1;
            }
            int freed = 0;
            if (lget_ll(c->col_refs, s) == 0 && !(fl & F_IN_DETECTS)) {
                PyObject *v = PyList_GET_ITEM(c->col_views, s);
                int owner = 0;
                if (v != Py_None) {
                    owner = PyDict_Contains(SLOT(ts, OFF.ts_ll_owners), v);
                    if (owner < 0)
                        return -1;
                }
                if (v == Py_None || !owner) {
                    Py_INCREF(Py_None);
                    lset(c->col_fill_line, s, Py_None);
                    Py_INCREF(Py_None);
                    lset(c->col_views, s, Py_None);
                    PyObject *sb = box_ll(s);
                    if (sb == NULL)
                        return -1;
                    int rc = PyList_Append(c->free_list, sb);
                    Py_DECREF(sb);
                    if (rc < 0)
                        return -1;
                    freed = 1;
                }
            }
            /* one merged store boxes a single result int */
            if (lset_ll(c->col_flags, s,
                        fl | (freed ? F_RETIRED_FREED : F_RETIRED)) < 0)
                return -1;
            budget -= 1;
            progress = 1;
        }
        if (!progress)
            break;
    }
    if (budget < c->commit_width) {   /* at least one retire happened */
        for (Py_ssize_t oi = 0; oi < order_n; oi++) {
            PyObject *ts = seq_item(order, oi);
            long long z = slot_ll(ts, OFF.ts_llsr_zeros);
            if (z) {
                if (slot_store_ll(ts, OFF.ts_llsr_zeros, 0) < 0
                    || llsr_zeros(ts, z) < 0)
                    return -1;
            }
        }
        if (slot_store_ll(core, OFF.committed_watermark, watermark) < 0
            || stat_add(core, OFF.release_epoch, 1) < 0
            || slot_store_ll(core, OFF.rob_used, rob_used) < 0
            || slot_store_ll(core, OFF.lsq_used, lsq_used) < 0
            || slot_store_ll(core, OFF.int_regs_used, int_regs_used) < 0
            || slot_store_ll(core, OFF.fp_regs_used, fp_regs_used) < 0
            || slot_store_ll(core, OFF.heads_mask, heads_mask) < 0)
            return -1;
    }
    slot_store_bool(core, OFF.commit_pending, heads_mask != 0);
    return 0;
}

/* ------------------------------------------------------------------ */
/* stage: issue (with _execute's two branches inlined)                 */
/* ------------------------------------------------------------------ */

/* The int/fp queues share one body: dequeue bookkeeping plus a fixed
 * cycle+latency completion (always in-horizon). */
static int issue_simple_queue(Ctx *c, PyObject *queue, long long slots,
                              Py_ssize_t used_off, long long cycle,
                              int *issued)
{
    while (PyList_GET_SIZE(queue) > 0 && slots > 0) {
        PyObject *packed_obj = heap_pop(queue);
        if (packed_obj == NULL)
            return -1;
        long long packed = ll_of(packed_obj);
        Py_ssize_t s = (Py_ssize_t)(packed & SLOT_MASK);
        if (lget_ll(c->col_packed, s) != packed) {
            Py_DECREF(packed_obj);
            continue;
        }
        long long fl = lget_ll(c->col_flags, s);
        if (fl & F_DEAD_OR_DONE) {
            Py_DECREF(packed_obj);
            continue;
        }
        if (fl & F_IN_IQ) {
            PyObject *ts = PyTuple_GET_ITEM(
                c->threads, (Py_ssize_t)lget_ll(c->col_thread, s));
            if (fl & F_IQ_FP) {
                if (stat_add(ts, OFF.ts_fq_count, -1) < 0
                    || stat_add(c->core, OFF.fq_used, -1) < 0)
                    goto err;
            } else {
                if (stat_add(ts, OFF.ts_iq_count, -1) < 0
                    || stat_add(c->core, OFF.iq_used, -1) < 0)
                    goto err;
            }
            if (stat_add(ts, OFF.ts_icount, -1) < 0)
                goto err;
            fl &= ~F_IN_IQ;
        }
        if (lset_ll(c->col_flags, s, fl | F_ISSUED) < 0)
            goto err;
        long long completion = cycle
            + slot_ll(PyList_GET_ITEM(c->col_instr, s), OFF.in_latency);
        /* always in-horizon (latency <= 4) */
        if (wheel_push(c->ev_buckets, c->ev_marks, c->mask, completion,
                       packed_obj) < 0)
            goto err;
        slots -= 1;
        *issued = 1;
        Py_DECREF(packed_obj);
        continue;
    err:
        Py_DECREF(packed_obj);
        return -1;
    }
    (void)used_off;
    return 0;
}

static int stage_issue(Ctx *c, long long cycle, PyObject *cycle_obj)
{
    int issued = 0;
    if (PyList_GET_SIZE(c->ready_int) > 0
        && issue_simple_queue(c, c->ready_int, c->num_int_alu,
                              OFF.iq_used, cycle, &issued) < 0)
        return -1;
    PyObject *queue = c->ready_ldst;
    if (PyList_GET_SIZE(queue) > 0) {
        long long slots = c->num_ldst;
        while (PyList_GET_SIZE(queue) > 0 && slots > 0) {
            PyObject *packed_obj = heap_pop(queue);
            if (packed_obj == NULL)
                return -1;
            long long packed = ll_of(packed_obj);
            Py_ssize_t s = (Py_ssize_t)(packed & SLOT_MASK);
            if (lget_ll(c->col_packed, s) != packed) {
                Py_DECREF(packed_obj);
                continue;
            }
            long long fl = lget_ll(c->col_flags, s);
            if (fl & F_DEAD_OR_DONE) {
                Py_DECREF(packed_obj);
                continue;
            }
            PyObject *ts = PyTuple_GET_ITEM(
                c->threads, (Py_ssize_t)lget_ll(c->col_thread, s));
            if (fl & F_IN_IQ) {
                if (fl & F_IQ_FP) {
                    if (stat_add(ts, OFF.ts_fq_count, -1) < 0
                        || stat_add(c->core, OFF.fq_used, -1) < 0)
                        goto err;
                } else {
                    if (stat_add(ts, OFF.ts_iq_count, -1) < 0
                        || stat_add(c->core, OFF.iq_used, -1) < 0)
                        goto err;
                }
                if (stat_add(ts, OFF.ts_icount, -1) < 0)
                    goto err;
                fl &= ~F_IN_IQ;
            }
            fl |= F_ISSUED;
            PyObject *instr = PyList_GET_ITEM(c->col_instr, s);
            long long completion;
            if (fl & F_IS_LOAD) {
                /* _execute's load body, columnized */
                PyObject *when_obj = box_ll(
                    cycle + slot_ll(instr, OFF.in_latency));
                if (when_obj == NULL)
                    goto err;
                PyObject *args[4] = {SLOT(ts, OFF.ts_tid),
                                     SLOT(instr, OFF.in_pc),
                                     SLOT(instr, OFF.in_addr), when_obj};
                PyObject *result = PyObject_Vectorcall(
                    SLOT(c->core, OFF.hier_load), args, 4, NULL);
                Py_DECREF(when_obj);
                if (result == NULL)
                    goto err;
                completion = slot_ll(result, OFF.ar_complete_cycle);
                int is_ll =
                    PyObject_IsTrue(SLOT(result, OFF.ar_long_latency));
                if (is_ll)
                    fl |= F_IS_LL;
                PyObject *level = SLOT(result, OFF.ar_level);
                Py_INCREF(level);
                lset(c->col_level, s, level);
                PyObject *stats = SLOT(ts, OFF.ts_stats);
                if (stat_add(stats, OFF.st_loads_executed, 1) < 0)
                    goto err_res;
                {
                    PyObject *targs[2] = {SLOT(instr, OFF.in_pc),
                                          is_ll ? Py_True : Py_False};
                    PyObject *r = call_method(SLOT(ts, OFF.ts_lll_pred),
                                              g.s_train, targs, 2);
                    if (r == NULL)
                        goto err_res;
                    Py_DECREF(r);
                }
                PyObject *predicted = PyList_GET_ITEM(c->col_pred_ll, s);
                if (predicted != Py_None) {
                    if (stat_add(stats, OFF.st_lll_pred_loads, 1) < 0)
                        goto err_res;
                    int pred = PyObject_IsTrue(predicted);
                    if (pred == is_ll
                        && stat_add(stats, OFF.st_lll_pred_correct,
                                    1) < 0)
                        goto err_res;
                    if (is_ll) {
                        if (stat_add(stats, OFF.st_lll_pred_miss_actual,
                                     1) < 0)
                            goto err_res;
                        if (pred
                            && stat_add(stats,
                                        OFF.st_lll_pred_miss_correct,
                                        1) < 0)
                            goto err_res;
                    }
                }
                if (is_ll && stat_add(stats, OFF.st_ll_loads, 1) < 0)
                    goto err_res;
                if (PyObject_IsTrue(SLOT(result, OFF.ar_trigger))) {
                    fl |= F_IN_DETECTS;
                    long long when =
                        slot_ll(result, OFF.ar_detect_cycle);
                    if (when <= cycle)
                        when = cycle + 1;
                    if (when - cycle <= c->mask) {
                        if (wheel_push(c->dt_buckets, c->dt_marks,
                                       c->mask, when, packed_obj) < 0)
                            goto err_res;
                    } else if (over_push(c->dt_over, when,
                                         packed_obj) < 0) {
                        goto err_res;
                    }
                }
                PyObject *fill = SLOT(result, OFF.ar_fill_line);
                Py_INCREF(fill);
                lset(c->col_fill_line, s, fill);
                if (SLOT(result, OFF.ar_level) != g.l1_level) {
                    if (stat_add(ts, OFF.ts_outstanding_misses, 1) < 0)
                        goto err_res;
                    if (lset_ll(c->col_pending, s, -1) < 0)
                        goto err_res;
                }
                if (lset_ll(c->col_flags, s, fl) < 0)
                    goto err_res;
                if (completion - cycle <= c->mask) {
                    if (wheel_push(c->ev_buckets, c->ev_marks, c->mask,
                                   completion, packed_obj) < 0)
                        goto err_res;
                } else if (over_push(c->ev_over, completion,
                                     packed_obj) < 0) {
                    goto err_res;
                }
                Py_DECREF(result);
                goto issued_one;
            err_res:
                Py_DECREF(result);
                goto err;
            } else {
                /* stores: address generation only; memory access
                 * happens at commit via the write buffer */
                if (lset_ll(c->col_flags, s, fl) < 0)
                    goto err;
                completion = cycle + slot_ll(instr, OFF.in_latency);
                if (wheel_push(c->ev_buckets, c->ev_marks, c->mask,
                               completion, packed_obj) < 0)
                    goto err;
            }
        issued_one:
            slots -= 1;
            issued = 1;
            Py_DECREF(packed_obj);
            continue;
        err:
            Py_DECREF(packed_obj);
            return -1;
        }
    }
    if (PyList_GET_SIZE(c->ready_fp) > 0
        && issue_simple_queue(c, c->ready_fp, c->num_fp,
                              OFF.fq_used, cycle, &issued) < 0)
        return -1;
    if (issued && stat_add(c->core, OFF.release_epoch, 1) < 0)
        return -1;
    (void)cycle_obj;
    return 0;
}

/* ------------------------------------------------------------------ */
/* stage: dispatch (rename + resource allocation)                      */
/* ------------------------------------------------------------------ */

static int stage_dispatch(Ctx *c, long long cycle, PyObject *cycle_obj)
{
    PyObject *core = c->core;
    long long budget = c->decode_width;
    int any_ready = 0;
    int blocked_by_resource = 0;
    long long dispatched = 0;
    long long n = c->n_threads;
    long long release_epoch = slot_ll(core, OFF.release_epoch);
    PyObject *order;
    if (n == 1) {
        order = c->threads;
    } else {
        PyObject *rot_cache = SLOT(core, OFF.rot_cache);
        PyObject *rotations = SLOT(core, OFF.rotations);
        Py_ssize_t rot = (Py_ssize_t)((cycle + 1) % n);
        long long fe_mask = slot_ll(core, OFF.fe_mask);
        if (rot_cache == Py_None || fe_mask == c->full_mask) {
            order = seq_item(rotations, rot);
        } else {
            Py_ssize_t key = (Py_ssize_t)(fe_mask * n) + rot;
            order = PyList_GET_ITEM(rot_cache, key);
            if (order == Py_None) {
                PyObject *full = seq_item(rotations, rot);
                Py_ssize_t rn = seq_size(full);
                PyObject *lst = PyList_New(0);
                if (lst == NULL)
                    return -1;
                for (Py_ssize_t i = 0; i < rn; i++) {
                    PyObject *ts = seq_item(full, i);
                    if ((fe_mask >> slot_ll(ts, OFF.ts_tid)) & 1) {
                        if (PyList_Append(lst, ts) < 0) {
                            Py_DECREF(lst);
                            return -1;
                        }
                    }
                }
                PyObject *tup = PyList_AsTuple(lst);
                Py_DECREF(lst);
                if (tup == NULL)
                    return -1;
                lset(rot_cache, key, tup);
                order = tup;
            }
        }
    }
    /* lazily hoisted used counters */
    int hoisted = 0;
    long long rob_used = 0, lsq_used = 0, iq_used = 0, fq_used = 0,
        int_regs_used = 0, fp_regs_used = 0;
    int gates_free = 0;
    PyObject *can_dispatch = NULL;   /* borrowed; Py_None means allow-all */
    Py_ssize_t order_n = seq_size(order);
    for (Py_ssize_t oi = 0; oi < order_n; oi++) {
        PyObject *ts = seq_item(order, oi);
        if (budget == 0)
            break;
        if (cycle < slot_ll(ts, OFF.ts_dispatch_wait_until))
            continue;   /* head not through the front end yet */
        PyObject *fe = SLOT(ts, OFF.ts_fe_queue);
        if (deq_len(fe) == 0)
            continue;
        long long head = deq_peek0_ll(fe);
        if (head < 0)
            return -1;
        /* The latch holds a bare slot: within one release epoch the
         * head cannot change, so a slot match is an instruction match. */
        PyObject *dbh = SLOT(ts, OFF.ts_dispatch_blocked_head);
        if (dbh != Py_None && ll_of(dbh) == head) {
            if (slot_ll(ts, OFF.ts_dispatch_blocked_epoch)
                    == release_epoch) {
                any_ready = 1;
                blocked_by_resource = 1;
                continue;
            }
            Py_INCREF(Py_None);
            slot_store(ts, OFF.ts_dispatch_blocked_head, Py_None);
        }
        if (lget_ll(c->col_fe_ready, head) > cycle) {
            if (slot_store_ll(ts, OFF.ts_dispatch_wait_until,
                              lget_ll(c->col_fe_ready, head)) < 0)
                return -1;
            continue;
        }
        if (!hoisted) {
            hoisted = 1;
            rob_used = slot_ll(core, OFF.rob_used);
            lsq_used = slot_ll(core, OFF.lsq_used);
            iq_used = slot_ll(core, OFF.iq_used);
            fq_used = slot_ll(core, OFF.fq_used);
            int_regs_used = slot_ll(core, OFF.int_regs_used);
            fp_regs_used = slot_ll(core, OFF.fp_regs_used);
            can_dispatch = SLOT(core, OFF.policy_can_dispatch);
            gates_free =
                c->rob_size - rob_used >= budget
                && c->lsq_size - lsq_used >= budget
                && c->int_iq_size - iq_used >= budget
                && c->fp_iq_size - fq_used >= budget
                && c->int_rename_regs - int_regs_used >= budget
                && c->fp_rename_regs - fp_regs_used >= budget;
        }
        PyObject *rename_map = SLOT(ts, OFF.ts_rename_map);
        PyObject *window = SLOT(ts, OFF.ts_window);
        int fe_was_full = deq_len(fe) >= c->fe_capacity;
        long long tl_rob = slot_ll(ts, OFF.ts_rob_count);
        long long tl_lsq = slot_ll(ts, OFF.ts_lsq_count);
        long long tl_iq = slot_ll(ts, OFF.ts_iq_count);
        long long tl_fq = slot_ll(ts, OFF.ts_fq_count);
        long long tl_ir = slot_ll(ts, OFF.ts_int_regs);
        long long tl_fr = slot_ll(ts, OFF.ts_fp_regs);
        int tl_dirty = 0;
        while (budget > 0 && deq_len(fe) > 0) {
            long long s = deq_peek0_ll(fe);
            if (s < 0)
                return -1;
            if (lget_ll(c->col_fe_ready, s) > cycle) {
                if (slot_store_ll(ts, OFF.ts_dispatch_wait_until,
                                  lget_ll(c->col_fe_ready, s)) < 0)
                    return -1;
                break;
            }
            any_ready = 1;
            PyObject *instr = PyList_GET_ITEM(c->col_instr, s);
            long long fl = lget_ll(c->col_flags, s);
            long long is_mem = fl & F_MEM;
            int fp_queue = SLOT(instr, OFF.in_fp_queue) == Py_True;
            if (!gates_free) {
                int blocked =
                    rob_used >= c->rob_size
                    || (is_mem && lsq_used >= c->lsq_size)
                    || (fp_queue ? fq_used >= c->fp_iq_size
                                 : iq_used >= c->int_iq_size)
                    || ((fl & F_HAS_DEST)
                        && ((fl & F_DEST_FP)
                                ? fp_regs_used >= c->fp_rename_regs
                                : int_regs_used >= c->int_rename_regs));
                if (blocked) {
                    if (slot_store_ll(ts, OFF.ts_dispatch_blocked_head,
                                      s) < 0
                        || slot_store_ll(
                               ts, OFF.ts_dispatch_blocked_epoch,
                               release_epoch) < 0)
                        return -1;
                    blocked_by_resource = 1;
                    break;
                }
            }
            if (can_dispatch != Py_None) {
                if (tl_dirty) {
                    tl_dirty = 0;
                    if (slot_store_ll(ts, OFF.ts_rob_count, tl_rob) < 0
                        || slot_store_ll(ts, OFF.ts_lsq_count,
                                         tl_lsq) < 0
                        || slot_store_ll(ts, OFF.ts_iq_count, tl_iq) < 0
                        || slot_store_ll(ts, OFF.ts_fq_count, tl_fq) < 0
                        || slot_store_ll(ts, OFF.ts_int_regs, tl_ir) < 0
                        || slot_store_ll(ts, OFF.ts_fp_regs, tl_fr) < 0)
                        return -1;
                }
                PyObject *v = ensure_view(core, c->col_views,
                                          c->col_gseq, s);
                if (v == NULL)
                    return -1;
                PyObject *cargs[2] = {ts, v};
                PyObject *r = PyObject_Vectorcall(can_dispatch, cargs,
                                                  2, NULL);
                Py_DECREF(v);
                if (r == NULL)
                    return -1;
                int ok = PyObject_IsTrue(r);
                Py_DECREF(r);
                if (ok < 0)
                    return -1;
                if (!ok)
                    break;   /* policy cap, not a resource stall */
            }
            /* all checks passed: allocate and rename */
            rob_used += 1;
            tl_rob += 1;
            tl_dirty = 1;
            if (is_mem) {
                lsq_used += 1;
                tl_lsq += 1;
            }
            if (fp_queue) {
                fq_used += 1;
                tl_fq += 1;
                fl |= F_IN_IQ | F_IQ_FP;
            } else {
                iq_used += 1;
                tl_iq += 1;
                fl |= F_IN_IQ;
            }
            PyObject *packed_obj = PyList_GET_ITEM(c->col_packed, s);
            long long pending = 0;
            long long parents_arr[MAX_SRCS];
            int pn = 0;
            PyObject *srcs = SLOT(instr, OFF.in_srcs);
            Py_ssize_t nsrc = PyTuple_GET_SIZE(srcs);
            for (Py_ssize_t i = 0; i < nsrc; i++) {
                long long src = ll_of(PyTuple_GET_ITEM(srcs, i));
                long long prod = lget_ll(rename_map, src);
                if (prod < 0)
                    continue;
                long long pfl = lget_ll(c->col_flags, prod);
                if (c->track_dep
                    && ((pfl & (F_IS_LOAD | F_LL_DEP))
                        || PyList_GET_ITEM(c->col_ll_parents, prod)
                               != Py_None)) {
                    if (pn >= MAX_SRCS) {
                        PyErr_SetString(PyExc_RuntimeError,
                                        "too many source operands");
                        return -1;
                    }
                    parents_arr[pn++] = prod;
                    if (lset_ll(c->col_refs, prod,
                                lget_ll(c->col_refs, prod) + 1) < 0)
                        return -1;
                }
                if (!(pfl & F_COMPLETED)) {
                    pending += 1;
                    if (lget_ll(c->col_waiter0, prod) < 0) {
                        Py_INCREF(packed_obj);
                        lset(c->col_waiter0, prod, packed_obj);
                    } else {
                        PyObject *wl =
                            PyList_GET_ITEM(c->col_waiters, prod);
                        if (wl == Py_None) {
                            PyObject *nl = PyList_New(1);
                            if (nl == NULL)
                                return -1;
                            Py_INCREF(packed_obj);
                            PyList_SET_ITEM(nl, 0, packed_obj);
                            lset(c->col_waiters, prod, nl);
                        } else if (PyList_Append(wl, packed_obj) < 0) {
                            return -1;
                        }
                    }
                }
            }
            if (pending && lset_ll(c->col_pending, s, pending) < 0)
                return -1;
            if (pn) {
                PyObject *tup = PyTuple_New(pn);
                if (tup == NULL)
                    return -1;
                for (int i = 0; i < pn; i++) {
                    PyObject *b = box_ll(parents_arr[i]);
                    if (b == NULL) {
                        Py_DECREF(tup);
                        return -1;
                    }
                    PyTuple_SET_ITEM(tup, i, b);
                }
                lset(c->col_ll_parents, s, tup);
            }
            if (fl & F_HAS_DEST) {
                long long dest = slot_ll(instr, OFF.in_dest);
                if (lset_ll(c->col_old_map, s,
                            lget_ll(rename_map, dest)) < 0
                    || lset_ll(rename_map, dest, s) < 0
                    /* rename-current ref; the old entry's ref transfers
                     * to the old_map slot */
                    || lset_ll(c->col_refs, s,
                               lget_ll(c->col_refs, s) + 1) < 0)
                    return -1;
                if (fl & F_DEST_FP) {
                    fp_regs_used += 1;
                    tl_fr += 1;
                } else {
                    int_regs_used += 1;
                    tl_ir += 1;
                }
            }
            if (lset_ll(c->col_flags, s, fl) < 0)
                return -1;
            if (deq_append_ll(window, s) < 0)
                return -1;
            if (!pending) {
                PyObject *q = seq_item(c->ready_by_op,
                                       slot_ll(instr, OFF.in_op_i));
                if (heap_push(q, packed_obj) < 0)
                    return -1;
            }
            if (deq_popleft_drop(fe) < 0)
                return -1;
            budget -= 1;
            dispatched += 1;
        }
        if (tl_dirty) {
            if (slot_store_ll(ts, OFF.ts_rob_count, tl_rob) < 0
                || slot_store_ll(ts, OFF.ts_lsq_count, tl_lsq) < 0
                || slot_store_ll(ts, OFF.ts_iq_count, tl_iq) < 0
                || slot_store_ll(ts, OFF.ts_fq_count, tl_fq) < 0
                || slot_store_ll(ts, OFF.ts_int_regs, tl_ir) < 0
                || slot_store_ll(ts, OFF.ts_fp_regs, tl_fr) < 0)
                return -1;
        }
        if (fe_was_full && deq_len(fe) < c->fe_capacity
            && slot_store_ll(core, OFF.fetch_wake, 0) < 0)
            return -1;
        if (deq_len(fe) == 0
            && slot_store_ll(core, OFF.fe_mask,
                             slot_ll(core, OFF.fe_mask)
                                 & ~slot_ll(ts, OFF.ts_tid_bit)) < 0)
            return -1;
    }
    if (dispatched) {
        if (slot_store_ll(core, OFF.rob_used, rob_used) < 0
            || slot_store_ll(core, OFF.lsq_used, lsq_used) < 0
            || slot_store_ll(core, OFF.iq_used, iq_used) < 0
            || slot_store_ll(core, OFF.fq_used, fq_used) < 0
            || slot_store_ll(core, OFF.int_regs_used, int_regs_used) < 0
            || slot_store_ll(core, OFF.fp_regs_used, fp_regs_used) < 0)
            return -1;
    } else if (!any_ready
               && SLOT(core, OFF.policy_can_dispatch) == Py_None) {
        long long wake = cycle + (1LL << 30);
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(c->threads); i++) {
            long long wu = slot_ll(PyTuple_GET_ITEM(c->threads, i),
                                   OFF.ts_dispatch_wait_until);
            if (cycle < wu && wu < wake)
                wake = wu;
        }
        if (slot_store_ll(core, OFF.dispatch_wake, wake) < 0)
            return -1;
    }
    if (any_ready && dispatched == 0 && blocked_by_resource) {
        if (stat_add(SLOT(core, OFF.stats),
                     OFF.cs_resource_stall_cycles, 1) < 0)
            return -1;
        PyObject *ors = SLOT(core, OFF.policy_on_resource_stall);
        if (ors != Py_None) {   /* None: marked no-op hook */
            PyObject *r = PyObject_CallOneArg(ors, cycle_obj);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
        } else if (SLOT(core, OFF.policy_can_dispatch) == Py_None) {
            long long wake = cycle + (1LL << 30);
            for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(c->threads);
                 i++) {
                long long wu = slot_ll(PyTuple_GET_ITEM(c->threads, i),
                                       OFF.ts_dispatch_wait_until);
                if (cycle < wu && wu < wake)
                    wake = wu;
            }
            if (slot_store_ll(core, OFF.stall_latch_until, wake) < 0
                || slot_store_ll(core, OFF.stall_latch_epoch,
                                 release_epoch) < 0)
                return -1;
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* stage: fetch (one thread's burst)                                   */
/* ------------------------------------------------------------------ */

/* repro.pipeline.dyninstr.instr_flags, transliterated. */
static long long instr_flags_c(PyObject *instr)
{
    long long flags = 0;
    if (SLOT(instr, OFF.in_has_dest) == Py_True)
        flags |= F_HAS_DEST;
    if (SLOT(instr, OFF.in_dest_fp) == Py_True)
        flags |= F_DEST_FP;
    if (SLOT(instr, OFF.in_is_load) == Py_True)
        flags |= F_IS_LOAD;
    else if (SLOT(instr, OFF.in_is_store) == Py_True)
        flags |= F_IS_STORE;
    else if (SLOT(instr, OFF.in_is_branch) == Py_True)
        flags |= F_IS_BRANCH;
    return flags;
}

/* ------------------------------------------------------------------ */
/* trace rows (repro.workloads.trace.SyntheticTrace._row / get)        */
/* ------------------------------------------------------------------ */

/* repro.util.mix64_step: unsigned wrap-around is mix64's 64-bit mask. */
static inline unsigned long long mix64_step(unsigned long long h,
                                            unsigned long long key)
{
    h += key;
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBULL;
    h ^= h >> 31;
    return h;
}

/* A row's integer field; 0 when it does not fit a long long. */
static inline int row_ll(PyObject *row, Py_ssize_t i, long long *out)
{
    long long v = PyLong_AsLongLong(PyTuple_GET_ITEM(row, i));
    if (v == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return 0;
    }
    *out = v;
    return 1;
}

/* trace._from_proto: a fresh Instr sharing every slot of `proto` but
 * addr (a stolen reference) and taken. */
static PyObject *clone_instr(PyObject *proto, PyObject *addr, int taken)
{
    PyObject *ins = g.instr_type->tp_alloc(g.instr_type, 0);
    if (ins == NULL) {
        Py_DECREF(addr);
        return NULL;
    }
    for (int i = 0; i < g.n_instr_slots; i++) {
        PyObject *v = SLOT(proto, g.instr_slots[i]);
        Py_XINCREF(v);
        *(PyObject **)((char *)ins + g.instr_slots[i]) = v;
    }
    slot_store(ins, OFF.in_addr, addr);
    slot_store_bool(ins, OFF.in_taken, taken);
    return ins;
}

/* SyntheticTrace.get(index) for an iteration-varying slot, from its
 * row.  Returns a new reference; NULL with no exception set when a
 * value does not fit 64 bits, so the caller asks trace.get, whose
 * Python ints cannot overflow. */
static PyObject *row_instr(PyObject *row, long long index, long long body_len)
{
    if (!PyTuple_CheckExact(row) || PyTuple_GET_SIZE(row) != ROW_FIELDS)
        return NULL;
    PyObject *proto = PyTuple_GET_ITEM(row, 1);
    long long kind, a, b, k, m, l, every, x, addr;
    if (Py_TYPE(proto) != g.instr_type || !row_ll(row, 0, &kind)
        || !row_ll(row, 2, &a) || !row_ll(row, 3, &b)
        || !row_ll(row, 4, &k) || !row_ll(row, 5, &m)
        || !row_ll(row, 6, &l) || !row_ll(row, 7, &every)
        || m <= 0 || every <= 0)
        return NULL;
    long long iteration = index / body_len;
    if (kind == ROW_LINEAR) {
        /* a + ((b + k * (iteration // every)) % m) * l */
        if (__builtin_mul_overflow(k, iteration / every, &x)
            || __builtin_add_overflow(b, x, &x))
            return NULL;
        x %= m;
        if (x < 0)
            x += m;     /* Python's floor modulo */
    } else if (kind == ROW_BURST && iteration % every) {
        if (!row_ll(row, 9, &addr))
            return NULL;
        goto box;
    } else {
        unsigned long long h0 =
            PyLong_AsUnsignedLongLong(PyTuple_GET_ITEM(row, 8));
        if (h0 == (unsigned long long)-1 && PyErr_Occurred()) {
            PyErr_Clear();
            return NULL;
        }
        unsigned long long h = mix64_step(h0, (unsigned long long)iteration);
        if (kind == ROW_BRANCH) {
            PyObject *alt = PyTuple_GET_ITEM(row, 9);
            if (!PyFloat_CheckExact(alt))
                return NULL;
            Py_INCREF(Py_None);
            /* (double)h rounds to nearest-even, like Python's int/float */
            return clone_instr(proto, Py_None,
                               (double)h / 18446744073709551616.0
                                   < PyFloat_AS_DOUBLE(alt));
        }
        if (kind != ROW_HASHED && kind != ROW_BURST)
            return NULL;
        x = (long long)(h % (unsigned long long)m);
    }
    if (__builtin_mul_overflow(x, l, &x) || __builtin_add_overflow(a, x, &addr))
        return NULL;
box:;
    PyObject *addr_obj = box_ll(addr);
    if (addr_obj == NULL)
        return NULL;
    return clone_instr(proto, addr_obj, 0);
}

/* One thread's fetch burst; returns the fetch count, or -1 on error. */
static long long fetch_thread_c(Ctx *c, PyObject *ts, long long budget,
                                long long cycle, PyObject *cycle_obj,
                                int ignore_stall)
{
    PyObject *core = c->core;
    PyObject *trace_get = SLOT(ts, OFF.ts_trace_get);
    PyObject *trace_static = SLOT(ts, OFF.ts_trace_static);
    PyObject *trace_rows = SLOT(ts, OFF.ts_trace_rows);
    PyObject *trace_flags = SLOT(ts, OFF.ts_trace_flags);
    long long body_len = slot_ll(ts, OFF.ts_trace_body_len);
    long long pc_origin = slot_ll(ts, OFF.ts_pc_origin);
    PyObject *on_fetch = SLOT(core, OFF.policy_on_fetch);
    PyObject *on_fetch_load = SLOT(core, OFF.policy_on_fetch_load);
    PyObject *fe_queue = SLOT(ts, OFF.ts_fe_queue);
    long long fe_ready = cycle + c->frontend_depth;
    PyObject *fe_ready_obj = box_ll(fe_ready);
    if (fe_ready_obj == NULL)
        return -1;
    long long tid = slot_ll(ts, OFF.ts_tid);
    long long gseq = slot_ll(core, OFF.gseq);
    PyObject *ae = SLOT(ts, OFF.ts_allowed_end);
    int has_allowed = ae != Py_None;
    long long allowed_end = has_allowed ? ll_of(ae) : 0;
    long long count = 0;
    Py_ssize_t fe_len0 = deq_len(fe_queue);
    int fe_was_empty = fe_len0 == 0;
    long long limit = c->fe_capacity - fe_len0;
    if (budget < limit)
        limit = budget;
    while (count < limit) {
        long long fetch_index = slot_ll(ts, OFF.ts_fetch_index);
        if (!ignore_stall && has_allowed && fetch_index > allowed_end)
            break;
        /* the static instruction, or one built from the slot's row;
         * trace.get for duck-typed traces and rows that overflow */
        PyObject *instr = Py_None;
        PyObject *instr_ref = NULL;   /* owned when built or fetched */
        long long flags = -1;
        if (trace_static != Py_None) {
            Py_ssize_t i = (Py_ssize_t)(fetch_index % body_len);
            instr = PyList_GET_ITEM(trace_static, i);
            PyObject *fo = PyList_GET_ITEM(trace_flags, i);
            if (fo != Py_None)
                flags = ll_of(fo);
            if (instr == Py_None && trace_rows != Py_None) {
                instr_ref = row_instr(PyList_GET_ITEM(trace_rows, i),
                                      fetch_index, body_len);
                if (instr_ref != NULL)
                    instr = instr_ref;
                else if (PyErr_Occurred())
                    goto fail;
            }
        }
        if (instr == Py_None) {
            PyObject *fi = box_ll(fetch_index);
            if (fi == NULL)
                goto fail;
            instr_ref = PyObject_CallOneArg(trace_get, fi);
            Py_DECREF(fi);
            if (instr_ref == NULL)
                goto fail;
            instr = instr_ref;
        }
        if (flags < 0)
            flags = instr_flags_c(instr);
        long long pc_addr = pc_origin + slot_ll(instr, OFF.in_pc) * 4;
        long long line = pc_addr >> c->line_shift;
        if (line != slot_ll(ts, OFF.ts_last_ifetch_line)) {
            PyObject *pa = box_ll(pc_addr);
            if (pa == NULL)
                goto fail_instr;
            PyObject *iargs[3] = {SLOT(ts, OFF.ts_tid), pa, cycle_obj};
            PyObject *done_obj = PyObject_Vectorcall(
                SLOT(core, OFF.hier_ifetch), iargs, 3, NULL);
            Py_DECREF(pa);
            if (done_obj == NULL)
                goto fail_instr;
            long long done = ll_of(done_obj);
            Py_DECREF(done_obj);
            if (slot_store_ll(ts, OFF.ts_last_ifetch_line, line) < 0)
                goto fail_instr;
            if (done > cycle) {
                if (slot_store_ll(ts, OFF.ts_fetch_blocked_until,
                                  done) < 0)
                    goto fail_instr;
                Py_XDECREF(instr_ref);
                break;
            }
        }
        gseq += 1;
        if (PyList_GET_SIZE(c->free_list) == 0) {
            /* extends ``free`` in place */
            PyObject *r = PyObject_CallMethodNoArgs(core, g.s_soa_grow);
            if (r == NULL)
                goto fail_instr;
            Py_DECREF(r);
        }
        Py_ssize_t fn = PyList_GET_SIZE(c->free_list);
        long long s = lget_ll(c->free_list, fn - 1);
        if (PyList_SetSlice(c->free_list, fn - 1, fn, NULL) < 0)
            goto fail_instr;
        /* the popped slot is pristine: only the varying columns are
         * written (see the free-list invariant in CextCore.__init__) */
        Py_INCREF(instr);
        lset(c->col_instr, s, instr);
        if (lset_ll(c->col_thread, s, tid) < 0
            || lset_ll(c->col_seq, s, fetch_index) < 0
            || lset_ll(c->col_gseq, s, gseq) < 0
            || lset_ll(c->col_packed, s,
                       (gseq << SLOT_SHIFT) | s) < 0)
            goto fail_instr;
        Py_INCREF(fe_ready_obj);
        lset(c->col_fe_ready, s, fe_ready_obj);
        if (lset_ll(c->col_flags, s, flags) < 0)
            goto fail_instr;
        {
            PyObject *sb = box_ll(s);
            if (sb == NULL)
                goto fail_instr;
            PyObject *r = PyObject_CallOneArg(SLOT(ts, OFF.ts_fe_append),
                                              sb);
            Py_DECREF(sb);
            if (r == NULL)
                goto fail_instr;
            Py_DECREF(r);
        }
        if (slot_store_ll(ts, OFF.ts_fetch_index, fetch_index + 1) < 0
            || stat_add(ts, OFF.ts_icount, 1) < 0)
            goto fail_instr;
        count += 1;
        if (flags & F_IS_LOAD) {
            PyObject *p = PyObject_CallOneArg(
                SLOT(ts, OFF.ts_lll_predict), SLOT(instr, OFF.in_pc));
            if (p == NULL)
                goto fail_instr;
            lset(c->col_pred_ll, s, p);
            if (on_fetch_load != Py_None) {
                PyObject *v = ensure_view(core, c->col_views,
                                          c->col_gseq, s);
                if (v == NULL)
                    goto fail_instr;
                PyObject *hargs[2] = {v, ts};
                PyObject *r = PyObject_Vectorcall(on_fetch_load, hargs,
                                                  2, NULL);
                Py_DECREF(v);
                if (r == NULL)
                    goto fail_instr;
                Py_DECREF(r);
                ae = SLOT(ts, OFF.ts_allowed_end);   /* hook may update */
                has_allowed = ae != Py_None;
                allowed_end = has_allowed ? ll_of(ae) : 0;
            }
        }
        if (flags & F_IS_BRANCH) {
            PyObject *taken_obj = SLOT(instr, OFF.in_taken);
            int taken = taken_obj == Py_True;
            PyObject *gargs[3] = {SLOT(instr, OFF.in_pc), taken_obj,
                                  SLOT(ts, OFF.ts_tid)};
            PyObject *pr = call_method(SLOT(core, OFF.gshare),
                                       g.s_update, gargs, 3);
            if (pr == NULL)
                goto fail_instr;
            int prediction = PyObject_IsTrue(pr);
            Py_DECREF(pr);
            if (prediction < 0)
                goto fail_instr;
            int target_known = 1;
            if (taken) {
                PyObject *largs[1] = {SLOT(instr, OFF.in_pc)};
                PyObject *r = call_method(SLOT(core, OFF.btb),
                                          g.s_lookup, largs, 1);
                if (r == NULL)
                    goto fail_instr;
                target_known = PyObject_IsTrue(r);
                Py_DECREF(r);
                if (target_known < 0)
                    goto fail_instr;
                r = call_method(SLOT(core, OFF.btb), g.s_insert,
                                largs, 1);
                if (r == NULL)
                    goto fail_instr;
                Py_DECREF(r);
            }
            if (prediction != taken || !target_known) {
                if (slot_store_ll(ts, OFF.ts_waiting_branch, s) < 0
                    || slot_store_ll(ts, OFF.ts_branch_wait_since,
                                     cycle) < 0)
                    goto fail_instr;
                if (on_fetch != Py_None) {
                    PyObject *v = ensure_view(core, c->col_views,
                                              c->col_gseq, s);
                    if (v == NULL)
                        goto fail_instr;
                    PyObject *hargs[2] = {v, ts};
                    PyObject *r = PyObject_Vectorcall(on_fetch, hargs,
                                                      2, NULL);
                    Py_DECREF(v);
                    if (r == NULL)
                        goto fail_instr;
                    Py_DECREF(r);
                }
                Py_XDECREF(instr_ref);
                break;
            }
            if (on_fetch != Py_None) {
                PyObject *v = ensure_view(core, c->col_views,
                                          c->col_gseq, s);
                if (v == NULL)
                    goto fail_instr;
                PyObject *hargs[2] = {v, ts};
                PyObject *r = PyObject_Vectorcall(on_fetch, hargs, 2,
                                                  NULL);
                Py_DECREF(v);
                if (r == NULL)
                    goto fail_instr;
                Py_DECREF(r);
            }
            if (taken) {
                /* a correctly-predicted taken branch ends the block */
                Py_XDECREF(instr_ref);
                break;
            }
        } else if (on_fetch != Py_None) {
            PyObject *v = ensure_view(core, c->col_views, c->col_gseq,
                                      s);
            if (v == NULL)
                goto fail_instr;
            PyObject *hargs[2] = {v, ts};
            PyObject *r = PyObject_Vectorcall(on_fetch, hargs, 2, NULL);
            Py_DECREF(v);
            if (r == NULL)
                goto fail_instr;
            Py_DECREF(r);
        }
        if (on_fetch != Py_None) {
            ae = SLOT(ts, OFF.ts_allowed_end);   /* hook may update */
            has_allowed = ae != Py_None;
            allowed_end = has_allowed ? ll_of(ae) : 0;
        }
        Py_XDECREF(instr_ref);
        continue;
    fail_instr:
        Py_XDECREF(instr_ref);
        goto fail;
    }
    if (slot_store_ll(core, OFF.gseq, gseq) < 0)
        goto fail;
    if (count) {
        if (stat_add(SLOT(ts, OFF.ts_stats), OFF.st_fetched, count) < 0)
            goto fail;
        if (fe_was_empty) {
            if (slot_store_ll(core, OFF.dispatch_wake, 0) < 0
                || slot_store_ll(core, OFF.stall_latch_until, 0) < 0
                || slot_store_ll(core, OFF.fe_mask,
                                 slot_ll(core, OFF.fe_mask)
                                     | (1LL << tid)) < 0)
                goto fail;
        }
    }
    /* ThreadState._sync_policy_stall acts only on a transition of the
     * stall predicate, so it is called only then. */
    ae = SLOT(ts, OFF.ts_allowed_end);
    if ((ae != Py_None && slot_ll(ts, OFF.ts_fetch_index) > ll_of(ae))
        != slot_true(ts, OFF.ts_policy_stalled_flag)) {
        PyObject *sargs[1] = {cycle_obj};
        PyObject *r = call_method(ts, g.s_sync_policy_stall, sargs, 1);
        if (r == NULL)
            goto fail;
        Py_DECREF(r);
    }
    Py_DECREF(fe_ready_obj);
    return count;
fail:
    Py_DECREF(fe_ready_obj);
    return -1;
}

/* ------------------------------------------------------------------ */
/* the fused run loop                                                  */
/* ------------------------------------------------------------------ */

/* SMTCore._compute_fetch_wake, transliterated. */
static long long compute_fetch_wake(Ctx *c, long long cycle)
{
    long long wake = cycle + (1LL << 30);
    Py_ssize_t nt = PyTuple_GET_SIZE(c->threads);
    for (Py_ssize_t i = 0; i < nt; i++) {
        long long blocked_until = slot_ll(PyTuple_GET_ITEM(c->threads, i),
                                          OFF.ts_fetch_blocked_until);
        if (cycle < blocked_until && blocked_until < wake)
            wake = blocked_until;
    }
    return wake;
}

/* SMTCore._next_cycle over the slot columns: the earliest future cycle
 * at which anything can happen (step() has established that nothing can
 * fetch or issue at cycle + 1), or -1 with SimulationDeadlock set when
 * nothing can.  Skipped policy-stall cycles are covered by the open
 * stall intervals. */
static long long next_cycle_c(Ctx *c, long long cycle)
{
    long long nxt = cycle + 1;
    long long target = LLONG_MAX;
    int wb_full = slot_ll(c->core, OFF.wb_used) >= c->wb_entries;
    Py_ssize_t nt = PyTuple_GET_SIZE(c->threads);
    for (Py_ssize_t i = 0; i < nt; i++) {
        PyObject *ts = PyTuple_GET_ITEM(c->threads, i);
        /* _head_retirable: a completed head can retire next cycle unless
         * it is a store facing a full write buffer */
        PyObject *window = SLOT(ts, OFF.ts_window);
        Py_ssize_t n = deq_len(window);
        if (n < 0)
            return -1;
        if (n > 0) {
            long long h = deq_peek0_ll(window);
            if (h < 0)
                return -1;
            long long fl = lget_ll(c->col_flags, h);
            if ((fl & F_COMPLETED) && (!(fl & F_IS_STORE) || !wb_full))
                return nxt;
        }
        PyObject *fe = SLOT(ts, OFF.ts_fe_queue);
        n = deq_len(fe);
        if (n < 0)
            return -1;
        if (n > 0) {
            long long h = deq_peek0_ll(fe);
            if (h < 0)
                return -1;
            long long head_ready = lget_ll(c->col_fe_ready, h);
            if (head_ready <= nxt)
                return nxt;
            if (head_ready < target)
                target = head_ready;
        }
        long long blocked_until = slot_ll(ts, OFF.ts_fetch_blocked_until);
        if (blocked_until > nxt && blocked_until < target)
            target = blocked_until;
    }
    PyObject *heaps[6] = {c->ev_marks, c->ev_over, c->dt_marks, c->dt_over,
                          c->wb_marks, c->wb_over};
    for (int i = 0; i < 6; i++) {
        if (PyList_GET_SIZE(heaps[i]) > 0) {
            long long when = heap_min_key(heaps[i]);
            if (when < target)
                target = when;
        }
    }
    if (target == LLONG_MAX) {
        PyErr_Format(g.deadlock_exc,
                     "no future events at cycle %lld; pipeline is wedged",
                     cycle);
        return -1;
    }
    return target <= nxt ? nxt : target;
}

/* The ``policy_fetch_order(cycle)`` fetch path (shared by the base
 * engine's empty-candidates fallback and non-base policies). */
static int fetch_via_policy_order(Ctx *c, long long cycle,
                                  PyObject *cycle_obj,
                                  int base_fallback_wake)
{
    PyObject *order = PyObject_CallOneArg(
        SLOT(c->core, OFF.policy_fetch_order), cycle_obj);
    if (order == NULL)
        return -1;
    int truthy = PyObject_IsTrue(order);
    if (truthy < 0) {
        Py_DECREF(order);
        return -1;
    }
    if (truthy) {
        PyObject *fast = PySequence_Fast(order, "fetch order");
        if (fast == NULL) {
            Py_DECREF(order);
            return -1;
        }
        Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
        long long budget = c->fetch_width;
        long long remaining_threads = c->fetch_max_threads;
        for (Py_ssize_t i = 0; i < n; i++) {
            if (remaining_threads == 0 || budget == 0)
                break;
            remaining_threads -= 1;
            PyObject *pair = PySequence_Fast_GET_ITEM(fast, i);
            PyObject *ts = seq_item(pair, 0);
            int ignore_stall = PyObject_IsTrue(seq_item(pair, 1));
            if (ignore_stall < 0)
                goto fail;
            long long cnt = fetch_thread_c(c, ts, budget, cycle, cycle_obj,
                                     ignore_stall);
            if (cnt < 0)
                goto fail;
            budget -= cnt;
            continue;
        fail:
            Py_DECREF(fast);
            Py_DECREF(order);
            return -1;
        }
        Py_DECREF(fast);
    } else if (base_fallback_wake
               && slot_store_ll(c->core, OFF.fetch_wake,
                                compute_fetch_wake(c, cycle)) < 0) {
        Py_DECREF(order);
        return -1;
    }
    Py_DECREF(order);
    return 0;
}

/* The fetch-selection block of the fused loop. */
static int run_fetch_select(Ctx *c, long long cycle, PyObject *cycle_obj)
{
    if (!c->fetch_order_is_base)
        return fetch_via_policy_order(c, cycle, cycle_obj, 0);
    PyObject *candidates = c->fetch_candidates;
    if (PyList_GET_SIZE(candidates) == 0)
        return fetch_via_policy_order(c, cycle, cycle_obj, 1);
    PyObject *first = NULL;
    PyObject *rest[MAX_THREADS];
    long long rest_icount[MAX_THREADS];
    int rn = 0;
    Py_ssize_t cn = PyList_GET_SIZE(candidates);
    for (Py_ssize_t i = 0; i < cn && rn < MAX_THREADS; i++) {
        PyObject *ts = PyList_GET_ITEM(candidates, i);
        if (slot_ll(ts, OFF.ts_fetch_blocked_until) <= cycle
            && SLOT(ts, OFF.ts_waiting_branch) == Py_None
            && deq_len(SLOT(ts, OFF.ts_fe_queue)) < c->fe_capacity) {
            if (first == NULL) {
                first = ts;
            } else if (rn == 0) {
                rest[rn++] = first;
                rest[rn++] = ts;
            } else {
                rest[rn++] = ts;
            }
        }
    }
    if (rn == 0) {
        if (first == NULL)
            return slot_store_ll(c->core, OFF.fetch_wake,
                                 compute_fetch_wake(c, cycle));
        if (c->can_fetch_one
            && fetch_thread_c(c, first, c->fetch_width, cycle, cycle_obj,
                        0) < 0)
            return -1;
        return 0;
    }
    /* stable icount sort (matches list.sort(key=_by_icount)) */
    for (int i = 0; i < rn; i++)
        rest_icount[i] = slot_ll(rest[i], OFF.ts_icount);
    for (int i = 1; i < rn; i++) {
        PyObject *ts = rest[i];
        long long ic = rest_icount[i];
        int j = i - 1;
        while (j >= 0 && rest_icount[j] > ic) {
            rest[j + 1] = rest[j];
            rest_icount[j + 1] = rest_icount[j];
            j--;
        }
        rest[j + 1] = ts;
        rest_icount[j + 1] = ic;
    }
    long long budget = c->fetch_width;
    long long remaining_threads = c->fetch_max_threads;
    for (int i = 0; i < rn; i++) {
        if (remaining_threads == 0 || budget == 0)
            break;
        remaining_threads -= 1;
        long long cnt = fetch_thread_c(c, rest[i], budget, cycle, cycle_obj, 0);
        if (cnt < 0)
            return -1;
        budget -= cnt;
    }
    return 0;
}

static int ctx_init(Ctx *c, PyObject *core)
{
    memset(c, 0, sizeof(*c));
    c->core = core;
    c->ev_buckets = SLOT(core, OFF.ev_buckets);
    c->ev_marks = SLOT(core, OFF.ev_marks);
    c->ev_over = SLOT(core, OFF.ev_over);
    c->dt_buckets = SLOT(core, OFF.dt_buckets);
    c->dt_marks = SLOT(core, OFF.dt_marks);
    c->dt_over = SLOT(core, OFF.dt_over);
    c->wb_buckets = SLOT(core, OFF.wb_buckets);
    c->wb_marks = SLOT(core, OFF.wb_marks);
    c->wb_over = SLOT(core, OFF.wb_over);
    c->ready_int = SLOT(core, OFF.ready_int);
    c->ready_ldst = SLOT(core, OFF.ready_ldst);
    c->ready_fp = SLOT(core, OFF.ready_fp);
    c->ready_by_op = SLOT(core, OFF.ready_by_op);
    c->threads = SLOT(core, OFF.threads);
    c->fetch_candidates = SLOT(core, OFF.fetch_candidates);
    c->free_list = SLOT(core, OFF.free_list);
    c->col_instr = SLOT(core, OFF.col_instr);
    c->col_thread = SLOT(core, OFF.col_thread);
    c->col_seq = SLOT(core, OFF.col_seq);
    c->col_gseq = SLOT(core, OFF.col_gseq);
    c->col_packed = SLOT(core, OFF.col_packed);
    c->col_pending = SLOT(core, OFF.col_pending);
    c->col_fe_ready = SLOT(core, OFF.col_fe_ready);
    c->col_flags = SLOT(core, OFF.col_flags);
    c->col_refs = SLOT(core, OFF.col_refs);
    c->col_waiter0 = SLOT(core, OFF.col_waiter0);
    c->col_waiters = SLOT(core, OFF.col_waiters);
    c->col_old_map = SLOT(core, OFF.col_old_map);
    c->col_ll_parents = SLOT(core, OFF.col_ll_parents);
    c->col_pred_ll = SLOT(core, OFF.col_pred_ll);
    c->col_fill_line = SLOT(core, OFF.col_fill_line);
    c->col_level = SLOT(core, OFF.col_level);
    c->col_views = SLOT(core, OFF.col_views);
    c->on_ll_detect = PyObject_GetAttr(SLOT(core, OFF.policy),
                                       g.s_on_ll_detect);
    if (c->on_ll_detect == NULL)
        return -1;
    c->olc_cleanup_only = slot_true(core, OFF.cext_olc_cleanup_only);
    c->ll_detect_is_base = slot_true(core, OFF.cext_ll_detect_is_base);
    c->mask = slot_ll(core, OFF.wheel_mask);
    c->fetch_width = slot_ll(core, OFF.fetch_width);
    c->fetch_max_threads = slot_ll(core, OFF.fetch_max_threads);
    c->fe_capacity = slot_ll(core, OFF.fe_capacity);
    c->frontend_depth = slot_ll(core, OFF.frontend_depth);
    c->decode_width = slot_ll(core, OFF.decode_width);
    c->commit_width = slot_ll(core, OFF.commit_width);
    c->wb_entries = slot_ll(core, OFF.wb_entries);
    c->line_shift = slot_ll(core, OFF.line_shift);
    c->n_threads = slot_ll(core, OFF.n_threads);
    c->full_mask = slot_ll(core, OFF.full_mask);
    c->rob_size = slot_ll(core, OFF.rob_size);
    c->lsq_size = slot_ll(core, OFF.lsq_size);
    c->int_iq_size = slot_ll(core, OFF.int_iq_size);
    c->fp_iq_size = slot_ll(core, OFF.fp_iq_size);
    c->int_rename_regs = slot_ll(core, OFF.int_rename_regs);
    c->fp_rename_regs = slot_ll(core, OFF.fp_rename_regs);
    c->num_int_alu = slot_ll(core, OFF.num_int_alu);
    c->num_ldst = slot_ll(core, OFF.num_ldst);
    c->num_fp = slot_ll(core, OFF.num_fp);
    c->fast_forward = slot_true(core, OFF.fast_forward);
    c->fetch_order_is_base = slot_true(core, OFF.fetch_order_is_base);
    c->can_fetch_one =
        c->fetch_max_threads >= 1 && c->fetch_width >= 1;
    c->track_dep = slot_true(core, OFF.track_ll_dep);
    return 0;
}

static void ctx_clear(Ctx *c)
{
    Py_XDECREF(c->on_ll_detect);
    c->on_ll_detect = NULL;
}

static PyObject *run_until(PyObject *self, PyObject *const *args,
                           Py_ssize_t nargs)
{
    (void)self;
    if (!g.ready) {
        PyErr_SetString(PyExc_RuntimeError,
                        "_cext_engine.setup() has not run");
        return NULL;
    }
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "run_until(core, max_commits, limit)");
        return NULL;
    }
    PyObject *core = args[0];
    long long max_commits = PyLong_AsLongLong(args[1]);
    long long limit = PyLong_AsLongLong(args[2]);
    if (PyErr_Occurred())
        return NULL;
    Ctx ctx;
    Ctx *c = &ctx;
    if (ctx_init(c, core) < 0)
        return NULL;
    unsigned long loop_n = 0;
    for (;;) {
        if (((++loop_n) & 0xFFF) == 0 && PyErr_CheckSignals() < 0)
            goto fail;
        long long cycle = slot_ll(core, OFF.cycle);
        PyObject *cycle_obj = SLOT(core, OFF.cycle);
        Py_INCREF(cycle_obj);
        /* completion + detection drains */
        if (stage_drain(c, cycle, cycle_obj) < 0)
            goto fail_cycle;
        /* write-buffer drain */
        {
            Py_ssize_t widx = (Py_ssize_t)(cycle & c->mask);
            long long wcnt = lget_ll(c->wb_buckets, widx);
            if (wcnt) {
                if (lset_ll(c->wb_buckets, widx, 0) < 0
                    || stat_add(core, OFF.wb_used, -wcnt) < 0)
                    goto fail_cycle;
                while (PyList_GET_SIZE(c->wb_marks) > 0
                       && heap_min_key(c->wb_marks) <= cycle) {
                    if (heap_pop_drop(c->wb_marks) < 0)
                        goto fail_cycle;
                }
            }
            while (PyList_GET_SIZE(c->wb_over) > 0
                   && heap_min_key(c->wb_over) <= cycle) {
                if (heap_pop_drop(c->wb_over) < 0
                    || stat_add(core, OFF.wb_used, -1) < 0)
                    goto fail_cycle;
            }
        }
        /* commit */
        if (SLOT(core, OFF.commit_pending) == Py_True
            && stage_commit(c, cycle, cycle_obj) < 0)
            goto fail_cycle;
        /* issue */
        if ((PyList_GET_SIZE(c->ready_int) > 0
             || PyList_GET_SIZE(c->ready_ldst) > 0
             || PyList_GET_SIZE(c->ready_fp) > 0)
            && stage_issue(c, cycle, cycle_obj) < 0)
            goto fail_cycle;
        /* dispatch */
        if (cycle >= slot_ll(core, OFF.dispatch_wake)) {
            if (cycle < slot_ll(core, OFF.stall_latch_until)
                && slot_ll(core, OFF.stall_latch_epoch)
                       == slot_ll(core, OFF.release_epoch)) {
                if (stat_add(SLOT(core, OFF.stats),
                             OFF.cs_resource_stall_cycles, 1) < 0)
                    goto fail_cycle;
            } else if (stage_dispatch(c, cycle, cycle_obj) < 0) {
                goto fail_cycle;
            }
        }
        /* fetch */
        if (cycle >= slot_ll(core, OFF.fetch_wake)
            && run_fetch_select(c, cycle, cycle_obj) < 0)
            goto fail_cycle;
        /* cycle advance / fast-forward */
        {
            long long nxt = cycle + 1;
            int ready_any = PyList_GET_SIZE(c->ready_int) > 0
                || PyList_GET_SIZE(c->ready_ldst) > 0
                || PyList_GET_SIZE(c->ready_fp) > 0;
            if (!c->fast_forward || ready_any) {
                if (slot_store_ll(core, OFF.cycle, nxt) < 0)
                    goto fail_cycle;
            } else if (nxt < slot_ll(core, OFF.fetch_wake)) {
                goto next_event;
            } else if (c->fetch_order_is_base) {
                PyObject *probe =
                    PyList_GET_SIZE(c->fetch_candidates) > 0
                        ? c->fetch_candidates : c->threads;
                Py_ssize_t pn = seq_size(probe);
                int pending = 0;
                for (Py_ssize_t i = 0; i < pn; i++) {
                    PyObject *ts = seq_item(probe, i);
                    if (slot_ll(ts, OFF.ts_fetch_blocked_until) <= nxt
                        && SLOT(ts, OFF.ts_waiting_branch) == Py_None
                        && deq_len(SLOT(ts, OFF.ts_fe_queue))
                               < c->fe_capacity) {
                        pending = 1;
                        break;
                    }
                }
                if (pending) {
                    if (slot_store_ll(core, OFF.cycle, nxt) < 0)
                        goto fail_cycle;
                } else {
                    goto next_event;
                }
            } else {
                PyObject *nxt_obj = box_ll(nxt);
                if (nxt_obj == NULL)
                    goto fail_cycle;
                PyObject *r = PyObject_CallOneArg(
                    SLOT(core, OFF.policy_fetch_pending), nxt_obj);
                Py_DECREF(nxt_obj);
                if (r == NULL)
                    goto fail_cycle;
                int pend = PyObject_IsTrue(r);
                Py_DECREF(r);
                if (pend < 0)
                    goto fail_cycle;
                if (pend) {
                    if (slot_store_ll(core, OFF.cycle, nxt) < 0)
                        goto fail_cycle;
                } else {
                    goto next_event;
                }
            }
            goto advanced;
        next_event:
            nxt = next_cycle_c(c, cycle);
            if (nxt < 0 || slot_store_ll(core, OFF.cycle, nxt) < 0)
                goto fail_cycle;
        advanced:
            Py_DECREF(cycle_obj);
            if (slot_ll(core, OFF.committed_watermark) >= max_commits) {
                ctx_clear(c);
                Py_RETURN_NONE;
            }
            if (nxt >= limit) {
                PyErr_Format(g.limit_exc,
                             "exceeded %lld cycles without reaching "
                             "%lld commits", limit, max_commits);
                goto fail;
            }
        }
        continue;
    fail_cycle:
        Py_DECREF(cycle_obj);
        goto fail;
    }
fail:
    ctx_clear(c);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* setup: resolve slot offsets from the classes the driver passes in   */
/* ------------------------------------------------------------------ */

struct OffSpec {
    const char *cls;
    const char *name;
    size_t field;
};

#define O(cls, name, field) {cls, name, offsetof(Offsets, field)}

static const struct OffSpec SPECS[] = {
    O("core", "cycle", cycle), O("core", "_gseq", gseq),
    O("core", "_wheel_mask", wheel_mask),
    O("core", "_ev_buckets", ev_buckets), O("core", "_ev_marks", ev_marks),
    O("core", "_ev_over", ev_over),
    O("core", "_dt_buckets", dt_buckets), O("core", "_dt_marks", dt_marks),
    O("core", "_dt_over", dt_over),
    O("core", "_wb_buckets", wb_buckets), O("core", "_wb_marks", wb_marks),
    O("core", "_wb_over", wb_over), O("core", "_wb_used", wb_used),
    O("core", "_ready_int", ready_int), O("core", "_ready_ldst", ready_ldst),
    O("core", "_ready_fp", ready_fp), O("core", "_ready_by_op", ready_by_op),
    O("core", "threads", threads), O("core", "policy", policy),
    O("core", "stats", stats),
    O("core", "_policy_fetch_order", policy_fetch_order),
    O("core", "_policy_fetch_pending", policy_fetch_pending),
    O("core", "_policy_can_dispatch", policy_can_dispatch),
    O("core", "_policy_on_fetch", policy_on_fetch),
    O("core", "_policy_on_fetch_load", policy_on_fetch_load),
    O("core", "_policy_on_load_complete", policy_on_load_complete),
    O("core", "_policy_on_resource_stall", policy_on_resource_stall),
    O("core", "_hier_load", hier_load), O("core", "_hier_ifetch", hier_ifetch),
    O("core", "_hier_store", hier_store),
    O("core", "gshare", gshare), O("core", "btb", btb),
    O("core", "_n_threads", n_threads), O("core", "_full_mask", full_mask),
    O("core", "_fe_mask", fe_mask), O("core", "_heads_mask", heads_mask),
    O("core", "_rotations", rotations), O("core", "_rot_cache", rot_cache),
    O("core", "_fetch_candidates", fetch_candidates),
    O("core", "_fetch_wake", fetch_wake),
    O("core", "_dispatch_wake", dispatch_wake),
    O("core", "_stall_latch_until", stall_latch_until),
    O("core", "_stall_latch_epoch", stall_latch_epoch),
    O("core", "_release_epoch", release_epoch),
    O("core", "_committed_watermark", committed_watermark),
    O("core", "_commit_pending", commit_pending),
    O("core", "_measure_start", measure_start),
    O("core", "_fetch_width", fetch_width),
    O("core", "_fetch_max_threads", fetch_max_threads),
    O("core", "_fast_forward", fast_forward),
    O("core", "_fetch_order_is_base", fetch_order_is_base),
    O("core", "_fe_capacity", fe_capacity),
    O("core", "_frontend_depth", frontend_depth),
    O("core", "_decode_width", decode_width),
    O("core", "_commit_width", commit_width),
    O("core", "_line_shift", line_shift),
    O("core", "_rob_size", rob_size), O("core", "_lsq_size", lsq_size),
    O("core", "_int_iq_size", int_iq_size),
    O("core", "_fp_iq_size", fp_iq_size),
    O("core", "_int_rename_regs", int_rename_regs),
    O("core", "_fp_rename_regs", fp_rename_regs),
    O("core", "_wb_entries", wb_entries),
    O("core", "rob_used", rob_used), O("core", "lsq_used", lsq_used),
    O("core", "iq_used", iq_used), O("core", "fq_used", fq_used),
    O("core", "int_regs_used", int_regs_used),
    O("core", "fp_regs_used", fp_regs_used),
    O("core", "_num_int_alu", num_int_alu), O("core", "_num_ldst", num_ldst),
    O("core", "_num_fp", num_fp),
    O("core", "_track_ll_dep", track_ll_dep),
    O("core", "_free", free_list),
    O("core", "_col_instr", col_instr), O("core", "_col_thread", col_thread),
    O("core", "_col_seq", col_seq), O("core", "_col_gseq", col_gseq),
    O("core", "_col_packed", col_packed),
    O("core", "_col_pending", col_pending),
    O("core", "_col_fe_ready", col_fe_ready),
    O("core", "_col_flags", col_flags), O("core", "_col_refs", col_refs),
    O("core", "_col_waiter0", col_waiter0),
    O("core", "_col_waiters", col_waiters),
    O("core", "_col_old_map", col_old_map),
    O("core", "_col_ll_parents", col_ll_parents),
    O("core", "_col_pred_ll", col_pred_ll),
    O("core", "_col_fill_line", col_fill_line),
    O("core", "_col_level", col_level), O("core", "_col_views", col_views),
    O("core", "_cext_olc_cleanup_only", cext_olc_cleanup_only),
    O("core", "_cext_ll_detect_is_base", cext_ll_detect_is_base),
    O("ts", "tid", ts_tid), O("ts", "tid_bit", ts_tid_bit),
    O("ts", "icount", ts_icount), O("ts", "rob_count", ts_rob_count),
    O("ts", "lsq_count", ts_lsq_count), O("ts", "iq_count", ts_iq_count),
    O("ts", "fq_count", ts_fq_count), O("ts", "int_regs", ts_int_regs),
    O("ts", "fp_regs", ts_fp_regs),
    O("ts", "fetch_blocked_until", ts_fetch_blocked_until),
    O("ts", "waiting_branch", ts_waiting_branch),
    O("ts", "branch_wait_since", ts_branch_wait_since),
    O("ts", "allowed_end", ts_allowed_end),
    O("ts", "ll_owners", ts_ll_owners),
    O("ts", "last_ifetch_line", ts_last_ifetch_line),
    O("ts", "outstanding_misses", ts_outstanding_misses),
    O("ts", "stats", ts_stats), O("ts", "commit_cycles", ts_commit_cycles),
    O("ts", "fe_queue", ts_fe_queue), O("ts", "window", ts_window),
    O("ts", "rename_map", ts_rename_map),
    O("ts", "fetch_index", ts_fetch_index),
    O("ts", "head_ready", ts_head_ready),
    O("ts", "dispatch_blocked_head", ts_dispatch_blocked_head),
    O("ts", "dispatch_blocked_epoch", ts_dispatch_blocked_epoch),
    O("ts", "dispatch_wait_until", ts_dispatch_wait_until),
    O("ts", "trace_get", ts_trace_get), O("ts", "fe_append", ts_fe_append),
    O("ts", "lll_predict", ts_lll_predict),
    O("ts", "pc_origin", ts_pc_origin),
    O("ts", "llsr_commit", ts_llsr_commit),
    O("ts", "llsr_commit_zeros", ts_llsr_commit_zeros),
    O("ts", "trace_static", ts_trace_static),
    O("ts", "trace_body_len", ts_trace_body_len),
    O("ts", "llsr_zeros", ts_llsr_zeros),
    O("ts", "trace_flags", ts_trace_flags),
    O("ts", "lll_pred", ts_lll_pred),
    O("ts", "trace_rows", ts_trace_rows), O("ts", "llsr", ts_llsr),
    O("ts", "policy_stalled_flag", ts_policy_stalled_flag),
    O("llsr", "length", llsr_length), O("llsr", "_filled", llsr_filled),
    O("llsr", "_total", llsr_total),
    O("llsr", "_last_one_total", llsr_last_one_total),
    O("llsr", "_head", llsr_head), O("llsr", "_bits", llsr_bits),
    O("stats", "fetched", st_fetched), O("stats", "committed", st_committed),
    O("stats", "loads_executed", st_loads_executed),
    O("stats", "ll_loads", st_ll_loads),
    O("stats", "branch_stall_cycles", st_branch_stall_cycles),
    O("stats", "lll_pred_loads", st_lll_pred_loads),
    O("stats", "lll_pred_correct", st_lll_pred_correct),
    O("stats", "lll_pred_miss_actual", st_lll_pred_miss_actual),
    O("stats", "lll_pred_miss_correct", st_lll_pred_miss_correct),
    O("core_stats", "resource_stall_cycles", cs_resource_stall_cycles),
    O("instr", "pc", in_pc), O("instr", "dest", in_dest),
    O("instr", "srcs", in_srcs), O("instr", "addr", in_addr),
    O("instr", "taken", in_taken), O("instr", "has_dest", in_has_dest),
    O("instr", "dest_fp", in_dest_fp), O("instr", "is_load", in_is_load),
    O("instr", "is_store", in_is_store),
    O("instr", "is_branch", in_is_branch),
    O("instr", "op_i", in_op_i), O("instr", "fp_queue", in_fp_queue),
    O("instr", "latency", in_latency),
    O("result", "complete_cycle", ar_complete_cycle),
    O("result", "detect_cycle", ar_detect_cycle),
    O("result", "level", ar_level),
    O("result", "long_latency", ar_long_latency),
    O("result", "trigger", ar_trigger),
    O("result", "fill_line", ar_fill_line),
};

#undef O

/* Flag constants double-checked against the Python source of truth. */
static const struct {
    const char *name;
    long long value;
} FLAG_SPECS[] = {
    {"F_IN_IQ", F_IN_IQ}, {"F_IQ_FP", F_IQ_FP}, {"F_ISSUED", F_ISSUED},
    {"F_COMPLETED", F_COMPLETED}, {"F_HAS_DEST", F_HAS_DEST},
    {"F_DEST_FP", F_DEST_FP}, {"F_SQUASHED", F_SQUASHED},
    {"F_IS_LOAD", F_IS_LOAD}, {"F_IS_STORE", F_IS_STORE},
    {"F_IS_BRANCH", F_IS_BRANCH}, {"F_IS_LL", F_IS_LL},
    {"F_INV", F_INV}, {"F_LL_DEP", F_LL_DEP}, {"F_RETIRED", F_RETIRED},
    {"F_IN_DETECTS", F_IN_DETECTS}, {"F_FREED", F_FREED},
    {"SLOT_SHIFT", SLOT_SHIFT},
    {"ROW_LINEAR", ROW_LINEAR}, {"ROW_HASHED", ROW_HASHED},
    {"ROW_BURST", ROW_BURST}, {"ROW_BRANCH", ROW_BRANCH},
};

static PyObject *intern_or_null(const char *s)
{
    return PyUnicode_InternFromString(s);
}

/* The offset of every slot in instr.__slots__ (the prototype clone
 * copies them all, so a new Instr slot cannot be missed). */
static int resolve_instr_slots(PyObject *instr)
{
    PyObject *names = PyObject_GetAttrString(instr, "__slots__");
    if (names == NULL)
        return -1;
    PyObject *fast = PySequence_Fast(names, "Instr.__slots__");
    Py_DECREF(names);
    if (fast == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    if (n > MAX_INSTR_SLOTS) {
        Py_DECREF(fast);
        PyErr_SetString(PyExc_ValueError, "setup(): too many Instr slots");
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *descr = PyObject_GetAttr(
            instr, PySequence_Fast_GET_ITEM(fast, i));
        if (descr == NULL) {
            Py_DECREF(fast);
            return -1;
        }
        if (!PyObject_TypeCheck(descr, &PyMemberDescr_Type)) {
            Py_DECREF(descr);
            Py_DECREF(fast);
            PyErr_SetString(PyExc_TypeError,
                            "setup(): an Instr slot is not a member");
            return -1;
        }
        g.instr_slots[i] = ((PyMemberDescrObject *)descr)->d_member->offset;
        Py_DECREF(descr);
    }
    Py_DECREF(fast);
    g.n_instr_slots = (int)n;
    return 0;
}

static PyObject *setup(PyObject *self, PyObject *ns)
{
    (void)self;
    if (!PyDict_Check(ns)) {
        PyErr_SetString(PyExc_TypeError, "setup() expects a dict");
        return NULL;
    }
    /* slot offsets via member descriptors */
    size_t n_specs = sizeof(SPECS) / sizeof(SPECS[0]);
    for (size_t i = 0; i < n_specs; i++) {
        PyObject *cls = PyDict_GetItemString(ns, SPECS[i].cls);
        if (cls == NULL) {
            PyErr_Format(PyExc_KeyError, "setup(): missing class %s",
                         SPECS[i].cls);
            return NULL;
        }
        PyObject *descr = PyObject_GetAttrString(cls, SPECS[i].name);
        if (descr == NULL)
            return NULL;
        if (!PyObject_TypeCheck(descr, &PyMemberDescr_Type)) {
            Py_DECREF(descr);
            PyErr_Format(PyExc_TypeError,
                         "%s.%s is not a slot member descriptor",
                         SPECS[i].cls, SPECS[i].name);
            return NULL;
        }
        Py_ssize_t off =
            ((PyMemberDescrObject *)descr)->d_member->offset;
        Py_DECREF(descr);
        *(Py_ssize_t *)((char *)&g.off + SPECS[i].field) = off;
    }
    /* flag-word constants: fail loudly if the Python side drifts */
    PyObject *flags = PyDict_GetItemString(ns, "flags");
    if (flags == NULL || !PyDict_Check(flags)) {
        PyErr_SetString(PyExc_KeyError, "setup(): missing flags dict");
        return NULL;
    }
    size_t n_flags = sizeof(FLAG_SPECS) / sizeof(FLAG_SPECS[0]);
    for (size_t i = 0; i < n_flags; i++) {
        PyObject *v = PyDict_GetItemString(flags, FLAG_SPECS[i].name);
        if (v == NULL) {
            PyErr_Format(PyExc_KeyError, "setup(): missing flag %s",
                         FLAG_SPECS[i].name);
            return NULL;
        }
        if (PyLong_AsLongLong(v) != FLAG_SPECS[i].value) {
            PyErr_Format(PyExc_ValueError,
                         "setup(): flag %s drifted from the C copy",
                         FLAG_SPECS[i].name);
            return NULL;
        }
    }
    PyObject *view_cls = PyDict_GetItemString(ns, "view_cls");
    PyObject *limit_exc = PyDict_GetItemString(ns, "limit_exc");
    PyObject *deadlock_exc = PyDict_GetItemString(ns, "deadlock_exc");
    PyObject *l1_level = PyDict_GetItemString(ns, "l1_level");
    PyObject *instr = PyDict_GetItemString(ns, "instr");
    PyObject *llsr = PyDict_GetItemString(ns, "llsr");
    if (view_cls == NULL || limit_exc == NULL || deadlock_exc == NULL
        || l1_level == NULL) {
        PyErr_SetString(PyExc_KeyError, "setup(): missing view_cls/"
                        "limit_exc/deadlock_exc/l1_level");
        return NULL;
    }
    if (!PyType_Check(instr) || !PyType_Check(llsr)) {
        PyErr_SetString(PyExc_TypeError, "setup(): instr/llsr not types");
        return NULL;
    }
    if (resolve_instr_slots(instr) < 0)
        return NULL;
    Py_INCREF(view_cls);
    Py_XSETREF(g.view_cls, view_cls);
    Py_INCREF(limit_exc);
    Py_XSETREF(g.limit_exc, limit_exc);
    Py_INCREF(deadlock_exc);
    Py_XSETREF(g.deadlock_exc, deadlock_exc);
    Py_INCREF(l1_level);
    Py_XSETREF(g.l1_level, l1_level);
    Py_INCREF(instr);
    Py_XSETREF(g.instr_type, (PyTypeObject *)instr);
    Py_INCREF(llsr);
    Py_XSETREF(g.llsr_type, (PyTypeObject *)llsr);
    /* small-int table + interned method names (idempotent) */
    if (g.small_ints[0] == NULL) {
        for (long long i = 0; i < SMALL_INT_LIMIT; i++) {
            g.small_ints[i] = PyLong_FromLongLong(i);
            if (g.small_ints[i] == NULL)
                return NULL;
        }
        g.neg_one = PyLong_FromLong(-1);
        if (g.neg_one == NULL)
            return NULL;
        if ((g.s_append = intern_or_null("append")) == NULL
            || (g.s_popleft = intern_or_null("popleft")) == NULL
            || (g.s_update = intern_or_null("update")) == NULL
            || (g.s_lookup = intern_or_null("lookup")) == NULL
            || (g.s_insert = intern_or_null("insert")) == NULL
            || (g.s_train = intern_or_null("train")) == NULL
            || (g.s_on_ll_detect =
                    intern_or_null("on_ll_detect")) == NULL
            || (g.s_soa_grow = intern_or_null("_soa_grow")) == NULL
            || (g.s_sync_policy_stall =
                    intern_or_null("_sync_policy_stall")) == NULL)
            return NULL;
    }
    g.ready = 1;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* module definition                                                   */
/* ------------------------------------------------------------------ */

static PyMethodDef cext_methods[] = {
    {"setup", setup, METH_O,
     "Resolve slot offsets and constants from the driver's class table."},
    {"run_until", (PyCFunction)(void (*)(void))run_until, METH_FASTCALL,
     "run_until(core, max_commits, limit) -> None"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef cext_module = {
    PyModuleDef_HEAD_INIT,
    "repro.pipeline._cext_engine",
    "Compiled cycle loop of the cext engine (see cext.py).",
    -1,
    cext_methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__cext_engine(void)
{
    PyObject *m = PyModule_Create(&cext_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddIntConstant(m, "API_VERSION", CEXT_API_VERSION) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
