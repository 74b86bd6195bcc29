/* Native stepping kernel for the fluid engine's batch loop.
 *
 * ``fused_step`` steps a run of engine events in one call.  Each event
 * recomputes the policy's bandwidth rates from the remaining-work
 * arrays (the dynamic rate modes), finds the next event time (min over
 * per-instance completion times, clamped by the next wakeup, timeline
 * or fault instant), drains the fluid work and collects the finished
 * positions.  With the tables of the policy's completion chain it then
 * handles each finished layer itself — a per-kind lookup of the next
 * layer (CaMDN: Algorithm 1's end-of-layer update and next-layer
 * selection, the no-resize grant and the memoized work entry; the
 * transparent-cache policies: the contention factor's work table),
 * then one shared install of the account_layer sums and the next
 * layer's work — and steps on.  It returns to the Python batch loop
 * only where that loop has work of its own (see the EXIT_* reasons
 * below).
 *
 * Bit-identity contract
 * ---------------------
 * Every arithmetic expression below transcribes the exact shape and
 * evaluation order of the Python reference path:
 *
 *   demand   = (rem_d if rem_d > 1.0 else 1.0)
 *              / (t if (t := rem_c / freq) > 1e-9 else 1e-9)
 *   total    = sum(demands)                    # left-to-right
 *   share    = base + remaining * (demand / total)
 *   rate_d   = r if (r := total_bw * share * eff) > 1e-6 else 1e-6
 *   t_i      = max(rem_c / rate_c, rem_d / rate_d)
 *   dt       = min(t_i, wait_dt)
 *   rem'     = max(rem - dt * rate, 0.0)
 *   finished = rem_c' <= 1e-9 and rem_d' <= 1e-9
 *   now'     = now + dt
 *
 * (see repro.memory.bwalloc.shares, MultiTenantEngine._recompute_rates
 * and RunningKernel.step).  All
 * operations are IEEE-754 binary64 with correctly-rounded results, so
 * compiling without FP contraction (-ffp-contract=off) and without
 * value-changing optimisations makes the C results identical to
 * CPython's on any conforming host.  The only reduction besides the
 * left-to-right demand total is the event-time min, which is exact in
 * any order.  The completion chain's sums go through PyNumber_Add, so
 * they are Python's own additions.
 *
 * The kernel is deliberately conservative: any input it is not certain
 * about (a non-float list item, a non-positive demand total, a
 * completion needing the region or denial machinery) is detected
 * before the state it concerns is touched, and the Python loop takes
 * over from exactly that point.  The Python and C paths are
 * interchangeable mid-run.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>  /* PyMemberDef (Python < 3.12) */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define MODE_STATIC 0
#define MODE_DEMAND_PROP 1
#define MODE_SLACK_WEIGHTED 2
#define MODE_SLACK_THROTTLED 3

/* Stack buffers cover every realistic running-set width; wider sets
 * take one heap allocation per call. */
#define STACK_WIDTH 96
#define N_BUFS 12

#define FINISH_EPS 1e-9
/* The engine's "a wakeup / timeline / fault instant is due" tolerance
 * (engine._WAKE_EPS). */
#define WAKE_EPS 1e-12

/* Why a fused_step call returned (repro.sim.native.EXIT_REASONS). */
enum {
    EXIT_INFERENCE_END,  /* a finished layer was its inference's last */
    EXIT_ADVANCE_BAIL,   /* the C selection or grant check bailed */
    EXIT_MEMO_MISS,      /* no decision table, work entry or work
                          * table yet */
    EXIT_WAITING_SET,    /* completions done; Python polls the waiters */
    EXIT_BOUNDARY,       /* a wakeup, timeline or fault instant is due */
    EXIT_EVENT_BUDGET,   /* max_events reached */
    EXIT_NO_TABLES,      /* the policy has no completion chain
                          * (custom or test policies) */
    EXIT_STEP_BAIL,      /* rate inputs outside the fast path, or a
                          * non-finite/negative step */
    N_EXITS
};

/* int64 counter slots of the engine's run-stats buffer. */
#define CTR_EVENTS 0
#define CTR_COMPLETIONS_C 1
#define CTR_EXITS 2
#define CTR_PY_COMPLETIONS (CTR_EXITS + N_EXITS)
#define N_COUNTERS (CTR_PY_COMPLETIONS + N_EXITS)

/* Interned attribute names of the objects the completion chain reads
 * and writes (TaskInstance, TaskState, CacheRegion, LayerWork,
 * ModelGraph and the scheduler's LBM counter). */
static PyObject *s_pcpns, *s_dram_bytes, *s_hit_bytes, *s_access_bytes;
static PyObject *s_lbm_layers, *s_name, *s_layers;
static PyObject *f_inf, *i_one;

static int
read_doubles(PyObject *list, double *out, Py_ssize_t n)
{
    Py_ssize_t i;
    for (i = 0; i < n; i++) {
        PyObject *item = PyList_GET_ITEM(list, i);
        if (!PyFloat_CheckExact(item)) {
            return -1;
        }
        out[i] = PyFloat_AS_DOUBLE(item);
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Rates                                                               */
/* ------------------------------------------------------------------ */

typedef struct {
    long mode;
    double freq, total_bw, eff, fl, urgency;
} RateParams;

/* Install one event's rates into rc/rd (dynamic modes only).
 *
 * MODE_DEMAND_PROP weighs instances by demand alone.  The slack modes
 * read the per-instance slack inputs (arrival time, QoS target,
 * estimated isolated latency, layer progress): MODE_SLACK_WEIGHTED is
 * AuRORA's exponential slack weighting (bwalloc "slack_weighted"),
 * MODE_SLACK_THROTTLED is MoCA's halve-when-comfortable throttle
 * feeding the demand-proportional split (bwalloc "slack_throttled").
 * Returns -1 (nothing written that matters) when the demand total is
 * not positive — unreachable, the Python path owns that case. */
static int
compute_rates(const RateParams *p, Py_ssize_t n, const double *c,
              const double *d, const double *sa, const double *sq,
              const double *se, const double *sp, double now,
              double *rc, double *rd, double *dem)
{
    Py_ssize_t i;
    double total = 0.0;
    double floor_total, base, remaining;

    for (i = 0; i < n; i++) {
        double t = c[i] / p->freq;
        double den = t > 1e-9 ? t : 1e-9;
        double num = d[i] > 1.0 ? d[i] : 1.0;
        double demand = num / den;
        double w = demand;
        if (p->mode != MODE_DEMAND_PROP) {
            /* Slack transcribes bwalloc._slacks exactly. */
            double slack;
            if (isinf(sq[i])) {
                /* No deadline: slack is 1.0. */
                slack = 1.0;
            }
            else {
                double ef = sa[i] + (se[i] * (1.0 - sp[i]))
                            + (now - sa[i]);
                slack = ((sa[i] + sq[i]) - ef) / sq[i];
            }
            if (p->mode == MODE_SLACK_THROTTLED) {
                /* MoCA: halve the demand of tasks more than 50 %
                 * ahead of their deadline. */
                if (slack > 0.5) {
                    demand *= 0.5;
                }
                w = demand;
            }
            else {
                /* AuRORA: clamp slack, weigh exponentially. */
                double s2 = slack > -20.0 ? slack : -20.0;
                s2 = s2 < 20.0 ? s2 : 20.0;
                w = (demand > 1.0 ? demand : 1.0)
                    * exp(-p->urgency * s2);
            }
        }
        dem[i] = w;
        total += w;
    }
    if (n > 0 && !(total > 0.0)) {
        return -1;
    }
    /* Share constants (bwalloc.shares: floor_total, base, remaining —
     * same floats for any n). */
    floor_total = p->fl * (double)n;
    if (!(floor_total < 1.0)) {
        floor_total = 0.0;
    }
    base = floor_total != 0.0 ? p->fl : 0.0;
    remaining = 1.0 - floor_total;
    for (i = 0; i < n; i++) {
        /* share, then the engine's rate install:
         * r = total_bw * share * eff, clamped above 1e-6.  The
         * slack-weighted rule groups the share expression differently;
         * both shapes are preserved. */
        double share, r;
        if (p->mode == MODE_SLACK_WEIGHTED) {
            share = base + remaining * dem[i] / total;
        }
        else {
            share = base + remaining * (dem[i] / total);
        }
        r = p->total_bw * share * p->eff;
        rc[i] = p->freq;
        rd[i] = r > 1e-6 ? r : 1e-6;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* CaMDN per-completion selection                                      */
/* ------------------------------------------------------------------ */

/* Read a list item as a C long (exact-int items only). */
static int
list_long(PyObject *list, Py_ssize_t i, long *out)
{
    PyObject *item = PyList_GET_ITEM(list, i);
    if (!PyLong_CheckExact(item)) {
        return -1;
    }
    *out = PyLong_AsLong(item);
    if (*out == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return -1;
    }
    return 0;
}

/* Read a tuple item as a C long (exact-int items only). */
static int
tuple_long(PyObject *tup, Py_ssize_t i, long *out)
{
    PyObject *item = PyTuple_GET_ITEM(tup, i);
    if (!PyLong_CheckExact(item)) {
        return -1;
    }
    *out = PyLong_AsLong(item);
    if (*out == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return -1;
    }
    return 0;
}

/* Read an object as a C long (exact ints only). */
static int
obj_long(PyObject *obj, long *out)
{
    if (!PyLong_CheckExact(obj)) {
        return -1;
    }
    *out = PyLong_AsLong(obj);
    if (*out == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return -1;
    }
    return 0;
}

/* bisect.bisect_right over a tuple of ints (exact transcription:
 * ``if x < a[mid]: hi = mid else: lo = mid + 1``). */
static Py_ssize_t
bisect_right_tup(PyObject *tup, long x, int *err)
{
    Py_ssize_t lo = 0, hi = PyTuple_GET_SIZE(tup);
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        long v;
        if (tuple_long(tup, mid, &v) < 0) {
            *err = 1;
            return 0;
        }
        if (x < v) {
            hi = mid;
        }
        else {
            lo = mid + 1;
        }
    }
    return lo;
}

/* DynamicCacheAllocator._pred_avail: sum every task's predicted free
 * pages, then compensate the excluded slot.  Pure integer arithmetic
 * on the live predictor lists; -1 on any non-exact-typed item. */
static int
pred_avail(PyObject *tnext_l, PyObject *pnext_l, PyObject *palloc_l,
           double t_ahead, Py_ssize_t skip, long total_pages,
           long palloc_sum, long *out)
{
    Py_ssize_t n = PyList_GET_SIZE(tnext_l), i;
    long p_ahead = total_pages - palloc_sum;

    for (i = 0; i < n; i++) {
        PyObject *t = PyList_GET_ITEM(tnext_l, i);
        if (!PyFloat_CheckExact(t)) {
            return -1;
        }
        if (PyFloat_AS_DOUBLE(t) < t_ahead) {
            long pa, pn;
            if (list_long(palloc_l, i, &pa) < 0 ||
                list_long(pnext_l, i, &pn) < 0) {
                return -1;
            }
            p_ahead += pa - pn;
        }
    }
    if (skip >= 0 && skip < n) {
        PyObject *t = PyList_GET_ITEM(tnext_l, skip);
        if (PyFloat_AS_DOUBLE(t) < t_ahead) {
            long pa, pn;
            if (list_long(palloc_l, skip, &pa) < 0 ||
                list_long(pnext_l, skip, &pn) < 0) {
                return -1;
            }
            p_ahead -= pa - pn;
        }
    }
    *out = p_ahead;
    return 0;
}

/* Per-layer geometry row indices (built by
 * CaMDNSchedulerBase._build_fast_file). */
#define ROW_LBM_PAGES 0
#define ROW_HEAD 1
#define ROW_BLOCK_START 2
#define ROW_BLOCK_END 3
#define ROW_HEAD_TIMEOUT 4
#define ROW_EST 5
#define ROW_LWM_TIMEOUT 6
#define ROW_SINGLE_LEVEL 7
#define ROW_IS_SORTED 8
#define ROW_TRIVIAL 9
#define ROW_UNIQUE 10
#define ROW_FIRST_OF 11
#define ROW_LAST_OF 12
#define ROW_LWM 13
#define ROW_WIDTH 14

/* Allocator-wide inputs of one selection (constant while no grant
 * resizes a region). */
typedef struct {
    PyObject *tnext, *pnext, *palloc;
    long total_pages, palloc_sum, hw_mode, share;
} AllocView;

/* The outcome of one selection, not yet committed. */
typedef struct {
    long code, new_pnext, lbm_s, lbm_e;
    double new_tnext;
} Selection;

/* One CaMDN layer completion, decided but not committed: Algorithm 1's
 * end-of-layer predictor update (DynamicCacheAllocator.
 * end_layer_prepared) plus the next layer's candidate selection
 * (select_prepared, or the HW-only static-split walk) plus the
 * no-resize grant check (CaMDNSystem._try_grant when the selected
 * footprint equals the task's current region).  ``row`` is the *next*
 * layer's precomputed geometry row; ``lbm_s``/``lbm_e`` encode the
 * task's active LBM block (-1/-1 for none); ``layer_index`` is the
 * layer that just ended.
 *
 * Pure: returns 1 with ``out`` filled, or 0 (bail) when anything is
 * outside the fast path — a type mismatch, a selection whose footprint
 * differs from the current region, anything touching the
 * resize/denial machinery.  Selection codes — full mode: 0 = sticky
 * LBM, 1 = enable LBM at a block head, 2 = single-level lwm[0], 3+i =
 * lwm[i]; HW-only mode: 0 = "hw_lbm_on", 1 = "hw_lbm_keep", 2+i =
 * lwm[i].  ``out->lbm_s/lbm_e`` is the task's LBM block after the
 * end-of-block clear and any new enablement. */
static int
advance_select(const AllocView *av, Py_ssize_t slot, double now,
               long lbm_s, long lbm_e, long layer_index,
               long region_pages, PyObject *row, Selection *out)
{
    PyObject *unique, *first_of, *last_of, *lwm;
    double head_timeout, est, lwm_timeout;
    long lbm_pages, head, blk_s, blk_e;
    long single_level, is_sorted, trivial;
    long palloc_slot, new_pnext, code, pages, sel_enables = 0;
    long m;
    long share = av->share;

    if (!PyTuple_CheckExact(row) ||
        PyTuple_GET_SIZE(row) != ROW_WIDTH) {
        return 0;
    }
    if (slot < 0 || slot >= PyList_GET_SIZE(av->tnext) ||
        PyList_GET_SIZE(av->pnext) != PyList_GET_SIZE(av->tnext) ||
        PyList_GET_SIZE(av->palloc) != PyList_GET_SIZE(av->tnext)) {
        return 0;
    }
    if (tuple_long(row, ROW_LBM_PAGES, &lbm_pages) < 0 ||
        tuple_long(row, ROW_HEAD, &head) < 0 ||
        tuple_long(row, ROW_BLOCK_START, &blk_s) < 0 ||
        tuple_long(row, ROW_BLOCK_END, &blk_e) < 0 ||
        tuple_long(row, ROW_SINGLE_LEVEL, &single_level) < 0 ||
        tuple_long(row, ROW_IS_SORTED, &is_sorted) < 0 ||
        tuple_long(row, ROW_TRIVIAL, &trivial) < 0) {
        return 0;
    }
    {
        PyObject *iht = PyTuple_GET_ITEM(row, ROW_HEAD_TIMEOUT);
        PyObject *ie = PyTuple_GET_ITEM(row, ROW_EST);
        PyObject *ilt = PyTuple_GET_ITEM(row, ROW_LWM_TIMEOUT);
        if (!PyFloat_CheckExact(iht) || !PyFloat_CheckExact(ie) ||
            !PyFloat_CheckExact(ilt)) {
            return 0;
        }
        head_timeout = PyFloat_AS_DOUBLE(iht);
        est = PyFloat_AS_DOUBLE(ie);
        lwm_timeout = PyFloat_AS_DOUBLE(ilt);
    }
    unique = PyTuple_GET_ITEM(row, ROW_UNIQUE);
    first_of = PyTuple_GET_ITEM(row, ROW_FIRST_OF);
    last_of = PyTuple_GET_ITEM(row, ROW_LAST_OF);
    lwm = PyTuple_GET_ITEM(row, ROW_LWM);
    if (!PyTuple_CheckExact(unique) || !PyTuple_CheckExact(first_of) ||
        !PyTuple_CheckExact(last_of) || !PyTuple_CheckExact(lwm) ||
        PyTuple_GET_SIZE(lwm) < 1) {
        return 0;
    }

    if (list_long(av->palloc, slot, &palloc_slot) < 0) {
        return 0;
    }
    /* _try_grant's no-resize fast path requires the allocator and the
     * region to agree on the task's holding (true between layers). */
    if (palloc_slot != region_pages) {
        return 0;
    }

    m = layer_index + 1;  /* the layer being selected (row describes it) */

    /* --- end_layer_prepared for the next layer. --- */
    out->new_tnext = now + est;
    if (lbm_s >= 0 && lbm_pages >= 0 && lbm_s <= m && m < lbm_e) {
        new_pnext = lbm_pages;
    }
    else if (single_level) {
        if (PyTuple_GET_SIZE(unique) > 0) {
            long u0;
            if (tuple_long(unique, 0, &u0) < 0) {
                return 0;
            }
            new_pnext = u0 <= palloc_slot ? u0 : 0;
        }
        else {
            new_pnext = 0;
        }
    }
    else {
        int err = 0;
        Py_ssize_t k = bisect_right_tup(unique, palloc_slot, &err) - 1;
        long uk = 0;
        if (err || (k >= 0 && tuple_long(unique, k, &uk) < 0)) {
            return 0;
        }
        new_pnext = k >= 0 ? uk : 0;
    }
    /* End-of-block clear (after the pnext prediction, as in Python). */
    if (lbm_s >= 0 && layer_index >= lbm_e - 1) {
        lbm_s = -1;
        lbm_e = -1;
    }

    /* --- candidate selection for layer m.  predAvailPages excludes
     * this task's slot, so the pending tnext/pnext writes cannot
     * affect it. --- */
    if (av->hw_mode) {
        /* CaMDNSystem._hw_only_decision: equal static split. */
        if (lbm_pages < 0 && trivial) {
            code = 2;
            if (tuple_long(lwm, 0, &pages) < 0) {
                return 0;
            }
        }
        else if (lbm_pages >= 0 && lbm_pages <= share) {
            int covers = lbm_s >= 0 && lbm_s <= m && m < lbm_e;
            code = covers ? 1 : 0;
            sel_enables = !covers;
            pages = lbm_pages;
        }
        else {
            /* MCTGeometry.last_fitting_index(share). */
            long i;
            int err = 0;
            if (is_sorted) {
                Py_ssize_t k = bisect_right_tup(lwm, share, &err) - 1;
                if (err) {
                    return 0;
                }
                i = k >= 0 ? (long)k : 0;
            }
            else {
                Py_ssize_t k = bisect_right_tup(unique, share, &err) - 1;
                if (err) {
                    return 0;
                }
                if (k < 0) {
                    i = 0;
                }
                else {
                    Py_ssize_t j;
                    long best = 0, v;
                    if (k >= PyTuple_GET_SIZE(last_of)) {
                        return 0;
                    }
                    for (j = 0; j <= k; j++) {
                        if (tuple_long(last_of, j, &v) < 0) {
                            return 0;
                        }
                        if (j == 0 || v > best) {
                            best = v;
                        }
                    }
                    i = best;
                }
            }
            if (i >= PyTuple_GET_SIZE(lwm) ||
                tuple_long(lwm, i, &pages) < 0) {
                return 0;
            }
            code = 2 + i;
        }
    }
    else {
        int done = 0;
        code = 0;
        pages = 0;
        if (lbm_pages >= 0) {
            if (lbm_s >= 0 && lbm_s <= m && m < lbm_e) {
                /* Lines 7-9: LBM already enabled (sticky). */
                code = 0;
                pages = lbm_pages;
                done = 1;
            }
            else if (head) {
                /* Lines 10-15: try to enable LBM at the block head. */
                double t_ahead = now + head_timeout;
                long pa;
                if (pred_avail(av->tnext, av->pnext, av->palloc, t_ahead,
                               slot, av->total_pages, av->palloc_sum,
                               &pa) < 0) {
                    return 0;
                }
                pa = pa + palloc_slot;
                if (lbm_pages < pa) {
                    code = 1;
                    pages = lbm_pages;
                    sel_enables = 1;
                    done = 1;
                }
            }
        }
        if (!done) {
            /* Lines 16-22: largest LWM candidate in the prediction. */
            if (single_level) {
                code = 2;
                if (tuple_long(lwm, 0, &pages) < 0) {
                    return 0;
                }
            }
            else {
                double t_ahead = now + lwm_timeout;
                long budget, i;
                int err = 0;
                Py_ssize_t k;
                if (pred_avail(av->tnext, av->pnext, av->palloc, t_ahead,
                               slot, av->total_pages, av->palloc_sum,
                               &budget) < 0) {
                    return 0;
                }
                budget = budget + palloc_slot;
                /* MCTGeometry.select_index(budget). */
                k = bisect_right_tup(unique, budget, &err) - 1;
                if (err) {
                    return 0;
                }
                if (k < 0) {
                    i = 0;
                }
                else {
                    long uk, l0, fk;
                    if (tuple_long(unique, k, &uk) < 0 ||
                        tuple_long(lwm, 0, &l0) < 0) {
                        return 0;
                    }
                    if (uk <= l0) {
                        i = 0;
                    }
                    else {
                        if (k >= PyTuple_GET_SIZE(first_of) ||
                            tuple_long(first_of, k, &fk) < 0) {
                            return 0;
                        }
                        i = fk;
                    }
                }
                if (i >= PyTuple_GET_SIZE(lwm) ||
                    tuple_long(lwm, i, &pages) < 0) {
                    return 0;
                }
                code = 3 + i;
            }
        }
    }

    /* _try_grant: only the no-resize grant is provably equivalent
     * here; anything needing the region machinery goes to Python. */
    if (pages != region_pages) {
        return 0;
    }
    if (sel_enables) {
        if (blk_s < 0) {
            /* block_of() would return None for an enabling decision —
             * inconsistent table; let Python handle it. */
            return 0;
        }
        lbm_s = blk_s;
        lbm_e = blk_e;
    }
    out->code = code;
    out->new_pnext = new_pnext;
    out->lbm_s = lbm_s;
    out->lbm_e = lbm_e;
    return 1;
}

/* Write a selection's predictor update into the slot (palloc is
 * unchanged by construction, exactly the skipped write in
 * _try_grant). */
static int
commit_selection(const AllocView *av, Py_ssize_t slot,
                 const Selection *sel)
{
    PyObject *ftn = PyFloat_FromDouble(sel->new_tnext);
    PyObject *fpn;
    if (ftn == NULL) {
        return -1;
    }
    fpn = PyLong_FromLong(sel->new_pnext);
    if (fpn == NULL) {
        Py_DECREF(ftn);
        return -1;
    }
    PyList_SetItem(av->tnext, slot, ftn);
    PyList_SetItem(av->pnext, slot, fpn);
    return 0;
}

/* camdn_advance(tnext, pnext, palloc, slot, now, total_pages,
 *               palloc_sum, lbm_start, lbm_end, layer_index,
 *               region_pages, row, hw_mode, share)
 *   -> (code, new_lbm_start, new_lbm_end) | None
 *
 * advance_select plus its commit, for one completion the Python chain
 * handles (CaMDNSchedulerBase.advance_layer).  None means the C side
 * bailed with zero state mutated, so the caller can rerun the exact
 * Python chain.
 */
static PyObject *
camdn_advance(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    AllocView av;
    Selection sel;
    long slot, lbm_s, lbm_e, layer_index, region_pages;
    double now;

    if (nargs != 14) {
        PyErr_SetString(PyExc_TypeError,
                        "camdn_advance expects exactly 14 arguments");
        return NULL;
    }
    av.tnext = args[0];
    av.pnext = args[1];
    av.palloc = args[2];
    if (!PyList_CheckExact(av.tnext) || !PyList_CheckExact(av.pnext) ||
        !PyList_CheckExact(av.palloc)) {
        Py_RETURN_NONE;
    }
    slot = PyLong_AsLong(args[3]);
    if (slot == -1 && PyErr_Occurred()) {
        return NULL;
    }
    now = PyFloat_AsDouble(args[4]);
    av.total_pages = PyLong_AsLong(args[5]);
    av.palloc_sum = PyLong_AsLong(args[6]);
    lbm_s = PyLong_AsLong(args[7]);
    lbm_e = PyLong_AsLong(args[8]);
    layer_index = PyLong_AsLong(args[9]);
    region_pages = PyLong_AsLong(args[10]);
    av.hw_mode = PyLong_AsLong(args[12]);
    av.share = PyLong_AsLong(args[13]);
    if (PyErr_Occurred()) {
        return NULL;
    }
    if (!advance_select(&av, slot, now, lbm_s, lbm_e, layer_index,
                        region_pages, args[11], &sel)) {
        Py_RETURN_NONE;
    }
    if (commit_selection(&av, slot, &sel) < 0) {
        return NULL;
    }
    return Py_BuildValue("(lll)", sel.code, sel.lbm_s, sel.lbm_e);
}

/* ------------------------------------------------------------------ */
/* The completion chain                                                */
/* ------------------------------------------------------------------ */

/* Direct slot access for the ``__slots__`` classes the chain touches
 * per completion (TaskInstance, TaskState).  A slot attribute is a
 * member descriptor over a fixed object offset; resolving the offsets
 * once per type turns each read into a load and each write into what
 * the descriptor itself does (PyMember_SetOne), without the generic
 * attribute lookup.  Any name that is not a plain writable object slot
 * leaves the map unresolved, and the chain hands the completion to
 * Python. */

#define MEMBER_OBJECT_EX 16  /* T_OBJECT_EX / Py_T_OBJECT_EX */
#define MEMBER_READONLY 1

/* TaskInstance slots. */
enum {
    I_SCHED_CTX, I_LAYER_INDEX, I_CORES, I_WORK, I_DRAM_TOTAL,
    I_HIT_TOTAL, I_ACCESS_TOTAL, I_LAYERS_EXECUTED, I_SCHED_SCRATCH,
    I_REM_COMPUTE, I_REM_DRAM, I_WAKE_TIME, I_GRAPH, N_INST_SLOTS
};
/* TaskState slots. */
enum { S_MAPPING_FILE, S_SLOT, S_LBM_BLOCK, N_STATE_SLOTS };

#define MAX_SLOTS N_INST_SLOTS

typedef struct {
    PyTypeObject *type;  /* strong reference; NULL until resolved */
    Py_ssize_t off[MAX_SLOTS];
} SlotMap;

static PyObject *inst_names[N_INST_SLOTS];
static PyObject *state_names[N_STATE_SLOTS];
static SlotMap inst_map, state_map;

/* Make ``map`` describe ``tp``: 1 when every name is a writable object
 * slot, 0 when not (the map stays unresolved), -1 on error. */
static int
slot_map_for(SlotMap *map, PyTypeObject *tp, PyObject **names, int k)
{
    Py_ssize_t off[MAX_SLOTS];
    int j;
    if (map->type == tp) {
        return 1;
    }
    for (j = 0; j < k; j++) {
        PyObject *descr = PyObject_GetAttr((PyObject *)tp, names[j]);
        PyMemberDef *md;
        int plain;
        if (descr == NULL) {
            if (!PyErr_ExceptionMatches(PyExc_AttributeError)) {
                return -1;
            }
            PyErr_Clear();
            return 0;
        }
        if (!Py_IS_TYPE(descr, &PyMemberDescr_Type)) {
            Py_DECREF(descr);
            return 0;
        }
        md = ((PyMemberDescrObject *)descr)->d_member;
        off[j] = md->offset;
        plain = md->type == MEMBER_OBJECT_EX &&
                !(md->flags & MEMBER_READONLY);
        Py_DECREF(descr);
        if (!plain) {
            return 0;
        }
    }
    Py_INCREF(tp);
    Py_XSETREF(map->type, tp);
    memcpy(map->off, off, sizeof(Py_ssize_t) * (size_t)k);
    return 1;
}

/* The object in a resolved slot (borrowed; NULL when unset). */
#define SLOT_GET(obj, map, k) \
    (*(PyObject **)((char *)(obj) + (map).off[k]))

/* Store ``v`` in a resolved slot (new reference taken). */
static void
slot_set(PyObject *obj, const SlotMap *map, int k, PyObject *v)
{
    PyObject **addr = (PyObject **)((char *)obj + map->off[k]);
    PyObject *old = *addr;
    Py_INCREF(v);
    *addr = v;
    Py_XDECREF(old);
}

/* Completion-chain kinds (repro.sim.native.CHAIN_*): the first item of
 * a policy's native_chain() tuple. */
#define CHAIN_NONE (-1)
#define CHAIN_CAMDN 0
#define CHAIN_SHARED_CACHE 1

/* Per-call memo of the last few tables the chain looked up (a CaMDN
 * mapping file's decision tables, or a shared-cache policy's work
 * table for one model and core count): the same handful of models
 * complete over and over inside one call. */
#define MEMO_SLOTS 16

/* Inputs of one fused_step call's completion chain (the policy's
 * native_chain() tuple) plus the per-call lookup memo.
 *
 * CHAIN_CAMDN (CaMDNSchedulerBase.native_chain): the scheduler, its
 * per-mapping-file decision tables and the allocator view.
 * CHAIN_SHARED_CACHE (SharedCacheBaseline.native_chain): the work
 * tables of the current contention factor, keyed by
 * ``(graph name, cores)``. */
typedef struct {
    int kind;
    PyObject *sched, *fast_files, *work_tables, *insts, *sl_progress;
    AllocView av;
    int slack;
    long lbm;
    int memo_n;
    PyObject *memo_key[MEMO_SLOTS], *memo_val[MEMO_SLOTS];
    long memo_cores[MEMO_SLOTS];
    /* Per position: the work C installed in this call (borrowed — the
     * instance's work slot holds it) and its dram/hit/access bytes, so
     * the next completion there accounts it without attribute reads. */
    PyObject **ow;
    double *owv;
} Chain;

/* The next layer of one completion, looked up but not installed. */
typedef struct {
    long nxt, nlayers;
    /* The next layer's LayerWork and its compute/dram floats (borrowed)
     * and hit/access bytes. */
    PyObject *work, *cw, *dw;
    double hit, access;
    /* CHAIN_CAMDN only: the selection to commit, the task state it
     * belongs to, the layer's canonical block tuple and memo entry. */
    Selection sel;
    long slot, ls, le;
    PyObject *state, *block, *entry;
} Next;

/* ``total + v`` with Python's float addition. */
static PyObject *
add_float(PyObject *total, double v)
{
    PyObject *f, *sum;
    if (PyFloat_CheckExact(total)) {
        return PyFloat_FromDouble(PyFloat_AS_DOUBLE(total) + v);
    }
    if ((f = PyFloat_FromDouble(v)) == NULL) {
        return NULL;
    }
    sum = PyNumber_Add(total, f);
    Py_DECREF(f);
    return sum;
}

/* The memoized table for (key, cores) (borrowed), or NULL. */
static PyObject *
memo_get(const Chain *ch, PyObject *key, long cores)
{
    int j;
    for (j = 0; j < ch->memo_n; j++) {
        if (ch->memo_key[j] == key && ch->memo_cores[j] == cores) {
            return ch->memo_val[j];
        }
    }
    return NULL;
}

/* Remember a table for the rest of the call (its owner dict keeps it
 * alive: no Python code runs inside fused_step). */
static void
memo_put(Chain *ch, PyObject *key, long cores, PyObject *val)
{
    if (ch->memo_n < MEMO_SLOTS) {
        ch->memo_key[ch->memo_n] = key;
        ch->memo_cores[ch->memo_n] = cores;
        ch->memo_val[ch->memo_n] = val;
        ch->memo_n++;
    }
}

/* len(inst.graph.layers), or -1 on a Python error. */
static Py_ssize_t
graph_layers(PyObject *graph)
{
    PyObject *layers = PyObject_GetAttr(graph, s_layers);
    Py_ssize_t n;
    if (layers == NULL) {
        return -1;
    }
    n = PyObject_Length(layers);
    Py_DECREF(layers);
    return n;
}

/* The exit for a completion of a model with ``n_layers`` layers whose
 * tables are missing: Python builds them — unless this was the
 * inference's last layer. */
static int
miss_exit(Py_ssize_t n_layers, long layer_index)
{
    return 1 + (layer_index + 1 < n_layers ? EXIT_MEMO_MISS
                                           : EXIT_INFERENCE_END);
}

/* The decision tables of mapping file ``mf`` (borrowed), or NULL (no
 * error set) when none is memoized yet. */
static PyObject *
camdn_tables(Chain *ch, PyObject *mf)
{
    PyObject *key, *ft = memo_get(ch, mf, 0);
    if (ft != NULL) {
        return ft;
    }
    key = PyLong_FromVoidPtr(mf);  /* id(mf) */
    if (key == NULL) {
        return NULL;
    }
    ft = PyDict_GetItemWithError(ch->fast_files, key);
    Py_DECREF(key);
    if (ft == NULL || !PyTuple_CheckExact(ft) ||
        PyTuple_GET_SIZE(ft) != 4 || PyTuple_GET_ITEM(ft, 0) != mf ||
        !PyList_CheckExact(PyTuple_GET_ITEM(ft, 1)) ||
        !PyList_CheckExact(PyTuple_GET_ITEM(ft, 2)) ||
        !PyList_CheckExact(PyTuple_GET_ITEM(ft, 3))) {
        return NULL;
    }
    memo_put(ch, mf, 0, ft);
    return ft;
}

/* CaMDN lookup, as CaMDNSchedulerBase.advance_layer's native branch:
 * Algorithm 1's end-of-layer update and next-layer selection plus the
 * no-resize grant check (advance_select), then the memoized
 * ``(grant, (work, 0.0), is_lbm, work_bytes)`` entry keyed by
 * ``code * 64 + cores``.  Pure: the selection is committed by
 * chain_install.  Returns 0 with ``nx`` filled, 1 + EXIT_* for a bail,
 * -1 on a Python error. */
static int
camdn_lookup(Chain *ch, PyObject *inst, long layer_index, double now,
             Next *nx)
{
    PyObject *pcpns = NULL, *ckey = NULL;
    PyObject *ctx, *state, *region, *mf, *ft, *rows, *pairs, *blocks;
    PyObject *pd, *entry, *pair, *vals, *v, *block;
    Py_ssize_t region_pages;
    long cores;
    int rc = -1, r;

#define BAIL(reason) do { rc = 1 + (reason); goto done; } while (0)

    ctx = SLOT_GET(inst, inst_map, I_SCHED_CTX);
    if (ctx == NULL || !PyTuple_CheckExact(ctx) ||
        PyTuple_GET_SIZE(ctx) != 2) {
        BAIL(EXIT_ADVANCE_BAIL);
    }
    state = PyTuple_GET_ITEM(ctx, 0);
    region = PyTuple_GET_ITEM(ctx, 1);
    r = slot_map_for(&state_map, Py_TYPE(state), state_names,
                     N_STATE_SLOTS);
    if (r <= 0) {
        if (r < 0) {
            goto done;
        }
        BAIL(EXIT_ADVANCE_BAIL);
    }
    mf = SLOT_GET(state, state_map, S_MAPPING_FILE);
    if (mf == NULL) {
        BAIL(EXIT_ADVANCE_BAIL);
    }
    ft = camdn_tables(ch, mf);
    if (ft == NULL) {
        PyObject *graph = SLOT_GET(inst, inst_map, I_GRAPH);
        Py_ssize_t n;
        if (PyErr_Occurred()) {
            goto done;
        }
        if (graph == NULL) {
            BAIL(EXIT_ADVANCE_BAIL);
        }
        if ((n = graph_layers(graph)) >= 0) {
            rc = miss_exit(n, layer_index);
        }
        goto done;
    }
    rows = PyTuple_GET_ITEM(ft, 1);
    pairs = PyTuple_GET_ITEM(ft, 2);
    blocks = PyTuple_GET_ITEM(ft, 3);
    /* One row per model layer (the mapping file has one MCT per graph
     * layer), so this is the engine's last-layer test. */
    nx->nlayers = (long)PyList_GET_SIZE(rows);
    nx->nxt = layer_index + 1;
    if (nx->nxt >= nx->nlayers) {
        BAIL(EXIT_INFERENCE_END);
    }
    if (PyList_GET_SIZE(pairs) != nx->nlayers ||
        PyList_GET_SIZE(blocks) != nx->nlayers) {
        BAIL(EXIT_ADVANCE_BAIL);
    }

    v = SLOT_GET(state, state_map, S_SLOT);
    if (v == NULL || obj_long(v, &nx->slot) < 0) {
        BAIL(EXIT_ADVANCE_BAIL);
    }
    nx->ls = nx->le = -1;
    block = SLOT_GET(state, state_map, S_LBM_BLOCK);
    if (block == NULL) {
        BAIL(EXIT_ADVANCE_BAIL);
    }
    if (block != Py_None) {
        if (!PyTuple_CheckExact(block) || PyTuple_GET_SIZE(block) != 2 ||
            tuple_long(block, 0, &nx->ls) < 0 ||
            tuple_long(block, 1, &nx->le) < 0) {
            BAIL(EXIT_ADVANCE_BAIL);
        }
    }
    if ((pcpns = PyObject_GetAttr(region, s_pcpns)) == NULL) {
        goto done;
    }
    region_pages = PyObject_Length(pcpns);
    if (region_pages < 0) {
        goto done;
    }
    v = SLOT_GET(inst, inst_map, I_CORES);
    if (v == NULL || obj_long(v, &cores) < 0) {
        BAIL(EXIT_ADVANCE_BAIL);
    }
    if (!advance_select(&ch->av, nx->slot, now, nx->ls, nx->le,
                        layer_index, (long)region_pages,
                        PyList_GET_ITEM(rows, nx->nxt), &nx->sel)) {
        BAIL(EXIT_ADVANCE_BAIL);
    }

    pd = PyList_GET_ITEM(pairs, nx->nxt);
    if (!PyDict_CheckExact(pd)) {
        BAIL(EXIT_ADVANCE_BAIL);
    }
    ckey = PyLong_FromLong(nx->sel.code * 64 + cores);
    if (ckey == NULL) {
        goto done;
    }
    entry = PyDict_GetItemWithError(pd, ckey);
    if (entry == NULL) {
        if (PyErr_Occurred()) {
            goto done;
        }
        BAIL(EXIT_MEMO_MISS);
    }
    if (!PyTuple_CheckExact(entry) || PyTuple_GET_SIZE(entry) != 4) {
        BAIL(EXIT_ADVANCE_BAIL);
    }
    pair = PyTuple_GET_ITEM(entry, 1);
    vals = PyTuple_GET_ITEM(entry, 3);
    if (!PyTuple_CheckExact(pair) || PyTuple_GET_SIZE(pair) != 2 ||
        !PyTuple_CheckExact(vals) || PyTuple_GET_SIZE(vals) != 4) {
        BAIL(EXIT_ADVANCE_BAIL);
    }
    nx->work = PyTuple_GET_ITEM(pair, 0);
    nx->cw = PyTuple_GET_ITEM(vals, 0);
    nx->dw = PyTuple_GET_ITEM(vals, 1);
    if (nx->work == Py_None ||
        !PyFloat_CheckExact(nx->cw) || !PyFloat_CheckExact(nx->dw) ||
        !PyFloat_CheckExact(PyTuple_GET_ITEM(vals, 2)) ||
        !PyFloat_CheckExact(PyTuple_GET_ITEM(vals, 3))) {
        /* The fluid lists hold floats only. */
        BAIL(EXIT_ADVANCE_BAIL);
    }
    nx->hit = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(vals, 2));
    nx->access = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(vals, 3));
    nx->state = state;
    nx->block = PyList_GET_ITEM(blocks, nx->nxt);
    nx->entry = entry;
    rc = 0;

done:
#undef BAIL
    Py_XDECREF(pcpns);
    Py_XDECREF(ckey);
    return rc;
}

/* Shared-cache lookup, as SharedCacheBaseline.begin_layer: entry
 * ``layer + 1`` of the work table for the instance's model and core
 * count at the call's contention factor.  A table is a tuple of one
 * ``(work, compute, dram, hit, access)`` entry per model layer; a
 * missing table, or one whose length disagrees with the graph, is a
 * memo miss.  Returns 0 with ``nx`` filled, 1 + EXIT_* for a bail, -1
 * on a Python error. */
static int
shared_lookup(Chain *ch, PyObject *inst, long layer_index, Next *nx)
{
    PyObject *graph = SLOT_GET(inst, inst_map, I_GRAPH);
    PyObject *cores_o = SLOT_GET(inst, inst_map, I_CORES);
    PyObject *table, *entry, *v;
    long cores;
    int k;

    if (graph == NULL || cores_o == NULL || obj_long(cores_o, &cores) < 0) {
        return 1 + EXIT_ADVANCE_BAIL;
    }
    table = memo_get(ch, graph, cores);
    if (table == NULL) {
        PyObject *name, *key;
        Py_ssize_t n;
        if ((name = PyObject_GetAttr(graph, s_name)) == NULL) {
            return -1;
        }
        key = PyTuple_Pack(2, name, cores_o);
        Py_DECREF(name);
        if (key == NULL) {
            return -1;
        }
        table = PyDict_GetItemWithError(ch->work_tables, key);
        Py_DECREF(key);
        if (table == NULL && PyErr_Occurred()) {
            return -1;
        }
        if ((n = graph_layers(graph)) < 0) {
            return -1;
        }
        if (table == NULL || !PyTuple_CheckExact(table) ||
            PyTuple_GET_SIZE(table) != n) {
            return miss_exit(n, layer_index);
        }
        memo_put(ch, graph, cores, table);
    }
    nx->nlayers = (long)PyTuple_GET_SIZE(table);
    nx->nxt = layer_index + 1;
    if (nx->nxt >= nx->nlayers) {
        return 1 + EXIT_INFERENCE_END;
    }
    entry = PyTuple_GET_ITEM(table, nx->nxt);
    if (!PyTuple_CheckExact(entry) || PyTuple_GET_SIZE(entry) != 5) {
        return 1 + EXIT_MEMO_MISS;
    }
    for (k = 1; k < 5; k++) {
        if (!PyFloat_CheckExact(PyTuple_GET_ITEM(entry, k))) {
            /* The fluid lists hold floats only. */
            return 1 + EXIT_MEMO_MISS;
        }
    }
    v = PyTuple_GET_ITEM(entry, 0);
    if (v == Py_None) {
        return 1 + EXIT_MEMO_MISS;
    }
    nx->work = v;
    nx->cw = PyTuple_GET_ITEM(entry, 1);
    nx->dw = PyTuple_GET_ITEM(entry, 2);
    nx->hit = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(entry, 3));
    nx->access = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(entry, 4));
    return 0;
}

/* Install a looked-up next layer on kernel position ``i`` exactly as
 * MultiTenantEngine._process_completions -> _apply_grant would: the
 * account_layer sums of the layer that finished, ``layer_index``, the
 * work and remaining work (in the fluid buffers c/d too), ``wake_time``
 * and, for the slack modes, the progress refresh of
 * RunningKernel.set_work (buffer sp and list).  A CaMDN completion
 * also commits its selection, LBM block, grant and LBM count.  Every
 * new value is built before the first write, so an error leaves
 * nothing half-done.  Returns 0, or -1 on a Python error. */
static int
chain_install(Chain *ch, Py_ssize_t i, PyObject *inst, const Next *nx,
              double *c, double *d, double *sp)
{
    PyObject *od = NULL, *oh = NULL, *oa = NULL;
    PyObject *nd = NULL, *nh = NULL, *na = NULL, *nl = NULL;
    PyObject *nxt_o = NULL, *old, *td, *th, *ta, *tl;
    double *owv = ch->owv + 3 * i;
    int rc = -1;

#define GET(var, obj, name) \
    do { if ((var = PyObject_GetAttr(obj, name)) == NULL) goto done; } \
    while (0)

    old = SLOT_GET(inst, inst_map, I_WORK);
    td = SLOT_GET(inst, inst_map, I_DRAM_TOTAL);
    th = SLOT_GET(inst, inst_map, I_HIT_TOTAL);
    ta = SLOT_GET(inst, inst_map, I_ACCESS_TOTAL);
    tl = SLOT_GET(inst, inst_map, I_LAYERS_EXECUTED);
    if (old == ch->ow[i]) {
        if ((nd = add_float(td, owv[0])) == NULL ||
            (nh = add_float(th, owv[1])) == NULL ||
            (na = add_float(ta, owv[2])) == NULL) {
            goto done;
        }
    }
    else {
        GET(od, old, s_dram_bytes);
        GET(oh, old, s_hit_bytes);
        GET(oa, old, s_access_bytes);
        if ((nd = PyNumber_Add(td, od)) == NULL ||
            (nh = PyNumber_Add(th, oh)) == NULL ||
            (na = PyNumber_Add(ta, oa)) == NULL) {
            goto done;
        }
    }
    if ((nl = PyNumber_Add(tl, i_one)) == NULL ||
        (nxt_o = PyLong_FromLong(nx->nxt)) == NULL) {
        goto done;
    }

    /* --- commit --- */
    if (ch->kind == CHAIN_CAMDN) {
        int is_lbm = PyObject_IsTrue(PyTuple_GET_ITEM(nx->entry, 2));
        if (is_lbm < 0 || commit_selection(&ch->av, nx->slot, &nx->sel) < 0) {
            goto done;
        }
        if (nx->sel.lbm_s != nx->ls || nx->sel.lbm_e != nx->le) {
            /* The mapping file's canonical block tuple — the very
             * object block_of() hands the Python chain, so pickled
             * object graphs (snapshot bytes) stay identical across
             * paths. */
            slot_set(nx->state, &state_map, S_LBM_BLOCK,
                     nx->sel.lbm_s < 0 ? Py_None : nx->block);
        }
        ch->lbm += is_lbm;
        slot_set(inst, &inst_map, I_SCHED_SCRATCH,
                 PyTuple_GET_ITEM(nx->entry, 0));
    }
    slot_set(inst, &inst_map, I_DRAM_TOTAL, nd);
    slot_set(inst, &inst_map, I_HIT_TOTAL, nh);
    slot_set(inst, &inst_map, I_ACCESS_TOTAL, na);
    slot_set(inst, &inst_map, I_LAYERS_EXECUTED, nl);
    slot_set(inst, &inst_map, I_LAYER_INDEX, nxt_o);
    /* _apply_grant's granted branch for a running instance (state is
     * already RUNNING and start_time already set). */
    slot_set(inst, &inst_map, I_WORK, nx->work);
    slot_set(inst, &inst_map, I_REM_COMPUTE, nx->cw);
    slot_set(inst, &inst_map, I_REM_DRAM, nx->dw);
    slot_set(inst, &inst_map, I_WAKE_TIME, f_inf);
    c[i] = PyFloat_AS_DOUBLE(nx->cw);
    d[i] = PyFloat_AS_DOUBLE(nx->dw);
    ch->ow[i] = nx->work;
    owv[0] = d[i];
    owv[1] = nx->hit;
    owv[2] = nx->access;
    if (ch->slack) {
        double prog = (double)nx->nxt /
                      (double)(nx->nlayers > 1 ? nx->nlayers : 1);
        PyObject *fp = PyFloat_FromDouble(prog);
        if (fp == NULL) {
            goto done;
        }
        sp[i] = prog;
        PyList_SetItem(ch->sl_progress, i, fp);
    }
    rc = 0;

done:
#undef GET
    Py_XDECREF(od);
    Py_XDECREF(oh);
    Py_XDECREF(oa);
    Py_XDECREF(nd);
    Py_XDECREF(nh);
    Py_XDECREF(na);
    Py_XDECREF(nl);
    Py_XDECREF(nxt_o);
    return rc;
}

/* Handle the completion of kernel position ``i``: the kind's lookup of
 * the next layer, then the shared install.
 *
 * Returns 0 when handled, 1 + EXIT_* when Python must take this
 * completion (nothing mutated), -1 on a Python error. */
static int
chain_complete(Chain *ch, Py_ssize_t i, double now, double *c,
               double *d, double *sp)
{
    PyObject *inst = PyList_GET_ITEM(ch->insts, i);
    PyObject *v;
    Next nx;
    long layer_index;
    int r, k;

    r = slot_map_for(&inst_map, Py_TYPE(inst), inst_names, N_INST_SLOTS);
    if (r <= 0) {
        return r < 0 ? -1 : 1 + EXIT_ADVANCE_BAIL;
    }
    v = SLOT_GET(inst, inst_map, I_LAYER_INDEX);
    if (v == NULL || obj_long(v, &layer_index) < 0) {
        return 1 + EXIT_ADVANCE_BAIL;
    }
    r = ch->kind == CHAIN_CAMDN
        ? camdn_lookup(ch, inst, layer_index, now, &nx)
        : shared_lookup(ch, inst, layer_index, &nx);
    if (r != 0) {
        return r;
    }
    /* The finished layer's work and totals (account_layer). */
    v = SLOT_GET(inst, inst_map, I_WORK);
    if (v == NULL || v == Py_None) {
        return 1 + EXIT_ADVANCE_BAIL;
    }
    for (k = I_DRAM_TOTAL; k <= I_LAYERS_EXECUTED; k++) {
        if (SLOT_GET(inst, inst_map, k) == NULL) {
            return 1 + EXIT_ADVANCE_BAIL;
        }
    }
    return chain_install(ch, i, inst, &nx, c, d, sp);
}

/* ------------------------------------------------------------------ */
/* The batch entry                                                     */
/* ------------------------------------------------------------------ */

static PyObject *
positions_from(const Py_ssize_t *fin, Py_ssize_t from, Py_ssize_t to)
{
    PyObject *out = PyList_New(to - from);
    Py_ssize_t j;
    if (out == NULL) {
        return NULL;
    }
    for (j = from; j < to; j++) {
        PyObject *pos = PyLong_FromSsize_t(fin[j]);
        if (pos == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, j - from, pos);
    }
    return out;
}

/* fused_step(rem_c, rem_d, rate_c, rate_d,
 *            sl_arrival, sl_qos, sl_est, sl_progress,
 *            mode, freq, total_bw, eff, floor, urgency,
 *            now, bound, max_events, waiting, insts, chain, counters)
 *   -> (reason, now, events, finished, dt) | None
 *
 * Steps events from ``now`` until the batch loop has work of its own.
 * ``bound`` is the next wakeup/timeline/fault instant (inf for none):
 * each event's wait clamp is ``max(bound - now, 0)`` and reaching it
 * ends the call (EXIT_BOUNDARY).  ``max_events`` caps the events of
 * this call (EXIT_EVENT_BUDGET).  rem_c/rem_d (and, in the slack
 * modes, sl_progress) are updated in place; rate_c/rate_d are read
 * only in MODE_STATIC — the dynamic modes derive rates from the
 * remaining work and do not write them back (the engine recomputes
 * rates whenever it leaves the native path).
 *
 * ``chain`` is None (EXIT_NO_TABLES: return after every event with
 * completions, handing all finished positions back) or a policy's
 * native_chain() tuple: ``(CHAIN_CAMDN, scheduler, fast_files, tnext,
 * pnext, palloc, total_pages, palloc_sum, hw_mode, share)`` or
 * ``(CHAIN_SHARED_CACHE, work_tables)``; each finished position is
 * then handled in C, in insertion order, until one is not provably
 * equivalent (EXIT_INFERENCE_END, EXIT_ADVANCE_BAIL, EXIT_MEMO_MISS).
 * A truthy ``waiting`` ends the call after the first event with
 * completions, once C handled what it can (EXIT_WAITING_SET: the
 * engine polls its waiting set).
 *
 * ``finished`` is None when the last event needs no Python completion
 * handling, otherwise the positions Python must still handle (possibly
 * empty).  ``dt`` is the last attempted step: inf or negative means the
 * caller must raise (that event was not applied).  ``counters`` is a
 * bytearray of N_COUNTERS native int64s the call adds its run stats
 * to.  Returns None (nothing stepped) when the first event's inputs
 * fall outside the fast path; the caller then runs the exact Python
 * equivalent for it.
 */
static PyObject *
fused_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *rem_c_l, *rem_d_l, *rate_c_l, *rate_d_l;
    PyObject *sl_a_l, *sl_q_l, *sl_e_l, *sl_p_l;
    PyObject *chain_t, *counters_o;
    RateParams rp;
    Chain ch;
    double now, bound, dt = 0.0;
    long max_events;
    int waiting, dynamic, slack;
    double stack_buf[N_BUFS * STACK_WIDTH];
    Py_ssize_t stack_fin[STACK_WIDTH];
    PyObject *stack_ow[STACK_WIDTH];
    double *buf = stack_buf;
    Py_ssize_t *fin = stack_fin;
    PyObject **ow = stack_ow;
    double *c, *d, *rc, *rd, *dem, *sa, *sq, *se, *sp;
    Py_ssize_t n, i, nf = 0, rest_from = 0;
    long events = 0, handled = 0;
    int reason = EXIT_STEP_BAIL, failed = 0;
    PyObject *finished = NULL, *result = NULL;

    if (nargs != 21) {
        PyErr_SetString(PyExc_TypeError,
                        "fused_step expects exactly 21 arguments");
        return NULL;
    }
    rem_c_l = args[0];
    rem_d_l = args[1];
    rate_c_l = args[2];
    rate_d_l = args[3];
    sl_a_l = args[4];
    sl_q_l = args[5];
    sl_e_l = args[6];
    sl_p_l = args[7];
    if (!PyList_CheckExact(rem_c_l) || !PyList_CheckExact(rem_d_l) ||
        !PyList_CheckExact(rate_c_l) || !PyList_CheckExact(rate_d_l) ||
        !PyList_CheckExact(sl_a_l) || !PyList_CheckExact(sl_q_l) ||
        !PyList_CheckExact(sl_e_l) || !PyList_CheckExact(sl_p_l) ||
        !PyList_CheckExact(args[18])) {
        Py_RETURN_NONE;
    }
    rp.mode = PyLong_AsLong(args[8]);
    rp.freq = PyFloat_AsDouble(args[9]);
    rp.total_bw = PyFloat_AsDouble(args[10]);
    rp.eff = PyFloat_AsDouble(args[11]);
    rp.fl = PyFloat_AsDouble(args[12]);
    rp.urgency = PyFloat_AsDouble(args[13]);
    now = PyFloat_AsDouble(args[14]);
    bound = PyFloat_AsDouble(args[15]);
    max_events = PyLong_AsLong(args[16]);
    if (PyErr_Occurred()) {
        return NULL;
    }
    waiting = PyObject_IsTrue(args[17]);
    if (waiting < 0) {
        return NULL;
    }
    chain_t = args[19];
    counters_o = args[20];
    if (!PyByteArray_CheckExact(counters_o) ||
        PyByteArray_GET_SIZE(counters_o)
            != (Py_ssize_t)(N_COUNTERS * sizeof(int64_t))) {
        PyErr_SetString(PyExc_ValueError,
                        "fused_step: bad counters buffer");
        return NULL;
    }
    if (rp.mode < MODE_STATIC || rp.mode > MODE_SLACK_THROTTLED) {
        Py_RETURN_NONE;
    }
    dynamic = rp.mode != MODE_STATIC;
    slack = rp.mode == MODE_SLACK_WEIGHTED ||
            rp.mode == MODE_SLACK_THROTTLED;

    n = PyList_GET_SIZE(rem_c_l);
    if (PyList_GET_SIZE(rem_d_l) != n ||
        PyList_GET_SIZE(args[18]) != n ||
        (!dynamic && (PyList_GET_SIZE(rate_c_l) != n ||
                      PyList_GET_SIZE(rate_d_l) != n)) ||
        (slack && (PyList_GET_SIZE(sl_a_l) != n ||
                   PyList_GET_SIZE(sl_q_l) != n ||
                   PyList_GET_SIZE(sl_e_l) != n ||
                   PyList_GET_SIZE(sl_p_l) != n))) {
        Py_RETURN_NONE;
    }

    ch.kind = CHAIN_NONE;
    ch.sched = NULL;
    ch.lbm = 0;
    ch.memo_n = 0;
    if (chain_t != Py_None) {
        long kind;
        Py_ssize_t size;
        if (!PyTuple_CheckExact(chain_t) ||
            (size = PyTuple_GET_SIZE(chain_t)) < 1 ||
            obj_long(PyTuple_GET_ITEM(chain_t, 0), &kind) < 0) {
            Py_RETURN_NONE;
        }
        if (kind == CHAIN_CAMDN && size == 10) {
            ch.sched = PyTuple_GET_ITEM(chain_t, 1);
            ch.fast_files = PyTuple_GET_ITEM(chain_t, 2);
            ch.av.tnext = PyTuple_GET_ITEM(chain_t, 3);
            ch.av.pnext = PyTuple_GET_ITEM(chain_t, 4);
            ch.av.palloc = PyTuple_GET_ITEM(chain_t, 5);
            if (!PyDict_CheckExact(ch.fast_files) ||
                !PyList_CheckExact(ch.av.tnext) ||
                !PyList_CheckExact(ch.av.pnext) ||
                !PyList_CheckExact(ch.av.palloc) ||
                obj_long(PyTuple_GET_ITEM(chain_t, 6),
                         &ch.av.total_pages) < 0 ||
                obj_long(PyTuple_GET_ITEM(chain_t, 7),
                         &ch.av.palloc_sum) < 0 ||
                obj_long(PyTuple_GET_ITEM(chain_t, 8),
                         &ch.av.hw_mode) < 0 ||
                obj_long(PyTuple_GET_ITEM(chain_t, 9), &ch.av.share) < 0) {
                Py_RETURN_NONE;
            }
        }
        else if (kind == CHAIN_SHARED_CACHE && size == 2 &&
                 PyDict_CheckExact(PyTuple_GET_ITEM(chain_t, 1))) {
            ch.work_tables = PyTuple_GET_ITEM(chain_t, 1);
        }
        else {
            Py_RETURN_NONE;
        }
        ch.kind = (int)kind;
        ch.insts = args[18];
        ch.sl_progress = sl_p_l;
        ch.slack = slack;
    }

    if (n > STACK_WIDTH) {
        buf = PyMem_Malloc((size_t)(N_BUFS * n) * sizeof(double));
        fin = PyMem_Malloc((size_t)n * sizeof(Py_ssize_t));
        ow = PyMem_Malloc((size_t)n * sizeof(PyObject *));
        if (buf == NULL || fin == NULL || ow == NULL) {
            PyMem_Free(buf);
            PyMem_Free(fin);
            PyMem_Free(ow);
            return PyErr_NoMemory();
        }
    }
    if (ch.kind != CHAIN_NONE) {
        for (i = 0; i < n; i++) {
            ow[i] = NULL;
        }
    }
    c = buf;
    d = buf + n;
    rc = buf + 2 * n;
    rd = buf + 3 * n;
    dem = buf + 4 * n;
    sa = buf + 5 * n;
    sq = buf + 6 * n;
    se = buf + 7 * n;
    sp = buf + 8 * n;
    ch.ow = ow;
    ch.owv = buf + 9 * n;  /* 3 * n doubles */

    if (read_doubles(rem_c_l, c, n) < 0 ||
        read_doubles(rem_d_l, d, n) < 0 ||
        (!dynamic && (read_doubles(rate_c_l, rc, n) < 0 ||
                      read_doubles(rate_d_l, rd, n) < 0)) ||
        (slack && (read_doubles(sl_a_l, sa, n) < 0 ||
                   read_doubles(sl_q_l, sq, n) < 0 ||
                   read_doubles(sl_e_l, se, n) < 0 ||
                   read_doubles(sl_p_l, sp, n) < 0))) {
        goto none;
    }

    for (;;) {
        double wait_dt = bound - now;
        if (wait_dt < 0.0) {
            wait_dt = 0.0;
        }
        if (dynamic &&
            compute_rates(&rp, n, c, d, sa, sq, se, sp, now,
                          rc, rd, dem) < 0) {
            if (events == 0) {
                goto none;
            }
            dt = 0.0;
            reason = EXIT_STEP_BAIL;
            break;
        }

        /* Min event time (RunningKernel.step). */
        dt = Py_HUGE_VAL;
        for (i = 0; i < n; i++) {
            double t_c = c[i] / rc[i];
            double t_d = d[i] / rd[i];
            double t = t_c >= t_d ? t_c : t_d;
            if (t < dt) {
                dt = t;
            }
        }
        if (wait_dt < dt) {
            dt = wait_dt;
        }
        if (dt == Py_HUGE_VAL || dt < 0.0) {
            /* inf: idle/deadlock; negative: corrupt state.  Both are
             * the caller's to report; this event was not applied. */
            reason = EXIT_STEP_BAIL;
            break;
        }

        /* Advance and completion scan (RunningKernel.step). */
        nf = 0;
        for (i = 0; i < n; i++) {
            double nc = c[i] - dt * rc[i];
            double nd;
            if (nc < 0.0) {
                nc = 0.0;
            }
            nd = d[i] - dt * rd[i];
            if (nd < 0.0) {
                nd = 0.0;
            }
            c[i] = nc;
            d[i] = nd;
            if (nc <= FINISH_EPS && nd <= FINISH_EPS) {
                fin[nf++] = i;
            }
        }
        now = now + dt;
        events++;

        if (nf > 0) {
            Py_ssize_t j;
            if (ch.kind == CHAIN_NONE) {
                reason = EXIT_NO_TABLES;
                rest_from = 0;
                break;
            }
            for (j = 0; j < nf; j++) {
                int r = chain_complete(&ch, fin[j], now, c, d, sp);
                if (r < 0) {
                    failed = 1;
                    break;
                }
                if (r > 0) {
                    reason = r - 1;
                    break;
                }
                handled++;
            }
            if (failed) {
                break;
            }
            if (j < nf) {
                rest_from = j;
                break;
            }
            if (waiting) {
                reason = EXIT_WAITING_SET;
                rest_from = nf;
                break;
            }
            nf = 0;
        }
        if (bound - now <= WAKE_EPS) {
            reason = EXIT_BOUNDARY;
            break;
        }
        if (events >= max_events) {
            reason = EXIT_EVENT_BUDGET;
            break;
        }
    }

    /* Write the drained work back (the lists stay authoritative). */
    for (i = 0; i < n; i++) {
        PyObject *fc = PyFloat_FromDouble(c[i]);
        PyObject *fd;
        if (fc == NULL) {
            failed = 1;
            break;
        }
        PyList_SetItem(rem_c_l, i, fc);
        fd = PyFloat_FromDouble(d[i]);
        if (fd == NULL) {
            failed = 1;
            break;
        }
        PyList_SetItem(rem_d_l, i, fd);
    }
    if (ch.lbm > 0 && !failed) {
        /* advance_layer's LBM-layer count for the completions C
         * handled. */
        PyObject *cur = PyObject_GetAttr(ch.sched, s_lbm_layers);
        PyObject *delta = cur == NULL ? NULL : PyLong_FromLong(ch.lbm);
        PyObject *sum = delta == NULL ? NULL : PyNumber_Add(cur, delta);
        if (sum == NULL ||
            PyObject_SetAttr(ch.sched, s_lbm_layers, sum) < 0) {
            failed = 1;
        }
        Py_XDECREF(cur);
        Py_XDECREF(delta);
        Py_XDECREF(sum);
    }
    if (failed) {
        goto error;
    }
    {
        int64_t *ctr = (int64_t *)PyByteArray_AS_STRING(counters_o);
        ctr[CTR_EVENTS] += events;
        ctr[CTR_COMPLETIONS_C] += handled;
        ctr[CTR_EXITS + reason] += 1;
        if (nf > 0) {
            ctr[CTR_PY_COMPLETIONS + reason] += nf - rest_from;
        }
    }
    if (nf > 0 || reason == EXIT_WAITING_SET) {
        finished = positions_from(fin, rest_from, nf);
        if (finished == NULL) {
            goto error;
        }
    }
    else {
        finished = Py_None;
        Py_INCREF(finished);
    }
    result = PyTuple_New(5);
    if (result == NULL) {
        Py_DECREF(finished);
        goto error;
    }
    PyTuple_SET_ITEM(result, 3, finished);
    {
        PyObject *items[4] = {
            PyLong_FromLong(reason), PyFloat_FromDouble(now),
            PyLong_FromLong(events), PyFloat_FromDouble(dt),
        };
        static const int slots[4] = {0, 1, 2, 4};
        int k;
        for (k = 0; k < 4; k++) {
            if (items[k] == NULL) {
                int j;
                for (j = k + 1; j < 4; j++) {
                    Py_XDECREF(items[j]);
                }
                Py_CLEAR(result);
                goto error;
            }
            PyTuple_SET_ITEM(result, slots[k], items[k]);
        }
    }
    goto cleanup;

none:
    result = Py_None;
    Py_INCREF(result);
    goto cleanup;

error:
    result = NULL;

cleanup:
    if (buf != stack_buf) {
        PyMem_Free(buf);
        PyMem_Free(fin);
        PyMem_Free(ow);
    }
    return result;
}

static PyMethodDef batchstep_methods[] = {
    {"fused_step", (PyCFunction)(void (*)(void))fused_step,
     METH_FASTCALL,
     "Step engine events: fused rates + min-dt + advance, then the "
     "policy's completion chain."},
    {"camdn_advance", (PyCFunction)(void (*)(void))camdn_advance,
     METH_FASTCALL,
     "Fused CaMDN end-of-layer update + next-layer selection + grant."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef batchstep_module = {
    PyModuleDef_HEAD_INIT,
    "_batchstep",
    "Native stepping kernel for the fluid engine batch loop.",
    -1,
    batchstep_methods,
};

PyMODINIT_FUNC
PyInit__batchstep(void)
{
#define INTERN(var, text) \
    do { if ((var = PyUnicode_InternFromString(text)) == NULL) \
             return NULL; } while (0)
    INTERN(inst_names[I_SCHED_CTX], "sched_ctx");
    INTERN(inst_names[I_LAYER_INDEX], "layer_index");
    INTERN(inst_names[I_CORES], "cores");
    INTERN(inst_names[I_WORK], "work");
    INTERN(inst_names[I_DRAM_TOTAL], "dram_bytes_total");
    INTERN(inst_names[I_HIT_TOTAL], "hit_bytes_total");
    INTERN(inst_names[I_ACCESS_TOTAL], "access_bytes_total");
    INTERN(inst_names[I_LAYERS_EXECUTED], "layers_executed");
    INTERN(inst_names[I_SCHED_SCRATCH], "sched_scratch");
    INTERN(inst_names[I_REM_COMPUTE], "rem_compute_cycles");
    INTERN(inst_names[I_REM_DRAM], "rem_dram_bytes");
    INTERN(inst_names[I_WAKE_TIME], "wake_time");
    INTERN(inst_names[I_GRAPH], "graph");
    INTERN(state_names[S_MAPPING_FILE], "mapping_file");
    INTERN(state_names[S_SLOT], "_slot");
    INTERN(state_names[S_LBM_BLOCK], "lbm_block");
    INTERN(s_pcpns, "pcpns");
    INTERN(s_dram_bytes, "dram_bytes");
    INTERN(s_hit_bytes, "hit_bytes");
    INTERN(s_access_bytes, "access_bytes");
    INTERN(s_lbm_layers, "_lbm_layers");
    INTERN(s_name, "name");
    INTERN(s_layers, "layers");
#undef INTERN
    if ((f_inf = PyFloat_FromDouble(Py_HUGE_VAL)) == NULL ||
        (i_one = PyLong_FromLong(1)) == NULL) {
        return NULL;
    }
    return PyModule_Create(&batchstep_module);
}
