/* Fused per-event stepping kernel for the fluid engine's batch loop.
 *
 * One call performs what the Python hot path spreads over several
 * functions per event: recompute the demand-proportional bandwidth
 * rates from the remaining-work arrays (mode DEMAND_PROP), find the
 * next event time (min over per-instance completion times, clamped by
 * the wakeup/timeline boundary), drain the fluid work, and report the
 * finished positions.
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
 *
 * (see repro.memory.bwalloc.shares, MultiTenantEngine._recompute_rates
 * and RunningKernel.step).  All
 * operations are IEEE-754 binary64 with correctly-rounded results, so
 * compiling without FP contraction (-ffp-contract=off) and without
 * value-changing optimisations makes the C results identical to
 * CPython's on any conforming host.  The only reduction besides the
 * left-to-right demand total is the event-time min, which is exact in
 * any order.
 *
 * The function is deliberately conservative: any input it is not
 * certain about (a non-float list item, a non-positive demand total)
 * returns None, telling the engine to take the pure-Python path for
 * that event.  The Python and C paths are interchangeable mid-run.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>

#define MODE_STATIC 0
#define MODE_DEMAND_PROP 1
#define MODE_SLACK_WEIGHTED 2
#define MODE_SLACK_THROTTLED 3

/* Stack buffers cover every realistic running-set width; wider sets
 * take one heap allocation per call. */
#define STACK_WIDTH 96

#define FINISH_EPS 1e-9

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

/* fused_step(rem_c, rem_d, rate_c, rate_d, wait_dt, mode,
 *            freq, total_bw, eff, floor
 *            [, sl_arrival, sl_qos, sl_est, sl_progress, now, urgency])
 *   -> (dt, finished_list_or_None) | None
 *
 * rem_c/rem_d are updated in place.  rate_c/rate_d are read only in
 * MODE_STATIC; the dynamic modes derive rates from the remaining work
 * (compute rate == freq for every instance) and do not write them
 * back — the Python engine recomputes rates whenever it leaves the
 * fused path, so the lists never leak stale values.
 *
 * MODE_DEMAND_PROP weighs instances by demand alone.  The 16-argument
 * slack modes read the kernel's per-instance slack inputs (arrival
 * time, QoS target, estimated isolated latency, layer progress):
 * MODE_SLACK_WEIGHTED is AuRORA's exponential slack weighting
 * (bwalloc "slack_weighted"), MODE_SLACK_THROTTLED is MoCA's
 * halve-when-comfortable throttle feeding the demand-proportional
 * split (bwalloc "slack_throttled").
 *
 * Returns None when the inputs fall outside the fast path (non-float
 * items, non-positive demand total); the caller then runs the exact
 * Python equivalent for this event.  dt may be +inf (nothing running,
 * nobody waking: the caller reports the deadlock) or negative (the
 * caller raises, mirroring RunningKernel.step).
 */
static PyObject *
fused_step(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *rem_c_l, *rem_d_l, *rate_c_l, *rate_d_l;
    PyObject *sl_a_l = NULL, *sl_q_l = NULL;
    PyObject *sl_e_l = NULL, *sl_p_l = NULL;
    double wait_dt, freq, total_bw, eff, fl;
    double now_t = 0.0, urgency = 0.0;
    long mode;
    double stack_buf[5 * STACK_WIDTH];
    double *buf = stack_buf;
    double *c, *d, *rc, *rd, *dem;
    double dt, total;
    Py_ssize_t n, i;
    PyObject *finished = NULL, *result;

    if (nargs != 10 && nargs != 16) {
        PyErr_SetString(PyExc_TypeError,
                        "fused_step expects 10 or 16 arguments");
        return NULL;
    }
    rem_c_l = args[0];
    rem_d_l = args[1];
    rate_c_l = args[2];
    rate_d_l = args[3];
    if (!PyList_CheckExact(rem_c_l) || !PyList_CheckExact(rem_d_l) ||
        !PyList_CheckExact(rate_c_l) || !PyList_CheckExact(rate_d_l)) {
        Py_RETURN_NONE;
    }
    wait_dt = PyFloat_AsDouble(args[4]);
    if (wait_dt == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    mode = PyLong_AsLong(args[5]);
    if (mode == -1 && PyErr_Occurred()) {
        return NULL;
    }
    freq = PyFloat_AsDouble(args[6]);
    total_bw = PyFloat_AsDouble(args[7]);
    eff = PyFloat_AsDouble(args[8]);
    fl = PyFloat_AsDouble(args[9]);
    if (PyErr_Occurred()) {
        return NULL;
    }
    if (nargs == 16) {
        sl_a_l = args[10];
        sl_q_l = args[11];
        sl_e_l = args[12];
        sl_p_l = args[13];
        if (!PyList_CheckExact(sl_a_l) || !PyList_CheckExact(sl_q_l) ||
            !PyList_CheckExact(sl_e_l) || !PyList_CheckExact(sl_p_l)) {
            Py_RETURN_NONE;
        }
        now_t = PyFloat_AsDouble(args[14]);
        urgency = PyFloat_AsDouble(args[15]);
        if (PyErr_Occurred()) {
            return NULL;
        }
    }

    n = PyList_GET_SIZE(rem_c_l);
    if (PyList_GET_SIZE(rem_d_l) != n ||
        (mode == MODE_STATIC &&
         (PyList_GET_SIZE(rate_c_l) != n ||
          PyList_GET_SIZE(rate_d_l) != n))) {
        Py_RETURN_NONE;
    }
    if (mode == MODE_SLACK_WEIGHTED || mode == MODE_SLACK_THROTTLED) {
        if (nargs != 16 ||
            PyList_GET_SIZE(sl_a_l) != n ||
            PyList_GET_SIZE(sl_q_l) != n ||
            PyList_GET_SIZE(sl_e_l) != n ||
            PyList_GET_SIZE(sl_p_l) != n) {
            Py_RETURN_NONE;
        }
    }
    if (n > STACK_WIDTH) {
        buf = PyMem_Malloc((size_t)(5 * n) * sizeof(double));
        if (buf == NULL) {
            return PyErr_NoMemory();
        }
    }
    c = buf;
    d = buf + n;
    rc = buf + 2 * n;
    rd = buf + 3 * n;
    dem = buf + 4 * n;

    if (read_doubles(rem_c_l, c, n) < 0 ||
        read_doubles(rem_d_l, d, n) < 0) {
        goto bail_none;
    }

    if (mode == MODE_DEMAND_PROP) {
        /* Demands and their left-to-right total
         * (bwalloc "demand_prop"). */
        total = 0.0;
        for (i = 0; i < n; i++) {
            double t = c[i] / freq;
            double den = t > 1e-9 ? t : 1e-9;
            double num = d[i] > 1.0 ? d[i] : 1.0;
            double demand = num / den;
            dem[i] = demand;
            total += demand;
        }
        if (n > 0 && !(total > 0.0)) {
            /* Unreachable (every demand is positive); the Python path
             * owns this case. */
            goto bail_none;
        }
        {
            /* Share constants (bwalloc.shares: floor_total, base,
             * remaining — same floats for any n). */
            double floor_total = fl * (double)n;
            double base, remaining;
            if (!(floor_total < 1.0)) {
                floor_total = 0.0;
            }
            base = floor_total != 0.0 ? fl : 0.0;
            remaining = 1.0 - floor_total;
            for (i = 0; i < n; i++) {
                /* share, then the engine's rate install:
                 * r = total_bw * share * eff, clamped above 1e-6. */
                double share = base + remaining * (dem[i] / total);
                double r = total_bw * share * eff;
                rc[i] = freq;
                rd[i] = r > 1e-6 ? r : 1e-6;
            }
        }
    }
    else if (mode == MODE_SLACK_WEIGHTED ||
             mode == MODE_SLACK_THROTTLED) {
        /* Weights and their left-to-right total.  Slack transcribes
         * bwalloc._slacks exactly; the demand shape matches
         * MODE_DEMAND_PROP.  Inputs are read per element so a single
         * foreign item bails before any state is touched. */
        total = 0.0;
        for (i = 0; i < n; i++) {
            PyObject *ia = PyList_GET_ITEM(sl_a_l, i);
            PyObject *iq = PyList_GET_ITEM(sl_q_l, i);
            PyObject *ie = PyList_GET_ITEM(sl_e_l, i);
            PyObject *ip = PyList_GET_ITEM(sl_p_l, i);
            double a, q, e, p, t, den, num, demand, slack, w;
            if (!PyFloat_CheckExact(ia) || !PyFloat_CheckExact(iq) ||
                !PyFloat_CheckExact(ie) || !PyFloat_CheckExact(ip)) {
                goto bail_none;
            }
            a = PyFloat_AS_DOUBLE(ia);
            q = PyFloat_AS_DOUBLE(iq);
            e = PyFloat_AS_DOUBLE(ie);
            p = PyFloat_AS_DOUBLE(ip);
            t = c[i] / freq;
            den = t > 1e-9 ? t : 1e-9;
            num = d[i] > 1.0 ? d[i] : 1.0;
            demand = num / den;
            if (isinf(q)) {
                /* No deadline: slack is 1.0. */
                slack = 1.0;
            }
            else {
                double ef = a + (e * (1.0 - p)) + (now_t - a);
                slack = ((a + q) - ef) / q;
            }
            if (mode == MODE_SLACK_THROTTLED) {
                /* MoCA: halve the demand of tasks more than 50 %
                 * ahead of their deadline. */
                if (slack > 0.5) {
                    demand *= 0.5;
                }
                w = demand;
            }
            else {
                /* AuRORA: clamp slack, weigh exponentially
                 * (bwalloc "slack_weighted"). */
                double s2 = slack > -20.0 ? slack : -20.0;
                s2 = s2 < 20.0 ? s2 : 20.0;
                w = (demand > 1.0 ? demand : 1.0)
                    * exp(-urgency * s2);
            }
            dem[i] = w;
            total += w;
        }
        if (n > 0 && !(total > 0.0)) {
            goto bail_none;
        }
        {
            double floor_total = fl * (double)n;
            double base, remaining;
            if (!(floor_total < 1.0)) {
                floor_total = 0.0;
            }
            base = floor_total != 0.0 ? fl : 0.0;
            remaining = 1.0 - floor_total;
            for (i = 0; i < n; i++) {
                /* The two policies group the share expression
                 * differently; both shapes are preserved. */
                double share;
                double r;
                if (mode == MODE_SLACK_THROTTLED) {
                    share = base + remaining * (dem[i] / total);
                }
                else {
                    share = base + remaining * dem[i] / total;
                }
                r = total_bw * share * eff;
                rc[i] = freq;
                rd[i] = r > 1e-6 ? r : 1e-6;
            }
        }
    }
    else {
        if (read_doubles(rate_c_l, rc, n) < 0 ||
            read_doubles(rate_d_l, rd, n) < 0) {
            goto bail_none;
        }
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
        /* inf: idle/deadlock; negative: corrupt state.  Both are the
         * caller's to report; no state was touched. */
        if (buf != stack_buf) {
            PyMem_Free(buf);
        }
        return Py_BuildValue("(dO)", dt, Py_None);
    }

    /* Advance and completion scan (RunningKernel.step). */
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
            if (finished == NULL) {
                finished = PyList_New(0);
                if (finished == NULL) {
                    goto bail_err;
                }
            }
            {
                PyObject *pos = PyLong_FromSsize_t(i);
                int rcode;
                if (pos == NULL) {
                    goto bail_err;
                }
                rcode = PyList_Append(finished, pos);
                Py_DECREF(pos);
                if (rcode < 0) {
                    goto bail_err;
                }
            }
        }
    }

    /* Write the drained work back (the lists stay authoritative). */
    for (i = 0; i < n; i++) {
        PyObject *fc = PyFloat_FromDouble(c[i]);
        PyObject *fd;
        if (fc == NULL) {
            goto bail_err;
        }
        PyList_SetItem(rem_c_l, i, fc);
        fd = PyFloat_FromDouble(d[i]);
        if (fd == NULL) {
            goto bail_err;
        }
        PyList_SetItem(rem_d_l, i, fd);
    }

    if (finished == NULL) {
        result = Py_BuildValue("(dO)", dt, Py_None);
    }
    else {
        result = Py_BuildValue("(dO)", dt, finished);
    }
    Py_XDECREF(finished);
    if (buf != stack_buf) {
        PyMem_Free(buf);
    }
    return result;

bail_none:
    if (buf != stack_buf) {
        PyMem_Free(buf);
    }
    Py_RETURN_NONE;

bail_err:
    Py_XDECREF(finished);
    if (buf != stack_buf) {
        PyMem_Free(buf);
    }
    return NULL;
}

/* ------------------------------------------------------------------ */
/* CaMDN per-completion fast path                                      */
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

/* camdn_advance(tnext, pnext, palloc, slot, now, total_pages,
 *               palloc_sum, lbm_start, lbm_end, layer_index,
 *               region_pages, row, hw_mode, share)
 *   -> (code, new_lbm_start, new_lbm_end) | None
 *
 * One CaMDN layer completion, fused: Algorithm 1's end-of-layer
 * predictor update (DynamicCacheAllocator.end_layer_prepared) plus the
 * next layer's candidate selection (select_prepared, or the HW-only
 * static-split walk) plus the no-resize grant check
 * (CaMDNSystem._try_grant when the selected footprint equals the
 * task's current region).  ``row`` is the *next* layer's precomputed
 * geometry row; ``lbm_start``/``lbm_end`` encode the task's active LBM
 * block (-1/-1 for none); ``layer_index`` is the layer that just ended.
 *
 * The function is pure until the final commit: every bail path (type
 * mismatch, a selection whose footprint differs from the current
 * region, anything touching the resize/denial machinery) returns None
 * with *zero* state mutated, so the caller can rerun the exact Python
 * chain.  On success it writes the slot's tnext/pnext predictions and
 * returns the selection code — full mode: 0 = sticky LBM, 1 = enable
 * LBM at a block head, 2 = single-level lwm[0], 3+i = lwm[i]; HW-only
 * mode: 0 = "hw_lbm_on", 1 = "hw_lbm_keep", 2+i = lwm[i] — along with
 * the task's LBM block after the end-of-block clear and any new
 * enablement.  The palloc write of commit is skipped exactly as the
 * Python path skips it (the grant equals the current allocation).
 */
static PyObject *
camdn_advance(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *tnext_l, *pnext_l, *palloc_l, *row;
    PyObject *unique, *first_of, *last_of, *lwm;
    double now, head_timeout, est, lwm_timeout;
    long slot, total_pages, palloc_sum, lbm_s, lbm_e, layer_index;
    long region_pages, hw_mode, share;
    long lbm_pages, head, blk_s, blk_e;
    long single_level, is_sorted, trivial;
    long palloc_slot, new_pnext, code, pages, sel_enables = 0;
    long m;
    double new_tnext;
    Py_ssize_t n;
    PyObject *ftn, *fpn;

    if (nargs != 14) {
        PyErr_SetString(PyExc_TypeError,
                        "camdn_advance expects exactly 14 arguments");
        return NULL;
    }
    tnext_l = args[0];
    pnext_l = args[1];
    palloc_l = args[2];
    if (!PyList_CheckExact(tnext_l) || !PyList_CheckExact(pnext_l) ||
        !PyList_CheckExact(palloc_l)) {
        Py_RETURN_NONE;
    }
    slot = PyLong_AsLong(args[3]);
    if (slot == -1 && PyErr_Occurred()) {
        return NULL;
    }
    now = PyFloat_AsDouble(args[4]);
    total_pages = PyLong_AsLong(args[5]);
    palloc_sum = PyLong_AsLong(args[6]);
    lbm_s = PyLong_AsLong(args[7]);
    lbm_e = PyLong_AsLong(args[8]);
    layer_index = PyLong_AsLong(args[9]);
    region_pages = PyLong_AsLong(args[10]);
    row = args[11];
    hw_mode = PyLong_AsLong(args[12]);
    share = PyLong_AsLong(args[13]);
    if (PyErr_Occurred()) {
        return NULL;
    }
    if (!PyTuple_CheckExact(row) ||
        PyTuple_GET_SIZE(row) != ROW_WIDTH) {
        Py_RETURN_NONE;
    }

    n = PyList_GET_SIZE(tnext_l);
    if (PyList_GET_SIZE(pnext_l) != n ||
        PyList_GET_SIZE(palloc_l) != n ||
        slot < 0 || slot >= n) {
        Py_RETURN_NONE;
    }

    if (tuple_long(row, ROW_LBM_PAGES, &lbm_pages) < 0 ||
        tuple_long(row, ROW_HEAD, &head) < 0 ||
        tuple_long(row, ROW_BLOCK_START, &blk_s) < 0 ||
        tuple_long(row, ROW_BLOCK_END, &blk_e) < 0 ||
        tuple_long(row, ROW_SINGLE_LEVEL, &single_level) < 0 ||
        tuple_long(row, ROW_IS_SORTED, &is_sorted) < 0 ||
        tuple_long(row, ROW_TRIVIAL, &trivial) < 0) {
        Py_RETURN_NONE;
    }
    {
        PyObject *iht = PyTuple_GET_ITEM(row, ROW_HEAD_TIMEOUT);
        PyObject *ie = PyTuple_GET_ITEM(row, ROW_EST);
        PyObject *ilt = PyTuple_GET_ITEM(row, ROW_LWM_TIMEOUT);
        if (!PyFloat_CheckExact(iht) || !PyFloat_CheckExact(ie) ||
            !PyFloat_CheckExact(ilt)) {
            Py_RETURN_NONE;
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
        Py_RETURN_NONE;
    }

    if (list_long(palloc_l, slot, &palloc_slot) < 0) {
        Py_RETURN_NONE;
    }
    /* _try_grant's no-resize fast path requires the allocator and the
     * region to agree on the task's holding (true between layers). */
    if (palloc_slot != region_pages) {
        Py_RETURN_NONE;
    }

    m = layer_index + 1;  /* the layer being selected (row describes it) */

    /* --- end_layer_prepared for the next layer (computed, not yet
     * written: every later bail must leave no trace). --- */
    new_tnext = now + est;
    if (lbm_s >= 0 && lbm_pages >= 0 && lbm_s <= m && m < lbm_e) {
        new_pnext = lbm_pages;
    }
    else if (single_level) {
        if (PyTuple_GET_SIZE(unique) > 0) {
            long u0;
            if (tuple_long(unique, 0, &u0) < 0) {
                Py_RETURN_NONE;
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
            Py_RETURN_NONE;
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
    if (hw_mode) {
        /* CaMDNSystem._hw_only_decision: equal static split. */
        if (lbm_pages < 0 && trivial) {
            code = 2;
            if (tuple_long(lwm, 0, &pages) < 0) {
                Py_RETURN_NONE;
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
                    Py_RETURN_NONE;
                }
                i = k >= 0 ? (long)k : 0;
            }
            else {
                Py_ssize_t k = bisect_right_tup(unique, share, &err) - 1;
                if (err) {
                    Py_RETURN_NONE;
                }
                if (k < 0) {
                    i = 0;
                }
                else {
                    Py_ssize_t j;
                    long best = 0, v;
                    if (k >= PyTuple_GET_SIZE(last_of)) {
                        Py_RETURN_NONE;
                    }
                    for (j = 0; j <= k; j++) {
                        if (tuple_long(last_of, j, &v) < 0) {
                            Py_RETURN_NONE;
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
                Py_RETURN_NONE;
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
                if (pred_avail(tnext_l, pnext_l, palloc_l, t_ahead,
                               slot, total_pages, palloc_sum,
                               &pa) < 0) {
                    Py_RETURN_NONE;
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
                    Py_RETURN_NONE;
                }
            }
            else {
                double t_ahead = now + lwm_timeout;
                long budget, i;
                int err = 0;
                Py_ssize_t k;
                if (pred_avail(tnext_l, pnext_l, palloc_l, t_ahead,
                               slot, total_pages, palloc_sum,
                               &budget) < 0) {
                    Py_RETURN_NONE;
                }
                budget = budget + palloc_slot;
                /* MCTGeometry.select_index(budget). */
                k = bisect_right_tup(unique, budget, &err) - 1;
                if (err) {
                    Py_RETURN_NONE;
                }
                if (k < 0) {
                    i = 0;
                }
                else {
                    long uk, l0, fk;
                    if (tuple_long(unique, k, &uk) < 0 ||
                        tuple_long(lwm, 0, &l0) < 0) {
                        Py_RETURN_NONE;
                    }
                    if (uk <= l0) {
                        i = 0;
                    }
                    else {
                        if (k >= PyTuple_GET_SIZE(first_of) ||
                            tuple_long(first_of, k, &fk) < 0) {
                            Py_RETURN_NONE;
                        }
                        i = fk;
                    }
                }
                if (i >= PyTuple_GET_SIZE(lwm) ||
                    tuple_long(lwm, i, &pages) < 0) {
                    Py_RETURN_NONE;
                }
                code = 3 + i;
            }
        }
    }

    /* _try_grant: only the no-resize grant is provably equivalent
     * here; anything needing the region machinery goes to Python. */
    if (pages != region_pages) {
        Py_RETURN_NONE;
    }
    if (sel_enables) {
        if (blk_s < 0) {
            /* block_of() would return None for an enabling decision —
             * inconsistent table; let Python handle it. */
            Py_RETURN_NONE;
        }
        lbm_s = blk_s;
        lbm_e = blk_e;
    }

    /* --- commit: the slot's predictor writes (palloc is unchanged by
     * construction, exactly the skipped write in _try_grant). --- */
    ftn = PyFloat_FromDouble(new_tnext);
    if (ftn == NULL) {
        return NULL;
    }
    fpn = PyLong_FromLong(new_pnext);
    if (fpn == NULL) {
        Py_DECREF(ftn);
        return NULL;
    }
    PyList_SetItem(tnext_l, slot, ftn);
    PyList_SetItem(pnext_l, slot, fpn);
    return Py_BuildValue("(lll)", code, lbm_s, lbm_e);
}

static PyMethodDef batchstep_methods[] = {
    {"fused_step", (PyCFunction)(void (*)(void))fused_step,
     METH_FASTCALL,
     "Fused rates-recompute + min-dt + advance for one engine event."},
    {"camdn_advance", (PyCFunction)(void (*)(void))camdn_advance,
     METH_FASTCALL,
     "Fused CaMDN end-of-layer update + next-layer selection + grant."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef batchstep_module = {
    PyModuleDef_HEAD_INIT,
    "_batchstep",
    "Native fused-step kernel for the fluid engine batch loop.",
    -1,
    batchstep_methods,
};

PyMODINIT_FUNC
PyInit__batchstep(void)
{
    return PyModule_Create(&batchstep_module);
}
