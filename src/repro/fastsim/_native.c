/* Compiled cycle-loop engine (the ``native`` backend).
 *
 * A struct-of-arrays, cycle-exact transliteration of
 * ``repro.pipeline.processor.Processor``.  Per-entry objects become flat
 * per-tag arrays and provably dead cycles are fast-forwarded; every
 * observable comparison follows the reference processor, and the
 * cross-backend parity fuzz pins the two byte-for-byte.
 *
 * Parity strategy
 * ---------------
 * All per-tag machine state (status/epoch/operand arrays, scoreboard,
 * event rings + min-heap, ROB/LSQ/frontend rings, rename table, the
 * three true-LRU cache levels) lives in flat C arrays.  The stateful
 * Python components whose internal order matters for bit-parity — the
 * branch unit, the last-arrival predictor + shadow banks, and
 * SimStats.record_wakeup_pair — stay in Python and are driven through
 * five cold-path callbacks at the matching reference call sites:
 *
 *   predict_cb(t)  -> 0 fallthrough-predicted / 1 taken-predicted /
 *                     2 mispredicted (fetch must stall)
 *   resolve_cb(t)  -> 0 no prediction pending / 1 resolved ok /
 *                     2 resolved as mispredict
 *   pair_cb(case, t, j, slack)
 *                  case 1: single-pending-operand arrival (design-bank
 *                  observe + predictor update); case 2: two-arrival
 *                  wakeup pair (record_wakeup_pair + observe + update);
 *                  j is the last-arriving side (-1 = simultaneous)
 *   warmup_cb(stats24)
 *                  flush the 24 window accumulators + reset_window()
 *   ingest_cb()    -> None when the feed is drained, else a tuple of 12
 *                  equal-length int64 buffers (the decode columns) for
 *                  the next chunk of ops; every feed arrives this way
 *
 * The last-arrival predictor's ``_table`` list is read in place
 * (PyList_GET_ITEM on the live list) so predictor updates made inside
 * pair_cb are visible to later dispatches, same as in the reference.
 *
 * Store-to-load forwarding (8-byte line -> newest in-LSQ store) is a
 * backward scan of the LSQ ring: only stores still resident in the LSQ
 * can forward.
 *
 * SimStats counters accumulate in C and are returned to the wrapper
 * (repro/fastsim/native.py), which flushes them into the real SimStats
 * object at the warmup boundary and at the end of the run.  The caches
 * keep only their resident lines in LRU order; nothing is counted there.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define KEY_SHIFT 32
#define TAG_MASK ((((int64_t)1) << KEY_SHIFT) - 1)
#define NEVER (((int64_t)1) << 60)
#define CHUNK 2048

/* ---------------- growable int64 vector ---------------- */

typedef struct {
    int64_t *d;
    Py_ssize_t len, cap;
} Vec;

static int
vec_push(Vec *v, int64_t x)
{
    if (v->len == v->cap) {
        Py_ssize_t nc = v->cap ? v->cap * 2 : 16;
        int64_t *nd = (int64_t *)realloc(v->d, (size_t)nc * sizeof(int64_t));
        if (nd == NULL) {
            return -1;
        }
        v->d = nd;
        v->cap = nc;
    }
    v->d[v->len++] = x;
    return 0;
}

static void
vec_free(Vec *v)
{
    free(v->d);
    v->d = NULL;
    v->len = v->cap = 0;
}

/* list.remove(x): drop the first occurrence, preserving order. */
static void
vec_remove(Vec *v, int64_t x)
{
    Py_ssize_t i;
    for (i = 0; i < v->len; i++) {
        if (v->d[i] == x) {
            memmove(v->d + i, v->d + i + 1,
                    (size_t)(v->len - i - 1) * sizeof(int64_t));
            v->len--;
            return;
        }
    }
}

/* ---------------- int64 min-heap (over a Vec) ---------------- */

static int
heap_push(Vec *h, int64_t key)
{
    if (vec_push(h, key)) {
        return -1;
    }
    Py_ssize_t i = h->len - 1;
    while (i > 0) {
        Py_ssize_t p = (i - 1) >> 1;
        if (h->d[p] <= h->d[i]) {
            break;
        }
        int64_t tmp = h->d[p];
        h->d[p] = h->d[i];
        h->d[i] = tmp;
        i = p;
    }
    return 0;
}

static int64_t
heap_pop(Vec *h)
{
    int64_t top = h->d[0];
    int64_t last = h->d[--h->len];
    if (h->len) {
        Py_ssize_t i = 0;
        for (;;) {
            Py_ssize_t l = 2 * i + 1, r = l + 1, s = i;
            if (l < h->len && h->d[l] < last) {
                s = l;
            }
            if (r < h->len && h->d[r] < (s == i ? last : h->d[l])) {
                s = r;
            }
            if (s == i) {
                break;
            }
            h->d[i] = h->d[s];
            i = s;
        }
        h->d[i] = last;
    }
    return top;
}

/* ---------------- ring-buffer deque ---------------- */

typedef struct {
    int64_t *d;
    Py_ssize_t cap;   /* power of two */
    Py_ssize_t head;  /* index of front, modulo cap */
    Py_ssize_t count;
} Ring;

static int
ring_init(Ring *r, Py_ssize_t min_cap)
{
    Py_ssize_t cap = 16;
    while (cap < min_cap) {
        cap <<= 1;
    }
    r->d = (int64_t *)malloc((size_t)cap * sizeof(int64_t));
    if (r->d == NULL) {
        return -1;
    }
    r->cap = cap;
    r->head = 0;
    r->count = 0;
    return 0;
}

static int
ring_push(Ring *r, int64_t x)
{
    if (r->count == r->cap) {
        Py_ssize_t nc = r->cap * 2;
        int64_t *nd = (int64_t *)malloc((size_t)nc * sizeof(int64_t));
        if (nd == NULL) {
            return -1;
        }
        Py_ssize_t i;
        for (i = 0; i < r->count; i++) {
            nd[i] = r->d[(r->head + i) & (r->cap - 1)];
        }
        free(r->d);
        r->d = nd;
        r->cap = nc;
        r->head = 0;
    }
    r->d[(r->head + r->count) & (r->cap - 1)] = x;
    r->count++;
    return 0;
}

static int64_t
ring_pop(Ring *r)
{
    int64_t x = r->d[r->head & (r->cap - 1)];
    r->head = (r->head + 1) & (r->cap - 1);
    r->count--;
    return x;
}

#define RING_AT(r, i) ((r)->d[((r)->head + (i)) & ((r)->cap - 1)])
#define RING_FRONT(r) ((r)->d[(r)->head & ((r)->cap - 1)])

/* ---------------- true-LRU set-associative cache ----------------
 * Mirror of the per-set OrderedDict in repro.memory.cache.Cache:
 * index 0 of a set is LRU, index len-1 is MRU; a hit moves the line to
 * MRU (move_to_end), a miss inserts at MRU evicting index 0 when the
 * set is full (popitem(last=False)). */

typedef struct {
    int64_t *lines;  /* nsets * assoc */
    uint8_t *len;    /* per-set occupancy */
    int64_t mask;    /* set index mask (nsets - 1) */
    int64_t shift;   /* line shift (log2 line bytes) */
    int assoc;
} CacheC;

static int
cache_init(CacheC *c, int64_t shift, int64_t mask, int64_t assoc)
{
    Py_ssize_t nsets = (Py_ssize_t)mask + 1;
    c->lines = (int64_t *)malloc((size_t)(nsets * assoc) * sizeof(int64_t));
    c->len = (uint8_t *)calloc((size_t)nsets, 1);
    if (c->lines == NULL || c->len == NULL) {
        return -1;
    }
    c->mask = mask;
    c->shift = shift;
    c->assoc = (int)assoc;
    return 0;
}

static void
cache_free(CacheC *c)
{
    free(c->lines);
    free(c->len);
    c->lines = NULL;
    c->len = NULL;
}

/* Returns 1 on hit; on miss inserts the line (dropping the LRU victim of
 * a full set) and returns 0. */
static int
cache_access(CacheC *c, int64_t line)
{
    int64_t set = line & c->mask;
    int64_t *base = c->lines + set * c->assoc;
    int n = c->len[set];
    int i;
    for (i = 0; i < n; i++) {
        if (base[i] == line) {
            for (; i < n - 1; i++) {
                base[i] = base[i + 1];
            }
            base[n - 1] = line;
            return 1;
        }
    }
    if (n >= c->assoc) {
        for (i = 0; i < n - 1; i++) {
            base[i] = base[i + 1];
        }
        base[n - 1] = line;
    }
    else {
        base[n] = line;
        c->len[set] = (uint8_t)(n + 1);
    }
    return 0;
}

/* ---------------- engine context ---------------- */

typedef struct {
    /* per-tag mutable struct-of-arrays (cap entries; operand arrays
     * hold 2*cap, flat index = 2*tag + op_index) */
    int64_t *st, *epoch, *elig, *inrd, *issue_c, *replays, *nops, *rai,
        *rec, *fastside, *rfcat, *mdt, *mdr, *fwd, *fill_c, *cmp_c,
        *cmp_ep;
    int64_t *o_tag, *o_rdy, *o_rai, *o_rc, *o_arr;
    int64_t *sb_alive, *sb_valid, *sb_bc;
    Vec *cons;          /* per-tag encoded consumer lists */
    Py_ssize_t cap;

    /* per-tag decode columns + stamped config tables */
    int64_t *ocls, *pc, *ctrl, *load, *store, *nop, *dest, *ndeps,
        *dep0, *dep1, *addr, *faddr;
    int64_t *rkey, *latv, *poolv, *npipe;
    Py_ssize_t n_cols;  /* ops ingested so far */

    /* config scalars */
    int64_t width, ruu_size, lsq_size, front_depth, exec_offset,
        agen_lat, assumed, spec_window, detect, watchdog, ring_size,
        ring_mask;
    int seq_mode, tag_elim_mode, sequential_rf, crossbar_rf,
        fast_now_only, non_selective, half_rename, half_bypass;
    int64_t fu_counts[5];

    /* per-opclass tables (stamped per tag at ingest) */
    const int64_t *tab_rank, *tab_pool, *tab_npipe, *tab_lat;
    Py_ssize_t n_opclass;

    /* predictor fast path (read in place; pair_cb mutates the list) */
    PyObject *p_tab;
    int64_t p_mask, p_mid;

    /* caches + latencies */
    CacheC il1, dl1, l2;
    int64_t il1_lat, dl1_lat, l2_lat, mem_lat;

    /* event rings + gating min-heap */
    Vec *k_buckets, *sw_buckets, *b_buckets, *c_buckets;
    Vec ev_heap;

    /* machine state */
    int64_t now;
    int64_t *rename_tbl;        /* arch reg -> tag, -1 = architectural */
    Vec ready;
    Vec ready_snap;             /* select-phase sorted snapshot */
    Ring fr_arr, fr_tag, rob, lsq;
    Py_ssize_t n_tags;
    int feed_done;
    int64_t pending_tag, fetch_resume, fetch_blocked, last_fetch_line;
    int64_t total_committed, last_commit;
    int64_t fu_cycle, fu_issued[5];
    Vec fu_busy[5];
    int64_t bubble_cycle, bubble_n;

    /* stat accumulators (flushed through warmup_cb / the result) */
    int64_t s_cycles, s_fetched, s_dispatched, s_two_src;
    int64_t s_rai0, s_rai1, s_rai2;
    int64_t s_committed, s_issued, s_branches, s_mispred;
    int64_t s_replayed, s_lmr, s_rename_stalls;
    int64_t s_seq_rf, s_dbl, s_seq_slow, s_te;
    int64_t s_rf_two, s_rf_b2b, s_rf_nb;
    int64_t s_simul, s_lap, s_lamp;

    /* callbacks (borrowed refs; the argument tuple outlives the run) */
    PyObject *predict_cb, *resolve_cb, *pair_cb, *warmup_cb, *ingest_cb;

    int nomem;  /* set by infallible-signature helpers on OOM */
} Ctx;

/* ---------------- memory hierarchy ---------------- */

/* MemoryHierarchy._access: look *addr* up in *l1*, then in the unified
 * L2, filling every level it misses.  Returns the access latency
 * (l1 [+ l2 [+ memory]]) and sets *l1_hit. */
static int64_t
mem_access(Ctx *c, CacheC *l1, int64_t l1_lat, int64_t addr, int *l1_hit)
{
    *l1_hit = cache_access(l1, addr >> l1->shift);
    if (*l1_hit) {
        return l1_lat;
    }
    if (cache_access(&c->l2, addr >> c->l2.shift)) {
        return l1_lat + c->l2_lat;
    }
    return l1_lat + c->l2_lat + c->mem_lat;
}

/* ---------------- event scheduling ---------------- */

static void
ev_sched(Ctx *c, Vec *buckets, int ringno, int64_t cyc,
         const int64_t *fields, int nf)
{
    Vec *b = &buckets[cyc & c->ring_mask];
    int i;
    if (b->len == 0) {
        if (heap_push(&c->ev_heap, (cyc << 2) | ringno)) {
            c->nomem = 1;
            return;
        }
    }
    for (i = 0; i < nf; i++) {
        if (vec_push(b, fields[i])) {
            c->nomem = 1;
            return;
        }
    }
}

/* ---------------- readiness / replay cascade ---------------- */

static int
entry_ready(Ctx *c, int64_t t)
{
    if (!c->mdr[t]) {
        return 0;
    }
    int64_t n = c->nops[t];
    if (c->tag_elim_mode && n == 2 && c->replays[t] == 0) {
        /* speculative: only the connected comparator decides */
        return c->o_rdy[(t << 1) + c->fastside[t]] == 1;
    }
    if (n == 0) {
        return 1;
    }
    int64_t b = t << 1;
    if (!c->o_rdy[b]) {
        return 0;
    }
    return n == 1 || c->o_rdy[b + 1] == 1;
}

static void squash(Ctx *c, int64_t t);

static void
maybe_ready(Ctx *c, int64_t t)
{
    if (c->st[t] == 0 && !c->inrd[t] && c->mdr[t] && entry_ready(c, t)) {
        c->inrd[t] = 1;
        if (vec_push(&c->ready, c->rkey[t])) {
            c->nomem = 1;
        }
    }
}

static void
invalidate_tag(Ctx *c, int64_t tag)
{
    /* Scoreboard.invalidate + the processor's consumer cascade. */
    if (!c->sb_alive[tag]) {
        return;
    }
    c->sb_valid[tag] = 0;
    c->sb_bc[tag] = -1;
    Vec *lst = &c->cons[tag];
    Py_ssize_t i;
    for (i = 0; i < lst->len; i++) {
        int64_t enc = lst->d[i];
        int64_t ct = enc >> 2;
        int64_t j = (enc & 3) - 1;
        if (j < 0) {
            if (c->mdt[ct] == tag && c->mdr[ct]) {
                c->mdr[ct] = 0;
                if (c->st[ct] == 1 &&
                    (c->cmp_ep[ct] != c->epoch[ct] ||
                     c->cmp_c[ct] > c->now)) {
                    squash(c, ct);
                }
            }
            continue;
        }
        int64_t oi = (ct << 1) + j;
        if (c->o_rdy[oi] && c->o_tag[oi] == tag) {
            c->o_rdy[oi] = 0;
            c->o_rc[oi] = -1;
            if (c->st[ct] == 1 &&
                (c->cmp_ep[ct] != c->epoch[ct] ||
                 c->cmp_c[ct] > c->now)) {
                squash(c, ct);
            }
            else if (c->inrd[ct]) {
                vec_remove(&c->ready, c->rkey[ct]);
                c->inrd[ct] = 0;
            }
        }
    }
}

static void
squash(Ctx *c, int64_t t)
{
    c->s_replayed++;
    /* reset_for_replay: drop ready bits whose broadcast died */
    c->st[t] = 0;
    c->issue_c[t] = -1;
    c->replays[t]++;
    int64_t b = t << 1;
    int64_t j;
    for (j = 0; j < c->nops[t]; j++) {
        int64_t i = b + j;
        int64_t pt = c->o_tag[i];
        if (c->o_rdy[i] && pt != -1 && c->sb_alive[pt] &&
            !c->sb_valid[pt]) {
            c->o_rdy[i] = 0;
            c->o_rc[i] = -1;
        }
    }
    c->epoch[t]++;
    c->elig[t] = c->now + 1;
    invalidate_tag(c, t);
    maybe_ready(c, t);
}

/* ---------------- cold-path callbacks ---------------- */

/* _maybe_record_wakeup_pair (callers pre-check rec/nops).  Returns -1 if
 * the Python callback raised. */
static int
record_pair(Ctx *c, int64_t t)
{
    int64_t b = t << 1;
    int64_t n_rai = c->rai[t];
    int64_t j, slack, pair_case;
    if (n_rai == 1) {
        j = c->o_rai[b] ? 1 : 0;  /* the operand pending at insert */
        if (c->o_arr[b + j] == -1) {
            return 0;
        }
        c->rec[t] = 1;
        c->s_lap++;
        if (c->fastside[t] != j) {
            c->s_lamp++;
        }
        slack = 0;
        pair_case = 1;
    }
    else if (n_rai != 0) {
        return 0;
    }
    else {
        int64_t a0 = c->o_arr[b];
        int64_t a1 = c->o_arr[b + 1];
        if (a0 == -1 || a1 == -1) {
            return 0;
        }
        c->rec[t] = 1;
        slack = a0 - a1;
        if (slack < 0) {
            slack = -slack;
        }
        if (slack == 0) {
            j = -1;  /* simultaneous: no last side */
            c->s_simul++;
        }
        else {
            j = a0 > a1 ? 0 : 1;
            c->s_lap++;
            if (c->fastside[t] != j) {
                c->s_lamp++;
            }
        }
        pair_case = 2;
    }
    PyObject *r = PyObject_CallFunction(
        c->pair_cb, "LLLL", (long long)pair_case, (long long)t,
        (long long)j, (long long)slack);
    if (r == NULL) {
        return -1;
    }
    Py_DECREF(r);
    return 0;
}

static int
resolve_branch(Ctx *c, int64_t t)
{
    PyObject *r = PyObject_CallFunction(c->resolve_cb, "L", (long long)t);
    if (r == NULL) {
        return -1;
    }
    long code = PyLong_AsLong(r);
    Py_DECREF(r);
    if (code == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (code == 0) {
        return 0;  /* no prediction pending (re-resolved after squash) */
    }
    c->s_branches++;
    if (code == 2) {
        c->s_mispred++;
    }
    if (c->fetch_blocked == t) {
        /* fetch stalls were <= now when the block was set, so the
         * reference's max(stalled, now + 1) is exactly now + 1 */
        c->fetch_blocked = -1;
        c->fetch_resume = c->now + 1;
        c->last_fetch_line = -1;
    }
    return 0;
}

static void
process_kill(Ctx *c, int64_t rt, int64_t kep, int64_t win_s, int64_t win_e,
             int64_t sq_root)
{
    if (c->epoch[rt] != kep) {
        return;  /* the root was itself squashed; this shadow is void */
    }
    if (!sq_root) {
        c->s_lmr++;
    }
    invalidate_tag(c, rt);
    if (sq_root && c->st[rt] == 1 &&
        (c->cmp_ep[rt] != c->epoch[rt] || c->cmp_c[rt] > c->now)) {
        squash(c, rt);
    }
    if (win_s != -1) {
        Py_ssize_t i;
        for (i = 0; i < c->rob.count; i++) {
            int64_t ct = RING_AT(&c->rob, i);
            if (c->st[ct] == 1 && ct != rt && win_s <= c->issue_c[ct] &&
                c->issue_c[ct] <= win_e &&
                (c->cmp_ep[ct] != c->epoch[ct] || c->cmp_c[ct] > c->now)) {
                squash(c, ct);
            }
        }
    }
}

/* ---------------- per-tag array growth ---------------- */

static int64_t *
grow_i64(int64_t *p, Py_ssize_t old_n, Py_ssize_t new_n, int64_t fill)
{
    int64_t *np = (int64_t *)realloc(p, (size_t)new_n * sizeof(int64_t));
    Py_ssize_t i;
    if (np == NULL) {
        return NULL;
    }
    for (i = old_n; i < new_n; i++) {
        np[i] = fill;
    }
    return np;
}

/* Grow every per-tag state and column array so that tags < need are
 * addressable, filling each array with its default value.  Capacity
 * starts at CHUNK and doubles, so a long feed pays a logarithmic number
 * of reallocs. */
static int
ensure_cap(Ctx *c, Py_ssize_t need)
{
    if (need <= c->cap) {
        return 0;
    }
    Py_ssize_t nc = c->cap ? c->cap : CHUNK;
    while (nc < need) {
        nc *= 2;
    }
#define GROW1(field, fill)                                          \
    do {                                                            \
        int64_t *np_ = grow_i64(c->field, c->cap, nc, (fill));      \
        if (np_ == NULL) {                                          \
            return -1;                                              \
        }                                                           \
        c->field = np_;                                             \
    } while (0)
#define GROW2(field, fill)                                          \
    do {                                                            \
        int64_t *np_ = grow_i64(c->field, 2 * c->cap, 2 * nc,       \
                                (fill));                            \
        if (np_ == NULL) {                                          \
            return -1;                                              \
        }                                                           \
        c->field = np_;                                             \
    } while (0)
    GROW1(st, 0);
    GROW1(epoch, 0);
    GROW1(elig, 0);
    GROW1(inrd, 0);
    GROW1(issue_c, -1);
    GROW1(replays, 0);
    GROW1(nops, 0);
    GROW1(rai, 0);
    GROW1(rec, 0);
    GROW1(fastside, 1);
    GROW1(rfcat, 0);
    GROW1(mdt, -1);
    GROW1(mdr, 1);
    GROW1(fwd, 0);
    GROW1(fill_c, -1);
    GROW1(cmp_c, -1);
    GROW1(cmp_ep, 0);
    GROW1(sb_alive, 0);
    GROW1(sb_valid, 0);
    GROW1(sb_bc, -1);
    GROW2(o_tag, -1);
    GROW2(o_rdy, 0);
    GROW2(o_rai, 0);
    GROW2(o_rc, -1);
    GROW2(o_arr, -1);
    {
        Vec *ncons = (Vec *)realloc(c->cons, (size_t)nc * sizeof(Vec));
        if (ncons == NULL) {
            return -1;
        }
        memset(ncons + c->cap, 0,
               (size_t)(nc - c->cap) * sizeof(Vec));
        c->cons = ncons;
    }
    GROW1(ocls, 0);
    GROW1(pc, 0);
    GROW1(ctrl, 0);
    GROW1(load, 0);
    GROW1(store, 0);
    GROW1(nop, 0);
    GROW1(dest, 0);
    GROW1(ndeps, 0);
    GROW1(dep0, 0);
    GROW1(dep1, 0);
    GROW1(addr, 0);
    GROW1(faddr, 0);
    GROW1(rkey, 0);
    GROW1(latv, 0);
    GROW1(poolv, 0);
    GROW1(npipe, 0);
#undef GROW1
#undef GROW2
    c->cap = nc;
    return 0;
}

/* Pull the next chunk of decode columns from the wrapper's ingest
 * callback.  Returns the number of ops appended, 0 on feed exhaustion,
 * -1 on error. */
static Py_ssize_t
ingest_chunk(Ctx *c)
{
    PyObject *r = PyObject_CallNoArgs(c->ingest_cb);
    if (r == NULL) {
        return -1;
    }
    if (r == Py_None) {
        Py_DECREF(r);
        return 0;
    }
    if (!PyTuple_Check(r) || PyTuple_GET_SIZE(r) != 12) {
        Py_DECREF(r);
        PyErr_SetString(PyExc_TypeError,
                        "ingest callback must return None or a 12-tuple");
        return -1;
    }
    Py_buffer bufs[12];
    Py_ssize_t n = -1;
    int nbufs = 0, k;
    for (k = 0; k < 12; k++) {
        if (PyObject_GetBuffer(PyTuple_GET_ITEM(r, k), &bufs[k],
                               PyBUF_SIMPLE)) {
            goto fail;
        }
        nbufs++;
        if (bufs[k].len % (Py_ssize_t)sizeof(int64_t)) {
            PyErr_SetString(PyExc_ValueError,
                            "ingest column must hold int64 items");
            goto fail;
        }
        Py_ssize_t ln = bufs[k].len / (Py_ssize_t)sizeof(int64_t);
        if (n == -1) {
            n = ln;
        }
        else if (ln != n) {
            PyErr_SetString(PyExc_ValueError,
                            "ingest columns disagree on length");
            goto fail;
        }
    }
    if (n > 0) {
        if (ensure_cap(c, c->n_cols + n)) {
            PyErr_NoMemory();
            goto fail;
        }
        int64_t *cols[12] = {
            c->ocls, c->pc, c->ctrl, c->load, c->store, c->nop,
            c->dest, c->ndeps, c->dep0, c->dep1, c->addr, c->faddr,
        };
        Py_ssize_t i;
        for (k = 0; k < 12; k++) {
            memcpy(cols[k] + c->n_cols, bufs[k].buf,
                   (size_t)n * sizeof(int64_t));
        }
        for (i = 0; i < n; i++) {
            int64_t t = c->n_cols + i;
            int64_t oc = c->ocls[t];
            if (oc < 0 || oc >= (int64_t)c->n_opclass) {
                PyErr_SetString(PyExc_ValueError,
                                "op class index out of range");
                goto fail;
            }
            c->rkey[t] = (c->tab_rank[oc] << KEY_SHIFT) | t;
            c->latv[t] = c->tab_lat[oc];
            c->poolv[t] = c->tab_pool[oc];
            c->npipe[t] = c->tab_npipe[oc];
        }
        c->n_cols += n;
    }
    for (k = 0; k < nbufs; k++) {
        PyBuffer_Release(&bufs[k]);
    }
    Py_DECREF(r);
    return n;
fail:
    for (k = 0; k < nbufs; k++) {
        PyBuffer_Release(&bufs[k]);
    }
    Py_DECREF(r);
    return -1;
}

/* ---------------- argument unpacking helpers ---------------- */

static int
seq_i64(PyObject *seq, Py_ssize_t i, int64_t *out)
{
    PyObject *it = PySequence_GetItem(seq, i);
    if (it == NULL) {
        return -1;
    }
    long long v = PyLong_AsLongLong(it);
    Py_DECREF(it);
    if (v == -1 && PyErr_Occurred()) {
        return -1;
    }
    *out = (int64_t)v;
    return 0;
}

static int64_t *
seq_to_i64(PyObject *seq, Py_ssize_t *n_out)
{
    Py_ssize_t n = PySequence_Size(seq);
    if (n < 0) {
        return NULL;
    }
    int64_t *arr = (int64_t *)malloc((size_t)(n ? n : 1) * sizeof(int64_t));
    if (arr == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    Py_ssize_t i;
    for (i = 0; i < n; i++) {
        if (seq_i64(seq, i, arr + i)) {
            free(arr);
            return NULL;
        }
    }
    *n_out = n;
    return arr;
}

static int
cmp_i64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* ---------------- the run loop ---------------- */

static PyObject *
native_run(PyObject *self, PyObject *args)
{
    PyObject *scalars, *fu_obj, *geom, *tables, *p_tab, *cbs;
    long long max_insts_ll, warmup_ll;
    if (!PyArg_ParseTuple(args, "OOOOOOLL", &scalars, &fu_obj, &geom,
                          &tables, &p_tab, &cbs, &max_insts_ll,
                          &warmup_ll)) {
        return NULL;
    }

    Ctx cx;
    memset(&cx, 0, sizeof cx);
    Ctx *c = &cx;
    int64_t *tab_alloc[4] = {NULL, NULL, NULL, NULL};
    PyObject *result = NULL;
    int status = 0;       /* 0 ok / 1 watchdog / 2 ring-horizon */
    int64_t head_tag = -1;
    int64_t num_arch = 0;
    int k;

    /* -- scalars ------------------------------------------------- */
    {
        int64_t s[22];
        int i;
        if (!PyTuple_Check(scalars) || PyTuple_GET_SIZE(scalars) != 22) {
            PyErr_SetString(PyExc_TypeError, "scalars must be a 22-tuple");
            return NULL;
        }
        for (i = 0; i < 22; i++) {
            if (seq_i64(scalars, i, s + i)) {
                return NULL;
            }
        }
        c->width = s[0];
        c->ruu_size = s[1];
        c->lsq_size = s[2];
        c->front_depth = s[3];
        c->exec_offset = s[4];
        c->agen_lat = s[5];
        c->assumed = s[6];
        c->spec_window = s[7];
        c->detect = s[8];
        c->seq_mode = (int)s[9];
        c->tag_elim_mode = (int)s[10];
        c->sequential_rf = (int)s[11];
        c->crossbar_rf = (int)s[12];
        c->fast_now_only = (int)s[13];
        c->non_selective = (int)s[14];
        c->half_rename = (int)s[15];
        c->half_bypass = (int)s[16];
        c->watchdog = s[17];
        c->ring_size = s[18];
        num_arch = s[19];
        c->p_mask = s[20];
        c->p_mid = s[21];
        c->ring_mask = c->ring_size - 1;
    }
    {
        int i;
        for (i = 0; i < 5; i++) {
            if (seq_i64(fu_obj, i, c->fu_counts + i)) {
                return NULL;
            }
        }
    }
    c->p_tab = p_tab;
    if (!PyList_Check(p_tab)) {
        PyErr_SetString(PyExc_TypeError, "predictor table must be a list");
        return NULL;
    }

    /* -- callbacks (borrowed from the cbs tuple) ------------------ */
    if (!PyTuple_Check(cbs) || PyTuple_GET_SIZE(cbs) != 5) {
        PyErr_SetString(PyExc_TypeError, "callbacks must be a 5-tuple");
        return NULL;
    }
    c->predict_cb = PyTuple_GET_ITEM(cbs, 0);
    c->resolve_cb = PyTuple_GET_ITEM(cbs, 1);
    c->pair_cb = PyTuple_GET_ITEM(cbs, 2);
    c->warmup_cb = PyTuple_GET_ITEM(cbs, 3);
    c->ingest_cb = PyTuple_GET_ITEM(cbs, 4);

    /* -- caches --------------------------------------------------- */
    {
        int64_t g[13];
        int i;
        for (i = 0; i < 13; i++) {
            if (seq_i64(geom, i, g + i)) {
                return NULL;
            }
        }
        if (cache_init(&c->il1, g[0], g[1], g[2]) ||
            cache_init(&c->dl1, g[3], g[4], g[5]) ||
            cache_init(&c->l2, g[6], g[7], g[8])) {
            PyErr_NoMemory();
            goto cleanup;
        }
        c->il1_lat = g[9];
        c->dl1_lat = g[10];
        c->l2_lat = g[11];
        c->mem_lat = g[12];
    }

    /* -- per-opclass tables --------------------------------------- */
    {
        Py_ssize_t n0 = 0, nn = 0;
        for (k = 0; k < 4; k++) {
            tab_alloc[k] = seq_to_i64(PyTuple_GET_ITEM(tables, k), &nn);
            if (tab_alloc[k] == NULL) {
                goto cleanup;
            }
            if (k == 0) {
                n0 = nn;
            }
            else if (nn != n0) {
                PyErr_SetString(PyExc_ValueError,
                                "opclass tables disagree on length");
                goto cleanup;
            }
        }
        c->tab_rank = tab_alloc[0];
        c->tab_pool = tab_alloc[1];
        c->tab_npipe = tab_alloc[2];
        c->tab_lat = tab_alloc[3];
        c->n_opclass = n0;
    }

    /* -- per-tag state (columns arrive through ingest_chunk) ------ */
    if (ensure_cap(c, CHUNK)) {
        PyErr_NoMemory();
        goto cleanup;
    }

    /* -- event rings, machine state ------------------------------- */
    c->k_buckets = (Vec *)calloc((size_t)c->ring_size, sizeof(Vec));
    c->sw_buckets = (Vec *)calloc((size_t)c->ring_size, sizeof(Vec));
    c->b_buckets = (Vec *)calloc((size_t)c->ring_size, sizeof(Vec));
    c->c_buckets = (Vec *)calloc((size_t)c->ring_size, sizeof(Vec));
    c->rename_tbl = (int64_t *)malloc((size_t)num_arch * sizeof(int64_t));
    if (c->k_buckets == NULL || c->sw_buckets == NULL ||
        c->b_buckets == NULL || c->c_buckets == NULL ||
        c->rename_tbl == NULL) {
        PyErr_NoMemory();
        goto cleanup;
    }
    {
        Py_ssize_t i;
        for (i = 0; i < num_arch; i++) {
            c->rename_tbl[i] = -1;
        }
    }
    if (ring_init(&c->fr_arr, 64) || ring_init(&c->fr_tag, 64) ||
        ring_init(&c->rob, c->ruu_size + 1) ||
        ring_init(&c->lsq, c->lsq_size + 1)) {
        PyErr_NoMemory();
        goto cleanup;
    }
    c->pending_tag = -1;
    c->fetch_resume = 0;
    c->fetch_blocked = -1;
    c->last_fetch_line = -1;
    c->fu_cycle = -1;
    c->bubble_cycle = -1;

    /* ============================================================ */
    {
        const int64_t width = c->width;
        const int64_t max_insts = (int64_t)max_insts_ll;
        const int64_t warmup = (int64_t)warmup_ll;
        const int64_t budget = max_insts + warmup;
        int measured_started = warmup == 0;
        int64_t now = 0;

        for (;;) {
            now++;
            c->now = now;

            /* ---- phase 1: event delivery ------------------------ */
            int64_t ev_hi = (now << 2) | 3;
            if (c->ev_heap.len && c->ev_heap.d[0] <= ev_hi) {
                int64_t idx = now & c->ring_mask;
                while (c->ev_heap.len && c->ev_heap.d[0] <= ev_hi) {
                    int ring = (int)(heap_pop(&c->ev_heap) & 3);
                    if (ring == 2) {
                        Vec *bkt = &c->b_buckets[idx];
                        Py_ssize_t n0 = bkt->len, i;
                        for (i = 0; i < n0; i += 2) {
                            int64_t pt = bkt->d[i];
                            int64_t pep = bkt->d[i + 1];
                            if (c->epoch[pt] != pep || !c->sb_alive[pt]) {
                                continue;
                            }
                            c->sb_bc[pt] = now;
                            c->sb_valid[pt] = 1;
                            Vec *clist = &c->cons[pt];
                            Py_ssize_t ci;
                            for (ci = 0; ci < clist->len; ci++) {
                                int64_t enc = clist->d[ci];
                                int64_t ct = enc >> 2;
                                int64_t j = (enc & 3) - 1;
                                if (j < 0) {
                                    if (c->mdt[ct] == pt && !c->mdr[ct]) {
                                        c->mdr[ct] = 1;
                                        if (c->st[ct] == 0 &&
                                            !c->inrd[ct] &&
                                            entry_ready(c, ct)) {
                                            c->inrd[ct] = 1;
                                            if (vec_push(&c->ready,
                                                         c->rkey[ct])) {
                                                c->nomem = 1;
                                            }
                                        }
                                    }
                                    continue;
                                }
                                int64_t oi = (ct << 1) + j;
                                if (c->o_tag[oi] != pt) {
                                    continue;
                                }
                                if (c->o_arr[oi] == -1) {
                                    c->o_arr[oi] = now;
                                    if (!c->rec[ct] && c->nops[ct] == 2) {
                                        if (record_pair(c, ct)) {
                                            goto cleanup;
                                        }
                                    }
                                }
                                if (c->o_rdy[oi]) {
                                    continue;
                                }
                                if (c->seq_mode && c->nops[ct] == 2 &&
                                    j != c->fastside[ct]) {
                                    /* slow-bus delivery, one cycle later */
                                    int64_t f[3] = {ct, j, pt};
                                    ev_sched(c, c->sw_buckets, 1, now + 1,
                                             f, 3);
                                }
                                else {
                                    c->o_rdy[oi] = 1;
                                    c->o_rc[oi] = now;
                                    if (c->st[ct] == 0 && !c->inrd[ct] &&
                                        entry_ready(c, ct)) {
                                        c->inrd[ct] = 1;
                                        if (vec_push(&c->ready,
                                                     c->rkey[ct])) {
                                            c->nomem = 1;
                                        }
                                    }
                                }
                            }
                        }
                        if (bkt->len > n0) {
                            memmove(bkt->d, bkt->d + n0,
                                    (size_t)(bkt->len - n0) *
                                        sizeof(int64_t));
                            bkt->len -= n0;
                        }
                        else {
                            bkt->len = 0;
                        }
                    }
                    else if (ring == 3) {
                        /* only control instructions get completion
                         * events; everything else completes lazily */
                        Vec *bkt = &c->c_buckets[idx];
                        Py_ssize_t n0 = bkt->len, i;
                        for (i = 0; i + 1 < n0 + 1; i += 2) {
                            int64_t t = bkt->d[i];
                            int64_t ep = bkt->d[i + 1];
                            if (c->epoch[t] == ep && c->st[t] == 1) {
                                c->st[t] = 2;  /* _complete */
                                if (resolve_branch(c, t)) {
                                    goto cleanup;
                                }
                            }
                        }
                        if (bkt->len > n0) {
                            memmove(bkt->d, bkt->d + n0,
                                    (size_t)(bkt->len - n0) *
                                        sizeof(int64_t));
                            bkt->len -= n0;
                        }
                        else {
                            bkt->len = 0;
                        }
                    }
                    else if (ring == 0) {
                        Vec *bkt = &c->k_buckets[idx];
                        Py_ssize_t n0 = bkt->len, i;
                        for (i = 0; i + 4 < n0 + 4; i += 5) {
                            process_kill(c, bkt->d[i], bkt->d[i + 1],
                                         bkt->d[i + 2], bkt->d[i + 3],
                                         bkt->d[i + 4]);
                        }
                        if (bkt->len > n0) {
                            memmove(bkt->d, bkt->d + n0,
                                    (size_t)(bkt->len - n0) *
                                        sizeof(int64_t));
                            bkt->len -= n0;
                        }
                        else {
                            bkt->len = 0;
                        }
                    }
                    else {
                        Vec *bkt = &c->sw_buckets[idx];
                        Py_ssize_t n0 = bkt->len, i;
                        for (i = 0; i + 2 < n0 + 2; i += 3) {
                            /* _deliver_slow */
                            int64_t ct = bkt->d[i];
                            int64_t j = bkt->d[i + 1];
                            int64_t pt = bkt->d[i + 2];
                            int64_t oi = (ct << 1) + j;
                            if (c->o_rdy[oi] || c->o_tag[oi] != pt) {
                                continue;
                            }
                            if (c->sb_alive[pt] && !c->sb_valid[pt]) {
                                continue;  /* invalidated meanwhile */
                            }
                            c->o_rdy[oi] = 1;
                            c->o_rc[oi] = now;
                            if (c->st[ct] == 0 && !c->inrd[ct] &&
                                entry_ready(c, ct)) {
                                c->inrd[ct] = 1;
                                if (vec_push(&c->ready, c->rkey[ct])) {
                                    c->nomem = 1;
                                }
                            }
                        }
                        if (bkt->len > n0) {
                            memmove(bkt->d, bkt->d + n0,
                                    (size_t)(bkt->len - n0) *
                                        sizeof(int64_t));
                            bkt->len -= n0;
                        }
                        else {
                            bkt->len = 0;
                        }
                    }
                }
            }

            /* ---- phase 2: wakeup/select (atomic) — issue -------- */
            if (c->ready.len) {
                if (c->fu_cycle != now) {
                    /* begin_cycle, deferred */
                    int pi;
                    c->fu_cycle = now;
                    for (pi = 0; pi < 5; pi++) {
                        c->fu_issued[pi] = 0;
                        Vec *busy = &c->fu_busy[pi];
                        if (busy->len) {
                            Py_ssize_t w = 0, r;
                            for (r = 0; r < busy->len; r++) {
                                if (busy->d[r] > now) {
                                    busy->d[w++] = busy->d[r];
                                }
                            }
                            busy->len = w;
                        }
                    }
                }
                int64_t avail = width -
                    (c->bubble_cycle == now ? c->bubble_n : 0);
                int64_t rf_ports_used = 0;
                /* sorted(ready) snapshot */
                c->ready_snap.len = 0;
                {
                    Py_ssize_t i;
                    for (i = 0; i < c->ready.len; i++) {
                        if (vec_push(&c->ready_snap, c->ready.d[i])) {
                            c->nomem = 1;
                        }
                    }
                }
                qsort(c->ready_snap.d, (size_t)c->ready_snap.len,
                      sizeof(int64_t), cmp_i64);
                Py_ssize_t si;
                for (si = 0; si < c->ready_snap.len; si++) {
                    if (avail <= 0) {
                        break;
                    }
                    int64_t key = c->ready_snap.d[si];
                    int64_t t = key & TAG_MASK;
                    if (c->st[t] != 0 || c->elig[t] > now) {
                        continue;
                    }
                    /* entry_ready, inlined */
                    int64_t n = c->nops[t];
                    int64_t b = t << 1;
                    int is_rdy;
                    if (!c->mdr[t]) {
                        is_rdy = 0;
                    }
                    else if (c->tag_elim_mode && n == 2 &&
                             c->replays[t] == 0) {
                        is_rdy = c->o_rdy[b + c->fastside[t]] == 1;
                    }
                    else if (n == 0) {
                        is_rdy = 1;
                    }
                    else if (!c->o_rdy[b]) {
                        is_rdy = 0;
                    }
                    else {
                        is_rdy = n == 1 || c->o_rdy[b + 1] == 1;
                    }
                    if (!is_rdy) {
                        /* stale ready-set entry (un-woken by a replay) */
                        vec_remove(&c->ready, key);
                        c->inrd[t] = 0;
                        continue;
                    }
                    int64_t pool = c->poolv[t];
                    if (c->fu_issued[pool] + c->fu_busy[pool].len >=
                        c->fu_counts[pool]) {
                        continue;
                    }
                    if (c->crossbar_rf) {
                        int64_t needed = 0;
                        int64_t j;
                        for (j = 0; j < n; j++) {
                            int64_t oi = b + j;
                            if (!(c->o_rdy[oi] && c->o_rc[oi] == now &&
                                  !c->o_rai[oi])) {
                                needed++;
                            }
                        }
                        if (rf_ports_used + needed > width) {
                            continue;
                        }
                        rf_ports_used += needed;
                    }
                    int seq_access = 0;
                    if (c->sequential_rf && n >= 2) {
                        int has_now = 0;
                        int64_t j;
                        for (j = 0; j < n; j++) {
                            if (c->fast_now_only && j != c->fastside[t]) {
                                continue;  /* nowR removed (combined) */
                            }
                            int64_t oi = b + j;
                            if (c->o_rdy[oi] && c->o_rc[oi] == now &&
                                !c->o_rai[oi]) {
                                has_now = 1;
                                break;
                            }
                        }
                        seq_access = !has_now;
                    }
                    /* take_slot + fu.issue */
                    avail--;
                    if (seq_access) {
                        int64_t nb = now + 1;
                        if (c->bubble_cycle == nb) {
                            c->bubble_n++;
                        }
                        else {
                            c->bubble_cycle = nb;
                            c->bubble_n = 1;
                        }
                    }
                    c->fu_issued[pool]++;
                    if (c->npipe[t]) {
                        if (vec_push(&c->fu_busy[pool],
                                     now + c->latv[t])) {
                            c->nomem = 1;
                        }
                    }
                    /* ---- _issue (inlined) ---- */
                    vec_remove(&c->ready, key);
                    c->inrd[t] = 0;
                    c->st[t] = 1;
                    c->issue_c[t] = now;
                    int64_t ep = c->epoch[t] + 1;
                    c->epoch[t] = ep;
                    c->s_issued++;
                    if (n == 2) {
                        /* _record_issue_stats */
                        int64_t r0 = c->o_rai[b];
                        int64_t r1 = c->o_rai[b + 1];
                        if (r0 && r1) {
                            c->rfcat[t] = 1;
                        }
                        else if ((c->o_rdy[b] && c->o_rc[b] == now &&
                                  !r0) ||
                                 (c->o_rdy[b + 1] &&
                                  c->o_rc[b + 1] == now && !r1)) {
                            c->rfcat[t] = 2;
                        }
                        else {
                            c->rfcat[t] = 3;
                        }
                        if (c->seq_mode) {
                            int64_t oi = b + 1 - c->fastside[t];
                            if (c->o_rc[oi] == now && !c->o_rai[oi]) {
                                c->s_seq_slow++;
                            }
                        }
                        if (c->tag_elim_mode) {
                            /* verify_at_issue */
                            int64_t oi = b + 1 - c->fastside[t];
                            if (!c->o_rai[oi]) {
                                int64_t pt = c->o_tag[oi];
                                if (!(c->o_rdy[oi] &&
                                      (pt == -1 || !c->sb_alive[pt] ||
                                       c->sb_valid[pt]))) {
                                    c->s_te++;
                                    int64_t kc = now + c->detect;
                                    int64_t f[5] = {t, ep, now, kc - 1, 1};
                                    ev_sched(c, c->k_buckets, 0, kc, f, 5);
                                }
                            }
                        }
                    }
                    if (c->load[t]) {
                        /* _issue_load */
                        if (c->fill_c[t] == -1) {
                            int64_t actual_mem;
                            if (c->fwd[t]) {
                                actual_mem = c->dl1_lat;  /* SQ data */
                            }
                            else {  /* MemoryHierarchy.load */
                                int l1_hit;
                                actual_mem = mem_access(c, &c->dl1,
                                                        c->dl1_lat,
                                                        c->addr[t],
                                                        &l1_hit);
                            }
                            c->fill_c[t] = now + c->agen_lat + actual_mem;
                        }
                        int64_t assumed_cycle = now + c->assumed;
                        int64_t fill = c->fill_c[t];
                        {
                            /* broadcast at the assumed-hit time
                             * (speculative when the data is late) */
                            int64_t f[2] = {t, ep};
                            ev_sched(c, c->b_buckets, 2, assumed_cycle,
                                     f, 2);
                        }
                        if (fill <= assumed_cycle) {
                            /* data arrives within the assumed-hit
                             * schedule */
                            c->cmp_c[t] = assumed_cycle +
                                c->exec_offset - c->agen_lat;
                            c->cmp_ep[t] = ep;
                            continue;
                        }
                        /* latency mispredict: kill after the
                         * resolution shadow, rebroadcast at fill */
                        int64_t kc = assumed_cycle + c->spec_window;
                        if (c->non_selective) {
                            int64_t f[5] = {t, ep, assumed_cycle, kc - 1,
                                            0};
                            ev_sched(c, c->k_buckets, 0, kc, f, 5);
                        }
                        else {
                            int64_t f[5] = {t, ep, -1, 0, 0};
                            ev_sched(c, c->k_buckets, 0, kc, f, 5);
                        }
                        int64_t rebroadcast =
                            fill > kc + 1 ? fill : kc + 1;
                        if (rebroadcast - now > c->ring_size) {
                            status = 2;
                            goto done;
                        }
                        {
                            int64_t f[2] = {t, ep};
                            ev_sched(c, c->b_buckets, 2, rebroadcast,
                                     f, 2);
                        }
                        int64_t cc = fill + c->exec_offset - c->agen_lat;
                        if (cc < rebroadcast) {
                            cc = rebroadcast;
                        }
                        c->cmp_c[t] = cc;
                        c->cmp_ep[t] = ep;
                        continue;
                    }
                    int64_t latency = c->latv[t];
                    if (seq_access) {
                        latency += 1;
                        c->s_seq_rf++;
                    }
                    if (c->half_bypass && n == 2) {
                        if ((c->o_rdy[b] && c->o_rc[b] == now &&
                             !c->o_rai[b]) &&
                            (c->o_rdy[b + 1] && c->o_rc[b + 1] == now &&
                             !c->o_rai[b + 1])) {
                            latency += 1;
                            c->s_dbl++;
                        }
                    }
                    int64_t bc = now + latency;
                    if (latency > c->ring_size) {
                        status = 2;
                        goto done;
                    }
                    {
                        int64_t f[2] = {t, ep};
                        ev_sched(c, c->b_buckets, 2, bc, f, 2);
                    }
                    if (c->ctrl[t]) {
                        /* completes via an exact-cycle event */
                        c->cmp_ep[t] = -1;
                        int64_t cc = bc + c->exec_offset;
                        int64_t f[2] = {t, ep};
                        ev_sched(c, c->c_buckets, 3, cc, f, 2);
                    }
                    else {
                        c->cmp_c[t] = bc + c->exec_offset;
                        c->cmp_ep[t] = ep;
                    }
                }
            }

            /* ---- phase 3: dispatch ------------------------------ */
            if (c->fr_arr.count && RING_FRONT(&c->fr_arr) <= now) {
                int64_t dispatched = 0;
                int64_t rename_tokens = c->half_rename ? width : NEVER;
                while (c->fr_arr.count && RING_FRONT(&c->fr_arr) <= now &&
                       dispatched < width) {
                    int64_t t = RING_FRONT(&c->fr_tag);
                    if (c->rob.count >= c->ruu_size) {
                        break;
                    }
                    int64_t is_load = c->load[t];
                    int64_t is_mem = is_load || c->store[t];
                    if (is_mem && c->lsq.count >= c->lsq_size) {
                        break;
                    }
                    int64_t nop = c->nop[t];
                    if (c->half_rename && !nop) {
                        int64_t needed = c->ndeps[t];
                        if (needed < 1) {
                            needed = 1;
                        }
                        if (needed > rename_tokens) {
                            c->s_rename_stalls++;
                            break;
                        }
                        rename_tokens -= needed;
                    }
                    ring_pop(&c->fr_arr);
                    ring_pop(&c->fr_tag);
                    /* ---- _insert (inlined) ---- */
                    if (nop) {
                        c->st[t] = 2;
                        if (ring_push(&c->rob, t)) {
                            c->nomem = 1;
                        }
                        c->s_dispatched++;
                    }
                    else {
                        int64_t b = t << 1;
                        int64_t nsrc = 0;
                        int64_t n_rai = 0;
                        int64_t kk;
                        for (kk = 0; kk < c->ndeps[t]; kk++) {
                            /* _rename_sources */
                            int64_t arch =
                                kk == 0 ? c->dep0[t] : c->dep1[t];
                            int64_t oi = b + nsrc;
                            nsrc++;
                            int64_t pt = c->rename_tbl[arch];
                            if (pt == -1 || !c->sb_alive[pt]) {
                                /* architectural value */
                                c->o_rdy[oi] = 1;
                                c->o_rai[oi] = 1;
                                n_rai++;
                            }
                            else if (c->sb_valid[pt] &&
                                     c->sb_bc[pt] != -1 &&
                                     c->sb_bc[pt] <= now) {
                                /* ready at insert */
                                c->o_tag[oi] = pt;
                                c->o_rdy[oi] = 1;
                                c->o_rai[oi] = 1;
                                n_rai++;
                            }
                            else {
                                c->o_tag[oi] = pt;
                            }
                        }
                        c->nops[t] = nsrc;
                        c->rai[t] = n_rai;
                        c->sb_alive[t] = 1;  /* Scoreboard.allocate */
                        int64_t j;
                        for (j = 0; j < nsrc; j++) {
                            int64_t pt = c->o_tag[b + j];
                            if (pt != -1 && c->sb_alive[pt]) {
                                if (vec_push(&c->cons[pt],
                                             (t << 2) | (j + 1))) {
                                    c->nomem = 1;
                                }
                            }
                        }
                        int64_t dest = c->dest[t];
                        if (dest >= 0) {
                            c->rename_tbl[dest] = t;
                        }
                        if (nsrc == 2) {
                            /* assign_sides: predicted-last == fast side
                             * (fastside defaults to RIGHT) */
                            PyObject *pv = PyList_GET_ITEM(
                                c->p_tab,
                                (Py_ssize_t)(c->pc[t] & c->p_mask));
                            long v = PyLong_AsLong(pv);
                            if (v == -1 && PyErr_Occurred()) {
                                goto cleanup;
                            }
                            if (v <= c->p_mid) {
                                c->fastside[t] = 0;
                            }
                        }
                        c->elig[t] = now + 1;
                        if (ring_push(&c->rob, t)) {
                            c->nomem = 1;
                        }
                        if (is_mem) {
                            if (is_load) {
                                /* _setup_load_forwarding: newest
                                 * in-LSQ store to the 8-byte line */
                                int64_t line8 = c->addr[t] & -8;
                                int64_t best = -1;
                                Py_ssize_t li;
                                for (li = c->lsq.count - 1; li >= 0;
                                     li--) {
                                    int64_t s2 = RING_AT(&c->lsq, li);
                                    if (c->store[s2] &&
                                        (c->addr[s2] & -8) == line8) {
                                        best = s2;
                                        break;
                                    }
                                }
                                if (best != -1) {
                                    c->fwd[t] = 1;
                                    if (c->st[best] == 0) {
                                        c->mdt[t] = best;
                                        c->mdr[t] = 0;
                                        if (vec_push(&c->cons[best],
                                                     t << 2)) {
                                            c->nomem = 1;
                                        }
                                    }
                                }
                            }
                            if (ring_push(&c->lsq, t)) {
                                c->nomem = 1;
                            }
                        }
                        /* dispatch tallies */
                        c->s_dispatched++;
                        if (nsrc == 2) {
                            c->s_two_src++;
                            if (n_rai == 0) {
                                c->s_rai0++;
                            }
                            else if (n_rai == 1) {
                                c->s_rai1++;
                            }
                            else {
                                c->s_rai2++;
                            }
                        }
                        /* _maybe_ready (fresh entry) */
                        if (c->mdr[t]) {
                            int is_rdy;
                            if (c->tag_elim_mode && nsrc == 2) {
                                is_rdy =
                                    c->o_rdy[b + c->fastside[t]] == 1;
                            }
                            else if (nsrc == 0) {
                                is_rdy = 1;
                            }
                            else if (!c->o_rdy[b]) {
                                is_rdy = 0;
                            }
                            else {
                                is_rdy = nsrc == 1 ||
                                    c->o_rdy[b + 1] == 1;
                            }
                            if (is_rdy) {
                                c->inrd[t] = 1;
                                if (vec_push(&c->ready, c->rkey[t])) {
                                    c->nomem = 1;
                                }
                            }
                        }
                    }
                    dispatched++;
                }
            }

            /* ---- phase 4: fetch --------------------------------- */
            if (now >= c->fetch_resume) {
                int64_t arrive = now + c->front_depth;
                int64_t fetched = 0;
                while (fetched < width) {
                    int64_t t = c->pending_tag;
                    if (t == -1) {
                        t = (int64_t)c->n_tags;
                        if (t < (int64_t)c->n_cols) {
                            /* columns already ingested */
                            c->n_tags = (Py_ssize_t)(t + 1);
                            c->pending_tag = t;
                        }
                        else {
                            Py_ssize_t got = ingest_chunk(c);
                            if (got < 0) {
                                goto cleanup;
                            }
                            if (got == 0) {
                                c->feed_done = 1;
                                c->fetch_resume = NEVER;
                                break;
                            }
                            c->n_tags = (Py_ssize_t)(t + 1);
                            c->pending_tag = t;
                        }
                    }
                    int64_t line = c->faddr[t] >> c->il1.shift;
                    if (line != c->last_fetch_line) {
                        /* MemoryHierarchy.fetch */
                        int l1_hit;
                        int64_t lat = mem_access(c, &c->il1, c->il1_lat,
                                                 c->faddr[t], &l1_hit);
                        c->last_fetch_line = line;
                        if (!l1_hit) {
                            c->fetch_resume = now + lat;
                            break;
                        }
                    }
                    c->pending_tag = -1;
                    c->s_fetched++;
                    fetched++;
                    if (ring_push(&c->fr_arr, arrive) ||
                        ring_push(&c->fr_tag, t)) {
                        c->nomem = 1;
                    }
                    if (c->ctrl[t]) {
                        /* _fetch_control */
                        PyObject *r = PyObject_CallFunction(
                            c->predict_cb, "L", (long long)t);
                        if (r == NULL) {
                            goto cleanup;
                        }
                        long code = PyLong_AsLong(r);
                        Py_DECREF(r);
                        if (code == -1 && PyErr_Occurred()) {
                            goto cleanup;
                        }
                        if (code == 2) {
                            /* mispredict: stall until resolution */
                            c->fetch_blocked = t;
                            c->fetch_resume = NEVER;
                            break;
                        }
                        if (code == 1) {
                            break;  /* stop at the first taken branch */
                        }
                    }
                }
            }

            /* ---- phase 5: commit -------------------------------- */
            if (c->rob.count) {
                int64_t committed_n = 0;
                while (committed_n < width && c->rob.count) {
                    int64_t t = RING_FRONT(&c->rob);
                    int64_t hs = c->st[t];
                    if (hs != 2 &&
                        !(hs == 1 && c->cmp_ep[t] == c->epoch[t] &&
                          c->cmp_c[t] <= now)) {
                        break;
                    }
                    ring_pop(&c->rob);
                    if (c->store[t]) {
                        /* MemoryHierarchy.store (write-allocate); LSQ
                         * leaves in program order, so the head is the
                         * committing op */
                        int l1_hit;
                        ring_pop(&c->lsq);
                        mem_access(c, &c->dl1, c->dl1_lat, c->addr[t],
                                   &l1_hit);
                    }
                    else if (c->load[t]) {
                        ring_pop(&c->lsq);
                    }
                    int64_t dest = c->dest[t];
                    if (dest >= 0 && c->rename_tbl[dest] == t) {
                        c->rename_tbl[dest] = -1;
                    }
                    c->sb_alive[t] = 0;  /* Scoreboard.free */
                    c->cons[t].len = 0;  /* cons[t] = None */
                    int64_t rc = c->rfcat[t];
                    if (rc) {
                        if (rc == 1) {
                            c->s_rf_two++;
                        }
                        else if (rc == 2) {
                            c->s_rf_b2b++;
                        }
                        else {
                            c->s_rf_nb++;
                        }
                    }
                    c->s_committed++;
                    c->total_committed++;
                    c->last_commit = now;
                    committed_n++;
                }
            }

            /* ---- bookkeeping and loop exits --------------------- */
            c->s_cycles++;
            if (c->nomem) {
                PyErr_NoMemory();
                goto cleanup;
            }
            if (!measured_started && c->total_committed >= warmup) {
                PyObject *st24 = Py_BuildValue(
                    "(LLLLLLLLLLLLLLLLLLLLLLLL)",
                    (long long)c->s_cycles, (long long)c->s_fetched,
                    (long long)c->s_dispatched, (long long)c->s_two_src,
                    (long long)c->s_rai0, (long long)c->s_rai1,
                    (long long)c->s_rai2, (long long)c->s_committed,
                    (long long)c->s_issued, (long long)c->s_branches,
                    (long long)c->s_mispred, (long long)c->s_replayed,
                    (long long)c->s_lmr, (long long)c->s_rename_stalls,
                    (long long)c->s_seq_rf, (long long)c->s_dbl,
                    (long long)c->s_seq_slow, (long long)c->s_te,
                    (long long)c->s_rf_two, (long long)c->s_rf_b2b,
                    (long long)c->s_rf_nb, (long long)c->s_simul,
                    (long long)c->s_lap, (long long)c->s_lamp);
                if (st24 == NULL) {
                    goto cleanup;
                }
                PyObject *r =
                    PyObject_CallFunction(c->warmup_cb, "O", st24);
                Py_DECREF(st24);
                if (r == NULL) {
                    goto cleanup;
                }
                Py_DECREF(r);
                c->s_cycles = c->s_fetched = c->s_dispatched =
                    c->s_two_src = 0;
                c->s_rai0 = c->s_rai1 = c->s_rai2 = 0;
                c->s_committed = c->s_issued = c->s_branches =
                    c->s_mispred = 0;
                c->s_replayed = c->s_lmr = c->s_rename_stalls = 0;
                c->s_seq_rf = c->s_dbl = c->s_seq_slow = c->s_te = 0;
                c->s_rf_two = c->s_rf_b2b = c->s_rf_nb = 0;
                c->s_simul = c->s_lap = c->s_lamp = 0;
                measured_started = 1;
            }
            if (c->total_committed >= budget) {
                break;
            }
            if (c->feed_done && !c->fr_arr.count && !c->rob.count) {
                break;
            }
            if (now - c->last_commit > c->watchdog) {
                status = 1;
                goto done;
            }

            /* ---- fast-forward over provably dead cycles --------- */
            if (c->ready.len == 0 &&
                (!c->rob.count || c->st[RING_FRONT(&c->rob)] != 2) &&
                (!c->fr_arr.count || RING_FRONT(&c->fr_arr) > now + 1) &&
                c->fetch_resume > now + 1) {
                int64_t target = c->last_commit + c->watchdog + 1;
                if (c->rob.count) {
                    int64_t h = RING_FRONT(&c->rob);
                    if (c->st[h] == 1 && c->cmp_ep[h] == c->epoch[h]) {
                        int64_t cc = c->cmp_c[h];
                        if (cc < target) {
                            target = cc;
                        }
                    }
                }
                if (c->fr_arr.count) {
                    int64_t cc = RING_FRONT(&c->fr_arr);
                    if (cc < target) {
                        target = cc;
                    }
                }
                if (c->fetch_resume < target) {
                    target = c->fetch_resume;
                }
                if (c->ev_heap.len) {
                    int64_t cc = c->ev_heap.d[0] >> 2;
                    if (cc < target) {
                        target = cc;
                    }
                }
                if (target > now + 1) {
                    c->s_cycles += target - now - 1;
                    now = target - 1;
                }
            }
        }
        c->now = now;
    }

done:
    if (status == 1) {
        head_tag = c->rob.count ? RING_FRONT(&c->rob) : -1;
    }
    result = Py_BuildValue(
        "(iLLL(LLLLLLLLLLLLLLLLLLLLLLLL))",
        status, (long long)c->now, (long long)c->total_committed,
        (long long)head_tag,
        (long long)c->s_cycles, (long long)c->s_fetched,
        (long long)c->s_dispatched, (long long)c->s_two_src,
        (long long)c->s_rai0, (long long)c->s_rai1,
        (long long)c->s_rai2, (long long)c->s_committed,
        (long long)c->s_issued, (long long)c->s_branches,
        (long long)c->s_mispred, (long long)c->s_replayed,
        (long long)c->s_lmr, (long long)c->s_rename_stalls,
        (long long)c->s_seq_rf, (long long)c->s_dbl,
        (long long)c->s_seq_slow, (long long)c->s_te,
        (long long)c->s_rf_two, (long long)c->s_rf_b2b,
        (long long)c->s_rf_nb, (long long)c->s_simul,
        (long long)c->s_lap, (long long)c->s_lamp);

cleanup:
    {
        Py_ssize_t i;
        free(c->st);
        free(c->epoch);
        free(c->elig);
        free(c->inrd);
        free(c->issue_c);
        free(c->replays);
        free(c->nops);
        free(c->rai);
        free(c->rec);
        free(c->fastside);
        free(c->rfcat);
        free(c->mdt);
        free(c->mdr);
        free(c->fwd);
        free(c->fill_c);
        free(c->cmp_c);
        free(c->cmp_ep);
        free(c->o_tag);
        free(c->o_rdy);
        free(c->o_rai);
        free(c->o_rc);
        free(c->o_arr);
        free(c->sb_alive);
        free(c->sb_valid);
        free(c->sb_bc);
        if (c->cons != NULL) {
            for (i = 0; i < c->cap; i++) {
                vec_free(&c->cons[i]);
            }
            free(c->cons);
        }
        free(c->ocls);
        free(c->pc);
        free(c->ctrl);
        free(c->load);
        free(c->store);
        free(c->nop);
        free(c->dest);
        free(c->ndeps);
        free(c->dep0);
        free(c->dep1);
        free(c->addr);
        free(c->faddr);
        free(c->rkey);
        free(c->latv);
        free(c->poolv);
        free(c->npipe);
        if (c->k_buckets != NULL) {
            for (i = 0; i < c->ring_size; i++) {
                vec_free(&c->k_buckets[i]);
            }
            free(c->k_buckets);
        }
        if (c->sw_buckets != NULL) {
            for (i = 0; i < c->ring_size; i++) {
                vec_free(&c->sw_buckets[i]);
            }
            free(c->sw_buckets);
        }
        if (c->b_buckets != NULL) {
            for (i = 0; i < c->ring_size; i++) {
                vec_free(&c->b_buckets[i]);
            }
            free(c->b_buckets);
        }
        if (c->c_buckets != NULL) {
            for (i = 0; i < c->ring_size; i++) {
                vec_free(&c->c_buckets[i]);
            }
            free(c->c_buckets);
        }
        vec_free(&c->ev_heap);
        vec_free(&c->ready);
        vec_free(&c->ready_snap);
        for (i = 0; i < 5; i++) {
            vec_free(&c->fu_busy[i]);
        }
        free(c->rename_tbl);
        free(c->fr_arr.d);
        free(c->fr_tag.d);
        free(c->rob.d);
        free(c->lsq.d);
        cache_free(&c->il1);
        cache_free(&c->dl1);
        cache_free(&c->l2);
        for (k = 0; k < 4; k++) {
            free(tab_alloc[k]);
        }
    }
    return result;
}

/* ---------------- module ---------------- */

static PyMethodDef native_methods[] = {
    {"run", native_run, METH_VARARGS,
     "Run the compiled cycle loop; see repro/fastsim/native.py."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "repro.fastsim._native",
    "Compiled cycle-loop engine (the native backend).",
    -1,
    native_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    PyObject *m = PyModule_Create(&native_module);
    if (m == NULL) {
        return NULL;
    }
    /* Bumped whenever the run() wire protocol changes; the wrapper
     * refuses to drive a stale prebuilt artifact. */
    if (PyModule_AddIntConstant(m, "ABI_VERSION", 4)) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
