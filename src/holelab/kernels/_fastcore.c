/* Compiled hole-search kernel, written against the CPython C API.

Same algorithm as the pure-Python kernel (see _pycore.py for the full
description): anchored DFS over induced paths, pruned before each push. A
search with no max_len runs the cut (subtree_closes): a flood fill from
the extension's children through the vertices that could grow the path,
which keeps the frame only where it reaches a vertex next to one that
closes a hole. A shortest such route is chordless, so the cut is exact: it
drops just the subtrees that hold no hole, and the stream is unchanged.
Its sets, like every bitset here, are n bits wide, so they live in the
HoleSearch word block. A windowed search runs the completion-feasibility
prune in the same three layers, the BFS, the gate and the chain-contraction
sweep. The kernels differ only in how the contraction is made: the pure
kernel patches the one it kept, and this one builds it afresh for each call
that reaches the sweep. Bitsets are fixed-width word arrays instead of
Python ints. The emitted hole stream is identical to the pure kernel's,
since pruning is sound. The DFS nodes coincide too: both kernels cut the
same frames, superedges are discovered in the same order, both kernels
give the i-th odd superedge subset bit i (for i < MAX_TRACKED_ODD), and
both gate the same residual graphs with the same GATE_RATIO. A gate accept
need not be the sweep's verdict, so the kernels agree node for node only
while they gate alike.

The cut made unwindowed searches smaller: Myc5 (mycielski_iterate 5),
all 5,567,415 holes, 21,327,605 DFS nodes before and 7,949,755 after;
standard_family("random", 60, 8, seed=1), 8,700,984 before and 2,237,787
after. A node budget thus lasts longer there; windowed counts are as
they were.

The kernel only counts; it never raises over a budget. counter[0] holds
the DFS nodes made so far whenever control leaves the kernel, and a search
that makes node budget + 1 stores that count and ends the stream. The
caller (holes.enumerate_holes) reads the overrun off the counter and raises
the budget error, so the module needs no Python package. A budget that is
negative or comes without a counter is refused with ValueError before any
node. min_len, max_len and budget may be ints of any size: they are clamped
as the pure kernel's comparisons treat them.

Build by hand (setup.py does the same through setuptools):

    cc -O2 -shared -fPIC -I<python include dir> _fastcore.c \
        -o _fastcore<EXT_SUFFIX>
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef unsigned long long u64;

#define MAX_TRACKED_ODD 6
#define MAX_RESIDUE_MOD 64
/* The gate's threshold: see GATE_RATIO in _pycore.py for its measurement. */
#define GATE_RATIO 2

#if defined(__GNUC__) || defined(__clang__)
#define popcount64(x) __builtin_popcountll(x)
#define ctz64(x) __builtin_ctzll(x)
#else
static int popcount64(u64 x) { int c = 0; while (x) { x &= x - 1; c++; } return c; }
static int ctz64(u64 x) { int c = 0; while (!(x & 1ULL)) { x >>= 1; c++; } return c; }
#endif

static inline int get_bit(const u64 *w, int v) { return (int)((w[v >> 6] >> (v & 63)) & 1ULL); }
static inline void set_bit(u64 *w, int v) { w[v >> 6] |= 1ULL << (v & 63); }
static inline void clear_bit(u64 *w, int v) { w[v >> 6] &= ~(1ULL << (v & 63)); }

static inline int lowest_bit(const u64 *w, int nw)
{
    for (int i = 0; i < nw; i++)
        if (w[i])
            return (i << 6) + ctz64(w[i]);
    return -1;
}

static inline int any_bit(const u64 *w, int nw)
{
    for (int i = 0; i < nw; i++)
        if (w[i])
            return 1;
    return 0;
}

/* Iterator over the canonical hole stream of one graph. */
typedef struct {
    PyObject_HEAD
    int n, nw, min_len, max_len, anchor, depth, has_max, exhausted;
    long long budget, nodes;     /* budget < 0: unlimited */
    PyObject *counter;           /* counter[0] = nodes at every return, or NULL */
    long long reported;          /* the count last stored in counter[0] */
    u64 *words;                  /* one block holding the u64 arrays below */
    u64 *adj;                    /* n rows of nw words */
    u64 *gt;                     /* vertices greater than the current anchor */
    u64 *ext, *clos, *banned;    /* per-frame extension/closure/banned sets */
    u64 *live, *branch, *scratch;  /* completion-feasibility scratch */
    u64 *seen, *frontier;        /* the prune's BFS layer; frontier also the cut's */
    u64 *region, *target;        /* the cut's flood fill (see subtree_closes) */
    int *ints;                   /* one block holding the int arrays below */
    int *path, *vert_index, *bucket_head;
    int *adj_off, *adj_end, *adj_to, *adj_wt, *adj_odd;  /* CSR over the branch graph */
    int *dist, *bucket_next, *state_of;  /* grown on demand */
    long long dist_cap, pool_cap;
} HoleSearch;

static void hs_dealloc(HoleSearch *s)
{
    PyMem_Free(s->words);
    PyMem_Free(s->ints);
    PyMem_Free(s->dist);
    PyMem_Free(s->bucket_next);  /* state_of shares its block */
    Py_XDECREF(s->counter);
    PyObject_Free(s);
}

static void start_anchor(HoleSearch *s)
{
    int nw = s->nw, a = s->anchor;
    memset(s->gt, 0, nw * sizeof(u64));
    for (int i = a + 1; i < s->n; i++)
        set_bit(s->gt, i);
    s->path[0] = a;
    memset(s->banned, 0, nw * sizeof(u64));
    set_bit(s->banned, a);
    memset(s->clos, 0, nw * sizeof(u64));
    for (int i = 0; i < nw; i++)
        s->ext[i] = s->adj[a * nw + i] & s->gt[i];
    s->depth = 1;
}

static int ensure_state_arrays(HoleSearch *s, long long nstates)
{
    long long pool = 4 * nstates + 64;
    if (nstates > s->dist_cap) {
        PyMem_Free(s->dist);
        s->dist = PyMem_Malloc(nstates * sizeof(int));
        s->dist_cap = s->dist != NULL ? nstates : 0;
    }
    if (pool > s->pool_cap) {
        PyMem_Free(s->bucket_next);
        s->bucket_next = PyMem_Malloc(2 * pool * sizeof(int));
        s->state_of = s->bucket_next != NULL ? s->bucket_next + pool : NULL;
        s->pool_cap = s->bucket_next != NULL ? pool : 0;
    }
    return s->dist_cap >= nstates && s->pool_cap >= pool;
}

/* Is the smallest r >= max(d, lo) with r = d (mod modulus) at most hi? */
static inline int residue_hits(int d, int lo, int hi, int modulus)
{
    return (d < lo ? d + modulus * ((lo - d + modulus - 1) / modulus) : d) <= hi;
}

static int gcd(int a, int b)
{
    while (b) {
        int t = a % b;
        a = b;
        b = t;
    }
    return a;
}

/* Layer 1 of the prune (see _pycore._completion_feasible): a BFS from
   start over live, at most hi levels deep. Returns 0 when the anchor is out
   of reach, 1 when it is first reached at a level >= lo, and -1 when it is
   reached below lo, where only the sweep can tell. These are the sweep's
   own verdicts, so the layer changes no DFS node. */
static int bfs_layer(HoleSearch *s, int start, int lo, int hi)
{
    int nw = s->nw;
    u64 *seen = s->seen, *frontier = s->frontier, *reach = s->scratch;
    memset(seen, 0, nw * sizeof(u64));
    memset(frontier, 0, nw * sizeof(u64));
    set_bit(seen, start);
    set_bit(frontier, start);
    for (int level = 1; level <= hi; level++) {
        memset(reach, 0, nw * sizeof(u64));
        for (int i = 0; i < nw; i++) {
            u64 word = frontier[i];
            while (word) {
                const u64 *row = s->adj + ((i << 6) + ctz64(word)) * nw;
                word &= word - 1;
                for (int t = 0; t < nw; t++)
                    reach[t] |= row[t];
            }
        }
        u64 any = 0;
        for (int i = 0; i < nw; i++) {
            frontier[i] = reach[i] & s->live[i] & ~seen[i];
            seen[i] |= frontier[i];
            any |= frontier[i];
        }
        if (get_bit(frontier, s->anchor))
            return level >= lo ? 1 : -1;
        if (!any)
            return 0;
    }
    return 0;
}

/* Sound test: can a simple path of length in [lo, hi] from start back to
   the current anchor still exist inside `allowed`? The one caller passes
   2 <= lo <= hi. */
static int completion_feasible(HoleSearch *s, const u64 *allowed, int start, int lo, int hi)
{
    int nw = s->nw, anchor = s->anchor, nb = 0, n_live = 0, slots = 0, g = 0, n_odd = 0;
    for (int i = 0; i < nw; i++)
        s->live[i] = allowed[i];
    set_bit(s->live, start);
    set_bit(s->live, anchor);
    int settled = bfs_layer(s, start, lo, hi);
    if (settled >= 0)
        return settled;
    /* branch vertices: residual degree != 2, plus start and anchor; each
       gets one slot per residual edge in the CSR over the branch graph.
       Then the gate: a residual that barely contracts is accepted. */
    memset(s->branch, 0, nw * sizeof(u64));
    for (int i = 0; i < nw; i++) {
        u64 word = s->live[i];
        while (word) {
            int v = (i << 6) + ctz64(word), deg = 0;
            word &= word - 1;
            n_live++;
            for (int w = 0; w < nw; w++)
                deg += popcount64(s->adj[v * nw + w] & s->live[w]);
            if (deg != 2 || v == start || v == anchor) {
                set_bit(s->branch, v);
                s->vert_index[v] = nb;
                s->adj_off[nb] = s->adj_end[nb] = slots;
                slots += deg;
                nb++;
            }
        }
    }
    if (GATE_RATIO * nb > n_live)
        return 1;
    /* contract degree-2 chains into weighted superedges, listed by lower
       end and then by its neighbour; each chain is seen from both ends, keep
       only the lower-endpoint discovery. The i-th odd superedge, for
       i < MAX_TRACKED_ODD, is a tracked use-once resource with subset bit i;
       every other superedge gets -1 and is reusable in the bound. The
       residue modulus comes from the even weights. */
    for (int i = 0; i < nw; i++) {
        u64 branch_word = s->branch[i];
        while (branch_word) {
            int u = (i << 6) + ctz64(branch_word);
            branch_word &= branch_word - 1;
            for (int w = 0; w < nw; w++) {
                u64 word = s->adj[u * nw + w] & s->live[w];
                while (word) {
                    int v = (w << 6) + ctz64(word), prev = u, weight = 1, odd = -1;
                    word &= word - 1;
                    while (!get_bit(s->branch, v)) {
                        for (int t = 0; t < nw; t++)
                            s->scratch[t] = s->adj[v * nw + t] & s->live[t];
                        clear_bit(s->scratch, prev);
                        prev = v;
                        v = lowest_bit(s->scratch, nw);
                        weight++;
                    }
                    if (u >= v)
                        continue;
                    if (weight % 2 == 1)
                        odd = n_odd < MAX_TRACKED_ODD ? n_odd++ : -1;
                    else
                        g = gcd(g, weight);
                    int ends[2] = {s->vert_index[u], s->vert_index[v]};
                    for (int k = 0; k < 2; k++) {
                        int slot = s->adj_end[ends[k]]++;
                        s->adj_to[slot] = ends[1 - k];
                        s->adj_wt[slot] = weight;
                        s->adj_odd[slot] = odd;
                    }
                }
            }
        }
    }
    int modulus = (0 < 2 * g && 2 * g <= MAX_RESIDUE_MOD) ? 2 * g : 2;
    int nstates_per_v = (1 << n_odd) * modulus;
    long long nstates = (long long)nb * nstates_per_v;
    if (!ensure_state_arrays(s, nstates))
        return 1; /* cannot allocate: skip pruning, stays sound */
    /* bucketed shortest-path sweep over (vertex, odd subset, residue);
       every move into the anchor is tested as it is made, so an anchor
       state needs no test once its distance is known */
    for (long long si = 0; si < nstates; si++)
        s->dist[si] = hi + 1;
    for (int i = 0; i < hi + 2; i++)
        s->bucket_head[i] = -1;
    int a_idx = s->vert_index[anchor];
    long long pool = 0;
    int state = s->vert_index[start] * nstates_per_v;
    s->dist[state] = 0;
    s->state_of[pool] = state;
    s->bucket_next[pool] = s->bucket_head[0];
    s->bucket_head[0] = (int)pool;
    pool++;
    for (int d = 0; d <= hi; d++) {
        int i = s->bucket_head[d];
        while (i != -1) {
            state = s->state_of[i];
            i = s->bucket_next[i];
            if (s->dist[state] != d)
                continue;
            int v = state / nstates_per_v;
            int sub = (state % nstates_per_v) / modulus;
            for (int e = s->adj_off[v]; e < s->adj_end[v]; e++) {
                int w = s->adj_to[e], nd = d + s->adj_wt[e];
                if (nd > hi)
                    continue;
                int oddid = s->adj_odd[e], res = sub;
                if (oddid >= 0) {
                    int bit = 1 << oddid;
                    if (sub & bit)
                        continue;
                    res = sub | bit;
                }
                if (w == a_idx && nd >= 2 && residue_hits(nd, lo, hi, modulus))
                    return 1;
                long long si = (long long)w * nstates_per_v + res * modulus + nd % modulus;
                if (nd < s->dist[si]) {
                    s->dist[si] = nd;
                    if (pool >= s->pool_cap)
                        return 1; /* pool overflow: skip pruning, sound */
                    s->state_of[pool] = (int)si;
                    s->bucket_next[pool] = s->bucket_head[nd];
                    s->bucket_head[nd] = (int)pool;
                    pool++;
                }
            }
        }
    }
    return 0;
}

/* The cut of a search with no max_len (see _pycore._closes): is a vertex
   that would close a hole adjacent to one reachable from u's children,
   the ext frame just made at s->depth, through the vertices that could
   extend the path past them? A flood fill that stops at the first such
   vertex; where it finds none, u's subtree holds no hole. */
static int subtree_closes(HoleSearch *s, int u)
{
    int nw = s->nw, first = s->depth >= 2 ? s->path[1] : u;
    const u64 *adj_anchor = s->adj + s->anchor * nw, *adj_u = s->adj + u * nw;
    const u64 *banned = s->banned + s->depth * nw, *children = s->ext + s->depth * nw;
    u64 *frontier = s->frontier, *region = s->region, *target = s->target;
    for (int i = 0; i < nw; i++) {
        u64 grown = s->gt[i] & ~banned[i] & ~adj_u[i];
        frontier[i] = children[i];
        region[i] = grown & ~adj_anchor[i];
        target[i] = grown & adj_anchor[i];
    }
    /* kill reflections: a closing vertex must exceed the second path vertex */
    memset(target, 0, (first >> 6) * sizeof(u64));
    target[first >> 6] &= ~((2ULL << (first & 63)) - 1);
    if (!any_bit(target, nw))
        return 0;
    for (int v; (v = lowest_bit(frontier, nw)) >= 0;) {
        const u64 *row = s->adj + v * nw;
        u64 hit = 0;
        clear_bit(frontier, v);
        for (int i = 0; i < nw; i++) {
            u64 next = row[i] & region[i];
            hit |= row[i] & target[i];
            region[i] ^= next;
            frontier[i] |= next;
        }
        if (hit)
            return 1;
    }
    return 0;
}

/* Store the node count in counter[0]; called wherever control leaves the
   kernel, so the caller can charge the work to its budget. */
static int report_nodes(HoleSearch *s)
{
    if (s->counter == NULL || s->reported == s->nodes)
        return 0;
    PyObject *count = PyLong_FromLongLong(s->nodes);
    if (count == NULL)
        return -1;
    int rc = PySequence_SetItem(s->counter, 0, count);
    Py_DECREF(count);
    if (rc == 0)
        s->reported = s->nodes;
    return rc;
}

static PyObject *hs_next(HoleSearch *s)
{
    int nw = s->nw;
    u64 *cand = s->scratch, *frame;
    if (s->exhausted) {
        report_nodes(s);
        return NULL;
    }
    for (;;) {
        if (s->depth == 0) {
            if (++s->anchor >= s->n) {
                s->exhausted = 1;
                report_nodes(s);
                return NULL;
            }
            start_anchor(s);
            continue;
        }
        int d = s->depth - 1;
        u64 *adj_anchor = s->adj + s->anchor * nw;
        int u = lowest_bit(s->clos + d * nw, nw);
        if (u >= 0) {
            clear_bit(s->clos + d * nw, u);
            if (report_nodes(s) < 0)
                return NULL;
            PyObject *hole = PyTuple_New(s->depth + 1);
            for (int i = 0; hole != NULL && i <= s->depth; i++) {
                PyObject *v = PyLong_FromLong(i < s->depth ? s->path[i] : u);
                if (v == NULL)
                    Py_CLEAR(hole);
                else
                    PyTuple_SET_ITEM(hole, i, v);
            }
            return hole;
        }
        u = lowest_bit(s->ext + d * nw, nw);
        if (u < 0) {
            s->depth--;
            continue;
        }
        clear_bit(s->ext + d * nw, u);
        s->nodes++;
        if (s->budget >= 0 && s->nodes > s->budget) {
            s->exhausted = 1;
            report_nodes(s);
            return NULL;
        }
        int new_depth = s->depth + 1;
        frame = s->banned + s->depth * nw;
        if (s->depth >= 2) {
            const u64 *prev = s->adj + s->path[s->depth - 1] * nw;
            for (int i = 0; i < nw; i++)
                frame[i] = s->banned[d * nw + i] | prev[i];
        } else {
            for (int i = 0; i < nw; i++)
                frame[i] = s->banned[d * nw + i];
        }
        set_bit(frame, u);
        for (int i = 0; i < nw; i++)
            cand[i] = s->adj[u * nw + i] & s->gt[i] & ~frame[i];
        /* closures: candidates adjacent to the anchor, if the resulting
           cycle length lands in the requested window */
        frame = s->clos + s->depth * nw;
        if (new_depth + 1 >= s->min_len && (!s->has_max || new_depth + 1 <= s->max_len)) {
            for (int i = 0; i < nw; i++)
                frame[i] = cand[i] & adj_anchor[i];
            if (s->depth >= 2) {
                /* kill reflections: closing vertex must exceed the second */
                for (int i = 0; i <= s->path[1]; i++)
                    clear_bit(frame, i);
            }
        } else {
            memset(frame, 0, nw * sizeof(u64));
        }
        /* extensions: candidates not adjacent to the anchor */
        frame = s->ext + s->depth * nw;
        if (s->has_max && new_depth + 2 > s->max_len) {
            memset(frame, 0, nw * sizeof(u64));
        } else {
            for (int i = 0; i < nw; i++)
                frame[i] = cand[i] & ~adj_anchor[i];
            if (s->has_max && any_bit(frame, nw)) {
                int edges_used = new_depth - 1;
                int lo = s->min_len - edges_used, hi = s->max_len - edges_used;
                if (lo < 2)
                    lo = 2;
                for (int i = 0; i < nw; i++)
                    s->live[i] = s->gt[i] & ~s->banned[s->depth * nw + i];
                if (!completion_feasible(s, s->live, u, lo, hi))
                    memset(frame, 0, nw * sizeof(u64));
            } else if (!s->has_max && any_bit(frame, nw) && !subtree_closes(s, u)) {
                memset(frame, 0, nw * sizeof(u64));
            }
        }
        if (any_bit(s->clos + s->depth * nw, nw) || any_bit(s->ext + s->depth * nw, nw)) {
            s->path[s->depth] = u;
            s->depth = new_depth;
        }
    }
}

static PyTypeObject HoleSearchType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "holelab.kernels._fastcore.HoleSearch",
    .tp_basicsize = sizeof(HoleSearch),
    .tp_dealloc = (destructor)hs_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Iterator over the canonical hole stream of one graph.",
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = (iternextfunc)hs_next,
};

/* Copy the Python int masks into word rows; returns the number of set bits,
   or -1 with an exception set. */
static long long load_masks(HoleSearch *s, PyObject *masks)
{
    long long bits = 0;
    PyObject *shift = PyLong_FromLong(64);
    for (int v = 0; shift != NULL && v < s->n && !PyErr_Occurred(); v++) {
        PyObject *m = PySequence_GetItem(masks, v);
        for (int i = 0; m != NULL && i < s->nw; i++) {
            u64 word = PyLong_AsUnsignedLongLongMask(m);
            if (word == (u64)-1 && PyErr_Occurred())
                break;
            s->adj[v * s->nw + i] = word;
            bits += popcount64(word);
            Py_SETREF(m, PyNumber_Rshift(m, shift));
        }
        Py_XDECREF(m);
    }
    Py_XDECREF(shift);
    return PyErr_Occurred() ? -1 : bits;
}

/* Read an int argument clamped to [lo, hi], so that one too large for a
   long long reads as hi and one too small as lo, as a Python int compares;
   -1 with an exception set if it is not an int. */
static int clamped(PyObject *arg, long long lo, long long hi, long long *value)
{
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(arg, &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    *value = overflow > 0 || v > hi ? hi : overflow < 0 || v < lo ? lo : v;
    return 0;
}

static PyObject *find_holes(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"adj", "n", "min_len", "max_len", "budget", "counter", NULL};
    PyObject *masks, *min_len = NULL, *max_len = Py_None, *budget = Py_None, *counter = Py_None;
    int n;
    long long lo = 4, hi = -1, limit = -1;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "Oi|OOOO:find_holes", kwlist,
                                     &masks, &n, &min_len, &max_len, &budget, &counter))
        return NULL;
    n = n > 0 ? n : 0;  /* like range(n) in the pure kernel */
    /* no hole is shorter than 4 or longer than the graph; a budget too
       large for a long long is never reached */
    if ((min_len != NULL && clamped(min_len, 4, n + 1LL, &lo) < 0)
        || (max_len != Py_None && clamped(max_len, -1, n, &hi) < 0)
        || (budget != Py_None && clamped(budget, -1, LLONG_MAX, &limit) < 0))
        return NULL;
    if (budget != Py_None && (limit < 0 || counter == Py_None)) {
        PyErr_SetString(PyExc_ValueError, limit < 0 ? "find_holes budget must be nonnegative"
                                                    : "find_holes budget needs a counter");
        return NULL;
    }
    HoleSearch *s = PyObject_New(HoleSearch, &HoleSearchType);
    if (s == NULL)
        return NULL;
    memset((char *)s + sizeof(PyObject), 0, sizeof(HoleSearch) - sizeof(PyObject));
    s->n = n;
    s->nw = n > 0 ? (n + 63) >> 6 : 1;
    s->min_len = (int)lo;
    s->has_max = max_len != Py_None;
    s->max_len = (int)hi;
    s->budget = limit;
    s->anchor = -1;
    s->reported = -1;
    if (counter != Py_None) {
        Py_INCREF(counter);
        s->counter = counter;
    }
    s->exhausted = s->has_max && s->max_len < s->min_len;
    size_t nw = s->nw, rows = n > 0 ? n : 1, cap = n + 2;
    u64 *w = s->words = PyMem_Calloc((rows + 8 + 3 * cap) * nw, sizeof(u64));
    if (w == NULL)
        goto nomem;
    s->adj = w; w += rows * nw;
    s->gt = w; w += nw;
    s->live = w; w += nw;
    s->branch = w; w += nw;
    s->scratch = w; w += nw;
    s->seen = w; w += nw;
    s->frontier = w; w += nw;
    s->region = w; w += nw;
    s->target = w; w += nw;
    s->ext = w; w += cap * nw;
    s->clos = w; w += cap * nw;
    s->banned = w;
    long long bits = load_masks(s, masks);
    if (bits < 0)
        goto fail;
    size_t slots = bits + 1;  /* one CSR slot per adjacency bit */
    int *i = s->ints = PyMem_Malloc((2 * cap + 3 * rows + 3 * slots) * sizeof(int));
    if (i == NULL)
        goto nomem;
    s->path = i; i += cap;
    s->bucket_head = i; i += cap;
    s->vert_index = i; i += rows;
    s->adj_off = i; i += rows;
    s->adj_end = i; i += rows;
    s->adj_to = i; i += slots;
    s->adj_wt = i; i += slots;
    s->adj_odd = i;
    return (PyObject *)s;
nomem:
    PyErr_NoMemory();
fail:
    Py_DECREF(s);
    return NULL;
}

static PyMethodDef fastcore_methods[] = {
    {"find_holes", (PyCFunction)(void (*)(void))find_holes, METH_VARARGS | METH_KEYWORDS,
     "find_holes(adj, n, min_len=4, max_len=None, budget=None, counter=None)\n"
     "--\n\n"
     "Compiled counterpart of the pure kernel's find_holes."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef fastcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_fastcore",
    .m_doc = "Compiled hole-search kernel; same stream as _pycore.",
    .m_size = -1,
    .m_methods = fastcore_methods,
};

PyMODINIT_FUNC PyInit__fastcore(void)
{
    if (PyType_Ready(&HoleSearchType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&fastcore_module);
    if (m != NULL && PyModule_AddStringConstant(m, "IMPLEMENTATION", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
