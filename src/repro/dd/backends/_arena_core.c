/* Native core of the arena DD engine (repro.dd.backends.arena).
 *
 * Implements make_vedge, vadd, the multiply_mv recursion, the inner
 * product, the rebuild of an approximation round and the whole-diagram
 * sweeps (node_count, vnodes, norm_contributions), and on the matrix
 * side make_medge, madd and the multiply_mm recursion, directly on the
 * arena's own Python structures: the unique tables `_vtable` and
 * `_mtable`, the node lists `_v_nodes` and `_m_nodes`, the compute
 * caches `_vadd_cache`, `_mv_cache`, `_inner_cache`, `_madd_cache` and
 * `_mm_cache`, the `_vcount_cache` memo, `stats` and `_cache_counts`.
 * Keys and values are the same Python objects the pure-Python engine
 * stored, so reclaim, the DDSan audit and serialization read them
 * unchanged.  Built on first use by repro.dd.backends.native.
 *
 * The record: `_v_record` is a bytearray holding one Rec (level and two
 * child ids, 12 bytes) per `_v_nodes` slot, appended here whenever a
 * node is interned and renumbered by compact_record after a reclaim.
 * Nodes are immutable once interned, so it never needs a sync step; the
 * sweeps walk it instead of chasing node, edge and index objects.  A
 * child that is not a slot of the arena is recorded as REC_FOREIGN, and
 * a sweep that meets one returns None so the caller can run the generic
 * traversal.
 *
 * Float contract: every complex operation calls CPython's own _Py_c_*
 * helper with the operands in the order the Python expression has them,
 * a float operand widened to (x, 0.0) as CPython 3.10-3.12 do, so each
 * result is bit-for-bit the reference engine's.  Bucketing replicates
 * float.__round__ and snapping follows ctable.snap_boxed branch for
 * branch.  The file must be built with -ffp-contract=off and without
 * fast-math (the loader's flags).
 *
 * Lifetime rule: within one top-level call every arena node is held by
 * `_v_nodes` or `_m_nodes` (reclaim only runs at the Python safe point
 * before multiply_mv), so the recursion passes nodes as borrowed pointers.
 * Nodes that come out of a cache or the unique table without being
 * arena slots are pinned for the call, because a cache flush could
 * otherwise free them mid-recursion.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <errno.h>
#include <math.h>
#include <stdint.h>

/* An edge inside the recursion: the weight as a C complex, the child as
 * a borrowed pointer (NULL is the terminal). */
typedef struct {
    Py_complex w;
    PyObject *n;
} Edge;

/* One `_v_record` entry: the node's level and its children's ids. */
typedef struct {
    int32_t level;
    int32_t child[2];
} Rec;

/* Child ids that are not slots: the terminal, and a node of no arena
 * slot (hand-built, or another package's). */
enum { REC_TERMINAL = -1, REC_FOREIGN = -2 };

/* State of one top-level call.  ctx_open fills only the structures its
 * USE_* flags name; the rest stay NULL. */
typedef struct {
    PyObject *self;
    PyObject *vtable;
    PyObject *nodes;
    PyObject *record;
    PyObject *mtable;
    PyObject *m_nodes;
    PyObject *vadd_cache;
    PyObject *mv_cache;
    PyObject *inner_cache;
    PyObject *madd_cache;
    PyObject *mm_cache;
    PyObject *pinned;
    Py_ssize_t cache_limit;
    int counting;
    double tol;
    double inv;
    Py_ssize_t created;
    Py_ssize_t m_created;
    Py_ssize_t vadd_counts[2]; /* hits, misses */
    Py_ssize_t mv_counts[2];
    Py_ssize_t inner_counts[2];
    Py_ssize_t madd_counts[2];
    Py_ssize_t mm_counts[2];
} Ctx;

/* What a top-level call works on: the vector or matrix node structures,
 * and their compute caches. */
enum { USE_VNODES = 1, USE_VCACHES = 2, USE_MNODES = 4, USE_MCACHES = 8 };

static PyTypeObject *vnode_type;
static PyTypeObject *mnode_type;
static Py_ssize_t v_level_off, v_edges_off, v_index_off;
static Py_ssize_t m_level_off, m_edges_off, m_index_off;
static PyObject *ctable;
static PyObject *zero_edge;
static PyObject *targets[5];
static PyObject *s_tolerance, *s_inv_tolerance, *s_vtable, *s_v_nodes,
    *s_v_record, *s_vadd_cache, *s_mv_cache, *s_inner_cache, *s_cache_limit,
    *s_counting, *s_stats, *s_cache_counts, *s_vcount_cache, *s_checked_insert,
    *s_vadd, *s_mv, *s_inner, *s_vnodes_created, *s_mtable, *s_m_nodes, *s_madd_cache,
    *s_mm_cache, *s_madd, *s_mm, *s_mnodes_created;

static const Edge ZERO = {{0.0, 0.0}, NULL};

/* The snap targets of ctable._SNAP_TARGETS, in its order. */
enum { SNAP_ZERO, SNAP_ONE, SNAP_NEG_ONE, SNAP_I, SNAP_NEG_I, SNAP_NONE = -1 };
static const Py_complex target_values[5] = {
    {0.0, 0.0}, {1.0, 0.0}, {-1.0, 0.0}, {0.0, 1.0}, {0.0, -1.0}};

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))
#define IS_ZERO(z) ((z).real == 0.0 && (z).imag == 0.0)

/* ------------------------------------------------------------------ */
/* CPython's complex arithmetic, with complexobject.c's error mapping  */
/* ------------------------------------------------------------------ */

static int
c_abs(Py_complex z, double *out)
{
    errno = 0;
    *out = _Py_c_abs(z);
    if (errno == ERANGE) {
        PyErr_SetString(PyExc_OverflowError, "absolute value too large");
        return -1;
    }
    return 0;
}

static int
c_quot(Py_complex a, Py_complex b, Py_complex *out)
{
    errno = 0;
    *out = _Py_c_quot(a, b);
    if (errno == EDOM) {
        PyErr_SetString(PyExc_ZeroDivisionError, "complex division by zero");
        return -1;
    }
    return 0;
}

/* round(x) for a float: half to even, then int(). */
static PyObject *
bucket(double x)
{
    double rounded = round(x);
    if (fabs(x - rounded) == 0.5) {
        rounded = 2.0 * round(x / 2.0);
    }
    return PyLong_FromDouble(rounded);
}

/* ctable.snap_boxed: the index of the target w snaps to, or SNAP_NONE. */
static int
snap(Py_complex w, double tol, int *target)
{
    double re = w.real, im = w.imag, mag;
    int candidate = SNAP_NONE;
    *target = SNAP_NONE;
    if (-tol <= im && im <= tol) {
        if (-tol <= re && re <= tol) {
            candidate = SNAP_ZERO;
        }
        else if (1.0 - tol <= re && re <= 1.0 + tol) {
            candidate = SNAP_ONE;
        }
        else if (-1.0 - tol <= re && re <= -1.0 + tol) {
            candidate = SNAP_NEG_ONE;
        }
    }
    else if (-tol <= re && re <= tol) {
        if (1.0 - tol <= im && im <= 1.0 + tol) {
            candidate = SNAP_I;
        }
        else if (-1.0 - tol <= im && im <= -1.0 + tol) {
            candidate = SNAP_NEG_I;
        }
    }
    if (candidate == SNAP_NONE) {
        return 0;
    }
    if (c_abs(_Py_c_diff(w, target_values[candidate]), &mag) < 0) {
        return -1;
    }
    if (mag <= tol) {
        *target = candidate;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Type-checked reads                                                  */
/* ------------------------------------------------------------------ */

static int
read_edge(PyObject *obj, PyTypeObject *type, Edge *edge)
{
    PyObject *weight, *node;
    if (!PyTuple_Check(obj) || PyTuple_GET_SIZE(obj) != 2) {
        PyErr_Format(PyExc_TypeError,
                     "edge must be a (weight, node) tuple, not %.100s",
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    weight = PyTuple_GET_ITEM(obj, 0);
    if (PyComplex_Check(weight)) {
        edge->w = ((PyComplexObject *)weight)->cval;
    }
    else if (PyFloat_Check(weight)) {
        edge->w.real = PyFloat_AS_DOUBLE(weight);
        edge->w.imag = 0.0;
    }
    else {
        PyErr_Format(PyExc_TypeError,
                     "edge weight must be complex or float, not %.100s",
                     Py_TYPE(weight)->tp_name);
        return -1;
    }
    node = PyTuple_GET_ITEM(obj, 1);
    if (node == Py_None) {
        edge->n = NULL;
    }
    else if (Py_IS_TYPE(node, type)) {
        edge->n = node;
    }
    else {
        PyErr_Format(PyExc_TypeError, "edge child must be %.100s or None, not %.100s",
                     type->tp_name, Py_TYPE(node)->tp_name);
        return -1;
    }
    return 0;
}

/* Read the first `arity` edges of a node's `edges` slot into `out`. */
static int
read_node_edges(PyObject *node, Py_ssize_t offset, Py_ssize_t arity,
                PyTypeObject *child_type, Edge *out)
{
    PyObject *edges = SLOT(node, offset);
    Py_ssize_t k;
    if (edges == NULL || !PyTuple_Check(edges) || PyTuple_GET_SIZE(edges) != arity) {
        PyErr_Format(PyExc_TypeError, "%.100s edges must be a tuple of %zd edges",
                     Py_TYPE(node)->tp_name, arity);
        return -1;
    }
    for (k = 0; k < arity; k++) {
        if (read_edge(PyTuple_GET_ITEM(edges, k), child_type, &out[k]) < 0) {
            return -1;
        }
    }
    return 0;
}

/* The node's `index` slot (borrowed), checked to be an int. */
static PyObject *
node_index(PyObject *node, Py_ssize_t offset)
{
    PyObject *index = SLOT(node, offset);
    if (index == NULL || !PyLong_Check(index)) {
        PyErr_Format(PyExc_TypeError, "%.100s index must be an int",
                     Py_TYPE(node)->tp_name);
        return NULL;
    }
    return index;
}

/* True when `node` is the live slot `index` of `nodes` (a VNode in
 * `_v_nodes`, an MNode in `_m_nodes`); -1 on error. */
static int
owned(PyObject *nodes, PyObject *node)
{
    Py_ssize_t index;
    PyObject *obj = node_index(node, Py_IS_TYPE(node, mnode_type) ? m_index_off : v_index_off);
    if (obj == NULL) {
        return -1;
    }
    index = PyLong_AsSsize_t(obj);
    if (index == -1 && PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError)) {
            return -1;
        }
        PyErr_Clear();
        return 0;
    }
    return 0 <= index && index < PyList_GET_SIZE(nodes) &&
           PyList_GET_ITEM(nodes, index) == node;
}

/* The pair key a.index * 2**32 + b.index of the mv and inner caches, as
 * the reclaim decodes it. */
static PyObject *
pair_key(PyObject *a, Py_ssize_t a_off, PyObject *b, Py_ssize_t b_off)
{
    long long ai, bi;
    PyObject *index;
    if ((index = node_index(a, a_off)) == NULL ||
        ((ai = PyLong_AsLongLong(index)) == -1 && PyErr_Occurred()) ||
        (index = node_index(b, b_off)) == NULL ||
        ((bi = PyLong_AsLongLong(index)) == -1 && PyErr_Occurred())) {
        return NULL;
    }
    if (ai <= -(1LL << 31) || ai >= (1LL << 31) || bi <= -(1LL << 32) || bi >= (1LL << 32)) {
        PyErr_SetString(PyExc_OverflowError, "node index out of range");
        return NULL;
    }
    return PyLong_FromLongLong(ai * (1LL << 32) + bi);
}

/* Hold a node read from a cache or a unique table for the rest of the
 * call unless an arena slot already holds it. */
static int
pin(Ctx *c, PyObject *node)
{
    int is_owned;
    if (node == NULL) {
        return 0;
    }
    is_owned = owned(Py_IS_TYPE(node, mnode_type) ? c->m_nodes : c->nodes, node);
    if (is_owned != 0) {
        return is_owned < 0 ? -1 : 0;
    }
    if (c->pinned == NULL && (c->pinned = PyList_New(0)) == NULL) {
        return -1;
    }
    return PyList_Append(c->pinned, node);
}

/* ------------------------------------------------------------------ */
/* Packing results back into Python edges                              */
/* ------------------------------------------------------------------ */

static PyObject *
pack(Py_complex w, int target, PyObject *node)
{
    PyObject *weight, *edge;
    if (node == NULL && target == SNAP_NONE && IS_ZERO(w) &&
        !signbit(w.real) && !signbit(w.imag)) {
        Py_INCREF(zero_edge);
        return zero_edge;
    }
    if (target != SNAP_NONE) {
        weight = targets[target];
        Py_INCREF(weight);
    }
    else if ((weight = PyComplex_FromCComplex(w)) == NULL) {
        return NULL;
    }
    if ((edge = PyTuple_New(2)) == NULL) {
        Py_DECREF(weight);
        return NULL;
    }
    if (node == NULL) {
        node = Py_None;
    }
    Py_INCREF(node);
    PyTuple_SET_ITEM(edge, 0, weight);
    PyTuple_SET_ITEM(edge, 1, node);
    return edge;
}

/* cache[key] = value, stealing `value` (NULL: a failed build). */
static int
cache_put(Ctx *c, PyObject *cache, PyObject *key, PyObject *value, PyObject *name)
{
    int rc;
    if (value == NULL) {
        return -1;
    }
    if (PyDict_GET_SIZE(cache) < c->cache_limit) {
        rc = PyDict_SetItem(cache, key, value);
    }
    else {
        /* At the limit: the Python method flushes and marks a reclaim. */
        PyObject *done = PyObject_CallMethodObjArgs(c->self, s_checked_insert, cache,
                                                    key, value, name, NULL);
        rc = done == NULL ? -1 : 0;
        Py_XDECREF(done);
    }
    Py_DECREF(value);
    return rc;
}

static int
cache_insert(Ctx *c, PyObject *cache, PyObject *key, Edge result, PyObject *name)
{
    return cache_put(c, cache, key, pack(result.w, SNAP_NONE, result.n), name);
}

/* ------------------------------------------------------------------ */
/* The record                                                          */
/* ------------------------------------------------------------------ */

static Rec *
records(PyObject *record)
{
    return (Rec *)PyByteArray_AS_STRING(record);
}

/* The record must hold exactly one entry per `_v_nodes` slot. */
static int
record_synced(PyObject *nodes, PyObject *record)
{
    if (PyByteArray_GET_SIZE(record) != PyList_GET_SIZE(nodes) * (Py_ssize_t)sizeof(Rec)) {
        PyErr_Format(PyExc_RuntimeError, "arena record holds %zd bytes for %zd nodes",
                     PyByteArray_GET_SIZE(record), PyList_GET_SIZE(nodes));
        return -1;
    }
    return 0;
}

static int
child_id(PyObject *nodes, PyObject *child, int32_t *id)
{
    int is_owned;
    if (child == NULL) {
        *id = REC_TERMINAL;
        return 0;
    }
    if ((is_owned = owned(nodes, child)) < 0) {
        return -1;
    }
    *id = is_owned ? (int32_t)PyLong_AsSsize_t(SLOT(child, v_index_off)) : REC_FOREIGN;
    return 0;
}

/* Append the record entry of the node about to take the next slot. */
static int
record_append(Ctx *c, long level, PyObject *n0, PyObject *n1)
{
    Py_ssize_t size = PyByteArray_GET_SIZE(c->record);
    Rec rec;
    if (record_synced(c->nodes, c->record) < 0) {
        return -1;
    }
    if (level < INT32_MIN || level > INT32_MAX || PyList_GET_SIZE(c->nodes) >= INT32_MAX) {
        PyErr_SetString(PyExc_OverflowError, "node does not fit the arena record");
        return -1;
    }
    rec.level = (int32_t)level;
    if (child_id(c->nodes, n0, &rec.child[0]) < 0 ||
        child_id(c->nodes, n1, &rec.child[1]) < 0 ||
        PyByteArray_Resize(c->record, size + (Py_ssize_t)sizeof(Rec)) < 0) {
        return -1;
    }
    memcpy(PyByteArray_AS_STRING(c->record) + size, &rec, sizeof(Rec));
    return 0;
}

/* ------------------------------------------------------------------ */
/* make_vedge                                                          */
/* ------------------------------------------------------------------ */

static PyObject *
new_vnode(Ctx *c, PyObject *level, Edge e0, int t0, Edge e1, int t1)
{
    PyObject *node, *index, *edges, *first, *second;
    first = pack(e0.w, t0, e0.n);
    second = pack(e1.w, t1, e1.n);
    index = PyLong_FromSsize_t(PyList_GET_SIZE(c->nodes));
    edges = first && second ? PyTuple_Pack(2, first, second) : NULL;
    Py_XDECREF(first);
    Py_XDECREF(second);
    /* The slots VNode.__init__ plus interning fill; no __init__ call. */
    node = index && edges ? vnode_type->tp_alloc(vnode_type, 0) : NULL;
    if (node == NULL) {
        Py_XDECREF(index);
        Py_XDECREF(edges);
        return NULL;
    }
    Py_INCREF(level);
    SLOT(node, v_level_off) = level;
    SLOT(node, v_edges_off) = edges;
    SLOT(node, v_index_off) = index;
    return node;
}

static int
make_vedge(Ctx *c, long level, Edge e0, Edge e1, Edge *out)
{
    double tol = c->tol, inv = c->inv, a0, a1, norm;
    Py_complex phase, top;
    Edge n0, n1;
    int t0, t1, rc = -1;
    PyObject *level_obj = NULL, *key = NULL, *node;

    if (c_abs(e0.w, &a0) < 0 || c_abs(e1.w, &a1) < 0) {
        return -1;
    }
    if (a0 <= tol) {
        if (a1 <= tol) {
            *out = ZERO;
            return 0;
        }
        e0 = ZERO;
        a0 = 0.0;
    }
    else if (a1 <= tol) {
        e1 = ZERO;
        a1 = 0.0;
    }
    norm = sqrt(a0 * a0 + a1 * a1);
    if (a0 > 0.0) {
        Py_complex divisor = {a0, 0.0};
        if (c_quot(e0.w, divisor, &phase) < 0) {
            return -1;
        }
    }
    else {
        Py_complex divisor = {a1, 0.0};
        if (c_quot(e1.w, divisor, &phase) < 0) {
            return -1;
        }
    }
    {
        Py_complex scale = {norm, 0.0};
        top = _Py_c_prod(scale, phase);
    }
    n0.n = e0.n;
    n1.n = e1.n;
    if (c_quot(e0.w, top, &n0.w) < 0 || snap(n0.w, tol, &t0) < 0 ||
        c_quot(e1.w, top, &n1.w) < 0 || snap(n1.w, tol, &t1) < 0) {
        return -1;
    }
    if (t0 != SNAP_NONE) {
        n0.w = target_values[t0];
    }
    if (t1 != SNAP_NONE) {
        n1.w = target_values[t1];
    }

    if ((level_obj = PyLong_FromLong(level)) == NULL || (key = PyTuple_New(7)) == NULL) {
        goto done;
    }
    Py_INCREF(level_obj);
    PyTuple_SET_ITEM(key, 0, level_obj);
    PyTuple_SET_ITEM(key, 1, bucket(n0.w.real * inv));
    PyTuple_SET_ITEM(key, 2, bucket(n0.w.imag * inv));
    Py_INCREF(n0.n == NULL ? Py_None : n0.n);
    PyTuple_SET_ITEM(key, 3, n0.n == NULL ? Py_None : n0.n);
    PyTuple_SET_ITEM(key, 4, bucket(n1.w.real * inv));
    PyTuple_SET_ITEM(key, 5, bucket(n1.w.imag * inv));
    Py_INCREF(n1.n == NULL ? Py_None : n1.n);
    PyTuple_SET_ITEM(key, 6, n1.n == NULL ? Py_None : n1.n);
    if (PyTuple_GET_ITEM(key, 1) == NULL || PyTuple_GET_ITEM(key, 2) == NULL ||
        PyTuple_GET_ITEM(key, 4) == NULL || PyTuple_GET_ITEM(key, 5) == NULL) {
        goto done;
    }

    node = PyDict_GetItemWithError(c->vtable, key);
    if (node != NULL) {
        if (!Py_IS_TYPE(node, vnode_type)) {
            PyErr_Format(PyExc_TypeError, "unique table holds a %.100s",
                         Py_TYPE(node)->tp_name);
            goto done;
        }
        if (pin(c, node) < 0) {
            goto done;
        }
    }
    else {
        if (PyErr_Occurred() || (node = new_vnode(c, level_obj, n0, t0, n1, t1)) == NULL) {
            goto done;
        }
        if (record_append(c, level, n0.n, n1.n) < 0) {
            Py_DECREF(node);
            goto done;
        }
        if (PyList_Append(c->nodes, node) < 0) {
            /* Drop the entry again: a shrink by one entry right after the
             * growth only moves the end (it cannot fail). */
            (void)PyByteArray_Resize(c->record,
                                     PyByteArray_GET_SIZE(c->record) - (Py_ssize_t)sizeof(Rec));
            Py_DECREF(node);
            goto done;
        }
        if (PyDict_SetItem(c->vtable, key, node) < 0) {
            Py_DECREF(node);
            goto done;
        }
        /* `_v_nodes` holds it now. */
        Py_DECREF(node);
        c->created++;
        if ((PyList_GET_SIZE(c->nodes) & 0xFFFF) == 0 && PyErr_CheckSignals() < 0) {
            goto done;
        }
    }
    out->w = top;
    out->n = node;
    rc = 0;
done:
    Py_XDECREF(level_obj);
    Py_XDECREF(key);
    return rc;
}

/* ------------------------------------------------------------------ */
/* vadd                                                                */
/* ------------------------------------------------------------------ */

static int vadd(Ctx *c, Edge e1, Edge e2, long level, Edge *out);

static int
vadd_miss(Ctx *c, Edge e1, Edge e2, Py_complex ratio, long level, PyObject *key,
          Edge *out)
{
    Edge a[2], b[2], child[2], result;
    Py_complex rb;
    int k;
    if (read_node_edges(e1.n, v_edges_off, 2, vnode_type, a) < 0 ||
        read_node_edges(e2.n, v_edges_off, 2, vnode_type, b) < 0) {
        return -1;
    }
    for (k = 0; k < 2; k++) {
        rb = _Py_c_prod(ratio, b[k].w);
        if (IS_ZERO(a[k].w)) {
            child[k].w = rb;
            child[k].n = b[k].n;
        }
        else if (IS_ZERO(rb)) {
            child[k] = a[k];
        }
        else {
            Edge scaled = {rb, b[k].n};
            if (vadd(c, a[k], scaled, level - 1, &child[k]) < 0) {
                return -1;
            }
        }
    }
    if (make_vedge(c, level, child[0], child[1], &result) < 0 ||
        cache_insert(c, c->vadd_cache, key, result, s_vadd) < 0) {
        return -1;
    }
    out->w = _Py_c_prod(result.w, e1.w);
    out->n = result.n;
    return 0;
}

static int
vadd(Ctx *c, Edge e1, Edge e2, long level, Edge *out)
{
    Py_complex ratio;
    PyObject *i1, *i2, *key, *cached;
    int rc = -1;

    if (IS_ZERO(e1.w)) {
        *out = e2;
        return 0;
    }
    if (IS_ZERO(e2.w)) {
        *out = e1;
        return 0;
    }
    if (level < 0 || e1.n == e2.n) {
        Py_complex total = _Py_c_sum(e1.w, e2.w);
        if (fabs(total.real) <= c->tol && fabs(total.imag) <= c->tol) {
            *out = ZERO;
        }
        else {
            out->w = total;
            out->n = level < 0 ? NULL : e1.n;
        }
        return 0;
    }
    if (e1.n == NULL || e2.n == NULL) {
        PyErr_SetString(PyExc_TypeError, "vadd reached a terminal above level 0");
        return -1;
    }
    if (c_quot(e2.w, e1.w, &ratio) < 0 || (i1 = node_index(e1.n, v_index_off)) == NULL ||
        (i2 = node_index(e2.n, v_index_off)) == NULL || (key = PyTuple_New(4)) == NULL) {
        return -1;
    }
    Py_INCREF(i1);
    PyTuple_SET_ITEM(key, 0, i1);
    Py_INCREF(i2);
    PyTuple_SET_ITEM(key, 1, i2);
    PyTuple_SET_ITEM(key, 2, bucket(ratio.real * c->inv));
    PyTuple_SET_ITEM(key, 3, bucket(ratio.imag * c->inv));
    if (PyTuple_GET_ITEM(key, 2) == NULL || PyTuple_GET_ITEM(key, 3) == NULL) {
        goto done;
    }
    cached = PyDict_GetItemWithError(c->vadd_cache, key);
    if (cached != NULL) {
        Edge hit;
        c->vadd_counts[0]++;
        if (read_edge(cached, vnode_type, &hit) < 0 || pin(c, hit.n) < 0) {
            goto done;
        }
        out->w = _Py_c_prod(hit.w, e1.w);
        out->n = hit.n;
        rc = 0;
        goto done;
    }
    if (PyErr_Occurred()) {
        goto done;
    }
    c->vadd_counts[1]++;
    if (Py_EnterRecursiveCall(" in vadd")) {
        goto done;
    }
    rc = vadd_miss(c, e1, e2, ratio, level, key, out);
    Py_LeaveRecursiveCall();
done:
    Py_DECREF(key);
    return rc;
}

/* ------------------------------------------------------------------ */
/* multiply_mv                                                         */
/* ------------------------------------------------------------------ */

static int mv(Ctx *c, Edge m, Edge v, long level, Edge *out);

/* One row of the product: m[row*2] * v0 + m[row*2+1] * v1. */
static int
mv_row(Ctx *c, const Edge *m, const Edge *v, long sub, Edge *out)
{
    Edge p[2];
    int k;
    for (k = 0; k < 2; k++) {
        if (IS_ZERO(m[k].w) || IS_ZERO(v[k].w)) {
            p[k] = ZERO;
        }
        else if (mv(c, m[k], v[k], sub, &p[k]) < 0) {
            return -1;
        }
    }
    if (IS_ZERO(p[0].w)) {
        *out = p[1];
    }
    else if (IS_ZERO(p[1].w)) {
        *out = p[0];
    }
    else if (vadd(c, p[0], p[1], sub, out) < 0) {
        return -1;
    }
    return 0;
}

static int
mv_miss(Ctx *c, Edge me, Edge ve, long level, PyObject *key, Edge *out)
{
    Edge m[4], v[2], child[2], result;
    if (read_node_edges(me.n, m_edges_off, 4, mnode_type, m) < 0 ||
        read_node_edges(ve.n, v_edges_off, 2, vnode_type, v) < 0 ||
        mv_row(c, m, v, level - 1, &child[0]) < 0 ||
        mv_row(c, m + 2, v, level - 1, &child[1]) < 0 ||
        make_vedge(c, level, child[0], child[1], &result) < 0 ||
        cache_insert(c, c->mv_cache, key, result, s_mv) < 0) {
        return -1;
    }
    out->w = _Py_c_prod(_Py_c_prod(result.w, me.w), ve.w);
    out->n = result.n;
    return 0;
}

static int
mv(Ctx *c, Edge me, Edge ve, long level, Edge *out)
{
    PyObject *key, *cached;
    int rc = -1;

    if (IS_ZERO(me.w) || IS_ZERO(ve.w)) {
        *out = ZERO;
        return 0;
    }
    if (level < 0) {
        out->w = _Py_c_prod(me.w, ve.w);
        out->n = NULL;
        return 0;
    }
    if (me.n == NULL || ve.n == NULL) {
        PyErr_SetString(PyExc_TypeError, "multiply_mv reached a terminal above level 0");
        return -1;
    }
    if ((key = pair_key(me.n, m_index_off, ve.n, v_index_off)) == NULL) {
        return -1;
    }
    cached = PyDict_GetItemWithError(c->mv_cache, key);
    if (cached != NULL) {
        Edge hit;
        c->mv_counts[0]++;
        if (read_edge(cached, vnode_type, &hit) < 0 || pin(c, hit.n) < 0) {
            goto done;
        }
        out->w = _Py_c_prod(_Py_c_prod(hit.w, me.w), ve.w);
        out->n = hit.n;
        rc = 0;
        goto done;
    }
    if (PyErr_Occurred()) {
        goto done;
    }
    c->mv_counts[1]++;
    if (Py_EnterRecursiveCall(" in multiply_mv")) {
        goto done;
    }
    rc = mv_miss(c, me, ve, level, key, out);
    Py_LeaveRecursiveCall();
done:
    Py_DECREF(key);
    return rc;
}

/* ------------------------------------------------------------------ */
/* The inner product                                                   */
/* ------------------------------------------------------------------ */

static int inner(Ctx *c, PyObject *n1, PyObject *n2, long level, Py_complex *out);

static int
inner_miss(Ctx *c, PyObject *n1, PyObject *n2, long level, PyObject *key, Py_complex *out)
{
    Edge a[2], b[2];
    Py_complex total = {0.0, 0.0}, conjugate, sub;
    int k;
    if (read_node_edges(n1, v_edges_off, 2, vnode_type, a) < 0 ||
        read_node_edges(n2, v_edges_off, 2, vnode_type, b) < 0) {
        return -1;
    }
    for (k = 0; k < 2; k++) {
        if (IS_ZERO(a[k].w) || IS_ZERO(b[k].w)) {
            continue;
        }
        if (inner(c, a[k].n, b[k].n, level - 1, &sub) < 0) {
            return -1;
        }
        /* total += w1k.conjugate() * w2k * sub */
        conjugate.real = a[k].w.real;
        conjugate.imag = -a[k].w.imag;
        total = _Py_c_sum(total, _Py_c_prod(_Py_c_prod(conjugate, b[k].w), sub));
    }
    if (cache_put(c, c->inner_cache, key, PyComplex_FromCComplex(total), s_inner) < 0) {
        return -1;
    }
    *out = total;
    return 0;
}

/* <n1|n2> of two unit sub-diagrams, memoized in `_inner_cache`. */
static int
inner(Ctx *c, PyObject *n1, PyObject *n2, long level, Py_complex *out)
{
    PyObject *key, *cached;
    int rc = -1;
    if (level < 0) {
        out->real = 1.0;
        out->imag = 0.0;
        return 0;
    }
    if (n1 == NULL || n2 == NULL) {
        PyErr_SetString(PyExc_TypeError, "inner product reached a terminal above level 0");
        return -1;
    }
    if ((key = pair_key(n1, v_index_off, n2, v_index_off)) == NULL) {
        return -1;
    }
    cached = PyDict_GetItemWithError(c->inner_cache, key);
    if (cached != NULL) {
        c->inner_counts[0]++;
        if (!PyComplex_Check(cached)) {
            PyErr_Format(PyExc_TypeError, "inner cache holds a %.100s", Py_TYPE(cached)->tp_name);
            goto done;
        }
        *out = ((PyComplexObject *)cached)->cval;
        rc = 0;
        goto done;
    }
    if (PyErr_Occurred()) {
        goto done;
    }
    c->inner_counts[1]++;
    if (Py_EnterRecursiveCall(" in the inner product")) {
        goto done;
    }
    rc = inner_miss(c, n1, n2, level, key, out);
    Py_LeaveRecursiveCall();
done:
    Py_DECREF(key);
    return rc;
}

/* ------------------------------------------------------------------ */
/* make_medge                                                          */
/* ------------------------------------------------------------------ */

static PyObject *
new_mnode(PyObject *level, const Edge *edges, const int *snapped)
{
    PyObject *node, *tuple, *edge;
    int k;
    if ((tuple = PyTuple_New(4)) == NULL) {
        return NULL;
    }
    for (k = 0; k < 4; k++) {
        if ((edge = pack(edges[k].w, snapped[k], edges[k].n)) == NULL) {
            Py_DECREF(tuple);
            return NULL;
        }
        PyTuple_SET_ITEM(tuple, k, edge);
    }
    /* The slots MNode.__init__ plus interning fill; no __init__ call.
     * The caller sets the index. */
    if ((node = mnode_type->tp_alloc(mnode_type, 0)) == NULL) {
        Py_DECREF(tuple);
        return NULL;
    }
    Py_INCREF(level);
    SLOT(node, m_level_off) = level;
    SLOT(node, m_edges_off) = tuple;
    return node;
}

/* Intern `node` as the next `_m_nodes` slot under `key`. */
static int
intern_mnode(Ctx *c, PyObject *node, PyObject *key)
{
    PyObject *index = PyLong_FromSsize_t(PyList_GET_SIZE(c->m_nodes));
    if (index == NULL) {
        return -1;
    }
    SLOT(node, m_index_off) = index;
    if (PyList_Append(c->m_nodes, node) < 0 || PyDict_SetItem(c->mtable, key, node) < 0) {
        return -1;
    }
    c->m_created++;
    if ((PyList_GET_SIZE(c->m_nodes) & 0xFFFF) == 0 && PyErr_CheckSignals() < 0) {
        return -1;
    }
    return 0;
}

/* The arena's make_medge: clamp, divide by the pivot (the largest
 * magnitude, ties within tolerance to the lowest index), snap, intern. */
static int
make_medge(Ctx *c, long level, const Edge *edges, Edge *out)
{
    double tol = c->tol, inv = c->inv, mag, max_mag = 0.0;
    Edge cleaned[4];
    int snapped[4], k, max_idx = -1, rc = -1;
    PyObject *level_obj = NULL, *key = NULL, *node;

    for (k = 0; k < 4; k++) {
        if (c_abs(edges[k].w, &mag) < 0) {
            return -1;
        }
        if (mag <= tol) {
            cleaned[k] = ZERO;
        }
        else {
            cleaned[k] = edges[k];
            if (mag > max_mag + tol) {
                max_mag = mag;
                max_idx = k;
            }
            else if (max_idx < 0) {
                max_mag = mag;
                max_idx = k;
            }
        }
    }
    if (max_idx < 0) {
        *out = ZERO;
        return 0;
    }
    for (k = 0; k < 4; k++) {
        snapped[k] = SNAP_NONE;
        if (IS_ZERO(cleaned[k].w)) {
            continue;
        }
        if (c_quot(cleaned[k].w, edges[max_idx].w, &cleaned[k].w) < 0 ||
            snap(cleaned[k].w, tol, &snapped[k]) < 0) {
            return -1;
        }
        if (snapped[k] != SNAP_NONE) {
            cleaned[k].w = target_values[snapped[k]];
        }
    }

    if ((level_obj = PyLong_FromLong(level)) == NULL || (key = PyTuple_New(13)) == NULL) {
        goto done;
    }
    Py_INCREF(level_obj);
    PyTuple_SET_ITEM(key, 0, level_obj);
    for (k = 0; k < 4; k++) {
        PyObject *child = cleaned[k].n == NULL ? Py_None : cleaned[k].n;
        PyObject *re = bucket(cleaned[k].w.real * inv), *im = bucket(cleaned[k].w.imag * inv);
        PyTuple_SET_ITEM(key, 3 * k + 1, re);
        PyTuple_SET_ITEM(key, 3 * k + 2, im);
        Py_INCREF(child);
        PyTuple_SET_ITEM(key, 3 * k + 3, child);
        if (re == NULL || im == NULL) {
            goto done;
        }
    }

    node = PyDict_GetItemWithError(c->mtable, key);
    if (node != NULL) {
        if (!Py_IS_TYPE(node, mnode_type)) {
            PyErr_Format(PyExc_TypeError, "unique table holds a %.100s",
                         Py_TYPE(node)->tp_name);
            goto done;
        }
        if (pin(c, node) < 0) {
            goto done;
        }
    }
    else {
        if (PyErr_Occurred() || (node = new_mnode(level_obj, cleaned, snapped)) == NULL) {
            goto done;
        }
        if (intern_mnode(c, node, key) < 0) {
            Py_DECREF(node);
            goto done;
        }
        /* `_m_nodes` holds it now. */
        Py_DECREF(node);
    }
    out->w = edges[max_idx].w;
    out->n = node;
    rc = 0;
done:
    Py_XDECREF(level_obj);
    Py_XDECREF(key);
    return rc;
}

/* ------------------------------------------------------------------ */
/* madd                                                                */
/* ------------------------------------------------------------------ */

static int madd(Ctx *c, Edge e1, Edge e2, long level, Edge *out);

static int
madd_miss(Ctx *c, Edge e1, Edge e2, Py_complex ratio, long level, PyObject *key,
          Edge *out)
{
    Edge a[4], b[4], child[4], result;
    Py_complex rb;
    int k;
    if (read_node_edges(e1.n, m_edges_off, 4, mnode_type, a) < 0 ||
        read_node_edges(e2.n, m_edges_off, 4, mnode_type, b) < 0) {
        return -1;
    }
    for (k = 0; k < 4; k++) {
        rb = _Py_c_prod(ratio, b[k].w);
        if (IS_ZERO(a[k].w)) {
            child[k].w = rb;
            child[k].n = b[k].n;
        }
        else if (IS_ZERO(rb)) {
            child[k] = a[k];
        }
        else {
            Edge scaled = {rb, b[k].n};
            if (madd(c, a[k], scaled, level - 1, &child[k]) < 0) {
                return -1;
            }
        }
    }
    if (make_medge(c, level, child, &result) < 0 ||
        cache_insert(c, c->madd_cache, key, result, s_madd) < 0) {
        return -1;
    }
    out->w = _Py_c_prod(result.w, e1.w);
    out->n = result.n;
    return 0;
}

/* vadd's recursion on four quadrants, memoized in `_madd_cache`. */
static int
madd(Ctx *c, Edge e1, Edge e2, long level, Edge *out)
{
    Py_complex ratio;
    PyObject *i1, *i2, *key, *cached;
    int rc = -1;

    if (IS_ZERO(e1.w)) {
        *out = e2;
        return 0;
    }
    if (IS_ZERO(e2.w)) {
        *out = e1;
        return 0;
    }
    if (level < 0 || e1.n == e2.n) {
        Py_complex total = _Py_c_sum(e1.w, e2.w);
        if (fabs(total.real) <= c->tol && fabs(total.imag) <= c->tol) {
            *out = ZERO;
        }
        else {
            out->w = total;
            out->n = level < 0 ? NULL : e1.n;
        }
        return 0;
    }
    if (e1.n == NULL || e2.n == NULL) {
        PyErr_SetString(PyExc_TypeError, "madd reached a terminal above level 0");
        return -1;
    }
    if (c_quot(e2.w, e1.w, &ratio) < 0 || (i1 = node_index(e1.n, m_index_off)) == NULL ||
        (i2 = node_index(e2.n, m_index_off)) == NULL || (key = PyTuple_New(4)) == NULL) {
        return -1;
    }
    Py_INCREF(i1);
    PyTuple_SET_ITEM(key, 0, i1);
    Py_INCREF(i2);
    PyTuple_SET_ITEM(key, 1, i2);
    PyTuple_SET_ITEM(key, 2, bucket(ratio.real * c->inv));
    PyTuple_SET_ITEM(key, 3, bucket(ratio.imag * c->inv));
    if (PyTuple_GET_ITEM(key, 2) == NULL || PyTuple_GET_ITEM(key, 3) == NULL) {
        goto done;
    }
    cached = PyDict_GetItemWithError(c->madd_cache, key);
    if (cached != NULL) {
        Edge hit;
        c->madd_counts[0]++;
        if (read_edge(cached, mnode_type, &hit) < 0 || pin(c, hit.n) < 0) {
            goto done;
        }
        out->w = _Py_c_prod(hit.w, e1.w);
        out->n = hit.n;
        rc = 0;
        goto done;
    }
    if (PyErr_Occurred()) {
        goto done;
    }
    c->madd_counts[1]++;
    if (Py_EnterRecursiveCall(" in madd")) {
        goto done;
    }
    rc = madd_miss(c, e1, e2, ratio, level, key, out);
    Py_LeaveRecursiveCall();
done:
    Py_DECREF(key);
    return rc;
}

/* ------------------------------------------------------------------ */
/* multiply_mm                                                         */
/* ------------------------------------------------------------------ */

static int mm(Ctx *c, Edge a, Edge b, long level, Edge *out);

/* Quadrant (row, col) of the product: a[row][0] b[0][col] + a[row][1] b[1][col]. */
static int
mm_quadrant(Ctx *c, const Edge *a, const Edge *b, int row, int col, long sub, Edge *out)
{
    Edge p[2];
    int k;
    for (k = 0; k < 2; k++) {
        const Edge *x = &a[row * 2 + k], *y = &b[k * 2 + col];
        if (IS_ZERO(x->w) || IS_ZERO(y->w)) {
            p[k] = ZERO;
        }
        else if (mm(c, *x, *y, sub, &p[k]) < 0) {
            return -1;
        }
    }
    if (IS_ZERO(p[0].w)) {
        *out = p[1];
    }
    else if (IS_ZERO(p[1].w)) {
        *out = p[0];
    }
    else if (madd(c, p[0], p[1], sub, out) < 0) {
        return -1;
    }
    return 0;
}

static int
mm_miss(Ctx *c, Edge ae, Edge be, long level, PyObject *key, Edge *out)
{
    Edge a[4], b[4], child[4], result;
    int k;
    if (read_node_edges(ae.n, m_edges_off, 4, mnode_type, a) < 0 ||
        read_node_edges(be.n, m_edges_off, 4, mnode_type, b) < 0) {
        return -1;
    }
    for (k = 0; k < 4; k++) {
        if (mm_quadrant(c, a, b, k >> 1, k & 1, level - 1, &child[k]) < 0) {
            return -1;
        }
    }
    if (make_medge(c, level, child, &result) < 0 ||
        cache_insert(c, c->mm_cache, key, result, s_mm) < 0) {
        return -1;
    }
    out->w = _Py_c_prod(_Py_c_prod(result.w, ae.w), be.w);
    out->n = result.n;
    return 0;
}

/* The product applying `b` first and `a` second, memoized in `_mm_cache`. */
static int
mm(Ctx *c, Edge a, Edge b, long level, Edge *out)
{
    PyObject *key, *cached;
    int rc = -1;

    if (IS_ZERO(a.w) || IS_ZERO(b.w)) {
        *out = ZERO;
        return 0;
    }
    if (level < 0) {
        out->w = _Py_c_prod(a.w, b.w);
        out->n = NULL;
        return 0;
    }
    if (a.n == NULL || b.n == NULL) {
        PyErr_SetString(PyExc_TypeError, "multiply_mm reached a terminal above level 0");
        return -1;
    }
    if ((key = pair_key(a.n, m_index_off, b.n, m_index_off)) == NULL) {
        return -1;
    }
    cached = PyDict_GetItemWithError(c->mm_cache, key);
    if (cached != NULL) {
        Edge hit;
        c->mm_counts[0]++;
        if (read_edge(cached, mnode_type, &hit) < 0 || pin(c, hit.n) < 0) {
            goto done;
        }
        out->w = _Py_c_prod(_Py_c_prod(hit.w, a.w), b.w);
        out->n = hit.n;
        rc = 0;
        goto done;
    }
    if (PyErr_Occurred()) {
        goto done;
    }
    c->mm_counts[1]++;
    if (Py_EnterRecursiveCall(" in multiply_mm")) {
        goto done;
    }
    rc = mm_miss(c, a, b, level, key, out);
    Py_LeaveRecursiveCall();
done:
    Py_DECREF(key);
    return rc;
}

/* ------------------------------------------------------------------ */
/* Call set-up and tear-down                                           */
/* ------------------------------------------------------------------ */

static PyObject *
typed_attr(PyObject *obj, PyObject *name, PyTypeObject *type)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value != NULL && !Py_IS_TYPE(value, type)) {
        PyErr_Format(PyExc_TypeError, "%U must be a %.100s, not %.100s", name,
                     type->tp_name, Py_TYPE(value)->tp_name);
        Py_CLEAR(value);
    }
    return value;
}

static int
float_attr(PyObject *obj, PyObject *name, double *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL) {
        return -1;
    }
    *out = PyFloat_AsDouble(value);
    Py_DECREF(value);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* Open a top-level call on the structures `use` (USE_* flags) names. */
static int
ctx_open(Ctx *c, PyObject *self, int use)
{
    PyObject *value;
    memset(c, 0, sizeof(*c));
    c->self = self;
    /* The tolerance is read on every top-level call: set_tolerance may
     * have changed it since the last one. */
    if (float_attr(ctable, s_tolerance, &c->tol) < 0 ||
        float_attr(ctable, s_inv_tolerance, &c->inv) < 0) {
        return -1;
    }
    if ((use & USE_VNODES) &&
        ((c->vtable = typed_attr(self, s_vtable, &PyDict_Type)) == NULL ||
         (c->nodes = typed_attr(self, s_v_nodes, &PyList_Type)) == NULL ||
         (c->record = typed_attr(self, s_v_record, &PyByteArray_Type)) == NULL)) {
        return -1;
    }
    if ((use & USE_MNODES) &&
        ((c->mtable = typed_attr(self, s_mtable, &PyDict_Type)) == NULL ||
         (c->m_nodes = typed_attr(self, s_m_nodes, &PyList_Type)) == NULL)) {
        return -1;
    }
    if ((use & USE_VCACHES) &&
        ((c->vadd_cache = typed_attr(self, s_vadd_cache, &PyDict_Type)) == NULL ||
         (c->mv_cache = typed_attr(self, s_mv_cache, &PyDict_Type)) == NULL ||
         (c->inner_cache = typed_attr(self, s_inner_cache, &PyDict_Type)) == NULL)) {
        return -1;
    }
    if ((use & USE_MCACHES) &&
        ((c->madd_cache = typed_attr(self, s_madd_cache, &PyDict_Type)) == NULL ||
         (c->mm_cache = typed_attr(self, s_mm_cache, &PyDict_Type)) == NULL)) {
        return -1;
    }
    if (!(use & (USE_VCACHES | USE_MCACHES))) {
        return 0;
    }
    if ((value = PyObject_GetAttr(self, s_cache_limit)) == NULL) {
        return -1;
    }
    c->cache_limit = PyNumber_AsSsize_t(value, PyExc_OverflowError);
    Py_DECREF(value);
    if (c->cache_limit == -1 && PyErr_Occurred()) {
        return -1;
    }
    if ((value = PyObject_GetAttr(self, s_counting)) == NULL) {
        return -1;
    }
    c->counting = PyObject_IsTrue(value);
    Py_DECREF(value);
    return c->counting < 0 ? -1 : 0;
}

/* counter[slot] += amount for a dict-of-counter or list-of-counter. */
static int
add_count(PyObject *container, PyObject *slot, Py_ssize_t amount)
{
    PyObject *old, *delta, *total;
    int rc;
    if (amount == 0) {
        return 0;
    }
    if ((old = PyObject_GetItem(container, slot)) == NULL) {
        return -1;
    }
    if ((delta = PyLong_FromSsize_t(amount)) == NULL) {
        Py_DECREF(old);
        return -1;
    }
    total = PyNumber_Add(old, delta);
    Py_DECREF(old);
    Py_DECREF(delta);
    if (total == NULL) {
        return -1;
    }
    rc = PyObject_SetItem(container, slot, total);
    Py_DECREF(total);
    return rc;
}

static int
add_hits_misses(PyObject *counts, PyObject *name, const Py_ssize_t *tally)
{
    PyObject *slot, *hits, *misses;
    int rc = -1;
    if (tally[0] == 0 && tally[1] == 0) {
        return 0;
    }
    if ((slot = PyObject_GetItem(counts, name)) == NULL) {
        return -1;
    }
    hits = PyLong_FromLong(0);
    misses = PyLong_FromLong(1);
    if (hits != NULL && misses != NULL && add_count(slot, hits, tally[0]) == 0 &&
        add_count(slot, misses, tally[1]) == 0) {
        rc = 0;
    }
    Py_XDECREF(hits);
    Py_XDECREF(misses);
    Py_DECREF(slot);
    return rc;
}

/* stats[name] += amount. */
static int
add_stat(PyObject *self, PyObject *name, Py_ssize_t amount)
{
    PyObject *stats;
    int rc;
    if (amount == 0) {
        return 0;
    }
    if ((stats = PyObject_GetAttr(self, s_stats)) == NULL) {
        return -1;
    }
    rc = add_count(stats, name, amount);
    Py_DECREF(stats);
    return rc;
}

/* Publish the node creation counts and the hit/miss tallies -- also when
 * the call failed, keeping its exception -- and release the call's
 * references. */
static int
ctx_close(Ctx *c, int failed)
{
    PyObject *error = NULL, *counts;
    int rc = 0;
#if PY_VERSION_HEX >= 0x030C0000
    if (failed) {
        error = PyErr_GetRaisedException();
    }
#else
    PyObject *error_value = NULL, *error_tb = NULL;
    if (failed) {
        PyErr_Fetch(&error, &error_value, &error_tb);
    }
#endif
    if (add_stat(c->self, s_vnodes_created, c->created) < 0 ||
        add_stat(c->self, s_mnodes_created, c->m_created) < 0) {
        rc = -1;
    }
    if (rc == 0 && c->counting) {
        if ((counts = PyObject_GetAttr(c->self, s_cache_counts)) == NULL ||
            add_hits_misses(counts, s_vadd, c->vadd_counts) < 0 ||
            add_hits_misses(counts, s_mv, c->mv_counts) < 0 ||
            add_hits_misses(counts, s_inner, c->inner_counts) < 0 ||
            add_hits_misses(counts, s_madd, c->madd_counts) < 0 ||
            add_hits_misses(counts, s_mm, c->mm_counts) < 0) {
            rc = -1;
        }
        Py_XDECREF(counts);
    }
    Py_CLEAR(c->vtable);
    Py_CLEAR(c->nodes);
    Py_CLEAR(c->record);
    Py_CLEAR(c->mtable);
    Py_CLEAR(c->m_nodes);
    Py_CLEAR(c->vadd_cache);
    Py_CLEAR(c->mv_cache);
    Py_CLEAR(c->inner_cache);
    Py_CLEAR(c->madd_cache);
    Py_CLEAR(c->mm_cache);
    Py_CLEAR(c->pinned);
    if (failed) {
        if (rc < 0) {
            PyErr_Clear();
        }
#if PY_VERSION_HEX >= 0x030C0000
        PyErr_SetRaisedException(error);
#else
        PyErr_Restore(error, error_value, error_tb);
#endif
        return -1;
    }
    return rc;
}

/* Finish a top-level call whose recursion returned `status`. */
static PyObject *
finish(Ctx *c, int status, Edge result)
{
    PyObject *edge = status < 0 ? NULL : pack(result.w, SNAP_NONE, result.n);
    if (ctx_close(c, edge == NULL) < 0) {
        Py_CLEAR(edge);
    }
    return edge;
}

static int
check_args(const char *name, Py_ssize_t nargs, Py_ssize_t expected)
{
    if (nargs != expected) {
        PyErr_Format(PyExc_TypeError, "%s expected %zd arguments, got %zd", name,
                     expected, nargs);
        return -1;
    }
    return 0;
}

static int
read_level(PyObject *obj, long *level)
{
    *level = PyLong_AsLong(obj);
    return *level == -1 && PyErr_Occurred() ? -1 : 0;
}

/* ------------------------------------------------------------------ */
/* Module functions                                                    */
/* ------------------------------------------------------------------ */

static PyObject *
py_make_vedge(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    Edge e0, e1, result = ZERO;
    long level;
    int status;
    (void)module;
    if (check_args("make_vedge", nargs, 4) < 0 || read_level(args[1], &level) < 0 ||
        read_edge(args[2], vnode_type, &e0) < 0 || read_edge(args[3], vnode_type, &e1) < 0) {
        return NULL;
    }
    if (ctx_open(&c, args[0], USE_VNODES) < 0) {
        ctx_close(&c, 1);
        return NULL;
    }
    status = make_vedge(&c, level, e0, e1, &result);
    return finish(&c, status, result);
}

static PyObject *
py_vadd(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    Edge e1, e2, result = ZERO;
    long level;
    int status;
    (void)module;
    if (check_args("vadd", nargs, 4) < 0 || read_edge(args[1], vnode_type, &e1) < 0 ||
        read_edge(args[2], vnode_type, &e2) < 0 || read_level(args[3], &level) < 0) {
        return NULL;
    }
    /* The Python engine hands back the other operand itself. */
    if (IS_ZERO(e1.w) || IS_ZERO(e2.w)) {
        PyObject *other = IS_ZERO(e1.w) ? args[2] : args[1];
        Py_INCREF(other);
        return other;
    }
    if (ctx_open(&c, args[0], USE_VNODES | USE_VCACHES) < 0) {
        ctx_close(&c, 1);
        return NULL;
    }
    status = vadd(&c, e1, e2, level, &result);
    return finish(&c, status, result);
}

static PyObject *
py_multiply_mv(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    Edge me, ve, result = ZERO;
    long level;
    int status;
    (void)module;
    if (check_args("multiply_mv", nargs, 4) < 0 ||
        read_edge(args[1], mnode_type, &me) < 0 || read_edge(args[2], vnode_type, &ve) < 0 ||
        read_level(args[3], &level) < 0) {
        return NULL;
    }
    if (ctx_open(&c, args[0], USE_VNODES | USE_VCACHES) < 0) {
        ctx_close(&c, 1);
        return NULL;
    }
    status = mv(&c, me, ve, level, &result);
    return finish(&c, status, result);
}

static PyObject *
py_make_medge(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    Edge edges[4], result = ZERO;
    PyObject *quadrants;
    long level;
    int k, status;
    (void)module;
    if (check_args("make_medge", nargs, 3) < 0 || read_level(args[1], &level) < 0) {
        return NULL;
    }
    quadrants = args[2];
    if (!PyTuple_Check(quadrants) || PyTuple_GET_SIZE(quadrants) != 4) {
        PyErr_Format(PyExc_TypeError, "make_medge needs a tuple of 4 edges, not %.100s",
                     Py_TYPE(quadrants)->tp_name);
        return NULL;
    }
    for (k = 0; k < 4; k++) {
        if (read_edge(PyTuple_GET_ITEM(quadrants, k), mnode_type, &edges[k]) < 0) {
            return NULL;
        }
    }
    if (ctx_open(&c, args[0], USE_MNODES) < 0) {
        ctx_close(&c, 1);
        return NULL;
    }
    status = make_medge(&c, level, edges, &result);
    return finish(&c, status, result);
}

static PyObject *
py_madd(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    Edge e1, e2, result = ZERO;
    long level;
    int status;
    (void)module;
    if (check_args("madd", nargs, 4) < 0 || read_edge(args[1], mnode_type, &e1) < 0 ||
        read_edge(args[2], mnode_type, &e2) < 0 || read_level(args[3], &level) < 0) {
        return NULL;
    }
    /* The Python engine hands back the other operand itself. */
    if (IS_ZERO(e1.w) || IS_ZERO(e2.w)) {
        PyObject *other = IS_ZERO(e1.w) ? args[2] : args[1];
        Py_INCREF(other);
        return other;
    }
    if (ctx_open(&c, args[0], USE_MNODES | USE_MCACHES) < 0) {
        ctx_close(&c, 1);
        return NULL;
    }
    status = madd(&c, e1, e2, level, &result);
    return finish(&c, status, result);
}

static PyObject *
py_multiply_mm(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    Edge ae, be, result = ZERO;
    long level;
    int status;
    (void)module;
    if (check_args("multiply_mm", nargs, 4) < 0 || read_edge(args[1], mnode_type, &ae) < 0 ||
        read_edge(args[2], mnode_type, &be) < 0 || read_level(args[3], &level) < 0) {
        return NULL;
    }
    if (ctx_open(&c, args[0], USE_MNODES | USE_MCACHES) < 0) {
        ctx_close(&c, 1);
        return NULL;
    }
    status = mm(&c, ae, be, level, &result);
    return finish(&c, status, result);
}

/* ------------------------------------------------------------------ */
/* Record walks                                                        */
/* ------------------------------------------------------------------ */

/* A growable array of node ids. */
typedef struct {
    int32_t *data;
    Py_ssize_t len, cap;
} Ids;

static int
ids_push(Ids *ids, int32_t id)
{
    if (ids->len == ids->cap) {
        Py_ssize_t cap = ids->cap ? 2 * ids->cap : 64;
        int32_t *grown = PyMem_Realloc(ids->data, (size_t)cap * sizeof(int32_t));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        ids->data = grown;
        ids->cap = cap;
    }
    ids->data[ids->len++] = id;
    return 0;
}

/* A walk over the record from one root: the arena's node list and
 * record, and the root's id. */
typedef struct {
    PyObject *nodes;
    PyObject *record;
    Py_ssize_t size;
    int32_t root;
} Walk;

/* Open a walk from `root` (a VNode).  Returns 1 when the record can be
 * walked; 0 when the root is not a live slot of this arena, or its edges
 * no longer name the children its record entry does, and the caller must
 * fall back to the generic traversal; -1 on error. */
static int
walk_open(Walk *w, PyObject *self, PyObject *root)
{
    Edge edges[2];
    const Rec *rec;
    int is_owned, k;
    memset(w, 0, sizeof(*w));
    if ((w->nodes = typed_attr(self, s_v_nodes, &PyList_Type)) == NULL ||
        (w->record = typed_attr(self, s_v_record, &PyByteArray_Type)) == NULL ||
        record_synced(w->nodes, w->record) < 0 || (is_owned = owned(w->nodes, root)) < 0 ||
        (is_owned && read_node_edges(root, v_edges_off, 2, vnode_type, edges) < 0)) {
        return -1;
    }
    if (!is_owned) {
        return 0;
    }
    w->size = PyList_GET_SIZE(w->nodes);
    w->root = (int32_t)PyLong_AsSsize_t(SLOT(root, v_index_off));
    rec = records(w->record) + w->root;
    for (k = 0; k < 2; k++) {
        int32_t id = rec->child[k];
        if (id < REC_TERMINAL || id >= w->root) {
            return 0;
        }
        if (edges[k].n != (id == REC_TERMINAL ? NULL : PyList_GET_ITEM(w->nodes, id))) {
            return 0;
        }
    }
    return 1;
}

static void
walk_close(Walk *w)
{
    Py_CLEAR(w->nodes);
    Py_CLEAR(w->record);
}

/* The depth-first walk of DDBackend.vnodes: mark on pop, push each
 * unmarked child in edge order.  Appends the reached ids to `order` in
 * discovery order (NULL: count them only).  Returns 1 when done, 0 when
 * a foreign child was met, -1 on error. */
static int
collect(const Walk *w, Ids *order, Py_ssize_t *count)
{
    const Rec *recs = records(w->record);
    unsigned char *seen = PyMem_Calloc((size_t)w->size / 8 + 1, 1);
    Ids stack = {NULL, 0, 0};
    int32_t id, child;
    int k, rc = -1;
    *count = 0;
    if (seen == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (ids_push(&stack, w->root) < 0) {
        goto done;
    }
    while (stack.len > 0) {
        id = stack.data[--stack.len];
        if (seen[id >> 3] & (1 << (id & 7))) {
            continue;
        }
        seen[id >> 3] |= (unsigned char)(1 << (id & 7));
        (*count)++;
        if (order != NULL && ids_push(order, id) < 0) {
            goto done;
        }
        for (k = 0; k < 2; k++) {
            child = recs[id].child[k];
            if (child == REC_TERMINAL) {
                continue;
            }
            if (child == REC_FOREIGN) {
                rc = 0;
                goto done;
            }
            /* Children precede parents: anything else is a corrupt record. */
            if (child < 0 || child >= id) {
                PyErr_Format(PyExc_RuntimeError, "arena record slot %d names child %d", (int)id,
                             (int)child);
                goto done;
            }
            if (!(seen[child >> 3] & (1 << (child & 7))) && ids_push(&stack, child) < 0) {
                goto done;
            }
        }
    }
    rc = 1;
done:
    PyMem_Free(seen);
    PyMem_Free(stack.data);
    return rc;
}

/* Stable counting sort of `ids` by descending level.  Returns 1, or 0
 * when the levels spread far wider than the nodes (only hand-built
 * levels do), leaving the generic traversal to sort them. */
static int
sort_by_level(const Rec *recs, Ids *ids)
{
    Py_ssize_t n = ids->len, i, *start = NULL, range;
    int32_t low, high, id, *sorted = NULL;
    int rc = -1;
    if (n < 2) {
        return 1;
    }
    low = high = recs[ids->data[0]].level;
    for (i = 1; i < n; i++) {
        low = recs[ids->data[i]].level < low ? recs[ids->data[i]].level : low;
        high = recs[ids->data[i]].level > high ? recs[ids->data[i]].level : high;
    }
    range = (Py_ssize_t)high - (Py_ssize_t)low + 1;
    if (range > n + 64) {
        return 0;
    }
    /* Bucket b holds level high - b, so buckets run top level first. */
    start = PyMem_Calloc((size_t)range + 1, sizeof(Py_ssize_t));
    sorted = PyMem_Malloc((size_t)n * sizeof(int32_t));
    if (start == NULL || sorted == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < n; i++) {
        start[high - recs[ids->data[i]].level + 1]++;
    }
    for (i = 0; i < range; i++) {
        start[i + 1] += start[i];
    }
    for (i = 0; i < n; i++) {
        id = ids->data[i];
        sorted[start[high - recs[id].level]++] = id;
    }
    memcpy(ids->data, sorted, (size_t)n * sizeof(int32_t));
    rc = 1;
done:
    PyMem_Free(start);
    PyMem_Free(sorted);
    return rc;
}

/* The reachable ids of a walk in DDBackend.vnodes order.  Returns 1, 0
 * for the generic traversal, or -1 on error. */
static int
sorted_nodes(const Walk *w, Ids *order)
{
    Py_ssize_t count;
    int status = collect(w, order, &count);
    return status <= 0 ? status : sort_by_level(records(w->record), order);
}

/* The exponent of square(), out of the compiler's sight: with a constant
 * 2.0 it folds pow into x * x, which rounds differently from libm's pow
 * on some inputs. */
static volatile double square_exponent = 2.0;

/* float.__pow__(x, 2.0) for x = abs(w) (so x >= 0, or NaN): CPython's
 * own special case for NaN, then libm's pow with its overflow mapping. */
static int
square(double x, double *out)
{
    if (isnan(x)) {
        *out = x;
        return 0;
    }
    *out = pow(x, square_exponent);
    if (isinf(*out) && !isinf(x)) {
        errno = ERANGE;
        PyErr_SetFromErrno(PyExc_OverflowError);
        return -1;
    }
    return 0;
}

/* abs(w) ** 2 */
static int
abs_squared(Py_complex w, double *out)
{
    double magnitude;
    return c_abs(w, &magnitude) < 0 ? -1 : square(magnitude, out);
}

/* Read a node-count or sweep call's (backend, edge) arguments; the root
 * is NULL for a terminal edge. */
static int
read_sweep_args(const char *name, PyObject *const *args, Py_ssize_t nargs, Edge *root)
{
    return check_args(name, nargs, 2) < 0 || read_edge(args[1], vnode_type, root) < 0 ? -1 : 0;
}

/* Reachable-node count, memoized in `_vcount_cache` by root index.
 * Returns None when the walk meets a node that is not a live slot of this
 * arena; the caller then runs the generic traversal. */
static PyObject *
py_node_count(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Walk w;
    PyObject *memo = NULL, *root_index, *result = NULL;
    Py_ssize_t count;
    Edge root;
    int status;
    (void)module;
    if (read_sweep_args("node_count", args, nargs, &root) < 0) {
        return NULL;
    }
    if (root.n == NULL) {
        return PyLong_FromLong(0);
    }
    if ((status = walk_open(&w, args[0], root.n)) <= 0 ||
        (memo = typed_attr(args[0], s_vcount_cache, &PyDict_Type)) == NULL) {
        goto done;
    }
    root_index = SLOT(root.n, v_index_off);
    if ((result = PyDict_GetItemWithError(memo, root_index)) != NULL) {
        Py_INCREF(result);
        goto done;
    }
    if (PyErr_Occurred() || (status = collect(&w, NULL, &count)) <= 0) {
        goto done;
    }
    if ((result = PyLong_FromSsize_t(count)) != NULL &&
        PyDict_SetItem(memo, root_index, result) < 0) {
        Py_CLEAR(result);
    }
done:
    if (status == 0) {
        result = Py_None;
        Py_INCREF(result);
    }
    walk_close(&w);
    Py_XDECREF(memo);
    return result;
}

/* DDBackend.vnodes over the record, or None for a foreign diagram. */
static PyObject *
py_vnodes(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Walk w;
    Ids order = {NULL, 0, 0};
    PyObject *result = NULL, *node;
    Py_ssize_t i;
    Edge root;
    int status;
    (void)module;
    if (read_sweep_args("vnodes", args, nargs, &root) < 0) {
        return NULL;
    }
    if (root.n == NULL) {
        return PyList_New(0);
    }
    if ((status = walk_open(&w, args[0], root.n)) <= 0 ||
        (status = sorted_nodes(&w, &order)) <= 0 || (result = PyList_New(order.len)) == NULL) {
        goto done;
    }
    for (i = 0; i < order.len; i++) {
        node = PyList_GET_ITEM(w.nodes, order.data[i]);
        Py_INCREF(node);
        PyList_SET_ITEM(result, i, node);
    }
done:
    if (status == 0) {
        result = Py_None;
        Py_INCREF(result);
    }
    PyMem_Free(order.data);
    walk_close(&w);
    return result;
}

/* The edges slot of the node at position `i` of `order`, if any. */
static PyObject *
edges_at(PyObject *nodes, const Ids *order, Py_ssize_t i)
{
    PyObject *node;
    if (i >= order->len) {
        return NULL;
    }
    node = PyList_GET_ITEM(nodes, order->data[i]);
    return Py_IS_TYPE(node, vnode_type) ? SLOT(node, v_edges_off) : NULL;
}

static int
is_pair(PyObject *obj)
{
    return obj != NULL && PyTuple_CheckExact(obj) && PyTuple_GET_SIZE(obj) == 2;
}

/* A sweep that reads the edges of the nodes in `order` follows a chain
 * of dependent loads per node (node, edges tuple, edge tuples, weights
 * and children), each a likely cache miss.  Before position `i` is read,
 * request those links for later positions in stages, each stage reading
 * only objects an earlier one requested, so the misses of several nodes
 * overlap.  These are hints: every object is type-checked before it is
 * read, and read_node_edges still checks all the sweep uses. */
static void
prefetch_edges(PyObject *nodes, const Ids *order, Py_ssize_t i)
{
    PyObject *edges, *edge;
    int k;
    if (i + 12 < order->len) {
        __builtin_prefetch(PyList_GET_ITEM(nodes, order->data[i + 12]));
    }
    if ((edges = edges_at(nodes, order, i + 8)) != NULL) {
        __builtin_prefetch(edges);
    }
    if (is_pair(edges = edges_at(nodes, order, i + 4))) {
        __builtin_prefetch(PyTuple_GET_ITEM(edges, 0));
        __builtin_prefetch(PyTuple_GET_ITEM(edges, 1));
    }
    if (is_pair(edges = edges_at(nodes, order, i + 2))) {
        for (k = 0; k < 2; k++) {
            if (is_pair(edge = PyTuple_GET_ITEM(edges, k))) {
                __builtin_prefetch(PyTuple_GET_ITEM(edge, 0));
                __builtin_prefetch(PyTuple_GET_ITEM(edge, 1));
            }
        }
    }
}

/* DDBackend.norm_contributions over the record, or None for a foreign
 * diagram: the same dict, in the same insertion order, with the same
 * float operations in the same order.  The per-node arrays are indexed
 * by position in the sweep order (`position` maps reached ids to it). */
static PyObject *
py_norm_contributions(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Walk w;
    Ids order = {NULL, 0, 0}, inserted = {NULL, 0, 0};
    PyObject *result = NULL, *value;
    double *contribution = NULL, incoming, term;
    unsigned char *present = NULL;
    int32_t *position = NULL, id, at;
    const Rec *recs;
    Py_ssize_t i;
    Edge root, edges[2];
    int status, k;
    (void)module;
    if (read_sweep_args("norm_contributions", args, nargs, &root) < 0) {
        return NULL;
    }
    if (root.n == NULL) {
        return PyDict_New();
    }
    if ((status = walk_open(&w, args[0], root.n)) <= 0 ||
        (status = sorted_nodes(&w, &order)) <= 0) {
        goto done;
    }
    status = -1;
    position = PyMem_Malloc((size_t)w.size * sizeof(int32_t));
    contribution = PyMem_Malloc((size_t)order.len * sizeof(double));
    present = PyMem_Calloc((size_t)order.len, 1);
    if (position == NULL || contribution == NULL || present == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < order.len; i++) {
        position[order.data[i]] = (int32_t)i;
    }
    at = position[w.root];
    if (abs_squared(root.w, &contribution[at]) < 0 || ids_push(&inserted, at) < 0) {
        goto done;
    }
    present[at] = 1;
    recs = records(w.record);
    for (i = 0; i < order.len; i++) {
        prefetch_edges(w.nodes, &order, i);
        incoming = present[i] ? contribution[i] : 0.0;
        if (incoming == 0.0) {
            continue;
        }
        id = order.data[i];
        if (read_node_edges(PyList_GET_ITEM(w.nodes, id), v_edges_off, 2, vnode_type, edges) < 0) {
            goto done;
        }
        for (k = 0; k < 2; k++) {
            if (recs[id].child[k] == REC_TERMINAL || IS_ZERO(edges[k].w)) {
                continue;
            }
            /* contributions.get(child, 0.0) + incoming * abs(weight) ** 2 */
            if (abs_squared(edges[k].w, &term) < 0) {
                goto done;
            }
            term = incoming * term;
            at = position[recs[id].child[k]];
            if (present[at]) {
                contribution[at] = contribution[at] + term;
            }
            else {
                contribution[at] = 0.0 + term;
                present[at] = 1;
                if (ids_push(&inserted, at) < 0) {
                    goto done;
                }
            }
        }
    }
    if ((result = PyDict_New()) == NULL) {
        goto done;
    }
    for (i = 0; i < inserted.len; i++) {
        at = inserted.data[i];
        value = PyFloat_FromDouble(contribution[at]);
        if (value == NULL ||
            PyDict_SetItem(result, PyList_GET_ITEM(w.nodes, order.data[at]), value) < 0) {
            Py_XDECREF(value);
            Py_CLEAR(result);
            goto done;
        }
        Py_DECREF(value);
    }
    status = 1;
done:
    if (status == 0) {
        result = Py_None;
        Py_INCREF(result);
    }
    PyMem_Free(position);
    PyMem_Free(contribution);
    PyMem_Free(present);
    PyMem_Free(order.data);
    PyMem_Free(inserted.data);
    walk_close(&w);
    return result;
}

/* ------------------------------------------------------------------ */
/* The rebuild of an approximation round                               */
/* ------------------------------------------------------------------ */

/* State of one rebuild.  `slot` maps a record id of the walked diagram
 * to REMOVED, to 0 before the node is rebuilt, or to 1 + its position in
 * `memo`, which has room for every reached node. */
typedef struct {
    PyObject *record;
    int32_t *slot;
    Edge *memo;
    int32_t rebuilt;
} Rebuild;

enum { REMOVED = -1 };

/* DDBackend.rebuild_without's recursion: `edge` with every edge into a
 * removed node zeroed.  `id` is the record id of edge.n. */
static int
rebuild(Ctx *c, Rebuild *r, Edge edge, int32_t id, long level, Edge *out)
{
    Edge children[2], rebuilt[2];
    int32_t ids[2];
    int k;
    if (IS_ZERO(edge.w)) {
        *out = ZERO;
        return 0;
    }
    if (level < 0) {
        *out = edge;
        return 0;
    }
    if (edge.n == NULL || id < 0) {
        PyErr_SetString(PyExc_TypeError, "rebuild_without reached a terminal above level 0");
        return -1;
    }
    if (r->slot[id] == REMOVED) {
        *out = ZERO;
        return 0;
    }
    if (r->slot[id] == 0) {
        /* make_vedge may grow the record: copy the entry out first. */
        ids[0] = records(r->record)[id].child[0];
        ids[1] = records(r->record)[id].child[1];
        if (read_node_edges(edge.n, v_edges_off, 2, vnode_type, children) < 0 ||
            Py_EnterRecursiveCall(" in rebuild_without")) {
            return -1;
        }
        for (k = 0; k < 2; k++) {
            if (rebuild(c, r, children[k], ids[k], level - 1, &rebuilt[k]) < 0) {
                Py_LeaveRecursiveCall();
                return -1;
            }
        }
        Py_LeaveRecursiveCall();
        if (make_vedge(c, level, rebuilt[0], rebuilt[1], &r->memo[r->rebuilt]) < 0) {
            return -1;
        }
        r->slot[id] = ++r->rebuilt;
    }
    out->w = _Py_c_prod(r->memo[r->slot[id] - 1].w, edge.w);
    out->n = r->memo[r->slot[id] - 1].n;
    return 0;
}

/* Mark the arena slots of `removed` (a set).  Returns 1, or 0 when it
 * holds something other than a VNode (the caller falls back to the
 * generic rebuild, which compares with Python semantics), -1 on error. */
static int
mark_removed(const Walk *w, PyObject *removed, int32_t *slot)
{
    PyObject *iterator, *item;
    int is_owned, rc = 1;
    if ((iterator = PyObject_GetIter(removed)) == NULL) {
        return -1;
    }
    while ((item = PyIter_Next(iterator)) != NULL) {
        if (!Py_IS_TYPE(item, vnode_type)) {
            rc = 0;
        }
        else if ((is_owned = owned(w->nodes, item)) < 0) {
            rc = -1;
        }
        else if (is_owned) {
            /* A live slot's index is an int below the arena size. */
            slot[PyLong_AsSsize_t(SLOT(item, v_index_off))] = REMOVED;
        }
        Py_DECREF(item);
        if (rc <= 0) {
            break;
        }
    }
    Py_DECREF(iterator);
    return rc < 0 || PyErr_Occurred() ? -1 : rc;
}

static PyObject *
py_rebuild_without(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    Walk w;
    Rebuild r = {NULL, NULL, NULL, 0};
    PyObject *rebuilt = NULL;
    Edge edge, result = ZERO;
    Py_ssize_t count;
    long level;
    int status;
    (void)module;
    if (check_args("rebuild_without", nargs, 4) < 0 || read_edge(args[1], vnode_type, &edge) < 0 ||
        read_level(args[2], &level) < 0) {
        return NULL;
    }
    if (!PyAnySet_Check(args[3])) {
        PyErr_Format(PyExc_TypeError, "removed must be a set, not %.100s",
                     Py_TYPE(args[3])->tp_name);
        return NULL;
    }
    /* The generic recursion returns these edges before reading a node. */
    if (IS_ZERO(edge.w)) {
        return pack(ZERO.w, SNAP_NONE, NULL);
    }
    if (level < 0) {
        Py_INCREF(args[1]);
        return args[1];
    }
    if (edge.n == NULL) {
        PyErr_SetString(PyExc_TypeError, "rebuild_without reached a terminal above level 0");
        return NULL;
    }
    /* Walk first, so a foreign diagram falls back before anything is
     * interned. */
    if ((status = walk_open(&w, args[0], edge.n)) > 0 &&
        (status = collect(&w, NULL, &count)) > 0) {
        r.slot = PyMem_Calloc((size_t)w.size, sizeof(int32_t));
        r.memo = PyMem_Malloc((size_t)count * sizeof(Edge));
        if (r.slot == NULL || r.memo == NULL) {
            PyErr_NoMemory();
            status = -1;
        }
        else {
            status = mark_removed(&w, args[3], r.slot);
        }
    }
    if (status > 0) {
        if ((status = ctx_open(&c, args[0], USE_VNODES)) == 0) {
            r.record = c.record;
            status = rebuild(&c, &r, edge, w.root, level, &result);
        }
        rebuilt = finish(&c, status, result);
    }
    else if (status == 0) {
        rebuilt = Py_None;
        Py_INCREF(rebuilt);
    }
    walk_close(&w);
    PyMem_Free(r.slot);
    PyMem_Free(r.memo);
    return rebuilt;
}

/* ------------------------------------------------------------------ */
/* Inner product and reclaim entries                                   */
/* ------------------------------------------------------------------ */

static int
read_node_arg(PyObject *obj, PyObject **node)
{
    if (obj == Py_None) {
        *node = NULL;
    }
    else if (Py_IS_TYPE(obj, vnode_type)) {
        *node = obj;
    }
    else {
        PyErr_Format(PyExc_TypeError, "node must be %.100s or None, not %.100s",
                     vnode_type->tp_name, Py_TYPE(obj)->tp_name);
        return -1;
    }
    return 0;
}

static PyObject *
py_inner_nodes(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    PyObject *n1, *n2, *result;
    Py_complex total = {0.0, 0.0};
    long level;
    int status;
    (void)module;
    if (check_args("inner_nodes", nargs, 4) < 0 || read_node_arg(args[1], &n1) < 0 ||
        read_node_arg(args[2], &n2) < 0 || read_level(args[3], &level) < 0) {
        return NULL;
    }
    if (ctx_open(&c, args[0], USE_VNODES | USE_VCACHES) < 0) {
        ctx_close(&c, 1);
        return NULL;
    }
    status = inner(&c, n1, n2, level, &total);
    result = status < 0 ? NULL : PyComplex_FromCComplex(total);
    if (ctx_close(&c, result == NULL) < 0) {
        Py_CLEAR(result);
    }
    return result;
}

/* Renumber the record after a reclaim compacted `_v_nodes`: entry `old`
 * moves to id_map[old] (-1: freed) with its children's ids mapped too. */
static PyObject *
py_compact_record(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *record, *id_map;
    Rec *recs, rec;
    Py_ssize_t size, old, new, kept = 0, mapped;
    int k;
    (void)module;
    if (check_args("compact_record", nargs, 2) < 0) {
        return NULL;
    }
    record = args[0];
    id_map = args[1];
    if (!PyByteArray_Check(record) || !PyList_Check(id_map)) {
        PyErr_SetString(PyExc_TypeError, "compact_record(record: bytearray, id_map: list)");
        return NULL;
    }
    size = PyList_GET_SIZE(id_map);
    if (PyByteArray_GET_SIZE(record) != size * (Py_ssize_t)sizeof(Rec)) {
        PyErr_Format(PyExc_RuntimeError, "arena record holds %zd bytes for %zd nodes",
                     PyByteArray_GET_SIZE(record), size);
        return NULL;
    }
    recs = records(record);
    for (old = 0; old < size; old++) {
        new = PyLong_AsSsize_t(PyList_GET_ITEM(id_map, old));
        if (new == -1 && PyErr_Occurred()) {
            return NULL;
        }
        if (new < 0) {
            continue;
        }
        rec = recs[old];
        for (k = 0; k < 2; k++) {
            if (rec.child[k] < 0) {
                continue;
            }
            mapped = rec.child[k] < old ? PyLong_AsSsize_t(PyList_GET_ITEM(id_map, rec.child[k]))
                                        : -1;
            if (mapped < 0) {
                if (!PyErr_Occurred()) {
                    PyErr_Format(PyExc_RuntimeError,
                                 "reclaim kept slot %zd but not its child %d", old,
                                 (int)rec.child[k]);
                }
                return NULL;
            }
            rec.child[k] = (int32_t)mapped;
        }
        /* Survivors keep their order, so `new` never passes `old`. */
        if (new != kept) {
            PyErr_SetString(PyExc_RuntimeError, "reclaim id map is not dense");
            return NULL;
        }
        recs[new] = rec;
        kept++;
    }
    if (PyByteArray_Resize(record, kept * (Py_ssize_t)sizeof(Rec)) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyMethodDef core_methods[] = {
    {"make_vedge", (PyCFunction)(void (*)(void))py_make_vedge, METH_FASTCALL,
     "make_vedge(backend, level, e0, e1) -> edge"},
    {"vadd", (PyCFunction)(void (*)(void))py_vadd, METH_FASTCALL,
     "vadd(backend, e1, e2, level) -> edge"},
    {"multiply_mv", (PyCFunction)(void (*)(void))py_multiply_mv, METH_FASTCALL,
     "multiply_mv(backend, me, ve, level) -> edge"},
    {"make_medge", (PyCFunction)(void (*)(void))py_make_medge, METH_FASTCALL,
     "make_medge(backend, level, edges) -> edge"},
    {"madd", (PyCFunction)(void (*)(void))py_madd, METH_FASTCALL,
     "madd(backend, e1, e2, level) -> edge"},
    {"multiply_mm", (PyCFunction)(void (*)(void))py_multiply_mm, METH_FASTCALL,
     "multiply_mm(backend, ae, be, level) -> edge"},
    {"node_count", (PyCFunction)(void (*)(void))py_node_count, METH_FASTCALL,
     "node_count(backend, edge) -> int, or None for a foreign diagram"},
    {"vnodes", (PyCFunction)(void (*)(void))py_vnodes, METH_FASTCALL,
     "vnodes(backend, edge) -> list, or None for a foreign diagram"},
    {"norm_contributions", (PyCFunction)(void (*)(void))py_norm_contributions, METH_FASTCALL,
     "norm_contributions(backend, edge) -> dict, or None for a foreign diagram"},
    {"rebuild_without", (PyCFunction)(void (*)(void))py_rebuild_without, METH_FASTCALL,
     "rebuild_without(backend, edge, level, removed) -> edge, or None for a foreign diagram"},
    {"inner_nodes", (PyCFunction)(void (*)(void))py_inner_nodes, METH_FASTCALL,
     "inner_nodes(backend, n1, n2, level) -> complex"},
    {"compact_record", (PyCFunction)(void (*)(void))py_compact_record, METH_FASTCALL,
     "compact_record(record, id_map) -> None"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT, "_arena_core", "Native core of the arena DD engine.", -1,
    core_methods, NULL, NULL, NULL, NULL,
};

/* Offset of an object __slots__ member of a node class. */
static int
slot_offset(PyTypeObject *type, const char *name, Py_ssize_t *offset)
{
    PyObject *descr = PyObject_GetAttrString((PyObject *)type, name);
    if (descr == NULL) {
        return -1;
    }
    if (!Py_IS_TYPE(descr, &PyMemberDescr_Type) ||
        ((PyMemberDescrObject *)descr)->d_member->type != T_OBJECT_EX) {
        PyErr_Format(PyExc_TypeError, "%.100s.%s is not an object slot", type->tp_name,
                     name);
        Py_DECREF(descr);
        return -1;
    }
    *offset = ((PyMemberDescrObject *)descr)->d_member->offset;
    Py_DECREF(descr);
    return 0;
}

static int
node_class(PyObject *module, const char *name, PyTypeObject **type)
{
    PyObject *obj = PyObject_GetAttrString(module, name);
    if (obj == NULL) {
        return -1;
    }
    if (!PyType_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "repro.dd.node.%s is not a class", name);
        Py_DECREF(obj);
        return -1;
    }
    *type = (PyTypeObject *)obj;
    return 0;
}

static int
init_globals(void)
{
    PyObject *node_module;
    int k, rc;
    struct {
        PyObject **slot;
        const char *text;
    } names[] = {
        {&s_tolerance, "_tolerance"},
        {&s_inv_tolerance, "_inv_tolerance"},
        {&s_vtable, "_vtable"},
        {&s_v_nodes, "_v_nodes"},
        {&s_v_record, "_v_record"},
        {&s_vadd_cache, "_vadd_cache"},
        {&s_mv_cache, "_mv_cache"},
        {&s_inner_cache, "_inner_cache"},
        {&s_cache_limit, "cache_limit"},
        {&s_counting, "_counting"},
        {&s_stats, "stats"},
        {&s_cache_counts, "_cache_counts"},
        {&s_vcount_cache, "_vcount_cache"},
        {&s_checked_insert, "_checked_insert"},
        {&s_vadd, "vadd"},
        {&s_mv, "mv"},
        {&s_inner, "inner"},
        {&s_vnodes_created, "vnodes_created"},
        {&s_mtable, "_mtable"},
        {&s_m_nodes, "_m_nodes"},
        {&s_madd_cache, "_madd_cache"},
        {&s_mm_cache, "_mm_cache"},
        {&s_madd, "madd"},
        {&s_mm, "mm"},
        {&s_mnodes_created, "mnodes_created"},
    };
    for (k = 0; k < (int)(sizeof(names) / sizeof(names[0])); k++) {
        if ((*names[k].slot = PyUnicode_InternFromString(names[k].text)) == NULL) {
            return -1;
        }
    }
    for (k = 0; k < 5; k++) {
        if ((targets[k] = PyComplex_FromCComplex(target_values[k])) == NULL) {
            return -1;
        }
    }
    if ((zero_edge = Py_BuildValue("(OO)", targets[SNAP_ZERO], Py_None)) == NULL ||
        (ctable = PyImport_ImportModule("repro.dd.ctable")) == NULL ||
        (node_module = PyImport_ImportModule("repro.dd.node")) == NULL) {
        return -1;
    }
    rc = node_class(node_module, "VNode", &vnode_type) < 0 ||
                 node_class(node_module, "MNode", &mnode_type) < 0 ||
                 slot_offset(vnode_type, "level", &v_level_off) < 0 ||
                 slot_offset(vnode_type, "edges", &v_edges_off) < 0 ||
                 slot_offset(vnode_type, "index", &v_index_off) < 0 ||
                 slot_offset(mnode_type, "level", &m_level_off) < 0 ||
                 slot_offset(mnode_type, "edges", &m_edges_off) < 0 ||
                 slot_offset(mnode_type, "index", &m_index_off) < 0
             ? -1
             : 0;
    Py_DECREF(node_module);
    return rc;
}

PyMODINIT_FUNC
PyInit__arena_core(void)
{
    if (init_globals() < 0) {
        return NULL;
    }
    return PyModule_Create(&core_module);
}
