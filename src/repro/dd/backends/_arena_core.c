/* Native core of the arena DD engine (repro.dd.backends.arena).
 *
 * Implements make_vedge, vadd, the multiply_mv recursion and node_count
 * directly on the arena's own Python structures: the unique table
 * `_vtable`, the node list `_v_nodes`, the compute caches `_vadd_cache`
 * and `_mv_cache`, the `_vcount_cache` memo, `stats` and `_cache_counts`.
 * Keys and values are the same Python objects the pure-Python engine
 * stored, so reclaim, the DDSan audit and serialization read them
 * unchanged.  Built on first use by repro.dd.backends.native.
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
 * `_v_nodes` (reclaim only runs at the Python safe point before
 * multiply_mv), so the recursion passes nodes as borrowed pointers.
 * Nodes that come out of a cache or the unique table without being
 * arena slots are pinned for the call, because a cache flush could
 * otherwise free them mid-recursion.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <errno.h>
#include <math.h>

/* An edge inside the recursion: the weight as a C complex, the child as
 * a borrowed pointer (NULL is the terminal). */
typedef struct {
    Py_complex w;
    PyObject *n;
} Edge;

/* State of one top-level call. */
typedef struct {
    PyObject *self;
    PyObject *vtable;
    PyObject *nodes;
    PyObject *vadd_cache;
    PyObject *mv_cache;
    PyObject *pinned;
    Py_ssize_t cache_limit;
    int counting;
    double tol;
    double inv;
    Py_ssize_t created;
    Py_ssize_t vadd_counts[2]; /* hits, misses */
    Py_ssize_t mv_counts[2];
} Ctx;

static PyTypeObject *vnode_type;
static PyTypeObject *mnode_type;
static Py_ssize_t v_level_off, v_edges_off, v_index_off;
static Py_ssize_t m_edges_off, m_index_off;
static PyObject *ctable;
static PyObject *zero_edge;
static PyObject *targets[5];
static PyObject *s_tolerance, *s_inv_tolerance, *s_vtable, *s_v_nodes,
    *s_vadd_cache, *s_mv_cache, *s_cache_limit, *s_counting, *s_stats,
    *s_cache_counts, *s_vcount_cache, *s_checked_insert, *s_vadd, *s_mv,
    *s_vnodes_created;

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

/* True when `node` is the live slot `index` of `nodes`; -1 on error. */
static int
owned(PyObject *nodes, PyObject *node)
{
    Py_ssize_t index;
    PyObject *obj = node_index(node, v_index_off);
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

/* Hold a node read from a cache or the unique table for the rest of the
 * call unless an arena slot already holds it. */
static int
pin(Ctx *c, PyObject *node)
{
    int is_owned;
    if (node == NULL) {
        return 0;
    }
    is_owned = owned(c->nodes, node);
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

static int
cache_insert(Ctx *c, PyObject *cache, PyObject *key, Edge result, PyObject *name)
{
    int rc;
    PyObject *value = pack(result.w, SNAP_NONE, result.n);
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
        if (PyList_Append(c->nodes, node) < 0 || PyDict_SetItem(c->vtable, key, node) < 0) {
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
    long long mi, vi;
    PyObject *index, *key, *cached;
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
    if ((index = node_index(me.n, m_index_off)) == NULL ||
        ((mi = PyLong_AsLongLong(index)) == -1 && PyErr_Occurred()) ||
        (index = node_index(ve.n, v_index_off)) == NULL ||
        ((vi = PyLong_AsLongLong(index)) == -1 && PyErr_Occurred())) {
        return -1;
    }
    /* The pair key m.index * 2**32 + v.index, as the reclaim decodes it. */
    if (mi <= -(1LL << 31) || mi >= (1LL << 31) || vi <= -(1LL << 32) || vi >= (1LL << 32)) {
        PyErr_SetString(PyExc_OverflowError, "node index out of range");
        return -1;
    }
    if ((key = PyLong_FromLongLong(mi * (1LL << 32) + vi)) == NULL) {
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

static int
ctx_open(Ctx *c, PyObject *self, int arithmetic)
{
    PyObject *value;
    memset(c, 0, sizeof(*c));
    c->self = self;
    /* The tolerance is read on every top-level call: set_tolerance may
     * have changed it since the last one. */
    if (float_attr(ctable, s_tolerance, &c->tol) < 0 ||
        float_attr(ctable, s_inv_tolerance, &c->inv) < 0 ||
        (c->vtable = typed_attr(self, s_vtable, &PyDict_Type)) == NULL ||
        (c->nodes = typed_attr(self, s_v_nodes, &PyList_Type)) == NULL) {
        return -1;
    }
    if (!arithmetic) {
        return 0;
    }
    if ((c->vadd_cache = typed_attr(self, s_vadd_cache, &PyDict_Type)) == NULL ||
        (c->mv_cache = typed_attr(self, s_mv_cache, &PyDict_Type)) == NULL ||
        (value = PyObject_GetAttr(self, s_cache_limit)) == NULL) {
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

/* Publish vnodes_created and the hit/miss tallies -- also when the call
 * failed, keeping its exception -- and release the call's references. */
static int
ctx_close(Ctx *c, int failed)
{
    PyObject *error = NULL, *stats, *counts;
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
    if (c->created) {
        if ((stats = PyObject_GetAttr(c->self, s_stats)) == NULL ||
            add_count(stats, s_vnodes_created, c->created) < 0) {
            rc = -1;
        }
        Py_XDECREF(stats);
    }
    if (rc == 0 && c->counting) {
        if ((counts = PyObject_GetAttr(c->self, s_cache_counts)) == NULL ||
            add_hits_misses(counts, s_vadd, c->vadd_counts) < 0 ||
            add_hits_misses(counts, s_mv, c->mv_counts) < 0) {
            rc = -1;
        }
        Py_XDECREF(counts);
    }
    Py_CLEAR(c->vtable);
    Py_CLEAR(c->nodes);
    Py_CLEAR(c->vadd_cache);
    Py_CLEAR(c->mv_cache);
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
    if (ctx_open(&c, args[0], 0) < 0) {
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
    if (ctx_open(&c, args[0], 1) < 0) {
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
    if (ctx_open(&c, args[0], 1) < 0) {
        ctx_close(&c, 1);
        return NULL;
    }
    status = mv(&c, me, ve, level, &result);
    return finish(&c, status, result);
}

/* Reachable-node count, memoized in `_vcount_cache` by root index.
 * Returns None when the diagram holds a node that is not a live slot of
 * this arena; the caller then runs the generic traversal. */
static PyObject *
py_node_count(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *nodes = NULL, *memo = NULL, *root_index, *result = NULL, *node;
    PyObject **stack = NULL;
    unsigned char *seen = NULL;
    Py_ssize_t size, count = 1, depth = 0, capacity = 64, index;
    Edge root, children[2];
    int is_owned, k;
    (void)module;
    if (check_args("node_count", nargs, 2) < 0 || read_edge(args[1], vnode_type, &root) < 0) {
        return NULL;
    }
    if (root.n == NULL) {
        return PyLong_FromLong(0);
    }
    if ((nodes = typed_attr(args[0], s_v_nodes, &PyList_Type)) == NULL ||
        (memo = typed_attr(args[0], s_vcount_cache, &PyDict_Type)) == NULL ||
        (is_owned = owned(nodes, root.n)) < 0) {
        goto done;
    }
    if (!is_owned) {
        result = Py_None;
        Py_INCREF(result);
        goto done;
    }
    root_index = SLOT(root.n, v_index_off);
    if ((result = PyDict_GetItemWithError(memo, root_index)) != NULL) {
        Py_INCREF(result);
        goto done;
    }
    if (PyErr_Occurred()) {
        goto done;
    }
    size = PyList_GET_SIZE(nodes);
    seen = PyMem_Calloc((size_t)size / 8 + 1, 1);
    stack = PyMem_Malloc((size_t)capacity * sizeof(PyObject *));
    if (seen == NULL || stack == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    index = PyLong_AsSsize_t(root_index);
    seen[index >> 3] |= (unsigned char)(1 << (index & 7));
    stack[depth++] = root.n;
    while (depth > 0) {
        node = stack[--depth];
        if (read_node_edges(node, v_edges_off, 2, vnode_type, children) < 0) {
            goto done;
        }
        for (k = 0; k < 2; k++) {
            if (children[k].n == NULL) {
                continue;
            }
            if ((is_owned = owned(nodes, children[k].n)) <= 0) {
                if (is_owned == 0) {
                    result = Py_None;
                    Py_INCREF(result);
                }
                goto done;
            }
            index = PyLong_AsSsize_t(SLOT(children[k].n, v_index_off));
            if (seen[index >> 3] & (1 << (index & 7))) {
                continue;
            }
            seen[index >> 3] |= (unsigned char)(1 << (index & 7));
            count++;
            if (depth == capacity) {
                PyObject **grown = PyMem_Realloc(stack, (size_t)capacity * 2 * sizeof(PyObject *));
                if (grown == NULL) {
                    PyErr_NoMemory();
                    goto done;
                }
                stack = grown;
                capacity *= 2;
            }
            stack[depth++] = children[k].n;
        }
    }
    if ((result = PyLong_FromSsize_t(count)) != NULL &&
        PyDict_SetItem(memo, root_index, result) < 0) {
        Py_CLEAR(result);
    }
done:
    PyMem_Free(seen);
    PyMem_Free(stack);
    Py_XDECREF(nodes);
    Py_XDECREF(memo);
    return result;
}

static PyMethodDef core_methods[] = {
    {"make_vedge", (PyCFunction)(void (*)(void))py_make_vedge, METH_FASTCALL,
     "make_vedge(backend, level, e0, e1) -> edge"},
    {"vadd", (PyCFunction)(void (*)(void))py_vadd, METH_FASTCALL,
     "vadd(backend, e1, e2, level) -> edge"},
    {"multiply_mv", (PyCFunction)(void (*)(void))py_multiply_mv, METH_FASTCALL,
     "multiply_mv(backend, me, ve, level) -> edge"},
    {"node_count", (PyCFunction)(void (*)(void))py_node_count, METH_FASTCALL,
     "node_count(backend, edge) -> int, or None for a foreign diagram"},
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
        {&s_vadd_cache, "_vadd_cache"},
        {&s_mv_cache, "_mv_cache"},
        {&s_cache_limit, "cache_limit"},
        {&s_counting, "_counting"},
        {&s_stats, "stats"},
        {&s_cache_counts, "_cache_counts"},
        {&s_vcount_cache, "_vcount_cache"},
        {&s_checked_insert, "_checked_insert"},
        {&s_vadd, "vadd"},
        {&s_mv, "mv"},
        {&s_vnodes_created, "vnodes_created"},
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
