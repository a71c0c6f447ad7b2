/* Native core of the arena DD engine (repro.dd.backends.arena).
 *
 * Implements make_vedge, vadd, the multiply_mv recursion, the inner
 * product, the node-removal round every approximation policy runs
 * (contributions, selection under a budget and a count, and rebuild),
 * the whole-diagram sweeps (node_count, vnodes, norm_contributions),
 * the packed node table of a stored state and its verbatim load, on
 * the matrix side make_medge, madd and the multiply_mm recursion, gate
 * lowering (a gate's A + (I - P) and the permutation block of cmodmul,
 * with the base's make_medge/madd calls in its order), and the reclaim
 * that frees what a cache flush unpinned.
 *
 * An arena's storage is one State object, the backend's `_state`: the
 * node lists `_v_nodes` and `_m_nodes`, the record `_v_record`, and the
 * seven hash tables defined here -- the unique tables `_vtable` and
 * `_mtable` and the compute caches `_vadd_cache`, `_madd_cache`,
 * `_mv_cache`, `_mm_cache` and `_inner_cache`.  The tables hold their
 * keys inline, with no Python key objects, and show Python only len(),
 * clear() and items(); items() rebuilds the key tuples the DDSan audit
 * and the tests read.  A top-level call fetches the State once.  Built
 * on first use by repro.dd.backends.native.
 *
 * The record: `_v_record` is a bytearray holding one Rec (level, two
 * child ids, a pad and the two edge weights, 48 bytes) per `_v_nodes`
 * slot, appended here whenever a node is interned and renumbered by the
 * reclaim.  A vector node is its record: each slot holds an ArenaVNode
 * that keeps only its slot, the record and its two children, and reads
 * level, index and edges from its entry (read-only; edges is built on
 * access).  The recursions, sweeps and the reclaim read the record; a
 * hand-built VNode keeps the object path.  A child that is not a slot of
 * the arena is recorded as REC_FOREIGN, and a sweep that meets one
 * returns None so the caller can run the generic traversal.
 *
 * Float contract: every complex operation calls CPython's own _Py_c_*
 * helper with the operands in the order the Python expression has them,
 * a float operand widened to (x, 0.0) as CPython 3.10-3.12 do, so each
 * result is bit-for-bit the reference engine's.  Bucketing replicates
 * float.__round__ and snapping follows ctable.snap_boxed branch for
 * branch.  The file must be built with -ffp-contract=off and without
 * fast-math (the loader's flags).
 *
 * Lifetime rule: a node holds its children and its record, never the
 * tables, so ownership is acyclic and reference counting alone frees a
 * dropped arena.  Within one top-level call every arena node is held by
 * `_v_nodes` or `_m_nodes` (reclaim only runs at the Python safe point
 * before multiply_mv), so the recursion passes nodes as borrowed pointers.
 * Nodes that come out of a cache or the unique table without being
 * arena slots are pinned for the call, because a cache flush could
 * otherwise free them mid-recursion.  No pointer into a table is kept
 * across anything that can run Python code: an insert probes afresh.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <errno.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* An edge inside the recursion: the weight as a C complex, the child as
 * a borrowed pointer (NULL is the terminal). */
typedef struct {
    Py_complex w;
    PyObject *n;
} Edge;

/* One `_v_record` entry: the node's level, its children's ids and its
 * two edge weights, bit for bit as interned (48 bytes). */
typedef struct {
    int32_t level;
    int32_t child[2];
    int32_t pad; /* always 0 */
    Py_complex w[2];
} Rec;

_Static_assert(sizeof(Rec) == 48, "record entry layout");

/* An arena vector node (ArenaVNode): its slot, the record it reads and
 * its two children (NULL is the terminal).  Holding the children keeps
 * ownership acyclic, so reference counting alone frees a dropped arena;
 * holding the record keeps a node readable after its arena is gone. */
typedef struct {
    PyObject_HEAD
    PyObject *record;
    PyObject *child[2];
    Py_ssize_t slot;
} Node;

static PyTypeObject Node_Type;
#define IS_ARENA_VNODE(obj) Py_IS_TYPE(obj, &Node_Type)

/* Child ids that are not slots: the terminal, and a node of no arena
 * slot (hand-built, or another package's). */
enum { REC_TERMINAL = -1, REC_FOREIGN = -2 };

/* ------------------------------------------------------------------ */
/* Hash tables                                                         */
/* ------------------------------------------------------------------ */

/* The seven tables of a State, in State.tables order. */
enum { T_VTABLE, T_MTABLE, T_VADD, T_MADD, T_MV, T_MM, T_INNER, N_TABLES };

/* Entry layouts.  Every entry starts with its 32-bit hash (HASH_DELETED
 * marks a removed entry, only ever seen inside a reclaim), and its key
 * runs from there up to its value, so two keys compare with one memcmp.
 * That is exactly the equality of the tuples the keys stand for,
 * because every key field has one representation per value: a level, a
 * node id, a child pointer (nodes compare by identity; NULL is the
 * terminal) or a weight bucket, held as its integral double with -0.0
 * folded into 0.0 (the int round() returned has no signed zero).  The
 * keys have no padding bytes. */

typedef struct {
    uint32_t hash;
    int32_t level;
    double bucket[4]; /* re, im of edge 0, then of edge 1 */
    PyObject *child[2];
} VKey;

typedef struct {
    VKey key;
    PyObject *node;
} VEntry;

typedef struct {
    uint32_t hash;
    int32_t level;
    double bucket[8]; /* re, im of each quadrant's edge */
    PyObject *child[4];
} MKey;

typedef struct {
    MKey key;
    PyObject *node;
} MEntry;

/* The two node ids of a compute-cache key; the vadd/madd key goes on
 * with the ratio's buckets. */
typedef struct {
    uint32_t hash;
    int32_t id[2];
    int32_t pad; /* always 0 */
} PairKey;

typedef struct {
    PairKey ids;
    double ratio[2];
} AddKey;

/* A cached result edge; NULL is the terminal. */
typedef struct {
    Py_complex w;
    PyObject *node;
} EdgeValue;

typedef struct {
    AddKey key;
    EdgeValue value;
} AddEntry;

typedef struct {
    PairKey key;
    EdgeValue value;
} PairEntry;

typedef struct {
    PairKey key;
    Py_complex value;
} InnerEntry;

/* Keys compare bytewise: no padding bytes inside them. */
_Static_assert(sizeof(VKey) == 8 + 4 * sizeof(double) + 2 * sizeof(PyObject *) &&
                   sizeof(MKey) == 8 + 8 * sizeof(double) + 4 * sizeof(PyObject *) &&
                   sizeof(PairKey) == 16 && sizeof(AddKey) == 32,
               "key padding");
_Static_assert(offsetof(AddEntry, value) == sizeof(AddKey) &&
                   offsetof(PairEntry, value) == sizeof(PairKey) &&
                   offsetof(InnerEntry, value) == sizeof(PairKey),
               "a value follows its key");

enum { KIND_VNODE, KIND_MNODE, KIND_ADD, KIND_PAIR, KIND_INNER };

static const struct {
    size_t size;     /* bytes per entry */
    size_t key_size; /* bytes of key, the hash included */
} kinds[] = {
    [KIND_VNODE] = {sizeof(VEntry), sizeof(VKey)},
    [KIND_MNODE] = {sizeof(MEntry), sizeof(MKey)},
    [KIND_ADD] = {sizeof(AddEntry), sizeof(AddKey)},
    [KIND_PAIR] = {sizeof(PairEntry), sizeof(PairKey)},
    [KIND_INNER] = {sizeof(InnerEntry), sizeof(PairKey)},
};

static const int table_kinds[N_TABLES] = {
    [T_VTABLE] = KIND_VNODE, [T_MTABLE] = KIND_MNODE, [T_VADD] = KIND_ADD,
    [T_MADD] = KIND_ADD,     [T_MV] = KIND_PAIR,      [T_MM] = KIND_PAIR,
    [T_INNER] = KIND_INNER,
};

enum { HASH_DELETED = 1 };

/* A table keeps its entries densely in insertion order and finds them
 * through an index of (hash, position) slots, probed linearly: a probe
 * reads 8-byte slots, eight to a cache line, and touches an entry only
 * when its hash matches, so a miss costs about one line of the index.
 * The index doubles before its load would pass 1/2, rebuilt from the
 * entries' stored hashes; the entry array doubles as it fills (a
 * realloc: the entries do not move within it). */
typedef struct {
    PyObject_HEAD
    uint64_t *index;      /* capacity slots: 0 free, else hash << 32 | (position + 1) */
    size_t mask;          /* capacity - 1 */
    char *entries;        /* `count` entries, deleted ones included */
    Py_ssize_t count;
    Py_ssize_t allocated; /* room in `entries` */
    Py_ssize_t used;      /* live entries */
    int kind;
} Table;

#define MIN_CAPACITY 8
#define POSITION(slot) ((size_t)((slot)&0xFFFFFFFFu) - 1)

static inline uint32_t
head(const void *entry)
{
    uint32_t hash;
    memcpy(&hash, entry, sizeof(hash));
    return hash;
}

static inline uint64_t
mix(uint64_t h, uint64_t word)
{
    h = (h ^ word) * 0x9E3779B97F4A7C15ULL;
    return h ^ (h >> 32);
}

/* murmur3's finalizer, moved off 0 and HASH_DELETED: neither a zeroed
 * nor a deleted entry reads as live. */
static inline uint32_t
finish_hash(uint64_t h)
{
    uint32_t folded;
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDULL;
    h ^= h >> 33;
    folded = (uint32_t)h;
    return folded > HASH_DELETED ? folded : folded + 2;
}

static inline uint64_t
double_bits(double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof(bits));
    return bits;
}

static uint32_t
vkey_hash(const VKey *key)
{
    uint64_t h = mix(0x243F6A8885A308D3ULL, (uint32_t)key->level);
    int k;
    for (k = 0; k < 4; k++) {
        h = mix(h, double_bits(key->bucket[k]));
    }
    for (k = 0; k < 2; k++) {
        h = mix(h, (uintptr_t)key->child[k]);
    }
    return finish_hash(h);
}

static uint32_t
mkey_hash(const MKey *key)
{
    uint64_t h = mix(0x452821E638D01377ULL, (uint32_t)key->level);
    int k;
    for (k = 0; k < 8; k++) {
        h = mix(h, double_bits(key->bucket[k]));
    }
    for (k = 0; k < 4; k++) {
        h = mix(h, (uintptr_t)key->child[k]);
    }
    return finish_hash(h);
}

/* The hash of a cache key: its ids, and for vadd/madd its ratio. */
static uint32_t
ids_hash(const PairKey *key, const double *ratio)
{
    uint64_t h = mix(0x13198A2E03707344ULL,
                     (uint64_t)(uint32_t)key->id[0] << 32 | (uint32_t)key->id[1]);
    if (ratio != NULL) {
        h = mix(mix(h, double_bits(ratio[0])), double_bits(ratio[1]));
    }
    return finish_hash(h);
}

/* The index slot of `key`: the one naming its live entry, or the free
 * slot that ends its probe (the load limit keeps one free).  A deleted
 * entry never matches: its stored hash is HASH_DELETED. */
static inline size_t
probe(const Table *t, const void *key, size_t size, size_t key_size)
{
    uint32_t hash = head(key);
    size_t i = hash & t->mask;
    uint64_t slot;
    for (;;) {
        slot = t->index[i];
        if (slot == 0 || ((uint32_t)(slot >> 32) == hash &&
                          memcmp(t->entries + POSITION(slot) * size, key, key_size) == 0)) {
            return i;
        }
        i = (i + 1) & t->mask;
    }
}

/* The live entry of `key`, or NULL. */
static inline char *
lookup(const Table *t, const void *key, size_t size, size_t key_size)
{
    uint64_t slot = t->index[probe(t, key, size, key_size)];
    return slot == 0 ? NULL : t->entries + POSITION(slot) * size;
}

/* Index the live entries afresh in `capacity` slots. */
static int
index_rebuild(Table *t, size_t capacity)
{
    size_t size = kinds[t->kind].size, mask = capacity - 1, i;
    uint64_t *index = PyMem_Calloc(capacity, sizeof(uint64_t));
    Py_ssize_t position;
    uint32_t hash;
    if (index == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (position = 0; position < t->count; position++) {
        if ((hash = head(t->entries + (size_t)position * size)) <= HASH_DELETED) {
            continue;
        }
        i = hash & mask;
        while (index[i] != 0) {
            i = (i + 1) & mask;
        }
        index[i] = (uint64_t)hash << 32 | (uint64_t)(position + 1);
    }
    PyMem_Free(t->index);
    t->index = index;
    t->mask = mask;
    return 0;
}

/* The smallest index capacity for `entries` entries and one more. */
static size_t
capacity_for(Py_ssize_t entries)
{
    size_t capacity = MIN_CAPACITY;
    while ((size_t)(entries + 1) * 2 > capacity) {
        capacity *= 2;
    }
    return capacity;
}

/* Make room for one insert. */
static int
table_reserve(Table *t)
{
    size_t size = kinds[t->kind].size;
    Py_ssize_t allocated;
    char *entries;
    if (t->count == t->allocated) {
        if (t->count >= (Py_ssize_t)UINT32_MAX - 1) {
            PyErr_SetString(PyExc_OverflowError, "arena table is full");
            return -1;
        }
        allocated = t->allocated < MIN_CAPACITY ? MIN_CAPACITY : 2 * t->allocated;
        if ((entries = PyMem_Realloc(t->entries, (size_t)allocated * size)) == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        t->entries = entries;
        t->allocated = allocated;
    }
    if ((size_t)(t->count + 1) * 2 > t->mask + 1) {
        return index_rebuild(t, 2 * (t->mask + 1));
    }
    return 0;
}

/* The entry of `key` after table_reserve: its live entry (*fresh = 0),
 * or a new last entry holding the key (*fresh = 1) whose value the
 * caller sets. */
static inline char *
claim(Table *t, const void *key, size_t size, size_t key_size, int *fresh)
{
    size_t i = probe(t, key, size, key_size);
    char *entry;
    if (t->index[i] != 0) {
        *fresh = 0;
        return t->entries + POSITION(t->index[i]) * size;
    }
    *fresh = 1;
    entry = t->entries + (size_t)t->count * size;
    memcpy(entry, key, key_size);
    t->index[i] = (uint64_t)head(key) << 32 | (uint64_t)(t->count + 1);
    t->count++;
    t->used++;
    return entry;
}

/* Drop the references an entry holds: a node table's key children and
 * node, a cache's result node. */
static void
entry_release(int kind, char *entry)
{
    int k;
    switch (kind) {
    case KIND_VNODE:
        for (k = 0; k < 2; k++) {
            Py_XDECREF(((VEntry *)entry)->key.child[k]);
        }
        Py_DECREF(((VEntry *)entry)->node);
        break;
    case KIND_MNODE:
        for (k = 0; k < 4; k++) {
            Py_XDECREF(((MEntry *)entry)->key.child[k]);
        }
        Py_DECREF(((MEntry *)entry)->node);
        break;
    case KIND_ADD:
        Py_XDECREF(((AddEntry *)entry)->value.node);
        break;
    case KIND_PAIR:
        Py_XDECREF(((PairEntry *)entry)->value.node);
        break;
    default:
        break;
    }
}

static void
release_entries(int kind, char *entries, Py_ssize_t count)
{
    size_t size = kinds[kind].size;
    Py_ssize_t position;
    for (position = 0; position < count; position++) {
        if (head(entries + (size_t)position * size) > HASH_DELETED) {
            entry_release(kind, entries + (size_t)position * size);
        }
    }
}

/* Drop every entry.  The table is consistent again before the first
 * reference is released. */
static int
table_clear(Table *t)
{
    uint64_t *index;
    char *entries = t->entries;
    Py_ssize_t count = t->count;
    if (count == 0 && t->mask + 1 == MIN_CAPACITY) {
        return 0;
    }
    if ((index = PyMem_Calloc(MIN_CAPACITY, sizeof(uint64_t))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    PyMem_Free(t->index);
    t->index = index;
    t->mask = MIN_CAPACITY - 1;
    t->entries = NULL;
    t->count = t->allocated = t->used = 0;
    release_entries(t->kind, entries, count);
    PyMem_Free(entries);
    return 0;
}

/* Delete a live entry (inside a reclaim only: the index still names it
 * until the reclaim compacts the table). */
static void
table_delete(Table *t, char *entry)
{
    union {
        VEntry v;
        MEntry m;
        AddEntry a;
    } copy;
    size_t size = kinds[t->kind].size;
    uint32_t deleted = HASH_DELETED;
    memcpy(&copy, entry, size);
    memset(entry, 0, size);
    memcpy(entry, &deleted, sizeof(deleted));
    t->used--;
    entry_release(t->kind, (char *)&copy);
}

/* Close the gaps deleted entries left, keeping the order, give back
 * the entry room beyond twice what is left, and index the rest afresh. */
static int
table_compact(Table *t)
{
    size_t size = kinds[t->kind].size;
    Py_ssize_t position, kept = 0;
    char *entry;
    for (position = 0; position < t->count; position++) {
        entry = t->entries + (size_t)position * size;
        if (head(entry) <= HASH_DELETED) {
            continue;
        }
        if (kept != position) {
            memcpy(t->entries + (size_t)kept * size, entry, size);
        }
        kept++;
    }
    t->count = kept;
    if (t->allocated > 2 * kept && t->allocated > MIN_CAPACITY) {
        Py_ssize_t allocated = kept < MIN_CAPACITY ? MIN_CAPACITY : kept;
        /* A shrink that fails leaves the larger array in place. */
        if ((entry = PyMem_Realloc(t->entries, (size_t)allocated * size)) != NULL) {
            t->entries = entry;
            t->allocated = allocated;
        }
    }
    return index_rebuild(t, capacity_for(kept));
}

/* ------------------------------------------------------------------ */
/* The arena state                                                     */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *v_nodes;  /* list */
    PyObject *v_record; /* bytearray */
    PyObject *m_nodes;  /* list */
    Table *tables[N_TABLES];
    Py_ssize_t cache_limit;
    char counting;
} State;

static PyTypeObject Table_Type;
static PyTypeObject State_Type;

/* State of one top-level call. */
typedef struct {
    PyObject *self;
    State *st;
    PyObject *pinned;
    Py_ssize_t cache_limit;
    int counting;
    double tol;
    double inv;
    Py_ssize_t created;
    Py_ssize_t m_created;
    Py_ssize_t counts[N_TABLES][2]; /* hits, misses of each cache */
} Ctx;

static PyTypeObject *vnode_type;
static PyTypeObject *mnode_type;
static Py_ssize_t v_level_off, v_edges_off;
static Py_ssize_t m_level_off, m_edges_off, m_index_off;
static PyObject *ctable, *ctable_dict;
static PyObject *zero_edge;
static PyObject *targets[5];
static PyObject *cache_names[N_TABLES]; /* NULL for the unique tables */
static PyObject *s_tolerance, *s_inv_tolerance, *s_state, *s_cache_flushed, *s_stats,
    *s_cache_counts, *s_vcount_cache, *s_vnodes_created, *s_mnodes_created, *s_identity;

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

/* round(x) as float.__round__ rounds it (half to even), as an integral
 * double with -0.0 folded into 0.0.  Returns -1, leaving the unrounded
 * non-finite value in *out, when int() of it would raise. */
static inline int
bucket_of(double x, double *out)
{
    double rounded = round(x);
    if (fabs(x - rounded) == 0.5) {
        rounded = 2.0 * round(x / 2.0);
    }
    *out = rounded == 0.0 ? 0.0 : rounded;
    return isfinite(rounded) ? 0 : -1;
}

/* The buckets round(x[k] * inv), k < n, into out, in order: the first
 * that fails raises int()'s error, as ctable.weight_key does
 * (OverflowError for an infinity, ValueError for NaN). */
static int
buckets(const double *x, int n, double inv, double *out)
{
    PyObject *never;
    int k;
    for (k = 0; k < n; k++) {
        if (bucket_of(x[k] * inv, &out[k]) < 0) {
            /* Raises: the value is not finite. */
            never = PyLong_FromDouble(out[k]);
            Py_XDECREF(never);
            return -1;
        }
    }
    return 0;
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
    else if (Py_IS_TYPE(node, type) || (type == vnode_type && IS_ARENA_VNODE(node))) {
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

/* The node's `level` slot, checked to be an int; a level beyond a long
 * reads as LONG_MAX. */
static int
level_of(PyObject *node, Py_ssize_t offset, long *level)
{
    PyObject *obj = SLOT(node, offset);
    int overflow;
    if (obj == NULL || !PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%.100s level must be an int", Py_TYPE(node)->tp_name);
        return -1;
    }
    *level = PyLong_AsLongAndOverflow(obj, &overflow);
    if (overflow) {
        *level = LONG_MAX; /* fits no key */
    }
    return *level == -1 && PyErr_Occurred() ? -1 : 0;
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

/* The record entry an arena node reads, or NULL (RuntimeError) when its
 * record no longer holds its slot. */
static const Rec *
node_rec(const Node *n)
{
    if (n->slot < 0 ||
        (size_t)(n->slot + 1) * sizeof(Rec) > (size_t)PyByteArray_GET_SIZE(n->record)) {
        PyErr_Format(PyExc_RuntimeError, "arena node %zd has no record entry", n->slot);
        return NULL;
    }
    return (const Rec *)PyByteArray_AS_STRING(n->record) + n->slot;
}

/* The two edges of a vector node: an arena node's from its record entry
 * and children, a hand-built VNode's from its `edges` slot. */
static int
vnode_edges(PyObject *node, Edge *out)
{
    const Rec *rec;
    int k;
    if (!IS_ARENA_VNODE(node)) {
        return read_node_edges(node, v_edges_off, 2, vnode_type, out);
    }
    if ((rec = node_rec((Node *)node)) == NULL) {
        return -1;
    }
    for (k = 0; k < 2; k++) {
        out[k].w = rec->w[k];
        out[k].n = ((Node *)node)->child[k];
    }
    return 0;
}

/* A vector node's level, from its record entry or its `level` slot. */
static int
vnode_level(PyObject *node, long *level)
{
    const Rec *rec;
    if (!IS_ARENA_VNODE(node)) {
        return level_of(node, v_level_off, level);
    }
    if ((rec = node_rec((Node *)node)) == NULL) {
        return -1;
    }
    *level = rec->level;
    return 0;
}

/* 1 when `node` is a live slot of the arena `st`, stored in `*slot`: an
 * arena vector node of its record whose slot holds it (a hand-built
 * VNode never is), or an MNode whose `index` names the slot holding it;
 * 0 when it is not; -1 on error. */
static int
live_slot(const State *st, PyObject *node, Py_ssize_t *slot)
{
    PyObject *nodes, *obj;
    if (IS_ARENA_VNODE(node)) {
        if (((Node *)node)->record != st->v_record) {
            return 0;
        }
        *slot = ((Node *)node)->slot;
        nodes = st->v_nodes;
    }
    else if (Py_IS_TYPE(node, mnode_type)) {
        if ((obj = node_index(node, m_index_off)) == NULL) {
            return -1;
        }
        *slot = PyLong_AsSsize_t(obj);
        if (*slot == -1 && PyErr_Occurred()) {
            if (!PyErr_ExceptionMatches(PyExc_OverflowError)) {
                return -1;
            }
            PyErr_Clear();
            return 0;
        }
        nodes = st->m_nodes;
    }
    else {
        return 0;
    }
    return 0 <= *slot && *slot < PyList_GET_SIZE(nodes) && PyList_GET_ITEM(nodes, *slot) == node;
}

static int
owned(const State *st, PyObject *node)
{
    Py_ssize_t slot;
    return live_slot(st, node, &slot);
}

/* The node's slot as a table id; returns as live_slot.  A slot past
 * INT32_MAX fits no id: it neither hits nor fills a cache entry. */
static int
node_id(const State *st, PyObject *node, int32_t *id)
{
    Py_ssize_t slot;
    int rc = live_slot(st, node, &slot);
    if (rc > 0 && slot > INT32_MAX) {
        return 0;
    }
    if (rc > 0) {
        *id = (int32_t)slot;
    }
    return rc;
}

/* The mv/mm/inner cache key of nodes `a` and `b`: 1 when both are arena
 * nodes, 0 when the pair is uncacheable, -1 on error. */
static int
pair_key(PairKey *key, const State *st, PyObject *a, PyObject *b)
{
    int rc = node_id(st, a, &key->id[0]);
    if (rc > 0) {
        rc = node_id(st, b, &key->id[1]);
    }
    if (rc > 0) {
        key->pad = 0;
        key->hash = ids_hash(key, NULL);
    }
    return rc;
}

/* The vadd/madd cache key of two nodes and the ratio of their weights;
 * returns as pair_key.  The ratio is bucketed for every pair, so a
 * non-finite one raises alike. */
static int
add_key(AddKey *key, const State *st, PyObject *a, PyObject *b, Py_complex ratio, double inv)
{
    double parts[2] = {ratio.real, ratio.imag};
    int rc = node_id(st, a, &key->ids.id[0]);
    if (rc > 0) {
        rc = node_id(st, b, &key->ids.id[1]);
    }
    if (rc < 0 || buckets(parts, 2, inv, key->ratio) < 0) {
        return -1;
    }
    if (rc > 0) {
        key->ids.pad = 0;
        key->ids.hash = ids_hash(&key->ids, key->ratio);
    }
    return rc;
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
    is_owned = owned(c->st, node);
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

/* ------------------------------------------------------------------ */
/* Compute-cache inserts                                               */
/* ------------------------------------------------------------------ */

/* Make room for one more entry in cache `which`.  At the limit the cache
 * is flushed wholesale and the backend's _cache_flushed(name, entries)
 * counts the flush and marks a reclaim. */
static int
cache_room(Ctx *c, int which)
{
    Table *t = c->st->tables[which];
    PyObject *entries, *done;
    if (t->used >= c->cache_limit) {
        if ((entries = PyLong_FromSsize_t(t->used)) == NULL) {
            return -1;
        }
        if (table_clear(t) < 0) {
            Py_DECREF(entries);
            return -1;
        }
        done = PyObject_CallMethodObjArgs(c->self, s_cache_flushed, cache_names[which],
                                          entries, NULL);
        Py_DECREF(entries);
        if (done == NULL) {
            return -1;
        }
        Py_DECREF(done);
    }
    return table_reserve(t);
}

/* cache[key] = result for a vadd/madd (AddKey) or mv/mm (PairKey) key. */
static inline int
cache_put_edge(Ctx *c, int which, const void *key, size_t size, size_t key_size, Edge result)
{
    EdgeValue *value;
    PyObject *old;
    int fresh;
    if (key == NULL) {
        return 0; /* an operand is not an arena node */
    }
    if (cache_room(c, which) < 0) {
        return -1;
    }
    value = (EdgeValue *)(claim(c->st->tables[which], key, size, key_size, &fresh) + key_size);
    old = fresh ? NULL : value->node;
    value->w = result.w;
    value->node = result.n;
    Py_XINCREF(result.n);
    Py_XDECREF(old);
    return 0;
}

static int
cache_put_inner(Ctx *c, const PairKey *key, Py_complex total)
{
    int fresh;
    if (key == NULL) {
        return 0; /* an operand is not an arena node */
    }
    if (cache_room(c, T_INNER) < 0) {
        return -1;
    }
    ((InnerEntry *)claim(c->st->tables[T_INNER], key, sizeof(InnerEntry), sizeof(PairKey),
                         &fresh))
        ->value = total;
    return 0;
}

/* unique_table[key] = node, after table_reserve.  A live entry keeps its
 * key and takes the node, as a dict assignment would. */
static void
node_put(Table *t, const void *key, PyObject *node)
{
    int arity = t->kind == KIND_VNODE ? 2 : 4, fresh, k;
    char *slot = claim(t, key, kinds[t->kind].size, kinds[t->kind].key_size, &fresh);
    PyObject **child = t->kind == KIND_VNODE ? ((VEntry *)slot)->key.child
                                             : ((MEntry *)slot)->key.child;
    PyObject **value = t->kind == KIND_VNODE ? &((VEntry *)slot)->node : &((MEntry *)slot)->node;
    PyObject *old = fresh ? NULL : *value;
    if (fresh) {
        for (k = 0; k < arity; k++) {
            Py_XINCREF(child[k]);
        }
    }
    Py_INCREF(node);
    *value = node;
    Py_XDECREF(old);
}

/* ------------------------------------------------------------------ */
/* The arena vector node type                                          */
/* ------------------------------------------------------------------ */

/* Deallocating a node releases its children, which may free them in
 * turn.  Past DEALLOC_DEPTH nested frees a node is put off on `deferred`
 * (linked through its cleared `record`) and freed when the outermost
 * free unwinds, so a long chain cannot exhaust the C stack. */
#define DEALLOC_DEPTH 64
static Node *deferred;
static int dealloc_depth;

static PyObject *tuple_steal(Py_ssize_t n, PyObject **items);

static void
node_release(Node *n)
{
    dealloc_depth++;
    Py_CLEAR(n->child[0]);
    Py_CLEAR(n->child[1]);
    PyObject_Free(n);
    dealloc_depth--;
}

static void
node_dealloc(PyObject *self)
{
    Node *n = (Node *)self;
    Py_CLEAR(n->record);
    if (dealloc_depth >= DEALLOC_DEPTH) {
        n->record = (PyObject *)deferred;
        deferred = n;
        return;
    }
    node_release(n);
    while (dealloc_depth == 0 && deferred != NULL) {
        n = deferred;
        deferred = (Node *)n->record;
        n->record = NULL;
        node_release(n);
    }
}

static PyObject *
node_get_level(PyObject *self, void *unused)
{
    long level;
    (void)unused;
    return vnode_level(self, &level) < 0 ? NULL : PyLong_FromLong(level);
}

static PyObject *
node_get_index(PyObject *self, void *unused)
{
    (void)unused;
    return PyLong_FromSsize_t(((Node *)self)->slot);
}

/* ((w0, child0), (w1, child1)), built from the record on each access. */
static PyObject *
node_get_edges(PyObject *self, void *unused)
{
    Edge edges[2];
    PyObject *pair[2];
    (void)unused;
    if (vnode_edges(self, edges) < 0) {
        return NULL;
    }
    pair[0] = pack(edges[0].w, SNAP_NONE, edges[0].n);
    pair[1] = pack(edges[1].w, SNAP_NONE, edges[1].n);
    return tuple_steal(2, pair);
}

static PyObject *
node_repr(PyObject *self)
{
    long level;
    if (vnode_level(self, &level) < 0) {
        return NULL;
    }
    return PyUnicode_FromFormat("<ArenaVNode q%ld slot %zd>", level, ((Node *)self)->slot);
}

static PyGetSetDef node_getset[] = {
    {"level", node_get_level, NULL, "the qubit this node decides", NULL},
    {"edges", node_get_edges, NULL,
     "(edge0, edge1), each (weight, child): built from the record on each access", NULL},
    {"index", node_get_index, NULL, "the node's arena slot id", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject Node_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_arena_core.ArenaVNode",
    .tp_basicsize = sizeof(Node),
    .tp_dealloc = node_dealloc,
    .tp_repr = node_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "A vector node of an arena: read-only level, edges and index over its "
              "record entry.  Created by the core only.",
    .tp_getset = node_getset,
};

/* ------------------------------------------------------------------ */
/* The Table type: len(), clear() and items() for Python               */
/* ------------------------------------------------------------------ */

/* A tuple of the `n` new references in `items`, or NULL (the build of
 * one failed) with all of them released. */
static PyObject *
tuple_steal(Py_ssize_t n, PyObject **items)
{
    PyObject *tuple = NULL;
    Py_ssize_t k;
    for (k = 0; k < n; k++) {
        if (items[k] == NULL) {
            goto fail;
        }
    }
    if ((tuple = PyTuple_New(n)) == NULL) {
        goto fail;
    }
    for (k = 0; k < n; k++) {
        PyTuple_SET_ITEM(tuple, k, items[k]);
    }
    return tuple;
fail:
    for (k = 0; k < n; k++) {
        Py_XDECREF(items[k]);
    }
    return NULL;
}

/* (level, re, im, child, re, im, child, ...): the unique-table key
 * tuple of the audit's _vnode_table_key / _mnode_table_key. */
static PyObject *
node_key_tuple(int32_t level, const double *bucket, PyObject *const *child, int arity)
{
    PyObject *items[13];
    int k;
    items[0] = PyLong_FromLong(level);
    for (k = 0; k < arity; k++) {
        items[3 * k + 1] = PyLong_FromDouble(bucket[2 * k]);
        items[3 * k + 2] = PyLong_FromDouble(bucket[2 * k + 1]);
        items[3 * k + 3] = child[k] == NULL ? Py_None : child[k];
        Py_INCREF(items[3 * k + 3]);
    }
    return tuple_steal(1 + 3 * arity, items);
}

static PyObject *pack(Py_complex w, int target, PyObject *node);

/* One (key, value) pair of items(): node tables give (key tuple, node),
 * vadd/madd ((id1, id2, re, im), edge), mv/mm ((id1, id2), edge) and
 * inner ((id1, id2), complex). */
static PyObject *
entry_item(int kind, const char *slot)
{
    const PairKey *ids = (const PairKey *)slot;
    PyObject *pair[2], *key[4];
    switch (kind) {
    case KIND_VNODE: {
        const VEntry *e = (const VEntry *)slot;
        pair[0] = node_key_tuple(e->key.level, e->key.bucket, e->key.child, 2);
        pair[1] = e->node;
        Py_INCREF(pair[1]);
        break;
    }
    case KIND_MNODE: {
        const MEntry *e = (const MEntry *)slot;
        pair[0] = node_key_tuple(e->key.level, e->key.bucket, e->key.child, 4);
        pair[1] = e->node;
        Py_INCREF(pair[1]);
        break;
    }
    case KIND_ADD: {
        const AddEntry *e = (const AddEntry *)slot;
        key[0] = PyLong_FromLong(ids->id[0]);
        key[1] = PyLong_FromLong(ids->id[1]);
        key[2] = PyLong_FromDouble(e->key.ratio[0]);
        key[3] = PyLong_FromDouble(e->key.ratio[1]);
        pair[0] = tuple_steal(4, key);
        pair[1] = pack(e->value.w, SNAP_NONE, e->value.node);
        break;
    }
    case KIND_PAIR:
        key[0] = PyLong_FromLong(ids->id[0]);
        key[1] = PyLong_FromLong(ids->id[1]);
        pair[0] = tuple_steal(2, key);
        pair[1] = pack(((const PairEntry *)slot)->value.w, SNAP_NONE,
                       ((const PairEntry *)slot)->value.node);
        break;
    default:
        key[0] = PyLong_FromLong(ids->id[0]);
        key[1] = PyLong_FromLong(ids->id[1]);
        pair[0] = tuple_steal(2, key);
        pair[1] = PyComplex_FromCComplex(((const InnerEntry *)slot)->value);
        break;
    }
    return tuple_steal(2, pair);
}

static Py_ssize_t
table_len(PyObject *self)
{
    return ((Table *)self)->used;
}

static PyObject *
table_clear_method(PyObject *self, PyObject *unused)
{
    (void)unused;
    if (table_clear((Table *)self) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

/* The bytes the table's arrays hold, for sys.getsizeof. */
static PyObject *
table_sizeof(PyObject *self, PyObject *unused)
{
    Table *t = (Table *)self;
    (void)unused;
    return PyLong_FromSize_t(sizeof(Table) + (size_t)t->allocated * kinds[t->kind].size +
                             (t->mask + 1) * sizeof(uint64_t));
}

static PyObject *
table_items(PyObject *self, PyObject *unused)
{
    Table *t = (Table *)self;
    PyObject *items = PyList_New(0), *item;
    size_t size = kinds[t->kind].size;
    Py_ssize_t position;
    union {
        VEntry v;
        MEntry m;
        AddEntry a;
    } entry;
    (void)unused;
    if (items == NULL) {
        return NULL;
    }
    /* In insertion order.  Each entry is copied out and the array re-read
     * every step: building an item allocates. */
    for (position = 0; position < t->count; position++) {
        if (head(t->entries + (size_t)position * size) <= HASH_DELETED) {
            continue;
        }
        memcpy(&entry, t->entries + (size_t)position * size, size);
        item = entry_item(t->kind, (const char *)&entry);
        if (item == NULL || PyList_Append(items, item) < 0) {
            Py_XDECREF(item);
            Py_DECREF(items);
            return NULL;
        }
        Py_DECREF(item);
    }
    return items;
}

static void
table_dealloc(PyObject *self)
{
    Table *t = (Table *)self;
    char *entries = t->entries;
    Py_ssize_t count = t->count;
    t->entries = NULL;
    t->count = t->used = 0;
    release_entries(t->kind, entries, count);
    PyMem_Free(entries);
    PyMem_Free(t->index);
    Py_TYPE(self)->tp_free(self);
}

static Table *
table_new(int kind)
{
    Table *t = PyObject_New(Table, &Table_Type);
    if (t == NULL) {
        return NULL;
    }
    t->kind = kind;
    t->mask = MIN_CAPACITY - 1;
    t->entries = NULL;
    t->count = t->allocated = t->used = 0;
    if ((t->index = PyMem_Calloc(MIN_CAPACITY, sizeof(uint64_t))) == NULL) {
        Py_DECREF(t);
        PyErr_NoMemory();
        return NULL;
    }
    return t;
}

static PySequenceMethods table_as_sequence = {
    .sq_length = table_len,
};

static PyMethodDef table_methods[] = {
    {"clear", table_clear_method, METH_NOARGS, "clear() -> None: drop every entry"},
    {"items", table_items, METH_NOARGS,
     "items() -> list of (key, value), the keys rebuilt as tuples"},
    {"__sizeof__", table_sizeof, METH_NOARGS, "__sizeof__() -> int: bytes held, arrays included"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject Table_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_arena_core.Table",
    .tp_basicsize = sizeof(Table),
    .tp_dealloc = table_dealloc,
    .tp_as_sequence = &table_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "A unique table or compute cache of an arena, owned by the C core.",
    .tp_methods = table_methods,
};

/* ------------------------------------------------------------------ */
/* The State type                                                      */
/* ------------------------------------------------------------------ */

static PyObject *
state_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *keywords[] = {"v_nodes", "v_record", "m_nodes", NULL};
    PyObject *v_nodes, *v_record, *m_nodes;
    State *st;
    int k;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!O!O!:State", keywords, &PyList_Type,
                                     &v_nodes, &PyByteArray_Type, &v_record, &PyList_Type,
                                     &m_nodes) ||
        (st = (State *)type->tp_alloc(type, 0)) == NULL) {
        return NULL;
    }
    Py_INCREF(v_nodes);
    st->v_nodes = v_nodes;
    Py_INCREF(v_record);
    st->v_record = v_record;
    Py_INCREF(m_nodes);
    st->m_nodes = m_nodes;
    for (k = 0; k < N_TABLES; k++) {
        if ((st->tables[k] = table_new(table_kinds[k])) == NULL) {
            Py_DECREF(st);
            return NULL;
        }
    }
    return (PyObject *)st;
}

static void
state_dealloc(PyObject *self)
{
    State *st = (State *)self;
    int k;
    Py_CLEAR(st->v_nodes);
    Py_CLEAR(st->v_record);
    Py_CLEAR(st->m_nodes);
    for (k = 0; k < N_TABLES; k++) {
        Py_CLEAR(st->tables[k]);
    }
    Py_TYPE(self)->tp_free(self);
}

/* The State, from the backend's `_state` attribute. */
static State *
backend_state(PyObject *self)
{
    PyObject *state = PyObject_GetAttr(self, s_state);
    if (state != NULL && !Py_IS_TYPE(state, &State_Type)) {
        PyErr_Format(PyExc_TypeError, "the backend's _state must be a %.100s, not %.100s",
                     State_Type.tp_name, Py_TYPE(state)->tp_name);
        Py_CLEAR(state);
    }
    return (State *)state;
}

#define TABLE_MEMBER(name, index, doc)                                                      \
    {                                                                                       \
        name, T_OBJECT, offsetof(State, tables) + (index) * sizeof(Table *), READONLY, doc \
    }

static PyMemberDef state_members[] = {
    TABLE_MEMBER("vtable", T_VTABLE, "the vector unique table"),
    TABLE_MEMBER("mtable", T_MTABLE, "the matrix unique table"),
    TABLE_MEMBER("vadd", T_VADD, "the vadd cache"),
    TABLE_MEMBER("madd", T_MADD, "the madd cache"),
    TABLE_MEMBER("mv", T_MV, "the multiply_mv cache"),
    TABLE_MEMBER("mm", T_MM, "the multiply_mm cache"),
    TABLE_MEMBER("inner", T_INNER, "the inner-product cache"),
    {"cache_limit", T_PYSSIZET, offsetof(State, cache_limit), 0,
     "entries per compute cache before it is flushed"},
    {"counting", T_BOOL, offsetof(State, counting), 0, "whether hits and misses are counted"},
    {NULL, 0, 0, 0, NULL},
};

static PyObject *state_reclaim(PyObject *self, PyObject *unused);

static PyMethodDef state_methods[] = {
    {"reclaim", state_reclaim, METH_NOARGS,
     "reclaim() -> None: free the nodes nothing outside the arena holds, renumber"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject State_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_arena_core.State",
    .tp_basicsize = sizeof(State),
    .tp_dealloc = state_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "State(v_nodes, v_record, m_nodes): an arena's node lists, record and tables.",
    .tp_methods = state_methods,
    .tp_members = state_members,
    .tp_new = state_new,
};

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
child_id(const State *st, PyObject *child, int32_t *id)
{
    Py_ssize_t slot;
    int is_owned;
    if (child == NULL) {
        *id = REC_TERMINAL;
        return 0;
    }
    if ((is_owned = live_slot(st, child, &slot)) < 0) {
        return -1;
    }
    *id = is_owned ? (int32_t)slot : REC_FOREIGN;
    return 0;
}

/* Append the record entry of the node about to take the next slot. */
static int
record_append(Ctx *c, long level, Edge e0, Edge e1)
{
    PyObject *nodes = c->st->v_nodes, *record = c->st->v_record;
    Py_ssize_t size = PyByteArray_GET_SIZE(record);
    Rec rec;
    if (record_synced(nodes, record) < 0) {
        return -1;
    }
    if (level < INT32_MIN || level > INT32_MAX || PyList_GET_SIZE(nodes) >= INT32_MAX) {
        PyErr_SetString(PyExc_OverflowError, "node does not fit the arena record");
        return -1;
    }
    memset(&rec, 0, sizeof(rec));
    rec.level = (int32_t)level;
    rec.w[0] = e0.w;
    rec.w[1] = e1.w;
    if (child_id(c->st, e0.n, &rec.child[0]) < 0 || child_id(c->st, e1.n, &rec.child[1]) < 0 ||
        PyByteArray_Resize(record, size + (Py_ssize_t)sizeof(Rec)) < 0) {
        return -1;
    }
    memcpy(PyByteArray_AS_STRING(record) + size, &rec, sizeof(Rec));
    return 0;
}

/* ------------------------------------------------------------------ */
/* make_vedge                                                          */
/* ------------------------------------------------------------------ */

/* The unique-table key of a vector node at `level` above e0 and e1.
 * Returns 1, 0 when the level fits no key (no such node is interned),
 * or -1 when a bucket raises. */
static int
vkey_fill(VKey *key, long level, Edge e0, Edge e1, double inv)
{
    double parts[4] = {e0.w.real, e0.w.imag, e1.w.real, e1.w.imag};
    if (buckets(parts, 4, inv, key->bucket) < 0) {
        return -1;
    }
    if (level < INT32_MIN || level > INT32_MAX) {
        return 0;
    }
    key->level = (int32_t)level;
    key->child[0] = e0.n;
    key->child[1] = e1.n;
    key->hash = vkey_hash(key);
    return 1;
}

/* A new arena node for the next slot, above e0 and e1. */
static PyObject *
new_vnode(Ctx *c, Edge e0, Edge e1)
{
    Node *node = PyObject_New(Node, &Node_Type);
    if (node == NULL) {
        return NULL;
    }
    node->record = c->st->v_record;
    Py_INCREF(node->record);
    node->child[0] = e0.n;
    node->child[1] = e1.n;
    Py_XINCREF(e0.n);
    Py_XINCREF(e1.n);
    node->slot = PyList_GET_SIZE(c->st->v_nodes);
    return (PyObject *)node;
}

/* The node at `level` above the normalized edges n0 and n1: the one the
 * unique table holds under their key, else a new node appended to the
 * arena and interned.  *node is borrowed (an arena slot, or pinned). */
static int
intern_vnode(Ctx *c, long level, Edge n0, Edge n1, PyObject **node)
{
    VKey key;
    Table *t = c->st->tables[T_VTABLE];
    PyObject *nodes = c->st->v_nodes;
    char *slot;

    switch (vkey_fill(&key, level, n0, n1, c->inv)) {
    case -1:
        return -1;
    case 0:
        PyErr_SetString(PyExc_OverflowError, "node does not fit the arena record");
        return -1;
    }
    slot = lookup(t, &key, sizeof(VEntry), sizeof(VKey));
    if (slot != NULL) {
        *node = ((VEntry *)slot)->node;
        return pin(c, *node);
    }
    if ((*node = new_vnode(c, n0, n1)) == NULL) {
        return -1;
    }
    if (record_append(c, level, n0, n1) < 0) {
        Py_DECREF(*node);
        return -1;
    }
    if (PyList_Append(nodes, *node) < 0) {
        /* Drop the entry again: a shrink by one entry right after the
         * growth only moves the end (it cannot fail). */
        (void)PyByteArray_Resize(c->st->v_record,
                                 PyByteArray_GET_SIZE(c->st->v_record) - (Py_ssize_t)sizeof(Rec));
        Py_DECREF(*node);
        return -1;
    }
    /* `_v_nodes` holds it now. */
    Py_DECREF(*node);
    if (table_reserve(t) < 0) {
        return -1;
    }
    node_put(t, &key, *node);
    c->created++;
    if ((PyList_GET_SIZE(nodes) & 0xFFFF) == 0 && PyErr_CheckSignals() < 0) {
        return -1;
    }
    return 0;
}

static int
make_vedge(Ctx *c, long level, Edge e0, Edge e1, Edge *out)
{
    double tol = c->tol, a0, a1, norm;
    Py_complex phase, top;
    Edge n0, n1;
    int t0, t1;

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
    out->w = top;
    return intern_vnode(c, level, n0, n1, &out->n);
}

/* ------------------------------------------------------------------ */
/* vadd                                                                */
/* ------------------------------------------------------------------ */

static int vadd(Ctx *c, Edge e1, Edge e2, long level, Edge *out);

static int
vadd_miss(Ctx *c, Edge e1, Edge e2, Py_complex ratio, long level, const AddKey *key,
          Edge *out)
{
    Edge a[2], b[2], child[2], result;
    Py_complex rb;
    int k;
    if (vnode_edges(e1.n, a) < 0 || vnode_edges(e2.n, b) < 0) {
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
        cache_put_edge(c, T_VADD, key, sizeof(AddEntry), sizeof(AddKey), result) < 0) {
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
    AddKey key;
    char *slot;
    int rc, cached;

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
    if (c_quot(e2.w, e1.w, &ratio) < 0 ||
        (cached = add_key(&key, c->st, e1.n, e2.n, ratio, c->inv)) < 0) {
        return -1;
    }
    slot = cached ? lookup(c->st->tables[T_VADD], &key, sizeof(AddEntry), sizeof(AddKey)) : NULL;
    if (slot != NULL) {
        EdgeValue hit = ((AddEntry *)slot)->value;
        c->counts[T_VADD][0]++;
        if (pin(c, hit.node) < 0) {
            return -1;
        }
        out->w = _Py_c_prod(hit.w, e1.w);
        out->n = hit.node;
        return 0;
    }
    c->counts[T_VADD][1]++;
    if (Py_EnterRecursiveCall(" in vadd")) {
        return -1;
    }
    rc = vadd_miss(c, e1, e2, ratio, level, cached ? &key : NULL, out);
    Py_LeaveRecursiveCall();
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
mv_miss(Ctx *c, Edge me, Edge ve, long level, const PairKey *key, Edge *out)
{
    Edge m[4], v[2], child[2], result;
    if (read_node_edges(me.n, m_edges_off, 4, mnode_type, m) < 0 ||
        vnode_edges(ve.n, v) < 0 ||
        mv_row(c, m, v, level - 1, &child[0]) < 0 ||
        mv_row(c, m + 2, v, level - 1, &child[1]) < 0 ||
        make_vedge(c, level, child[0], child[1], &result) < 0 ||
        cache_put_edge(c, T_MV, key, sizeof(PairEntry), sizeof(PairKey), result) < 0) {
        return -1;
    }
    out->w = _Py_c_prod(_Py_c_prod(result.w, me.w), ve.w);
    out->n = result.n;
    return 0;
}

static int
mv(Ctx *c, Edge me, Edge ve, long level, Edge *out)
{
    PairKey key;
    char *slot;
    int rc, cached;

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
    if ((cached = pair_key(&key, c->st, me.n, ve.n)) < 0) {
        return -1;
    }
    slot = cached ? lookup(c->st->tables[T_MV], &key, sizeof(PairEntry), sizeof(PairKey)) : NULL;
    if (slot != NULL) {
        EdgeValue hit = ((PairEntry *)slot)->value;
        c->counts[T_MV][0]++;
        if (pin(c, hit.node) < 0) {
            return -1;
        }
        out->w = _Py_c_prod(_Py_c_prod(hit.w, me.w), ve.w);
        out->n = hit.node;
        return 0;
    }
    c->counts[T_MV][1]++;
    if (Py_EnterRecursiveCall(" in multiply_mv")) {
        return -1;
    }
    rc = mv_miss(c, me, ve, level, cached ? &key : NULL, out);
    Py_LeaveRecursiveCall();
    return rc;
}

/* ------------------------------------------------------------------ */
/* The inner product                                                   */
/* ------------------------------------------------------------------ */

static int inner(Ctx *c, PyObject *n1, PyObject *n2, long level, Py_complex *out);

static int
inner_miss(Ctx *c, PyObject *n1, PyObject *n2, long level, const PairKey *key,
           Py_complex *out)
{
    Edge a[2], b[2];
    Py_complex total = {0.0, 0.0}, conjugate, sub;
    int k;
    if (vnode_edges(n1, a) < 0 || vnode_edges(n2, b) < 0) {
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
    if (cache_put_inner(c, key, total) < 0) {
        return -1;
    }
    *out = total;
    return 0;
}

/* <n1|n2> of two unit sub-diagrams, memoized in `_inner_cache`. */
static int
inner(Ctx *c, PyObject *n1, PyObject *n2, long level, Py_complex *out)
{
    PairKey key;
    char *slot;
    int rc, cached;
    if (level < 0) {
        out->real = 1.0;
        out->imag = 0.0;
        return 0;
    }
    if (n1 == NULL || n2 == NULL) {
        PyErr_SetString(PyExc_TypeError, "inner product reached a terminal above level 0");
        return -1;
    }
    if ((cached = pair_key(&key, c->st, n1, n2)) < 0) {
        return -1;
    }
    slot = cached ? lookup(c->st->tables[T_INNER], &key, sizeof(InnerEntry), sizeof(PairKey))
                  : NULL;
    if (slot != NULL) {
        c->counts[T_INNER][0]++;
        *out = ((InnerEntry *)slot)->value;
        return 0;
    }
    c->counts[T_INNER][1]++;
    if (Py_EnterRecursiveCall(" in the inner product")) {
        return -1;
    }
    rc = inner_miss(c, n1, n2, level, cached ? &key : NULL, out);
    Py_LeaveRecursiveCall();
    return rc;
}

/* ------------------------------------------------------------------ */
/* make_medge                                                          */
/* ------------------------------------------------------------------ */

/* The unique-table key of a matrix node at `level` above `edges`.
 * Returns 1, 0 when the level fits no key, or -1 when a bucket raises. */
static int
mkey_fill(MKey *key, long level, const Edge *edges, double inv)
{
    double parts[8];
    int k;
    for (k = 0; k < 4; k++) {
        parts[2 * k] = edges[k].w.real;
        parts[2 * k + 1] = edges[k].w.imag;
        key->child[k] = edges[k].n;
    }
    if (buckets(parts, 8, inv, key->bucket) < 0) {
        return -1;
    }
    if (level < INT32_MIN || level > INT32_MAX) {
        return 0;
    }
    key->level = (int32_t)level;
    key->hash = mkey_hash(key);
    return 1;
}

static PyObject *
new_mnode(long level, const Edge *edges, const int *snapped)
{
    PyObject *node, *level_obj, *tuple, *edge;
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
    if ((level_obj = PyLong_FromLong(level)) == NULL ||
        (node = mnode_type->tp_alloc(mnode_type, 0)) == NULL) {
        Py_XDECREF(level_obj);
        Py_DECREF(tuple);
        return NULL;
    }
    SLOT(node, m_level_off) = level_obj;
    SLOT(node, m_edges_off) = tuple;
    return node;
}

/* Intern `node` as the next `_m_nodes` slot under `key`. */
static int
intern_mnode(Ctx *c, PyObject *node, const MKey *key)
{
    Table *t = c->st->tables[T_MTABLE];
    PyObject *index = PyLong_FromSsize_t(PyList_GET_SIZE(c->st->m_nodes));
    if (index == NULL) {
        return -1;
    }
    SLOT(node, m_index_off) = index;
    if (PyList_Append(c->st->m_nodes, node) < 0 || table_reserve(t) < 0) {
        return -1;
    }
    node_put(t, key, node);
    c->m_created++;
    if ((PyList_GET_SIZE(c->st->m_nodes) & 0xFFFF) == 0 && PyErr_CheckSignals() < 0) {
        return -1;
    }
    return 0;
}

/* The arena's make_medge: clamp, divide by the pivot (the largest
 * magnitude, ties within tolerance to the lowest index), snap, intern. */
static int
make_medge(Ctx *c, long level, const Edge *edges, Edge *out)
{
    double tol = c->tol, mag, max_mag = 0.0;
    Edge cleaned[4];
    int snapped[4], k, max_idx = -1;
    MKey key;
    PyObject *node;
    char *slot;

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

    switch (mkey_fill(&key, level, cleaned, c->inv)) {
    case -1:
        return -1;
    case 0:
        PyErr_SetString(PyExc_OverflowError, "matrix node level out of range");
        return -1;
    }
    slot = lookup(c->st->tables[T_MTABLE], &key, sizeof(MEntry), sizeof(MKey));
    if (slot != NULL) {
        node = ((MEntry *)slot)->node;
        if (pin(c, node) < 0) {
            return -1;
        }
    }
    else {
        if ((node = new_mnode(level, cleaned, snapped)) == NULL) {
            return -1;
        }
        if (intern_mnode(c, node, &key) < 0) {
            Py_DECREF(node);
            return -1;
        }
        /* `_m_nodes` holds it now. */
        Py_DECREF(node);
    }
    out->w = edges[max_idx].w;
    out->n = node;
    return 0;
}

/* ------------------------------------------------------------------ */
/* madd                                                                */
/* ------------------------------------------------------------------ */

static int madd(Ctx *c, Edge e1, Edge e2, long level, Edge *out);

static int
madd_miss(Ctx *c, Edge e1, Edge e2, Py_complex ratio, long level, const AddKey *key,
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
        cache_put_edge(c, T_MADD, key, sizeof(AddEntry), sizeof(AddKey), result) < 0) {
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
    AddKey key;
    char *slot;
    int rc, cached;

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
    if (c_quot(e2.w, e1.w, &ratio) < 0 ||
        (cached = add_key(&key, c->st, e1.n, e2.n, ratio, c->inv)) < 0) {
        return -1;
    }
    slot = cached ? lookup(c->st->tables[T_MADD], &key, sizeof(AddEntry), sizeof(AddKey)) : NULL;
    if (slot != NULL) {
        EdgeValue hit = ((AddEntry *)slot)->value;
        c->counts[T_MADD][0]++;
        if (pin(c, hit.node) < 0) {
            return -1;
        }
        out->w = _Py_c_prod(hit.w, e1.w);
        out->n = hit.node;
        return 0;
    }
    c->counts[T_MADD][1]++;
    if (Py_EnterRecursiveCall(" in madd")) {
        return -1;
    }
    rc = madd_miss(c, e1, e2, ratio, level, cached ? &key : NULL, out);
    Py_LeaveRecursiveCall();
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
mm_miss(Ctx *c, Edge ae, Edge be, long level, const PairKey *key, Edge *out)
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
        cache_put_edge(c, T_MM, key, sizeof(PairEntry), sizeof(PairKey), result) < 0) {
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
    PairKey key;
    char *slot;
    int rc, cached;

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
    if ((cached = pair_key(&key, c->st, a.n, b.n)) < 0) {
        return -1;
    }
    slot = cached ? lookup(c->st->tables[T_MM], &key, sizeof(PairEntry), sizeof(PairKey)) : NULL;
    if (slot != NULL) {
        EdgeValue hit = ((PairEntry *)slot)->value;
        c->counts[T_MM][0]++;
        if (pin(c, hit.node) < 0) {
            return -1;
        }
        out->w = _Py_c_prod(_Py_c_prod(hit.w, a.w), b.w);
        out->n = hit.node;
        return 0;
    }
    c->counts[T_MM][1]++;
    if (Py_EnterRecursiveCall(" in multiply_mm")) {
        return -1;
    }
    rc = mm_miss(c, a, b, level, cached ? &key : NULL, out);
    Py_LeaveRecursiveCall();
    return rc;
}

/* ------------------------------------------------------------------ */
/* Gate lowering: A + (I - P) and the permutation block                */
/* ------------------------------------------------------------------ */

/* What one level of a lowered gate holds. */
enum { LEVEL_IDENTITY, LEVEL_FACTOR, LEVEL_CONTROL };

typedef struct {
    int kind;
    Py_complex entry[4]; /* a LEVEL_FACTOR's row-major entries */
} GateLevel;

/* The factor at a control: the projector onto |1>, row-major. */
static const Py_complex proj_one[4] = {{0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}, {1.0, 0.0}};

/* base._kron_chain: one make_medge per level from `from` up to
 * `top`, above `edge`.  The chain of A takes every factor, the chain of
 * P (`projector`) only the controls'; other levels are identity. */
static int
kron_chain(Ctx *c, const GateLevel *levels, long from, long top, int projector, Edge edge,
           Edge *out)
{
    Edge children[4];
    const Py_complex *entry;
    long level;
    int k;
    for (level = from; level <= top; level++) {
        entry = NULL;
        if (levels[level].kind == LEVEL_CONTROL) {
            entry = proj_one;
        }
        else if (levels[level].kind == LEVEL_FACTOR && !projector) {
            entry = levels[level].entry;
        }
        if (entry == NULL) {
            children[0] = children[3] = edge;
            children[1] = children[2] = ZERO;
        }
        else {
            for (k = 0; k < 4; k++) {
                if (IS_ZERO(entry[k]) || IS_ZERO(edge.w)) {
                    children[k] = ZERO;
                }
                else {
                    children[k].w = _Py_c_prod(entry[k], edge.w);
                    children[k].n = edge.n;
                }
            }
        }
        if (make_medge(c, level, children, &edge) < 0) {
            return -1;
        }
    }
    *out = edge;
    return 0;
}

/* The backend's identity(n), through its Python memo. */
static int
identity_edge(Ctx *c, long n, Edge *out)
{
    PyObject *count = PyLong_FromLong(n), *edge;
    int rc = -1;
    if (count == NULL) {
        return -1;
    }
    edge = PyObject_CallMethodOneArg(c->self, s_identity, count);
    Py_DECREF(count);
    if (edge != NULL && read_edge(edge, mnode_type, out) == 0 && pin(c, out->n) == 0) {
        rc = 0;
    }
    Py_XDECREF(edge);
    return rc;
}

/* DDBackend.controlled_medge after its checks: A, then P and the two
 * identities, then A - P + I, in the base's call order. */
static int
controlled(Ctx *c, const GateLevel *levels, long num_qubits, long bottom_levels,
           int has_controls, Edge bottom, Edge *out)
{
    Edge active, projector, identity_bottom = {{1.0, 0.0}, NULL}, identity_total, difference;
    long top = num_qubits - 1;
    if (kron_chain(c, levels, bottom_levels, top, 0, bottom, &active) < 0) {
        return -1;
    }
    if (!has_controls) {
        *out = active;
        return 0;
    }
    if ((bottom_levels > 0 && identity_edge(c, bottom_levels, &identity_bottom) < 0) ||
        kron_chain(c, levels, bottom_levels, top, 1, identity_bottom, &projector) < 0 ||
        identity_edge(c, num_qubits, &identity_total) < 0) {
        return -1;
    }
    /* -P: complex negation flips both signs. */
    projector.w.real = -projector.w.real;
    projector.w.imag = -projector.w.imag;
    if (madd(c, active, projector, top, &difference) < 0) {
        return -1;
    }
    return madd(c, difference, identity_total, top, out);
}

/* One (row, col) one of a permutation matrix. */
typedef struct {
    int64_t row, col;
} Pair;

/* base._permutation_block on the `n` pairs: split them by the
 * row and column bit of `level` into the four quadrants (stably, through
 * `scratch`), then build the quadrants depth-first, 0 to 3.  `level` is
 * at most MAX_PERMUTATION_LEVEL, which bounds the recursion. */
static int
permutation(Ctx *c, Pair *pairs, Pair *scratch, Py_ssize_t n, long level, Edge *out)
{
    Py_ssize_t count[4] = {0, 0, 0, 0}, at[4], i;
    Edge children[4];
    int k;
    if (n == 0) {
        *out = ZERO;
        return 0;
    }
    if (level < 0) {
        out->w.real = 1.0;
        out->w.imag = 0.0;
        out->n = NULL;
        return 0;
    }
#define QUADRANT(p) ((int)((((p).row >> level) & 1) * 2 + (((p).col >> level) & 1)))
    for (i = 0; i < n; i++) {
        count[QUADRANT(pairs[i])]++;
    }
    for (k = 0, i = 0; k < 4; i += count[k], k++) {
        at[k] = i;
    }
    for (i = 0; i < n; i++) {
        scratch[at[QUADRANT(pairs[i])]++] = pairs[i];
    }
#undef QUADRANT
    for (k = 0, i = 0; k < 4; i += count[k], k++) {
        if (permutation(c, scratch + i, pairs + i, count[k], level - 1, &children[k]) < 0) {
            return -1;
        }
    }
    return make_medge(c, level, children, out);
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

/* A float of repro.dd.ctable, read through its module dict. */
static int
ctable_float(PyObject *name, double *out)
{
    PyObject *value = PyDict_GetItemWithError(ctable_dict, name);
    if (value == NULL) {
        if (!PyErr_Occurred()) {
            PyErr_Format(PyExc_AttributeError, "repro.dd.ctable has no %U", name);
        }
        return -1;
    }
    Py_INCREF(value);
    *out = PyFloat_AsDouble(value);
    Py_DECREF(value);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* Open a top-level call on the backend `self`. */
static int
ctx_open(Ctx *c, PyObject *self)
{
    memset(c, 0, sizeof(*c));
    c->self = self;
    /* The tolerance is read on every top-level call: set_tolerance may
     * have changed it since the last one. */
    if (ctable_float(s_tolerance, &c->tol) < 0 ||
        ctable_float(s_inv_tolerance, &c->inv) < 0 || (c->st = backend_state(self)) == NULL) {
        return -1;
    }
    c->cache_limit = c->st->cache_limit;
    c->counting = c->st->counting;
    return 0;
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

/* The caches whose hit/miss tallies a call publishes, in order. */
static const int counted_caches[] = {T_VADD, T_MV, T_INNER, T_MADD, T_MM};

/* Publish the node creation counts and the hit/miss tallies -- also when
 * the call failed, keeping its exception -- and release the call's
 * references. */
static int
ctx_close(Ctx *c, int failed)
{
    PyObject *error = NULL, *counts;
    int rc = 0, k;
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
        if ((counts = PyObject_GetAttr(c->self, s_cache_counts)) == NULL) {
            rc = -1;
        }
        for (k = 0; rc == 0 && k < (int)(sizeof(counted_caches) / sizeof(int)); k++) {
            int which = counted_caches[k];
            rc = add_hits_misses(counts, cache_names[which], c->counts[which]);
        }
        Py_XDECREF(counts);
    }
    Py_CLEAR(c->st);
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
    if (ctx_open(&c, args[0]) < 0) {
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
    if (ctx_open(&c, args[0]) < 0) {
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
    if (ctx_open(&c, args[0]) < 0) {
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
    if (ctx_open(&c, args[0]) < 0) {
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
    if (ctx_open(&c, args[0]) < 0) {
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
    if (ctx_open(&c, args[0]) < 0) {
        ctx_close(&c, 1);
        return NULL;
    }
    status = mm(&c, ae, be, level, &result);
    return finish(&c, status, result);
}

/* An int argument (anything with __index__) as a long; a value beyond a
 * long saturates, so that a range check rejects it. */
static int
read_index(PyObject *obj, long *out)
{
    PyObject *index = PyNumber_Index(obj);
    int overflow;
    if (index == NULL) {
        return -1;
    }
    *out = PyLong_AsLongAndOverflow(index, &overflow);
    Py_DECREF(index);
    if (overflow) {
        *out = overflow > 0 ? LONG_MAX : LONG_MIN;
    }
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* A factor's four row-major entries, each a complex or a float. */
static int
read_factor(PyObject *obj, Py_complex *entry)
{
    PyObject *seq = PySequence_Fast(obj, "a factor must be four complex numbers"), *item;
    int k, rc;
    if (seq == NULL) {
        return -1;
    }
    rc = PySequence_Fast_GET_SIZE(seq) == 4 ? 0 : -1;
    for (k = 0; rc == 0 && k < 4; k++) {
        item = PySequence_Fast_GET_ITEM(seq, k);
        if (PyComplex_Check(item)) {
            entry[k] = ((PyComplexObject *)item)->cval;
        }
        else if (PyFloat_Check(item)) {
            entry[k].real = PyFloat_AS_DOUBLE(item);
            entry[k].imag = 0.0;
        }
        else {
            rc = -1;
        }
    }
    Py_DECREF(seq);
    if (rc < 0) {
        PyErr_SetString(PyExc_TypeError, "a factor must be four complex numbers");
    }
    return rc;
}

/* The checked factor and control levels of DDBackend.controlled_medge
 * (base._gate_levels), into `levels`, one per level of the register. */
static int
read_gate_levels(PyObject *factors, PyObject *controls, long num_qubits, long bottom_levels,
                 GateLevel *levels, int *has_controls)
{
    PyObject *items, *item, *seq;
    Py_ssize_t i;
    long level;
    int rc = 0;
    if ((items = PyDict_Items(factors)) == NULL) {
        return -1;
    }
    for (i = 0; rc == 0 && i < PyList_GET_SIZE(items); i++) {
        item = PyList_GET_ITEM(items, i);
        if ((rc = read_index(PyTuple_GET_ITEM(item, 0), &level)) < 0) {
            break;
        }
        if (level < bottom_levels || level >= num_qubits) {
            PyErr_Format(PyExc_ValueError, "factor level %ld is out of range", level);
            rc = -1;
        }
        else if ((rc = read_factor(PyTuple_GET_ITEM(item, 1), levels[level].entry)) == 0) {
            levels[level].kind = LEVEL_FACTOR;
        }
    }
    Py_DECREF(items);
    if (rc < 0 || (seq = PySequence_Fast(controls, "controls must be a sequence")) == NULL) {
        return -1;
    }
    for (i = 0; rc == 0 && i < PySequence_Fast_GET_SIZE(seq); i++) {
        if ((rc = read_index(PySequence_Fast_GET_ITEM(seq, i), &level)) < 0) {
            break;
        }
        if (level < bottom_levels || level >= num_qubits) {
            PyErr_Format(PyExc_ValueError, "control level %ld is out of range", level);
            rc = -1;
        }
        else if (levels[level].kind == LEVEL_FACTOR) {
            PyErr_Format(PyExc_ValueError, "level %ld cannot be both target and control", level);
            rc = -1;
        }
        else {
            levels[level].kind = LEVEL_CONTROL;
            *has_controls = 1;
        }
    }
    Py_DECREF(seq);
    return rc;
}

/* DDBackend.controlled_medge's bottom check: an edge of this arena
 * rooted at level bottom_levels - 1 (-1 for the terminal). */
static int
check_bottom(PyObject *self, Edge bottom, long bottom_levels)
{
    State *st;
    long root = -1;
    int is_owned;
    if (bottom.n != NULL) {
        if ((st = backend_state(self)) == NULL) {
            return -1;
        }
        is_owned = owned(st, bottom.n);
        Py_DECREF(st);
        if (is_owned <= 0) {
            if (is_owned == 0) {
                PyErr_SetString(PyExc_ValueError, "bottom is not a matrix edge of this backend");
            }
            return -1;
        }
        if (level_of(bottom.n, m_level_off, &root) < 0) {
            return -1;
        }
    }
    if (root != bottom_levels - 1) {
        PyErr_Format(PyExc_ValueError, "bottom is not rooted at level %ld", bottom_levels - 1);
        return -1;
    }
    return 0;
}

static PyObject *
py_controlled_medge(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    GateLevel *levels;
    PyObject *edge = NULL;
    Edge bottom, result = ZERO;
    long num_qubits, bottom_levels;
    int has_controls = 0, status;
    (void)module;
    if (check_args("controlled_medge", nargs, 6) < 0 || read_index(args[1], &num_qubits) < 0 ||
        read_index(args[5], &bottom_levels) < 0) {
        return NULL;
    }
    if (num_qubits < 1) {
        PyErr_SetString(PyExc_ValueError, "a gate needs at least one qubit");
        return NULL;
    }
    if (bottom_levels < 0 || bottom_levels > num_qubits) {
        PyErr_Format(PyExc_ValueError, "bottom_levels %ld is out of range", bottom_levels);
        return NULL;
    }
    if (!PyDict_Check(args[2])) {
        PyErr_Format(PyExc_TypeError, "factors must be a dict, not %.100s",
                     Py_TYPE(args[2])->tp_name);
        return NULL;
    }
    if ((unsigned long)num_qubits > PY_SSIZE_T_MAX / sizeof(GateLevel) ||
        (levels = PyMem_Calloc((size_t)num_qubits, sizeof(GateLevel))) == NULL) {
        return PyErr_NoMemory();
    }
    status = read_gate_levels(args[2], args[3], num_qubits, bottom_levels, levels, &has_controls);
    if (status == 0 && read_edge(args[4], mnode_type, &bottom) == 0 &&
        check_bottom(args[0], bottom, bottom_levels) == 0) {
        if (ctx_open(&c, args[0]) < 0) {
            ctx_close(&c, 1);
        }
        else {
            status = controlled(&c, levels, num_qubits, bottom_levels, has_controls, bottom,
                                &result);
            edge = finish(&c, status, result);
        }
    }
    PyMem_Free(levels);
    return edge;
}

/* Highest level of permutation_block (base.MAX_PERMUTATION_LEVEL). */
#define MAX_PERMUTATION_LEVEL 61

static PyObject *
py_permutation_block(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    PyObject *rows, *edge = NULL;
    unsigned char *seen = NULL;
    Pair *pairs = NULL;
    Edge result = ZERO;
    Py_ssize_t n, col;
    long long row;
    long level;
    int overflow, status;
    (void)module;
    if (check_args("permutation_block", nargs, 3) < 0 || read_index(args[1], &level) < 0 ||
        (rows = PySequence_Fast(args[2], "rows must be a sequence of ints")) == NULL) {
        return NULL;
    }
    n = PySequence_Fast_GET_SIZE(rows);
    for (col = 0; col < n; col++) {
        if (!PyLong_Check(PySequence_Fast_GET_ITEM(rows, col))) {
            PyErr_SetString(PyExc_TypeError, "rows must be ints");
            goto done;
        }
    }
    if (level < -1 || level > MAX_PERMUTATION_LEVEL) {
        PyErr_Format(PyExc_ValueError, "permutation level %ld is out of range", level);
        goto done;
    }
    if (n != (Py_ssize_t)((int64_t)1 << (level + 1))) {
        goto not_permutation;
    }
    seen = PyMem_Calloc((size_t)n, 1);
    pairs = PyMem_Malloc(2 * (size_t)n * sizeof(Pair));
    if (seen == NULL || pairs == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (col = 0; col < n; col++) {
        row = PyLong_AsLongLongAndOverflow(PySequence_Fast_GET_ITEM(rows, col), &overflow);
        if (row == -1 && PyErr_Occurred()) {
            goto done;
        }
        if (overflow || row < 0 || row >= n || seen[row]) {
            goto not_permutation;
        }
        seen[row] = 1;
        pairs[col].row = row;
        pairs[col].col = col;
    }
    if (ctx_open(&c, args[0]) < 0) {
        ctx_close(&c, 1);
        goto done;
    }
    status = permutation(&c, pairs, pairs + n, n, level, &result);
    edge = finish(&c, status, result);
    goto done;
not_permutation:
    PyErr_Format(PyExc_ValueError, "rows must be a permutation of range(%zd)",
                 (Py_ssize_t)((int64_t)1 << (level + 1)));
done:
    Py_DECREF(rows);
    PyMem_Free(seen);
    PyMem_Free(pairs);
    return edge;
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
    State *st;
    const Rec *rec;
    Py_ssize_t slot;
    int is_owned, k;
    memset(w, 0, sizeof(*w));
    if ((st = backend_state(self)) == NULL) {
        return -1;
    }
    Py_INCREF(st->v_nodes);
    w->nodes = st->v_nodes;
    Py_INCREF(st->v_record);
    w->record = st->v_record;
    is_owned = record_synced(w->nodes, w->record) < 0 ? -1 : live_slot(st, root, &slot);
    Py_DECREF(st);
    if (is_owned <= 0) {
        return is_owned;
    }
    w->size = PyList_GET_SIZE(w->nodes);
    w->root = (int32_t)slot;
    rec = records(w->record) + w->root;
    for (k = 0; k < 2; k++) {
        int32_t id = rec->child[k];
        if (id < REC_TERMINAL || id >= w->root) {
            return 0;
        }
        if (((Node *)root)->child[k] != (id == REC_TERMINAL ? NULL : PyList_GET_ITEM(w->nodes, id))) {
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
    PyObject *memo = NULL, *root_index = NULL, *result = NULL;
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
    if ((root_index = PyLong_FromLong(w.root)) == NULL) {
        goto done;
    }
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
    Py_XDECREF(root_index);
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

/* The norm contributions of a walk's diagram, computed as
 * DDBackend.norm_contributions computes them: the same float operations
 * in the same order.  `order` holds the reached ids in DDBackend.vnodes
 * order; `value` is indexed by position in `order`; `inserted` lists
 * those positions in the order the dict inserts them (the root first). */
typedef struct {
    Ids order, inserted;
    double *value;
} Contributions;

/* Fill `s` for the walk `w` whose root edge has weight `weight`.  Returns
 * 1, 0 when the diagram needs the generic traversal, or -1 on error;
 * contributions_close releases `s` in every case. */
static int
contributions_open(Contributions *s, const Walk *w, Py_complex weight)
{
    double incoming, term;
    unsigned char *present = NULL;
    int32_t *position = NULL, id, at;
    const Rec *recs;
    Py_ssize_t i;
    int status, k;
    memset(s, 0, sizeof(*s));
    if ((status = sorted_nodes(w, &s->order)) <= 0) {
        return status;
    }
    status = -1;
    position = PyMem_Malloc((size_t)w->size * sizeof(int32_t));
    s->value = PyMem_Malloc((size_t)s->order.len * sizeof(double));
    present = PyMem_Calloc((size_t)s->order.len, 1);
    if (position == NULL || s->value == NULL || present == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < s->order.len; i++) {
        position[s->order.data[i]] = (int32_t)i;
    }
    at = position[w->root];
    if (abs_squared(weight, &s->value[at]) < 0 || ids_push(&s->inserted, at) < 0) {
        goto done;
    }
    present[at] = 1;
    recs = records(w->record);
    for (i = 0; i < s->order.len; i++) {
        incoming = present[i] ? s->value[i] : 0.0;
        if (incoming == 0.0) {
            continue;
        }
        id = s->order.data[i];
        for (k = 0; k < 2; k++) {
            if (recs[id].child[k] == REC_TERMINAL || IS_ZERO(recs[id].w[k])) {
                continue;
            }
            /* contributions.get(child, 0.0) + incoming * abs(weight) ** 2 */
            if (abs_squared(recs[id].w[k], &term) < 0) {
                goto done;
            }
            term = incoming * term;
            at = position[recs[id].child[k]];
            if (present[at]) {
                s->value[at] = s->value[at] + term;
            }
            else {
                s->value[at] = 0.0 + term;
                present[at] = 1;
                if (ids_push(&s->inserted, at) < 0) {
                    goto done;
                }
            }
        }
    }
    status = 1;
done:
    PyMem_Free(position);
    PyMem_Free(present);
    return status;
}

static void
contributions_close(Contributions *s)
{
    PyMem_Free(s->order.data);
    PyMem_Free(s->inserted.data);
    PyMem_Free(s->value);
}

/* DDBackend.norm_contributions over the record, or None for a foreign
 * diagram: the same dict, in the same insertion order, with the same
 * bits. */
static PyObject *
py_norm_contributions(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Walk w;
    Contributions s = {{NULL, 0, 0}, {NULL, 0, 0}, NULL};
    PyObject *result = NULL, *value;
    int32_t at;
    Py_ssize_t i;
    Edge root;
    int status;
    (void)module;
    if (read_sweep_args("norm_contributions", args, nargs, &root) < 0) {
        return NULL;
    }
    if (root.n == NULL) {
        return PyDict_New();
    }
    if ((status = walk_open(&w, args[0], root.n)) <= 0 ||
        (status = contributions_open(&s, &w, root.w)) <= 0) {
        goto done;
    }
    status = -1;
    if ((result = PyDict_New()) == NULL) {
        goto done;
    }
    for (i = 0; i < s.inserted.len; i++) {
        at = s.inserted.data[i];
        value = PyFloat_FromDouble(s.value[at]);
        if (value == NULL ||
            PyDict_SetItem(result, PyList_GET_ITEM(w.nodes, s.order.data[at]), value) < 0) {
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
    contributions_close(&s);
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
        if (vnode_edges(edge.n, children) < 0 || Py_EnterRecursiveCall(" in rebuild_without")) {
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

/* base.check_root_level: ValueError unless `level` is the level of the
 * root node of `edge`; a terminal edge has no level to check. */
static int
check_root_level(Edge edge, long level)
{
    long root;
    if (edge.n == NULL) {
        return 0;
    }
    if (vnode_level(edge.n, &root) < 0) {
        return -1;
    }
    if (root != level) {
        PyErr_Format(PyExc_ValueError, "level %ld is not the root's level %ld", level, root);
        return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* A whole approximation round                                         */
/* ------------------------------------------------------------------ */

/* A removal candidate: the bits of its contribution and its index in
 * the contribution dict's insertion order, the tie-break of the greedy
 * selection. */
typedef struct {
    uint64_t bits;
    Py_ssize_t index;
} Candidate;

enum { DIGITS = 8, RADIX = 256 };

/* Sort `n` candidates, given in index order, into ascending (value,
 * index) order: a stable LSD radix sort on the value bits, which order
 * as the values do while no value is negative or NaN, and stability
 * keeps equal values in index order.  `*data` becomes the sorted array
 * (the other buffer is freed). */
static int
sort_candidates(Candidate **data, Py_ssize_t n)
{
    Candidate *from = *data, *to, *swap;
    Py_ssize_t (*count)[RADIX], i, at, next;
    int d, digit;
    count = PyMem_Calloc(DIGITS, sizeof(*count));
    to = PyMem_Malloc((size_t)n * sizeof(Candidate));
    if (count == NULL || to == NULL) {
        PyMem_Free(count);
        PyMem_Free(to);
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < n; i++) {
        for (d = 0; d < DIGITS; d++) {
            count[d][(from[i].bits >> (8 * d)) & (RADIX - 1)]++;
        }
    }
    for (d = 0; d < DIGITS; d++) {
        /* A digit every candidate shares moves nothing. */
        if (count[d][(from[0].bits >> (8 * d)) & (RADIX - 1)] == n) {
            continue;
        }
        for (digit = 0, at = 0; digit < RADIX; digit++) {
            next = at + count[d][digit];
            count[d][digit] = at;
            at = next;
        }
        for (i = 0; i < n; i++) {
            to[count[d][(from[i].bits >> (8 * d)) & (RADIX - 1)]++] = from[i];
        }
        swap = from;
        from = to;
        to = swap;
    }
    PyMem_Free(count);
    PyMem_Free(to);
    *data = from;
    return 0;
}

/* base.select_removal: mark REMOVED, in `slot`, every node the budget
 * admits, in ascending (value, index) order, stopping at the first that
 * would overspend it or once `max_removed` are taken; `count` and
 * `spent` are summed in that order.  Returns 1, 0 when a value is NaN
 * or negative (the caller falls back to Python's order), or -1 on
 * error. */
static int
select_removed(const Contributions *s, double budget, Py_ssize_t max_removed, int32_t *slot,
               Py_ssize_t *count, double *spent)
{
    /* base.ROUND_SLACK */
    const double limit = budget + 1e-12;
    Py_ssize_t n = s->inserted.len - 1, i;
    Candidate *candidates;
    double value;
    int rc = 1;
    *count = 0;
    *spent = 0.0;
    if (n <= 0) {
        return 1;
    }
    if ((candidates = PyMem_Malloc((size_t)n * sizeof(Candidate))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    /* The root is the dict's first entry and never a candidate. */
    for (i = 0; i < n && rc > 0; i++) {
        value = s->value[s->inserted.data[i + 1]];
        candidates[i].bits = double_bits(value);
        candidates[i].index = i + 1;
        rc = isnan(value) || signbit(value) ? 0 : 1;
    }
    if (rc > 0 && (rc = sort_candidates(&candidates, n)) == 0) {
        rc = 1;
        for (i = 0; i < n && *count < max_removed; i++) {
            memcpy(&value, &candidates[i].bits, sizeof(value));
            if (*spent + value > limit) {
                break;
            }
            slot[s->order.data[s->inserted.data[candidates[i].index]]] = REMOVED;
            *spent += value;
            ++*count;
        }
    }
    PyMem_Free(candidates);
    return rc;
}

/* DDBackend.approximate_round over the record, the one node-removal
 * round of every policy: the contributions, the selection and the
 * rebuild in one call, with no Python set.  Returns (rebuilt edge,
 * spent, count), the input edge with (0.0, 0) when nothing is taken, or
 * None for a foreign diagram. */
static PyObject *
py_approximate_round(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    Walk w;
    Contributions s = {{NULL, 0, 0}, {NULL, 0, 0}, NULL};
    Rebuild r = {NULL, NULL, NULL, 0};
    PyObject *result = NULL, *rebuilt;
    Edge edge, out = ZERO;
    Py_ssize_t count = 0, max_removed;
    double budget, spent = 0.0;
    long level;
    int status;
    (void)module;
    if (check_args("approximate_round", nargs, 5) < 0 ||
        read_edge(args[1], vnode_type, &edge) < 0 || read_level(args[2], &level) < 0) {
        return NULL;
    }
    /* The base body's order of checks. */
    budget = PyFloat_AsDouble(args[3]);
    if (budget == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    if (!(budget >= 0.0)) {
        PyErr_Format(PyExc_ValueError, "budget must be a non-negative number, not %R", args[3]);
        return NULL;
    }
    /* A count above PY_SSIZE_T_MAX is clipped: no diagram has more nodes. */
    max_removed = PyNumber_AsSsize_t(args[4], NULL);
    if (max_removed == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (max_removed < 0) {
        PyErr_Format(PyExc_ValueError, "max_removed must be non-negative, not %R", args[4]);
        return NULL;
    }
    if (check_root_level(edge, level) < 0) {
        return NULL;
    }
    if (edge.n == NULL) {
        return Py_BuildValue("(Odn)", args[1], 0.0, (Py_ssize_t)0);
    }
    /* Select before anything is interned, so a foreign diagram falls
     * back with the arena untouched. */
    if ((status = walk_open(&w, args[0], edge.n)) > 0 &&
        (status = contributions_open(&s, &w, edge.w)) > 0) {
        r.slot = PyMem_Calloc((size_t)w.size, sizeof(int32_t));
        r.memo = PyMem_Malloc((size_t)s.order.len * sizeof(Edge));
        if (r.slot == NULL || r.memo == NULL) {
            PyErr_NoMemory();
            status = -1;
        }
        else {
            status = select_removed(&s, budget, max_removed, r.slot, &count, &spent);
        }
    }
    if (status > 0 && count == 0) {
        result = Py_BuildValue("(Odn)", args[1], 0.0, (Py_ssize_t)0);
    }
    else if (status > 0) {
        if ((status = ctx_open(&c, args[0])) == 0) {
            r.record = c.st->v_record;
            status = rebuild(&c, &r, edge, w.root, level, &out);
        }
        if ((rebuilt = finish(&c, status, out)) != NULL) {
            result = Py_BuildValue("(Ndn)", rebuilt, spent, count);
        }
    }
    else if (status == 0) {
        result = Py_None;
        Py_INCREF(result);
    }
    contributions_close(&s);
    walk_close(&w);
    PyMem_Free(r.slot);
    PyMem_Free(r.memo);
    return result;
}

/* ------------------------------------------------------------------ */
/* The packed node table (repro-dd-state version 2)                    */
/* ------------------------------------------------------------------ */

/* Per node, the table holds TABLE_INTS little-endian int32 (level, then
 * the positions of child 0 and child 1, -1 for the terminal) and
 * TABLE_DOUBLES little-endian float64 (re and im of weight 0, then of
 * weight 1).  Children precede parents. */
enum { TABLE_INTS = 3, TABLE_DOUBLES = 4 };

/* Copy one `width`-byte value between host order and little-endian. */
static void
le_copy(void *dst, const void *src, size_t width)
{
#if PY_BIG_ENDIAN
    size_t k;
    for (k = 0; k < width; k++) {
        ((unsigned char *)dst)[k] = ((const unsigned char *)src)[width - 1 - k];
    }
#else
    memcpy(dst, src, width);
#endif
}

static int32_t
table_int(const char *ints, Py_ssize_t node, int k)
{
    int32_t value;
    le_copy(&value, ints + 4 * (TABLE_INTS * node + k), 4);
    return value;
}

static Py_complex
table_weight(const char *doubles, Py_ssize_t node, int k)
{
    Py_complex w;
    le_copy(&w.real, doubles + 8 * (TABLE_DOUBLES * node + 2 * k), 8);
    le_copy(&w.imag, doubles + 8 * (TABLE_DOUBLES * node + 2 * k + 1), 8);
    return w;
}

/* DDBackend.state_table over the record: the nodes of the walk in
 * ascending level order, each level in DDBackend.vnodes order, which is
 * the vnodes order with its level groups taken from the last.  None for
 * a foreign diagram. */
static PyObject *
py_state_table(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Walk w;
    Ids order = {NULL, 0, 0};
    PyObject *result = NULL, *ints = NULL, *doubles = NULL;
    int32_t *position = NULL, value;
    Py_ssize_t n, i, start, end, at = 0;
    const Rec *recs;
    Edge root;
    char *ip, *dp;
    int status, k;
    (void)module;
    if (read_sweep_args("state_table", args, nargs, &root) < 0) {
        return NULL;
    }
    if (root.n == NULL) {
        return Py_BuildValue("(y#y#)", "", (Py_ssize_t)0, "", (Py_ssize_t)0);
    }
    if ((status = walk_open(&w, args[0], root.n)) <= 0 ||
        (status = sorted_nodes(&w, &order)) <= 0) {
        goto done;
    }
    status = -1;
    n = order.len;
    recs = records(w.record);
    position = PyMem_Malloc((size_t)w.size * sizeof(int32_t));
    ints = PyBytes_FromStringAndSize(NULL, n * TABLE_INTS * 4);
    doubles = PyBytes_FromStringAndSize(NULL, n * TABLE_DOUBLES * 8);
    if (position == NULL || ints == NULL || doubles == NULL) {
        if (position == NULL) {
            PyErr_NoMemory();
        }
        goto done;
    }
    /* Positions first: a parent names children of lower levels. */
    for (end = n; end > 0; end = start) {
        for (start = end - 1;
             start > 0 && recs[order.data[start - 1]].level == recs[order.data[end - 1]].level;
             start--) {
        }
        for (i = start; i < end; i++) {
            position[order.data[i]] = (int32_t)at++;
        }
    }
    ip = PyBytes_AS_STRING(ints);
    dp = PyBytes_AS_STRING(doubles);
    for (i = 0; i < n; i++) {
        int32_t id = order.data[i];
        Py_ssize_t p = position[id];
        le_copy(ip + 4 * TABLE_INTS * p, &recs[id].level, 4);
        for (k = 0; k < 2; k++) {
            value = recs[id].child[k] == REC_TERMINAL ? -1 : position[recs[id].child[k]];
            le_copy(ip + 4 * (TABLE_INTS * p + 1 + k), &value, 4);
            le_copy(dp + 8 * (TABLE_DOUBLES * p + 2 * k), &recs[id].w[k].real, 8);
            le_copy(dp + 8 * (TABLE_DOUBLES * p + 2 * k + 1), &recs[id].w[k].imag, 8);
        }
    }
    result = PyTuple_Pack(2, ints, doubles);
    status = 1;
done:
    if (status == 0) {
        result = Py_None;
        Py_INCREF(result);
    }
    Py_XDECREF(ints);
    Py_XDECREF(doubles);
    PyMem_Free(position);
    PyMem_Free(order.data);
    walk_close(&w);
    return result;
}

/* |w|^2 for the normalization check (a bound, not an engine value). */
static double
norm2(Py_complex w)
{
    return w.real * w.real + w.imag * w.imag;
}

/* The checks of DDBackend.intern_state_table on node `p`, with its
 * messages: sets ValueError and returns -1 on the first failure. */
static int
check_table_node(const char *ints, const char *doubles, Py_ssize_t p, double slack)
{
    int32_t level = table_int(ints, p, 0), child;
    Py_complex w[2], first;
    int k;
    if (level < 0) {
        PyErr_Format(PyExc_ValueError, "node %zd has negative level %d", p, (int)level);
        return -1;
    }
    for (k = 0; k < 2; k++) {
        child = table_int(ints, p, 1 + k);
        w[k] = table_weight(doubles, p, k);
        if (child < -1 || child >= p) {
            PyErr_Format(PyExc_ValueError, "node %zd references forward/unknown child %d", p,
                         (int)child);
            return -1;
        }
        if (!isfinite(w[k].real) || !isfinite(w[k].imag)) {
            PyErr_Format(PyExc_ValueError, "node %zd has a non-finite weight", p);
            return -1;
        }
        if (child >= 0 && table_int(ints, child, 0) != level - 1) {
            PyErr_Format(PyExc_ValueError, "node %zd at level %d references child %d at level %d",
                         p, (int)level, (int)child, (int)table_int(ints, child, 0));
            return -1;
        }
        if (child >= 0 && IS_ZERO(w[k])) {
            PyErr_Format(PyExc_ValueError, "node %zd has a zero edge into node %d", p,
                         (int)child);
            return -1;
        }
        if (child < 0 && level > 0 && !IS_ZERO(w[k])) {
            PyErr_Format(PyExc_ValueError,
                         "node %zd at level %d has a non-zero edge into the terminal", p,
                         (int)level);
            return -1;
        }
    }
    first = IS_ZERO(w[0]) ? w[1] : w[0];
    if (!(first.real > 0.0) || fabs(first.imag) > slack) {
        PyErr_Format(PyExc_ValueError, "node %zd's first non-zero weight is not real and positive",
                     p);
        return -1;
    }
    if (fabs(norm2(w[0]) + norm2(w[1]) - 1.0) > slack) {
        PyErr_Format(PyExc_ValueError, "node %zd is not normalized", p);
        return -1;
    }
    return 0;
}

/* DDBackend.intern_state_table: check every node and the root, then
 * intern the nodes in table order with their stored weights. */
static PyObject *
py_intern_state_table(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Ctx c;
    PyObject **nodes = NULL, *result = NULL;
    const char *ints, *doubles;
    Py_ssize_t n, p, num_qubits, root;
    double slack;
    Edge e[2];
    int k, status = -1;
    (void)module;
    if (check_args("intern_state_table", nargs, 6) < 0) {
        return NULL;
    }
    if (!PyBytes_Check(args[2]) || !PyBytes_Check(args[3])) {
        PyErr_SetString(PyExc_TypeError, "the node table must be bytes");
        return NULL;
    }
    num_qubits = PyLong_AsSsize_t(args[1]);
    root = PyLong_AsSsize_t(args[4]);
    slack = PyFloat_AsDouble(args[5]);
    if (PyErr_Occurred()) {
        return NULL;
    }
    n = PyBytes_GET_SIZE(args[2]) / (TABLE_INTS * 4);
    if (PyBytes_GET_SIZE(args[2]) != n * TABLE_INTS * 4 ||
        PyBytes_GET_SIZE(args[3]) != n * TABLE_DOUBLES * 8) {
        PyErr_Format(PyExc_ValueError,
                     "node table buffers of %zd and %zd bytes hold no whole number of nodes",
                     PyBytes_GET_SIZE(args[2]), PyBytes_GET_SIZE(args[3]));
        return NULL;
    }
    if (n > INT32_MAX) {
        PyErr_SetString(PyExc_ValueError, "node table too large");
        return NULL;
    }
    ints = PyBytes_AS_STRING(args[2]);
    doubles = PyBytes_AS_STRING(args[3]);
    for (p = 0; p < n; p++) {
        if (check_table_node(ints, doubles, p, slack) < 0) {
            return NULL;
        }
    }
    if (root == -1) {
        PyErr_SetString(PyExc_ValueError, "state root cannot be the terminal");
        return NULL;
    }
    if (root < 0 || root >= n) {
        PyErr_Format(PyExc_ValueError, "root references unknown node %zd", root);
        return NULL;
    }
    if (table_int(ints, root, 0) != num_qubits - 1) {
        PyErr_Format(PyExc_ValueError, "root level %d is not num_qubits - 1 (%zd)",
                     (int)table_int(ints, root, 0), num_qubits - 1);
        return NULL;
    }
    if ((nodes = PyMem_Malloc((size_t)n * sizeof(PyObject *))) == NULL) {
        return PyErr_NoMemory();
    }
    if (ctx_open(&c, args[0]) < 0) {
        PyMem_Free(nodes);
        ctx_close(&c, 1);
        return NULL;
    }
    for (p = 0; p < n; p++) {
        for (k = 0; k < 2; k++) {
            int32_t child = table_int(ints, p, 1 + k);
            e[k].w = table_weight(doubles, p, k);
            e[k].n = child < 0 ? NULL : nodes[child];
        }
        if (intern_vnode(&c, table_int(ints, p, 0), e[0], e[1], &nodes[p]) < 0) {
            break;
        }
    }
    if (p == n) {
        status = 0;
        result = nodes[root];
        Py_INCREF(result);
    }
    PyMem_Free(nodes);
    if (ctx_close(&c, status < 0) < 0) {
        Py_CLEAR(result);
    }
    return result;
}

/* ------------------------------------------------------------------ */
/* The inner product entry                                            */
/* ------------------------------------------------------------------ */

static int
read_node_arg(PyObject *obj, PyObject **node)
{
    if (obj == Py_None) {
        *node = NULL;
    }
    else if (Py_IS_TYPE(obj, vnode_type) || IS_ARENA_VNODE(obj)) {
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
    if (ctx_open(&c, args[0]) < 0) {
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

/* ------------------------------------------------------------------ */
/* The reclaim                                                         */
/* ------------------------------------------------------------------ */

/* Keep flags for the ids a cache's keys name: dropping one would change
 * later cache hits.  `first` and `second` flag the kinds of the two ids
 * (vector or matrix); ids of no slot (a foreign node's) flag nothing. */
static void
seed_keep(const Table *t, unsigned char *first, Py_ssize_t n_first, unsigned char *second,
          Py_ssize_t n_second)
{
    size_t size = kinds[t->kind].size;
    Py_ssize_t position;
    const PairKey *key;
    for (position = 0; position < t->count; position++) {
        key = (const PairKey *)(t->entries + (size_t)position * size);
        if (key->hash <= HASH_DELETED) {
            continue;
        }
        if (key->id[0] >= 0 && key->id[0] < n_first) {
            first[key->id[0]] = 1;
        }
        if (key->id[1] >= 0 && key->id[1] < n_second) {
            second[key->id[1]] = 1;
        }
    }
}

/* Whether `node` (a node of `nodes`) is interned: the unique-table entry
 * of the key its current level and edges give holds it.  Returns the
 * entry's slot, NULL when it is not interned, or NULL with an error. */
static char *
interned_slot(Table *t, PyObject *node, int matrix, double inv)
{
    union {
        VKey v;
        MKey m;
    } key;
    Edge edges[4];
    long level;
    int found;
    char *slot;
    if (matrix ? read_node_edges(node, m_edges_off, 4, mnode_type, edges) < 0 ||
                     level_of(node, m_level_off, &level) < 0
               : vnode_edges(node, edges) < 0 || vnode_level(node, &level) < 0) {
        return NULL;
    }
    found = matrix ? mkey_fill(&key.m, level, edges, inv)
                   : vkey_fill(&key.v, level, edges[0], edges[1], inv);
    if (found <= 0) {
        return NULL;
    }
    if (matrix) {
        slot = lookup(t, &key.m, sizeof(MEntry), sizeof(MKey));
        return slot != NULL && ((MEntry *)slot)->node == node ? slot : NULL;
    }
    slot = lookup(t, &key.v, sizeof(VEntry), sizeof(VKey));
    return slot != NULL && ((VEntry *)slot)->node == node ? slot : NULL;
}

/* Free every node of one kind that nothing outside the arena holds.
 *
 * Inside the arena a node is referenced by its list slot, its unique-
 * table entry, and its parents (their child pointers or edge tuples,
 * and their table keys); everything else (caller states, compute-cache
 * values, gate_cache, the identity cache) is outside.  Ids run
 * children-before-parents, so a sweep from the highest id down decides
 * every parent before its children: a node is kept when `keep` already
 * names it (a kept parent or a cache key does), or when its reference
 * count shows a holder outside the arena.  Anything else loses its table
 * entry and then its slot (left None for compact), and is freed on the
 * spot -- releasing its children for the rest of the sweep, the same
 * cascade the reference's weak tables see.  A kept vector node keeps the
 * children its record entry names, a kept matrix node those of its
 * edges.  On return `keep` is the survivor mask. */
static int
sweep(State *st, int matrix, unsigned char *keep, double inv)
{
    PyObject *nodes = matrix ? st->m_nodes : st->v_nodes, *node, *child;
    Table *t = st->tables[matrix ? T_MTABLE : T_VTABLE];
    Py_ssize_t i, n = PyList_GET_SIZE(nodes), index;
    int k;
    Edge edges[4];
    char *slot;
    for (i = n - 1; i >= 0; i--) {
        node = PyList_GET_ITEM(nodes, i);
        if (matrix ? !Py_IS_TYPE(node, mnode_type)
                   : !IS_ARENA_VNODE(node) || ((Node *)node)->record != st->v_record) {
            PyErr_Format(PyExc_TypeError, "arena slot %zd holds a %.100s of no slot here", i,
                         Py_TYPE(node)->tp_name);
            return -1;
        }
        if (!keep[i]) {
            slot = interned_slot(t, node, matrix, inv);
            if (slot == NULL && PyErr_Occurred()) {
                return -1;
            }
            /* Held by its slot and, when interned, its entry alone. */
            if (Py_REFCNT(node) <= 1 + (slot != NULL)) {
                if (slot != NULL) {
                    table_delete(t, slot);
                }
                Py_INCREF(Py_None);
                PyList_SET_ITEM(nodes, i, Py_None);
                Py_DECREF(node);
                continue;
            }
        }
        keep[i] = 1;
        if (!matrix) {
            for (k = 0; k < 2; k++) {
                index = records(st->v_record)[i].child[k];
                if (index >= 0 && index < n) {
                    keep[index] = 1;
                }
            }
            continue;
        }
        if (read_node_edges(node, m_edges_off, 4, mnode_type, edges) < 0) {
            return -1;
        }
        for (k = 0; k < 4; k++) {
            if ((child = edges[k].n) == NULL) {
                continue;
            }
            if (node_index(child, m_index_off) == NULL) {
                return -1;
            }
            index = PyLong_AsSsize_t(SLOT(child, m_index_off));
            if (index == -1 && PyErr_Occurred()) {
                PyErr_Clear(); /* out of range: no slot */
                continue;
            }
            if (index >= 0 && index < n && PyList_GET_ITEM(nodes, index) == child) {
                keep[index] = 1;
            }
        }
    }
    return 0;
}

/* Close the gaps the sweep left in `nodes` (of `n` entries), survivors
 * keeping their order, renumber the survivors' slots (an arena vector
 * node's field, an MNode's `index`), and fill `map`: old id -> new id,
 * -1 for a freed node. */
static int
compact(PyObject *nodes, Py_ssize_t n, int matrix, int32_t *map)
{
    PyObject **items, *node, *index;
    Py_ssize_t old, new = 0;
    int rc = 0;
    if (PyList_GET_SIZE(nodes) != n) {
        PyErr_SetString(PyExc_RuntimeError, "arena node list changed during a reclaim");
        return -1;
    }
    /* Positions [0, new) hold the survivors so far and [new, old) the
     * Nones of freed nodes, so a survivor swaps places with a None. */
    items = ((PyListObject *)nodes)->ob_item;
    for (old = 0; old < n; old++) {
        node = items[old];
        if (node == Py_None) {
            map[old] = -1;
            continue;
        }
        map[old] = (int32_t)new;
        if (new != old) {
            if (!matrix) {
                ((Node *)node)->slot = new;
            }
            else if ((index = PyLong_FromSsize_t(new)) == NULL) {
                rc = -1;
            }
            else {
                Py_XSETREF(SLOT(node, m_index_off), index);
            }
            items[old] = items[new];
            items[new] = node;
        }
        new++;
    }
    if (PyList_SetSlice(nodes, new, n, NULL) < 0) {
        return -1;
    }
    return rc;
}

/* Renumber the record after compact: entry `old` moves to map[old]
 * (-1: freed) with its children's ids mapped too. */
static int
compact_record(PyObject *record, const int32_t *map, Py_ssize_t size)
{
    Rec *recs = records(record), rec;
    Py_ssize_t old, kept = 0;
    int k;
    for (old = 0; old < size; old++) {
        if (map[old] < 0) {
            continue;
        }
        rec = recs[old];
        for (k = 0; k < 2; k++) {
            if (rec.child[k] < 0) {
                continue;
            }
            if (rec.child[k] >= old || map[rec.child[k]] < 0) {
                PyErr_Format(PyExc_RuntimeError, "reclaim kept slot %zd but not its child %d",
                             old, (int)rec.child[k]);
                return -1;
            }
            rec.child[k] = map[rec.child[k]];
        }
        /* Survivors keep their order, so an entry never moves up. */
        recs[map[old]] = rec;
        kept++;
    }
    return PyByteArray_Resize(record, kept * (Py_ssize_t)sizeof(Rec));
}

/* Rename the ids of every key of a compute cache through the maps of
 * their kinds (rehashing it); an entry that names no slot (a foreign
 * node's id) is deleted. */
static int
rekey(Table *t, const int32_t *first, Py_ssize_t n_first, const int32_t *second,
      Py_ssize_t n_second)
{
    size_t size = kinds[t->kind].size;
    Py_ssize_t position;
    PairKey *key;
    for (position = 0; position < t->count; position++) {
        key = (PairKey *)(t->entries + (size_t)position * size);
        if (key->hash <= HASH_DELETED) {
            continue;
        }
        if (key->id[0] < 0 || key->id[0] >= n_first || first[key->id[0]] < 0 ||
            key->id[1] < 0 || key->id[1] >= n_second || second[key->id[1]] < 0) {
            table_delete(t, (char *)key);
            continue;
        }
        key->id[0] = first[key->id[0]];
        key->id[1] = second[key->id[1]];
        key->hash = ids_hash(key, t->kind == KIND_ADD ? ((AddKey *)key)->ratio : NULL);
    }
    return table_compact(t);
}

/* State.reclaim(): drop the nodes the reference engine would have freed
 * and renumber the survivors densely in their old order.  Kept are the
 * nodes referenced from outside the arena and those a compute-cache key
 * names; the node lists and the record are compacted in place and the
 * cache keys renamed. */
static PyObject *
state_reclaim(PyObject *self, PyObject *unused)
{
    State *st = (State *)self;
    Py_ssize_t nv = PyList_GET_SIZE(st->v_nodes), nm = PyList_GET_SIZE(st->m_nodes);
    unsigned char *v_keep = PyMem_Calloc((size_t)nv + 1, 1);
    unsigned char *m_keep = PyMem_Calloc((size_t)nm + 1, 1);
    int32_t *v_map = PyMem_Malloc(((size_t)nv + 1) * sizeof(int32_t));
    int32_t *m_map = PyMem_Malloc(((size_t)nm + 1) * sizeof(int32_t));
    Table **tables = st->tables;
    double inv;
    int rc = -1;
    (void)unused;
    if (v_keep == NULL || m_keep == NULL || v_map == NULL || m_map == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (ctable_float(s_inv_tolerance, &inv) < 0 || record_synced(st->v_nodes, st->v_record) < 0) {
        goto done;
    }
    if (nv > INT32_MAX || nm > INT32_MAX) {
        PyErr_SetString(PyExc_OverflowError, "arena too large to renumber");
        goto done;
    }
    seed_keep(tables[T_VADD], v_keep, nv, v_keep, nv);
    seed_keep(tables[T_MADD], m_keep, nm, m_keep, nm);
    seed_keep(tables[T_INNER], v_keep, nv, v_keep, nv);
    seed_keep(tables[T_MM], m_keep, nm, m_keep, nm);
    seed_keep(tables[T_MV], m_keep, nm, v_keep, nv);
    if (sweep(st, 0, v_keep, inv) < 0 || compact(st->v_nodes, nv, 0, v_map) < 0 ||
        compact_record(st->v_record, v_map, nv) < 0 || sweep(st, 1, m_keep, inv) < 0 ||
        compact(st->m_nodes, nm, 1, m_map) < 0 || table_compact(tables[T_VTABLE]) < 0 ||
        table_compact(tables[T_MTABLE]) < 0 || rekey(tables[T_VADD], v_map, nv, v_map, nv) < 0 ||
        rekey(tables[T_MADD], m_map, nm, m_map, nm) < 0 ||
        rekey(tables[T_MV], m_map, nm, v_map, nv) < 0 ||
        rekey(tables[T_MM], m_map, nm, m_map, nm) < 0 ||
        rekey(tables[T_INNER], v_map, nv, v_map, nv) < 0) {
        goto done;
    }
    rc = 0;
done:
    PyMem_Free(v_keep);
    PyMem_Free(m_keep);
    PyMem_Free(v_map);
    PyMem_Free(m_map);
    if (rc < 0) {
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
    {"controlled_medge", (PyCFunction)(void (*)(void))py_controlled_medge, METH_FASTCALL,
     "controlled_medge(backend, num_qubits, factors, controls, bottom, bottom_levels) -> edge"},
    {"permutation_block", (PyCFunction)(void (*)(void))py_permutation_block, METH_FASTCALL,
     "permutation_block(backend, level, rows) -> edge"},
    {"node_count", (PyCFunction)(void (*)(void))py_node_count, METH_FASTCALL,
     "node_count(backend, edge) -> int, or None for a foreign diagram"},
    {"vnodes", (PyCFunction)(void (*)(void))py_vnodes, METH_FASTCALL,
     "vnodes(backend, edge) -> list, or None for a foreign diagram"},
    {"norm_contributions", (PyCFunction)(void (*)(void))py_norm_contributions, METH_FASTCALL,
     "norm_contributions(backend, edge) -> dict, or None for a foreign diagram"},
    {"approximate_round", (PyCFunction)(void (*)(void))py_approximate_round, METH_FASTCALL,
     "approximate_round(backend, edge, level, budget, max_removed) -> (edge, spent, count), "
     "or None for a foreign diagram"},
    {"inner_nodes", (PyCFunction)(void (*)(void))py_inner_nodes, METH_FASTCALL,
     "inner_nodes(backend, n1, n2, level) -> complex"},
    {"state_table", (PyCFunction)(void (*)(void))py_state_table, METH_FASTCALL,
     "state_table(backend, edge) -> (ints, doubles), or None for a foreign diagram"},
    {"intern_state_table", (PyCFunction)(void (*)(void))py_intern_state_table, METH_FASTCALL,
     "intern_state_table(backend, num_qubits, ints, doubles, root, slack) -> node"},
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
        {&s_state, "_state"},
        {&s_cache_flushed, "_cache_flushed"},
        {&s_stats, "stats"},
        {&s_cache_counts, "_cache_counts"},
        {&s_vcount_cache, "_vcount_cache"},
        {&s_vnodes_created, "vnodes_created"},
        {&s_mnodes_created, "mnodes_created"},
        {&s_identity, "identity"},
        {&cache_names[T_VADD], "vadd"},
        {&cache_names[T_MADD], "madd"},
        {&cache_names[T_MV], "mv"},
        {&cache_names[T_MM], "mm"},
        {&cache_names[T_INNER], "inner"},
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
    ctable_dict = PyModule_GetDict(ctable);
    rc = node_class(node_module, "VNode", &vnode_type) < 0 ||
                 node_class(node_module, "MNode", &mnode_type) < 0 ||
                 slot_offset(vnode_type, "level", &v_level_off) < 0 ||
                 slot_offset(vnode_type, "edges", &v_edges_off) < 0 ||
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
    PyObject *module;
    if (init_globals() < 0 || PyType_Ready(&Table_Type) < 0 || PyType_Ready(&State_Type) < 0 ||
        PyType_Ready(&Node_Type) < 0 ||
        (module = PyModule_Create(&core_module)) == NULL) {
        return NULL;
    }
    if (PyModule_AddObjectRef(module, "State", (PyObject *)&State_Type) < 0 ||
        PyModule_AddObjectRef(module, "ArenaVNode", (PyObject *)&Node_Type) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
