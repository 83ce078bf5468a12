/*
 * The LRU walk of repro.sim.cache.SetAssociativeCache, and the two
 * per-access loops of the utility monitor.
 *
 * A cache's state is one C-contiguous int64 array owned by the Python
 * object, ``state[sets][1 + ways]``: column 0 of each row is the number
 * of resident lines of that set, and the next ``ways`` columns hold
 * them in LRU -> MRU order, with EMPTY in the free slots, so the bytes
 * of the array are a function of the LRU order alone. A line maps to
 * set ``line % sets`` with Python's sign rule (the result takes the
 * divisor's sign), as the reference model computes it.
 *
 * Three entry points step that state exactly as the reference model's
 * list operations do:
 *
 *   run(state, addrs, hits) -> (misses, evictions)
 *       access every line of ``addrs`` (int32 or int64) in order and
 *       write one hit flag per line into ``hits`` (one byte each);
 *   access(state, line) -> 1 hit, 0 miss into a free way,
 *       -1 miss that evicted the set's LRU line;
 *   find(state, line, op) -> whether the line is resident; op 0
 *       reads only, 1 also moves a resident line to MRU, 2 removes it.
 *
 * Two more serve the utility monitor (repro.monitor), replaying its
 * Python loops operation for operation:
 *
 *   reuse_walk(tree, last, ids, fed, clock, distances) -> clock
 *       the Mattson reuse distances of ReuseDistanceTracker.observe_run
 *       over line ids: ``tree`` is the int64 Fenwick tree over access
 *       timestamps (1-based, ``tree[0]`` unused, room for every new
 *       timestamp), ``last[id]`` the line's last timestamp (0 = never
 *       seen); the run is ``ids[fed[k]]`` for each k, and its distances
 *       (COLD = -1 on a first touch) go into ``distances``;
 *   umon_feed(codes, bins, epoch, scale, window) -> (fed, sampled, epoch)
 *       UMONMonitor.observe_code once per monitor-trace code: the fed
 *       and sampled counts, the float64 ``bins`` updated in place, and
 *       the new epoch. Each sampled code adds 1.0 to its bin and the
 *       epoch, then every bin and the epoch halve when
 *       ``epoch * scale > window`` -- the same IEEE-754 double
 *       operations in the same order (setup.py builds with
 *       -ffp-contract=off, never -ffast-math), so the results match
 *       bit for bit.
 *
 * The build defines LRU_SOURCE_HASH as the sha256 of this file, and
 * the loader (repro.sim.native) rebuilds when it differs.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#ifndef LRU_SOURCE_HASH
#define LRU_SOURCE_HASH "unknown"
#endif

#define EMPTY INT64_MIN

/* Monitor-trace codes (repro.monitor.umon): not fed, fed but dropped
 * by set sampling; any smaller code is a bin index. */
#define CODE_UNFED 255
#define CODE_UNSAMPLED 254
#define COLD_DISTANCE (-1)

typedef struct {
    Py_buffer view;
    int64_t *rows;
    Py_ssize_t sets;
    Py_ssize_t width;
} State;

static int
state_get(State *st, PyObject *obj)
{
    if (PyObject_GetBuffer(obj, &st->view,
                           PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE) < 0)
        return -1;
    if (st->view.ndim != 2 || st->view.itemsize != 8
        || st->view.shape[0] < 1 || st->view.shape[1] < 2) {
        PyBuffer_Release(&st->view);
        PyErr_SetString(PyExc_ValueError,
                        "LRU state is an int64 array [sets][1 + ways]");
        return -1;
    }
    st->rows = (int64_t *)st->view.buf;
    st->sets = st->view.shape[0];
    st->width = st->view.shape[1];
    return 0;
}

/* The row of ``line``'s set: its fill count, then its tags. */
static inline int64_t *
row_of(const State *st, int64_t line)
{
    int64_t set = line % st->sets;
    if (set < 0)
        set += st->sets;
    return st->rows + set * st->width;
}

/* Index of ``line`` among the row's ``n`` resident lines, or -1.
 * Searched from the MRU end, where hits cluster. */
static inline Py_ssize_t
lookup(const int64_t *row, int64_t n, int64_t line)
{
    for (int64_t i = n - 1; i >= 0; i--)
        if (row[i] == line)
            return (Py_ssize_t)i;
    return -1;
}

/* One access: 1 hit, 0 miss into a free way, -1 miss with eviction. */
static inline int
step(const State *st, int64_t line)
{
    int64_t *row = row_of(st, line);
    int64_t *tags = row + 1;
    int64_t n = row[0];
    Py_ssize_t i = lookup(tags, n, line);
    if (i >= 0) {
        memmove(tags + i, tags + i + 1, (size_t)(n - 1 - i) * sizeof(int64_t));
        tags[n - 1] = line;
        return 1;
    }
    if (n < st->width - 1) {
        tags[n] = line;
        row[0] = n + 1;
        return 0;
    }
    memmove(tags, tags + 1, (size_t)(n - 1) * sizeof(int64_t));
    tags[n - 1] = line;
    return -1;
}

static PyObject *
lru_run(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    State st;
    Py_buffer addrs, hits;
    Py_ssize_t misses = 0, evictions = 0;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "run(state, addrs, hits)");
        return NULL;
    }
    if (state_get(&st, args[0]) < 0)
        return NULL;
    if (PyObject_GetBuffer(args[1], &addrs, PyBUF_C_CONTIGUOUS) < 0) {
        PyBuffer_Release(&st.view);
        return NULL;
    }
    if (PyObject_GetBuffer(args[2], &hits,
                           PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE) < 0) {
        PyBuffer_Release(&addrs);
        PyBuffer_Release(&st.view);
        return NULL;
    }
    Py_ssize_t n = addrs.len / (addrs.itemsize ? addrs.itemsize : 1);
    if ((addrs.itemsize != 4 && addrs.itemsize != 8) || hits.itemsize != 1
        || hits.len != n) {
        PyErr_SetString(PyExc_ValueError,
                        "run needs int32/int64 addrs and one hit byte each");
        PyBuffer_Release(&hits);
        PyBuffer_Release(&addrs);
        PyBuffer_Release(&st.view);
        return NULL;
    }
    uint8_t *out = (uint8_t *)hits.buf;
    if (addrs.itemsize == 4) {
        const int32_t *in = (const int32_t *)addrs.buf;
        for (Py_ssize_t k = 0; k < n; k++) {
            int r = step(&st, (int64_t)in[k]);
            out[k] = r > 0;
            misses += r <= 0;
            evictions += r < 0;
        }
    }
    else {
        const int64_t *in = (const int64_t *)addrs.buf;
        for (Py_ssize_t k = 0; k < n; k++) {
            int r = step(&st, in[k]);
            out[k] = r > 0;
            misses += r <= 0;
            evictions += r < 0;
        }
    }
    PyBuffer_Release(&hits);
    PyBuffer_Release(&addrs);
    PyBuffer_Release(&st.view);
    return Py_BuildValue("nn", misses, evictions);
}

static int
line_arg(PyObject *obj, int64_t *line)
{
    long long value = PyLong_AsLongLong(obj);
    if (value == -1 && PyErr_Occurred())
        return -1;
    *line = (int64_t)value;
    return 0;
}

static PyObject *
lru_access(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    State st;
    int64_t line;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "access(state, line)");
        return NULL;
    }
    if (line_arg(args[1], &line) < 0 || state_get(&st, args[0]) < 0)
        return NULL;
    int r = step(&st, line);
    PyBuffer_Release(&st.view);
    return PyLong_FromLong(r);
}

static PyObject *
lru_find(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    State st;
    int64_t line;
    long op;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "find(state, line, op)");
        return NULL;
    }
    if (line_arg(args[1], &line) < 0)
        return NULL;
    op = PyLong_AsLong(args[2]);
    if (op == -1 && PyErr_Occurred())
        return NULL;
    if (state_get(&st, args[0]) < 0)
        return NULL;
    int64_t *row = row_of(&st, line);
    int64_t *tags = row + 1;
    int64_t n = row[0];
    Py_ssize_t i = lookup(tags, n, line);
    if (i >= 0 && op) {
        memmove(tags + i, tags + i + 1, (size_t)(n - 1 - i) * sizeof(int64_t));
        if (op == 1) {
            tags[n - 1] = line;
        }
        else {
            tags[n - 1] = EMPTY;
            row[0] = n - 1;
        }
    }
    PyBuffer_Release(&st.view);
    return PyBool_FromLong(i >= 0);
}

/* A 1-D C-contiguous buffer of ``itemsize``-byte items; n items. */
static int
vector_get(Py_buffer *view, PyObject *obj, Py_ssize_t itemsize, int writable,
           Py_ssize_t *n, const char *what)
{
    int flags = PyBUF_C_CONTIGUOUS | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->ndim != 1 || view->itemsize != itemsize) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_ValueError, "%s must be a 1-D array of %zd-byte items",
                     what, itemsize);
        return -1;
    }
    *n = view->shape[0];
    return 0;
}

/* Sum of the Fenwick tree's values at positions 1..position. */
static inline int64_t
prefix_sum(const int64_t *tree, int64_t position)
{
    int64_t total = 0;
    for (; position > 0; position -= position & -position)
        total += tree[position];
    return total;
}

/* Add ``delta`` at 1-based ``position`` of a tree over 1..size. */
static inline void
fenwick_add(int64_t *tree, int64_t size, int64_t position, int64_t delta)
{
    for (; position <= size; position += position & -position)
        tree[position] += delta;
}

static PyObject *
lru_reuse_walk(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer views[5];
    Py_ssize_t lens[5];
    static const char *names[5] = {"tree", "last", "ids", "fed", "distances"};
    static const int writable[5] = {1, 1, 0, 0, 1};
    static const int slots[5] = {0, 1, 2, 3, 5};
    int got = 0;
    PyObject *result = NULL;
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "reuse_walk(tree, last, ids, fed, clock, distances)");
        return NULL;
    }
    long long start = PyLong_AsLongLong(args[4]);
    if (start == -1 && PyErr_Occurred())
        return NULL;
    for (; got < 5; got++)
        if (vector_get(&views[got], args[slots[got]], 8, writable[got],
                       &lens[got], names[got]) < 0)
            goto done;
    int64_t *tree = (int64_t *)views[0].buf;
    int64_t *last = (int64_t *)views[1].buf;
    const int64_t *ids = (const int64_t *)views[2].buf;
    const int64_t *fed = (const int64_t *)views[3].buf;
    int64_t *out = (int64_t *)views[4].buf;
    Py_ssize_t size = lens[0] - 1, lines = lens[1], n = lens[3];
    if (lens[4] != n || start < 0 || start > (long long)size - n) {
        PyErr_SetString(PyExc_ValueError,
                        "reuse_walk needs one distance slot per fed access "
                        "and a tree with room for every new timestamp");
        goto done;
    }
    /* Check every index first, so a bad run leaves the state untouched. */
    for (Py_ssize_t k = 0; k < n; k++) {
        int64_t at = fed[k];
        if (at < 0 || at >= lens[2] || ids[at] < 0 || ids[at] >= lines) {
            PyErr_SetString(PyExc_IndexError, "reuse_walk index out of range");
            goto done;
        }
    }
    int64_t clock = (int64_t)start;
    for (Py_ssize_t k = 0; k < n; k++) {
        int64_t line = ids[fed[k]];
        int64_t previous = last[line];
        clock++;
        if (previous == 0) {
            out[k] = COLD_DISTANCE;
        }
        else {
            /* range_sum(previous + 1, clock - 1) as two prefix walks. */
            out[k] = prefix_sum(tree, clock - 1) - prefix_sum(tree, previous);
            fenwick_add(tree, size, previous, -1);
        }
        fenwick_add(tree, size, clock, 1);
        last[line] = clock;
    }
    result = PyLong_FromLongLong((long long)clock);
done:
    while (got > 0)
        PyBuffer_Release(&views[--got]);
    return result;
}

static PyObject *
lru_umon_feed(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer codes, bins_view;
    Py_ssize_t n, nbins, fed = 0, sampled = 0;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "umon_feed(codes, bins, epoch, scale, window)");
        return NULL;
    }
    double values[3];
    for (int i = 0; i < 3; i++) {
        values[i] = PyFloat_AsDouble(args[2 + i]);
        if (values[i] == -1.0 && PyErr_Occurred())
            return NULL;
    }
    double epoch = values[0], scale = values[1], window = values[2];
    if (vector_get(&codes, args[0], 1, 0, &n, "codes") < 0)
        return NULL;
    if (vector_get(&bins_view, args[1], 8, 1, &nbins, "bins") < 0) {
        PyBuffer_Release(&codes);
        return NULL;
    }
    const uint8_t *in = (const uint8_t *)codes.buf;
    double *bins = (double *)bins_view.buf;
    /* Count, and check every bin index before any bin moves. */
    for (Py_ssize_t k = 0; k < n; k++) {
        uint8_t code = in[k];
        if (code == CODE_UNFED)
            continue;
        fed++;
        if (code == CODE_UNSAMPLED)
            continue;
        sampled++;
        if (code >= nbins) {
            PyBuffer_Release(&bins_view);
            PyBuffer_Release(&codes);
            PyErr_SetString(PyExc_IndexError, "umon_feed bin index out of range");
            return NULL;
        }
    }
    if (sampled) {
        for (Py_ssize_t k = 0; k < n; k++) {
            uint8_t code = in[k];
            if (code >= CODE_UNSAMPLED)
                continue;
            bins[code] += 1.0;
            epoch += 1.0;
            if (epoch * scale > window) {
                for (Py_ssize_t b = 0; b < nbins; b++)
                    bins[b] *= 0.5;
                epoch *= 0.5;
            }
        }
    }
    PyBuffer_Release(&bins_view);
    PyBuffer_Release(&codes);
    return Py_BuildValue("nnd", fed, sampled, epoch);
}

static PyMethodDef lru_methods[] = {
    {"run", (PyCFunction)(void (*)(void))lru_run, METH_FASTCALL,
     "run(state, addrs, hits) -> (misses, evictions)"},
    {"access", (PyCFunction)(void (*)(void))lru_access, METH_FASTCALL,
     "access(state, line) -> 1 hit, 0 miss, -1 miss with eviction"},
    {"find", (PyCFunction)(void (*)(void))lru_find, METH_FASTCALL,
     "find(state, line, op) -> resident; op 1 touches, 2 removes"},
    {"reuse_walk", (PyCFunction)(void (*)(void))lru_reuse_walk, METH_FASTCALL,
     "reuse_walk(tree, last, ids, fed, clock, distances) -> clock"},
    {"umon_feed", (PyCFunction)(void (*)(void))lru_umon_feed, METH_FASTCALL,
     "umon_feed(codes, bins, epoch, scale, window) -> (fed, sampled, epoch)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef lru_module = {
    PyModuleDef_HEAD_INIT, "_lru",
    "Compiled LRU walk of SetAssociativeCache, and the utility monitor's walks.",
    -1, lru_methods,
};

PyMODINIT_FUNC
PyInit__lru(void)
{
    PyObject *m = PyModule_Create(&lru_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddStringConstant(m, "SOURCE_MARKER",
                                   "repro-lru-source-sha256:" LRU_SOURCE_HASH) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
