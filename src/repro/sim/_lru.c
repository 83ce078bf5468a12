/*
 * The LRU walk of repro.sim.cache.SetAssociativeCache.
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

static PyMethodDef lru_methods[] = {
    {"run", (PyCFunction)(void (*)(void))lru_run, METH_FASTCALL,
     "run(state, addrs, hits) -> (misses, evictions)"},
    {"access", (PyCFunction)(void (*)(void))lru_access, METH_FASTCALL,
     "access(state, line) -> 1 hit, 0 miss, -1 miss with eviction"},
    {"find", (PyCFunction)(void (*)(void))lru_find, METH_FASTCALL,
     "find(state, line, op) -> resident; op 1 touches, 2 removes"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef lru_module = {
    PyModuleDef_HEAD_INIT, "_lru", "Compiled LRU walk of SetAssociativeCache.",
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
