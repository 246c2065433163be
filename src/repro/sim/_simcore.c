/* Simulation kernel hot core: event heap, Timeout and dispatch loop, in C.
 *
 * A campaign is hundreds of thousands of iterations of the same cycle:
 * create a Timeout, push it on the event queue, pop the minimum, run its
 * callbacks, resume a generator.  This module keeps that whole cycle on
 * the C side of the interpreter:
 *
 * EventHeap
 *   Binary heap of (when, priority, seq, event) entries with the three
 *   ordering keys stored *unboxed* (C double / long / long long) beside
 *   the event pointer — sift comparisons are machine compares instead of
 *   Python tuple comparisons.  The heap owns both the sequence counter
 *   (``push`` stamps the next seq itself; seq makes the key total, so pop
 *   order is bit-identical to heapq over equivalent tuples) and the
 *   simulation clock (``now`` advances to each popped entry's time, so
 *   the dispatch paths never box the clock).
 *
 * Timeout
 *   A born-scheduled event: the constructor stamps the fields and sifts
 *   the object into the C heap in one call — no Python ``__init__``
 *   frame.  ``callbacks`` materialises lazily: a watcherless timeout (the
 *   transfer/churn case) never allocates its waiter list, stays invisible
 *   to the cyclic GC (it holds no references that can form a cycle until
 *   a waiter subscribes), and costs one object allocation total.  It
 *   duck-types the Python Event surface the kernel reads (``callbacks``,
 *   ``_ok``, ``_value``, ``_scheduled``, ``triggered``, ``processed``,
 *   ``ok``, ``value``, ``delay``) and its type ``__name__`` is "Timeout"
 *   so determinism event logs match the pure-Python kernel's exactly.
 *
 * drain(engine, heap, until, clamp, stopproc)
 *   The non-logging dispatch loop: pop, advance the clock, run callbacks.
 *   A process is its own resume callback (``Process.__call__`` is
 *   ``_resume``).  When a waiter's type is exactly Process (the
 *   overwhelmingly common case — the type is registered via
 *   ``configure()``), the resume itself runs in C: interrupt check,
 *   generator send/throw, StopIteration -> succeed, subscribe the process
 *   to the yielded event.  Every branch mirrors the pure-Python
 *   ``Process._resume`` line for line; the determinism suite pins the
 *   equivalence.  Subclasses of Process take the generic call.
 *
 * Built on first import by repro.sim.simcore; that module falls back to a
 * pure-Python implementation when no C toolchain is available, and the
 * kernel test suite runs against both.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>

/* ------------------------------------------------------------------ */
/* Module state (set once by configure(); NULL-safe before that)       */
/* ------------------------------------------------------------------ */

static PyObject *g_process_type;  /* Process class */
static PyObject *g_simerror;      /* SimulationError class */

static PyObject *str_callbacks, *str__ok, *str__value, *str__scheduled,
    *str__defused, *str__active_process, *str_generator, *str__interrupts,
    *str__target, *str_send, *str_throw, *str_succeed, *str_fail,
    *str__queue, *str_pushdelay, *str_name, *str_pop;

/* ------------------------------------------------------------------ */
/* EventHeap                                                          */
/* ------------------------------------------------------------------ */

typedef struct {
    double when;
    long prio;
    long long seq;
    PyObject *item; /* owned reference to the scheduled event object */
} Entry;

typedef struct {
    PyObject_HEAD
    Entry *arr;
    Py_ssize_t size;
    Py_ssize_t cap;
    long long count; /* total pushes ever == next seq to hand out */
    double now;      /* simulation clock: time of the last popped entry */
} Heap;

static PyTypeObject HeapType;    /* forward */
static PyTypeObject TimeoutType; /* forward */

static inline int
entry_lt(const Entry *a, const Entry *b)
{
    /* Same ordering as Python's tuple compare on (when, prio, seq):
     * simulated times are never NaN, and seq is unique, so a fourth
     * tuple element would never be reached. */
    if (a->when < b->when)
        return 1;
    if (a->when > b->when)
        return 0;
    if (a->prio != b->prio)
        return a->prio < b->prio;
    return a->seq < b->seq;
}

/* Core insert: stamps the next seq, takes its own reference to item. */
static int
heap_insert(Heap *self, double when, long prio, PyObject *item)
{
    if (self->size == self->cap) {
        Py_ssize_t newcap = self->cap ? self->cap * 2 : 64;
        Entry *newarr = PyMem_Realloc(self->arr, newcap * sizeof(Entry));
        if (newarr == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        self->arr = newarr;
        self->cap = newcap;
    }
    Entry e = {when, prio, self->count++, item};
    Py_INCREF(item);
    Py_ssize_t pos = self->size++;
    Entry *arr = self->arr;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (entry_lt(&e, &arr[parent])) {
            arr[pos] = arr[parent];
            pos = parent;
        } else
            break;
    }
    arr[pos] = e;
    return 0;
}

/* Core extract-min into *out; caller owns out->item.  size must be > 0.
 * Advances the heap's clock to the popped entry's time. */
static void
heap_extract(Heap *self, Entry *out)
{
    *out = self->arr[0];
    self->now = out->when;
    Entry last = self->arr[--self->size];
    Py_ssize_t n = self->size;
    if (n > 0) {
        Entry *arr = self->arr;
        Py_ssize_t pos = 0;
        for (;;) {
            Py_ssize_t child = 2 * pos + 1;
            if (child >= n)
                break;
            if (child + 1 < n && entry_lt(&arr[child + 1], &arr[child]))
                child++;
            if (entry_lt(&arr[child], &last)) {
                arr[pos] = arr[child];
                pos = child;
            } else
                break;
        }
        arr[pos] = last;
    }
}

static PyObject *
heap_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    Heap *self = (Heap *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->arr = NULL;
    self->size = 0;
    self->cap = 0;
    self->count = 0;
    self->now = 0.0;
    return (PyObject *)self;
}

static int
heap_traverse(Heap *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->size; i++)
        Py_VISIT(self->arr[i].item);
    return 0;
}

static int
heap_clear_impl(Heap *self)
{
    Py_ssize_t n = self->size;
    self->size = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        Py_CLEAR(self->arr[i].item);
    return 0;
}

static void
heap_dealloc(Heap *self)
{
    PyObject_GC_UnTrack(self);
    heap_clear_impl(self);
    PyMem_Free(self->arr);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
heap_push(Heap *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "push() needs (when, prio, obj)");
        return NULL;
    }
    double when = PyFloat_AsDouble(args[0]);
    if (when == -1.0 && PyErr_Occurred())
        return NULL;
    long prio = PyLong_AsLong(args[1]);
    if (prio == -1 && PyErr_Occurred())
        return NULL;
    if (heap_insert(self, when, prio, args[2]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
heap_pushnow(Heap *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* Schedule at the current clock — the succeed()/fail() hot path. */
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "pushnow() needs (prio, obj)");
        return NULL;
    }
    long prio = PyLong_AsLong(args[0]);
    if (prio == -1 && PyErr_Occurred())
        return NULL;
    if (heap_insert(self, self->now, prio, args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
heap_pushdelay(Heap *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* Schedule at now + delay without boxing the clock. */
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "pushdelay() needs (delay, prio, obj)");
        return NULL;
    }
    double delay = PyFloat_AsDouble(args[0]);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    long prio = PyLong_AsLong(args[1]);
    if (prio == -1 && PyErr_Occurred())
        return NULL;
    if (heap_insert(self, self->now + delay, prio, args[2]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
heap_pop(Heap *self, PyObject *Py_UNUSED(ignored))
{
    if (self->size == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from an empty event heap");
        return NULL;
    }
    Entry e;
    heap_extract(self, &e);
    PyObject *ret = PyTuple_New(4);
    PyObject *when = PyFloat_FromDouble(e.when);
    PyObject *prio = PyLong_FromLong(e.prio);
    PyObject *seq = PyLong_FromLongLong(e.seq);
    if (ret == NULL || when == NULL || prio == NULL || seq == NULL) {
        Py_XDECREF(ret);
        Py_XDECREF(when);
        Py_XDECREF(prio);
        Py_XDECREF(seq);
        Py_DECREF(e.item);
        return NULL;
    }
    PyTuple_SET_ITEM(ret, 0, when);
    PyTuple_SET_ITEM(ret, 1, prio);
    PyTuple_SET_ITEM(ret, 2, seq);
    PyTuple_SET_ITEM(ret, 3, e.item); /* ref transferred */
    return ret;
}

static PyObject *
heap_pop2(Heap *self, PyObject *Py_UNUSED(ignored))
{
    /* (when, event) only — for dispatch loops that don't log. */
    if (self->size == 0) {
        PyErr_SetString(PyExc_IndexError, "pop from an empty event heap");
        return NULL;
    }
    Entry e;
    heap_extract(self, &e);
    PyObject *ret = PyTuple_New(2);
    PyObject *when = PyFloat_FromDouble(e.when);
    if (ret == NULL || when == NULL) {
        Py_XDECREF(ret);
        Py_XDECREF(when);
        Py_DECREF(e.item);
        return NULL;
    }
    PyTuple_SET_ITEM(ret, 0, when);
    PyTuple_SET_ITEM(ret, 1, e.item); /* ref transferred */
    return ret;
}

static PyObject *
heap_peektime(Heap *self, PyObject *Py_UNUSED(ignored))
{
    return PyFloat_FromDouble(self->size ? self->arr[0].when : INFINITY);
}

static Py_ssize_t
heap_len(Heap *self)
{
    return self->size;
}

static int
heap_bool(Heap *self)
{
    return self->size > 0;
}

static PyMethodDef heap_methods[] = {
    {"push", (PyCFunction)(void (*)(void))heap_push, METH_FASTCALL,
     "push(when, prio, obj) -> None  (seq is stamped by the heap)"},
    {"pushnow", (PyCFunction)(void (*)(void))heap_pushnow, METH_FASTCALL,
     "pushnow(prio, obj) -> None  (schedule at the current clock)"},
    {"pushdelay", (PyCFunction)(void (*)(void))heap_pushdelay, METH_FASTCALL,
     "pushdelay(delay, prio, obj) -> None  (schedule at now + delay)"},
    {"pop", (PyCFunction)heap_pop, METH_NOARGS,
     "pop() -> smallest (when, prio, seq, obj) tuple; advances the clock"},
    {"pop2", (PyCFunction)heap_pop2, METH_NOARGS,
     "pop2() -> smallest (when, obj) pair; advances the clock"},
    {"peektime", (PyCFunction)heap_peektime, METH_NOARGS,
     "peektime() -> time of the next entry, or inf when empty"},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef heap_members[] = {
    {"count", T_LONGLONG, offsetof(Heap, count), READONLY,
     "total entries ever pushed (== the next sequence number)"},
    {"now", T_DOUBLE, offsetof(Heap, now), 0,
     "simulation clock: time of the last popped entry"},
    {NULL},
};

static PySequenceMethods heap_as_sequence = {
    .sq_length = (lenfunc)heap_len,
};

static PyNumberMethods heap_as_number = {
    .nb_bool = (inquiry)heap_bool,
};

static PyTypeObject HeapType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "_simcore.EventHeap",
    .tp_doc = "C-accelerated (when, prio, seq, obj) priority queue + clock",
    .tp_basicsize = sizeof(Heap),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = heap_new,
    .tp_dealloc = (destructor)heap_dealloc,
    .tp_traverse = (traverseproc)heap_traverse,
    .tp_clear = (inquiry)heap_clear_impl,
    .tp_methods = heap_methods,
    .tp_members = heap_members,
    .tp_as_sequence = &heap_as_sequence,
    .tp_as_number = &heap_as_number,
};

/* ------------------------------------------------------------------ */
/* Timeout                                                            */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *callbacks; /* NULL = fresh (no waiters yet, untracked);
                          * list while pending; Py_None once dispatched */
    PyObject *value;     /* NULL means None */
    double delay;
} TimeoutObj;

static int
timeout_traverse(TimeoutObj *self, visitproc visit, void *arg)
{
    Py_VISIT(self->callbacks);
    Py_VISIT(self->value);
    return 0;
}

static int
timeout_clear_gc(TimeoutObj *self)
{
    Py_CLEAR(self->callbacks);
    Py_CLEAR(self->value);
    return 0;
}

static void
timeout_dealloc(TimeoutObj *self)
{
    PyObject_GC_UnTrack(self); /* no-op if never tracked */
    Py_XDECREF(self->callbacks);
    Py_XDECREF(self->value);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Shared constructor body.  ``owner`` may be the Engine (we read its
 * ``_queue``) or the EventHeap itself (the Engine's ``timeout`` factory
 * binds the heap directly to skip one attribute lookup per event). */
static PyObject *
timeout_create(PyObject *owner, double delay, PyObject *value, long prio)
{
    if (delay < 0.0) {
        PyObject *d = PyFloat_FromDouble(delay);
        if (d != NULL) {
            PyErr_Format(PyExc_ValueError, "negative delay: %R", d);
            Py_DECREF(d);
        }
        return NULL;
    }
    PyObject *queue;
    if (Py_TYPE(owner) == &HeapType) {
        queue = owner;
        Py_INCREF(queue);
    } else {
        queue = PyObject_GetAttr(owner, str__queue);
        if (queue == NULL)
            return NULL;
    }

    TimeoutObj *self = PyObject_GC_New(TimeoutObj, &TimeoutType);
    if (self == NULL) {
        Py_DECREF(queue);
        return NULL;
    }
    self->callbacks = NULL;
    if (value == Py_None) {
        self->value = NULL;
    } else {
        Py_INCREF(value);
        self->value = value;
        /* A container value could close a reference cycle through us. */
        if (PyObject_IS_GC(value))
            PyObject_GC_Track(self);
    }
    self->delay = delay;
    /* Otherwise stay untracked: with no callbacks and an atomic value a
     * queued Timeout cannot participate in a cycle.  The callbacks getter
     * tracks us the moment a waiter can subscribe. */

    int rc;
    if (Py_TYPE(queue) == &HeapType) {
        Heap *h = (Heap *)queue;
        rc = heap_insert(h, h->now + delay, prio, (PyObject *)self);
    } else {
        /* Foreign queue (pure-Python fallback objects): generic push. */
        PyObject *d = PyFloat_FromDouble(delay);
        PyObject *p = d ? PyLong_FromLong(prio) : NULL;
        PyObject *r = p ? PyObject_CallMethodObjArgs(
                              queue, str_pushdelay, d, p, self, NULL)
                        : NULL;
        rc = (r == NULL) ? -1 : 0;
        Py_XDECREF(r);
        Py_XDECREF(p);
        Py_XDECREF(d);
    }
    Py_DECREF(queue);
    if (rc < 0) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

/* Fast instantiation path: Timeout(owner, delay[, value[, priority]]). */
static PyObject *
timeout_type_vectorcall(PyObject *type, PyObject *const *args,
                        size_t nargsf, PyObject *kwnames)
{
    Py_ssize_t nargs = PyVectorcall_NARGS(nargsf);
    if (nargs < 2 || nargs > 4) {
        PyErr_SetString(PyExc_TypeError,
                        "Timeout(engine, delay[, value[, priority]])");
        return NULL;
    }
    double delay = PyFloat_AsDouble(args[1]);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    PyObject *value = nargs > 2 ? args[2] : Py_None;
    long prio = 1; /* PRIORITY_NORMAL */
    if (nargs > 3) {
        prio = PyLong_AsLong(args[3]);
        if (prio == -1 && PyErr_Occurred())
            return NULL;
    }
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, i);
            PyObject *v = args[nargs + i];
            if (PyUnicode_CompareWithASCIIString(name, "value") == 0) {
                value = v;
            } else if (PyUnicode_CompareWithASCIIString(name, "priority") == 0) {
                prio = PyLong_AsLong(v);
                if (prio == -1 && PyErr_Occurred())
                    return NULL;
            } else {
                PyErr_Format(PyExc_TypeError,
                             "Timeout() got an unexpected keyword argument %R",
                             name);
                return NULL;
            }
        }
    }
    return timeout_create(args[0], delay, value, prio);
}

/* Slow path kept for odd call shapes (e.g. type() tricks). */
static PyObject *
timeout_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"engine", "delay", "value", "priority", NULL};
    PyObject *engine, *value = Py_None;
    double delay;
    long prio = 1;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "Od|Ol", kwlist,
                                     &engine, &delay, &value, &prio))
        return NULL;
    return timeout_create(engine, delay, value, prio);
}

static PyObject *
timeout_get_callbacks(TimeoutObj *self, void *closure)
{
    if (self->callbacks == NULL) {
        /* First access: materialise the waiter list and become visible
         * to the cyclic GC (a subscriber may close a cycle through us). */
        self->callbacks = PyList_New(0);
        if (self->callbacks == NULL)
            return NULL;
        if (!PyObject_GC_IsTracked((PyObject *)self))
            PyObject_GC_Track(self);
    }
    Py_INCREF(self->callbacks);
    return self->callbacks;
}

static int
timeout_set_callbacks(TimeoutObj *self, PyObject *v, void *closure)
{
    if (v == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete callbacks");
        return -1;
    }
    Py_INCREF(v);
    Py_XSETREF(self->callbacks, v);
    if (v != Py_None && !PyObject_GC_IsTracked((PyObject *)self))
        PyObject_GC_Track(self);
    return 0;
}

static PyObject *
timeout_get_true(TimeoutObj *self, void *closure)
{
    /* _ok / _scheduled / triggered / ok: a Timeout is born triggered-ok. */
    Py_RETURN_TRUE;
}

static PyObject *
timeout_get_processed(TimeoutObj *self, void *closure)
{
    return PyBool_FromLong(self->callbacks == Py_None);
}

static PyObject *
timeout_get_value(TimeoutObj *self, void *closure)
{
    PyObject *v = self->value ? self->value : Py_None;
    Py_INCREF(v);
    return v;
}

static PyObject *
timeout_repr(TimeoutObj *self)
{
    PyObject *d = PyFloat_FromDouble(self->delay);
    if (d == NULL)
        return NULL;
    PyObject *r = PyUnicode_FromFormat(
        "<Timeout %s delay=%R at %p>",
        self->callbacks == Py_None ? "processed" : "triggered", d, self);
    Py_DECREF(d);
    return r;
}

static PyGetSetDef timeout_getset[] = {
    {"callbacks", (getter)timeout_get_callbacks,
     (setter)timeout_set_callbacks,
     "pending waiter list; None once dispatched", NULL},
    {"_ok", (getter)timeout_get_true, NULL, "always True", NULL},
    {"_scheduled", (getter)timeout_get_true, NULL, "always True", NULL},
    {"triggered", (getter)timeout_get_true, NULL, "always True", NULL},
    {"ok", (getter)timeout_get_true, NULL, "always True", NULL},
    {"processed", (getter)timeout_get_processed, NULL,
     "True once callbacks have run", NULL},
    {"value", (getter)timeout_get_value, NULL, "the timeout's value", NULL},
    {"_value", (getter)timeout_get_value, NULL, "the timeout's value", NULL},
    {NULL},
};

static PyMemberDef timeout_members[] = {
    {"delay", T_DOUBLE, offsetof(TimeoutObj, delay), READONLY,
     "delay in simulated seconds"},
    {NULL},
};

static PyTypeObject TimeoutType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    /* __name__ must be "Timeout": determinism event logs record the type
     * name and must match the pure-Python kernel's exactly. */
    .tp_name = "_simcore.Timeout",
    .tp_doc = "Born-scheduled delay event (C fast path)",
    .tp_basicsize = sizeof(TimeoutObj),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = timeout_new,
    .tp_vectorcall = timeout_type_vectorcall,
    .tp_dealloc = (destructor)timeout_dealloc,
    .tp_traverse = (traverseproc)timeout_traverse,
    .tp_clear = (inquiry)timeout_clear_gc,
    .tp_repr = (reprfunc)timeout_repr,
    .tp_getset = timeout_getset,
    .tp_members = timeout_members,
};

/* ------------------------------------------------------------------ */
/* C resume: the fused Process._resume fast path                       */
/* ------------------------------------------------------------------ */

/* Raise SimulationError (falls back to RuntimeError pre-configure). */
static void
raise_simerror(const char *fmt, PyObject *obj)
{
    PyErr_Format(g_simerror ? g_simerror : PyExc_RuntimeError, fmt, obj);
}

/* A finished process lets go of the last event it waited on.  The
 * generator's exception stays set across the store. */
static int
drop_self_refs(PyObject *process)
{
    PyObject *etype, *evalue, *etb;
    PyErr_Fetch(&etype, &evalue, &etb);
    if (PyObject_SetAttr(process, str__target, Py_None) < 0) {
        Py_XDECREF(etype);
        Py_XDECREF(evalue);
        Py_XDECREF(etb);
        return -1;
    }
    PyErr_Restore(etype, evalue, etb);
    return 0;
}

/* Mirror of Process._resume.  Returns 0 on success, -1 with an exception
 * set on failure.  Every branch corresponds to a line of the Python
 * implementation in engine.py — keep them in sync. */
static int
c_resume(PyObject *engine, PyObject *process, PyObject *event)
{
    int result = -1;
    PyObject *gen = NULL, *interrupts = NULL, *next = NULL;
    Py_INCREF(event); /* we re-bind `event` while chaining */

    if (PyObject_SetAttr(engine, str__active_process, process) < 0)
        goto done;
    gen = PyObject_GetAttr(process, str_generator);
    if (gen == NULL)
        goto reset;

    for (;;) {
        /* -- advance the generator ---------------------------------- */
        /* Re-read every turn: interrupt() creates the list lazily, and
         * may do so from inside the generator. */
        Py_XSETREF(interrupts, PyObject_GetAttr(process, str__interrupts));
        if (interrupts == NULL)
            goto reset;
        if (interrupts != Py_None && !PyList_Check(interrupts)) {
            PyErr_SetString(PyExc_TypeError,
                            "Process._interrupts must be a list or None");
            goto reset;
        }
        if (interrupts != Py_None && PyList_GET_SIZE(interrupts) > 0) {
            PyObject *intr = PyList_GetItem(interrupts, 0); /* borrowed */
            Py_XINCREF(intr);
            if (intr == NULL || PySequence_DelItem(interrupts, 0) < 0) {
                Py_XDECREF(intr);
                goto reset;
            }
            next = PyObject_CallMethodOneArg(gen, str_throw, intr);
            Py_DECREF(intr);
        } else {
            int ok;
            PyObject *value;
            if (Py_TYPE(event) == &TimeoutType) {
                ok = 1;
                value = ((TimeoutObj *)event)->value;
                value = value ? value : Py_None;
                Py_INCREF(value);
            } else {
                PyObject *okobj = PyObject_GetAttr(event, str__ok);
                if (okobj == NULL)
                    goto reset;
                ok = PyObject_IsTrue(okobj);
                Py_DECREF(okobj);
                if (ok < 0)
                    goto reset;
                value = PyObject_GetAttr(event, str__value);
                if (value == NULL)
                    goto reset;
            }
            next = PyObject_CallMethodOneArg(gen, ok ? str_send : str_throw,
                                             value);
            Py_DECREF(value);
        }

        if (next == NULL) {
            /* -- generator finished or raised ------------------------ */
            if (!PyErr_ExceptionMatches(PyExc_KeyboardInterrupt) &&
                !PyErr_ExceptionMatches(PyExc_SystemExit) &&
                drop_self_refs(process) < 0)
                goto reset;
            if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
                PyObject *etype, *evalue, *etb, *stopval, *r;
                PyErr_Fetch(&etype, &evalue, &etb);
                PyErr_NormalizeException(&etype, &evalue, &etb);
                stopval = evalue ? PyObject_GetAttrString(evalue, "value")
                                 : Py_NewRef(Py_None);
                Py_XDECREF(etype);
                Py_XDECREF(evalue);
                Py_XDECREF(etb);
                if (stopval == NULL)
                    goto reset;
                r = PyObject_CallMethodOneArg(process, str_succeed, stopval);
                Py_DECREF(stopval);
                if (r == NULL)
                    goto reset;
                Py_DECREF(r);
                result = 0;
                goto reset;
            }
            if (PyErr_ExceptionMatches(PyExc_KeyboardInterrupt) ||
                PyErr_ExceptionMatches(PyExc_SystemExit))
                goto reset; /* propagate */
            {
                /* Unhandled in-process exception: fail the process event;
                 * escalation happens at dispatch time if nobody watches. */
                PyObject *etype, *evalue, *etb, *r;
                PyErr_Fetch(&etype, &evalue, &etb);
                PyErr_NormalizeException(&etype, &evalue, &etb);
                if (etb != NULL)
                    PyException_SetTraceback(evalue, etb);
                Py_XDECREF(etype);
                Py_XDECREF(etb);
                if (evalue == NULL)
                    goto reset;
                r = PyObject_CallMethodOneArg(process, str_fail, evalue);
                Py_DECREF(evalue);
                if (r == NULL)
                    goto reset;
                Py_DECREF(r);
                result = 0;
                goto reset;
            }
        }

        /* -- the generator yielded `next` --------------------------- */
        if (Py_TYPE(next) == &TimeoutType) {
            TimeoutObj *t = (TimeoutObj *)next;
            if (t->callbacks == Py_None) {
                /* Already fired: loop around synchronously. */
                Py_SETREF(event, next);
                next = NULL;
                continue;
            }
            if (t->callbacks == NULL) {
                t->callbacks = PyList_New(0);
                if (t->callbacks == NULL)
                    goto reset;
                if (!PyObject_GC_IsTracked(next))
                    PyObject_GC_Track(next);
            }
            if (PyList_Append(t->callbacks, process) < 0)
                goto reset;
        } else {
            PyObject *cbs = PyObject_GetAttr(next, str_callbacks);
            if (cbs == NULL) {
                if (!PyErr_ExceptionMatches(PyExc_AttributeError))
                    goto reset;
                PyErr_Clear();
                raise_simerror("process yielded %R, not an Event", next);
                goto reset;
            }
            if (cbs == Py_None) {
                Py_DECREF(cbs);
                Py_SETREF(event, next);
                next = NULL;
                continue;
            }
            int rc = PyList_Check(cbs)
                         ? PyList_Append(cbs, process)
                         : -2;
            if (rc == -2) {
                PyObject *r = PyObject_CallMethod(cbs, "append", "O", process);
                rc = (r == NULL) ? -1 : 0;
                Py_XDECREF(r);
            }
            Py_DECREF(cbs);
            if (rc < 0)
                goto reset;
        }
        if (PyObject_SetAttr(process, str__target, next) < 0)
            goto reset;
        Py_CLEAR(next);
        result = 0;
        goto reset;
    }

reset:
    /* finally: engine._active_process = None (preserve any live error) */
    {
        PyObject *etype, *evalue, *etb;
        PyErr_Fetch(&etype, &evalue, &etb);
        if (PyObject_SetAttr(engine, str__active_process, Py_None) < 0) {
            if (etype == NULL) {
                result = -1;
            } else {
                PyErr_Clear();
            }
            if (etype != NULL)
                PyErr_Restore(etype, evalue, etb);
        } else if (etype != NULL) {
            PyErr_Restore(etype, evalue, etb);
        }
    }
done:
    Py_XDECREF(next);
    Py_XDECREF(interrupts);
    Py_XDECREF(gen);
    Py_DECREF(event);
    return result;
}

/* Run one callback: a waiter whose type is exactly Process resumes in C,
 * anything else (subclasses, condition hooks) is called. */
static int
run_callback(PyObject *engine, PyObject *cb, PyObject *event)
{
    if ((PyObject *)Py_TYPE(cb) == g_process_type)
        return c_resume(engine, cb, event);
    PyObject *r = PyObject_CallOneArg(cb, event);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Invoke one dispatched event's callback list (already detached). */
static int
run_callbacks(PyObject *engine, PyObject *cbs, PyObject *event)
{
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(cbs); i++) {
        PyObject *cb = PyList_GET_ITEM(cbs, i);
        Py_INCREF(cb);
        int rc = run_callback(engine, cb, event);
        Py_DECREF(cb);
        if (rc < 0)
            return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* drain(): the non-logging dispatch loop                              */
/* ------------------------------------------------------------------ */

/* drain(engine, heap, until, clamp, stopproc) -> int
 *   0: queue drained empty
 *   1: next event lies beyond `until` (clock clamped to until if clamp)
 *   2: stopproc._scheduled became true
 * Mirrors Engine.run / Engine.run_until_complete fast paths. */
static PyObject *
simcore_drain(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "drain(engine, heap, until, clamp, stopproc)");
        return NULL;
    }
    PyObject *engine = args[0];
    if (Py_TYPE(args[1]) != &HeapType) {
        PyErr_SetString(PyExc_TypeError, "drain() needs a C EventHeap");
        return NULL;
    }
    Heap *heap = (Heap *)args[1];
    double until = PyFloat_AsDouble(args[2]);
    if (until == -1.0 && PyErr_Occurred())
        return NULL;
    int clamp = PyObject_IsTrue(args[3]);
    if (clamp < 0)
        return NULL;
    PyObject *stopproc = args[4] == Py_None ? NULL : args[4];

    for (;;) {
        if (stopproc != NULL) {
            PyObject *sched = PyObject_GetAttr(stopproc, str__scheduled);
            if (sched == NULL)
                return NULL;
            int done = PyObject_IsTrue(sched);
            Py_DECREF(sched);
            if (done < 0)
                return NULL;
            if (done)
                return PyLong_FromLong(2);
        }
        if (heap->size == 0)
            return PyLong_FromLong(0);
        if (heap->arr[0].when > until) {
            if (clamp)
                heap->now = until;
            return PyLong_FromLong(1);
        }
        Entry e;
        heap_extract(heap, &e);
        PyObject *event = e.item; /* we own this ref */

        if (Py_TYPE(event) == &TimeoutType) {
            TimeoutObj *t = (TimeoutObj *)event;
            PyObject *cbs = t->callbacks;
            if (cbs == NULL) {
                /* Watcherless timeout: mark processed, nothing to run. */
                t->callbacks = Py_NewRef(Py_None);
                Py_DECREF(event);
                continue;
            }
            if (cbs == Py_None) {
                raise_simerror("%R dispatched twice", event);
                Py_DECREF(event);
                return NULL;
            }
            t->callbacks = Py_NewRef(Py_None); /* we own old cbs ref */
            if (PyList_GET_SIZE(cbs) > 0) {
                int rc = run_callbacks(engine, cbs, event);
                Py_DECREF(cbs);
                Py_DECREF(event);
                if (rc < 0)
                    return NULL;
            } else {
                /* Empty waiter list; a Timeout is always ok, so no
                 * escalation check is needed. */
                Py_DECREF(cbs);
                Py_DECREF(event);
            }
            continue;
        }

        /* Generic event (Event / Process / conditions). */
        PyObject *cbs = PyObject_GetAttr(event, str_callbacks);
        if (cbs == NULL) {
            Py_DECREF(event);
            return NULL;
        }
        if (cbs == Py_None) {
            raise_simerror("%R dispatched twice", event);
            Py_DECREF(cbs);
            Py_DECREF(event);
            return NULL;
        }
        if (PyObject_SetAttr(event, str_callbacks, Py_None) < 0) {
            Py_DECREF(cbs);
            Py_DECREF(event);
            return NULL;
        }
        Py_ssize_t ncbs = PyList_Check(cbs) ? PyList_GET_SIZE(cbs)
                                            : PyObject_Length(cbs);
        if (ncbs < 0) {
            Py_DECREF(cbs);
            Py_DECREF(event);
            return NULL;
        }
        if (ncbs > 0) {
            int rc;
            if (PyList_Check(cbs)) {
                rc = run_callbacks(engine, cbs, event);
            } else {
                PyObject *it = PyObject_GetIter(cbs);
                rc = it == NULL ? -1 : 0;
                if (it != NULL) {
                    PyObject *cb;
                    while ((cb = PyIter_Next(it)) != NULL) {
                        PyObject *r = PyObject_CallOneArg(cb, event);
                        Py_DECREF(cb);
                        if (r == NULL) {
                            rc = -1;
                            break;
                        }
                        Py_DECREF(r);
                    }
                    if (PyErr_Occurred())
                        rc = -1;
                    Py_DECREF(it);
                }
            }
            Py_DECREF(cbs);
            Py_DECREF(event);
            if (rc < 0)
                return NULL;
            continue;
        }
        Py_DECREF(cbs);

        /* Failed process with nobody watching: escalate unless defused. */
        {
            PyObject *okobj = PyObject_GetAttr(event, str__ok);
            if (okobj == NULL) {
                Py_DECREF(event);
                return NULL;
            }
            int is_false = (okobj == Py_False);
            Py_DECREF(okobj);
            if (is_false && g_process_type != NULL) {
                int isproc = PyObject_IsInstance(event, g_process_type);
                if (isproc < 0) {
                    Py_DECREF(event);
                    return NULL;
                }
                if (isproc) {
                    PyObject *defused = PyObject_GetAttr(event, str__defused);
                    if (defused == NULL) {
                        Py_DECREF(event);
                        return NULL;
                    }
                    int skip = PyObject_IsTrue(defused);
                    Py_DECREF(defused);
                    if (skip < 0) {
                        Py_DECREF(event);
                        return NULL;
                    }
                    if (!skip) {
                        PyObject *exc = PyObject_GetAttr(event, str__value);
                        Py_DECREF(event);
                        if (exc == NULL)
                            return NULL;
                        PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
                        Py_DECREF(exc);
                        return NULL;
                    }
                }
            }
            Py_DECREF(event);
        }
    }
}

/* ------------------------------------------------------------------ */
/* configure()                                                         */
/* ------------------------------------------------------------------ */

static PyObject *
simcore_configure(PyObject *mod, PyObject *args)
{
    PyObject *process, *simerror;
    if (!PyArg_ParseTuple(args, "OO", &process, &simerror))
        return NULL;
    Py_XSETREF(g_process_type, Py_NewRef(process));
    Py_XSETREF(g_simerror, Py_NewRef(simerror));
    Py_RETURN_NONE;
}

static PyMethodDef simcore_methods[] = {
    {"drain", (PyCFunction)(void (*)(void))simcore_drain, METH_FASTCALL,
     "drain(engine, heap, until, clamp, stopproc) -> int stop code"},
    {"configure", simcore_configure, METH_VARARGS,
     "configure(process_type, simerror_type)"},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef simcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_simcore",
    .m_doc = "C hot core (event heap + Timeout + dispatch) for repro.sim",
    .m_size = -1,
    .m_methods = simcore_methods,
};

PyMODINIT_FUNC
PyInit__simcore(void)
{
#define INTERN(var, s)                              \
    do {                                            \
        var = PyUnicode_InternFromString(s);        \
        if (var == NULL)                            \
            return NULL;                            \
    } while (0)
    INTERN(str_callbacks, "callbacks");
    INTERN(str__ok, "_ok");
    INTERN(str__value, "_value");
    INTERN(str__scheduled, "_scheduled");
    INTERN(str__defused, "_defused");
    INTERN(str__active_process, "_active_process");
    INTERN(str_generator, "generator");
    INTERN(str__interrupts, "_interrupts");
    INTERN(str__target, "_target");
    INTERN(str_send, "send");
    INTERN(str_throw, "throw");
    INTERN(str_succeed, "succeed");
    INTERN(str_fail, "fail");
    INTERN(str__queue, "_queue");
    INTERN(str_pushdelay, "pushdelay");
    INTERN(str_name, "name");
    INTERN(str_pop, "pop");
#undef INTERN
    if (PyType_Ready(&HeapType) < 0 || PyType_Ready(&TimeoutType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&simcore_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&HeapType);
    if (PyModule_AddObject(m, "EventHeap", (PyObject *)&HeapType) < 0) {
        Py_DECREF(&HeapType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&TimeoutType);
    if (PyModule_AddObject(m, "Timeout", (PyObject *)&TimeoutType) < 0) {
        Py_DECREF(&TimeoutType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
