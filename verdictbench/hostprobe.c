/* Native half of the host-speed probe (hostspeed.py): multiply two fixed
   sparse polynomials stored as int64 arrays, merging term runs and reducing
   coefficients mod p, the way the compiled term kernel of frobstab works.
   It is built by kernelbuild.py beside the kernel and never changes, so
   its speed is the host's. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define NT 24
#define NV 3
#define P 32003

typedef struct { int64_t key; int64_t coef; int64_t e[NV]; } term;

static int64_t merge(term *a, Py_ssize_t na, term *b, Py_ssize_t nb, term *out)
{
    Py_ssize_t i = 0, j = 0, n = 0;
    while (i < na && j < nb) {
        if (a[i].key > b[j].key) out[n++] = a[i++];
        else if (a[i].key < b[j].key) out[n++] = b[j++];
        else {
            int64_t c = (a[i].coef + b[j].coef) % P;
            if (c) { out[n] = a[i]; out[n].coef = c; n++; }
            i++; j++;
        }
    }
    while (i < na) out[n++] = a[i++];
    while (j < nb) out[n++] = b[j++];
    return n;
}

static void fill(term *t, int64_t seed)
{
    for (int i = 0; i < NT; i++) {
        int64_t d = NT - i;
        t[i].e[0] = d * 3 + (seed + i) % 3;
        t[i].e[1] = (i * seed) % 5;
        t[i].e[2] = (i * 7 + seed) % 4;
        t[i].key = t[i].e[0] * 64 * 64 + t[i].e[1] * 64 + t[i].e[2];
        t[i].coef = (i * 7919 + seed * 104729) % P + 1;
    }
}

static PyObject *work(PyObject *self, PyObject *args)
{
    term f[NT], g[NT];
    fill(f, 1);
    fill(g, 2);
    term *acc = malloc(sizeof(term) * NT * NT), *run = malloc(sizeof(term) * NT),
         *tmp = malloc(sizeof(term) * NT * NT);
    if (!acc || !run || !tmp) { free(acc); free(run); free(tmp); return PyErr_NoMemory(); }
    Py_ssize_t na = 0;
    for (int i = 0; i < NT; i++) {
        for (int j = 0; j < NT; j++) {
            run[j].key = f[i].key + g[j].key;
            run[j].coef = (f[i].coef * g[j].coef) % P;
            for (int k = 0; k < NV; k++) run[j].e[k] = f[i].e[k] + g[j].e[k];
        }
        na = merge(acc, na, run, NT, tmp);
        term *s = acc; acc = tmp; tmp = s;
    }
    int64_t check = 0;
    for (Py_ssize_t i = 0; i < na; i++) check = (check * 31 + acc[i].coef) % P;
    free(acc); free(run); free(tmp);
    return PyLong_FromLongLong(check);
}

static PyMethodDef methods[] = {
    {"work", work, METH_NOARGS, "Fixed native work; returns a checksum."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_hostprobe", NULL, -1, methods};

PyMODINIT_FUNC PyInit__hostprobe(void) { return PyModule_Create(&module); }
