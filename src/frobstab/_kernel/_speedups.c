/*
 * Compiled polynomial term kernels with exactly the semantics of the
 * pure-Python reference in _ref.py: add_terms, mul_terms and divmod_terms.
 *
 * A term list is a sequence of (coefficient, exponent-tuple) pairs, strictly
 * descending by the key wm @ e of its exponent vector e, compared
 * lexicographically.  The weight matrix's rows make keys additive, so each
 * term is packed once into the row of 64-bit integers
 *
 *     [coef, key_0 .. key_{nk-1}, e_0 .. e_{nv-1}]
 *
 * and the monomial of a product or a quotient is the elementwise sum or
 * difference of everything past the coefficient.  A key or exponent that
 * leaves 64 bits raises OverflowError instead of wrapping.
 *
 * Coefficients are reduced modulo p, with Python's sign convention, wherever
 * _ref computes with them; a term passed through keeps its coefficient as
 * given.  Leading coefficients are inverted by Fermat, so p must be prime.
 *
 * Build with the interpreter's headers, e.g.
 *     cc -shared -fPIC -O2 -I"$(python3 -c 'import sysconfig; print(sysconfig.get_paths()["include"])')" \
 *        _speedups.c -o _speedups$(python3-config --extension-suffix)
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef long long i64;

/* What one call shares: the prime, the order's weight matrix (nk rows of nv
 * entries) and the width 1 + nk + nv of a packed row. */
typedef struct {
    i64 p;
    Py_ssize_t nv, nk, width;
    i64 *wm;
} Shape;

/* A growable array of packed rows. */
typedef struct {
    i64 *rows;
    Py_ssize_t n, cap;
} Terms;

#define ROW(sh, ts, i) ((ts)->rows + (i) * (sh)->width)

static i64
modp(i64 a, i64 p)
{
    i64 r;
    if ((unsigned long long)a < (unsigned long long)p)
        return a;
    r = a % p;
    return r < 0 ? r + p : r;
}

/* a^(p-2) mod p for a reduced a: the inverse of a nonzero a when p is prime */
static i64
fermat_inverse(i64 a, i64 p)
{
    i64 r = 1, n = p - 2;
    while (n) {
        if (n & 1)
            r = r * a % p;
        a = a * a % p;
        n >>= 1;
    }
    return r;
}

static int
cmp_keys(const i64 *a, const i64 *b, Py_ssize_t nk)
{
    Py_ssize_t i;
    for (i = 0; i < nk; i++) {
        if (a[i] != b[i])
            return a[i] > b[i] ? 1 : -1;
    }
    return 0;
}

/* out's keys and exponents = a's + b's (sign 1) or a's - b's (sign -1);
 * returns nonzero when one leaves 64 bits. */
static int
combine_monomials(i64 *out, const i64 *a, const i64 *b, int sign, Py_ssize_t width)
{
    int overflow = 0;
    Py_ssize_t i;
    for (i = 1; i < width; i++) {
        if (sign > 0)
            overflow |= __builtin_add_overflow(a[i], b[i], &out[i]);
        else
            overflow |= __builtin_sub_overflow(a[i], b[i], &out[i]);
    }
    if (overflow)
        PyErr_SetString(PyExc_OverflowError,
                        "a term's exponent or order key leaves 64 bits");
    return overflow;
}

static int
reserve(const Shape *sh, Terms *ts, Py_ssize_t n)
{
    i64 *rows;
    if (n <= ts->cap && ts->rows != NULL)
        return 0;
    if (n < 2 * ts->cap)
        n = 2 * ts->cap;
    if (n == 0)
        n = 1;
    if ((size_t)n > PY_SSIZE_T_MAX / sizeof(i64) / (size_t)sh->width) {
        PyErr_NoMemory();
        return -1;
    }
    rows = PyMem_Realloc(ts->rows, (size_t)n * (size_t)sh->width * sizeof(i64));
    if (rows == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    ts->rows = rows;
    ts->cap = n;
    return 0;
}

static int
push(const Shape *sh, Terms *ts, const i64 *row)
{
    if (reserve(sh, ts, ts->n + 1) < 0)
        return -1;
    memcpy(ROW(sh, ts, ts->n), row, (size_t)sh->width * sizeof(i64));
    ts->n++;
    return 0;
}

static void
terms_free(Terms *ts)
{
    PyMem_Free(ts->rows);
    ts->rows = NULL;
    ts->n = ts->cap = 0;
}

static void
swap_terms(Terms *a, Terms *b)
{
    Terms t = *a;
    *a = *b;
    *b = t;
}

/* Reads p, which must lie in [2, 2^31) so that a product of two reduced
 * coefficients fits in 64 bits, and the weight matrix's rows. */
static int
shape_init(Shape *sh, PyObject *p, PyObject *wm)
{
    PyObject *rows = NULL, *row = NULL;
    Py_ssize_t i, j;
    int overflow = 0;

    sh->wm = NULL;
    sh->p = PyLong_AsLongLongAndOverflow(p, &overflow);
    if (sh->p == -1 && PyErr_Occurred())
        return -1;
    if (overflow || sh->p < 2 || sh->p >= ((i64)1 << 31)) {
        PyErr_SetString(PyExc_ValueError, "p must lie in [2, 2^31)");
        return -1;
    }
    rows = PySequence_Fast(wm, "the weight matrix must be a sequence of rows");
    if (rows == NULL)
        return -1;
    sh->nk = PySequence_Fast_GET_SIZE(rows);
    if (sh->nk == 0) {
        PyErr_SetString(PyExc_ValueError, "the weight matrix has no rows");
        goto fail;
    }
    for (j = 0; j < sh->nk; j++) {
        row = PySequence_Fast(PySequence_Fast_GET_ITEM(rows, j),
                              "a weight matrix row must be a sequence");
        if (row == NULL)
            goto fail;
        if (j == 0) {
            sh->nv = PySequence_Fast_GET_SIZE(row);
            sh->width = 1 + sh->nk + sh->nv;
            sh->wm = PyMem_New(i64, sh->nk * sh->nv + 1);
            if (sh->wm == NULL) {
                PyErr_NoMemory();
                goto fail;
            }
        }
        else if (PySequence_Fast_GET_SIZE(row) != sh->nv) {
            PyErr_SetString(PyExc_ValueError, "the weight matrix's rows differ in length");
            goto fail;
        }
        for (i = 0; i < sh->nv; i++) {
            i64 w = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(row, i));
            if (w == -1 && PyErr_Occurred())
                goto fail;
            sh->wm[j * sh->nv + i] = w;
        }
        Py_CLEAR(row);
    }
    Py_DECREF(rows);
    return 0;
fail:
    Py_XDECREF(row);
    Py_DECREF(rows);
    PyMem_Free(sh->wm);
    sh->wm = NULL;
    return -1;
}

/* Packs the term list `terms` into ts, computing each term's keys. */
static int
pack(const Shape *sh, PyObject *terms, Terms *ts)
{
    PyObject *seq = PySequence_Fast(terms, "a term list must be a sequence");
    Py_ssize_t n, t, i, j;

    if (seq == NULL)
        return -1;
    n = PySequence_Fast_GET_SIZE(seq);
    if (reserve(sh, ts, n) < 0)
        goto fail;
    for (t = 0; t < n; t++) {
        PyObject *term = PySequence_Fast_GET_ITEM(seq, t), *exps;
        i64 *row = ROW(sh, ts, t), *keys = row + 1, *e = keys + sh->nk;
        int overflow = 0;

        if (!(PyTuple_Check(term) || PyList_Check(term))
                || PySequence_Fast_GET_SIZE(term) != 2) {
            PyErr_Format(PyExc_ValueError,
                         "term %zd is not a (coefficient, exponents) pair", t);
            goto fail;
        }
        row[0] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(term, 0));
        if (row[0] == -1 && PyErr_Occurred())
            goto fail;
        exps = PySequence_Fast_GET_ITEM(term, 1);
        if (!(PyTuple_Check(exps) || PyList_Check(exps))
                || PySequence_Fast_GET_SIZE(exps) != sh->nv) {
            PyErr_Format(PyExc_ValueError,
                         "the exponents of term %zd are not a tuple of length %zd",
                         t, sh->nv);
            goto fail;
        }
        for (i = 0; i < sh->nv; i++) {
            e[i] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(exps, i));
            if (e[i] == -1 && PyErr_Occurred())
                goto fail;
        }
        for (j = 0; j < sh->nk; j++) {
            const i64 *w = sh->wm + j * sh->nv;
            i64 key = 0, x;
            for (i = 0; i < sh->nv; i++) {
                overflow |= __builtin_mul_overflow(w[i], e[i], &x);
                overflow |= __builtin_add_overflow(key, x, &key);
            }
            keys[j] = key;
        }
        if (overflow) {
            PyErr_Format(PyExc_OverflowError,
                         "the order key of term %zd leaves 64 bits", t);
            goto fail;
        }
    }
    ts->n = n;
    Py_DECREF(seq);
    return 0;
fail:
    Py_DECREF(seq);
    return -1;
}

static PyObject *
term_object(const Shape *sh, const i64 *row)
{
    const i64 *e = row + 1 + sh->nk;
    PyObject *exps = PyTuple_New(sh->nv), *coef, *term;
    Py_ssize_t i;

    if (exps == NULL)
        return NULL;
    for (i = 0; i < sh->nv; i++) {
        PyObject *x = PyLong_FromLongLong(e[i]);
        if (x == NULL) {
            Py_DECREF(exps);
            return NULL;
        }
        PyTuple_SET_ITEM(exps, i, x);
    }
    coef = PyLong_FromLongLong(row[0]);
    term = coef == NULL ? NULL : PyTuple_New(2);
    if (term == NULL) {
        Py_XDECREF(coef);
        Py_DECREF(exps);
        return NULL;
    }
    PyTuple_SET_ITEM(term, 0, coef);
    PyTuple_SET_ITEM(term, 1, exps);
    return term;
}

/* The tuple of (coef, exps) pairs of ts's rows from `start` on. */
static PyObject *
unpack(const Shape *sh, const Terms *ts, Py_ssize_t start)
{
    PyObject *out = PyTuple_New(ts->n - start);
    Py_ssize_t t;

    if (out == NULL)
        return NULL;
    for (t = start; t < ts->n; t++) {
        PyObject *term = term_object(sh, ROW(sh, ts, t));
        if (term == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyTuple_SET_ITEM(out, t - start, term);
    }
    return out;
}

/* Merges the descending rows a[0:na] and b[0:nb] into out, which has room
 * for na + nb rows: equal monomials add modulo p and vanish at 0.  Returns
 * the number of rows written. */
static Py_ssize_t
merge(const Shape *sh, const i64 *a, Py_ssize_t na, const i64 *b, Py_ssize_t nb,
      i64 *out)
{
    const Py_ssize_t w = sh->width;
    const size_t row_bytes = (size_t)w * sizeof(i64);
    const i64 *a_end = a + na * w, *b_end = b + nb * w;
    i64 *o = out;

    while (a < a_end && b < b_end) {
        int c = cmp_keys(a + 1, b + 1, sh->nk);
        if (c > 0) {
            memcpy(o, a, row_bytes);
            a += w;
            o += w;
        }
        else if (c < 0) {
            memcpy(o, b, row_bytes);
            b += w;
            o += w;
        }
        else {
            i64 s = modp(a[0], sh->p) + modp(b[0], sh->p);
            if (s >= sh->p)
                s -= sh->p;
            if (s) {
                memcpy(o, a, row_bytes);
                o[0] = s;
                o += w;
            }
            a += w;
            b += w;
        }
    }
    memcpy(o, a, (size_t)(a_end - a) * sizeof(i64));
    o += a_end - a;
    memcpy(o, b, (size_t)(b_end - b) * sizeof(i64));
    o += b_end - b;
    return (o - out) / w;
}

static PyObject *
add_terms(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"ta", "tb", "p", "wm", NULL};
    PyObject *ta, *tb, *p, *wm, *result = NULL;
    Shape sh;
    Terms a = {0}, b = {0}, out = {0};

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOO:add_terms", kwlist,
                                     &ta, &tb, &p, &wm)
            || shape_init(&sh, p, wm) < 0)
        return NULL;
    if (pack(&sh, ta, &a) < 0 || pack(&sh, tb, &b) < 0
            || reserve(&sh, &out, a.n + b.n) < 0)
        goto done;
    out.n = merge(&sh, a.rows, a.n, b.rows, b.n, out.rows);
    result = unpack(&sh, &out, 0);
done:
    terms_free(&a);
    terms_free(&b);
    terms_free(&out);
    PyMem_Free(sh.wm);
    return result;
}

static PyObject *
mul_terms(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"ta", "tb", "p", "wm", NULL};
    PyObject *ta, *tb, *p, *wm, *result = NULL;
    Shape sh;
    Terms a = {0}, b = {0}, merged = {0}, *runs = NULL;
    Py_ssize_t *span = NULL, nruns = 0, i, j;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOO:mul_terms", kwlist,
                                     &ta, &tb, &p, &wm)
            || shape_init(&sh, p, wm) < 0)
        return NULL;
    if (pack(&sh, ta, &a) < 0 || pack(&sh, tb, &b) < 0)
        goto done;
    if (a.n == 0 || b.n == 0) {
        result = PyTuple_New(0);
        goto done;
    }
    runs = PyMem_Calloc(a.n, sizeof(Terms));
    span = PyMem_New(Py_ssize_t, a.n);
    if (runs == NULL || span == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (j = 0; j < b.n; j++)
        ROW(&sh, &b, j)[0] = modp(ROW(&sh, &b, j)[0], sh.p);
    /* a_i * b is a descending run, since keys are additive.  Runs merge like
     * a binary counter: while the top two stand for equally many terms of a,
     * and all of them after the last run, so few short runs are alive. */
    for (i = 0; i < a.n; i++) {
        const i64 *ra = ROW(&sh, &a, i);
        i64 ca = modp(ra[0], sh.p);
        Terms *run = &runs[nruns];

        if (reserve(&sh, run, b.n) < 0)
            goto done;
        run->n = 0;
        for (j = 0; j < b.n; j++) {
            const i64 *rb = ROW(&sh, &b, j);
            i64 *o = ROW(&sh, run, run->n);
            o[0] = ca * rb[0] % sh.p;
            if (o[0] == 0)
                continue;
            if (combine_monomials(o, ra, rb, 1, sh.width))
                goto done;
            run->n++;
        }
        span[nruns++] = 1;
        while (nruns > 1 && (i == a.n - 1 || span[nruns - 1] == span[nruns - 2])) {
            Terms *x = &runs[nruns - 2], *y = &runs[nruns - 1];
            if (reserve(&sh, &merged, x->n + y->n) < 0)
                goto done;
            merged.n = merge(&sh, x->rows, x->n, y->rows, y->n, merged.rows);
            swap_terms(x, &merged);
            span[nruns - 2] += span[nruns - 1];
            nruns--;
        }
    }
    result = unpack(&sh, &runs[0], 0);
done:
    for (i = 0; runs != NULL && i < a.n; i++)
        terms_free(&runs[i]);
    PyMem_Free(runs);
    PyMem_Free(span);
    terms_free(&a);
    terms_free(&b);
    terms_free(&merged);
    PyMem_Free(sh.wm);
    return result;
}

static PyObject *
divmod_terms(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"tf", "gs", "p", "wm", "want_quotients", NULL};
    PyObject *tf, *gs, *p, *wm, *divisors = NULL, *quots = NULL, *rem_obj = NULL;
    PyObject *result = NULL;
    int want_quotients = 0;
    Shape sh;
    Terms h = {0}, next = {0}, shifted = {0}, rem = {0}, mono = {0};
    Terms *G = NULL, *Q = NULL;
    i64 *inv = NULL;
    Py_ssize_t ngs = 0, h0 = 0, i, j, k;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOO|p:divmod_terms", kwlist,
                                     &tf, &gs, &p, &wm, &want_quotients)
            || shape_init(&sh, p, wm) < 0)
        return NULL;
    divisors = PySequence_Fast(gs, "the divisors must be a sequence of term lists");
    if (divisors == NULL)
        goto done;
    ngs = PySequence_Fast_GET_SIZE(divisors);
    G = PyMem_Calloc(ngs + 1, sizeof(Terms));
    Q = PyMem_Calloc(ngs + 1, sizeof(Terms));
    inv = PyMem_Calloc(ngs + 1, sizeof(i64));  /* 0: not computed yet */
    if (G == NULL || Q == NULL || inv == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (pack(&sh, tf, &h) < 0 || reserve(&sh, &mono, 1) < 0)
        goto done;
    for (i = 0; i < ngs; i++) {
        if (pack(&sh, PySequence_Fast_GET_ITEM(divisors, i), &G[i]) < 0)
            goto done;
        if (G[i].n == 0) {
            PyErr_Format(PyExc_ZeroDivisionError, "divisor %zd has no terms", i);
            goto done;
        }
    }
    while (h0 < h.n) {
        const i64 *lead = ROW(&sh, &h, h0), *e = lead + 1 + sh.nk;
        const Terms *g;
        i64 *m = mono.rows, mc, nmc;
        Py_ssize_t gi = -1;

        /* the first divisor whose leading monomial divides the lead term */
        for (i = 0; i < ngs && gi < 0; i++) {
            const i64 *ge = G[i].rows + 1 + sh.nk;
            for (k = 0; k < sh.nv && e[k] >= ge[k]; k++)
                ;
            if (k == sh.nv)
                gi = i;
        }
        if (gi < 0) {
            if (push(&sh, &rem, lead) < 0)
                goto done;
            h0++;
            continue;
        }
        g = &G[gi];
        if (inv[gi] == 0) {
            i64 lc = modp(g->rows[0], sh.p);
            if (lc == 0) {
                PyErr_Format(PyExc_ZeroDivisionError,
                             "the leading coefficient of divisor %zd is divisible by p", gi);
                goto done;
            }
            inv[gi] = fermat_inverse(lc, sh.p);
        }
        /* h -= m * g for the monomial term m = lead / lead(g) */
        mc = modp(lead[0], sh.p) * inv[gi] % sh.p;
        m[0] = mc;
        if (combine_monomials(m, lead, g->rows, -1, sh.width)
                || (want_quotients && push(&sh, &Q[gi], m) < 0)
                || reserve(&sh, &shifted, g->n) < 0
                || reserve(&sh, &next, h.n - h0 + g->n) < 0)
            goto done;
        nmc = mc ? sh.p - mc : 0;
        for (j = 0; j < g->n; j++) {
            const i64 *rg = ROW(&sh, g, j);
            i64 *o = ROW(&sh, &shifted, j);
            o[0] = nmc * modp(rg[0], sh.p) % sh.p;
            if (combine_monomials(o, m, rg, 1, sh.width))
                goto done;
        }
        next.n = merge(&sh, lead, h.n - h0, shifted.rows, g->n, next.rows);
        swap_terms(&h, &next);
        h0 = 0;
    }
    rem_obj = unpack(&sh, &rem, 0);
    if (rem_obj == NULL)
        goto done;
    if (!want_quotients) {
        result = PyTuple_Pack(2, Py_None, rem_obj);
        goto done;
    }
    quots = PyTuple_New(ngs);
    if (quots == NULL)
        goto done;
    for (i = 0; i < ngs; i++) {
        PyObject *q = unpack(&sh, &Q[i], 0);
        if (q == NULL)
            goto done;
        PyTuple_SET_ITEM(quots, i, q);
    }
    result = PyTuple_Pack(2, quots, rem_obj);
done:
    Py_XDECREF(quots);
    Py_XDECREF(rem_obj);
    Py_XDECREF(divisors);
    for (i = 0; G != NULL && i < ngs; i++)
        terms_free(&G[i]);
    for (i = 0; Q != NULL && i < ngs; i++)
        terms_free(&Q[i]);
    PyMem_Free(G);
    PyMem_Free(Q);
    PyMem_Free(inv);
    terms_free(&h);
    terms_free(&next);
    terms_free(&shifted);
    terms_free(&rem);
    terms_free(&mono);
    PyMem_Free(sh.wm);
    return result;
}

static PyMethodDef methods[] = {
    {"add_terms", (PyCFunction)(void (*)(void))add_terms, METH_VARARGS | METH_KEYWORDS,
     "add_terms(ta, tb, p, wm)\n--\n\nta + tb in canonical form."},
    {"mul_terms", (PyCFunction)(void (*)(void))mul_terms, METH_VARARGS | METH_KEYWORDS,
     "mul_terms(ta, tb, p, wm)\n--\n\nta * tb in canonical form."},
    {"divmod_terms", (PyCFunction)(void (*)(void))divmod_terms, METH_VARARGS | METH_KEYWORDS,
     "divmod_terms(tf, gs, p, wm, want_quotients=False)\n--\n\n"
     "Multivariate division of tf by the list gs: (quotients, remainder),\n"
     "quotients None unless requested.  Each step divides by the first\n"
     "divisor, in gs order, whose leading monomial divides the lead term."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    "_speedups",
    "Compiled polynomial term kernels; semantics mirror _ref exactly.",
    -1,
    methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    return PyModule_Create(&module);
}
