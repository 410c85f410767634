"""The compiled steps, built with cffi: ``score_pass``, a round's whole score
pass (see ``NeighborBank._query``), the ridge updates of ``linear``, and
``news_parse``, which reads the news logs ``env.load_news_csv`` accepts."""
import ctypes
import hashlib
import re
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from importlib.machinery import ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from pathlib import Path

import numpy as np

# d2 = max(dot * -2 + norm2 + xx, 0) in numpy's order of operations, hence
# -ffp-contract=off.  Insertion with a strict < keeps each row's first k
# entries in (d2, column) order, so ties go to the lower round.
SOURCE = r"""
#define _GNU_SOURCE  /* strtod_l */
#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
/* The cblas_dgemv and cblas_ddot of numpy's own OpenBLAS (see with_blas). */
typedef void gemv_t(int, int, int64_t, int64_t, double, const double *, int64_t,
                    const double *, int64_t, double, double *, int64_t);
typedef double ddot_t(int64_t, const double *, int64_t, const double *, int64_t);
typedef void trtrs_t(char *, char *, char *, int *, int *, double *, int *,
                     double *, int *, int *);

/* out = a x for a row-major n x d a: ddot for one row, else dgemv (row-major,
   not transposed), as ndarray.dot calls them; with_blas checks the bits. */
void matvec(int64_t n, int64_t d, const double *a, const double *x, double *out,
            intptr_t gemv, intptr_t ddot)
{
    if (n == 1) *out = ((ddot_t *)ddot)(d, a, 1, x, 1);
    else if (n > 1) ((gemv_t *)gemv)(101, 111, n, d, 1.0, a, d, x, 1, 0.0, out, 1);
}

/* One round's scores.  Per row j (arm a = rows[j]): a's window of contexts
   times x into dot, then its first ks[j] in (d2, column) order.  Per stacked
   arm: linear = mu x, and width = sqrt(v.v), v = dtrtrs(L, x), for L in
   chols.  out: sel (n x k_cols), u_max, k_used, linear, width, scratch.
   Returns the applied rows' one k, 0 for none, or -1. */
int64_t score_pass(const double *x, int64_t d, double *const *ctx,
                   const int64_t *start, const int64_t *end, const int64_t *rows,
                   const int64_t *ks, int64_t n, int strict, const double *norm2,
                   const double *rewards, int64_t stride, double *dot, double *out,
                   int64_t k_cols, const double *mu, double *chols, int64_t n_mu,
                   intptr_t trtrs, intptr_t gemv, intptr_t ddot)
{
    double *u_max = out + n * k_cols, *linear = u_max + 2 * n, *width = linear + n_mu;
    double *best = width + n_mu, *v = best + k_cols;
    int64_t *k_used = (int64_t *)(u_max + n), common = 0;
    const double xx = ((ddot_t *)ddot)(d, x, 1, x, 1);
    for (int64_t j = 0; j < n; j++) {
        int64_t a = rows[j], size = end[a] - start[a], k = ks[j], m = 0;
        if (!strict && k > size) k = size > 1 ? size : 1;
        if (size < k) continue;
        k_used[j] = k;
        common = common == 0 || common == k ? k : -1;
        matvec(size, d, ctx[a] + start[a] * d, x, dot, gemv, ddot);
        const double *nr = norm2 + a * stride, *rw = rewards + a * stride;
        double *sel = out + j * k_cols;  /* rewards move with their d2 */
        for (int64_t c = 0; c < size; c++) {
            double d2 = dot[c] * -2.0 + nr[c] + xx;
            if (d2 < 0.0) d2 = 0.0;
            if (m == k && !(d2 < best[k - 1])) continue;
            int64_t i = m < k ? m++ : k - 1;
            for (; i > 0 && best[i - 1] > d2; i--) {
                best[i] = best[i - 1];
                sel[i] = sel[i - 1];
            }
            best[i] = d2;
            sel[i] = rw[c];
        }
        u_max[j] = sqrt(best[k - 1]);
    }
    if (mu) matvec(n_mu, d, mu, x, linear, gemv, ddot);
    for (int64_t a = 0; chols && a < n_mu; a++) {
        int one = 1, info, di = (int)d;
        memcpy(v, x, sizeof(double) * d);
        ((trtrs_t *)trtrs)("L", "N", "N", &di, &one, chols + a * d * d, &di, v, &di, &info);
        width[a] = sqrt(((ddot_t *)ddot)(d, v, 1, v, 1));
    }
    return common;
}

/* The ridge steps: numpy's elementwise order of operations, and the LAPACK
   routines scipy.linalg.lapack wraps, with the arguments its f2py passes. */
typedef void potrf_t(char *, int *, double *, int *, int *);
typedef void potrs_t(char *, int *, int *, double *, int *, double *, int *, int *);

/* sigma += x x^T and b += r x, then inv -= v v^T / s if inv is given.
   Returns the smallest diagonal entry of inv (infinity without one). */
double ridge_rank_one(const double *x, double *sigma, double *b, const double *v,
                      double *inv, int d, double r, double s)
{
    double low = INFINITY;
    for (int i = 0; i < d; i++) {
        for (int j = 0; j < d; j++) sigma[i * d + j] += x[i] * x[j];
        b[i] += r * x[i];
        for (int j = 0; inv && j < d; j++) inv[i * d + j] -= v[i] * v[j] / s;
        if (inv && inv[i * (d + 1)] < low) low = inv[i * (d + 1)];
    }
    return low;
}

/* sigma + x x^T plus a positive shift on its diagonal, factored by
   dpotrf(lower=1) into the column-major chol (its strict upper triangle
   zeroed), then the update of sigma and b and dpotrs(chol, b) into mu.
   Returns dpotrf's info: nonzero leaves sigma, b and mu as they were and
   refactors sigma into the chol it had. */
int ridge_factor(const double *x, double *sigma, double *b, double *chol,
                 double *mu, int d, double r, double shift, intptr_t potrf,
                 intptr_t potrs)
{
    int one = 1, info, again;
    for (int i = 0; i < d; i++) {  /* the sum is symmetric */
        const double xi = x[i], *restrict row = sigma + i * d;
        double *restrict out = chol + i * d;
        for (int j = 0; j < d; j++) out[j] = row[j] + xi * x[j];
    }
    for (int i = 0; shift > 0.0 && i < d; i++) chol[i * (d + 1)] += shift;
    ((potrf_t *)potrf)("L", &d, chol, &d, &info);
    if (info != 0) {
        memcpy(chol, sigma, sizeof(double) * d * d);
        ((potrf_t *)potrf)("L", &d, chol, &d, &again);
    } else {
        ridge_rank_one(x, sigma, b, NULL, NULL, d, r, 0.0);
        for (int i = 0; shift > 0.0 && i < d; i++) sigma[i * (d + 1)] += shift;
    }
    for (int j = 1; j < d; j++) memset(chol + j * d, 0, sizeof(double) * j);
    if (info != 0) return info;
    memcpy(mu, b, sizeof(double) * d);
    ((potrs_t *)potrs)("L", &d, &one, chol, &d, mu, &d, &info);
    return info;
}

static locale_t c_locale;  /* strtod_l's, made when the module loads */
__attribute__((constructor)) static void init(void) { c_locale = newlocale(LC_ALL_MASK, "C", 0); }

/* One cell of [+-]?digits[.digits]([eE][+-]?digits)? ('.5' and '5.' too)
   under 48 bytes at s, into *v as float() reads it: Clinger's fast path (at
   most 19 significant digits, m <= 2^53 and one exact power of ten, so one
   correctly rounded multiply or divide), else strtod_l in the C locale.
   Returns the end of the cell, or NULL. */
static const char *parse_cell(const char *s, const char *end, double *v)
{
    static const double p10[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
        1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
    const char *lim = end - s > 48 ? s + 48 : end;
    const char *p = s + (s < lim && (*s == '+' || *s == '-'));
    uint64_t m = 0;  /* wraps past 19 significant digits, where it is unused */
    int digits = 0, sig = 0, dot = 0, frac = 0, e = 0, neg = 0, n = 0;
    for (; p < lim && ((*p >= '0' && *p <= '9') || (*p == '.' && !dot++)); p++) {
        if (*p == '.') continue;
        digits++, frac += dot;
        if (m || *p != '0') sig++, m = m * 10 + (*p - '0');
    }
    if (p < lim && digits && (*p == 'e' || *p == 'E')) {
        if (++p < lim && (*p == '+' || *p == '-')) neg = *p++ == '-';
        for (; p < lim && *p >= '0' && *p <= '9'; p++, n++) e = e < 9999 ? e * 10 + *p - '0' : e;
        if (!n) return NULL;
    }
    if (!digits || p - s == 48) return NULL;
    e = (neg ? -e : e) - frac;
    if (sig <= 19 && m <= 1ULL << 53 && e >= -22 && e <= 22)
        *v = (*s == '-' ? -1.0 : 1.0) * (e < 0 ? (double)m / p10[-e] : (double)m * p10[e]);
    else {  /* the cell is under 48 bytes, so NUL-terminated here */
        char cell[48] = {0};
        *v = strtod_l(memcpy(cell, s, p - s), NULL, c_locale);
    }
    return p;
}

/* The rows of a news log of len bytes, at most max_rows of 102 cells (arm id
   1..10, click 0 or 1, 100 finite features), into arms (id - 1), clicks and
   the row-major x; lines end in \n or \r\n and empty ones are skipped.
   Returns the row count, or -1 for any other byte, cell or row. */
int64_t news_parse(const char *s, int64_t len, int64_t max_rows, int64_t *arms,
                   double *clicks, double *x)
{
    const char *end = s + len;
    for (int64_t n = 0; c_locale; n++) {
        double v[2];
        while (s < end && (*s == '\n' || (*s == '\r' && s + 1 < end && s[1] == '\n')))
            s += *s == '\r' ? 2 : 1;
        if (s == end) return n;
        if (n == max_rows) return -1;
        for (int j = 0; j < 102; j++) {
            double *out = j < 2 ? v + j : x + n * 100 + j - 2;
            if ((j && (s == end || *s++ != ',')) || !(s = parse_cell(s, end, out))
                || !isfinite(*out))
                return -1;
        }
        if ((s < end && *s != '\n' && *s != '\r') || !(v[0] >= 1 && v[0] <= 10)
            || v[0] != (int64_t)v[0] || (v[1] != 0 && v[1] != 1))
            return -1;  /* a lone \r fails as the next row's first cell */
        arms[n] = (int64_t)v[0] - 1;
        clicks[n] = v[1];
    }
    return -1;
}
"""
# The exported functions' prototypes.
CDEF = "".join(f"{p};\n" for p in re.findall(r"^(?:int64_t|int|double|void) \w+\([^)]*\)",
                                             SOURCE, re.M))

_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def lapack_routines(cython_lapack):
    """The addresses of dpotrf, dpotrs and dtrtrs in scipy's cython_lapack, or
    None unless each capsule is named by the prototype SOURCE calls it by."""
    try:
        return tuple(_capsule_pointer(cython_lapack.__pyx_capi__["d" + name], (
            "void " + " ".join(re.search(rf"{name}_t(\([^;]*\));", SOURCE)[1].split())
        ).replace("double", "__pyx_t_5scipy_6linalg_13cython_lapack_d").encode())
            for name in ("potrf", "potrs", "trtrs"))
    except (AttributeError, KeyError, ValueError):  # ValueError: another prototype
        return None


CHECK_SHAPES = ((1, 1), (1, 10), (1, 100), (2, 1), (9, 1), (5, 10), (3, 100), (3100, 3), (2, 4100))
BLAS_SYMBOLS = ("scipy_cblas_dgemv64_", "scipy_cblas_ddot64_")


def with_blas(module):
    """(module, the addresses of numpy's own dgemv and ddot), or (None, None)
    without the module, a BLAS_SYMBOLS symbol, or numpy's bits (``dot`` and
    ``matmul``) from ``matvec`` on every CHECK_SHAPES shape: one row, one
    column, and past OpenBLAS's blocking and threading sizes."""
    try:  # numpy's OpenBLAS is mapped already: dlsym finds it through numpy
        lib, buf = ctypes.CDLL(np._core._multiarray_umath.__file__), module.ffi.from_buffer
        blas = [ctypes.cast(getattr(lib, name), ctypes.c_void_p).value for name in BLAS_SYMBOLS]
    except (AttributeError, OSError):
        return None, None
    pool = np.sin(np.arange(1.0, 1.0 + max(n * d for n, d in CHECK_SHAPES)) * 1.7)
    for n, d in CHECK_SHAPES:
        a, x, out = pool[:n * d].reshape(n, d), pool[-d:], np.empty(n)
        module.lib.matvec(n, d, *(buf("double[]", v) for v in (a, x, out)), *blas)
        if not out.tobytes() == a.dot(x).tobytes() == (a @ x).tobytes():
            return None, None
    return module, tuple(blas)


_BUILD = """import os, sys, cffi
cdef, source, tmp, target = sys.argv[1:]
ffi = cffi.FFI()
ffi.cdef(cdef)
ffi.set_source("_csteps", source, extra_compile_args=["-O3", "-ffp-contract=off"])
try:
    os.replace(ffi.compile(tmpdir=tmp), target)
except cffi.VerificationError as error:  # the compiler rejected the source
    open(target + ".failed", "w").write(str(error))
"""


def load(cache: Path = Path(__file__).parent / "__pycache__"):
    """The compiled steps, built into ``cache`` first if need be, or None.

    Nothing is built without cffi and a C compiler.  A fresh interpreter
    builds it within 120 s, named by source hash and ABI tag, and moves it
    into place whole, so concurrent builders do not race and this one never
    imports cffi; a build removes other sources' artifacts.  Only a source
    the compiler rejects leaves a marker (its output) against retries.
    """
    key = hashlib.sha256((SOURCE + _BUILD).encode()).hexdigest()[:16]
    target = Path(cache) / f"_csteps.{key}{sysconfig.get_config_var('EXT_SUFFIX')}"
    try:
        if not (target.exists() or target.with_name(target.name + ".failed").exists()):
            cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
            if find_spec("cffi") is None or shutil.which(cc) is None:
                return None
            target.parent.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
                subprocess.run([sys.executable, "-c", _BUILD, CDEF, SOURCE, tmp,
                                str(target)], capture_output=True, timeout=120)
            for old in [*target.parent.glob("_csteps.*"),
                        *target.parent.glob("_knn_step.*")]:  # the former name
                if not old.name.startswith(target.name):
                    old.unlink(missing_ok=True)
        loader = ExtensionFileLoader("_csteps", str(target))
        module = module_from_spec(spec_from_loader("_csteps", loader))
        loader.exec_module(module)
    except (ImportError, OSError, subprocess.TimeoutExpired):
        return None  # knn and linear run their numpy steps instead
    return module
