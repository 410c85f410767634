"""The compiled steps, loaded once as ``STEP`` and ``BLAS`` (below): a round's
``score_pass`` and ``update_round``, an LNUCB-TA run of them (``run_rounds``),
which need both, and ``news_parse`` for ``env.load_news_csv``."""
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

from .attention import AttentionParams, exploration_rates

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
/* A policy's stacks (n arms of d x d or d), stats (stat_sum NULL: none) and
   table: rows linear, knn, alpha, width, ucb, then n x d scratch.  Widths: 1
   from L, 2 inverses.  Per ridge: its running bound (scales) and its rank-one
   updates since the last drift check (drift), which falls due at every. */
typedef struct {
    double *table, *mu, *squares, *sigmas, *bs, *v, *stat_sum, *scales, scale_max, gamma,
        alpha0, kappa;
    int64_t *stat_count, *drift, n, d, widths, flags, every;
    intptr_t trtrs, potrf, potrs, gemv, ddot;
} round_t;

/* A knn.NeighborBank (see its _args): per arm, contexts and rounds (lens
   long) with the window [start, end), k, and a row of the stride-wide norms
   and rewards; cap (-1: none), theta_min lo, theta_max hi, variance_scale,
   scratch (3 x stride), the pass's results res, and round_t's BLAS. */
typedef struct {
    double **ctx, *norm2, *rewards, vscale, *scratch, *res;
    int64_t **rounds, *lens, *start, *end, *ks, d, stride, cap, lo, hi;
    intptr_t gemv, ddot;
} bank_t;

/* out = a x for a row-major n x d a: ddot for one row, else dgemv (row-major,
   not transposed), as ndarray.dot calls them; with_blas checks the bits. */
void matvec(int64_t n, int64_t d, const double *a, const double *x, double *out,
            intptr_t gemv, intptr_t ddot)
{
    if (n == 1) *out = ((ddot_t *)ddot)(d, a, 1, x, 1);
    else if (n > 1) ((gemv_t *)gemv)(101, 111, n, d, 1.0, a, d, x, 1, 0.0, out, 1);
}

/* numpy's DOUBLE_pairwise_sum: a loop below 8 terms, 8 sums to 128, halves
   above.  add.reduce adds it to its identity 0.0; with_blas checks both. */
double pairwise(const double *a, int64_t n)
{
    double r[8], s = -0.0;
    int64_t i = 0;
    if (n > 128) {
        const int64_t h = n / 2 - n / 2 % 8;
        return pairwise(a, h) + pairwise(a + h, n - h);
    }
    if (n >= 8) {
        for (; i < 8; i++) r[i] = a[i];
        for (; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++) r[j] += a[i + j];
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    }
    for (; i < n; i++) s += a[i];
    return s;
}

static double max0(double v) { return v > 0.0 || v != v ? v : 0.0; }  /* np.maximum(v, 0.0) */

/* Per row j, arm rows[j] holding k = ks[j] entries (strict = 0 lowers k to
   what it holds): its window times x, its first k in (d2, column) order,
   and into res (score, u_max, k_used) their rewards' add.reduce / k, the
   k-th distance and k; zeros if not applied.  Then p's table (flags: 1 k-NN
   scores, 2 attention, 4 floored) and ucb's argmax, np.argmax's (else 0). */
int64_t score_pass(const char *xs, int64_t n, const int64_t *rows, const int64_t *ks,
                   int strict, int64_t k_cols, const round_t *p, const bank_t *bk)
{
    const int64_t d = bk->d, stride = bk->stride;
    const intptr_t gemv = bk->gemv, ddot = bk->ddot;
    const double *x = (const double *)xs, xx = ((ddot_t *)ddot)(d, x, 1, x, 1);
    double *dot = bk->scratch, *best = dot + stride, *sel = best + k_cols, *res = bk->res;
    double *u_max = res + n;
    int64_t *k_used = (int64_t *)(u_max + n), top = 0;
    for (int64_t j = 0; j < n; j++) {
        int64_t a = rows[j], size = bk->end[a] - bk->start[a], k = ks[j], m = 0;
        if (!strict && k > size) k = size > 1 ? size : 1;
        res[j] = u_max[j] = 0.0, k_used[j] = 0;
        if (size < k) continue;
        matvec(size, d, bk->ctx[a] + bk->start[a] * d, x, dot, gemv, ddot);
        const double *nr = bk->norm2 + a * stride, *rw = bk->rewards + a * stride;
        for (int64_t c = 0; c < size; c++) {  /* rewards move with their d2 */
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
        k_used[j] = k;
        u_max[j] = sqrt(best[k - 1]);
        res[j] = (0.0 + pairwise(sel, k)) / k;
    }
    if (!p) return 0;
    const int64_t m = p->n;
    double *linear = p->table, *knn = linear + m, *alpha = knn + m, *width = alpha + m;
    double *ucb = width + m, *tmp = ucb + m;
    matvec(m, d, p->mu, x, linear, gemv, ddot);
    for (int64_t a = 0; a < m; a++) {  /* the local means, in alpha for now */
        int one = 1, info, di = (int)d;
        double *v = tmp + a * d, *sq = p->squares + a * d * d;
        alpha[a] = p->stat_sum[a] / (double)(p->stat_count[a] > 1 ? p->stat_count[a] : 1);
        if (p->widths == 2) matvec(d, d, sq, x, v, gemv, ddot);  /* (squares @ x) @ x */
        if (p->widths != 1) continue;
        memcpy(v, x, sizeof(double) * d);  /* ||L^-1 x|| */
        ((trtrs_t *)p->trtrs)("L", "N", "N", &di, &one, sq, &di, v, &di, &info);
        width[a] = sqrt(((ddot_t *)ddot)(d, v, 1, v, 1));
    }
    if (p->widths == 2) matvec(m, d, tmp, x, width, gemv, ddot);
    const double g = (0.0 + pairwise(alpha, m)) / m;
    for (int64_t a = 0; a < m; a++) {
        if (p->widths == 2) width[a] = sqrt(max0(width[a]));
        knn[a] = p->flags & 1 ? res[a] : 0.0;
        alpha[a] = p->flags & 2 ? p->alpha0 / ((double)p->stat_count[a] + 1.0)
                                  * (p->kappa * g + (1.0 - p->kappa) * alpha[a]) : p->alpha0;
        if (p->flags & 4) alpha[a] = max0(alpha[a]);
        ucb[a] = linear[a] + knn[a] + alpha[a] * width[a];
        if (!(ucb[a] <= ucb[top]) && ucb[top] == ucb[top]) top = a;
    }
    return top;
}

/* The ridge steps: numpy's elementwise order of operations, and the LAPACK
   routines scipy.linalg.lapack wraps, with the arguments its f2py passes. */
typedef void potrf_t(char *, int *, double *, int *, int *);
typedef void potrs_t(char *, int *, int *, double *, int *, double *, int *, int *);

/* sigma += x x^T and b += r x, then inv -= v v^T / s if inv is given.
   Returns the smallest diagonal entry of inv (infinity without one). */
static double ridge_rank_one(const double *x, double *sigma, double *b, const double *v,
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
static int ridge_factor(const double *x, double *sigma, double *b, double *chol,
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

static int64_t pick_k(double v, int64_t lo, int64_t hi)  /* knn.select_k */
{
    v = 0.0 > v ? 0.0 : v;
    const int64_t k = (int64_t)floor((double)lo + (double)(hi - lo) * (1.0 < v ? 1.0 : v) + 0.5);
    return k < lo ? lo : k > hi ? hi : k;
}

/* A policy's update of arm a: every check, then p's ridge (residual r - knn,
   e = u_max^2; a shifted sigma can still fail to factor), stats (if any) and,
   with add, bk's entry and k, knn._variance's of the window; no p: the add
   alone, no bk: no add.  Returns -1, having changed nothing, where a check
   fails, sigma does not factor or an uncapped row is full (the numpy update
   then raises or grows it); else 0, or, for an inverse, 1 where its drift
   check falls due and 2 where it lost a diagonal entry (see _rank_one_done). */
int64_t update_round(int64_t a, const char *xs, double r, double knn, double u_max,
                     int64_t round, int add, round_t *p, bank_t *bk)
{
    const int64_t d = bk ? bk->d : p->d;
    const intptr_t ddot = bk ? bk->ddot : p->ddot;
    const double *x = (const double *)xs, resid = r - knn, e = u_max * u_max;
    const double xx = ((ddot_t *)ddot)(d, x, 1, x, 1);
    const double total = p && p->stat_sum ? p->stat_sum[a] + r : 0.0;
    const double next = p ? p->scales[a] + xx + d * (p->gamma * e) + fabs(resid) * sqrt(xx) : 0.0;
    double *r2 = bk ? bk->scratch : NULL;  /* the kept rewards' squares */
    int64_t due = 0;
    if ((p && !(next <= p->scale_max)) || !isfinite(total)) return -1;
    if (add) {  /* knn.NeighborBank._check_reward, and room in an uncapped row */
        const double *rw = bk->rewards + a * bk->stride;
        const int64_t n = bk->end[a] - bk->start[a], full = n == bk->cap;
        for (int64_t i = full; i < n; i++) r2[i - full] = rw[i] * rw[i];
        if (!isfinite(8.0 * ((0.0 + pairwise(r2, n - full)) + r * r))
            || (bk->cap < 0 && bk->end[a] == bk->lens[a]))
            return -1;
    }
    if (p) {
        double *sig = p->sigmas + a * d * d, *b = p->bs + a * d, *sq = p->squares + a * d * d;
        if (p->gamma > 0.0) {
            if (ridge_factor(x, sig, b, sq, p->mu + a * d, (int)d, resid, p->gamma * e,
                             p->potrf, p->potrs))
                return -1;
        } else {  /* Sherman-Morrison: v = inv x, then mu = inv b */
            matvec(d, d, sq, x, p->v, p->gemv, ddot);
            due = ridge_rank_one(x, sig, b, p->v, sq, (int)d, resid,
                                 1.0 + ((ddot_t *)ddot)(d, x, 1, p->v, 1)) > 0.0
                ? p->drift[a] + 1 == p->every : 2;
            p->drift[a] += !due;
            matvec(d, d, sq, b, p->mu + a * d, p->gemv, ddot);
        }
        p->scales[a] = next;
        if (p->stat_sum) p->stat_sum[a] = total, p->stat_count[a]++;
    }
    if (add) {  /* a full capped row drops its oldest entry, a window at the end moves to 0 */
        int64_t st = bk->start[a], en = bk->end[a], n = en - st;
        double *nr = bk->norm2 + a * bk->stride, *rw = bk->rewards + a * bk->stride;
        for (int64_t i = 0; n == bk->cap && i + 1 < n; i++) nr[i] = nr[i + 1], rw[i] = rw[i + 1];
        if (n == bk->cap) n--, st++;
        if (en == bk->lens[a]) {
            memmove(bk->ctx[a], bk->ctx[a] + st * d, sizeof(double) * n * d);
            memmove(bk->rounds[a], bk->rounds[a] + st, sizeof(int64_t) * n), st = 0, en = n;
        }
        memcpy(bk->ctx[a] + en * d, x, sizeof(double) * d);
        bk->rounds[a][en] = round;
        nr[n] = xx, rw[n] = r, r2[n] = r * r;
        bk->start[a] = st, bk->end[a] = en + 1;
        if (bk->lo < bk->hi) {  /* knn._variance of the window, 0 below two entries */
            const double w = n + 1, mean = (0.0 + pairwise(rw, n + 1)) / w;
            const double v = n ? (0.0 + pairwise(r2, n + 1)) / w - mean * mean : 0.0;
            bk->ks[a] = pick_k((0.0 > v ? 0.0 : v) * bk->vscale, bk->lo, bk->hi);
        }
    }
    return due;
}

/* The first row from cursor of a log of rows logged arms that shows arm a,
   else rows: replay_step's scan. */
static int64_t replay_scan(const int64_t *log, int64_t rows, int64_t cursor, int64_t a)
{
    while (cursor < rows && log[cursor] != a) cursor++;
    return cursor;
}

/* LNUCBTA p's rounds t to n - 1 with add = use_knn: the context certified
   (finite, its squared norm far from overflow), score_pass's arm, update_round,
   the reward into out.  Round t's context is row t of xs and its reward
   rw[t * arms + a]; with a replay log (logged arms log, at = cursor and row
   count, clicks rw) it is the cursor's row, and the reward is the click of
   the first row from there logged with a, just past which the cursor moves.
   Returns n; the round Python takes, unchanged, whose context or reward is
   not certified, whose arm is at or past arms or whose update declines; the
   round the log runs out at (a scan without a match moves the cursor to the
   end); or, with due = (update_round's 1 or 2, the arm), the round after one
   whose drift check falls due. */
int64_t run_rounds(int64_t t, int64_t n, const double *xs, const double *rw, int64_t arms,
                   const int64_t *log, int64_t *at, double *out, int64_t *adds, int64_t *due,
                   const int64_t *rows, int add, round_t *p, bank_t *bk)
{
    const int64_t d = p->d, m = add ? p->n : 0, k_cols = bk->hi < bk->stride ? bk->hi : bk->stride;
    for (due[0] = 0; t < n; t++) {
        const int64_t row = log ? at[0] : t;
        if (log && row >= at[1]) return t;
        const double *x = xs + row * d;
        double xx = 0.0, r;
        for (int64_t i = 0; i < d; i++) xx += x[i] * x[i];
        if (!(xx <= 0x1p1000)) return t;  /* NaN, inf or near as_context's bound */
        const int64_t a = score_pass((const char *)x, m, rows, bk->ks, 1, k_cols, p, bk);
        if (a >= arms) return t;  /* replay_step raises */
        const int64_t i = log ? replay_scan(log, at[1], row, a) : t * arms + a;
        if (log && i == at[1]) return at[0] = i, t;
        if (!isfinite(r = rw[i])) return t;
        due[0] = update_round(a, (const char *)x, r, m ? bk->res[a] : 0.0,
                              m ? bk->res[m + a] : 0.0, *adds, add, p, bk);
        if (due[0] < 0) return t;
        *adds += add, out[t] = r;
        if (log) at[0] = i + 1;
        if (due[0]) return due[1] = a, t + 1;
    }
    return n;
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
CDEF = "".join(f"{p};\n" for p in re.findall(
    r"^typedef struct {[^}]*} \w+|^(?:int64_t|int|double|void) \w+\([^)]*\)", SOURCE, re.M))

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
# Each branch of the pairwise sum, and window-sized sums (8,193: past numpy's
# default ufunc buffer).
CHECK_SUMS = (1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 136, 300, 1000, 8193)
BLAS_SYMBOLS = ("scipy_cblas_dgemv64_", "scipy_cblas_ddot64_")


def with_blas(module):
    """The addresses of numpy's own dgemv and ddot for the module, or None
    without the module or a BLAS_SYMBOLS symbol, or unless each gives numpy's
    bits: ``matvec`` (``dot``, ``matmul``) on every CHECK_SHAPES shape,
    ``row_sums`` (``add.reduce``, 1-D and axis=1) on CHECK_SUMS, and a table
    (``exploration_rates``, the floor, the stacked widths, ucb)."""
    try:  # numpy's OpenBLAS is mapped already: dlsym finds it through numpy
        lib, buf = ctypes.CDLL(np._core._multiarray_umath.__file__), module.ffi.from_buffer
        blas = [ctypes.cast(getattr(lib, name), ctypes.c_void_p).value for name in BLAS_SYMBOLS]
    except (AttributeError, OSError):
        return None
    pool = np.sin(np.arange(1.0, 1.0 + max(max(n * d for n, d in CHECK_SHAPES),
                                           3 * max(CHECK_SUMS) + 6)) * 1.7)
    for n, d in CHECK_SHAPES:
        a, x, out = pool[:n * d].reshape(n, d), pool[-d:], np.empty(n)
        module.lib.matvec(n, d, *(buf("double[]", v) for v in (a, x, out)), *blas)
        if not out.tobytes() == a.dot(x).tobytes() == (a @ x).tobytes():
            return None
    for k in CHECK_SUMS:  # strided rows, as a selection's first k columns
        rows = pool[:3 * k + 6].reshape(3, k + 2).copy()
        rows[0, ::3], rows[2] = 0.0, -0.0
        out = np.array([0.0 + module.lib.pairwise(buf("double[]", r), k) for r in rows])
        if not out.tobytes() == np.add.reduce(rows[:, :k], axis=1).tobytes() == np.array(
                [np.add.reduce(r[:k]) for r in rows]).tobytes():
            return None
    n, d, null, params, table = 7, 3, module.ffi.NULL, AttentionParams(1.5, 0.25), np.zeros((8, 7))
    x, mu, sq, sums = pool[:3], pool[:21].reshape(7, 3), pool[:63].reshape(7, 3, 3), pool[-7:]
    counts = np.arange(n) % 4
    local = sums / np.maximum(counts, 1)
    rates = exploration_rates(params, counts, float(np.add.reduce(local) / n), local)
    linear, width = mu @ x, np.sqrt(np.maximum((sq @ x) @ x, 0.0))
    bank = module.ffi.new("bank_t *", {"d": d, "gemv": blas[0], "ddot": blas[1]})
    for flags, alpha in ((2, rates), (6, np.maximum(rates, 0.0))):
        p = module.ffi.new("round_t *", {**{k: buf("double[]", v) for k, v in (
            ("table", table), ("mu", mu), ("squares", sq), ("stat_sum", sums))},
            "stat_count": buf("int64_t[]", counts), "alpha0": params.alpha0,
            "kappa": params.kappa, "n": n, "widths": 2, "flags": flags})
        top = module.lib.score_pass(x.tobytes(), 0, null, null, 1, 1, p, bank)
        want = np.array([linear, np.zeros(n), alpha, width, linear + 0.0 + alpha * width])
        if top != want[4].argmax() or table[:5].tobytes() != want.tobytes():
            return None
    return tuple(blas)


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
            for old in target.parent.glob("_csteps.*"):
                if not old.name.startswith(target.name):
                    old.unlink(missing_ok=True)
        loader = ExtensionFileLoader("_csteps", str(target))
        module = module_from_spec(spec_from_loader("_csteps", loader))
        loader.exec_module(module)
    except (ImportError, OSError, subprocess.TimeoutExpired):
        return None  # the numpy round and the csv loop run instead
    return module


STEP = load()  # the compiled steps, or None
BLAS = with_blas(STEP)  # the (dgemv, ddot) STEP's round calls, or None for the numpy round
