"""Numerically stable evaluators for the symmetric log-location-scale baseline kernels.

Each kernel is a symmetric density f on the real line; the censored-data
likelihood consumes log f, log F(-u) and the ratio functions f/F(-u), f'/f
and f''/f built from it.  Each kernel has one function that computes these
five terms from shared intermediates, and `newton_terms`, the one way to
them, returns its tuple at a 1-d array u.  Every term is safe far into the
tails (|u| up to a few hundred) without catastrophic cancellation, and no u
up to the float maximum raises a warning: where a closed form overflows, the
term takes its limit.

Each kernel's quantile is a (centre, tail) pair of functions tabled beside
its terms; `quantile(p)` and `quantile_exp(log q)` give the pair the forms of
q that keep its precision near 0, 1/2 and 1, and where q underflows.

Everything is NumPy.  The normal kernel rests on one function,
S(x) = Phi(-x) exp(x^2/2) = erfcx(x/sqrt(2))/2 for x >= 0, evaluated in a
single pass from a table of degree-5 polynomials over 128 pieces of
t = (x - 3)/(x + 3) (see `tools/normal_tail_table.py`, which derives the
table with mpmath; the relative error of S is below 5e-16 on [0, inf)).  Its
one terms function computes S(|u|), -u^2/2 and Phi(-|u|) = S(|u|) exp(-u^2/2)
once each: log Phi(-u) is log S(u) - u^2/2 for u > 0 and log1p(-Phi(-|u|))
otherwise, and phi(u)/Phi(-u) is 1/(sqrt(2 pi) S(u)) for u >= 0.  The normal
quantile is found by Newton steps on log Phi(-z) in the tails and on the
Taylor series of Phi(x) - 1/2 in the centre; the other three kernels'
quantiles are closed forms.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from . import _normal_tail_table


class Kernel(enum.Enum):
    NORMAL = "normal"
    LOGISTIC = "logistic"
    SECH = "sech"
    STUDENT_T2 = "t2"


_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _as_array(u):
    return np.asarray(u, dtype=float)


# ---------------------------------------------------------------------------
# the five terms (log f, log F(-u), f/F(-u), f'/f, f''/f) at a 1-d array u,
# one function per kernel: the Supp-table closed forms, rearranged for stability

_FAR = 1e77  # |u| beyond which a kernel's closed forms may overflow


def _normal_terms(u, a):
    # s = S(|u|); h = -u^2/2 gives log f, f''/f and e = exp(-u^2/2), and
    # tail = s e = Phi(-|u|) gives log F(-u) and f/F(-u) for u < 0
    s = _normal_tail(a)
    h = -0.5 * u * u
    e = np.exp(h)
    tail = e * s
    with np.errstate(divide="ignore"):  # S(inf) = 0
        pos = np.log(s)
    pos += h  # log F(-u): log S(u) - u^2/2 for u > 0, log(1 - tail) otherwise
    # f/F(-u): 1/(sqrt(2 pi) s) for u >= 0, e/(sqrt(2 pi) (1 - tail)) for u < 0
    right = u >= 0
    return (h - _HALF_LOG_2PI, np.where(u > 0, pos, np.log1p(-tail)),
            np.where(right, 1.0, e) / (_SQRT_2PI * np.where(right, s, 1.0 - tail)),
            -u, h * -2.0 - 1.0)


def _normal_far(u, a, lf, lF, r1, rp, rs):
    # where u^2 overflows, phi(u)/Phi(-u) = u + 1/u - ... rounds to u, while
    # 1/(sqrt(2 pi) S(u)) overflows at the float maximum
    return lf, lF, np.where((u > 0) & np.isinf(u * u), u, r1), rp, rs


def _logistic_terms(u):
    a = np.abs(u)
    e = np.exp(-a)
    log1p_e = np.log1p(e)
    with np.errstate(over="ignore"):  # cosh(u) = inf beyond |u| ~ 710, where f''/f = 1
        cosh = np.cosh(u)
    # log F(-u) = -log(1 + e^u) = -(max(u, 0) + log(1 + e^-|u|)); f/F(-u) is
    # the logistic function 1/(1 + e^{-u}), from e^{-|u|} on both sides
    return (-a - 2.0 * log1p_e, -(np.maximum(u, 0.0) + log1p_e),
            np.where(u >= 0, 1.0, e) / (1.0 + e), -np.tanh(0.5 * u),
            1.0 - 3.0 / (cosh + 1.0))


def _log_arctan_exp_neg(x):
    """log(arctan(exp(-x))) for x >= 0, stable for large x."""
    z = np.exp(-x)
    small = z < 1e-4
    with np.errstate(divide="ignore"):
        direct = np.log(np.arctan(z))
    series = -x + np.log1p(-z * z / 3.0)
    return np.where(small, series, direct)


def _sech_terms(u, a):
    x = 0.5 * np.pi * u
    ax = 0.5 * np.pi * a
    # e^(-2|x|) = e^(-pi |u|); log(0.5 sech x) = -|x| - log1p(e^(-2|x|))
    e = np.exp(-2.0 * ax)
    lf = -ax - np.log1p(e)
    right = u >= 0
    pos = _log_arctan_exp_neg(np.where(right, x, 0.0)) + np.log(2.0 / np.pi)
    # u < 0: F(-u) = 1 - (2/pi) arctan(exp(x)), x <= 0; NaN takes this branch
    # and stays NaN
    neg = np.log1p(-(2.0 / np.pi) * np.exp(_log_arctan_exp_neg(np.where(right, 0.0, -x))))
    lF = np.where(right, pos, neg)
    # (pi^2/8)(cosh(pi u) - 3) sech^2(pi u / 2) == (pi^2/4)(1 - 2 sech^2(pi u / 2)),
    # with sech^2 x = 4 e^(-2|x|) / (1 + e^(-2|x|))^2, which cannot overflow
    sech2 = 4.0 * e / (1.0 + e) ** 2
    return (lf, lF, np.exp(lf - lF), -0.5 * np.pi * np.tanh(x),
            0.25 * np.pi ** 2 * (1.0 - 2.0 * sech2))


def _sech_far(u, a, lf, lF, r1, rp, rs):
    # where pi u/2 overflows, log f = log F(-u) = -inf, and f/F(-u) takes its
    # limit pi/2
    return lf, lF, np.where((u > 0) & np.isinf(0.5 * np.pi * u), 0.5 * np.pi, r1), rp, rs


def _t2_terms(u, a):
    # one sqrt(u^2 + 2) for all five
    s2 = u * u + 2.0
    s = np.sqrt(s2)
    sa = s + a
    right = u >= 0
    # F(-u) = (1 - u/s)/2; for u >= 0, 1 - u/s = 2/(s(s+u))
    lF = np.where(right, -np.log(s * sa), np.log(0.5) + np.log1p(a / s))
    r1 = np.where(right, sa / s2, 2.0 / (s2 * sa))
    return (-1.5 * np.log(s2), lF, r1, -3.0 * u / s2,
            6.0 * (2.0 * u * u - 1.0) / (s2 * s2))


def _t2_far(u, a, lf, lF, r1, rp, rs):
    # where (u^2 + 2)^2 overflows (|u| > 1.2e77), f''/f takes its leading order
    # 12/u^2, and where u^2 does too (|u| > 1.3e154), so do the other four
    # terms, in r = 1/|u|; each is exact to rounding there
    s2 = u * u + 2.0
    r = 1.0 / a
    huge = np.isinf(s2)
    right = u >= 0
    return (np.where(huge, -3.0 * np.log(a), lf),
            np.where(huge, np.where(right, -(2.0 * np.log(a) + math.log(2.0)), -0.5 * r * r), lF),
            np.where(huge, np.where(right, 2.0 * r, r * r * r), r1),
            np.where(huge, -3.0 / u, rp),
            np.where(np.isinf(s2 * s2), 12.0 * r * r, rs))


def _far_safe(terms, far):
    """A kernel's five terms from `terms(u, |u|)`, whose closed forms may
    overflow beyond |u| = 1e77: an array with such a u (or a NaN) is computed
    without warnings, and `far` puts each overflowed term's limit in its place."""
    def far_safe_terms(u):
        a = np.abs(u)
        if a.max(initial=0.0) <= _FAR:
            return terms(u, a)
        with np.errstate(all="ignore"):
            return far(u, a, *terms(u, a))
    return far_safe_terms


def newton_terms(u, kernel: Kernel) -> tuple:
    """(log f, log F(-u), f/F(-u), f'/f, f''/f) at a 1-d array u: the terms
    a likelihood pass needs, from the kernel's one function, without a
    warning for any u."""
    return _TERMS[kernel](u)


# ---------------------------------------------------------------------------
# quantile: per kernel, x from c = q - 1/2 in the centre, and in the tails the
# z >= 0 with log F(-z) = log p, p = min(q, 1 - q) <= 1/4

_CENTRE = 0.25     # |q - 1/2| below which the quantile is solved from q - 1/2
_LN2_HI, _LN2_LO = 0.6931471805599453, 2.3190468138462996e-17  # ln 2 = hi + lo


def _scalar_or_array(out):
    return out if out.shape else float(out)


def quantile(p, kernel: Kernel):
    p = _as_array(p)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("quantile requires 0 < p < 1")
    return _scalar_or_array(_quantile(p - 0.5, np.log(p), np.log1p(-p), kernel))


def quantile_exp(log_q, kernel: Kernel):
    """The kernel quantile of q = exp(log_q), accurate for q near 0, 1/2 and 1."""
    log_q = _as_array(log_q)
    if np.any(log_q >= 0.0):
        raise ValueError("quantile_exp requires log_q < 0")
    # q - 1/2 = (exp(log q + ln 2) - 1)/2, with log q + ln 2 exact near q = 1/2
    c = 0.5 * np.expm1((log_q + _LN2_HI) + _LN2_LO)
    return _scalar_or_array(_quantile(c, log_q, np.log(-np.expm1(log_q)), kernel))


def _quantile(c, log_q, log_1mq, kernel: Kernel):
    """The kernel quantile of q, given three equivalent forms of q: c = q - 1/2,
    log q and log(1 - q).  Each point is solved from the form that carries its
    precision: c in the centre (|c| < 1/4), log min(q, 1 - q) in the tails."""
    centre_quantile, tail_quantile = _QUANTILES[kernel]
    c, log_q, log_1mq = (np.asarray(a, dtype=float) for a in (c, log_q, log_1mq))
    x = np.empty_like(c)
    centre = np.abs(c) < _CENTRE
    x[centre] = centre_quantile(c[centre])
    tails = ~centre
    lower = c[tails] < 0.0
    z = tail_quantile(np.where(lower, log_q[tails], log_1mq[tails]))
    x[tails] = np.where(lower, -z, z)
    return x


def _logistic_centre_quantile(c):
    # log(q/(1 - q)) = 2 artanh(2c), with 2c exact
    return 2.0 * np.arctanh(2.0 * c)


def _logistic_tail_quantile(log_p):
    # F(-z) = 1/(1 + e^z) = p: z = log(1 - p) - log p
    return np.log1p(-np.exp(log_p)) - log_p


def _sech_centre_quantile(c):
    # F(x) - 1/2 = gd(pi x/2)/pi, and the Gudermannian's inverse is asinh(tan)
    return (2.0 / np.pi) * np.arcsinh(np.tan(np.pi * c))


def _sech_tail_quantile(log_p):
    # F(-z) = (2/pi) arctan(exp(-pi z/2)) = p: z = -(2/pi) log tan(a), a = pi p/2,
    # with log tan(a) = log(pi/2) + log p + log(sinc(p/2)/cos(a)), which stays
    # accurate where p = exp(log p) underflows
    p = np.exp(log_p)
    return (-2.0 / np.pi) * (math.log(0.5 * math.pi) + log_p
                             + np.log(np.sinc(0.5 * p) / np.cos(0.5 * np.pi * p)))


def _t2_centre_quantile(c):
    # F(x) - 1/2 = x/(2 sqrt(x^2 + 2)): x = sqrt(8) c/sqrt((1 - 2c)(1 + 2c))
    return math.sqrt(8.0) * c / np.sqrt((1.0 - 2.0 * c) * (1.0 + 2.0 * c))


def _t2_tail_quantile(log_p):
    # F(-z) = p: z = (1 - 2p)/sqrt(2p(1 - p)), with p^(-1/2) = exp(-log p/2),
    # which stays accurate where p underflows; beyond the float range z is inf
    p = np.exp(log_p)
    with np.errstate(over="ignore"):
        return (1.0 - 2.0 * p) / np.sqrt(2.0 * (1.0 - p)) * np.exp(-0.5 * log_p)


# ---------------------------------------------------------------------------
# the normal kernel's tail function and quantile

_TAIL_C = _normal_tail_table.C
_TAIL_N = _normal_tail_table.N
_TAIL_COEF = np.array(_normal_tail_table.COEF)  # row p: coefficient of s**p per piece


def _normal_tail(x):
    """S(x) = Phi(-x) exp(x^2/2) = erfcx(x/sqrt(2))/2 for a 1-d array x >= 0.

    One pass: the piece index and local coordinate s in [0, 1] of
    t = (x - C)/(x + C), a Horner pass over the piece's polynomial in s, and
    a division by x + C.  S(inf) = 0 and NaN stays NaN."""
    den = x + _TAIL_C
    s = np.divide(_TAIL_N * _TAIL_C, den)
    np.subtract(_TAIL_N, s, out=s)  # N (t + 1)/2
    i = np.fmin(s, _TAIL_N - 1)
    np.floor(i, out=i)
    s -= i
    i = i.astype(np.intp)
    coef = _TAIL_COEF.take(i, axis=1)  # (degree + 1, n), freed on return
    out = coef[-1] * s
    out += coef[-2]
    for c in coef[-3::-1]:
        out *= s
        out += c
    out /= den
    return out


_NEWTON_STEPS = 60
# Phi(x) - 1/2 = x/sqrt(2 pi) sum_k (-1/2)^k x^(2k) / (k! (2k + 1))
_PHI_SERIES = tuple((-0.5) ** k / (math.factorial(k) * (2 * k + 1)) for k in range(16))
# Hastings' rational approximation to the upper-tail quantile, |error| < 4.5e-4
_HASTINGS_NUM = (2.515517, 0.802853, 0.010328)
_HASTINGS_DEN = (1.0, 1.432788, 0.189269, 0.001308)


def _normal_centre_quantile(c):
    """x with Phi(x) - 1/2 = c for |c| < 1/4 (so |x| < 0.68): Newton steps from
    x = sqrt(2 pi) c, which approach the root from the origin's side."""
    x = _SQRT_2PI * c
    for _ in range(_NEWTON_STEPS):
        x2 = x * x
        series = np.full_like(x, _PHI_SERIES[-1])
        for a in _PHI_SERIES[-2::-1]:
            series *= x2
            series += a
        step = (x * series / _SQRT_2PI - c) * _SQRT_2PI * np.exp(0.5 * x2)
        x -= step
        if np.all(np.abs(step) <= 1e-15 * np.abs(x)):
            break
    return x


def _normal_tail_quantile(log_p):
    """z >= 0 with log Phi(-z) = log_p, for log_p <= log(1/4): Newton steps on
    log Phi(-z) = log S(z) - z^2/2, concave in z, from Hastings' start."""
    t = np.sqrt(-2.0 * log_p)
    tc = np.minimum(t, 1e8)  # beyond, the correction is below 1e-7: keeps tc**3 finite
    num = _HASTINGS_NUM[0] + tc * (_HASTINGS_NUM[1] + tc * _HASTINGS_NUM[2])
    den = _HASTINGS_DEN[0] + tc * (_HASTINGS_DEN[1] + tc * (_HASTINGS_DEN[2] + tc * _HASTINGS_DEN[3]))
    z = t - num / den
    for _ in range(_NEWTON_STEPS):
        s = _normal_tail(z)
        # d/dz log Phi(-z) = -1/(sqrt(2 pi) S(z))
        step = (np.log(s) - 0.5 * z * z - log_p) * _SQRT_2PI * s
        z += step
        if np.all(np.abs(step) <= 1e-15 * z):
            break
    return z


# ---------------------------------------------------------------------------
# each kernel's five terms, and the (centre, tail) pair of its quantile

_TERMS = {Kernel.NORMAL: _far_safe(_normal_terms, _normal_far),
          Kernel.LOGISTIC: _logistic_terms,
          Kernel.SECH: _far_safe(_sech_terms, _sech_far),
          Kernel.STUDENT_T2: _far_safe(_t2_terms, _t2_far)}
_QUANTILES = {Kernel.NORMAL: (_normal_centre_quantile, _normal_tail_quantile),
              Kernel.LOGISTIC: (_logistic_centre_quantile, _logistic_tail_quantile),
              Kernel.SECH: (_sech_centre_quantile, _sech_tail_quantile),
              Kernel.STUDENT_T2: (_t2_centre_quantile, _t2_tail_quantile)}
