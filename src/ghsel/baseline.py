"""Numerically stable evaluators for the symmetric log-location-scale baseline kernels.

Each kernel is a symmetric density f on the real line; the censored-data
likelihood consumes log f, log F(-u) and the ratio functions f/F(-u), f'/f
and f''/f built from it.  Each kernel has one function that computes these
five terms from shared intermediates, and `newton_terms` returns its tuple
for a likelihood pass.  The single functions (`log_f`, `log_F_neg`,
`ratio_f_over_Fneg`, `ratio_fprime_over_f`, `ratio_fsecond_over_f`) are its
slots, and `ratio_fprime_over_Fneg` is the product of two of them; they
accept scalars or numpy arrays.  Every term is safe far into the tails
(|u| up to a few hundred) without catastrophic cancellation.

Everything is NumPy.  The normal kernel rests on one function,
S(x) = Phi(-x) exp(x^2/2) = erfcx(x/sqrt(2))/2 for x >= 0, evaluated in a
single pass from a table of degree-5 polynomials over 128 pieces of
t = (x - 3)/(x + 3) (see `tools/normal_tail_table.py`, which derives the
table with mpmath; the relative error of S is below 5e-16 on [0, inf)):
log Phi(-u) is log S(u) - u^2/2 for u > 0 and log1p(-S(|u|) exp(-u^2/2))
otherwise, and phi(u)/Phi(-u) is 1/(sqrt(2 pi) S(u)) for u >= 0.  The normal
quantile is found by Newton steps on log Phi(-z) in the tails and on the
Taylor series of Phi(x) - 1/2 in the centre.  The logistic kernel needs only
the stable closed forms of the logistic function and its inverse.
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

def _normal_terms(u):
    # one S(|u|) for log F(-u) and f/F(-u)
    lF, s, e = _normal_sf(u)
    uu = u * u
    return uu * -0.5 - _HALF_LOG_2PI, lF, _normal_ratio(u, s, e), -u, uu - 1.0


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


def _sech_terms(u):
    x = 0.5 * np.pi * u
    ax = np.abs(x)
    # log(0.5 sech x) = -|x| - log1p(exp(-2|x|))
    lf = -ax - np.log1p(np.exp(-2.0 * ax))
    right = u >= 0
    pos = _log_arctan_exp_neg(np.where(right, x, 0.0)) + np.log(2.0 / np.pi)
    # u < 0: F(-u) = 1 - (2/pi) arctan(exp(x)), x <= 0
    neg = np.log1p(-(2.0 / np.pi) * np.exp(_log_arctan_exp_neg(np.where(u < 0, -x, 0.0))))
    lF = np.where(right, pos, neg)
    # (pi^2/8)(cosh(pi u) - 3) sech^2(pi u / 2) == (pi^2/4)(1 - 2 sech^2(pi u / 2)),
    # with sech^2 x = 4 e^(-2|x|) / (1 + e^(-2|x|))^2, which cannot overflow
    e = np.exp(-np.pi * np.abs(u))
    sech2 = 4.0 * e / (1.0 + e) ** 2
    return (lf, lF, np.exp(lf - lF), -0.5 * np.pi * np.tanh(x),
            0.25 * np.pi ** 2 * (1.0 - 2.0 * sech2))


def _t2_terms(u):
    # one sqrt(u^2 + 2) for all five
    s2 = u * u + 2.0
    s = np.sqrt(s2)
    a = np.abs(u)
    sa = s + a
    right = u >= 0
    # F(-u) = (1 - u/s)/2; for u >= 0, 1 - u/s = 2/(s(s+u))
    lF = np.where(right, -np.log(s * sa), np.log(0.5) + np.log1p(a / s))
    r1 = np.where(right, sa / s2, 2.0 / (s2 * sa))
    return (-1.5 * np.log(s2), lF, r1, -3.0 * u / s2,
            6.0 * (2.0 * u * u - 1.0) / (s2 * s2))


_TERMS = {Kernel.NORMAL: _normal_terms, Kernel.LOGISTIC: _logistic_terms,
          Kernel.SECH: _sech_terms, Kernel.STUDENT_T2: _t2_terms}


def newton_terms(u, kernel: Kernel) -> tuple:
    """(log f, log F(-u), f/F(-u), f'/f, f''/f) at a 1-d array u: the terms
    a likelihood pass needs, from the kernel's one function."""
    return _TERMS[kernel](u)


def _terms(u, kernel: Kernel):
    """The kernel's five terms at u of any shape, each reshaped to u's."""
    u = _as_array(u)
    return tuple(t.reshape(u.shape) for t in _TERMS[kernel](u.reshape(-1)))


def _scalar_or_array(out):
    return out if out.shape else float(out)


def log_f(u, kernel: Kernel):
    return _scalar_or_array(_terms(u, kernel)[0])


def log_F_neg(u, kernel: Kernel):
    return _scalar_or_array(_terms(u, kernel)[1])


def ratio_f_over_Fneg(u, kernel: Kernel):
    return _scalar_or_array(_terms(u, kernel)[2])


def ratio_fprime_over_f(u, kernel: Kernel):
    return _scalar_or_array(_terms(u, kernel)[3])


def ratio_fsecond_over_f(u, kernel: Kernel):
    return _scalar_or_array(_terms(u, kernel)[4])


def ratio_fprime_over_Fneg(u, kernel: Kernel):
    # f'/F(-u) = (f'/f) * (f/F(-u)) for every family; the product of the two
    # stable forms is itself stable.
    terms = _terms(u, kernel)
    return _scalar_or_array(terms[3] * terms[2])

# ---------------------------------------------------------------------------
# quantile

def quantile(p, kernel: Kernel):
    p = _as_array(p)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("quantile requires 0 < p < 1")
    if kernel is Kernel.NORMAL:
        out = _normal_quantile(p - 0.5, np.log(p), np.log1p(-p))
    elif kernel is Kernel.LOGISTIC:
        # log(p/(1 - p)); 2 artanh(2p - 1) where 2p - 1 is exact (p >= 1/4)
        out = np.where(p < 0.25, np.log(p / (1.0 - p)),
                       2.0 * np.arctanh(2.0 * np.maximum(p, 0.25) - 1.0))
    elif kernel is Kernel.SECH:
        out = (2.0 / np.pi) * np.log(np.tan(0.5 * np.pi * p))
    elif kernel is Kernel.STUDENT_T2:
        s = 2.0 * p - 1.0
        out = s * np.sqrt(2.0) / np.sqrt(1.0 - s * s)
    else:
        raise ValueError(f"unknown kernel {kernel}")
    return out if out.shape else float(out)


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
    out = _TAIL_COEF[-1].take(i)
    for coef in _TAIL_COEF[-2::-1]:
        out *= s
        out += coef.take(i)
    out /= den
    return out


def _normal_sf(u):
    """log Phi(-u) for a 1-d array u, with the S(|u|) and exp(-u^2/2) it is
    computed from."""
    s = _normal_tail(np.abs(u))
    h = -0.5 * u * u
    with np.errstate(divide="ignore"):  # S(inf) = 0
        pos = np.log(s)
    pos += h  # u > 0: log S(u) - u^2/2
    e = np.exp(h)
    # u <= 0: log(1 - Phi(u)), with Phi(u) = S(|u|) exp(-u^2/2)
    return np.where(u > 0, pos, np.log1p(-(e * s))), s, e


def _normal_ratio(u, s, e):
    """phi(u)/Phi(-u) from s = S(|u|) and e = exp(-u^2/2): 1/(sqrt(2 pi) S(u))
    for u >= 0, and phi(u)/(1 - Phi(u)) with Phi(u) = S(|u|) e for u < 0."""
    right = u >= 0
    return np.where(right, 1.0, e) / (_SQRT_2PI * np.where(right, s, 1.0 - e * s))


_CENTRE = 0.25     # |q - 1/2| below which the quantile is solved from q - 1/2
_NEWTON_STEPS = 60
# Phi(x) - 1/2 = x/sqrt(2 pi) sum_k (-1/2)^k x^(2k) / (k! (2k + 1))
_PHI_SERIES = tuple((-0.5) ** k / (math.factorial(k) * (2 * k + 1)) for k in range(16))
# Hastings' rational approximation to the upper-tail quantile, |error| < 4.5e-4
_HASTINGS_NUM = (2.515517, 0.802853, 0.010328)
_HASTINGS_DEN = (1.0, 1.432788, 0.189269, 0.001308)
_LN2_HI, _LN2_LO = 0.6931471805599453, 2.3190468138462996e-17  # ln 2 = hi + lo


def _normal_quantile(c, log_q, log_1mq):
    """The normal quantile of q, given three equivalent forms of q: c = q - 1/2,
    log q and log(1 - q).  Each point is solved from the form that carries its
    precision: c in the centre (|c| < 1/4), log min(q, 1 - q) in the tails."""
    shape = np.shape(c)
    c, log_q, log_1mq = (np.asarray(a, dtype=float).reshape(-1) for a in (c, log_q, log_1mq))
    x = np.empty_like(c)
    centre = np.abs(c) < _CENTRE
    x[centre] = _normal_centre_quantile(c[centre])
    tails = ~centre
    lower = c[tails] < 0.0
    z = _normal_tail_quantile(np.where(lower, log_q[tails], log_1mq[tails]))
    x[tails] = np.where(lower, -z, z)
    return x.reshape(shape)


def _normal_quantile_exp(log_q):
    """The normal quantile of q = exp(log_q), accurate for q near 0, 1/2 and 1."""
    log_q = np.asarray(log_q, dtype=float)
    # q - 1/2 = (exp(log q + ln 2) - 1)/2, with log q + ln 2 exact near q = 1/2
    c = 0.5 * np.expm1((log_q + _LN2_HI) + _LN2_LO)
    return _normal_quantile(c, log_q, np.log(-np.expm1(log_q)))


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
