"""Numerically stable evaluators for the symmetric log-location-scale baseline kernels.

Each kernel is a symmetric density f on the real line; the censored-data
likelihood consumes log f, log F(-u) and the five ratio functions
f/F(-u), f'/f, f''/f, f'/F(-u) built from it.  All functions accept
scalars or numpy arrays and are safe far into the tails (|u| up to a few
hundred) without catastrophic cancellation.

Only the normal and logistic kernels call into `scipy.special`, which is
imported on their first call: the t2 and sech kernels load no SciPy.
"""

from __future__ import annotations

import enum
import functools

import numpy as np


class Kernel(enum.Enum):
    NORMAL = "normal"
    LOGISTIC = "logistic"
    SECH = "sech"
    STUDENT_T2 = "t2"


_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
_SCIPY_KERNELS = frozenset({Kernel.NORMAL, Kernel.LOGISTIC})


@functools.cache
def _special():
    """`scipy.special`, imported on first use; later calls return the module
    without going through the import machinery."""
    from scipy import special
    return special


def _as_array(u):
    return np.asarray(u, dtype=float)


# ---------------------------------------------------------------------------
# log f

def log_f(u, kernel: Kernel):
    u = _as_array(u)
    if kernel is Kernel.NORMAL:
        out = -0.5 * u * u - _HALF_LOG_2PI
    elif kernel is Kernel.LOGISTIC:
        a = np.abs(u)
        out = -a - 2.0 * np.log1p(np.exp(-a))
    elif kernel is Kernel.SECH:
        x = np.abs(0.5 * np.pi * u)
        # log(0.5 sech x) = -x - log1p(exp(-2x))
        out = -x - np.log1p(np.exp(-2.0 * x))
    elif kernel is Kernel.STUDENT_T2:
        out = -1.5 * np.log(u * u + 2.0)
    else:
        raise ValueError(f"unknown kernel {kernel}")
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# log F(-u)

def _log_arctan_exp_neg(x):
    """log(arctan(exp(-x))) for x >= 0, stable for large x."""
    z = np.exp(-x)
    small = z < 1e-4
    with np.errstate(divide="ignore"):
        direct = np.log(np.arctan(z))
    series = -x + np.log1p(-z * z / 3.0)
    return np.where(small, series, direct)


def log_F_neg(u, kernel: Kernel):
    u = _as_array(u)
    if kernel is Kernel.NORMAL:
        out = _special().log_ndtr(-u)
    elif kernel is Kernel.LOGISTIC:
        # log F(-u) = -log(1 + e^u)
        out = -np.logaddexp(0.0, u)
    elif kernel is Kernel.SECH:
        x = 0.5 * np.pi * u
        pos = _log_arctan_exp_neg(np.where(u >= 0, x, 0.0)) + np.log(2.0 / np.pi)
        # u < 0: F(-u) = 1 - (2/pi) arctan(exp(x)), x <= 0
        neg = np.log1p(-(2.0 / np.pi) * np.exp(_log_arctan_exp_neg(np.where(u < 0, -x, 0.0))))
        out = np.where(u >= 0, pos, neg)
    elif kernel is Kernel.STUDENT_T2:
        s = np.sqrt(u * u + 2.0)
        # F(-u) = (1 - u/s)/2; for u >= 0 use 1 - u/s = 2/(s(s+u))
        pos = -np.log(s * (s + np.abs(u)))
        neg = np.log(0.5) + np.log1p(np.abs(u) / s)
        out = np.where(u >= 0, pos, neg)
    else:
        raise ValueError(f"unknown kernel {kernel}")
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# ratio functions (Supp-table closed forms, rearranged for stability)

def ratio_f_over_Fneg(u, kernel: Kernel):
    u = _as_array(u)
    if kernel is Kernel.NORMAL:
        # phi(u)/Phi(-u) = sqrt(2/pi) / erfcx(u/sqrt(2))
        out = np.sqrt(2.0 / np.pi) / _special().erfcx(u / np.sqrt(2.0))
    elif kernel is Kernel.LOGISTIC:
        out = _special().expit(u)
    elif kernel is Kernel.SECH:
        out = np.exp(log_f(u, kernel) - log_F_neg(u, kernel))
    elif kernel is Kernel.STUDENT_T2:
        s = np.sqrt(u * u + 2.0)
        out = np.where(u >= 0, (s + u) / (u * u + 2.0), 2.0 / ((u * u + 2.0) * (s + np.abs(u))))
    else:
        raise ValueError(f"unknown kernel {kernel}")
    return out if out.shape else float(out)


def ratio_fprime_over_f(u, kernel: Kernel):
    u = _as_array(u)
    if kernel is Kernel.NORMAL:
        out = -u
    elif kernel is Kernel.LOGISTIC:
        out = -np.tanh(0.5 * u)
    elif kernel is Kernel.SECH:
        out = -0.5 * np.pi * np.tanh(0.5 * np.pi * u)
    elif kernel is Kernel.STUDENT_T2:
        out = -3.0 * u / (u * u + 2.0)
    else:
        raise ValueError(f"unknown kernel {kernel}")
    return out if out.shape else float(out)


def ratio_fsecond_over_f(u, kernel: Kernel):
    u = _as_array(u)
    if kernel is Kernel.NORMAL:
        out = u * u - 1.0
    elif kernel is Kernel.LOGISTIC:
        out = 1.0 - 3.0 / (np.cosh(u) + 1.0)
    elif kernel is Kernel.SECH:
        # (pi^2/8)(cosh(pi u) - 3) sech^2(pi u / 2) == (pi^2/4)(1 - 2 sech^2(pi u / 2))
        sech2 = 1.0 / np.cosh(0.5 * np.pi * u) ** 2
        out = 0.25 * np.pi ** 2 * (1.0 - 2.0 * sech2)
    elif kernel is Kernel.STUDENT_T2:
        out = 6.0 * (2.0 * u * u - 1.0) / (u * u + 2.0) ** 2
    else:
        raise ValueError(f"unknown kernel {kernel}")
    return out if out.shape else float(out)


def ratio_fprime_over_Fneg(u, kernel: Kernel):
    # f'/F(-u) = (f'/f) * (f/F(-u)) for every family; the product of the two
    # stable forms is itself stable.
    out = _as_array(ratio_fprime_over_f(u, kernel)) * _as_array(ratio_f_over_Fneg(u, kernel))
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# quantile

def quantile(p, kernel: Kernel):
    p = _as_array(p)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("quantile requires 0 < p < 1")
    if kernel is Kernel.NORMAL:
        out = _special().ndtri(p)
    elif kernel is Kernel.LOGISTIC:
        out = _special().logit(p)
    elif kernel is Kernel.SECH:
        out = (2.0 / np.pi) * np.log(np.tan(0.5 * np.pi * p))
    elif kernel is Kernel.STUDENT_T2:
        s = 2.0 * p - 1.0
        out = s * np.sqrt(2.0) / np.sqrt(1.0 - s * s)
    else:
        raise ValueError(f"unknown kernel {kernel}")
    return out if out.shape else float(out)
