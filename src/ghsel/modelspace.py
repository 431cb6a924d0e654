"""Model indicators, hazard-structure classification and the model-space prior.

A model is a vector of per-variable role codes in {0,1,2,3,4}:
0 excluded, 1 time-level effect, 2 hazard-level effect, 3 both effects at
different scales, 4 both effects tied at the same scale.  Code 4 is only
valid when every included variable carries it (a pure accelerated-failure
model), so the total number of models over p variables is 4^p + 2^p - 1.
"""

from __future__ import annotations

import enum
import itertools
import math
ENUMERATION_CAP = 8
# The model-space prior, fixed by the method: Beta-Binomial(BETA_A, BETA_B)
# inclusion, equal weights on the four hazard classes, and the GH effect-count
# correction at EFFECT_Q.
BETA_A = BETA_B = 1.0
EFFECT_Q = 1.0 / 3.0


class HazardClass(enum.Enum):
    NULL = "Null"
    AH = "AH"
    PH = "PH"
    AFT = "AFT"
    GH = "GH"


class InvalidGammaError(ValueError):
    pass


_MODELS: dict = {}  # code vector -> its Gamma, every model built in this process


class Gamma:
    """One model: a role code per variable.

    Models are interned: building a code vector built before returns the same
    object, so two models are equal only if they are the same object, and
    what depends on the codes alone (key, hazard class, active and valid
    add/delete indices, the models one code away) is computed once per model
    per process.  A code vector is validated the first time it is built.
    """

    __slots__ = ("codes", "key", "hazard_class", "active", "_valid_idx", "_replaced")

    def __new__(cls, codes):
        try:
            return _MODELS[codes]
        except (KeyError, TypeError):
            pass
        codes = tuple(int(c) for c in codes)
        model = _MODELS.get(codes)
        if model is None:
            _validate(codes)
            model = object.__new__(cls)
            for name, value in (
                    ("codes", codes), ("key", "".join(map(str, codes))),
                    ("hazard_class", _classify_codes(codes)),
                    ("active", tuple(j for j, c in enumerate(codes) if c != 0)),
                    ("_valid_idx", _valid_idx(codes)), ("_replaced", {})):
                object.__setattr__(model, name, value)
            model = _MODELS.setdefault(codes, model)
        return model

    def __setattr__(self, name, value):
        raise AttributeError(f"Gamma is immutable (setting {name!r})")

    def __reduce__(self):
        return Gamma, (self.codes,)

    @classmethod
    def from_key(cls, key: str) -> "Gamma":
        return cls(tuple(int(ch) for ch in key))

    @property
    def p(self) -> int:
        return len(self.codes)

    def count(self, code: int) -> int:
        return self.codes.count(code)

    @property
    def n_active(self) -> int:
        return len(self.active)

    def replace(self, j: int, code: int) -> "Gamma":
        try:
            return self._replaced[j, code]
        except KeyError:
            codes = list(self.codes)
            codes[j] = code
            return self._replaced.setdefault((j, code), Gamma(tuple(codes)))

    def __repr__(self):
        return f"Gamma(codes={self.codes!r})"

    def __str__(self):
        return self.key


def _validate(codes: tuple):
    if not codes:
        raise InvalidGammaError("empty code vector")
    if any(c < 0 or c > 4 for c in codes):
        raise InvalidGammaError(f"codes must lie in 0..4, got {codes}")
    if any(c == 4 for c in codes) and any(c in (1, 2, 3) for c in codes):
        raise InvalidGammaError(f"code 4 cannot coexist with 1/2/3: {codes}")


_SINGLE_CODE_CLASS = {1: HazardClass.AH, 2: HazardClass.PH, 4: HazardClass.AFT}


def _classify_codes(codes: tuple) -> HazardClass:
    nonzero = set(codes) - {0}
    if not nonzero:
        return HazardClass.NULL
    if len(nonzero) == 1:
        return _SINGLE_CODE_CLASS.get(nonzero.pop(), HazardClass.GH)
    return HazardClass.GH


def classify(gamma: Gamma) -> HazardClass:
    return gamma.hazard_class


def effect_count(gamma: Gamma) -> int:
    """Number of effects: included variables plus one extra per code-3 variable."""
    return gamma.n_active + gamma.count(3)


def _log_binom_pmf(k: int, n: int, q: float) -> float:
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(q) + (n - k) * math.log1p(-q)
    )


def _gh_effect_log_weight(n_active: int, omega: int) -> float:
    """Log of the inverse-probability effect-count factor for GH models, |active| > 1.

    The weight divides out the Binomial(|active|, EFFECT_Q) profile of omega
    (with the finite-count correction at omega == |active|) and is normalised
    against the number of models at each omega, so the total class mass at a
    fixed active set stays equal to the single-structure classes.  At
    EFFECT_Q = 1/3 the weight is exactly uniform over omega and uniform within
    each omega.
    """
    k = n_active

    def corrected(i: int) -> float:
        corr = (1.0 - 2.0 ** (1 - k)) if i == 0 else 1.0
        return _log_binom_pmf(i, k, EFFECT_Q) + math.log(corr)

    def log_count(i: int) -> float:
        # models with i extra code-3 variables on a fixed active set of size k
        c = math.comb(k, i) * 2 ** (k - i) - (2 if i == 0 else 0)
        return math.log(c)

    terms = [log_count(i) - corrected(i) for i in range(k + 1)]
    m = max(terms)
    log_norm = math.log(sum(math.exp(v - m) for v in terms)) + m
    return -corrected(omega - k) - log_norm + math.log(3 ** k - 2)


def log_model_prior(gamma: Gamma) -> float:
    """Unnormalised log prior over the model space (Beta-Binomial inclusion,
    hazard-class multiplicity correction, GH effect-count correction)."""
    n_act = gamma.n_active
    p0 = gamma.p - n_act
    out = (
        math.lgamma(BETA_A + n_act) + math.lgamma(BETA_B + p0)
        - math.lgamma(BETA_A + n_act + BETA_B + p0)
    )
    if classify(gamma) is not HazardClass.GH:
        return out
    out -= math.log(3 ** n_act - 2)
    if n_act > 1:
        out += _gh_effect_log_weight(n_act, effect_count(gamma))
    return out


def enumerate_models(p: int, cap: int = ENUMERATION_CAP):
    """Yield every valid model over p variables exactly once (4^p + 2^p - 1)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if p > cap:
        raise ValueError(f"enumeration over p={p} exceeds cap {cap}")
    for codes in itertools.product((0, 1, 2, 3), repeat=p):
        yield Gamma(codes)
    for codes in itertools.product((0, 4), repeat=p):
        if any(c == 4 for c in codes):
            yield Gamma(codes)


def get_valid_idx(gamma: Gamma) -> tuple:
    """Indices a GH-state add/delete move may touch without leaving the GH class.

    Deleting the last distinguishing code would silently land in AH/PH, whose
    own add/delete move could not return; the filter removes those indices.
    A lone code-3 variable is deletable: the resulting null state has its own
    dedicated reverse move.
    """
    if gamma.hazard_class is not HazardClass.GH:
        raise InvalidGammaError(f"get_valid_idx requires a GH state, got {gamma.key}")
    return gamma._valid_idx


def _valid_idx(codes: tuple) -> tuple | None:
    """`get_valid_idx` of a GH code vector, None for any other class."""
    if _classify_codes(codes) is not HazardClass.GH:
        return None
    p1 = codes.count(1)
    p2 = codes.count(2)
    p3 = codes.count(3)
    if p3 == 1:
        remaining = tuple(c for c in codes if c != 3)
        rem_cls = _classify_codes(remaining)
        if rem_cls in (HazardClass.AH, HazardClass.PH):
            return tuple(j for j, c in enumerate(codes) if c != 3)
    if p3 == 0 and p1 > 1 and p2 == 1:
        return tuple(j for j, c in enumerate(codes) if c != 2)
    if p3 == 0 and p2 > 1 and p1 == 1:
        return tuple(j for j, c in enumerate(codes) if c != 1)
    if p3 == 0 and p1 == 1 and p2 == 1:
        return tuple(j for j, c in enumerate(codes) if c == 0)
    return tuple(range(len(codes)))
