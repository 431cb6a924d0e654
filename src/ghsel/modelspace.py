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
    what depends on the codes alone (key, hazard class, active indices) is
    computed once per model per process.  A code vector is validated the
    first time it is built.
    """

    __slots__ = ("codes", "key", "hazard_class", "active")

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
                    ("active", tuple(j for j, c in enumerate(codes) if c != 0))):
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
        codes = list(self.codes)
        codes[j] = code
        return Gamma(tuple(codes))

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


def log_model_prior(gamma: Gamma) -> float:
    """Unnormalised log prior of a model, in closed form: Beta-Binomial(1, 1)
    inclusion (each size k of the active set equally likely, and each set of
    that size), equal mass for the four hazard classes on an active set, and
    for a GH model with k >= 2, equal mass for each number i = 0..k of code-3
    variables, shared by the GH models on the active set with that i."""
    k, p = gamma.n_active, gamma.p
    out = math.lgamma(1 + k) + math.lgamma(1 + p - k) - math.lgamma(2 + p)
    if gamma.hazard_class is HazardClass.GH and k >= 2:
        i = gamma.count(3)
        n_models = math.comb(k, i) * 2 ** (k - i) - (2 if i == 0 else 0)  # not all 1s or all 2s
        out -= math.log((k + 1) * n_models)
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
    """Indices a GH-state add/delete move may touch: j with c_j = 0, or whose
    deletion leaves a GH model or the null model.

    Deleting the last distinguishing code would silently land in AH/PH, whose
    own add/delete move could not return.  A lone code-3 variable is
    deletable: the resulting null state has its own dedicated reverse move.
    """
    if gamma.hazard_class is not HazardClass.GH:
        raise InvalidGammaError(f"get_valid_idx requires a GH state, got {gamma.key}")
    codes = gamma.codes
    return tuple(j for j, c in enumerate(codes) if c == 0 or _classify_codes(
        codes[:j] + (0,) + codes[j + 1:]) in (HazardClass.GH, HazardClass.NULL))
