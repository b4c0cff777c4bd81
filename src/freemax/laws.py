"""Parametric extreme-value laws, max-stability checks, and the f_c map.

The three free extreme-value types are the exponential law, the Pareto
law, and the negative-power Beta law on [-1, 0]; together, up to affine
reparametrization, they are exactly the generalized Pareto family.  Their
classical counterparts (Gumbel, Frechet, Weibull) are carried alongside
them so that the classical-to-free homomorphism u -> (1 + c ln u)_+ can
be exercised on both ends.  Only ``StdNormalCdf`` imports scipy (its
``ndtr``/``ndtri``), when it is constructed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from . import poisson
from .cdf import (
    Cdf,
    CdfError,
    FunctionCdf,
    _monotone_inf,
    comparison_grid,
    free_max_iterate,
    rescale,
    sup_distance,
)

__all__ = [
    "LawKind",
    "LawSpec",
    "StabilityConstants",
    "StabilityCheck",
    "GpdCorrespondence",
    "make_law",
    "f_c_map",
    "stability_constants",
    "verify_max_stable",
    "gpd_correspondence",
    "law_catalog",
    "standard_cauchy",
    "log_perturbed_pareto",
    "UniformCdf",
    "ExponentialCdf",
    "ParetoCdf",
    "BetaPowerCdf",
    "GpdCdf",
    "GumbelCdf",
    "FrechetCdf",
    "WeibullCdf",
    "StdNormalCdf",
    "FcCdf",
]


class LawKind(str, Enum):
    FREE_TYPE_I = "FreeTypeI"
    FREE_TYPE_II = "FreeTypeII"
    FREE_TYPE_III = "FreeTypeIII"
    GENERALIZED_PARETO = "GeneralizedPareto"
    CLASSICAL_GUMBEL = "ClassicalGumbel"
    CLASSICAL_FRECHET = "ClassicalFrechet"
    CLASSICAL_WEIBULL = "ClassicalWeibull"
    UNIFORM = "Uniform"
    STD_NORMAL = "StdNormal"
    MARCHENKO_PASTUR = "MarchenkoPastur"
    TRIANGULAR_PROCESS = "TriangularProcess"


_NEEDS_POSITIVE_SHAPE = {
    LawKind.FREE_TYPE_II,
    LawKind.FREE_TYPE_III,
    LawKind.CLASSICAL_FRECHET,
    LawKind.CLASSICAL_WEIBULL,
}


def _finite_float(value, name: str) -> float:
    """A law parameter from JSON as a finite float, else ``CdfError``."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise CdfError(f"law {name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise CdfError(f"law {name} must be finite, got {value!r}")
    return number


@dataclass(frozen=True)
class LawSpec:
    """Parametric law descriptor; serializes as {kind, shape, location, scale}."""

    kind: LawKind
    shape: Optional[float] = None
    location: float = 0.0
    scale: float = 1.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind.value,
                "shape": self.shape,
                "location": self.location,
                "scale": self.scale,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "LawSpec":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CdfError(f"invalid law JSON: {exc}") from exc
        if not isinstance(raw, dict) or "kind" not in raw:
            raise CdfError("law JSON must be an object with a 'kind' field")
        try:
            kind = LawKind(raw["kind"])
        except ValueError as exc:
            raise CdfError(f"unknown law kind {raw['kind']!r}") from exc
        shape = raw.get("shape")
        return cls(
            kind=kind,
            shape=None if shape is None else _finite_float(shape, "shape"),
            location=_finite_float(raw.get("location", 0.0), "location"),
            scale=_finite_float(raw.get("scale", 1.0), "scale"),
        )


# ----------------------------------------------------------------------
# canonical laws
# ----------------------------------------------------------------------
class UniformCdf(Cdf):
    def __init__(self, lo: float = 0.0, hi: float = 1.0):
        super().__init__()
        if not hi > lo:
            raise CdfError("uniform law needs hi > lo")
        self.lo = float(lo)
        self.hi = float(hi)
        self.width = self.hi - self.lo
        self._alpha_cache = self.lo
        self._omega_cache = self.hi

    def _value(self, x):
        return np.clip((x - self.lo) / self.width, 0.0, 1.0)

    def _tail(self, x):
        return np.clip((self.hi - x) / self.width, 0.0, 1.0)

    # affine arguments folded into the endpoint differences: keeps
    # (hi - b) exact when b is the endpoint itself, avoiding the
    # cancellation that an explicit a*x + b intermediate would cause
    def _value_affine(self, a, b, x):
        return np.clip(((b - self.lo) + a * x) / self.width, 0.0, 1.0)

    def _tail_affine(self, a, b, x):
        return np.clip(((self.hi - b) - a * x) / self.width, 0.0, 1.0)

    def _tail_gap(self, h):
        return np.clip(h / self.width, 0.0, 1.0)

    def _quantile(self, p):
        return self.lo + p * self.width


class ExponentialCdf(Cdf):
    """Standard exponential: the canonical free Type I law."""

    def __init__(self):
        super().__init__()
        self._alpha_cache = 0.0
        self._omega_cache = math.inf

    def _value(self, x):
        return np.where(x <= 0.0, 0.0, -np.expm1(-np.maximum(x, 0.0)))

    def _tail(self, x):
        return np.where(x <= 0.0, 1.0, np.exp(-np.maximum(x, 0.0)))

    def _quantile(self, p):
        return -np.log1p(-p)


class ParetoCdf(Cdf):
    """Pareto law 1 - x^(-alpha) on [1, inf): the canonical free Type II."""

    def __init__(self, alpha: float):
        super().__init__()
        if not alpha > 0:
            raise CdfError("Pareto shape must be positive")
        self.shape = float(alpha)
        self._alpha_cache = 1.0
        self._omega_cache = math.inf

    def _value(self, x):
        safe = np.maximum(x, 1.0)
        return np.where(x <= 1.0, 0.0, -np.expm1(-self.shape * np.log(safe)))

    def _tail(self, x):
        safe = np.maximum(x, 1.0)
        return np.where(x <= 1.0, 1.0, safe ** (-self.shape))

    def _quantile(self, p):
        with np.errstate(divide="ignore"):
            return np.exp(-np.log1p(-p) / self.shape)


class BetaPowerCdf(Cdf):
    """Beta-type law 1 - |x|^alpha on [-1, 0]: the canonical free Type III."""

    def __init__(self, alpha: float):
        super().__init__()
        if not alpha > 0:
            raise CdfError("Beta-power shape must be positive")
        self.shape = float(alpha)
        self._alpha_cache = -1.0
        self._omega_cache = 0.0

    def _tail(self, x):
        return np.clip(np.abs(np.minimum(x, 0.0)) ** self.shape, 0.0, 1.0)

    def _tail_gap(self, h):
        return np.clip(np.maximum(h, 0.0) ** self.shape, 0.0, 1.0)

    def _quantile(self, p):
        return -((1.0 - p) ** (1.0 / self.shape))


class GpdCdf(Cdf):
    """Standard generalized Pareto law with shape gamma (exponential at 0)."""

    def __init__(self, gamma: float):
        super().__init__()
        self.gamma = float(gamma)
        self._alpha_cache = 0.0
        self._omega_cache = math.inf if self.gamma >= 0 else 1.0 / abs(self.gamma)

    def _log_tail(self, x):
        g = self.gamma
        xp = np.maximum(x, 0.0)
        if g == 0.0:
            return -xp
        arg = np.maximum(1.0 + g * xp, 0.0)
        with np.errstate(divide="ignore"):
            return np.where(arg > 0.0, -np.log(arg) / g, -math.inf)

    def _tail(self, x):
        return np.where(x <= 0.0, 1.0, np.exp(self._log_tail(x)))

    def _value(self, x):
        return np.where(x <= 0.0, 0.0, -np.expm1(self._log_tail(x)))

    def _quantile(self, p):
        if self.gamma == 0.0:
            return -np.log1p(-p)
        with np.errstate(divide="ignore", over="ignore"):
            return np.expm1(-self.gamma * np.log1p(-p)) / self.gamma


class GumbelCdf(Cdf):
    def __init__(self):
        super().__init__()
        self._alpha_cache = -math.inf
        self._omega_cache = math.inf

    def _value(self, x):
        return np.exp(-np.exp(-x))

    def _tail(self, x):
        return -np.expm1(-np.exp(-x))

    def _quantile(self, p):
        with np.errstate(divide="ignore"):
            return -np.log(-np.log(p))


class FrechetCdf(Cdf):
    def __init__(self, alpha: float):
        super().__init__()
        if not alpha > 0:
            raise CdfError("Frechet shape must be positive")
        self.shape = float(alpha)
        self._alpha_cache = 0.0
        self._omega_cache = math.inf

    def _value(self, x):
        safe = np.maximum(x, 1e-300)
        with np.errstate(over="ignore"):
            return np.where(x <= 0.0, 0.0, np.exp(-(safe ** (-self.shape))))

    def _tail(self, x):
        safe = np.maximum(x, 1e-300)
        with np.errstate(over="ignore"):
            return np.where(x <= 0.0, 1.0, -np.expm1(-(safe ** (-self.shape))))

    def _quantile(self, p):
        with np.errstate(divide="ignore"):
            return (-np.log(p)) ** (-1.0 / self.shape)


class WeibullCdf(Cdf):
    """Classical (reverse) Weibull extreme-value law on (-inf, 0]."""

    def __init__(self, alpha: float):
        super().__init__()
        if not alpha > 0:
            raise CdfError("Weibull shape must be positive")
        self.shape = float(alpha)
        self._omega_cache = 0.0

    def _solve_alpha(self):
        return -math.inf

    def _value(self, x):
        neg = np.minimum(x, 0.0)
        return np.where(x >= 0.0, 1.0, np.exp(-(np.abs(neg) ** self.shape)))

    def _tail(self, x):
        neg = np.minimum(x, 0.0)
        return np.where(x >= 0.0, 0.0, -np.expm1(-(np.abs(neg) ** self.shape)))

    def _quantile(self, p):
        with np.errstate(divide="ignore"):
            return -((-np.log(p)) ** (1.0 / self.shape))


class StdNormalCdf(Cdf):
    def __init__(self):
        from scipy.special import ndtr, ndtri

        super().__init__()
        self._ndtr, self._ndtri = ndtr, ndtri
        self._alpha_cache = -math.inf
        self._omega_cache = math.inf

    def _value(self, x):
        return self._ndtr(x)

    def _tail(self, x):
        return self._ndtr(-x)

    def _quantile(self, p):
        return self._ndtri(p)


def standard_cauchy() -> Cdf:
    """Standard Cauchy law; its tail ~ 1/(pi x) is -1-regularly varying."""

    def value_fn(x):
        return 0.5 + np.arctan(x) / math.pi

    def tail_fn(x):
        pos = np.maximum(x, 0.0)
        with np.errstate(divide="ignore"):
            upper = np.arctan(1.0 / np.maximum(pos, 1e-300)) / math.pi
        return np.where(x > 0.0, upper, 0.5 - np.arctan(x) / math.pi)

    def quantile_fn(p):
        return np.tan(math.pi * (p - 0.5))

    return FunctionCdf(value_fn, tail_fn=tail_fn, quantile_fn=quantile_fn)


def log_perturbed_pareto(alpha: float = 2.0) -> Cdf:
    """Law with tail x^(-alpha) / (1 + ln x) on [1, inf).

    The logarithm is a slowly varying perturbation, so the tail is still
    -alpha-regularly varying but the law is not an exact fixed point.
    """
    if not alpha > 0:
        raise CdfError("shape must be positive")

    def tail_fn(x):
        safe = np.maximum(x, 1.0)
        return np.where(x <= 1.0, 1.0, safe ** (-alpha) / (1.0 + np.log(safe)))

    return FunctionCdf(tail_fn=tail_fn, alpha=1.0, omega=math.inf)


_CANONICAL = {
    LawKind.FREE_TYPE_I: lambda shape: ExponentialCdf(),
    LawKind.FREE_TYPE_II: lambda shape: ParetoCdf(shape),
    LawKind.FREE_TYPE_III: lambda shape: BetaPowerCdf(shape),
    LawKind.GENERALIZED_PARETO: lambda shape: GpdCdf(shape),
    LawKind.CLASSICAL_GUMBEL: lambda shape: GumbelCdf(),
    LawKind.CLASSICAL_FRECHET: lambda shape: FrechetCdf(shape),
    LawKind.CLASSICAL_WEIBULL: lambda shape: WeibullCdf(shape),
    LawKind.UNIFORM: lambda shape: UniformCdf(),
    LawKind.STD_NORMAL: lambda shape: StdNormalCdf(),
    # looked up on the module at call time, so a wrapper installed there applies
    LawKind.MARCHENKO_PASTUR: lambda shape: poisson.mp_cdf(1.0 if shape is None else shape),
    LawKind.TRIANGULAR_PROCESS: lambda shape: poisson.triangular_law_cdf(
        1.0 if shape is None else shape),
}


def make_law(spec: LawSpec) -> Cdf:
    """Build the CDF described by a LawSpec (canonical law, then affine)."""
    kind = LawKind(spec.kind)
    shape = spec.shape
    if kind in _NEEDS_POSITIVE_SHAPE:
        if shape is None or not shape > 0:
            raise CdfError(f"{kind.value} requires a positive shape")
    if kind is LawKind.GENERALIZED_PARETO:
        if shape is None:
            raise CdfError("GeneralizedPareto requires a shape (gamma)")
    if not spec.scale > 0:
        raise CdfError("scale must be positive")
    law = _CANONICAL[kind](shape)
    if spec.location == 0.0 and spec.scale == 1.0:
        return law
    # F((x - location)/scale) as an inner affine map
    return rescale(law, 1.0 / spec.scale, -spec.location / spec.scale)


# ----------------------------------------------------------------------
# the classical -> free homomorphism
# ----------------------------------------------------------------------
class FcCdf(Cdf):
    """Image of a CDF under u -> (1 + c ln u)_+, with f_c(0) = 0."""

    def __init__(self, parent: Cdf, c: float):
        super().__init__()
        if not c > 0:
            raise CdfError("f_c requires c > 0")
        self.parent = parent
        self.c = float(c)
        self._omega_cache = parent.omega

    def _solve_alpha(self):
        # f_c(F(x)) = 0 exactly when F(x) <= exp(-1/c)
        cut = math.exp(-1.0 / self.c)
        return _monotone_inf(
            lambda t: self.parent.value(t) > cut,
            self.parent.quantile(0.25) - 1.0,
            self.parent.quantile(0.75) + 1.0,
        )

    def _image_tail(self, parent_tail):
        # 1 - (1 + c ln F)_+ = min(c * (-ln F), 1), through the parent tail
        with np.errstate(divide="ignore", invalid="ignore"):
            neg_log = -np.log1p(-np.minimum(parent_tail, 1.0))
        neg_log = np.where(parent_tail >= 1.0, math.inf, neg_log)
        return np.minimum(self.c * neg_log, 1.0)

    def _tail(self, x):
        return self._image_tail(self.parent._tail(x))

    def _left(self, x):
        return 1.0 - self._image_tail(1.0 - self.parent._left(x))


def f_c_map(f: Cdf, c: float) -> Cdf:
    """Apply the semigroup homomorphism u -> (1 + c ln u)_+ to a CDF.

    It carries pointwise products of CDFs to upper free convolutions, and
    at c = 1 maps each classical extreme-value law onto its free type.
    """
    return FcCdf(f, c)


# ----------------------------------------------------------------------
# max-stability
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StabilityConstants:
    """Closed-form rescaling that undoes the s-fold free max power.

    a(s) = s^theta with theta = 1/alpha, 0, -1/alpha for types II, I, III;
    the drift constant c is the affine fixed point (Type I: unit scale).
    """

    s: float
    a_of_s: float
    b_of_s: float
    theta: float
    c: float


def stability_constants(kind: LawKind, alpha: Optional[float], s: float) -> StabilityConstants:
    """Constants with power(G, s) composed with rescale(., a, b) equal to G."""
    if not s >= 1.0:
        raise CdfError("stability constants require s >= 1")
    kind = LawKind(kind)
    if kind is LawKind.FREE_TYPE_I:
        return StabilityConstants(s, 1.0, math.log(s), 0.0, 1.0)
    if kind is LawKind.FREE_TYPE_II:
        if alpha is None or not alpha > 0:
            raise CdfError("Type II needs a positive shape")
        theta = 1.0 / alpha
        return StabilityConstants(s, s**theta, 0.0, theta, 0.0)
    if kind is LawKind.FREE_TYPE_III:
        if alpha is None or not alpha > 0:
            raise CdfError("Type III needs a positive shape")
        theta = -1.0 / alpha
        return StabilityConstants(s, s**theta, 0.0, theta, 0.0)
    raise CdfError(f"{kind.value} is not a free extreme-value type")


class StabilityCheck(NamedTuple):
    stable: bool
    a: float
    b: float
    sup_distance: float


def verify_max_stable(
    g: Cdf, k: int, tol: float = 1e-9, grid: Optional[np.ndarray] = None
) -> StabilityCheck:
    """Fit (a_k, b_k) by quartile matching and test G^(k)(a x + b) = G.

    The affine fit matches the p = 1/4 and p = 3/4 quantiles of the k-fold
    iterate against G; when G really is max-stable the two-point fit is
    exact and the grid check confirms it.  A law whose support is
    unbounded below is rejected immediately (stable laws cannot have one),
    but the fitted distance is still reported for diagnostics.
    """
    k = int(k)
    if k < 2:
        raise CdfError("stability check needs k >= 2")
    x1, x3 = g.quantile(0.25), g.quantile(0.75)
    if x1 >= x3:
        raise CdfError("degenerate law: max-stability is vacuous for a point mass")
    iterate = free_max_iterate(g, k)
    y1, y3 = iterate.quantile(0.25), iterate.quantile(0.75)
    a = (y3 - y1) / (x3 - x1)
    b = y1 - a * x1
    if not a > 0:
        return StabilityCheck(False, a, b, 1.0)
    composed = rescale(iterate, a, b)
    if grid is None:
        grid = comparison_grid(g)
    dist = sup_distance(composed, g, grid)
    bounded_below = math.isfinite(g.alpha)
    return StabilityCheck(bool(bounded_below and dist <= tol), a, b, dist)


class GpdCorrespondence(NamedTuple):
    kind: LawKind
    alpha: Optional[float]
    a: float
    b: float


def gpd_correspondence(gamma: float) -> GpdCorrespondence:
    """Free type and affine map with GPD(gamma) = rescale(type law, a, b)."""
    gamma = float(gamma)
    if gamma > 0:
        return GpdCorrespondence(LawKind.FREE_TYPE_II, 1.0 / gamma, gamma, 1.0)
    if gamma == 0.0:
        return GpdCorrespondence(LawKind.FREE_TYPE_I, None, 1.0, 0.0)
    return GpdCorrespondence(LawKind.FREE_TYPE_III, -1.0 / gamma, -gamma, -1.0)


def law_catalog() -> dict[str, Cdf]:
    """Named proper CDFs used by homomorphism and attraction test sweeps."""
    return {
        "gumbel": GumbelCdf(),
        "frechet_1": FrechetCdf(1.0),
        "frechet_2": FrechetCdf(2.0),
        "weibull_1": WeibullCdf(1.0),
        "weibull_2": WeibullCdf(2.0),
        "uniform": UniformCdf(),
        "std_normal": StdNormalCdf(),
        "exponential": ExponentialCdf(),
        "pareto_2": ParetoCdf(2.0),
        "gpd_half": GpdCdf(0.5),
        "cauchy": standard_cauchy(),
    }
