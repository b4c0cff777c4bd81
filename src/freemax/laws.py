"""Parametric extreme-value laws, max-stability checks, and the f_c map.

The three free extreme-value types are the exponential law, the Pareto
law, and the negative-power Beta law on [-1, 0]; together, up to affine
reparametrization, they are exactly the generalized Pareto family.  Their
classical counterparts (Gumbel, Frechet, Weibull) are carried alongside
them so that the classical-to-free homomorphism u -> (1 + c ln u)_+ can
be exercised on both ends.  The canonical laws but Frechet and Weibull
give the mean excess its tail integral in closed form (``_tail_integral``;
the Gumbel law at and above its mode).
Only ``StdNormalCdf`` imports scipy (its ``ndtr``/``ndtri``), when it is
constructed.
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
    _order,
    _real,
    _windows_about,
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
        except (json.JSONDecodeError, RecursionError) as exc:
            raise CdfError(f"invalid law JSON: {exc}") from exc
        if not isinstance(raw, dict) or "kind" not in raw:
            raise CdfError("law JSON must be an object with a 'kind' field")
        try:
            kind = LawKind(raw["kind"])
        except ValueError as exc:
            raise CdfError(f"unknown law kind {raw['kind']!r}") from exc
        # a JSON number, not a boolean or a string that spells one
        shape = raw.get("shape")
        return cls(
            kind=kind,
            shape=None if shape is None else _real(shape, "law shape", -math.inf),
            location=_real(raw.get("location", 0.0), "law location", -math.inf),
            scale=_real(raw.get("scale", 1.0), "law scale", -math.inf),
        )


# ----------------------------------------------------------------------
# canonical laws
# ----------------------------------------------------------------------
def _endpoint_gap(omega: float, a: float, b: float, t: float) -> float:
    """omega - (a t + b) in exact rationals, rounded once.  The mean excess
    of a law with a power tail at a finite endpoint is proportional to this
    gap, which the float form loses to cancellation near the endpoint."""
    from fractions import Fraction

    return float(Fraction(omega) - Fraction(b) - Fraction(a) * Fraction(t))


class UniformCdf(Cdf):
    """Uniform law on [0, 1]; other intervals are its ``rescale`` images."""

    def __init__(self):
        super().__init__()
        self._alpha_cache = 0.0
        self._omega_cache = 1.0

    def _value(self, x):
        return np.clip(x, 0.0, 1.0)

    def _tail(self, x):
        return np.clip(1.0 - x, 0.0, 1.0)

    # the affine argument folded into the gap to the endpoint: (1 - b) is
    # exact when b is the endpoint itself, where 1 - (a x + b) would cancel
    def _tail_affine(self, a, b, x):
        return np.clip((1.0 - b) - a * x, 0.0, 1.0)

    def _tail_integral(self, t):
        return self._tail_integral_affine(1.0, 0.0, t)

    def _tail_integral_affine(self, a, b, t):
        gap = _endpoint_gap(1.0, a, b, t)
        if gap > 1.0:
            return gap - 0.5
        return float(self._tail_affine(a, b, np.array([t]))[0]) * gap / 2.0

    def _quantile(self, p):
        return p


class ParetoCdf(Cdf):
    """Pareto law 1 - x^(-alpha) on [1, inf): the canonical free Type II."""

    def __init__(self, alpha: float):
        super().__init__()
        self.shape = _real(alpha, "Pareto shape")
        self._alpha_cache = 1.0
        self._omega_cache = math.inf

    def _value(self, x):
        return np.where(x <= 1.0, 0.0, -np.expm1(-self.shape * np.log(x)))

    def _tail(self, x):
        return np.where(x <= 1.0, 1.0, x ** (-self.shape))

    def _tail_integral(self, t):
        if self.shape <= 1.0:
            return math.inf
        if t < 1.0:
            return (1.0 - t) + 1.0 / (self.shape - 1.0)
        return self.tail(t) * t / (self.shape - 1.0)

    def _quantile(self, p):
        return np.exp(-np.log1p(-p) / self.shape)


class BetaPowerCdf(Cdf):
    """Beta-type law 1 - |x|^alpha on [-1, 0]: the canonical free Type III."""

    def __init__(self, alpha: float):
        super().__init__()
        self.shape = _real(alpha, "Beta-power shape")
        self._alpha_cache = -1.0
        self._omega_cache = 0.0

    def _tail(self, x):
        return np.abs(np.clip(x, -1.0, 0.0)) ** self.shape

    def _tail_integral(self, t):
        return self._tail_integral_affine(1.0, 0.0, t)

    def _tail_integral_affine(self, a, b, t):
        gap = _endpoint_gap(0.0, a, b, t)
        if gap > 1.0:
            return (gap - 1.0) + 1.0 / (self.shape + 1.0)
        return float(self._tail_affine(a, b, np.array([t]))[0]) * gap / (self.shape + 1.0)

    def _quantile(self, p):
        return -((1.0 - p) ** (1.0 / self.shape))


class GpdCdf(Cdf):
    """Standard generalized Pareto law with shape gamma; at gamma = 0 the
    standard exponential, which is the canonical free Type I law."""

    def __init__(self, gamma: float):
        super().__init__()
        self.gamma = _real(gamma, "GPD shape", -math.inf)
        self._alpha_cache = 0.0
        self._omega_cache = math.inf if self.gamma >= 0 else 1.0 / abs(self.gamma)

    def _log_tail(self, x):
        g = self.gamma
        if g == 0.0:
            return -x
        # arg is 0 at and past the endpoint, where the log tail is -inf; NaN stays NaN
        arg = np.maximum(1.0 + g * x, 0.0)
        return np.where(arg == 0.0, -math.inf, -np.log(arg) / g)

    def _tail(self, x):
        return np.where(x <= 0.0, 1.0, np.exp(self._log_tail(x)))

    def _value(self, x):
        return np.where(x <= 0.0, 0.0, -np.expm1(self._log_tail(x)))

    def _tail_integral(self, t):
        g = self.gamma
        if g >= 1.0:
            return math.inf
        if t < 0.0:
            return 1.0 / (1.0 - g) - t
        # the tail times the mean excess (1 + g t)/(1 - g), which is the
        # tail itself at g = 0; below zero shape 1 + g t is |g| times the
        # gap to the endpoint, which does not cancel near it
        rise = 1.0 + g * t if g >= 0.0 else -g * (self.omega - t)
        return self.tail(t) * rise / (1.0 - g)

    def _quantile(self, p):
        if self.gamma == 0.0:
            return -np.log1p(-p)
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

    def _tail_integral(self, t):
        # Ein(z) at z = exp(-t) (DLMF 6.6.4), as the tail 1 - exp(-z) times
        # the mean excess 1 + (Ein(z) - 1 + exp(-z)) / (1 - exp(-z)); the
        # difference is the series -sum (-1)^(k+1) z^k (k - 1) / (k k!),
        # whose first term dominates for z <= 1 and whose 20th is below
        # 1e-19 of the sum there
        if t < 0.0:
            return None
        z = math.exp(-t)
        tail = self.tail(t)
        terms, power = [], z * z / 2.0  # power = (-1)^k z^k / k!
        for k in range(2, 22):
            terms.append(power * (k - 1) / k)
            power *= -z / (k + 1)
        return tail * (1.0 + math.fsum(terms) / tail)

    def _quantile(self, p):
        return -np.log(-np.log(p))


class FrechetCdf(Cdf):
    def __init__(self, alpha: float):
        super().__init__()
        self.shape = _real(alpha, "Frechet shape")
        self._alpha_cache = 0.0
        self._omega_cache = math.inf

    def _value(self, x):
        return np.where(x <= 0.0, 0.0, np.exp(-(x ** (-self.shape))))

    def _tail(self, x):
        return np.where(x <= 0.0, 1.0, -np.expm1(-(x ** (-self.shape))))

    def _quantile(self, p):
        return (-np.log(p)) ** (-1.0 / self.shape)


class WeibullCdf(Cdf):
    """Classical (reverse) Weibull extreme-value law on (-inf, 0]."""

    def __init__(self, alpha: float):
        super().__init__()
        self.shape = _real(alpha, "Weibull shape")
        self._alpha_cache = -math.inf
        self._omega_cache = 0.0

    def _value(self, x):
        return np.where(x >= 0.0, 1.0, np.exp(-(np.abs(x) ** self.shape)))

    def _tail(self, x):
        return np.where(x >= 0.0, 0.0, -np.expm1(-(np.abs(x) ** self.shape)))

    def _quantile(self, p):
        return -((-np.log(p)) ** (1.0 / self.shape))


_SQRT_2PI = math.sqrt(2.0 * math.pi)


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

    def _tail_integral(self, t):
        # phi(t) - t Phibar(t).  From t = 1 up that difference cancels, and
        # it is the tail times the mean excess 1/R(t) - t, R = Phibar/phi
        # the Mills ratio, taken from Laplace's continued fraction
        # 1/R = t + 1/(t + 2/(t + 3/(t + ...))) (DLMF 7.9.2 at z = t/sqrt 2),
        # summed from the last of enough terms that the truncation is
        # below 1e-17 of the mean excess.  1/R - t from erfcx would lose
        # t^2 ulps to the cancellation.
        tail = self.tail(t)
        if t < 1.0:
            return math.exp(-0.5 * t * t) / _SQRT_2PI - t * tail
        rest = 0.0
        for k in range(int(800.0 / (t * t)) + 10, 1, -1):
            rest = k / (t + rest)
        return tail / (t + rest)

    def _quantile(self, p):
        return self._ndtri(p)


def standard_cauchy() -> Cdf:
    """Standard Cauchy law; its tail ~ 1/(pi x) is -1-regularly varying."""

    def value_fn(x):
        return 0.5 + np.arctan(x) / math.pi

    def tail_fn(x):
        return np.where(x > 0.0, np.arctan(1.0 / x) / math.pi, 0.5 - np.arctan(x) / math.pi)

    def quantile_fn(p):
        return np.tan(math.pi * (p - 0.5))

    return FunctionCdf(value_fn, tail_fn=tail_fn, quantile_fn=quantile_fn)


def log_perturbed_pareto(alpha: float = 2.0) -> Cdf:
    """Law with tail x^(-alpha) / (1 + ln x) on [1, inf).

    The logarithm is a slowly varying perturbation, so the tail is still
    -alpha-regularly varying but the law is not an exact fixed point.
    """
    alpha = _real(alpha, "log-perturbed Pareto shape")

    def tail_fn(x):
        return np.where(x <= 1.0, 1.0, x ** (-alpha) / (1.0 + np.log(x)))

    return FunctionCdf(tail_fn=tail_fn, alpha=1.0, omega=math.inf)


_CANONICAL = {
    LawKind.FREE_TYPE_I: lambda shape: GpdCdf(0.0),
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
    scale = _real(spec.scale, "law scale")
    kind = LawKind(spec.kind)
    try:
        law = _CANONICAL[kind](spec.shape)  # the constructor checks the shape
    except CdfError as err:
        raise CdfError(f"{kind.value}: {err}") from err
    if spec.location == 0.0 and scale == 1.0:
        return law
    # F((x - location)/scale) as an inner affine map
    return rescale(law, 1.0 / scale, -spec.location / scale)


# ----------------------------------------------------------------------
# the classical -> free homomorphism
# ----------------------------------------------------------------------
class FcCdf(Cdf):
    """Image of a CDF under u -> (1 + c ln u)_+, with f_c(0) = 0."""

    def __init__(self, parent: Cdf, c: float):
        super().__init__()
        self.parent = parent
        self.c = _real(c, "f_c parameter c")
        self._omega_cache = parent.omega

    def _solve_alpha(self):
        # f_c(F(x)) = 0 exactly when F(x) <= exp(-1/c)
        cut = math.exp(-1.0 / self.c)
        return _monotone_inf(
            lambda t: self.parent.value(t) > cut,
            self.parent.quantile(0.25) - 1.0,
            self.parent.quantile(0.75) + 1.0,
            _windows_about(self.parent._guess_quantile(cut)),
        )

    def _guess_quantile(self, p):
        # (1 + c ln F)_+ reaches p where F reaches exp((p - 1)/c)
        return self.parent._guess_quantile(math.exp((float(p) - 1.0) / self.c))

    def _image_tail(self, parent_tail):
        # 1 - (1 + c ln F)_+ = min(c * (-ln F), 1), through the parent tail
        neg_log = np.where(parent_tail >= 1.0, math.inf, -np.log1p(-parent_tail))
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
    s = _real(s, "stability order s", 1.0, closed=True)
    kind = LawKind(kind)
    if kind is LawKind.FREE_TYPE_I:
        return StabilityConstants(s, 1.0, math.log(s), 0.0, 1.0)
    if kind in (LawKind.FREE_TYPE_II, LawKind.FREE_TYPE_III):
        sign = 1.0 if kind is LawKind.FREE_TYPE_II else -1.0
        theta = sign / _real(alpha, f"{kind.value} shape")
        return StabilityConstants(s, s**theta, 0.0, theta, 0.0)
    raise CdfError(f"{kind.value} is not a free extreme-value type")


class StabilityCheck(NamedTuple):
    stable: bool
    a: float
    b: float
    sup_distance: float


def verify_max_stable(g: Cdf, k: int, tol: float = 1e-9) -> StabilityCheck:
    """Fit (a_k, b_k) by quartile matching and test G^(k)(a x + b) = G.

    The affine fit matches the p = 1/4 and p = 3/4 quantiles of the k-fold
    iterate against G; when G really is max-stable the two-point fit is
    exact and the grid check confirms it.  A law whose support is
    unbounded below is rejected immediately (stable laws cannot have one),
    but the fitted distance is still reported for diagnostics.
    """
    k = _order(k, "stability order k", 2)
    x1, x3 = g.quantile(0.25), g.quantile(0.75)
    if x1 >= x3:
        raise CdfError("degenerate law: max-stability is vacuous for a point mass")
    iterate = free_max_iterate(g, k)
    y1, y3 = iterate.quantile(0.25), iterate.quantile(0.75)
    a = (y3 - y1) / (x3 - x1)
    b = y1 - a * x1
    if not a > 0:
        return StabilityCheck(False, a, b, 1.0)
    dist = sup_distance(rescale(iterate, a, b), g, comparison_grid(g))
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
        "exponential": GpdCdf(0.0),
        "pareto_2": ParetoCdf(2.0),
        "gpd_half": GpdCdf(0.5),
        "cauchy": standard_cauchy(),
    }
