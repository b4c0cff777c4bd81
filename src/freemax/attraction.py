"""Free max-domains of attraction and peaks-over-threshold machinery.

The classical and free max-domains coincide, and the classical norming
constants transfer verbatim: Type II uses the tail threshold u_n as the
scale, Type III uses the gap to the finite endpoint, and Type I uses the
mean excess function as the auxiliary scale.  This module builds those
constants, measures convergence of normalized iterates on a grid, runs
regular-variation diagnostics, and fits generalized Pareto laws to
exceedance samples.  Only ``mean_excess`` (``quad``) and ``fit_gpd`` (the
scalar optimiser) import scipy, each when it runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .cdf import (
    Cdf,
    CdfError,
    _monotone_inf,
    comparison_grid,
    exceedance_cdf,
    free_max_iterate,
    rescale,
    sup_distance,
    threshold_un,
)
from .laws import GpdCdf, LawKind

__all__ = [
    "NormingConstants",
    "ConvergenceRow",
    "GpdFit",
    "ThresholdRow",
    "mean_excess",
    "norming_constants",
    "convergence_report",
    "rv_check",
    "fit_gpd",
    "balkema_de_haan_check",
]

QUAD_TOL = 1e-10


@dataclass(frozen=True)
class NormingConstants:
    """The pair (a_n, b_n), a_n > 0, used inside F^(n)(a_n x + b_n)."""

    n: int
    a_n: float
    b_n: float
    recipe: str = "custom"

    def __post_init__(self):
        if not self.a_n > 0:
            raise CdfError("norming scale a_n must be positive")

    def to_dict(self) -> dict:
        return {"n": self.n, "a_n": self.a_n, "b_n": self.b_n, "recipe": self.recipe}


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    a_n: float
    b_n: float
    sup_distance: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "a_n": self.a_n,
            "b_n": self.b_n,
            "sup_distance": self.sup_distance,
        }


@dataclass(frozen=True)
class GpdFit:
    gamma_hat: float
    sigma_hat: float
    n_exceedances: int
    log_likelihood: float

    def to_dict(self) -> dict:
        return {
            "gamma_hat": self.gamma_hat,
            "sigma_hat": self.sigma_hat,
            "n_exceedances": self.n_exceedances,
            "log_likelihood": self.log_likelihood,
        }


class ThresholdRow(NamedTuple):
    u: float
    sigma_u: float
    sup_distance: float


# ----------------------------------------------------------------------
# mean excess and norming constants
# ----------------------------------------------------------------------
def mean_excess(f: Cdf, t: float) -> float:
    """g(t) = integral of the tail over (t, omega) divided by the tail at t.

    Adaptive quadrature, on (t, inf) directly for laws with an infinite
    endpoint, at relative tolerance 1e-10 and an absolute tolerance of
    1e-10 times the tail at t, so that g keeps its relative accuracy
    however small the tail at t is.  Raises ``CdfError`` when quadrature
    reports failure, as it does for a divergent integral (infinite mean).
    """
    from scipy import integrate

    t = float(t)
    if t >= f.omega:
        raise CdfError("mean excess needs t below the upper support endpoint")
    tail_t = f.tail(t)
    if not tail_t > 0.0:
        raise CdfError("mean excess undefined where the tail vanishes")
    total, _, _, *failure = integrate.quad(
        f.tail, t, f.omega, epsabs=QUAD_TOL * tail_t, epsrel=QUAD_TOL, limit=400,
        full_output=1,
    )
    if failure:
        # the tail integral diverges (infinite mean) or quad cannot reach
        # the tolerance: either way the number is not a mean excess
        reason = failure[0].splitlines()[0]
        raise CdfError(f"mean excess integral failed at t={t}: {reason}")
    return float(total / tail_t)


def norming_constants(f: Cdf, n: int, kind: LawKind) -> NormingConstants:
    """Norming pair for the free type ``kind``: (g(u_n), u_n) for Type I,
    (u_n, 0) for Type II, (omega - u_n, omega) for Type III."""
    n = int(n)
    if n < 2:
        raise CdfError("norming constants need n >= 2")
    kind = LawKind(kind)
    u_n = threshold_un(f, n)
    if kind is LawKind.FREE_TYPE_I:
        return NormingConstants(n, mean_excess(f, u_n), u_n, "TypeI_mean_excess")
    if kind is LawKind.FREE_TYPE_II:
        if math.isfinite(f.omega):
            raise CdfError("Type II norming needs an unbounded upper tail")
        return NormingConstants(n, u_n, 0.0, "TypeII_un")
    if kind is LawKind.FREE_TYPE_III:
        omega = f.omega
        if not math.isfinite(omega):
            raise CdfError("Type III norming requires a finite upper endpoint")
        # bisect in the endpoint gap h = omega - t: the direct difference
        # omega - u_n would cancel to absolute (not relative) precision
        gap = _monotone_inf(lambda h: float(f.tail_gap(h)) >= 1.0 / n, 0.0, 1.0)
        return NormingConstants(n, gap, omega, "TypeIII_endpoint")
    raise CdfError(f"{kind.value} is not a free extreme-value type")


def convergence_report(
    f: Cdf,
    g: Cdf,
    constants: Sequence[NormingConstants],
    grid: Optional[np.ndarray] = None,
) -> list[ConvergenceRow]:
    """Grid sup distance of F^(n)(a_n x + b_n) to G, one row per n."""
    if grid is None:
        grid = comparison_grid(g)

    def one(c: NormingConstants) -> ConvergenceRow:
        composed = rescale(free_max_iterate(f, c.n), c.a_n, c.b_n)
        return ConvergenceRow(c.n, c.a_n, c.b_n, sup_distance(composed, g, grid))

    return [one(c) for c in sorted(constants, key=lambda c: c.n)]


# ----------------------------------------------------------------------
# regular variation diagnostics
# ----------------------------------------------------------------------
def _rv_power(x: float, e: float) -> float:
    try:
        return x**e
    except OverflowError:
        raise CdfError(f"{x!r}**{e!r} overflows: regular variation exponent out of range") from None


def rv_check(
    f: Cdf,
    alpha: float,
    mode: str,
    x_list: Sequence[float],
    scale_list: Sequence[float],
) -> float:
    """Largest deviation from the power-law tail ratio on a test lattice.

    ``at_infinity`` compares Fbar(t x)/Fbar(t) with x^(-alpha) for t in
    ``scale_list``; ``at_endpoint`` compares Fbar(omega - x h)/Fbar(omega - h)
    with x^alpha for h in ``scale_list`` (finite endpoint required).
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise CdfError("regular variation exponent must be positive and finite")
    if not all(x > 0 and math.isfinite(x) for x in x_list):
        raise CdfError("regular variation test points must be positive and finite")
    worst = 0.0
    if mode == "at_infinity":
        for t in scale_list:
            base = f.tail(t)
            if not base > 0.0:
                raise CdfError(f"tail vanishes at scale t={t}: beyond effective support")
            for x in x_list:
                ratio = f.tail(t * x) / base
                worst = max(worst, abs(ratio - _rv_power(x, -alpha)))
        return worst
    if mode == "at_endpoint":
        omega = f.omega
        if not math.isfinite(omega):
            raise CdfError("at_endpoint mode requires a finite upper endpoint")
        for h in scale_list:
            base = f.tail(omega - h)
            if not base > 0.0:
                raise CdfError(f"tail vanishes at offset h={h}: beyond effective support")
            for x in x_list:
                ratio = f.tail(omega - x * h) / base
                worst = max(worst, abs(ratio - _rv_power(x, alpha)))
        return worst
    raise CdfError(f"unknown regular-variation mode {mode!r}")


# ----------------------------------------------------------------------
# generalized Pareto fitting (peaks over threshold)
# ----------------------------------------------------------------------
def fit_gpd(exceedances: Sequence[float]) -> GpdFit:
    """Maximum-likelihood GPD fit by a one-dimensional profile in theta = gamma/sigma.

    For fixed theta the likelihood is maximized in closed form by
    gamma(theta) = mean(log1p(theta x)), sigma = gamma/theta, with
    log-likelihood -n (log sigma + 1 + gamma); theta = 0 is the exponential
    fit sigma = mean(x) (Grimshaw 1993).  The search variable is
    w = log1p(theta max x), limited to the constraint set

    * gamma in [-5, 5] (gamma(theta) increases with theta, so both ends
      are bracketed by root finding), and
    * for gamma < 0, the support margin sigma >= |gamma| max x (1 + 1e-8),
      i.e. w >= log1p(-1/(1 + 1e-8)), which keeps the likelihood bounded.

    Deterministic: one coarse scan over w is refined by one bounded scalar
    search between the neighbours of the best scan point, and the higher of
    the best scan point and the refined point is kept.  Against theta = 0
    (the exponential fit), log-likelihoods within 1e-9 (1 + |l|) of the
    better one l are ties, broken toward the smaller |gamma|.
    """
    from scipy import optimize

    x = np.asarray(exceedances, dtype=float).ravel()
    if x.size < 20:
        raise CdfError("fit_gpd needs at least 20 exceedances")
    if not np.all(np.isfinite(x)):
        raise CdfError("exceedances must be finite")
    if np.any(x < 0):
        raise CdfError("exceedances must be nonnegative")
    if float(np.max(x)) <= float(np.min(x)):
        raise CdfError("degenerate sample: all exceedances equal")
    x = x[x > 0]
    if x.size < 20:
        raise CdfError("fit_gpd needs at least 20 positive exceedances")
    n = x.size
    x_max = float(np.max(x))
    ratio = x / x_max

    def profile(w: float) -> tuple[float, float, float]:
        """(log-likelihood, gamma, sigma) at theta max x = expm1(w)."""
        t = math.expm1(w)
        if t == 0.0:
            sigma = float(np.mean(x))
            return -n * (math.log(sigma) + 1.0), 0.0, sigma
        gamma = float(np.mean(np.log1p(t * ratio)))
        sigma = gamma * x_max / t
        return -n * (math.log(sigma) + 1.0 + gamma), gamma, sigma

    w_lo = math.log1p(-1.0 / (1.0 + 1e-8))
    if profile(w_lo)[1] < -5.0:
        w_lo = optimize.brentq(lambda w: profile(w)[1] + 5.0, w_lo, 0.0)
    # gamma >= log1p(expm1(w) min ratio), which is 5 at the upper bracket;
    # the cap keeps expm1(w) finite (it overflows near w = 709.8)
    w_top = min(math.log1p(math.expm1(5.0) / float(np.min(ratio))), 700.0)
    w_hi = optimize.brentq(lambda w: profile(w)[1] - 5.0, 0.0, w_top)

    scan = np.linspace(w_lo, w_hi, 65)
    best = int(np.argmax([profile(w)[0] for w in scan]))
    res = optimize.minimize_scalar(
        lambda w: -profile(w)[0],
        bounds=(scan[max(best - 1, 0)], scan[min(best + 1, scan.size - 1)]),
        method="bounded",
        options={"xatol": 1e-10},
    )
    found = max(profile(scan[best]), profile(float(res.x)), key=lambda c: (c[0], -abs(c[1])))
    candidates = [found, profile(0.0)]
    top = max(c[0] for c in candidates)
    tol = 1e-9 * (1.0 + abs(top))
    ll_hat, gamma_hat, sigma_hat = min(
        (c for c in candidates if c[0] >= top - tol), key=lambda c: abs(c[1])
    )
    return GpdFit(float(gamma_hat), float(sigma_hat), int(n), float(ll_hat))


# ----------------------------------------------------------------------
# Balkema / de Haan threshold diagnostics
# ----------------------------------------------------------------------
def balkema_de_haan_check(
    f: Cdf,
    gamma: float,
    u_list: Sequence[float],
    grid: Optional[np.ndarray] = None,
) -> list[ThresholdRow]:
    """Sup distance of each exceedance law to GPD(gamma) at a fitted scale.

    The scale sigma_u matches the median of the exceedance law to that of
    the scaled GPD, which is exact when F itself is a GPD.  For F in the
    matching domain of attraction the distances decrease toward zero as
    the thresholds rise.
    """
    g = GpdCdf(gamma)
    g_median = g.quantile(0.5)
    rows = []
    for u in u_list:
        exc = exceedance_cdf(f, u)
        sigma_u = exc.quantile(0.5) / g_median
        if not sigma_u > 0:
            raise CdfError(f"could not match medians at threshold u={u}")
        scaled = rescale(g, 1.0 / sigma_u, 0.0)
        eval_grid = comparison_grid(exc, scaled) if grid is None else grid
        rows.append(ThresholdRow(float(u), float(sigma_u), sup_distance(exc, scaled, eval_grid)))
    return rows
