"""Free max-domains of attraction and peaks-over-threshold machinery.

The classical and free max-domains coincide, and the classical norming
constants transfer verbatim: Type II uses the tail threshold u_n as the
scale, Type III uses the gap to the finite endpoint, and Type I uses the
mean excess function as the auxiliary scale.  This module builds those
constants, measures convergence of normalized iterates on a grid, runs
regular-variation diagnostics, and fits generalized Pareto laws to
exceedance samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from scipy import integrate, optimize

from .cdf import (
    Cdf,
    CdfError,
    comparison_grid,
    exceedance_cdf,
    free_max_iterate,
    rescale,
    sup_distance,
    threshold_un,
)
from .laws import GpdCdf, LawKind
from .util import parallel_map

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
    however small the tail at t is.
    """
    t = float(t)
    if t >= f.omega:
        raise CdfError("mean excess needs t below the upper support endpoint")
    tail_t = f.tail(t)
    if not tail_t > 0.0:
        raise CdfError("mean excess undefined where the tail vanishes")
    total, _ = integrate.quad(
        f.tail, t, f.omega, epsabs=QUAD_TOL * tail_t, epsrel=QUAD_TOL, limit=400
    )
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
        from .cdf import _monotone_inf

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

    rows = parallel_map(one, sorted(constants, key=lambda c: c.n))
    return rows


# ----------------------------------------------------------------------
# regular variation diagnostics
# ----------------------------------------------------------------------
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
    if not alpha > 0:
        raise CdfError("regular variation exponent must be positive")
    worst = 0.0
    if mode == "at_infinity":
        for t in scale_list:
            base = f.tail(t)
            if not base > 0.0:
                raise CdfError(f"tail vanishes at scale t={t}: beyond effective support")
            for x in x_list:
                ratio = f.tail(t * x) / base
                worst = max(worst, abs(ratio - x ** (-alpha)))
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
                worst = max(worst, abs(ratio - x**alpha))
        return worst
    raise CdfError(f"unknown regular-variation mode {mode!r}")


# ----------------------------------------------------------------------
# generalized Pareto fitting (peaks over threshold)
# ----------------------------------------------------------------------
def _gpd_loglik(x: np.ndarray, gamma: float, sigma: float) -> float:
    n = x.size
    if not sigma > 0:
        return -math.inf
    if abs(gamma) < 1e-12:
        return -n * math.log(sigma) - float(np.sum(x)) / sigma
    z = gamma * x / sigma
    if np.any(z <= -1.0):
        return -math.inf
    return -n * math.log(sigma) - (1.0 + 1.0 / gamma) * float(np.sum(np.log1p(z)))


def _profile_sigma(x: np.ndarray, gamma: float, xatol: float = 1e-10) -> tuple[float, float]:
    """Best sigma for fixed gamma, by bounded search over log sigma."""
    mean = float(np.mean(x))
    if abs(gamma) < 1e-12:
        sigma = mean
        return _gpd_loglik(x, 0.0, sigma), sigma
    if gamma < 0:
        # keep the support constraint strict so the likelihood stays bounded
        lo = math.log(abs(gamma) * float(np.max(x)) * (1.0 + 1e-8))
        hi = max(lo + 1e-6, math.log(mean) + 20.0)
    else:
        lo = math.log(mean) - 20.0
        hi = math.log(mean) + 20.0
    res = optimize.minimize_scalar(
        lambda ls: -_gpd_loglik(x, gamma, math.exp(ls)),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": xatol},
    )
    sigma = math.exp(float(res.x))
    return _gpd_loglik(x, gamma, sigma), sigma


def _pwm_start(x: np.ndarray) -> tuple[float, float]:
    """Probability-weighted-moments starting point for (gamma, sigma)."""
    xs = np.sort(x)
    n = xs.size
    a0 = float(np.mean(xs))
    weights = 1.0 - (np.arange(1, n + 1) - 0.35) / n
    a1 = float(np.mean(weights * xs))
    denom = a0 - 2.0 * a1
    if denom <= 0:
        return 0.0, a0
    gamma = 2.0 - a0 / denom
    sigma = 2.0 * a0 * a1 / denom
    return float(np.clip(gamma, -4.9, 4.9)), max(sigma, 1e-12)


def fit_gpd(exceedances: Sequence[float]) -> GpdFit:
    """Maximum-likelihood GPD fit over gamma in [-5, 5], sigma profiled out.

    Deterministic: a coarse profile scan (seeded with the PWM estimate) is
    refined by bounded scalar optimization; exact ties are broken toward
    the smaller |gamma|.
    """
    x = np.asarray(exceedances, dtype=float).ravel()
    if x.size < 20:
        raise CdfError("fit_gpd needs at least 20 exceedances")
    if np.any(x < 0):
        raise CdfError("exceedances must be nonnegative")
    if float(np.max(x)) <= float(np.min(x)):
        raise CdfError("degenerate sample: all exceedances equal")
    x = x[x > 0]
    if x.size < 20:
        raise CdfError("fit_gpd needs at least 20 positive exceedances")

    gamma_pwm, _ = _pwm_start(x)
    grid = np.unique(np.concatenate([np.linspace(-5.0, 5.0, 61), [gamma_pwm, 0.0]]))
    profile = [(g,) + _profile_sigma(x, g, xatol=1e-5) for g in grid]
    best_gamma, best_ll, best_sigma = max(
        ((g, ll, s) for g, ll, s in profile), key=lambda t: (t[1], -abs(t[0]))
    )

    step = 10.0 / 60.0
    res = optimize.minimize_scalar(
        lambda g: -_profile_sigma(x, g, xatol=1e-6)[0],
        bounds=(max(-5.0, best_gamma - step), min(5.0, best_gamma + step)),
        method="bounded",
        options={"xatol": 1e-8},
    )
    refined = float(res.x)
    best_ll, best_sigma = _profile_sigma(x, best_gamma)
    ll_ref, sigma_ref = _profile_sigma(x, refined)
    candidates = [(best_gamma, best_ll, best_sigma), (refined, ll_ref, sigma_ref)]
    ll_zero, sigma_zero = _profile_sigma(x, 0.0)
    candidates.append((0.0, ll_zero, sigma_zero))
    tol = 1e-9 * (1.0 + abs(best_ll))
    top = max(c[1] for c in candidates)
    gamma_hat, ll_hat, sigma_hat = min(
        (c for c in candidates if c[1] >= top - tol), key=lambda c: abs(c[0])
    )
    return GpdFit(float(gamma_hat), float(sigma_hat), int(x.size), float(ll_hat))


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
