"""Free max-domains of attraction and peaks-over-threshold machinery.

The classical and free max-domains coincide, and the classical norming
constants transfer verbatim: Type II uses the tail threshold u_n as the
scale, Type III uses the gap to the finite endpoint, and Type I uses the
mean excess function as the auxiliary scale.  This module builds those
constants, measures convergence of normalized iterates on a grid, runs
regular-variation diagnostics, and fits generalized Pareto laws to
exceedance samples.  ``mean_excess`` takes the tail integral in closed
form where the law has one (``Cdf._tail_integral``) and imports scipy's
``quad`` only for the other laws; ``fit_gpd`` solves with private ports of
scipy's scalar solvers.  A run on closed-form laws thus loads neither
``scipy.integrate`` nor ``scipy.optimize``.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .cdf import (
    _HUGE,
    Cdf,
    CdfError,
    _monotone_inf,
    _order,
    _real,
    _windows_about,
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
        _real(self.a_n, "norming scale a_n")


class ConvergenceRow(NamedTuple):
    n: int
    a_n: float
    b_n: float
    sup_distance: float


class GpdFit(NamedTuple):
    gamma_hat: float
    sigma_hat: float
    n_exceedances: int
    log_likelihood: float


class ThresholdRow(NamedTuple):
    u: float
    sigma_u: float
    sup_distance: float


# ----------------------------------------------------------------------
# mean excess and norming constants
# ----------------------------------------------------------------------
def mean_excess(f: Cdf, t: float) -> float:
    """g(t) = integral of the tail over (t, omega) divided by the tail at t.

    The integral is the law's ``_tail_integral`` where that is a closed
    form: the GPD family (exponential, Pareto, Beta power, uniform), the
    normal, the Gumbel law at and above its mode, tables, and any affine
    image of these.  Elsewhere (``FunctionCdf``, Frechet, Weibull, derived
    laws) it is ``_quad_tail_integral``.  Raises ``CdfError`` for an
    infinite mean.
    """
    t = float(t)
    if t >= f.omega:
        raise CdfError("mean excess needs t below the upper support endpoint")
    if not math.isfinite(t):
        raise CdfError("mean excess needs a finite t")
    tail_t = f.tail(t)
    if not tail_t > 0.0:
        raise CdfError("mean excess undefined where the tail vanishes")
    total = f._tail_integral(t)
    if total is None:
        total = _quad_tail_integral(f, t, tail_t)
    if total == math.inf:
        raise CdfError(f"mean excess at t={t} is infinite: the law has an infinite mean")
    return float(total / tail_t)


def _quad_tail_integral(f: Cdf, t: float, tail_t: float) -> float:
    """The integral of the tail over (t, omega) by adaptive quadrature.

    On (t, inf) directly for laws with an infinite endpoint, at relative
    tolerance 1e-10 and an absolute tolerance of 1e-10 times the tail at
    t, so that the mean excess keeps its relative accuracy however small
    the tail at t is.  Raises ``CdfError`` when quadrature reports
    failure, as it does for a divergent integral (infinite mean).
    """
    from scipy.integrate import quad

    total, _, _, *failure = quad(
        f.tail, t, f.omega, epsabs=QUAD_TOL * tail_t, epsrel=QUAD_TOL, limit=400,
        full_output=1,
    )
    if failure:
        # the tail integral diverges (infinite mean) or quad cannot reach
        # the tolerance: either way the number is not a mean excess
        reason = failure[0].splitlines()[0]
        raise CdfError(f"mean excess integral failed at t={t}: {reason}")
    return total


def _finite_threshold(f: Cdf, n: int) -> float:
    """u_n, or ``CdfError`` where it lies beyond what the bisection searches."""
    u_n = threshold_un(f, n)
    if math.isinf(u_n):
        raise CdfError(f"threshold u_n at n={n} lies outside the range +/-{_HUGE:g} "
                       "that its bisection searches")
    return u_n


def norming_constants(f: Cdf, n: int, kind: LawKind) -> NormingConstants:
    """Norming pair for the free type ``kind``: (g(u_n), u_n) for Type I,
    (u_n, 0) for Type II, (omega - u_n, omega) for Type III."""
    n = _order(n, "norming order n", 2)
    kind = LawKind(kind)
    if kind is LawKind.FREE_TYPE_I:
        u_n = _finite_threshold(f, n)
        return NormingConstants(n, mean_excess(f, u_n), u_n, "TypeI_mean_excess")
    if kind is LawKind.FREE_TYPE_II:
        u_n = _finite_threshold(f, n)
        if math.isfinite(f.omega):
            raise CdfError("Type II norming needs an unbounded upper tail")
        return NormingConstants(n, u_n, 0.0, "TypeII_un")
    if kind is LawKind.FREE_TYPE_III:
        omega = f.omega
        if not math.isfinite(omega):
            raise CdfError("Type III norming requires a finite upper endpoint")
        # bisect in the endpoint gap h = omega - t: the direct difference
        # omega - u_n would cancel to absolute (not relative) precision
        gap = _monotone_inf(lambda h: f.tail_gap(h) >= 1.0 / n, 0.0, 1.0,
                            _windows_about(omega - f._guess_quantile(1.0 - 1.0 / n)))
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
    ``scale_list``, each positive and finite; ``at_endpoint`` compares
    Fbar(omega - x h)/Fbar(omega - h) with x^alpha for h in ``scale_list``
    (finite endpoint required), each positive and, with every offset x h,
    below the support width omega - alpha, through ``tail_gap`` so that
    omega - x h never cancels.
    """
    alpha = _real(alpha, "regular variation exponent")
    if not all(x > 0 and math.isfinite(x) for x in x_list):
        raise CdfError("regular variation test points must be positive and finite")
    if mode == "at_infinity":
        tail_at, exponent, label, bound = f.tail, -alpha, "scale t", math.inf
    elif mode == "at_endpoint":
        if not math.isfinite(f.omega):
            raise CdfError("at_endpoint mode requires a finite upper endpoint")
        tail_at, exponent, label, bound = f.tail_gap, alpha, "offset h", f.omega - f.alpha
    else:
        raise CdfError(f"unknown regular-variation mode {mode!r}")
    worst = 0.0
    for s in scale_list:
        base = tail_at(s)
        if not base > 0.0:
            raise CdfError(f"tail vanishes at {label}={s}: beyond effective support")
        if not 0.0 < s < bound:
            within = "finite" if bound == math.inf else f"below the support width {bound!r}"
            raise CdfError(f"{label}={s} must be positive and {within}")
        for x in x_list:
            if mode == "at_endpoint" and not s * x < bound:
                raise CdfError(f"offset x*h={s * x!r} (x={x!r}, h={s!r}) must be below the "
                               f"support width {bound!r}")
            worst = max(worst, abs(tail_at(s * x) / base - _rv_power(x, exponent)))
    return worst


# ----------------------------------------------------------------------
# generalized Pareto fitting (peaks over threshold)
# ----------------------------------------------------------------------
def _brentq(f, xa: float, xb: float) -> float:
    """Root of ``f`` between ``xa`` and ``xb``, where ``f`` changes sign.

    A line-for-line port of ``brentq`` from scipy 1.17.1
    (``scipy/optimize/Zeros/brentq.c``; Brent 1973, *Algorithms for
    Minimization Without Derivatives*, ch. 3-4) at scipy's defaults
    xtol = 2e-12, rtol = 4 eps and 100 iterations, so it returns
    ``scipy.optimize.brentq``'s double.  Raises ``CdfError`` where scipy
    raises: when f(xa) and f(xb) have the same sign, or when the
    iterations run out.
    """
    xtol, rtol, maxiter = 2e-12, 4 * sys.float_info.epsilon, 100
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):  # the C code's signbit tests, on nonzero doubles
        raise CdfError("brentq: f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise CdfError(f"brentq did not converge in {maxiter} iterations")


def _fminbound(f, x1: float, x2: float) -> float:
    """Minimizer of ``f`` on [x1, x2], x1 <= x2 finite.

    A port of ``_minimize_scalar_bounded`` from scipy 1.17.1
    (``scipy/optimize/_optimize.py``: golden section with parabolic steps,
    Brent 1973, ch. 5) at ``xatol`` = 1e-10 and at most 500 evaluations,
    with scipy's sqrt(2.2e-16) relative tolerance, so it returns
    ``minimize_scalar(f, bounds=(x1, x2), method="bounded").x``.  Like
    scipy's result it is returned also when the evaluations run out.
    """
    xatol, maxfun = 1e-10, 500
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(x1), float(x2)
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    evals = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0 else -tol1
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0 else xf - step
        fu = f(x)
        evals += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if evals >= maxfun:
            break
    return xf


def fit_gpd(exceedances: Sequence[float]) -> GpdFit:
    """Maximum-likelihood GPD fit by a one-dimensional profile in theta = gamma/sigma.

    For fixed theta the likelihood is maximized in closed form by
    gamma(theta) = mean(log1p(theta x)), sigma = gamma/theta, with
    log-likelihood -n (log sigma + 1 + gamma); theta = 0 is the exponential
    fit sigma = mean(x) (Grimshaw 1993).  The search variable is
    w = log1p(theta max x), limited to the constraint set

    * gamma in [-5, 5] (gamma(theta) increases with theta, so both ends
      are bracketed by root finding, and a fit whose bracket root lies
      past the bound is moved inward to the last w within it), and
    * for gamma < 0, the support margin sigma >= |gamma| max x (1 + 1e-8),
      i.e. w >= log1p(-1/(1 + 1e-8)), which keeps the likelihood bounded.

    Deterministic: one coarse scan over w is refined by one bounded scalar
    search between the neighbours of the best scan point, and the higher of
    the best scan point and the refined point is kept.  Against theta = 0
    (the exponential fit), log-likelihoods within 1e-9 (1 + |l|) of the
    better one l are ties, broken toward the smaller |gamma|.  The root
    finding and the bounded search are ``_brentq`` and ``_fminbound``, ports
    of scipy's ``brentq`` and bounded ``minimize_scalar`` that return their
    doubles without importing scipy.
    """
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
    # every evaluation works in this one array: with two fresh n-element
    # temporaries a call, glibc's malloc gives their pages back to the
    # system and faults them in again, which made a 3e4-sample fit 2.7
    # times slower (a process that had imported scipy did not show it)
    work = np.empty_like(ratio)

    def profile(w: float) -> tuple[float, float, float]:
        """(log-likelihood, gamma, sigma) at theta max x = expm1(w)."""
        t = math.expm1(w)
        # np.add.reduce is np.mean's sum without its Python wrapper: same bits
        if t == 0.0:
            sigma = float(np.add.reduce(x)) / n
            return -n * (math.log(sigma) + 1.0), 0.0, sigma
        np.log1p(np.multiply(t, ratio, out=work), out=work)
        gamma = float(np.add.reduce(work)) / n
        sigma = gamma * x_max / t
        return -n * (math.log(sigma) + 1.0 + gamma), gamma, sigma

    w_lo = math.log1p(-1.0 / (1.0 + 1e-8))
    if profile(w_lo)[1] < -5.0:
        w_lo = _brentq(lambda w: profile(w)[1] + 5.0, w_lo, 0.0)
    # gamma >= log1p(expm1(w) min ratio), which is 5 at the upper bracket
    # unless the cap binds: it keeps expm1(w) finite (it overflows near
    # w = 709.8), and gamma may then stay below 5 up to the bracket; a min
    # ratio that underflows to 0 takes the cap
    r_min = float(np.min(ratio))
    w_hi = min(math.log1p(math.expm1(5.0) / r_min), 700.0) if r_min > 0.0 else 700.0
    if profile(w_hi)[1] > 5.0:
        w_hi = _brentq(lambda w: profile(w)[1] - 5.0, 0.0, w_hi)

    scan = np.linspace(w_lo, w_hi, 65)
    scanned = [profile(w) for w in scan]
    best = int(np.argmax([c[0] for c in scanned]))
    w_best = _fminbound(lambda w: -profile(w)[0],
                        scan[max(best - 1, 0)], scan[min(best + 1, scan.size - 1)])
    w_found, found = max((scan[best], scanned[best]), (w_best, profile(w_best)),
                         key=lambda wc: (wc[1][0], -abs(wc[1][1])))
    candidates = [found, profile(0.0)]
    top = max(c[0] for c in candidates)
    tol = 1e-9 * (1.0 + abs(top))
    ll_hat, gamma_hat, sigma_hat = min(
        (c for c in candidates if c[0] >= top - tol), key=lambda c: abs(c[1])
    )
    if abs(gamma_hat) > 5.0:
        # a bracket root just past gamma = +-5: gamma is 0 at w = 0 and
        # increases with w, so bisect to the last w inside the bound
        out, inside = w_found, 0.0
        while (mid := 0.5 * (out + inside)) not in (out, inside):
            out, inside = (mid, inside) if abs(profile(mid)[1]) > 5.0 else (out, mid)
        ll_hat, gamma_hat, sigma_hat = profile(inside)
    return GpdFit(float(gamma_hat), float(sigma_hat), int(n), float(ll_hat))


# ----------------------------------------------------------------------
# Balkema / de Haan threshold diagnostics
# ----------------------------------------------------------------------
def balkema_de_haan_check(f: Cdf, gamma: float, u_list: Sequence[float]) -> list[ThresholdRow]:
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
        dist = sup_distance(exc, scaled, comparison_grid(exc, scaled))
        rows.append(ThresholdRow(float(u), float(sigma_u), dist))
    return rows
