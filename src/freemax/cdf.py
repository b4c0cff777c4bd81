"""Distribution functions and the extremal free convolution calculus.

Everything in this package flows through :class:`Cdf`: a right-continuous
nondecreasing map from the extended reals to [0, 1] with queryable values,
tails, left limits, quantiles and support endpoints.  Parametric laws
evaluate closed formulas; operations on CDFs return lazy derived objects
that evaluate their defining pointwise formula exactly instead of
tabulating.  Tails are first-class: the convolution and iteration
formulas amplify tail values by large factors, so derived objects always
compute in whichever of the value/tail domains avoids cancellation.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

__all__ = [
    "Cdf",
    "CdfError",
    "SteppedCdf",
    "FunctionCdf",
    "MeasureDecomposition",
    "free_max_conv",
    "free_min_conv",
    "classical_max_conv",
    "free_max_iterate",
    "free_max_power",
    "rescale",
    "lower_endpoint_iterate",
    "threshold_un",
    "exceedance_cdf",
    "atom_decomposition_max",
    "reflect",
    "quantile",
    "empirical_cdf",
    "point_mass",
    "tabulated_cdf",
    "cdf_table_text",
    "write_cdf_table",
    "read_samples",
    "comparison_grid",
    "sup_distance",
    "ks_distance",
]

#: Monotonicity violations up to this size are treated as floating-point
#: noise and clamped at construction; anything larger is a usage error.
MONOTONE_SLACK = 1e-12

_HUGE = 1e300


class CdfError(ValueError):
    """Raised for malformed distribution-function input."""


def _monotone_inf(pred: Callable[[float], bool], lo: float, hi: float) -> float:
    """inf{x : pred(x)} for a monotone False->True predicate.

    ``lo``/``hi`` are hints; the bracket expands geometrically and is then
    bisected down to double resolution.  Returns +/-inf when the predicate
    never/always holds within ~1e300.
    """
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        lo, hi = lo - 1.0, lo + 1.0
    step = max(1.0, 0.25 * (hi - lo))
    while not pred(hi):
        if hi >= _HUGE:
            return math.inf
        hi = min(hi + step, _HUGE)
        step *= 4.0
    step = max(1.0, 0.25 * abs(hi - lo))
    while pred(lo):
        if lo <= -_HUGE:
            return -math.inf
        lo = max(lo - step, -_HUGE)
        step *= 4.0
    for _ in range(600):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _monotone_inf_each(pred, lo: float, hi: float, n: int) -> np.ndarray:
    """``_monotone_inf`` for ``n`` predicates from one shared bracket.

    ``pred(i, t)`` decides predicates ``i`` (index array) at points ``t``.
    Each element takes the scalar steps, so its result is bit-identical.
    """
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        lo, hi = lo - 1.0, lo + 1.0
    los, his = np.full(n, lo), np.full(n, hi)
    step = np.full(n, max(1.0, 0.25 * (hi - lo)))
    grow = np.arange(n)
    while grow.size:
        grow = grow[~pred(grow, his[grow])]
        capped = his[grow] >= _HUGE
        his[grow[capped]] = math.inf
        grow = grow[~capped]
        his[grow] = np.minimum(his[grow] + step[grow], _HUGE)
        step[grow] *= 4.0
    grow = np.flatnonzero(np.isfinite(his))
    step[grow] = np.maximum(1.0, 0.25 * np.abs(his[grow] - lo))
    while grow.size:
        grow = grow[pred(grow, los[grow])]
        capped = los[grow] <= -_HUGE
        his[grow[capped]] = -math.inf
        grow = grow[~capped]
        los[grow] = np.maximum(los[grow] - step[grow], -_HUGE)
        step[grow] *= 4.0
    live = np.flatnonzero(np.isfinite(his))
    for _ in range(600):
        mid = 0.5 * (los[live] + his[live])
        inside = (los[live] < mid) & (mid < his[live])
        live, mid = live[inside], mid[inside]
        if not live.size:
            break
        holds = pred(live, mid)
        his[live[holds]] = mid[holds]
        los[live[~holds]] = mid[~holds]
    return his


def _as_float_array(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


class Cdf:
    """Right-continuous nondecreasing distribution function.

    Subclasses implement ``_value`` or ``_tail`` on float ndarrays, or
    both: each defaults to one minus the other, so a subclass must
    override at least one.  Laws whose tail is the native quantity (the
    convolution and iteration formulas amplify it) implement ``_tail``.
    ``_left``, ``_quantile``, ``_tail_gap`` and the affine-argument hooks
    ``_value_affine``/``_tail_affine`` are overridden where a closed or
    numerically stabler form exists.  Instances are immutable; all
    operations are pure, so concurrent reads are safe.
    """

    def __init__(self):
        self._alpha_cache = math.nan
        self._omega_cache = math.nan

    # ------------------------------------------------------------------
    # vectorized hooks
    # ------------------------------------------------------------------
    def _value(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - self._tail(x)

    def _tail(self, x: np.ndarray) -> np.ndarray:
        return 1.0 - self._value(x)

    def _left(self, x: np.ndarray) -> np.ndarray:
        # continuous laws: left limit equals the value
        return self._value(x)

    def _value_affine(self, a: float, b: float, x: np.ndarray) -> np.ndarray:
        return self._value(a * x + b)

    def _tail_affine(self, a: float, b: float, x: np.ndarray) -> np.ndarray:
        return self._tail(a * x + b)

    def _tail_gap(self, h: np.ndarray) -> np.ndarray:
        # tail at omega - h; overridden where the difference would cancel
        return self._tail(self.omega - h)

    def _quantile(self, p: np.ndarray) -> np.ndarray:
        """inf{t : value(t) >= p} by bisection; several levels in (0, 1)
        are bisected together, bit-identical to one at a time."""
        lo = self.alpha if math.isfinite(self.alpha) else -1.0
        hi = self.omega if math.isfinite(self.omega) else 1.0
        out = np.where(p <= 0.0, -math.inf, self.omega)
        inner = ~((p <= 0.0) | (p >= 1.0))
        levels = p[inner]
        if levels.size == 1:
            level = levels[0]
            out[inner] = _monotone_inf(lambda t: self.value(t) >= level, lo, hi)
        elif levels.size:
            out[inner] = _monotone_inf_each(lambda i, t: self.value(t) >= levels[i], lo, hi, levels.size)
        return out

    # ------------------------------------------------------------------
    # support endpoints
    # ------------------------------------------------------------------
    def _solve_alpha(self) -> float:
        return _monotone_inf(lambda t: self.value(t) > 0.0, -1.0, 1.0)

    def _solve_omega(self) -> float:
        return _monotone_inf(lambda t: self.value(t) >= 1.0, -1.0, 1.0)

    @property
    def alpha(self) -> float:
        """Lower support endpoint (may be -inf)."""
        if math.isnan(self._alpha_cache):
            self._alpha_cache = float(self._solve_alpha())
        return self._alpha_cache

    @property
    def omega(self) -> float:
        """Upper support endpoint (may be +inf)."""
        if math.isnan(self._omega_cache):
            self._omega_cache = float(self._solve_omega())
        return self._omega_cache

    # ------------------------------------------------------------------
    # public evaluation
    # ------------------------------------------------------------------
    def _eval(self, fn, x):
        """``fn`` clipped to [0, 1].  A scalar skips the array wrapping and
        is clipped by comparisons, which keep NaN and -0.0 as np.clip does."""
        if isinstance(x, (float, int)):
            v = float(fn(np.array([x], dtype=float))[0])
            return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v
        arr = _as_float_array(x)
        scalar = arr.ndim == 0
        out = np.clip(fn(np.atleast_1d(arr)), 0.0, 1.0)
        return float(out[0]) if scalar else out.reshape(arr.shape)

    def value(self, x):
        """F(x); accepts scalars or arrays, including +/-inf."""
        return self._eval(self._value, x)

    __call__ = value

    def tail(self, x):
        """1 - F(x), evaluated without cancellation where possible."""
        return self._eval(self._tail, x)

    def left(self, x):
        """Left limit F(x-)."""
        return self._eval(self._left, x)

    def value_affine(self, a: float, b: float, x):
        """F(a*x + b) with the affine map folded into the formula."""
        return self._eval(lambda t: self._value_affine(a, b, t), x)

    def tail_affine(self, a: float, b: float, x):
        """1 - F(a*x + b), cancellation-free for laws that support it."""
        return self._eval(lambda t: self._tail_affine(a, b, t), x)

    def tail_gap(self, h):
        """Tail at omega - h for a finite upper endpoint, evaluated stably."""
        if not math.isfinite(self.omega):
            raise CdfError("tail_gap needs a finite upper endpoint")
        return self._eval(self._tail_gap, h)

    def quantile(self, p):
        """Generalized inverse inf{x : F(x) >= p}."""
        arr = _as_float_array(p)
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise CdfError("quantile level must lie in [0, 1]")
        scalar = arr.ndim == 0
        out = self._quantile(np.atleast_1d(arr).astype(float))
        out = np.where(np.atleast_1d(arr) <= 0.0, -math.inf, out)
        return float(out[0]) if scalar else out.reshape(arr.shape)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Inverse-CDF sampling; exact for laws with closed-form quantiles."""
        return np.asarray(self.quantile(rng.random(n)))


# ----------------------------------------------------------------------
# concrete representations
# ----------------------------------------------------------------------
class SteppedCdf(Cdf):
    """CDF stored on sorted breakpoints.

    ``interpolation="constant"`` keeps the value v_i on [x_i, x_{i+1})
    (empirical CDFs, spectral measures); ``"linear"`` interpolates between
    breakpoints (tabulated CDFs).  Both are right-continuous and are 0
    below the first breakpoint.
    """

    def __init__(self, xs, values, interpolation: str = "constant"):
        super().__init__()
        xs = _as_float_array(xs).ravel()
        vs = _as_float_array(values).ravel()
        if xs.size == 0 or xs.size != vs.size:
            raise CdfError("breakpoints and values must be equal-length and nonempty")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
            raise CdfError("breakpoints and values must be finite")
        if np.any(np.diff(xs) <= 0):
            raise CdfError("breakpoints must be strictly increasing")
        if np.any(np.diff(vs) < -MONOTONE_SLACK):
            raise CdfError("values decrease by more than the monotonicity slack")
        if np.any(vs < -MONOTONE_SLACK) or np.any(vs > 1.0 + MONOTONE_SLACK):
            raise CdfError("values must lie in [0, 1]")
        if interpolation not in ("constant", "linear"):
            raise CdfError(f"unknown interpolation {interpolation!r}")
        vs = np.clip(np.maximum.accumulate(np.clip(vs, 0.0, 1.0)), 0.0, 1.0)
        self.xs = xs
        self.vs = vs
        self.interpolation = interpolation
        self._alpha_cache = self._stepped_alpha()
        self._omega_cache = self._stepped_omega()

    def _stepped_alpha(self) -> float:
        positive = np.nonzero(self.vs > 0.0)[0]
        if positive.size == 0:
            return math.inf
        k = positive[0]
        if self.interpolation == "linear" and k > 0:
            # mass starts where the linear rise leaves zero
            return float(self.xs[k - 1])
        return float(self.xs[k])

    def _stepped_omega(self) -> float:
        full = np.nonzero(self.vs >= 1.0)[0]
        if full.size == 0:
            return math.inf
        return float(self.xs[full[0]])

    def _value(self, x):
        if self.interpolation == "constant":
            idx = np.searchsorted(self.xs, x, side="right") - 1
            return np.where(idx < 0, 0.0, self.vs[np.clip(idx, 0, None)])
        out = np.interp(x, self.xs, self.vs)
        return np.where(x < self.xs[0], 0.0, out)

    def _left(self, x):
        if self.interpolation == "constant":
            idx = np.searchsorted(self.xs, x, side="left") - 1
            return np.where(idx < 0, 0.0, self.vs[np.clip(idx, 0, None)])
        out = np.interp(x, self.xs, self.vs)
        return np.where(x <= self.xs[0], 0.0, out)

    def _quantile(self, p):
        if self.interpolation == "constant":
            idx = np.searchsorted(self.vs, p, side="left")
            return np.where(idx >= self.vs.size, math.inf, self.xs[np.clip(idx, 0, self.vs.size - 1)])
        j = np.clip(np.searchsorted(self.vs, p, side="left"), 1, self.vs.size - 1)
        x0, x1, v0, v1 = self.xs[j - 1], self.xs[j], self.vs[j - 1], self.vs[j]
        with np.errstate(divide="ignore", invalid="ignore"):  # v1 > v0 wherever selected
            inner = x0 + (p - v0) * (x1 - x0) / (v1 - v0)
        return np.select([p > self.vs[-1], p <= self.vs[0]], [math.inf, self.xs[0]], inner)


class FunctionCdf(Cdf):
    """CDF defined by explicit callables (parametric or ad hoc laws).

    The given callables are the hooks; ``value_fn`` or ``tail_fn`` is
    required, and a missing one is one minus the other.
    """

    def __init__(
        self,
        value_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        *,
        alpha: float = -math.inf,
        omega: float = math.inf,
        tail_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        left_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        quantile_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        super().__init__()
        if value_fn is None and tail_fn is None:
            raise CdfError("FunctionCdf needs value_fn or tail_fn")
        hooks = {"_value": value_fn, "_tail": tail_fn, "_left": left_fn, "_quantile": quantile_fn}
        for name, fn in hooks.items():
            if fn is not None:
                setattr(self, name, fn)
        self._alpha_cache = float(alpha)
        self._omega_cache = float(omega)


def point_mass(a: float) -> SteppedCdf:
    """Degenerate law concentrated at ``a``."""
    return SteppedCdf([float(a)], [1.0])


def empirical_cdf(samples: Iterable[float]) -> SteppedCdf:
    """Right-continuous empirical CDF with jumps 1/n at each sorted sample."""
    data = _as_float_array(list(samples)).ravel()
    if data.size == 0:
        raise CdfError("empirical_cdf requires a nonempty sample")
    xs, counts = np.unique(data, return_counts=True)
    return SteppedCdf(xs, np.cumsum(counts) / data.size)


# ----------------------------------------------------------------------
# derived CDFs: the extremal convolution calculus
# ----------------------------------------------------------------------
class AffineCdf(Cdf):
    """x -> F(a*x + b) for a > 0; affine maps compose symbolically."""

    def __init__(self, parent: Cdf, a: float, b: float):
        super().__init__()
        if not a > 0:
            raise CdfError("rescale requires a > 0")
        self.parent = parent
        self.a = float(a)
        self.b = float(b)
        self._alpha_cache = (parent.alpha - self.b) / self.a
        self._omega_cache = (parent.omega - self.b) / self.a

    def _value(self, x):
        return self.parent._value_affine(self.a, self.b, x)

    def _tail(self, x):
        return self.parent._tail_affine(self.a, self.b, x)

    def _left(self, x):
        return self.parent._left(self.a * x + self.b)

    def _value_affine(self, a, b, x):
        return self.parent._value_affine(self.a * a, self.a * b + self.b, x)

    def _tail_affine(self, a, b, x):
        return self.parent._tail_affine(self.a * a, self.a * b + self.b, x)

    def _tail_gap(self, h):
        return self.parent._tail_gap(self.a * h)

    def _quantile(self, p):
        return (self.parent._quantile(p) - self.b) / self.a


class FreeMaxPowerCdf(Cdf):
    """s-fold free max power: tail is min(s * Fbar, 1)."""

    def __init__(self, parent: Cdf, s: float):
        super().__init__()
        if not s >= 1.0:
            raise CdfError("free max power requires s >= 1")
        self.parent = parent
        self.s = float(s)
        self._omega_cache = parent.omega

    def _solve_alpha(self):
        if self.s == 1.0:
            return self.parent.alpha
        return tail_quantile(self.parent, 1.0 / self.s)

    def _tail(self, x):
        return np.minimum(self.s * self.parent._tail(x), 1.0)

    def _left(self, x):
        return np.clip(1.0 - np.minimum(self.s * (1.0 - self.parent._left(x)), 1.0), 0.0, 1.0)

    def _tail_affine(self, a, b, x):
        return np.minimum(self.s * self.parent._tail_affine(a, b, x), 1.0)

    def _value_affine(self, a, b, x):
        return 1.0 - self._tail_affine(a, b, x)

    def _tail_gap(self, h):
        return np.minimum(self.s * self.parent._tail_gap(h), 1.0)


class FreeMaxConvCdf(Cdf):
    """Upper extremal free convolution: H = max(0, F + G - 1)."""

    def __init__(self, f: Cdf, g: Cdf):
        super().__init__()
        self.f = f
        self.g = g
        self._omega_cache = max(f.omega, g.omega)

    def _solve_alpha(self):
        # the threshold where the summed tails drop to total mass 1
        return _monotone_inf(
            lambda t: self.f.tail(t) + self.g.tail(t) <= 1.0,
            min(self.f.quantile(0.5), self.g.quantile(0.5)),
            max(self.f.quantile(0.5), self.g.quantile(0.5)) + 1.0,
        )

    def _tail(self, x):
        return np.minimum(self.f._tail(x) + self.g._tail(x), 1.0)

    def _left(self, x):
        return np.clip(self.f._left(x) + self.g._left(x) - 1.0, 0.0, 1.0)

    def _tail_affine(self, a, b, x):
        return np.minimum(self.f._tail_affine(a, b, x) + self.g._tail_affine(a, b, x), 1.0)

    def _value_affine(self, a, b, x):
        return 1.0 - self._tail_affine(a, b, x)


class FreeMinConvCdf(Cdf):
    """Lower extremal free convolution: K = min(F + G, 1)."""

    def __init__(self, f: Cdf, g: Cdf):
        super().__init__()
        self.f = f
        self.g = g
        self._alpha_cache = min(f.alpha, g.alpha)

    def _solve_omega(self):
        return _monotone_inf(
            lambda t: self.f.value(t) + self.g.value(t) >= 1.0,
            min(self.f.quantile(0.5), self.g.quantile(0.5)) - 1.0,
            max(self.f.quantile(0.5), self.g.quantile(0.5)),
        )

    def _value(self, x):
        return np.minimum(self.f._value(x) + self.g._value(x), 1.0)

    def _left(self, x):
        return np.minimum(self.f._left(x) + self.g._left(x), 1.0)

    def _value_affine(self, a, b, x):
        return np.minimum(
            self.f._value_affine(a, b, x) + self.g._value_affine(a, b, x), 1.0
        )


class ClassicalProductCdf(Cdf):
    """Classical max operation: pointwise product of the CDFs."""

    def __init__(self, f: Cdf, g: Cdf):
        super().__init__()
        self.f = f
        self.g = g
        self._alpha_cache = max(f.alpha, g.alpha)
        self._omega_cache = max(f.omega, g.omega)

    def _value(self, x):
        return self.f._value(x) * self.g._value(x)

    def _tail(self, x):
        ft = self.f._tail(x)
        gt = self.g._tail(x)
        return ft + gt - ft * gt

    def _left(self, x):
        return self.f._left(x) * self.g._left(x)


class ReflectCdf(Cdf):
    """Law of -X: value(x) = 1 - F((-x)-), with right continuity restored."""

    def __init__(self, parent: Cdf):
        super().__init__()
        self.parent = parent
        self._alpha_cache = -parent.omega
        self._omega_cache = -parent.alpha

    def _value(self, x):
        return 1.0 - self.parent._left(-x)

    def _left(self, x):
        return 1.0 - self.parent._value(-x)

    def _tail(self, x):
        return self.parent._left(-x)


class ExceedanceCdf(Cdf):
    """Law of the excess over a threshold: x -> P(X <= u + x | X > u)."""

    def __init__(self, parent: Cdf, u: float):
        super().__init__()
        u = float(u)
        if u >= parent.omega:
            raise CdfError("threshold at or above the upper support endpoint")
        tail_u = parent.tail(u)
        if not tail_u > 0.0:
            raise CdfError("empty conditioning event: tail vanishes at the threshold")
        self.parent = parent
        self.u = u
        self.tail_u = float(tail_u)
        self._omega_cache = parent.omega - u

    def _solve_alpha(self):
        return _monotone_inf(lambda t: self.value(t) > 0.0, 0.0, 1.0)

    def _tail(self, x):
        return np.where(
            x < 0.0, 1.0, np.minimum(self.parent._tail(x + self.u) / self.tail_u, 1.0)
        )

    def _left(self, x):
        raw = np.clip(
            (self.parent._left(x + self.u) - (1.0 - self.tail_u)) / self.tail_u,
            0.0,
            1.0,
        )
        return np.where(x <= 0.0, 0.0, raw)


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------
def free_max_conv(f: Cdf, g: Cdf) -> Cdf:
    """Upper extremal free convolution H(x) = max(0, F(x) + G(x) - 1)."""
    return FreeMaxConvCdf(f, g)


def free_min_conv(f: Cdf, g: Cdf) -> Cdf:
    """Lower extremal free convolution K(x) = min(F(x) + G(x), 1)."""
    return FreeMinConvCdf(f, g)


def classical_max_conv(f: Cdf, g: Cdf) -> Cdf:
    """Classical analogue: (F * G)(x) = F(x) G(x)."""
    return ClassicalProductCdf(f, g)


def free_max_iterate(f: Cdf, n: int) -> Cdf:
    """n-fold free max iterate with value max(0, n F - (n - 1))."""
    n = int(n)
    if n < 1:
        raise CdfError("iterate order must be >= 1")
    return FreeMaxPowerCdf(f, float(n))


def free_max_power(f: Cdf, s: float) -> Cdf:
    """Real-order free max power; agrees with the iterate at integer s."""
    return FreeMaxPowerCdf(f, float(s))


def rescale(f: Cdf, a: float, b: float) -> Cdf:
    """Inner affine reparametrization x -> F(a x + b), a > 0."""
    return AffineCdf(f, a, b)


def tail_quantile(f: Cdf, q: float) -> float:
    """inf{t : Fbar(t) < q}; the threshold u_n is this at q = 1/n."""
    if not 0.0 < q <= 1.0:
        raise CdfError("tail level must lie in (0, 1]")
    lo = f.alpha if math.isfinite(f.alpha) else 0.0
    hi = f.omega if math.isfinite(f.omega) else max(lo + 1.0, 1.0)
    return _monotone_inf(lambda t: f.tail(t) < q, lo, hi)


def threshold_un(f: Cdf, n: int) -> float:
    """u_n = inf{t : Fbar(t) < 1/n}; F(u_n) = 1 - 1/n for continuous laws."""
    n = int(n)
    if n < 1:
        raise CdfError("threshold order must be >= 1")
    return tail_quantile(f, 1.0 / n)


def lower_endpoint_iterate(f: Cdf, n: int) -> float:
    """Lower support endpoint of the n-fold iterate; finite for n >= 2."""
    n = int(n)
    if n < 2:
        raise CdfError("iterate endpoint is defined for n >= 2")
    return tail_quantile(f, 1.0 / n)


def exceedance_cdf(f: Cdf, u: float) -> Cdf:
    """Conditional law of the excess above u (requires Fbar(u) > 0)."""
    return ExceedanceCdf(f, u)


def reflect(f: Cdf) -> Cdf:
    """CDF of -X; interchanges the upper and lower convolutions."""
    return ReflectCdf(f)


def quantile(f: Cdf, p):
    """Generalized inverse inf{x : F(x) >= p} (module-level convenience)."""
    return f.quantile(p)


@dataclass(frozen=True)
class MeasureDecomposition:
    """Split of an upper free convolution into atom + restricted tail.

    The convolution equals the sum measure restricted strictly above the
    threshold plus a balancing atom at the threshold.  ``restricted_tail``
    is that restriction renormalized to a probability law (None when the
    atom carries all the mass).
    """

    threshold: float
    atom_mass: float
    restricted_tail: Optional[Cdf]

    def reassemble(self) -> Cdf:
        t = self.threshold
        atom = self.atom_mass
        rest = self.restricted_tail
        scale = 1.0 - atom

        def value_fn(x):
            inner = atom if rest is None else atom + scale * rest._value(x)
            return np.where(x < t, 0.0, inner)

        omega = t if rest is None else max(t, rest.omega)
        return FunctionCdf(value_fn, alpha=t, omega=omega)


def atom_decomposition_max(f: Cdf, g: Cdf) -> MeasureDecomposition:
    """Atom-plus-restriction form of ``free_max_conv(f, g)``."""
    conv = FreeMaxConvCdf(f, g)
    t = conv.alpha
    atom = float(np.clip(f.value(t) + g.value(t) - 1.0, 0.0, 1.0))
    rest_mass = f.tail(t) + g.tail(t)
    if rest_mass <= 0.0:
        return MeasureDecomposition(t, 1.0, None)

    def tail_fn(x):
        return np.where(x < t, 1.0, np.minimum((f._tail(x) + g._tail(x)) / rest_mass, 1.0))

    restricted = FunctionCdf(tail_fn=tail_fn, alpha=t, omega=max(f.omega, g.omega))
    return MeasureDecomposition(t, atom, restricted)


# ----------------------------------------------------------------------
# grids and distances
# ----------------------------------------------------------------------
def comparison_grid(*cdfs: Cdf, n: int = 2001, p_tail: float = 1e-4) -> np.ndarray:
    """Shared evaluation grid spanning tail quantiles and finite supports."""
    if not cdfs:
        raise CdfError("comparison_grid needs at least one CDF")
    lo = min(f.alpha if math.isfinite(f.alpha) else f.quantile(p_tail) for f in cdfs)
    hi = max(f.omega if math.isfinite(f.omega) else f.quantile(1.0 - p_tail) for f in cdfs)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CdfError("the tail quantiles do not span a finite range; give an explicit grid")
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    return np.linspace(lo, hi, n)


def sup_distance(f: Cdf, g: Cdf, grid: np.ndarray) -> float:
    """max over the grid of |F - G|."""
    return float(np.max(np.abs(f.value(grid) - g.value(grid))))


def ks_distance(samples: np.ndarray, f: Cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance between a sample and F."""
    x = np.sort(_as_float_array(samples).ravel())
    n = x.size
    if n == 0:
        raise CdfError("ks_distance requires a nonempty sample")
    if not np.all(np.isfinite(x)):
        raise CdfError("ks_distance requires a finite sample")
    fx = np.asarray(f.value(x))
    upper = np.max(np.arange(1, n + 1) / n - fx)
    lower = np.max(fx - np.arange(0, n) / n)
    return float(max(upper, lower))


# ----------------------------------------------------------------------
# file interfaces
# ----------------------------------------------------------------------
def cdf_table_text(f: Cdf, grid: np.ndarray) -> str:
    """Rows ``x,F`` at the grid points in the format ``csv.writer`` gives:
    a header, float reprs, CRLF ends."""
    grid = _as_float_array(grid)
    rows = zip(grid.tolist(), np.asarray(f.value(grid)).tolist())
    return "x,F\r\n" + "".join(f"{x!r},{v!r}\r\n" for x, v in rows)


def write_cdf_table(f: Cdf, grid: np.ndarray, path: str) -> str:
    """Write ``cdf_table_text`` in one write; importable by tabulated_cdf."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(cdf_table_text(f, grid))
    return path


def tabulated_cdf(path: str) -> SteppedCdf:
    """Import an ``x,F`` table as a piecewise-linear CDF."""
    xs, vs = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["x", "F"]:
            raise CdfError(f"{path}: expected header 'x,F'")
        for row in reader:
            if not row:
                continue
            xs.append(float(row[0]))
            vs.append(float(row[1]))
    return SteppedCdf(xs, vs, interpolation="linear")


def read_samples(path: str) -> np.ndarray:
    """Read one float per line, or a CSV with a ``value`` column.

    Plain files are parsed by ``np.loadtxt``: blank lines are skipped, and
    a ``#`` line, a second value on a line or a number that only Python's
    ``float`` reads (``1_000``) is an error.  Every sample must be finite.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline()
        fh.seek(0)
        if "," in first or first.strip().lower() == "value":
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "value" not in reader.fieldnames:
                raise CdfError(f"{path}: CSV sample files need a 'value' column")
            data = np.array([float(row["value"]) for row in reader if row["value"] != ""])
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # an empty file is reported below
                data = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
            if data.shape[1] != 1:
                raise CdfError(f"{path}: expected one value per line")
            data = data.ravel()
    if data.size == 0:
        raise CdfError(f"{path}: no samples found")
    if not np.all(np.isfinite(data)):
        raise CdfError(f"{path}: samples must be finite, found {data[~np.isfinite(data)][0]}")
    return data
