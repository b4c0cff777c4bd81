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

import io
import math
import numbers
import sys
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

#: comparison_grid spans the quantiles GRID_TAIL and 1 - GRID_TAIL of laws
#: with an infinite endpoint.
GRID_TAIL = 1e-4


class CdfError(ValueError):
    """Raised for malformed distribution-function input."""


def _is_number(value) -> bool:
    """A real number of any type, numpy's too; a boolean, a string or None
    is not.  The exact types go first: the ABC check costs about 1 us."""
    return type(value) in (float, int) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool))


def _real(value, what: str, low: float = 0.0, closed: bool = False) -> float:
    """A real parameter as a float: a finite number above ``low``, or at
    least ``low`` when ``closed``; anything else, None too, is a
    ``CdfError`` that names ``what``.  Law shapes, rates and masses, power
    and approximation orders, and JSON law parameters are read here."""
    if not _is_number(value):
        raise CdfError(f"{what} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # exact for an integer of any size
        raise CdfError(f"{what} must be finite, got {value!r}")
    x = float(value)
    if not (x >= low if closed else x > low):
        raise CdfError(f"{what} must be {'>=' if closed else '>'} {low:g}, got {value!r}")
    return x


def _order(value, what: str, least: int) -> int:
    """An integer order, size or count as an int: an integral number, finite
    and at least ``least``; anything else is a ``CdfError`` naming ``what``."""
    if not (_is_number(value) and abs(value) <= sys.float_info.max
            and value == math.floor(value) and value >= least):
        raise CdfError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


#: halving steps ``_monotone_inf`` decides with one predicate call
_TREE_DEPTH = 5
_TREE_SPAN = 1 << _TREE_DEPTH


def _midpoint_tree(lo: float, hi: float) -> list[float]:
    """Every midpoint the next ``_TREE_DEPTH`` halvings of [lo, hi] can
    visit, in order: entry j is the midpoint of entries j - h and j + h,
    where h is the lowest set bit of j, so entries 0 and _TREE_SPAN are
    lo and hi and a walk down the tree is a binary search over indices."""
    e = [lo] * (_TREE_SPAN + 1)
    e[_TREE_SPAN] = hi
    s = _TREE_SPAN
    while s > 1:
        h = s >> 1
        for j in range(h, _TREE_SPAN, s):
            e[j] = 0.5 * (e[j - h] + e[j + h])
        s = h
    return e


def _monotone_inf(pred: Callable, lo: float, hi: float, windows=(), key=None) -> float:
    """inf{x : pred(x)} for a monotone False->True predicate.

    ``lo``/``hi`` are hints; the bracket expands geometrically and is then
    bisected down to double resolution.  Returns +/-inf when the predicate
    never/always holds within ~1e300.  The bracket checks call ``pred`` on
    floats.  The halving runs in rounds: one call of ``pred`` on an array
    of the 2^_TREE_DEPTH - 1 midpoints the next _TREE_DEPTH steps can
    visit, then a walk that takes those steps.  Each midpoint is the one a
    step-by-step halving computes, and the walk stops where it would, so
    the result is the same double even where ``pred`` is not monotone.

    ``windows`` are candidate pairs (a, b), checked before the bracket;
    the first with ``pred(a)`` False and ``pred(b)`` True is taken.  A
    bracket end or a halving midpoint <= a or >= b is then decided by that
    comparison without a call, and a round runs only when the next
    midpoint lies inside (a, b).  ``key`` is a float map such that equal
    keys give equal predicates: a midpoint with the key of ``lo`` or of
    ``hi`` takes that end's answer without a call.  The points and the
    stopping rule are unchanged, so the result is the double of the plain
    bisection wherever ``pred`` is monotone outside the window.
    """
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        lo, hi = lo - 1.0, lo + 1.0
    a, b = -math.inf, math.inf
    for wa, wb in windows:
        if wa < wb and not pred(wa) and pred(wb):
            a, b = wa, wb
            break

    def end_holds(t):
        return t >= b or (not t <= a and pred(t))

    step = max(1.0, 0.25 * (hi - lo))
    while not end_holds(hi):
        if hi >= _HUGE:
            return math.inf
        hi = min(hi + step, _HUGE)
        step *= 4.0
    step = max(1.0, 0.25 * abs(hi - lo))
    while end_holds(lo):
        if lo <= -_HUGE:
            return -math.inf
        lo = max(lo - step, -_HUGE)
        step *= 4.0
    steps = 600
    while steps and lo < (mid := 0.5 * (lo + hi)) < hi:
        if mid <= a or (key and key(mid) == key(lo)):
            lo, steps = mid, steps - 1
            continue
        if mid >= b or (key and key(mid) == key(hi)):
            hi, steps = mid, steps - 1
            continue
        e = _midpoint_tree(lo, hi)
        holds = pred(np.array(e[1:_TREE_SPAN])).tolist()
        i, j = 0, _TREE_SPAN
        for _ in range(min(_TREE_DEPTH, steps)):
            m = (i + j) >> 1
            if not (lo < e[m] < hi):
                return hi
            if holds[m - 1]:
                hi, j = e[m], m
            else:
                lo, i = e[m], m
            steps -= 1
    return hi


#: half-widths of the windows about a closed-form guess, relative to it
_WINDOW_SCALES = (2.0**-40, 2.0**-30, 2.0**-20)
#: the least scale the half-widths take: a guess of 0 still gets windows
_WINDOW_FLOOR = 2.0**-10


def _windows_about(guess: float) -> list:
    """``_monotone_inf`` windows centred on ``guess``, narrowest first."""
    if not math.isfinite(guess):
        return []
    scale = max(abs(guess), _WINDOW_FLOOR)
    return [(guess - scale * r, guess + scale * r) for r in _WINDOW_SCALES]


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
    ``_left``, ``_quantile`` and ``_tail_integral`` are overridden where a
    closed or numerically stabler form exists.  The affine-argument hooks
    ``_tail_affine`` and ``_tail_integral_affine`` give 1 - F(a x + b) and
    the tail integral from a x + b; a leaf with a finite endpoint folds
    the map into its one endpoint formula there, and the endpoint-gap
    tail ``_tail_gap(h)`` is that hook at x -> x + omega, read at -h.
    Hooks just compute their formulas: the methods that call them ignore
    numpy's floating-point flags, since an overflow or a division by zero
    gives the right value (exp(-inf) = 0) or a lane a ``where`` drops, so a
    clamp stays only where it decides a selected lane.  Instances are immutable; all operations are pure, so concurrent reads
    are safe.
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

    def _tail_affine(self, a: float, b: float, x: np.ndarray) -> np.ndarray:
        return self._tail(a * x + b)

    def _tail_gap(self, h: np.ndarray) -> np.ndarray:
        # tail at omega - h, through the leaf's endpoint formula
        return self._tail_affine(1.0, self.omega, -h)

    def _tail_integral(self, t: float) -> Optional[float]:
        """The integral of the tail over (t, omega), t a float below omega,
        in closed form (``math.inf`` for an infinite mean), or None where
        there is none: ``mean_excess`` then integrates by quadrature."""
        return None

    def _tail_integral_affine(self, a: float, b: float, t: float) -> Optional[float]:
        """``_tail_integral`` at a t + b, for ``AffineCdf``."""
        return self._tail_integral(a * t + b)

    def _guess_quantile(self, p: float) -> float:
        """``_quantile`` at level p where it is a closed form, else nan:
        bisection windows are centred here, so this never bisects.  A
        subclass that overrides ``_quantile`` (or a ``FunctionCdf`` given
        a ``quantile_fn``) has a closed form unless it overrides this."""
        if getattr(self._quantile, "__func__", None) is Cdf._quantile:
            return math.nan
        with np.errstate(all="ignore"):
            return float(self._quantile(np.array([p], dtype=float))[0])

    #: ``_monotone_inf``'s ``key`` for this law's predicates, or None
    _bisection_key = None

    def _quantile(self, p: np.ndarray) -> np.ndarray:
        """inf{t : value(t) >= p} by bisection.  One level in (0, 1) takes
        ``_monotone_inf``'s rounds of array evaluations, in windows about
        ``_guess_quantile`` and with ``_bisection_key``; several levels are
        bisected together by ``_monotone_inf_each``.  Both give each level
        the double of a step-by-step scalar bisection."""
        lo = self.alpha if math.isfinite(self.alpha) else -1.0
        hi = self.omega if math.isfinite(self.omega) else 1.0
        out = np.where(p <= 0.0, -math.inf, self.omega)
        inner = ~((p <= 0.0) | (p >= 1.0))
        levels = p[inner]
        if levels.size == 1:
            level = levels[0]
            out[inner] = _monotone_inf(lambda t: self.value(t) >= level, lo, hi,
                                       _windows_about(self._guess_quantile(level)),
                                       self._bisection_key)
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
        """``fn`` clipped to [0, 1], numpy's flags ignored.  A scalar skips the
        array wrapping and is clipped by comparisons, which keep NaN and
        -0.0 as ``clip`` does."""
        with np.errstate(all="ignore"):
            if isinstance(x, (float, int)):
                v = float(fn(np.array([x], dtype=float))[0])
                return 0.0 if v < 0.0 else 1.0 if v > 1.0 else v
            arr = _as_float_array(x)
            out = fn(np.atleast_1d(arr)).clip(0.0, 1.0)
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

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
        """F(a*x + b) for a > 0: the value of ``rescale(self, a, b)``."""
        return rescale(self, a, b).value(x)

    def tail_affine(self, a: float, b: float, x):
        """1 - F(a*x + b) for a > 0: the tail of ``rescale(self, a, b)``."""
        return rescale(self, a, b).tail(x)

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
        with np.errstate(all="ignore"):
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

    def _tail_integral(self, t):
        """Rectangles of the tail 1 - v_i on each step, or trapezoids on
        each linear segment, from t to the end: the first breakpoint where
        the value is 1, or the last one where it is within MONOTONE_SLACK
        of 1, the slack the table's values are read with.  Below the first
        breakpoint the tail is 1.  A table that stays further below 1, or
        a t past its end, leaves only a flat tail: an infinite mean."""
        xs, vs = self.xs, self.vs
        end = int(np.searchsorted(vs, 1.0))
        if end == vs.size:
            if vs[-1] < 1.0 - MONOTONE_SLACK:
                return math.inf
            end -= 1
        k = int(np.searchsorted(xs, t, side="right"))  # xs[k - 1] <= t < xs[k]
        if k > end:
            return math.inf
        gaps = 1.0 - vs[:end + 1]
        widths = np.diff(xs[k:end + 1])
        if self.interpolation == "constant":
            head = (xs[k] - t) * (gaps[k - 1] if k else 1.0)
            body = widths * gaps[k:end]
        else:
            head = xs[k] - t
            if k:  # the trapezoid from the tail at t, interpolated from xs[k]
                part = head / (xs[k] - xs[k - 1])
                head *= gaps[k] + 0.5 * (gaps[k - 1] - gaps[k]) * part
            body = widths * (gaps[k:end] + gaps[k + 1:]) * 0.5
        return math.fsum([head, *body.tolist()])

    def _quantile(self, p):
        if self.interpolation == "constant":
            idx = np.searchsorted(self.vs, p, side="left")
            return np.where(idx >= self.vs.size, math.inf, self.xs[np.clip(idx, 0, self.vs.size - 1)])
        j = np.clip(np.searchsorted(self.vs, p, side="left"), 1, self.vs.size - 1)
        x0, x1, v0, v1 = self.xs[j - 1], self.xs[j], self.vs[j - 1], self.vs[j]
        inner = x0 + (p - v0) * (x1 - x0) / (v1 - v0)  # v1 > v0 wherever selected
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
        quantile_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        super().__init__()
        if value_fn is None and tail_fn is None:
            raise CdfError("FunctionCdf needs value_fn or tail_fn")
        hooks = {"_value": value_fn, "_tail": tail_fn, "_quantile": quantile_fn}
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
    """x -> F(a*x + b) for a > 0, built by ``rescale``: the parent's value
    at a x + b, and its tail through the parent's affine hooks."""

    def __init__(self, parent: Cdf, a: float, b: float):
        super().__init__()
        if not (0.0 < a < math.inf and math.isfinite(b)):
            raise CdfError(f"rescale requires a finite map x -> a x + b with a > 0, "
                           f"got a={a!r}, b={b!r}")
        self.parent = parent
        self.a = float(a)
        self.b = float(b)
        self._alpha_cache = (parent.alpha - self.b) / self.a
        self._omega_cache = (parent.omega - self.b) / self.a

    def _value(self, x):
        return self.parent._value(self.a * x + self.b)

    def _tail(self, x):
        return self.parent._tail_affine(self.a, self.b, x)

    def _left(self, x):
        return self.parent._left(self.a * x + self.b)

    def _tail_gap(self, h):
        return self.parent._tail_gap(self.a * h)

    def _tail_integral(self, t):
        total = self.parent._tail_integral_affine(self.a, self.b, t)
        return None if total is None else total / self.a

    def _quantile(self, p):
        return (self.parent._quantile(p) - self.b) / self.a

    def _guess_quantile(self, p):
        return (self.parent._guess_quantile(p) - self.b) / self.a


class FreeMaxPowerCdf(Cdf):
    """s-fold free max power: tail is min(s * Fbar, 1)."""

    def __init__(self, parent: Cdf, s: float):
        super().__init__()
        self.parent = parent
        self.s = _real(s, "free max power order s", 1.0, closed=True)
        self._omega_cache = parent.omega

    def _solve_alpha(self):
        if self.s == 1.0:
            return self.parent.alpha
        return tail_quantile(self.parent, 1.0 / self.s)

    def _guess_quantile(self, p):
        # the power reaches p where the parent's tail falls to (1 - p)/s
        return self.parent._guess_quantile(1.0 - (1.0 - float(p)) / self.s)

    def _tail(self, x):
        return np.minimum(self.s * self.parent._tail(x), 1.0)

    def _left(self, x):
        return np.clip(1.0 - np.minimum(self.s * (1.0 - self.parent._left(x)), 1.0), 0.0, 1.0)

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
        medians = self.f.quantile(0.5), self.g.quantile(0.5)
        return _monotone_inf(
            lambda t: self.f.tail(t) + self.g.tail(t) <= 1.0, min(medians), max(medians) + 1.0
        )

    def _tail(self, x):
        return np.minimum(self.f._tail(x) + self.g._tail(x), 1.0)

    def _left(self, x):
        return np.clip(self.f._left(x) + self.g._left(x) - 1.0, 0.0, 1.0)


class FreeMinConvCdf(Cdf):
    """Lower extremal free convolution: K = min(F + G, 1)."""

    def __init__(self, f: Cdf, g: Cdf):
        super().__init__()
        self.f = f
        self.g = g
        self._alpha_cache = min(f.alpha, g.alpha)

    def _solve_omega(self):
        medians = self.f.quantile(0.5), self.g.quantile(0.5)
        return _monotone_inf(
            lambda t: self.f.value(t) + self.g.value(t) >= 1.0, min(medians) - 1.0, max(medians)
        )

    def _value(self, x):
        return np.minimum(self.f._value(x) + self.g._value(x), 1.0)

    def _left(self, x):
        return np.minimum(self.f._left(x) + self.g._left(x), 1.0)


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
        # below half the spacing of the doubles above u, fl(u + t) = u and
        # the law is exactly 0; the answer lies about there
        u = self.u
        below = math.nextafter(0.5 * (math.nextafter(u, math.inf) - u), 0.0)
        windows = [(below, abs(u) * r) for r in _WINDOW_SCALES[1:]]
        return _monotone_inf(lambda t: self.value(t) > 0.0, 0.0, 1.0, windows,
                             self._bisection_key)

    def _bisection_key(self, t):
        # the law reads t only through fl(u + t), and is 0 below t = 0
        return self.u + t if t >= 0.0 else -math.inf

    def _guess_quantile(self, p):
        # the excess law reaches p where the parent's tail falls to (1 - p) Fbar(u)
        return self.parent._guess_quantile(1.0 - (1.0 - float(p)) * self.tail_u) - self.u

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
    return FreeMaxPowerCdf(f, _order(n, "iterate order n", 1))


def free_max_power(f: Cdf, s: float) -> Cdf:
    """Real-order free max power; agrees with the iterate at integer s."""
    return FreeMaxPowerCdf(f, s)


def rescale(f: Cdf, a: float, b: float) -> Cdf:
    """Inner affine reparametrization x -> F(a x + b), a > 0.

    The map commutes with the pointwise operations, so it moves down the
    lazy tree: a rescaled ``AffineCdf`` composes the two maps, a free max
    power or extremal convolution is rebuilt over rescaled arguments, and
    any other law is wrapped in ``AffineCdf``.  Values and tails are thus
    each leaf's value at, and tail hook at, the composed map; endpoints
    and quantiles of a rebuilt law are those of the rebuilt law, solved
    when first read.
    """
    if isinstance(f, AffineCdf):
        return AffineCdf(f.parent, f.a * a, f.a * b + f.b)
    if isinstance(f, FreeMaxPowerCdf):
        return FreeMaxPowerCdf(rescale(f.parent, a, b), f.s)
    if isinstance(f, (FreeMaxConvCdf, FreeMinConvCdf)):
        return type(f)(rescale(f.f, a, b), rescale(f.g, a, b))
    return AffineCdf(f, a, b)


def tail_quantile(f: Cdf, q: float) -> float:
    """inf{t : Fbar(t) < q}; the threshold u_n is this at q = 1/n."""
    if not 0.0 < q <= 1.0:
        raise CdfError("tail level must lie in (0, 1]")
    lo = f.alpha if math.isfinite(f.alpha) else 0.0
    hi = f.omega if math.isfinite(f.omega) else max(lo + 1.0, 1.0)
    return _monotone_inf(lambda t: f.tail(t) < q, lo, hi, _windows_about(f._guess_quantile(1.0 - q)))


def threshold_un(f: Cdf, n: int) -> float:
    """u_n = inf{t : Fbar(t) < 1/n}; F(u_n) = 1 - 1/n for continuous laws."""
    return tail_quantile(f, 1.0 / _order(n, "threshold order n", 1))


def lower_endpoint_iterate(f: Cdf, n: int) -> float:
    """Lower support endpoint of the n-fold iterate; finite for n >= 2."""
    return tail_quantile(f, 1.0 / _order(n, "iterate endpoint order n", 2))


def exceedance_cdf(f: Cdf, u: float) -> Cdf:
    """Conditional law of the excess above u (requires Fbar(u) > 0)."""
    return ExceedanceCdf(f, u)


def reflect(f: Cdf) -> Cdf:
    """CDF of -X; interchanges the upper and lower convolutions."""
    return ReflectCdf(f)


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
def comparison_grid(*cdfs: Cdf, n: int = 2001) -> np.ndarray:
    """Shared evaluation grid spanning tail quantiles and finite supports."""
    if not cdfs:
        raise CdfError("comparison_grid needs at least one CDF")
    n = _order(n, "grid size n", 2)
    lo = min(f.alpha if math.isfinite(f.alpha) else f.quantile(GRID_TAIL) for f in cdfs)
    hi = max(f.omega if math.isfinite(f.omega) else f.quantile(1.0 - GRID_TAIL) for f in cdfs)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CdfError("the tail quantiles do not span a finite range; give an explicit grid")
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    grid = np.linspace(lo, hi, n)
    if (grid[1:] <= grid[:-1]).any():
        raise CdfError(f"{n} grid points from {lo!r} to {hi!r} repeat: the doubles there "
                       "are too coarse; give an explicit grid")
    return grid


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
def _float_reprs(values, spell=repr) -> list[str]:
    """The text of each double, in one orjson (Ryu) call: ``float.__repr__``'s bytes.

    Ryu gives the shortest round-trip digits, as CPython's repr does, and
    orjson lays them out as repr does for 0 and for 1e-4 <= |v| < 1e16.
    Outside that band it writes ``1e16``, ``0.00005`` and ``null`` for
    NaN and inf, so those cells are spelled by ``spell`` instead: ``repr``
    for CSV, ``json.dumps`` for JSON (``NaN``, ``Infinity``).
    """
    import orjson  # deferred, like scipy: only table writers load it

    a = np.ascontiguousarray(values, dtype=float).ravel()
    if a.size == 0:
        return []
    cells = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    mag = np.abs(a)
    outside = np.flatnonzero(~(((mag >= 1e-4) & (mag < 1e16)) | (a == 0.0)))
    for i, text in zip(outside.tolist(), map(spell, a[outside].tolist())):
        cells[i] = text
    return cells


def cdf_table_text(f: Cdf, grid: np.ndarray) -> str:
    """Rows ``x,F`` at the grid points in the format ``csv.writer`` gives:
    a header, float reprs, CRLF ends."""
    grid = _as_float_array(grid)
    rows = zip(_float_reprs(grid), _float_reprs(f.value(grid)))
    return "\r\n".join(["x,F", *map(",".join, rows)]) + "\r\n"


def write_cdf_table(f: Cdf, grid: np.ndarray, path: str) -> str:
    """Write ``cdf_table_text`` in one write; importable by tabulated_cdf."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(cdf_table_text(f, grid))
    return path


#: the CSV layouts' dialect: quoted cells read as ``csv.reader`` reads them
_CSV = {"delimiter": ",", "quotechar": '"'}


def _header(fh) -> list[str]:
    return [cell.strip() for cell in fh.readline().split(",")]


def _loadtxt(fh, path: str, **layout) -> np.ndarray:
    """The rest of ``fh`` through numpy's parser: a 2-d array of finite floats.

    Every CDF table, and every sample file that ``_json_column`` leaves
    to numpy, is read here.  Blank lines are skipped; a ``#``, an empty
    cell or a number that only Python's ``float`` reads (``1_000``) is an
    error.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an empty file is reported below
        data = np.loadtxt(fh, dtype=float, comments=None, ndmin=2, **layout)
    if data.size == 0:
        raise CdfError(f"{path}: no values found")
    if not np.all(np.isfinite(data)):
        raise CdfError(f"{path}: values must be finite, found {data[~np.isfinite(data)][0]}")
    return data


#: the bytes of a sample body that orjson may read: JSON numbers and whitespace
_JSON_NUMBER_BYTES = b"0123456789.eE+- \t\r\n"


def _json_column(raw: bytes) -> Optional[np.ndarray]:
    """A sample file of one JSON number a line, in one orjson call.

    The body is the whole file, or what follows a header of exactly
    ``value``.  orjson's parser (yyjson) rounds correctly, as numpy's does,
    so the two agree bit for bit.  None hands the file to numpy: a byte
    that is no part of a JSON number, a token or a line JSON refuses
    (blank lines, ``+1.5``, ``.5``, ``1e400``), an empty body, and zeros,
    since orjson reads ``-0`` as the integer 0.
    """
    end = raw.find(b"\n") + 1  # the first line's end, 0 without a newline
    body = raw[end:] if raw[:end].strip() == b"value" else raw
    if body.translate(None, _JSON_NUMBER_BYTES):
        return None
    import orjson  # deferred, like scipy: only sample and table files load it

    text = b"[" + body.rstrip().replace(b"\n", b",") + b"]"
    try:
        data = np.array(orjson.loads(text), dtype=float)
    except (ValueError, OverflowError):
        return None
    if data.size == 0 or not np.all(np.isfinite(data) & (data != 0.0)):
        return None
    return data.reshape(-1, 1)


def tabulated_cdf(path: str) -> SteppedCdf:
    """Import an ``x,F`` table as a piecewise-linear CDF."""
    with open(path, newline="", encoding="utf-8") as fh:
        if _header(fh)[:2] != ["x", "F"]:
            raise CdfError(f"{path}: expected header 'x,F'")
        data = _loadtxt(fh, path, usecols=(0, 1), **_CSV)
    return SteppedCdf(data[:, 0], data[:, 1], interpolation="linear")


def read_samples(path: str) -> np.ndarray:
    """Read one float per line, or a CSV with a ``value`` column.

    A body of plain JSON numbers is read by ``_json_column``; every other
    file goes to ``_loadtxt`` under its rules and messages.  A second
    value on a line of the plain layout is an error.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    data = _json_column(raw)
    if data is None:
        fh = io.TextIOWrapper(io.BytesIO(raw), newline="", encoding="utf-8")
        header = _header(fh)
        if len(header) == 1 and header[0].lower() != "value":
            fh.seek(0)
            data = _loadtxt(fh, path)
        elif "value" in header:
            data = _loadtxt(fh, path, usecols=(header.index("value"),), **_CSV)
        else:
            raise CdfError(f"{path}: CSV sample files need a 'value' column")
    if data.shape[1] != 1:
        raise CdfError(f"{path}: expected one value per line")
    return data.ravel()
