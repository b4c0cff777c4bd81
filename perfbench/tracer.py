"""Spans around calls into freemax's public functions, recorded from outside.

``Tracer.install()`` replaces every public module-level function of the
layer modules, and a few public methods, with wrappers that record a
span: a name, a start, an end, the id of the enclosing span, and a few
counts taken from the arguments.  Module-level bindings are patched
wherever the original function object appears in a loaded ``freemax``
module, because ``cli``, ``poisson``, ``attraction`` and ``laws`` import
names directly.  ``uninstall()`` restores every binding.  Wrappers pass
arguments and results through untouched, so reports do not change.

Spans stay in memory; the worker folds each job's spans into per-layer
sums and keeps the raw spans of one pass to write out when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref

import numpy as np

LAYERS = ("cdf", "laws", "attraction", "spectral", "poisson")

EVAL_METHODS = ("value", "__call__", "tail", "left", "value_affine", "tail_affine", "tail_gap")
# position of the evaluation points among each method's arguments (after self)
EVAL_ARG = {"value_affine": 2, "tail_affine": 2}


def _points(x) -> tuple[int, bool]:
    if isinstance(x, float):
        return 1, True
    arr = np.asarray(x)
    return arr.size, arr.ndim == 0


class Tracer:
    def __init__(self):
        self.records: list[tuple] = []
        self._stack: list[list] = []
        self._next = 0
        self._patches: list[tuple] = []
        # Cdf instances made by the poisson layer: "mp" or "triangular"
        self.tags: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _enter(self):
        sid = self._next
        self._next = sid + 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        return sid, parent, frame

    def _exit(self, sid, parent, frame, name, t0, attr):
        t1 = time.perf_counter()
        self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        self.records.append((sid, parent, name, t0, t1, dur - frame[1], attr))

    def _wrap(self, name, fn, attr_of=None, tag=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attr = attr_of(args) if attr_of is not None else None
            sid, parent, frame = tracer._enter()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(sid, parent, frame, name, t0, attr)
            if tag is not None:
                tracer.tags[result] = tag
            return result

        return wrapper

    def _wrap_eval(self, fn, pos):
        tracer = self
        names = {None: "cdf.eval", "mp": "poisson.mp_eval", "triangular": "poisson.triangular_eval"}

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            name = names[tracer.tags.get(obj)]
            attr = _points(args[pos]) if len(args) > pos else (0, False)
            sid, parent, frame = tracer._enter()
            t0 = time.perf_counter()
            try:
                return fn(obj, *args, **kwargs)
            finally:
                tracer._exit(sid, parent, frame, name, t0, attr)

        return wrapper

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        import freemax.cdf as cdf
        import freemax.cli as cli
        import freemax.poisson as poisson
        import freemax.spectral as spectral

        replacements = {cli.dispatch: self._wrap("cli.dispatch", cli.dispatch)}
        attrs = {
            "attraction.fit_gpd": lambda a: np.size(a[0]),
            "poisson.sample_free_poisson_matrix": lambda a: (
                tuple(sorted(str(s) for s in a[1])), int(a[2]), repr(a[3])),
        }
        tags = {"poisson.mp_cdf": "mp", "poisson.triangular_law_cdf": "triangular"}
        for layer in LAYERS:
            module = sys.modules[f"freemax.{layer}"]
            for fname, fn in vars(module).items():
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{fname}"
                replacements[fn] = self._wrap(name, fn, attrs.get(name), tags.get(name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "freemax" or mod_name.startswith("freemax."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in replacements:
                        self._patch(module, attr, replacements[value])

        base = cdf.Cdf
        evals = {}
        for meth in EVAL_METHODS:
            fn = base.__dict__[meth]
            if fn not in evals:
                evals[fn] = self._wrap_eval(fn, EVAL_ARG.get(meth, 0))
            self._patch(base, meth, evals[fn])
        self._patch(base, "quantile", self._wrap(
            "cdf.quantile", base.quantile, lambda a: int(np.size(a[1]))))
        for prop in ("alpha", "omega"):
            self._patch(base, prop, property(self._wrap("cdf.endpoint", base.__dict__[prop].fget)))

        hm = spectral.HermitianMatrix
        self._patch(hm, "__init__", self._wrap(
            "spectral.eigensolve", hm.__init__, lambda a: int(np.shape(a[1])[0])))
        self._patch(hm, "from_spectrum", classmethod(self._wrap(
            "spectral.from_spectrum", hm.__dict__["from_spectrum"].__func__)))
        mp = poisson.MpCdf
        self._patch(mp, "conditional_nonzero", self._wrap(
            "poisson.conditional_nonzero", mp.conditional_nonzero, tag="mp"))

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[tuple]:
        """Return and clear the spans recorded since the last call."""
        records, self.records = self.records, []
        return records


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: name -> (unit, better); the order is the order of the report
LAYER_METRICS = {
    "cli.jobs": ("count", "higher"),
    "cli.self_ms_per_job": ("ms", "lower"),
    "cdf.eval_calls": ("count", "lower"),
    "cdf.eval_points": ("count", "lower"),
    "cdf.eval_self_s": ("s", "lower"),
    "cdf.scalar_eval_calls": ("count", "lower"),
    "cdf.quantile_levels": ("count", "lower"),
    "cdf.quantile_self_s": ("s", "lower"),
    "cdf.scalar_evals_per_level": ("ratio", "lower"),
    "cdf.grid_s": ("s", "lower"),
    "cdf.ks_distance_s": ("s", "lower"),
    "cdf.read_samples_s": ("s", "lower"),
    "laws.verify_max_stable_s": ("s", "lower"),
    "attraction.mean_excess_s": ("s", "lower"),
    "attraction.norming_s": ("s", "lower"),
    "attraction.bdh_s": ("s", "lower"),
    "attraction.fit_gpd_calls": ("count", "higher"),
    "attraction.fit_gpd_samples": ("count", "higher"),
    "attraction.fit_gpd_s": ("s", "lower"),
    "attraction.fit_gpd_us_per_sample": ("us", "lower"),
    "spectral.eigensolves": ("count", "lower"),
    "spectral.eigensolve_dim_sum": ("count", "lower"),
    "spectral.eigensolve_s": ("s", "lower"),
    "spectral.from_spectrum_s": ("s", "lower"),
    "spectral.spectral_max_calls": ("count", "lower"),
    "spectral.spectral_max_self_s": ("s", "lower"),
    "spectral.join_meet_s": ("s", "lower"),
    "spectral.haar_s": ("s", "lower"),
    "spectral.empirical_cdf_s": ("s", "lower"),
    "poisson.sample_calls": ("count", "lower"),
    "poisson.sample_distinct": ("count", "lower"),
    "poisson.sample_useful_ratio": ("ratio", "higher"),
    "poisson.sample_s": ("s", "lower"),
    "poisson.range_projection_s": ("s", "lower"),
    "poisson.mp_eval_points": ("count", "lower"),
    "poisson.mp_eval_s": ("s", "lower"),
    "poisson.triangular_s": ("s", "lower"),
}

# spans whose self time is bisection work on the inverse side of a Cdf
INVERSE = {"cdf.quantile", "cdf.tail_quantile", "cdf.threshold_un",
           "cdf.lower_endpoint_iterate", "cdf.endpoint"}
# groups timed as wall time: a span nested in one of its own group counts once
GROUPS = {
    "cdf.grid_s": {"cdf.comparison_grid"},
    "cdf.ks_distance_s": {"cdf.ks_distance"},
    "cdf.read_samples_s": {"cdf.read_samples"},
    "laws.verify_max_stable_s": {"laws.verify_max_stable"},
    "attraction.mean_excess_s": {"attraction.mean_excess"},
    "attraction.norming_s": {"attraction.norming_constants"},
    "attraction.bdh_s": {"attraction.balkema_de_haan_check"},
    "attraction.fit_gpd_s": {"attraction.fit_gpd"},
    "spectral.eigensolve_s": {"spectral.eigensolve"},
    "spectral.from_spectrum_s": {"spectral.from_spectrum"},
    "spectral.join_meet_s": {"spectral.proj_join", "spectral.proj_meet"},
    "spectral.haar_s": {"spectral.haar_orthogonal", "spectral.haar_projection",
                        "spectral.haar_conjugate"},
    "spectral.empirical_cdf_s": {"spectral.empirical_spectral_cdf"},
    "poisson.range_projection_s": {"poisson.range_projection"},
    "poisson.mp_eval_s": {"poisson.mp_eval"},
    "poisson.triangular_s": {"poisson.realize_triangular_process", "poisson.triangular_snapshot",
                             "poisson.triangular_law_cdf", "poisson.triangular_eval"},
}


def job_sums(records: list[tuple]) -> dict:
    """Fold one job's spans into additive sums (counts and seconds)."""
    s = dict.fromkeys(
        ["cli.jobs", "cli.self_s", "cdf.eval_calls", "cdf.eval_points", "cdf.eval_self_s",
         "cdf.scalar_eval_calls", "cdf.quantile_levels", "cdf.quantile_self_s",
         "attraction.fit_gpd_calls", "attraction.fit_gpd_samples", "spectral.eigensolves",
         "spectral.eigensolve_dim_sum", "spectral.spectral_max_calls",
         "spectral.spectral_max_self_s", "poisson.sample_calls", "poisson.sample_distinct",
         "poisson.sample_s", "poisson.mp_eval_points"] + list(GROUPS), 0)
    eval_parents = set()
    sample_keys = set()
    for sid, parent, name, t0, t1, self_s, attr in records:
        if name == "cdf.eval":
            s["cdf.eval_calls"] += 1
            s["cdf.eval_points"] += attr[0]
            s["cdf.scalar_eval_calls"] += attr[1]
            s["cdf.eval_self_s"] += self_s
            eval_parents.add(parent)
        elif name == "poisson.mp_eval":
            s["poisson.mp_eval_points"] += attr[0]
        elif name == "cli.dispatch":
            s["cli.jobs"] += 1
            s["cli.self_s"] += self_s
        elif name == "cdf.quantile":
            s["cdf.quantile_levels"] += attr
        elif name == "cdf.tail_quantile":
            s["cdf.quantile_levels"] += 1
        elif name == "attraction.fit_gpd":
            s["attraction.fit_gpd_calls"] += 1
            s["attraction.fit_gpd_samples"] += attr
        elif name == "spectral.eigensolve":
            s["spectral.eigensolves"] += 1
            s["spectral.eigensolve_dim_sum"] += attr
        elif name == "spectral.spectral_max":
            s["spectral.spectral_max_calls"] += 1
            s["spectral.spectral_max_self_s"] += self_s
        elif name == "poisson.sample_free_poisson_matrix":
            s["poisson.sample_calls"] += 1
            s["poisson.sample_s"] += self_s
            sample_keys.add(attr)
        if name in INVERSE:
            s["cdf.quantile_self_s"] += self_s
    s["poisson.sample_distinct"] = len(sample_keys)
    # an endpoint counts as a solved level when it bisected (evaluated) itself
    s["cdf.quantile_levels"] += sum(
        1 for sid, _, name, *_ in records if name == "cdf.endpoint" and sid in eval_parents)

    grouped = set().union(*GROUPS.values())
    parent_of = {r[0]: (r[1], r[2]) for r in records}
    for sid, parent, name, t0, t1, _, _ in records:
        if name not in grouped:
            continue
        for metric, group in GROUPS.items():
            if name not in group:
                continue
            p = parent
            while p != -1 and parent_of.get(p, (-1, ""))[1] not in group:
                p = parent_of.get(p, (-1, ""))[0]
            if p == -1:
                s[metric] += t1 - t0
    return s


def layer_metrics(sums: dict) -> dict:
    """Per-layer metrics of one pass from its summed job sums."""
    m = {k: sums[k] for k in LAYER_METRICS if k in sums}
    m["cli.self_ms_per_job"] = 1e3 * sums["cli.self_s"] / max(sums["cli.jobs"], 1)
    m["cdf.scalar_evals_per_level"] = (
        sums["cdf.scalar_eval_calls"] / sums["cdf.quantile_levels"]
        if sums["cdf.quantile_levels"] else 0.0)
    m["attraction.fit_gpd_us_per_sample"] = (
        1e6 * sums["attraction.fit_gpd_s"] / sums["attraction.fit_gpd_samples"]
        if sums["attraction.fit_gpd_samples"] else 0.0)
    m["poisson.sample_useful_ratio"] = (
        sums["poisson.sample_distinct"] / sums["poisson.sample_calls"]
        if sums["poisson.sample_calls"] else 0.0)
    return {k: m[k] for k in LAYER_METRICS}
