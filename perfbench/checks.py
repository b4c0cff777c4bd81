"""Output checks against references computed apart from freemax.

Every reference comes from scipy.stats, closed forms, or the benchmark's
own numpy; nothing is compared with a stored copy of earlier output.
``check(job, read_output(job))`` raises ``CheckFailed`` with a reason;
``read_output`` gives the list of file texts a CLI job wrote, or the
dict of arrays a library job returned (saved by the worker).  ``run.py``
runs the checks in its own process after the worker has ended.

Three references re-draw the program's random matrices from the
documented seed path (``SeedSequence(entropy=seed, spawn_key=path)``
with PCG64): the general-position projections, whose join and meet
ranks are recomputed here, and the free Poisson reports and eigenvalue
dump (one Gaussian block per atom, variance 1/N), whose spectra and
ranks are computed here with ``numpy.linalg``.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy import stats

LAW_ATOL = 1e-12


class CheckFailed(Exception):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# reference laws
# ----------------------------------------------------------------------
class RefLaw:
    """cdf / sf / isf / logcdf of a ``--law`` spec, from scipy.stats."""

    def __init__(self, spec: dict):
        self.kind = spec["kind"]
        self.shape = spec.get("shape")
        self.loc = float(spec.get("location", 0.0))
        self.scale = float(spec.get("scale", 1.0))
        a, loc, sc = self.shape, self.loc, self.scale
        self.dist = {
            "FreeTypeI": lambda: stats.expon(loc=loc, scale=sc),
            "FreeTypeII": lambda: stats.pareto(a, loc=loc, scale=sc),
            # 1 - |x|^a on [-1, 0]: -X follows the power law x^a on [0, 1]
            "FreeTypeIII": lambda: stats.powerlaw(a, loc=-loc, scale=sc),
            "GeneralizedPareto": lambda: stats.genpareto(a, loc=loc, scale=sc),
            "ClassicalGumbel": lambda: stats.gumbel_r(loc=loc, scale=sc),
            "ClassicalFrechet": lambda: stats.invweibull(a, loc=loc, scale=sc),
            "ClassicalWeibull": lambda: stats.weibull_max(a, loc=loc, scale=sc),
            "Uniform": lambda: stats.uniform(loc=loc, scale=sc),
            "StdNormal": lambda: stats.norm(loc=loc, scale=sc),
        }[self.kind]()
        self.reflected = self.kind == "FreeTypeIII"

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return self.dist.sf(-x) if self.reflected else self.dist.cdf(x)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return self.dist.cdf(-x) if self.reflected else self.dist.sf(x)

    def logcdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return self.dist.logsf(-x) if self.reflected else self.dist.logcdf(x)

    def isf(self, q):
        return -self.dist.ppf(q) if self.reflected else self.dist.isf(q)

    @property
    def omega(self) -> float:
        return {
            "FreeTypeIII": self.loc,
            "ClassicalWeibull": self.loc,
            "Uniform": self.loc + self.scale,
            "GeneralizedPareto": self.loc + self.scale / abs(self.shape or 0.0)
            if (self.shape or 0.0) < 0 else math.inf,
        }.get(self.kind, math.inf)

    def endpoint_gap(self, n: int) -> float:
        """omega - u_n in closed form (no cancellation against omega)."""
        q = 1.0 / n
        if self.kind == "Uniform":
            return self.scale * q
        if self.kind == "FreeTypeIII":
            return self.scale * q ** (1.0 / self.shape)
        if self.kind == "ClassicalWeibull":
            return self.scale * (-math.log1p(-q)) ** (1.0 / self.shape)
        if self.kind == "GeneralizedPareto" and self.shape < 0:
            g = abs(self.shape)
            return self.scale * q**g / g
        raise CheckFailed(f"no endpoint gap for {self.kind}")

    def mean_excess(self, t: float) -> float:
        """E[X - t | X > t] in closed form."""
        z = (t - self.loc) / self.scale
        if self.kind == "FreeTypeI":
            return self.scale
        if self.kind == "StdNormal":
            return self.scale * (math.exp(stats.norm.logpdf(z) - stats.norm.logsf(z)) - z)
        if self.kind == "ClassicalGumbel":
            # integral of 1 - exp(-e^-s) over (z, inf) is Ein(e^-z)
            w = math.exp(-z)
            ein = sum((-1) ** (k + 1) * w**k / (k * math.factorial(k)) for k in range(1, 40))
            return self.scale * ein / -math.expm1(-w)
        raise CheckFailed(f"no mean excess for {self.kind}")


def _close(got, want, rtol, atol, what: str) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want)
    bad = err > atol + rtol * np.abs(want)
    _require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    _require(not np.any(bad), f"{what}: worst error {float(np.max(err)):.3g}")


def _payload(text: str) -> dict:
    return json.loads(text)["payload"]


def _table(text: str) -> tuple[np.ndarray, np.ndarray]:
    if text.startswith("{"):
        rows = _payload(text)["table"]
        return np.array([r["x"] for r in rows]), np.array([r["F"] for r in rows])
    reader = csv.reader(io.StringIO(text))
    _require(next(reader) == ["x", "F"], "table header is not x,F")
    xs, fs = zip(*((float(a), float(b)) for a, b in reader))
    return np.array(xs), np.array(fs)


def _grid_flag(argv: list[str]):
    for a in argv:
        if a.startswith("--grid="):
            lo, hi, count = a.split("=", 1)[1].split(",")
            return np.linspace(float(lo), float(hi), int(count))
    return None


def _grid_size(argv: list[str]) -> int:
    return int(argv[argv.index("--grid-size") + 1]) if "--grid-size" in argv else 2001


def _check_grid(job, xs) -> None:
    want = _grid_flag(job["argv"])
    if want is None:
        _require(xs.size == _grid_size(job["argv"]), f"default grid has {xs.size} points")
        _require(np.all(np.diff(xs) > 0), "default grid is not increasing")
    else:
        _close(xs, want, 1e-15, 1e-15, "explicit grid")


def _seq(entropy: int, *path: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(entropy), spawn_key=tuple(path))


def _gaussian(seq: np.random.SeedSequence, shape) -> np.ndarray:
    return np.random.Generator(np.random.PCG64(seq)).standard_normal(shape)


# ----------------------------------------------------------------------
# analytic
# ----------------------------------------------------------------------
def _bracket(got, ref, xs, laws: list[dict], what: str) -> None:
    """got within LAW_ATOL of ref(x') for some x' a few ulps from x.

    freemax evaluates F(a x + b) with a = 1/scale, b = -location/scale;
    its rounding moves the argument by about eps (|x| + |location|).
    Where F is steep (a power law at its endpoint) that move, not an
    error of the program, dominates, so the reference is bracketed by
    its values at x -/+ that move.  F and the convolutions of F and G
    are nondecreasing, so the bracket is [ref(x - d), ref(x + d)].
    """
    loc = max(abs(law.get("location", 0.0)) for law in laws)
    d = 8.0 * np.finfo(float).eps * (np.abs(xs) + loc)
    lo, hi = ref(xs - d), ref(xs + d)
    bad = (got < lo - LAW_ATOL) | (got > hi + LAW_ATOL)
    worst = float(np.max(np.maximum(lo - got, got - hi), initial=0.0))
    _require(not np.any(bad), f"{what}: worst error {worst:.3g} outside the rounding bracket")


def _law_table(job, out):
    xs, fs = _table(out[0])
    _check_grid(job, xs)
    law = job["check"]["law"]
    _bracket(fs, RefLaw(law).cdf, xs, [law], "law table")


def _conv_table(job, out):
    c = job["check"]
    xs, hs = _table(out[0])
    _check_grid(job, xs)
    f, g = RefLaw(c["law"]), RefLaw(c["law2"])
    op = {"free_max": lambda x: np.maximum(f.cdf(x) + g.cdf(x) - 1.0, 0.0),
          "free_min": lambda x: np.minimum(f.cdf(x) + g.cdf(x), 1.0),
          "classical": lambda x: f.cdf(x) * g.cdf(x)}[c["op"]]
    _bracket(hs, op, xs, [c["law"], c["law2"]], f"{c['op']} table")


def _argv_ns(argv: list[str]) -> list[int]:
    return [int(v) for v in argv[argv.index("--n") + 1].split(",")]


def _norming_ref(law: RefLaw, itype: str, n: int) -> tuple[float, float]:
    if itype == "I":
        b = float(law.isf(1.0 / n))
        return law.mean_excess(b), b
    if itype == "II":
        return float(law.isf(1.0 / n)), 0.0
    return law.endpoint_gap(n), law.omega


def _norming_rtol(law: RefLaw, itype: str) -> float:
    # Type I scales come from adaptive quadrature (absolute tolerance 1e-10)
    return 1e-7 if itype == "I" and law.kind != "FreeTypeI" else 1e-9


def _iterate(job, out):
    c = job["check"]
    rows = _payload(out[0])["rows"]
    law = RefLaw(c["law"])
    _require([r["n"] for r in rows] == _argv_ns(job["argv"]), "rows not in order of n")
    rtol = _norming_rtol(law, c["itype"])
    for r in rows:
        a, b = _norming_ref(law, c["itype"], r["n"])
        _close(r["a_n"], a, rtol, 0.0, f"a_n at n={r['n']}")
        _close(r["b_n"], b, rtol, 1e-12, f"b_n at n={r['n']}")
    dists = np.array([r["sup_distance"] for r in rows])
    if c["exact"]:
        _require(np.all(dists <= 1e-12), f"triad distances {dists.tolist()} above 1e-12")
    else:
        _require(np.all(np.diff(dists) < 0), f"distances {dists.tolist()} do not fall with n")


def _stable(job, out):
    c = job["check"]
    p = _payload(out[0])
    law, k = c["law"], c["k"]
    kind = law["kind"]
    if kind.startswith("Free"):
        if kind == "FreeTypeI":
            a, b = 1.0, law.get("scale", 1.0) * math.log(k)
        else:
            theta = 1.0 / law["shape"] if kind == "FreeTypeII" else -1.0 / law["shape"]
            a, b = k**theta, 0.0
        _require(p["stable"] is True, f"{kind} reported not max-stable")
        _require(p["sup_distance"] <= p["tol"], "fixed-point distance above tol")
        _close(p["a"], a, 1e-9, 0.0, "stability a")
        _close(p["b"], b, 1e-9, 1e-9, "stability b")
    else:
        _require(p["stable"] is False, f"{kind} reported max-stable")
        _require(p["sup_distance"] > 1e-3, "negative control distance too small")


def _rv_ref(law: RefLaw, alpha: float, at_infinity: bool, xs, scales) -> float:
    worst = 0.0
    for s in scales:
        for x in xs:
            if at_infinity:
                dev = law.sf(s * x) / law.sf(s) - x ** (-alpha)
            else:
                w = law.omega
                dev = law.sf(w - x * s) / law.sf(w - s) - x**alpha
            worst = max(worst, abs(float(dev)))
    return worst


def _attract(job, out):
    c = job["check"]
    p = _payload(out[0])
    law = RefLaw(c["law"])
    rows = p["constants"]
    _require([r["n"] for r in rows] == _argv_ns(job["argv"]), "constants not in order of n")
    rtol = _norming_rtol(law, c["itype"])
    for r in rows:
        a, b = _norming_ref(law, c["itype"], r["n"])
        _close(r["a_n"], a, rtol, 0.0, f"a_n at n={r['n']}")
        _close(r["b_n"], b, rtol, 1e-12, f"b_n at n={r['n']}")
    if c["itype"] == "I":
        _close(p["mean_excess_at_un"], law.mean_excess(rows[-1]["b_n"]), rtol, 0.0,
               "mean excess at u_n")
    if c["rv_alpha"] is not None:
        want = _rv_ref(law, c["rv_alpha"], c["itype"] == "II", c["rv_x"], c["rv_scales"])
        _close(p["rv_deviation"], want, 1e-7, 1e-11, "regular variation deviation")


def _pot_law(job, out):
    c = job["check"]
    rows = _payload(out[0])["rows"]
    law = RefLaw(c["law"])
    g_median = float(stats.genpareto(c["gamma"]).ppf(0.5))
    for r in rows:
        u = r["u"]
        excess_median = float(law.isf(0.5 * law.sf(u))) - u
        _close(r["sigma_u"], excess_median / g_median, 1e-8, 0.0, f"sigma_u at u={u}")
    dists = np.array([r["sup_distance"] for r in rows])
    if c["exact"]:
        _require(np.all(dists <= 1e-12), f"exact GPD exceedances at distance {dists.tolist()}")
    else:
        _require(np.all(np.diff(dists) < 0), f"distances {dists.tolist()} do not fall with u")


def _fc_quantiles(job, out):
    p, q = out["levels"], out["quantiles"]
    # f_1 maps the Gumbel law to 1 - exp(-x) on [0, inf)
    def f(x):
        return np.maximum(1.0 + stats.gumbel_r.logcdf(x), 0.0)
    _require(np.all(np.isfinite(q)), "non-finite quantile")
    _require(np.all(f(q) >= p - 1e-13), "F(q) < p: quantile too small")
    below = q - 1e-9 * (1.0 + np.abs(q))
    _require(np.all(f(below) < p), "F(q-) > p: quantile too large")


def _fc_sweep(job, out):
    for i, case in enumerate(job["params"]["cases"]):
        xs = _grid_flag([f"--grid={case['grid']}"])
        c = case["c"]
        lf, lg = RefLaw(case["law"]).logcdf(xs), RefLaw(case["law2"]).logcdf(xs)
        lhs = np.maximum(1.0 + c * (lf + lg), 0.0)
        rhs = np.maximum(np.maximum(1.0 + c * lf, 0.0) + np.maximum(1.0 + c * lg, 0.0) - 1.0, 0.0)
        _close(out[f"lhs{i}"], lhs, 0.0, 1e-10, f"f_c(FG) case {i}")
        _close(out[f"rhs{i}"], rhs, 0.0, 1e-10, f"f_c F free-max f_c G case {i}")
        _close(out[f"lhs{i}"], out[f"rhs{i}"], 0.0, 1e-12, f"homomorphism case {i}")


# ----------------------------------------------------------------------
# pot_fit
# ----------------------------------------------------------------------
def _read_samples(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split()
    if lines[0] == "value":
        lines = lines[1:]
    return np.array([float(v) for v in lines])


def _gpd_ll(x, gamma, sigma) -> float:
    with np.errstate(all="ignore"):
        return float(np.sum(stats.genpareto.logpdf(x, gamma, scale=sigma)))


def _pot_fit(job, out):
    c = job["check"]
    fit = _payload(out[0])
    data = _read_samples(c["samples"])
    x = data[data > c["u"]] - c["u"]
    x = x[x > 0]
    _require(fit["n_exceedances"] == x.size, f"{fit['n_exceedances']} exceedances, want {x.size}")
    g, s, ll = fit["gamma_hat"], fit["sigma_hat"], fit["log_likelihood"]
    tol = 1e-9 * abs(ll)
    _close(ll, _gpd_ll(x, g, s), 1e-9, 0.0, "log-likelihood at the fit")
    if c["gamma0"] is not None:
        _require(ll >= _gpd_ll(x, c["gamma0"], c["sigma0"]) - tol,
                 "fit is beaten by the generating parameters")
    for dg in (-1e-3, 0.0, 1e-3):
        for ds in (-1e-3, 0.0, 1e-3):
            if dg or ds:
                _require(_gpd_ll(x, g + dg, s * (1.0 + ds)) <= ll + tol,
                         f"fit is beaten at gamma{dg:+g}, sigma*(1{ds:+g})")
    if g < 0:
        _require(float(np.max(x)) <= s / abs(g), "support invariant max x <= sigma/|gamma| fails")


# ----------------------------------------------------------------------
# spectral_lab
# ----------------------------------------------------------------------
def _records(text: str) -> list[dict]:
    return _payload(text)["records"]


def _general_position(job, out):
    """Each trial's verdict against ranks recomputed from re-drawn projections.

    The report carries one verdict per trial: 1 when the join has rank
    min(r1 + r2, N) and the meet rank max(0, r1 + r2 - N).  The two
    ranges are re-drawn here from the seed path (trial, 0) and (trial, 1);
    the join's rank is the numerical rank of both bases side by side, and
    the meet's follows from dim(P v Q) + dim(P ^ Q) = r1 + r2.
    """
    recs = _records(out[0])
    argv, c = job["argv"], job["check"]
    n, seed = c["N"], int(argv[argv.index("--seed") + 1])
    trials = int(argv[argv.index("--trials") + 1])
    _require(len(recs) == trials, "one record per trial")
    combos = [(r1, r2) for r1 in c["ranks"] for r2 in c["ranks"]]
    for trial, rec in enumerate(recs):
        r1, r2 = combos[trial % len(combos)]
        bases = [_gaussian(_seq(seed, trial, side), (n, r)) for side, r in ((0, r1), (1, r2))]
        join = int(np.linalg.matrix_rank(np.hstack([np.linalg.qr(b)[0] for b in bases])))
        meet = r1 + r2 - join
        ok = join == min(r1 + r2, n) and meet == max(0, r1 + r2 - n)
        _require(rec["value"] == (1.0 if ok else 0.0),
                 f"trial {trial}: verdict {rec['value']}, ranks give join {join}, meet {meet}")


def _conv_identity(job, out):
    recs = _records(out[0])
    _require(all(r["value"] <= 1e-12 for r in recs), "spectral max/min identity error above 1e-12")


def _approx(job, out):
    c = job["check"]
    vals = np.array([r["value"] for r in _records(out[0])]).reshape(c["trials"], c["p"])
    _require(np.all(np.diff(vals, axis=1) < 0), f"distances {vals.tolist()} do not fall with p")


def _ecdf(sorted_values: np.ndarray, x: np.ndarray, side: str = "right") -> np.ndarray:
    return np.searchsorted(sorted_values, x, side=side) / sorted_values.size


def _spectral_max(job, out):
    p = job["params"]
    a, b, top = np.sort(p["a"]), np.sort(p["b"]), out["top"]
    _require(np.array_equal(out["a"], a) and np.array_equal(out["b"], b),
             "Haar conjugation changed an input spectrum")
    _require(np.all(np.isin(top, np.concatenate([a, b]))),
             "an eigenvalue of a v b is not an input eigenvalue")
    h = np.maximum(_ecdf(a, top) + _ecdf(b, top) - 1.0, 0.0)
    _close(_ecdf(np.sort(top), top), h, 0.0, 1e-12, "(F_a + F_b - 1)+ at the eigenvalues")


def _triangular_cdf(m: float, x: np.ndarray) -> np.ndarray:
    return np.where(x < 0.0, 0.0, 1.0 - np.clip(m * (1.0 - x), 0.0, 1.0))


def _triangular(job, out):
    p = job["params"]
    n = p["N"]
    probs = (np.arange(n) + 0.5) / n
    inputs = []
    for i, m in enumerate(p["masses"]):
        want = np.clip((probs - (1.0 - m)) / m, max(0.0, 1.0 - 1.0 / m), 1.0)
        _close(out[f"in{i}"], want, 0.0, 1e-12, f"atom {i} spectrum")
        inputs.append(out[f"in{i}"])
    snap = np.sort(out["snapshot"])
    _require(np.all(np.isin(snap, np.concatenate(inputs))), "snapshot eigenvalue not an input one")
    f = _triangular_cdf(sum(p["masses"]), snap)
    f_left = np.where(snap <= 0.0, 0.0, f)  # the law's only jump is its atom at 0
    ks = max(float(np.max(np.abs(_ecdf(snap, snap) - f))),
             float(np.max(np.abs(_ecdf(snap, snap, "left") - f_left))))
    _require(ks <= 0.03, f"snapshot is {ks:.4f} from min((1-t)m, 1)")


# ----------------------------------------------------------------------
# poisson_lab
# ----------------------------------------------------------------------
def mp_cdf(rate: float, x) -> np.ndarray:
    """Marchenko-Pastur CDF by its elementary antiderivative."""
    x = np.asarray(x, dtype=float)
    a, b = (1.0 - math.sqrt(rate)) ** 2, (1.0 + math.sqrt(rate)) ** 2
    c, d, sab = 0.5 * (a + b), 0.5 * (b - a), math.sqrt(a * b)
    atom = max(0.0, 1.0 - rate)

    def prim(t):
        r = np.sqrt(np.clip((b - t) * (t - a), 0.0, None))
        inner = np.clip((c * t - a * b) / (d * t), -1.0, 1.0)
        return r + c * np.arcsin(np.clip((t - c) / d, -1.0, 1.0)) - sab * np.arcsin(inner)

    inside = np.clip(x, a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        cont = (prim(np.where(inside > 0, inside, b)) - prim(max(a, 1e-300))) / (2.0 * math.pi)
    out = np.where(x < a, atom, atom + cont)
    out = np.where(x >= b, 1.0, out)
    return np.where(x < 0.0, 0.0, out)


def _mp_conditional(rate: float, x) -> np.ndarray:
    atom = max(0.0, 1.0 - rate)
    return np.clip((mp_cdf(rate, x) - atom) / (1.0 - atom), 0.0, 1.0)


def _wishart_blocks(atoms: list[dict], subset: list[str], n: int, seed: int) -> list:
    blocks = []
    for index, atom in enumerate(atoms):
        count = round(atom["mass"] * n)
        if atom["id"] in subset and count:
            blocks.append(_gaussian(_seq(seed, index), (n, count)) / math.sqrt(n))
    return blocks


def _wishart_eigs(atoms: list[dict], subset: list[str], n: int, seed: int) -> np.ndarray:
    total = np.zeros((n, n))
    for block in _wishart_blocks(atoms, subset, n, seed):
        total += block @ block.T
    return np.linalg.eigvalsh(total)


def _rank(lam: np.ndarray) -> int:
    # the program's range tolerance: eigenvalues above 1e-8 of the largest
    return int(np.count_nonzero(lam > 1e-8 * lam[-1])) if lam[-1] > 0 else 0


def _join_additive(atoms: list[dict], subset: list[str], n: int, seed: int) -> bool:
    """rank of the subset's matrix == rank of the join of its atoms' ranges.

    Each atom's range is the column span of its Gaussian block, so the
    join's rank is the numerical rank of the blocks side by side.
    """
    whole = _rank(_wishart_eigs(atoms, subset, n, seed))
    join = int(np.linalg.matrix_rank(np.hstack(_wishart_blocks(atoms, subset, n, seed))))
    return whole == join


def _ks(sample: np.ndarray, f) -> float:
    x = np.sort(sample)
    fx = f(x)
    k = np.arange(1, x.size + 1) / x.size
    return float(max(np.max(k - fx), np.max(fx - (k - 1.0 / x.size))))


def _poisson(job, out):
    c = job["check"]
    atoms, n, seed, trials = c["atoms"], c["N"], c["seed"], c["trials"]
    order = [a["id"] for a in atoms]
    subsets = [[i for i in order if i in group.split(",")] for group in c["subsets"].split(";")]
    report = _payload(out[0])
    _require(report["seed"] == seed and report["trials"] == trials, "seed or trials misreported")
    _require(report["warnings"] == [], f"unexpected warnings {report['warnings']}")
    _require(len(report["records"]) == len(subsets), "one record per subset")
    for rec, subset in zip(report["records"], subsets):
        masses = [a["mass"] for a in atoms if a["id"] in subset]
        rank = min(sum(round(m * n) for m in masses), n)
        _require(rec["subset"] == subset and rec["N"] == n, f"record for {subset} mislabeled")
        _require(abs(rec["tau_Y"] * n - rank) <= 1e-9,
                 f"tau_Y {rec['tau_Y']} for {subset} is not the Wishart rank {rank}/{n}")
        _close(rec["expected"], min(sum(masses), 1.0), 1e-12, 0.0, "expected trace")
        seeds = [int(_seq(seed, t).generate_state(1, dtype=np.uint64)[0] >> 1)
                 for t in range(trials)]
        # the program compares ranks on the first trial's matrices
        additive = len(subset) < 2 or _join_additive(atoms, subset, n, seeds[0])
        _require(rec["join_additivity_ok"] is additive,
                 f"join additivity for {subset}: {rec['join_additivity_ok']}, ranks give {additive}")
        mu = sum(masses)
        ks = []
        for trial_seed in seeds:
            lam = _wishart_eigs(atoms, subset, n, trial_seed)
            ks.append(_ks(lam[lam > 1e-8 * lam[-1]], lambda x: _mp_conditional(mu, x)))
        _close(rec["ks_distance"], float(np.mean(ks)), 0.0, 1e-6, f"KS distance for {subset}")
    if c["dump"]:
        rows = list(csv.reader(io.StringIO(out[1])))
        _require(rows[0] == ["index", "lambda"], "eigenvalue dump header")
        dumped = np.array([float(r[1]) for r in rows[1:]])
        want = _wishart_eigs(atoms, subsets[0], n, seed)
        _close(dumped, want, 0.0, 1e-10 * float(want[-1]), "dumped eigenvalues")


def _mp_table(job, out):
    xs, fs = _table(out[0])
    _check_grid(job, xs)
    _close(fs, mp_cdf(job["check"]["rate"], xs), 0.0, 1e-8, "Marchenko-Pastur table")


def _triangular_table(job, out):
    xs, fs = _table(out[0])
    _check_grid(job, xs)
    _close(fs, _triangular_cdf(job["check"]["m"], xs), 0.0, LAW_ATOL, "triangular law table")


CHECKS = {
    "law_table": _law_table,
    "conv_table": _conv_table,
    "iterate": _iterate,
    "stable": _stable,
    "attract": _attract,
    "pot_law": _pot_law,
    "fc_quantiles": _fc_quantiles,
    "fc_sweep": _fc_sweep,
    "pot_fit": _pot_fit,
    "general_position": _general_position,
    "conv_identity": _conv_identity,
    "approx": _approx,
    "spectral_max": _spectral_max,
    "triangular": _triangular,
    "poisson": _poisson,
    "mp_table": _mp_table,
    "triangular_table": _triangular_table,
}


def read_output(job: dict):
    """The file texts a CLI job wrote, or the arrays a library job saved."""
    if job["kind"] == "lib":
        with np.load(job["outputs"][0]) as saved:
            return {k: saved[k] for k in saved.files}
    texts = []
    for path in job["outputs"]:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    return texts


def check(job: dict, output) -> None:
    CHECKS[job["check"]["type"]](job, output)
