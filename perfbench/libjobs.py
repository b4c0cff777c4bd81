"""Library jobs: direct calls into freemax's public functions.

Each job takes the ``params`` dict of its manifest entry and returns a
dict of numpy arrays; the worker compares their bytes across repeats and
saves the warm-up arrays, which ``checks.py`` verifies.  Functions are looked up on their modules at
call time, so a traced run sees its wrappers.
"""
from __future__ import annotations

import json

import numpy as np

import freemax.cdf as cdf
import freemax.laws as laws
import freemax.poisson as poisson
import freemax.spectral as spectral


def _law(spec: dict):
    return laws.make_law(laws.LawSpec.from_json(json.dumps(spec)))


def _grid(spec: str) -> np.ndarray:
    lo, hi, count = spec.split(",")
    return np.linspace(float(lo), float(hi), int(count))


def fc_quantiles(params: dict) -> dict:
    """200 generic (bisection) quantiles of f_1 applied to the Gumbel law."""
    image = laws.f_c_map(laws.GumbelCdf(), 1.0)
    levels = np.asarray(params["levels"])
    return {"levels": levels, "quantiles": np.asarray(image.quantile(levels))}


def fc_sweep(params: dict) -> dict:
    """f_c(F G) and f_c(F) free-max f_c(G) on a grid, for each case."""
    out = {}
    for i, case in enumerate(params["cases"]):
        f, g, c = _law(case["law"]), _law(case["law2"]), case["c"]
        grid = _grid(case["grid"])
        lhs = laws.f_c_map(cdf.classical_max_conv(f, g), c)
        rhs = cdf.free_max_conv(laws.f_c_map(f, c), laws.f_c_map(g, c))
        out[f"lhs{i}"] = np.asarray(lhs.value(grid))
        out[f"rhs{i}"] = np.asarray(rhs.value(grid))
    return out


def spectral_max(params: dict) -> dict:
    """a v b for two Haar-rotated diagonal matrices with the given spectra."""
    seed = params["seed"]
    a = spectral.haar_conjugate(
        spectral.HermitianMatrix(np.diag(np.sort(params["a"]))), seed, 0)
    b = spectral.haar_conjugate(
        spectral.HermitianMatrix(np.diag(np.sort(params["b"]))), seed, 1)
    top = spectral.spectral_max(a, b)
    return {"a": a.eigenvalues, "b": b.eigenvalues, "top": top.eigenvalues}


def triangular(params: dict) -> dict:
    """Realize the triangular process over three atoms and snapshot their union."""
    masses = params["masses"]
    partition = poisson.Partition.from_pairs((f"t{i}", m) for i, m in enumerate(masses))
    realization = poisson.realize_triangular_process(partition, params["N"], params["seed"])
    snap = poisson.triangular_snapshot(realization, partition.ids)
    out = {f"in{i}": realization[k].eigenvalues for i, k in enumerate(partition.ids)}
    out["snapshot"] = snap.eigenvalues
    return out


CALLS = {f.__name__: f for f in (fc_quantiles, fc_sweep, spectral_max, triangular)}
