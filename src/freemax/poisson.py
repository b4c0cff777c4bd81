"""Random-matrix realizations of the free Poisson and extremal processes.

A finite partition (atoms with nonnegative masses) indexes everything.
Wishart-type blocks Gamma_j Gamma_j^T with variance-1/N Gaussian entries
realize the free Poisson process over the partition: each atom owns a
fixed block of columns, so the process is additive over disjoint subsets
by construction.  Range projections of those matrices realize the
projection-valued upper extremal process, and quantile-diagonal matrices
under independent Haar rotations realize the triangular one.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from .cdf import Cdf, CdfError, FunctionCdf, _order, _real, ks_distance
from .spectral import (
    HermitianMatrix,
    Projection,
    derive_seed,
    haar_orthogonal,
    rng_from_seed,
    spectral_max,
)

__all__ = [
    "Partition",
    "ProcessRecord",
    "ProcessReport",
    "RANGE_TOL",
    "MAX_TOTAL_MASS",
    "sample_free_poisson_matrix",
    "range_projection",
    "mp_cdf",
    "triangular_law_cdf",
    "realize_triangular_process",
    "triangular_snapshot",
    "extremal_process_report",
]

#: Eigenvalues above RANGE_TOL * lambda_max count as range directions.
RANGE_TOL = 1e-8

#: Largest total partition mass: ranks saturate at mass 1, more only adds columns.
MAX_TOTAL_MASS = 16.0


@dataclass(frozen=True)
class Partition:
    """Finite measure space: ordered atoms with nonnegative masses."""

    atoms: Tuple[Tuple[str, float], ...]

    def __post_init__(self):
        seen = set()
        for atom_id, mass in self.atoms:
            if atom_id in seen:
                raise CdfError(f"duplicate atom id {atom_id!r}")
            seen.add(atom_id)
            _real(mass, f"atom {atom_id!r} mass", 0.0, closed=True)
        if self.total_mass > MAX_TOTAL_MASS:
            raise CdfError(f"total mass {self.total_mass} exceeds MAX_TOTAL_MASS = {MAX_TOTAL_MASS}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[str, float]]) -> "Partition":
        return cls(tuple((str(i), float(m)) for i, m in pairs))

    @classmethod
    def from_json(cls, text: str) -> "Partition":
        """An object whose ``atoms`` array holds objects with a string
        ``id`` and a JSON-number ``mass``; every other layout is a
        ``CdfError`` that names the atom and the field."""
        raw = json.loads(text)
        atoms = raw.get("atoms") if isinstance(raw, dict) else None
        if not isinstance(atoms, list):
            raise CdfError("partition JSON must be an object with an 'atoms' array")
        pairs = []
        for index, atom in enumerate(atoms):
            if not isinstance(atom, dict):
                raise CdfError(f"atom {index} must be an object with 'id' and 'mass', got {atom!r}")
            atom_id, mass = atom.get("id"), atom.get("mass")
            if not isinstance(atom_id, str):
                raise CdfError(f"atom {index} needs a string 'id', got {atom_id!r}")
            pairs.append((atom_id, _real(mass, f"atom {atom_id!r} mass", 0.0, closed=True)))
        return cls(tuple(pairs))

    def to_json(self) -> str:
        return json.dumps(
            {"atoms": [{"id": i, "mass": m} for i, m in self.atoms]}
        )

    @property
    def ids(self) -> Tuple[str, ...]:
        return tuple(i for i, _ in self.atoms)

    @property
    def total_mass(self) -> float:
        return float(sum(m for _, m in self.atoms))

    def mass(self, subset: Iterable[str]) -> float:
        chosen = self._validate(subset)
        return float(sum(m for i, m in self.atoms if i in chosen))

    def _validate(self, subset: Iterable[str]) -> frozenset:
        chosen = frozenset(str(s) for s in subset)
        unknown = chosen - set(self.ids)
        if unknown:
            raise CdfError(f"unknown atom ids: {sorted(unknown)}")
        return chosen

    def _starved(self, n: int) -> Tuple[str, ...]:
        """One notice per atom of positive mass that gets no columns at N."""
        return tuple(f"atom {atom_id!r} with mass {mass} receives no columns at N={n}"
                     for atom_id, mass in self.atoms if mass > 0 and round(mass * n) == 0)

    def column_counts(self, n: int) -> Dict[str, int]:
        """Columns allotted per atom: round(mass * N), fixed by the partition;
        warns once per atom of positive mass that gets none."""
        for notice in self._starved(n):
            warnings.warn(notice, stacklevel=2)
        return {atom_id: int(round(mass * n)) for atom_id, mass in self.atoms}


def _atom_block(index: int, count: int, n: int, seed: int) -> np.ndarray:
    """The atom's dedicated Gaussian block, variance 1/N, drawn by split seed."""
    block = rng_from_seed(seed, index).standard_normal((n, count))
    block /= math.sqrt(n)  # in place: the bits of ``/``, without a second N x count array
    return block


def _subset_blocks(partition: Partition, subset: Iterable[str], n: int, seed: int) -> dict:
    """The subset's atom blocks by atom id, in partition order; atoms without columns own none."""
    chosen = partition._validate(subset)
    counts = partition.column_counts(n)
    return {
        atom_id: _atom_block(index, counts[atom_id], n, seed)
        for index, (atom_id, _) in enumerate(partition.atoms)
        if atom_id in chosen and counts[atom_id] > 0
    }


def sample_free_poisson_matrix(
    partition: Partition, subset: Iterable[str], n: int, seed: int
) -> HermitianMatrix:
    """Wishart-type matrix for a subset: sum of its atoms' Gamma_j Gamma_j^T.

    Atom blocks depend only on (seed, atom index), so disjoint subsets
    with the same seed are built from disjoint column blocks and the
    process is additive over them (bitwise so whenever the accumulation
    trees coincide, e.g. singleton unions; always so up to roundoff).
    """
    n = _order(n, "free Poisson dimension N", 8)
    total = np.zeros((n, n))
    for block in _subset_blocks(partition, subset, n, seed).values():
        total += block @ block.T
    return HermitianMatrix(total)


def _range_mask(values: np.ndarray) -> np.ndarray:
    """Eigenvalues that count as range directions: above RANGE_TOL * max."""
    return values > RANGE_TOL * values.max(initial=0.0)


def range_projection(a: HermitianMatrix) -> Projection:
    """Projection onto the eigenvectors that pass ``_range_mask`` (eigenvalue
    above RANGE_TOL * max), the rule by which the process report counts ranks."""
    lam = a.eigenvalues
    if float(lam[0]) < -RANGE_TOL * max(1.0, float(lam[-1])):
        raise CdfError("range projection needs a positive semidefinite input")
    return Projection(a.eigenvectors[:, _range_mask(lam)])


# ----------------------------------------------------------------------
# limit laws
# ----------------------------------------------------------------------
class MpCdf(Cdf):
    """Free Poisson (Marchenko-Pastur) law with rate a and jump size 1.

    Atom max(0, 1-a) at zero plus the semicircle-type density
    sqrt((lam+ - x)(x - lam-)) / (2 pi x) on [(1-sqrt a)^2, (1+sqrt a)^2].
    The CDF is the density's elementary antiderivative: with c, d the
    centre and half-width of the support and r = sqrt((lam+ - t)(t - lam-)),
    r + c asin((t - c)/d) - sqrt(lam- lam+) asin((c t - lam- lam+)/(d t)),
    divided by 2 pi, taken from lam- to x.
    """

    def __init__(self, a_param: float):
        super().__init__()
        self.rate = _real(a_param, "free Poisson rate")
        root = math.sqrt(self.rate)
        self.lam_minus = (1.0 - root) ** 2
        self.lam_plus = (1.0 + root) ** 2
        self.atom = max(0.0, 1.0 - self.rate)
        self._alpha_cache = 0.0 if self.atom > 0.0 else self.lam_minus
        self._omega_cache = self.lam_plus

    def density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = (x > self.lam_minus) & (x < self.lam_plus)
        safe = np.where(inside, x, 1.0)
        out = np.sqrt(np.clip((self.lam_plus - safe) * (safe - self.lam_minus), 0.0, None))
        return np.where(inside, out / (2.0 * math.pi * safe), 0.0)

    # nested np.where and the ndarray clip method: np.select's broadcasts
    # and np.clip's wrapper cost more than the formula, with the same bits
    def _value(self, x):
        a, b = self.lam_minus, self.lam_plus
        c, d, sab = 0.5 * (a + b), 0.5 * (b - a), math.sqrt(a * b)
        t = x.clip(a, b)
        prim = np.sqrt(((b - t) * (t - a)).clip(0.0, None))
        prim = prim + c * np.arcsin(((t - c) / d).clip(-1.0, 1.0))
        if sab > 0.0:  # at rate 1, a = 0: the term vanishes and t may be 0
            prim = prim - sab * np.arcsin(((c * t - a * b) / (d * t)).clip(-1.0, 1.0))
        # the antiderivative at the lower edge is -(pi/2)(c - sqrt(ab))
        cont = (prim + 0.5 * math.pi * (c - sab)) / (2.0 * math.pi)
        inside = (self.atom + cont).clip(self.atom, 1.0)
        return np.where(x < 0.0, 0.0, np.where(x < a, self.atom, np.where(x >= b, 1.0, inside)))

    def _left(self, x):
        return np.where(x == 0.0, 0.0, self._value(x))

    def conditional_nonzero(self) -> Cdf:
        """The law conditioned on the continuous (nonzero) part."""
        if self.atom <= 0.0:
            return self
        parent = self
        scale = 1.0 - parent.atom

        def value_fn(x):
            return ((parent._value(x) - parent.atom) / scale).clip(0.0, 1.0)

        return FunctionCdf(value_fn, alpha=parent.lam_minus, omega=parent.lam_plus)


def mp_cdf(a_param: float) -> MpCdf:
    """Free Poisson (Marchenko-Pastur) CDF with rate ``a_param``."""
    return MpCdf(a_param)


class TriangularCdf(Cdf):
    """Marginal law of the triangular extremal process at total mass m.

    The tail at t is min((1-t) m, 1) on [0, 1): an atom 1-m at zero plus
    uniform density m on (0, 1) when m <= 1, uniform on [1 - 1/m, 1]
    when m > 1.
    """

    def __init__(self, m: float):
        super().__init__()
        self.m = _real(m, "triangular law mass")
        self._alpha_cache = max(0.0, 1.0 - 1.0 / self.m)
        self._omega_cache = 1.0

    def _value(self, x):
        return np.where(x < 0.0, 0.0, np.clip((1.0 - self.m) + self.m * x, 0.0, 1.0))

    def _tail(self, x):
        return self._tail_affine(1.0, 0.0, x)

    def _tail_affine(self, a, b, x):
        # tail 1 below the atom at zero; at the gap map (1, 1, -h), h > 1
        inner = np.clip(self.m * ((1.0 - b) - a * x), 0.0, 1.0)
        return np.where(a * x + b < 0.0, 1.0, inner)

    def _left(self, x):
        vals = self._value(x)
        if self.m < 1.0:
            return np.where(np.asarray(x) == 0.0, 0.0, vals)
        return vals

    def _quantile(self, p):
        return np.clip((p - (1.0 - self.m)) / self.m, self._alpha_cache, 1.0)


def triangular_law_cdf(m: float) -> TriangularCdf:
    return TriangularCdf(m)


# ----------------------------------------------------------------------
# triangular process realization
# ----------------------------------------------------------------------
def realize_triangular_process(
    partition: Partition, n: int, seed: int
) -> Dict[str, HermitianMatrix]:
    """One matrix per atom: quantile-diagonal spectrum of its triangular
    law under an independent Haar rotation (freeness surrogate)."""
    n = _order(n, "triangular process dimension N", 8)
    out = {}
    probs = (np.arange(n) + 0.5) / n
    for index, (atom_id, mass) in enumerate(partition.atoms):
        if mass <= 0:
            out[atom_id] = HermitianMatrix(np.zeros((n, n)))
            continue
        law = TriangularCdf(mass)
        spectrum = np.asarray(law.quantile(probs), dtype=float)
        u = haar_orthogonal(n, seed, index)
        out[atom_id] = HermitianMatrix._assemble(spectrum, u)
    return out


def triangular_snapshot(
    realization: Dict[str, HermitianMatrix], subset: Iterable[str]
) -> HermitianMatrix:
    """Process value over a subset: spectral max across its atoms."""
    wanted = set(str(s) for s in subset)
    unknown = wanted - set(realization)
    if unknown:
        raise CdfError(f"unknown atom ids: {sorted(unknown)}")
    keys = [k for k in realization if k in wanted]
    if not keys:
        raise CdfError("snapshot needs a nonempty subset")
    result = realization[keys[0]]
    for key in keys[1:]:
        result = spectral_max(result, realization[key])
    return result


# ----------------------------------------------------------------------
# process report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProcessRecord:
    subset: Tuple[str, ...]
    n_dim: int
    tau_y: float
    expected: float
    join_additivity_ok: bool
    ks_distance: float

    def to_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "N": self.n_dim,
            "tau_Y": self.tau_y,
            "expected": self.expected,
            "join_additivity_ok": self.join_additivity_ok,
            "ks_distance": self.ks_distance,
        }


@dataclass(frozen=True)
class ProcessReport:
    records: Tuple[ProcessRecord, ...]
    trials: int
    seed: int
    warnings: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "records": [r.to_dict() for r in self.records],
            "warnings": list(self.warnings),
        }


def _gram(blocks: list) -> np.ndarray:
    """The smaller Gram matrix of the blocks side by side, for the
    eigenvalues of sum_j B_j B_j^T.

    With Gamma the blocks side by side (N x C), Gamma^T Gamma and
    Gamma Gamma^T share their nonzero eigenvalues; when C < N the C x C
    side is solved, which drops N - C zeros but no range direction.
    """
    if not blocks:
        return np.zeros((0, 0))
    gamma = blocks[0] if len(blocks) == 1 else np.hstack(blocks)
    n, c = gamma.shape
    return gamma.T @ gamma if c < n else gamma @ gamma.T


def _read_last(arrays: dict, subset: tuple, i: int, last: dict) -> list:
    """The subset's arrays; those that no subset after the i-th reads leave
    ``arrays``, so they are freed once the Gram is formed, before its
    eigensolve."""
    return [arrays.pop(a) if last[a] == i else arrays[a] for a in subset if a in arrays]


def extremal_process_report(
    partition: Partition,
    subsets: Sequence[Iterable[str]],
    n: int,
    trials: int,
    seed: int,
) -> ProcessReport:
    """Trace law, join additivity, and spectrum fit for each subset.

    Trials run outermost, and each draws every named atom's block once.
    Per subset: the mean normalized rank across trials against
    min(mass, 1); for multi-atom subsets, whether on the first trial the
    subset's rank equals the rank of the join of its atoms' ranges; and
    the mean KS distance of the nonzero spectrum to the conditional free
    Poisson law.  ``_range_mask`` counts every rank: the subset's from its
    Wishart eigenvalues, the join's from the eigenvalues of the sum of the
    atoms' range projections.  Each atom's basis is the reduced Householder
    Q of its block, all min(N, columns) columns: orthonormal by construction,
    and a Gaussian block has full rank with probability 1.
    """
    n = _order(n, "free Poisson dimension N", 8)
    trials = _order(trials, "trial count", 1)
    seed = _order(seed, "seed", 0)
    canonical = [tuple(i for i in partition.ids if i in partition._validate(s)) for s in subsets]
    named = {atom for subset in canonical for atom in subset}
    in_joins = {atom for subset in canonical if len(subset) > 1 for atom in subset}
    spectra = [[] for _ in canonical]  # per subset, per trial: the nonzero eigenvalues
    join_ok = [True] * len(canonical)
    # the index of the last subset that reads each atom's block, and its basis
    last_block = {atom: i for i, subset in enumerate(canonical) for atom in subset}
    last_basis = {atom: i for i, subset in enumerate(canonical) if len(subset) > 1
                  for atom in subset}
    for t in range(trials):
        blocks = _subset_blocks(partition, named, n, derive_seed(seed, t))
        if t == 0:
            bases = {atom: np.linalg.qr(blocks[atom])[0] for atom in in_joins & blocks.keys()}
        for i, subset in enumerate(canonical):
            lam = np.linalg.eigvalsh(_gram(_read_last(blocks, subset, i, last_block)))
            spectra[i].append(lam[_range_mask(lam)])
            if t == 0 and len(subset) > 1:
                join = np.linalg.eigvalsh(_gram(_read_last(bases, subset, i, last_basis)))
                join_ok[i] = spectra[i][0].size == join[_range_mask(join)].size
    records = []
    for subset, spectrum, ok in zip(canonical, spectra, join_ok):
        mu = partition.mass(subset)
        cond = mp_cdf(mu).conditional_nonzero() if mu > 0 else None
        ks_vals = [ks_distance(nz, cond) for nz in spectrum if cond is not None and nz.size]
        records.append(ProcessRecord(
            subset=subset,
            n_dim=n,
            tau_y=float(np.mean([nz.size / n for nz in spectrum])),
            expected=min(mu, 1.0),
            join_additivity_ok=ok,
            ks_distance=float(np.mean(ks_vals)) if ks_vals else 1.0,
        ))
    return ProcessReport(records=tuple(records), trials=trials, seed=seed,
                         warnings=partition._starved(n))
