"""Sampling solver for locally stable, density-bounded instances.

The solver draws m vertices i.i.d. uniformly (with replacement), and for a
collection of bipartitions (L, R) of the sample multiset forms the cut

    S = {x : w(x, R) > w(x, L)}

keeping the heaviest valid cut, which ``instance.heaviest_side`` picks as
for every other solver.  Ties w(x, R) = w(x, L) put x on the complement side
of S, deterministically.  With the true sides of the sample as the
partition, every vertex lands correctly unless its weighted sample majority
falls on its own side; the failure probability of that event is bounded by
``failure_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SolverFailure
from .instance import Cut, Instance, heaviest_side

_SCORE_CHUNK = 1 << 14

ENUMERATION_CAP = 22  # largest m of enumerate mode: 2^22 partitions


def sample_size(C: float, eps: float, n: int) -> int:
    """Sample size sufficient for the failure union bound: ceil(2*(C*(2+eps)/eps)^2 * ln(2n))."""
    if not C >= 1.0:
        raise ParameterError("C must be >= 1")
    if not 0.0 < eps < math.inf:
        raise ParameterError("eps must be finite and positive")
    if n < 2:
        raise ParameterError("n must be >= 2")
    try:
        return math.ceil(2.0 * (C * (2.0 + eps) / eps) ** 2 * math.log(2 * n))
    except OverflowError:
        raise ParameterError(f"sample size overflows at C={C}, eps={eps}, n={n}") from None


def failure_bound(C: float, gamma: float, m: int, n: int) -> float:
    """n * exp(-((gamma-1)/(C*(gamma+1)))^2 * m / 2), clamped to [0, 1].

    Vacuous (1.0) for gamma <= 1.  gamma may be +inf, but not NaN.
    """
    if not 1.0 <= C < math.inf:
        raise ParameterError("C must be finite and >= 1")
    if math.isnan(gamma):
        raise ParameterError("gamma must not be NaN")
    if gamma <= 1.0:
        return 1.0
    ratio = 1.0 if math.isinf(gamma) else (gamma - 1.0) / (gamma + 1.0)
    return min(1.0, n * math.exp(-0.5 * (ratio / C) ** 2 * m))


@dataclass(frozen=True)
class DenseSolverConfig:
    """Configuration for ``dense_solve`` and ``metric_dense_solve``.

    m defaults to ``sample_size(C, eps, n)``.  The fields that are set pick the
    sample bipartitions: with ``seed_cut``, the sample's true sides under that
    cut (test harnesses); with ``k``, k uniformly drawn ones; with neither, all
    2^m (m <= ENUMERATION_CAP).  Construction checks every field; the solve
    checks only the enumeration cap on the resolved m and the size of seed_cut.
    """

    eps: float | None = None
    C: float | None = None
    m: int | None = None
    k: int | None = None
    seed: int = 0
    seed_cut: Cut | None = None

    def __post_init__(self):
        if self.C is not None and not 1.0 <= self.C < math.inf:
            raise ParameterError("C must be finite and >= 1")
        if self.eps is not None and not 0.0 < self.eps < math.inf:
            raise ParameterError("eps must be finite and positive")
        if self.m is None:
            if self.C is None or self.eps is None:
                raise ParameterError("either m or both C and eps must be set")
            sample_size(self.C, self.eps, 2)  # raises when the size overflows even at n = 2
        elif not self.m >= 1:
            raise ParameterError("m must be >= 1")
        if self.k is not None and not self.k >= 1:
            raise ParameterError("k must be >= 1")
        if self.k is not None and self.seed_cut is not None:
            raise ParameterError("give k or seed_cut, not both")

    def resolve_m(self, n: int) -> int:
        return self.m if self.m is not None else sample_size(self.C, self.eps, n)


def draw_samples(n: int, m: int, seed: int) -> np.ndarray:
    """m i.i.d. uniform vertices, with replacement (duplicates are kept)."""
    return np.random.default_rng(seed).integers(0, n, size=m)


def _partition_chunks(cfg: DenseSolverConfig, samples: np.ndarray,
                      sample_sides: np.ndarray | None):
    """Yield boolean (k, m) partition blocks; True marks a sample assigned to R.

    Enumeration is chunked so that 2^ENUMERATION_CAP partitions stay within memory.
    """
    m = samples.size
    if sample_sides is not None:
        # R gets the samples on the planted False side, so the recovered S
        # lines up with the planted True side.
        yield ~sample_sides[None, :]
    elif cfg.k is not None:
        rng = np.random.default_rng(cfg.seed + 1)
        for lo in range(0, cfg.k, _SCORE_CHUNK):
            yield rng.integers(0, 2, size=(min(_SCORE_CHUNK, cfg.k - lo), m)).astype(bool)
    else:
        if m > ENUMERATION_CAP:
            raise ParameterError(f"enumerate mode caps m at {ENUMERATION_CAP}, got {m}")
        shifts = np.arange(m, dtype=np.uint64)
        for lo in range(0, 1 << m, _SCORE_CHUNK):
            ks = np.arange(lo, min(lo + _SCORE_CHUNK, 1 << m), dtype=np.uint64)
            yield ((ks[:, None] >> shifts[None, :]) & 1).astype(bool)


def induced_side_matrix(W: np.ndarray, samples: np.ndarray,
                        r_masks: np.ndarray) -> np.ndarray:
    """Sides S = {x : w(x,R) > w(x,L)} for every partition row; (n, K) boolean."""
    M = W[:, samples]
    signs = np.where(r_masks, 1.0, -1.0)  # +1 toward R, -1 toward L
    return (M @ signs.T) > 0.0


def best_induced_cut(inst: Instance, votes: np.ndarray, samples: np.ndarray,
                     cfg: DenseSolverConfig) -> Cut:
    """Heaviest valid cut of ``inst`` induced by the sample partitions ``cfg`` selects.

    ``samples`` are vertices of ``inst`` and vertex x votes with the row
    ``votes[x, samples]``.  Raises SolverFailure when every considered
    partition induces a degenerate assignment (one side empty); callers may
    retry with a fresh seed.
    """
    sample_sides = None
    if cfg.seed_cut is not None:
        if cfg.seed_cut.n != inst.n:
            raise ParameterError("seed_cut size mismatch")
        sample_sides = cfg.seed_cut.side[samples]
    hit = heaviest_side(inst, (induced_side_matrix(votes, samples, r_masks)
                               for r_masks in _partition_chunks(cfg, samples, sample_sides)))
    if hit is None:
        raise SolverFailure("every sample partition induced a degenerate cut")
    return Cut(hit[1])


def dense_solve(inst: Instance, cfg: DenseSolverConfig) -> Cut:
    """Run the sampling solver with ``inst``'s own weights as votes; see ``best_induced_cut``."""
    samples = draw_samples(inst.n, cfg.resolve_m(inst.n), cfg.seed)
    return best_induced_cut(inst, inst.weights, samples, cfg)


def per_vertex_failures(inst: Instance, cut: Cut, samples: np.ndarray) -> np.ndarray:
    """Misclassification indicators for the seeded partition of ``samples``.

    Vertex x fails when the side recovered from the sample's true partition
    differs from its own side under ``cut``; in particular a weighted sample
    majority on x's own side (or a tie, for x on the True side) is a failure.
    """
    r_mask = ~cut.side[samples]
    sides = induced_side_matrix(inst.weights, samples, r_mask[None, :])
    return sides[:, 0] != cut.side
