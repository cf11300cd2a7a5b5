"""Instance families with known planted optima and tunable stability.

All generators are deterministic functions of their parameters and seed.
The PRNG (numpy's default PCG64 stream) is recorded in the claims metadata
of every planted instance so runs can be reproduced across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolationError, ParameterError
from .instance import Cut, Instance, support_connected
from .oracle import cut_stability_gamma, local_stability_gamma

PRNG_NAME = "numpy.random.default_rng(PCG64)"

INF = math.inf


@dataclass(frozen=True)
class PlantedInstance:
    """An instance together with the cut it was built around.

    ``claims`` records the family, its parameters, and any property the
    generator actually verified (e.g. a stability level confirmed by the
    exact oracle).
    """

    instance: Instance
    planted_cut: Cut
    claims: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.planted_cut.n != self.instance.n:
            raise ParameterError("planted cut does not match the instance size")


def _balanced_side(n: int, rng: np.random.Generator) -> np.ndarray:
    side = np.zeros(n, dtype=bool)
    side[rng.permutation(n)[: n // 2]] = True
    return side


def gen_planted_partition(n: int, p: float, q: float, seed: int) -> PlantedInstance:
    """Planted-partition model: unit edges cross with probability p, same-side with q < p.

    The split is a random balanced bipartition; disconnected draws are
    rejected and resampled from the same stream.
    """
    if not (0.0 <= q < p <= 1.0):
        raise ParameterError(f"need 0 <= q < p <= 1, got p={p}, q={q}")
    if n < 4:
        raise ParameterError("planted partition needs n >= 4")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        side = _balanced_side(n, rng)
        u = np.triu(rng.random((n, n)), k=1)
        cross = side[:, None] != side[None, :]
        prob = np.where(cross, p, q)
        W = np.triu((u < prob) & (u > 0.0), k=1).astype(np.float64)
        W = W + W.T
        if support_connected(W):
            claims = {"family": "planted-partition", "n": n, "p": p, "q": q,
                      "seed": seed, "prng": PRNG_NAME}
            if q == 0.0:
                claims["gamma"] = INF  # bipartite support
            return PlantedInstance(Instance(W), Cut(side), claims)
    raise InvariantViolationError("could not draw a connected instance in 1000 tries")


def gen_stable_bipartite_noise(n: int, gamma_target: float, seed: int) -> PlantedInstance:
    """A balanced bipartition with cross weights in [1, 2] plus bounded same-side noise.

    The noise is scaled so that the planted cut is gamma_target-stable.  The
    scaling is exact: cut edges are precisely the cross pairs, so the subset
    stability of the planted cut is inversely proportional to the noise
    scale.  For n <= 20 the level achieved is confirmed by the exact subset
    oracle; above that only per-vertex (local) stability is verified.
    """
    if not gamma_target >= 1.0:
        raise ParameterError("gamma_target must be >= 1")
    if n < 4 or n % 2:
        raise ParameterError("need an even n >= 4")
    rng = np.random.default_rng(seed)
    side = _balanced_side(n, rng)
    cross = side[:, None] != side[None, :]
    base = np.triu(rng.uniform(1.0, 2.0, (n, n)), k=1)
    noise = np.triu(rng.uniform(0.5, 1.0, (n, n)), k=1)
    base[~np.triu(cross, k=1)] = 0.0
    noise[~np.triu(~cross, k=1)] = 0.0
    base = base + base.T
    noise = noise + noise.T
    cut = Cut(side)

    exhaustive = n <= 20
    claims = {"family": "stable-bipartite-noise", "n": n, "gamma_target": gamma_target,
              "seed": seed, "prng": PRNG_NAME,
              "verification": "subset-oracle" if exhaustive else "per-vertex"}

    def measure(W):
        inst = Instance(W)
        g = cut_stability_gamma(inst, cut) if exhaustive else local_stability_gamma(inst, cut)
        return inst, g

    if math.isinf(gamma_target):
        inst, achieved = measure(base)
        claims["gamma"] = achieved
        return PlantedInstance(inst, cut, claims)

    _, gamma_raw = measure(base + noise)
    factor = min(1.0, gamma_raw / gamma_target * (1.0 - 1e-9))
    inst, achieved = measure(base + factor * noise)
    if not achieved >= gamma_target:
        raise InvariantViolationError("noise scaling failed to reach the stability target")
    claims["gamma"] = achieved
    return PlantedInstance(inst, cut, claims)


def gen_euclidean_metric(n: int, dim: int, separation: float, seed: int) -> PlantedInstance:
    """Two Gaussian point clouds of n/2 points with centers ``separation`` apart.

    Weights are Euclidean distances; the planted cut is the cluster split.
    No optimality is claimed: for small separations the cluster split need
    not be the maximum cut.
    """
    if n % 2 or n < 2:
        raise ParameterError("need an even n >= 2")
    if dim < 1:
        raise ParameterError("dim must be >= 1")
    if not 0.0 < separation < INF:  # NaN fails both comparisons
        raise ParameterError("separation must be finite and positive")
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, dim))
    pts[n // 2:, 0] += separation
    W = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    side = np.zeros(n, dtype=bool)
    side[: n // 2] = True
    claims = {"family": "euclidean-metric", "n": n, "dim": dim,
              "separation": separation, "seed": seed, "prng": PRNG_NAME,
              "planted_verified": False}
    return PlantedInstance(Instance(W), Cut(side), claims)


def gen_tightness_example(n_pairs: int) -> PlantedInstance:
    """The 4*n_pairs-point metric whose maximum cut has no ball-shaped side.

    Two sides L and R of 2*n_pairs points each.  Same-side distances are 1
    except the designated pairs (2i, 2i+1) at distance 2; cross distances
    are 3 except the couplings (l_i, r_i) at distance 2.  Planted cut (L, R).
    """
    if n_pairs < 2:
        raise ParameterError("n_pairs must be >= 2")
    half = 2 * n_pairs
    n = 2 * half
    W = np.zeros((n, n))
    same = np.ones((half, half)) - np.eye(half)
    for i in range(n_pairs):
        same[2 * i, 2 * i + 1] = same[2 * i + 1, 2 * i] = 2.0
    cross = np.full((half, half), 3.0)
    np.fill_diagonal(cross, 2.0)
    W[:half, :half] = same
    W[half:, half:] = same
    W[:half, half:] = cross
    W[half:, :half] = cross.T
    side = np.zeros(n, dtype=bool)
    side[:half] = True
    claims = {"family": "tightness-example", "n_pairs": n_pairs, "n": n}
    return PlantedInstance(Instance(W), Cut(side), claims)


def gen_matching_epsilon(n_pairs: int, eps: float) -> Instance:
    """Perfect matching of unit edges plus eps everywhere else.

    The standard example with exponentially many locally stable cuts: any
    cut separating every matched pair is (1/(2 eps))-ish locally stable, yet
    the instance is not gamma-stable for any gamma > 1.
    """
    if not (0.0 < eps < 1.0):
        raise ParameterError("eps must lie in (0, 1)")
    if n_pairs < 1:
        raise ParameterError("n_pairs must be >= 1")
    n = 2 * n_pairs
    W = np.full((n, n), eps)
    np.fill_diagonal(W, 0.0)
    for i in range(n_pairs):
        W[2 * i, 2 * i + 1] = W[2 * i + 1, 2 * i] = 1.0
    return Instance(W)


def gen_infinite_stable_not_distinguished(n_pairs: int, eps: float) -> PlantedInstance:
    """Bipartite instance that is infinitely stable but barely distinguished.

    w(a_i, b_j) is 1 when i = j and eps otherwise; no same-side edges.
    Swapping half of the matched pairs barely lowers the cut, so the
    distinction coefficient vanishes as eps -> 0 even though gamma = inf.
    """
    if not (0.0 < eps < 1.0):
        raise ParameterError("eps must lie in (0, 1)")
    if n_pairs < 1:
        raise ParameterError("n_pairs must be >= 1")
    n = 2 * n_pairs
    W = np.zeros((n, n))
    block = np.full((n_pairs, n_pairs), eps)
    np.fill_diagonal(block, 1.0)
    W[:n_pairs, n_pairs:] = block
    W[n_pairs:, :n_pairs] = block.T
    side = np.zeros(n, dtype=bool)
    side[:n_pairs] = True
    claims = {"family": "stable-not-distinguished", "n_pairs": n_pairs,
              "eps": eps, "gamma": INF}
    return PlantedInstance(Instance(W), Cut(side), claims)
