"""Exact brute-force ground truth at desk scale.

Every exhaustive scan here runs through one kernel, ``cut_sides``: chunked
(n, k) blocks of all side vectors with vertex 0 in S, which enumerate both
the bipartitions (up to complement) and the vertex subsets (up to
complement symmetry).  It also enforces the size caps (n <= 24 for subset
scans, n <= 28 for the max-cut scan).  On top of it sit one per-vertex
xi/iota helper for single cuts and blocks, and one 0/0 -> +inf ratio rule.
The maximum cut is found in a single pass that also counts the ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeLimitError
from .instance import (
    Cut,
    Instance,
    REL_TOL,
    ZERO_FRACTION,
    cut_weight,
    cut_weights_for_sides,
)

INF = math.inf

_CHUNK = 1 << 14


def cut_sides(n: int, max_n: int):
    """Yield (n, k) boolean blocks of every side vector with side[0] True but S != V.

    Blocks come in lexicographic order (bit n-1-i of the running mask holds
    side[i]).  Raises SizeLimitError when n > max_n.
    """
    if n > max_n:
        raise SizeLimitError(f"exhaustive scan capped at n <= {max_n}, got {n}")
    n_masks = (1 << (n - 1)) - 1
    shifts = np.array([n - 1 - i for i in range(1, n)], dtype=np.uint64)
    for lo in range(0, n_masks, _CHUNK):
        masks = np.arange(lo, min(lo + _CHUNK, n_masks), dtype=np.uint64)
        sides = np.ones((n, masks.size), dtype=bool)
        sides[1:] = (masks[None, :] >> shifts[:, None]) & 1
        yield sides


def _ratio_or_inf(num: np.ndarray, den: np.ndarray, zero: float) -> np.ndarray:
    """num / den elementwise, +inf where den <= zero (the 0/0 convention)."""
    return np.where(den > zero, num / np.where(den > zero, den, 1.0), INF)


def brute_force_maxcut(inst: Instance, max_n: int = 28) -> tuple[Cut, float, int]:
    """Exhaustive maximum cut.

    Returns one optimal cut (the lexicographically smallest side vector with
    vertex 0 in S), its weight, and the number of distinct optimal cuts (a
    cut and its complement count once).  Optima are counted up to relative
    tolerance 1e-9.
    """
    W = inst.weights
    best = -INF
    # Cuts within tolerance of the running best (a superset of the final
    # optima) are tallied per distinct weight, so memory stays small however
    # many optima tie.  Weights enter in scan order of their first cut.
    near: dict[float, list] = {}  # weight -> [first side, count]
    for sides in cut_sides(inst.n, max_n):
        w = cut_weights_for_sides(W, sides)
        best = max(best, float(w.max()))
        idx = np.flatnonzero(w >= best - REL_TOL * best)
        values, first, counts = np.unique(w[idx], return_index=True, return_counts=True)
        for j in np.argsort(first):
            entry = near.setdefault(float(values[j]), [sides[:, idx[first[j]]].copy(), 0])
            entry[1] += int(counts[j])
    optima = [entry for v, entry in near.items() if v >= best - REL_TOL * best]
    cut = Cut(optima[0][0])
    return cut, cut_weight(inst, cut), sum(count for _, count in optima)


def subset_scan_minima(
    W: np.ndarray, delta: np.ndarray | None = None, max_n: int = 24
) -> tuple[float, float, float]:
    """Scan all nonempty proper subsets of a weight matrix.

    Returns (gamma, alpha, cheeger): the minima of xi(A)/iota(A),
    (xi(A)-iota(A))/min(mu(A), mu(A-bar)) and tau(A)/min(mu(A), mu(A-bar)).
    When ``delta`` is None only the Cheeger minimum is meaningful and the
    first two come back as +inf.  0/0 ratios are +inf by convention.
    """
    n = W.shape[0]
    mu = W.sum(axis=1)
    total_mu = float(mu.sum())
    zero = ZERO_FRACTION * max(total_mu, 1e-300)
    if delta is not None:
        W_cut = W * (delta[:, None] * delta[None, :] < 0)
        xi_vec = W_cut.sum(axis=1)
    gamma = alpha = cheeger = INF
    for sides in cut_sides(n, max_n):
        chi = sides.astype(np.float64)
        mu_a = mu @ chi
        tau = mu_a - np.einsum("ik,ik->k", chi, W @ chi)
        min_side = np.minimum(mu_a, total_mu - mu_a)
        min_side_safe = np.where(min_side > zero, min_side, INF)
        cheeger = min(cheeger, float((tau / min_side_safe).min()))
        if delta is not None:
            xi = xi_vec @ chi - np.einsum("ik,ik->k", chi, W_cut @ chi)
            iota = tau - xi
            gamma = min(gamma, float(_ratio_or_inf(xi, iota, zero).min()))
            alpha = min(alpha, float(((xi - iota) / min_side_safe).min()))
    return gamma, alpha, cheeger


def per_vertex_cut_weights(W: np.ndarray, side: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(xi(x), iota(x)) for every vertex: weight to the other / own side.

    ``side`` is one side vector (n,) or a block (n, k); results match its shape.
    """
    mu = W.sum(axis=1, keepdims=side.ndim == 2)
    to_s = W @ side.astype(np.float64)
    xi = np.where(side, mu - to_s, to_s)
    return xi, mu - xi


def local_gammas(W: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """min over x of xi(x)/iota(x) per cut, +inf if every iota(x) = 0.

    An (n, k) block gives shape (k,); one side vector (n,) gives a 0-d array.
    """
    xi, iota = per_vertex_cut_weights(W, sides)
    zero = ZERO_FRACTION * max(float(W.sum()), 1e-300)
    return _ratio_or_inf(xi, iota, zero).min(axis=0)


def cut_stability_gamma(inst: Instance, cut: Cut, max_n: int = 24) -> float:
    """min over nonempty proper subsets A of xi(A)/iota(A); +inf terms for iota(A)=0.

    The cut is gamma-stable exactly for gamma up to this value.
    """
    if cut.n != inst.n:
        raise ParameterError("cut size mismatch")
    gamma, _, _ = subset_scan_minima(inst.weights, cut.delta, max_n=max_n)
    return gamma


def local_stability_gamma(inst: Instance, cut: Cut) -> float:
    """min over vertices of xi(x)/iota(x); +inf when every iota(x) = 0."""
    if cut.n != inst.n:
        raise ParameterError("cut size mismatch")
    return float(local_gammas(inst.weights, cut.side))


def distinction_alpha(inst: Instance, cut: Cut, max_n: int = 24) -> float:
    """min over subsets of (xi(A)-iota(A)) / min(mu(A), mu(A-bar))."""
    if cut.n != inst.n:
        raise ParameterError("cut size mismatch")
    _, alpha, _ = subset_scan_minima(inst.weights, cut.delta, max_n=max_n)
    return alpha


def cheeger_constant(inst: Instance, max_n: int = 24) -> float:
    """Exact Cheeger constant min_A tau(A) / min(mu(A), mu(A-bar))."""
    _, _, h = subset_scan_minima(inst.weights, None, max_n=max_n)
    return h


def enumerate_locally_stable_cuts(inst: Instance, gamma: float, max_n: int = 24) -> list[Cut]:
    """All cuts (up to complement) with xi(x) >= gamma * iota(x) at every vertex."""
    if gamma < 1.0:
        raise ParameterError("gamma must be >= 1")
    W = inst.weights
    zero = ZERO_FRACTION * max(float(W.sum()), 1e-300)
    found: list[Cut] = []
    for sides in cut_sides(inst.n, max_n):
        xi, iota = per_vertex_cut_weights(W, sides)
        slack = xi - gamma * iota
        ok = (slack >= -REL_TOL * np.maximum(xi, gamma * iota) - zero).all(axis=0)
        found.extend(Cut(sides[:, k]) for k in np.flatnonzero(ok))
    return found


@dataclass(frozen=True)
class StabilityReport:
    """Exact stability profile of an instance (all values from brute force).

    gamma and gamma_local may be +inf (bipartite support).  When the maximum
    cut is not unique, gamma is clamped to 1: being gamma-stable for any
    gamma > 1 is equivalent to having a unique maximum cut.
    """

    gamma: float
    gamma_local: float
    alpha: float
    cheeger: float
    is_unique_maxcut: bool


def instance_stability(inst: Instance, max_n: int = 24) -> StabilityReport:
    """Full report at the brute-force optimal cut."""
    cut, _, count = brute_force_maxcut(inst, max_n=max_n)
    gamma, alpha, cheeger = subset_scan_minima(inst.weights, cut.delta, max_n=max_n)
    unique = count == 1
    return StabilityReport(
        gamma=gamma if unique else 1.0,
        gamma_local=local_stability_gamma(inst, cut),
        alpha=alpha,
        cheeger=cheeger,
        is_unique_maxcut=unique,
    )
