"""Solvers that exploit subset-level stability.

All of them rest on the same principle: two vertices known to share a side
of the maximum cut can be merged (weights added, the internal edge dropped)
without changing the problem — the merged instance is just as stable and its
maximum cut is the induced one.  So it is enough to repeatedly certify one
same-side pair and contract until two vertices remain.  The merge loop does
this on one weight matrix with ``instance.contract``: the pair finders take
that matrix, and the input Instance is validated once per solve.

The pair finders:

* Warm-up: the heaviest edge at an arbitrary vertex v and then the heaviest
  edge leaving {v, u} are both cut edges whenever the instance is 2n-stable;
  two cut edges sharing an endpoint certify a same-side pair.
* Square-root threshold: for gamma above sqrt(8n+4)+1, either very heavy
  edges (T1/T2 tests) force a pair outright, or a counting argument over
  common-neighbor weights n(u, v) finds a pair with
  n(u, v) > 2/(gamma+1)^2 * w-hat(u) * w-hat(v), which separated vertices
  cannot achieve.

A randomized alternative grows a spanning tree edge by heavy-weighted edge
and two-colors it; each step picks a cut edge with probability at least
gamma/(gamma+1), giving per-repetition success at least (gamma/(gamma+1))^(n-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, ParameterError, PreconditionError, SizeLimitError
from .instance import Cut, Instance, contract, cut_weight

INF = math.inf


@dataclass(frozen=True)
class MergeWitness:
    """A certified same-side pair with the evidence that produced it.

    kind is one of "heavy-incident-pair" (warm-up), "t1-incident-pair",
    "t2-pair" or "common-neighbor-pair".
    """

    kind: str
    pair: tuple[int, int]
    evidence: dict

    def __post_init__(self):
        if self.pair[0] == self.pair[1]:
            raise ParameterError("witness pair must name two distinct vertices")


def _lex_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def find_same_side_pair_2n(W: np.ndarray) -> MergeWitness:
    """Warm-up pair finder on a weight matrix, correct on every 2n-stable instance.

    Take v = 0 and its heaviest edge vu; then the heaviest edge e leaving
    {v, u}.  Both are cut edges under 2n-stability, and they share an
    endpoint, so the two outer endpoints lie on one side.  Argmax ties break
    to the lexicographically smallest (min, max) edge: every edge at 0
    precedes every edge at u, so row 0 wins equal maxima.
    """
    n = W.shape[0]
    if n < 3:
        raise SizeLimitError("warm-up pair finder needs n >= 3")
    u = int(np.argmax(W[0]))
    leaving = W[[0, u]]
    leaving[:, [0, u]] = -INF
    row, z = divmod(int(np.argmax(leaving)), n)
    if row == 0:
        edge, pair = (0, z), _lex_edge(u, z)
    else:
        edge, pair = _lex_edge(u, z), (0, z)
    return MergeWitness(kind="heavy-incident-pair", pair=pair,
                        evidence={"first_edge": (0, u), "second_edge": edge})


def sqrt_stability_threshold(n: int) -> float:
    """Stability above this level lets the deterministic pair finder work."""
    return math.sqrt(8.0 * n + 4.0) + 1.0


def find_same_side_pair_sqrt(W: np.ndarray, gamma: float) -> MergeWitness:
    """Deterministic pair finder on a weight matrix of a gamma-stable instance,
    gamma > sqrt(8n+4)+1.

    Three stages, each certifying a same-side pair on stable input:
    1. T1 = directed pairs (v, u) with w(v, u) > mu(v)/(gamma+1).  T1 edges
       are cut edges; the first two (in lexicographic order) sharing an
       endpoint give a pair.
    2. If T1 is a matching, T2 collects edges uv (not in T1) with
       w(u, v) > tau({u, z})/(gamma+1) for u's T1 partner z.  A T2 edge is a
       cut edge, so v and z share a side (first T2 edge in row-major order).
    3. Otherwise zero out T1 edges (w-tilde), set w-hat(v) = tau({v, partner})
       for matched v else tau(v), and return any pair with
       n(u, v) = sum_z w-tilde(u, z) w-tilde(z, v) above
       2/(gamma+1)^2 * w-hat(u) * w-hat(v) (lexicographically first).

    Raises InvariantViolationError when no stage fires: on input actually
    satisfying the stability precondition this cannot happen.
    """
    n = W.shape[0]
    threshold = sqrt_stability_threshold(n)
    if not gamma > threshold:
        raise PreconditionError(
            f"gamma={gamma:g} must exceed sqrt(8n+4)+1 = {threshold:g} at n={n}")
    mu = W.sum(axis=1)

    heavy = W > mu[:, None] / (gamma + 1.0)
    t1 = heavy | heavy.T
    t1_edges = np.argwhere(np.triu(t1, 1))
    owner: dict[int, tuple[int, int]] = {}
    for e in map(tuple, t1_edges.tolist()):
        for shared, far in (e, e[::-1]):
            if shared in owner:
                other = owner[shared]
                return MergeWitness(kind="t1-incident-pair",
                                    pair=_lex_edge(far, sum(other) - shared),
                                    evidence={"edges": [other, e], "shared": shared})
        owner[e[0]] = owner[e[1]] = e

    # T1 is a matching from here on; an unmatched vertex has partner -1, and
    # np.where drops the tau term read through that index
    partner = np.full(n, -1)
    partner[t1_edges[:, 0]], partner[t1_edges[:, 1]] = t1_edges[:, 1], t1_edges[:, 0]
    matched = partner >= 0
    w_hat = np.where(matched, mu + mu[partner] - 2.0 * W[np.arange(n), partner], mu)
    t2 = (W > w_hat[:, None] / (gamma + 1.0)) & ~t1 & matched[:, None]
    np.fill_diagonal(t2, False)
    if t2.any():
        u, v = np.argwhere(t2)[0].tolist()
        z = int(partner[u])
        return MergeWitness(kind="t2-pair", pair=_lex_edge(v, z),
                            evidence={"t2_edge": _lex_edge(u, v),
                                      "t1_edge": _lex_edge(u, z),
                                      "tau_pair": float(w_hat[u])})

    W_t = np.where(t1, 0.0, W)
    common = W_t @ W_t
    limits = 2.0 / (gamma + 1.0) ** 2 * np.outer(w_hat, w_hat)
    hits = np.triu(common > limits, k=1)
    if hits.any():
        u, v = map(int, np.argwhere(hits)[0])
        return MergeWitness(kind="common-neighbor-pair", pair=(u, v),
                            evidence={"common_weight": float(common[u, v]),
                                      "limit": float(limits[u, v])})
    raise InvariantViolationError(
        "no same-side pair found; the input cannot be gamma-stable at this gamma")


def _merge_down(inst: Instance, pick) -> Cut:
    """Contract the certified pair ``pick(W)`` of one weight matrix until two
    vertices remain; ``where`` tracks each original vertex's current index."""
    W, where = inst.weights, np.arange(inst.n)
    while W.shape[0] > 2:
        W, mapping = contract(W, *pick(W).pair)
        where = mapping[where]
    return Cut(where == 0)


def warmup_2n_solve(inst: Instance) -> Cut:
    """Solve by repeated warm-up merging; exact on 2n-stable instances.

    Merging preserves the stability level while n shrinks, so 2n-stability
    of the input covers every round.
    """
    return _merge_down(inst, find_same_side_pair_2n)


def sqrt_stable_solve(inst: Instance, gamma: float | str = "auto") -> Cut:
    """Solve by repeated merging; exact when the instance is gamma-stable with
    gamma > sqrt(8n+4)+1.

    In auto mode each round runs at the smallest usable gamma for the
    current vertex count, which is sound whenever the instance stability
    exceeds the initial threshold: merging never lowers stability and the
    pair tests only get more conservative as the gamma parameter drops.
    """
    if gamma == "auto":
        return _merge_down(
            inst, lambda W: find_same_side_pair_sqrt(
                W, sqrt_stability_threshold(W.shape[0]) + 1e-6))
    g = float(gamma)
    return _merge_down(inst, lambda W: find_same_side_pair_sqrt(W, g))


def spanning_tree_success_bound(gamma: float, n: int) -> float:
    """Per-repetition success probability bound (gamma/(gamma+1))^(n-1)."""
    if gamma < 1.0:
        raise ParameterError("gamma must be >= 1")
    if math.isinf(gamma):
        return 1.0
    return (gamma / (gamma + 1.0)) ** (n - 1)


def default_tree_repetitions(gamma: float, n: int) -> int:
    """ceil(3 / success bound): enough repetitions for ~95% overall success."""
    return math.ceil(3.0 / spanning_tree_success_bound(gamma, n))


def spanning_tree_solve(inst: Instance, seed: int, repetitions: int = 1) -> Cut:
    """Randomized solver: grow a weight-biased spanning tree and two-color it.

    Each repetition starts from vertex 0 and repeatedly samples a boundary
    edge with probability proportional to its weight.  Repetitions use
    independent child streams of the seed; the heaviest cut found wins.
    """
    if repetitions < 1:
        raise ParameterError("repetitions must be >= 1")
    n = inst.n
    W = inst.weights
    streams = np.random.SeedSequence(seed).spawn(repetitions)
    best, best_w = None, -INF
    for ss in streams:
        rng = np.random.default_rng(ss)
        in_tree = np.zeros(n, dtype=bool)
        color = np.zeros(n, dtype=bool)
        in_tree[0] = color[0] = True
        for _ in range(n - 1):
            inside = np.flatnonzero(in_tree)
            outside = np.flatnonzero(~in_tree)
            boundary = W[np.ix_(inside, outside)]
            flat = boundary.ravel()
            total = flat.sum()
            pick = rng.choice(flat.size, p=flat / total)
            ti, oi = np.unravel_index(pick, boundary.shape)
            t, o = int(inside[ti]), int(outside[oi])
            in_tree[o] = True
            color[o] = not color[t]
        cut = Cut(color)
        w = cut_weight(inst, cut)
        if w > best_w:
            best, best_w = cut, w
    return best
