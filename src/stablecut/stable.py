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
Repetitions grow their trees together as one (R, n) state.  Each step draws
one uniform per repetition and picks the boundary edge in two levels: the
tree vertex by cumulative boundary mass, then its outside neighbor by
cumulative edge weight.  That is the same search ``Generator.choice(p=...)``
makes over the row-major flattened |inside| x |outside| boundary, with the
same uniform, so each repetition picks the edges the one-at-a-time sampler
picked except when a uniform lands within rounding of a cumulative-weight
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolationError, ParameterError, PreconditionError, SizeLimitError
from .instance import Cut, Instance, contract, heaviest_side

INF = math.inf

# Repetitions grow their trees in blocks of this many, so the sampler's
# memory does not grow with the repetition count.
TREE_BLOCK = 64

# The most repetitions spanning_tree_solve accepts.  In full blocks one
# repetition at n=200 took 1.1 to 1.4 ms on one core of a shared 2-core host,
# so a run at the cap takes about two minutes there.
MAX_TREE_REPETITIONS = 100_000


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

    # T1 row by row in lexicographic order; partner[v] is the far end of the
    # T1 edge that claimed v, -1 while v has none
    lim = mu / (gamma + 1.0)
    partner = np.full(n, -1)
    for i in range(n - 1):
        row = np.flatnonzero((W[i, i + 1:] > lim[i]) | (W[i + 1:, i] > lim[i + 1:])) + (i + 1)
        for j in row.tolist():
            for shared, far in ((i, j), (j, i)):
                if partner[shared] >= 0:
                    other = int(partner[shared])
                    return MergeWitness(kind="t1-incident-pair", pair=_lex_edge(far, other),
                                        evidence={"edges": [_lex_edge(shared, other), (i, j)],
                                                  "shared": shared})
            partner[i], partner[j] = j, i

    # T1 is a matching from here on; an unmatched vertex has partner -1, and
    # np.where drops the tau term read through that index
    heavy = W > lim[:, None]
    t1 = heavy | heavy.T
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
    if not gamma >= 1.0:
        raise ParameterError("gamma must be >= 1")
    if math.isinf(gamma):
        return 1.0
    return (gamma / (gamma + 1.0)) ** (n - 1)


def default_tree_repetitions(gamma: float, n: int) -> int:
    """ceil(3 / success bound): enough repetitions for ~95% overall success.

    Raises ParameterError when that count exceeds MAX_TREE_REPETITIONS.
    """
    bound = spanning_tree_success_bound(gamma, n)
    if bound * MAX_TREE_REPETITIONS < 3.0:
        raise ParameterError(
            f"gamma={gamma:g} at n={n} bounds the per-repetition success by {bound:.3g}; "
            f"ceil(3 / bound) repetitions are above the cap of {MAX_TREE_REPETITIONS}")
    return math.ceil(3.0 / bound)


def _grow_trees(W: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Two-colorings of weight-biased spanning trees grown in lockstep.

    ``U`` holds one row of uniforms in [0, 1) per growth step (n - 1 rows)
    and one column per tree.  Every tree starts from vertex 0; at each step
    the boundary edge (t, o) is the first, in row-major (t, o) order, whose
    cumulative weight exceeds u times the boundary total, as
    ``np.searchsorted(cdf, u, side="right")`` finds it.  The search runs in
    two levels, t by the cumulative boundary mass of the tree vertices and
    then o by the cumulative weights W[t, o] to outside vertices.  A target
    that rounding pushes to a level's total is clamped just below it, so the
    pick is never a zero-weight edge.  Returns the (R, n) color matrix, True
    at vertex 0.
    """
    n, R = W.shape[0], U.shape[1]
    reps = np.arange(R)
    outside = np.ones((R, n))
    outside[:, 0] = 0.0
    inside = np.empty((R, n))
    mass = np.empty((R, n))
    color = np.zeros((R, n), dtype=bool)
    color[:, 0] = True
    cum = np.zeros((R, n + 1))  # cum[:, k]: boundary mass of the tree vertices below k
    upto, total = cum[:, 1:], cum[:, -1]
    for u in U:
        np.subtract(1.0, outside, out=inside)
        np.matmul(outside, W, out=mass)  # W is symmetric: mass[r, t] = w(t, outside of r)
        mass *= inside
        np.add.accumulate(mass, axis=1, out=upto)
        target = np.minimum(u * total, np.nextafter(total, 0.0))
        t = (upto > target[:, None]).argmax(axis=1)
        rest = target - cum[reps, t]
        row = W[t] * outside
        within = np.add.accumulate(row, axis=1)
        rest = np.minimum(rest, np.nextafter(within[:, -1], 0.0))
        o = (within > rest[:, None]).argmax(axis=1)
        outside[reps, o] = 0.0
        color[reps, o] = ~color[reps, t]
    return color


def spanning_tree_solve(inst: Instance, seed: int, repetitions: int = 1) -> Cut:
    """Randomized solver: grow a weight-biased spanning tree and two-color it.

    Each repetition starts from vertex 0 and repeatedly samples a boundary
    edge with probability proportional to its weight, using one uniform
    from its own child stream of the seed per step.  The two-level draw of
    ``_grow_trees`` equals ``choice`` over the row-major flattened boundary
    with that uniform.  Repetitions run TREE_BLOCK at a time, and the blocks
    go to ``heaviest_side``; the first heaviest cut wins.  At most
    MAX_TREE_REPETITIONS repetitions are accepted (ParameterError above).
    """
    if repetitions < 1:
        raise ParameterError("repetitions must be >= 1")
    if repetitions > MAX_TREE_REPETITIONS:
        raise ParameterError(
            f"repetitions={repetitions} exceeds the cap of {MAX_TREE_REPETITIONS}")
    streams = np.random.SeedSequence(seed)  # spawning in blocks yields the same children

    def blocks():
        for start in range(0, repetitions, TREE_BLOCK):
            block = streams.spawn(min(TREE_BLOCK, repetitions - start))
            # random(n - 1) yields the uniforms that n - 1 calls of choice(p=...) consume
            U = np.array([np.random.default_rng(ss).random(inst.n - 1) for ss in block]).T
            yield _grow_trees(inst.weights, U).T

    _, side, _ = heaviest_side(inst, blocks())
    return Cut(side)
