"""Metric MAXCUT: the vertex-splitting reduction to dense instances, the
reduction-based sampling solver, and the fast ball-enumeration solver.

Splitting replaces vertex x by floor(tau(x)) identical copies (after the
total weight is normalized to 2 n^2 over ordered pairs) and divides each
weight by the product of the fiber sizes.  The map (S, S-bar) ->
(pi^{-1}(S), pi^{-1}(S-bar)) preserves cut weights, stability and local
stability exactly, and the split instance of a metric is roughly 4-dense,
which is what the sampling solver needs.  The solver samples split vertices
but votes with one row per original vertex over the samples' vertices, so
it never builds the split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense import DenseSolverConfig, best_induced_cut, draw_samples
from .errors import DegenerateInstanceError, ParameterError, PreconditionError
from .instance import Cut, Instance, REL_TOL, check_cut, heaviest_side, is_metric

# Absorbs representation error in floor(tau) after floating-point
# normalization; tau >= n analytically so a one-off cannot occur.
FLOOR_EPS = 1e-9


@dataclass(frozen=True)
class SplitMap:
    """Result of the vertex-splitting reduction.

    pi maps each split vertex to its original vertex; multiplicity[x] is the
    fiber size floor(tau(x)).  Weights within a fiber are zero.
    """

    split: Instance
    pi: np.ndarray
    multiplicity: np.ndarray


def normalize_total_weight(inst: Instance) -> tuple[Instance, float]:
    """Rescale so the ordered total w(V, V) equals 2 n^2; returns (instance, scale).

    Scaling preserves the argmax cut and every stability ratio.
    """
    scale = 2.0 * inst.n ** 2 / float(inst.weights.sum())
    return Instance(inst.weights * scale), scale


def _fibers(inst: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pi, multiplicity, scaled) of a normalized instance.

    scaled[x, y] = w(x, y) / (mult[x] mult[y]) joins any copy of x to any
    copy of y in the split; its zero diagonal leaves each fiber unjoined.
    """
    n = inst.n
    total = float(inst.weights.sum())
    target = 2.0 * n ** 2
    if abs(total - target) > REL_TOL * target:
        raise PreconditionError(
            f"instance must be normalized to w(V,V) = 2n^2 (= {target:g}), got {total:g}")
    tau = inst.degrees()
    mult = np.floor(tau + FLOOR_EPS).astype(int)
    if (mult < 1).any():
        raise DegenerateInstanceError("every floor(tau(x)) must be >= 1")
    return np.repeat(np.arange(n), mult), mult, inst.weights / np.outer(mult, mult)


def split_instance(inst: Instance) -> SplitMap:
    """Split a normalized instance into floor(tau(x)) copies per vertex."""
    pi, mult, scaled = _fibers(inst)
    return SplitMap(split=Instance(scaled[np.ix_(pi, pi)]),
                    pi=pi, multiplicity=mult)


def _require_metric(inst: Instance) -> None:
    check = is_metric(inst)
    if not check:
        raise PreconditionError(f"instance is not a metric: {check.kind} at {check.violation}")


def metric_dense_solve(inst: Instance, cfg: DenseSolverConfig) -> Cut:
    """Normalize and run the dense sampling solver on the split instance, without building it.

    Samples are drawn over the split vertices and mapped to their original
    vertices.  Copies of one vertex have identical rows in the split, so one
    vertex votes for its whole fiber, with its fiber-scaled row at the
    samples' vertices.
    """
    _require_metric(inst)
    normalized, _ = normalize_total_weight(inst)
    pi, _, scaled = _fibers(normalized)
    samples = draw_samples(pi.size, cfg.resolve_m(pi.size), cfg.seed)
    return best_induced_cut(inst, scaled, pi[samples], cfg)


def enumerate_balls(inst: Instance) -> np.ndarray:
    """Membership rows, as one (k, n) boolean array, of all distinct closed
    balls B(c, r) = {y : w(c, y) <= r}.

    Radii sweep the exact distance values from each center plus radius 0
    (the singleton ball), which exhausts the distinct balls; B(c, V) is
    skipped since it cannot form a cut.  Rows run by center, then by
    increasing radius; one broadcast compare builds each center's rows.
    """
    blocks = []
    for row in inst.weights:
        inside = row <= np.unique(np.concatenate(([0.0], row)))[:, None]
        blocks.append(inside[~inside.all(axis=1)])
    return np.concatenate(blocks)


def ball_enumeration_solve(inst: Instance) -> Cut:
    """Best cut of the form (B(c, r), complement) over all closed metric balls.

    On instances whose maximum cut is locally stable above 3 one side of the
    optimum is a ball, so the scan is exact there; below that threshold it
    simply returns the best ball cut, which may be suboptimal.

    The balls go to ``heaviest_side`` n at a time, in enumeration order, and
    the first heaviest ball by ``cut_weight`` wins.
    """
    _require_metric(inst)
    balls = enumerate_balls(inst)
    blocks = (balls[start:start + inst.n].T for start in range(0, len(balls), inst.n))
    _, side, _ = heaviest_side(inst, blocks)
    return Cut(side)


@dataclass(frozen=True)
class CrossBoundCheck:
    """Outcome of the cut-edge lower-bound diagnostic.

    ``worst_slack`` is the smallest slack w(x, z) - bound(x) over separated
    ordered pairs (x, z), negative slack meaning a violation.
    """

    ok: bool
    worst_slack: float


def cut_edge_lower_bound_check(inst: Instance, cut: Cut, gamma: float) -> CrossBoundCheck:
    """Verify w(x, z) >= ((gamma^2-1)/gamma) * w(x, R) / (gamma |R| + |L|) across the cut.

    Here L is x's side and R = z's side, checked for both orientations.  The
    inequality holds for every gamma-locally-stable cut of a metric
    instance, so it serves as a diagnostic invariant at gamma up to the
    measured local stability.
    """
    _require_metric(inst)
    check_cut(inst, cut)
    if not gamma >= 1.0:
        raise ParameterError("gamma must be >= 1")
    W = inst.weights
    tol = REL_TOL * float(W.max())
    worst_slack = math.inf
    for s in (cut.side, ~cut.side):
        L = np.flatnonzero(s)
        R = np.flatnonzero(~s)
        w_to_r = W[np.ix_(L, R)].sum(axis=1)
        if math.isinf(gamma):
            bounds = w_to_r / R.size
        else:
            bounds = (gamma ** 2 - 1.0) / gamma * w_to_r / (gamma * R.size + L.size)
        slack = W[np.ix_(L, R)] - bounds[:, None]
        worst_slack = min(worst_slack, float(slack.min()))
    return CrossBoundCheck(ok=worst_slack >= -tol, worst_slack=worst_slack)
