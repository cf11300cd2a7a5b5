"""Core data model: weighted MAXCUT instances, cuts, cut weights and JSON I/O.

``heaviest_side`` is the one rule by which every solver picks the heaviest of
its candidate cuts.

Weights are a symmetric nonnegative matrix with zero diagonal whose support
graph is connected.  Instances and cuts are immutable after construction and
all operations here are pure functions, so everything is safe to share across
threads.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import InvalidCutError, InvalidInstanceError, ParameterError, SizeLimitError

# Relative tolerance used by every floating-point comparison in the stability
# verifiers.  The underlying theory works over exact reals.
REL_TOL = 1e-9

# Sums are declared "exactly zero" below this fraction of the total weight;
# absorbs accumulation error without masking genuinely tiny weights.
ZERO_FRACTION = 1e-12

# Largest n that instance_from_json accepts: the loader holds two n x n float64
# copies at once, the matrix it fills and Instance's own, 256 MiB at this n.
LOAD_MAX_N = 4096

_NOT_NONNEGATIVE = "weights must be finite and nonnegative, with a finite total"
_NOT_CONNECTED = "positive-weight support graph must be connected"


def support_connected(weights: np.ndarray) -> bool:
    """BFS over the positive-weight support graph."""
    n = weights.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        reach = (weights[frontier] > 0.0).any(axis=0) & ~seen
        frontier = np.flatnonzero(reach).tolist()
        seen |= reach
    return bool(seen.all())


class Instance:
    """A weighted MAXCUT instance on vertices 0..n-1.

    Attributes:
        n: vertex count (>= 2).
        weights: read-only (n, n) float64 array; symmetric, nonnegative,
            zero diagonal, connected support, total weight finite in float64.
    """

    __slots__ = ("n", "weights")

    def __init__(self, weights):
        W = np.array(weights, dtype=np.float64)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise InvalidInstanceError(f"weights must be square, got shape {W.shape}")
        n = W.shape[0]
        if n < 2:
            raise InvalidInstanceError("an instance needs at least 2 vertices")
        with np.errstate(over="ignore", invalid="ignore"):  # NaN, +-inf, or a sum that overflows
            finite = np.isfinite(W.sum())
        if (W < 0.0).any() or not finite:
            raise InvalidInstanceError(_NOT_NONNEGATIVE)
        if not np.array_equal(W, W.T):
            raise InvalidInstanceError("weights must be exactly symmetric")
        if np.diagonal(W).any():
            raise InvalidInstanceError("diagonal weights must be zero")
        if not support_connected(W):
            raise InvalidInstanceError(_NOT_CONNECTED)
        W.flags.writeable = False
        object.__setattr__(self, "weights", W)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("Instance is immutable")

    def degrees(self) -> np.ndarray:
        """Weighted degree mu(x) = sum_y w(x, y) per vertex."""
        return self.weights.sum(axis=1)

    def total_weight(self) -> float:
        """Total weight over unordered pairs: w(V)."""
        return float(self.weights.sum()) / 2.0

    def __repr__(self):
        return f"Instance(n={self.n}, total_weight={self.total_weight():g})"


class Cut:
    """A bipartition (S, S-bar), encoded by a boolean side vector.

    ``side[i]`` is True when vertex i lies in S.  Both sides must be
    nonempty.  ``delta`` is the +/-1 characteristic vector.
    """

    __slots__ = ("side",)

    def __init__(self, side):
        s = np.array(side, dtype=bool)
        if s.ndim != 1:
            raise InvalidCutError("side must be a flat boolean vector")
        if s.all() or not s.any():
            raise InvalidCutError("both sides of a cut must be nonempty")
        s.flags.writeable = False
        object.__setattr__(self, "side", s)

    def __setattr__(self, name, value):
        raise AttributeError("Cut is immutable")

    @property
    def n(self) -> int:
        return self.side.shape[0]

    @property
    def delta(self) -> np.ndarray:
        """+1 on S, -1 on the complement."""
        return np.where(self.side, 1.0, -1.0)

    def complement(self) -> "Cut":
        return Cut(~self.side)

    def members(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(S, S-bar) as sorted index tuples."""
        idx = np.flatnonzero(self.side)
        rest = np.flatnonzero(~self.side)
        return tuple(int(i) for i in idx), tuple(int(i) for i in rest)

    def __eq__(self, other):
        return isinstance(other, Cut) and np.array_equal(self.side, other.side)

    def __hash__(self):
        return hash(self.side.tobytes())

    def __repr__(self):
        s, t = self.members()
        return f"Cut({set(s)} | {set(t)})"


def same_bipartition(a: Cut, b: Cut) -> bool:
    """True when the two cuts induce the same bipartition (sides may be swapped)."""
    if a.n != b.n:
        return False
    return np.array_equal(a.side, b.side) or np.array_equal(a.side, ~b.side)


def check_cut(inst: Instance, cut: Cut) -> None:
    """Raise InvalidCutError unless the cut has one side entry per vertex of inst."""
    if cut.n != inst.n:
        raise InvalidCutError(f"cut has {cut.n} vertices, instance has {inst.n}")


def cut_weight(inst: Instance, cut: Cut) -> float:
    """w(S, S-bar): direct summation over separated pairs.

    The rows summed are those of the side holding vertex 0, as the oracle lays
    cuts out, so a cut and its complement weigh the same, bit for bit.
    """
    check_cut(inst, cut)
    s = cut.side if cut.side[0] else ~cut.side
    return float(inst.weights[np.ix_(s, ~s)].sum())


def cut_weights_for_sides(weights: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """Cut weights for many side vectors at once.

    ``sides`` is (n, k) boolean; returns the k cut weights via the quadratic
    identity 4*w(S,S-bar) = 2*w(V,V) - delta^T W delta.
    """
    delta = np.where(sides, 1.0, -1.0)
    quad = np.einsum("ik,ik->k", delta, weights @ delta)
    return (weights.sum() - quad) / 4.0


def heaviest_side(inst: Instance,
                  blocks: Iterable[np.ndarray]) -> tuple[int, np.ndarray, float] | None:
    """Index, side and ``cut_weight`` of the first heaviest cut among candidate sides.

    ``blocks`` is an iterable of (n, k) boolean blocks whose columns are side
    vectors, indexed as one sequence across the blocks.  One-sided columns are
    no cut and are skipped; None is returned when every column is one-sided.
    Each block is scored at once with ``cut_weights_for_sides``.  That score and
    ``cut_weight`` each lie within (n^2 + n + 1) eps/2 * w(V, V) of the exact cut
    weight, so they differ by at most half of ``margin``, and only a column
    scoring within ``margin`` of the best score so far can be the heaviest by
    ``cut_weight``.  Those columns are weighed with ``cut_weight``, each distinct
    cut once, and the first maximum wins.
    """
    W = inst.weights
    margin = 2.0 * (inst.n ** 2 + inst.n + 1) * np.finfo(float).eps * float(W.sum())
    best, top, seen, offset = None, -np.inf, set(), 0
    for sides in blocks:
        counts = sides.sum(axis=0)
        valid = np.flatnonzero((counts > 0) & (counts < inst.n))
        if valid.size:
            scores = cut_weights_for_sides(W, sides[:, valid])
            top = max(top, float(scores.max()))
            for j in valid[scores >= top - margin].tolist():
                side = sides[:, j]
                key = (side if side[0] else ~side).tobytes()
                if key not in seen:  # a repeat or a complement weighs what its first copy did
                    seen.add(key)
                    w = cut_weight(inst, Cut(side))
                    if best is None or w > best[2]:
                        best = (offset + j, side.copy(), w)
        offset += sides.shape[1]
    return best


def contract(weights: np.ndarray, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Contract u and v in a weight matrix; the internal weight w(u,v) is dropped.

    The merged vertex takes index min(u, v); row and column max(u, v) are
    removed, so vertices above it shift down by one.  Returns a new matrix
    and the old->new index mapping; ``weights`` itself is not modified.
    """
    n = weights.shape[0]
    if u == v:
        raise ParameterError("cannot merge a vertex with itself")
    if not (0 <= u < n and 0 <= v < n):
        raise ParameterError("merge endpoints out of range")
    a, b = min(u, v), max(u, v)
    W = np.empty((n - 1, n - 1), dtype=weights.dtype)
    W[:b, :b] = weights[:b, :b]
    W[:b, b:] = weights[:b, b + 1:]
    W[b:, :b] = weights[b + 1:, :b]
    W[b:, b:] = weights[b + 1:, b + 1:]
    W[a, :b] += weights[b, :b]
    W[a, b:] += weights[b, b + 1:]
    W[:b, a] += weights[:b, b]
    W[b:, a] += weights[b + 1:, b]
    W[a, a] = 0.0
    mapping = np.arange(n)
    mapping[b:] -= 1
    mapping[b] = a
    return W, mapping


def density_coefficient(inst: Instance) -> float:
    """Smallest C such that w(x, y) <= C * tau(x) / n for every ordered pair."""
    return float((inst.n * inst.weights / inst.degrees()[:, None]).max())


@dataclass(frozen=True)
class MetricCheck:
    """Outcome of a metric test; ``violation`` holds the first offending tuple.

    kind is None when the instance is a metric, "nonpositive" for a zero
    off-diagonal weight (violation = (x, z)), or "triangle" for a triangle
    inequality failure (violation = (x, y, z) with w(x,z) > w(x,y)+w(y,z)).
    """

    ok: bool
    kind: str | None = None
    violation: tuple[int, ...] | None = None

    def __bool__(self):
        return self.ok


def is_metric(inst: Instance) -> MetricCheck:
    """Check positivity off the diagonal and the triangle inequality."""
    W = inst.weights
    n = inst.n
    off = ~np.eye(n, dtype=bool)
    bad = (W <= 0.0) & off
    if bad.any():
        x, z = np.argwhere(bad)[0]
        return MetricCheck(False, "nonpositive", (int(x), int(z)))
    tol = REL_TOL * float(W.max())
    for y in range(n):
        through = W[:, y][:, None] + W[y, :][None, :]
        viol = W > through + tol
        viol[y, :] = False
        viol[:, y] = False
        np.fill_diagonal(viol, False)
        if viol.any():
            x, z = np.argwhere(viol)[0]
            return MetricCheck(False, "triangle", (int(x), y, int(z)))
    return MetricCheck(True)


# ---------------------------------------------------------------------------
# JSON interchange.
#
# Instance files: {"n": int, "weights": [[i, j, w], ...]} with each unordered
# pair listed at most once; omitted pairs have weight zero.  Cut files:
# {"side": [0/1, ...]}.  Floats round-trip bit-exactly (json emits the
# shortest decimal that parses back to the same float64, 17 significant
# digits when needed).
# ---------------------------------------------------------------------------


def instance_to_json(inst: Instance) -> dict:
    i, j = np.nonzero(np.triu(inst.weights))
    triples = [list(t) for t in zip(i.tolist(), j.tolist(), inst.weights[i, j].tolist())]
    return {"n": inst.n, "weights": triples}


def instance_from_json(doc: dict) -> Instance:
    """Strict reader: n and vertex indices must be ints (not bools), weights numbers.

    Every entry is checked at once on arrays, and the error names the first
    offending entry in file order, by the first check it fails: shape
    [i, j, w], then types, then the vertex pair (in range, not a self-loop),
    then a pair listed before, then a finite weight.  A document with fewer
    than n - 1 entries, or with n above LOAD_MAX_N, is rejected before the
    n x n matrix is allocated.
    """
    n = doc.get("n") if isinstance(doc, dict) else None
    if type(n) is not int or n < 2 or type(doc.get("weights")) is not list:
        raise InvalidInstanceError('instance JSON needs an integer "n" >= 2 and a list "weights"')
    entries = doc["weights"]
    typed = [type(e) is list and len(e) == 3 and type(e[0]) is int and type(e[1]) is int
             and type(e[2]) in (int, float) for e in entries]
    # a malformed entry stands in as a self-loop, which the pair check rejects
    rows = entries if all(typed) else [e if ok else (0, 0, 0.0) for e, ok in zip(entries, typed)]
    # ints beyond int64 make object arrays, so every comparison below stays exact
    i, j, w = (np.array(col) for col in zip(*rows)) if rows else (np.zeros(0, dtype=int),) * 3
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    placed = (lo >= 0) & (hi < n) & (lo != hi)
    # unplaced entries key as 0, which no pair has, and keep their ints out of the arithmetic
    key = np.where(placed, lo, 0) * n + np.where(placed, hi, 0)
    order = np.argsort(key, kind="stable")
    repeated = np.zeros(len(entries), dtype=bool)
    repeated[order[1:]] = key[order[1:]] == key[order[:-1]]  # every listing after the first
    with np.errstate(invalid="ignore"):  # False for NaN, +-inf and ints beyond float range
        finite = np.abs(w) <= sys.float_info.max
    bad = repeated | ~(placed & finite)
    if bad.any():
        k = int(np.argmax(bad))
        entry = entries[k]
        if type(entry) is not list or len(entry) != 3:
            raise InvalidInstanceError(f"weight entry must be [i, j, w], got {entry!r}")
        if not typed[k]:
            raise InvalidInstanceError(f"weight entry must be [int, int, number], got {entry!r}")
        if not placed[k]:
            raise InvalidInstanceError(f"bad vertex pair ({entry[0]}, {entry[1]})")
        pair = (min(entry[:2]), max(entry[:2]))
        if repeated[k]:
            raise InvalidInstanceError(f"pair {pair} listed more than once")
        raise InvalidInstanceError(f"weight of pair {pair} is not a finite float")
    if len(entries) < n - 1:
        # fewer than n - 1 pairs cannot connect n vertices: answer as Instance
        # would, before allocating the n x n matrix
        with np.errstate(over="ignore"):
            total = 2.0 * w.astype(np.float64).sum()
        if (w < 0).any() or not np.isfinite(total):
            raise InvalidInstanceError(_NOT_NONNEGATIVE)
        raise InvalidInstanceError(_NOT_CONNECTED)
    if n > LOAD_MAX_N:
        raise SizeLimitError(f"instance files are capped at n <= {LOAD_MAX_N}, got {n}")
    W = np.zeros((n, n))
    W[lo, hi] = w
    W[hi, lo] = w
    return Instance(W)


def save_instance(inst: Instance, path) -> None:
    # json.dumps takes the C encoder; json.dump to a file always encodes in Python
    with open(path, "w") as fh:
        fh.write(json.dumps(instance_to_json(inst)) + "\n")


def load_instance(path) -> Instance:
    with open(path) as fh:
        return instance_from_json(json.load(fh))


def cut_to_json(cut: Cut) -> dict:
    return {"side": cut.side.astype(int).tolist()}


def cut_from_json(doc: dict) -> Cut:
    """Strict reader: "side" must be a list of the integers 0 and 1."""
    side = doc.get("side") if isinstance(doc, dict) else None
    if type(side) is not list or any(type(b) is not int or b not in (0, 1) for b in side):
        raise InvalidCutError('cut JSON needs "side", a list of 0/1 integers')
    return Cut(side)


def save_cut(cut: Cut, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(cut_to_json(cut)) + "\n")


def load_cut(path) -> Cut:
    with open(path) as fh:
        return cut_from_json(json.load(fh))
