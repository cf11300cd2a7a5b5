"""Exact brute-force ground truth at desk scale.

Every exhaustive scan visits the side vectors with vertex 0 in S and S != V,
which enumerate both the bipartitions (up to complement) and the vertex
subsets (up to complement symmetry).  Mask m holds side[i] in bit n-1-i, and
scans run in increasing mask order, the lexicographic order of side vectors.

One layout, ``_Scan``, places those masks.  The free vertices 1..n-1 split
into a high block of h = (n-1)//2 vertices and a low block of the other l, so
m = a*2^l + b for a high pattern a and a low pattern b (vertex 1 is the most
significant bit, which keeps the order above).  Every quantity a scan needs
is a form over (a, b): a linear form v.chi is hi[a] + lo[b], a quadratic
form chi^T M chi adds a cross term cross[a] . bits_lo[b] with cross =
2 X_hi M_hl, and the cut form w_M(S, S-bar) = (M 1).chi - chi^T M chi is one
such form rather than the difference of two.  A scan's F forms are stacked
into one augmented GEMM per chunk of high patterns: left rows
[cross_f[a] | hi_f[a] | e_f] times right columns [bits_lo[b]; 1; lo_1[b] ...
lo_F[b]], written into buffers allocated once per scan (the right matrix's
first l + 1 rows are one cached table per l).  A scan therefore
costs O(n 2^n) rather than the O(n^2 2^n) of forming W @ sides.  The layout
also owns the chunk boundaries (2^14 masks each, but at least 8 high
patterns, or all of them, so that n = 28 runs 1,024 chunks and not 8,192),
the excluded all-ones mask and the size cap of every scan, one constant,
``SCAN_MAX_N`` = 28, and it reads side vectors, such as the blocks
``cut_sides`` yields, off cached bit tables.

On top of it sit one per-vertex xi/iota helper for single cuts and blocks,
and the 0/0 -> +inf ratio convention.  The maximum cut and its ties come from
one tally, ``_Optima``, fed a table of cut weights per chunk: it keeps the
running maximum and, per distinct weight within REL_TOL of it, the first mask
and a count, and it skips a chunk whose maximum lies below that band.  The
max-cut scan feeds it the cut form; the subset scan, whose tau(A) table is
the same cut form, can feed it too, so ``cut_stability`` gives the minima
and the tie count of ``brute_force_maxcut`` from one pass.

The enumeration of locally stable cuts tests no mask one by one.  A stable
vertex x has xi(x) >= theta_x, a bound from gamma, mu_x and the tolerances,
and (W chi)[x] = H[x, a] + L[x, b] is a linear form.  Where a fixes the side
of x (vertex 0 and the high block), the admissible b for each a are a prefix
of L[x, :] in sorted order or its complement: the keys below one bound, found
by one ``searchsorted``.  A per-vertex table of packed prefix bitsets holds
one row per distinct prefix length and one spare, so it has at most one row
more than the sets it hands out.  The low block gives sets of a for each b
in the same way.  The row sets are nearly all empty, so candidates are read
only from the high patterns whose row set is nonempty, a group of at most
``rows`` patterns (a chunk's worth) at a time, in mask order.  Bit a of the
column set of b keeps or drops each candidate (a, b), and the exact
per-vertex test then decides the few that remain.  The kept sides of a group
become one read-only block, and ``Cut.adopt_rows`` hands out its rows as
cuts without copying or re-checking each one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SizeLimitError
from .instance import Cut, Instance, REL_TOL, ZERO_FRACTION, check_cut, cut_weight

INF = math.inf

_CHUNK = 1 << 14  # masks per chunk of a scan

SCAN_MAX_N = 28  # largest n of every exhaustive scan

_BYTE_BIT = np.uint8(0x80) >> np.arange(8, dtype=np.uint8)  # bit i % 8 of a packed byte


@functools.lru_cache(maxsize=None)
def _bit_table(k: int) -> np.ndarray:
    """Read-only (2^k, k) 0/1 table: row r holds the bits of r, most significant first."""
    r = np.arange(1 << k)
    bits = ((r[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.float64)
    bits.flags.writeable = False
    return bits


@functools.lru_cache(maxsize=None)
def _right_head(l: int) -> np.ndarray:
    """Read-only (l + 1, 2^l) head of a scan's right matrix: bits_lo transposed, then ones."""
    head = np.ones((l + 1, 1 << l))
    head[:l] = _bit_table(l).T
    head.flags.writeable = False
    return head


class _Scan:
    """The mask layout shared by every exhaustive scan of an n-vertex instance.

    A form is a triple (hi, lo, cross): its value at mask a*2^l + b is
    hi[a] + lo[b] + (cross[a] . bits_lo[b] when cross is not None).
    """

    def __init__(self, n: int):
        if n > SCAN_MAX_N:
            raise SizeLimitError(f"exhaustive scan capped at n <= {SCAN_MAX_N}, got {n}")
        self.n = n
        self.h = h = (n - 1) // 2
        self.l = n - 1 - h
        self.hi = slice(1, 1 + h)
        self.lo = slice(1 + h, n)
        self.bits_hi = _bit_table(h)
        self.bits_lo = _bit_table(self.l)
        self.count = (1 << (n - 1)) - 1  # the all-ones mask (S = V) is excluded
        self.rows = max(min(8, 1 << h), _CHUNK >> self.l)  # high patterns per chunk
        self.step = self.rows << self.l  # masks per chunk

    def chunks(self):
        """Yield (first mask, slice of high patterns, number of masks) per chunk."""
        for first in range(0, self.count, self.step):
            a = first >> self.l
            yield first, slice(a, a + self.rows), min(self.step, self.count - first)

    def linear(self, v: np.ndarray) -> tuple:
        """The form v . chi; for v of shape (..., n) the tables get shape (..., 2^k)."""
        hi = v[..., :1] + v[..., self.hi] @ self.bits_hi.T
        return hi, v[..., self.lo] @ self.bits_lo.T, None

    def quadratic(self, M: np.ndarray) -> tuple:
        """The form chi^T M chi for a symmetric (n, n) matrix M."""
        Xh, Xl, hi, lo = self.bits_hi, self.bits_lo, self.hi, self.lo
        q_hi = M[0, 0] + Xh @ (2.0 * M[0, hi]) + np.einsum("ai,ai->a", Xh @ M[hi, hi], Xh)
        q_lo = Xl @ (2.0 * M[0, lo]) + np.einsum("bi,bi->b", Xl @ M[lo, lo], Xl)
        return q_hi, q_lo, Xh @ (2.0 * M[hi, lo])

    def cut(self, M: np.ndarray, degree: tuple | None = None) -> tuple:
        """The form w_M(S, S-bar) = (M 1) . chi - chi^T M chi for a symmetric M.

        ``degree`` is the form (M 1) . chi when the caller holds it already.
        """
        l_hi, l_lo, _ = self.linear(M.sum(axis=1)) if degree is None else degree
        q_hi, q_lo, cross = self.quadratic(M)
        return l_hi - q_hi, l_lo - q_lo, -cross

    def tables(self, forms: list):
        """Yield (first mask, number of masks, [values of each form]) per chunk.

        Every chunk is one GEMM: row a of form f's left block is
        [cross_f[a] | hi_f[a] | e_f] (a linear form's cross is zero) and the
        right matrix's column b is [bits_lo[b]; 1; lo_1[b] ... lo_F[b]], whose
        first l + 1 rows are copied from one read-only table per l.  The
        yielded tables are views of one buffer allocated per call, in mask
        order, and are overwritten at the next chunk.
        """
        F, l = len(forms), self.l
        left = np.zeros((F, self.bits_hi.shape[0], l + 1 + F))
        right = np.empty((l + 1 + F, 1 << l))
        right[:l + 1] = _right_head(l)
        for f, (hi, lo, cross) in enumerate(forms):
            if cross is not None:
                left[f, :, :l] = cross
            left[f, :, l] = hi
            left[f, :, l + 1 + f] = 1.0
            right[l + 1 + f] = lo
        # both row counts are powers of two, so every chunk fills all of buf
        buf = np.empty((F, min(self.rows, left.shape[1]), 1 << l))
        flat = buf.reshape(F, -1)
        for first, rows, size in self.chunks():
            np.matmul(left[:, rows], right, out=buf)
            yield first, size, list(flat[:, :size])

    def patterns(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(high pattern, low pattern) of every mask."""
        return masks >> self.l, masks & ((1 << self.l) - 1)

    def sides(self, masks: np.ndarray) -> np.ndarray:
        """(n, k) boolean side vectors of k masks, read off the bit tables."""
        a, b = self.patterns(masks)
        sides = np.empty((self.n, masks.size), dtype=bool)
        sides[0] = True
        sides[self.hi] = self.bits_hi[a].T
        sides[self.lo] = self.bits_lo[b].T
        return sides


def cut_sides(n: int):
    """Yield (n, k) boolean blocks of every side vector with side[0] True but S != V.

    Blocks come in lexicographic order (bit n-1-i of the running mask holds
    side[i]).  Raises SizeLimitError when n > SCAN_MAX_N.
    """
    scan = _Scan(n)
    for first, _, size in scan.chunks():
        yield scan.sides(np.arange(first, first + size))


def _ratio_or_inf(num: np.ndarray, den: np.ndarray, zero: float) -> np.ndarray:
    """num / den elementwise, +inf where den <= zero (the 0/0 convention)."""
    return np.where(den > zero, num / np.where(den > zero, den, 1.0), INF)


class _Optima:
    """The maximum cut weight over the chunks of a scan, with its ties.

    Cuts within REL_TOL of the running maximum (a superset of the final
    optima) are tallied per distinct weight, so memory stays small however
    many optima tie.  Weights enter in scan order of their first cut.  A chunk
    whose maximum lies below that tolerance band adds nothing and is skipped.
    """

    def __init__(self):
        self.best = -INF
        self.near: dict[float, list] = {}  # weight -> [first mask, count]

    def add(self, first: int, w: np.ndarray) -> None:
        """Tally the cut weights w of the masks first, first + 1, ..."""
        top = float(w.max())
        self.best = max(self.best, top)
        floor = self.best - REL_TOL * self.best
        if top < floor:
            return
        idx = np.flatnonzero(w >= floor)
        values, first_at, counts = np.unique(w[idx], return_index=True, return_counts=True)
        for j in np.argsort(first_at):
            entry = self.near.setdefault(float(values[j]), [first + int(idx[first_at[j]]), 0])
            entry[1] += int(counts[j])

    def result(self) -> tuple[int, int]:
        """(first optimal mask, number of distinct optimal cuts)."""
        floor = self.best - REL_TOL * self.best
        optima = [entry for v, entry in self.near.items() if v >= floor]
        return optima[0][0], sum(count for _, count in optima)


def brute_force_maxcut(inst: Instance) -> tuple[Cut, float, int]:
    """Exhaustive maximum cut.

    Returns one optimal cut (the lexicographically smallest side vector with
    vertex 0 in S), its weight, and the number of distinct optimal cuts (a
    cut and its complement count once).  Optima are counted up to relative
    tolerance 1e-9.  Raises SizeLimitError when n > SCAN_MAX_N.
    """
    scan = _Scan(inst.n)
    optima = _Optima()
    for first, _, (w,) in scan.tables([scan.cut(inst.weights)]):
        optima.add(first, w)
    mask, count = optima.result()
    cut = Cut(scan.sides(np.array([mask]))[:, 0])
    return cut, cut_weight(inst, cut), count


def _minima(W: np.ndarray, delta: np.ndarray | None,
            optima: _Optima | None) -> tuple[float, float, float]:
    """The scan of ``subset_scan_minima``; its tau table, the cut weight of
    every side, also feeds ``optima`` when one is given."""
    scan = _Scan(W.shape[0])
    mu = W.sum(axis=1)
    total_mu = float(mu.sum())
    zero = ZERO_FRACTION * max(total_mu, 1e-300)
    # mu(A), tau(A) = w_W(A, A-bar) and xi(A) = w_{W_cut}(A, A-bar)
    degree = scan.linear(mu)
    forms = [degree, scan.cut(W, degree)]
    if delta is not None:
        forms.append(scan.cut(W * (delta[:, None] * delta[None, :] < 0)))
    # A nonempty proper side has mu at least the least degree (less the
    # rounding of total_mu - mu(A), far below zero), so sides at or below
    # zero, whose ratios count as 0, can occur only when some degree is
    # within 2 * zero.
    guard = bool(mu.min() <= 2.0 * zero)
    chunk = min(scan.count, scan.step)
    ratio_buf, low_buf = np.empty(chunk), np.empty(chunk, dtype=bool)
    gamma = alpha = cheeger = INF
    with np.errstate(divide="ignore", invalid="ignore"):  # x/0 and 0/0 are overwritten with +inf
        for first, size, (mu_a, tau, *cut_part) in scan.tables(forms):
            if optima is not None:
                optima.add(first, tau)
            ratio, low = ratio_buf[:size], low_buf[:size]
            np.subtract(total_mu, mu_a, out=ratio)
            side = np.minimum(mu_a, ratio, out=mu_a)  # mu(A) is spent: its table holds min-side
            if guard:
                np.less_equal(side, zero, out=low)
                np.copyto(side, INF, where=low)
            cheeger = min(cheeger, float(np.divide(tau, side, out=ratio).min()))
            if cut_part:
                xi = cut_part[0]
                iota = np.subtract(tau, xi, out=tau)  # tau is spent: its table holds iota
                np.divide(xi, iota, out=ratio)
                np.less_equal(iota, zero, out=low)
                np.copyto(ratio, INF, where=low)  # 0/0 -> +inf, and so is every iota <= zero
                gamma = min(gamma, float(ratio.min()))
                np.subtract(xi, iota, out=ratio)
                alpha = min(alpha, float(np.divide(ratio, side, out=ratio).min()))
    return gamma, alpha, cheeger


def subset_scan_minima(W: np.ndarray, delta: np.ndarray | None = None) -> tuple[float, float, float]:
    """Scan all nonempty proper subsets of a weight matrix.

    Returns (gamma, alpha, cheeger): the minima of xi(A)/iota(A),
    (xi(A)-iota(A))/min(mu(A), mu(A-bar)) and tau(A)/min(mu(A), mu(A-bar)).
    When ``delta`` is None only the Cheeger minimum is meaningful and the
    first two come back as +inf.  0/0 ratios are +inf by convention.
    """
    return _minima(W, delta, None)


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


def cut_stability_gamma(inst: Instance, cut: Cut) -> float:
    """min over nonempty proper subsets A of xi(A)/iota(A); +inf terms for iota(A)=0.

    The cut is gamma-stable exactly for gamma up to this value.
    """
    check_cut(inst, cut)
    gamma, _, _ = subset_scan_minima(inst.weights, cut.delta)
    return gamma


def local_stability_gamma(inst: Instance, cut: Cut) -> float:
    """min over vertices of xi(x)/iota(x); +inf when every iota(x) = 0."""
    check_cut(inst, cut)
    return float(local_gammas(inst.weights, cut.side))


def distinction_alpha(inst: Instance, cut: Cut) -> float:
    """min over subsets of (xi(A)-iota(A)) / min(mu(A), mu(A-bar))."""
    check_cut(inst, cut)
    _, alpha, _ = subset_scan_minima(inst.weights, cut.delta)
    return alpha


def cheeger_constant(inst: Instance) -> float:
    """Exact Cheeger constant min_A tau(A) / min(mu(A), mu(A-bar))."""
    _, _, h = subset_scan_minima(inst.weights, None)
    return h


def _threshold_sets(key: np.ndarray, bound: np.ndarray, in_s: np.ndarray) -> np.ndarray:
    """Bitsets over the entries of ``key``, one per row j: the i with
    key[i] < bound[j] where in_s[j], else the complement of that set.

    Bit i of a row is bit 7 - i % 8 of its byte i // 8, as ``np.packbits``
    lays it out; rows are whole uint64 words.  The set below bound[j] is the
    k smallest keys for k from one search, so a prefix table with one row per
    distinct k (one-hot bits, then a ``bitwise_or.accumulate``) holds them all.
    """
    order = key.argsort()  # the methods, not their np.* wrappers: this runs once per vertex
    k = key[order].searchsorted(bound)
    below = np.zeros(key.size + 2, dtype=bool)
    below[k + 1] = True
    rank = below.cumsum()  # rank[q]: the distinct k below q
    # row rank[k] holds the k smallest keys.  The key at sorted position p
    # enters at row rank[p + 1], the first whose k exceeds p; the last row,
    # rank[-1], takes the keys that no row holds and is never read.
    table = np.zeros((rank[-1] + 1, -(-key.size // 64)), dtype=np.uint64)
    np.bitwise_or.at(table.view(np.uint8), (rank[1:-1], order >> 3), _BYTE_BIT[order & 7])
    np.bitwise_or.accumulate(table, axis=0, out=table)
    sets = table[rank[k]]
    return np.invert(sets, out=sets, where=~in_s[:, None])


def enumerate_locally_stable_cuts(inst: Instance, gamma: float) -> list[Cut]:
    """All cuts (up to complement) with xi(x) >= gamma * iota(x) at every vertex.

    Cuts come in lexicographic side order.  At gamma = inf these are the cuts
    with every iota(x) at or below the zero threshold, the cuts whose
    ``local_stability_gamma`` is +inf.
    """
    if not gamma >= 1.0:
        raise ParameterError("gamma must be >= 1")
    W = inst.weights
    scan = _Scan(inst.n)
    h, l = scan.h, scan.l
    mu = W.sum(axis=1)
    zero = ZERO_FRACTION * max(float(W.sum()), 1e-300)
    H, L, _ = scan.linear(W)  # (W chi)[x] = H[x, a] + L[x, b]

    if gamma == INF:
        theta = mu - zero  # iota = mu - xi <= zero

        def stable(xi: np.ndarray, iota: np.ndarray) -> np.ndarray:
            return iota <= zero
    else:
        # iota = mu - xi and max(xi, gamma * iota) <= gamma * mu, so a
        # stable vertex has xi >= theta (written so that no product overflows)
        theta = gamma / (1 + gamma) * mu * (1 - REL_TOL) - zero / (1 + gamma)

        def stable(xi: np.ndarray, iota: np.ndarray) -> np.ndarray:
            return xi - gamma * iota >= -REL_TOL * np.maximum(xi, gamma * iota) - zero
    # the margin dwarfs the rounding of to_s, xi, stable() and the thresholds
    theta -= 2.0 ** -40 * (mu + zero)

    # xi >= theta reads to_s <= mu - theta, that is to_s < nextafter(mu - theta),
    # for x in S and to_s >= theta otherwise.  Vertex 0 and the high block have
    # their side fixed by a, so each gives a set of admissible b per a; the low
    # block, sets of a per b.
    slack = mu - theta

    def bounds(xs: slice, own: np.ndarray, in_s: np.ndarray) -> np.ndarray:
        own = own[xs]
        return np.where(in_s, np.nextafter(slack[xs, None] - own, INF), theta[xs, None] - own)

    def admissible(keys: np.ndarray, bound: np.ndarray, in_s: np.ndarray) -> np.ndarray:
        # the AND of the threshold sets of a block's vertices (a block has at least one)
        sets = _threshold_sets(keys[0], bound[0], in_s[0])
        for j in range(1, keys.shape[0]):
            sets &= _threshold_sets(keys[j], bound[j], in_s[j])
        return sets

    in_s = np.ones((1 + h, 1 << h), dtype=bool)
    in_s[1:] = scan.bits_hi.T
    rows = admissible(L[:1 + h], bounds(slice(0, 1 + h), H, in_s), in_s)
    in_s = scan.bits_lo.T > 0
    cols = admissible(H[scan.lo], bounds(scan.lo, L, in_s), in_s)

    # The all-ones mask (S = V) is no cut: clear its bit.  Only the high
    # patterns with a nonempty row set are read, scan.rows at a time, in
    # increasing order, so the masks come out in increasing order.  Bit a of
    # cols[b] then decides each candidate (a, b) with one byte gather, and
    # the exact test decides each survivor.
    last = (1 << l) - 1
    rows.view(np.uint8)[-1, last >> 3] &= ~_BYTE_BIT[last & 7]
    col_bytes = cols.view(np.uint8)
    live = rows.any(axis=1).nonzero()[0]
    found = []
    for start in range(0, live.size, scan.rows):
        group = live[start:start + scan.rows]
        bits = np.unpackbits(rows[group].view(np.uint8), axis=1, count=1 << l)
        at = bits.reshape(-1).nonzero()[0]
        a, b = group[at >> l], at & last
        both = (col_bytes[b, a >> 3] & _BYTE_BIT[a & 7]) != 0
        a, b = a[both], b[both]
        sides = scan.sides((a << l) | b)
        to_s = H[:, a] + L[:, b]
        xi = np.where(sides, mu[:, None] - to_s, to_s)
        keep = stable(xi, mu[:, None] - xi).all(axis=0)
        found += Cut.adopt_rows(sides.T[keep])
    return found


@dataclass(frozen=True)
class StabilityReport:
    """Exact stability profile of an instance at one cut (all values from brute force).

    gamma and gamma_local may be +inf (bipartite support).  is_unique_maxcut
    says whether the instance has one maximum cut, whatever cut is reported.
    """

    gamma: float
    gamma_local: float
    alpha: float
    cheeger: float
    is_unique_maxcut: bool
    cut: Cut
    cut_weight: float


def instance_stability(inst: Instance) -> StabilityReport:
    """Full report at the brute-force optimal cut.

    When the maximum cut is not unique, gamma is clamped to 1: being
    gamma-stable for any gamma > 1 is equivalent to having a unique maximum cut.
    """
    cut, weight, count = brute_force_maxcut(inst)
    gamma, alpha, cheeger = subset_scan_minima(inst.weights, cut.delta)
    return StabilityReport(gamma if count == 1 else 1.0, local_stability_gamma(inst, cut),
                           alpha, cheeger, count == 1, cut, weight)


def cut_stability(inst: Instance, cut: Cut) -> StabilityReport:
    """Full report at a given cut, gamma as scanned (not clamped).

    A cut that does not fit the instance raises InvalidCutError before any
    scan.  One subset scan gives gamma, alpha and cheeger, and its tau table,
    the weight of every cut, also counts the maximum cuts.
    """
    check_cut(inst, cut)
    optima = _Optima()
    gamma, alpha, cheeger = _minima(inst.weights, cut.delta, optima)
    return StabilityReport(gamma, local_stability_gamma(inst, cut), alpha, cheeger,
                           optima.result()[1] == 1, cut, cut_weight(inst, cut))
