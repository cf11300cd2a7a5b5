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
lo_F[b]], written into buffers allocated once per scan.  A scan therefore
costs O(n 2^n) rather than the O(n^2 2^n) of forming W @ sides.  The layout
also owns the chunk boundaries (2^14 masks each, but at least 8 high
patterns, or all of them, so that n = 28 runs 1,024 chunks and not 8,192),
the excluded all-ones mask and the size cap of every scan, one constant,
``SCAN_MAX_N`` = 28, and it reads side vectors, such as the blocks
``cut_sides`` yields, off cached bit tables.

On top of it sit one per-vertex xi/iota helper for single cuts and blocks,
and the 0/0 -> +inf ratio convention.  The maximum cut is found in a single pass
that also counts the ties.

The enumeration of locally stable cuts tests no mask one by one.  A stable
vertex x has xi(x) >= theta_x, a bound from gamma, mu_x and the tolerances,
and (W chi)[x] = H[x, a] + L[x, b] is a linear form.  Where a fixes the side
of x (vertex 0 and the high block), the admissible b for each a are a prefix
of L[x, :] in sorted order or its complement: one row of a per-vertex table
of packed prefix bitsets, picked by ``searchsorted``.  The low block gives
sets of a for each b in the same way.  The AND of the row sets and of the
column sets, combined chunk by chunk, leaves a few candidate masks, and the
exact per-vertex test then decides each of them.
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


@functools.lru_cache(maxsize=None)
def _bit_table(k: int) -> np.ndarray:
    """Read-only (2^k, k) 0/1 table: row r holds the bits of r, most significant first."""
    r = np.arange(1 << k)
    bits = ((r[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.float64)
    bits.flags.writeable = False
    return bits


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

    def cut(self, M: np.ndarray) -> tuple:
        """The form w_M(S, S-bar) = (M 1) . chi - chi^T M chi for a symmetric M."""
        l_hi, l_lo, _ = self.linear(M.sum(axis=1))
        q_hi, q_lo, cross = self.quadratic(M)
        return l_hi - q_hi, l_lo - q_lo, -cross

    def tables(self, forms: list):
        """Yield (first mask, number of masks, [values of each form]) per chunk.

        Every chunk is one GEMM: row a of form f's left block is
        [cross_f[a] | hi_f[a] | e_f] (a linear form's cross is zero) and the
        right matrix's column b is [bits_lo[b]; 1; lo_1[b] ... lo_F[b]].  The
        yielded tables are views of one buffer allocated per call, in mask
        order, and are overwritten at the next chunk.
        """
        F, l = len(forms), self.l
        left = np.zeros((F, self.bits_hi.shape[0], l + 1 + F))
        right = np.empty((l + 1 + F, 1 << l))
        right[:l] = self.bits_lo.T
        right[l] = 1.0
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


def brute_force_maxcut(inst: Instance) -> tuple[Cut, float, int]:
    """Exhaustive maximum cut.

    Returns one optimal cut (the lexicographically smallest side vector with
    vertex 0 in S), its weight, and the number of distinct optimal cuts (a
    cut and its complement count once).  Optima are counted up to relative
    tolerance 1e-9.  Raises SizeLimitError when n > SCAN_MAX_N.
    """
    scan = _Scan(inst.n)
    best = -INF
    # Cuts within tolerance of the running best (a superset of the final
    # optima) are tallied per distinct weight, so memory stays small however
    # many optima tie.  Weights enter in scan order of their first cut.
    near: dict[float, list] = {}  # weight -> [first mask, count]
    for first, _, (w,) in scan.tables([scan.cut(inst.weights)]):
        best = max(best, float(w.max()))
        idx = np.flatnonzero(w >= best - REL_TOL * best)
        values, first_at, counts = np.unique(w[idx], return_index=True, return_counts=True)
        for j in np.argsort(first_at):
            entry = near.setdefault(float(values[j]), [first + int(idx[first_at[j]]), 0])
            entry[1] += int(counts[j])
    optima = [entry for v, entry in near.items() if v >= best - REL_TOL * best]
    cut = Cut(scan.sides(np.array([optima[0][0]]))[:, 0])
    return cut, cut_weight(inst, cut), sum(count for _, count in optima)


def subset_scan_minima(W: np.ndarray, delta: np.ndarray | None = None) -> tuple[float, float, float]:
    """Scan all nonempty proper subsets of a weight matrix.

    Returns (gamma, alpha, cheeger): the minima of xi(A)/iota(A),
    (xi(A)-iota(A))/min(mu(A), mu(A-bar)) and tau(A)/min(mu(A), mu(A-bar)).
    When ``delta`` is None only the Cheeger minimum is meaningful and the
    first two come back as +inf.  0/0 ratios are +inf by convention.
    """
    scan = _Scan(W.shape[0])
    mu = W.sum(axis=1)
    total_mu = float(mu.sum())
    zero = ZERO_FRACTION * max(total_mu, 1e-300)
    # mu(A), tau(A) = w_W(A, A-bar) and xi(A) = w_{W_cut}(A, A-bar)
    forms = [scan.linear(mu), scan.cut(W)]
    if delta is not None:
        forms.append(scan.cut(W * (delta[:, None] * delta[None, :] < 0)))
    # A nonempty proper side has mu at least the least degree (less the
    # rounding of total_mu - mu(A), far below zero), so sides at or below
    # zero, whose ratios count as 0, can occur only when some degree is
    # within 2 * zero.
    guard = bool(mu.min() <= 2.0 * zero)
    chunk = min(scan.count, scan.step)
    ratio_buf, ok_buf = np.empty(chunk), np.empty(chunk, dtype=bool)
    gamma = alpha = cheeger = INF
    for _, size, (mu_a, tau, *cut_part) in scan.tables(forms):
        ratio, ok = ratio_buf[:size], ok_buf[:size]
        np.subtract(total_mu, mu_a, out=ratio)
        side = np.minimum(mu_a, ratio, out=mu_a)  # mu(A) is spent: its table holds min-side
        if guard:
            np.less_equal(side, zero, out=ok)
            np.copyto(side, INF, where=ok)
        cheeger = min(cheeger, float(np.divide(tau, side, out=ratio).min()))
        if cut_part:
            xi = cut_part[0]
            iota = np.subtract(tau, xi, out=tau)  # tau is spent: its table holds iota
            np.greater(iota, zero, out=ok)
            np.divide(xi, iota, out=ratio, where=ok)
            np.logical_not(ok, out=ok)
            np.copyto(ratio, INF, where=ok)  # 0/0 -> +inf
            gamma = min(gamma, float(ratio.min()))
            np.subtract(xi, iota, out=ratio)
            alpha = min(alpha, float(np.divide(ratio, side, out=ratio).min()))
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


def _threshold_sets(key: np.ndarray, upper: np.ndarray, lower: np.ndarray,
                    in_s: np.ndarray) -> np.ndarray:
    """Bitsets over the entries of ``key``, one per row j: the i with
    key[i] <= upper[j] where in_s[j], else the i with key[i] >= lower[j].

    Bit i of a row is bit 7 - i % 8 of its byte i // 8, as ``np.packbits``
    lays it out; rows are whole uint64 words.  Row k of one table holds the k
    smallest keys (a ``bitwise_or.accumulate`` over one-hot rows); a set of
    the first kind is a row of it and a set of the second kind a row's
    complement.
    """
    order = np.argsort(key)
    table = np.zeros((key.size + 1, -(-key.size // 64)), dtype=np.uint64)
    table.view(np.uint8)[np.arange(1, key.size + 1), order >> 3] = 0x80 >> (order & 7)
    np.bitwise_or.accumulate(table, axis=0, out=table)
    ordered = key[order]
    k = np.where(in_s, np.searchsorted(ordered, upper, "right"),
                 np.searchsorted(ordered, lower, "left"))
    sets = table[k]
    flip = np.where(in_s, np.uint64(0), ~np.uint64(0))
    return np.bitwise_xor(sets, flip[:, None], out=sets)


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

    # xi >= theta reads to_s <= mu - theta for x in S and to_s >= theta
    # otherwise.  Vertex 0 and the high block have their side fixed by a, so
    # each gives a set of admissible b per a; the low block, sets of a per b.
    in_s = np.ones((1 << h, 1 + h), dtype=bool)
    in_s[:, 1:] = scan.bits_hi
    rows = np.full((1 << h, -(-(1 << l) // 64)), ~np.uint64(0))
    for x in range(1 + h):
        rows &= _threshold_sets(L[x], mu[x] - theta[x] - H[x], theta[x] - H[x], in_s[:, x])
    cols = np.full((1 << l, -(-(1 << h) // 64)), ~np.uint64(0))
    for j, x in enumerate(range(1 + h, inst.n)):
        cols &= _threshold_sets(H[x], mu[x] - theta[x] - L[x], theta[x] - L[x],
                                scan.bits_lo[:, j] > 0)

    # a chunk holds at least 8 high patterns, or all of them, so its columns
    # start on a byte of cols.  The exact test then decides each candidate.
    col_bytes = cols.view(np.uint8)
    found = []
    for first, hi, size in scan.chunks():
        block = np.unpackbits(rows[hi].view(np.uint8), axis=1, count=1 << l)
        r = block.shape[0]
        block &= np.unpackbits(col_bytes[:, hi.start >> 3:(hi.start + r + 7) >> 3],
                               axis=1, count=r).T
        masks = first + np.flatnonzero(block.reshape(-1)[:size])
        a, b = scan.patterns(masks)
        sides = scan.sides(masks)
        to_s = H[:, a] + L[:, b]
        xi = np.where(sides, mu[:, None] - to_s, to_s)
        keep = stable(xi, mu[:, None] - xi).all(axis=0)
        found.extend(Cut(side) for side in sides[:, keep].T)
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


def instance_stability(inst: Instance) -> StabilityReport:
    """Full report at the brute-force optimal cut."""
    cut, _, count = brute_force_maxcut(inst)
    gamma, alpha, cheeger = subset_scan_minima(inst.weights, cut.delta)
    unique = count == 1
    return StabilityReport(
        gamma=gamma if unique else 1.0,
        gamma_local=local_stability_gamma(inst, cut),
        alpha=alpha,
        cheeger=cheeger,
        is_unique_maxcut=unique,
    )
