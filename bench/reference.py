"""Reference answers computed without the package under test.

Nothing here imports stablecut.  The exhaustive scans use a block
decomposition of the quadratic forms instead of the package's per-chunk
``W @ sides`` products: the free vertices 1..n-1 split into a high block and
a low block, every quantity becomes a (2^h, 2^l) table built from one small
GEMM, and the mask of a side vector is ``a * 2^l + b`` with vertex 1 as the
most significant bit, the package's own lexicographic order.  Tolerances
follow the package's documented conventions (relative 1e-9 for optima and
ratios, 1e-12 of the total weight as "exactly zero").
"""

from __future__ import annotations

import math

import numpy as np

REL = 1e-9
ZERO_FRACTION = 1e-12
INF = math.inf


def close(a: float, b: float, rel: float = REL) -> bool:
    """Equal up to ``rel`` relative; infinities must match exactly."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def le(a: float, b: float) -> bool:
    """a <= b up to the relative tolerance (the criterion-1 comparison)."""
    if a == INF:
        return b == INF
    if b == INF:
        return True
    return a <= b + REL * max(1.0, abs(a), abs(b))


def _bits(k: int) -> np.ndarray:
    """(2^k, k) 0/1 rows; column 0 is the most significant bit."""
    a = np.arange(1 << k)
    return ((a[:, None] >> np.arange(k - 1, -1, -1)[None, :]) & 1).astype(np.float64)


class BlockScan:
    """All side vectors of an n-vertex instance with vertex 0 on side S.

    Tables are built a block of high patterns at a time, so memory stays
    below the package's own scans and does not mask their peak.
    """

    ROWS = 64

    def __init__(self, n: int):
        self.n = n
        self.h = (n - 1) // 2
        self.l = n - 1 - self.h
        self.hi = np.arange(1, 1 + self.h)
        self.lo = np.arange(1 + self.h, n)
        self.Xh = _bits(self.h)
        self.Xl = _bits(self.l)
        self.count = (1 << (n - 1)) - 1  # the all-ones mask (S = V) is excluded

    def blocks(self):
        """Yield (first mask, rows of high patterns, validity of each mask in the block)."""
        for a0 in range(0, 1 << self.h, self.ROWS):
            rows = slice(a0, min(a0 + self.ROWS, 1 << self.h))
            first = a0 << self.l
            size = (rows.stop - a0) << self.l
            yield first, rows, (first + np.arange(size)) < self.count

    def quad(self, M: np.ndarray, pm: bool, rows: slice) -> np.ndarray:
        """x^T M x for every x = (1, x_hi, x_lo) of the block; x in {0,1} or, if pm, {-1,+1}."""
        Xh = self.Xh[rows]
        Xl = self.Xl
        if pm:
            Xh, Xl = 2.0 * Xh - 1.0, 2.0 * Xl - 1.0
        hi, lo = self.hi, self.lo
        qh = 2.0 * Xh @ M[0, hi] + ((Xh @ M[np.ix_(hi, hi)]) * Xh).sum(axis=1)
        ql = 2.0 * Xl @ M[0, lo] + ((Xl @ M[np.ix_(lo, lo)]) * Xl).sum(axis=1)
        return (qh[:, None] + ql[None, :] + 2.0 * (Xh @ M[np.ix_(hi, lo)]) @ Xl.T).ravel()

    def linear(self, v: np.ndarray, rows: slice) -> np.ndarray:
        """v . chi for every 0/1 vector chi = (1, chi_hi, chi_lo) of the block."""
        return (v[0] + (self.Xh[rows] @ v[self.hi])[:, None]
                + (self.Xl @ v[self.lo])[None, :]).ravel()

    def side(self, mask: int) -> np.ndarray:
        s = np.ones(self.n, dtype=bool)
        s[1:] = [(mask >> (self.n - 1 - i)) & 1 for i in range(1, self.n)]
        return s


def mask_of(side) -> int:
    """Mask of a side vector normalised so vertex 0 is on side S."""
    s = np.asarray(side, dtype=bool)
    if not s[0]:
        s = ~s
    m = 0
    for bit in s[1:]:
        m = (m << 1) | int(bit)
    return m


def cut_weight(W: np.ndarray, side) -> float:
    s = np.asarray(side, dtype=bool)
    return float(W[np.ix_(s, ~s)].sum())


def maxcut(W: np.ndarray) -> dict:
    """Optimum weight, optimum count (up to complement) and the first optimal side."""
    scan = BlockScan(W.shape[0])
    total = W.sum()

    def weights():
        for first, rows, valid in scan.blocks():
            yield first, np.where(valid, (total - scan.quad(W, True, rows)) / 4.0, -INF)

    best = max(float(w.max()) for _, w in weights())
    count, first_hit = 0, None
    for first, w in weights():
        hits = np.flatnonzero(w >= best - REL * best)
        count += hits.size
        if first_hit is None and hits.size:
            first_hit = first + int(hits[0])
    side = scan.side(first_hit)
    return {"weight": cut_weight(W, side), "count": count, "side": side}


def subset_minima(W: np.ndarray, side=None) -> tuple[float, float, float]:
    """(gamma, alpha, cheeger) over nonempty proper subsets; see the package docs.

    gamma and alpha refer to the cut given by ``side`` and are +inf without it.
    """
    scan = BlockScan(W.shape[0])
    mu = W.sum(axis=1)
    total = float(mu.sum())
    zero = ZERO_FRACTION * max(total, 1e-300)
    if side is not None:
        d = np.where(np.asarray(side, dtype=bool), 1.0, -1.0)
        Wc = W * (d[:, None] * d[None, :] < 0)
        xi_vec = Wc.sum(axis=1)
    gamma = alpha = cheeger = INF
    for _, rows, valid in scan.blocks():
        mu_a = scan.linear(mu, rows)[valid]
        tau = mu_a - scan.quad(W, False, rows)[valid]
        min_side = np.minimum(mu_a, total - mu_a)
        safe = np.where(min_side > zero, min_side, INF)
        cheeger = min(cheeger, float((tau / safe).min()))
        if side is not None:
            xi = (scan.linear(xi_vec, rows) - scan.quad(Wc, False, rows))[valid]
            iota = tau - xi
            pos = iota > zero
            gamma = min(gamma, float(np.where(pos, xi / np.where(pos, iota, 1.0), INF).min()))
            alpha = min(alpha, float(((xi - iota) / safe).min()))
    return gamma, alpha, cheeger


def local_gamma(W: np.ndarray, side) -> float:
    """min over vertices of xi(x)/iota(x); +inf when every iota is zero."""
    s = np.asarray(side, dtype=bool)
    mu = W.sum(axis=1)
    to_s = W @ s.astype(np.float64)
    xi = np.where(s, mu - to_s, to_s)
    iota = mu - xi
    zero = ZERO_FRACTION * max(float(W.sum()), 1e-300)
    pos = iota > zero
    return float(np.where(pos, xi / np.where(pos, iota, 1.0), INF).min())


def locally_stable_masks(W: np.ndarray, gamma: float, chunk: int = 4) -> np.ndarray:
    """Sorted masks of every cut with xi(x) >= gamma * iota(x) at all vertices."""
    n = W.shape[0]
    scan = BlockScan(n)
    mu = W.sum(axis=1)
    zero = ZERO_FRACTION * max(float(W.sum()), 1e-300)
    Th = W[:, scan.hi] @ scan.Xh.T
    Tl = W[:, scan.lo] @ scan.Xl.T
    side_lo = np.zeros((n, 1, 1 << scan.l), dtype=bool)
    side_lo[0] = True
    side_lo[scan.lo, 0, :] = scan.Xl.T.astype(bool)
    found = []
    for a0 in range(0, 1 << scan.h, chunk):
        a1 = min(a0 + chunk, 1 << scan.h)
        to_s = W[:, 0][:, None, None] + Th[:, a0:a1, None] + Tl[:, None, :]
        side = np.broadcast_to(side_lo, to_s.shape).copy()
        side[scan.hi] = scan.Xh[a0:a1].T.astype(bool)[:, :, None]
        xi = np.where(side, mu[:, None, None] - to_s, to_s)
        iota = mu[:, None, None] - xi
        ok = (xi - gamma * iota >= -REL * np.maximum(xi, gamma * iota) - zero).all(axis=0)
        a, b = np.nonzero(ok)
        found.append((a0 + a) * (1 << scan.l) + b)
    masks = np.sort(np.concatenate(found))
    return masks[masks < scan.count]


def eig_tol(M: np.ndarray) -> float:
    """The package's documented zero-eigenvalue threshold for a matrix M."""
    return 1e-8 * (1.0 + float(np.abs(M).max()) * M.shape[0])


def shifted_cut_matrix(W: np.ndarray, side) -> np.ndarray:
    """W + D' with D' = D^cut - D^uncut; (W + D') delta = 0 for the cut's delta."""
    d = np.where(np.asarray(side, dtype=bool), 1.0, -1.0)
    sep = d[:, None] * d[None, :] < 0
    return W + np.diag((W * sep).sum(axis=1) - (W * ~sep).sum(axis=1))


def psd_verdict(W: np.ndarray, side) -> str:
    """The PSD rank certificate's verdict, recomputed with numpy's eigh."""
    M = shifted_cut_matrix(W, side)
    tol = eig_tol(M)
    ev, vec = np.linalg.eigh(M)
    if ev[0] < -tol:
        return "not-psd"
    if ev.shape[0] < 2 or ev[1] <= tol or abs(ev[0]) > tol:
        return "rank-deficient"
    aligned = vec[:, 0] * np.where(np.asarray(side, dtype=bool), 1.0, -1.0)
    if not ((aligned > 1e-8).all() or (aligned < -1e-8).all()):
        return "rank-deficient"
    return "certified"


def proves_unique_optimum(W: np.ndarray, side) -> bool:
    """True when W + D' is PSD of rank n-1, which proves ``side`` the unique maximum cut.

    For every +/-1 vector x, x^T (W + D') x >= 0 gives x^T W x >= delta^T W delta,
    with equality only on the kernel, which is spanned by delta at rank n-1.
    """
    M = shifted_cut_matrix(W, side)
    ev = np.linalg.eigvalsh(M)
    tol = eig_tol(M)
    return bool(ev[0] >= -tol and ev[1] > tol)


def balanced_stability_bound(W: np.ndarray, side) -> float:
    """Lower bound on the subset stability of a balanced cut with full cross support.

    For |L| = |R| and a subset A, the number of cross pairs leaving A minus the
    number of same-side pairs leaving A is (a_L - a_R)^2 >= 0, so
    xi(A) >= min cross weight * #same pairs >= (min cross / max same) * iota(A).
    Returns 0 when the cut is unbalanced or some cross pair has weight zero.
    """
    s = np.asarray(side, dtype=bool)
    if 2 * int(s.sum()) != s.size:
        return 0.0
    cross = s[:, None] != s[None, :]
    same = ~cross & ~np.eye(s.size, dtype=bool)
    cmin = float(W[cross].min())
    smax = float(W[same].max()) if same.any() else 0.0
    if cmin <= 0.0:
        return 0.0
    return INF if smax == 0.0 else cmin / smax


def sqrt_threshold(n: int) -> float:
    return math.sqrt(8.0 * n + 4.0) + 1.0


def weight_scale(W: np.ndarray) -> float:
    return max(1.0, float(np.abs(W).sum()))
