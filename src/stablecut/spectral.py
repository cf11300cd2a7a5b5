"""Spectral certificates and the semidefinite relaxation pipeline.

Fix a cut with sign vector delta.  Split W into its cut and uncut parts,
let D^cut/D^uncut be the corresponding diagonal row-sum matrices, and set
D' = D^cut - D^uncut.  Then (W + D') delta = 0 always, and when the cut is
locally stable enough relative to the expansion of its cut edges, W + D' is
positive semidefinite with rank n-1 — a certificate that pins the maximum
cut down to the sign pattern of the kernel.  ``build_spectral_bundle`` is
the one place W + D' is formed; the PSD certificate, the bipolarity battery
and the strongly bipolar perturbation all read it.  Its spectrum is computed
only when a caller reads it; every PSD decision that needs no eigenvalue is
made by Cholesky factorization instead.  Each rule has one definition:
``psd_rank_certificate`` decides whether W + D' is PSD of rank n-1 (the
perturbation's precondition is its verdict), and ``glev_cut`` reads the cut
off the least eigenvector of a shifted matrix.

The relaxation side solves

    minimize sum_ij W_ij <v_i, v_j>   over unit vectors v_i

by block-coordinate descent on the factor matrix (each row update is the
closed-form minimizer) for at most MIXING_SWEEPS sweeps; a solve that has
not converged by then is finished by a primal-dual interior-point method on
the Gram matrix, whose dual iterate certifies the gap; each of its Newton
steps takes two LU solves, one for Z^-1 and one for the dual step.  The
pipeline then extracts the unique dual diagonal from the solved Gram matrix
and rounds with random hyperplanes.  A cut whose rank-one +/-1 Gram matrix attains the
relaxation optimum is called bipolar here, which happens exactly when
W + D' is PSD; the four equivalent characterizations are evaluated
independently by ``bipolarity_check``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, PreconditionError, SolverFailure
from .instance import Cut, Instance, check_cut, heaviest_side
from .oracle import distinction_alpha, local_stability_gamma, subset_scan_minima

INF = math.inf

# sqrt of the largest float: ||g||^2 stays finite for g = w @ V with unit rows
# of V whenever the row sum of w is at most this.
ROW_SUM_LIMIT = math.sqrt(sys.float_info.max)

# Mixing sweeps a relaxation solve runs before the interior-point finish takes
# over; solves that converge within them never reach the finish.
MIXING_SWEEPS = 32
# Relative tolerance of both stop rules: the mixing objective's change per
# sweep and the finish's certified duality gap.
RELAX_TOL = 1e-10
# Iteration cap of the interior-point finish, which takes 18 to 32 iterations on
# the inputs measured (n = 3 to 200): 18 to 23 on criterion 9's pools, up to 32
# on planted partition 0.6/0.4 at n = 200.
FINISH_ITERATIONS = 100


def eig_zero_tol(M: np.ndarray) -> float:
    """Scale-aware threshold below which an eigenvalue counts as zero."""
    return 1e-8 * (1.0 + float(np.abs(M).max()) * M.shape[0])


def weight_scale(W: np.ndarray) -> float:
    """Reference magnitude for relaxation values and dual entries."""
    return max(1.0, float(np.abs(W).sum()))


# ---------------------------------------------------------------------------
# PSD certificate for a candidate cut.
# ---------------------------------------------------------------------------


def _positive_definite(M: np.ndarray) -> bool:
    """True when the Cholesky factorization of M succeeds."""
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class SpectralBundle:
    """W + D' at a cut: the one place the shift is formed.

    ``cut_part`` is W on the separated pairs (zero elsewhere) and ``shift``
    the diagonal of D' = D^cut - D^uncut, stored as a vector, so that
    ``shifted`` = W + D' annihilates ``delta``.  ``tol`` is
    eig_zero_tol(shifted).  ``eigenvalues`` (ascending) come from one
    ``np.linalg.eigh`` of ``shifted``, run the first time they are read.
    """

    delta: np.ndarray
    cut_part: np.ndarray
    shift: np.ndarray
    shifted: np.ndarray
    tol: float

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigh(self.shifted)[0]


def _cut_part(inst: Instance, cut: Cut) -> np.ndarray:
    """W restricted to the edges the cut separates (zero elsewhere)."""
    check_cut(inst, cut)
    return inst.weights * np.not_equal.outer(cut.side, cut.side)


def build_spectral_bundle(inst: Instance, cut: Cut) -> SpectralBundle:
    cut_part = _cut_part(inst, cut)
    W = inst.weights
    shift = cut_part.sum(axis=1) - (W - cut_part).sum(axis=1)
    shifted = W + 0.0  # a copy in which a -0.0 weight reads +0.0
    np.fill_diagonal(shifted, shift)
    return SpectralBundle(delta=cut.delta, cut_part=cut_part, shift=shift, shifted=shifted,
                          tol=eig_zero_tol(shifted))


def psd_rank_certificate(bundle: SpectralBundle) -> str:
    """"certified" iff W + D' is PSD of rank n-1, with kernel span(delta).

    Other verdicts: "rank-deficient" (PSD, kernel dimension above one) and
    "not-psd" (an eigenvalue below -tol).  Since (W + D') delta = 0, the
    matrix L = W + D' + c delta delta^T with c = 1 + max |W + D'| moves
    delta's eigenvalue from 0 to about c n and keeps every other eigenvalue,
    so the verdict is "certified" when L - tol I is positive definite (the
    second-smallest eigenvalue of W + D' exceeds tol), else "rank-deficient"
    when L + tol I is, else "not-psd".  Two Cholesky factorizations at most,
    and no eigendecomposition.
    """
    M = bundle.shifted
    L = M + (1.0 + float(np.abs(M).max())) * np.outer(bundle.delta, bundle.delta)
    tol_eye = bundle.tol * np.eye(M.shape[0])
    if _positive_definite(L - tol_eye):
        return "certified"
    if _positive_definite(L + tol_eye):
        return "rank-deficient"
    return "not-psd"


@dataclass(frozen=True)
class DistinguishedReport:
    """Local stability of a cut against the two spectral-feasibility thresholds.

    The certificate above is guaranteed once gamma_local exceeds
    2 / (1 - sqrt(1 - h^2)) for h the Cheeger constant of the cut edges
    alone, and a fortiori for h replaced by the distinction coefficient
    alpha (which it dominates).
    """

    gamma_local: float
    alpha: float
    cut_cheeger: float
    alpha_threshold: float
    cheeger_threshold: float
    meets_alpha: bool
    meets_cheeger: bool


def spectral_threshold(x: float) -> float:
    """2 / (1 - sqrt(1 - x^2)), computed as 2 (1 + sqrt(1 - x^2)) / x^2 so that it
    cannot cancel to 2/0 for tiny x; +inf for x <= 0 or when x^2 underflows."""
    x = min(x, 1.0)
    x2 = x * x
    if x <= 0.0 or x2 == 0.0:
        return INF
    return 2.0 * (1.0 + math.sqrt(1.0 - x2)) / x2


def distinguished_condition(inst: Instance, cut: Cut) -> DistinguishedReport:
    """Measure gamma_local, alpha and h(cut edges); report threshold satisfaction."""
    cut_part = _cut_part(inst, cut)
    gamma_local = local_stability_gamma(inst, cut)
    alpha = distinction_alpha(inst, cut)
    _, _, h_cut = subset_scan_minima(cut_part, None)
    thr_a = spectral_threshold(alpha)
    thr_h = spectral_threshold(h_cut)
    return DistinguishedReport(
        gamma_local=gamma_local, alpha=alpha, cut_cheeger=h_cut,
        alpha_threshold=thr_a, cheeger_threshold=thr_h,
        meets_alpha=gamma_local > thr_a, meets_cheeger=gamma_local > thr_h)


# ---------------------------------------------------------------------------
# Cuts induced by least eigenvectors of diagonal shifts.
# ---------------------------------------------------------------------------


def glev_cut(inst: Instance, shift) -> Cut | None:
    """Cut induced by the least eigenvector of W + diag(shift).

    Returns None when the least eigenvalue is degenerate or some coordinate
    of the eigenvector is too close to zero to take a side.  Raises when the
    shifted matrix is not PSD (the shift does not certify anything then).
    """
    d = np.asarray(shift, dtype=np.float64)
    if d.shape != (inst.n,):
        raise ParameterError(f"shift must be a diagonal vector of length {inst.n}")
    if not np.isfinite(d).all():
        raise ParameterError("shift must be finite")
    M = inst.weights + np.diag(d)
    tol = eig_zero_tol(M)
    eigenvalues, vectors = np.linalg.eigh(M)
    if eigenvalues[0] < -tol:
        raise PreconditionError("W + diag(shift) is not PSD")
    if eigenvalues.shape[0] > 1 and eigenvalues[1] - eigenvalues[0] <= tol:
        return None
    v = vectors[:, 0]
    if (np.abs(v) <= 1e-8).any():
        return None
    side = v > 0.0
    if side.all() or not side.any():
        return None
    return Cut(side)


# ---------------------------------------------------------------------------
# The vector relaxation: block-coordinate primal, dual extraction, rounding.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GwSolution:
    """Result of one relaxation solve.

    ``sweeps`` counts mixing sweeps and ``finish_iterations`` the
    interior-point iterations after them: 0 when mixing converged or
    ``max_sweeps`` stopped the solve first.
    """

    vectors: np.ndarray
    gram: np.ndarray
    primal_value: float
    converged: bool
    sweeps: int
    finish_iterations: int = 0


def gw_primal_solve(inst: Instance, max_sweeps: int = 100_000, seed: int = 0) -> GwSolution:
    """Minimize sum_ij W_ij <v_i, v_j> over unit vectors: mixing sweeps, then a finish.

    The mixing phase runs cyclic row updates: each v_i <- -normalize(sum_j
    W_ij v_j) is the exact minimizer with the other rows fixed (rows with a
    vanishing update direction keep their current value: any unit vector is
    stationary there).  It stops when the objective change per sweep drops
    below RELAX_TOL relative, or after min(max_sweeps, MIXING_SWEEPS) sweeps.  The
    objective is evaluated once per sweep, as one GEMM and a dot, and only
    decides when to stop: the rows never read it.  Rows update through one
    buffer reused for the whole solve, with the same gemv and the same
    division as ``v_i = -(w_i @ V) / norm``, so nothing is allocated per row.
    Both stop rules scale with the weights: the relative test's floor is
    min(1, sum W) and the stall threshold 1e-13 max W.

    Only a ``max_sweeps`` at or below MIXING_SWEEPS changes anything: it caps
    the mixing phase and skips the finish, which leaves a mixing-only solve.
    Above it, a solve that has not converged within MIXING_SWEEPS sweeps is
    finished by ``_interior_point``, which ignores V and so the seed.  It
    returns the Gram matrix X itself, vectors U sqrt(max(lambda, 0)) from
    eigh(X), primal value <W, X>, and converged=True when its certified
    duality gap reached RELAX_TOL.  A mixing solve is certified only a
    posteriori, through the dual residuals.

    Raises ParameterError when a row sum of W exceeds ROW_SUM_LIMIT: a row
    update's squared norm is at most the row sum squared, and above the
    limit it would overflow.
    """
    n = inst.n
    W = inst.weights
    if W.sum(axis=1).max() > ROW_SUM_LIMIT:
        raise ParameterError(
            f"a row sum of the weights exceeds {ROW_SUM_LIMIT:.6g}, where the relaxation's "
            "row updates overflow")
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(n, n))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    floor = min(1.0, float(W.sum()))
    stall = 1e-13 * float(W.max())
    rows = list(zip(W, V))  # views: writing v updates V in place
    g = np.empty(n)
    prev = float(np.vdot(W @ V, V))
    converged = False
    sweeps = 0
    for sweeps in range(1, min(max_sweeps, MIXING_SWEEPS) + 1):
        for w, v in rows:
            np.dot(w, V, out=g)  # the gemv of w @ V, into the one buffer
            norm = math.sqrt(g.dot(g))  # np.linalg.norm of a real vector, without its wrapper
            if norm > stall:
                np.divide(g, -norm, out=v)
        value = float(np.vdot(W @ V, V))
        if abs(value - prev) <= RELAX_TOL * (floor + abs(value)):
            converged = True
            prev = value
            break
        prev = value
    if converged or max_sweeps <= MIXING_SWEEPS:
        return GwSolution(vectors=V, gram=V @ V.T, primal_value=prev,
                          converged=converged, sweeps=sweeps)
    X, converged, iterations = _interior_point(W, floor)
    lam, U = np.linalg.eigh(X)
    return GwSolution(vectors=U * np.sqrt(np.maximum(lam, 0.0)), gram=X,
                      primal_value=float(np.vdot(W, X)), converged=converged,
                      sweeps=sweeps, finish_iterations=iterations)


def _step_length(M: np.ndarray, dM: np.ndarray) -> float:
    """Backtracking step that keeps M + a dM positive definite.

    Tries a = 1, 0.8, 0.64, ... by Cholesky; a step below 1 is taken 0.95 of
    the way, which keeps the iterate off the boundary of the cone.  Returns 0
    when no a >= 0.8**99 passes (M itself is not positive definite).
    """
    a = 1.0
    for _ in range(100):
        if _positive_definite(M + a * dM):
            return a if a == 1.0 else 0.95 * a
        a *= 0.8
    return 0.0


def _interior_point(W: np.ndarray, floor: float) -> tuple[np.ndarray, bool, int]:
    """Solve min <W, X> s.t. diag X = 1, X PSD by a primal-dual interior-point method.

    The method and step rules of Helmberg, Rendl, Vanderbei and Wolkowicz
    (SIAM J. Optim. 6(2), 1996), with the dual max -sum(y) s.t. Z = Diag(y) + W
    PSD.  From X = I and a diagonally dominant Z, each step takes Z^-1 from
    one LU inversion (symmetrised), solves (Z^-1 o X) dy = mu diag(Z^-1) - 1
    by LU, which keeps diag X = 1, and takes
    dX = sym(-Z^-1 Diag(dy) X + mu Z^-1 - X); ``_step_length`` picks the
    primal and dual step lengths, and mu = <X, Z> / 2n is halved after a
    step pair summing above 1.8.  Z stays positive definite, so the gap
    sum(y) + <W, X> bounds how far <W, X> lies above the optimum: the solve
    stops once it is at most RELAX_TOL (floor + |sum y|), and reports False after
    FINISH_ITERATIONS iterations otherwise.  Returns X, that flag and the
    iterations run.
    """
    n = W.shape[0]
    X = np.eye(n)
    y = 1.1 * np.abs(W).sum(axis=1) + floor
    Z = np.diag(y) + W
    diag = np.diag_indices(n)
    mu = float(np.vdot(X, Z)) / (2 * n)
    for iteration in range(1, FINISH_ITERATIONS + 1):
        Zi = np.linalg.inv(Z)
        Zi = (Zi + Zi.T) / 2
        dy = np.linalg.solve(Zi * X, mu * np.diagonal(Zi) - 1.0)
        dX = mu * Zi - X - (Zi * dy) @ X  # Zi * dy is Z^-1 Diag(dy)
        dX = (dX + dX.T) / 2
        alpha_p = _step_length(X, dX)
        X += alpha_p * dX
        alpha_d = _step_length(Z, np.diag(dy))
        y += alpha_d * dy
        Z[diag] += alpha_d * dy
        mu = float(np.vdot(X, Z)) / (2 * n)
        if alpha_p + alpha_d > 1.8:
            mu /= 2
        dual = float(y.sum())
        if dual + float(np.vdot(W, X)) <= RELAX_TOL * (floor + abs(dual)):
            return X, True, iteration
    return X, False, FINISH_ITERATIONS


@dataclass(frozen=True)
class DualExtraction:
    """The unique dual candidate extracted from a primal Gram matrix.

    At a true optimum W - diag(diag_values) is PSD and annihilates the Gram
    matrix; ``psd_residual`` (most negative eigenvalue, >= -tol) and
    ``kkt_residual`` (max |P (W - D)|, <= tol) quantify how close this solve
    got.  ``gap`` is |primal - dual| = |sum P o W - sum diag(P W)|, which is
    zero by the trace identity whatever P is: it shows rounding only, and
    certifies nothing.  The dual shifted into feasibility, diag_values +
    psd_residual, lies n * max(0, -psd_residual) below the primal value;
    that is the gap this extraction certifies.
    """

    diag_values: np.ndarray
    gap: float
    psd_residual: float
    kkt_residual: float


def gw_dual_extract(inst: Instance, gram: np.ndarray) -> DualExtraction:
    """Extract D_jj = sum_i P_ji W_ij and report optimality residuals."""
    P = np.asarray(gram, dtype=np.float64)
    if P.shape != (inst.n, inst.n):
        raise ParameterError("gram matrix has the wrong shape")
    if np.abs(np.diagonal(P) - 1.0).max() > 1e-6:
        raise ParameterError("gram diagonal must be 1")
    if not _positive_definite(P + eig_zero_tol(P) * np.eye(inst.n)):
        raise ParameterError("gram matrix must be PSD")
    W = inst.weights
    d = np.diagonal(P @ W).copy()
    A = W - np.diag(d)
    primal = float((P * W).sum())
    return DualExtraction(diag_values=d, gap=abs(primal - float(d.sum())),
                          psd_residual=float(np.linalg.eigvalsh(A)[0]),
                          kkt_residual=float(np.abs(P @ A).max()))


@dataclass(frozen=True)
class GwRounding:
    """Best hyperplane rounding: the cut, its weight, and the projection
    vector u that produced it (u always lies in the span of the Gram columns)."""

    cut: Cut
    weight: float
    projection: np.ndarray


def gw_round(inst: Instance, vectors: np.ndarray, seed: int = 0, trials: int = 32) -> GwRounding:
    """Round solved vectors through uniformly random hyperplanes.

    Each trial samples a direction v and takes S = {i : <v, v_i> > 0}.  The
    sides go to ``heaviest_side``, which skips one-sided patterns (an exactly
    zero projection among them), and the first trial to reach the heaviest
    cut gives the projection.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    V = np.asarray(vectors, dtype=np.float64)
    if V.ndim != 2 or V.shape[0] != inst.n:
        raise ParameterError("vectors must be (n, r)")
    rng = np.random.default_rng(seed)
    projections = [V @ rng.normal(size=V.shape[1]) for _ in range(trials)]
    hit = heaviest_side(inst, [np.array(projections).T > 0.0])
    if hit is None:
        raise SolverFailure("every rounding trial produced a one-sided pattern")
    j, side, w = hit
    return GwRounding(cut=Cut(side), weight=w, projection=projections[j])


# ---------------------------------------------------------------------------
# Bipolarity: four equivalent ways to say "the relaxation optimum is the cut".
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BipolarityReport:
    """Independent verdicts for the four equivalent bipolarity conditions.

    All four read W + D' from ``bundle``:
    primal_attains_binary: the solved relaxation value equals delta^T W delta.
    kernel_sign_glev: delta spans a zero eigenvector of W + D' whose
        eigenvalue is the least one.
    psd_shift: W + D' is PSD.
    dual_matches: the extracted dual diagonal equals -D'.
    """

    bundle: SpectralBundle
    binary_value: float
    primal_value: float
    conditions: dict

    @property
    def agree(self) -> bool:
        values = list(self.conditions.values())
        return all(values) or not any(values)

    @property
    def bipolar(self) -> bool:
        return all(self.conditions.values())


def bipolarity_check(inst: Instance, cut: Cut, seed: int = 0,
                     tol_scale: float = 1.0) -> BipolarityReport:
    """Evaluate the four bipolarity conditions independently.

    The equivalences are meaningful when ``cut`` is a maximum cut (callers
    check that against the oracle at desk scale).  ``tol_scale`` escalates
    every tolerance for borderline spectra; escalation is for reporting,
    never silent.
    """
    bundle = build_spectral_bundle(inst, cut)
    W = inst.weights
    delta = bundle.delta
    tol = bundle.tol * tol_scale
    least = bundle.eigenvalues[0]
    scale = weight_scale(W)
    binary_value = float(delta @ W @ delta)

    sol = gw_primal_solve(inst, seed=seed)
    ext = gw_dual_extract(inst, sol.gram)

    conditions = {
        "primal_attains_binary": bool(
            sol.converged and abs(sol.primal_value - binary_value) <= 1e-6 * scale * tol_scale),
        "kernel_sign_glev": bool(
            abs(least) <= tol and np.abs(bundle.shifted @ delta).max() <= tol),
        "psd_shift": bool(least >= -tol),
        "dual_matches": bool(np.abs(ext.diag_values + bundle.shift).max() <= 1e-4 * scale * tol_scale),
    }
    return BipolarityReport(bundle=bundle, binary_value=binary_value,
                            primal_value=sol.primal_value, conditions=conditions)


def strongly_bipolar_perturb(inst: Instance, cut: Cut, eps: float) -> Instance:
    """Scale the cut edges by 1 + eps.

    For a cut attaining the relaxation optimum this makes the rank-one
    +/-1 Gram matrix the *unique* optimum (the shifted matrix gains rank
    n-1), so the relaxation output reads off the cut directly.  eps = 0
    returns the instance unchanged.  The cut is bipolar unless
    ``psd_rank_certificate`` reads "not-psd".
    """
    if not 0.0 <= eps < INF:
        raise ParameterError("eps must be finite and >= 0")
    bundle = build_spectral_bundle(inst, cut)
    if psd_rank_certificate(bundle) == "not-psd":
        raise PreconditionError("cut is not bipolar for this instance")
    if eps == 0.0:
        return inst
    return Instance(inst.weights * np.where(bundle.cut_part > 0, 1.0 + eps, 1.0))
