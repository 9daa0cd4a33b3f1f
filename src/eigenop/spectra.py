"""Dense eigensolution with independent residual certification.

A Galerkin generator couples modes m and m' only where the velocity has
Fourier content at m' - m, so after a permutation it is block diagonal.
eig_matrix finds the blocks as the connected components of the coupling
graph |M_ij| > COUPLING_RTOL * max|M| and solves each block on its own.
Generators of measure-preserving flows are skew-adjoint, and a
left-smoothed generator diag(w) V is similar to the skew-adjoint D V D
with D = diag(sqrt(w)). When every scaled block D^-1 M_b D is
skew-Hermitian to rounding level, the Hermitian eigensolve of i D^-1 M_b D
puts every eigenvalue exactly on the imaginary axis. Otherwise every
block goes to the complex solver.

Every structure is measured, not assumed. Whichever solver ran,
residuals are recomputed from scratch on full columns of the original
matrix, so a coupling dropped from the graph still shows in them, and
the matrix norm entering the relative residual is estimated by a
deterministic power iteration, so the certificate does not trust solver
internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .generator import OperatorMatrix

# Rounding level relative to the largest entry: couplings at or below it
# split blocks, and a skew-Hermitian defect below it counts as zero.
COUPLING_RTOL = 1e3 * np.finfo(float).eps
# Spectrum listings round their sort keys to this multiple of max|lambda|,
# so roundoff in the solve cannot reorder them.
ORDER_RTOL = 1e-12


class EigensolveError(RuntimeError):
    """Solver failure; carries partial residual diagnostics."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class SpectrumReport:
    """Certified eigenpair set of one operator matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, unit norm
    residuals: np.ndarray  # per-pair ||A v - lambda v|| / ||A||
    tolerance: float
    sort_rule: str
    source: str
    meta: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [[float(l.real), float(l.imag)] for l in self.eigenvalues],
            "residuals": [float(r) for r in self.residuals],
            "tolerance": float(self.tolerance),
            "sort_rule": self.sort_rule,
            "source": self.source,
            "meta": self.meta,
        }


def matrix_norm_estimate(A: np.ndarray) -> float:
    """Deterministic 50-step power-iteration estimate of the spectral norm."""
    n = A.shape[0]
    if n == 0:
        return 0.0
    # Fixed, seed-free start vector keeps reruns byte-identical.
    v = np.cos(np.arange(1, n + 1, dtype=float)) + 1j * np.sin(np.arange(1, n + 1, dtype=float) / 3.0)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(50):
        # A^H (A v) without a transposed copy of A.
        w = ((A @ v).conj() @ A).conj()
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        sigma = np.sqrt(nw)
        v = w / nw
    return float(sigma)


def eig(A: OperatorMatrix, tol: float = 1e-8, weights: np.ndarray | None = None) -> SpectrumReport:
    """Full eigenpair set of a square operator with certified residuals.

    weights: the positive w of an operator built as diag(w) V; see eig_matrix.
    """
    if not A.is_square:
        raise ValueError("eigensolve requires a square operator")
    return eig_matrix(A.entries, tol=tol, source=A.provenance, meta=dict(A.meta), weights=weights)


def coupling_blocks(M: np.ndarray) -> list[np.ndarray]:
    """Connected components of the coupling graph |M_ij| > COUPLING_RTOL * max|M|.

    Each block is an ascending index array; blocks are listed by their
    smallest index.
    """
    linked = np.abs(M)
    linked = linked > COUPLING_RTOL * np.max(linked, initial=0.0)
    linked |= linked.T
    seen = np.zeros(len(M), dtype=bool)
    blocks = []
    for seed in range(len(M)):
        if seen[seed]:
            continue
        frontier = np.zeros(len(M), dtype=bool)
        frontier[seed] = True
        members = frontier.copy()
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~members
            members |= frontier
        seen |= members
        blocks.append(np.flatnonzero(members))
    return blocks


def eig_matrix(
    M: np.ndarray,
    tol: float = 1e-8,
    source: str = "matrix",
    meta: dict | None = None,
    weights: np.ndarray | None = None,
) -> SpectrumReport:
    """eig on a raw square array; same residual contract.

    weights, when given, declares M = diag(weights) V, so that the skew
    test runs on the blocks of D^-1 M D with D = diag(sqrt(weights));
    without it D = I. Pairs are listed block by block. meta records the
    solver that ran, "hermitian" or "complex", the block count and the
    largest block.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("eigensolve requires a square matrix")
    n = len(M)
    blocks = coupling_blocks(M)
    d = np.ones(n) if weights is None else np.sqrt(np.asarray(weights, dtype=float))
    hermitian = bool(np.all(d > 0))
    if hermitian:
        subs = [M[np.ix_(b, b)] * (d[b][None, :] / d[b][:, None]) for b in blocks]
        # Relative to the whole scaled matrix, so a block of rounding noise passes.
        level = COUPLING_RTOL * max((np.max(np.abs(B)) for B in subs), default=0.0)
        hermitian = all(np.max(np.abs(B + B.conj().T)) <= level for B in subs)
    if not hermitian:
        subs = [M[np.ix_(b, b)] for b in blocks]

    scale = matrix_norm_estimate(M)
    if scale == 0.0:
        scale = 1.0
    values = np.empty(n, dtype=complex)
    vectors = np.zeros((n, n), dtype=complex)
    residuals = np.empty(n)
    start = 0
    for b, B in zip(blocks, subs):
        try:
            if hermitian:
                # B is skew-Hermitian, so iB is Hermitian: iB z = mu z gives B z = -i mu z.
                mu, Z = np.linalg.eigh(1j * B)
                lam = np.zeros(len(b), dtype=complex)
                lam.imag = 0.0 - mu  # not -mu, which would list mu = 0 as -0.0
                Z *= d[b][:, None]
            else:
                lam, Z = np.linalg.eig(B)
        except np.linalg.LinAlgError as exc:
            raise EigensolveError(f"dense eigensolve failed: {exc}") from exc
        norms = np.linalg.norm(Z, axis=0)
        if np.any(norms == 0):
            raise EigensolveError("eigensolver returned a zero vector")
        Z /= norms[None, :]
        # Full columns: M[:, b] @ Z is M @ v for vectors zero off the block,
        # so couplings below the graph threshold still enter the residual.
        defect = M[:, b] @ Z
        defect[b] -= Z * lam[None, :]
        cols = slice(start, start + len(b))
        residuals[cols] = np.linalg.norm(defect, axis=0) / scale
        values[cols] = lam
        vectors[b, cols] = Z
        start += len(b)
    if np.any(residuals > tol):
        raise EigensolveError(
            f"residual contract violated: max {residuals.max():.3e} > {tol:.3e}",
            residuals=residuals,
        )
    return SpectrumReport(
        eigenvalues=values,
        eigenvectors=vectors,
        residuals=residuals,
        tolerance=tol,
        sort_rule="unsorted",
        source=source,
        meta={
            **(meta or {}),
            "solver": "hermitian" if hermitian else "complex",
            "blocks": len(blocks),
            "largest_block": max((len(b) for b in blocks), default=0),
        },
    )


def sort_by_target(report: SpectrumReport, target: complex = 1e-10) -> SpectrumReport:
    """Ascending distance to the target, then Im, then Re.

    Each key is rounded to a multiple of ORDER_RTOL * max|lambda|, so
    roundoff in the solve cannot reorder a +-i mu pair; exact ties keep
    eig_matrix's block order.
    """
    lam = report.eigenvalues
    unit = ORDER_RTOL * np.max(np.abs(lam), initial=0.0) or 1.0
    order = np.lexsort([np.round(key / unit) for key in (lam.real, lam.imag, np.abs(lam - target))])
    return SpectrumReport(
        eigenvalues=lam[order],
        eigenvectors=report.eigenvectors[:, order],
        residuals=report.residuals[order],
        tolerance=report.tolerance,
        sort_rule=f"target:{target!r}",
        source=report.source,
        meta=report.meta,
    )


def match_multisets(computed, reference, tol: float) -> tuple[bool, float]:
    """Greedy minimal-weight matching of two eigenvalue multisets.

    Returns (all matched within tol, worst matched distance). Greedy by
    globally smallest remaining pair distance; deterministic.
    """
    computed = list(np.asarray(computed, dtype=complex))
    reference = list(np.asarray(reference, dtype=complex))
    if len(reference) > len(computed):
        return False, np.inf
    worst = 0.0
    avail = np.ones(len(computed), dtype=bool)
    for r in sorted(reference, key=lambda z: (z.imag, z.real)):
        dists = np.array([abs(c - r) if a else np.inf for c, a in zip(computed, avail)])
        k = int(np.argmin(dists))
        if not np.isfinite(dists[k]):
            return False, np.inf
        worst = max(worst, float(dists[k]))
        avail[k] = False
    return worst <= tol, worst


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two finite point sets in the plane."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        return np.inf
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))
