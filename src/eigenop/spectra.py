"""Dense eigensolution with independent residual certification.

Eigenpairs come from a standard dense nonsymmetric solver. Operators on
a Fourier basis whose index N-1-i holds the mirror mode -m of index i
are first tried in real form: the unitary pairing of each mode with its
mirror (the cos/sin basis) turns an operator that commutes with
f -> conj(f) into a real matrix, which the real solver handles at about
half the cost of the complex one. The structure is measured, not
assumed: the real path is taken only when the imaginary part of the
paired matrix is at rounding level, and otherwise the complex solver
runs. Either way residuals are recomputed from scratch on the original
complex matrix afterwards, and the matrix norm entering the relative
residual is estimated by a deterministic power iteration, so the
certificate does not trust solver internals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .generator import OperatorMatrix


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
    AH = A.conj().T
    for _ in range(50):
        w = AH @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        sigma = np.sqrt(nw)
        v = w / nw
    return float(sigma)


def eig(A: OperatorMatrix, tol: float = 1e-8) -> SpectrumReport:
    """Full eigenpair set of a square operator with certified residuals."""
    if not A.is_square:
        raise ValueError("eigensolve requires a square operator")
    mirrored = A.rows == A.cols and np.array_equal(A.rows.modes[::-1], -A.rows.modes)
    return eig_matrix(A.entries, tol=tol, source=A.provenance, meta=dict(A.meta), mirror_pairs=mirrored)


def _pair_rows(X: np.ndarray, sign: complex) -> np.ndarray:
    """Rows [(x_i + x_j)/sqrt2 ..., middle ..., sign*(x_i - x_j)/sqrt2 ...].

    j = N-1-i for i < N // 2. With sign -1j this is Q^H X for the
    mirror-paired basis Q; with sign +1j it is Q^T X.
    """
    h = len(X) // 2
    lo, hi = X[:h], X[::-1][:h]
    s = np.sqrt(0.5)
    return np.concatenate([(lo + hi) * s, X[h : len(X) - h], (lo - hi) * (sign * s)])


def _real_form(M: np.ndarray) -> np.ndarray | None:
    """Real array Q^H M Q in the mirror-paired basis Q, or None.

    None when the imaginary part exceeds rounding level, i.e. when M does
    not commute with coefficient conjugation composed with mirroring.
    """
    R = _pair_rows(_pair_rows(M, -1j).T, 1j).T
    if np.max(np.abs(R.imag), initial=0.0) > 1e3 * np.finfo(float).eps * np.max(np.abs(R.real), initial=0.0):
        return None
    return R.real.copy()


def _from_real_form(Y: np.ndarray) -> np.ndarray:
    """Vectors Q y for eigenvector columns y of the real form Q^H M Q."""
    h = len(Y) // 2
    cos, sin = Y[:h], Y[len(Y) - h :]
    s = np.sqrt(0.5)
    return np.concatenate([(cos + 1j * sin) * s, Y[h : len(Y) - h], ((cos - 1j * sin) * s)[::-1]])


def eig_matrix(
    M: np.ndarray,
    tol: float = 1e-8,
    source: str = "matrix",
    meta: dict | None = None,
    mirror_pairs: bool = False,
) -> SpectrumReport:
    """eig on a raw square array; same residual contract.

    mirror_pairs declares that index N-1-i holds the mirror mode of
    index i, which lets the real-form solver be tried; meta["solver"]
    records which solver ran.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("eigensolve requires a square matrix")
    R = _real_form(M) if mirror_pairs else None
    solver = "complex" if R is None else "real-form"
    try:
        if R is None:
            values, vectors = np.linalg.eig(M)
        else:
            values, vectors = np.linalg.eig(R)
            values, vectors = values.astype(complex), _from_real_form(vectors)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(f"dense eigensolve failed: {exc}") from exc

    norms = np.linalg.norm(vectors, axis=0)
    if np.any(norms == 0):
        raise EigensolveError("eigensolver returned a zero vector")
    vectors = vectors / norms[None, :]

    scale = matrix_norm_estimate(M)
    if scale == 0.0:
        scale = 1.0
    residuals = np.linalg.norm(M @ vectors - vectors * values[None, :], axis=0) / scale
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
        meta={**(meta or {}), "solver": solver},
    )


def sort_by_target(report: SpectrumReport, target: complex = 1e-10) -> SpectrumReport:
    """Ascending distance to the target; ties by (Im, Re) lexicographic."""
    lam = report.eigenvalues
    order = np.lexsort((lam.real, lam.imag, np.abs(lam - target)))
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
