"""Dense eigensolution with independent residual certification.

Operators on a Fourier basis whose index N-1-i holds the mirror mode -m
of index i are first tried in real form: the unitary pairing of each
mode with its mirror (the cos/sin basis) turns an operator that commutes
with f -> conj(f) into a real matrix R. Generators of measure-preserving
flows are skew-adjoint, and a left-smoothed generator diag(w) V is
similar to the skew-adjoint D V D with D = diag(sqrt(w)). When the real
form of D^-1 A D is skew-symmetric, an orthogonal Hessenberg reduction
takes it to a skew tridiagonal, which diag(i^k) turns into a real
symmetric tridiagonal with zero diagonal (Ward & Gray 1978); its
symmetric eigensolve gives every eigenpair on the imaginary axis. Any
other operator goes to the complex solver.

Every structure is measured, not assumed: the structured path is taken
only when both defects are at rounding level. Whichever solver ran,
residuals are recomputed from scratch on the original complex matrix
afterwards, and the matrix norm entering the relative residual is
estimated by a deterministic power iteration, so the certificate does
not trust solver internals.
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
    mirrored = A.rows == A.cols and np.array_equal(A.rows.modes[::-1], -A.rows.modes)
    return eig_matrix(
        A.entries, tol=tol, source=A.provenance, meta=dict(A.meta), mirror_pairs=mirrored, weights=weights
    )


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


def _skew_scaled(R: np.ndarray, d: np.ndarray | None) -> np.ndarray | None:
    """The real form of D^-1 M D for D = diag(d) if it is skew-symmetric, else None.

    R is the real form of M. A positive, mirror-symmetric d (d[i] ==
    d[N-1-i]) commutes with the pairing and acts on the paired rows as
    the cos/middle/sin arrangement of d; any other d gives None. d None
    means D = I.
    """
    if d is not None:
        if not (np.all(d > 0) and np.array_equal(d, d[::-1])):
            return None
        h = len(d) // 2
        dp = np.concatenate([d[:h], d[h : len(d) - h], d[:h]])
        R = R * dp[None, :]
        R /= dp[:, None]
    defect = np.max(np.abs(R + R.T), initial=0.0)
    if not defect <= 1e3 * np.finfo(float).eps * np.max(np.abs(R), initial=0.0):
        return None
    return R


def _skew_eig(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a real skew-symmetric matrix through a symmetric tridiagonal.

    Q^T S Q = H is skew tridiagonal with subdiagonal e. With E = diag(i^k),
    E^-1 H E = -i T for the symmetric tridiagonal T with zero diagonal and
    off-diagonal e, so T z = mu z gives S (Q E z) = -i mu (Q E z).
    """
    import scipy.linalg  # deferred: its import cost would land on every CLI start

    H, Q = scipy.linalg.hessenberg(S, calc_q=True, overwrite_a=True, check_finite=False)
    e = np.diag(H, -1).copy()
    del H
    mu, Z = scipy.linalg.eigh_tridiagonal(np.zeros(len(S)), e, check_finite=False)
    values = np.zeros(len(mu), dtype=complex)
    values.imag = -mu
    # i^k is real on even rows and imaginary on odd rows, with sign (-1)^(k//2).
    vectors = np.empty(Z.shape, dtype=complex)
    sign = (-1.0) ** np.arange((len(S) + 1) // 2)
    vectors.real = Q[:, 0::2] @ (sign[:, None] * Z[0::2])
    vectors.imag = Q[:, 1::2] @ (sign[: len(S) // 2, None] * Z[1::2])
    return values, vectors


def eig_matrix(
    M: np.ndarray,
    tol: float = 1e-8,
    source: str = "matrix",
    meta: dict | None = None,
    mirror_pairs: bool = False,
    weights: np.ndarray | None = None,
) -> SpectrumReport:
    """eig on a raw square array; same residual contract.

    mirror_pairs declares that index N-1-i holds the mirror mode of
    index i, which lets the structured solver be tried. weights, when
    given, declares M = diag(weights) V with mirror-symmetric weights, so
    that the skew test runs on D^-1 M D with D = diag(sqrt(weights));
    without it D = I. meta["solver"] records which solver ran:
    "skew-tridiagonal" or "complex".
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("eigensolve requires a square matrix")
    R = _real_form(M) if mirror_pairs else None
    d = None if weights is None else np.sqrt(np.asarray(weights, dtype=float))
    S = None if R is None else _skew_scaled(R, d)
    del R
    solver = "complex" if S is None else "skew-tridiagonal"
    try:
        if S is not None:
            values, vectors = _skew_eig(S)
            vectors = _from_real_form(vectors)
            if d is not None:
                vectors *= d[:, None]
        else:
            values, vectors = np.linalg.eig(M)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(f"dense eigensolve failed: {exc}") from exc

    norms = np.linalg.norm(vectors, axis=0)
    if np.any(norms == 0):
        raise EigensolveError("eigensolver returned a zero vector")
    vectors /= norms[None, :]

    scale = matrix_norm_estimate(M)
    if scale == 0.0:
        scale = 1.0
    defect = M @ vectors
    defect -= vectors * values[None, :]
    residuals = np.linalg.norm(defect, axis=0) / scale
    del defect
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
