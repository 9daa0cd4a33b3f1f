"""Blockwise eigensolution with independent residual certification.

A Galerkin generator couples modes m and m' only where the velocity has
Fourier content at m' - m, so after a permutation it is block diagonal.
eig_matrix solves each block on its own. A generator arrives already
split, as generator.BlockOperator; a dense array is split here into the
connected components of its coupling graph |M_ij| > COUPLING_RTOL * max|M|.
Generators of measure-preserving flows are skew-adjoint, and a
left-smoothed generator diag(w) V is similar to the skew-adjoint D V D
with D = diag(sqrt(w)). The one solver, the Hermitian eigensolve of
i D^-1 M_b D, puts every eigenvalue exactly on the imaginary axis; a
scaled block that is not skew-Hermitian to rounding level, or a weight
that is not positive, raises EigensolveError with the measured defect.

Every structure is measured, not assumed. Residuals are recomputed from
scratch: on full columns of a dense array, so a coupling dropped from
the graph still shows in them, and on each block of a block operator,
whose dropped_bound then enters the contract. The matrix norm entering
the relative residual is estimated by a deterministic power iteration,
so the certificate does not trust solver internals. Eigenvectors stay
in block form (BlockColumns); only the columns a caller selects are ever
made dense.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .generator import COUPLING_RTOL, BlockOperator, coupling_blocks

# Spectrum listings round their sort keys to this multiple of max|lambda|,
# so roundoff in the solve cannot reorder them.
ORDER_RTOL = 1e-12


class EigensolveError(RuntimeError):
    """Solver failure; carries partial residual diagnostics."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class BlockColumns:
    """Unit eigenvectors that vanish off their blocks, without the N x N array.

    Listed column j is column order[j] of the block-by-block concatenation
    of vectors, placed on the rows blocks[k] of the block it belongs to.
    cols[:, sel] selects and reorders columns; np.asarray(cols) is the
    dense (size, len(order)) array.
    """

    size: int
    blocks: tuple
    vectors: tuple
    order: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.size, len(self.order))

    def __getitem__(self, key) -> "BlockColumns":
        rows, cols = key
        if rows != slice(None):
            raise IndexError("BlockColumns selects whole columns only")
        return replace(self, order=self.order[cols])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        sizes = [len(b) for b in self.blocks]
        owner = np.repeat(np.arange(len(sizes)), sizes)[self.order]
        starts = np.cumsum([0] + sizes)
        for k in np.unique(owner):
            listed = np.flatnonzero(owner == k)
            out[np.ix_(self.blocks[k], listed)] = self.vectors[k][:, self.order[listed] - starts[k]]
        return out if dtype is None else out.astype(dtype)


@dataclass(frozen=True)
class SpectrumReport:
    """Certified eigenpair set of one operator matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | BlockColumns  # columns, unit norm
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


def matrix_norm_estimate(A: np.ndarray | BlockOperator) -> float:
    """Deterministic 50-step power-iteration estimate of the spectral norm.

    A block operator is applied block by block. B^H B v is of size
    ||A||^2, and its norm squares that again, so the iteration leaves the
    float range once ||A|| passes about 1e77 or falls below about 1e-77.
    When A's largest entry lies outside [1e-50, 1e50], it therefore runs
    on 2^-k A, where k is the binary exponent of that entry, and scales
    the estimate back by 2^k.
    """
    n = len(A)
    if n == 0:
        return 0.0
    # (rows, matrix) pairs whose direct sum is A; a dense A is one part.
    parts = list(zip(A.blocks, A.matrices)) if isinstance(A, BlockOperator) else [(slice(None), A)]
    top = max((np.max(np.abs(B), initial=0.0) for _, B in parts), default=0.0)
    k = 0 if 1e-50 <= top <= 1e50 else int(np.frexp(top)[1])  # 0 for a NaN or infinite top
    if k:
        # ldexp scales by a power of two exactly, over the whole float range.
        parts = [(b, np.ldexp(B.real, -k) + 1j * np.ldexp(B.imag, -k)) for b, B in parts]
    # Fixed, seed-free start vector keeps reruns byte-identical.
    v = np.cos(np.arange(1, n + 1, dtype=float)) + 1j * np.sin(np.arange(1, n + 1, dtype=float) / 3.0)
    v /= np.linalg.norm(v)
    sigma = 0.0
    w = np.empty(n, dtype=complex)
    for _ in range(50):
        for b, B in parts:
            # B^H (B v) without a transposed copy of B.
            w[b] = ((B @ v[b]).conj() @ B).conj()
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        sigma = np.sqrt(nw)
        v = w / nw
    return float(np.ldexp(sigma, k))


def eig(A: BlockOperator, tol: float = 1e-8, weights: np.ndarray | None = None) -> SpectrumReport:
    """Full eigenpair set of a block operator with certified residuals.

    weights: the positive w of an operator built as diag(w) V; see eig_matrix.
    """
    return eig_matrix(A, tol=tol, source=A.provenance, meta=dict(A.meta), weights=weights)


def eig_matrix(
    M: np.ndarray | BlockOperator,
    tol: float = 1e-8,
    source: str = "matrix",
    meta: dict | None = None,
    weights: np.ndarray | None = None,
) -> SpectrumReport:
    """eig on a raw square array or a block operator; same residual contract.

    A dense M is split with coupling_blocks; a BlockOperator arrives split,
    and the same blocks give bit-identical pairs either way. weights, when
    given, declares M = diag(weights) V, so that the skew test runs on the
    blocks of D^-1 M D with D = diag(sqrt(weights)); without it D = I.
    A weight that is not positive, or a scaled block S with max|S + S*|
    above COUPLING_RTOL max|S|, raises EigensolveError before any solve.
    Pairs are listed block by block. The contract is max residual plus
    M.dropped_bound / ||M|| <= tol. meta records the block count and the
    largest block.
    """
    if isinstance(M, BlockOperator):
        blocks, raw, dropped = M.blocks, M.matrices, M.dropped_bound
    else:
        M = np.asarray(M, dtype=complex)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("eigensolve requires a square matrix")
        blocks = coupling_blocks(M)
        raw, dropped = [M[np.ix_(b, b)] for b in blocks], 0.0
    n = len(M)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if not np.all(w > 0):
        raise EigensolveError(f"{np.sum(~(w > 0))} of {n} weights are not positive; the smallest is {np.min(w):.3e}")
    d = np.sqrt(w)

    def scaled(b, B):
        return B * (d[b][None, :] / d[b][:, None])

    # Largest entry and skew defect over the scaled blocks, each rebuilt when
    # it is solved rather than held. The test is relative to the whole scaled
    # matrix, so a block of rounding noise passes, and a NaN entry fails it.
    pairs = [(np.max(np.abs(S)), np.max(np.abs(S + S.conj().T))) for S in map(scaled, blocks, raw)]
    top, defect = np.max(np.reshape(pairs, (-1, 2)), axis=0, initial=0.0)
    if not defect <= COUPLING_RTOL * top:
        raise EigensolveError(
            f"operator is not skew-Hermitian: max|S + S*| = {defect:.3e} > COUPLING_RTOL * max|S| ="
            f" {COUPLING_RTOL * top:.3e} over its scaled blocks S"
        )

    scale = matrix_norm_estimate(M)
    if scale == 0.0:
        scale = 1.0
    # The norm squares defect entries, which scale with ||M||, so it
    # overflows past about 1e154. It is taken of 2^-k defect instead, k the
    # binary exponent of scale (0 for a NaN or infinite scale), and divided
    # by 2^-k scale: both scalings are exact, so the quotient is unchanged.
    k = int(np.frexp(scale)[1])
    unit = np.ldexp(scale, -k)
    values = np.empty(n, dtype=complex)
    vectors = []
    residuals = np.empty(n)
    start = 0
    for b, R in zip(blocks, raw):
        try:
            # The scaled block S is skew-Hermitian, so iS is Hermitian:
            # iS z = mu z gives S z = -i mu z.
            mu, Z = np.linalg.eigh(1j * scaled(b, R))
        except np.linalg.LinAlgError as exc:
            raise EigensolveError(f"dense eigensolve failed: {exc}") from exc
        lam = np.zeros(len(b), dtype=complex)
        lam.imag = 0.0 - mu  # not -mu, which would list mu = 0 as -0.0
        Z *= d[b][:, None]
        Z /= np.linalg.norm(Z, axis=0)[None, :]
        if isinstance(M, BlockOperator):
            defect = R @ Z - Z * lam[None, :]
        else:
            # Full columns: M[:, b] @ Z is M @ v for vectors zero off the block,
            # so couplings below the graph threshold still enter the residual.
            defect = M[:, b] @ Z
            defect[b] -= Z * lam[None, :]
        cols = slice(start, start + len(b))
        residuals[cols] = np.linalg.norm(np.ldexp(defect.view(float), -k).view(complex), axis=0) / unit
        values[cols] = lam
        vectors.append(Z)
        start += len(b)
    worst = np.max(residuals, initial=0.0)
    # Written so that a NaN residual, as from an overflowing operator, breaks it.
    if not worst + dropped / scale <= tol:
        raise EigensolveError(
            f"residual contract violated: max residual {worst:.3e}"
            f" + dropped coupling {dropped / scale:.3e} > {tol:.3e}",
            residuals=residuals,
        )
    return SpectrumReport(
        eigenvalues=values,
        eigenvectors=BlockColumns(n, tuple(blocks), tuple(vectors), np.arange(n)),
        residuals=residuals,
        tolerance=tol,
        sort_rule="unsorted",
        source=source,
        meta={
            **(meta or {}),
            "blocks": len(blocks),
            "largest_block": max((len(b) for b in blocks), default=0),
        },
    )


def sort_by_target(report: SpectrumReport, target: complex = 1e-10 + 0j) -> SpectrumReport:
    """Ascending distance to the target, then Im, then Re.

    The pipeline sorts to the default target, which sort_rule records as
    "target:(1e-10+0j)".

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
