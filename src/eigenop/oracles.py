"""Closed-form reference values used as ground truth by the test suites.

Everything here is analytic: elementary functions, finite group algebra,
and exact representation theory for the shipped group, the symmetric
group on three letters. No numerics beyond dense linear algebra on tiny
matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GroupTable:
    """Finite group with multiplication/inverse tables and unitary irreps.

    elements are hashable labels; product[a][b] is the label of a*b;
    irreps maps a name to (dimension, {element: unitary matrix}).
    """

    elements: tuple
    product: dict
    inverse: dict
    identity: object
    irreps: dict = field(default_factory=dict)

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self, element) -> int:
        return self.elements.index(element)


def s3_table() -> GroupTable:
    """Symmetric group on {0,1,2}: trivial, sign, and the real 2-dim irrep."""
    elements = tuple(itertools.permutations(range(3)))

    # (p*q)(x) = p(q(x)), matching left-to-right application of maps.
    product = {(p, q): tuple(p[q[x]] for x in range(3)) for p in elements for q in elements}
    inverse = {}
    for p in elements:
        inv = [0, 0, 0]
        for x in range(3):
            inv[p[x]] = x
        inverse[p] = tuple(inv)
    identity = (0, 1, 2)

    def sign(p):
        s = 1
        for a, b in itertools.combinations(range(3), 2):
            if p[a] > p[b]:
                s = -s
        return s

    # Standard rep: permutation matrices compressed to the plane
    # orthogonal to (1,1,1); the compression is exactly orthogonal.
    plane = np.array(
        [
            [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(6.0)],
            [-1.0 / np.sqrt(2.0), 1.0 / np.sqrt(6.0)],
            [0.0, -2.0 / np.sqrt(6.0)],
        ]
    )

    def perm_matrix(p):
        P = np.zeros((3, 3))
        for x in range(3):
            P[p[x], x] = 1.0
        return P

    irreps = {
        "trivial": (1, {p: np.array([[1.0]]) for p in elements}),
        "sign": (1, {p: np.array([[float(sign(p))]]) for p in elements}),
        "standard": (2, {p: plane.T @ perm_matrix(p) @ plane for p in elements}),
    }
    return GroupTable(elements, product, inverse, identity, irreps)


def rotation_oracle(alpha: float, beta: float, k: int, j: int, y: float, s: float) -> tuple[complex, complex]:
    """Closed forms for the driven-rotation benchmark.

    Returns (generator eigenvalue i(k + j*alpha*(1 + beta*cos y)),
    cocycle phase e^{i j alpha (s + beta (sin(y+s) - sin y))}).
    """
    eigenvalue = 1j * (k + j * alpha * (1.0 + beta * np.cos(y)))
    phase = np.exp(1j * j * alpha * (s + beta * (np.sin(y + s) - np.sin(y))))
    return complex(eigenvalue), complex(phase)


def right_translation_koopman(group: GroupTable, gtilde) -> np.ndarray:
    """(U f)(z) = f(z * gtilde) in the delta basis over group elements."""
    n = group.order
    U = np.zeros((n, n), dtype=complex)
    for zi, z in enumerate(group.elements):
        U[zi, group.index(group.product[(z, gtilde)])] = 1.0
    return U


def peter_weyl_blockdiag(group: GroupTable, gtilde) -> dict:
    """Block-diagonalize the right-translation operator by matrix coefficients.

    Returns the unitary change of basis, the per-(irrep, row) blocks (each
    equal to the irrep evaluated at gtilde), and the residuals of
    unitarity and of the block-diagonal equality.
    """
    dims = sum(d * d for d, _ in group.irreps.values())
    if dims != group.order:
        raise ValueError("irrep list incomplete: squared dimensions must sum to the order")
    n = group.order
    U = right_translation_koopman(group, gtilde)

    columns = []
    labels = []
    for name, (d, mats) in sorted(group.irreps.items()):
        scale = np.sqrt(d / n)
        for i in range(d):
            for j in range(d):
                col = np.array([mats[z][i, j] for z in group.elements], dtype=complex) * scale
                columns.append(col)
                labels.append((name, i, j))
    gamma = np.stack(columns, axis=1)

    transformed = gamma.conj().T @ U @ gamma
    blocks = {}
    expected = np.zeros((n, n), dtype=complex)
    pos = 0
    for name, (d, mats) in sorted(group.irreps.items()):
        rho = np.asarray(mats[gtilde], dtype=complex)
        for i in range(d):
            blocks[(name, i)] = rho
            expected[pos : pos + d, pos : pos + d] = rho
            pos += d
    return {
        "change_of_basis": gamma,
        "labels": labels,
        "blocks": blocks,
        "unitarity_residual": float(np.linalg.norm(gamma.conj().T @ gamma - np.eye(n))),
        "block_residual": float(np.max(np.abs(transformed - expected))),
    }
