"""Closed-form reference values used as ground truth by the test suites.

Everything here is analytic: elementary functions, finite group algebra,
and exact representation theory for the shipped groups (cyclic groups
and the symmetric group on three letters). No numerics beyond dense
linear algebra on tiny matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


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

    def validate(self) -> dict:
        """Group axioms, irrep unitarity, and dimension completeness."""
        checks = {}
        ok = True
        for a in self.elements:
            ok &= self.product[(a, self.identity)] == a
            ok &= self.product[(self.identity, a)] == a
            ok &= self.product[(a, self.inverse[a])] == self.identity
        checks["identity_and_inverses"] = bool(ok)
        ok = True
        for a, b, c in itertools.product(self.elements, repeat=3):
            ok &= self.product[(self.product[(a, b)], c)] == self.product[(a, self.product[(b, c)])]
        checks["associativity"] = bool(ok)
        checks["dimension_sum"] = sum(d * d for d, _ in self.irreps.values()) == self.order
        worst = 0.0
        for d, mats in self.irreps.values():
            for a in self.elements:
                m = np.asarray(mats[a])
                worst = max(worst, float(np.linalg.norm(m.conj().T @ m - np.eye(d))))
            for a, b in itertools.product(self.elements, repeat=2):
                hom = np.asarray(mats[self.product[(a, b)]]) - np.asarray(mats[a]) @ np.asarray(mats[b])
                worst = max(worst, float(np.linalg.norm(hom)))
        checks["irrep_defect"] = worst
        checks["passed"] = bool(
            checks["identity_and_inverses"]
            and checks["associativity"]
            and checks["dimension_sum"]
            and worst < 1e-12
        )
        return checks


def cyclic_group_table(m: int) -> GroupTable:
    """Z_m with its m characters."""
    elements = tuple(range(m))
    product = {(a, b): (a + b) % m for a in elements for b in elements}
    inverse = {a: (-a) % m for a in elements}
    irreps = {}
    for chi in range(m):
        mats = {a: np.array([[np.exp(2j * np.pi * chi * a / m)]]) for a in elements}
        irreps[f"chi{chi}"] = (1, mats)
    return GroupTable(elements, product, inverse, 0, irreps)


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


def z_fiber_symbol(gtilde: int, lo: float, hi: float) -> dict:
    """Range of e^{i*gtilde*omega} over the phase arc [lo, hi).

    This is the continuous spectrum of the lattice translation compressed
    by the spectral window [lo, hi).
    """
    gtilde = int(gtilde)
    if not (0.0 <= lo < hi <= TWO_PI):
        raise ValueError("arc must satisfy 0 <= lo < hi <= 2pi")
    if gtilde == 0:
        return {"type": "point", "values": [1.0 + 0.0j]}
    width = abs(gtilde) * (hi - lo)
    if width >= TWO_PI:
        return {"type": "full_circle"}
    a, b = gtilde * lo, gtilde * hi
    if a > b:
        a, b = b, a
    return {"type": "arc", "phase_lo": float(np.mod(a, TWO_PI)), "phase_width": float(b - a)}
