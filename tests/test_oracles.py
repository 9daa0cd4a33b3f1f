"""Tests for the closed-form group and spectral reference values."""

import itertools

import numpy as np
import pytest

from eigenop.oracles import (
    GroupTable,
    peter_weyl_blockdiag,
    right_translation_koopman,
    rotation_oracle,
    s3_table,
)


def validate_group(table: GroupTable) -> dict:
    """Group axioms, irrep unitarity, and dimension completeness."""
    checks = {}
    ok = True
    for a in table.elements:
        ok &= table.product[(a, table.identity)] == a
        ok &= table.product[(table.identity, a)] == a
        ok &= table.product[(a, table.inverse[a])] == table.identity
    checks["identity_and_inverses"] = bool(ok)
    ok = True
    for a, b, c in itertools.product(table.elements, repeat=3):
        ok &= table.product[(table.product[(a, b)], c)] == table.product[(a, table.product[(b, c)])]
    checks["associativity"] = bool(ok)
    checks["dimension_sum"] = sum(d * d for d, _ in table.irreps.values()) == table.order
    worst = 0.0
    for d, mats in table.irreps.values():
        for a in table.elements:
            m = np.asarray(mats[a])
            worst = max(worst, float(np.linalg.norm(m.conj().T @ m - np.eye(d))))
        for a, b in itertools.product(table.elements, repeat=2):
            hom = np.asarray(mats[table.product[(a, b)]]) - np.asarray(mats[a]) @ np.asarray(mats[b])
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


def test_cyclic_group_table_axioms():
    table = cyclic_group_table(6)
    checks = validate_group(table)
    assert checks["passed"], checks
    assert table.order == 6
    assert table.product[(4, 5)] == 3


def test_s3_table_axioms_and_irreps():
    table = s3_table()
    checks = validate_group(table)
    assert checks["passed"], checks
    assert table.order == 6
    dims = sorted(d for d, _ in table.irreps.values())
    assert dims == [1, 1, 2]


def test_s3_sign_of_transposition():
    table = s3_table()
    _, mats = table.irreps["sign"]
    assert mats[(1, 0, 2)][0, 0] == -1.0
    assert mats[(1, 2, 0)][0, 0] == 1.0


def test_s3_standard_rep_traces_match_character():
    # Characters of the 2-dim irrep: 2 on identity, 0 on transpositions,
    # -1 on 3-cycles.
    table = s3_table()
    _, mats = table.irreps["standard"]
    assert np.trace(mats[(0, 1, 2)]) == pytest.approx(2.0)
    for t in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
        assert np.trace(mats[t]) == pytest.approx(0.0, abs=1e-12)
    for c in ((1, 2, 0), (2, 0, 1)):
        assert np.trace(mats[c]) == pytest.approx(-1.0)


def test_rotation_oracle_values():
    lam, phase = rotation_oracle(0.7, 0.5, 2, 3, 0.0, 1.0)
    assert lam == pytest.approx(1j * (2 + 3 * 0.7 * 1.5))
    expected = np.exp(1j * 3 * 0.7 * (1.0 + 0.5 * np.sin(1.0)))
    assert phase == pytest.approx(expected)
    assert abs(phase) == pytest.approx(1.0)


def test_right_translation_koopman_is_permutation():
    table = cyclic_group_table(5)
    U = right_translation_koopman(table, 2)
    assert np.allclose(U @ U.conj().T, np.eye(5))
    # (U f)(z) = f(z + 2): the row of z points at z + 2.
    assert U[0, 2] == 1.0


def test_peter_weyl_cyclic_group_diagonalizes():
    table = cyclic_group_table(4)
    result = peter_weyl_blockdiag(table, 1)
    assert result["unitarity_residual"] < 1e-12
    assert result["block_residual"] < 1e-12
    phases = sorted(np.angle(result["blocks"][(f"chi{c}", 0)][0, 0]) for c in range(4))
    assert np.allclose(phases, [-np.pi / 2, 0.0, np.pi / 2, np.pi])


def test_peter_weyl_s3_transposition_blocks():
    result = peter_weyl_blockdiag(s3_table(), (1, 0, 2))
    assert result["unitarity_residual"] < 1e-12
    assert result["block_residual"] < 1e-12
    assert np.allclose(result["blocks"][("trivial", 0)], [[1.0]])
    assert np.allclose(result["blocks"][("sign", 0)], [[-1.0]])
    vals = np.sort(np.linalg.eigvals(result["blocks"][("standard", 0)]).real)
    assert np.allclose(vals, [-1.0, 1.0])


def test_peter_weyl_rejects_incomplete_irreps():
    table = cyclic_group_table(3)
    partial = type(table)(
        table.elements, table.product, table.inverse, table.identity,
        {"chi0": table.irreps["chi0"]},
    )
    with pytest.raises(ValueError):
        peter_weyl_blockdiag(partial, 1)

