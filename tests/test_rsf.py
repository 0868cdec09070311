"""Decomposition plan, zero pattern, and the canonical antisymmetric form."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsflow.exterior import form_from_velocity
from rsflow.fields import Grid, ScalarField, VectorField, gradient_tensor
from rsflow.rsf import (ZeroPattern, canonical_antisymmetric, check_rsf,
                        component_velocity_forms, component_vorticities,
                        decomposition_plan, sym_antisym_split,
                        zero_pattern)
from rsflow.trig import TrigPoly


def _sample(poly, grid):
    return ScalarField(grid, poly.sample([grid.axis_coords(a)
                                          for a in range(grid.d)]))


# ----------------------------------------------------------------------
# decomposition plan
# ----------------------------------------------------------------------

@pytest.mark.parametrize("d,m,padded", [
    (3, 2, True), (4, 2, False), (5, 3, True), (6, 3, False),
    (7, 4, True), (8, 4, False), (9, 5, True), (10, 5, False),
    (11, 6, True), (12, 6, False),
])
def test_plan_component_count(d, m, padded):
    plan = decomposition_plan(d)
    assert plan.m == m == (d + 1) // 2
    assert plan.padded is padded
    assert plan.pairs == tuple((2 * i + 1, 2 * i + 2) for i in range(m))


@given(st.integers(3, 40))
@settings(deadline=None)
def test_plan_invariants(d):
    plan = decomposition_plan(d)
    assert plan.m == (d + 1) // 2
    assert plan.m <= d * (d - 1) // 2
    covered = sorted(a for i in range(plan.m) for a in plan.component_axes(i))
    assert covered == list(range(1, d + 1))  # every axis in exactly one pair


def test_plan_rejects_low_dimension():
    with pytest.raises(ValueError):
        decomposition_plan(2)


def test_plan_json_round_trip():
    data = json.loads(decomposition_plan(5).to_json())
    assert data == {"d": 5, "M": 3, "pairs": [[1, 2], [3, 4], [5, 6]],
                    "padded": True}


def test_component_forms_sum_to_velocity_form():
    g = Grid.cube(4, 8)
    rng = np.random.default_rng(0)
    u = VectorField(g, tuple(_sample(TrigPoly.random(4, 1, rng), g)
                             for _ in range(4)))
    plan = decomposition_plan(4)
    forms = component_velocity_forms(u, plan)
    total = forms[0]
    for f in forms[1:]:
        total = total + f
    assert (total - form_from_velocity(u)).max_abs() == 0.0


def test_component_vorticities_count_and_degree():
    g = Grid.cube(5, 8)
    rng = np.random.default_rng(1)
    u = VectorField(g, tuple(_sample(TrigPoly.random(5, 1, rng), g)
                             for _ in range(5)))
    omegas = component_vorticities(u, decomposition_plan(5))
    assert len(omegas) == 3
    assert all(w.degree == 2 for w in omegas)


# ----------------------------------------------------------------------
# zero pattern
# ----------------------------------------------------------------------

def test_zero_pattern_small_dimensions():
    assert zero_pattern(3).required_zero == {(1, 3), (2, 3)}
    assert zero_pattern(4).required_zero == {(1, 3), (1, 4), (2, 3), (2, 4)}
    assert zero_pattern(5).required_zero == {
        (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)}


def test_check_rsf_accepts_columnar_field():
    # u1, u2 independent of x3, u3 arbitrary: the 3D real Schur structure
    g3 = Grid.cube(3, 16)
    rng = np.random.default_rng(2)
    uh = [TrigPoly.random(3, 2, rng, axes=[0, 1]) for _ in range(2)]
    u3 = TrigPoly.random(3, 2, rng)
    u = VectorField(g3, tuple(_sample(c, g3) for c in (*uh, u3)))
    assert check_rsf(u, zero_pattern(3)) <= 1e-12


def test_check_rsf_flags_generic_field():
    g3 = Grid.cube(3, 16)
    rng = np.random.default_rng(3)
    u = VectorField(g3, tuple(_sample(TrigPoly.random(3, 2, rng), g3)
                              for _ in range(3)))
    assert check_rsf(u, zero_pattern(3)) > 0.1
    assert check_rsf(u, ZeroPattern(3, frozenset())) == 0.0  # nothing required


def test_check_rsf_dimension_mismatch():
    g3 = Grid.cube(3, 8)
    u = VectorField(g3, tuple(ScalarField.zeros(g3) for _ in range(3)))
    with pytest.raises(ValueError):
        check_rsf(u, zero_pattern(4))


# ----------------------------------------------------------------------
# symmetric/antisymmetric split
# ----------------------------------------------------------------------

def test_split_properties():
    g = Grid.cube(3, 16)
    rng = np.random.default_rng(4)
    u = VectorField(g, tuple(_sample(TrigPoly.random(3, 2, rng), g)
                             for _ in range(3)))
    grad = gradient_tensor(u)
    dsym, asym = sym_antisym_split(grad)
    assert dsym.shape == asym.shape == grad.shape
    assert np.array_equal(dsym, np.swapaxes(dsym, -1, -2))
    assert np.array_equal(asym, -np.swapaxes(asym, -1, -2))
    assert np.max(np.abs(dsym + asym - grad)) <= 1e-14


def test_split_rejects_non_square_matrices():
    with pytest.raises(ValueError, match="square"):
        sym_antisym_split(np.zeros((8, 8, 2, 3)))


# ----------------------------------------------------------------------
# canonical antisymmetric form
# ----------------------------------------------------------------------

def _random_antisym(rng, d):
    raw = rng.normal(size=(d, d))
    return 0.5 * (raw - raw.T)


def test_canonical_single_rotation_block():
    a = np.array([[0.0, -0.7], [0.7, 0.0]])
    rot = canonical_antisymmetric(a)
    assert rot.rates == pytest.approx((0.7,))
    np.testing.assert_allclose(rot.q.T @ a @ rot.q, a, atol=1e-12)


def test_canonical_rate_is_half_vorticity_magnitude_3d():
    # antisymmetric part of a 3D gradient: the single rate is |curl u| / 2
    rng = np.random.default_rng(6)
    w = rng.normal(size=3)  # vorticity vector
    a = 0.5 * np.array([[0.0, -w[2], w[1]],
                        [w[2], 0.0, -w[0]],
                        [-w[1], w[0], 0.0]])
    rot = canonical_antisymmetric(a)
    assert len(rot.rates) == 1
    assert rot.rates[0] == pytest.approx(np.linalg.norm(w) / 2, rel=1e-12)


def test_canonical_rates_match_eigenvalue_oracle():
    # independent oracle: eigenvalues of an antisymmetric matrix are +-i theta
    rng = np.random.default_rng(7)
    for d in (4, 5, 6, 7):
        a = _random_antisym(rng, d)
        rot = canonical_antisymmetric(a)
        expect = np.sort(np.abs(np.linalg.eigvals(a).imag))[::-1][::2][:d // 2]
        np.testing.assert_allclose(rot.rates, expect, atol=1e-10)


def test_canonical_rejects_empty_matrix():
    with pytest.raises(ValueError, match=r"non-empty, got shape \(0, 0\)$"):
        canonical_antisymmetric(np.zeros((0, 0)))


def test_canonical_block_structure():
    rng = np.random.default_rng(8)
    a = _random_antisym(rng, 7)
    rot = canonical_antisymmetric(a)
    b = rot.q.T @ a @ rot.q
    assert np.max(np.abs(rot.q.T @ rot.q - np.eye(7))) <= 1e-12
    ref = np.zeros((7, 7))
    for i, theta in enumerate(t for t in rot.rates if t > 0):
        ref[2 * i + 1, 2 * i] = theta
        ref[2 * i, 2 * i + 1] = -theta
    np.testing.assert_allclose(b, ref, atol=1e-10)
    assert list(rot.rates) == sorted(rot.rates, reverse=True)
    assert len(rot.rates) == 3  # floor(7/2), zero-padded


def test_canonical_frobenius_identity():
    # sum of 2 theta_i^2 equals ||A||_F^2
    rng = np.random.default_rng(9)
    a = _random_antisym(rng, 6)
    rot = canonical_antisymmetric(a)
    assert 2 * sum(t ** 2 for t in rot.rates) == pytest.approx(
        np.linalg.norm(a) ** 2, rel=1e-12)


def test_canonical_rates_are_conjugation_invariant():
    rng = np.random.default_rng(10)
    a = _random_antisym(rng, 5)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    rot_a = canonical_antisymmetric(a)
    rot_b = canonical_antisymmetric(q.T @ a @ q)
    np.testing.assert_allclose(rot_a.rates, rot_b.rates, atol=1e-10)


def test_canonical_zero_matrix():
    rot = canonical_antisymmetric(np.zeros((4, 4)))
    assert rot.rates == (0.0, 0.0)
    np.testing.assert_allclose(rot.q.T @ rot.q, np.eye(4), atol=1e-14)


def test_canonical_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        canonical_antisymmetric(np.eye(3))


def test_canonical_json_fields():
    rng = np.random.default_rng(11)
    rot = canonical_antisymmetric(_random_antisym(rng, 4))
    data = json.loads(rot.to_json())
    assert data["d"] == 4 and len(data["Q"]) == 16 and len(data["rates"]) == 2


def _rotated_blocks(rng, rates, d):
    """Q B Q^T for a random orthogonal Q and the block form B of ``rates``."""
    b = np.zeros((d, d))
    for i, t in enumerate(rates):
        b[2 * i + 1, 2 * i], b[2 * i, 2 * i + 1] = t, -t
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    a = q @ b @ q.T
    return 0.5 * (a - a.T)


def test_canonical_recovers_constructed_rates():
    # 300 seeded matrices, d = 1..12, six kinds; near-repeated rates and a
    # small rate leave eigenvectors of nearby eigenvalues ill-determined
    rng = np.random.default_rng(12)
    for j in range(300):
        kind = ("random", "near_repeated", "small_rate", "all_equal",
                "one_zero", "scaled")[j % 6]
        d = int(rng.integers(1, 13))
        m = d // 2
        rates = np.sort(rng.uniform(0.5, 2.0, size=m))[::-1]
        if kind == "near_repeated" and m >= 2:
            rates[1] = rates[0] * (1 - 10.0 ** rng.uniform(-14, -4))
        elif kind == "small_rate" and m >= 1:
            rates[-1] = 10.0 ** rng.uniform(-9, -4)
        elif kind == "all_equal":
            rates[:] = rates[:1]
        elif kind == "one_zero" and m >= 1:
            rates[-1] = 0.0
        elif kind == "scaled":
            rates *= 10.0 ** rng.uniform(-6, 6)
        a = _rotated_blocks(rng, rates, d)
        rot = canonical_antisymmetric(a)
        assert len(rot.rates) == m, (kind, d)
        np.testing.assert_allclose(rot.rates, rates, rtol=0,
                                   atol=1e-12 * max(1.0, np.max(np.abs(a))),
                                   err_msg=f"{kind}, d = {d}")
