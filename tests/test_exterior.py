"""Exterior calculus: signs, identities, pullback geometry.

The sign-sensitive operations (exterior derivative, wedge) are checked
against an independent symbolic oracle (sympy differential forms built by
hand), and the Lie derivative against its second, independent route.
"""

import itertools

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from rsflow.exterior import (DiscreteMap, KForm, antisym_matrix_rep,
                             exterior_derivative, form_from_velocity,
                             interior_product, lie_derivative_cartan,
                             lie_derivative_components, pullback,
                             velocity_from_form, wedge)
from rsflow.fields import (Grid, ScalarField, VectorField, derivative,
                           gradient_tensor)
from rsflow.rsf import (component_vorticities, decomposition_plan,
                        sym_antisym_split)
from rsflow.trig import TrigPoly
from rsflow.verify import _random_form


def _sample(poly, grid):
    return ScalarField(grid, poly.sample([grid.axis_coords(a)
                                          for a in range(grid.d)]))


def _sample_form(form, grid):
    return form.map_coeffs(lambda c: _sample(c, grid))


# ----------------------------------------------------------------------
# exterior derivative against a symbolic oracle
# ----------------------------------------------------------------------

def test_exterior_derivative_matches_sympy_oracle_d4():
    # independent symbolic route: dU coefficient on dx_m ^ dx_n must be
    # d_m u_n - d_n u_m for the 1-form with the same components
    xs = sp.symbols("x1 x2 x3 x4")
    sym_u = [sp.sin(xs[0]) * sp.cos(xs[1]),
             sp.cos(xs[2]) * sp.sin(xs[3]),
             sp.sin(xs[1] + 2 * xs[2]),
             sp.cos(xs[0] - xs[3])]
    u = [TrigPoly.sin(4, (1, 0, 0, 0)) * TrigPoly.cos(4, (0, 1, 0, 0)),
         TrigPoly.cos(4, (0, 0, 1, 0)) * TrigPoly.sin(4, (0, 0, 0, 1)),
         TrigPoly.sin(4, (0, 1, 2, 0)),
         TrigPoly.cos(4, (1, 0, 0, -1))]
    dU = exterior_derivative(form_from_velocity(u))
    pts = np.random.default_rng(0).uniform(0, 2 * np.pi, size=(40, 4))
    for m, n in itertools.combinations(range(1, 5), 2):
        sym = sp.diff(sym_u[n - 1], xs[m - 1]) - sp.diff(sym_u[m - 1], xs[n - 1])
        oracle = sp.lambdify(xs, sym, "numpy")(*pts.T)
        coeff = dU.coeff((m, n))
        ours = coeff.eval(pts) if coeff is not None else np.zeros(len(pts))
        np.testing.assert_allclose(ours, oracle, atol=1e-12)


def test_dd_zero_analytic():
    rng = np.random.default_rng(1)
    for degree in (0, 1, 2):
        omega = _random_form(5, degree, rng)
        assert exterior_derivative(exterior_derivative(omega)).max_abs() <= 1e-13


def test_dd_zero_on_grid_coefficients():
    # roll-based stencils commute up to rounding, so d o d is machine zero
    # on the grid as well, not just for the trig algebra
    g = Grid.cube(3, 16)
    rng = np.random.default_rng(2)
    omega = _sample_form(_random_form(3, 1, rng), g)
    assert exterior_derivative(exterior_derivative(omega)).max_abs() <= 1e-13


def test_component_vorticities_are_bit_equal_to_the_explicit_curl():
    # the permutation sign picks add or subtract; a reordering of that
    # fold would change bits that a tolerance would not see
    g = Grid((12, 10, 8))
    rng = np.random.default_rng(6)
    u1, u2 = (np.broadcast_to(rng.normal(size=g.dims[:2])[..., None], g.dims)
              for _ in range(2))
    comps = [u1, u2, rng.normal(size=g.dims)]  # RSF: u1, u2 constant in x3
    u = VectorField.from_arrays(g, comps)
    omega_h, omega_rest = component_vorticities(u, decomposition_plan(3))
    for form, (m, n) in ((omega_h, (1, 2)), (omega_rest, (1, 3)),
                         (omega_rest, (2, 3))):
        curl = (derivative(comps[n - 1], m - 1, g.spacing[m - 1])
                - derivative(comps[m - 1], n - 1, g.spacing[n - 1]))
        assert np.array_equal(form.coeff((m, n)).values, curl)


def test_kform_arithmetic_with_a_non_form_is_a_type_error():
    omega = _random_form(3, 1, np.random.default_rng(7))
    with pytest.raises(TypeError):
        omega + 3
    with pytest.raises(TypeError):
        omega - 3


def test_top_degree_derivative_is_zero_form():
    g = Grid.cube(3, 8)
    top = KForm(3, 3, {(1, 2, 3): ScalarField(g, np.ones(g.dims))})
    d_top = exterior_derivative(top)
    assert d_top.degree == 4 and not d_top.coeffs


# ----------------------------------------------------------------------
# wedge
# ----------------------------------------------------------------------

def test_wedge_of_basis_one_forms():
    one = TrigPoly.constant(3, 1.0)
    dx1 = KForm(3, 1, {(1,): one})
    dx2 = KForm(3, 1, {(2,): one})
    w = wedge(dx2, dx1)
    assert w.tuples() == [(1, 2)]
    assert w.coeff((1, 2)).terms == {(0, 0, 0): (-1 + 0j)}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 99))
def test_wedge_graded_anticommutativity(ka, kb, seed):
    rng = np.random.default_rng(seed)
    a = _random_form(4, ka, rng)
    b = _random_form(4, kb, rng)
    lhs = wedge(a, b)
    rhs = wedge(b, a).scale((-1.0) ** (ka * kb))
    assert (lhs - rhs).max_abs() <= 1e-13


def test_wedge_associativity():
    rng = np.random.default_rng(3)
    a, b, c = (_random_form(5, 1, rng) for _ in range(3))
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    assert (lhs - rhs).max_abs() <= 1e-13


def test_wedge_above_top_degree_vanishes():
    rng = np.random.default_rng(4)
    a = _random_form(3, 2, rng)
    b = _random_form(3, 2, rng)
    assert not wedge(a, b).coeffs  # degree 4 > d = 3


def test_wedge_distributes_over_sum():
    rng = np.random.default_rng(5)
    a, b = _random_form(4, 1, rng), _random_form(4, 1, rng)
    c = _random_form(4, 2, rng)
    assert (wedge(a + b, c) - wedge(a, c) - wedge(b, c)).max_abs() <= 1e-13


# ----------------------------------------------------------------------
# interior product and Lie derivatives
# ----------------------------------------------------------------------

def test_interior_product_of_velocity_form_is_speed_squared():
    rng = np.random.default_rng(6)
    u = [TrigPoly.random(3, 2, rng) for _ in range(3)]
    speed2 = interior_product(u, form_from_velocity(u)).coeff(())
    pts = np.random.default_rng(7).uniform(0, 2 * np.pi, size=(30, 3))
    expect = sum(c.eval(pts) ** 2 for c in u)
    np.testing.assert_allclose(speed2.eval(pts), expect, atol=1e-12)


def test_interior_product_twice_is_zero():
    rng = np.random.default_rng(8)
    u = [TrigPoly.random(4, 2, rng) for _ in range(4)]
    omega = _random_form(4, 2, rng)
    assert interior_product(u, interior_product(u, omega)).max_abs() <= 1e-13


@pytest.mark.parametrize("d", [3, 4, 5])
def test_cartan_equals_component_transport(d):
    for seed in range(10):
        rng = np.random.default_rng(100 * d + seed)
        u = [TrigPoly.random(d, 2, rng) for _ in range(d)]
        for degree in (1, 2):
            omega = _random_form(d, degree, rng)
            diff = (lie_derivative_cartan(u, omega)
                    - lie_derivative_components(u, omega))
            assert diff.max_abs() <= 1e-12


def test_lie_derivative_of_zero_form_is_advection():
    rng = np.random.default_rng(9)
    u = [TrigPoly.random(3, 2, rng) for _ in range(3)]
    f = TrigPoly.random(3, 2, rng)
    lie = lie_derivative_cartan(u, KForm(3, 0, {(): f}))
    expect = sum(uc * f.diff(k) for k, uc in enumerate(u))
    assert (lie.coeff(()) - expect).max_abs() <= 1e-13


# ----------------------------------------------------------------------
# velocity <-> form round trips
# ----------------------------------------------------------------------

def test_velocity_form_round_trip():
    g = Grid.cube(3, 8)
    rng = np.random.default_rng(10)
    u = VectorField(g, tuple(_sample(TrigPoly.random(3, 2, rng), g)
                             for _ in range(3)))
    back = velocity_from_form(form_from_velocity(u))
    for a, b in zip(u.components, back.components):
        assert np.array_equal(a.values, b.values)


# ----------------------------------------------------------------------
# pullback
# ----------------------------------------------------------------------

def test_pullback_by_identity_is_exact():
    g = Grid.cube(3, 16)
    rng = np.random.default_rng(11)
    omega = _sample_form(_random_form(3, 2, rng), g)
    pulled = pullback(DiscreteMap.identity(g), omega)
    assert (pulled - omega).max_abs() == 0.0


def test_pullback_by_quarter_turn():
    # (x1, x2) -> (x2, -x1) maps nodes to nodes; J is constant with unit
    # planar minor, so the pullback of f dx1^dx2 is exactly f o Phi
    g = Grid.cube(2, 16)
    pts = g.points()
    images = VectorField.from_arrays(
        g, [np.mod(pts[..., 1], 2 * np.pi), np.mod(-pts[..., 0], 2 * np.pi)])
    jac = np.broadcast_to([[0.0, -1.0], [1.0, 0.0]], g.dims + (2, 2))
    rng = np.random.default_rng(12)
    f = TrigPoly.random(2, 2, rng)
    omega = KForm(2, 2, {(1, 2): _sample(f, g)})
    pulled = pullback(DiscreteMap(g, images, jac), omega)
    expect = f.eval(np.stack([pts[..., 1], -pts[..., 0]], axis=-1))
    np.testing.assert_allclose(pulled.coeff((1, 2)).values, expect, atol=1e-12)


@pytest.mark.parametrize("bad", ["nan", "shape"])
def test_discrete_map_rejects_bad_jacobian(bad):
    g = Grid.cube(2, 8)
    ident = DiscreteMap.identity(g)
    jac = np.array(ident.jacobian)
    if bad == "nan":
        jac[3, 5, 1, 0] = np.nan
    else:
        jac = jac[..., :1]
    with pytest.raises(ValueError, match="NaN" if bad == "nan" else "shape"):
        DiscreteMap(g, ident.images, jac)


def test_pullback_of_zero_form_composes():
    g = Grid.cube(2, 16)
    pts = g.points()
    shift = np.array([g.spacing[0], 3 * g.spacing[1]])  # node-to-node shift
    images = VectorField.from_arrays(
        g, [np.mod(pts[..., a] + shift[a], 2 * np.pi) for a in range(2)])
    ident = DiscreteMap.identity(g)
    dmap = DiscreteMap(g, images, ident.jacobian)
    rng = np.random.default_rng(13)
    f = TrigPoly.random(2, 2, rng)
    omega = KForm(2, 0, {(): _sample(f, g)})
    pulled = pullback(dmap, omega)
    expect = f.shifted(-shift)  # f(x + shift)
    np.testing.assert_allclose(pulled.coeff(()).values, _sample(expect, g).values,
                               atol=1e-12)


# ----------------------------------------------------------------------
# matrix representation
# ----------------------------------------------------------------------

def test_vorticity_matrix_is_antisymmetric_gradient_part():
    g = Grid.cube(3, 16)
    rng = np.random.default_rng(14)
    u = VectorField(g, tuple(_sample(TrigPoly.random(3, 2, rng), g)
                             for _ in range(3)))
    omega = exterior_derivative(form_from_velocity(u))
    rep = antisym_matrix_rep(omega)
    _, antisym = sym_antisym_split(gradient_tensor(u))
    assert rep.shape == g.dims + (3, 3)
    assert np.max(np.abs(rep - antisym)) <= 1e-12
