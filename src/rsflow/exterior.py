"""Differential-forms algebra over sampled or closed-form coefficients.

A :class:`KForm` stores coefficients over sorted 1-based index tuples, and
zero is absence: no stored coefficient ``.is_zero()``, and a velocity's
missing or all-zero component is an absent 1-form coefficient.
Coefficients may be grid :class:`~rsflow.fields.ScalarField` objects
(finite-difference derivatives) or :class:`~rsflow.trig.TrigPoly` objects
(exact derivatives); every operation here only needs ``+``, ``-``, ``*``,
``.diff(axis)`` and ``.is_zero()`` from the coefficient type, so the same
code path serves both the production route and the machine-precision
oracle route.

Two independent Lie-derivative implementations are provided on purpose:
the contraction form ``iota_u d + d iota_u`` and the raw component
transport law.  Their agreement is one of the core consistency checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fields import Grid, Interpolator, ScalarField, VectorField, check_finite
from .trig import TrigPoly

__all__ = [
    "KForm", "DiscreteMap", "form_from_velocity", "velocity_from_form",
    "exterior_derivative", "wedge", "interior_product",
    "lie_derivative_cartan", "lie_derivative_components", "jacobian_minor",
    "pullback", "antisym_matrix_rep",
]


def _check_tuple(tup, degree, d):
    if len(tup) != degree:
        raise ValueError(f"tuple {tup} has wrong length for degree {degree}")
    if any(tup[i] >= tup[i + 1] for i in range(len(tup) - 1)):
        raise ValueError(f"tuple {tup} is not strictly increasing")
    if tup and (tup[0] < 1 or tup[-1] > d):
        raise ValueError(f"tuple {tup} has axes outside 1..{d}")


class KForm:
    """Degree-k differential form as a sparse map tuple -> nonzero coefficient."""

    def __init__(self, d: int, degree: int, coeffs: dict | None = None):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.d = int(d)
        self.degree = int(degree)
        self.coeffs: dict[tuple, object] = {}
        if coeffs:
            for tup, c in coeffs.items():
                tup = tuple(int(a) for a in tup)
                _check_tuple(tup, degree, d)
                if not c.is_zero():
                    self.coeffs[tup] = c

    # -- bookkeeping ---------------------------------------------------
    @property
    def grid(self) -> Grid | None:
        for c in self.coeffs.values():
            if isinstance(c, ScalarField):
                return c.grid
        return None

    def tuples(self) -> list:
        return sorted(self.coeffs)

    def coeff(self, tup):
        return self.coeffs.get(tuple(tup))

    def map_coeffs(self, fn) -> "KForm":
        return KForm(self.d, self.degree, {t: fn(c) for t, c in self.coeffs.items()})

    # -- linear algebra ------------------------------------------------
    def __add__(self, other, sign=1):
        if not isinstance(other, KForm):
            return NotImplemented
        if (other.d, other.degree) != (self.d, self.degree):
            raise ValueError("form dimension/degree mismatch")
        out = dict(self.coeffs)
        for t, c in other.coeffs.items():
            _acc(out, t, c, sign)
        return KForm(self.d, self.degree, out)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def scale(self, s) -> "KForm":
        return self.map_coeffs(lambda c: c * s)

    def __mul__(self, s):
        if np.isscalar(s):
            return self.scale(s)
        return NotImplemented

    __rmul__ = __mul__

    # -- norms ---------------------------------------------------------
    def max_abs(self) -> float:
        return max((c.max_abs() for c in self.coeffs.values()), default=0.0)

    def l2(self) -> float:
        return float(np.sqrt(sum(c.l2() ** 2 for c in self.coeffs.values())))

    def __repr__(self):
        return f"KForm(d={self.d}, degree={self.degree}, tuples={self.tuples()})"


# ----------------------------------------------------------------------
# permutation sign
# ----------------------------------------------------------------------

def _sort_with_sign(seq):
    """(sign of the sorting permutation, sorted tuple); None on duplicates."""
    seq = list(seq)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(seq)):
        if seq[i - 1] == seq[i]:
            return None
    return sign, tuple(seq)


def _acc(store, tup, coef, sign=1):
    """store[tup] += sign * coef; a sign of -1 subtracts, no pass multiplies."""
    if tup in store:
        store[tup] = store[tup] + coef if sign > 0 else store[tup] - coef
    else:
        store[tup] = coef if sign > 0 else -coef


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

def form_from_velocity(u) -> KForm:
    """The velocity 1-form: coefficient of dx_i is u_i."""
    comps = u.components if isinstance(u, VectorField) else list(u)
    d = comps[0].d if isinstance(comps[0], TrigPoly) else comps[0].grid.d
    return KForm(d, 1, {(i + 1,): c for i, c in enumerate(comps)})


def velocity_from_form(form: KForm) -> VectorField:
    """Inverse of :func:`form_from_velocity` for grid-coefficient 1-forms:
    d components, the absent ones as zeros."""
    if form.degree != 1:
        raise ValueError("need a 1-form")
    grid = form.grid
    if grid is None:
        raise ValueError("form has no grid coefficients")
    return VectorField(grid, tuple(form.coeffs.get((i,)) or ScalarField.zeros(grid)
                                   for i in range(1, form.d + 1)))


def exterior_derivative(omega: KForm) -> KForm:
    """d on sorted-tuple coefficients.

    For a 1-form this yields coefficient u_{n,m} - u_{m,n} on dx_m^dx_n.
    Applying d to a top-degree form gives the zero (k+1)-form: every
    merged tuple repeats an axis.
    """
    d = omega.d
    out: dict = {}
    for tup, c in omega.coeffs.items():
        for a in range(1, d + 1):
            srt = _sort_with_sign((a,) + tup)
            if srt is None:
                continue
            sign, ntup = srt
            _acc(out, ntup, c.diff(a - 1), sign)
    return KForm(d, omega.degree + 1, out)


def wedge(alpha: KForm, beta: KForm) -> KForm:
    """Graded-anticommutative wedge product."""
    if alpha.d != beta.d:
        raise ValueError("dimension mismatch")
    ga = alpha.grid
    gb = beta.grid
    if ga is not None and gb is not None and ga != gb:
        raise ValueError("mismatched grids")
    out: dict = {}
    for t1, c1 in alpha.coeffs.items():
        for t2, c2 in beta.coeffs.items():
            srt = _sort_with_sign(t1 + t2)
            if srt is None:
                continue
            sign, merged = srt
            _acc(out, merged, c1 * c2, sign)
    return KForm(alpha.d, alpha.degree + beta.degree, out)


def interior_product(u, omega: KForm) -> KForm:
    """First-slot contraction iota_u; absent velocity components are zero."""
    if omega.degree < 1:
        raise ValueError("interior product needs degree >= 1")
    vel = form_from_velocity(u)
    out: dict = {}
    for tup, c in omega.coeffs.items():
        for m, axis in enumerate(tup):
            uc = vel.coeff((axis,))
            if uc is not None:
                _acc(out, tup[:m] + tup[m + 1:], uc * c, (-1) ** m)
    return KForm(omega.d, omega.degree - 1, out)


def lie_derivative_cartan(u, omega: KForm) -> KForm:
    """Cartan's formula: L_u = iota_u d + d iota_u."""
    term = interior_product(u, exterior_derivative(omega))
    if omega.degree >= 1:
        term = term + exterior_derivative(interior_product(u, omega))
    return term


def lie_derivative_components(u, omega: KForm) -> KForm:
    """Component transport law, independent of the Cartan route:

    (L_u w)_I = u^k d_k w_I + sum_m w_{I, slot m -> k} d_{i_m} u^k.
    """
    vel = form_from_velocity(u)
    out: dict = {}
    for tup, c in omega.coeffs.items():
        adv = None
        for (k,), uk in vel.coeffs.items():
            piece = uk * c.diff(k - 1)
            adv = piece if adv is None else adv + piece
        if adv is not None:
            _acc(out, tup, adv)
        for m, i_m in enumerate(tup):
            u_slot = vel.coeff((i_m,))
            if u_slot is None:
                continue
            for k in range(1, omega.d + 1):
                srt = _sort_with_sign(tup[:m] + (k,) + tup[m + 1:])
                if srt is None:
                    continue
                sign, ntup = srt
                _acc(out, ntup, c * u_slot.diff(k - 1), sign)
    return KForm(omega.d, omega.degree, out)


# ----------------------------------------------------------------------
# pullback
# ----------------------------------------------------------------------

def jacobian_minor(jac, rows, cols):
    """Determinant of the minor ``jac[..., rows, :][..., cols]`` of a stack
    of matrices, as the Leibniz sum over the permutations of ``cols``: the
    0 x 0 minor is 1, and det J is the minor of all rows and columns."""
    out = None
    for perm in itertools.permutations(range(len(cols))):  # identity first
        term = 1.0
        for r, p in zip(rows, perm):
            term = term * jac[..., r, cols[p]]
        if out is None:
            out = term
        elif _sort_with_sign(perm)[0] > 0:
            out = out + term
        else:
            out = out - term
    return out


@dataclass(frozen=True, eq=False)
class DiscreteMap:
    """Sampled map Phi: images, the Jacobian as one ``dims + (d, d)``
    array with ``[..., r, c] = dPhi_c/da_r``, and det J, computed here
    (:func:`jacobian_minor`) unless the caller already has it."""

    grid: Grid
    images: VectorField
    jacobian: np.ndarray
    det: np.ndarray = None

    def __post_init__(self):
        d = self.grid.d
        if self.images.ncomp != d:
            raise ValueError("map images must have d components")
        jac = np.asarray(self.jacobian, dtype=np.float64)
        if jac.shape != self.grid.dims + (d, d):
            raise ValueError(f"jacobian has shape {jac.shape}, "
                             f"expected {self.grid.dims + (d, d)}")
        check_finite("", [jac], ["J"])
        det = self.det
        if det is None:
            det = jacobian_minor(jac, range(d), range(d))
        det = np.asarray(det, dtype=np.float64)
        if det.shape != self.grid.dims:
            raise ValueError(f"det J has shape {det.shape}, "
                             f"expected {self.grid.dims}")
        object.__setattr__(self, "jacobian", jac)
        object.__setattr__(self, "det", det)

    @classmethod
    def identity(cls, grid: Grid) -> "DiscreteMap":
        pts = grid.points()
        d = grid.d
        images = VectorField.from_arrays(grid, [pts[..., a] for a in range(d)])
        return cls(grid, images, np.broadcast_to(np.eye(d), grid.dims + (d, d)))


def pullback(dmap: DiscreteMap, omega: KForm) -> KForm:
    """Pull a grid k-form back through the map.

    Coefficients of omega are interpolated at the image points and
    contracted with k x k Jacobian minors (the 0 x 0 minor is 1).
    """
    grid = dmap.grid
    k = omega.degree
    if omega.d != grid.d:
        raise ValueError("dimension mismatch")
    src_grid = omega.grid
    if src_grid is None and omega.coeffs:
        raise ValueError("pullback needs grid coefficients")
    bad = int(np.argmin(np.abs(dmap.det)))  # a NaN det J comes first
    if not abs(dmap.det.flat[bad]) >= 1e-300:
        raise ValueError(f"singular jacobian in pullback: det J = "
                         f"{dmap.det.flat[bad]:.3g} at particle {bad}")
    pts = np.stack([c.values for c in dmap.images.components], axis=-1)
    if not omega.coeffs:
        return KForm(grid.d, k, {})
    images = list(omega.coeffs)
    sampled = Interpolator(src_grid, pts)(
        np.stack([omega.coeffs[img].values for img in images]))
    out: dict = {}
    for dom in itertools.combinations(range(1, grid.d + 1), k):
        acc = None
        rows = [a - 1 for a in dom]
        for img, vals in zip(images, sampled):
            cols = [a - 1 for a in img]
            term = vals * jacobian_minor(dmap.jacobian, rows, cols)
            acc = term if acc is None else acc + term
        out[dom] = ScalarField(grid, acc)
    return KForm(grid.d, k, out)


def antisym_matrix_rep(omega: KForm) -> np.ndarray:
    """Matrix of a grid 2-form as one ``dims + (d, d)`` array:
    ``[..., m, n]`` = coefficient of dx_m^dx_n / 2."""
    if omega.degree != 2:
        raise ValueError("matrix representation needs a 2-form")
    grid = omega.grid
    if grid is None:
        raise ValueError("matrix representation needs grid coefficients")
    out = np.zeros(grid.dims + (omega.d, omega.d))
    for (m, n), c in omega.coeffs.items():
        out[..., m - 1, n - 1] = 0.5 * c.values
        out[..., n - 1, m - 1] = -0.5 * c.values
    return out
