"""Real-Schur-flow specifics.

The pairwise decomposition plan for the invariant vorticity components,
construction of the component 1-forms and 2-forms, the lower-block zero
pattern that defines a real Schur velocity gradient, the symmetric/
antisymmetric split, and the canonical block-diagonalization of an
antisymmetric matrix into pure-rotation planes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .exterior import KForm, exterior_derivative
from .fields import VectorField, check_finite, derivative, map_slabs, with_halo

__all__ = [
    "DecompPlan", "ZeroPattern", "CanonicalRotation",
    "decomposition_plan", "component_velocity_forms", "component_vorticities",
    "zero_pattern", "check_rsf", "sym_antisym_split", "canonical_antisymmetric",
]


@dataclass(frozen=True)
class DecompPlan:
    """Axis pairing behind the invariant decomposition.

    ``pairs[i] = (2i+1, 2i+2)`` 1-based; for odd d the final pair is
    (d, d+1) where axis d+1 is the padded constant-velocity axis and
    carries no data.
    """

    d: int
    m: int
    pairs: tuple
    padded: bool

    def component_axes(self, i: int) -> tuple:
        """Real axes (<= d) contributing to component i."""
        return tuple(a for a in self.pairs[i] if a <= self.d)

    def to_json(self) -> str:
        return json.dumps({"d": self.d, "M": self.m,
                           "pairs": [list(p) for p in self.pairs],
                           "padded": self.padded})


def decomposition_plan(d: int) -> DecompPlan:
    """Pair plan with M = floor((d+1)/2) components; requires d >= 3."""
    if d < 3:
        raise ValueError(f"the decomposition is stated for d >= 3, got d = {d}")
    m = (d + 1) // 2
    pairs = tuple((2 * i + 1, 2 * i + 2) for i in range(m))
    plan = DecompPlan(d, m, pairs, padded=bool(d % 2))
    assert plan.m <= d * (d - 1) // 2
    return plan


def component_velocity_forms(u: VectorField, plan: DecompPlan) -> list:
    """The component 1-forms; their sum is the full velocity 1-form."""
    if u.ncomp != plan.d:
        raise ValueError(f"velocity has {u.ncomp} components, plan wants {plan.d}")
    forms = []
    for i in range(plan.m):
        coeffs = {(a,): u.components[a - 1] for a in plan.component_axes(i)}
        forms.append(KForm(plan.d, 1, coeffs))
    return forms


def component_vorticities(u: VectorField, plan: DecompPlan) -> list:
    """Component 2-forms: the exterior derivative of each component 1-form."""
    return [exterior_derivative(f) for f in component_velocity_forms(u, plan)]


@dataclass(frozen=True)
class ZeroPattern:
    """Entries (component c, derivative axis r) that vanish for an RSF field."""

    d: int
    required_zero: frozenset


def zero_pattern(d: int) -> ZeroPattern:
    """Entry (c, r) is required zero when axis r lies in a later pair of
    :func:`decomposition_plan` than axis c (which rejects d < 3)."""
    pair = {a: i for i, p in enumerate(decomposition_plan(d).pairs) for a in p}
    req = frozenset((c, r) for c in range(1, d + 1) for r in range(1, d + 1)
                    if pair[r] > pair[c])
    return ZeroPattern(d, req)


def check_rsf(u: VectorField, pattern: ZeroPattern) -> float:
    """Max |du_c/dx_r| over the pattern's required-zero entries (0.0 for
    none): one pass over x1-slabs (:func:`map_slabs`) whose maxima are
    reduced by one ``np.max``, so the value is the whole-grid one and a
    NaN derivative gives NaN.

    A component broadcast along r (stride 0 there, as a column-stored u1
    or u2 is along x3) is differentiated on one 4-wide fibre along r:
    all five values of each node's stencil are then one value, so every
    derivative, and the maximum, keep their bits.  The fibre is cut
    before :func:`with_halo`, whose wrapped end slabs copy the planes and
    so lose the stride 0; the slab axis (r = 1) is never cut."""
    if u.ncomp != pattern.d:
        raise ValueError("component count does not match pattern dimension")
    h = u.grid.spacing
    n = u.grid.dims[0]

    def slab(a, b):
        maxima = []
        for c, r in pattern.required_zero:
            values = u.components[c - 1].values
            if r > 1 and not values.strides[r - 1]:
                values = values[(slice(None),) * (r - 1) + (slice(0, 4),)]
            planes, halo = with_halo(values, a, b)
            der = derivative(planes, r - 1, h[r - 1], halo)
            maxima.append(np.max(np.abs(der)))
        return maxima

    return float(np.max(map_slabs(slab, n, u.grid.npoints // n), initial=0.0))


def sym_antisym_split(g: np.ndarray):
    """G = D + A with D symmetric and A antisymmetric, for a stack of
    square matrices of shape ``dims + (n, n)``."""
    g = np.asarray(g, dtype=float)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise ValueError(f"split needs square matrices, got shape {g.shape}")
    gt = np.swapaxes(g, -1, -2)
    return 0.5 * (g + gt), 0.5 * (g - gt)


# ----------------------------------------------------------------------
# canonical form of an antisymmetric matrix
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalRotation:
    """Orthogonal Q with Q^T A Q block diagonal, blocks [[0,-t],[t,0]]."""

    q: np.ndarray
    rates: tuple
    planes: tuple  # (column index pairs of q) per positive rate

    def to_json(self) -> str:
        return json.dumps({"d": int(self.q.shape[0]),
                           "rates": list(self.rates),
                           "planes": [list(p) for p in self.planes],
                           "Q": self.q.ravel().tolist()})


def _form_tol(a) -> float:
    """Zero-rate tolerance, also the bound of the block-form check."""
    return 1e-10 * max(1.0, np.max(np.abs(a)))


def canonical_antisymmetric(a: np.ndarray) -> CanonicalRotation:
    """Orthogonal congruence of an antisymmetric matrix to rotation blocks.

    One ``np.linalg.eigh`` of the Hermitian iA, whose eigenvalues are
    +-theta: an eigenvector x + iy of a rate theta > 0 gives the plane
    (sqrt(2) x, sqrt(2) y), with A x = theta y, so each block carries
    +theta below the diagonal.  One complete QR, sign-fixed by diag(R),
    orthonormalizes the planes and gives the kernel basis.  Rates are
    descending; one at or below 1e-10 max(1, max|A|), the bound of the
    block-form check, is zero and fills one of the floor(d/2) slots.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"matrix must be square 2-D and non-empty, got shape {a.shape}")
    check_finite("", [a], ["matrix"])
    n = a.shape[0]
    if np.max(np.abs(a + a.T)) > 1e-12 * max(np.linalg.norm(a), 1.0):
        raise ValueError("matrix is not antisymmetric")
    theta, v = np.linalg.eigh(1j * a)
    theta, v = theta[::-1][:n // 2], v[:, ::-1]
    k = int(np.count_nonzero(theta > _form_tol(a)))
    planes = np.sqrt(2.0) * np.stack([v[:, :k].real, v[:, :k].imag], axis=2)
    q, r = np.linalg.qr(planes.reshape(n, 2 * k), mode="complete")
    q[:, :2 * k] *= np.sign(np.diag(r))
    rates = tuple(float(t) for t in theta[:k]) + (0.0,) * (n // 2 - k)
    rot = CanonicalRotation(q, rates, tuple((2 * i, 2 * i + 1) for i in range(k)))
    _validate_canonical(a, rot)
    return rot


def _validate_canonical(a, rot):
    n = a.shape[0]
    q = rot.q
    if np.max(np.abs(q.T @ q - np.eye(n))) > 1e-12:
        raise RuntimeError("canonical basis lost orthogonality")
    b = q.T @ a @ q
    ref = np.zeros_like(b)
    for i, theta in enumerate(t for t in rot.rates if t > 0):
        ref[2 * i + 1, 2 * i] = theta
        ref[2 * i, 2 * i + 1] = -theta
    if np.max(np.abs(b - ref)) > _form_tol(a):
        raise RuntimeError("canonical form validation failed")
