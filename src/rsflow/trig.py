"""Exact trigonometric-polynomial algebra.

A :class:`TrigPoly` is a real-valued trigonometric polynomial on the
2pi-periodic box, stored as complex Fourier coefficients over integer
wavevectors:

    f(x) = sum_k c_k exp(i k . x),   c_{-k} = conj(c_k).

The class is closed under addition, multiplication and differentiation,
all of which are exact up to floating-point rounding.  This makes it the
machine-precision oracle for every closed-form identity check (d o d = 0,
Cartan vs. component Lie derivative, Leibniz, trivial-extension lemma),
where finite differences would only give stencil-order agreement.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = ["TrigPoly"]


def _neg(k):
    return tuple(-a for a in k)


class TrigPoly:
    """Real trig polynomial sum_k c_k exp(i k.x) with Hermitian coefficients."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: dict | None = None):
        self.d = int(d)
        self.terms: dict[tuple[int, ...], complex] = {}
        if terms:
            for k, c in terms.items():
                c = complex(c)
                if c != 0:
                    self.terms[tuple(int(a) for a in k)] = c

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, d: int) -> "TrigPoly":
        return cls(d)

    @classmethod
    def constant(cls, d: int, value: float) -> "TrigPoly":
        return cls(d, {(0,) * d: value})

    @classmethod
    def harmonic(cls, d, k, amplitude=1.0, phase=0.0) -> "TrigPoly":
        """amplitude * cos(k.x + phase)."""
        k = tuple(int(a) for a in k)
        if len(k) != d:
            raise ValueError(f"wavevector length {len(k)} != dimension {d}")
        c = 0.5 * amplitude * complex(math.cos(phase), math.sin(phase))
        if all(a == 0 for a in k):
            return cls(d, {k: 2 * c.real})
        return cls(d, {k: c, _neg(k): c.conjugate()})

    @classmethod
    def sin(cls, d, k, amplitude=1.0) -> "TrigPoly":
        return cls.harmonic(d, k, amplitude, phase=-0.5 * math.pi)

    @classmethod
    def cos(cls, d, k, amplitude=1.0) -> "TrigPoly":
        return cls.harmonic(d, k, amplitude)

    @classmethod
    def random(cls, d, kmax, rng, nterms=3, axes=None) -> "TrigPoly":
        """Sum of ``nterms`` random harmonics with |k|_inf <= kmax.

        ``axes`` (0-based) restricts which coordinates the wavevectors may
        touch, so the result is independent of the remaining coordinates.
        """
        axes = list(range(d)) if axes is None else list(axes)
        out = cls.zero(d)
        for _ in range(nterms):
            k = [0] * d
            while not any(k):
                for a in axes:
                    k[a] = int(rng.integers(-kmax, kmax + 1))
            amp = float(rng.normal()) / nterms
            out = out + cls.harmonic(d, k, amp, phase=float(rng.uniform(0, 2 * math.pi)))
        return out

    @classmethod
    def band_limited(cls, d, kmax, rng, amplitude=1.0) -> "TrigPoly":
        """Dense band-limited random field, all modes 0 < |k|_inf <= kmax.

        Normalized so that sum |c_k| = amplitude, hence max |f| <= amplitude.
        """
        terms: dict[tuple[int, ...], complex] = {}
        for k in itertools.product(range(-kmax, kmax + 1), repeat=d):
            nz = next((a for a in k if a != 0), 0)
            if nz <= 0:  # half lattice: first nonzero entry positive
                continue
            c = complex(rng.normal(), rng.normal())
            terms[k] = c
            terms[_neg(k)] = c.conjugate()
        total = sum(abs(c) for c in terms.values())
        if total > 0:
            scale = amplitude / total
            terms = {k: c * scale for k, c in terms.items()}
        return cls(d, terms)

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def _add_term(self, k, c):
        cur = self.terms.get(k, 0j) + c
        if cur == 0:
            self.terms.pop(k, None)
        else:
            self.terms[k] = cur

    def __add__(self, other):
        if np.isscalar(other):
            other = TrigPoly.constant(self.d, other)
        if not isinstance(other, TrigPoly):
            return NotImplemented
        out = TrigPoly(self.d, self.terms)
        for k, c in other.terms.items():
            out._add_term(k, c)
        return out

    __radd__ = __add__

    def __neg__(self):
        return TrigPoly(self.d, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if np.isscalar(other):
            other = TrigPoly.constant(self.d, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if np.isscalar(other):
            s = complex(other)
            if s == 0:
                return TrigPoly.zero(self.d)
            return TrigPoly(self.d, {k: c * s for k, c in self.terms.items()})
        if not isinstance(other, TrigPoly):
            return NotImplemented
        out = TrigPoly(self.d)
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                out._add_term(tuple(a + b for a, b in zip(k1, k2)), c1 * c2)
        return out

    __rmul__ = __mul__

    def shifted(self, offset) -> "TrigPoly":
        """Exact translate: f(x - offset)."""
        off = np.asarray(offset, dtype=float)
        if off.shape != (self.d,):
            raise ValueError("offset must have one entry per axis")
        out = TrigPoly(self.d)
        for k, c in self.terms.items():
            out.terms[k] = c * complex(np.exp(-1j * float(np.dot(k, off))))
        return out

    def diff(self, axis: int) -> "TrigPoly":
        """Exact partial derivative along a 0-based axis."""
        if not 0 <= axis < self.d:
            raise ValueError(f"axis {axis} out of range for dimension {self.d}")
        out = TrigPoly(self.d)
        for k, c in self.terms.items():
            if k[axis]:
                out.terms[k] = c * 1j * k[axis]
        return out

    # ------------------------------------------------------------------
    # evaluation and norms
    # ------------------------------------------------------------------
    def eval(self, points) -> np.ndarray:
        """Evaluate at points of shape (..., d)."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.d:
            raise ValueError("point dimension mismatch")
        out = np.zeros(pts.shape[:-1], dtype=complex)
        for k, c in self.terms.items():
            out += c * np.exp(1j * (pts @ np.asarray(k, dtype=float)))
        return out.real

    def sample(self, axis_coords) -> np.ndarray:
        """Evaluate on the tensor grid given by per-axis coordinate arrays."""
        if len(axis_coords) != self.d:
            raise ValueError("need one coordinate array per axis")
        shape = tuple(len(a) for a in axis_coords)
        out = np.zeros(shape, dtype=complex)
        for k, c in self.terms.items():
            term = np.asarray(c)
            for a, (ka, xa) in enumerate(zip(k, axis_coords)):
                idx = [None] * self.d
                idx[a] = slice(None)
                term = term * np.exp(1j * ka * np.asarray(xa))[tuple(idx)]
            out += term
        return out.real

    def max_abs(self) -> float:
        """Upper bound on sup |f|: sum of coefficient moduli."""
        return float(sum(abs(c) for c in self.terms.values()))

    def l2(self) -> float:
        """Root-mean-square over the box (Parseval, exact)."""
        return math.sqrt(sum(abs(c) ** 2 for c in self.terms.values()))

    def is_zero(self, tol=0.0) -> bool:
        return self.max_abs() <= tol

    def __repr__(self):
        return f"TrigPoly(d={self.d}, nterms={len(self.terms)})"
