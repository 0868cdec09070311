"""Exact trigonometric-polynomial algebra.

A :class:`TrigPoly` is a real-valued trigonometric polynomial on the
2pi-periodic box, stored as complex Fourier coefficients over integer
wavevectors:

    f(x) = sum_k c_k exp(i k . x),   c_{-k} = conj(c_k).

The wavevectors are the rows of an int64 ``(nterms, d)`` matrix ``k`` and
the coefficients a complex vector ``c``.  The class is closed under
addition, multiplication and differentiation, all of which are exact up to
floating-point rounding.  This makes it the machine-precision oracle for
every closed-form identity check (d o d = 0, Cartan vs. component Lie
derivative, Leibniz, trivial-extension lemma), where finite differences
would only give stencil-order agreement.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["TrigPoly"]


class TrigPoly:
    """Real trig polynomial sum_k c_k exp(i k.x) with Hermitian coefficients.

    Invariant: the rows of ``k`` are distinct and no entry of ``c`` is zero.
    """

    __slots__ = ("d", "k", "c")

    def __init__(self, d: int, k=None, c=None):
        """sum_j c[j] exp(i k[j].x); repeated rows are summed, zeros dropped."""
        self.d = int(d)
        k = np.asarray(np.zeros((0, d)) if k is None else k, dtype=np.int64)
        c = np.asarray(() if c is None else c, dtype=complex)
        if c.ndim != 1 or k.shape != (len(c), self.d):
            raise ValueError(f"wavevectors of shape {k.shape} for coefficients of "
                             f"shape {c.shape} in dimension {self.d}")
        if len(c):
            # One flat key per row; ravel_multi_index raises on overflow.
            lo = k.min(axis=0)
            key = np.ravel_multi_index((k - lo).T, tuple(k.max(axis=0) - lo + 1))
            uniq, first, inv = np.unique(key, return_index=True, return_inverse=True)
            c = (np.bincount(inv, c.real, len(uniq))
                 + 1j * np.bincount(inv, c.imag, len(uniq)))
            k = k[first]
        keep = c != 0
        self.k, self.c = k[keep], c[keep]

    def _same_rows(self, c) -> "TrigPoly":
        """New coefficients ``c`` on these rows: still distinct, so no merge."""
        out = object.__new__(TrigPoly)
        keep = c != 0
        out.d, out.k, out.c = self.d, self.k[keep], c[keep]
        return out

    @property
    def terms(self) -> dict:
        """Copy of the coefficients as ``{wavevector tuple: complex}``."""
        return dict(zip(map(tuple, self.k.tolist()), self.c.tolist()))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, d: int) -> "TrigPoly":
        return cls(d)

    @classmethod
    def constant(cls, d: int, value: float) -> "TrigPoly":
        return cls(d, [(0,) * d], [value])

    @classmethod
    def harmonic(cls, d, k, amplitude=1.0, phase=0.0) -> "TrigPoly":
        """amplitude * cos(k.x + phase)."""
        k = tuple(int(a) for a in k)
        if len(k) != d:
            raise ValueError(f"wavevector length {len(k)} != dimension {d}")
        c = 0.5 * amplitude * complex(math.cos(phase), math.sin(phase))
        return cls(d, [k, [-a for a in k]], [c, c.conjugate()])

    @classmethod
    def sin(cls, d, k) -> "TrigPoly":
        """sin(k.x)."""
        return cls.harmonic(d, k, phase=-0.5 * math.pi)

    @classmethod
    def cos(cls, d, k) -> "TrigPoly":
        """cos(k.x)."""
        return cls.harmonic(d, k)

    @classmethod
    def random(cls, d, kmax, rng, nterms=3, axes=None) -> "TrigPoly":
        """Sum of ``nterms`` random harmonics with |k|_inf <= kmax.

        ``axes`` (0-based) restricts which coordinates the wavevectors may
        touch, so the result is independent of the remaining coordinates.
        """
        axes = list(range(d)) if axes is None else list(axes)
        if kmax < 1:
            raise ValueError(f"random harmonics need kmax >= 1, got {kmax}")
        if not axes:
            raise ValueError(f"random harmonics need at least one axis, got axes={axes}")
        terms = []
        for _ in range(nterms):
            k = [0] * d
            while not any(k):
                for a in axes:
                    k[a] = int(rng.integers(-kmax, kmax + 1))
            terms.append(cls.harmonic(d, k, rng.normal() / nterms, rng.uniform(0, math.tau)))
        return cls(d, np.concatenate([np.zeros((0, d), int)] + [h.k for h in terms]),
                   np.concatenate([np.zeros(0)] + [h.c for h in terms]))

    @classmethod
    def band_limited(cls, d, kmax, rng) -> "TrigPoly":
        """Dense band-limited random field, all modes 0 < |k|_inf <= kmax.

        Normalized so that sum |c_k| = 1, hence max |f| <= 1.
        """
        k = np.indices((2 * kmax + 1,) * d).reshape(d, -1).T - kmax
        first_nonzero = k[np.arange(len(k)), np.argmax(k != 0, axis=1)]
        half = k[first_nonzero > 0]  # half lattice: first nonzero entry positive
        re, im = rng.normal(size=(len(half), 2)).T
        c = re + 1j * im
        total = 2 * np.abs(c).sum()
        if total > 0:
            c *= 1.0 / total
        return cls(d, np.concatenate([half, -half]), np.concatenate([c, c.conj()]))

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def __add__(self, other):
        if np.isscalar(other):
            other = TrigPoly.constant(self.d, other)
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return TrigPoly(self.d, np.concatenate([self.k, other.k]),
                        np.concatenate([self.c, other.c]))

    __radd__ = __add__

    def __neg__(self):
        return self._same_rows(-self.c)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if np.isscalar(other):
            return self._same_rows(self.c * complex(other))
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return TrigPoly(self.d, (self.k[:, None] + other.k[None]).reshape(-1, self.d),
                        np.multiply.outer(self.c, other.c).ravel())

    __rmul__ = __mul__

    def shifted(self, offset) -> "TrigPoly":
        """Exact translate: f(x - offset)."""
        off = np.asarray(offset, dtype=float)
        if off.shape != (self.d,):
            raise ValueError("offset must have one entry per axis")
        return self._same_rows(self.c * np.exp(-1j * (self.k @ off)))

    def diff(self, axis: int) -> "TrigPoly":
        """Exact partial derivative along a 0-based axis."""
        if not 0 <= axis < self.d:
            raise ValueError(f"axis {axis} out of range for dimension {self.d}")
        return self._same_rows(self.c * 1j * self.k[:, axis])

    # ------------------------------------------------------------------
    # evaluation and norms
    # ------------------------------------------------------------------
    def eval(self, points) -> np.ndarray:
        """Evaluate at points of shape (..., d)."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.d:
            raise ValueError("point dimension mismatch")
        return (np.exp(1j * (pts @ self.k.T)) @ self.c).real

    def sample(self, axis_coords) -> np.ndarray:
        """Evaluate on the tensor grid given by per-axis coordinate arrays.

        The coefficients are scattered into a dense array over each axis's
        distinct wavenumbers, then contracted one axis at a time with that
        axis's ``exp(i k_a x_a)`` table.
        """
        if len(axis_coords) != self.d:
            raise ValueError("need one coordinate array per axis")
        per_axis = [np.unique(ka, return_inverse=True) for ka in self.k.T]
        out = np.zeros(tuple(len(wn) for wn, _ in per_axis), dtype=complex)
        out[tuple(idx for _, idx in per_axis)] = self.c
        for (wn, _), xa in zip(per_axis, axis_coords):
            table = np.exp(1j * np.multiply.outer(wn, np.asarray(xa, dtype=float)))
            out = np.tensordot(out, table, axes=(0, 0))
        return out.real

    def max_abs(self) -> float:
        """Upper bound on sup |f|: sum of coefficient moduli."""
        return float(np.abs(self.c).sum())

    def l2(self) -> float:
        """Root-mean-square over the box (Parseval, exact)."""
        return math.sqrt(float((np.abs(self.c) ** 2).sum()))

    def is_zero(self) -> bool:
        return not len(self.c)

    def __repr__(self):
        return f"TrigPoly(d={self.d}, nterms={len(self.c)})"
