"""TrigPoly: the exact-algebra oracle must itself be verified numerically."""

import re

import numpy as np
import pytest

from rsflow.trig import TrigPoly


RNG = np.random.default_rng(7)
PTS = RNG.uniform(0, 2 * np.pi, size=(200, 3))


def test_harmonic_matches_cos():
    f = TrigPoly.harmonic(3, (2, -1, 0), amplitude=0.7, phase=0.3)
    expect = 0.7 * np.cos(2 * PTS[:, 0] - PTS[:, 1] + 0.3)
    np.testing.assert_allclose(f.eval(PTS), expect, atol=1e-14)


def test_sin_cos_shortcuts():
    np.testing.assert_allclose(TrigPoly.sin(3, (1, 0, 0)).eval(PTS),
                               np.sin(PTS[:, 0]), atol=1e-14)
    np.testing.assert_allclose(TrigPoly.cos(3, (0, 1, 0)).eval(PTS),
                               np.cos(PTS[:, 1]), atol=1e-14)


def test_product_is_exact_convolution():
    f = TrigPoly.sin(3, (1, 0, 0))
    g = TrigPoly.cos(3, (0, 1, 0))
    prod = f * g
    np.testing.assert_allclose(prod.eval(PTS), f.eval(PTS) * g.eval(PTS),
                               atol=1e-14)


def test_addition_and_scalars():
    f = TrigPoly.sin(2, (1, 0))
    g = 2.0 * f + 1.0 - f
    pts = RNG.uniform(0, 2 * np.pi, size=(50, 2))
    np.testing.assert_allclose(g.eval(pts), np.sin(pts[:, 0]) + 1.0, atol=1e-14)


def test_diff_matches_analytic():
    f = TrigPoly.cos(3, (3, 0, -2))
    df = f.diff(0)
    expect = -3.0 * np.sin(3 * PTS[:, 0] - 2 * PTS[:, 2])
    np.testing.assert_allclose(df.eval(PTS), expect, atol=1e-13)


def test_diff_of_constant_is_zero():
    assert TrigPoly.constant(4, 3.0).diff(2).is_zero()


def test_shifted_matches_translated_eval():
    rng = np.random.default_rng(5)
    f = TrigPoly.random(3, 2, rng)
    off = np.array([0.4, -1.1, 2.3])
    np.testing.assert_allclose(f.shifted(off).eval(PTS), f.eval(PTS - off),
                               atol=1e-12)


def test_parseval_l2_matches_grid_rms():
    rng = np.random.default_rng(9)
    f = TrigPoly.random(2, 2, rng)
    x = np.arange(64) * (2 * np.pi / 64)
    vals = f.sample([x, x])
    assert f.l2() == pytest.approx(np.sqrt(np.mean(vals ** 2)), rel=1e-12)


def test_sample_matches_pointwise_eval():
    rng = np.random.default_rng(3)
    f = TrigPoly.random(2, 2, rng)
    x = np.arange(16) * (2 * np.pi / 16)
    grid_pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)
    np.testing.assert_allclose(f.sample([x, x]), f.eval(grid_pts), atol=1e-13)


def test_band_limited_normalization_and_bound():
    rng = np.random.default_rng(1)
    f = TrigPoly.band_limited(3, 2, rng)
    assert f.max_abs() == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(f.eval(PTS))) <= 1.0 + 1e-12


def test_band_limited_is_real():
    rng = np.random.default_rng(2)
    f = TrigPoly.band_limited(2, 3, rng)
    # Hermitian coefficients: conj(c_{-k}) == c_k for every mode
    for k, c in f.terms.items():
        assert f.terms[tuple(-a for a in k)] == c.conjugate()


def test_zero_and_is_zero():
    z = TrigPoly.zero(3)
    assert z.is_zero()
    assert (z + TrigPoly.sin(3, (1, 0, 0)) - TrigPoly.sin(3, (1, 0, 0))).is_zero()
    f = TrigPoly.random(3, 2, np.random.default_rng(6))
    assert (f - f).is_zero()
    # a NaN coefficient is kept, so the polynomial is not zero
    assert not TrigPoly(3, [(1, 0, 0)], [np.nan]).is_zero()


def test_wavevector_length_mismatch_rejected():
    with pytest.raises(ValueError):
        TrigPoly.harmonic(3, (1, 0))


def test_diff_axis_out_of_range():
    with pytest.raises(ValueError):
        TrigPoly.sin(2, (1, 0)).diff(2)


def test_product_merges_coinciding_wavevectors():
    # cos^2 x = 1/2 + cos(2x)/2: the pairs (1, -1) and (-1, 1) share k = 0
    f = TrigPoly.cos(3, (1, 0, 0))
    assert (f * f).terms == {(2, 0, 0): 0.25, (0, 0, 0): 0.5, (-2, 0, 0): 0.25}


def test_exact_cancellation_leaves_no_terms():
    f = TrigPoly.cos(3, (1, 0, 0)) + TrigPoly.sin(3, (0, 1, 0))
    g = TrigPoly.cos(3, (1, 1, 0))
    diff = f * g - g * f
    assert len(diff.c) == 0 and diff.k.shape == (0, 3)


@pytest.mark.parametrize("k, c", [([[1, 0, 0]], [1.0, 2.0]),
                                  ([[1, 0]], [1.0]),
                                  ([[1, 0, 0]], [[1.0]])],
                         ids=["length", "width", "2-D coefficients"])
def test_mismatched_wavevectors_and_coefficients_rejected(k, c):
    with pytest.raises(ValueError, match="wavevectors of shape"):
        TrigPoly(3, k, c)


@pytest.mark.parametrize("f, sizes", [
    (TrigPoly.band_limited(3, 2, np.random.default_rng(4)), (6, 5, 7)),
    (TrigPoly.zero(3), (4, 3, 2))], ids=["band_limited", "zero"])
def test_sample_on_non_cubic_grid_matches_eval(f, sizes):
    axes = [np.arange(n) * (2 * np.pi / n) for n in sizes]
    vals = f.sample(axes)
    assert vals.shape == sizes
    grid_pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    np.testing.assert_allclose(vals, f.eval(grid_pts), atol=1e-13)


@pytest.mark.parametrize("kmax, axes, expected", [(0, None, "kmax >= 1, got 0"),
                                                  (2, [], "axes=[]")],
                         ids=["kmax", "axes"])
def test_random_rejects_empty_band(kmax, axes, expected):
    with pytest.raises(ValueError, match=re.escape(expected)):
        TrigPoly.random(3, kmax, np.random.default_rng(0), axes=axes)


def _running_sum_random(d, kmax, rng, nterms=3, axes=None):
    """The earlier TrigPoly.random: one addition per harmonic onto zero()."""
    axes = list(range(d)) if axes is None else list(axes)
    out = TrigPoly.zero(d)
    for _ in range(nterms):
        k = [0] * d
        while not any(k):
            for a in axes:
                k[a] = int(rng.integers(-kmax, kmax + 1))
        amp = float(rng.normal()) / nterms
        out = out + TrigPoly.harmonic(d, k, amp, phase=float(rng.uniform(0, 2 * np.pi)))
    return out


def test_random_builds_one_polynomial_per_harmonic_and_one_merge(monkeypatch):
    # the running sum made 2 * nterms + 1: zero(), each harmonic, each sum
    calls = []
    init = TrigPoly.__init__
    monkeypatch.setattr(TrigPoly, "__init__",
                        lambda self, *a, **kw: calls.append(1) or init(self, *a, **kw))
    f = TrigPoly.random(3, 2, np.random.default_rng(0), nterms=3)
    assert len(calls) <= 4 and not f.is_zero()


@pytest.mark.parametrize("d", range(1, 9))
def test_random_has_the_bits_of_the_running_sum(d):
    for kmax in (1, 2, 3):
        for nterms in range(10):
            for axes in (None, [d - 1]):
                seed = 100 * kmax + 10 * nterms + d
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                f = TrigPoly.random(d, kmax, rng, nterms, axes)
                ref = _running_sum_random(d, kmax, ref_rng, nterms, axes)
                assert f.k.dtype == ref.k.dtype and f.k.shape == ref.k.shape
                assert np.array_equal(f.k, ref.k)
                # bytes of the float view, so that signed zeros count too
                assert f.c.view(float).tobytes() == ref.c.view(float).tobytes()
                assert rng.random() == ref_rng.random()
