"""RSFF binary container round trips and corruption handling."""

import numpy as np
import pytest

from rsflow import rsff
from rsflow.fields import Grid, ScalarField, VectorField


def _random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return ScalarField(grid, rng.normal(size=grid.dims))


def test_vector_field_round_trip(tmp_path):
    g = Grid((16, 8, 12), (6.0, 3.0, 2.0))
    u = VectorField(g, tuple(_random_field(g, s) for s in range(3)))
    path = tmp_path / "u.rsff"
    rsff.write_field(path, u, time=1.25)
    back, t = rsff.read_field(path)
    assert t == 1.25
    assert back.grid == g
    for a, b in zip(u.components, back.components):
        assert np.array_equal(a.values, b.values)


def test_scalar_field_round_trip(tmp_path):
    g = Grid((8, 8))
    f = _random_field(g, 4)
    path = tmp_path / "f.rsff"
    rsff.write_field(path, f)
    back, t = rsff.read_field(path)
    assert t == 0.0 and back.ncomp == 1
    assert np.array_equal(back.components[0].values, f.values)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.rsff"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ValueError, match="not an RSFF file"):
        rsff.read_field(path)


def test_truncated_file_rejected(tmp_path):
    g = Grid((8, 8))
    path = tmp_path / "cut.rsff"
    rsff.write_field(path, _random_field(g, 1))
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="truncated"):
        rsff.read_field(path)


def test_write_is_deterministic(tmp_path):
    g = Grid((8, 8, 8))
    u = VectorField(g, tuple(_random_field(g, s) for s in range(3)))
    p1, p2 = tmp_path / "a.rsff", tmp_path / "b.rsff"
    rsff.write_field(p1, u, time=2.0)
    rsff.write_field(p2, u, time=2.0)
    assert p1.read_bytes() == p2.read_bytes()
