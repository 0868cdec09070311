"""RSFF binary container round trips and corruption handling."""

import struct
import tracemalloc

import numpy as np
import pytest

from rsflow import rsff
from rsflow.fields import Grid, ScalarField, VectorField
from rsflow.solver import FlowState, assemble_velocity_arrays


def _random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return ScalarField(grid, rng.normal(size=grid.dims))


def write_v1(path, arrays, grid, time=0.0):
    """The version 1 writer: no axis masks, every component stored over
    every axis (a broadcast view repeated)."""
    d = grid.d
    with open(path, "wb") as fh:
        fh.write(rsff.MAGIC + struct.pack(f"<3I{d}I{d}dd", 1, d, len(arrays),
                                          *grid.dims, *grid.length, time))
        for a in arrays:
            np.ascontiguousarray(np.broadcast_to(a, grid.dims), dtype="<f8").tofile(fh)


def _mixed_components(grid, seed):
    """One full component, one broadcast along the last axis, one along
    all axes but the last, and a constant: masks 0b111, 0b011, 0b100, 0."""
    rng = np.random.default_rng(seed)
    n1, n2, n3 = grid.dims
    return [rng.normal(size=grid.dims),
            np.broadcast_to(rng.normal(size=(n1, n2, 1)), grid.dims),
            np.broadcast_to(rng.normal(size=n3), grid.dims),
            np.broadcast_to(rng.normal(), grid.dims)]


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


def test_header_whose_point_count_overflows_int64_is_truncated(tmp_path):
    # 2**21 * 2**21 * 2**22 is 2**64, which an int64 product wraps to 0;
    # version 2 adds the component's axis mask (all three axes)
    path = tmp_path / "huge.rsff"
    for version, masks in ((1, b""), (2, struct.pack("<I", 0b111))):
        path.write_bytes(rsff.MAGIC + struct.pack("<6I", version, 3, 1, 2 ** 21, 2 ** 21,
                                                  2 ** 22) + struct.pack("<4d", 1, 1, 1, 0)
                         + masks)
        size = 60 + len(masks)
        with pytest.raises(ValueError) as exc:
            rsff.read_field(path)
        assert str(exc.value) == (f"{path}: truncated ({size} bytes, expected "
                                  f"{size + 8 * 2 ** 64})")


def test_header_without_components_is_rejected_with_its_path(tmp_path):
    path = tmp_path / "empty.rsff"
    path.write_bytes(rsff.MAGIC + struct.pack("<6I", rsff.VERSION, 3, 0, 8, 8, 8)
                     + struct.pack("<4d", 1, 1, 1, 0))
    with pytest.raises(ValueError) as exc:
        rsff.read_field(path)
    assert str(exc.value) == f"{path}: no components"


@pytest.mark.parametrize("dims, expected", [
    ([(8, 8, 16), (8, 16, 8)], "all components must share one grid"),
    ([], "{path}: no components to write")], ids=["two grids", "empty"])
def test_write_rejects_a_list_that_is_not_one_grid(dims, expected, tmp_path):
    # one header describes every component, so a second grid would be
    # read back reshaped to the first
    path = tmp_path / "bad.rsff"
    with pytest.raises(ValueError) as exc:
        rsff.write_field(path, [ScalarField.zeros(Grid(n)) for n in dims])
    assert str(exc.value) == expected.format(path=path)
    assert not path.exists()


def test_list_of_scalar_fields_on_one_grid_round_trips(tmp_path):
    g = Grid((8, 8, 16))
    comps = [_random_field(g, s) for s in range(3)]
    path = tmp_path / "list.rsff"
    rsff.write_field(path, comps, time=0.5)
    back, t = rsff.read_field(path)
    assert t == 0.5 and back.grid == g
    assert all(np.array_equal(a.values, b.values) for a, b in zip(comps, back.components))


def test_write_is_deterministic(tmp_path):
    g = Grid((8, 8, 8))
    u = VectorField(g, tuple(_random_field(g, s) for s in range(3)))
    p1, p2 = tmp_path / "a.rsff", tmp_path / "b.rsff"
    rsff.write_field(p1, u, time=2.0)
    rsff.write_field(p2, u, time=2.0)
    assert p1.read_bytes() == p2.read_bytes()


# header offsets of a 3D file: dims at 16, length at 28, time at 52, then
# values at 60 (version 1) or the three axis masks at 60 and values at 72
def _corrupted(tmp_path, offset, value, arrays=None, version=2):
    g = Grid.cube(3, 8)
    path = tmp_path / "bad.rsff"
    if arrays is None:
        arrays = [_random_field(g, s).values for s in range(3)]
    if version == 1:
        write_v1(path, arrays, g, time=0.5)
    else:
        rsff.write_field(path, VectorField.from_arrays(g, arrays), time=0.5)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, offset, value)
    path.write_bytes(bytes(raw))
    return path


def test_non_finite_value_is_named_by_file_component_and_node(tmp_path):
    node = (1, 2, 3)
    path = _corrupted(tmp_path, 60 + 8 * (8 ** 3 + np.ravel_multi_index(node, (8,) * 3)),
                      np.nan, version=1)
    with pytest.raises(ValueError) as exc:
        rsff.read_field(path)
    assert str(exc.value) == f"{path}: u2 = nan at node (1, 2, 3)"
    # version 2 with u2 stored once per column: its value at (1, 2) is
    # every node of that column, named at index 0 along x3
    g = Grid.cube(3, 8)
    u2 = np.broadcast_to(_random_field(Grid((8, 8)), 1).values[:, :, None], g.dims)
    arrays = [_random_field(g, 0).values, u2, _random_field(g, 2).values]
    path = _corrupted(tmp_path, 72 + 8 * (8 ** 3 + np.ravel_multi_index(node[:2], (8, 8))),
                      np.nan, arrays)
    with pytest.raises(ValueError) as exc:
        rsff.read_field(path)
    assert str(exc.value) == f"{path}: u2 = nan at node (1, 2, 0)"


def test_read_scans_the_values_once(tmp_path, monkeypatch):
    # the named scan replaces the ScalarField constructor's own
    g = Grid.cube(3, 8)
    u = VectorField(g, tuple(_random_field(g, s) for s in range(3)))
    path = tmp_path / "u.rsff"
    rsff.write_field(path, u)
    calls = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a: calls.append(a.shape) or isfinite(a))
    rsff.read_field(path)
    assert calls == [g.dims] * 3


def test_read_makes_no_second_copy_of_the_values(tmp_path):
    # each component is read straight into its array, not converted
    g = Grid.cube(3, 32)
    path = tmp_path / "u.rsff"
    rsff.write_field(path, VectorField(g, tuple(_random_field(g, s)
                                                for s in range(3))))
    tracemalloc.start()
    try:
        rsff.read_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file's bytes once, plus one NaN/Inf scan's mask of 1 byte a value
    assert peak < 1.5 * path.stat().st_size


def test_each_component_is_a_read_only_array_of_its_own(tmp_path):
    # one block per component, so a read can reuse the freed blocks of a
    # solver run's arrays instead of needing one block for the whole file
    g = Grid.cube(3, 8)
    path = tmp_path / "u.rsff"
    rsff.write_field(path, VectorField(g, tuple(_random_field(g, s) for s in range(3))))
    values = [c.values for c in rsff.read_field(path)[0].components]
    assert not any(v.flags.writeable for v in values)
    owners = []
    for v in values:
        while isinstance(v.base, np.ndarray):
            v = v.base
        owners.append(v if v.base is None else v.base)
    assert len(set(map(id, owners))) == 3
    assert all(isinstance(o, np.ndarray) and o.nbytes == 8 * 8 ** 3 for o in owners)


def test_file_cut_while_read_is_truncated(tmp_path, monkeypatch):
    g = Grid.cube(3, 8)
    path = tmp_path / "u.rsff"
    rsff.write_field(path, VectorField(g, tuple(_random_field(g, s) for s in range(3))))
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])  # cut after its size was taken
    monkeypatch.setattr(rsff.os, "fstat",
                        lambda fd: type("Stat", (), {"st_size": full}))
    with pytest.raises(ValueError) as exc:
        rsff.read_field(path)
    assert str(exc.value) == f"{path}: truncated while read"


def test_bad_box_length_names_the_file(tmp_path):
    path = _corrupted(tmp_path, 28 + 8, np.inf)
    with pytest.raises(ValueError, match="box lengths must be positive") as exc:
        rsff.read_field(path)
    assert str(exc.value).startswith(f"{path}: ")


@pytest.mark.parametrize("time", [np.nan, np.inf])
def test_non_finite_time_is_rejected(time, tmp_path):
    path = _corrupted(tmp_path, 52, time)
    with pytest.raises(ValueError) as exc:
        rsff.read_field(path)
    assert str(exc.value) == f"{path}: time {time} is not finite"


def test_v2_keeps_each_component_over_its_own_axes(tmp_path):
    g = Grid((16, 8, 12), (6.0, 3.0, 2.0))
    arrays = _mixed_components(g, 7)
    path = tmp_path / "mixed.rsff"
    rsff.write_field(path, VectorField.from_arrays(g, arrays), time=0.75)
    raw = path.read_bytes()
    header = 16 + 12 * 3 + 8
    assert struct.unpack_from("<I", raw, 4) == (rsff.VERSION,) == (2,)
    assert struct.unpack_from("<4I", raw, header) == (0b111, 0b011, 0b100, 0)
    assert len(raw) == header + 4 * 4 + 8 * (16 * 8 * 12 + 16 * 8 + 12 + 1)
    back, t = rsff.read_field(path)
    assert t == 0.75 and back.grid == g
    for a, b in zip(arrays, back.components):
        v = b.values
        assert v.shape == g.dims and not v.flags.writeable
        assert np.array_equal(v, a)
        assert [s == 0 for s in v.strides] == [s == 0 for s in a.strides]


def test_a_simulate_snapshot_stores_u1_and_u2_once_per_column(tmp_path):
    grid3, grid2 = Grid((128,) * 3), Grid((128, 128))
    state = FlowState(grid3, grid2, np.zeros(grid2.dims), np.ones(grid2.dims),
                      np.zeros(grid3.dims), np.ones(grid2.dims))
    path = tmp_path / "snap.rsff"
    rsff.write_field(path, VectorField.from_arrays(
        grid3, assemble_velocity_arrays(state)))
    assert path.stat().st_size == 17_039_432  # 50,331,708 in version 1


def test_v1_file_still_reads_bit_exact(tmp_path):
    g = Grid((16, 8, 12), (6.0, 3.0, 2.0))
    arrays = _mixed_components(g, 8)
    path = tmp_path / "v1.rsff"
    write_v1(path, arrays, g, time=1.5)
    assert path.stat().st_size == 60 + 4 * 8 * g.npoints
    back, t = rsff.read_field(path)
    assert t == 1.5 and back.grid == g
    for a, b in zip(arrays, back.components):
        assert np.array_equal(b.values, a)
        assert b.values.flags.c_contiguous and not b.values.flags.writeable


def test_v2_file_cut_short_is_truncated(tmp_path):
    g = Grid((16, 8, 12))
    path = tmp_path / "cut.rsff"
    rsff.write_field(path, VectorField.from_arrays(g, _mixed_components(g, 9)))
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError) as exc:
        rsff.read_field(path)
    assert str(exc.value) == f"{path}: truncated ({full - 8} bytes, expected {full})"
    path.write_bytes(path.read_bytes()[:60])  # the masks cut off
    with pytest.raises(ValueError) as exc:
        rsff.read_field(path)
    assert str(exc.value) == f"{path}: truncated header (60 bytes)"


@pytest.mark.parametrize("version, masks, message", [
    (3, (), "unsupported version 3"),
    (2, (0b111, 0b1000), "u2 has axis mask 0x8, which names an axis past d = 3")],
    ids=["version", "mask"])
def test_bad_version_or_mask_names_the_file(version, masks, message, tmp_path):
    path = tmp_path / "bad.rsff"
    path.write_bytes(rsff.MAGIC + struct.pack("<6I", version, 3, 2, 8, 8, 8)
                     + struct.pack("<4d", 1, 1, 1, 0)
                     + struct.pack(f"<{len(masks)}I", *masks) + bytes(8 * 8 ** 3 * 2))
    with pytest.raises(ValueError) as exc:
        rsff.read_field(path)
    assert str(exc.value) == f"{path}: {message}"
