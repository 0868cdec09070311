"""CLI subcommands, exercised through main() with in-process argv."""

import json
import struct

import numpy as np
import pytest

from rsflow import rsff
from rsflow.cli import banded_rgb, main
from rsflow.fields import Grid, VectorField


def test_plan_text_output(capsys):
    assert main(["plan", "--d", "7"]) == 0
    out = capsys.readouterr().out
    assert "d=7 M=4" in out and "(u7)" in out


def test_plan_json_output(capsys):
    assert main(["plan", "--d", "6", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["M"] == 3 and data["padded"] is False


def test_plan_rejects_low_dimension(capsys):
    assert main(["plan", "--d", "2"]) == 2
    assert "d >= 3" in capsys.readouterr().err


def test_verify_identities(capsys):
    rc = main(["verify-identities", "--d", "3", "--seeds", "2",
               "--inject-violation"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 6  # five identities + negative control
    assert "lemma1_negative_control" in out


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_verify_identities_rejects_no_seeds(seeds, capsys):
    assert main(["verify-identities", "--d", "3", "--seeds", seeds]) == 2
    cap = capsys.readouterr()
    assert "[PASS]" not in cap.out
    assert cap.err == f"error: identity suite needs seeds >= 1, got {seeds}\n"


def test_verify_identities_rejects_d_without_values(capsys):
    # an empty --d is an argparse error, not the default battery
    with pytest.raises(SystemExit) as exc:
        main(["verify-identities", "--d", "--seeds", "1"])
    assert exc.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "--d: expected at least one argument" in cap.err


def test_verify_identities_rejects_dimension_before_any_work(capsys):
    assert main(["verify-identities", "--d", "3", "13", "--seeds", "1"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: identity suite needs 3 <= d <= 12, got d = 13\n"


@pytest.mark.parametrize("d", ["0", "-1"])
def test_canonical_rejects_non_positive_dimension(d, capsys):
    assert main(["canonical", "--d", d]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == f"error: --d must be >= 1, got {d}\n"


def test_canonical_random_demo(capsys):
    assert main(["canonical", "--d", "5", "--seed", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    q = np.asarray(data["Q"]).reshape(5, 5)
    np.testing.assert_allclose(q.T @ q, np.eye(5), atol=1e-12)
    assert len(data["rates"]) == 2


def test_canonical_from_matrix_file(tmp_path, capsys):
    # a 5x5 matrix with the near-repeated rates 1 + 1e-6 and 1, rotated
    rng = np.random.default_rng(0)
    b = np.zeros((5, 5))
    b[[1, 3], [0, 2]] = 1.0 + 1e-6, 1.0
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    near = q @ (b - b.T) @ q.T
    path = tmp_path / "a.json"
    for matrix, rates in [([[0.0, -2.0], [2.0, 0.0]], [2.0]),
                          ((0.5 * (near - near.T)).tolist(), [1.0 + 1e-6, 1.0])]:
        path.write_text(json.dumps(matrix))
        assert main(["canonical", "--matrix", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rates"] == pytest.approx(rates, rel=0, abs=1e-12)


@pytest.mark.parametrize("text, expected", [
    ("5", "square 2-D"), ("[[0, NaN], [NaN, 0]]", "matrix = nan at node (0, 1)"),
    ('{"a": 1}', "m.json: not a matrix of numbers"),
    ("[[{}]]", "m.json: not a matrix of numbers")])
def test_canonical_rejects_bad_matrix_file(text, expected, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(text)
    assert main(["canonical", "--matrix", str(path)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: ") and cap.err.count("\n") == 1
    assert expected in cap.err


_SLICE = ["slice-image", "--snapshot", "none.rsff", "--component", "u3",
          "--axis3", "0", "--out", "none.ppm", "--levels"]


@pytest.mark.parametrize("argv, option", [
    (["check-rsf", "--field", "none.rsff", "--threshold", "nan"], "--threshold"),
    (["check-rsf", "--field", "none.rsff", "--threshold=-1e-12"], "--threshold"),
    (["verify-frozen", "--snapshots", "none", "--threshold", "inf"], "--threshold"),
    (["verify-frozen", "--min-order", "nan"], "--min-order"),
    (["verify-frozen", "--min-order", "-1"], "--min-order"),
    (["verify-identities", "--d", "3", "--tol", "nan"], "--tol"),
    (["verify-identities", "--d", "3", "--tol=-inf"], "--tol"),
    (_SLICE + ["1,0"], "--levels"),
    (_SLICE + ["0,0"], "--levels"),
    (_SLICE + ["nan,1"], "--levels"),
    (_SLICE + ["0,inf"], "--levels"),
    (_SLICE + ["0,x"], "--levels")])
def test_bad_thresholds_and_levels_are_rejected_before_any_work(argv, option,
                                                                capsys):
    assert main(argv) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith(f"error: {option} must be ") and cap.err.count("\n") == 1


@pytest.fixture(scope="module")
def sim_outdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    cfg = out / "run.cfg"
    cfg.write_text("mode=constrained\ndims=16,16,8\nt_end=0.05\n"
                   "amplitude=0.05\nsnapshot_stride=2\nseed=3\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    return out


def test_simulate_writes_snapshots_and_diagnostics(sim_outdir, capsys):
    snaps = sorted(sim_outdir.glob("snap_*.rsff"))
    assert len(snaps) >= 2
    header = (sim_outdir / "diagnostics.csv").read_text().splitlines()[0]
    assert header.startswith("time,energy,mass")


def test_check_rsf_on_simulated_snapshot(sim_outdir, capsys):
    snap = sorted(sim_outdir.glob("snap_*.rsff"))[-1]
    assert main(["check-rsf", "--field", str(snap)]) == 0
    assert "rsf_violation=" in capsys.readouterr().out


def test_check_rsf_fails_a_nan_deviation(tmp_path, capsys):
    # finite values whose x3 differences overflow, so the stencil meets
    # inf - inf: a NaN deviation must fail, not read as zero
    a = 1.5e308
    g = Grid.cube(3, 16)
    u1 = np.broadcast_to(np.tile([-a, -a, -a, a, a, a, a, -a], 2), g.dims)
    path = tmp_path / "overflow.rsff"
    rsff.write_field(path, VectorField.from_arrays(
        g, [u1, np.zeros(g.dims), np.zeros(g.dims)]))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["check-rsf", "--field", str(path)]) == 1
    assert capsys.readouterr().out == "rsf_violation=nan\n"


def _file_of_components(tmp_path, ncomp, version):
    """A 3D RSFF file on 8^3 with ``ncomp`` zero components, written
    byte by byte (the writer refuses to make a header-only file); in
    version 2 each component varies along all three axes."""
    path = tmp_path / f"ncomp{ncomp}.rsff"
    masks = struct.pack(f"<{ncomp}I", *[0b111] * ncomp) if version == 2 else b""
    path.write_bytes(rsff.MAGIC + struct.pack("<6I", version, 3, ncomp, 8, 8, 8)
                     + struct.pack("<4d", 1, 1, 1, 0) + masks
                     + bytes(8 * 8 ** 3 * ncomp))
    return path


@pytest.mark.parametrize("ncomp, version, message", [
    (0, 2, "no components"),
    (1, 1, "needs 3 components on its 3D grid, got 1"),
    (1, 2, "needs 3 components on its 3D grid, got 1")],
    ids=["header only", "one", "one-v2"])
def test_check_rsf_names_the_file_with_a_bad_component_count(ncomp, version, message,
                                                             tmp_path, capsys):
    path = _file_of_components(tmp_path, ncomp, version)
    assert main(["check-rsf", "--field", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("ncomp, version, message", [
    (0, 2, "no components"),
    (2, 1, "no component u3, got 2 components"),
    (2, 2, "no component u3, got 2 components")], ids=["header only", "two", "two-v2"])
def test_slice_image_names_the_file_with_a_bad_component_count(ncomp, version, message,
                                                               tmp_path, capsys):
    path = _file_of_components(tmp_path, ncomp, version)
    rc = main(["slice-image", "--snapshot", str(path), "--component", "u3",
               "--axis3", "0", "--out", str(tmp_path / "u3.ppm")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "u3.ppm").exists()


def test_slice_image_from_snapshot(sim_outdir, tmp_path):
    snap = sorted(sim_outdir.glob("snap_*.rsff"))[0]
    out = tmp_path / "u3.ppm"
    assert main(["slice-image", "--snapshot", str(snap), "--component", "u3",
                 "--axis3", "0", "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert raw.startswith(b"P6\n16 16\n255\n")
    assert len(raw) == len(b"P6\n16 16\n255\n") + 16 * 16 * 3


def test_slice_image_rejects_bad_slice_index(sim_outdir, tmp_path, capsys):
    snap = sorted(sim_outdir.glob("snap_*.rsff"))[0]
    rc = main(["slice-image", "--snapshot", str(snap), "--component", "u1",
               "--axis3", "99", "--out", str(tmp_path / "x.ppm")])
    assert rc == 2
    assert "out of range" in capsys.readouterr().err


def test_slice_image_rejects_rho(sim_outdir, tmp_path, capsys):
    # snapshots hold only the velocity components
    snap = sorted(sim_outdir.glob("snap_*.rsff"))[0]
    with pytest.raises(SystemExit) as exc:
        main(["slice-image", "--snapshot", str(snap), "--component", "rho",
              "--axis3", "0", "--out", str(tmp_path / "rho.ppm")])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_banded_rgb_constant_field_is_single_color():
    rgb = banded_rgb(np.zeros((8, 8)))
    assert rgb.shape == (8, 8, 3)
    assert len(np.unique(rgb.reshape(-1, 3), axis=0)) == 1


def test_banded_rgb_uses_few_levels():
    vals = np.linspace(-1, 1, 100).reshape(10, 10)
    rgb = banded_rgb(vals)
    assert 2 <= len(np.unique(rgb.reshape(-1, 3), axis=0)) <= 5


def test_verify_frozen_from_snapshots(tmp_path, capsys):
    cfg = tmp_path / "kin.cfg"
    cfg.write_text("mode=kinematic_tg\ndims=32,32,32\nt_end=0.25\n"
                   "amplitude=0.1\nkmax=1\nsnapshot_stride=1\n")
    out = tmp_path / "snaps"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["verify-frozen", "--snapshots", str(out),
               "--threshold", "1e-2"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["errors"]["omega_h"]["l2_normalized"] <= 1e-2
    assert report["flowmap"]["particles"] == 32 ** 3
    assert 0 < report["flowmap"]["det_min"] <= report["flowmap"]["det_max"]


def test_verify_frozen_particle_stride_divides_every_axis(tmp_path, capsys):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text("mode=kinematic_tg\ndims=64,64,8\nt_end=0.25\n"
                   "amplitude=0.1\nkmax=1\nsnapshot_stride=1\n")
    out = tmp_path / "snaps"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["verify-frozen", "--snapshots", str(out),
               "--threshold", "1e-2"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["flowmap"]["particles"] == 64 * 64 * 8


@pytest.mark.parametrize("command", ["check-rsf", "slice-image"])
@pytest.mark.parametrize("kind", ["2d", "not_rsff", "truncated", "missing"])
def test_bad_field_file_is_a_one_line_error(command, kind, tmp_path, capsys):
    path = tmp_path / "field.rsff"
    if kind == "2d":
        g = Grid((8, 8))
        rsff.write_field(path, VectorField.from_arrays(g, [np.zeros(g.dims)] * 3))
    elif kind == "not_rsff":
        path.write_text("time,energy\n0,1\n")
    elif kind == "truncated":
        path.write_bytes(b"RSFF\x01\x00")
    if command == "check-rsf":
        argv = ["check-rsf", "--field", str(path)]
    else:
        argv = ["slice-image", "--snapshot", str(path), "--component", "u1",
                "--axis3", "0", "--out", str(tmp_path / "x.ppm")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    expected = {"2d": "d >= 3" if command == "check-rsf" else "3D field",
                "not_rsff": "not an RSFF file", "truncated": "truncated header",
                "missing": "No such file"}[kind]
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err


def test_verify_frozen_without_snapshots_is_a_one_line_error(tmp_path, capsys):
    assert main(["verify-frozen", "--snapshots", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: no snap_*.rsff files in {tmp_path}\n"


@pytest.mark.parametrize("kind", ["3d_two_components", "2d_three_components",
                                  "mixed_grids", "three_snapshots", "u1_sin_x3"])
def test_verify_frozen_rejects_bad_snapshot_sets(kind, tmp_path, capsys):
    grids = {"3d_two_components": [Grid.cube(3, 8)] * 3,
             "2d_three_components": [Grid((8, 8))] * 3,
             "mixed_grids": [Grid.cube(3, 8)] * 2 + [Grid.cube(3, 16)],
             "three_snapshots": [Grid.cube(3, 8)] * 3,
             "u1_sin_x3": [Grid.cube(3, 8)] * 4}[kind]
    ncomp = 2 if kind == "3d_two_components" else 3
    for i, g in enumerate(grids):  # unsteady: the values change per snapshot
        comps = [np.full(g.dims, 0.1 * i)] * ncomp
        if kind == "u1_sin_x3":  # not an RSF flow: du1/dx3 != 0
            comps[0] = np.sin(g.points()[..., 2])
        rsff.write_field(tmp_path / f"snap_{i:04d}.rsff",
                         VectorField.from_arrays(g, comps), 0.1 * i)
    assert main(["verify-frozen", "--snapshots", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    expected = {"mixed_grids": "snap_0002.rsff",
                "three_snapshots": "needs at least 4 snapshots, got 3",
                "u1_sin_x3": "snap_0000.rsff: u1 varies along x3"
                }.get(kind, "snap_0000.rsff")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err


def test_verify_frozen_rejects_resolution_below_min_dim(capsys):
    # rejected before any run, not a ZeroDivisionError from the nesting check
    assert main(["verify-frozen", "--resolutions", "0", "32", "64"]) == 2
    assert capsys.readouterr().err == "error: resolutions must be at least 8, got 0\n"


@pytest.mark.parametrize("resolutions, message", [
    # rejected before any run, not a fit over two distinct sizes
    ("32 32 64", "resolutions must be distinct, got 32 twice"),
    # N = 8 gives 3 snapshots, too few for the history; the error names N
    ("8 16 32", "resolution 8: cubic time interpolation needs at least 4 "
                "snapshots, got 3"),
], ids=["repeated", "too_few_snapshots"])
def test_verify_frozen_rejects_bad_resolution_sets(resolutions, message, capsys):
    assert main(["verify-frozen", "--resolutions", *resolutions.split()]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_rejects_bad_config_values(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for text, message in [
            ("mode=constrained\ndims=16,16,8\nt_end=-1\n",
             "t_end must be positive, got -1.0"),
            ("mode=constrained\nseed=1.5\n",
             "config line 2: seed: invalid literal for int() with base 10: "
             "'1.5'"),
            ("dims=64,x,64\n",
             "config line 1: dims: invalid literal for int() with base 10: "
             "'x'"),
            ("c=abc\n",
             "config line 1: c: could not convert string to float: 'abc'"),
            ("seed=1\nt_end=0.1\nseed=2\n",
             "config line 3: key 'seed' already set on line 1"),
            # the solver is inviscid
            ("mode=constrained\nnu=0.01\n",
             "config line 2: unknown key 'nu'"),
            # modes k and k - 16 alias on 16 nodes
            ("dims=16\nkmax=12\n",
             "2 * kmax must be < min(dims) = 16, got kmax = 12")]:
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def _write_v1(path, arrays, grid, time):
    """An RSFF version 1 file: no axis masks, every component over every
    axis."""
    with open(path, "wb") as fh:
        fh.write(rsff.MAGIC + struct.pack("<6I4d", 1, 3, len(arrays), *grid.dims,
                                          *grid.length, time))
        for a in arrays:
            np.ascontiguousarray(a, dtype="<f8").tofile(fh)


# header offsets of a 3D RSFF file: length at 28, time at 52, then values
# at 60 (version 1) or the three axis masks at 60 and values at 72
@pytest.mark.parametrize("offset, value, message, version", [
    (60, np.nan, "u1 = nan at node (0, 0, 0)", 1),
    (52, np.nan, "time nan is not finite", 2),
    (36, np.inf, "box lengths must be positive and finite", 2),
    (72, np.nan, "u1 = nan at node (0, 0, 0)", 2),
], ids=["nan_value", "nan_time", "inf_length", "nan_value-v2"])
def test_corrupt_snapshot_is_named_by_check_rsf_and_verify_frozen(
        offset, value, message, version, tmp_path, capsys):
    g = Grid.cube(3, 8)
    for i in range(4):
        path, arrays = tmp_path / f"snap_{i:04d}.rsff", [np.full(g.dims, 0.1 * i)] * 3
        if version == 1:
            _write_v1(path, arrays, g, 0.1 * i)
        else:
            rsff.write_field(path, VectorField.from_arrays(g, arrays), 0.1 * i)
    bad = tmp_path / "snap_0002.rsff"
    raw = bytearray(bad.read_bytes())
    struct.pack_into("<d", raw, offset, value)
    bad.write_bytes(bytes(raw))
    for argv in (["check-rsf", "--field", str(bad)],
                 ["verify-frozen", "--snapshots", str(tmp_path)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}") and err.count("\n") == 1
