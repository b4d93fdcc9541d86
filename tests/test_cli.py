"""Command-line interface tests (all in-process via main())."""
import json

import numpy as np
import pytest

from trefftz_dd import cli, experiments
from trefftz_dd.cli import main
from trefftz_dd.experiments import generate_urban_synthetic
from trefftz_dd.geometry import CoarsePartition, save_geometry


PITCH_1_24 = repr(1.0 / 24.0)


def test_lshape_command(tmp_path, capsys):
    code = main(["lshape", "--levels", "3", "--pitch", PITCH_1_24,
                 "--grade", "1", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "eoc_h1" in out and "fine FE floor" in out
    assert "fitted coarse-part h1 order (levels 0-2)" in out
    assert (tmp_path / "lshape_edge_p1.csv").exists()
    assert (tmp_path / "lshape_edge_p1_floor.csv").exists()


def test_solve_command_lshape(tmp_path, capsys):
    code = main(["solve", "--grid", "3", "3", "--pitch", PITCH_1_24,
                 "--overlap", "min", "--tol", "1e-6", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "hybrid" in out and "gmres" in out
    assert (tmp_path / "history_hybrid_N9_ovmin_p1_r0.csv").exists()
    assert (tmp_path / "history_gmres_N9_ovmin_p1_r0.csv").exists()
    assert (tmp_path / "study_summary.csv").exists()


def test_solve_command_geometry_file(tmp_path):
    domain = generate_urban_synthetic(5, extent=80.0, pitch=2.5,
                                      n_buildings=3, n_walls=1)
    geo = tmp_path / "city.json"
    save_geometry(domain, CoarsePartition(domain.outer, 2, 2), geo)
    code = main(["solve", "--geometry", str(geo), "--pitch", "2.5",
                 "--method", "gmres", "--tol", "1e-6",
                 "--reference-levels", "1", "--out", str(tmp_path / "run")])
    assert code == 0
    assert (tmp_path / "run" / "history_gmres_N4_ovh20_p1_r0.csv").exists()


def test_solve_command_urban(tmp_path):
    code = main(["solve", "--urban", "3", "--grid", "2", "2",
                 "--extent", "80", "--pitch", "2.5", "--buildings", "2",
                 "--walls", "1", "--method", "gmres", "--tol", "1e-6",
                 "--reference-levels", "0", "--out", str(tmp_path)])
    assert code == 0


def test_unplaceable_urban_geometry_exits_2(tmp_path, capsys):
    # five buildings of at least 4 x 4 pitches cannot keep their clearances
    # in a 20 m square, so the request itself is invalid
    code = main(["solve", "--urban", "1", "--extent", "20", "--pitch", "2.5",
                 "--grid", "2", "2", "--buildings", "5", "--walls", "0",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: placement failed after 100000 rejections")


def test_cell_labels_off_the_skeleton_exit_2(tmp_path, capsys, monkeypatch):
    # moving the triangle of cell 0 nearest the middle of its interface with
    # cell 1 into cell 1 makes its off-skeleton corner interior to both
    # cells: the labels disagree with the skeleton, which is invalid input,
    # not a numerical failure
    real = experiments.assign_cells

    def relabel(points, triangles, partition):
        cells = real(points, triangles, partition).copy()
        rect = partition.cell(0)
        mid = np.array([rect.x1, (rect.y0 + rect.y1) / 2])
        dist = np.linalg.norm(points[triangles].mean(axis=1) - mid, axis=1)
        cells[np.argmin(np.where(cells == 0, dist, np.inf))] = 1
        return cells

    monkeypatch.setattr(experiments, "assign_cells", relabel)
    code = main(["solve", "--grid", "3", "3", "--pitch", PITCH_1_24,
                 "--method", "gmres", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: a node is interior to two cells\n"
    assert not any(tmp_path.iterdir())


def test_solve_unconverged_is_numerical_failure(tmp_path):
    code = main(["solve", "--grid", "3", "3", "--pitch", PITCH_1_24,
                 "--method", "hybrid", "--tol", "1e-12", "--max-iters", "1",
                 "--out", str(tmp_path)])
    assert code == 3


def test_config_file_defaults_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"levels": 2, "pitch": 1.0 / 24.0, "grade": 1,
                               "out": str(tmp_path / "results")}))
    assert main(["lshape", "--config", str(cfg)]) == 0
    csv = (tmp_path / "results" / "lshape_edge_p1.csv").read_text()
    assert len(csv.splitlines()) == 3  # header + levels from the config
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"levles": 2}))
    assert main(["lshape", "--config", str(bad)]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    assert main(["lshape", "--config", str(tmp_path / "missing.json")]) == 2

    # a config value meets the argparse choices a flag meets
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"space": "trefft"}))
    out = tmp_path / "typo"
    assert main(["solve", "--grid", "3", "3", "--pitch", PITCH_1_24,
                 "--config", str(typo), "--out", str(out)]) == 2
    assert "argument --space: invalid choice: 'trefft'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config, message", [
    ("solve", {"grid": 8}, "argument --grid: expected 2 arguments"),
    ("scalability", {"seeds": "five"}, "argument --seeds: invalid int value: 'five'"),
    ("solve", {"p": 3}, "argument --p: invalid choice: 3"),
    ("solve", {"pitch": [0.5, 0.25]}, "unrecognized arguments: 0.25"),
    ("lshape", [["levels", 2]], "error: config must hold a JSON object"),
], ids=["grid-scalar", "seeds-text", "p-choice", "pitch-list", "top-level-list"])
def test_config_values_are_checked_like_flags(tmp_path, capsys, command, config, message):
    # a value of the wrong type, count or choice is invalid input: main
    # returns 2, with argparse's report of the value, and writes nothing
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_scalar_for_a_list_option(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_scalability", lambda args: seen.append(args) or 0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": 5, "pitch": 1.25}))
    assert main(["scalability", "--config", str(cfg)]) == 0
    assert (seen[0].seeds, seen[0].pitch) == ([5], 1.25)
    # explicit flags still win
    assert main(["scalability", "--config", str(cfg), "--seeds", "2", "3"]) == 0
    assert (seen[1].seeds, seen[1].pitch) == ([2, 3], 1.25)


@pytest.mark.parametrize("argv, config, message", [
    (["solve", "--geometry", "city.json"], {"urban": 3},
     "argument --geometry: not allowed with argument --urban"),
    (["lshape"], {"out": None}, "error: config keys set to null: out"),
], ids=["urban-with-geometry", "null-out"])
def test_config_entries_meet_the_explicit_flags(tmp_path, capsys, monkeypatch,
                                                argv, config, message):
    # a config entry is parsed with the explicit flags, so it meets the
    # mutually exclusive group, and a null is no value, not the text "None"
    ran = []
    for name in ("cmd_lshape", "cmd_solve"):
        monkeypatch.setattr(cli, name, lambda args: ran.append(args) or 0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert ran == []


OUTER = [[0.0, 0.0], [80.0, 0.0], [80.0, 80.0], [0.0, 80.0]]


@pytest.mark.parametrize("data, message", [
    ({"outer": OUTER}, "missing or malformed 'grid' field"),
    ({"outer": 5, "grid": [2, 2]}, "missing or malformed 'outer' field"),
    ({"outer": OUTER, "grid": [3]}, "missing or malformed 'grid' field"),
    ([OUTER, [2, 2]], "holds a JSON list, not an object"),
], ids=["no-grid", "outer-number", "grid-one-count", "top-level-list"])
def test_malformed_geometry_file_exits_2(tmp_path, capsys, data, message):
    geo = tmp_path / "geo.json"
    geo.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["solve", "--geometry", str(geo), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: geometry file %s" % geo) and message in err
    assert not out.exists()


def test_validation_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["lshape", "--strategy", "diagonal"])
    assert err.value.code == 2
    # a pitch that does not divide the domain is a validation failure
    assert main(["solve", "--grid", "3", "3", "--pitch", "0.3",
                 "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


def test_scalability_command(tmp_path, capsys):
    code = main(["scalability", "--seeds", "2", "3", "--n-values", "4",
                 "--extent", "80", "--pitch", "2.5", "--buildings", "2",
                 "--walls", "1", "--tol", "1e-6", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "seed 2" in out and "seed 3" in out
    assert (tmp_path / "seed2" / "scalability.csv").exists()
    assert (tmp_path / "seed3" / "scalability.csv").exists()


def test_scalability_partition_off_the_pitch_grid_exits_2(tmp_path, capsys):
    code = main(["scalability", "--seeds", "2", "--n-values", "4", "9",
                 "--extent", "80", "--pitch", "2.5", "--buildings", "2",
                 "--walls", "1", "--tol", "1e-6", "--out", str(tmp_path)])
    assert code == 2
    assert "divides the 32 pitches per side" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, config", [
    (["lshape", "--strategy", "mesh", "--levels", "0"], None),
    (["lshape", "--strategy", "edge", "--levels", "0"], None),
    (["lshape"], {"levels": 0}),
    (["lshape", "--strategy", "mesh", "--divisions", "0"], None),
    (["lshape", "--pitch", "0"], None),
    (["solve", "--pitch", "0"], None),
    (["scalability", "--pitch", "0"], None),
], ids=["mesh-levels", "edge-levels", "config-levels", "mesh-divisions",
        "lshape-pitch", "solve-pitch", "scalability-pitch"])
def test_invalid_counts_and_pitches_exit_2(tmp_path, capsys, argv, config):
    # caught before any work, as invalid input: no traceback, no
    # "numerical failure", no output files
    out = tmp_path / "out"
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
