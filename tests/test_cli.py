"""Command-line interface tests (all in-process via main())."""
import json

import pytest

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

    # a config value bypasses argparse choices, so the driver rejects it
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"space": "trefft"}))
    out = tmp_path / "typo"
    assert main(["solve", "--grid", "3", "3", "--pitch", PITCH_1_24,
                 "--config", str(typo), "--out", str(out)]) == 2
    assert "unknown coarse space" in capsys.readouterr().err
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
