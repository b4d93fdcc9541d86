"""Diff arithmetic of the output comparison script `tools/compare_outputs.py`
and the coarse-space hashes of `tools/coarse_hashes.py`.

Oracle: relative changes, row and column verdicts, masked verdict lines and
sha256 inputs worked out by hand."""
import hashlib
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))

from coarse_hashes import digest  # noqa: E402
from compare_outputs import (THREADS, all_identical, child_env, compare_csv,  # noqa: E402
                             compare_dirs, rel_change, verdicts)


def test_rel_change_is_scaled_by_the_larger_magnitude():
    assert rel_change(0.5, 0.25) == 0.5
    assert rel_change(-2.0, -1.0) == 0.5
    assert rel_change(0.0, 3.0) == 1.0
    assert rel_change(0.0, 0.0) == 0.0


def test_history_columns_take_their_largest_change():
    parent = "iter,res_norm,alg_err_L2\n0,1,0.5\n1,0.25,-2\n2,0.125,4e-9\n"
    change = "iter,res_norm,alg_err_L2\n0,1,0.5\n1,0.5,-1\n2,0.125,5e-9\n"
    # res_norm: |0.5 - 0.25| / 0.5 in row 1; alg_err_L2: 1/2 in row 1 beats
    # 1e-9 / 5e-9 = 0.2 in row 2; iter unchanged; no iters/converged columns
    assert compare_csv(parent, change) == {
        "columns_equal": True, "rows_equal": True,
        "max_rel_change": {"iter": 0.0, "res_norm": 0.5, "alg_err_L2": 0.5},
        "text_changed": []}


def test_iteration_counts_flags_and_text_cells():
    parent = "N,iters,converged,error\n4,10,True,\n16,12,True,\n"
    change = "N,iters,converged,error\n4,10,True,\n16,13,False,x\n"
    assert compare_csv(parent, change) == {
        "columns_equal": True, "rows_equal": True,
        "iters_equal": False, "converged_equal": False,
        # iters 12 -> 13 is 1/13; True/False and '' -> 'x' are not numbers
        "max_rel_change": {"N": 0.0, "iters": 1 / 13},
        "text_changed": ["converged", "error"]}
    # a nan cell equal on both sides is no change; nan against a number is text
    assert compare_csv("a,b\nnan,1\n", "a,b\nnan,2\n")["max_rel_change"] == {
        "a": 0.0, "b": 0.5}
    assert compare_csv("a\nnan\n", "a\n0.1\n")["text_changed"] == ["a"]


def test_row_counts_and_headers():
    parent = "N,iters\n4,10\n"
    change = "N,iters\n4,10\n16,12\n"
    out = compare_csv(parent, change)
    # the common row is unchanged, but one more row means unequal counts
    assert (out["rows_equal"], out["iters_equal"]) == (False, False)
    assert out["max_rel_change"] == {"N": 0.0, "iters": 0.0}
    assert compare_csv("N,iters\n4,10\n", "N,iter\n4,10\n") == {"columns_equal": False}


def test_compare_dirs(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    for side, value in ((parent, "0.5"), (change, "0.25")):
        (side / "run").mkdir(parents=True)
        (side / "run" / "same.csv").write_text("x\n1\n")
        (side / "run" / "moved.csv").write_text("x\n%s\n" % value)
    (change / "run" / "new.txt").write_text("")
    table = compare_dirs(str(parent), str(change))
    assert table == {
        os.path.join("run", "moved.csv"): {
            "status": "changed", "columns_equal": True, "rows_equal": True,
            "max_rel_change": {"x": 0.5}, "text_changed": []},
        os.path.join("run", "new.txt"): {"status": "only in change"},
        os.path.join("run", "same.csv"): {"status": "byte-identical"}}


def test_verdict_lines_mask_runtimes():
    log = ("tests/test_acceptance.py [criterion 04] PASS — sum 1e-16\n"
           ".[criterion 05] PASS — slope 2.56; runtime 12.3s < 300s\n"
           "..\n3 passed in 40.1s\n")
    assert verdicts(log) == ["[criterion 04] PASS — sum 1e-16",
                             "[criterion 05] PASS — slope 2.56; runtime *s < 300s"]


def test_child_runs_use_their_tree_and_one_thread(monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "8")
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    env = child_env(os.path.join("trees", "abc"))
    assert env["PYTHONPATH"] == os.path.join("trees", "abc", "src")
    assert {var: env[var] for var in THREADS} == {
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    assert env["PATH"] == os.environ["PATH"]   # the rest is inherited


def test_all_identical_needs_equal_exit_statuses():
    same = {"parent": 0, "change": 0}
    doc = {"runs": {"solve": {"exit": dict(same)}},
           "acceptance": {"exit": dict(same), "verdicts_equal": True},
           "coarse_hashes": {"exit": dict(same), "equal": True},
           "files": {"solve/history.csv": {"status": "byte-identical"}}}
    assert all_identical(doc)
    # the same bytes and verdicts, but a run that failed on one side only
    doc["runs"]["solve"]["exit"]["change"] = 3
    assert not all_identical(doc)
    doc["runs"]["solve"]["exit"]["change"] = 0
    doc["acceptance"]["exit"]["parent"] = 1
    assert not all_identical(doc)
    doc["acceptance"]["exit"]["parent"] = 0
    # equal files and verdicts, but coarse spaces that hash differently
    doc["coarse_hashes"]["equal"] = False
    assert not all_identical(doc)
    doc["coarse_hashes"]["equal"] = True
    doc["coarse_hashes"]["exit"]["change"] = 1
    assert not all_identical(doc)


def test_digest_hashes_the_bytes_in_order():
    indptr = np.array([0, 1, 2], dtype=np.int32)
    data = np.array([0.5, -2.0])
    want = hashlib.sha256(b"\x00\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00"
                          + b"\x00\x00\x00\x00\x00\x00\xe0\x3f"     # 0.5
                          + b"\x00\x00\x00\x00\x00\x00\x00\xc0"     # -2.0
                          + b"[('node', 0)]").hexdigest()
    assert digest(indptr, data, "[('node', 0)]") == want
    # the parts are hashed one after the other, with no separator
    assert digest(indptr[:2], np.concatenate([indptr[2:], [0]]).astype(np.int32)) == \
        digest(np.array([0, 1, 2, 0], dtype=np.int32))
    # a strided view hashes as its values, and the dtype's width counts
    assert digest(np.arange(6.0)[::2]) == digest(np.array([0.0, 2.0, 4.0]))
    assert digest(indptr) != digest(indptr.astype(np.int64))
