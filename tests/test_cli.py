"""Command-line frontend: CSV loading, JSON rendering, subcommands, exit codes."""

import dataclasses
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from monotest import DataError, Sample, run_report, BootConfig, build_basic_set, estimate_sigma
from monotest import build_custom_set
from monotest import SIGMA_METHODS
from monotest import cli, statistic
from monotest.cli import (
    build_parser,
    load_columns,
    main,
    report_to_json,
)
from monotest.cli import MODEL_FLAGS, SIGMA_FLAGS
from monotest.scales import KERNELS
from monotest.sigma import SIGMA_ESTIMATORS
from monotest.cli import _json_value, _prepare_case, _render_json, _z_grid
import oracles


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _write_rows(path, header, rows):
    lines = [",".join(header)] + [
        ",".join(f"{float(v)!r}" for v in row) for row in rows
    ]
    return _write(path, "\n".join(lines) + "\n")


def _dataset(n=60, seed=7, slope=0.5, noise=0.2):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(-1.0, 1.0, size=n))
    y = slope * x + noise * rng.standard_normal(n)
    return x, y


def _data_csv(tmp_path, n=60, seed=7, name="d.csv"):
    x, y = _dataset(n=n, seed=seed)
    return _write_rows(tmp_path / name, ["x", "y"], list(zip(x, y)))


# -------------------------------------------------------------- CSV loading


def test_load_columns_happy_path(tmp_path):
    path = _write(tmp_path / "a.csv", " x , y ,junk\n1.0,2.0,hello\n3.5,-4.0,\n")
    cols = load_columns(path, ["x", "y"])
    np.testing.assert_array_equal(cols["x"], [1.0, 3.5])
    np.testing.assert_array_equal(cols["y"], [2.0, -4.0])
    assert cols["x"].dtype == np.float64


def test_load_columns_reads_a_repeated_name_once(tmp_path):
    path = _write(tmp_path / "a.csv", "x,y\n1,2\n3,4\n5,6\n7,8\n")
    cols = load_columns(path, ["y", "y"])
    assert list(cols) == ["y"]
    np.testing.assert_array_equal(cols["y"], [2.0, 4.0, 6.0, 8.0])


def test_load_columns_reads_a_utf8_byte_order_mark(tmp_path):
    # spreadsheet "CSV UTF-8" exports start the header with U+FEFF
    path = _write(tmp_path / "a.csv", "\ufeffx,y\n1,2\n3,4\n")
    cols = load_columns(path, ["x", "y"])
    np.testing.assert_array_equal(cols["x"], [1.0, 3.0])
    np.testing.assert_array_equal(cols["y"], [2.0, 4.0])


def test_load_columns_skips_blank_rows(tmp_path):
    path = _write(tmp_path / "a.csv", "x,y\n1,2\n\n , \n3,4\n")
    cols = load_columns(path, ["x", "y"])
    np.testing.assert_array_equal(cols["x"], [1.0, 3.0])


def test_load_columns_skips_only_rows_blank_in_every_cell(tmp_path):
    # a row with a cell left in an unrequested column is read, not skipped
    path = _write(tmp_path / "a.csv", "x,y,note\n1,2,a\n,,b\n3,4,c\n")
    with pytest.raises(DataError, match=r"blank cell at row 3, column 'x'"):
        load_columns(path, ["x", "y"])


def test_load_columns_empty_file(tmp_path):
    path = _write(tmp_path / "a.csv", "")
    with pytest.raises(DataError, match="empty file"):
        load_columns(path, ["x", "y"])


def test_load_columns_missing_column(tmp_path):
    path = _write(tmp_path / "a.csv", "x,z\n1,2\n3,4\n")
    with pytest.raises(DataError, match=r"missing column 'y'"):
        load_columns(path, ["x", "y"])


def test_load_columns_rejects_a_requested_column_named_twice(tmp_path):
    # names count after strip(); a repeated column nobody asks for is allowed
    path = _write(tmp_path / "a.csv", "x, x ,y,w,w\n0,5,1,2,3\n1,6,2,3,4\n")
    with pytest.raises(DataError, match=r"column 'x' appears more than once .*positions 1, 2"):
        load_columns(path, ["x", "y"])
    cols = load_columns(path, ["y"])
    np.testing.assert_array_equal(cols["y"], [1.0, 2.0])


def test_load_columns_blank_cell_names_row_and_column(tmp_path):
    # header is row 1, so the bad second data row is row 3
    path = _write(tmp_path / "a.csv", "x,y\n1,2\n3,\n5,6\n")
    with pytest.raises(DataError, match=r"blank cell at row 3, column 'y'"):
        load_columns(path, ["x", "y"])


def test_load_columns_short_row_counts_as_blank(tmp_path):
    path = _write(tmp_path / "a.csv", "x,y,w\n1,2,3\n4,5\n")
    with pytest.raises(DataError, match=r"blank cell at row 3, column 'w'"):
        load_columns(path, ["x", "y", "w"])


def test_load_columns_non_numeric(tmp_path):
    path = _write(tmp_path / "a.csv", "x,y\n1,2\nfoo,4\n")
    with pytest.raises(DataError, match=r"non-numeric cell 'foo' at row 3, column 'x'"):
        load_columns(path, ["x", "y"])


def test_load_columns_non_finite(tmp_path):
    path = _write(tmp_path / "a.csv", "x,y\n1,nan\n3,4\n")
    with pytest.raises(DataError, match=r"non-finite value 'nan' at row 2, column 'y'"):
        load_columns(path, ["x", "y"])
    path = _write(tmp_path / "b.csv", "x,y\n1,2\n3,inf\n")
    with pytest.raises(DataError, match="non-finite"):
        load_columns(path, ["x", "y"])


def test_load_columns_needs_two_rows(tmp_path):
    path = _write(tmp_path / "a.csv", "x,y\n1,2\n")
    with pytest.raises(DataError, match="at least two data rows, found 1"):
        load_columns(path, ["x", "y"])


def test_load_columns_keeps_finite_cells_whose_sum_overflows(tmp_path):
    path = _write(tmp_path / "a.csv", "x,y\n1e308,1e308\n-1e308,-1.5e308\n")
    cols = load_columns(path, ["x", "y"])
    np.testing.assert_array_equal(cols["y"], [1e308, -1.5e308])


@pytest.mark.parametrize("rows, error", [
    ("1,2\n3,4\n5,6\n", None),
    ("1,2\n,,,\n3,4\n5,6\n", None),  # a row of blank cells mid-file
    ("1,2\n,,,\n3,foo\n5,6\n", "non-numeric cell 'foo' at row 4"),
])
def test_load_columns_opens_its_file_once(tmp_path, rows, error):
    path = _write(tmp_path / "a.csv", "x,y\n" + rows)
    with mock.patch("builtins.open", wraps=open) as opened:
        if error is None:
            assert load_columns(path, ["x", "y"])["x"].size == 3
        else:
            with pytest.raises(DataError, match=error):
                load_columns(path, ["x", "y"])
    assert opened.call_count == 1


_GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(
        [" 1.5 ", "\t7", "1_000", "1e-400", "-0", "+.5", "5.", "\u00a02\u00a0", "\u0661\u0662"]
    ),
)
_BAD_CELLS = st.sampled_from(
    ["", " ", "\ufeff1", "1__0", "_1", "1_", "0x10", "0x1p3", "nan", "-inf", "inf", "Infinity",
     "1e500", "-1e500", "1e", "abc"]
)


def _load_outcome(load, path, names):
    """A loader's columns as bytes, or its DataError message."""
    try:
        return [col.tobytes() for col in load(path, names).values()]
    except DataError as exc:
        return str(exc)


@st.composite
def _csv_rows(draw):
    # clean rows are empty lines or three numeric, finite cells; the others
    # 0 to 4 cells of any kind: blank, short and long rows, and cells that
    # float() rejects or reads as non-finite
    if draw(st.booleans()):
        row = st.one_of(st.just([]), st.lists(_GOOD_CELLS, min_size=3, max_size=3))
        return True, draw(st.lists(row, max_size=8))
    cells = st.one_of(_GOOD_CELLS, _BAD_CELLS)
    return False, draw(st.lists(st.lists(cells, max_size=4), max_size=8))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_rows(), st.sampled_from([["x"], ["x", "y"], ["y", "w", "x"]]), st.booleans())
def test_load_columns_gives_the_bits_and_messages_of_the_cell_loop(tmp_path, config, names, bom):
    # load_columns reads the file once and gives the cell loop's columns, bit
    # for bit, or the loop's DataError; a clean file names no bad cell
    clean, rows = config
    text = ("\ufeff" if bom else "") + "x,y,w\n" + "".join(",".join(r) + "\n" for r in rows)
    path = _write(tmp_path / "cells.csv", text)
    with mock.patch("builtins.open", wraps=open) as opened:
        got = _load_outcome(load_columns, path, names)
    assert opened.call_count == 1
    assert got == _load_outcome(oracles.load_columns, path, names)
    assert not clean or isinstance(got, list) or "at least two data rows" in got


def test_load_columns_and_prepare_case_keep_row_and_z_order(tmp_path):
    path = _write(tmp_path / "a.csv", "y,x,z2,z1\n0.5,2,30,10\n0.25,1,40,20\n")
    cols = load_columns(path, ["x", "z1", "z2"])
    np.testing.assert_array_equal(cols["x"], [2.0, 1.0])  # row order preserved
    np.testing.assert_array_equal(cols["z1"], [10.0, 20.0])
    assert list(cols) == ["x", "z1", "z2"]
    argv = ["test", path, "--model", "nonparametric-z", "--z-cols", "z1,z2"]
    args = build_parser().parse_args(argv)
    s = _prepare_case(args)[0]
    np.testing.assert_array_equal(s.x, [2.0, 1.0])
    np.testing.assert_array_equal(s.y, [0.5, 0.25])
    np.testing.assert_array_equal(s.z, [[10.0, 30.0], [20.0, 40.0]])  # --z-cols order


# ------------------------------------------------------------ JSON output


def test_json_value_scalars():
    assert _json_value(True) == "true"
    assert _json_value(np.bool_(False)) == "false"
    assert _json_value(np.int64(7)) == "7"
    assert _json_value(0.1) == "0.10000000000000001"
    assert _json_value(1.0) == "1"
    assert _json_value("a\"b") == '"a\\"b"'
    assert _json_value([1, [2.5, "x"]]) == '[1, [2.5, "x"]]'
    with pytest.raises(TypeError):
        _json_value({"no": "dicts"})


def test_render_json_is_valid_and_ordered():
    text = _render_json([("b", 1), ("a", 2.0)])
    obj = json.loads(text)
    assert obj == {"b": 1, "a": 2.0}
    assert list(obj) == ["b", "a"]
    assert text.endswith("\n")


def _tiny_report(seed=0, method="sd", warnings=()):
    x, y = _dataset(n=40, seed=11)
    sample = Sample(x, y)
    sig = estimate_sigma(sample, "rice")
    cfg = BootConfig(B=40, seed=seed, method=method)
    set_ = build_basic_set(sample.x)
    return run_report(sample, sig, set_, cfg, model="simple", warnings=warnings)


def test_report_to_json_field_order_and_roundtrip():
    report = _tiny_report(warnings=("first",))
    text = report_to_json(report)
    keys = re.findall(r'^  "([^"]+)":', text, flags=re.M)
    assert keys == [
        "schema", "T", "method", "critical_value", "p_value", "alpha", "gamma",
        "B", "seed", "n", "p_scales", "selected_os", "selected_sd",
        "stepdown_iterations", "A_n", "sigma_method", "model", "warnings",
    ]
    # the report is TestReport's fields in order, less critical_values
    fields = [f.name for f in dataclasses.fields(report)]
    assert fields[-1] == "critical_values"
    assert keys == ["schema", *fields[:-1]]
    obj = json.loads(text)
    assert obj["schema"] == "monotest/1"
    assert obj["n"] == 40
    assert obj["method"] == "sd"
    assert obj["alpha"] == 0.1 and "0.10000000000000001" in text
    # an adapter's warnings go in front of the run's own
    assert obj["warnings"][0] == "first"
    assert obj["warnings"] == list(report.warnings)
    assert report.warnings[1:] == _tiny_report().warnings


# ------------------------------------------------------------- subcommands


def test_cmd_test_roundtrip(tmp_path, capsys):
    path = _data_csv(tmp_path)
    assert main(["test", path, "--boot", "50", "--seed", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["schema"] == "monotest/1"
    assert obj["n"] == 60
    assert obj["B"] == 50 and obj["seed"] == 3
    assert obj["method"] == "sd" and obj["model"] == "simple"
    assert obj["selected_sd"] <= obj["selected_os"] <= obj["p_scales"]
    assert 0.0 < obj["p_value"] <= 1.0


def test_cmd_test_out_matches_stdout_and_threads_flag(tmp_path, capsys):
    path = _data_csv(tmp_path)
    main(["test", path, "--boot", "50", "--cv", "pi"])
    streamed = capsys.readouterr().out
    out = tmp_path / "r.json"
    main(["test", path, "--boot", "50", "--cv", "pi", "--out", str(out)])
    assert out.read_bytes() == streamed.encode("utf-8")
    assert json.loads(streamed)["method"] == "pi"
    # one test runs in one process: only `mc` takes --threads
    assert main(["test", path, "--threads", "1"]) == 2
    assert _stderr_error(capsys)["message"] == "monotest: unrecognized arguments: --threads 1"


def test_cmd_test_custom_columns_and_h_set(tmp_path, capsys):
    x, y = _dataset(n=30, seed=2)
    path = _write_rows(tmp_path / "c.csv", ["resp", "reg"], list(zip(y, x)))
    rc = main([
        "test", path, "--x-col", "reg", "--y-col", "resp",
        "--h-set", "0.9,0.45", "--boot", "30",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert json.loads(out)["p_scales"] == 2 * len(np.unique(x))
    # a repeated bandwidth counts once: the same scales, the same report
    main([
        "test", path, "--x-col", "reg", "--y-col", "resp",
        "--h-set", "0.9,0.45,0.9", "--boot", "30",
    ])
    assert capsys.readouterr().out == out


def test_cmd_test_partial_linear(tmp_path, capsys):
    rng = np.random.default_rng(5)
    n = 80
    x = np.sort(rng.uniform(-1, 1, n))
    z = rng.uniform(-1, 1, n)
    y = 0.4 * x + 2.0 * z + 0.1 * rng.standard_normal(n)
    path = _write_rows(tmp_path / "pl.csv", ["x", "y", "z"], list(zip(x, y, z)))
    rc = main(["test", path, "--model", "partial-linear", "--z-cols", "z", "--boot", "40"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["model"] == "partial-linear"
    assert obj["n"] == n


def test_cmd_test_endogenous(tmp_path, capsys):
    rng = np.random.default_rng(9)
    n = 120
    u = rng.standard_normal(n)
    x = u + 0.05 * rng.standard_normal(n)
    y = 0.5 * x + 0.1 * rng.standard_normal(n)
    path = _write_rows(tmp_path / "en.csv", ["x", "y", "u"], list(zip(x, y, u)))
    rc = main(["test", path, "--model", "endogenous", "--u-cols", "u", "--boot", "40"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["model"] == "endogenous"


def test_cmd_test_endogenous_small_x(tmp_path, capsys):
    # the degeneracy floor is relative to x's spread: an x scaled by 1e-12 with
    # an independent u runs with the unit-scale T, one scaled by 1e-310 exits 2
    # naming the x block's range, and a polynomial in u is still degenerate
    rng = np.random.default_rng(11)
    u, x, noise = rng.uniform(0, 1, 60), rng.uniform(0, 1, 60), rng.normal(size=60)
    argv = ["--model", "endogenous", "--u-cols", "u", "--boot", "50"]
    T = []
    for scale in (1.0, 1e-12):
        path = _write_rows(tmp_path / "en.csv", "xyu", zip(x * scale, (x + noise) * scale, u))
        assert main(["test", path, *argv]) == 0
        T.append(json.loads(capsys.readouterr().out)["T"])
    assert math.isfinite(T[0]) and math.isclose(T[1], T[0], rel_tol=1e-12)
    for cols, want in [
        ((x * 1e-310, x + noise, u), f"x block: range {np.ptp(x * 1e-310):.3g} overflows its map"),
        ((u * u + u / 2, noise, u), "control variable is degenerate (x is a polynomial in u)"),
    ]:
        assert main(["test", _write_rows(tmp_path / "en.csv", "xyu", zip(*cols)), *argv]) == 2
        assert _stderr_error(capsys)["message"].startswith(want)


def test_cmd_test_selection_forwards_warnings(tmp_path, capsys):
    rng = np.random.default_rng(4)
    n = 120
    x = np.sort(rng.uniform(-1, 1, n))
    z = rng.uniform(-1, 1, n)
    d = np.ones(n)  # everyone observed: constant propensity warning
    y = 0.3 * x + 0.5 * z + 0.1 * rng.standard_normal(n)
    path = _write_rows(tmp_path / "sel.csv", ["x", "y", "z", "d"], list(zip(x, y, z, d)))
    rc = main([
        "test", path, "--model", "selection", "--z-cols", "z", "--d-col", "d",
        "--boot", "40",
    ])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert any("propensity" in w for w in obj["warnings"])


def test_cmd_test_nonparametric_z_multiplies_scales(tmp_path, capsys):
    rng = np.random.default_rng(12)
    n = 50
    x = np.sort(rng.uniform(-1, 1, n))
    z = rng.uniform(0, 1, n)
    y = x + 0.1 * rng.standard_normal(n)
    path = _write_rows(tmp_path / "npz.csv", ["x", "y", "z"], list(zip(x, y, z)))
    main(["test", path, "--boot", "30", "--h-set", "0.8"])
    base_p = json.loads(capsys.readouterr().out)["p_scales"]
    rc = main([
        "test", path, "--model", "nonparametric-z", "--z-cols", "z",
        "--z-cells", "2", "--boot", "30", "--h-set", "0.8",
    ])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["p_scales"] == 2 * base_p


def test_cmd_diag(tmp_path, capsys):
    path = _data_csv(tmp_path, n=40, seed=1)
    rc = main(["diag", path, "--h-set", "0.8,0.4,0.2"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["schema"] == "monotest/diag1"
    assert obj["n"] == 40
    assert obj["bandwidths"] == [0.8, 0.4, 0.2]
    assert obj["p_scales"] == 3 * obj["n"] == len(obj["scales"])
    assert obj["kernel"] == "epanechnikov"
    assert obj["A_n"] > 0
    # scale rows are [location, bandwidth] pairs, bandwidth-major
    assert obj["scales"][0][1] == 0.8 and obj["scales"][-1][1] == 0.2


def test_cmd_mc_csv_and_threads_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = [
        "mc", "--cases", "1", "--sizes", "30", "--reps", "4", "--boot", "25",
        "--seed", "2",
    ]
    assert main(argv + ["--out", str(out1), "--threads", "1"]) == 0
    assert main(argv + ["--out", str(out2), "--threads", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert main(argv + ["--threads", "0"]) == 2
    lines = out1.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "noise,case,n,method,proportion,reps,B,seed"
    assert len(lines) == 4  # one per cv method
    assert [ln.split(",")[3] for ln in lines[1:]] == ["rice-PI", "rice-OS", "rice-SD"]


def test_cmd_mc_text_format(capsys):
    rc = main([
        "mc", "--cases", "1", "--sizes", "30", "--reps", "3", "--boot", "25",
        "--cv", "pi", "--format", "text",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("noise=normal  reps=3  B=25  seed=0")
    assert "rice-PI" in out and "n=30" in out


def test_cmd_mc_repeated_values_give_one_row(capsys):
    argv = ["mc", "--cases", "1", "--reps", "2", "--boot", "20", "--seed", "3"]
    assert main(argv + ["--sizes", "40,40", "--sigma", "rice,rice", "--cv", "pi,pi"]) == 0
    repeated = capsys.readouterr().out
    assert main(argv + ["--sizes", "40", "--sigma", "rice", "--cv", "pi"]) == 0
    assert repeated == capsys.readouterr().out
    assert len(repeated.splitlines()) == 2


# --------------------------------------------------------------- exit codes


def _stderr_error(capsys):
    err = capsys.readouterr().err
    obj = json.loads(err)
    assert obj["schema"] == "monotest/error1"
    return obj


def test_exit_2_on_bad_csv(tmp_path, capsys):
    path = _write(tmp_path / "a.csv", "x,w\n1,2\n3,4\n")
    assert main(["test", path, "--boot", "20"]) == 2
    obj = _stderr_error(capsys)
    assert obj["error"] == "DataError"
    assert "missing column" in obj["message"]


def test_exit_2_on_missing_file(tmp_path, capsys):
    assert main(["test", str(tmp_path / "nope.csv")]) == 2
    assert _stderr_error(capsys)["error"] == "FileNotFoundError"


def test_exit_2_on_model_requirements(tmp_path, capsys):
    path = _data_csv(tmp_path)
    for argv, frag in [
        (["--model", "partial-linear"], "needs --z-cols"),
        (["--model", "endogenous"], "needs --u-cols"),
        (["--model", "selection", "--z-cols", "x"], "needs --d-col"),
    ]:
        assert main(["test", path, *argv]) == 2
        assert frag in _stderr_error(capsys)["message"]


def test_exit_2_on_bad_flag_values(tmp_path, capsys):
    path = _data_csv(tmp_path)
    assert main(["test", path, "--h-set", "0.5,abc"]) == 2
    assert "--h-set" in _stderr_error(capsys)["message"]
    assert main(["mc", "--cases", "1;2", "--reps", "2", "--boot", "20"]) == 2
    assert "--cases" in _stderr_error(capsys)["message"]
    # a degree-0 series has no correction block: it would subtract nothing
    rows = list(zip(*_dataset(), *_dataset(seed=8), np.arange(60) % 3 > 0, np.ones(60)))
    path = _write_rows(tmp_path / "m.csv", ["x", "y", "z", "u", "d", "c"], rows)
    for model in (["additive", "--z-cols", "z"], ["endogenous", "--u-cols", "u"],
                  ["selection", "--z-cols", "z", "--d-col", "d"]):
        assert main(["test", path, "--model", *model, "--L", "0", "--boot", "20"]) == 2, model
        obj = _stderr_error(capsys)
        assert obj["error"] == "DataError" and "--L" in obj["message"], obj
    # series degrees are checked before a design is built, naming the blocks
    for argv, frag in [
        (["selection", "--z-cols", "z", "--d-col", "d", "--pscore-degree", "-1"],
         "degree -1 over blocks ['x block', 'z[0] block'] is not a non-negative integer"),
        (["endogenous", "--u-cols", "u", "--first-stage-degree", "-2"],
         "degree -2 over blocks ['u[0] block'] is not a non-negative integer"),
        (["endogenous", "--u-cols", "u", "--first-stage-degree", "20000"],
         "too few rows (60) for 20001 coefficients over blocks ['u[0] block']"),
    ]:
        assert main(["test", path, "--model", *argv, "--boot", "20"]) == 2, argv
        obj = _stderr_error(capsys)
        assert obj["error"] == "DataError" and frag in obj["message"], obj
    # a column flag the model's adapter never reads is an error, not ignored
    for argv, frag in [
        (["simple", "--z-cols", "z"], "model 'simple' does not read --z-cols"),
        (["endogenous", "--u-cols", "u", "--z-cols", "z"],
         "model 'endogenous' does not read --z-cols"),
        (["simple", "--u-cols", "u"], "model 'simple' does not read --u-cols"),
        (["partial-linear", "--z-cols", "z", "--u-cols", "u"],
         "model 'partial-linear' does not read --u-cols"),
        (["selection", "--z-cols", "z", "--d-col", "d", "--u-cols", "u"],
         "model 'selection' does not read --u-cols"),
        (["simple", "--d-col", "d"], "model 'simple' does not read --d-col"),
        (["additive", "--z-cols", "z", "--d-col", "d"], "model 'additive' does not read --d-col"),
        (["endogenous", "--u-cols", "u", "--d-col", "d"],
         "model 'endogenous' does not read --d-col"),
    ]:
        assert main(["test", path, "--model", *argv, "--boot", "20"]) == 2, argv
        obj = _stderr_error(capsys)
        assert obj["error"] == "DataError" and obj["message"] == frag, obj
    assert main(["diag", path, "--z-cols", "z"]) == 2
    assert _stderr_error(capsys)["message"] == "model 'simple' does not read --z-cols"
    # so is an option flag the model or sigma method never reads, and an option
    # value or z column that leaves no scale to test
    for argv, frag in [
        (["--h-set", ","], "--h-set: empty list"),
        (["--model", "nonparametric-z", "--z-cols", "z", "--z-cells", "0"],
         "--z-cells must be >= 1"),
        (["--model", "nonparametric-z", "--z-cols", "z", "--z-bw", ","], "--z-bw: empty list"),
        (["--model", "nonparametric-z", "--z-cols", "c"],
         "z columns are constant; cannot pick a z-cell bandwidth"),
        (["--model", "partial-linear", "--z-cols", "z", "--z-cells", "7"],
         "model 'partial-linear' does not read --z-cells"),
        (["--model", "partial-linear", "--z-cols", "z", "--z-cells", "3"],
         "model 'partial-linear' does not read --z-cells"),
        (["--model", "additive", "--z-cols", "z", "--z-bw", "0.5"],
         "model 'additive' does not read --z-bw"),
        (["--z-bw", "0.5"], "model 'simple' does not read --z-bw"),
        (["--sigma-bn", "0.3"], "sigma method 'rice' does not read --sigma-bn"),
        (["--sigma", "residual", "--sigma-bn", "0.3"],
         "sigma method 'residual' does not read --sigma-bn"),
        (["--sigma-degree", "4"], "sigma method 'rice' does not read --sigma-degree"),
        (["--sigma", "local-rice", "--sigma-degree", "4"],
         "sigma method 'local-rice' does not read --sigma-degree"),
        (["--L", "7"], "model 'simple' does not read --L"),
        (["--model", "partial-linear", "--z-cols", "z", "--L", "7"],
         "model 'partial-linear' does not read --L"),
        (["--model", "nonparametric-z", "--z-cols", "z", "--L", "7"],
         "model 'nonparametric-z' does not read --L"),
        (["--first-stage-degree", "9"], "model 'simple' does not read --first-stage-degree"),
        (["--model", "additive", "--z-cols", "z", "--first-stage-degree", "9"],
         "model 'additive' does not read --first-stage-degree"),
        (["--model", "selection", "--z-cols", "z", "--d-col", "d", "--first-stage-degree", "9"],
         "model 'selection' does not read --first-stage-degree"),
        (["--pscore-degree", "5"], "model 'simple' does not read --pscore-degree"),
        (["--model", "partial-linear", "--z-cols", "z", "--pscore-degree", "5"],
         "model 'partial-linear' does not read --pscore-degree"),
        (["--model", "endogenous", "--u-cols", "u", "--pscore-degree", "5"],
         "model 'endogenous' does not read --pscore-degree"),
    ]:
        for cmd in ("test", "diag"):
            assert main([cmd, path, *argv]) == 2, (cmd, argv)
            obj = _stderr_error(capsys)
            assert obj["error"] == "DataError" and obj["message"] == frag, obj
    # and each is read where it applies, so the report moves with it
    for argv in (
        ["--model", "nonparametric-z", "--z-cols", "z", "--z-cells", "2", "--z-bw", "0.5"],
        ["--model", "partial-linear", "--z-cols", "z", "--first-stage-degree", "2"],
        ["--model", "additive", "--z-cols", "z", "--L", "2"],
        ["--model", "endogenous", "--u-cols", "u", "--first-stage-degree", "2", "--L", "2"],
        ["--model", "selection", "--z-cols", "z", "--d-col", "d", "--pscore-degree", "2"],
        ["--sigma", "local-rice", "--sigma-bn", "0.3"],
        ["--sigma", "residual", "--sigma-degree", "2"],
        ["--sigma", "two-step-poly", "--sigma-degree", "2"],
    ):
        outs = []
        for flags in (argv, argv[:-2]):
            assert main(["test", path, *flags, "--boot", "20"]) == 0, flags
            outs.append(capsys.readouterr().out)
        assert outs[0] != outs[1], argv


def test_exit_2_on_bad_scale_values(tmp_path, capsys):
    # the scale set checks its columns; the message names the bad one
    x, y = _dataset()
    path = _write_rows(tmp_path / "z.csv", ["x", "y", "z"], list(zip(x, y, y)))
    for argv, frag in [
        (["--h-set", "-0.5"], "bandwidth"),
        (["--h-set", "nan"], "bandwidth"),
        (["--k", "-1"], "exponent k"),
        (["--model", "nonparametric-z", "--z-cols", "z", "--z-bw", "-1"], "z_bw"),
    ]:
        assert main(["test", path, "--boot", "20", *argv]) == 2, argv
        obj = _stderr_error(capsys)
        assert obj["error"] == "ValueError"
        assert frag in obj["message"], (argv, obj["message"])


def test_exit_2_on_negative_mc_seed(capsys):
    assert main(["mc", "--cases", "1", "--sizes", "30", "--reps", "2", "--seed", "-1"]) == 2
    assert _stderr_error(capsys)["message"] == "seed must be >= 0, got -1"


def test_exit_2_on_mc_failure_budget(capsys):
    # n=2 leaves no scale with two points in its window, so every
    # replication fails and the cell is over its failure budget
    assert main(["mc", "--cases", "1", "--sizes", "2", "--reps", "50", "--boot", "20"]) == 2
    obj = _stderr_error(capsys)
    assert obj["error"] == "DataError"
    assert "50/50 replications failed" in obj["message"]


def test_exit_2_on_memory_error(tmp_path, monkeypatch, capsys):
    # the allocation failure is simulated inside the field, in every block
    # step: nothing large is allocated.  The field itself raises the message,
    # so test, diag, every mc replication and run_report all give it
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(statistic, "_pair_weights", out_of_memory)
    block, hint = statistic.FIELD_BLOCK, "; use fewer scales, rows or draws"
    path = _data_csv(tmp_path, n=40)
    p = np.unique(load_columns(path, ["x"])["x"]).size * 2
    head = f"out of memory: {p} scales x 40 observations need "
    panels = f"0.0 MiB for each {block} x 41 block panel (40 tie runs)"
    draws = (
        f", 0.0 MiB for {statistic.kept_rows(p, 20)} kept rows of 20 draws,"
        " 0.0 MiB for the 40 x 20 multiplier panel"
    )
    assert main(["test", path, "--h-set", "0.5,0.25", "--boot", "20"]) == 2
    obj = _stderr_error(capsys)
    assert obj["error"] == "MemoryError"
    assert obj["message"] == head + panels + draws + hint
    assert main(["diag", path, "--h-set", "0.5,0.25"]) == 2
    assert _stderr_error(capsys)["message"] == head + panels + hint
    sample = Sample(*(load_columns(path, ["x", "y"]).values()))
    set_ = build_custom_set(sample.x, [0.5, 0.25])
    with pytest.raises(MemoryError) as err:
        run_report(sample, estimate_sigma(sample, "rice"), set_, BootConfig(B=20))
    assert str(err.value) == head + panels + draws + hint
    argv = ["mc", "--cases", "1", "--sizes", "30", "--reps", "2", "--boot", "20", "--cv", "pi"]
    assert main(argv) == 2
    obj = _stderr_error(capsys)
    assert obj["error"] == "MemoryError"
    assert obj["message"].startswith("out of memory: ") and obj["message"].endswith(hint)
    assert "the 30 x 20 multiplier panel" in obj["message"]
    # the panels span tie runs: 4,000 rows on 400 distinct x state m = 400, not n,
    # and the draws name the m x B run sums the field holds in place of the
    # n x B multipliers.  A z-cell set without ties holds the sorted multipliers
    # and one cell's run sums.  A k other than 0 and 1 adds one (m + 1) x (m + 1)
    # pair matrix per block
    x = np.repeat(np.linspace(0.0, 4.0, 400), 10)
    path = _write_rows(tmp_path / "tied.csv", ["x", "y", "z"], zip(x, np.sin(x), np.cos(x)))
    head = "out of memory: 400 scales x 4000 observations need "
    panels = f"0.2 MiB for each {block} x 401 block panel (400 tie runs)"
    pair = ", 1.2 MiB for the 401 x 401 pair matrix of k = 0.5"
    draws = (
        ", 3.1 MiB for 400 kept rows of 1000 draws, 3.1 MiB for the 1 x 400 x 1000 run sums"
    )
    for argv, want in [
        (["test", path, "--boot", "1000"], panels + draws),
        (["diag", path], panels),
        (["test", path, "--boot", "1000", "--k", "0.5"], panels + pair + draws),
        (["diag", path, "--k", "0.5"], panels + pair),
    ]:
        assert main([*argv, "--h-set", "0.5"]) == 2, argv
        assert _stderr_error(capsys)["message"] == head + want + hint, argv
    path = _data_csv(tmp_path, n=40, name="z.csv")
    assert main(["test", path, "--model", "nonparametric-z", "--z-cols", "x", "--boot", "20"]) == 2
    message = _stderr_error(capsys)["message"]
    assert ", 0.0 MiB for the 40 x 20 run sums of one cell, " in message
    assert message.endswith(", 0.0 MiB for the 40 x 20 multiplier panel" + hint)


def test_exit_2_on_memory_error_in_a_rebuild(tmp_path, monkeypatch, capsys):
    # a block that the ladder rebuilds after the field's pass (the store keeps
    # 3 rows of 50 draws) gives the pass's message: the failure is simulated in
    # every block step after the pass, so nothing large is allocated
    pair_weights, finish = statistic._pair_weights, statistic.KeptDraws._finish
    rebuilds = []

    def out_of_memory_after_the_pass(*args):
        if rebuilds:
            rebuilds.append(1)
            raise MemoryError()
        return pair_weights(*args)

    def finish_the_pass(draws, active):
        finish(draws, active)
        rebuilds.append(0)

    monkeypatch.setattr(statistic, "KEEP_BYTES", 3 * 8 * 50)
    monkeypatch.setattr(statistic, "_pair_weights", out_of_memory_after_the_pass)
    monkeypatch.setattr(statistic.KeptDraws, "_finish", finish_the_pass)
    path = _data_csv(tmp_path, n=60)
    sample = Sample(*(load_columns(path, ["x", "y"]).values()))
    set_ = build_basic_set(sample.x)
    want = (
        f"out of memory: {set_.p} scales x 60 observations need 0.0 MiB for each"
        f" {statistic.FIELD_BLOCK} x 61 block panel (60 tie runs), 0.0 MiB for 3 kept rows"
        " of 50 draws, 0.0 MiB for the 60 x 50 multiplier panel; use fewer scales, rows or draws"
    )
    with pytest.raises(MemoryError) as err:
        run_report(sample, estimate_sigma(sample, "rice"), set_, BootConfig(B=50))
    assert str(err.value) == want and rebuilds == [0, 1]
    rebuilds.clear()
    assert main(["test", path, "--boot", "50"]) == 2
    obj = _stderr_error(capsys)
    assert obj["error"] == "MemoryError" and obj["message"] == want and rebuilds == [0, 1]


def test_exit_2_on_unwritable_out(tmp_path, capsys):
    path = _data_csv(tmp_path)
    rc = main(["test", path, "--boot", "20", "--out", str(tmp_path / "no_dir" / "o.json")])
    assert rc == 2
    assert _stderr_error(capsys)["error"] == "FileNotFoundError"


def test_exit_3_on_degenerate_variance(tmp_path, capsys):
    # bandwidth so small every window holds a single point: no scale is active
    path = _data_csv(tmp_path, n=30, seed=8)
    assert main(["test", path, "--h-set", "1e-9", "--boot", "20"]) == 3
    assert _stderr_error(capsys)["error"] == "DegenerateVarianceError"


def _run_python(args, cwd):
    """Run the interpreter on args in a fresh process, with the package under test on the path."""
    env = dict(os.environ)
    src = str(Path(statistic.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_exit_2_on_sigma_overflow(tmp_path):
    # y near +-1e300 overflows every sigma method, or its square: each exits 2
    # with one error JSON on stderr and no numpy warning before it
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, 40)
    y = rng.choice([-1.0, 1.0], 40) * 1e300 * rng.uniform(0.5, 1.0, 40)
    path = _write_rows(tmp_path / "big.csv", ["x", "y"], list(zip(x, y)))
    for method in SIGMA_METHODS:
        proc = _run_python(
            ["-m", "monotest.cli", "test", path, "--boot", "50", "--sigma", method], tmp_path,
        )
        assert proc.returncode == 2, (method, proc.stderr)
        assert "Warning" not in proc.stderr, (method, proc.stderr)
        error = json.loads(proc.stderr)
        assert (error["schema"], error["error"]) == ("monotest/error1", "DataError"), method


@pytest.mark.parametrize(
    "flags", [["--model", "partial-linear", "--z-cols", "z"], ["--sigma", "residual"]]
)
def test_exit_2_on_a_subnormal_x_range(tmp_path, capfd, flags):
    # a series fit over x whose range is near 1e-310 exits 2 before LAPACK
    # sees the design: fd 2 holds the one error JSON and nothing else
    x, z = np.linspace(-1.0, 1.0, 60), np.random.default_rng(0).uniform(-1.0, 1.0, 60)
    path = _write_rows(tmp_path / "sub.csv", "xyz", zip(x * 1e-310, x * x, z))
    assert main(["test", path, "--boot", "50", *flags]) == 2
    out, err = capfd.readouterr()
    assert out == "" and json.loads(err) == {
        "schema": "monotest/error1",
        "error": "DataError",
        "message": "x block: range 2e-310 overflows its map onto [-1, 1]; rescale the column",
    }


def test_exit_2_on_field_overflow(tmp_path):
    # |y| near 1e152 passes the sigma check, but V's window sums overflow, and
    # x near 1e307 overflows |x_j - x_i|^k: test and diag exit 2 with one
    # error JSON naming the overflow, and no numpy warning before it
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, 200)
    y = rng.choice([-1.0, 1.0], 200) * 1e152 * rng.uniform(0.5, 1.0, 200)
    big_y = _write_rows(tmp_path / "big_y.csv", ["x", "y"], list(zip(x, y)))
    x = 1e307 * rng.uniform(0.5, 1.5, 40)
    big_x = _write_rows(tmp_path / "big_x.csv", ["x", "y"], list(zip(x, rng.normal(size=40))))
    for path, flags in [
        (big_y, ["--sigma", "rice"]),
        (big_y, ["--sigma", "residual"]),
        (big_x, ["--k", "0.5"]),
        (big_x, ["--k", "1"]),
    ]:
        for argv in (["test", path, "--boot", "50"], ["diag", path]):
            args = ["-m", "monotest.cli", *argv, *flags]
            proc = _run_python(args, tmp_path)
            assert proc.returncode == 2, (args, proc.stderr)
            assert "Warning" not in proc.stderr, (args, proc.stderr)
            assert json.loads(proc.stderr) == {
                "schema": "monotest/error1",
                "error": "DataError",
                "message": "the field overflows: b or V is not finite; rescale x or y",
            }, args


def test_flag_tables_list_every_method_and_flag():
    assert tuple(SIGMA_FLAGS) == SIGMA_METHODS
    assert tuple(SIGMA_ESTIMATORS) == SIGMA_METHODS
    dests = vars(build_parser().parse_args(["test", "d.csv"]))
    for flag in itertools.chain(*MODEL_FLAGS.values(), *SIGMA_FLAGS.values()):
        assert flag[2:].replace("-", "_") in dests, flag
    # every sigma flag fills a keyword its estimator reads
    for method, flags in SIGMA_FLAGS.items():
        params = inspect.signature(SIGMA_ESTIMATORS[method]).parameters
        for flag, keyword in flags.items():
            assert keyword in params, (method, flag)


_FLOAT = st.one_of(st.floats(-1e150, 1e150), st.sampled_from([0.0, 1.0, 0.1, 1e8 + 0.5]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_FLOAT, _FLOAT), min_size=2, max_size=60), st.integers(1, 12))
def test_z_grid_reads_np_quantile_from_the_sorted_column(rows, cells):
    # the cell midpoints are np.quantile's, bit for bit (up to the sign of a zero)
    z = np.array(rows)
    levels = [(2 * i + 1) / (2 * cells) for i in range(cells)]
    want = np.array(list(itertools.product(*(np.quantile(col, levels) for col in z.T))))
    got = np.array(_z_grid(z, cells))
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()


# the column flags of each model on the fuzzed CSV's x, y, z, u, d columns
_FUZZ_MODELS = {
    "simple": [], "partial-linear": ["--z-cols", "z"], "additive": ["--z-cols", "z"],
    "nonparametric-z": ["--z-cols", "z"], "endogenous": ["--u-cols", "u"],
    "selection": ["--z-cols", "z", "--d-col", "d"],
}
_FUZZ_X = {
    "uniform": lambda x: x, "grid": lambda x: np.round(x, 1) + 0.0,
    "constant": lambda x: np.full(x.size, 0.3), "huge": lambda x: x * 1e300,
    "subnormal": lambda x: x * 1e-310, "offset": lambda x: x + 1e16,
}
# one run in four adds an invalid flag value
_FUZZ_BAD = [()] * 12 + [("--boot", "abc"), ("--cv", "PI"), ("--kernel", "gauss"), ("--k", "x")]
# the degree flags; a run gives those its model or sigma method reads, 0 to past the 40 rows
_FUZZ_DEGREES = ("--first-stage-degree", "--L", "--pscore-degree", "--sigma-degree")


def _finite_floats(value):
    if isinstance(value, list):
        return all(_finite_floats(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


# no shrink phase: a failure reports its first example, which is small
# already, where shrinking it took Hypothesis's five-minute limit
@settings(
    max_examples=150, deadline=None, derandomize=True, phases=[Phase.generate],
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    st.integers(2, 40), st.sampled_from(sorted(_FUZZ_X)), st.sampled_from([1.0, 1e150, 1e300]),
    st.sampled_from([1.0, 1e300, 1e-310]), st.sampled_from([1.0, 1e300, 1e-310]),
    st.sampled_from(sorted(_FUZZ_MODELS)), st.sampled_from(SIGMA_METHODS),
    st.sampled_from(["0", "0.5", "1"]), st.sampled_from(sorted(KERNELS)),
    st.sampled_from(["test", "diag"]), st.sampled_from(_FUZZ_BAD), st.integers(0, 2**16),
    st.lists(st.none() | st.integers(0, 45), min_size=4, max_size=4),
)
def test_every_exit_is_a_finite_report_or_one_error_json(
    tmp_path_factory, capfd, n, x_form, y_scale, z_scale, u_scale, model, sigma, k, kernel,
    cmd, bad, seed, degrees,
):
    # whatever the data's magnitudes and the flags, a run exits 0 with a
    # finite report and nothing on stderr, or 2 or 3 with exactly one
    # monotest/error1 JSON on fd 2: no warning (they are errors here), no
    # usage text and no line that LAPACK writes to fd 2 itself
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    cols = [
        _FUZZ_X[x_form](x), (x + 0.3 * rng.standard_normal(n)) * y_scale,
        rng.uniform(-1.0, 1.0, n) * z_scale, rng.uniform(-1.0, 1.0, n) * u_scale,
        (rng.uniform(size=n) < 0.7).astype(float),
    ]
    path = _write_rows(tmp_path_factory.getbasetemp() / "fuzz.csv", "xyzud", zip(*cols))
    argv = [cmd, path, "--model", model, *_FUZZ_MODELS[model], "--sigma", sigma, "--k", k]
    argv += ["--kernel", kernel, *(["--boot", "20"] if cmd == "test" else []), *bad]
    reads = (*MODEL_FLAGS[model], *SIGMA_FLAGS[sigma])
    for flag, value in zip(_FUZZ_DEGREES, degrees):
        argv += [flag, str(value)] if value is not None and flag in reads else []
    capfd.readouterr()
    rc = main(argv)
    out, err = capfd.readouterr()
    assert rc in (0, 2, 3), (argv, rc)
    if rc:
        assert out == "" and json.loads(err)["schema"] == "monotest/error1", (argv, err)
    else:
        assert err == "" and _finite_floats(list(json.loads(out).values())), (argv, out)


def test_parser_rejects_unknown_choice(tmp_path, capsys):
    # a usage error leaves as one error JSON with exit 2, like any DataError
    path = _data_csv(tmp_path)
    for flag, value in (("--kernel", "gaussian"), ("--cv", "bonferroni")):
        assert main(["test", path, flag, value]) == 2
        obj = _stderr_error(capsys)
        assert obj["error"] == "DataError"
        assert obj["message"].startswith(f"monotest test: argument {flag}: invalid choice: ")


_MA_PROBE = """
import os
import sys
from monotest.cli import main
for argv in (
    ["test", "main.csv"],
    ["test", "main.csv", "--model", "partial-linear", "--z-cols", "z,z2", "--sigma", "residual"],
    ["mc", "--cases", "3", "--sizes", "60", "--reps", "2", "--cv", "pi,os,sd"],
    ["test", "ties.csv", "--model", "nonparametric-z", "--z-cols", "z,z2", "--z-cells", "2"],
    ["test", "main.csv", "--h-set", "0.9,0.3"],
    ["test", "main.csv", "--model", "selection", "--z-cols", "z", "--d-col", "d"],
    ["diag", "main.csv"],
):
    boot = ["--boot", "20"] if argv[0] != "diag" else []
    assert main([*argv, *boot, "--out", os.devnull]) == 0, argv
    assert "numpy.ma" not in sys.modules, argv
"""


def test_test_and_mc_do_not_import_numpy_ma():
    # np.unique without indices, np.isin and np.quantile import numpy.ma (about
    # 13 ms and 1.3 MiB); none of these runs needs it: z-cells, --h-set,
    # selection and diag included
    proc = _run_python(["-c", _MA_PROBE], Path(__file__).resolve().parent / "golden")
    assert proc.returncode == 0, proc.stderr
