"""Golden CLI outputs: every report, diag and mc table must stay byte-identical.

Each case runs ``monotest.cli.main`` in-process from inside ``tests/golden``
on small committed CSVs and compares the exit code and the bytes written to
stdout and stderr with the files recorded there.  Refactors that keep the
numbers must keep these files unchanged; a change that is meant to alter an
output re-records them and says why.

Record (inputs and outputs) with the package under test on the path:

    PYTHONPATH=src python3 tests/test_golden.py --record [CASE ...]

With case names, only those outputs and the input files their argv names
are written, so a new case can be recorded without touching the others.

Before re-recording, compare the current outputs with the recorded ones:

    PYTHONPATH=src python3 tests/test_golden.py --diff [CASE ...]

prints numpy's version and the OpenBLAS core type it loaded (``unknown``
if the library does not say), then one line per case: ``match``, or the
largest relative change of a float plus every other difference (exit code,
integers, strings, line structure).  Floats can move with the core type,
which ``OPENBLAS_CORETYPE`` overrides.  It exits 1 if any case has more
than float drift of at most FLOAT_DRIFT relative, the most a re-recording
may absorb without a reason of its own.
"""

import contextlib
import ctypes
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import monotest
from monotest.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(monotest.__file__).resolve().parents[1]

FAST = ["--boot", "60", "--seed", "5"]
BLOCK_H = "1.2,0.9,0.7,0.5,0.35,0.25,0.18,0.12,0.08,0.05"

# name -> argv; every file named in an argv lives in tests/golden
CASES = {
    "test_rice_sd": ["test", "main.csv", *FAST],
    "test_rice_pi": ["test", "main.csv", "--cv", "pi", *FAST],
    "test_rice_os": ["test", "main.csv", "--cv", "os", *FAST],
    "test_local_rice": ["test", "main.csv", "--sigma", "local-rice", *FAST],
    "test_residual": ["test", "main.csv", "--sigma", "residual", *FAST],
    "test_two_step": ["test", "main.csv", "--sigma", "two-step-poly", "--sigma-degree", "2", *FAST],
    "test_k_half": ["test", "main.csv", "--k", "0.5", *FAST],
    "test_k_one_uniform": ["test", "main.csv", "--k", "1", "--kernel", "uniform", *FAST],
    "test_uniform": ["test", "main.csv", "--kernel", "uniform", "--cv", "os", *FAST],
    "test_h_set": ["test", "main.csv", "--h-set", "0.9,0.3", "--alpha", "0.05", *FAST],
    "test_ties_k0": ["test", "ties.csv", *FAST],
    "test_ties_k0_uniform": ["test", "ties.csv", "--kernel", "uniform", "--cv", "pi", *FAST],
    "test_ties_k_half": ["test", "ties.csv", "--k", "0.5", *FAST],
    "test_ties_k1": ["test", "ties.csv", "--k", "1", *FAST],
    "test_partial_linear": ["test", "main.csv", "--model", "partial-linear", "--z-cols", "z", *FAST],
    "test_additive": ["test", "main.csv", "--model", "additive", "--z-cols", "z,z2", "--L", "3", *FAST],
    "test_endogenous": ["test", "main.csv", "--model", "endogenous", "--u-cols", "u", *FAST],
    "test_selection": [
        "test", "main.csv", "--model", "selection", "--z-cols", "z", "--d-col", "d", *FAST,
    ],
    "test_zcell": ["test", "main.csv", "--model", "nonparametric-z", "--z-cols", "z", *FAST],
    "test_zcell_ties_2d": [
        "test", "ties.csv", "--model", "nonparametric-z", "--z-cols", "z,z2", "--z-cells", "2",
        "--cv", "pi", *FAST,
    ],
    "diag_simple": ["diag", "main.csv", "--h-set", "0.8,0.4"],
    "diag_zcell": [
        "diag", "ties.csv", "--model", "nonparametric-z", "--z-cols", "z", "--z-cells", "2",
        "--sigma", "local-rice",
    ],
    "mc_csv": [
        "mc", "--cases", "1,3", "--sizes", "30", "--reps", "3", "--boot", "20",
        "--sigma", "rice,residual", "--seed", "4",
    ],
    "mc_text": [
        "mc", "--cases", "2,4", "--sizes", "25,30", "--reps", "2", "--boot", "20",
        "--noise", "both", "--cv", "sd,pi", "--format", "text",
    ],
    "error_bad_cell": ["test", "bad.csv", *FAST],
    # 2,350 scales on tied x: more than two statistic.FIELD_BLOCK blocks, the last partial
    "test_blocks_k0": ["test", "blocks.csv", "--h-set", BLOCK_H, *FAST],
    "test_blocks_k1": ["test", "blocks.csv", "--h-set", BLOCK_H, "--k", "1", *FAST],
    # every scale far below the selection threshold, so the emptied one-step
    # set keeps the scale that attains T and the step-down pass from it keeps
    # it too; a one-point window leaves one of the 120 scales inactive
    "test_fallback": ["test", "steep.csv", "--sigma", "residual", *FAST],
    # B = 20,000 gives a budget of R = 52 draw rows for 240 scales, less than a
    # full block, so the one-step and step-down sets rebuild blocks
    "test_evict_rebuild": ["test", "main.csv", "--boot", "20000", "--seed", "5"],
}


FLOAT_DRIFT = 1e-13
# a number in the output; it is a float if it has a point or an exponent
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def _diff(old: str, new: str) -> tuple[float, list[str]]:
    """Largest relative float change between two outputs, and every other difference."""
    old_lines, new_lines = old.split("\n"), new.split("\n")
    if len(old_lines) != len(new_lines):
        return 0.0, [f"{len(old_lines)} lines became {len(new_lines)}"]
    worst, other = 0.0, []
    for no, (a, b) in enumerate(zip(old_lines, new_lines), 1):
        if _NUMBER.split(a) != _NUMBER.split(b):
            other.append(f"line {no}: {a!r} became {b!r}")
            continue
        for u, v in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
            if u == v:
                continue
            if not re.search(r"[.eE]", u + v):
                other.append(f"line {no}: integer {u} became {v}")
                continue
            fu, fv = float(u), float(v)
            worst = max(worst, abs(fv - fu) / max(abs(fu), abs(fv)))
    return worst, other


# the OpenBLAS builds' names for the function that returns the core type
_CORENAME_SYMBOLS = (
    "openblas_get_corename",
    "openblas_get_corename64_",
    "scipy_openblas_get_corename64_",
    "scipy_openblas_get_corename",
)


def _blas_core() -> str:
    """The core type of the OpenBLAS library numpy loaded, or "unknown"."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in _CORENAME_SYMBOLS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                fn.argtypes = []
                return fn().decode()
    return "unknown"


def _show_diff(names) -> int:
    """Print the numpy build, then one line per case: its output now against the recorded one."""
    print(f"numpy {np.__version__}, OpenBLAS core {_blas_core()}")
    os.chdir(GOLDEN)
    failed = False
    for name in names or sorted(CASES):
        old = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        new = _run(CASES[name])
        if new == old:
            print(f"{name}: match")
            continue
        worst, other = _diff(old, new)
        failed |= bool(other) or worst > FLOAT_DRIFT
        print(f"{name}: floats moved by at most {worst:.2g} relative")
        for line in other:
            print(f"    {line}")
    return int(failed)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return f"exit {rc}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert _run(CASES[name]).encode("utf-8") == expected


def _diff_lines(env: dict) -> list[str]:
    env = {**env, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, __file__, "--diff", "error_bad_cell"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return set()
    return {f for line in text.splitlines() if line.startswith("flags") for f in line.split()}


def test_diff_first_names_numpy_and_the_blas_core():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    first, *rest = _diff_lines(env)
    assert rest == ["error_bad_cell: match"]
    found = re.fullmatch(rf"numpy {re.escape(np.__version__)}, OpenBLAS core (\S+)", first)
    assert found, first
    # an override is reported, on a CPU that runs that core type's kernels
    if found[1] == "unknown" or not {"avx2", "fma"} <= _cpu_flags():
        pytest.skip("no OpenBLAS core name, or no AVX2 and FMA for Haswell kernels")
    assert _diff_lines({**env, "OPENBLAS_CORETYPE": "Haswell"})[0].endswith("core Haswell")


def test_diff_stops_quietly_when_its_reader_closes_the_pipe():
    # unbuffered, the header reaches the pipe before any case runs, and the
    # first case's line is written after the pipe is closed
    env = {**os.environ, "PYTHONUNBUFFERED": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, __file__, "--diff", "error_bad_cell", "test_uniform", "diag_simple"]
    proc = subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    assert proc.stdout.readline().startswith("numpy ")
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=300) == 0 and stderr == ""


def _csv_text(cols: dict) -> str:
    names = list(cols)
    rows = zip(*(cols[k] for k in names))
    lines = [",".join(names)] + [",".join(repr(float(v)) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _inputs() -> dict:
    """Every input file's text, by file name."""
    rng = np.random.default_rng(20121212)
    n = 80
    u = rng.uniform(-1.0, 1.0, n)
    x = 0.7 * u + 0.3 * rng.uniform(-1.0, 1.0, n)
    z = rng.uniform(-1.0, 1.0, n)
    z2 = rng.uniform(-1.0, 1.0, n)
    d = (z + 0.5 * rng.standard_normal(n) > -0.4).astype(float)
    y = x - 0.8 * np.exp(-20.0 * x**2) + 0.5 * z + 0.15 * rng.standard_normal(n)
    files = {"main.csv": _csv_text({"x": x, "y": y, "z": z, "z2": z2, "u": u, "d": d})}

    m = 60
    xt = np.round(rng.uniform(-1.0, 1.0, m), 1)  # a 0.1 grid: every window has ties
    zt = rng.uniform(0.0, 1.0, m)
    zt2 = np.round(rng.uniform(0.0, 1.0, m), 1)
    yt = 0.3 * xt - 0.5 * np.exp(-30.0 * xt**2) + 0.1 * rng.standard_normal(m)
    files["ties.csv"] = _csv_text({"x": xt, "y": yt, "z": zt, "z2": zt2})

    files["bad.csv"] = "x,y\n0.1,1.0\n0.2,oops\n0.3,2.0\n"

    # its own stream: the files above do not depend on it
    rng = np.random.default_rng(2024)
    nb = 350
    xb = np.round(rng.uniform(-1.0, 1.0, nb) / 0.005) * 0.005  # a 0.005 grid: tied x
    yb = xb - 0.6 * np.exp(-25.0 * (xb - 0.2) ** 2) + 0.2 * rng.standard_normal(nb)
    files["blocks.csv"] = _csv_text({"x": xb, "y": yb})

    rng = np.random.default_rng(2012)
    xs = rng.uniform(-1.0, 1.0, 40)
    files["steep.csv"] = _csv_text({"x": xs, "y": 20.0 * xs + 1e-3 * rng.standard_normal(40)})
    return files


def _record(names) -> None:
    names = names or list(CASES)
    GOLDEN.mkdir(exist_ok=True)
    inputs = _inputs()
    for fname in sorted({arg for name in names for arg in CASES[name] if arg in inputs}):
        (GOLDEN / fname).write_text(inputs[fname], encoding="utf-8")
    os.chdir(GOLDEN)
    for name in names:
        (GOLDEN / f"{name}.txt").write_bytes(_run(CASES[name]).encode("utf-8"))


if __name__ == "__main__":
    if sys.argv[1:2] not in (["--record"], ["--diff"]):
        sys.exit(__doc__)
    unknown = sorted(set(sys.argv[2:]) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s): {', '.join(unknown)}")
    if sys.argv[1] == "--diff":
        try:
            rc = _show_diff(sys.argv[2:])
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe (as `| head -n 1` does): stop quietly,
            # with stdout on devnull so that the exit's own flush has nowhere to fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            rc = 0
        sys.exit(rc)
    _record(sys.argv[2:])
