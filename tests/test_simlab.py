"""Monte Carlo harness: designs, seeding, aggregation, and serialization."""

import contextlib
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import monotest.simlab as simlab
from monotest import (
    CASES,
    DataError,
    McDesign,
    McResult,
    gen_design,
    regression_f,
    results_to_csv,
    results_to_text,
    run_mc,
)

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)  # standard normal density at zero


def test_case_parameters():
    assert CASES[1] == (0.0, 0.0, 0.0, 0.05)
    assert CASES[2] == (1.0, 4.0, 1.0, 0.05)
    assert CASES[3] == (1.0, 1.2, 5.0, 0.05)
    assert CASES[4] == (1.0, 1.5, 4.0, 0.1)


def test_regression_f_values():
    x = np.linspace(-1, 1, 201)
    np.testing.assert_array_equal(regression_f(1, x), np.zeros_like(x))
    np.testing.assert_allclose(regression_f(2, 0.0), -4.0 * PHI0, rtol=1e-15)
    np.testing.assert_allclose(regression_f(3, 0.0), -1.2 * PHI0, rtol=1e-15)
    # case 2 is nondecreasing on [-1, 1]; cases 3 and 4 have a decreasing dip
    assert np.all(np.diff(regression_f(2, x)) >= 0)
    assert np.any(np.diff(regression_f(3, x)) < 0)
    assert np.any(np.diff(regression_f(4, x)) < 0)


def test_mc_design_validation():
    d = McDesign(3, 200)
    assert d.noise == "normal"
    assert d.params == CASES[3]
    with pytest.raises(ValueError):
        McDesign(5, 100)
    with pytest.raises(ValueError):
        McDesign(1, 1)
    with pytest.raises(ValueError):
        McDesign(1, 100, noise="poisson")


def test_gen_design_deterministic():
    d = McDesign(3, 50)
    s1 = gen_design(d, seed=42)
    s2 = gen_design(d, seed=42)
    np.testing.assert_array_equal(s1.x, s2.x)
    np.testing.assert_array_equal(s1.y, s2.y)
    s3 = gen_design(d, seed=43)
    assert not np.array_equal(s1.x, s3.x)


def test_gen_design_marginals():
    n = 40000
    s = gen_design(McDesign(1, n), seed=7)
    assert np.all(np.abs(s.x) <= 1.0)
    # case 1 noise is y itself; its sd is 0.05
    np.testing.assert_allclose(np.std(s.y), 0.05, rtol=0.05)

    su = gen_design(McDesign(1, n, noise="uniform"), seed=7)
    half = 0.05 * math.sqrt(3.0)
    assert np.all(np.abs(su.y) <= half)
    np.testing.assert_allclose(np.std(su.y), 0.05, rtol=0.05)


def test_gen_design_adds_noise_to_f():
    s = gen_design(McDesign(4, 3000, noise="uniform"), seed=11)
    noise = s.y - regression_f(4, s.x)
    assert np.all(np.abs(noise) <= 0.1 * math.sqrt(3.0) + 1e-12)


def test_run_mc_serial_parallel_identical():
    designs = [McDesign(3, 40)]
    serial = run_mc(designs, ["rice"], reps=10, B=40, seed=5, parallelism=1)
    parallel = run_mc(designs, ["rice"], reps=10, B=40, seed=5, parallelism=2)
    assert results_to_csv(serial) == results_to_csv(parallel)
    for a, b in zip(serial, parallel):
        assert a.proportion == b.proportion


def test_run_mc_rejections_nest_across_cv_methods():
    res = run_mc([McDesign(3, 80)], ["rice"], reps=30, B=60, seed=9)
    by_cv = {r.cv_method: r.proportion for r in res}
    assert by_cv["pi"] <= by_cv["os"] <= by_cv["sd"]
    meta = res[0]
    assert meta.reps == 30 and meta.B == 60 and meta.seed == 9
    assert meta.failures == 0


def test_run_mc_pool_is_capped_by_reps_and_cpus(monkeypatch):
    # a fake pool records its size and maps in this process: no process starts
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args, chunksize=1):
            return map(fn, args)

    monkeypatch.setattr(simlab, "_worker_pool", SerialPool)
    # without an affinity set the machine's CPU count caps the pool
    monkeypatch.delattr(simlab.os, "sched_getaffinity", raising=False)
    designs = [McDesign(3, 40)]
    for cpus, parallelism, reps, pool in (
        (8, 1, 3, None),
        (8, 64, 3, 3),
        (8, 64, 12, 8),
        (8, 2, 12, 2),
        (8, 4, 1, None),
        (None, 4, 3, None),
    ):
        monkeypatch.setattr(simlab.os, "cpu_count", lambda: cpus)
        sizes.clear()
        got = run_mc(designs, ["rice"], reps=reps, B=20, seed=5, parallelism=parallelism)
        assert sizes == ([] if pool is None else [pool])
        # every replication has its own seed, so the pool size cannot show
        serial = run_mc(designs, ["rice"], reps=reps, B=20, seed=5)
        assert results_to_csv(got) == results_to_csv(serial)


def test_run_mc_pool_is_capped_by_the_cpus_this_process_may_use(monkeypatch):
    # under a cpuset or an affinity mask the process may run on fewer CPUs
    # than the machine has: the affinity set caps the pool, not cpu_count
    sizes = []

    def pool(max_workers):
        sizes.append(max_workers)
        return contextlib.nullcontext(SimpleNamespace(map=lambda fn, args, chunksize=1: map(fn, args)))

    monkeypatch.setattr(simlab, "_worker_pool", pool)
    monkeypatch.setattr(simlab.os, "cpu_count", lambda: 64)
    designs = [McDesign(3, 40)]
    for affinity, parallelism, pool_size in (({0}, 8, None), ({2, 5, 7}, 8, 3), ({2, 5, 7}, 2, 2)):
        monkeypatch.setattr(simlab.os, "sched_getaffinity", lambda pid: set(affinity), raising=False)
        sizes.clear()
        got = run_mc(designs, ["rice"], reps=12, B=20, seed=5, parallelism=parallelism)
        assert sizes == ([] if pool_size is None else [pool_size])
        assert results_to_csv(got) == results_to_csv(run_mc(designs, ["rice"], reps=12, B=20, seed=5))


@pytest.mark.parametrize("before", [None, "3"])
def test_worker_pool_pins_blas_threads_and_restores_the_environment(monkeypatch, before):
    for var in simlab.BLAS_THREAD_VARS:
        if before is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, before)
    with simlab._worker_pool(2) as pool:
        seen = list(pool.map(os.getenv, simlab.BLAS_THREAD_VARS, timeout=60))
    assert seen == ["1", "1"]
    assert [os.environ.get(var) for var in simlab.BLAS_THREAD_VARS] == [before, before]


def _run_python(tmp_path, source):
    src = str(Path(simlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = tmp_path / "caller.py"
    script.write_text(textwrap.dedent(source), encoding="utf-8")
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


def test_import_cli_loads_no_pool_machinery(tmp_path):
    # only a parallel run_mc imports them; test, diag and a serial mc never do
    proc = _run_python(tmp_path, """
        import sys
        import monotest.cli
        loaded = [m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules]
        assert not loaded, loaded
    """)
    assert proc.returncode == 0, proc.stderr


def test_guarded_caller_script_parallel_table_matches_serial(tmp_path):
    proc = _run_python(tmp_path, """
        from monotest import McDesign, results_to_csv, run_mc

        if __name__ == "__main__":
            designs = [McDesign(3, 60)]
            for parallelism in (2, 1):
                res = run_mc(designs, ["rice"], reps=12, B=40, seed=5, parallelism=parallelism)
                print(results_to_csv(res), end="")
    """)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 8 and lines[:4] == lines[4:]


@pytest.mark.skipif(simlab._usable_cpus() < 2, reason="one CPU runs run_mc serially")
def test_unguarded_caller_script_fails_instead_of_hanging(tmp_path):
    # each worker runs the caller script again, which starts a pool of its own
    proc = _run_python(tmp_path, """
        from monotest import McDesign, run_mc

        run_mc([McDesign(3, 40)], ["rice"], reps=10, B=40, seed=5, parallelism=2)
    """)
    assert proc.returncode != 0
    assert "BrokenProcessPool" in proc.stderr, proc.stderr[-2000:]


def test_run_mc_validation():
    with pytest.raises(ValueError):
        run_mc([McDesign(1, 50)], ["rice"], reps=0)
    for parallelism in (0, -2):
        with pytest.raises(ValueError, match="parallelism must be >= 1"):
            run_mc([McDesign(1, 50)], ["rice"], reps=2, B=10, parallelism=parallelism)
    with pytest.raises(ValueError):
        run_mc([McDesign(1, 50)], ["not-a-method"], reps=2, B=10)
    with pytest.raises(ValueError):
        run_mc([McDesign(1, 50)], ["rice"], cv_methods=("pi", "xx"), reps=2, B=10)


def test_run_mc_checks_every_sigma_method_before_any_replication(monkeypatch):
    calls = {"k": 0}

    def counting(args):
        calls["k"] += 1
        return True, False, False, False

    monkeypatch.setattr(simlab, "_mc_rep", counting)
    with pytest.raises(ValueError, match="unknown sigma method 'bogus'"):
        run_mc([McDesign(1, 50)], ["rice", "bogus"], reps=30)
    assert calls["k"] == 0


def test_run_mc_runs_each_repeated_design_and_method_once(monkeypatch):
    calls = {"k": 0}

    def counting(args):
        calls["k"] += 1
        return True, True, False, False

    monkeypatch.setattr(simlab, "_mc_rep", counting)
    designs = [McDesign(1, 40), McDesign(3, 40), McDesign(1, 40)]
    res = run_mc(designs, ["rice", "rice"], cv_methods=("sd", "pi", "sd"), reps=3, B=10)
    assert calls["k"] == 2 * 3
    assert [(r.case, r.cv_method) for r in res] == [(1, "sd"), (1, "pi"), (3, "sd"), (3, "pi")]


def test_run_mc_checks_seed_and_levels_before_any_replication(monkeypatch):
    calls = {"k": 0}

    def counting(args):
        calls["k"] += 1
        return True, False, False, False

    monkeypatch.setattr(simlab, "_mc_rep", counting)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        run_mc([McDesign(1, 50)], ["rice"], reps=30, seed=-1)
    with pytest.raises(ValueError, match="B must be >= 1"):
        run_mc([McDesign(1, 50)], ["rice"], reps=30, B=0)
    with pytest.raises(ValueError, match="gamma"):
        run_mc([McDesign(1, 50)], ["rice"], reps=30, alpha=0.05, gamma=0.05)
    assert calls["k"] == 0


def test_run_mc_failure_budget(monkeypatch):
    # a broken replication counts as a failure; over 1 percent aborts the cell
    monkeypatch.setattr(simlab, "_mc_rep", lambda args: (False, False, False, False))
    with pytest.raises(DataError, match="replications failed"):
        run_mc([McDesign(1, 50)], ["rice"], reps=5, B=10)

    calls = {"k": 0}

    def mostly_ok(args):
        calls["k"] += 1
        if calls["k"] == 1:
            return False, False, False, False
        return True, True, False, False

    monkeypatch.setattr(simlab, "_mc_rep", mostly_ok)
    res = run_mc([McDesign(1, 50)], ["rice"], reps=200, B=10)
    by_cv = {r.cv_method: r for r in res}
    assert by_cv["pi"].failures == 1
    # failed replications drop out of the denominator
    assert by_cv["pi"].proportion == 199 / 199
    assert by_cv["os"].proportion == 0.0


def test_mc_result_method_tag():
    r = McResult("normal", 3, 200, "rice", "pi", 0.5, 10, 20, 0, 0)
    assert r.method == "rice-PI"


def _toy_results():
    shared = dict(reps=10, B=20, seed=0, failures=0)
    return [
        McResult("normal", 1, 200, "rice", "pi", 0.2, **shared),
        McResult("normal", 1, 100, "rice", "pi", 0.1, **shared),
        McResult("normal", 1, 100, "rice", "os", 1 / 3, **shared),
    ]


def test_results_to_csv_golden():
    got = results_to_csv(_toy_results())
    want = (
        "noise,case,n,method,proportion,reps,B,seed\n"
        "normal,1,100,rice-PI,0.1,10,20,0\n"
        "normal,1,100,rice-OS,0.3333333333333333,10,20,0\n"
        "normal,1,200,rice-PI,0.2,10,20,0\n"
    )
    assert got == want


def test_results_to_text_golden():
    got = results_to_text(_toy_results())
    want = (
        "noise=normal  reps=10  B=20  seed=0\n"
        "case  method                n=100    n=200\n"
        "   1  rice-PI               0.100    0.200\n"
        "   1  rice-OS               0.333        -\n"
    )
    assert got == want
