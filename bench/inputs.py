"""Seeded input generator for the ``test`` workloads of the benchmark.

Usage: python3 bench/inputs.py WORKLOAD SEED N OUT.csv

Runs in its own process so that run.py never imports numpy: on Linux a
spawned child's peak RSS starts at its parent's resident set, so a small
run.py keeps each operation's peak RSS its own.

The data follow the simlab reference designs, written out here rather than
imported, so that a change to the package cannot change the benchmark's
inputs.  Every cell is written as ``repr(float(v))``; a numpy-2 scalar would
render as ``np.float64(...)``, which the CSV loader rejects.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# simlab design constants (c1, c2, c3, noise sd) of the two cases used here
CASE_2 = (1.0, 4.0, 1.0, 0.05)  # strictly increasing
CASE_4 = (1.0, 1.5, 4.0, 0.1)  # pronounced dip

WORKLOAD_IDS = {"test-large": 1, "zcell-ties": 3}


def _design_f(case, x):
    c1, c2, c3, _ = case
    return c1 * x - c2 * np.exp(-0.5 * (c3 * x) ** 2) / math.sqrt(2.0 * math.pi)


def generate(workload: str, seed: int, n: int) -> dict[str, np.ndarray]:
    """Columns of one workload's CSV; the same (workload, seed, n) gives the same data."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(WORKLOAD_IDS[workload],)))
    )
    x = rng.uniform(-1.0, 1.0, n)
    if workload == "test-large":
        # monotone design plus linear controls: the test should not reject
        z1 = rng.standard_normal(n)
        z2 = rng.uniform(-1.0, 1.0, n)
        noise = CASE_2[3] * rng.standard_normal(n)
        y = _design_f(CASE_2, x) + 0.5 * z1 - 0.25 * z2 + noise
        return {"x": x, "y": y, "z1": z1, "z2": z2}
    # x on a 0.01 grid: 201 distinct values, so every window holds ties
    x = np.round(x, 2) + 0.0  # + 0.0 turns -0.0 into 0.0
    z1 = rng.uniform(0.0, 1.0, n)
    noise = CASE_4[3] * rng.standard_normal(n)
    y = _design_f(CASE_4, x) + 0.3 * z1 + noise
    return {"x": x, "y": y, "z1": z1}


def write_csv(path: str, cols: dict[str, np.ndarray]) -> None:
    names = list(cols)
    rows = zip(*(cols[name].tolist() for name in names))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def main(argv) -> int:
    workload, seed, n, out = argv
    write_csv(out, generate(workload, int(seed), int(n)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
