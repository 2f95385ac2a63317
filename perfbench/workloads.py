"""The benchmark's workloads: CLI arguments, seeded inputs, checks and probes.

Each workload is a closed loop with one caller: the next invocation of
`oblique_stab.cli.main` starts when the previous one returns.  The inputs the
program reads are generated here from the benchmark seed; the configurations
are the paper's, so every seed exercises the same code paths.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
REFERENCE_NORMS = HERE / "reference" / "closed_loop_norms.csv"

PROJECTION_M, PROJECTION_R, PROJECTION_SAMPLES = 20, 0.3, 2001


@dataclass(frozen=True)
class Probe:
    """An untimed invocation that checks a documented contract.

    holds(exit_code, output_path) is True when the contract holds.
    """

    name: str
    argv: list[str]
    holds: Callable[[int, Path], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    argv: list[str]
    output: Path
    check: Callable[[int, Path], list[str]]
    jobs: int = 1
    probes: list[Probe] = field(default_factory=list)


def smooth_samples(seed: int, n: int, L: float = math.pi) -> tuple[list[float], list[float]]:
    """n samples on [0, L] of a random trigonometric polynomial of degree 8."""
    rng = random.Random(seed)
    terms = [(k, rng.gauss(0.0, 1.0) / k, rng.gauss(0.0, 1.0) / k) for k in range(1, 9)]
    offset = rng.gauss(0.0, 1.0)
    xs = [L * i / (n - 1) for i in range(n)]
    ys = [
        offset
        + sum(a * math.sin(k * math.pi * x / L) + b * math.cos(k * math.pi * x / L) for k, a, b in terms)
        for x in xs
    ]
    return xs, ys


def load_reference() -> dict[float, float]:
    ref = {}
    for line in REFERENCE_NORMS.read_text().splitlines():
        if line and not line.startswith("#"):
            t, norm = line.split(",")
            ref[float(t)] = float(norm)
    return ref


def _nan_free_failure(exit_code: int, path: Path) -> bool:
    """A blow-up exits 3 and writes no non-finite row."""
    if exit_code != 3:
        return False
    return not path.is_file() or checks.nonfinite_rows(checks.read_csv(path)) == 0


def _sweep_written(exit_code: int, path: Path) -> bool:
    """The sweep file exists, has data rows, and every numeric cell is finite."""
    if not path.is_file():
        return False
    out = checks.read_csv(path)
    return bool(out.rows) and checks.nonfinite_rows(out) == 0


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of a workload in workdir and return how to run it."""
    out = workdir / f"{name}.csv"
    probe_out = workdir / f"{name}_probe.csv"
    if name == "closed_loop":
        reference = load_reference()
        return Workload(
            name,
            ["simulate", "--output", str(out)],
            out,
            lambda rc, path: checks.check_closed_loop(rc, path, reference),
            probes=[
                Probe(
                    "blowup_exits_3_without_nan_rows",
                    ["simulate", "--reaction", "constant:-1e6", "--T", "0.5", "--output", str(probe_out)],
                    _nan_free_failure,
                )
            ],
        )
    if name == "closed_loop_fine":
        argv = (
            "simulate --bc neumann --reaction oscillating --M 8 --feed-on 0:0.3 "
            "--N 10001 --k 4e-4 --T 0.5"
        ).split()
        return Workload(
            name,
            argv + ["--output", str(out)],
            out,
            lambda rc, path: checks.check_feed_window(rc, path, 1251, 0.3),
        )
    if name == "spectral_sweep":
        return Workload(
            name,
            ["eigs", "--M", "2..200", "--r", "0.1,0.5", "--jobs", "2", "--output", str(out)],
            out,
            lambda rc, path: checks.check_sweep(rc, path, 398),
            jobs=2,
            probes=[
                Probe(
                    "con_sweep_writes_finite_rows",
                    ["eigs", "--scheme", "con", "--M", "2..20", "--r", "0.1", "--output", str(probe_out)],
                    _sweep_written,
                )
            ],
        )
    if name == "projection":
        xs, ys = smooth_samples(seed, PROJECTION_SAMPLES)
        samples = workdir / "projection_input.csv"
        samples.write_text("x,value\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys)))
        gammas = checks.mxe_support_gammas(xs, ys, PROJECTION_M, PROJECTION_R, math.pi)
        return Workload(
            name,
            [
                "project", "--M", str(PROJECTION_M), "--r", str(PROJECTION_R),
                "--input", str(samples), "--output", str(out),
            ],
            out,
            lambda rc, path: checks.check_projection(rc, path, PROJECTION_SAMPLES, gammas),
        )
    raise KeyError(name)
