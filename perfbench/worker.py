"""One workload in one fresh interpreter; started by run.py.

The interpreter must start with single-threaded BLAS and with the `src/` tree
of the checkout on PYTHONPATH.  It makes one warm-up call, runs the
workload's contract probes untimed, then times closed-loop invocations of
`oblique_stab.cli.main`, with timed imports of the package in fresh
interpreters between them, and checks each output.  With --trace 1 every second
invocation runs with the tracer installed, and the per-layer metrics are
derived from its spans.  The result goes to --result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import checks
import tracer
import workloads

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Share of the timed window spent timing imports in fresh interpreters.
SETUP_SHARE = 0.2
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import oblique_stab.cli; "
    "print(repr(time.perf_counter() - t0))"
)

# Metrics whose span the tracer names after the class method it wraps.
ALIASES = {
    "linalg.tridiag_matvec": "linalg.SymTridiagonal.matvec",
    "linalg.tridiag_solve": "linalg.SpdTridiagFactor.solve",
}

# Metrics recorded by wrapping what another function returns; that function
# must exist for the metric to be measured.
RETURNED_BY = {
    "projection.evaluator": "projection.apply_projection",
    "fem.reaction_values": "fem.oscillating_reaction",
    "quadrature.nodes": "quadrature.panel_nodes_weights",
}

# Per-layer metrics taken from spans: span name -> statistics reported.
SPAN_METRICS = {
    "cli.main": ("self_s",),
    "actuators.place": ("calls", "self_s"),
    "actuators.normalized_indicator": ("calls", "self_s"),
    "spectral.eval_eigenfunction": ("calls", "self_s"),
    "spectral.build_basis": ("calls",),
    "quadrature.integrate": ("calls", "self_s"),
    "quadrature.panel_nodes_weights": ("calls", "self_s"),
    "linalg.sym_eigen": ("calls", "self_s"),
    "linalg.solve_dense": ("calls", "self_s"),
    "linalg.tridiag_matvec": ("calls", "self_s"),
    "linalg.tridiag_solve": ("calls", "self_s"),
    "projection.assemble_cross_gram": ("self_s",),
    "projection.build_projection": ("self_s",),
    "projection.check_theta_diagonal": ("self_s",),
    "projection.analytic_vartheta": ("self_s",),
    "projection.apply_projection": ("self_s",),
    "projection.orthogonal_projection_actuators": ("self_s",),
    "projection.evaluator": ("calls", "self_s"),
    "fem.run_closed_loop": ("self_s",),
    "fem.feedback_apply": ("calls", "self_s"),
    "fem.nodal_l2_norm": ("calls", "self_s"),
    "fem.reaction_matrix": ("calls", "self_s"),
    "fem.reaction_values": ("calls", "self_s"),
    "fem.assemble_fem": ("self_s",),
    "fem.feedback_matrices": ("self_s",),
}


def _hooks(t: tracer.Tracer) -> dict:
    evaluator = tracer.wrap_second(t, "projection.evaluator")
    values = tracer.wrap_field_values(t, "fem.reaction_values")
    return {
        "projection.apply_projection": evaluator,
        "projection.apply_adjoint_projection": evaluator,
        "projection.orthogonal_projection_actuators": evaluator,
        "fem.constant_reaction": values,
        "fem.oscillating_reaction": values,
        "fem.tabulated_reaction": values,
        "quadrature.panel_nodes_weights": tracer.count_first_len(t, "quadrature.nodes"),
    }


def reference_kernel() -> float:
    """Wall time of a fixed mix of interpreter work and small numpy operations.

    It takes about 30 ms.  Run between invocations, it measures how fast the
    machine is at that moment: on a shared machine the same invocation takes
    30-60 % longer for stretches of seconds to minutes, and the kernel slows
    down with it.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(250_000):
        acc += i * i
    a = np.arange(1001.0)
    for _ in range(2500):
        a = a * 1.0000001 + 0.5
    elapsed = time.perf_counter() - t0
    if acc < 0 or not a[0] > 0.0:
        raise RuntimeError("reference kernel produced a wrong result")
    return elapsed


def import_time() -> float:
    """Seconds to import oblique_stab.cli in a fresh interpreter.

    The interpreter inherits this one's environment and directory, so it
    imports the same `src/` tree with the same BLAS settings.
    """
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], capture_output=True, text=True, timeout=30)
    if proc.returncode != 0:
        raise RuntimeError(f"importing oblique_stab.cli failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def invoke(cli, argv: list[str], output: Path) -> tuple[int, float, float]:
    """One call of cli.main; returns (exit code, wall s, CPU s of the process)."""
    if output.exists():
        output.unlink()
    gc.collect()
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # a crash is a failed invocation, not a benchmark error
        traceback.print_exc()
        rc = -1
    t1, c1 = time.perf_counter(), time.process_time()
    return rc, t1 - t0, c1 - c0


def run_probes(cli, workload) -> dict[str, bool]:
    held = {}
    for probe in workload.probes:
        out = Path(probe.argv[-1])
        if out.exists():
            out.unlink()
        with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            try:
                held[probe.name] = bool(probe.holds(cli.main(probe.argv), out))
            except Exception:  # a crash or malformed output breaks the contract
                held[probe.name] = False
    return held


def checked(workload, rc: int) -> list[str]:
    """The workload's check of its output; a check that raises is a problem."""
    try:
        return workload.check(rc, workload.output)
    except Exception as exc:  # malformed output, for example a short row
        return [f"check raised {type(exc).__name__}: {exc}"]


class Tracing:
    """Installs the tracer around single invocations and keeps their metrics."""

    def __init__(self, workload) -> None:
        self.tracer = tracer.Tracer()
        self.hooks = _hooks(self.tracer)
        self.workload = workload
        self.per_call: list[dict[str, float]] = []
        self.absent: list[str] = []

    def __enter__(self) -> "Tracing":
        self.tracer.install(self.hooks)
        self.tracer.reset()
        return self

    def __exit__(self, *exc) -> None:
        self.absent = absent_metrics(self.tracer)
        self.tracer.uninstall()

    def collect(self) -> None:
        """Per-layer metrics of the invocation just traced; needs its output."""
        steps = simulated_steps(self.workload)
        self.per_call.append(layer_metrics(self.tracer, self.workload, steps))
        self.tracer.reset()


def timed_loop(cli, workload, seconds: float, tracing: Tracing | None = None) -> dict:
    """Closed loop: invoke until `seconds` have passed (at least once).

    The reference kernel runs before each invocation and once after the
    last, so refs has one entry more than walls.  With tracing, every second
    invocation runs traced, so traced and untraced calls see the same phases
    of a shared machine; `traced` flags them.  Before each invocation, fresh
    interpreters import the package until the imports so far took
    SETUP_SHARE of the elapsed time, so the import times in `setup` are
    spread over the whole window.
    """
    walls, cpus, refs, bytes_out, traced, problems, setup = [], [], [], [], [], [], []
    failed = 0
    least = 1 if tracing is None else 2
    start = time.perf_counter()
    while len(walls) < least or time.perf_counter() - start < seconds:
        while sum(setup) <= SETUP_SHARE * (time.perf_counter() - start):
            setup.append(import_time())
        refs.append(reference_kernel())
        on = tracing is not None and len(walls) % 2 == 1
        with tracing if on else contextlib.nullcontext():
            rc, wall, cpu = invoke(cli, workload.argv, workload.output)
        found = checked(workload, rc)
        if on:
            tracing.collect()
        walls.append(wall)
        cpus.append(cpu)
        traced.append(on)
        bytes_out.append(workload.output.stat().st_size if workload.output.exists() else 0)
        if found:
            failed += 1
            problems.extend(found)
    refs.append(reference_kernel())
    return {
        "walls": walls, "cpus": cpus, "refs": refs, "bytes_out": bytes_out,
        "traced": traced, "failed": failed, "problems": problems, "setup": setup,
    }


def layer_metrics(t: tracer.Tracer, workload, steps: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    spans = t.spans()
    stats = tracer.summarize(spans)
    out: dict[str, float] = {}
    for name, kinds in SPAN_METRICS.items():
        s = stats.get(ALIASES.get(name, name))
        for kind in kinds:
            out[f"{name}.{kind}"] = 0.0 if s is None else float(getattr(s, kind))
    for layer in tracer.LAYERS:
        if layer != "cli":
            out[f"{layer}.self_s"] = sum(
                (s.self_s for n, s in stats.items() if n.startswith(layer + ".")), 0.0
            )
    main = stats.get("cli.main")
    busy = tracer.offthread_busy_s(spans, t.main_slot)
    out["cli.worker_busy_ratio"] = busy / (main.total_s * workload.jobs) if main else 0.0
    out["quadrature.nodes"] = float(t.counters.get("quadrature.nodes", 0))
    loop = stats.get("fem.run_closed_loop")
    out["fem.steps"] = float(steps)
    out["fem.step_us"] = loop.total_s / steps * 1e6 if loop and steps else 0.0
    return out


def absent_metrics(t: tracer.Tracer) -> list[str]:
    """Metrics whose function does not exist in the code under test."""
    return [
        name
        for name in (*SPAN_METRICS, "quadrature.nodes")
        if RETURNED_BY.get(name, ALIASES.get(name, name)) not in t.wrapped
    ]


def simulated_steps(workload) -> int:
    """Time steps of a simulate run: its data rows minus the initial state."""
    if workload.argv[0] != "simulate" or not workload.output.exists():
        return 0
    try:
        return max(len(checks.read_csv(workload.output).rows) - 1, 0)
    except ValueError:  # undecodable output; its check counts the failure
        return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()
    unpinned = [v for v in BLAS_VARS if os.environ.get(v) != "1"]
    if unpinned:
        print(f"worker: BLAS threads not pinned to 1: {unpinned}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    from oblique_stab import cli

    workload = workloads.build(args.workload, args.seed, args.workdir)
    rc, _, _ = invoke(cli, workload.argv, workload.output)
    warm_problems = checked(workload, rc)
    probes = run_probes(cli, workload)

    tracing = Tracing(workload) if args.trace else None
    runs = timed_loop(cli, workload, args.seconds, tracing)
    result = {
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "warmup_problems": warm_problems,
        "probes": probes,
        "runs": runs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracing is not None:
        per_call = tracing.per_call
        result["layers"] = {key: statistics.median(m[key] for m in per_call) for key in per_call[0]}
        result["absent"] = tracing.absent

    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
