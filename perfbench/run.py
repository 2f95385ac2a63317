"""Benchmark of the oblique-stab command line, run from the root of a checkout.

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --results out.json

Each workload runs in a fresh interpreter (perfbench/worker.py) that imports
the package from the checkout's `src/` tree with single-threaded BLAS.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1.  Lines before it give
every metric by name and unit, plus the failure ratio, the contract probes,
the wall-time tail and the run's metadata.  `--workload all` runs every
workload untraced and traced and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("closed_loop", "closed_loop_fine", "spectral_sweep", "projection")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIME_LIMIT_S = 150.0  # for the worker, inside the 180 s limit of a run


class BenchError(RuntimeError):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """Highest percentile with at least 10 samples beyond it: (value, percentile, n).

    None with fewer than 11 samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 10
    if rank < 1:
        return None
    return ordered[rank - 1], 100.0 * rank / n, n


def relative(times: list[float], refs: list[float], which: list[int]) -> float:
    """Median over invocations `which` of their time over the reference kernel's.

    refs[i] and refs[i + 1] are the kernel times just before and just after
    invocation i; their mean is the machine's speed while it ran.
    """
    return statistics.median(times[i] / (0.5 * (refs[i] + refs[i + 1])) for i in which)


def git_commit(root: Path) -> str:
    """Commit of the checkout, or 'unknown' outside a git repository."""
    # The ceiling stops git from reporting a repository that encloses the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_lines(root: Path) -> int:
    """`wc -l src/oblique_stab/*.py`: the line count the roadmap tracks."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "oblique_stab").glob("*.py"))


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns every metric and the run's details."""
    env = child_env(root)
    workdir = root / ".bench_work" / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    try:
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--workdir", str(workdir), "--result", str(result_path),
        ]
        try:
            proc = subprocess.run(cmd, cwd=root, env=env, timeout=TIME_LIMIT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name}: worker exceeded {TIME_LIMIT_S:.0f} s") from None
        if proc.returncode != 0 or not result_path.is_file():
            raise BenchError(f"{name}: worker exited with code {proc.returncode}")
        res = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    runs = res["runs"]
    plain = [i for i, on in enumerate(runs["traced"]) if not on]
    walls = [runs["walls"][i] for i in plain]
    metrics = {
        "wall_rel": relative(runs["walls"], runs["refs"], plain),
        "cpu_rel": relative(runs["cpus"], runs["refs"], plain),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(runs["cpus"][i] for i in plain),
        "setup_s": statistics.median(runs["setup"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "cli.bytes_out": statistics.median(runs["bytes_out"][i] for i in plain),
        "contract_failures": sum(not held for held in res["probes"].values()),
        **res.get("layers", {}),
    }
    if trace:
        traced = [i for i, on in enumerate(runs["traced"]) if on]
        metrics["trace.overhead_s"] = statistics.median(runs["refs"]) * (
            relative(runs["walls"], runs["refs"], traced) - metrics["wall_rel"]
        )
    attempted = len(runs["walls"])
    return {
        "workload": name,
        "metrics": metrics,
        "attempted": attempted,
        "failed": runs["failed"],
        "fail_ratio": runs["failed"] / attempted,
        "wall_s_tail": tail(walls),
        "problems": res["warmup_problems"] + runs["problems"],
        "probes": res["probes"],
        "absent": res.get("absent", []),
        "meta": {
            "commit": git_commit(root),
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            **res["versions"],
            "blas_env": {var: env[var] for var in BLAS_VARS},
            "cpu_count": os.cpu_count(),
            "src_lines": source_lines(root),
            "samples": len(walls),
            "setup_samples": len(runs["setup"]),
        },
    }


def load_spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def select(run: dict, entries: list[dict]) -> dict[str, dict]:
    missing = [e["name"] for e in entries if e["name"] not in run["metrics"]]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {e["name"]: {"value": run["metrics"][e["name"]], "unit": e["unit"]} for e in entries}


def describe(run: dict) -> list[str]:
    """Lines printed beside the metrics: failures, probes, tail, metadata."""
    lines = [
        f"# workload {run['workload']}: {run['attempted']} invocations, "
        f"fail_ratio = {run['fail_ratio']:.4g} ({run['failed']}/{run['attempted']})",
        f"# contract_failures = {run['metrics']['contract_failures']} count "
        + json.dumps(run["probes"]),
    ]
    for name in ("wall_s", "cpu_s"):
        lines.append(f"# {name} = {run['metrics'][name]:.6g} s (median per invocation)")
    t = run["wall_s_tail"]
    lines.append(
        "# wall_s_tail = not measured: fewer than 11 samples"
        if t is None
        else f"# wall_s_tail = {t[0]:.6g} s (p{t[1]:.3g} of {t[2]} samples)"
    )
    for problem in run["problems"][:10]:
        lines.append(f"# failed check: {problem}")
    if run["absent"]:
        lines.append("# absent (reported as 0): " + ", ".join(run["absent"]))
    lines.append("# meta: " + json.dumps(run["meta"], sort_keys=True))
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, help="with --workload all: write every result here as JSON")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "oblique_stab" / "cli.py").is_file():
        print("run.py: no src/oblique_stab/cli.py here; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        if args.workload == "all":
            return run_all(root, spec, args)
        run = run_workload(root, args.workload, args.seed, args.seconds, args.trace)
        chosen = select(run, spec["per_layer"] if args.trace else spec["end_to_end"])
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for line in describe(run):
        print(line)
    for name, m in chosen.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": chosen,
    }))
    return 0


def run_all(root: Path, spec: dict, args: argparse.Namespace) -> int:
    """Every workload untraced and traced; one table of every metric."""
    results = []
    for name in WORKLOADS:
        for trace in (0, 1):
            run = run_workload(root, name, args.seed, args.seconds, trace)
            run["selected"] = select(run, spec["per_layer"] if trace else spec["end_to_end"])
            results.append(run)
            for line in describe(run):
                print(line)
            sys.stdout.flush()
    untraced = [r for r in results if not r["meta"]["trace"]]
    traced = [r for r in results if r["meta"]["trace"]]
    width = max(len(e["name"]) for e in spec["per_layer"]) + 8
    print("\n" + "metric".ljust(width) + "".join(w.rjust(18) for w in WORKLOADS))
    rows = [(e["name"], e["unit"], untraced) for e in spec["end_to_end"]]
    rows += [("wall_s", "s", untraced), ("cpu_s", "s", untraced)]
    rows += [("fail_ratio", "1", untraced), ("contract_failures", "count", untraced)]
    rows += [(e["name"], e["unit"], traced) for e in spec["per_layer"] if e["name"] != "contract_failures"]
    for name, unit, runs in rows:
        cells = "".join(
            f"{(r['fail_ratio'] if name == 'fail_ratio' else r['metrics'][name]):18.6g}" for r in runs
        )
        print(f"{name} [{unit}]".ljust(width) + cells)
    tails = "".join(
        ("-" if r["wall_s_tail"] is None else f"{r['wall_s_tail'][0]:.4g}@p{r['wall_s_tail'][1]:.3g}").rjust(18)
        for r in untraced
    )
    print("wall_s_tail [s]".ljust(width) + tails)
    if args.results:
        args.results.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0 if all(r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
