"""Output checks: failures the benchmark must count."""

import functools
import math

import pytest

import checks
import run
import worker
import workloads

HEADER = "t,l2_norm,feedback_on\n"


def _write(path, rows):
    path.write_text("# config: command=simulate\n" + HEADER + "".join(rows))
    return path


def test_nan_rows_with_exit_zero_fail(tmp_path):
    path = _write(tmp_path / "out.csv", ["0,1.0,1\n", "0.001,nan,1\n", "0.002,nan,1\n"])
    problems, _ = checks.check_common(0, path, 3)
    assert problems == ["2 rows with non-finite values"]
    assert checks.check_closed_loop(0, path, {0.0: 1.0})


def test_closed_loop_check_accepts_reference_and_rejects_drift(tmp_path):
    ref = workloads.load_reference()
    rows = [f"{t!r},{n!r},1\n" for t, n in sorted(ref.items())]
    # rows the reference skips are not compared; pad to the full row count
    rows += [f"{10 + i!r},{min(ref.values())!r},1\n" for i in range(4501 - len(rows))]
    good = _write(tmp_path / "good.csv", rows)
    assert checks.check_closed_loop(0, good, ref) == []
    t0, n0 = min(ref.items())
    bad = _write(tmp_path / "bad.csv", [f"{t0!r},{n0 * (1 + 1e-6)!r},1\n"] + rows[1:])
    assert any("reference" in p for p in checks.check_closed_loop(0, bad, ref))


def test_nonzero_exit_fails_before_reading(tmp_path):
    assert checks.check_common(3, tmp_path / "missing.csv", 1)[0] == ["exit code 3"]


def test_blowup_probe_requires_exit_three_and_no_nan(tmp_path):
    nan_file = _write(tmp_path / "nan.csv", ["0,1.0,1\n", "0.001,nan,1\n"])
    assert not workloads._nan_free_failure(0, nan_file)
    assert not workloads._nan_free_failure(3, nan_file)
    assert workloads._nan_free_failure(3, tmp_path / "absent.csv")


def test_sweep_probe_accepts_empty_cells_but_not_missing_file(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text("M,r,vartheta_numeric,status\n2,0.1,0.5,ok\n7,0.1,,direct_sum_failure\n")
    assert workloads._sweep_written(3, path)
    assert not workloads._sweep_written(3, tmp_path / "none.csv")


def test_check_raising_on_truncated_csv_is_a_failed_invocation(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text("M,r,vartheta_numeric,vartheta_analytic\n2,0.1,0.5\n")
    wl = workloads.Workload("sweep", ["eigs"], path, functools.partial(checks.check_sweep, rows=1))
    problems = worker.checked(wl, 0)
    assert len(problems) == 1 and problems[0].startswith("check raised IndexError")


def test_probe_that_raises_does_not_hold(tmp_path):
    class CrashingCli:
        @staticmethod
        def main(argv):
            raise RuntimeError("crash")

    probe = workloads.Probe("crash", ["simulate", "--out", str(tmp_path / "p.csv")], lambda rc, out: True)
    wl = workloads.Workload("w", ["simulate"], tmp_path / "o.csv", lambda rc, out: [], probes=[probe])
    assert worker.run_probes(CrashingCli, wl) == {"crash": False}


def test_piecewise_linear_integral_is_exact():
    xs = [0.0, 1.0, 2.0, 3.0]
    ys = [0.0, 2.0, 0.0, 4.0]
    # integral over [0.5, 2.5] of the hat-and-ramp interpolant
    want = 0.5 * (1.0 + 2.0) * 0.5 + 0.5 * 2.0 * 1.0 + 0.5 * (0.0 + 2.0) * 0.5
    assert checks.piecewise_linear_integral(xs, ys, 0.5, 2.5) == pytest.approx(want, rel=1e-15)


def test_support_gammas_of_a_constant():
    xs = [math.pi * i / 100 for i in range(101)]
    gammas = checks.mxe_support_gammas(xs, [2.0] * 101, 4, 0.2, math.pi)
    # 2 * |omega_j| * sqrt(M/(r L)) = 2 sqrt(r L / M)
    assert gammas == pytest.approx([2.0 * math.sqrt(0.2 * math.pi / 4)] * 4, rel=1e-12)


def test_seeded_samples_repeat():
    assert workloads.smooth_samples(5, 11) == workloads.smooth_samples(5, 11)
    assert workloads.smooth_samples(5, 11) != workloads.smooth_samples(6, 11)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    value, pct, n = run.tail([float(i) for i in range(1, 21)])
    assert (value, pct, n) == (10.0, 50.0, 20)
