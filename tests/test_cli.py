"""End-to-end tests of the command-line front end.

Most run `main` in process, and `test_exit_code_contract` is the table of
every run that exits 2 or 3 without a file.  A fresh interpreter runs the
CLI where the process is the contract: the BLAS thread count, imports paid
at start-up, and the exit code and files a shell sees (`test_cli_contract`).
"""

import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oblique_stab
from oblique_stab import cli
from oblique_stab.cli import main
from oblique_stab.errors import InvalidArgumentError


def _lines(path):
    return path.read_text().splitlines()


def _data_rows(path):
    return [ln for ln in _lines(path) if ln and not ln.startswith("#")]


def _write_sine_samples(path):
    """201 samples of sin(3x) on [0, pi], with a header row."""
    n = 200
    path.write_text("x,value\n" + "".join(
        f"{math.pi * i / n!r},{math.sin(3 * math.pi * i / n)!r}\n" for i in range(n + 1)
    ))


def _write_reaction_table(path):
    """A one-row reaction table, cos x - 3.5 + 0.3 x on 61 nodes of [0, pi]."""
    xs = [math.pi * i / 60 for i in range(61)]
    path.write_text(
        "x," + ",".join(f"{x!r}" for x in xs) + "\n"
        "0.0," + ",".join(f"{math.cos(x) - 3.5 + 0.3 * x!r}" for x in xs) + "\n"
    )


# A fresh interpreter runs the CLI as `python -m oblique_stab.cli`, and as the
# installed console script too when one is on PATH.
_SRC = str(Path(oblique_stab.__file__).resolve().parents[1])
_LAUNCHERS = [[sys.executable, "-m", "oblique_stab.cli"]]
if script := shutil.which("oblique-stab"):
    _LAUNCHERS.append([script])


def _run_fresh(cwd, args, threads=1):
    """Run `args` in `cwd` as a fresh process that imports this package, with
    its BLAS library limited to `threads` threads and every warning an error."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    env["PYTHONWARNINGS"] = "error"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def _output_at_blas_threads(tmp_path, threads, argv):
    """The file a CLI run in `tmp_path` writes at `threads` BLAS threads."""
    out = tmp_path / f"threads{threads}.csv"
    proc = _run_fresh(tmp_path, [*_LAUNCHERS[0], *argv, "--output", out.name], threads)
    assert proc.returncode == 0, proc.stderr
    return out


# ---------------------------------------------------------------- eigs

def test_eigs_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main([
        "eigs", "--bc", "dirichlet", "--scheme", "mxe",
        "--M", "2..6", "--r", "0.5", "--output", str(out),
    ])
    assert rc == 0
    rows = _data_rows(out)
    assert rows[0] == (
        "M,r,vartheta_numeric,vartheta_analytic,op_norm,vartheta_limit,max_offdiag_theta,status"
    )
    body = [r.split(",") for r in rows[1:]]
    assert [int(r[0]) for r in body] == [2, 3, 4, 5, 6]
    assert [r[-1] for r in body] == ["ok"] * 5
    first = body[0]
    # closed form at M=2, r=0.5 appears in both numeric and analytic columns
    exact = 16.0 / (0.5 * math.pi**2) * math.sin(math.pi / 8) ** 2
    assert float(first[2]) == pytest.approx(exact, rel=1e-12)
    assert float(first[3]) == pytest.approx(exact, rel=1e-12)
    assert float(first[4]) == pytest.approx(1.0 / math.sqrt(exact), rel=1e-12)


def test_eigs_neumann_uni_blank_analytic_column(tmp_path):
    out = tmp_path / "n.csv"
    assert main([
        "eigs", "--bc", "neumann", "--scheme", "uni",
        "--M", "3..5", "--r", "0.2", "--output", str(out),
    ]) == 0
    for row in _data_rows(out)[1:]:
        assert row.split(",")[3] == ""


def test_eigs_slope_footer(tmp_path):
    out = tmp_path / "slope.csv"
    assert main([
        "eigs", "--bc", "neumann", "--scheme", "uni",
        "--M", "10..20", "--r", "0.2", "--output", str(out),
    ]) == 0
    slope_lines = [ln for ln in _lines(out) if ln.startswith("# slope")]
    assert len(slope_lines) == 1
    assert "M[10,20]" in slope_lines[0]
    slope = float(slope_lines[0].split(":")[1])
    assert slope == pytest.approx(-1e-3, rel=0.15)


def test_eigs_deterministic_and_jobs_independent(tmp_path):
    args = ["eigs", "--M", "2..12", "--r", "0.25,0.5", "--bc", "neumann"]
    out = tmp_path / "a.csv"
    assert main(args + ["--output", str(out)]) == 0
    first = out.read_bytes()
    assert main(args + ["--output", str(out)]) == 0
    assert out.read_bytes() == first  # identical invocation, identical bytes
    # --jobs is accepted and changes neither a row nor the config comment
    assert main(args + ["--jobs", "4", "--output", str(out)]) == 0
    assert out.read_bytes() == first


def test_con_sweep_degrades_row_by_row(tmp_path, capsys):
    # con at r = 0.1 loses the direct sum from M = 9 on: those rows carry a
    # status and empty cells, the file is still written, and the exit is 3
    out = tmp_path / "con.csv"
    rc = main(["eigs", "--scheme", "con", "--M", "2..20", "--r", "0.1", "--output", str(out)])
    assert rc == 3
    assert "sweep rows failed" in capsys.readouterr().err
    body = [row.split(",") for row in _data_rows(out)[1:]]
    assert [int(row[0]) for row in body] == list(range(2, 21))
    for row in body:
        numeric = [cell for cell in row[:-1] if cell]
        assert all(math.isfinite(float(cell)) for cell in numeric)
        if row[-1] == "ok":
            assert row[2] and row[4]
        else:
            assert row[-1] == "direct_sum_failure"
            assert numeric == row[:2]
    assert [row[-1] for row in body].count("ok") == 7


def test_failure_message_names_first_failed_row_of_file(tmp_path, capsys):
    # the file lists rows by (r, M), so its first row is r = 0.1, whatever
    # order --r gives and the sweep computes them in
    out = tmp_path / "fail.csv"
    rc = main([
        "eigs", "--scheme", "custom", "--centers", "1.0,1.00000001",
        "--M", "2", "--r", "0.5,0.1", "--output", str(out),
    ])
    assert rc == 3
    body = [row.split(",") for row in _data_rows(out)[1:]]
    assert [(row[1], row[-1]) for row in body] == [
        ("0.10000000000000001", "direct_sum_failure"),
        ("0.5", "direct_sum_failure"),
    ]
    assert "2 of 2 sweep rows failed, the first at M=2 r=0.1:" in capsys.readouterr().err


_SWEEP_GEOMETRY = {
    "mxe": ["--M", "2..12"],
    "uni": ["--M", "2..12"],
    "con": ["--M", "2..12"],  # fails from M = 9 on at r = 0.1
    "custom": ["--centers", "0.5,1.2,1.9,2.6", "--M", "4"],
}


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
@pytest.mark.parametrize("scheme", sorted(_SWEEP_GEOMETRY))
def test_multi_r_sweep_rows_match_single_r_runs(tmp_path, bc, scheme):
    # the rows of one M share the cross-Gram's trig factor across r; a
    # single-r run shares nothing, yet its rows must be the same bytes
    argv = ["eigs", "--bc", bc, "--scheme", scheme, *_SWEEP_GEOMETRY[scheme]]
    out = tmp_path / "all.csv"
    rc = main(argv + ["--r", "0.1,0.3,0.5", "--output", str(out)])
    joined, codes = [], []
    for r in ("0.1", "0.3", "0.5"):
        one = tmp_path / f"r{r}.csv"
        codes.append(main(argv + ["--r", r, "--output", str(one)]))
        joined += _data_rows(one)[1:]
    assert rc == max(codes)
    assert _data_rows(out)[1:] == joined


def test_eigs_custom_centers(tmp_path):
    out = tmp_path / "c.csv"
    assert main([
        "eigs", "--scheme", "custom", "--centers", "0.8,1.6,2.4",
        "--M", "3", "--r", "0.2", "--output", str(out),
    ]) == 0
    assert len(_data_rows(out)) == 2


def test_eigs_coincident_centers_fail_the_direct_sum(tmp_path):
    out = tmp_path / "c.csv"
    assert main([
        "eigs", "--scheme", "custom", "--centers", "1.0,1.0000000000001",
        "--M", "2", "--r", "0.2", "--output", str(out),
    ]) == 3
    assert _data_rows(out)[1] == "2,0.20000000000000001,,,,,,direct_sum_failure"


def test_eigs_uni_sweep_skips_m_below_constraint(tmp_path):
    # uni needs M >= r/(1-r): all of 2..20 at r = 0.1, only 9..20 at r = 0.9;
    # a sweep with no admissible pair still exits 2 (test_exit_code_contract)
    out = tmp_path / "u.csv"
    assert main([
        "eigs", "--scheme", "uni", "--M", "2..20", "--r", "0.1,0.9", "--output", str(out),
    ]) == 0
    body = [row.split(",") for row in _data_rows(out)[1:]]
    assert [(int(row[0]), float(row[1])) for row in body] == [
        *((M, 0.1) for M in range(2, 21)), *((M, 0.9) for M in range(9, 21))
    ]
    assert all(row[-1] == "ok" for row in body)


# ---------------------------------------------------------------- project

def test_project_constant_input(tmp_path):
    src = tmp_path / "input.csv"
    xs = np.linspace(0.0, math.pi, 201)
    src.write_text("\n".join(f"{x:.17g},2.0" for x in xs) + "\n")
    out = tmp_path / "proj.csv"
    rc = main([
        "project", "--bc", "dirichlet", "--M", "4", "--r", "0.1",
        "--input", str(src), "--output", str(out),
    ])
    assert rc == 0
    text = _lines(out)
    resid = {ln.split(":")[0].strip("# ") for ln in text if ln.startswith("#")}
    orth = next(ln for ln in text if ln.startswith("# orthogonal_residual_l2"))
    obli = next(ln for ln in text if ln.startswith("# oblique_residual_l2"))
    orth_val = float(orth.split(":")[1])
    obli_val = float(obli.split(":")[1])
    # the orthogonal projection leaves exactly the mass outside the supports
    assert orth_val == pytest.approx(2.0 * math.sqrt(0.9 * math.pi), rel=1e-9)
    assert obli_val >= orth_val
    header = next(ln for ln in text if not ln.startswith("#"))
    assert header == "x,input,oblique,orthogonal"
    assert len(_data_rows(out)) == 1 + len(xs)


def test_project_scales_exactly_with_a_power_of_two(tmp_path):
    # scaling the input by 2^600 scales every number project prints by
    # 2^600 exactly, residuals included, although their squares overflow
    rng = np.random.default_rng(1)
    xs = np.linspace(0.0, math.pi, 2001)
    a, b = rng.normal(size=(2, 8)) / np.arange(1, 9)
    ks = np.arange(1, 9)
    ys = rng.normal() + np.sin(np.outer(xs, ks)) @ a + np.cos(np.outer(xs, ks)) @ b
    comments = []
    for scale in (1.0, 2.0**600):
        src, out = tmp_path / "in.csv", tmp_path / "out.csv"
        src.write_text("".join(f"{x!r},{y * scale!r}\n" for x, y in zip(xs.tolist(), ys.tolist())))
        assert main(["project", "--M", "20", "--r", "0.3", "--input", str(src),
                     "--output", str(out)]) == 0
        lines = [ln.split(": ")[1] for ln in _lines(out)[1:5]]
        comments.append([np.array(ln.split(","), dtype=float) for ln in lines])
    for plain, scaled in zip(*comments):
        assert np.isfinite(scaled).all() and np.array_equal(scaled, plain * 2.0**600)


# Cells are parsed in one batch; a failure must still name the first bad
# cell, or the first short row, in file order.
@pytest.mark.parametrize(
    "text, message",
    [
        ("0,1\nfoo,bar\n", "--input expects a number, got 'foo'"),
        ("0,1\n1, bar \n2\n", "--input expects a number, got 'bar'"),
        ("0,1\n2\n3,bar\n", "each sample row needs 'x,value'"),
        ("0,1\n1,nan\n2,bar\n", "--input expects a finite number, got 'nan'"),
        ("0,1\n1,bar\n2,inf\n", "--input expects a number, got 'bar'"),
        ("x,value\n0,1\n1,\n", "--input expects a number, got ''"),
    ],
    ids=["x before value", "bad number before short row", "short row before bad number",
         "non-finite before unparsable", "unparsable before non-finite", "empty cell"],
)
def test_sample_reader_names_first_bad_cell(tmp_path, text, message):
    src = tmp_path / "input.csv"
    src.write_text(text)
    with pytest.raises(InvalidArgumentError) as exc:
        cli._load_samples("input", str(src))
    assert str(exc.value).endswith(message)


def test_sample_reader_strips_cells_and_skips_header(tmp_path):
    src = tmp_path / "input.csv"
    src.write_text("# samples\n x , value \n\n 0.0 , 1 \n1.5,\t2 , 9, note\n  3e0 ,3.25\n")
    xs, vals = cli._load_samples("input", str(src))
    assert xs.tolist() == [0.0, 1.5, 3.0] and vals.tolist() == [1.0, 2.0, 3.25]


@pytest.mark.parametrize(
    "text, message",
    [
        ("x,0,1\n0,q,2\n1,2\n", "--reaction expects a number, got 'q'"),
        ("x,0,1\n0,1\n1,q,2\n", "reaction table rows have inconsistent lengths"),
        ("x,0,1\n0,nan,2\n1,q,2\n", "--reaction expects a finite number, got 'nan'"),
        ("x,0,zz\n0,q,2\n", "--reaction expects a number, got 'zz'"),
        ("x,0,1\n", "reaction table has no time rows"),
    ],
)
def test_reaction_table_names_first_bad_cell(tmp_path, text, message):
    src = tmp_path / "react.csv"
    src.write_text(text)
    with pytest.raises(InvalidArgumentError, match=re.escape(message)):
        cli._parse_reaction(f"table:{src}", 0.1, math.pi)


# From 98 actuators the quadrature product (w f(x)) @ family(x) runs on
# threaded BLAS, and from 100 the M x M solves too; up to 96 every line of a
# project file, coefficients and residuals included, is the same at 1 and 2
# threads.
@pytest.mark.parametrize("bc", [[], ["--bc", "neumann"]], ids=["dirichlet", "neumann"])
def test_project_file_independent_of_blas_threads(tmp_path, bc):
    _write_sine_samples(tmp_path / "samples.csv")
    argv = ["project", *bc, "--M", "96", "--r", "0.1", "--input", "samples.csv"]
    one, two = (_output_at_blas_threads(tmp_path, threads, argv) for threads in (1, 2))
    assert len(_lines(one)) == 1 + 4 + 1 + 201
    assert one.read_bytes() == two.read_bytes()


# ---------------------------------------------------------------- simulate

def test_simulate_small_run(tmp_path):
    out = tmp_path / "run.csv"
    rc = main([
        "simulate", "--bc", "dirichlet", "--M", "6", "--r", "0.1",
        "--N", "201", "--k", "2e-3", "--T", "0.2", "--output", str(out),
    ])
    assert rc == 0
    rows = _data_rows(out)
    assert rows[0] == "t,l2_norm,feedback_on"
    body = [r.split(",") for r in rows[1:]]
    assert len(body) == int(0.2 / 2e-3) + 1
    assert float(body[0][0]) == 0.0
    assert all(r[2] == "1" for r in body)
    norms = [float(r[1]) for r in body]
    assert norms[-1] < norms[0]


def test_simulate_feedback_off(tmp_path):
    out = tmp_path / "free.csv"
    rc = main([
        "simulate", "--feed-on", "off", "--N", "201", "--k", "2e-3",
        "--T", "0.2", "--output", str(out),
    ])
    assert rc == 0
    body = [r.split(",") for r in _data_rows(out)[1:]]
    assert all(r[2] == "0" for r in body)
    norms = [float(r[1]) for r in body]
    assert norms[-1] > norms[0]  # unstable reaction, no feedback


def test_simulate_feed_on_window(tmp_path):
    out = tmp_path / "win.csv"
    rc = main([
        "simulate", "--feed-on", "0:0.1", "--N", "201", "--k", "2e-3",
        "--T", "0.2", "--output", str(out),
    ])
    assert rc == 0
    body = [r.split(",") for r in _data_rows(out)[1:]]
    flags = [r[2] for r in body]
    assert flags[0] == "1"
    assert flags[-1] == "0"
    assert "0" in flags and "1" in flags


def test_simulate_feed_on_window_at_the_last_step_taken(tmp_path):
    out = tmp_path / "last.csv"
    assert main(["simulate", "--feed-on", "4.499:5", "--N", "101", "--output", str(out)]) == 0
    flags = [r.split(",")[2] for r in _data_rows(out)[1:]]
    assert flags[-2:] == ["1", "1"] and set(flags[:-2]) == {"0"}


def test_simulate_snapshots(tmp_path):
    out = tmp_path / "run.csv"
    rc = main([
        "simulate", "--N", "101", "--k", "2e-3", "--T", "0.1",
        "--snapshot-times", "0,0.05,0.1", "--output", str(out),
    ])
    assert rc == 0
    snap = tmp_path / "run_snapshots.csv"
    assert snap.exists()
    rows = _data_rows(snap)
    assert rows[0].startswith("x,t=0")
    assert rows[0].count(",") == 3
    assert len(rows) == 1 + 101
    # first snapshot is the initial profile 0.1*x
    first = rows[1].split(",")
    last = rows[-1].split(",")
    assert float(first[1]) == pytest.approx(0.0)
    assert float(last[1]) == pytest.approx(0.1 * math.pi, rel=1e-12)


def test_snapshot_rows_are_per_cell_formatting(tmp_path, monkeypatch):
    # each row is the node then every snapshot's value there, "%.17g" per cell
    import oblique_stab.cli as cli

    runs = []
    run_closed_loop = cli.run_closed_loop

    def spy(grid, *args, **kwargs):
        runs.append((grid.nodes, run_closed_loop(grid, *args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(cli, "run_closed_loop", spy)
    out = tmp_path / "run.csv"
    rc = main([
        "simulate", "--N", "101", "--k", "2e-3", "--T", "0.02",
        "--snapshot-times", "0,0.01,0.02", "--output", str(out),
    ])
    assert rc == 0
    ((nodes, run),) = runs
    expected = [
        ",".join("%.17g" % v for v in (nodes[i], *run.snapshots[:, i])) for i in range(nodes.size)
    ]
    assert _data_rows(tmp_path / "run_snapshots.csv")[1:] == expected


def test_simulate_oscillating_reaction(tmp_path):
    out = tmp_path / "osc.csv"
    rc = main([
        "simulate", "--reaction", "oscillating", "--N", "201", "--k", "2e-3",
        "--T", "0.1", "--M", "8", "--output", str(out),
    ])
    assert rc == 0
    assert len(_data_rows(out)) == 1 + int(0.1 / 2e-3) + 1


def test_simulate_table_reaction(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text(
        "x,0.0,3.141592653589793\n"
        "0.0,-3.5,-3.5\n"
        "10.0,-3.5,-3.5\n"
    )
    out = tmp_path / "tab.csv"
    rc = main([
        "simulate", "--reaction", f"table:{table}", "--N", "201",
        "--k", "2e-3", "--T", "0.1", "--output", str(out),
    ])
    assert rc == 0
    # constant table reproduces the constant reaction up to rounding in the
    # bilinear interpolation
    ref = tmp_path / "ref.csv"
    assert main([
        "simulate", "--reaction", "constant:-3.5", "--N", "201",
        "--k", "2e-3", "--T", "0.1", "--output", str(ref),
    ]) == 0
    got = [float(r.split(",")[1]) for r in _data_rows(out)[1:]]
    want = [float(r.split(",")[1]) for r in _data_rows(ref)[1:]]
    assert np.allclose(got, want, rtol=1e-12)


def test_simulate_y0_samples(tmp_path):
    y0 = tmp_path / "y0.csv"
    xs = np.linspace(0.0, math.pi, 51)
    y0.write_text("\n".join(f"{x:.17g},{0.1 * x:.17g}" for x in xs) + "\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    common = ["simulate", "--N", "201", "--k", "2e-3", "--T", "0.1"]
    assert main(common + ["--y0", f"samples:{y0}", "--output", str(out_a)]) == 0
    assert main(common + ["--y0", "linear:0.1", "--output", str(out_b)]) == 0
    got = [float(r.split(",")[1]) for r in _data_rows(out_a)[1:]]
    want = [float(r.split(",")[1]) for r in _data_rows(out_b)[1:]]
    assert np.allclose(got, want, rtol=1e-12)


def test_simulate_defaults_match_benchmark_reference_norms(tmp_path):
    # The benchmark checks every 10th norm of the default run against this
    # file at 1e-9 relative; a change to the time step must hold it too.
    ref_path = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "closed_loop_norms.csv"
    reference = [ln.split(",") for ln in _data_rows(ref_path)]
    assert len(reference) == 451
    out = tmp_path / "run.csv"
    assert main(["simulate", "--output", str(out)]) == 0
    norms = {float(t): float(n) for t, n, _ in (r.split(",") for r in _data_rows(out)[1:])}
    assert len(norms) == 4501
    worst = max(abs(norms[float(t)] - float(n)) / float(n) for t, n in reference)
    assert worst <= 1e-9


# ---------------------------------------------------------------- suffcond

def test_suffcond_reports_minimal_m(tmp_path):
    out = tmp_path / "s.csv"
    rc = main([
        "suffcond", "--bc", "dirichlet", "--nu", "0.1", "--r", "0.1",
        "--a-bound", "3.5", "--output", str(out),
    ])
    assert rc == 0
    kv = dict(
        ln.split("=", 1) for ln in _lines(out) if "=" in ln and not ln.startswith("#")
    )
    assert kv["swept_minimal_M"] == "75"
    assert kv["closed_form_minimal_M"] == "75"
    assert float(kv["op_norm_limit"]) == pytest.approx(
        math.sqrt(0.1) * math.pi / (2 * math.sin(0.05 * math.pi)), rel=1e-12
    )
    assert float(kv["margin"]) > 0


def test_suffcond_zero_bound_gives_first_m(tmp_path):
    out = tmp_path / "s0.csv"
    assert main([
        "suffcond", "--nu", "0.1", "--r", "0.5", "--a-bound", "0", "--output", str(out),
    ]) == 0
    kv = dict(
        ln.split("=", 1) for ln in _lines(out) if "=" in ln and not ln.startswith("#")
    )
    assert kv["swept_minimal_M"] == "1"
    assert float(kv["alpha_next"]) == pytest.approx(4.0)


def test_suffcond_unreachable_bound(tmp_path):
    out = tmp_path / "sx.csv"
    assert main([
        "suffcond", "--nu", "0.1", "--r", "0.1", "--a-bound", "100",
        "--max-M", "5", "--output", str(out),
    ]) == 0
    assert "swept_minimal_M=-1" in _lines(out)


@pytest.mark.parametrize("a_bound, minimal", [("3.5", "42"), ("0", "2")])
def test_suffcond_skips_m_below_uni_constraint(tmp_path, a_bound, minimal):
    # uni at r = 0.6 needs M >= r/(1-r) = 1.5, so the sweep starts at M = 2
    out = tmp_path / "s.csv"
    assert main([
        "suffcond", "--scheme", "uni", "--r", "0.6", "--a-bound", a_bound,
        "--output", str(out),
    ]) == 0
    assert f"swept_minimal_M={minimal}" in _lines(out)


def test_suffcond_direct_sum_failure_still_writes_file(tmp_path, capsys):
    # con at r = 0.1 loses the direct sum from M = 9 on, before the margin holds
    out = tmp_path / "s.csv"
    assert main([
        "suffcond", "--scheme", "con", "--r", "0.1", "--a-bound", "0.5",
        "--output", str(out),
    ]) == 3
    lines = _lines(out)
    assert "swept_minimal_M=-1" in lines
    assert any(ln.startswith("# first failed M=9:") for ln in lines)
    assert "the sweep failed first at M=9:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, closed_form",
    [
        # con at r = 0.1 fails the direct sum from M = 9 on: no closed form
        ("--scheme con --r 0.1 --a-bound 0.5", ""),
        # the limit norm gives M = 1, which uni placement at r = 0.6 rejects
        ("--scheme uni --r 0.6 --a-bound 0", "2"),
    ],
)
def test_suffcond_closed_form_only_where_placement_reaches_it(tmp_path, argv, closed_form):
    out = tmp_path / "s.csv"
    main(["suffcond", *argv.split(), "--output", str(out)])
    assert f"closed_form_minimal_M={closed_form}" in _lines(out)


# ---------------------------------------------------------------- config file

def test_config_file_merge_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# settings\nM=2..4\nr=0.5\nbc=neumann\n")
    out_a = tmp_path / "a.csv"
    assert main(["eigs", "--config", str(cfg), "--output", str(out_a)]) == 0
    assert len(_data_rows(out_a)) == 1 + 3
    # flags beat the config file
    out_b = tmp_path / "b.csv"
    assert main(["eigs", "--config", str(cfg), "--M", "7", "--output", str(out_b)]) == 0
    rows = _data_rows(out_b)
    assert len(rows) == 2
    assert rows[1].split(",")[0] == "7"


def test_config_comment_records_settings(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["eigs", "--M", "3", "--r", "0.5", "--output", str(out)]) == 0
    head = _lines(out)[0]
    assert head.startswith("# config: command=eigs")
    assert "M=3" in head and "r=0.5" in head


# ---------------------------------------------------------------- exit codes

# The exit-code contract of the README as a table: every bad configuration
# exits 2, and a numerical failure 3, with one line on stderr and no file.
# The runner writes _INPUTS into a fresh directory and runs a row there in
# process with warnings as errors.  It checks the exit code, the stderr line
# (only up to "..." where the line goes on with OS error text or argparse's
# choices) and that no file but the inputs appears.  A new guard is one more
# row.
_INPUTS = {
    "samples.csv": "0.0,1.0\n3.141592653589793,1.0\n",
    "tiny.csv": "x,value\n0.0,0.0\n5e-301,1.0\n1e-300,0.0\n",
    "outside.csv": "5.0,1.0\n9.0,1.0\n",
    "late.csv": "1.0,5.0\n3.141592653589793,5.0\n",
    "early.csv": "0.0,5.0\n2.0,5.0\n",
    "one.csv": "0.0,1.0\n",
    "header.csv": "x,value\n",
    "commented.csv": "# x,value\nx,value\n1.0,2.0\n",
    "comments.csv": "# x,value\n",
    "decreasing.csv": "0.0,1.0\n2.0,1.0\n1.0,1.0\n",
    "unknown.cfg": "wobble=3\n",
    "no_equals.cfg": "M 2\n",
    "t_header.csv": "t,0,1\n0,1,2\n",
    "x_decreasing.csv": "x,1,0\n0,1,2\n",
    "t_decreasing.csv": "x,0,1\n1,1,2\n0,1,2\n",
    "huge.csv": "0,1e308\n3.141592653589793,-1e308\n",
}

_COUPLING = (
    " of the coupling matrix between sampled actuators and eigenfunctions is at most 1e-08;"
    " refine the mesh so every actuator support contains interior nodes, or change the placement"
)

_EXITS = [
    # flags
    ("frobnicate --output out.csv", 2,
     "oblique-stab: error: argument command: invalid choice: 'frobnicate'..."),
    ("norm --M 3 --r 0.5 --output out.csv", 2,
     "oblique-stab: error: argument command: invalid choice: 'norm'..."),
    ("eigs --bc sideways --M 2 --r 0.5 --output out.csv", 2,
     "error: --bc must be one of dirichlet, neumann; got 'sideways'"),
    ("eigs --M 0 --r 0.5 --output out.csv", 2, "error: --M must be positive, got 0"),
    ("eigs --M 5..2 --r 0.5 --output out.csv", 2,
     "error: --M range must satisfy 1 <= lo <= hi, got '5..2'"),
    ("eigs --M 0..3 --r 0.5 --output out.csv", 2,
     "error: --M range must satisfy 1 <= lo <= hi, got '0..3'"),
    ("project --M 2..4 --r 0.1 --input samples.csv --output out.csv", 2,
     "error: --M expects an integer, got '2..4'"),
    ("eigs --M 2 --r 1.5 --output out.csv", 2,
     "error: volume fraction must lie in (0, 1), got 1.5"),
    ("eigs --M 2 --r , --output out.csv", 2, "error: --r list is empty"),
    ("eigs --M 2..12 --r 0.25,0.5 --bc neumann --jobs x --output out.csv", 2,
     "error: --jobs expects an integer, got 'x'"),
    ("eigs --centers 1.0 --M 1 --r 0.5 --output out.csv", 2,
     "error: --centers is only valid with --scheme custom"),
    ("simulate --feed-on nonsense --T 0.1 --output out.csv", 2,
     "error: --feed-on expects 't0:t1' or 'off', got 'nonsense'"),
    ("simulate --feed-on 0.5:0.1 --output out.csv", 2,
     "error: --feed-on needs 0 <= t0 < t1, got '0.5:0.1'"),
    ("simulate --reaction sinusoid --T 0.1 --output out.csv", 2,
     "error: --reaction must be 'constant:<value>', 'oscillating', or 'table:<file>',"
     " got 'sinusoid'"),
    ("simulate --T 0.01 --y0 bogus --output out.csv", 2,
     "error: --y0 must be 'linear:<slope>' or 'samples:<file>', got 'bogus'"),
    # slope * L overflows; 1e300 gives a finite state whose norm overflows
    ("simulate --T 0.01 --y0 linear:1e308 --output out.csv", 2,
     "error: --y0 slope 1e+308 overflows at x = L = 3.14159"),
    ("simulate --T nan --output out.csv", 2, "error: --T expects a finite number, got 'nan'"),
    ("simulate --k nan --output out.csv", 2, "error: --k expects a finite number, got 'nan'"),
    ("simulate --lam inf --output out.csv", 2, "error: --lam expects a finite number, got 'inf'"),
    ("suffcond --a-bound nan --max-M 5 --output out.csv", 2,
     "error: --a-bound expects a finite number, got 'nan'"),
    ("suffcond --a-bound inf --max-M 5 --output out.csv", 2,
     "error: --a-bound expects a finite number, got 'inf'"),
    ("eigs --scheme custom --centers nan,1 --M 2 --r 0.1 --output out.csv", 2,
     "error: --centers expects a finite number, got 'nan'"),
    ("suffcond --nu 0.1 --r 0.1 --output out.csv", 2,
     "error: --a-bound is required for this command"),
    ("suffcond --a-bound -1 --output out.csv", 2, "error: --a-bound must be nonnegative, got -1.0"),
    ("suffcond --a-bound 3.5 --max-M 0 --output out.csv", 2,
     "error: --max-M must be positive, got 0"),
    ("suffcond --a-bound 3.5 --max-M -5 --output out.csv", 2,
     "error: --max-M must be positive, got -5"),
    ("suffcond --scheme custom --a-bound 1 --output out.csv", 2,
     "error: suffcond sweeps M, which --scheme custom fixes"),
    # custom centers fix M, so suffcond has no --centers flag
    ("suffcond --scheme custom --centers 1.0 --a-bound 1 --output out.csv", 2,
     "oblique-stab: error: unrecognized arguments: --centers 1.0"),
    # files
    ("eigs --config unknown.cfg --M 2 --r 0.5 --output out.csv", 2,
     "error: unknown.cfg: unknown config keys ['wobble']"),
    ("eigs --config no_equals.cfg --M 2 --r 0.5 --output out.csv", 2,
     "error: no_equals.cfg:1: expected 'key=value', got 'M 2'"),
    ("project --M 2 --r 0.1 --input missing.csv --output out.csv", 2,
     "error: cannot read missing.csv: ..."),
    ("project --M 2 --r 0.1 --input comments.csv --output out.csv", 2,
     "error: comments.csv contains no data rows"),
    ("project --M 2 --r 0.1 --input one.csv --output out.csv", 2,
     "error: one.csv: need at least two samples, got 1"),
    ("project --M 2 --r 0.1 --input header.csv --output out.csv", 2,
     "error: header.csv: need at least two samples, got 0"),
    ("project --M 2 --r 0.1 --input commented.csv --output out.csv", 2,
     "error: commented.csv: need at least two samples, got 1"),
    ("simulate --T 0.01 --y0 samples:one.csv --output out.csv", 2,
     "error: one.csv: need at least two samples, got 1"),
    ("simulate --T 0.01 --y0 samples:header.csv --output out.csv", 2,
     "error: header.csv: need at least two samples, got 0"),
    ("simulate --T 0.01 --y0 samples:commented.csv --output out.csv", 2,
     "error: commented.csv: need at least two samples, got 1"),
    ("project --M 2 --r 0.1 --input decreasing.csv --output out.csv", 2,
     "error: decreasing.csv: sample x values must be strictly increasing"),
    # np.interp would extend the end values as constants over any part of
    # [0, L] that the samples leave out
    ("project --M 2 --r 0.1 --input outside.csv --output out.csv", 2,
     "error: --input samples must span [0, L] from x = 0 to x = L"),
    ("simulate --T 0.01 --y0 samples:outside.csv --output out.csv", 2,
     "error: --y0 samples must span [0, L] from x = 0 to x = L"),
    ("project --M 2 --r 0.1 --input late.csv --output out.csv", 2,
     "error: --input samples must span [0, L] from x = 0 to x = L"),
    ("simulate --T 0.01 --N 101 --y0 samples:late.csv --output out.csv", 2,
     "error: --y0 samples must span [0, L] from x = 0 to x = L"),
    ("project --M 2 --r 0.1 --input early.csv --output out.csv", 2,
     "error: --input samples must span [0, L] from x = 0 to x = L"),
    ("simulate --T 0.01 --N 101 --y0 samples:early.csv --output out.csv", 2,
     "error: --y0 samples must span [0, L] from x = 0 to x = L"),
    ("simulate --T 0.01 --reaction table:t_header.csv --output out.csv", 2,
     "error: reaction table must start with a header row 'x,<x1>,<x2>,...'"),
    ("simulate --T 0.01 --reaction table:x_decreasing.csv --output out.csv", 2,
     "error: reaction table needs >= 2 strictly increasing x coordinates"),
    ("simulate --T 0.01 --reaction table:t_decreasing.csv --output out.csv", 2,
     "error: reaction table needs strictly increasing time values"),
    ("eigs --M 2 --r 0.5 --output missing/x.csv", 2, "error: cannot write missing/x.csv: ..."),
    ("project --M 2 --r 0.5 --input samples.csv --output missing/x.csv", 2,
     "error: cannot write missing/x.csv: ..."),
    ("simulate --N 101 --T 0.01 --output missing/x.csv", 2,
     "error: cannot write missing/x.csv: ..."),
    ("suffcond --a-bound 0 --output missing/x.csv", 2, "error: cannot write missing/x.csv: ..."),
    # an empty --output writes to stdout, which has no snapshots file beside it
    ("simulate --N 101 --k 2e-3 --T 0.1 --snapshot-times 0,0.1", 2,
     "error: --snapshot-times requires --output"),
    ("simulate --N 101 --k 2e-3 --T 0.1 --snapshot-times 0,0.1 --output ''", 2,
     "error: --snapshot-times requires --output"),
    # runs
    ("simulate --L 0 --reaction oscillating --T 0.01 --output out.csv", 2,
     "error: domain length must be positive and finite, got 0.0"),
    ("simulate --N 2 --T 0.01 --output out.csv", 2,
     "error: node count must be an integer >= 3, got 2"),
    ("simulate --T 0.0001 --output out.csv", 2,
     "error: final time 0.0001 is shorter than one step 0.001"),
    # 1e18 steps cannot be allocated; the run fails before it steps
    ("simulate --T 1e15 --N 101 --output out.csv", 2,
     "error: 1000000000000000000 time steps (T/k) need more memory than is available"),
    # T/k overflows to inf, or exceeds numpy's largest array
    ("simulate --k 1e-320 --T 1 --N 101 --output out.csv", 2,
     "error: inf time steps (T/k) need more memory than is available"),
    ("simulate --T 1e20 --k 1 --N 101 --output out.csv", 2,
     "error: 100000000000000000000 time steps (T/k) need more memory than is available"),
    # 1e14 nodes need 728 TiB, more than any address space, so the grid's
    # allocation fails without touching memory
    ("simulate --N 100000000000000 --output out.csv", 2,
     "error: 100000000000000 nodes need more memory than is available"),
    # a window that never opens, or flags only the final state, from which no
    # step is taken, would silently leave free dynamics
    ("simulate --feed-on 5:6 --N 101 --output out.csv", 2,
     "error: feedback window [5, 6] starts after the final time 4.5"),
    ("simulate --feed-on 4.5:5 --N 101 --output out.csv", 2,
     "error: feedback window [4.5, 5] acts on no step before the final time 4.5"),
    ("simulate --feed-on 4.5000000001:5 --N 101 --output out.csv", 2,
     "error: feedback window [4.5000000001, 5] starts after the final time 4.5"),
    ("simulate --N 101 --T 0.01 --snapshot-times 5 --output out.csv", 2,
     "error: snapshot times must lie in [0, 0.01], got (5.0,)"),
    ("simulate --N 101 --T 0.01 --snapshot-times -0.001 --output out.csv", 2,
     "error: snapshot times must lie in [0, 0.01], got (-0.001,)"),
    ("simulate --N 101 --T 0.01 --snapshot-times 0,0.011 --output out.csv", 2,
     "error: snapshot times must lie in [0, 0.01], got (0.0, 0.011)"),
    # a sweep with no admissible pair; free dynamics build the feedback
    # operator too, so off rejects what on rejects
    ("eigs --scheme uni --M 2 --r 0.9 --output out.csv", 2,
     "error: uniform placement requires M >= r/(1-r): M=2 < 9 for r=0.9"),
    ("simulate --scheme uni --r 0.9 --M 2 --N 101 --T 0.01 --feed-on off --output out.csv", 2,
     "error: uniform placement requires M >= r/(1-r): M=2 < 9 for r=0.9"),
    ("simulate --scheme uni --r 0.9 --M 2 --N 101 --T 0.01 --feed-on 0:0.005 --output out.csv",
     2, "error: uniform placement requires M >= r/(1-r): M=2 < 9 for r=0.9"),
    # the largest eigenvalue (top pi/L)^2 overflows; at 1e-310, pi/L is
    # already inf, and at 3e-154 (pi/L)^2 is finite and the largest is not
    ("eigs --M 2..4 --r 0.1 --L 1e-300 --output out.csv", 2,
     "error: interval length L = 1e-300 overflows (2pi/L)^2"),
    ("suffcond --a-bound 3.5 --L 1e-300 --output out.csv", 2,
     "error: interval length L = 1e-300 overflows (1pi/L)^2"),
    ("project --M 2 --r 0.1 --L 1e-300 --input tiny.csv --output out.csv", 2,
     "error: interval length L = 1e-300 overflows (2pi/L)^2"),
    ("simulate --L 1e-160 --T 0.01 --output out.csv", 2,
     "error: interval length L = 1e-160 overflows (6pi/L)^2"),
    ("simulate --L 1e-200 --reaction oscillating --T 0.01 --output out.csv", 2,
     "error: interval length L = 1e-200 overflows (1pi/L)^2"),
    ("simulate --L 1e-310 --output out.csv", 2,
     "error: interval length L = 1e-310 overflows (6pi/L)^2"),
    ("eigs --M 2..4 --r 0.1 --L 3e-154 --output out.csv", 2,
     "error: interval length L = 3e-154 overflows (2pi/L)^2"),
    ("suffcond --a-bound 3.5 --L 3e-154 --output out.csv", 2,
     "error: interval length L = 3e-154 overflows (2pi/L)^2"),
    ("simulate --T 0.01 --L 3e-154 --output out.csv", 2,
     "error: interval length L = 3e-154 overflows (6pi/L)^2"),
    # a placement numerator (2M - 1) L or the cross-Gram row scale
    # sqrt(8M/(r pi^2)) overflows
    ("eigs --M 2..4 --r 0.1 --L 1e308 --output out.csv", 2,
     "error: interval length L = 1e+308 is too large to place 2 actuators"),
    ("suffcond --a-bound 3.5 --L 1e308 --output out.csv", 2,
     "error: interval length L = 1e+308 is too large to place 2 actuators"),
    ("simulate --T 0.01 --L 1e308 --output out.csv", 2,
     "error: interval length L = 1e+308 is too large to place 6 actuators"),
    ("eigs --M 1..3 --r 1e-310 --output out.csv", 2,
     "error: volume fraction r = 1e-310 is too small for the row scale of G"),
    ("eigs --M 1..2 --r 1e-310 --output out.csv", 2,
     "error: volume fraction r = 1e-310 is too small for the row scale of G"),
    # a side of the margin test or the closed-form count overflows
    ("suffcond --a-bound 1e160 --output out.csv", 2,
     "error: the margin test overflows at nu=0.1, a_bound=1e+160"),
    ("suffcond --a-bound 1e308 --output out.csv", 2,
     "error: the margin test overflows at nu=0.1, a_bound=1e+308"),
    ("suffcond --a-bound 3.5 --nu 1e308 --output out.csv", 2,
     "error: the margin test overflows at nu=1e+308, a_bound=3.5"),
    ("suffcond --a-bound 3.5 --nu 1e-320 --output out.csv", 2,
     "error: --L, --nu and --a-bound overflow closed_form_minimal_M"),
    # numerical failures: a coupling on the grid that fails the sigma-ratio
    # test of the cross-Gram, on a coarse mesh or a placement eigs rejects
    ("simulate --N 21 --T 0.01 --feed-on off --output out.csv", 3,
     "numerical failure: sigma_min/sigma_max 0.000e+00" + _COUPLING),
    ("simulate --N 21 --T 0.01 --feed-on 0:0.005 --output out.csv", 3,
     "numerical failure: sigma_min/sigma_max 0.000e+00" + _COUPLING),
    ("simulate --scheme con --M 9 --r 0.1 --T 0.01 --output out.csv", 3,
     "numerical failure: sigma_min/sigma_max 8.446e-10" + _COUPLING),
    ("simulate --bc neumann --scheme con --M 9 --r 0.1 --T 0.01 --output out.csv", 3,
     "numerical failure: sigma_min/sigma_max 2.048e-10" + _COUPLING),
    # nearly coincident custom centers defeat the direct-sum split; with no
    # --output the failed sweep goes to stdout
    ("eigs --scheme custom --centers 1.0,1.00000001 --M 2 --r 0.2", 3,
     "numerical failure: 1 of 1 sweep rows failed, the first at M=2 r=0.2: sigma_min/sigma_max"
     " 3.885e-09 of the cross-Gram is at most 1e-08; the actuator span does not complement the"
     " spectral subspace"),
    # the interpolant's slope between samples +-1e308 overflows: no numpy warning
    ("project --M 2 --r 0.1 --input huge.csv --output out.csv", 3,
     "numerical failure: oblique_coefficients is not finite; the input overflows"),
    # nu = 1e308 overflows the once-per-run products: no numpy warning first
    ("simulate --nu 1e308 --output out.csv", 3,
     "numerical failure: solution norm is nan at step 1, t = 0.001; the run blew up"
     " (reduce the time step or the reaction)"),
    ("simulate --reaction constant:-1e6 --T 0.5 --output out.csv", 3,
     "numerical failure: solution norm is inf at step 49, t = 0.049; the run blew up"
     " (reduce the time step or the reaction)"),
]


@pytest.mark.parametrize(
    "argv, rc, err", _EXITS, ids=[argv.replace(" --output out.csv", "") for argv, _, _ in _EXITS]
)
def test_exit_code_contract(tmp_path, monkeypatch, capsys, argv, rc, err):
    monkeypatch.chdir(tmp_path)
    for name, text in _INPUTS.items():
        Path(name).write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(shlex.split(argv)) == rc
    *usage, line = capsys.readouterr().err.splitlines()
    assert line == err or (err.endswith("...") and line.startswith(err[:-3]))
    if usage:  # argparse prints its usage above its error line
        assert line.startswith("oblique-stab: error: ") and usage[0].startswith("usage: ")
    assert sorted(os.listdir()) == sorted(_INPUTS)


# ---------------------------------------------------------------- failure modes

def test_tiny_volume_fraction_keeps_closed_forms(tmp_path):
    # r sinc^2 keeps the closed forms of r = 1e-200 nonzero and equal to the
    # numeric vartheta; the limit is half the extra eigenvalue at M = 1
    out = tmp_path / "tiny_r.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eigs", "--M", "1..3", "--r", "1e-200", "--output", str(out)]) == 0
    rows = [row.split(",") for row in _data_rows(out)[1:]]
    assert [row[0] for row in rows] == ["1", "2", "3"]
    for row in rows:
        numeric, analytic, limit = float(row[2]), float(row[3]), float(row[5])
        assert analytic == pytest.approx(numeric, rel=1e-15, abs=0.0)
        assert limit * (2 if row[0] == "1" else 1) == pytest.approx(numeric, rel=1e-15, abs=0.0)


def test_suffcond_tiny_volume_fraction_exits_zero(tmp_path):
    # vartheta_limit no longer underflows to 0, so op_norm_limit = r^-1/2
    out = tmp_path / "suff.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["suffcond", "--a-bound", "3.5", "--r", "1e-170", "--output", str(out)]) == 0
    kv = dict(line.split("=", 1) for line in _data_rows(out))
    assert float(kv["op_norm_limit"]) == pytest.approx(1e85, rel=1e-15)


# With 24 actuators a threaded dgemm rounds the coupling E^T M U differently
# at 1 and 2 threads, so those cases fail unless the product avoids BLAS.
# The Dirichlet cases are the eigenbasis path of the default run, with no
# feedback window and with one that opens and closes inside the run, where
# its blocks of steps form their force in one M x N product each; the
# constant Neumann case is that path switching off.
# The one-row table is a static reaction that varies in x, stepped on the
# nodes like the oscillating one but with its values evaluated once.
@pytest.mark.parametrize(
    "case",
    [
        "--bc neumann --reaction oscillating --M 8 --feed-on 0:0.02",
        "--bc neumann --reaction oscillating --M 24 --feed-on 0:0.02",
        "--bc dirichlet --M 47",
        "--bc dirichlet --M 60 --feed-on 0.01:0.03",
        "--bc neumann --M 8 --feed-on 0:0.02",
        "--bc dirichlet --reaction table:react.csv --M 47",
    ],
    ids=[
        "--M 8", "--M 24", "dirichlet --M 47", "dirichlet window --M 60",
        "neumann constant --M 8", "table --M 47",
    ],
)
def test_simulate_rows_independent_of_blas_threads(tmp_path, case):
    _write_reaction_table(tmp_path / "react.csv")
    argv = f"simulate {case} --N 10001 --k 4e-4 --T 0.04".split()
    one, two = (_output_at_blas_threads(tmp_path, threads, argv) for threads in (1, 2))
    assert len(_data_rows(one)) == 102
    assert one.read_bytes() == two.read_bytes()


# Theta is certified diagonal for every mxe row and for Dirichlet uni, so its
# spectrum is the sorted diagonal and T T^T comes from FFT cosine sums; for
# Neumann uni it is not, and the spectrum is sigma(G)^2 from an SVD, with no
# threaded G G^T product or eigensolver.  Every byte of the file must agree.
@pytest.mark.parametrize(
    "argv, rows",
    [
        ("eigs --M 2..200 --r 0.1,0.3,0.5,0.7,0.9", 5 * 199),
        ("eigs --scheme uni --M 2..200 --r 0.1,0.5", 2 * 199),
        ("eigs --bc neumann --scheme uni --M 2..200 --r 0.1,0.3,0.5", 3 * 199),
    ],
    ids=["mxe", "uni", "neumann uni"],
)
def test_sweep_spectrum_independent_of_blas_threads(tmp_path, argv, rows):
    one, two = (_output_at_blas_threads(tmp_path, threads, argv.split()) for threads in (1, 2))
    assert len(_data_rows(one)) == 1 + rows
    assert one.read_bytes() == two.read_bytes()


def test_simulate_files_do_not_depend_on_output_path(tmp_path):
    # the config line leaves --output out, so two runs that differ only in
    # where they write give the same bytes, snapshots file included
    argv = ["simulate", "--N", "101", "--k", "2e-3", "--T", "0.02", "--snapshot-times", "0,0.02"]
    a, b = tmp_path / "a" / "run.csv", tmp_path / "b" / "other.csv"
    for out in (a, b):
        out.parent.mkdir()
        assert main(argv + ["--output", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (a.parent / "run_snapshots.csv").read_bytes() == (
        b.parent / "other_snapshots.csv"
    ).read_bytes()


def _option_help(capsys, command):
    """{flag: help text, whitespace collapsed} as `command --help` prints it."""
    assert main([command, "--help"]) == 0
    text = capsys.readouterr().out
    found = re.findall(
        r"^  --([\w-]+) [A-Z0-9_]+\s+(.*?)(?=^  -|\Z)", text[text.index("options:"):], re.M | re.S
    )
    return {flag: " ".join(help_text.split()) for flag, help_text in found}


def test_simulate_help_shows_defaults(capsys):
    helps = _option_help(capsys, "simulate")
    assert helps["M"].endswith("(default 6)")
    assert helps["r"].endswith("(default 0.1)")
    assert "range" not in helps["M"]


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_help_names_every_default_and_required_flag(capsys, command):
    helps = _option_help(capsys, command)
    defaults = cli._COMMANDS[command][1]
    assert set(helps) == set(defaults) | {"config"}
    for flag, default in defaults.items():
        if default is cli.REQUIRED:
            assert helps[flag].endswith("(required)"), flag
        elif default is not None:
            assert helps[flag].endswith(f"(default {default})"), flag


# Each command runs in process, in one fresh interpreter, after which the
# script prints whether scipy has been imported.
_COLD_START = """
import sys
from oblique_stab.cli import main
out = sys.argv[1]
for argv, rc in {runs!r}:
    assert main([*argv, "--output", out]) == rc, argv
print("scipy" in sys.modules)
"""


def _loads_scipy(tmp_path, runs):
    runs = [(argv.split(), rc) for argv, rc in runs]
    script = _COLD_START.format(runs=runs)
    proc = _run_fresh(tmp_path, [sys.executable, "-c", script, str(tmp_path / "out.csv")])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def test_commands_off_the_nodal_path_never_load_scipy(tmp_path):
    # main returns argparse's exit code for --help; the con sweep reaches the
    # SVD branch of build_projection and fails the direct sum from M = 9 on.
    # A constant-reaction simulate takes step 0 on the nodes without a
    # factor, steps in the eigenbasis from step 1 on and solves its coupling
    # with numpy, as project does its Gram systems; the one-step run and the
    # window acting on step 0 alone stop at or right after the shared step 0.
    samples = tmp_path / "samples.csv"
    samples.write_text("x,value\n0,0\n1.5,1\n3.141592653589793,0\n")
    assert not _loads_scipy(tmp_path, [
        ("--help", 0),
        ("eigs --M 2..200 --r 0.1,0.5", 0),
        ("eigs --bc neumann --scheme uni --M 2..60 --r 0.3", 0),
        ("eigs --scheme con --M 2..20 --r 0.1", 3),
        ("suffcond --a-bound 3.5", 0),
        ("simulate --T 0.01", 0),
        ("simulate --bc neumann --T 0.01", 0),
        ("simulate --T 0.001", 0),
        ("simulate --feed-on 0:0.0005 --T 0.01", 0),
        ("simulate --bc neumann --feed-on 0:0.0005 --T 0.01", 0),
        (f"project --M 6 --r 0.1 --input {samples}", 0),
    ])


def test_simulate_loads_scipy(tmp_path):
    # a reaction that varies in x or t is stepped on the nodes, whose
    # tridiagonal factor and solves need LAPACK dpttrf/dpttrs from scipy,
    # so the guard above can fail
    assert _loads_scipy(tmp_path, [("simulate --reaction oscillating --T 0.01", 0)])


# Each command as a shell runs it: the exit code, the files that must be
# non-empty, no other file, and no nan cell.  Commands whose contract a test
# above already checks with the same arguments are not repeated here.
_CONTRACTS = [
    ("eigs --M 2..10 --r 0.1 --output sweep.csv", 0, ["sweep.csv"]),
    ("eigs --bc neumann --scheme uni --M 2..60 --r 0.3 --output neumann_uni.csv", 0,
     ["neumann_uni.csv"]),
    ("eigs --scheme con --M 2..8 --r 0.5 --output con.csv", 0, ["con.csv"]),
    ("eigs --M 2..200 --r 0.1,0.5 --jobs 2 --output spectral_sweep.csv", 0,
     ["spectral_sweep.csv"]),
    ("project --M 6 --r 0.1 --input samples.csv --output project.csv", 0, ["project.csv"]),
    ("suffcond --a-bound 3.5 --output suff.csv", 0, ["suff.csv"]),
    ("suffcond --scheme uni --r 0.6 --a-bound 3.5 --output suff_uni.csv", 0, ["suff_uni.csv"]),
    ("simulate --T 0.001 --output one_step.csv", 0, ["one_step.csv"]),
    ("simulate --feed-on 0:0.0005 --T 0.01 --output step0_window.csv", 0, ["step0_window.csv"]),
    ("simulate --bc neumann --reaction oscillating --feed-on 0:0.005 --T 0.01 --output osc.csv",
     0, ["osc.csv"]),
    ("simulate --reaction oscillating --N 201 --k 2e-3 --T 0.3 --feed-on 0:0.1"
     " --output osc_dirichlet.csv", 0, ["osc_dirichlet.csv"]),
    ("simulate --bc neumann --feed-on 0:0.005 --T 0.01 --snapshot-times 0,0.01 --output neu.csv",
     0, ["neu.csv", "neu_snapshots.csv"]),
    ("simulate --feed-on 0.05:0.13 --T 0.2 --snapshot-times 0.063,0.064,0.065"
     " --output blocks.csv", 0, ["blocks.csv", "blocks_snapshots.csv"]),
    ("simulate --feed-on off --T 0.05 --snapshot-times 0,0.05 --output free.csv", 0,
     ["free.csv", "free_snapshots.csv"]),
    ("simulate --reaction table:react.csv --T 0.01 --output table.csv", 0, ["table.csv"]),
    ("simulate --T 0.01 --snapshot-times 0,0.005,0.01 --output run.csv", 0,
     ["run.csv", "run_snapshots.csv"]),
    ("simulate --L 0 --reaction oscillating --output l0.csv", 2, []),
    ("simulate --N 2 --output n2.csv", 2, []),
    ("simulate --scheme con --M 9 --r 0.1 --T 0.01 --output con_run.csv", 3, []),
]


@pytest.mark.parametrize(
    "argv, rc, files", _CONTRACTS, ids=[argv.split(" --output")[0] for argv, _, _ in _CONTRACTS]
)
def test_cli_contract(tmp_path, argv, rc, files):
    inputs = {"samples.csv", "react.csv"}
    _write_sine_samples(tmp_path / "samples.csv")
    _write_reaction_table(tmp_path / "react.csv")
    for launcher in _LAUNCHERS:
        proc = _run_fresh(tmp_path, [*launcher, *argv.split()])
        assert proc.returncode == rc, proc.stderr
        assert sorted(p.name for p in tmp_path.iterdir() if p.name not in inputs) == sorted(files)
        for name in files:
            data = (tmp_path / name).read_bytes()
            assert data and not re.search(rb"\bnan\b", data), name
