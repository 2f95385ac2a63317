"""Command-line front end: sweeps, projections, and closed-loop runs.

Subcommands
    eigs      sweep (M, r) and tabulate vartheta, operator norm, and the
              large-M limit
    project   apply the oblique and orthogonal projections to a sampled
              function and compare residuals
    simulate  integrate the closed-loop (or free) reaction-diffusion system
              and record the solution norm over time
    suffcond  find the smallest actuator count passing the stabilisability
              margin test, and the closed-form threshold from the limit norm

`_FLAGS` gives each flag its parser, from `inputs`, and its help, and
`_COMMANDS` gives each command its handler and the default of each flag it
takes.  `main` parses, calls the handler, and writes the files it returns.

All output is CSV-like text with `#` comment lines, a header row, and reals
printed with 17 significant digits, so identical configurations produce
byte-identical files.  Exit codes: 0 success, 2 invalid configuration or an
unwritable output, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .actuators import Scheme, all_breakpoints, place, uni_min_count
from .errors import InvalidArgumentError, NumericalFailureError
from .fem import FeedbackConfig, feedback_matrices, make_grid, run_closed_loop
from .inputs import (
    data_lines,
    inside_domain,
    load_samples,
    parse_count,
    parse_enum,
    parse_feed_on,
    parse_float,
    parse_float_list,
    parse_int,
    parse_m_values,
    parse_reaction,
    parse_y0,
)
from .projection import (
    analytic_varthetas,
    apply_projection,
    assemble_cross_gram,
    build_projection,
    check_sufficient_condition,
    closed_form_minimal_M,
    op_norm_limit,
    orthogonal_projection_actuators,
    sweep_chunks,
    vartheta_limit,
)
from .quadrature import panel_nodes_weights
from .spectral import BoundaryCondition

_SLOPE_WINDOWS = ((10, 20), (50, 60), (110, 120))

# The default of a flag that its command cannot run without.
REQUIRED = object()


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _cfmt(x: float) -> str:
    return "%.12g" % float(x)


def _load_config_file(path: str) -> dict[str, str]:
    """Plain-text settings, one `key=value` per line, `#` comments."""
    cfg: dict[str, str] = {}
    for lineno, line in data_lines(path):
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidArgumentError(
                f"{path}:{lineno}: expected 'key=value', got {line!r}"
            )
        cfg[key.strip()] = value.strip()
    unknown = set(cfg) - set(_FLAGS)
    if unknown:
        raise InvalidArgumentError(
            f"{path}: unknown config keys {sorted(unknown)}"
        )
    return cfg


def _write(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {path}: {exc}") from None


# A handler takes the parsed flags of its command, under their argparse
# names, and returns the files to write as (path, lines), path None for
# stdout, together with a failure message or None.
Result = tuple[list[tuple[str | None, list[str]]], str | None]


def _eigs_rows(v: argparse.Namespace, r: float, Ms: list[int]):
    """The rows of the sweep at one r: their lines, the text of each failed
    row, {M: vartheta} of the ok rows, and (M, error) of the row that raised,
    or None.

    Once a chunk has an ok row, which places at r, r and vartheta_limit are
    formatted into a row template and analytic_varthetas gives the closed
    forms of all of Ms; each run of ok rows in a chunk is then written by one
    % over the repeated template.
    """
    lines, failures, table, done = [], [], {}, 0
    r_text, template = _fmt(r), None
    try:
        for chunk in sweep_chunks(v.bc, v.scheme, v.L, Ms, r, v.centers):
            n = len(chunk.M)
            if template is None and n > len(chunk.failures):
                analytic = analytic_varthetas(v.bc, v.scheme, Ms, r)
                cell = "" if analytic is None else "%.17g"
                template = f"%d,{r_text},%.17g,{cell},%.17g,{_fmt(vartheta_limit(r))},%.17g,ok"
            if template is not None:
                cols = (chunk.M, chunk.vartheta, analytic and analytic[done:done + n],
                        chunk.op_norm, chunk.max_offdiag)
                cols = [c for c in cols if c is not None]
            done += n
            start = 0
            for i in [*sorted(chunk.failures), n]:
                if i > start:
                    values = chain.from_iterable(zip(*(c[start:i] for c in cols)))
                    lines.append("\n".join([template] * (i - start)) % tuple(values))
                    table.update(zip(chunk.M[start:i], chunk.vartheta[start:i]))
                if i < n:
                    # a failed row keeps its M and r and leaves every numeric cell empty
                    failures.append(f"M={chunk.M[i]} r={_cfmt(r)}: {chunk.failures[i]}")
                    lines.append(f"{chunk.M[i]},{r_text},,,,,,direct_sum_failure")
                start = i + 1
    except (InvalidArgumentError, MemoryError) as exc:
        return lines, failures, table, (Ms[done], exc)
    return lines, failures, table, None


def cmd_eigs(v: argparse.Namespace) -> Result:
    """vartheta, its closed form, ||P||, the large-M limit and Theta's largest
    off-diagonal entry for every M and r, listed by (r, M), with the slope
    comments of each r after the rows.

    Each r is swept in turn.  A row that fails the direct sum leaves its
    numeric cells empty and makes the run exit 3.  Of the errors of several
    r, the one raised is that of the first failing row in M-major order, as
    a row-by-row sweep would raise it.
    """
    pairs = [(M, r) for M in v.M for r in v.r]
    if v.scheme is Scheme.UNI:
        # skip the pairs uni placement rejects, as suffcond does; if that is
        # every pair, placing the first one says why
        pairs = [(M, r) for M, r in pairs if M >= uni_min_count(r)] or pairs[:1]
    sweeps = {r: _eigs_rows(v, r, [M for M, q in pairs if q == r]) for r in dict.fromkeys(v.r)}
    errors = [(error[0], v.r.index(r), error[1]) for r, (*_, error) in sweeps.items() if error]
    if errors:
        raise min(errors, key=lambda e: e[:2])[2]

    lines = [
        "M,r,vartheta_numeric,vartheta_analytic,op_norm,vartheta_limit,max_offdiag_theta,status"
    ]
    failures = []
    for r in sorted(sweeps):
        lines += sweeps[r][0]
        failures += sweeps[r][1]
    for r in sorted(sweeps):
        table = sweeps[r][2]
        for lo, hi in _SLOPE_WINDOWS:
            if lo in table and hi in table:
                slope = (table[hi] - table[lo]) / (hi - lo)
                lines.append(f"# slope r={_cfmt(r)} M[{lo},{hi}]: {_fmt(slope)}")
    if failures:
        failure = f"{len(failures)} of {len(pairs)} sweep rows failed, the first at {failures[0]}"
        return [(v.output, lines)], failure
    return [(v.output, lines)], None


def cmd_project(v: argparse.Namespace) -> Result:
    L = v.L
    xs, vals = inside_domain("input", v.input, L)

    def f(x):
        return np.interp(np.asarray(x, dtype=float), xs, vals)

    aset = place(v.scheme, L, v.M, v.r, centers=v.centers)
    data = build_projection(assemble_cross_gram(v.bc, aset))
    # a huge input overflows: the projections name their coefficients, the test below the rest
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, oblique = apply_projection(data, f)
        gamma, orth = orthogonal_projection_actuators(data, f)
        # 64 panels: residuals 2 to 26 times closer to exact than the projections' budget
        x, w = panel_nodes_weights(0.0, L, 64, all_breakpoints(aset))
        fx = f(x)
        # f / s, s a power of two near max|f|: exact, and no square overflows
        s = math.ldexp(1.0, math.frexp(np.abs(fx).max())[1] - 1)

        def residual(g) -> float:
            return s * math.sqrt(max(w @ ((fx - g(x)) / s) ** 2, 0.0))

        residuals = {
            "oblique_residual_l2": [residual(oblique)],
            "orthogonal_residual_l2": [residual(orth)],
        }
        cols = {"input": f(xs), "oblique": oblique(xs), "orthogonal": orth(xs)}
    for name, value in [*residuals.items(), *((f"{k} column", c) for k, c in cols.items())]:
        if not np.isfinite(value).all():
            raise NumericalFailureError(f"{name} is not finite; the input overflows")

    comments = {"oblique_coefficients": alpha, "orthogonal_coefficients": gamma, **residuals}
    lines = [f"# {name}: " + ",".join(map(_fmt, value)) for name, value in comments.items()]
    lines.append("x," + ",".join(cols))
    rows = zip(xs.tolist(), *(c.tolist() for c in cols.values()))
    lines.extend("%.17g,%.17g,%.17g,%.17g" % row for row in rows)
    return [(v.output, lines)], None


def cmd_simulate(v: argparse.Namespace) -> Result:
    if v.snapshot_times is not None and not v.output:
        raise InvalidArgumentError("--snapshot-times requires --output")
    grid = make_grid(v.bc, v.L, v.N)
    reaction = parse_reaction(v.reaction, v.nu, v.L)
    y0 = parse_y0(v.y0, grid.nodes, v.L)
    # built even for free dynamics, so --feed-on off accepts only what on does
    op = feedback_matrices(grid, place(v.scheme, v.L, v.M, v.r, centers=v.centers))
    feedback = None
    if v.feed_on is not False:  # None keeps the feedback on throughout
        feedback = FeedbackConfig(operator=op, lam=v.lam, feed_on=v.feed_on)

    run = run_closed_loop(
        grid,
        v.nu,
        reaction,
        y0,
        v.T,
        v.k,
        feedback=feedback,
        snapshot_times=tuple(v.snapshot_times or ()),
    )

    lines = ["t,l2_norm,feedback_on"]
    rows = zip(run.times.tolist(), run.norms.tolist(), run.feedback_on.tolist())
    lines.extend("%.17g,%.17g,%d" % row for row in rows)
    files = [(v.output, lines)]

    if v.snapshot_times is not None:
        out = Path(v.output)
        snap_path = out.with_name(out.stem + "_snapshots" + (out.suffix or ".csv"))
        snap_lines = ["x," + ",".join(f"t={_cfmt(t)}" for t in run.snapshot_times)]
        fmt = ",".join(["%.17g"] * (len(run.snapshots) + 1))
        snap_lines.extend(fmt % row for row in zip(grid.nodes.tolist(), *run.snapshots.tolist()))
        files.append((str(snap_path), snap_lines))
    return files, None


def cmd_suffcond(v: argparse.Namespace) -> Result:
    bc, scheme, L, r = v.bc, v.scheme, v.L, v.r
    if scheme is Scheme.CUSTOM:
        raise InvalidArgumentError("suffcond sweeps M, which --scheme custom fixes")
    if v.a_bound < 0.0:
        raise InvalidArgumentError(f"--a-bound must be nonnegative, got {v.a_bound}")

    found = failure = None
    least = uni_min_count(r) if scheme is Scheme.UNI else 1
    # rows come a chunk at a time: no chunk past the first satisfied M is formed
    chunks = sweep_chunks(bc, scheme, L, range(least, v.max_M + 1), r)
    rows = ((M, op_norm, chunk.failures.get(i)) for chunk in chunks
            for i, (M, op_norm) in enumerate(zip(chunk.M, chunk.op_norm)))
    for M, op_norm, exc in rows:
        if exc is not None:
            # a failed M counts as not satisfied; the file names the first
            failure = failure or f"M={M}: {exc}"
            continue
        report = check_sufficient_condition(v.nu, bc, M, op_norm, v.a_bound, L=L)
        if report.satisfied:
            found = report
            break

    count = closed_form_minimal_M(v.nu, bc, scheme, r, v.a_bound, L)

    if found is None:
        lines = ["swept_minimal_M=-1", f"# margin test not satisfied for any M <= {v.max_M}"]
    else:
        lines = [f"swept_minimal_M={found.M}"]
        lines.append(f"op_norm_at_minimal_M={_fmt(found.op_norm)}")
        lines.append(f"alpha_next={_fmt(found.alpha_next)}")
        lines.append(f"margin={_fmt(found.margin)}")
    lines.append(f"closed_form_minimal_M={'' if count is None else count}")
    lines.append(f"op_norm_limit={_fmt(op_norm_limit(r))}")
    if failure:
        lines.append(f"# first failed {failure}")
        return [(v.output, lines)], f"the sweep failed first at {failure}"
    return [(v.output, lines)], None


# flag -> (parser of its raw text, or None to keep the text; help)
_FLAGS = {
    "bc": (parse_enum(BoundaryCondition), "boundary condition: dirichlet or neumann"),
    "scheme": (parse_enum(Scheme), "actuator placement: mxe, uni, con, or custom"),
    "centers": (parse_float_list, "comma-separated centers, required with --scheme custom"),
    "M": (parse_count, "actuator count"),
    "r": (parse_float, "volume fraction in (0, 1)"),
    "L": (parse_float, "domain length"),
    "jobs": (parse_int, "accepted for compatibility; sweeps run serially and this has no effect"),
    "nu": (parse_float, "diffusion coefficient"),
    "lam": (parse_float, "feedback shift lambda"),
    "N": (parse_int, "grid node count"),
    "k": (parse_float, "time step"),
    "T": (parse_float, "final time"),
    "feed-on": (
        parse_feed_on,
        "feedback activity window 't0:t1', or 'off' for free dynamics; on throughout without it",
    ),
    "reaction": (None, "'constant:<value>', 'oscillating', or 'table:<file>'"),
    "y0": (None, "'linear:<slope>' or 'samples:<file>'"),
    "snapshot-times": (
        parse_float_list,
        "comma-separated times whose states go to <output stem>_snapshots",
    ),
    "input": (load_samples, "CSV of 'x,value' samples of the function to project"),
    "output": (None, "output file; stdout without it"),
    "a-bound": (parse_float, "bound on the reaction magnitude in the margin test"),
    "max-M": (parse_count, "largest actuator count tried by the sweep"),
}

# eigs sweeps every M and r it is given; the other commands take one of each
_SWEPT = {
    "M": (parse_m_values, "actuator count, or an inclusive range lo..hi"),
    "r": (parse_float_list, "comma-separated volume fractions in (0, 1)"),
}

_PI = repr(math.pi)
_GEOMETRY = {
    "bc": "dirichlet", "scheme": "mxe", "centers": None, "M": REQUIRED, "r": REQUIRED, "L": _PI,
}

# command -> (handler, {flag: default text, None for none, or REQUIRED})
_COMMANDS = {
    "eigs": (cmd_eigs, {**_GEOMETRY, "jobs": "1", "output": None}),
    "project": (cmd_project, {**_GEOMETRY, "input": REQUIRED, "output": None}),
    "simulate": (cmd_simulate, {
        **_GEOMETRY, "M": "6", "r": "0.1",
        "nu": "0.1", "lam": "1.0", "N": "1001", "k": "1e-3", "T": "4.5",
        "feed-on": None, "reaction": "constant:-3.5", "y0": "linear:0.1",
        "snapshot-times": None, "output": None,
    }),
    "suffcond": (cmd_suffcond, {
        "bc": "dirichlet", "scheme": "mxe", "r": "0.1", "L": _PI,
        "nu": "0.1", "a-bound": REQUIRED, "max-M": "200", "output": None,
    }),
}


def _spec(command: str, flag: str):
    """(parser, help) of a flag in a command."""
    return _SWEPT[flag] if command == "eigs" and flag in _SWEPT else _FLAGS[flag]


def _settings(args: argparse.Namespace) -> tuple[argparse.Namespace, str]:
    """The parsed flags of the command and the `# config:` line.

    A flag's value comes from the command line, else the `--config` file,
    else its default.  The `# config:` line records the text of each value
    but --jobs and --output, which change no row, so that no file depends
    on them.
    """
    cfg = _load_config_file(args.config) if args.config else {}
    values, recorded = argparse.Namespace(), {}
    for flag, default in _COMMANDS[args.command][1].items():
        name = flag.replace("-", "_")
        text = getattr(args, name)
        if text is None:
            text = cfg.get(flag, default)
        if text is REQUIRED:
            raise InvalidArgumentError(f"--{flag} is required for this command")
        parse = _spec(args.command, flag)[0]
        setattr(values, name, text if text is None or parse is None else parse(flag, text))
        if text is not None and flag not in ("jobs", "output"):
            recorded[flag] = text
    if getattr(values, "centers", None) is not None and values.scheme is not Scheme.CUSTOM:
        raise InvalidArgumentError("--centers is only valid with --scheme custom")
    parts = [f"command={args.command}", *(f"{k}={t}" for k, t in sorted(recorded.items()))]
    return values, "# config: " + " ".join(parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oblique-stab",
        description="Oblique-projection feedback stabilisation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=f"{name} command")
        for flag, default in defaults.items():
            text = _spec(name, flag)[1]
            if default is REQUIRED:
                text += " (required)"
            elif default is not None:
                text += f" (default {default})"
            p.add_argument(f"--{flag}", dest=flag.replace("-", "_"), help=text)
        p.add_argument("--config", help="key=value settings file; flags override it")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        values, config = _settings(args)
        files, failure = _COMMANDS[args.command][0](values)
        # a failed sweep still writes its file before it exits 3
        for path, lines in files:
            _write(path, [config, *lines])
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an M x M or nodes x M array numpy cannot allocate
        print(f"error: this run needs more memory than is available: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        failure = str(exc)
    if failure:
        print(f"numerical failure: {failure}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
