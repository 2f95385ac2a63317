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

`_FLAGS` gives each flag its parser and help, and `_COMMANDS` gives each
command its handler and the default of each flag it takes.  `main` parses,
calls the handler, and writes the files it returns.

All output is CSV-like text with `#` comment lines, a header row, and reals
printed with 17 significant digits, so identical configurations produce
byte-identical files.  Exit codes: 0 success, 2 invalid configuration or an
unwritable output, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .actuators import Scheme, all_breakpoints, place, uni_min_count
from .errors import DirectSumFailureError, InvalidArgumentError, NumericalFailureError
from .fem import (
    FeedbackConfig,
    constant_reaction,
    feedback_matrices,
    make_grid,
    oscillating_reaction,
    run_closed_loop,
    tabulated_reaction,
)
from .projection import (
    analytic_vartheta,
    apply_projection,
    assemble_cross_gram,
    build_projection,
    check_sufficient_condition,
    op_norm_limit,
    orthogonal_projection_actuators,
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


# A flag's parser takes the flag's name, for its messages, and its raw text.


def _parse_enum(kind):
    def parse(key: str, text: str):
        try:
            return kind(text.strip().lower())
        except ValueError:
            choices = ", ".join(member.value for member in kind)
            raise InvalidArgumentError(f"--{key} must be one of {choices}; got {text!r}") from None

    return parse


def _parse_float(key: str, text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise InvalidArgumentError(f"--{key} expects a number, got {text!r}") from None
    if not math.isfinite(val):
        raise InvalidArgumentError(f"--{key} expects a finite number, got {text!r}")
    return val


def _parse_floats(key: str, texts: list[str]) -> np.ndarray:
    """`_parse_float` of each text, with one finiteness check; on a failure the
    texts are parsed again in order, stripped, so the first bad one is named."""
    try:
        vals = np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        vals = None
    if vals is None or not np.isfinite(vals).all():
        for text in texts:
            _parse_float(key, text.strip())
    return vals


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidArgumentError(f"--{key} expects an integer, got {text!r}") from None


def _parse_count(key: str, text: str) -> int:
    val = _parse_int(key, text)
    if val < 1:
        raise InvalidArgumentError(f"--{key} must be positive, got {val}")
    return val


def _parse_m_values(key: str, text: str) -> list[int]:
    """Either a single count '6' or an inclusive range '2..200'."""
    lo_s, sep, hi_s = text.strip().partition("..")
    if not sep:
        return [_parse_count(key, text)]
    lo, hi = _parse_int(key, lo_s), _parse_int(key, hi_s)
    if lo < 1 or hi < lo:
        raise InvalidArgumentError(f"--{key} range must satisfy 1 <= lo <= hi, got {text!r}")
    return list(range(lo, hi + 1))


def _parse_float_list(key: str, text: str) -> list[float]:
    items = [s for s in (part.strip() for part in text.split(",")) if s]
    if not items:
        raise InvalidArgumentError(f"--{key} list is empty")
    return _parse_floats(key, items).tolist()


def _parse_feed_on(key: str, text: str) -> tuple[float, float] | bool:
    """'t0:t1' for a closed activity window, 'off' (False) to disable the feedback."""
    text = text.strip().lower()
    if text == "off":
        return False
    t0_s, sep, t1_s = text.partition(":")
    if not sep:
        raise InvalidArgumentError(f"--{key} expects 't0:t1' or 'off', got {text!r}")
    t0, t1 = _parse_float(key, t0_s), _parse_float(key, t1_s)
    if not t1 > t0 or t0 < 0.0:
        raise InvalidArgumentError(f"--{key} needs 0 <= t0 < t1, got {text!r}")
    return t0, t1


def _data_lines(path: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of each line that is neither blank nor a `#` comment."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read {path}: {exc}") from None
    lines = enumerate(map(str.strip, raw.splitlines()), start=1)
    return [(n, line) for n, line in lines if line and line[0] != "#"]


def _read_table_lines(path: str) -> list[list[str]]:
    rows = [line.split(",") for _, line in _data_lines(path)]
    if not rows:
        raise InvalidArgumentError(f"{path} contains no data rows")
    return rows


def _parse_reaction(text: str, nu: float, L: float):
    text = text.strip()
    if text.startswith("constant:"):
        return constant_reaction(_parse_float("reaction", text[len("constant:"):]))
    if text == "oscillating":
        return oscillating_reaction(nu, L)
    if text.startswith("table:"):
        rows = _read_table_lines(text[len("table:"):])
        head, body = rows[0], rows[1:]
        if head[0].strip().lower() != "x" or len(head) < 3:
            raise InvalidArgumentError(
                "reaction table must start with a header row 'x,<x1>,<x2>,...'"
            )
        xs = _parse_floats("reaction", head[1:])
        # the rows before the first of another length, in file order
        n = next((i for i, row in enumerate(body) if len(row) != len(head)), len(body))
        texts = [s for row in body[:n] for s in row]
        table = _parse_floats("reaction", texts).reshape(n, len(head))
        if n < len(body):
            raise InvalidArgumentError("reaction table rows have inconsistent lengths")
        if not n:
            raise InvalidArgumentError("reaction table has no time rows")
        return tabulated_reaction(table[:, 0], xs, table[:, 1:])
    raise InvalidArgumentError(
        f"--reaction must be 'constant:<value>', 'oscillating', or 'table:<file>', got {text!r}"
    )


def _parse_y0(text: str, nodes: np.ndarray, L: float) -> np.ndarray:
    text = text.strip()
    if text.startswith("linear:"):
        slope = _parse_float("y0", text[len("linear:"):])
        if not math.isfinite(slope * L):  # the largest of slope * nodes
            raise InvalidArgumentError(f"--y0 slope {slope:g} overflows at x = L = {L:g}")
        return slope * nodes
    if text.startswith("samples:"):
        xs, vals = _inside_domain("y0", _load_samples("y0", text[len("samples:"):]), L)
        return np.interp(nodes, xs, vals)
    raise InvalidArgumentError(
        f"--y0 must be 'linear:<slope>' or 'samples:<file>', got {text!r}"
    )


def _load_samples(key: str, path: str) -> tuple[np.ndarray, np.ndarray]:
    rows = _read_table_lines(path)
    try:
        float(rows[0][0])
    except ValueError:
        rows = rows[1:]  # a header row
    n = next((i for i, row in enumerate(rows) if len(row) < 2), len(rows))
    cells = _parse_floats(key, [s for row in rows[:n] for s in row[:2]])
    if n < len(rows):
        raise InvalidArgumentError(f"{path}: each sample row needs 'x,value'")
    if n < 2:
        raise InvalidArgumentError(f"{path}: need at least two samples, got {n}")
    if np.any(np.diff(cells[0::2]) <= 0.0):
        raise InvalidArgumentError(f"{path}: sample x values must be strictly increasing")
    return cells[0::2], cells[1::2]


def _inside_domain(key: str, samples: tuple[np.ndarray, np.ndarray], L: float):
    """`samples` once they span [0, L], to 1e-12 L, which np.interp would fill with constants."""
    if abs(samples[0][0]) > 1e-12 * L or abs(samples[0][-1] - L) > 1e-12 * L:
        raise InvalidArgumentError(f"--{key} samples must span [0, L] from x = 0 to x = L")
    return samples


def _load_config_file(path: str) -> dict[str, str]:
    """Plain-text settings, one `key=value` per line, `#` comments."""
    cfg: dict[str, str] = {}
    for lineno, line in _data_lines(path):
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


def cmd_eigs(v: argparse.Namespace) -> Result:
    pairs = [(M, r) for M in v.M for r in v.r]
    if v.scheme is Scheme.UNI:
        # skip the pairs uni placement rejects, as suffcond does; if that is
        # every pair, placing the first one says why
        pairs = [(M, r) for M, r in pairs if M >= uni_min_count(r)] or pairs[:1]
    rows = []
    for M, r in pairs:
        aset = place(v.scheme, v.L, M, r, centers=v.centers)
        try:
            data = build_projection(assemble_cross_gram(v.bc, aset))
        except DirectSumFailureError as exc:
            # a failed row keeps its M and r and leaves every numeric cell empty
            failure = f"M={M} r={_cfmt(r)}: {exc}"
            rows.append((M, r, (None,) * 5, "direct_sum_failure", failure))
            continue
        ana = analytic_vartheta(v.bc, v.scheme, M, r)
        cells = (data.vartheta, ana, data.op_norm, vartheta_limit(r), data.max_offdiag)
        rows.append((M, r, cells, "ok", None))
    rows.sort(key=lambda row: (row[1], row[0]))

    lines = [
        "M,r,vartheta_numeric,vartheta_analytic,op_norm,vartheta_limit,max_offdiag_theta,status"
    ]
    by_r: dict[float, dict[int, float]] = {}
    for M, r, cells, status, _ in rows:
        if status == "ok":
            by_r.setdefault(r, {})[M] = cells[0]
        text = ",".join("" if x is None else _fmt(x) for x in cells)
        lines.append(f"{M},{_fmt(r)},{text},{status}")
    for r in sorted(by_r):
        table = by_r[r]
        for lo, hi in _SLOPE_WINDOWS:
            if lo in table and hi in table:
                slope = (table[hi] - table[lo]) / (hi - lo)
                lines.append(f"# slope r={_cfmt(r)} M[{lo},{hi}]: {_fmt(slope)}")
    failures = [row[4] for row in rows if row[4] is not None]
    if failures:
        failure = f"{len(failures)} of {len(rows)} sweep rows failed, the first at {failures[0]}"
        return [(v.output, lines)], failure
    return [(v.output, lines)], None


def cmd_project(v: argparse.Namespace) -> Result:
    L = v.L
    xs, vals = _inside_domain("input", v.input, L)

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
    reaction = _parse_reaction(v.reaction, v.nu, v.L)
    y0 = _parse_y0(v.y0, grid.nodes, v.L)
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
    for M in range(least, v.max_M + 1):
        try:
            data = build_projection(assemble_cross_gram(bc, place(scheme, L, M, r)))
        except DirectSumFailureError as exc:
            # a failed M counts as not satisfied; the file names the first
            failure = failure or f"M={M}: {exc}"
            continue
        report = check_sufficient_condition(v.nu, bc, M, data.op_norm, v.a_bound, L=L)
        if report.satisfied:
            found = report
            break

    norm_lim = op_norm_limit(r)
    # con packs its supports around L/2, so its norm does not follow the
    # limit norm (at r = 0.1 the direct sum fails from M = 9 on): no closed form
    closed_form_m = ""
    if scheme is not Scheme.CON:
        X = (L / math.pi) * math.sqrt((6.0 + 4.0 * norm_lim**2) / v.nu) * v.a_bound
        if not math.isfinite(X):
            raise InvalidArgumentError("--L, --nu and --a-bound overflow closed_form_minimal_M")
        closed_form_m = max(least, math.ceil(X - 1.0 if bc is BoundaryCondition.DIRICHLET else X))

    if found is None:
        lines = ["swept_minimal_M=-1", f"# margin test not satisfied for any M <= {v.max_M}"]
    else:
        lines = [f"swept_minimal_M={found.M}"]
        lines.append(f"op_norm_at_minimal_M={_fmt(found.op_norm)}")
        lines.append(f"alpha_next={_fmt(found.alpha_next)}")
        lines.append(f"margin={_fmt(found.margin)}")
    lines.append(f"closed_form_minimal_M={closed_form_m}")
    lines.append(f"op_norm_limit={_fmt(norm_lim)}")
    if failure:
        lines.append(f"# first failed {failure}")
        return [(v.output, lines)], f"the sweep failed first at {failure}"
    return [(v.output, lines)], None


# flag -> (parser of its raw text, or None to keep the text; help)
_FLAGS = {
    "bc": (_parse_enum(BoundaryCondition), "boundary condition: dirichlet or neumann"),
    "scheme": (_parse_enum(Scheme), "actuator placement: mxe, uni, con, or custom"),
    "centers": (_parse_float_list, "comma-separated centers, required with --scheme custom"),
    "M": (_parse_count, "actuator count"),
    "r": (_parse_float, "volume fraction in (0, 1)"),
    "L": (_parse_float, "domain length"),
    "jobs": (_parse_int, "accepted for compatibility; sweeps run serially and this has no effect"),
    "nu": (_parse_float, "diffusion coefficient"),
    "lam": (_parse_float, "feedback shift lambda"),
    "N": (_parse_int, "grid node count"),
    "k": (_parse_float, "time step"),
    "T": (_parse_float, "final time"),
    "feed-on": (
        _parse_feed_on,
        "feedback activity window 't0:t1', or 'off' for free dynamics; on throughout without it",
    ),
    "reaction": (None, "'constant:<value>', 'oscillating', or 'table:<file>'"),
    "y0": (None, "'linear:<slope>' or 'samples:<file>'"),
    "snapshot-times": (
        _parse_float_list,
        "comma-separated times whose states go to <output stem>_snapshots",
    ),
    "input": (_load_samples, "CSV of 'x,value' samples of the function to project"),
    "output": (None, "output file; stdout without it"),
    "a-bound": (_parse_float, "bound on the reaction magnitude in the margin test"),
    "max-M": (_parse_count, "largest actuator count tried by the sweep"),
}

# eigs sweeps every M and r it is given; the other commands take one of each
_SWEPT = {
    "M": (_parse_m_values, "actuator count, or an inclusive range lo..hi"),
    "r": (_parse_float_list, "comma-separated volume fractions in (0, 1)"),
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
