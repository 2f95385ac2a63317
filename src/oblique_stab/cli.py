"""Command-line front end: sweeps, projections, and closed-loop runs.

Subcommands
    eigs      sweep (M, r) and tabulate vartheta, operator norm, and the
              large-M limit; `norm` is an alias emphasising the norm column
    project   apply the oblique and orthogonal projections to a sampled
              function and compare residuals
    simulate  integrate the closed-loop (or free) reaction-diffusion system
              and record the solution norm over time
    suffcond  find the smallest actuator count passing the stabilisability
              margin test, and the closed-form threshold from the limit norm

All output is CSV-like text with `#` comment lines, a header row, and reals
printed with 17 significant digits, so identical configurations produce
byte-identical files.  Exit codes: 0 success, 2 invalid configuration,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .actuators import Scheme, all_breakpoints, place
from .errors import (
    ConstraintViolationError,
    DirectSumFailureError,
    InvalidArgumentError,
    NumericalFailureError,
    SingularConfigurationError,
)
from .fem import (
    FeedbackConfig,
    assemble_fem,
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
from .quadrature import integrate
from .spectral import BoundaryCondition

_SLOPE_WINDOWS = ((10, 20), (50, 60), (110, 120))

# Failures that cost a sweep one row, with the status that row reports.
_ROW_STATUS = {
    DirectSumFailureError: "direct_sum_failure",
    SingularConfigurationError: "singular_configuration",
}


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _cfmt(x: float) -> str:
    return "%.12g" % float(x)


def _parse_bc(text: str) -> BoundaryCondition:
    try:
        return BoundaryCondition(text.strip().lower())
    except ValueError:
        raise InvalidArgumentError(
            f"boundary condition must be 'dirichlet' or 'neumann', got {text!r}"
        ) from None


def _parse_scheme(text: str) -> Scheme:
    try:
        return Scheme(text.strip().lower())
    except ValueError:
        raise InvalidArgumentError(
            f"scheme must be one of mxe, uni, con, custom; got {text!r}"
        ) from None


def _parse_float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InvalidArgumentError(f"--{key} expects a number, got {text!r}") from None


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidArgumentError(f"--{key} expects an integer, got {text!r}") from None


def _parse_m_values(text: str) -> list[int]:
    """Either a single count '6' or an inclusive range '2..200'."""
    text = text.strip()
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        lo, hi = _parse_int("M", lo_s), _parse_int("M", hi_s)
        if lo < 1 or hi < lo:
            raise InvalidArgumentError(f"--M range must satisfy 1 <= lo <= hi, got {text!r}")
        return list(range(lo, hi + 1))
    val = _parse_int("M", text)
    if val < 1:
        raise InvalidArgumentError(f"--M must be positive, got {val}")
    return [val]


def _parse_float_list(key: str, text: str) -> list[float]:
    items = [s for s in (part.strip() for part in text.split(",")) if s]
    if not items:
        raise InvalidArgumentError(f"--{key} list is empty")
    return [_parse_float(key, s) for s in items]


def _single(command: str, key: str, values: list):
    """The value of a flag that takes a single value in this command."""
    if len(values) != 1:
        raise InvalidArgumentError(f"{command} expects a single --{key}, not a range or list")
    return values[0]


def _parse_feed_on(text: str) -> tuple[float, float] | None:
    """'t0:t1' for a closed activity window, 'off' to disable the feedback."""
    text = text.strip().lower()
    if text == "off":
        return None
    t0_s, sep, t1_s = text.partition(":")
    if not sep:
        raise InvalidArgumentError(f"--feed-on expects 't0:t1' or 'off', got {text!r}")
    t0, t1 = _parse_float("feed-on", t0_s), _parse_float("feed-on", t1_s)
    if not t1 > t0 or t0 < 0.0:
        raise InvalidArgumentError(f"--feed-on needs 0 <= t0 < t1, got {text!r}")
    return t0, t1


def _read_table_lines(path: str) -> list[list[str]]:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read {path}: {exc}") from None
    rows = []
    for line in raw.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([cell.strip() for cell in line.split(",")])
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
        head = rows[0]
        if head[0].lower() != "x" or len(head) < 3:
            raise InvalidArgumentError(
                "reaction table must start with a header row 'x,<x1>,<x2>,...'"
            )
        xs = np.array([_parse_float("reaction", s) for s in head[1:]])
        ts, vals = [], []
        for row in rows[1:]:
            if len(row) != len(head):
                raise InvalidArgumentError("reaction table rows have inconsistent lengths")
            ts.append(_parse_float("reaction", row[0]))
            vals.append([_parse_float("reaction", s) for s in row[1:]])
        if not ts:
            raise InvalidArgumentError("reaction table has no time rows")
        return tabulated_reaction(np.array(ts), xs, np.array(vals))
    raise InvalidArgumentError(
        f"--reaction must be 'constant:<value>', 'oscillating', or 'table:<file>', got {text!r}"
    )


def _parse_y0(text: str, nodes: np.ndarray) -> np.ndarray:
    text = text.strip()
    if text.startswith("linear:"):
        slope = _parse_float("y0", text[len("linear:"):])
        return slope * nodes
    if text.startswith("samples:"):
        xs, vals = _load_samples(text[len("samples:"):])
        return np.interp(nodes, xs, vals)
    raise InvalidArgumentError(
        f"--y0 must be 'linear:<slope>' or 'samples:<file>', got {text!r}"
    )


def _load_samples(path: str) -> tuple[np.ndarray, np.ndarray]:
    rows = _read_table_lines(path)
    if rows and rows[0] and not _is_number(rows[0][0]):
        rows = rows[1:]
    xs, vals = [], []
    for row in rows:
        if len(row) < 2:
            raise InvalidArgumentError(f"{path}: each sample row needs 'x,value'")
        xs.append(_parse_float("input", row[0]))
        vals.append(_parse_float("input", row[1]))
    x = np.array(xs)
    if x.size < 2 or np.any(np.diff(x) <= 0.0):
        raise InvalidArgumentError(f"{path}: sample x values must be strictly increasing")
    return x, np.array(vals)


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _load_config_file(path: str) -> dict[str, str]:
    """Plain-text settings, one `key=value` per line, `#` comments."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read config file {path}: {exc}") from None
    cfg: dict[str, str] = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise InvalidArgumentError(
                f"{path}:{lineno}: expected 'key=value', got {line!r}"
            )
        cfg[key.strip()] = value.strip()
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise InvalidArgumentError(
            f"{path}: unknown config keys {sorted(unknown)}"
        )
    return cfg


def _emit(lines: list[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


class _Settings:
    """Flag values merged with an optional config file; flags win."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.cfg = _load_config_file(args.config) if args.config else {}
        self.used: dict[str, str] = {}

    def get(self, key: str, default: str | None = None, *, required: bool = False) -> str:
        value = getattr(self.args, key.replace("-", "_"), None)
        if value is None:
            value = self.cfg.get(key)
        if value is None:
            if required:
                raise InvalidArgumentError(f"--{key} is required for this command")
            value = default
        if value is not None:
            self.used[key] = value
        return value

    def config_comment(self, command: str) -> str:
        # --jobs changes no row, so leaving it out keeps a sweep file
        # byte-identical whatever --jobs is.
        parts = [f"command={command}"] + [
            f"{k}={self.used[k]}" for k in sorted(self.used) if k != "jobs"
        ]
        return "# config: " + " ".join(parts)


def _common_geometry(s: _Settings):
    bc = _parse_bc(s.get("bc", "dirichlet"))
    scheme = _parse_scheme(s.get("scheme", "mxe"))
    L = _parse_float("L", s.get("L", repr(math.pi)))
    centers_text = s.get("centers")
    if centers_text is not None and scheme is not Scheme.CUSTOM:
        raise InvalidArgumentError("--centers is only valid with --scheme custom")
    centers = (
        np.array(_parse_float_list("centers", centers_text))
        if centers_text is not None
        else None
    )
    return bc, scheme, L, centers


def cmd_eigs(args: argparse.Namespace) -> int:
    s = _Settings(args)
    bc, scheme, L, centers = _common_geometry(s)
    m_values = _parse_m_values(s.get("M", required=True))
    r_values = _parse_float_list("r", s.get("r", required=True))
    # --jobs is validated but unused: a thread pool never beat this loop.
    _parse_int("jobs", s.get("jobs", "1"))

    rows = []
    # M outside, r inside: the rows of one M share the cross-Gram's trig factor
    for M in m_values:
        for r in r_values:
            aset = place(scheme, L, M, r, centers=centers)
            try:
                data = build_projection(assemble_cross_gram(bc, aset))
            except tuple(_ROW_STATUS) as exc:
                # a failed row keeps its M and r and leaves every numeric cell empty
                failure = f"M={M} r={_cfmt(r)}: {exc}"
                rows.append((M, r, (None,) * 5, _ROW_STATUS[type(exc)], failure))
                continue
            ana = analytic_vartheta(bc, scheme, M, r)
            cells = (data.vartheta, ana, data.op_norm, vartheta_limit(r), data.max_offdiag)
            rows.append((M, r, cells, "ok", None))
    rows.sort(key=lambda row: (row[1], row[0]))

    lines = [s.config_comment(args.command)]
    lines.append(
        "M,r,vartheta_numeric,vartheta_analytic,op_norm,vartheta_limit,max_offdiag_theta,status"
    )
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
    _emit(lines, s.get("output"))
    failures = [row[4] for row in rows if row[4] is not None]
    if failures:
        raise NumericalFailureError(
            f"{len(failures)} of {len(rows)} sweep rows failed, the first at {failures[0]}"
        )
    return 0


def cmd_project(args: argparse.Namespace) -> int:
    s = _Settings(args)
    bc, scheme, L, centers = _common_geometry(s)
    M = _single("project", "M", _parse_m_values(s.get("M", required=True)))
    r = _single("project", "r", _parse_float_list("r", s.get("r", required=True)))
    xs, vals = _load_samples(s.get("input", required=True))
    if xs[0] < -1e-12 or xs[-1] > L * (1 + 1e-12):
        raise InvalidArgumentError("input samples must lie inside [0, L]")

    def f(x):
        return np.interp(np.asarray(x, dtype=float), xs, vals)

    aset = place(scheme, L, M, r, centers=centers)
    data = build_projection(assemble_cross_gram(bc, aset))
    bks = all_breakpoints(aset)
    alpha, oblique = apply_projection(data, f, breakpoints=bks)
    gamma, orth = orthogonal_projection_actuators(data, f, breakpoints=bks)

    def residual(g) -> float:
        val = integrate(
            lambda x: (f(x) - g(x)) ** 2, 0.0, L, n_panels=64, breakpoints=bks
        )
        return math.sqrt(max(val, 0.0))

    lines = [s.config_comment(args.command)]
    lines.append("# oblique_coefficients: " + ",".join(_fmt(a) for a in alpha))
    lines.append("# orthogonal_coefficients: " + ",".join(_fmt(g) for g in gamma))
    lines.append(f"# oblique_residual_l2: {_fmt(residual(oblique))}")
    lines.append(f"# orthogonal_residual_l2: {_fmt(residual(orth))}")
    lines.append("x,input,oblique,orthogonal")
    for row in zip(xs, f(xs), oblique(xs), orth(xs)):
        lines.append(",".join(map(_fmt, row)))
    _emit(lines, s.get("output"))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    s = _Settings(args)
    bc, scheme, L, centers = _common_geometry(s)
    M = _single("simulate", "M", _parse_m_values(s.get("M", "6")))
    r = _single("simulate", "r", _parse_float_list("r", s.get("r", "0.1")))
    nu = _parse_float("nu", s.get("nu", "0.1"))
    lam = _parse_float("lam", s.get("lam", "1.0"))
    N = _parse_int("N", s.get("N", "1001"))
    k = _parse_float("k", s.get("k", "1e-3"))
    T = _parse_float("T", s.get("T", "4.5"))
    feed_text = s.get("feed-on")
    reaction = _parse_reaction(s.get("reaction", "constant:-3.5"), nu, L)
    output = s.get("output")
    snap_text = s.get("snapshot-times")

    grid = make_grid(L, N)
    fm = assemble_fem(grid)
    y0 = _parse_y0(s.get("y0", "linear:0.1"), grid.nodes)

    feedback = None
    window: tuple[float, float] | None = None
    enabled = True
    if feed_text is not None:
        window = _parse_feed_on(feed_text)
        enabled = window is not None
    if enabled:
        op = feedback_matrices(fm, bc, place(scheme, L, M, r, centers=centers))
        feedback = FeedbackConfig(operator=op, lam=lam, feed_on=window)

    snapshot_times: tuple[float, ...] = ()
    if snap_text is not None:
        if output is None:
            raise InvalidArgumentError("--snapshot-times requires --output")
        snapshot_times = tuple(_parse_float_list("snapshot-times", snap_text))

    run = run_closed_loop(
        bc,
        fm,
        nu,
        reaction,
        y0,
        T,
        k,
        feedback=feedback,
        snapshot_times=snapshot_times,
    )

    lines = [s.config_comment(args.command)]
    lines.append("t,l2_norm,feedback_on")
    rows = zip(run.times.tolist(), run.norms.tolist(), run.feedback_on.tolist())
    lines.extend("%.17g,%.17g,%d" % row for row in rows)
    _emit(lines, output)

    if snapshot_times:
        out = Path(output)
        snap_path = out.with_name(out.stem + "_snapshots" + (out.suffix or ".csv"))
        snap_lines = [s.config_comment(args.command)]
        snap_lines.append("x," + ",".join(f"t={_cfmt(t)}" for t in run.snapshot_times))
        fmt = ",".join(["%.17g"] * (len(run.snapshots) + 1))
        snap_lines.extend(fmt % row for row in zip(grid.nodes.tolist(), *run.snapshots.tolist()))
        _emit(snap_lines, str(snap_path))
    return 0


def cmd_suffcond(args: argparse.Namespace) -> int:
    s = _Settings(args)
    bc, scheme, L, _ = _common_geometry(s)
    if scheme is Scheme.CUSTOM:
        raise InvalidArgumentError("suffcond sweeps M, which --scheme custom fixes")
    r = _single("suffcond", "r", _parse_float_list("r", s.get("r", "0.1")))
    nu = _parse_float("nu", s.get("nu", "0.1"))
    a_bound = _parse_float("a-bound", s.get("a-bound", required=True))
    max_m = _parse_int("max-M", s.get("max-M", "200"))
    if a_bound < 0.0:
        raise InvalidArgumentError(f"--a-bound must be nonnegative, got {a_bound}")
    if max_m < 1:
        raise InvalidArgumentError(f"--max-M must be positive, got {max_m}")

    found = failure = None
    for M in range(1, max_m + 1):
        try:
            data = build_projection(assemble_cross_gram(bc, place(scheme, L, M, r)))
        except ConstraintViolationError:
            continue  # uni below M = r/(1-r)
        except tuple(_ROW_STATUS) as exc:
            # a failed M counts as not satisfied; the file names the first
            failure = failure or f"M={M}: {exc}"
            continue
        report = check_sufficient_condition(nu, bc, M, data.op_norm, a_bound, L=L)
        if report.satisfied:
            found = report
            break

    norm_lim = op_norm_limit(r)
    X = (L / math.pi) * math.sqrt((6.0 + 4.0 * norm_lim**2) / nu) * a_bound
    closed_form_m = max(1, math.ceil(X - 1.0 if bc is BoundaryCondition.DIRICHLET else X))

    lines = [s.config_comment(args.command)]
    if found is None:
        lines.append("swept_minimal_M=-1")
        lines.append(f"# margin test not satisfied for any M <= {max_m}")
    else:
        lines.append(f"swept_minimal_M={found.M}")
        lines.append(f"op_norm_at_minimal_M={_fmt(found.op_norm)}")
        lines.append(f"alpha_next={_fmt(found.alpha_next)}")
        lines.append(f"margin={_fmt(found.margin)}")
    lines.append(f"closed_form_minimal_M={closed_form_m}")
    lines.append(f"op_norm_limit={_fmt(norm_lim)}")
    if failure:
        lines.append(f"# first failed {failure}")
    _emit(lines, s.get("output"))
    if failure:
        raise NumericalFailureError(f"the sweep failed first at {failure}")
    return 0


_FLAGS: dict[str, tuple[str, ...]] = {
    "eigs": ("bc", "scheme", "centers", "M", "r", "L", "jobs", "output"),
    "norm": ("bc", "scheme", "centers", "M", "r", "L", "jobs", "output"),
    "project": ("bc", "scheme", "centers", "M", "r", "L", "input", "output"),
    "simulate": (
        "bc",
        "scheme",
        "centers",
        "M",
        "r",
        "L",
        "nu",
        "lam",
        "N",
        "k",
        "T",
        "feed-on",
        "reaction",
        "y0",
        "snapshot-times",
        "output",
    ),
    "suffcond": ("bc", "scheme", "r", "L", "nu", "a-bound", "max-M", "output"),
}
_CONFIG_KEYS = {key for flags in _FLAGS.values() for key in flags}

_HELP = {
    "bc": "boundary condition: dirichlet (default) or neumann",
    "scheme": "actuator placement: mxe (default), uni, con, or custom",
    "centers": "comma-separated centers, required with --scheme custom",
    "M": "actuator count, a single value or an inclusive range lo..hi",
    "r": "volume fraction(s) in (0, 1), comma-separated where a list is allowed",
    "L": "domain length (default pi)",
    "jobs": "accepted for compatibility; sweeps run serially and this has no effect",
    "nu": "diffusion coefficient (default 0.1)",
    "lam": "feedback shift lambda (default 1.0)",
    "N": "grid node count (default 1001)",
    "k": "time step (default 1e-3)",
    "T": "final time (default 4.5)",
    "feed-on": "feedback activity window 't0:t1', or 'off' for free dynamics",
    "reaction": "'constant:<value>' (default constant:-3.5), 'oscillating', or 'table:<file>'",
    "y0": "'linear:<slope>' (default linear:0.1) or 'samples:<file>'",
    "snapshot-times": "comma-separated times whose states go to <output stem>_snapshots",
    "input": "CSV of 'x,value' samples of the function to project",
    "output": "output file (default: stdout)",
    "a-bound": "bound on the reaction magnitude in the margin test",
    "max-M": "largest actuator count tried by the sweep (default 200)",
}

_COMMANDS = {
    "eigs": cmd_eigs,
    "norm": cmd_eigs,
    "project": cmd_project,
    "simulate": cmd_simulate,
    "suffcond": cmd_suffcond,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oblique-stab",
        description="Oblique-projection feedback stabilisation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _FLAGS.items():
        p = sub.add_parser(name, help=f"{name} command")
        for flag in flags:
            p.add_argument(f"--{flag}", dest=flag.replace("-", "_"), help=_HELP[flag])
        p.add_argument("--config", help="key=value settings file; flags override it")
        p.set_defaults(func=_COMMANDS[name])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
