"""Output checks for one CLI invocation.

Every check returns a list of problems; an empty list means the output is
correct.  The tolerances follow the repository's tests: 1e-8 relative for
vartheta against its closed form (criterion 1), 1e-9 relative for norms, and
a norm ratio below 0.1 for the six-actuator closed loop (criterion 8).

The projection coefficients are compared at 1e-6 relative, not the tests'
1e-9: the program integrates the piecewise-linear interpolant of the samples
with Gauss-Legendre panels that do not split at the sample nodes, which
limits agreement with the exact integral to about 1e-7.  A wrong support,
scaling or coefficient is off by far more.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from pathlib import Path

VARTHETA_RTOL = 1e-8
PROJECTION_RTOL = 1e-6
NORM_RTOL = 1e-9


@dataclass(frozen=True)
class CsvOutput:
    comments: list[str]
    header: list[str]
    rows: list[list[str]]

    def column(self, name: str) -> list[float]:
        j = self.header.index(name)
        return [float(row[j]) for row in self.rows]

    def comment_value(self, key: str) -> str | None:
        prefix = f"# {key}:"
        for line in self.comments:
            if line.startswith(prefix):
                return line[len(prefix):].strip()
        return None


def read_csv(path: Path) -> CsvOutput:
    comments, body = [], []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif line.strip():
            body.append(line.split(","))
    if not body:
        return CsvOutput(comments, [], [])
    return CsvOutput(comments, body[0], body[1:])


def nonfinite_rows(out: CsvOutput) -> int:
    """Data rows with a numeric cell that is NaN or infinite.

    Empty and text cells are not numbers and pass, so a status column or a
    blank cell for a failed sweep row is allowed.
    """
    bad = 0
    for row in out.rows:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                bad += 1
                break
    return bad


def check_common(exit_code: int, path: Path, expected_rows: int) -> tuple[list[str], CsvOutput | None]:
    """Exit code 0, the file exists, has the expected rows, all finite."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], None
    if not Path(path).is_file():
        return ["no output file"], None
    out = read_csv(path)
    problems = []
    if len(out.rows) != expected_rows:
        problems.append(f"{len(out.rows)} data rows, expected {expected_rows}")
    bad = nonfinite_rows(out)
    if bad:
        problems.append(f"{bad} rows with non-finite values")
    return problems, out


def _rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def check_closed_loop(exit_code: int, path: Path, reference: dict[float, float]) -> list[str]:
    """Stabilised (final/initial norm < 0.1) and norms match the reference rows."""
    problems, out = check_common(exit_code, path, 4501)
    if out is None or problems:
        return problems
    norms = out.column("l2_norm")
    ratio = norms[-1] / norms[0]
    if not ratio < 0.1:
        problems.append(f"norm ratio {ratio:.3g} is not below 0.1: not stabilised")
    by_t = dict(zip(out.column("t"), norms))
    worst = 0.0
    for t, want in reference.items():
        got = by_t.get(t)
        if got is None:
            problems.append(f"no row at t={t!r}")
            break
        worst = max(worst, _rel_err(got, want))
    if worst > NORM_RTOL:
        problems.append(f"norm column differs from reference by {worst:.3e} relative")
    return problems


def check_feed_window(exit_code: int, path: Path, rows: int, t_off: float) -> list[str]:
    """Feedback flag is 1 up to t_off and 0 after it."""
    problems, out = check_common(exit_code, path, rows)
    if out is None or problems:
        return problems
    flags = zip(out.column("t"), out.column("feedback_on"))
    wrong = sum(1 for t, on in flags if on != (1.0 if t <= t_off + 1e-9 else 0.0))
    if wrong:
        problems.append(f"{wrong} rows with the wrong feedback flag")
    return problems


def check_sweep(exit_code: int, path: Path, rows: int) -> list[str]:
    """Numeric vartheta agrees with the closed form to 1e-8 relative."""
    problems, out = check_common(exit_code, path, rows)
    if out is None or problems:
        return problems
    num = out.column("vartheta_numeric")
    ana = out.column("vartheta_analytic")
    worst = max(_rel_err(a, b) for a, b in zip(num, ana))
    if worst > VARTHETA_RTOL:
        problems.append(f"vartheta differs from the closed form by {worst:.3e} relative")
    return problems


def piecewise_linear_integral(xs: list[float], ys: list[float], lo: float, hi: float) -> float:
    """Exact integral over [lo, hi] of the linear interpolant of (xs, ys)."""
    pts = [lo] + [x for x in xs if lo < x < hi] + [hi]
    vals = [_interp(p, xs, ys) for p in pts]
    return sum(
        0.5 * (vals[i] + vals[i + 1]) * (pts[i + 1] - pts[i]) for i in range(len(pts) - 1)
    )


def _interp(x: float, xs: list[float], ys: list[float]) -> float:
    k = bisect.bisect_right(xs, x)
    if k == 0:
        return ys[0]
    if k == len(xs):
        return ys[-1]
    w = (x - xs[k - 1]) / (xs[k] - xs[k - 1])
    return (1.0 - w) * ys[k - 1] + w * ys[k]


def mxe_support_gammas(xs: list[float], ys: list[float], M: int, r: float, L: float) -> list[float]:
    """Orthogonal coefficients for disjoint mxe supports, computed directly.

    With disjoint supports the normalised indicators are orthonormal, so
    gamma_j = sqrt(M/(r L)) times the integral of the input over support j.
    """
    delta = r * L / (2 * M)
    coeff = math.sqrt(M / (r * L))
    gammas = []
    for j in range(1, M + 1):
        c = (2 * j - 1) * L / (2 * M)
        gammas.append(coeff * piecewise_linear_integral(xs, ys, c - delta, c + delta))
    return gammas


def check_projection(exit_code: int, path: Path, rows: int, gammas: list[float]) -> list[str]:
    """Orthogonal residual <= oblique residual; coefficients match support integrals."""
    problems, out = check_common(exit_code, path, rows)
    if out is None or problems:
        return problems
    try:
        orth = float(out.comment_value("orthogonal_residual_l2"))
        obli = float(out.comment_value("oblique_residual_l2"))
        got = [float(v) for v in out.comment_value("orthogonal_coefficients").split(",")]
    except (TypeError, ValueError):
        return ["missing or malformed residual or coefficient comments"]
    if not orth <= obli:
        problems.append(f"orthogonal residual {orth!r} exceeds oblique residual {obli!r}")
    if len(got) != len(gammas):
        problems.append(f"{len(got)} orthogonal coefficients, expected {len(gammas)}")
    else:
        scale = max(abs(g) for g in gammas)
        worst = max(abs(a - b) for a, b in zip(got, gammas)) / scale
        if worst > PROJECTION_RTOL:
            problems.append(f"orthogonal coefficients differ by {worst:.3e} relative")
    return problems
