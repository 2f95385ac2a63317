"""Parsers of the command line's flag texts and of its input files.

A flag's parser takes the flag's name, for its messages, and its raw text;
every parser and reader raises InvalidArgumentError, naming the flag or the
file, for text it cannot take.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import InvalidArgumentError
from .fem import constant_reaction, oscillating_reaction, tabulated_reaction


def parse_enum(kind):
    def parse(key: str, text: str):
        try:
            return kind(text.strip().lower())
        except ValueError:
            choices = ", ".join(member.value for member in kind)
            raise InvalidArgumentError(f"--{key} must be one of {choices}; got {text!r}") from None

    return parse


def parse_float(key: str, text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise InvalidArgumentError(f"--{key} expects a number, got {text!r}") from None
    if not math.isfinite(val):
        raise InvalidArgumentError(f"--{key} expects a finite number, got {text!r}")
    return val


def parse_floats(key: str, texts: list[str]) -> np.ndarray:
    """`parse_float` of each text, with one finiteness check; on a failure the
    texts are parsed again in order, stripped, so the first bad one is named."""
    try:
        vals = np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        vals = None
    if vals is None or not np.isfinite(vals).all():
        for text in texts:
            parse_float(key, text.strip())
    return vals


def parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidArgumentError(f"--{key} expects an integer, got {text!r}") from None


def parse_count(key: str, text: str) -> int:
    val = parse_int(key, text)
    if val < 1:
        raise InvalidArgumentError(f"--{key} must be positive, got {val}")
    return val


def parse_m_values(key: str, text: str) -> list[int]:
    """Either a single count '6' or an inclusive range '2..200'."""
    lo_s, sep, hi_s = text.strip().partition("..")
    if not sep:
        return [parse_count(key, text)]
    lo, hi = parse_int(key, lo_s), parse_int(key, hi_s)
    if lo < 1 or hi < lo:
        raise InvalidArgumentError(f"--{key} range must satisfy 1 <= lo <= hi, got {text!r}")
    return list(range(lo, hi + 1))


def parse_float_list(key: str, text: str) -> list[float]:
    items = [s for s in (part.strip() for part in text.split(",")) if s]
    if not items:
        raise InvalidArgumentError(f"--{key} list is empty")
    return parse_floats(key, items).tolist()


def parse_feed_on(key: str, text: str) -> tuple[float, float] | bool:
    """'t0:t1' for a closed activity window, 'off' (False) to disable the feedback."""
    text = text.strip().lower()
    if text == "off":
        return False
    t0_s, sep, t1_s = text.partition(":")
    if not sep:
        raise InvalidArgumentError(f"--{key} expects 't0:t1' or 'off', got {text!r}")
    t0, t1 = parse_float(key, t0_s), parse_float(key, t1_s)
    if not t1 > t0 or t0 < 0.0:
        raise InvalidArgumentError(f"--{key} needs 0 <= t0 < t1, got {text!r}")
    return t0, t1


def data_lines(path: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of each line that is neither blank nor a `#` comment."""
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read {path}: {exc}") from None
    lines = enumerate(map(str.strip, raw.splitlines()), start=1)
    return [(n, line) for n, line in lines if line and line[0] != "#"]


def read_table_lines(path: str) -> list[list[str]]:
    rows = [line.split(",") for _, line in data_lines(path)]
    if not rows:
        raise InvalidArgumentError(f"{path} contains no data rows")
    return rows


def parse_reaction(text: str, nu: float, L: float):
    text = text.strip()
    if text.startswith("constant:"):
        return constant_reaction(parse_float("reaction", text[len("constant:"):]))
    if text == "oscillating":
        return oscillating_reaction(nu, L)
    if text.startswith("table:"):
        rows = read_table_lines(text[len("table:"):])
        head, body = rows[0], rows[1:]
        if head[0].strip().lower() != "x" or len(head) < 3:
            raise InvalidArgumentError(
                "reaction table must start with a header row 'x,<x1>,<x2>,...'"
            )
        xs = parse_floats("reaction", head[1:])
        # the rows before the first of another length, in file order
        n = next((i for i, row in enumerate(body) if len(row) != len(head)), len(body))
        texts = [s for row in body[:n] for s in row]
        table = parse_floats("reaction", texts).reshape(n, len(head))
        if n < len(body):
            raise InvalidArgumentError("reaction table rows have inconsistent lengths")
        if not n:
            raise InvalidArgumentError("reaction table has no time rows")
        return tabulated_reaction(table[:, 0], xs, table[:, 1:])
    raise InvalidArgumentError(
        f"--reaction must be 'constant:<value>', 'oscillating', or 'table:<file>', got {text!r}"
    )


def parse_y0(text: str, nodes: np.ndarray, L: float) -> np.ndarray:
    text = text.strip()
    if text.startswith("linear:"):
        slope = parse_float("y0", text[len("linear:"):])
        if not math.isfinite(slope * L):  # the largest of slope * nodes
            raise InvalidArgumentError(f"--y0 slope {slope:g} overflows at x = L = {L:g}")
        return slope * nodes
    if text.startswith("samples:"):
        xs, vals = inside_domain("y0", load_samples("y0", text[len("samples:"):]), L)
        return np.interp(nodes, xs, vals)
    raise InvalidArgumentError(
        f"--y0 must be 'linear:<slope>' or 'samples:<file>', got {text!r}"
    )


def load_samples(key: str, path: str) -> tuple[np.ndarray, np.ndarray]:
    rows = read_table_lines(path)
    try:
        float(rows[0][0])
    except ValueError:
        rows = rows[1:]  # a header row
    n = next((i for i, row in enumerate(rows) if len(row) < 2), len(rows))
    cells = parse_floats(key, [s for row in rows[:n] for s in row[:2]])
    if n < len(rows):
        raise InvalidArgumentError(f"{path}: each sample row needs 'x,value'")
    if n < 2:
        raise InvalidArgumentError(f"{path}: need at least two samples, got {n}")
    if np.any(np.diff(cells[0::2]) <= 0.0):
        raise InvalidArgumentError(f"{path}: sample x values must be strictly increasing")
    return cells[0::2], cells[1::2]


def inside_domain(key: str, samples: tuple[np.ndarray, np.ndarray], L: float):
    """`samples` once they span [0, L], to 1e-12 L, which np.interp would fill with constants."""
    if abs(samples[0][0]) > 1e-12 * L or abs(samples[0][-1] - L) > 1e-12 * L:
        raise InvalidArgumentError(f"--{key} samples must span [0, L] from x = 0 to x = L")
    return samples
