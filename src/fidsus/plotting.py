"""Line plots of sweep CSVs as self-contained SVG files.

The writer emits a small SVG 1.1 subset by hand: ``line`` for axes and
ticks, ``polyline`` for data series, ``text`` for labels.  No external
assets, no fonts beyond the generic ``sans-serif`` family, no styling
beyond inline attributes, so the output bytes are a pure function of the
input data and render anywhere.  Coordinates are printed with two
decimals to keep files small and byte-stable.

Every output file of the package (CSV, SVG, report text) goes through
`write_text_atomic`, so a failed write never touches an existing file.
"""

from __future__ import annotations

import csv
import os
from typing import Dict, List, Sequence

from .errors import EmptyDataError, MissingColumnError, RowLengthError

__all__ = ["emit_plot", "read_columns", "render_svg", "write_text_atomic"]

_WIDTH = 800.0
_HEIGHT = 500.0
_MARGIN_LEFT = 72.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 24.0
_MARGIN_BOTTOM = 48.0

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def write_text_atomic(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` in one step, or leave it as it was.

    The text goes to a new file beside the target, which is then renamed
    over it; on any failure only that temporary file is removed.  It is
    created with mode 0o666, so the umask decides the final permissions
    as it does for a new file made by ``open(path, "w")``.
    """
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def read_columns(csv_path: str, names: Sequence[str]) -> Dict[str, List[float]]:
    """Read the named numeric columns (plus ``param``) from a sweep CSV.

    Raises
    ------
    MissingColumnError
        if the header lacks a requested column, or a data row has fewer
        cells than the header.
    RowLengthError
        if a data row has more cells than the header.
    EmptyDataError
        if the file has a header but no data rows.
    """
    wanted = ["param", *[n for n in names if n != "param"]]
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataError(f"{csv_path}: no header row") from None
        missing = [n for n in wanted if n not in header]
        if missing:
            raise MissingColumnError(
                f"{csv_path}: missing column(s) {', '.join(missing)}"
            )
        index = {n: header.index(n) for n in wanted}
        data: Dict[str, List[float]] = {n: [] for n in wanted}
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                lost = [n for n in wanted if index[n] >= len(row)]
                detail = (
                    f"has no column {lost[0]!r}" if lost
                    else f"has {len(row)} cells, the header {len(header)}"
                )
                error = MissingColumnError if len(row) < len(header) else RowLengthError
                raise error(f"{csv_path}: line {reader.line_num} {detail}")
            for n in wanted:
                cell = row[index[n]]
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{csv_path}: column {n!r} has non-numeric cell {cell!r}"
                    ) from None
                data[n].append(value)
    if not data["param"]:
        raise EmptyDataError(f"{csv_path}: no data rows")
    return data


def _span(values: Sequence[float]) -> tuple:
    lo = min(values)
    hi = max(values)
    if hi == lo:
        pad = max(0.5, abs(lo) * 1e-3)
        return lo - pad, hi + pad
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _fmt(x: float) -> str:
    return format(x, ".2f")


def _ticks(lo: float, hi: float, count: int = 5) -> List[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_svg(x: Sequence[float], series: Dict[str, Sequence[float]]) -> str:
    """Render one polyline per series against x; returns the SVG text."""
    if not x:
        raise EmptyDataError("nothing to plot")
    for name, ys in series.items():
        if len(ys) != len(x):
            raise ValueError(f"series {name!r} length differs from x")
        if any(not (v == v and abs(v) != float("inf")) for v in ys):
            raise ValueError(f"series {name!r} contains non-finite values")

    x_lo, x_hi = _span(x)
    all_y = [v for ys in series.values() for v in ys]
    y_lo, y_hi = _span(all_y)

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(v: float) -> float:
        return _MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return _MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" '
            f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(_HEIGHT)}">'
        ),
    ]

    x0, x1 = _MARGIN_LEFT, _MARGIN_LEFT + plot_w
    y0, y1 = _MARGIN_TOP, _MARGIN_TOP + plot_h
    axis = 'stroke="#303030" stroke-width="1"'
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y1)}" x2="{_fmt(x1)}" '
        f'y2="{_fmt(y1)}" {axis}/>'
    )
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" '
        f'y2="{_fmt(y1)}" {axis}/>'
    )

    label = 'font-family="sans-serif" font-size="12" fill="#303030"'
    for tv in _ticks(x_lo, x_hi):
        px = sx(tv)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(y1)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(y1 + 5)}" {axis}/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y1 + 20)}" text-anchor="middle" '
            f"{label}>{format(tv, '.4g')}</text>"
        )
    for tv in _ticks(y_lo, y_hi):
        py = sy(tv)
        parts.append(
            f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" '
            f'y2="{_fmt(py)}" {axis}/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(py + 4)}" text-anchor="end" '
            f"{label}>{format(tv, '.4g')}</text>"
        )
    parts.append(
        f'<text x="{_fmt(x0 + plot_w / 2)}" y="{_fmt(_HEIGHT - 8)}" '
        f'text-anchor="middle" {label}>param</text>'
    )

    for k, (name, ys) in enumerate(series.items()):
        color = _PALETTE[k % len(_PALETTE)]
        points = " ".join(
            f"{_fmt(sx(xv))},{_fmt(sy(yv))}" for xv, yv in zip(x, ys)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
        )
        parts.append(
            f'<text x="{_fmt(x1 - 8)}" y="{_fmt(y0 + 16 + 16 * k)}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{name}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(csv_path: str, columns: Sequence[str], svg_path: str) -> None:
    """Plot the named CSV columns against ``param`` into an SVG file."""
    names = [n for n in columns if n != "param"]
    if not names:
        raise MissingColumnError("no data columns requested")
    data = read_columns(csv_path, names)
    write_text_atomic(svg_path, render_svg(data["param"], {n: data[n] for n in names}))
