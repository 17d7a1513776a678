"""Parameter sweeps: evaluate the full bound report along a 1-D grid.

A sweep pins one model kind, varies a single declared parameter over a
linear or logarithmic grid, and emits one CSV row per point with chi_F,
its decomposition, every bound, and the consistency flags.  Rows are
computed before anything is written, so a failure at any grid point
leaves no partial output file behind.

The fields of `SweepRow` are the one list of published report values:
the CSV header, `report_columns` and the ``fidsus report`` keys follow
their names and order, and `format_cell` prints every value.

Sweeps over ``beta`` take a fast path: the Hamiltonian and perturbation
do not depend on beta for any registered kind, so the model is built
(and eigendecomposed) once and only the Gibbs weights are recomputed per
point (`family_at_beta`).  Every point's pair sums then come from one
call of the one pair-sum pass, `fidelity._pair_sums_over`, over a
leading temperature axis, in chunks whose (temperatures, rows, cols)
arrays stay within ``gibbs._CHUNK_ELEMENTS`` elements, before the points
are reported one by one.  The result is bit-identical to rebuilding from
scratch, point by point, because the eigensolver is deterministic and
each temperature's sums are the floats the same pass gives it alone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields, replace
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import BoundReport, bound_report
from .errors import ModelSchemaError
from .fidelity import _pair_sums_over
from .gibbs import family_at_beta
from .models import ModelSpec, _kind_entry, build_model
from .plotting import emit_plot, write_text_atomic

__all__ = [
    "CSV_HEADER",
    "SweepRow",
    "SweepSpec",
    "format_cell",
    "format_csv",
    "report_columns",
    "run_sweep",
    "sweep_grid",
]


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a model kind, the parameter to vary, and the grid.

    ``start`` and ``stop`` delimit the grid (start < stop); ``scale``
    selects linear or logarithmic spacing (log requires start > 0).  The
    swept name must be a declared real parameter of the model kind, so
    integer cutoffs cannot be swept.
    """

    model: ModelSpec
    sweep_param: str
    start: float
    stop: float
    steps: int
    scale: str = "linear"
    csv_path: Optional[str] = None
    svg_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sweep_param not in _kind_entry(self.model.kind)["parameters"]:
            raise ModelSchemaError(
                f"model kind {self.model.kind!r} has no sweepable parameter "
                f"{self.sweep_param!r}"
            )
        if not (np.isfinite(self.start) and np.isfinite(self.stop)):
            raise ValueError("sweep endpoints must be finite")
        if not self.start < self.stop:
            raise ValueError(
                f"sweep needs start < stop, got [{self.start}, {self.stop}]"
            )
        if self.steps < 2:
            raise ValueError(f"sweep needs at least 2 steps, got {self.steps}")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"unknown sweep scale {self.scale!r}")
        if self.scale == "log" and self.start <= 0.0:
            raise ValueError("log-scale sweep requires start > 0")
        if self.svg_path is not None and self.csv_path is None:
            raise ValueError("an SVG output requires a CSV output path")


@dataclass(frozen=True)
class SweepRow:
    """One CSV row: the swept value plus the flattened bound report.

    The fields, in order, are the published report values: they name the
    CSV columns, and every one after ``param`` is a key of ``fidsus report``.
    """

    param: float
    beta: float
    chi_f: float
    chi_f_classical: float
    chi_f_quantum: float
    ub: float
    lb_paper: float
    lb_aasc: float
    chi_fg: float
    ds2: float
    bd: float
    dcomm: float
    chi_n: float
    sandwich_ok: bool
    degenerate_pairs: int


CSV_HEADER = ",".join(f.name for f in fields(SweepRow))

# a row's values in column order, read shallowly (dataclasses.astuple
# deep-copies every field)
_row_values = operator.attrgetter(*CSV_HEADER.split(","))

# the columns whose BoundReport attribute has another name
_REPORT_ATTR = {
    "ub": "upper",
    "lb_paper": "lower_paper",
    "lb_aasc": "lower_aasc",
    "chi_fg": "lower_aasc",
    "bd": "bd_product",
    "degenerate_pairs": "degenerate_pair_count",
}


def report_columns(rep: BoundReport) -> Iterator[Tuple[str, object]]:
    """The ``(column, value)`` pairs of a report: every column after ``param``."""
    for f in fields(SweepRow)[1:]:
        yield f.name, getattr(rep, _REPORT_ATTR.get(f.name, f.name))


def format_cell(value: object) -> str:
    """One CSV cell or report value: bools as true/false, floats at 17 digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def sweep_grid(spec: SweepSpec) -> np.ndarray:
    """The grid of swept values, ascending, endpoints included."""
    if spec.scale == "log":
        return np.geomspace(spec.start, spec.stop, spec.steps)
    return np.linspace(spec.start, spec.stop, spec.steps)


def _model_at(spec: SweepSpec, value: float) -> ModelSpec:
    params = dict(spec.model.parameters)
    params[spec.sweep_param] = float(value)
    return replace(spec.model, parameters=params)


def compute_rows(spec: SweepSpec) -> List[SweepRow]:
    """Evaluate every grid point; nothing touches the filesystem here."""
    grid = sweep_grid(spec)
    if spec.sweep_param == "beta":
        # the first point is the built family, whose memo a builder's own
        # checks (the Dicke cutoff probe) may have filled already
        base = build_model(_model_at(spec, grid[0]))
        fams = [base, *(family_at_beta(base, float(v)) for v in grid[1:])]
        _pair_sums_over(fams)
    else:
        fams = (build_model(_model_at(spec, value)) for value in grid)
    return [
        SweepRow(float(value), **dict(report_columns(bound_report(fam))))
        for value, fam in zip(grid, fams)
    ]


def format_csv(rows: Sequence[SweepRow]) -> str:
    """Render rows as the fixed-schema CSV text, 17 significant digits."""
    lines = [CSV_HEADER]
    lines += [",".join(map(format_cell, _row_values(r))) for r in rows]
    return "\n".join(lines) + "\n"


def run_sweep(spec: SweepSpec) -> List[SweepRow]:
    """Compute the sweep and write the CSV (and optional SVG) outputs.

    All points are evaluated before the first byte is written, so an
    error at any grid point aborts with no output file.  Each file is
    replaced atomically, so a failed write leaves any existing file of
    the target name as it was.
    """
    rows = compute_rows(spec)
    if spec.csv_path is not None:
        write_text_atomic(spec.csv_path, format_csv(rows))
        if spec.svg_path is not None:
            emit_plot(
                spec.csv_path,
                ["chi_f", "ub", "lb_paper"],
                spec.svg_path,
            )
    return rows
