"""Command-line front end: reports, sweeps, verification, plotting.

Subcommands
-----------
report
    Build one model, evaluate chi_F with every bound and cross-check,
    and print the result as aligned text or JSON (``--json``).
sweep
    Vary one declared parameter over a grid and write the fixed-schema
    CSV, optionally with an SVG line plot.
verify
    Run the seeded self-verification suites and print the summary; the
    output bytes depend only on (seed, instances, dim_max).
plot
    Render chosen columns of an existing sweep CSV as an SVG.
models list
    Show every model kind with its parameters and cutoffs.

Options may also come from a config file (``--config``), a JSON object
mapping option names to values.  A file value sets any option whose flag
is not given, and defaults apply after both.  Values are typed: an
integer must be integral (3.5 or true is an error, not 3 or 1), a real a
number (not a bool or a string), a switch (``json``,
``symmetric_sector``) true or false.

Exit codes: 0 on success, 1 on any build or usage error, and 2 when the
computation itself finished but an internal consistency cross-check
failed, which should be treated as a bug report, not as a result.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from .bounds import BoundReport, bound_report
from .errors import CrossCheckError, ModelParseError
from .models import (
    MODEL_KINDS,
    ModelSpec,
    _integer,
    _typed,
    _strict_json,
    build_model,
)
from .plotting import emit_plot, write_text_atomic
from .sweep import SweepSpec, format_cell, report_columns, run_sweep
from .verify import run_verify

__all__ = ["main"]


def _declared(which: str) -> List[str]:
    """Every name some model kind declares under ``which``, in registry order."""
    return list(dict.fromkeys(name for kind in MODEL_KINDS.values() for name in kind[which]))


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help="model kind (see `fidsus models list`)")
    for name in _declared("parameters"):
        p.add_argument(
            "--" + name.replace("_", "-"), dest=name, type=float, default=None
        )
    p.add_argument(
        "--symmetric-sector",
        dest="symmetric_sector",
        action="store_const",
        const=True,
        default=None,
        help="restrict the atom-field model to the maximal-spin sector",
    )
    for name in _declared("cutoffs"):
        p.add_argument(
            "--" + name.replace("_", "-"), dest=name, type=int, default=None
        )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--path", default=None, help="matrix file for kind 'file'")


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if getattr(args, "config", None) is None:
        return
    obj = _strict_json(args.config)
    if not isinstance(obj, dict):
        parser.error(f"{args.config}: config must be a JSON object")
    for key, value in obj.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest) or dest in ("command", "config", "func"):
            parser.error(f"{args.config}: unknown option {key!r}")
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _model_spec(args: argparse.Namespace) -> ModelSpec:
    if args.model is None:
        raise ModelParseError("no model kind given (use --model)")
    # every model flag given is passed on, so `build_model` rejects one the
    # kind does not take instead of it being dropped here
    params: Dict[str, float] = {
        name: _typed(name, value, float)
        for name in _declared("parameters")
        if (value := getattr(args, name)) is not None
    }
    sector = args.symmetric_sector
    if sector is not None and _typed("symmetric_sector", sector, bool):
        params["symmetric_sector"] = 1.0
    cutoffs: Dict[str, int] = {
        name: value
        for name in _declared("cutoffs")
        if (value := getattr(args, name)) is not None
    }
    return ModelSpec(
        kind=args.model,
        parameters=params,
        cutoffs=cutoffs,
        seed=args.seed,
        path=args.path,
    )


# the columns that scale with the system, printed per particle when N > 1
_EXTENSIVE = ("chi_f", "ub", "lb_paper", "lb_aasc", "ds2", "bd", "dcomm")


def _report_fields(spec: ModelSpec, dim: int, rep: BoundReport) -> List[tuple]:
    columns = dict(report_columns(rep))
    n = rep.particle_count
    fields = [
        ("model", spec.kind),
        ("dim", dim),
        ("beta", columns.pop("beta")),
        ("particle_count", n),
        *columns.items(),
    ]
    if n > 1:
        fields += [(f"per_particle.{c}", columns[c] / n) for c in _EXTENSIVE]
    return fields


def _render_text(fields: List[tuple]) -> str:
    return "".join(f"{key} = {format_cell(value)}\n" for key, value in fields)


def _render_json(fields: List[tuple]) -> str:
    obj: Dict[str, object] = {}
    for key, value in fields:
        node = obj
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cmd_report(args: argparse.Namespace) -> int:
    spec = _model_spec(args)
    fam = build_model(spec)
    rep = bound_report(fam)
    fields = _report_fields(spec, fam.dim, rep)
    as_json = args.json is not None and _typed("json", args.json, bool)
    text = _render_json(fields) if as_json else _render_text(fields)
    if args.out is None:
        sys.stdout.write(text)
    else:
        write_text_atomic(args.out, text)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    for required in ("sweep_param", "start", "stop", "steps", "out"):
        if getattr(args, required) is None:
            raise ModelParseError(f"sweep requires --{required.replace('_', '-')}")
    spec = SweepSpec(
        model=_model_spec(args),
        sweep_param=args.sweep_param,
        start=_typed("start", args.start, float),
        stop=_typed("stop", args.stop, float),
        steps=_integer("steps", args.steps),
        scale=args.scale or "linear",
        csv_path=args.out,
        svg_path=args.svg,
    )
    rows = run_sweep(spec)
    sys.stdout.write(f"wrote {len(rows)} rows to {args.out}\n")
    if args.svg is not None:
        sys.stdout.write(f"wrote plot to {args.svg}\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    names = ("seed", "instances", "dim_max")
    given = {k: v for k in names if (v := getattr(args, k)) is not None}
    summary = run_verify(**given)
    sys.stdout.write(summary.text)
    return 0 if summary.passed else 1


def _cmd_plot(args: argparse.Namespace) -> int:
    columns = [c for c in args.columns.split(",") if c]
    emit_plot(args.csv, columns, args.svg)
    sys.stdout.write(f"wrote plot to {args.svg}\n")
    return 0


def _cmd_models(args: argparse.Namespace) -> int:
    for kind in sorted(MODEL_KINDS):
        entry = MODEL_KINDS[kind]
        sys.stdout.write(f"{kind}\n    {entry['doc']}\n")
        for which in ("parameters", "cutoffs"):
            decl = entry[which]
            if not decl:
                continue
            rendered = ", ".join(
                f"{name} (required)" if default is None else f"{name}={default}"
                for name, default in decl.items()
            )
            sys.stdout.write(f"    {which}: {rendered}\n")
        for name in entry.get("switches", ()):
            sys.stdout.write(f"    switch: --{name.replace('_', '-')} (default off)\n")
        if kind == "file":
            sys.stdout.write("    options: --path (required)\n")
        if kind == "random":
            sys.stdout.write("    options: --seed (default 0)\n")
    return 0


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of ``argv``: every subcommand with its help, and the
    arguments of the subcommand ``argv`` names, or of every subcommand
    when it names none.  The subcommand is the first word of ``argv``
    not starting with a dash, the top level having no other option.
    Adding every subcommand's arguments, about 70 ``add_argument`` calls,
    costs about 1 ms more per call, near a tenth of a small sweep."""
    parser = argparse.ArgumentParser(
        prog="fidsus",
        description="fidelity susceptibility of one-parameter Gibbs families",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((word for word in argv if not word.startswith("-")), None)

    def add_parser(name: str, help_text: str) -> Optional[argparse.ArgumentParser]:
        """The subcommand's parser, if its arguments are to be added."""
        p = sub.add_parser(name, help=help_text)
        return p if named in (name, None) else None

    p_report = add_parser("report", "evaluate one model")
    if p_report is not None:
        _add_model_flags(p_report)
        p_report.add_argument("--json", action="store_const", const=True, default=None)
        p_report.add_argument("--out", default=None)
        p_report.add_argument("--config", default=None)
        p_report.set_defaults(func=_cmd_report)

    p_sweep = add_parser("sweep", "evaluate a model along a grid")
    if p_sweep is not None:
        _add_model_flags(p_sweep)
        p_sweep.add_argument("--sweep-param", dest="sweep_param", default=None)
        p_sweep.add_argument("--from", dest="start", type=float, default=None)
        p_sweep.add_argument("--to", dest="stop", type=float, default=None)
        p_sweep.add_argument("--steps", type=int, default=None)
        p_sweep.add_argument("--scale", choices=("linear", "log"), default=None)
        p_sweep.add_argument("--out", default=None, help="CSV output path")
        p_sweep.add_argument("--svg", default=None, help="optional SVG plot path")
        p_sweep.add_argument("--config", default=None)
        p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = add_parser("verify", "run the self-verification suites")
    if p_verify is not None:
        p_verify.add_argument("--seed", type=int, default=None)
        p_verify.add_argument("--instances", type=int, default=None)
        p_verify.add_argument("--dim-max", dest="dim_max", type=int, default=None)
        p_verify.add_argument("--config", default=None)
        p_verify.set_defaults(func=_cmd_verify)

    p_plot = add_parser("plot", "plot columns of a sweep CSV")
    if p_plot is not None:
        p_plot.add_argument("--csv", required=True)
        p_plot.add_argument("--columns", default="chi_f,ub,lb_paper")
        p_plot.add_argument("--svg", required=True)
        p_plot.set_defaults(func=_cmd_plot)

    p_models = add_parser("models", "model registry")
    if p_models is not None:
        p_models.add_argument("action", choices=("list",))
        p_models.set_defaults(func=_cmd_models)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        _apply_config(args, parser)
        return args.func(args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except CrossCheckError as exc:
        sys.stderr.write(f"internal consistency check failed: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
