"""The benchmark's workloads: CLI arguments made from a seed, and output checks.

Every workload runs through ``fidsus.cli.main`` with the CLI defaults, so the
chi_N oracle and the Dicke cutoff probe stay on.  ``check`` counts
operations and failures from a repetition's directory: an operation is one
sweep row or one ``verify`` hard check, and a nonzero exit code fails all
of them.
"""

from __future__ import annotations

import csv
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from xml.etree import ElementTree

DEFAULT_SEED = 0
STDOUT = "stdout.txt"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Each sweep endpoint is scaled by a factor drawn from [1 - JITTER, 1 + JITTER].
JITTER = 0.02
# |ds2 - chi_f| <= DS2_TOL * max(1, |chi_f|) is the published contract.
DS2_TOL = 1e-10
# At the default seed these columns must match the reference table.
REF_COLUMNS = ("param", "chi_f", "ub", "lb_paper", "chi_fg", "bd", "dcomm", "chi_n")
REF_TOL = 1e-8


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(1.0, abs(ref))


@dataclass(frozen=True)
class Sweep:
    """``fidsus sweep`` of one model parameter, writing CSV and maybe SVG."""

    name: str
    why: str
    model_args: Tuple[str, ...]
    param: str
    start: float
    stop: float
    steps: int
    scale: str = "linear"
    svg: bool = False
    reference: Optional[str] = None

    @property
    def outputs(self) -> Tuple[str, ...]:
        return ("out.csv", "out.svg") if self.svg else ("out.csv",)

    def endpoints(self, seed: int) -> Tuple[float, float]:
        rng = random.Random(seed)
        start = round(self.start * (1.0 + rng.uniform(-JITTER, JITTER)), 6)
        stop = round(self.stop * (1.0 + rng.uniform(-JITTER, JITTER)), 6)
        return start, stop

    def argv(self, seed: int) -> List[str]:
        start, stop = self.endpoints(seed)
        args = ["sweep", *self.model_args, "--sweep-param", self.param]
        args += ["--from", repr(start), "--to", repr(stop), "--steps", str(self.steps)]
        args += ["--scale", self.scale, "--out", "out.csv"]
        if self.svg:
            args += ["--svg", "out.svg"]
        return args

    def reference_rows(self) -> List[Dict[str, str]]:
        with open(REFERENCE_DIR / self.reference, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    def check(self, rep_dir: Path, exit_code: int, seed: int) -> Tuple[int, int]:
        """(attempted, failed) rows of one repetition."""
        try:
            with open(rep_dir / "out.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        except FileNotFoundError:
            rows = []
        attempted = max(self.steps, len(rows))
        if exit_code != 0 or (self.svg and not _svg_ok(rep_dir / "out.svg")):
            return attempted, attempted
        refs = self.reference_rows() if seed == DEFAULT_SEED and self.reference else []
        passed = sum(
            _row_ok(row, refs[i] if i < len(refs) else None)
            for i, row in enumerate(rows[: self.steps])
        )
        return attempted, attempted - passed


def _svg_ok(path: Path) -> bool:
    try:
        root = ElementTree.parse(path).getroot()
    except (FileNotFoundError, ElementTree.ParseError):
        return False
    return root.tag == "{http://www.w3.org/2000/svg}svg"


def _row_ok(row: Dict[str, str], ref: Optional[Dict[str, str]]) -> bool:
    try:
        values = {col: float(row[col]) for col in REF_COLUMNS + ("ds2",)}
        sandwich = row["sandwich_ok"]
        refs = {col: float(ref[col]) for col in REF_COLUMNS} if ref else {}
    except (KeyError, TypeError, ValueError):
        return False
    if sandwich != "true" or not all(math.isfinite(v) for v in values.values()):
        return False
    if not _close(values["ds2"], values["chi_f"], DS2_TOL):
        return False
    return all(_close(values[col], ref_value, REF_TOL) for col, ref_value in refs.items())


_RESULT_LINE = re.compile(r"result: (\d+)/(\d+) hard checks passed")


@dataclass(frozen=True)
class Verify:
    """``fidsus verify``: the seeded self-verification suites."""

    name: str
    why: str
    instances: int
    dim_max: int
    outputs: Tuple[str, ...] = ()

    def argv(self, seed: int) -> List[str]:
        return [
            "verify",
            "--seed", str(seed),
            "--instances", str(self.instances),
            "--dim-max", str(self.dim_max),
        ]

    def check(self, rep_dir: Path, exit_code: int, seed: int) -> Tuple[int, int]:
        """(attempted, failed) hard checks of one repetition."""
        try:
            lines = (rep_dir / STDOUT).read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            lines = []
        tags = [line.split(" ", 1)[0] for line in lines]
        hard = tags.count("PASS") + tags.count("FAIL")
        match = _RESULT_LINE.match(lines[-1]) if lines else None
        attempted = max(1, hard, int(match.group(2)) if match else 0)
        if exit_code != 0 or match is None:
            return attempted, attempted
        return attempted, attempted - tags.count("PASS")


WORKLOADS = {
    w.name: w
    for w in (
        Sweep(
            name="field_sweep",
            why="tfim dim 128 across g = J: each point rebuilds the model, so fresh dense eigensolves dominate",
            model_args=("--model", "tfim", "--n-sites", "7", "--j", "1", "--beta", "2"),
            param="g",
            start=0.5,
            stop=1.5,
            steps=4,
            reference="field_sweep.csv",
        ),
        Sweep(
            name="beta_sweep",
            why="dicke dim 104, one build for 12 beta points: the per-point chi_N oracle, cutoff probe and writers dominate",
            model_args=(
                "--model", "dicke", "--n-atoms", "3", "--n-max", "12",
                "--omega", "2", "--eps", "1", "--lambda", "1",
            ),
            param="beta",
            start=0.5,
            stop=4.0,
            steps=12,
            scale="log",
            svg=True,
            reference="beta_sweep.csv",
        ),
        Verify(
            name="verify",
            why="1000 random families of dim 2-12 with quadrature oracles: per-call overhead weighs as much as the eigensolve",
            instances=1000,
            dim_max=12,
        ),
    )
}
