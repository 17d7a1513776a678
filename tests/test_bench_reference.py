"""The benchmark's correctness gate, run as a test.

``perfbench/reference/*.csv`` hold the seed-0 rows the benchmark checks
every sweep against.  These tests re-run each sweep through the CLI on the
grid recorded there (first and last ``param``, row count) and hold the
rows to the same gate: every reference column within 1e-8 of
``max(1, |ref|)`` and the sandwich intact; the degenerate-pair count
must also match.  They only read the tables.  They also count the
``eig_hermitian`` calls.  A family is built from its symmetry blocks,
one solve per block, or one per sector of a block whose builder
declares two, and the chi_N oracle solves each field once per whole
block and keeps the result for every temperature of the family.  Each
``tfim`` point of ``field_sweep`` is a new build of two parity blocks,
two solves of T; its oracle takes the four fields (+-h/2, +-h) from
the chain's free fermions, one N x N SVD each and no eigensolve, so
2 per point and 8 in all.  ``beta_sweep`` builds one ``dicke``
family of two blocks, spin 3/2 and spin 1/2 with its two copies, each
solved as its two parity sectors (four solves), and probes its cutoff
(four more).  Its S is sign-odd, so only +h fields are solved, and its
twelve temperatures fall on rungs 0 to 3 of the step ladder, which
share the five fields h_0 to h_4, each solved once per block:
4 + 4 + 5 x 2 = 18.

They also count the commutator formations of the double commutator's
direct route, one K S - S K per block of a family, kept for every
temperature of it.  ``field_sweep`` forms 2 per point, 8 in all;
``beta_sweep`` forms its two blocks' once for all twelve temperatures,
and its cutoff probe forms none, so 2.

And they count the passes over the pair sums, one `_block_sums` call
over one block at one or more temperatures.  ``field_sweep`` sums each
point's two blocks on their own, 8 in all.  ``beta_sweep``'s cutoff
probe sums the two blocks of its wider family and of the built family,
the first point; the eleven later temperatures then take one stacked
pass per block: 2 + 2 + 2 = 6.
"""

import csv
from pathlib import Path

import pytest

from fidsus.cli import main

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference"
COLUMNS = ("param", "chi_f", "ub", "lb_paper", "chi_fg", "bd", "dcomm", "chi_n")
TOL = 1e-8

EIGENSOLVES = {"field_sweep": 8, "beta_sweep": 18}
COMMUTATORS = {"field_sweep": 8, "beta_sweep": 2}
PAIR_PASSES = {"field_sweep": 8, "beta_sweep": 6}

SWEEPS = {
    "field_sweep": (
        ["--model", "tfim", "--n-sites", "7", "--j", "1", "--beta", "2"],
        ["--sweep-param", "g", "--scale", "linear"],
    ),
    "beta_sweep": (
        ["--model", "dicke", "--n-atoms", "3", "--n-max", "12",
         "--omega", "2", "--eps", "1", "--lambda", "1"],
        ["--sweep-param", "beta", "--scale", "log"],
    ),
}


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_passes_the_benchmark_reference_gate(
    name, tmp_path, eig_calls, commutator_calls, block_sums_calls
):
    refs = _rows(REFERENCE_DIR / f"{name}.csv")
    model, sweep = SWEEPS[name]
    out = tmp_path / "out.csv"
    argv = ["sweep", *model, *sweep, "--from", refs[0]["param"], "--to",
            refs[-1]["param"], "--steps", str(len(refs)), "--out", str(out)]
    assert main(argv) == 0
    assert len(eig_calls) == EIGENSOLVES[name]
    assert len(commutator_calls) == COMMUTATORS[name]
    assert len(block_sums_calls) == PAIR_PASSES[name]
    rows = _rows(out)
    assert len(rows) == len(refs)
    for row, ref in zip(rows, refs):
        assert row["sandwich_ok"] == "true"
        assert row["degenerate_pairs"] == ref["degenerate_pairs"]
        for col in COLUMNS:
            want = float(ref[col])
            assert abs(float(row[col]) - want) <= TOL * max(1.0, abs(want)), (
                f"{name} param={ref['param']} {col}"
            )
