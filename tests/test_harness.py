"""Sweeps, CSV/SVG emission, the verify runner, and the CLI entry point."""

import argparse
import importlib
import itertools
import json
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fidsus
import fidsus.bounds
import fidsus.cli
import fidsus.fidelity
import fidsus.gibbs
import fidsus.plotting
import fidsus.sweep
import fidsus.verify
from conftest import same_blocks
from fidsus.cli import main
from fidsus.errors import (
    CrossCheckError,
    CutoffConvergenceWarning,
    EmptyDataError,
    MissingColumnError,
    ModelSchemaError,
    RowLengthError,
)
from fidsus.gibbs import family_at_beta, make_family
from fidsus.models import MODEL_KINDS, ModelSpec, build_model, random_pair
from fidsus.bounds import bound_report
from fidsus.plotting import emit_plot, read_columns, render_svg, write_text_atomic
from fidsus.sweep import (
    CSV_HEADER,
    SweepRow,
    SweepSpec,
    compute_rows,
    format_csv,
    report_columns,
    run_sweep,
    sweep_grid,
)
from fidsus.verify import run_verify


def spin_spec(**kw):
    return SweepSpec(
        model=ModelSpec("single_spin"),
        sweep_param="h3",
        start=kw.pop("start", 0.2),
        stop=kw.pop("stop", 2.0),
        steps=kw.pop("steps", 7),
        **kw,
    )


# ---------------------------------------------------------------------------
# grids and the CSV schema


def test_grid_linear_and_log():
    lin = sweep_grid(spin_spec(steps=10))
    np.testing.assert_array_equal(lin, np.linspace(0.2, 2.0, 10))
    log = sweep_grid(spin_spec(steps=5, scale="log"))
    np.testing.assert_allclose(log, np.geomspace(0.2, 2.0, 5), rtol=1e-15)


def test_spec_validation():
    with pytest.raises(ValueError):
        spin_spec(start=2.0, stop=0.2)
    with pytest.raises(ValueError):
        spin_spec(steps=1)
    with pytest.raises(ValueError):
        spin_spec(scale="cubic")
    with pytest.raises(ValueError):
        spin_spec(start=-1.0, stop=1.0, scale="log")
    with pytest.raises(ValueError):
        SweepSpec(
            model=ModelSpec("single_spin"),
            sweep_param="omega",  # not a single_spin parameter
            start=0.1,
            stop=1.0,
            steps=3,
        )
    with pytest.raises(ValueError):
        spin_spec(svg_path="plot.svg")  # svg without csv
    with pytest.raises(ModelSchemaError, match="known: .*'single_spin'"):
        SweepSpec(ModelSpec("nope"), "beta", 0.1, 1.0, 3)  # was a bare KeyError


def test_csv_header_schema():
    assert CSV_HEADER == (
        "param,beta,chi_f,chi_f_classical,chi_f_quantum,ub,lb_paper,lb_aasc,"
        "chi_fg,ds2,bd,dcomm,chi_n,sandwich_ok,degenerate_pairs"
    )


def test_csv_values_round_trip_through_float():
    rows = compute_rows(spin_spec(steps=4))
    text = format_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert float(cells[0]) == row.param
        assert float(cells[2]) == row.chi_f
        assert float(cells[5]) == row.ub
        assert cells[13] in ("true", "false")
        assert cells[14] == str(row.degenerate_pairs)


def test_rows_satisfy_sandwich_and_metric_identity():
    rows = compute_rows(
        SweepSpec(
            model=ModelSpec("random", {"beta": 1.0}, {"dim": 6}, seed=5),
            sweep_param="beta",
            start=0.3,
            stop=4.0,
            steps=9,
        )
    )
    for r in rows:
        lb = max(r.lb_paper, r.lb_aasc, 0.0)
        assert lb - 1e-10 <= r.chi_f <= r.ub + 1e-10
        assert abs(r.ds2 - r.chi_f) <= 1e-9 * max(1.0, r.chi_f)
        assert r.chi_fg == r.lb_aasc
        assert r.sandwich_ok


def test_beta_fast_path_matches_pointwise_rebuild():
    grid = np.linspace(0.4, 3.0, 6)
    rows = compute_rows(
        SweepSpec(
            model=ModelSpec("random", {"beta": float(grid[0])}, {"dim": 5}, seed=8),
            sweep_param="beta",
            start=float(grid[0]),
            stop=float(grid[-1]),
            steps=6,
        )
    )
    for value, row in zip(grid, rows):
        fam = build_model(ModelSpec("random", {"beta": float(value)}, {"dim": 5}, seed=8))
        rep = bound_report(fam)
        assert row.beta == value
        assert row.chi_f == pytest.approx(rep.chi_f, rel=1e-12)
        assert row.ub == pytest.approx(rep.upper, rel=1e-12)
        assert row.chi_n == pytest.approx(rep.chi_n, rel=1e-9)


_BETA_GRIDS = {
    # sectors, and a block of two copies
    "dicke": (ModelSpec("dicke", {"omega": 2.0, "eps": 1.0, "lambda": 1.0, "beta": 0.5},
                        {"n_atoms": 3, "n_max": 12}), 0.5, 4.0),
    # two whole parity blocks
    "tfim": (ModelSpec("tfim", {"j": 1.0, "g": 0.7, "beta": 0.1}, {"n_sites": 6}), 0.1, 30.0),
    # degenerate pairs at every temperature
    "tfim_g0": (ModelSpec("tfim", {"j": 1.0, "g": 0.0, "beta": 0.1}, {"n_sites": 6}), 0.1, 20.0),
    # populations that underflow to 0
    "random": (ModelSpec("random", {"beta": 0.01}, {"dim": 12}, seed=3), 0.01, 800.0),
}


@pytest.mark.parametrize("chunk", [None, 500, 3 * 26 * 26])
@pytest.mark.parametrize("case", sorted(_BETA_GRIDS))
def test_beta_sweep_equals_a_report_per_temperature(case, chunk, monkeypatch, block_sums_calls):
    """A beta sweep sums every temperature's pairs in one stacked pass per
    block, yet each row is, float for float, the report of that
    temperature's own family.  A small ``_CHUNK_ELEMENTS`` splits the
    stack into chunks (3 temperatures per chunk of dicke's 26 x 26
    rectangle), or, below one block's pair count (500 < 676), sums that
    block one temperature at a time."""
    model, start, stop = _BETA_GRIDS[case]
    spec = SweepSpec(model, "beta", start, stop, 12, scale="log")
    if chunk is not None:
        monkeypatch.setattr(fidsus.gibbs, "_CHUNK_ELEMENTS", chunk)
    rows = compute_rows(spec)
    stacked = list(block_sums_calls)
    base = build_model(model)
    ref = [
        SweepRow(float(v), **dict(report_columns(bound_report(family_at_beta(base, float(v))))))
        for v in sweep_grid(spec)
    ]
    assert rows == ref
    if case == "dicke":
        # the probe's two families, then the later 11 temperatures stacked
        per_block = {None: [[11], [11]], 500: [[1] * 11, [2] * 5 + [1]],
                     3 * 26 * 26: [[3, 3, 3, 2], [11]]}[chunk]
        assert stacked == [1] * 4 + [n for sizes in per_block for n in sizes]
    if case == "random":
        assert rows[-1].beta == 800.0 and base.underflow_count == 0
        assert family_at_beta(base, 800.0).underflow_count > 0
    if case == "tfim_g0":
        assert all(row.degenerate_pairs > 0 for row in rows)


def test_beta_sweep_reports_its_first_point_on_the_built_family(pair_passes):
    """The first point of a beta sweep is the family the build returned, so
    the pair pass that the Dicke cutoff probe made on it serves that
    point's report: the probe sums its wider family and the built family,
    then the later points are summed, each once, in one stacked pass."""
    model = ModelSpec(
        "dicke", {"omega": 2.0, "eps": 1.0, "lambda": 1.0, "beta": 0.5},
        {"n_atoms": 3, "n_max": 12},
    )
    rows = compute_rows(SweepSpec(model, "beta", 0.5, 4.0, 5, scale="log"))
    assert len(pair_passes) == 1 + len(rows)
    assert pair_passes[0].dim > pair_passes[1].dim
    assert [fam.beta for fam in pair_passes[1:]] == [row.beta for row in rows]


# ---------------------------------------------------------------------------
# file emission


def test_run_sweep_writes_byte_identical_csv(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    run_sweep(spin_spec(csv_path=str(p1)))
    run_sweep(spin_spec(csv_path=str(p2)))
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_grid_point_leaves_no_file(tmp_path, monkeypatch):
    calls = {"n": 0}
    real = fidsus.sweep.bound_report

    def flaky(fam, **kw):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("synthetic failure at the third point")
        return real(fam, **kw)

    monkeypatch.setattr(fidsus.sweep, "bound_report", flaky)
    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError):
        run_sweep(spin_spec(csv_path=str(target)))
    assert not target.exists()


def _fail_sweep_csv(tmp_path, target, monkeypatch):
    monkeypatch.setattr(fidsus.sweep, "format_csv", lambda rows: "param\n\ud800\n")
    with pytest.raises(UnicodeEncodeError):
        run_sweep(spin_spec(steps=2, csv_path=str(target)))


def _fail_plot(tmp_path, target, monkeypatch):
    monkeypatch.setattr(fidsus.plotting, "render_svg", lambda x, series: "<svg>\ud800")
    with pytest.raises(UnicodeEncodeError):
        emit_plot(write_csv(tmp_path, "param,a\n0,1\n1,2\n"), ["a"], str(target))


def _fail_report_out(tmp_path, target, monkeypatch):
    monkeypatch.setattr(fidsus.cli, "_render_text", lambda fields: "chi_f = \ud800\n")
    argv = ["report", "--model", "single_spin", "--h3", "1.0", "--out", str(target)]
    assert main(argv) == 1


@pytest.mark.parametrize("write", [_fail_sweep_csv, _fail_plot, _fail_report_out])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, capsys, write):
    # a lone surrogate cannot be encoded as UTF-8, so the write fails midway
    target = tmp_path / "old.out"
    target.write_bytes(b"previous output\n")
    write(tmp_path, target, monkeypatch)
    capsys.readouterr()
    assert target.read_bytes() == b"previous output\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_atomic_write_replaces_and_follows_umask(tmp_path):
    target = tmp_path / "new.txt"
    old_mask = os.umask(0o027)
    try:
        write_text_atomic(str(target), "first\n")
        write_text_atomic(str(target), "second\n")
    finally:
        os.umask(old_mask)
    assert target.read_bytes() == b"second\n"
    assert os.stat(target).st_mode & 0o777 == 0o640
    assert os.listdir(tmp_path) == ["new.txt"]
    missing = tmp_path / "no_dir" / "x.txt"
    with pytest.raises(FileNotFoundError) as info:
        write_text_atomic(str(missing), "text")
    assert info.value.filename == str(missing)  # errors name the target


def test_run_sweep_emits_svg(tmp_path):
    csv_p = tmp_path / "s.csv"
    svg_p = tmp_path / "s.svg"
    run_sweep(spin_spec(csv_path=str(csv_p), svg_path=str(svg_p)))
    text = svg_p.read_text(encoding="utf-8")
    assert text.startswith("<?xml")
    assert text.count("<polyline") == 3  # chi_f, ub, lb_paper


# ---------------------------------------------------------------------------
# plotting pieces


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_read_columns_selects_and_validates(tmp_path):
    path = write_csv(tmp_path, "param,a,b\n1,2,3\n4,5,6\n")
    cols = read_columns(path, ["b"])
    assert cols["param"] == [1.0, 4.0]
    assert cols["b"] == [3.0, 6.0]
    with pytest.raises(MissingColumnError):
        read_columns(path, ["nope"])
    with pytest.raises(ValueError):
        read_columns(write_csv(tmp_path, "param,a\n1,x\n", "bad.csv"), ["a"])


def test_short_row_names_the_file_line_and_column(tmp_path, capsys):
    """A row shorter than the header raised IndexError."""
    path = write_csv(tmp_path, "param,chi_f,ub\n0.1,0.5,0.75\n0.2,0.25\n")
    message = f"{path}: line 3 has no column 'ub'"
    with pytest.raises(MissingColumnError) as info:
        read_columns(path, ["chi_f", "ub"])
    assert str(info.value) == message
    svg = tmp_path / "p.svg"
    assert main(["plot", "--csv", path, "--columns", "chi_f,ub", "--svg", str(svg)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not svg.exists()


@pytest.mark.parametrize(
    "text, error, detail",
    [
        ("param,a\n0.1,2\n1,2,3\n", RowLengthError, "line 3 has 3 cells, the header 2"),
        ("param,a,b\n1,2\n", MissingColumnError, "line 2 has 2 cells, the header 3"),
    ],
    ids=["long", "short_unrequested"],
)
def test_every_row_has_as_many_cells_as_the_header(tmp_path, capsys, text, error, detail):
    """A row one cell too long was read from its first cells, and a short
    row passed when the requested columns came before the gap."""
    path = write_csv(tmp_path, text)
    with pytest.raises(error) as info:
        read_columns(path, ["a"])
    assert str(info.value) == f"{path}: {detail}"
    svg = tmp_path / "p.svg"
    assert main(["plot", "--csv", path, "--columns", "a", "--svg", str(svg)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {detail}\n"
    assert not svg.exists()


def test_read_columns_empty_inputs(tmp_path):
    with pytest.raises(EmptyDataError):
        read_columns(write_csv(tmp_path, "param,a\n", "h.csv"), ["a"])
    with pytest.raises(EmptyDataError):
        read_columns(write_csv(tmp_path, "", "e.csv"), ["a"])


def test_render_svg_structure():
    x = [0.0, 1.0, 2.0]
    svg = render_svg(x, {"up": [0.0, 1.0, 4.0], "down": [4.0, 1.0, 0.0]})
    assert svg.startswith("<?xml")
    assert svg.count("<polyline") == 2
    assert "up" in svg and "down" in svg
    with pytest.raises(ValueError):
        render_svg(x, {"bad": [0.0, float("nan"), 1.0]})


def test_emit_plot_end_to_end(tmp_path):
    path = write_csv(tmp_path, "param,a,b\n0,1,2\n1,2,3\n2,4,5\n")
    out = tmp_path / "p.svg"
    emit_plot(path, ["a", "b"], str(out))
    assert out.read_text(encoding="utf-8").count("<polyline") == 2


# ---------------------------------------------------------------------------
# verify runner


def test_verify_deterministic_and_green():
    a = run_verify(seed=5, instances=8, dim_max=6)
    b = run_verify(seed=5, instances=8, dim_max=6)
    assert a.passed
    assert a.text == b.text
    lines = a.text.strip().split("\n")
    assert lines[0] == "verify seed=5 instances=8 dim_max=6"
    assert lines[-1].startswith("result: ")
    for line in lines[1:-1]:
        assert line.split(" ", 1)[0] in ("PASS", "FAIL", "REPORT")


def test_kernel_suite_memory_is_bounded_by_chunks():
    """The kernel suite passes its 250004 points through tanh_over_x in
    chunks: whole-array temporaries (2 MiB each) peaked near 14 MiB."""
    out = []
    tracemalloc.start()
    try:
        fidsus.verify._suite_kernels(0, 1000, 12, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.passed for r in out] == [True, True]
    assert peak < 5 * 2**20


def test_random_suite_evaluates_G_once_per_family(monkeypatch):
    """Both quadrature oracles of a family read one G grid: 50 families make
    50 correlation_G calls."""
    calls = []
    real = fidsus.gibbs.correlation_G

    def counted(fam, tau):
        calls.append(fam)
        return real(fam, tau)

    for mod in (fidsus.gibbs, fidsus.fidelity, fidsus.bounds, fidsus.verify):
        if getattr(mod, "correlation_G", None) is real:
            monkeypatch.setattr(mod, "correlation_G", counted)
    out = []
    fidsus.verify._suite_random(0, 50, 12, out)
    assert all(r.passed for r in out)
    assert len(calls) == 50


@pytest.mark.parametrize("seed", [0, 4242])
def test_verify_text_is_the_same_without_the_stacked_pass(seed, monkeypatch):
    """The random and oracle suites form each stack's pair sums in one
    pass; with that pass a no-op, each report forms its own, and the
    text is the same bytes."""
    stacked = run_verify(seed, 60, 12).text
    monkeypatch.setattr(fidsus.verify, "_pair_sums_over", lambda fams: None)
    assert run_verify(seed, 60, 12).text == stacked


@pytest.mark.parametrize("seed", [0, 4242])
def test_verify_text_is_the_same_without_the_stacked_build(seed, monkeypatch):
    """The random and oracle suites build each stack with one stacked
    eigensolve; with each family built alone by `make_family` instead,
    the text is the same bytes."""
    stacked = run_verify(seed, 60, 12).text
    monkeypatch.setattr(
        fidsus.verify,
        "make_families",
        lambda T, S, betas: [make_family(t, s, beta) for t, s, beta in zip(T, S, betas)],
    )
    assert run_verify(seed, 60, 12).text == stacked


def test_stacked_families_are_the_random_pairs():
    """Each family that `verify` builds in a stack is bit for bit the
    `random_pair` of its seed, dimension and beta, in order of ascending
    dimension."""
    rng = np.random.default_rng(5)
    seeds = [int(x) for x in rng.integers(0, 2**31, 40)]
    dims = rng.integers(2, 6, size=40)
    betas = 10.0 ** rng.uniform(-1.0, 1.0, size=40)
    fams = list(fidsus.verify._stacked_families(seeds, dims, betas))
    order = sorted(range(40), key=lambda k: dims[k])
    assert len(fams) == 40
    for fam, k in zip(fams, order):
        want = random_pair(int(dims[k]), seeds[k], beta=float(betas[k]))
        assert same_blocks(fam, want)
        assert (fam.beta, fam.log_z, fam.s_mean) == (want.beta, want.log_z, want.s_mean)


def test_random_suite_builds_each_stack_with_one_eigensolve(eig_calls):
    """The 1000 instances at seed 0 fall in 66 stacks of one dimension
    (see below), each built with one stacked eigensolve: 66 calls, one per
    stack, not 1000."""
    fidsus.verify._suite_random(0, 1000, 12, [])
    assert len(eig_calls) == 66
    assert sorted(set(eig_calls)) == list(range(2, 13))


@pytest.mark.parametrize("instances, passes", [(50, 11), (1000, 66)])
def test_random_suite_sums_each_stack_in_one_pass(instances, passes, block_sums_calls):
    """The random suite draws its families one dimension at a time, in
    stacks of at most 16, and sums each stack's pairs in one pass: one
    `_block_sums` call per stack, not one per family.  At seed 0 the 50
    instances fall on all 11 dims from 2 to 12, 2 to 7 on each, so one
    stack each: 11.  The 1000 instances put 92, 108, 73, 94, 98, 93,
    101, 94, 76, 91 and 80 on dims 2 to 12, in ceil(n / 16) stacks each:
    6 + 7 + 5 + 6 + 7 + 6 + 7 + 6 + 5 + 6 + 5 = 66."""
    out = []
    fidsus.verify._suite_random(0, instances, 12, out)
    assert all(r.passed for r in out)
    assert len(block_sums_calls) == passes
    assert sum(block_sums_calls) == instances
    assert max(block_sums_calls) <= 16


def _nan_on_fifth_call(real):
    calls = itertools.count(1)
    return lambda fam: math.nan if next(calls) == 5 else real(fam)


def test_a_nan_in_a_later_instance_fails_its_check(monkeypatch):
    """Python's max() drops a NaN unless it comes first, so a NaN past the
    first instance used to leave a check passing on the other values."""
    for name in ("bd_integral_oracle", "free_energy_curvature"):
        monkeypatch.setattr(
            fidsus.verify, name, _nan_on_fifth_call(getattr(fidsus.verify, name))
        )
    summary = run_verify(seed=0, instances=20)
    results = {r.name: r for r in summary.results}
    for name in ("bd_quadrature", "chi_n_vs_curvature"):
        assert not results[name].passed
        assert results[name].detail.startswith("worst=nan ")
    assert not summary.passed


def test_verify_argument_validation():
    with pytest.raises(ValueError):
        run_verify(instances=0)
    with pytest.raises(ValueError):
        run_verify(dim_max=1)
    with pytest.raises(ValueError):
        run_verify(dim_max=17)


# ---------------------------------------------------------------------------
# command line


def test_cli_report_text(capsys):
    rc = main(["report", "--model", "single_spin", "--h3", "1.0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "chi_f = 0.14500641459649347" in out
    assert "sandwich_ok = true" in out


def test_cli_report_json(capsys):
    rc = main(["report", "--model", "single_spin", "--h3", "1.0", "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["model"] == "single_spin"
    assert obj["chi_f"] == pytest.approx(0.14500641459649347, rel=1e-15)


def test_cli_report_out_file(tmp_path, capsys):
    out = tmp_path / "rep.txt"
    rc = main(["report", "--model", "single_spin", "--h3", "0.5", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert "chi_f = " in out.read_text(encoding="utf-8")


def test_cli_report_keys_and_per_particle_values(capsys):
    """The report keys follow the CSV columns; with N > 1 the extensive
    columns are repeated per particle, each divided by N exactly."""
    argv = ["report", "--model", "dicke", "--n-atoms", "3", "--n-max", "8", "--omega", "2",
            "--eps", "1", "--lambda", "0.5", "--beta", "1"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    extensive = ["chi_f", "ub", "lb_paper", "lb_aasc", "ds2", "bd", "dcomm"]
    columns = CSV_HEADER.split(",")
    assert columns[:2] == ["param", "beta"]
    assert [line.split(" = ")[0] for line in lines] == [
        "model", "dim", "beta", "particle_count", *columns[2:],
        *[f"per_particle.{c}" for c in extensive],
    ]
    assert main([*argv, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["particle_count"] == 3
    assert obj["per_particle"] == {c: obj[c] / 3 for c in extensive}
    assert main(["report", "--model", "single_spin", "--h3", "1.0", "--json"]) == 0
    assert "per_particle" not in json.loads(capsys.readouterr().out)


def test_cli_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["report", "--model", "single_spin"]) == 1  # h3 missing
    assert main(["report", "--model", "no_such"]) == 1
    capsys.readouterr()


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_importing_the_cli_loads_no_test_or_scipy_module():
    """``fidsus.cli`` imported in a fresh interpreter loads neither scipy
    (``import scipy.linalg`` alone takes a few tenths of a second),
    ``numpy.polynomial`` (loaded on first use by the quadrature oracles)
    nor hypothesis, a test dependency."""
    code = (
        "import sys, fidsus.cli; "
        "print([m for m in ('scipy', 'numpy.polynomial', 'hypothesis') if m in sys.modules])"
    )
    src = Path(fidsus.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_cli_models_list(capsys):
    rc = main(["models", "list"])
    out = capsys.readouterr().out
    assert rc == 0
    for kind in ("single_spin", "dicke", "kondo_toy", "random", "tfim", "file"):
        assert kind in out
    assert "h3 (required)" in out


_DICKE_FLAGS = ["--model", "dicke", "--n-atoms", "2", "--n-max", "8", "--omega", "2",
                "--eps", "1", "--lambda", "0.5", "--beta", "1"]


def test_symmetric_sector_is_a_switch_not_a_parameter(tmp_path, capsys):
    model = ModelSpec(
        "dicke",
        {"omega": 2.0, "eps": 1.0, "lambda": 0.5, "beta": 1.0},
        {"n_atoms": 2, "n_max": 8},
    )
    with pytest.raises(ModelSchemaError):
        SweepSpec(model=model, sweep_param="symmetric_sector", start=0, stop=1, steps=3)
    out = tmp_path / "s.csv"
    argv = ["sweep", *_DICKE_FLAGS, "--sweep-param", "symmetric_sector",
            "--from", "0", "--to", "1", "--steps", "3", "--out", str(out)]
    assert main(argv) == 1
    assert "symmetric_sector" in capsys.readouterr().err
    assert not out.exists()

    assert main(["models", "list"]) == 0
    listing = capsys.readouterr().out
    assert "symmetric_sector=" not in listing
    assert "--symmetric-sector" in listing

    # the flag and the config key still build the sector model
    assert main(["report", *_DICKE_FLAGS, "--symmetric-sector", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 9 * 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"symmetric_sector": True}), encoding="utf-8")
    assert main(["report", *_DICKE_FLAGS, "--config", str(cfg), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 9 * 3
    assert build_model(model).dim == 9 * 4
    half = replace(model, parameters={**model.parameters, "symmetric_sector": 0.5})
    with pytest.raises(ModelSchemaError):
        build_model(half)


_TFIM_FLAGS = ["--model", "tfim", "--n-sites", "4", "--j", "1", "--g", "1", "--beta", "1"]


@pytest.mark.parametrize(
    "extra", [["--omega", "3"], ["--symmetric-sector"], ["--dim", "3"]], ids=lambda e: e[0]
)
def test_cli_rejects_a_model_flag_the_kind_does_not_take(tmp_path, capsys, extra):
    """--omega and a true --symmetric-sector on tfim were dropped: exit 0."""
    assert main(["report", *_TFIM_FLAGS, *extra]) == 1
    assert capsys.readouterr().err.startswith("error: kind 'tfim' does not take ")
    key = extra[0][2:].replace("-", "_")
    cfg = _config(tmp_path, {key: True if len(extra) == 1 else 3})
    assert main(["report", *_TFIM_FLAGS, "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith("error: kind 'tfim' does not take ")
    # a false switch asks for nothing
    off = _config(tmp_path, {"symmetric_sector": False})
    assert main(["report", *_TFIM_FLAGS, "--config", off]) == 0
    capsys.readouterr()


def test_cli_sweep_rejects_an_energy_beyond_the_modes(tmp_path, capsys):
    """Sweeping eps2 of a one-mode kondo_toy wrote three rows of one chi_f."""
    out = tmp_path / "k.csv"
    argv = ["sweep", "--model", "kondo_toy", "--s2", "1", "--modes", "1", "--j", "0.5",
            "--beta", "1", "--sweep-param", "eps2", "--from", "0", "--to", "1",
            "--steps", "3", "--out", str(out)]
    assert main(argv) == 1
    assert "eps2" in capsys.readouterr().err
    assert not out.exists()


def test_cli_sweep_and_plot(tmp_path, capsys):
    csv_p = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep",
            "--model",
            "single_spin",
            "--sweep-param",
            "h3",
            "--from",
            "0.2",
            "--to",
            "1.4",
            "--steps",
            "5",
            "--out",
            str(csv_p),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out == f"wrote 5 rows to {csv_p}\n"
    assert csv_p.read_text(encoding="utf-8").startswith(CSV_HEADER)

    svg_p = tmp_path / "sweep.svg"
    rc = main(["plot", "--csv", str(csv_p), "--svg", str(svg_p)])
    assert rc == 0
    assert svg_p.exists()
    capsys.readouterr()

    rc = main(["plot", "--csv", str(csv_p), "--columns", "nope", "--svg", str(svg_p)])
    assert rc == 1
    capsys.readouterr()


def test_cli_verify_small(capsys):
    rc = main(["verify", "--seed", "3", "--instances", "5", "--dim-max", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("verify seed=3 instances=5 dim_max=5\n")
    assert "result: " in out


@pytest.mark.parametrize("command", ["report", "sweep"])
def test_cli_has_a_flag_for_every_declared_parameter_and_cutoff(command):
    parser = fidsus.cli._build_parser()
    for kind, entry in MODEL_KINDS.items():
        for which, typ in (("parameters", float), ("cutoffs", int)):
            for name in entry[which]:
                flag = "--" + name.replace("_", "-")
                args = parser.parse_args([command, "--model", kind, flag, "3"])
                value = getattr(args, name)
                assert type(value) is typ and value == 3, (kind, flag)


def test_cli_parses_a_sweep_without_the_other_subcommands_arguments():
    """Only the subcommand argv names gets its arguments; every other one
    is listed with its help and has none."""
    parser = fidsus.cli._build_parser(["sweep", "--model", "tfim", "--sweep-param", "g"])
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {name: {a.dest for a in p._actions} - {"help"} for name, p in sub.choices.items()}
    assert dests.pop("sweep") >= {"model", "g", "sweep_param", "start", "svg", "config"}
    assert dests == {"report": set(), "verify": set(), "plot": set(), "models": set()}
    assert all(a.help for a in sub._choices_actions)


def test_every_exported_name_resolves():
    modules = [fidsus] + [
        importlib.import_module(f"fidsus.{info.name}")
        for info in pkgutil.iter_modules(fidsus.__path__)
    ]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"


def _config(tmp_path, obj):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj), encoding="utf-8")
    return str(cfg)


_SPIN_SWEEP = [
    "sweep", "--model", "single_spin", "--sweep-param", "h3",
    "--from", "0.2", "--to", "1.8",
]


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"model": "single_spin", "h3": 2.0}), encoding="utf-8"
    )
    rc = main(["report", "--config", str(cfg), "--h3", "1.0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "chi_f = 0.14500641459649347" in out  # the flag's h3=1 won


def test_cli_config_rejects_a_fractional_cutoff(tmp_path, capsys):
    """The CLI cast cutoffs with int(), so dim 5.7 reported a dim-5 model
    and exited 0."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "random", "dim": 5.7, "beta": 1.0}), encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cutoff 'dim' must be an integer, got 5.7\n"


def test_cli_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "single_spin", "bogus": 1}), encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 1
    capsys.readouterr()
    # the subcommand and its handler are set by the parser, not options
    for key in ("command", "func"):
        cfg = _config(tmp_path, {"model": "single_spin", "h3": 1.0, key: "verify"})
        assert main(["report", "--config", cfg]) == 1
        assert f"unknown option {key!r}" in capsys.readouterr().err


def test_cli_config_sets_options_that_have_a_default(tmp_path, capsys):
    """The file's instances and dim_max were dropped because the options
    had argparse defaults, so verify ran 1000 families of dim up to 12."""
    cfg = _config(tmp_path, {"instances": 5, "dim_max": 3})
    assert main(["verify", "--config", cfg]) == 0
    assert capsys.readouterr().out.startswith("verify seed=42 instances=5 dim_max=3\n")


def test_cli_config_sets_the_sweep_scale(tmp_path, capsys):
    """{"scale": "log"} from the file wrote a linear grid."""
    out = tmp_path / "s.csv"
    cfg = _config(tmp_path, {"scale": "log"})
    argv = [*_SPIN_SWEEP, "--steps", "3", "--out", str(out), "--config", cfg]
    assert main(argv) == 0
    capsys.readouterr()
    assert read_columns(str(out), ["param"])["param"] == pytest.approx([0.2, 0.6, 1.8])


@pytest.mark.parametrize("steps", [3.5, True])
def test_cli_config_rejects_a_non_integer_step_count(tmp_path, capsys, steps):
    """int() made 3.5 steps 3 rows, and true 1 step."""
    out = tmp_path / "s.csv"
    cfg = _config(tmp_path, {"steps": steps})
    assert main([*_SPIN_SWEEP, "--out", str(out), "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: steps must be an integer, got {steps!r}\n"
    assert not out.exists()


_DICKE_CONFIG = {
    "model": "dicke", "n_atoms": 2, "n_max": 8, "omega": 1, "eps": 1, "lambda": 1,
    "beta": 1,
}


@pytest.mark.parametrize(
    "config, message",
    [
        ({"model": "single_spin", "h3": True}, "h3 must be a real number, got True"),
        ({"model": "single_spin", "h3": "2"}, "h3 must be a real number, got '2'"),
        ({"model": "single_spin", "h3": 1, "json": "no"},
         "json must be true or false, got 'no'"),
        ({**_DICKE_CONFIG, "symmetric_sector": "off"},
         "symmetric_sector must be true or false, got 'off'"),
    ],
    ids=["bool_real", "string_real", "string_json", "string_sector"],
)
def test_cli_config_values_are_typed(tmp_path, capsys, config, message):
    """float() built h3 = 1 from true and took the string "2", and the
    switches tested only truth: {"json": "no"} printed JSON and
    "symmetric_sector": "off" built the sector model."""
    assert main(["report", "--config", _config(tmp_path, config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_config_switches_take_true_and_false(tmp_path, capsys):
    """true and false still set and clear both switches."""
    for sector, dim in ((True, 27), (False, 36)):
        config = {**_DICKE_CONFIG, "symmetric_sector": sector, "json": True}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CutoffConvergenceWarning)
            assert main(["report", "--config", _config(tmp_path, config)]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == dim
    cfg = _config(tmp_path, {"model": "single_spin", "h3": 1, "json": False})
    assert main(["report", "--config", cfg]) == 0
    assert capsys.readouterr().out.startswith("model = single_spin\n")


def test_cli_cross_check_failure_maps_to_two(monkeypatch, capsys):
    def boom(fam, **kw):
        raise CrossCheckError("synthetic", "forced mismatch")

    monkeypatch.setattr(fidsus.cli, "bound_report", boom)
    rc = main(["report", "--model", "single_spin", "--h3", "1.0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "internal consistency check failed" in err


@pytest.mark.parametrize("seed", range(5))
def test_chi_n_oracle_passes_at_small_beta(seed):
    """These reports exited 2 when the oracle took a second difference of
    ln Z at a step that did not scale with S."""
    argv = ["report", "--model", "random", "--dim", "5", "--beta", "0.001", "--seed", str(seed)]
    assert main(argv) == 0


def test_cli_report_past_the_oracle_step_exits_two(capsys):
    """Here the chi_N oracle's step underflowed to 0 and the report exited
    1 on a float division by zero."""
    argv = ["report", "--model", "random", "--dim", "4", "--beta", "1e308", "--s-scale", "1e15"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(argv) == 2
    assert "internal consistency check failed" in capsys.readouterr().err


def test_cross_check_messages_print_plain_floats(monkeypatch, capsys):
    # force a chi_N oracle miss with a numpy scalar; the message must show
    # plain floats, not numpy reprs
    monkeypatch.setattr(
        "fidsus.bounds.free_energy_curvature", lambda fam: np.float64(0.0037351)
    )
    rc = main(["report", "--model", "random", "--dim", "5", "--beta", "0.001", "--seed", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "spectral chi_N 0.00373" in err
    assert "finite difference 0.0037351" in err
    assert "np.float64" not in err
