"""Tests of the benchmark itself, on small versions of its workloads.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, JITTER, REFERENCE_DIR, STDOUT, WORKLOADS, Sweep, Verify  # noqa: E402

SMALL = {
    "field_sweep": Sweep(
        name="field_sweep",
        why="small",
        model_args=("--model", "tfim", "--n-sites", "3", "--j", "1", "--beta", "2"),
        param="g",
        start=0.5,
        stop=1.5,
        steps=2,
    ),
    "beta_sweep": Sweep(
        name="beta_sweep",
        why="small",
        model_args=(
            "--model", "dicke", "--n-atoms", "1", "--n-max", "10",
            "--omega", "2", "--eps", "1", "--lambda", "1",
        ),
        param="beta",
        start=0.5,
        stop=2.0,
        steps=3,
        scale="log",
        svg=True,
    ),
    "verify": Verify(name="verify", why="small", instances=2, dim_max=3),
}


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(workload, seed, directory, monkeypatch):
    """Run a workload in this process, as the child would, into ``directory``."""
    import fidsus.cli

    monkeypatch.chdir(directory)
    with open(STDOUT, "w", encoding="utf-8", newline="") as out:
        monkeypatch.setattr(sys, "stdout", out)
        code = fidsus.cli.main(workload.argv(seed))
    monkeypatch.undo()
    return code


def _metric_lines(text):
    lines = [line.split() for line in text.splitlines() if line.startswith("metric ")]
    return {parts[1]: parts[3] for parts in lines}


def test_metric_tables_match_benchmark_json():
    bench = _bench_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]


def test_untraced_run_prints_every_end_to_end_metric(tmp_path, capsys):
    result = run.measure(SMALL["beta_sweep"], 5, 0.0, False, tmp_path)
    printed = _metric_lines(capsys.readouterr().out)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == SMALL["beta_sweep"].steps
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(result["metrics"][k]["value"] > 0 for k in run.END_TO_END)
    assert printed == {**run.END_TO_END, "failed_ratio": "1"}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_reaches_every_consumer_module(name, tmp_path, capsys):
    result = run.measure(SMALL[name], 5, 0.0, True, tmp_path)
    printed = _metric_lines(capsys.readouterr().out)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # correct also requires byte-identical traced and untraced outputs
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    assert printed == {**run.PER_LAYER, "failed_ratio": "1"}
    assert metrics["linalg.eig_hermitian.calls"] > 0
    assert metrics["cli.main.self_s"] > 0
    if name == "verify":
        assert metrics["gibbs.correlation_G.calls"] > 0
        assert metrics["kernels.tanh_over_x.calls"] > 0
        assert metrics["linalg.singular_values_onesided.calls"] > 0
    else:
        assert metrics["bounds.free_energy_curvature.calls"] == SMALL[name].steps
        assert 0 < metrics["linalg.eig_hermitian.check_share"] < 1


def test_tracer_rebinds_every_holder_and_restores():
    import fidsus
    import fidsus.fidelity
    import fidsus.gibbs
    import fidsus.linalg

    holders = (fidsus.linalg, fidsus.gibbs, fidsus.fidelity)
    original = fidsus.linalg.eig_hermitian
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = {mod.eig_hermitian for mod in holders}
        assert len(wrapped) == 1 and original not in wrapped
        fidsus.random_pair(4, 1, 1.0, 1.0, 1.0)
    finally:
        tracer.restore()
    assert all(mod.eig_hermitian is original for mod in holders)
    assert fidsus.random_pair is fidsus.models.random_pair
    layers = tracer.report()["layers"]
    assert layers["linalg.eig_hermitian"]["calls"] == 1
    assert tracer.report()["eig_n3_sum"] == 4**3


def test_corrupted_sweep_row_counts_as_failed(tmp_path, monkeypatch):
    workload = SMALL["beta_sweep"]
    assert _run_cli(workload, 5, tmp_path, monkeypatch) == 0
    assert workload.check(tmp_path, 0, 5) == (3, 0)
    assert workload.check(tmp_path, 1, 5) == (3, 3)
    csv_path = tmp_path / "out.csv"
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join(lines[:-1] + [lines[-1].replace(",true,", ",false,")]) + "\n")
    assert workload.check(tmp_path, 0, 5) == (3, 1)
    csv_path.write_text("\n".join(lines[:-1]) + "\n")
    assert workload.check(tmp_path, 0, 5) == (3, 1)


def test_reference_table_gates_the_default_seed(tmp_path):
    workload = WORKLOADS["field_sweep"]
    reference = (REFERENCE_DIR / "field_sweep.csv").read_text().splitlines()
    (tmp_path / "out.csv").write_text("\n".join(reference) + "\n")
    assert workload.check(tmp_path, 0, DEFAULT_SEED) == (4, 0)
    header = reference[0].split(",")
    row = reference[2].split(",")
    for col in ("chi_f", "ds2"):  # keep ds2 == chi_f so only the reference gate fires
        i = header.index(col)
        row[i] = repr(float(row[i]) * (1 + 1e-6))
    (tmp_path / "out.csv").write_text("\n".join([*reference[:2], ",".join(row), *reference[3:]]) + "\n")
    assert workload.check(tmp_path, 0, DEFAULT_SEED) == (4, 1)
    assert workload.check(tmp_path, 0, DEFAULT_SEED + 1) == (4, 0)


def test_fail_line_counts_as_failed(tmp_path, monkeypatch):
    workload = SMALL["verify"]
    _run_cli(workload, 5, tmp_path, monkeypatch)
    text = (tmp_path / STDOUT).read_text()
    attempted, failed = workload.check(tmp_path, 0, 5)
    assert attempted > 10 and failed == 0
    (tmp_path / STDOUT).write_text(text.replace("PASS ", "FAIL ", 1))
    assert workload.check(tmp_path, 0, 5) == (attempted, 1)
    (tmp_path / STDOUT).write_text("")
    assert workload.check(tmp_path, 1, 5) == (1, 1)


def test_seed_derives_jittered_inputs():
    workload = WORKLOADS["field_sweep"]
    assert workload.argv(7) == workload.argv(7)
    assert workload.argv(7) != workload.argv(8)
    for seed in range(20):
        start, stop = workload.endpoints(seed)
        assert abs(start / workload.start - 1) <= JITTER + 1e-6
        assert abs(stop / workload.stop - 1) <= JITTER + 1e-6
    assert "--seed" in WORKLOADS["verify"].argv(7) and "7" in WORKLOADS["verify"].argv(7)


def test_speed_scale_follows_the_probe_over_the_interval():
    slow, fast = 2e-3, 1e-3
    samples = [(0.1 * i, slow if i < 50 else fast) for i in range(100)]
    samples[60] = (6.0, 50 * fast)  # preempted: one slow sample among 50
    assert speed.mean_probe_s(samples, 0.0, 4.9) == pytest.approx(slow)
    assert speed.mean_probe_s(samples, 5.0, 9.9) == pytest.approx(fast, rel=0.03)
    # half the time at each speed is the mean of the speeds
    assert speed.mean_probe_s(samples, 4.0, 5.9) == pytest.approx(2 / (1 / slow + 1 / fast))
    # too short an interval borrows the samples nearest its middle
    assert speed.mean_probe_s(samples, 2.01, 2.02) == pytest.approx(slow)


def test_probe_runs_on_the_given_cpu_and_stops(tmp_path):
    cpu = max(os.sched_getaffinity(0))
    probe = speed.SpeedProbe(tmp_path / "speed.log", cpu)
    try:
        assert os.sched_getaffinity(probe.proc.pid) == {cpu}
        start = time.monotonic()
        time.sleep(0.5)
        assert probe.scale(1.0, start, time.monotonic()) > 0
    finally:
        probe.stop()
    assert probe.proc.returncode is not None


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
