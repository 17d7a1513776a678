"""fidsus benchmark: one workload of the ``fidsus`` CLI, measured end to end.

    python3 perfbench/run.py --workload field_sweep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each repetition runs the workload in a fresh child process
through ``fidsus.cli.main(argv)``, the same code path as the ``fidsus``
command, with every default check on.  BLAS and OpenMP are pinned to
`THREADS` threads in the child's environment, and every child to one CPU.
Repetitions start while one more fits in ``--seconds``; every output is
checked (see `workloads`).

On a share of a busy machine the CPU's speed can swing by 2x between and
within runs, so every time is scaled to a reference speed by `speed.SpeedProbe`, which samples a fixed loop on the
children's CPU throughout the run: a time ``t`` measured while the probe
loop took ``p`` at the mean speed is reported as ``t * REF_PROBE_S / p``.  The
raw medians, and the probe's, are printed on ``raw`` lines.

``--trace 0`` reports the end-to-end metrics, medians over repetitions:

- ``setup_s``: spawn to ``fidsus.cli`` imported (interpreter, numpy and
  OpenBLAS load, package import), over `SETUP_SPAWNS` import-only children
  before each repetition and the repetitions themselves;
- ``wall_s`` / ``cpu_s``: wall and user+system CPU time of the
  ``main(argv)`` call;
- ``peak_rss_mb``: the child's peak resident set size at exit, in MiB
  (not scaled).

``--trace 1`` alternates untraced and traced children on the same inputs,
requires their outputs to be byte-identical, and reports the per-layer
metrics of `spans.Tracer` plus ``trace.overhead_s``, the traced minus the
untraced wall time; their times are scaled like ``wall_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed_ratio`` is printed on
the line before it.  Set-up errors exit with code 2 and print no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from speed import REF_PROBE_S, SpeedProbe
from workloads import DEFAULT_SEED, STDOUT, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
# BLAS and OpenMP threads per child.  One keeps spinning BLAS threads from
# competing with the interpreter; it must not exceed the machine's cores.
THREADS = 1
# Import-only children before each untraced repetition; spreading them over
# the run keeps one slow stretch of the host from setting the median.
SETUP_SPAWNS = 3
# Children still running this long after the run began are killed, so a
# run ends within 180 s.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics, named ``<layer label>.<statistic>``.  The statistics are
# the wrapped function's calls, busy_s and self_s, plus the eigensolver
# extras of spans.Tracer.
_LAYER_STATS = [
    ("linalg.eig_hermitian", ("calls", "self_s", "n3_sum", "max_dim", "check_share")),
    ("linalg.validate_hermitian", ("self_s",)),
    ("linalg.singular_values_onesided", ("calls", "self_s")),
    ("gibbs.attach_perturbation", ("self_s",)),
    ("gibbs.build_gibbs_from_spectrum", ("calls", "self_s")),
    ("gibbs.correlation_G", ("calls", "self_s")),
    ("fidelity.chi_f_spectral", ("self_s",)),
    ("fidelity.rho_prime", ("self_s",)),
    ("fidelity.ds2_spectral", ("self_s",)),
    ("fidelity.chi_fg_spectral", ("self_s",)),
    ("fidelity.chi_fg_integral", ("self_s",)),
    ("fidelity.chi_f_fd", ("busy_s",)),
    ("bounds.bd_integral_oracle", ("self_s",)),
    ("bounds.bound_report", ("calls", "busy_s", "self_s")),
    ("bounds.bd_inner_product", ("self_s",)),
    ("bounds.double_commutator", ("busy_s",)),
    ("bounds.free_energy_curvature", ("calls", "busy_s")),
    ("kernels.tanh_over_x", ("calls", "self_s")),
    ("models.build_model", ("busy_s", "self_s")),
    ("models.dicke_cutoff_shift", ("busy_s",)),
    ("sweep.compute_rows", ("busy_s",)),
    ("sweep.format_csv", ("self_s",)),
    ("sweep.run_sweep", ("self_s",)),
    ("plotting.emit_plot", ("busy_s",)),
    ("cli.main", ("self_s",)),
    ("verify.run_verify", ("self_s",)),
]
_STAT_UNITS = {
    "calls": "count",
    "busy_s": "s",
    "self_s": "s",
    "n3_sum": "count",
    "max_dim": "count",
    "check_share": "1",
}
PER_LAYER = {
    f"{label}.{stat}": _STAT_UNITS[stat] for label, stats in _LAYER_STATS for stat in stats
}
PER_LAYER["trace.overhead_s"] = "s"


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Spawns the children of one benchmark run inside a working directory."""

    def __init__(self, workdir: Path, probe: SpeedProbe) -> None:
        self.workdir = workdir
        self.probe = probe
        self.started = time.monotonic()
        self.count = 0
        self.env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(THREADS)
        self.env["TMPDIR"] = str(workdir)

    def spawn(self, mode: str, cli_args: Sequence[str] = ()) -> Tuple[Path, Dict]:
        """Run one child; return its directory and its record with ``setup_s``."""
        self.count += 1
        rep_dir = self.workdir / f"{self.count:03d}-{mode}"
        rep_dir.mkdir()
        result = rep_dir / "child.json"
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--src", str(SRC), "--result", str(result), "--mode", mode,
            "--", *cli_args,
        ]
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise BenchError("out of time before the next child")
        with open(rep_dir / STDOUT, "wb") as out, open(rep_dir / "stderr.txt", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=rep_dir, env=self.env, stdout=out, stderr=err,
                preexec_fn=self.probe.preexec,
            )
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                raise BenchError(f"child {mode} exceeded the run deadline") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0 or not result.exists():
            tail = (rep_dir / "stderr.txt").read_text(errors="replace")[-2000:]
            raise BenchError(f"child {mode} exited with {code}:\n{tail}")
        record = json.loads(result.read_text())
        raw = record["imported_at"] - spawned
        record["raw_setup_s"] = raw
        record["setup_s"] = self.probe.scale(raw, spawned, record["imported_at"])
        if "wall_s" in record:
            span = (record["started_at"], record["ended_at"])
            for key in ("wall_s", "cpu_s"):
                record["raw_" + key] = record[key]
                record[key] = self.probe.scale(record[key], *span)
        return rep_dir, record

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def source_identity() -> Dict[str, str]:
    """The commit if the checkout is a git repository, and a digest of ``src/``."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def layer_metrics(trace: Dict) -> Dict[str, float]:
    """Flatten one traced child's record into the per-layer metric names."""
    layers = trace["layers"]
    eig_self = layers.get("linalg.eig_hermitian", {}).get("self_s", 0.0)
    extras = {
        "n3_sum": trace["eig_n3_sum"],
        "max_dim": trace["eig_max_dim"],
        "check_share": trace["eig_check_self_s"] / eig_self if eig_self > 0 else 0.0,
    }
    values = {}
    for label, stats in _LAYER_STATS:
        for stat in stats:
            if stat in extras:
                values[f"{label}.{stat}"] = extras[stat]
            else:
                values[f"{label}.{stat}"] = layers.get(label, {}).get(stat, 0)
    return values


def outputs_identical(workload, a: Path, b: Path) -> bool:
    def read(rep_dir: Path, name: str) -> Optional[bytes]:
        path = rep_dir / name
        return path.read_bytes() if path.exists() else None

    return all(read(a, name) == read(b, name) for name in (*workload.outputs, STDOUT))


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Dict:
    """Run one benchmark run of ``workload``; return the result object."""
    # the probe and the children share the last CPU this process may use
    try:
        probe = SpeedProbe(workdir / "speed.log", max(os.sched_getaffinity(0)))
    except RuntimeError as exc:
        raise BenchError(str(exc)) from None
    try:
        return _measure(workload, seed, seconds, trace, Runner(workdir, probe))
    finally:
        probe.stop()


def _measure(workload, seed: int, seconds: float, trace: bool, runner: Runner) -> Dict:
    cli_args = workload.argv(seed)
    _, env_record = runner.spawn("env")  # also fills the import caches
    env = {
        **env_record["env"],
        "threads": THREADS,
        "nproc": os.cpu_count(),
        **source_identity(),
    }
    print(f"workload {workload.name} seed {seed} seconds {seconds} trace {int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    print("argv fidsus " + " ".join(cli_args))

    attempted = failed = 0
    identical = True
    setups: List[float] = []
    runs: List[Dict] = []
    layers: List[Dict[str, float]] = []

    def rep(mode: str) -> Tuple[Path, Dict]:
        nonlocal attempted, failed
        rep_dir, record = runner.spawn(mode, cli_args)
        ops, bad = workload.check(rep_dir, record["exit_code"], seed)
        attempted += ops
        failed += bad
        print(
            f"rep {mode} wall_s {record['wall_s']:.4f} cpu_s {record['cpu_s']:.4f} "
            f"setup_s {record['setup_s']:.4f} raw_wall_s {record['raw_wall_s']:.4f} "
            f"exit {record['exit_code']} ops {ops} failed {bad}"
        )
        return rep_dir, record

    while True:
        cycle_start = runner.elapsed()
        if not trace:
            for _ in range(SETUP_SPAWNS):
                setups.append(runner.spawn("setup")[1])
        plain_dir, plain = rep("run")
        runs.append(plain)
        setups.append(plain)
        if trace:
            traced_dir, traced = rep("trace")
            if not outputs_identical(workload, plain_dir, traced_dir):
                identical = False
                print("traced outputs differ from the untraced run")
            values = layer_metrics(traced["trace"])
            # layer times are scaled by the traced child's speed factor
            factor = traced["wall_s"] / traced["raw_wall_s"]
            for name in values:
                if PER_LAYER[name] == "s":
                    values[name] *= factor
            values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            layers.append(values)
        # start another repetition only if it should end within ``seconds``
        if 2 * runner.elapsed() - cycle_start > seconds:
            break

    if trace:
        metrics = {
            name: {"value": statistics.median(v[name] for v in layers), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        for key in ("setup_s", "wall_s", "cpu_s"):
            records = setups if key == "setup_s" else runs
            print(f"raw {key} {statistics.median(r['raw_' + key] for r in records):.6g} s")
        probe_s = statistics.median(d for _, d in runner.probe.samples())
        print(f"raw probe_s {probe_s:.6g} s (reference {REF_PROBE_S:g} s)")
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "peak_rss_mb": statistics.median(r["peak_rss_kib"] / 1024.0 for r in runs),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    print(f"metric failed_ratio {failed / attempted:.6g} 1 ({failed}/{attempted})")
    return {
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "fidsus" / "cli.py").is_file():
        print(f"error: no fidsus sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        result = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
