"""One benchmark repetition in a fresh interpreter.

    python3 child.py --src DIR --result FILE --mode MODE -- CLI_ARGS...

Imports ``fidsus.cli`` from DIR, then by MODE:

- ``setup``: stops after the import;
- ``env``: also records the interpreter, numpy and BLAS versions;
- ``run``: calls ``fidsus.cli.main(CLI_ARGS)`` in the current directory;
- ``trace``: the same call with every public ``fidsus`` function wrapped
  by `spans.Tracer`.

The timings go to FILE as JSON.  ``imported_at``, ``started_at`` and
``ended_at`` are read on CLOCK_MONOTONIC, which the parent shares, so the
parent measures set-up from the moment it spawned this process and matches
each interval with the speed probe's samples.
"""

import argparse
import json
import os
import resource
import sys
import time


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    argv = sys.argv[1:]
    split = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--mode", choices=("setup", "env", "run", "trace"), required=True)
    opts = parser.parse_args(argv[:split])
    cli_args = argv[split + 1 :]

    src = os.path.abspath(opts.src)
    sys.path.insert(0, src)
    import fidsus.cli

    imported_at = time.monotonic()
    if not os.path.abspath(fidsus.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"fidsus was imported from {fidsus.cli.__file__}, not {src}")
    out = {"imported_at": imported_at}

    if opts.mode == "env":
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["env"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        }

    if opts.mode in ("run", "trace"):
        tracer = None
        if opts.mode == "trace":
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        cli_main = sys.modules["fidsus.cli"].main
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.monotonic()
        code = cli_main(cli_args)
        end = time.monotonic()
        after = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.restore()
        out.update(
            exit_code=code,
            started_at=start,
            ended_at=end,
            wall_s=end - start,
            cpu_s=_cpu_s(after) - _cpu_s(before),
            peak_rss_kib=after.ru_maxrss,
        )
        if tracer is not None:
            out["trace"] = tracer.report()

    tmp = opts.result + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    os.replace(tmp, opts.result)


if __name__ == "__main__":
    main()
