"""Per-layer spans for the traced benchmark run, kept in memory.

`Tracer.install` wraps every public function defined in a ``fidsus.*``
module.  The package imports names such as ``eig_hermitian`` or
``correlation_G`` into its consumer modules, so each wrapper replaces the
binding in every ``fidsus.*`` module that holds the same function object;
rebinding only the defining module would leave most calls unseen.
`Tracer.restore` puts the original objects back.

A span's self time is its duration minus the part covered by the spans of
wrapped functions it called.  Busy time counts only the outermost active
call of a function, so recursion is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Dict, List, Tuple

EIGENSOLVER = "linalg.eig_hermitian"

# Eigensolves made under these callers exist only to cross-check a result
# (the chi_N oracle, the Dicke cutoff probe, the fidelity finite difference).
CHECK_CALLERS = frozenset(
    {
        "bounds.free_energy_curvature",
        "models.dicke_cutoff_shift",
        "fidelity.chi_f_fd",
        "fidelity.perturbed_density",
    }
)


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "fidsus" or name.startswith("fidsus."))
    ]


def label_of(fn) -> str:
    """``module.function`` with the ``fidsus.`` prefix dropped."""
    return f"{fn.__module__.removeprefix('fidsus.')}.{fn.__qualname__}"


class _Stat:
    __slots__ = ("calls", "busy_s", "self_s", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    """Collects calls, busy and self time per wrapped function."""

    def __init__(self) -> None:
        self.stats: Dict[str, _Stat] = {}
        self.eig_n3_sum = 0
        self.eig_max_dim = 0
        self.eig_check_self_s = 0.0
        self._stack: List[List[float]] = []
        self._check_depth = 0
        self._bound: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        modules = _package_modules()
        wrappers = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._bound.append((mod, attr, obj))

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._bound):
            setattr(mod, attr, obj)
        self._bound.clear()

    def report(self) -> Dict[str, object]:
        layers = {
            label: {"calls": s.calls, "busy_s": s.busy_s, "self_s": s.self_s}
            for label, s in self.stats.items()
        }
        return {
            "layers": layers,
            "eig_n3_sum": self.eig_n3_sum,
            "eig_max_dim": self.eig_max_dim,
            "eig_check_self_s": self.eig_check_self_s,
        }

    def _wrap(self, fn):
        label = label_of(fn)
        stat = self.stats.setdefault(label, _Stat())
        is_check = label in CHECK_CALLERS
        is_eig = label == EIGENSOLVER
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_eig:
                op = args[0] if args else kwargs["op"]
                self.eig_n3_sum += op.dim**3
                self.eig_max_dim = max(self.eig_max_dim, op.dim)
            if is_check:
                self._check_depth += 1
            frame = [0.0]
            stack.append(frame)
            stat.active += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                own = duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                stat.active -= 1
                stat.calls += 1
                stat.self_s += own
                if stat.active == 0:
                    stat.busy_s += duration
                if is_check:
                    self._check_depth -= 1
                if is_eig and self._check_depth > 0:
                    self.eig_check_self_s += own

        return wrapper
