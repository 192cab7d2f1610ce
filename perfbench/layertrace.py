"""Outside-in layer trace: wrap fraylab's public functions from outside.

Each target is a function or method of one layer.  ``Tracer.install``
replaces every binding of it (the class attribute and its aliases, such as
``Poly.__rmul__ = __mul__``, or the module function and every fraylab
module that imported it by name) with a wrapper that counts calls, sizes
and seconds.  A target that no longer exists is listed in ``missing``
instead of failing the run.

Self time is a call's inclusive time minus the inclusive time of the
wrapped calls nested in it, so self times of disjoint calls never overlap
and sum to at most the wall time around them.  Inclusive time counts only
the outermost call of a recursive target.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    active: int = 0
    sizes: dict = field(default_factory=dict)

    def add(self, key: str, value: int) -> None:
        self.sizes[key] = self.sizes.get(key, 0) + value


# size hooks: ``before(stat, args) -> args`` sees the arguments and may
# replace them (an iterable is materialised so it can be counted);
# ``after(stat, result)`` sees the return value.


def _rows_and_nnz(stat: Stat, args: tuple) -> tuple:
    rows = list(args[0])
    stat.add("rows", len(rows))
    stat.add("nnz", sum(len(r) for r in rows))
    return (rows,) + args[1:]


def _independent(stat: Stat, result) -> None:
    stat.add("independent", 1 if result else 0)


def _new_class(stat: Stat, result) -> None:
    stat.add("new_class", 0 if result is None else 1)


def _max_len(stat: Stat, result) -> None:
    stat.sizes["max_len"] = max(stat.sizes.get("max_len", 0), len(result))


def _nnz(stat: Stat, result) -> None:
    stat.add("nnz", len(result))


@dataclass(frozen=True)
class Target:
    layer: str
    module: str  # fraylab submodule that defines it
    path: str  # attribute path in that module: "rank_of" or "RowBasis.add"
    before: Optional[Callable] = None
    after: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.path.replace('__mul__', 'mul')}"


TARGETS = (
    Target("linalg", "linalg", "RowBasis.add", after=_independent),
    Target("linalg", "linalg", "rank_of", before=_rows_and_nnz),
    Target("linalg", "linalg", "kernel_basis"),
    Target("linalg", "linalg", "ClassTracker.add_image"),
    Target("linalg", "linalg", "ClassTracker.add_rep", after=_new_class),
    Target("linalg", "linalg", "ClassTracker.express"),
    Target("homalg.ring", "homalg", "GradedRing.dim"),
    Target("homalg.ring", "homalg", "GradedRing.basis", after=_max_len),
    Target("homalg.ring", "homalg", "GradedRing.normal_form"),
    Target("homalg.ring", "homalg", "GradedRing.mult_matrix", after=_nnz),
    Target("homalg.ring", "homalg", "GradedRing.sampled_zero"),
    Target("homalg.complex", "homalg", "CurvedComplex.compose_terms"),
    Target("homalg.complex", "homalg", "CurvedComplex.mc_check"),
    Target("homalg.complex", "homalg", "pm_mul"),
    Target("homalg.complex", "homalg", "gaussian_eliminate"),
    Target("homalg.complex", "homalg", "SdrData.verify"),
    Target("homalg.complex", "homalg", "homology_truncated"),
    Target("symfun", "symfun", "Poly.__mul__"),
    Target("symfun", "symfun", "Poly.substitute"),
    Target("symfun", "symfun", "Poly.evaluate"),
    Target("hochschild", "hochschild", "HochschildData.boundary"),
    Target("hochschild", "hochschild", "HochschildData.dims"),
    Target("hochschild", "hochschild", "HochschildData.tracker"),
    Target("hochschild", "hochschild", "HochschildData.induced"),
    Target("hochschild", "hochschild", "hh_complex"),
    Target("hochschild", "hochschild", "hh_bimodule"),
    Target("hochschild", "hochschild", "compose_bimodules"),
    Target("ssbim", "ssbim", "build_W"),
    Target("ssbim", "ssbim", "build_identity"),
    Target("ssbim", "ssbim", "projector"),
    Target("ssbim", "ssbim", "graded_rank_check"),
    Target("qseries", "qseries", "RationalSeriesExpr.expand"),
)

LAYERS = tuple(dict.fromkeys(t.layer for t in TARGETS))

# derived size metrics: name suffix -> (unit, better, function of the Stat)
SIZE_METRICS = {
    "linalg.RowBasis.add": {
        "independent_ratio": ("1", "higher", lambda s: s.sizes.get("independent", 0) / s.calls if s.calls else 0.0),
    },
    "linalg.rank_of": {
        "rows": ("count", "lower", lambda s: s.sizes.get("rows", 0)),
        "nnz": ("count", "lower", lambda s: s.sizes.get("nnz", 0)),
    },
    "linalg.ClassTracker.add_rep": {
        "new_class_ratio": ("1", "higher", lambda s: s.sizes.get("new_class", 0) / s.calls if s.calls else 0.0),
    },
    "homalg.ring.GradedRing.basis": {
        "max_len": ("count", "lower", lambda s: s.sizes.get("max_len", 0)),
    },
    "homalg.ring.GradedRing.mult_matrix": {
        "nnz": ("count", "lower", lambda s: s.sizes.get("nnz", 0)),
    },
}


def _fraylab_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "fraylab" or name.startswith("fraylab.")]


class Tracer:
    """Wraps every target on ``install`` and restores the originals on
    ``uninstall``.  Not thread-safe: the workloads run on one thread."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []
        self._stack: list[float] = []  # child seconds of each open call
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for target in self.targets:
            original, bindings = self._bindings(target)
            if not bindings:
                self.missing.append(target.name)
                continue
            wrapper = self._wrap(original, self.stats.setdefault(target.name, Stat()), target)
            for owner, attr in bindings:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def _bindings(target: Target):
        """The target's function and every (owner, attribute) that binds it."""
        module = sys.modules.get(f"fraylab.{target.module}")
        head, _, attr = target.path.rpartition(".")
        owner = getattr(module, head, None) if head else module
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            return None, []
        owners = [owner] if head else _fraylab_modules()
        return original, [(o, name) for o in owners for name, value in vars(o).items() if value is original]

    def _wrap(self, fn, stat: Stat, target: Target):
        stack = self._stack
        before, after = target.before, target.after
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(stat, args)
            stat.calls += 1
            stat.active += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = stack.pop()
                stat.active -= 1
                stat.self_s += dt - nested
                if not stat.active:
                    stat.total_s += dt
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(stat, result)
            return result

        return wrapper

    def total_self_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    def report(self) -> dict:
        """Per-target figures as plain data, plus the missing targets."""
        out = {}
        for name, s in self.stats.items():
            row = {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
            for key, (_, _, fn) in SIZE_METRICS.get(name, {}).items():
                row[key] = fn(s)
            out[name] = row
        return {"targets": out, "missing": list(self.missing)}


def per_layer_names(groups) -> list[tuple[str, str, str]]:
    """(metric name, unit, better) of every per-layer metric, in report
    order; ``groups`` are the case groups of all workloads."""
    out = []
    for t in TARGETS:
        out += [(f"{t.name}.calls", "count", "lower"), (f"{t.name}.total_s", "s", "lower"),
                (f"{t.name}.self_s", "s", "lower")]
        out += [(f"{t.name}.{k}", unit, better) for k, (unit, better, _) in SIZE_METRICS.get(t.name, {}).items()]
    out += [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [(f"case.{g}.s", "s", "lower") for g in groups]
    out.append(("trace.overhead_s", "s", "lower"))
    return out
