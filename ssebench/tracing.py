"""Span tracing around the calls into each ssesim module.

A traced pass rebinds the public functions listed in `TRACED` to wrappers
that record one span per call: name, start, end and the enclosing span.
Spans stay in memory and are written out when the benchmark ends.  The
wrappers live here, in the benchmark; nothing inside `src/` is changed.

Calls made inside pool worker processes are not seen: their time shows as
self time of the `sse.ensemble_density` span that waits on the pool.
"""

from __future__ import annotations

import importlib
import inspect
import math
import resource
import time

LAYERS = ("rng", "algebra", "sse", "master", "param", "cli")

# Public functions wrapped per layer: what `cli` calls into each module, and
# the cross-module calls the workloads block on (rng draws, eigensolves,
# single-trajectory stepping, the pairwise reduction).
TRACED = {
    "rng": ("normals",),
    "algebra": ("hermitian_eigen", "random_state"),
    "sse": ("ensemble_density", "pairwise_sum", "simulate_with_noise", "identity_residual"),
    "master": (
        "integrate_master",
        "map_grid",
        "choi_matrix",
        "cp_verdict",
        "analytic_pauli_solution",
    ),
    "param": (
        "noise_from_correlation",
        "correlation_from_noise",
        "redundancy_witness",
        "random_correlation",
        "random_isometry",
        "random_orthogonal",
    ),
    "cli": ("main",),
}


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _rk4_steps(t: float, dt: float) -> int:
    # Mirrors the step count of master._num_steps for one integration.
    return max(1, int(math.ceil(t / dt - 1e-9))) if t > 0 else 0


def _work_ensemble(bound, result):
    a = bound.arguments
    steps = int(round(a["t_final"] / a["dt"]))
    kind = type(a["model"]).__name__
    return a["n_traj"] * steps, f"{kind}/threads={a.get('threads', 1)}"


def _work_single(bound, result):
    return len(bound.arguments["increments"]), None


def _work_integrate(bound, result):
    a = bound.arguments
    return _rk4_steps(a["t"], a["dt"]), None


def _work_map_grid(bound, result):
    a = bound.arguments
    steps, prev = 0, 0.0
    for t in a["times"]:
        t = float(t)
        if t > prev:
            steps += int(round((t - prev) / a["dt"]))
        prev = t
    return steps, None


# Work counted per call, from the bound arguments and the result: trajectory
# steps, RK4 steps.  `rng.normals` counts the draws it returned.
_WORK = {
    "sse.ensemble_density": _work_ensemble,
    "sse.simulate_with_noise": _work_single,
    "master.integrate_master": _work_integrate,
    "master.map_grid": _work_map_grid,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "work", "tag", "cpu")

    def __init__(self, name, start, parent, root):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.root = root  # the outermost span of the same CLI call
        self.work = 0
        self.tag = None
        self.cpu = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "root": self.root,
            "work": self.work,
            "tag": self.tag,
            "cpu_s": self.cpu,
        }


class Tracer:
    """Records spans while installed; `install`/`remove` bracket a traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        import ssesim

        modules = [ssesim] + [importlib.import_module(f"ssesim.{m}") for m in LAYERS]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"ssesim.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                # Rebind every module-level reference, so calls through
                # `from .x import f` names are traced as well.
                for mod in modules:
                    for attr in [k for k, v in vars(mod).items() if v is original]:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def remove(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._open
        work = _WORK.get(name)
        signature = inspect.signature(fn) if work else None
        with_cpu = name == "sse.ensemble_density"
        draws = name == "rng.normals"

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, stack[-1] if stack else None, stack[0] if stack else index)
            spans.append(span)
            stack.append(index)
            cpu0 = cpu_seconds() if with_cpu else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if with_cpu:
                    span.cpu = cpu_seconds() - cpu0
                stack.pop()
            if draws:
                span.work = int(getattr(result, "size", 1))
            elif work:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.work, span.tag = work(bound, result)
                except (TypeError, KeyError, ValueError):
                    span.tag = "unknown"  # signature changed; the span still times the call
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def _sum(spans, name, attr="duration"):
    return sum(getattr(s, attr) for s in spans if s.name == name)


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span], passes: int, traced_wall_s: float) -> dict:
    """Per-layer figures of the traced passes, per pass where they are sums.

    `traced_wall_s` is the summed wall time of the traced passes; each
    layer's share is its summed self time over it.
    """
    own = self_times(spans)
    n = max(1, passes)

    def self_s(name):
        return sum(own[i] for i, s in enumerate(spans) if s.name == name)

    out = {}
    normals_s = _sum(spans, "rng.normals")
    drawn = _sum(spans, "rng.normals", "work")
    out["rng.normals_s"] = normals_s / n
    out["rng.normals_drawn"] = drawn / n
    out["rng.normals_per_s"] = _rate(drawn, normals_s)

    ens = [s for s in spans if s.name == "sse.ensemble_density"]
    out["sse.traj_steps"] = sum(s.work for s in ens) / n
    for kind, label in (("NonCpQubitModel", "noncp"), ("GeneralDiffusiveModel", "general")):
        serial = [s for s in ens if s.tag == f"{kind}/threads=1"]
        out[f"sse.traj_steps_per_s.{label}"] = _rate(
            sum(s.work for s in serial), sum(s.duration for s in serial)
        )
    out["sse.ensemble_density.self_s"] = self_s("sse.ensemble_density") / n
    out["sse.pairwise_sum_s"] = _sum(spans, "sse.pairwise_sum") / n
    out["sse.single_steps_per_s"] = _rate(
        _sum(spans, "sse.simulate_with_noise", "work"), _sum(spans, "sse.simulate_with_noise")
    )
    out["sse.identity_residual_s"] = _sum(spans, "sse.identity_residual") / n

    rk4 = _sum(spans, "master.integrate_master", "work") + _sum(spans, "master.map_grid", "work")
    rk4_s = _sum(spans, "master.integrate_master") + _sum(spans, "master.map_grid")
    out["master.rk4_steps"] = rk4 / n
    out["master.rk4_steps_per_s"] = _rate(rk4, rk4_s)
    out["master.integrate_master_s"] = _sum(spans, "master.integrate_master") / n
    out["master.map_grid_s"] = _sum(spans, "master.map_grid") / n
    out["master.choi_matrix_s"] = _sum(spans, "master.choi_matrix") / n

    out["algebra.hermitian_eigen_s"] = _sum(spans, "algebra.hermitian_eigen") / n
    out["algebra.eigen_calls"] = sum(1 for s in spans if s.name == "algebra.hermitian_eigen") / n
    out["algebra.random_state_s"] = _sum(spans, "algebra.random_state") / n

    out["param.noise_from_correlation_s"] = _sum(spans, "param.noise_from_correlation") / n
    out["param.redundancy_witness.self_s"] = self_s("param.redundancy_witness") / n

    for layer in LAYERS:
        layer_self = sum(own[i] for i, s in enumerate(spans) if s.name.split(".")[0] == layer)
        out[f"{layer}.self_s"] = layer_self / n
        out[f"{layer}.share"] = layer_self / traced_wall_s if traced_wall_s > 0 else 0.0
    return out


def pool_metrics(pool_spans: list[Span], pool_passes: int, serial_spans: list[Span]) -> dict:
    """Serial over pooled wall and CPU time of the same ensemble_density calls."""
    pooled = [
        s
        for s in pool_spans
        if s.name == "sse.ensemble_density" and s.tag and not s.tag.endswith("threads=1")
    ]
    serial = [s for s in serial_spans if s.name == "sse.ensemble_density"]
    n = max(1, pool_passes)
    pool_wall = sum(s.duration for s in pooled) / n
    pool_cpu = sum(s.cpu for s in pooled) / n
    return {
        "sse.pool_speedup": sum(s.duration for s in serial) / pool_wall if pool_wall > 0 else 0.0,
        "sse.pool_cpu_ratio": sum(s.cpu for s in serial) / pool_cpu if pool_cpu > 0 else 0.0,
    }
