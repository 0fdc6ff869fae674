"""ssesim benchmark: one closed-loop client driving `ssesim.cli.main` in-process.

Usage, from the root of a checkout:

    python3 ssebench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

The program is imported from `src/` of the checkout.  A run repeats passes
over the workload's ops (see workloads.py) for `--seconds`, checks every
op's output, and prints machine facts, one line per op and one per metric,
then as its last line a JSON object with `correct`, `attempted`, `failed`
and `metrics`.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json: median pass
wall and CPU time, interpreter set-up time, and peak RSS.  `--trace 1`
alternates untraced passes with passes traced by tracing.py and reports the
per-layer metrics.  Both modes also run the five subcommands once at their
literal defaults, untimed, and report how many exit non-zero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"

# Interpreter start-ups timed per run for setup_s; one more runs first,
# untimed, so the checkout's bytecode cache is written before timing.
SETUP_SAMPLES = 5
# A run keeps starting passes until `--seconds` have passed, and makes at
# least this many so that the median has a middle.
MIN_PASSES = 3

_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import ssesim.cli
print(repr(time.perf_counter() - t0))
"""

# Figures printed by name besides the declared metrics.
_EXTRA_UNITS = {
    "failed_ops": "share",
    "default_config_failures": "count",
    "cli.default_config_failures": "count",
    "cli.fail_verdicts": "count",
}


def steal_ticks() -> int | None:
    """Cumulative hypervisor steal ticks of all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _delta(start, end):
    return None if start is None or end is None else end - start


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure_setup() -> list[float]:
    """Seconds from a fresh interpreter to `import ssesim.cli` returning."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        if i:
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def import_program():
    sys.path.insert(0, str(SRC))
    import ssesim
    import ssesim.cli

    where = Path(ssesim.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"ssesim was imported from {where}, not from {SRC}")
    return ssesim.cli


def run_pass(cli, ops, tracer=None) -> dict:
    steal0 = steal_ticks()
    if tracer is not None:
        tracer.install()
    try:
        results = [op.run(cli) for op in ops]
    finally:
        if tracer is not None:
            tracer.remove()
    return {
        "traced": tracer is not None,
        "results": results,
        "wall_s": sum(r.wall_s for r in results),
        "cpu_s": sum(r.cpu_s for r in results),
        "steal": _delta(steal0, steal_ticks()),
    }


def run_passes(cli, ops, seconds: float, tracer) -> tuple[list[dict], float]:
    """Passes until `seconds` have passed; with a tracer, every second pass
    is traced.  Also returns the peak RSS in MB after the first pass."""
    passes = []
    peak_rss_mb = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(cli, ops, tracer if traced else None))
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        enough = len(passes) >= MIN_PASSES and (tracer is None or any(p["traced"] for p in passes))
        if enough and time.perf_counter() >= deadline:
            return passes, peak_rss_mb


def check_thread_invariance(cli, seed: int, passes: list[dict], tracer) -> None:
    """`convergence --threads 2` payloads must equal, byte for byte, the
    payload of the same config at `--threads 1`, run once here untimed."""
    payload = WORK / "convergence-threads1.csv"
    argv = workloads.convergence_argv(seed, 1, payload)
    if tracer is not None:
        tracer.install()
    try:
        code, _, _, _, _, tb = workloads.call_cli(cli, argv)
    finally:
        if tracer is not None:
            tracer.remove()
    sha = hashlib.sha256(payload.read_bytes()).hexdigest() if code in (0, 1) and tb is None else None
    print(f"# reference {' '.join(argv)}: exit={code} sha256={sha}")
    for p in passes:
        for r in p["results"]:
            if r.payload_sha is not None and r.payload_sha != sha:
                r.problems.append("payload differs from the --threads 1 payload")


def print_ops(ops, passes) -> None:
    for op in ops:
        mine = [r for p in passes for r in p["results"] if r.op == op.name]
        walls = [r.wall_s for p in passes if not p["traced"] for r in p["results"] if r.op == op.name]
        verdicts = {}
        for r in mine:
            verdicts[r.verdict] = verdicts.get(r.verdict, 0) + 1
        problems = sorted({p for r in mine for p in r.problems})
        print(
            f"# op {op.name}: runs={len(mine)} exit={sorted({r.code for r in mine}, key=str)} "
            f"verdicts={verdicts} check={'ok' if not problems else problems} "
            f"untraced wall_s median={statistics.median(walls):.4f} min={min(walls):.4f} "
            f"max={max(walls):.4f} argv={' '.join(op.argv)}"
        )


def traced_values(workload, seed, passes, tracer, reference_tracer) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    values = tracing.layer_metrics(tracer.spans, len(traced), sum(p["wall_s"] for p in traced))
    if reference_tracer is not None:
        values.update(tracing.pool_metrics(tracer.spans, len(traced), reference_tracer.spans))
    else:
        values.update({"sse.pool_speedup": 0.0, "sse.pool_cpu_ratio": 0.0})
    values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in untraced
    )
    values["cli.report_bytes"] = statistics.median(
        sum(len(r.stdout) for r in p["results"]) for p in traced
    )
    out = WORK / f"spans-{workload}-seed{seed}.json"
    dump = {
        "workload": workload,
        "seed": seed,
        "traced_passes": len(traced),
        "spans": [s.as_dict(i) for i, s in enumerate(tracer.spans)],
        "reference_spans": [
            s.as_dict(i) for i, s in enumerate(reference_tracer.spans if reference_tracer else [])
        ],
    }
    out.write_text(json.dumps(dump) + "\n", encoding="utf-8")
    print(f"# spans written to {out.relative_to(ROOT)}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ssesim" / "__init__.py").is_file():
        print(f"error: no ssesim package under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if trace else "end_to_end"]
    WORK.mkdir(exist_ok=True)
    steal_start = steal_ticks()

    setup = [] if trace else measure_setup()
    cli = import_program()
    import numpy
    import scipy

    print(
        f"# machine: nproc={os.cpu_count()} cpu={cpu_model()!r} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__}"
    )
    print(f"# run: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")

    ops = workloads.build(args.workload, args.seed, WORK)
    tracer = tracing.Tracer() if trace else None
    passes, peak_rss_mb = run_passes(cli, ops, args.seconds, tracer)

    defaults = workloads.default_config_smoke(cli)
    reference_tracer = None
    if args.workload == "ensemble":
        reference_tracer = tracing.Tracer() if trace else None
        check_thread_invariance(cli, args.seed, passes, reference_tracer)

    results = [r for p in passes for r in p["results"]]
    failed = sum(1 for r in results if r.problems)
    print_ops(ops, passes)
    for name, (code, note) in defaults.items():
        print(f"# default {name}: exit={code}" + (f" ({note})" if code != 0 else ""))

    default_failures = sum(1 for code, _ in defaults.values() if code != 0)
    values = {
        "failed_ops": failed / len(results),
        "default_config_failures": default_failures,
        "cli.default_config_failures": default_failures,
        # Ops per pass whose statistical verdict read FAIL; a property of the seed.
        "cli.fail_verdicts": statistics.median(
            sum(1 for r in p["results"] if r.verdict == "FAIL") for p in passes
        ),
    }
    if trace:
        values.update(traced_values(args.workload, args.seed, passes, tracer, reference_tracer))
    else:
        values.update(
            {
                "wall_s": statistics.median(p["wall_s"] for p in passes),
                "cpu_s": statistics.median(p["cpu_s"] for p in passes),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_rss_mb,
            }
        )

    print(
        "# passes: "
        + " ".join(
            f"{'T' if p['traced'] else 'U'}:{p['wall_s']:.4f}s/{p['cpu_s']:.4f}cpu/steal={p['steal']}"
            for p in passes
        )
    )
    if setup:
        print("# setup_s samples: " + " ".join(f"{s:.4f}" for s in setup))
    print(f"# steal ticks over the run: {_delta(steal_start, steal_ticks())}")

    units = dict(_EXTRA_UNITS)
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 3
        units[m["name"]] = m["unit"]
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for name, value in values.items():
        print(f"metric {name} = {value:.6g} {units.get(name, '')}".rstrip())

    result = {"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
