"""Benchmark of the seaweeds package, run from the root of a source checkout.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25 --trace 1

One client, one single-threaded process, closed loop: the workload repeats
its pass until ``--seconds`` have gone by, and checks every pass's
outputs.  Each call of a pass is timed on its own and scaled by the host's speed
at the time, as ``clock.py`` describes.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  A readable summary goes to stderr.  ``--workload all``
runs each workload in a fresh process and prints a table.

The package is imported from ``src/`` of the checkout and nowhere else;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The interpreter puts this script's directory first on sys.path; the
# benchmark is imported as a package from the root instead.
sys.path[0:1] = [str(SRC), str(ROOT)]

from perfbench.clock import NOMINAL_S, Clock, calibrate  # noqa: E402

SETUP_REPEATS = 11
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import seaweeds, seaweeds.cli\n"
    "print(time.perf_counter() - start)\n"
)

# (name, unit, better): what a user of the package sees.
END_TO_END = (
    ("items_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)

# (name, unit, better); README.md maps each to the end-to-end metric it should move.
PER_LAYER = (
    ("compositions.iter_compositions.items", "count", "lower"),
    ("compositions.iter_compositions.busy_s", "s", "lower"),
    ("compositions.parse.calls", "count", "lower"),
    ("compositions.parse.busy_s", "s", "lower"),
    ("meander.partner_array.calls", "count", "lower"),
    ("meander.partner_array.busy_s", "s", "lower"),
    ("meander.component_counts.calls", "count", "lower"),
    ("meander.component_counts.busy_s", "s", "lower"),
    ("meander.component_counts.hit_ratio", "ratio", "higher"),
    ("meander.index.calls", "count", "lower"),
    ("meander.index.busy_s", "s", "lower"),
    ("meander.index.vertices", "count", "lower"),
    ("seaweed_words.generate_frobenius.items", "count", "lower"),
    ("seaweed_words.generate_frobenius.busy_s", "s", "lower"),
    ("seaweed_words.generate_frobenius.max_word_len", "count", "lower"),
    ("parabolic_words.generate_frobenius_p.items", "count", "lower"),
    ("parabolic_words.generate_frobenius_p.busy_s", "s", "lower"),
    ("parabolic_words.generate_frobenius_p.max_word_len", "count", "lower"),
    ("seaweed_words.generate_deficiency.items", "count", "lower"),
    ("seaweed_words.generate_deficiency.busy_s", "s", "lower"),
    ("parabolic_words.generate_deficiency_p.items", "count", "lower"),
    ("parabolic_words.generate_deficiency_p.busy_s", "s", "lower"),
    ("seaweed_words.factorize.calls", "count", "lower"),
    ("seaweed_words.factorize.busy_s", "s", "lower"),
    ("seaweed_words.factorize.letters", "count", "lower"),
    ("parabolic_words.factorize_p.calls", "count", "lower"),
    ("parabolic_words.factorize_p.busy_s", "s", "lower"),
    ("parabolic_words.factorize_p.letters", "count", "lower"),
    ("counting.brute_table.self_s", "s", "lower"),
    ("counting.generated_table.self_s", "s", "lower"),
    ("counting.deficiency_table.self_s", "s", "lower"),
    ("counting.fit_polynomial.calls", "count", "lower"),
    ("counting.fit_polynomial.busy_s", "s", "lower"),
    ("counting.verify_published_polynomials.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace.items_per_s_untraced", "1/s", "higher"),
    ("trace.items_per_s_ratio", "ratio", "higher"),
)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup() -> float:
    """Median time for a fresh interpreter to import seaweeds and seaweeds.cli,
    each scaled by the calibrations just before and after its interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout) * NOMINAL_S / ((before + calibrate()) / 2))
    return statistics.median(times)


class Run:
    """Repeats a workload's pass, checks each one and keeps what it measured."""

    def __init__(self, workload):
        self.workload = workload
        self.clock = Clock()
        self.attempted = 0
        self.failures: list[str] = []

    def passes(self, seconds: float, tracer=None) -> list[dict]:
        """Run passes, each followed by its check, within ``seconds``.

        Stops before a pass that would overrun, judged by the last one;
        the first pass always runs.
        """
        results = []
        deadline = perf_counter() + seconds
        last = 0.0
        while not results or perf_counter() + last < deadline:
            start = perf_counter()
            ops = self.workload.run_pass(self.clock)
            self.clock.end_pass()
            layers = tracer.take() if tracer is not None else {}
            verdicts = self.workload.check(ops)
            self.attempted += len(ops)
            self.failures += [v for v in verdicts if v is not None]
            results.append({
                "wall_s": sum(op.latency_s for op in ops),
                "scaled": [op.scaled_s for op in ops],
                "out_bytes": sum(op.out_bytes for op in ops),
                "layers": layers,
            })
            last = perf_counter() - start
        return results

    def items_per_s(self, passes: list[dict]) -> float:
        """Items of a pass over the median of the passes' scaled times."""
        return self.workload.items / statistics.median(sum(p["scaled"]) for p in passes)


def call_latencies(passes: list[dict]) -> list[float]:
    """Each call's median scaled latency over the run's passes."""
    return [statistics.median(times) for times in zip(*(p["scaled"] for p in passes))]


def end_to_end_metrics(run: Run, seconds: float) -> dict[str, float]:
    passes = run.passes(seconds)
    latencies = call_latencies(passes)
    print(f"{len(passes)} passes of {len(latencies)} calls; median pass "
          f"{statistics.median(p['wall_s'] for p in passes):.4f} s wall, "
          f"{statistics.median(sum(p['scaled']) for p in passes):.4f} s scaled; calibration "
          f"loop median {1000 * statistics.median(run.clock.calibrations):.3f} ms "
          f"(nominal {1000 * NOMINAL_S:g})", file=sys.stderr)
    return {
        "items_per_s": run.items_per_s(passes),
        "latency_p50_ms": 1000 * percentile(latencies, 0.50),
        "latency_p99_ms": 1000 * percentile(latencies, 0.99),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(run: Run, seconds: float) -> dict[str, float]:
    """Untraced passes for half the time, then traced passes for the rest."""
    from perfbench.tracing import Tracer

    untraced = run.passes(seconds / 2)
    tracer = Tracer()
    tracer.install()
    traced = run.passes(seconds / 2, tracer)
    print(f"{len(untraced)} untraced and {len(traced)} traced passes", file=sys.stderr)

    def median_of(key):
        return statistics.median(p["layers"].get(key, 0.0) for p in traced)

    base = run.items_per_s(untraced)
    derived = {
        "meander.component_counts.hit_ratio": statistics.median(
            p["layers"].get("meander.component_counts.hits", 0) /
            p["layers"].get("meander.component_counts.calls", 1) for p in traced),
        "cli.output_bytes": statistics.median(p["out_bytes"] for p in traced),
        "trace.items_per_s_untraced": base,
        "trace.items_per_s_ratio": run.items_per_s(traced) / base,
    }
    return {name: derived[name] if name in derived else median_of(name)
            for name, *_ in PER_LAYER}


def run_one(args, workload_class) -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as workdir:
        run = Run(workload_class(args.seed, Path(workdir)))
        if args.trace:
            metrics = per_layer_metrics(run, args.seconds)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics = end_to_end_metrics(run, args.seconds)
            metrics["setup_s"] = measure_setup()
            units = {name: unit for name, unit, _ in END_TO_END}

    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"fail_ratio {len(run.failures) / run.attempted:.6g} "
          f"({len(run.failures)} of {run.attempted} operations)", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload:9s} {name:52s} {value:14.6g} {units[name]}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args, names) -> int:
    """Every workload in its own fresh process; a table of what each reported."""
    results = {}
    for name in names:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
        )
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.splitlines()[-1])
    print(f"{'workload':9s} {'metric':52s} {'value':>14s} unit")
    for name, result in results.items():
        print(f"{name:9s} {'fail_ratio':52s} {result['failed'] / result['attempted']:14.6g} ratio")
        for metric, entry in result["metrics"].items():
            print(f"{name:9s} {metric:52s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seaweeds" / "__init__.py").is_file():
        print(f"error: no seaweeds package under {SRC}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
