"""End-to-end ECT-Hub benchmark: one workload, spec to exported JSON.

Run from the repository root:

    python3 perfbench/run.py --workload city-week --seed 0 --seconds 40 --trace 0

``--trace 0`` times whole calls with no hooks installed and reports the
end-to-end metrics; ``--trace 1`` also runs the call under the hook table
of ``bench_trace`` and reports the per-layer metrics. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import bench_checks
import bench_host
import bench_trace
import bench_workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_build" / "perfbench"

#: Fewest timed calls per phase, whatever ``--seconds`` says.
MIN_REPS = 3
MIN_TRACED_REPS = 2
#: Fresh interpreters timed before the calls, and again after them; the
#: set-up time is the median of both batches, so it samples the host at
#: both ends of the run.
SETUP_PROBES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "hub_slots_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

#: Per-layer metric -> unit. ``<layer>.calls|busy_s|self_s`` come straight
#: from the span summary; the rest are derived in :func:`layer_metrics`.
PER_LAYER_UNITS = {
    "synth.scenario.calls": "count",
    "synth.scenario.busy_s": "s",
    "synth.weather.busy_s": "s",
    "synth.traffic.busy_s": "s",
    "synth.rtp.busy_s": "s",
    "synth.strata.busy_s": "s",
    "energy.outage.busy_s": "s",
    "spec.compile.busy_s": "s",
    "spec.compile_share": "ratio",
    "spec.assembly_reuse": "ratio",
    "fleet.build.busy_s": "s",
    "fleet.planes.busy_s": "s",
    "fleet.planes.bytes": "B",
    "fleet.book.bytes": "B",
    "fleet.step.calls": "count",
    "fleet.step.busy_s": "s",
    "fleet.step.self_s": "s",
    "fleet.reset.busy_s": "s",
    "fleet.scheduler.calls": "count",
    "fleet.scheduler.busy_s": "s",
    "fleet.allocate.calls": "count",
    "fleet.allocate.busy_s": "s",
    "fleet.headroom.busy_s": "s",
    "backend.battery.calls": "count",
    "backend.battery.busy_s": "s",
    "fleet.book.calls": "count",
    "fleet.book.busy_s": "s",
    "pricing.compile.busy_s": "s",
    "causal.fit.calls": "count",
    "causal.fit.busy_s": "s",
    "synth.charging_log.busy_s": "s",
    "nn.backward.calls": "count",
    "nn.backward.busy_s": "s",
    "nn.optim.busy_s": "s",
    "rl.env_step.calls": "count",
    "rl.env_step.busy_s": "s",
    "rl.env_reset.busy_s": "s",
    "rl.update.calls": "count",
    "rl.update.busy_s": "s",
    "rl.act.busy_s": "s",
    "export.busy_s": "s",
    "trace.overhead": "ratio",
}

_SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import repro.api\n"
    "import bench_workloads\n"
    "bench_workloads.spec_for({name!r}, {seed})\n"
    "print(time.perf_counter() - start)\n"
)


def fail(message: str) -> None:
    """Abort without a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def measure_setup(name: str, seed: int) -> list[float]:
    """Times, in fresh interpreters, to import repro.api and build the spec."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
    code = _SETUP_PROBE.format(name=name, seed=seed)
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


class Runner:
    """Calls one workload repeatedly and checks every export."""

    def __init__(self, name: str, seed: int, reference: dict | None) -> None:
        self.name = name
        self.seed = seed
        self.spec = bench_workloads.spec_for(name, seed)
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.data: dict | None = None
        self.problems: list[str] = []

    def once(self) -> float | None:
        """One checked call; its wall time, or None when it raised."""
        self.attempted += 1
        # Collect the previous call's garbage outside the timed region, so
        # each call starts from the heap a fresh process would give it.
        gc.collect()
        try:
            start = time.perf_counter()
            text = bench_workloads.call(self.name, self.spec)
            elapsed = time.perf_counter() - start
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digest is None:
            # The first export is checked in full; every later export must
            # hash the same, so it shares the first one's verdict.
            self.digest = digest
            self.data = json.loads(text)["data"]
            self.problems = bench_checks.problems(self.name, self.data)
            if self.reference is not None:
                self.problems += bench_checks.reference_problems(
                    self.name, self.data, self.reference
                )
        found = self.problems if digest == self.digest else [
            "export differs from the first call of this workload and seed"
        ]
        if found:
            self.failed += 1
            for problem in found:
                print(f"check failed: {problem}", file=sys.stderr)
        return elapsed

    def repeat(self, seconds: float, min_reps: int, before=None) -> list:
        """Checked calls until ``seconds`` have passed and ``min_reps`` ran.

        Returns each call's wall time, None for a call that raised.
        """
        times: list = []
        begin = time.perf_counter()
        while len(times) < min_reps or time.perf_counter() - begin < seconds:
            if before is not None:
                before(len(times))
            times.append(self.once())
        return times


def trace_calls(runner: Runner, seconds: float, min_reps: int):
    """Checked calls under the hook table; the hooks are gone on return.

    Returns ``(tracer, installed, traced)``; ``traced[i]`` is call ``i``'s
    wall time (None if it raised) and its spans carry run id ``i``.
    """
    tracer = bench_trace.Tracer()
    installed = bench_trace.install(tracer)
    try:
        traced = runner.repeat(
            seconds, min_reps, before=lambda rep: setattr(tracer, "run_id", rep)
        )
    finally:
        installed.remove()
    return tracer, installed, traced


def layer_metrics(runner: Runner, tracer, installed, traced, untraced) -> dict:
    """Per-layer values, medians over the traced calls; checks the counts."""
    from repro.spec.compiler import assembly_fingerprint

    per_rep = []
    for rep, wall in enumerate(traced):
        if wall is None:
            continue
        summary = tracer.summary(rep)
        values = {}
        for metric in PER_LAYER_UNITS:
            layer, _, stat = metric.rpartition(".")
            if stat in ("calls", "busy_s", "self_s"):
                values[metric] = summary.get(layer, {}).get(stat, 0)
        values["spec.compile_share"] = values["spec.compile.busy_s"] / wall
        specs = [spec for r, spec in tracer.observed["spec.assembly"] if r == rep]
        distinct = {assembly_fingerprint(spec) for spec in specs}
        values["spec.assembly_reuse"] = len(distinct) / len(specs) if specs else 0.0
        for metric, key in (
            ("fleet.planes.bytes", "fleet.planes"),
            ("fleet.book.bytes", "fleet.book_init"),
        ):
            sizes = [size for r, size in tracer.observed[key] if r == rep]
            values[metric] = max(sizes, default=0)
        per_rep.append(values)

    expected = bench_workloads.expected_counts(runner.name, runner.spec)
    skipped = {entry.split(" ")[0] for entry in installed.unmeasured}
    for rep, values in enumerate(per_rep):
        wrong = [
            f"{metric}={values[metric]} (first traced call {per_rep[0][metric]}, "
            f"expected {expected.get(metric, 'any')})"
            for metric in PER_LAYER_UNITS
            if metric.endswith(".calls")
            and metric.rpartition(".")[0] not in skipped
            and (
                values[metric] != per_rep[0][metric]
                or values[metric] != expected.get(metric, values[metric])
            )
        ]
        if wrong:
            runner.failed += 1
            print(f"count check failed on traced call {rep}: {wrong}", file=sys.stderr)

    # Counts repeat exactly (checked above); timings are medians.
    metrics = {
        metric: per_rep[0][metric] if metric.endswith((".calls", ".bytes"))
        else statistics.median(values[metric] for values in per_rep)
        for metric in PER_LAYER_UNITS if metric != "trace.overhead"
    }
    metrics["trace.overhead"] = (
        statistics.median(t for t in traced if t is not None)
        / statistics.median(untraced) - 1
    )
    return metrics


def write_spans(path: Path, tracer, host, installed, name, seed) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "workload": name,
        "seed": seed,
        "host": host,
        "unmeasured": installed.unmeasured,
        "fields": list(tracer.FIELDS),
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(payload))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="pin this workload's economic totals at the default seed",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "api.py").is_file():
        fail(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    if args.workload not in bench_workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"available: {', '.join(bench_workloads.WORKLOADS)}")

    host = bench_host.probe()
    print(f"host: {json.dumps(host)}")
    pin = args.seed == bench_workloads.DEFAULT_SEED and not args.write_reference
    # The main process imports first, so the probes read warm bytecode.
    runner = Runner(args.workload, args.seed, bench_checks.load_reference() if pin else None)
    setup = [] if args.trace else measure_setup(args.workload, args.seed)

    # Untimed warm-up call: caches, lazy imports, and the export digest
    # every later call must reproduce.
    runner.once()
    if args.write_reference:
        if args.seed != bench_workloads.DEFAULT_SEED or runner.failed:
            fail("the reference is written from a passing default-seed call")
        bench_checks.write_reference(args.workload, runner.data)

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = [t for t in runner.repeat(budget, MIN_REPS) if t is not None]
    if not untraced:
        fail("every timed call raised")

    if args.trace:
        tracer, installed, traced = trace_calls(runner, budget, MIN_TRACED_REPS)
        if all(t is None for t in traced):
            fail("every traced call raised")
        for entry in installed.unmeasured:
            print(f"unmeasured: {entry}")
        metrics = layer_metrics(runner, tracer, installed, traced, untraced)
        units = PER_LAYER_UNITS
        write_spans(
            SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json",
            tracer, host, installed, args.workload, args.seed,
        )
    else:
        setup += measure_setup(args.workload, args.seed)
        run_s = statistics.median(untraced)
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": run_s,
            "hub_slots_per_s": bench_workloads.hub_slots(
                args.workload, runner.spec, runner.data
            ) / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1 - runner.failed / runner.attempted,
        }
        units = END_TO_END_UNITS

    print(f"workload {args.workload}, seed {args.seed}: "
          f"{runner.attempted} calls, {runner.failed} failed")
    print("  call times without hooks: " + " ".join(f"{t:.3f}" for t in untraced) + " s")
    for metric, value in metrics.items():
        print(f"  {metric:<28} {value:.6g} {units[metric]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }))


if __name__ == "__main__":
    main()
