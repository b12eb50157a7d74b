"""Benchmark of the dvfusion pipeline on synthetic slope scenes.

Run from the root of a checkout:

    python3 bench/run.py --workload slope20k_3d --seed 0 --seconds 50 --trace 0

One process runs one workload as a closed loop: one pipeline run at a time,
each starting when the previous one has ended, until the next run would
overrun --seconds (at least two runs). Every run's output is checked.

With --trace 0 no hook is installed and the end-to-end metrics are reported.
Each run takes a new scene: run i uses synth seed ``seed + i * 10000``, so
the first scene of --seed s is synth seed s. Timings are medians over all
runs; coverage and estimated fraction average the first two scenes, which
every run has, so they are deterministic for a seed.

With --trace 1 untraced and traced runs alternate on the scene of the seed
itself, and the per-layer metrics of the traced ones are reported, together
with the tracing overhead.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program is imported from ``src/`` of the checkout and nowhere else.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import accuracy, field_digest, field_problems  # noqa: E402
from tracer import METRICS, ROOT_SPAN, Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
SCENE_STRIDE = 10_000       # run i of --seed s uses synth seed s + i * SCENE_STRIDE
MIN_RUNS = 2

# name, unit, better; the order in which they are printed.
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("coverage", "ratio", "higher"),
    ("estimated_fraction", "ratio", "higher"),
)
# Printed with the end-to-end metrics, for the scene of the seed itself, but
# left out of the JSON result: the error metrics are deterministic per seed
# yet spread far more from one seed to the next than any regression bound
# (they appear per layer as fine.*), and error_rate is 0 on a passing run and
# is carried by attempted/failed.
REPORTED_ONLY = (
    ("median_err_moving_m", "m", "lower"),
    ("p95_err_moving_m", "m", "lower"),
    ("median_err_static_m", "m", "lower"),
    ("error_rate", "ratio", "lower"),
)


def _import_program() -> None:
    if not (SRC / "dvfusion" / "__init__.py").is_file():
        sys.exit(f"bench: no dvfusion sources under {SRC}; "
                 "run from the root of a checkout of the repository")
    sys.path.insert(0, str(SRC))


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _setup_seconds(workload: str, seed: int) -> float:
    """Import plus scene generation, measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        check=True)
    return float(out.stdout.split()[-1])


@dataclass
class Attempt:
    kind: str                       # "untraced", "traced" or "n_workers=1"
    scene_seed: int
    wall: float = 0.0
    cpu: float = 0.0
    problems: list = field(default_factory=list)
    digest: str = ""
    coverage: float = 0.0
    fraction: float = 0.0
    timings: dict = field(default_factory=dict)
    accuracy: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def _attempt(kind, workload, scene, config=None, tracer=None) -> Attempt:
    a = Attempt(kind, scene.seed)
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(scene, config)
        else:
            with tracer.hooked(), tracer.span(ROOT_SPAN):
                result = workload.run(scene, config)
    except Exception as exc:
        traceback.print_exc()
        a.problems.append(f"run_pipeline raised {type(exc).__name__}: {exc}")
        return a
    a.wall = time.perf_counter() - t0
    a.cpu = _cpu_seconds() - cpu0
    src = scene.source.points
    a.problems = field_problems(result.field, src, result.coverage)
    if a.problems:
        return a
    a.digest = field_digest(result.field)
    a.coverage = result.coverage
    a.fraction = len(result.field) / len(src)
    a.timings = dict(result.timings)
    a.accuracy = accuracy(result, scene)
    if tracer is not None:
        a.layers = layer_metrics(tracer, a.wall, a.timings, a.accuracy)
    return a


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(workload, seed: int, seconds: float, trace: bool):
    """Closed loop of pipeline runs. Returns the attempts, the tracers of the
    traced ones and the peak memory once the first MIN_RUNS runs are done
    (later runs, whose number depends on speed, do not count)."""
    attempts, tracers, durations = [], [], []
    scene, peak_rss = None, None
    start = time.perf_counter()
    while True:
        i = len(attempts)
        scene_seed = seed if trace else seed + i * SCENE_STRIDE
        if scene is None or scene.seed != scene_seed:
            scene = workload.scene(scene_seed)
        traced = trace and i % 2 == 1
        tracer = Tracer() if traced else None
        t0 = time.perf_counter()
        attempts.append(_attempt("traced" if traced else "untraced",
                                 workload, scene, tracer=tracer))
        durations.append(time.perf_counter() - t0)
        if tracer is not None:
            tracers.append(tracer)
        if i + 1 == MIN_RUNS:
            peak_rss = _peak_rss_mb()
        elapsed = time.perf_counter() - start
        if i + 1 >= MIN_RUNS and elapsed + statistics.median(durations) > seconds:
            break
    if trace and workload.config.n_workers > 1:
        # The thread count must not change the answer: same digest expected.
        attempts.append(_attempt("n_workers=1", workload, scene,
                                 replace(workload.config, n_workers=1)))
    return attempts, tracers, peak_rss


def _check_digests(attempts) -> None:
    """Every run of one scene must produce the bit-identical field."""
    first = {}
    for a in attempts:
        if not a.ok:
            continue
        ref = first.setdefault(a.scene_seed, a)
        if a.digest != ref.digest:
            a.problems.append(f"{a.kind} field digest {a.digest[:16]} differs "
                              f"from the {ref.kind} run's {ref.digest[:16]} "
                              f"on the same scene")


def _mean(values):
    values = list(values)
    return statistics.fmean(values) if values else None


def _end_to_end(attempts, seed: int, setup, peak_rss) -> dict:
    ok = [a for a in attempts if a.ok]
    # Quality metrics use only the scenes every run has, so that they do not
    # depend on how many runs fitted into the time.
    first = [a for a in ok if a.scene_seed < seed + MIN_RUNS * SCENE_STRIDE]
    acc = next((a.accuracy for a in ok if a.scene_seed == seed), {})
    return {
        "wall_s": _median(a.wall for a in ok),
        "cpu_s": _median(a.cpu for a in ok),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss,
        "coverage": _mean(a.coverage for a in first),
        "estimated_fraction": _mean(a.fraction for a in first),
        "median_err_moving_m": acc.get("median_err_moving_m"),
        "p95_err_moving_m": acc.get("p95_err_moving_m"),
        "median_err_static_m": acc.get("median_err_static_m"),
        "error_rate": sum(not a.ok for a in attempts) / len(attempts),
    }


def _per_layer(attempts) -> tuple[dict, dict]:
    """Median over the traced runs of each per-layer metric, and the reason
    for each metric that could not be measured."""
    traced = [a for a in attempts if a.kind == "traced" and a.ok]
    untraced = [a for a in attempts if a.kind == "untraced" and a.ok]
    values, missing = {}, {}
    for name, _unit, _better, _fn in METRICS:
        got = [a.layers.get(name) for a in traced]
        reasons = [str(v) for v in got if isinstance(v, Exception)]
        nums = [v for v in got if v is not None and not isinstance(v, Exception)]
        values[name] = statistics.median(nums) if nums else None
        if values[name] is None:
            missing[name] = reasons[0] if reasons else "no traced run measured it"
    if traced and untraced:
        values["pipeline.trace_overhead_s"] = (
            statistics.median(a.wall for a in traced)
            - statistics.median(a.wall for a in untraced))
        missing.pop("pipeline.trace_overhead_s", None)
    return values, missing


def _write_spans(workload: str, seed: int, tracers) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for run, tracer in enumerate(tracers):
            for rec in tracer.records():
                fh.write(json.dumps({"run": run, **rec}, default=str) + "\n")
    return path


def _fmt(value) -> str:
    if value is None:
        return "missing"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_program()
    from scenes import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.scene(args.seed)
        print(time.perf_counter() - _STARTED)
        return 0

    setup = [] if args.trace else [_setup_seconds(args.workload, args.seed)
                                   for _ in range(SETUP_PROBES)]
    attempts, tracers, peak_rss = _measure(workload, args.seed, args.seconds,
                                           bool(args.trace))
    _check_digests(attempts)

    failed = sum(not a.ok for a in attempts)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(attempts)} runs ({', '.join(a.kind for a in attempts)}), "
          f"{failed} failed")
    for a in attempts:
        for p in a.problems:
            print(f"  FAILED {a.kind}: {p}")
    for a in attempts:
        if a.ok:
            acc = a.accuracy
            print(f"  {a.kind} run, scene seed {a.scene_seed}: wall {a.wall:.3f} s, "
                  f"coverage {a.coverage:.4f}, estimated {a.fraction:.4f}, "
                  f"moving error median {_fmt(acc['median_err_moving_m'])} m / "
                  f"p95 {_fmt(acc['p95_err_moving_m'])} m over "
                  f"{acc['moving_samples']} points, static error median "
                  f"{_fmt(acc['median_err_static_m'])} m over "
                  f"{acc['static_samples']} points, digest {a.digest[:16]}")

    if args.trace:
        values, missing = _per_layer(attempts)
        declared = [(n, u, b) for n, u, b, _ in METRICS]
        if tracers:
            print(f"  spans written to {_write_spans(workload.name, args.seed, tracers)}")
    else:
        values, missing = _end_to_end(attempts, args.seed, setup, peak_rss), {}
        declared = END_TO_END + REPORTED_ONLY
    for name, unit, better in declared:
        note = f"  (missing: {missing[name]})" if name in missing else ""
        print(f"  {name:40s} {_fmt(values[name]):>14s} {unit:6s} "
              f"{better} is better{note}")

    # The result holds a finite number for every metric. One that could not
    # be measured is 0 there; it is named here and its reason is printed
    # beside it above.
    emitted = declared if args.trace else END_TO_END
    unmeasured = [name for name, _unit, _better in emitted
                  if values[name] is None or not math.isfinite(values[name])]
    if unmeasured:
        print(f"  not measured, reported as 0: {', '.join(unmeasured)}")
    metrics = {name: {"value": 0.0 if name in unmeasured else float(values[name]),
                      "unit": unit}
               for name, unit, _better in emitted}
    print(json.dumps({"correct": failed == 0, "attempted": len(attempts),
                      "failed": failed, "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
