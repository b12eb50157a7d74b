"""A trace of one pipeline run, taken from outside the program.

The tracer replaces the public functions that dvfusion modules look up at
call time (``dvfusion.pipeline.match_pixels``, ``dvfusion.partition.cut_pursuit``
and so on) with timing wrappers, and puts every original back afterwards.
Each call becomes a span: name, thread, start, end and parent, the parent
coming from a per-thread stack. Spans stay in memory; the caller writes them
out when the run ends. A hook whose target no longer exists is recorded as
missing and the metrics that need it are reported as missing, so a refactor
of the program cannot crash the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from checks import LEVELS

LAYERS = ("tiling", "partition", "features", "imaging", "coarse",
          "refinement", "fine", "evaluation")
ROOT_SPAN = "pipeline.run_pipeline"


@dataclass
class Span:
    name: str                   # "<layer>.<function>"
    thread: int
    start: float
    end: float = 0.0
    parent: int = -1            # index into Tracer.spans; -1 = thread root
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


# Observers run after the wrapped call returns and record counts on its
# span. They only take lengths and keep references, so they add little to
# the parent span's time.

def _tiles(tracer, span, fn, args, kwargs, result):
    span.info["n_tiles"] = len(result)
    span.info["source_points"] = sum(len(p.source) for p in result)
    span.info["target_points"] = sum(len(p.target) for p in result)


def _hierarchy(tracer, span, fn, args, kwargs, result):
    span.info["points"] = len(result.labels(1))
    span.info["patches"] = [len(result.patches(l)) for l in LEVELS]
    span.info["assigned"] = [int(np.sum(result.labels(l) >= 0)) for l in LEVELS]


def _cut_pursuit(tracer, span, fn, args, kwargs, result):
    # Levels are told apart by call order within one hierarchical_partition.
    parent = tracer.spans[span.parent] if span.parent >= 0 else None
    if parent is not None and parent.name == "partition.hierarchical_partition":
        parent.info["cut_pursuit_calls"] = parent.info.get("cut_pursuit_calls", 0) + 1
        span.info["level"] = parent.info["cut_pursuit_calls"]
    a = _bound(fn, args, kwargs)
    span.info["vertices"] = len(result)
    # Energy is evaluated after the run, outside every span.
    span.info["energy_args"] = (a["features"], a["edges"], a["weights"],
                                result, a["lam"], a["sizes"])


def _sampled(tracer, span, fn, args, kwargs, result):
    span.info["sampled"] = len(result)


def _pixels(tracer, span, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    h, w = a["img_a"].gray().shape
    r, stride = int(a["template_radius"]), int(a["stride"])
    span.info["attempted"] = (len(range(r, h - r, stride))
                              * len(range(r, w - r, stride)))
    span.info["matched"] = len(result)


def _count_by_level(tracer, span, fn, args, kwargs, result):
    span.info["level"] = result.level
    span.info["count"] = len(result)


def _count(tracer, span, fn, args, kwargs, result):
    span.info["count"] = len(result)


def _refined(tracer, span, fn, args, kwargs, result):
    kept, reports = result
    span.info["level"] = kept.level
    span.info["count"] = len(kept)
    span.info["input"] = len(reports)


def _icp(tracer, span, fn, args, kwargs, result):
    span.info["iterations"] = result.iterations


# (module, attribute, span name, observer). The module is the one whose
# namespace the caller looks the name up in, not where it is defined.
HOOKS = (
    ("dvfusion.pipeline", "tile_pair", "tiling.tile_pair", _tiles),
    ("dvfusion.pipeline", "hierarchical_partition",
     "partition.hierarchical_partition", _hierarchy),
    ("dvfusion.partition", "partition_features", "partition.partition_features", None),
    ("dvfusion.partition", "build_adjacency_graph",
     "partition.build_adjacency_graph", None),
    ("dvfusion.partition", "cut_pursuit", "partition.cut_pursuit", _cut_pursuit),
    ("dvfusion.pipeline", "adaptive_downsample", "features.adaptive_downsample", _sampled),
    ("dvfusion.pipeline", "extract_point_features",
     "features.extract_point_features", None),
    ("dvfusion.features", "pair_histogram_descriptors",
     "features.pair_histogram_descriptors", None),
    ("dvfusion.pipeline", "aggregate_level_features",
     "features.aggregate_level_features", None),
    ("dvfusion.pipeline", "select_top_k_images", "imaging.select_top_k_images", None),
    ("dvfusion.pipeline", "match_pixels", "imaging.match_pixels", _pixels),
    ("dvfusion.pipeline", "project_to_image", "imaging.project_to_image", None),
    ("dvfusion.pipeline", "match_patches_3d", "coarse.match_patches_3d", _count_by_level),
    ("dvfusion.pipeline", "lift_matches", "coarse.lift_matches", _count),
    ("dvfusion.pipeline", "match_patches_2d", "coarse.match_patches_2d", _count_by_level),
    ("dvfusion.pipeline", "merge_match_sets", "coarse.merge_match_sets", None),
    ("dvfusion.pipeline", "gate_match_set", "coarse.gate_match_set", _count_by_level),
    ("dvfusion.pipeline", "refine", "refinement.refine", _refined),
    ("dvfusion.pipeline", "estimate_patch_transform",
     "fine.estimate_patch_transform", None),
    ("dvfusion.fine", "icp_point_to_point", "fine.icp_point_to_point", _icp),
    ("dvfusion.pipeline", "integrate_levels", "fine.integrate_levels", None),
    ("dvfusion.evaluation", "spatial_coverage", "evaluation.spatial_coverage", None),
)

# PipelineResult.timings stage -> the spans that make up that stage. None of
# these nest inside another, so their durations add up like the stage clock.
STAGE_SPANS = {
    "tiling": ("tiling.tile_pair",),
    "partition": ("partition.hierarchical_partition",),
    "coarse": ("features.adaptive_downsample", "features.extract_point_features",
               "features.aggregate_level_features", "imaging.select_top_k_images",
               "imaging.match_pixels", "imaging.project_to_image",
               "coarse.lift_matches", "coarse.match_patches_3d",
               "coarse.match_patches_2d", "coarse.merge_match_sets",
               "coarse.gate_match_set"),
    "refine": ("refinement.refine",),
    "fine": ("fine.estimate_patch_transform",),
    "integrate": ("fine.integrate_levels",),
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: dict = {}         # span name -> why its hook is absent
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        s = Span(name, threading.get_ident(), 0.0, parent=stack[-1] if stack else -1)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(s)
        stack.append(idx)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    s.info["raised"] = type(exc).__name__
                    raise
            if observe is not None:
                try:
                    observe(self, s, fn, args, kwargs, result)
                except Exception as exc:   # the program changed shape; keep running
                    self.missing.setdefault(name, f"observer failed: {exc!r}")
            return result
        return traced

    @contextmanager
    def hooked(self):
        """Install every hook for the duration of the block, then restore
        the originals even if the block raises."""
        for module_name, attr, name, observe in HOOKS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError) as exc:
                self.missing[name] = f"hook {module_name}.{attr} not found ({exc})"
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, observe))
        try:
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def records(self) -> list:
        """Spans as plain dicts, for writing out once the run has ended."""
        return [{"name": s.name, "thread": s.thread, "start": s.start,
                 "end": s.end, "parent": s.parent,
                 "info": {k: v for k, v in s.info.items() if k != "energy_args"}}
                for s in self.spans]


# ---------------------------------------------------------------------------
# Turning spans into per-layer metrics


def union_seconds(intervals) -> float:
    """Length of the union of (start, end) intervals: busy time across
    threads, where overlapping work counts once."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Missing(Exception):
    """A metric could not be measured in this run; the message says why."""


class _Spans:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.by_name: dict = {}
        for s in tracer.spans:
            self.by_name.setdefault(s.name, []).append(s)

    def of(self, *names) -> list:
        for n in names:
            if n in self.tracer.missing:
                raise Missing(self.tracer.missing[n])
        return [s for n in names for s in self.by_name.get(n, [])]

    def busy(self, *names, level=None) -> float:
        return union_seconds((s.start, s.end) for s in self.of(*names)
                             if level is None or s.info.get("level") == level)

    def total(self, name, key, level=None) -> float:
        return sum(s.info.get(key, 0) for s in self.of(name)
                   if level is None or s.info.get("level") == level)


def _ratio(num, den) -> float:
    # Zero attempts give a zero ratio; the base is reported beside it.
    return num / den if den else 0.0


def _energy(spans: _Spans, level: int) -> float:
    try:
        from dvfusion.partition import partition_energy
    except ImportError as exc:
        raise Missing(f"dvfusion.partition.partition_energy not found ({exc})")
    total = 0.0
    for s in spans.of("partition.cut_pursuit"):
        if s.info.get("level") == level:
            total += partition_energy(*s.info["energy_args"])
    return total


def _self_seconds(tracer: Tracer) -> list:
    child_time = [0.0] * len(tracer.spans)
    for s in tracer.spans:
        if s.parent >= 0:
            child_time[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(tracer.spans, child_time)]


def _metric_table():
    """(name, unit, better, value(ctx)) for every per-layer metric. `ctx` has
    the spans (`sp`), the traced run's `wall` and `timings`, and `error(key)`,
    a value of the accuracy dict from checks.accuracy."""
    t = []

    def add(name, unit, better, fn):
        t.append((name, unit, better, fn))

    def secs(metric, *names, level=None):
        add(metric, "s", "lower", lambda c: c.sp.busy(*names, level=level))

    secs("tiling.tile_pair_s", "tiling.tile_pair")
    add("tiling.n_tiles", "count", "lower",
        lambda c: c.sp.total("tiling.tile_pair", "n_tiles"))
    add("tiling.target_over_source", "ratio", "lower",
        lambda c: _ratio(c.sp.total("tiling.tile_pair", "target_points"),
                         c.sp.total("tiling.tile_pair", "source_points")))

    secs("partition.hierarchical_partition_s", "partition.hierarchical_partition")
    secs("partition.partition_features_s", "partition.partition_features")
    secs("partition.build_adjacency_graph_s", "partition.build_adjacency_graph")
    for l in LEVELS:
        secs(f"partition.cut_pursuit_l{l}_s", "partition.cut_pursuit", level=l)
    for l in LEVELS:
        add(f"partition.vertices_l{l}", "count", "lower",
            lambda c, l=l: c.sp.total("partition.cut_pursuit", "vertices", level=l))
        add(f"partition.patches_l{l}", "count", "higher",
            lambda c, l=l: sum(s.info["patches"][l - 1] for s in
                               c.sp.of("partition.hierarchical_partition")))
        add(f"partition.assigned_frac_l{l}", "ratio", "higher",
            lambda c, l=l: _ratio(
                sum(s.info["assigned"][l - 1]
                    for s in c.sp.of("partition.hierarchical_partition")),
                c.sp.total("partition.hierarchical_partition", "points")))
        add(f"partition.energy_l{l}", "1", "lower", lambda c, l=l: _energy(c.sp, l))

    secs("features.adaptive_downsample_s", "features.adaptive_downsample")
    secs("features.extract_point_features_s", "features.extract_point_features")
    secs("features.pair_histogram_descriptors_s", "features.pair_histogram_descriptors")
    secs("features.aggregate_level_features_s", "features.aggregate_level_features")
    add("features.sampled_points", "count", "lower",
        lambda c: c.sp.total("features.adaptive_downsample", "sampled"))

    secs("imaging.select_top_k_images_s", "imaging.select_top_k_images")
    secs("imaging.match_pixels_s", "imaging.match_pixels")
    secs("imaging.project_to_image_s", "imaging.project_to_image")
    add("imaging.keypoints_attempted", "count", "lower",
        lambda c: c.sp.total("imaging.match_pixels", "attempted"))
    add("imaging.keypoints_matched", "count", "higher",
        lambda c: c.sp.total("imaging.match_pixels", "matched"))
    add("imaging.ncc_match_ratio", "ratio", "higher",
        lambda c: _ratio(c.sp.total("imaging.match_pixels", "matched"),
                         c.sp.total("imaging.match_pixels", "attempted")))

    secs("coarse.match_patches_3d_s", "coarse.match_patches_3d")
    secs("coarse.lift_matches_s", "coarse.lift_matches")
    secs("coarse.match_patches_2d_s", "coarse.match_patches_2d")
    secs("coarse.gate_merge_s", "coarse.gate_match_set", "coarse.merge_match_sets")
    for l in LEVELS:
        add(f"coarse.candidates_3d_l{l}", "count", "higher",
            lambda c, l=l: c.sp.total("coarse.match_patches_3d", "count", level=l))
        add(f"coarse.candidates_2d_l{l}", "count", "higher",
            lambda c, l=l: c.sp.total("coarse.match_patches_2d", "count", level=l))
        add(f"coarse.gated_l{l}", "count", "higher",
            lambda c, l=l: c.sp.total("coarse.gate_match_set", "count", level=l))
    add("coarse.lifted_pairs", "count", "higher",
        lambda c: c.sp.total("coarse.lift_matches", "count"))

    secs("refinement.refine_s", "refinement.refine")
    for l in LEVELS:
        add(f"refinement.accepted_l{l}", "count", "higher",
            lambda c, l=l: c.sp.total("refinement.refine", "count", level=l))
    add("refinement.accept_ratio", "ratio", "higher",
        lambda c: _ratio(c.sp.total("refinement.refine", "count"),
                         c.sp.total("refinement.refine", "input")))

    secs("fine.estimate_patch_transform_s", "fine.estimate_patch_transform")
    add("fine.icp_iterations_mean", "count", "lower",
        lambda c: _ratio(c.sp.total("fine.icp_point_to_point", "iterations"),
                         len(c.sp.of("fine.icp_point_to_point"))))
    add("fine.fits_attempted", "count", "higher",
        lambda c: len(c.sp.of("fine.estimate_patch_transform")))
    add("fine.fits_degenerate", "count", "lower",
        lambda c: sum(s.info.get("raised") == "DegenerateSupport"
                      for s in c.sp.of("fine.estimate_patch_transform")))
    for l in LEVELS:
        add(f"fine.points_covered_l{l}", "count", "higher",
            lambda c, l=l: c.error(f"points_covered_l{l}"))
        add(f"fine.median_err_moving_l{l}", "m", "lower",
            lambda c, l=l: c.error(f"median_err_moving_l{l}"))
        add(f"fine.integrated_from_l{l}", "count", "higher",
            lambda c, l=l: c.error(f"integrated_from_l{l}"))
    for key, unit, better in (("median_err_moving_m", "m", "lower"),
                              ("p95_err_moving_m", "m", "lower"),
                              ("median_err_static_m", "m", "lower"),
                              ("moving_samples", "count", "higher"),
                              ("integrated_gap_m", "m", "lower")):
        add(f"fine.{key}", unit, better, lambda c, key=key: c.error(key))

    secs("evaluation.spatial_coverage_s", "evaluation.spatial_coverage")

    for layer in LAYERS:
        add(f"{layer}.self_s", "s", "lower",
            lambda c, layer=layer: sum(x for s, x in zip(c.tracer.spans, c.self_s)
                                       if s.layer == layer))
        add(f"{layer}.busy_s", "s", "lower",
            lambda c, layer=layer: union_seconds(
                (s.start, s.end) for s in c.tracer.spans if s.layer == layer))

    add("pipeline.unattributed_s", "s", "lower",
        lambda c: c.wall - union_seconds((s.start, s.end) for s in c.tracer.spans
                                         if s.name != ROOT_SPAN))
    add("pipeline.span_sum_over_wall", "ratio", "higher",
        lambda c: sum(s.seconds for s in c.tracer.spans
                      if s.name != ROOT_SPAN and s.parent in (-1, c.root)) / c.wall)
    # The program's own stage clock sums across threads; against wall time
    # this is the measured size of that over-count.
    add("pipeline.timings_over_wall", "ratio", "lower",
        lambda c: sum(c.timings.values()) / c.wall)
    add("pipeline.stage_timing_gap_s", "s", "lower",
        lambda c: sum(c.timings.get(stage, 0.0) - sum(s.seconds for s in c.sp.of(*names))
                      for stage, names in STAGE_SPANS.items()))
    # Filled in by the caller from the untraced runs of the same process.
    add("pipeline.trace_overhead_s", "s", "lower", None)
    return t


METRICS = _metric_table()


class _Context:
    def __init__(self, tracer, wall, timings, acc):
        self.tracer = tracer
        self.sp = _Spans(tracer)
        self.wall = wall
        self.timings = timings
        self.acc = acc
        self.self_s = _self_seconds(tracer)
        self.root = next((i for i, s in enumerate(tracer.spans) if s.name == ROOT_SPAN), -1)

    def error(self, key):
        if self.acc[key] is None:
            raise Missing("no moving point has a vector from which to measure it")
        return self.acc[key]


def layer_metrics(tracer: Tracer, wall: float, timings: dict, acc: dict) -> dict:
    """name -> value, or name -> Missing(reason) when it cannot be measured,
    so that a refactor of the program degrades the trace instead of ending
    the run."""
    ctx = _Context(tracer, wall, timings, acc)
    out = {}
    for name, _unit, _better, fn in METRICS:
        if fn is None:
            continue
        try:
            out[name] = fn(ctx)
        except Missing as exc:
            out[name] = exc
        except (KeyError, AttributeError, TypeError, IndexError) as exc:
            out[name] = Missing(f"{type(exc).__name__}: {exc}")
    return out
