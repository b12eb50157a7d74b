"""End-to-end orchestration: tiling -> partitioning -> coarse matching ->
refinement -> fine matching -> level integration.

Within a tile, both epochs are partitioned and described; then one pass
per level (1, 2, 3) runs coarse matching, refinement and the fits.

Tiles are processed independently (optionally by a thread pool), and the
outcomes come back in tile order either way. Each tile's level fields are
keyed by point ids of the whole cloud (`level_field` is given the tile's
ascending source ids). `merge_fields` joins each level's fields by point id;
source tiles partition the cloud, so per-tile fields never collide. The
levels are integrated once, after the tiles, by the same merge. The only
thing tiles share is the whole-image pixel matches, computed once per
selected image pair and run.

Threads: with `n_workers` >= 2 and two tiles or more, a pool of
`n_workers` threads takes whole tiles, and each tile runs its two epochs
one after the other. Otherwise the calling thread takes the tiles one at a
time, and a helper thread runs each tile's target epoch while the calling
thread runs the source epoch, in two steps: covariance and partition (the
`partition` stage clock), then descriptors (counted in `coarse`). The epochs
share nothing, so the fields keep their bits. Matching, refinement and the
fits run on the tile's own thread. With images, one more thread matches the
image pairs (the `images` clock) from tiling onward. Stage clocks of
different threads overlap, so they can sum past wall time.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from .coarse import (
    CorrTable,
    filter_by_max_displacement,
    gate_match_set,
    lift_matches,
    match_patches_2d,
    match_patches_3d,
    merge_match_sets,
)
from .config import PipelineConfig
from .dvf import DisplacementVectorField, merge_fields
from .errors import (
    ConfigError,
    DegenerateInput,
    DegenerateSupport,
    DvfError,
    ImageTooSmall,
    NoVisibleImage,
    PipelineError,
)
from .features import (
    adaptive_downsample,
    aggregate_level_features,
    extract_point_features,
    lookup_descriptors,
)
from .fine import estimate_patch_transform, integrate_levels, level_field
from .geometry import (NORMAL_NEIGHBOURS, as_points, local_covariance_features,
                       mean_scan_resolution)
from .io import PointFeatureSet
from .imaging import match_pixels, project_to_image, select_top_k_images
from .partition import hierarchical_partition, partition_features
from .refinement import refine
from .tiling import tile_pair

LEVELS = (1, 2, 3)


@dataclass
class TileOutcome:
    """Everything one tile pair contributed, with point ids already global."""

    level_fields: tuple                 # per-level fields, global ids
    reports: list                       # quality reports, all levels
    timings: dict


@dataclass
class PipelineResult:
    field: DisplacementVectorField      # integrated across levels and tiles
    level_fields: tuple                 # per-level fields across tiles
    reports: list
    timings: dict                       # stage -> seconds
    coverage: float
    resolution: float
    tile_pairs: list = dc_field(default_factory=list)

    def summary(self) -> dict:
        out = {"n_estimates": len(self.field),
               "coverage": self.coverage,
               "mean_resolution": self.resolution}
        for lvl, f in zip(LEVELS, self.level_fields):
            out[f"n_level{lvl}"] = len(f)
        out.update({f"seconds_{k}": round(v, 3)
                    for k, v in sorted(self.timings.items())})
        return out


def _tick(timings: dict, stage: str, t0: float) -> float:
    now = time.perf_counter()
    timings[stage] = timings.get(stage, 0.0) + (now - t0)
    return now


def _fail(stage: str, pair_id: int, exc: Exception,
          epoch: str | None = None) -> PipelineError:
    where = f", {epoch} epoch" if epoch else ""
    return PipelineError(f"stage '{stage}', tile {pair_id}{where}: {exc}")


# ---------------------------------------------------------------------------
# Per-tile processing


def _both_epochs(stage: str, pair_id: int, helper, fn, src_args: tuple,
                 tgt_args: tuple) -> tuple:
    """(fn(*src_args), fn(*tgt_args)), the source epoch's call and the
    target epoch's. With a `helper` executor the target's call runs on it
    while this thread runs the source's. An error names its epoch; when
    both calls fail the source's error is raised, as when the epochs run
    one after the other."""
    target = helper.submit(fn, *tgt_args) if helper is not None else None
    epoch = "source"
    try:
        src = fn(*src_args)
        epoch = "target"
        tgt = fn(*tgt_args) if target is None else target.result()
    except DvfError as exc:
        raise _fail(stage, pair_id, exc, epoch) from exc
    return src, tgt


def _partition_epoch(sub_pts, cfg: PipelineConfig) -> tuple:
    """The k-NN covariance features of one tile epoch and its patch
    hierarchy. One neighbourhood pass per epoch: the partition features and
    the builtin descriptors' normals both come from this covariance."""
    geo = local_covariance_features(sub_pts, k=NORMAL_NEIGHBOURS)
    part = hierarchical_partition(
        sub_pts, feats=partition_features(geo),
        lambda_factors=cfg.lambda_factors, min_patch=cfg.min_patch,
        k_adj=cfg.k_adj)
    return geo, part


def _tile_features(sub_pts, geo, global_ids, cfg: PipelineConfig,
                   resolution: float, imported) -> PointFeatureSet:
    """Descriptors for the downsampled points of one tile: imported ones
    when a feature set is given, the builtin ones (normals from `geo`, the
    tile's k-NN covariance features) otherwise.

    Imported feature files are keyed by point ids of the *full* cloud, so the
    tile-local sample is translated to global ids for the lookup and the
    result keyed locally.
    """
    sample = adaptive_downsample(sub_pts, voxel_factor=cfg.voxel_factor,
                                 resolution=resolution)
    if imported is not None:
        return PointFeatureSet(sample,
                               lookup_descriptors(imported, global_ids[sample]))
    return extract_point_features(sub_pts, geo, sample_indices=sample,
                                  resolution=resolution)


def _start_image_jobs(matcher, pairs, source_points, cameras, src_rasters,
                      tgt_rasters, cfg: PipelineConfig, timings: dict) -> dict:
    """pair id -> (camera, job) for each of the tile's top-k cameras by its
    source points. Each selected image pair is submitted to `matcher` once,
    in id order, its seconds adding to `timings["images"]`."""
    def match(image_id):
        t0 = time.perf_counter()
        try:
            return match_pixels(
                src_rasters[image_id], tgt_rasters[image_id],
                stride=cfg.ncc_stride, template_radius=cfg.ncc_template_radius,
                search_window=cfg.ncc_search_window, min_conf=cfg.min_conf)
        finally:
            _tick(timings, "images", t0)

    selected = {}
    for pair in pairs:
        selected[pair.pair_id] = []     # a tile with no target point matches none
        if len(pair.target):
            try:
                selected[pair.pair_id] = select_top_k_images(
                    source_points[pair.source.point_indices], cameras,
                    k=cfg.top_k_images)
            except NoVisibleImage:
                pass
    jobs = {i: matcher.submit(match, i)
            for i in sorted({i for ids in selected.values() for i in ids})}
    cams_by_id = {c.image_id: c for c in cameras}
    return {pid: [(cams_by_id[i], jobs[i]) for i in ids]
            for pid, ids in selected.items()}


def _coarse_2d_table(tile_src_pts, tile_tgt_pts, images: list,
                     cfg: PipelineConfig) -> CorrTable:
    """Lifted image correspondences for one tile, already gated by the
    plausible-displacement radius. `images` holds (camera, job matching its
    image pair) for each image the tile selected."""
    pix_sets, src_proj, tgt_proj = [], {}, {}
    for cam, job in images:
        try:
            pix_sets.append(job.result())
        except ImageTooSmall:
            continue
        src_proj[cam.image_id] = project_to_image(tile_src_pts, cam)
        tgt_proj[cam.image_id] = project_to_image(tile_tgt_pts, cam)
    if not pix_sets:
        return CorrTable.empty()
    table = lift_matches(pix_sets, src_proj, tgt_proj, r_px=cfg.lift_radius_px)
    return filter_by_max_displacement(table, tile_src_pts, tile_tgt_pts,
                                      cfg.max_displacement)


def _process_tile(pair, source_points, target_points, cfg: PipelineConfig,
                  resolution: float, images: list, imported_features=None,
                  helper=None) -> TileOutcome:
    """One tile pair through every stage; `images` as in `_coarse_2d_table`.

    Both epochs are partitioned, then described; with a `helper` executor
    the target epoch's steps run on it, beside the source epoch's. The image
    matches are lifted once. Then each level in turn is matched (3D, 2D,
    merge, gate), refined and fitted into its field; levels share no state.
    An error names its stage and tile. A tile that the target epoch does
    not reach (two epochs that overlap in part) gives no vector."""
    timings: dict = {}
    pid = pair.pair_id
    src_ids, tgt_ids = pair.source.point_indices, pair.target.point_indices
    if len(tgt_ids) == 0:
        return TileOutcome((DisplacementVectorField.empty(),) * len(LEVELS),
                           [], timings)
    sub_src, sub_tgt = source_points[src_ids], target_points[tgt_ids]

    t0 = time.perf_counter()
    (geo_src, part_src), (geo_tgt, part_tgt) = _both_epochs(
        "partition", pid, helper, _partition_epoch, (sub_src, cfg),
        (sub_tgt, cfg))
    t0 = _tick(timings, "partition", t0)

    imp_src, imp_tgt = imported_features or (None, None)
    src_feats, tgt_feats = _both_epochs(
        "coarse", pid, helper, _tile_features,
        (sub_src, geo_src, src_ids, cfg, resolution, imp_src),
        (sub_tgt, geo_tgt, tgt_ids, cfg, resolution, imp_tgt))
    gate = cfg.icp_gate_factor * resolution
    level_fields, reports = [], []
    stage = "coarse"
    try:
        table = _coarse_2d_table(sub_src, sub_tgt, images, cfg)
        for level in LEVELS:
            stage = "coarse"
            src_labels = part_src.labels(level)
            tgt_labels = part_tgt.labels(level)
            m3d = match_patches_3d(
                level,
                aggregate_level_features(src_labels, src_feats),
                aggregate_level_features(tgt_labels, tgt_feats),
                src_feats, tgt_feats, src_labels, tgt_labels,
                sub_src, sub_tgt,
                max_displacement=cfg.max_displacement)
            m2d = match_patches_2d(level, table, src_labels, tgt_labels)
            gated = gate_match_set(
                merge_match_sets(m3d, m2d), sub_src, sub_tgt,
                cfg.max_displacement, min_support=cfg.min_support)
            t0 = _tick(timings, stage, t0)

            stage = "refine"
            kept, reps = refine(gated, sub_src, sub_tgt, cfg.delta1, cfg.delta2)
            reports.extend(reps)
            t0 = _tick(timings, stage, t0)

            stage = "fine"
            fits = []
            for m in kept.matches:
                try:
                    t = estimate_patch_transform(
                        m, sub_src, sub_tgt, gate=gate,
                        max_iter=cfg.icp_max_iter, conv_tol=cfg.icp_conv_tol)
                except DegenerateSupport:
                    continue        # unusable support; the patch stays uncovered
                fits.append((m.source_patch_id, t, m.modality))
            level_fields.append(level_field(
                level, part_src.patches(level), fits, sub_src, src_ids))
            t0 = _tick(timings, stage, t0)
    except DvfError as exc:
        raise _fail(stage, pid, exc) from exc
    return TileOutcome(tuple(level_fields), reports, timings)


# ---------------------------------------------------------------------------
# Full runs


def run_pipeline(source_points, target_points, cfg: PipelineConfig,
                 cameras=None, source_images=None, target_images=None,
                 imported_features=None) -> PipelineResult:
    """Estimate the displacement field from epoch 1 to epoch 2.

    `source_images`/`target_images` are Rasters; they are only consulted
    when `cfg.use_images` is set, and then each epoch's image ids must be
    the camera ids.
    `imported_features`, a (source, target) pair of PointFeatureSets keyed
    by point id, replaces the builtin descriptors when given.
    """
    cfg.validate()
    clouds = {"source": source_points, "target": target_points}
    for epoch, pts in clouds.items():
        try:
            clouds[epoch] = pts = as_points(pts)
        except ValueError as exc:
            raise PipelineError(f"stage 'input', {epoch} points: {exc}") from exc
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        if len(bad):
            raise PipelineError(f"stage 'input', {epoch} points: non-finite "
                                f"coordinate in row {bad[0]}")
    source_points, target_points = clouds["source"], clouds["target"]
    cameras = list(cameras or [])
    if cfg.use_images and not cameras:
        raise ConfigError("image channel enabled but no cameras supplied")
    if imported_features is not None and None in tuple(imported_features):
        raise ConfigError("imported features need a set for both epochs")
    src_rasters = {r.image_id: r for r in (source_images or [])}
    tgt_rasters = {r.image_id: r for r in (target_images or [])}
    if cfg.use_images:
        camera_ids = sorted({c.image_id for c in cameras})
        for epoch, rasters in (("source", src_rasters), ("target", tgt_rasters)):
            if sorted(rasters) != camera_ids:
                raise ConfigError(
                    f"{epoch} image ids {sorted(rasters)} are not the camera "
                    f"ids {camera_ids}")

    timings: dict = {}
    t0 = time.perf_counter()
    try:
        resolutions = {}
        for epoch, pts in clouds.items():
            try:
                res = resolutions[epoch] = mean_scan_resolution(pts)
            except DegenerateInput as exc:
                raise DegenerateInput(f"{epoch} {exc}") from exc
            if res == 0.0:
                raise DegenerateInput(
                    f"{epoch} mean scan resolution is 0: every sampled point "
                    "has an exact duplicate")
        resolution = resolutions["source"]
        # target tiles reach wherever their cell's points may move to
        pairs = tile_pair(source_points, target_points,
                          max_points=cfg.max_points,
                          overlap_margin=cfg.max_displacement)
    except DvfError as exc:
        raise PipelineError(f"stage 'tiling': {exc}") from exc
    t0 = _tick(timings, "tiling", t0)

    # Image pairs are matched on a thread of their own, alongside the tiles;
    # it alone writes `timings` until it is joined. Without images, none.
    matcher = ThreadPoolExecutor(max_workers=1) if cfg.use_images else None
    try:
        tile_images = {} if matcher is None else _start_image_jobs(
            matcher, pairs, source_points, cameras, src_rasters, tgt_rasters,
            cfg, timings)

        def work(pair, helper=None):
            return _process_tile(pair, source_points, target_points, cfg,
                                 resolution, tile_images.get(pair.pair_id, []),
                                 imported_features, helper)

        if cfg.n_workers > 1 and len(pairs) > 1:
            with ThreadPoolExecutor(max_workers=cfg.n_workers) as pool:
                outcomes = list(pool.map(work, pairs))
        else:
            # Leaving the block joins the helper, so a run raises only once
            # the target epoch it was running has ended.
            with ThreadPoolExecutor(max_workers=1) as helper:
                outcomes = [work(pair, helper) for pair in pairs]
    finally:
        if matcher is not None:
            # after an error the pairs not yet started are never matched
            matcher.shutdown(cancel_futures=True)
    for o in outcomes:
        for stage, sec in o.timings.items():
            timings[stage] = timings.get(stage, 0.0) + sec

    t0 = time.perf_counter()
    level_fields = tuple(
        merge_fields([o.level_fields[i] for o in outcomes])
        for i in range(len(LEVELS)))
    merged = integrate_levels(*level_fields)
    reports = [r for o in outcomes for r in o.reports]
    _tick(timings, "integrate", t0)

    from .evaluation import spatial_coverage
    coverage = spatial_coverage(merged, source_points,
                                voxel=cfg.coverage_voxel_factor * resolution)
    return PipelineResult(merged, level_fields, reports, timings, coverage,
                          resolution, tile_pairs=pairs)
