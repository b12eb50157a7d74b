"""End-to-end runs: the output contract of `run_pipeline`, thread-count
invariance, the helper thread that runs a tile's target epoch, the image
thread that matches each selected image pair once per run, one neighbourhood
covariance per tile epoch, imported descriptors, located input errors, and
CLI smoke tests."""

import csv
import shutil
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import dvfusion.pipeline
from dvfusion.cli import main
from dvfusion.config import PipelineConfig
from dvfusion.dvf import DisplacementVectorField
from dvfusion.errors import DegenerateInput, DegenerateSupport, PipelineError
from dvfusion.features import RADIUS_FACTOR, pair_histogram_descriptors
from dvfusion.geometry import (NORMAL_NEIGHBOURS, local_covariance_features,
                               mean_scan_resolution)
from dvfusion.io import (COORD_FMT, DVF_FIELDS, PointFeatureSet, load_dvf,
                         load_point_cloud, write_point_features)
from dvfusion.pipeline import LEVELS, run_pipeline
from dvfusion.synth import SynthParams, synth_generate_scene


def tiny_scene(n_points=400, seed=1):
    return synth_generate_scene(
        SynthParams(n_points=n_points, extent=30.0, texture=False), seed=seed)


def assert_same_field(a, b):
    for col in ("point_ids", "positions", "vectors", "levels", "patch_ids",
                "modalities"):
        assert np.array_equal(getattr(a, col), getattr(b, col)), col


def test_output_contract_on_tiny_scene():
    scene = tiny_scene()
    src = scene.source.points
    result = run_pipeline(src, scene.target.points, PipelineConfig())
    ids = result.field.point_ids
    assert len(ids) > 0
    assert np.all(np.diff(ids) > 0)                 # sorted and unique
    assert ids.min() >= 0 and ids.max() < len(src)
    assert np.array_equal(result.field.positions, src[ids])
    assert np.all(np.isfinite(result.field.vectors))
    assert 0.0 < result.coverage <= 1.0


def test_two_workers_give_the_same_field_as_one():
    scene = tiny_scene(n_points=1050, seed=2)
    cfg = PipelineConfig(max_points=1000, n_workers=1)
    one = run_pipeline(scene.source.points, scene.target.points, cfg)
    two = run_pipeline(scene.source.points, scene.target.points,
                       replace(cfg, n_workers=2))
    assert len(one.tile_pairs) == 2
    assert_same_field(one.field, two.field)


def test_each_image_pair_is_matched_once_per_run(monkeypatch):
    scene = synth_generate_scene(
        SynthParams(n_points=1050, extent=30.0, n_images=2,
                    image_width=160, image_height=120), seed=2)
    cfg = PipelineConfig(max_points=1000, use_images=True, top_k_images=2,
                         n_workers=1)
    match_pixels = dvfusion.pipeline.match_pixels
    select = dvfusion.pipeline.select_top_k_images
    matched, selected = [], []

    def counting_match(img_a, img_b, **kwargs):
        matched.append(img_a.image_id)
        return match_pixels(img_a, img_b, **kwargs)

    def recording_select(*args, **kwargs):
        ids = select(*args, **kwargs)
        selected.append(ids)
        return ids

    monkeypatch.setattr(dvfusion.pipeline, "match_pixels", counting_match)
    monkeypatch.setattr(dvfusion.pipeline, "select_top_k_images",
                        recording_select)
    fields = []
    for n_workers in (1, 2):
        matched.clear()
        selected.clear()
        result = run_pipeline(scene.source.points, scene.target.points,
                              replace(cfg, n_workers=n_workers),
                              cameras=scene.cameras,
                              source_images=scene.source_images,
                              target_images=scene.target_images)
        assert len(result.tile_pairs) == 2
        assert len(selected) == 2
        # some image serves both tiles, yet every image is matched once
        assert set(selected[0]) & set(selected[1])
        assert sorted(matched) == sorted(set(selected[0]) | set(selected[1]))
        fields.append(result.field)
    assert_same_field(*fields)


@pytest.mark.parametrize("case", ["one tile", "two tiles", "imported"])
def test_covariance_is_computed_once_per_tile_epoch(monkeypatch, case):
    if case == "two tiles":
        scene = tiny_scene(n_points=1050, seed=2)
        cfg = PipelineConfig(max_points=1000, n_workers=2)
    else:
        scene = tiny_scene()
        cfg = PipelineConfig()
    src, tgt = scene.source.points, scene.target.points
    imported = builtin_feature_sets(src, tgt) if case == "imported" else None

    covariance = dvfusion.pipeline.local_covariance_features
    extract = dvfusion.pipeline.extract_point_features
    computed, described = [], []

    def counting_covariance(points, **kwargs):
        geo = covariance(points, **kwargs)
        computed.append((len(points), geo))
        return geo

    def recording_extract(points, geo, *args, **kwargs):
        described.append(geo)
        return extract(points, geo, *args, **kwargs)

    # every module of the package that could call it
    for name, module in list(sys.modules.items()):
        if (name.startswith("dvfusion.")
                and hasattr(module, "local_covariance_features")):
            monkeypatch.setattr(module, "local_covariance_features",
                                counting_covariance)
    monkeypatch.setattr(dvfusion.pipeline, "extract_point_features",
                        recording_extract)
    result = run_pipeline(src, tgt, cfg, imported_features=imported)

    pairs = result.tile_pairs
    assert len(pairs) == (2 if case == "two tiles" else 1)
    assert sorted(n for n, _ in computed) == sorted(
        len(tile) for p in pairs for tile in (p.source, p.target))
    if case == "imported":
        assert described == []          # only the partition reads it
    else:
        # the descriptors read the very covariance the partition read
        assert sorted(map(id, described)) == sorted(id(g) for _, g in computed)


def image_scene(n_points=400, n_images=2, seed=1):
    return synth_generate_scene(
        SynthParams(n_points=n_points, extent=30.0, n_images=n_images,
                    image_width=160, image_height=120), seed=seed)


def run_on_images(scene, cfg):
    return run_pipeline(scene.source.points, scene.target.points,
                        replace(cfg, use_images=True), cameras=scene.cameras,
                        source_images=scene.source_images,
                        target_images=scene.target_images)


def test_an_image_pair_no_tile_selects_is_never_matched(monkeypatch):
    scene = image_scene()
    match_pixels = dvfusion.pipeline.match_pixels
    select = dvfusion.pipeline.select_top_k_images
    matched, selected = [], []

    def counting_match(img_a, img_b, **kwargs):
        matched.append(img_a.image_id)
        return match_pixels(img_a, img_b, **kwargs)

    def recording_select(*args, **kwargs):
        ids = select(*args, **kwargs)
        selected.extend(ids)
        return ids

    monkeypatch.setattr(dvfusion.pipeline, "match_pixels", counting_match)
    monkeypatch.setattr(dvfusion.pipeline, "select_top_k_images",
                        recording_select)
    result = run_on_images(scene, PipelineConfig(top_k_images=1))
    assert len(result.tile_pairs) == 1 and len(scene.cameras) == 2
    assert len(selected) == 1 and matched == selected


def test_image_matching_overlaps_the_partition(monkeypatch):
    # each side waits for the other to have started: a run that matched the
    # image pairs only after the partition would let the partition's wait
    # time out
    partitioning, matching = threading.Event(), threading.Event()
    waits = {"partition": [], "match": []}
    partition = dvfusion.pipeline.hierarchical_partition
    match_pixels = dvfusion.pipeline.match_pixels

    def waiting_partition(*args, **kwargs):
        partitioning.set()
        waits["partition"].append(matching.wait(timeout=10))
        return partition(*args, **kwargs)

    def waiting_match(img_a, img_b, **kwargs):
        matching.set()
        waits["match"].append(partitioning.wait(timeout=10))
        return match_pixels(img_a, img_b, **kwargs)

    monkeypatch.setattr(dvfusion.pipeline, "hierarchical_partition",
                        waiting_partition)
    monkeypatch.setattr(dvfusion.pipeline, "match_pixels", waiting_match)
    result = run_on_images(image_scene(), PipelineConfig(top_k_images=2))
    assert waits == {"partition": [True, True], "match": [True, True]}
    assert result.timings["images"] > 0


def test_an_image_matcher_error_is_located(monkeypatch):
    def failing_match(img_a, img_b, **kwargs):
        raise DegenerateInput(f"cannot match {img_a.image_id}")

    monkeypatch.setattr(dvfusion.pipeline, "match_pixels", failing_match)
    before = threading.enumerate()
    with pytest.raises(PipelineError,
                       match="stage 'coarse', tile 0: cannot match view"):
        run_on_images(image_scene(), PipelineConfig(top_k_images=2))
    assert threading.enumerate() == before


# ---------------------------------------------------------------------------
# Imported descriptors


def builtin_feature_sets(src, tgt):
    """Builtin descriptors of every point of both clouds, keyed by point id,
    over the radius a run derives from the source resolution."""
    radius = RADIUS_FACTOR * mean_scan_resolution(src)
    sets = []
    for pts in (src, tgt):
        every = np.arange(len(pts))
        geo = local_covariance_features(pts, k=NORMAL_NEIGHBOURS)
        sets.append(PointFeatureSet(
            every, pair_histogram_descriptors(pts, geo, radius, every)))
    return tuple(sets)


def test_imported_builtin_descriptors_give_the_builtin_field():
    scene = tiny_scene()
    src, tgt = scene.source.points, scene.target.points
    builtin = run_pipeline(src, tgt, PipelineConfig())
    (pair,) = builtin.tile_pairs
    # one tile holding both whole clouds: tile context = cloud context
    assert len(pair.source) == len(src) and len(pair.target) == len(tgt)
    imported = run_pipeline(src, tgt, PipelineConfig(),
                            imported_features=builtin_feature_sets(src, tgt))
    assert_same_field(imported.field, builtin.field)
    for a, b in zip(imported.level_fields, builtin.level_fields):
        assert_same_field(a, b)


def holed(feature_set):
    return PointFeatureSet(feature_set.point_indices[::2],
                           feature_set.descriptors[::2])


# When both epochs fail, the source's error is raised, as when the epochs
# ran one after the other.
@pytest.mark.parametrize("holes, epoch, images", [
    pytest.param("source", "source", False, id="source-source"),
    pytest.param("target", "target", False, id="target-target"),
    pytest.param("both", "source", False, id="both-source"),
    pytest.param("source", "source", True, id="source-source-images")])
def test_imported_set_missing_a_sampled_id_is_a_located_error(
        monkeypatch, holes, epoch, images):
    scene = image_scene(n_images=3) if images else tiny_scene()
    src, tgt = scene.source.points, scene.target.points
    src_set, tgt_set = builtin_feature_sets(src, tgt)
    if holes in ("source", "both"):
        src_set = holed(src_set)
    if holes in ("target", "both"):
        tgt_set = holed(tgt_set)
    # The tile's failing lookup waits until the first image pair is being
    # matched, and that match is held for a second past the lookup: the
    # pairs queued behind it must be cancelled, not matched.
    lookup, match_pixels = (dvfusion.pipeline.lookup_descriptors,
                            dvfusion.pipeline.match_pixels)
    matching, looking_up, matched = threading.Event(), threading.Event(), []

    def signalling_lookup(*args, **kwargs):
        if images:
            matching.wait(timeout=10)
        looking_up.set()
        return lookup(*args, **kwargs)

    def held_match(img_a, img_b, **kwargs):
        matched.append(img_a.image_id)
        matching.set()
        looking_up.wait(timeout=10)
        time.sleep(1)
        return match_pixels(img_a, img_b, **kwargs)

    monkeypatch.setattr(dvfusion.pipeline, "lookup_descriptors",
                        signalling_lookup)
    monkeypatch.setattr(dvfusion.pipeline, "match_pixels", held_match)
    cfg = PipelineConfig(use_images=images, top_k_images=3)
    before = threading.enumerate()
    with pytest.raises(PipelineError, match=f"stage 'coarse', tile 0, {epoch} "
                                            "epoch: imported features miss"):
        run_pipeline(src, tgt, cfg, cameras=scene.cameras,
                     source_images=scene.source_images,
                     target_images=scene.target_images,
                     imported_features=(src_set, tgt_set))
    # the helper and image threads are joined before the error leaves the run
    assert threading.enumerate() == before
    assert len(matched) == (1 if images else 0)


def test_epochs_at_once_under_contention():
    # switching threads as often as possible: any state the two epochs of a
    # tile shared would show as a field that changes from run to run
    scene = tiny_scene()
    src, tgt = scene.source.points, scene.target.points
    before = threading.enumerate()
    want = run_pipeline(src, tgt, PipelineConfig())
    assert threading.enumerate() == before      # the helper thread is joined
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [run_pipeline(src, tgt, PipelineConfig()) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for got in runs:
        assert_same_field(got.field, want.field)
        for a, b in zip(got.level_fields, want.level_fields):
            assert_same_field(a, b)


# ---------------------------------------------------------------------------
# Located tile errors


def two_tile_scene():
    """Two tiles of 600 source points, run one after the other."""
    scene = synth_generate_scene(SynthParams(n_points=1200, texture=False),
                                 seed=0)
    return (scene.source.points, scene.target.points,
            PipelineConfig(max_points=1000, n_workers=1))


@pytest.mark.parametrize("epoch", ["source", "target"])
def test_a_partition_error_names_its_epoch(monkeypatch, epoch):
    src, tgt, cfg = two_tile_scene()
    cloud = {"source": src, "target": tgt}[epoch]     # no row in both
    partition = dvfusion.pipeline.hierarchical_partition

    def failing(pts, **kwargs):
        if (cloud == pts[0]).all(axis=1).any():
            raise DegenerateInput("no patch")
        return partition(pts, **kwargs)

    monkeypatch.setattr(dvfusion.pipeline, "hierarchical_partition", failing)
    with pytest.raises(PipelineError, match=f"^stage 'partition', tile 0, "
                                            f"{epoch} epoch: no patch$"):
        run_pipeline(src, tgt, cfg)


def test_a_coarse_error_at_level_2_names_the_coarse_stage(monkeypatch):
    src, tgt, cfg = two_tile_scene()
    match = dvfusion.pipeline.match_patches_3d
    levels = []

    def failing(level, *args, **kwargs):
        levels.append(level)
        if level == 2:
            raise DegenerateInput("no level-2 match")
        return match(level, *args, **kwargs)

    monkeypatch.setattr(dvfusion.pipeline, "match_patches_3d", failing)
    with pytest.raises(PipelineError,
                       match="^stage 'coarse', tile 0: no level-2 match$"):
        run_pipeline(src, tgt, cfg)
    assert levels == [1, 2]


@pytest.mark.parametrize("name, stage", [("refine", "refine"),
                                         ("estimate_patch_transform", "fine")])
def test_refine_and_fit_errors_name_their_stage(monkeypatch, name, stage):
    src, tgt, cfg = two_tile_scene()

    def failing(*args, **kwargs):
        raise DegenerateInput(f"{name} failed")

    monkeypatch.setattr(dvfusion.pipeline, name, failing)
    with pytest.raises(PipelineError,
                       match=f"^stage '{stage}', tile 0: {name} failed$"):
        run_pipeline(src, tgt, cfg)


def test_an_error_in_the_second_tile_names_tile_1(monkeypatch):
    src, tgt, cfg = two_tile_scene()
    refine = dvfusion.pipeline.refine
    tiles = []      # the source points of each tile refined, in order

    def failing_in_tile_1(match_set, sub_src, *args):
        if not any(t is sub_src for t in tiles):
            tiles.append(sub_src)
        if len(tiles) == 2:
            raise DegenerateInput("refine failed")
        return refine(match_set, sub_src, *args)

    monkeypatch.setattr(dvfusion.pipeline, "refine", failing_in_tile_1)
    with pytest.raises(PipelineError,
                       match="^stage 'refine', tile 1: refine failed$"):
        run_pipeline(src, tgt, cfg)


def test_a_degenerate_fit_leaves_its_patch_without_vectors(monkeypatch):
    src, tgt, cfg = two_tile_scene()
    want = run_pipeline(src, tgt, cfg)
    estimate = dvfusion.pipeline.estimate_patch_transform
    dropped = []

    def failing_once(match, *args, **kwargs):
        if match.level == 2 and not dropped:
            dropped.append(match)
            raise DegenerateSupport("collinear support")
        return estimate(match, *args, **kwargs)

    monkeypatch.setattr(dvfusion.pipeline, "estimate_patch_transform",
                        failing_once)
    got = run_pipeline(src, tgt, cfg)
    (match,) = dropped                  # tile 0's first level-2 fit
    level = want.level_fields[match.level - 1]
    lost = ((level.patch_ids == match.source_patch_id)
            & np.isin(level.point_ids, got.tile_pairs[0].source.point_indices))
    assert lost.any()
    kept = DisplacementVectorField(
        level.point_ids[~lost], level.positions[~lost], level.vectors[~lost],
        level.levels[~lost], level.patch_ids[~lost], level.modalities[~lost])
    assert_same_field(got.level_fields[match.level - 1], kept)
    for i in set(range(len(LEVELS))) - {match.level - 1}:
        assert_same_field(got.level_fields[i], want.level_fields[i])


def test_bad_input_shape_is_a_located_error():
    with pytest.raises(PipelineError, match="stage 'input', source points"):
        run_pipeline(np.zeros((5, 2)), np.zeros((5, 3)), PipelineConfig())


@pytest.mark.parametrize("epoch", ["source", "target"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_input_is_a_located_error(epoch, value):
    scene = tiny_scene()
    clouds = {"source": scene.source.points.copy(),
              "target": scene.target.points.copy()}
    clouds[epoch][7, 1] = value
    with pytest.raises(PipelineError, match=f"stage 'input', {epoch} points: "
                                            "non-finite coordinate in row 7"):
        run_pipeline(clouds["source"], clouds["target"], PipelineConfig())


def partial_overlap_scene():
    """Two tiles of 600 source points; the target epoch keeps only its
    points beyond y = 58, so it does not reach tile 0."""
    scene = synth_generate_scene(SynthParams(n_points=1200, texture=False),
                                 seed=0)
    tgt = scene.target.points
    return scene.source.points, tgt[tgt[:, 1] > 58.0]


def test_tile_without_target_points_gives_no_vector():
    src, tgt = partial_overlap_scene()
    cfg = PipelineConfig(max_points=1000, n_workers=1)
    one = run_pipeline(src, tgt, cfg)
    two = run_pipeline(src, tgt, replace(cfg, n_workers=2))
    empty = [p for p in one.tile_pairs if len(p.target) == 0]
    assert len(one.tile_pairs) == 2 and len(empty) == 1
    assert len(one.field) > 0
    assert not np.isin(one.field.point_ids, empty[0].source.point_indices).any()
    assert_same_field(one.field, two.field)


def test_cloud_of_duplicated_points_fails_in_tiling():
    scene = tiny_scene()
    clouds = {"source": scene.source.points, "target": scene.target.points}
    for epoch, pts in clouds.items():
        doubled = {**clouds, epoch: np.repeat(pts, 2, axis=0)}
        with pytest.raises(PipelineError, match=f"stage 'tiling': {epoch} "
                                                "mean scan resolution is 0"):
            run_pipeline(doubled["source"], doubled["target"], PipelineConfig())


@pytest.mark.parametrize("epoch", ["source", "target"])
def test_one_point_cloud_names_its_epoch(epoch):
    scene = tiny_scene()
    clouds = {"source": scene.source.points, "target": scene.target.points}
    clouds[epoch] = clouds[epoch][:1]
    with pytest.raises(PipelineError, match=f"stage 'tiling': {epoch} mean "
                                            "scan resolution needs >= 2 points"):
        run_pipeline(clouds["source"], clouds["target"], PipelineConfig())


def read_column(path, name):
    with open(path, newline="") as fh:
        return [row[name] for row in csv.DictReader(fh)]


def test_cli_synth_run_export_eval(tmp_path):
    scene_dir, run_dir, plots = tmp_path / "scene", tmp_path / "run", tmp_path / "plots"
    assert main(["synth", "--out", str(scene_dir), "--points", "400",
                 "--extent", "30", "--no-texture", "--seed", "1"]) == 0
    assert main(["run", "--source", str(scene_dir / "source.xyz"),
                 "--target", str(scene_dir / "target.xyz"),
                 "--output-dir", str(run_dir)]) == 0
    dvf_csv = run_dir / "dvf.csv"
    assert main(["export-plots", "--dvf", str(dvf_csv), "--out", str(plots)]) == 0
    # the exported ids are the source point ids of the field, not row numbers
    assert read_column(plots / "magnitude.csv", "point_id") == \
        read_column(dvf_csv, "point_id")

    obs = tmp_path / "obs.csv"
    obs.write_text("id,x,y,z,dx,dy,dz\nT1,10,10,0,0.5,0,0\nT2,20,15,0,0,0,0\n")
    assert main(["eval", "--dvf", str(dvf_csv), "--observations", str(obs),
                 "--source", str(scene_dir / "source.xyz"),
                 "--out", str(tmp_path / "eval.csv")]) == 0


def test_cli_eval_coverage_matches_the_run(tmp_path):
    scene_dir, run_dir = tmp_path / "scene", tmp_path / "run"
    assert main(["synth", "--out", str(scene_dir), "--points", "600",
                 "--extent", "30", "--no-texture", "--seed", "0"]) == 0
    source = str(scene_dir / "source.xyz")
    assert main(["run", "--source", source,
                 "--target", str(scene_dir / "target.xyz"),
                 "--output-dir", str(run_dir)]) == 0
    with open(run_dir / "run_summary.csv", newline="") as fh:
        summary = dict(csv.reader(fh))
    obs = tmp_path / "obs.csv"
    obs.write_text("id,x,y,z,dx,dy,dz\nT1,10,10,0,0.5,0,0\n")

    def eval_coverage(*voxel):
        out = tmp_path / "eval.csv"
        assert main(["eval", "--dvf", str(run_dir / "dvf.csv"),
                     "--observations", str(obs), "--source", source,
                     *voxel, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            return next(row[1] for row in csv.reader(fh) if row[0] == "coverage")

    # 0.978378 here; a fixed 1 m voxel reads 0.961340
    assert eval_coverage() == f"{float(summary['coverage']):.6f}"
    assert eval_coverage("--voxel", "1.0") == "0.961340"


def test_cli_eval_on_a_repeated_point_id_exits_1(tmp_path, capsys):
    """It used to end in a ValueError traceback from the field itself."""
    dvf = tmp_path / "dvf.csv"
    dvf.write_text("point_id,x,y,z,dx,dy,dz,level,patch_id,modality\n"
                   "4,0,0,0,1,0,0,3,0,3D\n7,1,0,0,1,0,0,3,0,3D\n"
                   "4,2,0,0,1,0,0,3,1,3D\n")
    obs = tmp_path / "obs.csv"
    obs.write_text("id,x,y,z,dx,dy,dz\nT1,0,0,0,1,0,0\n")
    assert main(["eval", "--dvf", str(dvf), "--observations", str(obs)]) == 1
    assert f"{dvf}:4: repeated point_id 4" in capsys.readouterr().err


def cloud_text(points, fmt, rng):
    """`points` as plain XYZ, as a PLY whose vertices also carry 16-bit
    colour and an intensity, or as XYZRGB with a colour value beyond 8 bits."""
    coords = [" ".join(COORD_FMT % v for v in p) for p in points]
    n = len(coords)
    if fmt == "xyz":
        rows = coords
    elif fmt == "ply":
        rgb = rng.integers(0, 65536, (n, 3))
        rgb[0, 0] = 65535
        rows = ["ply", "format ascii 1.0", f"element vertex {n}",
                *(f"property float {c}" for c in "xyz"),
                *(f"property ushort {c}" for c in ("red", "green", "blue")),
                "property float intensity", "end_header"]
        rows += [f"{c} {r} {g} {b} {i:.3f}"
                 for c, (r, g, b), i in zip(coords, rgb, rng.uniform(0, 1, n))]
    else:
        rows = [f"{coords[0]} 300 0 0"] + [f"{c} 10 20 30" for c in coords[1:]]
    return "\n".join(rows) + "\n"


def test_cli_run_on_non_finite_coordinates_exits_1(tmp_path, capsys):
    scene = tiny_scene()
    src, tgt = tmp_path / "source.xyz", tmp_path / "target.xyz"
    src.write_text(cloud_text(scene.source.points, "xyz", None))
    rows = cloud_text(scene.target.points, "xyz", None).splitlines()
    rows[4] = "1.0 nan 2.0"
    tgt.write_text("\n".join(rows) + "\n")
    assert main(["run", "--source", str(src), "--target", str(tgt),
                 "--output-dir", str(tmp_path / "run")]) == 1
    assert f"{tgt}:5: non-finite coordinate" in capsys.readouterr().err


def test_cli_run_ignores_point_colours(tmp_path):
    """Per-point colours of any range, and other vertex properties, are
    read past: the field equals the one from the bare coordinates."""
    scene = tiny_scene()
    rng = np.random.default_rng(0)
    fields = {}
    for fmt, ext in (("xyz", "xyz"), ("ply", "ply"), ("xyzrgb", "xyz")):
        clouds = []
        for epoch, cloud in (("source", scene.source), ("target", scene.target)):
            path = tmp_path / f"{epoch}_{fmt}.{ext}"
            path.write_text(cloud_text(cloud.points, fmt, rng))
            clouds.append(str(path))
        out = tmp_path / fmt
        assert main(["run", "--source", clouds[0], "--target", clouds[1],
                     "--output-dir", str(out)]) == 0
        fields[fmt] = (out / "dvf.csv").read_text()
    assert len(fields["xyz"].splitlines()) > 1
    assert fields["ply"] == fields["xyz"]
    assert fields["xyzrgb"] == fields["xyz"]


@pytest.mark.parametrize("method, header, rows", [
    ("icp", list(DVF_FIELDS), 400),      # every point gets an estimate here
    ("m3c2", ["core_index", "nx", "ny", "nz", "distance", "valid"], 234),
])
def test_cli_baseline(tmp_path, method, header, rows):
    scene_dir, out = tmp_path / "scene", tmp_path / f"{method}.csv"
    assert main(["synth", "--out", str(scene_dir), "--points", "400",
                 "--extent", "30", "--no-texture", "--seed", "0"]) == 0
    assert main(["baseline", "--method", method,
                 "--source", str(scene_dir / "source.xyz"),
                 "--target", str(scene_dir / "target.xyz"),
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == header
    assert len(table) - 1 == rows


def test_cli_run_on_imported_features(tmp_path):
    scene_dir, run_dir = tmp_path / "scene", tmp_path / "run"
    assert main(["synth", "--out", str(scene_dir), "--points", "400",
                 "--extent", "30", "--no-texture", "--seed", "1"]) == 0
    clouds = [str(scene_dir / f"{epoch}.xyz") for epoch in ("source", "target")]
    feature_sets = builtin_feature_sets(
        *(load_point_cloud(c).points for c in clouds))
    overrides = []
    for epoch, feats in zip(("source", "target"), feature_sets):
        path = tmp_path / f"{epoch}_features.csv"
        write_point_features(path, feats)
        overrides += ["--set", f"{epoch}_features_path={path}"]
    run = ["run", "--source", clouds[0], "--target", clouds[1],
           "--output-dir", str(run_dir)]
    assert main(run + overrides) == 0
    assert len(load_dvf(run_dir / "dvf.csv")) > 0
    # one feature file without the other is a configuration error
    assert main(run + overrides[:2]) == 2
    assert main(run + overrides[2:]) == 2


def test_cli_run_rejects_non_finite_imported_features(tmp_path, capsys):
    scene_dir = tmp_path / "scene"
    assert main(["synth", "--out", str(scene_dir), "--points", "400",
                 "--extent", "30", "--no-texture", "--seed", "1"]) == 0
    paths = {epoch: tmp_path / f"{epoch}_features.csv" for epoch in ("source", "target")}
    paths["source"].write_text("point_index,f1,f2\n0,1,0\n1,nan,1\n")
    paths["target"].write_text("point_index,f1,f2\n0,1,0\n1,0,1\n")
    run = ["run", "--source", str(scene_dir / "source.xyz"),
           "--target", str(scene_dir / "target.xyz"),
           "--output-dir", str(tmp_path / "run")]
    for epoch, path in paths.items():
        run += ["--set", f"{epoch}_features_path={path}"]
    assert main(run) == 1
    assert f"{paths['source']}:3: non-finite descriptor" in capsys.readouterr().err


def image_run_args(scene_dir, run_dir, views):
    """`run` on a synth scene with the image channel on, one image per view
    and epoch."""
    args = ["run", "--source", str(scene_dir / "source.xyz"),
            "--target", str(scene_dir / "target.xyz"),
            "--cameras", str(scene_dir / "cameras.csv"), "--use-images",
            "--output-dir", str(run_dir), "--set", f"top_k_images={len(views)}"]
    for view in views:
        args += ["--source-image", str(scene_dir / "epoch0" / f"{view}.pgm"),
                 "--target-image", str(scene_dir / "epoch1" / f"{view}.pgm")]
    return args


def synth_with_images(scene_dir):
    assert main(["synth", "--out", str(scene_dir), "--points", "600",
                 "--extent", "30", "--images", "2", "--width", "160",
                 "--height", "120", "--seed", "1"]) == 0


def test_cli_run_with_images_matches_every_selected_view(tmp_path, monkeypatch):
    synth_with_images(tmp_path / "scene")
    match_pixels = dvfusion.pipeline.match_pixels
    select = dvfusion.pipeline.select_top_k_images
    matched, selected = [], set()

    def counting_match(img_a, img_b, **kwargs):
        matched.append(img_a.image_id)
        return match_pixels(img_a, img_b, **kwargs)

    def recording_select(*args, **kwargs):
        ids = select(*args, **kwargs)
        selected.update(ids)
        return ids

    monkeypatch.setattr(dvfusion.pipeline, "match_pixels", counting_match)
    monkeypatch.setattr(dvfusion.pipeline, "select_top_k_images",
                        recording_select)
    assert main(image_run_args(tmp_path / "scene", tmp_path / "run",
                               ["view0", "view1"])) == 0
    assert selected and sorted(matched) == sorted(selected)
    assert len(load_dvf(tmp_path / "run" / "dvf.csv")) > 0


def test_cli_image_named_after_no_camera_exits_2(tmp_path, capsys):
    scene_dir = tmp_path / "scene"
    synth_with_images(scene_dir)
    for epoch in ("epoch0", "epoch1"):
        shutil.copy(scene_dir / epoch / "view1.pgm", scene_dir / epoch / "side.pgm")
    assert main(image_run_args(scene_dir, tmp_path / "run",
                               ["view0", "side"])) == 2
    err = capsys.readouterr().err
    assert "'side'" in err and "'view1'" in err
