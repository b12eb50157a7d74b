"""Command-line front end.

Subcommands:
    run           estimate a displacement field between two point-cloud epochs
    eval          compare a displacement field against external observations
    synth         generate a synthetic two-epoch scene with known motion
    baseline      run the piecewise-ICP or M3C2 reference method
    export-plots  dump magnitude / azimuth / elevation CSVs for mapping
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import PipelineConfig, apply_overrides, dump_config, load_config
from .errors import ConfigError, DvfError, PipelineError
from .evaluation import (
    baseline_m3c2,
    baseline_piecewise_icp,
    compare_mean_radius,
    compare_nn,
    dump_report,
    format_report,
    spatial_coverage,
)
from .geometry import mean_scan_resolution
from .io import (
    load_cameras,
    load_dvf,
    load_external_observations,
    load_point_cloud,
    load_point_features,
    load_raster,
    write_cameras,
    write_dvf,
    write_point_cloud,
    write_raster,
    write_report,
    write_table,
)
from .pipeline import run_pipeline
from .refinement import dump_quality_reports
from .synth import SynthParams, synth_generate_scene
from .tiling import dump_tile_map


# ---------------------------------------------------------------------------
# Plot-data export


def displacement_angles(vectors):
    """Compass azimuth and elevation of displacement vectors, in degrees.

    Azimuth follows the compass convention: 0 deg = +Y ("north"), increasing
    clockwise, so +X maps to 90 and -Y to 180; range [0, 360). Elevation is
    the angle above the horizontal plane, range [-90, 90]. Zero vectors have
    no direction: both angles come back NaN with the defined flag cleared.
    """
    v = np.asarray(vectors, dtype=np.float64).reshape(-1, 3)
    horiz = np.hypot(v[:, 0], v[:, 1])
    defined = np.linalg.norm(v, axis=1) > 0
    azimuth = np.degrees(np.arctan2(v[:, 0], v[:, 1])) % 360.0
    elevation = np.degrees(np.arctan2(v[:, 2], horiz))
    azimuth[~defined] = np.nan
    elevation[~defined] = np.nan
    return azimuth, elevation, defined


def export_plot_data(dvf, out_dir) -> list:
    """Write per-point magnitude / azimuth / elevation tables for mapping.

    Returns the written paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    magnitude = np.linalg.norm(dvf.vectors, axis=1)
    azimuth, elevation, defined = displacement_angles(dvf.vectors)

    def table(name, header, column):
        path = out_dir / name
        write_table(path, ["point_id", "x", "y", "z", header, "defined"], (
            [int(dvf.point_ids[i]), *(f"{c:.6f}" for c in dvf.positions[i]),
             f"{column[i]:.6f}", int(defined[i])] for i in range(len(dvf))))
        return path

    return [table("magnitude.csv", "magnitude", magnitude),
            table("azimuth.csv", "azimuth_deg", azimuth),
            table("elevation.csv", "elevation_deg", elevation)]


# ---------------------------------------------------------------------------
# Subcommand handlers


def _build_run_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    # Direct flags are taken verbatim; only --set values are parsed as YAML.
    direct = {key: getattr(args, key) for key in
              ("source_path", "target_path", "cameras_path", "output_dir")
              if getattr(args, key, None)}
    if args.source_image:
        direct["source_image_paths"] = tuple(args.source_image)
    if args.target_image:
        direct["target_image_paths"] = tuple(args.target_image)
    if args.use_images:
        direct["use_images"] = True
    cfg = replace(cfg, **direct)
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    return cfg


def _cmd_run(args) -> int:
    cfg = _build_run_config(args)
    cfg.validate()
    if not cfg.source_path or not cfg.target_path:
        raise ConfigError("run needs source_path and target_path")
    source = load_point_cloud(cfg.source_path)
    target = load_point_cloud(cfg.target_path)
    cameras = load_cameras(cfg.cameras_path) if cfg.cameras_path else []
    src_imgs = [load_raster(p) for p in cfg.source_image_paths]
    tgt_imgs = [load_raster(p) for p in cfg.target_image_paths]
    imported = None
    if cfg.source_features_path:     # validate() ensures both or neither
        imported = (load_point_features(cfg.source_features_path),
                    load_point_features(cfg.target_features_path))

    result = run_pipeline(source.points, target.points, cfg,
                          cameras=cameras, source_images=src_imgs,
                          target_images=tgt_imgs, imported_features=imported)

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_dvf(out / "dvf.csv", result.field)
    dump_quality_reports(out / "quality_reports.csv", result.reports)
    dump_tile_map(out / "tile_map.csv", result.tile_pairs)
    write_report(out / "run_summary.csv", result.summary())
    dump_config(out / "config_used.yaml", cfg)
    for stage, seconds in sorted(result.timings.items()):
        print(f"{stage:>10}: {seconds:7.2f} s")
    print(f"estimates : {len(result.field)} / {len(source.points)} points")
    print(f"coverage  : {100.0 * result.coverage:.1f}%")
    print(f"outputs   : {out}")
    return 0


def _cmd_eval(args) -> int:
    dvf = load_dvf(args.dvf)
    observations = load_external_observations(args.observations)
    if args.mode == "nn":
        report = compare_nn(dvf, observations, max_dist=args.max_dist)
    else:
        report = compare_mean_radius(dvf, observations, radius=args.radius)
    if args.source:
        cloud = load_point_cloud(args.source)
        voxel = args.voxel
        if voxel is None:   # the voxel `run` measures its coverage with
            voxel = (PipelineConfig().coverage_voxel_factor
                     * mean_scan_resolution(cloud.points))
        report.coverage = spatial_coverage(dvf, cloud.points, voxel)
    if args.out:
        dump_report(args.out, report)
    print(format_report(report))
    return 0


def _cmd_synth(args) -> int:
    params = SynthParams(
        extent=args.extent, n_points=args.points, n_bodies=args.bodies,
        motion_scale=args.motion_scale, noise_sigma=args.noise,
        texture=not args.no_texture, n_images=args.images,
        image_width=args.width, image_height=args.height)
    try:
        params.validate()
    except DvfError as exc:
        raise ConfigError(str(exc)) from exc
    scene = synth_generate_scene(params, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_point_cloud(out / "source.xyz", scene.source)
    write_point_cloud(out / "target.xyz", scene.target)
    write_dvf(out / "truth_dvf.csv", scene.ground_truth)
    if scene.cameras:
        write_cameras(out / "cameras.csv", scene.cameras)
        # `run` takes an image's id from its file stem
        for epoch, rasters in (("epoch0", scene.source_images),
                               ("epoch1", scene.target_images)):
            (out / epoch).mkdir(exist_ok=True)
            for raster in rasters:
                write_raster(out / epoch / f"{raster.image_id}.pgm", raster)
    moving = scene.moving_ids.size
    print(f"scene written to {out} "
          f"({params.n_points} points, {len(scene.bodies)} bodies, "
          f"{moving} moving points, seed {args.seed})")
    return 0


def _cmd_baseline(args) -> int:
    source = load_point_cloud(args.source)
    target = load_point_cloud(args.target)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.method == "icp":
        dvf = baseline_piecewise_icp(source.points, target.points,
                                     tile_size=args.tile_size)
        write_dvf(out, dvf)
        mags = np.linalg.norm(dvf.vectors, axis=1)
        print(f"piecewise ICP: {len(dvf)} estimates, "
              f"median |d| = {np.median(mags):.3f}")
    else:
        res = baseline_m3c2(source.points, target.points,
                            normal_radius=args.normal_radius,
                            cylinder_radius=args.cylinder_radius,
                            max_depth=args.max_depth)
        write_table(out, ["core_index", "nx", "ny", "nz", "distance", "valid"], (
            [int(core), *(f"{c:.6f}" for c in res.normals[i]),
             f"{res.distances[i]:.6f}", int(res.valid[i])]
            for i, core in enumerate(res.core_indices)))
        got = res.distances[res.valid]
        mean = float(np.abs(got).mean()) if got.size else float("nan")
        print(f"M3C2: {res.valid.sum()}/{len(res.core_indices)} cores valid, "
              f"mean |distance| = {mean:.3f}")
    print(f"written {out}")
    return 0


def _cmd_export_plots(args) -> int:
    dvf = load_dvf(args.dvf)
    if len(dvf) == 0:
        raise ConfigError("cannot export plot data for an empty field")
    for path in export_plot_data(dvf, args.out):
        print(f"written {path}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvfusion",
        description="Displacement vector fields from bi-temporal point "
                    "clouds, fusing 3D feature and image correspondences.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the full estimation pipeline")
    p.add_argument("--config", help="YAML config file")
    p.add_argument("--source", dest="source_path", help="epoch-1 cloud")
    p.add_argument("--target", dest="target_path", help="epoch-2 cloud")
    p.add_argument("--cameras", dest="cameras_path", help="camera CSV")
    p.add_argument("--source-image", action="append", default=[],
                   metavar="PGM", help="epoch-1 image (repeatable; "
                   "file stem must equal the camera image_id)")
    p.add_argument("--target-image", action="append", default=[],
                   metavar="PGM", help="epoch-2 image (repeatable)")
    p.add_argument("--use-images", action="store_true",
                   help="enable the image matching channel")
    p.add_argument("--output-dir", dest="output_dir", help="output directory")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config key (repeatable)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="compare a field against observations")
    p.add_argument("--dvf", required=True, help="estimated field CSV")
    p.add_argument("--observations", required=True,
                   help="external observations CSV")
    p.add_argument("--mode", choices=("nn", "mean"), default="nn")
    p.add_argument("--radius", type=float, default=15.0,
                   help="averaging radius for --mode mean (m)")
    p.add_argument("--max-dist", type=float, default=float("inf"),
                   help="reject NN estimates farther than this (m)")
    p.add_argument("--source", help="source cloud, enables coverage")
    p.add_argument("--voxel", type=float,
                   help="coverage voxel size (m); default: "
                        "coverage_voxel_factor x the source's mean scan "
                        "resolution, as `run` uses")
    p.add_argument("--out", help="write the comparison table here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic test scene")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--extent", type=float, default=100.0)
    p.add_argument("--points", type=int, default=20000)
    p.add_argument("--bodies", type=int, default=4)
    p.add_argument("--motion-scale", type=float, default=2.0)
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--images", type=int, default=2)
    p.add_argument("--width", type=int, default=320)
    p.add_argument("--height", type=int, default=240)
    p.add_argument("--no-texture", action="store_true",
                   help="skip texture hashing and image rendering")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("baseline", help="run a reference method")
    p.add_argument("--method", choices=("icp", "m3c2"), required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--tile-size", type=float, default=10.0,
                   help="icp: square tile edge (m)")
    p.add_argument("--normal-radius", type=float, default=1.5,
                   help="m3c2: normal estimation radius (m)")
    p.add_argument("--cylinder-radius", type=float, default=1.0,
                   help="m3c2: projection cylinder radius (m)")
    p.add_argument("--max-depth", type=float, default=10.0,
                   help="m3c2: cylinder half-depth (m)")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("export-plots",
                       help="per-point magnitude/azimuth/elevation CSVs")
    p.add_argument("--dvf", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_export_plots)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 1
    except DvfError as exc:
        print(f"error ({args.command}): {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
