"""Configuration: every key is read by the package, unknown keys are
rejected by name, values are checked rather than cast, a dumped config
loads back unchanged, and no stage function has a default of its own for
a setting the config feeds it."""

import inspect
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

import dvfusion
from dvfusion import (coarse, evaluation, features, fine, imaging, partition,
                      refinement, tiling)
from dvfusion.config import (
    PipelineConfig,
    apply_overrides,
    dump_config,
    load_config,
)
from dvfusion.errors import ConfigError


def test_every_config_field_is_read():
    package = Path(dvfusion.__file__).parent
    source = "\n".join(p.read_text() for p in sorted(package.glob("*.py"))
                       if p.name != "config.py")
    unread = [f.name for f in fields(PipelineConfig)
              if not re.search(rf"\bcfg\.{f.name}\b", source)]
    assert unread == []


@pytest.mark.parametrize("key", ["feature_k", "p2p_threshold_factor",
                                 "eval_radius", "observations_path", "seed",
                                 "overlap_margin", "feature_provider",
                                 "checkpoint_dir"])
def test_removed_key_fails_to_load(tmp_path, key):
    path = tmp_path / "old.yaml"
    path.write_text(f"min_patch: 12\n{key}: 1\n")
    with pytest.raises(ConfigError, match=key):
        load_config(path)


def test_cli_run_with_a_removed_key_exits_2(capsys):
    from dvfusion.cli import main

    assert main(["run", "--source", "a.xyz", "--target", "b.xyz",
                 "--set", "checkpoint_dir=x"]) == 2
    assert "checkpoint_dir" in capsys.readouterr().err


def test_dump_then_load_round_trips(tmp_path):
    cfg = PipelineConfig(source_image_paths=("a.pgm", "b.pgm"),
                         lambda_factors=(0.2, 0.7, 3.0), min_patch=25,
                         max_displacement=4.5, use_images=True,
                         cameras_path="cams #1.csv")
    path = tmp_path / "cfg.yaml"
    dump_config(path, cfg)
    assert load_config(path) == cfg


def test_direct_run_flags_are_taken_verbatim():
    """Paths and switches given as flags are not parsed as YAML; only --set
    values are."""
    from dvfusion.cli import _build_run_config, build_parser

    args = build_parser().parse_args([
        "run", "--source", "epoch: 1.xyz", "--target", "on",
        "--cameras", "[cams].csv", "--output-dir", "run #2",
        "--source-image", "a,b.pgm", "--target-image", "x.pgm",
        "--target-image", "null", "--use-images", "--set", "min_patch=25"])
    cfg = _build_run_config(args)
    assert cfg.source_path == "epoch: 1.xyz"
    assert cfg.target_path == "on"
    assert cfg.cameras_path == "[cams].csv"
    assert cfg.output_dir == "run #2"
    assert cfg.source_image_paths == ("a,b.pgm",)
    assert cfg.target_image_paths == ("x.pgm", "null")
    assert cfg.use_images is True
    assert cfg.min_patch == 25


@pytest.mark.parametrize("pair", ["min_patch=3.7", "icp_max_iter=true",
                                  "delta1=true", "max_displacement=no",
                                  "lambda_factors=[0.1, true, 2]",
                                  "lambda_factors=[0.1, x, 2]",
                                  "source_image_paths=[1, null]",
                                  "target_image_paths=[a.pgm, 2]"])
def test_override_of_the_wrong_type_fails_by_name(pair):
    key = pair.partition("=")[0]
    with pytest.raises(ConfigError, match=key):
        apply_overrides(PipelineConfig(), [pair])


def test_values_are_checked_not_cast(tmp_path):
    cfg = apply_overrides(PipelineConfig(), [
        "min_patch=12.0", "delta1=2", "icp_conv_tol=1e-7",
        "output_dir=on", "cameras_path=ck #2"])
    assert cfg.min_patch == 12 and type(cfg.min_patch) is int
    assert cfg.delta1 == 2.0 and type(cfg.delta1) is float
    assert cfg.icp_conv_tol == 1e-7
    # string keys take the --set text verbatim, as the direct flags do
    assert cfg.output_dir == "on"
    assert cfg.cameras_path == "ck #2"
    for text in ("min_patch: 3.7\n", "output_dir: on\n", "n_workers: true\n"):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=text.partition(":")[0]):
            load_config(path)


NON_FINITE_OR_QUOTED = ["delta1=nan", "voxel_factor=.nan",
                        "max_displacement=.inf", "icp_gate_factor=-.inf",
                        'min_conf="0.7"', "lambda_factors=[0.1, 0.5, .inf]"]


@pytest.mark.parametrize("pair", NON_FINITE_OR_QUOTED)
def test_override_of_a_non_finite_or_quoted_number_fails_by_name(pair):
    key = pair.partition("=")[0]
    with pytest.raises(ConfigError, match=key):
        apply_overrides(PipelineConfig(), [pair])


@pytest.mark.parametrize("pair", NON_FINITE_OR_QUOTED)
def test_config_file_with_a_non_finite_or_quoted_number_fails_by_name(
        tmp_path, pair):
    key, _, value = pair.partition("=")
    path = tmp_path / "bad.yaml"
    path.write_text(f"{key}: {value}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(path)


@pytest.mark.parametrize("key, value", [
    ("delta1", float("nan")), ("voxel_factor", float("nan")),
    ("max_displacement", float("inf")), ("min_conf", "0.7"),
    ("lambda_factors", (0.1, 0.5, float("inf")))])
def test_validate_rejects_a_non_finite_or_string_number(key, value):
    with pytest.raises(ConfigError, match=key):
        replace(PipelineConfig(), **{key: value}).validate()


def load_one(tmp_path, via, key, text):
    """Read one `key: text` setting from a YAML file or through --set."""
    if via == "set":
        return apply_overrides(PipelineConfig(), [f"{key}={text}"])
    path = tmp_path / "cfg.yaml"
    path.write_text(f"{key}: {text}\n")
    return load_config(path)


@pytest.mark.parametrize("via", ["file", "set"])
@pytest.mark.parametrize("text", ['"1"', '"yes"', '"off"'])
def test_quoted_boolean_fails_by_name(tmp_path, via, text):
    with pytest.raises(ConfigError, match="use_images"):
        load_one(tmp_path, via, "use_images", text)


@pytest.mark.parametrize("via", ["file", "set"])
@pytest.mark.parametrize("text, want", [("true", True), ("yes", True),
                                        ("off", False)])
def test_yaml_booleans_load(tmp_path, via, text, want):
    assert load_one(tmp_path, via, "use_images", text).use_images is want


def test_exponent_numbers_load_from_a_config_file(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("icp_conv_tol: 1e-7\nlambda_factors: [1e-1, 5E-1, 2]\n")
    cfg = load_config(path)
    assert cfg.icp_conv_tol == 1e-7
    assert cfg.lambda_factors == (0.1, 0.5, 2)


def test_madd_threshold_ranges():
    PipelineConfig(delta1=1e-9, delta2=0.0).validate()
    PipelineConfig(delta2=0.999).validate()
    for key, value in (("delta1", 0.0), ("delta1", -1.0), ("delta2", -0.1),
                       ("delta2", 1.0)):
        with pytest.raises(ConfigError, match=key):
            replace(PipelineConfig(), **{key: value}).validate()


INTEGER_FLOORS = (("k_adj", 3), ("ncc_stride", 1), ("ncc_template_radius", 1),
                  ("ncc_search_window", 0))


@pytest.mark.parametrize("key, low", INTEGER_FLOORS)
def test_integer_settings_below_their_floor_fail_by_name(key, low):
    replace(PipelineConfig(), **{key: low}).validate()
    with pytest.raises(ConfigError, match=f"{key} must be >= {low}"):
        replace(PipelineConfig(), **{key: low - 1}).validate()


@pytest.mark.parametrize("key, low", INTEGER_FLOORS)
def test_cli_run_with_a_setting_below_its_floor_exits_2(capsys, key, low):
    from dvfusion.cli import main

    # the config is checked before any input is read
    assert main(["run", "--source", "a.xyz", "--target", "b.xyz",
                 "--set", f"{key}={low - 1}"]) == 2
    assert key in capsys.readouterr().err


def test_feature_files_go_together():
    PipelineConfig(source_features_path="a.csv",
                   target_features_path="b.csv").validate()
    with pytest.raises(ConfigError, match="source_features_path"):
        PipelineConfig(source_features_path="a.csv").validate()


# The stage functions a run calls, with the parameters its config feeds them.
CONFIG_FED = (
    (tiling.tile_pair, ("max_points", "overlap_margin")),
    (partition.hierarchical_partition, ("lambda_factors", "min_patch", "k_adj")),
    (partition.build_adjacency_graph, ("k_adj",)),
    (partition.filter_small_patches, ("min_patch",)),
    (features.adaptive_downsample, ("voxel_factor",)),
    (imaging.select_top_k_images, ("k",)),
    (imaging.match_pixels, ("stride", "template_radius", "search_window",
                            "min_conf")),
    (coarse.lift_matches, ("r_px",)),
    (coarse.filter_by_max_displacement, ("d_max",)),
    (coarse.match_patches_3d, ("max_displacement",)),
    (coarse.gate_match_set, ("d_max", "min_support")),
    (refinement.refine, ("delta1", "delta2")),
    (refinement.evaluate_match, ("delta1", "delta2")),
    (fine.estimate_patch_transform, ("gate", "max_iter", "conv_tol")),
    (evaluation.spatial_coverage, ("voxel",)),
)


# The evaluation and baseline functions the CLI calls, with the parameters
# its options feed them.
CLI_FED = (
    (evaluation.compare_nn, ("max_dist",)),
    (evaluation.compare_mean_radius, ("radius",)),
    (evaluation.baseline_piecewise_icp, ("tile_size",)),
    (evaluation.baseline_m3c2, ("normal_radius", "cylinder_radius",
                                "max_depth")),
)


def test_no_stage_function_defaults_a_config_setting():
    defaulted = [f"{fn.__module__}.{fn.__name__}({name})"
                 for fn, names in CONFIG_FED + CLI_FED for name in names
                 if inspect.signature(fn).parameters[name].default
                 is not inspect.Parameter.empty]
    assert defaulted == []
