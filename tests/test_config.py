"""Configuration: every key is read by the package, unknown keys are
rejected by name, and a dumped config loads back unchanged."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

import dvfusion
from dvfusion.config import PipelineConfig, dump_config, load_config
from dvfusion.errors import ConfigError


def test_every_config_field_is_read():
    package = Path(dvfusion.__file__).parent
    source = "\n".join(p.read_text() for p in sorted(package.glob("*.py"))
                       if p.name != "config.py")
    unread = [f.name for f in fields(PipelineConfig)
              if not re.search(rf"\bcfg\.{f.name}\b", source)]
    assert unread == []


@pytest.mark.parametrize("key", ["feature_k", "p2p_threshold_factor",
                                 "eval_radius", "observations_path", "seed"])
def test_removed_key_fails_to_load(tmp_path, key):
    path = tmp_path / "old.yaml"
    path.write_text(f"min_patch: 12\n{key}: 1\n")
    with pytest.raises(ConfigError, match=key):
        load_config(path)


def test_dump_then_load_round_trips(tmp_path):
    cfg = PipelineConfig(source_image_paths=("a.pgm", "b.pgm"),
                         lambda_factors=(0.2, 0.7, 3.0), min_patch=25,
                         overlap_margin=4.5, use_images=True,
                         checkpoint_dir="ckpt")
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
