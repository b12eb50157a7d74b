"""Self-test of the benchmark: tiny scenes through the untraced and the
traced mode, checked against the metrics BENCHMARK.json declares.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

import run

run._import_program()

import dvfusion.imaging  # noqa: E402
import dvfusion.pipeline  # noqa: E402
import scenes  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _shrunk(name, n_points, **config):
    w = scenes.WORKLOADS[name]
    return replace(w, params=replace(w.params, n_points=n_points),
                   config=replace(w.config, **config))


# Small enough to run in seconds; the tiled one still cuts into two tiles.
TINY = {
    "slope20k_3d": _shrunk("slope20k_3d", 2_000),
    "slope12k_img": _shrunk("slope12k_img", 2_000),
    "slope12k_tiled": _shrunk("slope12k_tiled", 2_600, max_points=1_500),
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(scenes, "WORKLOADS", TINY)


def _run(capsys, *args):
    """The printed table and the parsed JSON result of one benchmark run."""
    assert run.main(["--seconds", "0", *args]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1], parse_constant=_reject)


def _reject(constant):
    raise AssertionError(f"{constant} in the result line is not JSON")


def _result(capsys, *args):
    return _run(capsys, *args)[1]


def _assert_declared(metrics, declared):
    assert set(metrics) == {m["name"] for m in declared}
    for m in declared:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
        assert metrics[m["name"]]["unit"] == m["unit"]


def test_spec_names_workloads_the_benchmark_runs():
    assert {w["name"] for w in SPEC["workloads"]} <= set(scenes.WORKLOADS)
    assert SPEC["paths"] == ["bench"]


@pytest.mark.parametrize("workload", ["slope12k_img", "slope12k_tiled"])
def test_untraced_run_emits_every_end_to_end_metric(tiny, capsys, workload):
    out = _result(capsys, "--workload", workload, "--trace", "0")
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == 2
    _assert_declared(out["metrics"], SPEC["end_to_end"])
    for m in out["metrics"].values():
        assert isinstance(m["value"], float) and m["value"] > 0


@pytest.mark.parametrize("workload", ["slope12k_img", "slope12k_tiled"])
def test_traced_run_emits_every_per_layer_metric(tiny, capsys, workload):
    table, out = _run(capsys, "--workload", workload, "--trace", "1")
    # untraced + traced, plus the n_workers=1 rerun on the threaded workload;
    # all must give the same field digest, else a run counts as failed
    assert out["attempted"] == (3 if workload == "slope12k_tiled" else 2)
    assert out["correct"] and out["failed"] == 0
    _assert_declared(out["metrics"], SPEC["per_layer"])
    # Every hook is found, so every metric is measured.
    assert not any("not measured" in row for row in table)
    for l in (1, 2, 3):
        assert out["metrics"][f"fine.median_err_moving_l{l}"]["value"] > 0
    assert dvfusion.pipeline.match_pixels is dvfusion.imaging.match_pixels


def test_trace_spans_agree_with_pipeline_timings_on_one_tile(tiny, capsys):
    m = _result(capsys, "--workload", "slope20k_3d", "--trace", "1")["metrics"]
    assert m["tiling.n_tiles"]["value"] == 1
    # One tile, one thread: the stage clock and the spans measure the same
    # work, apart from orchestration between the hooked calls.
    assert 0.5 < m["pipeline.timings_over_wall"]["value"] <= 1.0
    assert abs(m["pipeline.stage_timing_gap_s"]["value"]) < 0.1
    assert m["partition.cut_pursuit_l1_s"]["value"] > 0
    assert m["partition.vertices_l1"]["value"] == 2 * 2_000


def test_missing_hook_is_reported_not_fatal(tiny, capsys, monkeypatch):
    # The 3D-only workload never calls the image matcher, so removing it
    # leaves the run intact and only its metrics missing.
    monkeypatch.delattr(dvfusion.pipeline, "match_pixels")
    table, out = _run(capsys, "--workload", "slope20k_3d", "--trace", "1")
    assert out["correct"]
    m = out["metrics"]
    assert m["imaging.match_pixels_s"]["value"] == 0.0
    row = next(r for r in table if r.split()[0] == "imaging.match_pixels_s")
    assert "missing: hook dvfusion.pipeline.match_pixels not found" in row
    assert "imaging.match_pixels_s" in table[-1].split("reported as 0: ")[1]
    assert m["partition.hierarchical_partition_s"]["value"] > 0
    assert not hasattr(dvfusion.pipeline, "match_pixels")
