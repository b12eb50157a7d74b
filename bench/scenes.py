"""The benchmark's workloads: one synthetic slope scene per seed, plus the
pipeline configuration that runs it.

Each workload stresses a different layer (see BENCHMARK.json for the reason
behind each); the scene is built from the seed alone, so the program under
test receives only generated points, cameras and images.
"""

from __future__ import annotations

from dataclasses import dataclass

from dvfusion.config import PipelineConfig
from dvfusion.pipeline import run_pipeline
from dvfusion.synth import SynthParams, synth_generate_scene


@dataclass(frozen=True)
class Workload:
    name: str
    params: SynthParams
    config: PipelineConfig

    def scene(self, seed: int):
        return synth_generate_scene(self.params, seed=seed)

    def run(self, scene, config: PipelineConfig | None = None):
        """One pipeline run on a generated scene; `config` overrides the
        workload's own."""
        return run_pipeline(scene.source.points, scene.target.points,
                            config or self.config, cameras=scene.cameras,
                            source_images=scene.source_images,
                            target_images=scene.target_images)


WORKLOADS = {w.name: w for w in (
    # ROADMAP baseline scene: 3D channel only, one tile, one worker.
    Workload("slope20k_3d",
             SynthParams(n_points=20_000, texture=False),
             PipelineConfig()),
    # Image channel on: NCC matching and lifting dominate.
    Workload("slope12k_img",
             SynthParams(n_points=12_000, texture=True, n_images=3),
             PipelineConfig(use_images=True, top_k_images=3)),
    # Same cloud as slope12k_img, cut into two tiles run by two threads.
    # Not in BENCHMARK.json: from seed to seed its wall time spreads wider
    # (interquartile distance 28% of the median) than a regression bound may
    # be. Run it by hand, over many seeds, for tiling and executor changes.
    Workload("slope12k_tiled",
             SynthParams(n_points=12_000, texture=False),
             PipelineConfig(max_points=7_000, n_workers=2)),
)}

