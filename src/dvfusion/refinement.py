"""Match quality control by isometry preservation.

A correct patch match relates two samplings of the same (rigidly moving)
surface, so pairwise point distances must agree between the epochs. The mean
absolute distance deviation over all support pairs (MADD) measures how far a
match is from that ideal; matches are kept only when the mean is small *and*
most individual pairs agree, which guards against a few wild pairs hiding
behind a small mean or vice versa. A support is index pairs into the tile,
so scoring looks its coordinates up in the tile's points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .coarse import MatchSet, PatchMatch
from .errors import DegenerateInput
from .io import write_table

# Support caps: scoring is O(N^2) in the support size, so very dense supports
# are subsampled (fixed seed keeps every evaluation reproducible).
MAX_SUPPORT_POINTS = 512
_SUBSAMPLE_SEED = 20


@dataclass
class MatchQualityReport:
    level: int
    source_patch_id: int
    target_patch_id: int
    madd: float
    pass_fraction: float
    accepted: bool


def distance_deviations(p, q) -> np.ndarray:
    """| ||p_i - p_j|| - ||q_i - q_j|| | over all unordered pairs of rows of
    the paired (N, 3) arrays `p` and `q`.

    Their mean, the MADD, is zero exactly when the support moves rigidly and
    grows with stretch, shear or mismatched points.
    """
    if len(p) < 2:
        raise DegenerateInput(f"need at least 2 correspondences, got {len(p)}")
    if len(p) > MAX_SUPPORT_POINTS:
        keep = np.random.default_rng(_SUBSAMPLE_SEED).choice(
            len(p), size=MAX_SUPPORT_POINTS, replace=False)
        p, q = p[keep], q[keep]
    return np.abs(pdist(p) - pdist(q))


def evaluate_match(match: PatchMatch, src_points, tgt_points, delta1: float,
                   delta2: float) -> MatchQualityReport:
    """Score one match, whose support indexes the tile's `src_points` and
    `tgt_points`. It passes when its MADD is below `delta1` metres and more
    than a `delta2` fraction of its pair deviations are; supports smaller
    than 2 pairs are auto-rejected."""
    if len(match) < 2:
        return MatchQualityReport(match.level, match.source_patch_id,
                                  match.target_patch_id, float("inf"), 0.0, False)
    dev = distance_deviations(src_points[match.source_indices],
                              tgt_points[match.target_indices])
    score = float(dev.mean())
    frac = float((dev < delta1).mean())
    accepted = score < delta1 and frac > delta2
    return MatchQualityReport(match.level, match.source_patch_id,
                              match.target_patch_id, score, frac, accepted)


def refine(matches: MatchSet, src_points, tgt_points, delta1: float,
           delta2: float):
    """Keep only matches passing the thresholds of `evaluate_match`.

    Returns the filtered MatchSet plus one report per *input* match, in
    input order.
    """
    reports = [evaluate_match(m, src_points, tgt_points, delta1, delta2)
               for m in matches.matches]
    kept = [m for m, r in zip(matches.matches, reports) if r.accepted]
    return MatchSet(matches.level, kept), reports


def dump_quality_reports(path, reports) -> None:
    """CSV: level, source_patch, target_patch, madd, pass_fraction, accepted."""
    write_table(path, ["level", "source_patch", "target_patch",
                       "madd", "pass_fraction", "accepted"],
                ([r.level, r.source_patch_id, r.target_patch_id,
                  f"{r.madd:.6f}", f"{r.pass_fraction:.6f}", int(r.accepted)]
                 for r in reports))
