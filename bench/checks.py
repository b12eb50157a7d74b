"""Output checks, field digests and accuracy against the synthetic ground
truth. Nothing here times anything; it judges what a run produced."""

from __future__ import annotations

import hashlib

import numpy as np

LEVELS = (1, 2, 3)


def field_problems(field, source_points, coverage) -> list:
    """Every way the integrated field breaks the output contract; empty when
    the field is well formed."""
    n = len(source_points)
    ids = field.point_ids
    problems = []
    if len(ids) == 0:
        problems.append("the field holds no vector")
    if len(ids) > 1 and not np.all(np.diff(ids) > 0):
        problems.append("point ids are not unique and sorted")
    if len(ids) and (ids.min() < 0 or ids.max() >= n):
        problems.append(f"point ids leave [0, {n})")
    elif not np.array_equal(field.positions, source_points[ids]):
        problems.append("positions differ from the source points at their ids")
    if not np.all(np.isfinite(field.vectors)):
        problems.append("vectors are not all finite")
    if not 0.0 <= coverage <= 1.0:
        problems.append(f"coverage {coverage} lies outside [0, 1]")
    return problems


def field_digest(field) -> str:
    """SHA-256 over every column of a field, so equal digests mean
    bit-identical output."""
    h = hashlib.sha256()
    for col in (field.point_ids, field.positions, field.vectors, field.levels,
                field.patch_ids, field.modalities):
        h.update(np.ascontiguousarray(col).tobytes())
    return h.hexdigest()


def _errors(field, truth):
    return np.linalg.norm(field.vectors - truth.vectors[field.point_ids], axis=1)


def _moving_mask(scene, ids):
    moving = np.zeros(len(scene.ground_truth), dtype=bool)
    moving[scene.moving_ids] = True
    return moving[ids]


def _filled_errors(field, truth, ids):
    """Error at each of `ids`, a point without a vector in `field` counting
    as estimated at zero motion."""
    est = np.zeros_like(truth.vectors)
    est[field.point_ids] = field.vectors
    return np.linalg.norm(est[ids] - truth.vectors[ids], axis=1)


def _median(values) -> float | None:
    return float(np.median(values)) if len(values) else None


def accuracy(result, scene) -> dict:
    """Error of the integrated field and of each level against ground truth.

    Errors are Euclidean distances in metres between estimated and true
    vectors. The integrated field's errors are over the points it covers.
    A level's error is over every moving point of the scene, a point the
    level gives no vector counting as estimated at zero motion, so it is
    defined even for a level that covers no moving point (level 1 often
    covers none); the integrated gap compares the field with its best level
    on that same footing.
    """
    truth = scene.ground_truth
    field = result.field
    err = _errors(field, truth)
    moving = _moving_mask(scene, field.point_ids)
    out = {
        "median_err_moving_m": _median(err[moving]),
        "p95_err_moving_m": (float(np.percentile(err[moving], 95))
                             if moving.any() else None),
        "median_err_static_m": _median(err[~moving]),
        "moving_samples": int(moving.sum()),
        "static_samples": int((~moving).sum()),
    }
    moving_ids = scene.moving_ids
    per_level = []
    for level, lf in zip(LEVELS, result.level_fields):
        out[f"median_err_moving_l{level}"] = _median(
            _filled_errors(lf, truth, moving_ids))
        out[f"points_covered_l{level}"] = len(lf)
        out[f"integrated_from_l{level}"] = int(np.sum(field.levels == level))
        per_level.append(out[f"median_err_moving_l{level}"])
    # ROADMAP correctness aim: the integrated field should be no worse than
    # its best single level; a positive gap means it is worse.
    integrated = _median(_filled_errors(field, truth, moving_ids))
    out["integrated_gap_m"] = (integrated - min(per_level)
                               if integrated is not None else None)
    return out
