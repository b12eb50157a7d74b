"""Isometry-deviation scoring (MADD) and match filtering."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from dvfusion.coarse import MatchSet, PatchMatch
from dvfusion.config import PipelineConfig
from dvfusion.dvf import MODALITY_3D
from dvfusion.errors import DegenerateInput
from dvfusion.geometry import RigidTransform
from dvfusion import refinement
from dvfusion.refinement import (
    MatchQualityReport,
    distance_deviations,
    dump_quality_reports,
    evaluate_match,
    refine,
)

CFG = PipelineConfig()


def corrs_of(p, q):
    """Paired source and target arrays: row i of one pairs with row i of the
    other."""
    return np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)


def random_rigid(rng):
    return RigidTransform(Rotation.random(random_state=int(rng.integers(2**31))).as_matrix(),
                          rng.uniform(-50, 50, 3))


def match_of(corrs, level=1, sid=0, tid=0):
    """A match whose support pairs row i of both arrays of `corrs`."""
    idx = np.arange(len(corrs[0]))
    return PatchMatch(level, sid, tid, MODALITY_3D, idx, idx)


# ---------------------------------------------------------------------------
# MADD


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_rigid_motion_scores_zero(seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(-10, 10, (rng.integers(2, 40), 3))
    q = random_rigid(rng).apply(p)
    assert distance_deviations(*corrs_of(p, q)).mean() <= 1e-9


def test_hand_worked_three_point_example():
    p = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    q = [(0, 0, 0), (2, 0, 0), (0, 1, 0)]
    expect = (abs(1 - 2) + abs(1 - 1) + abs(np.sqrt(2) - np.sqrt(5))) / 3
    assert abs(distance_deviations(*corrs_of(p, q)).mean() - expect) < 1e-12


def test_uniform_scaling_closed_form():
    rng = np.random.default_rng(3)
    p = rng.uniform(-5, 5, (30, 3))
    for s in (1.5, 2.0, 3.7):
        got = distance_deviations(*corrs_of(p, s * p)).mean()
        from scipy.spatial.distance import pdist
        expect = (s - 1.0) * pdist(p).mean()
        assert abs(got - expect) < 1e-9


def test_single_pair_rejected():
    with pytest.raises(DegenerateInput):
        distance_deviations(*corrs_of([(0, 0, 0)], [(1, 1, 1)]))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_independent_rigid_motions_leave_madd_unchanged(seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(-10, 10, (20, 3))
    q = rng.uniform(-10, 10, (20, 3))
    base = distance_deviations(*corrs_of(p, q)).mean()
    moved = distance_deviations(*corrs_of(random_rigid(rng).apply(p),
                                         random_rigid(rng).apply(q))).mean()
    assert abs(base - moved) < 1e-9


def test_madd_symmetric_under_swap():
    rng = np.random.default_rng(4)
    p = rng.uniform(0, 5, (15, 3))
    q = rng.uniform(0, 5, (15, 3))
    assert abs(distance_deviations(*corrs_of(p, q)).mean()
               - distance_deviations(*corrs_of(q, p)).mean()) < 1e-15


def test_large_support_subsampled_deterministically(monkeypatch):
    rng = np.random.default_rng(5)
    p = rng.uniform(0, 100, (2000, 3))
    q = p + rng.normal(0, 0.1, p.shape)
    c = corrs_of(p, q)
    sub = distance_deviations(*c).mean()
    assert sub == distance_deviations(*c).mean()
    # the subsample estimate stays close to the full computation
    monkeypatch.setattr(refinement, "MAX_SUPPORT_POINTS", 4000)
    full = distance_deviations(*c)
    assert len(full) == 2000 * 1999 // 2
    assert abs(sub - full.mean()) < 0.02


# ---------------------------------------------------------------------------
# Acceptance rule


def test_rigid_support_accepted():
    rng = np.random.default_rng(6)
    p = rng.uniform(-4, 4, (25, 3))
    q = random_rigid(rng).apply(p)
    c = corrs_of(p, q)
    rep = evaluate_match(match_of(c), *c, CFG.delta1, CFG.delta2)
    assert rep.accepted
    assert rep.madd <= 1e-9
    assert rep.pass_fraction == 1.0


def test_madd_above_delta1_rejected():
    # two points, single pair: source distance 1, target distance 2.6
    c = corrs_of([(0, 0, 0), (1, 0, 0)], [(0, 0, 0), (2.6, 0, 0)])
    assert abs(distance_deviations(*c).mean() - 1.6) < 1e-12
    rep = evaluate_match(match_of(c), *c, delta1=1.5, delta2=CFG.delta2)
    assert not rep.accepted


def test_small_mean_but_few_passing_pairs_rejected():
    # duplicated scan points on the four vertices of a regular tetrahedron
    # (side 100 m); the target is scaled so every cross-vertex pair deviates
    # by 1.55 m while coincident pairs deviate by 0. The mean stays under
    # delta1 yet too few individual pairs agree -> rejected by delta2 alone.
    tetra = 100.0 / (2.0 * np.sqrt(2.0)) * np.array(
        [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], dtype=np.float64)
    p = np.repeat(tetra, 2, axis=0)
    q = p * (1.0 + 1.55 / 100.0)
    c = corrs_of(p, q)
    rep = evaluate_match(match_of(c), *c, delta1=1.5, delta2=0.2)

    # independent enumeration of all 28 pair deviations
    devs = [abs(np.linalg.norm(p[i] - p[j]) - np.linalg.norm(q[i] - q[j]))
            for i in range(8) for j in range(i + 1, 8)]
    assert abs(rep.madd - np.mean(devs)) < 1e-12
    assert abs(rep.pass_fraction - np.mean([d < 1.5 for d in devs])) < 1e-12
    assert rep.madd < 1.5                 # mean criterion alone would accept
    assert rep.pass_fraction <= 0.2       # 4 of 28 pairs pass
    assert not rep.accepted


def test_tiny_support_auto_rejected():
    c = corrs_of([(0, 0, 0)], [(0, 0, 0)])
    rep = evaluate_match(match_of(c), *c, CFG.delta1, CFG.delta2)
    assert not rep.accepted
    assert rep.madd == float("inf")


def test_boundary_is_strict():
    # madd exactly delta1 -> rejected (strict <)
    c = corrs_of([(0, 0, 0), (1, 0, 0)], [(0, 0, 0), (2.5, 0, 0)])
    assert abs(distance_deviations(*c).mean() - 1.5) < 1e-12
    assert not evaluate_match(match_of(c), *c, delta1=1.5,
                              delta2=CFG.delta2).accepted


# ---------------------------------------------------------------------------
# refine()


def rigid_matches(rng, n_matches, n_support=15):
    """Rigidly moving supports of one tile: (MatchSet, source, target)."""
    src, tgt, out = [], [], []
    for k in range(n_matches):
        p = rng.uniform(-8, 8, (n_support, 3))
        src.append(p)
        tgt.append(random_rigid(rng).apply(p))
        idx = np.arange(k * n_support, (k + 1) * n_support)
        out.append(PatchMatch(1, k, k, MODALITY_3D, idx, idx))
    return MatchSet(1, out), np.vstack(src), np.vstack(tgt)


def test_all_rigid_set_unchanged():
    ms, src, tgt = rigid_matches(np.random.default_rng(7), 6)
    kept, reports = refine(ms, src, tgt, CFG.delta1, CFG.delta2)
    assert len(kept) == 6
    assert all(r.accepted for r in reports)


def test_shuffled_targets_all_rejected():
    rng = np.random.default_rng(8)
    rejected = 0
    total = 30
    for k in range(total):
        p = rng.uniform(-20, 20, (25, 3))
        q = random_rigid(rng).apply(p)[rng.permutation(25)]
        c = corrs_of(p, q)
        _, reports = refine(MatchSet(1, [match_of(c)]), *c, 1.5, 0.1)
        rejected += not reports[0].accepted
    assert rejected == total


def test_empty_set_refines_to_empty():
    none = np.zeros((0, 3))
    kept, reports = refine(MatchSet(2, []), none, none, CFG.delta1, CFG.delta2)
    assert len(kept) == 0 and reports == []
    assert kept.level == 2


def test_refine_reports_cover_inputs_in_order():
    rng = np.random.default_rng(9)
    ms, src, tgt = rigid_matches(rng, 4)
    # corrupt match 2 by stretching targets
    tgt[ms.matches[2].target_indices] *= 3.0
    kept, reports = refine(ms, src, tgt, CFG.delta1, CFG.delta2)
    assert [r.source_patch_id for r in reports] == [0, 1, 2, 3]
    assert [r.accepted for r in reports] == [True, True, False, True]
    assert [m.source_patch_id for m in kept.matches] == [0, 1, 3]


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_acceptance_monotone_in_delta1(seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(-10, 10, (12, 3))
    q = random_rigid(rng).apply(p) + rng.normal(0, rng.uniform(0, 2), (12, 3))
    c = corrs_of(p, q)
    m = match_of(c)
    decisions = [evaluate_match(m, *c, d1, 0.1).accepted
                 for d1 in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
    # once accepted at some delta1, stays accepted at every larger delta1
    assert decisions == sorted(decisions)


def test_report_dump_round_trip(tmp_path):
    reports = [MatchQualityReport(1, 0, 3, 0.25, 0.9, True),
               MatchQualityReport(2, 5, 1, 2.0, 0.02, False)]
    path = tmp_path / "quality.csv"
    dump_quality_reports(path, reports)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["accepted"] for r in rows] == ["1", "0"]
    assert float(rows[0]["madd"]) == 0.25
    assert rows[1]["source_patch"] == "5"
