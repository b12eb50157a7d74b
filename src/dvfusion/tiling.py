"""Spatial tiling: split a source/target cloud pair into corresponding tiles
bounded in source point count, by recursive bisection of the joint footprint.

Tiles live in a 2D projection plane (one axis dropped). Source cells are a
disjoint exact cover of the source cloud; each target tile additionally takes
an overlap margin ring so displaced counterparts stay inside the pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidParams
from .io import write_table

MIN_MAX_POINTS = 1000

# Columns of the 3D array that survive when an axis is dropped.
_KEPT_COLS = {"X": (1, 2), "Y": (0, 2), "Z": (0, 1)}
_AXIS_PRIORITY = ("Z", "Y", "X")  # tie rule: prefer plan view


@dataclass
class Tile:
    bounds2d: np.ndarray          # [[u0, v0], [u1, v1]] in the projection plane
    point_indices: np.ndarray     # ids into the parent cloud
    projection_axis: str          # dropped axis: "X" | "Y" | "Z"

    def __post_init__(self):
        self.bounds2d = np.asarray(self.bounds2d, dtype=np.float64).reshape(2, 2)
        self.point_indices = np.asarray(self.point_indices, dtype=np.int64).reshape(-1)
        if self.projection_axis not in _KEPT_COLS:
            raise ValueError(f"projection_axis must be X/Y/Z, got {self.projection_axis!r}")

    def __len__(self) -> int:
        return len(self.point_indices)


@dataclass
class TilePair:
    source: Tile
    target: Tile
    pair_id: int


def project_2d(points: np.ndarray, axis: str) -> np.ndarray:
    """Drop one coordinate axis; returns (N, 2)."""
    return points[:, _KEPT_COLS[axis]]


def select_projection_axis(source_points, target_points) -> str:
    """Dropped axis whose 2D footprint of both clouds has the largest area.

    Exact ties are broken Z > Y > X so flat scenes tile in plan view.
    """
    pts = np.vstack([np.asarray(source_points, dtype=np.float64).reshape(-1, 3),
                     np.asarray(target_points, dtype=np.float64).reshape(-1, 3)])
    if len(pts) == 0:
        raise DegenerateInput("cannot pick a projection axis for empty clouds")
    ext = pts.max(axis=0) - pts.min(axis=0)
    area = {axis: ext[c0] * ext[c1] for axis, (c0, c1) in _KEPT_COLS.items()}
    best = max(area.values())
    for axis in _AXIS_PRIORITY:
        if area[axis] == best:
            return axis
    raise AssertionError("unreachable")


def tile_pair(source_points, target_points, max_points: int,
              overlap_margin: float) -> list[TilePair]:
    """Recursively bisect the joint 2D bounding box until every cell holds
    fewer than `max_points` source points.

    Cells split along their longer edge at the median of the contained source
    points, so the recursion is balanced regardless of density. Each leaf
    yields a TilePair: source = points in the cell (disjoint exact cover),
    target = points in the cell dilated by `overlap_margin` on every side.
    """
    src = np.asarray(source_points, dtype=np.float64).reshape(-1, 3)
    tgt = np.asarray(target_points, dtype=np.float64).reshape(-1, 3)
    if len(src) == 0 or len(tgt) == 0:
        raise DegenerateInput("tiling requires non-empty source and target clouds")
    if max_points < MIN_MAX_POINTS:
        raise InvalidParams(f"max_points must be >= {MIN_MAX_POINTS}, got {max_points}")
    if overlap_margin < 0:
        raise InvalidParams(f"overlap_margin must be >= 0, got {overlap_margin}")
    axis = select_projection_axis(src, tgt)

    src2 = project_2d(src, axis)
    tgt2 = project_2d(tgt, axis)
    # Cells tile the source footprint; target points beyond cell + margin are
    # unreachable under the assumed maximum displacement and stay out.
    lo = src2.min(axis=0)
    hi = src2.max(axis=0)

    leaves: list[tuple[np.ndarray, np.ndarray]] = []    # (bounds, source ids)

    def split(ids: np.ndarray, bounds: np.ndarray) -> None:
        if len(ids) < max_points:
            leaves.append((bounds, ids))
            return
        edge = bounds[1] - bounds[0]
        for dim in np.argsort(-edge):       # longer edge first, fall back if degenerate
            coords = src2[ids, dim]
            m = float(np.median(coords))
            left = coords < m
            if left.any() and (~left).any():
                b_left = bounds.copy()
                b_left[1, dim] = m
                b_right = bounds.copy()
                b_right[0, dim] = m
                split(ids[left], b_left)
                split(ids[~left], b_right)
                return
        # All contained points coincide in the plane; keep as oversized leaf.
        leaves.append((bounds, ids))

    split(np.arange(len(src)), np.stack([lo, hi]))

    pairs = []
    for pair_id, (bounds, ids) in enumerate(leaves):
        dlo = bounds[0] - overlap_margin
        dhi = bounds[1] + overlap_margin
        inside = np.all((tgt2 >= dlo) & (tgt2 <= dhi), axis=1)
        pairs.append(TilePair(
            source=Tile(bounds, ids, axis),
            target=Tile(bounds, np.flatnonzero(inside), axis),
            pair_id=pair_id))
    return pairs


def dump_tile_map(path, pairs: list[TilePair]) -> None:
    """Debug CSV: one row per pair with bounds and point counts."""
    write_table(path, ["pair_id", "axis", "u0", "v0", "u1", "v1", "n_source",
                       "n_target"],
                ([p.pair_id, p.source.projection_axis,
                  *("%.6f" % v for v in p.source.bounds2d.ravel()),
                  len(p.source), len(p.target)] for p in pairs))
