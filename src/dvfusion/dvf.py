"""The displacement vector field: one 3D motion vector per covered source
point, with provenance (hierarchy level, patch, and whether the match came
from the 3D-feature or the image route)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MODALITY_3D = "3D"
MODALITY_2D = "2D"


@dataclass
class DisplacementVectorField:
    """Column-oriented DVF keyed by source point id.

    `point_ids` are ids into the source cloud and must be unique — at most one
    estimate per point. `positions` stores the source coordinates so a field
    can be exported or evaluated without the parent cloud at hand.
    """

    point_ids: np.ndarray
    positions: np.ndarray
    vectors: np.ndarray
    levels: np.ndarray
    patch_ids: np.ndarray
    modalities: np.ndarray

    def __post_init__(self):
        self.point_ids = np.asarray(self.point_ids, dtype=np.int64).reshape(-1)
        n = len(self.point_ids)
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(n, 3)
        self.vectors = np.asarray(self.vectors, dtype=np.float64).reshape(n, 3)
        self.levels = np.asarray(self.levels, dtype=np.int64).reshape(-1)
        self.patch_ids = np.asarray(self.patch_ids, dtype=np.int64).reshape(-1)
        self.modalities = np.asarray(self.modalities, dtype="U2").reshape(-1)
        if not (len(self.levels) == len(self.patch_ids) == len(self.modalities) == n):
            raise ValueError("DVF column lengths disagree")
        if len(np.unique(self.point_ids)) != n:
            raise ValueError("duplicate point ids in DVF")

    def __len__(self) -> int:
        return len(self.point_ids)

    @classmethod
    def empty(cls) -> "DisplacementVectorField":
        z = np.zeros(0)
        return cls(z, np.zeros((0, 3)), np.zeros((0, 3)), z, z, np.zeros(0, dtype="U2"))

    def sorted_by_id(self) -> "DisplacementVectorField":
        order = np.argsort(self.point_ids, kind="stable")
        return DisplacementVectorField(
            self.point_ids[order], self.positions[order], self.vectors[order],
            self.levels[order], self.patch_ids[order], self.modalities[order])


def merge_fields(fields) -> DisplacementVectorField:
    """One field ordered by point id from `fields`; where fields share a
    point, the first field that holds it wins."""
    fields = [f for f in fields if len(f)]
    if not fields:
        return DisplacementVectorField.empty()
    ids = np.concatenate([f.point_ids for f in fields])
    # np.unique sorts the ids and returns, per id, its first index
    _, keep = np.unique(ids, return_index=True)
    return DisplacementVectorField(ids[keep], *(
        np.concatenate([getattr(f, col) for f in fields])[keep]
        for col in ("positions", "vectors", "levels", "patch_ids", "modalities")))
