"""File formats: ASCII PLY / XYZ point clouds, PGM/PPM rasters, camera tables,
observation and point-feature CSVs, and DVF CSV export and import.

A point cloud is its coordinates, all finite. An XYZ row holds 3 or 6
numbers, the same count on every row; the last three of a 6-column row
(XYZRGB) are checked but not kept. A PLY vertex is read for `x`, `y` and
`z`; its other properties (colour, intensity, normals) are ignored.

Every loader either returns a fully validated structure or raises a located
error (`ParseError` with a line number, `SchemaError` naming the field); there
are no partial silent results.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dvf import DisplacementVectorField
from .errors import ParseError, SchemaError, UnsupportedFormat
from .geometry import RigidTransform, as_points

COORD_FMT = "%.6f"          # 1e-6 m round-trip precision for coordinates
UNIT_NORM_TOL = 1e-6        # how far a descriptor's norm may stray from 1

CAMERA_FIELDS = ("image_id", "width", "height", "fx", "fy", "cx", "cy",
                 "r11", "r12", "r13", "r21", "r22", "r23", "r31", "r32", "r33",
                 "t1", "t2", "t3")
OBS_FIELDS = ("id", "x", "y", "z", "dx", "dy", "dz")
DVF_FIELDS = ("point_id", "x", "y", "z", "dx", "dy", "dz", "level", "patch_id",
              "modality")


# ---------------------------------------------------------------------------
# Domain containers


@dataclass
class PointCloud:
    """One epoch of points."""

    points: np.ndarray

    def __post_init__(self):
        self.points = as_points(self.points)
        if len(self.points) < 1:
            raise ValueError("point cloud must hold at least one point")

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class Raster:
    """Row-major 8-bit image, grayscale (H, W) or color (H, W, 3)."""

    data: np.ndarray
    image_id: str = ""

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.uint8)
        if self.data.ndim not in (2, 3) or (self.data.ndim == 3 and self.data.shape[2] != 3):
            raise ValueError(f"raster must be (H, W) or (H, W, 3), got {self.data.shape}")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.data.ndim == 2 else 3

    def gray(self) -> np.ndarray:
        """Luma as float64 in [0, 255]."""
        if self.data.ndim == 2:
            return self.data.astype(np.float64)
        return self.data.astype(np.float64) @ np.array([0.299, 0.587, 0.114])


@dataclass
class CameraModel:
    """Undistorted pinhole camera; `pose` maps world to camera coordinates."""

    image_id: str
    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float
    pose: RigidTransform

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):       # NaN fails
            raise SchemaError("fy" if self.fx > 0 else "fx", "focal length must be positive")
        if not 0 <= self.cx < self.width:
            raise SchemaError("cx", f"principal point {self.cx} outside [0, {self.width})")
        if not 0 <= self.cy < self.height:
            raise SchemaError("cy", f"principal point {self.cy} outside [0, {self.height})")


@dataclass
class ExternalObservation:
    """Independently surveyed displacement at a known first-epoch position."""

    id: str
    position: np.ndarray
    displacement: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64).reshape(3)
        self.displacement = np.asarray(self.displacement, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(self.displacement)):
            raise SchemaError("displacement", "components must be finite")


@dataclass
class PixelMatchSet:
    """Sub-pixel matches between one source and one target image.

    `matches` is (N, 5): u1, v1, u2, v2, confidence.
    """

    image_pair: tuple
    matches: np.ndarray = field(default_factory=lambda: np.zeros((0, 5)))

    def __post_init__(self):
        self.image_pair = (str(self.image_pair[0]), str(self.image_pair[1]))
        self.matches = np.asarray(self.matches, dtype=np.float64).reshape(-1, 5)

    def __len__(self) -> int:
        return len(self.matches)


@dataclass
class PointFeatureSet:
    """Unit-norm descriptors attached to a subset of tile points."""

    point_indices: np.ndarray
    descriptors: np.ndarray

    def __post_init__(self):
        self.point_indices = np.asarray(self.point_indices, dtype=np.int64).reshape(-1)
        self.descriptors = np.atleast_2d(np.asarray(self.descriptors, dtype=np.float64))
        if len(self.point_indices) != len(self.descriptors):
            raise ValueError("one descriptor per listed point required")
        if len(np.unique(self.point_indices)) != len(self.point_indices):
            raise ValueError("point indices must be unique")
        if not np.isfinite(self.descriptors).all():
            raise ValueError("descriptors must be finite")
        if len(self.descriptors):
            norms = np.linalg.norm(self.descriptors, axis=1)
            if not np.abs(norms - 1.0).max() <= UNIT_NORM_TOL:    # NaN fails
                raise ValueError("descriptors must be L2-normalized")

    def __len__(self) -> int:
        return len(self.point_indices)


# ---------------------------------------------------------------------------
# Point clouds


def load_point_cloud(path) -> PointCloud:
    """Coordinates from an ASCII PLY (`x`, `y`, `z` of each vertex, other
    properties ignored) or an XYZ file (3 or 6 numeric columns, the same
    count on every row, only the first three kept)."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".ply":
        pts = _load_ply(path)
    elif suffix in (".xyz", ".txt", ".csv"):
        pts = _load_xyz(path)
    else:
        raise UnsupportedFormat(f"unknown point-cloud extension {suffix!r} ({path})")
    return PointCloud(pts)


def write_point_cloud(path, cloud: PointCloud) -> None:
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".ply":
        _write_ply(path, cloud)
    elif suffix in (".xyz", ".txt"):
        _write_xyz(path, cloud)
    else:
        raise UnsupportedFormat(f"unknown point-cloud extension {suffix!r} ({path})")


def _load_xyz(path: Path):
    pts = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.replace(",", " ").split()
            if len(toks) not in (3, 6):
                raise ParseError(str(path), lineno,
                                 f"expected 3 (xyz) or 6 (xyzrgb) columns, got {len(toks)}")
            if width is None:
                width = len(toks)
            elif len(toks) != width:
                raise ParseError(str(path), lineno, "inconsistent column count")
            try:
                vals = [float(t) for t in toks]
            except ValueError:
                raise ParseError(str(path), lineno, f"not a number in {line!r}") from None
            if not all(map(math.isfinite, vals[:3])):
                raise ParseError(str(path), lineno, f"non-finite coordinate in {line!r}")
            pts.append(vals[:3])
    if not pts:
        raise ParseError(str(path), 1, "no points in file")
    return np.asarray(pts)


def _write_xyz(path: Path, cloud: PointCloud) -> None:
    with open(path, "w") as fh:
        for p in cloud.points:
            fh.write(" ".join(COORD_FMT % v for v in p) + "\n")


def _load_ply(path: Path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError:
        raise UnsupportedFormat(f"binary PLY not supported ({path})") from None
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError(str(path), 1, "missing 'ply' magic")

    n_vertex = None
    props: list[str] = []
    current_element = None
    header_end = None
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if line.startswith("comment") or not line:
            continue
        if line.startswith("format"):
            if "ascii" not in line:
                raise UnsupportedFormat(f"only ASCII PLY supported, got {line!r} ({path})")
        elif line.startswith("element"):
            parts = line.split()
            if len(parts) != 3 or not parts[2].isdigit():
                raise ParseError(str(path), lineno, f"malformed element line {line!r}")
            current_element = parts[1]
            count = int(parts[2])
            if current_element == "vertex":
                n_vertex = count
            elif count > 0:
                raise UnsupportedFormat(f"PLY element {current_element!r} not supported ({path})")
        elif line.startswith("property"):
            if current_element == "vertex":
                props.append(line.split()[-1])
        elif line == "end_header":
            header_end = lineno
            break
        else:
            raise ParseError(str(path), lineno, f"unexpected header line {line!r}")
    if header_end is None:
        raise ParseError(str(path), len(lines), "end_header not found")
    if n_vertex is None:
        raise ParseError(str(path), header_end, "no vertex element declared")
    for want in ("x", "y", "z"):
        if want not in props:
            raise SchemaError(want, f"vertex element lacks property {want!r} ({path})")

    col = [props.index(name) for name in ("x", "y", "z")]
    pts = np.empty((n_vertex, 3))
    body = lines[header_end:]
    if len(body) < n_vertex:
        raise ParseError(str(path), len(lines), f"expected {n_vertex} vertex rows, got {len(body)}")
    for i in range(n_vertex):
        lineno = header_end + 1 + i
        toks = body[i].split()
        if len(toks) != len(props):
            raise ParseError(str(path), lineno,
                             f"expected {len(props)} values, got {len(toks)}")
        try:
            pts[i] = [float(toks[c]) for c in col]
        except ValueError:
            raise ParseError(str(path), lineno, f"bad vertex row {body[i]!r}") from None
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if len(bad):
        i = int(bad[0])
        raise ParseError(str(path), header_end + 1 + i,
                         f"non-finite coordinate in {body[i]!r}")
    return pts


def _write_ply(path: Path, cloud: PointCloud) -> None:
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(cloud)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write("end_header\n")
        for p in cloud.points:
            fh.write(" ".join(COORD_FMT % v for v in p) + "\n")


# ---------------------------------------------------------------------------
# Rasters (PGM / PPM)


def load_raster(path, image_id: str = "") -> Raster:
    path = Path(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 2 or raw[:1] != b"P":
        raise ParseError(str(path), 1, "not a PGM/PPM file")
    magic = raw[:2].decode("ascii", errors="replace")
    if magic not in ("P2", "P3", "P5", "P6"):
        raise UnsupportedFormat(f"unsupported netpbm magic {magic!r} ({path})")

    # Tokenize the header, honoring '#' comments.
    pos = 2
    header: list[int] = []
    while len(header) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        tok = raw[start:pos]
        if not tok:
            raise ParseError(str(path), 1, "truncated header")
        try:
            header.append(int(tok))
        except ValueError:
            raise ParseError(str(path), 1, f"bad header token {tok!r}") from None
    width, height, maxval = header
    if maxval <= 0 or maxval > 255:
        raise UnsupportedFormat(f"only 8-bit rasters supported (maxval {maxval}, {path})")
    channels = 3 if magic in ("P3", "P6") else 1
    count = width * height * channels

    if magic in ("P5", "P6"):
        avail = len(raw) - (pos + 1)
        if avail < count:
            raise ParseError(str(path), 1, f"expected {count} bytes, got {avail}")
        data = np.frombuffer(raw, dtype=np.uint8, count=count, offset=pos + 1)
    else:
        toks = raw[pos:].split()
        if len(toks) < count:
            raise ParseError(str(path), 1, f"expected {count} samples, got {len(toks)}")
        data = np.array([int(t) for t in toks[:count]], dtype=np.uint8)
    shape = (height, width) if channels == 1 else (height, width, 3)
    return Raster(data.reshape(shape), image_id=image_id or path.stem)


def write_raster(path, raster: Raster) -> None:
    path = Path(path)
    magic = b"P5" if raster.channels == 1 else b"P6"
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (raster.width, raster.height))
        fh.write(raster.data.tobytes())


# ---------------------------------------------------------------------------
# CSV tables


def write_table(path, header, rows) -> None:
    """CSV of one `header` row and then `rows`, each a sequence of cells;
    every table the package writes goes through here."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _csv_rows(path):
    """(lineno, cells) of a CSV's header and then of each non-blank row,
    `lineno` being its line in the file. A ParseError at its line for a row
    whose cell count is not the header's."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(str(path), 1, "empty file, expected a CSV header")
        yield reader.line_num, header
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ParseError(str(path), reader.line_num,
                                 f"expected {len(header)} columns, got {len(row)}")
            yield reader.line_num, row


def _dict_reader(path, required):
    """Rows of a CSV as (lineno, {column: stripped cell}) after checking
    that the header covers `required`; see `_csv_rows`."""
    rows = _csv_rows(path)
    have = [f.strip() for f in next(rows)[1]]
    for name in required:
        if name not in have:
            raise SchemaError(name, f"missing column in {Path(path)}")
    for lineno, row in rows:
        yield lineno, {k: v.strip() for k, v in zip(have, row)}


def _row_float(row, key, path, lineno) -> float:
    val = row.get(key)
    if val in (None, ""):
        raise ParseError(str(path), lineno, f"missing value for {key!r}")
    try:
        num = float(val)
    except ValueError:
        num = math.nan
    if not math.isfinite(num):
        raise ParseError(str(path), lineno, f"field {key!r}: not a finite number: {val!r}")
    return num


def _row_int(row, key, path, lineno) -> int:
    num = _row_float(row, key, path, lineno)     # "3" or "3.0", not "3.5"
    if not num.is_integer():
        raise ParseError(str(path), lineno, f"field {key!r}: not an integer: {row[key]!r}")
    return int(num)


def load_cameras(path) -> list[CameraModel]:
    cams = []
    for lineno, row in _dict_reader(path, CAMERA_FIELDS):
        g = lambda k: _row_float(row, k, path, lineno)  # noqa: E731
        rot = np.array([[g("r11"), g("r12"), g("r13")],
                        [g("r21"), g("r22"), g("r23")],
                        [g("r31"), g("r32"), g("r33")]])
        try:
            pose = RigidTransform(rot, [g("t1"), g("t2"), g("t3")])
        except ValueError as exc:
            raise SchemaError("rotation", f"{path}:{lineno}: {exc}") from None
        gi = lambda k: _row_int(row, k, path, lineno)  # noqa: E731
        cams.append(CameraModel(image_id=row["image_id"], width=gi("width"),
                                height=gi("height"), fx=g("fx"), fy=g("fy"),
                                cx=g("cx"), cy=g("cy"), pose=pose))
    if not cams:
        raise ParseError(str(Path(path)), 1, "camera file holds no records")
    return cams


def write_cameras(path, cams) -> None:
    write_table(path, CAMERA_FIELDS, (
        [c.image_id, c.width, c.height,
         repr(c.fx), repr(c.fy), repr(c.cx), repr(c.cy),
         *[repr(float(v)) for v in c.pose.rotation.ravel()],
         *[repr(float(v)) for v in c.pose.translation]] for c in cams))


def load_external_observations(path) -> list[ExternalObservation]:
    obs = []
    for lineno, row in _dict_reader(path, OBS_FIELDS):
        g = lambda k: _row_float(row, k, path, lineno)  # noqa: E731
        obs.append(ExternalObservation(row["id"], [g("x"), g("y"), g("z")],
                                       [g("dx"), g("dy"), g("dz")]))
    return obs


def load_point_features(path) -> PointFeatureSet:
    """CSV `point_index,f1..fD`, each index once and every value finite. Unit
    descriptors (within `UNIT_NORM_TOL`) load exactly as written; the others
    are normalized."""
    path = Path(path)
    rows_in = _csv_rows(path)
    header = next(rows_in)[1]
    if not header or header[0].strip() != "point_index":
        raise SchemaError("point_index", f"first column must be point_index in {path}")
    dim = len(header) - 1
    if dim < 1:
        raise SchemaError("f1", f"no feature columns in {path}")
    indices, rows, first = [], [], {}
    for lineno, row in rows_in:
        try:
            indices.append(int(row[0]))
            vals = [float(v) for v in row[1:]]
        except ValueError:
            raise ParseError(str(path), lineno, f"bad row {row!r}") from None
        if not all(map(math.isfinite, vals)):
            raise ParseError(str(path), lineno, f"non-finite descriptor in {row!r}")
        if math.hypot(*vals) <= 1e-12:
            raise ParseError(str(path), lineno, "zero-norm descriptor cannot be normalized")
        if first.setdefault(indices[-1], lineno) != lineno:
            raise ParseError(str(path), lineno, f"repeated point_index {indices[-1]}")
        rows.append(vals)
    desc = np.asarray(rows, dtype=np.float64).reshape(len(indices), dim)
    norms = np.linalg.norm(desc, axis=1)
    off = np.abs(norms - 1.0) > UNIT_NORM_TOL
    desc[off] /= norms[off, None]
    return PointFeatureSet(np.asarray(indices, dtype=np.int64), desc)


def write_point_features(path, feats: PointFeatureSet) -> None:
    dim = feats.descriptors.shape[1] if len(feats) else 0
    write_table(path, ["point_index"] + [f"f{i + 1}" for i in range(dim)],
                ([int(idx)] + [repr(float(v)) for v in d]
                 for idx, d in zip(feats.point_indices, feats.descriptors)))


def write_dvf(path, dvf: DisplacementVectorField) -> None:
    """One row per estimated source point, columns as in `DVF_FIELDS`."""
    write_table(path, DVF_FIELDS, (
        [int(dvf.point_ids[i]),
         *(COORD_FMT % v for v in dvf.positions[i]),
         *(COORD_FMT % v for v in dvf.vectors[i]),
         int(dvf.levels[i]), int(dvf.patch_ids[i]), str(dvf.modalities[i])]
        for i in range(len(dvf))))


def load_dvf(path) -> DisplacementVectorField:
    """A field as `write_dvf` writes it, each point_id on one row only."""
    ids, pos, vec, lev, pid, mod, first = [], [], [], [], [], [], {}
    for lineno, row in _dict_reader(path, DVF_FIELDS):
        g = lambda k: _row_float(row, k, path, lineno)  # noqa: E731
        gi = lambda k: _row_int(row, k, path, lineno)  # noqa: E731
        ids.append(gi("point_id"))
        if first.setdefault(ids[-1], lineno) != lineno:
            raise ParseError(str(path), lineno, f"repeated point_id {ids[-1]}")
        pos.append([g("x"), g("y"), g("z")])
        vec.append([g("dx"), g("dy"), g("dz")])
        lev.append(gi("level"))
        pid.append(gi("patch_id"))
        mod.append(row["modality"])
    return DisplacementVectorField(ids, pos, vec, lev, pid, mod)


def write_report(path, report: dict) -> None:
    """Flat key,value CSV; values formatted with repr for lossless re-read."""
    write_table(path, ["key", "value"],
                ([key, repr(val) if isinstance(val, float) else val]
                 for key, val in report.items()))
