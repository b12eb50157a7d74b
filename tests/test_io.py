"""Loader/writer round trips and malformed-input rejection for every file
format the pipeline touches."""

import numpy as np
import pytest

from dvfusion.dvf import DisplacementVectorField
from dvfusion.errors import ParseError, SchemaError, UnsupportedFormat
from dvfusion.geometry import RigidTransform
from dvfusion.io import (
    CameraModel,
    PointCloud,
    PointFeatureSet,
    Raster,
    load_cameras,
    load_dvf,
    load_external_observations,
    load_point_cloud,
    load_point_features,
    load_raster,
    write_cameras,
    write_dvf,
    write_point_cloud,
    write_point_features,
    write_raster,
)


# ---------------------------------------------------------------------------
# Point clouds


def test_xyz_three_lines(tmp_path):
    p = tmp_path / "a.xyz"
    p.write_text("0 0 0\n1.5 2 3\n-1 -2 -3\n")
    cloud = load_point_cloud(p)
    assert len(cloud) == 3
    assert np.allclose(cloud.points[1], [1.5, 2.0, 3.0])


def test_xyz_with_rgb_and_comments(tmp_path):
    p = tmp_path / "b.xyz"
    p.write_text("# comment line\n0 0 0 255 0 0\n1 1 1 0 255 0\n")
    cloud = load_point_cloud(p)
    assert cloud.points.tolist() == [[0, 0, 0], [1, 1, 1]]


def test_xyz_bad_token_reports_line(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("0 0 0\n1 oops 2\n")
    with pytest.raises(ParseError) as err:
        load_point_cloud(p)
    assert err.value.line == 2


def test_xyz_wrong_column_count(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("0 0 0 1\n")
    with pytest.raises(ParseError):
        load_point_cloud(p)


def test_xyzrgb_bad_colour_token_reports_line(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("0 0 0 1 2 3\n1 1 1 4 abc 6\n")
    with pytest.raises(ParseError) as err:
        load_point_cloud(p)
    assert err.value.line == 2


def test_xyz_non_finite_coordinate_reports_line(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("0 0 0\n# comment\n1 nan 2\n")
    with pytest.raises(ParseError, match="non-finite coordinate") as err:
        load_point_cloud(p)
    assert err.value.line == 3


def test_ply_with_rgb(tmp_path):
    p = tmp_path / "c.ply"
    p.write_text(
        "ply\nformat ascii 1.0\ncomment test\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n0 0 0 10 20 30\n1 2 3 40 50 60\n")
    cloud = load_point_cloud(p)
    assert cloud.points.tolist() == [[0, 0, 0], [1, 2, 3]]


def test_ply_binary_rejected(tmp_path):
    p = tmp_path / "d.ply"
    p.write_text("ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
                 "property float x\nproperty float y\nproperty float z\nend_header\n")
    with pytest.raises(UnsupportedFormat):
        load_point_cloud(p)


def test_ply_missing_coordinate_property(tmp_path):
    p = tmp_path / "e.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                 "property float x\nproperty float y\nend_header\n0 0\n")
    with pytest.raises(SchemaError) as err:
        load_point_cloud(p)
    assert err.value.field == "z"


@pytest.mark.parametrize("count", ["3.5", "-2", "x"])
def test_ply_bad_vertex_count_reports_the_element_line(tmp_path, count):
    p = tmp_path / "g.ply"
    p.write_text(f"ply\nformat ascii 1.0\nelement vertex {count}\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "end_header\n0 0 0\n")
    with pytest.raises(ParseError) as err:
        load_point_cloud(p)
    assert err.value.line == 3


def test_ply_truncated_body(tmp_path):
    p = tmp_path / "f.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex 3\n"
                 "property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n")
    with pytest.raises(ParseError):
        load_point_cloud(p)


def test_ply_non_finite_coordinate_reports_line(tmp_path):
    p = tmp_path / "h.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex 3\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "end_header\n0 0 0\n1 2 3\n4 -inf 6\n")
    with pytest.raises(ParseError, match="non-finite coordinate") as err:
        load_point_cloud(p)
    assert err.value.line == 10


@pytest.mark.parametrize("ext", ["xyz", "ply"])
def test_cloud_round_trip_precision(tmp_path, ext):
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.uniform(-1000, 1000, (10_000, 3)))
    p = tmp_path / f"r.{ext}"
    write_point_cloud(p, cloud)
    back = load_point_cloud(p)
    assert np.abs(back.points - cloud.points).max() < 1e-6


def test_unknown_extension(tmp_path):
    p = tmp_path / "a.las"
    p.write_text("")
    with pytest.raises(UnsupportedFormat):
        load_point_cloud(p)


# ---------------------------------------------------------------------------
# Rasters


def test_raster_binary_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    img = Raster(rng.integers(0, 256, (13, 17), dtype=np.uint8).astype(np.uint8), "g")
    p = tmp_path / "g.pgm"
    write_raster(p, img)
    back = load_raster(p)
    assert back.channels == 1
    assert np.array_equal(back.data, img.data)

    rgb = Raster(rng.integers(0, 256, (5, 7, 3)).astype(np.uint8), "c")
    q = tmp_path / "c.ppm"
    write_raster(q, rgb)
    back = load_raster(q)
    assert back.channels == 3
    assert np.array_equal(back.data, rgb.data)


def test_raster_ascii_variant_with_comment(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_text("P2\n# a comment\n3 2\n255\n0 1 2\n3 4 5\n")
    img = load_raster(p)
    assert img.width == 3 and img.height == 2
    assert img.data[1, 2] == 5


def test_raster_truncated(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ParseError):
        load_raster(p)


def test_raster_gray_conversion():
    rgb = Raster(np.full((2, 2, 3), 100, dtype=np.uint8))
    assert np.allclose(rgb.gray(), 100.0)


# ---------------------------------------------------------------------------
# Cameras


def make_camera(image_id="img0"):
    rot = RigidTransform(np.eye(3), np.zeros(3))
    return CameraModel(image_id, 640, 480, 500.0, 510.0, 320.0, 240.0, rot)


def test_camera_minimal_file(tmp_path):
    p = tmp_path / "cams.csv"
    write_cameras(p, [make_camera()])
    cams = load_cameras(p)
    assert len(cams) == 1
    assert cams[0].image_id == "img0"
    assert cams[0].fx == 500.0


def test_camera_rejects_nonpositive_focal():
    with pytest.raises(SchemaError) as err:
        CameraModel("x", 10, 10, -1.0, 1.0, 5.0, 5.0, RigidTransform.identity())
    assert err.value.field == "fx"


def test_camera_principal_point_bounds():
    with pytest.raises(SchemaError):
        CameraModel("x", 10, 10, 1.0, 1.0, 10.0, 5.0, RigidTransform.identity())


def test_camera_missing_column(tmp_path):
    p = tmp_path / "cams.csv"
    p.write_text("image_id,width,height\nimg0,10,10\n")
    with pytest.raises(SchemaError) as err:
        load_cameras(p)
    assert err.value.field == "fx"


def test_camera_pose_round_trip(tmp_path):
    from scipy.spatial.transform import Rotation
    rot = Rotation.from_euler("xyz", [10, 20, 30], degrees=True).as_matrix()
    cam = CameraModel("r", 800, 600, 700.0, 700.0, 400.0, 300.0,
                      RigidTransform(rot, [1.25, -7.5, 3.0]))
    p = tmp_path / "cams.csv"
    write_cameras(p, [cam])
    back = load_cameras(p)[0]
    assert np.abs(back.pose.rotation - rot).max() < 1e-9
    assert np.abs(back.pose.translation - cam.pose.translation).max() < 1e-9


def test_camera_bad_value_after_a_blank_line_reports_its_line(tmp_path):
    p = tmp_path / "cams.csv"
    write_cameras(p, [make_camera("a"), make_camera("b")])
    lines = p.read_text().splitlines()
    p.write_text("\n".join([lines[0], lines[1], "", lines[2].replace(",510.0,", ",oops,")])
                 + "\n")
    with pytest.raises(ParseError, match="cams.csv:4:") as err:
        load_cameras(p)
    assert err.value.line == 4


def test_camera_bad_rotation_matrix(tmp_path):
    p = tmp_path / "cams.csv"
    header = "image_id,width,height,fx,fy,cx,cy,r11,r12,r13,r21,r22,r23,r31,r32,r33,t1,t2,t3"
    p.write_text(header + "\nimg0,10,10,1,1,5,5,2,0,0,0,2,0,0,0,2,0,0,0\n")
    with pytest.raises(SchemaError):
        load_cameras(p)


# ---------------------------------------------------------------------------
# Observations, features


def test_single_observation(tmp_path):
    p = tmp_path / "obs.csv"
    p.write_text("id,x,y,z,dx,dy,dz\nT1,10,20,30,0.5,-0.5,0\n")
    obs = load_external_observations(p)
    assert len(obs) == 1
    assert obs[0].id == "T1"
    assert np.allclose(obs[0].displacement, [0.5, -0.5, 0.0])


def test_observation_bad_value_after_a_blank_line_reports_its_line(tmp_path):
    p = tmp_path / "obs.csv"
    p.write_text("id,x,y,z,dx,dy,dz\na,0,0,0,1,0,0\n\nb,0,0,0,oops,0,0\n")
    with pytest.raises(ParseError, match="obs.csv:4:") as err:
        load_external_observations(p)
    assert err.value.line == 4


def test_observation_rejects_nonfinite(tmp_path):
    p = tmp_path / "obs.csv"
    p.write_text("id,x,y,z,dx,dy,dz\nT1,0,0,0,nan,0,0\n")
    with pytest.raises(ParseError, match=":2: field 'dx': not a finite number") as err:
        load_external_observations(p)
    assert err.value.line == 2


def test_point_features_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    desc = rng.normal(size=(6, 4))
    desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    feats = PointFeatureSet(np.arange(6) * 3, desc)
    p = tmp_path / "f.csv"
    write_point_features(p, feats)
    back = load_point_features(p)
    assert np.array_equal(back.point_indices, feats.point_indices)
    assert np.abs(back.descriptors - desc).max() < 1e-12


def test_unit_point_features_round_trip_bit_equal(tmp_path):
    rng = np.random.default_rng(14)
    desc = rng.normal(size=(400, 33))
    desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    feats = PointFeatureSet(np.arange(400), desc)
    p = tmp_path / "f.csv"
    write_point_features(p, feats)
    assert np.array_equal(load_point_features(p).descriptors, desc)


def test_non_unit_point_features_are_normalized_on_load(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("point_index,f1,f2\n0,3,4\n1,0.6,0.8\n")
    back = load_point_features(p)
    assert np.allclose(back.descriptors, [[0.6, 0.8], [0.6, 0.8]], atol=1e-15)
    assert back.descriptors[1].tolist() == [0.6, 0.8]


def test_point_features_require_unit_norm():
    with pytest.raises(ValueError):
        PointFeatureSet([0], [[2.0, 0.0, 0.0]])


def test_point_features_zero_row_rejected(tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("point_index,f1,f2\n0,1,0\n1,0,0\n")
    with pytest.raises(ParseError, match=":3"):
        load_point_features(p)


def test_point_features_zero_row_after_blank_line_reports_its_line(tmp_path):
    """A skipped blank row shifts every later row down one line."""
    p = tmp_path / "f.csv"
    p.write_text("point_index,f1,f2\n0,1,0\n\n1,0,0\n")
    with pytest.raises(ParseError, match="zero-norm descriptor") as err:
        load_point_features(p)
    assert err.value.line == 4


@pytest.mark.parametrize("body, line", [
    ("0,1,0\n1,nan,1\n", 3),
    ("0,1,0\n1,0,-inf\n", 3),
    # a NaN row made the zero-norm test False, so the zero row slipped past
    ("0,nan,1\n1,0,0\n2,1,0\n", 2),
])
def test_point_features_non_finite_value_reports_line(tmp_path, body, line):
    p = tmp_path / "f.csv"
    p.write_text("point_index,f1,f2\n" + body)
    with pytest.raises(ParseError, match="non-finite descriptor") as err:
        load_point_features(p)
    assert err.value.line == line


def test_point_features_require_finite_descriptors():
    with pytest.raises(ValueError, match="finite"):
        PointFeatureSet([0, 1], [[1.0, 0.0], [np.nan, 1.0]])


# ---------------------------------------------------------------------------
# DVF


def make_dvf(n=20, seed=3):
    rng = np.random.default_rng(seed)
    return DisplacementVectorField(
        np.arange(n) * 7 + 3, rng.uniform(-50, 50, (n, 3)), rng.normal(0, 1, (n, 3)),
        rng.integers(1, 4, n), rng.integers(0, 9, n),
        np.where(rng.random(n) < 0.5, "3D", "2D"))


def test_dvf_round_trip_bitwise(tmp_path):
    dvf = make_dvf()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_dvf(p1, dvf)
    back = load_dvf(p1)
    write_dvf(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.point_ids, dvf.point_ids)
    assert np.array_equal(back.levels, dvf.levels)
    assert np.array_equal(back.modalities, dvf.modalities)


def test_dvf_bad_value_after_blank_lines_reports_its_line(tmp_path):
    p = tmp_path / "dvf.csv"
    p.write_text("point_id,x,y,z,dx,dy,dz,level,patch_id,modality\n"
                 "0,0,0,0,1,0,0,1,0,3D\n\n\n1,0,0,0,oops,0,0,1,0,3D\n")
    with pytest.raises(ParseError, match="dvf.csv:5:") as err:
        load_dvf(p)
    assert err.value.line == 5


def test_dvf_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        DisplacementVectorField([0, 0], np.zeros((2, 3)), np.zeros((2, 3)),
                                [1, 1], [0, 1], ["3D", "3D"])



# ---------------------------------------------------------------------------
# Row widths


def write_observations(path):
    path.write_text("id,x,y,z,dx,dy,dz\nA,1,2,3,0.1,0,0.2\n")


TABLES = {
    "cameras": (lambda p: write_cameras(p, [make_camera("a")]), load_cameras),
    "observations": (write_observations, load_external_observations),
    "dvf": (lambda p: write_dvf(p, make_dvf(n=1)), load_dvf),
}


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("extra", [1, -1], ids=["wide", "short"])
def test_a_row_wider_or_shorter_than_the_header_is_a_located_error(
        tmp_path, table, extra):
    """A cell too many (say, a decimal comma) or too few must not load as a
    row with a value dropped or filled in."""
    write, load = TABLES[table]
    p = tmp_path / f"{table}.csv"
    write(p)
    header, row = p.read_text().splitlines()
    cells = row.split(",")
    bad = cells + ["3"] if extra > 0 else cells[:-1]
    p.write_text("\n".join([header, row, "", ",".join(bad)]) + "\n")
    width = len(header.split(","))
    with pytest.raises(ParseError, match=f":4: expected {width} columns, "
                                         f"got {width + extra}$") as err:
        load(p)
    assert err.value.line == 4


# ---------------------------------------------------------------------------
# Bad numbers

# (table, cells of a second data row that differ from the first, message).
# The second row takes its own camera or observation id, and a DVF case
# gives it a fresh point_id, unless the case is about that cell.
BAD_CELLS = [
    ("cameras", {"fx": "nan"}, "field 'fx': not a finite number"),
    ("cameras", {"r22": "nan"}, "field 'r22': not a finite number"),
    ("cameras", {"t3": "inf"}, "field 't3': not a finite number"),
    ("cameras", {"width": "640.5"}, "field 'width': not an integer"),
    ("cameras", {"height": "nan"}, "field 'height': not a finite number"),
    ("cameras", {"image_id": "a"}, "repeated image_id a"),
    ("observations", {"x": "nan"}, "field 'x': not a finite number"),
    ("observations", {"dz": "-inf"}, "field 'dz': not a finite number"),
    ("dvf", {"point_id": "11", "y": "inf"}, "field 'y': not a finite number"),
    ("dvf", {"point_id": "11", "dx": "nan"}, "field 'dx': not a finite number"),
    ("dvf", {"point_id": "11.7"}, "field 'point_id': not an integer"),
    ("dvf", {"point_id": "11", "level": "2.5"}, "field 'level': not an integer"),
    ("dvf", {"point_id": "11", "patch_id": "1.5"},
     "field 'patch_id': not an integer"),
    ("dvf", {}, "repeated point_id 3"),
]


@pytest.mark.parametrize("table, cells, message", BAD_CELLS,
                         ids=[f"{t}-{'-'.join(c) or 'repeat'}"
                              for t, c, _ in BAD_CELLS])
def test_a_bad_number_is_a_located_error(tmp_path, table, cells, message):
    """NaN and infinity, a fraction in an integer column and a repeated DVF
    point id or camera image id fail at their row instead of loading,
    truncating, replacing an earlier row or failing later without a
    location."""
    write, load = TABLES[table]
    p = tmp_path / f"{table}.csv"
    write(p)
    header, row = p.read_text().splitlines()
    names = header.split(",")
    bad = dict(zip(names, row.split(",")), image_id="b", id="B")
    bad.update(cells)
    p.write_text("\n".join([header, row, ",".join(bad[k] for k in names)]) + "\n")
    with pytest.raises(ParseError, match=f":3: {message}") as err:
        load(p)
    assert err.value.line == 3


def test_an_integral_float_loads_as_an_integer(tmp_path):
    p = tmp_path / "dvf.csv"
    write_dvf(p, make_dvf(n=1))
    header, row = p.read_text().splitlines()
    cells = row.split(",")
    cells[0] = "3.0"
    p.write_text(f"{header}\n{','.join(cells)}\n")
    assert load_dvf(p).point_ids.tolist() == [3]


def test_a_nan_rotation_is_not_a_rotation():
    rot = np.eye(3)
    rot[1, 1] = np.nan
    with pytest.raises(ValueError, match="not orthonormal"):
        RigidTransform(rot, np.zeros(3))


def test_point_features_repeated_index_reports_its_line(tmp_path):
    """The later row used to replace the earlier one without a word."""
    p = tmp_path / "f.csv"
    p.write_text("point_index,f1,f2\n0,1,0\n4,0,1\n\n0,0,1\n")
    with pytest.raises(ParseError, match="repeated point_index 0") as err:
        load_point_features(p)
    assert err.value.line == 5


def test_point_features_require_unique_indices():
    with pytest.raises(ValueError, match="unique"):
        PointFeatureSet([2, 0, 2], np.eye(3))
