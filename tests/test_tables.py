"""The exact bytes of every CSV table the package writes, from small
hand-built inputs: header, cell formats, quoting and the CRLF line ends."""

import numpy as np
import pytest

from dvfusion import cli
from dvfusion.dvf import DisplacementVectorField
from dvfusion.evaluation import (EvaluationReport, M3C2Result,
                                 ObservationComparison, dump_report)
from dvfusion.geometry import RigidTransform
from dvfusion.io import (CameraModel, PointFeatureSet, write_cameras, write_dvf,
                         write_point_features, write_report)
from dvfusion.refinement import MatchQualityReport, dump_quality_reports
from dvfusion.tiling import Tile, TilePair, dump_tile_map


def crlf(*lines):
    return "".join(line + "\r\n" for line in lines).encode()


def small_field():
    # the second point does not move, so it has no direction
    return DisplacementVectorField(
        [2, 7, 9], [[1.0, 2.0, 3.0], [-4.5, 0.0, 10.125], [0.0, 0.0, 0.0]],
        [[3.0, 4.0, 0.0], [0.0, 0.0, 0.0], [0.0, -1.0, -1.0]],
        [1, 3, 2], [0, 5, 1], ["3D", "2D", "3D"])


def test_tile_map_bytes(tmp_path):
    left, right = [[0.0, -1.5], [12.25, 3.0]], [[12.25, -1.5], [20.0, 3.0]]
    pairs = [TilePair(Tile(left, [0, 2, 5], "Z"), Tile(left, [0, 1, 2, 5], "Z"), 0),
             TilePair(Tile(right, [1, 3, 4], "Z"), Tile(right, [], "Z"), 1)]
    dump_tile_map(tmp_path / "t.csv", pairs)
    assert (tmp_path / "t.csv").read_bytes() == crlf(
        "pair_id,axis,u0,v0,u1,v1,n_source,n_target",
        "0,Z,0.000000,-1.500000,12.250000,3.000000,3,4",
        "1,Z,12.250000,-1.500000,20.000000,3.000000,3,0")


def test_quality_reports_bytes(tmp_path):
    dump_quality_reports(tmp_path / "q.csv", [
        MatchQualityReport(1, 0, 3, 0.25, 0.9, True),
        MatchQualityReport(3, 12, 4, 2.0000004, 1 / 3, False)])
    assert (tmp_path / "q.csv").read_bytes() == crlf(
        "level,source_patch,target_patch,madd,pass_fraction,accepted",
        "1,0,3,0.250000,0.900000,1",
        "3,12,4,2.000000,0.333333,0")


EVAL_HEADER = ("obs_id,est_x,est_y,est_z,ref_x,ref_y,ref_z,"
               "abs_ddx,abs_ddy,abs_ddz,abs_dds,n_members")


def test_evaluation_report_bytes(tmp_path):
    rep = EvaluationReport([
        ObservationComparison("a", np.array([1.0, 0.0, -0.5]),
                              np.array([1.25, 0.0, -0.5]),
                              np.array([0.25, 0.0, 0.0, 0.25])),
        ObservationComparison("b,2", np.array([0.0, 2.0, 0.0]),
                              np.array([0.0, 1.0, 0.0]),
                              np.array([0.0, 1.0, 0.0, 1.0]), n_members=4)],
        coverage=0.875)
    dump_report(tmp_path / "e.csv", rep)
    assert (tmp_path / "e.csv").read_bytes() == crlf(
        EVAL_HEADER,
        "a,1.000000,0.000000,-0.500000,1.250000,0.000000,-0.500000,"
        "0.250000,0.000000,0.000000,0.250000,1",
        '"b,2",0.000000,2.000000,0.000000,0.000000,1.000000,0.000000,'
        "0.000000,1.000000,0.000000,1.000000,4",
        "mean,,,,,,,0.125000,0.500000,0.000000,0.625000,",
        "mad,,,,,,,0.125000,0.500000,0.000000,0.375000,",
        "coverage,0.875000,,,,,,,,,,")


def test_empty_evaluation_report_is_its_header(tmp_path):
    dump_report(tmp_path / "e.csv", EvaluationReport())
    assert (tmp_path / "e.csv").read_bytes() == crlf(EVAL_HEADER)


def test_plot_tables_bytes(tmp_path):
    paths = cli.export_plot_data(small_field(), tmp_path / "plots")
    got = {p.name: p.read_bytes() for p in paths}
    head = "point_id,x,y,z,"
    rows = ("2,1.000000,2.000000,3.000000,", "7,-4.500000,0.000000,10.125000,",
            "9,0.000000,0.000000,0.000000,")
    want = {"magnitude.csv": ("magnitude", "5.000000,1", "0.000000,0", "1.414214,1"),
            "azimuth.csv": ("azimuth_deg", "36.869898,1", "nan,0", "180.000000,1"),
            "elevation.csv": ("elevation_deg", "0.000000,1", "nan,0", "-45.000000,1")}
    assert got == {name: crlf(head + column + ",defined",
                              *(r + c for r, c in zip(rows, cells)))
                   for name, (column, *cells) in want.items()}


def test_m3c2_table_bytes(tmp_path, monkeypatch):
    for name in ("s.xyz", "t.xyz"):
        (tmp_path / name).write_text("0 0 0\n1 0 0\n0 1 0\n")
    result = M3C2Result(np.array([0, 2]), np.array([[0.0, 0.0, 1.0], [0.6, 0.0, -0.8]]),
                        np.array([0.125, np.nan]), np.array([True, False]))
    monkeypatch.setattr(cli, "baseline_m3c2", lambda *a, **k: result)
    out = tmp_path / "m3c2.csv"
    assert cli.main(["baseline", "--method", "m3c2", "--source", str(tmp_path / "s.xyz"),
                     "--target", str(tmp_path / "t.xyz"), "--out", str(out)]) == 0
    assert out.read_bytes() == crlf(
        "core_index,nx,ny,nz,distance,valid",
        "0,0.000000,0.000000,1.000000,0.125000,1",
        "2,0.600000,0.000000,-0.800000,nan,0")


def test_run_summary_bytes(tmp_path):
    write_report(tmp_path / "s.csv", {"n_estimates": 3, "coverage": 0.1,
                                      "mean_resolution": 1 / 3,
                                      "seconds_fine": 0.25, "note": "x"})
    assert (tmp_path / "s.csv").read_bytes() == crlf(
        "key,value", "n_estimates,3", "coverage,0.1",
        "mean_resolution,0.3333333333333333", "seconds_fine,0.25", "note,x")


def test_cameras_bytes(tmp_path):
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    write_cameras(tmp_path / "c.csv", [CameraModel(
        "view0", 160, 120, 100.0, 101.5, 80.0, 59.5,
        RigidTransform(rot, [1.5, -2.0, 0.1]))])
    assert (tmp_path / "c.csv").read_bytes() == crlf(
        "image_id,width,height,fx,fy,cx,cy,"
        "r11,r12,r13,r21,r22,r23,r31,r32,r33,t1,t2,t3",
        "view0,160,120,100.0,101.5,80.0,59.5,"
        "0.0,-1.0,0.0,1.0,0.0,0.0,0.0,0.0,1.0,1.5,-2.0,0.1")


@pytest.mark.parametrize("feats, want", [
    (PointFeatureSet([4, 0], [[0.6, 0.8], [1.0, 0.0]]),
     crlf("point_index,f1,f2", "4,0.6,0.8", "0,1.0,0.0")),
    (PointFeatureSet(np.zeros(0), np.zeros((0, 3))), crlf("point_index")),
])
def test_point_features_bytes(tmp_path, feats, want):
    write_point_features(tmp_path / "f.csv", feats)
    assert (tmp_path / "f.csv").read_bytes() == want


def test_dvf_bytes(tmp_path):
    write_dvf(tmp_path / "d.csv", small_field())
    assert (tmp_path / "d.csv").read_bytes() == crlf(
        "point_id,x,y,z,dx,dy,dz,level,patch_id,modality",
        "2,1.000000,2.000000,3.000000,3.000000,4.000000,0.000000,1,0,3D",
        "7,-4.500000,0.000000,10.125000,0.000000,0.000000,0.000000,3,5,2D",
        "9,0.000000,0.000000,0.000000,0.000000,-1.000000,-1.000000,2,1,3D")
