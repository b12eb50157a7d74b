"""Pinhole projection, view selection, and normalized cross-correlation
pixel matching."""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest

from dvfusion import imaging
from dvfusion.config import PipelineConfig
from dvfusion.errors import ImageTooSmall, NoVisibleImage
from dvfusion.geometry import RigidTransform
from dvfusion.imaging import match_pixels, project_to_image, select_top_k_images
from dvfusion.io import CameraModel, Raster


def make_camera(image_id="0", width=640, height=480, fx=500.0, fy=500.0,
                rotation=None, translation=(0.0, 0.0, 0.0)):
    if rotation is None:
        rotation = np.eye(3)
    pose = RigidTransform(np.asarray(rotation, dtype=float),
                          np.asarray(translation, dtype=float))
    return CameraModel(image_id=image_id, width=width, height=height,
                       fx=fx, fy=fy, cx=width / 2.0, cy=height / 2.0,
                       pose=pose)


# ---------------------------------------------------------------------------
# Projection


def test_point_on_optical_axis_projects_to_principal_point():
    cam = make_camera()
    proj = project_to_image(np.array([[0.0, 0.0, 5.0]]), cam)
    assert proj.valid.tolist() == [True]
    assert abs(proj.u[0] - 320.0) < 1e-9
    assert abs(proj.v[0] - 240.0) < 1e-9


def test_point_behind_camera_invalid():
    cam = make_camera()
    proj = project_to_image(np.array([[0.0, 0.0, -1.0]]), cam)
    assert proj.valid.tolist() == [False]


def test_projection_matches_hand_computation():
    cam = make_camera(fx=400.0, fy=420.0)
    proj = project_to_image(np.array([[1.0, -0.5, 4.0]]), cam)
    # u = fx * X/Z + cx, v = fy * Y/Z + cy
    assert abs(proj.u[0] - (400.0 * 0.25 + 320.0)) < 1e-6
    assert abs(proj.v[0] - (420.0 * -0.125 + 240.0)) < 1e-6


def test_projection_respects_pose():
    # pose shifts the world point onto the optical axis
    cam = make_camera(translation=(-1.0, 0.0, 0.0))
    proj = project_to_image(np.array([[1.0, 0.0, 3.0]]), cam)
    assert proj.valid.tolist() == [True]
    assert abs(proj.u[0] - 320.0) < 1e-9
    assert abs(proj.v[0] - 240.0) < 1e-9


def test_out_of_frame_is_invalid():
    cam = make_camera()
    # u would be 500 * 10 / 1 + 320, far outside a 640 px frame
    proj = project_to_image(np.array([[10.0, 0.0, 1.0]]), cam)
    assert proj.valid.tolist() == [False]


# ---------------------------------------------------------------------------
# View selection


def test_top_k_prefers_views_seeing_more_points():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.5, 0.5, (100, 3)) + np.array([0.0, 0.0, 5.0])
    good = make_camera(image_id="front")
    # flipped about x: scene points end up behind this one
    bad = make_camera(image_id="back", rotation=np.diag([1.0, -1.0, -1.0]))
    assert select_top_k_images(pts, [bad, good], k=1) == ["front"]


def test_top_k_counts_match_recount_oracle():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2.0, 2.0, (300, 3)) + np.array([0.0, 0.0, 6.0])
    cams = [
        make_camera(image_id="a"),
        make_camera(image_id="b", translation=(-3.0, 0.0, 0.0)),
        make_camera(image_id="c", translation=(0.0, 0.0, -4.0)),
    ]
    chosen = select_top_k_images(pts, cams, k=2)
    counts = {c.image_id: int(project_to_image(pts, c).valid.sum())
              for c in cams}
    ranked = sorted(counts, key=lambda i: (-counts[i], i))
    assert chosen == ranked[:2]


def test_no_visible_image_raises():
    pts = np.array([[0.0, 0.0, -5.0]])
    with pytest.raises(NoVisibleImage):
        select_top_k_images(pts, [make_camera()], k=1)


# ---------------------------------------------------------------------------
# NCC matching


def ncc_match(img_a, img_b, **kw):
    """`match_pixels` with the configured settings, `kw` overriding them."""
    cfg = PipelineConfig()
    settings = dict(stride=cfg.ncc_stride, template_radius=cfg.ncc_template_radius,
                    search_window=cfg.ncc_search_window, min_conf=cfg.min_conf)
    return match_pixels(img_a, img_b, **{**settings, **kw})


def textured_raster(rng, height=96, width=96, image_id="img"):
    base = rng.uniform(0, 255, (height, width))
    # light smoothing keeps correlation peaks sharp but not degenerate
    k = np.ones(3) / 3.0
    base = np.apply_along_axis(lambda r: np.convolve(r, k, mode="same"), 1, base)
    base = np.apply_along_axis(lambda c: np.convolve(c, k, mode="same"), 0, base)
    return Raster(base.astype(np.uint8), image_id)


def test_self_match_zero_displacement_full_confidence():
    rng = np.random.default_rng(2)
    img = textured_raster(rng)
    result = ncc_match(img, img, stride=16)
    m = result.matches
    assert len(m) == 36        # full 6x6 keypoint grid survives
    assert np.allclose(m[:, 2:4] - m[:, 0:2], 0.0, atol=1e-9)
    assert np.all(m[:, 4] > 0.999)


def test_integer_shift_recovered():
    rng = np.random.default_rng(3)
    img = textured_raster(rng, 96, 96, "a")
    shifted = Raster(np.roll(img.data, 3, axis=1), "b")   # content moves +3 in x
    m = ncc_match(img, shifted, stride=16).matches
    # keep keypoints whose true match stays clear of the wrapped columns
    m = m[m[:, 0] <= 80.0]
    assert len(m) > 0
    assert np.all(np.abs((m[:, 2] - m[:, 0]) - 3.0) <= 0.5)
    assert np.all(np.abs(m[:, 3] - m[:, 1]) <= 0.5)


def test_subpixel_refinement_on_smooth_peak():
    # a smooth aperiodic texture shifted by a non-integer amount; the
    # quadratic peak fit should land within half a pixel of the true shift
    y, x = np.mgrid[0:96, 0:96].astype(float)
    rng = np.random.default_rng(6)
    waves = [(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4),
              rng.uniform(0, 2 * np.pi)) for _ in range(8)]

    def field(shift):
        f = np.zeros((96, 96))
        for kx, ky, ph in waves:
            f += np.sin(kx * (x - shift) + ky * y + ph)
        f = (f - f.min()) / (np.ptp(f) + 1e-12)
        return Raster((f * 255.0).astype(np.uint8))

    m = ncc_match(field(0.0), field(2.4), stride=8).matches
    assert len(m) > 0
    dx = m[:, 2] - m[:, 0]
    assert np.median(np.abs(dx - 2.4)) <= 0.5


def test_featureless_images_give_no_matches():
    flat_a = Raster(np.full((64, 64), 80, dtype=np.uint8))
    flat_b = Raster(np.full((64, 64), 90, dtype=np.uint8))
    assert ncc_match(flat_a, flat_b).matches.shape == (0, 5)


def test_low_confidence_filtered():
    rng = np.random.default_rng(4)
    a = textured_raster(rng)
    b = Raster(rng.uniform(0, 255, (96, 96)).astype(np.uint8))  # unrelated
    assert len(ncc_match(a, b, stride=16, min_conf=0.9)) == 0


def test_image_too_small():
    tiny = Raster(np.zeros((8, 8), dtype=np.uint8))
    with pytest.raises(ImageTooSmall):
        ncc_match(tiny, tiny)


def test_match_rows_are_valid_pixel_matches():
    rng = np.random.default_rng(5)
    img = textured_raster(rng, image_id="a")
    other = Raster(np.roll(img.data, 2, axis=0), "b")
    result = ncc_match(img, other, stride=16)
    assert result.image_pair == ("a", "b")
    m = result.matches
    assert m.shape[1] == 5
    assert np.all(m[:, 4] >= 0.0) and np.all(m[:, 4] <= 1.0)


# ---------------------------------------------------------------------------
# NCC matching against the per-keypoint loop


def _quadratic_peak_offset(c_minus, c0, c_plus) -> float:
    denom = c_minus - 2.0 * c0 + c_plus
    if abs(denom) < 1e-12:
        return 0.0
    off = 0.5 * (c_minus - c_plus) / denom
    return float(np.clip(off, -0.5, 0.5))


def reference_surfaces(img_a, img_b, stride, template_radius, search_window):
    """Direct per-keypoint NCC: {(u, v): (y_lo, x_lo, surface)} for every
    textured keypoint whose clipped search range is not empty; surface[i, j]
    scores the window of img_b centred at (x_lo + j, y_lo + i)."""
    a, b = img_a.gray(), img_b.gray()
    r, half = template_radius, search_window // 2
    tpl_px = (2 * r + 1) ** 2
    win_b = np.lib.stride_tricks.sliding_window_view(b, (2 * r + 1, 2 * r + 1))
    hb, wb = b.shape
    out = {}
    for v in range(r, a.shape[0] - r, stride):
        for u in range(r, a.shape[1] - r, stride):
            t = a[v - r:v + r + 1, u - r:u + r + 1]
            t = t - t.mean()
            t_norm = np.sqrt((t * t).sum())
            if t_norm < 1e-9:
                continue
            y_lo, y_hi = max(v - half, r), min(v + half, hb - 1 - r)
            x_lo, x_hi = max(u - half, r), min(u + half, wb - 1 - r)
            if y_hi < y_lo or x_hi < x_lo:
                continue
            cand = win_b[y_lo - r:y_hi - r + 1, x_lo - r:x_hi - r + 1]
            sums = np.einsum("ijkl->ij", cand)
            sqs = np.einsum("ijkl,ijkl->ij", cand, cand)
            num = np.einsum("ijkl,kl->ij", cand, t)
            denom = t_norm * np.sqrt(np.maximum(sqs - sums * sums / tpl_px, 0.0))
            with np.errstate(divide="ignore", invalid="ignore"):
                out[(u, v)] = (y_lo, x_lo, np.where(denom > 1e-9, num / denom, -1.0))
    return out


def reference_matches(surfaces, min_conf, subpixel):
    rows = []
    for (u, v), (y_lo, x_lo, ncc) in surfaces.items():
        iy, ix = np.unravel_index(int(ncc.argmax()), ncc.shape)
        score = float(ncc[iy, ix])
        conf = min(max(score, 0.0), 1.0)
        if conf < min_conf:
            continue
        mv, mu = float(y_lo + iy), float(x_lo + ix)
        if subpixel and score < 1.0 - 1e-9:
            if 0 < ix < ncc.shape[1] - 1:
                mu += _quadratic_peak_offset(ncc[iy, ix - 1], score, ncc[iy, ix + 1])
            if 0 < iy < ncc.shape[0] - 1:
                mv += _quadratic_peak_offset(ncc[iy - 1, ix], score, ncc[iy + 1, ix])
        rows.append([float(u), float(v), mu, mv, conf])
    return np.asarray(rows, dtype=np.float64).reshape(-1, 5)


def integer_peaks():
    """Take the matcher's sub-pixel step out: every offset becomes 0."""
    return mock.patch.object(imaging, "_peak_offsets", lambda *args: 0.0)


def assert_matches_reference(img_a, img_b, stride=8, template_radius=7,
                             search_window=64, min_conf=0.5, subpixel=True):
    """Check `match_pixels` against the per-keypoint reference; with
    `subpixel` unset both take integer peaks. Returns the matches."""
    kw = dict(stride=stride, template_radius=template_radius,
              search_window=search_window, min_conf=min_conf)
    with nullcontext() if subpixel else integer_peaks():
        got = match_pixels(img_a, img_b, **kw).matches
    with integer_peaks():
        peaks = match_pixels(img_a, img_b, **kw).matches
    surfaces = reference_surfaces(img_a, img_b, stride, template_radius,
                                  search_window)
    want = reference_matches(surfaces, min_conf, subpixel)
    assert np.array_equal(got[:, :2], want[:, :2])
    assert np.array_equal(peaks[:, :2], want[:, :2])
    assert np.allclose(got[:, 4], want[:, 4], rtol=0.0, atol=1e-9)
    for row, peak, ref in zip(got, peaks, want):
        y_lo, x_lo, ncc = surfaces[(int(row[0]), int(row[1]))]
        iy, ix = np.unravel_index(int(ncc.argmax()), ncc.shape)
        py, px = int(peak[3]) - y_lo, int(peak[2]) - x_lo
        if (py, px) == (iy, ix):
            assert np.allclose(row[2:4], ref[2:4], rtol=0.0, atol=1e-6), row
        else:
            # a tie: the reference scores the other peak as high as its own
            assert ncc[py, px] >= ncc.max() - 1e-9, row
    return got


def shifted_pair(rng, shape_a, shape_b, shift=(3, -2)):
    """Textured img_a and an img_b cut from the same texture moved by
    `shift` (dy, dx), with a little noise."""
    h = max(shape_a[0], shape_b[0]) + 10
    w = max(shape_a[1], shape_b[1]) + 10
    base = textured_raster(rng, h, w).data.astype(float)
    moved = np.roll(base, shift, axis=(0, 1)) + rng.normal(0.0, 4.0, base.shape)
    a = Raster(base[:shape_a[0], :shape_a[1]], "a")
    b = Raster(np.clip(moved[:shape_b[0], :shape_b[1]], 0, 255), "b")
    return a, b


@pytest.mark.parametrize("shape_a, shape_b, kw", [
    ((96, 96), (96, 96), {}),
    ((80, 120), (100, 70), {}),                          # non-square, a wider
    ((120, 64), (72, 90), {"stride": 5}),                # a taller
    ((64, 48), (50, 60), {"search_window": 200}),        # window beyond image
    ((96, 96), (96, 96), {"search_window": 21}),         # odd window
    ((96, 80), (96, 80), {"subpixel": False}),           # integer peaks
    ((70, 90), (90, 70), {"template_radius": 4, "min_conf": 0.0}),
])
def test_matches_equal_per_keypoint_reference(shape_a, shape_b, kw):
    rng = np.random.default_rng(sum(shape_a + shape_b))
    a, b = shifted_pair(rng, shape_a, shape_b)
    assert len(assert_matches_reference(a, b, **kw)) > 0


def test_peaks_on_the_search_boundary():
    # shifts beyond the +-2 px window put peaks on every edge of the range
    for shift in ((3, -2), (-3, 3)):
        rng = np.random.default_rng(10)
        a, b = shifted_pair(rng, (96, 96), (96, 96), shift)
        got = assert_matches_reference(a, b, search_window=4, min_conf=0.0)
        assert np.any((got[:, 4] > 0.0) & (got[:, 4] < 1.0))


def test_flat_search_region_scores_minus_one():
    # Against an inverted texture a window scores about -0.5, so a flat
    # window scored anything above -1 would win the keypoints at x or y = 39,
    # whose candidate windows straddle the flat block's edge.
    rng = np.random.default_rng(7)
    a, _ = shifted_pair(rng, (96, 96), (96, 96))
    inverted = 255 - a.data
    inverted[:46, :46] = 90             # windows centred at x, y <= 38 are flat
    got = assert_matches_reference(a, Raster(inverted, "b"), min_conf=0.0,
                                   search_window=2, subpixel=False)
    assert len(got) == 11 * 11
    u, v, mu, mv = got[:, :4].T
    assert np.all(got[(u <= 31) & (v <= 31), 4] == 0.0)
    edge = ((u == 39) & (v <= 39)) | ((v == 39) & (u <= 39))
    assert np.all((mu[edge] > 38) | (mv[edge] > 38))


def test_colour_rasters_with_a_flat_block():
    # Colour luma is not an integer, so window sums round. They must round
    # with the window's own values, not with the whole image's, or a flat
    # window gets a small variance and scores about 0 instead of -1.
    rng = np.random.default_rng(11)
    h, w = 240, 320
    tex = np.stack([textured_raster(rng, h + 10, w + 10).data
                    for _ in range(3)], axis=-1)
    base = 190 + np.round(tex * (12 / 255))         # bright, low contrast
    moved = np.roll(base, (3, -2), axis=(0, 1)) + rng.integers(-1, 2, base.shape)
    b = np.clip(moved[:h, :w], 0, 255).astype(np.uint8)
    b[20:80, 30:110] = (200, 190, 170)
    a = Raster(base[:h, :w].astype(np.uint8), "a")
    got = assert_matches_reference(a, Raster(b, "b"), stride=24,
                                   search_window=16, min_conf=0.0)
    # every window these keypoints search is flat: all score -1, the first
    # wins, and the confidence clamps to 0
    for u, v in ((55, 55), (79, 55)):
        row = got[(got[:, 0] == u) & (got[:, 1] == v)]
        assert row.tolist() == [[u, v, u - 8, v - 8, 0.0]]
    assert np.median(got[:, 4]) > 0.5


def test_textureless_templates_are_skipped():
    rng = np.random.default_rng(8)
    a, b = shifted_pair(rng, (96, 96), (96, 96))
    data = a.data.copy()
    data[40:80, 40:80] = 120
    got = assert_matches_reference(Raster(data, "a"), b, min_conf=0.0)
    inside = (got[:, 0:2] >= 47) & (got[:, 0:2] <= 72)
    assert not np.any(inside.all(axis=1))
    assert len(got) > 0


def test_empty_search_range_is_skipped_at_zero_min_conf():
    # img_a reaches far beyond img_b: keypoints there have no window to search
    rng = np.random.default_rng(9)
    a, b = shifted_pair(rng, (90, 120), (50, 50))
    r, half = 3, 4
    got = assert_matches_reference(a, b, stride=6, template_radius=r,
                                   search_window=2 * half, min_conf=0.0)
    assert len(got) > 0
    assert got[:, 0].max() <= 50 - 1 - r + half
    assert got[:, 1].max() <= 50 - 1 - r + half
