"""Camera projection and the builtin image matcher.

The matcher is deliberately simple: normalized cross-correlation of fixed
grid templates over a bounded search window, with quadratic sub-pixel peak
refinement. It is computed the fast way (Lewis 1995, *Fast Normalized
Cross-Correlation*): the window means and variances of the searched image
come from separable running window sums, and the template-window products
from real FFTs, batched over one grid row of keypoints at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ImageTooSmall, NoVisibleImage
from .geometry import as_points
from .io import CameraModel, PixelMatchSet, Raster


@dataclass
class Projection:
    """Per-point image coordinates; `valid` = in front of the camera and
    inside the frame."""

    u: np.ndarray
    v: np.ndarray
    depth: np.ndarray
    valid: np.ndarray


def project_to_image(points, cam: CameraModel) -> Projection:
    """Pinhole projection through the camera's world-to-camera pose."""
    pts = as_points(points)
    pc = cam.pose.apply(pts)
    z = pc[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = cam.fx * pc[:, 0] / z + cam.cx
        v = cam.fy * pc[:, 1] / z + cam.cy
    valid = (z > 0) & (u >= 0) & (u < cam.width) & (v >= 0) & (v < cam.height)
    u = np.where(np.isfinite(u), u, -1.0)
    v = np.where(np.isfinite(v), v, -1.0)
    return Projection(u, v, z, valid)


def select_top_k_images(points, cams, k: int) -> list:
    """Rank cameras by how many of the given points project validly into
    them; return the top-k image ids (count desc, then image_id asc)."""
    if not cams:
        raise NoVisibleImage("no cameras supplied")
    counts = []
    for cam in cams:
        counts.append((int(project_to_image(points, cam).valid.sum()), cam.image_id))
    counts.sort(key=lambda t: (-t[0], t[1]))
    if counts[0][0] == 0:
        raise NoVisibleImage("no camera sees any of the points")
    return [image_id for cnt, image_id in counts[:k] if cnt > 0]


def _box_sums(img: np.ndarray, d: int) -> np.ndarray:
    """Sum of `img` over every d x d window, along rows and then columns;
    entry [y, x] covers rows y..y+d-1 and columns x..x+d-1. Each sum adds
    only the window's own d*d values, so its rounding error does not grow
    with the image as an integral image's does for non-integer (colour
    luma) values; for 8-bit gray levels both are exact."""
    windows = np.lib.stride_tricks.sliding_window_view
    rows = windows(img, d, axis=1).sum(axis=-1)
    return windows(rows, d, axis=0).sum(axis=-1)


def _fft_len(n: int) -> int:
    """Smallest length >= n with no prime factor above 7: pocketfft handles
    those directly, and a prime length such as 79 is several times slower."""
    while True:
        m = n
        for p in (2, 3, 5, 7):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _peak_offsets(c_minus, c0, c_plus, ok) -> np.ndarray:
    """Vertex of the parabola through three scores, clipped to +-0.5 px;
    0 where `ok` is false or the parabola is flat."""
    denom = c_minus - 2.0 * c0 + c_plus
    ok = ok & (np.abs(denom) >= 1e-12)
    with np.errstate(invalid="ignore"):     # masked neighbours are -inf
        off = 0.5 * (c_minus - c_plus) / np.where(ok, denom, 1.0)
    return np.where(ok, np.clip(off, -0.5, 0.5), 0.0)


def match_pixels(img_a: Raster, img_b: Raster, stride: int,
                 template_radius: int, search_window: int,
                 min_conf: float) -> PixelMatchSet:
    """Grid-keypoint NCC matching from `img_a` into `img_b`.

    Keypoints sit on a regular grid (spacing `stride`). Each (2r+1)^2 template
    is correlated over displacements up to +-search_window/2, clipped so the
    matched window stays inside `img_b`; a keypoint whose clipped range is
    empty is skipped. The best score becomes the confidence (negatives clamp
    to 0, scores below `min_conf` are dropped); a window of `img_b` without
    variance scores -1, and textureless templates never match. Unless the
    peak is a perfect 1.0, a parabola through its neighbours on each axis
    gives a sub-pixel offset of at most half a pixel.

    Window sums and sums of squares of `img_b` come once per image from
    separable running sums. The numerators of one grid row of keypoints
    come from one batched real FFT over each keypoint's search region,
    which all have the same size: out-of-range displacements are masked,
    and the argmax, confidence and sub-pixel step run over the whole row at
    once. The extra memory is O(keypoints per row x search region), the
    region being at most (search_window + 2r + 1)^2 and never more than
    `img_b`. The FFT rounds
    differently from a direct sum (about 1e-15 in the score), so where two
    displacements score equal to that precision either may win.
    """
    a = img_a.gray()
    b = img_b.gray()
    r = int(template_radius)
    half = int(search_window) // 2
    if 2 * r + 1 > min(a.shape) or 2 * r + 1 > min(b.shape):
        raise ImageTooSmall(
            f"template radius {r} too large for images {a.shape} / {b.shape}")

    d = 2 * r + 1
    hb, wb = b.shape
    sums = _box_sums(b, d)
    var = _box_sums(b * b, d) - sums * sums / (d * d)
    sd_b = np.sqrt(np.maximum(var, 0.0))    # sd_b[y - r, x - r]: window at (x, y)
    tpl_a = np.lib.stride_tricks.sliding_window_view(a, (d, d))

    # Every keypoint of a grid row searches the same rows of img_b. Along x
    # each gets a block of nx window centres, the most any clipped range
    # holds, starting at its range or shifted left to stay inside img_b.
    us = np.arange(r, a.shape[1] - r, stride)
    x_lo = np.maximum(us - half, r)
    x_hi = np.minimum(us + half, wb - 1 - r)
    nx = min(2 * half + 1, wb - 2 * r)
    x0 = np.minimum(x_lo, wb - r - nx)
    cx = x0[:, None] + np.arange(nx)
    in_range = (cx >= x_lo[:, None]) & (cx <= x_hi[:, None])

    rows = []
    for v in range(r, a.shape[0] - r, stride):
        y_lo = max(v - half, r)
        y_hi = min(v + half, hb - 1 - r)
        if y_hi < y_lo:
            continue
        tpl = tpl_a[v - r, us - r]
        t = tpl - tpl.mean(axis=(1, 2), keepdims=True)
        t_norm = np.sqrt((t * t).sum(axis=(1, 2)))
        k = np.flatnonzero((x_hi >= x_lo) & (t_norm >= 1e-9))
        if len(k) == 0:
            continue

        ny = y_hi - y_lo + 1
        shape = (ny + 2 * r, nx + 2 * r)
        region = np.lib.stride_tricks.sliding_window_view(
            b[y_lo - r:y_hi + r + 1], shape)[0, x0[k] - r]
        # zero padding beyond the region wraps nothing into [:ny, :nx]
        fft_shape = (_fft_len(shape[0]), _fft_len(shape[1]))
        num = np.fft.irfft2(np.fft.rfft2(region, s=fft_shape)
                            * np.fft.rfft2(t[k], s=fft_shape).conj(),
                            s=fft_shape)[:, :ny, :nx]
        sd = sd_b[y_lo - r:y_hi - r + 1][:, cx[k] - r].transpose(1, 0, 2)
        denom = t_norm[k, None, None] * sd
        with np.errstate(divide="ignore", invalid="ignore"):
            ncc = np.where(denom > 1e-9, num / denom, -1.0)
        ncc = np.where(in_range[k, None, :], ncc, -np.inf)

        iy, ix = np.divmod(ncc.reshape(len(k), -1).argmax(axis=1), nx)
        j = np.arange(len(k))
        score = ncc[j, iy, ix]
        conf = np.clip(score, 0.0, 1.0)
        mv = (y_lo + iy).astype(np.float64)
        mu = (x0[k] + ix).astype(np.float64)
        # a perfect integer peak cannot be improved by interpolation
        fine = score < 1.0 - 1e-9
        xm, xp = np.maximum(ix - 1, 0), np.minimum(ix + 1, nx - 1)
        ym, yp = np.maximum(iy - 1, 0), np.minimum(iy + 1, ny - 1)
        mu += _peak_offsets(ncc[j, iy, xm], score, ncc[j, iy, xp],
                            fine & (mu > x_lo[k]) & (mu < x_hi[k]))
        mv += _peak_offsets(ncc[j, ym, ix], score, ncc[j, yp, ix],
                            fine & (iy > 0) & (iy < ny - 1))
        keep = conf >= min_conf
        rows.append(np.column_stack([us[k], np.full(len(k), v), mu, mv,
                                     conf])[keep])

    matches = np.concatenate(rows) if rows else np.zeros((0, 5))
    return PixelMatchSet((img_a.image_id, img_b.image_id), matches)
