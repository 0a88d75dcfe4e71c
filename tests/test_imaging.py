import math
import random

import numpy as np
import pytest

from trapnode.imaging import (GrayImage, MalformedHeader, MaxvalUnsupported,
                              TruncatedData, downscale, load_pgm, save_pgm,
                              sensor_degrade)


def test_load_pgm_basic_decode():
    data = b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])
    img = load_pgm(data)
    assert img.width == 2 and img.height == 2
    assert img.pixels.tolist() == [[0, 255], [128, 64]]


def test_load_pgm_comments_and_whitespace():
    data = b"P5\n# a comment\n 2\t2 # trailing\n255\n" + bytes(4)
    img = load_pgm(data)
    assert (img.width, img.height) == (2, 2)


def test_load_pgm_maxval_unsupported():
    data = b"P5\n2 2\n65535\n" + bytes(8)
    with pytest.raises(MaxvalUnsupported):
        load_pgm(data)


def test_load_pgm_truncated():
    data = b"P5\n4 4\n255\n" + bytes(7)
    with pytest.raises(TruncatedData):
        load_pgm(data)


def test_load_pgm_malformed():
    with pytest.raises(MalformedHeader):
        load_pgm(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(MalformedHeader):
        load_pgm(b"P5\nx 2\n255\n" + bytes(4))
    with pytest.raises(MalformedHeader):
        load_pgm(b"P5\n2 2")


def test_load_pgm_header_fields_are_ascii_digits():
    # int() alone reads b"+2" as 2 and b"0_2" as 2.
    for field in (b"+2", b"0_2", b"-2", "\uff12".encode(), b"9" * 5000):
        with pytest.raises(MalformedHeader, match="non-numeric header field"):
            load_pgm(b"P5\n" + field + b" 2\n255\n" + bytes(4))
    assert load_pgm(b"P5\n002 2\n255\n" + bytes(4)).width == 2


def test_320x240_payload_is_76800_pixels():
    # 320x240 8-bit occupies exactly 76800 bytes
    payload = bytes(range(256)) * 300
    img = load_pgm(b"P5\n320 240\n255\n" + payload)
    assert img.pixels.size == 76_800
    assert img.pixels.tobytes() == payload


def test_save_load_round_trip():
    rng = np.random.default_rng(1)
    img = GrayImage(rng.integers(0, 256, size=(13, 29), dtype=np.uint8))
    again = load_pgm(save_pgm(img))
    assert np.array_equal(img.pixels, again.pixels)


def test_sensor_degrade_zero_sigma_is_identity():
    rng = np.random.default_rng(2)
    img = GrayImage(rng.integers(0, 256, size=(10, 10), dtype=np.uint8))
    out = sensor_degrade(img, 0.0, seed=3)
    assert np.array_equal(img.pixels, out.pixels)


def test_sensor_degrade_deterministic():
    rng = np.random.default_rng(4)
    img = GrayImage(rng.integers(0, 256, size=(30, 40), dtype=np.uint8))
    a = sensor_degrade(img, 10.0, seed=7)
    b = sensor_degrade(img, 10.0, seed=7)
    assert np.array_equal(a.pixels, b.pixels)
    c = sensor_degrade(img, 10.0, seed=8)
    assert not np.array_equal(a.pixels, c.pixels)


def test_sensor_degrade_statistics_match_scalar_reference():
    # constant-128 image, sigma 10, 76800 pixels: sample mean within 128 +- 1,
    # sample std within 10 +- 15%. A scalar clamped-Gaussian sampler written
    # independently must land in the same band.
    img = GrayImage(np.full((240, 320), 128, dtype=np.uint8))
    out = sensor_degrade(img, 10.0, seed=11).pixels.astype(np.float64)
    assert abs(out.mean() - 128.0) <= 1.0
    assert abs(out.std() - 10.0) <= 1.5

    ref_rng = random.Random(99)
    ref = [
        min(max(round(128 + ref_rng.gauss(0.0, 10.0)), 0), 255)
        for _ in range(76_800)
    ]
    ref_mean = sum(ref) / len(ref)
    ref_var = sum((v - ref_mean) ** 2 for v in ref) / len(ref)
    assert abs(ref_mean - 128.0) <= 1.0
    assert abs(math.sqrt(ref_var) - 10.0) <= 1.5


def _scalar_bilinear(pixels, new_w, new_h):
    # Independent scalar reference: half-pixel-centered bilinear, half-up
    # rounding.
    src_h = len(pixels)
    src_w = len(pixels[0])
    out = []
    for i in range(new_h):
        row = []
        for j in range(new_w):
            sx = min(max((j + 0.5) * src_w / new_w - 0.5, 0.0), src_w - 1.0)
            sy = min(max((i + 0.5) * src_h / new_h - 0.5, 0.0), src_h - 1.0)
            x0, y0 = int(math.floor(sx)), int(math.floor(sy))
            x1, y1 = min(x0 + 1, src_w - 1), min(y0 + 1, src_h - 1)
            tx, ty = sx - x0, sy - y0
            top = pixels[y0][x0] * (1 - tx) + pixels[y0][x1] * tx
            bot = pixels[y1][x0] * (1 - tx) + pixels[y1][x1] * tx
            row.append(int(math.floor(top * (1 - ty) + bot * ty + 0.5)))
        out.append(row)
    return out


def test_downscale_identity_dims():
    rng = np.random.default_rng(5)
    img = GrayImage(rng.integers(0, 256, size=(9, 7), dtype=np.uint8))
    out = downscale(img, 7, 9)
    assert np.array_equal(img.pixels, out.pixels)


def test_downscale_constant_image():
    img = GrayImage(np.full((12, 18), 77, dtype=np.uint8))
    out = downscale(img, 5, 4)
    assert np.all(out.pixels == 77)


def test_downscale_ramp_matches_scalar_reference():
    ramp = np.arange(16, dtype=np.uint8).reshape(4, 4) * 16
    img = GrayImage(ramp)
    out = downscale(img, 2, 2)
    expected = _scalar_bilinear(ramp.tolist(), 2, 2)
    assert out.pixels.tolist() == expected


def test_downscale_matches_scalar_reference_random():
    rng = np.random.default_rng(6)
    for _ in range(10):
        h = int(rng.integers(3, 24))
        w = int(rng.integers(3, 24))
        nh = int(rng.integers(1, h + 1))
        nw = int(rng.integers(1, w + 1))
        px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        out = downscale(GrayImage(px), nw, nh)
        assert out.pixels.tolist() == _scalar_bilinear(px.tolist(), nw, nh)


def _float64_downscale(pixels, new_w, new_h):
    # The vectorized formula on a float64 copy of the frame, gathered by
    # (row, column) pairs, as downscale computed it before it gathered uint8.
    h, w = pixels.shape
    src = pixels.astype(np.float64)
    xs = np.clip((np.arange(new_w) + 0.5) * (w / new_w) - 0.5, 0.0, w - 1.0)
    ys = np.clip((np.arange(new_h) + 0.5) * (h / new_h) - 0.5, 0.0, h - 1.0)
    x0, y0 = np.floor(xs).astype(np.int64), np.floor(ys).astype(np.int64)
    x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
    tx, ty = xs - x0, ys - y0
    top = src[y0[:, None], x0[None, :]] * (1.0 - tx) + src[y0[:, None], x1[None, :]] * tx
    bot = src[y1[:, None], x0[None, :]] * (1.0 - tx) + src[y1[:, None], x1[None, :]] * tx
    val = top * (1.0 - ty[:, None]) + bot * ty[:, None]
    return np.clip(np.floor(val + 0.5), 0, 255).astype(np.uint8)


def test_downscale_matches_float64_formula():
    rng = np.random.default_rng(8)
    sizes = [(int(rng.integers(1, 90)), int(rng.integers(1, 90))) for _ in range(40)]
    sizes += [(320, 240), (97, 61), (1, 1), (1, 33), (29, 1)]
    for w, h in sizes:
        px = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        targets = [(int(rng.integers(1, w + 1)), int(rng.integers(1, h + 1))),
                   (1, 1), (1, h), (w, 1), (max(1, w * 2 // 3), max(1, h * 5 // 7))]
        for nw, nh in targets:
            got = downscale(GrayImage(px), nw, nh).pixels
            assert np.array_equal(got, _float64_downscale(px, nw, nh)), (w, h, nw, nh)
    # The pyramid levels of a frame, at the detector's x1.1 steps.
    px = rng.integers(0, 256, size=(240, 320), dtype=np.uint8)
    for s in range(1, 5):
        nw, nh = int(320 / 1.1 ** s), int(240 / 1.1 ** s)
        assert np.array_equal(downscale(GrayImage(px), nw, nh).pixels,
                              _float64_downscale(px, nw, nh))


def test_downscale_preserves_value_bounds():
    rng = np.random.default_rng(7)
    px = rng.integers(40, 201, size=(30, 30), dtype=np.uint8)
    out = downscale(GrayImage(px), 11, 13)
    assert out.pixels.min() >= px.min() - 1
    assert out.pixels.max() <= px.max() + 1


def test_downscale_rejects_upscaling():
    img = GrayImage(np.zeros((5, 5), dtype=np.uint8))
    with pytest.raises(ValueError):
        downscale(img, 6, 5)
