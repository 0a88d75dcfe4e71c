import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trapnode.imaging import GrayImage
from trapnode.integral import (ImageTooLarge, IntegralImage, Rect,
                               RectOutOfBounds, build_integral, rect_sum)


def naive_rect_sum(pixels: np.ndarray, r: Rect) -> int:
    return int(pixels[r.y : r.y + r.h, r.x : r.x + r.w].astype(np.int64).sum())


def test_hand_prefix_sums():
    img = GrayImage(np.array([[1, 2], [3, 4]], dtype=np.uint8))
    ii = build_integral(img)
    assert ii.sums.tolist() == [[1, 3], [4, 10]]


def test_all_zero_image():
    ii = build_integral(GrayImage(np.zeros((5, 9), dtype=np.uint8)))
    assert not ii.sums.any()


def test_every_entry_matches_naive_double_loop():
    rng = np.random.default_rng(10)
    px = rng.integers(0, 256, size=(23, 37), dtype=np.uint8)
    ii = build_integral(GrayImage(px))
    for y in range(23):
        for x in range(37):
            expected = int(px[: y + 1, : x + 1].astype(np.int64).sum())
            assert int(ii.sums[y, x]) == expected


def test_overflow_guard():
    big = GrayImage(np.zeros((4097, 4097), dtype=np.uint8))
    with pytest.raises(ImageTooLarge):
        build_integral(big)


def test_rect_sum_full_image():
    img = GrayImage(np.array([[1, 2], [3, 4]], dtype=np.uint8))
    ii = build_integral(img)
    assert rect_sum(ii, Rect(0, 0, 2, 2)) == 10


def test_rect_sum_single_pixels():
    rng = np.random.default_rng(11)
    px = rng.integers(0, 256, size=(12, 17), dtype=np.uint8)
    ii = build_integral(GrayImage(px))
    for y in range(12):
        for x in range(17):
            assert rect_sum(ii, Rect(x, y, 1, 1)) == int(px[y, x])


def test_rect_sum_random_rects_match_naive():
    rng = np.random.default_rng(12)
    px = rng.integers(0, 256, size=(31, 45), dtype=np.uint8)
    ii = build_integral(GrayImage(px))
    for _ in range(500):
        w = int(rng.integers(1, 45 + 1))
        h = int(rng.integers(1, 31 + 1))
        x = int(rng.integers(0, 45 - w + 1))
        y = int(rng.integers(0, 31 - h + 1))
        r = Rect(x, y, w, h)
        assert rect_sum(ii, r) == naive_rect_sum(px, r)


def test_rect_sum_out_of_bounds():
    ii = build_integral(GrayImage(np.zeros((4, 4), dtype=np.uint8)))
    with pytest.raises(RectOutOfBounds):
        rect_sum(ii, Rect(2, 2, 3, 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_additivity_of_partitions(data):
    rng = np.random.default_rng(13)
    px = rng.integers(0, 256, size=(20, 20), dtype=np.uint8)
    ii = build_integral(GrayImage(px))
    x = data.draw(st.integers(0, 18))
    y = data.draw(st.integers(0, 18))
    w = data.draw(st.integers(2, 20 - x))
    h = data.draw(st.integers(1, 20 - y))
    cut = data.draw(st.integers(1, w - 1))
    whole = rect_sum(ii, Rect(x, y, w, h))
    left = rect_sum(ii, Rect(x, y, cut, h))
    right = rect_sum(ii, Rect(x + cut, y, w - cut, h))
    assert left + right == whole


def test_translation_consistency():
    rng = np.random.default_rng(14)
    px = rng.integers(0, 256, size=(10, 10), dtype=np.uint8)
    r = Rect(2, 3, 4, 5)
    base = rect_sum(build_integral(GrayImage(px)), r)
    for dx, dy in ((3, 0), (0, 4), (5, 7)):
        canvas = np.zeros((10 + dy, 10 + dx), dtype=np.uint8)
        canvas[dy:, dx:] = px
        shifted = Rect(r.x + dx, r.y + dy, r.w, r.h)
        assert rect_sum(build_integral(GrayImage(canvas)), shifted) == base


def test_squared_sums_match_naive():
    rng = np.random.default_rng(15)
    px = rng.integers(0, 256, size=(9, 9), dtype=np.uint8)
    ii = build_integral(GrayImage(px), with_squares=True)
    sq = px.astype(np.int64) ** 2
    for _ in range(100):
        w = int(rng.integers(1, 10))
        h = int(rng.integers(1, 10))
        x = int(rng.integers(0, 9 - w + 1))
        y = int(rng.integers(0, 9 - h + 1))
        expected = int(sq[y : y + h, x : x + w].sum())
        got = rect_sum(IntegralImage(ii.squares), Rect(x, y, w, h))
        assert got == expected

