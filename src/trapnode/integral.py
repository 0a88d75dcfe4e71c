"""Integral images and O(1) rectangle sums.

An integral image holds the sum of all source pixels in the inclusive
rectangle (0,0)-(x,y). The host stores it as a zero-padded float64 plane,
with that sum at (y+1, x+1) and zeros in row and column 0, so any rectangle
sum is four unconditional corner reads. The detector's tile scan and the
trainer's hard-negative miner read these planes in place, and
`trainer.WindowStack` stacks planes of the same layout. The MAX_PIXELS
guard keeps every entry, squared sums included, far below 2^53, so the
planes hold exact integers.

The host planes take 8 B per pixel. The MCU keeps a 4 B/px uint32 plane, and
that is what `detector.ScratchBudget`'s `ii_only` mode still charges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imaging import GrayImage

# 8-bit pixels over more than 2^24 of them can overflow the MCU's 32-bit
# accumulator. Below it, squared sums stay under 2^40.
MAX_PIXELS = 1 << 24


class ImageTooLarge(ValueError):
    """width*height exceeds the 32-bit accumulator guard."""


class RectOutOfBounds(ValueError):
    """Rectangle does not fit inside the raster it indexes."""


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle: top-left (x, y), extent (w, h), w,h >= 1."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w < 1 or self.h < 1:
            raise ValueError(f"rect extent must be >= 1, got {self.w}x{self.h}")
        if self.x < 0 or self.y < 0:
            raise ValueError(f"rect origin must be >= 0, got ({self.x},{self.y})")

    @property
    def area(self) -> int:
        return self.w * self.h


@dataclass(frozen=True)
class IntegralImage:
    """Zero-padded float64 prefix-sum planes of a raster.

    `plane[y+1, x+1]` is the sum of the pixels in (0,0)-(x,y); row and
    column 0 are zero. `squares`, when built, holds the same sums of the
    squared pixels.
    """

    plane: np.ndarray
    squares: np.ndarray | None = None

    def __post_init__(self):
        self.plane.setflags(write=False)
        if self.squares is not None:
            self.squares.setflags(write=False)

    @property
    def sums(self) -> np.ndarray:
        """The unpadded prefix sums: sums[y, x] = plane[y+1, x+1]."""
        return self.plane[1:, 1:]

    @property
    def width(self) -> int:
        return self.plane.shape[1] - 1

    @property
    def height(self) -> int:
        return self.plane.shape[0] - 1


def _padded_prefix_sums(values: np.ndarray) -> np.ndarray:
    """Float64 prefix sums over the last two axes of `values`, each 2-D
    slice zero-padded by one leading row and column."""
    *lead, h, w = values.shape
    plane = np.zeros((*lead, h + 1, w + 1))
    inner = plane[..., 1:, 1:]
    np.cumsum(values, axis=-2, dtype=np.float64, out=inner)
    np.cumsum(inner, axis=-1, out=inner)
    return plane


def build_integral(img: GrayImage, with_squares: bool = False) -> IntegralImage:
    """Compute the prefix-sum plane (and optionally the squared-pixel one)."""
    if img.width * img.height > MAX_PIXELS:
        raise ImageTooLarge(
            f"{img.width}x{img.height} exceeds {MAX_PIXELS} pixels; "
            "32-bit sums could overflow"
        )
    squares = None
    if with_squares:
        squares = _padded_prefix_sums(np.square(img.pixels, dtype=np.float64))
    return IntegralImage(_padded_prefix_sums(img.pixels), squares)


def rect_sum(ii: IntegralImage, r: Rect) -> int:
    """Sum of source pixels inside `r` using four corner reads."""
    if r.x + r.w > ii.width or r.y + r.h > ii.height:
        raise RectOutOfBounds(
            f"rect {r} outside {ii.width}x{ii.height} raster"
        )
    p = ii.plane
    x2, y2 = r.x + r.w, r.y + r.h
    return int(p[y2, x2] - p[r.y, x2] - p[y2, r.x] + p[r.y, r.x])
