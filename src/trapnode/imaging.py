"""8-bit grayscale images: container, binary PGM I/O, sensor noise, downscaling.

Images are immutable after construction: the pixel array is marked
read-only, so a slice taken of an image (a scan block, pyramid level 0)
cannot change it. All operations are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PgmError(ValueError):
    """Base class for PGM decoding failures."""


class MalformedHeader(PgmError):
    """Magic number, dimensions, or maxval could not be parsed."""


class MaxvalUnsupported(PgmError):
    """Only maxval 255 (single-byte samples) is supported."""


class TruncatedData(PgmError):
    """Pixel payload shorter than width*height."""


@dataclass(frozen=True)
class GrayImage:
    """Row-major 8-bit grayscale raster.

    `pixels` is a (height, width) uint8 array. It is marked read-only, so a
    GrayImage built on a view of another's pixels (a tile, a scan block)
    shares them without a copy, and neither can be written through.
    """

    pixels: np.ndarray

    def __post_init__(self):
        px = self.pixels
        if px.ndim != 2:
            raise ValueError(f"pixels must be 2-D, got shape {px.shape}")
        if px.dtype != np.uint8:
            raise ValueError(f"pixels must be uint8, got {px.dtype}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("image must be at least 1x1")
        px.setflags(write=False)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Skips whitespace and '#' comment lines, returns (token, next position).
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise MalformedHeader("unexpected end of header")
    return data[start:pos], pos


def load_pgm(data: bytes) -> GrayImage:
    """Decode a binary (P5) PGM byte stream with maxval 255.

    Raises MalformedHeader, MaxvalUnsupported, or TruncatedData depending on
    what is wrong with the stream.
    """
    if data[:2] != b"P5":
        raise MalformedHeader("not a binary PGM (missing P5 magic)")
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _next_token(data, pos)
        try:
            # ASCII decimal digits only: int() alone also takes b"+40" and
            # b"2_0", and raises ValueError past its digit limit.
            if not tok.isdigit():
                raise ValueError(tok)
            fields.append(int(tok))
        except ValueError:
            raise MalformedHeader(f"non-numeric header field {tok!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise MalformedHeader(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise MaxvalUnsupported(f"maxval {maxval} not supported (only 255)")
    # Exactly one whitespace byte separates the header from the payload.
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise MalformedHeader("missing separator before pixel data")
    pos += 1
    payload = data[pos : pos + width * height]
    if len(payload) < width * height:
        raise TruncatedData(
            f"expected {width * height} pixel bytes, got {len(payload)}"
        )
    px = np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()
    return GrayImage(px)


def save_pgm(img: GrayImage) -> bytes:
    """Encode as binary PGM; load_pgm(save_pgm(img)) is the identity."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def sensor_degrade(img: GrayImage, sigma: float, seed: int) -> GrayImage:
    """Mimic a low-quality sensor: add i.i.d. Gaussian noise, clamp to 8 bits.

    out[i] = clamp(round(in[i] + N(0, sigma^2)), 0, 255). Deterministic for a
    fixed seed; sigma = 0 returns a pixel-identical image.
    """
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    rng = np.random.default_rng(seed)
    noisy = img.pixels.astype(np.float64) + rng.normal(0.0, sigma, img.pixels.shape)
    out = np.clip(np.rint(noisy), 0, 255).astype(np.uint8)
    return GrayImage(out)


def downscale(img: GrayImage, new_w: int, new_h: int) -> GrayImage:
    """Bilinear downscale with half-pixel-centered sampling.

    Output pixel (i, j) samples the source at
    ((j + 0.5) * W/new_w - 0.5, (i + 0.5) * H/new_h - 0.5), interpolates the
    four neighbours and rounds half up. Upscaling is rejected.
    """
    if new_w < 1 or new_h < 1:
        raise ValueError("target dimensions must be >= 1")
    if new_w > img.width or new_h > img.height:
        raise ValueError(
            f"upscaling not supported: {img.width}x{img.height} -> {new_w}x{new_h}"
        )
    if new_w == img.width and new_h == img.height:
        return GrayImage(img.pixels.copy())

    xs = (np.arange(new_w) + 0.5) * (img.width / new_w) - 0.5
    ys = (np.arange(new_h) + 0.5) * (img.height / new_h) - 0.5
    xs = np.clip(xs, 0.0, img.width - 1.0)
    ys = np.clip(ys, 0.0, img.height - 1.0)

    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, img.width - 1)
    y1 = np.minimum(y0 + 1, img.height - 1)
    tx = xs - x0
    ty = ys - y0

    # Rows, then columns, gathered as uint8; each product with a float64
    # weight converts the pixel exactly, so the arithmetic is unchanged.
    r0, r1 = img.pixels[y0], img.pixels[y1]
    top = r0[:, x0] * (1.0 - tx) + r0[:, x1] * tx
    bot = r1[:, x0] * (1.0 - tx) + r1[:, x1] * tx
    val = top * (1.0 - ty[:, None]) + bot * ty[:, None]
    out = np.clip(np.floor(val + 0.5), 0, 255).astype(np.uint8)
    return GrayImage(out)
