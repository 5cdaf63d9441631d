"""Input checks and array helpers shared by every layer; a leaf module, so
no layer imports another's private helpers."""
import math

import numpy as np

# O(m^2) passes run in row blocks of about this many entries, which stay in
# cache across the elementwise passes over a block
_BLOCK_ENTRIES = 1 << 16


def as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def paired(a, b, min_len: int = 2) -> tuple[np.ndarray, np.ndarray]:
    va = as_vector(a, "a")
    vb = as_vector(b, "b")
    if va.size != vb.size:
        raise ValueError(f"length mismatch: {va.size} vs {vb.size}")
    if va.size < min_len:
        raise ValueError(f"need at least {min_len} samples, got {va.size}")
    return va, vb


def quantile_anchor(m: int, fraction: float) -> tuple[int, float]:
    """Base index j and weight t of the linear-interpolation quantile of m
    sorted values: it sits between order statistics j and j + 1."""
    pos = fraction * (m - 1)
    j = math.floor(pos)
    return j, pos - j


def quartiles(sorted_values: np.ndarray) -> tuple[float, float]:
    """The 0.25 and 0.75 linear-interpolation quantiles of a sorted vector
    of at least 2 values, bitwise those of np.quantile: the same base index
    and weight, and numpy's lerp, which interpolates from the nearer end."""
    out = []
    for fraction in (0.25, 0.75):
        j, t = quantile_anchor(sorted_values.size, fraction)
        a, b = float(sorted_values[j]), float(sorted_values[j + 1])
        diff = b - a
        out.append(b - diff * (1.0 - t) if t >= 0.5 else a + diff * t)
    return out[0], out[1]


def sorted_iqr(values) -> tuple[np.ndarray, float]:
    """A sorted copy of a vector of at least 4 finite values and its
    interquartile range q75 - q25 (:func:`quartiles`); each caller decides
    what a zero spread means."""
    v = np.sort(as_vector(values, "values"))
    if v.size < 4:
        raise ValueError(f"need at least 4 samples for an IQR, got {v.size}")
    q25, q75 = quartiles(v)
    return v, q75 - q25


def row_blocks(rows: int, cols: int):
    """Slices of consecutive rows covering range(rows), each of about
    _BLOCK_ENTRIES entries of a matrix with ``cols`` columns."""
    step = max(1, _BLOCK_ENTRIES // max(cols, 1))
    return (slice(start, start + step) for start in range(0, rows, step))


def double_center_in_place(mat: np.ndarray) -> np.ndarray:
    """Overwrite mat with ((mat - row means) - column means) + grand mean,
    the means taken before any change, and return it."""
    row = mat.mean(axis=1, keepdims=True)
    col = mat.mean(axis=0, keepdims=True)
    mean = mat.mean()
    mat -= row
    mat -= col
    mat += mean
    return mat
