"""Input checks shared by every layer; a leaf module, so no layer imports
another's private helpers."""
import numpy as np


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
