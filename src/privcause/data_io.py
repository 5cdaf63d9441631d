"""Loading, normalizing, splitting, and synthesizing bivariate sample pairs.

File format: whitespace-separated numeric columns x y, one pair per line.
Blank lines and lines starting with '#' are skipped.  An optional sidecar
``<name>.truth`` holds the ground-truth arrow ``->`` or ``<-``.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._arrays import as_vector
from .privacy import derive_rng
from .scores import DegenerateDataError

__all__ = [
    "SamplePairs",
    "SplitData",
    "SyntheticSpec",
    "check_test_fraction",
    "load_pairs_file",
    "write_pairs_file",
    "normalize",
    "split",
    "split_sizes",
    "synth_anm",
    "SYNTH_SHAPES",
]

X_CAUSES_Y = "x->y"
Y_CAUSES_X = "y->x"

SYNTH_SHAPES = ("cubic", "sigmoid", "linear-gaussian")


@dataclass(frozen=True)
class SamplePairs:
    x: np.ndarray
    y: np.ndarray
    id: str
    ground_truth: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", as_vector(self.x, "x"))
        object.__setattr__(self, "y", as_vector(self.y, "y"))
        if self.x.size != self.y.size:
            raise ValueError(f"length mismatch: {self.x.size} vs {self.y.size}")
        if self.x.size == 0:
            raise ValueError("no sample pairs")
        if self.ground_truth not in (None, X_CAUSES_Y, Y_CAUSES_X):
            raise ValueError(f"bad ground truth label: {self.ground_truth!r}")

    def __len__(self) -> int:
        return int(self.x.size)


@dataclass(frozen=True)
class SyntheticSpec:
    """What :func:`synth_anm` draws; the one place its arguments are checked."""

    shape: str
    n_total: int = 500
    noise_level: float = 0.3

    def __post_init__(self) -> None:
        if self.shape not in SYNTH_SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}; pick one of {SYNTH_SHAPES}")
        if self.n_total < 8:
            raise ValueError("need at least 8 samples of synthetic data")
        if not (self.noise_level >= 0 and math.isfinite(self.noise_level)):
            raise ValueError(f"noise_level must be nonnegative and finite, got {self.noise_level}")

    @property
    def label(self) -> str:
        return f"synth-{self.shape}-n{self.n_total}-noise{self.noise_level:g}"


@dataclass(frozen=True)
class SplitData:
    train: SamplePairs
    test: SamplePairs


# resolved path -> (SHA-256 of the file's bytes, of the sidecar's bytes or
# None, the pairs parsed from them)
_PARSED: dict[Path, tuple[bytes, bytes | None, SamplePairs]] = {}


def _digest(data: bytes | None) -> bytes | None:
    return None if data is None else hashlib.sha256(data).digest()


def load_pairs_file(path) -> SamplePairs:
    """Parse a two-column pairs file; malformed lines raise with their
    line number.  Reads ``<path>.truth`` for the causal arrow if present.

    A process parses a file once while its bytes and its sidecar's bytes are
    unchanged: a later call reads both, compares their SHA-256 digests with
    the kept ones and returns the same object, whose arrays are read-only;
    only a file that is parsed is decoded, as UTF-8.  A file that fails to
    parse is kept nowhere."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such pairs file: {p}")
    data = p.read_bytes()
    sidecar = p.with_suffix(p.suffix + ".truth")
    truth_data = sidecar.read_bytes() if sidecar.exists() else None
    key, digests = p.resolve(), (_digest(data), _digest(truth_data))
    kept = _PARSED.get(key)
    if kept is not None and kept[:2] == digests and kept[2].id == p.stem:
        return kept[2]
    text = data.decode()
    truth_text = None if truth_data is None else truth_data.decode()
    xs: list[float] = []
    ys: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{p}:{lineno}: expected 2 columns, got {len(fields)}")
        try:
            vx, vy = float(fields[0]), float(fields[1])
        except ValueError as exc:
            raise ValueError(f"{p}:{lineno}: non-numeric field: {exc}") from None
        if not (math.isfinite(vx) and math.isfinite(vy)):
            raise ValueError(f"{p}:{lineno}: non-finite value")
        xs.append(vx)
        ys.append(vy)
    if not xs:
        raise ValueError(f"{p}: no data rows")
    samples = SamplePairs(np.array(xs), np.array(ys), id=p.stem, ground_truth=_truth_arrow(sidecar, truth_text))
    samples.x.flags.writeable = samples.y.flags.writeable = False
    _PARSED[key] = (*digests, samples)
    return samples


def _truth_arrow(sidecar: Path, text: str | None) -> str | None:
    if text is None:
        return None
    arrow = text.strip()
    if arrow == "->":
        return X_CAUSES_Y
    if arrow == "<-":
        return Y_CAUSES_X
    raise ValueError(f"{sidecar}: expected '->' or '<-', got {arrow!r}")


def write_pairs_file(samples: SamplePairs, path) -> None:
    """Write pairs with full precision; round-trips through load_pairs_file."""
    p = Path(path)
    lines = [f"{vx:.17g} {vy:.17g}" for vx, vy in zip(samples.x, samples.y)]
    p.write_text("\n".join(lines) + "\n")
    if samples.ground_truth is not None:
        arrow = "->" if samples.ground_truth == X_CAUSES_Y else "<-"
        p.with_suffix(p.suffix + ".truth").write_text(arrow + "\n")


def normalize(samples: SamplePairs) -> SamplePairs:
    """Min-max map each coordinate onto [-1, 1] (endpoints hit exactly).

    Idempotent up to floating point.  A constant coordinate has no range
    to map and raises DegenerateDataError.  The affine parameters are
    recorded in the id so reports can refer back to the original scale.
    """
    out, ranges = [], []
    for name, v in (("x", samples.x), ("y", samples.y)):
        vmin, vmax = float(np.min(v)), float(np.max(v))
        if vmax <= vmin:
            raise DegenerateDataError(f"coordinate {name} is constant; cannot normalize")
        if not math.isfinite(2.0 * (vmax - vmin)):
            raise ValueError(f"coordinate {name} spans a range too wide to map without overflow")
        out.append(2.0 * (v - vmin) / (vmax - vmin) - 1.0)
        ranges.append(f"{name}[{vmin:.6g},{vmax:.6g}]")
    return replace(samples, x=out[0], y=out[1], id=f"{samples.id}|norm:{','.join(ranges)}")


def check_test_fraction(test_fraction: float) -> None:
    """The split's rule: a held-out share strictly between 0 and 1."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")


def split_sizes(n_total: int, test_fraction: float) -> tuple[int, int]:
    """The split's size rule: (train, test) sizes of n_total pairs, the
    test set round(n_total * test_fraction) of them; at least one training
    pair and four test pairs."""
    check_test_fraction(test_fraction)
    m = int(round(n_total * test_fraction))
    n = n_total - m
    if m < 4 or n < 1:
        raise ValueError(f"split too small: train={n}, test={m} (need n >= 1, m >= 4)")
    return n, m


def split(samples: SamplePairs, test_fraction: float, seed: int) -> SplitData:
    """Seeded uniform partition into train and test, of the sizes
    :func:`split_sizes` gives.  Identical (samples, fraction, seed) always
    produce the identical partition.
    """
    n_total = len(samples)
    m = split_sizes(n_total, test_fraction)[1]
    perm = derive_rng(seed, "split", samples.id, n_total).permutation(n_total)
    te, tr = perm[:m], perm[m:]
    mk = lambda idx, part: replace(
        samples, x=samples.x[idx], y=samples.y[idx], id=f"{samples.id}|{part}"
    )
    return SplitData(train=mk(tr, "train"), test=mk(te, "test"))


def synth_anm(shape: str, n_total: int, noise_level: float, seed: int) -> SamplePairs:
    """Synthetic cause-effect pairs with known direction, normalized to [-1, 1].

    cubic:            X ~ U[-1,1],  Y = X^3 + noise_level * U[-1,1]
    sigmoid:          X ~ U[-1,1],  Y = tanh(3X) + noise_level * U[-1,1]
    linear-gaussian:  X ~ N(0,1),   Y = 0.8X + noise_level * N(0,1)

    The linear-gaussian shape is the classic non-identifiable case (its id
    carries a ``nonidentifiable`` flag); an additive-noise test cannot beat
    coin flipping on it.  Ground truth is always x->y.
    """
    spec = SyntheticSpec(shape, n_total, noise_level)
    rng = derive_rng(seed, "synth", shape, n_total, noise_level)
    if shape == "cubic":
        x = rng.uniform(-1.0, 1.0, n_total)
        y = x**3 + noise_level * rng.uniform(-1.0, 1.0, n_total)
    elif shape == "sigmoid":
        x = rng.uniform(-1.0, 1.0, n_total)
        y = np.tanh(3.0 * x) + noise_level * rng.uniform(-1.0, 1.0, n_total)
    else:
        x = rng.standard_normal(n_total)
        y = 0.8 * x + noise_level * rng.standard_normal(n_total)
    tag = f"{spec.label}-seed{seed}"
    if shape == "linear-gaussian":
        tag += "-nonidentifiable"
    raw = SamplePairs(x, y, id=tag, ground_truth=X_CAUSES_Y)
    return normalize(raw)
