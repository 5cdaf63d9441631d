"""Pairs-file parsing, normalization, splitting, and synthetic generators."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privcause import data_io
from privcause.data_io import (
    SYNTH_SHAPES,
    SamplePairs,
    X_CAUSES_Y,
    Y_CAUSES_X,
    load_pairs_file,
    normalize,
    split,
    synth_anm,
    write_pairs_file,
)
from privcause.scores import DegenerateDataError


def test_load_two_column_file(tmp_path):
    p = tmp_path / "demo.txt"
    p.write_text("# header comment\n1.0 2.0\n\n  3.5\t4.5  \n")
    pairs = load_pairs_file(p)
    assert pairs.id == "demo"
    assert list(pairs.x) == [1.0, 3.5]
    assert list(pairs.y) == [2.0, 4.5]
    assert pairs.ground_truth is None


def test_load_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 2\n3 4 5\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2: expected 2 columns"):
        load_pairs_file(p)
    p.write_text("1 2\nx 4\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2: non-numeric"):
        load_pairs_file(p)
    p.write_text("1 inf\n")
    with pytest.raises(ValueError, match=r"bad\.txt:1: non-finite"):
        load_pairs_file(p)
    # the first bad line is named, whatever is wrong with later ones;
    # comments and blank lines keep their numbers
    p.write_text("# c\n\n1 2\nx 4\n3 4 5\n")
    with pytest.raises(ValueError, match=r"bad\.txt:4: non-numeric"):
        load_pairs_file(p)
    p.write_text("1 2\n3 nan\n3 4 5\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2: non-finite"):
        load_pairs_file(p)
    p.write_text("# only comments\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_pairs_file(p)
    with pytest.raises(FileNotFoundError):
        load_pairs_file(tmp_path / "missing.txt")


def test_truth_sidecar(tmp_path):
    p = tmp_path / "arrows.txt"
    p.write_text("1 2\n2 3\n")
    (tmp_path / "arrows.txt.truth").write_text("->\n")
    assert load_pairs_file(p).ground_truth == X_CAUSES_Y
    (tmp_path / "arrows.txt.truth").write_text("<-\n")
    assert load_pairs_file(p).ground_truth == Y_CAUSES_X
    (tmp_path / "arrows.txt.truth").write_text("up\n")
    with pytest.raises(ValueError, match="expected '->' or '<-'"):
        load_pairs_file(p)


def test_write_then_load_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    pairs = SamplePairs(rng.normal(size=20), rng.normal(size=20), id="rt", ground_truth=X_CAUSES_Y)
    path = tmp_path / "rt.txt"
    write_pairs_file(pairs, path)
    back = load_pairs_file(path)
    assert np.array_equal(back.x, pairs.x)
    assert np.array_equal(back.y, pairs.y)
    assert back.ground_truth == X_CAUSES_Y


def test_a_file_is_parsed_once_while_its_texts_are_unchanged(tmp_path):
    p = tmp_path / "kept.txt"
    p.write_text("1 2\n3 4\n5 7\n")
    first = load_pairs_file(p)
    assert load_pairs_file(p) is first
    assert load_pairs_file(tmp_path / "." / "kept.txt") is first
    for values in (first.x, first.y):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0
    # same length, new contents: no timestamp or size is trusted
    p.write_text("1 2\n3 4\n5 8\n")
    rewritten = load_pairs_file(p)
    assert list(rewritten.y) == [2.0, 4.0, 8.0] and rewritten.ground_truth is None
    truth = tmp_path / "kept.txt.truth"
    truth.write_text("->\n")
    assert load_pairs_file(p).ground_truth == X_CAUSES_Y
    truth.write_text("<-\n")
    assert load_pairs_file(p).ground_truth == Y_CAUSES_X
    truth.unlink()
    assert load_pairs_file(p).ground_truth is None
    assert list(first.y) == [2.0, 4.0, 7.0]
    # a link to the same file names its own pairs
    (tmp_path / "alias.txt").symlink_to(p)
    assert load_pairs_file(tmp_path / "alias.txt").id == "alias"
    assert load_pairs_file(p).id == "kept"
    # the cache compares digests and keeps no copy of the text
    text = "".join(f"{i} {i * i}\n" for i in range(100))
    p.write_text(text)
    load_pairs_file(p)
    kept = data_io._PARSED[p.resolve()]
    assert not [v for v in kept if isinstance(v, (str, bytes)) and len(v) >= len(text)]


def test_a_kept_file_is_hashed_not_decoded(tmp_path, monkeypatch):
    p = tmp_path / "kept.txt"
    p.write_text("1 2\n3 4\n5 7\n")
    (tmp_path / "kept.txt.truth").write_text("->\n")
    first = load_pairs_file(p)

    def no_text(self, *args, **kwargs):
        raise AssertionError(f"{self} was decoded")

    monkeypatch.setattr(type(p), "read_text", no_text)
    assert load_pairs_file(p) is first


def test_a_malformed_file_fails_on_every_call_until_it_is_fixed(tmp_path):
    p = tmp_path / "bad.txt"
    truth = tmp_path / "bad.txt.truth"
    p.write_text("1 2\n3\n")
    truth.write_text("up\n")
    # the line error comes before the sidecar's, on every call
    for _ in range(2):
        with pytest.raises(ValueError, match=r"bad\.txt:2: expected 2 columns, got 1"):
            load_pairs_file(p)
    p.write_text("1 2\n3 4\n")
    for _ in range(2):
        with pytest.raises(ValueError, match="expected '->' or '<-', got 'up'"):
            load_pairs_file(p)
    truth.write_text("->\n")
    fixed = load_pairs_file(p)
    assert list(fixed.x) == [1.0, 3.0] and fixed.ground_truth == X_CAUSES_Y
    assert load_pairs_file(p) is fixed
    # a kept file that breaks is parsed again, not served from the old text
    p.write_text("1 2\n3 nan\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2: non-finite"):
        load_pairs_file(p)


def test_normalize_maps_onto_unit_box():
    pairs = SamplePairs([0.0, 5.0, 10.0], [3.0, 4.0, 5.0], id="n")
    scaled = normalize(pairs)
    assert list(scaled.x) == [-1.0, 0.0, 1.0]
    assert list(scaled.y) == [-1.0, 0.0, 1.0]
    assert "norm:" in scaled.id
    twice = normalize(scaled)
    assert np.allclose(twice.x, scaled.x, atol=1e-15)
    with pytest.raises(DegenerateDataError):
        normalize(SamplePairs([1.0, 1.0], [0.0, 1.0], id="flat"))


def test_normalize_refuses_a_range_whose_double_overflows():
    # finite data, but 2 (v - vmin) overflows inside the map for y
    with pytest.raises(ValueError, match="coordinate y spans a range too wide to map without overflow"):
        normalize(SamplePairs([0.0, 1.0, 2.0], [-8e307, 0.0, 8e307], id="wide"))
    # half that range still hits the endpoints exactly
    scaled = normalize(SamplePairs([0.0, 1.0, 2.0], [-4e307, 0.0, 4e307], id="wide"))
    assert list(scaled.y) == [-1.0, 0.0, 1.0]


def test_split_sizes_and_determinism():
    pairs = SamplePairs(np.arange(100.0), np.arange(100.0) * 2, id="s")
    parts = split(pairs, 0.5, seed=3)
    assert len(parts.train) == 50 and len(parts.test) == 50
    assert parts.train.id.endswith("|train") and parts.test.id.endswith("|test")
    again = split(pairs, 0.5, seed=3)
    assert np.array_equal(parts.test.x, again.test.x)
    other = split(pairs, 0.5, seed=4)
    assert not np.array_equal(parts.test.x, other.test.x)
    merged = np.sort(np.concatenate([parts.train.x, parts.test.x]))
    assert np.array_equal(merged, np.arange(100.0))
    # pairing survives the shuffle
    assert np.array_equal(parts.test.y, parts.test.x * 2)


def test_split_rejects_tiny_pieces():
    pairs = SamplePairs(np.arange(8.0), np.arange(8.0), id="t")
    with pytest.raises(ValueError, match="split too small"):
        split(pairs, 0.2, seed=0)  # test half would get 2 points
    with pytest.raises(ValueError):
        split(pairs, 1.0, seed=0)


def test_synth_shapes():
    for shape in SYNTH_SHAPES:
        pairs = synth_anm(shape, 200, 0.3, seed=11)
        assert len(pairs) == 200
        assert pairs.ground_truth == X_CAUSES_Y
        assert float(np.min(pairs.x)) == pytest.approx(-1.0)
        assert float(np.max(pairs.x)) == pytest.approx(1.0)
        assert float(np.max(np.abs(pairs.y))) <= 1.0
        repeat = synth_anm(shape, 200, 0.3, seed=11)
        assert np.array_equal(pairs.x, repeat.x)
        fresh = synth_anm(shape, 200, 0.3, seed=12)
        assert not np.array_equal(pairs.x, fresh.x)
    assert "nonidentifiable" in synth_anm("linear-gaussian", 50, 0.3, seed=0).id
    with pytest.raises(ValueError):
        synth_anm("quadratic", 100, 0.3, seed=0)
    with pytest.raises(ValueError):
        synth_anm("cubic", 4, 0.3, seed=0)
    with pytest.raises(ValueError):
        synth_anm("cubic", 100, -0.1, seed=0)


def test_sample_pairs_validation():
    with pytest.raises(ValueError):
        SamplePairs([1.0], [1.0, 2.0], id="m")
    with pytest.raises(ValueError):
        SamplePairs([], [], id="e")
    with pytest.raises(ValueError):
        SamplePairs([1.0], [1.0], id="g", ground_truth="sideways")


@given(
    st.integers(10, 120),
    st.floats(0.25, 0.75),
    st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_split_partitions_exactly(n, fraction, seed):
    x = np.arange(float(n))
    pairs = SamplePairs(x, -x, id="prop")
    m = int(round(n * fraction))
    if m < 4 or n - m < 1:
        return
    parts = split(pairs, fraction, seed)
    assert len(parts.test) == m
    assert len(parts.train) == n - m
    union = np.sort(np.concatenate([parts.train.x, parts.test.x]))
    assert np.array_equal(union, x)
