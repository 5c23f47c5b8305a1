"""Ablation geometry: chunk sizing, window placement, masking, touch queries."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import naive_touch_count, rca_windows, sca_windows, window_stack, windows_touching
from chunksmooth import neural
from chunksmooth.ablation import (
    ABLATE_TOKEN,
    MAX_VIEWS,
    AblationConfig,
    chunk_length,
    count_touching,
    make_views,
    rca_starts,
    rs_tokens,
    sca_starts,
    training_start,
)
from chunksmooth.errors import ConfigInvalid
from chunksmooth.smoothing import DetectorSpec, _training_tokens, content_rng, predict_smoothed


def _sca_cfg(n_views=100, p=0.05, **kw):
    return AblationConfig(scheme="sca", p=p, n_views=n_views, **kw)


def _rca_cfg(n_views=100, p=0.05, **kw):
    return AblationConfig(scheme="rca", p=p, n_views=n_views, **kw)


# -- chunk sizing -------------------------------------------------------------


def test_chunk_length_examples():
    assert chunk_length(1000, 0.05) == 50
    assert chunk_length(7, 0.05) == 1
    assert chunk_length(10, 1.0) == 10
    assert chunk_length(1, 0.05) == 1
    assert chunk_length(999, 0.05) == 50  # ceil(49.95)


def test_chunk_length_survives_float_noise():
    # 100 * 0.07 == 7.000000000000001; a naive ceil would say 8
    assert 100 * 0.07 > 7.0
    assert chunk_length(100, 0.07) == 7


def test_chunk_length_rejects_empty_file():
    with pytest.raises(ConfigInvalid):
        chunk_length(0, 0.05)


def test_ablation_config_validation():
    with pytest.raises(ConfigInvalid):
        AblationConfig(scheme="dropout")
    with pytest.raises(ConfigInvalid):
        AblationConfig(scheme="sca", p=0.0)
    with pytest.raises(ConfigInvalid):
        AblationConfig(scheme="sca", p=1.2)
    with pytest.raises(ConfigInvalid):
        AblationConfig(scheme="sca", n_views=0)
    with pytest.raises(ConfigInvalid):
        AblationConfig(scheme="sca", n_views=MAX_VIEWS + 1)
    assert AblationConfig(scheme="sca", n_views=MAX_VIEWS).n_views == MAX_VIEWS


# -- training window ----------------------------------------------------------


def test_training_window_bounds_and_size():
    """Each call makes one draw of rng.integers(0, l - g + 1), so the
    chunk [start, start + g) lies inside the file and training batches
    keep their bits."""
    rng = np.random.default_rng(0)
    got_rng, want_rng = np.random.default_rng(1), np.random.default_rng(1)
    for _ in range(300):
        l = int(rng.integers(1, 5000))
        p = float(rng.choice([0.01, 0.05, 0.3, 1.0]))
        g = chunk_length(l, p)
        start = training_start(l, p, got_rng)
        assert type(start) is int and start == want_rng.integers(0, l - g + 1)
        assert 0 <= start and start + g <= l
    assert got_rng.random() == want_rng.random()


def test_training_window_placement_is_uniform():
    # l=1000, p=0.05: start is uniform on [0, 950]. Bucket the draws into
    # 19 width-50 bins over [0, 950); each holds q = 50/951 of the mass.
    rng = np.random.default_rng(42)
    draws = [training_start(1000, 0.05, rng) for _ in range(10000)]
    assert min(draws) >= 0 and max(draws) <= 950
    q = 50 / 951
    sigma = math.sqrt(10000 * q * (1 - q))
    for b in range(19):
        count = sum(1 for s in draws if b * 50 <= s < (b + 1) * 50)
        assert abs(count - 10000 * q) <= 3 * sigma, f"bucket {b}: {count}"


# -- randomized chunk placement --------------------------------------------------


def test_rca_windows_shape_and_determinism():
    cfg = _rca_cfg(n_views=40)
    ws1 = rca_windows(1000, cfg, np.random.default_rng(3))
    ws2 = rca_windows(1000, cfg, np.random.default_rng(3))
    assert ws1 == ws2
    assert len(ws1) == 40
    for w in ws1:
        assert len(w) == 50 and 0 <= w.start and w.stop <= 1000
    ws3 = rca_windows(1000, cfg, np.random.default_rng(4))
    assert ws3 != ws1


def test_rca_starts_consume_the_rng_as_rca_windows_did():
    """One draw of L uniform int64 starts in [0, l-g], the draw rca_windows
    always made: rca predictions keep their windows, and the generator is
    left in the same state."""
    cfg = _rca_cfg(n_views=40)
    got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
    starts, g = rca_starts(1000, cfg, got_rng)
    want = want_rng.integers(0, 1000 - 50 + 1, size=40)
    assert g == 50 and starts.dtype == np.int64
    np.testing.assert_array_equal(starts, want)
    assert got_rng.random() == want_rng.random()
    assert rca_windows(1000, cfg, np.random.default_rng(5)) == [range(int(s), int(s) + 50) for s in want]


# -- structured chunk placement ---------------------------------------------------


def test_sca_20_views_tile_disjointly():
    ws = sca_windows(1000, _sca_cfg(n_views=20))
    assert [(w.start, w.stop) for w in ws] == [(i * 50, i * 50 + 50) for i in range(20)]


def test_sca_100_views_overlap_band():
    ws = sca_windows(1000, _sca_cfg(n_views=100))
    assert len(ws) == 100
    assert ws[0].start == 0 and ws[-1].stop == 1000
    fractions = set()
    for a, b in zip(ws, ws[1:]):
        assert b.start >= a.start  # monotone placement
        fractions.add((a.stop - b.start) / 50)
    assert fractions == {0.80, 0.82}
    assert all(0.77 <= f <= 0.83 for f in fractions)


def test_sca_is_deterministic_and_ignores_rng():
    """sca's windows are a pure function of (file length, cfg): two files
    of one length, whose content rngs differ, are voted over at the same
    starts, the oracle's windows."""
    cfg = _sca_cfg(n_views=33)
    assert sca_windows(12345, cfg) == sca_windows(12345, cfg)
    params = neural.init_params(neural.PROFILES["desk"], seed=1)
    spec = DetectorSpec(kind="sca", ablation=cfg)
    want = tuple(w.start for w in sca_windows(2560, cfg))
    for data in (bytes(range(256)) * 10, bytes(reversed(range(256))) * 10):
        assert predict_smoothed(params, spec, data).starts == want


def test_sca_single_view():
    ws = sca_windows(1000, _sca_cfg(n_views=1))
    assert ws == [range(0, 50)]


# -- masking ------------------------------------------------------------------------


def test_rs_keep_all_copies_the_file():
    data = bytes(range(256))
    cfg = AblationConfig(scheme="rs", p=1.0, n_views=1)
    toks = rs_tokens(data, cfg, np.random.default_rng(0))
    assert toks.tolist() == list(range(256))
    assert ABLATE_TOKEN not in toks


def test_rs_keep_nothing_masks_everything():
    # p=0 is not a legal detector config, so drive the masker with a stub.
    data = bytes(range(100))
    stub = types.SimpleNamespace(p=0.0)
    toks = rs_tokens(data, stub, np.random.default_rng(0))
    assert (toks == ABLATE_TOKEN).all()


def test_rs_kept_fraction_binomial_bound():
    data = bytes(10000)
    cfg = AblationConfig(scheme="rs", p=0.2, n_views=1)
    toks = rs_tokens(data, cfg, np.random.default_rng(7))
    kept = int((toks != ABLATE_TOKEN).sum())
    sigma = math.sqrt(10000 * 0.2 * 0.8)
    assert abs(kept - 2000) <= 4 * sigma


def test_rs_determinism_per_rng():
    data = bytes(range(200))
    cfg = AblationConfig(scheme="rs", p=0.3, n_views=1)
    t1 = rs_tokens(data, cfg, np.random.default_rng(5))
    t2 = rs_tokens(data, cfg, np.random.default_rng(5))
    np.testing.assert_array_equal(t1, t2)


# -- views --------------------------------------------------------------------------


def test_make_views_chunk_payloads_match_file_bytes():
    """make_views draws rs views only.  A chunk detector's views are its
    prediction's starts and g: the oracle's windows (rca's drawn from the
    content rng), scored bitwise as the stack of the file bytes there."""
    rng = np.random.default_rng(9)
    data = rng.integers(0, 256, size=4096, dtype=np.uint8).tobytes()
    params = neural.init_params(neural.PROFILES["desk"], seed=9)
    for scheme in ("rca", "sca"):
        cfg = AblationConfig(scheme=scheme, p=0.05, n_views=25)
        with pytest.raises(ConfigInvalid):
            make_views(data, cfg, np.random.default_rng(2))
        if scheme == "sca":
            windows = sca_windows(len(data), cfg)
        else:
            windows = rca_windows(len(data), cfg, content_rng(cfg.seed, data))
        pred = predict_smoothed(params, DetectorSpec(kind=scheme, ablation=cfg), data)
        assert pred.starts == tuple(w.start for w in windows)
        assert pred.g == chunk_length(len(data), 0.05) == len(windows[0])
        stack = window_stack(data, windows)
        assert stack.shape == (25, pred.g)
        np.testing.assert_array_equal(pred.scores, neural.forward_scores(params, stack))


def test_make_views_rs_has_no_window():
    data = bytes(range(100))
    cfg = AblationConfig(scheme="rs", p=0.5, n_views=7)
    views = make_views(data, cfg, np.random.default_rng(0))
    assert views.shape == (7, 100) and views.dtype == np.int32
    # distinct draws across views
    assert any(not np.array_equal(views[0], v) for v in views[1:])


def test_window_tokens_is_a_view_of_the_right_bytes():
    """A chunk scheme's training view is the g file bytes from the
    training start drawn from the same rng, as int32 tokens."""
    data = bytes(range(100))
    for scheme in ("rca", "sca"):
        spec = DetectorSpec(kind=scheme, ablation=AblationConfig(scheme=scheme, p=0.1, n_views=1))
        toks = _training_tokens(data, spec, np.random.default_rng(4))
        start = training_start(100, 0.1, np.random.default_rng(4))
        assert toks.tolist() == list(range(start, start + 10))
        assert toks.dtype == np.int32


# -- touch queries ---------------------------------------------------------------------


def test_windows_touching_examples():
    ws = sca_windows(1000, _sca_cfg(n_views=20))  # disjoint tiling
    assert windows_touching(ws, (975, 1000)) == [19]
    assert windows_touching(ws, (500, 500)) == []
    assert windows_touching(ws, (0, 1000)) == list(range(20))
    assert windows_touching(ws, (49, 51)) == [0, 1]


def test_windows_touching_matches_naive_oracle():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        ws = [
            range(int(s), int(s) + int(g))
            for s, g in zip(rng.integers(0, 900, size=8), rng.integers(1, 120, size=8))
        ]
        a = int(rng.integers(0, 1000))
        b = int(rng.integers(0, 1000))
        got = windows_touching(ws, (a, b))
        if b <= a:
            assert got == []
            continue
        assert len(got) == naive_touch_count(ws, (a, b))
        assert got == [i for i, w in enumerate(ws) if max(w.start, a) < min(w.stop, b)]


@settings(max_examples=300, deadline=None)
@given(
    l=st.one_of(st.integers(1, 300), st.integers(1, 10**6)),
    p=st.sampled_from([0.01, 0.05, 0.2, 1.0]),
    n_views=st.sampled_from([1, 2, 20, 100, 1000]),
    data=st.data(),
)
def test_count_touching_matches_windows_touching(l, p, n_views, data):
    """Counting touched sca windows by binary search on the starts agrees
    with the list scan, for random, empty and edge regions; the starts are
    the closed form start_i = floor(i * (l - g) / (L - 1))."""
    cfg = _sca_cfg(n_views=n_views, p=p)
    starts, g = sca_starts(l, cfg)
    windows = sca_windows(l, cfg)
    L = n_views
    assert starts.tolist() == [0 if L == 1 else i * (l - g) // (L - 1) for i in range(L)]
    a = data.draw(st.integers(0, l), label="a")
    region = data.draw(
        st.sampled_from([(a, data.draw(st.integers(a, l), label="b")), (a, a), (0, a), (a, l), (0, l)]),
        label="region",
    )
    assert count_touching(starts, g, region) == len(windows_touching(windows, region))


# -- legality property ---------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([0.01, 0.02, 0.05, 1.0]),
    n_views=st.sampled_from([1, 3, 20, 100]),
    scheme=st.sampled_from(["rca", "sca", "rs"]),
    data=st.data(),
)
def test_windows_always_legal(p, n_views, scheme, data):
    # small files (some below the desk window of 64) and large ones; rs
    # draws one number per byte per view, so its files stay small
    l = data.draw(
        st.one_of(st.integers(1, 200), st.integers(1, 4096 if scheme == "rs" else 10**6)), label="l"
    )
    cfg = AblationConfig(scheme=scheme, p=p, n_views=n_views)
    if scheme == "rs":
        views = make_views(bytes(l), cfg, np.random.default_rng(123))
        assert views.shape == (n_views, l)
        return
    # one length for every view: a view stack is always rectangular
    g = chunk_length(l, p)
    if scheme == "sca":
        ws = sca_windows(l, cfg)
    else:
        ws = rca_windows(l, cfg, np.random.default_rng(123))
    assert len(ws) == n_views
    for w in ws:
        assert 0 <= w.start < w.stop <= l
        assert len(w) == g
    if scheme == "sca":
        assert ws[0].start == 0  # byte 0 covered
        if n_views >= 2:  # a single view is pinned to [0, g) and may not reach the end
            assert ws[-1].stop == l  # byte l-1 covered
        assert all(b.start >= a.start for a, b in zip(ws, ws[1:]))
