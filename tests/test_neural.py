"""Model correctness: forward reference, gradients, optimizer, checkpoints."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracles import (
    dense_backward,
    fd_gradient_check,
    masked_sigmoid,
    rca_windows,
    reference_forward,
    sca_windows,
    select_sigmoid,
    take_embed,
    two_gemm_conv_pair,
    window_stack,
)
from chunksmooth import neural
from chunksmooth.ablation import ABLATE_TOKEN, AblationConfig, make_views, rs_tokens
from chunksmooth.errors import (
    BadMagic,
    ChunkSmoothError,
    DataError,
    IoFailure,
    NonFiniteLoss,
    ShapeMismatch,
    TruncatedFile,
    VersionUnsupported,
)
from chunksmooth.neural import (
    AdamState,
    MalConvParams,
    ModelProfile,
    bce_loss,
    forward,
    forward_scores,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train_step,
)
from chunksmooth.smoothing import DetectorSpec, content_rng, predict_smoothed, view_scorer

DESK = neural.PROFILES["desk"]


def _tokens(rng, n, hi=256):
    return rng.integers(0, hi, size=n, dtype=np.int64).astype(np.int32)


# -- forward ---------------------------------------------------------------------


def test_forward_matches_straight_line_reference():
    rng = np.random.default_rng(42)
    params = init_params(DESK, seed=42, dtype=np.float64)
    for n in (64, 200, 10):  # exact window, multi-window with tail, padded
        toks = _tokens(rng, n)
        got = forward(params, toks).score
        want = reference_forward(params, toks)
        assert abs(got - want) < 1e-6, f"len {n}: {got} vs {want}"


def test_all_zero_params_score_exactly_half():
    params = init_params(DESK, seed=0)
    for t in params.tensors():
        t[:] = 0
    toks = _tokens(np.random.default_rng(0), 128)
    assert forward(params, toks).score == 0.5


def test_short_input_equals_explicit_padding():
    params = init_params(DESK, seed=1)
    short = _tokens(np.random.default_rng(1), 10)
    padded = np.concatenate([short, np.full(54, ABLATE_TOKEN, dtype=np.int32)])
    assert forward(params, short).score == forward(params, padded).score


def test_forward_rejects_empty_or_2d_tokens():
    params = init_params(DESK, seed=2)
    with pytest.raises(ShapeMismatch):
        forward(params, np.empty(0, dtype=np.int32))
    with pytest.raises(ShapeMismatch):
        forward(params, np.zeros((2, 64), dtype=np.int32))


def test_max_pool_breaks_ties_at_first_window():
    params = init_params(DESK, seed=3)
    toks = np.full(192, 65, dtype=np.int32)  # 3 identical windows
    cache = forward(params, toks)
    assert (cache.best_j == 0).all()


def test_scores_stay_inside_open_interval():
    rng = np.random.default_rng(4)
    params = init_params(DESK, seed=4)
    params.fc_b[:] = 1000.0  # force saturation; the clamp must hold
    s = forward(params, _tokens(rng, 64)).score
    assert 0.0 < s < 1.0
    params.fc_b[:] = -1000.0
    s = forward(params, _tokens(rng, 64)).score
    assert 0.0 < s < 1.0
    for _ in range(100):
        params = init_params(DESK, seed=int(rng.integers(1 << 30)))
        s = forward(params, _tokens(rng, int(rng.integers(1, 300)))).score
        assert 0.0 < s < 1.0


def test_appending_less_than_a_window_changes_nothing():
    # 64 tokens is one conv window; 63 mask bytes add no second window
    params = init_params(DESK, seed=5)
    toks = _tokens(np.random.default_rng(5), 64)
    grown = np.concatenate([toks, np.full(63, ABLATE_TOKEN, dtype=np.int32)])
    assert forward(params, grown).score == forward(params, toks).score


def test_appended_window_pools_against_existing_maxima():
    params = init_params(DESK, seed=6)
    toks = _tokens(np.random.default_rng(6), 128)
    pad_win = np.full(64, ABLATE_TOKEN, dtype=np.int32)
    h_orig = forward(params, toks).h
    h_pad = forward(params, pad_win).h
    grown = forward(params, np.concatenate([toks, pad_win]))
    np.testing.assert_allclose(grown.h, np.maximum(h_orig, h_pad), rtol=1e-5, atol=1e-7)


def test_forward_scores_batched_equals_per_view():
    rng = np.random.default_rng(7)
    params = init_params(DESK, seed=7)
    views = np.stack([_tokens(rng, 256) for _ in range(20)])
    batched = forward_scores(params, views)
    single = np.array([forward(params, v).score for v in views])
    np.testing.assert_allclose(batched, single, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("columns", [19, 28, 33, 51])
def test_forward_scores_rows_do_not_depend_on_the_batch(columns):
    """A view scores the same bits in any batch of two or more views."""
    rng = np.random.default_rng(columns)
    params = init_params(DESK, seed=9)
    stack = rng.integers(0, 257, size=(40, 64 * columns)).astype(np.int32)
    full = forward_scores(params, stack)
    for _ in range(30):
        rows = np.sort(rng.choice(40, size=int(rng.integers(2, 41)), replace=False))
        np.testing.assert_array_equal(forward_scores(params, stack[rows]), full[rows])


# -- blocked scoring -------------------------------------------------------------


ORIGINAL = neural.PROFILES["original"]


@pytest.mark.parametrize("profile", [DESK, ORIGINAL], ids=["desk", "original"])
def test_view_blocks_keep_the_block_rule(profile):
    """At least one view per block; at least MIN_RESCORE_COLUMNS columns per
    block, or the whole stack; within BLOCK_ELEMENTS unless the block holds
    one view, or is the last block and a remainder of fewer than
    MIN_RESCORE_COLUMNS columns joined it."""
    budget = neural.BLOCK_ELEMENTS // (profile.emb_dim * profile.window)  # columns
    rng = np.random.default_rng(profile.window)
    lengths = [1, profile.window - 1, profile.window, profile.window + profile.stride, 3200, 6000, 1 << 20]
    lengths += [int(n) for n in rng.integers(1, 200_000, size=40)]
    for n_tokens in lengths:
        columns = neural.view_columns(profile, n_tokens)
        for n_views in (1, 2, 3, 20, 100, 163, 164, 327, 1000, 10_000):
            bounds = neural.view_blocks(profile, n_views, n_tokens)
            assert bounds[0] == 0 and bounds[-1] == n_views
            for a, b in zip(bounds, bounds[1:]):
                assert b - a >= 1
                assert (b - a) * columns >= neural.MIN_RESCORE_COLUMNS or (a, b) == (0, n_views)
                if b - a > 1 and (b - a) * columns > budget:
                    assert b == n_views and (b - a) * columns < budget + neural.MIN_RESCORE_COLUMNS


def test_view_blocks_examples():
    # desk: 8,192 columns per block
    assert neural.view_blocks(DESK, 100, 6000) == [0, 88, 100]  # 93 columns per view
    assert neural.view_blocks(DESK, 100, 5000) == [0, 100]  # 7,800 columns: one block
    assert neural.view_blocks(DESK, 3, 1 << 20) == [0, 1, 2, 3]  # a view over budget is a block
    # 163 views of 50 columns fit; a 1-view remainder (50 < 64 columns) joins the block before it
    assert neural.view_blocks(DESK, 164, 3200) == [0, 164]
    assert neural.view_blocks(DESK, 327, 3200) == [0, 163, 327]
    assert neural.view_blocks(DESK, 328, 3200) == [0, 163, 326, 328]  # 100 columns stay apart
    # original: 1,048 columns per block
    assert neural.view_blocks(ORIGINAL, 100, 6000) == [0, 87, 100]  # 12 columns per view
    assert neural.view_blocks(ORIGINAL, 100, 499) == [0, 100]
    # where the column floor needs more than the budget (32 columns here), the floor wins
    wide = ModelProfile(emb_dim=16, n_filters=2, window=8192, stride=4096)
    assert neural.view_blocks(wide, 130, 8192) == [0, 64, 130]


@pytest.mark.parametrize("profile", [DESK, ORIGINAL], ids=["desk", "original"])
def test_vote_blocks_keep_the_block_rule(profile):
    """A first block of floor(L/2)+1 views and later blocks of
    ceil(L/VOTE_STEPS) views, or of as many as fill VOTE_BLOCK_ELEMENTS,
    under view_blocks' rule: at least one view, at least
    MIN_RESCORE_COLUMNS columns or the whole stack, within BLOCK_ELEMENTS
    unless the block is one view; a last block short of the floor joins
    the one before it."""
    per_column = profile.emb_dim * profile.window
    rng = np.random.default_rng(profile.stride)
    lengths = [1, profile.window, profile.window + profile.stride, 1200, 3250, 6000, 20_000, 1 << 20]
    lengths += [int(n) for n in rng.integers(1, 200_000, size=40)]
    for n_tokens in lengths:
        columns = neural.view_columns(profile, n_tokens)
        floor = -(-neural.MIN_RESCORE_COLUMNS // columns)
        budget = neural.BLOCK_ELEMENTS // (columns * per_column)
        for n_views in (1, 2, 3, 20, 100, 101, 1000):
            step = max(-(-n_views // neural.VOTE_STEPS), -(-neural.VOTE_BLOCK_ELEMENTS // (columns * per_column)))
            bounds = neural.vote_blocks(profile, n_views, n_tokens)
            assert bounds[0] == 0 and bounds[-1] == n_views
            for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
                size = max(min(n_views // 2 + 1 if i == 0 else step, budget), 1, floor)
                assert (b - a) * columns >= neural.MIN_RESCORE_COLUMNS or (a, b) == (0, n_views)
                if b < n_views:
                    assert b - a == size
                else:
                    assert b - a <= size or (b - a - size) * columns < neural.MIN_RESCORE_COLUMNS


def test_vote_blocks_examples():
    # desk, L=100, p=0.05: 24 KB and 65 KB files, views of 18 and 50 columns
    assert neural.vote_blocks(DESK, 100, 1200) == [0, 51, 80, 100]  # 29 views fill 2^18 values
    assert neural.vote_blocks(DESK, 100, 3250) == [0, 51, 62, 73, 84, 95, 100]
    assert neural.vote_blocks(DESK, 100, 64) == [0, 100]  # one column a view: 64 views, then 36 join them
    assert neural.vote_blocks(DESK, 100, 20_000) == [0, 26, 36, 46, 56, 66, 76, 86, 96, 100]  # budget: 26 views
    assert neural.vote_blocks(DESK, 1, 3250) == [0, 1]
    assert neural.vote_blocks(DESK, 2, 3250) == [0, 2]
    assert neural.vote_blocks(DESK, 3, 3250) == [0, 3]  # the third view's 50 columns join the first block
    assert neural.vote_blocks(DESK, 3, 6000) == [0, 2, 3]
    assert neural.vote_blocks(ORIGINAL, 100, 6000) == [0, 51, 61, 71, 81, 91, 100]


def _view_scores(params, spec, data):
    """All L view scores of a fresh view_scorer, its blocks joined, with
    the views' starts and g."""
    blocks, starts, g = view_scorer(params, spec)(data)
    return np.concatenate(list(blocks)), starts, g


def _views(kind, n_views, view_len):
    """A file, the spec of one detector whose views of that file hold
    view_len tokens, the views' tokens and their windows (None for rs):
    rs views are the whole file, drawn by make_views; chunk views at
    p = 0.05 a twentieth of it, at the oracle's windows."""
    file_len = view_len if kind == "rs" else 20 * view_len
    rng = np.random.default_rng([n_views, view_len])
    data = rng.integers(0, 256, size=file_len, dtype=np.uint8).tobytes()
    cfg = AblationConfig(scheme=kind, p=0.05, n_views=n_views)
    windows = None
    if kind == "rs":
        views = make_views(data, cfg, content_rng(cfg.seed, data))
    else:
        if kind == "sca":
            windows = sca_windows(file_len, cfg)
        else:
            windows = rca_windows(file_len, cfg, content_rng(cfg.seed, data))
        views = window_stack(data, windows)
    assert views.shape == (n_views, view_len)
    return data, DetectorSpec(kind=kind, ablation=cfg), views, windows


@pytest.mark.parametrize("profile", [DESK, ORIGINAL], ids=["desk", "original"])
@pytest.mark.parametrize("length", ["short", "window", "long"])
@pytest.mark.parametrize("n_views", [1, 20, 100])
@pytest.mark.parametrize("kind", ["rs", "rca", "sca"])
def test_score_views_matches_one_forward_scores_call(kind, n_views, length, profile):
    """Blocked scoring gives the bits of one forward_scores call over the
    whole stack.  So does a prediction, which scores chunk views from the
    file and their starts with one embedding gather per file (views
    shorter than the conv window go through the padded stack).  Blocked
    scoring cuts a stack of more than one long view (6,000 tokens) into
    more than one block."""
    view_len = {"short": profile.window - 1, "window": profile.window, "long": 6000}[length]
    params = init_params(profile, seed=n_views)
    data, spec, tokens, windows = _views(kind, n_views, view_len)
    if length == "long" and n_views > 1:
        assert len(neural.score_blocks(profile, n_views, view_len)) > 2
    want = forward_scores(params, tokens)
    got = np.concatenate(list(neural.score_views(params, n_views, view_len, lambda a, b: tokens[a:b])))
    np.testing.assert_array_equal(got, want)
    scores, starts, g = _view_scores(params, spec, data)
    np.testing.assert_array_equal(scores, want)
    pred = predict_smoothed(params, spec, data)
    np.testing.assert_array_equal(pred.scores, want)
    if kind != "rs":
        assert g == pred.g == view_len
        assert tuple(starts.tolist()) == pred.starts == tuple(w.start for w in windows)


@pytest.mark.parametrize(
    "profile, n_views, n_tokens", [(DESK, 9, 1280), (ORIGINAL, 7, 15_000)], ids=["desk", "original"]
)
def test_score_views_merges_a_short_remainder_bitwise(profile, n_views, n_tokens, monkeypatch):
    """Views of 20 (desk) or 30 (original) columns: a block holds the fewest
    views that reach MIN_RESCORE_COLUMNS (4 or 3), and full blocks would
    leave one view, below the floor, so it joins the block before.  Scored
    as a block of its own, the desk view's score differs from the whole
    stack's in its last bits under OpenBLAS 0.3."""
    params = init_params(profile, seed=11)
    stack = np.random.default_rng(11).integers(0, 257, size=(n_views, n_tokens)).astype(np.int32)
    want = forward_scores(params, stack)
    bounds = neural.score_blocks(profile, n_views, n_tokens)
    blocks = [b - a for a, b in zip(bounds, bounds[1:])]
    floor = -(-neural.MIN_RESCORE_COLUMNS // neural.view_columns(profile, n_tokens))
    assert len(blocks) > 1 and blocks[:-1] == [floor] * (len(blocks) - 1) and blocks[-1] == floor + 1
    calls = []

    def counted(p, views):
        calls.append(len(views))
        return forward_scores(p, views)

    monkeypatch.setattr(neural, "forward_scores", counted)
    got = np.concatenate(list(neural.score_views(params, n_views, n_tokens, lambda a, b: stack[a:b])))
    assert calls == blocks
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("profile", [DESK, ORIGINAL], ids=["desk", "original"])
def test_rs_scores_from_one_view_blocks_match_one_forward_scores_call(profile):
    """rs scores, one view per block or the fewest views that hold
    MIN_RESCORE_COLUMNS columns, are bitwise one forward_scores call over
    make_views' whole stack: for files whose views hold fewer than 64
    columns, so that the floor groups several views (with a short
    remainder joining the last block or not), and for longer ones."""
    params = init_params(profile, seed=15)
    cfg = AblationConfig(scheme="rs", p=0.05, n_views=100)
    spec = DetectorSpec(kind="rs", ablation=cfg)
    lengths = [profile.window + k * profile.stride for k in (0, 1, 6, 19, 22, 40, 63, 64, 90)]
    grouped = 0
    for file_len in lengths:
        data = np.random.default_rng(file_len).integers(0, 256, size=file_len, dtype=np.uint8).tobytes()
        bounds = neural.score_blocks(profile, cfg.n_views, file_len)
        grouped += max(b - a for a, b in zip(bounds, bounds[1:])) > 1
        want = forward_scores(params, make_views(data, cfg, content_rng(cfg.seed, data)))
        scores, _, _ = _view_scores(params, spec, data)
        np.testing.assert_array_equal(scores, want)
    assert 0 < grouped < len(lengths)


@pytest.mark.parametrize(
    "profile, n_views, file_len", [(DESK, 100, 20_000), (ORIGINAL, 60, 20_000)], ids=["desk", "original"]
)
def test_rs_views_are_drawn_and_scored_one_block_at_a_time(profile, n_views, file_len, monkeypatch):
    """An rs prediction draws its views one block (here one view) at a
    time, and scores each block with one forward_scores call.  The blocks' rows are L
    sequential rs_tokens draws from the view rng, the rows of make_views,
    and the scores are bitwise one forward_scores call over make_views."""
    params = init_params(profile, seed=12)
    data = np.random.default_rng(12).integers(0, 256, size=file_len, dtype=np.uint8).tobytes()
    cfg = AblationConfig(scheme="rs", p=0.05, n_views=n_views)
    spec = DetectorSpec(kind="rs", ablation=cfg)
    bounds = neural.score_blocks(profile, n_views, file_len)
    assert len(bounds) - 1 >= 3
    views = make_views(data, cfg, content_rng(cfg.seed, data))
    draws = content_rng(cfg.seed, data)
    np.testing.assert_array_equal(views, np.stack([rs_tokens(data, cfg, draws) for _ in range(n_views)]))
    want = forward_scores(params, views)
    blocks = []

    def counted(p, block):
        blocks.append(block.copy())
        return forward_scores(p, block)

    monkeypatch.setattr(neural, "forward_scores", counted)
    scores, starts, g = _view_scores(params, spec, data)
    assert starts is None and g == file_len
    assert [len(b) for b in blocks] == [b - a for a, b in zip(bounds, bounds[1:])]
    np.testing.assert_array_equal(np.concatenate(blocks), views)
    np.testing.assert_array_equal(scores, want)


@pytest.mark.parametrize("profile", [DESK, ORIGINAL], ids=["desk", "original"])
def test_chunk_scorer_keys_its_state_on_starts_and_g(profile):
    """One scorer, called in turn with two starts arrays of one g, on a
    file and on an edited copy, then with another g: every call is bitwise
    a fresh score_views of its views.  A scorer that kept its cells across
    calls on files of one length would pool the other starts' cells."""
    params = init_params(profile, seed=13)
    rng = np.random.default_rng(13)
    file_len, g = 20_000, 1500
    data = rng.integers(0, 256, size=file_len, dtype=np.uint8)
    edited = data.copy()
    edited[7000:7010] ^= 0xFF
    first = np.sort(rng.integers(0, file_len - g + 1, size=20))
    second = np.sort(rng.integers(0, file_len - g + 1, size=20))
    scorer = neural.ChunkScorer(params)
    for tokens, starts, n in (
        (data, first, g),
        (data, second, g),
        (data, first, g),
        (edited, first, g),
        (edited, second, g),
        (edited, second, g + profile.stride),
        (data, second, g + profile.stride),
        (data, second, g),
    ):
        windows = np.lib.stride_tricks.sliding_window_view(tokens, n)
        want = np.concatenate(list(neural.score_views(params, starts.size, n, lambda a, b: windows[starts[a:b]])))
        got = np.concatenate(list(scorer(tokens, starts, n)))
        np.testing.assert_array_equal(neural.view_heads(params, got), want)


@pytest.mark.parametrize("profile", [DESK, ORIGINAL], ids=["desk", "original"])
def test_chunk_scorer_keeps_nothing_from_a_call_left_early(profile, monkeypatch):
    """A fresh call whose iterator is left after its first block keeps no
    state: the next call with the same starts, on an edited file of the
    same length, runs every cell through a GEMM and is bitwise a fresh
    scorer's.  A scorer that kept its state block by block would pool cells
    it never computed.  A rescoring call yields all L views as one block,
    so taking that block completes it and its state is used again."""
    params = init_params(profile, seed=14)
    rng = np.random.default_rng(14)
    file_len, g, L = 20_000, 1500, 100
    data = rng.integers(0, 256, size=file_len, dtype=np.uint8)
    other = rng.integers(0, 256, size=file_len, dtype=np.uint8)
    edited = data.copy()
    edited[7000:7010] ^= 0xFF
    starts = np.arange(L) * (file_len - g) // (L - 1)
    cells = L * neural.view_columns(profile, g)
    assert len(neural.vote_blocks(profile, L, g)) > 2
    seen = []
    conv_pair_views = neural.kernels.conv_pair_views
    monkeypatch.setattr(neural.kernels, "conv_pair_views", lambda x, pos, *a: seen.append(pos.size) or conv_pair_views(x, pos, *a))

    def fresh(tokens):
        return np.concatenate(list(neural.ChunkScorer(params)(tokens, starts, g)))

    # before the call left early: nothing, a call with other starts, a call with the same starts
    for earlier, rescored in ((None, False), (starts[::-1].copy(), False), (starts, True)):
        scorer = neural.ChunkScorer(params)
        if earlier is not None:
            list(scorer(other, earlier, g))
        first = next(scorer(data, starts, g))
        assert len(first) == (L if rescored else neural.vote_blocks(profile, L, g)[1])
        np.testing.assert_array_equal(first, fresh(data)[: len(first)])
        for tokens in (edited, data):
            seen.clear()
            got = np.concatenate(list(scorer(tokens, starts, g)))
            if tokens is edited and not rescored:
                assert sum(seen) == cells
            else:
                assert 0 < sum(seen) < cells
            np.testing.assert_array_equal(got, fresh(tokens))


def test_covering_cells_match_counting_changes_under_each_window():
    """The cells ChunkScorer rescores, found from runs of changed tokens,
    are those whose window holds more changed tokens before its end than
    before its start (two searchsorted calls), on random cells and changes
    that include pairs of changes window-1, window and window+1 apart."""
    rng = np.random.default_rng(16)
    for _ in range(5000):
        window = int(rng.integers(1, 600))
        stride = int(rng.integers(1, window + 1))
        n_tokens = int(rng.integers(window, 5000))
        columns = int(rng.integers(1, (n_tokens - window) // stride + 2))
        starts = np.sort(rng.integers(0, n_tokens - window + 1, size=int(rng.integers(1, 20))))
        pos = (starts[:, None] + stride * np.arange(columns)).ravel()
        pos = pos[pos + window <= n_tokens]
        base = rng.integers(0, n_tokens, size=int(rng.integers(1, 40)))
        pairs = base + rng.choice([window - 1, window, window + 1], size=base.size)
        at = np.unique(np.concatenate([base, pairs[pairs < n_tokens]]))
        want = np.searchsorted(at, pos + window) > np.searchsorted(at, pos)
        np.testing.assert_array_equal(neural._covering_cells(pos, window, at), want)


# -- loss --------------------------------------------------------------------------


def test_loss_examples():
    assert abs(bce_loss(0.5, 1) - np.log(2)) < 1e-12
    assert abs(bce_loss(0.5, 0) - np.log(2)) < 1e-12
    eps = 1e-6  # outside the LOSS_EPS clamp band
    assert bce_loss(1.0 - eps, 1) == pytest.approx(eps, rel=1e-3)
    # inside the band the clamp takes over
    assert bce_loss(1.0 - 1e-9, 1) == pytest.approx(neural.LOSS_EPS, rel=1e-3)
    # fully confident and wrong: clamped, finite
    assert bce_loss(0.0, 1) == pytest.approx(-np.log(neural.LOSS_EPS))
    assert np.isfinite(bce_loss(1.0, 0))


def test_dloss_dlogit_is_score_minus_label():
    # the identity backward() relies on, checked numerically
    h = 1e-5
    for z in (-3.0, -0.5, 0.0, 0.7, 2.5):
        for y in (0, 1):
            sig = lambda v: 1.0 / (1.0 + np.exp(-v))
            fd = (bce_loss(sig(z + h), y) - bce_loss(sig(z - h), y)) / (2 * h)
            assert abs(fd - (sig(z) - y)) < 1e-8


# -- gradients -----------------------------------------------------------------------


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    cases = [
        (ModelProfile(emb_dim=2, n_filters=2, window=3, stride=3), 9),
        (ModelProfile(emb_dim=3, n_filters=2, window=4, stride=4), 10),
        (ModelProfile(emb_dim=2, n_filters=3, window=4, stride=2), 8),  # overlapping windows
        (ModelProfile(emb_dim=4, n_filters=2, window=5, stride=5), 5),
        (ModelProfile(emb_dim=2, n_filters=2, window=3, stride=3), 2),  # padded input
    ]
    for i, (profile, n_tok) in enumerate(cases):
        params = init_params(profile, seed=100 + i, dtype=np.float64)
        toks = _tokens(rng, n_tok, hi=50)
        checked, worst = fd_gradient_check(params, toks, label=i % 2)
        assert checked > 0
        assert worst < 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_masked_form_bitwise(dtype):
    rng = np.random.default_rng(21)
    special = [0.0, -0.0, 100.0, -100.0, 1e-30, -1e-30, np.inf, -np.inf]
    x = np.concatenate([rng.normal(0, 20, 20000), rng.normal(0, 1e-3, 1000), special]).astype(dtype)
    got = neural._sigmoid(x)
    assert got.dtype == dtype
    assert got.tobytes() == masked_sigmoid(x).tobytes()
    stack = rng.normal(0, 5, (3, 7, 9)).astype(dtype)  # the gates of a view stack
    assert neural._sigmoid(stack).tobytes() == masked_sigmoid(stack).tobytes()
    # NaN stays NaN; in float64 its sign bit may differ from the masked form's
    assert np.isnan(neural._sigmoid(np.array([np.nan], dtype=dtype))).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_select_form_bitwise(dtype):
    """The branch-free sigmoid gives the bits of the form that selects the
    numerator by sign, NaN sign bits included, on signed zeros, infinities,
    NaNs, subnormals and the edges of exp's float32 range, at every length
    up to 70 (numpy's SIMD loops treat an array's tail apart)."""
    rng = np.random.default_rng(22)
    tiny = np.finfo(dtype).tiny
    nan = np.array([np.nan], dtype=dtype)
    edges = [0.0, -0.0, np.inf, -np.inf, tiny, -tiny, tiny / 8, -tiny / 8, 88.7, -88.7, 104.0, -104.0]
    special = np.concatenate([np.array(edges, dtype=dtype), nan, -nan])
    x = np.concatenate([rng.normal(0, 20, 20000).astype(dtype), special])
    for n in range(1, 71):
        assert neural._sigmoid(x[-n:]).tobytes() == select_sigmoid(x[-n:]).tobytes()
    got = neural._sigmoid(x)
    assert got.dtype == dtype and got.tobytes() == select_sigmoid(x).tobytes()
    stack = rng.normal(0, 5, (3, 7, 9)).astype(dtype)
    assert neural._sigmoid(stack).tobytes() == select_sigmoid(stack).tobytes()


@pytest.mark.parametrize("shape", ["1-D", "2-D"])
@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.intp])
def test_embed_matches_one_take_bitwise(dtype, shape):
    """The blocked gather gives the values and the feature-major layout of
    one np.take over the whole token array, at lengths on either side of a
    gather block, with ABLATE_TOKEN among the tokens where the dtype holds
    it."""
    rng = np.random.default_rng(23)
    params = init_params(DESK, seed=23)
    params.emb[5, 3] = -0.0
    block = neural.EMBED_BLOCK
    hi = 256 if dtype == np.uint8 else ABLATE_TOKEN + 1
    for n in (1, block - 1, block, block + 1, 65_536):
        tokens = rng.integers(0, hi, size=(3, n) if shape == "2-D" else n).astype(dtype)
        if dtype != np.uint8:
            tokens.flat[::7] = ABLATE_TOKEN
        got, want = neural.embed(params, tokens), take_embed(params.emb, tokens)
        assert got.shape == want.shape == (*tokens.shape, DESK.emb_dim)
        assert got.tobytes() == want.tobytes()
        assert np.moveaxis(got, -1, 0).flags.c_contiguous


@pytest.mark.parametrize("profile", [DESK, ORIGINAL], ids=["desk", "original"])
def test_chunk_scorer_matches_two_gemms_bitwise(profile, monkeypatch):
    """Fresh and rescoring calls of a ChunkScorer give the bits of one run
    whose conv GEMMs multiply by wa and wb apart: the fresh call's vote
    blocks and rescoring blocks of a few cells up to every cell."""
    params = init_params(profile, seed=15)
    rng = np.random.default_rng(15)
    file_len, g, L = 45_000, 2250, 100
    data = rng.integers(0, 256, size=file_len, dtype=np.uint8)
    starts = np.arange(L) * (file_len - g) // (L - 1)
    edits = [data]
    for lo, size in ((7000, 10), (100, 3000), (20_000, 9000), (0, file_len)):
        edited = edits[-1].copy()
        edited[lo : lo + size] ^= 0x5A
        edits.append(edited)
    scorer = neural.ChunkScorer(params)
    want_blocks = []
    for tokens in edits:
        want_blocks.append([b.copy() for b in scorer(tokens, starts, g)])
    monkeypatch.setattr(neural.kernels, "conv_pair_views", two_gemm_conv_pair)
    scorer = neural.ChunkScorer(params)
    for tokens, want in zip(edits, want_blocks):
        got = list(scorer(tokens, starts, g))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


def test_backward_matches_dense_backward_bitwise():
    """The pooled-row backward gives every gradient of a dense input
    gradient scattered over every token, bit for bit."""
    original = neural.PROFILES["original"]
    overlapping = ModelProfile(emb_dim=4, n_filters=6, window=8, stride=3)
    cases = [  # inputs shorter than, equal to and longer than the window
        (DESK, 10, 256), (DESK, 64, 256), (DESK, 3000, 256), (DESK, 3000, 8),
        (original, 100, 256), (original, 500, 256), (original, 4000, 16),
        (overlapping, 5, 256), (overlapping, 8, 256), (overlapping, 60, 4),
    ]
    rng = np.random.default_rng(22)
    shared = overlap = 0
    for dtype in (np.float32, np.float64):
        for i, (profile, n, hi) in enumerate(cases):
            params = init_params(profile, seed=200 + i, dtype=dtype)
            cache = forward(params, _tokens(rng, n, hi=hi))
            starts = np.unique(cache.best_j) * profile.stride
            shared += starts.size < cache.best_j.size
            overlap += bool(np.any(np.diff(starts) < profile.window))
            for label in (0, 1):
                got = neural.backward(params, cache, label)
                want = dense_backward(params, cache, label)
                for name in neural.TENSOR_FIELDS:
                    assert got[name].dtype == want[name].dtype, name
                    assert got[name].shape == want[name].shape, name
                    assert got[name].tobytes() == want[name].tobytes(), (profile, n, dtype, label, name)
    assert shared and overlap  # filters pooled at the same and at overlapping windows


def test_closed_gate_kills_filter_gradients():
    params = init_params(DESK, seed=10, dtype=np.float64)
    params.bb[3] = -50.0  # gate sigmoid(-50) ~ 2e-22: filter 3 is dead
    toks = _tokens(np.random.default_rng(10), 128)
    cache = forward(params, toks)
    grads = neural.backward(params, cache, label=1)
    assert np.abs(grads["wa"][3]).max() < 1e-15
    assert np.abs(grads["wb"][3]).max() < 1e-15
    assert abs(grads["ba"][3]) < 1e-15
    # a live filter keeps real gradients
    assert np.abs(grads["wa"][0]).max() > 1e-15


# -- optimizer -----------------------------------------------------------------------


def test_adam_zero_lr_changes_nothing():
    params = init_params(DESK, seed=11)
    before = [t.copy() for t in params.tensors()]
    state = AdamState(params)
    toks = _tokens(np.random.default_rng(11), 64)
    train_step(params, [(toks, 1)], state, 0.0)
    for b, t in zip(before, params.tensors()):
        np.testing.assert_array_equal(b, t)
    assert state.t == 1


def test_duplicate_sample_batch_equals_single_sample_batch():
    toks = _tokens(np.random.default_rng(12), 64)
    p1 = init_params(DESK, seed=12)
    p2 = init_params(DESK, seed=12)
    train_step(p1, [(toks, 1)], AdamState(p1), 1e-3)
    train_step(p2, [(toks, 1), (toks, 1)], AdamState(p2), 1e-3)
    for a, b in zip(p1.tensors(), p2.tensors()):
        np.testing.assert_array_equal(a, b)


def test_training_is_deterministic():
    rng = np.random.default_rng(13)
    batch = [(_tokens(rng, 96), 1), (_tokens(rng, 96), 0)]

    def run():
        params = init_params(DESK, seed=13)
        state = AdamState(params)
        for _ in range(20):
            train_step(params, batch, state, 1e-3)
        return params

    for a, b in zip(run().tensors(), run().tensors()):
        np.testing.assert_array_equal(a, b)


def test_toy_problem_converges_in_200_steps():
    profile = ModelProfile(emb_dim=4, n_filters=4, window=8, stride=8)
    params = init_params(profile, seed=14)
    state = AdamState(params)
    batch = [
        (np.full(16, 0x41, dtype=np.int32), 1),
        (np.full(16, 0x42, dtype=np.int32), 0),
    ]
    loss = float("inf")
    for _ in range(200):
        loss = train_step(params, batch, state, 1e-3)
    assert loss < 0.05, f"final loss {loss}"


def test_non_finite_loss_is_an_error():
    params = init_params(DESK, seed=15)
    params.fc_b[:] = np.nan
    toks = _tokens(np.random.default_rng(15), 64)
    with pytest.raises(NonFiniteLoss):
        train_step(params, [(toks, 1)], AdamState(params), 1e-3)


# -- checkpoints ------------------------------------------------------------------------


def _roundtrip(tmp_path, params, meta=None):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, meta)
    return path, load_checkpoint(path)


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    params = init_params(DESK, seed=16)
    meta = {"kind": "sca", "p": 0.05, "n_views": 100, "seed": 0, "sca_mode": "even"}
    _, (back, loaded_meta) = _roundtrip(tmp_path, params, meta)
    assert back.profile == params.profile
    for a, b in zip(params.tensors(), back.tensors()):
        np.testing.assert_array_equal(a, b)
    assert loaded_meta["detector"] == meta
    assert loaded_meta["model"]["vocab"] == 257


def test_checkpoint_round_trip_original_profile(tmp_path):
    params = init_params(neural.PROFILES["original"], seed=17)
    _, (back, _) = _roundtrip(tmp_path, params)
    assert back.profile == neural.PROFILES["original"]
    np.testing.assert_array_equal(params.emb, back.emb)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path, _ = _roundtrip(tmp_path, init_params(DESK, seed=18))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"ELF\x7f"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        load_checkpoint(path)


def test_checkpoint_rejects_future_version(tmp_path):
    path, _ = _roundtrip(tmp_path, init_params(DESK, seed=19))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<H", raw, 4, 2)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionUnsupported):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    path, _ = _roundtrip(tmp_path, init_params(DESK, seed=20))
    raw = path.read_bytes()

    path.write_bytes(raw[:6])  # shorter than the fixed header
    with pytest.raises(TruncatedFile):
        load_checkpoint(path)

    path.write_bytes(raw[:-20])  # tensor payload cut short
    with pytest.raises(TruncatedFile):
        load_checkpoint(path)

    path.write_bytes(raw + b"\0\0\0\0")  # trailing garbage is also wrong
    with pytest.raises(TruncatedFile):
        load_checkpoint(path)

    over = bytearray(raw)
    struct.pack_into("<I", over, 6, len(raw))  # JSON block claims past EOF
    path.write_bytes(bytes(over))
    with pytest.raises(TruncatedFile):
        load_checkpoint(path)


def _with_meta_block(path, blob: bytes) -> Path:
    """A desk-profile checkpoint whose JSON block is replaced by blob."""
    params = init_params(DESK, seed=23)
    body = b"".join(np.ascontiguousarray(t, dtype="<f4").tobytes() for t in params.tensors())
    path.write_bytes(neural.CHECKPOINT_MAGIC + struct.pack("<HI", neural.CHECKPOINT_VERSION, len(blob)) + blob + body)
    return path


_DESK_MODEL = {"emb_dim": 8, "n_filters": 32, "window": 64, "stride": 64}


@pytest.mark.parametrize(
    "blob, match",
    [
        (b"\xff\xfe{}", "UTF-8 JSON"),
        (b'{"model": ', "UTF-8 JSON"),
        (b"[1, 2]", "no model object"),
        (b'{"detector": null}', "no model object"),
        (b'{"model": 5}', "no model object"),
        (json.dumps({"model": {k: v for k, v in _DESK_MODEL.items() if k != "window"}}).encode(), "window"),
        (json.dumps({"model": {**_DESK_MODEL, "emb_dim": 0}}).encode(), "emb_dim"),
        (json.dumps({"model": {**_DESK_MODEL, "n_filters": 32.0}}).encode(), "n_filters"),
        (json.dumps({"model": {**_DESK_MODEL, "stride": True}}).encode(), "stride"),
        (json.dumps({"model": {**_DESK_MODEL, "stride": 65}}).encode(), "exceeds window"),
    ],
    ids=["not-utf8", "bad-json", "not-an-object", "no-model", "model-not-object", "no-window",
         "zero-dim", "float-dim", "bool-dim", "stride-over-window"],
)
def test_checkpoint_rejects_bad_meta_block(tmp_path, blob, match):
    with pytest.raises(DataError, match=match):
        load_checkpoint(_with_meta_block(tmp_path / "m.bin", blob))


def test_checkpoint_meta_block_sanity(tmp_path):
    path = _with_meta_block(tmp_path / "m.bin", json.dumps({"model": _DESK_MODEL}).encode())
    params, meta = load_checkpoint(path)
    assert params.profile == DESK and meta["model"] == _DESK_MODEL


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", neural.TENSOR_FIELDS)
def test_checkpoint_rejects_non_finite_weights(tmp_path, name, value):
    """A tensor holding NaN or an infinity gives non-finite scores, which
    no JSON record can hold: the checkpoint is refused, naming the tensor."""
    params = init_params(DESK, seed=24)
    getattr(params, name).flat[-1] = value
    path = tmp_path / "m.bin"
    save_checkpoint(path, params)
    with pytest.raises(DataError, match=f"tensor {name} "):
        load_checkpoint(path)


_SCA_BIN = (Path(__file__).resolve().parents[1] / "perfbench" / "models" / "sca.bin").read_bytes()
_SCA_HEAD = 10 + struct.unpack_from("<I", _SCA_BIN, 6)[0]  # header plus JSON block


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    edits=st.lists(
        st.tuples(st.integers(0, _SCA_HEAD + 63), st.integers(0, 255)), min_size=1, max_size=4
    ),
    cut=st.one_of(st.none(), st.integers(0, len(_SCA_BIN))),
)
def test_checkpoint_fuzz_loads_or_raises_typed_errors(tmp_path, edits, cut):
    """Byte-mutated (and optionally truncated) copies of a trained checkpoint
    load to a model of finite weights and a detector spec, or fail with a
    ChunkSmoothError."""
    raw = bytearray(_SCA_BIN)
    for pos, byte in edits:
        raw[pos] = byte
    path = tmp_path / "fuzz.bin"
    path.write_bytes(bytes(raw[:cut]))
    try:
        params, meta = load_checkpoint(path)
        if meta.get("detector"):
            DetectorSpec.from_meta(meta["detector"])
    except ChunkSmoothError:
        return
    assert params.profile.stride <= params.profile.window
    assert all(np.isfinite(t).all() for t in params.tensors())


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(IoFailure):
        load_checkpoint(tmp_path / "nope.ckpt")
