"""Model correctness: forward reference, gradients, optimizer, checkpoints."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracles import dense_backward, fd_gradient_check, masked_sigmoid, reference_forward
from chunksmooth import neural
from chunksmooth.ablation import ABLATE_TOKEN
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
    AdamConfig,
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
from chunksmooth.smoothing import DetectorSpec

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
    views = [_tokens(rng, 256) for _ in range(20)]
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


def test_forward_scores_mixed_lengths_fall_back_exactly():
    rng = np.random.default_rng(8)
    params = init_params(DESK, seed=8)
    views = [_tokens(rng, 100), _tokens(rng, 300)]
    got = forward_scores(params, views)
    want = [forward(params, v).score for v in views]
    assert got.tolist() == want


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
    train_step(params, [(toks, 1)], state, AdamConfig(lr=0.0))
    for b, t in zip(before, params.tensors()):
        np.testing.assert_array_equal(b, t)
    assert state.t == 1


def test_duplicate_sample_batch_equals_single_sample_batch():
    toks = _tokens(np.random.default_rng(12), 64)
    p1 = init_params(DESK, seed=12)
    p2 = init_params(DESK, seed=12)
    cfg = AdamConfig()
    train_step(p1, [(toks, 1)], AdamState(p1), cfg)
    train_step(p2, [(toks, 1), (toks, 1)], AdamState(p2), cfg)
    for a, b in zip(p1.tensors(), p2.tensors()):
        np.testing.assert_array_equal(a, b)


def test_training_is_deterministic():
    rng = np.random.default_rng(13)
    batch = [(_tokens(rng, 96), 1), (_tokens(rng, 96), 0)]

    def run():
        params = init_params(DESK, seed=13)
        state = AdamState(params)
        for _ in range(20):
            train_step(params, batch, state, AdamConfig())
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
        loss = train_step(params, batch, state, AdamConfig())
    assert loss < 0.05, f"final loss {loss}"


def test_non_finite_loss_is_an_error():
    params = init_params(DESK, seed=15)
    params.fc_b[:] = np.nan
    toks = _tokens(np.random.default_rng(15), 64)
    with pytest.raises(NonFiniteLoss):
        train_step(params, [(toks, 1)], AdamState(params), AdamConfig())


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
    load to a model and detector spec, or fail with a ChunkSmoothError."""
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


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(IoFailure):
        load_checkpoint(tmp_path / "nope.ckpt")
