"""Smoothed prediction: vote math, certification, attribution, training loop."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import exhaustive_flip_invariant, tally_oracle, vote_oracle, windows_touching
from chunksmooth import attacks, harness, kernels, neural, smoothing
from chunksmooth.ablation import AblationConfig, sca_starts
from chunksmooth.corpus import LABEL_BENIGN, LABEL_MALICIOUS, load_capped
from chunksmooth.errors import ConfigInvalid, DataError, NonFiniteScore, NotLengthPreserving, NotSca, ShapeMismatch
from chunksmooth.smoothing import (
    DetectorSpec,
    TrainConfig,
    certify_inplace,
    content_rng,
    predict,
    predict_plain,
    predict_smoothed,
    train_smoothed,
)

DESK = neural.PROFILES["desk"]


def _sca_spec(n_views=100, p=0.05):
    return DetectorSpec(kind="sca", ablation=AblationConfig(scheme="sca", p=p, n_views=n_views))


def _stub_scores(monkeypatch, scores, bounds=None):
    """Make every view score fixed, bypassing the model entirely: the view
    scorer of an sca spec gives scores for its real starts and g, in blocks
    cut at bounds, one view per block by default.  Returns the list of the
    (a, b) blocks taken from it, in order."""
    arr = np.asarray(scores, dtype=np.float64)
    bounds = list(range(arr.size + 1)) if bounds is None else bounds
    taken = []

    def fake(params, spec):
        def scores_of(data):
            starts, g = sca_starts(len(data), spec.ablation)
            assert starts.size == arr.size

            def blocks():
                for a, b in zip(bounds, bounds[1:]):
                    taken.append((a, b))
                    yield arr[a:b].copy()

            return blocks(), starts, g

        return scores_of

    monkeypatch.setattr(smoothing, "view_scorer", fake)
    return taken


def _pred_with_votes(monkeypatch, scores, n_views=None, file_len=1000):
    n_views = len(scores) if n_views is None else n_views
    _stub_scores(monkeypatch, scores)
    spec = _sca_spec(n_views=n_views)
    data = bytes(range(256)) * (file_len // 256 + 1)
    return predict_smoothed(None, spec, data[:file_len]), spec


# -- vote math ---------------------------------------------------------------


def test_vote_tally_matches_oracle_on_random_scores(monkeypatch):
    rng = np.random.default_rng(0)
    spec = _sca_spec(n_views=20)
    data = bytes(rng.integers(0, 256, size=400, dtype=np.uint8))
    for _ in range(1000):
        scores = rng.random(20)
        _stub_scores(monkeypatch, scores)
        pred = predict_smoothed(None, spec, data)
        votes, probs, label = tally_oracle(scores)
        assert pred.votes == votes
        assert sum(pred.votes.values()) == 20
        assert pred.probabilities == pytest.approx(probs)
        assert sum(pred.probabilities.values()) == pytest.approx(1.0)
        assert pred.label == label
        assert pred.scores == tuple(scores.tolist())
        rec = harness.prediction_record(None, spec, data)
        assert [c["vote"] for c in rec["per_chunk"]] == vote_oracle(scores)


def test_vote_examples(monkeypatch):
    pred, _ = _pred_with_votes(monkeypatch, [0.9] * 60 + [0.1] * 40)
    assert pred.votes == {LABEL_MALICIOUS: 60, LABEL_BENIGN: 40}
    assert pred.probabilities == {LABEL_MALICIOUS: 0.6, LABEL_BENIGN: 0.4}
    assert pred.label == LABEL_MALICIOUS
    assert pred.margin == 20

    pred, _ = _pred_with_votes(monkeypatch, [0.9] * 50 + [0.1] * 50)
    assert pred.label == LABEL_MALICIOUS  # ties resolve to malicious
    assert pred.margin == 0

    pred, _ = _pred_with_votes(monkeypatch, [0.1] * 51 + [0.9] * 49)
    assert pred.label == LABEL_BENIGN


def test_predict_smoothed_rejects_plain_detector():
    spec = DetectorSpec(kind="ns")
    with pytest.raises(ConfigInvalid):
        predict_smoothed(None, spec, b"x" * 100)


def test_predict_plain_threshold_is_malicious_inclusive():
    params = neural.init_params(DESK, seed=0)
    for t in params.tensors():
        t[:] = 0  # score is exactly 0.5
    pred = predict_plain(params, bytes(range(128)))
    assert pred.score == 0.5
    assert pred.label == LABEL_MALICIOUS


def test_ns_refuses_an_empty_file():
    """ns has no view of an empty file: predict_plain, predict and the
    attack oracle raise ShapeMismatch rather than score an all-padding
    view."""
    params = neural.init_params(DESK, seed=0)
    ns = DetectorSpec(kind="ns")
    for call in (
        lambda: predict_plain(params, b""),
        lambda: predict(params, ns, b""),
        lambda: attacks.make_oracle(params, ns)(b""),
    ):
        with pytest.raises(ShapeMismatch):
            call()


@pytest.mark.parametrize("profile", ["desk", "original"])
def test_predict_plain_matches_forward_bitwise(profile):
    """predict_plain scores the whole file as one chunk view, right-padded
    to the conv window when shorter: bitwise the score of the training
    forward pass, at lengths around the window and up to the size cap."""
    params = neural.init_params(neural.PROFILES[profile], seed=12)
    w = params.profile.window
    data = np.random.default_rng(12).integers(0, 256, size=65_536, dtype=np.uint8)
    for length in (1, w - 1, w, w + 1, 20_000, 65_536):
        got = predict_plain(params, data[:length].tobytes()).score
        assert got == neural.forward(params, data[:length].astype(np.int32)).score


# -- determinism -------------------------------------------------------------------


def test_sca_prediction_is_deterministic():
    params = neural.init_params(DESK, seed=1)
    spec = _sca_spec(n_views=50)
    data = bytes(np.random.default_rng(1).integers(0, 256, size=4096, dtype=np.uint8))
    p1 = predict_smoothed(params, spec, data)
    p2 = predict_smoothed(params, spec, data)
    assert p1 == p2


def test_randomized_schemes_are_reproducible_per_content():
    params = neural.init_params(DESK, seed=2)
    data = bytes(np.random.default_rng(2).integers(0, 256, size=4096, dtype=np.uint8))
    for scheme in ("rca", "rs"):
        spec = DetectorSpec(
            kind=scheme, ablation=AblationConfig(scheme=scheme, p=0.05, n_views=20)
        )
        p1 = predict_smoothed(params, spec, data)
        p2 = predict_smoothed(params, spec, data)
        assert p1.votes == p2.votes
        assert p1.scores == p2.scores


def test_content_rng_depends_on_content_and_seed():
    a = content_rng(0, b"one").random(4)
    b = content_rng(0, b"one").random(4)
    c = content_rng(0, b"two").random(4)
    d = content_rng(1, b"one").random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rca_vote_spread_across_seeds_is_binomial_scale():
    # Across ablation seeds the malicious-vote count of a randomized
    # detector is (at most) binomial: sd over seeds must stay within
    # twice sqrt(L)/2.
    params = neural.init_params(DESK, seed=3)
    data = bytes(np.random.default_rng(3).integers(0, 256, size=8192, dtype=np.uint8))
    counts = []
    for seed in range(10):
        spec = DetectorSpec(
            kind="rca", ablation=AblationConfig(scheme="rca", p=0.05, n_views=100, seed=seed)
        )
        counts.append(predict_smoothed(params, spec, data).votes[LABEL_MALICIOUS])
    assert np.std(counts, ddof=1) <= np.sqrt(100), counts


# -- certification --------------------------------------------------------------------


def test_certify_unanimous_prediction(monkeypatch):
    pred, spec = _pred_with_votes(monkeypatch, [0.9] * 100)
    # byte 20 of a 1000-byte file lies in three of the 100 even windows
    res = certify_inplace(pred, (20, 21), spec)
    assert res == smoothing.CertificationResult(certified=True, touched=3, margin=100)


def test_certify_narrow_margin_fails(monkeypatch):
    pred, spec = _pred_with_votes(monkeypatch, [0.9] * 51 + [0.1] * 49)
    res = certify_inplace(pred, (0, 10), spec)  # touches windows 0 and 1
    assert res.touched == 2
    assert res.margin == 2
    assert not res.certified  # two flipped votes reach a 49/51 benign call


def test_certify_empty_region(monkeypatch):
    pred, spec = _pred_with_votes(monkeypatch, [0.9] * 50 + [0.1] * 50)
    res = certify_inplace(pred, (5, 5), spec)
    # nothing touched: the (tie) label cannot move
    assert res.touched == 0 and res.certified

    pred, spec = _pred_with_votes(monkeypatch, [0.1] * 60 + [0.9] * 40)
    assert certify_inplace(pred, (5, 5), spec).certified


def test_certify_single_view_knows_the_file_length(monkeypatch):
    # the one window of a 3000-byte file is [0, 150); an edit past it
    # touches no window and is inside the file
    pred, spec = _pred_with_votes(monkeypatch, [0.9], file_len=3000)
    assert pred.file_len == 3000
    res = certify_inplace(pred, (2000, 2010), spec)
    assert res.touched == 0 and res.certified
    with pytest.raises(NotLengthPreserving):
        certify_inplace(pred, (2990, 3001), spec)


def test_certify_rejects_wrong_scheme_and_region(monkeypatch):
    params = neural.init_params(DESK, seed=4)
    data = bytes(range(256)) * 4
    rs_spec = DetectorSpec(kind="rs", ablation=AblationConfig(scheme="rs", p=0.1, n_views=5))
    rs_pred = predict_smoothed(params, rs_spec, data)
    with pytest.raises(NotSca):
        certify_inplace(rs_pred, (0, 1), rs_spec)

    pred, spec = _pred_with_votes(monkeypatch, [0.9] * 100)
    with pytest.raises(NotLengthPreserving):
        certify_inplace(pred, (990, 1010), spec)
    with pytest.raises(NotLengthPreserving):
        certify_inplace(pred, (-1, 5), spec)


def test_certified_predictions_survive_every_vote_reassignment(monkeypatch):
    # soundness against the exhaustive oracle on random tallies
    rng = np.random.default_rng(5)
    checked_certified = 0
    for _ in range(80):
        scores = np.where(rng.random(20) < rng.random(), 0.9, 0.1)
        pred, spec = _pred_with_votes(monkeypatch, scores)
        a = int(rng.integers(0, 1000))
        b = int(rng.integers(a, min(a + 300, 1000) + 1))
        res = certify_inplace(pred, (a, b), spec)
        if res.certified:
            windows = [range(s, s + pred.g) for s in pred.starts]
            touched_idx = windows_touching(windows, (a, b))
            votes = vote_oracle(pred.scores)
            assert exhaustive_flip_invariant(votes, touched_idx), (scores, a, b)
            checked_certified += 1
    assert checked_certified > 10  # the loop must actually exercise the claim


def test_untouched_windows_vote_identically_after_inplace_edit(small_splits, desk_model):
    # the theorem behind in-place certification, on real files and the
    # trained model: an edit confined to a region leaves every
    # non-intersecting window's score bit-identical.
    params, spec, _ = desk_model
    _, _, test_m = small_splits
    rng = np.random.default_rng(6)
    pairs = 0
    for entry in test_m.entries:
        data = load_capped(test_m.resolve(entry))
        pred = predict_smoothed(params, spec, data)
        windows = [range(s, s + pred.g) for s in pred.starts]
        for _ in range(5):
            start = int(rng.integers(0, len(data) - 400))
            length = int(rng.integers(1, 400))
            region = (start, start + length)
            edited = bytearray(data)
            edited[start : start + length] = rng.integers(
                0, 256, size=length, dtype=np.uint8
            ).tobytes()
            pred2 = predict_smoothed(params, spec, bytes(edited))
            touched = set(windows_touching(windows, region))
            assert pred2.starts == pred.starts and pred2.g == pred.g
            for i, (s1, s2) in enumerate(zip(pred.scores, pred2.scores)):
                if i not in touched:
                    assert s1 == s2
            # tally can shift by at most the touched count in each direction
            diff = abs(pred.votes[LABEL_MALICIOUS] - pred2.votes[LABEL_MALICIOUS])
            assert diff <= len(touched)
            res = certify_inplace(pred, region, spec)
            if res.certified:
                assert pred2.label == pred.label
            pairs += 1
    assert pairs >= 50


# -- attribution -------------------------------------------------------------------------


def test_attribution_flags_the_motif_window(desk_model):
    # two malicious rows planted in a full-range-random file; with L=20
    # and p=0.05 a 2560-byte file tiles into 20 disjoint 128-byte windows,
    # and the plant fills window 7 = [896, 1024)
    params, _, _ = desk_model
    from chunksmooth.corpus import MALICIOUS_MOTIFS

    rng = np.random.default_rng(7)

    def row(lead):
        pattern = rng.integers(0x20, 0x40, size=4, dtype=np.uint8)
        return lead.tobytes() + pattern.tobytes() * 12

    data = bytearray(rng.integers(0, 256, size=2560, dtype=np.uint8).tobytes())
    data[896:960] = row(np.frombuffer(MALICIOUS_MOTIFS[6], dtype=np.uint8))
    data[960:1024] = row(np.frombuffer(MALICIOUS_MOTIFS[7], dtype=np.uint8))
    assert len(data) == 2560

    spec20 = _sca_spec(n_views=20)
    pred = predict_smoothed(params, spec20, bytes(data))
    assert (pred.starts[7], pred.g) == (896, 128)
    top = int(np.argmax(pred.scores))
    assert top == 7
    assert pred.scores[top] > max(s for i, s in enumerate(pred.scores) if i != top)


# -- training loop --------------------------------------------------------------------------


def _canned_validation(monkeypatch, values):
    seq = iter(values)
    monkeypatch.setattr(smoothing, "_validation_accuracy", lambda *a, **k: next(seq))


def test_early_stop_example_sequence(small_splits, monkeypatch):
    train_m, val_m, _ = small_splits
    _canned_validation(monkeypatch, [0.5, 0.8, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65])
    spec = _sca_spec(n_views=20)
    _, hist = train_smoothed(train_m, val_m, spec, TrainConfig(max_epochs=20, patience=5, seed=0))
    assert hist.stopped_epoch == 8
    assert hist.best_epoch == 3
    assert len(hist.epoch_losses) == 8
    assert len(hist.epoch_seconds) == 8


def test_plateau_is_not_a_decline(small_splits, monkeypatch):
    # constant validation accuracy must never trigger early stopping, and
    # the tie goes to the later (more trained) epoch
    train_m, val_m, _ = small_splits
    _canned_validation(monkeypatch, [1.0] * 6)
    spec = _sca_spec(n_views=20)
    _, hist = train_smoothed(train_m, val_m, spec, TrainConfig(max_epochs=6, patience=3, seed=0))
    assert hist.stopped_epoch == 6
    assert hist.best_epoch == 6


def test_training_same_seed_same_weights(small_splits):
    train_m, val_m, _ = small_splits
    spec = _sca_spec(n_views=20)
    cfg = TrainConfig(max_epochs=2, patience=1, seed=5)
    p1, h1 = train_smoothed(train_m, val_m, spec, cfg)
    p2, h2 = train_smoothed(train_m, val_m, spec, cfg)
    for a, b in zip(p1.tensors(), p2.tensors()):
        np.testing.assert_array_equal(a, b)
    assert h1.val_accuracies == h2.val_accuracies


def test_train_config_validation():
    with pytest.raises(ConfigInvalid):
        TrainConfig(max_epochs=0)
    with pytest.raises(ConfigInvalid):
        TrainConfig(patience=0)
    with pytest.raises(ConfigInvalid):
        TrainConfig(max_epochs=5, patience=5)  # patience must leave room to stop
    with pytest.raises(ConfigInvalid):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigInvalid):
        TrainConfig(lr=0.0)
    with pytest.raises(ConfigInvalid):
        TrainConfig(lr=float("nan"))
    with pytest.raises(ConfigInvalid):
        train_smoothed(None, None, _sca_spec(), TrainConfig(profile="mainframe"))


# -- spec round trip ----------------------------------------------------------------------------


def test_detector_spec_validation():
    with pytest.raises(ConfigInvalid):
        DetectorSpec(kind="lstm")
    with pytest.raises(ConfigInvalid):
        DetectorSpec(kind="ns", ablation=AblationConfig(scheme="sca"))
    with pytest.raises(ConfigInvalid):
        DetectorSpec(kind="sca")  # ablation required
    with pytest.raises(ConfigInvalid):
        DetectorSpec(kind="sca", ablation=AblationConfig(scheme="rca"))


def test_detector_spec_meta_round_trip():
    for spec in (
        DetectorSpec(kind="ns"),
        _sca_spec(n_views=33, p=0.02),
        DetectorSpec(kind="rs", ablation=AblationConfig(scheme="rs", p=0.1, n_views=9, seed=4)),
    ):
        assert DetectorSpec.from_meta(spec.meta()) == spec


def test_predict_dispatches_on_kind(desk_model, small_splits):
    params, spec, _ = desk_model
    data = bytes(np.random.default_rng(8).integers(0, 256, size=2048, dtype=np.uint8))
    assert predict(params, spec, data) == predict_smoothed(params, spec, data).label
    assert predict(params, DetectorSpec(kind="ns"), data) == predict_plain(params, data).label
    # the label-only path agrees with predict_smoothed on every scheme, for
    # the validation files and for inputs shorter than the window
    specs = [spec] + [
        DetectorSpec(kind=k, ablation=AblationConfig(scheme=k, p=p, n_views=n))
        for k, p, n in (("rca", 0.05, 50), ("rs", 0.2, 9))
    ]
    _, val_m, _ = small_splits
    files = [load_capped(val_m.resolve(e)) for e in val_m.entries] + [b"\x00", bytes(range(40))]
    for sp in specs:
        for data in files:
            assert predict(params, sp, data) == predict_smoothed(params, sp, data).label


def _traced_peak_mib(fn) -> float:
    """Peak of the memory allocated while fn runs, numpy buffers included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_rs_prediction_memory_is_bounded():
    """One rs prediction draws, embeds and im2col-copies one view at a
    time, and frees a view's padded tokens before its GEMM: at desk size,
    L=100 and 65,536 bytes, 4.8 MiB.  Blocks of up to 2^22 im2col values
    read 38 MiB, drawing the whole (L, l) stack first 60 MiB, and keeping
    the token stack alive through the GEMM 41 MiB (463 MiB when the stack
    was scored at once).  sca on
    the same input scores its views from one embedding of the file: 14 MiB
    (23 MiB when it stacked and gathered the views)."""
    params = neural.init_params(DESK, seed=3)
    data = np.random.default_rng(5).integers(0, 256, size=65536, dtype=np.uint8).tobytes()
    rs = DetectorSpec(kind="rs", ablation=AblationConfig(scheme="rs", p=0.05, n_views=100))
    assert _traced_peak_mib(lambda: predict(params, rs, data)) < 5
    assert _traced_peak_mib(lambda: predict(params, _sca_spec(), data)) < 24


def test_label_only_predict_matches_vote_tally(monkeypatch):
    rng = np.random.default_rng(24)
    spec = _sca_spec(n_views=20)
    data = bytes(rng.integers(0, 256, size=400, dtype=np.uint8))
    for scores in [rng.random(20) for _ in range(200)] + [[0.9] * 10 + [0.1] * 10, [0.5] * 20]:
        _stub_scores(monkeypatch, scores)
        assert predict(None, spec, data) == tally_oracle(scores)[2]


def _settled_after(scores) -> int:
    """How many views, taken in order, settle the vote of all of them:
    ceil(L/2) malicious votes or floor(L/2) + 1 benign ones."""
    L, malicious = len(scores), 0
    for k, score in enumerate(scores, 1):
        malicious += score >= 0.5
        if malicious >= L - L // 2 or k - malicious >= L // 2 + 1:
            return k
    raise AssertionError("a vote over all L views is always settled")


def test_label_only_predict_stops_once_the_vote_is_settled(monkeypatch):
    """One view per block: predict takes exactly the views that settle the
    vote, and labels as the full tally does, at every L from 1 to 21 and
    on orders that settle early, late and on a 50/50 tie."""
    rng = np.random.default_rng(25)
    data = bytes(rng.integers(0, 256, size=2000, dtype=np.uint8))
    for L in range(1, 22):
        spec = _sca_spec(n_views=L)
        half = L // 2
        cases = [rng.random(L) for _ in range(30)]
        cases += [[0.9] * L, [0.1] * L, [0.1] * half + [0.9] * (L - half), [0.9] * (L - half) + [0.1] * half]
        for scores in cases:
            taken = _stub_scores(monkeypatch, scores)
            assert predict(None, spec, data) == tally_oracle(scores)[2]
            assert taken == [(k, k + 1) for k in range(_settled_after(scores))]


def test_label_only_predict_settles_ties_and_block_boundaries(monkeypatch):
    """A 50/50 tie at even L is malicious and takes every view; a vote
    settled by the last view of a block takes no further block, and one
    that is one view short takes the next."""
    data = bytes(range(256)) * 8
    spec = _sca_spec(n_views=20)
    for scores in ([0.1] * 10 + [0.9] * 10, [0.1, 0.9] * 10, [0.9] * 9 + [0.1] * 10 + [0.9]):
        taken = _stub_scores(monkeypatch, scores, bounds=[0, 11, 13, 15, 17, 19, 20])
        assert predict(None, spec, data) == LABEL_MALICIOUS
        assert taken[-1] == (19, 20)
    spec = _sca_spec(n_views=100)
    bounds = [0, 51, 64, 77, 90, 100]
    # malicious needs 50 votes, benign 51
    for first, second, label, blocks in (
        (40, 10, LABEL_MALICIOUS, 2),  # 50 malicious after the second block
        (40, 9, LABEL_MALICIOUS, 3),  # 49: one short
        (13, 0, LABEL_BENIGN, 2),  # 38 + 13 = 51 benign after the second block
        (14, 0, LABEL_BENIGN, 3),  # 37 + 13 = 50: one short
        (50, 0, LABEL_MALICIOUS, 1),  # settled inside the first block
        (0, 0, LABEL_BENIGN, 1),
    ):
        scores = [0.9] * first + [0.1] * (51 - first) + [0.9] * second + [0.1] * (13 - second) + [0.9, 0.1] * 18
        taken = _stub_scores(monkeypatch, scores, bounds=bounds)
        assert predict(None, spec, data) == label == tally_oracle(scores)[2]
        assert taken == list(zip(bounds, bounds[1:]))[:blocks]


def _edges(pr, kind, L, top):
    """View lengths up to top on both sides of each change in how L views
    are cut into blocks: vote_blocks for chunk views, score_blocks for rs.
    The cut changes only at a change of the conv column count, where the
    column floor or the budget moves a boundary, or a short last block
    joins the block before it or stops doing so."""
    blocks = neural.score_blocks if kind == "rs" else neural.vote_blocks
    lengths = range(pr.window, top + 1, pr.stride)
    cut = lambda n: blocks(pr, L, n)
    return [n for a, b in zip(lengths, lengths[1:]) if cut(a) != cut(b) for n in (b - 1, b)]


def _top(pr, kind):
    """The longest view length drawn: chunk views of files up to 90 KB, rs
    views of a few thousand bytes."""
    return 4500 if kind != "rs" else 6000 if pr.window < 500 else 2 * pr.window


def _boundary_cases():
    """At L = 100 and 101 on both profiles, views on both sides of the conv
    window and of every change of the block cut (file length 20g at
    p = 0.05)."""
    cases = []
    for profile, pr in neural.PROFILES.items():
        for kind in ("sca", "rca", "rs"):
            for L in (100, 101):
                for n in (pr.window - 1, pr.window, pr.window + 1, *_edges(pr, kind, L, _top(pr, kind))):
                    cases.append((profile, kind, L, n if kind == "rs" else 20 * n, n, 0.05))
    return cases


@st.composite
def _label_only_cases(draw):
    """A detector, a file and weights.  Chunk views (p = 0.05, so a file of
    20g - r bytes for r < 20 has views of g bytes) and rs views (the whole
    file) are drawn on both sides of the conv window and of the changes of
    the block cut, or anywhere up to _top."""
    profile = draw(st.sampled_from(sorted(neural.PROFILES)))
    pr = neural.PROFILES[profile]
    kind = draw(st.sampled_from(["sca", "rca", "rs"]))
    L = draw(st.sampled_from([1, 2, 3, 20, 100, 101]))
    top = _top(pr, kind)
    near = [pr.window - 1, pr.window, pr.window + 1, *_edges(pr, kind, L, top)]
    n = draw(st.sampled_from(near) | st.integers(1, top))
    size = n if kind == "rs" else 20 * n - draw(st.integers(0, 19))
    seed = draw(st.integers(0, 2**16))
    bias = draw(st.sampled_from([0.0, 0.05, -0.05, 0.2, -0.2]))
    return profile, kind, L, size, seed, bias


def _with_examples(cases):
    def wrap(test):
        for case in cases:
            test = example(case)(test)
        return test

    return wrap


@settings(max_examples=60, deadline=None)
@_with_examples(_boundary_cases())
@given(_label_only_cases())
def test_label_only_predict_matches_the_full_tally(case):
    """predict takes the views' scores block by block and stops at the
    first block after which the vote is settled: the scores it takes are
    bitwise the first ones of predict_smoothed, and its label is the full
    tally's, for sca, rca and rs on both profiles, at L in {1, 2, 3, 20,
    100, 101}; the boundary cases run on every run."""
    profile, kind, L, size, seed, bias = case
    params = neural.init_params(neural.PROFILES[profile], seed=seed % 97)
    params.fc_b[:] = bias
    spec = DetectorSpec(kind=kind, ablation=AblationConfig(scheme=kind, p=0.05, n_views=L))
    data = np.random.default_rng(seed).integers(0, 256, size=size, dtype=np.uint8).tobytes()
    full = predict_smoothed(params, spec, data)
    taken = []
    view_scorer = smoothing.view_scorer

    def spy(params, spec):
        scorer = view_scorer(params, spec)

        def scores(data):
            blocks, starts, g = scorer(data)
            return (taken.append(block) or block for block in blocks), starts, g

        return scores

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smoothing, "view_scorer", spy)
        label = predict(params, spec, data)
    assert label == full.label == tally_oracle(full.scores)[2]
    got = np.concatenate(taken).tolist()
    assert got == list(full.scores[: len(got)])
    settled = _settled_after(full.scores)
    assert len(got) - taken[-1].size < settled <= len(got)


@pytest.mark.parametrize("kind", ["sca", "rca", "rs"])
@pytest.mark.parametrize("bias", [20.0, -20.0], ids=["malicious", "benign"])
def test_label_only_predict_scores_half_the_views_of_a_unanimous_file(kind, bias, monkeypatch):
    """Every view of the file votes one way: predict scores at most ceil(L/2)
    views plus one block (counted as the conv columns reaching
    conv_pair_views for chunk views, the rows reaching forward_scores for
    rs), and predict_smoothed all L."""
    params = neural.init_params(DESK, seed=6)
    params.fc_b[:] = bias
    L = 100
    spec = DetectorSpec(kind=kind, ablation=AblationConfig(scheme=kind, p=0.05, n_views=L))
    data = np.random.default_rng(6).integers(0, 256, size=20_000, dtype=np.uint8).tobytes()
    g = len(data) if kind == "rs" else 1000
    columns = neural.view_columns(DESK, g)
    blocks = neural.score_blocks(DESK, L, g) if kind == "rs" else neural.vote_blocks(DESK, L, g)
    seen = []
    conv_pair_views, forward_scores = kernels.conv_pair_views, neural.forward_scores
    monkeypatch.setattr(kernels, "conv_pair_views", lambda x, starts, *a: seen.append(starts.size / columns) or conv_pair_views(x, starts, *a))
    monkeypatch.setattr(neural, "forward_scores", lambda p, views: seen.append(len(views)) or forward_scores(p, views))
    label = predict(params, spec, data)
    assert label == (LABEL_MALICIOUS if bias > 0 else LABEL_BENIGN)
    step = max(b - a for a, b in zip(blocks, blocks[1:]))
    assert sum(seen) <= -(-L // 2) + step
    settled = -(-L // 2) if bias > 0 else L // 2 + 1  # malicious or benign votes that settle the vote
    assert sum(seen) == min(b for b in blocks if b >= settled)
    seen.clear()
    assert predict_smoothed(params, spec, data).label == label
    assert sum(seen) == L


@pytest.mark.parametrize("kind", ["sca", "rca", "rs"])
def test_predictions_refuse_a_non_finite_score(kind):
    """Finite weights whose conv overflows score NaN (inf pre-activations
    times gates of exactly 0): predict_plain, predict_smoothed, predict
    and the attack oracles raise NonFiniteScore instead of voting NaN
    benign, which an attack counted as an evasion."""
    params = neural.init_params(DESK, seed=7)
    params.emb[...] = 1.0
    params.wa[...] = 3e38
    params.wb[...] = -3e38
    data = bytes(range(256)) * 20
    spec = DetectorSpec(kind=kind, ablation=AblationConfig(scheme=kind, p=0.05, n_views=20))
    for call in (
        lambda: predict_plain(params, data),
        lambda: predict(params, DetectorSpec(kind="ns"), data),
        lambda: predict_smoothed(params, spec, data),
        lambda: predict(params, spec, data),
        lambda: attacks.make_oracle(params, DetectorSpec(kind="ns"))(data),
        lambda: attacks.make_oracle(params, spec)(data),
    ):
        with pytest.raises(NonFiniteScore), np.errstate(over="ignore", invalid="ignore"):
            call()


@pytest.mark.parametrize(
    "meta, error",
    [
        ([], DataError),
        ({"p": 0.05, "n_views": 100}, DataError),
        ({"kind": "sca", "n_views": 100}, DataError),
        ({"kind": "sca", "p": 0.05}, DataError),
        ({"kind": "sca", "p": "0.05", "n_views": 100}, DataError),
        ({"kind": "sca", "p": 0.05, "n_views": True}, DataError),
        ({"kind": "sca", "p": 0.05, "n_views": 100, "vote_threshold": None}, DataError),
        ({"kind": "sca", "p": 0.05, "n_views": 100, "soft_scores": 1}, DataError),
        ({"kind": "sca", "p": 0.0, "n_views": 100}, ConfigInvalid),
        ({"kind": "lstm", "p": 0.05, "n_views": 100}, ConfigInvalid),
        ({"kind": "sca", "p": 0.05, "n_views": 100, "sca_mode": "evez"}, DataError),
        ({"kind": "sca", "p": 0.05, "n_views": 10**12}, ConfigInvalid),
        ({"kind": "sca", "p": 0.05, "n_views": 100, "vote_threshold": 0.6}, DataError),
        ({"kind": "sca", "p": 0.05, "n_views": 100, "vote_threshold": 1}, DataError),
        ({"kind": "sca", "p": 0.05, "n_views": 100, "soft_scores": True}, DataError),
        ({"kind": "sca", "p": 0.05, "n_views": 100, "soft_scores": 0}, DataError),
        ({"kind": "ns", "vote_threshold": 0.4}, DataError),
    ],
)
def test_detector_spec_from_meta_rejects_bad_blocks(meta, error):
    with pytest.raises(error):
        DetectorSpec.from_meta(meta)
