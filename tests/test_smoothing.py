"""Smoothed prediction: vote math, certification, attribution, training loop."""

import tracemalloc

import numpy as np
import pytest

from _oracles import exhaustive_flip_invariant, tally_oracle, vote_oracle, windows_touching
from chunksmooth import harness, neural, smoothing
from chunksmooth.ablation import AblationConfig, sca_starts
from chunksmooth.corpus import LABEL_BENIGN, LABEL_MALICIOUS, load_capped
from chunksmooth.errors import ConfigInvalid, DataError, NotLengthPreserving, NotSca
from chunksmooth.smoothing import (
    DetectorSpec,
    TrainConfig,
    certify_inplace,
    chunk_attribution,
    content_rng,
    predict,
    predict_plain,
    predict_smoothed,
    train_smoothed,
)

DESK = neural.PROFILES["desk"]


def _sca_spec(n_views=100, p=0.05):
    return DetectorSpec(kind="sca", ablation=AblationConfig(scheme="sca", p=p, n_views=n_views))


def _stub_scores(monkeypatch, scores):
    """Make every view score fixed, bypassing the model entirely: the view
    scorer of an sca spec gives scores for its real starts and g."""
    arr = np.asarray(scores, dtype=np.float64)

    def fake(params, spec):
        def scores_of(data):
            starts, g = sca_starts(len(data), spec.ablation)
            assert starts.size == arr.size
            return arr.copy(), starts, g

        return scores_of

    monkeypatch.setattr(smoothing, "view_scorer", fake)


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


def test_attribution_sorts_by_score_stably(monkeypatch):
    pred, _ = _pred_with_votes(monkeypatch, [0.3, 0.9, 0.3, 0.9, 0.1], file_len=500)
    ranked = chunk_attribution(pred)
    assert [pred.scores[i] for i in ranked] == [0.9, 0.9, 0.3, 0.3, 0.1]
    # equal scores keep their view order, which is the sca window order
    assert ranked == [1, 3, 0, 2, 4]
    assert list(pred.starts) == sorted(pred.starts)


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
    ranked = chunk_attribution(pred)
    assert ranked[0] == 7
    assert pred.scores[ranked[0]] > pred.scores[ranked[1]]


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
    """One rs prediction draws, embeds and im2col-copies one block of views
    at a time, and frees a block's padded token stack before its GEMM: at
    desk size, L=100 and 65,536 bytes, 37 MiB.  Drawing the whole (L, l)
    stack first reads 60 MiB, and keeping the token stack alive through
    the GEMM 41 MiB (463 MiB when the stack was scored at once).  sca on
    the same input scores its views from one embedding of the file: 14 MiB
    (23 MiB when it stacked and gathered the views)."""
    params = neural.init_params(DESK, seed=3)
    data = np.random.default_rng(5).integers(0, 256, size=65536, dtype=np.uint8).tobytes()
    rs = DetectorSpec(kind="rs", ablation=AblationConfig(scheme="rs", p=0.05, n_views=100))
    assert _traced_peak_mib(lambda: predict(params, rs, data)) < 40
    assert _traced_peak_mib(lambda: predict(params, _sca_spec(), data)) < 24


def test_label_only_predict_matches_vote_tally(monkeypatch):
    rng = np.random.default_rng(24)
    spec = _sca_spec(n_views=20)
    data = bytes(rng.integers(0, 256, size=400, dtype=np.uint8))
    for scores in [rng.random(20) for _ in range(200)] + [[0.9] * 10 + [0.1] * 10, [0.5] * 20]:
        _stub_scores(monkeypatch, scores)
        assert predict(None, spec, data) == tally_oracle(scores)[2]


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
