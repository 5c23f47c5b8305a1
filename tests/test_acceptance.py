"""Acceptance gate.

Seven product-level criteria, each one test, each printing a single
[PASS]/[FAIL] verdict line straight to the terminal (bypassing capture)
so the gate is readable from any pytest invocation:

  1. ablation sampler legality, coverage, determinism, overlap
  2. vote arithmetic and tie-breaking
  3. analytic gradients vs finite differences
  4. in-place certification soundness
  5. attack structural round-trip
  6. smoothed vs plain robustness gap
  7. byte-identical reports under fixed seeds

Criteria 4-6 train detectors on the full synthetic corpus and take
minutes; everything else is seconds.
"""

import os
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from _oracles import (
    bytes_match_outside,
    exhaustive_flip_invariant,
    fd_gradient_check,
    insertion_recovers,
    padding_recovers,
    sca_windows,
    tally_oracle,
    vote_oracle,
    windows_touching,
)
from chunksmooth import attacks, cli, corpus, harness, neural, pe, smoothing
from chunksmooth.ablation import AblationConfig, chunk_length
from chunksmooth.attacks import DetectorOracle, GaConfig
from chunksmooth.corpus import LABEL_MALICIOUS, SynthConfig, load_capped
from chunksmooth.harness import CampaignConfig
from chunksmooth.smoothing import DetectorSpec, TrainConfig

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(n: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {n}: {title}", file=sys.__stdout__, flush=True)
        raise
    print(f"[PASS] criterion {n}: {title}", file=sys.__stdout__, flush=True)


# -- shared corpus and detectors (criteria 4-6) ------------------------------------


@pytest.fixture(scope="module")
def acc_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance-corpus")
    manifest, _ = corpus.synth_corpus(SynthConfig(), out)  # 2000 files, seed 0
    train_m, val_m, test_m = corpus.temporal_split(manifest)
    return manifest, train_m, val_m, test_m


@pytest.fixture(scope="module")
def acc_models(acc_corpus):
    _, train_m, val_m, _ = acc_corpus
    cfg = TrainConfig(max_epochs=10, patience=3, seed=0)
    out = {}
    for spec in (
        DetectorSpec(kind="ns"),
        DetectorSpec(kind="sca", ablation=AblationConfig(scheme="sca", p=0.05, n_views=100)),
    ):
        params, history = smoothing.train_smoothed(train_m, val_m, spec, cfg)
        out[spec.kind] = (params, spec, history)
    return out


# -- criterion 1 -------------------------------------------------------------------


def test_criterion_1_sampler_suite():
    with criterion(1, "ablation sampler legality, coverage, determinism, overlap"):
        lengths = [1, 2, 7, 100, 999, 1000, 4096, 65536, 10**6]
        for l in lengths:
            for p in (0.01, 0.02, 0.05, 1.0):
                g = chunk_length(l, p)
                assert 1 <= g <= l
                for n_views in (1, 3, 20, 100):
                    cfg = AblationConfig(scheme="sca", p=p, n_views=n_views)
                    windows = sca_windows(l, cfg)
                    assert len(windows) == n_views
                    starts = [w.start for w in windows]
                    for w in windows:
                        assert 0 <= w.start < w.stop <= l
                        assert w.stop - w.start == g
                    assert starts == sorted(starts)  # monotone
                    assert windows[0].start == 0  # coverage: first byte
                    if n_views >= 2:
                        assert windows[-1].stop == l  # coverage: last byte
                    assert windows == sca_windows(l, cfg)  # deterministic

        # prose-anchored overlap facts at l=1000, p=0.05
        tiling = sca_windows(1000, AblationConfig(scheme="sca", p=0.05, n_views=20))
        for a, b in zip(tiling, tiling[1:]):
            assert a.stop <= b.start  # zero adjacent overlap
        dense = sca_windows(1000, AblationConfig(scheme="sca", p=0.05, n_views=100))
        g = chunk_length(1000, 0.05)
        for a, b in zip(dense, dense[1:]):
            overlap = (a.stop - b.start) / g
            assert 0.77 <= overlap <= 0.83


# -- criterion 2 -------------------------------------------------------------------


def test_criterion_2_vote_math(monkeypatch):
    with criterion(2, "vote arithmetic and tie-breaking"):
        params = neural.init_params(neural.PROFILES["desk"], seed=0)
        data = bytes(np.random.default_rng(0).integers(0, 256, size=1000, dtype=np.uint8))
        rng = np.random.default_rng(2)
        for _ in range(1000):
            L = int(rng.integers(1, 200))
            scores = rng.random(L)
            # each call, one per block of views, is served the next block's scores
            monkeypatch.setattr(
                smoothing.neural,
                "view_heads",
                lambda p, pooled, s=iter(scores): np.fromiter(s, dtype=float, count=len(pooled)),
            )
            spec = DetectorSpec(
                kind="sca", ablation=AblationConfig(scheme="sca", p=0.05, n_views=L)
            )
            pred = smoothing.predict_smoothed(params, spec, data)
            votes, probs, label = tally_oracle(scores)
            assert pred.votes == votes
            assert sum(pred.votes.values()) == L
            assert pred.probabilities == probs
            assert sum(pred.probabilities.values()) == 1.0
            assert pred.label == label  # argmax with malicious tie-break


# -- criterion 3 -------------------------------------------------------------------


def test_criterion_3_gradient_check():
    with criterion(3, "analytic gradients vs finite differences"):
        rng = np.random.default_rng(3)
        for i in range(20):
            window = int(rng.integers(2, 9))
            profile = neural.ModelProfile(
                emb_dim=int(rng.integers(2, 5)),
                n_filters=int(rng.integers(2, 5)),
                window=window,
                stride=int(rng.integers(1, window + 1)),
            )
            params = neural.init_params(profile, seed=int(rng.integers(1 << 30)), dtype=np.float64)
            if i == 0:
                n_tokens = window - 1  # shorter than one window: padded path
            else:
                n_tokens = int(rng.integers(window, 40))
            tokens = rng.integers(0, 257, size=n_tokens, dtype=np.int64)
            label = int(rng.integers(0, 2))
            checked, worst = fd_gradient_check(params, tokens, label)
            assert checked > 0
            assert worst < 1e-4


# -- criterion 4 -------------------------------------------------------------------


def test_criterion_4_certification_soundness(acc_corpus, acc_models):
    with criterion(4, "in-place certification soundness"):
        _, _, _, test_m = acc_corpus
        params, spec, _ = acc_models["sca"]
        rng = np.random.default_rng(4)
        cache = {}
        n_certified = 0
        for _ in range(500):
            entry = test_m.entries[int(rng.integers(len(test_m.entries)))]
            if entry.path not in cache:
                cache[entry.path] = load_capped(test_m.resolve(entry))
            data = cache[entry.path]
            length = int(rng.integers(1, min(4096, len(data)) + 1))
            start = int(rng.integers(0, len(data) - length + 1))
            region = (start, start + length)

            pred = smoothing.predict_smoothed(params, spec, data)
            cert = smoothing.certify_inplace(pred, region, spec)

            edited = bytearray(data)
            edited[start : start + length] = rng.integers(
                0, 256, size=length, dtype=np.uint8
            ).tobytes()
            pred_edit = smoothing.predict_smoothed(params, spec, bytes(edited))

            assert (pred.starts, pred.g) == (pred_edit.starts, pred_edit.g)
            windows = [range(s, s + pred.g) for s in pred.starts]
            touched = set(windows_touching(windows, region))
            votes, votes_edit = vote_oracle(pred.scores), vote_oracle(pred_edit.scores)
            for i, (a, b) in enumerate(zip(votes, votes_edit)):
                if i not in touched:
                    assert a == b  # disjoint windows never move

            if cert.certified:
                n_certified += 1
                assert pred_edit.label == pred.label
                assert exhaustive_flip_invariant(votes, sorted(touched))
        assert n_certified >= 50  # the check must actually exercise certified cases


# -- criterion 5 -------------------------------------------------------------------


def test_criterion_5_attack_round_trip(acc_corpus):
    with criterion(5, "attack structural round-trip"):
        manifest, _, _, _ = acc_corpus
        targets = harness.select_targets(manifest, 50, seed=5)
        pool = harness.harvest_benign_sections(manifest)
        hostile = lambda: DetectorOracle(lambda data: (1.0, LABEL_MALICIOUS))
        ga = GaConfig(population=4, generations=2, seed=0)

        for entry in targets:
            data = load_capped(manifest.resolve(entry))
            layout = pe.parse_pe(data)
            original_contents = pe.section_contents(data, layout)

            res = attacks.attack_padding(
                data, hostile(), attacks.PaddingConfig(n_pad=1024, ga=ga)
            )
            pe.parse_pe(res.adversarial)
            assert padding_recovers(data, res.adversarial, res.payload_spans, 1024)

            res = attacks.attack_shift(data, hostile(), attacks.ShiftConfig(extension=512, ga=ga))
            shifted = pe.parse_pe(res.adversarial)
            assert pe.section_contents(res.adversarial, shifted) == original_contents

            res = attacks.attack_gamma(
                data, hostile(), pool, attacks.GammaConfig(n_sections=4, ga=ga)
            )
            injected = pe.parse_pe(res.adversarial)
            assert res.size_ratio <= 2.0
            assert (
                pe.section_contents(res.adversarial, injected)[: layout.num_sections]
                == original_contents
            )
            for s, e in res.payload_spans:
                payload = res.adversarial[s:e]
                assert any(c[: len(payload)] == payload for c in pool)

            res = attacks.attack_caves(data, hostile(), attacks.CavesConfig(ga=ga))
            pe.parse_pe(res.adversarial)
            assert res.size_ratio <= 2.0
            recovered = insertion_recovers(data, res.adversarial, res.payload_spans)
            exempt = []
            for i in range(layout.num_sections):
                off = layout.section_entry_offset(i)
                exempt.append((off + 16, off + 24))  # patched size/offset fields
            assert bytes_match_outside(recovered, data, exempt)


# -- criterion 6 -------------------------------------------------------------------


def test_criterion_6_robustness_gap(acc_corpus, acc_models):
    with criterion(6, "smoothed vs plain robustness gap"):
        t0 = time.perf_counter()
        _, _, _, test_m = acc_corpus

        for kind in ("ns", "sca"):
            params, spec, _ = acc_models[kind]
            report = harness.evaluate(params, spec, test_m, split="test")
            assert report.accuracy >= 0.95, f"{kind} clean accuracy {report.accuracy:.4f}"

        records = []
        campaigns = (("padding", {"n_pad": 10000}), ("shift", {"extension": 4096}))
        for attack_name, attack_params in campaigns:
            for kind in ("ns", "sca"):
                params, spec, _ = acc_models[kind]
                for seed in (0, 1, 2):
                    cfg = CampaignConfig(
                        attack=attack_name,
                        n_files=50,
                        seed=seed,
                        ga=GaConfig(population=10, generations=10, seed=seed),
                        params=attack_params,
                    )
                    records.extend(harness.run_attack_campaign(params, spec, test_m, cfg))

        rows = {(r.attack, r.detector): r for r in harness.robustness_table(records)}
        for attack_name, _ in campaigns:
            sca_acc = rows[(attack_name, "sca")].adversarial_accuracy
            ns_acc = rows[(attack_name, "ns")].adversarial_accuracy
            assert rows[(attack_name, "sca")].n_seeds == 3
            assert sca_acc - ns_acc >= 0.20, f"{attack_name}: sca {sca_acc} vs ns {ns_acc}"
        assert rows[("padding", "sca")].adversarial_accuracy >= 0.90

        assert time.perf_counter() - t0 <= 1800  # fits the half-hour budget


# -- criterion 7 -------------------------------------------------------------------


def _run_pipeline(run_dir) -> dict[str, bytes]:
    """Full CLI loop with fixed seeds; returns the artifact bytes keyed by
    name."""
    old_cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        assert (
            cli.main(
                [
                    "gen-corpus",
                    "--out",
                    "corpus",
                    "--n-files",
                    "120",
                    "--size-min",
                    "6144",
                    "--size-max",
                    "12288",
                    "--seed",
                    "11",
                ]
            )
            == 0
        )
        assert (
            cli.main(
                [
                    "train",
                    "--corpus",
                    "corpus",
                    "--out",
                    "model.bin",
                    "--detector",
                    "sca",
                    "--p",
                    "0.05",
                    "--n-views",
                    "20",
                    "--max-epochs",
                    "3",
                    "--patience",
                    "2",
                    "--seed",
                    "0",
                ]
            )
            == 0
        )
        manifest = corpus.read_manifest(run_dir / "corpus" / "manifest.csv")
        files = [f"corpus/{e.path}" for e in manifest.entries[:2]]
        assert cli.main(["classify", "--model", "model.bin", "--json", "preds.json", *files]) == 0
        assert (
            cli.main(
                [
                    "evaluate",
                    "--model",
                    "model.bin",
                    "--corpus",
                    "corpus",
                    "--split",
                    "test",
                    "--json",
                    "eval.json",
                ]
            )
            == 0
        )
        assert (
            cli.main(
                [
                    "attack",
                    "--model",
                    "model.bin",
                    "--corpus",
                    "corpus",
                    "--attack",
                    "padding",
                    "--param",
                    "n_pad=64",
                    "--n-files",
                    "3",
                    "--population",
                    "2",
                    "--generations",
                    "2",
                    "--out",
                    "records.jsonl",
                    "--adv-dir",
                    "adv",
                    "--seed",
                    "0",
                ]
            )
            == 0
        )
        assert cli.main(["report", "records.jsonl", "--csv", "table.csv"]) == 0

        artifacts = {}
        for name in ("corpus/manifest.csv", "model.bin", "preds.json", "records.jsonl", "table.csv"):
            artifacts[name] = (run_dir / name).read_bytes()
        for adv in sorted((run_dir / "adv").iterdir()):
            artifacts[f"adv/{adv.name}"] = adv.read_bytes()
        artifacts["eval.json"] = (run_dir / "eval.json").read_bytes()
        return artifacts
    finally:
        os.chdir(old_cwd)


def test_criterion_7_pipeline_determinism(tmp_path):
    with criterion(7, "byte-identical reports under fixed seeds"):
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        run_a.mkdir()
        run_b.mkdir()
        first = _run_pipeline(run_a)
        second = _run_pipeline(run_b)
        assert sorted(first) == sorted(second)
        for name in first:
            assert first[name] == second[name], f"artifact {name} differs between runs"
