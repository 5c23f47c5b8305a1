"""Evaluation harness and CLI: metrics, reports, campaigns, robustness
aggregation, and the end-to-end command pipeline with its exit codes."""

import csv
import hashlib
import json
import struct
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _oracles import metrics_oracle, tally_oracle, vote_oracle
from chunksmooth import attacks, cli, harness, neural, pe, smoothing
from chunksmooth.ablation import MAX_VIEWS, AblationConfig
from chunksmooth.attacks import GaConfig
from chunksmooth.corpus import LABEL_BENIGN, LABEL_MALICIOUS, CorpusManifest, read_manifest, write_manifest
from chunksmooth.errors import ConfigInvalid, DataError, EmptyCorpus, IoFailure
from chunksmooth.harness import (
    CampaignConfig,
    EvalReport,
    RobustnessRow,
    metrics_from_counts,
    robustness_table,
    select_targets,
)

# -- metrics ------------------------------------------------------------------


def test_metrics_examples():
    assert metrics_from_counts(3, 1, 5, 1) == (0.8, 0.75)
    assert metrics_from_counts(0, 0, 0, 0) == (0.0, 0.0)
    assert metrics_from_counts(0, 0, 10, 0) == (1.0, 0.0)  # no positives: f1 degenerates to 0
    assert metrics_from_counts(10, 0, 0, 0) == (1.0, 1.0)


def test_metrics_match_oracle_on_random_counts():
    rng = np.random.default_rng(3)
    for _ in range(200):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 50, size=4))
        assert metrics_from_counts(tp, fp, tn, fn) == metrics_oracle(tp, fp, tn, fn)


def _report(**kw):
    base = dict(
        detector="sca",
        split="test",
        n=10,
        tp=4,
        fp=1,
        tn=4,
        fn=1,
        accuracy=0.8,
        f1=0.8,
    )
    base.update(kw)
    return EvalReport(**base)


def test_eval_report_round_trip():
    report = _report()
    again = EvalReport.from_dict(asdict(report))
    assert again == report
    # reports written before the field was dropped still load
    assert EvalReport.from_dict({**asdict(report), "train_minutes_per_epoch": None}) == report


def test_eval_report_reads_reports_with_wall_clock_keys():
    # reports once carried the evaluation's wall-clock time; it is ignored
    report = _report()
    old = {**asdict(report), "seconds": 2.5, "seconds_per_example": 0.25}
    assert EvalReport.from_dict(old) == report


def test_eval_report_missing_field():
    d = asdict(_report())
    del d["tn"]
    with pytest.raises(DataError, match="tn"):
        EvalReport.from_dict(d)


@pytest.mark.parametrize(
    "payload, match",
    [
        ([1, 2], "JSON object"),
        ({**asdict(_report()), "accuracy": "high"}, "accuracy"),
        ({**asdict(_report()), "n": 10.0}, "'n'"),
        ({**asdict(_report()), "tp": True}, "tp"),
        ({**asdict(_report()), "detector": None}, "detector"),
        ({**asdict(_report()), "accuracy": 10**400}, "accuracy"),
    ],
)
def test_eval_report_rejects_wrong_types(payload, match):
    with pytest.raises(DataError, match=match):
        EvalReport.from_dict(payload)


# -- robustness aggregation --------------------------------------------------------


def _campaign_records(attack, detector, params, seed, n, evaded_count, queries=20):
    recs = []
    for i in range(n):
        recs.append(
            {
                "attack": attack,
                "detector": detector,
                "params": params,
                "seed": seed,
                "file": f"f{i}",
                "sha256": f"{i:064x}",
                "evaded": i < evaded_count,
                "queries": queries,
                "size_ratio": 1.0,
                "best_score": 0.9,
                "payload_spans": [],
            }
        )
    return recs


def test_robustness_mean_and_std_over_seeds():
    records = []
    for seed, evaded in ((0, 4), (1, 4), (2, 5)):
        records.extend(_campaign_records("padding", "sca", {}, seed, 100, evaded))
    rows = robustness_table(records)
    assert len(rows) == 1
    row = rows[0]
    assert row.n_seeds == 3
    assert row.n_files == 100
    assert round(row.adversarial_accuracy, 4) == 0.9567
    assert round(row.std, 4) == 0.0058
    assert row.mean_queries == 20.0
    assert row.clean_accuracy is None


def test_robustness_groups_by_attack_detector_params():
    records = (
        _campaign_records("padding", "sca", {"n_pad": 100}, 0, 10, 1)
        + _campaign_records("padding", "sca", {"n_pad": 200}, 0, 10, 5)
        + _campaign_records("padding", "ns", {"n_pad": 100}, 0, 10, 10)
    )
    rows = robustness_table(records)
    assert [(r.attack, r.detector, r.params) for r in rows] == [
        ("padding", "ns", {"n_pad": 100}),
        ("padding", "sca", {"n_pad": 100}),
        ("padding", "sca", {"n_pad": 200}),
    ]
    assert [r.adversarial_accuracy for r in rows] == [0.0, 0.9, 0.5]
    assert all(r.std == 0.0 for r in rows)  # single seed each


def test_robustness_clean_column():
    records = _campaign_records("shift", "sca", {}, 0, 10, 2)
    clean = {"sca": _report(accuracy=0.97)}
    (row,) = robustness_table(records, clean=clean)
    assert row.clean_accuracy == 0.97
    (row,) = robustness_table(records, clean={"ns": _report()})
    assert row.clean_accuracy is None


def test_render_table_formats():
    single = robustness_table(_campaign_records("caves", "rs", {"k": 1}, 0, 5, 1))
    text = harness.render_table(single)
    assert "attack" in text and "caves" in text and "k=1" in text
    assert "0.8000" in text and "±" not in text

    multi = robustness_table(
        _campaign_records("caves", "rs", {}, 0, 5, 1) + _campaign_records("caves", "rs", {}, 1, 5, 2)
    )
    assert "±" in harness.render_table(multi)


def test_table_csv_round_trip(tmp_path):
    rows = robustness_table(
        _campaign_records("gamma", "sca", {"n_sections": 5}, 0, 10, 3),
        clean={"sca": _report(accuracy=0.975)},
    )
    path = tmp_path / "table.csv"
    harness.write_table_csv(rows, path)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0][0] == "attack"
    assert len(parsed) == 2
    assert parsed[1][:3] == ["gamma", "sca", "n_sections=5"]
    assert parsed[1][5] == "0.975000"
    assert parsed[1][6] == "0.700000"


# -- target selection and seeding ------------------------------------------------------


def test_select_targets_is_seeded_and_sorted(small_corpus):
    manifest, _, _ = small_corpus
    chosen = select_targets(manifest, 10, seed=4)
    assert len(chosen) == 10
    assert all(e.label == LABEL_MALICIOUS for e in chosen)
    assert [e.sha256 for e in chosen] == sorted(e.sha256 for e in chosen)
    assert chosen == select_targets(manifest, 10, seed=4)
    assert chosen != select_targets(manifest, 10, seed=5)

    everything = select_targets(manifest, 10_000, seed=0)
    assert len(everything) == len(manifest.malicious())


def test_select_targets_ignores_row_order(small_corpus):
    manifest, _, _ = small_corpus
    shuffled = list(manifest.entries)
    np.random.default_rng(0).shuffle(shuffled)
    reordered = replace(manifest, entries=tuple(shuffled))
    assert select_targets(manifest, 7, seed=1) == select_targets(reordered, 7, seed=1)


def test_select_targets_needs_malicious(small_corpus):
    manifest, _, _ = small_corpus
    benign_only = replace(
        manifest, entries=tuple(e for e in manifest.entries if e.label == LABEL_BENIGN)
    )
    with pytest.raises(EmptyCorpus):
        select_targets(benign_only, 5, seed=0)


def test_file_seed_is_stable_and_distinct():
    d1, d2 = "ab" * 32, "cd" * 32
    assert harness._file_seed(0, d1) == harness._file_seed(0, d1)
    assert harness._file_seed(0, d1) != harness._file_seed(1, d1)
    assert harness._file_seed(0, d1) != harness._file_seed(0, d2)
    assert 0 <= harness._file_seed(0, d1) < 2**32


def test_jsonl_round_trip(tmp_path):
    records = [{"a": 1, "b": [1, 2]}, {"a": 2, "b": []}]
    path = tmp_path / "r.jsonl"
    harness.write_jsonl(records, path)
    assert harness.read_jsonl(path) == records
    # sorted keys make the stream byte-stable regardless of dict order
    harness.write_jsonl([{"b": [], "a": 2}], path)
    assert path.read_text().startswith('{"a": 2')


def test_harvest_benign_sections(small_corpus):
    manifest, _, _ = small_corpus
    pool = harness.harvest_benign_sections(manifest, max_files=5, min_len=64)
    assert pool and all(len(c) >= 64 for c in pool)
    assert pool == harness.harvest_benign_sections(manifest, max_files=5, min_len=64)
    with pytest.raises(EmptyCorpus):
        harness.harvest_benign_sections(manifest, max_files=1, min_len=10**9)


def test_campaign_config_validation():
    with pytest.raises(ConfigInvalid):
        CampaignConfig(attack="nope")
    with pytest.raises(ConfigInvalid):
        CampaignConfig(attack="padding", n_files=0)


# -- evaluate -----------------------------------------------------------------------------


def test_evaluate_counts_and_split_stamp(desk_model, small_splits):
    params, spec, _ = desk_model
    _, _, test_m = small_splits
    report = harness.evaluate(params, spec, test_m, split="test")
    assert report.split == "test"
    assert report.detector == "sca"
    assert report.n == len(test_m.entries) == report.tp + report.fp + report.tn + report.fn
    assert (report.accuracy, report.f1) == metrics_oracle(
        report.tp, report.fp, report.tn, report.fn
    )


def test_evaluate_thread_count_never_changes_results(desk_model, small_splits):
    params, spec, _ = desk_model
    _, val_m, _ = small_splits
    one = harness.evaluate(params, spec, val_m, threads=1)
    two = harness.evaluate(params, spec, val_m, threads=2)
    assert (one.tp, one.fp, one.tn, one.fn) == (two.tp, two.fp, two.tn, two.fn)


def test_evaluate_empty_manifest(desk_model, small_corpus):
    params, spec, _ = desk_model
    manifest, _, _ = small_corpus
    with pytest.raises(EmptyCorpus):
        harness.evaluate(params, spec, replace(manifest, entries=()))


def test_prediction_record_shapes(desk_model, small_corpus):
    params, spec, _ = desk_model
    manifest, _, _ = small_corpus
    data = (manifest.root / manifest.entries[0].path).read_bytes()

    rec = harness.prediction_record(params, spec, data, file="x", sha256="y")
    assert rec["detector"] == "sca"
    assert rec["L"] == spec.ablation.n_views
    assert len(rec["per_chunk"]) == spec.ablation.n_views
    assert rec["votes"][LABEL_MALICIOUS] + rec["votes"][LABEL_BENIGN] == spec.ablation.n_views
    json.dumps(rec)  # must be serializable as-is

    plain = harness.prediction_record(params, smoothing.DetectorSpec(kind="ns"), data)
    assert set(plain) == {"detector", "file", "sha256", "label", "score"}


@pytest.mark.parametrize("profile", ["desk", "original"])
@pytest.mark.parametrize("length", ["short", "window", "long"])
@pytest.mark.parametrize("n_views", [1, 20, 100])
def test_prediction_record_matches_view_scores(profile, length, n_views):
    """A smoothed record is its view scores, starts and g plus the vote
    threshold, field by field and as JSON text, for chunks shorter than,
    equal to and longer than the conv window (p=0.05, so l = 20 g)."""
    pr = neural.PROFILES[profile]
    g = {"short": pr.window - 1, "window": pr.window, "long": 2 * pr.window + 1}[length]
    params = neural.init_params(pr, seed=n_views)
    data = np.random.default_rng(g).integers(0, 256, size=20 * g, dtype=np.uint8).tobytes()
    for kind in ("sca", "rca", "rs"):
        spec = smoothing.DetectorSpec(kind=kind, ablation=AblationConfig(scheme=kind, p=0.05, n_views=n_views))
        blocks, starts, view_len = smoothing.view_scorer(params, spec)(data)
        scores = np.concatenate(list(blocks))
        assert view_len == (len(data) if kind == "rs" else g)
        scores = [float(s) for s in scores]
        votes, probabilities, label = tally_oracle(scores)
        bounds = [(None, None)] * n_views if starts is None else [(int(s), int(s) + g) for s in starts]
        want = {
            "detector": kind,
            "file": "f",
            "sha256": "d",
            "label": label,
            "votes": votes,
            "probabilities": probabilities,
            "L": n_views,
            "p": 0.05,
            "per_chunk": [
                {"start": a, "end": b, "score": s, "vote": v}
                for (a, b), s, v in zip(bounds, scores, vote_oracle(scores))
            ],
        }
        rec = harness.prediction_record(params, spec, data, file="f", sha256="d")
        assert sorted(rec) == sorted(want)
        for key in want:
            assert rec[key] == want[key], (kind, key)
        assert json.dumps(rec, sort_keys=True) == json.dumps(want, sort_keys=True)


# -- attack campaigns ---------------------------------------------------------------------


def test_attack_campaign_records_and_outputs(desk_model, small_corpus, tmp_path):
    params, spec, _ = desk_model
    manifest, _, _ = small_corpus
    cfg = CampaignConfig(
        attack="padding",
        n_files=3,
        seed=0,
        ga=GaConfig(population=2, generations=1, seed=0),
        params={"n_pad": 64},
    )
    out_dir = tmp_path / "adv"
    records = harness.run_attack_campaign(params, spec, manifest, cfg, out_dir=out_dir)
    assert len(records) == 3
    for rec in records:
        assert set(rec) == {
            "attack",
            "params",
            "detector",
            "file",
            "sha256",
            "evaded",
            "queries",
            "size_ratio",
            "best_score",
            "payload_spans",
            "seed",
        }
        assert rec["attack"] == "padding"
        assert rec["detector"] == "sca"
        assert rec["seed"] == 0
        assert rec["queries"] >= 2
        adv = (out_dir / f"{rec['sha256'][:16]}.adv.bin").read_bytes()
        pe.parse_pe(adv)  # written artifact must stay parseable

    again = harness.run_attack_campaign(params, spec, manifest, cfg)
    assert records == again


def test_attack_campaign_gamma_uses_pool(desk_model, small_corpus):
    params, spec, _ = desk_model
    manifest, _, _ = small_corpus
    pool = harness.harvest_benign_sections(manifest, max_files=3)
    cfg = CampaignConfig(
        attack="gamma",
        n_files=2,
        seed=1,
        ga=GaConfig(population=2, generations=1, seed=0),
        params={"n_sections": 2},
    )
    records = harness.run_attack_campaign(params, spec, manifest, cfg, pool=pool)
    assert len(records) == 2
    assert all(r["size_ratio"] <= 2.0 for r in records)
    with pytest.raises(ConfigInvalid):
        harness.run_attack_campaign(params, spec, manifest, cfg, pool=None)


@pytest.mark.parametrize(
    "value, slack", [("0", False), ("false", False), ("FALSE", False), ("1", True), ("True", True)]
)
def test_attack_campaign_parses_bool_knobs(desk_model, small_corpus, value, slack):
    params, spec, _ = desk_model
    manifest, _, _ = small_corpus
    cfg = CampaignConfig(
        attack="padding",
        n_files=1,
        ga=GaConfig(population=2, generations=1),
        params={"n_pad": "64", "optimize_slack": value},
    )
    (rec,) = harness.run_attack_campaign(params, spec, manifest, cfg)
    end = rec["payload_spans"][-1][1]
    assert rec["payload_spans"][-1] == [end - 64, end]  # the overlay
    assert (len(rec["payload_spans"]) > 1) == slack
    assert rec["params"] == {"n_pad": "64", "optimize_slack": value}  # echoed as given


@pytest.mark.parametrize(
    "attack, knobs",
    [
        ("padding", {"n_pad": "abc"}),
        ("padding", {"n_padd": "5"}),
        ("padding", {"optimize_slack": "maybe"}),
        ("shift", {"extension": "4096.5"}),
        ("shift", {"extension": 4096.5}),
        ("gamma", {"size_cap": "big"}),
        ("caves", {"n_pad": 1}),
    ],
)
def test_campaign_config_rejects_bad_knobs(attack, knobs):
    with pytest.raises(ConfigInvalid, match=next(iter(knobs))):
        CampaignConfig(attack=attack, params=knobs)


def test_campaign_config_types_knobs():
    cfg = CampaignConfig(attack="gamma", params={"n_sections": " 3 ", "size_cap": "1.5"}, ga=GaConfig(seed=4))
    assert cfg.attack_config() == attacks.GammaConfig(n_sections=3, size_cap=1.5, ga=GaConfig(seed=4))
    assert CampaignConfig(attack="caves").attack_config() == attacks.CavesConfig()


# -- command line ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """gen-corpus + train once; the command tests share the results."""
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = root / "corpus"
    model = root / "model.bin"
    rc = cli.main(
        [
            "gen-corpus",
            "--out",
            str(corpus_dir),
            "--n-files",
            "40",
            "--size-min",
            "6144",
            "--size-max",
            "12288",
            "--seed",
            "11",
        ]
    )
    assert rc == 0
    rc = cli.main(
        [
            "train",
            "--corpus",
            str(corpus_dir),
            "--out",
            str(model),
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
    assert rc == 0
    return {"root": root, "corpus": corpus_dir, "model": model}


def test_cli_gen_corpus_writes_manifests(cli_env):
    corpus_dir = cli_env["corpus"]
    manifest = read_manifest(corpus_dir / "manifest.csv")
    assert len(manifest.entries) == 40
    for name, count in (("train", 32), ("val", 4), ("test", 4)):
        split = read_manifest(corpus_dir / f"manifest.{name}.csv")
        assert len(split.entries) == count


def test_cli_classify(cli_env, tmp_path, capsys):
    manifest = read_manifest(cli_env["corpus"] / "manifest.csv")
    files = [str(manifest.root / e.path) for e in manifest.entries[:2]]
    out = tmp_path / "preds.json"
    assert cli.main(["classify", "--model", str(cli_env["model"]), "--json", str(out), *files]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["file"] == files[0]
    expected = hashlib.sha256((manifest.root / manifest.entries[0].path).read_bytes()).hexdigest()
    assert rec["sha256"] == expected
    assert rec["label"] in (LABEL_MALICIOUS, LABEL_BENIGN)

    # no --json: records go to stdout instead
    assert cli.main(["classify", "--model", str(cli_env["model"]), files[0]]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[0])["file"] == files[0]


def test_cli_classify_rs_checkpoint(cli_env, tmp_path):
    spec = smoothing.DetectorSpec(kind="rs", ablation=AblationConfig(scheme="rs", p=0.2, n_views=5))
    model = tmp_path / "rs.bin"
    neural.save_checkpoint(model, neural.init_params(neural.PROFILES["desk"], seed=0), spec.meta())
    manifest = read_manifest(cli_env["corpus"] / "manifest.csv")
    out = tmp_path / "preds.json"
    file = str(manifest.root / manifest.entries[0].path)
    assert cli.main(["classify", "--model", str(model), "--json", str(out), file]) == 0
    rec = json.loads(out.read_text())
    assert rec["detector"] == "rs" and len(rec["per_chunk"]) == 5
    assert all(c["start"] is None and c["end"] is None for c in rec["per_chunk"])


def test_cli_evaluate(cli_env, tmp_path):
    out = tmp_path / "eval.json"
    rc = cli.main(
        [
            "evaluate",
            "--model",
            str(cli_env["model"]),
            "--corpus",
            str(cli_env["corpus"]),
            "--split",
            "test",
            "--json",
            str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert sorted(report) == sorted(f.name for f in fields(EvalReport))  # no wall-clock keys
    assert report["split"] == "test"
    assert report["n"] == 4
    assert report["tp"] + report["fp"] + report["tn"] + report["fn"] == 4


def test_cli_attack_and_report(cli_env, tmp_path, capsys):
    records_path = tmp_path / "padding.jsonl"
    adv_dir = tmp_path / "adv"
    rc = cli.main(
        [
            "attack",
            "--model",
            str(cli_env["model"]),
            "--corpus",
            str(cli_env["corpus"]),
            "--attack",
            "padding",
            "--param",
            "n_pad=64",
            "--n-files",
            "2",
            "--population",
            "2",
            "--generations",
            "1",
            "--out",
            str(records_path),
            "--adv-dir",
            str(adv_dir),
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    records = harness.read_jsonl(records_path)
    assert len(records) == 2
    assert len(list(adv_dir.glob("*.adv.bin"))) == 2
    capsys.readouterr()

    eval_json = tmp_path / "eval.json"
    cli.main(
        [
            "evaluate",
            "--model",
            str(cli_env["model"]),
            "--corpus",
            str(cli_env["corpus"]),
            "--json",
            str(eval_json),
        ]
    )
    capsys.readouterr()
    table_csv = tmp_path / "table.csv"
    rc = cli.main(
        ["report", str(records_path), "--clean", str(eval_json), "--csv", str(table_csv)]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "padding" in text and "sca" in text
    with open(table_csv, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert len(parsed) == 2  # header + one grouped row
    assert parsed[1][0] == "padding"
    assert parsed[1][5] != ""  # clean accuracy came from the eval report


@pytest.mark.parametrize(
    "attack, knob",
    [
        ("padding", "n_pad=abc"),
        ("padding", "n_padd=5"),
        ("shift", "extension=4096.5"),
        ("padding", "n_pad=-5"),
        ("shift", "extension=0"),
        ("gamma", "n_sections=0"),
        ("gamma", "size_cap=0.5"),
        ("caves", "min_cave_len=0"),
        ("caves", "max_units_per_cave=-1"),
        ("caves", "size_cap=0"),
    ],
)
def test_cli_attack_rejects_bad_knobs(cli_env, tmp_path, capsys, attack, knob):
    adv_dir = tmp_path / "adv"
    rc = cli.main(
        [
            "attack", "--model", str(cli_env["model"]), "--corpus", str(cli_env["corpus"]),
            "--attack", attack, "--param", knob, "--n-files", "1", "--population", "2",
            "--generations", "1", "--out", str(tmp_path / "r.jsonl"), "--adv-dir", str(adv_dir),
        ]
    )
    assert rc == 2
    assert knob.split("=")[0] in capsys.readouterr().err
    assert not adv_dir.exists() or not any(adv_dir.iterdir())
    assert not (tmp_path / "r.jsonl").exists()


def test_cli_attack_aborts_on_an_unparseable_target(cli_env, tmp_path, capsys):
    """One target that is not a PE file aborts the whole campaign with exit
    3 and no records file; the adversarial files of the targets attacked
    before it stay in --adv-dir."""
    source = read_manifest(cli_env["corpus"] / "manifest.csv")
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    entries = []
    for e in source.malicious()[:3]:
        (corpus_dir / e.path).write_bytes((source.root / e.path).read_bytes())
        entries.append(e)
    junk = b"not a PE file " * 101  # sha256 f98aba9b...: targets go in digest order
    (corpus_dir / "junk.bin").write_bytes(junk)
    entries.append(replace(entries[0], path="junk.bin", sha256=hashlib.sha256(junk).hexdigest()))
    write_manifest(CorpusManifest(entries=tuple(entries)), corpus_dir / "manifest.csv")

    adv_dir = tmp_path / "adv"
    out = tmp_path / "r.jsonl"
    rc = cli.main(
        [
            "attack", "--model", str(cli_env["model"]), "--corpus", str(corpus_dir),
            "--attack", "padding", "--param", "n_pad=64", "--n-files", "4", "--population", "2",
            "--generations", "1", "--out", str(out), "--adv-dir", str(adv_dir),
        ]
    )
    assert rc == 3
    assert "MZ" in capsys.readouterr().err
    assert not out.exists()
    digests = sorted(e.sha256 for e in entries)
    before = digests[: digests.index(entries[-1].sha256)]
    assert before  # the junk target is not the first one attacked
    assert sorted(p.name for p in adv_dir.iterdir()) == sorted(f"{d[:16]}.adv.bin" for d in before)


_NO_DETECTOR = {k: v for k, v in _campaign_records("padding", "sca", {}, 0, 1, 0)[0].items() if k != "detector"}


@pytest.mark.parametrize(
    "content, where",
    [
        (b'{"attack": "padding"}\n{"attack": \n', "r.jsonl:2"),
        (b'{"attack": "padding"}\n\n"\xff\xfe"\n', "r.jsonl:3"),
        (b"[1, 2]\n", "r.jsonl:1"),
        (json.dumps(_NO_DETECTOR).encode() + b"\n", "detector"),
    ],
    ids=["bad-json", "not-utf8", "not-an-object", "no-detector"],
)
def test_cli_report_rejects_bad_records(tmp_path, capsys, content, where):
    path = tmp_path / "r.jsonl"
    path.write_bytes(content)
    assert cli.main(["report", str(path)]) == 3
    assert where in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, where",
    [
        (None, "cannot read evaluation report"),
        (b'{"detector": ', "not a UTF-8 JSON"),
        (b'"\xff\xfe"', "not a UTF-8 JSON"),
        (b"[1]", "JSON object"),
        (json.dumps({k: v for k, v in asdict(_report()).items() if k != "accuracy"}).encode(), "accuracy"),
    ],
    ids=["missing", "bad-json", "not-utf8", "not-an-object", "no-accuracy"],
)
def test_cli_report_rejects_bad_clean_report(tmp_path, capsys, content, where):
    records = tmp_path / "r.jsonl"
    harness.write_jsonl(_campaign_records("padding", "sca", {}, 0, 1, 0), records)
    clean = tmp_path / "eval.json"
    if content is not None:
        clean.write_bytes(content)
    assert cli.main(["report", str(records), "--clean", str(clean)]) == 3
    assert where in capsys.readouterr().err


def test_cli_rejects_bad_checkpoint_meta(cli_env, tmp_path, capsys):
    raw = cli_env["model"].read_bytes()
    end = 10 + struct.unpack_from("<I", raw, 6)[0]
    manifest = read_manifest(cli_env["corpus"] / "manifest.csv")
    target = str(manifest.root / manifest.entries[0].path)
    broken = tmp_path / "broken.bin"

    def classify_exit(blob: bytes) -> int:
        broken.write_bytes(raw[:6] + struct.pack("<I", len(blob)) + blob + raw[end:])
        return cli.main(["classify", "--model", str(broken), target])

    assert classify_exit(b"\xff" + raw[11:end]) == 3
    meta = json.loads(raw[10:end])
    del meta["detector"]["n_views"]
    assert classify_exit(json.dumps(meta).encode()) == 3
    meta["model"]["stride"] = meta["model"]["window"] + 1
    assert classify_exit(json.dumps(meta).encode()) == 3
    err = capsys.readouterr().err
    assert "UTF-8 JSON" in err and "n_views" in err and "exceeds window" in err
    assert capsys.readouterr().out == ""


_SCA_BIN = (Path(__file__).resolve().parents[1] / "perfbench" / "models" / "sca.bin").read_bytes()


@pytest.mark.parametrize("kind", ["sca", "rca", "rs"])
def test_checkpoint_sca_mode_key_is_pinned(kind, tmp_path, capsys):
    """Checkpoints keep writing the constant "sca_mode": "even"; a block
    naming any other placement is refused, by the library and by the CLI."""
    end = 10 + struct.unpack_from("<I", _SCA_BIN, 6)[0]
    meta = json.loads(_SCA_BIN[10:end])
    block = dict(meta["detector"], kind=kind)
    assert block["sca_mode"] == "even"
    assert smoothing.DetectorSpec.from_meta(block).meta() == block
    verbatim = dict(block, sca_mode="verbatim")
    with pytest.raises(DataError, match="sca_mode"):
        smoothing.DetectorSpec.from_meta(verbatim)

    model = tmp_path / "model.bin"
    target = tmp_path / "target.bin"
    target.write_bytes(bytes(range(256)) * 8)

    def classify_exit(detector: dict) -> int:
        blob = json.dumps(dict(meta, detector=detector), sort_keys=True).encode()
        model.write_bytes(_SCA_BIN[:6] + struct.pack("<I", len(blob)) + blob + _SCA_BIN[end:])
        return cli.main(["classify", "--model", str(model), str(target)])

    assert classify_exit(block) == 0
    capsys.readouterr()
    assert classify_exit(verbatim) == 3
    captured = capsys.readouterr()
    assert "sca_mode" in captured.err and captured.out == ""


_NS_BIN = (Path(__file__).resolve().parents[1] / "perfbench" / "models" / "ns.bin").read_bytes()


def _meta_of(checkpoint: bytes) -> tuple[dict, int]:
    end = 10 + struct.unpack_from("<I", checkpoint, 6)[0]
    return json.loads(checkpoint[10:end]), end


@pytest.mark.parametrize("key, value", [("vote_threshold", 0.6), ("soft_scores", True), ("soft_scores", 0)])
def test_checkpoint_vote_keys_are_pinned(key, value, tmp_path, capsys):
    """There is one vote rule: checkpoints keep writing "vote_threshold": 0.5
    and "soft_scores": false, and classify refuses a block with any other
    value, or the same value as another JSON type, with exit 3."""
    for checkpoint in (_NS_BIN, _SCA_BIN):
        block = _meta_of(checkpoint)[0]["detector"]
        assert (block["vote_threshold"], block["soft_scores"]) == (0.5, False)
        assert smoothing.DetectorSpec.from_meta(block).meta() == block

    meta, end = _meta_of(_SCA_BIN)
    model = tmp_path / "model.bin"
    target = tmp_path / "target.bin"
    target.write_bytes(bytes(range(256)) * 8)
    blob = json.dumps(dict(meta, detector=dict(meta["detector"], **{key: value})), sort_keys=True).encode()
    model.write_bytes(_SCA_BIN[:6] + struct.pack("<I", len(blob)) + blob + _SCA_BIN[end:])
    assert cli.main(["classify", "--model", str(model), str(target)]) == 3
    captured = capsys.readouterr()
    assert key in captured.err and captured.out == ""


@pytest.mark.parametrize("checkpoint", [_NS_BIN, _SCA_BIN], ids=["ns", "sca"])
def test_cli_refuses_a_checkpoint_with_non_finite_weights(checkpoint, tmp_path, capsys):
    """A NaN weight would label every file and write "score": NaN, which is
    not JSON: classify exits 3, names the tensor and writes no record."""
    meta, _ = _meta_of(checkpoint)
    raw = bytearray(checkpoint)
    struct.pack_into("<f", raw, len(raw) - 4 * (1 + meta["model"]["n_filters"]), float("nan"))  # fc_w[0]
    model = tmp_path / "model.bin"
    model.write_bytes(bytes(raw))
    target = tmp_path / "target.bin"
    target.write_bytes(bytes(range(256)) * 8)
    out = tmp_path / "out.json"
    assert cli.main(["classify", "--model", str(model), "--json", str(out), str(target)]) == 3
    captured = capsys.readouterr()
    assert "tensor fc_w" in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("checkpoint", [_NS_BIN, _SCA_BIN], ids=["ns", "sca"])
def test_cli_refuses_a_non_finite_score(checkpoint, tmp_path, capsys):
    """Finite weights whose conv overflows (emb 1, wa 3e38, wb -3e38: inf
    pre-activations times gates of exactly 0) score NaN.  classify and
    evaluate exit 4 and write no record or report, where they labelled the
    file benign and wrote "score": NaN, which is not JSON; attack exits 4
    and writes no records, where against sca it counted every target as
    evaded."""
    source = tmp_path / "source.bin"
    source.write_bytes(checkpoint)
    params, meta = neural.load_checkpoint(source)
    params.emb[...] = 1.0
    params.wa[...] = 3e38
    params.wb[...] = -3e38
    model = tmp_path / "model.bin"
    neural.save_checkpoint(model, params, meta["detector"])
    corpus_dir = tmp_path / "corpus"
    assert cli.main(["gen-corpus", "--out", str(corpus_dir), "--n-files", "4", "--size-min", "6144", "--size-max", "8192"]) == 0
    target = corpus_dir / read_manifest(corpus_dir / "manifest.csv").entries[0].path
    out = tmp_path / "out.json"
    capsys.readouterr()
    with np.errstate(over="ignore", invalid="ignore"):
        for argv in (
            ["classify", "--model", str(model), "--json", str(out), str(target)],
            ["classify", "--model", str(model), str(target)],
            ["evaluate", "--model", str(model), "--corpus", str(corpus_dir), "--split", "all", "--json", str(out)],
            ["attack", "--model", str(model), "--corpus", str(corpus_dir), "--attack", "padding", "--param", "n_pad=64",
             "--n-files", "2", "--population", "2", "--generations", "2", "--out", str(out)],
        ):
            assert cli.main(argv) == 4
            captured = capsys.readouterr()
            assert "error:" in captured.err and "NaN" in captured.err and captured.out == ""
            assert not out.exists()


_MISSING = object()


@pytest.mark.parametrize(
    "detector, code, message",
    [
        (_MISSING, 2, "retrain"),
        (None, 2, "retrain"),
        (0, 3, "JSON object"),
        ([], 3, "JSON object"),
        ("", 3, "JSON object"),
        (False, 3, "JSON object"),
        ({}, 3, "missing 'kind'"),
        (1, 3, "JSON object"),
        ([1], 3, "JSON object"),
        ("sca", 3, "JSON object"),
        (True, 3, "JSON object"),
    ],
    ids=[
        "missing", "null", "0", "empty-list", "empty-string", "false",
        "empty-object", "1", "list", "string", "true",
    ],
)
def test_cli_checkpoint_detector_block_exit_codes(detector, code, message, tmp_path, capsys):
    """Only a missing or null detector block (save_checkpoint without detector
    settings writes null) asks for retraining, with exit 2; any other
    block that is not a detector's is a data error, exit 3."""
    meta, end = _meta_of(_SCA_BIN)
    if detector is _MISSING:
        del meta["detector"]
    else:
        meta["detector"] = detector
    model = tmp_path / "model.bin"
    target = tmp_path / "target.bin"
    target.write_bytes(bytes(range(256)) * 8)
    blob = json.dumps(meta, sort_keys=True).encode()
    model.write_bytes(_SCA_BIN[:6] + struct.pack("<I", len(blob)) + blob + _SCA_BIN[end:])
    assert cli.main(["classify", "--model", str(model), str(target)]) == code
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_report_inputs_raise_data_errors(tmp_path):
    with pytest.raises(IoFailure):
        harness.read_jsonl(tmp_path / "missing.jsonl")
    good = _campaign_records("padding", "sca", {}, 0, 2, 1)
    for key in ("attack", "detector", "seed", "evaded", "queries"):
        broken = [good[0], {k: v for k, v in good[1].items() if k != key}]
        with pytest.raises(DataError, match=key):
            robustness_table(broken)
    # a value of the wrong JSON type is refused, naming the record and the
    # key; "false" would otherwise count as an evasion
    for key, value in (
        ("queries", "x"),
        ("queries", None),
        ("seed", [1]),
        ("attack", ["a"]),
        ("params", [1, 2]),
        ("params", "ab"),
        ("detector", 1),
        ("evaded", "false"),
        ("queries", 10**400),
    ):
        with pytest.raises(DataError, match=f"record 1 {key!r}"):
            robustness_table([good[0], {**good[1], key: value}])


def test_cli_ns_warns_that_p_is_ignored(cli_env, tmp_path, capsys):
    model = tmp_path / "ns.bin"
    rc = cli.main(
        [
            "train",
            "--corpus",
            str(cli_env["corpus"]),
            "--out",
            str(model),
            "--detector",
            "ns",
            "--p",
            "0.1",
            "--max-epochs",
            "2",
            "--patience",
            "1",
        ]
    )
    assert rc == 0
    assert "ignored" in capsys.readouterr().err


def test_cli_config_file_defaults_and_overrides(cli_env, tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("n-files = 10\nsize-min = 6144\nsize-max = 8192  # comment\nseed = 3\n")
    out_a = tmp_path / "a"
    rc = cli.main(["--config", str(cfg), "gen-corpus", "--out", str(out_a)])
    assert rc == 0
    assert len(read_manifest(out_a / "manifest.csv").entries) == 10

    # explicit flags beat config values
    out_b = tmp_path / "b"
    rc = cli.main(["--config", str(cfg), "gen-corpus", "--out", str(out_b), "--n-files", "6"])
    assert rc == 0
    assert len(read_manifest(out_b / "manifest.csv").entries) == 6

    # the --config=PATH form, and a config file that supplies a required option
    out_d = tmp_path / "d"
    with_out = tmp_path / "out.cfg"
    with_out.write_text(cfg.read_text() + f"out = {out_d}\n")
    assert cli.main([f"--config={with_out}", "gen-corpus"]) == 0
    assert len(read_manifest(out_d / "manifest.csv").entries) == 10

    bad = tmp_path / "bad.cfg"
    bad.write_text("no-such-option = 1\n")
    assert cli.main(["--config", str(bad), "gen-corpus", "--out", str(tmp_path / "c")]) == 2
    assert cli.main(["--config", str(bad)]) == 2
    # a config file cannot choose the subcommand
    for command in ("report", "train"):
        bad.write_text(f"command = {command}\n")
        assert cli.main(["--config", str(bad)]) == 2
    # nor set a list-valued option, nor hold a NUL byte
    for line, argv in (
        ("clean = eval.json", ["report", "r.jsonl"]),
        ("param = n_pad=64", ["attack"]),
        ("files = a.bin", ["classify"]),
        ("out = a\0b", ["gen-corpus"]),
    ):
        bad.write_text(line + "\n")
        assert cli.main(["--config", str(bad), *argv]) == 2


def test_cli_global_seed_forwarding(tmp_path, monkeypatch, capsys):
    """--seed and --threads belong to the subcommands that take them: a
    config file's value gives way to the subcommand's flag, and the
    global form before the subcommand exits 2."""
    common = ["--n-files", "6", "--size-min", "6144", "--size-max", "8192"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["gen-corpus", "--out", str(out_a), *common, "--seed", "7"]) == 0
    assert cli.main(["gen-corpus", "--out", str(out_b), *common, "--seed", "11"]) == 0

    digests = lambda d: [e.sha256 for e in read_manifest(d / "manifest.csv").entries]
    assert digests(out_a) != digests(out_b)

    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 7\n")
    out_cfg, out_sub = tmp_path / "cfg", tmp_path / "sub"
    assert cli.main(["--config", str(cfg), "gen-corpus", "--out", str(out_cfg), *common]) == 0
    assert cli.main(["--config", str(cfg), "gen-corpus", "--out", str(out_sub), *common, "--seed", "11"]) == 0
    assert digests(out_cfg) == digests(out_a)
    assert digests(out_sub) == digests(out_b)

    seen = []
    monkeypatch.setattr(cli, "cmd_evaluate", lambda args: seen.append(args.threads) or 0)
    evaluate = ["evaluate", "--model", "m.bin", "--corpus", "c"]
    threads_cfg = tmp_path / "threads.cfg"
    threads_cfg.write_text("threads = 2\n")
    assert cli.main(evaluate) == 0
    assert cli.main(["--config", str(threads_cfg), *evaluate]) == 0
    assert cli.main(["--config", str(threads_cfg), *evaluate, "--threads", "3"]) == 0
    assert seen == [1, 2, 3]

    out_global = tmp_path / "global"
    for argv in (
        ["--seed", "7", "gen-corpus", "--out", str(out_global), *common],
        ["--threads", "2", *evaluate],
        # the value of the global flag is no subcommand, and the valid config file is not to blame
        ["--config", str(cfg), "--seed", "11", "gen-corpus", "--out", str(out_global), *common],
    ):
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "seed.cfg" not in capsys.readouterr().err
    assert seen == [1, 2, 3] and not out_global.exists()


def test_cli_exit_codes(cli_env, tmp_path, capsys):
    # 2: configuration problems
    assert cli.main(["--config", str(tmp_path / "missing.cfg"), "gen-corpus", "--out", "x"]) == 2
    not_utf8 = tmp_path / "utf16.cfg"
    not_utf8.write_bytes(b"\xff\xfe" + "n-files = 6\n".encode("utf-16-le"))
    assert cli.main(["--config", str(not_utf8), "gen-corpus", "--out", str(tmp_path / "x")]) == 2
    train = ["train", "--corpus", str(cli_env["corpus"]), "--out", str(tmp_path / "m.bin")]
    assert cli.main([*train, "--n-views", str(MAX_VIEWS + 1)]) == 2
    assert not (tmp_path / "x").exists() and not (tmp_path / "m.bin").exists()
    for threads in ("0", "-3"):
        eval_json = tmp_path / "threads.json"
        argv = ["evaluate", "--model", str(cli_env["model"]), "--corpus", str(cli_env["corpus"])]
        assert cli.main([*argv, "--threads", threads, "--json", str(eval_json)]) == 2
        assert not eval_json.exists()
    assert (
        cli.main(
            [
                "attack",
                "--model",
                str(cli_env["model"]),
                "--corpus",
                str(cli_env["corpus"]),
                "--attack",
                "padding",
                "--param",
                "nonsense",
                "--out",
                str(tmp_path / "r.jsonl"),
            ]
        )
        == 2
    )

    # 3: data problems
    assert (
        cli.main(
            [
                "evaluate",
                "--model",
                str(cli_env["model"]),
                "--corpus",
                str(tmp_path / "no-such-corpus"),
            ]
        )
        == 3
    )
    utf16_corpus = tmp_path / "utf16-corpus"
    utf16_corpus.mkdir()
    manifest_text = (cli_env["corpus"] / "manifest.csv").read_text(encoding="utf-8")
    (utf16_corpus / "manifest.csv").write_bytes(b"\xff\xfe" + manifest_text.encode("utf-16-le"))
    evaluate = ["evaluate", "--model", str(cli_env["model"]), "--corpus", str(utf16_corpus)]
    assert cli.main(evaluate) == 3

    # 3: an output the command cannot write
    model, corpus_dir, no_dir = str(cli_env["model"]), str(cli_env["corpus"]), tmp_path / "no-such-dir"
    records = tmp_path / "ok.jsonl"
    harness.write_jsonl(_campaign_records("padding", "sca", {}, 0, 1, 0), records)
    a_file = tmp_path / "a-file"
    a_file.write_bytes(b"")
    for argv in (
        ["evaluate", "--model", model, "--corpus", corpus_dir, "--json", str(no_dir / "eval.json")],
        ["report", str(records), "--csv", str(no_dir / "table.csv")],
        [
            "attack", "--model", model, "--corpus", corpus_dir, "--attack", "padding", "--n-files", "1",
            "--population", "2", "--generations", "1", "--out", str(no_dir / "r.jsonl"),
        ],
        ["gen-corpus", "--out", str(a_file), "--n-files", "2"],
    ):
        capsys.readouterr()
        assert cli.main(argv) == 3
        assert "error:" in capsys.readouterr().err

    # 3: a checkpoint holding a non-finite weight is refused at load;
    # 4: numeric failures surfaced by the oracle, here from finite weights
    # whose conv overflows (inf pre-activations times gates of exactly 0)
    params, _ = neural.load_checkpoint(str(cli_env["model"]))
    nan_params = params.copy()
    nan_params.fc_b[...] = np.nan
    overflow = params.copy()
    overflow.emb[...] = 1.0
    overflow.wa[...] = 3e38
    overflow.wb[...] = -3e38
    for bad, code in ((nan_params, 3), (overflow, 4)):
        bad_model = tmp_path / "bad.bin"
        neural.save_checkpoint(str(bad_model), bad, smoothing.DetectorSpec(kind="ns").meta())
        rc = cli.main(
            [
                "attack",
                "--model",
                str(bad_model),
                "--corpus",
                str(cli_env["corpus"]),
                "--attack",
                "padding",
                "--n-files",
                "1",
                "--population",
                "2",
                "--generations",
                "1",
                "--out",
                str(tmp_path / "bad.jsonl"),
            ]
        )
        assert rc == code
        assert "error:" in capsys.readouterr().err


# any JSON value; NaN and the infinities included, which json writes and reads back
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_DROP = object()


def _mutated(obj: dict, key: str, value) -> dict:
    """obj with key dropped (value _DROP) or set to value."""
    return {k: v for k, v in obj.items() if k != key} if value is _DROP else {**obj, key: value}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    key=st.sampled_from(sorted(_campaign_records("padding", "sca", {}, 0, 1, 0)[0])),
    value=st.just(_DROP) | _JSON_VALUES,
    extra=st.lists(_JSON_VALUES, max_size=2),
)
def test_records_fuzz_exits_with_a_code(tmp_path, capsys, key, value, extra):
    """Attack records with one key dropped or set to any JSON value, and
    any JSON values as further lines, make report exit 0 or 3; never
    raise."""
    good = _campaign_records("padding", "sca", {"n_pad": 64}, 0, 2, 1)
    lines = [good[0], _mutated(good[1], key, value), *extra]
    path = tmp_path / "r.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    assert cli.main(["report", str(path)]) in (0, 3)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    key=st.sampled_from([f.name for f in fields(EvalReport)]),
    value=st.just(_DROP) | _JSON_VALUES,
    whole=st.none() | _JSON_VALUES,
)
def test_clean_report_fuzz_exits_with_a_code(tmp_path, capsys, key, value, whole):
    """An evaluation report with one field dropped or set to any JSON
    value, or replaced whole by any JSON value, makes report --clean exit
    0 or 3; never raise."""
    records = tmp_path / "r.jsonl"
    harness.write_jsonl(_campaign_records("padding", "sca", {}, 0, 1, 0), records)
    clean = tmp_path / "eval.json"
    payload = _mutated(asdict(_report()), key, value) if whole is None else whole
    clean.write_text(json.dumps(payload), encoding="utf-8")
    assert cli.main(["report", str(records), "--clean", str(clean)]) in (0, 3)


_CONFIG_SEEDS = (
    b"# report defaults\nseed = 3\nthreads = 2\n",
    b"csv = table.csv\n",
    b"command = report\n",
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.sampled_from(_CONFIG_SEEDS),
    edits=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 255)), max_size=4),
    cut=st.one_of(st.none(), st.integers(0, 63)),
    subcommand=st.booleans(),
)
def test_config_file_fuzz_exits_with_a_code(tmp_path, monkeypatch, seed, edits, cut, subcommand):
    """Byte-mutated (and optionally truncated) config files, for `report`
    on a one-record file or for no subcommand at all, end in exit 0, 2 or 3,
    or in argparse's SystemExit(2); never in another exception."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "write_table_csv", lambda rows, path: None)  # a fuzzed csv path writes nothing
    harness.write_jsonl(_campaign_records("padding", "sca", {}, 0, 1, 0), tmp_path / "r.jsonl")
    raw = bytearray(seed)
    for pos, byte in edits:
        raw[pos % len(raw)] = byte
    (tmp_path / "c.cfg").write_bytes(bytes(raw[:cut]))
    argv = ["--config", "c.cfg"] + (["report", "r.jsonl"] if subcommand else [])
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 2
    else:
        assert code in (0, 2, 3)
