"""Evaluation harness and CLI: metrics, reports, campaigns, robustness
aggregation, and the end-to-end command pipeline with its exit codes."""

import csv
import hashlib
import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from _oracles import metrics_oracle
from chunksmooth import attacks, cli, harness, neural, pe, smoothing
from chunksmooth.ablation import AblationConfig
from chunksmooth.attacks import GaConfig
from chunksmooth.corpus import LABEL_BENIGN, LABEL_MALICIOUS, read_manifest
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
        seconds=2.5,
    )
    base.update(kw)
    return EvalReport(**base)


def test_eval_report_round_trip():
    report = _report()
    again = EvalReport.from_dict(report.to_dict())
    assert again == report
    assert again.seconds_per_example == 0.25
    # reports written before the field was dropped still load
    assert EvalReport.from_dict({**report.to_dict(), "train_minutes_per_epoch": None}) == report
    assert _report(n=0, tp=0, tn=0, fp=0, fn=0).seconds_per_example == 0.0


def test_eval_report_missing_field():
    d = _report().to_dict()
    del d["tn"]
    with pytest.raises(DataError, match="tn"):
        EvalReport.from_dict(d)


@pytest.mark.parametrize(
    "payload, match",
    [
        ([1, 2], "JSON object"),
        ({**_report().to_dict(), "accuracy": "high"}, "accuracy"),
        ({**_report().to_dict(), "n": 10.0}, "'n'"),
        ({**_report().to_dict(), "tp": True}, "tp"),
        ({**_report().to_dict(), "detector": None}, "detector"),
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
    assert report.seconds > 0
    assert report.seconds_per_example == report.seconds / report.n


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
        (json.dumps({k: v for k, v in _report().to_dict().items() if k != "accuracy"}).encode(), "accuracy"),
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


def test_report_inputs_raise_data_errors(tmp_path):
    with pytest.raises(IoFailure):
        harness.read_jsonl(tmp_path / "missing.jsonl")
    good = _campaign_records("padding", "sca", {}, 0, 2, 1)
    for key in ("attack", "detector", "seed", "evaded", "queries"):
        broken = [good[0], {k: v for k, v in good[1].items() if k != key}]
        with pytest.raises(DataError, match=key):
            robustness_table(broken)


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


def test_cli_global_seed_forwarding(tmp_path, monkeypatch):
    common = ["--n-files", "6", "--size-min", "6144", "--size-max", "8192"]
    out_a, out_b, out_c = (tmp_path / n for n in "abc")
    assert cli.main(["--seed", "7", "gen-corpus", "--out", str(out_a), *common]) == 0
    assert cli.main(["gen-corpus", "--out", str(out_b), *common, "--seed", "7"]) == 0
    # subcommand's own flag wins over the forwarded global
    assert cli.main(["--seed", "7", "gen-corpus", "--out", str(out_c), *common, "--seed", "11"]) == 0

    digests = lambda d: [e.sha256 for e in read_manifest(d / "manifest.csv").entries]
    assert digests(out_a) == digests(out_b)
    assert digests(out_c) != digests(out_a)

    # a config file's seed gives way to a global --seed, which gives way to
    # the subcommand's --seed
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 7\n")
    out_cfg, out_global, out_sub = (tmp_path / n for n in ("cfg", "global", "sub"))
    head = ["--config", str(cfg)]
    assert cli.main([*head, "gen-corpus", "--out", str(out_cfg), *common]) == 0
    assert cli.main([*head, "--seed", "11", "gen-corpus", "--out", str(out_global), *common]) == 0
    assert cli.main([*head, "--seed", "11", "gen-corpus", "--out", str(out_sub), *common, "--seed", "7"]) == 0
    assert digests(out_cfg) == digests(out_a)
    assert digests(out_global) == digests(out_c)
    assert digests(out_sub) == digests(out_a)

    # a global --threads reaches evaluate, below its own flag, and gen-corpus ignores it
    seen = []
    monkeypatch.setattr(cli, "cmd_evaluate", lambda args: seen.append(args.threads) or 0)
    evaluate = ["evaluate", "--model", "m.bin", "--corpus", "c"]
    assert cli.main(evaluate) == 0
    assert cli.main(["--threads", "2", *evaluate]) == 0
    assert cli.main(["--threads", "2", *evaluate, "--threads", "3"]) == 0
    assert seen == [1, 2, 3]
    out_t = tmp_path / "t"
    assert cli.main(["--threads", "2", "gen-corpus", "--out", str(out_t), *common, "--seed", "7"]) == 0
    assert digests(out_t) == digests(out_a)


def test_cli_exit_codes(cli_env, tmp_path, capsys):
    # 2: configuration problems
    assert cli.main(["gen-corpus", "--out", str(tmp_path / "x"), "--ratios", "0.5,0.5,0.5"]) == 2
    assert cli.main(["--config", str(tmp_path / "missing.cfg"), "gen-corpus", "--out", "x"]) == 2
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

    # 4: numeric failures surfaced by the oracle
    params, _ = neural.load_checkpoint(str(cli_env["model"]))
    params.fc_b[...] = np.nan
    nan_model = tmp_path / "nan.bin"
    neural.save_checkpoint(str(nan_model), params, smoothing.DetectorSpec(kind="ns").meta())
    rc = cli.main(
        [
            "attack",
            "--model",
            str(nan_model),
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
            str(tmp_path / "nan.jsonl"),
        ]
    )
    assert rc == 4
    assert "error:" in capsys.readouterr().err
