"""Command-line front end.

Subcommands cover the full loop: gen-corpus, train, classify, evaluate,
attack, report.  Exit codes: 0 success, 2 configuration problems,
3 data problems, 4 numeric failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import corpus, harness, neural, smoothing
from .ablation import AblationConfig
from .attacks import GaConfig
from .corpus import SynthConfig, load_capped, read_manifest, temporal_split
from .errors import ConfigError, ConfigInvalid, DataError, IoFailure, NumericError
from .harness import CampaignConfig
from .smoothing import DetectorSpec, TrainConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _detector_spec(args) -> DetectorSpec:
    given = {k: v for k, v in (("p", args.p), ("n_views", args.n_views)) if v is not None}
    if args.detector == "ns":
        if given:
            print("note: --p and --n-views are ignored for the plain detector", file=sys.stderr)
        return DetectorSpec(kind="ns")
    ablation = AblationConfig(scheme=args.detector, seed=args.seed, **given)
    return DetectorSpec(kind=args.detector, ablation=ablation)


def _load_model(path: str) -> tuple[neural.MalConvParams, DetectorSpec]:
    params, meta = neural.load_checkpoint(path)
    detector_meta = meta.get("detector")
    if not detector_meta:
        raise ConfigInvalid(f"{path} carries no detector settings; retrain with this version")
    return params, DetectorSpec.from_meta(detector_meta)


def _splits(corpus_dir: str):
    manifest = read_manifest(Path(corpus_dir) / "manifest.csv")
    return temporal_split(manifest)


# -- subcommands -------------------------------------------------------------------


def _parse_ratios(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigInvalid(f"--ratios expects three comma-separated fractions, got {text!r}")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigInvalid(f"--ratios expects numbers, got {text!r}") from exc
    if min(a, b, c) < 0 or abs(a + b + c - 1.0) > 1e-9:
        raise ConfigInvalid(f"split ratios must be non-negative and sum to 1, got {text!r}")
    return (a, b, c)


def cmd_gen_corpus(args) -> int:
    cfg = SynthConfig(
        n_files=args.n_files,
        size_range=(args.size_min, args.size_max),
        malicious_ratio=args.malicious_ratio,
        seed=args.seed,
    )
    ratios = _parse_ratios(args.ratios)
    manifest, _ = corpus.synth_corpus(cfg, Path(args.out))
    corpus.write_manifest(manifest, Path(args.out) / "manifest.csv")
    for name, split in zip(("train", "val", "test"), temporal_split(manifest, ratios)):
        corpus.write_manifest(split, Path(args.out) / f"manifest.{name}.csv")
    n_mal = len(manifest.malicious())
    print(f"wrote {len(manifest.entries)} files ({n_mal} malicious) under {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    spec = _detector_spec(args)
    train_m, val_m, _ = _splits(args.corpus)
    cfg = TrainConfig(
        profile=args.profile,
        max_epochs=args.max_epochs,
        patience=args.patience,
        batch_size=args.batch_size,
        lr=args.lr,
        seed=args.seed,
    )
    params, history = smoothing.train_smoothed(train_m, val_m, spec, cfg)
    neural.save_checkpoint(args.out, params, spec.meta())
    best_acc = history.val_accuracies[history.best_epoch - 1]
    mins = sum(history.epoch_seconds) / len(history.epoch_seconds) / 60.0
    print(
        f"trained {spec.kind} ({args.profile}): stopped after epoch {history.stopped_epoch}, "
        f"kept epoch {history.best_epoch} (val acc {best_acc:.4f}, {mins:.2f} min/epoch) -> {args.out}"
    )
    return EXIT_OK


def cmd_classify(args) -> int:
    params, spec = _load_model(args.model)
    lines = []
    for file in args.files:
        data = load_capped(Path(file))
        digest = hashlib.sha256(data).hexdigest()
        rec = harness.prediction_record(params, spec, data, file=file, sha256=digest)
        lines.append(json.dumps(rec, sort_keys=True))
    text = "\n".join(lines) + "\n"
    if args.json:
        Path(args.json).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    params, spec = _load_model(args.model)
    manifest = read_manifest(Path(args.corpus) / "manifest.csv")
    if args.split != "all":
        train_m, val_m, test_m = temporal_split(manifest)
        manifest = {"train": train_m, "val": val_m, "test": test_m}[args.split]
    report = harness.evaluate(params, spec, manifest, threads=args.threads, split=args.split)
    text = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if args.json:
        Path(args.json).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_OK


def cmd_attack(args) -> int:
    params, spec = _load_model(args.model)
    manifest = read_manifest(Path(args.corpus) / "manifest.csv")
    attack_params = {}
    for item in args.param or []:
        if "=" not in item:
            raise ConfigInvalid(f"--param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        attack_params[key.strip()] = value.strip()
    ga = GaConfig(
        population=args.population,
        generations=args.generations,
        seed=args.seed,
    )
    cfg = CampaignConfig(
        attack=args.attack, n_files=args.n_files, seed=args.seed, ga=ga, params=attack_params
    )
    pool = None
    if args.attack == "gamma":
        pool = harness.harvest_benign_sections(manifest)
    records = harness.run_attack_campaign(
        params,
        spec,
        manifest,
        cfg,
        pool=pool,
        out_dir=Path(args.adv_dir) if args.adv_dir else None,
    )
    harness.write_jsonl(records, Path(args.out))
    evaded = sum(1 for r in records if r["evaded"])
    print(
        f"{args.attack} vs {spec.kind}: {evaded}/{len(records)} evaded "
        f"(adv acc {1 - evaded / len(records):.4f}) -> {args.out}"
    )
    return EXIT_OK


def cmd_report(args) -> int:
    records = []
    for path in args.records:
        records.extend(harness.read_jsonl(Path(path)))
    clean = None
    if args.clean:
        clean = {}
        for path in args.clean:
            try:
                raw = Path(path).read_bytes()
            except OSError as exc:
                raise IoFailure(f"cannot read evaluation report {path}: {exc}") from exc
            try:
                payload = json.loads(raw.decode("utf-8"))
            except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
                raise DataError(f"{path}: not a UTF-8 JSON evaluation report: {exc}") from exc
            report = harness.EvalReport.from_dict(payload)
            clean[report.detector] = report
    rows = harness.robustness_table(records, clean=clean)
    print(harness.render_table(rows))
    if args.csv:
        harness.write_table_csv(rows, Path(args.csv))
    return EXIT_OK


# -- argument plumbing ---------------------------------------------------------------


def build_parser() -> tuple[
    argparse.ArgumentParser, dict[str, argparse.ArgumentParser], argparse.ArgumentParser
]:
    """The top-level parser, its subcommand parsers by name, and a parser
    of the global flags plus the subcommand name that skips everything else."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", help="key=value file supplying defaults for the subcommand")
    flags.add_argument(
        "--seed", type=int, default=0, help="seed for subcommands that take one, unless they set their own"
    )
    flags.add_argument(
        "--threads", type=int, default=1,
        help="worker threads for subcommands that take them, unless they set their own",
    )
    parser = argparse.ArgumentParser(
        prog="chunksmooth",
        description="Chunk-based smoothing for byte-level malware detection: "
        "corpus synthesis, training, certification and evasion benchmarks.",
        parents=[flags],
    )
    head = argparse.ArgumentParser(prog=parser.prog, add_help=False, parents=[flags])
    head.add_argument("command", nargs="?")
    # The subcommands' own --seed/--threads leave the namespace alone unless
    # given, so they beat the global flag and the global flag beats the default.
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="overrides the global --seed")
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument(
        "--threads", type=int, default=argparse.SUPPRESS, help="overrides the global --threads"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    p = commands["gen-corpus"] = sub.add_parser(
        "gen-corpus", help="synthesize a labeled corpus", parents=[seed]
    )
    p.add_argument("--out", required=True)
    p.add_argument("--n-files", type=int, default=SynthConfig.n_files)
    p.add_argument("--size-min", type=int, default=SynthConfig.size_range[0])
    p.add_argument("--size-max", type=int, default=SynthConfig.size_range[1])
    p.add_argument("--malicious-ratio", type=float, default=SynthConfig.malicious_ratio)
    p.add_argument("--ratios", default="0.8,0.1,0.1", help="train,val,test split fractions")
    p.set_defaults(func=cmd_gen_corpus)

    p = commands["train"] = sub.add_parser(
        "train", help="train a detector and write a checkpoint", parents=[seed]
    )
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--detector", choices=list(smoothing.DETECTOR_KINDS), default="sca")
    p.add_argument("--p", type=float, help="chunk fraction (ablation detectors)")
    p.add_argument("--n-views", type=int, help="votes per file (ablation detectors)")
    p.add_argument("--profile", choices=sorted(neural.PROFILES), default=TrainConfig.profile)
    p.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.set_defaults(func=cmd_train)

    p = commands["classify"] = sub.add_parser("classify", help="classify files with a trained checkpoint")
    p.add_argument("--model", required=True)
    p.add_argument("--json", help="write records here instead of stdout")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_classify)

    p = commands["evaluate"] = sub.add_parser(
        "evaluate", help="confusion metrics over a corpus split", parents=[threads]
    )
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", choices=["train", "val", "test", "all"], default="test")
    p.add_argument("--json", help="also write the report here")
    p.set_defaults(func=cmd_evaluate)

    p = commands["attack"] = sub.add_parser(
        "attack", help="run a black-box evasion campaign", parents=[seed]
    )
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--attack", choices=list(harness.ATTACK_NAMES), required=True)
    p.add_argument("--param", action="append", help="attack knob, key=value (repeatable)")
    p.add_argument("--n-files", type=int, default=CampaignConfig.n_files)
    p.add_argument("--population", type=int, default=GaConfig.population)
    p.add_argument("--generations", type=int, default=GaConfig.generations)
    p.add_argument("--out", required=True, help="JSONL record output")
    p.add_argument("--adv-dir", help="also write adversarial files here")
    p.set_defaults(func=cmd_attack)

    p = commands["report"] = sub.add_parser("report", help="aggregate attack records into a robustness table")
    p.add_argument("records", nargs="+")
    p.add_argument("--clean", action="append", help="clean evaluation JSON for the clean_acc column (repeatable)")
    p.add_argument("--csv", help="also write the table as CSV")
    p.set_defaults(func=cmd_report)

    return parser, commands, head


def _apply_config_file(
    parser: argparse.ArgumentParser, commands: dict, path: str, command: str | None
) -> None:
    """Seed subcommand defaults from a key=value file named by --config.

    Command-line flags still win: set_defaults only fills in what the
    user did not pass explicitly.  seed and threads become top-level
    defaults, so that a global --seed/--threads beats them too."""
    target = commands.get(command, parser)
    actions = {a.dest: a for a in target._actions if a.dest != "help"}

    overrides = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ConfigInvalid(f"{path}:{lineno}: unknown option {key!r} for {command or 'chunksmooth'}")
        action = actions[dest]
        try:
            overrides[dest] = action.type(value) if callable(action.type) else value
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
        if action.choices and overrides[dest] not in action.choices:
            raise ConfigInvalid(f"{path}:{lineno}: {key!r} must be one of {sorted(action.choices)}")
        action.required = False
    parser.set_defaults(**{k: overrides.pop(k) for k in ("seed", "threads") if k in overrides})
    target.set_defaults(**overrides)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands, head = build_parser()
    try:
        known, _ = head.parse_known_args(argv)
        if known.config is not None:
            _apply_config_file(parser, commands, known.config, known.command)
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
