"""Command-line front end.

Subcommands cover the full loop: gen-corpus, train, classify, evaluate,
attack, report.  Exit codes: 0 success, 2 configuration problems,
3 data problems and outputs that cannot be written, 4 numeric failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import corpus, harness, neural, smoothing
from .ablation import MAX_VIEWS, AblationConfig
from .attacks import GaConfig
from .corpus import SynthConfig, load_capped, read_manifest, temporal_split
from .errors import ConfigError, ConfigInvalid, DataError, NumericError, json_loads, read_input
from .harness import CampaignConfig
from .smoothing import DetectorSpec, TrainConfig

EXIT_OK = 0
# the exit code of each exception that reaches main; an OSError there is an
# output the command could not write, since every input read raises IoFailure
EXIT_CODES = {ConfigError: 2, DataError: 3, OSError: 3, NumericError: 4}


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
    # save_checkpoint(path, params) writes null; any other block is the
    # detector's, and from_meta refuses a malformed one with DataError
    if detector_meta is None:
        raise ConfigInvalid(f"{path} carries no detector settings; retrain with this version")
    return params, DetectorSpec.from_meta(detector_meta)


def _splits(corpus_dir: str):
    manifest = read_manifest(Path(corpus_dir) / "manifest.csv")
    return temporal_split(manifest)


# -- subcommands -------------------------------------------------------------------


def cmd_gen_corpus(args) -> int:
    cfg = SynthConfig(
        n_files=args.n_files,
        size_range=(args.size_min, args.size_max),
        malicious_ratio=args.malicious_ratio,
        seed=args.seed,
    )
    manifest, _ = corpus.synth_corpus(cfg, Path(args.out))
    corpus.write_manifest(manifest, Path(args.out) / "manifest.csv")
    # the split that train and evaluate --split also take from manifest.csv
    for name, split in zip(("train", "val", "test"), temporal_split(manifest)):
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
    text = json.dumps(asdict(report), sort_keys=True, indent=2) + "\n"
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
            raw = read_input(path, "evaluation report ")
            report = harness.EvalReport.from_dict(json_loads(raw, path, "evaluation report"))
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
    of --config plus the subcommand name that skips everything else."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", help="key=value file supplying defaults for the subcommand")
    parser = argparse.ArgumentParser(
        prog="chunksmooth",
        description="Chunk-based smoothing for byte-level malware detection: "
        "corpus synthesis, training, certification and evasion benchmarks.",
        parents=[flags],
    )
    head = argparse.ArgumentParser(prog=parser.prog, add_help=False, parents=[flags])
    head.add_argument("command", nargs="?")
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, argparse.ArgumentParser] = {}

    p = commands["gen-corpus"] = sub.add_parser("gen-corpus", help="synthesize a labeled corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-files", type=int, default=SynthConfig.n_files)
    p.add_argument("--size-min", type=int, default=SynthConfig.size_range[0])
    p.add_argument("--size-max", type=int, default=SynthConfig.size_range[1])
    p.add_argument("--malicious-ratio", type=float, default=SynthConfig.malicious_ratio)
    p.set_defaults(func=cmd_gen_corpus)

    p = commands["train"] = sub.add_parser("train", help="train a detector and write a checkpoint")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--detector", choices=list(smoothing.DETECTOR_KINDS), default="sca")
    p.add_argument("--p", type=float, help="chunk fraction (ablation detectors)")
    p.add_argument("--n-views", type=int, help=f"votes per file, 1 to {MAX_VIEWS} (ablation detectors)")
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

    p = commands["evaluate"] = sub.add_parser("evaluate", help="confusion metrics over a corpus split")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--threads", type=int, default=1, help="worker threads")
    p.add_argument("--split", choices=["train", "val", "test", "all"], default="test")
    p.add_argument("--json", help="also write the report here")
    p.set_defaults(func=cmd_evaluate)

    p = commands["attack"] = sub.add_parser("attack", help="run a black-box evasion campaign")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--seed", type=int, default=0)
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
    user did not pass explicitly.  A key sets one value: options that take
    a list (file operands, --clean, --param) and NUL bytes, which no
    command line can hold, are refused."""
    target = commands.get(command, parser)
    # "command" is the subcommand itself, which a config file cannot choose
    actions = {a.dest: a for a in target._actions if a.dest not in ("help", "command")}

    overrides = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line or "\0" in line:
            raise ConfigInvalid(f"{path}:{lineno}: expected key=value without NUL bytes, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        if dest not in actions:
            raise ConfigInvalid(f"{path}:{lineno}: unknown option {key!r} for {command or 'chunksmooth'}")
        action = actions[dest]
        if action.nargs in ("+", "*") or isinstance(action, argparse._AppendAction):
            raise ConfigInvalid(f"{path}:{lineno}: {key!r} takes a list, which a config file cannot set")
        try:
            overrides[dest] = action.type(value) if callable(action.type) else value
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
        if action.choices and overrides[dest] not in action.choices:
            raise ConfigInvalid(f"{path}:{lineno}: {key!r} must be one of {sorted(action.choices)}")
        action.required = False
    target.set_defaults(**overrides)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands, head = build_parser()
    try:
        known, _ = head.parse_known_args(argv)
        # a command that is not a subcommand is argparse's to refuse, not the config file's
        if known.config is not None and (known.command is None or known.command in commands):
            _apply_config_file(parser, commands, known.config, known.command)
        args = parser.parse_args(argv)
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
