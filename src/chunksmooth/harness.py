"""Evaluation harness: clean metrics, attack campaigns, robustness tables.

Everything here is deterministic for a fixed (corpus, checkpoint, seed)
triple except wall-clock timings, which therefore never enter the
per-file record streams, only the summary dataclasses.
"""

from __future__ import annotations

import csv
import json
import operator
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import attacks, neural, pe, smoothing
from .attacks import GaConfig
from .corpus import LABEL_BENIGN, LABEL_MALICIOUS, CorpusManifest, ManifestEntry, load_capped
from .errors import ConfigInvalid, DataError, EmptyCorpus, IoFailure
from .smoothing import DetectorSpec

# attack name -> (the config class that declares its knobs, the attack);
# gamma also takes the harvested benign section pool
ATTACKS = {
    "padding": (attacks.PaddingConfig, attacks.attack_padding),
    "shift": (attacks.ShiftConfig, attacks.attack_shift),
    "gamma": (attacks.GammaConfig, attacks.attack_gamma),
    "caves": (attacks.CavesConfig, attacks.attack_caves),
}
ATTACK_NAMES = tuple(ATTACKS)


# -- clean evaluation ----------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    detector: str
    split: str
    n: int
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    f1: float
    seconds: float

    @property
    def seconds_per_example(self) -> float:
        return self.seconds / self.n if self.n else 0.0

    def to_dict(self) -> dict:
        return {**asdict(self), "seconds_per_example": self.seconds_per_example}

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        """The report to_dict wrote; a payload that is not an object, or
        lacks a field or holds one of the wrong JSON type, raises DataError."""
        if not isinstance(d, dict):
            raise DataError(f"evaluation report must be a JSON object, got {type(d).__name__}")
        hints = typing.get_type_hints(cls)
        values = {}
        for f in fields(cls):
            if f.name not in d:
                raise DataError(f"evaluation report is missing field {f.name!r}")
            want = hints[f.name]
            value = d[f.name]
            if isinstance(value, bool) or not isinstance(value, (int, float) if want is float else want):
                raise DataError(f"evaluation report field {f.name!r} is not a {want.__name__}: {value!r}")
            values[f.name] = value
        return cls(**values)


def _confusion(truth: list[str], predicted: list[str]) -> tuple[int, int, int, int]:
    tp = fp = tn = fn = 0
    for t, p in zip(truth, predicted):
        if t == LABEL_MALICIOUS:
            if p == LABEL_MALICIOUS:
                tp += 1
            else:
                fn += 1
        else:
            if p == LABEL_MALICIOUS:
                fp += 1
            else:
                tn += 1
    return tp, fp, tn, fn


def metrics_from_counts(tp: int, fp: int, tn: int, fn: int) -> tuple[float, float]:
    """(accuracy, f1); empty input and 0/0 F1 both come out 0.0."""
    n = tp + fp + tn + fn
    accuracy = (tp + tn) / n if n else 0.0
    denom = 2 * tp + fp + fn
    f1 = 2 * tp / denom if denom else 0.0
    return accuracy, f1


def evaluate(
    params: neural.MalConvParams,
    spec: DetectorSpec,
    manifest: CorpusManifest,
    threads: int = 1,
    split: str = "",
) -> EvalReport:
    """Confusion metrics over a manifest. Thread-safe and order-stable:
    randomized detectors draw per-content generators, so the thread
    count never changes a prediction."""
    if not manifest.entries:
        raise EmptyCorpus("nothing to evaluate")
    paths = [manifest.resolve(e) for e in manifest.entries]
    t0 = time.perf_counter()

    def one(path: Path) -> str:
        return smoothing.predict(params, spec, load_capped(path))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            predicted = list(pool.map(one, paths))
    else:
        predicted = [one(p) for p in paths]
    seconds = time.perf_counter() - t0

    truth = [e.label for e in manifest.entries]
    tp, fp, tn, fn = _confusion(truth, predicted)
    accuracy, f1 = metrics_from_counts(tp, fp, tn, fn)
    return EvalReport(
        detector=spec.kind,
        split=split,
        n=len(truth),
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        accuracy=accuracy,
        f1=f1,
        seconds=seconds,
    )


def prediction_record(
    params: neural.MalConvParams,
    spec: DetectorSpec,
    data: bytes,
    file: str = "",
    sha256: str = "",
) -> dict:
    """One JSON-able classification record; per-chunk detail for vote
    detectors, a bare score for the plain one."""
    if spec.kind == "ns":
        pred = smoothing.predict_plain(params, data)
        return {
            "detector": spec.kind,
            "file": file,
            "sha256": sha256,
            "label": pred.label,
            "score": pred.score,
        }
    pred = smoothing.predict_smoothed(params, spec, data)
    return {
        "detector": spec.kind,
        "file": file,
        "sha256": sha256,
        "label": pred.label,
        "votes": pred.votes,
        "probabilities": pred.probabilities,
        "L": pred.n_views,
        "p": pred.p,
        "per_chunk": [
            {
                # rs views mask bytes across the whole file and have no window
                "start": None if c.window is None else c.window.start,
                "end": None if c.window is None else c.window.end,
                "score": c.score,
                "vote": c.vote,
            }
            for c in pred.per_chunk
        ],
    }


# -- attack campaigns ----------------------------------------------------------


@dataclass(frozen=True)
class CampaignConfig:
    attack: str
    n_files: int = 50
    seed: int = 0
    ga: GaConfig = field(default_factory=GaConfig)
    params: dict = field(default_factory=dict)  # attack knobs as given, parsed by attack_config

    def __post_init__(self):
        if self.attack not in ATTACK_NAMES:
            raise ConfigInvalid(f"unknown attack {self.attack!r}, expected one of {ATTACK_NAMES}")
        if self.n_files < 1:
            raise ConfigInvalid("n_files must be >= 1")
        self.attack_config()  # unknown knobs and bad values fail here, before any target loads

    def attack_config(self):
        """The attack's config: params parsed against its fields, with ga.

        Integer knobs take ints or integer strings, float knobs anything
        float() takes, bool knobs true/false/1/0 in any case."""
        cls = ATTACKS[self.attack][0]
        types = typing.get_type_hints(cls)
        knobs = [f.name for f in fields(cls) if f.name != "ga"]
        typed = {}
        for key, value in self.params.items():
            if key not in knobs:
                raise ConfigInvalid(f"unknown {self.attack} knob {key!r}, expected one of {knobs}")
            try:
                typed[key] = _parse_knob(types[key], value)
            except (TypeError, ValueError) as exc:
                raise ConfigInvalid(f"bad value {value!r} for {self.attack} knob {key!r}: {exc}") from exc
        return cls(ga=self.ga, **typed)


def _parse_knob(kind: type, value):
    if kind is bool:
        text = str(value).strip().lower()
        if text not in ("true", "false", "1", "0"):
            raise ValueError("expected true, false, 1 or 0")
        return text in ("true", "1")
    if kind is int and not isinstance(value, str):
        return operator.index(value)  # refuses floats, which int() would truncate
    return kind(value)


def select_targets(manifest: CorpusManifest, n_files: int, seed: int) -> list[ManifestEntry]:
    """Seeded sample of malicious entries, stable across manifest row order."""
    mal = sorted(manifest.malicious(), key=lambda e: e.sha256)
    if not mal:
        raise EmptyCorpus("manifest has no malicious entries")
    if len(mal) <= n_files:
        return mal
    idx = np.random.default_rng(seed).choice(len(mal), size=n_files, replace=False)
    return [mal[i] for i in sorted(idx)]


def harvest_benign_sections(
    manifest: CorpusManifest, max_files: int = 20, min_len: int = 64
) -> list[bytes]:
    """Benign section bodies (zero tails stripped) for section injection."""
    out = []
    benign = sorted(
        (e for e in manifest.entries if e.label == LABEL_BENIGN), key=lambda e: e.sha256
    )
    for entry in benign[:max_files]:
        data = load_capped(manifest.resolve(entry))
        layout = pe.parse_pe(data)
        out.extend(c for c in pe.section_contents(data, layout) if len(c) >= min_len)
    if not out:
        raise EmptyCorpus("no benign sections to harvest")
    return out


def _file_seed(base_seed: int, digest: str) -> int:
    return int(np.random.SeedSequence([base_seed, int(digest[:16], 16)]).generate_state(1)[0])


def run_attack_campaign(
    params: neural.MalConvParams,
    spec: DetectorSpec,
    manifest: CorpusManifest,
    cfg: CampaignConfig,
    pool: list[bytes] | None = None,
    out_dir: Path | None = None,
) -> list[dict]:
    """Attack a seeded subset of the manifest's malicious files.

    Returns one record per target; when out_dir is given the adversarial
    bytes are also written there as <sha256 prefix>.adv.bin.
    """
    targets = select_targets(manifest, cfg.n_files, cfg.seed)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    attack_cfg = cfg.attack_config()
    attack = ATTACKS[cfg.attack][1]
    pool_arg = (pool,) if cfg.attack == "gamma" else ()
    records = []
    for entry in targets:
        data = load_capped(manifest.resolve(entry))
        oracle = attacks.make_oracle(params, spec)
        ga = replace(cfg.ga, seed=_file_seed(cfg.seed, entry.sha256))
        result = attack(data, oracle, *pool_arg, replace(attack_cfg, ga=ga))
        if out_dir is not None:
            (out_dir / f"{entry.sha256[:16]}.adv.bin").write_bytes(result.adversarial)
        records.append(
            {
                "attack": cfg.attack,
                "params": dict(sorted(cfg.params.items())),
                "detector": spec.kind,
                "file": entry.path,
                "sha256": entry.sha256,
                "evaded": result.evaded,
                "queries": result.queries,
                "size_ratio": result.size_ratio,
                "best_score": result.best_score,
                "payload_spans": [list(s) for s in result.payload_spans],
                "seed": cfg.seed,
            }
        )
    return records


def write_jsonl(records: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_jsonl(path: Path) -> list[dict]:
    """One dict per non-blank line; a line that is not a UTF-8 JSON object
    raises DataError naming path:line."""
    try:
        lines = Path(path).read_bytes().splitlines()
    except OSError as exc:
        raise IoFailure(f"cannot read records {path}: {exc}") from exc
    records = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
            raise DataError(f"{path}:{lineno}: not a UTF-8 JSON record: {exc}") from exc
        if not isinstance(rec, dict):
            raise DataError(f"{path}:{lineno}: expected a JSON object, got {type(rec).__name__}")
        records.append(rec)
    return records


# -- robustness summary ----------------------------------------------------------


@dataclass(frozen=True)
class RobustnessRow:
    attack: str
    detector: str
    params: dict
    n_files: int
    n_seeds: int
    clean_accuracy: float | None  # from the matching clean report, if given
    adversarial_accuracy: float  # mean over seeds of (1 - evaded fraction)
    std: float  # sample sd over seeds, 0.0 for a single seed
    mean_queries: float


_RECORD_KEYS = ("attack", "detector", "seed", "evaded", "queries")


def _params_key(params: dict) -> str:
    return ",".join(f"{k}={params[k]}" for k in sorted(params)) if params else ""


def robustness_table(
    records: list[dict], clean: dict[str, EvalReport] | None = None
) -> list[RobustnessRow]:
    """Group attack records by (attack, detector, params); each base seed
    yields one adversarial-accuracy sample, rows report their mean and
    sample standard deviation. `clean` maps detector kind to its clean
    evaluation for the clean_accuracy column."""
    groups: dict[tuple[str, str, str], dict[int, list[dict]]] = {}
    params_by_key: dict[str, dict] = {}
    for i, rec in enumerate(records):
        missing = [k for k in _RECORD_KEYS if k not in rec]
        if missing:
            raise DataError(f"attack record {i} lacks {', '.join(missing)}")
        pkey = _params_key(rec.get("params", {}))
        params_by_key[pkey] = rec.get("params", {})
        key = (rec["attack"], rec["detector"], pkey)
        groups.setdefault(key, {}).setdefault(rec["seed"], []).append(rec)

    rows = []
    for (attack, detector, pkey), by_seed in sorted(groups.items()):
        accs = []
        n_files = 0
        queries = []
        for seed_records in by_seed.values():
            evaded = sum(1 for r in seed_records if r["evaded"])
            accs.append(1.0 - evaded / len(seed_records))
            n_files = max(n_files, len(seed_records))
            queries.extend(r["queries"] for r in seed_records)
        std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
        clean_acc = clean[detector].accuracy if clean and detector in clean else None
        rows.append(
            RobustnessRow(
                attack=attack,
                detector=detector,
                params=params_by_key[pkey],
                n_files=n_files,
                n_seeds=len(by_seed),
                clean_accuracy=clean_acc,
                adversarial_accuracy=float(np.mean(accs)),
                std=std,
                mean_queries=float(np.mean(queries)),
            )
        )
    return rows


def render_table(rows: list[RobustnessRow]) -> str:
    header = ("attack", "detector", "params", "files", "seeds", "clean_acc", "adv_acc", "queries")
    cells = [header]
    for r in rows:
        acc = f"{r.adversarial_accuracy:.4f} ± {r.std:.4f}" if r.n_seeds > 1 else f"{r.adversarial_accuracy:.4f}"
        clean_acc = f"{r.clean_accuracy:.4f}" if r.clean_accuracy is not None else "-"
        cells.append(
            (
                r.attack,
                r.detector,
                _params_key(r.params) or "-",
                str(r.n_files),
                str(r.n_seeds),
                clean_acc,
                acc,
                f"{r.mean_queries:.1f}",
            )
        )
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def write_table_csv(rows: list[RobustnessRow], path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "attack",
                "detector",
                "params",
                "n_files",
                "n_seeds",
                "clean_accuracy",
                "adversarial_accuracy",
                "std",
                "mean_queries",
            ]
        )
        for r in rows:
            writer.writerow(
                [
                    r.attack,
                    r.detector,
                    _params_key(r.params),
                    r.n_files,
                    r.n_seeds,
                    "" if r.clean_accuracy is None else f"{r.clean_accuracy:.6f}",
                    f"{r.adversarial_accuracy:.6f}",
                    f"{r.std:.6f}",
                    f"{r.mean_queries:.1f}",
                ]
            )
