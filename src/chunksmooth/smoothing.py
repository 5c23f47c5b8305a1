"""Smoothed detectors: vote aggregation over ablated views, training
with per-step ablation, in-place edit certificates and per-chunk
attribution.

A smoothed detector scores all L views of a file with the base
classifier, turns each score into a vote at vote_threshold, and labels
the file by majority with ties going to malicious (the conservative
direction for a detector).  The plain (ns) detector is a single forward
pass over the whole file.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from . import neural
from .ablation import (
    AblatedView,
    AblationConfig,
    ChunkWindow,
    make_views,
    training_window,
    rs_tokens,
    window_tokens,
    windows_touching,
)
from .corpus import (
    LABEL_BENIGN,
    LABEL_MALICIOUS,
    CorpusManifest,
    load_capped,
)
from .errors import ConfigInvalid, DataError, EmptyCorpus, NotLengthPreserving, NotSca

DETECTOR_KINDS = ("ns", "rs", "rca", "sca")


# JSON types of the detector meta keys; bool is never taken for a number
_META_TYPES = {
    "kind": str,
    "p": (int, float),
    "n_views": int,
    "seed": int,
    "sca_mode": str,
    "vote_threshold": (int, float),
    "soft_scores": bool,
}


@dataclass(frozen=True)
class DetectorSpec:
    kind: str
    ablation: AblationConfig | None = None
    vote_threshold: float = 0.5
    soft_scores: bool = False  # attack oracles see mean view score instead of vote share

    def __post_init__(self):
        if self.kind not in DETECTOR_KINDS:
            raise ConfigInvalid(f"detector kind must be one of {DETECTOR_KINDS}, got {self.kind!r}")
        if self.kind == "ns":
            if self.ablation is not None:
                raise ConfigInvalid("ns takes no ablation config")
        else:
            if self.ablation is None or self.ablation.scheme != self.kind:
                raise ConfigInvalid(f"detector {self.kind!r} needs an ablation config of the same scheme")
        if not (0.0 < self.vote_threshold < 1.0):
            raise ConfigInvalid(f"vote_threshold must be in (0, 1), got {self.vote_threshold}")

    def meta(self) -> dict:
        d = {"kind": self.kind, "vote_threshold": self.vote_threshold, "soft_scores": self.soft_scores}
        if self.ablation is not None:
            d.update(
                p=self.ablation.p,
                n_views=self.ablation.n_views,
                seed=self.ablation.seed,
                sca_mode=self.ablation.sca_mode,
            )
        return d

    @staticmethod
    def from_meta(meta: dict) -> "DetectorSpec":
        """The spec a checkpoint's detector block describes.  A block that
        is not an object, lacks a key or holds a value of the wrong JSON
        type raises DataError; a value out of range raises ConfigInvalid."""
        if not isinstance(meta, dict):
            raise DataError(f"detector meta must be a JSON object, got {type(meta).__name__}")
        for key, kinds in _META_TYPES.items():
            if key not in meta:
                continue
            value = meta[key]
            if isinstance(value, bool) != (kinds is bool) or not isinstance(value, kinds):
                raise DataError(f"detector meta {key!r} has the wrong type: {value!r}")
        try:
            kind = meta["kind"]
            ab = None
            if kind != "ns":
                ab = AblationConfig(
                    scheme=kind,
                    p=meta["p"],
                    n_views=meta["n_views"],
                    seed=meta.get("seed", 0),
                    sca_mode=meta.get("sca_mode", "even"),
                )
        except KeyError as exc:
            raise DataError(f"detector meta is missing {exc.args[0]!r}") from exc
        return DetectorSpec(
            kind=kind,
            ablation=ab,
            vote_threshold=meta.get("vote_threshold", 0.5),
            soft_scores=meta.get("soft_scores", False),
        )


@dataclass(frozen=True)
class ChunkRecord:
    window: ChunkWindow | None
    score: float
    vote: str


@dataclass(frozen=True)
class PlainPrediction:
    score: float
    label: str


@dataclass(frozen=True)
class SmoothedPrediction:
    kind: str
    p: float
    n_views: int
    votes: dict[str, int]
    probabilities: dict[str, float]
    label: str
    mean_score: float
    per_chunk: tuple[ChunkRecord, ...]
    file_len: int

    @property
    def margin(self) -> int:
        return abs(self.votes[LABEL_MALICIOUS] - self.votes[LABEL_BENIGN])


def content_rng(seed: int, data: bytes) -> np.random.Generator:
    """Deterministic per-content rng: same (seed, bytes) -> same stream.

    Randomized schemes (rca, rs) use this at inference so predictions are
    reproducible and independent of evaluation order or threading.
    """
    digest = hashlib.sha256(data).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:16], "little")])


def predict_plain(params: neural.MalConvParams, data: bytes) -> PlainPrediction:
    tokens = np.frombuffer(data, dtype=np.uint8).astype(np.int32)
    score = neural.forward(params, tokens).score
    label = LABEL_MALICIOUS if score >= 0.5 else LABEL_BENIGN
    return PlainPrediction(score=score, label=label)


def smoothed_views(
    spec: DetectorSpec, data: bytes, rng: np.random.Generator | None = None
) -> list[AblatedView]:
    """The L views a smoothed detector votes over.  rca and rs draw from
    content_rng unless given an rng; sca is a pure function of len(data)."""
    if spec.kind == "ns":
        raise ConfigInvalid("predict_smoothed needs an ablation-based detector; use predict_plain")
    cfg = spec.ablation
    if rng is None and cfg.scheme != "sca":
        rng = content_rng(cfg.seed, data)
    return make_views(data, cfg, rng)


def tally_votes(
    scores: np.ndarray, vote_threshold: float
) -> tuple[dict[str, int], dict[str, float], str]:
    """Votes, vote shares and label of one set of view scores; a view
    votes malicious at score >= vote_threshold and ties go to malicious."""
    L = scores.size
    votes_mal = int(np.count_nonzero(scores >= vote_threshold))
    votes = {LABEL_BENIGN: L - votes_mal, LABEL_MALICIOUS: votes_mal}
    probabilities = {LABEL_BENIGN: (L - votes_mal) / L, LABEL_MALICIOUS: votes_mal / L}
    label = LABEL_MALICIOUS if votes_mal >= L - votes_mal else LABEL_BENIGN
    return votes, probabilities, label


def predict_smoothed(
    params: neural.MalConvParams,
    spec: DetectorSpec,
    data: bytes,
    rng: np.random.Generator | None = None,
) -> SmoothedPrediction:
    views = smoothed_views(spec, data, rng)
    scores = neural.forward_scores(params, [v.tokens for v in views])
    votes, probabilities, label = tally_votes(scores, spec.vote_threshold)
    per_chunk = tuple(
        ChunkRecord(
            window=v.window,
            score=float(s),
            vote=LABEL_MALICIOUS if s >= spec.vote_threshold else LABEL_BENIGN,
        )
        for v, s in zip(views, scores)
    )
    return SmoothedPrediction(
        kind=spec.kind,
        p=spec.ablation.p,
        n_views=spec.ablation.n_views,
        votes=votes,
        probabilities=probabilities,
        label=label,
        mean_score=float(np.mean(scores)),
        per_chunk=per_chunk,
        file_len=len(data),
    )


def predict(params: neural.MalConvParams, spec: DetectorSpec, data: bytes) -> str:
    """Just the label, through whichever path the spec calls for.  The
    smoothed path is predict_smoothed without its per-chunk records."""
    if spec.kind == "ns":
        return predict_plain(params, data).label
    views = smoothed_views(spec, data)
    scores = neural.forward_scores(params, [v.tokens for v in views])
    return tally_votes(scores, spec.vote_threshold)[2]


# -- certification -----------------------------------------------------------------


@dataclass(frozen=True)
class CertificationResult:
    certified: bool
    touched: int
    margin: int


def certify_inplace(
    pred: SmoothedPrediction, edit_region: tuple[int, int], spec: DetectorSpec
) -> CertificationResult:
    """Decide whether any in-place byte edit confined to edit_region can
    flip the label of a deterministic even-chunk prediction.

    Only windows intersecting the region can change their vote.  In the
    worst case every touched window voted for the winner and flips, so
    the label survives iff margin >= 2 * touched when the winner is
    malicious (ties stay malicious) and margin > 2 * touched otherwise.

    Insertions and deletions change every window position and are out of
    scope: the region must lie inside [0, file_len].
    """
    if spec.kind != "sca" or pred.kind != "sca":
        raise NotSca(f"certification is defined for sca only, got {pred.kind!r}")
    if spec.ablation.sca_mode != "even":
        raise NotSca("certification assumes evenly spaced windows, not verbatim mode")
    a, b = edit_region
    if not (0 <= a <= b <= pred.file_len):
        raise NotLengthPreserving(f"edit region {edit_region} not inside [0, {pred.file_len}]")
    touched = len(windows_touching([c.window for c in pred.per_chunk], edit_region))
    margin = pred.margin
    if pred.label == LABEL_MALICIOUS:
        certified = margin >= 2 * touched
    else:
        certified = margin > 2 * touched
    return CertificationResult(certified=certified, touched=touched, margin=margin)


def chunk_attribution(pred: SmoothedPrediction) -> list[ChunkRecord]:
    """Chunks ordered most-suspicious first; stable for equal scores."""
    return sorted(pred.per_chunk, key=lambda c: -c.score)


# -- training ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    profile: str = "desk"
    max_epochs: int = 50
    patience: int = 5
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ConfigInvalid(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not (0 < self.patience < self.max_epochs):
            raise ConfigInvalid(
                f"patience must be in [1, max_epochs), got patience={self.patience} max_epochs={self.max_epochs}"
            )
        if self.batch_size < 1:
            raise ConfigInvalid(f"batch_size must be >= 1, got {self.batch_size}")
        if not (self.lr > 0):
            raise ConfigInvalid(f"lr must be positive, got {self.lr}")


@dataclass
class TrainHistory:
    epoch_losses: list[float] = field(default_factory=list)
    val_accuracies: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 1-based
    stopped_epoch: int = 0


def _load_split(manifest: CorpusManifest, what: str) -> tuple[list[bytes], list[int]]:
    if not manifest.entries:
        raise EmptyCorpus(f"{what} split is empty")
    files = [load_capped(manifest.resolve(e)) for e in manifest.entries]
    labels = [1 if e.label == LABEL_MALICIOUS else 0 for e in manifest.entries]
    return files, labels


def _training_tokens(data: bytes, spec: DetectorSpec, rng: np.random.Generator) -> np.ndarray:
    """One training view. Both chunk schemes train on a single uniformly
    placed chunk; rs trains on one masked view; ns on the whole file."""
    if spec.kind == "ns":
        return np.frombuffer(data, dtype=np.uint8).astype(np.int32)
    if spec.kind == "rs":
        return rs_tokens(data, spec.ablation, rng)
    return window_tokens(data, training_window(len(data), spec.ablation.p, rng))


def _validation_accuracy(
    params: neural.MalConvParams,
    spec: DetectorSpec,
    files: list[bytes],
    labels: list[int],
) -> float:
    hits = 0
    for data, y in zip(files, labels):
        want = LABEL_MALICIOUS if y == 1 else LABEL_BENIGN
        hits += int(predict(params, spec, data) == want)
    return hits / len(files)


def train_smoothed(
    train_manifest: CorpusManifest,
    val_manifest: CorpusManifest,
    spec: DetectorSpec,
    cfg: TrainConfig,
) -> tuple[neural.MalConvParams, TrainHistory]:
    """Train the base classifier under the spec's ablation scheme.

    Fresh ablation randomness per sample per epoch. After each epoch the
    detector (not the bare classifier) is scored on the validation split;
    training stops once that accuracy has spent `patience` consecutive
    epochs strictly below the best seen, and the best-epoch checkpoint is
    returned. A plateau is not a decline: an epoch matching the best ties
    the record and the later (more trained) weights win the tie.
    """
    if cfg.profile not in neural.PROFILES:
        raise ConfigInvalid(f"unknown profile {cfg.profile!r}")
    train_files, train_labels = _load_split(train_manifest, "train")
    val_files, val_labels = _load_split(val_manifest, "validation")

    params = neural.init_params(neural.PROFILES[cfg.profile], cfg.seed)
    adam = neural.AdamState(params)
    adam_cfg = neural.AdamConfig(lr=cfg.lr)
    rng = np.random.default_rng([cfg.seed, 0xAB1A7E])

    history = TrainHistory()
    best_acc = -1.0
    best_params = params.copy()
    streak = 0
    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(train_files))
        batches = (
            [
                (_training_tokens(train_files[i], spec, rng), train_labels[i])
                for i in order[pos : pos + cfg.batch_size]
            ]
            for pos in range(0, len(order), cfg.batch_size)
        )
        mean_loss = neural.train_epoch(params, batches, adam, adam_cfg)
        val_acc = _validation_accuracy(params, spec, val_files, val_labels)
        history.epoch_losses.append(mean_loss)
        history.val_accuracies.append(val_acc)
        history.epoch_seconds.append(time.perf_counter() - t0)
        history.stopped_epoch = epoch
        if val_acc >= best_acc:
            best_acc = val_acc
            best_params = params.copy()
            history.best_epoch = epoch
            streak = 0
        else:
            streak += 1
            if streak >= cfg.patience:
                break
    return best_params, history
