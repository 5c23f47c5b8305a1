"""Smoothed detectors: vote aggregation over ablated views, training
with per-step ablation and in-place edit certificates.

A smoothed detector scores the L views of a file with the base
classifier, turns each score into a vote (malicious at a score of at
least VOTE_THRESHOLD), and labels the file by majority with ties going
to malicious (the conservative direction for a detector).  A prediction
of the label alone (predict) stops scoring views once the majority is
decided.  The plain (ns) detector is a single forward pass over the
whole file.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import neural
from .ablation import (
    AblationConfig,
    chunk_length,
    count_touching,
    make_views,
    rca_starts,
    rs_tokens,
    sca_starts,
    training_start,
)
from .corpus import (
    LABEL_BENIGN,
    LABEL_MALICIOUS,
    CorpusManifest,
    load_capped,
)
from .errors import (
    ConfigInvalid,
    DataError,
    EmptyCorpus,
    NonFiniteScore,
    NotLengthPreserving,
    NotSca,
    check_fields,
)

DETECTOR_KINDS = ("ns", "rs", "rca", "sca")

VOTE_THRESHOLD = 0.5  # a view votes malicious at a score >= this


# JSON types of the detector meta keys; of these an ns block carries only "kind"
_META_TYPES = {
    "kind": str,
    "p": float,
    "n_views": int,
    "seed": int,
}

# Meta keys with one legal value, of one JSON type.  There is one vote rule
# (hard votes at VOTE_THRESHOLD, and attack oracles score the vote share)
# and one sca placement; meta() still writes these keys so that checkpoints
# stay byte-identical, and from_meta refuses any other value.
_PINNED_META = {"vote_threshold": VOTE_THRESHOLD, "soft_scores": False, "sca_mode": "even"}


@dataclass(frozen=True)
class DetectorSpec:
    kind: str
    ablation: AblationConfig | None = None

    def __post_init__(self):
        if self.kind not in DETECTOR_KINDS:
            raise ConfigInvalid(f"detector kind must be one of {DETECTOR_KINDS}, got {self.kind!r}")
        if self.kind == "ns":
            if self.ablation is not None:
                raise ConfigInvalid("ns takes no ablation config")
        else:
            if self.ablation is None or self.ablation.scheme != self.kind:
                raise ConfigInvalid(f"detector {self.kind!r} needs an ablation config of the same scheme")

    def meta(self) -> dict:
        d = {"kind": self.kind, "vote_threshold": VOTE_THRESHOLD, "soft_scores": False}
        if self.ablation is not None:
            d.update(
                p=self.ablation.p,
                n_views=self.ablation.n_views,
                seed=self.ablation.seed,
                sca_mode="even",
            )
        return d

    @staticmethod
    def from_meta(meta: dict) -> "DetectorSpec":
        """The spec a checkpoint's detector block describes.  A block that
        is not an object, lacks a key, holds a value of the wrong JSON
        type or gives a pinned key another value raises DataError; a value
        out of range raises ConfigInvalid."""
        check_fields(meta, _META_TYPES, "detector meta", optional=("p", "n_views", "seed"))
        for key, pinned in _PINNED_META.items():
            value = meta.get(key, pinned)
            if type(value) is not type(pinned) or value != pinned:
                raise DataError(f"detector meta {key!r} must be {pinned!r}, got {value!r}")
        kind = meta["kind"]
        if kind == "ns":
            return DetectorSpec(kind=kind)
        check_fields(meta, _META_TYPES, "detector meta", optional=("seed",))
        ab = AblationConfig(scheme=kind, p=meta["p"], n_views=meta["n_views"], seed=meta.get("seed", 0))
        return DetectorSpec(kind=kind, ablation=ab)


@dataclass(frozen=True)
class PlainPrediction:
    score: float
    label: str


@dataclass(frozen=True)
class SmoothedPrediction:
    """A vote over L views: their scores in view order, their starts
    (None for rs, whose views have none) and their common length g.
    Chunk view i is data[starts[i] : starts[i] + g]."""

    kind: str
    p: float
    n_views: int
    votes: dict[str, int]
    probabilities: dict[str, float]
    label: str
    scores: tuple[float, ...]
    starts: tuple[int, ...] | None
    g: int
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


def _finite(scores):
    """scores, if each is finite.  Finite weights whose conv overflows
    score NaN, which no vote or record can hold."""
    if not np.isfinite(scores).all():  # the method costs half of np.all on a one-score block
        raise NonFiniteScore("the model scored a view NaN or infinite")
    return scores


def predict_plain(params: neural.MalConvParams, data: bytes) -> PlainPrediction:
    tokens = np.frombuffer(data, dtype=np.uint8).astype(np.int32)
    score = _finite(neural.forward(params, tokens).score)
    label = LABEL_MALICIOUS if score >= VOTE_THRESHOLD else LABEL_BENIGN
    return PlainPrediction(score=score, label=label)


def view_scorer(params: neural.MalConvParams, spec: DetectorSpec):
    """scores(data) -> (blocks, starts, g): an iterator over the scores of
    the views spec's detector votes over, in consecutive blocks of whole
    views in view order, with the views' starts and length g.  A block is
    scored when the iterator reaches it, so a caller that stops early
    scores no more views; a block holding a score that is not finite
    raises NonFiniteScore when it is reached.  This is the one place that
    maps a detector to its views and their scorer, and that checks their
    scores, for predictions and attack oracles alike.

    ns is one view of the whole file (starts [0], g its length), scored
    as forward scores it.  sca's starts are a pure function of len(data);
    rca and rs draw their views from content_rng on every call.  Chunk
    views of at least the conv window go through one neural.ChunkScorer
    kept across calls, in its blocks (neural.vote_blocks), so a call on a
    file of the same length and starts, after one whose blocks were all
    taken, rescores only the conv columns whose bytes changed; shorter
    chunk views are gathered from the file and rs views (starts None)
    drawn one block at a time, and both go through neural.score_views.
    Every call is bitwise a fresh one."""
    cfg, window = spec.ablation, params.profile.window
    chunks = neural.ChunkScorer(params)

    def unchecked(data: bytes) -> tuple[Iterator[np.ndarray], np.ndarray | None, int]:
        tokens = np.frombuffer(data, dtype=np.uint8)
        if spec.kind == "ns":
            starts = np.zeros(1, dtype=np.int64)
            if tokens.size < window:
                score = neural.forward(params, tokens).score
            else:
                (pooled,) = chunks(tokens, starts, tokens.size)
                score = neural.plain_head(params, pooled[0])
            return iter([np.array([score])]), starts, tokens.size
        if spec.kind == "rs":
            rng = content_rng(cfg.seed, data)
            rows = lambda a, b: make_views(data, replace(cfg, n_views=b - a), rng)
            return neural.score_views(params, cfg.n_views, tokens.size, rows), None, tokens.size
        if spec.kind == "sca":
            starts, g = sca_starts(tokens.size, cfg)
        else:
            starts, g = rca_starts(tokens.size, cfg, content_rng(cfg.seed, data))
        if g < window:
            windows = np.lib.stride_tricks.sliding_window_view(tokens, g)
            return neural.score_views(params, starts.size, g, lambda a, b: windows[starts[a:b]]), starts, g
        return (neural.view_heads(params, pooled) for pooled in chunks(tokens, starts, g)), starts, g

    def scores(data: bytes) -> tuple[Iterator[np.ndarray], np.ndarray | None, int]:
        blocks, starts, g = unchecked(data)
        return map(_finite, blocks), starts, g

    return scores


def tally_votes(scores: np.ndarray) -> tuple[dict[str, int], dict[str, float], str]:
    """Votes, vote shares and label of one set of view scores; a view
    votes malicious at score >= VOTE_THRESHOLD and ties go to malicious."""
    L = scores.size
    votes_mal = int(np.count_nonzero(scores >= VOTE_THRESHOLD))
    votes = {LABEL_BENIGN: L - votes_mal, LABEL_MALICIOUS: votes_mal}
    probabilities = {LABEL_BENIGN: (L - votes_mal) / L, LABEL_MALICIOUS: votes_mal / L}
    label = LABEL_MALICIOUS if votes_mal >= L - votes_mal else LABEL_BENIGN
    return votes, probabilities, label


def predict_smoothed(params: neural.MalConvParams, spec: DetectorSpec, data: bytes) -> SmoothedPrediction:
    """The vote over all L views of data, with their scores, starts and g.
    Raises NonFiniteScore if a view's score is not finite."""
    if spec.kind == "ns":
        raise ConfigInvalid("predict_smoothed needs an ablation-based detector; use predict_plain")
    blocks, starts, g = view_scorer(params, spec)(data)
    scores = np.concatenate(list(blocks))
    votes, probabilities, label = tally_votes(scores)
    return SmoothedPrediction(
        kind=spec.kind,
        p=spec.ablation.p,
        n_views=spec.ablation.n_views,
        votes=votes,
        probabilities=probabilities,
        label=label,
        scores=tuple(scores.tolist()),
        starts=None if starts is None else tuple(starts.tolist()),
        g=g,
        file_len=len(data),
    )


def predict(params: neural.MalConvParams, spec: DetectorSpec, data: bytes) -> str:
    """Just the label, through whichever path the spec calls for.

    The smoothed path tallies the views' scores block by block, in view
    order, and scores no more views once the label is settled: once
    ceil(L/2) views vote malicious (ties go to malicious), or floor(L/2)+1
    vote benign.  Each scored view's score is bitwise predict_smoothed's,
    so the label is too.  Raises NonFiniteScore if a scored view's score
    is not finite."""
    if spec.kind == "ns":
        return predict_plain(params, data).label
    n_views, scored, malicious = spec.ablation.n_views, 0, 0
    for scores in view_scorer(params, spec)(data)[0]:
        scored += scores.size
        malicious += int(np.count_nonzero(scores >= VOTE_THRESHOLD))
        if 2 * malicious >= n_views or 2 * (scored - malicious) > n_views:
            break
    return LABEL_MALICIOUS if 2 * malicious >= n_views else LABEL_BENIGN


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
    a, b = edit_region
    if not (0 <= a <= b <= pred.file_len):
        raise NotLengthPreserving(f"edit region {edit_region} not inside [0, {pred.file_len}]")
    touched = count_touching(np.asarray(pred.starts), pred.g, edit_region)
    margin = pred.margin
    if pred.label == LABEL_MALICIOUS:
        certified = margin >= 2 * touched
    else:
        certified = margin > 2 * touched
    return CertificationResult(certified=certified, touched=touched, margin=margin)


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
    raw = np.frombuffer(data, dtype=np.uint8)
    if spec.kind == "ns":
        return raw.astype(np.int32)
    if spec.kind == "rs":
        return rs_tokens(data, spec.ablation, rng)
    start = training_start(len(data), spec.ablation.p, rng)
    return raw[start : start + chunk_length(len(data), spec.ablation.p)].astype(np.int32)


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
        mean_loss = neural.train_epoch(params, batches, adam, cfg.lr)
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
