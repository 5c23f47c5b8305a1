"""A small gated-convolution byte classifier, written against numpy.

Architecture: trainable byte embedding (257 rows; index 256 is the
ablation/padding token), one pair of 1-D convolutions where the second
gates the first through a sigmoid, global max pooling over positions
per filter, then a single affine unit squashed to a score in (0, 1).
Chunks shorter than the conv window are right-padded with the ablation
token; beyond that, trailing bytes that do not fill a full window are
ignored (valid convolution).

Backward passes are analytic.  Training is float32; gradient checks run
the same code in float64.  The conv GEMM and the gradient scatters
live in kernels.py.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .ablation import ABLATE_TOKEN, VOCAB_SIZE
from .errors import (
    BadMagic,
    DataError,
    IoFailure,
    NonFiniteLoss,
    ShapeMismatch,
    TruncatedFile,
    VersionUnsupported,
)

LOSS_EPS = 1e-7  # BCE clamp
_SCORE_EPS = 1e-12  # keeps forward scores inside the open interval (0, 1)

CHECKPOINT_MAGIC = b"MCSM"
CHECKPOINT_VERSION = 1

TENSOR_FIELDS = ("emb", "wa", "ba", "wb", "bb", "fc_w", "fc_b")


@dataclass(frozen=True)
class ModelProfile:
    emb_dim: int = 8
    n_filters: int = 32
    window: int = 64
    stride: int = 64


# "original" mirrors the classic raw-byte classifier dimensions; "desk"
# is small enough to train and attack on one CPU in minutes.
PROFILES = {
    "desk": ModelProfile(emb_dim=8, n_filters=32, window=64, stride=64),
    "original": ModelProfile(emb_dim=8, n_filters=128, window=500, stride=500),
}


@dataclass
class MalConvParams:
    profile: ModelProfile
    emb: np.ndarray  # (VOCAB_SIZE, emb_dim)
    wa: np.ndarray  # (n_filters, emb_dim, window)
    ba: np.ndarray  # (n_filters,)
    wb: np.ndarray
    bb: np.ndarray
    fc_w: np.ndarray  # (n_filters,)
    fc_b: np.ndarray  # (1,)

    @property
    def dtype(self):
        return self.emb.dtype

    def tensors(self) -> list[np.ndarray]:
        return [getattr(self, f) for f in TENSOR_FIELDS]

    def copy(self) -> "MalConvParams":
        return MalConvParams(self.profile, *[t.copy() for t in self.tensors()])

    def astype(self, dtype) -> "MalConvParams":
        return MalConvParams(self.profile, *[t.astype(dtype) for t in self.tensors()])


def _check_shapes(params: MalConvParams) -> None:
    pr = params.profile
    expect = {
        "emb": (VOCAB_SIZE, pr.emb_dim),
        "wa": (pr.n_filters, pr.emb_dim, pr.window),
        "ba": (pr.n_filters,),
        "wb": (pr.n_filters, pr.emb_dim, pr.window),
        "bb": (pr.n_filters,),
        "fc_w": (pr.n_filters,),
        "fc_b": (1,),
    }
    for name, shape in expect.items():
        got = getattr(params, name).shape
        if got != shape:
            raise ShapeMismatch(f"{name}: expected {shape}, got {got}")


def init_params(profile: ModelProfile, seed: int, dtype=np.float32) -> MalConvParams:
    rng = np.random.default_rng(seed)
    scale = np.sqrt(2.0 / (profile.emb_dim * profile.window))
    params = MalConvParams(
        profile=profile,
        emb=rng.normal(0.0, 0.1, (VOCAB_SIZE, profile.emb_dim)).astype(dtype),
        wa=rng.normal(0.0, scale, (profile.n_filters, profile.emb_dim, profile.window)).astype(dtype),
        ba=np.zeros(profile.n_filters, dtype=dtype),
        wb=rng.normal(0.0, scale, (profile.n_filters, profile.emb_dim, profile.window)).astype(dtype),
        bb=np.zeros(profile.n_filters, dtype=dtype),
        fc_w=rng.normal(0.0, 1.0 / np.sqrt(profile.n_filters), profile.n_filters).astype(dtype),
        fc_b=np.zeros(1, dtype=dtype),
    )
    _check_shapes(params)
    return params


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) <= 1 cannot overflow; each branch is the stable form for its sign
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1 / (1 + e), e / (1 + e))


def _sigmoid_scalar(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _pad_tokens(tokens: np.ndarray, window: int) -> np.ndarray:
    if tokens.ndim != 1 or tokens.size == 0:
        raise ShapeMismatch("tokens must be a non-empty 1-D array")
    if tokens.size >= window:
        return np.ascontiguousarray(tokens, dtype=np.int32)
    pad = np.full(window - tokens.size, ABLATE_TOKEN, dtype=np.int32)
    return np.concatenate([tokens.astype(np.int32), pad])


@dataclass
class ForwardCache:
    tokens: np.ndarray  # padded
    x: np.ndarray  # (t, e) embedded input
    best_j: np.ndarray  # (f,) argmax window per filter, first index on ties
    a_star: np.ndarray  # (f,) conv_a pre-activation at best_j
    gate_star: np.ndarray  # (f,) sigmoid(conv_b) at best_j
    h: np.ndarray  # (f,) pooled gated activations
    score: float


def forward(params: MalConvParams, tokens: np.ndarray) -> ForwardCache:
    pr = params.profile
    toks = _pad_tokens(tokens, pr.window)
    x = params.emb[toks]
    a, b = kernels.conv_pair(x, params.wa, params.ba, params.wb, params.bb, pr.stride)
    gate = _sigmoid(b)
    gated = a * gate
    best_j = np.argmax(gated, axis=0)
    idx = np.arange(pr.n_filters)
    h = gated[best_j, idx]
    logit = float(params.fc_w @ h) + float(params.fc_b[0])
    score = min(max(_sigmoid_scalar(logit), _SCORE_EPS), 1.0 - _SCORE_EPS)
    return ForwardCache(
        tokens=toks,
        x=x,
        best_j=best_j,
        a_star=a[best_j, idx],
        gate_star=gate[best_j, idx],
        h=h,
        score=score,
    )


def forward_scores(params: MalConvParams, token_arrays: list[np.ndarray]) -> np.ndarray:
    """Scores for many views.  Equal-length views (the usual smoothed
    prediction case) are folded into one batched conv call; token_arrays
    may also be a 2-D stack of them."""
    pr = params.profile
    padded = [_pad_tokens(t, pr.window) for t in token_arrays]
    lengths = {p.size for p in padded}
    if len(lengths) != 1:
        return np.array([forward(params, t).score for t in padded], dtype=np.float64)
    xs = params.emb[np.stack(padded)]
    a, b = kernels.conv_pair_many(xs, params.wa, params.ba, params.wb, params.bb, pr.stride)
    gated = a * _sigmoid(b)
    h = gated.max(axis=1)  # (n, f)
    # a per-row reduction, not a gemv: gemv bits depend on the batch size,
    # and a view's score must depend on its own tokens only
    logits = ((h * params.fc_w).sum(axis=1) + params.fc_b[0]).astype(np.float64)
    return np.clip(_sigmoid(logits), _SCORE_EPS, 1.0 - _SCORE_EPS)


def bce_loss(score: float, label: int) -> float:
    s = min(max(score, LOSS_EPS), 1.0 - LOSS_EPS)
    return -(label * np.log(s) + (1 - label) * np.log1p(-s))


def backward(params: MalConvParams, cache: ForwardCache, label: int) -> dict[str, np.ndarray]:
    """Gradient of bce_loss(forward(tokens), label) w.r.t. every tensor."""
    pr = params.profile
    dt = params.dtype
    d_logit = dt.type(cache.score - label)  # standard identity for sigmoid + BCE

    d_fc_w = d_logit * cache.h
    d_fc_b = np.array([d_logit], dtype=dt)
    d_h = d_logit * params.fc_w
    d_a = d_h * cache.gate_star
    d_b = d_h * cache.a_star * cache.gate_star * (1 - cache.gate_star)

    d_wa, d_ba, d_wb, d_bb, rows, d_rows = kernels.conv_backward(
        cache.x, params.wa, params.wb, cache.best_j, d_a, d_b, pr.stride
    )
    d_emb = np.zeros_like(params.emb)
    kernels.embedding_scatter(cache.tokens[rows], d_rows, d_emb)
    return {
        "emb": d_emb,
        "wa": d_wa,
        "ba": d_ba,
        "wb": d_wb,
        "bb": d_bb,
        "fc_w": d_fc_w,
        "fc_b": d_fc_b,
    }


# -- optimizer -------------------------------------------------------------------


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


class AdamState:
    def __init__(self, params: MalConvParams):
        self.m = [np.zeros_like(t) for t in params.tensors()]
        self.v = [np.zeros_like(t) for t in params.tensors()]
        self.t = 0


def adam_step(params: MalConvParams, grads: dict[str, np.ndarray], state: AdamState, cfg: AdamConfig) -> None:
    state.t += 1
    b1t = 1.0 - cfg.beta1**state.t
    b2t = 1.0 - cfg.beta2**state.t
    for i, name in enumerate(TENSOR_FIELDS):
        g = grads[name]
        state.m[i] = cfg.beta1 * state.m[i] + (1.0 - cfg.beta1) * g
        state.v[i] = cfg.beta2 * state.v[i] + (1.0 - cfg.beta2) * g * g
        m_hat = state.m[i] / b1t
        v_hat = state.v[i] / b2t
        tensor = getattr(params, name)
        tensor -= (cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)).astype(tensor.dtype)


def train_step(
    params: MalConvParams,
    batch: list[tuple[np.ndarray, int]],
    state: AdamState,
    cfg: AdamConfig,
) -> float:
    """One Adam step on the mean gradient of a batch; returns mean loss."""
    total = {name: np.zeros_like(getattr(params, name)) for name in TENSOR_FIELDS}
    loss_sum = 0.0
    for tokens, label in batch:
        cache = forward(params, tokens)
        loss_sum += bce_loss(cache.score, label)
        grads = backward(params, cache, label)
        for name in TENSOR_FIELDS:
            total[name] += grads[name]
    mean_loss = loss_sum / len(batch)
    if not np.isfinite(mean_loss):
        raise NonFiniteLoss(f"batch loss is {mean_loss}")
    inv = 1.0 / len(batch)
    for name in TENSOR_FIELDS:
        total[name] *= inv
    adam_step(params, total, state, cfg)
    return float(mean_loss)


def train_epoch(params, batches, state: AdamState, cfg: AdamConfig) -> float:
    """Adam over an iterable of batches; returns the mean per-batch loss."""
    losses = [train_step(params, batch, state, cfg) for batch in batches]
    if not losses:
        return 0.0
    return float(np.mean(losses))


# -- checkpoints ------------------------------------------------------------------


def save_checkpoint(path: str | Path, params: MalConvParams, detector_meta: dict | None = None) -> None:
    """Binary layout: magic, u16 version, u32 JSON length, JSON hyper
    block, then all tensors in declaration order as little-endian f32."""
    _check_shapes(params)
    pr = params.profile
    meta = {
        "model": {
            "emb_dim": pr.emb_dim,
            "n_filters": pr.n_filters,
            "window": pr.window,
            "stride": pr.stride,
            "vocab": VOCAB_SIZE,
        },
        "detector": detector_meta,
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for tensor in params.tensors():
            fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())


def load_checkpoint(path: str | Path, dtype=np.float32) -> tuple[MalConvParams, dict]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < 10:
        raise TruncatedFile(f"{path}: {len(raw)} bytes is too short for a header")
    if raw[:4] != CHECKPOINT_MAGIC:
        raise BadMagic(f"{path}: expected {CHECKPOINT_MAGIC!r}, got {raw[:4]!r}")
    version = struct.unpack_from("<H", raw, 4)[0]
    if version != CHECKPOINT_VERSION:
        raise VersionUnsupported(version)
    blob_len = struct.unpack_from("<I", raw, 6)[0]
    if 10 + blob_len > len(raw):
        raise TruncatedFile(f"{path}: JSON block runs past end of file")
    try:
        meta = json.loads(raw[10 : 10 + blob_len].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise DataError(f"{path}: meta block is not UTF-8 JSON: {exc}") from exc
    m = meta.get("model") if isinstance(meta, dict) else None
    if not isinstance(m, dict):
        raise DataError(f"{path}: meta block has no model object")
    dims = {}
    for key in ("emb_dim", "n_filters", "window", "stride"):
        value = m.get(key)
        if type(value) is not int or value < 1:
            raise DataError(f"{path}: model {key} must be an int >= 1, got {value!r}")
        dims[key] = value
    if dims["stride"] > dims["window"]:
        raise DataError(f"{path}: model stride {dims['stride']} exceeds window {dims['window']}")
    profile = ModelProfile(**dims)
    shapes = [
        (VOCAB_SIZE, profile.emb_dim),
        (profile.n_filters, profile.emb_dim, profile.window),
        (profile.n_filters,),
        (profile.n_filters, profile.emb_dim, profile.window),
        (profile.n_filters,),
        (profile.n_filters,),
        (1,),
    ]
    need = sum(math.prod(s) for s in shapes) * 4
    body = raw[10 + blob_len :]
    if len(body) != need:
        raise TruncatedFile(f"{path}: tensor payload is {len(body)} bytes, expected {need}")
    tensors = []
    off = 0
    for shape in shapes:
        count = math.prod(shape)
        arr = np.frombuffer(body, dtype="<f4", count=count, offset=off).reshape(shape)
        tensors.append(arr.astype(dtype))
        off += count * 4
    params = MalConvParams(profile, *tensors)
    _check_shapes(params)
    return params, meta
