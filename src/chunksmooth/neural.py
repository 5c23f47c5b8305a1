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
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .ablation import ABLATE_TOKEN, VOCAB_SIZE
from .errors import (
    BadMagic,
    DataError,
    NonFiniteLoss,
    ShapeMismatch,
    TruncatedFile,
    VersionUnsupported,
    check_fields,
    json_loads,
    read_input,
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


def _shapes(profile: ModelProfile) -> dict[str, tuple[int, ...]]:
    """Each tensor's shape under profile, in TENSOR_FIELDS order."""
    conv = (profile.n_filters, profile.emb_dim, profile.window)
    filters = (profile.n_filters,)
    return {
        "emb": (VOCAB_SIZE, profile.emb_dim),
        "wa": conv,
        "ba": filters,
        "wb": conv,
        "bb": filters,
        "fc_w": filters,
        "fc_b": (1,),
    }


def _check_shapes(params: MalConvParams) -> None:
    for name, shape in _shapes(params.profile).items():
        got = getattr(params, name).shape
        if got != shape:
            raise ShapeMismatch(f"{name}: expected {shape}, got {got}")


def init_params(profile: ModelProfile, seed: int, dtype=np.float32) -> MalConvParams:
    rng = np.random.default_rng(seed)
    shapes = _shapes(profile)
    scale = np.sqrt(2.0 / (profile.emb_dim * profile.window))
    return MalConvParams(
        profile=profile,
        emb=rng.normal(0.0, 0.1, shapes["emb"]).astype(dtype),
        wa=rng.normal(0.0, scale, shapes["wa"]).astype(dtype),
        ba=np.zeros(shapes["ba"], dtype=dtype),
        wb=rng.normal(0.0, scale, shapes["wb"]).astype(dtype),
        bb=np.zeros(shapes["bb"], dtype=dtype),
        fc_w=rng.normal(0.0, 1.0 / np.sqrt(profile.n_filters), shapes["fc_w"]).astype(dtype),
        fc_b=np.zeros(shapes["fc_b"], dtype=dtype),
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) <= 1 cannot overflow; 1/(1+e) and e/(1+e) are the stable
    # forms for x >= 0 and x < 0, divided once with the numerator chosen
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1, e) / (1 + e)


def _sigmoid_scalar(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def embed(params: MalConvParams, tokens: np.ndarray) -> np.ndarray:
    """params.emb[tokens] for tokens of any shape (..., t) -> (..., t, e),
    stored feature-major: the same values, laid out so that the im2col copy
    in kernels moves runs of contiguous positions of one feature."""
    table = np.ascontiguousarray(params.emb.T)  # (e, VOCAB_SIZE)
    return np.moveaxis(np.take(table, tokens, axis=1), 0, -1)


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
    x = embed(params, toks)
    a, b = kernels.conv_pair(x, params.wa, params.ba, params.wb, params.bb, pr.stride)
    gate = _sigmoid(b)
    gated = a * gate
    best_j = np.argmax(gated, axis=0)
    idx = np.arange(pr.n_filters)
    h = gated[best_j, idx]
    return ForwardCache(
        tokens=toks,
        x=x,
        best_j=best_j,
        a_star=a[best_j, idx],
        gate_star=gate[best_j, idx],
        h=h,
        score=plain_head(params, h),
    )


def plain_head(params: MalConvParams, h: np.ndarray) -> float:
    """The score of one pooled vector h (f,): the head of forward."""
    logit = float(params.fc_w @ h) + float(params.fc_b[0])
    return min(max(_sigmoid_scalar(logit), _SCORE_EPS), 1.0 - _SCORE_EPS)


def gate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gated activations of conv pre-activations, element by element."""
    return a * _sigmoid(b)


def view_heads(params: MalConvParams, h: np.ndarray) -> np.ndarray:
    """The scores of n views' pooled vectors h (n, f).  A per-row
    reduction, not a gemv: gemv bits depend on the batch size, and a
    view's score must depend on its own tokens only."""
    logits = ((h * params.fc_w).sum(axis=1) + params.fc_b[0]).astype(np.float64)
    return np.minimum(np.maximum(_sigmoid(logits), _SCORE_EPS), 1.0 - _SCORE_EPS)


def forward_scores(params: MalConvParams, views: np.ndarray) -> np.ndarray:
    """Scores of a 2-D stack of views (n, t) of one length, in one batched
    conv call.  Views shorter than the conv window are right-padded to it
    with ABLATE_TOKEN."""
    pr = params.profile
    n, t = views.shape
    # padded and converted in one array of intp, the index type of np.take,
    # so embed makes no converted copy; a uint8 stack (file bytes) is never
    # padded in its own dtype, where ABLATE_TOKEN would wrap to 0
    tokens = np.full((n, max(t, pr.window)), ABLATE_TOKEN, dtype=np.intp)
    tokens[:, :t] = views
    xs = embed(params, tokens)
    del tokens  # not live during the GEMM
    a, b = kernels.conv_pair_many(xs, params.wa, params.ba, params.wb, params.bb, pr.stride)
    return view_heads(params, gate(a, b).max(axis=1))


# A block of views is scored by one forward_scores call whose im2col matrix
# holds at most this many float32 values (16 MiB): 8,192 conv columns on
# desk, 1,048 on original.  The working set of a view stack is then one
# block, not the whole stack.
BLOCK_ELEMENTS = 1 << 22

# BLAS runs small GEMMs through other kernels than a full view stack's
# GEMM, with other rounding: OpenBLAS 0.3 does so for a lone view and, at
# desk size, for any batch of up to 37 conv columns.  Every GEMM over part
# of a stack (a block, a set of rescored conv columns) holds at least this
# many conv columns, or the whole stack, so it runs on the full stack's
# kernel.
MIN_RESCORE_COLUMNS = 64


def view_columns(profile: ModelProfile, n_tokens: int) -> int:
    """Conv columns of one view of n_tokens tokens, padded to the window."""
    return (max(n_tokens, profile.window) - profile.window) // profile.stride + 1


def _blocks(profile: ModelProfile, n_views: int, n_tokens: int, first: int, step: int) -> list[int]:
    """Boundaries [0, ..., n_views] of consecutive blocks of at most first
    views, then at most step views each, within the budget and the floor
    of view_blocks."""
    columns = view_columns(profile, n_tokens)
    budget = BLOCK_ELEMENTS // (columns * profile.emb_dim * profile.window)
    floor = -(-MIN_RESCORE_COLUMNS // columns)
    bounds = [0]
    while bounds[-1] < n_views:
        size = first if len(bounds) == 1 else step
        bounds.append(min(bounds[-1] + max(min(size, budget), 1, floor), n_views))
    if len(bounds) > 2 and (bounds[-1] - bounds[-2]) * columns < MIN_RESCORE_COLUMNS:
        del bounds[-2]
    return bounds


def view_blocks(profile: ModelProfile, n_views: int, n_tokens: int) -> list[int]:
    """Boundaries [0, ..., n_views] of the consecutive blocks score_views
    cuts a stack of n_views views of n_tokens tokens into.

    Each block holds at least one view, and at least MIN_RESCORE_COLUMNS
    conv columns unless it is the whole stack: a remainder with fewer joins
    the block before it.  Within that floor, a block's im2col matrix holds
    at most BLOCK_ELEMENTS values, unless the block is one view, or the
    last block with such a remainder."""
    return _blocks(profile, n_views, n_tokens, n_views, n_views)


# A vote over L views is settled once one side holds a majority: ceil(L/2)
# malicious votes (ties go to malicious) or floor(L/2)+1 benign ones.  Chunk
# views are scored in a first block of floor(L/2)+1 views, the fewest that
# can settle either label, then in blocks of ceil(L/VOTE_STEPS) views, so a
# label-only prediction can stop after any block.  A later block's im2col
# matrix also holds at least VOTE_BLOCK_ELEMENTS values (1 MiB of float32:
# 512 conv columns on desk, 66 on original): each block pays a fixed cost
# outside its GEMM, about 40 us or the work of 35 desk columns on a 2-core
# x86 host, which a full prediction would otherwise pay once per block of
# a few hundred columns.
VOTE_STEPS = 10
VOTE_BLOCK_ELEMENTS = 1 << 18


def vote_blocks(profile: ModelProfile, n_views: int, n_tokens: int) -> list[int]:
    """Boundaries [0, ..., n_views] of the blocks ChunkScorer scores a
    fresh call's views in: at most floor(L/2)+1 views in the first block;
    in each later one ceil(L/VOTE_STEPS) views, or enough views to hold
    VOTE_BLOCK_ELEMENTS im2col values; all within view_blocks' budget and
    column floor, and a short last block joins the one before it."""
    per_view = view_columns(profile, n_tokens) * profile.emb_dim * profile.window
    step = max(-(-n_views // VOTE_STEPS), -(-VOTE_BLOCK_ELEMENTS // per_view))
    return _blocks(profile, n_views, n_tokens, n_views // 2 + 1, step)


def score_views(params: MalConvParams, n_views: int, n_tokens: int, rows) -> Iterator[np.ndarray]:
    """Scores of n_views views of n_tokens tokens, one array per block
    (view_blocks) in view order, each scored by one forward_scores call
    when the iterator reaches it.  rows(a, b) returns views [a, b) as a 2-D
    stack and is called once per block, for consecutive blocks in order, so
    only one block of views need exist at a time, and a caller that stops
    early draws no more.  smoothing.view_scorer scores rs views, and chunk
    views shorter than the conv window, here.

    Concatenated, bitwise the scores of one forward_scores call on the
    whole stack, since a view's score depends on its own tokens only and
    every block runs on the whole stack's GEMM kernel."""
    bounds = view_blocks(params.profile, n_views, n_tokens)
    for a, b in zip(bounds, bounds[1:]):
        yield forward_scores(params, rows(a, b))


class ChunkScorer:
    """The pooled vectors (L, f) of the chunk views tokens[s : s+g] of one
    file, for s in starts and g of at least the conv window; the caller
    applies the head.  A cell is one (view, conv column) pair, whose window
    starts at start + stride*k.  The file is embedded once.

    A call returns an iterator over the pooled vectors in consecutive
    blocks of whole views, in view order.  A fresh call computes a block's
    cells, in one conv_pair_views GEMM, only when the iterator reaches it
    (vote_blocks), so a caller that has what it needs can stop; every GEMM
    holds at least MIN_RESCORE_COLUMNS cells or all of them, so the result
    is bitwise score_views'.

    Once a call's last block is out, the scorer keeps its tokens,
    embedding and gated (cells, f) values.  A call with the same starts
    and g on a file of the same length then recomputes only the cells
    whose window covers a changed token (the sparse max-pool recomputation
    of Raff et al. 2021), padded to MIN_RESCORE_COLUMNS cells or all, pools
    again the views holding one, and yields all L as one block: bitwise a
    fresh call, since the max is exact.  Any other call, and any call after
    one whose iterator was left before its end, starts afresh."""

    def __init__(self, params: MalConvParams):
        self.params = params
        self._tokens = None

    def __call__(self, tokens: np.ndarray, starts: np.ndarray, g: int) -> Iterator[np.ndarray]:
        same = self._tokens is not None and self._tokens.size == tokens.size and self._g == g
        if same and np.array_equal(self._starts, starts):
            yield self._rescore(tokens)
            return
        pr = self.params.profile
        self._tokens = None  # the kept state is valid again only after the last block
        xt = embed(self.params, tokens).T  # (e, l), the array embed lays out
        columns = view_columns(pr, g)
        pos = (starts[:, None] + pr.stride * np.arange(columns)).ravel()
        gated = np.empty((pos.size, pr.n_filters), dtype=self.params.dtype)
        pooled = []
        bounds = vote_blocks(pr, starts.size, g)
        for a, b in zip(bounds, bounds[1:]):
            cells = slice(a * columns, b * columns)
            gated[cells] = self._gates(xt, pos[cells])
            pooled.append(gated[cells].reshape(b - a, columns, pr.n_filters).max(axis=1))
            yield pooled[-1]
        self._tokens, self._starts, self._g = tokens.copy(), starts.copy(), g
        self._xt, self._pos, self._gated = xt, pos, gated
        self._pooled = np.concatenate(pooled)

    def _rescore(self, tokens: np.ndarray) -> np.ndarray:
        pr = self.params.profile
        at = np.flatnonzero(tokens != self._tokens)
        if not at.size:
            return self._pooled.copy()
        # cs(x), the number of changed tokens before x, is searchsorted(at, x):
        # the cell's window covers a changed token when cs(pos + window) > cs(pos)
        changed = np.searchsorted(at, self._pos + pr.window) > np.searchsorted(at, self._pos)
        short = min(changed.size, MIN_RESCORE_COLUMNS) - int(np.count_nonzero(changed))
        if short > 0:
            changed[np.flatnonzero(~changed)[:short]] = True
        self._tokens = tokens.copy()  # a copy costs less than scattering the changed tokens
        self._xt[:, at] = embed(self.params, tokens[at]).T
        cells = np.flatnonzero(changed)
        bounds = view_blocks(pr, cells.size, pr.window)
        for lo, hi in zip(bounds, bounds[1:]):
            self._gated[cells[lo:hi]] = self._gates(self._xt, self._pos[cells[lo:hi]])
        n_views = self._starts.size
        views = changed.reshape(n_views, -1).any(axis=1)
        self._pooled[views] = self._gated.reshape(n_views, -1, pr.n_filters)[views].max(axis=1)
        return self._pooled.copy()

    def _gates(self, xt: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Gated activations (n, f) of the one-column views at pos of the
        feature-major embedding xt."""
        p, pr = self.params, self.params.profile
        a, b = kernels.conv_pair_views(xt.T, pos, pr.window, p.wa, p.ba, p.wb, p.bb, pr.stride)
        return gate(a[:, 0], b[:, 0])


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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    def __init__(self, params: MalConvParams):
        self.m = [np.zeros_like(t) for t in params.tensors()]
        self.v = [np.zeros_like(t) for t in params.tensors()]
        self.t = 0


def adam_step(params: MalConvParams, grads: dict[str, np.ndarray], state: AdamState, lr: float) -> None:
    state.t += 1
    b1t = 1.0 - ADAM_BETA1**state.t
    b2t = 1.0 - ADAM_BETA2**state.t
    for i, name in enumerate(TENSOR_FIELDS):
        g = grads[name]
        state.m[i] = ADAM_BETA1 * state.m[i] + (1.0 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[i] / b1t
        v_hat = state.v[i] / b2t
        tensor = getattr(params, name)
        tensor -= (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(tensor.dtype)


def train_step(
    params: MalConvParams,
    batch: list[tuple[np.ndarray, int]],
    state: AdamState,
    lr: float,
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
    adam_step(params, total, state, lr)
    return float(mean_loss)


def train_epoch(params, batches, state: AdamState, lr: float) -> float:
    """Adam over an iterable of batches; returns the mean per-batch loss."""
    losses = [train_step(params, batch, state, lr) for batch in batches]
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


def load_checkpoint(path: str | Path) -> tuple[MalConvParams, dict]:
    raw = read_input(path, "checkpoint ")
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
    meta = json_loads(raw[10 : 10 + blob_len], str(path), "meta block")
    m = meta.get("model") if isinstance(meta, dict) else None
    if not isinstance(m, dict):
        raise DataError(f"{path}: meta block has no model object")
    keys = ("emb_dim", "n_filters", "window", "stride")
    check_fields(m, dict.fromkeys(keys, int), f"{path}: model")
    dims = {key: m[key] for key in keys}
    for key, value in dims.items():
        if value < 1:
            raise DataError(f"{path}: model {key} must be >= 1, got {value}")
    if dims["stride"] > dims["window"]:
        raise DataError(f"{path}: model stride {dims['stride']} exceeds window {dims['window']}")
    profile = ModelProfile(**dims)
    shapes = _shapes(profile).values()
    need = sum(math.prod(s) for s in shapes) * 4
    body = raw[10 + blob_len :]
    if len(body) != need:
        raise TruncatedFile(f"{path}: tensor payload is {len(body)} bytes, expected {need}")
    tensors = []
    off = 0
    for name, shape in zip(TENSOR_FIELDS, shapes):
        count = math.prod(shape)
        arr = np.frombuffer(body, dtype="<f4", count=count, offset=off).reshape(shape)
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: tensor {name} holds a non-finite value")
        tensors.append(arr.astype(np.float32))
        off += count * 4
    params = MalConvParams(profile, *tensors)
    _check_shapes(params)
    return params, meta
