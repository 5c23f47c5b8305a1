"""Ablation schemes: how one byte sequence becomes L reduced views.

Three schemes:

* rca — L chunks of length ceil(l*p) with independently uniform starts.
* sca — L chunks of the same length with deterministic, seed-free,
  evenly spaced starts: start_i = floor(i * (l - g) / (L - 1)).  The
  first window begins at 0 and the last ends at l.  At L=20, p=0.05,
  l=1000 the windows tile the file exactly (zero overlap); at L=100
  adjacent windows overlap by about 80%.
* rs — every byte independently replaced by the ablation token with
  probability 1 - p (p is the keep probability for this scheme only).

Training uses a single uniformly placed chunk per sample for both chunk
schemes; they differ only at inference.

Every scheme yields L views of one length: g = ceil(l*p) bytes for the
chunk schemes, l for rs.  The model right-pads an input shorter than its
conv window to that window, so a view stack is always rectangular.

A chunk scheme's views are an int64 array of starts plus their common
length g (sca_starts, rca_starts); make_views builds no token stack of
them.  Predictions and attack oracles score them straight from the file
and the starts (smoothing.view_scorer, through neural.ChunkScorer, which
also finds the conv columns an edit touched from them), and
certify_inplace counts the windows a region touches from them
(count_touching).  rs views have no starts: they are rows of one int32
token array (make_views), drawn and scored one block at a time
(neural.score_blocks).

The placement in the published pseudocode for the evenly spaced sampler
is not offered.  Its formulas are internally inconsistent: the stride
collapses to 0 at L=20 (every view is the same chunk) and the windows
run past the end of the file at L=100, contradicting the scheme's own
overlap figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid

ABLATE_TOKEN = 256  # reserved embedding index for masked/padding positions
VOCAB_SIZE = 257

_SCHEMES = ("rca", "sca", "rs")

MAX_VIEWS = 10_000  # 100x the paper's largest L; bounds a checkpoint's view stack


@dataclass(frozen=True)
class AblationConfig:
    scheme: str
    p: float = 0.05
    n_views: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ConfigInvalid(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if not (0.0 < self.p <= 1.0):
            raise ConfigInvalid(f"p must be in (0, 1], got {self.p}")
        if not (1 <= self.n_views <= MAX_VIEWS):
            raise ConfigInvalid(f"n_views must be in [1, {MAX_VIEWS}], got {self.n_views}")


def chunk_length(file_len: int, p: float) -> int:
    """ceil(file_len * p), clamped to [1, file_len].

    The product is rounded to 9 decimals before the ceil so that binary
    float noise (1000 * 0.05 -> 50.000000000000004) cannot inflate the
    chunk by one byte.
    """
    if file_len < 1:
        raise ConfigInvalid(f"file_len must be >= 1, got {file_len}")
    g = math.ceil(round(file_len * p, 9))
    return max(1, min(g, file_len))


def training_start(file_len: int, p: float, rng: np.random.Generator) -> int:
    """Start of the single uniformly placed training chunk of length
    chunk_length(file_len, p) (shared by rca and sca)."""
    return int(rng.integers(0, file_len - chunk_length(file_len, p) + 1))


def rca_starts(file_len: int, cfg: AblationConfig, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Starts (int64) and length g of the L rca chunks: one draw of L
    uniform starts from rng."""
    g = chunk_length(file_len, cfg.p)
    return rng.integers(0, file_len - g + 1, size=cfg.n_views), g


def sca_starts(file_len: int, cfg: AblationConfig) -> tuple[np.ndarray, int]:
    """Starts (int64, sorted) and length g of the L evenly spaced sca
    chunks: start_i = floor(i * (l - g) / (L - 1)), and 0 when L = 1."""
    g = chunk_length(file_len, cfg.p)
    L = cfg.n_views
    if L == 1:
        return np.zeros(1, dtype=np.int64), g
    return np.arange(L, dtype=np.int64) * (file_len - g) // (L - 1), g


def rs_tokens(data: bytes, cfg: AblationConfig, rng: np.random.Generator) -> np.ndarray:
    raw = np.frombuffer(data, dtype=np.uint8).astype(np.int32)
    keep = rng.random(len(data)) < cfg.p
    return np.where(keep, raw, np.int32(ABLATE_TOKEN))


def make_views(data: bytes, cfg: AblationConfig, rng: np.random.Generator) -> np.ndarray:
    """The L rs views of one file under cfg, as one (L, len(data)) int32
    array: one rs_tokens draw from rng per view, in view order, so
    consecutive calls on one rng with n_views = L_1, ..., L_n give the
    rows of one call with their sum.  A chunk scheme's views are starts
    and a length (sca_starts, rca_starts), so its cfg raises ConfigInvalid.
    """
    if cfg.scheme != "rs":
        raise ConfigInvalid(f"make_views draws rs views; {cfg.scheme} views are starts (sca_starts, rca_starts)")
    views = np.empty((cfg.n_views, len(data)), dtype=np.int32)
    for view in views:
        view[:] = rs_tokens(data, cfg, rng)
    return views


def count_touching(starts: np.ndarray, g: int, region: tuple[int, int]) -> int:
    """How many of the windows [s, s+g), for s in sorted starts, have a
    non-empty intersection with [region): those with a - g < s < b."""
    a, b = region
    if b <= a:
        return 0
    return int(np.searchsorted(starts, b) - np.searchsorted(starts, a - g, side="right"))
