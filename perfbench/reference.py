"""Computations the correctness checks compare the program against.

Written from the documented formats and formulas, sharing no code with the
package: the checkpoint reader follows the documented binary layout, the
forward pass is float64 with explicit per-window slices, and the sca window
geometry uses exact rational arithmetic.
"""

from __future__ import annotations

import json
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

ABLATE = 256
VOCAB = 257
# Largest |float32 package score - float64 reference score| accepted.  The
# desk net sums 512 products per filter in float32; the scores of the
# committed checkpoints agree with the reference to about 1e-6.
SCORE_TOL = 1e-4


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class RefModel:
    """Float64 weights read straight from a checkpoint file: magic "MCSM",
    u16 version, u32 JSON length, JSON header, then emb, wa, ba, wb, bb,
    fc_w, fc_b as little-endian float32."""

    def __init__(self, path: Path):
        raw = Path(path).read_bytes()
        expect(raw[:4] == b"MCSM", f"{path}: not a checkpoint")
        (n,) = struct.unpack_from("<I", raw, 6)
        meta = json.loads(raw[10 : 10 + n])
        m = meta["model"]
        f, e, w = m["n_filters"], m["emb_dim"], m["window"]
        self.window, self.stride = w, m["stride"]
        shapes = [(VOCAB, e), (f, e, w), (f,), (f, e, w), (f,), (f,), (1,)]
        body = np.frombuffer(raw, dtype="<f4", offset=10 + n).astype(np.float64)
        parts, off = [], 0
        for shape in shapes:
            size = math.prod(shape)
            parts.append(body[off : off + size].reshape(shape))
            off += size
        expect(off == body.size, f"{path}: tensor payload size")
        self.emb, self.wa, self.ba, self.wb, self.bb, self.fc_w, self.fc_b = parts

    def score(self, data: bytes) -> float:
        """Embed, slide both convs window by window, gate with a logistic,
        max over positions, affine, logistic."""
        toks = list(data) + [ABLATE] * max(0, self.window - len(data))
        x = self.emb[np.asarray(toks)]
        n_pos = (len(toks) - self.window) // self.stride + 1
        pooled = np.full(self.wa.shape[0], -np.inf)
        for j in range(n_pos):
            seg = x[j * self.stride : j * self.stride + self.window]  # (w, e)
            a = np.einsum("we,few->f", seg, self.wa) + self.ba
            b = np.einsum("we,few->f", seg, self.wb) + self.bb
            pooled = np.maximum(pooled, a / (1.0 + np.exp(-b)))
        logit = float(pooled @ self.fc_w + self.fc_b[0])
        return 1.0 / (1.0 + math.exp(-logit))


def sca_windows(file_len: int, p: str, n_views: int) -> list[tuple[int, int]]:
    """start_i = floor(i (l - g) / (L - 1)) with g = ceil(l p), exactly."""
    g = max(1, min(math.ceil(Fraction(file_len) * Fraction(p)), file_len))
    if n_views == 1:
        return [(0, g)]
    return [(i * (file_len - g) // (n_views - 1), i * (file_len - g) // (n_views - 1) + g) for i in range(n_views)]


def confusion(truth: list[str], predicted: list[str]) -> dict[str, int]:
    out = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for t, p in zip(truth, predicted):
        key = ("t" if t == p else "f") + ("p" if p == "malicious" else "n")
        out[key] += 1
    return out
