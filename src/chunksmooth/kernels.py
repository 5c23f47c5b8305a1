"""Hot numeric kernels with two interchangeable backends.

The numba backend compiles the loops below with ``@njit``; the numpy
backend expresses the same arithmetic with vectorized ops (the conv
kernels become one GEMM).  Backend selection: the ``CHUNKSMOOTH_BACKEND``
environment variable ("numba" or "numpy"), read once at import.  The
default is numpy: at the default model sizes the conv reduces to a small
GEMM where BLAS beats the compiled loops, and numba then costs jit warmup
on top.  perfbench/ times each kernel at fixed shapes (``kernels.case.*``).
``set_backend`` overrides at runtime, which the CLI's ``--backend`` and the
agreement tests use.

Both backends are deterministic run to run.  They are not bitwise
identical to each other (different accumulation order), so tests compare
them at small tolerances rather than exactly.
"""

from __future__ import annotations

import functools
import os

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigInvalid

try:
    import numba as nb

    HAVE_NUMBA = True
except ImportError:
    nb = None
    HAVE_NUMBA = False

_VALID_BACKENDS = ("numba", "numpy")


def _initial_backend() -> str:
    env = os.environ.get("CHUNKSMOOTH_BACKEND", "").strip().lower()
    if env == "numba" and not HAVE_NUMBA:
        raise ConfigInvalid("CHUNKSMOOTH_BACKEND=numba but numba is not installed")
    if env not in ("", "numpy", "numba"):
        raise ConfigInvalid(f"CHUNKSMOOTH_BACKEND must be one of {_VALID_BACKENDS}, got {env!r}")
    return env or "numpy"


_BACKEND = _initial_backend()


def current_backend() -> str:
    return _BACKEND


def set_backend(name: str) -> None:
    global _BACKEND
    if name not in _VALID_BACKENDS:
        raise ConfigInvalid(f"backend must be one of {_VALID_BACKENDS}, got {name!r}")
    if name == "numba" and not HAVE_NUMBA:
        raise ConfigInvalid("numba backend requested but numba is not installed")
    _BACKEND = name


if HAVE_NUMBA:
    jit = functools.partial(nb.njit, cache=True, nogil=True)
else:  # decorator that leaves the python function as-is, never called in numpy mode
    def jit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


# -- gated conv pair ----------------------------------------------------------
#
# x        (t, e)     embedded chunk, t >= w
# wa, wb   (f, e, w)  conv weights, filter-major
# ba, bb   (f,)       biases
# returns  (j, f)     pre-activations at each window position, j = (t-w)//stride + 1


def _conv_pair_numpy(x, wa, ba, wb, bb, stride):
    f, e, w = wa.shape
    t = x.shape[0]
    j = (t - w) // stride + 1
    win = sliding_window_view(x, w, axis=0)  # (t-w+1, e, w)
    cols = np.ascontiguousarray(win[:: stride][:j]).reshape(j, e * w)
    a = cols @ wa.reshape(f, e * w).T + ba
    b = cols @ wb.reshape(f, e * w).T + bb
    return a, b


@jit
def _conv_pair_numba(x, wa, ba, wb, bb, stride):
    f = wa.shape[0]
    e = wa.shape[1]
    w = wa.shape[2]
    t = x.shape[0]
    j = (t - w) // stride + 1
    a = np.empty((j, f), dtype=x.dtype)
    b = np.empty((j, f), dtype=x.dtype)
    for jj in range(j):
        s0 = jj * stride
        for ff in range(f):
            acc_a = ba[ff]
            acc_b = bb[ff]
            for ww in range(w):
                for ee in range(e):
                    v = x[s0 + ww, ee]
                    acc_a += wa[ff, ee, ww] * v
                    acc_b += wb[ff, ee, ww] * v
            a[jj, ff] = acc_a
            b[jj, ff] = acc_b
    return a, b


def conv_pair(x, wa, ba, wb, bb, stride):
    if _BACKEND == "numba":
        return _conv_pair_numba(x, wa, ba, wb, bb, stride)
    return _conv_pair_numpy(x, wa, ba, wb, bb, stride)


# Batched variant for a stack of equal-length chunks: x (n, t, e) -> (n, j, f).
# numpy folds the whole stack into a single GEMM; numba reuses the single-chunk
# loop so batched and per-chunk results agree bitwise on that backend.


def _conv_pair_many_numpy(xs, wa, ba, wb, bb, stride):
    f, e, w = wa.shape
    n, t, _ = xs.shape
    j = (t - w) // stride + 1
    win = sliding_window_view(xs, w, axis=1)  # (n, t-w+1, e, w)
    cols = np.ascontiguousarray(win[:, ::stride][:, :j]).reshape(n * j, e * w)
    a = cols @ wa.reshape(f, e * w).T + ba
    b = cols @ wb.reshape(f, e * w).T + bb
    return a.reshape(n, j, f), b.reshape(n, j, f)


@jit
def _conv_pair_many_numba(xs, wa, ba, wb, bb, stride):
    f = wa.shape[0]
    w = wa.shape[2]
    n = xs.shape[0]
    t = xs.shape[1]
    j = (t - w) // stride + 1
    a = np.empty((n, j, f), dtype=xs.dtype)
    b = np.empty((n, j, f), dtype=xs.dtype)
    for i in range(n):
        ai, bi = _conv_pair_numba(xs[i], wa, ba, wb, bb, stride)
        a[i] = ai
        b[i] = bi
    return a, b


def conv_pair_many(xs, wa, ba, wb, bb, stride):
    if _BACKEND == "numba":
        return _conv_pair_many_numba(xs, wa, ba, wb, bb, stride)
    return _conv_pair_many_numpy(xs, wa, ba, wb, bb, stride)


# -- conv backward at the pooled positions -------------------------------------
#
# Global max pooling routes the gradient of filter f to one window position
# best_j[f]; d_a/d_b are the gradients w.r.t. that position's pre-activations.
# Returns weight/bias gradients plus d_x, the gradient w.r.t. the embedded
# input (to be scattered into the embedding table by embedding_scatter).


def _conv_backward_numpy(x, wa, wb, best_j, d_a, d_b, stride):
    f, e, w = wa.shape
    win = sliding_window_view(x, w, axis=0)  # (t-w+1, e, w)
    slices = win[best_j * stride]  # (f, e, w)
    d_wa = d_a[:, None, None] * slices
    d_wb = d_b[:, None, None] * slices
    d_x = np.zeros_like(x)
    contrib = d_a[:, None, None] * wa + d_b[:, None, None] * wb  # (f, e, w)
    contrib = contrib.transpose(0, 2, 1)  # (f, w, e)
    pos = best_j[:, None] * stride + np.arange(w)[None, :]  # (f, w)
    np.add.at(d_x, pos.reshape(-1), contrib.reshape(f * w, e))
    return d_wa, d_a.copy(), d_wb, d_b.copy(), d_x


@jit
def _conv_backward_numba(x, wa, wb, best_j, d_a, d_b, stride):
    f = wa.shape[0]
    e = wa.shape[1]
    w = wa.shape[2]
    d_wa = np.zeros_like(wa)
    d_wb = np.zeros_like(wb)
    d_x = np.zeros_like(x)
    for ff in range(f):
        s0 = best_j[ff] * stride
        ga = d_a[ff]
        gb = d_b[ff]
        for ww in range(w):
            for ee in range(e):
                v = x[s0 + ww, ee]
                d_wa[ff, ee, ww] = ga * v
                d_wb[ff, ee, ww] = gb * v
                d_x[s0 + ww, ee] += ga * wa[ff, ee, ww] + gb * wb[ff, ee, ww]
    return d_wa, d_a.copy(), d_wb, d_b.copy(), d_x


def conv_backward(x, wa, wb, best_j, d_a, d_b, stride):
    if _BACKEND == "numba":
        return _conv_backward_numba(x, wa, wb, best_j, d_a, d_b, stride)
    return _conv_backward_numpy(x, wa, wb, best_j, d_a, d_b, stride)


# -- embedding scatter ----------------------------------------------------------


def _embedding_scatter_numpy(tokens, d_x, d_emb):
    np.add.at(d_emb, tokens, d_x)


@jit
def _embedding_scatter_numba(tokens, d_x, d_emb):
    for i in range(tokens.shape[0]):
        tok = tokens[i]
        for ee in range(d_x.shape[1]):
            d_emb[tok, ee] += d_x[i, ee]


def embedding_scatter(tokens, d_x, d_emb):
    """Accumulate d_x rows into d_emb rows selected by tokens (repeats sum)."""
    if _BACKEND == "numba":
        _embedding_scatter_numba(tokens, d_x, d_emb)
    else:
        _embedding_scatter_numpy(tokens, d_x, d_emb)


# -- zero runs ------------------------------------------------------------------


def _zero_runs_numpy(data):
    mask = np.concatenate((np.zeros(1, np.bool_), data == 0, np.zeros(1, np.bool_)))
    edges = np.diff(mask.astype(np.int8))
    starts = np.where(edges == 1)[0]
    ends = np.where(edges == -1)[0]
    return starts.astype(np.int64), ends.astype(np.int64)


@jit
def _zero_runs_numba(data):
    n = data.shape[0]
    starts = np.empty(n // 2 + 1, dtype=np.int64)
    ends = np.empty(n // 2 + 1, dtype=np.int64)
    count = 0
    i = 0
    while i < n:
        if data[i] == 0:
            run_start = i
            while i < n and data[i] == 0:
                i += 1
            starts[count] = run_start
            ends[count] = i
            count += 1
        else:
            i += 1
    return starts[:count], ends[:count]


def zero_runs(data: np.ndarray):
    """Maximal runs of zero bytes in a uint8 array, as (starts, ends) arrays."""
    if _BACKEND == "numba":
        return _zero_runs_numba(data)
    return _zero_runs_numpy(data)


def warmup() -> None:
    """Trigger numba compilation on tiny inputs so timing runs stay honest."""
    if _BACKEND != "numba":
        return
    x = np.zeros((4, 2), dtype=np.float32)
    wa = np.zeros((2, 2, 3), dtype=np.float32)
    ba = np.zeros(2, dtype=np.float32)
    conv_pair(x, wa, ba, wa, ba, 1)
    conv_pair_many(x[None], wa, ba, wa, ba, 1)
    conv_backward(x, wa, wa, np.zeros(2, np.int64), ba, ba, 1)
    embedding_scatter(np.zeros(4, np.int32), x, np.zeros((3, 2), np.float32))
    zero_runs(np.zeros(4, np.uint8))
