"""Hot numeric kernels, written as vectorized numpy.

The conv kernels become one GEMM over the stride-spaced window columns,
cut from one embedded sequence at any set of view start offsets; the
scatters use ``np.add.at`` on a flat index.  Backward touches only the
input rows under the pooled windows (at most n_filters * window of
them): the conv gradient is accumulated on those rows and only they are
scattered into the embedding table, with the same non-zero terms in the
same order as a dense pass over every token.  Every kernel is
deterministic run to run.  perfbench/ times each kernel at fixed shapes
(``kernels.case.*``).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

# -- gated conv pair ----------------------------------------------------------
#
# x        (T, e)     one embedded sequence
# starts   (n,)       first position in x of each of n views of t >= w positions
# wa, wb   (f, e, w)  conv weights, filter-major
# ba, bb   (f,)       biases
# returns  (n, j, f)  pre-activations at each window position, j = (t-w)//stride + 1
#
# One im2col body: column (i, k) is the (e, w) window of x at
# starts[i] + stride*k.  The copy is fastest when x is stored feature-major
# (neural.embed), so that each of a window's e rows is w contiguous values.
# The public conv kernels call this private body rather than each other, so
# a wrapper around one of them (perfbench/ traces them) never sees the
# others' calls.


def _windows(x, w):
    """sliding_window_view(x, w, axis=0) of a 2-D x: the same read-only
    view, without sliding_window_view's argument handling, a fixed cost
    that every small GEMM of a prediction block pays again."""
    (t, e), (st, se) = x.shape, x.strides
    return as_strided(x, (t - w + 1, e, w), (st, se, st), writeable=False)


def _conv_pair_cols(x, starts, t, wa, ba, wb, bb, stride):
    f, e, w = wa.shape
    n = starts.size
    j = (t - w) // stride + 1
    win = _windows(x, w)  # (T-w+1, e, w)
    cols = win[starts[:, None] + stride * np.arange(j)].reshape(n * j, e * w)
    a = cols @ wa.reshape(f, e * w).T + ba
    b = cols @ wb.reshape(f, e * w).T + bb
    return a.reshape(n, j, f), b.reshape(n, j, f)


def conv_pair(x, wa, ba, wb, bb, stride):
    """One embedded chunk x (t, e) -> pre-activations (j, f).  The same
    (j, e*w) GEMM as a one-chunk stack, so the bits match conv_pair_many."""
    a, b = _conv_pair_cols(x, np.zeros(1, np.int64), x.shape[0], wa, ba, wb, bb, stride)
    return a[0], b[0]


def conv_pair_many(xs, wa, ba, wb, bb, stride):
    """A stack of equal-length chunks xs (n, t, e) -> (n, j, f), as one GEMM."""
    n, t, e = xs.shape
    return _conv_pair_cols(xs.reshape(n * t, e), np.arange(n) * t, t, wa, ba, wb, bb, stride)


def conv_pair_views(x, starts, t, wa, ba, wb, bb, stride):
    """The views x[s : s+t] of one embedded sequence x (T, e), for s in
    starts -> (n, j, f), as one GEMM: bitwise conv_pair_many of the stacked
    views, without stacking them."""
    return _conv_pair_cols(x, starts, t, wa, ba, wb, bb, stride)


# -- conv backward at the pooled positions -------------------------------------
#
# Global max pooling routes the gradient of filter f to one window position
# best_j[f]; d_a/d_b are the gradients w.r.t. that position's pre-activations.
# Returns weight/bias gradients plus the gradient w.r.t. the embedded input,
# which is non-zero only on the rows under the pooled windows: those rows
# (sorted, unique) and their gradient, ready for embedding_scatter.


def conv_backward(x, wa, wb, best_j, d_a, d_b, stride):
    f, e, w = wa.shape
    win = _windows(x, w)  # (t-w+1, e, w)
    slices = win[best_j * stride]  # (f, e, w)
    d_wa = d_a[:, None, None] * slices
    d_wb = d_b[:, None, None] * slices
    contrib = d_a[:, None, None] * wa + d_b[:, None, None] * wb  # (f, e, w)
    contrib = contrib.transpose(0, 2, 1)  # (f, w, e)
    pos = best_j[:, None] * stride + np.arange(w)[None, :]  # (f, w)
    rows, slot = np.unique(pos, return_inverse=True)
    d_rows = np.zeros((rows.size, e), dtype=x.dtype)
    _add_rows(d_rows, slot.reshape(-1), contrib.reshape(f * w, e))
    return d_wa, d_a.copy(), d_wb, d_b.copy(), rows, d_rows


def _add_rows(out, index, values):
    """np.add.at(out, index, values) for a 2-D out (n, e) and row index:
    the same scatter through the flat index index*e + k, which numpy runs
    on a fast path where the row scatter takes its slow one.  add.at adds
    in index order either way, so every row sums the same terms in the
    same order and the result is bitwise equal."""
    e = out.shape[1]
    flat = out.reshape(-1)  # a view, unless out is not C-contiguous
    np.add.at(flat, (index[:, None] * e + np.arange(e)).reshape(-1), values.reshape(-1))
    if not np.may_share_memory(flat, out):
        out[...] = flat.reshape(out.shape)


# -- embedding scatter ----------------------------------------------------------


def embedding_scatter(tokens, d_x, d_emb):
    """Accumulate d_x rows into d_emb rows selected by tokens (repeats sum)."""
    _add_rows(d_emb, tokens, d_x)


# -- zero runs ------------------------------------------------------------------


def zero_runs(data: np.ndarray):
    """Maximal runs of zero bytes in a uint8 array, as (starts, ends) arrays."""
    mask = np.concatenate((np.zeros(1, np.bool_), data == 0, np.zeros(1, np.bool_)))
    edges = np.diff(mask.astype(np.int8))
    starts = np.where(edges == 1)[0]
    ends = np.where(edges == -1)[0]
    return starts.astype(np.int64), ends.astype(np.int64)
