"""Hot numeric kernels, written as vectorized numpy.

The conv kernels become one GEMM over the stride-spaced window columns;
the scatters use ``np.add.at``.  Backward touches only the input rows
under the pooled windows (at most n_filters * window of them): the conv
gradient is accumulated on those rows and only they are scattered into
the embedding table, with the same non-zero terms in the same order as
a dense pass over every token.  Every kernel is deterministic run to
run.  perfbench/ times each kernel at fixed shapes (``kernels.case.*``).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# -- gated conv pair ----------------------------------------------------------
#
# xs       (n, t, e)  stack of embedded chunks, t >= w
# wa, wb   (f, e, w)  conv weights, filter-major
# ba, bb   (f,)       biases
# returns  (n, j, f)  pre-activations at each window position, j = (t-w)//stride + 1
#
# Both public conv kernels call this private body rather than each other, so
# a wrapper around one of them (perfbench/ traces them) never sees the other's calls.


def _conv_pair_stack(xs, wa, ba, wb, bb, stride):
    f, e, w = wa.shape
    n, t, _ = xs.shape
    j = (t - w) // stride + 1
    win = sliding_window_view(xs, w, axis=1)  # (n, t-w+1, e, w)
    cols = np.ascontiguousarray(win[:, ::stride][:, :j]).reshape(n * j, e * w)
    a = cols @ wa.reshape(f, e * w).T + ba
    b = cols @ wb.reshape(f, e * w).T + bb
    return a.reshape(n, j, f), b.reshape(n, j, f)


def conv_pair(x, wa, ba, wb, bb, stride):
    """One embedded chunk x (t, e) -> pre-activations (j, f).  The same
    (j, e*w) GEMM as a one-chunk stack, so the bits match conv_pair_many."""
    a, b = _conv_pair_stack(x[None], wa, ba, wb, bb, stride)
    return a[0], b[0]


def conv_pair_many(xs, wa, ba, wb, bb, stride):
    """A stack of equal-length chunks xs (n, t, e) -> (n, j, f), as one GEMM."""
    return _conv_pair_stack(xs, wa, ba, wb, bb, stride)


# -- conv backward at the pooled positions -------------------------------------
#
# Global max pooling routes the gradient of filter f to one window position
# best_j[f]; d_a/d_b are the gradients w.r.t. that position's pre-activations.
# Returns weight/bias gradients plus the gradient w.r.t. the embedded input,
# which is non-zero only on the rows under the pooled windows: those rows
# (sorted, unique) and their gradient, ready for embedding_scatter.


def conv_backward(x, wa, wb, best_j, d_a, d_b, stride):
    f, e, w = wa.shape
    win = sliding_window_view(x, w, axis=0)  # (t-w+1, e, w)
    slices = win[best_j * stride]  # (f, e, w)
    d_wa = d_a[:, None, None] * slices
    d_wb = d_b[:, None, None] * slices
    contrib = d_a[:, None, None] * wa + d_b[:, None, None] * wb  # (f, e, w)
    contrib = contrib.transpose(0, 2, 1)  # (f, w, e)
    pos = best_j[:, None] * stride + np.arange(w)[None, :]  # (f, w)
    rows, slot = np.unique(pos, return_inverse=True)
    d_rows = np.zeros((rows.size, e), dtype=x.dtype)
    np.add.at(d_rows, slot.reshape(-1), contrib.reshape(f * w, e))
    return d_wa, d_a.copy(), d_wb, d_b.copy(), rows, d_rows


# -- embedding scatter ----------------------------------------------------------


def embedding_scatter(tokens, d_x, d_emb):
    """Accumulate d_x rows into d_emb rows selected by tokens (repeats sum)."""
    np.add.at(d_emb, tokens, d_x)


# -- zero runs ------------------------------------------------------------------


def zero_runs(data: np.ndarray):
    """Maximal runs of zero bytes in a uint8 array, as (starts, ends) arrays."""
    mask = np.concatenate((np.zeros(1, np.bool_), data == 0, np.zeros(1, np.bool_)))
    edges = np.diff(mask.astype(np.int8))
    starts = np.where(edges == 1)[0]
    ends = np.where(edges == -1)[0]
    return starts.astype(np.int64), ends.astype(np.int64)
