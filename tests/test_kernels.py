"""Kernel correctness against straight-line loop references."""

import numpy as np
import pytest

from _oracles import naive_zero_runs, two_gemm_conv_pair
from chunksmooth import kernels, neural


def _random_case(rng, n_filters=3, emb=5, window=8, t=40, stride=4, dtype=np.float64):
    x = rng.normal(size=(t, emb)).astype(dtype)
    wa = rng.normal(size=(n_filters, emb, window)).astype(dtype)
    ba = rng.normal(size=n_filters).astype(dtype)
    wb = rng.normal(size=(n_filters, emb, window)).astype(dtype)
    bb = rng.normal(size=n_filters).astype(dtype)
    return x, wa, ba, wb, bb


def _conv_pair_loops(x, wa, ba, wb, bb, stride):
    f, e, w = wa.shape
    j = (x.shape[0] - w) // stride + 1
    a = np.empty((j, f), dtype=np.float64)
    b = np.empty((j, f), dtype=np.float64)
    for jj in range(j):
        for ff in range(f):
            acc_a = float(ba[ff])
            acc_b = float(bb[ff])
            for ww in range(w):
                for ee in range(e):
                    v = float(x[jj * stride + ww, ee])
                    acc_a += float(wa[ff, ee, ww]) * v
                    acc_b += float(wb[ff, ee, ww]) * v
            a[jj, ff] = acc_a
            b[jj, ff] = acc_b
    return a, b


def test_conv_pair_matches_loop_reference():
    rng = np.random.default_rng(0)
    x, wa, ba, wb, bb = _random_case(rng)
    a, b = kernels.conv_pair(x, wa, ba, wb, bb, stride=4)
    ra, rb = _conv_pair_loops(x, wa, ba, wb, bb, stride=4)
    assert a.shape == ra.shape == (9, 3)
    np.testing.assert_allclose(a, ra, rtol=1e-12)
    np.testing.assert_allclose(b, rb, rtol=1e-12)


def test_conv_pair_stride_one_window_equals_length():
    # degenerate single-window case: j == 1
    rng = np.random.default_rng(1)
    x, wa, ba, wb, bb = _random_case(rng, t=8, window=8, stride=8)
    a, b = kernels.conv_pair(x, wa, ba, wb, bb, stride=8)
    assert a.shape == (1, 3)
    ra, rb = _conv_pair_loops(x, wa, ba, wb, bb, stride=8)
    np.testing.assert_allclose(a, ra, rtol=1e-12)
    np.testing.assert_allclose(b, rb, rtol=1e-12)


def test_conv_pair_views_matches_the_stacked_views():
    """Views cut from one sequence by start offset, in any order, repeated
    and up to the sequence's end, in either memory layout, give the bits of
    conv_pair_many over the stacked views."""
    rng = np.random.default_rng(3)
    x, wa, ba, wb, bb = _random_case(rng, t=200, dtype=np.float32)
    starts = np.array([0, 37, 37, 5, 152, 96, 1], dtype=np.int64)
    want = kernels.conv_pair_many(np.stack([x[s : s + 48] for s in starts]), wa, ba, wb, bb, stride=4)
    for seq in (x, np.asfortranarray(x)):
        got = kernels.conv_pair_views(seq, starts, 48, wa, ba, wb, bb, stride=4)
        assert got[0].shape == (7, 11, 3)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


def test_conv_pair_many_matches_single_calls():
    rng = np.random.default_rng(2)
    _, wa, ba, wb, bb = _random_case(rng)
    xs = rng.normal(size=(6, 40, 5))
    ma, mb = kernels.conv_pair_many(xs, wa, ba, wb, bb, stride=4)
    for i in range(6):
        a, b = kernels.conv_pair(xs[i], wa, ba, wb, bb, stride=4)
        np.testing.assert_allclose(ma[i], a, rtol=1e-12)
        np.testing.assert_allclose(mb[i], b, rtol=1e-12)


def test_conv_pair_is_the_one_chunk_stack_bitwise():
    rng = np.random.default_rng(6)
    for dtype in (np.float64, np.float32):
        x, wa, ba, wb, bb = _random_case(rng, t=128, window=16, stride=16, dtype=dtype)
        for stride in (16, 5):
            a, b = kernels.conv_pair(x, wa, ba, wb, bb, stride)
            ma, mb = kernels.conv_pair_many(x[None], wa, ba, wb, bb, stride)
            np.testing.assert_array_equal(a, ma[0])
            np.testing.assert_array_equal(b, mb[0])


@pytest.mark.parametrize("profile", ["desk", "original"])
def test_conv_matches_two_gemms_bitwise(profile):
    """An im2col matrix of at least MIN_RESCORE_COLUMNS rows is multiplied
    once by the stacked weights [wa; wb], a smaller one by wa and wb
    apart; at every row count from 1 to 2,100, and at 8,192, the
    pre-activations are bitwise those of two separate GEMMs.  At desk size
    the stacked GEMM differs from them at 19 to 37 rows under OpenBLAS 0.3."""
    pr = neural.PROFILES[profile]
    rng = np.random.default_rng(pr.window)
    f, e, w = pr.n_filters, pr.emb_dim, pr.window
    x = rng.standard_normal((e, 4 * w), dtype=np.float32).T  # feature-major, as neural.embed stores it
    wa, wb = (rng.standard_normal((f, e, w), dtype=np.float32) for _ in range(2))
    ba, bb = (rng.standard_normal(f, dtype=np.float32) for _ in range(2))
    starts = rng.integers(0, 3 * w + 1, size=8192)  # one column per view
    for n in [*range(1, 2101), 8192]:
        got = kernels.conv_pair_views(x, starts[:n], w, wa, ba, wb, bb, pr.stride)
        want = two_gemm_conv_pair(x, starts[:n], w, wa, ba, wb, bb, pr.stride)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes(), n


def _conv_backward_loops(x, wa, wb, best_j, d_a, d_b, stride):
    f, e, w = wa.shape
    d_wa = np.zeros_like(wa)
    d_wb = np.zeros_like(wb)
    d_x = np.zeros_like(x)
    for ff in range(f):
        s0 = int(best_j[ff]) * stride
        sl = x[s0 : s0 + w]  # (w, e)
        d_wa[ff] = d_a[ff] * sl.T
        d_wb[ff] = d_b[ff] * sl.T
        d_x[s0 : s0 + w] += d_a[ff] * wa[ff].T + d_b[ff] * wb[ff].T
    return d_wa, d_wb, d_x


def _dense_rows(rows, d_rows, t):
    """The pooled rows scattered into a dense (t, e) input gradient."""
    assert np.array_equal(rows, np.unique(rows))  # sorted, each row once
    d_x = np.zeros((t, d_rows.shape[1]), dtype=d_rows.dtype)
    d_x[rows] = d_rows
    return d_x


def test_conv_backward_matches_loop_reference():
    rng = np.random.default_rng(3)
    x, wa, ba, wb, bb = _random_case(rng)
    best_j = rng.integers(0, 9, size=3)
    d_a = rng.normal(size=3)
    d_b = rng.normal(size=3)
    d_wa, d_ba, d_wb, d_bb, rows, d_rows = kernels.conv_backward(x, wa, wb, best_j, d_a, d_b, 4)
    d_x = _dense_rows(rows, d_rows, x.shape[0])
    r_wa, r_wb, r_x = _conv_backward_loops(x, wa, wb, best_j, d_a, d_b, 4)
    np.testing.assert_allclose(d_wa, r_wa, rtol=1e-12)
    np.testing.assert_allclose(d_wb, r_wb, rtol=1e-12)
    np.testing.assert_allclose(d_x, r_x, rtol=1e-12)
    np.testing.assert_array_equal(d_ba, d_a)
    np.testing.assert_array_equal(d_bb, d_b)
    assert d_ba is not d_a  # defensive copies


def test_conv_backward_overlapping_best_windows_accumulate():
    # two filters pooled at the same position must both contribute to d_x
    rng = np.random.default_rng(4)
    x, wa, ba, wb, bb = _random_case(rng, n_filters=2)
    best_j = np.array([3, 3])
    d_a = np.array([1.0, 2.0])
    d_b = np.array([0.5, -1.0])
    *_, rows, d_rows = kernels.conv_backward(x, wa, wb, best_j, d_a, d_b, 4)
    assert rows.tolist() == list(range(12, 20))  # window 8 at position 3 * stride 4
    d_x = _dense_rows(rows, d_rows, x.shape[0])
    _, _, r_x = _conv_backward_loops(x, wa, wb, best_j, d_a, d_b, 4)
    np.testing.assert_allclose(d_x, r_x, rtol=1e-12)


def test_embedding_scatter_accumulates_repeated_tokens():
    tokens = np.array([5, 7, 5, 0, 5], dtype=np.int32)
    d_x = np.arange(10, dtype=np.float64).reshape(5, 2)
    d_emb = np.zeros((10, 2))
    kernels.embedding_scatter(tokens, d_x, d_emb)
    expect = np.zeros((10, 2))
    for t, row in zip(tokens, d_x):
        expect[t] += row
    np.testing.assert_array_equal(d_emb, expect)


def _row_scatter_2d(out, index, values):
    """The 2-D row scatter np.add.at(out, index, values), on a copy."""
    out = out.copy()
    np.add.at(out, index, values)
    return out


def _conv_backward_rows_2d(x, wa, wb, best_j, d_a, d_b, stride):
    """conv_backward's input rows and their gradient, scattered row by row."""
    f, e, w = wa.shape
    contrib = (d_a[:, None, None] * wa + d_b[:, None, None] * wb).transpose(0, 2, 1).reshape(f * w, e)
    rows, slot = np.unique(best_j[:, None] * stride + np.arange(w), return_inverse=True)
    return rows, _row_scatter_2d(np.zeros((rows.size, e), dtype=x.dtype), slot.reshape(-1), contrib)


def _with_negative_zeros(rng, a):
    a = a.copy()
    a[rng.random(a.shape) < 0.2] = -0.0
    return a


@pytest.mark.parametrize(
    "f, e, w, stride",
    [(32, 8, 64, 64), (32, 8, 64, 16), (32, 8, 64, 1), (128, 8, 500, 500), (128, 8, 500, 100)],
    ids=["desk-64", "desk-16", "desk-1", "original-500", "original-100"],
)
def test_flat_scatters_match_the_row_scatter_bitwise(f, e, w, stride):
    """conv_backward and embedding_scatter scatter through a flat index;
    their sums are bitwise those of the 2-D row scatter np.add.at, on
    float32 gradients holding -0.0, pooled windows that repeat and overlap
    (strides below the window), and repeated tokens, into a zero, a
    non-zero and a column-major table."""
    rng = np.random.default_rng(w + stride)
    for case in range(12):
        t = w + stride * int(rng.integers(0, 40))
        x = rng.standard_normal((t, e), dtype=np.float32)
        wa, wb = (_with_negative_zeros(rng, rng.standard_normal((f, e, w), dtype=np.float32)) for _ in range(2))
        j = (t - w) // stride + 1
        best_j = rng.integers(0, j, size=f) if case % 3 else np.full(f, j // 2)
        d_a, d_b = (_with_negative_zeros(rng, rng.standard_normal(f, dtype=np.float32)) for _ in range(2))
        if case == 0:
            d_a[:], d_b[:] = -0.0, -0.0
        *_, rows, d_rows = kernels.conv_backward(x, wa, wb, best_j, d_a, d_b, stride)
        want_rows, want = _conv_backward_rows_2d(x, wa, wb, best_j, d_a, d_b, stride)
        np.testing.assert_array_equal(rows, want_rows)
        assert d_rows.dtype == want.dtype and d_rows.tobytes() == want.tobytes()

        tokens = rng.integers(0, 257 if case % 2 else 3, size=rows.size).astype(np.int32)
        for table in (
            np.zeros((257, e), dtype=np.float32),
            _with_negative_zeros(rng, rng.standard_normal((257, e), dtype=np.float32)),
            np.asfortranarray(rng.standard_normal((257, e), dtype=np.float32)),
        ):
            want = _row_scatter_2d(table, tokens, d_rows)
            kernels.embedding_scatter(tokens, d_rows, table)
            assert table.tobytes() == want.tobytes()


def test_zero_runs_examples():
    data = np.frombuffer(bytes([1, 0, 0, 0, 2, 0]), dtype=np.uint8)
    starts, ends = kernels.zero_runs(data)
    assert list(zip(starts, ends)) == [(1, 4), (5, 6)]
    s, e = kernels.zero_runs(np.zeros(7, dtype=np.uint8))
    assert list(zip(s, e)) == [(0, 7)]
    s, e = kernels.zero_runs(np.full(7, 3, dtype=np.uint8))
    assert len(s) == 0
    s, e = kernels.zero_runs(np.empty(0, dtype=np.uint8))
    assert len(s) == 0


def test_zero_runs_matches_naive_on_random_arrays():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(0, 300))
        # weighted toward zeros so runs are dense
        data = rng.integers(0, 3, size=n, dtype=np.uint8)
        starts, ends = kernels.zero_runs(data)
        assert list(zip(starts.tolist(), ends.tolist())) == naive_zero_runs(data.tobytes())
