"""Independent reference implementations the tests compare against.

Everything here is written straight-line against the documented math,
deliberately sharing no code with the package: naive loops instead of
vectorized kernels, dict counting instead of numpy, and so on.  When a
test disagrees with one of these, the burden of proof is on the package.
"""

from __future__ import annotations

import math

import numpy as np


# -- forward pass ----------------------------------------------------------------


def reference_forward(params, tokens) -> float:
    """Straight-line gated-conv forward: explicit loops, float64 math.

    Mirrors the documented architecture only: embed, two convolutions,
    sigmoid gate, global max per filter, affine, logistic.
    """
    pr = params.profile
    emb = np.asarray(params.emb, dtype=np.float64)
    wa = np.asarray(params.wa, dtype=np.float64)
    ba = np.asarray(params.ba, dtype=np.float64)
    wb = np.asarray(params.wb, dtype=np.float64)
    bb = np.asarray(params.bb, dtype=np.float64)
    fc_w = np.asarray(params.fc_w, dtype=np.float64)
    fc_b = float(params.fc_b[0])

    toks = [int(t) for t in tokens]
    while len(toks) < pr.window:
        toks.append(256)
    x = [emb[t] for t in toks]

    n_windows = (len(toks) - pr.window) // pr.stride + 1
    pooled = []
    for f in range(pr.n_filters):
        best = -math.inf
        for j in range(n_windows):
            a = ba[f]
            b = bb[f]
            for w in range(pr.window):
                for e in range(pr.emb_dim):
                    v = x[j * pr.stride + w][e]
                    a += wa[f, e, w] * v
                    b += wb[f, e, w] * v
            gated = a * (1.0 / (1.0 + math.exp(-b)))
            if gated > best:
                best = gated
        pooled.append(best)

    logit = sum(fc_w[f] * pooled[f] for f in range(pr.n_filters)) + fc_b
    return 1.0 / (1.0 + math.exp(-logit))


# -- finite-difference gradients ---------------------------------------------------


def fd_gradient_check(params, tokens, label, h=1e-4, rel_tol=1e-4, floor=1e-8):
    """Central finite differences against the analytic gradients.

    Returns (n_checked, worst_rel_err).  Raises AssertionError with the
    offending coordinate when any |g| > floor coordinate misses rel_tol.
    params must be float64.
    """
    from chunksmooth import neural

    cache = neural.forward(params, tokens)
    grads = neural.backward(params, cache, label)

    checked = 0
    worst = 0.0
    for name in neural.TENSOR_FIELDS:
        tensor = getattr(params, name)
        grad = grads[name]
        for idx in np.ndindex(tensor.shape):
            g = float(grad[idx])
            if abs(g) <= floor:
                continue
            orig = float(tensor[idx])
            tensor[idx] = orig + h
            up = neural.bce_loss(neural.forward(params, tokens).score, label)
            tensor[idx] = orig - h
            dn = neural.bce_loss(neural.forward(params, tokens).score, label)
            tensor[idx] = orig
            fd = (up - dn) / (2.0 * h)
            rel = abs(fd - g) / max(abs(fd), abs(g))
            worst = max(worst, rel)
            checked += 1
            assert rel < rel_tol, f"{name}{idx}: analytic {g:.6e} vs fd {fd:.6e} (rel {rel:.2e})"
    return checked, worst


# -- replaced fast paths ------------------------------------------------------------
#
# The forms the package used before its current kernels.  Each replacement
# is bitwise equal to these, so tests compare with assert_array_equal.


def masked_sigmoid(x):
    """Logistic through two boolean masks: 1/(1+exp(-x)) where x >= 0 and
    exp(x)/(1+exp(x)) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def dense_backward(params, cache, label):
    """Gradients of the BCE loss through a dense (t, e) input gradient,
    accumulated with np.add.at over the pooled positions and then
    scattered into the embedding table over every token of the input."""
    pr = params.profile
    dt = params.dtype
    f, e, w = params.wa.shape
    d_logit = dt.type(cache.score - label)
    d_h = d_logit * params.fc_w
    d_a = d_h * cache.gate_star
    d_b = d_h * cache.a_star * cache.gate_star * (1 - cache.gate_star)

    win = np.lib.stride_tricks.sliding_window_view(cache.x, w, axis=0)
    slices = win[cache.best_j * pr.stride]
    contrib = (d_a[:, None, None] * params.wa + d_b[:, None, None] * params.wb).transpose(0, 2, 1)
    pos = cache.best_j[:, None] * pr.stride + np.arange(w)[None, :]
    d_x = np.zeros_like(cache.x)
    np.add.at(d_x, pos.reshape(-1), contrib.reshape(f * w, e))
    d_emb = np.zeros_like(params.emb)
    np.add.at(d_emb, cache.tokens, d_x)
    return {
        "emb": d_emb,
        "wa": d_a[:, None, None] * slices,
        "ba": d_a.copy(),
        "wb": d_b[:, None, None] * slices,
        "bb": d_b.copy(),
        "fc_w": d_logit * cache.h,
        "fc_b": np.array([d_logit], dtype=dt),
    }


# -- voting -------------------------------------------------------------------------


def vote_oracle(scores):
    """Per-view hard votes at 0.5, one string per view."""
    return ["malicious" if s >= 0.5 else "benign" for s in scores]


def tally_oracle(scores):
    """Brute-force tally: per-view hard vote at 0.5, majority label with
    the malicious tie-break."""
    n_mal = 0
    n_ben = 0
    for s in scores:
        if s >= 0.5:
            n_mal += 1
        else:
            n_ben += 1
    total = n_mal + n_ben
    votes = {"benign": n_ben, "malicious": n_mal}
    probs = {"benign": n_ben / total, "malicious": n_mal / total}
    if n_mal > n_ben:
        label = "malicious"
    elif n_ben > n_mal:
        label = "benign"
    else:
        label = "malicious"  # documented tie rule
    return votes, probs, label


# -- geometry ------------------------------------------------------------------------


def naive_touch_count(windows, region):
    """Per-window intersection loop (the chunks_touching oracle)."""
    a, b = region
    count = 0
    for w in windows:
        lo = max(w.start, a)
        hi = min(w.stop, b)
        if hi > lo:
            count += 1
    return count


def sca_windows(file_len, cfg):
    """The package's sca placement as a list of byte ranges, one per view:
    the form the window-list checks below take."""
    from chunksmooth.ablation import sca_starts

    starts, g = sca_starts(file_len, cfg)
    return [range(s, s + g) for s in starts.tolist()]


def rca_windows(file_len, cfg, rng):
    """The package's rca placement as a list of byte ranges, one per view."""
    from chunksmooth.ablation import rca_starts

    starts, g = rca_starts(file_len, cfg, rng)
    return [range(s, s + g) for s in starts.tolist()]


def windows_touching(windows, region):
    """Indices of the windows with a non-empty intersection with [region),
    by a scan of the list: the reference count_touching is checked
    against."""
    a, b = region
    if b <= a:
        return []
    return [i for i, w in enumerate(windows) if w.start < b and w.stop > a]


def naive_zero_runs(data):
    """O(l) scan for maximal zero runs, returned as [(start, end)]."""
    runs = []
    start = None
    for i, byte in enumerate(data):
        if byte == 0:
            if start is None:
                start = i
        else:
            if start is not None:
                runs.append((start, i))
                start = None
    if start is not None:
        runs.append((start, len(data)))
    return runs


def naive_caves(data, sections, min_len):
    """Expected find_code_caves output: per-section zero runs >= min_len.

    sections: [(raw_offset, raw_size)] of the sections to scan.
    """
    caves = []
    for off, size in sections:
        for s, e in naive_zero_runs(data[off : off + size]):
            if e - s >= min_len:
                caves.append((off + s, off + e))
    return sorted(caves)


# -- certification --------------------------------------------------------------------


def exhaustive_flip_invariant(per_window_votes, touched_idx, max_enum=20):
    """Can any reassignment of the touched windows' votes change the label?

    per_window_votes: list of "malicious"/"benign" strings; touched_idx:
    indices of windows an edit could alter.  Votes are exchangeable
    within a class, so enumerating all subsets collapses to choosing how
    many touched malicious votes flip and how many touched benign votes
    flip.  Above max_enum touched windows, only the worst case is
    checked: every touched vote lands on the losing class.  Returns True
    when the label is invariant.
    """
    total = len(per_window_votes)
    n_mal = sum(1 for v in per_window_votes if v == "malicious")
    t_mal = sum(1 for i in touched_idx if per_window_votes[i] == "malicious")
    t_ben = len(touched_idx) - t_mal

    def label(nm):
        return "malicious" if nm >= total - nm else "benign"

    base = label(n_mal)
    if len(touched_idx) > max_enum:
        if base == "malicious":
            return label(n_mal - t_mal) == base
        return label(n_mal + t_ben) == base
    for i in range(t_mal + 1):  # malicious -> benign flips
        for j in range(t_ben + 1):  # benign -> malicious flips
            if label(n_mal - i + j) != base:
                return False
    return True


# -- metrics --------------------------------------------------------------------------


def metrics_oracle(tp, fp, tn, fn):
    total = tp + fp + tn + fn
    acc = (tp + tn) / total if total else 0.0
    denom = 2 * tp + fp + fn
    f1 = (2 * tp / denom) if denom else 0.0
    return acc, f1


# -- attack round-trips ----------------------------------------------------------------


def padding_recovers(original, adversarial, spans, n_pad):
    """Padding rewrites slack in place and appends n_pad bytes: outside the
    payload spans the first len(original) bytes must match, and the total
    growth must be exactly n_pad."""
    if len(adversarial) != len(original) + n_pad:
        return False
    editable = np.zeros(len(adversarial), dtype=bool)
    for s, e in spans:
        editable[s:e] = True
    a = np.frombuffer(adversarial[: len(original)], dtype=np.uint8)
    o = np.frombuffer(original, dtype=np.uint8)
    keep = ~editable[: len(original)]
    return bool(np.array_equal(a[keep], o[keep]))


def insertion_recovers(original, adversarial, spans):
    """For pure-insertion attacks (shift, caves): deleting the payload spans
    must reproduce the original everywhere except the patched section
    table fields, which the callers check arithmetically.  Returns the
    adversarial bytes with the spans removed."""
    keep = np.ones(len(adversarial), dtype=bool)
    for s, e in spans:
        keep[s:e] = False
    arr = np.frombuffer(adversarial, dtype=np.uint8)[keep]
    return arr.tobytes()


def bytes_match_outside(a, b, exempt_spans):
    """True when byte strings a and b (equal length) agree everywhere
    outside the exempt spans."""
    if len(a) != len(b):
        return False
    mask = np.ones(len(a), dtype=bool)
    for s, e in exempt_spans:
        mask[s:e] = False
    aa = np.frombuffer(a, dtype=np.uint8)
    bb = np.frombuffer(b, dtype=np.uint8)
    return bool(np.array_equal(aa[mask], bb[mask]))


# -- synthetic corpus bodies ---------------------------------------------------------

# The row-by-row body generator: three or four generator calls per 64-byte
# row.  corpus decodes the same bytes from one block of raw generator words;
# tests require the two to agree byte for byte and in generator state.


def _texture_row_loop(rng, lead, noise_fraction):
    row = np.empty(64, dtype=np.uint8)
    row[16:].reshape(12, 4)[:] = rng.integers(0x20, 0x40, size=4, dtype=np.uint8)
    row[:16] = lead
    if noise_fraction > 0.0:
        mask = rng.random(row.shape) < noise_fraction
        row[mask] = rng.integers(0, 256, size=int(mask.sum()), dtype=np.uint8)
    return row.tobytes()


def malicious_body_loop(rng, length, noise_fraction, motifs):
    n_caves = int(rng.integers(1, 4))
    cave_blocks = set(int(v) for v in rng.integers(2, max(3, length // 64 - 2), size=n_caves))
    out = bytearray()
    block = 0
    while len(out) < length:
        if block in cave_blocks:
            out += bytes(int(rng.integers(48, 129)))
        motif = motifs[int(rng.integers(0, len(motifs)))]
        out += _texture_row_loop(rng, np.frombuffer(motif, dtype=np.uint8), noise_fraction)
        block += 1
    del out[length:]
    if out[-1] == 0:
        out[-1] = 0x90
    return bytes(out)


def benign_body_loop(rng, length, noise_fraction):
    n_caves = int(rng.integers(1, 4))
    cave_blocks = set(int(v) for v in rng.integers(2, max(3, length // 64 - 2), size=n_caves))
    out = bytearray()
    structured = bool(rng.integers(0, 2))
    block = 0
    while len(out) < length:
        run_end = min(len(out) + int(rng.integers(2048, 6145)), length)
        if structured:
            while len(out) < run_end:
                if block in cave_blocks:
                    out += bytes(int(rng.integers(48, 129)))
                lead = rng.integers(0x20, 0x40, size=16, dtype=np.uint8)
                out += _texture_row_loop(rng, lead, noise_fraction)
                block += 1
        else:
            out += rng.integers(0, 256, size=run_end - len(out), dtype=np.uint8).tobytes()
        structured = not structured
    del out[length:]
    if out[-1] == 0:
        out[-1] = 0x2E
    return bytes(out)
