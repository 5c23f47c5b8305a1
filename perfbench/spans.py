"""Spans around the package's public functions, recorded from outside it.

A traced round replaces module attributes of the package with wrappers that
open a span, call the original and close the span; every module that bound
the same function object (``from .corpus import load_capped``) is patched
too, so calls made through an alias are seen.  Uninstalling restores the
originals, so untraced rounds run the package untouched.

Spans carry a parent link and the id of the root span (one ``cli.main``
call, the operation), are kept in memory and written as JSONL at the end.
A span's self time is its duration minus the durations of its children.

Work done only to measure (replaying steps that have no public function,
comparing views between GA queries) runs inside ``Tracer.paused``: the
tracer's clock stops while it runs, so the work shows in no span and in no
end-to-end figure of the traced run.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from chunksmooth import ablation, attacks, cli, corpus, harness, kernels, neural, pe, smoothing

PACKAGE_MODULES = (ablation, attacks, cli, corpus, harness, kernels, neural, pe, smoothing)

# (module that defines the function, attribute, span name)
TRACED = (
    (cli, "main", "cli.main"),
    (neural, "load_checkpoint", "neural.load_checkpoint"),
    (neural, "save_checkpoint", "neural.save_checkpoint"),
    (corpus, "load_capped", "corpus.load_capped"),
    (pe, "parse_pe", "pe.parse_pe"),
    (harness, "evaluate", "harness.evaluate"),
    (harness, "prediction_record", "harness.prediction_record"),
    (harness, "run_attack_campaign", "harness.run_attack_campaign"),
    (smoothing, "predict", "smoothing.predict"),
    (smoothing, "predict_plain", "smoothing.predict_plain"),
    (smoothing, "predict_smoothed", "smoothing.predict_smoothed"),
    (smoothing, "train_smoothed", "smoothing.train_smoothed"),
    (ablation, "make_views", "ablation.make_views"),
    (neural, "forward", "neural.forward"),
    (neural, "forward_scores", "neural.forward_scores"),
    (neural, "backward", "neural.backward"),
    (neural, "adam_step", "neural.adam_step"),
    (neural, "train_epoch", "neural.train_epoch"),
    (kernels, "conv_pair", "kernels.conv_pair"),
    (kernels, "conv_pair_many", "kernels.conv_pair_many"),
    (kernels, "conv_backward", "kernels.conv_backward"),
    (kernels, "embedding_scatter", "kernels.embedding_scatter"),
    (kernels, "zero_runs", "kernels.zero_runs"),
    (attacks, "make_oracle", "attacks.make_oracle"),
    (attacks, "ga_optimize", "attacks.ga_optimize"),
)


REPLAY_EVERY = 4


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._paused = 0.0
        self.counts: dict[str, float] = defaultdict(float)
        self.replay: dict[str, list[float]] = defaultdict(list)
        self._oracle_kind: dict[int, str] = {}
        self._views_prev: dict | None = None  # previous query's views of the sca oracle in flight
        self._installed: list[tuple[object, str, object]] = []
        self._conv_pair_many = kernels.conv_pair_many  # untraced, for replays
        self._forward_scores_calls = 0

    # -- clock and spans ----------------------------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "op": parent["op"] if parent else len(self.spans),
            "name": name,
            "start": self.now(),
            "end": None,
            "child": 0.0,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = self.now()
            self._stack.pop()
            if parent is not None:
                parent["child"] += rec["end"] - rec["start"]

    # -- installing wrappers --------------------------------------------------------

    def install(self) -> None:
        for module, attr, name in TRACED:
            original = getattr(module, attr)
            after = getattr(self, "_after_" + attr, None)
            wrapper = self._wrap(original, name, after)
            for mod in PACKAGE_MODULES:
                if getattr(mod, attr, None) is original:
                    self._installed.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def _wrap(self, original, name, after):
        tracer = self
        if name == "attacks.ga_optimize":
            return self._wrap_ga(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                with tracer.paused():
                    after(original, args, kwargs, result)
            return result

        return traced

    # -- per-call hooks (run with the clock stopped) -----------------------------------

    def _after_forward(self, original, args, kwargs, result):
        self.counts["views"] += 1
        self.counts["tokens"] += int(result.tokens.size)

    def _after_conv_pair(self, original, args, kwargs, result):
        self.counts["gemm_flop"] += _conv_flop(args[0].shape[0], args[1].shape, args[5])

    def _after_conv_pair_many(self, original, args, kwargs, result):
        xs = args[0]
        self.counts["gemm_flop"] += xs.shape[0] * _conv_flop(xs.shape[1], args[1].shape, args[5])

    def _after_forward_scores(self, original, args, kwargs, result):
        """Replay the two steps of a batched forward that have no public
        function: the embedding gather, timed directly, and gate/pool/head,
        timed as a replay of forward_scores with the conv answered from a
        precomputed result, minus the replayed pad/stack and gather.  Only
        every REPLAY_EVERY-th call is replayed: each replay allocates the
        call's whole working set again, which slows the calls after it."""
        params, token_arrays = args[0], args[1]
        pr = params.profile
        self.counts["views"] += len(token_arrays)
        self.counts["tokens"] += sum(max(t.size, pr.window) for t in token_arrays)
        self._forward_scores_calls += 1
        if self._forward_scores_calls % REPLAY_EVERY:
            return
        t0 = time.perf_counter()
        stacked = np.stack([_pad(t, pr.window) for t in token_arrays])
        t1 = time.perf_counter()
        xs = params.emb[stacked]
        t2 = time.perf_counter()
        self.replay["embed_gather"].append(t2 - t1)

        conv_many = kernels.conv_pair_many
        conv_out = self._conv_pair_many(xs, params.wa, params.ba, params.wb, params.bb, pr.stride)
        kernels.conv_pair_many = lambda *a, **k: conv_out
        try:
            t3 = time.perf_counter()
            original(params, token_arrays)
            t4 = time.perf_counter()
        finally:
            kernels.conv_pair_many = conv_many
        self.replay["gate_pool_head"].append(max((t4 - t3) - (t2 - t0), 0.0))

    def _after_make_oracle(self, original, args, kwargs, result):
        self._oracle_kind[id(result)] = args[1].kind

    def _after_make_views(self, original, args, kwargs, result):
        state = self._views_prev
        if state is None:
            return
        prev = state.get("views")
        self.counts["sca_views_scored"] += len(result)
        if prev is None or len(prev) != len(result):
            self.counts["sca_views_changed"] += len(result)
        else:
            self.counts["sca_views_changed"] += sum(
                1 for a, b in zip(prev, result) if not np.array_equal(a.tokens, b.tokens)
            )
        state["views"] = result

    def _wrap_ga(self, original):
        tracer = self

        @functools.wraps(original)
        def traced(oracle, genome_len, build, cfg):
            views_state = {"views": None} if tracer._oracle_kind.get(id(oracle)) == "sca" else None

            def query(data):
                tracer._views_prev = views_state
                try:
                    with tracer.span("attacks.oracle"):
                        return oracle(data)
                finally:
                    tracer._views_prev = None

            def traced_build(genome):
                with tracer.span("attacks.build"):
                    return build(genome)

            with tracer.span("attacks.ga_optimize"):
                result = original(query, genome_len, traced_build, cfg)
            tracer.counts["queries"] += result.queries
            tracer.counts["generations"] += result.generations_run
            tracer.counts["evaded"] += int(result.evaded)
            return result

        return traced

    # -- output -------------------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                dur = s["end"] - s["start"]
                fh.write(json.dumps({
                    "id": s["id"], "parent": s["parent"], "op": s["op"], "name": s["name"],
                    "start_ms": round(s["start"] * 1e3, 4), "dur_ms": round(dur * 1e3, 4),
                    "self_ms": round((dur - s["child"]) * 1e3, 4),
                }) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def _pad(tokens: np.ndarray, window: int) -> np.ndarray:
    if tokens.size >= window:
        return tokens
    return np.concatenate([tokens, np.full(window - tokens.size, ablation.ABLATE_TOKEN, dtype=tokens.dtype)])


def _conv_flop(t: int, w_shape: tuple, stride: int) -> int:
    """Multiply-adds of both conv GEMMs on one sequence of t positions, as flop."""
    f, e, w = w_shape
    j = (t - w) // stride + 1
    return 2 * 2 * j * e * w * f


# -- per-layer metrics --------------------------------------------------------------------


def _stats(spans: list[dict]):
    by_name: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        dur = s["end"] - s["start"]
        by_name[s["name"]].append((dur, dur - s["child"]))
    return by_name


def _mean_ms(values) -> float:
    return 1e3 * sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced rounds: mean per call for times,
    per round for counts."""
    st = _stats(tracer.spans)
    dur = lambda name: [d for d, _ in st.get(name, [])]
    own = lambda name: [s for _, s in st.get(name, [])]
    c = tracer.counts
    by_id = {s["id"]: s for s in tracer.spans}

    def under(span, ancestor_name):
        p = span["parent"]
        while p is not None:
            if by_id[p]["name"] == ancestor_name:
                return True
            p = by_id[p]["parent"]
        return False

    epochs = len(dur("neural.train_epoch"))
    validation = sum(
        s["end"] - s["start"] for s in tracer.spans
        if s["name"] == "smoothing.predict" and under(s, "smoothing.train_smoothed")
    )
    generations = c["generations"]
    ga_self = sum(own("attacks.ga_optimize"))
    return {
        "ablation.views_ms": (_mean_ms(dur("ablation.make_views")), "ms"),
        "neural.embed_gather_ms": (_mean_ms(tracer.replay["embed_gather"]), "ms"),
        "kernels.conv_pair_many_ms": (_mean_ms(dur("kernels.conv_pair_many")), "ms"),
        "kernels.conv_gemm_gflop": (c["gemm_flop"] / 1e9 / rounds, "GFLOP"),
        "neural.gate_pool_head_ms": (_mean_ms(tracer.replay["gate_pool_head"]), "ms"),
        "neural.views_scored": (c["views"] / rounds, "count"),
        "neural.tokens_scored": (c["tokens"] / rounds, "count"),
        "kernels.conv_pair_ms": (_mean_ms(dur("kernels.conv_pair")), "ms"),
        "smoothing.predict_smoothed_self_ms": (_mean_ms(own("smoothing.predict_smoothed")), "ms"),
        "harness.record_ms": (_mean_ms(own("harness.prediction_record")), "ms"),
        "cli.checkpoint_load_ms": (_mean_ms(dur("neural.load_checkpoint")), "ms"),
        "cli.overhead_ms": (_mean_ms(own("cli.main")), "ms"),
        "attacks.oracle_ms": (_mean_ms(dur("attacks.oracle")), "ms"),
        "attacks.build_ms": (_mean_ms(dur("attacks.build")), "ms"),
        "attacks.select_ms": (1e3 * ga_self / generations if generations else 0.0, "ms"),
        "attacks.queries": (c["queries"] / rounds, "count"),
        "attacks.generations": (generations / rounds, "count"),
        "attacks.evaded": (c["evaded"] / rounds, "count"),
        "attacks.views_changed_ratio": (
            c["sca_views_changed"] / c["sca_views_scored"] if c["sca_views_scored"] else 0.0, "ratio"
        ),
        "neural.forward_ms": (_mean_ms(dur("neural.forward")), "ms"),
        "neural.backward_ms": (_mean_ms(dur("neural.backward")), "ms"),
        "kernels.conv_backward_ms": (_mean_ms(dur("kernels.conv_backward")), "ms"),
        "kernels.embedding_scatter_ms": (_mean_ms(dur("kernels.embedding_scatter")), "ms"),
        "neural.adam_step_ms": (_mean_ms(dur("neural.adam_step")), "ms"),
        "smoothing.update_s_per_epoch": (sum(dur("neural.train_epoch")) / epochs if epochs else 0.0, "s"),
        "smoothing.validation_s_per_epoch": (validation / epochs if epochs else 0.0, "s"),
        "corpus.load_ms": (_mean_ms(dur("corpus.load_capped")), "ms"),
        "pe.parse_ms": (_mean_ms(dur("pe.parse_pe")), "ms"),
        "kernels.zero_runs_ms": (_mean_ms(dur("kernels.zero_runs")), "ms"),
    }


# -- kernel cases at fixed shapes --------------------------------------------------------


def kernel_cases(repeats: int = 20) -> dict[str, tuple[float, str]]:
    """Each hot kernel at desk-profile shapes on fixed random inputs, plus
    one smoothed prediction, as the median of `repeats` calls after one
    warm-up call."""
    rng = np.random.default_rng(0)
    desk = neural.PROFILES["desk"]
    f, e, w, s = desk.n_filters, desk.emb_dim, desk.window, desk.stride
    wa, wb = rng.standard_normal((2, f, e, w), dtype=np.float32)
    ba, bb = rng.standard_normal((2, f), dtype=np.float32)
    # one sca chunk of a 32 KiB file at p=0.05, and the whole file as ns sees it
    chunk = rng.standard_normal((1639, e), dtype=np.float32)
    full = rng.standard_normal((32768, e), dtype=np.float32)
    views = rng.standard_normal((100, 1639, e), dtype=np.float32)
    j = (full.shape[0] - w) // s + 1
    best_j = rng.integers(0, j, size=f).astype(np.int64)
    d_a, d_b = rng.standard_normal((2, f), dtype=np.float32)
    tokens = rng.integers(0, 257, size=32768, dtype=np.int32)
    d_x = rng.standard_normal((32768, e), dtype=np.float32)
    data = rng.integers(0, 256, size=65536, dtype=np.uint8)
    data[rng.random(65536) < 0.3] = 0
    params = neural.init_params(desk, seed=1)
    spec = smoothing.DetectorSpec(kind="sca", ablation=ablation.AblationConfig(scheme="sca", p=0.05, n_views=100))
    payload = rng.integers(0, 256, size=32768, dtype=np.uint8).tobytes()

    cases = {
        "case.conv_pair_chunk_ms": lambda: kernels.conv_pair(chunk, wa, ba, wb, bb, s),
        "case.conv_pair_file_ms": lambda: kernels.conv_pair(full, wa, ba, wb, bb, s),
        "case.conv_pair_many_ms": lambda: kernels.conv_pair_many(views, wa, ba, wb, bb, s),
        "case.conv_backward_file_ms": lambda: kernels.conv_backward(full, wa, wb, best_j, d_a, d_b, s),
        "case.embedding_scatter_file_ms": lambda: kernels.embedding_scatter(
            tokens, d_x, np.zeros((257, e), dtype=np.float32)
        ),
        "case.zero_runs_ms": lambda: kernels.zero_runs(data),
        "case.predict_smoothed_ms": lambda: smoothing.predict_smoothed(params, spec, payload),
    }
    out = {}
    for name, fn in cases.items():
        fn()
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        out[name] = (1e3 * statistics.median(samples), "ms")
    return out
