"""The benchmark's tracer wraps package functions by module attribute
(perfbench/spans.py); a rename in the package would break `--trace 1`
runs without failing anything else, so it is checked here."""

import importlib.util
from pathlib import Path

import numpy as np

from chunksmooth import attacks, neural, pe, smoothing
from chunksmooth.ablation import AblationConfig

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module_attributes(spans):
    return {mod: dict(vars(mod)) for mod in spans.PACKAGE_MODULES}


def _assert_restored(before):
    for mod, attrs in before.items():
        after = vars(mod)
        assert after.keys() == attrs.keys()
        changed = [k for k in attrs if after[k] is not attrs[k]]
        assert not changed, f"{mod.__name__}: {changed} not restored"


def test_traced_functions_exist_and_tracer_restores_them():
    spans = _load_spans()
    for module, attr, name in spans.TRACED:
        assert callable(getattr(module, attr, None)), f"{name}: {module.__name__}.{attr} is gone"
        assert name.split(".")[-1] == attr

    before = _module_attributes(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module, attr, name in spans.TRACED:
            assert getattr(module, attr) is not before[module][attr], f"{name} was not wrapped"
    finally:
        tracer.uninstall()
    _assert_restored(before)


def test_tracer_sees_one_forward_scores_call_per_block():
    """An rs prediction of L = REPLAY_EVERY desk views of 312 columns, one
    view per block, reaches the tracer as one self-contained
    forward_scores call per block: the views add up to L, the every-fourth
    replay of the embedding gather and gate/pool/head runs on a block, and
    the scores are those of the untraced run."""
    spans = _load_spans()
    L = spans.REPLAY_EVERY
    params = neural.init_params(neural.PROFILES["desk"], seed=4)
    data = np.random.default_rng(4).integers(0, 256, size=20_000, dtype=np.uint8).tobytes()
    spec = smoothing.DetectorSpec(kind="rs", ablation=AblationConfig(scheme="rs", p=0.05, n_views=L))
    assert len(neural.score_blocks(params.profile, L, len(data))) - 1 == spans.REPLAY_EVERY
    want = smoothing.predict_smoothed(params, spec, data)

    before = _module_attributes(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        got = smoothing.predict_smoothed(params, spec, data)
    finally:
        tracer.uninstall()
    _assert_restored(before)
    assert got == want
    calls = [s for s in tracer.spans if s["name"] == "neural.forward_scores"]
    assert len(calls) == spans.REPLAY_EVERY
    assert tracer.counts["views"] == L
    assert len(tracer.replay["embed_gather"]) == len(tracer.replay["gate_pool_head"]) == 1


def test_traced_runs_give_the_untraced_outputs():
    """sca and rca views are scored from the file and their starts, and
    ns and sca oracle queries from the conv columns they change, through
    functions the tracer does not wrap.  With the tracer installed, an sca
    predict_smoothed, an rca predict and 20 queries each of an sca and an
    ns padding oracle give the outputs of untraced runs."""
    spans = _load_spans()
    params = neural.init_params(neural.PROFILES["desk"], seed=5)
    params.fc_b[:] = 5.0  # every view votes malicious: the GA spends its whole budget
    rng = np.random.default_rng(5)
    data = rng.integers(0, 256, size=20_000, dtype=np.uint8).tobytes()
    victim, _ = pe.build_pe(
        [pe.SectionSpec(name=f".s{i}", content=rng.integers(1, 256, size=3000, dtype=np.uint8).tobytes()) for i in range(3)],
        file_alignment=512,
    )
    sca = smoothing.DetectorSpec(kind="sca", ablation=AblationConfig(scheme="sca", p=0.05, n_views=100))
    rca = smoothing.DetectorSpec(kind="rca", ablation=AblationConfig(scheme="rca", p=0.05, n_views=100))
    padding = attacks.PaddingConfig(n_pad=2000, ga=attacks.GaConfig(population=4, generations=5, seed=0))

    def run():
        return (
            smoothing.predict_smoothed(params, sca, data),
            smoothing.predict(params, rca, data),
            attacks.attack_padding(victim, attacks.make_oracle(params, sca), padding),
            attacks.attack_padding(victim, attacks.make_oracle(params, smoothing.DetectorSpec(kind="ns")), padding),
        )

    want = run()
    before = _module_attributes(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        got = run()
    finally:
        tracer.uninstall()
    _assert_restored(before)
    assert got == want
    assert got[2].queries == got[3].queries == 20
    assert tracer.counts["queries"] == 40


def test_traced_short_chunk_predictions_give_the_untraced_outputs():
    """Files of at most 1,260 bytes have sca and rca views shorter than
    the desk conv window.  Four traced predictions of each, enough for the
    tracer's every-fourth replay, give the outputs of untraced runs."""
    spans = _load_spans()
    params = neural.init_params(neural.PROFILES["desk"], seed=6)
    data = np.random.default_rng(6).integers(0, 256, size=1024, dtype=np.uint8).tobytes()
    specs = [
        smoothing.DetectorSpec(kind=kind, ablation=AblationConfig(scheme=kind, p=0.05, n_views=100, seed=seed))
        for kind in ("sca", "rca")
        for seed in range(spans.REPLAY_EVERY)
    ]

    def run():
        return [smoothing.predict_smoothed(params, spec, data) for spec in specs]

    want = run()
    before = _module_attributes(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        got = run()
    finally:
        tracer.uninstall()
    _assert_restored(before)
    assert got == want
