"""Black-box attacks: GA mechanics, oracles, and the structural contracts
of the four file transformations.

Attack payload content is GA-chosen and opaque; the tests pin what must
hold regardless: re-parseability, size accounting, payload spans, and
byte-exact recovery of the original outside declared edits.
"""

import numpy as np
import pytest

from _oracles import (
    bytes_match_outside,
    insertion_recovers,
    padding_recovers,
    sca_windows,
    window_stack,
    windows_touching,
)
from chunksmooth import attacks, kernels, neural, pe, smoothing
from chunksmooth.ablation import AblationConfig, sca_starts
from chunksmooth.attacks import (
    CavesConfig,
    DetectorOracle,
    GaConfig,
    GammaConfig,
    PaddingConfig,
    ShiftConfig,
    attack_caves,
    attack_gamma,
    attack_padding,
    attack_shift,
    ga_optimize,
    make_oracle,
)
from chunksmooth.corpus import LABEL_BENIGN, LABEL_MALICIOUS
from chunksmooth.errors import (
    AlignmentUnsatisfiable,
    CapUnsatisfiable,
    ConfigInvalid,
    NoCavesAndNoGapPossible,
    NoSlackAndNoPadAllowed,
    OracleFailure,
    SectionTableFull,
)

MAL = (1.0, LABEL_MALICIOUS)


def _hostile_oracle():
    """Never lets anything through: attacks run their whole GA budget."""
    return DetectorOracle(lambda data: MAL)


def _tiny_ga(**kw):
    kw.setdefault("population", 4)
    kw.setdefault("generations", 3)
    kw.setdefault("seed", 0)
    return GaConfig(**kw)


def _victim(n_sections=3, alignment=512, cave=False):
    """A small well-formed file with real slack; optionally a planted cave."""
    rng = np.random.default_rng(17)
    specs = []
    for i in range(n_sections):
        body = rng.integers(1, 256, size=600 + 100 * i, dtype=np.uint8).tobytes()
        if cave and i == 0:
            body = body[:200] + bytes(80) + body[280:]
        specs.append(pe.SectionSpec(name=f".s{i}", content=body))
    return pe.build_pe(specs, file_alignment=alignment)


# -- genetic optimizer ---------------------------------------------------------


def test_ga_runs_full_budget_against_hostile_oracle():
    oracle = _hostile_oracle()
    cfg = GaConfig(population=6, generations=9, seed=1)
    res = ga_optimize(oracle, 16, lambda g: g.tobytes(), cfg)
    assert not res.evaded
    assert res.generations_run == 9
    assert res.queries == 54
    assert res.queries == oracle.query_count
    assert res.best_score == 1.0
    np.testing.assert_array_equal(res.chosen_genome, res.best_genome)


def test_ga_stops_on_first_benign_generation():
    oracle = DetectorOracle(lambda data: (0.0, LABEL_BENIGN))
    cfg = GaConfig(population=5, generations=50, seed=2)
    res = ga_optimize(oracle, 8, lambda g: g.tobytes(), cfg)
    assert res.evaded
    assert res.generations_run == 1
    assert res.queries == 5  # the stopping generation is still fully evaluated
    assert oracle.query_count == 5


def test_ga_minimizes_mean_byte_value():
    # toy objective: normalized mean byte value, never benign, so any
    # progress below the ~0.5 random baseline is optimization alone
    def fn(data: bytes):
        arr = np.frombuffer(data, dtype=np.uint8)
        return float(arr.mean()) / 255.0, LABEL_MALICIOUS

    oracle = DetectorOracle(fn)
    cfg = GaConfig(population=10, generations=50, p_solution_mut=0.9, p_gene_mut=0.3, seed=9)
    res = ga_optimize(oracle, 32, lambda g: g.tobytes(), cfg)
    assert res.queries == 500
    assert res.best_score <= 0.4, f"GA failed to optimize: {res.best_score}"
    assert res.best_score == float(res.best_genome.mean()) / 255.0


def test_ga_is_deterministic():
    def fn(data: bytes):
        return float(sum(data)) / (255 * len(data)), LABEL_MALICIOUS

    cfg = GaConfig(population=6, generations=10, seed=33)
    r1 = ga_optimize(DetectorOracle(fn), 12, lambda g: g.tobytes(), cfg)
    r2 = ga_optimize(DetectorOracle(fn), 12, lambda g: g.tobytes(), cfg)
    assert r1.best_score == r2.best_score
    np.testing.assert_array_equal(r1.best_genome, r2.best_genome)


@pytest.mark.parametrize(
    "make",
    [
        lambda: PaddingConfig(n_pad=-5),
        lambda: ShiftConfig(extension=0),
        lambda: ShiftConfig(extension=-4096),
        lambda: GammaConfig(n_sections=0),
        lambda: GammaConfig(size_cap=0.99),
        lambda: GammaConfig(size_cap=float("nan")),
        lambda: CavesConfig(min_cave_len=0),
        lambda: CavesConfig(max_units_per_cave=-1),
        lambda: CavesConfig(size_cap=0.5),
    ],
    ids=["n_pad", "extension-0", "extension-neg", "n_sections", "gamma-size_cap", "gamma-size_cap-nan",
         "min_cave_len", "max_units_per_cave", "caves-size_cap"],
)
def test_attack_configs_range_check_their_knobs(make):
    with pytest.raises(ConfigInvalid):
        make()


def test_ga_config_validation():
    with pytest.raises(ConfigInvalid):
        GaConfig(population=1)
    with pytest.raises(ConfigInvalid):
        GaConfig(generations=0)
    with pytest.raises(ConfigInvalid):
        GaConfig(p_solution_mut=1.5)
    with pytest.raises(ConfigInvalid):
        GaConfig(p_gene_mut=-0.1)


# -- oracles -----------------------------------------------------------------------


def test_oracle_counts_queries_and_rejects_non_finite():
    oracle = DetectorOracle(lambda data: (0.25, LABEL_BENIGN))
    assert oracle.query_count == 0
    for i in range(3):
        oracle(b"x")
    assert oracle.query_count == 3

    bad = DetectorOracle(lambda data: (float("nan"), LABEL_MALICIOUS))
    with pytest.raises(OracleFailure):
        bad(b"x")
    inf = DetectorOracle(lambda data: (float("inf"), LABEL_MALICIOUS))
    with pytest.raises(OracleFailure):
        inf(b"x")


def test_make_oracle_matches_direct_predictions():
    """Every detector's oracle gives the direct prediction's score and
    label, query after query, through the scorer it keeps: ns on a file, an
    unchanged repeat, a file shorter than the conv window and a return to
    the first; each vote detector on a file, an unchanged repeat, an edited
    copy and a return to the first, so no state of one query leaks into
    the next (rca's starts change with the edit and come back with the
    return)."""
    params = neural.init_params(neural.PROFILES["desk"], seed=20)
    data = bytes(np.random.default_rng(20).integers(0, 256, size=2048, dtype=np.uint8))
    edited = data[:1000] + bytes([(data[1000] + 1) % 256]) + data[1001:]
    short = data[: params.profile.window - 1]

    ns = make_oracle(params, smoothing.DetectorSpec(kind="ns"))
    for query in (data, data, short, data):
        score, label = ns(query)
        plain = smoothing.predict_plain(params, query)
        assert (score, label) == (plain.score, plain.label)
    assert ns.query_count == 4

    for kind in ("sca", "rca", "rs"):
        spec = smoothing.DetectorSpec(kind=kind, ablation=AblationConfig(scheme=kind, p=0.05, n_views=20))
        vote = make_oracle(params, spec)
        for query in (data, data, edited, data):
            score, label = vote(query)
            pred = smoothing.predict_smoothed(params, spec, query)
            assert score == pred.probabilities[LABEL_MALICIOUS]
            assert label == pred.label
        assert vote.query_count == 4


def _fresh_scores(params, cfg, data):
    """Every sca view of data scored afresh, as one forward_scores call on
    the stack of the oracle's windows."""
    return neural.forward_scores(params, window_stack(data, sca_windows(len(data), cfg)))


def _edit_views(data, g, rows, rng):
    """Change one byte inside each of the tiling windows [r*g, (r+1)*g)."""
    out = bytearray(data)
    for r in rows:
        i = r * g + int(rng.integers(0, g))
        out[i] = (out[i] + 1) % 256
    return bytes(out)


@pytest.mark.parametrize("columns", [1, 2, 5, 19, 33])
def test_view_scores_rescoring_matches_full_stack(columns):
    """For change masks of every size, rescoring only the conv columns
    whose window covers a changed byte gives the scores of the whole
    stack, bitwise.  At L=20 and p=0.05 the windows tile the file, so
    editing one byte in each of k windows changes exactly k views, and
    one column of each."""
    params = neural.init_params(neural.PROFILES["desk"], seed=21)
    rng = np.random.default_rng(columns)
    L, g = 20, 64 * columns + 7
    cfg = AblationConfig(scheme="sca", p=0.05, n_views=L)
    data = rng.integers(0, 256, size=L * g, dtype=np.uint8).tobytes()
    assert [w.start for w in sca_windows(len(data), cfg)] == [i * g for i in range(L)]
    scores = smoothing.view_scorer(params, smoothing.DetectorSpec(kind="sca", ablation=cfg))
    np.testing.assert_array_equal(_view_scores(scores, data), _fresh_scores(params, cfg, data))
    for k in list(range(1, L + 1)) * 2:
        data = _edit_views(data, g, rng.choice(L, size=k, replace=False), rng)
        got = _view_scores(scores, data)
        np.testing.assert_array_equal(got, _fresh_scores(params, cfg, data))
    np.testing.assert_array_equal(_view_scores(scores, data), got)  # nothing changed


def test_view_scores_rescoring_matches_full_stack_across_blocks():
    """A stack over the block budget (100 desk views of 93 columns, blocks
    of 88 and 12 views): the first call and every rescoring, down to one
    changed view and up to a rescored set that is blocked itself, give the
    bits of one forward_scores call on the whole stack.  At p=0.01 the 100
    windows tile the file."""
    params = neural.init_params(neural.PROFILES["desk"], seed=22)
    rng = np.random.default_rng(22)
    L, g = 100, 6000
    cfg = AblationConfig(scheme="sca", p=0.01, n_views=L)
    data = rng.integers(0, 256, size=L * g, dtype=np.uint8).tobytes()
    assert neural.view_blocks(params.profile, L, g) == [0, 88, 100]
    scores = smoothing.view_scorer(params, smoothing.DetectorSpec(kind="sca", ablation=cfg))
    np.testing.assert_array_equal(_view_scores(scores, data), _fresh_scores(params, cfg, data))
    for k in (1, 12, 50, 89, 100):
        data = _edit_views(data, g, rng.choice(L, size=k, replace=False), rng)
        np.testing.assert_array_equal(_view_scores(scores, data), _fresh_scores(params, cfg, data))


def _view_scores(scorer, data):
    """All L view scores a view_scorer gives for data, its blocks joined."""
    return np.concatenate(list(scorer(data)[0]))


def _rescored_cells(monkeypatch):
    """Record the window starts of every conv_pair_views call: one list
    per GEMM."""
    seen = []
    conv_pair_views = kernels.conv_pair_views

    def recording(x, starts, *args):
        seen.append(starts.tolist())
        return conv_pair_views(x, starts, *args)

    monkeypatch.setattr(kernels, "conv_pair_views", recording)
    return seen


def _cells(profile, starts, g):
    """Window start of every (view, column) cell, view-major."""
    columns = neural.view_columns(profile, g)
    return [s + profile.stride * k for s in starts for k in range(columns)]


def _touching_cells(cells, window, runs):
    """Indices of the cells whose window [c, c+window) meets one of runs."""
    return [i for i, c in enumerate(cells) if any(c < b and c + window > a for a, b in runs)]


def _padded(cells, touched):
    """touched, padded with the first other cells up to MIN_RESCORE_COLUMNS."""
    pad = neural.MIN_RESCORE_COLUMNS - len(touched)
    if pad <= 0:
        return touched
    return sorted(touched + [i for i in range(len(cells)) if i not in touched][:pad])


def test_view_scores_rescores_exactly_the_windows_covering_an_edit(monkeypatch):
    """Two disjoint edited runs in a file whose L=100 windows overlap: the
    cells rescored, in one GEMM, are the (view, column) windows touching
    either run, padded to MIN_RESCORE_COLUMNS cells when there are fewer,
    and the scores are bitwise those of a fresh score.  A query equal to
    the previous one rescores nothing."""
    params = neural.init_params(neural.PROFILES["desk"], seed=23)
    pr = params.profile
    rng = np.random.default_rng(23)
    cfg = AblationConfig(scheme="sca", p=0.05, n_views=100)
    data = rng.integers(0, 256, size=40_000, dtype=np.uint8).tobytes()
    windows = sca_windows(len(data), cfg)
    cells = _cells(pr, [w.start for w in windows], len(windows[0]))
    scores = smoothing.view_scorer(params, smoothing.DetectorSpec(kind="sca", ablation=cfg))
    seen = _rescored_cells(monkeypatch)
    _view_scores(scores, data)
    padded = 0
    for runs in (((3000, 3010), (31_000, 31_500)), ((0, 400), (39_600, 40_000)), ((10_000, 10_001), (20_000, 20_002))):
        edited = bytearray(data)
        for a, b in runs:
            edited[a:b] = bytes((x + 1) % 256 for x in edited[a:b])
        data = bytes(edited)
        seen.clear()
        got = _view_scores(scores, data)
        np.testing.assert_array_equal(got, _fresh_scores(params, cfg, data))
        touched = _touching_cells(cells, pr.window, runs)
        views = set(windows_touching(windows, runs[0])) | set(windows_touching(windows, runs[1]))
        assert {i // neural.view_columns(pr, len(windows[0])) for i in touched} <= views
        assert seen == [[cells[i] for i in _padded(cells, touched)]]
        padded += len(touched) < neural.MIN_RESCORE_COLUMNS
    assert padded  # at least one edit touched fewer cells than the floor
    seen.clear()
    np.testing.assert_array_equal(_view_scores(scores, data), got)
    assert seen == []


def test_view_scores_scores_a_query_of_another_length_afresh():
    """A query of another length has other windows: it is scored afresh,
    and so is the query after it, back at the first length."""
    params = neural.init_params(neural.PROFILES["desk"], seed=24)
    rng = np.random.default_rng(24)
    cfg = AblationConfig(scheme="sca", p=0.05, n_views=100)
    data = rng.integers(0, 256, size=20_000, dtype=np.uint8).tobytes()
    scores = smoothing.view_scorer(params, smoothing.DetectorSpec(kind="sca", ablation=cfg))
    for query in (data, data + bytes(64), data[:-1] + b"x", data[:5000], data):
        np.testing.assert_array_equal(_view_scores(scores, query), _fresh_scores(params, cfg, query))


def _fresh_view_scores(params, spec, data):
    """The view scores of data as the fresh predictions give them: ns's
    predict_plain score, or sca's from a fresh view_scorer."""
    if spec.kind == "ns":
        return np.array([smoothing.predict_plain(params, data).score])
    return _view_scores(smoothing.view_scorer(params, spec), data)


def _spec(kind):
    if kind == "ns":
        return smoothing.DetectorSpec(kind="ns")
    return smoothing.DetectorSpec(kind="sca", ablation=AblationConfig(scheme="sca", p=0.05, n_views=100))


@pytest.mark.parametrize("profile", ["desk", "original"])
@pytest.mark.parametrize("kind", ["ns", "sca"])
def test_column_scores_match_fresh_predictions_query_by_query(monkeypatch, kind, profile):
    """The first query, an unchanged one, a one-byte edit (one conv column
    per covering view, so the floor pads the rescored set), an edit of
    many columns, a change of length, a file too short for a stateful
    score, and a return to the first length: every score is bitwise the
    fresh prediction's, and every GEMM holds MIN_RESCORE_COLUMNS cells or
    all of them."""
    params = neural.init_params(neural.PROFILES[profile], seed=25)
    pr = params.profile
    spec = _spec(kind)
    rng = np.random.default_rng(25)
    data = rng.integers(0, 256, size=60_000, dtype=np.uint8).tobytes()
    one_byte = data[:30_000] + bytes([(data[30_000] + 1) % 256]) + data[30_001:]
    many = bytes(rng.integers(0, 256, size=20_000, dtype=np.uint8)) + one_byte[20_000:]
    short = data[: pr.window - 1] if kind == "ns" else data[: 20 * (pr.window - 1)]  # g = window - 1 at p=0.05
    assert kind == "ns" or sca_starts(len(short), spec.ablation)[1] == pr.window - 1
    scores = smoothing.view_scorer(params, spec)
    seen = _rescored_cells(monkeypatch)
    for i, query in enumerate((data, data, one_byte, many, data + bytes(7), short, data)):
        seen.clear()
        got = _view_scores(scores, query)
        gemms = [len(s) for s in seen]
        np.testing.assert_array_equal(got, _fresh_view_scores(params, spec, query))
        if i == 1:
            assert gemms == []
        if i == 2:
            assert gemms == [neural.MIN_RESCORE_COLUMNS]
        assert all(n >= neural.MIN_RESCORE_COLUMNS for n in gemms)


def _big_victim():
    """A file of about 40 KB: sca views of 31 conv columns at p=0.05."""
    rng = np.random.default_rng(23)
    specs = [
        pe.SectionSpec(name=f".s{i}", content=rng.integers(0, 256, size=13000, dtype=np.uint8).tobytes())
        for i in range(3)
    ]
    return pe.build_pe(specs, file_alignment=512)


@pytest.mark.parametrize("profile", ["desk", "original"])
@pytest.mark.parametrize("kind", ["ns", "sca"])
@pytest.mark.parametrize("victim", [_victim, _big_victim])
def test_column_scores_match_fresh_predictions_over_ga_runs(kind, profile, victim):
    """Every query of padding and shift GA runs, at two file sizes and on
    both profiles, scores bitwise as a fresh prediction does."""
    params = neural.init_params(neural.PROFILES[profile], seed=26)
    params.fc_b[:] = 5.0  # every view votes malicious: the GA spends its whole budget
    spec = _spec(kind)
    data, _ = victim()
    ga = _tiny_ga(population=6, generations=4, seed=4)
    for attack, cfg in (
        (attack_padding, PaddingConfig(n_pad=2000, ga=ga)),
        (attack_shift, ShiftConfig(extension=1024, ga=ga)),
    ):
        scores = smoothing.view_scorer(params, spec)
        checked = []

        def fn(query):
            got = _view_scores(scores, query)
            np.testing.assert_array_equal(got, _fresh_view_scores(params, spec, query))
            checked.append(query)
            return MAL

        attack(data, DetectorOracle(fn), cfg)
        assert len(checked) == 24


def _campaigns_match(params, spec, fresh, victim):
    """Padding and shift campaigns give the same results through the
    rescoring oracle as through one that predicts every query afresh
    with fresh(data) -> (score, label)."""
    data, _ = victim()
    ga = _tiny_ga(population=6, generations=4, seed=3)
    for attack, cfg in (
        (attack_padding, PaddingConfig(n_pad=2000, ga=ga)),
        (attack_shift, ShiftConfig(extension=1024, ga=ga)),
    ):
        rescoring = make_oracle(params, spec)
        got = attack(data, rescoring, cfg)
        want = attack(data, DetectorOracle(fresh), cfg)
        assert got == want
        assert not got.evaded
        assert rescoring.query_count == got.queries


@pytest.mark.parametrize("victim", [_victim, _big_victim])
def test_rescoring_oracle_attacks_match_predict_smoothed(victim):
    """The sca oracle's campaigns are those of predict_smoothed."""
    params = neural.init_params(neural.PROFILES["desk"], seed=22)
    params.fc_b[:] = 0.15  # nearly every view votes malicious: the GA spends its whole budget
    spec = _spec("sca")

    def fresh(data):
        pred = smoothing.predict_smoothed(params, spec, data)
        return pred.probabilities[LABEL_MALICIOUS], pred.label

    _campaigns_match(params, spec, fresh, victim)


@pytest.mark.parametrize("victim", [_victim, _big_victim])
def test_rescoring_oracle_attacks_match_predict_plain(victim):
    """The ns oracle's campaigns are those of predict_plain."""
    params = neural.init_params(neural.PROFILES["desk"], seed=22)
    params.fc_b[:] = 5.0  # the plain score stays malicious: the GA spends its whole budget

    def fresh(data):
        pred = smoothing.predict_plain(params, data)
        return pred.score, pred.label

    _campaigns_match(params, _spec("ns"), fresh, victim)


# -- padding -----------------------------------------------------------------------


def test_padding_rewrites_slack_and_appends():
    data, plan = _victim()
    layout = pe.parse_pe(data)
    assert layout.slack_regions  # the fixture must actually have slack
    res = attack_padding(data, _hostile_oracle(), PaddingConfig(n_pad=300, ga=_tiny_ga()))
    assert res.attack == "padding"
    assert len(res.adversarial) == len(data) + 300
    assert res.payload_spans == tuple(layout.slack_regions) + ((len(data), len(data) + 300),)
    assert padding_recovers(data, res.adversarial, res.payload_spans, 300)
    # geometry untouched: same sections at the same offsets
    adv_layout = pe.parse_pe(res.adversarial)
    assert adv_layout.sections == layout.sections
    assert adv_layout.overlay_start == layout.overlay_start
    assert res.size_ratio == len(res.adversarial) / len(data)
    assert res.queries == 12


def test_padding_slack_only_when_n_pad_zero():
    data, _ = _victim()
    layout = pe.parse_pe(data)
    res = attack_padding(data, _hostile_oracle(), PaddingConfig(n_pad=0, ga=_tiny_ga()))
    assert len(res.adversarial) == len(data)
    assert res.payload_spans == tuple(layout.slack_regions)
    assert padding_recovers(data, res.adversarial, res.payload_spans, 0)


def test_padding_without_slack_or_overlay_is_an_error():
    data, _ = _victim(alignment=1)  # alignment 1: no zero tails at all
    assert pe.parse_pe(data).slack_regions == ()
    with pytest.raises(NoSlackAndNoPadAllowed):
        attack_padding(data, _hostile_oracle(), PaddingConfig(n_pad=0, ga=_tiny_ga()))
    # appended payload alone is fine
    res = attack_padding(data, _hostile_oracle(), PaddingConfig(n_pad=64, ga=_tiny_ga()))
    assert len(res.adversarial) == len(data) + 64


# -- shift -------------------------------------------------------------------------


def test_shift_inserts_aligned_gap_and_patches_offsets():
    data, _ = _victim()
    layout = pe.parse_pe(data)
    insert_at = min(s.raw_offset for s in layout.sections)
    res = attack_shift(data, _hostile_oracle(), ShiftConfig(extension=100, ga=_tiny_ga()))
    ext = 512  # 100 rounded up to the file alignment
    assert len(res.adversarial) == len(data) + ext
    assert res.payload_spans == ((insert_at, insert_at + ext),)

    adv_layout = pe.parse_pe(res.adversarial)
    assert adv_layout.size_of_headers == layout.size_of_headers + ext
    for old, new in zip(layout.sections, adv_layout.sections):
        assert new.raw_offset == old.raw_offset + ext
        assert new.raw_size == old.raw_size
        assert new.name == old.name
    assert pe.section_contents(res.adversarial, adv_layout) == pe.section_contents(data, layout)

    # deleting the gap must reproduce the original outside the patched
    # u32 header fields (size_of_headers + each entry's raw offset)
    recovered = insertion_recovers(data, res.adversarial, res.payload_spans)
    exempt = [(layout.opt_header_offset + 60, layout.opt_header_offset + 64)]
    for i in range(layout.num_sections):
        off = layout.section_entry_offset(i) + 20
        exempt.append((off, off + 4))
    assert bytes_match_outside(recovered, data, exempt)


def test_shift_rejects_bad_configs():
    data, _ = _victim()
    with pytest.raises(ConfigInvalid):
        attack_shift(data, _hostile_oracle(), ShiftConfig(extension=0, ga=_tiny_ga()))
    zero_align, _ = _victim(alignment=0)
    with pytest.raises(AlignmentUnsatisfiable):
        attack_shift(zero_align, _hostile_oracle(), ShiftConfig(extension=64, ga=_tiny_ga()))


# -- benign-section injection ----------------------------------------------------------


def _pool(rng, n=4):
    return [rng.integers(1, 256, size=int(rng.integers(200, 800)), dtype=np.uint8).tobytes() for _ in range(n)]


def test_gamma_appends_sections_from_the_pool():
    rng = np.random.default_rng(30)
    data, _ = _victim()
    layout = pe.parse_pe(data)
    pool = _pool(rng)
    cfg = GammaConfig(n_sections=3, size_cap=2.0, ga=_tiny_ga())
    res = attack_gamma(data, _hostile_oracle(), pool, cfg)

    adv_layout = pe.parse_pe(res.adversarial)
    assert adv_layout.num_sections == layout.num_sections + 3
    assert [s.name for s in adv_layout.sections[-3:]] == [".gm0", ".gm1", ".gm2"]
    assert res.size_ratio <= 2.0
    assert len(res.adversarial) <= 2.0 * len(data)
    # every injected payload is a verbatim prefix of some pool entry
    for s, e in res.payload_spans:
        payload = res.adversarial[s:e]
        assert any(entry[: len(payload)] == payload for entry in pool), payload[:16]
    # original section contents survive byte for byte
    assert (
        pe.section_contents(res.adversarial, adv_layout)[: layout.num_sections]
        == pe.section_contents(data, layout)
    )


def test_gamma_respects_cap_under_greedy_genomes():
    # tiny cap: the attack must clip payload sizes rather than overshoot
    rng = np.random.default_rng(31)
    data, _ = _victim()
    pool = [rng.integers(1, 256, size=30000, dtype=np.uint8).tobytes()]
    cfg = GammaConfig(n_sections=8, size_cap=1.3, ga=_tiny_ga(population=6, generations=2))
    res = attack_gamma(data, _hostile_oracle(), pool, cfg)
    assert len(res.adversarial) <= 1.3 * len(data)
    pe.parse_pe(res.adversarial)


def test_gamma_rejects_bad_inputs():
    data, _ = _victim()
    with pytest.raises(ConfigInvalid):
        attack_gamma(data, _hostile_oracle(), [], GammaConfig(ga=_tiny_ga()))
    with pytest.raises(ConfigInvalid):
        attack_gamma(data, _hostile_oracle(), [b"x" * 100], GammaConfig(n_sections=0, ga=_tiny_ga()))
    with pytest.raises(SectionTableFull):
        attack_gamma(
            data, _hostile_oracle(), [b"x" * 100], GammaConfig(n_sections=0xFFFF, ga=_tiny_ga())
        )
    with pytest.raises(CapUnsatisfiable):
        # cap 1.0 leaves no room even for the shifted table
        attack_gamma(
            data, _hostile_oracle(), [b"x" * 100], GammaConfig(n_sections=10, size_cap=1.0, ga=_tiny_ga())
        )


# -- code caves -------------------------------------------------------------------------


def test_caves_extends_planted_cave():
    data, _ = _victim(cave=True)
    layout = pe.parse_pe(data)
    assert layout.code_caves  # fixture sanity
    cfg = CavesConfig(min_cave_len=32, max_units_per_cave=2, ga=_tiny_ga())
    res = attack_caves(data, _hostile_oracle(), cfg)

    inserted = sum(e - s for s, e in res.payload_spans)
    assert len(res.adversarial) == len(data) + inserted
    assert len(res.adversarial) <= 2.0 * len(data)
    adv_layout = pe.parse_pe(res.adversarial)
    assert adv_layout.num_sections == layout.num_sections

    # removing the inserted blocks recovers the original outside the
    # patched size/offset fields of the section table
    recovered = insertion_recovers(data, res.adversarial, res.payload_spans)
    assert len(recovered) == len(data)
    exempt = []
    for i in range(layout.num_sections):
        off = layout.section_entry_offset(i)
        exempt.append((off + 16, off + 24))  # raw_size and raw_offset
    assert bytes_match_outside(recovered, data, exempt)

    # table arithmetic: sizes grow by insertions inside the section,
    # offsets shift by insertions before it
    total = 0
    for old_sec, new_sec in zip(layout.sections, adv_layout.sections):
        assert new_sec.raw_size >= old_sec.raw_size
        assert new_sec.raw_offset >= old_sec.raw_offset
        total += new_sec.raw_size - old_sec.raw_size
    assert total == inserted


def test_caves_zero_budget_is_identity():
    data, _ = _victim(cave=True)
    cfg = CavesConfig(min_cave_len=32, max_units_per_cave=0, ga=_tiny_ga())
    res = attack_caves(data, _hostile_oracle(), cfg)
    assert res.adversarial == data
    assert res.payload_spans == ()
    assert res.size_ratio == 1.0


def test_caves_without_caves_uses_intersection_gap():
    data, _ = _victim(n_sections=2, alignment=1)  # no slack, no zero runs
    layout = pe.parse_pe(data)
    assert layout.code_caves == ()
    cfg = CavesConfig(max_units_per_cave=3, ga=_tiny_ga())
    res = attack_caves(data, _hostile_oracle(), cfg)
    inserted = sum(e - s for s, e in res.payload_spans)
    assert len(res.adversarial) == len(data) + inserted
    pe.parse_pe(res.adversarial)


def test_caves_single_solid_section_is_an_error():
    data, _ = pe.build_pe([pe.SectionSpec(name=".one", content=b"\x01" * 500)], file_alignment=1)
    with pytest.raises(NoCavesAndNoGapPossible):
        attack_caves(data, _hostile_oracle(), CavesConfig(ga=_tiny_ga()))


def test_caves_rejects_zero_alignment():
    data, _ = _victim(alignment=0)
    with pytest.raises(AlignmentUnsatisfiable):
        attack_caves(data, _hostile_oracle(), CavesConfig(ga=_tiny_ga()))


def _with_file_alignment(data: bytes, alignment: int) -> bytes:
    buf = bytearray(data)
    pe.patch_u32(buf, pe.parse_pe(data).opt_header_offset + 36, alignment)  # the FileAlignment field
    return bytes(buf)


def test_attacks_refuse_file_alignment_above_64k():
    """FileAlignment sizes the shift gap and the caves genome, so a header
    claiming more than the format's 64 KiB maximum is refused before any
    genome is built."""
    data, _ = _victim(n_sections=1, cave=True)
    assert len(data) == 1536
    ga = _tiny_ga(population=2, generations=1)
    huge = _with_file_alignment(data, 0x20000)
    assert pe.parse_pe(huge).file_alignment == 0x20000
    with pytest.raises(AlignmentUnsatisfiable):
        attack_shift(huge, _hostile_oracle(), ShiftConfig(extension=16, ga=ga))
    with pytest.raises(AlignmentUnsatisfiable):
        attack_gamma(huge, _hostile_oracle(), [b"\x01" * 100], GammaConfig(n_sections=2, ga=ga))
    with pytest.raises(AlignmentUnsatisfiable):
        attack_caves(huge, _hostile_oracle(), CavesConfig(ga=ga))
    # the maximum itself is accepted
    res = attack_shift(_with_file_alignment(data, 0x10000), _hostile_oracle(), ShiftConfig(extension=16, ga=ga))
    assert [e - s for s, e in res.payload_spans] == [0x10000]


def test_caves_genome_is_sized_by_the_budget(monkeypatch):
    """The caves genome holds one gene per slot plus at most the growth
    budget, rounded down to whole units: a 1,536-byte file at the 64 KiB
    FileAlignment maximum gets no payload genes, where sizing by
    max_units_per_cave alone would give it over a million.  Under the
    budget, every slot can still take max_units_per_cave units."""
    lengths = []
    ga_optimize = attacks.ga_optimize

    def recording(oracle, genome_len, build, cfg):
        lengths.append(genome_len)
        return ga_optimize(oracle, genome_len, build, cfg)

    monkeypatch.setattr(attacks, "ga_optimize", recording)
    data, _ = _victim(n_sections=1, cave=True)
    n_slots = len(pe.parse_pe(data).code_caves)
    assert len(data) == 1536 and n_slots >= 1
    ga = _tiny_ga(population=2, generations=1)
    for alignment, size_cap, units, payload in (
        (0x10000, 2.0, 8, 0),  # budget 1,536 bytes: not one unit
        (512, 2.0, 8, 1536),  # budget 1,536 bytes: three units
        (512, 10.0, 2, n_slots * 2 * 512),  # budget 13,824 bytes: two units per slot
    ):
        lengths.clear()
        res = attack_caves(
            _with_file_alignment(data, alignment), _hostile_oracle(),
            CavesConfig(max_units_per_cave=units, size_cap=size_cap, ga=ga),
        )
        assert lengths == [n_slots + payload]
        assert len(res.adversarial) <= size_cap * len(data)


# -- cross-cutting ------------------------------------------------------------------------


def test_all_attacks_report_consistent_accounting():
    rng = np.random.default_rng(40)
    data, _ = _victim(cave=True)
    pool = _pool(rng)
    runs = [
        attack_padding(data, _hostile_oracle(), PaddingConfig(n_pad=128, ga=_tiny_ga())),
        attack_shift(data, _hostile_oracle(), ShiftConfig(extension=64, ga=_tiny_ga())),
        attack_gamma(data, _hostile_oracle(), pool, GammaConfig(n_sections=2, ga=_tiny_ga())),
        attack_caves(data, _hostile_oracle(), CavesConfig(max_units_per_cave=1, ga=_tiny_ga())),
    ]
    for res in runs:
        assert res.queries == 12  # population 4 x generations 3, no evasion
        assert not res.evaded
        assert res.size_ratio == pytest.approx(len(res.adversarial) / len(data))
        pe.parse_pe(res.adversarial)  # must stay a valid file
        for s, e in res.payload_spans:
            assert 0 <= s < e <= len(res.adversarial)
