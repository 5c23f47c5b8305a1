"""Black-box attacks: GA mechanics, oracles, and the structural contracts
of the four file transformations.

Attack payload content is GA-chosen and opaque; the tests pin what must
hold regardless: re-parseability, size accounting, payload spans, and
byte-exact recovery of the original outside declared edits.
"""

import numpy as np
import pytest

from _oracles import bytes_match_outside, insertion_recovers, padding_recovers
from chunksmooth import attacks, neural, pe, smoothing
from chunksmooth.ablation import AblationConfig
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
    with pytest.raises(ConfigInvalid):
        GaConfig(population=4, elitism=5)


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
    params = neural.init_params(neural.PROFILES["desk"], seed=20)
    data = bytes(np.random.default_rng(20).integers(0, 256, size=2048, dtype=np.uint8))

    ns = make_oracle(params, smoothing.DetectorSpec(kind="ns"))
    score, label = ns(data)
    plain = smoothing.predict_plain(params, data)
    assert (score, label) == (plain.score, plain.label)

    spec = smoothing.DetectorSpec(
        kind="sca", ablation=AblationConfig(scheme="sca", p=0.05, n_views=20)
    )
    vote = make_oracle(params, spec)
    score, label = vote(data)
    pred = smoothing.predict_smoothed(params, spec, data)
    assert score == pred.probabilities[LABEL_MALICIOUS]
    assert label == pred.label

    soft_spec = smoothing.DetectorSpec(
        kind="sca",
        ablation=AblationConfig(scheme="sca", p=0.05, n_views=20),
        soft_scores=True,
    )
    soft = make_oracle(params, soft_spec)
    score, _ = soft(data)
    assert score == pred.mean_score


@pytest.mark.parametrize("columns", [1, 2, 5, 19, 33])
def test_view_scores_rescoring_matches_full_stack(columns):
    """For change masks of every size, rescoring only the changed rows
    gives the scores of the whole stack, bitwise."""
    params = neural.init_params(neural.PROFILES["desk"], seed=21)
    rng = np.random.default_rng(columns)
    L = 20
    stack = rng.integers(0, 257, size=(L, 64 * columns + 7)).astype(np.int32)
    scores = attacks.ViewScores(params)
    np.testing.assert_array_equal(scores(list(stack)), neural.forward_scores(params, stack))
    for k in list(range(1, L + 1)) * 2:
        rows = rng.choice(L, size=k, replace=False)
        cols = rng.integers(0, stack.shape[1], size=k)
        stack[rows, cols] = (stack[rows, cols] + 1) % 257
        got = scores(list(stack))
        np.testing.assert_array_equal(got, neural.forward_scores(params, stack))
    np.testing.assert_array_equal(scores(list(stack)), got)  # nothing changed
    # views of unequal length (verbatim sca windows clamped at the file end)
    ragged = [stack[0], stack[1, :-3]]
    np.testing.assert_array_equal(scores(ragged), neural.forward_scores(params, ragged))
    np.testing.assert_array_equal(scores(list(stack)), got)


def _big_victim():
    """A file of about 40 KB: sca views of 31 conv columns at p=0.05."""
    rng = np.random.default_rng(23)
    specs = [
        pe.SectionSpec(name=f".s{i}", content=rng.integers(0, 256, size=13000, dtype=np.uint8).tobytes())
        for i in range(3)
    ]
    return pe.build_pe(specs, file_alignment=512)


@pytest.mark.parametrize("soft", [False, True])
@pytest.mark.parametrize("victim", [_victim, _big_victim])
def test_rescoring_oracle_attacks_match_predict_smoothed(victim, soft):
    """Padding and shift campaigns give the same results through the
    rescoring oracle as through one that predicts every query afresh."""
    params = neural.init_params(neural.PROFILES["desk"], seed=22)
    params.fc_b[:] = 0.15  # nearly every view votes malicious: the GA spends its whole budget
    spec = smoothing.DetectorSpec(
        kind="sca", ablation=AblationConfig(scheme="sca", p=0.05, n_views=100), soft_scores=soft
    )

    def fresh_oracle():
        def fn(data):
            pred = smoothing.predict_smoothed(params, spec, data)
            return (pred.mean_score if soft else pred.probabilities[LABEL_MALICIOUS]), pred.label

        return DetectorOracle(fn)

    data, _ = victim()
    ga = _tiny_ga(population=6, generations=4, seed=3)
    for attack, cfg in (
        (attack_padding, PaddingConfig(n_pad=2000, ga=ga)),
        (attack_shift, ShiftConfig(extension=1024, ga=ga)),
    ):
        rescoring = make_oracle(params, spec)
        got = attack(data, rescoring, cfg)
        want = attack(data, fresh_oracle(), cfg)
        assert got == want
        assert not got.evaded
        assert rescoring.query_count == got.queries


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
