"""Black-box evasion attacks driven by one shared genetic optimizer.

Every attack maps a byte genome onto a structural edit of the input
file, scores candidates through a query-counting oracle, and minimizes
the maliciousness score.  The GA replaces gradient payload optimization
because vote-based detectors are not differentiable; using the same
optimizer against the plain detector keeps comparisons like-for-like.
An oracle (make_oracle) scores its queries through one
smoothing.view_scorer, which rescores only the conv columns a query
changed when its views' starts and length stay those of the query
before it.

Structural contracts every attack keeps:
* the adversarial file still parses;
* original section contents survive at their (possibly shifted) offsets;
* payload_spans point at the attacker-controlled bytes in the
  adversarial file's coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import pe, smoothing
from .errors import (
    AlignmentUnsatisfiable,
    CapUnsatisfiable,
    ConfigInvalid,
    NoCavesAndNoGapPossible,
    NoSlackAndNoPadAllowed,
    OracleFailure,
    SectionTableFull,
)
from .corpus import LABEL_BENIGN, LABEL_MALICIOUS
from .pe import PeLayout, align_up


class DetectorOracle:
    """Wraps a detector into a (score, label) callable with query accounting."""

    def __init__(self, fn):
        self._fn = fn
        self.query_count = 0

    def __call__(self, data: bytes) -> tuple[float, str]:
        self.query_count += 1
        score, label = self._fn(data)
        if not math.isfinite(score):
            raise OracleFailure(f"oracle produced score {score}")
        return float(score), label


def make_oracle(params, spec: smoothing.DetectorSpec) -> DetectorOracle:
    """Maliciousness score plus label, with the results of predict_plain
    (ns) and predict_smoothed, from the view scores of one
    smoothing.view_scorer kept across queries; for vote detectors the
    score is the malicious vote share.  A query that scores a view NaN or
    infinite raises NonFiniteScore, as the predictions do."""
    scores_of = smoothing.view_scorer(params, spec)

    def fn(data: bytes):
        scores = np.concatenate(list(scores_of(data)[0]))
        # ns is one view, whose vote is predict_plain's label
        _, probabilities, label = smoothing.tally_votes(scores)
        return (scores[0] if spec.kind == "ns" else probabilities[LABEL_MALICIOUS]), label

    return DetectorOracle(fn)


# -- genetic optimizer ---------------------------------------------------------


@dataclass(frozen=True)
class GaConfig:
    population: int = 10
    generations: int = 100
    p_solution_mut: float = 0.1
    p_gene_mut: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.population < 2:
            raise ConfigInvalid("population must be >= 2")
        if self.generations < 1:
            raise ConfigInvalid("generations must be >= 1")
        if not (0.0 <= self.p_solution_mut <= 1.0 and 0.0 <= self.p_gene_mut <= 1.0):
            raise ConfigInvalid("mutation probabilities must be in [0, 1]")


@dataclass
class GaResult:
    best_genome: np.ndarray
    best_score: float
    chosen_genome: np.ndarray  # the evading individual when one exists, else the best
    evaded: bool
    generations_run: int
    queries: int


def ga_optimize(oracle, genome_len: int, build, cfg: GaConfig) -> GaResult:
    """Generational GA over uint8 genomes, minimizing oracle score.

    Uniform random init, binary tournament selection, single-point
    crossover, per-solution mutation (each gene flipped to a uniform byte
    with probability p_gene_mut), elitism of one.  Every generation evaluates
    the whole population, so queries == population * generations_run.
    Stops after the first generation containing a benign-labeled
    individual, or at the generation cap.
    """
    rng = np.random.default_rng(cfg.seed)
    pop = rng.integers(0, 256, size=(cfg.population, genome_len), dtype=np.uint8)

    best_genome = None
    best_score = math.inf
    gens = 0
    evading = None
    for gen in range(1, cfg.generations + 1):
        gens = gen
        scores = np.empty(cfg.population)
        labels = []
        for i in range(cfg.population):
            s, lab = oracle(build(pop[i]))
            scores[i] = s
            labels.append(lab)
        gen_best = int(np.argmin(scores))  # first index wins ties
        if scores[gen_best] < best_score:
            best_score = float(scores[gen_best])
            best_genome = pop[gen_best].copy()
        benign_idx = [i for i, lab in enumerate(labels) if lab == LABEL_BENIGN]
        if benign_idx:
            evading = pop[min(benign_idx, key=lambda i: (scores[i], i))].copy()
            break
        if gen == cfg.generations:
            break
        nxt = [pop[gen_best].copy()]
        while len(nxt) < cfg.population:
            p1 = _tournament(rng, scores)
            p2 = _tournament(rng, scores)
            if genome_len >= 2:
                cut = int(rng.integers(1, genome_len))
                child = np.concatenate([pop[p1][:cut], pop[p2][cut:]])
            else:
                child = pop[p1].copy()
            if rng.random() < cfg.p_solution_mut:
                mask = rng.random(genome_len) < cfg.p_gene_mut
                child[mask] = rng.integers(0, 256, size=genome_len, dtype=np.uint8)[mask]
            nxt.append(child)
        pop = np.stack(nxt)

    return GaResult(
        best_genome=best_genome,
        best_score=best_score,
        chosen_genome=evading if evading is not None else best_genome,
        evaded=evading is not None,
        generations_run=gens,
        queries=cfg.population * gens,
    )


def _tournament(rng, scores) -> int:
    contenders = rng.integers(0, len(scores), size=2)
    return int(min(contenders, key=lambda i: (scores[i], i)))


# -- attack results --------------------------------------------------------------


@dataclass(frozen=True)
class AttackResult:
    attack: str
    adversarial: bytes
    evaded: bool
    queries: int
    payload_spans: tuple[tuple[int, int], ...]
    size_ratio: float
    best_score: float
    seed: int


def _run_ga(
    attack: str, data: bytes, oracle, genome_len: int, build_full, ga_cfg: GaConfig
) -> AttackResult:
    """Run the GA over genomes of genome_len bytes, which build_full turns
    into (adversarial bytes, payload spans), and give the attack's result
    for the genome it chose."""
    ga = ga_optimize(oracle, genome_len, lambda g: build_full(g)[0], ga_cfg)
    adv, spans = build_full(ga.chosen_genome)
    return AttackResult(
        attack=attack,
        adversarial=adv,
        evaded=ga.evaded,
        queries=ga.queries,
        payload_spans=tuple(spans),
        size_ratio=len(adv) / len(data),
        best_score=ga.best_score,
        seed=ga_cfg.seed,
    )


# -- slack + padding ---------------------------------------------------------------


@dataclass(frozen=True)
class PaddingConfig:
    n_pad: int = 10000
    optimize_slack: bool = True
    ga: GaConfig = field(default_factory=GaConfig)

    def __post_init__(self):
        if self.n_pad < 0:
            raise ConfigInvalid(f"n_pad must be >= 0, got {self.n_pad}")


def attack_padding(data: bytes, oracle, cfg: PaddingConfig) -> AttackResult:
    """Rewrite slack bytes and append an overlay payload, GA-optimized."""
    layout = pe.parse_pe(data)
    slack = layout.slack_regions if cfg.optimize_slack else ()
    slack_total = sum(e - s for s, e in slack)
    genome_len = slack_total + cfg.n_pad
    if genome_len == 0:
        raise NoSlackAndNoPadAllowed("no slack bytes available and n_pad is 0")

    def build_full(genome: np.ndarray):
        buf = bytearray(data)
        pos = 0
        for s, e in slack:
            buf[s:e] = genome[pos : pos + (e - s)].tobytes()
            pos += e - s
        buf += genome[pos:].tobytes()
        spans = list(slack) + ([(len(data), len(data) + cfg.n_pad)] if cfg.n_pad else [])
        return bytes(buf), spans

    return _run_ga("padding", data, oracle, genome_len, build_full, cfg.ga)


# -- shift -------------------------------------------------------------------------


@dataclass(frozen=True)
class ShiftConfig:
    extension: int = 4096
    ga: GaConfig = field(default_factory=GaConfig)

    def __post_init__(self):
        if self.extension <= 0:
            raise ConfigInvalid(f"extension must be positive, got {self.extension}")


def _file_alignment(layout: PeLayout) -> int:
    """The target's FileAlignment, which shift, gamma and caves align
    their inserts to; it sizes their genomes, so it is bounded first."""
    alignment = layout.file_alignment
    if not 0 < alignment <= pe.MAX_FILE_ALIGNMENT:
        raise AlignmentUnsatisfiable(
            f"file alignment {alignment:#x} is not in [1, {pe.MAX_FILE_ALIGNMENT:#x}]"
        )
    return alignment


def _first_content_offset(layout: PeLayout) -> int:
    offsets = [s.raw_offset for s in layout.sections if s.raw_size > 0]
    return min(offsets) if offsets else layout.overlay_start


def attack_shift(data: bytes, oracle, cfg: ShiftConfig) -> AttackResult:
    """Insert an aligned, GA-controlled gap between headers and the first
    section's raw data, patching raw offsets and the header-size field."""
    layout = pe.parse_pe(data)
    ext = align_up(cfg.extension, _file_alignment(layout))
    insert_at = _first_content_offset(layout)

    patched = bytearray(data)
    pe.shift_section_offsets(patched, layout, insert_at, ext)
    pe.patch_size_of_headers(patched, layout, layout.size_of_headers + ext)
    head = bytes(patched[:insert_at])
    tail = bytes(patched[insert_at:])

    def build_full(genome: np.ndarray):
        return head + genome.tobytes() + tail, [(insert_at, insert_at + ext)]

    return _run_ga("shift", data, oracle, ext, build_full, cfg.ga)


# -- benign-section injection -------------------------------------------------------


@dataclass(frozen=True)
class GammaConfig:
    n_sections: int = 10
    size_cap: float = 2.0
    ga: GaConfig = field(default_factory=GaConfig)

    def __post_init__(self):
        if self.n_sections < 1:
            raise ConfigInvalid(f"n_sections must be >= 1, got {self.n_sections}")
        if not (self.size_cap >= 1.0):
            raise ConfigInvalid(f"size_cap must be >= 1, got {self.size_cap}")


def attack_gamma(data: bytes, oracle, pool: list[bytes], cfg: GammaConfig) -> AttackResult:
    """Append new sections whose contents are prefixes of harvested benign
    section bodies.  The genome holds one (pool index, length fraction)
    gene pair per injected section; total growth stays under size_cap."""
    if not pool:
        raise ConfigInvalid("benign section pool is empty")
    layout = pe.parse_pe(data)
    alignment = _file_alignment(layout)
    if layout.num_sections + cfg.n_sections > 0xFFFF:
        raise SectionTableFull(f"{layout.num_sections} + {cfg.n_sections} sections exceed the format limit")

    table_end = layout.pe_header_span[1]
    first_off = _first_content_offset(layout)
    need = cfg.n_sections * pe.SECTION_ENTRY_LEN
    gap = first_off - table_end
    delta = 0 if gap >= need else align_up(need - gap, alignment)
    budget = int(cfg.size_cap * len(data)) - (len(data) + delta)
    if budget < 0:
        raise CapUnsatisfiable(
            f"inserting {cfg.n_sections} table entries needs {delta} bytes, over the {cfg.size_cap:g}x cap"
        )

    # header copy with the table shift and section count already applied
    patched = bytearray(data)
    pe.patch_u16(patched, layout.coff_offset + 2, layout.num_sections + cfg.n_sections)
    pe.shift_section_offsets(patched, layout, first_off, delta)
    pe.patch_size_of_headers(patched, layout, layout.size_of_headers + delta)

    va_base = align_up(
        max([0x1000] + [s.virtual_address + max(s.virtual_size, 1) for s in layout.sections]), 0x1000
    )
    inj_base = layout.overlay_start + delta

    def build_full(genome: np.ndarray):
        payloads = []
        left = budget
        for k in range(cfg.n_sections):
            entry = pool[int(genome[2 * k]) % len(pool)]
            want = round(int(genome[2 * k + 1]) / 255 * len(entry))
            raw = align_up(want, alignment)
            if raw > left:
                raw = left // alignment * alignment
                want = min(want, raw)
            left -= raw
            payloads.append((entry[:want], raw))

        entries = bytearray()
        spans = []
        cursor = inj_base
        va = va_base
        for k, (content, raw) in enumerate(payloads):
            entries += pe.section_entry_bytes(
                f".gm{k}", len(content), va, raw, cursor if raw else 0, 0x40000040  # initialized data, readable
            )
            if content:
                spans.append((cursor, cursor + len(content)))
            cursor += raw
            va = align_up(va + max(len(content), 1), 0x1000)

        out = bytearray()
        out += patched[:table_end]
        out += entries
        out += bytes(first_off + delta - (table_end + len(entries)))
        out += patched[first_off : layout.overlay_start]
        for content, raw in payloads:
            out += content
            out += bytes(raw - len(content))
        out += patched[layout.overlay_start :]
        return bytes(out), spans

    return _run_ga("gamma", data, oracle, 2 * cfg.n_sections, build_full, cfg.ga)


# -- code caves ---------------------------------------------------------------------


@dataclass(frozen=True)
class CavesConfig:
    min_cave_len: int = 32
    max_units_per_cave: int = 8  # 0 leaves the file as it is
    size_cap: float = 2.0
    ga: GaConfig = field(default_factory=GaConfig)

    def __post_init__(self):
        if self.min_cave_len < 1:
            raise ConfigInvalid(f"min_cave_len must be >= 1, got {self.min_cave_len}")
        if self.max_units_per_cave < 0:
            raise ConfigInvalid(f"max_units_per_cave must be >= 0, got {self.max_units_per_cave}")
        if not (self.size_cap >= 1.0):
            raise ConfigInvalid(f"size_cap must be >= 1, got {self.size_cap}")


def attack_caves(data: bytes, oracle, cfg: CavesConfig) -> AttackResult:
    """Extend zero caves with GA-chosen amounts of payload, shifting later
    sections and patching the table.  With no caves at all the attack
    degenerates to opening one aligned gap between the first two sections."""
    layout = pe.parse_pe(data, cave_min_len=cfg.min_cave_len)
    unit = _file_alignment(layout)
    caves = layout.code_caves

    if caves:
        # insertion point at each cave's end; the insert grows the section
        slots = [c[1] for c in caves]
        grow_section = True
    else:
        content = [s for s in layout.sections if s.raw_size > 0]
        if len(content) < 2:
            raise NoCavesAndNoGapPossible("no caves and fewer than two sections with raw data")
        slots = [content[0].raw_offset + content[0].raw_size]
        grow_section = False

    n_slots = len(slots)
    budget_total = int(cfg.size_cap * len(data)) - len(data)
    # one unit-count gene per slot, then the payload of every slot back to
    # back: all of them together never exceed the budget
    genome_len = n_slots + min(n_slots * cfg.max_units_per_cave * unit, budget_total // unit * unit)

    def extensions(genome: np.ndarray) -> list[int]:
        left = budget_total
        exts = []
        for i in range(n_slots):
            ext = (int(genome[i]) % (cfg.max_units_per_cave + 1)) * unit
            ext = min(ext, left // unit * unit)
            left -= ext
            exts.append(ext)
        return exts

    def build_full(genome: np.ndarray):
        exts = extensions(genome)
        pieces = []
        spans = []
        prev = 0
        shift = 0
        for pos, ext in zip(slots, exts):
            pieces.append(data[prev:pos])
            if ext:
                pieces.append(genome[n_slots + shift : n_slots + shift + ext].tobytes())
                spans.append((pos + shift, pos + shift + ext))
            shift += ext
            prev = pos
        pieces.append(data[prev:])
        buf = bytearray(b"".join(pieces))

        # re-place the table entries: sizes grow for sections containing a
        # slot, offsets shift for sections past any insertion
        for si, sec in enumerate(layout.sections):
            if sec.raw_size == 0 and sec.raw_offset == 0:
                continue
            added = sum(
                ext
                for pos, ext in zip(slots, exts)
                if grow_section and sec.raw_offset < pos <= sec.raw_offset + sec.raw_size
            )
            moved = sum(ext for pos, ext in zip(slots, exts) if pos <= sec.raw_offset)
            entry = layout.section_entry_offset(si)
            if added:
                pe.patch_u32(buf, entry + 16, sec.raw_size + added)
            if moved:
                pe.patch_u32(buf, entry + 20, sec.raw_offset + moved)
        return bytes(buf), spans

    return _run_ga("caves", data, oracle, genome_len, build_full, cfg.ga)
