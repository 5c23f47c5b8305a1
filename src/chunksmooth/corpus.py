"""Corpus plumbing: capped loading, manifests, a synthetic generator
and the timestamp-ordered train/validation/test split.

The generator writes small PE-shaped files with class-dependent section
bodies.  Malicious bodies are dense tilings of short marker strings over
a repetitive low-entropy filler; benign bodies alternate uniform random
runs with the same motif-free texture.  Both take a per-file corruption
rate and planted zero caves, so texture statistics, noise level, caves,
headers, section table, slack and overlay all match across classes and
only the marker strings carry label signal.  Files are synthetic and
inert: the markers are fixed punctuation strings, not code.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigInvalid,
    DataError,
    EmptyCorpus,
    EmptyFile,
    FileTooLarge,
    IoFailure,
    read_input,
)
from .pe import BuildPlan, SectionSpec, build_pe

SIZE_CAP = 1 << 20  # inputs larger than 1 MiB are rejected, never truncated

LABEL_BENIGN = "benign"
LABEL_MALICIOUS = "malicious"
_LABELS = (LABEL_BENIGN, LABEL_MALICIOUS)

_MANIFEST_HEADER = ["path", "label", "timestamp", "sha256"]


def load_capped(path: str | Path, cap: int = SIZE_CAP) -> bytes:
    """Read one file whole, rejecting empty files and files over the cap."""
    data = read_input(path)
    if len(data) == 0:
        raise EmptyFile(str(path))
    if len(data) > cap:
        raise FileTooLarge(len(data), cap)
    return data


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str
    timestamp: int
    sha256: str


@dataclass(frozen=True)
class CorpusManifest:
    entries: tuple[ManifestEntry, ...]
    root: Path | None = None  # directory file paths are relative to

    def __len__(self) -> int:
        return len(self.entries)

    def resolve(self, entry: ManifestEntry) -> Path:
        p = Path(entry.path)
        if not p.is_absolute() and self.root is not None:
            p = self.root / p
        return p

    def malicious(self) -> tuple[ManifestEntry, ...]:
        return tuple(e for e in self.entries if e.label == LABEL_MALICIOUS)


def _check_entries(entries: tuple[ManifestEntry, ...]) -> None:
    seen = set()
    for e in entries:
        if e.label not in _LABELS:
            raise DataError(f"manifest: unknown label {e.label!r} for {e.path}")
        if len(e.sha256) != 64 or any(c not in "0123456789abcdef" for c in e.sha256):
            raise DataError(f"manifest: malformed sha256 for {e.path}")
        if e.sha256 in seen:
            raise DataError(f"manifest: duplicate digest {e.sha256}")
        seen.add(e.sha256)


def write_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    _check_entries(manifest.entries)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_MANIFEST_HEADER)
        for e in manifest.entries:
            writer.writerow([e.path, e.label, e.timestamp, e.sha256])


def read_manifest(path: str | Path) -> CorpusManifest:
    path = Path(path)
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IoFailure(f"cannot read manifest {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"manifest {path} is not a UTF-8 CSV file: {exc}") from exc
    if not rows or rows[0] != _MANIFEST_HEADER:
        raise DataError(f"manifest {path}: missing or wrong header line")
    entries = []
    for row in rows[1:]:
        if len(row) != 4:
            raise DataError(f"manifest {path}: row with {len(row)} fields")
        try:
            ts = int(row[2])
        except ValueError as exc:
            raise DataError(f"manifest {path}: bad timestamp {row[2]!r}") from exc
        entries.append(ManifestEntry(path=row[0], label=row[1], timestamp=ts, sha256=row[3]))
    entries = tuple(entries)
    _check_entries(entries)
    return CorpusManifest(entries=entries, root=path.parent)


def check_ratios(ratios: tuple[float, ...]) -> None:
    """Raise ConfigInvalid unless ratios are three non-negatives summing to
    1; written so that NaN, for which every comparison is False, fails."""
    if not (len(ratios) == 3 and all(r >= 0 for r in ratios) and abs(sum(ratios) - 1.0) <= 1e-9):
        raise ConfigInvalid(f"split ratios must be three non-negatives summing to 1, got {ratios}")


def temporal_split(
    manifest: CorpusManifest, ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
) -> tuple[CorpusManifest, CorpusManifest, CorpusManifest]:
    """Oldest ratios[0] of entries for training, then validation, then test.

    Ordering is by (timestamp, sha256): the digest tie-break makes the
    split a pure function of the manifest contents, not of entry order.
    """
    check_ratios(ratios)
    if not manifest.entries:
        raise EmptyCorpus("cannot split an empty manifest")
    ordered = sorted(manifest.entries, key=lambda e: (e.timestamp, e.sha256))
    n = len(ordered)
    cut1 = int(n * ratios[0])
    cut2 = int(n * (ratios[0] + ratios[1]))
    mk = lambda chunk: CorpusManifest(entries=tuple(chunk), root=manifest.root)
    return mk(ordered[:cut1]), mk(ordered[cut1:cut2]), mk(ordered[cut2:])


# -- synthetic generator ----------------------------------------------------------

# Fixed 16-byte markers of malicious files. Inert constants, drawn from
# the same 0x20..0x3F alphabet as the tiling filler on purpose: telling them
# apart from filler takes real pattern weights, not a byte-range check, which
# keeps the training signal from saturating in the first epoch.
MALICIOUS_MOTIFS: tuple[bytes, ...] = (
    b"/:=94;?!*%2(&+.<",
    b"#8,1'>$-7<(60)\"3",
    b"<%/+9!=:(4?;2&.*",
    b"5#>'$08,-7\")16;=",
    b"?*&!3<9/:%.+4(=2",
    b"'1>#%-$8\"0,67;5)",
    b"+.(=%4:<2/9!?&*;",
    b";\"7-)'0#18$,>65!",
)

_SECTION_NAMES = (".text", ".data", ".rdata", ".rsrc", ".reloc")


@dataclass(frozen=True)
class SynthConfig:
    n_files: int = 2000
    size_range: tuple[int, int] = (24576, 65536)
    malicious_ratio: float = 0.5
    # Per-file corruption rate for body texture, drawn uniformly from this
    # range: that share of texture bytes is replaced by full-range noise.
    # Samples differ in how heavily they are obfuscated, so the corpus
    # should too; rate 0 makes every file maximally clean-cut.
    body_noise_range: tuple[float, float] = (0.0, 0.45)
    seed: int = 0


@dataclass(frozen=True)
class SynthRecord:
    """Per-file ground truth kept in memory for tests and debugging."""

    path: str
    label: str
    plan: BuildPlan


def _validate_synth(cfg: SynthConfig) -> None:
    if cfg.n_files <= 0:
        raise ConfigInvalid("n_files must be positive")
    lo, hi = cfg.size_range
    if lo < 4096 or hi < lo:
        raise ConfigInvalid(f"size_range must satisfy 4096 <= lo <= hi, got {cfg.size_range}")
    if hi > SIZE_CAP:
        raise ConfigInvalid(f"size_range exceeds the {SIZE_CAP}-byte cap")
    if not (0.0 <= cfg.malicious_ratio <= 1.0):
        raise ConfigInvalid("malicious_ratio must be in [0, 1]")
    nlo, nhi = cfg.body_noise_range
    if not (0.0 <= nlo <= nhi < 1.0):
        raise ConfigInvalid(f"body_noise_range must satisfy 0 <= lo <= hi < 1, got {cfg.body_noise_range}")


def _malicious_body(rng: np.random.Generator, length: int, noise_fraction: float) -> bytes:
    """Motif tiling over a repetitive low-entropy filler, with planted caves.

    Motifs recur every 64 bytes so every ablation chunk carries the class
    signal. Between motifs sits a short byte pattern repeated twelve times,
    the shape packed or table-like code regions tend to have. The whole
    row, motif included, is corrupted at the file's noise rate."""
    n_caves = int(rng.integers(1, 4))
    cave_blocks = set(int(v) for v in rng.integers(2, max(3, length // 64 - 2), size=n_caves))
    out = bytearray()
    block = 0
    while len(out) < length:
        if block in cave_blocks:
            out += bytes(int(rng.integers(48, 129)))  # zero-filled cave
        motif = MALICIOUS_MOTIFS[int(rng.integers(0, len(MALICIOUS_MOTIFS)))]
        out += _texture_row(rng, np.frombuffer(motif, dtype=np.uint8), noise_fraction)
        block += 1
    del out[length:]
    if out[-1] == 0:  # keep the zero tail a parser-visible slack boundary
        out[-1] = 0x90
    return bytes(out)


def _texture_row(rng: np.random.Generator, lead: np.ndarray, noise_fraction: float) -> bytes:
    """One 64-byte body row: a 16-byte lead, then a 4-byte pattern twelve times."""
    row = np.empty(64, dtype=np.uint8)
    row[16:].reshape(12, 4)[:] = rng.integers(0x20, 0x40, size=4, dtype=np.uint8)
    row[:16] = lead
    if noise_fraction > 0.0:
        mask = rng.random(row.shape) < noise_fraction
        row[mask] = rng.integers(0, 256, size=int(mask.sum()), dtype=np.uint8)
    return row.tobytes()


def _benign_body(rng: np.random.Generator, length: int, noise_fraction: float) -> bytes:
    """Alternating runs of full-range random bytes and motif-free texture.

    The texture runs copy the malicious row shape with the marker string
    replaced by fresh narrow-alphabet bytes, and take the same per-file
    corruption and planted caves, so byte-level texture alone does not
    separate the classes.  Benign files carry no markers of their own:
    benign-only byte strings would hand the detector evidence that no
    content edit can imitate, which makes robustness comparisons across
    detectors trivially favorable."""
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
                out += _texture_row(rng, lead, noise_fraction)
                block += 1
        else:
            out += rng.integers(0, 256, size=run_end - len(out), dtype=np.uint8).tobytes()
        structured = not structured
    del out[length:]
    if out[-1] == 0:
        out[-1] = 0x2E
    return bytes(out)


def synth_corpus(cfg: SynthConfig, out_dir: str | Path) -> tuple[CorpusManifest, list[SynthRecord]]:
    """Generate cfg.n_files synthetic files under out_dir plus a manifest.

    Deterministic per cfg (each file derives its own rng from (seed, index)).
    Timestamps increase with index so the temporal split is well defined.
    """
    _validate_synth(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    entries = []
    records = []
    mal_count = 0
    for i in range(cfg.n_files):
        want_mal = int((i + 1) * cfg.malicious_ratio) > mal_count
        label = LABEL_MALICIOUS if want_mal else LABEL_BENIGN
        mal_count += int(want_mal)

        rng = np.random.default_rng([cfg.seed, i])
        target = int(rng.integers(cfg.size_range[0], cfg.size_range[1] + 1))
        n_sections = int(rng.integers(2, 5))  # 2 to 4 sections
        table_gap = int(rng.integers(0, 2)) * 80
        overlay_len = int(rng.integers(0, 257))

        header_estimate = 64 + 4 + 20 + 224 + 40 * n_sections + table_gap
        body_budget = target - ((header_estimate + 511) // 512 * 512) - overlay_len
        # each section: content plus a guaranteed >= 64-byte zero slack tail
        weights = rng.dirichlet(np.ones(n_sections) * 4.0)
        lengths = np.maximum((weights * body_budget).astype(int) - 96, 512)

        noise = float(rng.uniform(*cfg.body_noise_range))
        if label == LABEL_MALICIOUS:
            make_body = lambda r, n: _malicious_body(r, n, noise)
        else:
            make_body = lambda r, n: _benign_body(r, n, noise)
        sections = []
        for j, length in enumerate(lengths):
            content = make_body(rng, int(length))
            raw = (len(content) + 64 + 511) // 512 * 512
            sections.append(
                SectionSpec(
                    name=_SECTION_NAMES[j % len(_SECTION_NAMES)],
                    content=content,
                    raw_size=raw,
                    characteristics=0x60000020 if j == 0 else 0xC0000040,
                )
            )
        overlay = make_body(rng, overlay_len) if overlay_len >= 32 else b""

        timestamp = 1_600_000_000 + i * 60
        data, plan = build_pe(sections, timestamp=timestamp, overlay=overlay, table_gap=table_gap)
        digest = hashlib.sha256(data).hexdigest()
        name = f"{i:05d}.bin"
        (out_dir / name).write_bytes(data)
        entries.append(ManifestEntry(path=name, label=label, timestamp=timestamp, sha256=digest))
        records.append(SynthRecord(path=name, label=label, plan=plan))

    manifest = CorpusManifest(entries=tuple(entries), root=out_dir)
    _check_entries(manifest.entries)
    return manifest, records
