"""Corpus plumbing: capped loading, manifests, a synthetic generator
and the timestamp-ordered train/validation/test split.

The generator writes small PE-shaped files with class-dependent section
bodies.  Malicious bodies are dense tilings of short marker strings over
a repetitive low-entropy filler; benign bodies alternate uniform random
runs with the same motif-free texture.  Both take a per-file corruption
rate and planted zero caves, so texture statistics, noise level,
headers, section table, slack and overlay all match across classes and
the marker strings carry the label signal (benign files have about half
as many caves; see _benign_body).  Files are synthetic and inert: the
markers are fixed punctuation strings, not code.
"""

from __future__ import annotations

import csv
import hashlib
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


# A file's bodies are what a row loop writes (tests/_oracles.py keeps it
# as the reference): three or four generator calls per 64-byte row, for a
# motif index or a 16-byte lead, a 4-byte pattern, the noise mask's 64
# doubles and the noise bytes.  _RowStream writes the same bytes from one
# block of the bit generator's raw 64-bit words per file, read the way
# numpy's Generator reads PCG64:
#   - a double is one word w, as (w >> 11) * 2**-53;
#   - a 32-bit draw takes the low half of a fresh word and keeps its high
#     half for the next 32-bit draw, across any doubles in between;
#   - integers(low, high) below 2**32 is Lemire's method on one 32-bit
#     draw, with a rare redraw, and integers(low, high, size=n) is n such
#     draws;
#   - n bytes are the bytes of ceil(n / 4) 32-bit draws, low byte first,
#     and a byte b drawn from [0x20, 0x40) is 0x20 + (b >> 3).
# Only where each row starts in the stream needs a Python loop (the noise
# draws between rows vary in number); every field of every row of the
# file is then gathered in a few array operations.


class _RowStream:
    """The draws of one file's bodies, decoded from raw words.  bodies()
    returns their bytes and leaves the generator in the state the row
    loop leaves it in."""

    def __init__(self, rng: np.random.Generator, lengths: list[int], noise_fraction: float, motif_leads: bool):
        self.bitgen = rng.bit_generator
        self.start = self.bitgen.state
        self.draws = 2 if motif_leads else 5  # 32-bit draws for a row's lead and pattern
        self.span = 64 if noise_fraction > 0.0 else 0  # doubles per row
        # Per body: at most 3 words per row for the lead and pattern, the
        # doubles and 9 for the noise bytes; per random run its bytes / 8 and
        # one for its length; a margin for the caves and redraws.
        n_words = sum(-(-n // 64) * (3 + self.span + 9) + n // 8 + 2 * (n // 2048) + 64 for n in lengths)
        # One word more than the stream may take: the last holds numpy's kept
        # high half (read when has_uint32 is set), so that word n_words is
        # where the file's first 32-bit draw can find it.
        words = np.asarray(self.bitgen.random_raw(n_words + 1), dtype="<u8")
        words[n_words] = self.start["uinteger"] << 32
        self.n_words = n_words
        self.halves = words.view("<u4")
        self.bytes = words.view(np.uint8)
        # The next fresh word, whether a high half is kept, and the word of
        # the last 32-bit draw, whose high half that is.
        self.p, self.h, self.b = 0, self.start["has_uint32"], n_words
        if self.span:
            # (w >> 11) * 2**-53 < x  <=>  w < ceil(x * 2**53) << 11, exactly
            self.noisy = words < math.ceil(noise_fraction * 2.0**53) << 11
            n_noisy = self.noisy.view(np.uint8)
            for width in (1, 2, 4, 8, 16, 32):
                n_noisy = n_noisy[:-width] + n_noisy[width:]
            self.n_noisy = n_noisy  # noisy doubles among words j .. j + 63
        else:
            self.n_noisy = np.zeros(n_words, dtype=np.uint8)
        self.steps = _ROW_STEPS[self.draws, self.span]
        self.size = 0  # bytes written so far, over all bodies
        self.row_ph = array("q")  # each row's first fresh word and kept-half flag, as 2 * p + h
        self.row_runs = []  # (offset, first row, row count)
        self.random_runs = []  # (offset, bytes)

    def _u32(self) -> int:
        if self.h:
            self.h = 0
            return int(self.halves[2 * self.b + 1])
        self.b, self.p, self.h = self.p, self.p + 1, 1
        return int(self.halves[2 * self.b])

    def integer(self, low: int, high: int) -> int:
        """rng.integers(low, high) for 1 <= high - low < 2**32."""
        n = high - low
        if n == 1:
            return low
        m = self._u32() * n
        if (m & 0xFFFFFFFF) < n:
            threshold = (1 << 32) % n
            while (m & 0xFFFFFFFF) < threshold:
                m = self._u32() * n
        return low + (m >> 32)

    def random_run(self, n: int) -> None:
        """rng.integers(0, 256, size=n, dtype=np.uint8)."""
        kept = min(n, 4 * self.h)
        at = 8 * self.b + 4
        run = np.concatenate((self.bytes[at : at + kept], self.bytes[8 * self.p : 8 * self.p + n - kept]))
        self.random_runs.append((self.size, run))
        self.size += n
        draws = -(-n // 4)
        fresh = (draws + 1 - self.h) >> 1
        self.p += fresh
        self.h ^= draws & 1
        if fresh:
            self.b = self.p - 1

    def texture(self, need: int, block: int, cave_blocks: set[int]) -> int:
        """Rows from block `block` on until `need` more bytes are written, with
        a zero cave before each cave block reached; returns the next block."""
        end = self.size + need
        while self.size < end:
            if block in cave_blocks:
                self.size += self.integer(48, 129)  # the output starts zeroed
            # the rows up to the next cave block or the end; a cave's row comes anyway
            n = max(1, min([-(-(end - self.size) // 64)] + [c - block for c in cave_blocks if c > block]))
            self.row_runs.append((self.size, len(self.row_ph), n))
            self._skip_rows(n)
            self.size += 64 * n
            block += n
        return block

    def _skip_rows(self, n: int) -> None:
        """Record where each of the next n rows' draws start, and pass them."""
        p, h = self.p, self.h
        lead, noise = self.steps
        n_noisy = memoryview(self.n_noisy)
        add = self.row_ph.append
        for _ in range(n):
            add(2 * p + h)
            words, h = lead[h]
            p += words
            words, h = noise[h][n_noisy[p]]
            p += words
        # The last word split by a 32-bit draw: the last noise word, or, if
        # the noise took none, the last lead or pattern word, before the doubles.
        self.p, self.h, self.b = p, h, p - 1 - (self.span if words == self.span else 0)

    def bodies(self, spans: list[tuple[int, int]], tail: int) -> list[bytes]:
        """The bytes at each (offset, length) span."""
        rows = self._rows().reshape(-1)
        out = np.zeros(self.size, dtype=np.uint8)
        for at, run in self.random_runs:
            out[at : at + len(run)] = run
        for at, first, n in self.row_runs:
            out[at : at + 64 * n] = rows[64 * first : 64 * (first + n)]
        self._close()
        bodies = []
        for at, length in spans:
            body = out[at : at + length]
            if body[-1] == 0:  # keep the zero tail a parser-visible slack boundary
                body[-1] = tail
            bodies.append(body.tobytes())
        return bodies

    def _rows(self) -> np.ndarray:
        ph = np.frombuffer(self.row_ph, dtype=np.int64)
        p, h = ph >> 1, ph & 1
        n, draws = len(p), self.draws
        d = p + ((draws + 1 - h) >> 1)  # each row's first double
        k = self.n_noisy[d].astype(np.intp)  # and its noisy doubles
        # The word whose high half a row starts with, where h is set: the
        # one a cave or run draw split, for the first row of a run of rows,
        # else the row before's last noise word, or, if it drew no noise,
        # its last lead or pattern word (see _skip_rows).
        quiet = np.zeros(n, dtype=bool)
        quiet[1:] = k[:-1] == 0
        quiet[[first for _, first, _ in self.row_runs]] = False
        b = p - 1 - self.span * quiet
        # the 32-bit halves that each row's lead and pattern draws read: the
        # kept one first, if any, then those of fresh words from p on
        at = 2 * p[:, None] - h[:, None] + np.arange(draws)
        at[:, 0] = np.where(h == 1, 2 * b + 1, at[:, 0])
        halves = self.halves[at]
        narrow = ((halves >> 3) & 0x1F1F1F1F) | 0x20202020  # each byte b as 0x20 + (b >> 3)
        rows = np.empty((n, 16), dtype="<u4")
        rows[:, :4] = _MOTIF_WORDS[halves[:, 0] >> 29] if draws == 2 else narrow[:, :4]
        rows[:, 4:] = narrow[:, -1:]
        rows = rows.view(np.uint8)
        if self.span and n:
            kept = h ^ (draws & 1)  # 1 where the noise draws start on word d - 1's high half
            start = np.cumsum(k) - k
            # Noise byte j of a row is byte j - 4 * kept from word d + 64 on,
            # but the first four of a kept row come from word d - 1's high half.
            at = np.repeat(8 * (d + 64) - 4 * kept - start, k) + np.arange(start[-1] + k[-1])
            kept_rows = np.flatnonzero(kept)
            for j in range(4):
                first = kept_rows[k[kept_rows] > j]
                at[start[first] + j] -= 8 * 64  # back over the row's doubles
            noisy = np.flatnonzero(sliding_window_view(self.noisy, 64)[d])
            rows.reshape(-1)[noisy] = self.bytes[at]
        return rows

    def _close(self) -> None:
        if self.p > self.n_words:
            raise RuntimeError("synthetic bodies took more generator words than their bound")
        self.bitgen.state = self.start
        self.bitgen.advance(self.p)
        state = self.bitgen.state
        state["has_uint32"] = self.h
        state["uinteger"] = int(self.halves[2 * self.b + 1])
        self.bitgen.state = state


_MOTIF_WORDS = np.frombuffer(b"".join(MALICIOUS_MOTIFS), dtype="<u4").reshape(len(MALICIOUS_MOTIFS), 4)


def _row_steps(draws: int, span: int) -> tuple:
    """How one row moves the stream: from kept-half flag h, its lead and
    pattern draws pass lead[h] = (fresh words, h after); then, with k of
    its span doubles noisy, it passes noise[h][k] = (doubles and fresh
    words, h after) for its ceil(k / 4) noise draws."""
    lead = tuple(((draws + 1 - h) >> 1, h ^ (draws & 1)) for h in (0, 1))
    noise = tuple(
        tuple((span + ((((k + 3) >> 2) + 1 - h) >> 1), h ^ (((k + 3) >> 2) & 1)) for k in range(span + 1))
        for h in (0, 1)
    )
    return lead, noise


_ROW_STEPS = {(draws, span): _row_steps(draws, span) for draws in (2, 5) for span in (0, 64)}


def _bodies(rng: np.random.Generator, lengths: list[int], noise_fraction: float, malicious: bool) -> list[bytes]:
    """One file's section and overlay bodies, in order, of the given lengths."""
    stream = _RowStream(rng, lengths, noise_fraction, motif_leads=malicious)
    spans = []
    for length in lengths:
        spans.append((stream.size, length))
        (_malicious_body if malicious else _benign_body)(stream, length)
    return stream.bodies(spans, 0x90 if malicious else 0x2E)


def _cave_blocks(stream: _RowStream, length: int) -> set[int]:
    """1 to 3 draws of a row block; a zero cave of 48 to 128 bytes goes
    before each block that the rows reach."""
    high = max(3, length // 64 - 2)
    return {stream.integer(2, high) for _ in range(stream.integer(1, 4))}


def _malicious_body(stream: _RowStream, length: int) -> None:
    """Motif tiling over a repetitive low-entropy filler, with planted caves.

    Every 64-byte row is a 16-byte motif, then a short byte pattern
    repeated twelve times, the shape packed or table-like code regions
    tend to have.  Motifs recur every row so every ablation chunk carries
    the class signal.  The whole row, motif included, is corrupted at the
    file's noise rate."""
    stream.texture(length, 0, _cave_blocks(stream, length))


def _benign_body(stream: _RowStream, length: int) -> None:
    """Alternating runs of full-range random bytes and motif-free texture.

    Runs are 2048 to 6144 bytes long and the first kind is a coin flip.
    The texture runs copy the malicious row shape with the marker string
    replaced by fresh narrow-alphabet bytes, and take the same per-file
    corruption, so byte-level texture alone does not separate the
    classes.  Caves are drawn as for a malicious body, but their blocks
    count texture rows only, and only about half the body is texture: a
    benign file carries about half the caves of a malicious one of the
    same size.  Benign files carry no markers of their own: benign-only
    byte strings would hand the detector evidence that no content edit
    can imitate, which makes robustness comparisons across detectors
    trivially favorable."""
    cave_blocks = _cave_blocks(stream, length)
    structured = stream.integer(0, 2) == 1
    end = stream.size + length
    block = 0
    while stream.size < end:
        need = min(stream.integer(2048, 6145), end - stream.size)
        if structured:
            block = stream.texture(need, block, cave_blocks)
        else:
            stream.random_run(need)
        structured = not structured


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
        body_lengths = [int(n) for n in lengths] + ([overlay_len] if overlay_len >= 32 else [])
        bodies = _bodies(rng, body_lengths, noise, label == LABEL_MALICIOUS)
        sections = []
        for j, content in enumerate(bodies[:n_sections]):
            raw = (len(content) + 64 + 511) // 512 * 512
            sections.append(
                SectionSpec(
                    name=_SECTION_NAMES[j % len(_SECTION_NAMES)],
                    content=content,
                    raw_size=raw,
                    characteristics=0x60000020 if j == 0 else 0xC0000040,
                )
            )
        overlay = bodies[n_sections] if overlay_len >= 32 else b""

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
