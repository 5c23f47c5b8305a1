"""Synthetic corpus generator, manifest IO and the temporal split."""

import hashlib
import random

import numpy as np
import pytest
from _oracles import benign_body_loop, malicious_body_loop
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chunksmooth import corpus, pe
from chunksmooth.corpus import (
    CorpusManifest,
    ManifestEntry,
    SynthConfig,
    load_capped,
    read_manifest,
    synth_corpus,
    temporal_split,
    write_manifest,
)
from chunksmooth.errors import (
    ChunkSmoothError,
    ConfigInvalid,
    DataError,
    EmptyCorpus,
    EmptyFile,
    FileTooLarge,
    IoFailure,
)


# -- load_capped -------------------------------------------------------------


def test_load_capped_reads_small_file(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"hello")
    assert load_capped(p) == b"hello"


def test_load_capped_rejects_empty(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"")
    with pytest.raises(EmptyFile):
        load_capped(p)


def test_load_capped_rejects_oversize(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"\x01" * (corpus.SIZE_CAP + 1))
    with pytest.raises(FileTooLarge):
        load_capped(p)
    # exactly at the cap is fine
    p.write_bytes(b"\x01" * 64)
    assert load_capped(p, cap=64) == b"\x01" * 64


def test_load_capped_missing_file(tmp_path):
    with pytest.raises(IoFailure):
        load_capped(tmp_path / "nope.bin")


# -- generator ----------------------------------------------------------------


def test_synth_is_deterministic(tmp_path):
    cfg = SynthConfig(n_files=6, size_range=(4096, 8192), seed=7)
    m1, _ = synth_corpus(cfg, tmp_path / "a")
    m2, _ = synth_corpus(cfg, tmp_path / "b")
    assert [e.path for e in m1.entries] == [e.path for e in m2.entries]
    assert [e.sha256 for e in m1.entries] == [e.sha256 for e in m2.entries]
    for e1 in m1.entries:
        assert (tmp_path / "a" / e1.path).read_bytes() == (tmp_path / "b" / e1.path).read_bytes()


def test_synth_corpus_bytes_are_pinned(tmp_path):
    """The generator's output is part of every pipeline's determinism:
    one SHA-256 over all file bytes of a seeded corpus, in manifest order,
    pins it bit for bit."""
    manifest, _ = synth_corpus(SynthConfig(n_files=24, seed=3), tmp_path)
    digest = hashlib.sha256(b"".join(manifest.resolve(e).read_bytes() for e in manifest.entries))
    assert digest.hexdigest() == "a854bf3ae18e4b47f5759c12d697bc7606ef2b69342878c82a4cd9d3fb9b3847"


def test_synth_corpus_shape(small_corpus):
    manifest, records, root = small_corpus
    assert len(manifest.entries) == 120
    assert len(manifest.malicious()) == 60
    ts = [e.timestamp for e in manifest.entries]
    assert ts == sorted(ts) and len(set(ts)) == len(ts)
    for e in manifest.entries[:20]:
        data = load_capped(manifest.resolve(e))
        assert hashlib.sha256(data).hexdigest() == e.sha256
        pe.parse_pe(data)  # every file must re-parse


def test_synth_odd_counts_balance_within_one(tmp_path):
    m, _ = synth_corpus(SynthConfig(n_files=7, size_range=(4096, 6144), seed=3), tmp_path)
    n_mal = len(m.malicious())
    assert abs(n_mal - (7 - n_mal)) <= 1


def test_motifs_separate_classes_when_noise_free(clean_corpus):
    manifest, _, _ = clean_corpus
    pool = corpus.MALICIOUS_MOTIFS
    for e in manifest.entries:
        data = load_capped(manifest.resolve(e))
        hits = sum(data.count(m) for m in pool)
        if e.label == corpus.LABEL_MALICIOUS:
            assert hits > 0, f"{e.path}: clean malicious file without a motif"
        else:
            assert hits == 0, f"{e.path}: benign file contains a malicious motif"


def test_malicious_files_have_planted_caves(clean_corpus):
    manifest, records, _ = clean_corpus
    for rec, entry in zip(records, manifest.entries):
        data = load_capped(manifest.resolve(entry))
        layout = pe.parse_pe(data)
        assert len(layout.code_caves) >= 1, f"{entry.path}: no caves"


def _loop_bodies(rng, lengths, noise, malicious):
    if malicious:
        return [malicious_body_loop(rng, n, noise, corpus.MALICIOUS_MOTIFS) for n in lengths]
    return [benign_body_loop(rng, n, noise) for n in lengths]


@pytest.mark.parametrize("malicious", [False, True], ids=["benign", "malicious"])
def test_bodies_match_the_row_loop_byte_for_byte(malicious):
    """The bodies decoded from raw generator words are the bytes of the row
    loop in tests/_oracles.py, and leave the generator in the same state,
    including numpy's kept 32-bit half: one to four bodies per file, of
    overlay-sized and section-sized lengths, noise rates of 0, the corpus
    range and nearly 1, and a start with and without a kept half."""
    draw = np.random.default_rng(21)
    for trial in range(120):
        lengths = [
            int(draw.integers(*((32, 257), (512, 8193), (8193, 65537))[int(draw.integers(0, 3))]))
            for _ in range(int(draw.integers(1, 5)))
        ]
        noise = (0.0, float(draw.uniform(0.0, 0.45)), 0.999)[int(draw.integers(0, 3))]
        rngs = [np.random.default_rng([trial, 4]) for _ in range(2)]
        if trial % 2:
            for r in rngs:
                r.integers(0, 8)  # a scalar draw leaves the high half of its word kept
        got = corpus._bodies(rngs[0], lengths, noise, malicious)
        assert got == _loop_bodies(rngs[1], lengths, noise, malicious), (trial, lengths, noise)
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state, (trial, lengths, noise)


def test_row_stream_integers_match_the_generator():
    """Lemire's method redraws with odds below 1e-6 at the ranges a body
    draws (3, 81, 4097); ranges near 2**32 redraw often."""
    for n in (1, 2, 3, 81, 4097, 3 << 30, (1 << 32) - 1):
        rng, reference = np.random.default_rng(n), np.random.default_rng(n)
        stream = corpus._RowStream(rng, [4096], 0.0, motif_leads=True)
        got = [stream.integer(5, 5 + n) for _ in range(300)]
        assert got == [int(reference.integers(5, 5 + n)) for _ in range(300)]


def test_synth_corpus_matches_the_row_loop(tmp_path, monkeypatch):
    """Whole files, 200 per label, against the row loop."""
    cfg = SynthConfig(n_files=400, size_range=(4096, 16384), seed=11)
    manifest, _ = synth_corpus(cfg, tmp_path / "new")
    monkeypatch.setattr(corpus, "_bodies", _loop_bodies)
    reference, _ = synth_corpus(cfg, tmp_path / "loop")
    assert len(manifest.malicious()) == 200
    assert [e.sha256 for e in manifest.entries] == [e.sha256 for e in reference.entries]


@pytest.mark.parametrize(
    "kw",
    [
        dict(n_files=0),
        dict(size_range=(1024, 8192)),  # lo below the PE floor
        dict(size_range=(8192, 4096)),  # hi < lo
        dict(size_range=(8192, corpus.SIZE_CAP + 1)),
        dict(malicious_ratio=1.5),
        # Explicit ids: these cases keep the ids they had before the
        # sections_range and motif-pool cases at kw5..kw8 were deleted.
        pytest.param(dict(body_noise_range=(0.5, 0.4)), id="kw9"),
        pytest.param(dict(body_noise_range=(0.0, 1.0)), id="kw10"),
    ],
)
def test_synth_config_validation(tmp_path, kw):
    with pytest.raises(ConfigInvalid):
        synth_corpus(SynthConfig(**kw), tmp_path)


# -- manifest IO ---------------------------------------------------------------


def _entry(i, label="benign", ts=100):
    digest = hashlib.sha256(bytes([i])).hexdigest()
    return ManifestEntry(path=f"{i:05d}.bin", label=label, timestamp=ts, sha256=digest)


def test_manifest_round_trip(tmp_path):
    entries = tuple(_entry(i, ts=100 + i) for i in range(5))
    m = CorpusManifest(entries=entries, root=tmp_path)
    write_manifest(m, tmp_path / "manifest.csv")
    back = read_manifest(tmp_path / "manifest.csv")
    assert back.entries == entries
    assert back.root == tmp_path


def test_read_manifest_rejects_bad_rows(tmp_path):
    p = tmp_path / "m.csv"
    header = "path,label,timestamp,sha256\n"
    sha = "0" * 64

    p.write_text("nope\n")
    with pytest.raises(DataError):
        read_manifest(p)

    p.write_text(header + f"a.bin,benign,1,{sha},extra\n")
    with pytest.raises(DataError):
        read_manifest(p)

    p.write_text(header + f"a.bin,weird,1,{sha}\n")
    with pytest.raises(DataError):
        read_manifest(p)

    p.write_text(header + f"a.bin,benign,soon,{sha}\n")
    with pytest.raises(DataError):
        read_manifest(p)

    p.write_text(header + "a.bin,benign,1,abc123\n")
    with pytest.raises(DataError):
        read_manifest(p)

    p.write_text(header + f"a.bin,benign,1,{sha}\n" + f"b.bin,benign,2,{sha}\n")
    with pytest.raises(DataError):
        read_manifest(p)

    with pytest.raises(IoFailure):
        read_manifest(tmp_path / "missing.csv")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    edits=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), min_size=1, max_size=4),
    prefix=st.sampled_from([b"", b"\xff\xfe", b"\xef\xbb\xbf"]),
    cut=st.one_of(st.none(), st.integers(0, 1 << 10)),
)
def test_manifest_fuzz_reads_or_raises_typed_errors(tmp_path, edits, prefix, cut):
    """Byte-mutated (optionally prefixed and truncated) copies of a written
    manifest read back as a valid manifest, or fail with a ChunkSmoothError."""
    path = tmp_path / "manifest.csv"
    labels = ("benign", "malicious")
    write_manifest(CorpusManifest(entries=tuple(_entry(i, labels[i % 2], 100 + i) for i in range(4))), path)
    raw = bytearray(path.read_bytes())
    for pos, byte in edits:
        raw[pos % len(raw)] = byte
    path.write_bytes(prefix + bytes(raw[:cut]))
    try:
        manifest = read_manifest(path)
    except ChunkSmoothError:
        return
    assert isinstance(manifest, CorpusManifest) and manifest.root == tmp_path
    assert len({e.sha256 for e in manifest.entries}) == len(manifest.entries)
    for e in manifest.entries:
        assert e.label in labels and isinstance(e.timestamp, int)
        assert len(e.sha256) == 64 and set(e.sha256) <= set("0123456789abcdef")


# -- temporal split ---------------------------------------------------------------


def test_temporal_split_counts_and_ordering():
    entries = tuple(_entry(i, ts=1000 + i * 60) for i in range(10))
    m = CorpusManifest(entries=entries)
    train, val, test = temporal_split(m)
    assert (len(train), len(val), len(test)) == (8, 1, 1)
    assert max(e.timestamp for e in train.entries) <= min(e.timestamp for e in val.entries)
    assert max(e.timestamp for e in val.entries) <= min(e.timestamp for e in test.entries)


def test_temporal_split_ignores_entry_order_and_breaks_ties_by_digest():
    # all same timestamp: ordering falls back to sha256
    entries = [_entry(i, ts=500) for i in range(10)]
    m1 = CorpusManifest(entries=tuple(entries))
    shuffled = entries[:]
    random.Random(4).shuffle(shuffled)
    m2 = CorpusManifest(entries=tuple(shuffled))
    s1 = temporal_split(m1)
    s2 = temporal_split(m2)
    for a, b in zip(s1, s2):
        assert a.entries == b.entries
    digests = [e.sha256 for part in s1 for e in part.entries]
    assert digests == sorted(digests)


def test_temporal_split_rejects_bad_ratios():
    m = CorpusManifest(entries=tuple(_entry(i) for i in range(4)))
    with pytest.raises(ConfigInvalid):
        temporal_split(m, (0.5, 0.5, 0.5))
    with pytest.raises(ConfigInvalid):
        temporal_split(m, (1.2, -0.1, -0.1))
    # every comparison with NaN is False: a NaN ratio passes a check written as "< 0 or > tolerance"
    for ratios in ((float("nan"), 0.0, 1.0), (0.5, 0.5, float("nan")), (float("inf"), 0.0, 0.0)):
        with pytest.raises(ConfigInvalid):
            temporal_split(m, ratios)
    with pytest.raises(EmptyCorpus):
        temporal_split(CorpusManifest(entries=()))


def test_temporal_split_custom_ratios():
    entries = tuple(_entry(i, ts=i) for i in range(20))
    train, val, test = temporal_split(CorpusManifest(entries=entries), (0.5, 0.25, 0.25))
    assert (len(train), len(val), len(test)) == (10, 5, 5)
