"""Container parsing against builder ground truth plus malformed-input handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import naive_caves
from chunksmooth import pe
from chunksmooth.corpus import load_capped
from chunksmooth.errors import DataError, MalformedSectionTable, NotPe


def _build_one(content: bytes, file_alignment: int = 1, **kw):
    """Single-section file; alignment 1 makes raw_size == len(content), so
    cave geometry in tests is exact."""
    spec = pe.SectionSpec(name=".text", content=content)
    return pe.build_pe([spec], file_alignment=file_alignment, **kw)


# -- parse vs builder plan -----------------------------------------------------


def test_parse_matches_build_plan_on_corpus(small_corpus):
    manifest, records, _ = small_corpus
    assert len(records) == 120
    for rec in records:
        data = load_capped(manifest.root / rec.path)
        layout = pe.parse_pe(data)
        plan = rec.plan
        assert layout.section_table_offset == plan.section_table_offset
        assert layout.size_of_headers == plan.size_of_headers
        assert tuple(s.raw_offset for s in layout.sections) == plan.raw_offsets
        assert tuple(s.raw_size for s in layout.sections) == plan.raw_sizes
        assert layout.used_lens == plan.used_lens
        assert layout.overlay_start == plan.overlay_start


def test_parse_reports_declared_alignment_and_header_size():
    data, plan = _build_one(b"\x01" * 100, file_alignment=512)
    layout = pe.parse_pe(data)
    assert layout.file_alignment == 512
    assert layout.size_of_headers == plan.size_of_headers
    assert layout.num_sections == 1
    assert layout.sections[0].name == ".text"


def test_slack_regions_are_zero_tails(small_corpus):
    manifest, records, _ = small_corpus
    for rec in records[:30]:
        data = load_capped(manifest.root / rec.path)
        layout = pe.parse_pe(data)
        for start, end in layout.slack_regions:
            assert end > start
            assert data[start:end] == bytes(end - start)
            assert data[start - 1] != 0  # used content ends right before the tail


# -- rejection paths -------------------------------------------------------------


def test_parse_rejects_short_file():
    with pytest.raises(NotPe):
        pe.parse_pe(b"MZ")


def test_parse_rejects_all_zero_file():
    with pytest.raises(NotPe):
        pe.parse_pe(bytes(4096))


def test_parse_rejects_missing_mz():
    data, _ = _build_one(b"\x01" * 64)
    with pytest.raises(NotPe):
        pe.parse_pe(b"ZZ" + data[2:])


def test_parse_rejects_bad_e_lfanew():
    data, _ = _build_one(b"\x01" * 64)
    buf = bytearray(data)
    pe.patch_u32(buf, pe.E_LFANEW_OFFSET, len(data))  # points past EOF
    with pytest.raises(NotPe):
        pe.parse_pe(bytes(buf))


def test_parse_rejects_bad_signature():
    data, _ = _build_one(b"\x01" * 64)
    layout = pe.parse_pe(data)
    buf = bytearray(data)
    buf[layout.e_lfanew : layout.e_lfanew + 4] = b"XX\0\0"
    with pytest.raises(NotPe):
        pe.parse_pe(bytes(buf))


def test_parse_rejects_zero_sections():
    data, _ = _build_one(b"\x01" * 64)
    layout = pe.parse_pe(data)
    buf = bytearray(data)
    pe.patch_u16(buf, layout.coff_offset + 2, 0)
    with pytest.raises(MalformedSectionTable):
        pe.parse_pe(bytes(buf))


def test_parse_rejects_table_past_eof():
    data, _ = _build_one(b"\x01" * 64)
    layout = pe.parse_pe(data)
    buf = bytearray(data)
    pe.patch_u16(buf, layout.coff_offset + 2, 1000)
    with pytest.raises(MalformedSectionTable):
        pe.parse_pe(bytes(buf))


def test_parse_rejects_section_overlapping_headers():
    data, _ = _build_one(b"\x01" * 64, file_alignment=512)
    layout = pe.parse_pe(data)
    buf = bytearray(data)
    pe.patch_u32(buf, layout.section_entry_offset(0) + 20, 4)
    with pytest.raises(MalformedSectionTable):
        pe.parse_pe(bytes(buf))


def test_parse_rejects_overlapping_sections():
    specs = [
        pe.SectionSpec(name=".text", content=b"\x01" * 600),
        pe.SectionSpec(name=".data", content=b"\x02" * 600),
    ]
    data, _ = pe.build_pe(specs, file_alignment=512)
    layout = pe.parse_pe(data)
    buf = bytearray(data)
    # drop section 1 onto section 0's span
    pe.patch_u32(buf, layout.section_entry_offset(1) + 20, layout.sections[0].raw_offset + 16)
    with pytest.raises(MalformedSectionTable):
        pe.parse_pe(bytes(buf))


def test_parse_rejects_section_past_eof():
    data, _ = _build_one(b"\x01" * 64, file_alignment=512)
    layout = pe.parse_pe(data)
    buf = bytearray(data)
    pe.patch_u32(buf, layout.section_entry_offset(0) + 16, len(data))
    with pytest.raises(MalformedSectionTable):
        pe.parse_pe(bytes(buf))


# -- code caves -------------------------------------------------------------------


def test_caves_single_run():
    # 100 nonzero bytes then 64 zeros, then a closing nonzero byte so the
    # zeros are interior content rather than slack trimming ambiguity
    content = b"\x01" * 100 + bytes(64) + b"\x01"
    data, plan = _build_one(content)
    layout = pe.parse_pe(data)
    off = plan.raw_offsets[0]
    assert layout.code_caves == ((off + 100, off + 164),)


def test_caves_split_by_single_nonzero_byte():
    content = b"\x01" * 50 + bytes(40) + b"\x01" + bytes(40) + b"\x01"
    data, plan = _build_one(content)
    layout = pe.parse_pe(data)
    off = plan.raw_offsets[0]
    assert layout.code_caves == (
        (off + 50, off + 90),
        (off + 91, off + 131),
    )


def test_caves_respect_min_len():
    content = b"\x01" * 50 + bytes(40) + b"\x01" + bytes(40) + b"\x01"
    data, _ = _build_one(content)
    layout = pe.parse_pe(data, cave_min_len=41)
    assert layout.code_caves == ()


def test_caves_never_cross_section_boundary():
    # zero tail of section 0 abuts zero head of section 1; runs stay split
    specs = [
        pe.SectionSpec(name=".a", content=b"\x01" * 10 + bytes(40)),
        pe.SectionSpec(name=".b", content=bytes(40) + b"\x01" * 10),
    ]
    data, plan = pe.build_pe(specs, file_alignment=1)
    layout = pe.parse_pe(data, cave_min_len=32)
    a_off, b_off = plan.raw_offsets
    assert layout.code_caves == (
        (a_off + 10, a_off + 50),
        (b_off, b_off + 40),
    )


def test_caves_match_naive_on_random_sections():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        n = int(rng.integers(1, 400))
        content = rng.integers(0, 3, size=n, dtype=np.uint8)
        content[-1] = 1  # keep used == raw so the whole span is content
        min_len = int(rng.integers(1, 64))
        data, plan = _build_one(content.tobytes())
        layout = pe.parse_pe(data, cave_min_len=min_len)
        expect = naive_caves(data, [(plan.raw_offsets[0], plan.raw_sizes[0])], min_len)
        assert list(layout.code_caves) == expect


def test_build_honors_table_gap_and_overlay():
    content = b"\x01" * 100
    overlay = b"OVERLAY!" * 4
    data, plan = _build_one(content, file_alignment=512, table_gap=80, overlay=overlay)
    layout = pe.parse_pe(data)
    assert data[plan.overlay_start :] == overlay
    assert layout.overlay_start == plan.overlay_start
    # the gap lives inside size_of_headers, before the first section
    table_end = plan.section_table_offset + pe.SECTION_ENTRY_LEN
    assert plan.size_of_headers >= table_end + 80
    assert data[table_end : plan.raw_offsets[0]] == bytes(plan.raw_offsets[0] - table_end)


def _fuzz_seed() -> bytes:
    rng = np.random.default_rng(30)
    body = lambda n: rng.integers(1, 256, size=n, dtype=np.uint8).tobytes()
    specs = [
        pe.SectionSpec(name=".text", content=body(700) + bytes(90) + body(300)),
        pe.SectionSpec(name=".data", content=body(400)),
        pe.SectionSpec(name=".bss", content=b"", raw_size=0),
    ]
    data, _ = pe.build_pe(specs, file_alignment=512, table_gap=80, overlay=body(100))
    return data


_FUZZ_SEED = _fuzz_seed()
_SEED_LAYOUT = pe.parse_pe(_FUZZ_SEED)
# e_lfanew, section count, optional-header size, FileAlignment, SizeOfHeaders,
# and each table entry's virtual size, address, raw size and raw offset
_FUZZ_FIELDS = [
    pe.E_LFANEW_OFFSET,
    _SEED_LAYOUT.coff_offset + 2,
    _SEED_LAYOUT.coff_offset + 16,
    _SEED_LAYOUT.opt_header_offset + 36,
    _SEED_LAYOUT.opt_header_offset + 60,
] + [_SEED_LAYOUT.section_entry_offset(i) + k for i in range(3) for k in (8, 12, 16, 20)]


@settings(max_examples=500, deadline=None)
@given(
    edits=st.lists(
        st.tuples(
            st.one_of(st.sampled_from(_FUZZ_FIELDS), st.integers(0, 1023)),
            st.sampled_from([1, 2, 4]),
            st.integers(0, (1 << 32) - 1),
        ),
        min_size=1,
        max_size=4,
    ),
    cut=st.one_of(st.none(), st.integers(0, len(_FUZZ_SEED))),
)
def test_parse_fuzz_returns_in_file_layout_or_raises_data_error(edits, cut):
    """Byte-mutated (and optionally truncated) copies of a built file parse
    to a layout whose spans all lie inside the file, or raise DataError;
    never struct.error or IndexError."""
    raw = bytearray(_FUZZ_SEED)
    for pos, width, value in edits:
        raw[pos : pos + width] = (value & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
    data = bytes(raw[:cut])
    try:
        layout = pe.parse_pe(data)
    except DataError:
        return
    n = len(data)
    assert layout.file_len == n
    assert 0 < layout.pe_header_span[0] < layout.pe_header_span[1] <= n
    for sec in layout.sections:
        if sec.raw_size:
            assert layout.pe_header_span[1] <= sec.raw_offset < sec.raw_offset + sec.raw_size <= n
    for start, end in layout.slack_regions + layout.code_caves:
        assert 0 <= start < end <= n
    assert layout.pe_header_span[1] <= layout.overlay_start <= n
