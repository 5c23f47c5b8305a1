"""Minimal PE reader/writer for synthetic byte corpora.

Understands just enough of the format to locate headers, the section
table, per-section raw spans, slack tails, zero-byte caves and overlay.
Parsing is strict about section-table geometry (ordering, bounds,
overlap) because the attacks splice at those boundaries, and lenient
about everything else: optional-header fields other than magic, file
alignment and size-of-headers are carried opaquely and never validated.

All multi-byte fields are little-endian, as in the real format.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .errors import MalformedSectionTable, NotPe

DOS_HEADER_LEN = 64
E_LFANEW_OFFSET = 0x3C
PE_SIGNATURE = b"PE\0\0"
COFF_LEN = 20
OPT_HEADER_LEN = 224  # PE32 standard fields + 16 zeroed data directories
SECTION_ENTRY_LEN = 40
MACHINE_I386 = 0x014C
OPT_MAGIC_PE32 = 0x010B
DEFAULT_FILE_ALIGNMENT = 512
MAX_FILE_ALIGNMENT = 0x10000  # the format's largest FileAlignment, 64 KiB
DEFAULT_CAVE_MIN_LEN = 32

# offsets inside the optional header of the fields we track
_OPT_FILE_ALIGNMENT_OFF = 36
_OPT_SIZE_OF_HEADERS_OFF = 60


def _u16(data: bytes, off: int) -> int:
    return struct.unpack_from("<H", data, off)[0]


def _u32(data: bytes, off: int) -> int:
    return struct.unpack_from("<I", data, off)[0]


def align_up(value: int, alignment: int) -> int:
    if alignment <= 0:
        return value
    return (value + alignment - 1) // alignment * alignment


@dataclass(frozen=True)
class SectionEntry:
    name: str
    virtual_size: int
    virtual_address: int
    raw_size: int
    raw_offset: int
    characteristics: int


@dataclass(frozen=True)
class PeLayout:
    file_len: int
    e_lfanew: int
    opt_header_offset: int
    opt_header_size: int
    section_table_offset: int
    file_alignment: int
    size_of_headers: int
    pe_header_span: tuple[int, int]  # PE signature through end of section table
    sections: tuple[SectionEntry, ...]
    used_lens: tuple[int, ...]  # per section, content length before the zero tail
    overlay_start: int
    code_caves: tuple[tuple[int, int], ...]

    @property
    def num_sections(self) -> int:
        return len(self.sections)

    @property
    def slack_regions(self) -> tuple[tuple[int, int], ...]:
        """Per-section zero tails: [raw_offset + used_len, raw_offset + raw_size)."""
        out = []
        for sec, used in zip(self.sections, self.used_lens):
            if sec.raw_size > used:
                out.append((sec.raw_offset + used, sec.raw_offset + sec.raw_size))
        return tuple(out)

    @property
    def coff_offset(self) -> int:
        return self.e_lfanew + len(PE_SIGNATURE)

    def section_entry_offset(self, index: int) -> int:
        return self.section_table_offset + index * SECTION_ENTRY_LEN


def section_entry_bytes(
    name: str, virtual_size: int, virtual_address: int, raw_size: int, raw_offset: int, characteristics: int
) -> bytes:
    """One section-table entry; the name is cut to 8 bytes and a zero
    virtual size is written as 1."""
    blob = bytearray(SECTION_ENTRY_LEN)
    encoded = name.encode("latin-1")[:8]
    blob[: len(encoded)] = encoded
    struct.pack_into("<IIII", blob, 8, max(virtual_size, 1), virtual_address, raw_size, raw_offset)
    struct.pack_into("<I", blob, 36, characteristics)
    return bytes(blob)


def _used_len(content: bytes) -> int:
    """Length of content once the trailing zero run is stripped."""
    i = len(content)
    while i > 0 and content[i - 1] == 0:
        i -= 1
    return i


def parse_pe(data: bytes, cave_min_len: int = DEFAULT_CAVE_MIN_LEN) -> PeLayout:
    """Parse one in-memory file into a PeLayout.

    Raises NotPe when the DOS/PE magic or the headers themselves are
    missing, MalformedSectionTable when the table geometry is broken.
    """
    n = len(data)
    if n < DOS_HEADER_LEN:
        raise NotPe(f"file is {n} bytes, too short for a DOS header")
    if data[0:2] != b"MZ":
        raise NotPe("missing MZ magic")
    e_lfanew = _u32(data, E_LFANEW_OFFSET)
    if e_lfanew < DOS_HEADER_LEN or e_lfanew + len(PE_SIGNATURE) + COFF_LEN > n:
        raise NotPe(f"e_lfanew {e_lfanew:#x} leaves no room for PE headers")
    if data[e_lfanew : e_lfanew + 4] != PE_SIGNATURE:
        raise NotPe("missing PE signature")

    coff = e_lfanew + len(PE_SIGNATURE)
    num_sections = _u16(data, coff + 2)
    opt_size = _u16(data, coff + 16)
    opt_offset = coff + COFF_LEN
    table_offset = opt_offset + opt_size
    table_end = table_offset + num_sections * SECTION_ENTRY_LEN
    if num_sections == 0:
        raise MalformedSectionTable("zero sections")
    if table_end > n:
        raise MalformedSectionTable(f"section table runs past end of file ({table_end} > {n})")

    file_alignment = 0
    size_of_headers = 0
    if opt_size >= _OPT_FILE_ALIGNMENT_OFF + 4:
        file_alignment = _u32(data, opt_offset + _OPT_FILE_ALIGNMENT_OFF)
    if opt_size >= _OPT_SIZE_OF_HEADERS_OFF + 4:
        size_of_headers = _u32(data, opt_offset + _OPT_SIZE_OF_HEADERS_OFF)

    sections = []
    for i in range(num_sections):
        off = table_offset + i * SECTION_ENTRY_LEN
        name = data[off : off + 8].rstrip(b"\0").decode("latin-1")
        virtual_size = _u32(data, off + 8)
        virtual_address = _u32(data, off + 12)
        raw_size = _u32(data, off + 16)
        raw_offset = _u32(data, off + 20)
        characteristics = _u32(data, off + 36)
        sections.append(
            SectionEntry(name, virtual_size, virtual_address, raw_size, raw_offset, characteristics)
        )

    prev_end = table_end
    for sec in sections:
        if sec.raw_size == 0:
            continue
        if sec.raw_offset < table_end:
            raise MalformedSectionTable(f"section {sec.name!r} overlaps the headers")
        if sec.raw_offset < prev_end:
            raise MalformedSectionTable(f"section {sec.name!r} overlaps its predecessor")
        if sec.raw_offset + sec.raw_size > n:
            raise MalformedSectionTable(f"section {sec.name!r} runs past end of file")
        prev_end = sec.raw_offset + sec.raw_size

    used_lens = tuple(
        _used_len(data[sec.raw_offset : sec.raw_offset + sec.raw_size]) for sec in sections
    )
    # a section without raw data has no span, whatever its raw offset says
    overlay_start = max([table_end] + [sec.raw_offset + sec.raw_size for sec in sections if sec.raw_size])

    layout = PeLayout(
        file_len=n,
        e_lfanew=e_lfanew,
        opt_header_offset=opt_offset,
        opt_header_size=opt_size,
        section_table_offset=table_offset,
        file_alignment=file_alignment,
        size_of_headers=size_of_headers,
        pe_header_span=(e_lfanew, table_end),
        sections=tuple(sections),
        used_lens=used_lens,
        overlay_start=overlay_start,
        code_caves=(),
    )
    return replace(layout, code_caves=find_code_caves(data, layout, cave_min_len))


def find_code_caves(
    data: bytes, layout: PeLayout, min_len: int = DEFAULT_CAVE_MIN_LEN
) -> tuple[tuple[int, int], ...]:
    """Maximal zero-byte runs of at least min_len inside section raw spans.

    Runs are maximal within their section: a run crossing a section
    boundary is truncated at the span edge. Headers and overlay are never
    scanned. Sorted by start offset.
    """
    caves = []
    for sec in layout.sections:
        if sec.raw_size == 0:
            continue
        span = np.frombuffer(data, dtype=np.uint8, count=sec.raw_size, offset=sec.raw_offset)
        starts, ends = kernels.zero_runs(span)
        for s, e in zip(starts, ends):
            if e - s >= min_len:
                caves.append((int(s) + sec.raw_offset, int(e) + sec.raw_offset))
    return tuple(caves)


# -- builder ---------------------------------------------------------------------


@dataclass(frozen=True)
class SectionSpec:
    """What the builder needs to lay out one section."""

    name: str
    content: bytes
    characteristics: int = 0x60000020  # code | executable | readable
    raw_size: int | None = None  # default: content length rounded up to alignment


@dataclass(frozen=True)
class BuildPlan:
    """Ground truth the builder committed to; tests compare it to parse_pe."""

    section_table_offset: int
    size_of_headers: int
    raw_offsets: tuple[int, ...]
    raw_sizes: tuple[int, ...]
    used_lens: tuple[int, ...]
    overlay_start: int


def build_pe(
    sections: list[SectionSpec],
    file_alignment: int = DEFAULT_FILE_ALIGNMENT,
    timestamp: int = 0,
    overlay: bytes = b"",
    table_gap: int = 0,
) -> tuple[bytes, BuildPlan]:
    """Assemble a synthetic file from section specs.

    table_gap reserves extra zero bytes between the section table and the
    first raw offset (inside size_of_headers), which gives section-injecting
    attacks room to grow the table without shifting content.
    """
    if not sections:
        raise ValueError("need at least one section")
    e_lfanew = DOS_HEADER_LEN
    coff_offset = e_lfanew + len(PE_SIGNATURE)
    opt_offset = coff_offset + COFF_LEN
    table_offset = opt_offset + OPT_HEADER_LEN
    table_end = table_offset + len(sections) * SECTION_ENTRY_LEN
    size_of_headers = align_up(table_end + table_gap, file_alignment)

    raw_offsets = []
    raw_sizes = []
    cursor = size_of_headers
    for spec in sections:
        raw = spec.raw_size if spec.raw_size is not None else align_up(len(spec.content), file_alignment)
        if raw < len(spec.content):
            raise ValueError(f"raw_size {raw} smaller than content for section {spec.name!r}")
        raw_offsets.append(cursor)
        raw_sizes.append(raw)
        cursor += raw
    overlay_start = cursor

    buf = bytearray(overlay_start + len(overlay))
    buf[0:2] = b"MZ"
    struct.pack_into("<I", buf, E_LFANEW_OFFSET, e_lfanew)
    buf[e_lfanew : e_lfanew + 4] = PE_SIGNATURE
    struct.pack_into(
        "<HHIIIHH",
        buf,
        coff_offset,
        MACHINE_I386,
        len(sections),
        timestamp & 0xFFFFFFFF,
        0,
        0,
        OPT_HEADER_LEN,
        0x0102,  # executable, 32-bit
    )

    section_align = 0x1000
    va = section_align
    vas = []
    for spec, raw in zip(sections, raw_sizes):
        vas.append(va)
        va = align_up(va + max(len(spec.content), 1), section_align)
    size_of_image = va

    struct.pack_into(
        "<HBBIIIIII",
        buf,
        opt_offset,
        OPT_MAGIC_PE32,
        14,
        0,
        raw_sizes[0],
        sum(raw_sizes[1:]),
        0,
        vas[0],  # entry point at start of first section
        vas[0],
        vas[-1],
    )
    struct.pack_into("<III", buf, opt_offset + 28, 0x400000, section_align, file_alignment)
    struct.pack_into("<HHHHHH", buf, opt_offset + 40, 6, 0, 0, 0, 6, 0)
    struct.pack_into("<IIII", buf, opt_offset + 52, 0, size_of_image, size_of_headers, 0)
    struct.pack_into("<HH", buf, opt_offset + 68, 3, 0x8140)  # console subsystem
    struct.pack_into("<IIII", buf, opt_offset + 72, 0x100000, 0x1000, 0x100000, 0x1000)
    struct.pack_into("<II", buf, opt_offset + 88, 0, 16)
    # 16 data directories stay zeroed

    for i, (spec, off, raw, va_i) in enumerate(zip(sections, raw_offsets, raw_sizes, vas)):
        entry = table_offset + i * SECTION_ENTRY_LEN
        buf[entry : entry + SECTION_ENTRY_LEN] = section_entry_bytes(
            spec.name, len(spec.content), va_i, raw, off, spec.characteristics
        )
        buf[off : off + len(spec.content)] = spec.content

    buf[overlay_start:] = overlay

    plan = BuildPlan(
        section_table_offset=table_offset,
        size_of_headers=size_of_headers,
        raw_offsets=tuple(raw_offsets),
        raw_sizes=tuple(raw_sizes),
        used_lens=tuple(_used_len(s.content) for s in sections),
        overlay_start=overlay_start,
    )
    return bytes(buf), plan


# -- byte-level patch helpers used by the attacks --------------------------------


def patch_u16(buf: bytearray, offset: int, value: int) -> None:
    struct.pack_into("<H", buf, offset, value & 0xFFFF)


def patch_u32(buf: bytearray, offset: int, value: int) -> None:
    struct.pack_into("<I", buf, offset, value & 0xFFFFFFFF)


def shift_section_offsets(buf: bytearray, layout: PeLayout, threshold: int, delta: int) -> None:
    """Add delta to the raw_offset of every section at or past threshold.

    Works on the section table inside buf; layout describes the table
    position in the ORIGINAL coordinates, so call this before any edit
    that moves the table itself.
    """
    for i, sec in enumerate(layout.sections):
        if sec.raw_size == 0 and sec.raw_offset == 0:
            continue
        if sec.raw_offset >= threshold:
            patch_u32(buf, layout.section_entry_offset(i) + 20, sec.raw_offset + delta)


def patch_size_of_headers(buf: bytearray, layout: PeLayout, new_value: int) -> None:
    if layout.opt_header_size >= _OPT_SIZE_OF_HEADERS_OFF + 4:
        patch_u32(buf, layout.opt_header_offset + _OPT_SIZE_OF_HEADERS_OFF, new_value)


def section_contents(data: bytes, layout: PeLayout) -> list[bytes]:
    """Used content (zero tail stripped) of each non-empty section."""
    out = []
    for sec, used in zip(layout.sections, layout.used_lens):
        if used > 0:
            out.append(data[sec.raw_offset : sec.raw_offset + used])
    return out
