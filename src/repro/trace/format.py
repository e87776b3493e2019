"""Binary tracefile format for captured dynamic instruction streams.

A *tracefile* persists a long execution of the HPRISC functional emulator
(or any program-order :class:`~repro.workloads.trace.DynOp` stream) in a
compact, versioned, self-describing container so multi-million-instruction
workloads can be shipped, replayed and sampled without re-running the
emulator.  Layout::

    magic (8 bytes)  \x89 H P T \r \n \x1a \n
    u32  header length
    header            canonical JSON (sorted keys, utf-8)
    u32  CRC-32 of the header bytes
    chunk*            [u32 records][u32 raw len][u32 comp len][u32 CRC-32]
                      followed by `comp len` bytes of zlib data
    terminator        a chunk header of four zero words

The header carries everything a reader needs to interpret (or refuse) the
file without decoding a single record: ``format_version``, an
``isa_version`` digest of the opcode table the trace was encoded against,
the per-file opcode string table, the record count, the **program content
hash** (SHA-256 over the traced program's instructions and initial data)
and the **trace content hash** (SHA-256 over the uncompressed record
payload) — the digest the result cache keys file-backed workloads on, so
fingerprints follow content, never paths or mtimes.

Records are delta-encoded: PCs and memory addresses are zigzag-varint
deltas against the previous record, sequential ``next_pc`` collapses into
a flag bit, and register operands are single bytes.  Chunks are
independently zlib-compressed and CRC-checked, so a truncated or tampered
file is rejected with a one-line :class:`TraceFormatError` instead of
being replayed into garbage statistics.

Everything here is stdlib-only and byte-deterministic: capturing the same
workload twice produces identical files, which CI exploits to verify the
committed corpus is reproducible from source.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import ReproError
from repro.isa.opcodes import OPCODE_BY_NAME
from repro.workloads.trace import DynOp

#: PNG-style magic: high bit guards 7-bit transports, CRLF/LF pairs guard
#: newline translation, ^Z stops accidental ``type`` on DOS-likes.
MAGIC = b"\x89HPT\r\n\x1a\n"

#: Bump when the container layout or record encoding changes shape.
TRACE_FORMAT_VERSION = 1

#: Records per compressed chunk (the seek/validate granularity).
DEFAULT_CHUNK_RECORDS = 16_384

#: Hard ceiling on the header blob — anything bigger is not one of ours.
_MAX_HEADER_BYTES = 1 << 20

_CHUNK_HEADER = struct.Struct("<IIII")

# Per-record flag bits.
_F_TAKEN = 0x01
_F_TWO_SRC_FMT = 0x02
_F_NOP = 0x04
_F_DEST = 0x08
_F_MEM = 0x10
_F_STORE_DATA = 0x20
_F_TARGET = 0x40
_F_SEQ = 0x80  # next_pc == pc + 1


class TraceFormatError(ReproError):
    """Raised on malformed, truncated or tampered tracefiles."""


def isa_version() -> str:
    """Digest of this build's opcode table (12 hex chars).

    Stamped into every header; a reader whose ISA lost an opcode the file
    uses refuses the file with a clear message rather than mis-decoding.
    """
    payload = ",".join(sorted(OPCODE_BY_NAME))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:12]


# ----------------------------------------------------------------------
# Varint primitives (LEB128 unsigned; zigzag for signed deltas).
# ----------------------------------------------------------------------
def _write_uv(buf: bytearray, value: int) -> None:
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def _write_sv(buf: bytearray, value: int) -> None:
    _write_uv(buf, (value << 1) if value >= 0 else ((-value << 1) - 1))


def _read_uv(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise TraceFormatError("record payload ends inside a varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
class TraceWriter:
    """Streaming tracefile writer.

    Records are delta-encoded into an in-memory chunk buffer; full chunks
    are compressed immediately, so memory holds one raw chunk plus the
    compressed stream (a few bytes per instruction).  The header — which
    needs the final record count and content hash — is written at
    :meth:`close`, and the whole file lands via an atomic rename so a
    crashed capture never leaves a half-written tracefile behind.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        name: str = "trace",
        source: dict | None = None,
        program_sha256: str | None = None,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
    ):
        if chunk_records < 1:
            raise TraceFormatError("chunk_records must be >= 1")
        self.path = Path(path)
        self.name = name
        self.source = source
        self.program_sha256 = program_sha256
        self.chunk_records = chunk_records
        self.count = 0
        self._buf = bytearray()
        self._in_chunk = 0
        self._chunks: list[tuple[int, int, bytes]] = []
        self._sha = hashlib.sha256()
        self._opcodes: list[str] = []
        self._opcode_index: dict[str, int] = {}
        self._prev_pc = 0
        self._prev_addr = 0
        self._closed = False

    # ------------------------------------------------------------------
    def append(self, op: DynOp) -> None:
        """Encode one dynamic instruction."""
        buf = self._buf
        flags = 0
        if op.taken:
            flags |= _F_TAKEN
        if op.is_two_source_format:
            flags |= _F_TWO_SRC_FMT
        if op.is_eliminated_nop:
            flags |= _F_NOP
        if op.dest is not None:
            flags |= _F_DEST
        if op.mem_addr is not None:
            flags |= _F_MEM
        if op.store_data_reg is not None:
            flags |= _F_STORE_DATA
        if op.static_target is not None:
            flags |= _F_TARGET
        if op.next_pc == op.pc + 1:
            flags |= _F_SEQ
        buf.append(flags)
        index = self._opcode_index.get(op.opcode)
        if index is None:
            index = self._opcode_index[op.opcode] = len(self._opcodes)
            self._opcodes.append(op.opcode)
        _write_uv(buf, index)
        _write_sv(buf, op.pc - self._prev_pc)
        self._prev_pc = op.pc
        if not flags & _F_SEQ:
            _write_sv(buf, op.next_pc - (op.pc + 1))
        if flags & _F_DEST:
            buf.append(op.dest)
        buf.append(len(op.srcs))
        buf.extend(op.srcs)
        buf.append(len(op.sched_deps))
        buf.extend(op.sched_deps)
        if flags & _F_STORE_DATA:
            buf.append(op.store_data_reg)
        if flags & _F_MEM:
            _write_sv(buf, op.mem_addr - self._prev_addr)
            self._prev_addr = op.mem_addr
        if flags & _F_TARGET:
            _write_sv(buf, op.static_target - op.pc)
        self.count += 1
        self._in_chunk += 1
        if self._in_chunk >= self.chunk_records:
            self._flush_chunk()

    def extend(self, ops: Iterable[DynOp], limit: int | None = None) -> int:
        """Append up to *limit* ops from *ops*; returns the count taken."""
        taken = 0
        for op in ops:
            if limit is not None and taken >= limit:
                break
            self.append(op)
            taken += 1
        return taken

    def _flush_chunk(self) -> None:
        if not self._buf:
            return
        raw = bytes(self._buf)
        self._sha.update(raw)
        self._chunks.append((self._in_chunk, len(raw), zlib.compress(raw, 6)))
        self._buf.clear()
        self._in_chunk = 0

    # ------------------------------------------------------------------
    def header(self) -> dict:
        """The header as it will be (or was) written."""
        return {
            "format": "repro-tracefile",
            "format_version": TRACE_FORMAT_VERSION,
            "isa_version": isa_version(),
            "name": self.name,
            "insts": self.count,
            "trace_sha256": self._sha.hexdigest(),
            "program_sha256": self.program_sha256,
            "source": self.source,
            "chunk_records": self.chunk_records,
            "opcodes": list(self._opcodes),
        }

    def close(self) -> dict:
        """Flush, write the file atomically, and return the header."""
        if self._closed:
            raise TraceFormatError("writer is already closed")
        self._flush_chunk()
        self._closed = True
        header = self.header()
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        temp = self.path.with_name(self.path.name + ".tmp")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(temp, "wb") as handle:
            handle.write(MAGIC)
            handle.write(struct.pack("<I", len(blob)))
            handle.write(blob)
            handle.write(struct.pack("<I", zlib.crc32(blob)))
            for records, raw_len, comp in self._chunks:
                handle.write(_CHUNK_HEADER.pack(records, raw_len, len(comp), zlib.crc32(comp)))
                handle.write(comp)
            handle.write(_CHUNK_HEADER.pack(0, 0, 0, 0))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.path)
        return header

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.close()
        else:  # leave no temp droppings behind a failed capture
            self.path.with_name(self.path.name + ".tmp").unlink(missing_ok=True)


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
def _read_exact(handle, n: int, path: Path, what: str) -> bytes:
    data = handle.read(n)
    if len(data) != n:
        raise TraceFormatError(f"{path}: truncated tracefile ({what})")
    return data


def read_header(path: str | Path) -> dict:
    """Read and validate only the header (cheap: no record decoding).

    This is what fingerprinting, ``repro workloads`` and ``repro trace
    info`` call — listing a corpus never decompresses a chunk.
    """
    path = Path(path)
    try:
        handle = open(path, "rb")
    except OSError as error:
        raise TraceFormatError(f"{path}: {error.strerror or error}") from None
    with handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise TraceFormatError(f"{path}: not a repro tracefile (bad magic)")
        (length,) = struct.unpack("<I", _read_exact(handle, 4, path, "header length"))
        if length > _MAX_HEADER_BYTES:
            raise TraceFormatError(f"{path}: implausible header length {length}")
        blob = _read_exact(handle, length, path, "header")
        (crc,) = struct.unpack("<I", _read_exact(handle, 4, path, "header checksum"))
        if zlib.crc32(blob) != crc:
            raise TraceFormatError(f"{path}: header checksum mismatch (corrupt file)")
        try:
            header = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise TraceFormatError(f"{path}: header is not valid JSON") from None
    if not isinstance(header, dict) or header.get("format") != "repro-tracefile":
        raise TraceFormatError(f"{path}: not a repro tracefile header")
    version = header.get("format_version")
    if version != TRACE_FORMAT_VERSION:
        raise TraceFormatError(
            f"{path}: tracefile format version {version!r} "
            f"(this build reads {TRACE_FORMAT_VERSION})"
        )
    for key in ("name", "insts", "trace_sha256", "opcodes", "chunk_records"):
        if key not in header:
            raise TraceFormatError(f"{path}: header is missing {key!r}")
    unknown = [m for m in header["opcodes"] if m not in OPCODE_BY_NAME]
    if unknown:
        raise TraceFormatError(
            f"{path}: trace uses opcode(s) unknown to this ISA build: {', '.join(unknown)}"
        )
    return header


class TraceReader:
    """Decode a tracefile back into :class:`DynOp` records.

    Iterating yields ops with dense program-order ``seq`` numbers.  Every
    chunk's CRC is verified before decompression and the running content
    hash is verified against the header at end-of-stream, so a bit flip
    anywhere in the body surfaces as one :class:`TraceFormatError` line.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.header = read_header(self.path)

    def __iter__(self) -> Iterator[DynOp]:
        return self.ops()

    def ops(self, limit: int | None = None) -> Iterator[DynOp]:
        """Yield the records in order, one decoded chunk at a time (only
        the first *limit* records when *limit* is given)."""
        header = self.header
        op_names = header["opcodes"]
        op_classes = [OPCODE_BY_NAME[name].op_class for name in op_names]
        sha = hashlib.sha256()
        seq = 0
        prev_pc = 0
        prev_addr = 0
        with open(self.path, "rb") as handle:
            # Skip the already-validated header.
            handle.seek(len(MAGIC))
            (length,) = struct.unpack("<I", handle.read(4))
            handle.seek(len(MAGIC) + 4 + length + 4)
            chunk_number = 0
            while True:
                raw_header = _read_exact(handle, _CHUNK_HEADER.size, self.path, "chunk header")
                records, raw_len, comp_len, crc = _CHUNK_HEADER.unpack(raw_header)
                if records == 0 and raw_len == 0 and comp_len == 0 and crc == 0:
                    if handle.read(1):
                        raise TraceFormatError(
                            f"{self.path}: data after the terminator chunk"
                        )
                    break
                chunk_number += 1
                comp = _read_exact(handle, comp_len, self.path, f"chunk {chunk_number}")
                if zlib.crc32(comp) != crc:
                    raise TraceFormatError(
                        f"{self.path}: chunk {chunk_number} CRC mismatch (corrupt or tampered)"
                    )
                try:
                    raw = zlib.decompress(comp)
                except zlib.error:
                    raise TraceFormatError(
                        f"{self.path}: chunk {chunk_number} does not decompress"
                    ) from None
                if len(raw) != raw_len:
                    raise TraceFormatError(
                        f"{self.path}: chunk {chunk_number} length mismatch"
                    )
                sha.update(raw)
                # A limit below 1 reads as 1: the first record always comes.
                wanted = records if limit is None else min(records, max(1, limit - seq))
                ops, prev_pc, prev_addr = _decode_chunk(
                    raw, wanted, records, seq, prev_pc, prev_addr, op_names, op_classes,
                    f"{self.path}: chunk {chunk_number}",
                )
                yield from ops
                seq += wanted
                if limit is not None and seq >= limit:
                    return
        if seq != header["insts"]:
            raise TraceFormatError(
                f"{self.path}: header promises {header['insts']} records, found {seq}"
            )
        if sha.hexdigest() != header["trace_sha256"]:
            raise TraceFormatError(f"{self.path}: trace content hash mismatch (tampered body)")


def _decode_chunk(raw, count, records, seq, prev_pc, prev_addr, op_names, op_classes, where):
    """Decode the first *count* of a chunk's *records* records.

    Returns the ops and the PC and memory address that the next record's
    deltas start from.  *seq* numbers the first record; *where* names the
    chunk in errors.  The whole loop is one function, and a varint of one
    byte (the common case) is read inline: a record costs no call but the
    :class:`DynOp` it builds.
    """
    ops = []
    append = ops.append
    end = len(raw)
    table = len(op_names)
    pos = 0
    try:
        for seq in range(seq, seq + count):
            if pos >= end:
                raise IndexError
            flags = raw[pos]
            # Each varint: the byte itself if its high bit is clear, else
            # (or past the end) _read_uv, which reports the truncation.
            pos += 1
            if pos < end and (value := raw[pos]) < 0x80:
                pos += 1
            else:
                value, pos = _read_uv(raw, pos)
            if value >= table:
                raise TraceFormatError(f"record {seq}: opcode index {value} out of table")
            opcode = op_names[value]
            op_class = op_classes[value]
            if pos < end and (value := raw[pos]) < 0x80:
                pos += 1
            else:
                value, pos = _read_uv(raw, pos)
            pc = prev_pc + ((value >> 1) ^ -(value & 1))  # zigzag
            prev_pc = pc
            if flags & _F_SEQ:
                next_pc = pc + 1
            else:
                if pos < end and (value := raw[pos]) < 0x80:
                    pos += 1
                else:
                    value, pos = _read_uv(raw, pos)
                next_pc = pc + 1 + ((value >> 1) ^ -(value & 1))
            dest = None
            if flags & _F_DEST:
                dest = raw[pos]
                pos += 1
            stop = pos + 1 + raw[pos]
            if stop > end:
                raise IndexError
            srcs = tuple(raw[pos + 1 : stop])
            pos = stop + 1 + raw[stop]
            if pos > end:
                raise IndexError
            deps = tuple(raw[stop + 1 : pos])
            store_data = None
            if flags & _F_STORE_DATA:
                store_data = raw[pos]
                pos += 1
            mem_addr = None
            if flags & _F_MEM:
                if pos < end and (value := raw[pos]) < 0x80:
                    pos += 1
                else:
                    value, pos = _read_uv(raw, pos)
                mem_addr = prev_addr = prev_addr + ((value >> 1) ^ -(value & 1))
            target = None
            if flags & _F_TARGET:
                if pos < end and (value := raw[pos]) < 0x80:
                    pos += 1
                else:
                    value, pos = _read_uv(raw, pos)
                target = pc + ((value >> 1) ^ -(value & 1))
            append(DynOp(
                seq, pc, opcode, op_class, dest, srcs, deps, store_data, mem_addr,
                bool(flags & _F_TAKEN), next_pc, target,
                bool(flags & _F_TWO_SRC_FMT), bool(flags & _F_NOP),
            ))
    except IndexError:
        raise TraceFormatError(f"{where} ends mid-record") from None
    if count == records and pos != end:
        raise TraceFormatError(f"{where} has trailing garbage")
    return ops, prev_pc, prev_addr
