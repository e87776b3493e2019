"""Tracefile container: round trips, determinism, corruption rejection."""

import hashlib
import json
import struct
import zlib
from itertools import islice

import pytest

from repro.isa.assembler import INSTRUCTION_BYTES
from repro.isa.opcodes import OPCODE_BY_NAME
from repro.pipeline.config import FOUR_WIDE
from repro.pipeline.processor import simulate
from repro.trace.capture import (
    capture_kernel,
    capture_program,
    capture_stream,
    program_sha256,
)
from repro.trace.feed import TraceFeed
from repro.trace.format import (
    MAGIC,
    TRACE_FORMAT_VERSION,
    TraceFormatError,
    TraceReader,
    TraceWriter,
    isa_version,
    read_header,
)
from repro.workloads.feed import EmulatorFeed, ReplayFeed
from repro.workloads.kernels import kernel_program
from repro.workloads.profiles import SPEC_BENCHMARKS, get_profile
from repro.workloads.synthetic import SyntheticWorkload
from repro.workloads.trace import DynOp

FIELDS = (
    "seq",
    "pc",
    "opcode",
    "op_class",
    "dest",
    "srcs",
    "sched_deps",
    "store_data_reg",
    "mem_addr",
    "taken",
    "next_pc",
    "static_target",
    "is_two_source_format",
    "is_eliminated_nop",
)


#: Round-trip inputs: an emulator kernel (captured whole) and synthetic
#: SPEC clones (captured for SYNTHETIC_OPS ops; their streams are endless).
SOURCES = ("strsearch", "gcc", "mcf", "eon", "vortex")
SYNTHETIC_OPS = 3_000


def live_ops(source):
    """The live dynamic stream a capture of *source* persists."""
    if source in SPEC_BENCHMARKS:
        workload = SyntheticWorkload(get_profile(source), seed=9)
        return list(islice(workload, SYNTHETIC_OPS))
    return list(EmulatorFeed(kernel_program(source), name=source))


def capture_source(tmp_path, source):
    path = tmp_path / f"{source}.hpt"
    capture_stream(live_ops(source), path, name=source)
    return path


def capture(tmp_path, kernel="strsearch", chunk_records=None, **kwargs):
    path = tmp_path / f"{kernel}.hpt"
    if chunk_records is None:
        capture_kernel(kernel, path, **kwargs)
    else:
        program = kernel_program(kernel, **kwargs)
        with TraceWriter(
            path,
            name=kernel,
            program_sha256=program_sha256(program),
            chunk_records=chunk_records,
        ) as writer:
            writer.extend(EmulatorFeed(program, name=kernel))
    return path


class TestRoundTrip:
    def test_every_persisted_field_is_identical(self, tmp_path):
        for source in SOURCES:
            live = live_ops(source)
            replayed = list(TraceReader(capture_source(tmp_path, source)).ops())
            assert len(replayed) == len(live), source
            for original, decoded in zip(live, replayed):
                for name in FIELDS:
                    assert getattr(original, name) == getattr(decoded, name), (
                        source,
                        name,
                    )

    @pytest.mark.parametrize("source", ["branchy_max", "gcc", "perl"])
    def test_simulation_from_trace_matches_live(self, tmp_path, source):
        """Simulating the decoded trace gives the live stream's IPC.

        A tracefile maps static instruction ids to byte addresses with the
        ISA's instruction size (the emulator's own mapping); the live
        stream is simulated under that mapping too, since a synthetic
        clone spaces its PCs differently.
        """
        trace = TraceFeed(capture_source(tmp_path, source))
        live = ReplayFeed(
            live_ops(source), pc_address=lambda pc: pc * INSTRUCTION_BYTES
        )
        expected = simulate(live, FOUR_WIDE, max_insts=10**6, warmup=0)
        replay = simulate(trace, FOUR_WIDE, max_insts=10**6, warmup=0)
        assert replay.ipc == expected.ipc
        assert replay.stats.committed == expected.stats.committed

    def test_small_chunks_round_trip(self, tmp_path):
        whole = list(TraceReader(capture(tmp_path)).ops())
        chunked = list(TraceReader(capture(tmp_path, chunk_records=64)).ops())
        assert len(whole) == len(chunked)
        for a, b in zip(whole, chunked):
            for name in FIELDS:
                assert getattr(a, name) == getattr(b, name), name

    def test_limit_truncates_the_stream(self, tmp_path):
        path = tmp_path / "fib.hpt"
        header = capture_kernel("fibonacci", path, limit=40)
        assert header["insts"] == 40
        assert len(list(TraceReader(path).ops())) == 40
        assert len(list(TraceReader(path).ops(limit=7))) == 7

    def test_capture_is_byte_deterministic(self, tmp_path):
        first = capture(tmp_path / "a", kernel="sieve")
        second = capture(tmp_path / "b", kernel="sieve")
        assert first.read_bytes() == second.read_bytes()

    def test_header_identity_fields(self, tmp_path):
        program = kernel_program("dotproduct")
        path = tmp_path / "dot.hpt"
        capture_program(program, path, name="dot")
        header = read_header(path)
        assert header["format_version"] == TRACE_FORMAT_VERSION
        assert header["isa_version"] == isa_version()
        assert header["program_sha256"] == program_sha256(program)
        assert header["name"] == "dot"

    def test_program_hash_ignores_labels_not_substance(self):
        program = kernel_program("dotproduct")
        assert program_sha256(program) == program_sha256(program)
        other = kernel_program("dotproduct", n=32)
        assert program_sha256(program) != program_sha256(other)


def one_line(error: pytest.ExceptionInfo) -> str:
    message = str(error.value)
    assert "\n" not in message
    return message


class TestCorruptionRejection:
    def test_bad_magic(self, tmp_path):
        path = capture(tmp_path, kernel="fibonacci")
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError) as error:
            read_header(path)
        assert "magic" in one_line(error)

    def test_truncated_mid_chunk(self, tmp_path):
        path = capture(tmp_path, kernel="fibonacci")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 30])
        with pytest.raises(TraceFormatError) as error:
            list(TraceReader(path).ops())
        one_line(error)

    def test_tampered_chunk_payload(self, tmp_path):
        path = capture(tmp_path, kernel="fibonacci")
        blob = bytearray(path.read_bytes())
        header_len = struct.unpack_from("<I", blob, len(MAGIC))[0]
        # first byte of the first chunk's compressed payload
        payload = len(MAGIC) + 4 + header_len + 4 + 16
        blob[payload] ^= 0x55
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError) as error:
            list(TraceReader(path).ops())
        assert "CRC" in one_line(error) or "crc" in one_line(error)

    def test_trailing_garbage(self, tmp_path):
        path = capture(tmp_path, kernel="fibonacci")
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(TraceFormatError) as error:
            list(TraceReader(path).ops())
        one_line(error)

    def test_unsupported_version(self, tmp_path):
        path = capture(tmp_path, kernel="fibonacci")
        blob = bytearray(path.read_bytes())
        header_len = struct.unpack_from("<I", blob, len(MAGIC))[0]
        start = len(MAGIC) + 4
        text = blob[start : start + header_len].decode("utf-8")
        # same length so the framing stays valid; only the value changes
        mutated = text.replace(
            f'"format_version": {TRACE_FORMAT_VERSION}', '"format_version": 9'
        )
        assert mutated != text
        raw = mutated.encode("utf-8")
        assert len(raw) == header_len
        blob[start : start + header_len] = raw
        struct.pack_into("<I", blob, start + header_len, zlib.crc32(raw))
        path.write_bytes(bytes(blob))
        with pytest.raises(TraceFormatError) as error:
            read_header(path)
        assert "version" in one_line(error)

    def test_not_a_tracefile(self, tmp_path):
        path = tmp_path / "junk.hpt"
        path.write_text("not a tracefile")
        with pytest.raises(TraceFormatError):
            read_header(path)


# ----------------------------------------------------------------------
# Record encoding edge cases: multi-byte varints and forged chunks.
# ----------------------------------------------------------------------
_SEQ, _DEST, _MEM = 0x80, 0x08, 0x10


def _uv(value: int) -> bytes:
    """LEB128, written independently of the module under test."""
    out = bytearray()
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _sv(value: int) -> bytes:
    return _uv(value << 1 if value >= 0 else (-value << 1) - 1)


def forge(path, payload: bytes, records: int, opcodes=("ADD",)):
    """A tracefile whose one chunk holds *payload*, with a valid header,
    CRCs and content hash, so only the record decoder can object."""
    header = {
        "format": "repro-tracefile",
        "format_version": TRACE_FORMAT_VERSION,
        "isa_version": isa_version(),
        "name": "forged",
        "insts": records,
        "trace_sha256": hashlib.sha256(payload).hexdigest(),
        "program_sha256": None,
        "source": None,
        "chunk_records": records,
        "opcodes": list(opcodes),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    comp = zlib.compress(payload)
    path.write_bytes(
        MAGIC
        + struct.pack("<I", len(blob)) + blob + struct.pack("<I", zlib.crc32(blob))
        + struct.pack("<IIII", records, len(payload), len(comp), zlib.crc32(comp)) + comp
        + struct.pack("<IIII", 0, 0, 0, 0)
    )
    return path


def _class(opcode: str):
    return OPCODE_BY_NAME[opcode].op_class


def _record(op_index: int, pc_delta: int, flags: int = _SEQ) -> bytes:
    """One register-free record: flags, opcode index, PC delta, no operands."""
    return bytes([flags]) + _uv(op_index) + _sv(pc_delta) + bytes([0, 0])


class TestMultiByteVarints:
    def test_every_varint_field_round_trips_at_multi_byte_sizes(self, tmp_path):
        ops = [
            # +200k PC delta, a forward next_pc jump and a far forward target
            DynOp(0, 200_000, "BEQ", _class("BEQ"), srcs=(3,), sched_deps=(3,),
                  taken=True, next_pc=200_000 + 1 + 90_000, static_target=290_001),
            # a large negative PC delta and a 2^40 address
            DynOp(1, 3, "LDQ", _class("LDQ"), dest=4, srcs=(5,), sched_deps=(5,),
                  mem_addr=1 << 40, next_pc=70_000),
            # a large negative memory delta
            DynOp(2, 70_000, "STQ", _class("STQ"), srcs=(4, 5), sched_deps=(5,),
                  store_data_reg=4, mem_addr=8),
            # a far backward target and next_pc
            DynOp(3, 70_001, "JMP", _class("JMP"), taken=True, next_pc=9,
                  static_target=9),
            DynOp(4, 9, "ADD", _class("ADD"), dest=1, srcs=(1, 2), sched_deps=(1, 2),
                  is_two_source_format=True),
        ]
        path = tmp_path / "far.hpt"
        with TraceWriter(path, name="far", chunk_records=2) as writer:
            writer.extend(ops)
        decoded = list(TraceReader(path).ops())
        assert len(decoded) == len(ops)
        for original, back in zip(ops, decoded):
            for name in FIELDS:
                assert getattr(original, name) == getattr(back, name), name
        assert [op.seq for op in TraceReader(path).ops(limit=3)] == [0, 1, 2]

    def test_multi_byte_opcode_index(self, tmp_path):
        # A table of 200 entries puts index 150 past one varint byte.
        opcodes = ["ADD"] * 150 + ["LDQ"] * 50
        # The second record has a non-sequential next_pc and dest register 7.
        payload = (
            _record(150, 1_000_000, _SEQ | _MEM) + _sv(1 << 30)
            + bytes([_DEST]) + _uv(3) + _sv(-999_000) + _sv(-77_777) + bytes([7, 0, 0])
        )
        path = forge(tmp_path / "wide.hpt", payload, 2, opcodes)
        first, second = TraceReader(path).ops()
        assert (first.opcode, first.pc, first.next_pc, first.mem_addr) == (
            "LDQ", 1_000_000, 1_000_001, 1 << 30,
        )
        assert (second.opcode, second.pc, second.next_pc, second.dest) == (
            "ADD", 1_000, 1_000 + 1 - 77_777, 7,
        )


class TestForgedChunks:
    """Records a valid writer never produces, behind valid checksums."""

    @pytest.mark.parametrize(
        "payload,records,message",
        [
            # the opcode index's continuation bit is set on the last byte
            (bytes([_SEQ, 0x80]), 1, "record payload ends inside a varint"),
            # the PC delta runs off the end
            (bytes([_SEQ, 0x00, 0xFF]), 1, "record payload ends inside a varint"),
            # the payload ends where the opcode index should start
            (bytes([_SEQ]), 1, "record payload ends inside a varint"),
            (_record(300, 0), 1, "record 0: opcode index 300 out of table"),
            (_record(0, 4) + _record(1, 4), 2, "record 1: opcode index 1 out of table"),
            # DEST is flagged but the register byte is missing
            (bytes([_SEQ | _DEST, 0x00, 0x00]), 1, "{path}: chunk 1 ends mid-record"),
            # the source count promises more bytes than remain
            (bytes([_SEQ, 0x00, 0x00, 0x03, 0x01]), 1, "{path}: chunk 1 ends mid-record"),
            (_record(0, 0), 2, "{path}: chunk 1 ends mid-record"),
            (_record(0, 0) + b"\x00", 1, "{path}: chunk 1 has trailing garbage"),
        ],
        ids=["opcode-varint", "pc-varint", "no-varint", "opcode-300", "opcode-second",
             "no-dest", "short-srcs", "missing-record", "trailing"],
    )
    def test_message(self, tmp_path, payload, records, message):
        path = forge(tmp_path / "forged.hpt", payload, records)
        with pytest.raises(TraceFormatError) as error:
            list(TraceReader(path).ops())
        assert one_line(error) == message.format(path=path)
