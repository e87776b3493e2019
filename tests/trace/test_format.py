"""Tracefile container: round trips, determinism, corruption rejection."""

import struct
import zlib
from itertools import islice

import pytest

from repro.isa.assembler import INSTRUCTION_BYTES
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
