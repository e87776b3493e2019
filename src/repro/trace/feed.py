"""TraceFeed: replay a binary tracefile as a first-class simulator feed.

A :class:`TraceFeed` is a :class:`~repro.workloads.feed.ReplayFeed` whose
ops come from a tracefile on disk, so it flows through both cycle-loop
backends (python/native) unchanged — both iterate it like any other feed
(the native engine through its chunked ingest), and stats come out
bit-identical.

Identity is the header's ``trace_sha256`` content hash: cache fingerprints
and serve-job routing key on :attr:`content_hash`, never on the filesystem
path or mtime, so copying or re-capturing a trace hits the same cache
entries.
"""

from __future__ import annotations

from pathlib import Path

from repro.isa.assembler import INSTRUCTION_BYTES
from repro.trace.format import TraceReader, read_header
from repro.workloads.feed import ReplayFeed


class TraceFeed(ReplayFeed):
    """A tracefile materialized for simulation.

    Loading decodes and verifies the whole file (chunk CRCs plus the
    end-of-stream content hash), so a feed that constructs at all is known
    good.  ``limit`` truncates the load for quick looks; note a truncated
    load cannot verify the trailing content hash, so it skips straight to
    the per-chunk CRCs.
    """

    def __init__(self, path: str | Path, *, limit: int | None = None):
        self.path = Path(path)
        reader = TraceReader(self.path)
        self.header = reader.header
        self.content_hash: str = self.header["trace_sha256"]
        if limit is not None and limit < self.header["insts"]:
            ops = list(reader.ops(limit=limit))
        else:
            ops = list(reader.ops())
        super().__init__(ops, name=self.header["name"])

    # Traced PCs are static instruction ids, same as EmulatorFeed's; the
    # instruction-cache model needs byte addresses.
    def pc_address(self, pc: int) -> int:
        return pc * INSTRUCTION_BYTES

    def token(self) -> str:
        """Cache identity for this workload (content hash, not path)."""
        return trace_token(self.content_hash)


def trace_token(content_hash: str) -> str:
    """The benchmark-identity string for a trace workload."""
    return f"tracefile:{content_hash}"


def trace_info(path: str | Path) -> dict:
    """Header plus file facts for listings (no record decoding)."""
    path = Path(path)
    header = read_header(path)
    return {
        "path": str(path),
        "name": header["name"],
        "insts": header["insts"],
        "trace_sha256": header["trace_sha256"],
        "program_sha256": header.get("program_sha256"),
        "isa_version": header["isa_version"],
        "format_version": header["format_version"],
        "source": header.get("source"),
        "bytes": path.stat().st_size,
    }
