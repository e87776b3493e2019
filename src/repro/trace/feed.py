"""TraceFeed: replay a binary tracefile as a first-class simulator feed.

A :class:`TraceFeed` is a :class:`~repro.workloads.feed.ReplayFeed` whose
ops come from a tracefile on disk, so it flows through both cycle-loop
backends (python/native) unchanged — the native engine picks up the
materialized ``ops`` list and cached ``columns()`` exactly as it does for
any replay feed, and stats come out bit-identical.

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
from repro.workloads.trace import DynOp


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

    def slice(self, start: int, stop: int, *, name: str | None = None) -> ReplayFeed:
        """A re-sequenced window [start, stop) as an independent feed.

        The backends' column decoder requires ``op.seq`` to equal stream
        position, so sliced ops are cloned with dense seq numbers rather
        than aliased.
        """
        start = max(0, start)
        stop = min(stop, len(self.ops))
        window = [_reseq(op, seq) for seq, op in enumerate(self.ops[start:stop])]
        feed = ReplayFeed(
            window,
            name=name or f"{self.name}[{start}:{stop}]",
            pc_address=self.pc_address,
        )
        return feed


def trace_token(content_hash: str) -> str:
    """The benchmark-identity string for a trace workload."""
    return f"tracefile:{content_hash}"


def _reseq(op: DynOp, seq: int) -> DynOp:
    return DynOp(
        seq=seq,
        pc=op.pc,
        opcode=op.opcode,
        op_class=op.op_class,
        dest=op.dest,
        srcs=op.srcs,
        sched_deps=op.sched_deps,
        store_data_reg=op.store_data_reg,
        mem_addr=op.mem_addr,
        taken=op.taken,
        next_pc=op.next_pc,
        static_target=op.static_target,
        is_two_source_format=op.is_two_source_format,
        is_eliminated_nop=op.is_eliminated_nop,
    )


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
