#!/usr/bin/env python3
"""Explore the circuit-level timing models (Sections 3.3 and 4).

Usage::

    python examples/circuit_timing.py

Reproduces the paper's two anchor claims and sweeps the analytic models
over window sizes and port counts to show the scaling trends the paper's
argument rests on.
"""

from repro.timing.regfile_delay import RegisterFileDelayModel
from repro.timing.technology import TECH_0_18_UM, TechnologyNode
from repro.timing.wakeup_delay import WakeupDelayModel


def main() -> None:
    wakeup = WakeupDelayModel()
    regfile = RegisterFileDelayModel()

    print("Paper anchors (Section 3.3 / Section 4)")
    conventional = wakeup.conventional_delay(64, 4)
    sequential = wakeup.sequential_wakeup_delay(64, 4)
    print(f"  wakeup, 4-wide 64-entry: {conventional:.0f} ps conventional, "
          f"{sequential:.0f} ps sequential "
          f"({(conventional - sequential) / sequential:.1%} speedup; paper: 24.6%)")
    full, reduced = regfile.paper_anchor()
    print(f"  register file, 160 entries: {full:.2f} ns @24 ports, "
          f"{reduced:.2f} ns @16 ports "
          f"({(full - reduced) / full:.1%} drop; paper: 20.5%)")

    print("\nWakeup delay vs. window size (ps, 0.18um)")
    print(f"  {'entries':>8} {'conventional':>13} {'sequential':>11} {'saved':>7}")
    for entries in (16, 32, 64, 128, 256):
        base = wakeup.conventional_delay(entries)
        fast = wakeup.sequential_wakeup_delay(entries)
        print(f"  {entries:>8} {base:>13.0f} {fast:>11.0f} {base - fast:>6.0f}")

    print("\nWakeup delay vs. machine width (ps, 64 entries)")
    for width in (2, 4, 8, 16):
        base = wakeup.conventional_delay(64, width)
        fast = wakeup.sequential_wakeup_delay(64, width)
        print(f"  {width:>2}-wide: {base:>6.0f} -> {fast:>6.0f}")

    print("\nRegister file access time vs. read+write ports (ns, 160 entries)")
    for ports in (8, 12, 16, 20, 24, 32):
        time = regfile.access_time(160, ports)
        area = regfile.relative_area(160, ports) / regfile.relative_area(160, 8)
        print(f"  {ports:>2} ports: {time:5.2f} ns, {area:4.1f}x area (vs 8 ports)")

    print("\nTechnology scaling of the wakeup anchor (conventional 64-entry)")
    nodes = (TechnologyNode("0.25um", 0.25), TECH_0_18_UM, TechnologyNode("0.13um", 0.13))
    for tech in nodes:
        model = WakeupDelayModel(tech)
        print(f"  {tech.name}: {model.conventional_delay(64):.0f} ps")


if __name__ == "__main__":
    main()
