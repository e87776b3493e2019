#!/usr/bin/env bash
# Regenerate the committed baseline, one subtree per cycle-loop backend:
#
#   results/ci_baseline/python/   reference Processor
#   results/ci_baseline/native/   compiled C-extension backend (needs a
#                                 built repro.fastsim._native artifact)
#
# The trees differ only in the embedded config.backend field and the
# fingerprint — every simulated counter is bit-identical (pinned by the
# cross-backend fuzz gate).  The runs are GATE_BENCHMARKS / GATE_ARGS as
# .github/workflows/ci.yml sets them.
#
# A backend whose prerequisite is missing is SKIPPED WITH A LOUD WARNING
# and listed in the summary below — a partial regeneration must never
# look complete.  Tier-1 pins one subtree per backend byte for byte
# (tests/obs/test_export.py), so a refresh needs both present (build the
# extension via `pip install -e .[native]` first).
#
# Run this after an INTENTIONAL timing-model change, eyeball the diff of
# results/ci_baseline/, and commit it together with the model change.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
  echo "usage: $0" >&2
  exit 2
fi

WORKFLOW=.github/workflows/ci.yml
BENCHMARKS=$(sed -n 's/^  GATE_BENCHMARKS: //p' "$WORKFLOW")
ARGS=$(sed -n 's/^  GATE_ARGS: //p' "$WORKFLOW")
if [[ -z "$BENCHMARKS" || -z "$ARGS" ]]; then
  echo "error: $WORKFLOW sets no GATE_BENCHMARKS / GATE_ARGS" >&2
  exit 1
fi

backend_ready() {
  case "$1" in
    python) return 0 ;;
    native) PYTHONPATH=src python -c \
      'import sys; from repro.fastsim import native_available; sys.exit(0 if native_available() else 1)' ;;
  esac
}

rm -rf results/ci_baseline
baselined=()
skipped=()
for backend in python native; do
  if ! backend_ready "$backend"; then
    skipped+=("$backend")
    echo "WARNING: skipping backend '$backend' — not installed here" \
      "(pip install -e .[native], needs a C compiler)" >&2
    continue
  fi
  PYTHONPATH=src REPRO_BACKEND=$backend python -m repro export-stats $BENCHMARKS \
    $ARGS --jobs 1 \
    --out "results/ci_baseline/$backend"
  baselined+=("$backend")
done

echo "Baseline regenerated."
echo "  baselined: ${baselined[*]}"
if ((${#skipped[@]})); then
  echo "  SKIPPED:   ${skipped[*]}  (tier-1 pins both backends;"
  echo "             do not commit a partial baseline)"
fi
ls -lR results/ci_baseline
