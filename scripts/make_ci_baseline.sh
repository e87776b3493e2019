#!/usr/bin/env bash
# Regenerate the committed CI regression-gate baseline, one subtree per
# cycle-loop backend:
#
#   results/ci_baseline/python/   reference Processor
#   results/ci_baseline/native/   compiled C-extension backend (needs a
#                                 built repro.fastsim._native artifact)
#
# The trees differ only in the embedded config.backend field and the
# fingerprint — every simulated counter is bit-identical (pinned by the
# cross-backend fuzz gate).
#
# A backend whose prerequisite is missing is SKIPPED WITH A LOUD WARNING
# and listed in the summary below — a partial regeneration must never
# look complete.  CI's regression gate covers both subtrees, so a
# baseline refresh intended for CI needs both present (build the
# extension via `pip install -e .[native]` first).
#
# Run this after an INTENTIONAL timing-model change, eyeball the diff of
# results/ci_baseline/, and commit it together with the model change.  The
# arguments must stay in sync with GATE_BENCHMARKS / GATE_ARGS in
# .github/workflows/ci.yml — the gate job replays exactly this command and
# scorecards the result against the committed tree.  The sync check below
# fails fast if the two ever drift apart.
#
# `make_ci_baseline.sh --check` regenerates NOTHING: it verifies that the
# committed baseline is one this checkout can actually reproduce — every
# backend subtree present with the expected per-benchmark exports, and no
# subtree for a backend available_backends() cannot produce here.  CI's
# regression gate runs it before exporting, so a baseline committed from a
# machine with a stale or exotic toolchain fails loudly instead of gating
# against files nothing can regenerate.
set -euo pipefail
cd "$(dirname "$0")/.."

CHECK=0
if [[ "${1:-}" == "--check" ]]; then
  CHECK=1
elif [[ $# -gt 0 ]]; then
  echo "usage: $0 [--check]" >&2
  exit 2
fi

BENCHMARKS="gzip gcc"
ARGS="--insts 2000 --warmup 1000 --seed 7 --no-cache"

WORKFLOW=.github/workflows/ci.yml
ci_benchmarks=$(sed -n 's/^  GATE_BENCHMARKS: //p' "$WORKFLOW")
ci_args=$(sed -n 's/^  GATE_ARGS: //p' "$WORKFLOW")
if [[ "$ci_benchmarks" != "$BENCHMARKS" || "$ci_args" != "$ARGS" ]]; then
  echo "error: $WORKFLOW and $0 disagree on the gate command:" >&2
  echo "  ci.yml:  GATE_BENCHMARKS='$ci_benchmarks' GATE_ARGS='$ci_args'" >&2
  echo "  script:  GATE_BENCHMARKS='$BENCHMARKS' GATE_ARGS='$ARGS'" >&2
  echo "Update both together, then rerun." >&2
  exit 1
fi

backend_ready() {
  case "$1" in
    python) return 0 ;;
    native) PYTHONPATH=src python -c \
      'import sys; from repro.fastsim import native_available; sys.exit(0 if native_available() else 1)' ;;
  esac
}

if ((CHECK)); then
  producible=$(PYTHONPATH=src python -c \
    'from repro.fastsim import available_backends; print(" ".join(available_backends()))')
  status=0
  # Every committed subtree must name a backend this checkout can run.
  for tree in results/ci_baseline/*/; do
    [[ -d "$tree" ]] || { echo "error: no committed baseline subtrees under results/ci_baseline/" >&2; exit 1; }
    backend=$(basename "$tree")
    if [[ " $producible " != *" $backend "* ]]; then
      echo "error: committed baseline '$backend' is not producible here (available: $producible)" >&2
      status=1
    fi
  done
  # Every gated backend+benchmark must have its export committed.
  for backend in python native; do
    if ! backend_ready "$backend"; then
      echo "note: backend '$backend' not installed here; skipping its presence check" >&2
      continue
    fi
    for benchmark in $BENCHMARKS; do
      count=$(find "results/ci_baseline/$backend" -name "${benchmark}__*.stats.json" 2>/dev/null | wc -l)
      if ((count == 0)); then
        echo "error: results/ci_baseline/$backend/ has no export for benchmark '$benchmark'" >&2
        status=1
      fi
    done
  done
  if ((status)); then
    echo "Baseline check FAILED — regenerate with scripts/make_ci_baseline.sh" >&2
    exit 1
  fi
  echo "Baseline check OK: committed subtrees match producible backends ($producible)"
  exit 0
fi

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
  echo "  SKIPPED:   ${skipped[*]}  (CI gates both backends;"
  echo "             do not commit a partial baseline for a CI refresh)"
fi
ls -lR results/ci_baseline
