#!/bin/bash
# Kill-and-resume differential for the checkpoint subsystem, driven by
# the deterministic REPRO_FAULT hook instead of the old poll-then-SIGKILL
# race (which could fire before any artifact landed, or after the scaled
# demo already finished):
#
#   1. builds split_attack,
#   2. runs the built-in LOO demo uninterrupted with --digest-out to get
#      the reference per-design and combined result digests,
#   3. runs again with REPRO_FAULT=crash_after_artifact:1 — the process
#      SIGKILLs itself immediately after the second artifact commit
#      (fold 0's model at ordinal 0, fold 0's result at ordinal 1), so
#      exactly one fold result is durable, every time,
#   4. resumes with --resume at a different thread count and asserts the
#      digest file is byte-identical to the uninterrupted reference,
#   5. repeats the differential for a torn write: a run with
#      REPRO_FAULT=corrupt_artifact:1 commits damaged bytes for fold 0's
#      result while the manifest records the true CRC; the resume must
#      detect the mismatch, recompute that fold, and still reproduce the
#      reference digests,
#   6. checks that the single-victim run (no --loo) is fold 0 of the LOO
#      suite: its digest file is byte-identical to --loo --fold 0's,
#   7. crashes a single-victim run with REPRO_FAULT=crash_after_artifact:0
#      (right after fold 0's model commits), checks that fold_0.model is
#      the only artifact left, and resumes at another thread count: the
#      resume must load that model (resume.models_loaded = 1) and
#      reproduce the step-6 digest file byte for byte. This covers resume
#      from a model, which steps 3-5 (stopping at ordinal 1) do not.
#
# No budget flags are used: budget degradation deliberately changes
# results (and records degradation events), so the determinism proof
# runs at full fidelity.
#
# REPRO_SCALE shrinks the demo suite (default 0.12 here) so the whole
# script finishes in well under a minute.
#
# Usage: scripts/check_crash_recovery.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build}
SCALE=${REPRO_SCALE:-0.12}
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target split_attack >/dev/null

BIN="$BUILD_DIR/tools/split_attack"

echo "== crash-recovery: uninterrupted reference run (4 threads) =="
REPRO_SCALE="$SCALE" "$BIN" --demo --loo --threads 4 \
  --digest-out "$OUT/reference.json" >"$OUT/reference.log"
grep -q '"complete": true' "$OUT/reference.json" || {
  echo "FAIL: reference run did not complete"; cat "$OUT/reference.log"
  exit 1
}

echo "== crash-recovery: deterministic crash after fold 0 commits =="
CKPT="$OUT/ckpt"
set +e
REPRO_SCALE="$SCALE" REPRO_FAULT=crash_after_artifact:1 \
  "$BIN" --demo --loo --threads 1 \
  --checkpoint-dir "$CKPT" --digest-out "$OUT/killed.json" \
  >"$OUT/killed.log" 2>&1
KILLED_RC=$?
set -e
# 137 = 128 + SIGKILL: the fault hook killed the process, as demanded.
if [ "$KILLED_RC" -ne 137 ]; then
  echo "FAIL: expected death by SIGKILL (rc 137), got rc $KILLED_RC"
  cat "$OUT/killed.log"
  exit 1
fi
FOLDS_BEFORE_RESUME=$(ls "$CKPT"/fold_*.result 2>/dev/null | wc -l)
echo "   crashed with rc 137; durable fold results: $FOLDS_BEFORE_RESUME"
if [ "$FOLDS_BEFORE_RESUME" -ne 1 ]; then
  echo "FAIL: expected exactly 1 committed fold result, found $FOLDS_BEFORE_RESUME"
  exit 1
fi

echo "== crash-recovery: resume at a different thread count (8) =="
REPRO_SCALE="$SCALE" "$BIN" --demo --loo --threads 8 \
  --checkpoint-dir "$CKPT" --resume --digest-out "$OUT/resumed.json" \
  >"$OUT/resumed.log"

echo "== crash-recovery: differential =="
if ! diff -u "$OUT/reference.json" "$OUT/resumed.json"; then
  echo "FAIL: resumed digests differ from the uninterrupted reference"
  exit 1
fi
COMBINED=$(sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p' "$OUT/resumed.json" |
  head -1)
echo "combined digest reproduced across kill+resume: $COMBINED"

echo "== crash-recovery: torn-write (corrupt artifact, true CRC) =="
CKPT2="$OUT/ckpt-corrupt"
REPRO_SCALE="$SCALE" REPRO_FAULT=corrupt_artifact:1 \
  "$BIN" --demo --loo --threads 1 \
  --checkpoint-dir "$CKPT2" --digest-out "$OUT/corrupt.json" \
  >"$OUT/corrupt.log" 2>&1 || true
# Resume from the poisoned checkpoint: fold 0's result fails its CRC,
# gets recomputed, and the digests must still match the reference.
REPRO_SCALE="$SCALE" "$BIN" --demo --loo --threads 2 \
  --checkpoint-dir "$CKPT2" --resume --digest-out "$OUT/healed.json" \
  >"$OUT/healed.log" 2>&1
if ! grep -q "corrupt" "$OUT/healed.log"; then
  echo "FAIL: resume did not report the corrupt artifact"
  cat "$OUT/healed.log"
  exit 1
fi
if ! diff -u "$OUT/reference.json" "$OUT/healed.json"; then
  echo "FAIL: digests after corrupt-artifact recovery differ from reference"
  exit 1
fi
echo "   corrupt fold result detected and recomputed; digests match"

echo "== crash-recovery: single-victim run is LOO fold 0 =="
REPRO_SCALE="$SCALE" "$BIN" --demo --threads 4 \
  --digest-out "$OUT/single.json" >"$OUT/single.log"
REPRO_SCALE="$SCALE" "$BIN" --demo --loo --fold 0 --threads 4 \
  --digest-out "$OUT/fold0.json" >"$OUT/fold0.log"
if ! cmp "$OUT/single.json" "$OUT/fold0.json"; then
  echo "FAIL: single-victim digests differ from --loo --fold 0"
  diff -u "$OUT/single.json" "$OUT/fold0.json" || true
  exit 1
fi
echo "   single-victim and --fold 0 digest files are byte-identical"

echo "== crash-recovery: single-victim crash after the model commits =="
CKPT3="$OUT/ckpt-single"
set +e
REPRO_SCALE="$SCALE" REPRO_FAULT=crash_after_artifact:0 \
  "$BIN" --demo --threads 1 \
  --checkpoint-dir "$CKPT3" --digest-out "$OUT/single-killed.json" \
  >"$OUT/single-killed.log" 2>&1
KILLED_RC=$?
set -e
if [ "$KILLED_RC" -ne 137 ]; then
  echo "FAIL: expected death by SIGKILL (rc 137), got rc $KILLED_RC"
  cat "$OUT/single-killed.log"
  exit 1
fi
ARTIFACTS=$(cd "$CKPT3" && ls | grep -v '^manifest' | tr '\n' ' ')
if [ "$ARTIFACTS" != "fold_0.model " ]; then
  echo "FAIL: expected only fold_0.model after the crash, found: $ARTIFACTS"
  exit 1
fi
REPRO_SCALE="$SCALE" "$BIN" --demo --threads 2 \
  --checkpoint-dir "$CKPT3" --resume --digest-out "$OUT/single-resumed.json" \
  --metrics-out "$OUT/single-resumed-metrics.json" >"$OUT/single-resumed.log"
if ! grep -q '"resume.models_loaded": 1[,}]' \
    "$OUT/single-resumed-metrics.json"; then
  echo "FAIL: the resume did not load fold 0's model"
  exit 1
fi
if ! cmp "$OUT/single.json" "$OUT/single-resumed.json"; then
  echo "FAIL: single-victim digests after resume-from-model differ"
  diff -u "$OUT/single.json" "$OUT/single-resumed.json" || true
  exit 1
fi
echo "   crashed with only fold_0.model; resumed from it; digests match"
echo "crash-recovery check passed"
