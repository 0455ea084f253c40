#!/bin/sh
# Re-records the pinned chaos-soak fault-counter summaries,
# tests/goldens/chaos/<seed>-<backend>.txt, the way the CI chaos job produces
# them: the `chaos` preset (Debug + UBSan) and one chaos_soak_test run per
# seed x backend, each appending its summary to a fresh file.
#
# Usage (from the repository root):
#   sh tools/record_chaos_goldens.sh
# Re-pin only for a deliberate change in fault handling, and name the
# changed files and the reason in CHANGES.md.
set -eu
cmake --preset chaos >/dev/null
cmake --build build-chaos -j "$(nproc)" --target chaos_soak_test >/dev/null
mkdir -p tests/goldens/chaos
for seed in 101 202 303; do
  for backend in mirror raid5 ec; do
    out="tests/goldens/chaos/${seed}-${backend}.txt"
    rm -f "$out"
    MIMDRAID_CHAOS_SEED="$seed" MIMDRAID_CHAOS_BACKEND="$backend" \
      MIMDRAID_CHAOS_SUMMARY="$PWD/$out" ./build-chaos/tests/chaos_soak_test \
      >/dev/null
    echo "recorded $out"
  done
done
