#!/bin/sh
# Negative-compile gate, run from ctest.
#
# The control cases must compile; each negative case must be rejected by the
# compiler with a diagnostic that names the violation, proving the strong
# types (or the InlineFn fit guard) actually forbid it — not that the file
# is broken for an unrelated reason.
set -e
cxx="$1"
repo="$2"
if [ -z "$cxx" ] || [ -z "$repo" ]; then
  echo "usage: $0 <c++-compiler> <repo-root>" >&2
  exit 2
fi

err=$(mktemp)
trap 'rm -f "$err"' EXIT

for control in control_ok.cc inline_fn_fits_ok.cc; do
  "$cxx" -std=c++20 -fsyntax-only -I"$repo" \
      "$repo/tests/negative_compile/$control"
  echo "PASS $control compiles"
done

expect_reject() {
  file="$1"
  pattern="$2"
  if "$cxx" -std=c++20 -fsyntax-only -I"$repo" \
      "$repo/tests/negative_compile/$file" 2>"$err"; then
    echo "FAIL: $file compiled; the type system no longer rejects it" >&2
    exit 1
  fi
  if ! grep -qE "$pattern" "$err"; then
    echo "FAIL: $file was rejected, but not for the expected reason:" >&2
    cat "$err" >&2
    exit 1
  fi
  echo "PASS $file rejected ($pattern)"
}

expect_reject simtime_plus_simtime.cc "operator\+"
expect_reject slotid_to_blockaddr.cc "convert|no matching"
expect_reject inline_fn_oversize.cc "outgrew DiskCompletionFn"
