#!/usr/bin/env bash
# Tier-2 sanitizer gate (optional): ThreadSanitizer; Miri is a SKIP.
#
# This script is NOT part of tier-1 (`scripts/tier1.sh`). It needs a
# nightly toolchain, which the baseline container does not guarantee, so
# a missing toolchain degrades to a loud SKIP instead of a failure. Run it
# before merging changes to unsafe code, `rtle_htm::atomic`'s orderings,
# the lane claim table, or the publication protocol — the static gates
# (the protocol-word types and clippy's std-atomic and `UnsafeCell` bans,
# `rtle-check`'s models) fix the orderings and model the protocols, this
# script exercises the real ones.
#
# Stages:
#   1. Miri: always SKIP. The `miri` component is not installed and
#      cannot be installed offline.
#   2. ThreadSanitizer build + run of the multi-threaded suites: the
#      8-thread stress tests (`window_stress`, `mixed_stress`,
#      `cross_shard_stress`, `observability`), the lane hand-over unit
#      tests (`rtle-htm --lib lanes`) and `tests/fast_path_sharing.rs`
#      (3 x LANES threads, some exiting mid-run): real threads, real
#      interleavings, TSan's happens-before checking over the emulated-HTM
#      commit protocol and the lane claim/hand-back. The standard library
#      is not rebuilt (no `rust-src`, no `-Zbuild-std`), so
#      `-Cunsafe-allow-abi-mismatch=sanitizer` lets the instrumented crates
#      link against the uninstrumented std; reports from inside std are
#      printed as warnings and do not fail a suite.
#
# Usage: scripts/sanitize.sh [miri|tsan]    (default: both)

set -u
cd "$(dirname "$0")/.."

stage="${1:-all}"
failures=0

have_nightly() {
    rustup toolchain list 2>/dev/null | grep -q nightly
}

run_miri() {
    echo "== tier-2: miri =="
    echo "SKIP: Miri is not installed and cannot be installed offline"
}

run_tsan() {
    echo "== tier-2: thread sanitizer =="
    if ! command -v rustup >/dev/null 2>&1 || ! have_nightly; then
        echo "SKIP: no nightly toolchain installed (rustup toolchain install nightly)"
        return 0
    fi
    local host
    host="$(rustc -vV | sed -n 's/^host: //p')"
    # The suites whose schedules TSan can actually vary.
    local suites=(
        "-p rtle-obs --test window_stress"
        "-p rtle-htm --test mixed_stress"
        "-p rtle-shard --test cross_shard_stress"
        "-p rtle-core --test observability"
        "-p rtle-htm --lib lanes"
        "-p refined-tle --test fast_path_sharing"
    )
    for s in "${suites[@]}"; do
        echo "-- tsan cargo test $s"
        # shellcheck disable=SC2086
        if ! RUSTFLAGS="-Zsanitizer=thread -Cunsafe-allow-abi-mismatch=sanitizer" \
            cargo +nightly test -q --offline --target "$host" \
            --target-dir target/tsan $s; then
            echo "FAIL: tsan $s"
            failures=$((failures + 1))
        fi
    done
}

case "$stage" in
    miri) run_miri ;;
    tsan) run_tsan ;;
    all)  run_miri; run_tsan ;;
    *) echo "usage: $0 [miri|tsan]"; exit 2 ;;
esac

if [ "$failures" -ne 0 ]; then
    echo "sanitize: FAILED ($failures stage(s))"
    exit 1
fi
echo "sanitize: OK (Miri and any stage without its tooling were skipped, not failed)"
