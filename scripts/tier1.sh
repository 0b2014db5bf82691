#!/usr/bin/env bash
# Tier-1 gate: formatting, release build, the full test suite (in release,
# then in debug with overflow checks and debug assertions on), clippy and
# rustdoc, the interleaving model, the seeded protocol mutant, the fuzz campaign, real
# RTM where it commits, the checked-in figures and the benchmark harness's
# self-tests.
# Every check of a document a binary writes is a cargo test (the binaries
# themselves are driven by crates/bench/tests/cli.rs); what is left here
# is what only a shell can hold: exit codes, wall-clock budgets, and
# builds under other features.
set -euo pipefail
cd "$(dirname "$0")/.."

now_ms() { echo $(( $(date +%s%N) / 1000000 )); }
secs() { printf '%d.%d' $(( $1 / 1000 )) $(( $1 % 1000 / 100 )); }
run_start="$(now_ms)"
stage_name=""
# `stage NAME` reports how long the previous stage took and opens the next.
stage_done() {
    [ -z "$stage_name" ] || echo "-- $stage_name: $(secs $(( $(now_ms) - stage_start ))) s"
}
stage() {
    stage_done
    stage_name="$1"
    stage_start="$(now_ms)"
    echo "== $1 =="
}

# Every `cargo test` below runs under `timeout`: a test binary that hangs
# (a spinning partner thread whose stop flag is never raised, a lost
# wakeup) fails its stage in minutes instead of stalling the gate. On a
# 2-core box the whole workspace suite runs in under a minute once built;
# the single-target invocations take seconds.
test_timeout=900
cargo_test() {
    timeout --kill-after=30 "$test_timeout" cargo test "$@" || {
        status=$?
        if [ "$status" -eq 124 ] || [ "$status" -eq 137 ]; then
            echo "cargo test $* timed out after ${test_timeout}s — a test binary hung"
        fi
        exit "$status"
    }
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

stage "format (rustfmt --check)"
# The tree is rustfmt-clean, root workspace and benchmark package alike:
# a mis-formatted line fails here, before anything is built.
cargo fmt --all --check
cargo fmt --manifest-path benchmark/Cargo.toml --check

stage "build (release)"
cargo build --workspace --release
cargo build --workspace --examples
# The root, check and fuzz manifests each promise a workspace with no
# external dependency (rtle-check now links rtle-core, and that is all it
# may come to): every package of the resolved graph — normal, build and
# dev edges — is a workspace member, or the stage fails naming the stranger.
strangers="$(cargo tree --workspace --offline -e normal,build,dev --prefix none \
    | awk 'NF && $1 != "refined-tle" && $1 !~ /^rtle-/ { print $1 }' | sort -u)"
if [ -n "$strangers" ]; then
    echo "the workspace depends on packages outside itself:" $strangers
    exit 1
fi

stage "tests"
# Includes tests/fast_path_sharing.rs (counter-lane/clock/recorder-lane
# layout, lane books vs per-thread ground truth), the htm zombie hunt, the
# software rung's allocation gate (crates/core/tests/software_rung_allocs.rs:
# a warm rung allocates nothing) and the sharded map's
# (crates/shard/tests/call_allocs.rs: a warm execute_batch allocates only
# its result, a cross-shard transfer or compare_and_swap_pair nothing) and
# atomically's (crates/stm/tests/atomically_allocs.rs: a warm lookup or
# or_else transfer allocates nothing, a touch under 0.1 a call, because
# its call site skips the hardware rung and only a re-probe, one call in
# 65, pays the unwind's two), so a per-call allocation on any of these
# paths fails here, crates/stm/tests/hostile_sites.rs (a call site whose
# body cannot commit in hardware starts on the software rung and probes
# the hardware again after at most 64 skipped calls; without a software
# rung it never skips),
# crates/stm/tests/rollback.rs (an or_else first branch that wrote and
# retried leaves no trace on the Spec, Sw and Locked rungs, the Sw rung on
# NOrec, TL2 and RH-NOrec; on Spec its rollback is one unsupported abort
# and a software commit; a retry after a store, or after reading its own
# store, publishes nothing and parks within a 10 s deadline),
# tests/one_software_rung.rs (one software backend per lock, one
# descriptor builder, and RH-NOrec on the lock's ladder: no enter_sw/
# exit_sw, sw_count, TmCtx::hw, HtmFast/HtmSlow or record_hw_abort in
# crates/hytm/src, whose one swhtm::try_txn is the reduced commit),
# tests/one_abort_vocabulary.rs (`AbortCode`
# is the only abort enum; its class labels are spelled only in
# htm/src/abort.rs), the
# recorder overhead gate of crates/bench/tests/overhead.rs (a recorded
# lock records every operation — two TSC reads and plain stores on the
# thread's own lane — for at most bare + 100 ns), and
# crates/bench/tests/cli.rs, which runs the real
# `slo_bench` and `diag` binaries: the forced single-lock collapse must
# trip the watchdog, write a flight record and show on /metrics and /json
# while the run is hot, with the sharded map silent under the identical
# schedule; the viewers must render both documents; `diag 8 --quick
# --json --trace --heatmap` must write a parseable document and a clean
# Chrome trace.
cargo_test --workspace --release -q

stage "tests (debug: overflow checks + debug assertions)"
# The same suite in the dev profile: the release profile, which the
# figures and the benchmark build, turns off overflow checks and
# `debug_assert!`, so without this stage no gate runs them (the clock
# code's wraparound claims, the lanes' and tables' debug assertions). On
# a 2-core box it takes ~2.5 min including the debug build.
cargo_test --workspace -q

stage "clippy (deny warnings)"
# The workspace's one token-level lint gate: every package, every target,
# every feature, under the root Cargo.toml's `[workspace.lints]` table
# (`missing_docs`, `undocumented_unsafe_blocks`) plus the hot-path
# modules' own `#![warn(clippy::unwrap_used, clippy::panic)]`
# (clippy.toml exempts test code from those two). It also holds the
# sharded map's lock order: crates/shard/clippy.toml disallows
# `ElidableLock::lock_section` in rtle-shard outside its one sorting
# section constructor, so a shard lock taken anywhere else fails here.
# And it holds publication: both clippy.toml files disallow
# `std::cell::UnsafeCell`, so a raw publication (data through a raw cell,
# then a flag) fails here unless a reviewed `#[expect]` names why. And the
# memory orderings: both files disallow the std atomic types and
# `fence`/`compiler_fence`, so every shared word is one of
# `rtle_htm::atomic`'s types, whose methods each fix their ordering
# (crates/htm/src/atomic.rs, the one module that may name std atomics);
# a new std atomic or fence in production code fails here.
# `--all-features` also type-checks the `rtm` backend and the seeded
# protocol mutant (`tl2-stale-read-mutant`), so the seeded code cannot
# rot while staying caught. The benchmark package is its own workspace:
# it is linted too, check only.
cargo clippy --workspace --all-targets --all-features -q -- -D warnings
cargo clippy --manifest-path benchmark/Cargo.toml --all-targets -q -- -D warnings

stage "rustdoc (deny warnings)"
# Every intra-doc link resolves, and none points at a private item from
# public documentation.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

stage "interleaving model"
# rtle-check runs the model checker:
# one generic explorer + terminal judge (`model::explore::<M>`,
# `model::judge`) over every `impl Machine`, which must verify every safe
# configuration — three row families: the TLE machine's eight (`tle-*`,
# `rwtle-*`, `fgtle-*`; its choice of rung is the runtime's
# `RetryPolicy::next_step`), the versioned-lock protocol's seven
# (`swhtm-*`: cached rv, snapshot extension as the clock's only writer,
# the own-write exemption — what `Tl2` and the emulated HTM run) and the
# park's one (`park-holder-two-waiters`: register, re-check, park; a
# release that wakes only when the waiter count says so) — and
# catch its six seeded mutants: `tle-lazyunsafe-mutant` (unsafe lazy
# subscription), `tl2-stale-read-mutant` (skipped commit-time
# revalidation), `swhtm-validate-first-mutant` (the extension that
# validates before it raises the clock), `swhtm-carry-wv-mutant` (a
# commit that carries its drawn version instead of its clock sample),
# `park-release-skips-check` and `park-register-after-recheck` (each a
# lost wakeup). A violation or a missed mutant is a non-zero exit.
# Every row's counts are pinned by crates/check/tests/golden/model_rows.txt.
# The §4 fence after the orec stamp is crates/check/tests/one_home.rs's,
# in the tests stages above.
cargo run -p rtle-check --release

stage "seeded protocol mutant must fail the storms"
# The stale-read mutant skips the commit-time read-set validation in
# rtle-htm's versioned-lock protocol, so it breaks both instances. It is
# *run*, not just type-checked: one oracle-checked storm per instance must
# exit non-zero under it (each caught it in every run in release on a
# 2-core box). What the model explorer and the pinned fuzz seed catch is
# the model's copy of the bug; this stage is the check on the code's. The
# storms are blind to some protocol bugs — a commit that carries its
# drawn version instead of its clock sample passes both — so each rule of
# the clock is also pinned by a deterministic unit test in
# crates/htm/src/stripe.rs and crates/hytm/src/tl2.rs.
mutant_must_fail() {
    # It must build (a compile error is not a catch), then fail.
    cargo test --release -q --features "$1" -p "$2" --test "$3" --no-run
    if timeout --kill-after=30 "$test_timeout" \
        cargo test --release -q --features "$1" -p "$2" --test "$3" >/dev/null 2>&1; then
        echo "tl2-stale-read-mutant: $2 --test $3 passed under the mutant"
        exit 1
    fi
    echo "ok: $2 --test $3 fails under the mutant"
}
mutant_must_fail rtle-htm/tl2-stale-read-mutant rtle-hytm backend_agreement
mutant_must_fail tl2-stale-read-mutant rtle-htm serializability

stage "fuzz (seeded quick campaign + mutant fitness)"
# Fixed seed: the campaign is deterministic on the model side (PCT hunts,
# mutant fitness — the same machines as above, through the one generic
# `run_pct`/`replay`/`hunt` of rtle-fuzz's schedule.rs) and oracle-checked
# on the chaos side. Exit code gates: a missed mutant, any model
# violation, any chaos divergence, or a chaos run that stayed on one path
# (lock-backed: fast, slow and lock commits; TL2-backed: HTM and STM) fails.
fuzz_json="$tmp/fuzz.json"
cargo run -p rtle-fuzz --release --bin fuzz -- run --quick --seed 0xf422 --json "$fuzz_json" >/dev/null
grep -q '"tool":"rtle-fuzz"' "$fuzz_json" || { echo "fuzz json missing"; exit 1; }
# The export must list every seeded mutant as caught: a `mutant_fitness`
# entry is a hunt report, and a caught mutant is one that is not clean
# (the writer sorts keys, so `clean` sits right before `config`).
for mutant in tle-lazyunsafe-mutant tl2-stale-read-mutant swhtm-validate-first-mutant \
    swhtm-carry-wv-mutant park-release-skips-check park-register-after-recheck; do
    grep -q "\"clean\":false,\"config\":\"$mutant\"" "$fuzz_json" \
        || { echo "fuzz json: $mutant not reported as caught"; exit 1; }
done

stage "real RTM (hardware in the loop)"
# Where the CPU commits hardware transactions, the elision runtimes run on
# real `xbegin`/`xend`: rtle-core's suite under the `rtm` feature, whose
# `tests/rtm_real.rs` drives genuine hardware commits. Elsewhere (no TSX,
# or TSX force-aborted by microcode) this stage prints a loud SKIP and
# never fails. `rtm_probe` tries 1000 one-line transactions.
probe="$(cargo run -q --release -p rtle-htm --features rtm --example rtm_probe)"
echo "$probe"
rtm_commits="$(echo "$probe" | sed -n 's/^commits=\([0-9]*\) .*/\1/p')"
if [ "${rtm_commits:-0}" -gt 0 ]; then
    cargo_test --release -q -p rtle-core --features rtm
else
    echo "!!! SKIP: no RTM transaction commits on this machine — the rtm suite did NOT run !!!"
fi

stage "results reproduce"
# The simulator is deterministic and results/README.md promises the
# checked-in figures regenerate bit-for-bit. Hold it with the four
# cheapest figure binaries at full scale (NOrec/RHNOrec software paths,
# multi-lock Lock.orig, TLE, RW-TLE, FG-TLE): any differing byte fails.
for fig in fig08 fig09 fig10 fig13; do
    ./target/release/"$fig" > "$tmp/$fig.txt"
    cmp "$tmp/$fig.txt" "results/$fig.txt" \
        || { echo "results/$fig.txt no longer reproduces: regenerate it with the change that moved it"; exit 1; }
done

stage "benchmark harness self-tests"
# The repo benchmark (BENCHMARK.json, benchmark/) is its own package:
# build it against the changed crates and run its harness self-tests
# (~6 s; each workload runs 200 ms against its exact oracles). `--locked`,
# as benchmark/run.sh builds it: a new dependency edge in a crate the
# benchmark links would make cargo rewrite benchmark/Cargo.lock, and
# cargo names that and fails here instead.
cargo_test --offline --locked --manifest-path benchmark/Cargo.toml -q

stage_done
echo "tier1: all green in $(secs $(( $(now_ms) - run_start ))) s"
