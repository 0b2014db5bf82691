#!/usr/bin/env bash
# Tier-1 gate: release build, full test suite, and a diag --json smoke
# check that validates the observability export end-to-end.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --workspace --release
cargo build --workspace --examples

# Every `cargo test` below runs under `timeout`: a test binary that hangs
# (a spinning partner thread whose stop flag is never raised, a lost
# wakeup) fails its stage in minutes instead of stalling the gate. On a
# 2-core box the whole workspace suite runs in under a minute once built
# (building the test targets takes a few more); the single-target
# invocations take seconds.
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

echo "== tests =="
# Includes tests/fast_path_sharing.rs (counter-lane/clock/recorder-lane
# layout, lane books vs per-thread ground truth — HtmStats, ExecStats and
# the recorder with windows on), the htm zombie hunt, and the sampled-
# recorder overhead gate of crates/bench/tests/overhead.rs (2.5 x bare +
# 50 ns).
cargo_test --workspace --release -q

echo "== clippy (deny warnings) =="
cargo clippy --all-targets -q -- -D warnings

echo "== rtle-check (lint + path-sensitive analysis + interleaving model) =="
# Zero-findings gate: `all` runs the lint, the four concurrency passes
# (lockset, lock-order, publication, §4 fence — any unsuppressed finding
# or missed seeded mutant is a non-zero exit), and the model checker:
# one generic explorer + terminal judge (`model::explore::<M>`,
# `model::judge`) over every `impl Machine`, which must verify every safe
# configuration (TLE family, TL2, and the emulated HTM's cached-rv +
# snapshot-extension `swhtm-*` twins) and catch its three seeded mutants:
# unsafe lazy subscription, the TL2 stale read, and the swhtm extension
# that validates before it samples.
# The analyze step is re-run standalone below to enforce its wall-clock
# budget and validate the JSON export.
cargo run -p rtle-check --release

echo "== rtle-check analyze budget + JSON export =="
tmp_check="$(mktemp -d)"
check_json="$tmp_check/check.json"
t0="$(date +%s%N)"
./target/release/rtle-check analyze --json "$check_json" >/dev/null
t1="$(date +%s%N)"
analyze_ms=$(( (t1 - t0) / 1000000 ))
echo "analyze wall-clock: ${analyze_ms} ms"
if [ "$analyze_ms" -ge 5000 ]; then
    echo "analyze blew its 5 s whole-workspace budget (${analyze_ms} ms)"
    exit 1
fi
cat > /tmp/tier1_check_smoke.rs <<'RS'
fn main() {
    use rtle_obs::Json;
    let path = std::env::args().nth(1).unwrap();
    let text = std::fs::read_to_string(&path).expect("read check json");
    let j = rtle_obs::parse_json(&text).expect("check json must parse");
    assert_eq!(j.get("kind").and_then(Json::as_str), Some("check-findings"));
    assert_eq!(j.get("tool").and_then(Json::as_str), Some("rtle-check"));
    assert_eq!(
        j.get("schema_version").and_then(Json::as_u64),
        Some(rtle_obs::SCHEMA_VERSION),
        "schema version mismatch"
    );
    let findings = j.get("findings").and_then(Json::as_arr).expect("findings");
    let live = findings
        .iter()
        .filter(|f| f.get("suppressed") == Some(&Json::Bool(false)))
        .count();
    assert_eq!(live, 0, "unsuppressed findings in export");
    let mutants = j.get("mutants").and_then(Json::as_arr).expect("mutants");
    assert_eq!(mutants.len(), 2, "both seeded mutants must be reported");
    for m in mutants {
        let feat = m.get("feature").and_then(Json::as_str).unwrap_or("?");
        assert_eq!(
            m.get("caught"),
            Some(&Json::Bool(true)),
            "seeded mutant {feat} missed"
        );
    }
    println!(
        "ok: {} findings (all suppressed), {} mutants caught",
        findings.len(),
        mutants.len()
    );
}
RS
check_obs_rlib="$(ls -t target/release/deps/librtle_obs-*.rlib | head -1)"
rustc --edition 2021 -O --extern rtle_obs="$check_obs_rlib" \
    -L dependency=target/release/deps \
    -o /tmp/tier1_check_smoke /tmp/tier1_check_smoke.rs
/tmp/tier1_check_smoke "$check_json"

echo "== seeded analyzer mutants still compile =="
# The mutants are feature-gated out of every normal build; type-check
# them so the seeded code cannot rot while staying caught.
cargo check -q -p rtle-shard --features mutant-lock-order
cargo check -q -p rtle-htm --features mutant-publication

echo "== seeded protocol mutant must fail the storms =="
# The stale-read mutant lives where the `wv == rv + 2` shortcut does, in
# rtle-htm's versioned-lock protocol, so it breaks both instances. It is
# *run*, not just type-checked: one oracle-checked storm per instance must
# exit non-zero under it (each caught it 20/20 in release on a 2-core
# box). What the model explorer and the pinned fuzz seed catch is the
# model's copy of the bug; this stage is the check on the code's.
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

echo "== trace-off overhead gate =="
# The causal-tracing feature must be a true no-op when compiled out: the
# overhead suite's trace-off test only exists in this configuration, and
# its every-operation recorder gate (bare + 200 ns) only asserts here,
# where the recorder's price is not mixed with the tracer's.
cargo_test -p rtle-bench --release --no-default-features --test overhead -q

echo "== diag --json/--trace smoke =="
tmp="$(mktemp -d)"
out="$tmp/diag.json"
trace_out="$tmp/diag.trace.json"
cargo run -p rtle-bench --release --bin diag -- 8 --quick --json "$out" --trace "$trace_out" --heatmap >/dev/null
# Validate both documents parse and carry the expected structure (schema
# version; Chrome trace_event shape), using the same parser and validator
# the library ships.
cat > /tmp/tier1_smoke.rs <<'RS'
fn main() {
    let mut args = std::env::args().skip(1);
    let diag_path = args.next().unwrap();
    let trace_path = args.next().unwrap();

    let text = std::fs::read_to_string(&diag_path).expect("read diag json");
    let j = rtle_obs::parse_json(&text).expect("diag json must parse");
    let v = j.get("schema_version").and_then(rtle_obs::Json::as_u64);
    assert_eq!(v, Some(rtle_obs::SCHEMA_VERSION), "schema version mismatch");
    let methods = j.get("methods").and_then(rtle_obs::Json::as_arr).expect("methods");
    assert!(!methods.is_empty(), "no methods in diag output");
    println!("ok: {} methods, schema v{}", methods.len(), v.unwrap());

    let text = std::fs::read_to_string(&trace_path).expect("read trace json");
    let t = rtle_obs::parse_json(&text).expect("trace json must parse");
    let n = rtle_obs::trace::validate_chrome(&t).expect("Chrome trace_event shape");
    assert!(n >= methods.len(), "at least one event per method process");
    println!("ok: trace with {n} events");
}
RS
obs_rlib="$(ls -t target/release/deps/librtle_obs-*.rlib | head -1)"
rustc --edition 2021 -O --extern rtle_obs="$obs_rlib" \
    -L dependency=target/release/deps \
    -o /tmp/tier1_smoke /tmp/tier1_smoke.rs
/tmp/tier1_smoke "$out" "$trace_out"

echo "== fuzz (seeded quick campaign + mutant fitness) =="
# Fixed seed: the campaign is deterministic on the model side (PCT hunts,
# mutant fitness — the same machines as above, through the one generic
# `run_pct`/`replay`/`hunt` of rtle-fuzz's schedule.rs) and oracle-checked
# on the chaos side. Exit code gates: a missed mutant, any model
# violation, or any chaos divergence fails.
fuzz_json="$tmp/fuzz.json"
cargo run -p rtle-fuzz --release --bin fuzz -- run --quick --seed 0xf422 --json "$fuzz_json" >/dev/null
grep -q '"tool":"rtle-fuzz"' "$fuzz_json" || { echo "fuzz json missing"; exit 1; }
# The export must list every seeded mutant as caught: a `mutant_fitness`
# entry is a hunt report, and a caught mutant is one that is not clean
# (the writer sorts keys, so `clean` sits right before `config`).
for mutant in tle-lazyunsafe-mutant tl2-stale-read-mutant swhtm-validate-first-mutant; do
    grep -q "\"clean\":false,\"config\":\"$mutant\"" "$fuzz_json" \
        || { echo "fuzz json: $mutant not reported as caught"; exit 1; }
done

echo "== tm_bench smoke (software-TM three-way + JSON export) =="
# Quick run of the NOrec vs TL2 vs RTLE comparison; the validator checks
# the exported document structurally (all nine engine x mix rows present,
# every cell committed something, the headline ratio computed). The
# >= 2x TL2/NOrec demonstration is a full-mode result (EXPERIMENTS.md) —
# the 60 ms quick cells are too noisy for a ratio gate on a loaded host.
tm_json="$tmp/tm.json"
cargo run -p rtle-bench --release --bin tm_bench -- --quick --json "$tm_json" >/dev/null
cat > /tmp/tier1_tm_smoke.rs <<'RS'
fn main() {
    use rtle_obs::Json;
    let path = std::env::args().nth(1).unwrap();
    let text = std::fs::read_to_string(&path).expect("read tm json");
    let j = rtle_obs::parse_json(&text).expect("tm json must parse");
    assert_eq!(j.get("kind").and_then(Json::as_str), Some("perf-baseline"));
    assert_eq!(j.get("tool").and_then(Json::as_str), Some("tm_bench"));
    assert_eq!(
        j.get("schema_version").and_then(Json::as_u64),
        Some(rtle_obs::SCHEMA_VERSION),
        "schema version mismatch"
    );
    let benches = j.get("benches").and_then(Json::as_arr).expect("benches");
    assert_eq!(benches.len(), 9, "3 engines x 3 mixes");
    let committed = j.get("committed_ops").expect("committed_ops");
    for b in benches {
        let name = b.get("name").and_then(Json::as_str).expect("row name");
        assert!(
            b.get("ns_per_op").and_then(Json::as_f64).expect("ns_per_op") > 0.0,
            "{name}: nonpositive latency"
        );
        assert!(
            committed.get(name).and_then(Json::as_u64).expect("committed row") > 0,
            "{name}: committed nothing"
        );
    }
    let ratio = j
        .get("disjoint_write_tl2_over_norec")
        .and_then(Json::as_f64)
        .expect("headline ratio");
    assert!(ratio > 0.0, "ratio not computed: {ratio}");
    println!("ok: 9 rows, tl2/norec disjoint-write ratio {ratio:.2}x (quick)");
}
RS
rustc --edition 2021 -O --extern rtle_obs="$obs_rlib" \
    -L dependency=target/release/deps \
    -o /tmp/tier1_tm_smoke /tmp/tier1_tm_smoke.rs
/tmp/tier1_tm_smoke "$tm_json"

echo "== stm_bench smoke (composable transactions + retry/wakeup) =="
# Quick run of the composed three-structure transaction sweep plus the
# bounded-buffer handoff. The validator checks the export end-to-end:
# all four space rows committed, the rung mix accounts for every commit
# (lock_only must be fully pessimistic), and the handoff actually parked
# and was woken by notifications — a spinning or lost-wakeup regression
# shows up as parks=0 or timeout-dominated wakes.
stm_json="$tmp/stm.json"
cargo run -p rtle-bench --release --bin stm_bench -- --quick --json "$stm_json" >/dev/null
cat > /tmp/tier1_stm_smoke.rs <<'RS'
fn main() {
    use rtle_obs::Json;
    let path = std::env::args().nth(1).unwrap();
    let text = std::fs::read_to_string(&path).expect("read stm json");
    let j = rtle_obs::parse_json(&text).expect("stm json must parse");
    assert_eq!(j.get("kind").and_then(Json::as_str), Some("perf-baseline"));
    assert_eq!(j.get("tool").and_then(Json::as_str), Some("stm_bench"));
    assert_eq!(
        j.get("schema_version").and_then(Json::as_u64),
        Some(rtle_obs::SCHEMA_VERSION),
        "schema version mismatch"
    );
    let benches = j.get("benches").and_then(Json::as_arr).expect("benches");
    assert_eq!(benches.len(), 4, "four space configurations");
    let committed = j.get("committed_ops").expect("committed_ops");
    let expected = j.get("threads").and_then(Json::as_u64).unwrap()
        * j.get("ops_per_thread").and_then(Json::as_u64).unwrap();
    let mix = j.get("rung_mix").expect("rung_mix");
    for b in benches {
        let name = b.get("name").and_then(Json::as_str).expect("row name");
        assert!(
            b.get("ns_per_op").and_then(Json::as_f64).expect("ns_per_op") > 0.0,
            "{name}: nonpositive latency"
        );
        assert_eq!(
            committed.get(name).and_then(Json::as_u64),
            Some(expected),
            "{name}: lost commits"
        );
        let space = name.rsplit('/').next().unwrap();
        let m = mix.get(space).expect("rung mix row");
        let sum = ["spec", "sw", "locked"]
            .iter()
            .map(|k| m.get(k).and_then(Json::as_u64).unwrap())
            .sum::<u64>();
        assert_eq!(sum, expected, "{space}: rung mix does not account for all commits");
        if space == "lock_only" {
            assert_eq!(
                m.get("locked").and_then(Json::as_u64),
                Some(expected),
                "lock_only space must be fully pessimistic"
            );
        }
    }
    let h = j.get("handoff").expect("handoff section");
    let parks = h.get("parks").and_then(Json::as_u64).expect("parks");
    let notified = h.get("wakes_notified").and_then(Json::as_u64).expect("wakes_notified");
    let timeouts = h.get("wakes_timeout").and_then(Json::as_u64).expect("wakes_timeout");
    assert!(parks >= 1, "bounded-buffer handoff never parked");
    assert!(notified >= 1, "no notified wakeups — consumers relied on timeouts");
    assert!(
        notified > timeouts,
        "wakeups must be mostly notifications ({notified} notified vs {timeouts} timeouts)"
    );
    println!("ok: 4 spaces x {expected} commits, handoff parks={parks} notified={notified}");
}
RS
rustc --edition 2021 -O --extern rtle_obs="$obs_rlib" \
    -L dependency=target/release/deps \
    -o /tmp/tier1_stm_smoke /tmp/tier1_stm_smoke.rs
/tmp/tier1_stm_smoke "$stm_json"

echo "== shard_bench smoke (sharded-map scaling + JSON stats) =="
# Seeded quick run of the sharded-map scaling benchmark; the validator
# checks the merged per-shard stats document end-to-end with the
# library's own parser and that sharding is not slower than the single
# lock (the full >= 2x demonstration lives in EXPERIMENTS.md — this
# gate only smokes structure and direction, to stay robust to scheduler
# noise on loaded machines).
shard_json="$tmp/shard.json"
cargo run -p rtle-bench --release --bin shard_bench -- --quick --seed 0xf422 --json "$shard_json" >/dev/null
cat > /tmp/tier1_shard_smoke.rs <<'RS'
fn main() {
    let path = std::env::args().nth(1).unwrap();
    let text = std::fs::read_to_string(&path).expect("read shard json");
    let j = rtle_obs::parse_json(&text).expect("shard json must parse");
    assert_eq!(j.get("kind").and_then(rtle_obs::Json::as_str), Some("perf-baseline"));
    assert_eq!(j.get("tool").and_then(rtle_obs::Json::as_str), Some("shard_bench"));
    assert_eq!(
        j.get("schema_version").and_then(rtle_obs::Json::as_u64),
        Some(rtle_obs::SCHEMA_VERSION),
        "schema version mismatch"
    );
    let benches = j.get("benches").and_then(rtle_obs::Json::as_arr).expect("benches");
    assert!(!benches.is_empty(), "no bench rows");
    let shards = j.get("shards").and_then(rtle_obs::Json::as_u64).expect("shards") as usize;
    let stats = j.get("shard_stats").expect("embedded shard stats");
    assert_eq!(stats.get("kind").and_then(rtle_obs::Json::as_str), Some("shard-stats"));
    let per_shard = stats.get("per_shard").and_then(rtle_obs::Json::as_arr).expect("per_shard");
    assert_eq!(per_shard.len(), shards, "one stats row per shard");
    assert!(
        stats.get("ops").and_then(rtle_obs::Json::as_u64).expect("ops") > 0,
        "sharded run committed nothing"
    );
    let speedup = j
        .get("speedup_at_max_threads")
        .and_then(rtle_obs::Json::as_f64)
        .expect("speedup");
    println!("ok: {} bench rows, {shards} shards, speedup {speedup:.2}x", benches.len());
    assert!(speedup > 1.0, "sharding slower than the single lock: {speedup:.2}x");
}
RS
rustc --edition 2021 -O --extern rtle_obs="$obs_rlib" \
    -L dependency=target/release/deps \
    -o /tmp/tier1_shard_smoke /tmp/tier1_shard_smoke.rs
/tmp/tier1_shard_smoke "$shard_json"

echo "== slo_bench smoke (open-loop SLO harness + collapse watchdog) =="
# Seeded quick run of the windowed tail-latency harness. The validator
# enforces the PR's demonstrandum end-to-end: the forced single-lock
# collapse must trip the watchdog and write a flight record, while the
# sharded map under the identical arrival schedule stays silent. The
# collapse is physics, not timing luck — the storm's blocking audits
# serialize on the single lock well past its capacity — so this holds
# on a loaded 1-core host.
slo_json="$tmp/slo.json"
flight_dir="$tmp/flight"
mkdir -p "$flight_dir"
cargo run -p rtle-bench --release --bin slo_bench -- \
    --quick --seed 0x510b42d --flight-dir "$flight_dir" --json "$slo_json" >/dev/null 2>&1
cat > /tmp/tier1_slo_smoke.rs <<'RS'
fn main() {
    use rtle_obs::Json;
    let path = std::env::args().nth(1).unwrap();
    let text = std::fs::read_to_string(&path).expect("read slo json");
    let j = rtle_obs::parse_json(&text).expect("slo json must parse");
    assert_eq!(j.get("kind").and_then(Json::as_str), Some("perf-baseline"));
    assert_eq!(j.get("tool").and_then(Json::as_str), Some("slo_bench"));
    assert_eq!(
        j.get("schema_version").and_then(Json::as_u64),
        Some(rtle_obs::SCHEMA_VERSION),
        "schema version mismatch"
    );
    assert!(!j.get("benches").and_then(Json::as_arr).expect("benches").is_empty());
    let slo = j.get("slo").expect("slo section");
    let configs = slo.get("configs").and_then(Json::as_arr).expect("configs");
    assert_eq!(configs.len(), 2, "single_lock + sharded");
    for c in configs {
        let name = c.get("name").and_then(Json::as_str).expect("name");
        let windows = c.get("windows").and_then(Json::as_arr).expect("windows");
        assert!(windows.len() >= 4, "{name}: too few windows");
        for w in windows {
            rtle_obs::WindowSnapshot::from_json(w).expect("window round-trips");
        }
        let dogs = c.get("watchdog").and_then(Json::as_arr).expect("watchdog");
        if name == "single_lock" {
            assert!(!dogs.is_empty(), "single-lock collapse must trip the watchdog");
            let fr = c.get("flight_record").and_then(Json::as_str)
                .expect("collapse must dump a flight record");
            let ftext = std::fs::read_to_string(fr).expect("read flight record");
            let fj = rtle_obs::parse_json(&ftext).expect("flight record parses");
            assert_eq!(fj.get("kind").and_then(Json::as_str), Some("flight-record"));
            println!("ok: {name} fired {} verdict(s), flight record at {fr}", dogs.len());
        } else {
            assert!(dogs.is_empty(), "{name} must stay silent at identical load");
            println!("ok: {name} silent");
        }
    }
}
RS
rustc --edition 2021 -O --extern rtle_obs="$obs_rlib" \
    -L dependency=target/release/deps \
    -o /tmp/tier1_slo_smoke /tmp/tier1_slo_smoke.rs
/tmp/tier1_slo_smoke "$slo_json"
# The offline viewers must render both document kinds.
cargo run -p rtle-bench --release --bin diag -- --slo "$slo_json" >/dev/null
cargo run -p rtle-bench --release --bin diag -- \
    --timeline "$flight_dir"/slo_flight_single_lock.json >/dev/null

echo "== live scrape smoke (telemetry plane under load) =="
# slo_bench runs with the live endpoint on an ephemeral port while a
# compiled checker scrapes /metrics and /json against the running load:
# both routes must stay consistent, and the forced single-lock collapse
# must become visible in the scraped windows with the watchdog mirror
# flipping to fired. The checker is compiled before the bench starts so
# no scrape window is lost to rustc.
cat > /tmp/tier1_live_smoke.rs <<'RS'
use rtle_obs::Json;

fn get(addr: &str, route: &str) -> Option<String> {
    use std::io::{Read, Write};
    let mut c = std::net::TcpStream::connect(addr).ok()?;
    c.set_read_timeout(Some(std::time::Duration::from_secs(5))).ok();
    write!(c, "GET {route} HTTP/1.0\r\n\r\n").ok()?;
    let mut s = String::new();
    c.read_to_string(&mut s).ok()?;
    let (head, body) = s.split_once("\r\n\r\n")?;
    if !head.lines().next()?.contains("200") {
        return None;
    }
    Some(body.to_string())
}

fn main() {
    let addr = std::env::args().nth(1).unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut scrapes = 0u64;
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "collapse never became visible over {scrapes} scrapes"
        );
        let (Some(metrics), Some(json)) = (get(&addr, "/metrics"), get(&addr, "/json")) else {
            panic!("endpoint went away after {scrapes} scrapes without a visible collapse");
        };
        scrapes += 1;
        let j = rtle_obs::parse_json(&json).expect("live json parses");
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("live-registry"));
        assert_eq!(
            j.get("schema_version").and_then(Json::as_u64),
            Some(rtle_obs::SCHEMA_VERSION),
            "schema version mismatch"
        );
        assert!(j.get("taken_at_ns").and_then(Json::as_u64).is_some());
        let sources = j.get("sources").and_then(Json::as_arr).expect("sources");
        // The two routes must agree on which sources exist.
        for s in sources {
            let name = s.get("name").and_then(Json::as_str).expect("source name");
            assert!(
                metrics.contains(&format!("source=\"{name}\"")),
                "{name} in /json but missing from /metrics"
            );
        }
        let fired = sources.iter().any(|s| {
            s.get("name").and_then(Json::as_str) == Some("single_lock_watchdog")
                && s.get("counters")
                    .and_then(|c| c.get("collapse_fired_total"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
                    >= 1
        });
        let windows_seen = sources.iter().any(|s| {
            s.get("name").and_then(Json::as_str) == Some("single_lock")
                && s.get("windows").and_then(Json::as_arr).is_some_and(|w| !w.is_empty())
        });
        if fired && windows_seen {
            assert!(
                metrics.contains("rtle_collapse_fired_total{source=\"single_lock_watchdog\""),
                "fired watchdog missing from the Prometheus page"
            );
            assert!(metrics.contains(",window=\""), "per-window gauges must be exported");
            println!("ok: collapse visible live after {scrapes} scrapes");
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
}
RS
rustc --edition 2021 -O --extern rtle_obs="$obs_rlib" \
    -L dependency=target/release/deps \
    -o /tmp/tier1_live_smoke /tmp/tier1_live_smoke.rs
live_port_file="$tmp/live_port"
rm -f "$live_port_file"
./target/release/slo_bench --quick --seed 0x510b42d \
    --live 127.0.0.1:0 --live-port-file "$live_port_file" >/dev/null 2>&1 &
slo_live_pid=$!
for _ in $(seq 1 100); do
    [ -s "$live_port_file" ] && break
    sleep 0.1
done
[ -s "$live_port_file" ] || { echo "live endpoint never came up"; kill "$slo_live_pid" 2>/dev/null || true; exit 1; }
live_addr="$(cat "$live_port_file")"
/tmp/tier1_live_smoke "$live_addr" || { kill "$slo_live_pid" 2>/dev/null || true; exit 1; }
wait "$slo_live_pid"
# The endpoint died with the bench; a bounded `diag top` run against it
# must be a clean exit-1 error, not a hang or a panic. (Rendering against
# a live endpoint is covered by the rtle-bench unit tests.)
if ./target/release/diag top "$live_addr" --iters 1 >/dev/null 2>&1; then
    echo "diag top must fail against a dead endpoint"; exit 1
fi

echo "== benchmark harness self-tests =="
# The repo benchmark (BENCHMARK.json, benchmark/) is its own package:
# build it against the changed crates and run its harness self-tests
# (~6 s; each workload runs 200 ms against its exact oracles).
cargo_test --offline --manifest-path benchmark/Cargo.toml -q

echo "tier1: all green"
