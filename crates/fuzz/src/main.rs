//! `fuzz` — the rtle-fuzz CLI.
//!
//! ```text
//! fuzz run    [--seed S] [--iters N] [--configs N] [--budget N] [--quick]
//!             [--no-chaos] [--json PATH]
//! fuzz replay <seed> [--budget N] [--mutant <config-name>]
//! fuzz corpus
//! ```
//!
//! * `run` — the full campaign: (1) mutant fitness (every seeded mutant
//!   — the TLE lazy-subscription zombie, the TL2 stale read, the swhtm
//!   validate-first extension — must be caught within the budget), (2) a
//!   sweep of the standard TLE and swhtm suites plus random safe
//!   4–8-thread configurations of each machine (must stay clean), (3)
//!   chaos runs over the real runtime, classic HTM-or-lock and
//!   TL2-software-backed (must show zero oracle divergence, and commits on
//!   all of fast/slow/lock resp. both of HTM/STM). Exit code 0 iff all
//!   three hold. `--quick` is the deterministic, time-budgeted
//!   tier-1 profile.
//! * `replay <seed>` — re-runs the fitness hunt of one seeded mutant for
//!   `seed` (`--mutant` names its configuration; default
//!   `tle-lazyunsafe-mutant`) and prints the identical witness block
//!   `run` printed (one-line reproduction).
//! * `corpus` — replays every pinned corpus seed and verifies it.

use std::process::ExitCode;

use rtle_check::model::{park_suite, standard_suite, tl2_suite, ParkState, State, Tl2State};
use rtle_fuzz::chaos::{run_chaos, ChaosPlan, ChaosReport};
use rtle_fuzz::configs::{random_safe_config, random_safe_tl2_config};
use rtle_fuzz::corpus::{self, Mutant, DOC_SEED};
use rtle_fuzz::report::campaign_json;
use rtle_fuzz::schedule::{hunt, HuntReport};
use rtle_htm::prng::SplitMix64;

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

struct RunArgs {
    seed: u64,
    iters: u64,
    configs: u64,
    /// `--budget`: overrides every mutant's own fitness budget.
    budget: Option<u64>,
    chaos: bool,
    quick: bool,
    json: Option<String>,
}

fn usage(err: &str) -> ExitCode {
    eprintln!("fuzz: {err}");
    eprintln!("usage: fuzz run [--seed S] [--iters N] [--configs N] [--budget N] [--quick] [--no-chaos] [--json PATH]");
    eprintln!("       fuzz replay <seed> [--budget N] [--mutant <config-name>]");
    eprintln!("       fuzz corpus");
    ExitCode::from(2)
}

/// Prints one sweep row (and the witness of a failure); true iff clean.
fn print_hunt(r: &HuntReport) -> bool {
    println!(
        "fuzz: {:<24} {:>5} iters (paths {}: {}/{}/{}) -> {}",
        r.config,
        r.iterations,
        r.path_labels,
        r.fast_terminals,
        r.slow_terminals,
        r.lock_terminals,
        if r.clean() { "OK" } else { "FAILURE" }
    );
    if let Some(f) = &r.failure {
        println!("{}", f.witness());
    }
    r.clean()
}

/// Runs and prints one mutant's fitness hunt (`budget` overrides its
/// own); the report is caught iff it carries a failure.
fn mutant_fitness(m: &Mutant, seed: u64, budget: Option<u64>) -> HuntReport {
    let budget = budget.unwrap_or(m.budget);
    let r = (m.hunt)(seed, budget);
    match &r.failure {
        Some(f) => {
            println!(
                "fuzz: {} fitness: CAUGHT at iteration {} (budget {budget})",
                m.name, f.iteration
            );
            println!("{}", f.witness());
        }
        None => println!(
            "fuzz: {} fitness: MISSED within {budget} iterations — fuzzer regression!",
            m.name
        ),
    }
    r
}

/// Runs one chaos plan and prints its row; clears `ok` unless the run is
/// clean *and* left the fast path — the assertion that the fallback
/// machinery actually ran (a lock-backed plan: fast, slow and lock
/// commits; a software-backed one: HTM and STM commits in one run).
fn chaos_run(label: &str, plan: &ChaosPlan, seed: u64, ok: &mut bool) -> ChaosReport {
    let r = run_chaos(plan, seed);
    println!(
        "fuzz: {label} ({} workers, {} ops): commits f/s/l/stm {}/{}/{}/{}, {} aborts -> {}",
        plan.workers,
        r.ops,
        r.fast_commits,
        r.slow_commits,
        r.lock_acquisitions,
        r.stm_commits,
        r.aborts,
        if r.clean() { "OK" } else { "DIVERGENCE" }
    );
    for d in r.divergences.iter().take(5) {
        println!("fuzz:   {d}");
    }
    let exercised = match plan.software {
        Some(_) => r.hybrid_paths_exercised(),
        None => r.all_paths_exercised(),
    };
    if !exercised {
        println!(
            "fuzz: {label} stayed on one path (f={}, s={}, l={}, stm={}) — plan regression!",
            r.fast_commits, r.slow_commits, r.lock_acquisitions, r.stm_commits
        );
    }
    *ok &= r.clean() && exercised;
    r
}

fn cmd_run(a: RunArgs) -> ExitCode {
    let mut ok = true;

    // 1. Mutant fitness: the fuzzer must re-find every seeded bug.
    let mutants: Vec<HuntReport> = corpus::MUTANTS
        .iter()
        .map(|m| mutant_fitness(m, a.seed, a.budget))
        .collect();
    ok &= mutants.iter().all(|r| r.failure.is_some());

    // 2. Safe sweep, one loop through the one generic hunt: every
    // machine's standard suite, then random 4–8-thread configs of each.
    let (tle, tl2, park) = (standard_suite(), tl2_suite(), park_suite());
    let mut cfg_rng = SplitMix64::new(a.seed ^ 0xc0f1_65ee_d000_0001);
    let mut tl2_cfg_rng = SplitMix64::new(a.seed ^ 0x712f_c0f1_65ee_d002);
    let suites = tle
        .iter()
        .map(|cfg| hunt::<State>(cfg, a.seed, a.iters))
        .chain(tl2.iter().map(|cfg| hunt::<Tl2State>(cfg, a.seed, a.iters)))
        .chain(
            park.iter()
                .map(|cfg| hunt::<ParkState>(cfg, a.seed, a.iters)),
        );
    let random_tle = (0..a.configs).map(|idx| {
        let cfg = random_safe_config(&mut cfg_rng, idx);
        hunt::<State>(&cfg, a.seed.wrapping_add(idx), a.iters)
    });
    let random_tl2 = (0..a.configs).map(|idx| {
        let cfg = random_safe_tl2_config(&mut tl2_cfg_rng, idx);
        hunt::<Tl2State>(&cfg, a.seed.wrapping_add(idx), a.iters)
    });
    let mut hunts = Vec::new();
    for r in suites.chain(random_tle).chain(random_tl2) {
        ok &= print_hunt(&r);
        hunts.push(r);
    }

    // 3. Chaos over the real runtime: the classic HTM-or-lock stack,
    // then the same storm with the TL2 software tier installed.
    let plans = a.chaos.then(|| {
        if a.quick {
            (ChaosPlan::quick(true), ChaosPlan::quick_tl2(true))
        } else {
            (ChaosPlan::storm8(), ChaosPlan::storm8_tl2())
        }
    });
    let chaos = plans
        .as_ref()
        .map(|(plan, _)| chaos_run("chaos", plan, a.seed, &mut ok));
    let tl2_chaos = plans
        .as_ref()
        .map(|(_, plan)| chaos_run("chaos[tl2]", plan, a.seed, &mut ok));

    if let Some(path) = &a.json {
        let doc = campaign_json(a.seed, &mutants, &hunts, chaos.as_ref(), tl2_chaos.as_ref());
        if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
            eprintln!("fuzz: cannot write {path}: {e}");
            ok = false;
        } else {
            println!("fuzz: stats written to {path}");
        }
    }

    println!("fuzz: {}", if ok { "all green" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_replay(seed: u64, budget: Option<u64>, mutant: &str) -> ExitCode {
    let Some(m) = corpus::mutant(mutant) else {
        let known: Vec<&str> = corpus::MUTANTS.iter().map(|m| m.name).collect();
        return usage(&format!(
            "no seeded mutant {mutant:?} (known: {})",
            known.join(", ")
        ));
    };
    if mutant_fitness(m, seed, budget).failure.is_some() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_corpus() -> ExitCode {
    let mut ok = true;
    for e in corpus::ENTRIES {
        match corpus::replay_entry(e) {
            Ok(_) => println!("fuzz: corpus {} {:#010x} OK — {}", e.mutant, e.seed, e.note),
            Err(err) => {
                println!("fuzz: corpus {} {:#010x} FAILED — {err}", e.mutant, e.seed);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage("missing subcommand");
    };
    match cmd.as_str() {
        "run" => {
            let mut a = RunArgs {
                seed: DOC_SEED,
                iters: 192,
                configs: 8,
                budget: None,
                chaos: true,
                quick: false,
                json: None,
            };
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--quick" => {
                        a.quick = true;
                        a.iters = 64;
                        a.configs = 4;
                    }
                    "--no-chaos" => a.chaos = false,
                    "--seed" | "--iters" | "--configs" | "--budget" | "--json" => {
                        let Some(v) = it.next() else {
                            return usage(&format!("{flag} needs a value"));
                        };
                        match flag.as_str() {
                            "--json" => a.json = Some(v.clone()),
                            _ => {
                                let Some(n) = parse_u64(v) else {
                                    return usage(&format!("bad number {v:?}"));
                                };
                                match flag.as_str() {
                                    "--seed" => a.seed = n,
                                    "--iters" => a.iters = n.max(1),
                                    "--configs" => a.configs = n,
                                    _ => a.budget = Some(n.max(1)),
                                }
                            }
                        }
                    }
                    other => return usage(&format!("unknown flag {other:?}")),
                }
            }
            cmd_run(a)
        }
        "replay" => {
            let Some(seed) = args.get(1).and_then(|s| parse_u64(s)) else {
                return usage("replay needs a seed");
            };
            let mut budget = None;
            let mut mutant = corpus::MUTANTS[0].name;
            let mut it = args[2..].iter();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--budget" => {
                        let Some(n) = it.next().and_then(|v| parse_u64(v)) else {
                            return usage("--budget needs a number");
                        };
                        budget = Some(n.max(1));
                    }
                    "--mutant" => {
                        let Some(name) = it.next() else {
                            return usage("--mutant needs a configuration name");
                        };
                        mutant = name;
                    }
                    other => return usage(&format!("unknown flag {other:?}")),
                }
            }
            cmd_replay(seed, budget, mutant)
        }
        "corpus" => cmd_corpus(),
        other => usage(&format!("unknown subcommand {other:?}")),
    }
}
