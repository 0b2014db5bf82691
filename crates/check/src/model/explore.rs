//! Exhaustive DFS over all interleavings of a configuration, generic over
//! the [`Machine`] being explored.
//!
//! Plain stateful search: every reachable global state is visited once
//! (memoized in a hash set), every enabled thread is tried from every
//! state. The committed history is part of the state, so two interleavings
//! that produce the same memory but different histories are still explored
//! separately — the oracle judges histories, not just final memory.
//!
//! Schedules (the sequence of thread choices from the initial state) ride
//! along on the DFS stack purely for diagnostics: a violation report can
//! print the exact interleaving that produced it.

use std::collections::HashSet;

use super::machine::Machine;
use super::oracle::{find_serial_witness, CommitPath};

/// Cap on recorded violations per configuration (counting continues).
const MAX_RECORDED_VIOLATIONS: usize = 5;

/// One concrete violation with the schedule that reached it.
#[derive(Debug, Clone)]
pub struct ViolationReport {
    /// Violation class (`non-serializable`, `bad-terminal`, `stuck`).
    pub kind: &'static str,
    /// Human-readable description: history, final memory, invariant.
    pub detail: String,
    /// The thread-choice sequence from the initial state.
    pub schedule: Vec<u8>,
}

/// Result of exhaustively exploring one configuration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Configuration name.
    pub config: String,
    /// Distinct states visited.
    pub states: u64,
    /// Distinct terminal states reached.
    pub terminals: u64,
    /// Total violations found (recorded ones capped at
    /// `MAX_RECORDED_VIOLATIONS`).
    pub violation_count: u64,
    /// Recorded violations.
    pub violations: Vec<ViolationReport>,
    /// The machine's names for the three commit paths
    /// ([`Machine::PATH_LABELS`]).
    pub path_labels: &'static str,
    /// Commit-path coverage over all terminal states: how many terminal
    /// histories contain at least one fast / slow / lock commit.
    pub fast_commit_terminals: u64,
    /// Terminal states whose history contains a slow-path commit.
    pub slow_commit_terminals: u64,
    /// Terminal states whose history contains an under-lock commit.
    pub lock_commit_terminals: u64,
}

impl Report {
    /// True iff no violation of any kind was found.
    pub fn clean(&self) -> bool {
        self.violation_count == 0
    }
}

fn record(report: &mut Report, kind: &'static str, detail: String, schedule: &[u8]) {
    report.violation_count += 1;
    if report.violations.len() < MAX_RECORDED_VIOLATIONS {
        report.violations.push(ViolationReport {
            kind,
            detail,
            schedule: schedule.to_vec(),
        });
    }
}

/// Judgement of one terminal state: the violation (if any) plus which
/// commit paths the history exercised. Shared between the exhaustive DFS
/// here and the randomized PCT scheduler in `rtle-fuzz`, so both report
/// failures through the same oracle and in the same vocabulary.
#[derive(Debug, Clone)]
pub struct TerminalVerdict {
    /// `Some((kind, detail))` when the state violates an invariant or the
    /// history is not serializable; `None` when the terminal is clean.
    pub violation: Option<(&'static str, String)>,
    /// History contains a fast-path commit.
    pub fast: bool,
    /// History contains a slow-path commit.
    pub slow: bool,
    /// History contains an under-lock commit.
    pub lock: bool,
}

/// Judges one terminal state: structural invariants first, then the
/// serializability oracle over the committed history (replayed from
/// all-zero memory, where every machine starts).
pub fn judge<M: Machine>(state: &M) -> TerminalVerdict {
    let entries: Vec<_> = state.committed().iter().flatten().collect();
    let took = |path| entries.iter().any(|e| e.path == path);
    let mut v = TerminalVerdict {
        violation: None,
        fast: took(CommitPath::Fast),
        slow: took(CommitPath::Slow),
        lock: took(CommitPath::Lock),
    };
    if let Some(why) = state.invariant_violation() {
        v.violation = Some(("bad-terminal", why));
        return v;
    }
    let init = vec![0u64; state.data().len()];
    if find_serial_witness(&init, state.data(), &entries).is_none() {
        let hist: Vec<String> = entries.iter().map(|e| e.to_string()).collect();
        v.violation = Some((
            "non-serializable",
            format!(
                "history [{}] with final memory {:?} matches no serial order",
                hist.join(", "),
                state.data()
            ),
        ));
    }
    v
}

/// Explores every interleaving of `cfg` and checks every terminal state.
pub fn explore<M: Machine>(cfg: &M::Config) -> Report {
    let mut report = Report {
        config: M::name(cfg).to_string(),
        states: 0,
        terminals: 0,
        violation_count: 0,
        violations: Vec::new(),
        path_labels: M::PATH_LABELS,
        fast_commit_terminals: 0,
        slow_commit_terminals: 0,
        lock_commit_terminals: 0,
    };

    let initial = M::initial(cfg);
    let mut visited: HashSet<M> = HashSet::new();
    visited.insert(initial.clone());
    let mut stack: Vec<(M, Vec<u8>)> = vec![(initial, Vec::new())];

    while let Some((state, schedule)) = stack.pop() {
        report.states += 1;
        let enabled = state.enabled_threads(cfg);
        if enabled.is_empty() {
            if state.terminal() {
                report.terminals += 1;
                let verdict = judge(&state);
                report.fast_commit_terminals += verdict.fast as u64;
                report.slow_commit_terminals += verdict.slow as u64;
                report.lock_commit_terminals += verdict.lock as u64;
                if let Some((kind, detail)) = verdict.violation {
                    record(&mut report, kind, detail, &schedule);
                }
            } else {
                // Cannot happen (a lock or stripe holder is always
                // enabled), but a modeling bug should surface as a
                // finding, not silently shrink the state space.
                record(
                    &mut report,
                    "stuck",
                    "non-terminal state with no enabled thread".into(),
                    &schedule,
                );
            }
            continue;
        }
        for t in enabled {
            let mut next = state.clone();
            next.step(cfg, t);
            if visited.insert(next.clone()) {
                let mut sched = schedule.clone();
                sched.push(t as u8);
                stack.push((next, sched));
            }
        }
    }
    report
}
