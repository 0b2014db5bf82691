//! Small-step model of the one park in `crates/htm/src/wait.rs`
//! (`wait::until` over a `WaitList`) as `rtle_core::TatasLock` runs it:
//! [`Machine`] for [`ParkState`], explored and fuzzed by the same drivers
//! as the TLE and TL2 machines.
//!
//! Thread 0 starts holding the lock; every thread (the holder too) runs one
//! critical section under it — an increment of location 0 — and releases.
//! A thread that finds the lock held waits through the park protocol:
//!
//! * **Probe** — one `try_acquire`. The spin phase before the park is a
//!   run of such probes; a failed probe here stands for the whole run
//!   having failed, i.e. the backoff saturated.
//! * **Register** — one step under the list's mutex: purge stale entries
//!   (a waiter already notified, or one whose thread left the wait), push
//!   this thread's current waiter, store the count.
//! * **Re-check** — `try_acquire` again; success leaves the registration
//!   behind as a stale entry, as the runtime's dropped `Arc<Waiter>` does.
//! * **Park** — enabled once the waiter is notified; then the thread
//!   registers a fresh waiter, and its re-check is the probe after the
//!   wake. The 100 ms backstop is a park step enabled only when no other
//!   thread can move: "nothing else happened for 100 ms". A park that ends
//!   that way is the violation — a lost wakeup, which the runtime would
//!   pay as a 100 ms stall and count as `wakes_timeout`.
//!
//! `release` is three steps: store FREE, load the count, and — only when
//! it was non-zero — drain the list and notify every live waiter. The
//! model is sequentially consistent, so the store → load order both sides
//! need (the runtime's two `fence(SeqCst)`s) is implicit here.
//!
//! Two seeded mutants, each a lost wakeup the judge must flag as a
//! `bad-terminal`: [`ParkMutant::ReleaseSkipsCheck`] (the lock's old
//! one-store release beside a park) and [`ParkMutant::RegisterAfterRecheck`]
//! (the waiter tests the lock before it is visible on the list).

use super::machine::Machine;
use super::oracle::{CommitPath, Committed, HOp};

/// A closed park-model configuration.
#[derive(Debug, Clone)]
pub struct ParkConfig {
    /// Display name (reports and witnesses).
    pub name: String,
    /// Threads, 2–4: thread 0 holds the lock at the start, the others
    /// start by probing it.
    pub threads: u8,
    /// The seeded bug, if any. `None` in the safe suite.
    pub mutant: Option<ParkMutant>,
}

/// A seeded bug in the park protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkMutant {
    /// `release` stores FREE and returns without loading the waiter count.
    ReleaseSkipsCheck,
    /// The waiter re-checks the lock first and registers after it.
    RegisterAfterRecheck,
}

/// Where one thread is in its acquire / critical section / release.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pc {
    Probe,
    Register,
    Recheck,
    Park,
    Cs,
    StoreFree,
    LoadCount,
    Wake,
    Done,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Thread {
    pc: Pc,
    /// Identifies the thread's current waiter: bumped whenever a wait
    /// ends, so a list entry carrying an older value is stale.
    waiter: u8,
    /// The current waiter has been notified.
    notified: bool,
    /// The thread has parked at least once.
    parked: bool,
    /// One of its parks ended by the backstop.
    backstop: bool,
    /// How it got the lock: first probe, re-check, or re-check after a park.
    via: CommitPath,
}

/// One global state of the park machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParkState {
    held: bool,
    /// The list's atomic count (entries, stale ones included).
    count: u8,
    /// `(thread, waiter)` entries, in registration order.
    list: Vec<(u8, u8)>,
    data: Vec<u64>,
    threads: Vec<Thread>,
    committed: Vec<Option<Committed>>,
}

impl ParkState {
    /// Able to step without the backstop.
    fn runnable(&self, t: usize) -> bool {
        let th = &self.threads[t];
        match th.pc {
            Pc::Done => false,
            Pc::Park => th.notified,
            _ => true,
        }
    }

    /// One `try_acquire`.
    fn try_acquire(&mut self) -> bool {
        !std::mem::replace(&mut self.held, true)
    }

    /// Leaves the wait: a registration still on the list becomes stale.
    fn end_wait(&mut self, t: usize) {
        let th = &mut self.threads[t];
        th.waiter += 1;
        th.notified = false;
    }

    fn register(&mut self, t: usize) {
        let threads = &self.threads;
        self.list
            .retain(|&(u, w)| threads[u as usize].waiter == w && !threads[u as usize].notified);
        self.list.push((t as u8, self.threads[t].waiter));
        self.count = self.list.len() as u8;
    }
}

impl Machine for ParkState {
    type Config = ParkConfig;
    /// How each critical section got the lock.
    const PATH_LABELS: &'static str = "probe/recheck/woken";

    fn name(cfg: &ParkConfig) -> &str {
        &cfg.name
    }

    fn threads(cfg: &ParkConfig) -> usize {
        cfg.threads as usize
    }

    fn horizon_hint(cfg: &ParkConfig) -> u64 {
        8 * cfg.threads as u64
    }

    fn initial(cfg: &ParkConfig) -> Self {
        assert!((2..=4).contains(&cfg.threads), "2–4 threads");
        let thread = |pc| Thread {
            pc,
            waiter: 0,
            notified: false,
            parked: false,
            backstop: false,
            via: CommitPath::Fast,
        };
        let mut threads = vec![thread(Pc::Probe); cfg.threads as usize];
        threads[0].pc = Pc::Cs;
        ParkState {
            held: true,
            count: 0,
            list: Vec::new(),
            data: vec![0],
            threads,
            committed: vec![None; cfg.threads as usize],
        }
    }

    /// A parked thread is disabled until notified, or until nothing else
    /// can move (the backstop).
    fn enabled(&self, _cfg: &ParkConfig, t: usize) -> bool {
        self.runnable(t)
            || (self.threads[t].pc == Pc::Park
                && !(0..self.threads.len()).any(|u| self.runnable(u)))
    }

    fn step(&mut self, cfg: &ParkConfig, t: usize) {
        let late_register = cfg.mutant == Some(ParkMutant::RegisterAfterRecheck);
        match self.threads[t].pc {
            Pc::Probe => {
                if self.try_acquire() {
                    self.threads[t].pc = Pc::Cs;
                } else {
                    self.threads[t].pc = if late_register {
                        Pc::Recheck
                    } else {
                        Pc::Register
                    };
                }
            }
            Pc::Register => {
                self.register(t);
                self.threads[t].pc = if late_register { Pc::Park } else { Pc::Recheck };
            }
            Pc::Recheck => {
                if self.try_acquire() {
                    self.end_wait(t);
                    let th = &mut self.threads[t];
                    th.via = if th.parked {
                        CommitPath::Lock
                    } else {
                        CommitPath::Slow
                    };
                    th.pc = Pc::Cs;
                } else {
                    self.threads[t].pc = if late_register {
                        Pc::Register
                    } else {
                        Pc::Park
                    };
                }
            }
            Pc::Park => {
                let th = &mut self.threads[t];
                th.backstop |= !th.notified;
                th.parked = true;
                th.pc = if late_register {
                    Pc::Recheck
                } else {
                    Pc::Register
                };
                self.end_wait(t);
            }
            Pc::Cs => {
                let v = self.data[0];
                self.data[0] = v + 1;
                let th = &mut self.threads[t];
                self.committed[t] = Some(Committed {
                    thread: t as u8,
                    path: th.via,
                    ops: vec![HOp::Read(0, v), HOp::Write(0, v + 1)],
                });
                th.pc = Pc::StoreFree;
            }
            Pc::StoreFree => {
                self.held = false;
                self.threads[t].pc = if cfg.mutant == Some(ParkMutant::ReleaseSkipsCheck) {
                    Pc::Done
                } else {
                    Pc::LoadCount
                };
            }
            Pc::LoadCount => {
                self.threads[t].pc = if self.count > 0 { Pc::Wake } else { Pc::Done };
            }
            Pc::Wake => {
                for (u, w) in std::mem::take(&mut self.list) {
                    let th = &mut self.threads[u as usize];
                    if th.waiter == w {
                        th.notified = true;
                    }
                }
                self.count = 0;
                self.threads[t].pc = Pc::Done;
            }
            Pc::Done => unreachable!("a done thread is never enabled"),
        }
    }

    fn terminal(&self) -> bool {
        self.threads.iter().all(|th| th.pc == Pc::Done)
    }

    fn invariant_violation(&self) -> Option<String> {
        if let Some(t) = self.threads.iter().position(|th| th.backstop) {
            return Some(format!(
                "T{t}'s park ended by the backstop, not a notification: a lost wakeup"
            ));
        }
        if self.held {
            return Some("terminal state with the lock held".into());
        }
        if let Some(t) = self.committed.iter().position(Option::is_none) {
            return Some(format!("T{t} finished without its critical section"));
        }
        None
    }

    fn data(&self) -> &[u64] {
        &self.data
    }

    fn committed(&self) -> &[Option<Committed>] {
        &self.committed
    }
}

/// The safe configuration: a holder and two waiters.
pub fn park_suite() -> Vec<ParkConfig> {
    vec![ParkConfig {
        name: "park-holder-two-waiters".into(),
        threads: 3,
        mutant: None,
    }]
}

/// The release that stores FREE and never looks at the waiter count.
pub fn park_release_mutant_config() -> ParkConfig {
    ParkConfig {
        name: "park-release-skips-check".into(),
        threads: 3,
        mutant: Some(ParkMutant::ReleaseSkipsCheck),
    }
}

/// The waiter that re-checks the lock before it registers.
pub fn park_register_mutant_config() -> ParkConfig {
    ParkConfig {
        name: "park-register-after-recheck".into(),
        threads: 3,
        mutant: Some(ParkMutant::RegisterAfterRecheck),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::explore;

    #[test]
    fn the_safe_protocol_never_needs_the_backstop() {
        for cfg in park_suite() {
            let r = explore::<ParkState>(&cfg);
            assert!(r.clean(), "{}: {:?}", r.config, r.violations.first());
            assert!(r.terminals > 0);
            assert!(
                r.lock_commit_terminals > 0 && r.slow_commit_terminals > 0,
                "{}: some history must acquire after a park and some at the re-check",
                r.config
            );
        }
    }

    #[test]
    fn both_mutants_lose_a_wakeup() {
        for cfg in [park_release_mutant_config(), park_register_mutant_config()] {
            let r = explore::<ParkState>(&cfg);
            let v = r
                .violations
                .iter()
                .find(|v| v.kind == "bad-terminal")
                .unwrap_or_else(|| panic!("{}: the lost wakeup was NOT detected", cfg.name));
            assert!(v.detail.contains("lost wakeup"), "{}", v.detail);
        }
    }
}
