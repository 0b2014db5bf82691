//! The bank-accounts micro-benchmark (§6.3, Figure 11): 256 cache-line
//! padded account counters; every operation transfers a random amount
//! between two random distinct accounts — a pure read-modify-write
//! critical section (every op writes, so RW-TLE's slow path can never
//! commit and NOrec-family writer commits serialize).

use rtle_avltree::xorshift64;

use crate::workload::{Access, OpSpec, Workload};

/// The paper's account count.
pub const DEFAULT_ACCOUNTS: u64 = 256;
/// Per-op non-critical work (choosing accounts and amount, §6.3: done
/// before the critical section).
const SETUP: u64 = 45;
/// In-CS compute: the transfer's "short calculation" (§6.3).
const CS_COMPUTE: u64 = 110;

/// Configuration of the bank workload.
#[derive(Debug, Clone, Copy)]
pub struct BankConfig {
    /// Number of (cache-line padded) accounts.
    pub accounts: u64,
    /// Fixed-work ops per thread (`None`: fixed-duration mode).
    pub ops_per_thread: Option<u64>,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for BankConfig {
    fn default() -> Self {
        BankConfig {
            accounts: DEFAULT_ACCOUNTS,
            ops_per_thread: None,
            seed: 0xba7e,
        }
    }
}

/// The workload state. The shadow is a balance vector used for the
/// conservation check; account `i` occupies its own line `i` (padded, as
/// the paper pads each counter to a cache line).
pub struct BankWorkload {
    cfg: BankConfig,
    balances: Vec<u64>,
    rngs: Vec<u64>,
    cur: Vec<(u64, u64, u64)>, // (from, to, amount)
    remaining: Vec<Option<u64>>,
}

impl BankWorkload {
    /// Builds the workload with all balances at 1000.
    pub fn new(threads: usize, cfg: BankConfig) -> Self {
        assert!(cfg.accounts >= 2);
        BankWorkload {
            balances: vec![1_000; cfg.accounts as usize],
            rngs: (0..threads)
                .map(|t| cfg.seed ^ (0x9e37_79b9 * (t as u64 + 1)))
                .collect(),
            cur: vec![(0, 1, 0); threads],
            remaining: vec![cfg.ops_per_thread; threads],
            cfg,
        }
    }

    /// Total money (conservation invariant).
    pub fn total(&self) -> u64 {
        self.balances.iter().sum()
    }

    fn trace(&mut self, thread: usize) -> OpSpec {
        let (from, to, _) = self.cur[thread];
        OpSpec {
            trace: vec![
                Access {
                    line: from,
                    write: false,
                },
                Access {
                    line: from,
                    write: true,
                },
                Access {
                    line: to,
                    write: false,
                },
                Access {
                    line: to,
                    write: true,
                },
            ],
            setup_cycles: SETUP + xorshift64(&mut self.rngs[thread]) % 16,
            cs_compute: CS_COMPUTE,
            ..Default::default()
        }
    }
}

impl Workload for BankWorkload {
    fn next_op(&mut self, thread: usize) -> OpSpec {
        let r = xorshift64(&mut self.rngs[thread]);
        let from = r % self.cfg.accounts;
        let mut to = (r >> 24) % self.cfg.accounts;
        if to == from {
            to = (to + 1) % self.cfg.accounts;
        }
        let amount = (r >> 48) % 10;
        self.cur[thread] = (from, to, amount);
        self.trace(thread)
    }

    fn next_op_again(&mut self, thread: usize) -> OpSpec {
        self.trace(thread)
    }

    fn commit(&mut self, thread: usize) {
        let (from, to, amount) = self.cur[thread];
        let m = amount.min(self.balances[from as usize]);
        self.balances[from as usize] -= m;
        self.balances[to as usize] += m;
        if let Some(r) = &mut self.remaining[thread] {
            *r = r.saturating_sub(1);
        }
    }

    fn remaining(&self, thread: usize) -> Option<u64> {
        self.remaining[thread]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::engine::{Engine, RunMode};
    use crate::method::SimMethod;

    fn run(method: SimMethod, threads: usize) -> (crate::stats::SimStats, u64) {
        let cfg = BankConfig {
            ops_per_thread: Some(500),
            ..Default::default()
        };
        let w = BankWorkload::new(threads, cfg);
        let total_before = w.total();
        let stats = Engine::new(method, threads, CostModel::default(), RunMode::FixedWork, w).run();
        (stats, total_before)
    }

    #[test]
    fn all_ops_complete_and_every_op_writes() {
        let (s, _) = run(SimMethod::Tle, 4);
        assert_eq!(s.ops, 2_000);
        // RW-TLE can never commit a transfer on the slow path.
        let (s2, _) = run(SimMethod::RwTle, 4);
        assert_eq!(s2.ops, 2_000);
        assert_eq!(
            s2.slow_commits, 0,
            "transfers write; RW slow path is useless"
        );
    }

    #[test]
    fn fg_tle_beats_tle_at_high_contention() {
        // 12 threads over 256 accounts: collisions frequent, TLE's lock
        // fallbacks stall everyone; FG-TLE(high) keeps concurrency.
        let (tle, _) = run(SimMethod::Tle, 24);
        let (fg, _) = run(SimMethod::FgTle { orecs: 8192 }, 24);
        assert!(
            fg.sim_cycles < tle.sim_cycles,
            "FG-TLE(8192) should finish sooner: fg={} tle={}",
            fg.sim_cycles,
            tle.sim_cycles
        );
    }

    #[test]
    fn norec_writer_commits_serialize() {
        let (s, _) = run(SimMethod::Norec, 8);
        assert_eq!(s.ops, 4_000);
        assert!(
            s.stm_slow_commits > s.stm_fast_commits / 4,
            "contended writer commits must queue: {s:?}"
        );
    }
}
