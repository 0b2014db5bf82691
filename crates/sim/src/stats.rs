//! Simulation statistics — the quantities the paper's Figures 5–13 plot.
//!
//! Each fact is counted once: an abort bumps its class counter, an
//! attributed conflict its orec slot. The totals — [`SimStats::aborts`],
//! the heatmap's [`OrecHeatmap::total_conflicts`] — are sums of those
//! parts, taken when read.

use rtle_core::orec::OrecHeatmap;
use rtle_obs::Json;

use crate::cost::MachineProfile;

/// Counters accumulated over one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Completed critical sections (any path).
    pub ops: u64,
    /// Commits on the uninstrumented fast HTM path.
    pub fast_commits: u64,
    /// Commits on the instrumented slow HTM path while a lock was held
    /// (refined TLE) — Figure 6's "SlowHTM".
    pub slow_commits: u64,
    /// Pessimistic executions under a lock — Figure 6's "Lock".
    pub lock_commits: u64,
    /// RHNOrec: hardware commits that bumped the global clock (HTMSlow).
    pub htm_slow_commits: u64,
    /// NOrec/RHNOrec: software commits via reduced hardware transaction.
    pub stm_fast_commits: u64,
    /// NOrec/RHNOrec: software commits under the single global lock.
    pub stm_slow_commits: u64,
    /// Aborts from validation/eager pairwise conflicts.
    pub aborts_conflict: u64,
    /// Aborts from capacity overflow.
    pub aborts_capacity: u64,
    /// Injected microarchitectural aborts (SMT pressure model).
    pub aborts_uarch: u64,
    /// Aborts of HTM-hostile operations (Figure 12's instruction).
    pub aborts_hostile: u64,
    /// Slow-path aborts from owned orecs / raised write flag observed at
    /// attempt start (the explicit self-aborts of Figures 2–3).
    pub aborts_eager_owned: u64,
    /// Lazy-subscription aborts (lock held at commit, §5).
    pub aborts_lazy: u64,
    /// Software-transaction aborts (validation failures).
    pub sw_aborts: u64,
    /// Value-based read-set validations (Figure 10).
    pub validations: u64,
    /// Total cycles during which some thread held a lock (Figure 7).
    pub cycles_locked: u64,
    /// Total cycles spent running software transactions (Figure 8).
    pub cycles_in_sw: u64,
    /// Simulated wall time of the run, in cycles.
    pub sim_cycles: u64,
    /// Per-orec-slot attributed slow-path conflict aborts (capacity-length
    /// for FG methods, empty otherwise), booked like the runtime's.
    pub orec_heatmap: OrecHeatmap,
}

impl SimStats {
    /// HTM aborts (all paths, all causes): the sum of the six class
    /// counters.
    pub fn aborts(&self) -> u64 {
        self.aborts_conflict
            + self.aborts_capacity
            + self.aborts_uarch
            + self.aborts_hostile
            + self.aborts_eager_owned
            + self.aborts_lazy
    }

    /// ops/ms throughput, the paper's headline metric.
    pub fn ops_per_ms(&self, machine: &MachineProfile) -> f64 {
        if self.sim_cycles == 0 {
            return 0.0;
        }
        self.ops as f64 / (self.sim_cycles as f64 / machine.cycles_per_ms() as f64)
    }

    /// Slow-path HTM throughput during locked periods (Figure 6 left).
    pub fn slow_htm_per_ms(&self, machine: &MachineProfile) -> f64 {
        if self.cycles_locked == 0 {
            return 0.0;
        }
        self.slow_commits as f64 / (self.cycles_locked as f64 / machine.cycles_per_ms() as f64)
    }

    /// Lock-path throughput during locked periods (Figure 6 right).
    pub fn lock_per_ms(&self, machine: &MachineProfile) -> f64 {
        if self.cycles_locked == 0 {
            return 0.0;
        }
        self.lock_commits as f64 / (self.cycles_locked as f64 / machine.cycles_per_ms() as f64)
    }

    /// Software-transaction throughput over time spent in software
    /// (Figure 8 "SWSlow").
    pub fn sw_per_ms(&self, machine: &MachineProfile) -> f64 {
        if self.cycles_in_sw == 0 {
            return 0.0;
        }
        (self.stm_fast_commits + self.stm_slow_commits) as f64
            / (self.cycles_in_sw as f64 / machine.cycles_per_ms() as f64)
    }

    /// Hardware commits during software activity per ms of software time
    /// (Figure 8 "SlowHTM" for RHNOrec).
    pub fn htm_slow_per_ms(&self, machine: &MachineProfile) -> f64 {
        if self.cycles_in_sw == 0 {
            return 0.0;
        }
        self.htm_slow_commits as f64 / (self.cycles_in_sw as f64 / machine.cycles_per_ms() as f64)
    }

    /// Fraction of ops that fell back to a lock.
    pub fn lock_fallback_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.lock_commits as f64 / self.ops as f64
        }
    }

    /// Figure 9's four execution-type fractions
    /// (HTMFast, HTMSlow, STMFastCommit, STMSlowCommit).
    pub fn exec_fractions(&self) -> [f64; 4] {
        let total = self.fast_commits
            + self.htm_slow_commits
            + self.stm_fast_commits
            + self.stm_slow_commits;
        if total == 0 {
            return [0.0; 4];
        }
        let t = total as f64;
        [
            self.fast_commits as f64 / t,
            self.htm_slow_commits as f64 / t,
            self.stm_fast_commits as f64 / t,
            self.stm_slow_commits as f64 / t,
        ]
    }

    /// Validations per committed software transaction (Figure 10).
    pub fn validations_per_stm_txn(&self) -> f64 {
        let c = self.stm_fast_commits + self.stm_slow_commits;
        if c == 0 {
            0.0
        } else {
            self.validations as f64 / c as f64
        }
    }

    /// JSON form: every raw counter, keyed by its field name (units are
    /// simulator cycles).
    pub fn to_json(&self) -> Json {
        let heat = &self.orec_heatmap;
        let mut pairs = vec![
            ("ops", Json::UInt(self.ops)),
            ("fast_commits", Json::UInt(self.fast_commits)),
            ("slow_commits", Json::UInt(self.slow_commits)),
            ("lock_commits", Json::UInt(self.lock_commits)),
            ("htm_slow_commits", Json::UInt(self.htm_slow_commits)),
            ("stm_fast_commits", Json::UInt(self.stm_fast_commits)),
            ("stm_slow_commits", Json::UInt(self.stm_slow_commits)),
            ("aborts", Json::UInt(self.aborts())),
            ("aborts_conflict", Json::UInt(self.aborts_conflict)),
            ("aborts_capacity", Json::UInt(self.aborts_capacity)),
            ("aborts_uarch", Json::UInt(self.aborts_uarch)),
            ("aborts_hostile", Json::UInt(self.aborts_hostile)),
            ("aborts_eager_owned", Json::UInt(self.aborts_eager_owned)),
            ("aborts_lazy", Json::UInt(self.aborts_lazy)),
            ("sw_aborts", Json::UInt(self.sw_aborts)),
            ("validations", Json::UInt(self.validations)),
            ("cycles_locked", Json::UInt(self.cycles_locked)),
            ("cycles_in_sw", Json::UInt(self.cycles_in_sw)),
            ("sim_cycles", Json::UInt(self.sim_cycles)),
            ("orec_conflict_aborts", Json::UInt(heat.total_conflicts())),
        ];
        if heat.total_conflicts() > 0 {
            // Sparse heatmap: hot slots only, hottest first.
            let slots: Vec<Json> = heat
                .hottest(heat.conflicts.len())
                .into_iter()
                .map(|(slot, n)| {
                    Json::obj([
                        ("slot", Json::UInt(slot as u64)),
                        ("conflicts", Json::UInt(n)),
                    ])
                })
                .collect();
            pairs.push((
                "orec_heatmap",
                Json::obj([
                    ("capacity", Json::UInt(heat.conflicts.len() as u64)),
                    ("slots", Json::Arr(slots)),
                ]),
            ));
        }
        Json::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_conversions() {
        let s = SimStats {
            ops: 2_300,
            sim_cycles: MachineProfile::XEON.cycles_per_ms(),
            ..Default::default()
        };
        let t = s.ops_per_ms(&MachineProfile::XEON);
        assert!((t - 2_300.0).abs() < 1e-9, "2300 ops in one ms");
    }

    #[test]
    fn zero_guards() {
        let s = SimStats::default();
        assert_eq!(s.ops_per_ms(&MachineProfile::XEON), 0.0);
        assert_eq!(s.slow_htm_per_ms(&MachineProfile::XEON), 0.0);
        assert_eq!(s.lock_fallback_rate(), 0.0);
        assert_eq!(s.exec_fractions(), [0.0; 4]);
        assert_eq!(s.validations_per_stm_txn(), 0.0);
    }

    #[test]
    fn fractions_partition() {
        let s = SimStats {
            fast_commits: 6,
            htm_slow_commits: 2,
            stm_fast_commits: 1,
            stm_slow_commits: 1,
            ..Default::default()
        };
        let f = s.exec_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[0] - 0.6).abs() < 1e-12);
    }
}
