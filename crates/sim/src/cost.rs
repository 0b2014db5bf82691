//! The cycle cost model and machine profiles.
//!
//! All simulator time is in CPU cycles; [`MachineProfile::cycles_per_ms`]
//! converts to the paper's ops/ms metric. The constants are order-of-
//! magnitude Haswell-generation figures; the evaluation cares about the
//! *relative* cost structure (un-inlined barriers are tens of cycles, an
//! HTM abort costs about as much as a cache miss burst, a lock handoff is
//! a coherence transfer), not about absolute calibration.

/// Cycle prices for the primitive actions of every protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// One shared access on an uninstrumented (fast HTM / plain) path.
    pub access: u64,
    /// Extra per access on the instrumented slow HTM path (an un-inlined
    /// barrier call + orec lookup; the paper blames exactly this overhead
    /// for refined TLE's under-lock slowdown, §6.2.1).
    pub slow_barrier_extra: u64,
    /// Extra per access for the instrumented execution under the lock
    /// (barrier call; for FG-TLE also the store-load fence after an orec
    /// acquisition, amortized).
    pub lock_barrier_extra: u64,
    /// Starting a hardware transaction (xbegin + lock subscription).
    pub htm_begin: u64,
    /// Committing a hardware transaction.
    pub htm_commit: u64,
    /// Abort: rollback plus the cold restart of the attempt.
    pub abort_penalty: u64,
    /// Acquiring a free lock (CAS + coherence).
    pub lock_acquire: u64,
    /// Extra cost when the acquisition had to wait (cache-line ping-pong
    /// of the contended lock word plus backoff slack; the reason a single
    /// hot lock scales *negatively*, as in Figure 13's `Lock` curve).
    pub lock_contended_extra: u64,
    /// Releasing a lock.
    pub lock_release: u64,
    /// NOrec software read barrier (value log + clock check) per access.
    pub sw_access: u64,
    /// NOrec validation cost per read-set entry per validation pass.
    pub sw_validate_per_entry: u64,
    /// Write-back cost per written line during a software commit.
    pub sw_writeback_per_line: u64,
    /// Fixed overhead of a software commit (CAS/reduced HW txn).
    pub sw_commit: u64,
    /// Emulated HTM capacity: distinct written lines.
    pub htm_write_capacity: usize,
    /// Emulated HTM capacity: distinct read lines.
    pub htm_read_capacity: usize,
}

impl CostModel {
    /// Cost preset for pointer-chasing workloads whose working set spills
    /// the private caches (the AVL trees of §6.2): every node hop is an
    /// L2/LLC-latency access rather than an L1 hit.
    pub fn pointer_chasing() -> Self {
        CostModel {
            access: 24,
            // The software read barrier pays the same memory latency plus
            // an un-inlined barrier call, the clock check and value
            // logging (the paper's libitm calls are never inlined, §6.2.1).
            sw_access: 70,
            sw_validate_per_entry: 10,
            ..CostModel::default()
        }
    }

    /// Scales every cycle-valued field by `factor` (used to apply the SMT
    /// slowdown uniformly). Capacities are unchanged.
    pub fn scaled(&self, factor: f64) -> Self {
        let f = |x: u64| (x as f64 * factor).round() as u64;
        CostModel {
            access: f(self.access),
            slow_barrier_extra: f(self.slow_barrier_extra),
            lock_barrier_extra: f(self.lock_barrier_extra),
            htm_begin: f(self.htm_begin),
            htm_commit: f(self.htm_commit),
            abort_penalty: f(self.abort_penalty),
            lock_acquire: f(self.lock_acquire),
            lock_contended_extra: f(self.lock_contended_extra),
            lock_release: f(self.lock_release),
            sw_access: f(self.sw_access),
            sw_validate_per_entry: f(self.sw_validate_per_entry),
            sw_writeback_per_line: f(self.sw_writeback_per_line),
            sw_commit: f(self.sw_commit),
            htm_write_capacity: self.htm_write_capacity,
            htm_read_capacity: self.htm_read_capacity,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            access: 4,
            slow_barrier_extra: 14,
            lock_barrier_extra: 18,
            htm_begin: 45,
            htm_commit: 30,
            abort_penalty: 160,
            lock_acquire: 40,
            lock_contended_extra: 220,
            lock_release: 25,
            sw_access: 12,
            sw_validate_per_entry: 4,
            sw_writeback_per_line: 6,
            sw_commit: 60,
            // The emulated HTM's capacities, so the simulator and the
            // runtime abort at one footprint (both are guesses, not
            // measurements: DESIGN §4b).
            htm_write_capacity: rtle_htm::config::DEFAULT_WRITE_CAPACITY as usize,
            htm_read_capacity: rtle_htm::config::DEFAULT_READ_CAPACITY as usize,
        }
    }
}

/// The two machines of §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineProfile {
    /// Display name ("Core i7", "Xeon").
    pub name: &'static str,
    /// Hardware threads used in the paper's sweeps.
    pub max_threads: usize,
    /// Physical cores (threads beyond this share cores via SMT, as the
    /// paper's pinning arranges: thread i and i+cores share a core).
    pub cores: usize,
    /// Core clock in kHz (cycles per millisecond).
    pub khz: u64,
}

impl MachineProfile {
    /// Haswell Core i7-4770: 4 cores × 2 SMT @ 3.40 GHz.
    pub const CORE_I7: MachineProfile = MachineProfile {
        name: "Core i7",
        max_threads: 8,
        cores: 4,
        khz: 3_400_000,
    };

    /// Oracle X5-2 socket: Xeon E5-2699 v3, 18 cores × 2 SMT @ 2.30 GHz.
    pub const XEON: MachineProfile = MachineProfile {
        name: "Xeon",
        max_threads: 36,
        cores: 18,
        khz: 2_300_000,
    };

    /// Cycles in one millisecond.
    pub fn cycles_per_ms(&self) -> u64 {
        self.khz
    }

    /// Uniform per-thread slowdown from SMT core sharing at `threads`
    /// running threads: ≈1.4× when every core runs two hyperthreads,
    /// linear in the shared fraction below that (the paper pins thread
    /// i and i+cores to one core, §6.1).
    pub fn smt_factor(&self, threads: usize) -> f64 {
        if threads <= self.cores {
            1.0
        } else {
            let sharing = (2 * (threads - self.cores)).min(threads) as f64;
            1.0 + 0.4 * sharing / threads as f64
        }
    }

    /// Per-attempt microarchitectural HTM abort probability at `threads`
    /// running threads: a small baseline once more than one thread shares
    /// the memory hierarchy, growing substantially when SMT pairs share
    /// L1/HTM tracking capacity (threads beyond `cores`).
    pub fn htm_spurious(&self, threads: usize) -> f64 {
        if threads <= 1 {
            return 0.0;
        }
        let base = 0.01;
        let sharing = if threads <= self.cores {
            0.0
        } else {
            (2 * (threads - self.cores)).min(threads) as f64 / threads as f64
        };
        base + 0.12 * sharing
    }

    /// The thread counts the paper plots for this machine.
    pub fn thread_points(&self) -> Vec<usize> {
        if self.max_threads <= 8 {
            vec![1, 2, 3, 4, 5, 6, 7, 8]
        } else {
            vec![1, 2, 4, 8, 12, 16, 18, 24, 28, 36]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ordered_sanely() {
        let c = CostModel::default();
        assert!(c.slow_barrier_extra > 0 && c.lock_barrier_extra >= c.slow_barrier_extra);
        assert!(c.abort_penalty > c.htm_begin);
        assert!(
            c.sw_access > c.access,
            "software barriers cost more than plain loads"
        );
        assert!(c.htm_read_capacity >= c.htm_write_capacity);
    }

    #[test]
    fn machine_profiles_match_paper() {
        assert_eq!(MachineProfile::CORE_I7.max_threads, 8);
        assert_eq!(MachineProfile::XEON.max_threads, 36);
        assert_eq!(MachineProfile::XEON.cycles_per_ms(), 2_300_000);
        assert_eq!(MachineProfile::CORE_I7.thread_points().len(), 8);
        assert!(MachineProfile::XEON.thread_points().contains(&18));
        assert!(MachineProfile::XEON.thread_points().contains(&36));
    }
}
