//! Tunables of the emulated HTM.
//!
//! Defaults model a Haswell-class core: the write set is bounded by the L1D
//! (32 KiB / 64 B = 512 lines), the read set by a larger tracking structure.
//! The values are process-global (hardware is, too) but adjustable before —
//! or between — transactions, which the tests use to exercise capacity
//! aborts deterministically.

use crate::atomic::RelaxedWord;

/// log2 of the emulated cache-line size; conflict detection granularity.
/// Two `TxCell`s whose addresses share all bits above this shift alias to
/// the same line (false sharing is reproduced deliberately).
pub const LINE_SHIFT: u32 = 6;

/// Number of versioned-lock stripes in the global conflict table. Must be a
/// power of two. 2^20 stripes ≈ 8 MiB: one per line of a 64 MiB window of
/// data, so no two lines of one window alias (`stripe::stripe_index`).
pub const STRIPE_COUNT: usize = 1 << 20;

/// Data lines whose stripes the address map keeps together: 4 096 lines
/// (256 KiB of data) own one 32 KiB block of the conflict table, so the
/// table is paged in as the data is.
pub const STRIPE_BLOCK_LINES: usize = 1 << 12;

const _: () = assert!(
    STRIPE_COUNT.is_power_of_two() && STRIPE_COUNT.is_multiple_of(STRIPE_BLOCK_LINES),
    "the conflict table holds whole blocks"
);

/// Default write-set capacity in lines (Haswell L1D-sized: a guess, not
/// a measurement). The simulator's cost model reads it too
/// (`rtle_sim::CostModel`), so the runtime and the figures abort at one
/// footprint.
pub const DEFAULT_WRITE_CAPACITY: u32 = 512;

/// Default read-set capacity in lines (Haswell tracks reads in L2-ish
/// structures; we allow 8× the write capacity). Shared with the
/// simulator's cost model, like the write capacity.
pub const DEFAULT_READ_CAPACITY: u32 = 4096;

// The knobs are self-contained values with no ordering role. The
// capacities are `u32`s held in a 64-bit word.
static WRITE_CAPACITY: RelaxedWord = RelaxedWord::new(DEFAULT_WRITE_CAPACITY as u64);
static READ_CAPACITY: RelaxedWord = RelaxedWord::new(DEFAULT_READ_CAPACITY as u64);
/// Spurious abort injection: a transaction aborts spuriously with
/// probability 1 / `SPURIOUS_ONE_IN` at begin-time. 0 disables injection.
static SPURIOUS_ONE_IN: RelaxedWord = RelaxedWord::new(0);
/// Injected begin-time conflict aborts (chaos testing), same scheme.
static CONFLICT_ONE_IN: RelaxedWord = RelaxedWord::new(0);
/// Injected begin-time capacity aborts (chaos testing), same scheme.
static CAPACITY_ONE_IN: RelaxedWord = RelaxedWord::new(0);

/// Snapshot of the emulated-HTM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HtmConfig {
    /// Maximum distinct lines a transaction may write before aborting with
    /// [`crate::AbortCode::Capacity`].
    pub write_capacity: u32,
    /// Maximum distinct lines a transaction may read before aborting with
    /// [`crate::AbortCode::Capacity`].
    pub read_capacity: u32,
    /// If non-zero, inject one spurious abort per this many transactions.
    pub spurious_one_in: u64,
    /// If non-zero, inject one [`crate::AbortCode::Conflict`] abort per
    /// this many transactions at begin-time. Models pathological cache
    /// interference (prefetchers, SMT siblings) that real HTM reports as
    /// data conflicts without any true data race; `rtle-fuzz` uses it for
    /// abort-storm chaos runs.
    pub conflict_one_in: u64,
    /// If non-zero, inject one [`crate::AbortCode::Capacity`] abort per
    /// this many transactions at begin-time — capacity pressure without
    /// having to build giant footprints.
    pub capacity_one_in: u64,
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig {
            write_capacity: DEFAULT_WRITE_CAPACITY,
            read_capacity: DEFAULT_READ_CAPACITY,
            spurious_one_in: 0,
            conflict_one_in: 0,
            capacity_one_in: 0,
        }
    }
}

impl HtmConfig {
    /// Reads the currently installed global configuration.
    pub fn current() -> Self {
        HtmConfig {
            write_capacity: write_capacity() as u32,
            read_capacity: read_capacity() as u32,
            spurious_one_in: SPURIOUS_ONE_IN.load(),
            conflict_one_in: CONFLICT_ONE_IN.load(),
            capacity_one_in: CAPACITY_ONE_IN.load(),
        }
    }

    /// Installs `self` as the global configuration. Affects transactions
    /// that begin after the call; in-flight transactions keep the limits
    /// they started with.
    pub fn install(self) {
        WRITE_CAPACITY.store(u64::from(self.write_capacity));
        READ_CAPACITY.store(u64::from(self.read_capacity));
        SPURIOUS_ONE_IN.store(self.spurious_one_in);
        CONFLICT_ONE_IN.store(self.conflict_one_in);
        CAPACITY_ONE_IN.store(self.capacity_one_in);
    }

    /// Runs `f` with `self` installed, then restores the previous
    /// configuration. Concurrent `with_installed` calls serialize on an
    /// internal mutex (the configuration is process-global, like the
    /// hardware it models), so tests mutating limits do not trample each
    /// other. Tests that *assume* the default configuration can still race
    /// with one; keep such assumptions loose or use this helper too.
    pub fn with_installed<R>(self, f: impl FnOnce() -> R) -> R {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = HtmConfig::current();
        self.install();
        let r = f();
        prev.install();
        r
    }
}

/// The write capacity, in lines (a `u32` widened: the barriers compare it
/// with a log length).
#[inline]
pub(crate) fn write_capacity() -> usize {
    WRITE_CAPACITY.load() as usize
}

/// The read capacity, in lines (as [`write_capacity`]).
#[inline]
pub(crate) fn read_capacity() -> usize {
    READ_CAPACITY.load() as usize
}

#[inline]
pub(crate) fn spurious_one_in() -> u64 {
    SPURIOUS_ONE_IN.load()
}

#[inline]
pub(crate) fn conflict_one_in() -> u64 {
    CONFLICT_ONE_IN.load()
}

#[inline]
pub(crate) fn capacity_one_in() -> u64 {
    CAPACITY_ONE_IN.load()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_constants() {
        let c = HtmConfig::default();
        assert_eq!(c.write_capacity, DEFAULT_WRITE_CAPACITY);
        assert_eq!(c.read_capacity, DEFAULT_READ_CAPACITY);
        assert_eq!(c.spurious_one_in, 0);
        assert_eq!(c.conflict_one_in, 0);
        assert_eq!(c.capacity_one_in, 0);
    }
}
