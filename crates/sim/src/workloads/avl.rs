//! The AVL-tree set workload (§6.2): N threads performing Insert / Remove
//! / Find with a given distribution over a uniform key range, against a
//! real shadow [`AvlSet`] pre-filled to half the range.
//!
//! Trace generation runs the *read-only* search through a recording
//! accessor (exact path lines from the live tree shape) and synthesizes
//! the update's write footprint with the AVL's geometric rebalance decay:
//! an insert or remove certainly writes the bottom of its path and, with
//! probability halving per level, nodes further up (matching the expected
//! ≈0.5 rotations and ≈1.8 height updates per AVL update). The committed
//! mutation is then applied to the shadow for real, so the tree shape —
//! and therefore every later trace — stays faithful.

use rtle_avltree::{xorshift64, AvlSet};
use rtle_htm::PlainAccess;

use crate::workload::{Access, OpSpec, Workload};
use crate::workloads::recorder::Recorder;

/// Per-op non-critical work (key/op selection), cycles.
const SETUP: u64 = 60;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Insert,
    Remove,
    Find,
}

/// Configuration of the AVL workload.
#[derive(Debug, Clone, Copy)]
pub struct AvlConfig {
    /// Key range (the paper: 8192 and 65536); the set is pre-filled with
    /// every other key (half the range).
    pub key_range: u64,
    /// Percent of operations that are Insert (paper: 0/10/20/50).
    pub insert_pct: u32,
    /// Percent that are Remove (kept equal to Insert in the paper).
    pub remove_pct: u32,
    /// Figure 12 mode: this thread performs only updates that contain an
    /// HTM-hostile instruction, all other threads only Finds.
    pub hostile_thread: Option<usize>,
    /// Fixed-work ops per thread (`None`: fixed-duration mode).
    pub ops_per_thread: Option<u64>,
    /// Deterministic seed for key/op selection.
    pub seed: u64,
}

impl AvlConfig {
    /// The paper's standard grid point.
    pub fn new(key_range: u64, insert_pct: u32, remove_pct: u32) -> Self {
        AvlConfig {
            key_range,
            insert_pct,
            remove_pct,
            hostile_thread: None,
            ops_per_thread: None,
            seed: 0x5eed,
        }
    }
}

/// The workload state.
pub struct AvlWorkload {
    cfg: AvlConfig,
    set: AvlSet,
    rngs: Vec<u64>,
    cur: Vec<(OpKind, u64, bool)>, // (kind, key, hostile)
    remaining: Vec<Option<u64>>,
}

impl AvlWorkload {
    /// Builds the workload: allocates and pre-fills the shadow tree.
    pub fn new(threads: usize, cfg: AvlConfig) -> Self {
        assert!(cfg.insert_pct + cfg.remove_pct <= 100);
        let set = AvlSet::with_key_range(cfg.key_range);
        let a = PlainAccess;
        // Pre-fill every other key: half the range, as in §6.2.
        for k in (0..cfg.key_range).step_by(2) {
            set.insert(&a, k);
        }
        AvlWorkload {
            set,
            rngs: (0..threads)
                .map(|t| cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (t as u64 + 1))
                .collect(),
            cur: vec![(OpKind::Find, 0, false); threads],
            remaining: vec![cfg.ops_per_thread; threads],
            cfg,
        }
    }

    /// The shadow set (tests inspect it).
    pub fn set(&self) -> &AvlSet {
        &self.set
    }

    fn pick_op(&mut self, thread: usize) {
        let r = xorshift64(&mut self.rngs[thread]);
        let key = (r >> 16) % self.cfg.key_range;
        let (kind, hostile) = match self.cfg.hostile_thread {
            Some(h) if thread == h => {
                // Figure 12: updates with an HTM-unfriendly instruction.
                (
                    if r.is_multiple_of(2) {
                        OpKind::Insert
                    } else {
                        OpKind::Remove
                    },
                    true,
                )
            }
            Some(_) => (OpKind::Find, false),
            None => {
                let pct = (r % 100) as u32;
                if pct < self.cfg.insert_pct {
                    (OpKind::Insert, false)
                } else if pct < self.cfg.insert_pct + self.cfg.remove_pct {
                    (OpKind::Remove, false)
                } else {
                    (OpKind::Find, false)
                }
            }
        };
        self.cur[thread] = (kind, key, hostile);
    }

    fn trace(&mut self, thread: usize) -> OpSpec {
        let (kind, key, hostile) = self.cur[thread];
        let rec = Recorder::new();
        let present = self.set.contains(&rec, key);
        let mut trace = rec.take();
        // Translate recorded (address-derived) lines into stable ids:
        // node k+1 -> line k+1, the root link cell -> key_range + 2.
        // Address-independent ids keep the whole simulation bit-identical
        // across processes and allocator layouts.
        let base = self.set.node_line_base();
        let root_raw = self.set.root_cell_line();
        for a in &mut trace {
            a.line = if a.line == root_raw {
                self.cfg.key_range + 2
            } else {
                a.line.wrapping_sub(base)
            };
        }

        // Node lines along the path, bottom-most last (dedup consecutive:
        // contains reads 1–2 words per node, all on the node's line).
        let mut path: Vec<u64> = Vec::with_capacity(trace.len());
        for a in &trace {
            if path.last() != Some(&a.line) {
                path.push(a.line);
            }
        }

        let mutates = match kind {
            OpKind::Insert => !present,
            OpKind::Remove => present,
            OpKind::Find => false,
        };
        if mutates {
            if kind == OpKind::Insert {
                // The new node's own line is written (initialization).
                let node_line = self.node_line_of(key);
                trace.push(Access {
                    line: node_line,
                    write: true,
                });
            }
            // Geometric rebalance decay up the recorded path: balance and
            // height updates (and, rarer, rotations) touch a geometrically
            // shrinking suffix of the search path. OpenSolaris-style AVL
            // nodes carry parent pointers and balance fields, so updates
            // propagate further than the textbook 1–2 nodes.
            let mut p = 1.0f64;
            for line in path.iter().rev() {
                let roll = xorshift64(&mut self.rngs[thread]) as f64 / u64::MAX as f64;
                if roll < p {
                    trace.push(Access {
                        line: *line,
                        write: true,
                    });
                } else {
                    break;
                }
                p *= 0.72;
            }
        }

        OpSpec {
            trace,
            setup_cycles: SETUP + xorshift64(&mut self.rngs[thread]) % 32,
            htm_hostile: hostile,
            ..Default::default()
        }
    }

    /// Stable line id of the arena node owning `key` (the same id the
    /// translated traversal traces use).
    fn node_line_of(&self, key: u64) -> u64 {
        key + 1
    }
}

impl Workload for AvlWorkload {
    fn next_op(&mut self, thread: usize) -> OpSpec {
        self.pick_op(thread);
        self.trace(thread)
    }

    fn next_op_again(&mut self, thread: usize) -> OpSpec {
        self.trace(thread)
    }

    fn commit(&mut self, thread: usize) {
        let (kind, key, _) = self.cur[thread];
        let a = PlainAccess;
        match kind {
            OpKind::Insert => {
                self.set.insert(&a, key);
            }
            OpKind::Remove => {
                self.set.remove(&a, key);
            }
            OpKind::Find => {}
        }
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

    fn cfg(range: u64, upd: u32) -> AvlConfig {
        let mut c = AvlConfig::new(range, upd, upd);
        c.ops_per_thread = Some(300);
        c
    }

    #[test]
    fn traces_look_like_tree_searches() {
        let mut w = AvlWorkload::new(1, cfg(8192, 20));
        let spec = w.next_op(0);
        assert!(spec.trace.len() >= 2, "at least root + node");
        assert!(
            spec.trace.len() < 80,
            "log-depth search: {}",
            spec.trace.len()
        );
    }

    #[test]
    fn find_ops_are_read_only() {
        let mut c = cfg(1024, 0);
        c.remove_pct = 0;
        let mut w = AvlWorkload::new(1, c);
        for _ in 0..50 {
            let spec = w.next_op(0);
            assert!(!spec.has_writes(), "0% update workload writes nothing");
            w.commit(0);
        }
    }

    #[test]
    fn shadow_tree_stays_valid_under_sim() {
        let w = AvlWorkload::new(4, cfg(1024, 50));
        let s = Engine::new(
            SimMethod::FgTle { orecs: 256 },
            4,
            CostModel::default(),
            RunMode::FixedWork,
            w,
        );
        let stats = s.run();
        assert_eq!(stats.ops, 4 * 300);
    }

    #[test]
    fn hostile_thread_forces_locks() {
        let mut c = cfg(8192, 0);
        c.hostile_thread = Some(0);
        let w = AvlWorkload::new(4, c);
        let stats = Engine::new(
            SimMethod::FgTle { orecs: 4096 },
            4,
            CostModel::default(),
            RunMode::FixedWork,
            w,
        )
        .run();
        assert_eq!(stats.ops, 4 * 300);
        assert!(stats.lock_commits >= 250, "hostile updates lock: {stats:?}");
        assert!(
            stats.slow_commits > 0,
            "finders run concurrently: {stats:?}"
        );
    }
}
