//! Per-function control-flow graphs over the [`crate::syntax`] AST.
//!
//! Each function lowers to a graph of basic blocks holding typed
//! [`Event`]s — the only program actions the passes reason about (atomic
//! ops, fences, `TxCell`-style stores, raw-pointer accesses and calls).
//! Everything else in the function is dropped at lowering time, which
//! keeps the dominance machinery tiny.
//!
//! Dominance and postdominance are computed by the classic iterative
//! bitset dataflow; functions in this workspace have tens of blocks, so
//! the O(n²) sets are effectively free and the implementation stays
//! dependency-free.

pub mod lower;

use std::fmt;

pub use lower::lower_fn;

/// One analyzable program action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A call (free or method) the passes may interpret by name.
    Call {
        /// Callee / method name.
        name: String,
        /// Receiver name for method calls, when resolvable.
        recv: Option<String>,
    },
    /// Atomic operation with explicit `Ordering` arguments.
    Atomic {
        /// Method name (`load`, `store`, `fetch_add`, ...).
        op: String,
        /// Receiver name.
        recv: String,
        /// Ordering idents in argument order (`Acquire`, `SeqCst`, ...).
        orderings: Vec<String>,
    },
    /// `fence(Ordering::X)`.
    Fence {
        /// Ordering ident.
        ordering: String,
    },
    /// `<recv>.write(value)` — a `TxCell`-style store (no `Ordering`).
    TxWrite {
        /// Receiver name.
        recv: String,
    },
    /// Raw-pointer write: `*p = x` inside `unsafe`, or `ptr::write`.
    RawWrite,
    /// Raw-pointer read: an `unsafe` deref that is not a store target or
    /// an atomic receiver.
    RawRead,
}

/// An [`EventKind`] with its source position.
#[derive(Debug, Clone)]
pub struct Event {
    /// The action.
    pub kind: EventKind,
    /// 1-based source line.
    pub line: usize,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            EventKind::Call { name, recv } => match recv {
                Some(r) => write!(f, "call {r}.{name}"),
                None => write!(f, "call {name}"),
            },
            EventKind::Atomic {
                op,
                recv,
                orderings,
            } => {
                write!(f, "atomic {recv}.{op} {}", orderings.join("/"))
            }
            EventKind::Fence { ordering } => write!(f, "fence {ordering}"),
            EventKind::TxWrite { recv } => write!(f, "txwrite {recv}"),
            EventKind::RawWrite => write!(f, "raw-write"),
            EventKind::RawRead => write!(f, "raw-read"),
        }
    }
}

/// A basic block: straight-line events plus successor edges.
#[derive(Debug, Default)]
pub struct BasicBlock {
    /// Events in program order.
    pub events: Vec<Event>,
    /// Successor block ids.
    pub succs: Vec<usize>,
}

/// Position of an event inside a [`FnCfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvRef {
    /// Block id.
    pub block: usize,
    /// Index into the block's event list.
    pub idx: usize,
}

/// A lowered function.
#[derive(Debug)]
pub struct FnCfg {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// `cfg` marker in effect: `"test"`, a feature name, etc.
    pub cfg_marker: Option<String>,
    /// Blocks; ids are indices.
    pub blocks: Vec<BasicBlock>,
    /// Entry block id.
    pub entry: usize,
    /// Exit block id (every return edge targets it).
    pub exit: usize,
}

impl FnCfg {
    /// Is this function a seeded analyzer mutant
    /// (`#[cfg(feature = "mutant-...")]`)?
    pub fn mutant_feature(&self) -> Option<&str> {
        self.cfg_marker
            .as_deref()
            .filter(|m| m.starts_with("mutant"))
    }

    /// Iterates all events with their positions, in block order.
    pub fn events(&self) -> impl Iterator<Item = (EvRef, &Event)> {
        self.blocks.iter().enumerate().flat_map(|(b, blk)| {
            blk.events
                .iter()
                .enumerate()
                .map(move |(i, e)| (EvRef { block: b, idx: i }, e))
        })
    }

    fn preds(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (b, blk) in self.blocks.iter().enumerate() {
            for &s in &blk.succs {
                if s < preds.len() {
                    preds[s].push(b);
                }
            }
        }
        preds
    }

    /// Block-level dominator sets: `doms[b][d]` ⇔ `d` dominates `b`.
    /// Blocks unreachable from entry keep the full set (vacuous truth);
    /// the passes only query reachable events.
    pub fn dominators(&self) -> Vec<Vec<bool>> {
        iterate_flow(self.blocks.len(), self.entry, &self.preds())
    }

    /// Block-level reachability: `reach[a][b]` ⇔ a path a→…→b exists
    /// (including the empty path: `reach[a][a]`).
    pub fn reachability(&self) -> Vec<Vec<bool>> {
        let n = self.blocks.len();
        let mut reach = vec![vec![false; n]; n];
        for (start, row) in reach.iter_mut().enumerate() {
            let mut stack = vec![start];
            while let Some(b) = stack.pop() {
                if row[b] {
                    continue;
                }
                row[b] = true;
                for &s in &self.blocks[b].succs {
                    if s < n && !row[s] {
                        stack.push(s);
                    }
                }
            }
        }
        reach
    }

    /// Event-level dominance: `a` dominates `b` iff `a`'s block strictly
    /// dominates `b`'s, or they share a block and `a` comes first.
    pub fn ev_dominates(&self, doms: &[Vec<bool>], a: EvRef, b: EvRef) -> bool {
        if a.block == b.block {
            return a.idx <= b.idx;
        }
        doms[b.block][a.block]
    }

    /// Event-level reachability: can control reach `b` strictly after `a`?
    pub fn ev_reaches(&self, reach: &[Vec<bool>], a: EvRef, b: EvRef) -> bool {
        if a.block == b.block && b.idx > a.idx {
            return true;
        }
        self.blocks[a.block]
            .succs
            .iter()
            .any(|&s| s < reach.len() && reach[s][b.block])
    }

    /// Text dump (golden-test format).
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "fn {} (line {})", self.name, self.line);
        for (i, b) in self.blocks.iter().enumerate() {
            let mark = if i == self.entry {
                " entry"
            } else if i == self.exit {
                " exit"
            } else {
                ""
            };
            let succs: Vec<String> = b.succs.iter().map(|s| s.to_string()).collect();
            let _ = writeln!(out, "  b{i}{mark} -> [{}]", succs.join(" "));
            for e in &b.events {
                let _ = writeln!(out, "    {e}");
            }
        }
        out
    }
}

/// The dominator fixpoint: `sets[root] = {root}`, every other node
/// starts full and intersects over `edges_in` until stable.
fn iterate_flow(n: usize, root: usize, edges_in: &[Vec<usize>]) -> Vec<Vec<bool>> {
    let mut sets: Vec<Vec<bool>> = vec![vec![true; n]; n];
    if n == 0 {
        return sets;
    }
    sets[root] = vec![false; n];
    sets[root][root] = true;
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..n {
            if b == root {
                continue;
            }
            let mut new: Option<Vec<bool>> = None;
            for &p in &edges_in[b] {
                match &mut new {
                    None => new = Some(sets[p].clone()),
                    Some(acc) => {
                        for (i, v) in acc.iter_mut().enumerate() {
                            *v = *v && sets[p][i];
                        }
                    }
                }
            }
            let mut new = new.unwrap_or_else(|| vec![true; n]);
            new[b] = true;
            if new != sets[b] {
                sets[b] = new;
                changed = true;
            }
        }
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> FnCfg {
        // 0 -> 1,2 ; 1 -> 3 ; 2 -> 3 ; 3 -> 4(exit)
        let mut blocks: Vec<BasicBlock> = (0..5).map(|_| BasicBlock::default()).collect();
        blocks[0].succs = vec![1, 2];
        blocks[1].succs = vec![3];
        blocks[2].succs = vec![3];
        blocks[3].succs = vec![4];
        FnCfg {
            name: "d".into(),
            line: 1,
            cfg_marker: None,
            blocks,
            entry: 0,
            exit: 4,
        }
    }

    #[test]
    fn diamond_dominance() {
        let cfg = diamond();
        let doms = cfg.dominators();
        assert!(doms[3][0], "entry dominates join");
        assert!(!doms[3][1], "one branch does not dominate the join");
        assert!(!doms[3][2]);
    }

    #[test]
    fn diamond_reachability() {
        let cfg = diamond();
        let reach = cfg.reachability();
        assert!(reach[0][4]);
        assert!(reach[1][3]);
        assert!(!reach[1][2], "siblings unreachable from each other");
        assert!(!reach[3][0]);
    }

    #[test]
    fn event_level_relations() {
        let mut cfg = diamond();
        let ev = |k: EventKind| Event { kind: k, line: 1 };
        cfg.blocks[0].events.push(ev(EventKind::RawRead));
        cfg.blocks[0].events.push(ev(EventKind::RawWrite));
        cfg.blocks[1].events.push(ev(EventKind::RawRead));
        let doms = cfg.dominators();
        let reach = cfg.reachability();
        let a = EvRef { block: 0, idx: 0 };
        let b = EvRef { block: 0, idx: 1 };
        let c = EvRef { block: 1, idx: 0 };
        assert!(cfg.ev_dominates(&doms, a, b));
        assert!(!cfg.ev_dominates(&doms, b, a));
        assert!(cfg.ev_dominates(&doms, a, c));
        assert!(!cfg.ev_dominates(&doms, c, a));
        assert!(cfg.ev_reaches(&reach, a, c));
        assert!(!cfg.ev_reaches(&reach, c, a));
    }
}
