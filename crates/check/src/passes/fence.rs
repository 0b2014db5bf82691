//! §4 fence-dominance pass.
//!
//! The refined-TLE correctness argument (paper §4) requires a store-load
//! fence between stamping an orec and any subsequent data store: the
//! fence is what forces concurrent hardware transactions to observe the
//! stamp (or abort) before the software path mutates data. The old lint
//! checked this by textual adjacency; this pass walks the CFG instead:
//! starting from every `orec.write(..)` event, **every** path must hit a
//! `fence(SeqCst)` before any store-class event or the function exit.

use super::PassFinding;
use crate::cfg::{EvRef, EventKind, FnCfg};

/// Is this event a store the fence must precede?
fn is_store_class(k: &EventKind) -> bool {
    match k {
        EventKind::TxWrite { .. } | EventKind::RawWrite => true,
        EventKind::Atomic { op, .. } => {
            op == "store" || op == "swap" || op.starts_with("fetch_") || op.starts_with("compare_")
        }
        _ => false,
    }
}

/// Runs the pass over one lowered function.
pub fn run(cfg: &FnCfg) -> Vec<PassFinding> {
    let mut out = Vec::new();
    for (r, ev) in cfg.events() {
        let EventKind::TxWrite { recv } = &ev.kind else {
            continue;
        };
        if recv != "orec" {
            continue;
        }
        if let Some(bad) = first_unfenced_path(cfg, r) {
            out.push(PassFinding {
                line: ev.line,
                msg: format!(
                    "orec stamp store is not followed by fence(SeqCst) on every path \
                     ({bad}) before the next store (§4 store-load fence, fn `{}`)",
                    cfg.name
                ),
            });
        }
    }
    out
}

/// DFS from the event after `start`; `None` if every path fences before
/// storing/exiting, otherwise a description of one offending path end.
fn first_unfenced_path(cfg: &FnCfg, start: EvRef) -> Option<String> {
    let mut visited = vec![false; cfg.blocks.len()];
    // Stack entries: (block, first event index to consider).
    let mut stack = vec![(start.block, start.idx + 1)];
    while let Some((b, from)) = stack.pop() {
        let mut fenced = false;
        for ev in &cfg.blocks[b].events[from..] {
            match &ev.kind {
                EventKind::Fence { ordering } if ordering == "SeqCst" => {
                    fenced = true;
                    break;
                }
                k if is_store_class(k) => {
                    return Some(format!("a store at line {} comes first", ev.line));
                }
                _ => {}
            }
        }
        if fenced {
            continue;
        }
        if b == cfg.exit {
            return Some("the function can return first".into());
        }
        for &s in &cfg.blocks[b].succs {
            if !visited[s] {
                visited[s] = true;
                stack.push((s, 0));
            }
        }
        if cfg.blocks[b].succs.is_empty() && b != cfg.exit {
            // Dead block (after `return`): path already accounted for.
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::tests::lower_first;

    const GOOD: &str = "fn stamp(&self, i: usize, epoch: u64) -> bool {\n        let orec = &self.array[i];\n        if orec.read_plain() >= epoch { return false; }\n        orec.write(epoch);\n        fence(Ordering::SeqCst);\n        self.stamps[i].fetch_add(1, Ordering::Relaxed);\n        true\n    }";

    #[test]
    fn fenced_stamp_is_clean() {
        assert!(run(&lower_first(GOOD)).is_empty());
    }

    #[test]
    fn missing_fence_is_flagged() {
        let cfg = lower_first(
            "fn stamp(&self, i: usize, epoch: u64) {\n                let orec = &self.array[i];\n                orec.write(epoch);\n                self.stamps[i].fetch_add(1, Ordering::Relaxed);\n            }",
        );
        let f = run(&cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("store at line"), "{}", f[0].msg);
    }

    #[test]
    fn fence_on_one_branch_only_is_flagged() {
        let cfg = lower_first(
            "fn stamp(&self, i: usize, epoch: u64, fast: bool) {\n                let orec = &self.array[i];\n                orec.write(epoch);\n                if fast { fence(Ordering::SeqCst); }\n                self.stamps[i].fetch_add(1, Ordering::Relaxed);\n            }",
        );
        let f = run(&cfg);
        assert_eq!(f.len(), 1, "path sensitivity: {f:?}");
    }

    #[test]
    fn weaker_fence_does_not_count() {
        let cfg = lower_first(
            "fn stamp(&self, i: usize, epoch: u64) {\n                let orec = &self.array[i];\n                orec.write(epoch);\n                fence(Ordering::Release);\n                self.stamps[i].fetch_add(1, Ordering::Relaxed);\n            }",
        );
        assert_eq!(run(&cfg).len(), 1);
    }

    #[test]
    fn other_receivers_are_not_stamps() {
        let cfg = lower_first("fn resize(&self) { self.active.write(self.next_len()); }");
        assert!(run(&cfg).is_empty());
    }
}
