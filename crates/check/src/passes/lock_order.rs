//! Static lock-order pass.
//!
//! Cross-shard acquisitions must happen in ascending shard-index order
//! (the deadlock-freedom argument in DESIGN.md). The pass discharges
//! each acquisition against *facts* the lowering extracted:
//!
//! * an [`EventKind::OrderFact`] from the conditional-swap idiom
//!   (`let (lo, hi) = if a < b { (a, b) } else { (b, a) };`),
//! * an [`EventKind::SortedFact`] from a `sort()`/`sort_unstable()`
//!   call or the `debug_assert!(s.windows(2).all(|w| w[0] < w[1]))`
//!   contract assertion,
//! * integer-literal indices compared directly.
//!
//! A fact discharges an obligation only when it **dominates** the
//! acquisition — it must hold on *every* path, not just some path.

use super::PassFinding;
use crate::cfg::{ContractArg, EvRef, EventKind, FnCfg};

/// Runs the pass over one lowered function.
pub fn run(cfg: &FnCfg) -> Vec<PassFinding> {
    let doms = cfg.dominators();

    let facts: Vec<(EvRef, &EventKind)> = cfg
        .events()
        .filter(|(_, e)| {
            matches!(
                e.kind,
                EventKind::OrderFact { .. } | EventKind::SortedFact { .. }
            )
        })
        .map(|(r, e)| (r, &e.kind))
        .collect();

    let order_proven = |lt: &str, gt: &str, at: EvRef| -> bool {
        if let (Ok(a), Ok(b)) = (lt.parse::<u64>(), gt.parse::<u64>()) {
            return a < b;
        }
        facts.iter().any(|&(fr, fk)| {
            matches!(fk, EventKind::OrderFact { lt: flt, gt: fgt }
                if flt == lt && fgt == gt)
                && cfg.ev_dominates(&doms, fr, at)
        })
    };
    let sorted_proven = |slice: &str, at: EvRef| -> bool {
        facts.iter().any(|&(fr, fk)| {
            matches!(fk, EventKind::SortedFact { slice: fs } if fs == slice)
                && cfg.ev_dominates(&doms, fr, at)
        })
    };

    let mut out = Vec::new();
    for (r, ev) in cfg.events() {
        match &ev.kind {
            EventKind::Acquire {
                index,
                loop_over,
                live,
            } => {
                // A loop acquisition is ordered iff the iterated slice is
                // provably sorted ascending before the loop.
                if let Some(slice) = loop_over {
                    if !sorted_proven(slice, r) {
                        out.push(PassFinding {
                            line: ev.line,
                            msg: format!(
                                "shard locks acquired while iterating `{slice}` with no \
                                 dominating proof that `{slice}` is sorted ascending \
                                 (fn `{}`)",
                                cfg.name
                            ),
                        });
                    }
                    continue;
                }
                // A nested acquisition must be provably above every lock
                // already held.
                for held in live {
                    let proven = match index {
                        Some(idx) => order_proven(held, idx, r),
                        None => false,
                    };
                    if !proven {
                        out.push(PassFinding {
                            line: ev.line,
                            msg: format!(
                                "shard lock `{}` acquired while holding `{held}` with no \
                                 dominating proof that {held} < {} (fn `{}`)",
                                index.as_deref().unwrap_or("?"),
                                index.as_deref().unwrap_or("?"),
                                cfg.name
                            ),
                        });
                    }
                }
            }
            EventKind::ContractCall { arg } => match arg {
                ContractArg::Slice(s) => {
                    if !sorted_proven(s, r) {
                        out.push(PassFinding {
                            line: ev.line,
                            msg: format!(
                                "`with_shards_locked(&{s}, ..)` with no dominating proof \
                                 that `{s}` is sorted ascending (fn `{}`)",
                                cfg.name
                            ),
                        });
                    }
                }
                ContractArg::Pair(a, b) => {
                    if !order_proven(a, b, r) {
                        out.push(PassFinding {
                            line: ev.line,
                            msg: format!(
                                "`with_shards_locked(&[{a}, {b}], ..)` with no dominating \
                                 proof that {a} < {b} (fn `{}`)",
                                cfg.name
                            ),
                        });
                    }
                }
                ContractArg::Unknown => {
                    out.push(PassFinding {
                        line: ev.line,
                        msg: format!(
                            "`with_shards_locked` argument shape not resolvable \
                             symbolically; cannot prove acquisition order (fn `{}`)",
                            cfg.name
                        ),
                    });
                }
            },
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::tests::lower_first;

    #[test]
    fn swap_then_pair_contract_is_clean() {
        let cfg = lower_first(
            "fn t(&self, s1: usize, s2: usize) {\n                let (lo, hi) = if s1 < s2 { (s1, s2) } else { (s2, s1) };\n                self.with_shards_locked(&[lo, hi], |g| g.len());\n            }",
        );
        assert!(run(&cfg).is_empty());
    }

    #[test]
    fn pair_contract_without_swap_is_flagged() {
        let cfg = lower_first(
            "fn t(&self, s1: usize, s2: usize) {\n                self.with_shards_locked(&[s1, s2], |g| g.len());\n            }",
        );
        let f = run(&cfg);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("s1 < s2"), "{}", f[0].msg);
    }

    #[test]
    fn literal_pair_is_self_evident() {
        let cfg = lower_first("fn t(&self) { self.with_shards_locked(&[0, 3], |g| g.len()); }");
        assert!(run(&cfg).is_empty());
    }

    #[test]
    fn sorted_slice_loop_acquire_is_clean() {
        let cfg = lower_first(
            "fn w(&self, idxs: &[usize]) {\n                debug_assert!(idxs.windows(2).all(|w| w[0] < w[1]), \"ascending order\");\n                let guards: Vec<G> = idxs.iter().map(|&i| self.shards[i].lock.lock_section()).collect();\n            }",
        );
        assert!(run(&cfg).is_empty());
    }

    #[test]
    fn unsorted_loop_acquire_is_flagged() {
        let cfg = lower_first(
            "fn w(&self, idxs: &[usize]) {\n                let guards: Vec<G> = idxs.iter().map(|&i| self.shards[i].lock.lock_section()).collect();\n            }",
        );
        let f = run(&cfg);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("sorted ascending"), "{}", f[0].msg);
    }

    #[test]
    fn descending_sequential_acquires_flagged() {
        let cfg = lower_first(
            "fn bad(&self, s1: usize, s2: usize) {\n                let (lo, hi) = if s1 < s2 { (s1, s2) } else { (s2, s1) };\n                let g_hi = self.shards[hi].lock.lock_section();\n                let g_lo = self.shards[lo].lock.lock_section();\n            }",
        );
        let f = run(&cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("while holding `hi`"), "{}", f[0].msg);
    }

    #[test]
    fn ascending_sequential_acquires_clean() {
        let cfg = lower_first(
            "fn good(&self, s1: usize, s2: usize) {\n                let (lo, hi) = if s1 < s2 { (s1, s2) } else { (s2, s1) };\n                let g_lo = self.shards[lo].lock.lock_section();\n                let g_hi = self.shards[hi].lock.lock_section();\n            }",
        );
        assert!(run(&cfg).is_empty());
    }

    #[test]
    fn fact_on_one_branch_does_not_dominate() {
        // The OrderFact only holds on the `then` path: the acquisition
        // after the join must still be flagged.
        let cfg = lower_first(
            "fn t(&self, s1: usize, s2: usize, flip: bool) {\n                if flip {\n                    let (lo, hi) = if s1 < s2 { (s1, s2) } else { (s2, s1) };\n                }\n                self.with_shards_locked(&[lo, hi], |g| g.len());\n            }",
        );
        let f = run(&cfg);
        assert_eq!(f.len(), 1, "{f:?}");
    }
}
