//! Publication-safety pass.
//!
//! The software-HTM commit path publishes values through raw cells and
//! flips visibility with atomic stores. Two path-sensitive rules:
//!
//! * **Rule A (store side)** — after a Release-or-stronger store (a
//!   publication), no raw initialization write may still be reachable:
//!   hoisting the publication above the data it publishes lets readers
//!   observe uninitialized state.
//! * **Rule B (load side)** — every raw read must be *dominated* by an
//!   Acquire-or-stronger load or fence: on every path to the read,
//!   something must have synchronized with the publisher.

use super::PassFinding;
use crate::cfg::{EventKind, FnCfg};

fn is_store_op(op: &str) -> bool {
    op == "store" || op == "swap" || op.starts_with("fetch_") || op.starts_with("compare_")
}

fn is_load_op(op: &str) -> bool {
    op == "load" || op == "swap" || op.starts_with("fetch_") || op.starts_with("compare_")
}

fn releases(orderings: &[String]) -> bool {
    orderings
        .iter()
        .any(|o| o == "Release" || o == "AcqRel" || o == "SeqCst")
}

fn acquires(orderings: &[String]) -> bool {
    orderings
        .iter()
        .any(|o| o == "Acquire" || o == "AcqRel" || o == "SeqCst")
}

/// Runs the pass over one lowered function.
pub fn run(cfg: &FnCfg) -> Vec<PassFinding> {
    let doms = cfg.dominators();
    let reach = cfg.reachability();
    let mut out = Vec::new();

    // Rule A: raw writes reachable after a publication store.
    for (pr, pub_ev) in cfg.events() {
        let EventKind::Atomic {
            op,
            recv,
            orderings,
        } = &pub_ev.kind
        else {
            continue;
        };
        if !is_store_op(op) || !releases(orderings) {
            continue;
        }
        for (wr, w) in cfg.events() {
            if matches!(w.kind, EventKind::RawWrite) && cfg.ev_reaches(&reach, pr, wr) {
                out.push(PassFinding {
                    line: w.line,
                    msg: format!(
                        "raw write reachable after the {} publication store of `{recv}` \
                         (line {}): initialization must precede publication (fn `{}`)",
                        orderings.join("/"),
                        pub_ev.line,
                        cfg.name
                    ),
                });
            }
        }
    }

    // Rule B: raw reads not dominated by any acquiring load/fence.
    for (rr, r) in cfg.events() {
        if !matches!(r.kind, EventKind::RawRead) {
            continue;
        }
        let dominated = cfg.events().any(|(ar, a)| {
            let acquiring = match &a.kind {
                EventKind::Atomic { op, orderings, .. } => is_load_op(op) && acquires(orderings),
                EventKind::Fence { ordering } => ordering == "Acquire" || ordering == "SeqCst",
                _ => false,
            };
            acquiring && ar != rr && cfg.ev_dominates(&doms, ar, rr)
        });
        if !dominated {
            out.push(PassFinding {
                line: r.line,
                msg: format!(
                    "raw read is not dominated by any Acquire-or-stronger load or fence \
                     (fn `{}`)",
                    cfg.name
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::tests::lower_first;

    #[test]
    fn init_then_release_store_is_clean() {
        let cfg = lower_first(
            "fn publish(&self, v: u64) {\n                unsafe { *self.slot.get() = v; }\n                self.ready.store(true, Ordering::Release);\n            }",
        );
        assert!(run(&cfg).is_empty());
    }

    #[test]
    fn release_store_before_init_is_flagged() {
        let cfg = lower_first(
            "fn publish(&self, v: u64) {\n                self.ready.store(true, Ordering::Release);\n                unsafe { *self.slot.get() = v; }\n            }",
        );
        let f = run(&cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].msg.contains("must precede publication"),
            "{}",
            f[0].msg
        );
    }

    #[test]
    fn acquire_load_dominates_raw_read() {
        let cfg = lower_first(
            "fn consume(&self) -> u64 {\n                if !self.ready.load(Ordering::Acquire) { return 0; }\n                unsafe { *self.slot.get() }\n            }",
        );
        assert!(run(&cfg).is_empty());
    }

    #[test]
    fn relaxed_load_does_not_discharge_raw_read() {
        let cfg = lower_first(
            "fn consume(&self) -> u64 {\n                if !self.ready.load(Ordering::Relaxed) { return 0; }\n                unsafe { *self.slot.get() }\n            }",
        );
        let f = run(&cfg);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn acquire_on_one_branch_only_is_flagged() {
        let cfg = lower_first(
            "fn consume(&self, fast: bool) -> u64 {\n                if fast { self.ready.load(Ordering::Acquire); }\n                unsafe { *self.slot.get() }\n            }",
        );
        let f = run(&cfg);
        assert_eq!(f.len(), 1, "dominance, not reachability: {f:?}");
    }

    #[test]
    fn bare_imported_release_store_is_a_publication() {
        // `use …::Ordering::Release;` must not hide the publication: the
        // lowering used to emit no event for a bare ordering argument.
        let cfg = lower_first(
            "fn publish(&self, v: u64) {\n                self.ready.store(true, Release);\n                unsafe { *self.slot.get() = v; }\n            }",
        );
        let f = run(&cfg);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].msg.contains("must precede publication"),
            "{}",
            f[0].msg
        );
    }
}
