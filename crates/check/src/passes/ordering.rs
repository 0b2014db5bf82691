//! The `ordering-table` pass: the declarative concurrency-invariant table
//! and the audit of every atomic site against it.
//!
//! Every atomic-ordering use inside [`ORDERING_SCOPE`] (`crates/core`,
//! `crates/htm`, `crates/hytm`, `crates/shard`, and the recording and
//! live-telemetry files of `crates/obs`) must either
//! match a row of [`ORDERING_RULES`] (file + receiver + operation →
//! allowed orderings) or carry a nearby `// ordering: <reason>` annotation;
//! anything else is a finding. The table is the reviewable artifact: adding
//! a new atomic means adding a row (or an annotation) stating its contract.
//!
//! A site is an `Atomic` or `Fence` event of [`crate::cfg::lower`] — the
//! same events the `publication` and `fence` passes reason about, so the
//! table and the flow passes cannot disagree about what an atomic is.
//! `tests/conservation.rs` holds the other direction: every ordering name
//! in a scope file's production code is carried by such an event.
//!
//! Flow-sensitive invariants (§4's fence after the orec stamp, publication
//! order) live in their own passes; this table stays for per-site
//! ordering contracts, which are genuinely local.

use super::PassFinding;
use crate::cfg::{EventKind, FnCfg};
use crate::syntax::Comments;

/// The table's operation classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicOp {
    /// `.load(ordering)`
    Load,
    /// `.store(v, ordering)`
    Store,
    /// `.swap(v, ordering)`
    Swap,
    /// `.fetch_add(v, ordering)` / `.fetch_sub(v, ordering)` /
    /// `.fetch_max(v, ordering)` — and every other `fetch_*`
    /// read-modify-write of [`crate::cfg::lower::ATOMIC_METHODS`].
    FetchAdd,
    /// `.compare_exchange*(cur, new, success, failure)` — both orderings
    /// are checked against the allowed set.
    CompareExchange,
    /// Free `fence(ordering)`.
    Fence,
}

impl AtomicOp {
    /// The class of an atomic method the lowering recognizes (or of the
    /// free `fence`).
    fn of(method: &str) -> AtomicOp {
        match method {
            "fence" => AtomicOp::Fence,
            "load" => AtomicOp::Load,
            "store" => AtomicOp::Store,
            "swap" => AtomicOp::Swap,
            m if m.starts_with("compare_exchange") => AtomicOp::CompareExchange,
            _ => AtomicOp::FetchAdd,
        }
    }
}

/// One row of the invariant table.
pub struct OrderingRule {
    /// Path suffix the rule applies to (e.g. `core/src/stats.rs`).
    pub file_suffix: &'static str,
    /// Receiver name (last path segment, call/index suffixes stripped);
    /// `"*"` matches any receiver.
    pub receiver: &'static str,
    /// Operation the rule covers.
    pub op: AtomicOp,
    /// Orderings allowed at this site.
    pub allowed: &'static [&'static str],
    /// The contract (shown when the rule is violated).
    pub why: &'static str,
}

/// The memory-ordering invariant table for the crates in
/// [`ORDERING_SCOPE`]. Mirrored in DESIGN.md — update both together.
pub const ORDERING_RULES: &[OrderingRule] = &[
    // ---- rtle-htm: TxCell is the protocol choke point -------------------
    // Every TxCell read is a potential lock/write_flag/epoch/orec
    // subscription; every TxCell write is a potential publication of
    // protocol state. Acquire/Release floors are therefore non-negotiable
    // (write_flag stores, epoch bumps and lock hand-offs all route through
    // here).
    OrderingRule {
        file_suffix: "htm/src/cell.rs",
        receiver: "raw",
        op: AtomicOp::Load,
        allowed: &["Acquire", "SeqCst"],
        why: "TxCell loads subscribe protocol state (lock word, write_flag, epoch, orecs); Acquire is the floor",
    },
    OrderingRule {
        file_suffix: "htm/src/cell.rs",
        receiver: "raw",
        op: AtomicOp::Store,
        allowed: &["Release", "SeqCst"],
        why: "TxCell stores publish protocol state; Release is the floor",
    },
    // The versioned-lock protocol — stripe table, commit clock, read →
    // extend → validate, lock → stamp → release — is written once, here,
    // for both of its instances (the emulated HTM's global table and each
    // `rtle_hytm::Tl2`'s own), so these rows are the only ones it has.
    //
    // The clock is the serialization spine: every rv is a value it held
    // (a sample, or the clock after an extension raised it), and every wv
    // is drawn past a sample taken once the write set is locked. Safety
    // rests on "a writer with wv <= rv sampled before the clock reached rv",
    // an argument about one total order of samples and raises that every
    // thread agrees on — hence SeqCst on both, not just Acquire/AcqRel.
    // (Same `mov` / `lock cmpxchg` on x86-64. Whether something weaker
    // carries it is for the weak-memory model to show, with a TSO machine
    // to check it.)
    OrderingRule {
        file_suffix: "htm/src/stripe.rs",
        receiver: "clock",
        op: AtomicOp::Load,
        allowed: &["SeqCst"],
        why: "clock sample: a read-version, or the floor a commit draws wv past; must join the single total order of clock raises",
    },
    OrderingRule {
        file_suffix: "htm/src/stripe.rs",
        receiver: "clock",
        op: AtomicOp::CompareExchange,
        allowed: &["SeqCst"],
        why: "clock raise by an extension, the clock's only write: a writer that sampled below the raised value must be ordered before it; SeqCst",
    },
    // Stripe words: loads validate (pre/post read, extension, commit
    // revalidation), the CAS acquires the lock, stores release it (commit
    // at the new version, back-out at the pre-lock version). No Relaxed
    // anywhere in the file.
    OrderingRule {
        file_suffix: "htm/src/stripe.rs",
        receiver: "*",
        op: AtomicOp::Load,
        allowed: &["Acquire", "SeqCst"],
        why: "stripe version reads validate against the read-version; Acquire is the floor",
    },
    OrderingRule {
        file_suffix: "htm/src/stripe.rs",
        receiver: "*",
        op: AtomicOp::Store,
        allowed: &["Release", "SeqCst"],
        why: "stripe unlock (commit or back-out) publishes the version; Release is the floor",
    },
    OrderingRule {
        file_suffix: "htm/src/stripe.rs",
        receiver: "*",
        op: AtomicOp::CompareExchange,
        allowed: &["Acquire", "AcqRel", "SeqCst"],
        why: "stripe lock acquisition; both success and failure orderings must be at least Acquire",
    },
    // Commit-time strong-atomicity publication in the software HTM.
    OrderingRule {
        file_suffix: "htm/src/swhtm.rs",
        receiver: "cell",
        op: AtomicOp::Store,
        allowed: &["Release", "SeqCst"],
        why: "redo-log write-back publishes committed values; Release is the floor",
    },
    OrderingRule {
        file_suffix: "htm/src/swhtm.rs",
        receiver: "cell",
        op: AtomicOp::Load,
        allowed: &["Acquire", "SeqCst"],
        why: "strong-atomicity read of a possibly-concurrently-committed cell; Acquire is the floor",
    },
    // Statistics: every counter of the workspace's hot paths (HtmStats,
    // ExecStats, TmStats, StmStats, the recorder's lanes and ring cursors)
    // lives in per-thread lanes and is bumped by `Writer::bump`. Counters
    // with no synchronization role: Relaxed, and nothing stronger — a
    // stronger ordering would imply a role they must never grow. The one
    // ordering that carries weight is the claim table's: a lane's next
    // owner continues the sums its last owner left.
    OrderingRule {
        file_suffix: "htm/src/lanes.rs",
        receiver: "claimed",
        op: AtomicOp::CompareExchange,
        allowed: &["Acquire"],
        why: "lane claim: the claimer's plain bumps continue the last owner's sums, so it must see that owner's last stores (pairs with the Release hand-back)",
    },
    OrderingRule {
        file_suffix: "htm/src/lanes.rs",
        receiver: "claimed",
        op: AtomicOp::Store,
        allowed: &["Release"],
        why: "lane hand-back from the owner's thread-local destructor: publishes its last bumps to the next claimer",
    },
    OrderingRule {
        file_suffix: "htm/src/lanes.rs",
        receiver: "word",
        op: AtomicOp::Store,
        allowed: &["Relaxed"],
        why: "owned bump: the lane's only writer stores load + n, no read-modify-write; readers only sum",
    },
    OrderingRule {
        file_suffix: "htm/src/lanes.rs",
        receiver: "*",
        op: AtomicOp::Load,
        allowed: &["Relaxed"],
        why: "lane sums and the owned bump's load: monotonic statistics counters, advisory, no ordering role",
    },
    OrderingRule {
        file_suffix: "htm/src/lanes.rs",
        receiver: "*",
        op: AtomicOp::FetchAdd,
        allowed: &["Relaxed"],
        why: "shared bumps (overflow and keyed lanes): monotonic statistics counters, advisory, no ordering role",
    },
    // Configuration: values with no synchronization role.
    OrderingRule {
        file_suffix: "htm/src/config.rs",
        receiver: "*",
        op: AtomicOp::Load,
        allowed: &["Relaxed"],
        why: "capacity/chaos knobs: values are self-contained, no ordering role",
    },
    OrderingRule {
        file_suffix: "htm/src/config.rs",
        receiver: "*",
        op: AtomicOp::Store,
        allowed: &["Relaxed"],
        why: "capacity/chaos knobs: values are self-contained, no ordering role",
    },
    // (One-off sites — NEXT_TOKEN in htm/descriptor.rs, NEXT_KEY in
    // core/elidable.rs — are audited by in-source `// ordering:`
    // annotations instead of table rows.)
    // ---- rtle-core ------------------------------------------------------
    // The paper's §4 store-load fence after an orec acquisition.
    OrderingRule {
        file_suffix: "core/src/orec.rs",
        receiver: "*",
        op: AtomicOp::Fence,
        allowed: &["SeqCst"],
        why: "the store-load fence after an orec stamp must be full-strength (§4)",
    },
    // Conflict-attribution heatmap (plain, non-transactional atomics).
    // Relaxed is fine: the counters are advisory diagnostics with no
    // synchronization role — no reader makes a protocol decision that
    // requires happens-before with the increment, and exactness of the
    // sum invariant needs only per-counter atomicity, which every
    // ordering provides.
    OrderingRule {
        file_suffix: "core/src/orec.rs",
        receiver: "conflicts",
        op: AtomicOp::FetchAdd,
        allowed: &["Relaxed"],
        why: "heatmap conflict counters: advisory attribution, no synchronization role",
    },
    OrderingRule {
        file_suffix: "core/src/orec.rs",
        receiver: "*",
        op: AtomicOp::Load,
        allowed: &["Relaxed"],
        why: "heatmap snapshot loads: advisory counter reads, no synchronization role",
    },
    // ---- rtle-shard -----------------------------------------------------
    // The sharded map has no atomic of its own: the per-shard `routed`
    // load counter is a `Lanes<1>` (the `htm/src/lanes.rs` rows above state
    // its contract), and mutual exclusion and ordering come entirely from
    // each shard's ElidableLock, acquired in ascending shard-index order
    // (deadlock freedom by total order; see DESIGN.md §10).
    // ---- rtle-obs: the recording side -----------------------------------
    // Everything a recording thread writes — the lane's event counters and
    // histogram words, its ring segments' cursors and slots — is a
    // monotonic statistic or a self-validating diagnostic word on the
    // thread's own lane. A window is the difference of two readings of
    // those words, a snapshot their sum; neither resets anything, so no
    // ordering carries correctness weight: Relaxed, and nothing stronger —
    // a stronger ordering would imply a role they must never grow.
    OrderingRule {
        file_suffix: "obs/src/lane.rs",
        receiver: "*",
        op: AtomicOp::Load,
        allowed: &["Relaxed"],
        why: "lane reading: each monotonic word read once; a racing sample is in this reading or the next",
    },
    OrderingRule {
        file_suffix: "obs/src/hist.rs",
        receiver: "*",
        op: AtomicOp::FetchAdd,
        allowed: &["Relaxed"],
        why: "shared histogram's running maximum: a monotonic statistics word",
    },
    OrderingRule {
        file_suffix: "obs/src/hist.rs",
        receiver: "max",
        op: AtomicOp::Store,
        allowed: &["Relaxed"],
        why: "owned running maximum: the lane's only writer raises it with a plain store",
    },
    OrderingRule {
        file_suffix: "obs/src/hist.rs",
        receiver: "*",
        op: AtomicOp::Load,
        allowed: &["Relaxed"],
        why: "histogram snapshot and max pre-check: advisory statistics reads",
    },
    OrderingRule {
        file_suffix: "obs/src/ring.rs",
        receiver: "*",
        op: AtomicOp::Store,
        allowed: &["Relaxed"],
        why: "ring slot words: self-validating (valid bit stored last, generation tag in every word)",
    },
    OrderingRule {
        file_suffix: "obs/src/ring.rs",
        receiver: "*",
        op: AtomicOp::Load,
        allowed: &["Relaxed"],
        why: "racy diagnostic reads of cursors and slot words; the record decoder rejects torn slots",
    },
    // ---- rtle-obs: live scrape plane ------------------------------------
    // The scrape server's only atomic is its shutdown flag: Release on
    // store / Acquire on load so the accept loop's final iteration sees
    // everything written before shutdown was requested.
    OrderingRule {
        file_suffix: "obs/src/live.rs",
        receiver: "stop",
        op: AtomicOp::Store,
        allowed: &["Release"],
        why: "shutdown request publication: the accept loop must see pre-shutdown writes",
    },
    OrderingRule {
        file_suffix: "obs/src/live.rs",
        receiver: "stop",
        op: AtomicOp::Load,
        allowed: &["Acquire"],
        why: "accept-loop shutdown check: pairs with the Release store in shutdown()",
    },
    // The watchdog's live mirror is a write-rarely/read-racy scrape view:
    // every field is independent advisory telemetry, so Relaxed
    // everywhere — a scrape reading a half-published verdict is tolerated
    // and corrected by the next scrape.
    OrderingRule {
        file_suffix: "obs/src/watchdog.rs",
        receiver: "*",
        op: AtomicOp::Load,
        allowed: &["Relaxed"],
        why: "live-mirror scrape reads: advisory, racy-by-design telemetry",
    },
    OrderingRule {
        file_suffix: "obs/src/watchdog.rs",
        receiver: "*",
        op: AtomicOp::Store,
        allowed: &["Relaxed"],
        why: "live-mirror publication from the rotator thread: no cross-field ordering contract",
    },
    OrderingRule {
        file_suffix: "obs/src/watchdog.rs",
        receiver: "*",
        op: AtomicOp::FetchAdd,
        allowed: &["Relaxed"],
        why: "live-mirror monotone counters: single-writer rotator, racy readers",
    },
];

/// Files whose atomic-ordering uses must be covered by the table (or
/// annotated).
pub const ORDERING_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/htm/src/",
    "crates/hytm/src/",
    "crates/shard/src/",
    "crates/obs/src/lane.rs",
    "crates/obs/src/hist.rs",
    "crates/obs/src/ring.rs",
    "crates/obs/src/trace.rs",
    "crates/obs/src/window.rs",
    "crates/obs/src/recorder.rs",
    "crates/obs/src/registry.rs",
    "crates/obs/src/live.rs",
    "crates/obs/src/watchdog.rs",
    "crates/stm/src/",
];

/// One audited site: an atomic operation or fence with its orderings.
#[derive(Debug)]
pub struct OrderingUse {
    /// Operation class.
    pub op: AtomicOp,
    /// Method name as written (`fetch_sub`, `compare_exchange_weak`, `fence`).
    pub method: String,
    /// Receiver name ([`crate::syntax::Expr::receiver_name`]; empty for
    /// fences and receivers with no name).
    pub receiver: String,
    /// The ordering names passed (compare-exchange has two).
    pub orderings: Vec<String>,
    /// 1-based line.
    pub line: usize,
}

/// Every ordering use of one lowered function.
pub fn ordering_uses(cfg: &FnCfg) -> Vec<OrderingUse> {
    let site = |e: &crate::cfg::Event| {
        let (method, receiver, orderings) = match &e.kind {
            EventKind::Atomic {
                op,
                recv,
                orderings,
            } => (op.as_str(), recv.as_str(), orderings.clone()),
            EventKind::Fence { ordering } if !ordering.is_empty() => {
                ("fence", "", vec![ordering.clone()])
            }
            _ => return None,
        };
        Some(OrderingUse {
            op: AtomicOp::of(method),
            method: method.into(),
            receiver: receiver.into(),
            orderings,
            line: e.line,
        })
    };
    cfg.events().filter_map(|(_, e)| site(e)).collect()
}

/// Finds the table row covering `(path, receiver, op)`, if any.
pub fn rule_for(path: &str, receiver: &str, op: AtomicOp) -> Option<&'static OrderingRule> {
    ORDERING_RULES.iter().find(|r| {
        path.ends_with(r.file_suffix) && r.op == op && (r.receiver == "*" || r.receiver == receiver)
    })
}

/// Audits one lowered function of the file at `path`: a site on a table
/// row must use an ordering the row allows (`ordering-table`); a site on
/// no row needs a `// ordering: <reason>` annotation (`ordering-unaudited`).
pub fn run(path: &str, cfg: &FnCfg, comments: &Comments) -> Vec<(&'static str, PassFinding)> {
    let mut out = Vec::new();
    for u in ordering_uses(cfg) {
        let receiver = if u.receiver.is_empty() {
            "<fence>"
        } else {
            &u.receiver
        };
        let orderings = u.orderings.join("/");
        match rule_for(path, &u.receiver, u.op) {
            Some(rule) if u.orderings.iter().all(|o| rule.allowed.contains(&o.as_str())) => {}
            Some(rule) => out.push((
                "ordering-table",
                PassFinding {
                    line: u.line,
                    msg: format!(
                        "{} on `{receiver}` uses Ordering::{orderings} but the invariant table allows only {:?} — {}",
                        u.method, rule.allowed, rule.why
                    ),
                },
            )),
            None if comments.annotation(u.line, "ordering:").is_some() => {}
            None => out.push((
                "ordering-unaudited",
                PassFinding {
                    line: u.line,
                    msg: format!(
                        "atomic {} on `{receiver}` with Ordering::{orderings} has no invariant-table row and no `// ordering:` annotation",
                        if u.op == AtomicOp::Fence { "fence" } else { "op" },
                    ),
                },
            )),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::lower_fn;
    use crate::syntax::{for_each_fn, parse_file};

    /// The sites of a statement-level fixture, lowered inside a function.
    fn uses_of(code: &str) -> Vec<OrderingUse> {
        let src = parse_file(&format!("fn fixture() {{\n{code}\n}}"));
        let mut uses = Vec::new();
        for_each_fn(&src.items, &mut |f, marker| {
            uses.extend(ordering_uses(&lower_fn(f, marker)))
        });
        uses
    }

    #[test]
    fn simple_load() {
        let u = uses_of("let v = self.raw.load(Ordering::Acquire);");
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].op, AtomicOp::Load);
        assert_eq!(u[0].receiver, "raw");
        assert_eq!(u[0].orderings, vec!["Acquire"]);
    }

    #[test]
    fn multiline_fetch_add_joins() {
        let u = uses_of("COUNTER.fetch_add(1,\n    Ordering::Relaxed);\n");
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].receiver, "COUNTER");
        assert_eq!(u[0].orderings, vec!["Relaxed"]);
    }

    #[test]
    fn deref_and_index_receivers() {
        let u =
            uses_of("unsafe { (*e.cell).store(e.value, std::sync::atomic::Ordering::Release) };");
        assert_eq!(u[0].receiver, "cell");
        let u = uses_of("stripes()[idx as usize].load(Ordering::Acquire)");
        assert_eq!(u[0].receiver, "stripes");
    }

    #[test]
    fn compare_exchange_has_two_orderings() {
        let u = uses_of("s.compare_exchange(cur, next, Ordering::Acquire, Ordering::Acquire)");
        assert_eq!(u[0].op, AtomicOp::CompareExchange);
        assert_eq!(u[0].orderings, vec!["Acquire", "Acquire"]);
    }

    #[test]
    fn method_chain_after_match_joins() {
        let code = "match path {\n    A => &self.x,\n    B => &self.y,\n}\n.fetch_add(1, Ordering::Relaxed);\n";
        let u = uses_of(code);
        assert_eq!(u.len(), 1, "chained fetch_add found: {u:?}");
        assert_eq!(u[0].orderings, vec!["Relaxed"]);
    }

    #[test]
    fn non_atomic_store_ignored() {
        // TxCell::write / Vec-ish calls carry no Ordering argument.
        assert!(uses_of("orec.write(epoch);").is_empty());
        assert!(uses_of("self.buf.store(x, y);").is_empty());
    }

    #[test]
    fn bare_imported_orderings_are_seen() {
        let u = uses_of("self.state.load(Relaxed)");
        assert_eq!(u.len(), 1, "{u:?}");
        assert_eq!((u[0].op, u[0].receiver.as_str()), (AtomicOp::Load, "state"));
        assert_eq!(u[0].orderings, vec!["Relaxed"]);
        // Argument order is kept when the two spellings mix.
        let u = uses_of("s.compare_exchange(cur, next, AcqRel, Ordering::Acquire)");
        assert_eq!(u[0].orderings, vec!["AcqRel", "Acquire"]);
        let u = uses_of("fence(SeqCst);");
        assert_eq!(
            (u[0].op, &u[0].orderings),
            (AtomicOp::Fence, &vec!["SeqCst".to_string()])
        );
        // A same-named segment of another path, a field, or a longer
        // identifier is not an ordering.
        assert!(uses_of("buf.store(x, Mode::Relaxed);").is_empty());
        assert!(uses_of("buf.store(x, cfg.Relaxed);").is_empty());
        assert!(uses_of("buf.store(x, RelaxedMode);").is_empty());
    }

    #[test]
    fn fence_matches_standalone_only() {
        let u = uses_of("fence(Ordering::SeqCst);");
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].op, AtomicOp::Fence);
        assert!(uses_of("my_fence(Ordering::SeqCst);").is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_confuse() {
        let code = "let s = \"x.load(Ordering::Relaxed)\"; // x.store(Ordering::Relaxed)\n";
        assert!(uses_of(code).is_empty());
    }

    #[test]
    fn table_lookup() {
        let r = rule_for("crates/htm/src/cell.rs", "raw", AtomicOp::Load).expect("row exists");
        assert_eq!(r.allowed, &["Acquire", "SeqCst"]);
        assert!(rule_for("crates/htm/src/cell.rs", "raw", AtomicOp::Swap).is_none());
        // Wildcard receiver.
        assert!(rule_for("crates/htm/src/lanes.rs", "anything", AtomicOp::FetchAdd).is_some());
    }
}
