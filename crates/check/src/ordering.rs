//! The `ordering-table` pass: the declarative memory-ordering table, the
//! token scanner that finds every atomic site, and the one driver.
//!
//! Every atomic-ordering use inside [`ORDERING_SCOPE`] (`crates/core`,
//! `crates/htm`, `crates/hytm`, `crates/shard`, `crates/stm`, and the
//! recording and live-telemetry files of `crates/obs`) must either
//! match a row of [`ORDERING_RULES`] (file + receiver + operation →
//! allowed orderings) or carry a nearby `// ordering: <reason>` annotation;
//! anything else is a finding. The table is the reviewable artifact: adding
//! a new atomic means adding a row (or an annotation) stating its contract.
//!
//! A site ([`sites`]) is read off the token stream: a call whose arguments
//! include an ordering and whose method is one of [`ATOMIC_METHODS`] or the
//! free `fence`. `tests/conservation.rs` holds the other direction: every
//! ordering name in a scope file's production code is carried by a site.
//!
//! The §4 fence after the orec stamp and the publication discipline are
//! not scans of call sites: the orec arrays are private to
//! `core/src/orec.rs` and `tests/one_home.rs` pins the fence after their
//! one stamp; a raw `UnsafeCell` publication is a disallowed type in
//! `clippy.toml` (DESIGN §7a).

use std::fmt;
use std::path::{Path, PathBuf};

use crate::lexer::{group_end, lex, test_mask, Comments, Tok, TokKind};

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
    /// read-modify-write of [`ATOMIC_METHODS`].
    FetchAdd,
    /// `.compare_exchange*(cur, new, success, failure)` — both orderings
    /// are checked against the allowed set.
    CompareExchange,
    /// Free `fence(ordering)`.
    Fence,
}

impl AtomicOp {
    /// The class of one of [`ATOMIC_METHODS`] (or of the free `fence`).
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

/// Atomic RMW/load/store method names that take `Ordering` arguments.
pub const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "fetch_xor",
    "fetch_update",
    "fetch_max",
    "fetch_min",
];

/// The five orderings, recognised bare when a file imports them
/// (`use …::Ordering::Relaxed; x.load(Relaxed)`).
pub const ORDERING_NAMES: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One audited site: an atomic operation or fence with its orderings.
#[derive(Debug)]
pub struct Site {
    /// Operation class.
    pub op: AtomicOp,
    /// Method name as written (`fetch_sub`, `compare_exchange_weak`, `fence`).
    pub method: String,
    /// Receiver name: the last identifier before the method's `.`, call
    /// and index groups skipped (empty for fences and receivers with no
    /// name).
    pub receiver: String,
    /// The ordering names passed, in argument order (compare-exchange has
    /// two).
    pub orderings: Vec<String>,
    /// 1-based line of the method name.
    pub line: usize,
}

/// Every site in the production code of a token stream: a method of
/// [`ATOMIC_METHODS`] after a `.`, or a free `fence`, whose arguments
/// include an ordering. Tokens of `#[test]`/`#[cfg(test)]` items are
/// skipped.
pub fn sites(toks: &[Tok]) -> Vec<Site> {
    let in_test = test_mask(toks);
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if in_test[i] || t.kind != TokKind::Ident || !toks.get(i + 1).is_some_and(|n| n.is("(")) {
            continue;
        }
        let dotted = i > 0 && toks[i - 1].is(".");
        let named = if dotted {
            ATOMIC_METHODS.contains(&t.text.as_str())
        } else {
            t.is("fence")
        };
        if !named {
            continue;
        }
        let orderings = ordering_args(&toks[i + 2..group_end(toks, i + 1)]);
        if orderings.is_empty() {
            continue;
        }
        out.push(Site {
            op: AtomicOp::of(&t.text),
            method: t.text.clone(),
            receiver: if dotted {
                receiver(toks, i - 1)
            } else {
                String::new()
            },
            orderings,
            line: t.line,
        });
    }
    out
}

/// The ordering arguments of an argument list, in order: an argument that
/// is an `Ordering::X` path, however qualified, or a bare imported
/// [`ORDERING_NAMES`] member (`Mode::Relaxed` and `cfg.Relaxed` are
/// neither).
fn ordering_args(args: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (j, t) in args.iter().enumerate() {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth = depth.saturating_sub(1),
            "," if depth == 0 => {
                out.extend(ordering_arg(&args[start..j]));
                start = j + 1;
            }
            _ => {}
        }
    }
    out.extend(ordering_arg(&args[start..]));
    out
}

/// The ordering one argument's tokens name, if the argument is one.
fn ordering_arg(arg: &[Tok]) -> Option<String> {
    let text: Vec<&str> = arg.iter().map(|t| t.text.as_str()).collect();
    match text[..] {
        [.., "Ordering", "::", name] | [name] if ORDERING_NAMES.contains(&name) => {
            Some(name.to_string())
        }
        _ => None,
    }
}

/// The receiver of the method whose `.` is `toks[dot]`: the last
/// identifier before it, after skipping call and index groups
/// (`self.stamps[i]` → `stamps`, `stripes()[idx]` → `stripes`,
/// `self.words.as_ref()[i]` → `as_ref`). A parenthesised receiver names
/// the last identifier inside it (`(*e.cell)` → `cell`).
fn receiver(toks: &[Tok], dot: usize) -> String {
    let mut end = dot;
    while let Some(prev) = end.checked_sub(1) {
        let t = &toks[prev];
        if t.kind == TokKind::Ident {
            return t.text.clone();
        }
        if !(t.is(")") || t.is("]")) {
            break;
        }
        let open = group_open(toks, prev);
        let called = open
            .checked_sub(1)
            .is_some_and(|b| toks[b].kind == TokKind::Ident || toks[b].is(")") || toks[b].is("]"));
        if !called {
            return toks[open..prev]
                .iter()
                .rev()
                .find(|t| t.kind == TokKind::Ident)
                .map_or_else(String::new, |t| t.text.clone());
        }
        end = open;
    }
    String::new()
}

/// The index of the token opening the group `toks[close]` closes.
fn group_open(toks: &[Tok], close: usize) -> usize {
    let mut depth = 0usize;
    for j in (0..=close).rev() {
        match toks[j].text.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    0
}

/// Finds the table row covering `(path, receiver, op)`, if any.
pub fn rule_for(path: &str, receiver: &str, op: AtomicOp) -> Option<&'static OrderingRule> {
    ORDERING_RULES.iter().find(|r| {
        path.ends_with(r.file_suffix) && r.op == op && (r.receiver == "*" || r.receiver == receiver)
    })
}

/// A finding: a site whose ordering its row does not allow
/// (`ordering-table`), or a site on no row and with no `// ordering:`
/// annotation (`ordering-unaudited`).
#[derive(Debug)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// `ordering-table` or `ordering-unaudited`.
    pub pass: &'static str,
    /// Description.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.pass, self.msg
        )
    }
}

/// Audits one file's text: a site on a table row must use an ordering the
/// row allows; a site on no row needs a `// ordering: <reason>`
/// annotation. Returns the number of sites and the findings.
fn audit(path: &str, text: &str) -> (usize, Vec<Finding>) {
    let (toks, comments) = lex(text);
    let sites = sites(&toks);
    let findings = sites
        .iter()
        .filter_map(|u| verdict(path, u, &comments))
        .collect();
    (sites.len(), findings)
}

fn verdict(path: &str, u: &Site, comments: &Comments) -> Option<Finding> {
    let receiver = if u.receiver.is_empty() {
        "<fence>"
    } else {
        &u.receiver
    };
    let orderings = u.orderings.join("/");
    let (pass, msg) = match rule_for(path, &u.receiver, u.op) {
        Some(rule) if u.orderings.iter().all(|o| rule.allowed.contains(&o.as_str())) => {
            return None
        }
        Some(rule) => (
            "ordering-table",
            format!(
                "{} on `{receiver}` uses Ordering::{orderings} but the invariant table allows only {:?} — {}",
                u.method, rule.allowed, rule.why
            ),
        ),
        None if comments.annotation(u.line, "ordering:").is_some() => return None,
        None => (
            "ordering-unaudited",
            format!(
                "atomic {} on `{receiver}` with Ordering::{orderings} has no invariant-table row and no `// ordering:` annotation",
                if u.op == AtomicOp::Fence { "fence" } else { "op" },
            ),
        ),
    };
    Some(Finding {
        path: path.to_string(),
        line: u.line,
        pass,
        msg,
    })
}

/// The result of one run over the workspace.
#[derive(Debug)]
pub struct LintReport {
    /// Scope files read.
    pub files: usize,
    /// Atomic sites audited.
    pub sites: usize,
    /// Every finding; the run is clean when there are none.
    pub findings: Vec<Finding>,
    /// Wall-clock time.
    pub elapsed_ms: u64,
}

/// Is the workspace-relative, `/`-separated `path` in [`ORDERING_SCOPE`]?
pub fn in_scope(path: &str) -> bool {
    ORDERING_SCOPE.iter().any(|s| path.contains(s))
}

/// Audits every scope file of the workspace rooted at `root`.
pub fn lint_workspace(root: &Path) -> LintReport {
    let start = std::time::Instant::now();
    let mut report = LintReport {
        files: 0,
        sites: 0,
        findings: Vec::new(),
        elapsed_ms: 0,
    };
    for path in workspace_sources(root) {
        let rel = relative(root, &path);
        if !in_scope(&rel) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let (sites, findings) = audit(&rel, &text);
        report.files += 1;
        report.sites += sites;
        report.findings.extend(findings);
    }
    report.elapsed_ms = start.elapsed().as_millis() as u64;
    report
}

/// `path` relative to `root`, `/`-separated.
pub fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every crate's `src/` files and the root facade's, in path order.
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            collect_rs(&d.join("src"), &mut files);
        }
    }
    collect_rs(&root.join("src"), &mut files);
    files
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sites of a statement-level fixture, inside a function.
    fn uses_of(code: &str) -> Vec<Site> {
        sites(&lex(&format!("fn fixture() {{\n{code}\n}}")).0)
    }

    /// The findings of one fixture file at `path`.
    fn lint_str(path: &str, code: &str) -> Vec<Finding> {
        audit(path, code).1
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
    fn deref_index_and_call_receivers() {
        let u =
            uses_of("unsafe { (*e.cell).store(e.value, std::sync::atomic::Ordering::Release) };");
        assert_eq!(u[0].receiver, "cell");
        let u = uses_of("stripes()[idx as usize].load(Ordering::Acquire)");
        assert_eq!(u[0].receiver, "stripes");
        let u = uses_of("self.words.as_ref()[i].load(Ordering::Acquire)");
        assert_eq!(u[0].receiver, "as_ref");
        let u = uses_of("Self::CLOCK.load(Ordering::SeqCst)");
        assert_eq!(u[0].receiver, "CLOCK");
    }

    #[test]
    fn compare_exchange_has_two_orderings() {
        let u = uses_of("s.compare_exchange(cur, next, Ordering::Acquire, Ordering::Acquire)");
        assert_eq!(u[0].op, AtomicOp::CompareExchange);
        assert_eq!(u[0].orderings, vec!["Acquire", "Acquire"]);
    }

    #[test]
    fn method_chain_after_match_has_no_receiver() {
        let code = "match path {\n    A => &self.x,\n    B => &self.y,\n}\n.fetch_add(1, Ordering::Relaxed);\n";
        let u = uses_of(code);
        assert_eq!(u.len(), 1, "chained fetch_add found: {u:?}");
        assert_eq!((u[0].receiver.as_str(), u[0].line), ("", 6));
        assert_eq!(u[0].orderings, vec!["Relaxed"]);
    }

    #[test]
    fn non_atomic_calls_ignored() {
        // TxCell::write / Vec-ish calls carry no Ordering argument, and an
        // ordering nested in another call is that call's.
        assert!(uses_of("orec.write(epoch);").is_empty());
        assert!(uses_of("self.buf.store(x, y);").is_empty());
        assert!(uses_of("self.buf.store(pick(Ordering::Relaxed));").is_empty());
        assert!(uses_of("self.buf.push(Ordering::Relaxed);").is_empty());
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
    fn fence_matches_the_free_function_only() {
        let u = uses_of("std::sync::atomic::fence(Ordering::SeqCst);");
        assert_eq!(u.len(), 1);
        assert_eq!((u[0].op, u[0].receiver.as_str()), (AtomicOp::Fence, ""));
        assert!(uses_of("my_fence(Ordering::SeqCst);").is_empty());
        assert!(uses_of("x.fence(Ordering::SeqCst);").is_empty());
    }

    #[test]
    fn unclosed_groups_end_with_the_file() {
        assert!(sites(&lex("x.load(").0).is_empty());
        assert_eq!(sites(&lex("x.load(Ordering::Relaxed").0).len(), 1);
        assert_eq!(test_mask(&lex("#[test] fn f() {").0), [true; 9]);
    }

    #[test]
    fn strings_and_comments_do_not_confuse() {
        let code = "let s = \"x.load(Ordering::Relaxed)\"; // x.store(Ordering::Relaxed)\n";
        assert!(uses_of(code).is_empty());
    }

    #[test]
    fn test_items_are_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { X.load(Ordering::SeqCst); }\n}\n\
                   #[test]\n#[inline]\nfn t() { X.load(Ordering::SeqCst); }\n\
                   fn live() { X.load(Ordering::SeqCst); }\n";
        let u = sites(&lex(src).0);
        assert_eq!(u.iter().map(|u| u.line).collect::<Vec<_>>(), [8]);
        let (toks, _) = lex("#[cfg(test)]\nuse std::x;\nfn f() {}");
        assert_eq!(
            test_mask(&toks),
            [[true; 12].as_slice(), &[false; 6]].concat(),
            "a `;` item ends at its `;`"
        );
    }

    #[test]
    fn table_lookup() {
        let r = rule_for("crates/htm/src/cell.rs", "raw", AtomicOp::Load).expect("row exists");
        assert_eq!(r.allowed, &["Acquire", "SeqCst"]);
        assert!(rule_for("crates/htm/src/cell.rs", "raw", AtomicOp::Swap).is_none());
        // Wildcard receiver.
        assert!(rule_for("crates/htm/src/lanes.rs", "anything", AtomicOp::FetchAdd).is_some());
        // Only scope files are audited.
        assert!(in_scope("crates/htm/src/cell.rs") && in_scope("crates/obs/src/live.rs"));
        assert!(!in_scope("crates/bench/src/main.rs") && !in_scope("crates/obs/src/json.rs"));
    }

    #[test]
    fn conforming_cell_load_passes() {
        let f = lint_str(
            "crates/htm/src/cell.rs",
            "impl X { fn read(&self) { self.raw.load(Ordering::Acquire); } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn relaxed_cell_load_flagged() {
        let f = lint_str(
            "crates/htm/src/cell.rs",
            "impl X { fn read(&self) { self.raw.load(Ordering::Relaxed); } }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].pass, "ordering-table");
    }

    #[test]
    fn unaudited_atomic_needs_annotation() {
        let src = "fn f() { MYSTERY.store(1, Ordering::Relaxed); }";
        let f = lint_str("crates/core/src/other.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].pass, "ordering-unaudited");

        let annotated =
            "fn f() {\n    // ordering: test-only knob, no sync role\n    MYSTERY.store(1, Ordering::Relaxed);\n}";
        let f = lint_str("crates/core/src/other.rs", annotated);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn bare_imported_ordering_is_audited_like_a_qualified_one() {
        // `use std::sync::atomic::Ordering::Relaxed;` must not hide a site:
        // on a covered receiver a non-conforming bare ordering is a table
        // violation, on an uncovered one it is unaudited.
        let covered = "impl X { fn read(&self) { self.raw.load(Relaxed); } }";
        let f = lint_str("crates/htm/src/cell.rs", covered);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].pass, "ordering-table");

        let f = lint_str(
            "crates/core/src/other.rs",
            "fn f() { MYSTERY.store(1, Relaxed); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].pass, "ordering-unaudited");

        let mirror =
            "fn f(&self) { self.fired.fetch_add(1, Relaxed); self.state.store(2, Release); }";
        let f = lint_str("crates/obs/src/watchdog.rs", mirror);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("store on `state`"), "{}", f[0].msg);
    }

    #[test]
    fn every_fetch_method_is_audited() {
        let f = lint_str(
            "crates/core/src/other.rs",
            "fn f() { FLAGS.fetch_or(1, Ordering::Relaxed); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].pass, "ordering-unaudited");
        // On a covered file it lands on the read-modify-write row.
        let f = lint_str(
            "crates/htm/src/lanes.rs",
            "fn f(&self) { self.w.fetch_or(1, Ordering::AcqRel); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].pass, "ordering-table");
        assert!(f[0].msg.starts_with("fetch_or on `w`"), "{}", f[0].msg);
    }

    #[test]
    fn atomics_inside_macro_arguments_are_seen() {
        let src = "fn f(&self) -> Vec<u64> { vec![self.a.load(Ordering::SeqCst), 1] }";
        let f = lint_str("crates/obs/src/watchdog.rs", src);
        let passes: Vec<_> = f.iter().map(|f| f.pass).collect();
        assert_eq!(passes, ["ordering-table"], "{f:?}");
    }
}
