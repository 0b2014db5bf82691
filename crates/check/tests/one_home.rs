//! One home, by grep: the TLE machine chooses its rung with the runtime's
//! own function and reads its budgets in one place, the TL2 machine has
//! one protocol, FG-TLE stores an orec in one place, fenced, one function
//! decides what an abort waits for, one function picks the process's HTM,
//! a lock counts its holdings in one word, each rung of a lock records its
//! outcome where it counts it, and no crate declares a `trace` feature.
//! Textual on purpose — the point is that a second copy cannot come back
//! unnoticed.

use std::path::{Path, PathBuf};

/// The code lines of `src` up to its test module (comments dropped).
fn code_lines(src: &'static str) -> Vec<&'static str> {
    let end = src
        .find("\n#[cfg(test)]")
        .expect("the file has a test module");
    src[..end]
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect()
}

#[test]
fn the_tle_machine_asks_figure_1_once() {
    let lines = code_lines(include_str!("../src/model/tle.rs"));
    let at = |needle: &str| -> Vec<usize> {
        (0..lines.len())
            .filter(|&i| lines[i].contains(needle))
            .collect()
    };
    // `fn decide` runs to the next method of the impl.
    let start = at("    fn decide(")[0];
    let end = start
        + 1
        + lines[start + 1..]
            .iter()
            .position(|l| l.starts_with("    fn "))
            .unwrap();
    let decide = start..end;

    let calls = at("next_step(");
    assert_eq!(calls.len(), 1, "one call of RetryPolicy::next_step");
    assert!(decide.contains(&calls[0]));
    // A budget is declared once and read only where the `RetryPolicy` is
    // built; no phase compares an attempt count of its own.
    for budget in ["max_fast_attempts", "max_slow_attempts"] {
        let outside: Vec<&str> = at(budget)
            .into_iter()
            .filter(|i| !decide.contains(i))
            .map(|i| lines[i].trim())
            .collect();
        assert_eq!(
            outside,
            [format!("pub {budget}: u8,")],
            "{budget} is read outside fn decide"
        );
    }
    assert!(
        at("wants_lock").is_empty(),
        "`wants_lock` is back in tle.rs"
    );
}

#[test]
fn the_tl2_machine_has_one_protocol() {
    let lines = code_lines(include_str!("../src/model/tl2.rs"));
    for gone in ["Option<Extension>", "extension: None", "Some(Extension::"] {
        assert!(
            !lines.iter().any(|l| l.contains(gone)),
            "`{gone}` is back in tl2.rs"
        );
    }
}

/// §4's store-load fence. The orec arrays hold `Orec`s, private to
/// `core/src/orec.rs`, whose one mutator is `Orec::stamp`: the orec store,
/// then `store_load_fence()` on the next code line. Nothing else in the
/// file stores to an orec. (The fence's strength is the type's:
/// `rtle_htm::atomic::store_load_fence` is SeqCst. What this does not see
/// is a stamp moved after the holder's data access: DESIGN §7a.)
#[test]
fn the_orec_stamp_is_stored_once_and_fenced() {
    let lines: Vec<&str> = code_lines(include_str!("../../core/src/orec.rs"))
        .into_iter()
        .filter(|l| !l.trim().is_empty())
        .collect();
    for array in ["r_orecs", "w_orecs"] {
        assert!(
            lines.contains(&&*format!("    {array}: Box<[Orec]>,")),
            "`{array}` is no longer a private array of `Orec`s"
        );
    }
    assert!(lines.contains(&"struct Orec(TxCell<u64>);"));
    let stamp = lines
        .iter()
        .position(|l| l.trim() == "fn stamp(&self, epoch: u64) {")
        .expect("`Orec::stamp`");
    assert_eq!(
        lines[stamp + 1..stamp + 4]
            .iter()
            .map(|l| l.trim())
            .collect::<Vec<_>>(),
        ["self.0.write(epoch);", "store_load_fence();", "}"],
        "`Orec::stamp` is the orec store, then the §4 fence on the next code line"
    );
    let stores: Vec<&str> = lines
        .iter()
        .map(|l| l.trim())
        .filter(|l| l.contains("self.0.write(") || l.contains("Orec(TxCell::new"))
        .collect();
    assert_eq!(
        stores,
        [
            "self.0.write(epoch);",
            "r_orecs: (0..capacity).map(|_| Orec(TxCell::new(0))).collect(),",
            "w_orecs: (0..capacity).map(|_| Orec(TxCell::new(0))).collect(),",
        ],
        "an orec is built in `OrecTable::new` and stored to only in `Orec::stamp`"
    );
}

/// Recording is not a build option: there is one record stream, and a
/// recorded operation is a timestamped one. No crate may grow the `trace`
/// cargo feature back.
#[test]
fn no_manifest_declares_a_trace_feature() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut manifests = 0;
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let manifest = krate.expect("dir entry").path().join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        manifests += 1;
        let declares = text.lines().any(|line| {
            let (key, value) = line.split_once('=').unwrap_or((line, ""));
            key.trim() == "trace" || key.trim() == "default" && value.contains("\"trace\"")
        });
        assert!(
            !declares,
            "{} declares a `trace` feature",
            manifest.display()
        );
    }
    assert!(manifests >= 13, "only {manifests} crate manifests scanned");
}

/// Every `.rs` file under `dir`, build outputs excepted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("a readable directory") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The after-abort rule is one function, `policy::awaits_release`, which
/// the runtime and the simulator's engine both call; the runtime's second
/// wait set and its wait for a free lock are gone.
#[test]
fn one_after_abort_rule() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    rust_files(&crates, &mut files);
    assert!(files.len() > 100, "only {} files scanned", files.len());
    let mut homes = Vec::new();
    // This file names what it looks for.
    for file in files
        .iter()
        .filter(|f| !f.ends_with("check/tests/one_home.rs"))
    {
        let text = std::fs::read_to_string(file).expect("a readable source file");
        let name = file
            .strip_prefix(&crates)
            .expect("under crates/")
            .display()
            .to_string();
        if text.contains("fn awaits_release(") {
            homes.push(name.clone());
        }
        for gone in ["slow_attempt_hopeless", "spin_while_held"] {
            assert!(!text.contains(gone), "`{gone}` is back in {name}");
        }
    }
    assert_eq!(
        homes,
        ["core/src/policy.rs"],
        "`fn awaits_release` is defined once"
    );
}

/// One HTM per process: `rtle_htm::try_txn` picks it, so no HTM backend
/// type comes back, and outside tests nothing else under `crates/*/src`
/// starts an emulated or a real-RTM transaction directly.
#[test]
fn one_htm_per_process() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    rust_files(&crates, &mut files);
    assert!(files.len() > 100, "only {} files scanned", files.len());
    let mut callers = Vec::new();
    // This file names what it looks for.
    for file in files
        .iter()
        .filter(|f| !f.ends_with("check/tests/one_home.rs"))
    {
        let text = std::fs::read_to_string(file).expect("a readable source file");
        let name = file
            .strip_prefix(&crates)
            .expect("under crates/")
            .display()
            .to_string();
        for gone in ["HtmBackend", "SwHtmBackend", "RtmBackend"] {
            assert!(!text.contains(gone), "`{gone}` is back in {name}");
        }
        if name.split('/').nth(1) != Some("src") {
            continue;
        }
        // The code up to the file's test module, comments dropped.
        let code = text
            .find("\n#[cfg(test)]\nmod ")
            .map_or(&*text, |end| &text[..end]);
        let calls = code
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .any(|l| l.contains("swhtm::try_txn(") || l.contains("rtm::try_txn("));
        if calls {
            callers.push(name);
        }
    }
    assert_eq!(
        callers,
        ["htm/src/lib.rs"],
        "only `rtle_htm::try_txn` calls `swhtm::try_txn` or `rtm::try_txn`"
    );
}

/// A lock counts its holdings once: the `TatasLock` word is FG-TLE's
/// `global_seq_number`, so no second counter beside it comes back — no
/// `SeqEpoch`, none of its two bumps per holding, no epoch module in
/// `rtle-core` (rtle-htm's `epoch` is the telemetry clock, not a count).
#[test]
fn a_lock_counts_its_holdings_once() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    rust_files(&crates, &mut files);
    assert!(files.len() > 100, "only {} files scanned", files.len());
    let mut sources = 0;
    for file in &files {
        let name = file
            .strip_prefix(&crates)
            .expect("under crates/")
            .display()
            .to_string();
        if name.split('/').nth(1) != Some("src") {
            continue;
        }
        sources += 1;
        let text = std::fs::read_to_string(file).expect("a readable source file");
        for gone in ["SeqEpoch", "begin_locked_section", "end_locked_section"] {
            assert!(!text.contains(gone), "`{gone}` is back in {name}");
        }
        if name.starts_with("core/") {
            assert!(!text.contains("mod epoch"), "`mod epoch` is back in {name}");
        }
    }
    assert!(sources > 50, "only {sources} files under crates/*/src");
}

/// The `Type::fn` each code line of `lines` sits in: the type of the last
/// `impl` header (`impl Drop for LockedSection<'_>` → `LockedSection`) and
/// the last `fn` name seen.
fn enclosing_fns<'a>(lines: &[&'a str]) -> Vec<(String, &'a str)> {
    let ident = |s: &str| -> String {
        s.chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect()
    };
    let (mut ty, mut func) = (String::new(), String::new());
    let mut out = Vec::new();
    for &line in lines {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("impl") {
            // Past the impl's own generics, then past the trait, if any.
            let rest = match rest.strip_prefix('<') {
                Some(generics) => generics.split_once('>').map_or("", |(_, r)| r),
                None => rest,
            };
            ty = ident(rest.split(" for ").last().unwrap_or(rest).trim_start());
        }
        if let Some(at) = t
            .find("fn ")
            .filter(|&at| at == 0 || t[..at].ends_with(' '))
        {
            func = ident(&t[at + 3..]);
        }
        out.push((format!("{ty}::{func}"), line));
    }
    out
}

/// Each rung's home books its outcome once, into the lock's `ExecStats`
/// and its recorder: `Rec::attempt` is called only by `note_attempt` (the
/// speculative rungs of `speculative_phase`), `software_attempt` and
/// `LockedSection::drop`; a `Rec` is built (`Rec::of`) only in those
/// homes; and no function of `elidable.rs` takes an `Option<Rec` parameter,
/// so no recording handle is threaded through `execute`'s helpers again.
#[test]
fn each_rung_records_where_it_counts() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src");
    let mut files = Vec::new();
    rust_files(&dir, &mut files);
    files.sort();
    let (mut records, mut builds) = (Vec::new(), Vec::new());
    for file in &files {
        let text = std::fs::read_to_string(file).expect("a readable source file");
        let code = text
            .find("\n#[cfg(test)]")
            .map_or(&*text, |end| &text[..end]);
        let lines: Vec<&str> = code
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .collect();
        for (at, line) in enclosing_fns(&lines) {
            // `SwPhase::attempt` runs a software attempt; it records nothing.
            if line.contains(".attempt(") && !line.contains("phase.attempt(") {
                records.push(at.clone());
            }
            if line.contains("Rec::of(") {
                builds.push(at);
            }
        }
        if file.ends_with("elidable.rs") {
            let code = lines.join("\n");
            for (at, _) in code.match_indices("fn ") {
                if at > 0 && !code[..at].ends_with([' ', '\n']) {
                    continue;
                }
                // The parameter list: from the first `(` to its match.
                let sig = &code[at..];
                let open = sig.find('(').expect("a parameter list");
                let mut depth = 0;
                let close = sig[open..]
                    .find(|c| {
                        depth += match c {
                            '(' => 1,
                            ')' => -1,
                            _ => 0,
                        };
                        depth == 0
                    })
                    .expect("a closed parameter list");
                let params = &sig[open..open + close];
                assert!(
                    !params.contains("Option<Rec"),
                    "a recording handle is threaded again: {}",
                    &sig[..open + close + 1]
                );
            }
        }
    }
    assert_eq!(
        records,
        [
            "ElidableLock::note_attempt",
            "ElidableLock::software_attempt",
            "LockedSection::drop",
        ],
        "`Rec::attempt` is called from the three rung homes only"
    );
    assert_eq!(
        builds,
        [
            "ElidableLock::speculative_phase",
            "ElidableLock::software_attempt",
            "ElidableLock::enter_locked",
        ],
        "a `Rec` is built in the three rung homes only"
    );
}
