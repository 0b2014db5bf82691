//! One home, by grep: the TLE machine chooses its rung with the runtime's
//! own function and reads its budgets in one place, the TL2 machine has
//! one protocol, FG-TLE stores an orec in one place, fenced, and no crate
//! declares a `trace` feature. Textual on purpose — the point is that a
//! second copy cannot come back unnoticed.

use std::path::Path;

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
