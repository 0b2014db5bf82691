//! One home, by grep: the TLE machine chooses its rung with the runtime's
//! own function and reads its budgets in one place, the TL2 machine has
//! one protocol, and FG-TLE stores an orec in one place, fenced. Textual
//! on purpose — the point is that a second copy cannot come back
//! unnoticed.

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

/// §4's store-load fence. The orec arrays are private to
/// `core/src/orec.rs`, and its production code stores to an orec once —
/// `OrecTable::stamp`'s acquisition store — with `fence(SeqCst)` on the
/// next code line, on the one path out of the store. (The ordering
/// table's `core/src/orec.rs` fence row holds the strength; what neither
/// sees is a stamp moved after the holder's data access: DESIGN §7a.)
#[test]
fn the_orec_stamp_is_stored_once_and_fenced() {
    let lines: Vec<&str> = code_lines(include_str!("../../core/src/orec.rs"))
        .into_iter()
        .filter(|l| !l.trim().is_empty())
        .collect();
    for array in ["r_orecs", "w_orecs"] {
        assert!(
            lines.contains(&&*format!("    {array}: Box<[TxCell<u64>]>,")),
            "`{array}` is no longer a private field of `OrecTable`"
        );
    }
    // Every `TxCell` mutator; the active-size word is the one other cell
    // the file writes.
    let mutators = [
        ".write(",
        ".fetch_add_plain(",
        ".compare_exchange_plain(",
        ".store_plain_for_test(",
    ];
    let stores: Vec<usize> = (0..lines.len())
        .filter(|&i| mutators.iter().any(|m| lines[i].contains(m)))
        .filter(|&i| !lines[i].contains("active.write("))
        .collect();
    let texts: Vec<&str> = stores.iter().map(|&i| lines[i].trim()).collect();
    assert_eq!(texts, ["orec.write(epoch);"], "one orec store, in `stamp`");
    assert_eq!(
        lines.get(stores[0] + 1).map(|l| l.trim()),
        Some("fence(Ordering::SeqCst);"),
        "the §4 fence must be the next code line after the orec store"
    );
}
