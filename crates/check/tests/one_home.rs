//! One home, by grep: the TLE machine chooses its rung with the runtime's
//! own function and reads its budgets in one place, and the TL2 machine
//! has one protocol. Textual on purpose — the point is that a second copy
//! cannot come back unnoticed.

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
