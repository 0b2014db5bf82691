//! One home, by grep: the engine books, waits and builds an attempt in
//! exactly one place each, and chooses its rung with the runtime's own
//! function. Textual on purpose — the point is that a second copy cannot
//! come back unnoticed.

/// `engine.rs` up to its test modules.
fn engine_source() -> &'static str {
    let src = include_str!("../src/engine.rs");
    &src[..src
        .find("\n#[cfg(test)]")
        .expect("engine.rs has test modules")]
}

/// The body of `fn <name>` (to the next method at the same indentation).
fn body_of(name: &str) -> &'static str {
    let src = engine_source();
    let start = src
        .find(&format!("    fn {name}("))
        .unwrap_or_else(|| panic!("engine.rs defines fn {name}"));
    let rest = &src[start..];
    let end = rest[1..].find("\n    fn ").map_or(rest.len(), |i| i + 1);
    &rest[..end]
}

#[test]
fn every_resolution_is_booked_in_book() {
    let src = engine_source();
    // The six abort-class counters are written in `book` alone, each
    // once, and no total beside them is counted.
    for class in [
        "aborts_conflict",
        "aborts_capacity",
        "aborts_uarch",
        "aborts_hostile",
        "aborts_eager_owned",
        "aborts_lazy",
    ] {
        let write = format!("&mut s.{class}");
        assert_eq!(
            src.matches(class).count(),
            1,
            "{class} is read or written outside `book`"
        );
        assert_eq!(body_of("book").matches(&write).count(), 1, "{class}");
    }
    assert!(
        !src.contains("stats.aborts +="),
        "a counted abort total is back"
    );
    assert_eq!(src.matches("stats.sw_aborts +=").count(), 1);
    assert_eq!(body_of("book").matches("stats.sw_aborts +=").count(), 1);
    // The recorder is fed attempts from `book` alone.
    assert_eq!(src.matches("RecordKind::Attempt").count(), 1);
    assert_eq!(body_of("book").matches("RecordKind::Attempt").count(), 1);
}

#[test]
fn one_launcher_one_waiter_one_rung_choice() {
    let src = engine_source();
    assert_eq!(src.matches("Some(Attempt {").count(), 1);
    assert_eq!(body_of("launch").matches("Some(Attempt {").count(), 1);
    assert_eq!(src.matches("waiters += 1").count(), 1);
    assert_eq!(body_of("await_release").matches("waiters += 1").count(), 1);
    // Figure 1's cascade is `RetryPolicy::next_step`; the engine keeps no
    // budget constant and no window test of its own.
    assert_eq!(
        src.matches(".next_step(").count(),
        3,
        "one wrapper, two callers"
    );
    assert_eq!(body_of("next_step").matches("self.retry").count(), 1);
    for gone in [
        "schedule_fast_attempt",
        "schedule_rw_slow_attempt",
        "schedule_fg_slow_attempt",
        "schedule_rh_hw_attempt",
        "schedule_sw_txn",
        "const ATTEMPTS",
        "fn obs_attempt",
        "attempts_left",
        "is_multiple_of",
    ] {
        assert!(!src.contains(gone), "`{gone}` is back in engine.rs");
    }
}
