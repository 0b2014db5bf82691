//! One software rung, by grep: a lock has one software backend and no
//! code that chooses between two, a software-transaction descriptor is
//! built in one place, RH-NOrec's hardware phase is the lock's ladder (no
//! second hardware-first loop, no second software-presence counter), and
//! the adaptive state holds no bare atomics.
//! Textual on purpose — the point is that a second copy cannot come back
//! unnoticed.

use std::path::Path;

/// Every file of `crates/<krate>/src` (flat in these four crates), cut at
/// its unindented `#[cfg(test)]`, as `(path, production source)`.
fn production_sources(krate: &str) -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates")
        .join(krate)
        .join("src");
    std::fs::read_dir(dir)
        .expect("crate source directory")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            assert!(path.is_file(), "{path:?}: a module directory — walk it");
            let mut src = std::fs::read_to_string(&path).expect("source file");
            if let Some(cut) = src.find("\n#[cfg(test)]") {
                src.truncate(cut);
            }
            (path.display().to_string(), src)
        })
        .collect()
}

#[test]
fn no_code_chooses_between_software_backends() {
    for krate in ["core", "hytm", "stm", "shard"] {
        for (path, src) in production_sources(krate) {
            for gone in [
                "select_software_backend",
                "selected_software_backend",
                "sw_backends",
            ] {
                assert!(!src.contains(gone), "`{gone}` is back in {path}");
            }
        }
    }
}

#[test]
fn a_descriptor_is_built_in_one_place() {
    // The take-or-defaults that build no descriptor, each exempt by its
    // exact text in its one file: the shard map's index scratch and
    // `atomically`'s spare logs.
    const SCRATCH: [(&str, &str); 2] = [
        (
            "shard/src/batch.rs",
            "SCRATCH.try_with(Cell::take).unwrap_or_default()",
        ),
        (
            "stm/src/tx.rs",
            "SPARE.try_with(Cell::take).unwrap_or_default()",
        ),
    ];
    let mut builders = Vec::new();
    let mut exempt = [0; SCRATCH.len()];
    for krate in ["core", "hytm", "stm", "shard"] {
        for (path, src) in production_sources(krate) {
            let mut n = src.matches("SwDescriptor::default()").count()
                + src.matches(".unwrap_or_default()").count();
            for (seen, (file, text)) in exempt.iter_mut().zip(SCRATCH) {
                if path.ends_with(file) {
                    let scratch = src.matches(text).count();
                    *seen += scratch;
                    n -= scratch;
                }
            }
            builders.extend(std::iter::repeat_n(path, n));
        }
    }
    assert_eq!(exempt, [1; SCRATCH.len()], "{SCRATCH:?}: each once");
    assert_eq!(builders.len(), 1, "{builders:?}");
    assert!(builders[0].ends_with("hytm/src/tm.rs"), "{builders:?}");
}

#[test]
fn rhnorec_runs_on_the_locks_ladder() {
    let mut hardware_txns = Vec::new();
    for (path, src) in production_sources("hytm") {
        for gone in [
            "enter_sw",
            "exit_sw",
            "sw_count",
            "TmCtx::hw",
            "HtmFast",
            "HtmSlow",
            "record_hw_abort",
        ] {
            assert!(!src.contains(gone), "`{gone}` is back in {path}");
        }
        let code = src.lines().filter(|l| !l.trim_start().starts_with("//"));
        let n = code.map(|l| l.matches("try_txn(").count()).sum();
        hardware_txns.extend(std::iter::repeat_n(path, n));
    }
    // The one hardware transaction is RH-NOrec's reduced commit.
    assert_eq!(hardware_txns.len(), 1, "{hardware_txns:?}");
    assert!(
        hardware_txns[0].ends_with("hytm/src/rhnorec.rs"),
        "{hardware_txns:?}"
    );
}

#[test]
fn the_adaptive_state_holds_no_bare_atomics() {
    let (_, src) = production_sources("core")
        .into_iter()
        .find(|(path, _)| path.ends_with("adaptive.rs"))
        .expect("core/src/adaptive.rs");
    assert!(!src.contains("AtomicU64"));
}
