//! Golden-file test for the lock's live `/metrics` exposition — in
//! particular the `software_backend` identity label that tells a scrape
//! (and `diag top`) which software-TM path is live.
//!
//! A real `ElidableLock` drives the page: single-threaded traffic takes
//! deterministic paths (uncontended hardware attempts commit first try;
//! HTM-unfriendly operations land on the software backend), and the lock
//! exposition carries no wall-clock values, so the rendered text is
//! byte-stable. Regenerate after an intentional format change with:
//!
//! ```sh
//! BLESS=1 cargo test -p rtle-core --test live_backend_metrics
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use rtle_core::{ElidableLock, ElisionPolicy};
use rtle_htm::TxCell;
use rtle_hytm::{Norec, Tl2};
use rtle_obs::MetricsRegistry;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/live_backend_metrics.prom")
}

#[test]
fn backend_name_label_matches_the_golden_exposition() {
    let registry = MetricsRegistry::new();

    let tl2_lock = Arc::new(
        ElidableLock::builder()
            .policy(ElisionPolicy::Tle)
            .with_software_backend(Arc::new(Tl2::new()))
            .build(),
    );
    tl2_lock.register_live(&registry, "tl2_lock");

    let norec_lock = Arc::new(
        ElidableLock::builder()
            .policy(ElisionPolicy::Tle)
            .with_software_backend(Arc::new(Norec::new()))
            .build(),
    );
    norec_lock.register_live(&registry, "norec_lock");

    // A lock without a software backend emits no backend label at all.
    let bare_lock = Arc::new(ElidableLock::builder().policy(ElisionPolicy::Tle).build());
    bare_lock.register_live(&registry, "bare_lock");

    for lock in [&tl2_lock, &norec_lock, &bare_lock] {
        let c = TxCell::new(0u64);
        // Six uncontended hardware commits...
        for _ in 0..6 {
            lock.execute(|ctx| {
                let v = ctx.read(&c);
                ctx.write(&c, v + 1);
            });
        }
        // ...and four operations forced off hardware: onto the software
        // backend where one exists, under the lock otherwise.
        for _ in 0..4 {
            lock.execute(|ctx| {
                rtle_htm::htm_unfriendly_instruction();
                let v = ctx.read(&c);
                ctx.write(&c, v + 1);
            });
        }
        assert_eq!(c.read_plain(), 10);
    }

    let text = registry.to_prometheus();
    assert!(
        text.contains("software_backend=\"tl2\""),
        "TL2 lock must be labelled:\n{text}"
    );
    assert!(
        text.contains("software_backend=\"norec\""),
        "NOrec lock must be labelled:\n{text}"
    );

    let path = golden_path();
    if std::env::var_os("BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &text).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        text, expected,
        "live_backend_metrics.prom drifted; run `BLESS=1 cargo test -p rtle-core \
         --test live_backend_metrics` and review the diff"
    );
}
