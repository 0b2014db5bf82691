//! The one abort-by-unwind channel (`rtle_htm::unwind`), exercised through
//! the three runners built on it: `swhtm::try_txn` (`Htm`),
//! `rtle_hytm::SwPhase::attempt` (`Sw`) and a bare `catch` standing in for
//! `atomically`'s pessimistic plan growth (`Restart`).
//!
//! One test per binary: it installs a panic hook *before* the first raise,
//! which is the hook the channel's silent hook must chain to.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use rtle_htm::unwind::{self, Channel};
use rtle_htm::{swhtm, AbortCode, TxCell};
use rtle_hytm::{Norec, SwPhase};

/// Runs `body` under the runner of `channel`.
fn run_under(channel: Channel, body: &dyn Fn()) -> Option<()> {
    match channel {
        Channel::Htm => swhtm::try_txn(body).ok(),
        Channel::Sw => {
            let tm = Norec::new();
            let phase = SwPhase::enter(&tm);
            phase.attempt(|_ctx| body())
        }
        Channel::Restart => unwind::catch(Channel::Restart, body).ok(),
    }
}

/// Raises on `channel` through the function production code raises with.
fn raise_on(channel: Channel) -> ! {
    match channel {
        Channel::Htm => rtle_htm::abort::raise(AbortCode::Explicit(7)),
        Channel::Sw => rtle_hytm::abort_sw(),
        Channel::Restart => unwind::raise(Channel::Restart, AbortCode::Conflict),
    }
}

#[test]
fn every_channel_is_caught_by_its_own_runner_and_only_by_it() {
    static PRINTED: AtomicUsize = AtomicUsize::new(0);
    let print = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PRINTED.fetch_add(1, Ordering::SeqCst);
        print(info);
    }));

    let channels = [Channel::Htm, Channel::Sw, Channel::Restart];
    for raised in channels {
        for runner in channels {
            // The raise happens inside `runner`, which sits inside a
            // catch-all for `raised`, so a pass-through has somewhere to
            // land.
            let landed = unwind::catch(raised, || run_under(runner, &|| raise_on(raised)));
            // The runner's own channel is translated into an abort; any
            // other passes through it untouched and lands in the catch-all.
            let aborted_in_runner = match landed {
                Ok(None) => true,
                Err(_) => false,
                Ok(Some(())) => panic!("{raised:?} inside {runner:?} vanished"),
            };
            assert_eq!(
                aborted_in_runner,
                raised == runner,
                "{raised:?} raised inside {runner:?}"
            );
        }
    }
    assert!(!rtle_htm::in_txn(), "pass-throughs left a transaction open");

    // A hardware abort carries its code to its own runner, through a
    // software attempt in between.
    let tm = Norec::new();
    let phase = SwPhase::enter(&tm);
    let r: Result<Option<()>, AbortCode> =
        swhtm::try_txn(|| phase.attempt(|_ctx| rtle_htm::abort(9)));
    assert_eq!(r, Err(AbortCode::Explicit(9)));

    // Flat nesting: an abort in the inner transaction kills the outer one
    // and discards both their writes.
    let cell = TxCell::new(0u64);
    let r: Result<(), AbortCode> = swhtm::try_txn(|| {
        cell.write(1);
        let _: Result<(), AbortCode> = swhtm::try_txn(|| {
            cell.write(2);
            rtle_htm::abort(9)
        });
        unreachable!("inner abort must unwind the flat nest");
    });
    assert_eq!(r, Err(AbortCode::Explicit(9)));
    assert_eq!(cell.read_plain(), 0);

    // None of the above printed: the channel's hook is silent for its own
    // payload...
    assert_eq!(PRINTED.load(Ordering::SeqCst), 0);
    // ...and a real panic still propagates through every runner and
    // prints, once, through the hook that was installed before it.
    for runner in channels {
        let before = PRINTED.load(Ordering::SeqCst);
        let r = catch_unwind(AssertUnwindSafe(|| {
            run_under(runner, &|| panic!("real bug"));
        }));
        assert!(r.is_err(), "real panic swallowed by {runner:?}");
        assert_eq!(PRINTED.load(Ordering::SeqCst), before + 1);
        assert!(!rtle_htm::in_txn(), "{runner:?} left a transaction open");
    }
}
