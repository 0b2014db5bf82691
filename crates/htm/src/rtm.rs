//! Real Intel RTM (feature `rtm`, x86-64 only).
//!
//! Uses the `xbegin`/`xend`/`xabort`/`xtest` instructions, hand-encoded in
//! inline assembly. Availability is detected at runtime via CPUID leaf 7
//! (EBX bit 11) and a probe transaction ([`live`]); on machines without
//! TSX every attempt reports [`AbortCode::Unsupported`], and
//! [`crate::try_txn`] runs the emulation instead.
//!
//! Restrictions inside a hardware transaction: the closure must not panic,
//! allocate unboundedly, or perform syscalls — any of those aborts the
//! transaction (which is safe, merely unproductive). `TxCell` accesses
//! compile to plain atomic loads/stores in this mode; the hardware tracks
//! the footprint.

#![cfg(feature = "rtm")]

use std::cell::Cell;
use std::sync::OnceLock;

use crate::abort::AbortCode;

#[cfg(target_arch = "x86_64")]
mod intrin {
    //! Hand-encoded RTM instructions. The `core::arch::x86_64` RTM
    //! intrinsics are still unstable (`stdarch_x86_rtm`), but inline
    //! assembly is stable, and the four TSX instructions have fixed
    //! encodings:
    //!
    //! * `xbegin rel32` — `C7 F8 xx xx xx xx`; with rel32 = 0 the abort
    //!   handler is the next instruction. EAX is written only on abort,
    //!   so it is pre-loaded with `_XBEGIN_STARTED`.
    //! * `xend`   — `0F 01 D5`
    //! * `xtest`  — `0F 01 D6` (ZF = 0 inside a transaction)
    //! * `xabort imm8` — `C6 F8 ii`

    use core::arch::asm;

    pub const XBEGIN_STARTED: u32 = !0;
    pub const XABORT_EXPLICIT: u32 = 1 << 0;
    pub const XABORT_RETRY: u32 = 1 << 1;
    pub const XABORT_CONFLICT: u32 = 1 << 2;
    pub const XABORT_CAPACITY: u32 = 1 << 3;
    pub const XABORT_NESTED: u32 = 1 << 5;

    #[inline]
    pub unsafe fn xbegin() -> u32 {
        let mut status: u32 = XBEGIN_STARTED;
        // Default asm! semantics treat memory as clobbered, which is what
        // a transaction boundary needs (no caching across it).
        asm!(
            ".byte 0xc7, 0xf8, 0x00, 0x00, 0x00, 0x00", // xbegin +0
            inout("eax") status,
            options(nostack)
        );
        status
    }

    #[inline]
    pub unsafe fn xend() {
        asm!(".byte 0x0f, 0x01, 0xd5", options(nostack));
    }

    #[allow(dead_code)] // exposed via `actually_in_hw_txn`, used in tests
    #[inline]
    pub unsafe fn xtest() -> bool {
        let inside: u8;
        asm!(
            ".byte 0x0f, 0x01, 0xd6", // xtest
            "setnz {out}",
            out = out(reg_byte) inside,
            options(nostack)
        );
        inside != 0
    }

    /// `xabort` takes an immediate; dispatch over the codes we use.
    pub unsafe fn xabort(code: u8) -> ! {
        macro_rules! xabort_imm {
            ($imm:literal) => {
                asm!(
                    ".byte 0xc6, 0xf8",
                    concat!(".byte ", $imm),
                    options(nostack)
                )
            };
        }
        match code {
            crate::abort::UNSUPPORTED_XABORT_CODE => xabort_imm!(0xfe),
            0 => xabort_imm!(0),
            1 => xabort_imm!(1),
            2 => xabort_imm!(2),
            3 => xabort_imm!(3),
            _ => xabort_imm!(0xff),
        }
        // xabort never returns within a transaction; outside one it is a
        // no-op, which we treat as unreachable because callers check xtest.
        unreachable!("xabort outside transaction")
    }
}

/// Whether the running CPU supports RTM.
pub fn rtm_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static SUPPORTED: OnceLock<bool> = OnceLock::new();
        *SUPPORTED.get_or_init(|| {
            // CPUID.(EAX=7, ECX=0):EBX bit 11 = RTM.
            let r = core::arch::x86_64::__cpuid_count(7, 0);
            (r.ebx >> 11) & 1 == 1
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Probe transactions [`live`] tries before it settles on the emulation:
/// an interrupt or a first-touch page fault aborts a lone probe on a CPU
/// whose RTM works, but not fifty in a row.
const PROBES: usize = 50;

/// Whether this process runs its transactions on RTM: the CPU reports RTM
/// and a probe transaction commits. Decided on the first call and fixed
/// for the life of the process. The probe tells apart microcode that
/// advertises RTM but aborts every transaction (TSX force-abort).
pub fn live() -> bool {
    static LIVE: OnceLock<bool> = OnceLock::new();
    *LIVE.get_or_init(|| rtm_supported() && (0..PROBES).any(|_| try_txn(|| ()).is_ok()))
}

thread_local! {
    // `xtest` is authoritative, but calling it requires the rtm feature;
    // the flag lets `in_hw_txn` answer cheaply (and safely on non-TSX CPUs).
    static HW_ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is inside a hardware transaction.
#[inline]
pub fn in_hw_txn() -> bool {
    HW_ACTIVE.with(|a| a.get())
}

/// Hardware-authoritative probe (`xtest`). Agrees with [`in_hw_txn`] for
/// transactions started by this crate; used by tests.
#[cfg(target_arch = "x86_64")]
pub fn actually_in_hw_txn() -> bool {
    if !rtm_supported() {
        return false;
    }
    // SAFETY: xtest is valid whenever RTM is supported.
    unsafe { intrin::xtest() }
}

/// Aborts the current hardware transaction with an explicit code.
#[inline]
pub fn hw_abort(code: u8) -> ! {
    // SAFETY: xabort is always legal to execute; outside a transaction it
    // is a no-op falling through to the (diverging) path below, inside one
    // it transfers control back to the xbegin fallback address.
    #[cfg(target_arch = "x86_64")]
    unsafe {
        intrin::xabort(code)
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!("hw_abort on non-x86_64")
}

/// One hardware transaction attempt. A call inside a hardware
/// transaction runs `f` inline as part of it (flat nesting, as the
/// emulation does).
///
/// Hardware and emulated transactions are not coherent with each other on
/// the same data: the emulation's versioned stripes are not maintained by
/// plain stores inside hardware transactions. They never meet, because a
/// process runs on one HTM: [`crate::try_txn`], the one caller outside
/// tests and probes, picks this function for every attempt or for none.
pub fn try_txn<R>(f: impl FnOnce() -> R) -> Result<R, AbortCode> {
    #[cfg(target_arch = "x86_64")]
    {
        debug_assert!(
            !crate::descriptor::in_sw_txn(),
            "real-RTM transaction started inside a software transaction"
        );
        if in_hw_txn() {
            return Ok(f());
        }
        if !rtm_supported() {
            return Err(AbortCode::Unsupported);
        }
        // SAFETY: xbegin/xend are paired on the success path only: xend
        // runs iff xbegin returned XBEGIN_STARTED and the closure did not
        // abort (an abort rolls back to xbegin with a status code, so
        // control never reaches the xend of an aborted transaction).
        unsafe {
            let status = intrin::xbegin();
            if status == intrin::XBEGIN_STARTED {
                HW_ACTIVE.with(|a| a.set(true));
                let r = f();
                HW_ACTIVE.with(|a| a.set(false));
                intrin::xend();
                return Ok(r);
            }
            HW_ACTIVE.with(|a| a.set(false));
            Err(decode_status(status))
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = f;
        Err(AbortCode::Unsupported)
    }
}

#[cfg(target_arch = "x86_64")]
fn decode_status(status: u32) -> AbortCode {
    use intrin::*;
    if status & XABORT_EXPLICIT != 0 {
        let code = ((status >> 24) & 0xff) as u8;
        if code == crate::abort::UNSUPPORTED_XABORT_CODE {
            return AbortCode::Unsupported;
        }
        return AbortCode::Explicit(code);
    }
    if status & XABORT_CAPACITY != 0 {
        return AbortCode::Capacity;
    }
    if status & XABORT_CONFLICT != 0 {
        return AbortCode::Conflict;
    }
    if status & XABORT_NESTED != 0 {
        return AbortCode::Nested;
    }
    if status & XABORT_RETRY != 0 {
        return AbortCode::Spurious;
    }
    // Status 0: e.g. a fault or unsupported instruction inside the txn.
    AbortCode::Unsupported
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_does_not_crash() {
        let _ = rtm_supported();
    }

    #[test]
    fn txn_attempt_or_unsupported() {
        // On TSX hardware this may commit or abort; on anything else it
        // must report Unsupported. Either way the API holds its contract.
        let r = try_txn(|| 41 + 1);
        match r {
            Ok(v) => assert_eq!(v, 42),
            Err(code) => assert!(matches!(
                code,
                AbortCode::Unsupported
                    | AbortCode::Conflict
                    | AbortCode::Capacity
                    | AbortCode::Spurious
            )),
        }
        assert!(!in_hw_txn());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn decode_statuses() {
        assert_eq!(decode_status(intrin::XABORT_CAPACITY), AbortCode::Capacity);
        assert_eq!(decode_status(intrin::XABORT_CONFLICT), AbortCode::Conflict);
        assert_eq!(decode_status(intrin::XABORT_RETRY), AbortCode::Spurious);
        assert_eq!(
            decode_status(intrin::XABORT_EXPLICIT | (7 << 24)),
            AbortCode::Explicit(7)
        );
        assert_eq!(decode_status(0), AbortCode::Unsupported);
    }
}
