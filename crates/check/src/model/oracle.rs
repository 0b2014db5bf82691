//! The serializability oracle.
//!
//! A committed history is correct iff there is *some* serial order of the
//! committed critical sections whose sequential replay over shadow memory
//! (starting from the initial contents) reproduces every recorded read
//! observation and ends in the recorded final memory. This is exactly the
//! lock's specification: every critical section must appear to run alone,
//! in some total order — one that keeps each thread's own sections in the
//! order the thread ran them. With a handful of sections per configuration
//! the oracle simply tries every permutation.

use std::fmt;

/// One logged data access with its observed/produced value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HOp {
    /// `Read(loc, observed)`.
    Read(u8, u64),
    /// `Write(loc, stored)`.
    Write(u8, u64),
}

impl fmt::Display for HOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HOp::Read(l, v) => write!(f, "R{l}={v}"),
            HOp::Write(l, v) => write!(f, "W{l}:={v}"),
        }
    }
}

/// Which path a critical section committed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommitPath {
    /// Fast-path hardware transaction (lock free).
    Fast,
    /// Slow-path hardware transaction (ran while the lock was held).
    Slow,
    /// Pessimistic execution under the lock.
    Lock,
}

/// One committed critical section: who ran it, how, and its data accesses
/// in program order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Committed {
    /// Committing thread index.
    pub thread: u8,
    /// Commit path.
    pub path: CommitPath,
    /// Logged accesses in program order.
    pub ops: Vec<HOp>,
}

impl fmt::Display for Committed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}[{:?}]{{", self.thread, self.path)?;
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{op}")?;
        }
        write!(f, "}}")
    }
}

/// Replays `entries` in the order given by `perm` over a copy of `init`;
/// true iff `perm` keeps each thread's entries in their given order, every
/// read observation matches and the final memory equals `final_mem`.
fn replays(init: &[u64], final_mem: &[u64], entries: &[&Committed], perm: &[usize]) -> bool {
    let mut mem = init.to_vec();
    for (k, &i) in perm.iter().enumerate() {
        let thread = entries[i].thread;
        if perm[..k]
            .iter()
            .any(|&j| j > i && entries[j].thread == thread)
        {
            return false;
        }
        for op in &entries[i].ops {
            match *op {
                HOp::Read(loc, v) => {
                    if mem[loc as usize] != v {
                        return false;
                    }
                }
                HOp::Write(loc, v) => mem[loc as usize] = v,
            }
        }
    }
    mem == final_mem
}

/// Searches for a serial witness order. Returns the entry permutation that
/// explains the history, or `None` if the history is not serializable.
/// Entries of one thread must be listed in the order the thread committed
/// them; a witness keeps them in that order.
pub fn find_serial_witness(
    init: &[u64],
    final_mem: &[u64],
    entries: &[&Committed],
) -> Option<Vec<usize>> {
    let n = entries.len();
    let mut perm: Vec<usize> = (0..n).collect();
    // Heap's algorithm, iterative: visits every permutation of `perm`.
    let mut c = vec![0usize; n];
    if replays(init, final_mem, entries, &perm) {
        return Some(perm);
    }
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            if replays(init, final_mem, entries, &perm) {
                return Some(perm);
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(thread: u8, ops: Vec<HOp>) -> Committed {
        Committed {
            thread,
            path: CommitPath::Fast,
            ops,
        }
    }

    #[test]
    fn empty_history_is_serializable() {
        assert!(find_serial_witness(&[0, 0], &[0, 0], &[]).is_some());
        assert!(
            find_serial_witness(&[0], &[1], &[]).is_none(),
            "memory changed with no committed section"
        );
    }

    #[test]
    fn known_good_write_then_read() {
        // T0 writes x=1,y=1; T1 reads x=1,y=1. Serial order T0;T1.
        let a = e(0, vec![HOp::Write(0, 1), HOp::Write(1, 1)]);
        let b = e(1, vec![HOp::Read(0, 1), HOp::Read(1, 1)]);
        let w = find_serial_witness(&[0, 0], &[1, 1], &[&a, &b]).expect("serializable");
        assert_eq!(w, vec![0, 1]);
    }

    #[test]
    fn known_good_needs_reordering() {
        // Entry order is commit order; the witness must reorder: T1 read
        // zeros, so it serializes *before* T0 despite committing later in
        // the entries slice.
        let a = e(0, vec![HOp::Write(0, 1)]);
        let b = e(1, vec![HOp::Read(0, 0)]);
        let w = find_serial_witness(&[0], &[1], &[&a, &b]).expect("serializable");
        assert_eq!(w, vec![1, 0]);
    }

    #[test]
    fn known_bad_torn_read_pair() {
        // The canonical zombie observation: invariant x == y, holder writes
        // x=1 then y=1, zombie reads x=1, y=0. No serial order explains it.
        let a = e(0, vec![HOp::Write(0, 1), HOp::Write(1, 1)]);
        let b = e(1, vec![HOp::Read(0, 1), HOp::Read(1, 0)]);
        assert!(find_serial_witness(&[0, 0], &[1, 1], &[&a, &b]).is_none());
    }

    #[test]
    fn known_bad_lost_update() {
        // Two increments that both read 0 and both wrote 1: final memory 1
        // cannot be explained by any serial order of two increments.
        let a = e(0, vec![HOp::Read(0, 0), HOp::Write(0, 1)]);
        let b = e(1, vec![HOp::Read(0, 0), HOp::Write(0, 1)]);
        assert!(find_serial_witness(&[0], &[1], &[&a, &b]).is_none());
    }

    #[test]
    fn one_threads_sections_keep_their_order() {
        // T0 writes x=1, then reads x=0: only running T0's sections out of
        // order could explain it.
        let a = e(0, vec![HOp::Write(0, 1)]);
        let b = e(0, vec![HOp::Read(0, 0)]);
        assert!(find_serial_witness(&[0], &[1], &[&a, &b]).is_none());
        let b = e(1, vec![HOp::Read(0, 0)]);
        assert_eq!(
            find_serial_witness(&[0], &[1], &[&a, &b]),
            Some(vec![1, 0]),
            "another thread's section may go first"
        );
    }

    #[test]
    fn known_bad_wrong_final_memory() {
        let a = e(0, vec![HOp::Write(0, 1)]);
        assert!(find_serial_witness(&[0], &[2], &[&a]).is_none());
    }

    #[test]
    fn three_entry_witness_found() {
        // T0: x=1. T1: reads x=1, writes y=2. T2: reads y=2.
        let a = e(0, vec![HOp::Write(0, 1)]);
        let b = e(1, vec![HOp::Read(0, 1), HOp::Write(1, 2)]);
        let c = e(2, vec![HOp::Read(1, 2)]);
        // Hand the oracle a scrambled entry order.
        let w = find_serial_witness(&[0, 0], &[1, 2], &[&c, &a, &b]).expect("serializable");
        // Witness indexes into the entries slice: a(1) ; b(2) ; c(0).
        assert_eq!(w, vec![1, 2, 0]);
    }
}
