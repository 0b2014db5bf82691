//! # rtle-avltree: the paper's micro-benchmark data structure
//!
//! An internal, balanced (AVL) binary search tree implementing a set, in
//! the style of the OpenSolaris `avl` module the paper bases its benchmark
//! on (§6.2). All node fields live in [`rtle_htm::TxCell`]s and every
//! access goes through a generic [`rtle_htm::TxAccess`] barrier, so the
//! *same* tree code runs under every synchronization method in the
//! evaluation: plain lock, TLE, RW-TLE, FG-TLE(x), NOrec and RHNOrec.
//!
//! ## Memory layout
//!
//! The benchmark uses a bounded key range (the paper uses 8192 and 65536),
//! so the tree is arena-backed with **one slot per key**: the node for key
//! `k` permanently occupies arena slot `k + 1` (slot 0 is the null
//! sentinel). Insertion links the slot into the tree; removal unlinks it.
//! This makes the operations allocation-free — the transactional analogue
//! of the paper's "transaction-pure" malloc annotations — and each node is
//! cache-line aligned so the conflict footprint matches a pointer-based
//! tree, one node per line.
//!
//! ```
//! use rtle_avltree::AvlSet;
//! use rtle_htm::PlainAccess;
//!
//! let set = AvlSet::with_key_range(1024);
//! let a = PlainAccess;
//! assert!(set.insert(&a, 42));
//! assert!(!set.insert(&a, 42));
//! assert!(set.contains(&a, 42));
//! assert!(set.remove(&a, 42));
//! assert!(!set.contains(&a, 42));
//! ```

mod node;
mod set;

pub use set::AvlSet;

/// Cheap xorshift for seeding benchmark sets deterministically.
pub fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_moves() {
        let mut a = 42;
        let mut b = 42;
        assert_eq!(xorshift64(&mut a), xorshift64(&mut b));
        let first = a;
        assert_ne!(xorshift64(&mut a), first);
    }
}
