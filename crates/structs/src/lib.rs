//! # rtle-structs: more transactional data structures
//!
//! Companions to the AVL tree of `rtle-avltree`, covering the other
//! critical-section shapes the paper's discussion leans on:
//!
//! * [`TxHashSet`] — an open-addressing hash set: the workspace's one
//!   open-addressing table, [`rtle_htm::table`], with no payload. §3
//!   motivates RW-TLE with exactly this shape: "a look up operation in a
//!   hash table, or an
//!   insert operation … which does not modify the data structure when the
//!   given key is already present". Operations touch O(1) lines, so they
//!   almost never abort for capacity and the read-only prefix is short.
//! * [`TxListSet`] — a sorted singly-linked list set. The classic
//!   transactional-memory stress shape: `contains(k)` reads a *chain* of
//!   O(n) lines, so long lists exceed best-effort HTM read capacity and
//!   exercise the capacity-abort → lock-fallback path that pure tree/hash
//!   workloads rarely hit.
//!
//! Both are arena-backed (slot per key, allocation-free operations) and
//! generic over [`rtle_htm::TxAccess`], so the same code runs under every
//! synchronization method in the repository.

mod hashset;
mod list;

pub use hashset::TxHashSet;
pub use list::TxListSet;
