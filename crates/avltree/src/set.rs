//! The transactional AVL set.

use rtle_htm::config::LINE_SHIFT;
use rtle_htm::{PlainAccess, TxAccess, TxCell};

use crate::node::{Node, NIL};

/// A set of keys in `[0, key_range)` backed by an internal AVL tree.
///
/// See the crate docs for the slot-per-key arena design. All operations
/// are generic over [`TxAccess`], so the same code runs uninstrumented on
/// an HTM fast path, instrumented on a refined-TLE slow path, under a
/// lock, or inside an STM transaction.
#[derive(Debug)]
pub struct AvlSet {
    /// `nodes[0]` is the unused null sentinel; key `k` owns `nodes[k + 1]`.
    nodes: Box<[Node]>,
    root: TxCell<u32>,
    key_range: u64,
}

impl AvlSet {
    /// Creates an empty set accepting keys in `[0, key_range)`.
    pub fn with_key_range(key_range: u64) -> Self {
        assert!(key_range >= 1, "empty key range");
        assert!(
            key_range < u32::MAX as u64 - 1,
            "key range too large for u32 links"
        );
        AvlSet {
            nodes: (0..=key_range).map(|_| Node::new()).collect(),
            root: TxCell::new(NIL),
            key_range,
        }
    }

    /// The accepted key range.
    pub fn key_range(&self) -> u64 {
        self.key_range
    }

    #[inline]
    fn idx(&self, key: u64) -> u32 {
        assert!(
            key < self.key_range,
            "key {key} out of range {}",
            self.key_range
        );
        (key + 1) as u32
    }

    #[inline]
    fn node(&self, idx: u32) -> &Node {
        debug_assert_ne!(idx, NIL);
        &self.nodes[idx as usize]
    }

    #[inline]
    fn height<A: TxAccess + ?Sized>(&self, a: &A, idx: u32) -> u32 {
        if idx == NIL {
            0
        } else {
            a.load(&self.node(idx).height)
        }
    }

    /// Membership test. Reads only link words along the search path (keys
    /// are implied by slot indices).
    pub fn contains<A: TxAccess + ?Sized>(&self, a: &A, key: u64) -> bool {
        let target = self.idx(key);
        let mut cur = a.load(&self.root);
        while cur != NIL {
            if cur == target {
                return true;
            }
            let n = self.node(cur);
            cur = if target < cur {
                a.load(&n.left)
            } else {
                a.load(&n.right)
            };
        }
        false
    }

    /// Smallest key in the set, transactionally: walks the left spine,
    /// reading only link words. A composable consumer can pair this with
    /// `remove` and a retry-on-`None` to block for the next item in key
    /// order (a transactional priority queue).
    pub fn min<A: TxAccess + ?Sized>(&self, a: &A) -> Option<u64> {
        let mut cur = a.load(&self.root);
        if cur == NIL {
            return None;
        }
        loop {
            let l = a.load(&self.node(cur).left);
            if l == NIL {
                return Some(cur as u64 - 1);
            }
            cur = l;
        }
    }

    /// Largest key in the set, transactionally (right-spine walk).
    pub fn max<A: TxAccess + ?Sized>(&self, a: &A) -> Option<u64> {
        let mut cur = a.load(&self.root);
        if cur == NIL {
            return None;
        }
        loop {
            let r = a.load(&self.node(cur).right);
            if r == NIL {
                return Some(cur as u64 - 1);
            }
            cur = r;
        }
    }

    /// Inserts `key`; returns `false` if it was already present (in which
    /// case nothing is written — the read-only prefix that makes even
    /// "update" operations often commit on RW-TLE's slow path, §3).
    pub fn insert<A: TxAccess + ?Sized>(&self, a: &A, key: u64) -> bool {
        let target = self.idx(key);
        let root = a.load(&self.root);
        let (new_root, inserted) = self.insert_rec(a, root, target);
        if new_root != root {
            a.store(&self.root, new_root);
        }
        inserted
    }

    fn insert_rec<A: TxAccess + ?Sized>(&self, a: &A, cur: u32, target: u32) -> (u32, bool) {
        if cur == NIL {
            let n = self.node(target);
            a.store(&n.left, NIL);
            a.store(&n.right, NIL);
            a.store(&n.height, 1);
            return (target, true);
        }
        if target == cur {
            return (cur, false);
        }
        let n = self.node(cur);
        if target < cur {
            let l = a.load(&n.left);
            let (nl, ins) = self.insert_rec(a, l, target);
            if !ins {
                return (cur, false);
            }
            if nl != l {
                a.store(&n.left, nl);
            }
        } else {
            let r = a.load(&n.right);
            let (nr, ins) = self.insert_rec(a, r, target);
            if !ins {
                return (cur, false);
            }
            if nr != r {
                a.store(&n.right, nr);
            }
        }
        (self.rebalance(a, cur), true)
    }

    /// Removes `key`; returns `false` if it was absent.
    pub fn remove<A: TxAccess + ?Sized>(&self, a: &A, key: u64) -> bool {
        let target = self.idx(key);
        let root = a.load(&self.root);
        let (new_root, removed) = self.remove_rec(a, root, target);
        if removed && new_root != root {
            a.store(&self.root, new_root);
        }
        removed
    }

    fn remove_rec<A: TxAccess + ?Sized>(&self, a: &A, cur: u32, target: u32) -> (u32, bool) {
        if cur == NIL {
            return (NIL, false);
        }
        let n = self.node(cur);
        if target < cur {
            let l = a.load(&n.left);
            let (nl, rem) = self.remove_rec(a, l, target);
            if !rem {
                return (cur, false);
            }
            if nl != l {
                a.store(&n.left, nl);
            }
            return (self.rebalance(a, cur), true);
        }
        if target > cur {
            let r = a.load(&n.right);
            let (nr, rem) = self.remove_rec(a, r, target);
            if !rem {
                return (cur, false);
            }
            if nr != r {
                a.store(&n.right, nr);
            }
            return (self.rebalance(a, cur), true);
        }

        // cur == target: unlink this node.
        let l = a.load(&n.left);
        let r = a.load(&n.right);
        a.store(&n.height, 0); // mark unlinked
        if l == NIL {
            return (r, true);
        }
        if r == NIL {
            return (l, true);
        }
        // Two children: splice the in-order successor (min of the right
        // subtree) into this position. The key is bound to the slot, so
        // the successor node itself is relinked (no key copying).
        let (nr, succ) = self.unlink_min(a, r);
        let s = self.node(succ);
        a.store(&s.left, l);
        a.store(&s.right, nr);
        (self.rebalance(a, succ), true)
    }

    /// Unlinks the minimum node of the subtree rooted at `cur`; returns the
    /// (rebalanced) remaining subtree and the unlinked node's index.
    fn unlink_min<A: TxAccess + ?Sized>(&self, a: &A, cur: u32) -> (u32, u32) {
        let n = self.node(cur);
        let l = a.load(&n.left);
        if l == NIL {
            return (a.load(&n.right), cur);
        }
        let (nl, min) = self.unlink_min(a, l);
        if nl != l {
            a.store(&n.left, nl);
        }
        (self.rebalance(a, cur), min)
    }

    /// Recomputes `cur`'s height and applies at most two rotations,
    /// returning the subtree's (possibly new) root.
    fn rebalance<A: TxAccess + ?Sized>(&self, a: &A, cur: u32) -> u32 {
        let n = self.node(cur);
        let lh = self.height(a, a.load(&n.left));
        let rh = self.height(a, a.load(&n.right));

        if lh > rh + 1 {
            // Left-heavy. For the zig-zag case rotate the child first.
            let l = a.load(&n.left);
            let ln = self.node(l);
            if self.height(a, a.load(&ln.left)) < self.height(a, a.load(&ln.right)) {
                a.store(&n.left, self.rotate_left(a, l));
            }
            return self.rotate_right(a, cur);
        }
        if rh > lh + 1 {
            let r = a.load(&n.right);
            let rn = self.node(r);
            if self.height(a, a.load(&rn.right)) < self.height(a, a.load(&rn.left)) {
                a.store(&n.right, self.rotate_right(a, r));
            }
            return self.rotate_left(a, cur);
        }

        self.set_height(a, cur, lh.max(rh) + 1);
        cur
    }

    fn rotate_right<A: TxAccess + ?Sized>(&self, a: &A, cur: u32) -> u32 {
        let n = self.node(cur);
        let l = a.load(&n.left);
        debug_assert_ne!(l, NIL);
        let ln = self.node(l);
        let lr = a.load(&ln.right);
        a.store(&n.left, lr);
        a.store(&ln.right, cur);
        self.refresh_height(a, cur);
        self.refresh_height(a, l);
        l
    }

    fn rotate_left<A: TxAccess + ?Sized>(&self, a: &A, cur: u32) -> u32 {
        let n = self.node(cur);
        let r = a.load(&n.right);
        debug_assert_ne!(r, NIL);
        let rn = self.node(r);
        let rl = a.load(&rn.left);
        a.store(&n.right, rl);
        a.store(&rn.left, cur);
        self.refresh_height(a, cur);
        self.refresh_height(a, r);
        r
    }

    fn refresh_height<A: TxAccess + ?Sized>(&self, a: &A, cur: u32) {
        let n = self.node(cur);
        let h = self
            .height(a, a.load(&n.left))
            .max(self.height(a, a.load(&n.right)))
            + 1;
        self.set_height(a, cur, h);
    }

    /// Writes the height only when it changed, sparing a (potentially
    /// fenced / orec-stamped) store — the same "avoid writing the same
    /// value" optimization the paper applies to orecs (§4.2).
    fn set_height<A: TxAccess + ?Sized>(&self, a: &A, cur: u32, h: u32) {
        let n = self.node(cur);
        if a.load(&n.height) != h {
            a.store(&n.height, h);
        }
    }

    // ------------------------------------------------------------------
    // Quiescent (non-transactional) inspection helpers.
    // ------------------------------------------------------------------

    /// Number of keys currently in the set. O(n); quiescent use only.
    pub fn len_plain(&self) -> usize {
        let mut count = 0;
        self.walk_plain(self.root.read_plain(), &mut |_| count += 1);
        count
    }

    /// All keys in ascending order. Quiescent use only.
    pub fn keys_plain(&self) -> Vec<u64> {
        let mut keys = Vec::new();
        self.walk_plain(self.root.read_plain(), &mut |idx| keys.push(idx as u64 - 1));
        keys
    }

    fn walk_plain(&self, cur: u32, f: &mut impl FnMut(u32)) {
        if cur == NIL {
            return;
        }
        let a = PlainAccess;
        let n = self.node(cur);
        self.walk_plain(a.load(&n.left), f);
        f(cur);
        self.walk_plain(a.load(&n.right), f);
    }

    /// Base cache-line index of the node arena: the node for key `k` lives
    /// entirely on line `node_line_base() + k + 1` (nodes are 64-byte
    /// sized and aligned). Used by the simulator's trace generator to name
    /// node lines without touching them.
    pub fn node_line_base(&self) -> u64 {
        (self.nodes.as_ptr() as usize >> LINE_SHIFT) as u64
    }

    /// Cache line of the root link cell (outside the node arena). Used by
    /// the simulator to translate recorded addresses into stable,
    /// address-independent line ids.
    pub fn root_cell_line(&self) -> u64 {
        (self.root.addr() >> LINE_SHIFT) as u64
    }

    /// Stored height of the root (0 when empty). Quiescent use only.
    pub fn root_height_plain(&self) -> u32 {
        let r = self.root.read_plain();
        if r == NIL {
            0
        } else {
            self.node(r).height.read_plain()
        }
    }

    /// Verifies the BST ordering and AVL height/balance invariants over the
    /// whole tree. Quiescent use only.
    pub fn check_invariants_plain(&self) -> Result<(), String> {
        self.check_rec(self.root.read_plain(), NIL, u32::MAX)
            .map(|_| ())
    }

    /// Returns the verified height of the subtree.
    fn check_rec(&self, cur: u32, lo: u32, hi: u32) -> Result<u32, String> {
        if cur == NIL {
            return Ok(0);
        }
        if !(lo < cur && cur < hi) {
            return Err(format!("BST violation at node {cur}: not in ({lo}, {hi})"));
        }
        let a = PlainAccess;
        let n = self.node(cur);
        let lh = self.check_rec(a.load(&n.left), lo, cur)?;
        let rh = self.check_rec(a.load(&n.right), cur, hi)?;
        let h = a.load(&n.height);
        if h != lh.max(rh) + 1 {
            return Err(format!(
                "height violation at {cur}: stored {h}, actual {}",
                lh.max(rh) + 1
            ));
        }
        if lh.abs_diff(rh) > 1 {
            return Err(format!("balance violation at {cur}: |{lh} - {rh}| > 1"));
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xorshift64;
    use std::collections::BTreeSet;

    #[test]
    fn basic_insert_contains_remove() {
        let s = AvlSet::with_key_range(100);
        let a = PlainAccess;
        assert!(!s.contains(&a, 5));
        assert!(s.insert(&a, 5));
        assert!(s.contains(&a, 5));
        assert!(!s.insert(&a, 5));
        assert!(s.remove(&a, 5));
        assert!(!s.contains(&a, 5));
        assert!(!s.remove(&a, 5));
        assert_eq!(s.len_plain(), 0);
        s.check_invariants_plain().unwrap();
    }

    #[test]
    fn ascending_insertion_stays_balanced() {
        let s = AvlSet::with_key_range(1024);
        let a = PlainAccess;
        for k in 0..1024 {
            assert!(s.insert(&a, k));
        }
        s.check_invariants_plain().unwrap();
        assert_eq!(s.len_plain(), 1024);
        // A balanced tree of 1024 nodes has height ≤ 1.44·log2(1025) ≈ 14.
        let h = s.nodes[s.root.read_plain() as usize].height.read_plain();
        assert!(h <= 14, "height {h} too large for AVL");
        assert_eq!(s.keys_plain(), (0..1024).collect::<Vec<_>>());
    }

    #[test]
    fn descending_insertion_stays_balanced() {
        let s = AvlSet::with_key_range(512);
        let a = PlainAccess;
        for k in (0..512).rev() {
            assert!(s.insert(&a, k));
        }
        s.check_invariants_plain().unwrap();
        assert_eq!(s.keys_plain(), (0..512).collect::<Vec<_>>());
    }

    #[test]
    fn removal_rebalances() {
        let s = AvlSet::with_key_range(256);
        let a = PlainAccess;
        for k in 0..256 {
            s.insert(&a, k);
        }
        // Remove one half, skewing the tree repeatedly.
        for k in 0..128 {
            assert!(s.remove(&a, k), "remove {k}");
            s.check_invariants_plain()
                .unwrap_or_else(|e| panic!("after removing {k}: {e}"));
        }
        assert_eq!(s.keys_plain(), (128..256).collect::<Vec<_>>());
    }

    #[test]
    fn two_child_removal_uses_successor() {
        let s = AvlSet::with_key_range(16);
        let a = PlainAccess;
        for k in [8, 4, 12, 2, 6, 10, 14] {
            s.insert(&a, k);
        }
        // 8 has two children; its successor is 10.
        assert!(s.remove(&a, 8));
        s.check_invariants_plain().unwrap();
        assert_eq!(s.keys_plain(), vec![2, 4, 6, 10, 12, 14]);
    }

    #[test]
    fn differential_random_ops_vs_btreeset() {
        let s = AvlSet::with_key_range(512);
        let mut model = BTreeSet::new();
        let a = PlainAccess;
        let mut rng = 0xdead_beef_u64;
        for i in 0..20_000 {
            let r = xorshift64(&mut rng);
            let key = (r >> 8) % 512;
            match r % 3 {
                0 => assert_eq!(s.insert(&a, key), model.insert(key), "insert {key} @ {i}"),
                1 => assert_eq!(s.remove(&a, key), model.remove(&key), "remove {key} @ {i}"),
                _ => assert_eq!(
                    s.contains(&a, key),
                    model.contains(&key),
                    "find {key} @ {i}"
                ),
            }
            if i % 1000 == 0 {
                s.check_invariants_plain().unwrap();
            }
        }
        s.check_invariants_plain().unwrap();
        assert_eq!(s.keys_plain(), model.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_key_panics() {
        let s = AvlSet::with_key_range(8);
        s.contains(&PlainAccess, 8);
    }

    #[test]
    #[should_panic(expected = "empty key range")]
    fn zero_range_rejected() {
        let _ = AvlSet::with_key_range(0);
    }
}
