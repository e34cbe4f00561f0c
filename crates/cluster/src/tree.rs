//! Binomial broadcast/reduce tree over relative ranks.
//!
//! MPI implementations route small- and medium-message collectives over a
//! binomial tree: the root hands the payload to `log2(N)` children, each of
//! which relays it to its own subtree, so the root's serialized send time —
//! O(N) in a naive loop — drops to O(log N) while every relay happens in
//! parallel on ranks that already hold the data.
//!
//! The shape used here is the *contiguous-subtree* binomial tree over
//! relative ranks `0..m` (relative rank = `(rank - root) mod n`):
//!
//! * `parent(v)` clears `v`'s lowest set bit;
//! * `children(v)` are `v + 2^k` for every `2^k` below `v`'s lowest set bit
//!   (every power of two for the root), bounded by `m`;
//! * the subtree rooted at `v` covers exactly the contiguous relative ranks
//!   `[v, v + lowbit(v))`.
//!
//! The dispatcher routes the closure environment over this tree: [`edges`]
//! lists the sends in the order each sender's NIC serializes them, and
//! [`depth`]/[`fanout`] annotate each edge in the trace.

/// Depth of relative rank `v` (root = 0): its set-bit count.
pub fn depth(v: usize) -> u32 {
    v.count_ones()
}

/// Children of relative rank `v` in a tree of `m` participants, ascending.
///
/// For `v = 0` these are the powers of two below `m`; otherwise `v + 2^k`
/// for each `2^k` smaller than `v`'s lowest set bit. The subtree under child
/// `c` covers the contiguous range `[c, min(c + lowbit(c), m))`.
pub fn children(v: usize, m: usize) -> Vec<usize> {
    let lowbit = if v == 0 { usize::MAX } else { v & v.wrapping_neg() };
    let mut out = Vec::new();
    let mut k = 1usize;
    while k < lowbit {
        let c = v + k;
        if c >= m {
            break;
        }
        out.push(c);
        k <<= 1;
    }
    out
}

/// Number of children of relative rank `v` in a tree of `m` participants —
/// [`children`]`.len()` without materializing the list, so per-edge callers
/// (fan-out annotations on every broadcast edge) stay allocation-free.
pub fn fanout(v: usize, m: usize) -> usize {
    let lowbit = if v == 0 { usize::MAX } else { v & v.wrapping_neg() };
    let mut n = 0usize;
    let mut k = 1usize;
    while k < lowbit {
        if v + k >= m {
            break;
        }
        n += 1;
        k <<= 1;
    }
    n
}

/// Every (sender, child) edge of the tree over `m` participants, in the
/// order senders transmit them (ascending sender, descending child).
pub fn edges(m: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(m.saturating_sub(1));
    for v in 0..m {
        for &c in children(v, m).iter().rev() {
            out.push((v, c));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parent of relative rank `v > 0`: clear the lowest set bit (the
    /// oracle the children lists are checked against).
    fn parent(v: usize) -> usize {
        v & (v - 1)
    }

    #[test]
    fn parent_clears_lowest_bit() {
        assert_eq!(parent(1), 0);
        assert_eq!(parent(2), 0);
        assert_eq!(parent(3), 2);
        assert_eq!(parent(6), 4);
        assert_eq!(parent(7), 6);
        assert_eq!(parent(12), 8);
    }

    #[test]
    fn children_are_ascending_and_bounded() {
        assert_eq!(children(0, 8), vec![1, 2, 4]);
        assert_eq!(children(0, 6), vec![1, 2, 4]);
        assert_eq!(children(0, 2), vec![1]);
        assert_eq!(children(4, 8), vec![5, 6]);
        assert_eq!(children(6, 8), vec![7]);
        assert_eq!(children(1, 8), Vec::<usize>::new());
        assert_eq!(children(0, 1), Vec::<usize>::new());
    }

    #[test]
    fn every_nonroot_has_its_parent_listing_it() {
        for m in 1..40 {
            for v in 1..m {
                let p = parent(v);
                assert!(children(p, m).contains(&v), "m={m} v={v} parent={p}");
            }
        }
    }

    #[test]
    fn subtrees_are_contiguous_and_partition_the_ranks() {
        // Walking the tree depth-first, children ascending, visits 0..m in
        // order — the property rank-ordered gather/reduce rest on.
        fn visit(v: usize, m: usize, out: &mut Vec<usize>) {
            out.push(v);
            for c in children(v, m) {
                visit(c, m, out);
            }
        }
        for m in 1..70 {
            let mut seen = Vec::new();
            visit(0, m, &mut seen);
            assert_eq!(seen, (0..m).collect::<Vec<_>>(), "m={m}");
        }
    }

    #[test]
    fn depth_is_logarithmic() {
        assert_eq!(depth(0), 0);
        assert_eq!(depth(1), 1);
        assert_eq!(depth(6), 2);
        assert_eq!(depth(7), 3);
        // Max depth over m participants never exceeds ceil(log2(m)) and
        // reaches it exactly at powers of two (rank m-1 is all ones).
        for m in 2..100usize {
            let max_depth = (0..m).map(depth).max().unwrap();
            let ceil_log2 = usize::BITS - (m - 1).leading_zeros();
            assert!(max_depth <= ceil_log2, "m={m}");
            if m.is_power_of_two() {
                assert_eq!(max_depth, ceil_log2, "m={m}");
            }
        }
    }

    #[test]
    fn edges_cover_every_nonroot_once() {
        for m in 1..32 {
            let es = edges(m);
            assert_eq!(es.len(), m - 1, "m={m}");
            let mut dests: Vec<usize> = es.iter().map(|&(_, c)| c).collect();
            dests.sort_unstable();
            assert_eq!(dests, (1..m).collect::<Vec<_>>(), "m={m}");
        }
    }
}
