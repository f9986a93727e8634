//! Per-thread reusable columns for the batched kernels.
//!
//! Every `*_batch` kernel of the hot path needs a few transient `u64`
//! columns per call: hash values, gathered survivors, mix words. Taking
//! them from a per-thread pool instead of fresh `Vec`s removes the
//! allocator from the per-chunk cost, so a short chunk (one edge, at the
//! limit) pays for its own keys, not for a few hundred allocations.
//!
//! The columns are not state. Nothing reads what a previous call left in
//! them, so they stay out of the wire format, merges, clones and the
//! space ledger, and the same inputs produce the same sketch whichever
//! thread runs the call and whatever ran on it before. The pool is per
//! thread rather than per sketch, so every caller of a public batch
//! method (an estimator lane or an outside harness timing that same
//! method) pays the same cost. The pool holds about as many columns as
//! the deepest nest of batch calls uses at once. A column keeps its
//! buffer up to [`KEEP`] entries; a longer one (a chunk far above the
//! default 1024 edges) is freed when its call returns, so one large
//! chunk does not pin its columns for the thread's lifetime.

use std::cell::RefCell;

thread_local! {
    static POOL: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
}

/// The longest column buffer the pool keeps between calls: a default
/// 1024-edge chunk at 16 words per edge (the most mix words a
/// CountSketch has), 128 KiB.
pub const KEEP: usize = 1024 * 16;

/// Run `f` on `N` columns taken from this thread's pool, then return
/// them. A column arrives with whatever length and contents its last
/// user left: clear or overwrite before reading. Nested calls take
/// columns of their own, so a kernel may call another kernel from `f`.
pub fn with_columns<const N: usize, R>(f: impl FnOnce(&mut [Vec<u64>; N]) -> R) -> R {
    let mut cols: [Vec<u64>; N] =
        POOL.with_borrow_mut(|pool| std::array::from_fn(|_| pool.pop().unwrap_or_default()));
    let out = f(&mut cols);
    POOL.with_borrow_mut(|pool| pool.extend(cols.into_iter().filter(|c| c.capacity() <= KEEP)));
    out
}

/// Grow `col` to at least `len` entries (new entries zero) without
/// touching the ones it has: the destination of a branch-free gather,
/// which writes every slot before reading it.
#[inline]
pub fn at_least(col: &mut Vec<u64>, len: usize) -> &mut [u64] {
    if col.len() < len {
        col.resize(len, 0);
    }
    &mut col[..len]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_calls_get_distinct_columns_and_reuse_them() {
        let outer_ptr = with_columns(|[a, b]: &mut [Vec<u64>; 2]| {
            a.clear();
            a.extend([1, 2, 3]);
            b.clear();
            b.push(9);
            with_columns(|[c]: &mut [Vec<u64>; 1]| {
                c.clear();
                c.push(7);
                assert_ne!(c.as_ptr(), a.as_ptr());
                assert_ne!(c.as_ptr(), b.as_ptr());
            });
            assert_eq!((a.as_slice(), b.as_slice()), (&[1, 2, 3][..], &[9][..]));
            a.as_ptr()
        });
        // The pool hands the same allocations back to the next caller.
        let ptrs = with_columns(|cols: &mut [Vec<u64>; 3]| cols.each_ref().map(|c| c.as_ptr()));
        assert!(ptrs.contains(&outer_ptr));
    }

    #[test]
    fn columns_longer_than_keep_are_freed_on_return() {
        with_columns(|[a, b]: &mut [Vec<u64>; 2]| {
            at_least(a, KEEP + 1);
            at_least(b, KEEP);
        });
        let caps = with_columns(|cols: &mut [Vec<u64>; 2]| cols.each_ref().map(|c| c.capacity()));
        assert!(caps.iter().all(|&c| c <= KEEP), "{caps:?}");
        assert!(caps.contains(&KEEP), "{caps:?}");
    }

    #[test]
    fn at_least_grows_and_keeps_contents() {
        let mut v = vec![5u64, 6];
        assert_eq!(at_least(&mut v, 1), &[5]);
        assert_eq!(at_least(&mut v, 4), &[5, 6, 0, 0]);
        assert_eq!(v.len(), 4);
    }
}
