//! Bounded stage memo shared by the staged kernels (HEVC, FFT).
//!
//! A kernel's `noise_power` is a pipeline whose stages each read a known
//! part of the word-length vector. The min+1 frontier moves one variable
//! at a time, so neighbouring calls share most of those parts; a
//! [`StageMemo`] keeps a stage's output under the exact sub-vector it
//! read and hands it back instead of recomputing it. A hit returns the
//! very values the stage would compute, so memoized results are bit-exact.
//!
//! [`MemoCell`] puts a kernel's memo behind a per-instance `Mutex`, so
//! `noise_power(&self)` keeps its signature. Every worker, session and
//! run builds its own kernel instance, so the lock is uncontended. The
//! memo is allocated on first use, a clone starts empty, and a lock
//! poisoned by a panic mid-update is cleared rather than trusted.

use std::fmt;
use std::sync::Mutex;

/// A least-recently-used map from an exact stage key to that stage's
/// output, holding at most `capacity` entries.
///
/// Lookups scan linearly: capacities are tiny (1–16) and keys are short
/// word-length arrays, so a scan beats hashing.
#[derive(Debug)]
pub(crate) struct StageMemo<K, V> {
    capacity: usize,
    /// Least recently used first.
    entries: Vec<(K, V)>,
}

impl<K: PartialEq, V> StageMemo<K, V> {
    /// An empty memo of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub(crate) fn new(capacity: usize) -> StageMemo<K, V> {
        assert!(capacity > 0, "a stage memo needs at least one entry");
        StageMemo {
            capacity,
            entries: Vec::new(),
        }
    }

    /// The output stored under `key`, marked most recently used.
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        self.entries[i..].rotate_left(1);
        self.entries.last().map(|(_, v)| v)
    }

    /// The output stored under `key`, computing and storing `compute()` on a
    /// miss (evicting the least recently used entry when full).
    pub(crate) fn get_or_insert_with(&mut self, key: K, compute: impl FnOnce() -> V) -> &V {
        if self.get(&key).is_none() {
            let value = compute();
            if self.entries.len() == self.capacity {
                self.entries.remove(0);
            }
            self.entries.push((key, value));
        }
        &self
            .entries
            .last()
            .expect("the entry was just found or stored")
            .1
    }

    /// Number of stored entries (never above the capacity).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// A kernel instance's memo slot: a `Mutex` around a lazily built `M`.
pub(crate) struct MemoCell<M> {
    slot: Mutex<Option<M>>,
}

impl<M: Default> MemoCell<M> {
    /// An empty, unallocated slot.
    pub(crate) fn new() -> MemoCell<M> {
        MemoCell {
            slot: Mutex::new(None),
        }
    }

    /// Runs `f` on the memo, building it on first use.
    ///
    /// A poisoned lock means a panic interrupted an update, which may have
    /// left a stage half written: the memo is dropped and rebuilt empty,
    /// never reused.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut M) -> R) -> R {
        let mut guard = match self.slot.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                *guard = None;
                self.slot.clear_poison();
                guard
            }
        };
        f(guard.get_or_insert_with(M::default))
    }
}

impl<M: Default> Clone for MemoCell<M> {
    /// A clone starts with an empty memo: memoized stages are a cache of
    /// the source instance's calls, not part of its value.
    fn clone(&self) -> MemoCell<M> {
        MemoCell::new()
    }
}

impl<M> fmt::Debug for MemoCell<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoCell").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_the_least_recently_used_entry() {
        let mut memo = StageMemo::new(3);
        for k in 0..3 {
            memo.get_or_insert_with(k, || k * 10);
        }
        // Touch 0, so 1 is now the least recently used.
        assert_eq!(memo.get(&0), Some(&0));
        memo.get_or_insert_with(3, || 30);
        assert_eq!(memo.len(), 3);
        assert_eq!(memo.get(&1), None);
        for k in [0, 2, 3] {
            assert_eq!(memo.get(&k), Some(&(k * 10)), "key {k}");
        }
        // Order is now 0, 2, 3 (3 most recent): 0 goes next.
        memo.get_or_insert_with(4, || 40);
        assert_eq!(memo.get(&0), None);
    }

    #[test]
    fn never_holds_more_than_its_capacity() {
        for capacity in [1, 2, 16] {
            let mut memo = StageMemo::new(capacity);
            for k in 0..50u32 {
                memo.get_or_insert_with(k % 23, || k);
                assert!(memo.len() <= capacity);
            }
            assert_eq!(memo.len(), capacity);
        }
    }

    #[test]
    fn a_hit_does_not_recompute() {
        let mut memo = StageMemo::new(2);
        assert_eq!(*memo.get_or_insert_with(7, || 1), 1);
        assert_eq!(*memo.get_or_insert_with(7, || panic!("hit recomputed")), 1);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_is_rejected() {
        let _ = StageMemo::<u8, u8>::new(0);
    }

    #[derive(Default)]
    struct Counter(Vec<u32>);

    #[test]
    fn memo_is_built_lazily_and_clone_starts_empty() {
        let cell: MemoCell<Counter> = MemoCell::new();
        assert!(cell.slot.lock().unwrap().is_none(), "allocated eagerly");
        cell.with(|c| c.0.push(1));
        assert!(cell.slot.lock().unwrap().is_some());
        let copy = cell.clone();
        assert!(copy.slot.lock().unwrap().is_none(), "clone shares state");
        copy.with(|c| assert!(c.0.is_empty()));
        cell.with(|c| assert_eq!(c.0, [1]));
    }

    #[test]
    fn a_poisoned_memo_is_cleared_not_trusted() {
        let cell: MemoCell<Counter> = MemoCell::new();
        cell.with(|c| c.0.push(1));
        std::thread::scope(|s| {
            let result = s
                .spawn(|| {
                    cell.with(|c| {
                        c.0.push(2);
                        panic!("stage update interrupted");
                    })
                })
                .join();
            assert!(result.is_err());
        });
        assert!(cell.slot.is_poisoned());
        cell.with(|c| assert!(c.0.is_empty(), "kept {:?}", c.0));
        assert!(!cell.slot.is_poisoned());
        cell.with(|c| c.0.push(3));
        cell.with(|c| assert_eq!(c.0, [3]));
    }
}
