//! Deterministic memory-model counters (observability layer, DESIGN.md §10).
//!
//! Every counter here is a pure function of the *operations performed on this
//! thread*: `alloc`/`free`/`load`/`store` calls and the representation
//! transitions of [`crate::Mem`] blocks (concrete→abstract *demotions* when a
//! non-byte memval lands in a byte block, abstract→concrete *promotions* when
//! the last non-byte entry is overwritten). No clocks, no addresses, no
//! allocator state — so for a fixed workload executed on one thread the
//! counter delta is byte-reproducible, and summing per-item deltas in input
//! order makes campaign totals independent of `--jobs` (the parallel pool
//! runs each item entirely on one worker thread).
//!
//! Counters are thread-local [`Cell`]s: bumping them is a handful of
//! register-width adds, cheap enough to keep unconditionally on. The
//! `force_abstract` test hook deliberately does **not** count — it is not a
//! semantic transition.

use std::cell::Cell;

/// Snapshot of the per-thread memory counters (cumulative since thread
/// start). Take two snapshots and [`MemCounters::since`] for a delta.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Calls to [`crate::Mem::alloc`].
    pub allocs: u64,
    /// Total bytes requested across those allocations.
    pub alloc_bytes: u64,
    /// Calls to [`crate::Mem::free`] (whole-block or partial).
    pub frees: u64,
    /// Calls to [`crate::Mem::load`] that passed the permission checks.
    pub loads: u64,
    /// Calls to [`crate::Mem::store`] that passed the permission checks.
    pub stores: u64,
    /// Concrete→abstract representation transitions (a non-byte memval
    /// written into a byte-vector block).
    pub demotes: u64,
    /// Abstract→concrete representation transitions (last non-byte entry
    /// overwritten; the block re-enters the raw-byte fast path).
    pub promotes: u64,
}

impl MemCounters {
    /// Field-wise saturating difference `self - earlier`; use with two
    /// [`counters`] snapshots to attribute work to a region of code.
    #[must_use]
    pub fn since(&self, earlier: &MemCounters) -> MemCounters {
        MemCounters {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            alloc_bytes: self.alloc_bytes.saturating_sub(earlier.alloc_bytes),
            frees: self.frees.saturating_sub(earlier.frees),
            loads: self.loads.saturating_sub(earlier.loads),
            stores: self.stores.saturating_sub(earlier.stores),
            demotes: self.demotes.saturating_sub(earlier.demotes),
            promotes: self.promotes.saturating_sub(earlier.promotes),
        }
    }
}

thread_local! {
    static COUNTERS: Cell<MemCounters> = const { Cell::new(MemCounters {
        allocs: 0,
        alloc_bytes: 0,
        frees: 0,
        loads: 0,
        stores: 0,
        demotes: 0,
        promotes: 0,
    }) };
}

/// Current cumulative counters for *this thread*.
#[must_use]
pub fn counters() -> MemCounters {
    COUNTERS.with(Cell::get)
}

/// Add `delta` (counted on another thread) to this thread's counters: how
/// a worker pool folds each worker's effort into its caller.
pub fn absorb(delta: &MemCounters) {
    bump(|c| {
        c.allocs += delta.allocs;
        c.alloc_bytes += delta.alloc_bytes;
        c.frees += delta.frees;
        c.loads += delta.loads;
        c.stores += delta.stores;
        c.demotes += delta.demotes;
        c.promotes += delta.promotes;
    });
}

/// Bump helper shared by the hooks in `mem.rs`.
pub(crate) fn bump(f: impl FnOnce(&mut MemCounters)) {
    COUNTERS.with(|c| {
        let mut v = c.get();
        f(&mut v);
        c.set(v);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Chunk, Mem, Val};

    #[test]
    fn alloc_load_store_free_tick_once_each() {
        let before = counters();
        let mut m = Mem::new();
        let b = m.alloc(0, 16);
        m.store(Chunk::I32, b, 0, Val::Int(7)).expect("store");
        assert_eq!(m.load(Chunk::I32, b, 0).expect("load"), Val::Int(7));
        m.free(b, 0, 16).expect("free");
        let d = counters().since(&before);
        assert_eq!(d.allocs, 1);
        assert_eq!(d.alloc_bytes, 16);
        assert_eq!(d.stores, 1);
        assert_eq!(d.loads, 1);
        assert_eq!(d.frees, 1);
    }

    #[test]
    fn promote_and_demote_transitions_count() {
        let before = counters();
        let mut m = Mem::new();
        let b = m.alloc(0, 8);
        // Fresh block is Abstract (all Undef). Filling it with scalars
        // promotes it to Concrete exactly once.
        m.store(Chunk::I64, b, 0, Val::Long(1)).expect("store");
        let mid = counters().since(&before);
        assert_eq!(mid.promotes, 1);
        assert_eq!(mid.demotes, 0);
        // Storing a pointer fragment demotes the concrete block.
        m.store(Chunk::Ptr, b, 0, Val::Ptr(b, 0))
            .expect("store ptr");
        let d = counters().since(&before);
        assert_eq!(d.demotes, 1);
    }
}
