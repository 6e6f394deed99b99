//! The workspace's one table of deterministic counters (observability
//! layer, DESIGN.md §10).
//!
//! Every counter is a pure function of the work performed *on this
//! thread*. Three families share the table:
//!
//! * `lts.*`: the budgeted runner of `compcerto_core::lts` (runs, internal
//!   steps, external calls, events, one terminal outcome per run) and the
//!   `core::sim` differential checker, which drives its own loop and so has
//!   its own step counter;
//! * `mem.*`: the `alloc`/`free`/`load`/`store` calls of [`crate::Mem`]
//!   and the representation transitions of its blocks (concrete→abstract
//!   *demotions* when a non-byte memval lands in a byte block,
//!   abstract→concrete *promotions* when the last non-byte entry is
//!   overwritten). The `force_abstract` test hook does **not** count: it
//!   is not a semantic transition;
//! * `solver.*`: the worklist pops of the fixpoint engine
//!   (`rtl::analysis`) and of the interval value analysis
//!   (`compcerto_validate`), one counter per family of analyses.
//!
//! No clock, address or allocator state feeds a counter, so for a fixed
//! workload run on one thread a delta is byte-reproducible, and summing
//! per-item deltas in input order makes campaign totals independent of
//! `--jobs`: the parallel pool runs each item entirely on one worker
//! thread and folds each worker's delta into its caller with [`absorb`].
//!
//! The table lives in the bottom crate, so every crate above it bumps the
//! same one. It is one thread-local [`Cell`] of a plain struct, so a bump
//! is an add to a thread-local field: cheap enough to keep on
//! unconditionally. Each counter is declared once below, as one
//! `field: "key"` line, and the struct, [`KEYS`], [`CounterTable::since`],
//! [`CounterTable::entries`] and [`absorb`] all follow from that line.

use std::cell::Cell;

/// Declare [`CounterTable`] and [`KEYS`] from one `field: "key"` list.
macro_rules! counter_table {
    ($($(#[$doc:meta])* $field:ident: $key:literal,)*) => {
        /// A copy of this thread's counter table (cumulative since thread
        /// start), one field per counter. Take two copies and
        /// [`CounterTable::since`] for a delta.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct CounterTable {
            $($(#[$doc])* pub $field: u64,)*
        }

        /// Every counter's key, in declaration order: the key set of every
        /// counter report.
        pub const KEYS: &[&str] = &[$($key),*];

        impl CounterTable {
            const ZERO: CounterTable = CounterTable { $($field: 0),* };

            /// Field-wise saturating difference `self - earlier`: the work
            /// between two [`counters`] copies.
            #[must_use]
            pub fn since(&self, earlier: &CounterTable) -> CounterTable {
                CounterTable { $($field: self.$field.saturating_sub(earlier.$field)),* }
            }

            /// Each counter's key and value, in [`KEYS`] order.
            #[must_use]
            pub fn entries(&self) -> [(&'static str, u64); KEYS.len()] {
                [$(($key, self.$field)),*]
            }

            fn add(&mut self, delta: &CounterTable) {
                $(self.$field += delta.$field;)*
            }
        }
    };
}

counter_table! {
    /// Budgeted runs started (`compcerto_core::lts::run_budgeted` entries).
    runs: "lts.runs",
    /// Internal steps taken across all runs (resumes included).
    steps: "lts.steps",
    /// Steps taken by the `core::sim` differential checker's own loop.
    sim_steps: "lts.sim_steps",
    /// Outgoing external calls handed to the environment.
    external_calls: "lts.external_calls",
    /// Observable events appended by `step_batch` across all runs.
    events: "lts.events",
    /// Runs ending in `RunOutcome::Complete`.
    completes: "lts.completes",
    /// Runs ending in `RunOutcome::Wrong`.
    wrongs: "lts.wrongs",
    /// Runs ending in `RunOutcome::EnvRefused`.
    env_refused: "lts.env_refused",
    /// Runs ending in `RunOutcome::OutOfFuel`.
    out_of_fuel: "lts.out_of_fuel",
    /// Runs ending in `RunOutcome::OutOfMemory`.
    out_of_memory: "lts.out_of_memory",
    /// Runs ending in `RunOutcome::DepthExceeded`.
    depth_exceeded: "lts.depth_exceeded",
    /// Runs ending in `RunOutcome::TimedOut`.
    timed_out: "lts.timed_out",
    /// Calls to [`crate::Mem::alloc`].
    allocs: "mem.allocs",
    /// Total bytes requested across those allocations.
    alloc_bytes: "mem.alloc_bytes",
    /// Calls to [`crate::Mem::free`] (whole-block or partial).
    frees: "mem.frees",
    /// Calls to [`crate::Mem::load`] that passed the permission checks.
    loads: "mem.loads",
    /// Calls to [`crate::Mem::store`] that passed the permission checks.
    stores: "mem.stores",
    /// Concrete→abstract representation transitions (a non-byte memval
    /// written into a byte-vector block).
    demotes: "mem.demotes",
    /// Abstract→concrete representation transitions (last non-byte entry
    /// overwritten; the block re-enters the raw-byte fast path).
    promotes: "mem.promotes",
    /// Pops of `rtl::liveness` and `rtl::value_analysis`: the Constprop,
    /// Deadcode and Allocation passes, and the allocation validator's
    /// liveness (so a validated compile ticks it more than a default one).
    rtl_iterations: "solver.rtl_iterations",
    /// Pops of `lint_rtl`'s maybe-uninit analysis, and nothing else.
    validate_iterations: "solver.validate_iterations",
    /// Pops of the interval value analysis
    /// (`compcerto_validate::value_facts`), run for Vprop, by
    /// `validate_constprop` and by `--analyze-json`.
    value_iters: "solver.value.iters",
    /// Pops of neededness (`compcerto_validate::neededness`), run for Ndce,
    /// by `validate_deadcode` and by `--analyze-json`.
    needed_iters: "solver.needed.iters",
}

thread_local! {
    static COUNTERS: Cell<CounterTable> = const { Cell::new(CounterTable::ZERO) };
}

/// This thread's counters now.
#[must_use]
pub fn counters() -> CounterTable {
    COUNTERS.with(Cell::get)
}

/// Add `delta` (counted on another thread) to this thread's counters: how
/// a worker pool folds each worker's effort into its caller.
pub fn absorb(delta: &CounterTable) {
    bump(|c| c.add(delta));
}

/// Move this thread's counters by `f`: the hook every counted operation
/// calls, in this crate and the crates above it.
#[inline]
pub fn bump(f: impl FnOnce(&mut CounterTable)) {
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

    /// The key set of every committed report, written out in full: a key
    /// renamed, dropped or added in the table changes every baseline.
    #[test]
    fn keys_are_the_committed_key_set() {
        let committed = [
            "lts.runs",
            "lts.steps",
            "lts.sim_steps",
            "lts.external_calls",
            "lts.events",
            "lts.completes",
            "lts.wrongs",
            "lts.env_refused",
            "lts.out_of_fuel",
            "lts.out_of_memory",
            "lts.depth_exceeded",
            "lts.timed_out",
            "mem.allocs",
            "mem.alloc_bytes",
            "mem.frees",
            "mem.loads",
            "mem.stores",
            "mem.demotes",
            "mem.promotes",
            "solver.rtl_iterations",
            "solver.validate_iterations",
            "solver.value.iters",
            "solver.needed.iters",
        ];
        assert_eq!(KEYS, committed);
        assert_eq!(CounterTable::ZERO.entries().map(|(k, _)| k), committed);
    }

    /// Every field survives `since` and `absorb`: a delta taken here and
    /// absorbed on a fresh thread reads back each field's own value, so a
    /// field missing from either function fails.
    #[test]
    fn since_and_absorb_carry_every_field() {
        let before = counters();
        bump(|c| {
            for (i, (key, _)) in CounterTable::ZERO.entries().into_iter().enumerate() {
                let n = 1000 + i as u64;
                match key {
                    "lts.runs" => c.runs += n,
                    "lts.steps" => c.steps += n,
                    "lts.sim_steps" => c.sim_steps += n,
                    "lts.external_calls" => c.external_calls += n,
                    "lts.events" => c.events += n,
                    "lts.completes" => c.completes += n,
                    "lts.wrongs" => c.wrongs += n,
                    "lts.env_refused" => c.env_refused += n,
                    "lts.out_of_fuel" => c.out_of_fuel += n,
                    "lts.out_of_memory" => c.out_of_memory += n,
                    "lts.depth_exceeded" => c.depth_exceeded += n,
                    "lts.timed_out" => c.timed_out += n,
                    "mem.allocs" => c.allocs += n,
                    "mem.alloc_bytes" => c.alloc_bytes += n,
                    "mem.frees" => c.frees += n,
                    "mem.loads" => c.loads += n,
                    "mem.stores" => c.stores += n,
                    "mem.demotes" => c.demotes += n,
                    "mem.promotes" => c.promotes += n,
                    "solver.rtl_iterations" => c.rtl_iterations += n,
                    "solver.validate_iterations" => c.validate_iterations += n,
                    "solver.value.iters" => c.value_iters += n,
                    "solver.needed.iters" => c.needed_iters += n,
                    other => panic!("no field for key `{other}`"),
                }
            }
        });
        let delta = counters().since(&before);
        let absorbed = std::thread::spawn(move || {
            absorb(&delta);
            absorb(&delta);
            counters()
        })
        .join()
        .expect("absorbing thread");
        for (i, (key, v)) in absorbed.entries().into_iter().enumerate() {
            assert_eq!(v, 2 * (1000 + i as u64), "{key}");
        }
    }
}
