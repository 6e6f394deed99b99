//! A deterministic scoped-thread worker pool (the throughput layer's
//! execution engine).
//!
//! The CompCertO pipeline makes translation *units* independent once the
//! shared symbol table is built (paper §3.4, App. A.3): every per-unit pass
//! chain, every fault-injection probe and every validation compile is a pure
//! function of its inputs. That independence is what legitimizes fanning the
//! work out over threads **without touching the semantics** — and what makes
//! it easy to keep the output *byte-identical* to the serial run:
//!
//! * work items are distributed by an atomic index counter (no work list
//!   locking, no per-item channel traffic);
//! * each worker tags every result with the item's original index;
//! * the pool reassembles results **in index order** before returning.
//!
//! The only nondeterminism in a parallel run is *which worker* computed a
//! result, and that never escapes this module. `jobs = 1` (or a single-item
//! input) bypasses the pool entirely and runs the exact serial loop.
//!
//! The calling thread is worker 0: a pool of `k` workers spawns `k − 1`
//! scoped helpers and runs the same claim loop on the caller, so `k` counts
//! the caller and a pool never idles a core while it waits. Items are
//! claimed in index order, or, inside the crate, in a *claim order*: a
//! permutation of the indices that decides which items start first (the
//! driver claims every unit's first function before any unit's second, so
//! the units' prefixes start in parallel). A claim order changes only the
//! schedule; results and the re-raised panic still go by input index, and
//! the serial loop ignores it.
//!
//! The pool is a plain map: a fallible item returns its error as a value,
//! and the caller decides which failure wins (the driver's strict fold
//! returns the first in serial order, DESIGN.md §11.1).
//!
//! The deterministic counters (DESIGN.md §10) are thread-local, so each
//! helper snapshots them when it starts and hands its delta back with its
//! results, and the caller absorbs every delta at join; the caller's own
//! items tick its counters directly. A caller's [`ObsSnapshot`] therefore
//! counts the work it farmed out exactly as if it had run the items
//! itself, at every pool width.
//!
//! The other thread-local state follows the same rule: an item runs on
//! whichever worker claims it, and that may be the caller. A thread-local
//! fault arm (pass panic, allocator fault, sink fault, deadline jitter) set
//! on the caller before a pool can therefore fire inside one of the
//! caller's own pooled items, where before it could only fire in the
//! caller's code around the pool. Arm such faults inside the item (as
//! `resilience_campaign` does) or run the pool at `jobs = 1`.
//!
//! # Self-healing (resilience layer, DESIGN.md §11)
//!
//! The pool contains worker panics instead of letting them unwind out of
//! the dispatch loop. Every item runs under [`crate::resilience::contain`];
//! an item whose closure panics is retried **exactly once**, immediately,
//! on the same (surviving) worker. A transient panic — an injected
//! environment fault, a poisoned cache line of infrastructure state —
//! therefore heals invisibly: the output is byte-identical to the
//! panic-free run. An item that panics twice is treated as
//! deterministically poisoned; the pool finishes every other item, then
//! re-raises the panic of the *lowest-indexed* twice-panicking item
//! (exactly the one the serial loop would have died on), with its message
//! as a `String` payload. Containment also means a panic can never strand
//! the atomic dispatch index mid-batch: workers always run their loop to
//! completion, so every `join` returns and the pool cannot hang
//! (regression-tested below).
//!
//! Everything here is `std`-only (`std::thread::scope`); the workspace stays
//! offline and dependency-free.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::obs::ObsSnapshot;
use crate::resilience::contain;

// ---------------------------------------------------------------------------
// Pool occupancy stats (observability layer, DESIGN.md §10)
// ---------------------------------------------------------------------------

static POOL_POOLS: AtomicU64 = AtomicU64::new(0);
static POOL_ITEMS: AtomicU64 = AtomicU64::new(0);
static POOL_WORKERS_MAX: AtomicU64 = AtomicU64::new(0);
static POOL_BUSIEST: AtomicU64 = AtomicU64::new(0);

/// Cumulative process-wide pool statistics.
///
/// These are *scheduling* observations — `busiest_worker_items` depends on
/// which worker won the atomic-index race — so they are reported for
/// humans (the volatile `pool` section of `ccomp-o --metrics-json`,
/// `obs_campaign`'s stdout) and never enter a committed baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    /// Pooled map invocations ([`par_map`], claim-ordered ones included).
    pub pools: u64,
    /// Total items dispatched across all pools.
    pub items: u64,
    /// Largest worker count any pool resolved to (the calling thread,
    /// which works as worker 0, included).
    pub workers_max: u64,
    /// Most items any single worker, the caller included, processed in one
    /// pool (occupancy skew; equals the pool's item count in a serial run).
    pub busiest_worker_items: u64,
}

/// Read the cumulative process-wide [`PoolStats`].
#[must_use]
pub fn pool_stats() -> PoolStats {
    PoolStats {
        pools: POOL_POOLS.load(Ordering::Relaxed),
        items: POOL_ITEMS.load(Ordering::Relaxed),
        workers_max: POOL_WORKERS_MAX.load(Ordering::Relaxed),
        busiest_worker_items: POOL_BUSIEST.load(Ordering::Relaxed),
    }
}

fn note_pool(workers: usize, items: usize) {
    POOL_POOLS.fetch_add(1, Ordering::Relaxed);
    POOL_ITEMS.fetch_add(items as u64, Ordering::Relaxed);
    POOL_WORKERS_MAX.fetch_max(workers as u64, Ordering::Relaxed);
}

fn note_worker_items(n: usize) {
    POOL_BUSIEST.fetch_max(n as u64, Ordering::Relaxed);
}

/// Degree of parallelism for a pooled operation.
///
/// `Auto` resolves to [`available_parallelism`] at the call site; `N(1)`
/// preserves today's exact serial behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Jobs {
    /// Use every hardware thread the host reports.
    #[default]
    Auto,
    /// Use exactly this many workers, the calling thread included (`0`
    /// is treated as `Auto`).
    N(usize),
}

impl Jobs {
    /// Resolve to a concrete worker count (≥ 1).
    pub fn resolve(self) -> usize {
        match self {
            Jobs::Auto | Jobs::N(0) => available_parallelism(),
            Jobs::N(n) => n,
        }
    }

    /// Parse a `--jobs` command-line value (`0` or `auto` = [`Jobs::Auto`]).
    ///
    /// # Errors
    /// Reports a value that is neither `auto` nor a natural number.
    pub fn parse(s: &str) -> Result<Jobs, String> {
        if s == "auto" {
            return Ok(Jobs::Auto);
        }
        s.parse::<usize>()
            .map(|n| if n == 0 { Jobs::Auto } else { Jobs::N(n) })
            .map_err(|e| format!("--jobs: {e}"))
    }
}

/// The number of hardware threads available to this process (≥ 1).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run item `i` through the worker-panic injection point and `run`,
/// containing any panic and retrying **exactly once** on the same
/// (surviving) worker. `Err` carries the message of the second,
/// deterministic panic.
fn run_healed<R>(i: usize, run: impl Fn() -> R) -> Result<R, String> {
    contain(|| {
        crate::envfault::maybe_worker_panic(i);
        run()
    })
    // First panic: contained; the item is requeued once, immediately.
    // (The injection point is one-shot, so an injected fault cannot
    // re-fire here; a genuine deterministic panic will.)
    .or_else(|_first| contain(run))
}

/// Re-raise the lowest-indexed twice-panicking item — the panic the serial
/// loop would have surfaced — with its message as a `String` payload, after
/// printing it (the quiet panic hook suppressed it when it first fired).
fn reraise(i: usize, msg: String) -> ! {
    eprintln!("par: item {i} panicked twice (not healable): {msg}");
    std::panic::resume_unwind(Box::new(msg))
}

/// Map `f` over `items` on a pool of `jobs` workers, returning the results
/// **in input order** (byte-identical to the serial map; see the module
/// docs for the determinism argument).
///
/// `f` receives the item's index alongside the item, so callers can key
/// per-item context (seeds, labels) off the input position rather than off
/// scheduling order.
pub fn par_map<T, R, F>(jobs: Jobs, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_claimed(jobs, items, None, f)
}

/// [`par_map`] under a claim order: `workers − 1` scoped helpers plus the
/// calling thread run one claim loop, and the `k`-th claim runs item
/// `order[k]` (`order` is a permutation of the item indices), or item `k`
/// without an order. The order decides only which items start first;
/// results, and the panic that is re-raised, still follow input order, and
/// the serial loop ignores it.
pub(crate) fn par_map_claimed<T, R, F>(
    jobs: Jobs,
    items: &[T],
    order: Option<&[usize]>,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = jobs.resolve().min(items.len().max(1));
    note_pool(workers, items.len());
    if workers <= 1 || items.len() <= 1 {
        // Exact serial behavior, with the same single-retry healing as the
        // pooled path.
        note_worker_items(items.len());
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| run_healed(i, || f(i, t)).unwrap_or_else(|msg| reraise(i, msg)))
            .collect();
    }
    debug_assert!(order.is_none_or(|o| o.len() == items.len()));
    let next = AtomicUsize::new(0);
    // One worker's claim loop; the caller runs it too, as worker 0. A
    // twice-panicking item is recorded, never unwound: the loop always
    // completes, so no join can hang on a stranded index.
    let work = || {
        let mut done: Vec<(usize, Result<R, String>)> = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            if k >= items.len() {
                break;
            }
            let i = order.map_or(k, |o| o[k]);
            done.push((i, run_healed(i, || f(i, &items[i]))));
        }
        note_worker_items(done.len());
        done
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers)
            .map(|_| {
                scope.spawn(|| {
                    let counters = ObsSnapshot::take();
                    (work(), counters.since())
                })
            })
            .collect();
        // The caller's own items tick its counters directly.
        let mut done = work();
        for h in helpers {
            // Workers contain every item panic, so `join` cannot fail; a
            // poisoned join (unreachable) simply contributes no results.
            if let Ok((theirs, counters)) = h.join() {
                counters.absorb();
                done.extend(theirs);
            }
        }
        done
    });
    debug_assert_eq!(done.len(), items.len(), "every item ran");
    // Reassemble in input order: scheduling order never escapes, and the
    // first twice-panicking item in that order is re-raised.
    done.sort_by_key(|(i, _)| *i);
    done.into_iter()
        .map(|(i, r)| r.unwrap_or_else(|msg| reraise(i, msg)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for jobs in [Jobs::N(1), Jobs::N(2), Jobs::N(7), Jobs::Auto] {
            let out = par_map(jobs, &items, |i, x| {
                assert_eq!(i as u64, *x);
                x * 3 + 1
            });
            let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
            assert_eq!(out, serial, "jobs={jobs:?}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = vec![];
        assert!(par_map(Jobs::Auto, &none, |_, x| *x).is_empty());
        assert_eq!(par_map(Jobs::N(8), &[5u32], |_, x| x + 1), vec![6]);
    }

    /// A transient panic (fires exactly once, then the retry succeeds)
    /// must heal invisibly: the output is byte-identical to the panic-free
    /// run, across jobs 1/4/16.
    #[test]
    fn transient_panic_heals_with_identical_output() {
        use std::sync::atomic::AtomicBool;
        let items: Vec<u64> = (0..64).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 5 + 2).collect();
        for jobs in [Jobs::N(1), Jobs::N(4), Jobs::N(16)] {
            let fired = AtomicBool::new(false);
            let out = par_map(jobs, &items, |i, x| {
                if i == 13 && !fired.swap(true, Ordering::SeqCst) {
                    panic!("transient infrastructure fault");
                }
                x * 5 + 2
            });
            assert_eq!(out, serial, "jobs={jobs:?}");
            assert!(fired.load(Ordering::SeqCst));
        }
    }

    /// A deterministic (twice-panicking) item re-raises its panic after the
    /// rest of the batch completes — and the *lowest* poisoned index wins,
    /// whatever the schedule.
    #[test]
    fn deterministic_panic_propagates_lowest_index() {
        let items: Vec<u64> = (0..48).collect();
        for jobs in [Jobs::N(1), Jobs::N(4), Jobs::N(16)] {
            let r = crate::resilience::contain(|| {
                par_map(jobs, &items, |i, x| {
                    if i == 7 || i == 29 {
                        panic!("poisoned item {i}");
                    }
                    x + 1
                })
            });
            assert_eq!(r, Err("poisoned item 7".to_string()), "jobs={jobs:?}");
        }
    }

    /// Regression (ISSUE 6 satellite): a panicking worker must not strand
    /// the dispatch index or hang the remaining joins. Many items, several
    /// deterministic panics, a full worker complement — the call must
    /// return (with the lowest panic) rather than deadlock.
    #[test]
    fn panicking_workers_cannot_hang_the_pool() {
        let items: Vec<u32> = (0..256).collect();
        let r = crate::resilience::contain(|| {
            par_map(Jobs::N(16), &items, |i, x| {
                if i % 61 == 17 {
                    panic!("poisoned item {i}");
                }
                *x
            })
        });
        assert_eq!(r, Err("poisoned item 17".to_string()));
    }

    /// The envfault worker-panic injection is contained, the item requeued
    /// once, and the output identical to the unfaulted run.
    #[test]
    fn injected_worker_panic_is_healed() {
        let items: Vec<u64> = (0..32).collect();
        let expected: Vec<u64> = items.iter().map(|x| x ^ 0xAB).collect();
        for jobs in [Jobs::N(1), Jobs::N(4), Jobs::N(16)] {
            crate::envfault::arm_worker_panic(11);
            let out = par_map(jobs, &items, |_, x| x ^ 0xAB);
            assert_eq!(out, expected, "jobs={jobs:?}");
            assert!(
                !crate::envfault::worker_panic_pending(),
                "the armed fault must have fired (jobs={jobs:?})"
            );
        }
    }

    /// Run `f` over `n` items at `jobs`, holding every item until the
    /// calling thread has run one: a helper can hold only one item at a
    /// time, so with more items than helpers the caller always gets one.
    fn with_caller_item<R: Send>(
        jobs: Jobs,
        n: usize,
        f: impl Fn(usize) -> R + Sync,
    ) -> Vec<(std::thread::ThreadId, R)> {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let caller = std::thread::current().id();
        let caller_ran = AtomicBool::new(false);
        let items: Vec<usize> = (0..n).collect();
        par_map(jobs, &items, |i, _| {
            let me = std::thread::current().id();
            let r = f(i);
            if me == caller {
                caller_ran.store(true, Ordering::SeqCst);
            }
            let t0 = Instant::now();
            while !caller_ran.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_micros(50));
            }
            (me, r)
        })
    }

    /// The calling thread is worker 0: at every width it runs items, and
    /// `Jobs::N(k)` never puts more than `k` threads on a pool.
    #[test]
    fn the_caller_runs_items() {
        let caller = std::thread::current().id();
        for k in [1, 2, 4, 16] {
            let ran = with_caller_item(Jobs::N(k), 48, |i| i);
            assert!(ran.iter().any(|(id, _)| *id == caller), "jobs={k}");
            let ids: std::collections::HashSet<_> = ran.iter().map(|(id, _)| *id).collect();
            assert!(ids.len() <= k, "jobs={k}: {} threads", ids.len());
            let out: Vec<usize> = ran.into_iter().map(|(_, r)| r).collect();
            assert_eq!(out, (0..48).collect::<Vec<_>>(), "jobs={k}");
        }
    }

    /// A transient panic on an item the caller runs heals like one on a
    /// helper: the output is identical to the panic-free run.
    #[test]
    fn transient_panic_on_the_caller_heals() {
        use std::sync::atomic::AtomicBool;
        let caller = std::thread::current().id();
        for jobs in [Jobs::N(1), Jobs::N(4), Jobs::N(16)] {
            let fired = AtomicBool::new(false);
            let ran = with_caller_item(jobs, 40, |i| {
                if std::thread::current().id() == caller && !fired.swap(true, Ordering::SeqCst) {
                    panic!("transient fault on the caller");
                }
                i * 7 + 1
            });
            assert!(fired.load(Ordering::SeqCst), "jobs={jobs:?}");
            let out: Vec<usize> = ran.into_iter().map(|(_, r)| r).collect();
            let serial: Vec<usize> = (0..40).map(|i| i * 7 + 1).collect();
            assert_eq!(out, serial, "jobs={jobs:?}");
        }
    }

    /// A claim order changes only the schedule: results come back in input
    /// order, and the lowest-index twice-panicking item still wins,
    /// whichever is claimed first.
    #[test]
    fn a_claim_order_does_not_reach_the_results() {
        let items: Vec<u32> = (0..64).collect();
        // Reversed, and interleaved from both ends: 63, 0, 62, 1, ...
        let reversed: Vec<usize> = (0..64).rev().collect();
        let zigzag: Vec<usize> = (0..32).flat_map(|k| [63 - k, k]).collect();
        for order in [&reversed, &zigzag] {
            for jobs in [Jobs::N(1), Jobs::N(4), Jobs::N(16)] {
                let out = par_map_claimed(jobs, &items, Some(order), |i, x| {
                    assert_eq!(i as u32, *x);
                    x * 3
                });
                assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
                let r = crate::resilience::contain(|| {
                    par_map_claimed(jobs, &items, Some(order), |i, x| {
                        if i == 7 || i == 29 || i == 60 {
                            panic!("poisoned item {i}");
                        }
                        x + 1
                    })
                });
                assert_eq!(r, Err("poisoned item 7".to_string()), "jobs={jobs:?}");
            }
        }
    }

    #[test]
    fn jobs_parse_and_resolve() {
        assert_eq!(Jobs::parse("auto"), Ok(Jobs::Auto));
        assert_eq!(Jobs::parse("0"), Ok(Jobs::Auto));
        assert_eq!(Jobs::parse("3"), Ok(Jobs::N(3)));
        assert!(Jobs::parse("three").is_err());
        assert!(Jobs::Auto.resolve() >= 1);
        assert_eq!(Jobs::N(5).resolve(), 5);
    }
}
