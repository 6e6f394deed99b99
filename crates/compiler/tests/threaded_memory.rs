//! The threaded composition's one shared memory (`core::threaded`), on real
//! Clight threads: the memory moves from thread to thread without losing an
//! update, and a memory quota counts it once, not once per thread.

use compcerto_core::iface::CReply;
use compcerto_core::lts::{run_budgeted, RunBudget, RunOutcome};
use compcerto_core::threaded::{schedules, Schedule, ThreadedLts};
use compiler::{c_query, compile_all, CompilerOptions, ExtLib};
use mem::{Chunk, Val};

/// Each call adds its argument to `g` three times, yielding after each add
/// (`yield` is the library's identity), so `g` ends at three times the sum
/// of the arguments under every schedule.
const SRC: &str = "
    extern int yield(int);
    int g;
    int buf[64];
    int work(int x) {
        int i;
        i = 0;
        while (i < 3) {
            buf[i] = x + i;
            g = g + x;
            x = yield(x);
            i = i + 1;
        }
        return g;
    }
";

/// Run `work(1)` with `work(10)` and `work(11)` beside it; also returns the
/// initial memory footprint in bytes.
fn run_three(schedule: Schedule, budget: &RunBudget) -> (RunOutcome<CReply>, u64, u32) {
    let (units, tbl) = compile_all(&[SRC], CompilerOptions::default()).expect("compiles");
    let u = &units[0];
    let lib = ExtLib::demo(tbl.clone());
    let q = c_query(&tbl, u, "work", vec![Val::Int(1)]);
    let aux = [10, 11].map(|x| c_query(&tbl, u, "work", vec![Val::Int(x)]));
    let footprint = q.mem.allocated_bytes();
    let g = tbl.block_of("g").expect("global g");
    let sem = ThreadedLts::new(u.clight_sem(&tbl), aux.to_vec(), schedule);
    let out = run_budgeted(&sem, &q, &mut |oq| lib.answer_c(oq), budget);
    (out, footprint, g)
}

#[test]
fn shared_memory_moves_between_threads_without_lost_updates() {
    for seed in [0u64, 5, 23] {
        for schedule in schedules(8, seed) {
            let (out, _, g) = run_three(schedule, &RunBudget::with_fuel(100_000).no_trace());
            let RunOutcome::Complete { answer, .. } = out else {
                panic!("{schedule}: expected completion, got {out:?}");
            };
            assert_eq!(
                answer.mem.load(Chunk::I32, g, 0).ok(),
                Some(Val::Int(3 * (1 + 10 + 11))),
                "{schedule}: lost update"
            );
        }
    }
}

#[test]
fn memory_quota_counts_the_shared_memory_once() {
    // One thread completes under twice the initial footprint, and so must
    // three threads over the same memory.
    let (_, footprint, _) = run_three(Schedule::RoundRobin, &RunBudget::with_fuel(0));
    let budget = RunBudget::with_fuel(100_000).mem_limit(2 * footprint);
    let (out, _, _) = run_three(Schedule::RoundRobin, &budget);
    assert!(matches!(out, RunOutcome::Complete { .. }), "{out:?}");
    // Each running activation allocates its locals, so the real footprint
    // exceeds the initial one and a quota of exactly that still trips.
    let budget = RunBudget::with_fuel(100_000).mem_limit(footprint);
    let (out, _, _) = run_three(Schedule::RoundRobin, &budget);
    assert!(
        matches!(out, RunOutcome::OutOfMemory { limit, .. } if limit == footprint),
        "{out:?}"
    );
}
