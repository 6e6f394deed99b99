//! Observability assertions for the PR 1 budget-exhaustion paths and the
//! JSON-lines trace sink (ISSUE 5 satellites; DESIGN.md §10).
//!
//! * Each `RunOutcome::{OutOfMemory, DepthExceeded, TimedOut, OutOfFuel}`
//!   path increments the matching thread-local counter **exactly once**, and
//!   the JSON-lines trace for the run ends with a `terminal` event naming
//!   that outcome.
//! * Regression for the ring-trace vs. JSON-sink double-counting audit: a
//!   known 3-step program emits exactly 5 lines (1 `run-start` + 3 `step` +
//!   1 `terminal`) — the final answer event is reported by the single outer
//!   bookkeeping point only, never a second time by a loop arm.
//!
//! Counters are thread-local, so each test takes a snapshot before and
//! diffs after — the tests stay correct under the parallel test harness.

use compcerto_core::iface::{CQuery, CReply, Signature, C};
use compcerto_core::lts::{
    run_budgeted, Batch, Event, Lts, RunBudget, RunOutcome, StateMeasure, Stuck,
};
use compcerto_core::obs;
use mem::{Mem, Val};
use std::time::Duration;

/// Pure internal stepper: counts up and finishes after `limit` steps.
/// `measure` pretends each step allocates 8 bytes and deepens one call, so
/// a single toy drives fuel, memory, and depth exhaustion.
struct Stepper {
    limit: u64,
}

impl Lts for Stepper {
    type I = C;
    type O = C;
    type State = u64;

    fn name(&self) -> String {
        "stepper".into()
    }

    fn accepts(&self, _q: &CQuery) -> bool {
        true
    }

    fn initial(&self, _q: &CQuery) -> Result<u64, Stuck> {
        Ok(0)
    }

    fn step_batch(
        &self,
        s: &mut u64,
        _fuel_left: u64,
        _events: &mut Vec<Event>,
    ) -> Batch<CQuery, CReply> {
        if *s >= self.limit {
            Batch::Final(
                0,
                CReply {
                    retval: Val::Int(*s as i32),
                    mem: Mem::new(),
                },
            )
        } else {
            *s += 1;
            Batch::Ran(1)
        }
    }

    fn resume(&self, _s: &mut u64, _a: CReply) -> Result<(), Stuck> {
        Err(Stuck::new("stepper never suspends"))
    }

    fn measure(&self, s: &u64) -> StateMeasure {
        StateMeasure {
            mem_bytes: s * 8,
            call_depth: *s,
        }
    }
}

fn query() -> CQuery {
    CQuery {
        vf: Val::Ptr(100, 0),
        sig: Signature::int_fn(1),
        args: vec![Val::Int(0)],
        mem: Mem::new(),
    }
}

fn refuse(_q: &CQuery) -> Option<CReply> {
    None
}

/// Run `Stepper{limit}` under `budget` with the JSON sink on; return the
/// outcome, the counter delta, and the drained trace lines.
fn observed_run(
    limit: u64,
    budget: RunBudget,
) -> (RunOutcome<CReply>, mem::obs::CounterTable, Vec<String>) {
    let _ = obs::take_trace(); // isolate from earlier tests on this thread
    let before = obs::counters();
    let out = run_budgeted(
        &Stepper { limit },
        &query(),
        &mut refuse,
        &budget.json_trace(),
    );
    let delta = obs::counters().since(&before);
    (out, delta, obs::take_trace())
}

/// The trace must end with a `terminal` event naming `outcome`, and contain
/// exactly one `terminal` line in total.
fn assert_terminal(trace: &[String], outcome: &str) {
    let last = trace.last().unwrap_or_else(|| panic!("empty trace"));
    assert!(
        last.contains("\"ev\":\"terminal\"")
            && last.contains(&format!("\"outcome\":\"{outcome}\"")),
        "trace must end with terminal {outcome}, got {last}"
    );
    let terminals = trace
        .iter()
        .filter(|l| l.contains("\"ev\":\"terminal\""))
        .count();
    assert_eq!(
        terminals, 1,
        "exactly one terminal event per run: {trace:#?}"
    );
}

#[test]
fn out_of_memory_counts_exactly_once_and_trace_is_terminal() {
    let (out, d, trace) = observed_run(1_000, RunBudget::with_fuel(1_000).mem_limit(64));
    assert!(matches!(out, RunOutcome::OutOfMemory { .. }), "{out:?}");
    assert_eq!(d.runs, 1);
    assert_eq!(d.out_of_memory, 1);
    assert_eq!(
        d.completes + d.wrongs + d.env_refused + d.out_of_fuel + d.depth_exceeded + d.timed_out,
        0,
        "no other terminal counter may tick: {d:?}"
    );
    assert_terminal(&trace, "out-of-memory");
}

#[test]
fn depth_exceeded_counts_exactly_once_and_trace_is_terminal() {
    let (out, d, trace) = observed_run(1_000, RunBudget::with_fuel(1_000).depth_limit(5));
    assert!(matches!(out, RunOutcome::DepthExceeded { .. }), "{out:?}");
    assert_eq!(d.runs, 1);
    assert_eq!(d.depth_exceeded, 1);
    assert_eq!(
        d.completes + d.wrongs + d.env_refused + d.out_of_fuel + d.out_of_memory + d.timed_out,
        0,
        "no other terminal counter may tick: {d:?}"
    );
    assert_terminal(&trace, "depth-exceeded");
}

#[test]
fn timed_out_counts_exactly_once_and_trace_is_terminal() {
    // A zero deadline trips at the very first stride-aligned check.
    let (out, d, trace) = observed_run(
        u64::MAX,
        RunBudget::with_fuel(u64::MAX).deadline(Duration::ZERO),
    );
    assert!(matches!(out, RunOutcome::TimedOut { .. }), "{out:?}");
    assert_eq!(d.runs, 1);
    assert_eq!(d.timed_out, 1);
    assert_eq!(
        d.completes + d.wrongs + d.env_refused + d.out_of_fuel + d.out_of_memory + d.depth_exceeded,
        0,
        "no other terminal counter may tick: {d:?}"
    );
    assert_terminal(&trace, "timed-out");
}

#[test]
fn out_of_fuel_counts_exactly_once_and_trace_is_terminal() {
    let (out, d, trace) = observed_run(1_000, RunBudget::with_fuel(10));
    assert!(matches!(out, RunOutcome::OutOfFuel { .. }), "{out:?}");
    assert_eq!(d.out_of_fuel, 1);
    assert_eq!(d.steps, 10, "fuel bound caps the step counter");
    assert_terminal(&trace, "out-of-fuel");
}

/// The double-counting regression (ISSUE 5 [fix] satellite): a known 3-step
/// program produces exactly 1 run-start + 3 step + 1 terminal = 5 events.
/// If the final answer were reported both by a loop arm and by the outer
/// bookkeeping point, the count would be 6 — this pins it.
#[test]
fn three_step_program_emits_exactly_five_events() {
    let (out, d, trace) = observed_run(3, RunBudget::with_fuel(100));
    assert!(
        matches!(out, RunOutcome::Complete { steps: 3, .. }),
        "{out:?}"
    );
    assert_eq!(d.runs, 1);
    assert_eq!(d.steps, 3);
    assert_eq!(d.completes, 1);
    assert_eq!(
        trace.len(),
        5,
        "1 run-start + 3 step + 1 terminal: {trace:#?}"
    );
    assert!(trace[0].contains("\"ev\":\"run-start\""));
    assert!(trace[0].contains("\"schema\":\"compcerto-obs/1\""));
    for (i, line) in trace.iter().enumerate().take(4).skip(1) {
        assert!(
            line.contains("\"ev\":\"step\"") && line.contains(&format!("\"n\":{i}")),
            "line {i} must be step n={i}: {line}"
        );
    }
    assert_terminal(&trace, "complete");
    assert!(trace[4].contains("\"steps\":3"));
}

/// Step events are capped, but the terminal event always lands and the
/// *counter* keeps exact step totals past the cap.
#[test]
fn step_events_capped_but_counters_exact() {
    let n = obs::MAX_STEP_EVENTS + 40;
    let (out, d, trace) = observed_run(n, RunBudget::with_fuel(n + 10));
    assert!(matches!(out, RunOutcome::Complete { .. }), "{out:?}");
    assert_eq!(d.steps, n, "counter is exact past the event cap");
    let steps_emitted = trace
        .iter()
        .filter(|l| l.contains("\"ev\":\"step\""))
        .count();
    assert_eq!(steps_emitted as u64, obs::MAX_STEP_EVENTS);
    assert_terminal(&trace, "complete");
}

/// Ring mode must emit *nothing* into the JSON sink (the two trace channels
/// are disjoint by construction).
#[test]
fn ring_mode_leaves_sink_empty() {
    let _ = obs::take_trace();
    let before = obs::counters();
    let out = run_budgeted(
        &Stepper { limit: 3 },
        &query(),
        &mut refuse,
        &RunBudget::with_fuel(100),
    );
    assert!(matches!(out, RunOutcome::Complete { .. }));
    let d = obs::counters().since(&before);
    assert_eq!(d.completes, 1, "counters tick in every trace mode");
    assert_eq!(obs::trace_len(), 0, "ring mode must not feed the JSON sink");
}
