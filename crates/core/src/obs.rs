//! Deterministic LTS-runner counters and the structured JSON-lines trace
//! sink (observability layer, DESIGN.md §10).
//!
//! Two strictly separated artifact families live here:
//!
//! * **Counters** ([`LtsCounters`]) — pure functions of the semantic work
//!   performed on this thread: runs started, internal steps, external calls,
//!   drained events, per-[`crate::lts::RunOutcome`] terminal tallies, and the
//!   step count of the `core::sim` differential checker (which drives its
//!   own loop and therefore has its own counter). No wall-clock input ever
//!   feeds a counter, so counter deltas are byte-reproducible and — summed
//!   per-item in input order — independent of `--jobs`.
//! * **The JSON-lines trace sink** — enabled per-run by
//!   [`crate::lts::TraceMode::Json`]; the budgeted runner appends one line
//!   per event (`run-start`, `step`, `external`, `terminal`) under schema
//!   `compcerto-obs/1`. The runner's single outer bookkeeping point emits
//!   the `terminal` line exactly once per run (the ring trace and the sink
//!   never double-report the final stuck/answer event; see the regression
//!   test in `core/tests/obs_budget.rs`).
//!
//! Step events are capped at [`MAX_STEP_EVENTS`] per run so a long run
//! cannot blow up the sink; `run-start`, `external` and `terminal` events
//! are always emitted.

use std::cell::{Cell, RefCell};

/// Cap on per-run `step` events appended to the JSON-lines sink. The
/// `run-start`/`external`/`terminal` events are exempt.
pub const MAX_STEP_EVENTS: u64 = 64;

/// Schema identifier stamped on the `run-start` event of every JSON trace.
pub const OBS_SCHEMA: &str = "compcerto-obs/1";

/// Snapshot of the per-thread LTS counters (cumulative since thread start).
/// Take two snapshots and [`LtsCounters::since`] for a delta.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LtsCounters {
    /// Budgeted runs started ([`crate::lts::run_budgeted`] entries).
    pub runs: u64,
    /// Internal steps taken across all runs (resumes included).
    pub steps: u64,
    /// Steps taken by the `core::sim` differential checker's own loop.
    pub sim_steps: u64,
    /// Outgoing external calls handed to the environment.
    pub external_calls: u64,
    /// Observable events appended by `step_batch` across all runs.
    pub events: u64,
    /// Runs ending in [`crate::lts::RunOutcome::Complete`].
    pub completes: u64,
    /// Runs ending in [`crate::lts::RunOutcome::Wrong`].
    pub wrongs: u64,
    /// Runs ending in [`crate::lts::RunOutcome::EnvRefused`].
    pub env_refused: u64,
    /// Runs ending in [`crate::lts::RunOutcome::OutOfFuel`].
    pub out_of_fuel: u64,
    /// Runs ending in [`crate::lts::RunOutcome::OutOfMemory`].
    pub out_of_memory: u64,
    /// Runs ending in [`crate::lts::RunOutcome::DepthExceeded`].
    pub depth_exceeded: u64,
    /// Runs ending in [`crate::lts::RunOutcome::TimedOut`].
    pub timed_out: u64,
}

impl LtsCounters {
    /// Field-wise saturating difference `self - earlier`.
    #[must_use]
    pub fn since(&self, earlier: &LtsCounters) -> LtsCounters {
        LtsCounters {
            runs: self.runs.saturating_sub(earlier.runs),
            steps: self.steps.saturating_sub(earlier.steps),
            sim_steps: self.sim_steps.saturating_sub(earlier.sim_steps),
            external_calls: self.external_calls.saturating_sub(earlier.external_calls),
            events: self.events.saturating_sub(earlier.events),
            completes: self.completes.saturating_sub(earlier.completes),
            wrongs: self.wrongs.saturating_sub(earlier.wrongs),
            env_refused: self.env_refused.saturating_sub(earlier.env_refused),
            out_of_fuel: self.out_of_fuel.saturating_sub(earlier.out_of_fuel),
            out_of_memory: self.out_of_memory.saturating_sub(earlier.out_of_memory),
            depth_exceeded: self.depth_exceeded.saturating_sub(earlier.depth_exceeded),
            timed_out: self.timed_out.saturating_sub(earlier.timed_out),
        }
    }
}

thread_local! {
    static COUNTERS: Cell<LtsCounters> = const { Cell::new(LtsCounters {
        runs: 0,
        steps: 0,
        sim_steps: 0,
        external_calls: 0,
        events: 0,
        completes: 0,
        wrongs: 0,
        env_refused: 0,
        out_of_fuel: 0,
        out_of_memory: 0,
        depth_exceeded: 0,
        timed_out: 0,
    }) };
    static SINK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Current cumulative counters for *this thread*.
#[must_use]
pub fn counters() -> LtsCounters {
    COUNTERS.with(Cell::get)
}

/// Add `delta` (counted on another thread) to this thread's counters: how
/// a worker pool folds each worker's effort into its caller.
pub fn absorb(delta: &LtsCounters) {
    bump(|c| {
        c.runs += delta.runs;
        c.steps += delta.steps;
        c.sim_steps += delta.sim_steps;
        c.external_calls += delta.external_calls;
        c.events += delta.events;
        c.completes += delta.completes;
        c.wrongs += delta.wrongs;
        c.env_refused += delta.env_refused;
        c.out_of_fuel += delta.out_of_fuel;
        c.out_of_memory += delta.out_of_memory;
        c.depth_exceeded += delta.depth_exceeded;
        c.timed_out += delta.timed_out;
    });
}

/// Bump helper used by the budgeted runner and the simulation checker.
pub(crate) fn bump(f: impl FnOnce(&mut LtsCounters)) {
    COUNTERS.with(|c| {
        let mut v = c.get();
        f(&mut v);
        c.set(v);
    });
}

/// Drain this thread's JSON-lines trace sink (one `compcerto-obs/1` event
/// per line, in emission order). Returns an empty vector when no run used
/// [`crate::lts::TraceMode::Json`] since the last drain.
#[must_use]
pub fn take_trace() -> Vec<String> {
    SINK.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Number of lines currently buffered in this thread's trace sink.
#[must_use]
pub fn trace_len() -> usize {
    SINK.with(|s| s.borrow().len())
}

/// Single append point for the trace sink. A sink-write fault armed via
/// [`crate::envfault`] makes this append fail; the sink degrades gracefully
/// by dropping the line and bumping the per-thread drop counter (read with
/// [`crate::envfault::take_sink_dropped`]) — the run itself continues.
fn sink_push(line: String) {
    if crate::envfault::sink_write_fails() {
        return;
    }
    SINK.with(|s| s.borrow_mut().push(line));
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

pub(crate) fn emit_run_start(lts_name: &str) {
    let line = format!(
        "{{\"schema\":\"{}\",\"ev\":\"run-start\",\"lts\":\"{}\"}}",
        OBS_SCHEMA,
        escape(lts_name)
    );
    sink_push(line);
}

pub(crate) fn emit_step(n: u64) {
    sink_push(format!("{{\"ev\":\"step\",\"n\":{n}}}"));
}

pub(crate) fn emit_external(n: u64) {
    sink_push(format!("{{\"ev\":\"external\",\"n\":{n}}}"));
}

pub(crate) fn emit_terminal(outcome: &str, steps: u64) {
    sink_push(format!(
        "{{\"ev\":\"terminal\",\"outcome\":\"{outcome}\",\"steps\":{steps}}}"
    ));
}
