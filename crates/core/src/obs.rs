//! The `lts.*` counters' entry points and the structured JSON-lines trace
//! sink (observability layer, DESIGN.md §10).
//!
//! Two strictly separated artifact families meet here:
//!
//! * **Counters**: the budgeted runner and the `core::sim` differential
//!   checker bump the `lts.*` fields of the workspace's one counter table,
//!   [`mem::obs`] (runs started, internal steps, external calls, drained
//!   events, per-[`crate::lts::RunOutcome`] terminal tallies, and the
//!   checker's own steps). No wall-clock input ever feeds a counter, so
//!   counter deltas are byte-reproducible and, summed per item in input
//!   order, independent of `--jobs`. [`counters`] reads the table.
//! * **The JSON-lines trace sink**: enabled per run by
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

use std::cell::RefCell;

pub(crate) use mem::obs::bump;
pub use mem::obs::counters;

/// Cap on per-run `step` events appended to the JSON-lines sink. The
/// `run-start`/`external`/`terminal` events are exempt.
pub const MAX_STEP_EVENTS: u64 = 64;

/// Schema identifier stamped on the `run-start` event of every JSON trace
/// and on every metrics report (`compiler::obs` re-exports it).
pub const OBS_SCHEMA: &str = "compcerto-obs/1";

thread_local! {
    static SINK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
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

pub(crate) fn emit_run_start(lts_name: &str) {
    let line = format!(
        "{{\"schema\":\"{}\",\"ev\":\"run-start\",\"lts\":\"{}\"}}",
        OBS_SCHEMA,
        crate::json::escape(lts_name)
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
