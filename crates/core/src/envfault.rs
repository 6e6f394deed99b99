//! Deterministic environment-fault injection points for the LTS runtime
//! (resilience layer, DESIGN.md §11).
//!
//! Two fault classes live in this crate because their victims do:
//!
//! * **Trace-sink write faults** — the JSON-lines sink in [`crate::obs`] is
//!   a stand-in for a log file or pipe, and real sinks fail. An armed sink
//!   fault makes the *n*-th subsequent sink append fail; the sink *degrades
//!   gracefully*: the line is dropped, a per-thread drop counter is bumped,
//!   and the run continues. Callers that care (campaign bins) read
//!   [`take_sink_dropped`] after the run.
//! * **Deadline jitter** — the budgeted runner checks wall-clock deadlines
//!   at a fixed stride. An armed jitter fault makes the *n*-th subsequent
//!   deadline check behave as if the clock had jumped past the deadline,
//!   forcing a `TimedOut` outcome at a deterministic step count (the stride
//!   schedule is a pure function of the run). This turns the one
//!   wall-clock-dependent outcome in the system into something a campaign
//!   can exercise reproducibly.
//!
//! All state is thread-local; arming inside a pool work item is
//! `--jobs`-invariant because each item runs entirely on one worker thread.

use std::cell::Cell;

use mem::envfault::countdown_fires;

thread_local! {
    static SINK_ARMED: Cell<Option<u64>> = const { Cell::new(None) };
    static SINK_DROPPED: Cell<u64> = const { Cell::new(0) };
    static DEADLINE_ARMED: Cell<Option<u64>> = const { Cell::new(None) };
    static DEADLINE_FIRED: Cell<bool> = const { Cell::new(false) };
}

/// Arm a sink-write fault on this thread: the `nth` next trace-sink append
/// (1-based) is dropped. Re-arming overwrites the countdown.
pub fn arm_sink_fault(nth: u64) {
    SINK_ARMED.with(|a| a.set(Some(nth.max(1))));
}

/// Arm a deadline-jitter fault: the `nth` next strided deadline check in
/// the budgeted runner (1-based) reports the deadline as exceeded.
pub fn arm_deadline_jitter(nth: u64) {
    DEADLINE_ARMED.with(|a| a.set(Some(nth.max(1))));
    DEADLINE_FIRED.with(|f| f.set(false));
}

/// Disarm all faults owned by this crate on this thread.
pub fn disarm() {
    SINK_ARMED.with(|a| a.set(None));
    DEADLINE_ARMED.with(|a| a.set(None));
}

/// Lines dropped by sink-write faults on this thread since the last call;
/// clears the counter.
pub fn take_sink_dropped() -> u64 {
    SINK_DROPPED.with(|c| c.replace(0))
}

/// Whether the most recently armed deadline jitter fired; clears the flag.
pub fn take_deadline_fired() -> bool {
    DEADLINE_FIRED.with(|f| f.replace(false))
}

/// Hook for the sink: returns true when this append must be dropped.
pub(crate) fn sink_write_fails() -> bool {
    let fire = SINK_ARMED.with(countdown_fires);
    if fire {
        SINK_DROPPED.with(|c| c.set(c.get() + 1));
    }
    fire
}

/// Hook for the budgeted runner's strided deadline check: returns true when
/// the clock must be treated as past the deadline.
pub(crate) fn deadline_jitter_fires() -> bool {
    let fire = DEADLINE_ARMED.with(countdown_fires);
    if fire {
        DEADLINE_FIRED.with(|f| f.set(true));
    }
    fire
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_fault_counts_down_and_drops_once() {
        disarm();
        let _ = take_sink_dropped();
        arm_sink_fault(2);
        assert!(!sink_write_fails());
        assert!(sink_write_fails());
        assert!(!sink_write_fails()); // disarmed after firing
        assert_eq!(take_sink_dropped(), 1);
    }

    #[test]
    fn deadline_jitter_fires_once_then_disarms() {
        disarm();
        arm_deadline_jitter(1);
        assert!(deadline_jitter_fires());
        assert!(take_deadline_fired());
        assert!(!deadline_jitter_fires());
    }
}
