//! Deterministic allocation-fault injection for the memory model
//! (resilience layer, DESIGN.md §11).
//!
//! The CompCert memory model's `alloc` is infallible by construction — the
//! formal development never models allocator exhaustion. The *infrastructure*
//! around a verified compiler does run out of memory, though, and a
//! long-lived compile service has to survive that without aborting the whole
//! batch. This module provides the injection point: a per-thread countdown
//! that, when armed, makes the *n*-th subsequent [`crate::Mem::alloc`] panic
//! with an `envfault:`-tagged message. The panic simulates an allocator
//! abort; the resilience layer in `compiler` contains it with
//! `catch_unwind` and reports the unit as poisoned instead of killing the
//! process.
//!
//! Determinism contract: the arming state is thread-local and the fault
//! fires as a pure function of (arm site, number of allocations performed on
//! this thread since arming). Because the parallel pool runs each work item
//! entirely on one worker thread, arming inside a work item gives
//! byte-identical outcomes regardless of `--jobs`.

use std::cell::Cell;

thread_local! {
    /// Remaining allocations before the fault fires; `None` = disarmed.
    static ARMED: Cell<Option<u64>> = const { Cell::new(None) };
    /// Whether the last armed fault actually fired (consumed by `take_fired`).
    static FIRED: Cell<bool> = const { Cell::new(false) };
}

/// Arm the allocation fault on this thread: the `nth` next call to
/// [`crate::Mem::alloc`] (1-based) panics. Re-arming overwrites any
/// previously armed countdown.
pub fn arm_alloc_fault(nth: u64) {
    ARMED.with(|a| a.set(Some(nth.max(1))));
    FIRED.with(|f| f.set(false));
}

/// Disarm any pending allocation fault on this thread.
pub fn disarm() {
    ARMED.with(|a| a.set(None));
}

/// True when an allocation fault is still pending on this thread.
#[must_use]
pub fn pending() -> bool {
    ARMED.with(Cell::get).is_some()
}

/// Whether the most recently armed fault fired; clears the flag.
pub fn take_fired() -> bool {
    FIRED.with(|f| f.replace(false))
}

/// One tick of a one-shot fault countdown (`None` = disarmed): true when
/// the fault fires on this tick, which disarms it; otherwise an armed
/// countdown moves one closer. The thread-local injection points (this
/// module's allocator fault, `compcerto_core::envfault`'s sink-write and
/// deadline-jitter faults) all count their hook calls with this.
pub fn countdown_fires(armed: &Cell<Option<u64>>) -> bool {
    match armed.get() {
        None => false,
        Some(1) => {
            armed.set(None);
            true
        }
        Some(n) => {
            armed.set(Some(n - 1));
            false
        }
    }
}

/// Hook called by [`crate::Mem::alloc`]. Decrements the countdown and, when
/// it reaches zero, disarms and panics with a stable `envfault:` message.
pub(crate) fn on_alloc() {
    if ARMED.with(countdown_fires) {
        FIRED.with(|f| f.set(true));
        panic!("envfault: injected allocator exhaustion");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mem;

    #[test]
    fn third_alloc_fires_and_disarms() {
        arm_alloc_fault(3);
        let mut m = Mem::new();
        let _ = m.alloc(0, 8);
        let _ = m.alloc(0, 8);
        assert!(pending());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = m.alloc(0, 8);
        }));
        assert!(r.is_err());
        assert!(!pending());
        assert!(take_fired());
        // Disarmed: further allocations succeed.
        let _ = m.alloc(0, 8);
    }

    #[test]
    fn disarm_prevents_firing() {
        arm_alloc_fault(1);
        disarm();
        let mut m = Mem::new();
        let _ = m.alloc(0, 8);
        assert!(!take_fired());
    }
}
