//! Panic-isolated, gracefully degrading batch compilation (DESIGN.md §11).
//!
//! The strict pipeline ([`crate::driver::compile_all_jobs`]) has serial
//! error semantics: it folds the per-unit results of the same contained
//! front ends and pool and returns the first failure in serial order. That
//! is the right contract for a campaign that wants one verdict, and exactly
//! the wrong one for the CLI and the long-lived compile server, where one
//! poisoned unit must never take the batch (or the process) down. This
//! module provides the resilient alternative, on the same contained pool:
//!
//! * [`contain`] — the crate's single `catch_unwind` wrapper. It installs
//!   (once) a panic hook that *suppresses* the default stderr backtrace
//!   for panics unwinding into a containment region and records the panic
//!   site instead, so contained faults are data, not console noise; panics
//!   outside any containment region print exactly as before.
//! * [`UnitOutcome`] — the per-unit result taxonomy: `Ok`, `Degraded`
//!   (compiled, but only after the degradation ladder stepped in),
//!   `Failed` (a typed [`CompileError`] rendered per stage), `Poisoned`
//!   (a contained panic, attributed to the pass that was running).
//! * [`compile_typed_resilient`] — the **degradation ladder** over the
//!   driver's contained pool: a panic inside an *optional* RTL
//!   optimization pass, or a validator finding, triggers exactly one retry
//!   of those units with RTL-opt disabled; success downgrades the unit to
//!   [`UnitOutcome::Degraded`] with a structured diagnostic instead of
//!   losing it. (The unoptimized pipeline compiles the same semantics — the
//!   difftest oracle accepts degraded units, see
//!   `compiler/tests/resilience.rs`.)
//! * [`compile_all_resilient`] — batch compilation from source, where
//!   every unit gets an outcome, in input order, deterministically, no
//!   matter what any single unit does. `ccomp-o` and the compile server's
//!   misses both go through it or through [`compile_typed_resilient`].
//!
//! Pass attribution works through `pass_boundary`: the driver calls it at
//! the start of every pass, recording the pass name in a thread-local. When
//! a contained panic unwinds out of a unit, the recorded name tells the
//! taxonomy *which* pass poisoned the unit — without wrapping every pass in
//! its own `catch_unwind` (which the per-pass value flow would not allow).

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use compcerto_core::symtab::SymbolTable;

use crate::driver::{compile_units, front_end, CompileError, CompiledUnit, CompilerOptions};
use crate::par::{self, Jobs};

// ---------------------------------------------------------------------------
// Containment: catch_unwind with quiet, attributed panics
// ---------------------------------------------------------------------------

thread_local! {
    /// Depth of nested containment regions on this thread (the panic hook
    /// suppresses printing whenever it is non-zero).
    static CONTAINING: Cell<u32> = const { Cell::new(0) };
    /// The `"panicked at <site>: <msg>"` rendering of the most recent
    /// contained panic on this thread.
    static LAST_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
    /// The driver pass that was running when the last contained panic
    /// unwound (set by [`pass_boundary`]).
    static CURRENT_PASS: Cell<&'static str> = const { Cell::new("") };
}

static HOOK: Once = Once::new();

fn ensure_hook() {
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if CONTAINING.with(Cell::get) > 0 {
                LAST_PANIC.with(|p| *p.borrow_mut() = Some(info.to_string()));
            } else {
                previous(info);
            }
        }));
    });
}

/// Render a caught panic payload as a message string, preferring the
/// `&str`/`String` payload of an ordinary `panic!`.
#[must_use]
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f`, containing any panic. On panic, returns its rendered message.
/// The default panic output is suppressed for the duration (the caller owns
/// reporting; one that re-raises passes the message on as the payload).
///
/// # Errors
/// The rendered panic message, when `f` panicked.
pub fn contain<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    ensure_hook();
    CONTAINING.with(|c| c.set(c.get() + 1));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    CONTAINING.with(|c| c.set(c.get() - 1));
    result.map_err(|payload| panic_message(payload.as_ref()))
}

/// Driver hook: called at the boundary of every pass (before the pass
/// runs), recording the pass name for panic attribution, and giving the
/// pass-panic envfault its injection point.
pub(crate) fn pass_boundary(pass: &'static str) {
    CURRENT_PASS.with(|p| p.set(pass));
    crate::envfault::maybe_pass_panic(pass);
}

/// The pass recorded by the most recent [`pass_boundary`] on this thread.
fn current_pass() -> &'static str {
    CURRENT_PASS.with(Cell::get)
}

// ---------------------------------------------------------------------------
// The per-unit outcome taxonomy
// ---------------------------------------------------------------------------

/// Why a unit was degraded rather than compiled at full strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// An optional RTL optimization pass panicked; the retry skipped the
    /// whole optional-optimization tier.
    OptimizerPanic,
    /// The static validation layer rejected the optimized unit; the retry
    /// compiled (and validated) without the optional optimizations.
    ValidatorRejected,
}

impl DegradeReason {
    /// Stable report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DegradeReason::OptimizerPanic => "optimizer-panic",
            DegradeReason::ValidatorRejected => "validator-rejected",
        }
    }
}

/// The outcome of one unit under resilient compilation. Exactly one
/// variant per unit, in input order, deterministically.
#[derive(Debug)]
pub enum UnitOutcome {
    /// Compiled at full strength.
    Ok(Box<CompiledUnit>),
    /// Compiled only after the degradation ladder retried with RTL-opt
    /// disabled; the unit is usable but unoptimized.
    Degraded {
        /// The (degraded) compiled unit.
        unit: Box<CompiledUnit>,
        /// The pass at fault in the first attempt.
        pass: String,
        /// What went wrong in the first attempt.
        reason: DegradeReason,
        /// Human-readable detail (panic message or first diagnostic).
        detail: String,
    },
    /// A typed pipeline error ([`CompileError`], rendered with its stage).
    Failed {
        /// The pipeline stage that rejected the unit.
        stage: &'static str,
        /// The rendered error.
        error: String,
    },
    /// A panic the ladder could not absorb (a mandatory pass panicked, or
    /// the retry panicked too). The batch continues without this unit.
    Poisoned {
        /// The pass that was running when the panic unwound.
        pass: String,
        /// The rendered panic message.
        panic_msg: String,
    },
}

impl UnitOutcome {
    /// The compiled unit, when one exists (full-strength or degraded).
    #[must_use]
    pub fn unit(&self) -> Option<&CompiledUnit> {
        match self {
            UnitOutcome::Ok(u) => Some(u),
            UnitOutcome::Degraded { unit, .. } => Some(unit),
            UnitOutcome::Failed { .. } | UnitOutcome::Poisoned { .. } => None,
        }
    }

    /// Stable one-word label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            UnitOutcome::Ok(_) => "ok",
            UnitOutcome::Degraded { .. } => "degraded",
            UnitOutcome::Failed { .. } => "failed",
            UnitOutcome::Poisoned { .. } => "poisoned",
        }
    }
}

fn failed(e: &CompileError) -> UnitOutcome {
    let stage = match e {
        CompileError::Parse(_) => "parse",
        CompileError::Type(_) => "typecheck",
        CompileError::Link(_) => "link",
        CompileError::Cshmgen(_) => "cshmgen",
        CompileError::Cminorgen(_) => "cminorgen",
        CompileError::Stacking(_) => "stacking",
    };
    UnitOutcome::Failed {
        stage,
        error: e.to_string(),
    }
}

/// What stopped a unit on the contained pool: a typed pipeline error, or a
/// contained panic with the pass it unwound from and its message.
pub(crate) enum Fault {
    Error(CompileError),
    Panic(&'static str, String),
}

impl Fault {
    /// The outcome of a unit the ladder does not retry.
    fn outcome(self) -> UnitOutcome {
        match self {
            Fault::Error(e) => failed(&e),
            Fault::Panic(pass, panic_msg) => UnitOutcome::Poisoned {
                pass: pass.to_string(),
                panic_msg,
            },
        }
    }
}

/// Run one step of a unit's compile under [`contain`]: a panic becomes a
/// [`Fault::Panic`] attributed to the pass [`pass_boundary`] recorded last.
pub(crate) fn contained<T>(f: impl FnOnce() -> Result<T, CompileError>) -> Result<T, Fault> {
    match contain(f) {
        Ok(r) => r.map_err(Fault::Error),
        Err(msg) => Err(Fault::Panic(current_pass(), msg)),
    }
}

/// The contained front end: parse and type-check each source on the pool,
/// one contained item per unit, so a unit that fails or panics gets its
/// own fault, not an abort. The strict compile folds these results too.
pub(crate) fn front_ends(jobs: Jobs, sources: &[&str]) -> Vec<Result<clight::Program, Fault>> {
    par::par_map(jobs, sources, |_, src| {
        contained(|| {
            pass_boundary("front-end");
            front_end(src)
        })
    })
}

/// The optional RTL optimization passes — the tier the degradation ladder
/// disables on retry (`CompilerOptions::none`'s flags).
const OPTIONAL_OPT_PASSES: [&str; 7] = [
    "tailcall",
    "inlining",
    "constprop",
    "cse",
    "deadcode",
    "vprop",
    "ndce",
];

/// Compile already-typed units against `symtab` on the driver's contained
/// pool and apply the degradation ladder to exactly the units that need
/// it: a panic in an optional RTL pass, or a validator finding, retries
/// those units once, together, with RTL-opt disabled, on the same pool.
/// A clean retry degrades the unit; anything else is final. Never panics,
/// never aborts: every unit maps to exactly one [`UnitOutcome`], in input
/// order, at every pool width.
pub fn compile_typed_resilient(
    typed: &[&clight::Program],
    symtab: &SymbolTable,
    opts: CompilerOptions,
    jobs: Jobs,
) -> Vec<UnitOutcome> {
    // First rung: each unit's outcome, or why it steps down the ladder.
    let first: Vec<Result<UnitOutcome, (&'static str, DegradeReason, String)>> =
        compile_units(typed, symtab, opts, jobs)
            .into_iter()
            .map(|r| match r {
                Ok(unit) => match unit.diagnostics.first() {
                    Some(d) => Err(("validate", DegradeReason::ValidatorRejected, d.to_string())),
                    None => Ok(UnitOutcome::Ok(Box::new(unit))),
                },
                Err(Fault::Panic(pass, msg)) if OPTIONAL_OPT_PASSES.contains(&pass) => {
                    Err((pass, DegradeReason::OptimizerPanic, msg))
                }
                Err(f) => Ok(f.outcome()),
            })
            .collect();
    // Second rung: one retry of those units with RTL-opt disabled.
    let again: Vec<&clight::Program> = typed
        .iter()
        .zip(&first)
        .filter_map(|(t, r)| r.is_err().then_some(*t))
        .collect();
    let fallback = CompilerOptions {
        validate: opts.validate,
        metrics: opts.metrics,
        ..CompilerOptions::none()
    };
    let mut retried = compile_units(&again, symtab, fallback, jobs).into_iter();
    first
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|(pass, reason, detail)| match retried.next() {
                Some(Ok(unit)) => match unit.diagnostics.first() {
                    Some(d) => UnitOutcome::Failed {
                        stage: "validate",
                        error: format!(
                            "validator rejected the unit even with RTL-opt disabled: {d}"
                        ),
                    },
                    None => UnitOutcome::Degraded {
                        unit: Box::new(unit),
                        pass: pass.to_string(),
                        reason,
                        detail,
                    },
                },
                Some(Err(f)) => f.outcome(),
                None => UnitOutcome::Failed {
                    stage: "internal",
                    error: "missing retry outcome".to_string(),
                },
            })
        })
        .collect()
}

/// The result of a resilient batch compilation.
#[derive(Debug)]
pub struct ResilientBatch {
    /// One outcome per input source, in input order.
    pub outcomes: Vec<UnitOutcome>,
    /// The shared symbol table, built from the units whose front end
    /// succeeded. `None` only when symbol-table construction itself failed
    /// (every parsed unit is then reported `Failed` at stage `link`).
    pub symtab: Option<SymbolTable>,
}

/// Batch compilation that never gives up on the batch: the contained
/// front end, the symbol table built from whatever parsed, then
/// [`compile_typed_resilient`] — every unit gets a deterministic
/// [`UnitOutcome`].
///
/// This is the entry point `ccomp-o FILE.c` uses; campaigns that *want*
/// strict first-error semantics call [`crate::driver::compile_all_jobs`],
/// which folds the same contained front ends and pool.
pub fn compile_all_resilient(
    sources: &[&str],
    opts: CompilerOptions,
    jobs: Jobs,
) -> ResilientBatch {
    let fronts = front_ends(jobs, sources);
    // Shared barrier: the symbol table spans every unit that parsed.
    let parsed: Vec<&clight::Program> = fronts.iter().filter_map(|r| r.as_ref().ok()).collect();
    let symtab = match clight::build_symtab(&parsed) {
        Ok(t) => t,
        Err(e) => {
            // A link error poisons linking, not parsing: every unit that
            // parsed is reported failed at the link stage; front-end
            // failures keep their own outcome.
            let link_err = CompileError::Link(e);
            let outcomes = fronts
                .into_iter()
                .map(|r| match r {
                    Ok(_) => failed(&link_err),
                    Err(f) => f.outcome(),
                })
                .collect();
            return ResilientBatch {
                outcomes,
                symtab: None,
            };
        }
    };
    // Units whose front end already failed keep that outcome.
    let mut backs = compile_typed_resilient(&parsed, &symtab, opts, jobs).into_iter();
    let outcomes = fronts
        .into_iter()
        .map(|front| match front {
            Err(f) => f.outcome(),
            Ok(_) => backs.next().unwrap_or(UnitOutcome::Failed {
                stage: "internal",
                error: "missing back-end outcome".to_string(),
            }),
        })
        .collect();
    ResilientBatch {
        outcomes,
        symtab: Some(symtab),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contain_returns_value_and_catches_panic() {
        assert_eq!(contain(|| 41 + 1), Ok(42));
        let r = contain(|| panic!("boom {}", 7));
        assert_eq!(r, Err("boom 7".to_string()));
    }

    #[test]
    fn contain_nests() {
        let r = contain(|| {
            let inner = contain(|| -> u32 { panic!("inner") });
            assert_eq!(inner, Err("inner".to_string()));
            5u32
        });
        assert_eq!(r, Ok(5));
    }

    #[test]
    fn clean_batch_is_all_ok() {
        let srcs = [
            "int f(int a) { return a + 1; }",
            "int g(int b) { return b * 2; }",
        ];
        let batch = compile_all_resilient(&srcs, CompilerOptions::default(), Jobs::N(1));
        assert_eq!(batch.outcomes.len(), 2);
        assert!(batch.outcomes.iter().all(|o| o.label() == "ok"));
        assert!(batch.symtab.is_some());
    }

    #[test]
    fn parse_failure_is_isolated_to_its_unit() {
        let srcs = [
            "int f(int a) { return a + 1; }",
            "int broken(int { return 0; }",
            "int g(int b) { return b - 3; }",
        ];
        let batch = compile_all_resilient(&srcs, CompilerOptions::default(), Jobs::N(1));
        assert_eq!(batch.outcomes[0].label(), "ok");
        assert_eq!(batch.outcomes[1].label(), "failed");
        assert_eq!(batch.outcomes[2].label(), "ok");
        match &batch.outcomes[1] {
            UnitOutcome::Failed { stage, .. } => assert_eq!(*stage, "parse"),
            o => panic!("expected Failed, got {}", o.label()),
        }
    }
}
