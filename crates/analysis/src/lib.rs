//! # `compcerto-validate`: static validation for the CompCertO-rs pipeline
//!
//! CompCertO's guarantees are *per-pass* simulation conventions (paper §4,
//! Table 3). The dynamic harnesses in this workspace check those conventions
//! by differential execution, which only covers executed paths; this crate
//! adds the complementary *static* layer in the "verifying compiler" posture
//! of a-posteriori translation validation:
//!
//! 1. **Analyses on the one fixpoint engine.** `rtl::analysis` holds the
//!    workspace's only CFG traversals and worklist solvers; this crate runs
//!    the maybe-uninit lint ([`lint::maybe_uninit`]) and neededness on its
//!    solvers, and the interval value analysis ([`absint`]) on its dense
//!    graph, worklist and pop counters.
//! 2. **Per-IR well-formedness lints** ([`lint`]): missing successors,
//!    unreachable entries, use of possibly-undefined registers,
//!    register-class and callee-save discipline, stack-slot bounds and
//!    alignment, label uniqueness.
//! 3. **Per-pass translation validators** ([`validate`]): a register
//!    allocation checker (LTL consistent with an independently recomputed
//!    allocation witness plus RTL liveness), a linearize checker
//!    (branch-target/fallthrough equivalence with the LTL CFG), and an
//!    asmgen checker (cursor-walk equivalence between Mach and Asm).
//!
//! Every lint and validator checks one function at a time (`lint_*_function`,
//! [`validate_constprop_function`], [`validate_deadcode_function`] and the
//! three backend validators); the program-level entry points fold over
//! them, so a compiler can validate each function as soon as its back end
//! has run.
//!
//! Every finding is a structured [`diag::Diagnostic`] — renderable as text
//! or JSON, and countable by harnesses (the fault-injection campaign reports
//! which injected convention violations are caught *without running* the
//! semantics).

pub mod absint;
pub mod diag;
pub mod lint;
pub mod validate;

pub use absint::{
    fold_rewrite_checks, function_count_changed, needed_facts_program, needed_solver_iterations,
    neededness, validate_constprop, validate_constprop_function, validate_deadcode,
    validate_deadcode_function, value_facts, value_facts_program, value_solver_iterations,
    RewriteCheck,
};
pub use diag::Diagnostic;
pub use lint::{
    known_callees, lint_asm, lint_asm_function, lint_linear, lint_linear_function, lint_ltl,
    lint_ltl_function, lint_mach, lint_mach_function, lint_rtl, lint_rtl_function, maybe_uninit,
};
pub use validate::{validate_allocation, validate_asmgen, validate_linearize};
