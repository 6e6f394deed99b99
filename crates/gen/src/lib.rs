//! # `compcerto-gen` — seeded program generation and counterexample reduction
//!
//! A Csmith-lite for the Clight-mini front end of CompCertO-rs, feeding the
//! differential-testing oracle (`compiler::difftest`):
//!
//! * [`program`] — a *structured* program representation ([`GProgram`]):
//!   translation units, functions, statements and expressions as data, with
//!   a deterministic renderer into the surface syntax the parser accepts.
//!   Keeping the structure (instead of strings) is what makes reduction
//!   tractable.
//! * [`mod@generate`] — the seeded generator ([`generate`](generate::generate)):
//!   SplitMix64-driven, emits only programs whose executions are defined for
//!   every generated query (division/remainder by non-zero constants only,
//!   shift amounts below the width, in-bounds masked array indices, bounded
//!   loop trip counts, initialized locals, call graphs that form a DAG).
//!   Programs span several translation units and call external functions
//!   (`inc`, `sum2`) so the *open* C interface of the paper — incoming and
//!   outgoing questions — is exercised, including pointer passing across
//!   the boundary.
//! * [`mod@reduce`] — a delta-debugging reducer ([`reduce`](reduce::reduce)):
//!   given a failing program and a "still fails?" predicate, greedily
//!   removes units, functions and statements, flattens control structure
//!   and shrinks constants until a fixpoint, returning a minimal
//!   reproducer.
//!
//! The crate depends only on `compcerto-core` (for the in-repo SplitMix64),
//! so the generator stays decoupled from the compiler: the oracle plugs in
//! as an ordinary predicate.

pub mod coverage;
pub mod generate;
pub mod program;
pub mod reduce;

pub use coverage::{Coverage, EXPR_CONSTRUCTORS, STMT_CONSTRUCTORS};
pub use generate::{generate, GenCfg};
pub use program::{GExpr, GFn, GProgram, GStmt, GUnit};
pub use reduce::{reduce, ReduceStats};
