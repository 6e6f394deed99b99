//! # RTL: the register-transfer language of CompCertO-rs
//!
//! A control-flow graph of three-address instructions over pseudo-registers,
//! with its open semantics over `C ↠ C` ([`sem::RtlSem`]) and the
//! optimization passes of paper Table 3:
//!
//! | Pass | Module | Convention |
//! |------|--------|------------|
//! | RTLgen | [`gen`] | `ext ↠ ext` |
//! | Tailcall† | [`mod@tailcall`] | `ext ↠ ext` |
//! | Inlining | [`mod@inlining`] | `injp ↠ inj` |
//! | Renumber | [`mod@renumber`] | `id ↠ id` |
//! | Constprop† | [`mod@constprop`] | `va·ext ↠ va·ext` |
//! | CSE† | [`mod@cse`] | `va·ext ↠ va·ext` |
//! | Deadcode† | [`mod@deadcode`] | `va·ext ↠ va·ext` |
//! | Vprop† | [`mod@vprop`] | `va·ext ↠ va·ext` |
//! | Ndce† | [`mod@ndce`] | `va·ext ↠ va·ext` |
//!
//! († = optional optimizations; the final convention `C` is insensitive to
//! whether they run, paper §3.4.)
//!
//! [`analysis`] is the workspace's one fixpoint engine: the CFG traversals,
//! the dense graph and bitset worklist the solvers run on, the forward and
//! backward worklist solvers with their `solver.*` pop counters, and the
//! liveness and constant analyses behind the `va` passes. The
//! interval/neededness abstract domains behind the `vprop`/`ndce` pair
//! (DESIGN.md §12) live in [`absint`]; their analyses (run on
//! [`analysis`]'s solvers and graph) and translation validators live in
//! `compcerto-validate`.

pub mod absint;
pub mod analysis;
pub mod bitset;
pub mod constprop;
pub mod cse;
pub mod deadcode;
mod fast;
pub mod gen;
pub mod inlining;
pub mod lang;
pub mod ndce;
pub mod regenv;
pub mod renumber;
pub mod sem;
pub mod tailcall;
pub mod vprop;

pub use absint::{
    commutes, eval_binop_va, eval_op_va, eval_unop_va, op_arg_needs, up_to_msb, Itv, NeedEnv,
    Needs, VaEnv, VaVal,
};
pub use analysis::{
    after_states, backward_solve, forward_solve, liveness, predecessors, preorder, reachable,
    successors_of, value_analysis, AEnv, AVal, DenseCfg, JoinSemiLattice, Romem, Solver, Worklist,
};
pub use bitset::BitSet;
pub use constprop::constprop;
pub use cse::cse;
pub use deadcode::deadcode;
pub use gen::rtlgen;
pub use inlining::inlining;
pub use lang::{Inst, Node, PReg, RtlFunction, RtlOp, RtlProgram, Succs};
pub use ndce::ndce;
pub use regenv::{AbsVal, RegEnv};
pub use renumber::{renumber, renumber_function};
pub use sem::{RtlFrame, RtlSem, RtlState};
pub use tailcall::tailcall;
pub use vprop::vprop;
