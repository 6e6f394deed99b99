//! # Clight-mini: the source language of CompCertO-rs
//!
//! A small but realistic C subset (DESIGN.md §2) with:
//!
//! * a hand-written [`lexer`] and [`parser`](parser::parse);
//! * a [type checker](typecheck::typecheck) that elaborates the surface
//!   syntax (array indexing, implicit widening, array decay);
//! * an [open semantics](sem::ClightSem) over the game `C ↠ C`
//!   (paper §3.2) with memory-resident locals;
//! * [linking](mod@link) and shared [symbol-table](link::build_symtab)
//!   construction (paper App. A.3);
//! * the first compilation pass, [`mod@simpl_locals`] (paper Table 3,
//!   convention `injp ↠ inj`).
//!
//! # Example
//!
//! ```
//! use compcerto_core::iface::CQuery;
//! use compcerto_core::lts::run;
//! use mem::Val;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let prog = clight::parse("int sqr(int n) { return n * n; }")?;
//! let prog = clight::typecheck(&prog)?;
//! let symtab = clight::build_symtab(&[&prog])?;
//! let mem = symtab.build_init_mem()?;
//! let sem = clight::ClightSem::new(prog, symtab.clone());
//!
//! let q = CQuery {
//!     vf: symtab.func_ptr("sqr").unwrap(),
//!     sig: compcerto_core::iface::Signature::int_fn(1),
//!     args: vec![Val::Int(7)],
//!     mem,
//! };
//! let reply = run(&sem, &q, &mut |_q| None, 10_000).expect_complete();
//! assert_eq!(reply.retval, Val::Int(49));
//! # Ok(())
//! # }
//! ```

pub mod ast;
#[doc(hidden)]
pub mod fast;
pub mod lexer;
pub mod link;
pub mod parser;
pub mod sem;
pub mod simpl_locals;
pub mod ty;
pub mod typecheck;

pub use ast::{
    Binop, CallDest, Expr, ExternDecl, Function, GlobalVar, Program, Stmt, TempId, Unop,
};
pub use link::{build_symtab, link, LinkError};
pub use parser::{parse, ParseError};
pub use sem::ClightSem;
pub use simpl_locals::simpl_locals;
pub use ty::Ty;
pub use typecheck::{typecheck, TypeError};
