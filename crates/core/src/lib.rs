//! # CompCertO semantic framework
//!
//! This crate is the Rust counterpart of the paper's contribution
//! (*CompCertO: Compiling Certified Open C Components*, PLDI 2021): a
//! semantic framework in which program components are open labeled transition
//! systems interacting through *language interfaces*, and compilers are
//! described by *simulation conventions* between those interfaces.
//!
//! * [`iface`] — language interfaces `C`, `L`, `M`, `A`, `W`, `1`
//!   (paper Def. 2.1, Table 2) and the ABI constants;
//! * [`regs`] — machine registers, abstract locations, register files;
//! * [`symtab`] — the global symbol table and initial memory;
//! * [`lts`] — open LTSs `L : A ↠ B` (paper Def. 3.1) and a runner;
//! * [`hcomp`] — horizontal composition `⊕` (paper Def. 3.2, Fig. 5);
//! * [`seqcomp`] — layered composition `∘` (paper §3.5);
//! * [`conv`] — simulation conventions, identity and composition
//!   (paper Defs. 2.6, 3.6);
//! * [`cklr`] — CompCert Kripke logical relations `ext`, `inj`, `injp`,
//!   `vaext`, `vainj` and the sum `R` (paper §4);
//! * [`cc`] — the structural conventions `CL`, `LM`, `MA`, `CA`
//!   (paper App. C);
//! * [`cconv`] — the whole-compiler convention `C = R*·wt·CA·vainj`
//!   (paper §5) as one checker;
//! * [`invariants`] — `wt` and `va` (paper App. B);
//! * [`algebra`] — the simulation convention algebra: symbolic convention
//!   expressions, refinement laws, and the rewriting engine that derives the
//!   whole-compiler convention (paper §5, Figs. 10–11);
//! * [`sim`] — the differential forward-simulation checker (the executable
//!   analog of paper Fig. 6);
//! * [`threaded`] — the thread-aware composition operator: component
//!   instances sharing global memory under an explicit deterministic
//!   [`threaded::Schedule`] (CompCertOC, Zhang et al. PLDI 2025).
//!
//! # Quickstart
//!
//! ```
//! use compcerto_core::iface::{CQuery, Signature};
//! use compcerto_core::conv::SimConv;
//! use compcerto_core::cc::Ca;
//! use mem::{Mem, Val};
//!
//! // Marshal a C-level call into an assembly-level activation per the
//! // calling convention (paper §5).
//! let q = CQuery {
//!     vf: Val::Ptr(0, 0),
//!     sig: Signature::int_fn(2),
//!     args: vec![Val::Int(3), Val::Int(4)],
//!     mem: Mem::new(),
//! };
//! let (_world, aq) = Ca::default().transport_query(&q).expect("marshaling succeeds");
//! assert_eq!(aq.rs.pc, Val::Ptr(0, 0));
//! ```

pub mod algebra;
pub mod cc;
pub mod cconv;
pub mod cklr;
pub mod conv;
pub mod envfault;
pub mod hcomp;
pub mod iface;
pub mod intern;
pub mod invariants;
pub mod json;
pub mod lts;
pub mod obs;
pub mod regs;
pub mod rng;
pub mod seqcomp;
pub mod sim;
pub mod symtab;
pub mod threaded;
