//! Executable CompCert-style memory model.
//!
//! This crate implements the algebraic structure that underlies the semantics
//! of every language in CompCertO (paper §3.1, Fig. 4): runtime values
//! ([`Val`]), a block-structured memory ([`Mem`]) with `alloc`/`free`/`load`/
//! `store` primitives, and the relational machinery used by simulation
//! conventions — value refinement ([`Val::lessdef`]), memory extensions
//! ([`extends`]), memory injections ([`MemInj`], [`mem_inject`]) and the
//! `injp` protection discipline on external calls ([`InjpWorld`], paper
//! Fig. 9).
//!
//! In the Coq development these relations come with proofs; here they are
//! *decidable checkers* over concrete memory states, exercised by the
//! property-based tests in `tests/` which validate the CKLR laws of paper
//! Fig. 8 (e.g. "loads from injection-related memories yield injection-related
//! values").
//!
//! # Example
//!
//! ```
//! use mem::{Chunk, Mem, Val};
//!
//! # fn main() -> Result<(), mem::MemError> {
//! let mut m = Mem::new();
//! let b = m.alloc(0, 16);
//! m.store(Chunk::I32, b, 8, Val::Int(42))?;
//! assert_eq!(m.load(Chunk::I32, b, 8)?, Val::Int(42));
//! # Ok(())
//! # }
//! ```

mod chunk;
pub mod envfault;
mod error;
mod extends;
mod inject;
mod injp;
#[allow(clippy::module_inception)]
mod mem;
mod memval;
pub mod obs;
mod perm;
mod value;

pub use chunk::Chunk;
pub use error::MemError;
pub use extends::{extends, memval_lessdef};
pub use inject::{mem_inject, memval_inject, val_inject, val_list_inject, InjectError, MemInj};
pub use injp::{InjpViolation, InjpWorld};
pub use mem::{BlockId, Mem};
pub use memval::MemVal;
pub use perm::Perm;
pub use value::{Cmp, Typ, Val};
