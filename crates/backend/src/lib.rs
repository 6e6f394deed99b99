//! # Back end of CompCertO-rs: LTL, Linear, Mach, Asm
//!
//! The languages and passes from `Allocation` down to `Asmgen`
//! (paper Table 3), each over its own language interface (Table 2):
//!
//! | Pass | Module | Convention |
//! |------|--------|------------|
//! | Allocation | [`alloc`] | `wt·ext·CL ↠ wt·ext·CL` |
//! | Tunneling | [`mod@tunneling`] | `ext ↠ ext` |
//! | Linearize | [`mod@linearize`] | `id ↠ id` |
//! | CleanupLabels | [`cleanup`] | `id ↠ id` |
//! | Debugvar | [`mod@debugvar`] | `id ↠ id` |
//! | Stacking | [`mod@stacking`] | `injp·LM ↠ LM·inj` |
//! | Asmgen | [`mod@asmgen`] | `ext·MA ↠ ext·MA` |
//!
//! [`asm`] also provides the syntactic linking operator `+` on Asm programs,
//! the substrate of paper Thm. 3.5.

pub mod alloc;
pub mod asm;
pub mod asmgen;
pub mod cleanup;
pub mod debugvar;
pub mod linear;
pub mod linearize;
pub mod ltl;
pub mod mach;
pub mod stacking;
pub mod tunneling;

pub use alloc::{allocation, allocation_witness};
pub use asm::{link_asm, AsmFunction, AsmInst, AsmProgram, AsmSem};
pub use asmgen::asmgen;
pub use cleanup::cleanup_labels;
pub use debugvar::debugvar;
pub use linear::{LinFunction, LinInst, LinProgram, LinearSem};
pub use linearize::linearize;
pub use ltl::{LOp, LtlFunction, LtlInst, LtlProgram, LtlSem};
pub use mach::{MachFunction, MachInst, MachProgram, MachSem, RaOracle};
pub use stacking::{frame_layout, stacking, FrameLayout};
pub use tunneling::tunneling;
