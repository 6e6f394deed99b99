//! Language interfaces (paper Def. 2.1 and Table 2).
//!
//! A language interface `A = ⟨A∘, A•⟩` is a set of *questions* (function
//! invocations handed to a component) and *answers* (the ways control returns
//! to the caller). CompCertO's semantics for a language is a strategy for the
//! game `A ↠ B`: it answers incoming questions of `B`, possibly performing
//! outgoing calls described by `A`.
//!
//! The interfaces defined here mirror paper Table 2:
//!
//! | Name | Question            | Answer      | Used by            |
//! |------|---------------------|-------------|--------------------|
//! | [`C`] | `vf[sg](v⃗)@m`      | `v'@m'`     | Clight … RTL       |
//! | [`L`] | `vf[sg](ls)@m`     | `ls'@m'`    | LTL, Linear        |
//! | [`M`] | `vf(sp,ra,rs)@m`   | `rs'@m'`    | Mach               |
//! | [`A`] | `rs@m`             | `rs'@m'`    | Asm                |
//! | [`W`] | `*`                 | `r : int`   | whole programs     |
//! | [`One`] | (none)            | (none)      | closed components  |

use std::fmt;

use mem::{Mem, Typ, Val};

use crate::regs::{Locset, Mreg, Regset, NREGS};

/// A function signature: parameter types and optional result type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Types of the parameters, in order.
    pub params: Vec<Typ>,
    /// Result type; `None` for `void` functions.
    pub ret: Option<Typ>,
}

impl Signature {
    /// Build a signature.
    pub fn new(params: Vec<Typ>, ret: Option<Typ>) -> Signature {
        Signature { params, ret }
    }

    /// The `int(int)`-style signature with `n` `i32` parameters returning `i32`.
    pub fn int_fn(n: usize) -> Signature {
        Signature::new(vec![Typ::I32; n], Some(Typ::I32))
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ") -> ")?;
        match &self.ret {
            Some(t) => write!(f, "{t}"),
            None => write!(f, "void"),
        }
    }
}

/// A language interface: a type of questions and a type of answers
/// (paper Def. 2.1).
///
/// Implementors are zero-sized marker types; the trait hangs the concrete
/// question/answer data types and a display name off them.
pub trait LanguageInterface: 'static {
    /// Questions `A∘` — how a component can be activated.
    type Question: Clone + fmt::Debug + PartialEq;
    /// Answers `A•` — how it returns control.
    type Answer: Clone + fmt::Debug + PartialEq;
    /// Display name used in diagnostics and generated tables.
    const NAME: &'static str;
}

/// Shorthand for the question type of an interface.
pub type Question<I> = <I as LanguageInterface>::Question;
/// Shorthand for the answer type of an interface.
pub type Answer<I> = <I as LanguageInterface>::Answer;

// ---------------------------------------------------------------------------
// C — source-level calls
// ---------------------------------------------------------------------------

/// The C-level language interface (paper Table 2, row `C`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct C;

/// A C-level question `vf[sg](v⃗)@m`: invoke the function at address `vf`
/// with signature `sg` and arguments `args` in memory `mem`.
#[derive(Debug, Clone, PartialEq)]
pub struct CQuery {
    /// Address of the function to invoke.
    pub vf: Val,
    /// Signature of the call.
    pub sig: Signature,
    /// Argument values.
    pub args: Vec<Val>,
    /// Memory at the point of entry.
    pub mem: Mem,
}

/// A C-level answer `v'@m'`: return value and memory at the point of exit.
#[derive(Debug, Clone, PartialEq)]
pub struct CReply {
    /// The return value ([`Val::Undef`] for `void`).
    pub retval: Val,
    /// Memory at the point of exit.
    pub mem: Mem,
}

impl LanguageInterface for C {
    type Question = CQuery;
    type Answer = CReply;
    const NAME: &'static str = "C";
}

// ---------------------------------------------------------------------------
// L — abstract locations (LTL, Linear)
// ---------------------------------------------------------------------------

/// The locations interface (paper Table 2, row `L`), used by LTL and Linear:
/// arguments live in an abstract location map instead of a value list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct L;

/// An L-level question `vf[sg](ls)@m`.
#[derive(Debug, Clone, PartialEq)]
pub struct LQuery {
    /// Address of the function to invoke.
    pub vf: Val,
    /// Signature of the call.
    pub sig: Signature,
    /// The location map carrying arguments (registers and stack slots).
    pub ls: Locset,
    /// Memory at the point of entry.
    pub mem: Mem,
}

/// An L-level answer `ls'@m'`.
#[derive(Debug, Clone, PartialEq)]
pub struct LReply {
    /// Updated location map (result registers, preserved callee-saves).
    pub ls: Locset,
    /// Memory at the point of exit.
    pub mem: Mem,
}

impl LanguageInterface for L {
    type Question = LQuery;
    type Answer = LReply;
    const NAME: &'static str = "L";
}

// ---------------------------------------------------------------------------
// M — machine registers + explicit stack pointer (Mach)
// ---------------------------------------------------------------------------

/// The Mach-level interface (paper Table 2, row `M`): machine registers plus
/// explicit stack pointer and return address, passed outside the register
/// file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct M;

/// An M-level question `vf(sp, ra, rs)@m`.
#[derive(Debug, Clone, PartialEq)]
pub struct MQuery {
    /// Address of the function to invoke.
    pub vf: Val,
    /// Stack pointer at entry (points to the caller's outgoing-argument
    /// region).
    pub sp: Val,
    /// Return address.
    pub ra: Val,
    /// Machine register file.
    pub rs: [Val; NREGS],
    /// Memory at the point of entry.
    pub mem: Mem,
}

/// An M-level answer `rs'@m'`.
#[derive(Debug, Clone, PartialEq)]
pub struct MReply {
    /// Machine register file at return.
    pub rs: [Val; NREGS],
    /// Memory at the point of exit.
    pub mem: Mem,
}

impl LanguageInterface for M {
    type Question = MQuery;
    type Answer = MReply;
    const NAME: &'static str = "M";
}

// ---------------------------------------------------------------------------
// A — architecture-level register file (Asm)
// ---------------------------------------------------------------------------

/// The assembly-level interface (paper Table 2, row `A`): every control
/// transfer is just a register file (including `pc`, `sp`, `ra`) plus memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct A;

/// An A-level question or answer `rs@m`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ARegs {
    /// Full register file including `pc`, `sp` and `ra`.
    pub rs: Regset,
    /// Memory.
    pub mem: Mem,
}

impl LanguageInterface for A {
    type Question = ARegs;
    type Answer = ARegs;
    const NAME: &'static str = "A";
}

// ---------------------------------------------------------------------------
// W — whole-program executions
// ---------------------------------------------------------------------------

/// The whole-program interface (paper §2.2): a single trivial question, and
/// integer exit statuses as answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct W;

impl LanguageInterface for W {
    type Question = ();
    type Answer = i32;
    const NAME: &'static str = "W";
}

// ---------------------------------------------------------------------------
// 1 — the empty interface
// ---------------------------------------------------------------------------

/// A type with no values, used for the moves of the empty interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Void {}

/// The empty language interface `1` (paper Table 2): no moves at all. An LTS
/// of type `One ↠ B` performs no external calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct One;

impl LanguageInterface for One {
    type Question = Void;
    type Answer = Void;
    const NAME: &'static str = "1";
}

// ---------------------------------------------------------------------------
// Shared-memory access
// ---------------------------------------------------------------------------

/// Uniform access to the memory component carried by every question and
/// answer of the concrete interfaces ([`C`], [`L`], [`M`], [`A`]).
///
/// In an open semantics, memory travels *out* of a component through its
/// questions and back *in* through the answers it receives — that seam is
/// exactly where CompCertOC threads shared memory between concurrently
/// executing components. The threaded composition operator
/// ([`crate::threaded::ThreadedLts`]) uses this trait to move its single
/// authoritative global memory into whichever thread it dispatches next, and
/// back out at the next boundary, independent of the interface level the
/// components speak.
pub trait SharedMem {
    /// The memory component of this move.
    fn mem(&self) -> &Mem;
    /// Replace the memory component of this move.
    fn set_mem(&mut self, m: Mem);
    /// Move the memory component out, leaving an empty memory behind.
    fn take_mem(&mut self) -> Mem;
}

macro_rules! shared_mem_impl {
    ($($t:ty),*) => {$(
        impl SharedMem for $t {
            fn mem(&self) -> &Mem {
                &self.mem
            }
            fn set_mem(&mut self, m: Mem) {
                self.mem = m;
            }
            fn take_mem(&mut self) -> Mem {
                std::mem::take(&mut self.mem)
            }
        }
    )*};
}

// `ARegs` serves as both the question and the answer of `A`, so one impl
// covers both directions there.
shared_mem_impl!(CQuery, CReply, LQuery, LReply, MQuery, MReply, ARegs);

/// Calling-convention constants shared by the whole pipeline: which machine
/// registers carry arguments, results, and which are callee-save.
pub mod abi {
    use super::*;

    /// Registers carrying the first arguments (`r0..r3`).
    pub const PARAM_REGS: [Mreg; 4] = [Mreg(0), Mreg(1), Mreg(2), Mreg(3)];
    /// Register carrying the result.
    pub const RESULT_REG: Mreg = Mreg(0);
    /// Callee-save registers (`r8..r13`).
    pub const CALLEE_SAVE: [Mreg; 6] = [Mreg(8), Mreg(9), Mreg(10), Mreg(11), Mreg(12), Mreg(13)];
    /// Scratch registers reserved for the code generator (`r14`, `r15`).
    pub const SCRATCH: [Mreg; 2] = [Mreg(14), Mreg(15)];

    /// Is `r` callee-save?
    pub fn is_callee_save(r: Mreg) -> bool {
        CALLEE_SAVE.contains(&r)
    }

    /// Where each argument of a call with signature `sg` lives
    /// (CompCert's `loc_arguments`): the first four in [`PARAM_REGS`], the
    /// rest in `Outgoing` stack slots at 8-byte strides.
    pub fn loc_arguments(sg: &Signature) -> Vec<crate::regs::Loc> {
        use crate::regs::Loc;
        sg.params
            .iter()
            .enumerate()
            .map(|(i, _)| {
                if i < PARAM_REGS.len() {
                    Loc::Reg(PARAM_REGS[i])
                } else {
                    Loc::Outgoing(((i - PARAM_REGS.len()) * 8) as i64)
                }
            })
            .collect()
    }

    /// Size in bytes of the stack-argument region of a call with signature
    /// `sg` (CompCert's `size_arguments`).
    pub fn size_arguments(sg: &Signature) -> i64 {
        (sg.params.len().saturating_sub(PARAM_REGS.len()) * 8) as i64
    }

    /// The location of the result of a call with signature `sg`
    /// (CompCert's `loc_result`).
    pub fn loc_result(_sg: &Signature) -> Mreg {
        RESULT_REG
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::Loc;

    #[test]
    fn signature_display() {
        let sg = Signature::new(vec![Typ::I32, Typ::I64], Some(Typ::I32));
        assert_eq!(sg.to_string(), "(i32, i64) -> i32");
        assert_eq!(Signature::new(vec![], None).to_string(), "() -> void");
    }

    #[test]
    fn loc_arguments_registers_then_stack() {
        let sg = Signature::int_fn(6);
        let locs = abi::loc_arguments(&sg);
        assert_eq!(locs[0], Loc::Reg(Mreg(0)));
        assert_eq!(locs[3], Loc::Reg(Mreg(3)));
        assert_eq!(locs[4], Loc::Outgoing(0));
        assert_eq!(locs[5], Loc::Outgoing(8));
        assert_eq!(abi::size_arguments(&sg), 16);
        assert_eq!(abi::size_arguments(&Signature::int_fn(2)), 0);
    }

    #[test]
    fn callee_save_classification() {
        assert!(abi::is_callee_save(Mreg(8)));
        assert!(!abi::is_callee_save(Mreg(0)));
        assert!(!abi::is_callee_save(Mreg(14)));
    }
}
