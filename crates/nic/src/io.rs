//! Device I/O primitives at two abstraction levels (paper Example 3.10):
//!
//! * [`IoAtC`] is `σ_io : IO ↠ C` — the primitives as C functions
//!   (`nic_send`, `nic_recv`), the specification the *driver source* is
//!   verified against;
//! * [`IoAtA`] is `σ'_io : IO ↠ A` — the same primitives at the assembly
//!   interface, the specification the *compiled driver* links against.
//!
//! Paper Eqn. (7) — `σ_io ≤_{id↠C} σ'_io` — becomes a checkable statement:
//! the two components are related by the forward-simulation checker under
//! `id` on `IO` (outgoing) and the calling convention on `C`/`A` (incoming);
//! see `scenario::check_eqn7`.

use compcerto_core::iface::{abi, ARegs, CQuery, CReply, Signature, A, C};
use compcerto_core::lts::{Lts, Step, Stuck};
use compcerto_core::regs::Mreg;
use compcerto_core::symtab::{GlobKind, SymbolTable};
use mem::{Mem, Typ, Val};

use crate::iface::{Io, IoOp, IoReply};

/// Signature of `nic_send(long) -> long`.
pub fn sig_send() -> Signature {
    Signature::new(vec![Typ::I64], Some(Typ::I64))
}

/// Signature of `nic_recv() -> long`.
pub fn sig_recv() -> Signature {
    Signature::new(vec![], Some(Typ::I64))
}

/// Register the I/O primitives in a symbol table (idempotent).
pub fn define_io_symbols(tbl: &mut SymbolTable) {
    tbl.define("nic_send".into(), GlobKind::Func(sig_send()));
    tbl.define("nic_recv".into(), GlobKind::Func(sig_recv()));
}

/// `σ_io : IO ↠ C` — the device primitives as C functions.
#[derive(Debug, Clone)]
pub struct IoAtC {
    symtab: SymbolTable,
}

/// State of an I/O primitive activation at the C level.
#[derive(Debug, Clone)]
pub enum IoCState {
    /// About to issue the device transaction.
    Issue(IoOp, Mem),
    /// Waiting for the device.
    Waiting(IoOp, Mem),
    /// Returning the result.
    Done(i64, Mem),
}

impl IoAtC {
    /// Bind the primitives to a symbol table (must contain `nic_send`,
    /// `nic_recv`; see [`define_io_symbols`]).
    pub fn new(symtab: SymbolTable) -> IoAtC {
        IoAtC { symtab }
    }

    fn op_of(&self, q: &CQuery) -> Option<IoOp> {
        let Val::Ptr(b, 0) = q.vf else { return None };
        match self.symtab.ident_of(b)? {
            "nic_send" => match q.args.first() {
                Some(Val::Long(f)) => Some(IoOp::Send(*f)),
                _ => None,
            },
            "nic_recv" => Some(IoOp::Recv),
            _ => None,
        }
    }
}

impl Lts for IoAtC {
    type I = C;
    type O = Io;
    type State = IoCState;

    fn name(&self) -> String {
        "σ_io".into()
    }

    fn accepts(&self, q: &CQuery) -> bool {
        self.op_of(q).is_some()
    }

    fn initial(&self, q: &CQuery) -> Result<IoCState, Stuck> {
        match self.op_of(q) {
            Some(op) => Ok(IoCState::Issue(op, q.mem.clone())),
            None => Err(Stuck::new("σ_io: not an I/O primitive call")),
        }
    }

    fn step(&self, s: &IoCState) -> Step<IoCState, IoOp, CReply> {
        match s {
            IoCState::Issue(op, mem) => {
                Step::Internal(IoCState::Waiting(op.clone(), mem.clone()), vec![])
            }
            IoCState::Waiting(op, _) => Step::External(op.clone()),
            IoCState::Done(v, mem) => Step::Final(CReply {
                retval: Val::Long(*v),
                mem: mem.clone(),
            }),
        }
    }

    fn resume(&self, s: &mut IoCState, a: IoReply) -> Result<(), Stuck> {
        match s {
            IoCState::Waiting(_, mem) => {
                *s = IoCState::Done(a.0, std::mem::take(mem));
                Ok(())
            }
            _ => Err(Stuck::new("σ_io: resume in non-waiting state")),
        }
    }
}

/// `σ'_io : IO ↠ A` — the device primitives at the assembly interface:
/// arguments in ABI registers, result in the result register, control
/// returned through `ra` with `sp` and callee-save registers preserved.
#[derive(Debug, Clone)]
pub struct IoAtA {
    symtab: SymbolTable,
}

/// State of an I/O primitive activation at the assembly level.
#[derive(Debug, Clone)]
pub enum IoAState {
    /// About to issue the transaction (registers retained for the return).
    Issue(IoOp, ARegs),
    /// Waiting for the device.
    Waiting(IoOp, ARegs),
    /// Returning.
    Done(i64, ARegs),
}

impl IoAtA {
    /// Bind the primitives to a symbol table.
    pub fn new(symtab: SymbolTable) -> IoAtA {
        IoAtA { symtab }
    }

    fn op_of(&self, q: &ARegs) -> Option<IoOp> {
        let Val::Ptr(b, 0) = q.rs.pc else { return None };
        match self.symtab.ident_of(b)? {
            "nic_send" => match q.rs.get(abi::PARAM_REGS[0]) {
                Val::Long(f) => Some(IoOp::Send(f)),
                _ => None,
            },
            "nic_recv" => Some(IoOp::Recv),
            _ => None,
        }
    }
}

impl Lts for IoAtA {
    type I = A;
    type O = Io;
    type State = IoAState;

    fn name(&self) -> String {
        "σ'_io".into()
    }

    fn accepts(&self, q: &ARegs) -> bool {
        self.op_of(q).is_some()
    }

    fn initial(&self, q: &ARegs) -> Result<IoAState, Stuck> {
        match self.op_of(q) {
            Some(op) => Ok(IoAState::Issue(op, q.clone())),
            None => Err(Stuck::new("σ'_io: not an I/O primitive call")),
        }
    }

    fn step(&self, s: &IoAState) -> Step<IoAState, IoOp, ARegs> {
        match s {
            IoAState::Issue(op, q) => {
                Step::Internal(IoAState::Waiting(op.clone(), q.clone()), vec![])
            }
            IoAState::Waiting(op, _) => Step::External(op.clone()),
            IoAState::Done(v, q) => {
                // Return per the calling convention: result in the result
                // register, caller-save clobbered, control to `ra`.
                let mut rs = q.rs.clone();
                for r in Mreg::all() {
                    if !abi::is_callee_save(r) {
                        rs.set(r, Val::Undef);
                    }
                }
                rs.set(abi::RESULT_REG, Val::Long(*v));
                rs.pc = q.rs.ra;
                Step::Final(ARegs {
                    rs,
                    mem: q.mem.clone(),
                })
            }
        }
    }

    fn resume(&self, s: &mut IoAState, a: IoReply) -> Result<(), Stuck> {
        match s {
            IoAState::Waiting(_, q) => {
                *s = IoAState::Done(a.0, std::mem::take(q));
                Ok(())
            }
            _ => Err(Stuck::new("σ'_io: resume in non-waiting state")),
        }
    }
}
