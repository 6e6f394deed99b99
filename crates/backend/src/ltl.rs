//! LTL: RTL after register allocation — operands are abstract *locations*
//! (machine registers and stack slots), and calls use the fixed ABI
//! locations (paper Table 3; language interface `L`, Table 2).
//!
//! The semantics models the callee-save guarantee relationally, as CompCert
//! does: when control returns (to a caller or to the environment), callee-save
//! registers are forced back to the values the caller had
//! (`return_regs`), so a miscompiled component that clobbers them is caught
//! by the `CL`/`LM` convention checks rather than silently propagated.

use std::collections::BTreeMap;

use compcerto_core::iface::{abi, LQuery, LReply, Signature, L};
use compcerto_core::lts::{Lts, Step, Stuck};
use compcerto_core::regs::{Loc, Locset, Mreg};
use compcerto_core::symtab::{Ident, SymbolTable};
use mem::{BlockId, Chunk, Mem, Val};
use minor::{MBinop, MUnop};

/// A CFG node.
pub type Node = u32;

/// Pure operations over locations.
#[derive(Debug, Clone, PartialEq)]
pub enum LOp {
    /// Copy a location.
    Move(Loc),
    /// 32-bit constant.
    Int(i32),
    /// 64-bit constant.
    Long(i64),
    /// Global address plus displacement.
    AddrGlobal(Ident, i64),
    /// Address within the activation's stack-data block.
    AddrStack(i64),
    /// Unary operation.
    Unop(MUnop, Loc),
    /// Binary operation.
    Binop(MBinop, Loc, Loc),
    /// Binary operation with immediate.
    BinopImm(MBinop, Loc, Val),
}

/// LTL instructions (CFG form).
#[derive(Debug, Clone, PartialEq)]
pub enum LtlInst {
    /// `dst := op`.
    Op(LOp, Loc, Node),
    /// `dst := chunk[addr_loc + disp]`.
    Load(Chunk, Loc, i64, Loc, Node),
    /// `chunk[addr_loc + disp] := src`.
    Store(Chunk, Loc, i64, Loc, Node),
    /// Call through the ABI locations (arguments pre-placed, result in the
    /// result register).
    Call(Ident, Signature, Node),
    /// Branch on the truth of a location.
    Cond(Loc, Node, Node),
    /// No-op.
    Nop(Node),
    /// Return (result pre-placed in the result register).
    Return,
}

impl LtlInst {
    /// Successors in the CFG.
    pub fn successors(&self) -> Vec<Node> {
        match self {
            LtlInst::Op(_, _, n)
            | LtlInst::Load(_, _, _, _, n)
            | LtlInst::Store(_, _, _, _, n)
            | LtlInst::Call(_, _, n)
            | LtlInst::Nop(n) => vec![*n],
            LtlInst::Cond(_, t, f) => vec![*t, *f],
            LtlInst::Return => vec![],
        }
    }
}

/// An LTL function.
#[derive(Debug, Clone, PartialEq)]
pub struct LtlFunction {
    /// Name.
    pub name: Ident,
    /// Signature.
    pub sig: Signature,
    /// Stack-data block size (from Cminor).
    pub stack_size: i64,
    /// Size of the spill area (`Local` slots), in bytes.
    pub locals_size: i64,
    /// Size of the outgoing-arguments area, in bytes.
    pub outgoing_size: i64,
    /// Callee-save registers this function may write.
    pub used_callee_save: Vec<Mreg>,
    /// Entry node.
    pub entry: Node,
    /// The CFG.
    pub code: BTreeMap<Node, LtlInst>,
}

/// An LTL translation unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LtlProgram {
    /// Function definitions.
    pub functions: Vec<LtlFunction>,
    /// Known externals.
    pub externs: Vec<(Ident, Signature)>,
}

impl LtlProgram {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&LtlFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Signature of a definition or external.
    pub fn sig_of(&self, name: &str) -> Option<Signature> {
        self.function(name).map(|f| f.sig.clone()).or_else(|| {
            self.externs
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| s.clone())
        })
    }

    /// Map functions through `f`.
    pub fn map_functions(&self, f: impl Fn(&LtlFunction) -> LtlFunction) -> LtlProgram {
        LtlProgram {
            functions: self.functions.iter().map(f).collect(),
            externs: self.externs.clone(),
        }
    }
}

/// `return_regs caller callee` (CompCert): callee-save registers come from
/// the caller's location map (modelling their preservation), everything else
/// from the callee's; stack slots come from the caller.
pub fn return_regs(caller: &Locset, callee: &Locset) -> Locset {
    let mut out = Locset::new();
    for (l, v) in caller.iter() {
        out.set(l, v);
    }
    for r in Mreg::all() {
        if abi::is_callee_save(r) {
            out.set(Loc::Reg(r), caller.get(Loc::Reg(r)));
        } else {
            out.set(Loc::Reg(r), callee.get(Loc::Reg(r)));
        }
    }
    out
}

/// An LTL activation.
#[derive(Debug, Clone, Default)]
pub struct LtlFrame {
    fname: Ident,
    pc: Node,
    ls: Locset,
    /// Location map at entry (for `return_regs` on the way out).
    entry_ls: Locset,
    sp: BlockId,
}

/// States of the LTL LTS.
#[derive(Debug, Clone)]
pub enum LtlState {
    /// Entering an internal function.
    Call {
        /// Callee.
        fname: Ident,
        /// Locations at the call.
        ls: Locset,
        /// Memory.
        mem: Mem,
        /// Suspended callers.
        stack: Vec<LtlFrame>,
    },
    /// Executing.
    Exec {
        /// Active frame.
        cur: LtlFrame,
        /// Memory.
        mem: Mem,
        /// Suspended callers.
        stack: Vec<LtlFrame>,
    },
    /// Suspended on an external call.
    External {
        /// The question.
        q: LQuery,
        /// Active frame.
        cur: LtlFrame,
        /// Suspended callers.
        stack: Vec<LtlFrame>,
    },
    /// Returning: the callee's final location map propagates to the caller.
    Ret {
        /// Callee's final locations.
        ls: Locset,
        /// Memory.
        mem: Mem,
        /// Suspended callers.
        stack: Vec<LtlFrame>,
    },
}

/// The open semantics `LTL(p) : L ↠ L`.
#[derive(Debug, Clone)]
pub struct LtlSem {
    prog: LtlProgram,
    symtab: SymbolTable,
    label: String,
}

impl LtlSem {
    /// Wrap a program with the shared symbol table.
    pub fn new(prog: LtlProgram, symtab: SymbolTable) -> LtlSem {
        LtlSem {
            prog,
            symtab,
            label: "LTL".into(),
        }
    }

    /// Override the display label.
    pub fn with_label(mut self, label: impl Into<String>) -> LtlSem {
        self.label = label.into();
        self
    }

    /// The program.
    pub fn program(&self) -> &LtlProgram {
        &self.prog
    }

    /// The symbol table.
    pub fn symtab(&self) -> &SymbolTable {
        &self.symtab
    }

    fn stuck<T>(&self, msg: impl Into<String>) -> Result<T, Stuck> {
        Err(Stuck::new(format!("{}: {}", self.label, msg.into())))
    }

    fn eval_op(&self, frame: &LtlFrame, op: &LOp) -> Result<Val, Stuck> {
        Ok(match op {
            LOp::Move(l) => frame.ls.get(*l),
            LOp::Int(n) => Val::Int(*n),
            LOp::Long(n) => Val::Long(*n),
            LOp::AddrGlobal(s, d) => match self.symtab.block_of(s) {
                Some(b) => Val::Ptr(b, *d),
                None => return self.stuck(format!("unknown symbol `{s}`")),
            },
            LOp::AddrStack(o) => Val::Ptr(frame.sp, *o),
            LOp::Unop(m, l) => m.eval(frame.ls.get(*l)),
            LOp::Binop(m, a, b) => m.eval(frame.ls.get(*a), frame.ls.get(*b)),
            LOp::BinopImm(m, a, i) => m.eval(frame.ls.get(*a), *i),
        })
    }

    fn exec_inst(
        &self,
        f: &LtlFunction,
        cur: &LtlFrame,
        mem: &Mem,
        stack: &[LtlFrame],
    ) -> Result<LtlState, Stuck> {
        let Some(inst) = f.code.get(&cur.pc) else {
            return self.stuck(format!("no instruction at {}:{}", cur.fname, cur.pc));
        };
        match inst {
            LtlInst::Nop(n) => Ok(LtlState::Exec {
                cur: LtlFrame {
                    pc: *n,
                    ..cur.clone()
                },
                mem: mem.clone(),
                stack: stack.to_vec(),
            }),
            LtlInst::Op(op, dst, n) => {
                let v = self.eval_op(cur, op)?;
                let mut frame = cur.clone();
                frame.ls.set(*dst, v);
                frame.pc = *n;
                Ok(LtlState::Exec {
                    cur: frame,
                    mem: mem.clone(),
                    stack: stack.to_vec(),
                })
            }
            LtlInst::Load(chunk, base, disp, dst, n) => {
                let addr = cur.ls.get(*base).add(Val::Long(*disp));
                let v = match mem.loadv(*chunk, addr) {
                    Ok(v) => v,
                    Err(e) => return self.stuck(format!("load failed: {e}")),
                };
                let mut frame = cur.clone();
                frame.ls.set(*dst, v);
                frame.pc = *n;
                Ok(LtlState::Exec {
                    cur: frame,
                    mem: mem.clone(),
                    stack: stack.to_vec(),
                })
            }
            LtlInst::Store(chunk, base, disp, src, n) => {
                let addr = cur.ls.get(*base).add(Val::Long(*disp));
                let mut mem = mem.clone();
                if let Err(e) = mem.storev(*chunk, addr, cur.ls.get(*src)) {
                    return self.stuck(format!("store failed: {e}"));
                }
                Ok(LtlState::Exec {
                    cur: LtlFrame {
                        pc: *n,
                        ..cur.clone()
                    },
                    mem,
                    stack: stack.to_vec(),
                })
            }
            LtlInst::Cond(l, t, e) => match cur.ls.get(*l).truth() {
                Some(b) => Ok(LtlState::Exec {
                    cur: LtlFrame {
                        pc: if b { *t } else { *e },
                        ..cur.clone()
                    },
                    mem: mem.clone(),
                    stack: stack.to_vec(),
                }),
                None => self.stuck("undefined branch condition"),
            },
            LtlInst::Call(callee, sig, _) => {
                if self.prog.function(callee).is_some() {
                    let mut stack = stack.to_vec();
                    stack.push(cur.clone());
                    Ok(LtlState::Call {
                        fname: callee.clone(),
                        ls: cur.ls.clone(),
                        mem: mem.clone(),
                        stack,
                    })
                } else {
                    let Some(vf) = self.symtab.func_ptr(callee) else {
                        return self.stuck(format!("unknown callee `{callee}`"));
                    };
                    Ok(LtlState::External {
                        q: LQuery {
                            vf,
                            sig: sig.clone(),
                            ls: cur.ls.clone(),
                            mem: mem.clone(),
                        },
                        cur: cur.clone(),
                        stack: stack.to_vec(),
                    })
                }
            }
            LtlInst::Return => {
                let mut mem = mem.clone();
                if let Err(e) = mem.free(cur.sp, 0, f.stack_size) {
                    return self.stuck(format!("freeing stack data: {e}"));
                }
                // The caller (or environment) sees callee-save registers
                // restored per `return_regs`.
                let ls = return_regs(&cur.entry_ls, &cur.ls);
                Ok(LtlState::Ret {
                    ls,
                    mem,
                    stack: stack.to_vec(),
                })
            }
        }
    }
}

impl Lts for LtlSem {
    type I = L;
    type O = L;
    type State = LtlState;

    fn name(&self) -> String {
        self.label.clone()
    }

    fn accepts(&self, q: &LQuery) -> bool {
        match &q.vf {
            Val::Ptr(b, 0) => match self.symtab.ident_of(*b) {
                Some(name) => self
                    .prog
                    .function(name)
                    .map(|f| f.sig == q.sig)
                    .unwrap_or(false),
                None => false,
            },
            _ => false,
        }
    }

    fn initial(&self, q: &LQuery) -> Result<LtlState, Stuck> {
        if !self.accepts(q) {
            return self.stuck("query not accepted");
        }
        let Val::Ptr(b, 0) = q.vf else {
            return self.stuck("accepted query has a non-pointer vf");
        };
        let Some(name) = self.symtab.ident_of(b) else {
            return self.stuck("accepted query names an unknown block");
        };
        Ok(LtlState::Call {
            fname: name.to_string(),
            ls: q.ls.clone(),
            mem: q.mem.clone(),
            stack: vec![],
        })
    }

    fn step(&self, s: &LtlState) -> Step<LtlState, LQuery, LReply> {
        match s {
            LtlState::Call {
                fname,
                ls,
                mem,
                stack,
            } => {
                let Some(f) = self.prog.function(fname) else {
                    return Step::Stuck(Stuck::new(format!("unknown function `{fname}`")));
                };
                let mut mem = mem.clone();
                let sp = mem.alloc(0, f.stack_size);
                // Callee view: the caller's outgoing slots become incoming.
                let entry_ls = ls.shift_incoming();
                Step::Internal(
                    LtlState::Exec {
                        cur: LtlFrame {
                            fname: fname.clone(),
                            pc: f.entry,
                            ls: entry_ls.clone(),
                            entry_ls,
                            sp,
                        },
                        mem,
                        stack: stack.clone(),
                    },
                    vec![],
                )
            }
            LtlState::Exec { cur, mem, stack } => {
                let Some(f) = self.prog.function(&cur.fname) else {
                    return Step::Stuck(Stuck::new("frame names unknown function"));
                };
                match self.exec_inst(f, cur, mem, stack) {
                    Ok(next) => Step::Internal(next, vec![]),
                    Err(stuck) => Step::Stuck(stuck),
                }
            }
            LtlState::Ret { ls, mem, stack } => {
                if stack.is_empty() {
                    return Step::Final(LReply {
                        ls: ls.clone(),
                        mem: mem.clone(),
                    });
                }
                let mut stack = stack.clone();
                let Some(mut caller) = stack.pop() else {
                    return Step::Stuck(Stuck::new("return with no caller frame"));
                };
                let Some(cf) = self.prog.function(&caller.fname) else {
                    return Step::Stuck(Stuck::new("caller frame names unknown function"));
                };
                let Some(LtlInst::Call(_, _, next)) = cf.code.get(&caller.pc) else {
                    return Step::Stuck(Stuck::new("caller pc is not at a call"));
                };
                caller.ls = return_regs(&caller.ls, ls);
                caller.pc = *next;
                Step::Internal(
                    LtlState::Exec {
                        cur: caller,
                        mem: mem.clone(),
                        stack,
                    },
                    vec![],
                )
            }
            LtlState::External { q, .. } => Step::External(q.clone()),
        }
    }

    fn resume(&self, s: &mut LtlState, a: LReply) -> Result<(), Stuck> {
        let LtlState::External { cur, stack, .. } = s else {
            return self.stuck("resume in non-external state");
        };
        let Some(f) = self.prog.function(&cur.fname) else {
            return self.stuck("frame names unknown function");
        };
        let Some(LtlInst::Call(_, _, next)) = f.code.get(&cur.pc) else {
            return self.stuck("external frame pc is not at a call");
        };
        cur.ls = return_regs(&cur.ls, &a.ls);
        cur.pc = *next;
        *s = LtlState::Exec {
            cur: std::mem::take(cur),
            mem: a.mem,
            stack: std::mem::take(stack),
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compcerto_core::lts::run;
    use compcerto_core::symtab::GlobKind;

    /// `int addmul(a, b) = a * b + a`, hand-allocated:
    /// args in r0, r1; result in r0.
    fn sample() -> (LtlSem, Mem) {
        let r = |i: u8| Loc::Reg(Mreg(i));
        let mut code = BTreeMap::new();
        code.insert(
            0,
            LtlInst::Op(LOp::Binop(MBinop::Mul32, r(0), r(1)), r(4), 1),
        );
        code.insert(
            1,
            LtlInst::Op(LOp::Binop(MBinop::Add32, r(4), r(0)), r(0), 2),
        );
        code.insert(2, LtlInst::Return);
        let f = LtlFunction {
            name: "addmul".into(),
            sig: Signature::int_fn(2),
            stack_size: 0,
            locals_size: 0,
            outgoing_size: 0,
            used_callee_save: vec![],
            entry: 0,
            code,
        };
        let prog = LtlProgram {
            functions: vec![f],
            externs: vec![],
        };
        let mut tbl = SymbolTable::new();
        tbl.define("addmul".into(), GlobKind::Func(Signature::int_fn(2)));
        let mem = tbl.build_init_mem().unwrap();
        (LtlSem::new(prog, tbl), mem)
    }

    #[test]
    fn executes_with_abi_locations() {
        let (sem, mem) = sample();
        let ls = Locset::new()
            .with(Loc::Reg(Mreg(0)), Val::Int(6))
            .with(Loc::Reg(Mreg(1)), Val::Int(7));
        let q = LQuery {
            vf: sem.symtab().func_ptr("addmul").unwrap(),
            sig: Signature::int_fn(2),
            ls,
            mem,
        };
        let r = run(&sem, &q, &mut |_q| None, 1000).expect_complete();
        assert_eq!(r.ls.get(Loc::Reg(abi::RESULT_REG)), Val::Int(48));
    }

    #[test]
    fn callee_save_registers_are_restored() {
        let (sem, mem) = sample();
        let ls = Locset::new()
            .with(Loc::Reg(Mreg(0)), Val::Int(1))
            .with(Loc::Reg(Mreg(1)), Val::Int(2))
            .with(Loc::Reg(Mreg(8)), Val::Int(1234)); // callee-save
        let q = LQuery {
            vf: sem.symtab().func_ptr("addmul").unwrap(),
            sig: Signature::int_fn(2),
            ls,
            mem,
        };
        let r = run(&sem, &q, &mut |_q| None, 1000).expect_complete();
        assert_eq!(r.ls.get(Loc::Reg(Mreg(8))), Val::Int(1234));
    }

    #[test]
    fn return_regs_mixes_correctly() {
        let caller = Locset::new()
            .with(Loc::Reg(Mreg(8)), Val::Int(1))
            .with(Loc::Reg(Mreg(0)), Val::Int(2));
        let callee = Locset::new()
            .with(Loc::Reg(Mreg(8)), Val::Int(99))
            .with(Loc::Reg(Mreg(0)), Val::Int(42));
        let out = return_regs(&caller, &callee);
        assert_eq!(out.get(Loc::Reg(Mreg(8))), Val::Int(1)); // callee-save: caller's
        assert_eq!(out.get(Loc::Reg(Mreg(0))), Val::Int(42)); // result: callee's
    }
}
