//! Mach: Linear with concrete activation records (paper Table 3; language
//! interface `M`, Table 2).
//!
//! Each activation owns a frame block laid out by `Stacking`
//! (see [`crate::stacking::FrameLayout`]); spill slots and the former
//! Cminor stack data live inside it, stack-passed arguments are read from the
//! *caller's* frame through the incoming stack pointer (`GetParam`), and
//! callee-save registers are saved/restored explicitly by generated code.
//!
//! Return addresses are opaque at this level; the [`RaOracle`] predicts the
//! Asm-level return address for outgoing calls (CompCert's
//! `return_address_offset`), letting the `MA` convention check `ra` equality
//! between Mach and Asm executions.

use std::collections::BTreeMap;
use std::sync::Arc;

use compcerto_core::iface::{MQuery, MReply, Signature, M};
use compcerto_core::lts::{Batch, Event, Lts, Stuck};
use compcerto_core::regs::{Mreg, NREGS};
use compcerto_core::symtab::{Ident, SymbolTable};
use mem::{BlockId, Chunk, Mem, Val};
use minor::{MBinop, MUnop};

/// A branch label.
pub type Label = u32;

/// Pure operations over machine registers.
#[derive(Debug, Clone, PartialEq)]
pub enum MOp {
    /// Copy a register.
    Move(Mreg),
    /// 32-bit constant.
    Int(i32),
    /// 64-bit constant.
    Long(i64),
    /// Global address plus displacement.
    AddrGlobal(Ident, i64),
    /// Address within the own frame (used for the merged stack data).
    FrameAddr(i64),
    /// Unary operation.
    Unop(MUnop, Mreg),
    /// Binary operation.
    Binop(MBinop, Mreg, Mreg),
    /// Binary operation with immediate.
    BinopImm(MBinop, Mreg, Val),
}

/// Mach instructions.
#[derive(Debug, Clone, PartialEq)]
pub enum MachInst {
    /// `dst := op`.
    Op(MOp, Mreg),
    /// `dst := chunk[base + disp]`.
    Load(Chunk, Mreg, i64, Mreg),
    /// `chunk[base + disp] := src`.
    Store(Chunk, Mreg, i64, Mreg),
    /// Read an own-frame slot (untyped 8-byte).
    GetStack(i64, Mreg),
    /// Write an own-frame slot.
    SetStack(Mreg, i64),
    /// Read a stack-passed parameter from the caller's outgoing area.
    GetParam(i64, Mreg),
    /// ABI call.
    Call(Ident, Signature),
    /// A jump target.
    Label(Label),
    /// Unconditional branch.
    Goto(Label),
    /// Conditional branch.
    CondGoto(Mreg, Label),
    /// Return (frame freed by the semantics; epilogue code restored
    /// callee-saves already).
    Return,
}

/// A Mach function.
#[derive(Debug, Clone, PartialEq)]
pub struct MachFunction {
    /// Name.
    pub name: Ident,
    /// Signature.
    pub sig: Signature,
    /// Total frame size in bytes.
    pub frame_size: i64,
    /// Offset of the merged Cminor stack data within the frame.
    pub stackdata_ofs: i64,
    /// Offset of the outgoing-arguments area within the frame.
    pub outgoing_ofs: i64,
    /// Instruction list.
    pub code: Vec<MachInst>,
}

/// A Mach translation unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachProgram {
    /// Function definitions.
    pub functions: Vec<MachFunction>,
    /// Known externals.
    pub externs: Vec<(Ident, Signature)>,
}

impl MachProgram {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&MachFunction> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// Oracle predicting the Asm-level return address of a call at a Mach
/// program point (CompCert's `return_address_offset`). Built by `Asmgen`;
/// before it runs, the default oracle answers `Undef`.
pub type RaOracle = Arc<dyn Fn(&str, usize) -> Val + Send + Sync>;

/// A Mach activation.
#[derive(Debug, Clone, Default)]
pub struct MachFrame {
    fname: Ident,
    pc: usize,
    regs: [Val; NREGS],
    /// Own frame block.
    fp: BlockId,
    /// Incoming stack pointer (caller's outgoing area).
    parent_sp: Val,
}

/// States of the Mach LTS.
#[derive(Debug, Clone)]
pub enum MachState {
    /// Entering an internal function.
    Call {
        /// Callee.
        fname: Ident,
        /// Registers.
        regs: [Val; NREGS],
        /// Stack pointer handed to the callee.
        sp: Val,
        /// Memory.
        mem: Mem,
        /// Suspended callers.
        stack: Vec<MachFrame>,
    },
    /// Executing.
    Exec {
        /// Active frame.
        cur: MachFrame,
        /// Memory.
        mem: Mem,
        /// Suspended callers.
        stack: Vec<MachFrame>,
    },
    /// Suspended on an external call.
    External {
        /// The question.
        q: MQuery,
        /// Active frame.
        cur: MachFrame,
        /// Suspended callers.
        stack: Vec<MachFrame>,
    },
    /// Returning.
    Ret {
        /// Registers at return.
        regs: [Val; NREGS],
        /// Memory.
        mem: Mem,
        /// Suspended callers.
        stack: Vec<MachFrame>,
    },
}

/// The open semantics `Mach(p) : M ↠ M`.
#[derive(Clone)]
pub struct MachSem {
    prog: MachProgram,
    symtab: SymbolTable,
    ra_oracle: RaOracle,
    label: String,
    /// Function index by name (first definition wins, like
    /// [`MachProgram::function`]).
    fidx_of_name: BTreeMap<Ident, usize>,
    /// Per-function label → instruction index, parallel to
    /// `prog.functions`.
    labels: Vec<BTreeMap<Label, usize>>,
}

impl std::fmt::Debug for MachSem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachSem")
            .field("label", &self.label)
            .finish()
    }
}

impl MachSem {
    /// Wrap a program; the return-address oracle defaults to `Undef`.
    pub fn new(prog: MachProgram, symtab: SymbolTable) -> MachSem {
        let mut fidx_of_name = BTreeMap::new();
        let mut labels = Vec::with_capacity(prog.functions.len());
        for (i, f) in prog.functions.iter().enumerate() {
            fidx_of_name.entry(f.name.clone()).or_insert(i);
            labels.push(label_targets(f));
        }
        MachSem {
            prog,
            symtab,
            ra_oracle: Arc::new(|_, _| Val::Undef),
            label: "Mach".into(),
            fidx_of_name,
            labels,
        }
    }

    /// Install the return-address oracle produced by `Asmgen`.
    pub fn with_ra_oracle(mut self, oracle: RaOracle) -> MachSem {
        self.ra_oracle = oracle;
        self
    }

    /// Override the display label.
    pub fn with_label(mut self, label: impl Into<String>) -> MachSem {
        self.label = label.into();
        self
    }

    /// The program.
    pub fn program(&self) -> &MachProgram {
        &self.prog
    }

    /// The symbol table.
    pub fn symtab(&self) -> &SymbolTable {
        &self.symtab
    }

    fn stuck<T>(&self, msg: impl Into<String>) -> Result<T, Stuck> {
        Err(Stuck::new(format!("{}: {}", self.label, msg.into())))
    }

    fn eval_op(&self, frame: &MachFrame, op: &MOp) -> Result<Val, Stuck> {
        Ok(match op {
            MOp::Move(r) => frame.regs[r.index()],
            MOp::Int(n) => Val::Int(*n),
            MOp::Long(n) => Val::Long(*n),
            MOp::AddrGlobal(s, d) => match self.symtab.block_of(s) {
                Some(b) => Val::Ptr(b, *d),
                None => return self.stuck(format!("unknown symbol `{s}`")),
            },
            MOp::FrameAddr(o) => Val::Ptr(frame.fp, *o),
            MOp::Unop(m, r) => m.eval(frame.regs[r.index()]),
            MOp::Binop(m, a, b) => m.eval(frame.regs[a.index()], frame.regs[b.index()]),
            MOp::BinopImm(m, a, i) => m.eval(frame.regs[a.index()], *i),
        })
    }
}

impl Lts for MachSem {
    type I = M;
    type O = M;
    type State = MachState;

    fn name(&self) -> String {
        self.label.clone()
    }

    fn accepts(&self, q: &MQuery) -> bool {
        match &q.vf {
            Val::Ptr(b, 0) => self
                .symtab
                .ident_of(*b)
                .and_then(|n| self.prog.function(n))
                .is_some(),
            _ => false,
        }
    }

    fn initial(&self, q: &MQuery) -> Result<MachState, Stuck> {
        if !self.accepts(q) {
            return self.stuck("query not accepted");
        }
        let Val::Ptr(b, 0) = q.vf else {
            return self.stuck("accepted query has a non-pointer vf");
        };
        let Some(name) = self.symtab.ident_of(b) else {
            return self.stuck("accepted query names an unknown block");
        };
        Ok(MachState::Call {
            fname: name.to_string(),
            regs: q.rs,
            sp: q.sp,
            mem: q.mem.clone(),
            stack: vec![],
        })
    }

    /// The instruction semantics (DESIGN.md §13), run in place with
    /// precomputed name/label tables. `step` is this loop at fuel 1.
    #[allow(clippy::too_many_lines)]
    fn step_batch(
        &self,
        s: &mut MachState,
        fuel_left: u64,
        _events: &mut Vec<Event>,
    ) -> Batch<MQuery, MReply> {
        let prefixed = |msg: String| Stuck::new(format!("{}: {msg}", self.label));
        let mut st = std::mem::replace(
            s,
            MachState::Ret {
                regs: [Val::Undef; NREGS],
                mem: Mem::new(),
                stack: Vec::new(),
            },
        );
        let mut n: u64 = 0;
        loop {
            match st {
                // Only reachable at batch entry (externals inside the batch
                // return directly from the `Exec` arm).
                MachState::External { q, cur, stack } => {
                    let out = q.clone();
                    *s = MachState::External { q, cur, stack };
                    return Batch::External(n, out);
                }
                MachState::Call {
                    fname,
                    regs,
                    sp,
                    mut mem,
                    stack,
                } => {
                    if n == fuel_left {
                        *s = MachState::Call {
                            fname,
                            regs,
                            sp,
                            mem,
                            stack,
                        };
                        return Batch::Ran(n);
                    }
                    let Some(&fi) = self.fidx_of_name.get(&fname) else {
                        return Batch::Stuck(n, Stuck::new(format!("unknown function `{fname}`")));
                    };
                    let f = &self.prog.functions[fi];
                    let fp = mem.alloc(0, f.frame_size);
                    n += 1;
                    st = MachState::Exec {
                        cur: MachFrame {
                            fname,
                            pc: 0,
                            regs,
                            fp,
                            parent_sp: sp,
                        },
                        mem,
                        stack,
                    };
                }
                MachState::Exec {
                    mut cur,
                    mut mem,
                    mut stack,
                } => {
                    let Some(&fi) = self.fidx_of_name.get(&cur.fname) else {
                        return Batch::Stuck(n, Stuck::new("frame names unknown function"));
                    };
                    let f = &self.prog.functions[fi];
                    let labels = &self.labels[fi];
                    loop {
                        if n == fuel_left {
                            *s = MachState::Exec { cur, mem, stack };
                            return Batch::Ran(n);
                        }
                        let Some(inst) = f.code.get(cur.pc) else {
                            return Batch::Stuck(
                                n,
                                prefixed(format!("pc {} past end of `{}`", cur.pc, cur.fname)),
                            );
                        };
                        match inst {
                            MachInst::Label(_) => {
                                cur.pc += 1;
                                n += 1;
                            }
                            MachInst::Op(op, dst) => {
                                let v = match self.eval_op(&cur, op) {
                                    Ok(v) => v,
                                    Err(e) => return Batch::Stuck(n, e),
                                };
                                cur.regs[dst.index()] = v;
                                cur.pc += 1;
                                n += 1;
                            }
                            MachInst::Load(chunk, base, disp, dst) => {
                                let addr = cur.regs[base.index()].add(Val::Long(*disp));
                                let v = match mem.loadv(*chunk, addr) {
                                    Ok(v) => v,
                                    Err(e) => {
                                        return Batch::Stuck(
                                            n,
                                            prefixed(format!("load failed: {e}")),
                                        )
                                    }
                                };
                                cur.regs[dst.index()] = v;
                                cur.pc += 1;
                                n += 1;
                            }
                            MachInst::Store(chunk, base, disp, src) => {
                                let addr = cur.regs[base.index()].add(Val::Long(*disp));
                                if let Err(e) = mem.storev(*chunk, addr, cur.regs[src.index()]) {
                                    return Batch::Stuck(
                                        n,
                                        prefixed(format!("store failed: {e}")),
                                    );
                                }
                                cur.pc += 1;
                                n += 1;
                            }
                            MachInst::GetStack(ofs, dst) => {
                                let v = match mem.load(Chunk::Any64, cur.fp, *ofs) {
                                    Ok(v) => v,
                                    Err(e) => {
                                        return Batch::Stuck(
                                            n,
                                            prefixed(format!("getstack failed: {e}")),
                                        )
                                    }
                                };
                                cur.regs[dst.index()] = v;
                                cur.pc += 1;
                                n += 1;
                            }
                            MachInst::SetStack(src, ofs) => {
                                if let Err(e) =
                                    mem.store(Chunk::Any64, cur.fp, *ofs, cur.regs[src.index()])
                                {
                                    return Batch::Stuck(
                                        n,
                                        prefixed(format!("setstack failed: {e}")),
                                    );
                                }
                                cur.pc += 1;
                                n += 1;
                            }
                            MachInst::GetParam(ofs, dst) => {
                                let v = match mem
                                    .loadv(Chunk::Any64, cur.parent_sp.add(Val::Long(*ofs)))
                                {
                                    Ok(v) => v,
                                    Err(e) => {
                                        return Batch::Stuck(
                                            n,
                                            prefixed(format!("getparam failed: {e}")),
                                        )
                                    }
                                };
                                cur.regs[dst.index()] = v;
                                cur.pc += 1;
                                n += 1;
                            }
                            MachInst::Goto(l) => match labels.get(l) {
                                Some(&i) => {
                                    cur.pc = i;
                                    n += 1;
                                }
                                None => {
                                    return Batch::Stuck(n, prefixed(format!("missing label {l}")))
                                }
                            },
                            MachInst::CondGoto(r, l) => match cur.regs[r.index()].truth() {
                                Some(true) => match labels.get(l) {
                                    Some(&i) => {
                                        cur.pc = i;
                                        n += 1;
                                    }
                                    None => {
                                        return Batch::Stuck(
                                            n,
                                            prefixed(format!("missing label {l}")),
                                        )
                                    }
                                },
                                Some(false) => {
                                    cur.pc += 1;
                                    n += 1;
                                }
                                None => {
                                    return Batch::Stuck(
                                        n,
                                        prefixed("undefined branch condition".into()),
                                    )
                                }
                            },
                            MachInst::Call(callee, _sig) => {
                                let sp = Val::Ptr(cur.fp, f.outgoing_ofs);
                                if self.fidx_of_name.contains_key(callee) {
                                    let fname = callee.clone();
                                    let regs = cur.regs;
                                    stack.push(cur);
                                    n += 1;
                                    st = MachState::Call {
                                        fname,
                                        regs,
                                        sp,
                                        mem,
                                        stack,
                                    };
                                    break;
                                }
                                let Some(vf) = self.symtab.func_ptr(callee) else {
                                    return Batch::Stuck(
                                        n,
                                        prefixed(format!("unknown callee `{callee}`")),
                                    );
                                };
                                let ra = (self.ra_oracle)(&cur.fname, cur.pc);
                                n += 1;
                                let q = MQuery {
                                    vf,
                                    sp,
                                    ra,
                                    rs: cur.regs,
                                    mem,
                                };
                                let out = q.clone();
                                *s = MachState::External { q, cur, stack };
                                return if n == fuel_left {
                                    Batch::Ran(n)
                                } else {
                                    Batch::External(n, out)
                                };
                            }
                            MachInst::Return => {
                                if let Err(e) = mem.free(cur.fp, 0, f.frame_size) {
                                    return Batch::Stuck(
                                        n,
                                        prefixed(format!("freeing frame: {e}")),
                                    );
                                }
                                let regs = cur.regs;
                                n += 1;
                                st = MachState::Ret { regs, mem, stack };
                                break;
                            }
                        }
                    }
                }
                MachState::Ret {
                    regs,
                    mem,
                    mut stack,
                } => {
                    if n == fuel_left {
                        *s = MachState::Ret { regs, mem, stack };
                        return Batch::Ran(n);
                    }
                    if stack.is_empty() {
                        return Batch::Final(n, MReply { rs: regs, mem });
                    }
                    let Some(mut caller) = stack.pop() else {
                        return Batch::Stuck(n, Stuck::new("return with no caller frame"));
                    };
                    caller.regs = regs;
                    caller.pc += 1;
                    n += 1;
                    st = MachState::Exec {
                        cur: caller,
                        mem,
                        stack,
                    };
                }
            }
        }
    }

    fn resume(&self, s: &mut MachState, a: MReply) -> Result<(), Stuck> {
        let MachState::External { cur, stack, .. } = s else {
            return self.stuck("resume in non-external state");
        };
        cur.regs = a.rs;
        cur.pc += 1;
        *s = MachState::Exec {
            cur: std::mem::take(cur),
            mem: a.mem,
            stack: std::mem::take(stack),
        };
        Ok(())
    }
}

/// Map from labels to indices.
pub fn label_targets(f: &MachFunction) -> BTreeMap<Label, usize> {
    crate::linear::first_label_targets(&f.code, |i| match i {
        MachInst::Label(l) => Some(*l),
        _ => None,
    })
}
