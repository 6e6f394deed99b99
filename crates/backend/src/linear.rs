//! Linear: LTL with instructions in a list, labels, and explicit branches
//! (paper Table 3; language interface `L`).

use std::collections::BTreeMap;

use compcerto_core::iface::{LQuery, LReply, Signature, L};
use compcerto_core::lts::{Batch, Event, Lts, Stuck};
use compcerto_core::regs::{Loc, Locset, Mreg};
use compcerto_core::symtab::{Ident, SymbolTable};
use mem::{BlockId, Chunk, Mem, Val};

use crate::ltl::{return_regs, LOp};

/// A branch label.
pub type Label = u32;

/// Linear instructions.
#[derive(Debug, Clone, PartialEq)]
pub enum LinInst {
    /// `dst := op`.
    Op(LOp, Loc),
    /// `dst := chunk[addr + disp]`.
    Load(Chunk, Loc, i64, Loc),
    /// `chunk[addr + disp] := src`.
    Store(Chunk, Loc, i64, Loc),
    /// ABI call.
    Call(Ident, Signature),
    /// A jump target.
    Label(Label),
    /// Unconditional branch.
    Goto(Label),
    /// Branch when the location is true; fall through otherwise.
    CondGoto(Loc, Label),
    /// Return.
    Return,
}

/// A Linear function.
#[derive(Debug, Clone, PartialEq)]
pub struct LinFunction {
    /// Name.
    pub name: Ident,
    /// Signature.
    pub sig: Signature,
    /// Stack-data size.
    pub stack_size: i64,
    /// Spill-area size.
    pub locals_size: i64,
    /// Outgoing-arguments area size.
    pub outgoing_size: i64,
    /// Callee-save registers written by the body.
    pub used_callee_save: Vec<Mreg>,
    /// Debug-variable annotations (maintained by the `Debugvar` pass).
    pub debug: Vec<(String, Loc)>,
    /// Instruction list.
    pub code: Vec<LinInst>,
}

/// A Linear translation unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinProgram {
    /// Function definitions.
    pub functions: Vec<LinFunction>,
    /// Known externals.
    pub externs: Vec<(Ident, Signature)>,
}

impl LinProgram {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&LinFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Map functions through `f`.
    pub fn map_functions(&self, f: impl Fn(&LinFunction) -> LinFunction) -> LinProgram {
        LinProgram {
            functions: self.functions.iter().map(f).collect(),
            externs: self.externs.clone(),
        }
    }
}

/// A Linear activation.
#[derive(Debug, Clone, Default)]
pub struct LinFrame {
    fname: Ident,
    pc: usize,
    ls: Locset,
    entry_ls: Locset,
    sp: BlockId,
}

/// States of the Linear LTS.
#[derive(Debug, Clone)]
pub enum LinState {
    /// Entering an internal function.
    Call {
        /// Callee.
        fname: Ident,
        /// Locations.
        ls: Locset,
        /// Memory.
        mem: Mem,
        /// Suspended callers.
        stack: Vec<LinFrame>,
    },
    /// Executing.
    Exec {
        /// Active frame.
        cur: LinFrame,
        /// Memory.
        mem: Mem,
        /// Suspended callers.
        stack: Vec<LinFrame>,
    },
    /// Suspended on an external call.
    External {
        /// The question.
        q: LQuery,
        /// Active frame.
        cur: LinFrame,
        /// Suspended callers.
        stack: Vec<LinFrame>,
    },
    /// Returning.
    Ret {
        /// Final locations.
        ls: Locset,
        /// Memory.
        mem: Mem,
        /// Suspended callers.
        stack: Vec<LinFrame>,
    },
}

/// The open semantics `Linear(p) : L ↠ L`.
#[derive(Debug, Clone)]
pub struct LinearSem {
    prog: LinProgram,
    symtab: SymbolTable,
    label: String,
    /// Function index by name (first definition wins, like
    /// [`LinProgram::function`]).
    fidx_of_name: BTreeMap<Ident, usize>,
    /// Per-function label → instruction index, parallel to
    /// `prog.functions`.
    labels: Vec<BTreeMap<Label, usize>>,
}

impl LinearSem {
    /// Wrap a program with the shared symbol table.
    pub fn new(prog: LinProgram, symtab: SymbolTable) -> LinearSem {
        let mut fidx_of_name = BTreeMap::new();
        let mut labels = Vec::with_capacity(prog.functions.len());
        for (i, f) in prog.functions.iter().enumerate() {
            fidx_of_name.entry(f.name.clone()).or_insert(i);
            labels.push(label_targets(f));
        }
        LinearSem {
            prog,
            symtab,
            label: "Linear".into(),
            fidx_of_name,
            labels,
        }
    }

    /// Override the display label.
    pub fn with_label(mut self, label: impl Into<String>) -> LinearSem {
        self.label = label.into();
        self
    }

    /// The program.
    pub fn program(&self) -> &LinProgram {
        &self.prog
    }

    /// The symbol table.
    pub fn symtab(&self) -> &SymbolTable {
        &self.symtab
    }

    fn stuck<T>(&self, msg: impl Into<String>) -> Result<T, Stuck> {
        Err(Stuck::new(format!("{}: {}", self.label, msg.into())))
    }

    fn eval_op(&self, frame: &LinFrame, op: &LOp) -> Result<Val, Stuck> {
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
}

impl Lts for LinearSem {
    type I = L;
    type O = L;
    type State = LinState;

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

    fn initial(&self, q: &LQuery) -> Result<LinState, Stuck> {
        if !self.accepts(q) {
            return self.stuck("query not accepted");
        }
        let Val::Ptr(b, 0) = q.vf else {
            return self.stuck("accepted query has a non-pointer vf");
        };
        let Some(name) = self.symtab.ident_of(b) else {
            return self.stuck("accepted query names an unknown block");
        };
        Ok(LinState::Call {
            fname: name.to_string(),
            ls: q.ls.clone(),
            mem: q.mem.clone(),
            stack: vec![],
        })
    }

    /// The instruction semantics (DESIGN.md §13), run in place: no
    /// per-instruction frame/locset/memory clones, no caller-stack copies,
    /// and label targets from the precomputed maps. `step` is this loop at
    /// fuel 1.
    #[allow(clippy::too_many_lines)]
    fn step_batch(
        &self,
        s: &mut LinState,
        fuel_left: u64,
        _events: &mut Vec<Event>,
    ) -> Batch<LQuery, LReply> {
        let prefixed = |msg: String| Stuck::new(format!("{}: {msg}", self.label));
        let mut st = std::mem::replace(
            s,
            LinState::Ret {
                ls: Locset::new(),
                mem: Mem::new(),
                stack: Vec::new(),
            },
        );
        let mut n: u64 = 0;
        loop {
            match st {
                // Only reachable at batch entry: external calls made inside
                // the batch return directly from the `Exec` arm below.
                LinState::External { q, cur, stack } => {
                    let out = q.clone();
                    *s = LinState::External { q, cur, stack };
                    return Batch::External(n, out);
                }
                LinState::Call {
                    fname,
                    ls,
                    mut mem,
                    stack,
                } => {
                    if n == fuel_left {
                        *s = LinState::Call {
                            fname,
                            ls,
                            mem,
                            stack,
                        };
                        return Batch::Ran(n);
                    }
                    let Some(&fi) = self.fidx_of_name.get(&fname) else {
                        return Batch::Stuck(n, Stuck::new(format!("unknown function `{fname}`")));
                    };
                    let f = &self.prog.functions[fi];
                    let sp = mem.alloc(0, f.stack_size);
                    let entry_ls = ls.shift_incoming();
                    n += 1;
                    st = LinState::Exec {
                        cur: LinFrame {
                            fname,
                            pc: 0,
                            ls: entry_ls.clone(),
                            entry_ls,
                            sp,
                        },
                        mem,
                        stack,
                    };
                }
                LinState::Exec {
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
                            *s = LinState::Exec { cur, mem, stack };
                            return Batch::Ran(n);
                        }
                        let Some(inst) = f.code.get(cur.pc) else {
                            return Batch::Stuck(
                                n,
                                prefixed(format!("pc {} past end of `{}`", cur.pc, cur.fname)),
                            );
                        };
                        match inst {
                            LinInst::Label(_) => {
                                cur.pc += 1;
                                n += 1;
                            }
                            LinInst::Op(op, dst) => {
                                let v = match self.eval_op(&cur, op) {
                                    Ok(v) => v,
                                    Err(e) => return Batch::Stuck(n, e),
                                };
                                cur.ls.set(*dst, v);
                                cur.pc += 1;
                                n += 1;
                            }
                            LinInst::Load(chunk, base, disp, dst) => {
                                let addr = cur.ls.get(*base).add(Val::Long(*disp));
                                let v = match mem.loadv(*chunk, addr) {
                                    Ok(v) => v,
                                    Err(e) => {
                                        return Batch::Stuck(
                                            n,
                                            prefixed(format!("load failed: {e}")),
                                        )
                                    }
                                };
                                cur.ls.set(*dst, v);
                                cur.pc += 1;
                                n += 1;
                            }
                            LinInst::Store(chunk, base, disp, src) => {
                                let addr = cur.ls.get(*base).add(Val::Long(*disp));
                                if let Err(e) = mem.storev(*chunk, addr, cur.ls.get(*src)) {
                                    return Batch::Stuck(
                                        n,
                                        prefixed(format!("store failed: {e}")),
                                    );
                                }
                                cur.pc += 1;
                                n += 1;
                            }
                            LinInst::Goto(l) => match labels.get(l) {
                                Some(&i) => {
                                    cur.pc = i;
                                    n += 1;
                                }
                                None => {
                                    return Batch::Stuck(n, prefixed(format!("missing label {l}")))
                                }
                            },
                            LinInst::CondGoto(loc, l) => match cur.ls.get(*loc).truth() {
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
                            LinInst::Call(callee, sig) => {
                                if self.fidx_of_name.contains_key(callee) {
                                    let fname = callee.clone();
                                    let ls = cur.ls.clone();
                                    stack.push(cur);
                                    n += 1;
                                    st = LinState::Call {
                                        fname,
                                        ls,
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
                                n += 1;
                                let q = LQuery {
                                    vf,
                                    sig: sig.clone(),
                                    ls: cur.ls.clone(),
                                    mem,
                                };
                                let out = q.clone();
                                *s = LinState::External { q, cur, stack };
                                return if n == fuel_left {
                                    Batch::Ran(n)
                                } else {
                                    Batch::External(n, out)
                                };
                            }
                            LinInst::Return => {
                                if let Err(e) = mem.free(cur.sp, 0, f.stack_size) {
                                    return Batch::Stuck(
                                        n,
                                        prefixed(format!("freeing stack data: {e}")),
                                    );
                                }
                                let ls = return_regs(&cur.entry_ls, &cur.ls);
                                n += 1;
                                st = LinState::Ret { ls, mem, stack };
                                break;
                            }
                        }
                    }
                }
                LinState::Ret { ls, mem, mut stack } => {
                    if n == fuel_left {
                        *s = LinState::Ret { ls, mem, stack };
                        return Batch::Ran(n);
                    }
                    if stack.is_empty() {
                        return Batch::Final(n, LReply { ls, mem });
                    }
                    let Some(mut caller) = stack.pop() else {
                        return Batch::Stuck(n, Stuck::new("return with no caller frame"));
                    };
                    caller.ls = return_regs(&caller.ls, &ls);
                    caller.pc += 1;
                    n += 1;
                    st = LinState::Exec {
                        cur: caller,
                        mem,
                        stack,
                    };
                }
            }
        }
    }

    fn resume(&self, s: &mut LinState, a: LReply) -> Result<(), Stuck> {
        let LinState::External { cur, stack, .. } = s else {
            return self.stuck("resume in non-external state");
        };
        cur.ls = return_regs(&cur.ls, &a.ls);
        cur.pc += 1;
        *s = LinState::Exec {
            cur: std::mem::take(cur),
            mem: a.mem,
            stack: std::mem::take(stack),
        };
        Ok(())
    }
}

/// Map from labels to instruction indices, reading each instruction's
/// label with `label_of` (shared by the Linear, Mach and Asm semantics). A
/// label defined twice maps to its first definition, as CompCert's
/// `find_label` does.
pub(crate) fn first_label_targets<I>(
    code: &[I],
    label_of: impl Fn(&I) -> Option<Label>,
) -> BTreeMap<Label, usize> {
    let mut targets = BTreeMap::new();
    for (i, inst) in code.iter().enumerate() {
        if let Some(l) = label_of(inst) {
            targets.entry(l).or_insert(i);
        }
    }
    targets
}

/// Map from labels to instruction indices.
pub fn label_targets(f: &LinFunction) -> BTreeMap<Label, usize> {
    first_label_targets(&f.code, |i| match i {
        LinInst::Label(l) => Some(*l),
        _ => None,
    })
}
