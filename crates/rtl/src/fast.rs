//! Prepared ("arena") form of an RTL program and the interpreter behind
//! [`crate::sem::RtlSem`] (DESIGN.md §13).
//!
//! `prepare` runs once per [`RtlSem`] and decodes every function's
//! `BTreeMap<Node, Inst>` CFG into a dense `Vec<UOp>`, one µop per node:
//!
//! * node ids become dense `u32` indices, jump targets are pre-resolved;
//! * function names are interned ([`FuncIndex`]) and callees resolved to
//!   function indices or external function pointers, globals to `Val::Ptr`
//!   constants;
//! * statically-known stuck conditions (missing CFG nodes, unknown symbols)
//!   become `Trap` µops carrying their message, label-free (the label is
//!   prefixed at stuck time).
//!
//! [`step_batch`] is the one step definition: it mutates the frames' dense
//! `Vec<Val>` register files and the memory in place, one step per µop
//! (plus one per function entry and return), and `RtlSem::step` runs it at
//! fuel 1. Answers, step counts, stuck messages and the `mem.*` counter
//! stream are pinned by the committed verdict checksums (DESIGN.md §13).

use std::collections::BTreeMap;

use compcerto_core::iface::{CQuery, CReply, Signature};
use compcerto_core::intern::FuncIndex;
use compcerto_core::lts::{Batch, Stuck};
use compcerto_core::symtab::{Ident, SymbolTable};
use mem::{Chunk, Mem, Val};
use minor::{MBinop, MUnop};

use crate::lang::{Inst, Node, PReg, RtlOp, RtlProgram};
use crate::sem::{RtlFrame, RtlSem, RtlState};

/// A resolved callee.
#[derive(Debug, Clone)]
pub(crate) enum PCallee {
    /// Defined in this program: index into [`PProg::funcs`].
    Internal(u32),
    /// External: the resolved function pointer and call signature.
    External(Val, Signature),
    /// Neither defined nor in the symbol table; the label-free stuck
    /// message (``unknown callee `f` ``).
    Unknown(Box<str>),
}

/// One decoded micro-op: the decoding of one CFG instruction (or a `Trap`
/// for a missing node). Jump targets (`u32`) are dense indices into the
/// owning function's [`PFunc::code`].
#[derive(Debug, Clone)]
pub(crate) enum UOp {
    /// `dst := src`.
    Move(PReg, PReg, u32),
    /// `dst := v` (constants and resolved global addresses).
    Const(Val, PReg, u32),
    /// `dst := &stack + off`.
    AddrStack(i64, PReg, u32),
    /// `dst := op src`.
    Unop(MUnop, PReg, PReg, u32),
    /// `dst := op a, b`.
    Binop(MBinop, PReg, PReg, PReg, u32),
    /// `dst := op a, #imm`.
    BinopImm(MBinop, PReg, Val, PReg, u32),
    /// `dst := chunk[base + disp]`.
    Load(Chunk, PReg, i64, PReg, u32),
    /// `chunk[base + disp] := src`.
    Store(Chunk, PReg, i64, PReg, u32),
    /// Branch on the truth of a register.
    Cond(PReg, u32, u32),
    /// No-op.
    Nop(u32),
    /// `dst := call callee(args)`.
    Call {
        /// Resolved callee.
        callee: PCallee,
        /// Argument registers.
        args: Box<[PReg]>,
        /// Destination register.
        dest: Option<PReg>,
        /// Return point.
        next: u32,
    },
    /// Tail call.
    Tailcall {
        /// Resolved callee.
        callee: PCallee,
        /// Argument registers.
        args: Box<[PReg]>,
    },
    /// Return from the function.
    Return(Option<PReg>),
    /// Statically-known stuck: the label-free message.
    Trap(Box<str>),
}

/// A prepared function.
#[derive(Debug, Clone)]
pub(crate) struct PFunc {
    /// Name (stuck messages and `RtlSem::program_point`).
    pub name: Ident,
    /// Stack block size.
    pub stack_size: i64,
    /// Dense register file size (covers every register the code mentions).
    pub nregs: usize,
    /// Dense index of the entry node (a `Trap` if the entry is missing).
    pub entry_ix: u32,
    /// Parameter registers, in order.
    pub params: Box<[PReg]>,
    /// The decoded µop arena: real nodes in node order, then traps for
    /// referenced-but-missing nodes.
    pub code: Vec<UOp>,
    /// Dense index → original node id (traps map to the missing node).
    pub node_of_ix: Vec<Node>,
}

/// A prepared program: the per-program function index plus the function
/// arena.
#[derive(Debug, Clone)]
pub(crate) struct PProg {
    /// Interned function names and their indices into `funcs`
    /// (deterministic: definition order, then externs).
    pub fn_index: FuncIndex,
    /// Function arena, in definition order.
    pub funcs: Vec<PFunc>,
}

/// Decode `dst := op` (then go to `next`), precomputing global addresses;
/// an unknown symbol decodes to a `Trap` with its label-free message.
fn resolve_op(op: &RtlOp, dst: PReg, next: u32, symtab: &SymbolTable) -> UOp {
    match op {
        RtlOp::Move(r) => UOp::Move(*r, dst, next),
        RtlOp::Int(n) => UOp::Const(Val::Int(*n), dst, next),
        RtlOp::Long(n) => UOp::Const(Val::Long(*n), dst, next),
        RtlOp::AddrGlobal(s, d) => match symtab.block_of(s) {
            Some(b) => UOp::Const(Val::Ptr(b, *d), dst, next),
            None => UOp::Trap(format!("unknown symbol `{s}`").into_boxed_str()),
        },
        RtlOp::AddrStack(o) => UOp::AddrStack(*o, dst, next),
        RtlOp::Unop(u, r) => UOp::Unop(*u, *r, dst, next),
        RtlOp::Binop(b, x, y) => UOp::Binop(*b, *x, *y, dst, next),
        RtlOp::BinopImm(b, x, i) => UOp::BinopImm(*b, *x, *i, dst, next),
    }
}

/// Compile `prog` into its prepared form. Pure function of the program and
/// symbol table; runs once in `RtlSem::new`.
pub(crate) fn prepare(prog: &RtlProgram, symtab: &SymbolTable) -> PProg {
    let fn_index = FuncIndex::new(
        prog.functions.iter().map(|f| f.name.as_str()),
        prog.externs.iter().map(|(n, _)| n.as_str()),
    );

    let resolve_callee = |name: &Ident, sig: &Signature| -> PCallee {
        if let Some(fidx) = fn_index.by_name(name) {
            return PCallee::Internal(fidx);
        }
        match symtab.func_ptr(name) {
            Some(vf) => PCallee::External(vf, sig.clone()),
            None => PCallee::Unknown(format!("unknown callee `{name}`").into_boxed_str()),
        }
    };

    let funcs = prog
        .functions
        .iter()
        .map(|f| {
            // Dense indices: real nodes in node order, then traps for every
            // referenced-but-missing node.
            let mut ix_of: BTreeMap<Node, u32> = BTreeMap::new();
            for (i, &n) in f.code.keys().enumerate() {
                ix_of.insert(n, i as u32);
            }
            let n_real = ix_of.len();
            let mut node_of_ix: Vec<Node> = f.code.keys().copied().collect();
            let mut referenced: Vec<Node> = f
                .code
                .values()
                .flat_map(Inst::successors)
                .chain(std::iter::once(f.entry))
                .filter(|n| !ix_of.contains_key(n))
                .collect();
            referenced.sort_unstable();
            referenced.dedup();
            for n in referenced {
                ix_of.insert(n, node_of_ix.len() as u32);
                node_of_ix.push(n);
            }

            let mut nregs = f.next_reg as usize;
            let mut see = |r: PReg| {
                nregs = nregs.max(r as usize + 1);
            };
            for &r in &f.params {
                see(r);
            }
            for i in f.code.values() {
                for r in i.uses() {
                    see(r);
                }
                if let Some(d) = i.def() {
                    see(d);
                }
            }

            let missing = |n: Node| format!("no instruction at {}:{}", f.name, n).into_boxed_str();
            let mut code: Vec<UOp> = f
                .code
                .values()
                .map(|inst| {
                    let ix = |n: Node| ix_of.get(&n).copied().unwrap_or(u32::MAX);
                    match inst {
                        Inst::Nop(n) => UOp::Nop(ix(*n)),
                        Inst::Op(op, dst, n) => resolve_op(op, *dst, ix(*n), symtab),
                        Inst::Load(c, b, d, dst, n) => UOp::Load(*c, *b, *d, *dst, ix(*n)),
                        Inst::Store(c, b, d, src, n) => UOp::Store(*c, *b, *d, *src, ix(*n)),
                        Inst::Cond(r, t, e) => UOp::Cond(*r, ix(*t), ix(*e)),
                        Inst::Call(sig, callee, args, dest, n) => UOp::Call {
                            callee: resolve_callee(callee, sig),
                            args: args.clone().into_boxed_slice(),
                            dest: *dest,
                            next: ix(*n),
                        },
                        Inst::Tailcall(sig, callee, args) => UOp::Tailcall {
                            callee: resolve_callee(callee, sig),
                            args: args.clone().into_boxed_slice(),
                        },
                        Inst::Return(r) => UOp::Return(*r),
                    }
                })
                .collect();
            for &n in &node_of_ix[n_real..] {
                code.push(UOp::Trap(missing(n)));
            }

            PFunc {
                name: f.name.clone(),
                stack_size: f.stack_size,
                nregs,
                entry_ix: ix_of.get(&f.entry).copied().unwrap_or(u32::MAX),
                params: f.params.clone().into_boxed_slice(),
                code,
                node_of_ix,
            }
        })
        .collect();

    PProg { fn_index, funcs }
}

/// The frame index of a tail call's discarded frame, suspended on an
/// external callee: its answer is forwarded to the caller.
pub(crate) const TAILCALL_IX: u32 = u32::MAX;

/// Return `v` into `frame`, suspended at a call: bind the call's
/// destination and move past it. `false` when the frame is not at a call.
pub(crate) fn return_into(p: &PProg, frame: &mut RtlFrame, v: Val) -> bool {
    let code = p.funcs.get(frame.fidx as usize).map(|f| &f.code);
    let Some(UOp::Call { dest, next, .. }) = code.and_then(|c| c.get(frame.ix as usize)) else {
        return false;
    };
    if let Some(d) = dest {
        frame.regs[*d as usize] = v;
    }
    frame.ix = *next;
    true
}

/// Control position of the machine, the state minus the shared
/// `mem`/`stack`.
enum M {
    /// `RtlState::Call`.
    Enter(u32, Vec<Val>),
    /// `RtlState::Exec`.
    Exec(RtlFrame),
    /// `RtlState::Ret`.
    Ret(Val),
}

/// Run up to `fuel_left` steps in place, following the [`Batch`] contract.
#[allow(clippy::too_many_lines)]
pub(crate) fn step_batch(sem: &RtlSem, s: &mut RtlState, fuel_left: u64) -> Batch<CQuery, CReply> {
    let p = &sem.fast;
    let label = &sem.label;
    let stuck_l = |msg: String| Stuck::new(format!("{label}: {msg}"));

    // Take ownership of the state: frames and memory move in and out
    // without cloning.
    let taken = std::mem::replace(
        s,
        RtlState::Ret {
            v: Val::Undef,
            mem: Mem::new(),
            stack: Vec::new(),
        },
    );
    let (mut mode, mut mem, mut stack) = match taken {
        RtlState::External { q, cur, stack } => {
            let out = q.clone();
            *s = RtlState::External { q, cur, stack };
            return Batch::External(0, out);
        }
        RtlState::Call {
            fidx,
            args,
            mem,
            stack,
        } => (M::Enter(fidx, args), mem, stack),
        RtlState::Exec { cur, mem, stack } => (M::Exec(cur), mem, stack),
        RtlState::Ret { v, mem, stack } => (M::Ret(v), mem, stack),
    };
    let mut n: u64 = 0;

    loop {
        match mode {
            M::Enter(fidx, args) => {
                // One step to enter (alloc + bind).
                if n == fuel_left {
                    *s = RtlState::Call {
                        fidx,
                        args,
                        mem,
                        stack,
                    };
                    return Batch::Ran(n);
                }
                let f = &p.funcs[fidx as usize];
                if f.params.len() != args.len() {
                    return Batch::Stuck(
                        n,
                        Stuck::new(format!("arity mismatch calling `{}`", f.name)),
                    );
                }
                let sp = mem.alloc(0, f.stack_size);
                let mut regs = vec![Val::Undef; f.nregs];
                for (&pr, &v) in f.params.iter().zip(args.iter()) {
                    regs[pr as usize] = v;
                }
                n += 1;
                mode = M::Exec(RtlFrame {
                    fidx,
                    ix: f.entry_ix,
                    regs,
                    sp,
                });
            }
            M::Exec(mut cur) => {
                let f = &p.funcs[cur.fidx as usize];
                // The hot inner loop: stays inside one function.
                loop {
                    if n == fuel_left {
                        *s = RtlState::Exec { cur, mem, stack };
                        return Batch::Ran(n);
                    }
                    let Some(uop) = f.code.get(cur.ix as usize) else {
                        // Unresolvable dense index (corrupt successor):
                        // report it as a missing node.
                        let node = f.node_of_ix.get(cur.ix as usize).copied().unwrap_or(cur.ix);
                        return Batch::Stuck(
                            n,
                            stuck_l(format!("no instruction at {}:{}", f.name, node)),
                        );
                    };
                    match uop {
                        UOp::Move(src, dst, next) => {
                            cur.regs[*dst as usize] = cur.regs[*src as usize];
                            cur.ix = *next;
                            n += 1;
                        }
                        UOp::Const(v, dst, next) => {
                            cur.regs[*dst as usize] = *v;
                            cur.ix = *next;
                            n += 1;
                        }
                        UOp::AddrStack(off, dst, next) => {
                            cur.regs[*dst as usize] = Val::Ptr(cur.sp, *off);
                            cur.ix = *next;
                            n += 1;
                        }
                        UOp::Unop(op, src, dst, next) => {
                            cur.regs[*dst as usize] = op.eval(cur.regs[*src as usize]);
                            cur.ix = *next;
                            n += 1;
                        }
                        UOp::Binop(op, x, y, dst, next) => {
                            cur.regs[*dst as usize] =
                                op.eval(cur.regs[*x as usize], cur.regs[*y as usize]);
                            cur.ix = *next;
                            n += 1;
                        }
                        UOp::BinopImm(op, x, imm, dst, next) => {
                            cur.regs[*dst as usize] = op.eval(cur.regs[*x as usize], *imm);
                            cur.ix = *next;
                            n += 1;
                        }
                        UOp::Load(chunk, base, disp, dst, next) => {
                            let addr = cur.regs[*base as usize].add(Val::Long(*disp));
                            match mem.loadv(*chunk, addr) {
                                Ok(v) => cur.regs[*dst as usize] = v,
                                Err(e) => {
                                    return Batch::Stuck(n, stuck_l(format!("load failed: {e}")))
                                }
                            }
                            cur.ix = *next;
                            n += 1;
                        }
                        UOp::Store(chunk, base, disp, src, next) => {
                            let addr = cur.regs[*base as usize].add(Val::Long(*disp));
                            if let Err(e) = mem.storev(*chunk, addr, cur.regs[*src as usize]) {
                                return Batch::Stuck(n, stuck_l(format!("store failed: {e}")));
                            }
                            cur.ix = *next;
                            n += 1;
                        }
                        UOp::Cond(r, t, e) => {
                            match cur.regs[*r as usize].truth() {
                                Some(true) => cur.ix = *t,
                                Some(false) => cur.ix = *e,
                                None => {
                                    return Batch::Stuck(
                                        n,
                                        stuck_l("undefined branch condition".into()),
                                    )
                                }
                            }
                            n += 1;
                        }
                        UOp::Nop(next) => {
                            cur.ix = *next;
                            n += 1;
                        }
                        UOp::Trap(msg) => {
                            return Batch::Stuck(n, stuck_l(msg.to_string()));
                        }
                        UOp::Return(r) => {
                            let v = match r {
                                Some(r) => cur.regs[*r as usize],
                                None => Val::Undef,
                            };
                            if let Err(e) = mem.free(cur.sp, 0, f.stack_size) {
                                return Batch::Stuck(n, stuck_l(format!("freeing frame: {e}")));
                            }
                            n += 1;
                            mode = M::Ret(v);
                            break;
                        }
                        UOp::Call {
                            callee,
                            args,
                            dest: _,
                            next: _,
                        } => {
                            let vals: Vec<Val> =
                                args.iter().map(|&r| cur.regs[r as usize]).collect();
                            match callee {
                                PCallee::Internal(fidx2) => {
                                    // Exec → Call costs one step; the frame is
                                    // suspended at the call µop.
                                    n += 1;
                                    let fidx2 = *fidx2;
                                    stack.push(cur);
                                    mode = M::Enter(fidx2, vals);
                                    break;
                                }
                                PCallee::External(vf, sig) => {
                                    n += 1;
                                    let q = CQuery {
                                        vf: *vf,
                                        sig: sig.clone(),
                                        args: vals,
                                        mem: mem.clone(),
                                    };
                                    *s = RtlState::External {
                                        q: q.clone(),
                                        cur,
                                        stack,
                                    };
                                    return if n == fuel_left {
                                        Batch::Ran(n)
                                    } else {
                                        Batch::External(n, q)
                                    };
                                }
                                PCallee::Unknown(msg) => {
                                    return Batch::Stuck(n, stuck_l(msg.to_string()));
                                }
                            }
                        }
                        UOp::Tailcall { callee, args } => {
                            let vals: Vec<Val> =
                                args.iter().map(|&r| cur.regs[r as usize]).collect();
                            // The frame is freed *before* the tail call.
                            if let Err(e) = mem.free(cur.sp, 0, f.stack_size) {
                                return Batch::Stuck(
                                    n,
                                    stuck_l(format!("freeing frame for tailcall: {e}")),
                                );
                            }
                            match callee {
                                PCallee::Internal(fidx2) => {
                                    n += 1;
                                    mode = M::Enter(*fidx2, vals);
                                    break;
                                }
                                PCallee::External(vf, sig) => {
                                    n += 1;
                                    let q = CQuery {
                                        vf: *vf,
                                        sig: sig.clone(),
                                        args: vals,
                                        mem: mem.clone(),
                                    };
                                    // The frame is gone: the answer is
                                    // forwarded to the caller.
                                    cur.ix = TAILCALL_IX;
                                    *s = RtlState::External {
                                        q: q.clone(),
                                        cur,
                                        stack,
                                    };
                                    return if n == fuel_left {
                                        Batch::Ran(n)
                                    } else {
                                        Batch::External(n, q)
                                    };
                                }
                                PCallee::Unknown(msg) => {
                                    return Batch::Stuck(n, stuck_l(msg.to_string()));
                                }
                            }
                        }
                    }
                }
            }
            M::Ret(v) => {
                if n == fuel_left {
                    *s = RtlState::Ret { v, mem, stack };
                    return Batch::Ran(n);
                }
                let Some(mut caller) = stack.pop() else {
                    return Batch::Final(n, CReply { retval: v, mem });
                };
                if !return_into(p, &mut caller, v) {
                    return Batch::Stuck(n, Stuck::new("caller pc is not at a call"));
                }
                n += 1;
                mode = M::Exec(caller);
            }
        }
    }
}
