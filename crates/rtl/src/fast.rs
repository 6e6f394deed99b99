//! Prepared ("arena") form of an RTL program and the interpreter behind
//! [`crate::sem::RtlSem`] (DESIGN.md §13).
//!
//! `prepare` runs once per [`RtlSem`] and compiles every function's
//! `BTreeMap<Node, Inst>` CFG into a dense `Vec<UOp>`:
//!
//! * node ids become dense `u32` indices, jump targets are pre-resolved;
//! * function and global names are interned ([`Interner`]) and resolved —
//!   callees to function indices or external function pointers, globals to
//!   `Val::Ptr` constants;
//! * statically-known stuck conditions (missing CFG nodes, unknown symbols)
//!   become `Trap` µops carrying their message, label-free (the label is
//!   prefixed at stuck time);
//! * hot two-instruction idioms are fused into superinstructions with
//!   *prefix-commit* semantics: the fused op sits at the first instruction's
//!   index while the unfused second µop stays at its own index, so jumps
//!   into the middle of a pair, fuel exhaustion between the halves, and
//!   step counting all behave exactly as in the unfused program.
//!
//! [`step_batch`] is the one step definition: it mutates the frames' dense
//! `Vec<Val>` register files and the memory in place, and `RtlSem::step`
//! runs it at fuel 1 (which commits one half of a fused pair per step).
//! Answers, step counts, stuck messages and the `mem.*` counter stream are
//! pinned by the committed verdict checksums (DESIGN.md §13); the
//! fusion-is-refinement unit tests below check fused dispatch against
//! fuel-1 stepping.

use std::collections::BTreeMap;

use compcerto_core::iface::{CQuery, CReply, Signature};
use compcerto_core::intern::Interner;
use compcerto_core::lts::{Batch, Stuck};
use compcerto_core::symtab::{Ident, SymbolTable};
use mem::{BlockId, Chunk, Mem, Val};
use minor::{MBinop, MUnop};

use crate::lang::{Inst, Node, PReg, RtlOp, RtlProgram};
use crate::sem::{RtlFrame, RtlSem, RtlState};

/// A resolved pure operation (the right-hand side of an `Op`), with global
/// addresses already looked up.
#[derive(Debug, Clone, Copy)]
pub(crate) enum POp {
    /// Copy a register.
    Move(PReg),
    /// Any constant: `Int`, `Long`, or a resolved `AddrGlobal`.
    Const(Val),
    /// Address within the activation's stack block.
    AddrStack(i64),
    /// Unary operation.
    Unop(MUnop, PReg),
    /// Binary operation.
    Binop(MBinop, PReg, PReg),
    /// Binary operation with immediate.
    BinopImm(MBinop, PReg, Val),
}

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

/// One decoded micro-op. Jump targets (`u32`) are dense indices into the
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
    /// Fused `Store; Op(BinopImm)` (store to memory, then bump an index —
    /// the dominant array-write idiom). Prefix-commit: the unfused
    /// `BinopImm` stays at `second_ix`.
    FusedStoreAddImm {
        /// Store chunk.
        chunk: Chunk,
        /// Store base register.
        base: PReg,
        /// Store displacement.
        disp: i64,
        /// Stored register.
        src: PReg,
        /// Index of the unfused second half.
        second_ix: u32,
        /// Second-half operation.
        op: MBinop,
        /// Second-half source register.
        a: PReg,
        /// Second-half immediate.
        imm: Val,
        /// Second-half destination.
        dst: PReg,
        /// Successor of the pair.
        next: u32,
    },
    /// Fused `Op(BinopImm); Cond` (compare-and-branch / counter-and-loop).
    /// The destination is written *before* the condition register is read,
    /// exactly as in two steps.
    FusedAddImmCond {
        /// First-half operation.
        op: MBinop,
        /// First-half source register.
        a: PReg,
        /// First-half immediate.
        imm: Val,
        /// First-half destination.
        dst: PReg,
        /// Index of the unfused second half.
        second_ix: u32,
        /// Condition register.
        cond: PReg,
        /// True target.
        t: u32,
        /// False target.
        e: u32,
    },
    /// Fused `Op; Op` (straight-line arithmetic pairs). Executed strictly in
    /// sequence: the second op sees the first's write.
    FusedOpOp {
        /// First operation.
        op1: POp,
        /// First destination.
        d1: PReg,
        /// Index of the unfused second half.
        second_ix: u32,
        /// Second operation.
        op2: POp,
        /// Second destination.
        d2: PReg,
        /// Successor of the pair.
        next: u32,
    },
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

/// A prepared program: the per-program interner plus the function arena.
#[derive(Debug, Clone)]
pub(crate) struct PProg {
    /// Interned function names (insertion order = definition order, then
    /// externs — deterministic across runs and thread counts).
    pub syms: Interner,
    /// Function arena, in definition order.
    pub funcs: Vec<PFunc>,
    /// `Sym` index → function index (first definition wins, like
    /// `RtlProgram::function`).
    pub fidx_of_sym: Vec<Option<u32>>,
}

/// Resolve `op`, precomputing global addresses. `Err` carries the
/// label-free stuck message for an unknown symbol.
fn resolve_op(op: &RtlOp, symtab: &SymbolTable) -> Result<POp, String> {
    Ok(match op {
        RtlOp::Move(r) => POp::Move(*r),
        RtlOp::Int(n) => POp::Const(Val::Int(*n)),
        RtlOp::Long(n) => POp::Const(Val::Long(*n)),
        RtlOp::AddrGlobal(s, d) => match symtab.block_of(s) {
            Some(b) => POp::Const(Val::Ptr(b, *d)),
            None => return Err(format!("unknown symbol `{s}`")),
        },
        RtlOp::AddrStack(o) => POp::AddrStack(*o),
        RtlOp::Unop(u, r) => POp::Unop(*u, *r),
        RtlOp::Binop(b, x, y) => POp::Binop(*b, *x, *y),
        RtlOp::BinopImm(b, x, i) => POp::BinopImm(*b, *x, *i),
    })
}

/// An op-like single µop, viewed as `(op, dst, next)` for fusion.
fn as_pop(u: &UOp) -> Option<(POp, PReg, u32)> {
    Some(match *u {
        UOp::Move(src, dst, next) => (POp::Move(src), dst, next),
        UOp::Const(v, dst, next) => (POp::Const(v), dst, next),
        UOp::AddrStack(off, dst, next) => (POp::AddrStack(off), dst, next),
        UOp::Unop(op, src, dst, next) => (POp::Unop(op, src), dst, next),
        UOp::Binop(op, x, y, dst, next) => (POp::Binop(op, x, y), dst, next),
        UOp::BinopImm(op, x, imm, dst, next) => (POp::BinopImm(op, x, imm), dst, next),
        _ => return None,
    })
}

/// Compile `prog` into its prepared form. Pure function of the program and
/// symbol table; runs once in `RtlSem::new`.
pub(crate) fn prepare(prog: &RtlProgram, symtab: &SymbolTable) -> PProg {
    let mut syms = Interner::new();
    for f in &prog.functions {
        syms.intern(&f.name);
    }
    for (n, _) in &prog.externs {
        syms.intern(n);
    }
    let mut fidx_of_sym: Vec<Option<u32>> = vec![None; syms.len()];
    for (i, f) in prog.functions.iter().enumerate() {
        if let Some(s) = syms.lookup(&f.name) {
            // First definition wins, matching `RtlProgram::function`.
            let slot = &mut fidx_of_sym[s.index()];
            if slot.is_none() {
                *slot = Some(i as u32);
            }
        }
    }

    let resolve_callee = |name: &Ident, sig: &Signature| -> PCallee {
        if let Some(fidx) = syms.lookup(name).and_then(|s| fidx_of_sym[s.index()]) {
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
                        Inst::Op(op, dst, n) => match resolve_op(op, symtab) {
                            Err(msg) => UOp::Trap(msg.into_boxed_str()),
                            Ok(POp::Move(src)) => UOp::Move(src, *dst, ix(*n)),
                            Ok(POp::Const(v)) => UOp::Const(v, *dst, ix(*n)),
                            Ok(POp::AddrStack(o)) => UOp::AddrStack(o, *dst, ix(*n)),
                            Ok(POp::Unop(u, r)) => UOp::Unop(u, r, *dst, ix(*n)),
                            Ok(POp::Binop(b, x, y)) => UOp::Binop(b, x, y, *dst, ix(*n)),
                            Ok(POp::BinopImm(b, x, i)) => UOp::BinopImm(b, x, i, *dst, ix(*n)),
                        },
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

            // Superinstruction fusion, decided on the unfused µops (so a
            // chain A;B;C fuses as (A;B) at A and (B;C) at B without ever
            // double-executing: a fused op always jumps *past* its pair).
            let singles = code.clone();
            for i in 0..n_real {
                let second = |j: u32| singles.get(j as usize).filter(|_| (j as usize) < n_real);
                let fused = match &singles[i] {
                    UOp::Store(chunk, base, disp, src, n1) => match second(*n1) {
                        Some(UOp::BinopImm(op, a, imm, dst, n2)) => Some(UOp::FusedStoreAddImm {
                            chunk: *chunk,
                            base: *base,
                            disp: *disp,
                            src: *src,
                            second_ix: *n1,
                            op: *op,
                            a: *a,
                            imm: *imm,
                            dst: *dst,
                            next: *n2,
                        }),
                        _ => None,
                    },
                    UOp::BinopImm(op, a, imm, dst, n1) => match second(*n1) {
                        Some(UOp::Cond(cond, t, e)) => Some(UOp::FusedAddImmCond {
                            op: *op,
                            a: *a,
                            imm: *imm,
                            dst: *dst,
                            second_ix: *n1,
                            cond: *cond,
                            t: *t,
                            e: *e,
                        }),
                        _ => None,
                    },
                    _ => None,
                };
                let fused = fused.or_else(|| {
                    let (op1, d1, n1) = as_pop(&singles[i])?;
                    let (op2, d2, n2) = as_pop(second(n1)?)?;
                    Some(UOp::FusedOpOp {
                        op1,
                        d1,
                        second_ix: n1,
                        op2,
                        d2,
                        next: n2,
                    })
                });
                if let Some(u) = fused {
                    code[i] = u;
                }
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

    PProg {
        syms,
        funcs,
        fidx_of_sym,
    }
}

/// The frame index of a tail call's discarded frame, suspended on an
/// external callee: its answer is forwarded to the caller.
pub(crate) const TAILCALL_IX: u32 = u32::MAX;

/// The function index of a callee pointer (first definition of its name).
pub(crate) fn fidx_of_val(p: &PProg, symtab: &SymbolTable, vf: Val) -> Option<u32> {
    match vf {
        Val::Ptr(b, 0) => symtab
            .ident_of(b)
            .and_then(|name| p.syms.lookup(name))
            .and_then(|sy| p.fidx_of_sym.get(sy.index()).copied().flatten()),
        _ => None,
    }
}

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

/// Run up to `fuel_left` steps in place, following the [`Batch`] contract;
/// see the module docs for the prefix-commit rules on fused µops.
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
                let eval = |regs: &[Val], sp: BlockId, op: POp| -> Val {
                    match op {
                        POp::Move(r) => regs[r as usize],
                        POp::Const(v) => v,
                        POp::AddrStack(o) => Val::Ptr(sp, o),
                        POp::Unop(u, r) => u.eval(regs[r as usize]),
                        POp::Binop(b, x, y) => b.eval(regs[x as usize], regs[y as usize]),
                        POp::BinopImm(b, x, i) => b.eval(regs[x as usize], i),
                    }
                };
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
                        UOp::FusedStoreAddImm {
                            chunk,
                            base,
                            disp,
                            src,
                            second_ix,
                            op,
                            a,
                            imm,
                            dst,
                            next,
                        } => {
                            // First half: the store (may stick at step n).
                            let addr = cur.regs[*base as usize].add(Val::Long(*disp));
                            if let Err(e) = mem.storev(*chunk, addr, cur.regs[*src as usize]) {
                                return Batch::Stuck(n, stuck_l(format!("store failed: {e}")));
                            }
                            n += 1;
                            if n == fuel_left {
                                // Prefix-commit: resume at the unfused half.
                                cur.ix = *second_ix;
                                continue;
                            }
                            cur.regs[*dst as usize] = op.eval(cur.regs[*a as usize], *imm);
                            cur.ix = *next;
                            n += 1;
                        }
                        UOp::FusedAddImmCond {
                            op,
                            a,
                            imm,
                            dst,
                            second_ix,
                            cond,
                            t,
                            e,
                        } => {
                            // The write lands before the condition is read
                            // (`cond` may alias `dst`), as in two steps.
                            cur.regs[*dst as usize] = op.eval(cur.regs[*a as usize], *imm);
                            n += 1;
                            if n == fuel_left {
                                cur.ix = *second_ix;
                                continue;
                            }
                            match cur.regs[*cond as usize].truth() {
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
                        UOp::FusedOpOp {
                            op1,
                            d1,
                            second_ix,
                            op2,
                            d2,
                            next,
                        } => {
                            cur.regs[*d1 as usize] = eval(&cur.regs, cur.sp, *op1);
                            n += 1;
                            if n == fuel_left {
                                cur.ix = *second_ix;
                                continue;
                            }
                            cur.regs[*d2 as usize] = eval(&cur.regs, cur.sp, *op2);
                            cur.ix = *next;
                            n += 1;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::tests::front_end;
    use compcerto_core::lts::{Lts, Step};

    /// SplitMix64 — the fixed-block randomizer shared by the fusion
    /// soundness tests (deterministic, seedable, no external crates).
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Run the *unfused* machine to its final answer, counting steps: fuel-1
    /// stepping (`RtlSem::step`) commits one half of a fused pair per step,
    /// so it never executes a fused second half. The fusion corpus is
    /// closed code: no external calls, no stuckness, no events.
    fn unfused_to_final(sem: &RtlSem, s: &mut RtlState) -> (u64, CReply) {
        let mut n = 0u64;
        loop {
            match sem.step(s) {
                Step::Internal(s2, events) => {
                    assert!(events.is_empty(), "RTL internal steps emit no events");
                    *s = s2;
                    n += 1;
                }
                Step::Final(a) => return (n, a),
                Step::External(q) => panic!("unexpected external call: {q:?}"),
                Step::Stuck(e) => panic!("unfused run stuck: {e}"),
            }
        }
    }

    /// The refinement harness: compile `src`, require that `entry`'s
    /// prepared code contains the superinstruction selected by `want`
    /// (guarding against the idiom drifting out of fusion coverage), then
    /// step the fused and unfused forms side by side:
    ///
    /// 1. a full-fuel fused batch must produce the same answer, memory,
    ///    and exact step count as unfused fuel-1 stepping;
    /// 2. a batch cut at *every* fuel prefix — including cuts that land
    ///    between the two halves of a fused pair — must write back a state
    ///    from which unfused stepping completes with the same answer in
    ///    exactly the remaining number of steps (prefix-commit).
    fn fusion_refines(
        prog: &RtlProgram,
        tbl: &SymbolTable,
        entry: &str,
        args: Vec<Val>,
        what: &str,
        want: fn(&UOp) -> bool,
    ) {
        let prog = prog.clone();
        let tbl = tbl.clone();
        let sig = prog.function(entry).unwrap().sig.clone();
        let sem = RtlSem::new(prog, tbl.clone());
        let fidx = sem
            .fast
            .syms
            .lookup(entry)
            .and_then(|s| sem.fast.fidx_of_sym[s.index()])
            .unwrap();
        let pf = &sem.fast.funcs[fidx as usize];
        assert!(
            pf.code.iter().any(want),
            "`{entry}` did not fuse a {what}: {:?}",
            pf.code
        );

        let q = CQuery {
            vf: tbl.func_ptr(entry).unwrap(),
            sig,
            args,
            mem: tbl.build_init_mem().unwrap(),
        };
        let s0 = sem.initial(&q).unwrap();

        let mut su = s0.clone();
        let (total, want_reply) = unfused_to_final(&sem, &mut su);
        let want_dbg = format!("{want_reply:?}");

        // 1. Full-fuel fused batch.
        let mut sf = s0.clone();
        match step_batch(&sem, &mut sf, total + 8) {
            Batch::Final(n, reply) => {
                assert_eq!(n, total, "fused step count diverged");
                assert_eq!(format!("{reply:?}"), want_dbg, "fused answer diverged");
            }
            other => panic!("fused run did not complete: {other:?}"),
        }

        // 2. Every fuel prefix (mid-pair cuts included).
        for fuel in 0..=total {
            let mut sf = s0.clone();
            match step_batch(&sem, &mut sf, fuel) {
                Batch::Ran(n) => assert_eq!(n, fuel, "prefix consumed wrong fuel"),
                other => panic!("prefix at fuel {fuel} returned {other:?}"),
            }
            let (rest, reply) = unfused_to_final(&sem, &mut sf);
            assert_eq!(
                fuel + rest,
                total,
                "cut at {fuel} changed the total step count"
            );
            assert_eq!(
                format!("{reply:?}"),
                want_dbg,
                "cut at {fuel} changed the answer"
            );
        }
    }

    #[test]
    fn fused_store_add_imm_refines_unfused() {
        // Store-and-bump: `*p = v; p += 4` with the bump *directly* after
        // the store. The C front-end interposes a `Move` on the temp-based
        // `buf[i] = ...; i = i + 1` spelling, so assemble the pair-adjacent
        // CFG by hand — exactly the shape the fusion pass targets.
        use compcerto_core::symtab::GlobKind;
        use mem::Cmp;
        let f = crate::RtlFunction {
            name: "fill".into(),
            sig: Signature::int_fn(1),
            params: vec![0],
            stack_size: 32,
            entry: 1,
            code: [
                (1, Inst::Op(RtlOp::AddrStack(0), 1, 2)),
                (2, Inst::Op(RtlOp::Move(1), 3, 3)),
                (3, Inst::Op(RtlOp::Int(0), 2, 4)),
                (
                    4,
                    Inst::Op(
                        RtlOp::BinopImm(MBinop::Cmp32(Cmp::Lt), 2, Val::Int(8)),
                        4,
                        5,
                    ),
                ),
                (5, Inst::Cond(4, 6, 10)),
                (6, Inst::Op(RtlOp::Binop(MBinop::Add32, 0, 2), 5, 7)),
                (7, Inst::Store(Chunk::I32, 3, 0, 5, 8)),
                (
                    8,
                    Inst::Op(RtlOp::BinopImm(MBinop::Add64, 3, Val::Long(4)), 3, 9),
                ),
                (
                    9,
                    Inst::Op(RtlOp::BinopImm(MBinop::Add32, 2, Val::Int(1)), 2, 4),
                ),
                (10, Inst::Load(Chunk::I32, 1, 28, 6, 11)),
                (11, Inst::Return(Some(6))),
            ]
            .into_iter()
            .collect(),
            next_reg: 7,
        };
        let prog = RtlProgram {
            functions: vec![f],
            externs: vec![],
        };
        let mut tbl = SymbolTable::new();
        tbl.define("fill".into(), GlobKind::Func(Signature::int_fn(1)));
        let mut rng = 0x5eed_0001u64;
        for _ in 0..8 {
            let n = splitmix64(&mut rng) as i32;
            fusion_refines(
                &prog,
                &tbl,
                "fill",
                vec![Val::Int(n)],
                "FusedStoreAddImm",
                |u| matches!(u, UOp::FusedStoreAddImm { .. }),
            );
        }
    }

    #[test]
    fn fused_add_imm_cond_refines_unfused() {
        // Counter-and-loop: compare-with-immediate feeding the branch.
        let src = "
            int acc(int n) {
                int i;
                int s;
                s = 0;
                for (i = 0; i < 8; i = i + 1) { s = s + n; }
                return s;
            }";
        let (_, prog, tbl) = front_end(src);
        let mut rng = 0x5eed_0002u64;
        for _ in 0..8 {
            let n = splitmix64(&mut rng) as i32;
            fusion_refines(
                &prog,
                &tbl,
                "acc",
                vec![Val::Int(n)],
                "FusedAddImmCond",
                |u| matches!(u, UOp::FusedAddImmCond { .. }),
            );
        }
    }

    #[test]
    fn fused_op_op_refines_unfused() {
        // Straight-line arithmetic pairs.
        let src = "
            int poly(int a, int b) {
                int t;
                int u;
                t = a * b;
                u = t + a;
                return u * t - b;
            }";
        let (_, prog, tbl) = front_end(src);
        let mut rng = 0x5eed_0003u64;
        for _ in 0..8 {
            let a = splitmix64(&mut rng) as i32;
            let b = splitmix64(&mut rng) as i32;
            fusion_refines(
                &prog,
                &tbl,
                "poly",
                vec![Val::Int(a), Val::Int(b)],
                "FusedOpOp",
                |u| matches!(u, UOp::FusedOpOp { .. }),
            );
        }
    }
}
