//! Prepared ("arena") form of a Clight-mini program and the interpreter
//! behind [`ClightSem`] (DESIGN.md §13).
//!
//! `prepare` runs once per [`ClightSem`] and compiles every function body
//! into dense statement/expression arenas (`u32` ids), resolving at compile
//! time everything that does not depend on the run:
//!
//! * variable references become slot indices (locals) or block ids
//!   (globals), with load/store chunks precomputed from their types;
//! * callee names are interned ([`FuncIndex`]) and resolved to function
//!   indices or external function pointers + signatures;
//! * casts become one of four kinds; `sizeof` becomes a constant;
//! * local allocation/free plans: every declaration allocated in order,
//!   the *last* declaration of a name owning its slot, frees in name order
//!   (duplicate-name leaks and all);
//! * statically-known stuck conditions carry their message, label-free
//!   (the label is prefixed at stuck time).
//!
//! Activations use a dense register file ([`PFrame`]: `Vec<BlockId>` slots,
//! `Vec<Option<Val>>` temps) and continuations ([`PKont`]) are small-step:
//! every `Skip` continuation pop, function entry and return is one step.
//! `step_batch` is the one step definition; `ClightSem::step` runs it at
//! fuel 1. Answers, step counts, stuck messages and the `mem.*` counter
//! stream are pinned by the committed verdict checksums (DESIGN.md §13).

use std::collections::BTreeMap;
use std::rc::Rc;

use compcerto_core::iface::{CQuery, CReply, Signature};
use compcerto_core::intern::FuncIndex;
use compcerto_core::lts::{Batch, Stuck};
use compcerto_core::symtab::{Ident, SymbolTable};
use mem::{BlockId, Chunk, Mem, Val};

use crate::ast::{Binop, CallDest, Expr, Function, Program, Stmt, Unop};
use crate::sem::{ClightSem, State};
use crate::ty::Ty;

/// A precompiled cast, keyed by (source type, target type).
#[derive(Debug, Clone, Copy)]
pub enum CastK {
    /// Value preserved (`int→int`, `long→long`, pointer/long punning).
    Id,
    /// `int → long` sign extension.
    LongOfInt,
    /// `long → int` truncation.
    IntOfLong,
    /// Any other pair: undefined.
    Undef,
}

/// A resolved lvalue place.
#[derive(Debug, Clone)]
pub enum PLval {
    /// A memory-resident local: slot index into [`PFrame::var_blocks`].
    Local(u32),
    /// A global block.
    Global(BlockId),
    /// A pointer dereference: evaluate the inner expression.
    Deref(u32),
    /// Statically stuck (unknown variable, not an lvalue).
    Trap(Box<str>),
}

/// A compiled expression node.
#[derive(Debug, Clone)]
pub enum PExpr {
    /// Constants (`ConstInt`, `ConstLong`, `SizeOf`).
    Const(Val),
    /// Read a temporary; the message is the exact unbound-temp stuck text.
    Temp(u32, Box<str>),
    /// Load a scalar local.
    LoadLocal(u32, Chunk),
    /// Load a scalar global.
    LoadGlobal(BlockId, Chunk),
    /// Load through a pointer.
    LoadDeref(u32, Chunk),
    /// `Deref` at non-scalar type: the inner expression still evaluates
    /// (and must be a pointer) before the load-type stuck fires.
    DerefNonScalar(u32, Box<str>),
    /// `&local`.
    AddrLocal(u32),
    /// `&*e`: evaluate `e`, require a pointer.
    AddrDeref(u32),
    /// Unary operation.
    Unop(Unop, u32),
    /// Binary operation.
    Binop(Binop, u32, u32),
    /// Cast.
    Cast(CastK, u32),
    /// Statically stuck.
    Trap(Box<str>),
}

/// A resolved call destination.
#[derive(Debug, Clone)]
pub enum PDest {
    /// Discard the result.
    None,
    /// Bind a temporary.
    Temp(u32),
    /// Store into an lvalue (chunk `None` means non-scalar: stuck at
    /// write time, after the place evaluates).
    Lvalue(PLval, Option<Chunk>),
}

/// A compiled statement node.
#[derive(Debug, Clone)]
pub enum PStmt {
    /// Do nothing (continuation pop).
    Skip,
    /// `lv = rhs` (chunk `None`: non-scalar, stuck after both evaluate).
    Assign {
        /// Destination place.
        lv: PLval,
        /// Store chunk from the lvalue type.
        chunk: Option<Chunk>,
        /// Right-hand side.
        rhs: u32,
    },
    /// `$t = rhs`.
    Set(u32, u32),
    /// Call a function defined in this unit.
    CallI {
        /// Callee index.
        fidx: u32,
        /// Argument expressions.
        args: Box<[u32]>,
        /// Result destination.
        dest: PDest,
    },
    /// Call an external function.
    CallE {
        /// Resolved callee pointer.
        vf: Val,
        /// Call signature.
        sig: Signature,
        /// Argument expressions.
        args: Box<[u32]>,
        /// Result destination.
        dest: PDest,
    },
    /// A call that sticks after evaluating its arguments (unknown symbol
    /// or missing signature).
    CallTrap {
        /// Argument expressions (evaluated before the stuck fires).
        args: Box<[u32]>,
        /// The stuck message.
        msg: Box<str>,
    },
    /// Sequencing.
    Seq(u32, u32),
    /// Conditional; `prefix` is the ``undefined condition: {c} = ``
    /// text awaiting the runtime value.
    If {
        /// Condition.
        cond: u32,
        /// Stuck-message prefix.
        prefix: Box<str>,
        /// Then branch.
        then_sid: u32,
        /// Else branch.
        else_sid: u32,
    },
    /// Loop; `prefix` as for `If`.
    While {
        /// Condition.
        cond: u32,
        /// Stuck-message prefix.
        prefix: Box<str>,
        /// Loop body.
        body_sid: u32,
    },
    /// Exit the nearest loop.
    Break,
    /// Re-test the nearest loop.
    Continue,
    /// Return from the function.
    Return(Option<u32>),
}

/// Per-parameter binding plan.
#[derive(Debug, Clone)]
pub enum PParam {
    /// Store into a local's block; the prefix is
    /// ``storing parameter `p`: `` awaiting the runtime error.
    Mem(u32, Chunk, Box<str>),
    /// Bind the matching temp.
    Temp(u32),
    /// Statically stuck (non-scalar parameter / no storage).
    Trap(Box<str>),
}

/// A prepared function.
#[derive(Debug, Clone)]
pub struct PFunc {
    /// Name.
    pub name: Ident,
    /// Parameter binding plans, in order.
    pub params: Vec<PParam>,
    /// Allocation plan: `(slot, size)` per declaration, in declaration
    /// order (duplicates each allocate; the slot keeps the last block).
    pub allocs: Vec<(u32, i64)>,
    /// Free plan, indexed by slot (slots are in name order): `(size, name)`
    /// from the last declaration of the name.
    pub frees: Vec<(i64, Box<str>)>,
    /// Temp-slot count (covers every temp id the function mentions).
    pub n_temps: usize,
    /// Which temp slots `enter` binds to `Undef` (declared temps).
    pub temps_init: Vec<bool>,
    /// Body statement.
    pub body_sid: u32,
    /// Canonical `Skip` statement (post-assignment continuation).
    pub skip_sid: u32,
    /// Statement arena.
    pub stmts: Vec<PStmt>,
    /// Expression arena.
    pub exprs: Vec<PExpr>,
}

/// A prepared program.
#[derive(Debug, Clone)]
pub struct PProg {
    /// Interned function names and their indices into `funcs`
    /// (deterministic: definition order, then externs).
    pub fn_index: FuncIndex,
    /// Function arena, in definition order.
    pub funcs: Vec<PFunc>,
}

/// An activation: dense local slots and temps.
#[derive(Debug, Clone, Default)]
pub struct PFrame {
    /// Owning function (index into [`PProg::funcs`]).
    pub fidx: u32,
    /// Block per local slot (slots in name order).
    pub var_blocks: Vec<BlockId>,
    /// Temp values; `None` is *unbound* (distinct from a bound `Undef`).
    pub temps: Vec<Option<Val>>,
}

/// Continuations. Every `Skip` that pops one is a step of its own.
#[derive(Debug, Clone)]
pub enum PKont {
    /// Return to the environment.
    Stop,
    /// Execute a statement next.
    Seq(u32, Rc<PKont>),
    /// Re-test a `while` (the sid of the original `While` statement).
    Loop(u32, Rc<PKont>),
    /// Return into a suspended internal caller.
    Call {
        /// Result destination.
        dest: PDest,
        /// Suspended frame.
        frame: PFrame,
        /// Caller's continuation.
        kont: Rc<PKont>,
    },
}

impl PKont {
    /// Number of suspended internal activations (the `Call` links).
    pub fn call_depth(&self) -> u64 {
        let mut depth = 0u64;
        let mut k = self;
        loop {
            match k {
                PKont::Stop => return depth,
                PKont::Seq(_, next) | PKont::Loop(_, next) => k = next,
                PKont::Call { kont, .. } => {
                    depth += 1;
                    k = kont;
                }
            }
        }
    }
}

/// Take a continuation out of its `Rc`, cloning only when shared.
fn unrc(k: Rc<PKont>) -> PKont {
    Rc::try_unwrap(k).unwrap_or_else(|rc| (*rc).clone())
}

/// The per-function compiler.
struct FnC<'a> {
    f: &'a Function,
    symtab: &'a SymbolTable,
    /// Unique local names in name order → slot.
    slot_of: BTreeMap<&'a str, u32>,
    /// Last-declaration type per slot.
    env_ty: Vec<&'a Ty>,
    stmts: Vec<PStmt>,
    exprs: Vec<PExpr>,
}

impl<'a> FnC<'a> {
    fn push_expr(&mut self, e: PExpr) -> u32 {
        self.exprs.push(e);
        (self.exprs.len() - 1) as u32
    }

    /// Compile an lvalue, returning the place and its type (the declared
    /// type for locals, the annotation otherwise).
    fn lvalue(&mut self, e: &Expr) -> (PLval, Ty) {
        match e {
            Expr::Var(name, ty) => {
                if let Some(&slot) = self.slot_of.get(name.as_str()) {
                    (PLval::Local(slot), self.env_ty[slot as usize].clone())
                } else if let Some(b) = self.symtab.block_of(name) {
                    (PLval::Global(b), ty.clone())
                } else {
                    (
                        PLval::Trap(format!("unknown variable `{name}`").into_boxed_str()),
                        ty.clone(),
                    )
                }
            }
            Expr::Deref(inner, ty) => {
                let eid = self.expr(inner);
                (PLval::Deref(eid), ty.clone())
            }
            other => (
                PLval::Trap(format!("not an lvalue: {other}").into_boxed_str()),
                other.ty(),
            ),
        }
    }

    fn expr(&mut self, e: &Expr) -> u32 {
        let node = match e {
            Expr::ConstInt(n) => PExpr::Const(Val::Int(*n)),
            Expr::ConstLong(n) => PExpr::Const(Val::Long(*n)),
            Expr::SizeOf(t) => PExpr::Const(Val::Long(t.size())),
            Expr::Temp(t, _) => PExpr::Temp(
                *t,
                format!("unbound temporary $t{t} in `{}`", self.f.name).into_boxed_str(),
            ),
            Expr::Var(_, _) => {
                let (lv, ty) = self.lvalue(e);
                match lv {
                    PLval::Trap(msg) => PExpr::Trap(msg),
                    PLval::Local(slot) => match ty.chunk() {
                        Some(c) => PExpr::LoadLocal(slot, c),
                        None => {
                            PExpr::Trap(format!("load at non-scalar type {ty}").into_boxed_str())
                        }
                    },
                    PLval::Global(b) => match ty.chunk() {
                        Some(c) => PExpr::LoadGlobal(b, c),
                        None => {
                            PExpr::Trap(format!("load at non-scalar type {ty}").into_boxed_str())
                        }
                    },
                    PLval::Deref(_) => unreachable!("Var never compiles to Deref"),
                }
            }
            Expr::Deref(inner, ty) => {
                let eid = self.expr(inner);
                match ty.chunk() {
                    Some(c) => PExpr::LoadDeref(eid, c),
                    // The inner pointer still evaluates (and is checked)
                    // before the non-scalar load sticks.
                    None => PExpr::DerefNonScalar(
                        eid,
                        format!("load at non-scalar type {ty}").into_boxed_str(),
                    ),
                }
            }
            Expr::Addr(inner, _) => {
                let (lv, _) = self.lvalue(inner);
                match lv {
                    PLval::Local(slot) => PExpr::AddrLocal(slot),
                    PLval::Global(b) => PExpr::Const(Val::Ptr(b, 0)),
                    PLval::Deref(eid) => PExpr::AddrDeref(eid),
                    PLval::Trap(msg) => PExpr::Trap(msg),
                }
            }
            Expr::Unop(op, a, _) => {
                let a = self.expr(a);
                PExpr::Unop(*op, a)
            }
            Expr::Binop(op, a, b, _) => {
                let a = self.expr(a);
                let b = self.expr(b);
                PExpr::Binop(*op, a, b)
            }
            Expr::Cast(a, target) => {
                let from = a.ty();
                let a = self.expr(a);
                let kind = match (&from, target) {
                    (Ty::Int, Ty::Int) | (Ty::Long, Ty::Long) => CastK::Id,
                    (Ty::Int, Ty::Long) => CastK::LongOfInt,
                    (Ty::Long, Ty::Int) => CastK::IntOfLong,
                    (Ty::Ptr(_), Ty::Ptr(_)) | (Ty::Ptr(_), Ty::Long) | (Ty::Long, Ty::Ptr(_)) => {
                        CastK::Id
                    }
                    _ => CastK::Undef,
                };
                PExpr::Cast(kind, a)
            }
            Expr::Index(_, _, _) => PExpr::Trap("surface Index reached the semantics".into()),
        };
        self.push_expr(node)
    }

    fn dest(&mut self, d: &CallDest) -> PDest {
        match d {
            CallDest::None => PDest::None,
            CallDest::Temp(t, _) => PDest::Temp(*t),
            CallDest::Lvalue(lv) => {
                let (place, ty) = self.lvalue(lv);
                PDest::Lvalue(place, ty.chunk())
            }
        }
    }

    fn stmt(&mut self, s: &Stmt, prog: &Program, fn_index: &FuncIndex) -> u32 {
        let sid = self.stmts.len() as u32;
        self.stmts.push(PStmt::Skip); // placeholder
        let node = match s {
            Stmt::Skip => PStmt::Skip,
            Stmt::Assign(lv, rhs) => {
                let (place, ty) = self.lvalue(lv);
                let rhs = self.expr(rhs);
                PStmt::Assign {
                    lv: place,
                    chunk: ty.chunk(),
                    rhs,
                }
            }
            Stmt::Set(t, rhs) => {
                let rhs = self.expr(rhs);
                PStmt::Set(*t, rhs)
            }
            Stmt::Call(dest, fname, args) => {
                let args: Box<[u32]> = args.iter().map(|a| self.expr(a)).collect();
                match self.symtab.func_ptr(fname) {
                    None => PStmt::CallTrap {
                        args,
                        msg: format!("call to unknown symbol `{fname}`").into_boxed_str(),
                    },
                    Some(vf) => match fn_index.by_name(fname) {
                        Some(fidx) => PStmt::CallI {
                            fidx,
                            args,
                            dest: self.dest(dest),
                        },
                        None => match prog.sig_of(fname) {
                            Some(sig) => PStmt::CallE {
                                vf,
                                sig,
                                args,
                                dest: self.dest(dest),
                            },
                            None => PStmt::CallTrap {
                                args,
                                msg: format!("no signature for `{fname}`").into_boxed_str(),
                            },
                        },
                    },
                }
            }
            Stmt::Seq(a, b) => {
                let a = self.stmt(a, prog, fn_index);
                let b = self.stmt(b, prog, fn_index);
                PStmt::Seq(a, b)
            }
            Stmt::If(c, a, b) => {
                let prefix = format!("undefined condition: {c} = ").into_boxed_str();
                let cond = self.expr(c);
                let then_sid = self.stmt(a, prog, fn_index);
                let else_sid = self.stmt(b, prog, fn_index);
                PStmt::If {
                    cond,
                    prefix,
                    then_sid,
                    else_sid,
                }
            }
            Stmt::While(c, body) => {
                let prefix = format!("undefined loop condition: {c} = ").into_boxed_str();
                let cond = self.expr(c);
                let body_sid = self.stmt(body, prog, fn_index);
                PStmt::While {
                    cond,
                    prefix,
                    body_sid,
                }
            }
            Stmt::Break => PStmt::Break,
            Stmt::Continue => PStmt::Continue,
            Stmt::Return(e) => PStmt::Return(e.as_ref().map(|e| self.expr(e))),
        };
        self.stmts[sid as usize] = node;
        sid
    }
}

/// Every temp id a function mentions (declared temps, `Set` targets, call
/// destinations, reads), to size the dense temp file.
fn max_temp(f: &Function) -> usize {
    fn expr_max(e: &Expr, m: &mut usize) {
        match e {
            Expr::Temp(t, _) => *m = (*m).max(*t as usize + 1),
            Expr::Deref(a, _) | Expr::Addr(a, _) | Expr::Unop(_, a, _) | Expr::Cast(a, _) => {
                expr_max(a, m);
            }
            Expr::Binop(_, a, b, _) | Expr::Index(a, b, _) => {
                expr_max(a, m);
                expr_max(b, m);
            }
            _ => {}
        }
    }
    fn stmt_max(s: &Stmt, m: &mut usize) {
        match s {
            Stmt::Assign(a, b) => {
                expr_max(a, m);
                expr_max(b, m);
            }
            Stmt::Set(t, e) => {
                *m = (*m).max(*t as usize + 1);
                expr_max(e, m);
            }
            Stmt::Call(d, _, args) => {
                match d {
                    CallDest::Temp(t, _) => *m = (*m).max(*t as usize + 1),
                    CallDest::Lvalue(e) => expr_max(e, m),
                    CallDest::None => {}
                }
                for a in args {
                    expr_max(a, m);
                }
            }
            Stmt::Seq(a, b) => {
                stmt_max(a, m);
                stmt_max(b, m);
            }
            Stmt::If(c, a, b) => {
                expr_max(c, m);
                stmt_max(a, m);
                stmt_max(b, m);
            }
            Stmt::While(c, b) => {
                expr_max(c, m);
                stmt_max(b, m);
            }
            Stmt::Return(Some(e)) => expr_max(e, m),
            _ => {}
        }
    }
    let mut m = 0usize;
    for (tid, _, _) in &f.temps {
        m = m.max(*tid as usize + 1);
    }
    stmt_max(&f.body, &mut m);
    m
}

/// Compile `prog` into its prepared form. Pure function of the program and
/// symbol table; runs once in `ClightSem::new`.
pub fn prepare(prog: &Program, symtab: &SymbolTable) -> PProg {
    let fn_index = FuncIndex::new(
        prog.functions.iter().map(|f| f.name.as_str()),
        prog.externs.iter().map(|e| e.name.as_str()),
    );

    let funcs = prog
        .functions
        .iter()
        .map(|f| {
            // Slots: unique local names in name order (frees iterate in name
            // order). The slot's type and free size come from the *last*
            // declaration; every declaration still allocates.
            let mut slot_of: BTreeMap<&str, u32> = BTreeMap::new();
            for (name, _) in &f.vars {
                let next = slot_of.len() as u32;
                slot_of.entry(name.as_str()).or_insert(next);
            }
            // Re-number in name order.
            let names: Vec<&str> = slot_of.keys().copied().collect();
            for (i, n) in names.iter().enumerate() {
                if let Some(s) = slot_of.get_mut(n) {
                    *s = i as u32;
                }
            }
            let mut env_ty: Vec<&Ty> = vec![&Ty::Void; slot_of.len()];
            let mut allocs = Vec::with_capacity(f.vars.len());
            for (name, ty) in &f.vars {
                let slot = slot_of[name.as_str()];
                allocs.push((slot, ty.size()));
                env_ty[slot as usize] = ty; // last declaration wins
            }
            let frees: Vec<(i64, Box<str>)> = names
                .iter()
                .enumerate()
                .map(|(slot, name)| (env_ty[slot].size(), (*name).into()))
                .collect();

            let n_temps = max_temp(f);
            let mut temps_init = vec![false; n_temps];
            for (tid, _, _) in &f.temps {
                temps_init[*tid as usize] = true;
            }

            let mut c = FnC {
                f,
                symtab,
                slot_of,
                env_ty,
                stmts: Vec::new(),
                exprs: Vec::new(),
            };
            // Parameter plans, in order.
            let params: Vec<PParam> = f
                .params
                .iter()
                .map(|(pname, pty)| {
                    if let Some(&slot) = c.slot_of.get(pname.as_str()) {
                        match pty.chunk() {
                            Some(chunk) => PParam::Mem(
                                slot,
                                chunk,
                                format!("storing parameter `{pname}`: ").into_boxed_str(),
                            ),
                            None => PParam::Trap(
                                format!("parameter `{pname}` not scalar").into_boxed_str(),
                            ),
                        }
                    } else if let Some((tid, _, _)) = f
                        .temps
                        .iter()
                        .find(|(_, _, n)| n.as_deref() == Some(pname.as_str()))
                    {
                        PParam::Temp(*tid)
                    } else {
                        PParam::Trap(format!("parameter `{pname}` has no storage").into_boxed_str())
                    }
                })
                .collect();

            let body_sid = c.stmt(&f.body, prog, &fn_index);
            let skip_sid = c.stmts.len() as u32;
            c.stmts.push(PStmt::Skip);

            PFunc {
                name: f.name.clone(),
                params,
                allocs,
                frees,
                n_temps,
                temps_init,
                body_sid,
                skip_sid,
                stmts: c.stmts,
                exprs: c.exprs,
            }
        })
        .collect();

    PProg { fn_index, funcs }
}

fn eval_binop(op: Binop, a: Val, b: Val) -> Val {
    match op {
        Binop::Add => a.add(b),
        Binop::Sub => a.sub(b),
        Binop::Mul => a.mul(b),
        Binop::Div => a.divs(b),
        Binop::Mod => a.mods(b),
        Binop::And => a.and(b),
        Binop::Or => a.or(b),
        Binop::Xor => a.xor(b),
        Binop::Shl => a.shl(b),
        Binop::Shr => a.shr(b),
        Binop::Cmp(c) => a.cmp(c, b),
    }
}

fn st(label: &str, msg: impl std::fmt::Display) -> Stuck {
    Stuck::new(format!("{label}: {msg}"))
}

/// Evaluate a compiled expression (operands left to right).
fn eval(f: &PFunc, frame: &PFrame, mem: &Mem, label: &str, eid: u32) -> Result<Val, Stuck> {
    match &f.exprs[eid as usize] {
        PExpr::Const(v) => Ok(*v),
        PExpr::Temp(t, msg) => match frame.temps[*t as usize] {
            Some(v) => Ok(v),
            None => Err(st(label, msg)),
        },
        PExpr::LoadLocal(slot, chunk) => {
            match mem.load(*chunk, frame.var_blocks[*slot as usize], 0) {
                Ok(v) => Ok(v),
                Err(err) => Err(st(label, format_args!("load failed: {err}"))),
            }
        }
        PExpr::LoadGlobal(b, chunk) => match mem.load(*chunk, *b, 0) {
            Ok(v) => Ok(v),
            Err(err) => Err(st(label, format_args!("load failed: {err}"))),
        },
        PExpr::LoadDeref(inner, chunk) => {
            let (b, ofs) = eval_ptr(f, frame, mem, label, *inner)?;
            match mem.load(*chunk, b, ofs) {
                Ok(v) => Ok(v),
                Err(err) => Err(st(label, format_args!("load failed: {err}"))),
            }
        }
        PExpr::DerefNonScalar(inner, msg) => {
            let _ = eval_ptr(f, frame, mem, label, *inner)?;
            Err(st(label, msg))
        }
        PExpr::AddrLocal(slot) => Ok(Val::Ptr(frame.var_blocks[*slot as usize], 0)),
        PExpr::AddrDeref(inner) => {
            let (b, ofs) = eval_ptr(f, frame, mem, label, *inner)?;
            Ok(Val::Ptr(b, ofs))
        }
        PExpr::Unop(op, a) => {
            let v = eval(f, frame, mem, label, *a)?;
            Ok(match op {
                Unop::Neg => v.neg(),
                Unop::Not => v.not(),
                Unop::LogicalNot => v.bool_not(),
            })
        }
        PExpr::Binop(op, a, b) => {
            let va = eval(f, frame, mem, label, *a)?;
            let vb = eval(f, frame, mem, label, *b)?;
            Ok(eval_binop(*op, va, vb))
        }
        PExpr::Cast(kind, a) => {
            let v = eval(f, frame, mem, label, *a)?;
            Ok(match kind {
                CastK::Id => v,
                CastK::LongOfInt => v.longofint(),
                CastK::IntOfLong => v.intoflong(),
                CastK::Undef => Val::Undef,
            })
        }
        PExpr::Trap(msg) => Err(st(label, msg)),
    }
}

/// Evaluate an expression that must yield a pointer (the `Deref` inner).
fn eval_ptr(
    f: &PFunc,
    frame: &PFrame,
    mem: &Mem,
    label: &str,
    eid: u32,
) -> Result<(BlockId, i64), Stuck> {
    match eval(f, frame, mem, label, eid)? {
        Val::Ptr(b, ofs) => Ok((b, ofs)),
        other => Err(st(
            label,
            format_args!("dereference of non-pointer {other}"),
        )),
    }
}

/// Evaluate a compiled place to a location.
fn eval_place(
    f: &PFunc,
    frame: &PFrame,
    mem: &Mem,
    label: &str,
    lv: &PLval,
) -> Result<(BlockId, i64), Stuck> {
    match lv {
        PLval::Local(slot) => Ok((frame.var_blocks[*slot as usize], 0)),
        PLval::Global(b) => Ok((*b, 0)),
        PLval::Deref(eid) => eval_ptr(f, frame, mem, label, *eid),
        PLval::Trap(msg) => Err(st(label, msg)),
    }
}

/// Write a call result into its destination (used by both the batch loop
/// and `ClightSem::resume`).
pub(crate) fn write_dest(
    p: &PProg,
    label: &str,
    dest: &PDest,
    v: Val,
    frame: &mut PFrame,
    mem: &mut Mem,
) -> Result<(), Stuck> {
    let f = &p.funcs[frame.fidx as usize];
    match dest {
        PDest::None => Ok(()),
        PDest::Temp(t) => {
            frame.temps[*t as usize] = Some(v);
            Ok(())
        }
        PDest::Lvalue(lv, chunk) => {
            let (b, ofs) = eval_place(f, frame, mem, label, lv)?;
            let Some(chunk) = chunk else {
                return Err(st(label, "call destination not scalar"));
            };
            match mem.store(*chunk, b, ofs, v) {
                Ok(()) => Ok(()),
                Err(e) => Err(st(label, format_args!("storing call result: {e}"))),
            }
        }
    }
}

/// Free a frame's locals (name order, last-declaration blocks and sizes).
fn free_locals(f: &PFunc, frame: &PFrame, mem: &mut Mem, label: &str) -> Result<(), Stuck> {
    for (slot, (size, name)) in f.frees.iter().enumerate() {
        if let Err(e) = mem.free(frame.var_blocks[slot], 0, *size) {
            return Err(st(label, format_args!("freeing local `{name}`: {e}")));
        }
    }
    Ok(())
}

/// Control position of the machine (the shared `mem` rides alongside).
enum M {
    /// `State::Entry`.
    Enter(u32, Vec<Val>, PKont),
    /// `State::Stmt`.
    Stmt(u32, PFrame, PKont),
    /// `State::Returning`.
    Ret(Val, PKont),
}

/// Run up to `fuel_left` steps in place, following the [`Batch`] contract.
/// Every transition — statement, `Skip` continuation pop, function entry,
/// return into a caller — counts exactly one step.
#[allow(clippy::too_many_lines)]
pub(crate) fn step_batch(sem: &ClightSem, s: &mut State, fuel_left: u64) -> Batch<CQuery, CReply> {
    let p = &sem.fast;
    let label = sem.label.as_str();

    // Take ownership of the state: frames and memory move in and out
    // without cloning.
    let taken = std::mem::replace(
        s,
        State::Returning {
            v: Val::Undef,
            mem: Mem::new(),
            kont: PKont::Stop,
        },
    );
    let (mut mode, mut mem) = match taken {
        State::External {
            q,
            dest,
            frame,
            kont,
        } => {
            let out = q.clone();
            *s = State::External {
                q,
                dest,
                frame,
                kont,
            };
            return Batch::External(0, out);
        }
        State::Entry {
            fidx,
            args,
            mem,
            kont,
        } => (M::Enter(fidx, args, kont), mem),
        State::Stmt {
            sid,
            frame,
            kont,
            mem,
        } => (M::Stmt(sid, frame, kont), mem),
        State::Returning { v, mem, kont } => (M::Ret(v, kont), mem),
    };
    let mut n: u64 = 0;

    loop {
        match mode {
            M::Enter(fidx, args, kont) => {
                if n == fuel_left {
                    *s = State::Entry {
                        fidx,
                        args,
                        mem,
                        kont,
                    };
                    return Batch::Ran(n);
                }
                let f = &p.funcs[fidx as usize];
                if args.len() != f.params.len() {
                    return Batch::Stuck(
                        n,
                        st(
                            label,
                            format_args!(
                                "`{}` expects {} arguments, got {}",
                                f.name,
                                f.params.len(),
                                args.len()
                            ),
                        ),
                    );
                }
                let mut var_blocks = vec![0 as BlockId; f.frees.len()];
                for &(slot, size) in &f.allocs {
                    var_blocks[slot as usize] = mem.alloc(0, size);
                }
                let mut temps: Vec<Option<Val>> = f
                    .temps_init
                    .iter()
                    .map(|init| if *init { Some(Val::Undef) } else { None })
                    .collect();
                let mut stuck = None;
                for (plan, v) in f.params.iter().zip(&args) {
                    match plan {
                        PParam::Mem(slot, chunk, prefix) => {
                            if let Err(e) = mem.store(*chunk, var_blocks[*slot as usize], 0, *v) {
                                stuck = Some(st(label, format_args!("{prefix}{e}")));
                                break;
                            }
                        }
                        PParam::Temp(tid) => temps[*tid as usize] = Some(*v),
                        PParam::Trap(msg) => {
                            stuck = Some(st(label, msg));
                            break;
                        }
                    }
                }
                if let Some(stuck) = stuck {
                    return Batch::Stuck(n, stuck);
                }
                n += 1;
                mode = M::Stmt(
                    f.body_sid,
                    PFrame {
                        fidx,
                        var_blocks,
                        temps,
                    },
                    kont,
                );
            }
            M::Stmt(start_sid, mut frame, mut kont) => {
                let f = &p.funcs[frame.fidx as usize];
                let mut sid = start_sid;
                // The hot inner loop: stays inside one activation.
                loop {
                    if n == fuel_left {
                        *s = State::Stmt {
                            sid,
                            frame,
                            kont,
                            mem,
                        };
                        return Batch::Ran(n);
                    }
                    match &f.stmts[sid as usize] {
                        PStmt::Skip => match kont {
                            PKont::Seq(next_sid, k) => {
                                sid = next_sid;
                                kont = unrc(k);
                                n += 1;
                            }
                            PKont::Loop(while_sid, k) => {
                                sid = while_sid;
                                kont = unrc(k);
                                n += 1;
                            }
                            // Fell off the end: implicit `return;`.
                            PKont::Stop | PKont::Call { .. } => {
                                if let Err(stuck) = free_locals(f, &frame, &mut mem, label) {
                                    return Batch::Stuck(n, stuck);
                                }
                                n += 1;
                                mode = M::Ret(Val::Undef, kont);
                                break;
                            }
                        },
                        PStmt::Assign { lv, chunk, rhs } => {
                            let (b, ofs) = match eval_place(f, &frame, &mem, label, lv) {
                                Ok(loc) => loc,
                                Err(stuck) => return Batch::Stuck(n, stuck),
                            };
                            let v = match eval(f, &frame, &mem, label, *rhs) {
                                Ok(v) => v,
                                Err(stuck) => return Batch::Stuck(n, stuck),
                            };
                            let Some(chunk) = chunk else {
                                return Batch::Stuck(n, st(label, "assignment at non-scalar type"));
                            };
                            if let Err(e) = mem.store(*chunk, b, ofs, v) {
                                return Batch::Stuck(
                                    n,
                                    st(label, format_args!("store failed: {e}")),
                                );
                            }
                            sid = f.skip_sid;
                            n += 1;
                        }
                        PStmt::Set(t, rhs) => {
                            let v = match eval(f, &frame, &mem, label, *rhs) {
                                Ok(v) => v,
                                Err(stuck) => return Batch::Stuck(n, stuck),
                            };
                            frame.temps[*t as usize] = Some(v);
                            sid = f.skip_sid;
                            n += 1;
                        }
                        PStmt::Seq(a, b) => {
                            kont = PKont::Seq(*b, Rc::new(kont));
                            sid = *a;
                            n += 1;
                        }
                        PStmt::If {
                            cond,
                            prefix,
                            then_sid,
                            else_sid,
                        } => {
                            let v = match eval(f, &frame, &mem, label, *cond) {
                                Ok(v) => v,
                                Err(stuck) => return Batch::Stuck(n, stuck),
                            };
                            match v.truth() {
                                Some(t) => {
                                    sid = if t { *then_sid } else { *else_sid };
                                    n += 1;
                                }
                                None => {
                                    return Batch::Stuck(n, st(label, format_args!("{prefix}{v}")))
                                }
                            }
                        }
                        PStmt::While {
                            cond,
                            prefix,
                            body_sid,
                        } => {
                            let v = match eval(f, &frame, &mem, label, *cond) {
                                Ok(v) => v,
                                Err(stuck) => return Batch::Stuck(n, stuck),
                            };
                            match v.truth() {
                                Some(true) => {
                                    kont = PKont::Loop(sid, Rc::new(kont));
                                    sid = *body_sid;
                                    n += 1;
                                }
                                Some(false) => {
                                    sid = f.skip_sid;
                                    n += 1;
                                }
                                None => {
                                    return Batch::Stuck(n, st(label, format_args!("{prefix}{v}")))
                                }
                            }
                        }
                        PStmt::Break => {
                            let mut k = kont;
                            loop {
                                match k {
                                    PKont::Seq(_, next) => k = unrc(next),
                                    PKont::Loop(_, next) => {
                                        kont = unrc(next);
                                        sid = f.skip_sid;
                                        n += 1;
                                        break;
                                    }
                                    PKont::Stop | PKont::Call { .. } => {
                                        return Batch::Stuck(n, st(label, "break outside a loop"));
                                    }
                                }
                            }
                        }
                        PStmt::Continue => {
                            let mut k = kont;
                            loop {
                                match k {
                                    PKont::Seq(_, next) => k = unrc(next),
                                    PKont::Loop(while_sid, next) => {
                                        sid = while_sid;
                                        kont = unrc(next);
                                        n += 1;
                                        break;
                                    }
                                    PKont::Stop | PKont::Call { .. } => {
                                        return Batch::Stuck(
                                            n,
                                            st(label, "continue outside a loop"),
                                        );
                                    }
                                }
                            }
                        }
                        PStmt::Return(e) => {
                            let v = match e {
                                Some(eid) => match eval(f, &frame, &mem, label, *eid) {
                                    Ok(v) => v,
                                    Err(stuck) => return Batch::Stuck(n, stuck),
                                },
                                None => Val::Undef,
                            };
                            if let Err(stuck) = free_locals(f, &frame, &mut mem, label) {
                                return Batch::Stuck(n, stuck);
                            }
                            // Unwind to the enclosing Call/Stop.
                            let mut k = kont;
                            while let PKont::Seq(_, next) | PKont::Loop(_, next) = k {
                                k = unrc(next);
                            }
                            n += 1;
                            mode = M::Ret(v, k);
                            break;
                        }
                        PStmt::CallI { fidx, args, dest } => {
                            let mut vals = Vec::with_capacity(args.len());
                            let mut stuck = None;
                            for &a in args.iter() {
                                match eval(f, &frame, &mem, label, a) {
                                    Ok(v) => vals.push(v),
                                    Err(e) => {
                                        stuck = Some(e);
                                        break;
                                    }
                                }
                            }
                            if let Some(stuck) = stuck {
                                return Batch::Stuck(n, stuck);
                            }
                            n += 1;
                            let fidx = *fidx;
                            mode = M::Enter(
                                fidx,
                                vals,
                                PKont::Call {
                                    dest: dest.clone(),
                                    frame,
                                    kont: Rc::new(kont),
                                },
                            );
                            break;
                        }
                        PStmt::CallE {
                            vf,
                            sig,
                            args,
                            dest,
                        } => {
                            let mut vals = Vec::with_capacity(args.len());
                            let mut stuck = None;
                            for &a in args.iter() {
                                match eval(f, &frame, &mem, label, a) {
                                    Ok(v) => vals.push(v),
                                    Err(e) => {
                                        stuck = Some(e);
                                        break;
                                    }
                                }
                            }
                            if let Some(stuck) = stuck {
                                return Batch::Stuck(n, stuck);
                            }
                            n += 1;
                            let q = CQuery {
                                vf: *vf,
                                sig: sig.clone(),
                                args: vals,
                                mem: mem.clone(),
                            };
                            *s = State::External {
                                q: q.clone(),
                                dest: dest.clone(),
                                frame,
                                kont,
                            };
                            return if n == fuel_left {
                                Batch::Ran(n)
                            } else {
                                Batch::External(n, q)
                            };
                        }
                        PStmt::CallTrap { args, msg } => {
                            for &a in args.iter() {
                                if let Err(stuck) = eval(f, &frame, &mem, label, a) {
                                    return Batch::Stuck(n, stuck);
                                }
                            }
                            return Batch::Stuck(n, st(label, msg));
                        }
                    }
                }
            }
            M::Ret(v, kont) => {
                if n == fuel_left {
                    *s = State::Returning { v, mem, kont };
                    return Batch::Ran(n);
                }
                match kont {
                    PKont::Stop => return Batch::Final(n, CReply { retval: v, mem }),
                    PKont::Call {
                        dest,
                        mut frame,
                        kont,
                    } => {
                        if let Err(stuck) = write_dest(p, label, &dest, v, &mut frame, &mut mem) {
                            return Batch::Stuck(n, stuck);
                        }
                        let skip = p.funcs[frame.fidx as usize].skip_sid;
                        n += 1;
                        mode = M::Stmt(skip, frame, unrc(kont));
                    }
                    // Unreachable by construction (Returning is built with
                    // Stop/Call only); stuck rather than panic.
                    PKont::Seq(_, _) | PKont::Loop(_, _) => {
                        return Batch::Stuck(n, Stuck::new("return into a non-call continuation"));
                    }
                }
            }
        }
    }
}
