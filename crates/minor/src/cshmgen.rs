//! The `Cshmgen` pass: type-directed lowering from Clight-mini to
//! Csharpminor (paper Table 3, convention `id ↠ id`).
//!
//! C types disappear: every operation picks its machine width from the
//! operand types, loads and stores become explicit with their chunks, and
//! parameters uniformly become temporaries (memory-resident parameters get an
//! entry store). The memory behaviour is unchanged — the same blocks are
//! allocated in the same order — which is why the pass's simulation
//! convention is the identity.

use std::collections::BTreeMap;
use std::fmt;

use clight::{ast, Ty};
use compcerto_core::symtab::Ident;
use mem::Chunk;

use crate::csharp::{CsExpr, CsFunction, CsProgram, CsStmt};
use crate::op::{MBinop, MUnop};
use crate::structured::{GStmt, TempId};

/// Errors raised by `Cshmgen` (all indicate an ill-typed input program —
/// running [`fn@clight::typecheck`] first prevents them).
#[derive(Debug, Clone, PartialEq)]
pub struct CshmgenError {
    /// Function being translated.
    pub function: String,
    /// Description.
    pub message: String,
}

impl fmt::Display for CshmgenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cshmgen in `{}`: {}", self.function, self.message)
    }
}

impl std::error::Error for CshmgenError {}

struct FnCtx {
    fname: String,
    /// Clight names lifted to temporaries (from `SimplLocals`), plus
    /// memory-resident parameter shadows.
    name_temps: BTreeMap<Ident, TempId>,
    next_temp: TempId,
    temps: Vec<TempId>,
}

impl FnCtx {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, CshmgenError> {
        Err(CshmgenError {
            function: self.fname.clone(),
            message: message.into(),
        })
    }

    fn fresh(&mut self) -> TempId {
        let t = self.next_temp;
        self.next_temp += 1;
        self.temps.push(t);
        t
    }
}

/// Lower a typed Clight-mini program to Csharpminor.
///
/// # Errors
/// Fails only on ill-typed inputs (see [`CshmgenError`]).
pub fn cshmgen(prog: &ast::Program) -> Result<CsProgram, CshmgenError> {
    let mut out = CsProgram::default();
    for e in &prog.externs {
        out.externs.push((e.name.clone(), e.signature()));
    }
    for f in &prog.functions {
        out.functions.push(translate_function(f)?);
    }
    // Functions defined in this unit may also be referenced through
    // declarations in others; expose their signatures for `sig_of`.
    Ok(out)
}

fn translate_function(f: &ast::Function) -> Result<CsFunction, CshmgenError> {
    let mut ctx = FnCtx {
        fname: f.name.clone(),
        name_temps: f
            .temps
            .iter()
            .filter_map(|(t, _, n)| n.clone().map(|n| (n, *t)))
            .collect(),
        next_temp: f.temps.iter().map(|(t, _, _)| t + 1).max().unwrap_or(0),
        temps: f.temps.iter().map(|(t, _, _)| *t).collect(),
    };

    // Parameters: reuse the lifted temp when SimplLocals created one;
    // otherwise allocate a shadow temp and store it into the memory local.
    let mut params = Vec::with_capacity(f.params.len());
    let mut entry = GStmt::Skip;
    for (pname, pty) in &f.params {
        if let Some(t) = ctx.name_temps.get(pname).copied() {
            params.push(t);
        } else {
            let t = ctx.fresh();
            params.push(t);
            let chunk = chunk_of(&ctx, pty)?;
            entry = GStmt::seq(
                entry,
                GStmt::Store(chunk, CsExpr::AddrOf(pname.clone()), CsExpr::Temp(t)),
            );
        }
    }

    let body = translate_stmt(&mut ctx, &f.body)?;
    Ok(CsFunction {
        name: f.name.clone(),
        sig: f.signature(),
        params,
        vars: f.vars.iter().map(|(n, t)| (n.clone(), t.size())).collect(),
        temps: ctx.temps,
        body: GStmt::seq(entry, body),
    })
}

fn chunk_of(ctx: &FnCtx, ty: &Ty) -> Result<Chunk, CshmgenError> {
    ty.chunk()
        .ok_or(())
        .or_else(|()| ctx.err(format!("no chunk for type {ty}")))
}

fn translate_stmt(ctx: &mut FnCtx, s: &ast::Stmt) -> Result<CsStmt, CshmgenError> {
    match s {
        ast::Stmt::Skip => Ok(GStmt::Skip),
        ast::Stmt::Break => Ok(GStmt::Break),
        ast::Stmt::Continue => Ok(GStmt::Continue),
        ast::Stmt::Assign(lv, rhs) => {
            let chunk = chunk_of(ctx, &lv.ty())?;
            let addr = translate_addr(ctx, lv)?;
            let value = translate_expr(ctx, rhs)?;
            Ok(GStmt::Store(chunk, addr, value))
        }
        ast::Stmt::Set(t, e) => Ok(GStmt::Set(*t, translate_expr(ctx, e)?)),
        ast::Stmt::Call(dest, fname, args) => {
            let args = args
                .iter()
                .map(|a| translate_expr(ctx, a))
                .collect::<Result<Vec<_>, _>>()?;
            match dest {
                ast::CallDest::None => Ok(GStmt::Call(None, fname.clone(), args)),
                ast::CallDest::Temp(t, _) => Ok(GStmt::Call(Some(*t), fname.clone(), args)),
                ast::CallDest::Lvalue(lv) => {
                    let t = ctx.fresh();
                    let chunk = chunk_of(ctx, &lv.ty())?;
                    let addr = translate_addr(ctx, lv)?;
                    Ok(GStmt::seq(
                        GStmt::Call(Some(t), fname.clone(), args),
                        GStmt::Store(chunk, addr, CsExpr::Temp(t)),
                    ))
                }
            }
        }
        ast::Stmt::Seq(a, b) => Ok(GStmt::Seq(
            Box::new(translate_stmt(ctx, a)?),
            Box::new(translate_stmt(ctx, b)?),
        )),
        ast::Stmt::If(c, a, b) => Ok(GStmt::If(
            translate_expr(ctx, c)?,
            Box::new(translate_stmt(ctx, a)?),
            Box::new(translate_stmt(ctx, b)?),
        )),
        ast::Stmt::While(c, body) => Ok(GStmt::While(
            translate_expr(ctx, c)?,
            Box::new(translate_stmt(ctx, body)?),
        )),
        ast::Stmt::Return(None) => Ok(GStmt::Return(None)),
        ast::Stmt::Return(Some(e)) => Ok(GStmt::Return(Some(translate_expr(ctx, e)?))),
    }
}

/// Translate an lvalue to the expression computing its address.
fn translate_addr(ctx: &mut FnCtx, lv: &ast::Expr) -> Result<CsExpr, CshmgenError> {
    match lv {
        ast::Expr::Var(name, _) => {
            if ctx.name_temps.contains_key(name) {
                ctx.err(format!("address of lifted variable `{name}`"))
            } else {
                Ok(CsExpr::AddrOf(name.clone()))
            }
        }
        ast::Expr::Deref(inner, _) => translate_expr(ctx, inner),
        other => ctx.err(format!("not an lvalue: {other}")),
    }
}

fn translate_expr(ctx: &mut FnCtx, e: &ast::Expr) -> Result<CsExpr, CshmgenError> {
    match e {
        ast::Expr::ConstInt(n) => Ok(CsExpr::ConstInt(*n)),
        ast::Expr::ConstLong(n) => Ok(CsExpr::ConstLong(*n)),
        ast::Expr::SizeOf(t) => Ok(CsExpr::ConstLong(t.size())),
        ast::Expr::Temp(t, _) => Ok(CsExpr::Temp(*t)),
        ast::Expr::Var(name, ty) => {
            // An rvalue variable: lifted → temp; memory-resident → load.
            if let Some(t) = ctx.name_temps.get(name) {
                return Ok(CsExpr::Temp(*t));
            }
            let chunk = chunk_of(ctx, ty)?;
            Ok(CsExpr::Load(chunk, Box::new(CsExpr::AddrOf(name.clone()))))
        }
        ast::Expr::Deref(inner, ty) => {
            let chunk = chunk_of(ctx, ty)?;
            Ok(CsExpr::Load(chunk, Box::new(translate_expr(ctx, inner)?)))
        }
        ast::Expr::Addr(lv, _) => translate_addr(ctx, lv),
        ast::Expr::Unop(op, a, ty) => {
            let a_cs = translate_expr(ctx, a)?;
            let mop = match (op, ty) {
                (ast::Unop::Neg, Ty::Int) => MUnop::Neg32,
                (ast::Unop::Neg, Ty::Long) => MUnop::Neg64,
                (ast::Unop::Not, Ty::Int) => MUnop::Not32,
                (ast::Unop::Not, Ty::Long) => MUnop::Not64,
                (ast::Unop::LogicalNot, _) => MUnop::BoolNot,
                (op, ty) => return ctx.err(format!("unary {op} at {ty}")),
            };
            Ok(CsExpr::Unop(mop, Box::new(a_cs)))
        }
        ast::Expr::Binop(op, a, b, ty) => {
            let wa = a.ty();
            let a_cs = translate_expr(ctx, a)?;
            let b_cs = translate_expr(ctx, b)?;
            let _ = ty;
            let wide = !matches!(wa, Ty::Int);
            let mop = machine_binop(*op, wide);
            Ok(CsExpr::Binop(mop, Box::new(a_cs), Box::new(b_cs)))
        }
        ast::Expr::Cast(a, target) => {
            let from = a.ty();
            let a_cs = translate_expr(ctx, a)?;
            Ok(match (&from, target) {
                (Ty::Int, Ty::Long) => CsExpr::Unop(MUnop::SignExt, Box::new(a_cs)),
                (Ty::Long, Ty::Int) => CsExpr::Unop(MUnop::Trunc, Box::new(a_cs)),
                // Identity casts and pointer/long reinterpretations.
                _ => a_cs,
            })
        }
        ast::Expr::Index(_, _, _) => ctx.err("surface Index reached cshmgen"),
    }
}

fn machine_binop(op: ast::Binop, wide: bool) -> MBinop {
    use ast::Binop::*;
    match (op, wide) {
        (Add, false) => MBinop::Add32,
        (Add, true) => MBinop::Add64,
        (Sub, false) => MBinop::Sub32,
        (Sub, true) => MBinop::Sub64,
        (Mul, false) => MBinop::Mul32,
        (Mul, true) => MBinop::Mul64,
        (Div, false) => MBinop::Div32,
        (Div, true) => MBinop::Div64,
        (Mod, false) => MBinop::Mod32,
        (Mod, true) => MBinop::Mod64,
        (And, false) => MBinop::And32,
        (And, true) => MBinop::And64,
        (Or, false) => MBinop::Or32,
        (Or, true) => MBinop::Or64,
        (Xor, false) => MBinop::Xor32,
        (Xor, true) => MBinop::Xor64,
        (Shl, false) => MBinop::Shl32,
        (Shl, true) => MBinop::Shl64,
        (Shr, false) => MBinop::Shr32,
        (Shr, true) => MBinop::Shr64,
        (Cmp(c), false) => MBinop::Cmp32(c),
        (Cmp(c), true) => MBinop::Cmp64(c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csharp::CsharpSem;
    use clight::{build_symtab, parse, simpl_locals, typecheck, ClightSem};
    use compcerto_core::iface::{CQuery, CReply};
    use compcerto_core::lts::run;
    use mem::Val;

    /// Run the same query against the Clight and Csharpminor semantics and
    /// require identical replies (the pass's `id ↠ id` convention).
    fn differential(src: &str, fname: &str, args: Vec<Val>) -> CReply {
        let p = typecheck(&parse(src).unwrap()).unwrap();
        let p = simpl_locals(&p);
        let cs = cshmgen(&p).unwrap();
        let tbl = build_symtab(&[&p]).unwrap();
        let mem = tbl.build_init_mem().unwrap();
        let q = CQuery {
            vf: tbl.func_ptr(fname).unwrap(),
            sig: p.sig_of(fname).unwrap(),
            args,
            mem,
        };
        let s1 = ClightSem::new(p, tbl.clone());
        let s2 = CsharpSem::new(cs, tbl);
        let env = |eq: &CQuery| {
            Some(CReply {
                retval: eq.args.first().copied().unwrap_or(Val::Int(0)),
                mem: eq.mem.clone(),
            })
        };
        let r1 = run(&s1, &q, &mut env.clone(), 1_000_000).expect_complete();
        let r2 = run(&s2, &q, &mut env.clone(), 1_000_000).expect_complete();
        assert_eq!(r1.retval, r2.retval, "return values differ");
        assert_eq!(r1.mem, r2.mem, "memories differ (id convention)");
        r2
    }

    #[test]
    fn arithmetic() {
        let r = differential(
            "int f(int a, int b) { return (a + b) * (a - b); }",
            "f",
            vec![Val::Int(7), Val::Int(3)],
        );
        assert_eq!(r.retval, Val::Int(40));
    }

    #[test]
    fn memory_params_and_pointers() {
        let src = "
            int swap_add(int a, int b) {
                int* p; int t;
                p = &a;
                t = *p;
                *p = b;
                return t + a;
            }";
        let r = differential(src, "swap_add", vec![Val::Int(5), Val::Int(9)]);
        assert_eq!(r.retval, Val::Int(14));
    }

    #[test]
    fn loops_and_arrays() {
        let src = "
            long acc[4];
            long sum(int n) {
                int i; long s;
                s = 0L;
                for (i = 0; i < n; i = i + 1) { acc[i] = (long) i; }
                for (i = 0; i < n; i = i + 1) { s = s + acc[i]; }
                return s;
            }";
        let r = differential(src, "sum", vec![Val::Int(4)]);
        assert_eq!(r.retval, Val::Long(6));
    }

    #[test]
    fn internal_and_external_calls() {
        let src = "
            extern int osc(int);
            int helper(int x) { return x * 3; }
            int f(int x) {
                int a; int b;
                a = helper(x);
                b = osc(a);
                return a + b;
            }";
        // env echoes its argument, so osc(a) == a.
        let r = differential(src, "f", vec![Val::Int(2)]);
        assert_eq!(r.retval, Val::Int(12));
    }

    #[test]
    fn casts_and_widths() {
        let src = "
            int f(long x) {
                int lo;
                lo = (int) x;
                return lo + 1;
            }";
        let r = differential(src, "f", vec![Val::Long(0x1_0000_0009)]);
        assert_eq!(r.retval, Val::Int(10));
    }
}
