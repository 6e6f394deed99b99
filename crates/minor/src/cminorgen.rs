//! The `Cminorgen` pass: merge per-variable blocks into one stack block
//! (paper Table 3, convention `injp ↠ inj`).
//!
//! Every memory-resident local of a Csharpminor function is assigned an
//! offset in a single per-activation stack block. Source and target memories
//! are related by a *non-trivial* injection — each source local block maps
//! into the stack block at its offset — which is exactly the situation
//! paper §4.2 introduces injections for.

use std::collections::BTreeMap;
use std::fmt;

use compcerto_core::symtab::Ident;

use crate::cminor::{CmExpr, CmFunction, CmProgram, CmStmt};
use crate::csharp::{CsExpr, CsFunction, CsProgram};
use crate::structured::GStmt;

/// Error raised when a local's address is required but the variable is
/// unknown (indicates a malformed Csharpminor program).
#[derive(Debug, Clone, PartialEq)]
pub struct CminorgenError {
    /// Function being translated.
    pub function: String,
    /// Description.
    pub message: String,
}

impl fmt::Display for CminorgenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cminorgen in `{}`: {}", self.function, self.message)
    }
}

impl std::error::Error for CminorgenError {}

/// Compute the stack layout of a function: 8-byte-aligned offsets for each
/// memory-resident local, and the total (8-byte-rounded) frame size.
pub fn layout(vars: &[(Ident, i64)]) -> (BTreeMap<Ident, i64>, i64) {
    let mut offsets = BTreeMap::new();
    let mut next = 0i64;
    for (name, size) in vars {
        next = (next + 7) & !7;
        offsets.insert(name.clone(), next);
        next += size.max(&0);
    }
    (offsets, (next + 7) & !7)
}

/// Lower a Csharpminor program to Cminor.
///
/// # Errors
/// Fails on references to unknown locals (malformed input).
pub fn cminorgen(prog: &CsProgram) -> Result<CmProgram, CminorgenError> {
    let mut out = CmProgram {
        functions: Vec::new(),
        externs: prog.externs.clone(),
    };
    for f in &prog.functions {
        out.functions.push(translate_function(f)?);
    }
    Ok(out)
}

fn translate_function(f: &CsFunction) -> Result<CmFunction, CminorgenError> {
    let (offsets, stack_size) = layout(&f.vars);
    let body = translate_stmt(&offsets, &f.body)?;
    Ok(CmFunction {
        name: f.name.clone(),
        sig: f.sig.clone(),
        params: f.params.clone(),
        stack_size,
        temps: f.temps.clone(),
        body,
    })
}

fn translate_stmt(
    offsets: &BTreeMap<Ident, i64>,
    s: &GStmt<CsExpr>,
) -> Result<CmStmt, CminorgenError> {
    Ok(match s {
        GStmt::Skip => GStmt::Skip,
        GStmt::Break => GStmt::Break,
        GStmt::Continue => GStmt::Continue,
        GStmt::Set(t, e) => GStmt::Set(*t, translate_expr(offsets, e)?),
        GStmt::Store(chunk, a, v) => GStmt::Store(
            *chunk,
            translate_expr(offsets, a)?,
            translate_expr(offsets, v)?,
        ),
        GStmt::Call(dest, callee, args) => GStmt::Call(
            *dest,
            callee.clone(),
            args.iter()
                .map(|a| translate_expr(offsets, a))
                .collect::<Result<_, _>>()?,
        ),
        GStmt::Seq(a, b) => GStmt::Seq(
            Box::new(translate_stmt(offsets, a)?),
            Box::new(translate_stmt(offsets, b)?),
        ),
        GStmt::If(c, a, b) => GStmt::If(
            translate_expr(offsets, c)?,
            Box::new(translate_stmt(offsets, a)?),
            Box::new(translate_stmt(offsets, b)?),
        ),
        GStmt::While(c, body) => GStmt::While(
            translate_expr(offsets, c)?,
            Box::new(translate_stmt(offsets, body)?),
        ),
        GStmt::Return(e) => GStmt::Return(match e {
            Some(e) => Some(translate_expr(offsets, e)?),
            None => None,
        }),
    })
}

fn translate_expr(offsets: &BTreeMap<Ident, i64>, e: &CsExpr) -> Result<CmExpr, CminorgenError> {
    Ok(match e {
        CsExpr::ConstInt(n) => CmExpr::ConstInt(*n),
        CsExpr::ConstLong(n) => CmExpr::ConstLong(*n),
        CsExpr::Temp(t) => CmExpr::Temp(*t),
        CsExpr::AddrOf(name) => match offsets.get(name) {
            Some(ofs) => CmExpr::AddrStack(*ofs),
            // Not a local: must be a global symbol, resolved at run time.
            None => CmExpr::AddrGlobal(name.clone()),
        },
        CsExpr::Load(chunk, a) => CmExpr::Load(*chunk, Box::new(translate_expr(offsets, a)?)),
        CsExpr::Unop(op, a) => CmExpr::Unop(*op, Box::new(translate_expr(offsets, a)?)),
        CsExpr::Binop(op, a, b) => CmExpr::Binop(
            *op,
            Box::new(translate_expr(offsets, a)?),
            Box::new(translate_expr(offsets, b)?),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cminor::CminorSem;
    use crate::csharp::CsharpSem;
    use crate::cshmgen::cshmgen;
    use clight::{build_symtab, parse, simpl_locals, typecheck};
    use compcerto_core::iface::{CQuery, CReply};
    use compcerto_core::lts::run;
    use mem::{mem_inject, MemInj, Val};

    #[test]
    fn layout_is_aligned() {
        let (offsets, size) = layout(&[("a".into(), 4), ("b".into(), 8), ("c".into(), 1)]);
        assert_eq!(offsets["a"], 0);
        assert_eq!(offsets["b"], 8);
        assert_eq!(offsets["c"], 16);
        assert_eq!(size, 24);
    }

    /// Differential check under the pass's `injp ↠ inj` convention:
    /// return values equal (no pointers escape in these tests) and final
    /// memories injection-related via identity on globals.
    fn differential(src: &str, fname: &str, args: Vec<Val>) -> CReply {
        let p = simpl_locals(&typecheck(&parse(src).unwrap()).unwrap());
        let cs = cshmgen(&p).unwrap();
        let cm = cminorgen(&cs).unwrap();
        let tbl = build_symtab(&[&p]).unwrap();
        let mem = tbl.build_init_mem().unwrap();
        let q = CQuery {
            vf: tbl.func_ptr(fname).unwrap(),
            sig: p.sig_of(fname).unwrap(),
            args,
            mem,
        };
        let s1 = CsharpSem::new(cs, tbl.clone());
        let s2 = CminorSem::new(cm, tbl.clone());
        let env = |eq: &CQuery| {
            Some(CReply {
                retval: eq.args.first().copied().unwrap_or(Val::Int(0)),
                mem: eq.mem.clone(),
            })
        };
        let r1 = run(&s1, &q, &mut env.clone(), 1_000_000).expect_complete();
        let r2 = run(&s2, &q, &mut env.clone(), 1_000_000).expect_complete();
        assert_eq!(r1.retval, r2.retval, "return values differ");
        // Final memories: all locals freed; globals related by identity.
        let f = MemInj::identity_below(tbl.len() as u32);
        assert_eq!(mem_inject(&f, &r1.mem, &r2.mem), Ok(()));
        r2
    }

    #[test]
    fn stack_allocated_locals() {
        let src = "
            int f(int x) {
                int a; int b; int* p;
                p = &a;
                *p = x;
                b = a + 1;
                return b;
            }";
        let r = differential(src, "f", vec![Val::Int(41)]);
        assert_eq!(r.retval, Val::Int(42));
    }

    #[test]
    fn arrays_on_the_stack() {
        let src = "
            long rev3(long x, long y, long z) {
                long a[3];
                a[0] = x; a[1] = y; a[2] = z;
                return a[2] * 100 + a[1] * 10 + a[0];
            }";
        let r = differential(src, "rev3", vec![Val::Long(1), Val::Long(2), Val::Long(3)]);
        assert_eq!(r.retval, Val::Long(321));
    }

    #[test]
    fn recursion_with_stack_frames() {
        let src = "
            int tri(int n) {
                int a[1]; int r;
                a[0] = n;
                if (n <= 0) { return 0; }
                r = tri(n - 1);
                return a[0] + r;
            }";
        let r = differential(src, "tri", vec![Val::Int(5)]);
        assert_eq!(r.retval, Val::Int(15));
    }

    #[test]
    fn globals_still_resolve() {
        let src = "
            int counter = 10;
            int bump(int d) {
                counter = counter + d;
                return counter;
            }";
        let r = differential(src, "bump", vec![Val::Int(5)]);
        assert_eq!(r.retval, Val::Int(15));
    }
}
