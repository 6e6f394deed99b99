//! The `Constprop` pass: constant propagation driven by the value analysis
//! (paper Table 3, convention `va·ext ↠ va·ext`).
//!
//! The convention records that the pass is only correct when the environment
//! maintains the value-analysis invariant — read-only globals keep their
//! initial values across external calls (paper App. B.3).

use mem::Val;

use crate::analysis::{eval_op_abstract, value_analysis, AEnv, AVal, Romem};
use crate::lang::{Inst, RtlFunction, RtlOp, RtlProgram};

/// Run constant propagation over every function.
pub fn constprop(prog: &RtlProgram, romem: &Romem) -> RtlProgram {
    prog.map_functions(|f| constprop_function(f, romem))
}

fn const_op(v: &Val) -> Option<RtlOp> {
    match v {
        Val::Int(n) => Some(RtlOp::Int(*n)),
        Val::Long(n) => Some(RtlOp::Long(*n)),
        _ => None,
    }
}

fn constprop_function(f: &RtlFunction, romem: &Romem) -> RtlFunction {
    let states = value_analysis(f, romem);
    let code = f
        .code
        .iter()
        .map(|(n, inst)| {
            let new = match states.get(n) {
                Some(env) => rewrite(env, inst, romem),
                None => inst.clone(),
            };
            (*n, new)
        })
        .collect();
    f.with_code(code)
}

/// `inst` rewritten under the abstract environment `env` before it.
fn rewrite(env: &AEnv, inst: &Inst, romem: &Romem) -> Inst {
    match inst {
        Inst::Op(op, dst, next) => {
            match eval_op_abstract(env, op) {
                AVal::Const(v) => match const_op(&v) {
                    Some(c) => Inst::Op(c, *dst, *next),
                    None => inst.clone(),
                },
                // Rebuild symbolic addresses as direct address operations.
                AVal::Global(s, d) if !matches!(op, RtlOp::AddrGlobal(_, _)) => {
                    Inst::Op(RtlOp::AddrGlobal(s.to_string(), d), *dst, *next)
                }
                AVal::Stack(d) if !matches!(op, RtlOp::AddrStack(_)) => {
                    Inst::Op(RtlOp::AddrStack(d), *dst, *next)
                }
                _ => inst.clone(),
            }
        }
        Inst::Load(chunk, base, disp, dst, next) => match env.get(*base) {
            AVal::Global(s, d) => match romem.load(*chunk, s, d.wrapping_add(*disp)) {
                Some(v) => match const_op(&v) {
                    Some(c) => Inst::Op(c, *dst, *next),
                    None => inst.clone(),
                },
                None => inst.clone(),
            },
            _ => inst.clone(),
        },
        Inst::Cond(r, t, e) => match env.get(*r) {
            AVal::Const(v) => match v.truth() {
                Some(true) => Inst::Nop(*t),
                Some(false) => Inst::Nop(*e),
                None => inst.clone(),
            },
            _ => inst.clone(),
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compcerto_core::symtab::SymbolTable;
    use std::collections::BTreeMap;

    use compcerto_core::iface::Signature;
    use minor::MBinop;

    #[test]
    fn folds_constant_chains() {
        // x0 := 6; x1 := 7; x2 := x0*x1; return x2  ==>  x2 := 42
        let mut code = BTreeMap::new();
        code.insert(0, Inst::Op(RtlOp::Int(6), 0, 1));
        code.insert(1, Inst::Op(RtlOp::Int(7), 1, 2));
        code.insert(2, Inst::Op(RtlOp::Binop(MBinop::Mul32, 0, 1), 2, 3));
        code.insert(3, Inst::Return(Some(2)));
        let f = RtlFunction {
            name: "f".into(),
            sig: Signature::int_fn(0),
            params: vec![],
            stack_size: 0,
            entry: 0,
            code,
            next_reg: 3,
        };
        let prog = RtlProgram {
            functions: vec![f],
            externs: vec![],
        };
        let romem = Romem::new(&SymbolTable::new());
        let out = constprop(&prog, &romem);
        assert_eq!(out.functions[0].code[&2], Inst::Op(RtlOp::Int(42), 2, 3));
    }

    #[test]
    fn resolves_known_branches() {
        // x0 := 1; if x0 goto 2 else 3
        let mut code = BTreeMap::new();
        code.insert(0, Inst::Op(RtlOp::Int(1), 0, 1));
        code.insert(1, Inst::Cond(0, 2, 3));
        code.insert(2, Inst::Return(Some(0)));
        code.insert(3, Inst::Return(None));
        let f = RtlFunction {
            name: "f".into(),
            sig: Signature::int_fn(0),
            params: vec![],
            stack_size: 0,
            entry: 0,
            code,
            next_reg: 1,
        };
        let prog = RtlProgram {
            functions: vec![f],
            externs: vec![],
        };
        let romem = Romem::new(&SymbolTable::new());
        let out = constprop(&prog, &romem);
        assert_eq!(out.functions[0].code[&1], Inst::Nop(2));
    }

    #[test]
    fn loads_from_readonly_globals_fold() {
        use compcerto_core::symtab::{GlobKind, InitDatum};
        let mut tbl = SymbolTable::new();
        tbl.define(
            "limit".into(),
            GlobKind::Var {
                init: vec![InitDatum::Int32(64)],
                readonly: true,
            },
        );
        let mut code = BTreeMap::new();
        code.insert(0, Inst::Op(RtlOp::AddrGlobal("limit".into(), 0), 0, 1));
        code.insert(1, Inst::Load(mem::Chunk::I32, 0, 0, 1, 2));
        code.insert(2, Inst::Return(Some(1)));
        let f = RtlFunction {
            name: "f".into(),
            sig: Signature::int_fn(0),
            params: vec![],
            stack_size: 0,
            entry: 0,
            code,
            next_reg: 2,
        };
        let prog = RtlProgram {
            functions: vec![f],
            externs: vec![],
        };
        let romem = Romem::new(&tbl);
        let out = constprop(&prog, &romem);
        assert_eq!(out.functions[0].code[&1], Inst::Op(RtlOp::Int(64), 1, 2));
    }
}
