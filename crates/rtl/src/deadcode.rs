//! The `Deadcode` pass: remove pure instructions whose result is never used
//! (paper Table 3, convention `va·ext ↠ va·ext`).
//!
//! Removal can only turn defined behaviour into *more* defined behaviour
//! (a dead load that would have trapped disappears), which is why the pass
//! sits under an `ext`-flavoured convention rather than the identity.

use crate::analysis::liveness;
use crate::lang::{Inst, RtlFunction, RtlProgram};

/// Run dead-code elimination over every function.
pub fn deadcode(prog: &RtlProgram) -> RtlProgram {
    prog.map_functions(deadcode_function)
}

fn deadcode_function(f: &RtlFunction) -> RtlFunction {
    let live_out = liveness(f);
    let code = f
        .code
        .iter()
        .map(|(n, inst)| {
            let new = match inst {
                Inst::Op(_, dst, next) | Inst::Load(_, _, _, dst, next)
                    if live_out.get(n).is_some_and(|l| !l.contains(*dst)) =>
                {
                    Inst::Nop(*next)
                }
                _ => inst.clone(),
            };
            (*n, new)
        })
        .collect();
    f.with_code(code)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{PReg, RtlOp};
    use compcerto_core::iface::Signature;
    use minor::MBinop;

    fn fun(code: Vec<(u32, Inst)>, params: Vec<PReg>) -> RtlFunction {
        RtlFunction {
            name: "f".into(),
            sig: Signature::int_fn(params.len()),
            params,
            stack_size: 0,
            entry: 0,
            code: code.into_iter().collect(),
            next_reg: 100,
        }
    }

    #[test]
    fn removes_unused_ops() {
        // x2 := x0+x1 (dead); return x0
        let f = fun(
            vec![
                (0, Inst::Op(RtlOp::Binop(MBinop::Add32, 0, 1), 2, 1)),
                (1, Inst::Return(Some(0))),
            ],
            vec![0, 1],
        );
        let out = deadcode_function(&f);
        assert_eq!(out.code[&0], Inst::Nop(1));
    }

    #[test]
    fn removes_dead_loads_but_not_stores() {
        let f = fun(
            vec![
                (0, Inst::Load(mem::Chunk::I32, 0, 0, 2, 1)), // dead load
                (1, Inst::Store(mem::Chunk::I32, 0, 0, 1, 2)), // store stays
                (2, Inst::Return(Some(1))),
            ],
            vec![0, 1],
        );
        let out = deadcode_function(&f);
        assert_eq!(out.code[&0], Inst::Nop(1));
        assert!(matches!(out.code[&1], Inst::Store(_, _, _, _, _)));
    }

    #[test]
    fn keeps_live_chains() {
        // x2 := x0+x1; return x2 — everything live.
        let f = fun(
            vec![
                (0, Inst::Op(RtlOp::Binop(MBinop::Add32, 0, 1), 2, 1)),
                (1, Inst::Return(Some(2))),
            ],
            vec![0, 1],
        );
        let out = deadcode_function(&f);
        assert_eq!(out.code, f.code);
    }

    #[test]
    fn loop_carried_values_stay_live() {
        // x2 := 0; L: if x0 goto 2 else 4; x2 := x2 + x1; goto L; return x2
        let f = fun(
            vec![
                (0, Inst::Op(RtlOp::Int(0), 2, 1)),
                (1, Inst::Cond(0, 2, 4)),
                (2, Inst::Op(RtlOp::Binop(MBinop::Add32, 2, 1), 2, 3)),
                (3, Inst::Op(RtlOp::Int(0), 0, 1)), // kill the loop condition
                (4, Inst::Return(Some(2))),
            ],
            vec![0, 1],
        );
        let mut code = f.code.clone();
        let out = deadcode_function(&f);
        // Nothing is dead: x2 feeds the return through the back edge.
        code.remove(&99);
        assert_eq!(out.code, code);
    }
}
