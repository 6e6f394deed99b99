//! The `Renumber` pass: give CFG nodes contiguous identifiers in reverse
//! postorder (paper Table 3, convention `id ↠ id`).
//!
//! Purely administrative — later analyses converge faster on compact,
//! topologically-ordered node numbering — and semantically invisible, hence
//! the identity convention.

use std::collections::BTreeMap;

use crate::analysis::{preorder, successors_of};
use crate::lang::{Inst, Node, RtlFunction, RtlProgram};

/// Renumber every function's CFG.
pub fn renumber(prog: &RtlProgram) -> RtlProgram {
    prog.map_functions(renumber_function)
}

/// Renumber one function's CFG into a new function. The input's code is
/// only read: each reachable instruction is rebuilt once, under its new
/// name, and nothing else of the code map is copied.
#[must_use]
pub fn renumber_function(f: &RtlFunction) -> RtlFunction {
    // Depth-first preorder from the entry; unreachable nodes are dropped.
    let order = preorder(f.entry, successors_of(f));
    let renaming: BTreeMap<Node, Node> = order
        .iter()
        .enumerate()
        .map(|(i, n)| (*n, i as Node))
        .collect();
    let rn = |n: &Node| renaming[n];
    let code = order
        .iter()
        .map(|n| {
            let inst = match &f.code[n] {
                Inst::Op(op, d, nn) => Inst::Op(op.clone(), *d, rn(nn)),
                Inst::Load(c, b, disp, d, nn) => Inst::Load(*c, *b, *disp, *d, rn(nn)),
                Inst::Store(c, b, disp, s, nn) => Inst::Store(*c, *b, *disp, *s, rn(nn)),
                Inst::Call(sg, f2, a, d, nn) => {
                    Inst::Call(sg.clone(), f2.clone(), a.clone(), *d, rn(nn))
                }
                Inst::Tailcall(sg, f2, a) => Inst::Tailcall(sg.clone(), f2.clone(), a.clone()),
                Inst::Cond(r, t, e) => Inst::Cond(*r, rn(t), rn(e)),
                Inst::Nop(nn) => Inst::Nop(rn(nn)),
                Inst::Return(r) => Inst::Return(*r),
            };
            (renaming[n], inst)
        })
        .collect();
    RtlFunction {
        entry: renaming[&f.entry],
        ..f.with_code(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::RtlOp;
    use compcerto_core::iface::Signature;

    #[test]
    fn renumbers_compactly_and_drops_unreachable() {
        let code: BTreeMap<Node, Inst> = [
            (10, Inst::Op(RtlOp::Int(1), 0, 30)),
            (30, Inst::Return(Some(0))),
            (99, Inst::Return(None)), // unreachable
        ]
        .into_iter()
        .collect();
        let f = RtlFunction {
            name: "f".into(),
            sig: Signature::int_fn(0),
            params: vec![],
            stack_size: 0,
            entry: 10,
            code,
            next_reg: 1,
        };
        let out = renumber_function(&f);
        assert_eq!(out.entry, 0);
        assert_eq!(out.code.len(), 2);
        assert_eq!(out.code[&0], Inst::Op(RtlOp::Int(1), 0, 1));
        assert_eq!(out.code[&1], Inst::Return(Some(0)));
    }

    #[test]
    fn behaviour_identical() {
        use crate::gen::tests::front_end;
        use crate::sem::RtlSem;
        use compcerto_core::iface::{CQuery, CReply};
        use compcerto_core::lts::run;
        use mem::Val;

        let src =
            "int f(int n) { int s; s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }";
        let (_, prog, tbl) = front_end(src);
        let ren = renumber(&prog);
        let q = CQuery {
            vf: tbl.func_ptr("f").unwrap(),
            sig: prog.function("f").unwrap().sig.clone(),
            args: vec![Val::Int(10)],
            mem: tbl.build_init_mem().unwrap(),
        };
        let r1 = run(
            &RtlSem::new(prog, tbl.clone()),
            &q,
            &mut |_: &CQuery| None::<CReply>,
            100_000,
        )
        .expect_complete();
        let r2 = run(
            &RtlSem::new(ren, tbl),
            &q,
            &mut |_: &CQuery| None::<CReply>,
            100_000,
        )
        .expect_complete();
        assert_eq!(r1.retval, r2.retval);
        assert_eq!(r1.mem, r2.mem);
    }
}
