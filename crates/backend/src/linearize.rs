//! The `Linearize` pass: order the LTL control-flow graph into a Linear
//! instruction list (paper Table 3, convention `id ↠ id`).
//!
//! Nodes are laid out in depth-first order; a branch to the instruction that
//! happens to come next falls through, every other edge becomes an explicit
//! `Goto`. Every node gets a `Label` (the later `CleanupLabels` pass removes
//! the unreferenced ones).

use crate::linear::{LinFunction, LinInst, LinProgram};
use crate::ltl::{LtlFunction, LtlInst, LtlProgram, Node};

/// Linearize every function.
pub fn linearize(prog: &LtlProgram) -> LinProgram {
    LinProgram {
        functions: prog.functions.iter().map(linearize_function).collect(),
        externs: prog.externs.clone(),
    }
}

fn linearize_function(f: &LtlFunction) -> LinFunction {
    // Depth-first preorder from the entry.
    let order = rtl::preorder(f.entry, |n| f.code.get(&n).map(LtlInst::successors));

    let mut code: Vec<LinInst> = Vec::new();
    for (i, n) in order.iter().enumerate() {
        code.push(LinInst::Label(*n));
        let next_in_order = order.get(i + 1).copied();
        let fallthrough = |target: Node, code: &mut Vec<LinInst>| {
            if next_in_order != Some(target) {
                code.push(LinInst::Goto(target));
            }
        };
        match &f.code[n] {
            LtlInst::Nop(t) => fallthrough(*t, &mut code),
            LtlInst::Op(op, d, t) => {
                code.push(LinInst::Op(op.clone(), *d));
                fallthrough(*t, &mut code);
            }
            LtlInst::Load(c, b, disp, d, t) => {
                code.push(LinInst::Load(*c, *b, *disp, *d));
                fallthrough(*t, &mut code);
            }
            LtlInst::Store(c, b, disp, s, t) => {
                code.push(LinInst::Store(*c, *b, *disp, *s));
                fallthrough(*t, &mut code);
            }
            LtlInst::Call(callee, sig, t) => {
                code.push(LinInst::Call(callee.clone(), sig.clone()));
                fallthrough(*t, &mut code);
            }
            LtlInst::Cond(l, t, e) => {
                code.push(LinInst::CondGoto(*l, *t));
                fallthrough(*e, &mut code);
            }
            LtlInst::Return => code.push(LinInst::Return),
        }
    }
    LinFunction {
        name: f.name.clone(),
        sig: f.sig.clone(),
        stack_size: f.stack_size,
        locals_size: f.locals_size,
        outgoing_size: f.outgoing_size,
        used_callee_save: f.used_callee_save.clone(),
        debug: vec![],
        code,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ltl::LOp;
    use compcerto_core::iface::Signature;
    use compcerto_core::regs::{Loc, Mreg};
    use std::collections::BTreeMap;

    #[test]
    fn straightline_falls_through() {
        let mut code = BTreeMap::new();
        code.insert(0, LtlInst::Op(LOp::Int(1), Loc::Reg(Mreg(0)), 1));
        code.insert(1, LtlInst::Return);
        let f = LtlFunction {
            name: "f".into(),
            sig: Signature::int_fn(0),
            stack_size: 0,
            locals_size: 0,
            outgoing_size: 0,
            used_callee_save: vec![],
            entry: 0,
            code,
        };
        let out = linearize_function(&f);
        // No Goto needed anywhere.
        assert!(!out.code.iter().any(|i| matches!(i, LinInst::Goto(_))));
    }

    #[test]
    fn branches_get_explicit_gotos() {
        let mut code = BTreeMap::new();
        code.insert(0, LtlInst::Cond(Loc::Reg(Mreg(0)), 1, 2));
        code.insert(1, LtlInst::Return);
        code.insert(2, LtlInst::Op(LOp::Int(5), Loc::Reg(Mreg(0)), 1));
        let f = LtlFunction {
            name: "f".into(),
            sig: Signature::int_fn(1),
            stack_size: 0,
            locals_size: 0,
            outgoing_size: 0,
            used_callee_save: vec![],
            entry: 0,
            code,
        };
        let out = linearize_function(&f);
        assert!(out
            .code
            .iter()
            .any(|i| matches!(i, LinInst::CondGoto(_, 1))));
        // Node 2's successor 1 appears before it in DFS order: needs a Goto.
        assert!(out.code.iter().any(|i| matches!(i, LinInst::Goto(1))));
    }
}
