//! The `Ndce` pass: neededness-driven dead-code elimination (DESIGN.md §12,
//! convention `va·ext ↠ va·ext`).
//!
//! Strengthens [`mod@crate::deadcode`] with the backward *neededness* analysis
//! (CompCert's liveness-of-bits): an instruction whose result is needed at
//! `Nothing` is deleted, and because a dead result propagates `Nothing` to
//! everything it reads, whole dead *chains* disappear in one fixpoint —
//! including chains the plain one-shot liveness pass leaves behind after
//! `vprop` turns their last consumer into a constant.
//!
//! Like [`mod@crate::vprop`], the pass is untrusted: it consumes precomputed
//! per-node needed-*after* environments and every deletion is re-justified
//! by `validate_deadcode` against facts recomputed from the pass input.
//! Only pure operations and loads are ever deleted; stores, calls and
//! control flow are untouchable regardless of the facts.

use std::collections::BTreeMap;

use crate::absint::NeedEnv;
use crate::lang::{Inst, Node, RtlFunction, RtlProgram};

/// Per-function, per-node needed-after environments: what the continuation
/// *after* the node observes of each register.
pub type NeedFacts = BTreeMap<String, BTreeMap<Node, NeedEnv>>;

/// Run neededness-driven dead-code elimination over every function for
/// which facts were solved (functions without facts are left untouched).
pub fn ndce(prog: &RtlProgram, facts: &NeedFacts) -> RtlProgram {
    prog.map_functions(|f| match facts.get(&f.name) {
        Some(envs) => ndce_function(f, envs),
        None => f.clone(),
    })
}

/// Is this instruction deletable when its destination is needed at
/// `Nothing` — a pure operation or a load (never a store, call, or control
/// transfer)?
#[must_use]
pub fn deletable(inst: &Inst) -> bool {
    matches!(inst, Inst::Op(_, _, _) | Inst::Load(_, _, _, _, _))
}

fn ndce_function(f: &RtlFunction, envs: &BTreeMap<Node, NeedEnv>) -> RtlFunction {
    let mut out = f.clone();
    for (n, inst) in &f.code {
        let Some(env) = envs.get(n) else { continue };
        if !deletable(inst) {
            continue;
        }
        let succs = inst.successors();
        let (Some(dst), [next]) = (inst.def(), &succs[..]) else {
            continue;
        };
        if env.get(dst).is_nothing() {
            out.code.insert(*n, Inst::Nop(*next));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::Needs;
    use crate::lang::RtlOp;
    use compcerto_core::iface::Signature;
    use minor::MBinop;

    fn fun(code: Vec<(Node, Inst)>) -> RtlFunction {
        RtlFunction {
            name: "f".into(),
            sig: Signature::int_fn(1),
            params: vec![0],
            stack_size: 0,
            entry: 0,
            code: code.into_iter().collect(),
            next_reg: 8,
        }
    }

    fn facts_for(f: &RtlFunction, envs: Vec<(Node, NeedEnv)>) -> NeedFacts {
        let mut m = BTreeMap::new();
        m.insert(f.name.clone(), envs.into_iter().collect());
        m
    }

    #[test]
    fn dead_chain_is_deleted_but_live_tail_stays() {
        // r1 := r0+1; r2 := r1*2 (r2 dead) — both go; the return survives.
        let f = fun(vec![
            (
                0,
                Inst::Op(RtlOp::BinopImm(MBinop::Add32, 0, mem::Val::Int(1)), 1, 1),
            ),
            (
                1,
                Inst::Op(RtlOp::BinopImm(MBinop::Mul32, 1, mem::Val::Int(2)), 2, 2),
            ),
            (2, Inst::Return(Some(0))),
        ]);
        // Needed-after: r0 all the way (returned); r1/r2 never.
        let mut e = NeedEnv::default();
        e.add(0, Needs::All);
        let facts = facts_for(
            &f,
            vec![(0, e.clone()), (1, e.clone()), (2, NeedEnv::default())],
        );
        let prog = RtlProgram {
            functions: vec![f],
            externs: vec![],
        };
        let out = ndce(&prog, &facts);
        assert_eq!(out.functions[0].code[&0], Inst::Nop(1));
        assert_eq!(out.functions[0].code[&1], Inst::Nop(2));
        assert_eq!(out.functions[0].code[&2], Inst::Return(Some(0)));
    }

    #[test]
    fn bit_needed_results_survive() {
        let f = fun(vec![
            (
                0,
                Inst::Op(RtlOp::BinopImm(MBinop::And32, 0, mem::Val::Int(1)), 1, 1),
            ),
            (1, Inst::Return(Some(1))),
        ]);
        let mut e = NeedEnv::default();
        e.add(1, Needs::Bits(1));
        let facts = facts_for(&f, vec![(0, e), (1, NeedEnv::default())]);
        let prog = RtlProgram {
            functions: vec![f.clone()],
            externs: vec![],
        };
        let out = ndce(&prog, &facts);
        assert_eq!(out.functions[0].code, f.code);
    }

    #[test]
    fn stores_are_never_deleted() {
        let f = fun(vec![
            (0, Inst::Store(mem::Chunk::I32, 0, 0, 0, 1)),
            (1, Inst::Return(None)),
        ]);
        // Even an (impossible) all-dead fact must not delete a store.
        let facts = facts_for(&f, vec![(0, NeedEnv::default()), (1, NeedEnv::default())]);
        let prog = RtlProgram {
            functions: vec![f.clone()],
            externs: vec![],
        };
        let out = ndce(&prog, &facts);
        assert_eq!(out.functions[0].code, f.code);
    }
}
