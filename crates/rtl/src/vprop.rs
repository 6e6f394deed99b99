//! The `Vprop` pass: interval-driven constant propagation with branch
//! folding (DESIGN.md §12, convention `va·ext ↠ va·ext`).
//!
//! Strengthens [`crate::constprop`] with the interval facts of the abstract
//! interpreter: operations whose abstract result is a *singleton* fold to
//! constants even when no operand is a compile-time constant (e.g. `x % 4`
//! after a widening settled `x ≥ 0`, or a definite interval comparison),
//! algebraic identities collapse to moves, three-address operations with one
//! proven-constant operand strength-reduce to their immediate forms, and
//! conditions with a definite truth value fold to gotos.
//!
//! The pass is *untrusted*: it consumes precomputed per-node abstract
//! environments (`facts`, keyed by function name — solved by
//! `compcerto-validate`'s fixpoint engine) and every rewrite is re-justified
//! after the fact by `validate_constprop` against facts recomputed from the
//! pass *input*. Every rewrite here is semantically **exact** — the rewritten
//! instruction computes the same value (including definedness) in every
//! execution — which is what makes the justification checkable per node.

use std::collections::BTreeMap;

use mem::Val;

use crate::absint::{commutes, eval_op_va, VaEnv, VaVal};
use crate::constprop::const_op;
use crate::lang::{Inst, Node, PReg, RtlFunction, RtlOp, RtlProgram};
use minor::MBinop;

/// Per-function, per-node abstract environments (the state *before* the
/// node executes).
pub type VaFacts = BTreeMap<String, BTreeMap<Node, VaEnv>>;

/// Run interval-driven constant propagation over every function for which
/// facts were solved (functions without facts are left untouched).
pub fn vprop(prog: &RtlProgram, facts: &VaFacts) -> RtlProgram {
    prog.map_functions(|f| match facts.get(&f.name) {
        Some(envs) => vprop_function(f, envs),
        None => f.clone(),
    })
}

/// Does `op` with right-hand immediate `imm` act as the identity on every
/// concrete value described by `x` (same value, same definedness)?
fn is_identity(op: MBinop, x: &VaVal, imm: &Val) -> bool {
    use MBinop::*;
    match (op, imm) {
        // `v + 0` / `v - 0`: exact for 32-bit ints with an `Int 0`, 64-bit
        // ints with a `Long 0`, and pointers with either (mem::Val offsets
        // pointers by both widths).
        (Add32 | Sub32, Val::Int(0)) => x.is_i32() || x.is_pointer(),
        (Add64 | Sub64, Val::Long(0)) => x.is_i64() || x.is_pointer(),
        (Add32 | Sub32, Val::Long(0)) | (Add64 | Sub64, Val::Int(0)) => x.is_pointer(),
        (Mul32, Val::Int(1)) => x.is_i32(),
        (Mul64, Val::Long(1)) => x.is_i64(),
        (And32, Val::Int(-1)) | (Or32 | Xor32, Val::Int(0)) => x.is_i32(),
        (And64, Val::Long(-1)) | (Or64 | Xor64, Val::Long(0)) => x.is_i64(),
        // Shift amounts are 32-bit for both widths.
        (Shl32 | Shr32 | Shru32, Val::Int(0)) => x.is_i32(),
        (Shl64 | Shr64 | Shru64, Val::Int(0)) => x.is_i64(),
        _ => false,
    }
}

/// Rewrite one pure operation under the abstract environment `env`, or
/// return `None` to keep it. Exposed so the validator enumerates the exact
/// same rewrite space when re-justifying a differing node.
#[must_use]
pub fn rewrite_op(env: &VaEnv, op: &RtlOp) -> Option<RtlOp> {
    // 1. The whole result is known: fold to a constant / address. A
    //    singleton abstract value concretizes to exactly one defined value,
    //    so the fold is exact.
    let av = eval_op_va(env, op);
    if let Some(v) = av.as_const() {
        if let Some(c) = const_op(&v) {
            if *op != c {
                return Some(c);
            }
            return None;
        }
    }
    match &av {
        VaVal::Global(s, d) if !matches!(op, RtlOp::AddrGlobal(_, _)) => {
            return Some(RtlOp::AddrGlobal(s.to_string(), *d));
        }
        VaVal::Stack(d) if !matches!(op, RtlOp::AddrStack(_)) => {
            return Some(RtlOp::AddrStack(*d));
        }
        _ => {}
    }
    // 2. Algebraic identities: collapse to a move when the non-neutral
    //    operand's width/shape is proven (never changes definedness).
    // 3. Strength reduction: a two-register operation with one operand
    //    proven to be a point constant becomes its immediate form (the
    //    immediate equals the runtime value in every execution).
    match op {
        RtlOp::Binop(b, x, y) => {
            let (vx, vy) = (env.get(*x), env.get(*y));
            if let Some(k) = vy.as_const() {
                if is_identity(*b, vx, &k) {
                    return Some(RtlOp::Move(*x));
                }
                return Some(RtlOp::BinopImm(*b, *x, k));
            }
            if let Some(k) = vx.as_const() {
                if commutes(*b) {
                    if is_identity(*b, vy, &k) {
                        return Some(RtlOp::Move(*y));
                    }
                    return Some(RtlOp::BinopImm(*b, *y, k));
                }
                // `k ⋈ y` swaps to `y ⋈⁻¹ k` (mem::Val orderings are
                // swap-symmetric for every defined case).
                match b {
                    MBinop::Cmp32(c) => {
                        return Some(RtlOp::BinopImm(MBinop::Cmp32(c.swap()), *y, k));
                    }
                    MBinop::Cmp64(c) => {
                        return Some(RtlOp::BinopImm(MBinop::Cmp64(c.swap()), *y, k));
                    }
                    _ => {}
                }
            }
            None
        }
        RtlOp::BinopImm(b, x, k) => {
            if is_identity(*b, env.get(*x), k) {
                return Some(RtlOp::Move(*x));
            }
            None
        }
        _ => None,
    }
}

/// The rewrite of a `Cond` whose scrutinee has a definite truth value, if
/// any (sound because intervals exclude `Undef` and pointers are true).
#[must_use]
pub fn rewrite_cond(env: &VaEnv, r: PReg, t: Node, e: Node) -> Option<Inst> {
    match env.get(r).truth() {
        Some(true) => Some(Inst::Nop(t)),
        Some(false) => Some(Inst::Nop(e)),
        None => None,
    }
}

fn vprop_function(f: &RtlFunction, envs: &BTreeMap<Node, VaEnv>) -> RtlFunction {
    let mut out = f.clone();
    for (n, inst) in &f.code {
        let Some(env) = envs.get(n) else { continue };
        match inst {
            Inst::Op(op, dst, next) => {
                if let Some(new) = rewrite_op(env, op) {
                    out.code.insert(*n, Inst::Op(new, *dst, *next));
                }
            }
            Inst::Cond(r, t, e) => {
                if let Some(new) = rewrite_cond(env, *r, *t, *e) {
                    out.code.insert(*n, new);
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::Itv;
    use compcerto_core::iface::Signature;
    use mem::Cmp;

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

    fn facts_for(f: &RtlFunction, envs: Vec<(Node, VaEnv)>) -> VaFacts {
        let mut m = BTreeMap::new();
        m.insert(f.name.clone(), envs.into_iter().collect());
        m
    }

    #[test]
    fn interval_comparison_folds_and_branch_goes_away() {
        // r0 ∈ [0,9]; r1 := r0 < 100 (definitely 1); if r1 … folds.
        let f = fun(vec![
            (
                0,
                Inst::Op(
                    RtlOp::BinopImm(MBinop::Cmp32(Cmp::Lt), 0, Val::Int(100)),
                    1,
                    1,
                ),
            ),
            (1, Inst::Cond(1, 2, 3)),
            (2, Inst::Return(Some(0))),
            (3, Inst::Return(None)),
        ]);
        let mut e0 = VaEnv::default();
        e0.set(0, VaVal::I32(Itv::range(0, 9)));
        let mut e1 = e0.clone();
        e1.set(1, VaVal::int(1));
        let facts = facts_for(&f, vec![(0, e0), (1, e1)]);
        let prog = RtlProgram {
            functions: vec![f],
            externs: vec![],
        };
        let out = vprop(&prog, &facts);
        assert_eq!(out.functions[0].code[&0], Inst::Op(RtlOp::Int(1), 1, 1));
        assert_eq!(out.functions[0].code[&1], Inst::Nop(2));
    }

    #[test]
    fn strength_reduction_to_immediate_form() {
        // r1 proven constant 4 ⇒ r2 := r0 + r1 becomes r2 := r0 +imm 4.
        let f = fun(vec![
            (0, Inst::Op(RtlOp::Binop(MBinop::Add32, 0, 1), 2, 1)),
            (1, Inst::Return(Some(2))),
        ]);
        let mut e0 = VaEnv::default();
        e0.set(0, VaVal::I32(Itv::full32()));
        e0.set(1, VaVal::int(4));
        let facts = facts_for(&f, vec![(0, e0)]);
        let prog = RtlProgram {
            functions: vec![f],
            externs: vec![],
        };
        let out = vprop(&prog, &facts);
        assert_eq!(
            out.functions[0].code[&0],
            Inst::Op(RtlOp::BinopImm(MBinop::Add32, 0, Val::Int(4)), 2, 1)
        );
    }

    #[test]
    fn left_constant_comparison_swaps() {
        // 10 < r0 becomes r0 > 10.
        let f = fun(vec![
            (
                0,
                Inst::Op(RtlOp::Binop(MBinop::Cmp32(Cmp::Lt), 1, 0), 2, 1),
            ),
            (1, Inst::Return(Some(2))),
        ]);
        let mut e0 = VaEnv::default();
        e0.set(0, VaVal::I32(Itv::full32()));
        e0.set(1, VaVal::int(10));
        let facts = facts_for(&f, vec![(0, e0)]);
        let prog = RtlProgram {
            functions: vec![f],
            externs: vec![],
        };
        let out = vprop(&prog, &facts);
        assert_eq!(
            out.functions[0].code[&0],
            Inst::Op(
                RtlOp::BinopImm(MBinop::Cmp32(Cmp::Gt), 0, Val::Int(10)),
                2,
                1
            )
        );
    }

    #[test]
    fn identities_collapse_to_moves_only_with_width_proof() {
        // r0's width proven ⇒ r0 + 0 is a move; width unknown ⇒ untouched
        // (an Undef-preserving rewrite would change definedness).
        let add0 = RtlOp::BinopImm(MBinop::Add32, 0, Val::Int(0));
        let f = fun(vec![
            (0, Inst::Op(add0.clone(), 1, 1)),
            (1, Inst::Return(Some(1))),
        ]);
        let mut known = VaEnv::default();
        known.set(0, VaVal::I32(Itv::full32()));
        let facts = facts_for(&f, vec![(0, known)]);
        let prog = RtlProgram {
            functions: vec![f.clone()],
            externs: vec![],
        };
        let out = vprop(&prog, &facts);
        assert_eq!(out.functions[0].code[&0], Inst::Op(RtlOp::Move(0), 1, 1));

        let top_facts = facts_for(&f, vec![(0, VaEnv::default())]);
        let prog = RtlProgram {
            functions: vec![f],
            externs: vec![],
        };
        let out = vprop(&prog, &top_facts);
        assert_eq!(out.functions[0].code[&0], Inst::Op(add0, 1, 1));
    }

    #[test]
    fn functions_without_facts_are_untouched() {
        let f = fun(vec![(0, Inst::Return(Some(0)))]);
        let prog = RtlProgram {
            functions: vec![f.clone()],
            externs: vec![],
        };
        let out = vprop(&prog, &BTreeMap::new());
        assert_eq!(out.functions[0].code, f.code);
    }
}
