//! Abstract-interpretation analyses over RTL and the translation validators
//! for the analysis-driven optimization pair (DESIGN.md §12).
//!
//! The *domains* (intervals, pointer provenance, neededness masks and their
//! transfer functions) live in [`rtl::absint`]; this module runs them — a
//! forward interval **value analysis** with widening and a backward
//! **neededness** analysis — and holds the two
//! a-posteriori validators, [`validate_constprop`] and [`validate_deadcode`],
//! that re-justify every rewrite of the untrusted `vprop`/`ndce` passes
//! from facts recomputed on the pass *input*.
//!
//! The driver computes the facts once per function and hands them to the
//! passes as plain data; the validators recompute byte-identical facts (the
//! worklists pop in a deterministic order), so an honest compile is clean
//! by construction while any divergence — an optimizer bug, or a fault
//! injected between the snapshot and the backend (the `rtl-constant-drift`
//! class) — surfaces as a structured [`Diagnostic`].
//!
//! Neededness is a [`backward_solve`] instance; the value analysis keeps
//! its own loop (widening and change sets) on the engine's [`DenseCfg`]
//! and [`Worklist`]. Both charge their pops to `rtl::analysis`'s counter
//! table, as `solver.value.iters` and `solver.needed.iters`.

use std::collections::BTreeMap;

use rtl::absint::{eval_op_va, op_arg_needs, NeedEnv, Needs, VaEnv, VaVal};
use rtl::ndce::{deletable, NeedFacts};
use rtl::vprop::{rewrite_cond, rewrite_op, VaFacts};
use rtl::{
    after_states, backward_solve, count_pops, solver_pops, DenseCfg, Inst, JoinSemiLattice, Node,
    PReg, Romem, RtlFunction, RtlProgram, Solver, Worklist,
};

use crate::diag::Diagnostic;

/// Growing joins tolerated at a node before the interval bounds are
/// widened to the width extremes (loop-carried counters settle in one or
/// two trips around a loop; anything still growing after that widens).
const WIDEN_AFTER: u32 = 2;

/// Cumulative worklist pops of the interval value analysis on this thread
/// (`solver.value.iters`).
#[must_use]
pub fn value_solver_iterations() -> u64 {
    solver_pops()[Solver::Value as usize]
}

/// Cumulative worklist pops of the neededness analysis on this thread
/// (`solver.needed.iters`).
#[must_use]
pub fn needed_solver_iterations() -> u64 {
    solver_pops()[Solver::Needed as usize]
}

/// The one register `inst` writes and its abstract value afterwards (memory
/// is summarized by the read-only-globals view `romem`), or `None` when it
/// writes no register: only `Op`, `Load` and a `Call` with a destination
/// write one.
fn value_write(env: &VaEnv, inst: &Inst, romem: &Romem) -> Option<(PReg, VaVal)> {
    match inst {
        Inst::Op(op, dst, _) => Some((*dst, eval_op_va(env, op))),
        Inst::Load(chunk, base, disp, dst, _) => {
            let v = match env.get(*base) {
                VaVal::Global(s, d) => match romem.load(*chunk, s, d.wrapping_add(*disp)) {
                    Some(v) => VaVal::of_const(&v),
                    None => VaVal::Top,
                },
                _ => VaVal::Top,
            };
            Some((*dst, v))
        }
        Inst::Call(_, _, _, dst, _) => dst.map(|d| (d, VaVal::Top)),
        // Stores don't touch registers; the memory they write is never the
        // read-only region `romem` folds from.
        Inst::Store(_, _, _, _, _)
        | Inst::Cond(_, _, _)
        | Inst::Nop(_)
        | Inst::Tailcall(_, _, _)
        | Inst::Return(_) => None,
    }
}

/// The value a grown register takes: the join itself, or once its node
/// widens, the widening of the old value against it. `old.widen(joined)`
/// of the whole environment gives the same, since an unbound `old` takes
/// `joined` and `x.widen(x) = x` for every register that did not grow.
fn grown(old: &VaVal, joined: VaVal, widen: bool) -> VaVal {
    if widen && *old != VaVal::Bot {
        old.widen(&joined)
    } else {
        joined
    }
}

/// Forward interval value analysis of one function: the abstract register
/// environment *before* each reachable node. Parameters enter at `Top`
/// (the caller is unknown), every other register at `Bot` (= unwritten,
/// reads as `Undef`). Join points that keep growing are widened after
/// `WIDEN_AFTER` growing joins, so loops terminate.
///
/// A node's first pop joins its whole after-state into its successors;
/// later pops join only the registers that changed in its state since its
/// last pop, plus the one it writes. That is exact: a successor's state
/// only grows, so it stays above every after-state the node sent before,
/// and a register that did not change at the node cannot change the join.
/// The pops, their order and the facts are those of the full join. The
/// per-node change lists and the list a later pop sends keep their buffers
/// across pops.
#[must_use]
pub fn value_facts(f: &RtlFunction, romem: &Romem) -> BTreeMap<Node, VaEnv> {
    let g = DenseCfg::new(f);
    if g.reachable() == 0 {
        return BTreeMap::new();
    }
    let mut state: Vec<Option<VaEnv>> = vec![None; g.len()];
    let mut grows: Vec<u32> = vec![0; g.len()];
    // Per node: whether it has propagated its state yet, and the registers
    // that changed in its state since its last pop.
    let mut propagated: Vec<bool> = vec![false; g.len()];
    let mut changed: Vec<Vec<PReg>> = vec![Vec::new(); g.len()];
    // What a later pop sends: its changed registers with their values after
    // the node.
    let mut send: Vec<(PReg, VaVal)> = Vec::new();
    // The entry heads the reverse postorder.
    let mut entry_env = VaEnv::default();
    for p in &f.params {
        entry_env.set(*p, VaVal::Top);
    }
    state[0] = Some(entry_env);
    let mut work = Worklist::new(g.len());
    work.insert(0);
    let mut pops = 0;
    while let Some(i) = work.pop_first() {
        pops += 1;
        let Some(before) = state[i].as_ref() else {
            continue;
        };
        let write = value_write(before, g.inst(i), romem);
        let regs = &mut changed[i];
        if !std::mem::replace(&mut propagated[i], true) {
            // A first pop sends the whole state, so what changed before it
            // is dropped.
            regs.clear();
            let mut after = before.clone();
            if let Some((r, v)) = write {
                after.set(r, v);
            }
            let succs = g.succs(i);
            for (k, &si) in succs.iter().enumerate() {
                let widen = grows[si] >= WIDEN_AFTER;
                match state[si].as_mut() {
                    Some(cur) => {
                        let grew = cur.join_with(&after, |r, old, joined| {
                            changed[si].push(r);
                            grown(old, joined, widen)
                        });
                        if grew {
                            grows[si] += 1;
                            work.insert(si);
                        }
                    }
                    // A successor seen for the first time takes the
                    // after-state; the last one takes it without a copy.
                    None => {
                        state[si] = Some(if k + 1 == succs.len() {
                            std::mem::take(&mut after)
                        } else {
                            after.clone()
                        });
                        work.insert(si);
                    }
                }
            }
            continue;
        }
        regs.extend(write.as_ref().map(|(r, _)| *r));
        regs.sort_unstable();
        regs.dedup();
        send.clear();
        send.extend(regs.drain(..).map(|r| match &write {
            Some((w, v)) if *w == r => (r, v.clone()),
            _ => (r, before.get(r).clone()),
        }));
        for &si in g.succs(i) {
            // A first pop leaves every successor with a state.
            let Some(cur) = state[si].as_mut() else {
                continue;
            };
            let widen = grows[si] >= WIDEN_AFTER;
            let mut grew = false;
            for (r, v) in &send {
                let old = cur.get(*r);
                if old == v {
                    continue;
                }
                let joined = old.join(v);
                if joined != *old {
                    let new = grown(old, joined, widen);
                    cur.set(*r, new);
                    changed[si].push(*r);
                    grew = true;
                }
            }
            if grew {
                grows[si] += 1;
                work.insert(si);
            }
        }
    }
    count_pops(Solver::Value, pops);
    g.undense(state)
}

/// The needed-*before* environment of `inst` given the needed-after
/// environment `out`: kill the definition, then charge each used register
/// with the need the operator structure assigns it (floored — a live
/// result never propagates `Nothing` to its operands, see `rtl::absint`).
fn needed_transfer(inst: &Inst, out: &NeedEnv) -> NeedEnv {
    let mut inn = out.clone();
    if let Some(d) = inst.def() {
        inn.kill(d);
    }
    match inst {
        Inst::Op(op, dst, _) => {
            let nv = out.get(*dst);
            for (r, n) in op.uses().iter().zip(op_arg_needs(op, nv)) {
                inn.add(*r, n);
            }
        }
        Inst::Load(_, base, _, dst, _) => {
            // A load whose result is dead is deletable, so its address is
            // unneeded *by this instruction*; otherwise the address must be
            // exact.
            if !out.get(*dst).is_nothing() {
                inn.add(*base, Needs::All);
            }
        }
        _ => {
            for r in inst.uses() {
                inn.add(r, Needs::All);
            }
        }
    }
    inn
}

/// Backward neededness analysis of one function: what the continuation
/// *after* each node observes of every register (`Nothing` entries are
/// implicit). Solved over all nodes (unreachable code is trivially dead).
#[must_use]
pub fn neededness(f: &RtlFunction) -> BTreeMap<Node, NeedEnv> {
    let g = DenseCfg::new(f);
    let before = backward_solve(&g, Solver::Needed, NeedEnv::default(), |_, inst, out| {
        needed_transfer(inst, out)
    });
    after_states(&g, &before, |out: &mut NeedEnv, b| {
        out.join_in_place(b);
    })
}

/// Solve the value analysis for every function of a program, keyed by
/// function name — the fact set `rtl::vprop` consumes.
#[must_use]
pub fn value_facts_program(prog: &RtlProgram, romem: &Romem) -> VaFacts {
    prog.functions
        .iter()
        .map(|f| (f.name.clone(), value_facts(f, romem)))
        .collect()
}

/// Solve the neededness analysis for every function of a program, keyed by
/// function name — the fact set `rtl::ndce` consumes.
#[must_use]
pub fn needed_facts_program(prog: &RtlProgram) -> NeedFacts {
    prog.functions
        .iter()
        .map(|f| (f.name.clone(), neededness(f)))
        .collect()
}

// ---------------------------------------------------------------------------
// Translation validators
// ---------------------------------------------------------------------------

/// One function's verdict from [`validate_constprop_function`] or
/// [`validate_deadcode_function`]. Both passes rewrite instructions in
/// place and never add, remove or re-key nodes or change a function's
/// metadata, so a reshaped function's rewrites are not checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteCheck {
    /// The pass changed the function's shape: the shape findings.
    Reshaped(Vec<Diagnostic>),
    /// The shape held: the findings of the rewrite check (empty when every
    /// rewrite is justified).
    Checked(Vec<Diagnostic>),
}

impl Default for RewriteCheck {
    /// A function with nothing to check.
    fn default() -> Self {
        RewriteCheck::Checked(Vec::new())
    }
}

/// Fold per-function [`RewriteCheck`]s, in function order, into one
/// program's findings. The program-level shape rule: when any function
/// was reshaped, the findings are every function's shape findings and no
/// rewrite finding.
#[must_use]
pub fn fold_rewrite_checks(checks: impl IntoIterator<Item = RewriteCheck>) -> Vec<Diagnostic> {
    let (mut reshaped, mut checked) = (Vec::new(), Vec::new());
    let mut any_reshaped = false;
    for c in checks {
        match c {
            RewriteCheck::Reshaped(d) => {
                any_reshaped = true;
                reshaped.extend(d);
            }
            RewriteCheck::Checked(d) => checked.extend(d),
        }
    }
    if any_reshaped {
        reshaped
    } else {
        checked
    }
}

/// The shape rule's stable id for `pass` (`"constprop"` or `"deadcode"`).
fn shape_rule(pass: &'static str) -> &'static str {
    match pass {
        "constprop" => "constprop.shape",
        _ => "deadcode.shape",
    }
}

/// The program-level shape finding of `pass` (`"constprop"` or
/// `"deadcode"`): the pass changed the number of functions, so no function
/// pairs with another and none is checked.
#[must_use]
pub fn function_count_changed(
    pass: &'static str,
    input: &RtlProgram,
    output: &RtlProgram,
) -> Option<Diagnostic> {
    (input.functions.len() != output.functions.len()).then(|| {
        Diagnostic::new(
            pass,
            "<program>",
            None,
            shape_rule(pass),
            format!(
                "function count changed: {} -> {}",
                input.functions.len(),
                output.functions.len()
            ),
        )
    })
}

/// The shape findings of one function pair: a rename, changed metadata,
/// or a changed node key set.
fn shape_findings(pass: &'static str, fi: &RtlFunction, fo: &RtlFunction) -> Vec<Diagnostic> {
    let rule = shape_rule(pass);
    if fi.name != fo.name {
        return vec![Diagnostic::new(
            pass,
            &fi.name,
            None,
            rule,
            format!("function renamed to `{}`", fo.name),
        )];
    }
    let mut out = Vec::new();
    if fi.sig != fo.sig
        || fi.params != fo.params
        || fi.stack_size != fo.stack_size
        || fi.entry != fo.entry
    {
        out.push(Diagnostic::new(
            pass,
            &fi.name,
            None,
            rule,
            "signature/params/stack/entry changed",
        ));
    }
    if fi.code.len() != fo.code.len() || fi.code.keys().zip(fo.code.keys()).any(|(a, b)| a != b) {
        out.push(Diagnostic::new(
            pass,
            &fi.name,
            None,
            rule,
            "node key set changed",
        ));
    }
    out
}

/// Validate one function of a `vprop` (analysis-driven constant
/// propagation) run: recompute the interval facts on the pass *input* `fi`
/// and require every node of `fo` that differs to be exactly the rewrite
/// those facts justify. Recomputing the facts solves the widening fixpoint
/// of [`value_facts`] once, so the check costs as much as the analysis the
/// pass consumed, plus one rewrite check per node. Deterministic — honest
/// compiles are provably clean because the pass and the validator consult
/// the same canonical rewrite function.
#[must_use]
pub fn validate_constprop_function(
    fi: &RtlFunction,
    fo: &RtlFunction,
    romem: &Romem,
) -> RewriteCheck {
    const PASS: &str = "constprop";
    let shape = shape_findings(PASS, fi, fo);
    if !shape.is_empty() {
        return RewriteCheck::Reshaped(shape);
    }
    let mut out = Vec::new();
    let facts = value_facts(fi, romem);
    for (n, ii) in &fi.code {
        let Some(io) = fo.code.get(n) else { continue };
        if ii == io {
            continue;
        }
        let justified = match (ii, io, facts.get(n)) {
            // A rewritten node needs solved facts; an unreachable node
            // has none and must be untouched.
            (_, _, None) => false,
            (Inst::Op(op, dst, next), Inst::Op(op2, dst2, next2), Some(env)) => {
                dst == dst2 && next == next2 && rewrite_op(env, op).as_ref() == Some(op2)
            }
            (Inst::Cond(r, t, e), Inst::Nop(_), Some(env)) => {
                rewrite_cond(env, *r, *t, *e).as_ref() == Some(io)
            }
            _ => false,
        };
        if !justified {
            out.push(Diagnostic::new(
                PASS,
                &fi.name,
                Some(*n),
                "constprop.unjustified-rewrite",
                format!("`{ii}` became `{io}` but the value facts do not justify it"),
            ));
        }
    }
    RewriteCheck::Checked(out)
}

/// Validate one function of an `ndce` (neededness dead-code elimination)
/// run: recompute the neededness facts on the pass *input* `fi` and require
/// every node of `fo` that differs to be the deletion of a pure instruction
/// whose result is needed at `Nothing`. Any other divergence — including a
/// drifted constant injected after the snapshot (`rtl-constant-drift`) — is
/// a finding.
#[must_use]
pub fn validate_deadcode_function(fi: &RtlFunction, fo: &RtlFunction) -> RewriteCheck {
    const PASS: &str = "deadcode";
    let shape = shape_findings(PASS, fi, fo);
    if !shape.is_empty() {
        return RewriteCheck::Reshaped(shape);
    }
    let mut out = Vec::new();
    let facts = neededness(fi);
    for (n, ii) in &fi.code {
        let Some(io) = fo.code.get(n) else { continue };
        if ii == io {
            continue;
        }
        let justified = deletable(ii)
            && matches!(
                (ii.def(), &ii.successors()[..], io),
                (Some(dst), [next], Inst::Nop(next2))
                    if next == next2
                        && facts.get(n).map(|env| env.get(dst).is_nothing())
                            == Some(true)
            );
        if !justified {
            out.push(Diagnostic::new(
                PASS,
                &fi.name,
                Some(*n),
                "deadcode.unjustified-removal",
                format!("`{ii}` became `{io}` but its result is still needed"),
            ));
        }
    }
    RewriteCheck::Checked(out)
}

/// Validate a whole `vprop` run: [`validate_constprop_function`] on each
/// function pair, folded by [`fold_rewrite_checks`], after the
/// program-level [`function_count_changed`] rule.
#[must_use]
pub fn validate_constprop(
    input: &RtlProgram,
    output: &RtlProgram,
    romem: &Romem,
) -> Vec<Diagnostic> {
    if let Some(d) = function_count_changed("constprop", input, output) {
        return vec![d];
    }
    fold_rewrite_checks(
        input
            .functions
            .iter()
            .zip(&output.functions)
            .map(|(fi, fo)| validate_constprop_function(fi, fo, romem)),
    )
}

/// Validate a whole `ndce` run: [`validate_deadcode_function`] on each
/// function pair, folded by [`fold_rewrite_checks`], after the
/// program-level [`function_count_changed`] rule.
#[must_use]
pub fn validate_deadcode(input: &RtlProgram, output: &RtlProgram) -> Vec<Diagnostic> {
    if let Some(d) = function_count_changed("deadcode", input, output) {
        return vec![d];
    }
    fold_rewrite_checks(
        input
            .functions
            .iter()
            .zip(&output.functions)
            .map(|(fi, fo)| validate_deadcode_function(fi, fo)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use compcerto_core::iface::Signature;
    use compcerto_core::symtab::SymbolTable;
    use mem::{Cmp, Val};
    use minor::MBinop;
    use rtl::absint::Itv;
    use rtl::{ndce, vprop, RtlOp};

    fn fun(name: &str, params: Vec<u32>, code: Vec<(Node, Inst)>) -> RtlFunction {
        RtlFunction {
            name: name.into(),
            sig: Signature::int_fn(params.len()),
            params,
            stack_size: 0,
            entry: 0,
            code: code.into_iter().collect(),
            next_reg: 16,
        }
    }

    fn prog(f: RtlFunction) -> RtlProgram {
        RtlProgram {
            functions: vec![f],
            externs: vec![],
        }
    }

    fn romem() -> Romem {
        Romem::new(&SymbolTable::new())
    }

    /// A counting loop: i := 0; while (i < 8) i := i + 1; return i.
    fn counting_loop() -> RtlProgram {
        prog(fun(
            "loop",
            vec![],
            vec![
                (0, Inst::Op(RtlOp::Int(0), 1, 1)),
                (
                    1,
                    Inst::Op(
                        RtlOp::BinopImm(MBinop::Cmp32(Cmp::Lt), 1, Val::Int(8)),
                        2,
                        2,
                    ),
                ),
                (2, Inst::Cond(2, 3, 4)),
                (
                    3,
                    Inst::Op(RtlOp::BinopImm(MBinop::Add32, 1, Val::Int(1)), 1, 1),
                ),
                (4, Inst::Return(Some(1))),
            ],
        ))
    }

    #[test]
    fn widening_terminates_and_bounds_the_counter() {
        let p = counting_loop();
        let facts = value_facts(&p.functions[0], &romem());
        // At the loop header the counter has widened to a genuine 32-bit
        // interval — in particular it is *defined* (never Top), which is
        // the fact branch folding builds on. (The `+1` over the widened
        // interval may wrap, so the bounds honestly reach the width
        // extremes: `Cond` reads a materialized boolean register, leaving
        // no relational guard to refine the counter against.)
        let VaVal::I32(itv) = facts[&1].get(1).clone() else {
            panic!("counter should be an interval, got {}", facts[&1].get(1));
        };
        assert!(itv.contains(0) && itv.contains(7));
        // The analysis must have terminated with a finite iteration count.
        assert!(value_solver_iterations() > 0);
    }

    #[test]
    fn honest_vprop_run_validates_clean() {
        let p = counting_loop();
        let rm = romem();
        let facts = value_facts_program(&p, &rm);
        let out = vprop(&p, &facts);
        assert!(validate_constprop(&p, &out, &rm).is_empty());
    }

    #[test]
    fn honest_ndce_run_validates_clean_and_deletes_chains() {
        // r2 := r0+1; r3 := r2*2 — a dead chain behind a live return.
        let p = prog(fun(
            "f",
            vec![0],
            vec![
                (
                    0,
                    Inst::Op(RtlOp::BinopImm(MBinop::Add32, 0, Val::Int(1)), 2, 1),
                ),
                (
                    1,
                    Inst::Op(RtlOp::BinopImm(MBinop::Mul32, 2, Val::Int(2)), 3, 2),
                ),
                (2, Inst::Return(Some(0))),
            ],
        ));
        let facts = needed_facts_program(&p);
        let out = ndce(&p, &facts);
        // The whole chain cascades away in one fixpoint.
        assert_eq!(out.functions[0].code[&0], Inst::Nop(1));
        assert_eq!(out.functions[0].code[&1], Inst::Nop(2));
        assert!(validate_deadcode(&p, &out).is_empty());
    }

    #[test]
    fn needed_results_are_transitively_protected() {
        // r2 := r0 & 1; r3 := r2 & 2; return r3 — the masks miss (1 & 2 ==
        // 0) but the floor keeps the chain alive: deleting r2's def would
        // leave r3 computed from Undef.
        let p = prog(fun(
            "f",
            vec![0],
            vec![
                (
                    0,
                    Inst::Op(RtlOp::BinopImm(MBinop::And32, 0, Val::Int(1)), 2, 1),
                ),
                (
                    1,
                    Inst::Op(RtlOp::BinopImm(MBinop::And32, 2, Val::Int(2)), 3, 2),
                ),
                (2, Inst::Return(Some(3))),
            ],
        ));
        let facts = needed_facts_program(&p);
        let out = ndce(&p, &facts);
        assert_eq!(out.functions[0].code, p.functions[0].code);
    }

    #[test]
    fn constant_drift_is_caught_statically() {
        // Simulate the `rtl-constant-drift` fault: the "output" differs
        // from the snapshot by one immediate, with no facts to justify it.
        let p = counting_loop();
        let mut drifted = p.clone();
        drifted.functions[0]
            .code
            .insert(0, Inst::Op(RtlOp::Int(41), 1, 1));
        let diags = validate_deadcode(&p, &drifted);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "deadcode.unjustified-removal");
        let diags = validate_constprop(&p, &drifted, &romem());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "constprop.unjustified-rewrite");
    }

    #[test]
    fn unjustified_branch_fold_is_caught() {
        // Folding a Cond whose scrutinee is *not* definite must be flagged.
        let p = prog(fun(
            "f",
            vec![0],
            vec![
                (0, Inst::Cond(0, 1, 2)),
                (1, Inst::Return(Some(0))),
                (2, Inst::Return(None)),
            ],
        ));
        let mut bad = p.clone();
        bad.functions[0].code.insert(0, Inst::Nop(1));
        let diags = validate_constprop(&p, &bad, &romem());
        assert_eq!(diags.len(), 1);
    }

    #[test]
    fn rekeyed_output_fails_shape() {
        let p = counting_loop();
        let mut renumbered = p.clone();
        let f = &mut renumbered.functions[0];
        let code = std::mem::take(&mut f.code);
        f.code = code.into_iter().map(|(n, i)| (n + 10, i)).collect();
        assert!(!validate_deadcode(&p, &renumbered).is_empty());
    }

    #[test]
    fn a_reshaped_function_hides_every_rewrite_finding() {
        // Function 0 drifts an immediate (a rewrite finding on its own);
        // function 1 is re-keyed. The program reports only the shape.
        let p = counting_loop();
        let mut second = p.functions[0].clone();
        second.name = "g".into();
        let input = RtlProgram {
            functions: vec![p.functions[0].clone(), second],
            externs: vec![],
        };
        let mut output = input.clone();
        output.functions[0]
            .code
            .insert(0, Inst::Op(RtlOp::Int(41), 1, 1));
        let code = std::mem::take(&mut output.functions[1].code);
        output.functions[1].code = code.into_iter().map(|(n, i)| (n + 10, i)).collect();
        let rules = |d: Vec<Diagnostic>| -> Vec<(String, &str)> {
            d.into_iter().map(|d| (d.function, d.rule)).collect()
        };
        assert_eq!(
            rules(validate_deadcode(&input, &output)),
            [("g".to_string(), "deadcode.shape")]
        );
        assert_eq!(
            rules(validate_constprop(&input, &output, &romem())),
            [("g".to_string(), "constprop.shape")]
        );
        // Function by function, the drift is still a rewrite finding.
        assert!(matches!(
            validate_deadcode_function(&input.functions[0], &output.functions[0]),
            RewriteCheck::Checked(d) if d.len() == 1
        ));
        output.functions.pop();
        assert_eq!(
            rules(validate_deadcode(&input, &output)),
            [("<program>".to_string(), "deadcode.shape")]
        );
    }

    #[test]
    fn interval_comparison_folds_the_loop_guard_bound() {
        // i ∈ [0,8] after widening? The guard i < 8 inside the body can't
        // fold (interval spans), but a guard against 1000 can.
        let p = prog(fun(
            "g",
            vec![],
            vec![
                (0, Inst::Op(RtlOp::Int(5), 1, 1)),
                (
                    1,
                    Inst::Op(
                        RtlOp::BinopImm(MBinop::Cmp32(Cmp::Lt), 1, Val::Int(1000)),
                        2,
                        2,
                    ),
                ),
                (2, Inst::Cond(2, 3, 4)),
                (3, Inst::Return(Some(1))),
                (4, Inst::Return(None)),
            ],
        ));
        let rm = romem();
        let facts = value_facts_program(&p, &rm);
        let out = vprop(&p, &facts);
        assert_eq!(out.functions[0].code[&1], Inst::Op(RtlOp::Int(1), 2, 2));
        assert_eq!(out.functions[0].code[&2], Inst::Nop(3));
        assert!(validate_constprop(&p, &out, &rm).is_empty());
        let _ = Itv::point(0); // keep the import exercised
    }
}
