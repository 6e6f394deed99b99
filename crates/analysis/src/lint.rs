//! Per-IR well-formedness lints.
//!
//! Each lint family checks the *structural* discipline a pass's output must
//! obey — the invariants later passes rely on without rechecking:
//!
//! | family | certifies |
//! |--------|-----------|
//! | `wf-rtl` | entry and successors exist; no read of a possibly-undefined pseudo-register (forward maybe-uninit, not dominance); known callees |
//! | `wf-ltl` | successors exist; non-move operands in registers (the `Stacking` precondition); stack-slot bounds and 8-alignment; no write to `Incoming`; callee-save writes declared |
//! | `wf-linear` | label uniqueness and resolution; control cannot fall off the end; the same operand/slot discipline as LTL |
//! | `wf-mach` | label discipline; frame-slot accesses inside `[16, frame_size)` and 8-aligned; frame-layout ordering |
//! | `wf-asm` | label discipline; prologue is `AllocFrame; SaveRa(8)`; every `Ret` is preceded by `RestoreRa(8); FreeFrame` |
//!
//! All families also check that every call targets a defined function or a
//! declared external.

use std::collections::{BTreeMap, BTreeSet};

use backend::asm::AsmInst;
use backend::linear::{LinFunction, LinInst, LinProgram};
use backend::ltl::{LtlFunction, LtlInst, LtlProgram};
use backend::mach::{MachInst, MachProgram};
use backend::{AsmProgram, LOp};
use compcerto_core::iface::{abi, Signature};
use compcerto_core::regs::Loc;
use rtl::{
    forward_solve, reachable, successors_of, BitSet, DenseCfg, Inst, Node, PReg, RtlFunction,
    RtlProgram, Solver,
};

use crate::diag::Diagnostic;

/// Names a program may call: its own functions plus declared externals.
fn known_callees<'a>(
    functions: impl Iterator<Item = &'a str>,
    externs: impl Iterator<Item = &'a str>,
) -> BTreeSet<String> {
    functions
        .map(str::to_string)
        .chain(externs.map(str::to_string))
        .collect()
}

// ---------------------------------------------------------------------------
// RTL
// ---------------------------------------------------------------------------

/// Well-formedness of an RTL program (usually the post-optimization
/// `rtl_opt`).
pub fn lint_rtl(prog: &RtlProgram) -> Vec<Diagnostic> {
    const PASS: &str = "wf-rtl";
    let mut diags = Vec::new();
    let callees = known_callees(
        prog.functions.iter().map(|f| f.name.as_str()),
        prog.externs.iter().map(|(n, _)| n.as_str()),
    );
    for f in &prog.functions {
        if !f.code.contains_key(&f.entry) {
            diags.push(Diagnostic::new(
                PASS,
                &f.name,
                Some(f.entry),
                "rtl.entry-missing",
                format!("entry node {} has no instruction", f.entry),
            ));
            continue;
        }
        for (n, inst) in &f.code {
            for s in inst.successors() {
                if !f.code.contains_key(&s) {
                    diags.push(Diagnostic::new(
                        PASS,
                        &f.name,
                        Some(*n),
                        "rtl.successor-missing",
                        format!("successor {s} has no instruction"),
                    ));
                }
            }
            if let Inst::Call(_, callee, _, _, _) | Inst::Tailcall(_, callee, _) = inst {
                if !callees.contains(callee) {
                    diags.push(Diagnostic::new(
                        PASS,
                        &f.name,
                        Some(*n),
                        "rtl.unknown-callee",
                        format!("call to undeclared `{callee}`"),
                    ));
                }
            }
        }
        // Def-before-use on every path (reachable nodes only): a use of `v`
        // is flagged iff some entry-to-use path misses every def of `v`.
        let mu = maybe_uninit(f, &f.params);
        for n in reachable(f.entry, successors_of(f)) {
            let (Some(state), Some(inst)) = (mu.get(&n), f.code.get(&n)) else {
                continue;
            };
            for u in inst.uses() {
                if state.contains(u) {
                    diags.push(Diagnostic::new(
                        PASS,
                        &f.name,
                        Some(n),
                        "rtl.use-undefined",
                        format!("x{u} may be read before any definition"),
                    ));
                }
            }
        }
    }
    diags
}

/// Forward "maybe uninitialized" analysis: the registers possibly not yet
/// written *before* each reachable node, as a [`forward_solve`] instance on
/// the [`BitSet`] lattice (pseudo-registers are the bit indices). Every
/// register used or defined in `f` starts uninitialized except
/// `defined_at_entry`. Its pops tick `solver.validate_iterations`.
///
/// This is the sound def-before-use check for non-SSA IRs: a use of `v` at
/// `n` is safe iff `v` is written on **every** path from the entry to `n`,
/// i.e. `v ∉ maybe_uninit(n)`. A dominance check is *not* equivalent: after
/// a diamond that defines `v` on both arms, no single def dominates the
/// join, yet the use is safe.
pub fn maybe_uninit(f: &RtlFunction, defined_at_entry: &[PReg]) -> BTreeMap<Node, BitSet> {
    let used_or_defined = f.code.values().flat_map(|i| i.uses().into_iter().chain(i.def()));
    let mut entry: BitSet = used_or_defined.collect();
    for r in defined_at_entry {
        entry.remove(*r);
    }
    forward_solve(
        &DenseCfg::new(f),
        Solver::Validate,
        entry,
        BitSet::new(),
        |_, inst, before: &BitSet| {
            let mut after = before.clone();
            if let Some(d) = inst.def() {
                after.remove(d);
            }
            after
        },
    )
}

// ---------------------------------------------------------------------------
// Shared location discipline (LTL and Linear carry the same operand sort)
// ---------------------------------------------------------------------------

struct SlotBounds<'a> {
    sig: &'a Signature,
    locals_size: i64,
    outgoing_size: i64,
}

fn check_slot(
    b: &SlotBounds<'_>,
    l: Loc,
    pass: &'static str,
    rule: &'static str,
    fname: &str,
    node: u32,
    diags: &mut Vec<Diagnostic>,
) {
    let (ofs, limit, kind) = match l {
        Loc::Local(o) => (o, b.locals_size, "local"),
        Loc::Outgoing(o) => (o, b.outgoing_size, "outgoing"),
        Loc::Incoming(o) => (o, abi::size_arguments(b.sig), "incoming"),
        Loc::Reg(_) => return,
    };
    if ofs < 0 || ofs % 8 != 0 || ofs + 8 > limit {
        diags.push(Diagnostic::new(
            pass,
            fname,
            Some(node),
            rule,
            format!("{kind} slot at byte {ofs} outside [0, {limit}) or misaligned"),
        ));
    }
}

/// The locations an LTL/Linear operation reads.
pub(crate) fn lop_operands(op: &LOp) -> Vec<Loc> {
    match op {
        LOp::Move(l) | LOp::Unop(_, l) | LOp::BinopImm(_, l, _) => vec![*l],
        LOp::Binop(_, a, b) => vec![*a, *b],
        _ => vec![],
    }
}

fn is_reg(l: Loc) -> bool {
    matches!(l, Loc::Reg(_))
}

/// Operand-class discipline for an `Op`: non-move operations must compute
/// register-to-register (the `Stacking` precondition); moves may touch
/// slots but must never write `Incoming` (the caller's frame).
#[allow(clippy::too_many_arguments)]
fn check_op_discipline(
    op: &LOp,
    dst: Loc,
    pass: &'static str,
    class_rule: &'static str,
    incoming_rule: &'static str,
    fname: &str,
    node: u32,
    diags: &mut Vec<Diagnostic>,
) {
    if matches!(dst, Loc::Incoming(_)) {
        diags.push(Diagnostic::new(
            pass,
            fname,
            Some(node),
            incoming_rule,
            "write to an Incoming slot (the caller's frame)".to_string(),
        ));
    }
    if !matches!(op, LOp::Move(_)) {
        let mut bad: Vec<Loc> = lop_operands(op).into_iter().filter(|l| !is_reg(*l)).collect();
        if !is_reg(dst) {
            bad.push(dst);
        }
        if !bad.is_empty() {
            diags.push(Diagnostic::new(
                pass,
                fname,
                Some(node),
                class_rule,
                format!("non-move operation touches stack slot {}", bad[0]),
            ));
        }
    }
}

fn check_callee_save_decl(
    dst: Loc,
    declared: &[compcerto_core::regs::Mreg],
    pass: &'static str,
    rule: &'static str,
    fname: &str,
    node: u32,
    diags: &mut Vec<Diagnostic>,
) {
    if let Loc::Reg(r) = dst {
        if abi::is_callee_save(r) && !declared.contains(&r) {
            diags.push(Diagnostic::new(
                pass,
                fname,
                Some(node),
                rule,
                format!("write to callee-save {r} not declared in used_callee_save"),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// LTL
// ---------------------------------------------------------------------------

fn lint_ltl_function(f: &LtlFunction, callees: &BTreeSet<String>, diags: &mut Vec<Diagnostic>) {
    const PASS: &str = "wf-ltl";
    if !f.code.contains_key(&f.entry) {
        diags.push(Diagnostic::new(
            PASS,
            &f.name,
            Some(f.entry),
            "ltl.entry-missing",
            format!("entry node {} has no instruction", f.entry),
        ));
        return;
    }
    let bounds = SlotBounds {
        sig: &f.sig,
        locals_size: f.locals_size,
        outgoing_size: f.outgoing_size,
    };
    for (n, inst) in &f.code {
        for s in inst.successors() {
            if !f.code.contains_key(&s) {
                diags.push(Diagnostic::new(
                    PASS,
                    &f.name,
                    Some(*n),
                    "ltl.successor-missing",
                    format!("successor {s} has no instruction"),
                ));
            }
        }
        let mut slots: Vec<Loc> = Vec::new();
        match inst {
            LtlInst::Op(op, dst, _) => {
                slots.extend(lop_operands(op));
                slots.push(*dst);
                check_op_discipline(
                    op,
                    *dst,
                    PASS,
                    "ltl.operand-class",
                    "ltl.write-incoming",
                    &f.name,
                    *n,
                    diags,
                );
                check_callee_save_decl(
                    *dst,
                    &f.used_callee_save,
                    PASS,
                    "ltl.callee-save-undeclared",
                    &f.name,
                    *n,
                    diags,
                );
            }
            LtlInst::Load(_, base, _, dst, _) => {
                slots.extend([*base, *dst]);
                for l in [*base, *dst] {
                    if !is_reg(l) {
                        diags.push(Diagnostic::new(
                            PASS,
                            &f.name,
                            Some(*n),
                            "ltl.operand-class",
                            format!("memory access through stack slot {l}"),
                        ));
                    }
                }
                check_callee_save_decl(
                    *dst,
                    &f.used_callee_save,
                    PASS,
                    "ltl.callee-save-undeclared",
                    &f.name,
                    *n,
                    diags,
                );
            }
            LtlInst::Store(_, base, _, src, _) => {
                slots.extend([*base, *src]);
                for l in [*base, *src] {
                    if !is_reg(l) {
                        diags.push(Diagnostic::new(
                            PASS,
                            &f.name,
                            Some(*n),
                            "ltl.operand-class",
                            format!("memory access through stack slot {l}"),
                        ));
                    }
                }
            }
            LtlInst::Cond(l, _, _) => {
                slots.push(*l);
                if !is_reg(*l) {
                    diags.push(Diagnostic::new(
                        PASS,
                        &f.name,
                        Some(*n),
                        "ltl.operand-class",
                        format!("branch condition in stack slot {l}"),
                    ));
                }
            }
            LtlInst::Call(callee, _, _) => {
                if !callees.contains(callee) {
                    diags.push(Diagnostic::new(
                        PASS,
                        &f.name,
                        Some(*n),
                        "ltl.unknown-callee",
                        format!("call to undeclared `{callee}`"),
                    ));
                }
            }
            LtlInst::Nop(_) | LtlInst::Return => {}
        }
        for l in slots {
            check_slot(&bounds, l, PASS, "ltl.slot-bounds", &f.name, *n, diags);
        }
    }
}

/// Well-formedness of an LTL program.
pub fn lint_ltl(prog: &LtlProgram) -> Vec<Diagnostic> {
    let callees = known_callees(
        prog.functions.iter().map(|f| f.name.as_str()),
        prog.externs.iter().map(|(n, _)| n.as_str()),
    );
    let mut diags = Vec::new();
    for f in &prog.functions {
        lint_ltl_function(f, &callees, &mut diags);
    }
    diags
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

fn lint_linear_function(f: &LinFunction, callees: &BTreeSet<String>, diags: &mut Vec<Diagnostic>) {
    const PASS: &str = "wf-linear";
    if f.code.is_empty() {
        diags.push(Diagnostic::new(
            PASS,
            &f.name,
            None,
            "linear.empty-code",
            "function has no instructions".to_string(),
        ));
        return;
    }
    // Label table: duplicates are ambiguous branch targets.
    let mut seen_labels: BTreeSet<u32> = BTreeSet::new();
    for (i, inst) in f.code.iter().enumerate() {
        if let LinInst::Label(l) = inst {
            if !seen_labels.insert(*l) {
                diags.push(Diagnostic::new(
                    PASS,
                    &f.name,
                    Some(i as u32),
                    "linear.label-duplicate",
                    format!("label {l} defined more than once"),
                ));
            }
        }
    }
    let bounds = SlotBounds {
        sig: &f.sig,
        locals_size: f.locals_size,
        outgoing_size: f.outgoing_size,
    };
    for (i, inst) in f.code.iter().enumerate() {
        let n = i as u32;
        let mut slots: Vec<Loc> = Vec::new();
        match inst {
            LinInst::Op(op, dst) => {
                slots.extend(lop_operands(op));
                slots.push(*dst);
                check_op_discipline(
                    op,
                    *dst,
                    PASS,
                    "linear.operand-class",
                    "linear.write-incoming",
                    &f.name,
                    n,
                    diags,
                );
                check_callee_save_decl(
                    *dst,
                    &f.used_callee_save,
                    PASS,
                    "linear.callee-save-undeclared",
                    &f.name,
                    n,
                    diags,
                );
            }
            LinInst::Load(_, base, _, dst) => {
                slots.extend([*base, *dst]);
                check_callee_save_decl(
                    *dst,
                    &f.used_callee_save,
                    PASS,
                    "linear.callee-save-undeclared",
                    &f.name,
                    n,
                    diags,
                );
            }
            LinInst::Store(_, base, _, src) => slots.extend([*base, *src]),
            LinInst::CondGoto(l, target) => {
                slots.push(*l);
                if !seen_labels.contains(target) {
                    diags.push(Diagnostic::new(
                        PASS,
                        &f.name,
                        Some(n),
                        "linear.label-missing",
                        format!("branch target label {target} not defined"),
                    ));
                }
            }
            LinInst::Goto(target) => {
                if !seen_labels.contains(target) {
                    diags.push(Diagnostic::new(
                        PASS,
                        &f.name,
                        Some(n),
                        "linear.label-missing",
                        format!("branch target label {target} not defined"),
                    ));
                }
            }
            LinInst::Call(callee, _) => {
                if !callees.contains(callee) {
                    diags.push(Diagnostic::new(
                        PASS,
                        &f.name,
                        Some(n),
                        "linear.unknown-callee",
                        format!("call to undeclared `{callee}`"),
                    ));
                }
            }
            LinInst::Label(_) | LinInst::Return => {}
        }
        for l in slots {
            check_slot(&bounds, l, PASS, "linear.slot-bounds", &f.name, n, diags);
        }
    }
    // Control must not run past the last instruction.
    if !matches!(f.code.last(), Some(LinInst::Return) | Some(LinInst::Goto(_))) {
        diags.push(Diagnostic::new(
            PASS,
            &f.name,
            Some((f.code.len() - 1) as u32),
            "linear.fall-off-end",
            "last instruction is neither Return nor Goto".to_string(),
        ));
    }
}

/// Well-formedness of a Linear program.
pub fn lint_linear(prog: &LinProgram) -> Vec<Diagnostic> {
    let callees = known_callees(
        prog.functions.iter().map(|f| f.name.as_str()),
        prog.externs.iter().map(|(n, _)| n.as_str()),
    );
    let mut diags = Vec::new();
    for f in &prog.functions {
        lint_linear_function(f, &callees, &mut diags);
    }
    diags
}

// ---------------------------------------------------------------------------
// Mach
// ---------------------------------------------------------------------------

/// Well-formedness of a Mach program (frame-slot bounds per `Stacking`'s
/// layout: the first 16 bytes are the link and return-address slots, which
/// generated code must not address as data).
pub fn lint_mach(prog: &MachProgram) -> Vec<Diagnostic> {
    const PASS: &str = "wf-mach";
    let callees = known_callees(
        prog.functions.iter().map(|f| f.name.as_str()),
        prog.externs.iter().map(|(n, _)| n.as_str()),
    );
    let mut diags = Vec::new();
    for f in &prog.functions {
        if f.code.is_empty() {
            diags.push(Diagnostic::new(
                PASS,
                &f.name,
                None,
                "mach.empty-code",
                "function has no instructions".to_string(),
            ));
            continue;
        }
        if !(16 <= f.stackdata_ofs
            && f.stackdata_ofs <= f.outgoing_ofs
            && f.outgoing_ofs <= f.frame_size
            && f.frame_size % 8 == 0)
        {
            diags.push(Diagnostic::new(
                PASS,
                &f.name,
                None,
                "mach.frame-layout",
                format!(
                    "inconsistent layout: stackdata={} outgoing={} size={}",
                    f.stackdata_ofs, f.outgoing_ofs, f.frame_size
                ),
            ));
        }
        let mut seen_labels: BTreeSet<u32> = BTreeSet::new();
        for (i, inst) in f.code.iter().enumerate() {
            if let MachInst::Label(l) = inst {
                if !seen_labels.insert(*l) {
                    diags.push(Diagnostic::new(
                        PASS,
                        &f.name,
                        Some(i as u32),
                        "mach.label-duplicate",
                        format!("label {l} defined more than once"),
                    ));
                }
            }
        }
        let check_frame_slot = |o: i64, i: usize, diags: &mut Vec<Diagnostic>| {
            if o < 16 || o % 8 != 0 || o + 8 > f.frame_size {
                diags.push(Diagnostic::new(
                    PASS,
                    &f.name,
                    Some(i as u32),
                    "mach.slot-bounds",
                    format!(
                        "frame slot at byte {o} outside [16, {}) or misaligned",
                        f.frame_size
                    ),
                ));
            }
        };
        for (i, inst) in f.code.iter().enumerate() {
            match inst {
                MachInst::GetStack(o, _) | MachInst::SetStack(_, o) => {
                    check_frame_slot(*o, i, &mut diags);
                }
                MachInst::GetParam(o, _) if *o < 0 || *o % 8 != 0 => {
                    diags.push(Diagnostic::new(
                        PASS,
                        &f.name,
                        Some(i as u32),
                        "mach.slot-bounds",
                        format!("incoming parameter slot at byte {o} negative or misaligned"),
                    ));
                }
                MachInst::Goto(l) | MachInst::CondGoto(_, l) if !seen_labels.contains(l) => {
                    diags.push(Diagnostic::new(
                        PASS,
                        &f.name,
                        Some(i as u32),
                        "mach.label-missing",
                        format!("branch target label {l} not defined"),
                    ));
                }
                MachInst::Call(callee, _) if !callees.contains(callee) => {
                    diags.push(Diagnostic::new(
                        PASS,
                        &f.name,
                        Some(i as u32),
                        "mach.unknown-callee",
                        format!("call to undeclared `{callee}`"),
                    ));
                }
                _ => {}
            }
        }
        if !matches!(
            f.code.last(),
            Some(MachInst::Return) | Some(MachInst::Goto(_))
        ) {
            diags.push(Diagnostic::new(
                PASS,
                &f.name,
                Some((f.code.len() - 1) as u32),
                "mach.fall-off-end",
                "last instruction is neither Return nor Goto".to_string(),
            ));
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// Asm
// ---------------------------------------------------------------------------

/// Well-formedness of an Asm program: label discipline plus the prologue and
/// epilogue shapes the `MA` convention's frame discipline relies on.
pub fn lint_asm(prog: &AsmProgram) -> Vec<Diagnostic> {
    const PASS: &str = "wf-asm";
    let callees = known_callees(
        prog.functions.iter().map(|f| f.name.as_str()),
        prog.externs.iter().map(|(n, _)| n.as_str()),
    );
    let mut diags = Vec::new();
    for f in &prog.functions {
        let mut seen_labels: BTreeSet<u32> = BTreeSet::new();
        for (i, inst) in f.code.iter().enumerate() {
            if let AsmInst::Label(l) = inst {
                if !seen_labels.insert(*l) {
                    diags.push(Diagnostic::new(
                        PASS,
                        &f.name,
                        Some(i as u32),
                        "asm.label-duplicate",
                        format!("label {l} defined more than once"),
                    ));
                }
            }
        }
        // Prologue shape.
        let frame_size = match (f.code.first(), f.code.get(1)) {
            (Some(AsmInst::AllocFrame(sz)), Some(AsmInst::SaveRa(8))) if *sz >= 16 => Some(*sz),
            _ => {
                diags.push(Diagnostic::new(
                    PASS,
                    &f.name,
                    Some(0),
                    "asm.prologue-shape",
                    "function must begin with AllocFrame(>=16); SaveRa(8)".to_string(),
                ));
                None
            }
        };
        for (i, inst) in f.code.iter().enumerate() {
            match inst {
                AsmInst::Jmp(l) | AsmInst::Jcc(_, l) if !seen_labels.contains(l) => {
                    diags.push(Diagnostic::new(
                        PASS,
                        &f.name,
                        Some(i as u32),
                        "asm.label-missing",
                        format!("branch target label {l} not defined"),
                    ));
                }
                AsmInst::Call(callee) if !callees.contains(callee) => {
                    diags.push(Diagnostic::new(
                        PASS,
                        &f.name,
                        Some(i as u32),
                        "asm.unknown-callee",
                        format!("call to undeclared `{callee}`"),
                    ));
                }
                AsmInst::Ret => {
                    let ok = i >= 2
                        && matches!(f.code.get(i - 2), Some(AsmInst::RestoreRa(8)))
                        && match (f.code.get(i - 1), frame_size) {
                            (Some(AsmInst::FreeFrame(sz)), Some(alloc)) => *sz == alloc,
                            (Some(AsmInst::FreeFrame(_)), None) => true,
                            _ => false,
                        };
                    if !ok {
                        diags.push(Diagnostic::new(
                            PASS,
                            &f.name,
                            Some(i as u32),
                            "asm.epilogue-shape",
                            "Ret must be preceded by RestoreRa(8); FreeFrame(prologue size)"
                                .to_string(),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl::RtlOp;

    fn fun(entry: Node, params: Vec<u32>, code: Vec<(Node, Inst)>) -> RtlFunction {
        RtlFunction {
            name: "f".into(),
            sig: Signature::int_fn(params.len()),
            params,
            stack_size: 0,
            entry,
            code: code.into_iter().collect(),
            next_reg: 8,
        }
    }

    /// `lint_rtl` on a one-function program with no externals, rendered.
    fn lint(f: RtlFunction) -> Vec<String> {
        let prog = RtlProgram {
            functions: vec![f],
            externs: vec![],
        };
        lint_rtl(&prog).iter().map(ToString::to_string).collect()
    }

    #[test]
    fn rtl_entry_missing() {
        let f = fun(5, vec![], vec![(0, Inst::Return(None))]);
        assert_eq!(
            lint(f),
            ["validate[wf-rtl] f@5: rtl.entry-missing: entry node 5 has no instruction"]
        );
    }

    #[test]
    fn rtl_successor_missing() {
        let f = fun(
            0,
            vec![1],
            vec![
                (0, Inst::Cond(1, 1, 7)),
                (1, Inst::Nop(9)),
                (2, Inst::Return(None)),
            ],
        );
        assert_eq!(
            lint(f),
            [
                "validate[wf-rtl] f@0: rtl.successor-missing: successor 7 has no instruction",
                "validate[wf-rtl] f@1: rtl.successor-missing: successor 9 has no instruction",
            ]
        );
    }

    #[test]
    fn rtl_unknown_callee() {
        let sig = Signature::int_fn(1);
        let f = fun(
            0,
            vec![1],
            vec![
                (0, Inst::Call(sig.clone(), "f".into(), vec![1], Some(2), 1)),
                (1, Inst::Call(sig.clone(), "g".into(), vec![2], Some(3), 2)),
                (2, Inst::Tailcall(sig, "h".into(), vec![3])),
            ],
        );
        assert_eq!(
            lint(f),
            [
                "validate[wf-rtl] f@1: rtl.unknown-callee: call to undeclared `g`",
                "validate[wf-rtl] f@2: rtl.unknown-callee: call to undeclared `h`",
            ]
        );
    }

    /// `cond x1 -> {1, 2}`, node 1 defines x2, node 2 is `else_arm`, and
    /// node 3 returns x2. Node 9 is unreachable and reads x5.
    fn diamond(else_arm: Inst) -> RtlFunction {
        fun(
            0,
            vec![1],
            vec![
                (0, Inst::Cond(1, 1, 2)),
                (1, Inst::Op(RtlOp::Int(1), 2, 3)),
                (2, else_arm),
                (3, Inst::Return(Some(2))),
                (9, Inst::Return(Some(5))),
            ],
        )
    }

    #[test]
    fn rtl_use_undefined_flags_a_one_armed_diamond() {
        assert_eq!(
            lint(diamond(Inst::Nop(3))),
            ["validate[wf-rtl] f@3: rtl.use-undefined: x2 may be read before any definition"]
        );
    }

    #[test]
    fn rtl_use_undefined_accepts_a_both_armed_diamond() {
        assert_eq!(
            lint(diamond(Inst::Op(RtlOp::Int(2), 2, 3))),
            Vec::<String>::new()
        );
    }
}
