//! Per-pass translation validators.
//!
//! Each validator checks one compiler pass *a posteriori*: it takes the
//! pass's input and output and decides whether the output is a faithful
//! translation, without trusting (or re-running) the pass itself. This is
//! translation validation in the sense of Tristan–Leroy / Rideau–Leroy:
//! the checker is much smaller than the pass and its verdict does not
//! depend on how the output was produced.
//!
//! Three passes are covered:
//!
//! * [`validate_allocation`] — register allocation (RTL → LTL), via an
//!   untrusted *witness* recomputed by [`backend::allocation_witness`] plus
//!   an interference check against RTL liveness;
//! * [`validate_linearize`] — CFG linearization (LTL → Linear), by
//!   re-deriving each basic block's label/payload/flow contract;
//! * [`validate_asmgen`] — Asm emission (Mach → Asm), by a cursor walk that
//!   re-derives the exact instruction sequence each Mach instruction must
//!   expand to.
//!
//! All three return structured [`Diagnostic`]s; an empty vector means the
//! translation is accepted.

use std::collections::{BTreeMap, BTreeSet};

use backend::asm::{AsmFunction, AsmInst};
use backend::linear::{LinFunction, LinInst};
use backend::ltl::{LtlFunction, LtlInst};
use backend::mach::{MOp, MachFunction, MachInst};
use compcerto_core::iface::abi;
use compcerto_core::regs::Loc;
use mem::Chunk;
use rtl::{reachable, successors_of, Inst, RtlFunction};

use crate::diag::Diagnostic;
use crate::lint::lop_operands;

const RA_SLOT: i64 = 8;

/// Validate register allocation for one function: `ltl_f` must agree with
/// the untrusted witness recomputed from `rtl_f`, and the assignment must
/// respect the machine's register discipline and RTL liveness.
///
/// The witness ([`backend::allocation_witness`]) is a pure function of the
/// RTL CFG's structure, so it is invariant under node renumbering; checking
/// the emitted LTL against it does not trust the emitter.
pub fn validate_allocation(rtl_f: &RtlFunction, ltl_f: &LtlFunction) -> Vec<Diagnostic> {
    const PASS: &str = "alloc";
    let mut out = Vec::new();
    let mut diag = |node: Option<u32>, rule: &'static str, msg: String| {
        out.push(Diagnostic::new(PASS, &rtl_f.name, node, rule, msg));
    };

    let (assignment, locals_size, used_callee_save) = backend::allocation_witness(rtl_f);

    // Metadata must match the witness exactly.
    if ltl_f.locals_size != locals_size {
        diag(
            None,
            "alloc.metadata-mismatch",
            format!(
                "locals_size {} differs from witness {}",
                ltl_f.locals_size, locals_size
            ),
        );
    }
    if ltl_f.used_callee_save != used_callee_save {
        diag(
            None,
            "alloc.metadata-mismatch",
            format!(
                "used_callee_save {:?} differs from witness {:?}",
                ltl_f.used_callee_save, used_callee_save
            ),
        );
    }

    // Per-pseudo discipline of the assignment itself.
    let mut witness_slots: BTreeSet<i64> = BTreeSet::new();
    for (p, loc) in &assignment {
        match loc {
            Loc::Reg(r) => {
                if abi::PARAM_REGS.contains(r) || abi::SCRATCH.contains(r) {
                    diag(
                        None,
                        "alloc.reserved-register",
                        format!("pseudo x{p} assigned reserved register r{}", r.0),
                    );
                }
                if abi::is_callee_save(*r) && !used_callee_save.contains(r) {
                    diag(
                        None,
                        "alloc.callee-save-undeclared",
                        format!("pseudo x{p} in callee-save r{} not declared used", r.0),
                    );
                }
            }
            Loc::Local(o) => {
                witness_slots.insert(*o);
                if *o < 0 || *o % 8 != 0 || *o + 8 > locals_size {
                    diag(
                        None,
                        "alloc.local-slot-range",
                        format!("pseudo x{p} spilled to Local({o}) outside [0,{locals_size})"),
                    );
                }
            }
            Loc::Incoming(_) | Loc::Outgoing(_) => {
                diag(
                    None,
                    "alloc.bad-location",
                    format!("pseudo x{p} assigned argument-area location {loc:?}"),
                );
            }
        }
    }

    // Every Local slot the LTL code touches must be a slot the witness
    // allocated (Local slots are never invented downstream of alloc).
    for (n, inst) in &ltl_f.code {
        for loc in ltl_locs(inst) {
            if let Loc::Local(o) = loc {
                if !witness_slots.contains(&o) {
                    diag(
                        Some(*n),
                        "alloc.unknown-slot",
                        format!("Local({o}) not allocated by the witness"),
                    );
                }
            }
        }
    }

    // Call-crossing discipline: every pseudo live after a call must sit in
    // a callee-save register or a spill slot, and simultaneously-live
    // pseudos must occupy distinct locations. Only nodes reachable from the
    // entry are checked: `liveness` also produces live sets for dead code,
    // which the allocator (working in DFS order from the entry) rightly
    // never assigns locations for.
    let live_out = rtl::liveness(rtl_f);
    let reach = reachable(rtl_f.entry, successors_of(rtl_f));
    for (n, inst) in &rtl_f.code {
        if !reach.contains(n) {
            continue;
        }
        let Some(live) = live_out.get(n) else { continue };
        let is_call = matches!(inst, Inst::Call(..) | Inst::Tailcall(..));
        let call_def = match inst {
            Inst::Call(_, _, _, d, _) => *d,
            _ => None,
        };
        let mut seen: BTreeMap<Loc, u32> = BTreeMap::new();
        for p in live.iter() {
            let Some(loc) = assignment.get(&p) else {
                diag(
                    Some(*n),
                    "alloc.unassigned-live",
                    format!("pseudo x{p} live after node {n} has no location"),
                );
                continue;
            };
            if let Some(q) = seen.insert(*loc, p) {
                diag(
                    Some(*n),
                    "alloc.location-conflict",
                    format!("pseudos x{q} and x{p} both live in {loc:?}"),
                );
            }
            if is_call && call_def != Some(p) {
                let survives = match loc {
                    Loc::Reg(r) => abi::is_callee_save(*r),
                    Loc::Local(_) => true,
                    _ => false,
                };
                if !survives {
                    diag(
                        Some(*n),
                        "alloc.clobbered-across-call",
                        format!("pseudo x{p} live across call sits in caller-save {loc:?}"),
                    );
                }
            }
        }
    }
    out
}

/// All locations an LTL instruction mentions (reads or writes).
fn ltl_locs(inst: &LtlInst) -> Vec<Loc> {
    match inst {
        LtlInst::Op(op, d, _) => {
            let mut v = lop_operands(op);
            v.push(*d);
            v
        }
        LtlInst::Load(_, b, _, l, _) | LtlInst::Store(_, b, _, l, _) => vec![*b, *l],
        LtlInst::Cond(c, _, _) => vec![*c],
        LtlInst::Call(..) | LtlInst::Nop(_) | LtlInst::Return => vec![],
    }
}

/// Validate linearization for one function: `lin_f` must be the *raw*
/// `Linearize` output for `ltl_f` (before `CleanupLabels`, which erases the
/// per-block labels this checker keys on).
///
/// The contract checked: every reachable LTL node `n` appears exactly once
/// as `Label(n)`, immediately followed by the translated payload, and
/// control then reaches the LTL successor either by falling through to its
/// label or via an explicit `Goto`.
pub fn validate_linearize(ltl_f: &LtlFunction, lin_f: &LinFunction) -> Vec<Diagnostic> {
    const PASS: &str = "linearize";
    let mut out = Vec::new();
    // Constructor only — callers push, so borrows never overlap.
    let mk = |node: Option<u32>, rule: &'static str, msg: String| {
        Diagnostic::new(PASS, &ltl_f.name, node, rule, msg)
    };

    if ltl_f.code.is_empty() {
        return out;
    }
    // The entry block must come first.
    match lin_f.code.first() {
        Some(LinInst::Label(l)) if *l == ltl_f.entry => {}
        other => out.push(mk(
            Some(ltl_f.entry),
            "linearize.entry-mismatch",
            format!("code must start with Label({}), found {other:?}", ltl_f.entry),
        )),
    }

    // First-occurrence position of each label.
    let mut label_pos: BTreeMap<u32, usize> = BTreeMap::new();
    for (i, inst) in lin_f.code.iter().enumerate() {
        if let LinInst::Label(l) = inst {
            label_pos.entry(*l).or_insert(i);
        }
    }

    // `check_flow(n, pos, target)`: from instruction index `pos`, control
    // must reach the block labelled `target`. Returns the complaint, if any.
    let check_flow = |n: u32, pos: usize, target: u32| -> Option<Diagnostic> {
        match lin_f.code.get(pos) {
            Some(LinInst::Goto(l)) if *l == target => None,
            Some(LinInst::Label(l)) if *l == target => None,
            None => Some(mk(
                Some(n),
                "linearize.truncated",
                format!("code ends before reaching successor {target}"),
            )),
            Some(other) => Some(mk(
                Some(n),
                "linearize.flow-mismatch",
                format!("expected fallthrough or Goto to {target}, found {other:?}"),
            )),
        }
    };

    for n in reachable(ltl_f.entry, |n| ltl_f.code.get(&n).map(LtlInst::successors)) {
        let Some(inst) = ltl_f.code.get(&n) else { continue };
        let Some(&p) = label_pos.get(&n) else {
            out.push(mk(
                Some(n),
                "linearize.missing-block",
                format!("no Label({n}) in the linearized code"),
            ));
            continue;
        };
        let payload = lin_f.code.get(p + 1);
        let payload_mismatch = |expected: &str| {
            mk(
                Some(n),
                "linearize.payload-mismatch",
                format!("after Label({n}) expected {expected}, found {payload:?}"),
            )
        };
        let complaint = match inst {
            LtlInst::Nop(t) => check_flow(n, p + 1, *t),
            LtlInst::Op(op, d, t) => {
                if payload != Some(&LinInst::Op(op.clone(), *d)) {
                    Some(payload_mismatch("matching Op"))
                } else {
                    check_flow(n, p + 2, *t)
                }
            }
            LtlInst::Load(c, b, disp, d, t) => {
                if payload != Some(&LinInst::Load(*c, *b, *disp, *d)) {
                    Some(payload_mismatch("matching Load"))
                } else {
                    check_flow(n, p + 2, *t)
                }
            }
            LtlInst::Store(c, b, disp, s, t) => {
                if payload != Some(&LinInst::Store(*c, *b, *disp, *s)) {
                    Some(payload_mismatch("matching Store"))
                } else {
                    check_flow(n, p + 2, *t)
                }
            }
            LtlInst::Call(callee, sig, t) => {
                if payload != Some(&LinInst::Call(callee.clone(), sig.clone())) {
                    Some(payload_mismatch("matching Call"))
                } else {
                    check_flow(n, p + 2, *t)
                }
            }
            LtlInst::Cond(l, t, e) => {
                if payload != Some(&LinInst::CondGoto(*l, *t)) {
                    Some(payload_mismatch("CondGoto to the then-branch"))
                } else {
                    check_flow(n, p + 2, *e)
                }
            }
            LtlInst::Return => {
                if payload != Some(&LinInst::Return) {
                    Some(payload_mismatch("Return"))
                } else {
                    None
                }
            }
        };
        out.extend(complaint);
    }
    out
}

/// The exact Asm sequence one Mach instruction must expand to.
fn asm_expansion(f: &MachFunction, inst: &MachInst) -> Vec<AsmInst> {
    match inst {
        MachInst::Label(l) => vec![AsmInst::Label(*l)],
        MachInst::Goto(l) => vec![AsmInst::Jmp(*l)],
        MachInst::CondGoto(r, l) => vec![AsmInst::Jcc(*r, *l)],
        MachInst::Op(op, dst) => vec![match op {
            MOp::Move(s) => AsmInst::Mov(*dst, *s),
            MOp::Int(n) => AsmInst::MovImm32(*dst, *n),
            MOp::Long(n) => AsmInst::MovImm64(*dst, *n),
            MOp::AddrGlobal(s, d) => AsmInst::LoadSym(*dst, s.clone(), *d),
            MOp::FrameAddr(o) => AsmInst::LeaSp(*dst, *o),
            MOp::Unop(m, a) => AsmInst::Unop(*m, *dst, *a),
            MOp::Binop(m, a, b) => AsmInst::Binop(*m, *dst, *a, *b),
            MOp::BinopImm(m, a, i) => AsmInst::BinopImm(*m, *dst, *a, *i),
        }],
        MachInst::Load(c, base, disp, dst) => vec![AsmInst::Load(*c, *dst, *base, *disp)],
        MachInst::Store(c, base, disp, src) => vec![AsmInst::Store(*c, *src, *base, *disp)],
        MachInst::GetStack(o, dst) => vec![AsmInst::LoadSp(Chunk::Any64, *dst, *o)],
        MachInst::SetStack(src, o) => vec![AsmInst::StoreSp(Chunk::Any64, *src, *o)],
        MachInst::GetParam(o, dst) => vec![
            AsmInst::LoadSp(Chunk::Any64, *dst, 0),
            AsmInst::Load(Chunk::Any64, *dst, *dst, *o),
        ],
        MachInst::Call(callee, _sig) => vec![
            AsmInst::AddSp(f.outgoing_ofs),
            AsmInst::Call(callee.clone()),
            AsmInst::AddSp(-f.outgoing_ofs),
        ],
        MachInst::Return => vec![
            AsmInst::RestoreRa(RA_SLOT),
            AsmInst::FreeFrame(f.frame_size),
            AsmInst::Ret,
        ],
    }
}

/// Validate Asm emission for one function by a cursor walk: the Asm code
/// must be exactly the prologue followed by each Mach instruction's
/// expansion, in order, with nothing extra. The first divergence is
/// reported (at the Mach pc) and the walk stops — everything after a
/// desynchronization would be noise.
pub fn validate_asmgen(mach_f: &MachFunction, asm_f: &AsmFunction) -> Vec<Diagnostic> {
    const PASS: &str = "asmgen";
    let mut out = Vec::new();
    let mut diag = |node: Option<u32>, rule: &'static str, msg: String| {
        out.push(Diagnostic::new(PASS, &mach_f.name, node, rule, msg));
    };

    let prologue = [
        AsmInst::AllocFrame(mach_f.frame_size),
        AsmInst::SaveRa(RA_SLOT),
    ];
    if asm_f.code.len() < 2 || asm_f.code[0] != prologue[0] || asm_f.code[1] != prologue[1] {
        diag(
            None,
            "asmgen.prologue-mismatch",
            format!(
                "expected AllocFrame({})+SaveRa({RA_SLOT}), found {:?}",
                mach_f.frame_size,
                &asm_f.code[..asm_f.code.len().min(2)]
            ),
        );
        return out;
    }
    let mut cursor = 2usize;
    for (mach_pc, inst) in mach_f.code.iter().enumerate() {
        let expected = asm_expansion(mach_f, inst);
        for e in &expected {
            match asm_f.code.get(cursor) {
                Some(a) if a == e => cursor += 1,
                Some(a) => {
                    diag(
                        Some(mach_pc as u32),
                        "asmgen.mismatch",
                        format!("at asm index {cursor}: expected {e:?}, found {a:?}"),
                    );
                    return out;
                }
                None => {
                    diag(
                        Some(mach_pc as u32),
                        "asmgen.truncated",
                        format!("asm code ends at {cursor}, expected {e:?}"),
                    );
                    return out;
                }
            }
        }
    }
    if cursor != asm_f.code.len() {
        diag(
            None,
            "asmgen.trailing-code",
            format!(
                "{} unexpected instruction(s) after the last expansion",
                asm_f.code.len() - cursor
            ),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use backend::ltl::LtlFunction;
    use backend::{allocation, asmgen, linearize, stacking, tunneling};
    use compcerto_core::iface::Signature;
    use rtl::{RtlOp, RtlProgram};
    use std::collections::BTreeMap as Map;

    /// A small RTL program with a call (exercises spills/callee-saves) and
    /// a diamond.
    fn sample_rtl() -> RtlProgram {
        let mut code = Map::new();
        // x1 param; x2 = 7; call g(x1) -> x3; cond x3 {ret x2} {ret x3}
        code.insert(0, rtl::Inst::Op(RtlOp::Int(7), 2, 1));
        code.insert(
            1,
            rtl::Inst::Call(Signature::int_fn(1), "g".into(), vec![1], Some(3), 2),
        );
        code.insert(2, rtl::Inst::Cond(3, 3, 4));
        code.insert(3, rtl::Inst::Return(Some(2)));
        code.insert(4, rtl::Inst::Return(Some(3)));
        let f = RtlFunction {
            name: "f".into(),
            sig: Signature::int_fn(1),
            params: vec![1],
            stack_size: 0,
            entry: 0,
            code,
            next_reg: 4,
        };
        let mut g_code = Map::new();
        g_code.insert(0, rtl::Inst::Return(Some(1)));
        let g = RtlFunction {
            name: "g".into(),
            sig: Signature::int_fn(1),
            params: vec![1],
            stack_size: 0,
            entry: 0,
            code: g_code,
            next_reg: 2,
        };
        RtlProgram {
            functions: vec![f, g],
            externs: vec![],
        }
    }

    fn pipeline() -> (
        RtlProgram,
        backend::LtlProgram,
        backend::LinProgram,
        backend::MachProgram,
        backend::AsmProgram,
    ) {
        let rtl = sample_rtl();
        let ltl = allocation(&rtl);
        let tun = tunneling(&ltl);
        let lin = linearize(&tun);
        let mach = stacking(&lin).unwrap();
        let (asm, _ra) = asmgen(&mach);
        (rtl, tun, lin, mach, asm)
    }

    #[test]
    fn honest_pipeline_validates_cleanly() {
        let (rtl, tun, lin, mach, asm) = pipeline();
        for (rf, lf) in rtl.functions.iter().zip(&tun.functions) {
            assert_eq!(validate_allocation(rf, lf), vec![]);
        }
        for (tf, nf) in tun.functions.iter().zip(&lin.functions) {
            assert_eq!(validate_linearize(tf, nf), vec![]);
        }
        for (mf, af) in mach.functions.iter().zip(&asm.functions) {
            assert_eq!(validate_asmgen(mf, af), vec![]);
        }
    }

    #[test]
    fn allocation_catches_metadata_tampering() {
        let (rtl, tun, ..) = pipeline();
        let mut bad: LtlFunction = tun.functions[0].clone();
        bad.locals_size += 8;
        let diags = validate_allocation(&rtl.functions[0], &bad);
        assert!(diags.iter().any(|d| d.rule == "alloc.metadata-mismatch"));
    }

    #[test]
    fn linearize_catches_payload_and_flow_tampering() {
        let (_, tun, lin, ..) = pipeline();
        let ltl_f = &tun.functions[0];
        // Drop the last non-label instruction.
        let mut bad = lin.functions[0].clone();
        bad.code.pop();
        let diags = validate_linearize(ltl_f, &bad);
        assert!(!diags.is_empty(), "truncation must be caught");
        // Retarget the first Goto/CondGoto if present.
        let mut bad2 = lin.functions[0].clone();
        let mut tampered = false;
        for inst in &mut bad2.code {
            if let LinInst::CondGoto(_, l) = inst {
                *l = *l + 100;
                tampered = true;
                break;
            }
        }
        if tampered {
            assert!(!validate_linearize(ltl_f, &bad2).is_empty());
        }
    }

    #[test]
    fn asmgen_catches_instruction_tampering() {
        let (.., mach, asm) = pipeline();
        let mf = &mach.functions[0];
        // Corrupt one instruction in the middle.
        let mut bad = asm.functions[0].clone();
        let mid = bad.code.len() / 2;
        bad.code[mid] = AsmInst::AddSp(40);
        let diags = validate_asmgen(mf, &bad);
        assert!(diags
            .iter()
            .any(|d| d.rule.starts_with("asmgen.")), "{diags:?}");
        // Deleting an instruction desynchronizes the walk.
        let mut bad2 = asm.functions[0].clone();
        bad2.code.remove(mid);
        assert!(!validate_asmgen(mf, &bad2).is_empty());
        // Appending junk is trailing code.
        let mut bad3 = asm.functions[0].clone();
        bad3.code.push(AsmInst::Ret);
        assert!(validate_asmgen(mf, &bad3)
            .iter()
            .any(|d| d.rule == "asmgen.trailing-code"));
    }
}
