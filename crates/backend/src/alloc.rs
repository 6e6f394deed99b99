//! The `Allocation` pass: linear-scan register allocation from RTL to LTL
//! (paper Table 3, convention `wt·ext·CL ↠ wt·ext·CL`).
//!
//! Pseudo-registers are mapped to machine registers or `Local` spill slots:
//!
//! * values live across a call must survive the callee — they go to
//!   callee-save registers or spill slots;
//! * short-lived values use caller-save registers;
//! * calls are rewritten to the ABI: arguments move into `r0..r3` and
//!   `Outgoing` slots (paper App. C.1 `loc_arguments`), results come back in
//!   the result register.
//!
//! RTL tail calls are devolved into call + return here (a documented
//! simplification: the stack-space guarantee of `Tailcall` is exercised at
//! the RTL level only, see DESIGN.md).

use std::collections::BTreeMap;

use compcerto_core::iface::{abi, Signature};
use compcerto_core::regs::{Loc, Mreg};
use rtl::{
    liveness, preorder, successors_of, BitSet, Inst, Node, PReg, RtlFunction, RtlOp, RtlProgram,
};

use crate::ltl::{LOp, LtlFunction, LtlInst, LtlProgram};

/// Caller-save registers available for allocation.
const CALLER_SAVE_POOL: [Mreg; 4] = [Mreg(4), Mreg(5), Mreg(6), Mreg(7)];
/// Scratch registers reserved for spill traffic.
const SCRATCH0: Mreg = Mreg(14);
const SCRATCH1: Mreg = Mreg(15);

/// Run register allocation over every function.
pub fn allocation(prog: &RtlProgram) -> LtlProgram {
    LtlProgram {
        functions: prog.functions.iter().map(alloc_function).collect(),
        externs: prog.externs.clone(),
    }
}

/// A live interval over the linearized instruction order.
#[derive(Debug, Clone)]
struct Interval {
    reg: PReg,
    start: usize,
    end: usize,
    crosses_call: bool,
}

/// Recompute the allocator's assignment for `f` as an *untrusted witness*
/// (in the spirit of Rideau & Leroy's validated register allocation): the
/// mapping from pseudo-registers to locations, the spill-area size, and the
/// callee-save registers the allocation writes. `assign_locations` is a pure
/// function of the RTL CFG's *structure* (DFS order, live ranges), so the
/// witness is invariant under node renumbering — translation validators can
/// recompute it from the pre-allocation RTL and check the emitted LTL
/// against it without trusting the emitter.
pub fn allocation_witness(f: &RtlFunction) -> (BTreeMap<PReg, Loc>, i64, Vec<Mreg>) {
    assign_locations(f)
}

/// Compute the allocation of pseudo-registers to locations.
fn assign_locations(f: &RtlFunction) -> (BTreeMap<PReg, Loc>, i64, Vec<Mreg>) {
    // Linearize the CFG (preorder from the entry) to position instructions.
    let order = preorder(f.entry, successors_of(f));
    let live_out = liveness(f);

    // Intervals: positions where a pseudo-register is defined, used or
    // live, indexed by register.
    let mut ranges: Vec<Option<(usize, usize)>> = vec![None; f.next_reg as usize];
    let mut call_positions: Vec<usize> = Vec::new();
    let touch = |r: PReg, p: usize, ranges: &mut Vec<Option<(usize, usize)>>| {
        let r = r as usize;
        if r >= ranges.len() {
            ranges.resize(r + 1, None);
        }
        let e = ranges[r].get_or_insert((p, p));
        e.0 = e.0.min(p);
        e.1 = e.1.max(p);
    };
    for (pos, n) in order.iter().enumerate() {
        let inst = &f.code[n];
        if matches!(inst, Inst::Call(_, _, _, _, _) | Inst::Tailcall(_, _, _)) {
            call_positions.push(pos);
        }
        for r in inst.uses() {
            touch(r, pos, &mut ranges);
        }
        if let Some(d) = inst.def() {
            touch(d, pos, &mut ranges);
        }
        for r in live_out.get(n).into_iter().flat_map(BitSet::iter) {
            touch(r, pos, &mut ranges);
        }
    }
    // Parameters are live from position 0.
    for p in &f.params {
        touch(*p, 0, &mut ranges);
    }

    // One interval per touched register, in ascending register order.
    let mut intervals: Vec<Interval> = ranges
        .into_iter()
        .enumerate()
        .filter_map(|(reg, range)| {
            let (start, end) = range?;
            Some(Interval {
                reg: reg as PReg,
                start,
                end,
                crosses_call: call_positions.iter().any(|c| start < *c && *c <= end),
            })
        })
        .collect();
    intervals.sort_by_key(|i| (i.start, i.end));

    // Linear scan.
    let mut free_caller: Vec<Mreg> = CALLER_SAVE_POOL.to_vec();
    let mut free_callee: Vec<Mreg> = abi::CALLEE_SAVE.to_vec();
    let mut active: Vec<(usize, Mreg, bool)> = Vec::new(); // (end, reg, callee_save)
    let mut assignment: BTreeMap<PReg, Loc> = BTreeMap::new();
    let mut next_slot: i64 = 0;
    let mut used_callee_save: Vec<Mreg> = Vec::new();

    for iv in &intervals {
        // Expire finished intervals.
        active.retain(|(end, r, cs)| {
            if *end < iv.start {
                if *cs {
                    free_callee.push(*r);
                } else {
                    free_caller.push(*r);
                }
                false
            } else {
                true
            }
        });
        let pick = if iv.crosses_call {
            free_callee.pop().map(|r| (r, true))
        } else {
            free_caller
                .pop()
                .map(|r| (r, false))
                .or_else(|| free_callee.pop().map(|r| (r, true)))
        };
        match pick {
            Some((r, cs)) => {
                if cs && !used_callee_save.contains(&r) {
                    used_callee_save.push(r);
                }
                active.push((iv.end, r, cs));
                assignment.insert(iv.reg, Loc::Reg(r));
            }
            None => {
                assignment.insert(iv.reg, Loc::Local(next_slot));
                next_slot += 8;
            }
        }
    }
    (assignment, next_slot, used_callee_save)
}

struct Emitter {
    code: BTreeMap<Node, LtlInst>,
    next_node: Node,
}

impl Emitter {
    /// Append an instruction with a fresh id, returning it.
    fn fresh(&mut self, inst: LtlInst) -> Node {
        let n = self.next_node;
        self.next_node += 1;
        self.code.insert(n, inst);
        n
    }

    /// Emit a chain of instructions anchored at `anchor`; `mk` receives the
    /// final successor and builds the list front-to-back.
    fn chain(&mut self, anchor: Node, insts: Vec<LtlInstTemplate>, next: Node) {
        // Build backwards.
        let mut succ = next;
        let mut nodes: Vec<(LtlInstTemplate, Node)> = Vec::new();
        for t in insts.into_iter().rev() {
            nodes.push((t, succ));
            succ = 0; // placeholder, fixed below
        }
        // Reverse back and materialize: first at anchor, rest fresh.
        nodes.reverse();
        let mut ids: Vec<Node> = vec![anchor];
        for _ in 1..nodes.len() {
            let n = self.next_node;
            self.next_node += 1;
            ids.push(n);
        }
        for (i, (t, _)) in nodes.iter().enumerate() {
            let succ = if i + 1 < ids.len() { ids[i + 1] } else { next };
            self.code.insert(ids[i], t.clone().finish(succ));
        }
        if nodes.is_empty() {
            self.code.insert(anchor, LtlInst::Nop(next));
        }
    }
}

/// An instruction awaiting its successor.
#[derive(Debug, Clone)]
enum LtlInstTemplate {
    Op(LOp, Loc),
    Load(mem::Chunk, Loc, i64, Loc),
    Store(mem::Chunk, Loc, i64, Loc),
    Call(String, Signature),
    Return,
}

impl LtlInstTemplate {
    fn finish(self, next: Node) -> LtlInst {
        match self {
            LtlInstTemplate::Op(op, d) => LtlInst::Op(op, d, next),
            LtlInstTemplate::Load(c, b, disp, d) => LtlInst::Load(c, b, disp, d, next),
            LtlInstTemplate::Store(c, b, disp, s) => LtlInst::Store(c, b, disp, s, next),
            LtlInstTemplate::Call(f, sig) => LtlInst::Call(f, sig, next),
            LtlInstTemplate::Return => LtlInst::Return,
        }
    }
}

/// Plan register operands: return the register holding the value, emitting a
/// reload when the value lives in a slot.
fn in_reg(loc: Loc, scratch: Mreg, pre: &mut Vec<LtlInstTemplate>) -> Loc {
    match loc {
        Loc::Reg(_) => loc,
        slot => {
            pre.push(LtlInstTemplate::Op(LOp::Move(slot), Loc::Reg(scratch)));
            Loc::Reg(scratch)
        }
    }
}

fn alloc_function(f: &RtlFunction) -> LtlFunction {
    let (assignment, locals_size, used_callee_save) = assign_locations(f);
    let loc = |r: PReg| assignment.get(&r).copied().unwrap_or(Loc::Reg(SCRATCH0));

    let max_node = f.code.keys().max().copied().unwrap_or(0);
    let mut em = Emitter {
        code: BTreeMap::new(),
        next_node: max_node + 2,
    };
    let mut outgoing_size: i64 = 0;

    // Entry: move parameters from ABI locations to assigned locations.
    let entry_anchor = max_node + 1;
    {
        let mut moves = Vec::new();
        for (i, p) in f.params.iter().enumerate() {
            let src = abi::loc_arguments(&f.sig)
                .get(i)
                .copied()
                .unwrap_or(Loc::Reg(abi::PARAM_REGS[0]));
            // The callee reads stack parameters as Incoming slots.
            let src = match src {
                Loc::Outgoing(o) => Loc::Incoming(o),
                other => other,
            };
            moves.push(LtlInstTemplate::Op(LOp::Move(src), loc(*p)));
        }
        em.chain(entry_anchor, moves, f.entry);
    }

    for (n, inst) in &f.code {
        let anchor = *n;
        match inst {
            Inst::Nop(next) => {
                em.code.insert(anchor, LtlInst::Nop(*next));
            }
            Inst::Op(op, dst, next) => {
                let mut pre = Vec::new();
                let lop = match op {
                    RtlOp::Move(r) => LOp::Move(loc(*r)),
                    RtlOp::Int(k) => LOp::Int(*k),
                    RtlOp::Long(k) => LOp::Long(*k),
                    RtlOp::AddrGlobal(s, d) => LOp::AddrGlobal(s.clone(), *d),
                    RtlOp::AddrStack(o) => LOp::AddrStack(*o),
                    RtlOp::Unop(m, r) => LOp::Unop(*m, in_reg(loc(*r), SCRATCH0, &mut pre)),
                    RtlOp::Binop(m, a, b) => {
                        let la = in_reg(loc(*a), SCRATCH0, &mut pre);
                        let lb = in_reg(loc(*b), SCRATCH1, &mut pre);
                        LOp::Binop(*m, la, lb)
                    }
                    RtlOp::BinopImm(m, a, i) => {
                        LOp::BinopImm(*m, in_reg(loc(*a), SCRATCH0, &mut pre), *i)
                    }
                };
                let d = loc(*dst);
                match (matches!(lop, LOp::Move(_)), &d) {
                    // Moves can target slots directly; other ops compute into
                    // a register first.
                    (false, Loc::Local(_) | Loc::Incoming(_) | Loc::Outgoing(_)) => {
                        pre.push(LtlInstTemplate::Op(lop, Loc::Reg(SCRATCH0)));
                        pre.push(LtlInstTemplate::Op(LOp::Move(Loc::Reg(SCRATCH0)), d));
                    }
                    _ => pre.push(LtlInstTemplate::Op(lop, d)),
                }
                em.chain(anchor, pre, *next);
            }
            Inst::Load(chunk, base, disp, dst, next) => {
                let mut pre = Vec::new();
                let b = in_reg(loc(*base), SCRATCH0, &mut pre);
                let d = loc(*dst);
                match d {
                    Loc::Reg(_) => pre.push(LtlInstTemplate::Load(*chunk, b, *disp, d)),
                    slot => {
                        pre.push(LtlInstTemplate::Load(*chunk, b, *disp, Loc::Reg(SCRATCH1)));
                        pre.push(LtlInstTemplate::Op(LOp::Move(Loc::Reg(SCRATCH1)), slot));
                    }
                }
                em.chain(anchor, pre, *next);
            }
            Inst::Store(chunk, base, disp, src, next) => {
                let mut pre = Vec::new();
                let b = in_reg(loc(*base), SCRATCH0, &mut pre);
                let s = in_reg(loc(*src), SCRATCH1, &mut pre);
                pre.push(LtlInstTemplate::Store(*chunk, b, *disp, s));
                em.chain(anchor, pre, *next);
            }
            Inst::Cond(r, t, e) => match loc(*r) {
                Loc::Reg(_) => {
                    em.code.insert(anchor, LtlInst::Cond(loc(*r), *t, *e));
                }
                slot => {
                    let cond = em.fresh(LtlInst::Cond(Loc::Reg(SCRATCH0), *t, *e));
                    em.code.insert(
                        anchor,
                        LtlInst::Op(LOp::Move(slot), Loc::Reg(SCRATCH0), cond),
                    );
                }
            },
            Inst::Call(sig, callee, args, dest, next) => {
                let mut pre = Vec::new();
                outgoing_size = outgoing_size.max(abi::size_arguments(sig));
                for (a, dst) in args.iter().zip(abi::loc_arguments(sig)) {
                    pre.push(LtlInstTemplate::Op(LOp::Move(loc(*a)), dst));
                }
                pre.push(LtlInstTemplate::Call(callee.clone(), sig.clone()));
                if let Some(d) = dest {
                    pre.push(LtlInstTemplate::Op(
                        LOp::Move(Loc::Reg(abi::RESULT_REG)),
                        loc(*d),
                    ));
                }
                em.chain(anchor, pre, *next);
            }
            // Tail calls are devolved into call + return (the stack-space
            // guarantee of `Tailcall` is exercised at the RTL level only).
            Inst::Tailcall(sig, callee, args) => {
                let mut pre = Vec::new();
                outgoing_size = outgoing_size.max(abi::size_arguments(sig));
                for (a, dst) in args.iter().zip(abi::loc_arguments(sig)) {
                    pre.push(LtlInstTemplate::Op(LOp::Move(loc(*a)), dst));
                }
                pre.push(LtlInstTemplate::Call(callee.clone(), sig.clone()));
                pre.push(LtlInstTemplate::Return);
                em.chain(anchor, pre, 0);
            }
            Inst::Return(r) => {
                let mut pre = Vec::new();
                if let Some(r) = r {
                    pre.push(LtlInstTemplate::Op(
                        LOp::Move(loc(*r)),
                        Loc::Reg(abi::RESULT_REG),
                    ));
                }
                pre.push(LtlInstTemplate::Return);
                em.chain(anchor, pre, 0);
            }
        }
    }

    LtlFunction {
        name: f.name.clone(),
        sig: f.sig.clone(),
        stack_size: f.stack_size,
        locals_size,
        outgoing_size,
        used_callee_save,
        entry: entry_anchor,
        code: em.code,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ltl::LtlSem;
    use compcerto_core::cc::Cl;
    use compcerto_core::conv::SimConv;
    use compcerto_core::iface::{CQuery, CReply, LQuery, LReply};
    use compcerto_core::lts::run;
    use mem::Val;
    use rtl::RtlSem;

    fn build(src: &str) -> (RtlProgram, LtlProgram, compcerto_core::symtab::SymbolTable) {
        use clight::{build_symtab, parse, simpl_locals, typecheck};
        use minor::{cminorgen, cshmgen, selection};
        let p = simpl_locals(&typecheck(&parse(src).unwrap()).unwrap());
        let r = rtl::renumber(&rtl::rtlgen(&selection(
            &cminorgen(&cshmgen(&p).unwrap()).unwrap(),
        )));
        let l = allocation(&r);
        let tbl = build_symtab(&[&p]).unwrap();
        (r, l, tbl)
    }

    /// Differential check under the `CL` convention: run RTL at the C level
    /// and LTL at the L level on CL-related questions, and require CL-related
    /// answers (paper App. C.1).
    fn differential(src: &str, fname: &str, args: Vec<Val>) -> (CReply, LReply) {
        let (r, l, tbl) = build(src);
        let mem = tbl.build_init_mem().unwrap();
        let sig = r.function(fname).unwrap().sig.clone();
        let qc = CQuery {
            vf: tbl.func_ptr(fname).unwrap(),
            sig: sig.clone(),
            args,
            mem,
        };
        let (w, ql) = Cl.transport_query(&qc).expect("CL marshals");
        assert_eq!(Cl.match_query(&qc, &ql).len(), 1);

        let s1 = RtlSem::new(r, tbl.clone());
        let s2 = LtlSem::new(l, tbl);
        let r1 = run(&s1, &qc, &mut |_: &CQuery| None::<CReply>, 1_000_000).expect_complete();
        let r2 = run(&s2, &ql, &mut |_: &LQuery| None::<LReply>, 1_000_000).expect_complete();
        assert!(
            Cl.match_reply(&w, &r1, &r2),
            "replies not CL-related: {} vs ls[r0]={}",
            r1.retval,
            r2.ls.get(Loc::Reg(abi::RESULT_REG))
        );
        (r1, r2)
    }

    #[test]
    fn straightline_allocation() {
        let (r1, _) = differential(
            "int f(int a, int b) { return a * b + a - b; }",
            "f",
            vec![Val::Int(9), Val::Int(5)],
        );
        assert_eq!(r1.retval, Val::Int(49));
    }

    #[test]
    fn values_survive_calls() {
        // `a` must survive the internal call: forced into callee-save or a
        // spill slot by the allocator.
        let src = "
            int id(int x) { return x; }
            int f(int a) {
                int b;
                b = id(a + 1);
                return a * 100 + b;
            }";
        let (r1, _) = differential(src, "f", vec![Val::Int(3)]);
        assert_eq!(r1.retval, Val::Int(304));
    }

    #[test]
    fn many_live_values_spill() {
        // Nine simultaneously-live values exceed the register pools.
        let src = "
            int f(int a, int b) {
                int c; int d; int e; int g; int h; int i; int j;
                c = a + b; d = a - b; e = a * 2; g = b * 2;
                h = a + 1; i = b + 1; j = a * b;
                return c + d + e + g + h + i + j;
            }";
        let (r1, _) = differential(src, "f", vec![Val::Int(7), Val::Int(3)]);
        assert_eq!(r1.retval, Val::Int(10 + 4 + 14 + 6 + 8 + 4 + 21));
    }

    #[test]
    fn stack_args_roundtrip() {
        // Six parameters: two arrive in Incoming slots.
        let src = "
            int sum6(int a, int b, int c, int d, int e, int f) {
                return a + b + c + d + e + f;
            }";
        let (r1, _) = differential(src, "sum6", (1..=6).map(Val::Int).collect());
        assert_eq!(r1.retval, Val::Int(21));
    }

    #[test]
    fn callee_save_is_used_and_preserved() {
        let src = "
            int id(int x) { return x; }
            int f(int a) { int b; b = id(a); return a + b; }";
        let (_, l, tbl) = build(src);
        let f = l.function("f").unwrap();
        assert!(
            !f.used_callee_save.is_empty() || f.locals_size > 0,
            "call-crossing value must be protected"
        );
        // And the environment's callee-save registers come back intact.
        let mem = tbl.build_init_mem().unwrap();
        let ls = compcerto_core::regs::Locset::new()
            .with(Loc::Reg(Mreg(0)), Val::Int(5))
            .with(Loc::Reg(Mreg(9)), Val::Long(777));
        let q = LQuery {
            vf: tbl.func_ptr("f").unwrap(),
            sig: Signature::int_fn(1),
            ls,
            mem,
        };
        let sem = LtlSem::new(l, tbl);
        let r = run(&sem, &q, &mut |_: &LQuery| None::<LReply>, 1_000_000).expect_complete();
        assert_eq!(r.ls.get(Loc::Reg(Mreg(9))), Val::Long(777));
        assert_eq!(r.ls.get(Loc::Reg(abi::RESULT_REG)), Val::Int(10));
    }
}
