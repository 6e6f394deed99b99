//! Dataflow analyses over RTL: a generic worklist solver, the value analysis
//! used by `Constprop`/`CSE`/`Deadcode` (paper App. B.3), and liveness.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::rc::Rc;

use crate::bitset::BitSet;
use crate::regenv::{AbsVal, RegEnv};

use compcerto_core::symtab::{GlobKind, SymbolTable};
use mem::{Mem, Val};

use crate::lang::{Inst, Node, PReg, RtlFunction, RtlOp};

// ---------------------------------------------------------------------------
// Worklist solvers
// ---------------------------------------------------------------------------

thread_local! {
    static SOLVER_ITERATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Cumulative worklist-solver iterations (node pops across
/// [`forward_solve`] and [`backward_solve`]) on *this thread*.
///
/// A deterministic effort counter for the observability layer (DESIGN.md
/// §10): the worklists are ordered `BTreeSet`s popped in exact RPO /
/// postorder, so for a fixed function the pop sequence — and hence this
/// counter's delta — is byte-reproducible and independent of `--jobs`
/// (each function is solved entirely on one worker thread). Diff two reads
/// to attribute iterations to a region of code.
#[must_use]
pub fn solver_iterations() -> u64 {
    SOLVER_ITERATIONS.with(std::cell::Cell::get)
}

/// Add `n` iterations counted on another thread to this thread's count.
pub fn absorb_solver_iterations(n: u64) {
    SOLVER_ITERATIONS.with(|c| c.set(c.get() + n));
}

fn tick_solver() {
    SOLVER_ITERATIONS.with(|c| c.set(c.get() + 1));
}

/// Predecessor map of a function's CFG.
///
/// Each CFG edge is recorded once: an instruction that lists the same
/// successor twice (e.g. a `Cond` whose two targets coincide) contributes a
/// single `n → s` edge, not two. Backward solvers re-queue every predecessor
/// of a changed node, so duplicate entries would only cause redundant
/// re-evaluations — but clients that *count* predecessors (edge-split
/// heuristics, validators) need the deduplicated form.
pub fn predecessors(f: &RtlFunction) -> BTreeMap<Node, Vec<Node>> {
    let mut preds: BTreeMap<Node, Vec<Node>> = BTreeMap::new();
    for (n, i) in &f.code {
        let mut succs = i.successors();
        succs.sort_unstable();
        succs.dedup();
        for s in succs {
            preds.entry(s).or_default().push(*n);
        }
    }
    preds
}

/// Dense node numbering for the worklist solvers: reverse postorder of the
/// reachable subgraph, followed by the remaining (unreachable) nodes in
/// ascending id order. The dense index doubles as the worklist priority —
/// ascending visits approximate the analysis-optimal order (RPO forward,
/// postorder backward) *exactly*, rather than relying on `renumber` keeping
/// node ids ascending along the CFG.
///
/// Unreachable nodes are kept (at the tail) because backward clients solve
/// them too: the allocation validator checks live sets for dead code.
fn dense_order(f: &RtlFunction) -> (Vec<Node>, HashMap<Node, usize>) {
    let mut order: Vec<Node> = Vec::with_capacity(f.code.len());
    let mut seen: BTreeSet<Node> = BTreeSet::new();
    if f.code.contains_key(&f.entry) {
        // Iterative DFS with an explicit frame stack; postorder, reversed.
        let mut stack: Vec<(Node, usize)> = vec![(f.entry, 0)];
        seen.insert(f.entry);
        while let Some((n, i)) = stack.pop() {
            let succs = f.code.get(&n).map(|x| x.successors()).unwrap_or_default();
            let mut advanced = false;
            for (j, s) in succs.iter().enumerate().skip(i) {
                if f.code.contains_key(s) && seen.insert(*s) {
                    stack.push((n, j + 1));
                    stack.push((*s, 0));
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                order.push(n);
            }
        }
        order.reverse();
    }
    for n in f.code.keys() {
        if !seen.contains(n) {
            order.push(*n);
        }
    }
    let idx = order.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    (order, idx)
}

/// Assemble the dense solver state back into the public node-keyed map.
fn undense<S>(order: &[Node], state: Vec<Option<S>>) -> BTreeMap<Node, S> {
    order
        .iter()
        .zip(state)
        .filter_map(|(n, s)| s.map(|s| (*n, s)))
        .collect()
}

/// Solve a forward dataflow problem: `state[n]` is the abstract state *before*
/// node `n`; `transfer` computes the state after executing the instruction.
///
/// The solver state is a dense `Vec` indexed by [`dense_order`] (reverse
/// postorder), and the worklist an ordered set of dense indices: popping the
/// smallest visits pending nodes in *exact* RPO, which keeps the number of
/// re-evaluations near the theoretical minimum.
pub fn forward_solve<S, T>(f: &RtlFunction, entry: S, bot: S, transfer: T) -> BTreeMap<Node, S>
where
    S: Clone + PartialEq + JoinSemiLattice,
    T: Fn(Node, &Inst, &S) -> S,
{
    if !f.code.contains_key(&f.entry) {
        // Degenerate CFG: only the entry pseudo-state exists.
        return BTreeMap::from([(f.entry, entry)]);
    }
    let (order, idx) = dense_order(f);
    let mut state: Vec<Option<S>> = order.iter().map(|_| None).collect();
    let Some(&ei) = idx.get(&f.entry) else {
        return BTreeMap::new();
    };
    state[ei] = Some(entry);
    let mut work: BTreeSet<usize> = BTreeSet::from([ei]);
    while let Some(i) = work.pop_first() {
        tick_solver();
        let n = order[i];
        let Some(inst) = f.code.get(&n) else { continue };
        let mut after = match state[i].as_ref() {
            Some(before) => transfer(n, inst, before),
            None => transfer(n, inst, &bot),
        };
        let succs = inst.successors();
        let last = succs.len().saturating_sub(1);
        for (k, s) in succs.into_iter().enumerate() {
            // Dangling successors (no instruction) carry no state.
            let Some(&si) = idx.get(&s) else { continue };
            let changed = match state[si].as_mut() {
                Some(cur) => cur.join_in_place(&after),
                // The last successor takes `after` itself, not a copy.
                None => {
                    state[si] = Some(if k == last {
                        std::mem::replace(&mut after, bot.clone())
                    } else {
                        after.clone()
                    });
                    true
                }
            };
            if changed {
                work.insert(si);
            }
        }
    }
    undense(&order, state)
}

/// Solve a backward dataflow problem: `state[n]` is the abstract state
/// *before* node `n` (the classical "in" set of a backward analysis);
/// `transfer` computes it from the join of the successors' before-states
/// (the "out" set, passed as the third argument).
///
/// Mirror image of [`forward_solve`], over the same [`JoinSemiLattice`]
/// interface and the same dense numbering: popping the *largest* dense
/// index visits pending nodes in exact postorder — the fast direction for a
/// backward analysis.
pub fn backward_solve<S, T>(f: &RtlFunction, bot: S, transfer: T) -> BTreeMap<Node, S>
where
    S: Clone + PartialEq + JoinSemiLattice,
    T: Fn(Node, &Inst, &S) -> S,
{
    let (order, idx) = dense_order(f);
    // Dense predecessor lists (each CFG edge once, as in [`predecessors`]).
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); order.len()];
    for (i, n) in order.iter().enumerate() {
        if let Some(inst) = f.code.get(n) {
            let mut succs = inst.successors();
            succs.sort_unstable();
            succs.dedup();
            for s in succs {
                if let Some(&si) = idx.get(&s) {
                    preds[si].push(i);
                }
            }
        }
    }
    let mut state: Vec<Option<S>> = order.iter().map(|_| None).collect();
    let mut work: BTreeSet<usize> = (0..order.len()).collect();
    while let Some(i) = work.pop_last() {
        tick_solver();
        let n = order[i];
        let Some(inst) = f.code.get(&n) else { continue };
        let mut out = bot.clone();
        for s in inst.successors() {
            if let Some(&si) = idx.get(&s) {
                if let Some(ss) = state[si].as_ref() {
                    out.join_in_place(ss);
                }
            }
        }
        let inn = transfer(n, inst, &out);
        let changed = match state[i].as_mut() {
            Some(cur) => cur.join_in_place(&inn),
            None => {
                state[i] = Some(inn);
                true
            }
        };
        if changed {
            work.extend(preds[i].iter().copied());
        }
    }
    undense(&order, state)
}

/// A join-semilattice.
pub trait JoinSemiLattice: Clone + PartialEq {
    /// Least upper bound.
    fn join(&self, other: &Self) -> Self;

    /// Join `other` into `self`; report whether `self` grew. Implementations
    /// should override this when they can detect growth without materializing
    /// a fresh value (the solver calls it once per CFG edge re-evaluation).
    fn join_in_place(&mut self, other: &Self) -> bool {
        let joined = self.join(other);
        if joined != *self {
            *self = joined;
            true
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Value analysis (abstract interpretation, paper App. B.3)
// ---------------------------------------------------------------------------

/// Abstract value of a register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AVal {
    /// Unreached / undefined.
    Bot,
    /// A known numeric constant.
    Const(Val),
    /// A pointer to global `ident` plus displacement (the symbol is shared,
    /// so copying an environment never copies a name).
    Global(Rc<str>, i64),
    /// A pointer into the activation's stack block plus displacement.
    Stack(i64),
    /// Unknown.
    Top,
}

impl AVal {
    /// Join of two abstract values.
    pub fn join(&self, other: &AVal) -> AVal {
        match (self, other) {
            (AVal::Bot, x) | (x, AVal::Bot) => x.clone(),
            (a, b) if a == b => a.clone(),
            _ => AVal::Top,
        }
    }
}

impl fmt::Display for AVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AVal::Bot => write!(f, "⊥"),
            AVal::Const(v) => write!(f, "{v}"),
            AVal::Global(s, d) => write!(f, "&{s}+{d}"),
            AVal::Stack(d) => write!(f, "&stk+{d}"),
            AVal::Top => write!(f, "⊤"),
        }
    }
}

impl AbsVal for AVal {
    const BOT: &'static Self = &AVal::Bot;

    fn join(&self, other: &Self) -> Self {
        AVal::join(self, other)
    }
}

/// Abstract register environment (missing registers are `Bot`).
pub type AEnv = RegEnv<AVal>;

/// Static knowledge about read-only globals: the initial memory restricted to
/// `const` variables (CompCert's `romem`).
#[derive(Debug, Clone)]
pub struct Romem {
    symtab: SymbolTable,
    init: Mem,
}

impl Romem {
    /// Build the read-only-globals summary from the symbol table.
    pub fn new(symtab: &SymbolTable) -> Romem {
        let init = symtab.build_init_mem().unwrap_or_default();
        Romem {
            symtab: symtab.clone(),
            init,
        }
    }

    /// The value at `ident + disp` through `chunk`, if `ident` is a read-only
    /// global (so the load must still yield its initial value at run time).
    pub fn load(&self, chunk: mem::Chunk, ident: &str, disp: i64) -> Option<Val> {
        let b = self.symtab.block_of(ident)?;
        match self.symtab.kind_of(b)? {
            GlobKind::Var { readonly: true, .. } => self.init.load(chunk, b, disp).ok(),
            _ => None,
        }
    }
}

/// Abstractly evaluate a pure operation.
pub fn eval_op_abstract(env: &AEnv, op: &RtlOp) -> AVal {
    match op {
        RtlOp::Move(r) => env.get(*r).clone(),
        RtlOp::Int(n) => AVal::Const(Val::Int(*n)),
        RtlOp::Long(n) => AVal::Const(Val::Long(*n)),
        RtlOp::AddrGlobal(s, d) => AVal::Global(s.as_str().into(), *d),
        RtlOp::AddrStack(o) => AVal::Stack(*o),
        RtlOp::Unop(mop, r) => match env.get(*r) {
            AVal::Const(v) => {
                let out = mop.eval(*v);
                if out.is_defined() && !matches!(out, Val::Ptr(_, _)) {
                    AVal::Const(out)
                } else {
                    AVal::Top
                }
            }
            AVal::Bot => AVal::Bot,
            _ => AVal::Top,
        },
        RtlOp::Binop(mop, a, b) => match (env.get(*a), env.get(*b)) {
            (AVal::Const(x), AVal::Const(y)) => match mop.fold(x, y) {
                Some(v) => AVal::Const(v),
                None => AVal::Top,
            },
            // Pointer arithmetic on known symbolic pointers.
            (AVal::Global(s, d), AVal::Const(Val::Long(n))) if *mop == minor::MBinop::Add64 => {
                AVal::Global(s.clone(), d.wrapping_add(*n))
            }
            (AVal::Stack(d), AVal::Const(Val::Long(n))) if *mop == minor::MBinop::Add64 => {
                AVal::Stack(d.wrapping_add(*n))
            }
            (AVal::Bot, _) | (_, AVal::Bot) => AVal::Bot,
            _ => AVal::Top,
        },
        RtlOp::BinopImm(mop, a, imm) => match env.get(*a) {
            AVal::Const(x) => match mop.fold(x, imm) {
                Some(v) => AVal::Const(v),
                None => AVal::Top,
            },
            AVal::Global(s, d) if *mop == minor::MBinop::Add64 => match imm {
                Val::Long(n) => AVal::Global(s.clone(), d.wrapping_add(*n)),
                _ => AVal::Top,
            },
            AVal::Stack(d) if *mop == minor::MBinop::Add64 => match imm {
                Val::Long(n) => AVal::Stack(d.wrapping_add(*n)),
                _ => AVal::Top,
            },
            AVal::Bot => AVal::Bot,
            _ => AVal::Top,
        },
    }
}

/// Run the value analysis on a function: abstract register environment
/// *before* each node.
pub fn value_analysis(f: &RtlFunction, romem: &Romem) -> BTreeMap<Node, AEnv> {
    let mut entry = AEnv::default();
    for p in &f.params {
        entry.set(*p, AVal::Top);
    }
    forward_solve(f, entry, AEnv::default(), |_, inst, before| {
        let mut after = before.clone();
        match inst {
            Inst::Op(op, dst, _) => after.set(*dst, eval_op_abstract(before, op)),
            Inst::Load(chunk, base, disp, dst, _) => {
                let v = match before.get(*base) {
                    AVal::Global(s, d) => match romem.load(*chunk, s, d.wrapping_add(*disp)) {
                        Some(v) if !matches!(v, Val::Ptr(_, _)) && v.is_defined() => AVal::Const(v),
                        _ => AVal::Top,
                    },
                    _ => AVal::Top,
                };
                after.set(*dst, v);
            }
            Inst::Call(_, _, _, dst, _) => {
                if let Some(d) = dst {
                    after.set(*d, AVal::Top);
                }
            }
            _ => {}
        }
        after
    })
}

// ---------------------------------------------------------------------------
// Liveness (backward)
// ---------------------------------------------------------------------------

/// Compute the set of registers live *after* each node.
///
/// `live_in[n] = uses(n) ∪ (live_out[n] \ def(n))`,
/// `live_out[n] = ∪ live_in[succ]` — expressed as a [`backward_solve`]
/// instance over the dense [`BitSet`] union lattice (pseudo-registers are
/// already small integers, so the bit index *is* the register: no separate
/// numbering pass), so liveness shares the fixpoint engine (worklist, join
/// discipline) with the forward value analysis and joins sets by word-wise
/// `OR` instead of re-allocating a `BTreeSet` per CFG edge.
pub fn liveness(f: &RtlFunction) -> BTreeMap<Node, BTreeSet<PReg>> {
    let live_in = backward_solve(f, BitSet::new(), |_, inst, out: &BitSet| {
        let mut inn = out.clone();
        if let Some(d) = inst.def() {
            inn.remove(d);
        }
        for u in inst.uses() {
            inn.insert(u);
        }
        inn
    });
    // Derive live-out from live-in of successors.
    f.code
        .iter()
        .map(|(n, inst)| {
            let mut out = BTreeSet::new();
            for s in inst.successors() {
                if let Some(li) = live_in.get(&s) {
                    out.extend(li.iter());
                }
            }
            (*n, out)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use compcerto_core::iface::Signature;
    use minor::MBinop;

    fn const_fn() -> RtlFunction {
        // x2 := 6; x3 := 7; x4 := x2 * x3; return x4
        let mut code = BTreeMap::new();
        code.insert(0, Inst::Op(RtlOp::Int(6), 2, 1));
        code.insert(1, Inst::Op(RtlOp::Int(7), 3, 2));
        code.insert(2, Inst::Op(RtlOp::Binop(MBinop::Mul32, 2, 3), 4, 3));
        code.insert(3, Inst::Return(Some(4)));
        RtlFunction {
            name: "f".into(),
            sig: Signature::int_fn(0),
            params: vec![],
            stack_size: 0,
            entry: 0,
            code,
            next_reg: 5,
        }
    }

    #[test]
    fn constants_propagate() {
        let f = const_fn();
        let romem = Romem::new(&SymbolTable::new());
        let states = value_analysis(&f, &romem);
        // Before the return, x4 is known to be 42.
        let env = &states[&3];
        assert_eq!(*env.get(4), AVal::Const(Val::Int(42)));
    }

    #[test]
    fn liveness_flows_backwards() {
        let f = const_fn();
        let live = liveness(&f);
        // After node 2, only x4 is live.
        assert_eq!(live[&2], BTreeSet::from([4]));
        // After node 0, x2 is live (used at node 2).
        assert!(live[&0].contains(&2));
        assert!(!live[&0].contains(&4));
    }

    #[test]
    fn romem_reads_constants() {
        use compcerto_core::symtab::{GlobKind, InitDatum};
        let mut tbl = SymbolTable::new();
        tbl.define(
            "k".into(),
            GlobKind::Var {
                init: vec![InitDatum::Int32(9)],
                readonly: true,
            },
        );
        tbl.define(
            "w".into(),
            GlobKind::Var {
                init: vec![InitDatum::Int32(9)],
                readonly: false,
            },
        );
        let romem = Romem::new(&tbl);
        assert_eq!(romem.load(mem::Chunk::I32, "k", 0), Some(Val::Int(9)));
        // Writable globals are not compile-time constants.
        assert_eq!(romem.load(mem::Chunk::I32, "w", 0), None);
    }

    #[test]
    fn predecessors_dedupe_parallel_edges() {
        // A `Cond` whose two targets coincide must record a single edge.
        let mut code = BTreeMap::new();
        code.insert(0, Inst::Op(RtlOp::Int(1), 2, 1));
        code.insert(1, Inst::Cond(2, 2, 2)); // both arms fall to node 2
        code.insert(2, Inst::Return(Some(2)));
        let f = RtlFunction {
            name: "g".into(),
            sig: Signature::int_fn(0),
            params: vec![],
            stack_size: 0,
            entry: 0,
            code,
            next_reg: 3,
        };
        let preds = predecessors(&f);
        assert_eq!(preds[&2], vec![1], "parallel Cond edge must be deduped");
        assert_eq!(preds[&1], vec![0]);
    }

    #[test]
    fn backward_solve_matches_liveness_contract() {
        // Diamond: 0 -> cond -> {1, 2} -> 3 -> return x5.
        // x4 defined on both arms; x6 only used on one.
        let mut code = BTreeMap::new();
        code.insert(0, Inst::Cond(2, 1, 2));
        code.insert(1, Inst::Op(RtlOp::Move(6), 4, 3));
        code.insert(2, Inst::Op(RtlOp::Int(0), 4, 3));
        code.insert(3, Inst::Op(RtlOp::Move(4), 5, 4));
        code.insert(4, Inst::Return(Some(5)));
        let f = RtlFunction {
            name: "h".into(),
            sig: Signature::int_fn(0),
            params: vec![2, 6],
            stack_size: 0,
            entry: 0,
            code,
            next_reg: 7,
        };
        let live = liveness(&f);
        // After the cond, x6 is live only on the path through node 1 — but
        // live-out is the union over successors, so it appears at node 0.
        assert!(live[&0].contains(&6));
        // After node 3, only x5 survives.
        assert_eq!(live[&3], BTreeSet::from([5]));
        // After the return, nothing.
        assert_eq!(live[&4], BTreeSet::new());
    }

    #[test]
    fn join_goes_to_top_on_conflict() {
        assert_eq!(
            AVal::Const(Val::Int(1)).join(&AVal::Const(Val::Int(2))),
            AVal::Top
        );
        assert_eq!(
            AVal::Bot.join(&AVal::Const(Val::Int(2))),
            AVal::Const(Val::Int(2))
        );
    }
}
