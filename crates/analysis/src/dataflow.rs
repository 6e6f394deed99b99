//! Generic worklist dataflow over any [`CfgView`], on the same
//! [`JoinSemiLattice`] interface as `rtl::analysis` — one fixpoint engine
//! for RTL, LTL, Linear and Mach.
//!
//! The solvers keep their abstract states in a dense `Vec` indexed by a
//! reverse-postorder numbering of the graph (see [`reverse_postorder`]),
//! and drive an index-ordered worklist: ascending pops visit pending nodes
//! in exact RPO for forward problems, descending pops in exact postorder
//! for backward ones. The set-union clients ([`live_out`], [`maybe_uninit`])
//! additionally run on the dense [`BitSet`] lattice via a variable
//! numbering, so the per-edge join is a word-wise `OR` instead of a
//! `BTreeSet` merge. Public signatures are unchanged: node-keyed `BTreeMap`s
//! of [`VarSet`]s come out, the dense representation never escapes.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::cfg::{reverse_postorder, CfgView};

pub use rtl::{BitSet, JoinSemiLattice};

/// The set-union lattice over an IR's variables — the domain of liveness
/// and of the maybe-uninitialized analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarSet<V: Ord + Copy>(pub BTreeSet<V>);

impl<V: Ord + Copy> Default for VarSet<V> {
    fn default() -> Self {
        VarSet(BTreeSet::new())
    }
}

impl<V: Ord + Copy> JoinSemiLattice for VarSet<V> {
    fn join(&self, other: &Self) -> Self {
        VarSet(self.0.union(&other.0).copied().collect())
    }

    fn join_in_place(&mut self, other: &Self) -> bool {
        let before = self.0.len();
        self.0.extend(other.0.iter().copied());
        self.0.len() != before
    }
}

/// Dense node numbering shared by the solvers: reverse postorder of the
/// reachable subgraph, then the remaining nodes in ascending id order
/// (backward clients — the allocation validator's liveness — solve dead
/// code too). The dense index doubles as the worklist priority.
fn dense_order<G: CfgView + ?Sized>(g: &G) -> (Vec<u32>, HashMap<u32, usize>) {
    let mut order = reverse_postorder(g);
    let mut seen: BTreeSet<u32> = order.iter().copied().collect();
    for n in g.node_ids() {
        if seen.insert(n) {
            order.push(n);
        }
    }
    let idx = order.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    (order, idx)
}

thread_local! {
    static SOLVER_ITERATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Cumulative worklist-solver iterations (node pops across
/// [`forward_solve`] and [`backward_solve`]) on *this thread*.
///
/// Deterministic effort counter for the observability layer (DESIGN.md
/// §10): the ordered worklists pop in exact RPO / postorder, so for a
/// fixed CFG the delta between two reads is byte-reproducible and
/// independent of `--jobs`. Kept separate from the sibling counter in
/// `rtl::analysis` so metrics can attribute iterations to the trusted
/// pipeline vs. the untrusted validator.
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

/// Assemble the dense solver state back into the public node-keyed map.
fn undense<S>(order: &[u32], state: Vec<Option<S>>) -> BTreeMap<u32, S> {
    order
        .iter()
        .zip(state)
        .filter_map(|(n, s)| s.map(|s| (*n, s)))
        .collect()
}

/// Solve a forward dataflow problem: `state[n]` is the abstract state
/// *before* node `n`; `transfer(n, before)` computes the state after it.
/// Only nodes reachable from the entry get a state.
///
/// Internally the states live in a dense reverse-postorder-indexed `Vec`
/// and the worklist pops the smallest dense index first — exact RPO
/// visiting, the fast direction for forward problems.
pub fn forward_solve<G, S, T>(g: &G, entry: S, transfer: T) -> BTreeMap<u32, S>
where
    G: CfgView + ?Sized,
    S: JoinSemiLattice,
    T: Fn(u32, &S) -> S,
{
    if !g.has_node(g.entry()) {
        return BTreeMap::new();
    }
    let (order, idx) = dense_order(g);
    let mut state: Vec<Option<S>> = order.iter().map(|_| None).collect();
    let Some(&ei) = idx.get(&g.entry()) else {
        return BTreeMap::new();
    };
    state[ei] = Some(entry);
    let mut work: BTreeSet<usize> = BTreeSet::from([ei]);
    while let Some(i) = work.pop_first() {
        tick_solver();
        let n = order[i];
        let Some(before) = state[i].as_ref() else { continue };
        let after = transfer(n, before);
        for s in g.successors(n) {
            if !g.has_node(s) {
                continue;
            }
            let Some(&si) = idx.get(&s) else { continue };
            let changed = match state[si].as_mut() {
                Some(cur) => cur.join_in_place(&after),
                None => {
                    state[si] = Some(after.clone());
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
/// *before* node `n` (its "in" set); `transfer(n, out)` computes it from the
/// join of the successors' in-states.
///
/// Mirror image of [`forward_solve`] over the same dense numbering: the
/// worklist pops the *largest* dense index first — exact postorder, the
/// fast direction for backward problems.
pub fn backward_solve<G, S, T>(g: &G, bot: S, transfer: T) -> BTreeMap<u32, S>
where
    G: CfgView + ?Sized,
    S: JoinSemiLattice,
    T: Fn(u32, &S) -> S,
{
    let (order, idx) = dense_order(g);
    // Dense predecessor lists (each CFG edge once).
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); order.len()];
    for (i, n) in order.iter().enumerate() {
        let mut succs = g.successors(*n);
        succs.sort_unstable();
        succs.dedup();
        for s in succs {
            if let Some(&si) = idx.get(&s) {
                preds[si].push(i);
            }
        }
    }
    let mut state: Vec<Option<S>> = order.iter().map(|_| None).collect();
    let mut work: BTreeSet<usize> = (0..order.len()).collect();
    while let Some(i) = work.pop_last() {
        tick_solver();
        let n = order[i];
        let mut out = bot.clone();
        for s in g.successors(n) {
            if let Some(&si) = idx.get(&s) {
                if let Some(ss) = state[si].as_ref() {
                    out.join_in_place(ss);
                }
            }
        }
        let inn = transfer(n, &out);
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

/// A dense numbering of an IR's variable universe (everything read or
/// written anywhere in the graph), mapping variables to [`BitSet`] bit
/// indices and back. Variables are numbered in ascending `Ord` order, so
/// the numbering — and everything derived from it — is deterministic.
struct VarNumbering<V> {
    vars: Vec<V>,
}

impl<V: Ord + Copy> VarNumbering<V> {
    fn new<G: CfgView<Var = V> + ?Sized>(g: &G) -> VarNumbering<V> {
        let mut universe: BTreeSet<V> = BTreeSet::new();
        for n in g.node_ids() {
            universe.extend(g.uses(n));
            universe.extend(g.defs(n));
        }
        VarNumbering {
            vars: universe.into_iter().collect(),
        }
    }

    /// Bit index of `v` (`None` for variables outside the universe).
    fn index(&self, v: V) -> Option<u32> {
        self.vars.binary_search(&v).ok().map(|i| i as u32)
    }

    /// Decode a bitset back into the public variable-set representation.
    fn decode(&self, bits: &BitSet) -> VarSet<V> {
        VarSet(bits.iter().map(|i| self.vars[i as usize]).collect())
    }
}

/// Backward liveness: the set of variables live *after* each node.
///
/// Generalizes `rtl::analysis::liveness` to any [`CfgView`] (the RTL
/// instantiation agrees with it node-for-node; see the cross-check test).
/// Runs on the dense [`BitSet`] lattice through a [`VarNumbering`]; the
/// returned sets are decoded back to plain [`VarSet`]s.
pub fn live_out<G: CfgView + ?Sized>(g: &G) -> BTreeMap<u32, VarSet<G::Var>> {
    let nums = VarNumbering::new(g);
    let live_in = backward_solve(g, BitSet::new(), |n, out: &BitSet| {
        let mut inn = out.clone();
        for d in g.defs(n) {
            if let Some(i) = nums.index(d) {
                inn.remove(i);
            }
        }
        for u in g.uses(n) {
            if let Some(i) = nums.index(u) {
                inn.insert(i);
            }
        }
        inn
    });
    g.node_ids()
        .into_iter()
        .map(|n| {
            let mut out = BitSet::new();
            for s in g.successors(n) {
                if let Some(li) = live_in.get(&s) {
                    out.union_with(li);
                }
            }
            (n, nums.decode(&out))
        })
        .collect()
}

/// Forward "maybe uninitialized" analysis: the set of variables that are
/// possibly not yet defined *before* each reachable node.
///
/// This is the sound def-before-use check for non-SSA IRs: a use of `v` at
/// `n` is safe iff `v` is defined on **every** path from the entry to `n` —
/// i.e. `v ∉ maybe_uninit(n)`. A dominance check is *not* equivalent: after
/// a diamond that defines `v` on both arms, no single def dominates the
/// join, yet the use is safe.
pub fn maybe_uninit<G: CfgView + ?Sized>(
    g: &G,
    defined_at_entry: &BTreeSet<G::Var>,
) -> BTreeMap<u32, VarSet<G::Var>> {
    let nums = VarNumbering::new(g);
    let entry_state: BitSet = nums
        .vars
        .iter()
        .enumerate()
        .filter(|(_, v)| !defined_at_entry.contains(v))
        .map(|(i, _)| i as u32)
        .collect();
    let dense = forward_solve(g, entry_state, |n, before: &BitSet| {
        let mut after = before.clone();
        for d in g.defs(n) {
            if let Some(i) = nums.index(d) {
                after.remove(i);
            }
        }
        after
    });
    dense
        .into_iter()
        .map(|(n, bits)| (n, nums.decode(&bits)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use compcerto_core::iface::Signature;
    use rtl::{Inst, RtlFunction, RtlOp};
    use std::collections::BTreeMap as Map;

    fn diamond_both_arms_define() -> RtlFunction {
        // 0: cond x1 -> {1,2}; both arms define x2; 3 uses x2.
        let mut code = Map::new();
        code.insert(0, Inst::Cond(1, 1, 2));
        code.insert(1, Inst::Op(RtlOp::Int(1), 2, 3));
        code.insert(2, Inst::Op(RtlOp::Int(2), 2, 3));
        code.insert(3, Inst::Return(Some(2)));
        RtlFunction {
            name: "d".into(),
            sig: Signature::int_fn(1),
            params: vec![1],
            stack_size: 0,
            entry: 0,
            code,
            next_reg: 3,
        }
    }

    #[test]
    fn generic_liveness_matches_rtl_liveness() {
        let f = diamond_both_arms_define();
        let generic = live_out(&f);
        let specific = rtl::liveness(&f);
        for (n, s) in &specific {
            assert_eq!(&generic[n].0, s, "live-out mismatch at node {n}");
        }
    }

    #[test]
    fn maybe_uninit_handles_diamonds() {
        let f = diamond_both_arms_define();
        let entry_defs: BTreeSet<u32> = f.params.iter().copied().collect();
        let mu = maybe_uninit(&f, &entry_defs);
        // Before the join, x2 is defined on every path.
        assert!(!mu[&3].0.contains(&2));
        // Before the branch, x2 is still maybe-uninit.
        assert!(mu[&0].0.contains(&2));
    }

    #[test]
    fn maybe_uninit_flags_one_armed_defs() {
        // Only one arm defines x2 -> maybe-uninit at the join.
        let mut code = Map::new();
        code.insert(0, Inst::Cond(1, 1, 2));
        code.insert(1, Inst::Op(RtlOp::Int(1), 2, 3));
        code.insert(2, Inst::Nop(3));
        code.insert(3, Inst::Return(Some(2)));
        let f = RtlFunction {
            name: "bad".into(),
            sig: Signature::int_fn(1),
            params: vec![1],
            stack_size: 0,
            entry: 0,
            code,
            next_reg: 3,
        };
        let entry_defs: BTreeSet<u32> = f.params.iter().copied().collect();
        let mu = maybe_uninit(&f, &entry_defs);
        assert!(mu[&3].0.contains(&2));
    }
}
