//! The workspace's one fixpoint engine and graph toolkit (DESIGN.md §7,
//! §8): the CFG traversals, the dense graph the solvers run on, the
//! forward and backward worklist solvers, the table of `solver.*` pop
//! counters, and the two analyses the trusted passes run on the solvers,
//! liveness and the constant value analysis (paper App. B.3).
//!
//! Every solve builds one [`DenseCfg`] in one pass over `f.code`: the
//! nodes numbered in reverse postorder, each with its instruction and its
//! successor and predecessor indices. The solvers keep their states in
//! vectors over those indices and their pending nodes in a [`Worklist`]
//! bitset, so a pop reads no map and allocates nothing. Liveness hands its
//! live-out sets to Deadcode and Allocation as [`BitSet`]s.
//!
//! `compcerto-validate` runs neededness and the maybe-uninit lint on the
//! same solvers, and the interval value analysis on the same graph,
//! worklist and counters; `backend` lays out LTL with the same preorder.
//! The engine lives here because the passes that use it sit below
//! `compcerto-validate` in the crate graph.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use crate::bitset::BitSet;
use crate::regenv::{AbsVal, RegEnv};

use compcerto_core::symtab::{GlobKind, SymbolTable};
use mem::{Mem, Val};

use crate::lang::{Inst, Node, RtlFunction, RtlOp, Succs};

// ---------------------------------------------------------------------------
// Solver counters
// ---------------------------------------------------------------------------

/// The `solver.*` counter a solver run charges its pops to. Each worklist
/// pop ticks exactly one counter, the one its caller names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// `solver.rtl_iterations`: [`liveness`] and [`value_analysis`], for
    /// the Constprop, Deadcode and Allocation passes, and the allocation
    /// validator's liveness (so a validated compile ticks it too).
    Rtl,
    /// `solver.validate_iterations`: the maybe-uninit analysis of
    /// `lint_rtl`, and nothing else.
    Validate,
    /// `solver.value.iters`: the interval value analysis
    /// (`compcerto_validate::value_facts`), for Vprop and
    /// `validate_constprop`.
    Value,
    /// `solver.needed.iters`: neededness (`compcerto_validate::neededness`),
    /// for Ndce and `validate_deadcode`.
    Needed,
}

/// The counter key of each [`Solver`], in declaration order: the order of
/// [`solver_pops`] and [`absorb_solver_pops`].
pub const SOLVER_COUNTERS: [&str; 4] = [
    "solver.rtl_iterations",
    "solver.validate_iterations",
    "solver.value.iters",
    "solver.needed.iters",
];

thread_local! {
    static SOLVER_POPS: Cell<[u64; 4]> = const { Cell::new([0; 4]) };
}

/// Cumulative worklist pops on *this thread*, one entry per [`Solver`] in
/// [`SOLVER_COUNTERS`] order.
///
/// Deterministic effort counters for the observability layer (DESIGN.md
/// §10): the worklists pop in exact RPO / postorder, so for a fixed
/// function the pop sequence, and hence each counter's delta, is
/// byte-reproducible and independent of `--jobs` (each function is solved
/// entirely on one worker thread). Diff two reads to attribute pops to a
/// region of code.
#[must_use]
pub fn solver_pops() -> [u64; 4] {
    SOLVER_POPS.with(Cell::get)
}

/// Add pops counted on another thread to this thread's counters.
pub fn absorb_solver_pops(pops: [u64; 4]) {
    SOLVER_POPS.with(|c| {
        let now = c.get();
        c.set(std::array::from_fn(|i| now[i] + pops[i]));
    });
}

/// Charge `n` pops to `solver` on this thread.
pub fn count_pops(solver: Solver, n: u64) {
    let mut pops = [0; 4];
    pops[solver as usize] = n;
    absorb_solver_pops(pops);
}

// ---------------------------------------------------------------------------
// Traversals
// ---------------------------------------------------------------------------

// The traversals see a graph through one closure: the successors of a
// node, or `None` when the node has no instruction. Dangling successors
// are skipped, so the traversals are total on ill-formed graphs.

/// The successor closure of an RTL function.
pub fn successors_of(f: &RtlFunction) -> impl Fn(Node) -> Option<Succs> + '_ {
    |n| f.code.get(&n).map(Inst::successors)
}

/// Depth-first preorder of the nodes reachable from `entry`, successors
/// visited in the order listed. This order numbers RTL nodes (`Renumber`),
/// positions them for register allocation and lays out LTL code
/// (`Linearize`).
pub fn preorder<I>(entry: Node, succs: impl Fn(Node) -> Option<I>) -> Vec<Node>
where
    I: IntoIterator<Item = Node>,
    I::IntoIter: DoubleEndedIterator,
{
    let mut order = Vec::new();
    let mut seen = BTreeSet::new();
    let mut stack = vec![entry];
    while let Some(n) = stack.pop() {
        if seen.contains(&n) {
            continue;
        }
        let Some(ss) = succs(n) else { continue };
        seen.insert(n);
        order.push(n);
        stack.extend(ss.into_iter().rev());
    }
    order
}

/// The nodes reachable from `entry`: the set of [`preorder`].
pub fn reachable<I>(entry: Node, succs: impl Fn(Node) -> Option<I>) -> BTreeSet<Node>
where
    I: IntoIterator<Item = Node>,
    I::IntoIter: DoubleEndedIterator,
{
    preorder(entry, succs).into_iter().collect()
}

/// Predecessor map of a function's CFG.
///
/// Each CFG edge is recorded once: an instruction that lists the same
/// successor twice (e.g. a `Cond` whose two targets coincide) contributes a
/// single `n → s` edge, not two. Clients that *count* predecessors
/// (`Cse`'s block boundaries) need the deduplicated form.
pub fn predecessors(f: &RtlFunction) -> BTreeMap<Node, Vec<Node>> {
    let mut preds: BTreeMap<Node, Vec<Node>> = BTreeMap::new();
    for (n, i) in &f.code {
        let succs = i.successors();
        for (k, s) in succs.iter().enumerate() {
            if !succs[..k].contains(s) {
                preds.entry(*s).or_default().push(*n);
            }
        }
    }
    preds
}

// ---------------------------------------------------------------------------
// The dense graph and the worklist
// ---------------------------------------------------------------------------

/// A function's CFG in the dense form the solvers run on, built in one pass
/// over `f.code`.
///
/// Each node has a *dense index*: the nodes reachable from the entry come
/// first, in reverse postorder (an explicit-stack DFS from the entry that
/// visits successors in the order listed), and the unreachable ones follow
/// in ascending id order. The dense index doubles as the worklist priority:
/// popping the lowest pending index visits nodes in exact RPO (forward
/// problems), popping the highest in exact postorder (backward problems).
///
/// Unreachable nodes are kept because their states have readers: Deadcode
/// and Ndce rewrite unreachable pure instructions from their facts, and
/// `validate_deadcode` re-justifies those rewrites.
///
/// Per index the graph holds the node, its instruction and its successor
/// indices in listed order (dangling successors, which have no instruction,
/// dropped), plus the deduplicated predecessor indices the backward solver
/// re-queues: an instruction that lists a successor twice, such as a `Cond`
/// whose two targets coincide, is one edge, as in [`predecessors`].
pub struct DenseCfg<'f> {
    entry: Node,
    /// Node at each dense index.
    nodes: Vec<Node>,
    /// Instruction at each dense index.
    insts: Vec<&'f Inst>,
    /// Dense index of each node, in ascending node order.
    ascending: Vec<usize>,
    /// The successors of `i` are `succs[succ_at[i]..succ_at[i + 1]]`.
    succ_at: Vec<usize>,
    succs: Vec<usize>,
    /// The predecessors of `i` are `preds[pred_at[i]..pred_at[i + 1]]`.
    pred_at: Vec<usize>,
    preds: Vec<usize>,
    /// How many nodes the entry reaches: the RPO prefix.
    reachable: usize,
}

impl<'f> DenseCfg<'f> {
    /// Number `f`'s nodes. A node's *position* is its rank among the sorted
    /// keys of `f.code`, found by binary search; each instruction's
    /// successors are read once.
    pub fn new(f: &'f RtlFunction) -> DenseCfg<'f> {
        let keys: Vec<Node> = f.code.keys().copied().collect();
        let position = |n: Node| keys.binary_search(&n).ok();
        let len = keys.len();
        let by_position: Vec<&Inst> = f.code.values().collect();
        // Successor positions by position, dangling ones dropped.
        let mut out_at = Vec::with_capacity(len + 1);
        let mut out = Vec::with_capacity(len + len / 2);
        out_at.push(0);
        for inst in &by_position {
            out.extend(inst.successors().into_iter().filter_map(position));
            out_at.push(out.len());
        }

        // Postorder by an explicit-stack DFS; each frame is a position and
        // the index in `out` of its next successor to explore.
        let mut order = Vec::with_capacity(len);
        let mut seen = vec![false; len];
        if let Some(e) = position(f.entry) {
            seen[e] = true;
            let mut stack = vec![(e, out_at[e])];
            while let Some(top) = stack.last_mut() {
                let (p, next) = *top;
                if next < out_at[p + 1] {
                    top.1 += 1;
                    let s = out[next];
                    if !seen[s] {
                        seen[s] = true;
                        stack.push((s, out_at[s]));
                    }
                } else {
                    stack.pop();
                    order.push(p);
                }
            }
            order.reverse();
        }
        let reachable = order.len();
        order.extend((0..len).filter(|&p| !seen[p]));

        let mut ascending = vec![0; len];
        for (i, &p) in order.iter().enumerate() {
            ascending[p] = i;
        }
        let mut succ_at = Vec::with_capacity(len + 1);
        let mut succs = Vec::with_capacity(out.len());
        succ_at.push(0);
        for &p in &order {
            succs.extend(out[out_at[p]..out_at[p + 1]].iter().map(|&s| ascending[s]));
            succ_at.push(succs.len());
        }

        // Predecessor lists by counting sort; each edge once, and each list
        // ascending.
        let edges = || {
            (0..len).flat_map(|i| {
                let ss = &succs[succ_at[i]..succ_at[i + 1]];
                ss.iter()
                    .enumerate()
                    .filter(move |&(k, s)| !ss[..k].contains(s))
                    .map(move |(_, &s)| (i, s))
            })
        };
        let mut pred_at = vec![0; len + 1];
        for (_, s) in edges() {
            pred_at[s + 1] += 1;
        }
        for i in 0..len {
            pred_at[i + 1] += pred_at[i];
        }
        let mut fill = pred_at.clone();
        let mut preds = vec![0; pred_at[len]];
        for (i, s) in edges() {
            preds[fill[s]] = i;
            fill[s] += 1;
        }

        DenseCfg {
            entry: f.entry,
            nodes: order.iter().map(|&p| keys[p]).collect(),
            insts: order.iter().map(|&p| by_position[p]).collect(),
            ascending,
            succ_at,
            succs,
            pred_at,
            preds,
            reachable,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the function has no code.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The nodes in dense order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// How many nodes the entry reaches. They hold the dense indices
    /// `0..reachable()`, in reverse postorder, so the entry is index 0;
    /// none when the entry has no instruction.
    #[must_use]
    pub fn reachable(&self) -> usize {
        self.reachable
    }

    /// The node at dense index `i`.
    #[must_use]
    pub fn node(&self, i: usize) -> Node {
        self.nodes[i]
    }

    /// The instruction at dense index `i`.
    #[must_use]
    pub fn inst(&self, i: usize) -> &'f Inst {
        self.insts[i]
    }

    /// The successors of `i` that have an instruction, in listed order.
    #[must_use]
    pub fn succs(&self, i: usize) -> &[usize] {
        &self.succs[self.succ_at[i]..self.succ_at[i + 1]]
    }

    /// The predecessors of `i`, each once, ascending.
    #[must_use]
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[self.pred_at[i]..self.pred_at[i + 1]]
    }

    /// Assemble a dense solver state back into the public node-keyed map.
    pub fn undense<S>(&self, mut state: Vec<Option<S>>) -> BTreeMap<Node, S> {
        self.ascending
            .iter()
            .filter_map(|&i| state[i].take().map(|s| (self.nodes[i], s)))
            .collect()
    }
}

/// The solvers' worklist: a set of dense indices in a bit vector.
/// [`Worklist::pop_first`] takes the lowest pending index and
/// [`Worklist::pop_last`] the highest, so a solver pops nodes in the same
/// order as it would from an ordered set, and inserting a pending index
/// again changes nothing.
pub struct Worklist {
    words: Vec<u64>,
}

impl Worklist {
    /// No index of `0..len` pending.
    #[must_use]
    pub fn new(len: usize) -> Worklist {
        Worklist {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Every index of `0..len` pending.
    #[must_use]
    pub fn full(len: usize) -> Worklist {
        let mut words = vec![u64::MAX; len / 64];
        if !len.is_multiple_of(64) {
            words.push((1 << (len % 64)) - 1);
        }
        Worklist { words }
    }

    /// Make `i` pending.
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Remove and return the lowest pending index.
    pub fn pop_first(&mut self) -> Option<usize> {
        let (w, word) = self.words.iter_mut().enumerate().find(|(_, w)| **w != 0)?;
        let bit = word.trailing_zeros() as usize;
        *word &= *word - 1;
        Some(w * 64 + bit)
    }

    /// Remove and return the highest pending index.
    pub fn pop_last(&mut self) -> Option<usize> {
        let (w, word) = self
            .words
            .iter_mut()
            .enumerate()
            .rev()
            .find(|(_, w)| **w != 0)?;
        let bit = 63 - word.leading_zeros() as usize;
        *word &= !(1 << bit);
        Some(w * 64 + bit)
    }
}

// ---------------------------------------------------------------------------
// Worklist solvers
// ---------------------------------------------------------------------------

/// Solve a forward dataflow problem on `g`: `state[n]` is the abstract
/// state *before* node `n`; `transfer` computes the state after executing
/// the instruction. Only nodes reachable from the entry get a state. Each
/// pop is charged to `solver`.
///
/// The states are a vector over `g`'s dense indices, and the worklist pops
/// the smallest pending index, which visits nodes in *exact* RPO and keeps
/// the number of re-evaluations near the theoretical minimum.
pub fn forward_solve<S, T>(
    g: &DenseCfg<'_>,
    solver: Solver,
    entry: S,
    bot: S,
    transfer: T,
) -> BTreeMap<Node, S>
where
    S: JoinSemiLattice,
    T: Fn(Node, &Inst, &S) -> S,
{
    if g.reachable() == 0 {
        // Degenerate CFG: only the entry pseudo-state exists.
        return BTreeMap::from([(g.entry, entry)]);
    }
    let mut state: Vec<Option<S>> = (0..g.len()).map(|_| None).collect();
    // The entry heads the reverse postorder.
    state[0] = Some(entry);
    let mut work = Worklist::new(g.len());
    work.insert(0);
    let mut pops = 0;
    while let Some(i) = work.pop_first() {
        pops += 1;
        let Some(before) = state[i].as_ref() else {
            continue;
        };
        let mut after = transfer(g.node(i), g.inst(i), before);
        let succs = g.succs(i);
        let last = succs.len().saturating_sub(1);
        for (k, &si) in succs.iter().enumerate() {
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
    count_pops(solver, pops);
    g.undense(state)
}

/// Solve a backward dataflow problem on `g`: the state of dense index `i`
/// is the abstract state *before* its node (the classical "in" set of a
/// backward analysis); `transfer` computes it from the join of the
/// successors' before-states (the "out" set, passed as the third argument).
/// Every node gets a state, unreachable ones included; the result is
/// indexed as `g` numbers the nodes. Each pop is charged to `solver`;
/// [`after_states`] recovers the "out" sets.
///
/// Mirror image of [`forward_solve`], over the same [`JoinSemiLattice`]
/// interface and the same numbering: popping the *largest* pending index
/// visits nodes in exact postorder — the fast direction for a backward
/// analysis.
pub fn backward_solve<S, T>(g: &DenseCfg<'_>, solver: Solver, bot: S, transfer: T) -> Vec<S>
where
    S: JoinSemiLattice,
    T: Fn(Node, &Inst, &S) -> S,
{
    let mut state: Vec<Option<S>> = (0..g.len()).map(|_| None).collect();
    let mut work = Worklist::full(g.len());
    let mut pops = 0;
    while let Some(i) = work.pop_last() {
        pops += 1;
        let mut out = bot.clone();
        for &si in g.succs(i) {
            if let Some(ss) = state[si].as_ref() {
                out.join_in_place(ss);
            }
        }
        let inn = transfer(g.node(i), g.inst(i), &out);
        let changed = match state[i].as_mut() {
            Some(cur) => cur.join_in_place(&inn),
            None => {
                state[i] = Some(inn);
                true
            }
        };
        if changed {
            for &p in g.preds(i) {
                work.insert(p);
            }
        }
    }
    count_pops(solver, pops);
    // Every index was popped at least once, so every state is set.
    state
        .into_iter()
        .map(|s| s.unwrap_or_else(|| bot.clone()))
        .collect()
}

/// The state *after* each node of `g` (a backward solution's "out" sets):
/// starting from `A::default()`, `join` folds in the dense state in
/// `before` of each successor.
pub fn after_states<S, A: Default>(
    g: &DenseCfg<'_>,
    before: &[S],
    join: impl Fn(&mut A, &S),
) -> BTreeMap<Node, A> {
    g.ascending
        .iter()
        .map(|&i| {
            let mut out = A::default();
            for &s in g.succs(i) {
                join(&mut out, &before[s]);
            }
            (g.nodes[i], out)
        })
        .collect()
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
/// *before* each node. Its pops tick `solver.rtl_iterations`.
pub fn value_analysis(f: &RtlFunction, romem: &Romem) -> BTreeMap<Node, AEnv> {
    let mut entry = AEnv::default();
    for p in &f.params {
        entry.set(*p, AVal::Top);
    }
    let transfer = |_: Node, inst: &Inst, before: &AEnv| {
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
    };
    let g = DenseCfg::new(f);
    forward_solve(&g, Solver::Rtl, entry, AEnv::default(), transfer)
}

// ---------------------------------------------------------------------------
// Liveness (backward)
// ---------------------------------------------------------------------------

/// Compute the set of registers live *after* each node.
///
/// `live_in[n] = uses(n) ∪ (live_out[n] \ def(n))`,
/// `live_out[n] = ∪ live_in[succ]` — a [`backward_solve`] instance over
/// the dense [`BitSet`] union lattice (pseudo-registers are already small
/// integers, so the bit index *is* the register: no separate numbering
/// pass), joining sets by word-wise `OR`. The live-out sets stay bitsets:
/// Deadcode tests one bit, and Allocation and its validator iterate them.
/// Its pops tick `solver.rtl_iterations`.
pub fn liveness(f: &RtlFunction) -> BTreeMap<Node, BitSet> {
    let g = DenseCfg::new(f);
    let live_in = backward_solve(&g, Solver::Rtl, BitSet::new(), |_, inst, out: &BitSet| {
        let mut inn = out.clone();
        if let Some(d) = inst.def() {
            inn.remove(d);
        }
        for u in inst.uses() {
            inn.insert(u);
        }
        inn
    });
    after_states(&g, &live_in, |out: &mut BitSet, li: &BitSet| {
        out.union_with(li);
    })
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

    fn bits<const N: usize>(regs: [u32; N]) -> BitSet {
        regs.into_iter().collect()
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
        assert_eq!(live[&2], bits([4]));
        // After node 0, x2 is live (used at node 2).
        assert!(live[&0].contains(2));
        assert!(!live[&0].contains(4));
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
        // The dense graph keeps both listed successors but one predecessor.
        let g = DenseCfg::new(&f);
        assert_eq!(g.nodes(), [0, 1, 2]);
        assert_eq!(g.succs(1), [2, 2]);
        assert_eq!(g.preds(2), [1], "parallel Cond edge must be deduped");
        assert_eq!(g.preds(1), [0]);
        assert!(g.preds(0).is_empty());
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
        assert!(live[&0].contains(6));
        // After node 3, only x5 survives.
        assert_eq!(live[&3], bits([5]));
        // After the return, nothing.
        assert!(live[&4].is_empty());
    }

    /// The diamond `0 -> {1, 2} -> 3` plus an unreachable node 9 that
    /// branches into it.
    fn diamond() -> RtlFunction {
        let mut code = BTreeMap::new();
        code.insert(0, Inst::Cond(1, 1, 2));
        code.insert(1, Inst::Op(RtlOp::Int(1), 2, 3));
        code.insert(2, Inst::Op(RtlOp::Int(2), 2, 3));
        code.insert(3, Inst::Return(Some(2)));
        code.insert(9, Inst::Nop(3));
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
    fn traversals_start_at_entry_and_cover_the_reachable_nodes() {
        let f = diamond();
        assert_eq!(preorder(f.entry, successors_of(&f)), vec![0, 1, 3, 2]);
        assert_eq!(
            reachable(f.entry, successors_of(&f)),
            BTreeSet::from([0, 1, 2, 3])
        );
        // The solvers number the reachable nodes in reverse postorder, then
        // the unreachable tail.
        let g = DenseCfg::new(&f);
        assert_eq!(g.nodes(), [0, 2, 1, 3, 9]);
        assert_eq!(g.reachable(), 4);
        assert_eq!(g.succs(0), [2, 1], "Cond(1, 1, 2) lists node 1 first");
        assert_eq!(g.preds(3), [1, 2, 4]);
        assert_eq!(g.inst(4), &Inst::Nop(3));
    }

    #[test]
    fn traversals_skip_dangling_successors() {
        let mut f = diamond();
        f.code.insert(1, Inst::Op(RtlOp::Int(1), 2, 99)); // 99 missing
        assert_eq!(preorder(f.entry, successors_of(&f)), vec![0, 1, 2, 3]);
        assert!(!reachable(f.entry, successors_of(&f)).contains(&99));
        let g = DenseCfg::new(&f);
        assert_eq!(g.nodes(), [0, 2, 3, 1, 9]);
        assert!(g.succs(3).is_empty(), "the edge to 99 is dropped");
        // A missing entry has no traversal at all, and the solvers number
        // every node in the tail, ascending.
        f.entry = 42;
        assert!(preorder(f.entry, successors_of(&f)).is_empty());
        let g = DenseCfg::new(&f);
        assert_eq!(g.reachable(), 0);
        assert_eq!(g.nodes(), [0, 1, 2, 3, 9]);
    }

    #[test]
    fn worklist_pops_in_index_order() {
        let mut work = Worklist::new(200);
        for i in [130, 5, 64, 63, 5, 199, 0, 130] {
            work.insert(i);
        }
        let mut up = Vec::new();
        while let Some(i) = work.pop_first() {
            up.push(i);
        }
        // Duplicate inserts collapse.
        assert_eq!(up, [0, 5, 63, 64, 130, 199]);
        for i in [130, 5, 64, 63, 5, 199, 0, 130] {
            work.insert(i);
        }
        let mut down = Vec::new();
        while let Some(i) = work.pop_last() {
            down.push(i);
        }
        assert_eq!(down, [199, 130, 64, 63, 5, 0]);
        // A full worklist holds exactly `0..len`, across word boundaries.
        for len in [0, 1, 63, 64, 65, 130] {
            let mut work = Worklist::full(len);
            let mut got = Vec::new();
            while let Some(i) = work.pop_last() {
                got.push(i);
            }
            assert_eq!(got, (0..len).rev().collect::<Vec<_>>(), "len {len}");
        }
    }

    #[test]
    fn each_pop_ticks_the_named_counter_only() {
        let f = diamond();
        let before = solver_pops();
        let live = liveness(&f);
        let mid = solver_pops();
        backward_solve(
            &DenseCfg::new(&f),
            Solver::Needed,
            BitSet::new(),
            |_, _, out: &BitSet| out.clone(),
        );
        let after = solver_pops();
        // Five nodes, each popped once, plus node 9 again: it has the
        // largest dense index, so it pops before its successor 3 is solved.
        assert_eq!(mid[0] - before[0], 6);
        assert_eq!(mid[1..], before[1..]);
        assert_eq!(after[3] - mid[3], 6);
        assert_eq!(after[..3], mid[..3]);
        // The unreachable node is solved too, and its after-state is the
        // join of its successor's before-state.
        assert_eq!(live[&9], bits([2]));
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
