//! Change-set propagation in the interval value analysis (DESIGN.md §12.3)
//! against the full join it replaces.
//!
//! `compcerto_validate::value_facts` joins a node's whole after-state into
//! its successors only at the node's first pop; later pops join just the
//! registers that changed at the node since its last pop, plus the one it
//! writes. `full_join_facts` below keeps the solver as it was before that
//! change — every pop copies the state, applies the transfer and joins
//! every register into every successor — and the two must agree exactly on
//! every function: equal facts, and as many pops as the library adds to
//! `value_solver_iterations()` (so the `solver.value.iters` counter, the
//! pop order and the widening decisions are those of the full join).
//!
//! Inputs: every `rtl_vprop_in` function of the SCHED.json seed block under
//! both oracle generator profiles, the 48 `compile-corpus`-shaped link sets
//! (3 units × 4 functions × 12 statements), and a seeded block of random
//! cyclic CFGs.
//!
//! The two generated sweeps also pin what the fixpoint engine computes on
//! the compiler's own snapshots: the pops and facts of `value_facts` on
//! `rtl_vprop_in`, neededness on `rtl_ndce_in`, and liveness, the constant
//! analysis and maybe-uninit on `rtl_opt`. The random block pins the pops
//! and facts of the constant analysis, liveness and neededness, and the
//! `lint_rtl` diagnostics, with two properties of liveness and
//! maybe-uninit; relabelled to sparse node ids, it must solve the same.

use std::collections::{BTreeMap, BTreeSet};

use compcerto_core::iface::Signature;
use compcerto_core::rng::SplitMix64;
use compcerto_core::symtab::SymbolTable;
use compcerto_gen::{generate, GenCfg};
use compcerto_validate::{
    lint_rtl, maybe_uninit, neededness, value_facts, value_solver_iterations,
};
use compiler::serve::{fnv1a, FNV_OFFSET};
use compiler::{compile_all, json, CompilerOptions, DifftestCfg, ObsSnapshot, SchedCfg};
use mem::Val;
use minor::MBinop;
use rtl::{
    eval_op_va, liveness, value_analysis, BitSet, DenseCfg, Inst, JoinSemiLattice, Node, Romem,
    RtlFunction, RtlOp, RtlProgram, VaEnv, VaVal,
};

/// Same as the solver's: growing joins tolerated before widening.
const WIDEN_AFTER: u32 = 2;

/// The state after `inst` in `env`: a whole copy with the write applied.
fn full_transfer(env: &VaEnv, inst: &Inst, romem: &Romem) -> VaEnv {
    let mut out = env.clone();
    match inst {
        Inst::Op(op, dst, _) => out.set(*dst, eval_op_va(env, op)),
        Inst::Load(chunk, base, disp, dst, _) => {
            let v = match env.get(*base) {
                VaVal::Global(s, d) => match romem.load(*chunk, s, d.wrapping_add(*disp)) {
                    Some(v) => VaVal::of_const(&v),
                    None => VaVal::Top,
                },
                _ => VaVal::Top,
            };
            out.set(*dst, v);
        }
        Inst::Call(_, _, _, Some(d), _) => out.set(*d, VaVal::Top),
        _ => {}
    }
    out
}

/// The full-join solver, as it was: per pop, copy the state, transfer, and
/// join the whole after-state into every successor, widening the whole
/// environment once a successor has grown `WIDEN_AFTER` times. It numbers
/// the nodes with the engine's graph but keeps an ordered-set worklist.
/// Returns the facts and the number of pops.
fn full_join_facts(f: &RtlFunction, romem: &Romem) -> (BTreeMap<Node, VaEnv>, u64) {
    let g = DenseCfg::new(f);
    if g.reachable() == 0 {
        return (BTreeMap::new(), 0);
    }
    let mut state: Vec<Option<VaEnv>> = vec![None; g.len()];
    let mut grows = vec![0u32; g.len()];
    let mut entry = VaEnv::default();
    for p in &f.params {
        entry.set(*p, VaVal::Top);
    }
    // The entry heads the reverse postorder.
    state[0] = Some(entry);
    let mut work = BTreeSet::from([0]);
    let mut pops = 0;
    while let Some(i) = work.pop_first() {
        pops += 1;
        let Some(before) = state[i].as_ref() else {
            continue;
        };
        let after = full_transfer(before, g.inst(i), romem);
        for &si in g.succs(i) {
            let changed = match state[si].as_mut() {
                Some(cur) => {
                    let old = (grows[si] >= WIDEN_AFTER).then(|| cur.clone());
                    let grew = cur.join_in_place(&after);
                    if grew {
                        grows[si] += 1;
                        if let Some(old) = old {
                            *cur = old.widen(cur);
                        }
                    }
                    grew
                }
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
    (g.undense(state), pops)
}

/// Solve `f` both ways and require equal facts and equal pop counts.
/// Returns the library's facts and pops.
fn assert_same(f: &RtlFunction, romem: &Romem, ctx: &str) -> (BTreeMap<Node, VaEnv>, u64) {
    let (want, want_pops) = full_join_facts(f, romem);
    let before = value_solver_iterations();
    let got = value_facts(f, romem);
    let pops = value_solver_iterations() - before;
    assert_eq!(pops, want_pops, "{ctx}: `{}` pops", f.name);
    assert_eq!(got.len(), want.len(), "{ctx}: `{}` solved nodes", f.name);
    for ((n, g), (m, w)) in got.iter().zip(&want) {
        assert_eq!(n, m, "{ctx}: `{}` solved node set", f.name);
        assert_eq!(g, w, "{ctx}: `{}` fact before node {n}", f.name);
    }
    (got, pops)
}

/// Fold one solve into its pin: the pops, then each node's fact as `Debug`
/// renders it.
fn fold_debug<S: std::fmt::Debug>(h: u64, (facts, pops): (BTreeMap<Node, S>, u64)) -> u64 {
    fold(h, pops, &facts, |s| format!("{s:?}"))
}

/// Compile one generated program and check every function of every
/// unit's `Vprop` input snapshot against the full join. Folds into `pins`,
/// in order, what `value_facts` solves on `rtl_vprop_in`, neededness on
/// `rtl_ndce_in`, and liveness, the constant analysis and maybe-uninit on
/// `rtl_opt`. Returns how many `Vprop` input functions it checked.
fn check_generated(
    seed: u64,
    cfg: &GenCfg,
    opts: CompilerOptions,
    ctx: &str,
    pins: &mut [u64; 5],
) -> usize {
    let srcs = generate(seed, cfg).render();
    let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    let (units, symtab) = match compile_all(&refs, opts) {
        Ok(x) => x,
        Err(e) => panic!("{ctx} seed {seed}: failed to compile: {e}"),
    };
    let romem = Romem::new(&symtab);
    let ctx = format!("{ctx} seed {seed}");
    let mut n = 0;
    for u in &units {
        for f in &u.rtl_vprop_in.functions {
            pins[0] = fold_debug(pins[0], assert_same(f, &romem, &ctx));
            n += 1;
        }
        for f in &u.rtl_ndce_in.functions {
            pins[1] = fold_debug(pins[1], pops("solver.needed.iters", || neededness(f)));
        }
        for f in &u.rtl_opt.functions {
            let rtl = "solver.rtl_iterations";
            pins[2] = fold_debug(pins[2], pops(rtl, || liveness(f)));
            pins[3] = fold_debug(pins[3], pops(rtl, || value_analysis(f, &romem)));
            let uninit = pops("solver.validate_iterations", || maybe_uninit(f, &f.params));
            pins[4] = fold_debug(pins[4], uninit);
        }
    }
    n
}

/// The pins of a generated sweep, in [`check_generated`]'s order.
fn assert_pins(pins: [u64; 5], want: [&str; 5], sweep: &str) {
    assert_eq!(
        pins.map(|h| format!("{h:016x}")),
        want,
        "{sweep} pins (value_facts, neededness, liveness, value_analysis, maybe_uninit)"
    );
}

/// The oracle-seed sweep's pins, in [`check_generated`]'s order.
const ORACLE_PINS: [&str; 5] = [
    "5ad01dc7ca117c38",
    "291cf360d5e33c45",
    "5a492b87a8b6efeb",
    "7c77d4a1ec4c6231",
    "719ddc5046edbe46",
];

/// The corpus-shaped sweep's pins, in [`check_generated`]'s order.
const CORPUS_PINS: [&str; 5] = [
    "53107c744f8d4dcc",
    "cb7f15b1a3ffaf8e",
    "d9309cd05f93a13f",
    "8c3800a9548d57c7",
    "599605ec0d860fae",
];

#[test]
fn change_sets_equal_the_full_join_on_the_oracle_seeds() {
    let doc = json::parse(include_str!("../../../SCHED.json")).unwrap_or_else(|e| panic!("{e}"));
    let num = |k: &str| {
        doc.get(k)
            .and_then(json::Json::as_u64)
            .unwrap_or_else(|| panic!("{k}"))
    };
    let base = num("seed_base");
    let profiles = [
        ("difftest", DifftestCfg::default().gen),
        ("sched", SchedCfg::default().gen),
    ];
    let mut checked = 0;
    let mut pins = [FNV_OFFSET; 5];
    for seed in base..base + num("seeds") {
        for (name, gen) in &profiles {
            let opts = CompilerOptions::validated();
            checked += check_generated(seed, gen, opts, name, &mut pins);
        }
    }
    assert!(checked >= 2 * 64, "only {checked} functions checked");
    assert_pins(pins, ORACLE_PINS, "oracle-seed");
}

#[test]
fn change_sets_equal_the_full_join_on_the_compile_corpus_shape() {
    let cfg = GenCfg {
        units: 3,
        fns_per_unit: 4,
        stmts_per_fn: 12,
        ..GenCfg::default()
    };
    let mut checked = 0;
    let mut pins = [FNV_OFFSET; 5];
    for seed in 0..48 {
        checked += check_generated(seed, &cfg, CompilerOptions::default(), "corpus", &mut pins);
    }
    assert!(checked >= 48 * 12, "only {checked} functions checked");
    assert_pins(pins, CORPUS_PINS, "corpus");
}

/// A random, possibly cyclic, possibly partly unreachable CFG with `n`
/// nodes over registers `1..=r`, from one seed (the `random_cfg` of
/// `compcerto-validate`'s property tests, plus increments that make loops
/// widen, moves, and calls that write `Top`).
fn random_cfg(seed: u64, n: u32, r: u32) -> RtlFunction {
    let mut rng = SplitMix64::new(seed);
    let n = n.max(2);
    let r = r.max(2);
    let mut code = BTreeMap::new();
    for i in 0..n {
        let succ = |rng: &mut SplitMix64| rng.next_u64() as u32 % n;
        let reg = |rng: &mut SplitMix64| 1 + rng.next_u64() as u32 % r;
        let inst = match rng.next_u64() % 8 {
            0 => Inst::Cond(reg(&mut rng), succ(&mut rng), succ(&mut rng)),
            1 => Inst::Nop(succ(&mut rng)),
            2 => Inst::Return(Some(reg(&mut rng))),
            3 => Inst::Op(
                RtlOp::Int(rng.next_u64() as i32 % 100),
                reg(&mut rng),
                succ(&mut rng),
            ),
            4 => {
                let d = reg(&mut rng);
                Inst::Op(RtlOp::Int(7), d, succ(&mut rng))
            }
            5 => {
                let d = reg(&mut rng);
                Inst::Op(
                    RtlOp::BinopImm(MBinop::Add32, d, Val::Int(1)),
                    d,
                    succ(&mut rng),
                )
            }
            6 => Inst::Op(RtlOp::Move(reg(&mut rng)), reg(&mut rng), succ(&mut rng)),
            _ => Inst::Call(
                Signature::int_fn(1),
                "ext".into(),
                vec![reg(&mut rng)],
                Some(reg(&mut rng)),
                succ(&mut rng),
            ),
        };
        code.insert(i, inst);
    }
    RtlFunction {
        name: "p".into(),
        sig: Signature::int_fn(1),
        params: vec![1],
        stack_size: 0,
        entry: 0,
        code,
        next_reg: r + 1,
    }
}

/// The seeded block of random CFGs: 2,000 of them, with up to 48 nodes and
/// up to 80 registers (so states span several environment chunks). Every
/// other one loses its last node, so the edges into it dangle.
fn random_sweep() -> impl Iterator<Item = (String, RtlFunction)> {
    let mut rng = SplitMix64::new(0x5eed);
    (0..2_000).map(move |i| {
        let seed = rng.next_u64();
        let n = rng.range_usize(2, 48) as u32;
        let r = rng.range_usize(2, 80) as u32;
        let mut f = random_cfg(seed, n, r);
        if i % 2 == 1 {
            f.code.remove(&(n - 1));
        }
        (format!("cfg {i} (seed {seed:#x}, n {n}, r {r})"), f)
    })
}

#[test]
fn change_sets_equal_the_full_join_on_random_cyclic_cfgs() {
    let romem = Romem::new(&SymbolTable::new());
    let mut repopped = 0;
    for (ctx, f) in random_sweep() {
        let (facts, pops) = assert_same(&f, &romem, &ctx);
        repopped += usize::from(pops > facts.len() as u64);
    }
    // Loops must make the solver revisit nodes, or the change sets go
    // untested.
    assert!(repopped >= 500, "only {repopped} CFGs popped a node twice");
}

/// `f` with every node `n` renamed `3n + 5`: sparse ids, an entry other
/// than 0, and the same graph.
fn sparse(f: &RtlFunction) -> RtlFunction {
    let m = |n: Node| 3 * n + 5;
    let code = f
        .code
        .iter()
        .map(|(n, inst)| {
            let inst = match inst.clone() {
                Inst::Op(op, d, s) => Inst::Op(op, d, m(s)),
                Inst::Load(c, b, o, d, s) => Inst::Load(c, b, o, d, m(s)),
                Inst::Store(c, b, o, r, s) => Inst::Store(c, b, o, r, m(s)),
                Inst::Call(sig, callee, args, d, s) => Inst::Call(sig, callee, args, d, m(s)),
                Inst::Cond(r, t, e) => Inst::Cond(r, m(t), m(e)),
                Inst::Nop(s) => Inst::Nop(m(s)),
                i @ (Inst::Tailcall(..) | Inst::Return(_)) => i,
            };
            (m(*n), inst)
        })
        .collect();
    RtlFunction {
        entry: m(f.entry),
        code,
        ..f.clone()
    }
}

/// Run `analysis` on `f` and on `g`, its [`sparse`] relabelling: equal
/// pops on `counter`, and facts equal once relabelled.
fn same_up_to_relabelling<S: PartialEq + std::fmt::Debug>(
    ctx: &str,
    counter: &str,
    (f, g): (&RtlFunction, &RtlFunction),
    analysis: impl Fn(&RtlFunction) -> BTreeMap<Node, S>,
) {
    let (want, want_pops) = pops(counter, || analysis(f));
    let (got, got_pops) = pops(counter, || analysis(g));
    assert_eq!(got_pops, want_pops, "{ctx}: {counter}");
    let want: BTreeMap<Node, S> = want.into_iter().map(|(n, s)| (3 * n + 5, s)).collect();
    assert_eq!(got, want, "{ctx}: facts counted on {counter}");
}

/// Renumber gives every function the ids `0..n` and the entry 0, the only
/// shape the random sweep draws, so the engine's binary-search numbering
/// and a non-zero entry need their own check: on the sweep relabelled by
/// `n ↦ 3n + 5`, every analysis pops as often and solves the same facts.
#[test]
fn sparse_node_ids_solve_like_dense_ones() {
    let romem = Romem::new(&SymbolTable::new());
    for (ctx, f) in random_sweep() {
        let pair = (&f, &sparse(&f));
        let rtl = "solver.rtl_iterations";
        same_up_to_relabelling(&ctx, rtl, pair, |f| value_analysis(f, &romem));
        same_up_to_relabelling(&ctx, rtl, pair, liveness);
        same_up_to_relabelling(&ctx, "solver.needed.iters", pair, neededness);
        same_up_to_relabelling(&ctx, "solver.value.iters", pair, |f| value_facts(f, &romem));
    }
}

/// A counter's growth over `run`.
fn pops<T>(counter: &str, run: impl FnOnce() -> T) -> (T, u64) {
    let snap = ObsSnapshot::take();
    let out = run();
    (out, snap.delta().get(counter))
}

/// Fold one analysis result into its pin: the pops, then one line per
/// node.
fn fold<S>(h: u64, pops: u64, facts: &BTreeMap<Node, S>, line: impl Fn(&S) -> String) -> u64 {
    let mut h = fnv1a(h, format!("pops {pops}\n").as_bytes());
    for (n, s) in facts {
        h = fnv1a(h, format!("{n}: {}\n", line(s)).as_bytes());
    }
    h
}

/// Properties of the RTL analyses on the random sweep, and pins of what
/// the fixpoint engine computes there: the pops and facts of the constant
/// analysis, liveness and neededness, and the `lint_rtl` diagnostics. No
/// committed baseline covers such CFGs, so these pins are the engine's
/// regression gate on them.
#[test]
fn engine_pins_and_properties_on_random_cyclic_cfgs() {
    let romem = Romem::new(&SymbolTable::new());
    let mut pins = [FNV_OFFSET; 4];
    for (ctx, f) in random_sweep() {
        let (values, vpops) = pops("solver.rtl_iterations", || value_analysis(&f, &romem));
        pins[0] = fold(pins[0], vpops, &values, |env| {
            env.iter().map(|(r, v)| format!("x{r}={v} ")).collect()
        });

        let (live, lpops) = pops("solver.rtl_iterations", || liveness(&f));
        // Each live set renders as the `BTreeSet` it used to be.
        pins[1] = fold(pins[1], lpops, &live, |regs| {
            format!("{:?}", regs.iter().collect::<BTreeSet<_>>())
        });
        // Live-out is the union of the successors' live-in, and live-in
        // is `uses ∪ (live-out \ def)`.
        for (n, out) in &live {
            let mut want = BitSet::new();
            for s in f.code[n].successors() {
                let Some(si) = f.code.get(&s) else { continue };
                let mut inn = live[&s].clone();
                if let Some(d) = si.def() {
                    inn.remove(d);
                }
                inn.extend(si.uses());
                want.union_with(&inn);
            }
            assert_eq!(out, &want, "{ctx}: live-out at node {n}");
        }

        let (needed, npops) = pops("solver.needed.iters", || neededness(&f));
        pins[2] = fold(pins[2], npops, &needed, |env| {
            env.iter().map(|(r, n)| format!("x{r}={n} ")).collect()
        });

        let prog = RtlProgram {
            functions: vec![f.clone()],
            externs: vec![("ext".into(), Signature::int_fn(1))],
        };
        let (diags, upops) = pops("solver.validate_iterations", || lint_rtl(&prog));
        let lines: BTreeMap<Node, String> = diags
            .iter()
            .enumerate()
            .map(|(i, d)| (i as Node, d.to_string()))
            .collect();
        pins[3] = fold(pins[3], upops, &lines, String::clone);

        // Maybe-uninit is monotone in the entry assumption: declaring
        // more registers defined at entry only shrinks its sets.
        let none = maybe_uninit(&f, &[]);
        let all = maybe_uninit(&f, &(1..f.next_reg).collect::<Vec<_>>());
        assert_eq!(none.len(), all.len(), "{ctx}: maybe-uninit nodes");
        for (n, big) in &none {
            let small = &all[n];
            assert!(
                small.iter().all(|r| big.contains(r)),
                "{ctx}: maybe-uninit at node {n}"
            );
        }
    }
    let got = pins.map(|h| format!("{h:016x}"));
    assert_eq!(
        got,
        [
            "6ad21202f27e8086",
            "acc9337813b4e8e7",
            "d472cf9ff82e1714",
            "33ce8311179254d6"
        ],
        "engine pins (value, liveness, neededness, lint)"
    );
}
