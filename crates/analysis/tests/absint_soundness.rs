//! Soundness battery for the abstract-interpretation layer (DESIGN.md §12).
//!
//! The contract under test is concretization: for every execution of a
//! program and every node the interpreter visits, the concrete value of
//! each register is a member of γ(abstract value) solved for that node —
//! `Bot` concretizes to {Undef} (the register is unwritten), intervals
//! contain exactly defined machine integers of their width, pointer values
//! pin provenance and displacement, and `Top` is everything.
//!
//! Programs come from the differential-testing generator (`compcerto-gen`):
//! well-defined by construction, multi-unit, covering the `buf`/`acc`
//! global idioms and external calls. A fixed 200-seed block runs always-on;
//! the `proptest` feature extends the same check to arbitrary seeds.
//! Interval-lattice law tests (join/widen monotonicity, top/bottom) ride
//! along at the bottom.

use std::collections::BTreeMap;

use compcerto_core::iface::CQuery;
use compcerto_core::lts::{Lts, Step};
use compcerto_core::symtab::SymbolTable;
use compcerto_gen::generate::{gen_queries, generate};
use compcerto_gen::GenCfg;
use compcerto_validate::value_facts_program;
use compiler::{compile_all, CompilerOptions, ExtLib};
use mem::Val;
use rtl::{Itv, Node, Romem, RtlProgram, RtlSem, RtlState, VaEnv, VaVal};

/// Concatenate the per-unit RTL programs (function names are program-unique;
/// externs are deduplicated against the defined set).
fn merge_rtl(programs: &[&RtlProgram]) -> RtlProgram {
    let mut out = RtlProgram::default();
    for p in programs {
        out.functions.extend(p.functions.iter().cloned());
    }
    let defined: Vec<&str> = out.functions.iter().map(|f| f.name.as_str()).collect();
    for p in programs {
        for (n, s) in &p.externs {
            if !defined.contains(&n.as_str()) && !out.externs.iter().any(|(m, _)| m == n) {
                out.externs.push((n.clone(), s.clone()));
            }
        }
    }
    out
}

/// Is the concrete value `val` (`Undef` when the register was never
/// written) a member of γ(`v`)?
fn conforms(v: &VaVal, val: Val, symtab: &SymbolTable, sp: mem::BlockId) -> bool {
    match v {
        VaVal::Top => true,
        // γ(Bot) = {Undef}: the register is unwritten on every path here.
        VaVal::Bot => val == Val::Undef,
        VaVal::I32(itv) => matches!(val, Val::Int(n) if itv.contains(i64::from(n))),
        VaVal::I64(itv) => matches!(val, Val::Long(n) if itv.contains(n)),
        VaVal::Global(s, d) => {
            matches!(val, Val::Ptr(b, o) if symtab.block_of(s) == Some(b) && o == *d)
        }
        VaVal::Stack(d) => matches!(val, Val::Ptr(b, o) if b == sp && o == *d),
    }
}

/// Step the RTL semantics on one query, checking every visited node's
/// abstract environment against the live register file. Returns the number
/// of (node, register) facts checked and the final return value (None when
/// the run hit the step cap or the environment refused a call).
fn run_and_check(
    sem: &RtlSem,
    facts: &BTreeMap<String, BTreeMap<Node, VaEnv>>,
    lib: &ExtLib,
    q: &CQuery,
    seed: u64,
) -> (u64, Option<Val>) {
    let mut s = match sem.initial(q) {
        Ok(s) => s,
        Err(e) => panic!("seed {seed}: initial state rejected: {e}"),
    };
    let mut checked = 0u64;
    for _ in 0..1_000_000u64 {
        if let RtlState::Exec { cur, .. } = &s {
            let (fname, pc) = sem
                .program_point(cur)
                .unwrap_or_else(|| panic!("seed {seed}: frame outside the program"));
            let envs = facts
                .get(fname)
                .unwrap_or_else(|| panic!("seed {seed}: no facts for `{fname}`"));
            let env = envs.get(&pc).unwrap_or_else(|| {
                panic!("seed {seed}: visited node {fname}:{pc} has no abstract environment")
            });
            for (r, v) in env.iter() {
                let concrete = cur.reg(r);
                assert!(
                    conforms(v, concrete, sem.symtab(), cur.sp()),
                    "seed {seed}: at {fname}:{pc} register r{r} has concrete {concrete:?} outside γ({v})",
                );
                checked += 1;
            }
        }
        match sem.step(&s) {
            Step::Internal(s2, _) => s = s2,
            Step::Final(ans) => return (checked, Some(ans.retval)),
            Step::External(oq) => match lib.answer_c(&oq) {
                Some(reply) => {
                    if let Err(e) = sem.resume(&mut s, reply) {
                        panic!("seed {seed}: resume rejected: {e}");
                    }
                }
                None => return (checked, None),
            },
            Step::Stuck(e) => panic!("seed {seed}: generated program got stuck: {e}"),
        }
    }
    (checked, None)
}

/// The whole check for one generator seed: compile, solve value facts on the
/// `Vprop` input snapshot, concretize them along every query's execution,
/// and demand the fully optimized RTL agrees with the snapshot on every
/// completed run (the end-to-end soundness of the vprop/ndce rewrites).
fn check_seed(seed: u64) -> u64 {
    let prog = generate(seed, &GenCfg::quick());
    let srcs = prog.render();
    let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    let (units, symtab) = match compile_all(&refs, CompilerOptions::default()) {
        Ok(x) => x,
        Err(e) => panic!("seed {seed}: generated program failed to compile: {e}"),
    };
    let vprop_in = merge_rtl(&units.iter().map(|u| &u.rtl_vprop_in).collect::<Vec<_>>());
    let rtl_opt = merge_rtl(&units.iter().map(|u| &u.rtl_opt).collect::<Vec<_>>());
    let romem = Romem::new(&symtab);
    let facts = value_facts_program(&vprop_in, &romem);

    let (_, entry) = prog.entry();
    let sig = vprop_in
        .functions
        .iter()
        .find(|f| f.name == entry.name)
        .map(|f| f.sig.clone())
        .unwrap_or_else(|| panic!("seed {seed}: entry `{}` missing from RTL", entry.name));
    let Some(vf) = symtab.func_ptr(&entry.name) else {
        panic!(
            "seed {seed}: entry `{}` not in the symbol table",
            entry.name
        );
    };
    let lib = ExtLib::demo(symtab.clone());
    let sem = RtlSem::new(vprop_in, symtab.clone());
    let opt_sem = RtlSem::new(rtl_opt, symtab.clone());

    let mut checked = 0u64;
    for args in gen_queries(seed, entry.nparams as usize, 3) {
        let mem = match symtab.build_init_mem() {
            Ok(m) => m,
            Err(e) => panic!("seed {seed}: initial memory: {e:?}"),
        };
        let q = CQuery {
            vf,
            sig: sig.clone(),
            args: args.iter().map(|n| Val::Int(*n)).collect(),
            mem,
        };
        let (n, base) = run_and_check(&sem, &facts, &lib, &q, seed);
        checked += n;
        // No-facts run of the optimized program: final answers must agree.
        let (_, opt) = run_and_check(
            &opt_sem,
            &value_facts_program(opt_sem.program(), &romem),
            &lib,
            &q,
            seed,
        );
        if let (Some(a), Some(b)) = (&base, &opt) {
            assert_eq!(
                a, b,
                "seed {seed}: optimized RTL disagrees with the vprop input on {args:?}"
            );
        }
    }
    checked
}

/// The always-on fixed block: 200 generator seeds, every visited node
/// concretization-checked. Also pins that the block exercises a
/// substantial number of facts (a regression guard against the solver
/// silently producing empty environments).
#[test]
fn fixed_seed_block_concretizes() {
    let mut total = 0u64;
    for seed in 0..200u64 {
        total += check_seed(seed);
    }
    assert!(
        total > 100_000,
        "the 200-seed block checked only {total} facts — solver output collapsed?"
    );
}

// ---------------------------------------------------------------------------
// Interval-lattice laws (deterministic sample grid)
// ---------------------------------------------------------------------------

const SAMPLES: [i64; 9] = [
    i32::MIN as i64,
    -100,
    -1,
    0,
    1,
    7,
    100,
    i32::MAX as i64,
    0x7FFF_FFFF_FFFF,
];

fn sample_itvs() -> Vec<Itv> {
    let mut out = vec![Itv::full32(), Itv::full64()];
    for &a in &SAMPLES {
        out.push(Itv::point(a));
        for &b in &SAMPLES {
            if a <= b {
                out.push(Itv::range(a, b));
            }
        }
    }
    out
}

#[test]
fn itv_join_is_an_upper_bound_and_commutes() {
    for a in sample_itvs() {
        for b in sample_itvs() {
            let j = a.join(&b);
            assert_eq!(j, b.join(&a), "join must commute: {a} vs {b}");
            for &n in &SAMPLES {
                if a.contains(n) || b.contains(n) {
                    assert!(j.contains(n), "{j} must contain {n} from {a} ⊔ {b}");
                }
            }
        }
    }
}

#[test]
fn itv_widen_is_monotone_and_terminates() {
    let (lo, hi) = (i64::from(i32::MIN), i64::from(i32::MAX));
    for a in sample_itvs() {
        for b in sample_itvs() {
            let grown = a.join(&b);
            let w = a.widen(&grown, lo, hi);
            // Widening covers the grown interval (soundness)...
            for &n in &SAMPLES {
                if grown.contains(n) && n >= lo && n <= hi {
                    assert!(w.contains(n), "widen({a}, {grown}) = {w} lost {n}");
                }
            }
            // ...and widening a second time with itself is a fixpoint
            // (termination: each bound jumps straight to the extreme).
            assert_eq!(w.widen(&w, lo, hi), w, "widen must idempote at {w}");
        }
    }
}

#[test]
fn vaval_join_laws_top_and_bottom() {
    let samples = [
        VaVal::Bot,
        VaVal::int(3),
        VaVal::I32(Itv::range(0, 9)),
        VaVal::I64(Itv::point(-4)),
        VaVal::Global("buf".into(), 8),
        VaVal::Stack(0),
        VaVal::Top,
    ];
    for v in &samples {
        assert_eq!(v.join(&VaVal::Top), VaVal::Top, "Top absorbs {v}");
        assert_eq!(v.join(v), v.clone(), "join must be idempotent at {v}");
        // γ(Bot) = {Undef}: joining Bot with any defined value is Top
        // (nothing smaller contains both Undef and a defined value).
        let expect = match v {
            VaVal::Bot => VaVal::Bot,
            _ => VaVal::Top,
        };
        assert_eq!(v.join(&VaVal::Bot), expect, "Bot join law at {v}");
        for w in &samples {
            assert_eq!(v.join(w), w.join(v), "join must commute: {v} vs {w}");
        }
    }
}

// ---------------------------------------------------------------------------
// Any-seed extension (requires the optional `proptest` feature; the crate
// is not vendored — see Cargo.toml)
// ---------------------------------------------------------------------------

#[cfg(feature = "proptest")]
mod any_seed {
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn concretization_holds_on_arbitrary_seeds(seed in 200u64..1_000_000u64) {
            super::check_seed(seed);
        }
    }
}
