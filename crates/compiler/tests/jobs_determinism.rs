//! Worker-pool determinism: the compiler's output must be byte-identical
//! for every `--jobs` setting. The pool dispatches by atomic index and
//! reassembles results in input order, so parallelism is unobservable in
//! the artifacts — this suite pins that contract down on pretty-printed
//! Asm-O, on the fault-injection campaign report, and on the error path.
//!
//! The function-level scheduler (`driver::compile_typed_jobs`) runs every
//! unit's prefix and every function's back end on one pool whose items are
//! known before any prefix runs; the last three tests pin the invariant
//! that list rests on, its error order past the front end, and units that
//! define no function. The resilient compile (`ccomp-o FILE.c`, the
//! server's misses) runs on the same pool, and the last two also pin that
//! it gives the scheduler's units and errors at every width.

use compcerto_gen::{generate, GenCfg};
use compiler::driver::{compile_typed_jobs, unit_prefix};
use compiler::resilience::compile_typed_resilient;
use compiler::{
    compile_all_jobs, compile_all_resilient, front_end, run_campaign, CampaignCfg, CompiledUnit,
    CompilerOptions, Jobs, StagePrograms, UnitOutcome,
};

/// Pretty-print every Asm-O function of every unit, in unit order.
fn asm_dump(srcs: &[&str], opts: CompilerOptions, jobs: Jobs) -> String {
    let (units, _tbl) = compile_all_jobs(srcs, opts, jobs).expect("corpus compiles");
    let mut out = String::new();
    for u in &units {
        for f in &u.asm.functions {
            out.push_str(&f.dump());
        }
    }
    out
}

#[test]
fn jobs4_matches_jobs1_on_fixed_corpus() {
    let srcs = [
        "int mult(int n, int p) { return n * p; }",
        "extern int mult(int, int); int sqr(int n) { int r; r = mult(n, n); return r; }",
        "int f(int a, int b) { return (a + b) * (a - b); }",
        "long g(long x) { long y; y = x * 3 - 1; return y; }",
        "int h(int n) { int i; int s; s = 0; for (i = 0; i < n; i = i + 1) { s = s + i; } return s; }",
    ];
    // `validated()` keeps serial/parallel parity of validated output
    // tested.
    for opts in [
        CompilerOptions::default(),
        CompilerOptions::none(),
        CompilerOptions::validated(),
    ] {
        let serial = asm_dump(&srcs, opts, Jobs::N(1));
        let par = asm_dump(&srcs, opts, Jobs::N(4));
        assert_eq!(serial, par, "Asm output depends on the worker count");
        // And an over-subscribed pool (more workers than units).
        let wide = asm_dump(&srcs, opts, Jobs::N(16));
        assert_eq!(serial, wide);
    }
}

#[test]
fn jobs4_matches_jobs1_on_generated_workloads() {
    // Compile one single-unit program at a time — the fan-out under test
    // here is the *intra-call* front-end / back-end one.
    for seed in 97..103 {
        let src = generate(seed, &GenCfg::single_unit()).render().remove(0);
        let serial = asm_dump(&[&src], CompilerOptions::default(), Jobs::N(1));
        let par = asm_dump(&[&src], CompilerOptions::default(), Jobs::N(4));
        assert_eq!(serial, par, "workload program diverged:\n{src}");
    }
}

#[test]
fn campaign_report_is_jobs_invariant() {
    let mk = |jobs| CampaignCfg {
        per_class: 3,
        jobs,
        ..CampaignCfg::default()
    };
    let serial = run_campaign(&mk(Jobs::N(1))).expect("campaign runs");
    let par = run_campaign(&mk(Jobs::N(4))).expect("campaign runs");
    // The rendered report is the external artifact; compare it bytewise.
    assert_eq!(format!("{serial}"), format!("{par}"));
}

#[test]
fn interned_symbols_are_jobs_invariant() {
    // `Sym` assignment (DESIGN.md §13) is a pure function of linked
    // program order, so the interpreter arenas built from a parallel
    // compilation must intern every name to the same dense id as a serial
    // one — ids leak into nothing observable, but drifting ids would be
    // the first symptom of a nondeterministic link order.
    let srcs = [
        "int mult(int n, int p) { return n * p; }",
        "extern int mult(int, int); int sqr(int n) { int r; r = mult(n, n); return r; }",
        "extern int sqr(int); int entry(int a) { int r; r = sqr(a); return r + a; }",
    ];
    let assignment = |jobs| {
        let (units, tbl) =
            compile_all_jobs(&srcs, CompilerOptions::default(), jobs).expect("corpus compiles");
        let sp = StagePrograms::build(&units).expect("stage programs build");
        let p = clight::fast::prepare(&sp.clight, &tbl);
        sp.clight
            .functions
            .iter()
            .map(|f| f.name.clone())
            .chain(sp.clight.externs.iter().map(|e| e.name.clone()))
            .map(|name| {
                let sym = p.syms.lookup(&name).expect("every linked name interns");
                (name, sym.index())
            })
            .collect::<Vec<_>>()
    };
    let serial = assignment(Jobs::N(1));
    assert_eq!(serial, assignment(Jobs::N(4)));
    assert_eq!(serial, assignment(Jobs::N(16)));
}

#[test]
fn error_reporting_is_jobs_invariant() {
    // Two bad units: the pool must report the *lowest-index* failure for
    // every jobs setting, not whichever worker lost the race.
    let srcs = [
        "int ok(int x) { return x; }",
        "int bad1(int x) { return y; }",
        "int bad2(int x) { return z; }",
    ];
    let e1 =
        compile_all_jobs(&srcs, CompilerOptions::default(), Jobs::N(1)).expect_err("must fail");
    for jobs in [2, 4, 16] {
        let e = compile_all_jobs(&srcs, CompilerOptions::default(), Jobs::N(jobs))
            .expect_err("must fail");
        assert_eq!(format!("{e1:?}"), format!("{e:?}"), "jobs={jobs}");
    }
}

/// The Fig. 1 units and the mid-sized bench fixture (`bench::FIG1_B`,
/// `bench::FIG1_A` and `bench::FIXTURE`; the bench crate depends on this
/// one, so they are repeated here).
const FIG1: [&str; 2] = [
    "extern int mult(int, int); int sqr(int n) { int r; r = mult(n, n); return r; }",
    "int mult(int n, int p) { return n * p; }",
];
const FIXTURE: &str = "
    const int modulus = 9973;
    long table[8];

    int step(int x) { return (x * 31 + 17) % 9973; }

    int churn(int seed, int rounds) {
        int i; int x; int r;
        x = seed;
        for (i = 0; i < rounds; i = i + 1) {
            r = step(x);
            x = r;
            table[i % 8] = (long) x;
        }
        return x;
    }
";

/// The link sets of the `compile-corpus` benchmark (the golden programs,
/// Fig. 1, the fixture, the fault-injection source and 48 generated link
/// sets of 3 units × 4 functions × 12 statements), plus 48 generated at
/// `GenCfg::default()`.
fn corpus() -> Vec<Vec<String>> {
    let mut sets: Vec<Vec<String>> = [
        include_str!("golden/arith.c"),
        include_str!("golden/branch.c"),
        include_str!("golden/calls.c"),
        include_str!("golden/loop.c"),
        include_str!("golden/memory.c"),
        FIXTURE,
        compiler::faultinj::CAMPAIGN_SRC,
    ]
    .iter()
    .map(|s| vec![s.to_string()])
    .collect();
    sets.push(FIG1.iter().map(|s| s.to_string()).collect());
    let shaped = GenCfg {
        units: 3,
        fns_per_unit: 4,
        stmts_per_fn: 12,
        ..GenCfg::default()
    };
    for cfg in [shaped, GenCfg::default()] {
        sets.extend((0..48).map(|i| generate(i, &cfg).render()));
    }
    sets
}

/// Front-end and link one set of sources.
fn typed_and_linked(srcs: &[&str]) -> (Vec<clight::Program>, compcerto_core::symtab::SymbolTable) {
    let typed: Vec<clight::Program> = srcs
        .iter()
        .map(|s| front_end(s).unwrap_or_else(|e| panic!("{e}:\n{s}")))
        .collect();
    let refs: Vec<&clight::Program> = typed.iter().collect();
    let symtab = clight::build_symtab(&refs).expect("link set links");
    (typed, symtab)
}

/// The scheduler builds its item list from `t.functions` before any prefix
/// runs, so `unit_prefix` must keep every function, in order: `rtl_pre`
/// names `t.functions` one to one.
#[test]
fn unit_prefix_keeps_every_function_in_order() {
    let sets = corpus();
    assert_eq!(sets.len(), 8 + 2 * 48);
    for set in &sets {
        let srcs: Vec<&str> = set.iter().map(String::as_str).collect();
        let (typed, symtab) = typed_and_linked(&srcs);
        for opts in [CompilerOptions::default(), CompilerOptions::none()] {
            for t in &typed {
                let p = unit_prefix(t, &symtab, opts).expect("prefix compiles");
                let got: Vec<&str> = p
                    .rtl_pre
                    .functions
                    .iter()
                    .map(|f| f.name.as_str())
                    .collect();
                let want: Vec<&str> = t.functions.iter().map(|f| f.name.as_str()).collect();
                assert_eq!(got, want, "{srcs:?}");
            }
        }
    }
}

/// Two units that fail past the front end (hand-built: a negation at
/// `void` passes no type checker, and Cshmgen rejects it in the unit's
/// prefix) report the jobs-1 error at every pool width, although the pool
/// claims both prefixes at once. The resilient compile gives each unit its
/// own outcome: the two clean units compile as they do alone, and each
/// failing one fails with its own serial error, at every width.
#[test]
fn errors_past_the_front_end_are_jobs_invariant() {
    let srcs = [
        "int ok(int x) { return x; } int ok2(int x) { return x + 2; }",
        "int first(int x) { return x; } int bad1(int x) { return x + 1; }",
        "int bad2(int x) { return x - 1; }",
        "int after(int x) { return x * 2; }",
    ];
    let (mut typed, symtab) = typed_and_linked(&srcs);
    for u in [1, 2] {
        if let Some(f) = typed[u].functions.last_mut() {
            f.body = clight::Stmt::Return(Some(clight::Expr::Unop(
                clight::Unop::Neg,
                Box::new(clight::Expr::ConstInt(1)),
                clight::Ty::Void,
            )));
        }
    }
    for opts in [CompilerOptions::default(), CompilerOptions::validated()] {
        let serial = compile_typed_jobs(&typed, &symtab, opts, Jobs::N(1)).expect_err("must fail");
        assert!(
            matches!(serial, compiler::CompileError::Cshmgen(_)),
            "{serial:?}"
        );
        assert!(format!("{serial}").contains("`bad1`"), "{serial}");
        for jobs in [2, 4, 16] {
            for _ in 0..10 {
                let e = compile_typed_jobs(&typed, &symtab, opts, Jobs::N(jobs))
                    .expect_err("must fail");
                assert_eq!(format!("{e:?}"), format!("{serial:?}"), "jobs={jobs}");
            }
        }
        let clean = compile_typed_jobs(
            &[typed[0].clone(), typed[3].clone()],
            &symtab,
            opts,
            Jobs::N(1),
        )
        .expect("units 0 and 3 compile");
        let fails = |u: usize| {
            compile_typed_jobs(&typed[u..=u], &symtab, opts, Jobs::N(1))
                .expect_err("must fail")
                .to_string()
        };
        assert_eq!(fails(1), serial.to_string());
        let want = vec![
            format!("ok {}", fingerprint(&clean[0])),
            format!("failed at cshmgen: {}", fails(1)),
            format!("failed at cshmgen: {}", fails(2)),
            format!("ok {}", fingerprint(&clean[1])),
        ];
        let refs: Vec<&clight::Program> = typed.iter().collect();
        for jobs in [1, 2, 4, 16] {
            let got: Vec<String> = compile_typed_resilient(&refs, &symtab, opts, Jobs::N(jobs))
                .iter()
                .map(render)
                .collect();
            assert_eq!(got, want, "jobs={jobs}");
        }
    }
}

/// A resilient outcome: a clean unit's fingerprint, or its failure.
fn render(o: &UnitOutcome) -> String {
    match o {
        UnitOutcome::Ok(u) => format!("ok {}", fingerprint(u)),
        UnitOutcome::Failed { stage, error } => format!("failed at {stage}: {error}"),
        o => format!("unexpected {}", o.label()),
    }
}

/// Every artifact, finding and counter of a unit (the pass timings are
/// wall-clock and left out).
fn fingerprint(u: &CompiledUnit) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
        u.rtl,
        u.rtl_vprop_in,
        u.rtl_ndce_in,
        u.rtl_opt,
        u.ltl,
        u.linear,
        u.mach,
        u.asm,
        u.diagnostics,
        u.metrics.as_ref().map(|m| &m.counters),
    )
}

/// A unit that defines no function still gets one item (for its prefix)
/// and compiles identically at every pool width, and `ccomp-o`'s resilient
/// compile gives every unit the scheduler's artifacts, findings and
/// counters.
#[test]
fn units_without_functions_compile_identically() {
    let srcs = [
        "const int modulus = 9973; long table[8];",
        FIG1[0],
        "extern int mult(int, int);",
        FIG1[1],
    ];
    for opts in [
        CompilerOptions::default().with_metrics(),
        CompilerOptions::validated().with_metrics(),
    ] {
        let compile = |jobs| {
            let (units, _) = compile_all_jobs(&srcs, opts, jobs).expect("compiles");
            units.iter().map(fingerprint).collect::<Vec<_>>()
        };
        let resilient = |jobs| {
            let batch = compile_all_resilient(&srcs, opts, jobs);
            batch.outcomes.iter().map(render).collect::<Vec<_>>()
        };
        let serial = compile(Jobs::N(1));
        assert_eq!(serial.len(), 4);
        for jobs in [1, 3, 16] {
            let units = compile(Jobs::N(jobs));
            assert_eq!(serial, units, "jobs={jobs}");
            let want: Vec<String> = units.iter().map(|f| format!("ok {f}")).collect();
            assert_eq!(want, resilient(Jobs::N(jobs)), "jobs={jobs}");
        }
    }
}
