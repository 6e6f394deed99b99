//! Worker-pool determinism: the compiler's output must be byte-identical
//! for every `--jobs` setting. The pool dispatches by atomic index and
//! reassembles results in input order, so parallelism is unobservable in
//! the artifacts — this suite pins that contract down on pretty-printed
//! Asm-O, on the fault-injection campaign report, and on the error path.

use compiler::{
    compile_all_jobs, run_campaign, CampaignCfg, CompilerOptions, Jobs, StagePrograms,
    WorkloadCfg, WorkloadGen,
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
    // Generated programs all export `entry`, so compile them one unit at
    // a time — the fan-out under test here is the *intra-call* front-end /
    // back-end one.
    let mut gen = WorkloadGen::new(97);
    let cfg = WorkloadCfg::default();
    for _ in 0..6 {
        let (src, _arity) = gen.gen_program(&cfg);
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
    let e1 = compile_all_jobs(&srcs, CompilerOptions::default(), Jobs::N(1))
        .expect_err("must fail");
    let e4 = compile_all_jobs(&srcs, CompilerOptions::default(), Jobs::N(4))
        .expect_err("must fail");
    assert_eq!(format!("{e1:?}"), format!("{e4:?}"));
}
