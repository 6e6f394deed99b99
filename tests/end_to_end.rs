//! Workspace-level integration tests: the theorems of the paper checked
//! across crates on hand-written and randomly generated programs.

use compcerto::compiler::{
    c_query, check_cor39, check_thm35, check_thm38, compile_all, CompilerOptions, ExtLib,
};
use compcerto::core::cc::Ca;
use compcerto::core::conv::SimConv;
use compcerto::core::lts::run;
use compcerto::mem::Val;
use compcerto_gen::generate::gen_queries;
use compcerto_gen::{generate, GenCfg};

/// A realistic multi-function program: fixed-point arithmetic routines.
const FIXED_POINT: &str = "
    const int scale = 1000;

    int fx_mul(int a, int b) {
        long wide;
        wide = (long) a * (long) b;
        return (int) (wide / 1000L);
    }

    int fx_div(int a, int b) {
        long wide;
        if (b == 0) { return 0; }
        wide = (long) a * 1000L;
        return (int) (wide / (long) b);
    }

    int fx_poly(int x) {
        int x2; int x3; int r;
        x2 = fx_mul(x, x);
        x3 = fx_mul(x2, x);
        r = x3 - 2 * x2 + 3 * x - 500;
        return r;
    }
";

#[test]
fn thm38_on_fixed_point_arithmetic() {
    let (units, tbl) = compile_all(&[FIXED_POINT], CompilerOptions::default()).unwrap();
    let lib = ExtLib::demo(tbl.clone());
    for x in [0, 1500, -2750, 10_000] {
        let q = c_query(&tbl, &units[0], "fx_poly", vec![Val::Int(x)]);
        check_thm38(&units[0], &tbl, &lib, &q).unwrap_or_else(|e| panic!("fx_poly({x}): {e}"));
    }
}

#[test]
fn thm38_holds_with_and_without_optimizations() {
    // Paper §3.4: the convention C is insensitive to the optional passes.
    let src = "
        const int k = 6;
        int f(int a) {
            int x; int y;
            x = a * 1 + 0;
            y = x * k;
            return y / 2 + x % 3;
        }";
    for opts in [CompilerOptions::default(), CompilerOptions::none()] {
        let (units, tbl) = compile_all(&[src], opts).unwrap();
        let lib = ExtLib::demo(tbl.clone());
        let q = c_query(&tbl, &units[0], "f", vec![Val::Int(9)]);
        check_thm38(&units[0], &tbl, &lib, &q).unwrap();
    }
}

#[test]
fn separate_compilation_three_units() {
    // Cor. 3.9 flavor with three translation units linked pairwise.
    let m1 = "extern int g(int); int f(int x) { int r; r = g(x + 1); return r * 2; }";
    let m2 = "extern int h(int); int g(int x) { int r; r = h(x); return r + 10; }";
    let m3 = "int h(int x) { return x * x; }";
    let (units, tbl) = compile_all(&[m1, m2, m3], CompilerOptions::default()).unwrap();
    let lib = ExtLib::demo(tbl.clone());

    // Source: f ⊕ (g ⊕ h) computed by running the Clight composition.
    let q = c_query(&tbl, &units[0], "f", vec![Val::Int(3)]);
    let composed = compcerto::core::hcomp::HComp::new(
        units[0].clight_sem(&tbl),
        compcerto::core::hcomp::HComp::new(units[1].clight_sem(&tbl), units[2].clight_sem(&tbl)),
    );
    let r = run(&composed, &q, &mut |_q| None, 1_000_000).expect_complete();
    // f(3) = 2*(g(4)) = 2*(h(4)+10) = 2*26 = 52.
    assert_eq!(r.retval, Val::Int(52));

    // Target: link all three Asm units and check against the source pair
    // composition (unit 0 vs units 1+2 pre-linked).
    let linked12 = compcerto::backend::link_asm(&units[1].asm, &units[2].asm).unwrap();
    let merged_unit = {
        let mut u = units[1].clone();
        u.asm = linked12;
        u
    };
    // Cor 3.9 checker composes Clight(0) ⊕ Clight(1+2's clight)… but unit 1's
    // clight only holds g; link the Clight programs too.
    let linked_clight = compcerto::clight::link(&units[1].clight, &units[2].clight).unwrap();
    let mut merged_unit = merged_unit;
    merged_unit.clight = linked_clight;
    check_cor39(&units[0], &merged_unit, &tbl, &lib, &q).expect("three-unit Cor 3.9");
}

#[test]
fn thm35_chain_of_asm_links() {
    let a = "extern int b_fn(int); int a_fn(int x) { int r; r = b_fn(x); return r + 1; }";
    let b = "int b_fn(int x) { return x * 3; }";
    let (units, tbl) = compile_all(&[a, b], CompilerOptions::default()).unwrap();
    let lib = ExtLib::demo(tbl.clone());
    let q = c_query(&tbl, &units[0], "a_fn", vec![Val::Int(5)]);
    let (_, qa) = Ca::new(tbl.len() as u32).transport_query(&q).unwrap();
    check_thm35(&units[0].asm, &units[1].asm, &tbl, &lib, &qa).expect("Thm 3.5");
}

#[test]
fn random_program_sweep() {
    // The headline sweep at integration scale: generated programs × queries,
    // every execution checked against the end-to-end convention.
    let cfg = GenCfg::single_unit();
    for round in 0..6 {
        let prog = generate(0xC011 + round, &cfg);
        let (_, entry) = prog.entry();
        let src = prog.to_annotated_source();
        let (units, tbl) = compile_all(&[&prog.render()[0]], CompilerOptions::default())
            .unwrap_or_else(|e| panic!("round {round} does not compile: {e}\n{src}"));
        let lib = ExtLib::demo(tbl.clone());
        for args in gen_queries(prog.seed, entry.nparams as usize, 2) {
            let args: Vec<Val> = args.into_iter().map(Val::Int).collect();
            let q = c_query(&tbl, &units[0], &entry.name, args.clone());
            check_thm38(&units[0], &tbl, &lib, &q)
                .unwrap_or_else(|e| panic!("round {round} args {args:?}: {e}\n{src}"));
        }
    }
}

#[test]
fn nic_scenario_is_reachable_from_the_workspace_root() {
    let sc = compcerto::nic::build().unwrap();
    let mut net = compcerto::nic::LoopbackNet::new(|f| f ^ 0x5A5A);
    let got = sc.run_source(3, &mut net);
    assert_eq!(got, (6 ^ 0x5A5A) + 1);
    sc.check_fig7(3, |f| f ^ 0x5A5A).expect("Fig. 7");
}
