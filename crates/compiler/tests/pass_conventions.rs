//! Per-pass differential checks at the *exact* conventions of paper Table 3,
//! built compositionally from the convention combinators (rather than the
//! hand-tailored checks inside each pass's unit tests).

use compcerto_core::cc::Cl;
use compcerto_core::cklr::{CklrC, Ext, Inj, Injp};
use compcerto_core::conv::{ComposeConv, IdConv};
use compcerto_core::iface::{CQuery, CReply, C};
use compcerto_core::invariants::Wt;
use compcerto_core::sim::{check_fwd_sim, check_fwd_sim_env, EnvMode};
use compcerto_gen::generate::gen_queries;
use compcerto_gen::{generate, GenCfg};
use compiler::{c_query, compile_all, CompilerOptions};
use mem::Val;

/// A uniform environment: integer arguments are incremented; a pointer
/// argument is dereferenced as two longs and summed (matching
/// `ExtLib::demo`'s `sum2`). Reading through its own level's memory is what
/// makes the oracle *uniform* across levels (paper §4.5).
fn env(m: &CQuery) -> Option<CReply> {
    let retval = match m.args.first() {
        Some(p @ Val::Ptr(_, _)) => {
            let a = m.mem.loadv(mem::Chunk::I64, *p).unwrap_or(Val::Undef);
            let b = m
                .mem
                .loadv(mem::Chunk::I64, p.add(Val::Long(8)))
                .unwrap_or(Val::Undef);
            a.add(b)
        }
        Some(v) => v.add(Val::Int(1)),
        None => Val::Int(0),
    };
    Some(CReply {
        retval,
        mem: m.mem.clone(),
    })
}

/// `SimplLocals : injp ↠ inj` — checked with the CKLR-promoted conventions
/// of Table 3 row 1 (the asymmetric incoming/outgoing pair of paper §4.5).
#[test]
fn simpllocals_at_injp_inj() {
    let src = "
        extern int inc(int);
        int entry(int a) {
            int kept[2]; int lifted; int r;
            kept[0] = a; kept[1] = a * 2;
            lifted = kept[0] + kept[1];
            r = inc(lifted);
            return r + kept[1];
        }";
    let (units, tbl) = compile_all(&[src], CompilerOptions::default()).unwrap();
    let u = &units[0];
    let l1 = clight::ClightSem::new(u.clight.clone(), tbl.clone());
    let l2 = clight::ClightSem::new(u.clight_simpl.clone(), tbl.clone());
    let q = c_query(&tbl, u, "entry", vec![Val::Int(4)]);
    // Dual environments: injection conventions have no canonical reply
    // marshaling (the two sides' memories differ structurally), so the
    // checker runs one oracle per side and verifies their replies related.
    let mut env1 = env;
    let mut env2 = env;
    let report = check_fwd_sim_env(
        &l1,
        &l2,
        &CklrC {
            k: Injp::new(tbl.len() as u32),
        }, // outgoing: protected injection
        &CklrC {
            k: Inj::new(tbl.len() as u32),
        }, // incoming: plain injection
        &q,
        EnvMode::Dual(&mut env1, &mut env2),
        1_000_000,
    )
    .expect("SimplLocals simulation at injp ↠ inj");
    assert_eq!(report.external_calls, 1);
}

/// `Cshmgen : id ↠ id`.
#[test]
fn cshmgen_at_id() {
    let src = "
        extern int inc(int);
        int entry(int a) { int x; x = inc(a * 3); return x - a; }";
    let (units, tbl) = compile_all(&[src], CompilerOptions::default()).unwrap();
    let u = &units[0];
    let l1 = clight::ClightSem::new(u.clight_simpl.clone(), tbl.clone());
    let l2 = minor::CsharpSem::new(u.csharp.clone(), tbl.clone());
    let q = c_query(&tbl, u, "entry", vec![Val::Int(6)]);
    check_fwd_sim(
        &l1,
        &l2,
        &IdConv::<C>::new(),
        &IdConv::<C>::new(),
        &q,
        &mut env,
        1_000_000,
    )
    .expect("Cshmgen simulation at id ↠ id");
}

/// `Selection : wt·ext ↠ wt·ext` — the composed invariant-plus-CKLR
/// convention of Table 3, built with [`ComposeConv`].
#[test]
fn selection_at_wt_ext() {
    let src = "
        extern int inc(int);
        int entry(int a) {
            int x; int r;
            x = a * 1 + 0;
            r = inc(x * 8);
            return r / 2;
        }";
    let (units, tbl) = compile_all(&[src], CompilerOptions::default()).unwrap();
    let u = &units[0];
    let l1 = minor::CminorSem::new(u.cminor.clone(), tbl.clone());
    let l2 = minor::CminorSelSem::new(u.cminorsel.clone(), tbl.clone());
    let q = c_query(&tbl, u, "entry", vec![Val::Int(9)]);
    let wt_ext = ComposeConv::new(Wt, CklrC { k: Ext });
    let report = check_fwd_sim(&l1, &l2, &wt_ext, &wt_ext, &q, &mut env, 1_000_000)
        .expect("Selection simulation at wt·ext ↠ wt·ext");
    assert_eq!(report.external_calls, 1);
}

/// `RTLgen : ext ↠ ext`.
#[test]
fn rtlgen_at_ext() {
    let src = "
        extern int inc(int);
        int entry(int n) {
            int s; int i; int r;
            s = 0;
            for (i = 0; i < n; i = i + 1) { s = s + i; }
            r = inc(s);
            return r;
        }";
    let (units, tbl) = compile_all(&[src], CompilerOptions::default()).unwrap();
    let u = &units[0];
    let l1 = minor::CminorSelSem::new(u.cminorsel.clone(), tbl.clone());
    let l2 = rtl::RtlSem::new(u.rtl.clone(), tbl.clone());
    let q = c_query(&tbl, u, "entry", vec![Val::Int(7)]);
    let ext = CklrC { k: Ext };
    check_fwd_sim(&l1, &l2, &ext, &ext, &q, &mut env, 1_000_000)
        .expect("RTLgen simulation at ext ↠ ext");
}

/// `Allocation : wt·ext·CL ↠ wt·ext·CL` — the full three-factor convention
/// of Table 3 (invariant · CKLR · structural), where the middle interface
/// changes from values to locations.
#[test]
fn allocation_at_wt_ext_cl() {
    let src = "
        int entry(int a, int b) {
            int c; int d;
            c = a * b + 3;
            d = c - a;
            return c + d;
        }";
    let (units, tbl) = compile_all(&[src], CompilerOptions::default()).unwrap();
    let u = &units[0];
    let l1 = rtl::RtlSem::new(u.rtl_opt.clone(), tbl.clone());
    let l2 = backend::LtlSem::new(u.ltl.clone(), tbl.clone());
    let q = c_query(&tbl, u, "entry", vec![Val::Int(5), Val::Int(6)]);
    let conv = ComposeConv::new(Wt, ComposeConv::new(CklrC { k: Ext }, Cl));
    check_fwd_sim(&l1, &l2, &conv, &conv, &q, &mut env, 1_000_000)
        .expect("Allocation simulation at wt·ext·CL ↠ wt·ext·CL");
}

/// The whole front end composed: Clight (pre-SimplLocals) down to optimized
/// RTL under `injp ↠ inj` (the vertical composition of all the C-level
/// passes, fused per Lemma 5.3 and App. B).
#[test]
fn front_end_composed_at_injp_inj() {
    for seed in 5150..5153 {
        let prog = generate(seed, &GenCfg::single_unit());
        let (_, entry) = prog.entry();
        let src = prog.to_annotated_source();
        let (units, tbl) = compile_all(&[&prog.render()[0]], CompilerOptions::default()).unwrap();
        let u = &units[0];
        let l1 = clight::ClightSem::new(u.clight.clone(), tbl.clone());
        let l2 = rtl::RtlSem::new(u.rtl_opt.clone(), tbl.clone());
        for args in gen_queries(prog.seed, entry.nparams as usize, 2) {
            let args: Vec<Val> = args.into_iter().map(Val::Int).collect();
            let q = c_query(&tbl, u, &entry.name, args.clone());
            let mut env1 = env;
            let mut env2 = env;
            check_fwd_sim_env(
                &l1,
                &l2,
                &CklrC {
                    k: Injp::new(tbl.len() as u32),
                },
                &CklrC {
                    k: Inj::new(tbl.len() as u32),
                },
                &q,
                EnvMode::Dual(&mut env1, &mut env2),
                2_000_000,
            )
            .unwrap_or_else(|e| panic!("front end, args {args:?}: {e}\n{src}"));
        }
    }
}
