//! Regenerate the content of paper Fig. 3: vertical composition of
//! simulations. Two adjacent pass simulations are checked individually, then
//! the composite (source of the first against target of the second) is
//! checked under the *composed* convention — Def. 3.6 / Thm. 3.7 in action.

use bench::{fail, FIXTURE};
use compcerto_core::cklr::{CklrC, Ext};
use compcerto_core::conv::ComposeConv;
use compcerto_core::iface::{CQuery, CReply};
use compcerto_core::sim::check_fwd_sim;
use compiler::{c_query, compile_all, CompilerOptions};
use mem::Val;
use minor::{CminorSelSem, CminorSem};
use rtl::RtlSem;

fn main() {
    // Build three adjacent levels: Cminor --Selection--> CminorSel
    // --RTLgen--> RTL.
    let (units, tbl) = compile_all(&[FIXTURE], CompilerOptions::default())
        .unwrap_or_else(|e| fail(format!("fixture does not compile: {e:?}")));
    let u = &units[0];
    let l1 = CminorSem::new(u.cminor.clone(), tbl.clone());
    let l2 = CminorSelSem::new(u.cminorsel.clone(), tbl.clone());
    let l3 = RtlSem::new(u.rtl.clone(), tbl.clone());
    let q = c_query(&tbl, u, "churn", vec![Val::Int(5), Val::Int(20)]);
    let ext = CklrC { k: Ext };
    let mut env = |m: &CQuery| {
        Some(CReply {
            retval: m.args.first().copied().unwrap_or(Val::Int(0)),
            mem: m.mem.clone(),
        })
    };

    println!("Fig. 3: vertical composition of simulations (cf. paper Fig. 3)");
    println!();
    println!("L1 = Cminor(churn)   L2 = CminorSel(..)   L3 = RTL(..)");
    println!("R = S = ext (both passes use `ext`-flavoured conventions)");
    println!();

    // Individual simulations (the premises of Fig. 3).
    let r12 = check_fwd_sim(&l1, &l2, &ext, &ext, &q, &mut env, 5_000_000)
        .unwrap_or_else(|e| fail(format!("L1 ≤ext L2 (Selection): {e}")));
    println!(
        "premise 1: Cminor ≤_ext CminorSel    ✓  ({} / {} steps)",
        r12.source_steps, r12.target_steps
    );
    let r23 = check_fwd_sim(&l2, &l3, &ext, &ext, &q, &mut env, 5_000_000)
        .unwrap_or_else(|e| fail(format!("L2 ≤ext L3 (RTLgen): {e}")));
    println!(
        "premise 2: CminorSel ≤_ext RTL       ✓  ({} / {} steps)",
        r23.source_steps, r23.target_steps
    );

    // The composite, under the composed convention ext · ext (Def. 3.6).
    let composed = ComposeConv::new(CklrC { k: Ext }, CklrC { k: Ext });
    let r13 = check_fwd_sim(&l1, &l3, &composed, &composed, &q, &mut env, 5_000_000)
        .unwrap_or_else(|e| fail(format!("L1 ≤ext·ext L3 (vertical composition): {e}")));
    println!(
        "conclusion: Cminor ≤_(ext·ext) RTL   ✓  ({} / {} steps)",
        r13.source_steps, r13.target_steps
    );
    println!();
    println!("and by Lemma 5.3 (ext · ext ≡ ext) the composite also checks at ext:");
    let r13e = check_fwd_sim(&l1, &l3, &ext, &ext, &q, &mut env, 5_000_000)
        .unwrap_or_else(|e| fail(format!("L1 ≤ext L3 after fusing the convention: {e}")));
    println!(
        "            Cminor ≤_ext RTL         ✓  ({} / {} steps)",
        r13e.source_steps, r13e.target_steps
    );
}
