//! Regenerate paper Table 1: the summary of notations, with each row bound
//! to the Rust artifact implementing it.

fn main() {
    println!("Table 1: Summary of notations (cf. paper Table 1)");
    println!("{:-<92}", "");
    println!("{:<26}{:<30}Rust artifact", "Notation", "Example here");
    println!("{:-<92}", "");
    let rows: [(&str, &str, &str); 10] = [
        ("R ∈ R(S1,S2)", "≤v", "mem::Val::lessdef"),
        (
            "R ∈ R_W(S1,S2)",
            "↩→m",
            "mem::mem_inject (Kripke world = MemInj)",
        ),
        ("w ⊩ R", "f ⊩ v1 ↩→v v2", "mem::val_inject(&f, &v1, &v2)"),
        (
            "R ∈ CKLR",
            "injp",
            "compcerto_core::cklr::{Ext, Inj, Injp, VaExt, VaInj}",
        ),
        (
            "A, B, C",
            "C, A, 1",
            "compcerto_core::iface::{C, A, One} (LanguageInterface)",
        ),
        ("R : A1 ⇔ A2", "CL", "compcerto_core::cc::Cl (SimConv)"),
        ("L : A ↠ B", "Clight(p)", "clight::ClightSem (Lts)"),
        (
            "L1 ⊕ L2",
            "Clight(p1) ⊕ Clight(p2)",
            "compcerto_core::hcomp::HComp",
        ),
        (
            "L1 ∘ L2",
            "σ_drv ∘ σ_io ∘ σ_NIC",
            "compcerto_core::seqcomp::SeqComp",
        ),
        (
            "L1 ≤_{R↠S} L2",
            "Thm 3.8",
            "compcerto_core::sim::check_fwd_sim (differential check)",
        ),
    ];
    for (n, e, a) in rows {
        println!("{n:<26}{e:<30}{a}");
    }
    println!();
    println!("In Coq these are definitions and theorems; here each is an executable");
    println!("artifact whose laws are exercised by the test suites (DESIGN.md §1).");
}
