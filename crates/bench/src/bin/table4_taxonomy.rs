//! Regenerate paper Table 4: the taxonomy of CompCert extensions in terms of
//! their game models, with each semantic-model shape instantiated in this
//! framework to show it is expressible.

use backend::AsmSem;
use bench::fixture;
use compcerto_core::iface::{LanguageInterface, A, C, W};
use compcerto_core::lts::Lts;

fn main() {
    let (unit, tbl) = fixture();
    println!("Table 4: Taxonomy of CompCert extensions (cf. paper Table 4)");
    println!("{:-<76}", "");
    println!(
        "{:<24}{:<28}Expressible here as",
        "Variant", "Semantic model"
    );
    println!("{:-<76}", "");
    println!(
        "{:<24}{:<28}closed runner over {} (exit status)",
        "(Sep)CompCert",
        "χ: 1↠C ⊢ 1↠W",
        W::NAME
    );
    println!(
        "{:<24}{:<28}per-layer queries against a fixed χ (ExtLib)",
        "CompCertX", "χ: 1↠C×A ⊢ 1↠C×A"
    );
    println!(
        "{:<24}{:<28}ClightSem/RtlSem (interface {})",
        "Comp. CompCert",
        "C ↠ C",
        C::NAME
    );
    println!(
        "{:<24}{:<28}paired C/A oracles (ExtLib::answer_c/answer_a)",
        "CompCertM", "C×A ↠ C×A"
    );
    println!(
        "{:<24}{:<28}any Lts<I = O = X>; see below",
        "CompCertO", "A ↠ A  (A ∈ L ⊇ {C, A})"
    );
    println!("{:-<76}", "");

    // Demonstrate the CompCertO row: the same framework hosts components at
    // several interfaces simultaneously.
    let clight = unit.clight_sem(&tbl);
    let asm: AsmSem = unit.asm_sem(&tbl);
    println!("live instantiations in this build:");
    println!("  {:<22} : {} ↠ {}", clight.name(), C::NAME, C::NAME);
    println!("  {:<22} : {} ↠ {}", asm.name(), A::NAME, A::NAME);
    println!("  σ_NIC                  : Net ↠ IO   (crates/nic)");
    println!("  σ_io                   : IO ↠ C    (crates/nic)");
    println!();
    println!("The parameterized interface (paper's `A ∈ L`) is the LanguageInterface");
    println!("trait: adding Net and IO required no change to the framework.");
}
