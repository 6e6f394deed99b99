//! The separate-compilation experiment: Corollary 3.9 —
//! `Clight(M1) ⊕ … ⊕ Clight(Mn) ≤_{C↠C} Asm(M.s)` — and its Thm 3.5
//! ingredient, checked over multi-unit workloads with cross-unit calls.

use bench::fail;
use compcerto_core::cc::Ca;
use compcerto_core::conv::SimConv;
use compiler::{c_query, check_cor39, check_thm35, compile_all, CompilerOptions, ExtLib};
use mem::Val;

/// Generate a two-unit program pair where unit 0 calls into unit 1 `depth`
/// levels deep.
fn make_pair(depth: usize) -> (String, String) {
    let mut u1 = String::from("extern int leaf(int);\n");
    let mut prev = "leaf".to_string();
    for i in 0..depth {
        u1.push_str(&format!(
            "int lvl{i}(int x) {{ int r; r = {prev}(x + {i}); return r + 1; }}\n"
        ));
        prev = format!("lvl{i}");
    }
    u1.push_str(&format!(
        "int top(int x) {{ int r; r = {prev}(x); return r * 2; }}\n"
    ));
    let u2 = "int leaf(int x) { return x * x; }".to_string();
    (u1, u2)
}

fn main() {
    println!("Cor 3.9 separate-compilation sweep (cf. paper §3.4)");
    println!("{:-<66}", "");
    println!(
        "{:<12}{:>10}{:>12}{:>14}{:>12}",
        "call depth", "queries", "Cor 3.9", "Thm 3.5", "crossings"
    );
    println!("{:-<66}", "");
    for depth in [0, 2, 5, 9] {
        let (src1, src2) = make_pair(depth);
        let (units, tbl) = compile_all(&[&src1, &src2], CompilerOptions::default())
            .unwrap_or_else(|e| fail(format!("depth {depth}: pair does not compile: {e:?}")));
        let lib = ExtLib::demo(tbl.clone());
        let mut crossings = 0usize;
        let queries = 4;
        for x in [0, 3, -7, 11] {
            let q = c_query(&tbl, &units[0], "top", vec![Val::Int(x)]);
            let report = check_cor39(&units[0], &units[1], &tbl, &lib, &q)
                .unwrap_or_else(|e| fail(format!("depth {depth}, top({x}): {e}")));
            crossings += report.external_calls;
            let (_, qa) = Ca::new(tbl.len() as u32)
                .transport_query(&q)
                .unwrap_or_else(|| fail(format!("depth {depth}: C query does not transport")));
            check_thm35(&units[0].asm, &units[1].asm, &tbl, &lib, &qa)
                .unwrap_or_else(|e| fail(format!("depth {depth} thm35: {e}")));
        }
        println!(
            "{depth:<12}{queries:>10}{:>12}{:>14}{crossings:>12}",
            "✓", "✓"
        );
    }
    println!("{:-<66}", "");
    println!("Cor 3.9: the ⊕-composition of separately-compiled sources is simulated");
    println!("by the syntactically linked assembly under the uniform convention C;");
    println!("Thm 3.5: semantic composition of Asm components = syntactic linking.");
    println!("(crossings = environment-visible boundaries; cross-unit calls resolve");
    println!("internally in both the ⊕-composite and the linked program.)");
}
