//! Regenerate the content of paper Fig. 5: the horizontal-composition rules,
//! exercised by a mutual-recursion workload whose rule firings are counted
//! by instrumenting the composite LTS.

use bench::{fail, FIG1_A, FIG1_B};
use compcerto_core::hcomp::HComp;
use compcerto_core::lts::{Lts, Step};
use compiler::{c_query, compile_all, CompilerOptions};
use mem::Val;

fn main() {
    println!("Fig. 5: horizontal composition rules (cf. paper Fig. 5)");
    let mutual = "
        extern int is_odd(int);
        int is_even(int n) { int r; if (n == 0) { return 1; } r = is_odd(n - 1); return r; }";
    let mutual2 = "
        extern int is_even(int);
        extern int probe(int);
        int is_odd(int n) { int r; int p; if (n == 0) { return 0; } p = probe(n); r = is_even(n - 1); return r; }";
    let (units, tbl) = compile_all(&[mutual, mutual2], CompilerOptions::default())
        .unwrap_or_else(|e| fail(format!("mutual-recursion pair does not compile: {e:?}")));
    let comp = HComp::new(
        units[0].clight_sem(&tbl).with_label("even"),
        units[1].clight_sem(&tbl).with_label("odd"),
    );

    for n in [0, 7, 12] {
        let q = c_query(&tbl, &units[0], "is_even", vec![Val::Int(n)]);
        // Drive manually, counting rule firings by activation-depth changes.
        let mut s = comp
            .initial(&q)
            .unwrap_or_else(|e| fail(format!("is_even({n}) query refused: {e}")));
        let (mut pushes, mut pops, mut escapes, mut max_depth) = (0u32, 0u32, 0u32, 0usize);
        let mut last_depth = s.depth();
        let result = loop {
            match comp.step(&s) {
                Step::Internal(next, _) => {
                    let d = next.depth();
                    if d > last_depth {
                        pushes += 1; // rule push
                    }
                    if d < last_depth {
                        pops += 1; // rule pop
                    }
                    max_depth = max_depth.max(d);
                    last_depth = d;
                    s = next;
                }
                Step::External(m) => {
                    // rule x∘ then x•: probe escapes to the environment.
                    escapes += 1;
                    let ans = compcerto_core::iface::CReply {
                        retval: m.args[0],
                        mem: m.mem.clone(),
                    };
                    comp.resume(&mut s, ans)
                        .unwrap_or_else(|e| fail(format!("x• does not resume: {e}")));
                }
                Step::Final(r) => break r, // rule i•
                Step::Stuck(x) => fail(format!("stuck: {x}")),
            }
        };
        println!(
            "is_even({n}) = {:<8} push: {pushes:>3}  pop: {pops:>3}  x∘/x•: {escapes:>3}  max depth: {max_depth:>3}",
            result.retval.to_string()
        );
    }
    println!();
    println!("rules exercised: i∘ (dispatch), run (internal), push/pop (mutual");
    println!("recursion through the activation stack), x∘/x• (environment escape),");
    println!("i• (final answer) — Def. 3.2's (S1+S2)* stack in action.");

    // Fig. 1's two units for flavor: sqr ⊕ mult.
    let (units, tbl) = compile_all(&[FIG1_B, FIG1_A], CompilerOptions::default())
        .unwrap_or_else(|e| fail(format!("Fig. 1 units do not compile: {e:?}")));
    let comp = HComp::new(units[0].clight_sem(&tbl), units[1].clight_sem(&tbl));
    let q = c_query(&tbl, &units[0], "sqr", vec![Val::Int(3)]);
    let r = compcerto_core::lts::run(&comp, &q, &mut |_m| None, 10_000)
        .into_answer()
        .unwrap_or_else(|e| fail(format!("sqr(3) does not complete: {e}")));
    println!("\npaper Eqn. (2): sqr(3) · mult(3,3) · 9 · {}", r.retval);
}
