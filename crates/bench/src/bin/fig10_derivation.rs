//! Regenerate paper Fig. 10: the overall structure of the proof of Thm 3.8,
//! as the machine-checked rewriting derivation from the composed per-pass
//! conventions to `C = R* · wt · CA · vainj`.

use bench::fail;
use compcerto_core::algebra::{derive, goal_convention};
use compiler::registry::{composed_incoming, composed_outgoing};

fn main() {
    println!("Fig. 10: structure of the Thm 3.8 proof (cf. paper Fig. 10)");
    println!();
    println!("goal convention C = {}", goal_convention());
    println!();

    for (side, chain) in [
        ("incoming", composed_incoming()),
        ("outgoing", composed_outgoing()),
    ] {
        println!("=== {side} side ===");
        println!("composed per-pass conventions (Table 3):");
        println!("  {chain}");
        let d = derive(chain).unwrap_or_else(|e| fail(format!("{side} derivation: {e:?}")));
        println!("derivation ({} steps):", d.steps.len());
        print!("{}", d.render());
        if let Err(e) = d.verify() {
            fail(format!("{side} derivation step unjustified: {e:?}"));
        }
        println!("verified ✓  (final: {})", d.current());
        println!();
    }
    println!("Each [law] line corresponds to a tile of the paper's Fig. 10 string");
    println!("diagram: Lemma 5.4 tiles move CKLRs through CL/LM/MA, Lemma 5.3 tiles");
    println!("fuse them, Thm 5.6 tiles absorb the C-level residue into R*.");
}
