//! CKLR laws (paper Fig. 8) on *generated* memory states: seeded scripts of
//! allocations and stores are instantiated at several injection offsets at
//! once, giving nontrivially-related `(m1, f, m2)` triples on which the
//! compose / store / alloc commutation laws of `mem::inject` and
//! `mem::extends` are checked directly.
//!
//! Unlike `cklr_laws.rs` (which needs the unvendored `proptest` crate and is
//! therefore skipped offline), this file always runs: the fixed-seed driver
//! sweeps a deterministic block of seeds through every law, so the offline
//! build still exercises the Fig. 8 obligations on hundreds of distinct
//! states. When the `proptest` feature *is* enabled (see the note in
//! `Cargo.toml`), the same law-checkers are additionally driven by
//! arbitrary seeds.
//!
//! The script/instantiate design mirrors the difftest generator: a law
//! violation reports its seed, and re-running that seed reproduces the exact
//! memory states.

use mem::{extends, mem_inject, val_inject, BlockId, Chunk, Mem, MemInj, Val};

// ---------------------------------------------------------------------------
// Seeded randomness
// ---------------------------------------------------------------------------

/// SplitMix64, inlined: `mem` sits below `compcerto-core` in the crate DAG,
/// so it cannot use `compcerto_core::rng` without a cycle. Same constants,
/// same stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

// ---------------------------------------------------------------------------
// Memory-state scripts
// ---------------------------------------------------------------------------

/// A stored value, symbolically: pointers name the *script* block they point
/// into, so instantiation at different injection offsets produces
/// correctly-shifted pointers on each side of the relation.
#[derive(Clone, Copy, Debug)]
enum SVal {
    Int(i32),
    Long(i64),
    PtrTo(usize, i64),
}

/// A seeded script of allocations and stores. Instantiating the same script
/// at different per-block deltas yields memories related by the injection
/// `{ b ↦ (b, delta2[b] - delta1[b]) }` — by construction, which the first
/// law below re-checks through `mem_inject` itself.
struct Script {
    sizes: Vec<i64>,
    stores: Vec<(Chunk, usize, i64, SVal)>,
}

fn gen_script(seed: u64) -> Script {
    let mut rng = Rng::new(seed);
    let nblocks = 1 + rng.below(5) as usize;
    let sizes: Vec<i64> = (0..nblocks)
        .map(|_| 8 * (1 + rng.below(8) as i64))
        .collect();
    let nstores = rng.below(16) as usize;
    let stores = (0..nstores)
        .map(|_| {
            let b = rng.below(nblocks as u64) as usize;
            let ofs = 8 * rng.below((sizes[b] / 8) as u64) as i64;
            match rng.below(4) {
                0 => (Chunk::I32, b, ofs, SVal::Int(rng.next_u64() as i32)),
                1 => (Chunk::I64, b, ofs, SVal::Long(rng.next_u64() as i64)),
                2 => {
                    let tb = rng.below(nblocks as u64) as usize;
                    let tofs = 8 * rng.below((sizes[tb] / 8) as u64) as i64;
                    (Chunk::Ptr, b, ofs, SVal::PtrTo(tb, tofs))
                }
                _ => (Chunk::Any64, b, ofs, SVal::Long(rng.next_u64() as i64)),
            }
        })
        .collect();
    Script { sizes, stores }
}

/// Instantiate a script with a per-block injection delta: block `i` becomes
/// `[0, size_i + delta_i)` and every access shifts by `delta_i`. Deltas are
/// multiples of 8, so alignment is preserved.
fn instantiate(script: &Script, deltas: &[i64]) -> Mem {
    let mut m = Mem::new();
    for (i, &sz) in script.sizes.iter().enumerate() {
        m.alloc(0, sz + deltas[i]);
    }
    for &(c, b, ofs, sv) in &script.stores {
        let v = match sv {
            SVal::Int(k) => Val::Int(k),
            SVal::Long(k) => Val::Long(k),
            SVal::PtrTo(j, o) => Val::Ptr(j as BlockId, o + deltas[j]),
        };
        m.store(c, b as BlockId, ofs + deltas[b], v)
            .expect("script stores are in-bounds and aligned by construction");
    }
    m
}

/// The injection between two instantiations of the same script.
fn inj_between(script: &Script, from: &[i64], to: &[i64]) -> MemInj {
    let mut f = MemInj::new();
    for i in 0..script.sizes.len() {
        f.insert(i as BlockId, i as BlockId, to[i] - from[i]);
    }
    f
}

/// Per-block deltas for the "middle" and "far" instantiations of a seed.
fn deltas(rng: &mut Rng, n: usize) -> Vec<i64> {
    (0..n).map(|_| 8 * rng.below(4) as i64).collect()
}

// ---------------------------------------------------------------------------
// The law checkers (pure functions of the seed, shared by the fixed-seed
// driver and the proptest harness)
// ---------------------------------------------------------------------------

/// Fig. 8 / Lemma 5.3 vertical composition: if `f ⊩ m1 ↩→ m2` and
/// `g ⊩ m2 ↩→ m3` then `f∘g ⊩ m1 ↩→ m3` — on states where all three
/// relations are nontrivial (distinct offsets, shifted pointers).
fn compose_law(seed: u64) {
    let script = gen_script(seed);
    let mut rng = Rng::new(seed ^ 0x63_6f6d_706f_7365);
    let d1 = vec![0i64; script.sizes.len()];
    let d2 = deltas(&mut rng, script.sizes.len());
    let d3: Vec<i64> = d2
        .iter()
        .zip(deltas(&mut rng, script.sizes.len()))
        .map(|(a, b)| a + b)
        .collect();
    let (m1, m2, m3) = (
        instantiate(&script, &d1),
        instantiate(&script, &d2),
        instantiate(&script, &d3),
    );
    let f = inj_between(&script, &d1, &d2);
    let g = inj_between(&script, &d2, &d3);
    assert_eq!(mem_inject(&f, &m1, &m2), Ok(()), "seed {seed}: f");
    assert_eq!(mem_inject(&g, &m2, &m3), Ok(()), "seed {seed}: g");
    assert_eq!(
        mem_inject(&f.compose(&g), &m1, &m3),
        Ok(()),
        "seed {seed}: f∘g"
    );
    // The mapping algebra composes associatively and absorbs the identity.
    let id = MemInj::identity_below(m1.next_block());
    assert_eq!(id.compose(&f), f, "seed {seed}: id∘f");
    assert_eq!(f.compose(&g).compose(&id), f.compose(&g), "seed {seed}");
}

/// Fig. 8 `store` commutation for `inj`: storing `v` in `m1` and `f(v)` at
/// the image location in `m2` preserves the relation.
fn store_law(seed: u64) {
    let script = gen_script(seed);
    let mut rng = Rng::new(seed ^ 0x73_746f_7265);
    let d1 = vec![0i64; script.sizes.len()];
    let d2 = deltas(&mut rng, script.sizes.len());
    let mut m1 = instantiate(&script, &d1);
    let mut m2 = instantiate(&script, &d2);
    let f = inj_between(&script, &d1, &d2);
    assert_eq!(mem_inject(&f, &m1, &m2), Ok(()), "seed {seed}: pre");

    for _ in 0..4 {
        let b = rng.below(script.sizes.len() as u64) as usize;
        let ofs = 8 * rng.below((script.sizes[b] / 8) as u64) as i64;
        let (chunk, v1) = match rng.below(3) {
            0 => (Chunk::I64, Val::Long(rng.next_u64() as i64)),
            1 => (Chunk::I32, Val::Int(rng.next_u64() as i32)),
            _ => {
                let tb = rng.below(script.sizes.len() as u64) as usize;
                let tofs = 8 * rng.below((script.sizes[tb] / 8) as u64) as i64;
                (Chunk::Ptr, Val::Ptr(tb as BlockId, tofs))
            }
        };
        let (tb, delta) = f.get(b as BlockId).expect("block is mapped");
        let v2 = f.apply(v1).expect("stored pointers target mapped blocks");
        assert!(val_inject(&f, &v1, &v2), "seed {seed}: values related");
        m1.store(chunk, b as BlockId, ofs, v1)
            .expect("in-bounds aligned store on the source");
        m2.store(chunk, tb, ofs + delta, v2)
            .expect("in-bounds aligned store on the target");
        assert_eq!(
            mem_inject(&f, &m1, &m2),
            Ok(()),
            "seed {seed}: store at b{b}+{ofs} broke the injection"
        );
    }
}

/// Fig. 8 `alloc` commutation for `inj`: parallel allocation extends the
/// world monotonically (`f ⊆ f'`) and preserves the relation — including
/// when the target block is strictly larger and the new entry has a
/// nontrivial delta.
fn alloc_law(seed: u64) {
    let script = gen_script(seed);
    let mut rng = Rng::new(seed ^ 0x61_6c6c_6f63);
    let d1 = vec![0i64; script.sizes.len()];
    let d2 = deltas(&mut rng, script.sizes.len());
    let mut m1 = instantiate(&script, &d1);
    let mut m2 = instantiate(&script, &d2);
    let f = inj_between(&script, &d1, &d2);
    assert_eq!(mem_inject(&f, &m1, &m2), Ok(()), "seed {seed}: pre");

    let size = 8 * (1 + rng.below(8) as i64);
    let pad = 8 * rng.below(4) as i64;
    let b1 = m1.alloc(0, size);
    let b2 = m2.alloc(0, size + pad);
    let mut f2 = f.clone();
    f2.insert(b1, b2, pad);
    assert!(f.included_in(&f2), "seed {seed}: world must grow");
    assert_eq!(mem_inject(&f2, &m1, &m2), Ok(()), "seed {seed}: post-alloc");

    // A fresh source block can also be *dropped* (left unmapped): still an
    // injection (paper: unmapped blocks are private to the source).
    let b3 = m1.alloc(0, 16);
    assert_eq!(
        mem_inject(&f2, &m1, &m2),
        Ok(()),
        "seed {seed}: b{b3} private"
    );
}

/// Fig. 8 laws for `ext` on generated states: reflexivity, refinement of
/// `Undef` contents, and store commutation (Undef on the left refined on
/// the right).
fn extends_law(seed: u64) {
    let script = gen_script(seed);
    let d0 = vec![0i64; script.sizes.len()];
    let m1 = instantiate(&script, &d0);
    assert!(extends(&m1, &m1), "seed {seed}: ext must be reflexive");

    // m2 = m1 with some never-written (hence Undef) slots made defined:
    // refinement in the lessdef order, so m1 ≤m m2 must hold.
    let mut rng = Rng::new(seed ^ 0x65_7874);
    let mut m2 = m1.clone();
    let written: Vec<(usize, i64)> = script
        .stores
        .iter()
        .flat_map(|&(c, b, ofs, _)| (0..c.size()).map(move |k| (b, ofs + k)))
        .collect();
    for b in 0..script.sizes.len() {
        for slot in 0..(script.sizes[b] / 8) {
            let ofs = slot * 8;
            let untouched = (0..8).all(|k| !written.contains(&(b, ofs + k)));
            if untouched && rng.below(2) == 0 {
                m2.store(
                    Chunk::I64,
                    b as BlockId,
                    ofs,
                    Val::Long(rng.next_u64() as i64),
                )
                .expect("refining store is in-bounds");
            }
        }
    }
    assert!(extends(&m1, &m2), "seed {seed}: refinement must extend");

    // Store commutation: Undef into m1, any refinement into m2, same spot.
    let mut m1b = m1.clone();
    let mut m2b = m2.clone();
    let b = rng.below(script.sizes.len() as u64) as usize;
    let ofs = 8 * rng.below((script.sizes[b] / 8) as u64) as i64;
    m1b.store(Chunk::I64, b as BlockId, ofs, Val::Undef)
        .unwrap();
    m2b.store(Chunk::I64, b as BlockId, ofs, Val::Long(7))
        .unwrap();
    assert!(
        extends(&m1b, &m2b),
        "seed {seed}: store must commute with ext"
    );
}

// ---------------------------------------------------------------------------
// Fixed-seed driver: always runs, fully offline
// ---------------------------------------------------------------------------

const SEED_BLOCK: std::ops::Range<u64> = 0..64;

#[test]
fn inj_compose_law_on_generated_states() {
    for seed in SEED_BLOCK {
        compose_law(seed);
    }
}

#[test]
fn inj_store_law_on_generated_states() {
    for seed in SEED_BLOCK {
        store_law(seed);
    }
}

#[test]
fn inj_alloc_law_on_generated_states() {
    for seed in SEED_BLOCK {
        alloc_law(seed);
    }
}

#[test]
fn ext_laws_on_generated_states() {
    for seed in SEED_BLOCK {
        extends_law(seed);
    }
}

// ---------------------------------------------------------------------------
// Proptest harness: the same checkers over arbitrary seeds (requires the
// unvendored `proptest` crate — see the feature note in Cargo.toml)
// ---------------------------------------------------------------------------

#[cfg(feature = "proptest")]
mod prop {
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn compose_law_any_seed(seed in any::<u64>()) {
            super::compose_law(seed);
        }

        #[test]
        fn store_law_any_seed(seed in any::<u64>()) {
            super::store_law(seed);
        }

        #[test]
        fn alloc_law_any_seed(seed in any::<u64>()) {
            super::alloc_law(seed);
        }

        #[test]
        fn extends_law_any_seed(seed in any::<u64>()) {
            super::extends_law(seed);
        }
    }
}
