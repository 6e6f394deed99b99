//! Observational equivalence of the two block representations.
//!
//! `Mem` stores a block's bytes either as raw `Vec<u8>` (the `Concrete`
//! fast path: scalar loads and stores skip the `MemVal` encode/decode
//! round-trip entirely) or as `Vec<MemVal>` (the general `Abstract` form,
//! required once an `Undef` or a pointer `Fragment` lands in the block).
//! The representation is an implementation detail: this suite drives the
//! same operation script through a memory left free to pick its
//! representation and through a twin that is demoted to `Abstract` after
//! every step (via the `force_block_abstract` test hook), and requires
//! that every observation — load results, raw contents, store errors, and
//! whole-state equality — agrees.
//!
//! The always-on `randomized_script_equivalence` test runs offline on a
//! seeded in-file SplitMix64; the proptest properties additionally
//! shrink counterexamples when the optional `proptest` feature (and
//! crate) are available.

use mem::{Chunk, Mem, Val};

/// Operations the scripts are built from.
#[derive(Debug, Clone)]
enum Op {
    Store(Chunk, i64, Val),
    Load(Chunk, i64),
    /// Partial free of `[lo, hi)` — writes `Undef` into the freed range,
    /// demoting a concrete block.
    FreePartial(i64, i64),
    /// Snapshot-and-copy-back of `[lo, hi)` (the calling convention's
    /// `mix` path).
    CopyRange(i64, i64),
}

const BLOCK_SIZE: i64 = 32;

/// Apply one op to `m` (block `b`), returning the observation it makes.
fn apply(m: &mut Mem, b: u32, op: &Op) -> String {
    match op {
        Op::Store(chunk, ofs, v) => format!("store:{:?}", m.store(*chunk, b, *ofs, *v)),
        Op::Load(chunk, ofs) => format!("load:{:?}", m.load(*chunk, b, *ofs)),
        Op::FreePartial(lo, hi) => format!("free:{:?}", m.free(b, *lo, *hi)),
        Op::CopyRange(lo, hi) => {
            let snap = m.clone();
            format!("copy:{:?}", m.copy_range_from(&snap, b, *lo, *hi))
        }
    }
}

/// Run `ops` through a free-representation memory and an always-abstract
/// twin; panic on the first observational difference.
fn check_script(ops: &[Op]) {
    let mut fast = Mem::new();
    let mut slow = Mem::new();
    let bf = fast.alloc(0, BLOCK_SIZE);
    let bs = slow.alloc(0, BLOCK_SIZE);
    assert_eq!(bf, bs);
    for (step, op) in ops.iter().enumerate() {
        let of = apply(&mut fast, bf, op);
        let os = apply(&mut slow, bs, op);
        slow.force_block_abstract(bs);
        assert_eq!(of, os, "observation diverged at step {step}: {op:?}");
        // Whole-state equality is semantic: Concrete([1]) == Abstract([Byte(1)]).
        assert_eq!(fast, slow, "states diverged at step {step}: {op:?}");
        for ofs in 0..BLOCK_SIZE {
            assert_eq!(
                fast.content(bf, ofs),
                slow.content(bs, ofs),
                "contents diverged at (step {step}, ofs {ofs}): {op:?}"
            );
        }
    }
    // The twin was forced abstract every step; the free memory must be
    // *allowed* to differ in representation while agreeing in content.
    assert_eq!(fast, slow);
}

/// SplitMix64 — in-file so the test runs offline with zero dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

const CHUNKS: [Chunk; 10] = [
    Chunk::I8S,
    Chunk::I8U,
    Chunk::I16S,
    Chunk::I16U,
    Chunk::I32,
    Chunk::I64,
    Chunk::F32,
    Chunk::F64,
    Chunk::Ptr,
    Chunk::Any64,
];

/// A random op; offsets are aligned for the drawn chunk, values include
/// the abstract cases (`Undef`, pointers) that force demotion and the
/// byte overwrites that drive promotion.
fn random_op(rng: &mut Rng) -> Op {
    let chunk = CHUNKS[rng.below(CHUNKS.len() as u64) as usize];
    let slots = (BLOCK_SIZE - chunk.size()).max(0) / chunk.align() + 1;
    let ofs = rng.below(slots as u64) as i64 * chunk.align();
    match rng.below(10) {
        0..=4 => {
            let v = match rng.below(6) {
                0 => Val::Undef,
                1 => Val::Int(rng.next() as i32),
                2 => Val::Long(rng.next() as i64),
                3 => Val::Single(f32::from_bits(rng.next() as u32 & 0x7f7f_ffff)),
                4 => Val::Float(f64::from_bits(rng.next() & 0x7fef_ffff_ffff_ffff)),
                _ => Val::Ptr(rng.below(4) as u32, rng.below(32) as i64),
            };
            Op::Store(chunk, ofs, v)
        }
        5..=7 => Op::Load(chunk, ofs),
        8 => {
            let lo = rng.below(BLOCK_SIZE as u64) as i64;
            let hi = (lo + 1 + rng.below(8) as i64).min(BLOCK_SIZE);
            Op::FreePartial(lo, hi)
        }
        _ => {
            let lo = rng.below(BLOCK_SIZE as u64) as i64;
            let hi = (lo + 1 + rng.below(16) as i64).min(BLOCK_SIZE);
            Op::CopyRange(lo, hi)
        }
    }
}

/// Always-on randomized equivalence: 64 scripts of 60 ops, fixed seed.
#[test]
fn randomized_script_equivalence() {
    for seed in 0..64u64 {
        let mut rng = Rng(0xc0ff_ee00 + seed);
        let ops: Vec<Op> = (0..60).map(|_| random_op(&mut rng)).collect();
        check_script(&ops);
    }
}

/// Promotion/demotion lifecycle on a directed script: fresh block is
/// abstract (all-Undef), filling it with scalars promotes it, a pointer
/// store demotes it, overwriting the pointer promotes it again.
#[test]
fn promotion_demotion_lifecycle() {
    let mut m = Mem::new();
    let b = m.alloc(0, 32);
    assert_eq!(
        m.block_is_concrete(b),
        Some(false),
        "fresh block is all-Undef"
    );
    for slot in 0..4 {
        m.store(Chunk::I64, b, slot * 8, Val::Long(slot)).unwrap();
    }
    assert_eq!(
        m.block_is_concrete(b),
        Some(true),
        "all-scalar block promotes"
    );
    m.store(Chunk::Ptr, b, 8, Val::Ptr(b, 0)).unwrap();
    assert_eq!(m.block_is_concrete(b), Some(false), "fragments demote");
    assert_eq!(m.load(Chunk::Ptr, b, 8).unwrap(), Val::Ptr(b, 0));
    m.store(Chunk::I64, b, 8, Val::Long(-1)).unwrap();
    assert_eq!(
        m.block_is_concrete(b),
        Some(true),
        "overwriting the last fragment re-promotes"
    );
    // The round trip observed nothing representation-specific.
    for slot in 0..4 {
        let want = if slot == 1 { -1 } else { slot };
        assert_eq!(m.load(Chunk::I64, b, slot * 8).unwrap(), Val::Long(want));
    }
}

/// Fragment spill: a narrow store overlapping a pointer's fragments
/// scrambles the pointer identically in both representations.
#[test]
fn fragment_spill_matches_across_reprs() {
    let script = [
        Op::Store(Chunk::I64, 0, Val::Long(7)),
        Op::Store(Chunk::I64, 8, Val::Long(8)),
        Op::Store(Chunk::Ptr, 8, Val::Ptr(0, 4)),
        Op::Store(Chunk::I32, 12, Val::Int(9)), // clobbers fragments 4..8
        Op::Load(Chunk::Ptr, 8),                // must be Undef in both
        Op::Store(Chunk::I64, 8, Val::Long(1)),
        Op::Load(Chunk::I64, 8),
    ];
    check_script(&script);
}

#[cfg(feature = "proptest")]
mod props {
    use super::*;
    use proptest::prelude::*;

    fn arb_op() -> impl Strategy<Value = Op> {
        (any::<u64>()).prop_map(|seed| {
            let mut rng = Rng(seed);
            random_op(&mut rng)
        })
    }

    proptest! {
        /// The two representations are observationally equivalent under
        /// arbitrary scripts (shrinking finds a minimal diverging script).
        #[test]
        fn repr_equivalence(ops in proptest::collection::vec(arb_op(), 1..80)) {
            check_script(&ops);
        }
    }
}
