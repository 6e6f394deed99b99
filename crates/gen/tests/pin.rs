//! Byte pin of the generator: every profile a caller uses must keep
//! rendering the same programs. The campaign baselines pin generated
//! programs only through their verdicts; this pin fails as soon as one
//! rendered byte of one seed drifts.
//!
//! Each row folds FNV-1a 64 ([`compiler::serve::fnv1a`]) over the rendered
//! units of seeds `0..500`, in seed order and then unit order.

use compcerto_gen::{generate, GenCfg};
use compiler::serve::{fnv1a, FNV_OFFSET};

const SEEDS: u64 = 500;

fn render_hash(cfg: &GenCfg) -> u64 {
    (0..SEEDS).fold(FNV_OFFSET, |h, seed| {
        generate(seed, cfg)
            .render()
            .iter()
            .fold(h, |h, unit| fnv1a(h, unit.as_bytes()))
    })
}

/// `units × fns_per_unit × stmts_per_fn` on the default profile.
fn shaped(units: usize, fns_per_unit: usize, stmts_per_fn: usize) -> GenCfg {
    GenCfg {
        units,
        fns_per_unit,
        stmts_per_fn,
        ..GenCfg::default()
    }
}

#[test]
fn every_profile_renders_its_pinned_programs() {
    let rows = [
        ("default", GenCfg::default(), 0x637b_1ce8_292e_7418),
        ("quick", GenCfg::quick(), 0x1008_96d0_521c_d30b),
        (
            "sched default",
            GenCfg {
                yield_calls: true,
                ..GenCfg::default()
            },
            0xeb79_bb00_63ed_d549,
        ),
        (
            "sched quick",
            GenCfg {
                yield_calls: true,
                ..GenCfg::quick()
            },
            0x8a2a_7746_6875_9968,
        ),
        ("corpus 3x4x12", shaped(3, 4, 12), 0x5c94_9a1f_f93c_45f3),
        ("serve 4x4x12", shaped(4, 4, 12), 0xf008_6ef8_a9e4_cb59),
        ("single unit", GenCfg::single_unit(), 0x28f5_6ce8_0fd0_9fa7),
    ];
    for (name, cfg, want) in rows {
        let got = render_hash(&cfg);
        assert_eq!(got, want, "{name}: {got:#018x} != {want:#018x}");
    }
}
