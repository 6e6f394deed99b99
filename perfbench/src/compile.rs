//! `compile-corpus`: one link set at a time through
//! `compile_all_jobs(CompilerOptions::default(), Jobs::Auto)`, which is what
//! `ccomp-o FILE.c` runs. Every pass and the absint solvers run; no
//! validator, interpreter or cache does.

use compcerto_gen::{generate, GenCfg};
use compiler::{compile_all_jobs, pool_stats, CompilerOptions, Jobs};

use crate::layers::LayerInput;
use crate::pipeline;
use crate::trace::{self, span};
use crate::util::{timed, Fnv, Passes, Timeline};
use crate::{Report, RunCfg};

/// The hand-written golden programs and their committed Asm-O snapshots.
const GOLDEN: [(&str, &str, &str); 5] = [
    (
        "arith",
        include_str!("../../crates/compiler/tests/golden/arith.c"),
        include_str!("../../crates/compiler/tests/golden/arith.s"),
    ),
    (
        "branch",
        include_str!("../../crates/compiler/tests/golden/branch.c"),
        include_str!("../../crates/compiler/tests/golden/branch.s"),
    ),
    (
        "calls",
        include_str!("../../crates/compiler/tests/golden/calls.c"),
        include_str!("../../crates/compiler/tests/golden/calls.s"),
    ),
    (
        "loop",
        include_str!("../../crates/compiler/tests/golden/loop.c"),
        include_str!("../../crates/compiler/tests/golden/loop.s"),
    ),
    (
        "memory",
        include_str!("../../crates/compiler/tests/golden/memory.c"),
        include_str!("../../crates/compiler/tests/golden/memory.s"),
    ),
];

/// Shape of the generated link sets (the serve campaign's shape).
pub fn gen_cfg() -> GenCfg {
    GenCfg {
        units: 3,
        fns_per_unit: 4,
        stmts_per_fn: 12,
        ..GenCfg::default()
    }
}

struct LinkSet {
    name: String,
    sources: Vec<String>,
}

impl LinkSet {
    fn refs(&self) -> Vec<&str> {
        self.sources.iter().map(String::as_str).collect()
    }
}

/// Link sets that come before the generated ones: the golden programs,
/// Fig. 1, the fixture and the fault-injection source.
const FIXED_SETS: usize = GOLDEN.len() + 3;

/// The corpus: golden programs, the bench fixtures, then `programs`
/// generated link sets. The population is fixed; the workload seed only
/// orders it. Compile time per generated link set varies with a
/// coefficient of variation of about 0.4, so corpora drawn per seed would
/// differ by more than the bounds this benchmark gates on.
fn corpus(programs: usize) -> Vec<LinkSet> {
    let mut sets: Vec<LinkSet> = GOLDEN
        .iter()
        .map(|(name, c, _)| LinkSet {
            name: format!("{name}.c"),
            sources: vec![c.to_string()],
        })
        .collect();
    for (name, srcs) in [
        ("fig1", vec![bench::FIG1_B, bench::FIG1_A]),
        ("fixture", vec![bench::FIXTURE]),
        ("faultinj", vec![compiler::faultinj::CAMPAIGN_SRC]),
    ] {
        sets.push(LinkSet {
            name: name.to_string(),
            sources: srcs.into_iter().map(str::to_string).collect(),
        });
    }
    let cfg = gen_cfg();
    for i in 0..programs {
        sets.push(LinkSet {
            name: format!("gen{i}"),
            sources: generate(i as u64, &cfg).render(),
        });
    }
    sets
}

/// The Asm dump of one link set, prefixed per unit as `ccomp-o --dump-asm`
/// prints a single file.
fn dump(set: &LinkSet, units: &[compiler::CompiledUnit]) -> String {
    let mut out = String::new();
    for u in units {
        out.push_str(&format!("; Asm-O for {}\n", set.name));
        out.push_str(&pipeline::asm_dump(u));
    }
    out
}

pub fn run(cfg: &RunCfg) -> Report {
    let programs = if cfg.tiny { 2 } else { 48 };
    let mut setup = Timeline::new();
    let mut sets = Vec::new();
    for _ in 0..cfg.setup_reps {
        sets = setup.op(|| corpus(programs));
    }
    let order = crate::util::order(cfg.seed, sets.len());
    let mut rep = Report::new(cfg);
    rep.note(
        "inputs",
        format!(
            "{} link sets, {} generated of shape 3x4x12",
            sets.len(),
            programs
        ),
    );
    if cfg.trace {
        traced(&sets, &order, &mut rep);
        return rep;
    }

    let opts = CompilerOptions::default();
    let mut passes = Passes::start(cfg.seconds);
    let mut tl = Timeline::new();
    let mut units_done = 0usize;
    // Per link set: checksum, Asm text and instruction count of the first
    // compilation; every later compilation must reproduce the checksum.
    let mut first: Vec<Option<(u64, String, u64)>> = (0..sets.len()).map(|_| None).collect();
    while passes.another() {
        for i in passes.order(&order) {
            let set = &sets[i];
            let refs = set.refs();
            let res = tl.op(|| compile_all_jobs(&refs, opts, Jobs::Auto));
            rep.attempted += 1;
            let units = match res {
                Ok((units, _)) => {
                    units_done += units.len();
                    units
                }
                Err(e) => {
                    rep.failed += 1;
                    rep.problem(format!("{}: compile error: {e}", set.name));
                    continue;
                }
            };
            let text = dump(set, &units);
            let h = Fnv::of(text.as_bytes());
            match &first[i] {
                None => {
                    let n = units
                        .iter()
                        .flat_map(|u| &u.asm.functions)
                        .map(|f| f.code.len());
                    first[i] = Some((h, text, n.sum::<usize>() as u64));
                }
                Some((h0, _, _)) if *h0 != h => rep.problem(format!(
                    "{}: Asm differs between two compilations",
                    set.name
                )),
                Some(_) => {}
            }
        }
    }

    // Output checks: golden snapshots byte for byte, then the pinned Asm
    // checksum of the whole corpus.
    for (i, (name, _, want)) in GOLDEN.iter().enumerate() {
        if let Some((_, got, _)) = &first[i] {
            if got != want {
                rep.problem(format!("{name}.c: Asm differs from the committed {name}.s"));
            }
        }
    }
    let mut corpus_ck = Fnv::default();
    let mut instrs = 0u64;
    for (set, f) in sets.iter().zip(&first) {
        match f {
            Some((h, _, n)) => {
                corpus_ck.add(&h.to_le_bytes());
                instrs += n;
            }
            None => rep.problem(format!("{}: never compiled", set.name)),
        }
    }
    rep.check_pin("corpus_asm", &corpus_ck.hex());
    let (ms, probe) = tl.scaled();
    rep.note("probe_ms", probe.to_string());
    rep.alias("asm_instrs", instrs as f64, "count");
    rep.e2e(units_done as f64, &ms, &setup, &passes);
    rep
}

/// One pass over the corpus with spans. Each link set is also compiled
/// untraced with `Jobs::Auto` (the end-to-end call, for `par.efficiency`)
/// and at jobs 1 (the untraced baseline of `trace_overhead`); neither
/// those nor the faithfulness check is inside a span.
fn traced(sets: &[LinkSet], order: &[usize], rep: &mut Report) {
    let opts = CompilerOptions::default();
    let mut li = LayerInput::default();
    span("gen", || corpus(sets.len() - FIXED_SETS));
    for &i in order {
        let set = &sets[i];
        let refs = set.refs();
        let p0 = pool_stats();
        let (auto_ms, _) = timed(|| compile_all_jobs(&refs, opts, Jobs::Auto));
        li.par_items += pool_stats().items - p0.items;
        li.e2e_ms += auto_ms;
        let (base_ms, _) = timed(|| compile_all_jobs(&refs, opts, Jobs::N(1)));
        li.untraced_ms += base_ms;

        trace::set_item(i as u64);
        let snap = compiler::ObsSnapshot::take();
        let res = span("op", || pipeline::compile_all(&refs, opts));
        li.counters.add(&snap.delta());
        match res {
            Ok(t) => {
                for c in &t.counters {
                    li.ir.add(c);
                }
                if let Err(e) = pipeline::check_against_compile_all(&refs, opts, &t.fingerprint()) {
                    rep.problem(format!("{}: {e}", set.name));
                }
            }
            Err(e) => rep.problem(format!("{}: traced compile failed: {e}", set.name)),
        }
        rep.attempted += 1;
    }
    rep.layers(li);
}
