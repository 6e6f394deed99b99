//! `oracle-seeds`: a block of generated programs, each pushed through
//! `run_seed` (`DifftestCfg::default()`) and then `run_seed_sched`
//! (`SchedCfg::default()`) — the campaign defaults, compiled validated.
//! Most of the time goes to the seven stage interpreters, `mem::Mem`,
//! `core::threaded` and the Thm 3.5 simulation check.
//!
//! The traced run replays both oracles from here through their public
//! functions (`StagePrograms::build`, `run_stage`, `check_thm35_budgeted`,
//! `check_query_sched`) with the traced compile, and fails unless every
//! verdict equals the one the library computed.

use clight::build_symtab;
use compcerto_core::cc::Ca;
use compcerto_core::conv::SimConv;
use compcerto_core::iface::CQuery;
use compcerto_core::lts::RunBudget;
use compcerto_core::sim::SimCheckError;
use compcerto_core::threaded::schedules;
use compcerto_gen::generate::gen_queries;
use compcerto_gen::{generate, GProgram};
use compiler::{
    check_query_sched, check_thm35_budgeted,
    json::{self, Json},
    pool_stats, run_seed, run_seed_sched, run_stage, try_c_query, CompilerOptions, DifftestCfg,
    ExtLib, FindingKind, SchedCfg, SchedSeedOutcome, SchedVerdict, SeedOutcome, StageOutcome,
    StagePrograms, SCHED_AUX_SALT, STAGES,
};
use mem::Val;

use crate::layers::LayerInput;
use crate::pipeline;
use crate::trace::{self, span};
use crate::util::{timed, Fnv, Passes, Timeline};
use crate::{Report, RunCfg};

/// The committed schedule-oracle baseline: its seed population is this
/// workload's, and its verdict checksum is the expected output.
const SCHED_BASELINE: &str = include_str!("../../SCHED.json");

/// The seed population and the committed sched verdict checksum.
///
/// Per-seed oracle time is heavy-tailed (the slowest 5% of seeds take
/// about half the time), so blocks drawn per workload seed would differ in
/// throughput by up to 2x; the population is therefore fixed and the
/// workload seed only orders it.
fn population() -> Result<(Vec<u64>, String), String> {
    let doc = json::parse(SCHED_BASELINE).map_err(|e| format!("SCHED.json: {e}"))?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("SCHED.json: no `{k}`"))
    };
    let base = num("seed_base")?;
    let seeds = (base..base + num("seeds")?).collect();
    let ck = doc
        .get("verdict_checksum")
        .and_then(Json::as_str)
        .ok_or("SCHED.json: no `verdict_checksum`")?;
    let d = SchedCfg::default();
    if num("threads")? != d.threads as u64
        || num("schedules_per_seed")? != d.schedules as u64
        || num("fuel")? != d.fuel
    {
        return Err("SCHED.json was recorded with other than SchedCfg::default()".into());
    }
    Ok((seeds, ck.to_string()))
}

/// Set-up: generate both oracles' programs (their statement count is the
/// stated input size).
fn setup(seeds: &[u64], d: &DifftestCfg, s: &SchedCfg) -> usize {
    seeds
        .iter()
        .map(|&x| generate(x, &d.gen).stmt_count() + generate(x, &s.gen).stmt_count())
        .sum()
}

pub fn run(cfg: &RunCfg) -> Report {
    let dcfg = DifftestCfg::default();
    let scfg = SchedCfg::default();
    let mut rep = Report::new(cfg);
    let (mut seeds, sched_ck) = match population() {
        Ok(p) => p,
        Err(e) => {
            rep.problem(e);
            return rep;
        }
    };
    if cfg.tiny {
        seeds.truncate(2);
    }
    let mut setup_tl = Timeline::new();
    let mut stmts = 0;
    for _ in 0..cfg.setup_reps {
        stmts = setup_tl.op(|| setup(&seeds, &dcfg, &scfg));
    }
    let order = crate::util::order(cfg.seed, seeds.len());
    rep.note(
        "inputs",
        format!("{} seeds, {stmts} generated statements", seeds.len()),
    );
    if cfg.trace {
        traced(&seeds, &order, &dcfg, &scfg, &mut rep);
        return rep;
    }

    let mut passes = Passes::start(cfg.seconds);
    // Every seed is two ops: its difftest half, then its sched half.
    let mut tl = Timeline::new();
    // Per seed: the difftest verdict line and the sched verdict lines of
    // the first run; later runs must repeat them.
    let mut first: Vec<Option<(String, Vec<String>)>> = vec![None; seeds.len()];
    while passes.another() {
        for i in passes.order(&order) {
            let seed = seeds[i];
            let d = tl.op(|| run_seed(seed, &dcfg));
            let s = tl.op(|| run_seed_sched(seed, &scfg));
            rep.attempted += 1;
            if !matches!(d.outcome, SeedOutcome::Agree { .. })
                || !matches!(s.outcome, SchedSeedOutcome::Agree { .. })
            {
                rep.failed += 1;
            }
            if matches!(d.outcome, SeedOutcome::Finding { .. })
                || matches!(s.outcome, SchedSeedOutcome::Finding { .. })
            {
                rep.problem(format!(
                    "seed {seed}: finding: {:?} / {:?}",
                    d.outcome, s.outcome
                ));
            }
            let lines = (format!("{seed} {:?}", d.outcome), s.verdicts);
            match &first[i] {
                None => first[i] = Some(lines),
                Some(l0) if *l0 != lines => {
                    rep.problem(format!("seed {seed}: verdicts changed between two runs"))
                }
                Some(_) => {}
            }
        }
    }
    // Checksums in seed order; the sched one as `sched_campaign` folds it.
    let (mut dck, mut sck) = (Fnv::default(), Fnv::default());
    for (&seed, (d, s)) in seeds.iter().zip(first.iter().flatten()) {
        dck.add(d.as_bytes());
        for line in s {
            sck.add(&seed.to_le_bytes());
            sck.add(line.as_bytes());
        }
    }
    rep.check_pin("difftest_verdicts", &dck.hex());
    if !cfg.tiny && sck.hex() != sched_ck {
        rep.problem(format!(
            "sched verdict checksum {} differs from SCHED.json's {sched_ck}",
            sck.hex()
        ));
    }
    rep.note("checksum.sched_verdicts", sck.hex());
    let (ms, probe) = tl.scaled();
    rep.note("probe_ms", probe.to_string());
    let per_seed: Vec<f64> = ms.chunks(2).map(|c| c.iter().sum()).collect();
    let seeds_per_s = |half: usize| {
        let t: f64 = ms.iter().skip(half).step_by(2).sum();
        per_seed.len() as f64 / (t / 1e3)
    };
    rep.alias("difftest_seeds_per_s", seeds_per_s(0), "1/s");
    rep.alias("sched_seeds_per_s", seeds_per_s(1), "1/s");
    rep.alias(
        "fail_rate",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        "ratio",
    );
    rep.e2e(per_seed.len() as f64, &per_seed, &setup_tl, &passes);
    rep
}

/// One pass over the block with spans. Each seed also runs untraced through
/// the library (the end-to-end call and the reference verdicts).
fn traced(seeds: &[u64], order: &[usize], dcfg: &DifftestCfg, scfg: &SchedCfg, rep: &mut Report) {
    let mut li = LayerInput::default();
    for &i in order {
        let seed = seeds[i];
        let p0 = pool_stats();
        let (ms, (d, s)) = timed(|| (run_seed(seed, dcfg), run_seed_sched(seed, scfg)));
        li.par_items += pool_stats().items - p0.items;
        li.e2e_ms += ms;
        li.untraced_ms += ms;

        trace::set_item(i as u64);
        let snap = compiler::ObsSnapshot::take();
        let mut replay = Replay {
            li: &mut li,
            pending: Vec::new(),
        };
        let got = span("op", || {
            let dv = difftest(seed, dcfg, &mut replay);
            let sv = sched(seed, scfg, &mut replay);
            (dv, sv)
        });
        let pending = std::mem::take(&mut replay.pending);
        li.counters.add(&snap.delta());
        rep.attempted += 1;
        for (srcs, fp) in pending {
            let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
            if let Err(e) =
                pipeline::check_against_compile_all(&refs, CompilerOptions::validated(), &fp)
            {
                rep.problem(format!("seed {seed}: {e}"));
            }
        }
        match got {
            (Ok(dv), Ok((so, sv))) => {
                if dv != d.outcome || so != s.outcome || sv != s.verdicts {
                    rep.problem(format!(
                        "seed {seed}: traced oracle verdicts differ from the library's"
                    ));
                }
            }
            (Err(e), _) | (_, Err(e)) => rep.problem(format!("seed {seed}: traced oracle: {e}")),
        }
    }
    rep.layers(li);
}

/// State of one traced pass: the layer inputs, and the traced compiles
/// whose faithfulness is checked once the op's span has closed.
struct Replay<'a> {
    li: &'a mut LayerInput,
    pending: Vec<(Vec<String>, pipeline::Fingerprint)>,
}

impl Replay<'_> {
    /// Compile validated through the traced pipeline and add the units'
    /// counters to the `ir.*` totals.
    fn compile(&mut self, prog: &GProgram) -> Result<pipeline::Traced, String> {
        let srcs = prog.render();
        let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
        let t = pipeline::compile_all(&refs, CompilerOptions::validated())?;
        for c in &t.counters {
            self.li.ir.add(c);
        }
        self.pending.push((srcs, t.fingerprint()));
        Ok(t)
    }
}

fn stage_run(
    sp: &StagePrograms,
    t: &pipeline::Traced,
    lib: &ExtLib,
    stage: &'static str,
    q: &CQuery,
    budget: &RunBudget,
) -> StageOutcome {
    span(interp_span(stage), || {
        run_stage(sp, &t.symtab, lib, stage, q, budget)
    })
}

fn interp_span(stage: &str) -> &'static str {
    match stage {
        "clight" => "interp.clight",
        "simpl-locals" => "interp.simpl-locals",
        "rtl" => "interp.rtl",
        "rtl-opt" => "interp.rtl-opt",
        "linear" => "interp.linear",
        "mach" => "interp.mach",
        _ => "interp.asm",
    }
}

/// `check_program` of the difftest oracle, replayed (no finding is
/// expected, so a finding's detail text is not reproduced).
fn difftest(seed: u64, cfg: &DifftestCfg, rp: &mut Replay) -> Result<SeedOutcome, String> {
    let prog = span("gen", || generate(seed, &cfg.gen));
    let t = rp.compile(&prog)?;
    if t.units.iter().any(|u| !u.diagnostics.is_empty()) {
        return Ok(finding(FindingKind::ValidatorRejected));
    }
    let sp = span("difftest.stage_programs", || StagePrograms::build(&t.units))?;
    let lib = ExtLib::demo(t.symtab.clone());
    let (_, entry) = prog.entry();
    let queries = gen_queries(prog.seed, entry.nparams as usize, cfg.queries);
    let budget = RunBudget::with_fuel(cfg.fuel).no_trace();
    let init = t.symtab.build_init_mem().map_err(|e| format!("{e:?}"))?;
    let (Some(vf), Some(sig)) = (
        t.symtab.func_ptr(&entry.name),
        sp.clight.sig_of(&entry.name),
    ) else {
        return Err("entry missing".into());
    };
    // The compile-then-link vs link-then-compile check compiles the
    // Clight-linked program as one unit.
    let whole = if cfg.check_links && t.units.len() >= 2 {
        let w = span("difftest.whole", || -> Result<_, String> {
            let symtab =
                span("clight.link", || build_symtab(&[&sp.clight])).map_err(|e| format!("{e}"))?;
            let (unit, c) =
                pipeline::compile_program(&sp.clight, &symtab, CompilerOptions::validated())?;
            rp.li.ir.add(&c);
            let lib = ExtLib::demo(symtab.clone());
            Ok((unit, symtab, lib))
        })?;
        let asm_only = StagePrograms {
            asm: w.0.asm.clone(),
            ..empty_stages()
        };
        Some((w, asm_only))
    } else {
        None
    };

    let mut run = 0usize;
    let mut skipped = 0usize;
    for args in &queries {
        let q = CQuery {
            vf,
            sig: sig.clone(),
            args: args.iter().map(|&a| Val::Int(a)).collect(),
            mem: init.clone(),
        };
        let base = match stage_run(&sp, &t, &lib, "clight", &q, &budget) {
            StageOutcome::Ok(o) => o,
            StageOutcome::Budget(_) => {
                skipped += 1;
                continue;
            }
            _ => return Ok(finding(FindingKind::Stuck { stage: "clight" })),
        };
        let mut skip = false;
        for stage in &STAGES[1..] {
            match stage_run(&sp, &t, &lib, stage, &q, &budget) {
                StageOutcome::Ok(o) if o == base => {}
                StageOutcome::Budget(_) => {
                    skip = true;
                    break;
                }
                _ => return Ok(finding(FindingKind::Disagreement { stage })),
            }
        }
        if skip {
            skipped += 1;
            continue;
        }
        run += 1;
        if let Some(((wunit, wsymtab, wlib), asm_only)) = &whole {
            let wq = try_c_query(wsymtab, wunit, &entry.name, q.args.clone())?;
            match span("interp.asm", || {
                run_stage(asm_only, wsymtab, wlib, "asm", &wq, &budget)
            }) {
                StageOutcome::Ok(o) if o == base => {}
                StageOutcome::Budget(_) => {}
                _ => return Ok(finding(FindingKind::LinkMismatch)),
            }
            if t.units.len() == 2 {
                if let Some((_w, qa)) = Ca::new(t.symtab.len() as u32).transport_query(&q) {
                    let r = span("sim.thm35", || {
                        check_thm35_budgeted(
                            &t.units[0].asm,
                            &t.units[1].asm,
                            &t.symtab,
                            &lib,
                            &qa,
                            &budget,
                        )
                    });
                    match r {
                        Ok(_)
                        | Err(
                            SimCheckError::OutOfFuel { .. } | SimCheckError::BudgetExceeded { .. },
                        ) => {}
                        Err(_) => return Ok(finding(FindingKind::LinkMismatch)),
                    }
                }
            }
        }
    }
    Ok(if run == 0 {
        SeedOutcome::Skipped(format!("all {skipped} queries budget-limited"))
    } else {
        SeedOutcome::Agree {
            queries_run: run,
            queries_skipped: skipped,
        }
    })
}

fn finding(kind: FindingKind) -> SeedOutcome {
    SeedOutcome::Finding {
        kind,
        detail: String::new(),
    }
}

fn empty_stages() -> StagePrograms {
    StagePrograms {
        clight: clight::Program::default(),
        clight_simpl: clight::Program::default(),
        rtl: rtl::RtlProgram::default(),
        rtl_opt: rtl::RtlProgram::default(),
        linear: backend::LinProgram::default(),
        mach: backend::MachProgram::default(),
        ra_map: backend::asmgen::RaMap::new(),
        asm: backend::AsmProgram::default(),
    }
}

/// `check_program_sched` of the schedule oracle, replayed.
fn sched(
    seed: u64,
    cfg: &SchedCfg,
    rp: &mut Replay,
) -> Result<(SchedSeedOutcome, Vec<String>), String> {
    let prog = span("gen", || generate(seed, &cfg.gen));
    let t = rp.compile(&prog)?;
    if t.units.iter().any(|u| !u.diagnostics.is_empty()) {
        return Err("validator rejected a unit".into());
    }
    let sp = span("difftest.stage_programs", || StagePrograms::build(&t.units))?;
    let lib = ExtLib::demo(t.symtab.clone());
    let (_, entry) = prog.entry();
    let nparams = entry.nparams as usize;
    let budget = RunBudget::with_fuel(cfg.fuel).no_trace();
    let init = t.symtab.build_init_mem().map_err(|e| format!("{e:?}"))?;
    let (Some(vf), Some(sig)) = (
        t.symtab.func_ptr(&entry.name),
        sp.clight.sig_of(&entry.name),
    ) else {
        return Err("entry missing".into());
    };
    let main_args = gen_queries(prog.seed, nparams, 1);
    let aux_args = gen_queries(
        prog.seed ^ SCHED_AUX_SALT,
        nparams,
        cfg.threads.saturating_sub(1),
    );
    let mk = |args: &[i32]| CQuery {
        vf,
        sig: sig.clone(),
        args: args.iter().map(|&a| Val::Int(a)).collect(),
        mem: init.clone(),
    };
    let q = mk(&main_args[0]);
    let aux: Vec<CQuery> = aux_args.iter().map(|a| mk(a)).collect();
    let mut verdicts = Vec::with_capacity(cfg.schedules);
    let (mut run, mut skipped) = (0usize, 0usize);
    for schedule in schedules(cfg.schedules, prog.seed) {
        let v = span("sched.query", || {
            check_query_sched(&sp, &t.symtab, &lib, &q, &aux, schedule, &budget)
        });
        verdicts.push(v.line(schedule));
        match v {
            SchedVerdict::Agree(_) => run += 1,
            SchedVerdict::Skipped { .. } => skipped += 1,
            SchedVerdict::Finding { kind, detail } => {
                return Ok((
                    SchedSeedOutcome::Finding {
                        kind,
                        detail: format!("schedule {schedule} args {:?}: {detail}", q.args),
                    },
                    verdicts,
                ))
            }
        }
    }
    let outcome = if run == 0 {
        SchedSeedOutcome::Skipped(format!("all {skipped} schedules budget-limited"))
    } else {
        SchedSeedOutcome::Agree {
            schedules_run: run,
            schedules_skipped: skipped,
        }
    };
    Ok((outcome, verdicts))
}
