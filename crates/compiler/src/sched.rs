//! N×M schedule-exploration differential testing: the threaded oracle.
//!
//! [`crate::difftest`] compares what every pipeline stage observes for one
//! *sequential* query. This module generalizes the oracle to the threaded
//! open semantics of [`compcerto_core::threaded`]: per seed, `t` instances
//! of the generated program's entry function run over one shared global
//! memory, interleaving at external calls (including the generator's
//! `yield` sites) under an explicit deterministic [`Schedule`] — and all
//! seven stage interpreters must observe the *same* behaviour per schedule:
//!
//! * the final answer of thread 0 (normalized to an [`ObsVal`]);
//! * the interleaved outgoing-question trace (callee name and returned
//!   value, recorded inside the environment closure at each level's own
//!   interface — external-call order *is* the interleaving);
//! * the schedule trace (`sched:k` / `exit:k=…` annotations emitted by
//!   [`ThreadedLts`], with exit values rendered stage-invariantly);
//! * the final contents of every mutable global in the shared memory.
//!
//! The per-query check is [`check_query_sched`](crate::difftest::check_query_sched):
//! difftest's stage table run in its threaded mode. This module sweeps it
//! over a seed's schedule family on the worker pool, one table per seed.
//!
//! Interleaving happens only at the open-semantics seams (external calls
//! and completions), so every slice is atomic and locally sequential; the
//! schedule's decision sequence depends only on how the runnable set
//! evolves, which compiled code preserves stage-for-stage. That is what
//! makes a bitwise cross-stage comparison of threaded runs meaningful at
//! all (see the `core::threaded` module docs).
//!
//! Everything here is a pure function of `(seed, SchedCfg)` — the
//! `sched_campaign` bench fans seeds out across jobs and still reports
//! byte-identical verdicts and FNV checksums.
//!
//! [`ObsVal`]: crate::difftest::ObsVal
//! [`Schedule`]: compcerto_core::threaded::Schedule
//! [`ThreadedLts`]: compcerto_core::threaded::ThreadedLts

use compcerto_core::lts::RunBudget;
use compcerto_core::threaded::{schedules, Schedule};
use compcerto_gen::generate::gen_queries;
use compcerto_gen::{generate, GProgram, GenCfg};
use mem::Val;

use crate::difftest::{FindingKind, Prepared, SchedVerdict, StageTable, Verdict};
use crate::obs::Counters;
use crate::par::{par_map, Jobs};

/// Domain-separation salt for deriving the auxiliary threads' argument sets
/// from a campaign seed (keeps them distinct from the main query stream of
/// [`gen_queries`]).
pub const SCHED_AUX_SALT: u64 = 0x5448_5245_4144_5321; // "THREADS!"

/// Counter keys the schedule oracle emits on top of the standard
/// [`crate::obs::DELTA_COUNTER_KEYS`] — the `sched_campaign` checkpoint
/// reader interns through both tables.
pub const SCHED_COUNTER_KEYS: [&str; 4] = [
    "lts.sched.agreed",
    "lts.sched.schedules",
    "lts.sched.skipped",
    "lts.sched.threads",
];

/// Map a counter name back to its interned `&'static str` key, covering
/// both the schedule-oracle keys and the standard delta keys.
#[must_use]
pub fn intern_sched_counter_key(name: &str) -> Option<&'static str> {
    SCHED_COUNTER_KEYS
        .iter()
        .copied()
        .find(|k| *k == name)
        .or_else(|| crate::obs::intern_counter_key(name))
}

/// Threaded-oracle configuration.
#[derive(Debug, Clone)]
pub struct SchedCfg {
    /// Shape of the generated programs (yield sites enabled).
    pub gen: GenCfg,
    /// Total thread count per run: thread 0 answers the main query, threads
    /// `1..` answer auxiliary queries against the same entry function.
    pub threads: usize,
    /// Schedules explored per seed (schedule 0 is round-robin, the rest are
    /// seeded draws; see [`compcerto_core::threaded::schedules`]).
    pub schedules: usize,
    /// Fuel per stage execution (the only budget axis, as in difftest).
    pub fuel: u64,
}

impl Default for SchedCfg {
    fn default() -> Self {
        SchedCfg {
            gen: GenCfg {
                yield_calls: true,
                ..GenCfg::default()
            },
            threads: 3,
            schedules: 8,
            fuel: 2_000_000,
        }
    }
}

impl SchedCfg {
    /// A smaller profile for unit tests and CI smoke runs.
    pub fn quick() -> SchedCfg {
        SchedCfg {
            gen: GenCfg {
                yield_calls: true,
                ..GenCfg::quick()
            },
            threads: 2,
            schedules: 4,
            fuel: 1_000_000,
        }
    }
}

/// Verdict of the threaded oracle on one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedSeedOutcome {
    /// Every (non-skipped) schedule agreed at every stage.
    Agree {
        /// Schedules fully compared.
        schedules_run: usize,
        /// Schedules skipped for budget exhaustion at some stage.
        schedules_skipped: usize,
    },
    /// Every schedule was budget-limited — no verdict for this seed.
    Skipped(String),
    /// A bug (or a bug in this harness): see the kind and detail.
    Finding {
        /// The failure class.
        kind: FindingKind,
        /// Human-readable context.
        detail: String,
    },
}

/// The full per-seed report of [`run_seed_sched`].
#[derive(Debug, Clone)]
pub struct SchedSeedReport {
    /// The seed.
    pub seed: u64,
    /// The oracle verdict.
    pub outcome: SchedSeedOutcome,
    /// One stable verdict line per schedule explored before the run ended
    /// (all of them on agreement, the prefix up to and including the
    /// finding otherwise) — the campaign's FNV checksum input.
    pub verdicts: Vec<String>,
}

/// Generate the program for `seed`, compile it, and run the threaded
/// oracle over the seed's whole schedule family.
pub fn run_seed_sched(seed: u64, cfg: &SchedCfg) -> SchedSeedReport {
    let prog = generate(seed, &cfg.gen);
    let (outcome, verdicts) = check_program_sched(&prog, cfg);
    SchedSeedReport {
        seed,
        outcome,
        verdicts,
    }
}

/// [`run_seed_sched`] plus observability: the seed's deterministic counter
/// delta with the `lts.sched.*` tallies folded in.
pub fn run_seed_sched_obs(seed: u64, cfg: &SchedCfg) -> (SchedSeedReport, Counters) {
    let snap = crate::obs::ObsSnapshot::take();
    let report = run_seed_sched(seed, cfg);
    let mut counters = snap.delta();
    let (run, skipped) = match &report.outcome {
        SchedSeedOutcome::Agree {
            schedules_run,
            schedules_skipped,
        } => (*schedules_run, *schedules_skipped),
        SchedSeedOutcome::Skipped(_) => (0, cfg.schedules),
        SchedSeedOutcome::Finding { .. } => (0, 0),
    };
    counters.bump("lts.sched.agreed", run as u64);
    counters.bump("lts.sched.schedules", (run + skipped) as u64);
    counters.bump("lts.sched.skipped", skipped as u64);
    counters.bump("lts.sched.threads", cfg.threads as u64);
    (report, counters)
}

/// Run the threaded oracle on one generated program: compile, build the
/// per-stage whole programs, derive the query set and schedule family, and
/// compare all seven stages per schedule. Every schedule runs, so the
/// counters of a finding seed include the schedules after the finding.
fn check_program_sched(prog: &GProgram, cfg: &SchedCfg) -> (SchedSeedOutcome, Vec<String>) {
    let p = match Prepared::new(prog) {
        Ok(p) => p,
        Err((kind, detail)) => return (SchedSeedOutcome::Finding { kind, detail }, Vec::new()),
    };
    let budget = RunBudget::with_fuel(cfg.fuel).no_trace();
    // Every thread runs the entry function: thread 0 with the main argument
    // set, threads 1.. with domain-separated auxiliary sets.
    let naux = cfg.threads.saturating_sub(1);
    let main_args = gen_queries(prog.seed, p.nparams, 1);
    let aux_args = gen_queries(prog.seed ^ SCHED_AUX_SALT, p.nparams, naux);
    let q = p.query(&main_args[0]);
    let aux: Vec<_> = aux_args.iter().map(|a| p.query(a)).collect();

    // Only the semantics are shared: each schedule runs on one worker.
    let table = StageTable::new(&p.sp, &p.symtab, &p.lib, &budget);
    let family = schedules(cfg.schedules, prog.seed);
    let verdicts = par_map(Jobs::Auto, &family, |_, &s| table.check_sched(&q, &aux, s));
    fold_verdicts(family.into_iter().zip(verdicts), &q.args)
}

/// Fold per-schedule verdicts in schedule order as a serial sweep would:
/// one verdict line per schedule up to and including the first finding,
/// whose detail names its schedule and the main query's `args`.
fn fold_verdicts(
    verdicts: impl IntoIterator<Item = (Schedule, SchedVerdict)>,
    args: &[Val],
) -> (SchedSeedOutcome, Vec<String>) {
    let mut lines = Vec::new();
    let mut run = 0usize;
    let mut skipped = 0usize;
    for (schedule, v) in verdicts {
        lines.push(v.line(schedule));
        match v {
            Verdict::Agree(_) => run += 1,
            Verdict::Skipped { .. } => skipped += 1,
            Verdict::Finding { kind, detail } => {
                let detail = format!("schedule {schedule} args {args:?}: {detail}");
                return (SchedSeedOutcome::Finding { kind, detail }, lines);
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
    (outcome, lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difftest::{check_query, check_query_sched, Obs, ObsVal, SchedObs};

    #[test]
    fn one_thread_round_robin_is_the_sequential_oracle() {
        // The sequential oracle runs each stage unwrapped; wrapped in a
        // one-thread round-robin `ThreadedLts` every stage must observe the
        // same, plus a trace of thread 0's dispatches ending in its exit.
        let cfg = SchedCfg::quick();
        let budget = RunBudget::with_fuel(cfg.fuel).no_trace();
        for seed in 0..8u64 {
            let p = Prepared::new(&generate(seed, &cfg.gen)).expect("seed compiles");
            for args in gen_queries(seed, p.nparams, 2) {
                let q = p.query(&args);
                let seq = check_query(&p.sp, &p.symtab, &p.lib, &q, &budget);
                let thr = check_query_sched(
                    &p.sp,
                    &p.symtab,
                    &p.lib,
                    &q,
                    &[],
                    Schedule::RoundRobin,
                    &budget,
                );
                let (Verdict::Agree(seq), Verdict::Agree(thr)) = (&seq, &thr) else {
                    panic!("seed {seed} args {args:?}: {seq:?} / {thr:?}");
                };
                assert_eq!(thr.obs, **seq, "seed {seed} args {args:?}");
                let (exit, dispatches) = thr.trace.split_last().expect("a completed run exits");
                assert_eq!(*exit, format!("exit:0={}", seq.result), "seed {seed}");
                assert!(
                    !dispatches.is_empty() && dispatches.iter().all(|t| t == "sched:0"),
                    "seed {seed}: {:?}",
                    thr.trace
                );
            }
        }
    }

    #[test]
    fn quick_seeds_agree_across_stages_and_schedules() {
        let cfg = SchedCfg::quick();
        for seed in 0..6u64 {
            let r = run_seed_sched(seed, &cfg);
            match &r.outcome {
                SchedSeedOutcome::Agree { schedules_run, .. } => {
                    assert!(*schedules_run > 0, "seed {seed}: nothing compared");
                    assert_eq!(r.verdicts.len(), cfg.schedules, "seed {seed}");
                }
                SchedSeedOutcome::Skipped(_) => {}
                SchedSeedOutcome::Finding { kind, detail } => {
                    panic!("seed {seed}: {kind}: {detail}")
                }
            }
        }
    }

    #[test]
    fn verdict_lines_are_deterministic() {
        let cfg = SchedCfg::quick();
        let a = run_seed_sched(3, &cfg);
        let b = run_seed_sched(3, &cfg);
        assert_eq!(a.verdicts, b.verdicts);
        assert_eq!(a.outcome, b.outcome);
    }

    #[test]
    fn schedules_actually_interleave() {
        // Over a handful of seeds, at least one threaded run must show an
        // auxiliary thread scheduled before thread 0 finishes — otherwise
        // the whole oracle degenerates to sequential difftest.
        let cfg = SchedCfg::quick();
        let mut interleaved = false;
        for seed in 0..8u64 {
            let r = run_seed_sched(seed, &cfg);
            for line in &r.verdicts {
                if let Some(tr) = line.split("trace=[").nth(1) {
                    let toks: Vec<&str> = tr.trim_end_matches(']').split(' ').collect();
                    let first_exit0 = toks.iter().position(|t| t.starts_with("exit:0"));
                    let first_sched1 = toks.iter().position(|t| *t == "sched:1");
                    if let (Some(e0), Some(s1)) = (first_exit0, first_sched1) {
                        if s1 < e0 {
                            interleaved = true;
                        }
                    }
                }
            }
        }
        assert!(interleaved, "no schedule ever interleaved threads");
    }

    /// The serial reference of [`run_seed_sched_obs`]: the same prologue on
    /// this thread, then [`check_query_sched`] per schedule up to the first
    /// finding, and the counter delta of all of it.
    fn serial_sweep(seed: u64, cfg: &SchedCfg) -> (SchedSeedOutcome, Vec<String>, Counters) {
        let snap = crate::obs::ObsSnapshot::take();
        let p = Prepared::new(&generate(seed, &cfg.gen)).expect("seed compiles");
        let budget = RunBudget::with_fuel(cfg.fuel).no_trace();
        let q = p.query(&gen_queries(seed, p.nparams, 1)[0]);
        let aux: Vec<_> = gen_queries(seed ^ SCHED_AUX_SALT, p.nparams, cfg.threads - 1)
            .iter()
            .map(|a| p.query(a))
            .collect();
        let mut pairs = Vec::new();
        for schedule in schedules(cfg.schedules, seed) {
            let v = check_query_sched(&p.sp, &p.symtab, &p.lib, &q, &aux, schedule, &budget);
            let stop = matches!(v, Verdict::Finding { .. });
            pairs.push((schedule, v));
            if stop {
                break;
            }
        }
        let (outcome, lines) = fold_verdicts(pairs, &q.args);
        (outcome, lines, snap.delta())
    }

    #[test]
    fn pooled_sweep_equals_the_serial_sweep() {
        // Sharing one stage table across pool workers changes no verdict,
        // and the workers' counters fold into the caller's delta.
        let cfg = SchedCfg::quick();
        for seed in 0..8u64 {
            let (outcome, lines, counters) = serial_sweep(seed, &cfg);
            let (report, mut pooled) = run_seed_sched_obs(seed, &cfg);
            pooled.0.retain(|k, _| !k.starts_with("lts.sched."));
            assert_eq!(report.verdicts, lines, "seed {seed}");
            assert_eq!(report.outcome, outcome, "seed {seed}");
            assert_eq!(pooled, counters, "seed {seed}");
        }
    }

    fn agree() -> SchedVerdict {
        Verdict::Agree(Box::new(SchedObs {
            obs: Obs {
                result: ObsVal::Int(0),
                ext: Vec::new(),
                globals: Vec::new(),
            },
            trace: Vec::new(),
        }))
    }

    fn skip() -> SchedVerdict {
        Verdict::Skipped { stage: "rtl" }
    }

    fn finding() -> SchedVerdict {
        Verdict::Finding {
            kind: FindingKind::Disagreement { stage: "asm" },
            detail: "boom".into(),
        }
    }

    #[test]
    fn fold_stops_at_the_first_finding() {
        let family = schedules(8, 7);
        let args = [Val::Int(3), Val::Int(-1)];
        for k in 0..family.len() {
            // Agreements and skips before schedule k, findings from k on.
            let verdicts = family.iter().enumerate().map(|(i, &s)| {
                let v = match i {
                    _ if i >= k => finding(),
                    _ if i % 2 == 0 => agree(),
                    _ => skip(),
                };
                (s, v)
            });
            let (outcome, lines) = fold_verdicts(verdicts, &args);
            assert_eq!(lines.len(), k + 1, "finding at {k}");
            assert!(lines[k].starts_with(&format!("{} finding ", family[k])));
            assert_eq!(
                outcome,
                SchedSeedOutcome::Finding {
                    kind: FindingKind::Disagreement { stage: "asm" },
                    detail: format!("schedule {} args {args:?}: boom", family[k]),
                }
            );
        }
    }

    #[test]
    fn fold_counts_agreements_and_skips() {
        let family = schedules(6, 7);
        let (outcome, lines) = fold_verdicts(family.iter().map(|&s| (s, skip())), &[]);
        assert_eq!(lines.len(), 6);
        assert_eq!(
            outcome,
            SchedSeedOutcome::Skipped("all 6 schedules budget-limited".into())
        );
        let mixed = family.iter().enumerate().map(|(i, &s)| {
            let v = if i % 3 == 0 { skip() } else { agree() };
            (s, v)
        });
        let (outcome, lines) = fold_verdicts(mixed, &[]);
        assert_eq!(lines.len(), 6);
        assert_eq!(
            outcome,
            SchedSeedOutcome::Agree {
                schedules_run: 4,
                schedules_skipped: 2,
            }
        );
    }

    #[test]
    fn counter_interning_covers_sched_keys() {
        for k in SCHED_COUNTER_KEYS {
            assert_eq!(intern_sched_counter_key(k), Some(k));
        }
        assert_eq!(intern_sched_counter_key("lts.steps"), Some("lts.steps"));
        assert_eq!(intern_sched_counter_key("nope"), None);
    }
}
