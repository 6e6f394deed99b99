//! Fault injection: seeded, deterministic mutation operators over compiled
//! code, keyed by the calling-convention clause they violate, plus a
//! campaign runner that measures the *sensitivity* of the Theorem 3.8
//! checker.
//!
//! The value of a translation-validation harness is that it catches
//! miscompilation; each [`MutationClass`] here models one family of
//! convention violations (corrupted result registers, clobbered
//! callee-saves, skipped external calls, leaked stack frames, …). The
//! campaign runner ([`run_campaign`]) compiles a fixed workload once,
//! generates `N` seeded mutants per class, pushes every mutant through
//! [`check_thm38_budgeted`] under an explicit [`RunBudget`], and reports a
//! sensitivity matrix: how many mutants were detected, with which error
//! class, and whether that class matches the clause the mutation violates.
//!
//! Everything is deterministic given the campaign seed: mutation sites and
//! payloads come from [`SplitMix64`], budgets are fuel-based (no
//! wall-clock), and all tallies use ordered maps.

use std::collections::BTreeMap;
use std::fmt;

use backend::{
    allocation, asmgen, cleanup_labels, debugvar, linearize, stacking, tunneling, AsmInst,
};
use compcerto_core::lts::RunBudget;
use compcerto_core::regs::Mreg;
use compcerto_core::rng::SplitMix64;
use compcerto_core::sim::SimCheckError;
use compcerto_core::symtab::SymbolTable;
use mem::Val;
use minor::MBinop;
use rtl::{renumber, Inst as RtlInst, RtlOp};

use crate::driver::{compile_all_jobs, CompiledUnit, CompilerOptions};
use crate::extlib::ExtLib;
use crate::harness::{check_thm38_budgeted, try_c_query, FUEL};
use crate::par::{par_map, Jobs};

/// The mutation operators, each keyed to the convention clause it violates
/// (paper §4–5: the `C` convention's result, callee-save, argument, memory
/// and control clauses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MutationClass {
    /// Corrupt the result register `r0` just before a `Ret` (violates the
    /// result clause of `CA`).
    ResultCorruption,
    /// Overwrite a callee-save register (`r8`–`r13`) without saving it
    /// (violates the callee-save clause).
    CalleeSaveClobber,
    /// Corrupt the first argument register just before an external call
    /// (violates the outgoing-argument clause, Fig. 6c).
    ExternalArgCorruption,
    /// Replace an external call with a constant move (the interaction
    /// structures of source and target diverge).
    ExternalCallSkip,
    /// Skip `FreeFrame`: `sp` is not restored and the frame block leaks
    /// (violates the stack-pointer/memory clause).
    StackFrameLeak,
    /// Skip `RestoreRa`: the return address is left clobbered (violates the
    /// return-address clause).
    RaClobber,
    /// Corrupt the value stored to a global variable (the final memories
    /// are no longer related by the injection).
    GlobalStoreCorruption,
    /// Drift an immediate operand (models a "wrong constant" compiler bug).
    ConstantDrift,
    /// Turn a conditional branch unconditional (models a branch-polarity
    /// compiler bug).
    ControlFlowInversion,
    /// RTL-level constant drift: patch an immediate in the optimized RTL
    /// and re-run the backend (Allocation → … → Asmgen), modeling a bug in
    /// an RTL optimization pass.
    RtlConstantDrift,
}

/// All mutation classes, in campaign order.
pub const MUTATION_CLASSES: [MutationClass; 10] = [
    MutationClass::ResultCorruption,
    MutationClass::CalleeSaveClobber,
    MutationClass::ExternalArgCorruption,
    MutationClass::ExternalCallSkip,
    MutationClass::StackFrameLeak,
    MutationClass::RaClobber,
    MutationClass::GlobalStoreCorruption,
    MutationClass::ConstantDrift,
    MutationClass::ControlFlowInversion,
    MutationClass::RtlConstantDrift,
];

impl MutationClass {
    /// Stable kebab-case name (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            MutationClass::ResultCorruption => "result-corruption",
            MutationClass::CalleeSaveClobber => "callee-save-clobber",
            MutationClass::ExternalArgCorruption => "external-arg-corruption",
            MutationClass::ExternalCallSkip => "external-call-skip",
            MutationClass::StackFrameLeak => "stack-frame-leak",
            MutationClass::RaClobber => "ra-clobber",
            MutationClass::GlobalStoreCorruption => "global-store-corruption",
            MutationClass::ConstantDrift => "constant-drift",
            MutationClass::ControlFlowInversion => "control-flow-inversion",
            MutationClass::RtlConstantDrift => "rtl-constant-drift",
        }
    }

    /// The convention clause the class violates (for the report).
    pub fn clause(self) -> &'static str {
        match self {
            MutationClass::ResultCorruption => "result register",
            MutationClass::CalleeSaveClobber => "callee-save registers",
            MutationClass::ExternalArgCorruption => "outgoing arguments",
            MutationClass::ExternalCallSkip => "interaction structure",
            MutationClass::StackFrameLeak => "stack pointer / memory",
            MutationClass::RaClobber => "return address",
            MutationClass::GlobalStoreCorruption => "memory injection",
            MutationClass::ConstantDrift => "value relation",
            MutationClass::ControlFlowInversion => "control flow",
            MutationClass::RtlConstantDrift => "value relation (RTL)",
        }
    }

    /// Does `err` belong to the error class(es) this mutation is expected
    /// to trigger?
    pub fn matches_expected(self, err: &SimCheckError) -> bool {
        use SimCheckError as E;
        match self {
            MutationClass::ResultCorruption | MutationClass::CalleeSaveClobber => {
                matches!(err, E::FinalNotRelated)
            }
            MutationClass::ExternalArgCorruption => {
                matches!(err, E::ExternalNotRelated { .. })
            }
            // A corrupted store is observed at the first boundary where the
            // memories are compared: the next external call if one follows,
            // otherwise the final answer.
            MutationClass::GlobalStoreCorruption => {
                matches!(err, E::FinalNotRelated | E::ExternalNotRelated { .. })
            }
            MutationClass::ExternalCallSkip => {
                matches!(err, E::InteractionMismatch { .. } | E::FinalNotRelated)
            }
            MutationClass::StackFrameLeak => {
                matches!(err, E::FinalNotRelated | E::Wrong { .. })
            }
            MutationClass::RaClobber => matches!(
                err,
                E::Wrong { .. }
                    | E::OutOfFuel { .. }
                    | E::InteractionMismatch { .. }
                    | E::FinalNotRelated
            ),
            MutationClass::ConstantDrift | MutationClass::RtlConstantDrift => {
                matches!(err, E::FinalNotRelated | E::ExternalNotRelated { .. })
            }
            // Inverting a branch can derail execution in any observable
            // way; every checker error class is an expected detection.
            MutationClass::ControlFlowInversion => !matches!(err, E::Precondition(_)),
        }
    }
}

impl fmt::Display for MutationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A description of one applied mutation.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// The operator that produced it.
    pub class: MutationClass,
    /// Human-readable description of the edit (function, site, payload).
    pub desc: String,
}

/// A mutated compilation unit.
#[derive(Debug, Clone)]
pub struct Mutant {
    /// The unit with the mutated Asm (and, for RTL-level classes, the
    /// re-run backend).
    pub unit: CompiledUnit,
    /// What was changed.
    pub mutation: Mutation,
}

/// Positions of instructions in `code` matching `pred`.
fn sites(code: &[AsmInst], pred: impl Fn(&AsmInst) -> bool) -> Vec<usize> {
    code.iter()
        .enumerate()
        .filter(|(_, i)| pred(i))
        .map(|(p, _)| p)
        .collect()
}

/// Apply one seeded mutation of `class` to `fname` in a clone of `unit`.
///
/// Returns `None` when the class has no applicable site in the function
/// (e.g. no external call to skip).
pub fn mutate(
    unit: &CompiledUnit,
    fname: &str,
    class: MutationClass,
    rng: &mut SplitMix64,
) -> Option<Mutant> {
    if class == MutationClass::RtlConstantDrift {
        return mutate_rtl(unit, fname, rng);
    }
    let mut unit = unit.clone();
    let externs: Vec<String> = unit.asm.externs.iter().map(|(n, _)| n.clone()).collect();
    let f = unit.asm.functions.iter_mut().find(|f| f.name == fname)?;
    let code = &mut f.code;
    let desc: String = match class {
        MutationClass::ResultCorruption => {
            let rets = sites(code, |i| matches!(i, AsmInst::Ret));
            let at = *rng.pick(&rets)?;
            let k = rng.range_i32(1, 100);
            code.insert(
                at,
                AsmInst::BinopImm(MBinop::Add32, Mreg(0), Mreg(0), Val::Int(k)),
            );
            format!("{fname}: r0 += {k} before Ret@{at}")
        }
        MutationClass::CalleeSaveClobber => {
            let rets = sites(code, |i| matches!(i, AsmInst::Ret));
            let at = *rng.pick(&rets)?;
            let r = rng.range_i32(8, 13) as u8;
            let v = rng.next_u32() as i64;
            code.insert(at, AsmInst::MovImm64(Mreg(r), v));
            format!("{fname}: clobber callee-save r{r} before Ret@{at}")
        }
        MutationClass::ExternalArgCorruption => {
            let calls = sites(
                code,
                |i| matches!(i, AsmInst::Call(g) if externs.iter().any(|e| e == g)),
            );
            let at = *rng.pick(&calls)?;
            let k = rng.range_i32(1, 100);
            code.insert(
                at,
                AsmInst::BinopImm(MBinop::Add32, Mreg(0), Mreg(0), Val::Int(k)),
            );
            format!("{fname}: arg r0 += {k} before external Call@{at}")
        }
        MutationClass::ExternalCallSkip => {
            let calls = sites(
                code,
                |i| matches!(i, AsmInst::Call(g) if externs.iter().any(|e| e == g)),
            );
            let at = *rng.pick(&calls)?;
            let k = rng.range_i32(-100, 100);
            code[at] = AsmInst::MovImm32(Mreg(0), k);
            format!("{fname}: external Call@{at} replaced by r0 := {k}")
        }
        MutationClass::StackFrameLeak => {
            let ffs = sites(code, |i| matches!(i, AsmInst::FreeFrame(_)));
            let at = *rng.pick(&ffs)?;
            code[at] = AsmInst::AddSp(0);
            format!("{fname}: FreeFrame@{at} skipped")
        }
        MutationClass::RaClobber => {
            let ras = sites(code, |i| matches!(i, AsmInst::RestoreRa(_)));
            let at = *rng.pick(&ras)?;
            code[at] = AsmInst::AddSp(0);
            format!("{fname}: RestoreRa@{at} skipped")
        }
        MutationClass::GlobalStoreCorruption => {
            let stores = sites(code, |i| matches!(i, AsmInst::Store(_, _, _, _)));
            let at = *rng.pick(&stores)?;
            let AsmInst::Store(_, src, _, _) = code[at] else {
                return None;
            };
            let k = rng.range_i32(1, 100);
            code.insert(at, AsmInst::BinopImm(MBinop::Add32, src, src, Val::Int(k)));
            format!("{fname}: stored value r{} += {k} before Store@{at}", src.0)
        }
        MutationClass::ConstantDrift => {
            let imms = sites(code, |i| {
                matches!(
                    i,
                    AsmInst::BinopImm(_, _, _, Val::Int(_)) | AsmInst::MovImm32(_, _)
                )
            });
            let at = *rng.pick(&imms)?;
            let d = rng.range_i32(1, 5);
            match &mut code[at] {
                AsmInst::BinopImm(_, _, _, Val::Int(n)) | AsmInst::MovImm32(_, n) => {
                    *n = n.wrapping_add(d);
                }
                _ => return None,
            }
            format!("{fname}: immediate@{at} drifted by {d}")
        }
        MutationClass::ControlFlowInversion => {
            let jccs = sites(code, |i| matches!(i, AsmInst::Jcc(_, _)));
            let at = *rng.pick(&jccs)?;
            let AsmInst::Jcc(_, l) = code[at].clone() else {
                return None;
            };
            code[at] = AsmInst::Jmp(l);
            format!("{fname}: Jcc@{at} made unconditional")
        }
        MutationClass::RtlConstantDrift => unreachable!("handled above"),
    };
    Some(Mutant {
        unit,
        mutation: Mutation { class, desc },
    })
}

/// RTL-level mutation: drift one immediate in the optimized RTL of `fname`
/// and re-run the backend tail so the fault propagates through Allocation,
/// Tunneling, Linearize, CleanupLabels, Debugvar, Stacking and Asmgen.
fn mutate_rtl(unit: &CompiledUnit, fname: &str, rng: &mut SplitMix64) -> Option<Mutant> {
    let mut unit = unit.clone();
    let f = unit
        .rtl_opt
        .functions
        .iter_mut()
        .find(|f| f.name == fname)?;
    let imm_nodes: Vec<u32> = f
        .code
        .iter()
        .filter(|(_, i)| {
            matches!(
                i,
                RtlInst::Op(RtlOp::Int(_), _, _)
                    | RtlInst::Op(RtlOp::BinopImm(_, _, Val::Int(_)), _, _)
            )
        })
        .map(|(n, _)| *n)
        .collect();
    let node = *rng.pick(&imm_nodes)?;
    let d = rng.range_i32(1, 5);
    match f.code.get_mut(&node)? {
        RtlInst::Op(RtlOp::Int(n), _, _)
        | RtlInst::Op(RtlOp::BinopImm(_, _, Val::Int(n)), _, _) => {
            *n = n.wrapping_add(d);
        }
        _ => return None,
    }
    // Re-run the backend tail on the mutated RTL.
    let r = renumber(&unit.rtl_opt);
    let ltl = allocation(&r);
    let ltl_tunneled = tunneling(&ltl);
    let linear_raw = linearize(&ltl_tunneled);
    let linear = debugvar(&cleanup_labels(&linear_raw));
    let mach = stacking(&linear).ok()?;
    let (asm, ra_map) = asmgen(&mach);
    unit.rtl_opt = r;
    unit.ltl = ltl;
    unit.ltl_tunneled = ltl_tunneled;
    unit.linear_raw = linear_raw;
    unit.linear = linear;
    unit.mach = mach;
    unit.asm = asm;
    unit.ra_map = ra_map;
    Some(Mutant {
        unit,
        mutation: Mutation {
            class: MutationClass::RtlConstantDrift,
            desc: format!("{fname}: RTL immediate@node{node} drifted by {d}"),
        },
    })
}

/// Every name [`classify`] can produce, in declaration order. The
/// checkpoint reader interns parsed histogram keys through this table to
/// rebuild the `&'static str`-keyed [`ClassStats::errors`] maps.
pub const ERROR_CLASSES: [&str; 13] = [
    "CannotTransportQuery",
    "QueryNotRelated",
    "NotAccepted",
    "Wrong",
    "OutOfFuel",
    "BudgetExceeded",
    "Precondition",
    "InteractionMismatch",
    "ExternalNotRelated",
    "EnvRefused",
    "CannotTransportReply",
    "EnvRepliesNotRelated",
    "FinalNotRelated",
];

/// Map an error-class name back to its interned `&'static str` (used when
/// resuming a campaign from a checkpoint).
#[must_use]
pub fn intern_error_class(name: &str) -> Option<&'static str> {
    ERROR_CLASSES.iter().copied().find(|c| *c == name)
}

/// Stable name of the error class a checker outcome falls into.
pub fn classify(err: &SimCheckError) -> &'static str {
    match err {
        SimCheckError::CannotTransportQuery => "CannotTransportQuery",
        SimCheckError::QueryNotRelated => "QueryNotRelated",
        SimCheckError::NotAccepted { .. } => "NotAccepted",
        SimCheckError::Wrong { .. } => "Wrong",
        SimCheckError::OutOfFuel { .. } => "OutOfFuel",
        SimCheckError::BudgetExceeded { .. } => "BudgetExceeded",
        SimCheckError::Precondition(_) => "Precondition",
        SimCheckError::InteractionMismatch { .. } => "InteractionMismatch",
        SimCheckError::ExternalNotRelated { .. } => "ExternalNotRelated",
        SimCheckError::EnvRefused => "EnvRefused",
        SimCheckError::CannotTransportReply => "CannotTransportReply",
        SimCheckError::EnvRepliesNotRelated { .. } => "EnvRepliesNotRelated",
        SimCheckError::FinalNotRelated => "FinalNotRelated",
    }
}

/// The fixed campaign workload: calls an external, reads and writes a
/// global, loops (so the Asm has a conditional branch), and computes with
/// constants — every mutation class has at least one applicable site.
pub const CAMPAIGN_SRC: &str = "
    extern int inc(int);
    int shared = 11;
    int helper(int x) { return x * 3; }
    int entry(int a) {
        int b; int c; int i; int acc;
        acc = 0;
        i = 0;
        while (i < a) { acc = acc + i; i = i + 1; }
        shared = shared + a;
        b = helper(a + 1);
        c = inc(b + acc);
        return b + c + shared;
    }";

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignCfg {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Mutants generated per class.
    pub per_class: usize,
    /// Fuel per checker side (the only budget axis used — wall-clock
    /// deadlines would break output determinism).
    pub fuel: u64,
    /// Arguments probed per mutant; a mutant is *detected* if the checker
    /// rejects it for at least one probe.
    pub probe_args: Vec<i64>,
    /// Worker-pool width for the probe fan-out. Mutant *generation* stays
    /// serial (it threads one RNG), so the report is byte-identical for
    /// every setting; probes are independent and run on the pool.
    pub jobs: Jobs,
}

impl Default for CampaignCfg {
    fn default() -> Self {
        CampaignCfg {
            seed: 42,
            per_class: 25,
            // Far above what any honest probe run needs (~10^3 steps), far
            // below the harness default: divergent mutants (e.g. inverted
            // branches) are detected as OutOfFuel without burning minutes.
            fuel: FUEL / 50,
            probe_args: vec![0, 3, 7],
            jobs: Jobs::Auto,
        }
    }
}

/// Per-class sensitivity tallies.
#[derive(Debug, Clone)]
pub struct ClassStats {
    /// The operator.
    pub class: MutationClass,
    /// Mutants generated (applicable sites found).
    pub generated: usize,
    /// Mutants rejected by the checker on at least one probe.
    pub detected: usize,
    /// Mutants flagged by the static validation layer
    /// ([`crate::validate::validate_unit`]) without running anything.
    pub static_caught: usize,
    /// Mutants caught by *both* the static layer and the dynamic checker.
    pub caught_both: usize,
    /// Of the detected, how many triggered the error class expected for
    /// this clause.
    pub expected_class: usize,
    /// Histogram of first-error classes over the detected mutants.
    pub errors: BTreeMap<&'static str, usize>,
}

impl ClassStats {
    /// Mutants the dynamic checker accepted on every probe (dynamic
    /// escapes).
    pub fn escapes(&self) -> usize {
        self.generated - self.detected
    }

    /// Mutants neither layer caught (fully silent escapes).
    pub fn escapes_both(&self) -> usize {
        // |caught by either| = static + dynamic - both (inclusion-exclusion).
        let either = self.static_caught + self.detected - self.caught_both;
        self.generated.saturating_sub(either)
    }
}

/// The campaign result: one row per mutation class.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The configuration that produced it.
    pub cfg: CampaignCfg,
    /// Per-class tallies, in [`MUTATION_CLASSES`] order.
    pub stats: Vec<ClassStats>,
    /// Deterministic observability counters summed over every mutant check
    /// (static validation + dynamic probes). Each mutant's delta is captured
    /// on the worker thread that ran it and the fold is a commutative `u64`
    /// sum in mutant order, so the bag is byte-identical for every
    /// `cfg.jobs` setting.
    pub counters: crate::obs::Counters,
}

impl CampaignReport {
    /// Total mutants generated.
    pub fn total_generated(&self) -> usize {
        self.stats.iter().map(|s| s.generated).sum()
    }

    /// Total dynamic escapes across all classes.
    pub fn total_escapes(&self) -> usize {
        self.stats.iter().map(|s| s.escapes()).sum()
    }

    /// Mutation classes *statically caught*: every generated mutant of the
    /// class was flagged by the validation layer without running anything.
    pub fn statically_caught_classes(&self) -> usize {
        self.stats
            .iter()
            .filter(|s| s.generated > 0 && s.static_caught == s.generated)
            .count()
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fault-injection campaign: seed={} per-class={} fuel={} probes={:?}",
            self.cfg.seed, self.cfg.per_class, self.cfg.fuel, self.cfg.probe_args
        )?;
        writeln!(
            f,
            "{:<24} {:>8} {:>8} {:>7} {:>7} {:>9}  error classes",
            "class", "mutants", "detected", "static", "escaped", "expected"
        )?;
        for s in &self.stats {
            let hist = s
                .errors
                .iter()
                .map(|(k, v)| format!("{k}:{v}"))
                .collect::<Vec<_>>()
                .join(" ");
            writeln!(
                f,
                "{:<24} {:>8} {:>8} {:>7} {:>7} {:>9}  {}",
                s.class.name(),
                s.generated,
                s.detected,
                s.static_caught,
                s.escapes(),
                format!("{}/{}", s.expected_class, s.detected),
                hist
            )?;
        }
        write!(
            f,
            "total: {} mutants, {} escapes",
            self.total_generated(),
            self.total_escapes()
        )
    }
}

/// Check one mutant against every probe argument; returns the first
/// rejection, or `None` if the checker accepted all probes (an escape).
fn probe_mutant(
    mutant: &Mutant,
    symtab: &SymbolTable,
    lib: &ExtLib,
    cfg: &CampaignCfg,
) -> Option<SimCheckError> {
    // The tallies only use the error *class*, never the diagnostic step
    // trace — disable the ring buffer so the probe inner loop does not
    // clone interpreter states.
    let budget = RunBudget::with_fuel(cfg.fuel).no_trace();
    for &x in &cfg.probe_args {
        let q = match try_c_query(symtab, &mutant.unit, "entry", vec![Val::Int(x as i32)]) {
            Ok(q) => q,
            Err(e) => return Some(SimCheckError::Precondition(e)),
        };
        if let Err(e) = check_thm38_budgeted(&mutant.unit, symtab, lib, &q, &budget) {
            return Some(e);
        }
    }
    None
}

/// The compiled campaign workload plus everything the checker needs,
/// prepared once and shared by the per-class runs (the campaign's
/// checkpoint/resume granularity is one mutation class).
pub struct CampaignBase {
    baseline: CompiledUnit,
    symtab: SymbolTable,
    lib: ExtLib,
}

impl CampaignBase {
    /// Compile [`CAMPAIGN_SRC`] and sanity-check that the unmutated
    /// program passes both the dynamic checker and static validation —
    /// otherwise every tally downstream is noise.
    ///
    /// # Errors
    /// Reports a compilation or baseline-sanity failure as a string.
    pub fn prepare(cfg: &CampaignCfg) -> Result<CampaignBase, String> {
        let (mut units, symtab) =
            compile_all_jobs(&[CAMPAIGN_SRC], CompilerOptions::default(), cfg.jobs)
                .map_err(|e| format!("campaign workload failed to compile: {e:?}"))?;
        let baseline = units.remove(0);
        let lib = ExtLib::demo(symtab.clone());
        let base_mutant = Mutant {
            unit: baseline.clone(),
            mutation: Mutation {
                class: MutationClass::ResultCorruption,
                desc: "baseline".into(),
            },
        };
        if let Some(e) = probe_mutant(&base_mutant, &symtab, &lib, cfg) {
            return Err(format!("baseline program fails the checker: {e}"));
        }
        let base_diags = crate::validate::validate_unit(&baseline, &symtab);
        if !base_diags.is_empty() {
            return Err(format!(
                "baseline program fails static validation: {}",
                base_diags[0]
            ));
        }
        Ok(CampaignBase {
            baseline,
            symtab,
            lib,
        })
    }

    /// The symbol table the workload was compiled against.
    #[must_use]
    pub fn symtab(&self) -> &SymbolTable {
        &self.symtab
    }

    /// The mutants of class `MUTATION_CLASSES[ci]`, in generation order: a
    /// pure function of `cfg.seed`, `cfg.per_class` and `ci`. The class's
    /// RNG stream is reconstructed by replaying the master RNG's splits
    /// (`split()` draws once from the master per class, so class `ci` owns
    /// the (ci+1)-th split stream regardless of which classes ran before).
    ///
    /// # Panics
    /// Panics when `ci` is out of range for [`MUTATION_CLASSES`].
    #[must_use]
    pub fn class_mutants(&self, cfg: &CampaignCfg, ci: usize) -> Vec<Mutant> {
        let class = MUTATION_CLASSES[ci];
        let mut master = SplitMix64::new(cfg.seed);
        let mut rng = master.split();
        for _ in 0..ci {
            rng = master.split();
        }
        let mut mutants: Vec<Mutant> = Vec::new();
        let mut attempts = 0usize;
        while mutants.len() < cfg.per_class && attempts < cfg.per_class * 4 {
            attempts += 1;
            mutants.extend(mutate(&self.baseline, "entry", class, &mut rng));
        }
        mutants
    }
}

/// Run one mutation class (`MUTATION_CLASSES[ci]`) of the campaign: the
/// resumable unit of work. A pure function of `(cfg, ci)` — the class's
/// RNG stream is reconstructed by replaying the master RNG's splits, so
/// running classes 0..k, checkpointing, and resuming at k+1 in a fresh
/// process produces exactly the tallies of the uninterrupted run.
///
/// Three phases, split so the expensive one parallelizes without touching
/// determinism:
///
/// 1. **Generate** (serial, [`CampaignBase::class_mutants`]): mutation
///    sites and payloads thread one [`SplitMix64`] per class — the mutant
///    stream is a pure function of `cfg.seed` and `ci`.
/// 2. **Check** (parallel): every mutant's static validation + dynamic
///    probes are independent; they fan out over `cfg.jobs` workers
///    ([`par_map`] returns results in input order).
/// 3. **Tally** (serial): fold the ordered results into the class row.
///
/// # Panics
/// Panics when `ci` is out of range for [`MUTATION_CLASSES`].
#[must_use]
pub fn run_campaign_class(
    cfg: &CampaignCfg,
    base: &CampaignBase,
    ci: usize,
) -> (ClassStats, crate::obs::Counters) {
    let class = MUTATION_CLASSES[ci];

    // Phase 1 — generate (serial, seed-deterministic).
    let mutants = base.class_mutants(cfg, ci);
    let generated = mutants.len();

    // Phase 2 — check (parallel; results come back in input order). Each
    // mutant's observability delta is captured entirely on the worker thread
    // that checks it, so the per-mutant bags are schedule-invariant.
    let outcomes: Vec<(bool, Option<SimCheckError>, crate::obs::Counters)> =
        par_map(cfg.jobs, &mutants, |_, m| {
            let snap = crate::obs::ObsSnapshot::take();
            let statically = !crate::validate::validate_unit(&m.unit, &base.symtab).is_empty();
            let dynamic = probe_mutant(m, &base.symtab, &base.lib, cfg);
            (statically, dynamic, snap.delta())
        });

    // Phase 3 — tally (serial fold over the ordered outcomes).
    let mut st = ClassStats {
        class,
        generated,
        detected: 0,
        static_caught: 0,
        caught_both: 0,
        expected_class: 0,
        errors: BTreeMap::new(),
    };
    let mut counters = crate::obs::Counters::default();
    for (mutant, (statically, dynamic, delta)) in mutants.iter().zip(&outcomes) {
        if *statically {
            st.static_caught += 1;
        }
        if let Some(err) = dynamic {
            st.detected += 1;
            if *statically {
                st.caught_both += 1;
            }
            *st.errors.entry(classify(err)).or_insert(0) += 1;
            if mutant.mutation.class.matches_expected(err) {
                st.expected_class += 1;
            }
        }
        counters.add(delta);
    }
    (st, counters)
}

/// Run a full campaign: [`CampaignBase::prepare`] once, then
/// [`run_campaign_class`] for every class in [`MUTATION_CLASSES`] order.
/// The report is byte-identical for every `jobs` setting, and — because
/// each class is a pure function of `(cfg, ci)` — identical whether the
/// classes ran in one process or across a checkpoint/resume boundary.
///
/// # Errors
/// Reports a compilation failure of the campaign workload as a string.
pub fn run_campaign(cfg: &CampaignCfg) -> Result<CampaignReport, String> {
    let base = CampaignBase::prepare(cfg)?;
    let mut stats: Vec<ClassStats> = Vec::with_capacity(MUTATION_CLASSES.len());
    let mut counters = crate::obs::Counters::default();
    for ci in 0..MUTATION_CLASSES.len() {
        let (st, c) = run_campaign_class(cfg, &base, ci);
        stats.push(st);
        counters.add(&c);
    }
    Ok(CampaignReport {
        cfg: cfg.clone(),
        stats,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::compile_all;

    #[test]
    fn every_class_has_a_site_in_the_campaign_program() {
        let (mut units, _symtab) =
            compile_all(&[CAMPAIGN_SRC], CompilerOptions::default()).expect("compiles");
        let baseline = units.remove(0);
        for &class in &MUTATION_CLASSES {
            let mut rng = SplitMix64::new(7);
            assert!(
                mutate(&baseline, "entry", class, &mut rng).is_some(),
                "no applicable site for {class}"
            );
        }
    }

    #[test]
    fn mutation_is_seed_deterministic() {
        let (mut units, _symtab) =
            compile_all(&[CAMPAIGN_SRC], CompilerOptions::default()).expect("compiles");
        let baseline = units.remove(0);
        for &class in &MUTATION_CLASSES {
            let m1 = mutate(&baseline, "entry", class, &mut SplitMix64::new(99)).unwrap();
            let m2 = mutate(&baseline, "entry", class, &mut SplitMix64::new(99)).unwrap();
            assert_eq!(m1.mutation.desc, m2.mutation.desc);
            assert_eq!(m1.unit.asm, m2.unit.asm, "{class}: asm differs");
        }
    }

    #[test]
    fn static_layer_catches_asm_level_classes() {
        let cfg = CampaignCfg {
            seed: 42,
            per_class: 2,
            fuel: 2_000_000,
            probe_args: vec![0, 3],
            jobs: Jobs::Auto,
        };
        let report = run_campaign(&cfg).expect("campaign runs");
        assert_eq!(
            report.statically_caught_classes(),
            report.stats.len(),
            "every mutation class must be caught statically"
        );
        for s in &report.stats {
            // RtlConstantDrift used to be the principled static escape: a
            // consistent backend re-run faithfully implements the (wrong)
            // RTL, so no backend validator can flag it. The abstract-
            // interpretation validators close it by checking the final RTL
            // against the per-unit `rtl_ndce_in` snapshot, which the drift
            // does not (and cannot) patch.
            assert_eq!(
                s.static_caught, s.generated,
                "{}: tampering must be caught statically",
                s.class
            );
        }
    }

    #[test]
    fn small_campaign_detects_all_classes() {
        let cfg = CampaignCfg {
            seed: 42,
            per_class: 3,
            fuel: 2_000_000,
            probe_args: vec![0, 3, 7],
            jobs: Jobs::Auto,
        };
        let report = run_campaign(&cfg).expect("campaign runs");
        assert_eq!(report.stats.len(), MUTATION_CLASSES.len());
        for s in &report.stats {
            assert!(s.generated > 0, "{}: no mutants generated", s.class);
            assert_eq!(
                s.escapes(),
                0,
                "{}: {} silent escapes",
                s.class,
                s.escapes()
            );
            assert_eq!(
                s.expected_class, s.detected,
                "{}: unexpected error classes {:?}",
                s.class, s.errors
            );
        }
    }
}
