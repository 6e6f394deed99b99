//! Cross-stage differential testing: the seeded-generator oracle.
//!
//! [`compcerto_gen`] produces well-defined multi-unit Clight-mini programs;
//! this module runs each one through the interpreter of (almost) every
//! pipeline stage — Clight, SimplLocals'd Clight, RTL, optimized RTL,
//! Linear, Mach and Asm — under *identical* incoming questions and one
//! shared [`RunBudget`], then compares what each level observed:
//!
//! * the final answer (normalized to an [`ObsVal`]);
//! * the outgoing-question trace (callee name and returned value, recorded
//!   inside the environment closure at each level's own interface);
//! * the memory-visible effects (final contents of every mutable global,
//!   read back per its [`InitDatum`] layout).
//!
//! Any disagreement, any non-budget [`RunOutcome::Wrong`], any refused
//! environment question, and any static-validator rejection is a *finding*
//! ([`FindingKind`]); budget exhaustion at any stage merely skips the query
//! (possible divergence under a finite budget is not a verdict). On a
//! finding, [`run_seed`] invokes the delta-debugging reducer
//! ([`fn@compcerto_gen::reduce`]) with a same-kind predicate and attaches a
//! minimal self-contained reproducer.
//!
//! Two *metamorphic* link-composition checks ride along (paper Thm 3.8 /
//! Cor 3.9 territory): compile-each-unit-then-[`link_asm`] must observe the
//! same behaviour as [`fn@clight::link`]-then-compile, and for two-unit
//! programs the horizontal composition `Asm(p1) ⊕ Asm(p2)` must simulate the
//! linked Asm ([`check_thm35_budgeted`]).
//!
//! One stage table per program drives all seven interpreters: each stage
//! names its semantics, built once and shared, and the semantics' interface
//! fixes how the C queries reach it. One runner drives any stage unwrapped,
//! for the sequential oracle ([`check_query`], [`run_stage`]), or inside
//! [`ThreadedLts`] under a [`Schedule`], for the threaded oracle
//! ([`check_query_sched`], swept per seed by [`crate::sched`]); one
//! comparison loop turns either mode's observations into a [`Verdict`].
//!
//! Everything here is a pure function of `(seed, DifftestCfg)` — no
//! wall-clock budgets, no global state — so campaigns parallelize with
//! byte-identical reports (see the `difftest_campaign` binary).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::OnceLock;

use backend::asmgen::{make_ra_oracle, RaMap};
use backend::{link_asm, AsmProgram, AsmSem, LinProgram, LinearSem, MachProgram, MachSem};
use clight::{build_symtab, ClightSem};
use compcerto_core::cc::{Ca, Cl};
use compcerto_core::conv::SimConv;
use compcerto_core::iface::{
    abi, ARegs, CQuery, CReply, LQuery, LReply, LanguageInterface, MQuery, MReply, SharedMem,
    Signature, A, C, L, M,
};
use compcerto_core::lts::{run_budgeted, Event, Lts, RunBudget, RunOutcome};
use compcerto_core::regs::{Loc, NREGS};
use compcerto_core::rng::SplitMix64;
use compcerto_core::sim::SimCheckError;
use compcerto_core::symtab::{GlobKind, InitDatum, SymbolTable};
use compcerto_core::threaded::{Schedule, ThreadedLts};
use compcerto_gen::generate::gen_queries;
use compcerto_gen::{generate, reduce, GProgram, GenCfg, ReduceStats};
use mem::{Chunk, Mem, Val};
use rtl::{RtlProgram, RtlSem};

use crate::driver::{compile_all, compile_typed_jobs, CompiledUnit, CompilerOptions};
use crate::extlib::ExtLib;
use crate::faultinj::{mutate, MutationClass, MUTATION_CLASSES};
use crate::harness::{check_thm35_budgeted, check_thm38_budgeted, try_c_query};
use crate::par::Jobs;

/// The stages the oracle compares, in pipeline order. `"clight"` is the
/// baseline every other stage is compared against.
pub const STAGES: [&str; 7] = [
    "clight",
    "simpl-locals",
    "rtl",
    "rtl-opt",
    "linear",
    "mach",
    "asm",
];

/// Oracle configuration.
#[derive(Debug, Clone)]
pub struct DifftestCfg {
    /// Shape of the generated programs.
    pub gen: GenCfg,
    /// Incoming queries per program.
    pub queries: usize,
    /// Fuel per stage execution (the only budget axis: wall-clock deadlines
    /// would break determinism).
    pub fuel: u64,
    /// Run the metamorphic link-composition checks on multi-unit programs.
    pub check_links: bool,
    /// Shrink findings to a minimal reproducer.
    pub reduce: bool,
    /// Predicate-evaluation budget for the reducer.
    pub reduce_checks: usize,
}

impl Default for DifftestCfg {
    fn default() -> Self {
        DifftestCfg {
            gen: GenCfg::default(),
            queries: 3,
            fuel: 2_000_000,
            check_links: true,
            reduce: true,
            reduce_checks: 400,
        }
    }
}

impl DifftestCfg {
    /// A smaller profile for high-volume campaigns and CI.
    pub fn quick() -> DifftestCfg {
        DifftestCfg {
            gen: GenCfg::quick(),
            queries: 2,
            fuel: 1_000_000,
            reduce_checks: 250,
            ..DifftestCfg::default()
        }
    }
}

/// A normalized observed value: concrete integers compare exactly, pointers
/// are opaque (block numbering differs across levels and symbol tables), and
/// anything else is lumped together.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsVal {
    /// A 32-bit integer.
    Int(i32),
    /// A 64-bit integer.
    Long(i64),
    /// Some pointer (opaque: block identity is not stable across levels).
    Ptr,
    /// The undefined value.
    Undef,
    /// A float or other value class the generator never produces.
    Other,
}

impl fmt::Display for ObsVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsVal::Int(n) => write!(f, "int:{n}"),
            ObsVal::Long(n) => write!(f, "long:{n}"),
            ObsVal::Ptr => write!(f, "ptr"),
            ObsVal::Undef => write!(f, "undef"),
            ObsVal::Other => write!(f, "other"),
        }
    }
}

fn obs_val(v: &Val) -> ObsVal {
    match v {
        Val::Int(n) => ObsVal::Int(*n),
        Val::Long(n) => ObsVal::Long(*n),
        Val::Ptr(_, _) => ObsVal::Ptr,
        Val::Undef => ObsVal::Undef,
        _ => ObsVal::Other,
    }
}

/// Everything one stage observed while answering one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Obs {
    /// The final answer (result register / return value), normalized.
    pub result: ObsVal,
    /// Outgoing questions in order: callee name and the value the
    /// environment returned, extracted at the stage's own interface.
    pub ext: Vec<(String, ObsVal)>,
    /// Final contents of every mutable global, read per its layout.
    pub globals: Vec<(String, Vec<ObsVal>)>,
}

/// Write `items` as `[a b c]`, each through `item`.
fn bracketed<T>(
    f: &mut fmt::Formatter<'_>,
    items: &[T],
    item: impl Fn(&mut fmt::Formatter<'_>, &T) -> fmt::Result,
) -> fmt::Result {
    f.write_str("[")?;
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(" ")?;
        }
        item(f, x)?;
    }
    f.write_str("]")
}

impl fmt::Display for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "result={}", self.result)?;
        if !self.ext.is_empty() {
            f.write_str(" ext=")?;
            bracketed(f, &self.ext, |f, (n, v)| write!(f, "{n}->{v}"))?;
        }
        for (name, vals) in &self.globals {
            write!(f, " {name}=")?;
            bracketed(f, vals, |f, v| write!(f, "{v}"))?;
        }
        Ok(())
    }
}

/// Everything one stage observed while answering one threaded query under
/// one schedule: the sequential observation ([`Obs`]) plus the schedule
/// trace (the `sched:`/`exit:` annotation stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedObs {
    /// Result, interleaved external-call record, and final mutable globals.
    pub obs: Obs,
    /// The annotation stream of the threaded run — dispatch decisions and
    /// thread exits with stage-invariantly rendered exit values.
    pub trace: Vec<String>,
}

impl fmt::Display for SchedObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} trace=", self.obs)?;
        bracketed(f, &self.trace, |f, t| f.write_str(t))
    }
}

/// Outcome of running one stage on one query: `O` is what a completed run
/// observed ([`Obs`], or [`SchedObs`] for a threaded run).
#[derive(Debug, Clone)]
pub enum StageOutcome<O = Obs> {
    /// The stage completed; here is what it observed.
    Ok(O),
    /// A budget quota was exhausted — not a verdict, the query is skipped.
    Budget(String),
    /// The interpreter got stuck (a finding: generated programs are
    /// well-defined by construction).
    Stuck(String),
    /// The environment refused an outgoing question (a finding: the model
    /// library answers everything the generator emits).
    EnvRefused(String),
    /// The query could not be transported to this stage's interface.
    Transport(String),
}

/// What kind of bug a finding is. The reducer predicate keys on
/// [`FindingKind::tag`], so shrinking preserves the failure class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingKind {
    /// The generated program failed to compile (or link).
    Compile,
    /// The static validation layer rejected a translation.
    ValidatorRejected,
    /// Two stages observed different behaviour.
    Disagreement {
        /// The stage that diverged from the Clight baseline.
        stage: &'static str,
    },
    /// A stage interpreter got stuck on a well-defined program.
    Stuck {
        /// The stuck stage.
        stage: &'static str,
    },
    /// The model environment refused a question it should answer.
    EnvRefused {
        /// The refusing stage.
        stage: &'static str,
    },
    /// A query could not be transported down to a stage's interface.
    Transport {
        /// The stage whose transport failed.
        stage: &'static str,
    },
    /// A metamorphic link-composition check failed (compile∘link vs
    /// link∘compile, or `⊕` vs syntactic linking).
    LinkMismatch,
}

impl FindingKind {
    /// Stable kebab-case class name (reducer predicate and reports).
    pub fn tag(&self) -> &'static str {
        match self {
            FindingKind::Compile => "compile",
            FindingKind::ValidatorRejected => "validator-rejected",
            FindingKind::Disagreement { .. } => "disagreement",
            FindingKind::Stuck { .. } => "stuck",
            FindingKind::EnvRefused { .. } => "env-refused",
            FindingKind::Transport { .. } => "transport",
            FindingKind::LinkMismatch => "link-mismatch",
        }
    }
}

impl fmt::Display for FindingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FindingKind::Disagreement { stage }
            | FindingKind::Stuck { stage }
            | FindingKind::EnvRefused { stage }
            | FindingKind::Transport { stage } => write!(f, "{}@{stage}", self.tag()),
            _ => f.write_str(self.tag()),
        }
    }
}

/// Verdict of the oracle on one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedOutcome {
    /// Every (non-skipped) query agreed at every stage.
    Agree {
        /// Queries fully compared.
        queries_run: usize,
        /// Queries skipped for budget exhaustion at some stage.
        queries_skipped: usize,
    },
    /// Every query was budget-limited — no verdict for this seed.
    Skipped(String),
    /// A bug (or a bug in this harness): see the kind and detail.
    Finding {
        /// The failure class.
        kind: FindingKind,
        /// Human-readable context (query index, both observations, …).
        detail: String,
    },
}

/// A minimal reproducer attached to a finding.
#[derive(Debug, Clone)]
pub struct Reproducer {
    /// Self-contained annotated source (seed banner + unit separators).
    pub source: String,
    /// Statements in the reduced program.
    pub stmts: usize,
    /// Reduction statistics.
    pub stats: ReduceStats,
}

/// The full per-seed report of [`run_seed`].
#[derive(Debug, Clone)]
pub struct SeedReport {
    /// The seed.
    pub seed: u64,
    /// The oracle verdict.
    pub outcome: SeedOutcome,
    /// Present iff the outcome is a finding and reduction was enabled.
    pub reproducer: Option<Reproducer>,
}

// ---------------------------------------------------------------------------
// Stage program construction: linked / merged whole programs per IR
// ---------------------------------------------------------------------------

/// The per-stage merged programs of one multi-unit compilation.
#[derive(Debug, Clone)]
pub struct StagePrograms {
    /// Syntactically linked typed Clight.
    pub clight: clight::Program,
    /// Linked SimplLocals'd Clight.
    pub clight_simpl: clight::Program,
    /// Concatenated pre-optimization RTL.
    pub rtl: RtlProgram,
    /// Concatenated optimized RTL.
    pub rtl_opt: RtlProgram,
    /// Concatenated Linear.
    pub linear: LinProgram,
    /// Concatenated Mach.
    pub mach: MachProgram,
    /// Union of the per-unit return-address maps (function names are
    /// program-unique, so the maps never clash).
    pub ra_map: RaMap,
    /// Syntactically linked Asm.
    pub asm: AsmProgram,
}

fn merge_externs(
    externs: &mut Vec<(String, Signature)>,
    more: &[(String, Signature)],
    defined: &BTreeSet<String>,
) {
    for (n, s) in more {
        if !defined.contains(n) && !externs.iter().any(|(m, _)| m == n) {
            externs.push((n.clone(), s.clone()));
        }
    }
}

macro_rules! merge_ir {
    ($units:expr, $field:ident, $ty:ty) => {{
        let mut out = <$ty>::default();
        for u in $units {
            out.functions.extend(u.$field.functions.iter().cloned());
        }
        let defined: BTreeSet<String> = out.functions.iter().map(|f| f.name.clone()).collect();
        for u in $units {
            merge_externs(&mut out.externs, &u.$field.externs, &defined);
        }
        out
    }};
}

impl StagePrograms {
    /// Link / merge the per-unit intermediate programs into per-stage whole
    /// programs.
    ///
    /// # Errors
    /// Reports a Clight- or Asm-level linking failure as a string.
    pub fn build(units: &[CompiledUnit]) -> Result<StagePrograms, String> {
        let first = units.first().ok_or("no units")?;
        let mut clight = first.clight.clone();
        let mut clight_simpl = first.clight_simpl.clone();
        let mut asm = first.asm.clone();
        for u in &units[1..] {
            clight = clight::link(&clight, &u.clight).map_err(|e| format!("clight link: {e:?}"))?;
            clight_simpl = clight::link(&clight_simpl, &u.clight_simpl)
                .map_err(|e| format!("simpl-locals link: {e:?}"))?;
            asm = link_asm(&asm, &u.asm).map_err(|e| format!("asm link: {e}"))?;
        }
        let mut ra_map = RaMap::new();
        for u in units {
            ra_map.extend(u.ra_map.iter().map(|(k, v)| (k.clone(), *v)));
        }
        Ok(StagePrograms {
            clight,
            clight_simpl,
            rtl: merge_ir!(units, rtl, RtlProgram),
            rtl_opt: merge_ir!(units, rtl_opt, RtlProgram),
            linear: merge_ir!(units, linear, LinProgram),
            mach: merge_ir!(units, mach, MachProgram),
            ra_map,
            asm,
        })
    }
}

// ---------------------------------------------------------------------------
// The stage table: one runner for all seven stages, unwrapped or threaded
// ---------------------------------------------------------------------------

fn name_of(symtab: &SymbolTable, vf: &Val) -> String {
    match vf {
        Val::Ptr(b, 0) => symtab
            .ident_of(*b)
            .map(str::to_string)
            .unwrap_or_else(|| format!("?block{b}")),
        other => format!("?{other:?}"),
    }
}

/// Read back the final contents of every mutable global, laid out per its
/// [`InitDatum`] list. Unreadable cells observe as [`ObsVal::Undef`].
fn read_globals(symtab: &SymbolTable, m: &Mem) -> Vec<(String, Vec<ObsVal>)> {
    let mut out = Vec::new();
    for (b, name, kind) in symtab.iter() {
        let GlobKind::Var { init, readonly } = kind else {
            continue;
        };
        if *readonly {
            continue;
        }
        let mut vals = Vec::new();
        let mut ofs = 0i64;
        for d in init {
            match d {
                InitDatum::Int32(_) => {
                    vals.push(obs_val(&m.load(Chunk::I32, b, ofs).unwrap_or(Val::Undef)));
                }
                InitDatum::Int64(_) => {
                    vals.push(obs_val(&m.load(Chunk::I64, b, ofs).unwrap_or(Val::Undef)));
                }
                InitDatum::Space(n) => {
                    // 8-byte cells, then any 4-byte remainder as an `int`.
                    let mut o = 0i64;
                    while o + 4 <= *n {
                        let chunk = if o + 8 <= *n { Chunk::I64 } else { Chunk::I32 };
                        vals.push(obs_val(&m.load(chunk, b, ofs + o).unwrap_or(Val::Undef)));
                        o += chunk.size();
                    }
                }
            }
            ofs += d.size();
        }
        out.push((name.to_string(), vals));
    }
    out
}

/// How the oracle meets one language interface: how a C query reaches it,
/// how the model library answers its outgoing questions, and where a
/// question's callee and an answer's result live.
trait Iface: LanguageInterface<Question: SharedMem, Answer: SharedMem> {
    /// The convention transporting C queries here (named on failure).
    const CONV: &'static str;
    /// Transport a C query to this interface.
    fn transport(q: CQuery, symtab: &SymbolTable) -> Option<Self::Question>;
    /// Answer an outgoing question from the model library.
    fn answer(lib: &ExtLib, q: &Self::Question) -> Option<Self::Answer>;
    /// The function an outgoing question calls.
    fn callee(q: &Self::Question) -> &Val;
    /// The result an answer carries, normalized.
    fn result(a: &Self::Answer) -> ObsVal;
}

impl Iface for C {
    const CONV: &'static str = "C";
    fn transport(q: CQuery, _: &SymbolTable) -> Option<CQuery> {
        Some(q)
    }
    fn answer(lib: &ExtLib, q: &CQuery) -> Option<CReply> {
        lib.answer_c(q)
    }
    fn callee(q: &CQuery) -> &Val {
        &q.vf
    }
    fn result(a: &CReply) -> ObsVal {
        obs_val(&a.retval)
    }
}

impl Iface for L {
    const CONV: &'static str = "CL";
    fn transport(q: CQuery, _: &SymbolTable) -> Option<LQuery> {
        Cl.transport_query(&q).map(|(_, lq)| lq)
    }
    fn answer(lib: &ExtLib, q: &LQuery) -> Option<LReply> {
        lib.answer_l(q)
    }
    fn callee(q: &LQuery) -> &Val {
        &q.vf
    }
    fn result(a: &LReply) -> ObsVal {
        obs_val(&a.ls.get(Loc::Reg(abi::RESULT_REG)))
    }
}

impl Iface for M {
    const CONV: &'static str = "CM";
    /// Register arguments in `r0..r3`, overflow arguments stored in a freshly
    /// allocated argument region `sp` points to (mirroring
    /// [`Ca::transport_query`]).
    fn transport(q: CQuery, _: &SymbolTable) -> Option<MQuery> {
        let mut mem = q.mem;
        let spb = mem.alloc(0, abi::size_arguments(&q.sig).max(0));
        let mut rs = [Val::Undef; NREGS];
        for (i, v) in q.args.iter().enumerate() {
            if i < abi::PARAM_REGS.len() {
                rs[abi::PARAM_REGS[i].index()] = *v;
            } else {
                let ofs = ((i - abi::PARAM_REGS.len()) as i64) * 8;
                mem.store(Chunk::Any64, spb, ofs, *v).ok()?;
            }
        }
        Some(MQuery {
            vf: q.vf,
            sp: Val::Ptr(spb, 0),
            ra: Val::Undef,
            rs,
            mem,
        })
    }
    fn answer(lib: &ExtLib, q: &MQuery) -> Option<MReply> {
        lib.answer_m(q)
    }
    fn callee(q: &MQuery) -> &Val {
        &q.vf
    }
    fn result(a: &MReply) -> ObsVal {
        obs_val(&a.rs[abi::RESULT_REG.index()])
    }
}

impl Iface for A {
    const CONV: &'static str = "CA";
    fn transport(q: CQuery, symtab: &SymbolTable) -> Option<ARegs> {
        Ca::new(symtab.len() as u32)
            .transport_query(&q)
            .map(|(_, qa)| qa)
    }
    fn answer(lib: &ExtLib, q: &ARegs) -> Option<ARegs> {
        lib.answer_a(q)
    }
    fn callee(q: &ARegs) -> &Val {
        &q.rs.pc
    }
    fn result(a: &ARegs) -> ObsVal {
        obs_val(&a.rs.get(abi::RESULT_REG))
    }
}

/// The queries one stage run answers.
struct StageRun<'a> {
    symtab: &'a SymbolTable,
    lib: &'a ExtLib,
    /// The main query (thread 0's, when threaded).
    q: &'a CQuery,
    /// `None` runs the semantics unwrapped. `Some((aux, schedule))` runs it
    /// inside [`ThreadedLts`], one thread per auxiliary query. The
    /// sequential oracle stays unwrapped rather than one-threaded: the
    /// wrapper charges an outer step per activation, resume and completion,
    /// which would move the committed `lts.steps` counters and could turn a
    /// run at the fuel edge into a budget skip.
    threads: Threads<'a>,
    budget: &'a RunBudget,
}

/// The auxiliary queries and schedule of a threaded run.
type Threads<'a> = Option<(&'a [CQuery], Schedule)>;

/// Transport the auxiliary queries, then the main one, to interface `I` over
/// one evolving memory. A transport that allocates (the M and A argument
/// regions, the A return-address sentinel) leaves its blocks in the memory
/// the next query starts from, so the main query's memory — which
/// [`ThreadedLts`] adopts as the shared memory — holds every thread's blocks.
fn transport<I: Iface>(r: &StageRun<'_>) -> Result<(I::Question, Vec<I::Question>), String> {
    let aux = r.threads.map_or(&[][..], |(aux, _)| aux);
    let mut mem = r.q.mem.clone();
    let mut taux = Vec::with_capacity(aux.len());
    for aq in aux {
        let t = I::transport(CQuery { mem, ..aq.clone() }, r.symtab)
            .ok_or_else(|| format!("{} transport failed (aux)", I::CONV))?;
        mem = t.mem().clone();
        taux.push(t);
    }
    let tq = I::transport(CQuery { mem, ..r.q.clone() }, r.symtab)
        .ok_or_else(|| format!("{} transport failed", I::CONV))?;
    Ok((tq, taux))
}

/// The annotation stream of a completed run: the `sched:`/`exit:` trace of
/// a threaded run, empty for an unwrapped one.
fn annots(events: &[Event]) -> Vec<String> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Annot(s) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

/// Run the semantics `sem` of one stage on `r`'s queries, recording each
/// external call at the stage's own interface `I`.
fn drive<I: Iface, S: Lts<I = I, O = I>>(sem: &S, r: &StageRun<'_>) -> StageOutcome<SchedObs> {
    let (q, aux) = match transport::<I>(r) {
        Ok(t) => t,
        Err(e) => return StageOutcome::Transport(e),
    };
    let mut ext = Vec::new();
    let mut env = |oq: &I::Question| {
        let a = I::answer(r.lib, oq)?;
        ext.push((name_of(r.symtab, I::callee(oq)), I::result(&a)));
        Some(a)
    };
    let outcome = match r.threads {
        None => run_budgeted(sem, &q, &mut env, r.budget),
        Some((_, schedule)) => {
            let tsem = ThreadedLts::new(sem, aux, schedule)
                .with_exit_renderer(Box::new(|a: &I::Answer| I::result(a).to_string()));
            run_budgeted(&tsem, &q, &mut env, r.budget)
        }
    };
    match outcome {
        RunOutcome::Complete { answer, trace, .. } => StageOutcome::Ok(SchedObs {
            obs: Obs {
                result: I::result(&answer),
                ext,
                globals: read_globals(r.symtab, answer.mem()),
            },
            trace: annots(&trace),
        }),
        RunOutcome::Wrong { stuck, .. } => StageOutcome::Stuck(format!("{stuck}")),
        RunOutcome::EnvRefused(q) => StageOutcome::EnvRefused(q),
        RunOutcome::OutOfFuel { .. } => StageOutcome::Budget("out of fuel".into()),
        RunOutcome::OutOfMemory { used, limit, .. } => {
            StageOutcome::Budget(format!("out of memory: {used} > {limit}"))
        }
        RunOutcome::DepthExceeded { depth, limit, .. } => {
            StageOutcome::Budget(format!("depth exceeded: {depth} > {limit}"))
        }
        RunOutcome::TimedOut { elapsed, .. } => {
            StageOutcome::Budget(format!("timed out after {elapsed:?}"))
        }
    }
}

/// The stage table of one program: the semantics each of [`STAGES`] runs,
/// and the interface whose [`Iface::transport`] carries the C queries to it
/// (identity at C, CL at Linear, the M-query build at Mach, CA at Asm).
///
/// Each semantics is built on first use, then shared by `&` across every
/// query, schedule and pool worker that runs the program.
pub(crate) struct StageTable<'a> {
    sp: &'a StagePrograms,
    symtab: &'a SymbolTable,
    lib: &'a ExtLib,
    budget: &'a RunBudget,
    clight: OnceLock<ClightSem>,
    simpl: OnceLock<ClightSem>,
    rtl: OnceLock<RtlSem>,
    rtl_opt: OnceLock<RtlSem>,
    linear: OnceLock<LinearSem>,
    mach: OnceLock<MachSem>,
    asm: OnceLock<AsmSem>,
}

/// The semantics in `cell`, built from a copy of `prog` on first use.
fn built<'c, P: Clone, S>(
    cell: &'c OnceLock<S>,
    prog: &P,
    symtab: &SymbolTable,
    build: impl FnOnce(P, SymbolTable) -> S,
) -> &'c S {
    cell.get_or_init(|| build(prog.clone(), symtab.clone()))
}

impl<'a> StageTable<'a> {
    /// A table over `sp` whose runs use `symtab`, `lib` and `budget`.
    pub(crate) fn new(
        sp: &'a StagePrograms,
        symtab: &'a SymbolTable,
        lib: &'a ExtLib,
        budget: &'a RunBudget,
    ) -> StageTable<'a> {
        StageTable {
            sp,
            symtab,
            lib,
            budget,
            clight: OnceLock::new(),
            simpl: OnceLock::new(),
            rtl: OnceLock::new(),
            rtl_opt: OnceLock::new(),
            linear: OnceLock::new(),
            mach: OnceLock::new(),
            asm: OnceLock::new(),
        }
    }

    /// Run `stage` on `q`, with the threads of [`StageRun::threads`].
    fn run(&self, stage: &str, q: &CQuery, threads: Threads<'_>) -> StageOutcome<SchedObs> {
        let r = StageRun {
            symtab: self.symtab,
            lib: self.lib,
            q,
            threads,
            budget: self.budget,
        };
        let (sp, st) = (self.sp, self.symtab);
        match stage {
            "clight" => drive::<C, _>(built(&self.clight, &sp.clight, st, ClightSem::new), &r),
            "simpl-locals" => {
                drive::<C, _>(built(&self.simpl, &sp.clight_simpl, st, ClightSem::new), &r)
            }
            "rtl" => drive::<C, _>(built(&self.rtl, &sp.rtl, st, RtlSem::new), &r),
            "rtl-opt" => drive::<C, _>(built(&self.rtl_opt, &sp.rtl_opt, st, RtlSem::new), &r),
            "linear" => drive::<L, _>(built(&self.linear, &sp.linear, st, LinearSem::new), &r),
            "mach" => {
                let mach = built(&self.mach, &sp.mach, st, |prog, symtab| {
                    let ra = make_ra_oracle(sp.ra_map.clone(), symtab.clone());
                    MachSem::new(prog, symtab).with_ra_oracle(ra)
                });
                drive::<M, _>(mach, &r)
            }
            "asm" => drive::<A, _>(built(&self.asm, &sp.asm, st, AsmSem::new), &r),
            other => StageOutcome::Transport(format!("unknown stage `{other}`")),
        }
    }

    /// The sequential oracle ([`check_query`]), recording stages in `rec`.
    fn check(&self, q: &CQuery, rec: Option<&mut BTreeSet<&'static str>>) -> QueryVerdict {
        compare(|stage| self.run(stage, q, None).map(|o| o.obs), rec)
    }

    /// The threaded oracle under `schedule` ([`check_query_sched`]).
    pub(crate) fn check_sched(
        &self,
        q: &CQuery,
        aux: &[CQuery],
        schedule: Schedule,
    ) -> SchedVerdict {
        compare(|stage| self.run(stage, q, Some((aux, schedule))), None)
    }
}

/// Run a single named stage (one of [`STAGES`]) on one C-level query —
/// the per-stage entry point perfbench's `interp.*` rows and the tier-1
/// step-count pin (`tests/fast_equiv.rs`) use to attribute steps to each
/// interpreter via the `lts.*` counters.
///
/// Unknown stage names report as [`StageOutcome::Transport`].
pub fn run_stage(
    sp: &StagePrograms,
    symtab: &SymbolTable,
    lib: &ExtLib,
    stage: &str,
    q: &CQuery,
    budget: &RunBudget,
) -> StageOutcome {
    let table = StageTable::new(sp, symtab, lib, budget);
    table.run(stage, q, None).map(|o| o.obs)
}

// ---------------------------------------------------------------------------
// The oracle: per-query stage comparison
// ---------------------------------------------------------------------------

/// Verdict of the oracle on one query: `O` is [`Obs`] for a sequential run
/// and [`SchedObs`] for a threaded one.
#[derive(Debug, Clone)]
pub enum Verdict<O> {
    /// Every stage completed and observed the same behaviour.
    Agree(Box<O>),
    /// A stage was budget-limited; the query is skipped without a verdict.
    Skipped {
        /// The budget-limited stage.
        stage: &'static str,
    },
    /// A finding at some stage.
    Finding {
        /// The failure class.
        kind: FindingKind,
        /// Human-readable context.
        detail: String,
    },
}

/// Verdict of the sequential oracle on one query ([`check_query`]).
pub type QueryVerdict = Verdict<Obs>;

/// Verdict of the threaded oracle on one `(query set, schedule)` pair
/// ([`check_query_sched`]).
pub type SchedVerdict = Verdict<SchedObs>;

impl SchedVerdict {
    /// A stable one-line rendering of the verdict under `schedule` — the
    /// unit the `sched_campaign` FNV checksum is computed over.
    #[must_use]
    pub fn line(&self, schedule: Schedule) -> String {
        match self {
            Verdict::Agree(obs) => format!("{schedule} agree {obs}"),
            Verdict::Skipped { stage } => format!("{schedule} skipped@{stage}"),
            Verdict::Finding { kind, detail } => format!("{schedule} finding {kind}: {detail}"),
        }
    }
}

impl<O> StageOutcome<O> {
    fn map<P>(self, f: impl FnOnce(O) -> P) -> StageOutcome<P> {
        match self {
            StageOutcome::Ok(o) => StageOutcome::Ok(f(o)),
            StageOutcome::Budget(d) => StageOutcome::Budget(d),
            StageOutcome::Stuck(d) => StageOutcome::Stuck(d),
            StageOutcome::EnvRefused(d) => StageOutcome::EnvRefused(d),
            StageOutcome::Transport(d) => StageOutcome::Transport(d),
        }
    }

    /// The observation of a completed run, or the verdict that a run of
    /// `stage` ending any other way settles: a budget skip or a finding.
    fn settle(self, stage: &'static str) -> Result<O, Verdict<O>> {
        let (kind, detail) = match self {
            StageOutcome::Ok(o) => return Ok(o),
            StageOutcome::Budget(_) => return Err(Verdict::Skipped { stage }),
            StageOutcome::Stuck(d) => (FindingKind::Stuck { stage }, d),
            StageOutcome::EnvRefused(d) => (FindingKind::EnvRefused { stage }, d),
            StageOutcome::Transport(d) => (FindingKind::Transport { stage }, d),
        };
        Err(Verdict::Finding { kind, detail })
    }
}

/// Run the stages in [`STAGES`] order through `run` and compare each
/// observation against the Clight baseline, stopping at the first skip or
/// finding. `rec`, when given, records each non-baseline stage *when its
/// comparison runs* (an early finding or skip leaves later stages
/// unrecorded), so a campaign can prove which of the six stage pairs its
/// seed block exercised (`gen/tests/coverage.rs`).
fn compare<O: PartialEq + fmt::Display>(
    mut run: impl FnMut(&'static str) -> StageOutcome<O>,
    mut rec: Option<&mut BTreeSet<&'static str>>,
) -> Verdict<O> {
    let base = match run(STAGES[0]).settle(STAGES[0]) {
        Ok(base) => base,
        Err(v) => return v,
    };
    for &stage in &STAGES[1..] {
        if let Some(set) = rec.as_deref_mut() {
            set.insert(stage);
        }
        let obs = match run(stage).settle(stage) {
            Ok(obs) => obs,
            Err(v) => return v,
        };
        if obs != base {
            return Verdict::Finding {
                kind: FindingKind::Disagreement { stage },
                detail: format!("clight observed [{base}] but {stage} observed [{obs}]"),
            };
        }
    }
    Verdict::Agree(Box::new(base))
}

/// Run one C-level query through every stage and compare observations
/// against the Clight baseline.
pub fn check_query(
    sp: &StagePrograms,
    symtab: &SymbolTable,
    lib: &ExtLib,
    q: &CQuery,
    budget: &RunBudget,
) -> QueryVerdict {
    StageTable::new(sp, symtab, lib, budget).check(q, None)
}

/// Run one threaded query set under one schedule through every stage and
/// compare observations — schedule traces included — against the Clight
/// baseline: thread 0 answers `q`, one more thread answers each of `aux`.
pub fn check_query_sched(
    sp: &StagePrograms,
    symtab: &SymbolTable,
    lib: &ExtLib,
    q: &CQuery,
    aux: &[CQuery],
    schedule: Schedule,
    budget: &RunBudget,
) -> SchedVerdict {
    StageTable::new(sp, symtab, lib, budget).check_sched(q, aux, schedule)
}

// ---------------------------------------------------------------------------
// Whole-program oracle
// ---------------------------------------------------------------------------

/// A generated program compiled validated, linked at every stage, and
/// resolved to its entry function: the prologue [`check_program`] and the
/// threaded oracle's per-seed check share.
pub(crate) struct Prepared {
    pub(crate) units: Vec<CompiledUnit>,
    pub(crate) symtab: SymbolTable,
    pub(crate) sp: StagePrograms,
    pub(crate) lib: ExtLib,
    /// The entry function's name.
    pub(crate) entry: String,
    /// The entry function's parameter count.
    pub(crate) nparams: usize,
    vf: Val,
    sig: Signature,
    init: Mem,
}

impl Prepared {
    /// Compile `prog` validated, link it at every stage, and resolve its
    /// entry function.
    ///
    /// # Errors
    /// The finding a failure is: a validator diagnostic is
    /// [`FindingKind::ValidatorRejected`]; a compile or link failure, an
    /// unbuildable initial memory or a missing entry is
    /// [`FindingKind::Compile`].
    pub(crate) fn new(prog: &GProgram) -> Result<Prepared, (FindingKind, String)> {
        let srcs = prog.render();
        let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
        let (units, symtab) = compile_all(&refs, CompilerOptions::validated())
            .map_err(|e| (FindingKind::Compile, format!("{e}")))?;
        for (i, u) in units.iter().enumerate() {
            if let Some(finding) = validator_finding(format_args!("unit {i}"), u) {
                return Err(finding);
            }
        }
        let sp = StagePrograms::build(&units).map_err(|e| (FindingKind::Compile, e))?;
        let init = symtab
            .build_init_mem()
            .map_err(|e| (FindingKind::Compile, format!("initial memory: {e:?}")))?;
        let (_, entry) = prog.entry();
        let (Some(vf), Some(sig)) = (symtab.func_ptr(&entry.name), sp.clight.sig_of(&entry.name))
        else {
            return Err((
                FindingKind::Compile,
                format!("entry `{}` missing from the linked program", entry.name),
            ));
        };
        Ok(Prepared {
            lib: ExtLib::demo(symtab.clone()),
            entry: entry.name.clone(),
            nparams: entry.nparams as usize,
            units,
            symtab,
            sp,
            vf,
            sig,
            init,
        })
    }

    /// The entry function's C query on `args` over the initial memory.
    pub(crate) fn query(&self, args: &[i32]) -> CQuery {
        CQuery {
            vf: self.vf,
            sig: self.sig.clone(),
            args: args.iter().map(|&a| Val::Int(a)).collect(),
            mem: self.init.clone(),
        }
    }
}

/// The first validator diagnostic of a validated compile, as the
/// [`FindingKind::ValidatorRejected`] finding it is; `what` names the unit.
fn validator_finding(
    what: impl fmt::Display,
    unit: &CompiledUnit,
) -> Option<(FindingKind, String)> {
    let d = unit.diagnostics.first()?;
    Some((FindingKind::ValidatorRejected, format!("{what}: {d}")))
}

/// The compile-then-link vs link-then-compile context: the generated units
/// linked *at the Clight level* and compiled as one translation unit,
/// against its own symbol table. Its functions fan out over the pool at
/// [`Jobs::Auto`], as [`Prepared::new`]'s per-unit build does; the pool
/// returns the same unit, and the same counters, at any width.
struct WholeProgram {
    unit: CompiledUnit,
    symtab: SymbolTable,
    lib: ExtLib,
}

fn build_whole(linked: &clight::Program, opts: CompilerOptions) -> Result<WholeProgram, String> {
    let symtab = build_symtab(&[linked]).map_err(|e| format!("whole-program symtab: {e}"))?;
    let unit = compile_typed_jobs(std::slice::from_ref(linked), &symtab, opts, Jobs::Auto)
        .map_err(|e| format!("whole-program compile: {e}"))?
        .pop()
        .ok_or("whole-program compile: no unit")?;
    let lib = ExtLib::demo(symtab.clone());
    Ok(WholeProgram { unit, symtab, lib })
}

fn is_budget_sim_err(e: &SimCheckError) -> bool {
    matches!(
        e,
        SimCheckError::OutOfFuel { .. } | SimCheckError::BudgetExceeded { .. }
    )
}

/// Run the oracle on one generated program: compile, validate, compare every
/// stage on every query, and (for multi-unit programs) run the metamorphic
/// link-composition checks.
pub fn check_program(prog: &GProgram, cfg: &DifftestCfg) -> SeedOutcome {
    check_program_rec(prog, cfg, None)
}

/// [`check_program`] with an optional stage-pair recorder threaded through
/// every query's comparison.
fn check_program_rec(
    prog: &GProgram,
    cfg: &DifftestCfg,
    mut rec: Option<&mut BTreeSet<&'static str>>,
) -> SeedOutcome {
    let p = match Prepared::new(prog) {
        Ok(p) => p,
        Err((kind, detail)) => return SeedOutcome::Finding { kind, detail },
    };
    let queries = gen_queries(prog.seed, p.nparams, cfg.queries);
    let budget = RunBudget::with_fuel(cfg.fuel).no_trace();
    // The metamorphic path: link at the Clight level, compile as one unit.
    let whole = if cfg.check_links && p.units.len() >= 2 {
        match build_whole(&p.sp.clight, CompilerOptions::validated()) {
            Ok(w) => {
                if let Some((kind, detail)) = validator_finding("whole program", &w.unit) {
                    return SeedOutcome::Finding { kind, detail };
                }
                Some(w)
            }
            Err(e) => {
                return SeedOutcome::Finding {
                    kind: FindingKind::LinkMismatch,
                    detail: e,
                }
            }
        }
    } else {
        None
    };

    // One stage table and one whole-program Asm semantics serve all queries.
    let table = StageTable::new(&p.sp, &p.symtab, &p.lib, &budget);
    let mut wsem = None;
    let mut queries_run = 0usize;
    let mut queries_skipped = 0usize;
    for (qi, args) in queries.iter().enumerate() {
        let q = p.query(args);
        let obs = match table.check(&q, rec.as_deref_mut()) {
            Verdict::Agree(obs) => obs,
            Verdict::Skipped { .. } => {
                queries_skipped += 1;
                continue;
            }
            Verdict::Finding { kind, detail } => {
                return SeedOutcome::Finding {
                    kind,
                    detail: format!("query {qi} args {args:?}: {detail}"),
                }
            }
        };
        queries_run += 1;

        if let Some(w) = &whole {
            // Metamorphic check 1: link∘compile (the per-unit Asm linked by
            // `link_asm`, already compared above) must observe the same
            // behaviour as compile∘link (the Clight-linked whole program),
            // each against its own symbol table.
            let wq = match try_c_query(&w.symtab, &w.unit, &p.entry, q.args.clone()) {
                Ok(wq) => wq,
                Err(e) => {
                    return SeedOutcome::Finding {
                        kind: FindingKind::LinkMismatch,
                        detail: format!("query {qi}: whole-program query: {e}"),
                    }
                }
            };
            let wrun = StageRun {
                symtab: &w.symtab,
                lib: &w.lib,
                q: &wq,
                threads: None,
                budget: &budget,
            };
            match drive::<A, _>(wsem.get_or_insert_with(|| w.unit.asm_sem(&w.symtab)), &wrun) {
                StageOutcome::Ok(SchedObs { obs: wobs, .. }) => {
                    if wobs != *obs {
                        return SeedOutcome::Finding {
                            kind: FindingKind::LinkMismatch,
                            detail: format!(
                                "query {qi} args {args:?}: link-then-compile observed \
                                 [{wobs}] but compile-then-link observed [{obs}]"
                            ),
                        };
                    }
                }
                StageOutcome::Budget(_) => {}
                StageOutcome::Stuck(d)
                | StageOutcome::EnvRefused(d)
                | StageOutcome::Transport(d) => {
                    return SeedOutcome::Finding {
                        kind: FindingKind::LinkMismatch,
                        detail: format!("query {qi}: whole-program asm: {d}"),
                    }
                }
            }
            // Metamorphic check 2 (two-unit programs): `Asm(p1) ⊕ Asm(p2)`
            // simulates the syntactically linked Asm (Thm 3.5).
            if p.units.len() == 2 {
                if let Some((_w, qa)) = Ca::new(p.symtab.len() as u32).transport_query(&q) {
                    match check_thm35_budgeted(
                        &p.units[0].asm,
                        &p.units[1].asm,
                        &p.symtab,
                        &p.lib,
                        &qa,
                        &budget,
                    ) {
                        Ok(_) => {}
                        Err(e) if is_budget_sim_err(&e) => {}
                        Err(e) => {
                            return SeedOutcome::Finding {
                                kind: FindingKind::LinkMismatch,
                                detail: format!("query {qi} args {args:?}: thm35: {e}"),
                            }
                        }
                    }
                }
            }
        }
    }
    if queries_run == 0 {
        SeedOutcome::Skipped(format!("all {queries_skipped} queries budget-limited"))
    } else {
        SeedOutcome::Agree {
            queries_run,
            queries_skipped,
        }
    }
}

/// Generate the program for `seed`, run the oracle, and — on a finding —
/// shrink to a minimal reproducer whose failure has the same
/// [`FindingKind::tag`].
pub fn run_seed(seed: u64, cfg: &DifftestCfg) -> SeedReport {
    let prog = generate(seed, &cfg.gen);
    let outcome = check_program(&prog, cfg);
    let reproducer = reproduce(&prog, &outcome, cfg);
    SeedReport {
        seed,
        outcome,
        reproducer,
    }
}

/// The minimal reproducer of a finding when reduction is enabled: `prog`
/// shrunk under a predicate that keeps the finding's [`FindingKind::tag`].
fn reproduce(prog: &GProgram, outcome: &SeedOutcome, cfg: &DifftestCfg) -> Option<Reproducer> {
    let tag = match outcome {
        SeedOutcome::Finding { kind, .. } if cfg.reduce => kind.tag(),
        _ => return None,
    };
    let (min, stats) = reduce(
        prog,
        |p| matches!(check_program(p, cfg), SeedOutcome::Finding { kind: k, .. } if k.tag() == tag),
        cfg.reduce_checks,
    );
    Some(Reproducer {
        source: min.to_annotated_source(),
        stmts: min.stmt_count(),
        stats,
    })
}

// ---------------------------------------------------------------------------
// Observed seed runs: coverage, stage pairs, and deterministic counters
// ---------------------------------------------------------------------------

/// What one observed seed run ([`run_seed_obs`]) contributes to a campaign's
/// observability section, beyond the verdict itself.
///
/// Everything here is a pure function of `(seed, DifftestCfg)`:
///
/// * [`coverage`](SeedObs::coverage) is computed from the generated program
///   alone;
/// * [`stages_compared`](SeedObs::stages_compared) records which of the six
///   non-baseline stages were actually compared against Clight on at least
///   one query;
/// * [`counters`](SeedObs::counters) is the [`ObsSnapshot`] delta around the
///   whole run (generation, compilation, every stage execution, and any
///   reduction). Pool workers fold their counters into the caller at join,
///   so the delta is exact and — because campaign aggregation is a
///   commutative sum in seed order — jobs-invariant.
///
/// [`ObsSnapshot`]: crate::obs::ObsSnapshot
#[derive(Debug, Clone)]
pub struct SeedObs {
    /// Grammar-constructor coverage of the generated program.
    pub coverage: compcerto_gen::Coverage,
    /// Stage names (subset of [`STAGES`] minus `"clight"`) compared against
    /// the baseline on at least one query.
    pub stages_compared: BTreeSet<&'static str>,
    /// Deterministic counter deltas for the whole seed run.
    pub counters: crate::obs::Counters,
}

/// [`run_seed`] plus observability: the same [`SeedReport`] (byte-identical
/// verdicts), bundled with the seed's [`SeedObs`].
pub fn run_seed_obs(seed: u64, cfg: &DifftestCfg) -> (SeedReport, SeedObs) {
    let snap = crate::obs::ObsSnapshot::take();
    let prog = generate(seed, &cfg.gen);
    let coverage = compcerto_gen::Coverage::of_program(&prog);
    let mut stages = BTreeSet::new();
    let outcome = check_program_rec(&prog, cfg, Some(&mut stages));
    let reproducer = reproduce(&prog, &outcome, cfg);
    let counters = snap.delta();
    (
        SeedReport {
            seed,
            outcome,
            reproducer,
        },
        SeedObs {
            coverage,
            stages_compared: stages,
            counters,
        },
    )
}

// ---------------------------------------------------------------------------
// Fault-injection escape rates under generated programs
// ---------------------------------------------------------------------------

/// Escape tallies for one mutation class probed with generated inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscapeRow {
    /// The mutation operator.
    pub class: MutationClass,
    /// Mutants with an applicable site in the entry function.
    pub generated: usize,
    /// Mutants the Thm 3.8 checker rejected on at least one generated query.
    pub detected: usize,
}

impl EscapeRow {
    /// Mutants every probe accepted.
    pub fn escapes(&self) -> usize {
        self.generated - self.detected
    }
}

/// Re-run the fault-injection mutation classes against the *generated*
/// program for `seed` (linked at the Clight level and compiled as one unit,
/// so every internal call resolves), probing each mutant with the generated
/// queries through [`check_thm38_budgeted`].
///
/// # Errors
/// Reports compilation failures and baselines that do not pass the checker
/// (such seeds carry no signal and are skipped by the campaign).
pub fn faultinj_escape_rates(
    seed: u64,
    cfg: &DifftestCfg,
    per_class: usize,
) -> Result<Vec<EscapeRow>, String> {
    let prog = generate(seed, &cfg.gen);
    let srcs = prog.render();
    let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    let (units, _) = compile_all(&refs, CompilerOptions::default()).map_err(|e| format!("{e}"))?;
    let mut linked = units.first().ok_or("no units")?.clight.clone();
    for u in &units[1..] {
        linked = clight::link(&linked, &u.clight).map_err(|e| format!("clight link: {e:?}"))?;
    }
    let whole = build_whole(&linked, CompilerOptions::default())?;
    let (_, entry) = prog.entry();
    let entry_name = entry.name.clone();
    let queries = gen_queries(seed, entry.nparams as usize, cfg.queries.max(1));
    let budget = RunBudget::with_fuel(cfg.fuel).no_trace();

    // Keep only the probes the *baseline* passes within budget; a baseline
    // rejection is an error (it would poison every tally).
    let mut probes: Vec<Vec<Val>> = Vec::new();
    for args in &queries {
        let argv: Vec<Val> = args.iter().map(|&a| Val::Int(a)).collect();
        let q = try_c_query(&whole.symtab, &whole.unit, &entry_name, argv.clone())
            .map_err(|e| format!("baseline query: {e}"))?;
        match check_thm38_budgeted(&whole.unit, &whole.symtab, &whole.lib, &q, &budget) {
            Ok(_) => probes.push(argv),
            Err(e) if is_budget_sim_err(&e) => {}
            Err(e) => return Err(format!("baseline fails thm38: {e}")),
        }
    }
    if probes.is_empty() {
        return Err("all baseline probes budget-limited".into());
    }

    let mut master = SplitMix64::new(seed ^ 0x6d75_7461_6e74_7321);
    let mut rows = Vec::with_capacity(MUTATION_CLASSES.len());
    for &class in &MUTATION_CLASSES {
        let mut rng = master.split();
        let mut row = EscapeRow {
            class,
            generated: 0,
            detected: 0,
        };
        let mut attempts = 0usize;
        while row.generated < per_class && attempts < per_class * 4 {
            attempts += 1;
            let Some(m) = mutate(&whole.unit, &entry_name, class, &mut rng) else {
                continue;
            };
            row.generated += 1;
            let detected = probes.iter().any(|argv| {
                match try_c_query(&whole.symtab, &m.unit, &entry_name, argv.clone()) {
                    Ok(q) => check_thm38_budgeted(&m.unit, &whole.symtab, &whole.lib, &q, &budget)
                        .is_err(),
                    Err(_) => true,
                }
            });
            if detected {
                row.detected += 1;
            }
        }
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use compcerto_validate::Diagnostic;

    fn test_cfg() -> DifftestCfg {
        DifftestCfg {
            reduce: false,
            ..DifftestCfg::quick()
        }
    }

    #[test]
    fn oracle_agrees_on_a_seed_sweep() {
        let cfg = test_cfg();
        for seed in 0..8u64 {
            let report = run_seed(seed, &cfg);
            assert!(
                !matches!(report.outcome, SeedOutcome::Finding { .. }),
                "seed {seed}: unexpected finding: {:?}",
                report.outcome
            );
        }
    }

    #[test]
    fn oracle_is_deterministic() {
        let cfg = test_cfg();
        for seed in [3u64, 17] {
            let a = run_seed(seed, &cfg);
            let b = run_seed(seed, &cfg);
            assert_eq!(a.outcome, b.outcome, "seed {seed}");
        }
    }

    #[test]
    fn tiny_fuel_skips_instead_of_reporting() {
        // With a microscopic budget nothing completes: the verdict must be
        // Skipped, never a Finding — budget exhaustion is not a bug.
        let cfg = DifftestCfg {
            fuel: 10,
            reduce: false,
            ..DifftestCfg::quick()
        };
        for seed in 0..4u64 {
            let report = run_seed(seed, &cfg);
            assert!(
                matches!(report.outcome, SeedOutcome::Skipped(_)),
                "seed {seed}: {:?}",
                report.outcome
            );
        }
    }

    #[test]
    fn validator_diagnostics_become_findings() {
        let src = "int f(int x) { return x; }";
        let (mut units, _) = compile_all(&[src], CompilerOptions::validated()).expect("compiles");
        let unit = &mut units[0];
        assert_eq!(
            validator_finding("whole program", unit),
            None,
            "honest compiles are clean"
        );
        let d = Diagnostic::new("asmgen", "f", Some(3), "asm.synthetic", "boom");
        let expected = format!("whole program: {d}");
        unit.diagnostics.push(d);
        assert_eq!(
            validator_finding("whole program", unit),
            Some((FindingKind::ValidatorRejected, expected))
        );
    }

    #[test]
    fn corrupted_asm_is_a_stage_disagreement() {
        // Mutate the linked whole program's Asm and feed it back through the
        // stage comparison: the oracle must localize the fault to `asm`.
        let cfg = test_cfg();
        let prog = generate(5, &cfg.gen);
        let srcs = prog.render();
        let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
        let (units, _) = compile_all(&refs, CompilerOptions::default()).expect("compiles");
        let mut linked = units[0].clight.clone();
        for u in &units[1..] {
            linked = clight::link(&linked, &u.clight).expect("links");
        }
        let whole = build_whole(&linked, CompilerOptions::default()).expect("whole compiles");
        let (_, entry) = prog.entry();
        let mutant = mutate(
            &whole.unit,
            &entry.name,
            MutationClass::ResultCorruption,
            &mut SplitMix64::new(11),
        )
        .expect("entry has a Ret site");

        let mut sp = StagePrograms::build(std::slice::from_ref(&whole.unit)).expect("builds");
        sp.asm = mutant.unit.asm.clone();

        let queries = gen_queries(5, entry.nparams as usize, 3);
        let budget = RunBudget::with_fuel(2_000_000).no_trace();
        let init = whole.symtab.build_init_mem().unwrap();
        let sig = sp.clight.sig_of(&entry.name).unwrap();
        let vf = whole.symtab.func_ptr(&entry.name).unwrap();
        let mut found = false;
        for args in &queries {
            let q = CQuery {
                vf,
                sig: sig.clone(),
                args: args.iter().map(|&a| Val::Int(a)).collect(),
                mem: init.clone(),
            };
            match check_query(&sp, &whole.symtab, &whole.lib, &q, &budget) {
                QueryVerdict::Finding {
                    kind: FindingKind::Disagreement { stage },
                    ..
                } => {
                    assert_eq!(stage, "asm");
                    found = true;
                    break;
                }
                QueryVerdict::Finding { kind, detail } => {
                    panic!("wrong finding class {kind}: {detail}")
                }
                _ => {}
            }
        }
        assert!(found, "result corruption escaped the oracle");
    }

    #[test]
    fn space_globals_observe_every_cell() {
        // `int g` is `Space(4)` and `int a[3]` is `Space(12)`: a 4-byte
        // remainder reads as one `int` cell, so a store to `g` or `a[2]`
        // is observed at every stage.
        let src = "int g; int a[3]; long b; \
                   int f(int x) { g = x; a[2] = x; b = 7; return 0; }";
        let (units, symtab) = compile_all(&[src], CompilerOptions::default()).expect("compiles");
        let sp = StagePrograms::build(&units).expect("builds");
        let lib = ExtLib::demo(symtab.clone());
        let q = CQuery {
            vf: symtab.func_ptr("f").unwrap(),
            sig: sp.clight.sig_of("f").unwrap(),
            args: vec![Val::Int(5)],
            mem: symtab.build_init_mem().unwrap(),
        };
        let budget = RunBudget::with_fuel(10_000).no_trace();
        match check_query(&sp, &symtab, &lib, &q, &budget) {
            Verdict::Agree(obs) => assert_eq!(
                obs.to_string(),
                "result=int:0 g=[int:5] a=[long:0 int:5] b=[long:7]"
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn findings_shrink_to_small_reproducers() {
        // Reduce under a *synthetic* predicate (program still calls an
        // external function) to exercise the reducer wiring end to end
        // without needing a real compiler bug.
        let cfg = DifftestCfg::quick();
        let prog = generate(2, &cfg.gen);
        let uses_ext = |p: &GProgram| p.render().concat().contains("inc(");
        if !uses_ext(&prog) {
            return; // seed without externals: nothing to exercise
        }
        let (min, stats) = reduce(&prog, |p| uses_ext(p), 400);
        assert!(uses_ext(&min));
        assert!(stats.to_stmts <= stats.from_stmts);
        assert!(
            min.stmt_count() <= 25,
            "reproducer too large: {}",
            min.stmt_count()
        );
    }

    #[test]
    fn escape_rates_run_on_generated_programs() {
        let cfg = test_cfg();
        let rows = faultinj_escape_rates(1, &cfg, 2).expect("escape matrix runs");
        assert_eq!(rows.len(), MUTATION_CLASSES.len());
        // Result corruption always has a site (every function returns) and
        // must always be detected: the entry's result is directly observed.
        let rc = rows
            .iter()
            .find(|r| r.class == MutationClass::ResultCorruption)
            .unwrap();
        assert!(rc.generated > 0);
        assert_eq!(rc.escapes(), 0, "result corruption escaped");
    }
}
