//! The CompCertO-rs pass pipeline (paper Table 3, §3.4).

use std::fmt;
use std::sync::OnceLock;

use backend::{
    allocation, asmgen, cleanup_labels, debugvar, linearize, stacking, tunneling, AsmProgram,
    AsmSem, LinProgram, LtlProgram, MachSem,
};
use clight::{build_symtab, parse, simpl_locals, typecheck};
use compcerto_core::iface::Signature;
use compcerto_core::symtab::{Ident, SymbolTable};
use minor::{cminorgen, cshmgen, selection, CmProgram, CsProgram, SelProgram};
use rtl::{
    constprop, cse, deadcode, inlining, renumber_function, rtlgen, tailcall, Romem, RtlFunction,
    RtlProgram,
};

use crate::obs::sum_spans;
use crate::par::{self, Jobs};
use crate::resilience::{contained, front_ends, Fault};
use crate::validate::{assemble, validate_functions, FnFindings, Stages, UnitScope};

/// Options controlling the optional optimization passes (paper Table 3 marks
/// them with †; the final convention `C` is insensitive to them, §3.4).
#[derive(Debug, Clone, Copy)]
pub struct CompilerOptions {
    /// Run `Tailcall`.
    pub tailcall: bool,
    /// Run `Inlining`.
    pub inlining: bool,
    /// Run `Constprop`.
    pub constprop: bool,
    /// Run `CSE`.
    pub cse: bool,
    /// Run `Deadcode`.
    pub deadcode: bool,
    /// Run `Vprop` — interval-driven constant propagation with branch
    /// folding, consuming the forward value analysis of
    /// `compcerto-validate` (DESIGN.md §12).
    pub vprop: bool,
    /// Run `Ndce` — neededness-driven dead-code elimination, consuming the
    /// backward liveness-of-bits analysis (DESIGN.md §12).
    pub ndce: bool,
    /// Run the static validation layer on each function right after its
    /// back end: per-IR well-formedness lints and per-pass translation
    /// validators (see [`crate::validate`]). Findings land in
    /// [`CompiledUnit::diagnostics`]; compilation still succeeds, callers
    /// decide what to do with a non-empty report.
    pub validate: bool,
    /// Collect per-unit observability metrics (DESIGN.md §10): the
    /// deterministic counter delta of the unit's pass pipeline plus
    /// per-pass wall-clock spans, landing in [`CompiledUnit::metrics`].
    /// Off by default; the counters themselves tick unconditionally (they
    /// are a few thread-local adds), this flag only controls the per-pass
    /// timing spans and the snapshot/delta bookkeeping.
    pub metrics: bool,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            tailcall: true,
            inlining: true,
            constprop: true,
            cse: true,
            deadcode: true,
            vprop: true,
            ndce: true,
            validate: false,
            metrics: false,
        }
    }
}

impl CompilerOptions {
    /// All optional optimizations off (`-O0`).
    pub fn none() -> CompilerOptions {
        CompilerOptions {
            tailcall: false,
            inlining: false,
            constprop: false,
            cse: false,
            deadcode: false,
            vprop: false,
            ndce: false,
            validate: false,
            metrics: false,
        }
    }

    /// Default optimizations with the static validation layer on.
    pub fn validated() -> CompilerOptions {
        CompilerOptions {
            validate: true,
            ..CompilerOptions::default()
        }
    }

    /// Enable per-unit observability metrics collection.
    #[must_use]
    pub fn with_metrics(mut self) -> CompilerOptions {
        self.metrics = true;
        self
    }
}

/// A compilation error from any stage of the pipeline.
#[derive(Debug)]
pub enum CompileError {
    /// Lexing/parsing failed.
    Parse(clight::ParseError),
    /// Type checking failed.
    Type(clight::TypeError),
    /// Symbol-table construction failed.
    Link(clight::LinkError),
    /// `Cshmgen` failed (ill-typed input).
    Cshmgen(minor::CshmgenError),
    /// `Cminorgen` failed.
    Cminorgen(minor::CminorgenError),
    /// `Stacking` failed (input not in allocator normal form).
    Stacking(backend::stacking::StackingError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Type(e) => write!(f, "{e}"),
            CompileError::Link(e) => write!(f, "{e}"),
            CompileError::Cshmgen(e) => write!(f, "{e}"),
            CompileError::Cminorgen(e) => write!(f, "{e}"),
            CompileError::Stacking(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Every intermediate program of one translation unit's compilation — the
/// full Table 3 pipeline, kept around so each pass's simulation can be
/// checked and benchmarked.
#[derive(Debug, Clone)]
pub struct CompiledUnit {
    /// The typed Clight-mini program.
    pub clight: clight::Program,
    /// After `SimplLocals`.
    pub clight_simpl: clight::Program,
    /// After `Cshmgen`.
    pub csharp: CsProgram,
    /// After `Cminorgen`.
    pub cminor: CmProgram,
    /// After `Selection`.
    pub cminorsel: SelProgram,
    /// After `RTLgen`.
    pub rtl: RtlProgram,
    /// The `Vprop` input snapshot: the RTL program right before the
    /// abstract-interpretation passes (equal to [`CompiledUnit::rtl_opt`]
    /// when both are disabled). The `Vprop` translation validator
    /// recomputes value facts on this program.
    pub rtl_vprop_in: RtlProgram,
    /// The `Ndce` input snapshot: after `Vprop`, before `Ndce`. The `Ndce`
    /// translation validator recomputes neededness facts on this program.
    pub rtl_ndce_in: RtlProgram,
    /// After the (enabled) RTL optimizations and `Renumber`.
    pub rtl_opt: RtlProgram,
    /// After `Allocation`.
    pub ltl: LtlProgram,
    /// After `Tunneling`.
    pub ltl_tunneled: LtlProgram,
    /// The *raw* `Linearize` output, before `CleanupLabels` erases the
    /// per-block labels — kept because the linearize translation validator
    /// keys on those labels.
    pub linear_raw: LinProgram,
    /// After `Linearize`, `CleanupLabels` and `Debugvar`.
    pub linear: LinProgram,
    /// After `Stacking`.
    pub mach: backend::mach::MachProgram,
    /// After `Asmgen`.
    pub asm: AsmProgram,
    /// The return-address map from `Asmgen`.
    pub ra_map: backend::asmgen::RaMap,
    /// Findings of the static validation layer (empty unless
    /// [`CompilerOptions::validate`] was set — or when it was set and the
    /// unit is clean).
    pub diagnostics: Vec<compcerto_validate::Diagnostic>,
    /// Observability metrics of this unit's pass pipeline (`None` unless
    /// [`CompilerOptions::metrics`] was set). The counter bag is
    /// deterministic; the pass spans are wall-clock (see `crate::obs`).
    pub metrics: Option<crate::obs::UnitMetrics>,
}

/// The front end every compile path shares: parse and type-check one
/// translation unit.
///
/// # Errors
/// Reports lexing/parsing and type-checking failures.
pub fn front_end(src: &str) -> Result<clight::Program, CompileError> {
    let parsed = parse(src).map_err(CompileError::Parse)?;
    typecheck(&parsed).map_err(CompileError::Type)
}

/// Run one pass, recording its wall-clock span when metrics are on.
/// Every pass announces itself to the resilience layer first, so a
/// panic unwinding out of `f` is attributed to the right pass (and the
/// pass-panic envfault has its injection point).
fn span<T>(
    on: bool,
    pass_ms: &mut Vec<(&'static str, f64)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    crate::resilience::pass_boundary(name);
    if !on {
        return f();
    }
    let t0 = std::time::Instant::now();
    let r = f();
    pass_ms.push((name, t0.elapsed().as_secs_f64() * 1e3));
    r
}

/// The cross-function half of one unit's compilation (DESIGN.md §14): the
/// Clight → RTL stages plus the two whole-program RTL passes (`Tailcall`,
/// `Inlining` — the latter reads every function's body to build its
/// eligibility map). Everything after this point is a pure per-function
/// map, which is what lets [`compile_all_jobs`] and the serve scheduler
/// fan *functions*, not units, over the worker pool.
#[derive(Debug)]
pub struct UnitPrefix {
    /// After `SimplLocals`.
    pub clight_simpl: clight::Program,
    /// After `Cshmgen`.
    pub csharp: CsProgram,
    /// After `Cminorgen`.
    pub cminor: CmProgram,
    /// After `Selection`.
    pub cminorsel: SelProgram,
    /// After `RTLgen` (the `rtl` snapshot of [`CompiledUnit`]).
    pub rtl: RtlProgram,
    /// After `Tailcall` + `Inlining`: the program whose functions become
    /// the per-function work items.
    pub rtl_pre: RtlProgram,
    /// The read-only-globals summary the RTL optimizations consult: a pure
    /// function of the shared symbol table, built once per unit (inside the
    /// prefix counter window, exactly like the historical whole-unit
    /// pipeline) and shared by reference across the unit's per-function
    /// work items — `mem`'s block table is `Arc`-backed so the summary
    /// crosses the pool boundary.
    pub romem: Romem,
    /// Deterministic counter delta of the prefix (when metrics are on).
    counters: Option<crate::obs::Counters>,
    /// Wall-clock spans of the prefix passes (volatile).
    pass_ms: Vec<(&'static str, f64)>,
}

/// Clight → RTL, plus the cross-function RTL passes. See [`UnitPrefix`].
///
/// # Errors
/// Reports `Cshmgen`/`Cminorgen` failures.
pub fn unit_prefix(
    typed: &clight::Program,
    symtab: &SymbolTable,
    opts: CompilerOptions,
) -> Result<UnitPrefix, CompileError> {
    // Observability (DESIGN.md §10): each phase's snapshot/delta pair runs
    // entirely on the thread executing that phase, and per-unit counters
    // are the *sum* of the unit's phase deltas — u64 sums commute, so the
    // total is schedule- and jobs-invariant however the phases are
    // distributed over workers.
    let snap = opts.metrics.then(crate::obs::ObsSnapshot::take);
    let mut pass_ms: Vec<(&'static str, f64)> = Vec::new();
    let on = opts.metrics;
    let ms = &mut pass_ms;

    let clight_simpl = span(on, ms, "simpl_locals", || simpl_locals(typed));
    let csharp =
        span(on, ms, "cshmgen", || cshmgen(&clight_simpl)).map_err(CompileError::Cshmgen)?;
    let cminor =
        span(on, ms, "cminorgen", || cminorgen(&csharp)).map_err(CompileError::Cminorgen)?;
    let cminorsel = span(on, ms, "selection", || selection(&cminor));
    let rtl0 = span(on, ms, "rtlgen", || rtlgen(&cminorsel));

    let mut r = rtl0.clone();
    if opts.tailcall {
        r = span(on, ms, "tailcall", || tailcall(&r));
    }
    if opts.inlining {
        r = span(on, ms, "inlining", || inlining(&r));
    }
    let romem = Romem::new(symtab);
    Ok(UnitPrefix {
        clight_simpl,
        csharp,
        cminor,
        cminorsel,
        rtl: rtl0,
        rtl_pre: r,
        romem,
        counters: snap.map(|s| s.delta()),
        pass_ms,
    })
}

/// One function's back end: every per-function artifact from `Renumber`
/// through `Asmgen`, carried as singleton programs so the unit can be
/// reassembled by concatenating functions in input order.
#[derive(Debug)]
pub struct FnBack {
    vprop_in: RtlProgram,
    ndce_in: RtlProgram,
    rtl_opt: RtlProgram,
    ltl: LtlProgram,
    ltl_tunneled: LtlProgram,
    linear_raw: LinProgram,
    linear: LinProgram,
    mach: backend::mach::MachProgram,
    asm: AsmProgram,
    ra_map: backend::asmgen::RaMap,
    counters: Option<crate::obs::Counters>,
    pass_ms: Vec<(&'static str, f64)>,
}

impl FnBack {
    /// The function's validated programs, each a singleton.
    fn stages(&self) -> Stages<'_> {
        Stages {
            vprop_in: &self.vprop_in,
            ndce_in: &self.ndce_in,
            rtl_opt: &self.rtl_opt,
            ltl: &self.ltl,
            ltl_tunneled: &self.ltl_tunneled,
            linear_raw: &self.linear_raw,
            linear: &self.linear,
            mach: &self.mach,
            asm: &self.asm,
        }
    }
}

/// The per-function back end (DESIGN.md §14): `Renumber` → `Asmgen` on a
/// singleton program. All of these passes are per-function maps in the
/// whole-program pipeline, so running them on one function at a time
/// produces byte-identical artifacts and counter totals — the property the
/// `jobs_determinism`/`obs_determinism`/golden-Asm suites gate.
///
/// # Errors
/// Reports `Stacking` failures.
pub fn fn_back_end(
    func: &RtlFunction,
    externs: &[(Ident, Signature)],
    romem: &Romem,
    opts: CompilerOptions,
) -> Result<FnBack, CompileError> {
    let snap = opts.metrics.then(crate::obs::ObsSnapshot::take);
    let mut pass_ms: Vec<(&'static str, f64)> = Vec::new();
    let on = opts.metrics;
    let ms = &mut pass_ms;

    let mut r = RtlProgram {
        functions: vec![span(on, ms, "renumber", || renumber_function(func))],
        externs: externs.to_vec(),
    };
    if opts.constprop {
        r = span(on, ms, "constprop", || constprop(&r, romem));
    }
    if opts.cse {
        r = span(on, ms, "cse", || cse(&r));
    }
    if opts.deadcode {
        r = span(on, ms, "deadcode", || deadcode(&r));
    }
    // The abstract-interpretation tier (DESIGN.md §12): both passes are
    // *untrusted* — they consume facts solved by `compcerto-validate`'s
    // fixpoint engine, and the snapshots taken here are what the matching
    // translation validators recompute those facts on.
    let vprop_in = r.clone();
    if opts.vprop {
        r = span(on, ms, "vprop", || {
            let facts = compcerto_validate::value_facts_program(&r, romem);
            rtl::vprop(&r, &facts)
        });
    }
    let ndce_in = r.clone();
    if opts.ndce {
        r = span(on, ms, "ndce", || {
            let facts = compcerto_validate::needed_facts_program(&r);
            rtl::ndce(&r, &facts)
        });
    }

    let ltl = span(on, ms, "allocation", || allocation(&r));
    let ltl_tunneled = span(on, ms, "tunneling", || tunneling(&ltl));
    let linear_raw = span(on, ms, "linearize", || linearize(&ltl_tunneled));
    let linear = span(on, ms, "cleanup_labels", || {
        debugvar(&cleanup_labels(&linear_raw))
    });
    let mach = span(on, ms, "stacking", || stacking(&linear)).map_err(CompileError::Stacking)?;
    let (asm, ra_map) = span(on, ms, "asmgen", || asmgen(&mach));

    Ok(FnBack {
        vprop_in,
        ndce_in,
        rtl_opt: r,
        ltl,
        ltl_tunneled,
        linear_raw,
        linear,
        mach,
        asm,
        ra_map,
        counters: snap.map(|s| s.delta()),
        pass_ms,
    })
}

/// Concatenate the per-function singleton programs back into whole-unit
/// programs (functions in input order, the unit's externs at every level —
/// every back-end pass passes `externs` through unchanged), reassemble the
/// functions' findings, and fold the prefix, per-function and validation
/// counter deltas plus the static IR counters into the metrics bag, and
/// their pass spans by name (each part lists its passes in pipeline order,
/// so the sums do too) — the last per-unit step.
fn merge_unit(
    typed: &clight::Program,
    opts: CompilerOptions,
    mut prefix: UnitPrefix,
    backs: Vec<FnBack>,
    checks: Vec<Checked>,
) -> CompiledUnit {
    let ex = prefix.rtl_pre.externs.clone();
    let n = backs.len();
    let mut vprop_in_f = Vec::with_capacity(n);
    let mut ndce_in_f = Vec::with_capacity(n);
    let mut rtl_opt_f = Vec::with_capacity(n);
    let mut ltl_f = Vec::with_capacity(n);
    let mut ltl_tun_f = Vec::with_capacity(n);
    let mut lin_raw_f = Vec::with_capacity(n);
    let mut lin_f = Vec::with_capacity(n);
    let mut mach_f = Vec::with_capacity(n);
    let mut asm_f = Vec::with_capacity(n);
    let mut ra_map = backend::asmgen::RaMap::new();
    let mut counters = prefix.counters.take().unwrap_or_default();
    let mut pass_ms = std::mem::take(&mut prefix.pass_ms);
    for b in backs {
        vprop_in_f.extend(b.vprop_in.functions);
        ndce_in_f.extend(b.ndce_in.functions);
        rtl_opt_f.extend(b.rtl_opt.functions);
        ltl_f.extend(b.ltl.functions);
        ltl_tun_f.extend(b.ltl_tunneled.functions);
        lin_raw_f.extend(b.linear_raw.functions);
        lin_f.extend(b.linear.functions);
        mach_f.extend(b.mach.functions);
        asm_f.extend(b.asm.functions);
        ra_map.extend(b.ra_map);
        if let Some(c) = &b.counters {
            counters.add(c);
        }
        sum_spans(&mut pass_ms, &b.pass_ms);
    }
    let mut found = Vec::new();
    for (fns, delta, spans) in checks {
        found.extend(fns);
        if let Some(c) = &delta {
            counters.add(c);
        }
        sum_spans(&mut pass_ms, &spans);
    }
    let metrics = opts
        .metrics
        .then_some(crate::obs::UnitMetrics { counters, pass_ms });
    let mut unit = CompiledUnit {
        clight: typed.clone(),
        clight_simpl: prefix.clight_simpl,
        csharp: prefix.csharp,
        cminor: prefix.cminor,
        cminorsel: prefix.cminorsel,
        rtl: prefix.rtl,
        rtl_vprop_in: RtlProgram {
            functions: vprop_in_f,
            externs: ex.clone(),
        },
        rtl_ndce_in: RtlProgram {
            functions: ndce_in_f,
            externs: ex.clone(),
        },
        rtl_opt: RtlProgram {
            functions: rtl_opt_f,
            externs: ex.clone(),
        },
        ltl: LtlProgram {
            functions: ltl_f,
            externs: ex.clone(),
        },
        ltl_tunneled: LtlProgram {
            functions: ltl_tun_f,
            externs: ex.clone(),
        },
        linear_raw: LinProgram {
            functions: lin_raw_f,
            externs: ex.clone(),
        },
        linear: LinProgram {
            functions: lin_f,
            externs: ex.clone(),
        },
        mach: backend::mach::MachProgram {
            functions: mach_f,
            externs: ex.clone(),
        },
        asm: AsmProgram {
            functions: asm_f,
            externs: ex,
        },
        ra_map,
        diagnostics: Vec::new(),
        metrics,
    };
    unit.diagnostics = assemble(found);
    if opts.metrics {
        let ir = crate::obs::ir_counters(&unit);
        if let Some(m) = unit.metrics.as_mut() {
            m.counters.add(&ir);
        }
    }
    unit
}

/// One function's validation phase: its findings, counter delta and
/// `validate` span.
type Checked = (
    Vec<FnFindings>,
    Option<crate::obs::Counters>,
    Vec<(&'static str, f64)>,
);

/// The validation phase of one function, the tail of its pool item: the
/// per-function validator on its back end's programs, against the unit's
/// [`UnitScope`], which the unit's first item to get here builds (inside
/// its counter window, so the unit's counters include it once). A unit
/// with no function still builds the scope, as [`validate_unit`] does.
///
/// [`validate_unit`]: crate::validate::validate_unit
fn check_function(
    back: Option<&FnBack>,
    scope: &OnceLock<UnitScope>,
    symtab: &SymbolTable,
    rtl_pre: &RtlProgram,
    opts: CompilerOptions,
) -> Checked {
    let snap = opts.metrics.then(crate::obs::ObsSnapshot::take);
    let mut pass_ms: Vec<(&'static str, f64)> = Vec::new();
    let found = span(opts.metrics, &mut pass_ms, "validate", || {
        let scope = scope.get_or_init(|| UnitScope::new(symtab, rtl_pre));
        back.map(|b| validate_functions(&b.stages(), scope))
            .unwrap_or_default()
    });
    (found, snap.map(|s| s.delta()), pass_ms)
}

/// A unit's pool results in function order, split into its back ends and
/// its validations, or its first failure in serial order: every function's
/// back end comes before any function's validation.
fn first_failure<B, C>(
    items: impl IntoIterator<Item = (Option<Result<B, Fault>>, Option<Result<C, Fault>>)>,
) -> Result<(Vec<B>, Vec<C>), Fault> {
    let (backs, checks): (Vec<_>, Vec<_>) = items.into_iter().unzip();
    let backs = backs.into_iter().flatten().collect::<Result<Vec<_>, _>>()?;
    let checks = checks
        .into_iter()
        .flatten()
        .collect::<Result<Vec<_>, _>>()?;
    Ok((backs, checks))
}

/// One-stop compilation of a set of sources sharing a symbol table: parses
/// and type-checks all units, builds the shared table (paper App. A.3), and
/// compiles each unit against it.
///
/// Fans the per-unit work out over [`Jobs::Auto`] workers; the result is
/// byte-identical to the serial run (see [`crate::par`] and
/// [`compile_all_jobs`]).
///
/// # Errors
/// See [`compile_all_jobs`].
pub fn compile_all(
    sources: &[&str],
    opts: CompilerOptions,
) -> Result<(Vec<CompiledUnit>, SymbolTable), CompileError> {
    compile_all_jobs(sources, opts, Jobs::Auto)
}

/// [`compile_all`] with an explicit degree of parallelism.
///
/// The function-level scheduler (DESIGN.md §14). Two pools, with
/// `build_symtab` as the one shared barrier between them:
///
/// 1. the contained front end per unit (parse + type-check,
///    [`crate::resilience`]'s `front_ends`, as `ccomp-o` and the server
///    run it), then the symbol table;
/// 2. [`compile_typed_jobs`]: one item per `(unit, function)` pair, each
///    unit's cross-function prefix (Clight → RTL, `Tailcall`/`Inlining`)
///    run by the first of its items to start, each function's back end,
///    and, when [`CompilerOptions::validate`] is set, that function's
///    validation as the item's tail; then serial reassembly.
///
/// Each pool's per-unit results go through one strict fold: the units in
/// order, or the first error in serial order; a unit that panicked runs
/// once more (as the pool retries an item), and a second panic unwinds
/// with its message. `Jobs::N(1)` runs the serial loops unchanged; any
/// other setting produces byte-identical units in the same order, or the
/// same error — the campaign and CLI checksum tests assert this
/// equivalence.
///
/// # Errors
/// Any front-end, link or back-end failure; with several failing units the
/// reported error is the one the serial loop would have hit first.
pub fn compile_all_jobs(
    sources: &[&str],
    opts: CompilerOptions,
    jobs: Jobs,
) -> Result<(Vec<CompiledUnit>, SymbolTable), CompileError> {
    let typed = strict(front_ends(jobs, sources), |u| {
        front_ends(jobs, &sources[u..=u]).pop()
    })?;
    // Shared barrier: the symbol table spans every unit.
    let refs: Vec<&clight::Program> = typed.iter().collect();
    let symtab = build_symtab(&refs).map_err(CompileError::Link)?;
    let units = compile_typed_jobs(&typed, &symtab, opts, jobs)?;
    Ok((units, symtab))
}

/// The post-barrier half of [`compile_all_jobs`]: compile already
/// type-checked units against a symbol table built elsewhere, as the strict
/// fold over the contained pool's per-unit results (`compile_units`).
///
/// # Errors
/// See [`compile_all_jobs`]: the serial pipeline's first error.
pub fn compile_typed_jobs(
    typed: &[clight::Program],
    symtab: &SymbolTable,
    opts: CompilerOptions,
    jobs: Jobs,
) -> Result<Vec<CompiledUnit>, CompileError> {
    let refs: Vec<&clight::Program> = typed.iter().collect();
    strict(compile_units(&refs, symtab, opts, jobs), |u| {
        compile_units(&refs[u..=u], symtab, opts, jobs).pop()
    })
}

/// The strict fold over per-unit results, front ends and back ends alike:
/// the units in order, or the first [`Fault::Error`] in unit order. A unit
/// that panicked runs once more through `retry`, and a second panic
/// unwinds with its message as the payload.
fn strict<T>(
    results: Vec<Result<T, Fault>>,
    retry: impl Fn(usize) -> Option<Result<T, Fault>>,
) -> Result<Vec<T>, CompileError> {
    let mut out = Vec::with_capacity(results.len());
    for (u, r) in results.into_iter().enumerate() {
        let r = match r {
            Err(Fault::Panic(pass, msg)) => retry(u).unwrap_or(Err(Fault::Panic(pass, msg))),
            r => r,
        };
        match r {
            Ok(t) => out.push(t),
            Err(Fault::Error(e)) => return Err(e),
            Err(Fault::Panic(pass, msg)) => {
                eprintln!("driver: unit {u} panicked twice in `{pass}` (not healable): {msg}");
                std::panic::resume_unwind(Box::new(msg))
            }
        }
    }
    Ok(out)
}

/// The one compile of already-typed units against a shared symbol table:
/// every unit's prefix, every function's back end and every function's
/// validation on one pool, each step contained. Every unit gets its own
/// result or its first failure in serial order (its prefix, its functions'
/// back ends in order, then their validations in order), and a panic is a
/// [`Fault::Panic`] naming its pass, never an unwind. The serve cache
/// pushes its misses through here (via
/// [`crate::resilience::compile_typed_resilient`]) while the table still
/// spans every unit of the batch, so per-unit artifacts and metrics do not
/// depend on which other units hit.
///
/// The pool's items are the `(unit, function)` pairs in serial order
/// (`unit_prefix` maps `t.functions` one to one and in order, so the list
/// is known before any prefix runs); a unit with no functions gets one
/// item for its prefix. Each unit's [`UnitPrefix`] sits in a `OnceLock`
/// that the first of its items to start fills, and the items are claimed
/// function-major (every unit's function 0 first) so the prefixes start in
/// parallel. When validating, an item whose back end succeeded validates
/// its function against the unit's [`UnitScope`] (in a second `OnceLock`,
/// filled by the unit's first item to validate), and the unit's findings
/// are reassembled in [`crate::validate::validate_unit`]'s order.
pub(crate) fn compile_units(
    typed: &[&clight::Program],
    symtab: &SymbolTable,
    opts: CompilerOptions,
    jobs: Jobs,
) -> Vec<Result<CompiledUnit, Fault>> {
    if typed.is_empty() {
        return Vec::new();
    }
    let prefixes: Vec<OnceLock<Result<UnitPrefix, Fault>>> =
        typed.iter().map(|_| OnceLock::new()).collect();
    let scopes: Vec<OnceLock<UnitScope>> = typed.iter().map(|_| OnceLock::new()).collect();
    let items: Vec<(usize, usize)> = typed
        .iter()
        .enumerate()
        .flat_map(|(u, t)| (0..t.functions.len().max(1)).map(move |f| (u, f)))
        .collect();
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&k| (items[k].1, items[k].0));
    let done = par::par_map_claimed(jobs, &items, Some(&order), |_, &(u, f)| {
        let prefix = prefixes[u].get_or_init(|| contained(|| unit_prefix(typed[u], symtab, opts)));
        let p = prefix.as_ref().ok()?;
        let back = p
            .rtl_pre
            .functions
            .get(f)
            .map(|func| contained(|| fn_back_end(func, &p.rtl_pre.externs, &p.romem, opts)));
        let check =
            |back| contained(|| Ok(check_function(back, &scopes[u], symtab, &p.rtl_pre, opts)));
        let checked = match &back {
            _ if !opts.validate => None,
            Some(Ok(b)) => Some(check(Some(b))),
            Some(Err(_)) => None,
            None => Some(check(None)),
        };
        Some((back, checked))
    });
    // Regroup per unit, keeping its first failure in serial order: the
    // prefix, then its functions' back ends in order, then their
    // validations. (Every prefix is filled, since each unit has an item.)
    let mut pooled = done.into_iter();
    typed
        .iter()
        .zip(prefixes)
        .map(|(t, prefix)| {
            let mine: Vec<_> = pooled.by_ref().take(t.functions.len().max(1)).collect();
            let p = prefix
                .into_inner()
                .unwrap_or_else(|| contained(|| unit_prefix(t, symtab, opts)))?;
            let (backs, checks) = first_failure(mine.into_iter().flatten())?;
            Ok(merge_unit(t, opts, p, backs, checks))
        })
        .collect()
}

impl CompiledUnit {
    /// The Clight open semantics of this unit.
    pub fn clight_sem(&self, symtab: &SymbolTable) -> clight::ClightSem {
        clight::ClightSem::new(self.clight.clone(), symtab.clone())
    }

    /// The Asm open semantics of this unit.
    pub fn asm_sem(&self, symtab: &SymbolTable) -> AsmSem {
        AsmSem::new(self.asm.clone(), symtab.clone())
    }

    /// The Mach open semantics (with the `Asmgen` return-address oracle
    /// installed).
    pub fn mach_sem(&self, symtab: &SymbolTable) -> MachSem {
        MachSem::new(self.mach.clone(), symtab.clone()).with_ra_oracle(
            backend::asmgen::make_ra_oracle(self.ra_map.clone(), symtab.clone()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pipeline_compiles() {
        let src = "
            int helper(int x) { return x * 2; }
            int main_fn(int a) {
                int b;
                b = helper(a + 1);
                return b - a;
            }";
        let (units, tbl) = compile_all(&[src], CompilerOptions::default()).unwrap();
        assert_eq!(units.len(), 1);
        let u = &units[0];
        assert_eq!(u.asm.functions.len(), 2);
        assert!(tbl.block_of("main_fn").is_some());
    }

    #[test]
    fn optimizations_are_optional() {
        let src = "int f(int a) { return a * 1 + 0; }";
        let (u0, _) = compile_all(&[src], CompilerOptions::none()).unwrap();
        let (u1, _) = compile_all(&[src], CompilerOptions::default()).unwrap();
        // Both pipelines produce runnable Asm (sizes may differ).
        assert_eq!(u0[0].asm.functions.len(), 1);
        assert_eq!(u1[0].asm.functions.len(), 1);
    }

    #[test]
    fn multi_unit_compilation_shares_table() {
        let a = "extern int mult(int, int); int sqr(int n) { int r; r = mult(n, n); return r; }";
        let b = "int mult(int n, int p) { return n * p; }";
        let (units, tbl) = compile_all(&[a, b], CompilerOptions::default()).unwrap();
        assert_eq!(units.len(), 2);
        // Both units agree on the block of `mult`.
        assert!(tbl.block_of("mult").is_some());
        assert!(tbl.block_of("sqr").is_some());
    }

    /// One item's back-end and validation results, as the pool returns them.
    type Item = (Option<Result<u32, Fault>>, Option<Result<u32, Fault>>);

    fn panic_in(pass: &'static str) -> Fault {
        Fault::Panic(pass, format!("{pass} failed"))
    }

    #[test]
    fn a_back_end_fault_outranks_an_earlier_functions_validation_fault() {
        // Function 0 compiled but its validation panicked; function 1's
        // back end panicked. Serially, every back end runs first.
        let items: Vec<Item> = vec![
            (Some(Ok(0)), Some(Err(panic_in("validate")))),
            (Some(Err(panic_in("stacking"))), None),
        ];
        match first_failure(items) {
            Err(Fault::Panic(pass, _)) => assert_eq!(pass, "stacking"),
            _ => panic!("expected function 1's back-end panic"),
        }
        // Among validations, the first function's fault is reported.
        let items: Vec<Item> = vec![
            (Some(Ok(0)), Some(Err(panic_in("validate")))),
            (Some(Ok(1)), Some(Err(panic_in("validate-late")))),
        ];
        match first_failure(items) {
            Err(Fault::Panic(pass, _)) => assert_eq!(pass, "validate"),
            _ => panic!("expected function 0's validation panic"),
        }
    }

    /// The strict fold ranks panics and errors by unit, as the serial loop
    /// meets them: an error before a panic wins without a retry, a panic
    /// that heals on its retry lets a later error through, and a panic that
    /// recurs unwinds with its message ahead of a later error.
    #[test]
    fn the_strict_fold_takes_the_first_failure_in_serial_order() {
        let parse_error = || Fault::Error(front_end("int f(").unwrap_err());
        let r = strict(
            vec![Ok(0), Err(parse_error()), Err(panic_in("stacking"))],
            |_| panic!("a panic after the first error is never retried"),
        );
        assert!(matches!(r, Err(CompileError::Parse(_))), "{r:?}");
        let r = strict(vec![Err(panic_in("stacking")), Err(parse_error())], |_| {
            Some(Ok(0))
        });
        assert!(matches!(r, Err(CompileError::Parse(_))), "{r:?}");
        let r = crate::resilience::contain(|| {
            strict(
                vec![Ok(0), Err(panic_in("stacking")), Err(parse_error())],
                |_| Some(Err(panic_in("stacking"))),
            )
        });
        assert_eq!(r.err().as_deref(), Some("stacking failed"));
    }

    #[test]
    fn clean_items_split_in_function_order() {
        // Missing entries (no function, or no validation) are skipped.
        let items: Vec<Item> = vec![
            (Some(Ok(0)), Some(Ok(10))),
            (None, Some(Ok(11))),
            (Some(Ok(2)), None),
        ];
        match first_failure(items) {
            Ok((backs, checks)) => {
                assert_eq!(backs, [0, 2]);
                assert_eq!(checks, [10, 11]);
            }
            Err(_) => panic!("no item failed"),
        }
    }
}
