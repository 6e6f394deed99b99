//! The traced compile: the Table 3 pipeline driven pass by pass from here,
//! calling each pass's public function in the order of
//! `compiler::driver::{unit_prefix, fn_back_end}` and
//! `compiler::validate_unit`, with one span per call.
//!
//! The traced run is only faithful if this replica does exactly what the
//! pipeline does, so [`check_against_compile_all`] compares its Asm dump and its
//! counters with `compile_all_jobs` at jobs 1 (the counters are
//! thread-local, so the serial run is the one they can be compared with).

use backend::{
    allocation, asmgen, cleanup_labels, debugvar, linearize, stacking, tunneling, AsmProgram,
    LinProgram, LtlProgram,
};
use clight::{build_symtab, parse, simpl_locals, typecheck};
use compcerto_core::symtab::SymbolTable;
use compcerto_validate::{
    lint_asm, lint_linear, lint_ltl, lint_mach, lint_rtl, validate_allocation, validate_asmgen,
    validate_constprop, validate_deadcode, validate_linearize, Diagnostic,
};
use compiler::ObsSnapshot;
use compiler::{compile_all_jobs, ir_counters, CompiledUnit, CompilerOptions, Counters, Jobs};
use minor::{cminorgen, cshmgen, selection};
use rtl::{constprop, cse, deadcode, inlining, renumber, rtlgen, tailcall, Romem, RtlProgram};

use crate::trace::span;

thread_local! {
    static BYTES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Source bytes the traced front end has parsed on this thread.
pub fn bytes_parsed() -> u64 {
    BYTES.with(std::cell::Cell::get)
}

/// Parse and type-check one unit (`compiler::front_end`).
pub fn front_end(src: &str) -> Result<clight::Program, String> {
    BYTES.with(|b| b.set(b.get() + src.len() as u64));
    let parsed = span("clight.parse", || parse(src)).map_err(|e| format!("{e}"))?;
    span("clight.typecheck", || typecheck(&parsed)).map_err(|e| format!("{e}"))
}

/// Compile one type-checked unit against `symtab`; returns the unit and the
/// counters `compile_all_jobs` would attach to it with metrics on.
pub fn compile_program(
    typed: &clight::Program,
    symtab: &SymbolTable,
    opts: CompilerOptions,
) -> Result<(CompiledUnit, Counters), String> {
    let snap = ObsSnapshot::take();

    // unit_prefix
    let clight_simpl = span("pass.simpl_locals", || simpl_locals(typed));
    let csharp = span("pass.cshmgen", || cshmgen(&clight_simpl)).map_err(|e| format!("{e}"))?;
    let cminor = span("pass.cminorgen", || cminorgen(&csharp)).map_err(|e| format!("{e}"))?;
    let cminorsel = span("pass.selection", || selection(&cminor));
    let rtl0 = span("pass.rtlgen", || rtlgen(&cminorsel));
    let mut pre = rtl0.clone();
    if opts.tailcall {
        pre = span("pass.tailcall", || tailcall(&pre));
    }
    if opts.inlining {
        pre = span("pass.inlining", || inlining(&pre));
    }
    let romem = Romem::new(symtab);

    // fn_back_end, one function at a time, concatenated in input order
    let ex = pre.externs.clone();
    let mut vprop_in = RtlProgram {
        functions: Vec::new(),
        externs: ex.clone(),
    };
    let mut ndce_in = vprop_in.clone();
    let mut rtl_opt = vprop_in.clone();
    let mut ltl = LtlProgram {
        functions: Vec::new(),
        externs: ex.clone(),
    };
    let mut ltl_tunneled = ltl.clone();
    let mut linear_raw = LinProgram {
        functions: Vec::new(),
        externs: ex.clone(),
    };
    let mut linear = linear_raw.clone();
    let mut mach = backend::mach::MachProgram {
        functions: Vec::new(),
        externs: ex.clone(),
    };
    let mut asm = AsmProgram {
        functions: Vec::new(),
        externs: ex.clone(),
    };
    let mut ra_map = backend::asmgen::RaMap::new();
    for func in &pre.functions {
        let mut r = RtlProgram {
            functions: vec![func.clone()],
            externs: ex.clone(),
        };
        r = span("pass.renumber", || renumber(&r));
        if opts.constprop {
            r = span("pass.constprop", || constprop(&r, &romem));
        }
        if opts.cse {
            r = span("pass.cse", || cse(&r));
        }
        if opts.deadcode {
            r = span("pass.deadcode", || deadcode(&r));
        }
        let v_in = r.clone();
        if opts.vprop {
            let facts = span("absint.value", || {
                compcerto_validate::value_facts_program(&r, &romem)
            });
            r = span("pass.vprop", || rtl::vprop(&r, &facts));
        }
        let n_in = r.clone();
        if opts.ndce {
            let facts = span("absint.needed", || {
                compcerto_validate::needed_facts_program(&r)
            });
            r = span("pass.ndce", || rtl::ndce(&r, &facts));
        }
        let l = span("pass.allocation", || allocation(&r));
        let lt = span("pass.tunneling", || tunneling(&l));
        let lr = span("pass.linearize", || linearize(&lt));
        let lin = span("pass.cleanup_labels", || debugvar(&cleanup_labels(&lr)));
        let m = span("pass.stacking", || stacking(&lin)).map_err(|e| format!("{e}"))?;
        let (a, ra) = span("pass.asmgen", || asmgen(&m));
        vprop_in.functions.extend(v_in.functions);
        ndce_in.functions.extend(n_in.functions);
        rtl_opt.functions.extend(r.functions);
        ltl.functions.extend(l.functions);
        ltl_tunneled.functions.extend(lt.functions);
        linear_raw.functions.extend(lr.functions);
        linear.functions.extend(lin.functions);
        mach.functions.extend(m.functions);
        asm.functions.extend(a.functions);
        ra_map.extend(ra);
    }
    let mut unit = CompiledUnit {
        clight: typed.clone(),
        clight_simpl,
        csharp,
        cminor,
        cminorsel,
        rtl: rtl0,
        rtl_vprop_in: vprop_in,
        rtl_ndce_in: ndce_in,
        rtl_opt,
        ltl,
        ltl_tunneled,
        linear_raw,
        linear,
        mach,
        asm,
        ra_map,
        diagnostics: Vec::new(),
        metrics: None,
    };
    if opts.validate {
        unit.diagnostics = validate_unit(&unit, symtab);
    }
    let mut counters = snap.delta();
    counters.add(&ir_counters(&unit));
    Ok((unit, counters))
}

fn missing(pass: &'static str, name: &str, rule: &'static str, what: &str) -> Diagnostic {
    Diagnostic::new(pass, name, None, rule, what)
}

/// `compiler::validate_unit`, one span per validator and one for the lints.
fn validate_unit(unit: &CompiledUnit, symtab: &SymbolTable) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let romem = Romem::new(symtab);
    diags.extend(span("validate.constprop", || {
        validate_constprop(&unit.rtl_vprop_in, &unit.rtl_ndce_in, &romem)
    }));
    diags.extend(span("validate.deadcode", || {
        validate_deadcode(&unit.rtl_ndce_in, &unit.rtl_opt)
    }));
    diags.extend(span("validate.lint", || lint_rtl(&unit.rtl_opt)));
    span("validate.allocation", || {
        for rf in &unit.rtl_opt.functions {
            match unit.ltl.functions.iter().find(|lf| lf.name == rf.name) {
                Some(lf) => diags.extend(validate_allocation(rf, lf)),
                None => diags.push(missing(
                    "alloc",
                    &rf.name,
                    "alloc.function-missing",
                    "function present in RTL but absent from LTL",
                )),
            }
        }
    });
    diags.extend(span("validate.lint", || lint_ltl(&unit.ltl_tunneled)));
    span("validate.linearize", || {
        for tf in &unit.ltl_tunneled.functions {
            match unit
                .linear_raw
                .functions
                .iter()
                .find(|nf| nf.name == tf.name)
            {
                Some(nf) => diags.extend(validate_linearize(tf, nf)),
                None => diags.push(missing(
                    "linearize",
                    &tf.name,
                    "linearize.function-missing",
                    "function present in LTL but absent from Linear",
                )),
            }
        }
    });
    diags.extend(span("validate.lint", || lint_linear(&unit.linear)));
    diags.extend(span("validate.lint", || lint_mach(&unit.mach)));
    span("validate.asmgen", || {
        for mf in &unit.mach.functions {
            match unit.asm.functions.iter().find(|af| af.name == mf.name) {
                Some(af) => diags.extend(validate_asmgen(mf, af)),
                None => diags.push(missing(
                    "asmgen",
                    &mf.name,
                    "asmgen.function-missing",
                    "function present in Mach but absent from Asm",
                )),
            }
        }
    });
    diags.extend(span("validate.lint", || lint_asm(&unit.asm)));
    diags
}

/// A traced `compile_all_jobs` at jobs 1: front ends, the shared symbol
/// table, then each unit's pipeline.
pub struct Traced {
    pub units: Vec<CompiledUnit>,
    pub counters: Vec<Counters>,
    pub symtab: SymbolTable,
}

pub fn compile_all(sources: &[&str], opts: CompilerOptions) -> Result<Traced, String> {
    let typed = sources
        .iter()
        .map(|s| front_end(s))
        .collect::<Result<Vec<_>, _>>()?;
    let refs: Vec<&clight::Program> = typed.iter().collect();
    let symtab = span("clight.link", || build_symtab(&refs)).map_err(|e| format!("{e}"))?;
    let mut units = Vec::with_capacity(typed.len());
    let mut counters = Vec::with_capacity(typed.len());
    for t in &typed {
        let (u, c) = compile_program(t, &symtab, opts)?;
        units.push(u);
        counters.push(c);
    }
    Ok(Traced {
        units,
        counters,
        symtab,
    })
}

/// The Asm-O text of a unit, as `ccomp-o --dump-asm` prints its functions.
pub fn asm_dump(unit: &CompiledUnit) -> String {
    unit.asm.functions.iter().map(|f| f.dump()).collect()
}

/// What the faithfulness check compares per unit: Asm dump, counters and
/// diagnostics.
pub type Fingerprint = Vec<(String, Counters, Vec<Diagnostic>)>;

impl Traced {
    pub fn fingerprint(&self) -> Fingerprint {
        self.units
            .iter()
            .zip(&self.counters)
            .map(|(u, c)| (asm_dump(u), c.clone(), u.diagnostics.clone()))
            .collect()
    }
}

/// Fail unless the traced compile reproduces `compile_all_jobs`'s Asm and
/// counters.
pub fn check_against_compile_all(
    sources: &[&str],
    opts: CompilerOptions,
    traced: &Fingerprint,
) -> Result<(), String> {
    let (units, _) = compile_all_jobs(sources, opts.with_metrics(), Jobs::N(1))
        .map_err(|e| format!("compile_all_jobs: {e}"))?;
    if units.len() != traced.len() {
        return Err("traced compile produced a different number of units".into());
    }
    for (i, (u, (dump, counters, diags))) in units.iter().zip(traced).enumerate() {
        if asm_dump(u) != *dump {
            return Err(format!(
                "traced compile: unit {i} Asm differs from compile_all_jobs"
            ));
        }
        let want = u.metrics.as_ref().map(|m| &m.counters);
        if want != Some(counters) {
            return Err(format!(
                "traced compile: unit {i} counters differ from compile_all_jobs: \
                 compile_all_jobs {want:?}, traced {counters:?}"
            ));
        }
        if u.diagnostics != *diags {
            return Err(format!("traced compile: unit {i} diagnostics differ"));
        }
    }
    Ok(())
}
