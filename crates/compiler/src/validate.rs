//! The static validation layer: run every IR lint and per-pass translation
//! validator from `compcerto-validate` over one [`CompiledUnit`].
//!
//! This is the *a posteriori* complement to the dynamic Thm 3.8 harness:
//! the lints check each intermediate program's well-formedness in
//! isolation, and the validators check three backend passes (Allocation,
//! Linearize, Asmgen) against their inputs without trusting the pass code.
//! An empty result means the unit passed every check.
//!
//! Every check runs one function at a time. [`validate_unit`] folds the
//! per-function validator over a unit's functions, and the driver runs the
//! same validator on each function as the tail of its back-end item on the
//! compile pool (DESIGN.md §14.3), then reassembles the unit's findings
//! with the same fold.

use std::collections::BTreeSet;

use backend::mach::MachProgram;
use backend::{AsmProgram, LinProgram, LtlProgram};
use compcerto_core::symtab::SymbolTable;
use compcerto_validate::{
    fold_rewrite_checks, function_count_changed, known_callees, lint_asm_function,
    lint_linear_function, lint_ltl_function, lint_mach_function, lint_rtl_function,
    validate_allocation, validate_asmgen, validate_constprop_function, validate_deadcode_function,
    validate_linearize, Diagnostic, RewriteCheck,
};
use rtl::{Romem, RtlFunction, RtlProgram};

use crate::driver::CompiledUnit;

/// What the validator reads beyond a function's own programs, built once
/// per unit.
pub(crate) struct UnitScope {
    /// The read-only memory the value facts are recomputed against, built
    /// from the symbol table rather than shared with the passes, so a
    /// unit's `mem.*` counters read the same whether it was validated on
    /// the compile pool or by [`validate_unit`].
    romem: Romem,
    /// The names a call may target: the unit's functions and externs.
    callees: BTreeSet<String>,
}

impl UnitScope {
    /// The scope of a unit whose functions and externs `prog` names (every
    /// back-end stage keeps both).
    pub(crate) fn new(symtab: &SymbolTable, prog: &RtlProgram) -> UnitScope {
        UnitScope {
            romem: Romem::new(symtab),
            callees: known_callees(
                prog.functions.iter().map(|f| f.name.as_str()),
                prog.externs.iter().map(|(n, _)| n.as_str()),
            ),
        }
    }
}

/// The programs the validator checks: a whole unit's, or the singleton
/// programs of one function's back end.
pub(crate) struct Stages<'a> {
    pub(crate) vprop_in: &'a RtlProgram,
    pub(crate) ndce_in: &'a RtlProgram,
    pub(crate) rtl_opt: &'a RtlProgram,
    pub(crate) ltl: &'a LtlProgram,
    pub(crate) ltl_tunneled: &'a LtlProgram,
    pub(crate) linear_raw: &'a LinProgram,
    pub(crate) linear: &'a LinProgram,
    pub(crate) mach: &'a MachProgram,
    pub(crate) asm: &'a AsmProgram,
}

impl CompiledUnit {
    /// The unit's validated programs.
    pub(crate) fn stages(&self) -> Stages<'_> {
        Stages {
            vprop_in: &self.rtl_vprop_in,
            ndce_in: &self.rtl_ndce_in,
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

/// One function's findings, one bucket per check of [`validate_unit`].
#[derive(Debug, Default)]
pub(crate) struct FnFindings {
    /// Checks 1–2, which hold back their rewrite findings when any function
    /// of the unit was reshaped.
    rewrites: [RewriteCheck; 2],
    /// Checks 3–10.
    rest: [Vec<Diagnostic>; 8],
}

fn missing(pass: &'static str, name: &str, rule: &'static str, what: &str) -> Diagnostic {
    Diagnostic::new(pass, name, None, rule, what)
}

/// The `i`-th functions of a pass's input and output, when both programs
/// have as many functions.
fn positional<'a>(
    i: usize,
    input: &'a RtlProgram,
    output: &'a RtlProgram,
) -> Option<(&'a RtlFunction, &'a RtlFunction)> {
    if input.functions.len() != output.functions.len() {
        return None;
    }
    input.functions.get(i).zip(output.functions.get(i))
}

/// The per-function validator: every check of [`validate_unit`] on the
/// `i`-th function of the program that drives it (a check whose program
/// has no `i`-th function is skipped). The two RTL validators pair
/// functions by position, the three backend validators by name, and a
/// function with no partner is a `<pass>.function-missing` finding.
fn validate_function(p: &Stages<'_>, i: usize, scope: &UnitScope) -> FnFindings {
    let mut found = FnFindings::default();
    if let Some((fi, fo)) = positional(i, p.vprop_in, p.ndce_in) {
        found.rewrites[0] = validate_constprop_function(fi, fo, &scope.romem);
    }
    if let Some((fi, fo)) = positional(i, p.ndce_in, p.rtl_opt) {
        found.rewrites[1] = validate_deadcode_function(fi, fo);
    }
    let [rtl, alloc, ltl, lin, linear, mach, asmgen, asm] = &mut found.rest;
    if let Some(rf) = p.rtl_opt.functions.get(i) {
        lint_rtl_function(rf, &scope.callees, rtl);
        match p.ltl.functions.iter().find(|lf| lf.name == rf.name) {
            Some(lf) => alloc.extend(validate_allocation(rf, lf)),
            None => alloc.push(missing(
                "alloc",
                &rf.name,
                "alloc.function-missing",
                "function present in RTL but absent from LTL",
            )),
        }
    }
    if let Some(tf) = p.ltl_tunneled.functions.get(i) {
        lint_ltl_function(tf, &scope.callees, ltl);
        match p.linear_raw.functions.iter().find(|nf| nf.name == tf.name) {
            Some(nf) => lin.extend(validate_linearize(tf, nf)),
            None => lin.push(missing(
                "linearize",
                &tf.name,
                "linearize.function-missing",
                "function present in LTL but absent from Linear",
            )),
        }
    }
    if let Some(nf) = p.linear.functions.get(i) {
        lint_linear_function(nf, &scope.callees, linear);
    }
    if let Some(mf) = p.mach.functions.get(i) {
        lint_mach_function(mf, &scope.callees, mach);
        match p.asm.functions.iter().find(|af| af.name == mf.name) {
            Some(af) => asmgen.extend(validate_asmgen(mf, af)),
            None => asmgen.push(missing(
                "asmgen",
                &mf.name,
                "asmgen.function-missing",
                "function present in Mach but absent from Asm",
            )),
        }
    }
    if let Some(af) = p.asm.functions.get(i) {
        lint_asm_function(af, &scope.callees, asm);
    }
    found
}

/// [`validate_function`] on every function of `p`, in order, after one
/// program-level entry: a pass that changed the number of functions is a
/// shape finding of check 1 or 2, and pairs no function.
pub(crate) fn validate_functions(p: &Stages<'_>, scope: &UnitScope) -> Vec<FnFindings> {
    let mut program = FnFindings::default();
    let counts = [
        ("constprop", p.vprop_in, p.ndce_in),
        ("deadcode", p.ndce_in, p.rtl_opt),
    ];
    for (k, (pass, input, output)) in counts.into_iter().enumerate() {
        if let Some(d) = function_count_changed(pass, input, output) {
            program.rewrites[k] = RewriteCheck::Reshaped(vec![d]);
        }
    }
    let n = [
        p.vprop_in.functions.len(),
        p.ndce_in.functions.len(),
        p.rtl_opt.functions.len(),
        p.ltl_tunneled.functions.len(),
        p.linear.functions.len(),
        p.mach.functions.len(),
        p.asm.functions.len(),
    ]
    .into_iter()
    .max()
    .unwrap_or(0);
    std::iter::once(program)
        .chain((0..n).map(|i| validate_function(p, i, scope)))
        .collect()
}

/// A unit's findings from its functions' findings, in function order:
/// check by check (validator-major, [`validate_unit`]'s order), with the
/// shape rule of checks 1–2 applied across the unit.
pub(crate) fn assemble(fns: Vec<FnFindings>) -> Vec<Diagnostic> {
    let mut rewrites: [Vec<RewriteCheck>; 2] = Default::default();
    let mut rest = Vec::with_capacity(fns.len());
    for f in fns {
        let [constprop, deadcode] = f.rewrites;
        rewrites[0].push(constprop);
        rewrites[1].push(deadcode);
        rest.push(f.rest);
    }
    let mut out: Vec<Diagnostic> = rewrites.into_iter().flat_map(fold_rewrite_checks).collect();
    for k in 0..8 {
        for r in &mut rest {
            out.append(&mut r[k]);
        }
    }
    out
}

/// Run the full static validation layer over `unit`.
///
/// Checks, in pipeline order:
///
/// 1. `validate_constprop` — `Vprop` input snapshot vs its output (the
///    abstract-interpretation constant propagation, DESIGN.md §12); the
///    value facts are recomputed on the snapshot against the same
///    read-only memory the pass used, so `symtab` is required;
/// 2. `validate_deadcode` — `Ndce` input snapshot vs the final optimized
///    RTL (neededness-driven dead-code elimination);
/// 3. `lint_rtl` on the optimized RTL (the allocator's input);
/// 4. `validate_allocation` — optimized RTL vs post-`Allocation` LTL;
/// 5. `lint_ltl` on the post-`Tunneling` LTL (the linearizer's input);
/// 6. `validate_linearize` — tunneled LTL vs raw `Linearize` output;
/// 7. `lint_linear` on the final Linear program (the stacker's input);
/// 8. `lint_mach` on the Mach program;
/// 9. `validate_asmgen` — Mach vs Asm;
/// 10. `lint_asm` on the final Asm program.
///
/// Each check runs function by function; the findings come check by check,
/// each check's in function order. Checks 1–2 pair functions by position:
/// a changed function count is one `<program>` finding, and when any
/// function's shape changed only the shape findings are reported. Checks
/// 4, 6 and 9 pair functions by name: a function present on the input side
/// only is a finding (`<pass>.function-missing`). The lints check calls
/// against the unit's functions and externs, as the optimized RTL names
/// them.
pub fn validate_unit(unit: &CompiledUnit, symtab: &SymbolTable) -> Vec<Diagnostic> {
    let scope = UnitScope::new(symtab, &unit.rtl_opt);
    assemble(validate_functions(&unit.stages(), &scope))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{compile_all, CompilerOptions};

    #[test]
    fn honest_compilation_is_statically_clean() {
        let src = "
            extern int inc(int);
            int shared = 5;
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
        let (units, _) = compile_all(&[src], CompilerOptions::validated()).expect("compiles");
        assert_eq!(units[0].diagnostics, vec![], "honest unit must be clean");
    }

    #[test]
    fn validation_off_by_default_and_report_empty() {
        let src = "int f(int a) { return a + 1; }";
        let (units, _) = compile_all(&[src], CompilerOptions::default()).expect("compiles");
        assert!(units[0].diagnostics.is_empty());
    }

    #[test]
    fn tampered_asm_is_flagged() {
        let src = "int f(int a) { return a + 1; }";
        let (mut units, tbl) = compile_all(&[src], CompilerOptions::default()).expect("compiles");
        let mut unit = units.remove(0);
        // Delete one instruction from the Asm: the cursor walk must notice.
        let mid = unit.asm.functions[0].code.len() / 2;
        unit.asm.functions[0].code.remove(mid);
        let diags = validate_unit(&unit, &tbl);
        assert!(
            diags.iter().any(|d| d.pass == "asmgen"),
            "expected an asmgen finding, got {diags:?}"
        );
    }

    #[test]
    fn tampered_optimized_rtl_is_flagged_statically() {
        // Drift one immediate in the final optimized RTL: the neededness
        // validator sees a non-Nop rewrite it cannot justify.
        let src = "int f(int a) { return a + 41; }";
        let (mut units, tbl) = compile_all(&[src], CompilerOptions::default()).expect("compiles");
        let mut unit = units.remove(0);
        let f = &mut unit.rtl_opt.functions[0];
        let drifted = f.code.iter().find_map(|(n, i)| match i {
            rtl::Inst::Op(rtl::RtlOp::BinopImm(b, r, mem::Val::Int(k)), d, s) => Some((
                *n,
                rtl::Inst::Op(rtl::RtlOp::BinopImm(*b, *r, mem::Val::Int(k ^ 1)), *d, *s),
            )),
            _ => None,
        });
        let (n, inst) = drifted.expect("an Int immediate to drift");
        f.code.insert(n, inst);
        let diags = validate_unit(&unit, &tbl);
        assert!(
            diags.iter().any(|d| d.pass == "deadcode"),
            "expected a deadcode finding, got {diags:?}"
        );
    }
}
