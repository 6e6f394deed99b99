//! The static validation layer: run every IR lint and per-pass translation
//! validator from `compcerto-validate` over one [`CompiledUnit`].
//!
//! This is the *a posteriori* complement to the dynamic Thm 3.8 harness:
//! the lints check each intermediate program's well-formedness in
//! isolation, and the validators check three backend passes (Allocation,
//! Linearize, Asmgen) against their inputs without trusting the pass code.
//! An empty result means the unit passed every check.

use compcerto_core::symtab::SymbolTable;
use compcerto_validate::{
    lint_asm, lint_linear, lint_ltl, lint_mach, lint_rtl, validate_allocation, validate_asmgen,
    validate_constprop, validate_deadcode, validate_linearize, Diagnostic,
};
use rtl::Romem;

use crate::driver::CompiledUnit;

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
/// Function pairing between pass input and output is by name; a function
/// present on one side only is itself a finding (`<pass>.function-missing`).
pub fn validate_unit(unit: &CompiledUnit, symtab: &SymbolTable) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    let romem = Romem::new(symtab);
    diags.extend(validate_constprop(
        &unit.rtl_vprop_in,
        &unit.rtl_ndce_in,
        &romem,
    ));
    diags.extend(validate_deadcode(&unit.rtl_ndce_in, &unit.rtl_opt));

    diags.extend(lint_rtl(&unit.rtl_opt));

    for rf in &unit.rtl_opt.functions {
        match unit.ltl.functions.iter().find(|lf| lf.name == rf.name) {
            Some(lf) => diags.extend(validate_allocation(rf, lf)),
            None => diags.push(Diagnostic::new(
                "alloc",
                &rf.name,
                None,
                "alloc.function-missing",
                "function present in RTL but absent from LTL".to_string(),
            )),
        }
    }

    diags.extend(lint_ltl(&unit.ltl_tunneled));

    for tf in &unit.ltl_tunneled.functions {
        match unit
            .linear_raw
            .functions
            .iter()
            .find(|nf| nf.name == tf.name)
        {
            Some(nf) => diags.extend(validate_linearize(tf, nf)),
            None => diags.push(Diagnostic::new(
                "linearize",
                &tf.name,
                None,
                "linearize.function-missing",
                "function present in LTL but absent from Linear".to_string(),
            )),
        }
    }

    diags.extend(lint_linear(&unit.linear));
    diags.extend(lint_mach(&unit.mach));

    for mf in &unit.mach.functions {
        match unit.asm.functions.iter().find(|af| af.name == mf.name) {
            Some(af) => diags.extend(validate_asmgen(mf, af)),
            None => diags.push(Diagnostic::new(
                "asmgen",
                &mf.name,
                None,
                "asmgen.function-missing",
                "function present in Mach but absent from Asm".to_string(),
            )),
        }
    }

    diags.extend(lint_asm(&unit.asm));
    diags
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
