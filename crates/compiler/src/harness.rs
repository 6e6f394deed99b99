//! Correctness harnesses: the executable analogs of paper Thm. 3.5,
//! Thm. 3.8 and Cor. 3.9.
//!
//! Each harness instantiates the differential forward-simulation checker
//! (paper Fig. 6) at the appropriate conventions:
//!
//! * [`check_thm38`] — `Clight(p) ≤_{C↠C} Asm(p')` with the end-to-end
//!   convention `C` (its executable core, [`compcerto_core::cc::Ca`]);
//! * [`check_thm35`] — `Asm(p1) ⊕ Asm(p2) ≤_{id↠id} Asm(p1 + p2)`;
//! * [`check_cor39`] — `Clight(M1) ⊕ … ⊕ Clight(Mn) ≤_{C↠C} Asm(M.s)`.
//!
//! Every harness has a `_budgeted` variant taking a full
//! [`RunBudget`] (memory / call-depth / deadline quotas in addition to
//! fuel); the plain variants run under [`default_budget`]. All entry points
//! are panic-free: linking failures and unknown entry points surface as
//! [`SimCheckError::Precondition`], budget violations as
//! [`SimCheckError::OutOfFuel`] / [`SimCheckError::BudgetExceeded`].

use backend::{link_asm, AsmProgram, AsmSem};
use clight::ClightSem;
use compcerto_core::cconv::CConv;
use compcerto_core::conv::IdConv;
use compcerto_core::hcomp::HComp;
use compcerto_core::iface::{ARegs, CQuery, A};
use compcerto_core::lts::RunBudget;
use compcerto_core::sim::{check_fwd_sim_budgeted, EnvMode, SimCheckError, SimCheckReport};
use compcerto_core::symtab::SymbolTable;

use crate::driver::CompiledUnit;
use crate::extlib::ExtLib;

/// Default fuel for harness executions.
pub const FUEL: u64 = 10_000_000;

/// The budget the plain (non-`_budgeted`) harness entry points run under:
/// [`FUEL`] steps per side, no other quotas.
pub fn default_budget() -> RunBudget {
    RunBudget::with_fuel(FUEL)
}

/// Check Theorem 3.8 on one execution: run the source component at the C
/// level and the compiled component at the assembly level on `C`-related
/// questions, with the external library answering both sides, and verify the
/// final answers are related by the calling convention.
///
/// # Errors
/// Reports the violated simulation edge.
pub fn check_thm38(
    unit: &CompiledUnit,
    symtab: &SymbolTable,
    lib: &ExtLib,
    query: &CQuery,
) -> Result<SimCheckReport, SimCheckError> {
    check_thm38_budgeted(unit, symtab, lib, query, &default_budget())
}

/// [`check_thm38`] under an explicit [`RunBudget`].
///
/// # Errors
/// Reports the violated simulation edge or the exceeded quota.
pub fn check_thm38_budgeted(
    unit: &CompiledUnit,
    symtab: &SymbolTable,
    lib: &ExtLib,
    query: &CQuery,
    budget: &RunBudget,
) -> Result<SimCheckReport, SimCheckError> {
    let src = unit.clight_sem(symtab);
    let tgt = unit.asm_sem(symtab);
    // The full convention C = R*·wt·CA·vainj (paper §5).
    let c = CConv::new(symtab.clone());
    let mut env_c = |q: &CQuery| lib.answer_c(q);
    let mut env_a = |q: &ARegs| lib.answer_a(q);
    check_fwd_sim_budgeted(
        &src,
        &tgt,
        &c,
        &c,
        query,
        EnvMode::Dual(&mut env_c, &mut env_a),
        budget,
    )
}

/// Check the Theorem 3.5 analog on one execution: the horizontal composition
/// of two Asm components simulates (at `id ↠ id`) the syntactically linked
/// program.
///
/// # Errors
/// Reports the violated simulation edge; a linking failure is reported as
/// [`SimCheckError::Precondition`].
pub fn check_thm35(
    p1: &AsmProgram,
    p2: &AsmProgram,
    symtab: &SymbolTable,
    lib: &ExtLib,
    query: &ARegs,
) -> Result<SimCheckReport, SimCheckError> {
    check_thm35_budgeted(p1, p2, symtab, lib, query, &default_budget())
}

/// [`check_thm35`] under an explicit [`RunBudget`].
///
/// # Errors
/// Reports the violated simulation edge, a linking failure, or the exceeded
/// quota.
pub fn check_thm35_budgeted(
    p1: &AsmProgram,
    p2: &AsmProgram,
    symtab: &SymbolTable,
    lib: &ExtLib,
    query: &ARegs,
    budget: &RunBudget,
) -> Result<SimCheckReport, SimCheckError> {
    let linked = link_asm(p1, p2)
        .map_err(|e| SimCheckError::Precondition(format!("programs do not link: {e}")))?;
    let composite = HComp::new(
        AsmSem::new(p1.clone(), symtab.clone()),
        AsmSem::new(p2.clone(), symtab.clone()),
    );
    let whole = AsmSem::new(linked, symtab.clone());
    let mut env1 = |q: &ARegs| lib.answer_a(q);
    let mut env2 = |q: &ARegs| lib.answer_a(q);
    check_fwd_sim_budgeted(
        &composite,
        &whole,
        &IdConv::<A>::new(),
        &IdConv::<A>::new(),
        query,
        EnvMode::Dual(&mut env1, &mut env2),
        budget,
    )
}

/// Check the Corollary 3.9 analog on one execution: the horizontal
/// composition of two source components' Clight semantics is simulated (at
/// the convention `C`) by the Asm semantics of the compiled-and-linked
/// program.
///
/// # Errors
/// Reports the violated simulation edge; a linking failure is reported as
/// [`SimCheckError::Precondition`].
pub fn check_cor39(
    u1: &CompiledUnit,
    u2: &CompiledUnit,
    symtab: &SymbolTable,
    lib: &ExtLib,
    query: &CQuery,
) -> Result<SimCheckReport, SimCheckError> {
    check_cor39_budgeted(u1, u2, symtab, lib, query, &default_budget())
}

/// [`check_cor39`] under an explicit [`RunBudget`].
///
/// # Errors
/// Reports the violated simulation edge, a linking failure, or the exceeded
/// quota.
pub fn check_cor39_budgeted(
    u1: &CompiledUnit,
    u2: &CompiledUnit,
    symtab: &SymbolTable,
    lib: &ExtLib,
    query: &CQuery,
    budget: &RunBudget,
) -> Result<SimCheckReport, SimCheckError> {
    let linked = link_asm(&u1.asm, &u2.asm)
        .map_err(|e| SimCheckError::Precondition(format!("programs do not link: {e}")))?;
    let composite = HComp::new(
        ClightSem::new(u1.clight.clone(), symtab.clone()).with_label("Clight#1"),
        ClightSem::new(u2.clight.clone(), symtab.clone()).with_label("Clight#2"),
    );
    let whole = AsmSem::new(linked, symtab.clone());
    let c = CConv::new(symtab.clone());
    let mut env_c = |q: &CQuery| lib.answer_c(q);
    let mut env_a = |q: &ARegs| lib.answer_a(q);
    check_fwd_sim_budgeted(
        &composite,
        &whole,
        &c,
        &c,
        query,
        EnvMode::Dual(&mut env_c, &mut env_a),
        budget,
    )
}

/// Build a C-level query for a function of a compiled program.
///
/// # Errors
/// Fails when the function is unknown to the unit or the symbol table, or
/// when the initial memory cannot be built.
pub fn try_c_query(
    symtab: &SymbolTable,
    unit: &CompiledUnit,
    fname: &str,
    args: Vec<mem::Val>,
) -> Result<CQuery, String> {
    let sig = unit
        .clight
        .sig_of(fname)
        .ok_or_else(|| format!("unknown function `{fname}`"))?;
    let vf = symtab
        .func_ptr(fname)
        .ok_or_else(|| format!("`{fname}` not in the symbol table"))?;
    let mem = symtab
        .build_init_mem()
        .map_err(|e| format!("initial memory: {e}"))?;
    Ok(CQuery { vf, sig, args, mem })
}

/// Build a C-level query for a function of a compiled program.
///
/// # Panics
/// Panics when the function is unknown (harness misuse); library code goes
/// through [`try_c_query`].
pub fn c_query(
    symtab: &SymbolTable,
    unit: &CompiledUnit,
    fname: &str,
    args: Vec<mem::Val>,
) -> CQuery {
    match try_c_query(symtab, unit, fname, args) {
        Ok(q) => q,
        Err(e) => panic!("c_query: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{compile_all, CompilerOptions};
    use mem::Val;

    #[test]
    fn thm38_simple_arithmetic() {
        let src = "int f(int a, int b) { return (a + b) * (a - b); }";
        let (units, tbl) = compile_all(&[src], CompilerOptions::default()).unwrap();
        let lib = ExtLib::demo(tbl.clone());
        let q = c_query(&tbl, &units[0], "f", vec![Val::Int(9), Val::Int(4)]);
        let report = check_thm38(&units[0], &tbl, &lib, &q).expect("Thm 3.8 holds");
        assert_eq!(report.external_calls, 0);
    }

    #[test]
    fn thm38_with_memory_and_calls() {
        let src = "
            int counter = 0;
            int helper(int x) { counter = counter + x; return counter; }
            int f(int a) {
                int r1; int r2;
                r1 = helper(a);
                r2 = helper(a * 2);
                return r1 + r2;
            }";
        let (units, tbl) = compile_all(&[src], CompilerOptions::default()).unwrap();
        let lib = ExtLib::demo(tbl.clone());
        let q = c_query(&tbl, &units[0], "f", vec![Val::Int(3)]);
        check_thm38(&units[0], &tbl, &lib, &q).expect("Thm 3.8 holds");
    }

    #[test]
    fn thm38_with_external_calls() {
        let src = "
            extern int inc(int);
            int f(int a) { int r; r = inc(a); return r * 2; }";
        let (units, tbl) = compile_all(&[src], CompilerOptions::default()).unwrap();
        let lib = ExtLib::demo(tbl.clone());
        let q = c_query(&tbl, &units[0], "f", vec![Val::Int(20)]);
        let report = check_thm38(&units[0], &tbl, &lib, &q).expect("Thm 3.8 holds");
        assert_eq!(report.external_calls, 1);
    }

    #[test]
    fn thm38_with_stack_arguments() {
        let src = "
            int sum6(int a, int b, int c, int d, int e, int f) {
                return a + b + c + d + e + f;
            }
            int g(int x) { int r; r = sum6(x, x, x, x, x, x); return r; }";
        let (units, tbl) = compile_all(&[src], CompilerOptions::default()).unwrap();
        let lib = ExtLib::demo(tbl.clone());
        let q = c_query(&tbl, &units[0], "g", vec![Val::Int(7)]);
        check_thm38(&units[0], &tbl, &lib, &q).expect("Thm 3.8 holds");
    }

    #[test]
    fn thm35_and_cor39_mutual_recursion() {
        // Fig. 1 of the paper: sqr calls mult across translation units.
        let a = "extern int mult(int, int); int sqr(int n) { int r; r = mult(n, n); return r; }";
        let b = "int mult(int n, int p) { return n * p; }";
        let (units, tbl) = compile_all(&[a, b], CompilerOptions::default()).unwrap();
        let lib = ExtLib::demo(tbl.clone());

        // Cor. 3.9: composed sources vs linked target.
        let q = c_query(&tbl, &units[0], "sqr", vec![Val::Int(12)]);
        check_cor39(&units[0], &units[1], &tbl, &lib, &q).expect("Cor 3.9 holds");

        // Thm 3.5: composed Asm vs linked Asm.
        let (_, qa) = compcerto_core::conv::SimConv::transport_query(
            &compcerto_core::cc::Ca::new(tbl.len() as u32),
            &q,
        )
        .unwrap();
        check_thm35(&units[0].asm, &units[1].asm, &tbl, &lib, &qa).expect("Thm 3.5 holds");
    }

    #[test]
    fn try_c_query_rejects_unknown_function() {
        let src = "int f(int a) { return a; }";
        let (units, tbl) = compile_all(&[src], CompilerOptions::default()).unwrap();
        assert!(try_c_query(&tbl, &units[0], "nope", vec![]).is_err());
    }

    #[test]
    fn thm38_budgeted_fuel_violation_is_reported() {
        let src = "
            int spin(int n) {
                int i; int s;
                s = 0;
                for (i = 0; i < n; i = i + 1) { s = s + i; }
                return s;
            }";
        let (units, tbl) = compile_all(&[src], CompilerOptions::default()).unwrap();
        let lib = ExtLib::demo(tbl.clone());
        let q = c_query(&tbl, &units[0], "spin", vec![Val::Int(100000)]);
        let budget = RunBudget::with_fuel(50);
        let err =
            check_thm38_budgeted(&units[0], &tbl, &lib, &q, &budget).expect_err("fuel too small");
        assert!(matches!(err, SimCheckError::OutOfFuel { .. }), "got {err}");
        assert!(err.step_trace().is_some_and(|t| !t.is_empty()));
    }

    /// Regression: the local value numbering of `CSE` once reused a register
    /// whose value had been overwritten since the equation was recorded
    /// (found by the random Thm 3.8 sweep, seed 2026 round 1).
    #[test]
    fn cse_does_not_reuse_overwritten_holders() {
        let src = "
            extern int inc(int);
            int entry(int p0) {
                int a; int b; int r;
                a = p0 + 1;   // x := p0+1 (recorded)
                a = 7;        // holder overwritten
                b = p0 + 1;   // must NOT become move(a)
                r = inc(b);
                return r + a;
            }";
        let (units, tbl) = compile_all(&[src], CompilerOptions::default()).unwrap();
        let lib = ExtLib::demo(tbl.clone());
        let q = c_query(&tbl, &units[0], "entry", vec![Val::Int(10)]);
        check_thm38(&units[0], &tbl, &lib, &q).expect("Thm 3.8 holds after the CSE fix");
    }
}
