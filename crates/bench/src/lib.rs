//! Shared fixtures for the evaluation binaries.
//!
//! Every table and figure of the paper's evaluation has a regenerating
//! binary in `src/bin/` (see DESIGN.md §4 for the index); the campaign
//! binaries among them run on the [`campaign`] kernel.

pub mod campaign;

use compcerto_core::symtab::SymbolTable;
use compiler::{compile_all, CompiledUnit, CompilerOptions};

/// The paper's Fig. 1 translation units.
pub const FIG1_B: &str =
    "extern int mult(int, int); int sqr(int n) { int r; r = mult(n, n); return r; }";
/// See [`FIG1_B`].
pub const FIG1_A: &str = "int mult(int n, int p) { return n * p; }";

/// A mid-sized fixture exercising loops, memory and calls.
pub const FIXTURE: &str = "
    const int modulus = 9973;
    long table[8];

    int step(int x) { return (x * 31 + 17) % 9973; }

    int churn(int seed, int rounds) {
        int i; int x; int r;
        x = seed;
        for (i = 0; i < rounds; i = i + 1) {
            r = step(x);
            x = r;
            table[i % 8] = (long) x;
        }
        return x;
    }
";

/// Compile [`FIXTURE`], returning the unit and the shared symbol table.
///
/// # Panics
/// Panics when compilation fails (fixture bug).
pub fn fixture() -> (CompiledUnit, SymbolTable) {
    let (mut units, tbl) =
        compile_all(&[FIXTURE], CompilerOptions::default()).expect("fixture compiles");
    (units.remove(0), tbl)
}

/// Report `msg` as `<program>: <msg>` on stderr and exit 1 — a finding under
/// the exit contract. For the evaluation binaries that take no arguments:
/// a fixture that fails to compile or a simulation check that fails is a
/// finding, never a usage error, and the binaries never unwind.
pub fn fail(msg: impl std::fmt::Display) -> ! {
    let argv0 = std::env::args_os().next().unwrap_or_default();
    let program = std::path::Path::new(&argv0).file_stem().unwrap_or_default();
    eprintln!("{}: {msg}", program.to_string_lossy());
    std::process::exit(1)
}

/// Render a two-column table row.
pub fn row(label: &str, value: impl std::fmt::Display) -> String {
    format!("  {label:<28} {value}\n")
}
