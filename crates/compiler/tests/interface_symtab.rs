//! A unit's interface (`clight::Program::interface`) is all the shared
//! symbol table reads. The compile server links its table from remembered
//! interfaces, so `build_symtab` over interfaces must give the table it
//! gives over the full typed programs — equal `Debug` renderings, hence
//! equal `symtab_fingerprint`s and cache keys — and the same `LinkError`
//! when the link fails.

use std::path::PathBuf;

use clight::{build_symtab, LinkError, Program};
use compcerto_gen::{generate, GenCfg};
use compiler::front_end;
use compiler::serve::symtab_fingerprint;

/// The symbol table over the full programs and over their interfaces, as
/// their `Debug` renderings (`Err` renders the link error).
fn both_tables(units: &[Program]) -> (String, String) {
    let render = |units: &[&Program]| match build_symtab(units) {
        Ok(t) => format!("{t:?}"),
        Err(e) => format!("{e:?}"),
    };
    let full: Vec<&Program> = units.iter().collect();
    let ifaces: Vec<Program> = units.iter().map(Program::interface).collect();
    let iface_refs: Vec<&Program> = ifaces.iter().collect();
    (render(&full), render(&iface_refs))
}

fn typed(sources: &[&str]) -> Vec<Program> {
    sources
        .iter()
        .map(|s| front_end(s).unwrap_or_else(|e| panic!("front end of `{s}`: {e}")))
        .collect()
}

#[test]
fn golden_programs_link_alike_from_interfaces() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let srcs: Vec<String> = ["arith", "branch", "calls", "loop", "memory"]
        .iter()
        .map(|n| std::fs::read_to_string(dir.join(format!("{n}.c"))).expect("golden source"))
        .collect();
    let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    let units = typed(&refs);
    // Each file alone, then all five linked together.
    for u in &units {
        let (full, iface) = both_tables(std::slice::from_ref(u));
        assert_eq!(full, iface);
    }
    let (full, iface) = both_tables(&units);
    assert!(full.starts_with("SymbolTable"), "{full}");
    assert_eq!(full, iface);
    let ifaces: Vec<Program> = units.iter().map(Program::interface).collect();
    let fp = |us: &[Program]| {
        let refs: Vec<&Program> = us.iter().collect();
        symtab_fingerprint(&build_symtab(&refs).expect("golden programs link"))
    };
    assert_eq!(fp(&units), fp(&ifaces));
}

#[test]
fn generated_programs_link_alike_from_interfaces() {
    let cfgs = [
        GenCfg::default(),
        GenCfg {
            units: 4,
            fns_per_unit: 4,
            stmts_per_fn: 12,
            ..GenCfg::default()
        },
    ];
    for cfg in &cfgs {
        for seed in 0..48u64 {
            let srcs = generate(seed, cfg).render();
            let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
            let (full, iface) = both_tables(&typed(&refs));
            assert!(full.starts_with("SymbolTable"), "seed {seed}: {full}");
            assert_eq!(full, iface, "seed {seed}");
        }
    }
}

#[test]
fn link_errors_are_the_same_from_interfaces() {
    let cases: [(&[&str], LinkError); 3] = [
        (
            &["int g = 1;", "int g = 2; int f(void) { return 0; }"],
            LinkError::DuplicateGlobal("g".into()),
        ),
        (
            &["int f(void) { return 1; }", "int f(int x) { return x; }"],
            LinkError::Clash("f".into()),
        ),
        (
            &[
                "int f(int x) { return x; }",
                "extern int f(int, int); int g(void) { int r; r = f(1, 2); return r; }",
            ],
            LinkError::SignatureMismatch("f".into()),
        ),
    ];
    for (sources, want) in cases {
        let units = typed(sources);
        let full: Vec<&Program> = units.iter().collect();
        let ifaces: Vec<Program> = units.iter().map(Program::interface).collect();
        let iface_refs: Vec<&Program> = ifaces.iter().collect();
        assert_eq!(build_symtab(&full), Err(want.clone()), "{sources:?}");
        assert_eq!(build_symtab(&iface_refs), Err(want), "{sources:?}");
    }
}
