//! Interner determinism (DESIGN.md §13): `Sym` assignment is a pure
//! function of program order — the same program must intern to the same
//! dense ids on every build, on every thread, and under any worker-pool
//! width. (The compiler-level counterpart in
//! `compiler/tests/jobs_determinism.rs` pins the same property across
//! `--jobs 1/4/16` compilations.)

use std::thread;

use clight::fast;
use clight::{build_symtab, parse, typecheck, Program};

const SRC: &str = "
    int off(int g) { return g + 3; }
    int mult(int n, int p) { return n * p; }
    extern int helper(int);
    int entry(int a, int b) {
        int r;
        int t;
        r = mult(a, b);
        t = off(a);
        return r + t;
    }";

fn program() -> Program {
    typecheck(&parse(SRC).expect("parses")).expect("typechecks")
}

/// The observable interner state: every function and extern name with its
/// assigned `Sym` index, in program order.
fn sym_assignment(prog: &Program) -> Vec<(String, usize)> {
    let symtab = build_symtab(&[prog]).expect("symtab builds");
    let p = fast::prepare(prog, &symtab);
    prog.functions
        .iter()
        .map(|f| f.name.clone())
        .chain(prog.externs.iter().map(|e| e.name.clone()))
        .map(|name| {
            let sym = p.fn_index.sym(&name).expect("every program name interns");
            (name, sym.index())
        })
        .collect()
}

#[test]
fn sym_ids_are_dense_and_insertion_ordered() {
    let prog = program();
    let got = sym_assignment(&prog);
    // Functions first (in definition order), then externs, densely from 0.
    let want: Vec<(String, usize)> = ["off", "mult", "entry", "helper"]
        .iter()
        .enumerate()
        .map(|(i, n)| ((*n).to_string(), i))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn sym_ids_are_identical_across_repeated_builds() {
    let reference = sym_assignment(&program());
    for _ in 0..4 {
        assert_eq!(sym_assignment(&program()), reference);
    }
}

#[test]
fn sym_ids_are_identical_across_thread_pools() {
    // The interner is thread-local state-free: building the same program
    // concurrently on 1, 4, or 16 workers must yield the same assignment.
    let reference = sym_assignment(&program());
    for workers in [1usize, 4, 16] {
        let handles: Vec<_> = (0..workers)
            .map(|_| thread::spawn(|| sym_assignment(&program())))
            .collect();
        for h in handles {
            let got = h.join().expect("worker completes");
            assert_eq!(got, reference, "assignment diverged at {workers} workers");
        }
    }
}
