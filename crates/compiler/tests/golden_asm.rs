//! Golden snapshot tests for `ccomp-o --dump-asm` and `--analyze-json`.
//!
//! Five committed workloads under `tests/golden/` are compiled with the
//! default optimization pipeline and their Asm-O dump — rendered *exactly*
//! as the `ccomp-o` binary renders it — is compared byte-for-byte against
//! the committed `.s` snapshot. Any codegen change, however small, shows up
//! as a readable diff here before it reaches the differential oracle. The
//! abstract-interpretation fact dump of the five linked together is pinned
//! the same way in `analysis.json`, so a change to the analyses' state
//! representation that reorders, drops or alters a binding shows up too.
//!
//! To refresh the snapshots after an intentional codegen or analysis change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p compiler --test golden_asm
//! ```
//!
//! then review and commit the updated `.s` / `.json` files.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use compiler::{analysis_json, compile_all, CompilerOptions};

/// The five committed workloads: straight-line arithmetic (constprop/CSE
/// fodder), branching, a counted loop, internal + external calls with a
/// stack-spilled 6-arg callee, and global/pointer memory traffic.
const WORKLOADS: [&str; 5] = ["arith", "branch", "loop", "calls", "memory"];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Render the Asm dump of one compiled file exactly as
/// `ccomp-o --dump-asm FILE` prints it.
fn dump_asm(file: &str, unit: &compiler::CompiledUnit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "; Asm-O for {file}");
    for f in &unit.asm.functions {
        out.push_str(&f.dump());
    }
    out
}

/// Compare `got` byte for byte against the snapshot at `path` — or, under
/// `UPDATE_GOLDEN`, overwrite the snapshot with it. Returns whether the
/// snapshot was refreshed.
fn check_snapshot(path: &Path, got: &str) -> bool {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, got)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        return true;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if got != want {
        // Byte-exact comparison, but report the first differing line so
        // the failure is actionable without a diff tool.
        let mismatch = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map(|i| {
                format!(
                    "first diff at line {}:\n  golden: {}\n  got:    {}",
                    i + 1,
                    want.lines().nth(i).unwrap_or(""),
                    got.lines().nth(i).unwrap_or("")
                )
            })
            .unwrap_or_else(|| {
                format!(
                    "same common prefix, lengths differ (golden {} lines, got {})",
                    want.lines().count(),
                    got.lines().count()
                )
            });
        panic!(
            "snapshot mismatch for {} — {mismatch}\n\
             (intentional change? refresh with \
             UPDATE_GOLDEN=1 cargo test -p compiler --test golden_asm)",
            path.display()
        );
    }
    false
}

#[test]
fn asm_snapshots_are_stable() {
    let dir = golden_dir();
    let mut refreshed = Vec::new();
    for name in WORKLOADS {
        let c_path = dir.join(format!("{name}.c"));
        let src = std::fs::read_to_string(&c_path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", c_path.display()));
        let (units, _symtab) = compile_all(&[&src], CompilerOptions::default())
            .unwrap_or_else(|e| panic!("{name}.c must compile: {e}"));
        let got = dump_asm(&format!("{name}.c"), &units[0]);
        if check_snapshot(&dir.join(format!("{name}.s")), &got) {
            refreshed.push(name);
        }
    }
    if !refreshed.is_empty() {
        // Make `UPDATE_GOLDEN=1` runs loud so a refresh is never silent.
        eprintln!("refreshed {} snapshot(s): {refreshed:?}", refreshed.len());
    }
}

/// The `--analyze-json` report of the five workloads linked as one program
/// (in the file order `ccomp-o --analyze-json tests/golden/*.c` sees them):
/// every per-node value and neededness binding, pinned byte for byte.
#[test]
fn analysis_json_snapshot_is_stable() {
    let dir = golden_dir();
    let mut names = WORKLOADS;
    names.sort_unstable();
    let srcs: Vec<String> = names
        .iter()
        .map(|name| {
            let c_path = dir.join(format!("{name}.c"));
            std::fs::read_to_string(&c_path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", c_path.display()))
        })
        .collect();
    let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    let (units, symtab) = compile_all(&refs, CompilerOptions::default())
        .unwrap_or_else(|e| panic!("the golden workloads must compile and link: {e}"));
    let files: Vec<String> = names.iter().map(|name| format!("{name}.c")).collect();
    let got = analysis_json(&files, &units, &symtab);
    if check_snapshot(&dir.join("analysis.json"), &got) {
        eprintln!("refreshed analysis.json");
    }
}

/// Snapshots are a function of the source alone: recompiling yields the
/// same bytes (guards against nondeterminism sneaking into codegen, which
/// would also break `--jobs` byte-identity).
#[test]
fn asm_dump_is_deterministic() {
    let dir = golden_dir();
    for name in WORKLOADS {
        let src = std::fs::read_to_string(dir.join(format!("{name}.c"))).unwrap();
        let (u1, _) = compile_all(&[&src], CompilerOptions::default()).unwrap();
        let (u2, _) = compile_all(&[&src], CompilerOptions::default()).unwrap();
        assert_eq!(
            dump_asm(name, &u1[0]),
            dump_asm(name, &u2[0]),
            "{name}: asm dump must be deterministic"
        );
    }
}
