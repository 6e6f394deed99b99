//! End-to-end tests of the `ccomp-o` command-line front end: compile real
//! files from disk, run them, check Thm 3.8 from the shell, and fail with
//! useful diagnostics — the workflow a downstream user actually sees.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output};

fn ccomp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ccomp-o"))
        .args(args)
        .output()
        .expect("spawn ccomp-o")
}

fn write_temp(name: &str, body: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ccomp-o-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(body.as_bytes()).unwrap();
    path
}

const PROG: &str = "
    extern int inc(int);
    int entry(int a, int b) {
        int c; int r;
        c = a * b;
        if (c > 10) { c = c - a; }
        r = inc(c);
        return r;
    }";

#[test]
fn run_executes_and_prints_the_result() {
    let f = write_temp("run.c", PROG);
    let out = ccomp(&["--run", "entry", "3", "5", f.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // 3*5 = 15 > 10, 15-3 = 12, inc(12) = 13.
    assert!(stdout.contains("entry([3, 5]) = 13"), "{stdout}");
}

#[test]
fn check_reports_thm38() {
    let f = write_temp("check.c", PROG);
    let out = ccomp(&["--check", "entry", "2", "3", f.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Thm 3.8 ✓"), "{stdout}");
    assert!(stdout.contains("external boundaries"), "{stdout}");
}

#[test]
fn dump_asm_prints_code() {
    let f = write_temp("dump.c", PROG);
    let out = ccomp(&["--dump-asm", f.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Asm-O"), "{stdout}");
    assert!(stdout.contains("entry"), "{stdout}");
}

#[test]
fn dump_rtl_prints_code() {
    let f = write_temp("dumprtl.c", PROG);
    let out = ccomp(&["--dump-rtl", f.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("RTL"), "{stdout}");
}

#[test]
fn o0_and_default_agree_on_the_answer() {
    let f = write_temp("o0.c", PROG);
    let d = ccomp(&["--run", "entry", "4", "4", f.to_str().unwrap()]);
    let o0 = ccomp(&["-O0", "--run", "entry", "4", "4", f.to_str().unwrap()]);
    assert!(d.status.success() && o0.status.success());
    assert_eq!(
        String::from_utf8_lossy(&d.stdout),
        String::from_utf8_lossy(&o0.stdout)
    );
}

#[test]
fn separate_compilation_links_two_files() {
    let caller = write_temp(
        "caller.c",
        "extern int callee(int);
         int entry(int a) { int r; r = callee(a); return r + 1; }",
    );
    let callee = write_temp("callee.c", "int callee(int x) { return x * 10; }");
    let out = ccomp(&[
        "--run",
        "entry",
        "7",
        caller.to_str().unwrap(),
        callee.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("entry([7]) = 71"), "{stdout}");
}

#[test]
fn two_file_check_verifies_cor39() {
    let caller = write_temp(
        "cor39_caller.c",
        "extern int callee(int);
         int entry(int a) { int r; r = callee(a); return r + 1; }",
    );
    let callee = write_temp("cor39_callee.c", "int callee(int x) { return x * 10; }");
    let out = ccomp(&[
        "--check",
        "entry",
        "5",
        caller.to_str().unwrap(),
        callee.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("entry([5]) = 51"), "{stdout}");
    assert!(stdout.contains("Cor 3.9 ✓"), "{stdout}");
}

#[test]
fn three_file_check_is_rejected() {
    let a = write_temp("three_a.c", "int f1(int x) { return x; }");
    let b = write_temp("three_b.c", "int f2(int x) { return x; }");
    let c = write_temp("three_c.c", "int f3(int x) { return x; }");
    let out = ccomp(&[
        "--check",
        "f1",
        "1",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        c.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("Cor 3.9"));
}

#[test]
fn syntax_error_exits_nonzero_with_message() {
    let f = write_temp("bad.c", "int entry( {");
    let out = ccomp(&["--run", "entry", f.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error"), "{stderr}");
}

#[test]
fn missing_file_exits_nonzero() {
    let out = ccomp(&["/nonexistent/nowhere.c"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn unknown_function_exits_nonzero() {
    let f = write_temp("nofn.c", PROG);
    let out = ccomp(&["--run", "absent", f.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("absent"));
}

#[test]
fn validate_prints_the_clean_line_and_rejects_the_removed_json_flag() {
    let f = write_temp("validate.c", PROG);
    let out = ccomp(&["--validate", f.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert_eq!(stdout, "static validation: clean (1 unit(s))\n");
    let out = ccomp(&["--validate-json", f.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown option `--validate-json`"),
        "{stderr}"
    );
}

#[test]
fn no_arguments_prints_usage() {
    let out = ccomp(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn huge_pointer_offset_goes_wrong_without_panicking() {
    // `p + n` lands 8 bytes below `i64::MAX`, so the load's end overflows.
    let f = write_temp(
        "huge_offset.c",
        "int f(int x) { long a; long *p; long n; long r; a = 1; \
         n = 1152921504606846975L; p = &a; p = p + n; r = *p; return x; }",
    );
    let out = ccomp(&["--run", "f", "1", f.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("stuck"), "{stderr}");
    assert!(stderr.contains("out of bounds"), "{stderr}");
}
