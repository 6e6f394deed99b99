//! Contract tests for the campaign kernel's `--check` and checkpoint rules,
//! through the campaign bins: checking against a baseline generated under
//! different flags must be a hard usage error (exit 2), raised before any
//! item runs, that names the command regenerating that baseline — never a
//! silent comparison of incomparable reports — while a matching rerun at
//! any `--jobs` exits 0, a drifted report exits 1 and a missing baseline
//! exits 2. The first five tests predate the kernel and drive
//! `difftest_campaign` alone; the rest run the same contract over every
//! campaign that writes a report, and check that a checkpoint is taken
//! only with `--ckpt` and resumes only the bin and flags that took it.

use std::path::{Path, PathBuf};
use std::process::Output;

fn campaign(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_difftest_campaign"))
        .args(args)
        .output()
        .expect("spawn difftest_campaign")
}

/// Generate a tiny quick-mode baseline under `tag` and return its path.
fn make_baseline(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "difftest-check-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");
    let out = dir.join("base.json");
    let gen = campaign(&[
        "--quick",
        "--seeds",
        "4",
        "--jobs",
        "auto",
        "--out",
        out.to_str().expect("path"),
    ]);
    assert!(
        gen.status.success(),
        "baseline generation failed: {}",
        String::from_utf8_lossy(&gen.stderr)
    );
    out
}

#[test]
fn check_passes_against_a_fresh_baseline() {
    let base = make_baseline("pass");
    // A different --jobs must not matter: the report is jobs-invariant.
    let out = campaign(&["--quick", "--seeds", "4", "--jobs", "1", "--check", base.to_str().expect("path")]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("check: report matches"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let _ = std::fs::remove_dir_all(base.parent().expect("dir"));
}

#[test]
fn seed_count_mismatch_is_a_usage_error_naming_the_regen_command() {
    let base = make_baseline("seeds");
    let out = campaign(&["--quick", "--seeds", "7", "--check", base.to_str().expect("path")]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "a seed-count mismatch must be exit 2, got: {:?}",
        out.status.code()
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("seed count"), "{err}");
    // The message must hand the user the exact regeneration command.
    assert!(
        err.contains("difftest_campaign -- --quick --seeds 4 --jobs auto --out"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(base.parent().expect("dir"));
}

#[test]
fn quick_flag_mismatch_is_a_usage_error() {
    let base = make_baseline("quick");
    // Same seed count, but the baseline was quick and this run is not.
    let out = campaign(&["--seeds", "4", "--check", base.to_str().expect("path")]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("quick") && err.contains("regenerate"), "{err}");
    let _ = std::fs::remove_dir_all(base.parent().expect("dir"));
}

#[test]
fn drifted_baseline_is_a_check_failure_not_a_usage_error() {
    let base = make_baseline("drift");
    let raw = std::fs::read_to_string(&base).expect("read baseline");
    // Tamper with a result member (not the config header): the preflight
    // passes, the byte comparison catches it.
    std::fs::write(&base, raw.replace("\"agree\": 4", "\"agree\": 3")).expect("tamper");
    let out = campaign(&["--quick", "--seeds", "4", "--check", base.to_str().expect("path")]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("differs from baseline"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(base.parent().expect("dir"));
}

#[test]
fn missing_baseline_is_a_usage_error() {
    let out = campaign(&["--quick", "--seeds", "4", "--check", "/nonexistent/base.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot read baseline"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn run(exe: &str, args: &[&str]) -> Output {
    std::process::Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// One campaign's side of the contract, at a small size.
struct Contract {
    exe: &'static str,
    /// The baseline's flags: non-default wherever the bin allows, so the
    /// regeneration command has to name them.
    base: &'static [&'static str],
    /// One change per echoed flag: its new value, or `None` to drop a
    /// switch.
    mismatches: &'static [(&'static str, Option<&'static str>)],
    /// A result member of the baseline and the value a tamper gives it.
    tamper: (&'static str, &'static str),
    /// Compare regenerated reports after `normalize_metrics_json`.
    normalized: bool,
}

const DIFFTEST: Contract = Contract {
    exe: env!("CARGO_BIN_EXE_difftest_campaign"),
    base: &[
        "--quick", "--seeds", "2", "--seed-base", "3", "--fuel", "500000", "--queries", "1",
        "--per-class", "1",
    ],
    mismatches: &[
        ("--seeds", Some("3")),
        ("--seed-base", Some("4")),
        ("--quick", None),
        ("--fuel", Some("400000")),
        ("--queries", Some("2")),
        ("--per-class", Some("2")),
    ],
    tamper: ("\"agree\": 2", "\"agree\": 1"),
    normalized: false,
};

const SCHED: Contract = Contract {
    exe: env!("CARGO_BIN_EXE_sched_campaign"),
    base: &[
        "--quick", "--seeds", "2", "--seed-base", "5", "--fuel", "300000", "--threads", "3",
        "--schedules", "2",
    ],
    mismatches: &[
        ("--seeds", Some("3")),
        ("--seed-base", Some("6")),
        ("--quick", None),
        ("--fuel", Some("200000")),
        ("--threads", Some("2")),
        ("--schedules", Some("3")),
    ],
    tamper: ("\"agree\": 2", "\"agree\": 1"),
    normalized: false,
};

const RESILIENCE: Contract = Contract {
    exe: env!("CARGO_BIN_EXE_resilience_campaign"),
    base: &["--per-class", "2"],
    mismatches: &[("--per-class", Some("3"))],
    tamper: ("\"injections\": 8", "\"injections\": 9"),
    normalized: false,
};

const OBS: Contract = Contract {
    exe: env!("CARGO_BIN_EXE_obs_campaign"),
    base: &["--seeds", "3", "--reps", "1"],
    mismatches: &[("--seeds", Some("4"))],
    tamper: ("\"agree\": 3", "\"agree\": 2"),
    normalized: true,
};

/// Generate `c`'s baseline in a fresh directory; returns the directory
/// and the baseline's path.
fn baseline(c: &Contract, tag: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("campaign-check-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");
    let base = dir.join("base.json").to_string_lossy().into_owned();
    let gen = run(c.exe, &[c.base, &["--jobs", "auto", "--out", &base]].concat());
    assert_eq!(gen.status.code(), Some(0), "{}", text(&gen.stderr));
    (dir, base)
}

/// `--check` under `args`.
fn check(c: &Contract, args: &[&str], base: &str) -> Output {
    run(c.exe, &[args, &["--check", base]].concat())
}

/// `c.base` with `flag` set to `value`, or dropped when `value` is `None`.
fn changed(c: &Contract, (flag, value): (&str, Option<&'static str>)) -> Vec<&'static str> {
    let mut args = c.base.to_vec();
    let at = args.iter().position(|a| *a == flag).expect("flag in base");
    match value {
        Some(v) => args[at + 1] = v,
        None => {
            args.remove(at);
        }
    }
    args
}

/// Every echoed flag's mismatch exits 2 before any item runs (the bins
/// print their banner only once the preflight passed) and names the
/// regeneration command.
fn mismatches_are_usage_errors(c: &Contract, tag: &str) {
    let (dir, base) = baseline(c, tag);
    for &m in c.mismatches {
        let m = changed(c, m);
        let out = check(c, &m, &base);
        let err = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{m:?}: {err}");
        assert!(out.stdout.is_empty(), "{m:?} ran: {}", text(&out.stdout));
        assert!(err.contains("regenerate the baseline with"), "{m:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// The command a mismatch prints, run as printed (its `--out` moved
/// aside), regenerates the baseline byte for byte.
fn regeneration_reproduces_the_baseline(c: &Contract, tag: &str) {
    let (dir, base) = baseline(c, tag);
    let err = text(&check(c, &changed(c, c.mismatches[0]), &base).stderr);
    let cmd = err
        .lines()
        .find_map(|l| l.trim().strip_prefix("cargo run --release -p bench --bin "))
        .unwrap_or_else(|| panic!("no regeneration command in: {err}"));
    let (_, args) = cmd.split_once(" -- ").expect("bin arguments");
    let regen = dir.join("regen.json").to_string_lossy().into_owned();
    let args: Vec<&str> = args
        .split_whitespace()
        .map(|a| if a == base { regen.as_str() } else { a })
        .collect();
    let out = run(c.exe, &args);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {}", text(&out.stderr));
    let read = |p: &str| std::fs::read_to_string(p).expect("read report");
    let (want, got) = (read(&base), read(&regen));
    if c.normalized {
        let norm = |s: &str| compiler::normalize_metrics_json(s).expect("normalizes");
        assert_eq!(norm(&want), norm(&got), "{args:?}");
    } else {
        assert!(want == got, "{args:?} regenerated a different report");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A match at another pool width exits 0, a tampered baseline exits 1 and
/// a missing one exits 2.
fn drift_and_missing_baselines(c: &Contract, tag: &str) {
    let (dir, base) = baseline(c, tag);
    let out = check(c, &[c.base, &["--jobs", "1"]].concat(), &base);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(text(&out.stdout).contains("check: report matches"));

    let raw = std::fs::read_to_string(&base).expect("read baseline");
    assert!(raw.contains(c.tamper.0), "{raw}");
    std::fs::write(&base, raw.replacen(c.tamper.0, c.tamper.1, 1)).expect("tamper");
    let out = check(c, c.base, &base);
    assert_eq!(out.status.code(), Some(1), "{}", text(&out.stderr));
    assert!(text(&out.stderr).contains("differs from baseline"));

    let missing = Path::new(&dir).join("missing.json").to_string_lossy().into_owned();
    let out = check(c, c.base, &missing);
    assert_eq!(out.status.code(), Some(2));
    assert!(text(&out.stderr).contains("cannot read baseline"));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn difftest_mismatch_of_every_echoed_flag_is_a_usage_error() {
    mismatches_are_usage_errors(&DIFFTEST, "dt-mismatch");
}

#[test]
fn difftest_regeneration_command_reproduces_the_baseline() {
    regeneration_reproduces_the_baseline(&DIFFTEST, "dt-regen");
}

#[test]
fn difftest_drift_exits_1_and_a_missing_baseline_exits_2() {
    drift_and_missing_baselines(&DIFFTEST, "dt-drift");
}

#[test]
fn sched_mismatch_of_every_echoed_flag_is_a_usage_error() {
    mismatches_are_usage_errors(&SCHED, "sched-mismatch");
}

#[test]
fn sched_regeneration_command_reproduces_the_baseline() {
    regeneration_reproduces_the_baseline(&SCHED, "sched-regen");
}

#[test]
fn sched_drift_exits_1_and_a_missing_baseline_exits_2() {
    drift_and_missing_baselines(&SCHED, "sched-drift");
}

#[test]
fn resilience_mismatch_of_every_echoed_flag_is_a_usage_error() {
    mismatches_are_usage_errors(&RESILIENCE, "resil-mismatch");
}

#[test]
fn resilience_regeneration_command_reproduces_the_baseline() {
    regeneration_reproduces_the_baseline(&RESILIENCE, "resil-regen");
}

#[test]
fn resilience_drift_exits_1_and_a_missing_baseline_exits_2() {
    drift_and_missing_baselines(&RESILIENCE, "resil-drift");
}

#[test]
fn obs_mismatch_of_every_echoed_flag_is_a_usage_error() {
    mismatches_are_usage_errors(&OBS, "obs-mismatch");
}

#[test]
fn obs_regeneration_command_reproduces_the_baseline() {
    regeneration_reproduces_the_baseline(&OBS, "obs-regen");
}

#[test]
fn obs_drift_exits_1_and_a_missing_baseline_exits_2() {
    drift_and_missing_baselines(&OBS, "obs-drift");
}

#[test]
fn max_blocks_without_a_checkpoint_path_is_a_usage_error() {
    let out = std::env::temp_dir()
        .join(format!("campaign-check-nockpt-{}.json", std::process::id()))
        .to_string_lossy()
        .into_owned();
    for (exe, args) in [
        (DIFFTEST.exe, vec!["--quick", "--max-blocks", "1", "--out", out.as_str()]),
        (SCHED.exe, vec!["--quick", "--max-blocks", "1", "--out", out.as_str()]),
        (env!("CARGO_BIN_EXE_faultinj_campaign"), vec!["--per-class", "1", "--max-blocks", "1"]),
    ] {
        let run = run(exe, &args);
        assert_eq!(run.status.code(), Some(2), "{exe}: {}", text(&run.stderr));
        assert!(text(&run.stderr).contains("need --ckpt"), "{exe}: {}", text(&run.stderr));
        assert!(run.stdout.is_empty(), "{exe} ran: {}", text(&run.stdout));
    }
    let _ = std::fs::remove_file(&out);
}

/// A checkpoint resumes only the bin and the flags that took it. A paused
/// difftest run's checkpoint is refused (exit 2) under another `--seeds`,
/// by sched, and once it is gone; resumed as taken, the run lands the
/// uninterrupted report and removes the checkpoint.
#[test]
fn a_checkpoint_resumes_only_its_own_bin_and_flags() {
    let dir = std::env::temp_dir().join(format!("campaign-check-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (ckpt, whole, resumed) = (path("c.ckpt"), path("whole.json"), path("resumed.json"));
    let flags = |seeds, out| {
        vec!["--quick", "--seeds", seeds, "--block", "1", "--ckpt", ckpt.as_str(), "--out", out]
    };

    let paused = run(DIFFTEST.exe, &[flags("2", &resumed), vec!["--max-blocks", "1"]].concat());
    assert_eq!(paused.status.code(), Some(0), "{}", text(&paused.stderr));
    assert!(text(&paused.stderr).contains("pausing after 1 blocks"));
    assert!(Path::new(&ckpt).exists() && !Path::new(&resumed).exists());

    for (exe, seeds, refusal) in [
        (DIFFTEST.exe, "3", "different configuration"),
        (SCHED.exe, "2", "belongs to `difftest_campaign`"),
    ] {
        let out = run(exe, &[flags(seeds, &resumed), vec!["--resume"]].concat());
        assert_eq!(out.status.code(), Some(2), "{exe}: {}", text(&out.stderr));
        assert!(text(&out.stderr).contains(refusal), "{exe}: {}", text(&out.stderr));
        assert!(!Path::new(&resumed).exists());
    }

    let out = run(DIFFTEST.exe, &[flags("2", &resumed), vec!["--resume"]].concat());
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    assert!(text(&out.stderr).contains("1 of 2 items already folded"));
    assert!(!Path::new(&ckpt).exists(), "the landed report removes the checkpoint");
    let out = run(DIFFTEST.exe, &["--quick", "--seeds", "2", "--out", whole.as_str()]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let read = |p: &str| std::fs::read(p).expect("read report");
    assert!(read(&whole) == read(&resumed), "the resumed report differs");

    let out = run(DIFFTEST.exe, &[flags("2", &resumed), vec!["--resume"]].concat());
    assert_eq!(out.status.code(), Some(2));
    assert!(text(&out.stderr).contains("cannot read checkpoint"));
    let _ = std::fs::remove_dir_all(dir);
}
