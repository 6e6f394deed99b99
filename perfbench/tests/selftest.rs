//! Self-test of the benchmark at tiny input sizes: every workload prints
//! every metric `BENCHMARK.json` names, with its unit, in both modes; the
//! traced counters repeat exactly; and a wrong pinned checksum fails the
//! run.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeMap;
use std::process::Command;

use compiler::json::{self, Json};

const WORKLOADS: [&str; 4] = [
    "compile-corpus",
    "oracle-seeds",
    "serve-edit",
    "serve-rebuild",
];

/// Run the benchmark; returns the exit code and the parsed last line.
fn run(args: &[&str]) -> (i32, Option<Json>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().and_then(|l| json::parse(l).ok());
    (out.status.code().unwrap_or(-1), last)
}

fn tiny(workload: &str, trace: &str, extra: &[&str]) -> (i32, Option<Json>) {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--tiny",
    ];
    args.extend_from_slice(extra);
    run(&args)
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// `name -> (value, unit)` of a result line.
fn metrics(result: &Json) -> BTreeMap<String, (f64, String)> {
    let Some(Json::Obj(members)) = result.get("metrics") else {
        panic!("result has no metrics object");
    };
    members
        .iter()
        .map(|(k, v)| {
            let Some(Json::Num(raw)) = v.get("value") else {
                panic!("{k}: no numeric value");
            };
            let value: f64 = raw.parse().expect("a number");
            let unit = v
                .get("unit")
                .and_then(Json::as_str)
                .expect("unit")
                .to_string();
            (k.clone(), (value, unit))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_named_metric() {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = declared(list);
        for w in WORKLOADS {
            let (code, result) = tiny(w, trace, &[]);
            assert_eq!(code, 0, "{w} trace {trace} failed");
            let result = result.expect("a result line");
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{w} trace {trace}"
            );
            let got: BTreeMap<String, String> = metrics(&result)
                .into_iter()
                .map(|(k, (_, u))| (k, u))
                .collect();
            assert_eq!(got, want, "{w} trace {trace}: metric names or units differ");
        }
    }
}

#[test]
fn traced_counters_repeat_exactly() {
    for w in WORKLOADS {
        let counts = || {
            let (code, result) = tiny(w, "1", &[]);
            assert_eq!(code, 0, "{w}");
            metrics(&result.expect("a result line"))
                .into_iter()
                // Which worker takes which item is scheduling, not work.
                .filter(|(k, (_, u))| u == "count" && k != "par.busiest_worker_items")
                .map(|(k, (v, _))| (k, v))
                .collect::<BTreeMap<_, _>>()
        };
        assert_eq!(
            counts(),
            counts(),
            "{w}: a per-layer counter changed between two runs"
        );
    }
}

#[test]
fn a_wrong_pinned_checksum_fails_the_run() {
    for (w, pin) in [
        ("compile-corpus", "corpus_asm"),
        ("oracle-seeds", "difftest_verdicts"),
    ] {
        let (code, result) = tiny(w, "0", &["--pin", &format!("{pin}=0123456789abcdef")]);
        assert_eq!(code, 1, "{w}: a wrong {pin} pin must fail the run");
        let result = result.expect("a result line");
        assert_eq!(
            result.get("correct").and_then(Json::as_bool),
            Some(false),
            "{w}"
        );
    }
}

#[test]
fn bad_arguments_exit_2() {
    assert_eq!(run(&[]).0, 2);
    assert_eq!(
        run(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .0,
        2
    );
}
