#!/bin/sh
# Offline CI: build, test, and lint-gate the workspace.
#
# Everything here runs without network/registry access (no registry
# dependencies; randomness comes from the in-repo SplitMix64). The clippy
# gate enforces the panic-free policy on the library crates hardened in
# DESIGN.md §6: no unwrap/expect on library code paths. Linting
# `compcerto-core`, `mem`, `compiler` and `compcerto-validate` transitively
# covers the `clight`/`rtl`/`backend` path dependencies in their build
# graph.
set -eu

echo "== build (release) =="
cargo build --workspace --release

echo "== tests =="
cargo test --workspace -q

echo "== benchmark self-test =="
# `perfbench/` is a package of its own (outside the workspace): its tiny-size
# self-test runs every workload once, checks each prints every BENCHMARK.json
# metric, and that a wrong pin or bad arguments fail.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== benchmark full-size oracle pass (both modes) =="
# One pass of `oracle-seeds` over all 64 seeds: untraced, it checks the
# `difftest_verdicts` pin and the SCHED.json verdict checksum through the
# library's pooled oracle; traced, it checks every library verdict against
# perfbench's per-call replay of `run_stage`/`check_query_sched`.
for trace in 0 1; do
    cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload oracle-seeds --seed 1 --seconds 1 --trace $trace > /tmp/ci_perf_oracle_$trace.txt
done

echo "== clippy unwrap/expect gate (library paths) =="
cargo clippy -p compcerto-core -p mem -p rtl -p compiler -p compcerto-validate --lib -- \
    -D clippy::unwrap_used -D clippy::expect_used

echo "== bin unwrap/expect audit (ISSUE 6: no panicking shortcuts in drivers) =="
# The evaluation/driver bins must fail gracefully (exit 1/2 with a
# message), never unwind. A plain text audit keeps the gate independent of
# clippy's transitive-lint behavior.
! grep -n '\.unwrap()\|\.expect(' crates/bench/src/bin/*.rs crates/compiler/src/bin/*.rs

echo "== resume-path drivers (golden stdout) =="
# These six drivers run the ⊕ x•/pop, ∘, `Closed` and simulation-checker
# resume paths end to end. Each is deterministic and must print its
# committed snapshot byte for byte.
for b in fig5_hcomp_rules fig6_simulation thm38_endtoend cor39_separate; do
    cargo run -q --release -p bench --bin $b > /tmp/ci_golden_$b.txt
    cmp /tmp/ci_golden_$b.txt crates/bench/tests/golden/$b.txt
done
for e in nic_driver whole_program; do
    cargo run -q --release --example $e > /tmp/ci_golden_$e.txt
    cmp /tmp/ci_golden_$e.txt crates/bench/tests/golden/$e.txt
done

echo "== fault-injection campaign (determinism smoke) =="
cargo run -q -p bench --bin faultinj_campaign -- --seed 42 --per-class 5 > /tmp/ci_camp_1.txt
cargo run -q -p bench --bin faultinj_campaign -- --seed 42 --per-class 5 > /tmp/ci_camp_2.txt
cmp /tmp/ci_camp_1.txt /tmp/ci_camp_2.txt
cat /tmp/ci_camp_1.txt

echo "== static validation gate (honest battery clean, matrix deterministic) =="
# Phase 1 compiles the example/workload battery with the validation layer
# on and fails on any diagnostic; phase 2 requires ALL 10 mutation classes
# to be caught statically (the abstract-interpretation validators closed
# the rtl-constant-drift gap — DESIGN.md §12). Two runs must be
# byte-identical.
cargo run -q -p bench --bin validate_campaign -- --seed 42 --per-class 5 > /tmp/ci_val_1.txt
cargo run -q -p bench --bin validate_campaign -- --seed 42 --per-class 5 > /tmp/ci_val_2.txt
cmp /tmp/ci_val_1.txt /tmp/ci_val_2.txt
cat /tmp/ci_val_1.txt

echo "== abstract-interpretation gate (validated opt passes + fact export) =="
# DESIGN.md §12 / EXPERIMENTS.md row B11: the golden corpus must compile
# cleanly with the full default pipeline (vprop/ndce on) under the static
# validators — ccomp-o exits nonzero on any diagnostic or degradation, so
# `set -e` is the gate, per file and linked as one program.
for f in crates/compiler/tests/golden/*.c; do
    cargo run -q --release -p compiler --bin ccomp-o -- --validate "$f" > /dev/null
done
cargo run -q --release -p compiler --bin ccomp-o -- --validate \
    crates/compiler/tests/golden/*.c > /dev/null
# The analysis fact export must be schema-tagged and byte-deterministic.
cargo run -q --release -p compiler --bin ccomp-o -- --analyze-json \
    crates/compiler/tests/golden/*.c > /tmp/ci_analyze_1.json
cargo run -q --release -p compiler --bin ccomp-o -- --analyze-json \
    crates/compiler/tests/golden/*.c > /tmp/ci_analyze_2.json
cmp /tmp/ci_analyze_1.json /tmp/ci_analyze_2.json
grep -q '"schema": "compcerto-analysis/1"' /tmp/ci_analyze_1.json
grep -q '"needed"' /tmp/ci_analyze_1.json

echo "== interp-throughput smoke (arena/fused dispatch) =="
# DESIGN.md §13 / EXPERIMENTS.md row B12: re-measure the fixed 64-seed
# interpretation sweep and gate against the committed BENCH_PR8.json. The
# verdict checksum must match exactly: each stage has one interpreter path,
# and the checksum pins the verdicts recorded while the legacy single-step
# relations, since removed, still ran beside it. The throughput floor (default
# 4x vs the committed pre-change measurement) is enforced only on boxes
# with >= 4 cores; below that the bin reports the ratio as advisory.
cargo run -q --release -p bench --bin interp_campaign -- --check BENCH_PR8.json
grep -q '"schema": "compcerto-interp/1"' BENCH_PR8.json

echo "== compile-server gate (cache cold/warm byte-identity) =="
# ISSUE 9 / DESIGN.md §14: the same golden batch is served twice against a
# fresh cache directory by two separate `ccomp-o serve` processes. The
# first run must miss for every unit, the second must hit for every unit
# (the cache is on disk, not in the process), and the compiled artifacts
# must be byte-identical once the cache-status tags — the only intended
# difference — are stripped. The corruption/protocol/identity batteries
# behind this gate run as integration tests under `cargo test` above.
rm -rf /tmp/ci_serve_cache
printf '%s\n' \
    '{"schema":"compcerto-serve/1","op":"compile","id":1,"units":[{"source":"int add(int x, int y) { return x + y; }"},{"source":"extern int add(int, int); int twice(int n) { int r; r = add(n, n); return r; }"}]}' \
    '{"schema":"compcerto-serve/1","op":"stats","id":2}' \
    > /tmp/ci_serve_batch.txt
cargo run -q --release -p compiler --bin ccomp-o -- serve --cache-dir /tmp/ci_serve_cache \
    < /tmp/ci_serve_batch.txt > /tmp/ci_serve_1.txt
cargo run -q --release -p compiler --bin ccomp-o -- serve --cache-dir /tmp/ci_serve_cache \
    < /tmp/ci_serve_batch.txt > /tmp/ci_serve_2.txt
grep -q '"cache":{"hit":0,"miss":2,"evict":0}' /tmp/ci_serve_1.txt
grep -q '"cache":{"hit":2,"miss":0,"evict":0}' /tmp/ci_serve_2.txt
sed 's/"cache":"miss",//g; s/"cache":"hit",//g; s/"cache":{[^}]*}//g' /tmp/ci_serve_1.txt | head -1 > /tmp/ci_serve_1.norm
sed 's/"cache":"miss",//g; s/"cache":"hit",//g; s/"cache":{[^}]*}//g' /tmp/ci_serve_2.txt | head -1 > /tmp/ci_serve_2.norm
cmp /tmp/ci_serve_1.norm /tmp/ci_serve_2.norm

echo "== serve-cache bench gate (warm speedup baseline) =="
# EXPERIMENTS.md row B13: re-run the 24-batch cold/warm campaign with its
# in-process identity assertions (jobs matrix, restart, partial hit) and
# gate the artifact checksum against the committed BENCH_PR9.json. The
# warm-speedup floor (5x) is enforced only on boxes with >= 4 cores;
# below that the ratio is reported as advisory.
cargo run -q --release -p bench --bin serve_campaign -- --check BENCH_PR9.json
grep -q '"schema": "compcerto-serve-bench/1"' BENCH_PR9.json

echo "== differential-testing campaign (quick oracle sweep) =="
# EXPERIMENTS.md row B8: the seeded generator → cross-stage oracle over a
# fixed seed block. The bin exits nonzero on any finding (disagreement,
# stuck state, validator rejection, link mismatch) and on any reducer
# panic, so `set -e` is the gate. The report is required to be
# byte-identical across --jobs settings, and its JSON summary is checked
# for schema and a clean finding count.
cargo run -q --release -p bench --bin difftest_campaign -- --quick --jobs 1 --out /tmp/ci_difftest_1.json
cargo run -q --release -p bench --bin difftest_campaign -- --quick --jobs auto --out /tmp/ci_difftest_2.json
cmp /tmp/ci_difftest_1.json /tmp/ci_difftest_2.json
# ISSUE 9: `--check` against a matching baseline must exit 0; the
# flag-mismatch exit-2 contract is covered by bench/tests/difftest_check.
cargo run -q --release -p bench --bin difftest_campaign -- --quick --jobs auto --check /tmp/ci_difftest_1.json
grep -q '"schema": "compcerto-difftest/1"' /tmp/ci_difftest_1.json
grep -q '"findings": 0,' /tmp/ci_difftest_1.json
# The committed 500-seed baseline is re-derived, not just grepped: every
# verdict, the stage pairs, the escape matrix and the counter section must
# match it byte for byte. (`--ckpt` keeps its block checkpoint out of the
# repository root.)
cargo run -q --release -p bench --bin difftest_campaign -- --seeds 500 --jobs auto \
    --check DIFFTEST.json --ckpt /tmp/ci_difftest_full.ckpt
# It must also be well-formed and clean.
grep -q '"schema": "compcerto-difftest/1"' DIFFTEST.json
grep -q '"findings": 0,' DIFFTEST.json
# PR 6: the report now carries a deterministic observability section.
grep -q '"obs"' DIFFTEST.json
grep -q '"stage_pairs": "6/6"' DIFFTEST.json

echo "== observability gate (counter baseline + overhead) =="
# EXPERIMENTS.md row B9 / DESIGN.md §10: recompute the deterministic
# counter baseline and compare against the committed OBS.json *after*
# normalization (the schema-aware normalizer strips the volatile
# pool/timings sections — wall-clock is reported, never gated). The same
# invocation asserts grammar coverage is complete, the difftest sweep is
# finding-free, and metrics-on compilation stays within 5% (+ absolute
# slack) of metrics-off.
cargo run -q --release -p bench --bin obs_campaign -- --check OBS.json --max-overhead 5
# The committed baseline itself must be schema-valid and fully covered.
grep -q '"schema": "compcerto-obs/1"' OBS.json
grep -q '"complete": true' OBS.json
grep -q '"stage_pairs": "6/6"' OBS.json

echo "== resilience gate (fault sweep deterministic, no aborts) =="
# ISSUE 6 / DESIGN.md §11: 240 injections across the four environment-fault
# classes must produce the committed outcome table byte-for-byte under both
# a serial and a parallel pool (thread-local arming makes the sweep
# jobs-invariant), and the process must never abort (`aborts` is emitted
# only when every injection returned).
cargo run -q --release -p bench --bin resilience_campaign -- --jobs 1 --out /tmp/ci_resil_1.json
cargo run -q --release -p bench --bin resilience_campaign -- --jobs 4 --out /tmp/ci_resil_2.json
cmp /tmp/ci_resil_1.json /tmp/ci_resil_2.json
cargo run -q --release -p bench --bin resilience_campaign -- --jobs 4 --check RESIL.json
grep -q '"schema": "compcerto-resil/1"' RESIL.json
grep -q '"aborts": 0,' RESIL.json

echo "== schedule-exploration gate (threaded N x M oracle) =="
# ISSUE 10 / EXPERIMENTS.md row B14: the thread-aware open semantics.
# Re-run the committed 64-seed x 8-schedule campaign and gate against
# SCHED.json — any cross-stage disagreement under any interleaving, or any
# drift in the per-schedule verdict checksums, fails the build. The report
# must be byte-identical across worker-pool widths (per-seed verdicts are
# pure; the FNV chains fold in seed order).
cargo run -q --release -p bench --bin sched_campaign -- --seeds 64 --jobs 1 --check SCHED.json
cargo run -q --release -p bench --bin sched_campaign -- --seeds 64 --jobs 4 --check SCHED.json
cargo run -q --release -p bench --bin sched_campaign -- --seeds 64 --jobs 16 --check SCHED.json
grep -q '"schema": "compcerto-sched/1"' SCHED.json
grep -q '"findings": 0,' SCHED.json
grep -q '"schedules_budget_skipped": 0,' SCHED.json

echo "== kill-and-resume smoke (checkpointed campaigns) =="
# A campaign stopped at a block boundary and resumed in a fresh process
# must produce a final report byte-identical to the uninterrupted run, and
# must clean up its checkpoint afterwards.
cargo run -q --release -p bench --bin difftest_campaign -- --quick --jobs auto --block 5 --max-blocks 1 \
    --out /tmp/ci_resume.json --ckpt /tmp/ci_resume.ckpt
test -f /tmp/ci_resume.ckpt
cargo run -q --release -p bench --bin difftest_campaign -- --quick --jobs auto --block 5 --resume \
    --out /tmp/ci_resume.json --ckpt /tmp/ci_resume.ckpt
cmp /tmp/ci_difftest_1.json /tmp/ci_resume.json
test ! -f /tmp/ci_resume.ckpt
# Same for the fault-injection campaign (per-class checkpoints).
cargo run -q -p bench --bin faultinj_campaign -- --seed 42 --per-class 5 \
    --ckpt /tmp/ci_fi.ckpt --max-classes 4 > /tmp/ci_fi_paused.txt
test -f /tmp/ci_fi.ckpt
cargo run -q -p bench --bin faultinj_campaign -- --seed 42 --per-class 5 \
    --ckpt /tmp/ci_fi.ckpt --resume > /tmp/ci_fi_resumed.txt 2>/dev/null
cmp /tmp/ci_camp_1.txt /tmp/ci_fi_resumed.txt
test ! -f /tmp/ci_fi.ckpt
# Same for the schedule campaign: pause after one block, resume, and the
# final report must still byte-match the committed baseline.
cargo run -q --release -p bench --bin sched_campaign -- --seeds 64 --jobs auto --block 16 --max-blocks 1 \
    --out /tmp/ci_sched_resume.json --ckpt /tmp/ci_sched.ckpt
test -f /tmp/ci_sched.ckpt
cargo run -q --release -p bench --bin sched_campaign -- --seeds 64 --jobs auto --block 16 --resume \
    --out /tmp/ci_sched_resume.json --ckpt /tmp/ci_sched.ckpt
cmp SCHED.json /tmp/ci_sched_resume.json
test ! -f /tmp/ci_sched.ckpt

echo "== ci ok =="
