#!/bin/sh
# Offline CI: build, test, and lint-gate the workspace.
#
# Everything here runs without network/registry access (no registry
# dependencies; randomness comes from the in-repo SplitMix64). The clippy
# gate enforces the panic-free policy on the library crates hardened in
# DESIGN.md §6 (no unwrap/expect on library code paths) and denies every
# default clippy warning. Linting `compcerto-core`, `mem`, `compiler` and
# `compcerto-validate` transitively covers the `clight`/`rtl`/`backend`/
# `minor`/`compcerto-gen` path dependencies in their build graph.
set -eu

# Every scratch file of this run lives in one private directory, removed on
# exit, so two runs on one host never share a path.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== build (release) =="
cargo build --workspace --release

echo "== format =="
# Every workspace crate is rustfmt-clean (`perfbench/` is a workspace of
# its own and is not formatted here).
cargo fmt --all -- --check

echo "== tests =="
cargo test --workspace -q

echo "== Thm 3.8 stress sweep =="
# The ignored sweep of 64 larger generated programs (about 5 s in release).
# `hcomp_deep_recursion_stress`, the other ignored test of `tests/stress.rs`,
# does not finish and stays out: each call through ⊕ copies the memory twice,
# at a cost that grows with the depth, so the run is quadratic in its 20,000
# levels (its doc comment has the measurements).
cargo test --release --test stress -- --ignored --exact thm38_stress_sweep

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
        --workload oracle-seeds --seed 1 --seconds 1 --trace $trace > "$tmp"/perf_oracle_$trace.txt
done

echo "== benchmark full-size compile pass (both modes) =="
# One pass of `compile-corpus` over all 56 link sets: untraced, it checks
# the `corpus_asm` pin (the self-test above runs a tiny, unpinned corpus);
# traced, it checks each unit's Asm, counters and diagnostics against
# `compile_all_jobs`.
for trace in 0 1; do
    cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload compile-corpus --seed 1 --seconds 1 --trace $trace > "$tmp"/perf_corpus_$trace.txt
done

echo "== benchmark full-size serve passes (both workloads, both modes) =="
# One pass of `serve-rebuild` and of `serve-edit` over all 8 projects:
# untraced, each response's cache tally and every served artifact are
# checked against a cache-free compile of the same project state; traced,
# each recompiled miss must also reproduce the artifact the server sent.
for workload in serve-rebuild serve-edit; do
    for trace in 0 1; do
        cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
            --workload $workload --seed 1 --seconds 1 --trace $trace > "$tmp"/perf_${workload}_$trace.txt
    done
done

echo "== benchmark solver pops and IR sizes (traced passes, pinned) =="
# The two traced passes above print the `solver.*` pops and the `ir.*`
# sizes of one full pass. They are pure functions of the work, and no
# committed baseline covers them on default-option compiles of the compile
# corpus, so all are pinned: a change to the fixpoint engine must leave
# them equal. Allocation emits unreachable RTL nodes into LTL and
# Linearize drops them, so a wrong live set there moves `ir.ltl_nodes`
# while the `corpus_asm` pin holds.
while read -r run key value; do
    grep -qx "$key = $value count (\(lower\|higher\) is better)" "$tmp/perf_${run}_1.txt" ||
        { echo "$run: $key is not $value" >&2; exit 1; }
done <<'PINS'
corpus solver.rtl_iterations 397669
corpus solver.value.iters 278519
corpus solver.needed.iters 96639
corpus solver.validate_iterations 0
corpus ir.rtl_nodes 82016
corpus ir.rtl_opt_nodes 81457
corpus ir.ltl_nodes 97174
corpus ir.linear_instrs 67468
corpus ir.mach_instrs 74774
corpus ir.asm_instrs 83360
corpus ir.vprop_rewrites 8080
corpus ir.ndce_eliminated 15736
corpus ir.diagnostics 0
oracle solver.rtl_iterations 385189
oracle solver.value.iters 144918
oracle solver.needed.iters 70049
oracle solver.validate_iterations 55370
oracle ir.rtl_nodes 52332
oracle ir.rtl_opt_nodes 57591
oracle ir.ltl_nodes 66026
oracle ir.linear_instrs 38274
oracle ir.mach_instrs 44802
oracle ir.asm_instrs 51079
oracle ir.vprop_rewrites 7159
oracle ir.ndce_eliminated 13293
oracle ir.diagnostics 0
PINS

echo "== clippy gate (library paths: unwrap/expect and every default lint) =="
cargo clippy -p compcerto-core -p mem -p rtl -p compiler -p compcerto-validate --lib -- \
    -D clippy::unwrap_used -D clippy::expect_used -D warnings
# Every default lint on every target of every crate: the bins (`ccomp-o`
# and the bench drivers), the tests, the examples and the benches.
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc gate (every doc link resolves) =="
# A broken, ambiguous or private intra-doc link is an error, so the module
# docs cannot drift from the items they name.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== bin unwrap/expect/panic audit (no panicking shortcuts in drivers) =="
# The evaluation/driver bins and the campaign kernel they run on (its code
# before the unit tests) must fail gracefully (exit 1/2 with a message,
# e.g. through `bench::fail`), never unwind. A plain text audit keeps the
# gate independent of clippy's transitive-lint behavior. (`set -e` does not
# apply to a `!`-negated command, hence the explicit exit.)
audit='\.unwrap()\|\.expect(\|panic!('
if grep -n "$audit" crates/bench/src/bin/*.rs crates/compiler/src/bin/*.rs ||
    sed '/^#\[cfg(test)\]/,$d' crates/bench/src/campaign.rs | grep -n "$audit"; then
    echo "panicking shortcut in a driver bin or the campaign kernel" >&2
    exit 1
fi

echo "== resume-path drivers (golden stdout) =="
# These eight programs run the ⊕ x•/pop, ∘, `Closed` and simulation-checker
# resume paths end to end; `fig3_vertical` and `ablation_opts` print the
# checker's step counts over the structured Cminor semantics, RTL and seven
# pass configurations. Each is deterministic and must print its committed
# snapshot byte for byte.
for b in fig5_hcomp_rules fig6_simulation thm38_endtoend cor39_separate fig3_vertical ablation_opts; do
    cargo run -q --release -p bench --bin $b > "$tmp"/golden_$b.txt
    cmp "$tmp"/golden_$b.txt crates/bench/tests/golden/$b.txt
done
for e in nic_driver whole_program; do
    cargo run -q --release --example $e > "$tmp"/golden_$e.txt
    cmp "$tmp"/golden_$e.txt crates/bench/tests/golden/$e.txt
done

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
# The linked program's validated Asm is the same at one worker and at
# sixteen (the CLI compiles on the function-level scheduler's contained
# pool, through `compile_typed_resilient`).
for jobs in 1 16; do
    cargo run -q --release -p compiler --bin ccomp-o -- --validate --dump-asm --jobs $jobs \
        crates/compiler/tests/golden/*.c > "$tmp"/golden_asm_$jobs.txt
done
cmp "$tmp"/golden_asm_1.txt "$tmp"/golden_asm_16.txt
# Served as one batch, the same programs go through the same scheduler
# (one pool for every unit's prefix, every function's back end and every
# function's validation) and the same ladder. The responses (Asm, counters
# and findings) and the counter-only stats must match byte for byte at
# one worker and at sixteen, all five units compiled and answered `ok`
# (none degraded or failed).
units=$(for f in crates/compiler/tests/golden/*.c; do
    printf '{"source":"%s"},' "$(tr '\n\t' '  ' < "$f")"
done)
{
    printf '{"schema":"compcerto-serve/1","op":"compile","id":1,"units":[%s]}\n' "${units%,}"
    printf '%s\n' '{"schema":"compcerto-serve/1","op":"stats","id":2}'
} > "$tmp"/serve_golden.txt
for jobs in 1 16; do
    rm -rf "$tmp"/serve_golden_cache
    cargo run -q --release -p compiler --bin ccomp-o -- serve --jobs $jobs \
        --cache-dir "$tmp"/serve_golden_cache < "$tmp"/serve_golden.txt > "$tmp"/serve_golden_$jobs.txt
done
cmp "$tmp"/serve_golden_1.txt "$tmp"/serve_golden_16.txt
grep -q '"serve.compiled":5,' "$tmp"/serve_golden_1.txt
test "$(head -n 1 "$tmp"/serve_golden_1.txt | grep -o '"status":"ok"' | wc -l)" -eq 5 ||
    { echo "a golden unit was not answered ok" >&2; exit 1; }
# The analysis fact export must be schema-tagged and byte-deterministic.
cargo run -q --release -p compiler --bin ccomp-o -- --analyze-json \
    crates/compiler/tests/golden/*.c > "$tmp"/analyze_1.json
cargo run -q --release -p compiler --bin ccomp-o -- --analyze-json \
    crates/compiler/tests/golden/*.c > "$tmp"/analyze_2.json
cmp "$tmp"/analyze_1.json "$tmp"/analyze_2.json
grep -q '"schema": "compcerto-analysis/1"' "$tmp"/analyze_1.json
grep -q '"needed"' "$tmp"/analyze_1.json

echo "== compile-server gate (cache cold/warm byte-identity) =="
# ISSUE 9 / DESIGN.md §14: the same golden batch is served twice against a
# fresh cache directory by two separate `ccomp-o serve` processes. The
# first run must miss for every unit, the second must hit for every unit
# (the cache is on disk, not in the process), and the compiled artifacts
# must be byte-identical once the cache-status tags — the only intended
# difference — are stripped. The corruption/protocol/identity batteries
# behind this gate run as integration tests under `cargo test` above.
rm -rf "$tmp"/serve_cache
printf '%s\n' \
    '{"schema":"compcerto-serve/1","op":"compile","id":1,"units":[{"source":"int add(int x, int y) { return x + y; }"},{"source":"extern int add(int, int); int twice(int n) { int r; r = add(n, n); return r; }"}]}' \
    '{"schema":"compcerto-serve/1","op":"stats","id":2}' \
    > "$tmp"/serve_batch.txt
cargo run -q --release -p compiler --bin ccomp-o -- serve --cache-dir "$tmp"/serve_cache \
    < "$tmp"/serve_batch.txt > "$tmp"/serve_1.txt
cargo run -q --release -p compiler --bin ccomp-o -- serve --cache-dir "$tmp"/serve_cache \
    < "$tmp"/serve_batch.txt > "$tmp"/serve_2.txt
grep -q '"cache":{"hit":0,"miss":2,"evict":0}' "$tmp"/serve_1.txt
grep -q '"cache":{"hit":2,"miss":0,"evict":0}' "$tmp"/serve_2.txt
sed 's/"cache":"miss",//g; s/"cache":"hit",//g; s/"cache":{[^}]*}//g' "$tmp"/serve_1.txt | head -1 > "$tmp"/serve_1.norm
sed 's/"cache":"miss",//g; s/"cache":"hit",//g; s/"cache":{[^}]*}//g' "$tmp"/serve_2.txt | head -1 > "$tmp"/serve_2.norm
cmp "$tmp"/serve_1.norm "$tmp"/serve_2.norm

# The campaign bins share one kernel (`bench::campaign`): flags, `--check`
# preflight, checkpoints and the 0/1/2 exit contract.
campaign() { b=$1; shift; cargo run -q --release -p bench --bin "$b" -- "$@"; }

echo "== campaign baselines (re-derived at three pool widths) =="
# Every committed campaign report is a pure function of its flags: each is
# re-derived and must match byte for byte under every pool width (no report
# carries a wall-clock or pool-occupancy number; obs prints those).
# difftest (row B8) fails on any finding, stuck state, validator rejection
# or reducer panic; sched (row B14) on any disagreement under any
# interleaving; resilience (row B10) on any injection outside its outcome
# whitelist; obs (row B9) on incomplete grammar coverage, a finding, or
# metrics-on compilation beyond 5% (+ absolute slack) of metrics-off.
for jobs in 1 4 16; do
    campaign difftest_campaign --seeds 500 --jobs $jobs --check DIFFTEST.json
    campaign sched_campaign --jobs $jobs --check SCHED.json
    campaign resilience_campaign --jobs $jobs --check RESIL.json
    campaign obs_campaign --jobs $jobs --check OBS.json --max-overhead 5
done
grep -q '"schema": "compcerto-difftest/1"' DIFFTEST.json
grep -q '"findings": 0,' DIFFTEST.json
grep -q '"obs"' DIFFTEST.json
grep -q '"stage_pairs": "6/6"' DIFFTEST.json
grep -q '"schema": "compcerto-sched/1"' SCHED.json
grep -q '"findings": 0,' SCHED.json
grep -q '"schedules_budget_skipped": 0,' SCHED.json
grep -q '"schema": "compcerto-resil/1"' RESIL.json
grep -q '"aborts": 0,' RESIL.json
grep -q '"schema": "compcerto-obs/1"' OBS.json
grep -q '"complete": true' OBS.json
grep -q '"stage_pairs": "6/6"' OBS.json

echo "== printed campaigns (fault injection, static validation) =="
# faultinj (row B5) exits 1 on any dynamic escape; validate (row B6) on a
# diagnostic over its honest battery or a mutation class the static layer
# misses. Their printed matrices must not depend on the pool width.
for b in faultinj_campaign validate_campaign; do
    for jobs in 1 16; do
        campaign $b --seed 42 --per-class 5 --jobs $jobs > "$tmp"/${b}_$jobs.txt
    done
    cmp "$tmp"/${b}_1.txt "$tmp"/${b}_16.txt
    cat "$tmp"/${b}_1.txt
done

echo "== differential-testing quick profile =="
campaign difftest_campaign --quick --jobs 1 --out "$tmp"/difftest_1.json
campaign difftest_campaign --quick --jobs auto --out "$tmp"/difftest_2.json
cmp "$tmp"/difftest_1.json "$tmp"/difftest_2.json
campaign difftest_campaign --quick --jobs auto --check "$tmp"/difftest_1.json
grep -q '"schema": "compcerto-difftest/1"' "$tmp"/difftest_1.json
grep -q '"findings": 0,' "$tmp"/difftest_1.json

echo "== kill-and-resume (checkpointed campaigns) =="
# Paused after one block and resumed in a fresh process, each resumable
# campaign must land the uninterrupted run's report byte for byte and then
# remove its checkpoint.
for b in difftest_campaign sched_campaign faultinj_campaign; do
    case $b in
        difftest_campaign) set -- --quick --block 5 --out "$tmp"/resume.out; want="$tmp"/difftest_1.json ;;
        sched_campaign) set -- --out "$tmp"/resume.out; want=SCHED.json ;;
        faultinj_campaign) set -- --seed 42 --per-class 5; want="$tmp"/faultinj_campaign_1.txt ;;
    esac
    campaign $b "$@" --ckpt "$tmp"/resume.ckpt --max-blocks 1 > /dev/null
    test -f "$tmp"/resume.ckpt
    campaign $b "$@" --ckpt "$tmp"/resume.ckpt --resume > "$tmp"/resume.txt
    test ! -f "$tmp"/resume.ckpt
    if [ $b = faultinj_campaign ]; then mv "$tmp"/resume.txt "$tmp"/resume.out; fi
    cmp "$want" "$tmp"/resume.out
done

echo "== ci ok =="
