//! Byte-identity battery for the serve cache: a cached artifact must be
//! indistinguishable from a freshly compiled one. Cold, warm and
//! partial-hit responses are compared byte-for-byte (modulo the cache
//! tags, which are the thing under test), and the hit/miss counters must
//! be invariant to `--jobs`. One test pins the cold bytes of 24 generated
//! batches (EXPERIMENTS row B13). The last four check that the server's
//! front-end memo never changes an answer: each response equals a fresh
//! server's, and `serve.front.reused` counts only the units whose front
//! end was skipped.

mod serve_util;

use compcerto_gen::{generate, GenCfg};
use compiler::serve::{fnv1a, FNV_OFFSET, FRONT_MEMO_UNITS};
use compiler::{CompilerOptions, Jobs, ServeConfig, Server};
use serve_util::{artifacts_only, compile_req, fresh_dir, request_stats, Serve};

/// Three units sharing a symbol table: `B` calls into `A`, `C` is
/// independent. Function bodies are free to change without touching the
/// table (names + signatures only), which is what makes partial hits
/// possible.
const UNIT_A: &str = "int add(int x, int y) { return x + y; }";
const UNIT_B: &str =
    "extern int add(int, int); int twice(int n) { int r; r = add(n, n); return r; }";
const UNIT_C: &str = "int scale(int x) { return x * 3 + 7; }";
/// `UNIT_C` with its body edited — same name, same signature, new code.
const UNIT_C2: &str = "int scale(int x) { return x * 4 + 7; }";

#[test]
fn cold_warm_and_partial_hits_are_byte_identical() {
    let dir = fresh_dir("identity");
    let mut s = Serve::spawn(&dir, &[]);

    let cold = s.req(&compile_req(1, &[UNIT_A, UNIT_B, UNIT_C]));
    assert_eq!(
        request_stats(&cold),
        "\"cache\":{\"hit\":0,\"miss\":3,\"evict\":0}",
        "{cold}"
    );

    let warm = s.req(&compile_req(1, &[UNIT_A, UNIT_B, UNIT_C]));
    assert_eq!(
        request_stats(&warm),
        "\"cache\":{\"hit\":3,\"miss\":0,\"evict\":0}",
        "{warm}"
    );
    assert_eq!(
        artifacts_only(&cold),
        artifacts_only(&warm),
        "a cache hit must reproduce the compiled artifact byte-for-byte"
    );

    // Partial hit: edit one unit's body. Its siblings still hit — the
    // cache key sees names and signatures, not bodies.
    let partial = s.req(&compile_req(1, &[UNIT_A, UNIT_B, UNIT_C2]));
    assert_eq!(
        request_stats(&partial),
        "\"cache\":{\"hit\":2,\"miss\":1,\"evict\":0}",
        "{partial}"
    );
    // The two unchanged units' artifacts are bytes from the cold run.
    let tagless = |s: &str| {
        s.replace("\"cache\":\"miss\",", "")
            .replace("\"cache\":\"hit\",", "")
    };
    let cold_units: Vec<&str> = cold.split("{\"unit\":").collect();
    let partial_units: Vec<&str> = partial.split("{\"unit\":").collect();
    assert_eq!(cold_units.len(), 4);
    for i in [1, 2] {
        assert_eq!(
            tagless(cold_units[i]),
            tagless(partial_units[i]),
            "unchanged unit {i} must serve the cold artifact"
        );
    }
    // The edited unit really was recompiled (different asm).
    assert_ne!(cold_units[3], partial_units[3]);

    assert_eq!(s.eof_wait().code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch whose middle units each fail differently, between two clean
/// units: a parse error, a type error and a `file` entry that does not
/// exist. Each failure must stay on its own unit index.
fn failing_batch(id: u64) -> String {
    format!(
        "{{\"schema\":\"compcerto-serve/1\",\"op\":\"compile\",\"id\":{id},\"units\":[\
         {{\"source\":\"{UNIT_A}\"}},\
         {{\"source\":\"int h(int x) {{ return x +; }}\"}},\
         {{\"source\":\"int g(int x) {{ return y; }}\"}},\
         {{\"file\":\"no-such-dir/unit.c\"}},\
         {{\"source\":\"{UNIT_C}\"}}]}}"
    )
}

#[test]
fn responses_and_counters_are_jobs_invariant() {
    let batch = compile_req(1, &[UNIT_A, UNIT_B, UNIT_C]);
    let failing = failing_batch(3);
    let stats_req = "{\"schema\":\"compcerto-serve/1\",\"op\":\"stats\",\"id\":2}";
    let mut runs = Vec::new();
    for jobs in ["1", "4", "16"] {
        let dir = fresh_dir(&format!("jobs{jobs}"));
        let mut s = Serve::spawn(&dir, &["--jobs", jobs]);
        let cold = s.req(&batch);
        let warm = s.req(&batch);
        let failing_cold = s.req(&failing);
        let failing_warm = s.req(&failing);
        let stats = s.req(stats_req);
        assert_eq!(s.eof_wait().code(), Some(0));
        let _ = std::fs::remove_dir_all(&dir);
        runs.push([cold, warm, failing_cold, failing_warm, stats]);
    }
    let what = [
        "cold",
        "warm",
        "failing-batch cold",
        "failing-batch warm",
        "stats",
    ];
    for run in &runs[1..] {
        for (k, resp) in run.iter().enumerate() {
            assert_eq!(
                resp, &runs[0][k],
                "{} responses must be byte-identical across --jobs",
                what[k]
            );
        }
    }
    let [_, _, failing_cold, failing_warm, stats] = &runs[0];
    // Each failure is reported on its own unit; the clean units around
    // them compile, then hit when the batch is sent again.
    for (i, detail) in [
        (1, "front-end: parse error"),
        (2, "front-end: type error"),
        (3, "cannot read `no-such-dir/unit.c`"),
    ] {
        let want = format!(
            "{{\"unit\":{i},\"cache\":\"none\",\"artifact\":{{\"status\":\"failed\",\"detail\":\"{detail}"
        );
        assert!(failing_cold.contains(&want), "unit {i}: {failing_cold}");
        assert!(failing_warm.contains(&want), "unit {i}: {failing_warm}");
    }
    for i in [0, 4] {
        let unit = |tag: &str| {
            format!("{{\"unit\":{i},\"cache\":\"{tag}\",\"artifact\":{{\"status\":\"ok\"")
        };
        assert!(
            failing_cold.contains(&unit("miss")),
            "unit {i}: {failing_cold}"
        );
        assert!(
            failing_warm.contains(&unit("hit")),
            "unit {i}: {failing_warm}"
        );
    }
    assert_eq!(
        request_stats(failing_warm),
        "\"cache\":{\"hit\":2,\"miss\":0,\"evict\":0}",
        "{failing_warm}"
    );
    assert_eq!(artifacts_only(failing_cold), artifacts_only(failing_warm));
    // And the counters say what the protocol stats said. The warm batch
    // skips 3 front ends and the warm failing batch 2 (units 0 and 4); the
    // failing batch's cold pass links a new table, so its two remembered
    // units miss and are front-ended again.
    assert!(
        stats.contains("\"serve.cache.hit\":5") && stats.contains("\"serve.cache.miss\":5"),
        "{stats}"
    );
    assert!(stats.contains("\"serve.front.reused\":5"), "{stats}");
}

#[test]
fn hits_survive_a_server_restart() {
    let dir = fresh_dir("restart-warm");
    let batch = compile_req(9, &[UNIT_A, UNIT_B, UNIT_C]);

    let mut s1 = Serve::spawn(&dir, &[]);
    let _cold = s1.req(&batch);
    let warm1 = s1.req(&batch);
    assert_eq!(s1.eof_wait().code(), Some(0));

    // A brand-new process over the same cache directory serves the same
    // bytes — the cache is on disk, not in the process.
    let mut s2 = Serve::spawn(&dir, &[]);
    let warm2 = s2.req(&batch);
    assert_eq!(warm1, warm2, "warm responses must survive a restart");
    assert_eq!(s2.eof_wait().code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `compile` frame per seed: 24 generated three-unit programs, larger
/// than the difftest default so the back end dominates a cold compile.
fn generated_frames() -> Vec<String> {
    let cfg = GenCfg {
        units: 3,
        fns_per_unit: 4,
        stmts_per_fn: 12,
        ..GenCfg::default()
    };
    (0..24u64)
        .map(|seed| {
            let units: Vec<String> = generate(seed, &cfg)
                .render()
                .iter()
                .map(|s| format!("{{\"source\":\"{}\"}}", compiler::json::escape(s)))
                .collect();
            format!(
                "{{\"schema\":\"compcerto-serve/1\",\"op\":\"compile\",\"id\":{seed},\
                 \"units\":[{}]}}",
                units.join(",")
            )
        })
        .collect()
}

/// An in-process server over `dir`, compiling validated with metrics.
fn server(dir: &std::path::Path, jobs: Jobs) -> Server {
    Server::new(ServeConfig {
        opts: CompilerOptions::validated().with_metrics(),
        jobs,
        cache_dir: dir.to_string_lossy().into_owned(),
    })
    .expect("server starts")
}

/// Every frame through `srv` once, the responses in frame order.
fn pass(srv: &mut Server, frames: &[String]) -> Vec<String> {
    frames
        .iter()
        .map(|f| srv.handle_line(f).expect("a compile frame gets a response"))
        .collect()
}

/// The summed per-request `(hit, miss)` stats of a pass.
fn tally(responses: &[String]) -> (u64, u64) {
    let field = |stats: &str, name: &str| -> u64 {
        let tag = format!("\"{name}\":");
        let at = stats.find(&tag).expect("stats member") + tag.len();
        let digits: String = stats[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect("a count")
    };
    responses.iter().fold((0, 0), |(h, m), r| {
        let stats = request_stats(r);
        (h + field(&stats, "hit"), m + field(&stats, "miss"))
    })
}

#[test]
fn generated_batches_pin_their_cold_bytes_and_hit_warm() {
    let frames = generated_frames();
    let dir = fresh_dir("pin-jobs1");
    let mut srv = server(&dir, Jobs::N(1));
    let cold = pass(&mut srv, &frames);
    let checksum = cold.iter().fold(FNV_OFFSET, |h, r| fnv1a(h, r.as_bytes()));
    assert_eq!(format!("{checksum:016x}"), "44cbc805ee5be084");
    assert_eq!(tally(&cold), (0, 72));

    let wide_dir = fresh_dir("pin-jobs16");
    let wide = pass(&mut server(&wide_dir, Jobs::N(16)), &frames);
    assert!(
        wide == cold,
        "cold responses must not depend on the pool width"
    );
    let _ = std::fs::remove_dir_all(&wide_dir);

    let warm = pass(&mut srv, &frames);
    assert_eq!(tally(&warm), (72, 0));
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(artifacts_only(c), artifacts_only(w));
    }

    // A fresh server over the same directory serves the same warm bytes.
    drop(srv);
    assert!(pass(&mut server(&dir, Jobs::N(1)), &frames) == warm);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The response of a server that has seen nothing, over a fresh cache
/// directory, to `frame`.
fn fresh_answer(tag: &str, frame: &str) -> String {
    let dir = fresh_dir(tag);
    let resp = server(&dir, Jobs::N(1))
        .handle_line(frame)
        .expect("a compile frame gets a response");
    let _ = std::fs::remove_dir_all(&dir);
    resp
}

fn reused(srv: &Server) -> u64 {
    srv.stats().get("serve.front.reused")
}

/// A unit defining a global, and its sibling reading it.
const UNIT_K: &str = "int k = 3; int getk(void) { return k; }";
/// `UNIT_K` with the global's initializer changed: the symbol table changes.
const UNIT_K2: &str = "int k = 4; int getk(void) { return k; }";
/// `UNIT_K` with the global's type changed.
const UNIT_K3: &str = "long k = 3; long getk(void) { return k; }";

#[test]
fn a_sibling_global_edit_refronts_remembered_units() {
    let dir = fresh_dir("memo-global");
    let mut srv = server(&dir, Jobs::N(2));
    let first = compile_req(1, &[UNIT_A, UNIT_B, UNIT_K]);
    let _ = srv.handle_line(&first);
    let warm = srv.handle_line(&first).expect("response");
    assert_eq!(
        request_stats(&warm),
        "\"cache\":{\"hit\":3,\"miss\":0,\"evict\":0}"
    );
    assert_eq!(reused(&srv), 3);
    // Each edit re-keys every unit: the remembered `UNIT_A` and `UNIT_B`
    // miss, are front-ended again and compile as on a fresh server.
    for (n, edited) in [UNIT_K2, UNIT_K3].into_iter().enumerate() {
        let frame = compile_req(2, &[UNIT_A, UNIT_B, edited]);
        let resp = srv.handle_line(&frame).expect("response");
        assert_eq!(
            request_stats(&resp),
            "\"cache\":{\"hit\":0,\"miss\":3,\"evict\":0}",
            "{resp}"
        );
        assert_eq!(resp, fresh_answer(&format!("memo-global-fresh{n}"), &frame));
        assert_eq!(reused(&srv), 3, "a unit front-ended again is not reused");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_unit_that_fails_its_front_end_is_not_remembered() {
    let dir = fresh_dir("memo-failing");
    let mut srv = server(&dir, Jobs::N(1));
    let bad_parse = "int h(int x) { return x +; }";
    let bad_type = "int g(int x) { return y; }";
    let frame = compile_req(4, &[UNIT_A, bad_parse, bad_type]);
    let cold = srv.handle_line(&frame).expect("response");
    let warm = srv.handle_line(&frame).expect("response");
    for (i, detail) in [(1, "front-end: parse error"), (2, "front-end: type error")] {
        let failed = |resp: &str| -> String {
            let at = resp
                .find(&format!("{{\"unit\":{i},"))
                .expect("the unit's frame");
            let end = resp[at..].find('}').expect("frame end") + at;
            resp[at..end].to_string()
        };
        assert!(failed(&cold).contains(detail), "{cold}");
        assert_eq!(
            failed(&cold),
            failed(&warm),
            "unit {i}: the same failure frame"
        );
    }
    assert_eq!(artifacts_only(&cold), artifacts_only(&warm));
    // Only `UNIT_A` skipped its front end on the second request.
    assert_eq!(reused(&srv), 1);
    let alone = compile_req(5, &[bad_parse]);
    let first = srv.handle_line(&alone).expect("response");
    assert_eq!(srv.handle_line(&alone).as_deref(), Some(first.as_str()));
    assert_eq!(first, fresh_answer("memo-failing-fresh", &alone));
    assert_eq!(reused(&srv), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_removed_cache_recompiles_remembered_units_to_the_cold_artifacts() {
    let dir = fresh_dir("memo-rmcache");
    let mut srv = server(&dir, Jobs::N(2));
    let frame = compile_req(6, &[UNIT_A, UNIT_B, UNIT_C]);
    let cold = srv.handle_line(&frame).expect("response");
    std::fs::remove_dir_all(&dir).expect("remove the cache directory");
    // Every remembered unit misses, is front-ended again and compiles to
    // the cold bytes, tags and request tally included.
    let again = srv.handle_line(&frame).expect("response");
    assert_eq!(
        request_stats(&again),
        "\"cache\":{\"hit\":0,\"miss\":3,\"evict\":0}"
    );
    assert_eq!(again, cold);
    assert_eq!(reused(&srv), 0);
    assert_eq!(srv.stats().get("serve.compiled"), 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_memo_forgets_its_least_recently_used_unit_beyond_its_bound() {
    let dir = fresh_dir("memo-bound");
    let mut srv = server(&dir, Jobs::N(2));
    let units: Vec<String> = (0..=FRONT_MEMO_UNITS)
        .map(|i| format!("int g{i};"))
        .collect();
    let refs: Vec<&str> = units.iter().map(String::as_str).collect();
    let first = compile_req(7, &refs[..1]);
    let rest = compile_req(8, &refs[1..]);
    let cold = srv.handle_line(&first).expect("response");
    let _ = srv.handle_line(&rest);
    assert_eq!(reused(&srv), 0);
    // `FRONT_MEMO_UNITS` newer units pushed the first one out: it is
    // front-ended again, though its artifact hits.
    let again = srv.handle_line(&first).expect("response");
    assert_eq!(
        request_stats(&again),
        "\"cache\":{\"hit\":1,\"miss\":0,\"evict\":0}"
    );
    assert_eq!(artifacts_only(&again), artifacts_only(&cold));
    assert_eq!(reused(&srv), 0);
    // Remembering it again evicted the oldest unit of the big batch, so
    // that batch now skips all of its front ends but one.
    let warm = srv.handle_line(&rest).expect("response");
    assert_eq!(
        request_stats(&warm),
        format!("\"cache\":{{\"hit\":{FRONT_MEMO_UNITS},\"miss\":0,\"evict\":0}}")
    );
    assert_eq!(reused(&srv), FRONT_MEMO_UNITS as u64 - 1);
    let _ = std::fs::remove_dir_all(&dir);
}
