//! `serve-edit` and `serve-rebuild`: one `compiler::Server` with the
//! `ccomp-o serve` defaults (`validated().with_metrics()`, `Jobs::Auto`)
//! over a fresh cache directory, fed generated 4-unit projects by a single
//! waiting client, as an IDE drives it.
//!
//! * `serve-edit`: each request changes one function body of one unit,
//!   rotating over projects and units. The symbol table is unchanged, so a
//!   request gets 3 hits and 1 miss, and the miss adds a cache write; the
//!   validators carry these requests.
//! * `serve-rebuild`: each request resends a project unchanged, so all 4
//!   units hit; the front end and the cache probe carry these requests.
//!
//! Every served artifact, with the cache tags stripped, must be
//! byte-identical to a cache-free `compile_all_jobs` of the same project
//! state.

use std::collections::BTreeMap;

use clight::build_symtab;
use compcerto_gen::{generate, GenCfg};
use compiler::driver::compile_typed_jobs;
use compiler::serve::{cache_key, compiler_fingerprint, options_fingerprint, symtab_fingerprint};
use compiler::{
    compile_all_jobs, json, pool_stats, CompilerOptions, Counters, Jobs, ServeConfig, Server,
};

use crate::layers::{LayerInput, ServeTally};
use crate::pipeline;
use crate::trace::{self, span};
use crate::util::{timed, Fnv, Passes, Timeline};
use crate::{out_dir, Report, RunCfg};

fn opts() -> CompilerOptions {
    CompilerOptions::validated().with_metrics()
}

/// The projects. As in `compile-corpus`, the population is fixed and the
/// workload seed only orders the requests.
fn projects(n: usize) -> Vec<Vec<String>> {
    let cfg = GenCfg {
        units: 4,
        fns_per_unit: 4,
        stmts_per_fn: 12,
        ..GenCfg::default()
    };
    (0..n)
        .map(|p| generate(1000 + p as u64, &cfg).render())
        .collect()
}

/// The body-only edit of slot `slot`: the first function's zero-initialised
/// local gets the value `slot + 1`. The source is new to a cache that has
/// only seen the projects, and the symbol table stays the same.
fn edit(src: &str, slot: usize) -> String {
    src.replacen("  v0 = 0;\n", &format!("  v0 = {};\n", slot + 1), 1)
}

/// One request: its id, its slot (a `(project, unit)` pair numbered
/// `4 * project + unit`) and whether the slot's unit is edited. A pass over
/// the inputs visits every slot once.
#[derive(Debug, Clone, Copy)]
struct Req {
    id: usize,
    slot: usize,
    edited: bool,
}

/// Project state of a request: which project, and its unit sources. The
/// edit of a slot is the same on every pass, so each pass of `serve-edit`
/// (over a fresh cache) repeats the same work.
fn state(projects: &[Vec<String>], r: Req) -> (usize, Vec<String>) {
    let p = r.slot / 4;
    let mut units = projects[p].clone();
    if r.edited {
        let u = r.slot % 4;
        units[u] = edit(&units[u], r.slot);
    }
    (p, units)
}

fn frame(id: usize, sources: &[String]) -> String {
    let units: Vec<String> = sources
        .iter()
        .map(|s| format!("{{\"source\":\"{}\"}}", json::escape(s)))
        .collect();
    format!(
        "{{\"schema\":\"compcerto-serve/1\",\"op\":\"compile\",\"id\":{id},\"units\":[{}]}}",
        units.join(",")
    )
}

/// A response without its cache members: the per-unit `"cache"` tags and
/// the trailing request tally.
fn tagless(resp: &str) -> String {
    let s = resp
        .replace("\"cache\":\"miss\",", "")
        .replace("\"cache\":\"hit\",", "")
        .replace("\"cache\":\"evict-miss\",", "");
    match s.rfind(",\"cache\":{") {
        Some(at) => s[..at].to_string(),
        None => s,
    }
}

/// The request tally `(hit, miss, evict)` of a `compile-result`.
fn tally(resp: &str) -> Option<(u64, u64, u64)> {
    let tail = &resp[resp.rfind("\"cache\":{")?..];
    let field = |name: &str| -> Option<u64> {
        let at = tail.find(&format!("\"{name}\":"))? + name.len() + 3;
        tail[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .ok()
    };
    Some((field("hit")?, field("miss")?, field("evict")?))
}

/// The cacheable artifact of one unit, rendered as the server renders it.
fn artifact(asm: &str, counters: &Counters, diags: &[compcerto_validate::Diagnostic]) -> String {
    let metrics: Vec<String> = counters
        .0
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let diags: Vec<String> = diags.iter().map(|d| d.to_json()).collect();
    format!(
        "{{\"status\":\"ok\",\"asm\":\"{}\",\"metrics\":{{{}}},\"diagnostics\":[{}]}}",
        json::escape(asm),
        metrics.join(","),
        diags.join(",")
    )
}

/// The artifacts of a cache-free compile of one project state.
fn reference(sources: &[String]) -> Result<Vec<String>, String> {
    let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
    let (units, _) = compile_all_jobs(&refs, opts(), Jobs::Auto).map_err(|e| format!("{e}"))?;
    Ok(units
        .iter()
        .map(|u| {
            let c = u
                .metrics
                .as_ref()
                .map(|m| m.counters.clone())
                .unwrap_or_default();
            artifact(&pipeline::asm_dump(u), &c, &u.diagnostics)
        })
        .collect())
}

/// The tagless response a correct server gives to request `id`.
fn expected(id: usize, artifacts: &[String]) -> String {
    let units: Vec<String> = artifacts
        .iter()
        .enumerate()
        .map(|(i, a)| format!("{{\"unit\":{i},\"artifact\":{a}}}"))
        .collect();
    format!(
        "{{\"schema\":\"compcerto-serve/1\",\"op\":\"compile-result\",\"id\":{id},\"units\":[{}]",
        units.join(",")
    )
}

/// The client: builds request frames, numbers them, and keeps a hash of
/// every response for the check against cache-free compiles.
struct Client<'a> {
    projects: &'a [Vec<String>],
    next_id: usize,
    served: Vec<(Req, u64)>,
}

impl Client<'_> {
    /// The next request for `slot`, its unit sources and its frame.
    fn prepare(&mut self, slot: usize, edited: bool) -> (Req, Vec<String>, String) {
        let req = Req {
            id: self.next_id,
            slot,
            edited,
        };
        self.next_id += 1;
        let (_, units) = state(self.projects, req);
        let f = frame(req.id, &units);
        (req, units, f)
    }

    fn record(&mut self, req: Req, resp: &str) {
        self.served.push((req, Fnv::of(tagless(resp).as_bytes())));
    }

    /// Send the request for `slot`; `None` when the server gave no response.
    fn send(
        &mut self,
        server: &mut Server,
        slot: usize,
        edited: bool,
        tl: Option<&mut Timeline>,
    ) -> Option<String> {
        let (req, _, f) = self.prepare(slot, edited);
        let resp = match tl {
            Some(tl) => tl.op(|| server.handle_line(&f)),
            None => server.handle_line(&f),
        }?;
        self.record(req, &resp);
        Some(resp)
    }

    /// Check every served response against a cache-free compile of its
    /// project state; each distinct state is compiled once.
    fn verify(&self, rep: &mut Report) {
        let mut refs: BTreeMap<(usize, bool), Result<Vec<String>, String>> = BTreeMap::new();
        for (req, hash) in &self.served {
            let key = if req.edited {
                (req.slot, true)
            } else {
                (req.slot / 4, false)
            };
            let arts = refs
                .entry(key)
                .or_insert_with(|| reference(&state(self.projects, *req).1));
            match arts {
                Ok(a) if Fnv::of(expected(req.id, a).as_bytes()) == *hash => {}
                Ok(_) => rep.problem(format!(
                    "request {}: served artifacts differ from a cache-free compile",
                    req.id
                )),
                Err(e) => rep.problem(format!("request {}: reference compile failed: {e}", req.id)),
            }
        }
    }
}

struct CacheServer {
    server: Server,
    dir: std::path::PathBuf,
}

impl CacheServer {
    fn close(self) {
        let _ = std::fs::remove_dir_all(self.dir);
    }
}

/// Set-up: `Server::new` over a fresh cache directory, then the cold fill
/// of every project (whose responses are checked like any other). Its wall
/// time is one `setup_s` sample.
fn open(
    tag: usize,
    client: &mut Client,
    rep: &mut Report,
    setup: &mut Timeline,
) -> Option<CacheServer> {
    let sess = setup.op(|| -> Result<CacheServer, String> {
        let dir = out_dir().join(format!("cache-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut server = Server::new(ServeConfig {
            opts: opts(),
            jobs: Jobs::Auto,
            cache_dir: dir.to_string_lossy().into_owned(),
        })?;
        for p in 0..client.projects.len() {
            let resp = client
                .send(&mut server, 4 * p, false, None)
                .ok_or("no response to the cold fill")?;
            if tally(&resp) != Some((0, 4, 0)) {
                rep.problem(format!("cold fill of project {p}: unexpected cache tally"));
            }
        }
        Ok(CacheServer { server, dir })
    });
    sess.map_err(|e| rep.problem(format!("server set-up failed: {e}")))
        .ok()
}

pub fn run(cfg: &RunCfg) -> Report {
    let edits = cfg.workload == "serve-edit";
    let n = if cfg.tiny { 1 } else { 8 };
    let mut rep = Report::new(cfg);
    rep.note(
        "inputs",
        format!("{n} projects of 4 units x 4 functions x 12 statements"),
    );
    let projs = projects(n);
    let order = crate::util::order(cfg.seed, 4 * n);
    let mut client = Client {
        projects: &projs,
        next_id: 0,
        served: Vec::new(),
    };
    let mut setup = Timeline::new();
    if cfg.trace {
        if let Some(mut sess) = open(0, &mut client, &mut rep, &mut setup) {
            traced(edits, &order, &mut client, &mut sess, &mut rep);
            sess.close();
        }
    } else {
        let mut passes = Passes::start(cfg.seconds);
        let mut tl = Timeline::new();
        // `serve-rebuild` keeps one server (set up `setup_reps` times, the
        // last one kept); `serve-edit` sets up a fresh one for every pass.
        let mut kept: Option<CacheServer> = None;
        if !edits {
            for r in 0..cfg.setup_reps {
                if let Some(old) = kept.take() {
                    old.close();
                }
                kept = open(r, &mut client, &mut rep, &mut setup);
            }
        }
        while passes.another() {
            let sess = if edits {
                open(passes.count(), &mut client, &mut rep, &mut setup)
            } else {
                kept.take()
            };
            let Some(mut sess) = sess else { break };
            for slot in passes.order(&order) {
                rep.attempted += 1;
                match client.send(&mut sess.server, slot, edits, Some(&mut tl)) {
                    Some(resp) => {
                        if check_response(edits, &resp, &mut rep) {
                            rep.failed += 1;
                        }
                    }
                    None => rep.failed += 1,
                }
            }
            if edits {
                sess.close();
            } else {
                kept = Some(sess);
            }
        }
        if let Some(sess) = kept {
            sess.close();
        }
        let name = if edits { "edit" } else { "rebuild" };
        let (ms, probe) = tl.scaled();
        rep.note("probe_ms", probe.to_string());
        rep.alias(
            &format!("{name}_p50_ms"),
            crate::util::quantile(&ms, 0.5),
            "ms",
        );
        rep.alias(
            &format!("{name}_p90_ms"),
            crate::util::quantile(&ms, 0.9),
            "ms",
        );
        rep.e2e(ms.len() as f64, &ms, &setup, &passes);
    }
    client.verify(&mut rep);
    rep
}

/// Tally and failure checks of one response; true when the operation
/// failed (an error frame or a failed unit).
fn check_response(edits: bool, resp: &str, rep: &mut Report) -> bool {
    let want = if edits { (3, 1, 0) } else { (4, 0, 0) };
    match tally(resp) {
        Some(t) if t == want => {}
        other => rep.problem(format!("unexpected cache tally {other:?}, want {want:?}")),
    }
    resp.contains("\"op\":\"error\"") || resp.contains("\"status\":\"failed\"")
}

/// One pass of requests with spans: the request itself, then the public
/// calls `handle_line` makes replayed on the same inputs (front end,
/// symbol table, cache keys, compile of the misses), then the misses once
/// more through the traced pipeline for the pass and validator breakdown.
fn traced(
    edits: bool,
    order: &[usize],
    client: &mut Client,
    sess: &mut CacheServer,
    rep: &mut Report,
) {
    let server = &mut sess.server;
    let mut li = LayerInput::default();
    let (opts_fp, compiler_fp) = (options_fingerprint(opts()), compiler_fingerprint());
    let stat = |s: &Server, k: &str| s.stats().get(k);
    let (h0, m0, e0) = (
        stat(server, "serve.cache.hit"),
        stat(server, "serve.cache.miss"),
        stat(server, "serve.cache.evict"),
    );
    span("gen", || projects(client.projects.len()));
    for &slot in order {
        let (req, units, f) = client.prepare(slot, edits);
        let id = req.id;
        trace::set_item(id as u64);
        let snap = compiler::ObsSnapshot::take();
        let p0 = pool_stats();
        let mut req_ms = 0.0;
        let mut misses_traced = Vec::new();
        let resp = span("op", || {
            let (ms, resp) = timed(|| span("serve.request", || server.handle_line(&f)));
            req_ms = ms;
            let resp = resp?;
            let missed: Vec<usize> = (0..units.len())
                .filter(|i| resp.contains(&format!("{{\"unit\":{i},\"cache\":\"miss\"")))
                .collect();
            let replay = span("serve.replay", || -> Result<_, String> {
                let typed = span("serve.front", || {
                    units
                        .iter()
                        .map(|s| pipeline::front_end(s))
                        .collect::<Result<Vec<_>, _>>()
                })?;
                let refs: Vec<&clight::Program> = typed.iter().collect();
                let symtab = span("serve.link", || span("clight.link", || build_symtab(&refs)))
                    .map_err(|e| format!("{e}"))?;
                span("serve.key", || {
                    let fp = symtab_fingerprint(&symtab);
                    units
                        .iter()
                        .map(|s| cache_key(s, &opts_fp, &compiler_fp, &fp))
                        .collect::<Vec<_>>()
                });
                let miss_typed: Vec<clight::Program> =
                    missed.iter().map(|&i| typed[i].clone()).collect();
                if !miss_typed.is_empty() {
                    span("serve.compile", || {
                        compile_typed_jobs(&miss_typed, &symtab, opts(), Jobs::Auto)
                    })
                    .map_err(|e| format!("{e}"))?;
                }
                Ok((miss_typed, symtab))
            });
            if let Ok((miss_typed, symtab)) = replay {
                span("trace.recompile", || {
                    for (&i, t) in missed.iter().zip(&miss_typed) {
                        misses_traced.push((i, pipeline::compile_program(t, &symtab, opts())));
                    }
                });
            }
            Some(resp)
        });
        li.counters.add(&snap.delta());
        li.par_items += pool_stats().items - p0.items;
        li.e2e_ms += req_ms;
        li.untraced_ms += req_ms;
        rep.attempted += 1;
        let Some(resp) = resp else {
            rep.failed += 1;
            continue;
        };
        if check_response(edits, &resp, rep) {
            rep.failed += 1;
        }
        // The traced recompile must reproduce the artifact the server sent.
        for (i, r) in misses_traced {
            match r {
                Ok((unit, c)) => {
                    li.ir.add(&c);
                    let a = artifact(&pipeline::asm_dump(&unit), &c, &unit.diagnostics);
                    if !resp.contains(&format!(
                        "{{\"unit\":{i},\"cache\":\"miss\",\"artifact\":{a}}}"
                    )) {
                        rep.problem(format!("request {id}: traced recompile of unit {i} differs from the served artifact"));
                    }
                }
                Err(e) => rep.problem(format!("request {id}: traced recompile failed: {e}")),
            }
        }
        client.record(req, &resp);
    }
    li.serve = Some(ServeTally {
        hits: stat(server, "serve.cache.hit") - h0,
        misses: stat(server, "serve.cache.miss") - m0,
        evicts: stat(server, "serve.cache.evict") - e0,
        cache_bytes: std::fs::read_dir(&sess.dir)
            .map(|d| {
                d.flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0),
    });
    rep.layers(li);
}
