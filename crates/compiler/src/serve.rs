//! `ccomp-o serve` — a persistent compile server with a content-addressed
//! incremental artifact cache (DESIGN.md §14, ROADMAP item 1).
//!
//! # Protocol (`compcerto-serve/1`)
//!
//! Newline-framed JSON: one request object per line on stdin (or a Unix
//! socket connection), one response object per line back. Request ops:
//!
//! * `{"schema":"compcerto-serve/1","op":"ping","id":N}` → `pong`
//! * `{"schema":"compcerto-serve/1","op":"compile","id":N,
//!    "units":[{"source":"int f..."}, {"file":"path.c"}]}` →
//!   `compile-result` with one entry per unit, in request order
//! * `{"schema":"compcerto-serve/1","op":"stats","id":N}` → cumulative
//!   server counters (`serve.cache.hit` / `serve.cache.miss` /
//!   `serve.cache.evict` / `serve.units` / …)
//! * `{"schema":"compcerto-serve/1","op":"shutdown","id":N}` → ack, then
//!   the server exits cleanly (exit code 0)
//!
//! Malformed input never kills the server: unparsable frames, unknown
//! schemas/ops, oversized requests and non-UTF-8 bytes are all answered
//! with a typed `error` frame and the loop continues. The process honors
//! the driver-wide exit contract — 0 (clean shutdown / EOF), 1 (I/O
//! failure), 2 (usage) and **never** 101.
//!
//! # Cache (`compcerto-cache/1`)
//!
//! Each unit is keyed by an FNV-1a content hash over its source bytes, the
//! [`CompilerOptions`] fingerprint, the compiler fingerprint (the pass
//! registry + crate version) and the *batch symbol-table* fingerprint —
//! a unit's code depends on the shared symbol table, so an edit that
//! changes another unit's globals correctly invalidates it, while an edit
//! confined to a function body leaves sibling units hitting. Entries are
//! one JSON file per key (`<dir>/<key>.json`), written atomically
//! (temp file + rename, as the `bench::campaign` checkpoints), carrying the
//! serialized artifact (asm + deterministic metrics + validation
//! diagnostics) plus its own FNV checksum. Every read re-derives the
//! checksum: truncated, bit-flipped or wrong-key entries are evicted
//! (counted under `serve.cache.evict`) and recompiled transparently —
//! a corrupt cache can cost time, never correctness.
//!
//! # Scheduling
//!
//! The batch's front ends fan out on the worker pool ([`par_map`], one
//! contained item per unit, as in [`crate::driver::compile_all_jobs`]).
//! Cache lookups then run serially in batch order (so hit/miss counters are
//! `--jobs`-invariant); the misses fan out through the function-level
//! scheduler ([`crate::driver::compile_typed_jobs`]): front end per unit →
//! symbol-table barrier → per-function back ends → reassembly. A unit that
//! fails or panics degrades *its own* response through the resilience
//! ladder ([`crate::resilience`]); the server and the rest of the batch
//! keep going.

use std::io::{BufRead, Write};

use clight::build_symtab;
use compcerto_core::symtab::SymbolTable;

use crate::driver::{compile_typed_jobs, front_end, CompiledUnit, CompilerOptions};
use crate::json::{self, Json};
use crate::obs::Counters;
use crate::par::{par_map, Jobs};
use crate::resilience::{compile_program_isolated, contain_unwind, UnitOutcome};

/// Protocol schema stamped on every request and response frame.
pub const SERVE_SCHEMA: &str = "compcerto-serve/1";
/// Schema stamped on every on-disk cache entry.
pub const CACHE_SCHEMA: &str = "compcerto-cache/1";
/// Hard cap on one request frame. Anything longer is discarded and
/// answered with a typed `error` frame (the line is consumed, the
/// connection survives).
pub const MAX_FRAME_BYTES: usize = 4 << 20;

// ---------------------------------------------------------------------------
// Fingerprints and cache keys
// ---------------------------------------------------------------------------

/// The FNV-1a 64 offset basis: every FNV chain starts here.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into the FNV-1a 64 chain `init` (the workspace's one FNV-1a).
#[must_use]
pub fn fnv1a(init: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(init, |h, b| (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a 64 over `bytes`, rendered as 16 hex digits.
#[must_use]
pub fn fnv_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(FNV_OFFSET, bytes))
}

/// Fingerprint of the compiler itself: the pass registry (names, kinds and
/// simulation conventions — paper Table 3 as data) plus the crate version.
/// Any change to the pipeline's shape changes every cache key.
#[must_use]
pub fn compiler_fingerprint() -> String {
    let mut h = fnv1a(FNV_OFFSET, env!("CARGO_PKG_VERSION").as_bytes());
    for p in crate::registry::pass_registry() {
        h = fnv1a(h, format!("{p:?}").as_bytes());
    }
    format!("{h:016x}")
}

/// Fingerprint of a [`CompilerOptions`] value (every field participates:
/// two servers differing in any flag never share artifacts).
#[must_use]
pub fn options_fingerprint(opts: CompilerOptions) -> String {
    fnv_hex(format!("{opts:?}").as_bytes())
}

/// Fingerprint of the batch symbol table. [`SymbolTable`] is plain ordered
/// data (a `Vec` of idents/kinds plus a `BTreeMap` index), so its `Debug`
/// rendering is deterministic across runs and across server restarts.
#[must_use]
pub fn symtab_fingerprint(symtab: &SymbolTable) -> String {
    fnv_hex(format!("{symtab:?}").as_bytes())
}

/// The content-addressed cache key of one unit in one batch.
#[must_use]
pub fn cache_key(source: &str, opts_fp: &str, compiler_fp: &str, symtab_fp: &str) -> String {
    let mut h = fnv1a(FNV_OFFSET, CACHE_SCHEMA.as_bytes());
    for part in [source, opts_fp, compiler_fp, symtab_fp] {
        h = fnv1a(h, part.as_bytes());
        h = fnv1a(h, b"\0");
    }
    format!("{h:016x}")
}

/// Invert [`json::escape`] for a cache entry's payload. Returns `None` on
/// any sequence `escape` never produces — such an entry was not written by
/// [`Cache::store`] and must be evicted. Runs between escapes are copied as
/// slices (a `\` is ASCII, so both ends sit on char boundaries).
fn unescape(escaped: &str) -> Option<String> {
    let mut out = String::with_capacity(escaped.len());
    let mut rest = escaped;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let esc = rest.get(at..at + 2)?;
        rest = &rest[at + 2..];
        out.push(match esc {
            "\\\"" => '"',
            "\\\\" => '\\',
            "\\n" => '\n',
            "\\t" => '\t',
            "\\r" => '\r',
            "\\u" => {
                // Only the `\u00xx` (lowercase) form `escape` writes for a
                // control character that has no short escape.
                let hex = rest.get(..4)?;
                let c = char::from_u32(u32::from_str_radix(hex, 16).ok()?)?;
                if json::escape(c.encode_utf8(&mut [0; 4])).get(2..) != Some(hex) {
                    return None;
                }
                rest = &rest[4..];
                c
            }
            _ => return None,
        });
    }
    out.push_str(rest);
    Some(out)
}

// ---------------------------------------------------------------------------
// The on-disk cache
// ---------------------------------------------------------------------------

/// Outcome of one cache probe.
enum Probe {
    /// Valid entry: the verbatim artifact payload string.
    Hit(String),
    /// No entry on disk.
    Miss,
    /// An entry existed but failed validation (checksum, schema or key
    /// mismatch, or unreadable payload); it has been removed.
    Evicted,
}

struct Cache {
    dir: String,
}

impl Cache {
    fn entry_path(&self, key: &str) -> String {
        format!("{}/{key}.json", self.dir)
    }

    /// Probe `key`, re-deriving the payload checksum on every read. An
    /// entry that fails any check is deleted — it will be transparently
    /// recompiled and rewritten by the caller.
    ///
    /// Entries are only ever written by [`Cache::store`], so the probe
    /// validates the fixed layout with a single prefix match over the file
    /// instead of a full JSON parse (the probe is the warm-path hot loop;
    /// the checksum over the unescaped payload is what guarantees payload
    /// integrity). Every field `store` emits participates: the `compiler`
    /// and `options` fingerprints are already folded into the key, so for
    /// an untampered entry they can only hold the caller's values — a
    /// mismatch proves corruption and evicts, same as a bad checksum.
    fn probe(&self, key: &str, compiler_fp: &str, opts_fp: &str) -> Probe {
        let path = self.entry_path(key);
        let raw = match std::fs::read_to_string(&path) {
            Ok(r) => r,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Probe::Miss,
            // Unreadable (permissions, encoding): treat as corrupt.
            Err(_) => return self.evict(&path),
        };
        let header = format!(
            "{{\"schema\":\"{CACHE_SCHEMA}\",\"key\":\"{key}\",\"compiler\":\"{compiler_fp}\",\
             \"options\":\"{opts_fp}\",\"payload_fnv\":\""
        );
        let Some(rest) = raw.strip_prefix(&header) else {
            return self.evict(&path);
        };
        let (Some(want_fnv), Some(escaped)) = (
            rest.get(..16),
            rest.get(16..)
                .and_then(|r| r.strip_prefix("\",\"payload\":\""))
                .and_then(|r| r.strip_suffix("\"}\n").or_else(|| r.strip_suffix("\"}"))),
        ) else {
            return self.evict(&path);
        };
        let Some(payload) = unescape(escaped) else {
            return self.evict(&path);
        };
        if fnv_hex(payload.as_bytes()) != want_fnv {
            return self.evict(&path);
        }
        Probe::Hit(payload)
    }

    fn evict(&self, path: &str) -> Probe {
        // Best-effort: a cache that cannot be cleaned still cannot serve
        // the corrupt entry (the caller recompiles either way).
        let _ = std::fs::remove_file(path);
        Probe::Evicted
    }

    /// Store `payload` under `key` atomically (temp file + rename): a kill
    /// mid-write leaves either no entry or a complete one, never a torn
    /// file — the restart test relies on this.
    fn store(&self, key: &str, payload: &str, compiler_fp: &str, opts_fp: &str) {
        let doc = format!(
            "{{\"schema\":\"{CACHE_SCHEMA}\",\"key\":\"{key}\",\"compiler\":\"{compiler_fp}\",\
             \"options\":\"{opts_fp}\",\"payload_fnv\":\"{}\",\"payload\":\"{}\"}}\n",
            fnv_hex(payload.as_bytes()),
            json::escape(payload),
        );
        let path = self.entry_path(key);
        let tmp = format!("{path}.tmp");
        // Cache writes are best-effort: a full disk degrades the server to
        // a cold compiler, never to a wrong answer.
        if std::fs::write(&tmp, &doc).is_ok() && std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// Configuration of one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Options applied to every unit of every batch.
    pub opts: CompilerOptions,
    /// Worker-pool width for the function-level fan-out.
    pub jobs: Jobs,
    /// Artifact cache directory (created on startup).
    pub cache_dir: String,
}

/// A compile server: the protocol state machine plus its artifact cache.
///
/// [`handle_line`](Server::handle_line) is the testable core — the
/// stdin/stdout and Unix-socket front ends ([`run_stdio`], [`run_unix`])
/// are thin framing loops around it.
pub struct Server {
    cfg: ServeConfig,
    cache: Cache,
    compiler_fp: String,
    opts_fp: String,
    stats: Counters,
    shutdown: bool,
}

impl Server {
    /// Create a server, creating the cache directory if needed.
    ///
    /// # Errors
    /// Reports an uncreatable cache directory (exit-1 material).
    pub fn new(cfg: ServeConfig) -> Result<Server, String> {
        std::fs::create_dir_all(&cfg.cache_dir)
            .map_err(|e| format!("cannot create cache dir `{}`: {e}", cfg.cache_dir))?;
        let compiler_fp = compiler_fingerprint();
        let opts_fp = options_fingerprint(cfg.opts);
        let cache = Cache {
            dir: cfg.cache_dir.clone(),
        };
        Ok(Server {
            cfg,
            cache,
            compiler_fp,
            opts_fp,
            stats: Counters::default(),
            shutdown: false,
        })
    }

    /// True once a `shutdown` frame was acknowledged; the framing loop
    /// exits cleanly.
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Cumulative server counters (the `stats` op renders these).
    #[must_use]
    pub fn stats(&self) -> &Counters {
        &self.stats
    }

    /// Handle one request frame; returns the response frame (no trailing
    /// newline). Blank lines get no response (`None`). This function never
    /// panics on malformed input — every failure mode is a typed `error`
    /// frame.
    pub fn handle_line(&mut self, line: &str) -> Option<String> {
        if line.trim().is_empty() {
            return None;
        }
        self.stats.bump("serve.requests", 1);
        if line.len() > MAX_FRAME_BYTES {
            self.stats.bump("serve.errors", 1);
            return Some(error_frame(
                None,
                "oversized-frame",
                &format!("frame of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap", line.len()),
            ));
        }
        let req = match json::parse(line) {
            Ok(j) => j,
            Err(e) => {
                self.stats.bump("serve.errors", 1);
                return Some(error_frame(None, "parse-error", &e));
            }
        };
        let id = req.get("id").and_then(Json::as_u64);
        let schema = req.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != SERVE_SCHEMA {
            self.stats.bump("serve.errors", 1);
            return Some(error_frame(
                id,
                "unknown-schema",
                &format!("schema `{schema}` is not `{SERVE_SCHEMA}`"),
            ));
        }
        match req.get("op").and_then(Json::as_str) {
            Some("ping") => Some(format!(
                "{{\"schema\":\"{SERVE_SCHEMA}\",\"op\":\"pong\"{}}}",
                id_member(id)
            )),
            Some("stats") => Some(format!(
                "{{\"schema\":\"{SERVE_SCHEMA}\",\"op\":\"stats-result\"{},\"counters\":{}}}",
                id_member(id),
                counters_inline(&self.stats)
            )),
            Some("shutdown") => {
                self.shutdown = true;
                Some(format!(
                    "{{\"schema\":\"{SERVE_SCHEMA}\",\"op\":\"shutdown-ok\"{}}}",
                    id_member(id)
                ))
            }
            Some("compile") => Some(self.handle_compile(id, &req)),
            Some(other) => {
                self.stats.bump("serve.errors", 1);
                Some(error_frame(
                    id,
                    "unknown-op",
                    &format!("op `{other}` is not one of ping/compile/stats/shutdown"),
                ))
            }
            None => {
                self.stats.bump("serve.errors", 1);
                Some(error_frame(id, "missing-op", "request has no `op` member"))
            }
        }
    }

    fn handle_compile(&mut self, id: Option<u64>, req: &Json) -> String {
        let Some(entries) = req.get("units").and_then(Json::as_arr) else {
            self.stats.bump("serve.errors", 1);
            return error_frame(id, "bad-request", "`compile` needs a `units` array");
        };
        if entries.is_empty() {
            self.stats.bump("serve.errors", 1);
            return error_frame(id, "bad-request", "`units` is empty");
        }
        self.stats.bump("serve.units", entries.len() as u64);

        // Resolve each entry to source text; an unreadable `file` entry
        // fails that unit alone.
        let sources: Vec<Result<String, String>> = entries
            .iter()
            .map(|e| {
                if let Some(src) = e.get("source").and_then(Json::as_str) {
                    Ok(src.to_string())
                } else if let Some(path) = e.get("file").and_then(Json::as_str) {
                    std::fs::read_to_string(path)
                        .map_err(|err| format!("cannot read `{path}`: {err}"))
                } else {
                    Err("unit needs a `source` or `file` member".to_string())
                }
            })
            .collect();

        // Front end every readable unit on the pool (each item contained:
        // a parser panic fails its unit, not the batch) — the symbol table
        // must span the whole batch, hits included.
        let typed: Vec<Result<clight::Program, String>> =
            par_map(self.cfg.jobs, &sources, |_, s| match s {
                Err(e) => Err(e.clone()),
                Ok(src) => match contain_unwind(|| front_end(src)) {
                    Ok(Ok(p)) => Ok(p),
                    Ok(Err(e)) => Err(format!("front-end: {e}")),
                    Err((_, msg)) => Err(format!("front-end panicked (contained): {msg}")),
                },
            });
        let parsed: Vec<&clight::Program> = typed.iter().filter_map(|t| t.as_ref().ok()).collect();
        let symtab = match build_symtab(&parsed) {
            Ok(t) => t,
            Err(e) => {
                // Mirror `compile_all_resilient`: a link error fails every
                // parsed unit (the broken-unit responses keep their own
                // front-end detail).
                let units: Vec<String> = typed
                    .iter()
                    .enumerate()
                    .map(|(i, t)| match t {
                        Ok(_) => unit_failed(i, "none", &format!("link: {e}")),
                        Err(detail) => unit_failed(i, "none", detail),
                    })
                    .collect();
                return self.compile_result(id, &units, 0, 0, 0);
            }
        };
        let symtab_fp = symtab_fingerprint(&symtab);

        // Serial cache probe in batch order: the hit/miss/evict tallies
        // are `--jobs`-invariant by construction.
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut evictions = 0u64;
        let mut probes: Vec<Option<Probe>> = Vec::with_capacity(sources.len());
        let mut keys: Vec<Option<String>> = Vec::with_capacity(sources.len());
        for (src, t) in sources.iter().zip(&typed) {
            match (src, t) {
                (Ok(src), Ok(_)) => {
                    let key = cache_key(src, &self.opts_fp, &self.compiler_fp, &symtab_fp);
                    let probe = self.cache.probe(&key, &self.compiler_fp, &self.opts_fp);
                    match probe {
                        Probe::Hit(_) => hits += 1,
                        Probe::Miss => misses += 1,
                        Probe::Evicted => {
                            evictions += 1;
                            misses += 1;
                        }
                    }
                    probes.push(Some(probe));
                    keys.push(Some(key));
                }
                _ => {
                    probes.push(None);
                    keys.push(None);
                }
            }
        }
        self.stats.bump("serve.cache.hit", hits);
        self.stats.bump("serve.cache.miss", misses);
        self.stats.bump("serve.cache.evict", evictions);

        // Compile the misses through the function-level scheduler; if the
        // fast path reports any error (or a pass panics out of the pool),
        // fall back to the per-unit isolated pipeline so each miss gets
        // its own degradation ladder.
        let miss_idx: Vec<usize> = probes
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p, Some(Probe::Miss | Probe::Evicted)))
            .map(|(i, _)| i)
            .collect();
        let miss_typed: Vec<clight::Program> = miss_idx
            .iter()
            .map(|&i| match &typed[i] {
                Ok(p) => p.clone(),
                // miss_idx only selects probed (hence parsed) units.
                Err(_) => clight::Program::default(),
            })
            .collect();
        let mut outcomes: Vec<Option<UnitOutcome>> = (0..sources.len()).map(|_| None).collect();
        if !miss_typed.is_empty() {
            self.stats.bump("serve.compiled", miss_typed.len() as u64);
            let fast = contain_unwind(|| {
                compile_typed_jobs(&miss_typed, &symtab, self.cfg.opts, self.cfg.jobs)
            });
            match fast {
                Ok(Ok(units)) => {
                    for (&i, u) in miss_idx.iter().zip(units) {
                        outcomes[i] = Some(UnitOutcome::Ok(Box::new(u)));
                    }
                }
                Ok(Err(_)) | Err(_) => {
                    self.stats.bump("serve.fallbacks", 1);
                    for (&i, t) in miss_idx.iter().zip(&miss_typed) {
                        outcomes[i] =
                            Some(compile_program_isolated(t, &symtab, self.cfg.opts));
                    }
                }
            }
        }

        // Render per-unit responses; clean artifacts are written back to
        // the cache (atomically) as they are rendered.
        let units: Vec<String> = (0..sources.len())
            .map(|i| match (&typed[i], &probes[i]) {
                (Err(detail), _) => unit_failed(i, "none", detail),
                (Ok(_), Some(Probe::Hit(payload))) => unit_frame(i, "hit", payload),
                (Ok(_), Some(probe)) => {
                    let cache_tag = match probe {
                        Probe::Evicted => "evict-miss",
                        _ => "miss",
                    };
                    match outcomes[i].take() {
                        Some(UnitOutcome::Ok(unit)) => {
                            let payload = render_artifact(&unit, "ok", None);
                            if let Some(key) = &keys[i] {
                                self.cache.store(key, &payload, &self.compiler_fp, &self.opts_fp);
                            }
                            unit_frame(i, cache_tag, &payload)
                        }
                        Some(UnitOutcome::Degraded {
                            unit,
                            pass,
                            reason,
                            detail,
                        }) => {
                            // Degraded artifacts are served but never
                            // cached: the ladder must re-run (and be
                            // re-reported) on the next request.
                            let note = format!(
                                "degraded: {} in `{pass}` ({detail})",
                                reason.name()
                            );
                            let payload = render_artifact(&unit, "degraded", Some(&note));
                            unit_frame(i, cache_tag, &payload)
                        }
                        Some(UnitOutcome::Failed { stage, error }) => {
                            unit_failed(i, cache_tag, &format!("{stage}: {error}"))
                        }
                        Some(UnitOutcome::Poisoned { pass, panic_msg }) => unit_failed(
                            i,
                            cache_tag,
                            &format!("internal panic in `{pass}` (contained): {panic_msg}"),
                        ),
                        None => unit_failed(i, cache_tag, "unit was not compiled (internal)"),
                    }
                }
                (Ok(_), None) => unit_failed(i, "none", "unit was not probed (internal)"),
            })
            .collect();
        self.compile_result(id, &units, hits, misses, evictions)
    }

    fn compile_result(
        &self,
        id: Option<u64>,
        units: &[String],
        hits: u64,
        misses: u64,
        evictions: u64,
    ) -> String {
        format!(
            "{{\"schema\":\"{SERVE_SCHEMA}\",\"op\":\"compile-result\"{},\"units\":[{}],\
             \"cache\":{{\"hit\":{hits},\"miss\":{misses},\"evict\":{evictions}}}}}",
            id_member(id),
            units.join(",")
        )
    }
}

/// Render one compiled unit's cacheable artifact: a single-line JSON
/// object holding the Asm-O text, the *deterministic* half of the metrics
/// (counters only — wall-clock spans are volatile and would break the
/// cold/warm byte-identity gate) and the validation diagnostics.
fn render_artifact(unit: &CompiledUnit, status: &str, note: Option<&str>) -> String {
    let asm: String = unit.asm.functions.iter().map(|f| f.dump()).collect();
    let metrics = match &unit.metrics {
        None => "null".to_string(),
        Some(m) => {
            let members: Vec<String> = m
                .counters
                .0
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            format!("{{{}}}", members.join(","))
        }
    };
    let diags: Vec<String> = unit.diagnostics.iter().map(|d| d.to_json()).collect();
    let note = match note {
        Some(n) => format!(",\"note\":\"{}\"", json::escape(n)),
        None => String::new(),
    };
    format!(
        "{{\"status\":\"{status}\"{note},\"asm\":\"{}\",\"metrics\":{metrics},\"diagnostics\":[{}]}}",
        json::escape(&asm),
        diags.join(",")
    )
}

fn unit_frame(i: usize, cache: &str, payload: &str) -> String {
    format!("{{\"unit\":{i},\"cache\":\"{cache}\",\"artifact\":{payload}}}")
}

fn unit_failed(i: usize, cache: &str, detail: &str) -> String {
    format!(
        "{{\"unit\":{i},\"cache\":\"{cache}\",\"artifact\":{{\"status\":\"failed\",\
         \"detail\":\"{}\"}}}}",
        json::escape(detail)
    )
}

fn id_member(id: Option<u64>) -> String {
    match id {
        Some(n) => format!(",\"id\":{n}"),
        None => String::new(),
    }
}

fn counters_inline(c: &Counters) -> String {
    let members: Vec<String> = c.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", members.join(","))
}

fn error_frame(id: Option<u64>, kind: &str, detail: &str) -> String {
    format!(
        "{{\"schema\":\"{SERVE_SCHEMA}\",\"op\":\"error\"{},\"error\":\"{}\",\"detail\":\"{}\"}}",
        id_member(id),
        json::escape(kind),
        json::escape(detail)
    )
}

// ---------------------------------------------------------------------------
// Framing loops
// ---------------------------------------------------------------------------

enum Frame {
    Eof,
    Line(String),
    Oversized(usize),
}

/// Read one newline-terminated frame with the [`MAX_FRAME_BYTES`] cap
/// enforced *while reading* — an attacker-sized line is drained and
/// reported without ever being buffered whole.
fn read_frame(r: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<Frame> {
    buf.clear();
    let mut dropped = 0usize;
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            // EOF: a final unterminated frame still gets parsed (and, if
            // truncated mid-frame, answered with a parse error).
            return Ok(if buf.is_empty() && dropped == 0 {
                Frame::Eof
            } else if dropped > 0 {
                Frame::Oversized(buf.len() + dropped)
            } else {
                Frame::Line(String::from_utf8_lossy(buf).into_owned())
            });
        }
        let nl = chunk.iter().position(|&b| b == b'\n');
        let take = nl.map_or(chunk.len(), |p| p);
        if dropped == 0 && buf.len() + take <= MAX_FRAME_BYTES {
            buf.extend_from_slice(&chunk[..take]);
        } else {
            dropped += take.saturating_sub(MAX_FRAME_BYTES.saturating_sub(buf.len()));
            let keep = MAX_FRAME_BYTES - buf.len();
            buf.extend_from_slice(&chunk[..keep.min(take)]);
        }
        let consumed = nl.map_or(chunk.len(), |p| p + 1);
        r.consume(consumed);
        if nl.is_some() {
            return Ok(if dropped > 0 {
                Frame::Oversized(buf.len() + dropped)
            } else {
                Frame::Line(String::from_utf8_lossy(buf).into_owned())
            });
        }
    }
}

fn serve_connection(
    server: &mut Server,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
) -> std::io::Result<()> {
    let mut buf = Vec::new();
    loop {
        let resp = match read_frame(reader, &mut buf)? {
            Frame::Eof => break,
            Frame::Line(line) => server.handle_line(&line),
            Frame::Oversized(n) => {
                server.stats.bump("serve.requests", 1);
                server.stats.bump("serve.errors", 1);
                Some(error_frame(
                    None,
                    "oversized-frame",
                    &format!("frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"),
                ))
            }
        };
        if let Some(resp) = resp {
            writer.write_all(resp.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
        }
        if server.shutdown_requested() {
            break;
        }
    }
    Ok(())
}

/// Serve frames on stdin/stdout until EOF or a `shutdown` op. Returns the
/// process exit code (0 clean, 1 on I/O failure).
#[must_use]
pub fn run_stdio(cfg: ServeConfig) -> u8 {
    let mut server = match Server::new(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match serve_connection(&mut server, &mut stdin.lock(), &mut stdout.lock()) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: serve I/O: {e}");
            1
        }
    }
}

/// Serve frames on a Unix socket: connections are accepted sequentially
/// (each handled to EOF), the shared cache and counters persisting across
/// them, until a `shutdown` op arrives. Returns the process exit code.
#[must_use]
pub fn run_unix(cfg: ServeConfig, socket_path: &str) -> u8 {
    let mut server = match Server::new(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    // A stale socket file from a killed predecessor would make bind fail.
    let _ = std::fs::remove_file(socket_path);
    let listener = match std::os::unix::net::UnixListener::bind(socket_path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind `{socket_path}`: {e}");
            return 1;
        }
    };
    for conn in listener.incoming() {
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: accept on `{socket_path}`: {e}");
                return 1;
            }
        };
        let mut reader = std::io::BufReader::new(match stream.try_clone() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: socket clone: {e}");
                return 1;
            }
        });
        let mut writer = std::io::BufWriter::new(stream);
        if let Err(e) = serve_connection(&mut server, &mut reader, &mut writer) {
            // One broken connection (client gone mid-reply) does not take
            // the daemon down.
            eprintln!("warning: connection on `{socket_path}`: {e}");
        }
        if server.shutdown_requested() {
            break;
        }
    }
    let _ = std::fs::remove_file(socket_path);
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_server(dir: &str) -> Server {
        Server::new(ServeConfig {
            opts: CompilerOptions::validated().with_metrics(),
            jobs: Jobs::N(1),
            cache_dir: dir.to_string(),
        })
        .expect("server")
    }

    fn tmpdir(tag: &str) -> String {
        let d = std::env::temp_dir().join(format!("ccomp-serve-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("tmpdir");
        d.to_string_lossy().into_owned()
    }

    #[test]
    fn ping_and_unknown_op() {
        let dir = tmpdir("ping");
        let mut s = test_server(&dir);
        let r = s
            .handle_line(r#"{"schema":"compcerto-serve/1","op":"ping","id":7}"#)
            .expect("response");
        assert!(r.contains("\"op\":\"pong\"") && r.contains("\"id\":7"), "{r}");
        let r = s
            .handle_line(r#"{"schema":"compcerto-serve/1","op":"frobnicate"}"#)
            .expect("response");
        assert!(r.contains("\"op\":\"error\"") && r.contains("unknown-op"), "{r}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compile_miss_then_hit_is_byte_identical() {
        let dir = tmpdir("hit");
        let mut s = test_server(&dir);
        let req = r#"{"schema":"compcerto-serve/1","op":"compile","id":1,"units":[{"source":"int f(int x) { return x + 1; }"}]}"#;
        let cold = s.handle_line(req).expect("cold");
        assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
        let warm = s.handle_line(req).expect("warm");
        assert!(warm.contains("\"cache\":\"hit\""), "{warm}");
        // The artifact member must be byte-identical across the probe
        // states; only the per-unit tag and the request stats differ.
        let strip = |r: &str| {
            let r = r.replace("\"cache\":\"miss\"", "").replace("\"cache\":\"hit\"", "");
            r[..r.rfind(",\"cache\":{").expect("stats")].to_string()
        };
        assert_eq!(strip(&cold), strip(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unescape_inverts_escape_and_nothing_else() {
        for s in crate::json::tests::seeded_strings() {
            assert_eq!(unescape(&json::escape(&s)), Some(s));
        }
        // Sequences `escape` never writes: other JSON escapes, unknown
        // escapes, truncated or surrogate `\u`, a non-canonical `\u`
        // (printable, short-form, uppercase or signed), a trailing `\`.
        for bad in [
            r"a\/b", r"\b", r"\f", r"\x", r"\u12", r"\ud800", r"\u0041", r"\u000a", r"\u001F",
            r"\u+001", r"\é", r"ok\",
        ] {
            assert_eq!(unescape(bad), None, "{bad} must not unescape");
        }
    }

    #[test]
    fn cache_key_separates_sources_options_and_symtabs() {
        let a = cache_key("int f;", "o1", "c1", "s1");
        assert_ne!(a, cache_key("int g;", "o1", "c1", "s1"));
        assert_ne!(a, cache_key("int f;", "o2", "c1", "s1"));
        assert_ne!(a, cache_key("int f;", "o1", "c2", "s1"));
        assert_ne!(a, cache_key("int f;", "o1", "c1", "s2"));
        assert_eq!(a, cache_key("int f;", "o1", "c1", "s1"));
    }

    #[test]
    fn oversized_frame_is_drained_not_buffered() {
        let big = format!("{}\n{{\"x\":1}}", "a".repeat(MAX_FRAME_BYTES + 64));
        let mut r = std::io::BufReader::new(big.as_bytes());
        let mut buf = Vec::new();
        match read_frame(&mut r, &mut buf).expect("read") {
            Frame::Oversized(n) => assert!(n > MAX_FRAME_BYTES),
            _ => panic!("expected oversized"),
        }
        // The next frame is intact.
        match read_frame(&mut r, &mut buf).expect("read") {
            Frame::Line(l) => assert_eq!(l, "{\"x\":1}"),
            _ => panic!("expected line"),
        }
    }
}
