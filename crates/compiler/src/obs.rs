//! The cross-cutting observability layer (DESIGN.md §10, schema
//! `compcerto-obs/1`).
//!
//! Two strictly separated artifact families:
//!
//! * **Deterministic counters** ([`Counters`], [`ObsSnapshot`]) — pure
//!   functions of the work performed: IR sizes per pipeline stage,
//!   worklist-solver pops (`solver.*`, below), memory-model operation
//!   counts, and LTS run/step/outcome tallies. Counters are *seed- and
//!   jobs-invariant by construction*: every underlying counter is
//!   thread-local, each work item (translation unit, campaign seed,
//!   fault-injection probe) runs entirely on one worker thread, deltas are
//!   captured around the item on that thread, and `u64` sums commute — so
//!   the per-item deltas and their input-order sum are byte-identical
//!   across `--jobs 1/4/16`. CI gates on them.
//! * **Wall-clock timings** ([`UnitMetrics::pass_ms`],
//!   [`MetricsReport::timings`]) and parallel-pool occupancy
//!   ([`crate::par::pool_stats`]) — reported for humans, never gated, and
//!   stripped by [`normalize_metrics_json`] before any byte comparison.
//!
//! The four `solver.*` counters live in one table (`rtl::solver_pops`),
//! and each counts the pops of the analyses named here, whoever runs them:
//!
//! * `solver.rtl_iterations`: `rtl::liveness` and `rtl::value_analysis`.
//!   The Constprop, Deadcode and Allocation passes run them, and so does
//!   the allocation validator: `backend::allocation_witness` re-runs the
//!   allocator's liveness and `validate_allocation` runs liveness once
//!   more. A validated compile therefore ticks it more than a default one.
//! * `solver.validate_iterations`: `lint_rtl`'s maybe-uninit analysis only.
//! * `solver.value.iters`: the interval value analysis (`value_facts`), run
//!   for Vprop, by `validate_constprop` and by `--analyze-json`.
//! * `solver.needed.iters`: neededness, run for Ndce, by
//!   `validate_deadcode` and by `--analyze-json`.
//!
//! The JSON report emitted by [`MetricsReport::to_json`] keeps the
//! deterministic `counters` object first and the volatile `pool` /
//! `timings_ms` objects last, so the schema-aware normalizer can remove the
//! volatile tail and compare the rest byte-for-byte.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use compcerto_core::obs::LtsCounters;
use mem::MemCounters;

/// The schema identifier of every metrics report and JSON trace event.
pub const OBS_SCHEMA: &str = "compcerto-obs/1";

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Every counter key [`ObsSnapshot::delta`] emits. The checkpoint reader
/// interns parsed counter names through this table to rebuild a
/// `&'static str`-keyed [`Counters`] bag after a campaign resume.
pub const DELTA_COUNTER_KEYS: [&str; 23] = [
    "lts.runs",
    "lts.steps",
    "lts.sim_steps",
    "lts.external_calls",
    "lts.events",
    "lts.completes",
    "lts.wrongs",
    "lts.env_refused",
    "lts.out_of_fuel",
    "lts.out_of_memory",
    "lts.depth_exceeded",
    "lts.timed_out",
    "mem.allocs",
    "mem.alloc_bytes",
    "mem.frees",
    "mem.loads",
    "mem.stores",
    "mem.demotes",
    "mem.promotes",
    "solver.rtl_iterations",
    "solver.validate_iterations",
    "solver.value.iters",
    "solver.needed.iters",
];

/// Map a counter name back to its interned `&'static str` key (used when
/// resuming a campaign from a checkpoint).
#[must_use]
pub fn intern_counter_key(name: &str) -> Option<&'static str> {
    DELTA_COUNTER_KEYS.iter().copied().find(|k| *k == name)
}

/// An ordered bag of deterministic counters, keyed by the dotted taxonomy
/// of DESIGN.md §10 (`ir.*`, `lts.*`, `mem.*`, `solver.*`, `gen.*`).
/// `BTreeMap` keeps JSON emission order stable by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters(pub BTreeMap<&'static str, u64>);

impl Counters {
    /// Value of `key` (0 when absent).
    #[must_use]
    pub fn get(&self, key: &str) -> u64 {
        self.0.get(key).copied().unwrap_or(0)
    }

    /// Set `key` to `v` (inserting it).
    pub fn set(&mut self, key: &'static str, v: u64) {
        self.0.insert(key, v);
    }

    /// Add `v` to `key` (inserting it at `v` when absent).
    pub fn bump(&mut self, key: &'static str, v: u64) {
        *self.0.entry(key).or_insert(0) += v;
    }

    /// Field-wise sum with `other` (the commutative merge that makes
    /// campaign totals jobs-invariant).
    pub fn add(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            *self.0.entry(k).or_insert(0) += v;
        }
    }

    /// Render as an indented JSON object (keys in `BTreeMap` order).
    #[must_use]
    pub fn to_json_object(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let inner = " ".repeat(indent + 2);
        if self.0.is_empty() {
            return "{}".to_string();
        }
        let mut s = String::from("{\n");
        let mut first = true;
        for (k, v) in &self.0 {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(s, "{inner}\"{k}\": {v}");
        }
        let _ = write!(s, "\n{pad}}}");
        s
    }
}

/// A point-in-time snapshot of every thread-local counter family feeding
/// the observability layer. Take one before a work item and call
/// [`ObsSnapshot::delta`] after: the result is the item's own effort,
/// independent of whatever ran earlier on this thread.
#[derive(Debug, Clone, Copy)]
pub struct ObsSnapshot {
    lts: LtsCounters,
    mem: MemCounters,
    /// `rtl::solver_pops`, in `rtl::SOLVER_COUNTERS` order.
    solver: [u64; 4],
}

impl ObsSnapshot {
    /// Snapshot this thread's counters now.
    #[must_use]
    pub fn take() -> ObsSnapshot {
        ObsSnapshot {
            lts: compcerto_core::obs::counters(),
            mem: mem::obs::counters(),
            solver: rtl::solver_pops(),
        }
    }

    /// The raw counter delta on this thread since the snapshot, to hand to
    /// [`ObsSnapshot::absorb`] on another thread.
    #[must_use]
    pub fn since(&self) -> ObsSnapshot {
        let now = ObsSnapshot::take();
        ObsSnapshot {
            lts: now.lts.since(&self.lts),
            mem: now.mem.since(&self.mem),
            solver: std::array::from_fn(|i| now.solver[i].saturating_sub(self.solver[i])),
        }
    }

    /// Add a [`ObsSnapshot::since`] delta taken on another thread to this
    /// thread's counters. The worker pool ([`crate::par`]) folds every
    /// worker's delta into its caller at join, so a caller's snapshot sees
    /// the work it farmed out, whatever the pool width.
    pub fn absorb(&self) {
        compcerto_core::obs::absorb(&self.lts);
        mem::obs::absorb(&self.mem);
        rtl::absorb_solver_pops(self.solver);
    }

    /// The work performed on this thread since the snapshot, as a full
    /// [`Counters`] bag (every key present, zeros included — a stable key
    /// set is what makes reports byte-comparable).
    #[must_use]
    pub fn delta(&self) -> Counters {
        let d = self.since();
        let (l, m) = (d.lts, d.mem);
        let mut c = Counters::default();
        c.set("lts.runs", l.runs);
        c.set("lts.steps", l.steps);
        c.set("lts.sim_steps", l.sim_steps);
        c.set("lts.external_calls", l.external_calls);
        c.set("lts.events", l.events);
        c.set("lts.completes", l.completes);
        c.set("lts.wrongs", l.wrongs);
        c.set("lts.env_refused", l.env_refused);
        c.set("lts.out_of_fuel", l.out_of_fuel);
        c.set("lts.out_of_memory", l.out_of_memory);
        c.set("lts.depth_exceeded", l.depth_exceeded);
        c.set("lts.timed_out", l.timed_out);
        c.set("mem.allocs", m.allocs);
        c.set("mem.alloc_bytes", m.alloc_bytes);
        c.set("mem.frees", m.frees);
        c.set("mem.loads", m.loads);
        c.set("mem.stores", m.stores);
        c.set("mem.demotes", m.demotes);
        c.set("mem.promotes", m.promotes);
        for (key, pops) in rtl::SOLVER_COUNTERS.into_iter().zip(d.solver) {
            c.set(key, pops);
        }
        c
    }
}

/// Static IR-size counters of one compiled unit: node/instruction counts at
/// each retained pipeline stage (a pure function of the unit).
#[must_use]
pub fn ir_counters(unit: &crate::driver::CompiledUnit) -> Counters {
    let mut c = Counters::default();
    c.set("ir.functions", unit.asm.functions.len() as u64);
    c.set("ir.clight_fns", unit.clight.functions.len() as u64);
    c.set(
        "ir.rtl_nodes",
        unit.rtl.functions.iter().map(|f| f.code.len() as u64).sum(),
    );
    c.set(
        "ir.rtl_opt_nodes",
        unit.rtl_opt
            .functions
            .iter()
            .map(|f| f.code.len() as u64)
            .sum(),
    );
    c.set(
        "ir.ltl_nodes",
        unit.ltl_tunneled
            .functions
            .iter()
            .map(|f| f.code.len() as u64)
            .sum(),
    );
    c.set(
        "ir.linear_instrs",
        unit.linear
            .functions
            .iter()
            .map(|f| f.code.len() as u64)
            .sum(),
    );
    c.set(
        "ir.mach_instrs",
        unit.mach
            .functions
            .iter()
            .map(|f| f.code.len() as u64)
            .sum(),
    );
    c.set(
        "ir.asm_instrs",
        unit.asm.functions.iter().map(|f| f.code.len() as u64).sum(),
    );
    c.set("ir.diagnostics", unit.diagnostics.len() as u64);
    c.set(
        "ir.vprop_rewrites",
        nodes_differing(&unit.rtl_vprop_in, &unit.rtl_ndce_in),
    );
    c.set(
        "ir.ndce_eliminated",
        nodes_differing(&unit.rtl_ndce_in, &unit.rtl_opt),
    );
    c
}

/// Count the nodes an RTL pass rewrote: pairs functions by name and tallies
/// the nodes whose instruction differs between pass input and output (both
/// `Vprop` and `Ndce` preserve the node key set, so this is exactly the
/// rewrite count).
fn nodes_differing(input: &rtl::RtlProgram, output: &rtl::RtlProgram) -> u64 {
    let mut n = 0u64;
    for fi in &input.functions {
        let Some(fo) = output.functions.iter().find(|f| f.name == fi.name) else {
            continue;
        };
        n += fi
            .code
            .iter()
            .filter(|(k, inst)| fo.code.get(k) != Some(inst))
            .count() as u64;
    }
    n
}

// ---------------------------------------------------------------------------
// Per-unit and aggregate metrics
// ---------------------------------------------------------------------------

/// Metrics of a single compiled unit: the deterministic counter delta of
/// its pass pipeline plus (volatile, never gated) per-pass wall-clock
/// spans in pipeline order.
#[derive(Debug, Clone, Default)]
pub struct UnitMetrics {
    /// Deterministic counters (`ObsSnapshot` delta + [`ir_counters`]).
    pub counters: Counters,
    /// Per-pass wall-clock spans `(pass, milliseconds)`, pipeline order.
    pub pass_ms: Vec<(&'static str, f64)>,
}

/// Sum `spans` into `sums` by pass name, in order of first appearance —
/// the one span-summing rule. Each part of a compile (a unit's prefix,
/// each function's back end, each validation) lists its passes in pipeline
/// order, so a unit's sums, and a report's, read in pipeline order too.
pub(crate) fn sum_spans(sums: &mut Vec<(&'static str, f64)>, spans: &[(&'static str, f64)]) {
    for &(name, ms) in spans {
        match sums.iter_mut().find(|(n, _)| *n == name) {
            Some((_, t)) => *t += ms,
            None => sums.push((name, ms)),
        }
    }
}

/// Aggregate metrics report: the JSON/text artifact behind
/// `ccomp-o --metrics`, the campaign runners, and `obs_campaign`.
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// What produced this report (`"compile"`, `"difftest"`, ...).
    pub kind: String,
    /// Number of work items (units, seeds) aggregated.
    pub items: u64,
    /// Sum of the per-item deterministic counters (input order).
    pub counters: Counters,
    /// Per-pass wall-clock totals, pipeline order of first appearance.
    pub timings: Vec<(&'static str, f64)>,
    /// Total wall-clock of the measured region, in milliseconds.
    pub total_ms: f64,
}

impl MetricsReport {
    /// Aggregate the per-unit metrics of a compiled program (units without
    /// metrics — compiled with `metrics: false` — contribute nothing).
    #[must_use]
    pub fn from_units(kind: &str, units: &[crate::driver::CompiledUnit]) -> MetricsReport {
        let mut r = MetricsReport {
            kind: kind.to_string(),
            ..MetricsReport::default()
        };
        for u in units {
            if let Some(m) = &u.metrics {
                r.absorb_unit(m);
            }
        }
        r
    }

    /// Fold one unit's metrics into the aggregate (counters summed,
    /// pass spans summed by name in first-appearance order).
    pub fn absorb_unit(&mut self, m: &UnitMetrics) {
        self.items += 1;
        self.counters.add(&m.counters);
        sum_spans(&mut self.timings, &m.pass_ms);
        for (_, ms) in &m.pass_ms {
            self.total_ms += ms;
        }
    }

    /// Fold a bare counter bag (campaign seeds, probes) into the aggregate.
    pub fn absorb_counters(&mut self, c: &Counters) {
        self.items += 1;
        self.counters.add(c);
    }

    /// The `compcerto-obs/1` JSON document. Deterministic sections
    /// (`schema`, `kind`, `items`, `counters`) come first; the volatile
    /// `pool` and `timings_ms` objects come last so
    /// [`normalize_metrics_json`] can strip them.
    #[must_use]
    pub fn to_json(&self) -> String {
        let pool = crate::par::pool_stats();
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"schema\": \"{OBS_SCHEMA}\",");
        let _ = writeln!(s, "  \"kind\": \"{}\",", self.kind);
        let _ = writeln!(s, "  \"items\": {},", self.items);
        let _ = writeln!(s, "  \"counters\": {},", self.counters.to_json_object(2));
        let _ = writeln!(s, "  \"pool\": {{");
        let _ = writeln!(s, "    \"pools\": {},", pool.pools);
        let _ = writeln!(s, "    \"items\": {},", pool.items);
        let _ = writeln!(s, "    \"workers_max\": {},", pool.workers_max);
        let _ = writeln!(
            s,
            "    \"busiest_worker_items\": {}",
            pool.busiest_worker_items
        );
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"timings_ms\": {{");
        let _ = writeln!(s, "    \"total\": {:.3},", self.total_ms);
        let _ = writeln!(s, "    \"passes\": {{");
        for (i, (name, ms)) in self.timings.iter().enumerate() {
            let comma = if i + 1 < self.timings.len() { "," } else { "" };
            let _ = writeln!(s, "      \"{name}\": {ms:.3}{comma}");
        }
        let _ = writeln!(s, "    }}");
        let _ = writeln!(s, "  }}");
        s.push_str("}\n");
        s
    }

    /// Human-readable table (the `--metrics` text form).
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== metrics ({}) ==", self.kind);
        let _ = writeln!(s, "items: {}", self.items);
        let _ = writeln!(s, "-- counters (deterministic) --");
        for (k, v) in &self.counters.0 {
            let _ = writeln!(s, "  {k:<28} {v}");
        }
        let _ = writeln!(s, "-- timings (wall-clock, not gated) --");
        for (name, ms) in &self.timings {
            let _ = writeln!(s, "  {name:<28} {ms:9.3} ms");
        }
        let _ = writeln!(s, "  {:<28} {:9.3} ms", "total", self.total_ms);
        s
    }
}

// ---------------------------------------------------------------------------
// Schema-aware normalizer
// ---------------------------------------------------------------------------

/// Net brace depth of a line, ignoring braces inside string literals.
fn brace_delta(line: &str) -> i64 {
    let mut depth = 0i64;
    let mut in_str = false;
    let mut escaped = false;
    for ch in line.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match ch {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth
}

/// Normalize a `compcerto-obs/1` metrics JSON document for byte
/// comparison: validate the schema marker, strip the volatile `pool` and
/// `timings_ms` objects (wall-clock and scheduling data, never gated), and
/// repair the trailing comma their removal can leave behind. The result is
/// a pure function of the deterministic counters — two runs (or two
/// `--jobs` settings) must produce byte-identical normalized documents.
///
/// The normalizer is line-based and brace-aware (string literals are
/// respected); it is itself pinned by unit tests below, as required by the
/// determinism test contract.
///
/// # Errors
/// A document without the `compcerto-obs/1` schema marker is rejected.
pub fn normalize_metrics_json(doc: &str) -> Result<String, String> {
    if !doc.contains("\"schema\": \"compcerto-obs/1\"")
        && !doc.contains("\"schema\":\"compcerto-obs/1\"")
    {
        return Err("normalize_metrics_json: missing compcerto-obs/1 schema marker".to_string());
    }
    let mut kept: Vec<&str> = Vec::new();
    let mut skip_depth: Option<i64> = None;
    for line in doc.lines() {
        if let Some(d) = skip_depth.as_mut() {
            *d += brace_delta(line);
            if *d <= 0 {
                skip_depth = None;
            }
            continue;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("\"pool\"") || trimmed.starts_with("\"timings_ms\"") {
            let d = brace_delta(line);
            if d > 0 {
                skip_depth = Some(d);
            }
            continue;
        }
        kept.push(line);
    }
    // Repair a trailing comma left when a stripped member was last in its
    // object: `...,` directly before a `}` / `]` closer.
    let mut out: Vec<String> = Vec::with_capacity(kept.len());
    for (i, line) in kept.iter().enumerate() {
        let next_closes = kept
            .get(i + 1)
            .map(|n| matches!(n.trim_start().chars().next(), Some('}' | ']')))
            .unwrap_or(false);
        if next_closes && line.trim_end().ends_with(',') {
            let t = line.trim_end();
            out.push(t[..t.len() - 1].to_string());
        } else {
            out.push((*line).to_string());
        }
    }
    let mut s = out.join("\n");
    s.push('\n');
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> MetricsReport {
        let mut c = Counters::default();
        c.set("ir.asm_instrs", 10);
        c.set("lts.runs", 2);
        MetricsReport {
            kind: "compile".into(),
            items: 1,
            counters: c,
            timings: vec![("rtlgen", 0.5), ("allocation", 1.25)],
            total_ms: 1.75,
        }
    }

    #[test]
    fn normalizer_strips_pool_and_timings() {
        let json = sample_report().to_json();
        assert!(json.contains("\"pool\""));
        assert!(json.contains("\"timings_ms\""));
        let norm = normalize_metrics_json(&json).expect("valid schema");
        assert!(!norm.contains("pool"));
        assert!(!norm.contains("timings_ms"));
        assert!(!norm.contains("rtlgen"), "pass timings must be stripped");
        assert!(norm.contains("\"counters\""));
        assert!(norm.contains("\"ir.asm_instrs\": 10"));
        assert!(norm.contains("\"schema\": \"compcerto-obs/1\""));
    }

    #[test]
    fn normalizer_output_is_well_formed_and_idempotent() {
        let json = sample_report().to_json();
        let once = normalize_metrics_json(&json).expect("valid");
        // Balanced braces after stripping + comma repair.
        assert_eq!(brace_delta(&once.replace('\n', " ")), 0);
        // No trailing-comma artifacts.
        for (line, next) in once.lines().zip(once.lines().skip(1)) {
            if matches!(next.trim_start().chars().next(), Some('}' | ']')) {
                assert!(
                    !line.trim_end().ends_with(','),
                    "dangling comma before closer: {line:?}"
                );
            }
        }
        let twice = normalize_metrics_json(&once).expect("still has schema");
        assert_eq!(once, twice, "normalization must be idempotent");
    }

    #[test]
    fn normalizer_rejects_foreign_documents() {
        assert!(normalize_metrics_json("{}").is_err());
        assert!(normalize_metrics_json("{\"schema\": \"compcerto-perf/1\"}").is_err());
    }

    #[test]
    fn normalizer_ignores_braces_inside_strings() {
        let doc = "{\n  \"schema\": \"compcerto-obs/1\",\n  \"note\": \"{pool}\",\n  \"pool\": {\n    \"x\": 1\n  }\n}\n";
        let norm = normalize_metrics_json(doc).expect("valid");
        assert!(norm.contains("{pool}"), "string content survives");
        assert!(!norm.contains("\"x\": 1"), "pool object stripped");
    }

    #[test]
    fn counters_merge_is_commutative() {
        let mut a = Counters::default();
        a.set("x", 1);
        a.set("y", 2);
        let mut b = Counters::default();
        b.set("y", 40);
        b.set("z", 5);
        let mut ab = a.clone();
        ab.add(&b);
        let mut ba = b.clone();
        ba.add(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.get("y"), 42);
    }

    #[test]
    fn report_json_has_deterministic_sections_first() {
        let json = sample_report().to_json();
        let c = json.find("\"counters\"").expect("counters section");
        let p = json.find("\"pool\"").expect("pool section");
        let t = json.find("\"timings_ms\"").expect("timings section");
        assert!(c < p && p < t, "volatile sections must come last");
    }
}
