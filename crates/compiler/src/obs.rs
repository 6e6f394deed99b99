//! The cross-cutting observability layer (DESIGN.md §10, schema
//! `compcerto-obs/1`).
//!
//! Two strictly separated artifact families:
//!
//! * **Deterministic counters** ([`Counters`], [`ObsSnapshot`]) — pure
//!   functions of the work performed: IR sizes per pipeline stage
//!   ([`ir_counters`]) and the workspace's one thread-local counter table,
//!   [`mem::obs`]: LTS run/step/outcome tallies (`lts.*`), memory-model
//!   operation counts (`mem.*`) and worklist-solver pops (`solver.*`).
//!   Counters are *seed- and jobs-invariant by construction*: each work
//!   item (translation unit, campaign seed, fault-injection probe) runs
//!   entirely on one worker thread, deltas are captured around the item on
//!   that thread, and `u64` sums commute — so the per-item deltas and their
//!   input-order sum are byte-identical across `--jobs 1/4/16`. CI gates
//!   on them.
//! * **Wall-clock timings** ([`UnitMetrics::pass_ms`],
//!   [`MetricsReport::timings`]) and parallel-pool occupancy
//!   ([`crate::par::pool_stats`]) — reported for humans and never gated:
//!   no committed baseline carries them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub use compcerto_core::obs::OBS_SCHEMA;

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Map a counter name back to its interned `&'static str` key (used when
/// resuming a campaign from a checkpoint): one of [`mem::obs::KEYS`], the
/// keys [`ObsSnapshot::delta`] emits.
#[must_use]
pub fn intern_counter_key(name: &str) -> Option<&'static str> {
    mem::obs::KEYS.iter().copied().find(|k| *k == name)
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

/// A point-in-time copy of this thread's counter table ([`mem::obs`]).
/// Take one before a work item and call [`ObsSnapshot::delta`] after: the
/// result is the item's own effort, independent of whatever ran earlier on
/// this thread.
#[derive(Debug, Clone, Copy)]
pub struct ObsSnapshot(mem::obs::CounterTable);

impl ObsSnapshot {
    /// Snapshot this thread's counters now.
    #[must_use]
    pub fn take() -> ObsSnapshot {
        ObsSnapshot(mem::obs::counters())
    }

    /// The raw counter delta on this thread since the snapshot, to hand to
    /// [`ObsSnapshot::absorb`] on another thread.
    #[must_use]
    pub fn since(&self) -> ObsSnapshot {
        ObsSnapshot(mem::obs::counters().since(&self.0))
    }

    /// Add a [`ObsSnapshot::since`] delta taken on another thread to this
    /// thread's counters. The worker pool ([`crate::par`]) folds every
    /// worker's delta into its caller at join, so a caller's snapshot sees
    /// the work it farmed out, whatever the pool width.
    pub fn absorb(&self) {
        mem::obs::absorb(&self.0);
    }

    /// The work performed on this thread since the snapshot, as a full
    /// [`Counters`] bag (every key present, zeros included — a stable key
    /// set is what makes reports byte-comparable).
    #[must_use]
    pub fn delta(&self) -> Counters {
        Counters(self.since().0.entries().into_iter().collect())
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

    /// The `compcerto-obs/1` JSON document of `ccomp-o --metrics-json`.
    /// Deterministic sections (`schema`, `kind`, `items`, `counters`) come
    /// first; the volatile `pool` and `timings_ms` objects come last.
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
