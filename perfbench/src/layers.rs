//! The metric tables and the per-layer breakdown of a traced run.
//!
//! Layer names are the repository's modules. A layer's time is the summed
//! self time of its spans; each time is paired with the deterministic count
//! of the work it did, so ratios are measured where the work happens.

use std::collections::BTreeMap;

use compiler::Counters;

use crate::trace::{self, Layer, Span};

/// `(name, unit, better)` of every end-to-end metric, printed on every
/// workload with tracing off.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("throughput_per_s", "1/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// The pass spans, in pipeline order (`cleanup_labels` includes
/// `debugvar`, as in `compiler::driver`).
pub const PASSES: [&str; 19] = [
    "simpl_locals",
    "cshmgen",
    "cminorgen",
    "selection",
    "rtlgen",
    "tailcall",
    "inlining",
    "renumber",
    "constprop",
    "cse",
    "deadcode",
    "vprop",
    "ndce",
    "allocation",
    "tunneling",
    "linearize",
    "cleanup_labels",
    "stacking",
    "asmgen",
];

pub const VALIDATORS: [&str; 6] = [
    "constprop",
    "deadcode",
    "allocation",
    "linearize",
    "asmgen",
    "lint",
];

const IR: [&str; 9] = [
    "ir.rtl_nodes",
    "ir.rtl_opt_nodes",
    "ir.ltl_nodes",
    "ir.linear_instrs",
    "ir.mach_instrs",
    "ir.asm_instrs",
    "ir.vprop_rewrites",
    "ir.ndce_eliminated",
    "ir.diagnostics",
];

const MEM: [&str; 7] = [
    "mem.loads",
    "mem.stores",
    "mem.allocs",
    "mem.alloc_bytes",
    "mem.frees",
    "mem.promotes",
    "mem.demotes",
];

/// Everything a traced run measured besides its spans.
#[derive(Debug, Default)]
pub struct LayerInput {
    /// Summed `ObsSnapshot` deltas of the traced ops.
    pub counters: Counters,
    /// Summed per-unit counters of every traced compile (the `ir.*` keys
    /// are read from here).
    pub ir: Counters,
    /// Items the worker pool dispatched during the untraced end-to-end
    /// calls.
    pub par_items: u64,
    /// Summed wall of the untraced end-to-end calls (`Jobs::Auto`).
    pub e2e_ms: f64,
    /// Summed wall of the same work untraced at jobs 1 (the baseline
    /// `trace_overhead` is relative to).
    pub untraced_ms: f64,
    /// Compile-server tallies (serve workloads only).
    pub serve: Option<ServeTally>,
}

#[derive(Debug, Default)]
pub struct ServeTally {
    pub hits: u64,
    pub misses: u64,
    pub evicts: u64,
    pub cache_bytes: u64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `(name, unit, better)` of every per-layer metric, in report order.
pub fn per_layer_table() -> Vec<(String, &'static str, &'static str)> {
    let mut t: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |n: String, u: &'static str, b: &'static str| t.push((n, u, b));
    for l in ["parse", "typecheck", "link"] {
        add(format!("clight.{l}_ms"), "ms", "lower");
    }
    add("clight.bytes".into(), "bytes", "lower");
    add("clight.ns_per_byte".into(), "ns", "lower");
    for p in PASSES {
        add(format!("pass.{p}_ms"), "ms", "lower");
    }
    for k in IR {
        let better = if k.ends_with("rewrites") || k.ends_with("eliminated") {
            "higher"
        } else {
            "lower"
        };
        add(k.to_string(), "count", better);
    }
    add("solver.rtl_iterations".into(), "count", "lower");
    add("absint.value_ms".into(), "ms", "lower");
    add("absint.needed_ms".into(), "ms", "lower");
    add("solver.value.iters".into(), "count", "lower");
    add("solver.needed.iters".into(), "count", "lower");
    add("absint.ns_per_iter".into(), "ns", "lower");
    for v in VALIDATORS {
        add(format!("validate.{v}_ms"), "ms", "lower");
    }
    add("solver.validate_iterations".into(), "count", "lower");
    add("par.items".into(), "count", "higher");
    add("par.busiest_worker_items".into(), "count", "lower");
    add("par.efficiency".into(), "ratio", "higher");
    for s in compiler::STAGES {
        add(format!("interp.{s}_ms"), "ms", "lower");
        add(format!("interp.{s}.steps"), "count", "lower");
        add(format!("interp.{s}.ns_per_step"), "ns", "lower");
    }
    add("sched.query_ms".into(), "ms", "lower");
    add("sched.steps".into(), "count", "lower");
    add("sim.thm35_ms".into(), "ms", "lower");
    add("lts.sim_steps".into(), "count", "lower");
    add("difftest.stage_programs_ms".into(), "ms", "lower");
    for m in MEM {
        add(m.to_string(), "count", "lower");
    }
    for s in ["front", "link", "key", "compile", "cache_rest"] {
        add(format!("serve.{s}_ms"), "ms", "lower");
    }
    add("serve.hits".into(), "count", "higher");
    add("serve.misses".into(), "count", "lower");
    add("serve.evicts".into(), "count", "lower");
    add("serve.hit_ratio".into(), "ratio", "higher");
    add("serve.cache_bytes".into(), "bytes", "lower");
    add("gen_ms".into(), "ms", "lower");
    add("traced_wall_ms".into(), "ms", "lower");
    add("unattributed_ms".into(), "ms", "lower");
    add("trace_overhead".into(), "ratio", "lower");
    t
}

/// The per-layer breakdown, keyed by metric name, plus the check that the
/// layer self times and `unattributed_ms` add up to `traced_wall_ms`.
pub fn per_layer(
    spans: &[Span],
    li: &LayerInput,
    jobs: usize,
) -> (BTreeMap<String, f64>, Result<(), String>) {
    let layers = trace::by_name(spans);
    let none = Layer::default();
    let layer = |n: &str| layers.get(n).unwrap_or(&none);
    let self_ms = |n: &str| ms(layer(n).self_ns);
    let mut m: BTreeMap<String, f64> = BTreeMap::new();

    let front_ns = layer("clight.parse").self_ns + layer("clight.typecheck").self_ns;
    let bytes = crate::pipeline::bytes_parsed();
    for l in ["parse", "typecheck", "link"] {
        m.insert(format!("clight.{l}_ms"), self_ms(&format!("clight.{l}")));
    }
    m.insert("clight.bytes".into(), bytes as f64);
    m.insert(
        "clight.ns_per_byte".into(),
        ratio(front_ns as f64, bytes as f64),
    );
    for p in PASSES {
        m.insert(format!("pass.{p}_ms"), self_ms(&format!("pass.{p}")));
    }
    for k in IR {
        m.insert(k.to_string(), li.ir.get(k) as f64);
    }
    m.insert(
        "solver.rtl_iterations".into(),
        li.counters.get("solver.rtl_iterations") as f64,
    );
    let (value, needed) = (layer("absint.value"), layer("absint.needed"));
    m.insert("absint.value_ms".into(), ms(value.self_ns));
    m.insert("absint.needed_ms".into(), ms(needed.self_ns));
    m.insert(
        "solver.value.iters".into(),
        value.counters.value_iters as f64,
    );
    m.insert(
        "solver.needed.iters".into(),
        needed.counters.needed_iters as f64,
    );
    m.insert(
        "absint.ns_per_iter".into(),
        ratio(
            (value.self_ns + needed.self_ns) as f64,
            (value.counters.value_iters + needed.counters.needed_iters) as f64,
        ),
    );
    for v in VALIDATORS {
        m.insert(
            format!("validate.{v}_ms"),
            self_ms(&format!("validate.{v}")),
        );
    }
    m.insert(
        "solver.validate_iterations".into(),
        li.counters.get("solver.validate_iterations") as f64,
    );
    m.insert("par.items".into(), li.par_items as f64);
    m.insert(
        "par.busiest_worker_items".into(),
        compiler::pool_stats().busiest_worker_items as f64,
    );
    let traced_ns = trace::root_ns(spans);
    let ops_ns = layer("op").dur_ns;
    // The serial wall of the end-to-end work: the traced op, except that a
    // served request's parallel compile is swapped for its traced serial
    // recompile (the replays are not part of the request).
    let serial_ms = if layer("serve.request").count > 0 {
        ms(layer("serve.request").dur_ns) - ms(layer("serve.compile").dur_ns)
            + ms(layer("trace.recompile").dur_ns)
    } else {
        ms(ops_ns)
    };
    m.insert(
        "par.efficiency".into(),
        ratio(serial_ms, li.e2e_ms * jobs as f64),
    );
    for s in compiler::STAGES {
        let l = layer(&format!("interp.{s}"));
        m.insert(format!("interp.{s}_ms"), ms(l.self_ns));
        m.insert(format!("interp.{s}.steps"), l.counters.steps as f64);
        m.insert(
            format!("interp.{s}.ns_per_step"),
            ratio(l.self_ns as f64, l.counters.steps as f64),
        );
    }
    m.insert("sched.query_ms".into(), self_ms("sched.query"));
    m.insert(
        "sched.steps".into(),
        layer("sched.query").counters.steps as f64,
    );
    m.insert("sim.thm35_ms".into(), self_ms("sim.thm35"));
    m.insert(
        "lts.sim_steps".into(),
        layer("sim.thm35").counters.sim_steps as f64,
    );
    m.insert(
        "difftest.stage_programs_ms".into(),
        self_ms("difftest.stage_programs"),
    );
    for k in MEM {
        m.insert(k.to_string(), li.counters.get(k) as f64);
    }
    // The replayed public calls of `Server::handle_line`; the rest of the
    // request time is the server's private probe, render and store.
    let replayed: Vec<f64> = ["front", "link", "key", "compile"]
        .iter()
        .map(|s| ms(layer(&format!("serve.{s}")).dur_ns))
        .collect();
    for (s, v) in ["front", "link", "key", "compile"].iter().zip(&replayed) {
        m.insert(format!("serve.{s}_ms"), *v);
    }
    let request = layer("serve.request");
    let rest = if request.count > 0 {
        ms(request.dur_ns) - replayed.iter().sum::<f64>()
    } else {
        0.0
    };
    m.insert("serve.cache_rest_ms".into(), rest);
    let st = li.serve.as_ref();
    let (hits, misses) = (st.map_or(0, |s| s.hits), st.map_or(0, |s| s.misses));
    m.insert("serve.hits".into(), hits as f64);
    m.insert("serve.misses".into(), misses as f64);
    m.insert("serve.evicts".into(), st.map_or(0, |s| s.evicts) as f64);
    m.insert(
        "serve.hit_ratio".into(),
        ratio(hits as f64, (hits + misses) as f64),
    );
    m.insert(
        "serve.cache_bytes".into(),
        st.map_or(0, |s| s.cache_bytes) as f64,
    );

    m.insert("gen_ms".into(), self_ms("gen"));
    let unattributed = layer("op").self_ns;
    m.insert("traced_wall_ms".into(), ms(traced_ns));
    m.insert("unattributed_ms".into(), ms(unattributed));
    m.insert(
        "trace_overhead".into(),
        ratio(ms(ops_ns), li.untraced_ms) - 1.0,
    );

    // Self times partition the root spans: every layer's self time plus the
    // ops' own (unattributed) self time must give back the traced wall.
    let self_sum: u64 = layers.values().map(|l| l.self_ns).sum();
    let sums = if self_sum == traced_ns {
        Ok(())
    } else {
        Err(format!(
            "layer self times sum to {self_sum} ns, traced wall is {traced_ns} ns"
        ))
    };
    (m, sums)
}
