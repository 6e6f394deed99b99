//! Spans recorded from the benchmark's own files, around the public calls
//! into each layer.
//!
//! A span has a name, a start, an end, the span that caused it (its parent)
//! and the id of the work item it belongs to (program, seed or request).
//! Spans are kept in memory on the calling thread and written out when the
//! benchmark ends, as JSON-lines plus folded stacks. Only traced runs open
//! spans; the end-to-end run never calls into this module.
//!
//! Besides its duration every span carries the deltas of the deterministic
//! counters that per-layer ratios need (interpreter steps, simulation steps,
//! absint solver iterations), read at the same boundary.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Counter deltas a span carries, inclusive of its children.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanCounters {
    pub steps: u64,
    pub sim_steps: u64,
    pub value_iters: u64,
    pub needed_iters: u64,
}

impl SpanCounters {
    fn now() -> SpanCounters {
        let lts = compcerto_core::obs::counters();
        SpanCounters {
            steps: lts.steps,
            sim_steps: lts.sim_steps,
            value_iters: compcerto_validate::value_solver_iterations(),
            needed_iters: compcerto_validate::needed_solver_iterations(),
        }
    }

    fn since(&self, earlier: &SpanCounters) -> SpanCounters {
        SpanCounters {
            steps: self.steps.saturating_sub(earlier.steps),
            sim_steps: self.sim_steps.saturating_sub(earlier.sim_steps),
            value_iters: self.value_iters.saturating_sub(earlier.value_iters),
            needed_iters: self.needed_iters.saturating_sub(earlier.needed_iters),
        }
    }
}

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub item: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Summed duration of the direct children.
    pub child_ns: u64,
    pub counters: SpanCounters,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration minus the part covered by child spans.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

struct Tracer {
    epoch: Instant,
    item: u64,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    open: Vec<(usize, SpanCounters)>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        item: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Set the work-item id that newly opened spans carry.
pub fn set_item(item: u64) {
    TRACER.with(|t| t.borrow_mut().item = item);
}

/// Run `f` inside a span called `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let parent = t.open.last().map(|(i, _)| *i);
        let idx = t.spans.len();
        let item = t.item;
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            item,
            parent,
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
            counters: SpanCounters::default(),
        });
        t.open.push((idx, SpanCounters::now()));
    });
    let r = f();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let (idx, c0) = t.open.pop().expect("span stack underflow");
        let end_ns = t.epoch.elapsed().as_nanos() as u64;
        let s = &mut t.spans[idx];
        s.end_ns = end_ns;
        s.counters = SpanCounters::now().since(&c0);
        let (dur, parent) = (s.dur_ns(), s.parent);
        if let Some(p) = parent {
            t.spans[p].child_ns += dur;
        }
    });
    r
}

/// Every span closed so far on this thread, in opening order.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    pub self_ns: u64,
    pub dur_ns: u64,
    pub count: u64,
    pub counters: SpanCounters,
}

/// Sum self time, duration and counters by span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut m: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for s in spans {
        let l = m.entry(s.name).or_default();
        l.self_ns += s.self_ns();
        l.dur_ns += s.dur_ns();
        l.count += 1;
        l.counters.steps += s.counters.steps;
        l.counters.sim_steps += s.counters.sim_steps;
        l.counters.value_iters += s.counters.value_iters;
        l.counters.needed_iters += s.counters.needed_iters;
    }
    m
}

/// Summed duration of the root spans (those without a parent).
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum()
}

/// Render the spans as JSON-lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"item\":{},\"parent\":{parent},\"start_us\":{:.3},\
             \"end_us\":{:.3},\"self_us\":{:.3},\"steps\":{},\"sim_steps\":{},\
             \"value_iters\":{},\"needed_iters\":{}}}",
            s.name,
            s.item,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3,
            s.self_ns() as f64 / 1e3,
            s.counters.steps,
            s.counters.sim_steps,
            s.counters.value_iters,
            s.counters.needed_iters,
        );
    }
    out
}

/// Render the spans as folded stacks (`root;child;leaf self_us`), summed by
/// stack path, in the format flame-graph tools read.
pub fn to_folded(spans: &[Span]) -> String {
    let mut paths: Vec<String> = Vec::with_capacity(spans.len());
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let path = match s.parent {
            Some(p) => format!("{};{}", paths[p], s.name),
            None => s.name.to_string(),
        };
        *folded.entry(path.clone()).or_insert(0) += s.self_ns() / 1000;
        paths.push(path);
    }
    let mut out = String::new();
    for (path, us) in folded {
        let _ = writeln!(out, "{path} {us}");
    }
    out
}
