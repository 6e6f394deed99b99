//! Small shared helpers: checksums, quantiles, memory and the run clock.

use std::time::Instant;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a 64 accumulator (the checksum every committed baseline uses).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.add(bytes);
        h.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (`q` in `[0, 1]`).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall-clock milliseconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64() * 1e3, r)
}

/// Wall time of the machine-speed probe on the reference machine, in ms.
pub const PROBE_REF_MS: f64 = 1.0;

/// Seconds between two probes of the machine's speed.
const PROBE_EVERY_S: f64 = 0.05;

/// Seconds around an op within which probes describe its machine speed.
const PROBE_NEAR_S: f64 = 0.5;

/// A fixed amount of allocation-heavy map and sort work that uses none of
/// this repository's code, so no change to the repository can speed it
/// up; its wall time tracks how fast the machine runs right now.
pub fn probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut m: std::collections::BTreeMap<u64, Vec<u64>> = std::collections::BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..12_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        m.entry(x % 1000).or_default().push(i);
    }
    let mut v: Vec<u64> = m.values().map(|v| v.iter().sum()).collect();
    v.sort_unstable();
    std::hint::black_box(v);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The ops of a closed loop (or the set-ups before it) and probes of the
/// machine's speed on one timeline.
///
/// The machine is shared: for tens of seconds at a time its speed can drop
/// by a third, which moves every figure of a run together. Each op's time
/// is therefore scaled by the probe's reference time over the mean probe
/// time within half a second of the op, which removes the slow phases that
/// the probe and the op both feel.
pub struct Timeline {
    t0: Instant,
    last_probe: Option<f64>,
    probes: Vec<(f64, f64)>,
    /// `(start_s, end_s)` of every op.
    ops: Vec<(f64, f64)>,
}

impl Timeline {
    pub fn new() -> Timeline {
        Timeline {
            t0: Instant::now(),
            last_probe: None,
            probes: Vec::new(),
            ops: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Run `f` as one op, probing the machine first when the last probe is
    /// old.
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if self
            .last_probe
            .is_none_or(|t| self.now() - t >= PROBE_EVERY_S)
        {
            let at = self.now();
            self.probes.push((at, probe_ms()));
            self.last_probe = Some(self.now());
        }
        let a = self.now();
        let r = f();
        let b = self.now();
        self.ops.push((a, b));
        r
    }

    /// The probe-scaled time of every op, in op order (ms), and the mean
    /// probe time.
    pub fn scaled(&self) -> (Vec<f64>, f64) {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let ms = self
            .ops
            .iter()
            .map(|&(a, b)| {
                let near: Vec<f64> = self
                    .probes
                    .iter()
                    .filter(|(t, _)| *t >= a - PROBE_NEAR_S && *t <= b + PROBE_NEAR_S)
                    .map(|(_, p)| *p)
                    .collect();
                (b - a) * 1e3 * PROBE_REF_MS / mean(&near)
            })
            .collect();
        let probes: Vec<f64> = self.probes.iter().map(|(_, p)| *p).collect();
        (ms, mean(&probes))
    }
}

/// The order in which a run visits `n` inputs: a permutation drawn from
/// the workload seed.
pub fn order(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = compcerto_core::rng::SplitMix64::new(seed ^ 0x6f72_6465_7221_2121);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.range_usize(0, i + 1));
    }
    v
}

/// The closed-loop measurement window, counted in whole passes over the
/// inputs so that every run does the same work in the same proportions:
/// passes run back to back while the next one is expected to end within
/// the window, and there is always at least one.
pub struct Passes {
    t0: Instant,
    secs: f64,
    last_start: f64,
    done: usize,
    /// Peak RSS at the end of the first pass: set-up plus one pass is the
    /// same work on every run, while later passes only add allocator
    /// fragmentation that differs from run to run.
    pub rss_mb: f64,
}

impl Passes {
    pub fn start(secs: f64) -> Passes {
        Passes {
            t0: Instant::now(),
            secs,
            last_start: 0.0,
            done: 0,
            rss_mb: 0.0,
        }
    }

    /// True when another pass should run.
    pub fn another(&mut self) -> bool {
        if self.done == 1 && self.rss_mb == 0.0 {
            self.rss_mb = peak_rss_mb();
        }
        let now = self.elapsed_s();
        let last = now - self.last_start;
        let go = self.done == 0 || now + last <= self.secs;
        if go {
            self.last_start = now;
            self.done += 1;
        }
        go
    }

    pub fn elapsed_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// The input order of the current pass: the first pass takes the
    /// inputs in their own order, so set-up plus one pass (where `rss_mb`
    /// is read and the checksums are taken) is the same on every run;
    /// later passes take the seeded order.
    pub fn order(&self, seeded: &[usize]) -> Vec<usize> {
        if self.done == 1 {
            (0..seeded.len()).collect()
        } else {
            seeded.to_vec()
        }
    }

    pub fn count(&self) -> usize {
        self.done
    }
}
