//! The seeded generator: `seed → GProgram`, a pure function.
//!
//! Programs are well-defined by construction (see the [`crate::program`]
//! module docs), span up to [`GenCfg::units`] translation units, and build a
//! DAG call graph: a function may only call functions generated *before* it
//! (in any earlier unit or earlier in its own unit), so recursion is
//! impossible and every execution terminates within a small fuel budget.
//!
//! The designated entry point is the last function of the last unit; its
//! arity drives query generation ([`gen_queries`]).

use compcerto_core::rng::SplitMix64;

use crate::program::{GExpr, GFn, GProgram, GStmt, GUnit};

/// Maximum parameters per function: more than 4 spill onto the stack under
/// the ABI, which is exactly the point.
const MAX_PARAMS: u64 = 6;
/// `int` locals per function.
const NLOCALS: u32 = 3;
/// Maximum expression depth.
const EXPR_DEPTH: u32 = 2;

/// Shape parameters for generated programs. Every program emits outgoing
/// questions (`inc`, `sum2`) to the environment, and unit 0 defines and
/// uses the globals `acc` / `buf` / `lim`.
#[derive(Debug, Clone)]
pub struct GenCfg {
    /// Translation units per program (`1..=4`; unit 0 owns the globals).
    pub units: usize,
    /// Functions per unit (`>= 1`).
    pub fns_per_unit: usize,
    /// Top-level statements per function body.
    pub stmts_per_fn: usize,
    /// Let external calls render as the scheduler's `yield` (a coin per
    /// `ExtCall` site). Off by default — and when off the generator draws
    /// nothing extra, so default-config programs are byte-identical to
    /// pre-yield releases (the committed campaign baselines depend on it).
    pub yield_calls: bool,
}

impl Default for GenCfg {
    fn default() -> Self {
        GenCfg {
            units: 2,
            fns_per_unit: 2,
            stmts_per_fn: 5,
            yield_calls: false,
        }
    }
}

impl GenCfg {
    /// A smaller profile for high-volume campaigns.
    pub fn quick() -> GenCfg {
        GenCfg {
            units: 2,
            fns_per_unit: 2,
            stmts_per_fn: 4,
            ..GenCfg::default()
        }
    }

    /// One unit of three functions of eight statements, for the sweeps that
    /// compile and query each program as a single translation unit (the
    /// Fig. 6, Thm 3.8 and ablation drivers and the validation gate).
    pub fn single_unit() -> GenCfg {
        GenCfg {
            units: 1,
            fns_per_unit: 3,
            stmts_per_fn: 8,
            ..GenCfg::default()
        }
    }
}

/// Context for statement generation within one function.
struct FnCtx<'a> {
    nparams: u32,
    /// Functions callable from here: `(name, arity)`, DAG order.
    callees: &'a [(String, u32)],
    /// Whether memory statements are allowed (unit 0 only).
    memory: bool,
    /// Whether `ExtCall` sites may flip to `yield` (see [`GenCfg::yield_calls`]).
    yield_calls: bool,
    /// Next loop-counter index to allocate.
    next_counter: u32,
}

/// Generate a program from a seed. Equal seeds give equal programs on every
/// platform — the program is a pure function of `(seed, cfg)`.
pub fn generate(seed: u64, cfg: &GenCfg) -> GProgram {
    let mut rng = SplitMix64::new(seed ^ 0x6466_7465_7374_2101); // domain-separate from other seed users
    let nunits = cfg.units.clamp(1, 4);
    let mut units = Vec::with_capacity(nunits);
    let mut defined: Vec<(String, u32)> = Vec::new();
    for u in 0..nunits {
        let uses_memory = u == 0;
        let mut funcs = Vec::with_capacity(cfg.fns_per_unit);
        for i in 0..cfg.fns_per_unit.max(1) {
            let name = format!("u{u}f{i}");
            let nparams = 1 + rng.below(MAX_PARAMS) as u32;
            let f = gen_fn(&mut rng, name.clone(), nparams, uses_memory, cfg, &defined);
            defined.push((name, nparams));
            funcs.push(f);
        }
        units.push(GUnit { uses_memory, funcs });
    }
    let p = GProgram { seed, units };
    debug_assert!(p.check_invariants().is_ok());
    p
}

fn gen_fn(
    rng: &mut SplitMix64,
    name: String,
    nparams: u32,
    memory: bool,
    cfg: &GenCfg,
    defined: &[(String, u32)],
) -> GFn {
    let mut cx = FnCtx {
        nparams,
        callees: defined,
        memory,
        yield_calls: cfg.yield_calls,
        next_counter: 0,
    };
    let mut stmts = Vec::with_capacity(cfg.stmts_per_fn);
    for _ in 0..cfg.stmts_per_fn {
        stmts.push(gen_stmt(rng, &mut cx, EXPR_DEPTH, 0));
    }
    let ret = gen_expr(rng, &cx, EXPR_DEPTH);
    GFn {
        name,
        nparams,
        nlocals: NLOCALS,
        stmts,
        ret,
    }
}

/// Generate one statement. `nesting` bounds compound-statement depth so
/// loop trip counts stay small (≤ 8 × 8 iterations when nested twice).
fn gen_stmt(rng: &mut SplitMix64, cx: &mut FnCtx<'_>, depth: u32, nesting: u32) -> GStmt {
    let v = rng.below(u64::from(NLOCALS)) as u32;
    match rng.below(12) {
        0..=2 => GStmt::Assign {
            v,
            e: gen_expr(rng, cx, depth),
        },
        3 if nesting < 2 => {
            let c = gen_expr(rng, cx, depth.saturating_sub(1));
            let nt = 1 + rng.below(2) as usize;
            let ne = rng.below(2) as usize;
            let then_s = (0..nt)
                .map(|_| gen_stmt(rng, cx, depth.saturating_sub(1), nesting + 1))
                .collect();
            let else_s = (0..ne)
                .map(|_| gen_stmt(rng, cx, depth.saturating_sub(1), nesting + 1))
                .collect();
            GStmt::IfElse { c, then_s, else_s }
        }
        4 if nesting < 2 => {
            let counter = cx.next_counter;
            cx.next_counter += 1;
            let n = 1 + rng.range_i64(0, 8);
            let nb = 1 + rng.below(2) as usize;
            let body = (0..nb)
                .map(|_| gen_stmt(rng, cx, depth.saturating_sub(1), nesting + 1))
                .collect();
            GStmt::Loop { counter, n, body }
        }
        5 if cx.memory => GStmt::BufStore {
            idx: gen_expr(rng, cx, 1),
            e: gen_expr(rng, cx, depth),
            v,
        },
        6 if cx.memory => GStmt::AccAdd {
            v,
            e: gen_expr(rng, cx, depth.saturating_sub(1)),
        },
        7 | 8 if !cx.callees.is_empty() => {
            let pick = rng.below(cx.callees.len() as u64) as usize;
            let (callee, k) = &cx.callees[pick];
            let args = (0..*k).map(|_| gen_expr(rng, cx, 1)).collect();
            GStmt::Call {
                v,
                callee: callee.clone(),
                args,
            }
        }
        9 => {
            let e = gen_expr(rng, cx, 1);
            // Short-circuit keeps the rng stream untouched when the knob is
            // off, so default-config programs match pre-yield releases.
            let yld = cx.yield_calls && rng.coin();
            GStmt::ExtCall { v, e, yld }
        }
        10 => GStmt::ExtPtrCall {
            v,
            a: gen_expr(rng, cx, 1),
            b: gen_expr(rng, cx, 1),
        },
        _ => {
            // Fallback: a mixing assignment.
            let e = gen_expr(rng, cx, depth);
            GStmt::Assign {
                v,
                e: GExpr::Xor(Box::new(e), Box::new(GExpr::Local(v))),
            }
        }
    }
}

fn gen_expr(rng: &mut SplitMix64, cx: &FnCtx<'_>, depth: u32) -> GExpr {
    if depth == 0 {
        return match rng.below(3) {
            0 => GExpr::Param(rng.below(u64::from(cx.nparams)) as u32),
            1 => GExpr::Local(rng.below(u64::from(NLOCALS)) as u32),
            _ => GExpr::Const(rng.range_i32(-20, 40)),
        };
    }
    let a = Box::new(gen_expr(rng, cx, depth - 1));
    match rng.below(10) {
        0 => GExpr::Add(a, Box::new(gen_expr(rng, cx, depth - 1))),
        1 => GExpr::Sub(a, Box::new(gen_expr(rng, cx, depth - 1))),
        2 => GExpr::Mul(a, Box::new(gen_expr(rng, cx, depth - 1))),
        3 => GExpr::And(a, Box::new(gen_expr(rng, cx, depth - 1))),
        4 => GExpr::Xor(a, Box::new(gen_expr(rng, cx, depth - 1))),
        5 => GExpr::DivC(a, 1 + rng.range_i64(0, 8)),
        6 => GExpr::ModC(a, 1 + rng.range_i64(0, 8)),
        7 => GExpr::ShlC(a, rng.range_i64(0, 6)),
        8 => GExpr::ShrC(a, rng.range_i64(0, 6)),
        _ => GExpr::LtPlus(a, Box::new(gen_expr(rng, cx, depth - 1))),
    }
}

/// Generate `n` query argument vectors of `arity` small ints for the entry
/// point of the program with this seed. A distinct rng domain keeps queries
/// independent of program structure draws.
pub fn gen_queries(seed: u64, arity: usize, n: usize) -> Vec<Vec<i32>> {
    let mut rng = SplitMix64::new(seed ^ 0x7175_6572_7969_6e67);
    (0..n)
        .map(|_| (0..arity).map(|_| rng.range_i32(-50, 100)).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let cfg = GenCfg::default();
        for seed in [0u64, 1, 42, 0xdead_beef] {
            assert_eq!(generate(seed, &cfg), generate(seed, &cfg));
            assert_eq!(gen_queries(seed, 4, 3), gen_queries(seed, 4, 3));
        }
    }

    #[test]
    fn seeds_differ() {
        let cfg = GenCfg::default();
        assert_ne!(generate(1, &cfg), generate(2, &cfg));
    }

    #[test]
    fn invariants_hold_over_a_sweep() {
        let cfg = GenCfg::default();
        for seed in 0..200u64 {
            let p = generate(seed, &cfg);
            p.check_invariants()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(p.units.len(), cfg.units);
            // Entry is the last function of the last unit.
            let (u, f) = p.entry();
            assert_eq!(u, p.units.len() - 1);
            assert!(f.name.starts_with(&format!("u{u}f")));
        }
    }

    #[test]
    fn memory_statements_confined_to_unit_zero() {
        let cfg = GenCfg {
            units: 3,
            ..GenCfg::default()
        };
        for seed in 0..50u64 {
            let p = generate(seed, &cfg);
            for (i, unit) in p.units.iter().enumerate() {
                assert_eq!(unit.uses_memory, i == 0, "seed {seed}");
            }
            let srcs = p.render();
            for (i, s) in srcs.iter().enumerate().skip(1) {
                assert!(!s.contains("acc"), "seed {seed} unit {i}:\n{s}");
                assert!(!s.contains("buf["), "seed {seed} unit {i}:\n{s}");
            }
        }
    }

    #[test]
    fn yield_knob_gates_yield_sites_and_decls() {
        let base = GenCfg::default();
        let ycfg = GenCfg {
            yield_calls: true,
            ..GenCfg::default()
        };
        let mut saw_yield = false;
        for seed in 0..50u64 {
            // Off (the default): no yield anywhere — committed baselines
            // depend on default-config programs staying untouched.
            for s in generate(seed, &base).render() {
                assert!(!s.contains("yield"), "seed {seed}:\n{s}");
            }
            let p = generate(seed, &ycfg);
            p.check_invariants()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            for s in p.render() {
                if s.contains("= yield(") {
                    saw_yield = true;
                    assert!(s.contains("extern int yield(int);"), "seed {seed}:\n{s}");
                }
                if s.contains("= inc(") {
                    assert!(s.contains("extern int inc(int);"), "seed {seed}:\n{s}");
                }
            }
        }
        assert!(
            saw_yield,
            "50 seeds with yield_calls on produced no yield site"
        );
    }

    #[test]
    fn queries_in_declared_range() {
        for q in gen_queries(9, 6, 50) {
            assert_eq!(q.len(), 6);
            for a in q {
                assert!((-50..100).contains(&a));
            }
        }
    }
}
