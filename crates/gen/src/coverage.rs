//! Grammar-coverage accounting for generated programs (observability
//! layer, DESIGN.md §10).
//!
//! The differential-testing campaign claims its seed block "exercises the
//! grammar" — this module makes that claim checkable. [`Coverage`] counts,
//! per statement and expression *constructor*, how many times each appears
//! in a program; [`Coverage::missing`] names the constructors a seed block
//! never reached (sorted, so drift reports are stable). The coverage of a
//! program is a pure function of the program, and merging per-seed
//! coverages in seed order is commutative counting — so campaign coverage
//! tables are byte-deterministic and jobs-invariant like every other
//! counter in the layer.

use std::collections::BTreeMap;

use crate::program::{GExpr, GProgram, GStmt};

/// Every [`GStmt`] constructor, in declaration order.
pub const STMT_CONSTRUCTORS: [&str; 8] = [
    "Assign",
    "IfElse",
    "Loop",
    "BufStore",
    "AccAdd",
    "Call",
    "ExtCall",
    "ExtPtrCall",
];

/// Every [`GExpr`] constructor, in declaration order.
pub const EXPR_CONSTRUCTORS: [&str; 13] = [
    "Param", "Local", "Const", "Add", "Sub", "Mul", "And", "Xor", "DivC", "ModC", "ShlC", "ShrC",
    "LtPlus",
];

fn stmt_name(s: &GStmt) -> &'static str {
    match s {
        GStmt::Assign { .. } => "Assign",
        GStmt::IfElse { .. } => "IfElse",
        GStmt::Loop { .. } => "Loop",
        GStmt::BufStore { .. } => "BufStore",
        GStmt::AccAdd { .. } => "AccAdd",
        GStmt::Call { .. } => "Call",
        GStmt::ExtCall { .. } => "ExtCall",
        GStmt::ExtPtrCall { .. } => "ExtPtrCall",
    }
}

fn expr_name(e: &GExpr) -> &'static str {
    match e {
        GExpr::Param(_) => "Param",
        GExpr::Local(_) => "Local",
        GExpr::Const(_) => "Const",
        GExpr::Add(_, _) => "Add",
        GExpr::Sub(_, _) => "Sub",
        GExpr::Mul(_, _) => "Mul",
        GExpr::And(_, _) => "And",
        GExpr::Xor(_, _) => "Xor",
        GExpr::DivC(_, _) => "DivC",
        GExpr::ModC(_, _) => "ModC",
        GExpr::ShlC(_, _) => "ShlC",
        GExpr::ShrC(_, _) => "ShrC",
        GExpr::LtPlus(_, _) => "LtPlus",
    }
}

/// Per-constructor occurrence counts for the statement and expression
/// grammars. Keys are exactly [`STMT_CONSTRUCTORS`] / [`EXPR_CONSTRUCTORS`]
/// (zero entries included — the key set is stable by construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    /// Statement-constructor counts.
    pub stmts: BTreeMap<&'static str, u64>,
    /// Expression-constructor counts.
    pub exprs: BTreeMap<&'static str, u64>,
}

impl Default for Coverage {
    fn default() -> Coverage {
        Coverage {
            stmts: STMT_CONSTRUCTORS.iter().map(|n| (*n, 0)).collect(),
            exprs: EXPR_CONSTRUCTORS.iter().map(|n| (*n, 0)).collect(),
        }
    }
}

impl Coverage {
    /// Coverage of one generated program.
    #[must_use]
    pub fn of_program(p: &GProgram) -> Coverage {
        let mut c = Coverage::default();
        for unit in &p.units {
            for f in &unit.funcs {
                for s in &f.stmts {
                    c.record_stmt(s);
                }
                f.ret.for_each(&mut |sub| {
                    *c.exprs.entry(expr_name(sub)).or_insert(0) += 1;
                });
            }
        }
        c
    }

    fn record_stmt(&mut self, s: &GStmt) {
        *self.stmts.entry(stmt_name(s)).or_insert(0) += 1;
        let mut record_expr = |e: &GExpr| {
            e.for_each(&mut |sub| {
                *self.exprs.entry(expr_name(sub)).or_insert(0) += 1;
            });
        };
        match s {
            GStmt::Assign { e, .. } | GStmt::AccAdd { e, .. } | GStmt::ExtCall { e, .. } => {
                record_expr(e);
            }
            GStmt::BufStore { idx, e, .. } => {
                record_expr(idx);
                record_expr(e);
            }
            GStmt::ExtPtrCall { a, b, .. } => {
                record_expr(a);
                record_expr(b);
            }
            GStmt::Call { args, .. } => {
                for a in args {
                    record_expr(a);
                }
            }
            GStmt::IfElse { c, then_s, else_s } => {
                record_expr(c);
                for t in then_s {
                    self.record_stmt(t);
                }
                for t in else_s {
                    self.record_stmt(t);
                }
            }
            GStmt::Loop { body, .. } => {
                for t in body {
                    self.record_stmt(t);
                }
            }
        }
    }

    /// Pointwise sum (commutative: seed-block coverage is order- and
    /// jobs-invariant).
    pub fn merge(&mut self, other: &Coverage) {
        for (k, v) in &other.stmts {
            *self.stmts.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.exprs {
            *self.exprs.entry(k).or_insert(0) += v;
        }
    }

    /// The constructors never reached, sorted, each tagged with its
    /// grammar (`stmt:IfElse`, `expr:ShrC`). An empty vector means 100%
    /// constructor coverage.
    #[must_use]
    pub fn missing(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .stmts
            .iter()
            .filter(|(_, v)| **v == 0)
            .map(|(k, _)| format!("stmt:{k}"))
            .chain(
                self.exprs
                    .iter()
                    .filter(|(_, v)| **v == 0)
                    .map(|(k, _)| format!("expr:{k}")),
            )
            .collect();
        out.sort();
        out
    }

    /// True when every statement and expression constructor was reached.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.missing().is_empty()
    }

    /// Render as two JSON objects `"gen_stmts": {...}, "gen_exprs": {...}`
    /// worth of flat counter entries with a `gen.` prefix — the shape the
    /// campaign reports fold into their deterministic counter bags.
    #[must_use]
    pub fn counter_entries(&self) -> Vec<(String, u64)> {
        self.stmts
            .iter()
            .map(|(k, v)| (format!("gen.stmt.{k}"), *v))
            .chain(
                self.exprs
                    .iter()
                    .map(|(k, v)| (format!("gen.expr.{k}"), *v)),
            )
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GenCfg};

    #[test]
    fn empty_coverage_reports_all_constructors_missing() {
        let c = Coverage::default();
        assert!(!c.complete());
        assert_eq!(
            c.missing().len(),
            STMT_CONSTRUCTORS.len() + EXPR_CONSTRUCTORS.len()
        );
        // Sorted output: exprs before stmts lexicographically.
        let m = c.missing();
        assert!(m[0].starts_with("expr:"));
        assert!(m.last().map(String::as_str) == Some("stmt:Loop") || m.last().is_some());
    }

    #[test]
    fn single_seed_coverage_is_deterministic_and_merge_commutes() {
        let cfg = GenCfg::default();
        let p1 = generate(7, &cfg);
        let p2 = generate(7, &cfg);
        assert_eq!(Coverage::of_program(&p1), Coverage::of_program(&p2));
        let q = generate(8, &cfg);
        let mut ab = Coverage::of_program(&p1);
        ab.merge(&Coverage::of_program(&q));
        let mut ba = Coverage::of_program(&q);
        ba.merge(&Coverage::of_program(&p1));
        assert_eq!(ab, ba);
    }

    #[test]
    fn nested_statements_and_exprs_are_counted() {
        use crate::program::GExpr as E;
        use crate::program::GStmt as S;
        let s = S::IfElse {
            c: E::LtPlus(Box::new(E::Param(0)), Box::new(E::Const(3))),
            then_s: vec![S::Assign {
                v: 0,
                e: E::ShrC(Box::new(E::Local(0)), 2),
            }],
            else_s: vec![],
        };
        let mut c = Coverage::default();
        c.record_stmt(&s);
        assert_eq!(c.stmts["IfElse"], 1);
        assert_eq!(c.stmts["Assign"], 1);
        assert_eq!(c.exprs["LtPlus"], 1);
        assert_eq!(c.exprs["Param"], 1);
        assert_eq!(c.exprs["Const"], 1);
        assert_eq!(c.exprs["ShrC"], 1);
        assert_eq!(c.exprs["Local"], 1);
    }
}
