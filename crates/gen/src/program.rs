//! Structured program representation and deterministic renderer.
//!
//! The generator and reducer both work on [`GProgram`] values — trees of
//! units, functions, statements and expressions — and only at the very end
//! render them into the Clight-mini surface syntax. Two invariants make
//! every *rendered* program well-defined regardless of what the reducer has
//! deleted:
//!
//! 1. **All locals are zero-initialized** by the renderer before the first
//!    generated statement, so deleting an `Assign` can never expose an
//!    uninitialized read.
//! 2. **Loop counters live in their own namespace** (`c0`, `c1`, …) that no
//!    generated statement can write, so every loop provably terminates with
//!    its constant trip count.
//!
//! Divisions and shifts carry their (checked-range) constants structurally
//! ([`GExpr::DivC`], [`GExpr::ShlC`]), and array stores render with an `& 7`
//! mask, so arithmetic is defined by construction.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A whole multi-unit program, plus the seed that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GProgram {
    /// Seed recorded for reproducer emission (not consulted by rendering).
    pub seed: u64,
    /// Translation units, compiled separately and linked.
    pub units: Vec<GUnit>,
}

/// One translation unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GUnit {
    /// Whether this unit defines (and its functions may touch) the globals
    /// `acc`, `buf` and `lim`. At most one unit per program sets this:
    /// Clight-mini has no `extern` variable declarations, so globals are
    /// only usable from their defining unit.
    pub uses_memory: bool,
    /// Functions, in definition order (callees precede callers program-wide).
    pub funcs: Vec<GFn>,
}

/// One function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GFn {
    /// Unique program-wide name (`u{unit}f{index}` by convention).
    pub name: String,
    /// Number of `int` parameters (`p0..`).
    pub nparams: u32,
    /// Number of `int` locals (`v0..`), all zero-initialized by the renderer.
    pub nlocals: u32,
    /// Body statements.
    pub stmts: Vec<GStmt>,
    /// The `return` expression.
    pub ret: GExpr,
}

/// A statement. Memory statements ([`GStmt::BufStore`], [`GStmt::AccAdd`])
/// are only valid inside the `uses_memory` unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GStmt {
    /// `v{v} = e;`
    Assign { v: u32, e: GExpr },
    /// `if (c > 0) { then_s } else { else_s }`
    IfElse {
        c: GExpr,
        then_s: Vec<GStmt>,
        else_s: Vec<GStmt>,
    },
    /// `c{counter} = 0; while (c{counter} < n) { body; c{counter} += 1; }`
    ///
    /// Counters are never written by generated statements, so the trip
    /// count is exactly `n` (kept in `1..=8` by the generator).
    Loop {
        counter: u32,
        n: i64,
        body: Vec<GStmt>,
    },
    /// `buf[(idx) & 7] = (long)(e); v{v} = (int) buf[(idx) & 7];`
    BufStore { idx: GExpr, e: GExpr, v: u32 },
    /// `acc = acc + (e); v{v} = acc;`
    AccAdd { v: u32, e: GExpr },
    /// `v{v} = callee(args);` — an internal (possibly cross-unit) call.
    Call {
        v: u32,
        callee: String,
        args: Vec<GExpr>,
    },
    /// `v{v} = inc(e);` — an outgoing question to the environment; with
    /// `yld` set it renders as `v{v} = yield(e);`, the semantically inert
    /// external the threaded scheduler uses as an explicit interleaving
    /// point (both forms are the same constructor so grammar coverage and
    /// the committed campaign baselines are unaffected).
    ExtCall { v: u32, e: GExpr, yld: bool },
    /// `w[0] = (long)(a); w[1] = (long)(b); ws = sum2(w); v{v} = (int) ws;`
    ///
    /// Passes a pointer to a stack array across the open boundary — the
    /// hardest calling-convention corner (non-trivial memory injection).
    ExtPtrCall { v: u32, a: GExpr, b: GExpr },
}

/// A well-defined integer expression over `p0..`, `v0..` and literals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GExpr {
    /// Parameter `p{i}`.
    Param(u32),
    /// Local `v{i}`.
    Local(u32),
    /// Literal (kept well inside `i32` range by generator and reducer).
    Const(i32),
    Add(Box<GExpr>, Box<GExpr>),
    Sub(Box<GExpr>, Box<GExpr>),
    Mul(Box<GExpr>, Box<GExpr>),
    And(Box<GExpr>, Box<GExpr>),
    Xor(Box<GExpr>, Box<GExpr>),
    /// Division by a constant in `1..=8` — never by zero.
    DivC(Box<GExpr>, i64),
    /// Remainder by a constant in `1..=8`.
    ModC(Box<GExpr>, i64),
    /// Left shift by a constant in `0..=5` — always below the width.
    ShlC(Box<GExpr>, i64),
    /// Arithmetic right shift by a constant in `0..=5`.
    ShrC(Box<GExpr>, i64),
    /// `((a < b) + a)` — a comparison used as a value.
    LtPlus(Box<GExpr>, Box<GExpr>),
}

impl GExpr {
    /// Render into surface syntax (fully parenthesized).
    pub fn render(&self) -> String {
        match self {
            GExpr::Param(i) => format!("p{i}"),
            GExpr::Local(i) => format!("v{i}"),
            GExpr::Const(k) => {
                if *k < 0 {
                    format!("(- {})", k.unsigned_abs())
                } else {
                    format!("{k}")
                }
            }
            GExpr::Add(a, b) => format!("({} + {})", a.render(), b.render()),
            GExpr::Sub(a, b) => format!("({} - {})", a.render(), b.render()),
            GExpr::Mul(a, b) => format!("({} * {})", a.render(), b.render()),
            GExpr::And(a, b) => format!("({} & {})", a.render(), b.render()),
            GExpr::Xor(a, b) => format!("({} ^ {})", a.render(), b.render()),
            GExpr::DivC(a, k) => format!("({} / {k})", a.render()),
            GExpr::ModC(a, k) => format!("({} % {k})", a.render()),
            GExpr::ShlC(a, k) => format!("({} << {k})", a.render()),
            GExpr::ShrC(a, k) => format!("({} >> {k})", a.render()),
            GExpr::LtPlus(a, b) => {
                format!("(({} < {}) + {})", a.render(), b.render(), a.render())
            }
        }
    }

    /// Visit every sub-expression (including `self`), depth-first.
    pub fn for_each(&self, f: &mut impl FnMut(&GExpr)) {
        f(self);
        match self {
            GExpr::Param(_) | GExpr::Local(_) | GExpr::Const(_) => {}
            GExpr::Add(a, b)
            | GExpr::Sub(a, b)
            | GExpr::Mul(a, b)
            | GExpr::And(a, b)
            | GExpr::Xor(a, b)
            | GExpr::LtPlus(a, b) => {
                a.for_each(f);
                b.for_each(f);
            }
            GExpr::DivC(a, _) | GExpr::ModC(a, _) | GExpr::ShlC(a, _) | GExpr::ShrC(a, _) => {
                a.for_each(f)
            }
        }
    }
}

impl GStmt {
    /// Number of statements in this subtree (compound statements count as 1
    /// plus their bodies). This is the size metric for shrunk reproducers.
    pub fn count(&self) -> usize {
        match self {
            GStmt::IfElse { then_s, else_s, .. } => {
                1 + then_s.iter().map(GStmt::count).sum::<usize>()
                    + else_s.iter().map(GStmt::count).sum::<usize>()
            }
            GStmt::Loop { body, .. } => 1 + body.iter().map(GStmt::count).sum::<usize>(),
            _ => 1,
        }
    }

    fn uses_memory(&self) -> bool {
        match self {
            GStmt::BufStore { .. } | GStmt::AccAdd { .. } => true,
            GStmt::IfElse { then_s, else_s, .. } => {
                then_s.iter().any(GStmt::uses_memory) || else_s.iter().any(GStmt::uses_memory)
            }
            GStmt::Loop { body, .. } => body.iter().any(GStmt::uses_memory),
            _ => false,
        }
    }

    fn uses_scratch(&self) -> bool {
        match self {
            GStmt::ExtPtrCall { .. } => true,
            GStmt::IfElse { then_s, else_s, .. } => {
                then_s.iter().any(GStmt::uses_scratch) || else_s.iter().any(GStmt::uses_scratch)
            }
            GStmt::Loop { body, .. } => body.iter().any(GStmt::uses_scratch),
            _ => false,
        }
    }

    fn uses_inc(&self) -> bool {
        match self {
            GStmt::ExtCall { yld, .. } => !*yld,
            GStmt::IfElse { then_s, else_s, .. } => {
                then_s.iter().any(GStmt::uses_inc) || else_s.iter().any(GStmt::uses_inc)
            }
            GStmt::Loop { body, .. } => body.iter().any(GStmt::uses_inc),
            _ => false,
        }
    }

    fn uses_yield(&self) -> bool {
        match self {
            GStmt::ExtCall { yld, .. } => *yld,
            GStmt::IfElse { then_s, else_s, .. } => {
                then_s.iter().any(GStmt::uses_yield) || else_s.iter().any(GStmt::uses_yield)
            }
            GStmt::Loop { body, .. } => body.iter().any(GStmt::uses_yield),
            _ => false,
        }
    }

    fn max_counter(&self) -> Option<u32> {
        match self {
            GStmt::Loop { counter, body, .. } => Some(
                body.iter()
                    .filter_map(GStmt::max_counter)
                    .max()
                    .map_or(*counter, |m| m.max(*counter)),
            ),
            GStmt::IfElse { then_s, else_s, .. } => then_s
                .iter()
                .chain(else_s.iter())
                .filter_map(GStmt::max_counter)
                .max(),
            _ => None,
        }
    }

    /// Collect the names of internally called functions.
    fn callees(&self, out: &mut Vec<String>) {
        match self {
            GStmt::Call { callee, .. } => out.push(callee.clone()),
            GStmt::IfElse { then_s, else_s, .. } => {
                for s in then_s.iter().chain(else_s.iter()) {
                    s.callees(out);
                }
            }
            GStmt::Loop { body, .. } => {
                for s in body {
                    s.callees(out);
                }
            }
            _ => {}
        }
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            GStmt::Assign { v, e } => {
                let _ = writeln!(out, "{pad}v{v} = {};", e.render());
            }
            GStmt::IfElse { c, then_s, else_s } => {
                let _ = writeln!(out, "{pad}if ({} > 0) {{", c.render());
                for s in then_s {
                    s.render_into(out, indent + 1);
                }
                let _ = writeln!(out, "{pad}}} else {{");
                for s in else_s {
                    s.render_into(out, indent + 1);
                }
                let _ = writeln!(out, "{pad}}}");
            }
            GStmt::Loop { counter, n, body } => {
                let _ = writeln!(out, "{pad}c{counter} = 0;");
                let _ = writeln!(out, "{pad}while (c{counter} < {n}) {{");
                for s in body {
                    s.render_into(out, indent + 1);
                }
                let _ = writeln!(out, "{pad}  c{counter} = c{counter} + 1;");
                let _ = writeln!(out, "{pad}}}");
            }
            GStmt::BufStore { idx, e, v } => {
                let ix = format!("({} & 7)", idx.render());
                let _ = writeln!(out, "{pad}buf[{ix}] = (long) ({});", e.render());
                let _ = writeln!(out, "{pad}v{v} = (int) buf[{ix}];");
            }
            GStmt::AccAdd { v, e } => {
                let _ = writeln!(out, "{pad}acc = acc + ({});", e.render());
                let _ = writeln!(out, "{pad}v{v} = acc;");
            }
            GStmt::Call { v, callee, args } => {
                let args: Vec<String> = args.iter().map(GExpr::render).collect();
                let _ = writeln!(out, "{pad}v{v} = {callee}({});", args.join(", "));
            }
            GStmt::ExtCall { v, e, yld } => {
                let f = if *yld { "yield" } else { "inc" };
                let _ = writeln!(out, "{pad}v{v} = {f}({});", e.render());
            }
            GStmt::ExtPtrCall { v, a, b } => {
                let _ = writeln!(out, "{pad}w[0] = (long) ({});", a.render());
                let _ = writeln!(out, "{pad}w[1] = (long) ({});", b.render());
                let _ = writeln!(out, "{pad}ws = sum2(w);");
                let _ = writeln!(out, "{pad}v{v} = (int) ws;");
            }
        }
    }
}

impl GFn {
    /// Statements in this function, counted recursively.
    pub fn stmt_count(&self) -> usize {
        self.stmts.iter().map(GStmt::count).sum()
    }

    fn uses_memory(&self) -> bool {
        self.stmts.iter().any(GStmt::uses_memory)
    }

    fn render_into(&self, out: &mut String) {
        let params: Vec<String> = (0..self.nparams).map(|i| format!("int p{i}")).collect();
        let params = if params.is_empty() {
            "void".to_string()
        } else {
            params.join(", ")
        };
        let _ = writeln!(out, "int {}({params}) {{", self.name);
        for i in 0..self.nlocals {
            let _ = writeln!(out, "  int v{i};");
        }
        let ncounters = self
            .stmts
            .iter()
            .filter_map(GStmt::max_counter)
            .max()
            .map_or(0, |m| m + 1);
        for i in 0..ncounters {
            let _ = writeln!(out, "  int c{i};");
        }
        if self.stmts.iter().any(GStmt::uses_scratch) {
            let _ = writeln!(out, "  long w[2];");
            let _ = writeln!(out, "  long ws;");
        }
        // Zero-initialize every local so statement deletion can never
        // expose an uninitialized read.
        for i in 0..self.nlocals {
            let _ = writeln!(out, "  v{i} = 0;");
        }
        for s in &self.stmts {
            s.render_into(out, 1);
        }
        let _ = writeln!(out, "  return {};", self.ret.render());
        let _ = writeln!(out, "}}");
    }
}

impl GProgram {
    /// The designated entry point: the last function of the last unit.
    /// Returns `(unit_index, function)`.
    ///
    /// # Panics
    /// Panics if the program is empty (generator and reducer both maintain
    /// non-emptiness).
    pub fn entry(&self) -> (usize, &GFn) {
        let u = self.units.len() - 1;
        match self.units[u].funcs.last() {
            Some(f) => (u, f),
            None => unreachable!("generator and reducer maintain non-empty units"),
        }
    }

    /// Total statements across all functions (the reproducer size metric).
    pub fn stmt_count(&self) -> usize {
        self.units
            .iter()
            .flat_map(|u| u.funcs.iter())
            .map(GFn::stmt_count)
            .sum()
    }

    /// Arity map of every defined function.
    fn arity_map(&self) -> BTreeMap<&str, u32> {
        self.units
            .iter()
            .flat_map(|u| u.funcs.iter())
            .map(|f| (f.name.as_str(), f.nparams))
            .collect()
    }

    /// Render each unit into compilable Clight-mini source.
    pub fn render(&self) -> Vec<String> {
        let arity = self.arity_map();
        self.units
            .iter()
            .map(|unit| {
                let mut out = String::new();
                let defined: Vec<&str> = unit.funcs.iter().map(|f| f.name.as_str()).collect();
                // Extern declarations: the environment's functions, then any
                // cross-unit callee.
                let uses_inc = unit
                    .funcs
                    .iter()
                    .any(|f| f.stmts.iter().any(GStmt::uses_inc));
                let uses_sum2 = unit
                    .funcs
                    .iter()
                    .any(|f| f.stmts.iter().any(GStmt::uses_scratch));
                let uses_yield = unit
                    .funcs
                    .iter()
                    .any(|f| f.stmts.iter().any(GStmt::uses_yield));
                if uses_inc {
                    out.push_str("extern int inc(int);\n");
                }
                if uses_yield {
                    out.push_str("extern int yield(int);\n");
                }
                if uses_sum2 {
                    out.push_str("extern long sum2(long*);\n");
                }
                let mut cross: Vec<String> = Vec::new();
                for f in &unit.funcs {
                    for s in &f.stmts {
                        s.callees(&mut cross);
                    }
                }
                cross.sort();
                cross.dedup();
                for callee in &cross {
                    if defined.contains(&callee.as_str()) {
                        continue;
                    }
                    let k = *arity.get(callee.as_str()).unwrap_or(&0);
                    let sig: Vec<&str> = (0..k).map(|_| "int").collect();
                    let sig = if sig.is_empty() {
                        "void".to_string()
                    } else {
                        sig.join(", ")
                    };
                    let _ = writeln!(out, "extern int {callee}({sig});");
                }
                if unit.uses_memory {
                    out.push_str("const int lim = 17;\n");
                    out.push_str("int acc = 0;\n");
                    out.push_str("long buf[8];\n");
                }
                for f in &unit.funcs {
                    f.render_into(&mut out);
                }
                out
            })
            .collect()
    }

    /// Render the whole program as one annotated, self-contained source
    /// listing — the form findings are reported in. Each unit is delimited
    /// by a comment banner; the seed comes first.
    pub fn to_annotated_source(&self) -> String {
        let mut out = format!("// compcerto-gen seed {}\n", self.seed);
        for (i, src) in self.render().iter().enumerate() {
            let _ = writeln!(out, "// ---- unit {i} ----");
            out.push_str(src);
        }
        out
    }

    /// Check structural invariants: memory statements only inside the
    /// `uses_memory` unit, every callee defined or external, entry exists.
    /// Used by generator tests and as a reducer sanity net.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.units.is_empty() || self.units.iter().any(|u| u.funcs.is_empty()) {
            return Err("empty unit or program".into());
        }
        let arity = self.arity_map();
        if arity.len() != self.units.iter().map(|u| u.funcs.len()).sum::<usize>() {
            return Err("duplicate function names".into());
        }
        for unit in &self.units {
            for f in &unit.funcs {
                if !unit.uses_memory && f.uses_memory() {
                    return Err(format!("{}: memory statement outside memory unit", f.name));
                }
                let mut callees = Vec::new();
                for s in &f.stmts {
                    s.callees(&mut callees);
                }
                for c in &callees {
                    let Some(k) = arity.get(c.as_str()) else {
                        return Err(format!("{}: call to undefined {c}", f.name));
                    };
                    let _ = k;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_prog() -> GProgram {
        GProgram {
            seed: 1,
            units: vec![GUnit {
                uses_memory: true,
                funcs: vec![GFn {
                    name: "u0f0".into(),
                    nparams: 2,
                    nlocals: 2,
                    stmts: vec![
                        GStmt::Assign {
                            v: 0,
                            e: GExpr::Add(Box::new(GExpr::Param(0)), Box::new(GExpr::Const(-3))),
                        },
                        GStmt::Loop {
                            counter: 0,
                            n: 3,
                            body: vec![GStmt::AccAdd {
                                v: 1,
                                e: GExpr::Local(0),
                            }],
                        },
                    ],
                    ret: GExpr::Local(1),
                }],
            }],
        }
    }

    #[test]
    fn renders_expected_shape() {
        let p = small_prog();
        let srcs = p.render();
        assert_eq!(srcs.len(), 1);
        let s = &srcs[0];
        assert!(s.contains("int acc = 0;"), "{s}");
        assert!(s.contains("v0 = (p0 + (- 3));"), "{s}");
        assert!(s.contains("while (c0 < 3)"), "{s}");
        assert!(s.contains("return v1;"), "{s}");
        // Locals zero-initialized before the body.
        let init = s.find("v0 = 0;").unwrap();
        let body = s.find("v0 = (p0").unwrap();
        assert!(init < body, "{s}");
    }

    #[test]
    fn stmt_count_counts_nested() {
        let p = small_prog();
        assert_eq!(p.stmt_count(), 3); // Assign + Loop + AccAdd
    }

    #[test]
    fn invariants_hold_and_detect_violations() {
        let mut p = small_prog();
        assert!(p.check_invariants().is_ok());
        p.units[0].uses_memory = false;
        assert!(p.check_invariants().is_err());
    }
}
