//! Greedy delta-debugging reduction of failing programs.
//!
//! Given a [`GProgram`] and a predicate `still_fails` (supplied by the
//! differential oracle: "does this candidate still exhibit the finding?"),
//! [`reduce`] repeatedly tries structural simplifications and keeps each one
//! the predicate accepts, until a fixpoint (or the check budget runs out):
//!
//! * drop whole translation units, then whole functions — calls to removed
//!   functions are rewritten to `v = 0;` so candidates always compile;
//! * delete individual statements (recursing into `if`/loop bodies);
//! * flatten compound statements (splice an `if`'s branches or a loop's
//!   body into the enclosing sequence);
//! * replace expressions by a child subexpression, then by `0`;
//! * halve every literal and loop trip count.
//!
//! Because the renderer zero-initializes all locals and loop counters are
//! unwritable by generated statements (see [`crate::program`]), every
//! candidate is a *well-defined* program: reduction can change what a
//! program computes, never make it undefined. The predicate is the sole
//! judge of which candidates to keep, so the reducer needs no semantic
//! knowledge — and the whole process is deterministic, making shrunk
//! reproducers stable across runs and `--jobs` levels.

use crate::program::{GExpr, GProgram, GStmt};

/// Counters describing one reduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReduceStats {
    /// Predicate invocations.
    pub checks: usize,
    /// Simplifications accepted.
    pub applied: usize,
    /// Full passes over the candidate space.
    pub rounds: usize,
    /// Statement count before reduction.
    pub from_stmts: usize,
    /// Statement count after reduction.
    pub to_stmts: usize,
}

/// Shrink `prog` while `still_fails` keeps returning `true`, spending at
/// most `max_checks` predicate calls. Returns the smallest program found
/// and the run statistics. `prog` itself is expected to satisfy the
/// predicate; if it does not, it is returned unchanged.
pub fn reduce(
    prog: &GProgram,
    mut still_fails: impl FnMut(&GProgram) -> bool,
    max_checks: usize,
) -> (GProgram, ReduceStats) {
    let mut stats = ReduceStats {
        from_stmts: prog.stmt_count(),
        ..ReduceStats::default()
    };
    let mut best = prog.clone();
    loop {
        stats.rounds += 1;
        let mut progress = false;
        for pass in [
            Pass::DropUnit,
            Pass::DropFn,
            Pass::DeleteStmt,
            Pass::Flatten,
            Pass::ExprChild,
            Pass::ExprZero,
            Pass::ShrinkNumbers,
        ] {
            progress |= run_pass(&mut best, pass, &mut still_fails, max_checks, &mut stats);
            if stats.checks >= max_checks {
                stats.to_stmts = best.stmt_count();
                return (best, stats);
            }
        }
        if !progress {
            break;
        }
    }
    stats.to_stmts = best.stmt_count();
    (best, stats)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    DropUnit,
    DropFn,
    DeleteStmt,
    Flatten,
    ExprChild,
    ExprZero,
    ShrinkNumbers,
}

/// Run one pass to its own fixpoint; true if anything was applied.
fn run_pass(
    best: &mut GProgram,
    pass: Pass,
    still_fails: &mut impl FnMut(&GProgram) -> bool,
    max_checks: usize,
    stats: &mut ReduceStats,
) -> bool {
    let mut applied_any = false;
    loop {
        let mut applied_this_scan = false;
        let n = candidate_count(best, pass);
        // Scan back-to-front so accepting candidate k does not shift the
        // numbering of candidates < k we have yet to try.
        for k in (0..n).rev() {
            if stats.checks >= max_checks {
                return applied_any;
            }
            let Some(cand) = make_candidate(best, pass, k) else {
                continue;
            };
            debug_assert!(cand.check_invariants().is_ok(), "{pass:?} candidate {k}");
            stats.checks += 1;
            if still_fails(&cand) {
                *best = cand;
                stats.applied += 1;
                applied_this_scan = true;
                applied_any = true;
            }
        }
        // ShrinkNumbers is a single whole-program candidate; its fixpoint
        // is reached when the predicate rejects it or nothing changes.
        if !applied_this_scan {
            return applied_any;
        }
    }
}

fn candidate_count(p: &GProgram, pass: Pass) -> usize {
    match pass {
        Pass::DropUnit => p.units.len(),
        Pass::DropFn => p.units.iter().map(|u| u.funcs.len()).sum(),
        Pass::DeleteStmt | Pass::Flatten => p.stmt_count(),
        Pass::ExprChild | Pass::ExprZero => expr_slot_count(p),
        Pass::ShrinkNumbers => 1,
    }
}

/// Build candidate `k` of `pass`, or `None` when the edit does not apply
/// (e.g. the slot is already a leaf, or removal would empty the program).
fn make_candidate(p: &GProgram, pass: Pass, k: usize) -> Option<GProgram> {
    match pass {
        Pass::DropUnit => {
            if p.units.len() <= 1 {
                return None;
            }
            let mut q = p.clone();
            let removed: Vec<String> = q.units[k].funcs.iter().map(|f| f.name.clone()).collect();
            q.units.remove(k);
            rewrite_removed_calls(&mut q, &removed);
            Some(q)
        }
        Pass::DropFn => {
            let mut q = p.clone();
            let mut idx = k;
            for u in 0..q.units.len() {
                if idx < q.units[u].funcs.len() {
                    if q.units[u].funcs.len() <= 1 {
                        return None; // unit removal handles this case
                    }
                    let removed = vec![q.units[u].funcs[idx].name.clone()];
                    q.units[u].funcs.remove(idx);
                    rewrite_removed_calls(&mut q, &removed);
                    return Some(q);
                }
                idx -= q.units[u].funcs.len();
            }
            None
        }
        Pass::DeleteStmt => {
            let mut q = p.clone();
            let mut cur = 0usize;
            let mut hit = false;
            for f in q.units.iter_mut().flat_map(|u| u.funcs.iter_mut()) {
                if remove_stmt(&mut f.stmts, &mut cur, k) {
                    hit = true;
                    break;
                }
            }
            hit.then_some(q)
        }
        Pass::Flatten => {
            let mut q = p.clone();
            let mut cur = 0usize;
            let mut res = None;
            for f in q.units.iter_mut().flat_map(|u| u.funcs.iter_mut()) {
                if let Some(r) = flatten_stmt(&mut f.stmts, &mut cur, k) {
                    res = Some(r);
                    break;
                }
            }
            (res == Some(true)).then_some(q)
        }
        Pass::ExprChild => edit_expr_slot(p, k, child_of),
        Pass::ExprZero => edit_expr_slot(p, k, |e| {
            if matches!(e, GExpr::Const(0)) {
                None
            } else {
                Some(GExpr::Const(0))
            }
        }),
        Pass::ShrinkNumbers => {
            let mut q = p.clone();
            let mut changed = false;
            for f in q.units.iter_mut().flat_map(|u| u.funcs.iter_mut()) {
                for s in &mut f.stmts {
                    shrink_numbers_stmt(s, &mut changed);
                }
                shrink_numbers_expr(&mut f.ret, &mut changed);
            }
            changed.then_some(q)
        }
    }
}

/// Replace calls to removed functions by `v = 0;` so the candidate still
/// compiles and links.
fn rewrite_removed_calls(p: &mut GProgram, removed: &[String]) {
    fn walk(stmts: &mut [GStmt], removed: &[String]) {
        for s in stmts.iter_mut() {
            match s {
                GStmt::Call { v, callee, .. } if removed.contains(callee) => {
                    *s = GStmt::Assign {
                        v: *v,
                        e: GExpr::Const(0),
                    };
                }
                GStmt::IfElse { then_s, else_s, .. } => {
                    walk(then_s, removed);
                    walk(else_s, removed);
                }
                GStmt::Loop { body, .. } => walk(body, removed),
                _ => {}
            }
        }
    }
    for f in p.units.iter_mut().flat_map(|u| u.funcs.iter_mut()) {
        walk(&mut f.stmts, removed);
    }
}

/// Remove the statement with pre-order index `target`; `cur` threads the
/// running index. True once removed.
fn remove_stmt(stmts: &mut Vec<GStmt>, cur: &mut usize, target: usize) -> bool {
    let mut i = 0;
    while i < stmts.len() {
        if *cur == target {
            stmts.remove(i);
            return true;
        }
        *cur += 1;
        let removed = match &mut stmts[i] {
            GStmt::IfElse { then_s, else_s, .. } => {
                remove_stmt(then_s, cur, target) || remove_stmt(else_s, cur, target)
            }
            GStmt::Loop { body, .. } => remove_stmt(body, cur, target),
            _ => false,
        };
        if removed {
            return true;
        }
        i += 1;
    }
    false
}

/// Splice the children of the compound statement at pre-order index
/// `target` into its place (an `if`'s branches concatenated, a loop's body
/// once). `Some(true)` = applied, `Some(false)` = target reached but it was
/// a leaf (candidate inapplicable), `None` = target not in this subtree.
fn flatten_stmt(stmts: &mut Vec<GStmt>, cur: &mut usize, target: usize) -> Option<bool> {
    let mut i = 0;
    while i < stmts.len() {
        if *cur == target {
            return Some(match stmts[i].clone() {
                GStmt::IfElse { then_s, else_s, .. } => {
                    stmts.splice(i..=i, then_s.into_iter().chain(else_s));
                    true
                }
                GStmt::Loop { body, .. } => {
                    stmts.splice(i..=i, body);
                    true
                }
                _ => false,
            });
        }
        *cur += 1;
        match &mut stmts[i] {
            GStmt::IfElse { then_s, else_s, .. } => {
                if let Some(r) = flatten_stmt(then_s, cur, target) {
                    return Some(r);
                }
                if let Some(r) = flatten_stmt(else_s, cur, target) {
                    return Some(r);
                }
            }
            GStmt::Loop { body, .. } => {
                if let Some(r) = flatten_stmt(body, cur, target) {
                    return Some(r);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// The immediate left child of a compound expression.
fn child_of(e: &GExpr) -> Option<GExpr> {
    match e {
        GExpr::Param(_) | GExpr::Local(_) | GExpr::Const(_) => None,
        GExpr::Add(a, _)
        | GExpr::Sub(a, _)
        | GExpr::Mul(a, _)
        | GExpr::And(a, _)
        | GExpr::Xor(a, _)
        | GExpr::LtPlus(a, _)
        | GExpr::DivC(a, _)
        | GExpr::ModC(a, _)
        | GExpr::ShlC(a, _)
        | GExpr::ShrC(a, _) => Some((**a).clone()),
    }
}

/// Enumerate the program's *expression slots* (every statement's expression
/// fields plus each function's return expression) in a fixed pre-order.
fn expr_slot_count(p: &GProgram) -> usize {
    let mut n = 0;
    for f in p.units.iter().flat_map(|u| u.funcs.iter()) {
        for s in &f.stmts {
            n += stmt_expr_slots(s);
        }
        n += 1; // ret
    }
    n
}

fn stmt_expr_slots(s: &GStmt) -> usize {
    match s {
        GStmt::Assign { .. } | GStmt::AccAdd { .. } | GStmt::ExtCall { .. } => 1,
        GStmt::IfElse { then_s, else_s, .. } => {
            1 + then_s.iter().map(stmt_expr_slots).sum::<usize>()
                + else_s.iter().map(stmt_expr_slots).sum::<usize>()
        }
        GStmt::Loop { body, .. } => body.iter().map(stmt_expr_slots).sum(),
        GStmt::BufStore { .. } | GStmt::ExtPtrCall { .. } => 2,
        GStmt::Call { args, .. } => args.len(),
    }
}

/// Apply `edit` to the `target`-th expression slot; `None` when the edit
/// does not apply there.
fn edit_expr_slot(
    p: &GProgram,
    target: usize,
    edit: impl Fn(&GExpr) -> Option<GExpr>,
) -> Option<GProgram> {
    let mut q = p.clone();
    let mut cur = 0usize;
    let mut done = false;
    'outer: for f in q.units.iter_mut().flat_map(|u| u.funcs.iter_mut()) {
        for s in &mut f.stmts {
            if edit_stmt_slot(s, &mut cur, target, &edit, &mut done) {
                break 'outer;
            }
        }
        if cur == target {
            if let Some(e) = edit(&f.ret) {
                f.ret = e;
                done = true;
            }
            break 'outer;
        }
        cur += 1;
    }
    done.then_some(q)
}

/// Visit the expression slots of `s` in order; on reaching `target`, apply
/// the edit. Returns true when `target` was reached (whether or not the
/// edit applied — `done` distinguishes).
fn edit_stmt_slot(
    s: &mut GStmt,
    cur: &mut usize,
    target: usize,
    edit: &impl Fn(&GExpr) -> Option<GExpr>,
    done: &mut bool,
) -> bool {
    let mut hit = |e: &mut GExpr, cur: &mut usize| -> bool {
        if *cur == target {
            if let Some(new) = edit(e) {
                *e = new;
                *done = true;
            }
            true
        } else {
            *cur += 1;
            false
        }
    };
    match s {
        GStmt::Assign { e, .. } | GStmt::AccAdd { e, .. } | GStmt::ExtCall { e, .. } => hit(e, cur),
        GStmt::IfElse { c, then_s, else_s } => {
            if hit(c, cur) {
                return true;
            }
            for t in then_s.iter_mut().chain(else_s.iter_mut()) {
                if edit_stmt_slot(t, cur, target, edit, done) {
                    return true;
                }
            }
            false
        }
        GStmt::Loop { body, .. } => {
            for t in body.iter_mut() {
                if edit_stmt_slot(t, cur, target, edit, done) {
                    return true;
                }
            }
            false
        }
        GStmt::BufStore { idx, e, .. } => hit(idx, cur) || hit(e, cur),
        GStmt::ExtPtrCall { a, b, .. } => hit(a, cur) || hit(b, cur),
        GStmt::Call { args, .. } => {
            for a in args.iter_mut() {
                if hit(a, cur) {
                    return true;
                }
            }
            false
        }
    }
}

fn shrink_numbers_stmt(s: &mut GStmt, changed: &mut bool) {
    match s {
        GStmt::Assign { e, .. } | GStmt::AccAdd { e, .. } | GStmt::ExtCall { e, .. } => {
            shrink_numbers_expr(e, changed)
        }
        GStmt::IfElse { c, then_s, else_s } => {
            shrink_numbers_expr(c, changed);
            for t in then_s.iter_mut().chain(else_s.iter_mut()) {
                shrink_numbers_stmt(t, changed);
            }
        }
        GStmt::Loop { n, body, .. } => {
            if *n > 1 {
                *n /= 2;
                *changed = true;
            }
            for t in body.iter_mut() {
                shrink_numbers_stmt(t, changed);
            }
        }
        GStmt::BufStore { idx, e, .. } => {
            shrink_numbers_expr(idx, changed);
            shrink_numbers_expr(e, changed);
        }
        GStmt::ExtPtrCall { a, b, .. } => {
            shrink_numbers_expr(a, changed);
            shrink_numbers_expr(b, changed);
        }
        GStmt::Call { args, .. } => {
            for a in args.iter_mut() {
                shrink_numbers_expr(a, changed);
            }
        }
    }
}

fn shrink_numbers_expr(e: &mut GExpr, changed: &mut bool) {
    match e {
        GExpr::Const(k) => {
            if *k != 0 {
                *k /= 2;
                *changed = true;
            }
        }
        GExpr::Param(_) | GExpr::Local(_) => {}
        GExpr::Add(a, b)
        | GExpr::Sub(a, b)
        | GExpr::Mul(a, b)
        | GExpr::And(a, b)
        | GExpr::Xor(a, b)
        | GExpr::LtPlus(a, b) => {
            shrink_numbers_expr(a, changed);
            shrink_numbers_expr(b, changed);
        }
        GExpr::DivC(a, _) | GExpr::ModC(a, _) | GExpr::ShlC(a, _) | GExpr::ShrC(a, _) => {
            shrink_numbers_expr(a, changed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GenCfg};

    /// Reduction with an always-true predicate must reach a tiny fixpoint:
    /// one unit, one function, no statements, `return 0`.
    #[test]
    fn always_failing_reduces_to_minimum() {
        for seed in [3u64, 17, 99] {
            let p = generate(seed, &GenCfg::default());
            let (small, stats) = reduce(&p, |_| true, 50_000);
            assert!(small.check_invariants().is_ok());
            assert_eq!(small.units.len(), 1, "seed {seed}");
            assert_eq!(small.units[0].funcs.len(), 1, "seed {seed}");
            assert_eq!(small.stmt_count(), 0, "seed {seed}");
            assert_eq!(small.entry().1.ret, GExpr::Const(0), "seed {seed}");
            assert!(stats.applied > 0 && stats.to_stmts == 0);
        }
    }

    /// A predicate that latches onto one marker statement must preserve it
    /// while stripping everything else.
    #[test]
    fn marker_statement_survives() {
        let p = generate(7, &GenCfg::default());
        // Marker: the program still contains an external pointer call.
        let has_ptr = |q: &GProgram| q.to_annotated_source().contains("sum2(");
        if !has_ptr(&p) {
            return; // this seed has no marker; covered by other seeds in CI sweeps
        }
        let (small, _) = reduce(&p, has_ptr, 50_000);
        assert!(has_ptr(&small));
        assert!(small.stmt_count() <= p.stmt_count());
        assert!(small.check_invariants().is_ok());
    }

    /// The reducer is deterministic: same input and predicate, same output.
    #[test]
    fn reduction_is_deterministic() {
        let p = generate(11, &GenCfg::default());
        let pred = |q: &GProgram| q.stmt_count() > 2;
        let (a, sa) = reduce(&p, pred, 10_000);
        let (b, sb) = reduce(&p, pred, 10_000);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    /// The check budget is honored.
    #[test]
    fn budget_is_respected() {
        let p = generate(13, &GenCfg::default());
        let (_, stats) = reduce(&p, |_| true, 25);
        assert!(stats.checks <= 25);
    }
}
