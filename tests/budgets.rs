//! Budget exhaustion end to end: adversarial programs (infinite loop,
//! unbounded recursion, allocation bomb) run under a [`RunBudget`] and are
//! cut off with the matching typed outcome — never a panic — and each
//! outcome carries a non-empty step trace naming the last states visited.

use compcerto::clight::ClightSem;
use compcerto::compiler::{c_query, compile_all, CompilerOptions, ExtLib};
use compcerto::core::hcomp::HComp;
use compcerto::core::iface::CReply;
use compcerto::core::lts::{run_budgeted, RunBudget, RunOutcome};
use compcerto::mem::Val;

fn outcome(src: &str, arg: i32, budget: &RunBudget) -> RunOutcome<CReply> {
    let (units, tbl) = compile_all(&[src], CompilerOptions::default()).expect("compiles");
    let lib = ExtLib::demo(tbl.clone());
    let sem = units[0].clight_sem(&tbl);
    let q = c_query(&tbl, &units[0], "entry", vec![Val::Int(arg)]);
    run_budgeted(&sem, &q, &mut |m| lib.answer_c(m), budget)
}

#[test]
fn infinite_loop_runs_out_of_fuel_with_trace() {
    let src = "
        int entry(int a) {
            while (0 < 1) { a = a + 1; }
            return a;
        }";
    let out = outcome(src, 0, &RunBudget::with_fuel(10_000));
    let RunOutcome::OutOfFuel { trace } = out else {
        panic!("expected OutOfFuel, got {:?}", out.into_answer().err());
    };
    assert!(!trace.is_empty(), "OutOfFuel must carry a step trace");
    // The trace names real steps near the cutoff, not the beginning.
    assert!(
        trace.to_string().contains("#"),
        "trace renders steps: {trace}"
    );
}

#[test]
fn unbounded_recursion_exceeds_the_depth_quota() {
    let src = "
        int entry(int a) {
            int r;
            if (a < 0) { return 0; }
            r = entry(a + 1);
            return r + 1;
        }";
    let budget = RunBudget::with_fuel(10_000_000).depth_limit(25);
    let out = outcome(src, 0, &budget);
    let RunOutcome::DepthExceeded {
        depth,
        limit,
        trace,
    } = out
    else {
        panic!("expected DepthExceeded, got {:?}", out.into_answer().err());
    };
    assert!(
        depth > limit,
        "reported depth {depth} exceeds limit {limit}"
    );
    assert_eq!(limit, 25);
    assert!(!trace.is_empty(), "DepthExceeded must carry a step trace");
}

#[test]
fn allocation_bomb_exceeds_the_memory_quota() {
    // Every activation allocates a 64-entry long array (512 bytes of
    // locals); unbounded recursion is an allocation bomb.
    let src = "
        int entry(int a) {
            long buf[64];
            int r;
            buf[0] = (long) a;
            if (a < 0) { return 0; }
            r = entry(a + 1);
            return r + (int) buf[0];
        }";
    let budget = RunBudget::with_fuel(10_000_000).mem_limit(64 * 1024);
    let out = outcome(src, 0, &budget);
    let RunOutcome::OutOfMemory { used, limit, trace } = out else {
        panic!("expected OutOfMemory, got {:?}", out.into_answer().err());
    };
    assert!(used > limit, "reported usage {used} exceeds limit {limit}");
    assert_eq!(limit, 64 * 1024);
    assert!(!trace.is_empty(), "OutOfMemory must carry a step trace");
}

#[test]
fn budgets_do_not_cut_off_honest_programs() {
    let src = "
        int entry(int a) {
            int i; int acc;
            acc = 0;
            i = 0;
            while (i < a) { acc = acc + i; i = i + 1; }
            return acc;
        }";
    let budget = RunBudget::with_fuel(1_000_000)
        .mem_limit(1 << 20)
        .depth_limit(64);
    let out = outcome(src, 10, &budget);
    let r = out.into_answer().expect("honest program completes");
    assert_eq!(r.retval, Val::Int(45));
}

#[test]
fn composed_units_hit_the_depth_quota_where_the_linked_program_does() {
    // `f` calls `g` in unit A, `g` calls `h` across the boundary, and `h`
    // calls `k` in unit B. The ⊕ of the two units must count every frame's
    // own nesting, not just the boundaries, so that a depth quota trips at
    // the depth the linked program reports.
    let a = "extern int h(int);
        int g(int x) { int r; r = h(x); return r; }
        int f(int x) { int r; r = g(x); return r; }";
    let b = "int k(int x) { return x + 1; }
        int h(int x) { int r; r = k(x); return r; }";
    let (units, tbl) = compile_all(&[a, b], CompilerOptions::default()).expect("compiles");
    let lib = ExtLib::demo(tbl.clone());
    let composed = HComp::new(units[0].clight_sem(&tbl), units[1].clight_sem(&tbl));
    let linked = compcerto::clight::link(&units[0].clight, &units[1].clight).expect("links");
    let linked = ClightSem::new(linked, tbl.clone());
    let q = c_query(&tbl, &units[0], "f", vec![Val::Int(1)]);
    let observe = |out: RunOutcome<CReply>| match out {
        RunOutcome::Complete { answer, .. } => format!("complete: {}", answer.retval),
        RunOutcome::DepthExceeded { depth, .. } => format!("depth {depth}"),
        other => format!("{:?}", other.into_answer().err()),
    };
    let mut tripped = 0;
    for limit in 0..=4 {
        let budget = RunBudget::with_fuel(10_000).depth_limit(limit);
        let whole = observe(run_budgeted(&linked, &q, &mut |m| lib.answer_c(m), &budget));
        let parts = observe(run_budgeted(
            &composed,
            &q,
            &mut |m| lib.answer_c(m),
            &budget,
        ));
        assert_eq!(parts, whole, "depth limit {limit}");
        tripped += usize::from(whole.starts_with("depth"));
    }
    // The sweep straddles the program's depth: some limits trip, some pass.
    assert!((1..5).contains(&tripped), "{tripped} of 5 limits tripped");
}
