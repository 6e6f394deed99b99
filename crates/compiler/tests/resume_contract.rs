//! The in-place resume contract of the six stage semantics (`Lts::resume`):
//! resuming the suspended state of an external call turns it into the
//! resumed state, which then runs to the right answer; resuming a state that
//! is not suspended is `Stuck` and leaves the state `Debug`-equal to what it
//! was.

use compcerto_core::cc::{Ca, Cl};
use compcerto_core::conv::SimConv;
use compcerto_core::iface::{abi, Answer, MQuery, Question};
use compcerto_core::lts::{Batch, Lts};
use compcerto_core::regs::{Loc, NREGS};
use compiler::{c_query, compile_all, CompilerOptions, ExtLib};
use mem::Val;

/// One external call between entry and return: `f(5) = inc(5) + 1 = 7`.
const SRC: &str = "
    extern int inc(int);
    int f(int x) { int r; r = inc(x); return r + 1; }
";

const FUEL: u64 = 100_000;

/// Step `s` to its next external call or final answer. LTL defines only a
/// single step, so its batches take one step each.
fn run_to_interaction<L: Lts>(sem: &L, s: &mut L::State) -> Batch<Question<L::O>, Answer<L::I>> {
    let mut events = Vec::new();
    for _ in 0..FUEL {
        match sem.step_batch(s, FUEL, &mut events) {
            Batch::Ran(_) => {}
            other => return other,
        }
    }
    panic!("{}: no interaction within {FUEL} batches", sem.name())
}

/// Resume `s` with `a` where it is not suspended: `Stuck`, and `s` unchanged.
fn assert_not_resumable<L: Lts>(sem: &L, s: &mut L::State, a: Answer<L::O>, what: &str) {
    let before = format!("{s:?}");
    assert!(
        sem.resume(s, a).is_err(),
        "{}: resuming the {what} state must be stuck",
        sem.name()
    );
    assert_eq!(
        format!("{s:?}"),
        before,
        "{}: a stuck resume changed the {what} state",
        sem.name()
    );
}

/// Run `sem` on `q` to its one external call, answer it through `env`,
/// resume in place, and run on to the final answer, checking the contract on
/// the initial and on the resumed state.
fn run_through_call<L: Lts>(
    sem: &L,
    q: &Question<L::I>,
    env: impl Fn(&Question<L::O>) -> Option<Answer<L::O>>,
) -> Answer<L::I> {
    let name = sem.name();
    let mut s = sem
        .initial(q)
        .unwrap_or_else(|e| panic!("{name}: initial: {e}"));
    let oq = match run_to_interaction(sem, &mut s) {
        Batch::External(_, oq) => oq,
        other => panic!("{name}: expected an external call, got {other:?}"),
    };
    let a = env(&oq).unwrap_or_else(|| panic!("{name}: the library refuses {oq:?}"));
    let mut fresh = sem
        .initial(q)
        .unwrap_or_else(|e| panic!("{name}: initial: {e}"));
    assert_not_resumable(sem, &mut fresh, a.clone(), "initial");
    sem.resume(&mut s, a.clone())
        .unwrap_or_else(|e| panic!("{name}: resume: {e}"));
    assert_not_resumable(sem, &mut s, a, "resumed");
    match run_to_interaction(sem, &mut s) {
        Batch::Final(_, answer) => answer,
        other => panic!("{name}: expected a final answer, got {other:?}"),
    }
}

#[test]
fn every_stage_resumes_in_place_and_refuses_unsuspended_states() {
    let (units, tbl) = compile_all(&[SRC], CompilerOptions::default()).expect("compiles");
    let u = &units[0];
    let lib = ExtLib::demo(tbl.clone());
    let cq = c_query(&tbl, u, "f", vec![Val::Int(5)]);
    let seven = Val::Int(7);

    let ca = run_through_call(&u.clight_sem(&tbl), &cq, |oq| lib.answer_c(oq));
    assert_eq!(ca.retval, seven);
    let rtl = rtl::RtlSem::new(u.rtl.clone(), tbl.clone());
    let ca = run_through_call(&rtl, &cq, |oq| lib.answer_c(oq));
    assert_eq!(ca.retval, seven);

    let (_, lq) = Cl.transport_query(&cq).expect("CL transport");
    let result_reg = Loc::Reg(abi::RESULT_REG);
    let ltl = backend::LtlSem::new(u.ltl.clone(), tbl.clone());
    let la = run_through_call(&ltl, &lq, |oq| lib.answer_l(oq));
    assert_eq!(la.ls.get(result_reg), seven);
    let linear = backend::LinearSem::new(u.linear.clone(), tbl.clone());
    let la = run_through_call(&linear, &lq, |oq| lib.answer_l(oq));
    assert_eq!(la.ls.get(result_reg), seven);

    // The M query: the argument in r0, `sp` at an empty argument region.
    let mut mem = cq.mem.clone();
    let spb = mem.alloc(0, 0);
    let mut rs = [Val::Undef; NREGS];
    rs[abi::PARAM_REGS[0].index()] = Val::Int(5);
    let mq = MQuery {
        vf: cq.vf,
        sp: Val::Ptr(spb, 0),
        ra: Val::Undef,
        rs,
        mem,
    };
    let ma = run_through_call(&u.mach_sem(&tbl), &mq, |oq| lib.answer_m(oq));
    assert_eq!(ma.rs[abi::RESULT_REG.index()], seven);

    let (_, aq) = Ca::new(tbl.len() as u32)
        .transport_query(&cq)
        .expect("CA transport");
    let aa = run_through_call(&u.asm_sem(&tbl), &aq, |oq| lib.answer_a(oq));
    assert_eq!(aa.rs.get(abi::RESULT_REG), seven);
}
