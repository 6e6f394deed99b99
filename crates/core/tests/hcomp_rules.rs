//! Exercising every rule of horizontal composition (paper Fig. 5) and the
//! horizontal preservation of simulations (paper Thm. 3.4) on purpose-built
//! components.

use compcerto_core::cklr::{CklrC, Ext};
use compcerto_core::conv::IdConv;
use compcerto_core::hcomp::HComp;
use compcerto_core::iface::{CQuery, CReply, Signature, C};
use compcerto_core::lts::{run, Batch, Event, Lts, RunOutcome, Stuck};
use compcerto_core::sim::check_fwd_sim;
use mem::{Mem, Val};

/// A component family: `dec_k(n)` defined as `n == 0 ? base : other(n - 1)`,
/// where `other` is a call to the function at block `peer`. Two of these with
/// crossed peers produce arbitrarily deep mutual recursion through `⊕`.
#[derive(Clone)]
struct Countdown {
    /// Function block this component answers for.
    own: u32,
    /// Function block it calls.
    peer: u32,
    /// Value returned at zero.
    base: Val,
}

#[derive(Debug, Clone)]
enum St {
    Start(i32, Mem),
    Done(Val, Mem),
}

impl Lts for Countdown {
    type I = C;
    type O = C;
    type State = St;

    fn name(&self) -> String {
        format!("countdown@{}", self.own)
    }

    fn accepts(&self, q: &CQuery) -> bool {
        q.vf == Val::Ptr(self.own, 0)
    }

    fn initial(&self, q: &CQuery) -> Result<St, Stuck> {
        match q.args.first() {
            Some(Val::Int(n)) => Ok(St::Start(*n, q.mem.clone())),
            _ => Err(Stuck::new("bad argument")),
        }
    }

    fn step_batch(
        &self,
        s: &mut St,
        _fuel_left: u64,
        _events: &mut Vec<Event>,
    ) -> Batch<CQuery, CReply> {
        match s {
            St::Start(n, m) => {
                if *n <= 0 {
                    *s = St::Done(self.base, std::mem::take(m));
                    Batch::Ran(1)
                } else {
                    Batch::External(
                        0,
                        CQuery {
                            vf: Val::Ptr(self.peer, 0),
                            sig: Signature::int_fn(1),
                            args: vec![Val::Int(*n - 1)],
                            mem: m.clone(),
                        },
                    )
                }
            }
            St::Done(v, m) => Batch::Final(
                0,
                CReply {
                    retval: *v,
                    mem: m.clone(),
                },
            ),
        }
    }

    fn resume(&self, s: &mut St, a: CReply) -> Result<(), Stuck> {
        match s {
            St::Start(_, _) => {
                *s = St::Done(a.retval, a.mem);
                Ok(())
            }
            _ => Err(Stuck::new("bad resume")),
        }
    }
}

fn query(target: u32, n: i32) -> CQuery {
    CQuery {
        vf: Val::Ptr(target, 0),
        sig: Signature::int_fn(1),
        args: vec![Val::Int(n)],
        mem: Mem::new(),
    }
}

#[test]
fn rule_i0_dispatches_by_domain() {
    // Rule i∘: the composite accepts D1 ∪ D2 and picks the right component.
    let a = Countdown {
        own: 1,
        peer: 2,
        base: Val::Int(100),
    };
    let b = Countdown {
        own: 2,
        peer: 1,
        base: Val::Int(200),
    };
    let comp = HComp::new(a, b);
    assert!(comp.accepts(&query(1, 0)));
    assert!(comp.accepts(&query(2, 0)));
    assert!(!comp.accepts(&query(3, 0)));
    // n = 0: answered without any push (rules i∘, run, i•).
    let r = run(&comp, &query(1, 0), &mut |_q| None, 100).expect_complete();
    assert_eq!(r.retval, Val::Int(100));
    let r = run(&comp, &query(2, 0), &mut |_q| None, 100).expect_complete();
    assert_eq!(r.retval, Val::Int(200));
}

#[test]
fn rules_push_pop_mutual_recursion() {
    // Rules push/pop: n bounces between the two components n times; the
    // final base value reveals which component bottomed out.
    let a = Countdown {
        own: 1,
        peer: 2,
        base: Val::Int(100),
    };
    let b = Countdown {
        own: 2,
        peer: 1,
        base: Val::Int(200),
    };
    let comp = HComp::new(a, b);
    // Even n starting at 1: ends in component 1 (base 100).
    let r = run(&comp, &query(1, 4), &mut |_q| None, 1000).expect_complete();
    assert_eq!(r.retval, Val::Int(100));
    // Odd n starting at 1: ends in component 2.
    let r = run(&comp, &query(1, 5), &mut |_q| None, 1000).expect_complete();
    assert_eq!(r.retval, Val::Int(200));
    // Deep recursion exercises the activation stack.
    let r = run(&comp, &query(1, 500), &mut |_q| None, 100_000).expect_complete();
    assert_eq!(r.retval, Val::Int(100));
}

#[test]
fn rule_push_self_recursion() {
    // A component whose peer is itself: ⊕ also routes self-calls (the `q ∈ Dj`
    // side condition allows j to be the active component).
    let a = Countdown {
        own: 1,
        peer: 1,
        base: Val::Int(7),
    };
    let b = Countdown {
        own: 2,
        peer: 2,
        base: Val::Int(8),
    };
    let comp = HComp::new(a, b);
    let r = run(&comp, &query(1, 10), &mut |_q| None, 1000).expect_complete();
    assert_eq!(r.retval, Val::Int(7));
}

#[test]
fn rules_x0_x1_escape_to_environment() {
    // Rule x∘: a question neither component accepts escapes; rule x•: the
    // environment's answer resumes the suspended activation.
    let a = Countdown {
        own: 1,
        peer: 9,
        base: Val::Int(100),
    }; // 9 is external
    let b = Countdown {
        own: 2,
        peer: 1,
        base: Val::Int(200),
    };
    let comp = HComp::new(a, b);
    let mut asked = 0;
    let r = run(
        &comp,
        &query(1, 3),
        &mut |q: &CQuery| {
            asked += 1;
            assert_eq!(q.vf, Val::Ptr(9, 0));
            Some(CReply {
                retval: Val::Int(4242),
                mem: q.mem.clone(),
            })
        },
        1000,
    )
    .expect_complete();
    assert_eq!(asked, 1);
    assert_eq!(r.retval, Val::Int(4242));
}

#[test]
fn composite_goes_wrong_when_component_does() {
    let a = Countdown {
        own: 1,
        peer: 2,
        base: Val::Int(0),
    };
    let b = Countdown {
        own: 2,
        peer: 1,
        base: Val::Int(0),
    };
    let comp = HComp::new(a, b);
    // A non-Int argument makes the callee's initial state fail.
    let q = CQuery {
        vf: Val::Ptr(1, 0),
        sig: Signature::int_fn(1),
        args: vec![Val::Float(1.0)],
        mem: Mem::new(),
    };
    assert!(matches!(
        run(&comp, &q, &mut |_q| None, 100),
        RunOutcome::Wrong { .. }
    ));
}

#[test]
fn thm_3_4_horizontal_preservation() {
    // Thm 3.4: L1 ≤ L2 and L1' ≤ L2' imply L1 ⊕ L1' ≤ L2 ⊕ L2'. We check the
    // composite simulation with the checker, where the targets refine an
    // Undef base value into a defined one (related under ext).
    let src1 = Countdown {
        own: 1,
        peer: 2,
        base: Val::Undef,
    };
    let src2 = Countdown {
        own: 2,
        peer: 1,
        base: Val::Int(200),
    };
    let tgt1 = Countdown {
        own: 1,
        peer: 2,
        base: Val::Int(100),
    }; // refines Undef
    let tgt2 = Countdown {
        own: 2,
        peer: 1,
        base: Val::Int(200),
    };
    let source = HComp::new(src1, src2);
    let target = HComp::new(tgt1, tgt2);
    let ext = CklrC { k: Ext };
    let report = check_fwd_sim(
        &source,
        &target,
        &ext,
        &ext,
        &query(1, 6),
        &mut |_q| None,
        10_000,
    )
    .expect("Thm 3.4 composite simulation holds");
    assert_eq!(report.external_calls, 0);
}

#[test]
fn thm_3_4_detects_broken_component() {
    // Replacing one target component by a behaviourally different one breaks
    // the composite simulation and the checker reports it.
    let src1 = Countdown {
        own: 1,
        peer: 2,
        base: Val::Int(100),
    };
    let src2 = Countdown {
        own: 2,
        peer: 1,
        base: Val::Int(200),
    };
    let bad1 = Countdown {
        own: 1,
        peer: 2,
        base: Val::Int(999),
    };
    let tgt2 = Countdown {
        own: 2,
        peer: 1,
        base: Val::Int(200),
    };
    let source = HComp::new(src1, src2);
    let target = HComp::new(bad1, tgt2);
    let err = check_fwd_sim(
        &source,
        &target,
        &IdConv::<C>::new(),
        &IdConv::<C>::new(),
        &query(1, 6),
        &mut |_q| None,
        10_000,
    )
    .unwrap_err();
    assert!(matches!(
        err,
        compcerto_core::sim::SimCheckError::FinalNotRelated
    ));
}
