//! Paper §3.5: the homogeneous sequential composition `∘_{A,A,A}` is an
//! *under-approximation* of `⊕` — whenever calls only flow one way, the two
//! operators agree; when the lower component calls back, `∘` goes wrong
//! while `⊕` proceeds.

use compcerto_core::hcomp::HComp;
use compcerto_core::iface::{CQuery, CReply, Signature, C};
use compcerto_core::lts::{run, Batch, Event, Lts, RunOutcome, Stuck};
use compcerto_core::seqcomp::SeqComp;
use mem::{Mem, Val};

/// A one-function component: `f_own(n) = n <= 0 ? base : peer(n - 1) + 1`.
#[derive(Clone)]
struct Chainer {
    own: u32,
    peer: Option<u32>,
    base: i32,
}

#[derive(Debug, Clone)]
enum St {
    Start(i32, Mem),
    Done(Val, Mem),
}

impl Lts for Chainer {
    type I = C;
    type O = C;
    type State = St;

    fn name(&self) -> String {
        format!("chainer@{}", self.own)
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
            St::Start(n, m) => match (self.peer, *n <= 0) {
                (_, true) | (None, _) => {
                    *s = St::Done(Val::Int(self.base), std::mem::take(m));
                    Batch::Ran(1)
                }
                (Some(peer), false) => Batch::External(
                    0,
                    CQuery {
                        vf: Val::Ptr(peer, 0),
                        sig: Signature::int_fn(1),
                        args: vec![Val::Int(*n - 1)],
                        mem: m.clone(),
                    },
                ),
            },
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
                *s = St::Done(a.retval.add(Val::Int(1)), a.mem);
                Ok(())
            }
            _ => Err(Stuck::new("bad resume")),
        }
    }
}

fn q(target: u32, n: i32) -> CQuery {
    CQuery {
        vf: Val::Ptr(target, 0),
        sig: Signature::int_fn(1),
        args: vec![Val::Int(n)],
        mem: Mem::new(),
    }
}

#[test]
fn seqcomp_agrees_with_hcomp_when_calls_flow_one_way() {
    // upper(1) calls lower(2); lower never calls back.
    let upper = Chainer {
        own: 1,
        peer: Some(2),
        base: 0,
    };
    let lower = Chainer {
        own: 2,
        peer: None,
        base: 100,
    };
    let seq = SeqComp::new(upper.clone(), lower.clone());
    let par = HComp::new(upper, lower);
    for n in [0, 1, 5] {
        let a = run(&seq, &q(1, n), &mut |_m| None, 10_000).expect_complete();
        let b = run(&par, &q(1, n), &mut |_m| None, 10_000).expect_complete();
        assert_eq!(a.retval, b.retval, "n = {n}");
    }
}

#[test]
fn seqcomp_underapproximates_on_backcalls() {
    // Mutually recursive components: ⊕ resolves the back-call, ∘ cannot
    // (the lower component's question to the upper one has nowhere to go).
    let upper = Chainer {
        own: 1,
        peer: Some(2),
        base: 0,
    };
    let lower = Chainer {
        own: 2,
        peer: Some(1), // calls back!
        base: 100,
    };
    let par = HComp::new(upper.clone(), lower.clone());
    let seq = SeqComp::new(upper, lower);
    // ⊕: full mutual recursion works.
    let b = run(&par, &q(1, 4), &mut |_m| None, 10_000).expect_complete();
    // 4 hops, bottoming in the upper component (base 0): 0 + 4.
    assert_eq!(b.retval, Val::Int(4));
    // ∘: fewer behaviours are defined *internally* — the back-call is not
    // resolved by the composition; it escapes to the environment instead
    // (the "under-approximation" of paper §3.5).
    // n=1: upper calls lower(0) → lower answers base → fine.
    let ok = run(&seq, &q(1, 1), &mut |_m| None, 10_000).expect_complete();
    assert_eq!(ok.retval, Val::Int(101));
    // n=2: lower(1)'s call to the upper component escapes; with a refusing
    // environment the run cannot proceed.
    assert!(matches!(
        run(&seq, &q(1, 2), &mut |_m| None, 10_000),
        RunOutcome::EnvRefused(_)
    ));
}

#[test]
fn seqcomp_outgoing_questions_escape_from_the_bottom() {
    // The lower component's external questions (not directed at the upper
    // one) go to the environment — the `A` side of `L1 ∘ L2 : A ↠ C`.
    let upper = Chainer {
        own: 1,
        peer: Some(2),
        base: 0,
    };
    let lower = Chainer {
        own: 2,
        peer: Some(99), // unknown: escapes
        base: 100,
    };
    let seq = SeqComp::new(upper, lower);
    let mut asked = 0;
    let r = run(
        &seq,
        &q(1, 3),
        &mut |m: &CQuery| {
            asked += 1;
            assert_eq!(m.vf, Val::Ptr(99, 0));
            Some(CReply {
                retval: Val::Int(1000),
                mem: m.mem.clone(),
            })
        },
        10_000,
    )
    .expect_complete();
    assert_eq!(asked, 1);
    // upper: lower(2)+1; lower: env(1)+1 = 1001; total 1002.
    assert_eq!(r.retval, Val::Int(1002));
}
