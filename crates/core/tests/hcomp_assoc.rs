//! Algebraic laws of horizontal composition `⊕` (paper §3.3): on components
//! with disjoint entry points, `⊕` is associative and commutative *as a
//! behaviour* — the flat interaction the environment observes does not depend
//! on how the composite was bracketed. The paper gets this from the
//! categorical structure of its LTS semantics; here it is checked on
//! randomized call topologies.

//!
//! Requires the optional `proptest` feature (and the proptest crate,
//! which is not vendored -- see Cargo.toml): these tests are skipped in
//! the offline build.
#![cfg(feature = "proptest")]

use compcerto_core::hcomp::HComp;
use compcerto_core::iface::{CQuery, CReply, Signature, C};
use compcerto_core::lts::{run, Batch, Event, Lts, RunOutcome, Stuck};
use mem::{Mem, Val};
use proptest::prelude::*;

/// `f_own(n) = n <= 0 ? base : peer(n - 1) + 1`, with the peer chosen per
/// call as `peers[n % peers.len()]` — a randomizable call topology.
#[derive(Clone, Debug)]
struct Node {
    own: u32,
    peers: Vec<u32>,
    base: i32,
}

#[derive(Debug, Clone)]
enum St {
    Start(i32, Mem),
    Done(Val, Mem),
}

impl Lts for Node {
    type I = C;
    type O = C;
    type State = St;

    fn name(&self) -> String {
        format!("node@{}", self.own)
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
                if *n <= 0 || self.peers.is_empty() {
                    *s = St::Done(Val::Int(self.base), std::mem::take(m));
                    Batch::Ran(1)
                } else {
                    let peer = self.peers[(*n as usize) % self.peers.len()];
                    Batch::External(
                        0,
                        CQuery {
                            vf: Val::Ptr(peer, 0),
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

/// The environment every bracketing is run against: answers any escaped
/// question `m` with `1000 + first argument`.
fn env(m: &CQuery) -> Option<CReply> {
    let n = match m.args.first() {
        Some(Val::Int(n)) => *n,
        _ => return None,
    };
    Some(CReply {
        retval: Val::Int(1000 + n),
        mem: m.mem.clone(),
    })
}

/// Run `l` on `(entry, n)` and summarize the observable outcome.
fn observe<L>(l: &L, entry: u32, n: i32) -> (String, u32)
where
    L: Lts<I = C, O = C>,
{
    let mut escapes = 0;
    let out = run(
        l,
        &q(entry, n),
        &mut |m: &CQuery| {
            escapes += 1;
            env(m)
        },
        100_000,
    );
    let tag = match out {
        RunOutcome::Complete { answer, .. } => format!("ret {}", answer.retval),
        RunOutcome::Wrong { stuck, .. } => format!("wrong: {stuck}"),
        RunOutcome::EnvRefused(q) => format!("refused: {q}"),
        RunOutcome::OutOfFuel { .. } => "out-of-fuel".into(),
        other => format!("budget: {:?}", other.into_answer().err()),
    };
    (tag, escapes)
}

/// Three nodes with entry blocks 1, 2, 3; peers drawn from {1, 2, 3, 99}
/// (99 is nobody: those calls escape to the environment).
fn topology() -> impl Strategy<Value = Vec<Node>> {
    let peer = prop_oneof![Just(1u32), Just(2), Just(3), Just(99)];
    let peers = proptest::collection::vec(peer, 0..3);
    (
        peers.clone(),
        peers.clone(),
        peers,
        any::<i8>(),
        any::<i8>(),
        any::<i8>(),
    )
        .prop_map(|(p1, p2, p3, b1, b2, b3)| {
            vec![
                Node {
                    own: 1,
                    peers: p1,
                    base: b1 as i32,
                },
                Node {
                    own: 2,
                    peers: p2,
                    base: b2 as i32,
                },
                Node {
                    own: 3,
                    peers: p3,
                    base: b3 as i32,
                },
            ]
        })
}

proptest! {
    /// `(A ⊕ B) ⊕ C` and `A ⊕ (B ⊕ C)` produce the same observable outcome
    /// (same answer or same failure, same number of environment escapes) on
    /// every entry point and depth.
    #[test]
    fn hcomp_is_associative(nodes in topology(), entry in 1u32..4, n in 0i32..12) {
        let [a, b, c]: [Node; 3] = nodes.try_into().ok().unwrap();
        let left = HComp::new(HComp::new(a.clone(), b.clone()), c.clone());
        let right = HComp::new(a, HComp::new(b, c));
        prop_assert_eq!(observe(&left, entry, n), observe(&right, entry, n));
    }

    /// `A ⊕ B` and `B ⊕ A` agree when the entry points are disjoint (they
    /// are, by construction: distinct `own` blocks).
    #[test]
    fn hcomp_is_commutative(nodes in topology(), entry in 1u32..3, n in 0i32..12) {
        let [a, b, _]: [Node; 3] = nodes.try_into().ok().unwrap();
        let ab = HComp::new(a.clone(), b.clone());
        let ba = HComp::new(b, a);
        prop_assert_eq!(observe(&ab, entry, n), observe(&ba, entry, n));
    }

    /// Composition only *adds* defined behaviour: whenever the single
    /// component completes against the environment, the composite completes
    /// with the same answer (Thm 3.4's flavour, environment side).
    #[test]
    fn hcomp_preserves_solo_behaviour(nodes in topology(), n in 0i32..12) {
        let [a, b, _]: [Node; 3] = nodes.try_into().ok().unwrap();
        // Only meaningful when A's calls all escape: `⊕` resolves calls to
        // either member (including A itself), the solo run resolves none.
        prop_assume!(a.peers.iter().all(|p| *p != b.own && *p != a.own));
        let solo = observe(&a, a.own, n);
        let both = observe(&HComp::new(a, b), 1, n);
        prop_assert_eq!(solo, both);
    }
}

#[test]
fn three_way_mutual_recursion_through_any_bracketing() {
    // 1 → 2 → 3 → 1 → …, depth 7: bottoming out in node (7 hops from entry 1
    // lands in node 2 with n = 0, base 20), plus one +1 per hop.
    let a = Node {
        own: 1,
        peers: vec![2],
        base: 10,
    };
    let b = Node {
        own: 2,
        peers: vec![3],
        base: 20,
    };
    let c = Node {
        own: 3,
        peers: vec![1],
        base: 30,
    };
    let left = HComp::new(HComp::new(a.clone(), b.clone()), c.clone());
    let right = HComp::new(a, HComp::new(b, c));
    let (tag_l, esc_l) = observe(&left, 1, 7);
    let (tag_r, esc_r) = observe(&right, 1, 7);
    assert_eq!(tag_l, tag_r);
    assert_eq!((esc_l, esc_r), (0, 0), "fully internal");
    assert_eq!(tag_l, "ret 27"); // base 20 + 7 increments
}
