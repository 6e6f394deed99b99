//! Differential checking of open forward simulations (paper §3.3, Fig. 6).
//!
//! In Coq, a pass is correct because a forward simulation
//! `L1 ≤_{R_A ↠ R_B} L2` has been *proved*. Here we *check* the simulation's
//! observable content on concrete executions: given incoming questions
//! related by `R_B` at a world `w_B`, we run both transition systems in
//! lock-step at the granularity of their interactions and verify
//!
//! * every pair of outgoing questions is related by `R_A` at some world
//!   `w_A` (Fig. 6c, top edge);
//! * the environment's answers, related at `w_A`, resume both sides
//!   (Fig. 6c, bottom edge) — the checker plays the environment, using
//!   [`SimConv::transport_reply`] to answer the target consistently with the
//!   source;
//! * the final answers are related by `R_B` at the original `w_B`
//!   (Fig. 6b).
//!
//! A passing check certifies the simulation diagram on that execution; the
//! harness in the `compiler` crate sweeps program × query workloads to build
//! confidence across executions (translation validation in place of proof).

use std::fmt;
use std::time::Instant;

use crate::conv::SimConv;
use crate::iface::{Answer, Question};
use crate::lts::{
    BudgetKind, Event, Interaction, Lts, Run, RunBudget, RunError, RunOutcome, StepTrace, Stuck,
};

/// Why a differential simulation check failed.
#[derive(Debug, Clone)]
pub enum SimCheckError {
    /// The incoming question could not be marshaled to the target side.
    CannotTransportQuery,
    /// The transported question pair is not related by the incoming
    /// convention (internal inconsistency of the convention).
    QueryNotRelated,
    /// One side rejected the incoming question.
    NotAccepted {
        /// Which side ("source"/"target").
        side: &'static str,
    },
    /// A component went wrong.
    Wrong {
        /// Which side.
        side: &'static str,
        /// The stuck reason.
        stuck: Stuck,
        /// The last states the failing side visited.
        trace: StepTrace,
    },
    /// Fuel exhausted.
    OutOfFuel {
        /// Which side.
        side: &'static str,
        /// The last states the failing side visited.
        trace: StepTrace,
    },
    /// A non-fuel budget quota (memory, call depth, deadline) was exceeded.
    BudgetExceeded {
        /// Which side.
        side: &'static str,
        /// Which quota.
        kind: BudgetKind,
        /// Human-readable usage-vs-limit detail.
        detail: String,
        /// The last states the failing side visited.
        trace: StepTrace,
    },
    /// A precondition of the check failed before any execution (e.g. the
    /// two programs could not be linked, or a named entry point is absent).
    Precondition(String),
    /// The two sides disagree on their next interaction (one returns, the
    /// other calls out).
    InteractionMismatch {
        /// Description of the source's interaction.
        source: String,
        /// Description of the target's interaction.
        target: String,
    },
    /// A pair of outgoing questions is not related by the outgoing
    /// convention (Fig. 6c violated).
    ExternalNotRelated {
        /// Index of the external call.
        call: usize,
    },
    /// The environment oracle could not answer the source question.
    EnvRefused,
    /// The environment's answer could not be transported to the target.
    CannotTransportReply,
    /// In dual-environment mode, the two environments' answers are not
    /// related by the outgoing convention (the environment broke the
    /// rely-guarantee discipline, paper Fig. 6c bottom edge).
    EnvRepliesNotRelated {
        /// Index of the external call.
        call: usize,
    },
    /// The final answers are not related at the incoming world (Fig. 6b
    /// violated).
    FinalNotRelated,
}

impl fmt::Display for SimCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimCheckError::CannotTransportQuery => write!(f, "cannot marshal incoming question"),
            SimCheckError::QueryNotRelated => write!(f, "marshaled questions not related"),
            SimCheckError::NotAccepted { side } => write!(f, "{side} rejected the question"),
            SimCheckError::Wrong { side, stuck, .. } => write!(f, "{side} went wrong: {stuck}"),
            SimCheckError::OutOfFuel { side, .. } => write!(f, "{side} ran out of fuel"),
            SimCheckError::BudgetExceeded {
                side, kind, detail, ..
            } => write!(f, "{side} exceeded the {kind} budget: {detail}"),
            SimCheckError::Precondition(why) => write!(f, "precondition failed: {why}"),
            SimCheckError::InteractionMismatch { source, target } => {
                write!(f, "interaction mismatch: source {source}, target {target}")
            }
            SimCheckError::ExternalNotRelated { call } => {
                write!(f, "outgoing questions of call #{call} not related")
            }
            SimCheckError::EnvRefused => write!(f, "environment refused a question"),
            SimCheckError::CannotTransportReply => write!(f, "cannot transport environment reply"),
            SimCheckError::EnvRepliesNotRelated { call } => {
                write!(f, "environment replies of call #{call} not related")
            }
            SimCheckError::FinalNotRelated => write!(f, "final answers not related"),
        }
    }
}

impl std::error::Error for SimCheckError {}

impl SimCheckError {
    /// The diagnostic step trace attached to execution failures
    /// (stuck / fuel / quota outcomes), if any.
    pub fn step_trace(&self) -> Option<&StepTrace> {
        match self {
            SimCheckError::Wrong { trace, .. }
            | SimCheckError::OutOfFuel { trace, .. }
            | SimCheckError::BudgetExceeded { trace, .. } => Some(trace),
            _ => None,
        }
    }

    /// The error for one side's failing run outcome (stuck, or over budget),
    /// read through [`RunOutcome::into_answer`].
    fn of_side<IA>(side: &'static str, failed: RunOutcome<IA>) -> SimCheckError {
        match failed.into_answer() {
            Err(RunError::Wrong { stuck, trace }) => SimCheckError::Wrong { side, stuck, trace },
            Err(RunError::Budget {
                kind: BudgetKind::Fuel,
                trace,
                ..
            }) => SimCheckError::OutOfFuel { side, trace },
            Err(RunError::Budget {
                kind,
                detail,
                trace,
            }) => SimCheckError::BudgetExceeded {
                side,
                kind,
                detail,
                trace,
            },
            // A run stops at a failure before it completes or meets an
            // environment.
            Ok(_) | Err(RunError::EnvRefused(_)) => SimCheckError::EnvRefused,
        }
    }
}

/// Statistics from a successful simulation check.
#[derive(Debug, Clone, Default)]
pub struct SimCheckReport {
    /// Number of external-call boundaries checked (Fig. 6c instances).
    pub external_calls: usize,
    /// Internal steps taken by the source.
    pub source_steps: u64,
    /// Internal steps taken by the target.
    pub target_steps: u64,
    /// Events emitted by the source.
    pub source_trace: Vec<Event>,
}

/// Run one side to its next interaction, counting its steps in
/// `lts.sim_steps`.
fn interact<L: Lts>(
    side: &mut Run<'_, L>,
    name: &'static str,
    events: &mut Vec<Event>,
) -> Result<Interaction<L>, SimCheckError> {
    let before = side.stats.steps;
    let stop = side.next_interaction(events);
    let ran = side.stats.steps - before;
    crate::obs::bump(|c| c.sim_steps += ran);
    stop.map_err(|failed| SimCheckError::of_side(name, failed))
}

/// How the checker answers outgoing questions.
///
/// * [`EnvMode::Transport`]: one oracle answers the *source's* questions;
///   the target's answers are constructed through the outgoing convention's
///   [`SimConv::transport_reply`]. Works when the convention has a canonical
///   reply marshaling.
/// * [`EnvMode::Dual`]: two oracles answer the two sides independently (the
///   same abstract service implemented at both levels — how real
///   environments behave); the checker *verifies* their replies are related.
pub enum EnvMode<'e, Q1, A1, Q2, A2> {
    /// Source oracle only; target replies are transported.
    Transport(&'e mut dyn FnMut(&Q1) -> Option<A1>),
    /// Independent oracles for both sides.
    Dual(
        &'e mut dyn FnMut(&Q1) -> Option<A1>,
        &'e mut dyn FnMut(&Q2) -> Option<A2>,
    ),
}

/// Check the forward-simulation diagrams of paper Fig. 6 on one execution.
///
/// * `l1`, `l2` — source and target transition systems;
/// * `ra` — the outgoing convention `R_A : A1 ⇔ A2`;
/// * `rb` — the incoming convention `R_B : B1 ⇔ B2` (must support
///   [`SimConv::transport_query`]);
/// * `q1` — the source-level incoming question;
/// * `env1` — oracle answering the *source's* outgoing questions (the
///   target's are answered by transporting through `ra`);
/// * `fuel` — the internal-step budget of each side (resumes are free).
///
/// # Errors
/// Any violated diagram edge is reported as a [`SimCheckError`].
pub fn check_fwd_sim<L1, L2, RA, RB>(
    l1: &L1,
    l2: &L2,
    ra: &RA,
    rb: &RB,
    q1: &Question<L1::I>,
    env1: &mut crate::lts::Env<'_, Question<L1::O>, Answer<L1::O>>,
    fuel: u64,
) -> Result<SimCheckReport, SimCheckError>
where
    L1: Lts,
    L2: Lts,
    RB: SimConv<Left = L1::I, Right = L2::I>,
    RA: SimConv<Left = L1::O, Right = L2::O>,
{
    check_fwd_sim_env(l1, l2, ra, rb, q1, EnvMode::Transport(env1), fuel)
}

/// [`check_fwd_sim`] with an explicit environment mode (see [`EnvMode`]).
///
/// # Errors
/// Any violated diagram edge is reported as a [`SimCheckError`].
pub fn check_fwd_sim_env<L1, L2, RA, RB>(
    l1: &L1,
    l2: &L2,
    ra: &RA,
    rb: &RB,
    q1: &Question<L1::I>,
    env: EnvMode<'_, Question<L1::O>, Answer<L1::O>, Question<L2::O>, Answer<L2::O>>,
    fuel: u64,
) -> Result<SimCheckReport, SimCheckError>
where
    L1: Lts,
    L2: Lts,
    RB: SimConv<Left = L1::I, Right = L2::I>,
    RA: SimConv<Left = L1::O, Right = L2::O>,
{
    check_fwd_sim_budgeted(l1, l2, ra, rb, q1, env, &RunBudget::with_fuel(fuel))
}

/// [`check_fwd_sim_env`] under a full [`RunBudget`].
///
/// Each side runs on the runner's own loop (the same chunk policy as
/// [`crate::lts::run_budgeted`]) with its own fuel pool and trace ring,
/// from interaction to interaction: the Fig. 6 diagrams constrain only
/// questions, answers and final states. Resuming a side is free. The memory
/// / call-depth quotas are enforced per side through [`Lts::measure`], and
/// the wall-clock deadline bounds the whole check. Budget violations are
/// reported as [`SimCheckError::OutOfFuel`] /
/// [`SimCheckError::BudgetExceeded`] — the checker never panics or hangs on
/// a corrupted component.
///
/// # Errors
/// Any violated diagram edge or exceeded quota is reported as a
/// [`SimCheckError`].
pub fn check_fwd_sim_budgeted<L1, L2, RA, RB>(
    l1: &L1,
    l2: &L2,
    ra: &RA,
    rb: &RB,
    q1: &Question<L1::I>,
    mut env: EnvMode<'_, Question<L1::O>, Answer<L1::O>, Question<L2::O>, Answer<L2::O>>,
    budget: &RunBudget,
) -> Result<SimCheckReport, SimCheckError>
where
    L1: Lts,
    L2: Lts,
    RB: SimConv<Left = L1::I, Right = L2::I>,
    RA: SimConv<Left = L1::O, Right = L2::O>,
{
    // Incoming questions related at w_B (Fig. 6a).
    let (_, q2) = rb
        .transport_query(q1)
        .ok_or(SimCheckError::CannotTransportQuery)?;
    let wb = rb
        .match_query(q1, &q2)
        .into_iter()
        .next()
        .ok_or(SimCheckError::QueryNotRelated)?;

    if !l1.accepts(q1) {
        return Err(SimCheckError::NotAccepted { side: "source" });
    }
    if !l2.accepts(&q2) {
        return Err(SimCheckError::NotAccepted { side: "target" });
    }
    let s1 = l1.initial(q1).map_err(|stuck| SimCheckError::Wrong {
        side: "source",
        stuck,
        trace: StepTrace::default(),
    })?;
    let s2 = l2.initial(&q2).map_err(|stuck| SimCheckError::Wrong {
        side: "target",
        stuck,
        trace: StepTrace::default(),
    })?;

    let mut report = SimCheckReport::default();
    let started = budget.deadline.map(|_| Instant::now());
    let mut r1 = Run::new(l1, budget, s1, started, false);
    let mut r2 = Run::new(l2, budget, s2, started, false);
    let mut target_events = Vec::new();

    loop {
        let i1 = interact(&mut r1, "source", &mut report.source_trace)?;
        report.source_steps = r1.stats.steps;
        let i2 = interact(&mut r2, "target", &mut target_events)?;
        target_events.clear();
        report.target_steps = r2.stats.steps;

        match (i1, i2) {
            // Fig. 6b: final answers related at the incoming world.
            (Interaction::Final(r1), Interaction::Final(r2)) => {
                if rb.match_reply(&wb, &r1, &r2) {
                    return Ok(report);
                }
                return Err(SimCheckError::FinalNotRelated);
            }
            // Fig. 6c: outgoing questions related at some w_A; related
            // answers resume both sides.
            (Interaction::External(m1), Interaction::External(m2)) => {
                let wa = ra.match_query(&m1, &m2).into_iter().next().ok_or(
                    SimCheckError::ExternalNotRelated {
                        call: report.external_calls,
                    },
                )?;
                let (n1, n2) = match &mut env {
                    EnvMode::Transport(env1) => {
                        let n1 = env1(&m1).ok_or(SimCheckError::EnvRefused)?;
                        let n2 = ra
                            .transport_reply(&wa, &n1, &m2)
                            .ok_or(SimCheckError::CannotTransportReply)?;
                        (n1, n2)
                    }
                    EnvMode::Dual(env1, env2) => {
                        let n1 = env1(&m1).ok_or(SimCheckError::EnvRefused)?;
                        let n2 = env2(&m2).ok_or(SimCheckError::EnvRefused)?;
                        if !ra.match_reply(&wa, &n1, &n2) {
                            return Err(SimCheckError::EnvRepliesNotRelated {
                                call: report.external_calls,
                            });
                        }
                        (n1, n2)
                    }
                };
                report.external_calls += 1;
                r1.resume(n1, false).map_err(|stuck| SimCheckError::Wrong {
                    side: "source",
                    stuck,
                    trace: r1.trace(),
                })?;
                r2.resume(n2, false).map_err(|stuck| SimCheckError::Wrong {
                    side: "target",
                    stuck,
                    trace: r2.trace(),
                })?;
            }
            (Interaction::Final(_), Interaction::External(q)) => {
                return Err(SimCheckError::InteractionMismatch {
                    source: "returns".into(),
                    target: format!("calls out ({q:?})"),
                })
            }
            (Interaction::External(q), Interaction::Final(_)) => {
                return Err(SimCheckError::InteractionMismatch {
                    source: format!("calls out ({q:?})"),
                    target: "returns".into(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::IdConv;
    use crate::iface::{CQuery, CReply, Signature, C};
    use crate::lts::Batch;
    use mem::{Mem, Val};

    /// `scale`: multiplies its argument by a constant, calling `ext` once.
    #[derive(Clone)]
    struct Scale {
        factor: i32,
        broken: bool,
    }

    #[derive(Debug, Clone)]
    enum St {
        Start(Val, Mem),
        Wait(Val, Mem),
        Done(Val, Mem),
    }

    impl Lts for Scale {
        type I = C;
        type O = C;
        type State = St;

        fn name(&self) -> String {
            "scale".into()
        }

        fn accepts(&self, q: &CQuery) -> bool {
            q.vf == Val::Ptr(1, 0)
        }

        fn initial(&self, q: &CQuery) -> Result<St, Stuck> {
            Ok(St::Start(q.args[0], q.mem.clone()))
        }

        fn step_batch(
            &self,
            s: &mut St,
            _fuel_left: u64,
            _events: &mut Vec<Event>,
        ) -> Batch<CQuery, CReply> {
            match s {
                St::Start(v, m) => Batch::External(
                    0,
                    CQuery {
                        vf: Val::Ptr(2, 0),
                        sig: Signature::int_fn(1),
                        args: vec![*v],
                        mem: m.clone(),
                    },
                ),
                St::Wait(v, m) => {
                    let out = if self.broken {
                        v.add(Val::Int(self.factor))
                    } else {
                        v.mul(Val::Int(self.factor))
                    };
                    *s = St::Done(out, std::mem::take(m));
                    Batch::Ran(1)
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
                    *s = St::Wait(a.retval, a.mem);
                    Ok(())
                }
                _ => Err(Stuck::new("bad resume")),
            }
        }
    }

    fn q(n: i32) -> CQuery {
        CQuery {
            vf: Val::Ptr(1, 0),
            sig: Signature::int_fn(1),
            args: vec![Val::Int(n)],
            mem: Mem::new(),
        }
    }

    #[test]
    fn identical_components_simulate() {
        let l = Scale {
            factor: 3,
            broken: false,
        };
        let report = check_fwd_sim(
            &l,
            &l.clone(),
            &IdConv::<C>::new(),
            &IdConv::<C>::new(),
            &q(5),
            &mut |m: &CQuery| {
                Some(CReply {
                    retval: m.args[0],
                    mem: m.mem.clone(),
                })
            },
            1000,
        )
        .expect("simulation holds");
        assert_eq!(report.external_calls, 1);
    }

    #[test]
    fn miscompiled_component_detected() {
        let src = Scale {
            factor: 3,
            broken: false,
        };
        let tgt = Scale {
            factor: 3,
            broken: true, // adds instead of multiplying
        };
        let err = check_fwd_sim(
            &src,
            &tgt,
            &IdConv::<C>::new(),
            &IdConv::<C>::new(),
            &q(5),
            &mut |m: &CQuery| {
                Some(CReply {
                    retval: m.args[0],
                    mem: m.mem.clone(),
                })
            },
            1000,
        )
        .unwrap_err();
        assert!(matches!(err, SimCheckError::FinalNotRelated));
    }
}
