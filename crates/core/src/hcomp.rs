//! Horizontal composition `L1 ⊕ L2` (paper Def. 3.2 and Fig. 5).
//!
//! Both components play the same game `A ↠ A`; the composite maintains an
//! alternating stack of suspended activations so the components can call each
//! other with arbitrary mutual-recursion depth. An outgoing question that
//! neither component accepts escapes to the environment (rule *x∘*); the
//! environment's answer resumes the innermost suspended activation (rule
//! *x•*).

use crate::iface::{Answer, LanguageInterface, Question};
use crate::lts::{Batch, Event, Lts, StateMeasure, Stuck};

/// A suspended or active activation of one of the two components.
#[derive(Debug, Clone)]
pub enum Frame<S1, S2> {
    /// An activation of the left component.
    Left(S1),
    /// An activation of the right component.
    Right(S2),
}

/// State of the composite: a non-empty stack of activations (the `(S1+S2)*`
/// of Def. 3.2). The last frame is the active component; the composite
/// steps it in place, so a transition copies nothing.
#[derive(Debug, Clone)]
pub struct HState<S1, S2> {
    stack: Vec<Frame<S1, S2>>,
}

impl<S1, S2> HState<S1, S2> {
    /// Current activation depth (for tests and diagnostics).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }
}

/// The horizontal composition `L1 ⊕ L2` of two components over the same
/// interface (paper Def. 3.2).
///
/// Questions accepted by `L1` take priority when both components accept
/// (linking with overlapping domains is ruled out upstream by the symbol
/// table, so this tie-break is never exercised in practice).
///
/// # Example
///
/// Composition is itself an [`Lts`], so it nests: `(l1 ⊕ l2) ⊕ l3` models
/// three-way linking.
#[derive(Debug, Clone)]
pub struct HComp<L1, L2> {
    l1: L1,
    l2: L2,
}

impl<I, L1, L2> HComp<L1, L2>
where
    I: LanguageInterface,
    L1: Lts<I = I, O = I>,
    L2: Lts<I = I, O = I>,
{
    /// Compose two components over the same interface.
    pub fn new(l1: L1, l2: L2) -> HComp<L1, L2> {
        HComp { l1, l2 }
    }

    /// The left component.
    pub fn left(&self) -> &L1 {
        &self.l1
    }

    /// The right component.
    pub fn right(&self) -> &L2 {
        &self.l2
    }

    /// Resume the suspended activation `f` with `a`, in place.
    fn resume_frame(&self, f: &mut Frame<L1::State, L2::State>, a: Answer<I>) -> Result<(), Stuck> {
        match f {
            Frame::Left(st) => self.l1.resume(st, a),
            Frame::Right(st) => self.l2.resume(st, a),
        }
    }

    fn push_for(&self, q: &Question<I>) -> Option<Result<Frame<L1::State, L2::State>, Stuck>> {
        if self.l1.accepts(q) {
            Some(self.l1.initial(q).map(Frame::Left))
        } else if self.l2.accepts(q) {
            Some(self.l2.initial(q).map(Frame::Right))
        } else {
            None
        }
    }
}

impl<I, L1, L2> Lts for HComp<L1, L2>
where
    I: LanguageInterface,
    L1: Lts<I = I, O = I>,
    L2: Lts<I = I, O = I>,
{
    type I = I;
    type O = I;
    type State = HState<L1::State, L2::State>;

    fn name(&self) -> String {
        format!("({} ⊕ {})", self.l1.name(), self.l2.name())
    }

    fn accepts(&self, q: &Question<I>) -> bool {
        // Rule i∘: D = D1 ∪ D2.
        self.l1.accepts(q) || self.l2.accepts(q)
    }

    fn initial(&self, q: &Question<I>) -> Result<Self::State, Stuck> {
        match self.push_for(q) {
            Some(frame) => Ok(HState {
                stack: vec![frame?],
            }),
            None => Err(Stuck::new("hcomp: question accepted by neither component")),
        }
    }

    fn step_batch(
        &self,
        s: &mut Self::State,
        fuel_left: u64,
        events: &mut Vec<Event>,
    ) -> Batch<Question<I>, Answer<I>> {
        let mut used = 0;
        loop {
            if used == fuel_left {
                return Batch::Ran(used);
            }
            // The stack is non-empty by construction; if a corrupted state ever
            // violates that, go wrong instead of panicking.
            let Some(top) = s.stack.last_mut() else {
                return Batch::Stuck(used, Stuck::new("hcomp: empty activation stack"));
            };
            // Rule "run": the active component's own batch, in place.
            let batch = match top {
                Frame::Left(st) => self.l1.step_batch(st, fuel_left - used, events),
                Frame::Right(st) => self.l2.step_batch(st, fuel_left - used, events),
            };
            match batch {
                Batch::Ran(n) => used += n,
                // Rules i• (the only frame answers the environment) and "pop"
                // (the answer resumes the caller below, one step: the batch
                // contract leaves `used < fuel_left`, so it fits).
                Batch::Final(n, a) => {
                    used += n;
                    let [.., caller, _] = s.stack.as_mut_slice() else {
                        return Batch::Final(used, a);
                    };
                    if let Err(stuck) = self.resume_frame(caller, a) {
                        return Batch::Stuck(used, stuck);
                    }
                    s.stack.pop();
                    used += 1;
                }
                // Rules "push" (a cross or self call, one step) and x∘ (escape
                // to the environment).
                Batch::External(n, q) => {
                    used += n;
                    match self.push_for(&q) {
                        Some(Ok(frame)) => s.stack.push(frame),
                        Some(Err(stuck)) => return Batch::Stuck(used, stuck),
                        None => return Batch::External(used, q),
                    }
                    used += 1;
                }
                Batch::Stuck(n, stuck) => return Batch::Stuck(used + n, stuck),
            }
        }
    }

    fn resume(&self, s: &mut Self::State, a: Answer<I>) -> Result<(), Stuck> {
        // Rule x•: the environment's answer resumes the active component.
        match s.stack.last_mut() {
            Some(top) => self.resume_frame(top, a),
            None => Err(Stuck::new("hcomp: empty activation stack")),
        }
    }

    /// The active (last) frame owns the current memory. The call depth is
    /// what the linked program would report: every frame's own nesting,
    /// plus one level per suspended cross-component call. Asm reports depth
    /// 0, so an Asm ⊕ counts only those boundaries.
    fn measure(&self, s: &Self::State) -> StateMeasure {
        let mut m = StateMeasure {
            mem_bytes: 0,
            call_depth: s.stack.len().saturating_sub(1) as u64,
        };
        for f in &s.stack {
            let fm = match f {
                Frame::Left(st) => self.l1.measure(st),
                Frame::Right(st) => self.l2.measure(st),
            };
            m.mem_bytes = fm.mem_bytes;
            m.call_depth = m.call_depth.saturating_add(fm.call_depth);
        }
        m
    }
}
