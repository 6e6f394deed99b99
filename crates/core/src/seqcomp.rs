//! Sequential (layered) composition `L1 ∘ L2` (paper §3.5).
//!
//! For `L1 : B ↠ C` and `L2 : A ↠ B`, calls propagate from the environment
//! into `L1`, from `L1` into `L2`, and from `L2` out to the environment —
//! but `L2` cannot call back into `L1`. This is the operator used to stack
//! the NIC-driver scenario of paper Fig. 7
//! (`Asm(p') ∘ σ'_io ∘ σ_NIC`).
//!
//! In the homogeneous case `A = B = C`, sequential composition
//! under-approximates horizontal composition [`crate::hcomp::HComp`].

use crate::iface::{Answer, LanguageInterface, Question};
use crate::lts::{Lts, Step, Stuck};

/// State of a sequential composition: the upper activation plus, while the
/// upper component waits on it, a lower activation.
#[derive(Debug, Clone)]
pub struct SeqState<S1, S2> {
    upper: S1,
    lower: Option<S2>,
}

/// The sequential composition `L1 ∘ L2` (paper §3.5): `L1 : B ↠ C` provides
/// the incoming interface; its outgoing questions are served by
/// `L2 : A ↠ B`; questions of `A` escape to the environment.
///
/// The composition is *non-recursive*: at most one activation of `L2` is
/// alive at a time, and `L2` never re-enters `L1`. If `L1` asks a question
/// `L2` does not accept, the composite goes wrong (there is nowhere else for
/// a `B`-question to go).
#[derive(Debug, Clone)]
pub struct SeqComp<L1, L2> {
    l1: L1,
    l2: L2,
}

impl<L1, L2, B> SeqComp<L1, L2>
where
    B: LanguageInterface,
    L1: Lts<O = B>,
    L2: Lts<I = B>,
{
    /// Layer `l1` on top of `l2`.
    pub fn new(l1: L1, l2: L2) -> SeqComp<L1, L2> {
        SeqComp { l1, l2 }
    }

    /// The upper component.
    pub fn upper(&self) -> &L1 {
        &self.l1
    }

    /// The lower component.
    pub fn lower(&self) -> &L2 {
        &self.l2
    }
}

impl<L1, L2, B> Lts for SeqComp<L1, L2>
where
    B: LanguageInterface,
    L1: Lts<O = B>,
    L2: Lts<I = B>,
{
    type I = L1::I;
    type O = L2::O;
    type State = SeqState<L1::State, L2::State>;

    fn name(&self) -> String {
        format!("({} ∘ {})", self.l1.name(), self.l2.name())
    }

    fn accepts(&self, q: &Question<Self::I>) -> bool {
        self.l1.accepts(q)
    }

    fn initial(&self, q: &Question<Self::I>) -> Result<Self::State, Stuck> {
        Ok(SeqState {
            upper: self.l1.initial(q)?,
            lower: None,
        })
    }

    fn step(&self, s: &Self::State) -> Step<Self::State, Question<Self::O>, Answer<Self::I>> {
        match &s.lower {
            // The lower component is active.
            Some(low) => match self.l2.step(low) {
                Step::Internal(low2, evs) => Step::Internal(
                    SeqState {
                        upper: s.upper.clone(),
                        lower: Some(low2),
                    },
                    evs,
                ),
                Step::Final(b_answer) => {
                    let mut upper = s.upper.clone();
                    match self.l1.resume(&mut upper, b_answer) {
                        Ok(()) => Step::Internal(SeqState { upper, lower: None }, vec![]),
                        Err(stuck) => Step::Stuck(stuck),
                    }
                }
                Step::External(aq) => Step::External(aq),
                Step::Stuck(x) => Step::Stuck(x),
            },
            // The upper component is active.
            None => match self.l1.step(&s.upper) {
                Step::Internal(upper2, evs) => Step::Internal(
                    SeqState {
                        upper: upper2,
                        lower: None,
                    },
                    evs,
                ),
                Step::Final(a) => Step::Final(a),
                Step::External(bq) => {
                    if !self.l2.accepts(&bq) {
                        return Step::Stuck(Stuck::new(format!(
                            "seqcomp: lower component {} rejects question",
                            self.l2.name()
                        )));
                    }
                    match self.l2.initial(&bq) {
                        Ok(low) => Step::Internal(
                            SeqState {
                                upper: s.upper.clone(),
                                lower: Some(low),
                            },
                            vec![],
                        ),
                        Err(stuck) => Step::Stuck(stuck),
                    }
                }
                Step::Stuck(x) => Step::Stuck(x),
            },
        }
    }

    fn resume(&self, s: &mut Self::State, a: Answer<Self::O>) -> Result<(), Stuck> {
        match &mut s.lower {
            Some(low) => self.l2.resume(low, a),
            None => Err(Stuck::new(
                "seqcomp: environment answer while lower component inactive",
            )),
        }
    }

    fn measure(&self, s: &Self::State) -> crate::lts::StateMeasure {
        let up = self.l1.measure(&s.upper);
        match &s.lower {
            // While the lower component runs, its memory is the current one
            // (the upper holds a stale snapshot): take the max footprint, and
            // count the suspended upper activation as one extra call level.
            Some(low) => {
                let lo = self.l2.measure(low);
                crate::lts::StateMeasure {
                    mem_bytes: lo.mem_bytes.max(up.mem_bytes),
                    call_depth: up
                        .call_depth
                        .saturating_add(lo.call_depth)
                        .saturating_add(1),
                }
            }
            None => up,
        }
    }
}
