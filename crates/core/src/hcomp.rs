//! Horizontal composition `L1 ⊕ L2` (paper Def. 3.2 and Fig. 5).
//!
//! Both components play the same game `A ↠ A`; the composite maintains an
//! alternating stack of suspended activations so the components can call each
//! other with arbitrary mutual-recursion depth. An outgoing question that
//! neither component accepts escapes to the environment (rule *x∘*); the
//! environment's answer resumes the innermost suspended activation (rule
//! *x•*).

use std::fmt;
use std::rc::Rc;

use crate::iface::{Answer, LanguageInterface, Question};
use crate::lts::{Lts, Step, Stuck};

/// Which component of the composition a frame belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

/// A suspended or active activation of one of the two components.
#[derive(Debug, Clone)]
pub struct Frame<S1, S2> {
    side: Side,
    left: Option<S1>,
    right: Option<S2>,
}

impl<S1, S2> Frame<S1, S2> {
    fn left(s: S1) -> Frame<S1, S2> {
        Frame {
            side: Side::Left,
            left: Some(s),
            right: None,
        }
    }

    fn right(s: S2) -> Frame<S1, S2> {
        Frame {
            side: Side::Right,
            left: None,
            right: Some(s),
        }
    }
}

/// A persistent (structure-shared) stack: cloning is O(1), which keeps each
/// step of the composite O(active frame) instead of O(recursion depth).
#[derive(Debug, Clone)]
pub struct PStack<T>(Option<Rc<PNode<T>>>);

#[derive(Debug, Clone)]
struct PNode<T> {
    head: T,
    len: usize,
    tail: PStack<T>,
}

impl<T: Clone> PStack<T> {
    /// The empty stack.
    pub fn new() -> PStack<T> {
        PStack(None)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.0.as_ref().map(|n| n.len).unwrap_or(0)
    }

    /// Is the stack empty?
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// The stack with `item` pushed.
    pub fn push(&self, item: T) -> PStack<T> {
        PStack(Some(Rc::new(PNode {
            head: item,
            len: self.len() + 1,
            tail: self.clone(),
        })))
    }

    /// The top element.
    pub fn top(&self) -> Option<&T> {
        self.0.as_ref().map(|n| &n.head)
    }

    /// The top element, mutably: the top node is copied first only when
    /// another stack shares it.
    pub fn top_mut(&mut self) -> Option<&mut T> {
        self.0.as_mut().map(|n| &mut Rc::make_mut(n).head)
    }

    /// The stack without its top element.
    pub fn pop(&self) -> Option<(T, PStack<T>)> {
        self.0.as_ref().map(|n| (n.head.clone(), n.tail.clone()))
    }

    /// The stack with the top element replaced.
    pub fn replace_top(&self, item: T) -> PStack<T> {
        match self.pop() {
            Some((_, rest)) => rest.push(item),
            None => PStack::new().push(item),
        }
    }
}

impl<T: Clone> Default for PStack<T> {
    fn default() -> Self {
        PStack::new()
    }
}

/// State of the composite: a non-empty stack of activations (the `(S1+S2)*`
/// of Def. 3.2). The top of the stack is the active component.
#[derive(Debug, Clone)]
pub struct HState<S1, S2> {
    stack: PStack<Frame<S1, S2>>,
}

impl<S1, S2> HState<S1, S2>
where
    S1: Clone,
    S2: Clone,
{
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
        match (f.side, f.left.as_mut(), f.right.as_mut()) {
            (Side::Left, Some(st), _) => self.l1.resume(st, a),
            (Side::Right, _, Some(st)) => self.l2.resume(st, a),
            _ => Err(Stuck::new("hcomp: frame side/state mismatch")),
        }
    }

    fn push_for(&self, q: &Question<I>) -> Option<Result<Frame<L1::State, L2::State>, Stuck>> {
        if self.l1.accepts(q) {
            Some(self.l1.initial(q).map(Frame::left))
        } else if self.l2.accepts(q) {
            Some(self.l2.initial(q).map(Frame::right))
        } else {
            None
        }
    }
}

impl<I, L1, L2> Lts for HComp<L1, L2>
where
    I: LanguageInterface,
    I::Question: fmt::Debug + Clone,
    I::Answer: fmt::Debug + Clone,
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
                stack: PStack::new().push(frame?),
            }),
            None => Err(Stuck::new("hcomp: question accepted by neither component")),
        }
    }

    fn step(&self, s: &Self::State) -> Step<Self::State, Question<I>, Answer<I>> {
        // The stack is non-empty by construction; if a corrupted state ever
        // violates that, go wrong instead of panicking.
        let Some(top) = s.stack.top() else {
            return Step::Stuck(Stuck::new("hcomp: empty activation stack"));
        };
        // Run the active component one step.
        let inner: Step<Frame<L1::State, L2::State>, Question<I>, Answer<I>> = match (
            top.side,
            top.left.as_ref(),
            top.right.as_ref(),
        ) {
            (Side::Left, Some(st), _) => match self.l1.step(st) {
                Step::Internal(st, evs) => Step::Internal(Frame::left(st), evs),
                Step::Final(a) => Step::Final(a),
                Step::External(q) => Step::External(q),
                Step::Stuck(x) => Step::Stuck(x),
            },
            (Side::Right, _, Some(st)) => match self.l2.step(st) {
                Step::Internal(st, evs) => Step::Internal(Frame::right(st), evs),
                Step::Final(a) => Step::Final(a),
                Step::External(q) => Step::External(q),
                Step::Stuck(x) => Step::Stuck(x),
            },
            _ => return Step::Stuck(Stuck::new("hcomp: frame side/state mismatch")),
        };
        match inner {
            // Rule "run".
            Step::Internal(frame, evs) => Step::Internal(
                HState {
                    stack: s.stack.replace_top(frame),
                },
                evs,
            ),
            // Rules i• (empty rest) and "pop" (resume the caller below).
            Step::Final(a) => {
                if s.stack.len() == 1 {
                    Step::Final(a)
                } else {
                    let Some((_, rest)) = s.stack.pop() else {
                        return Step::Stuck(Stuck::new("hcomp: empty activation stack"));
                    };
                    let Some((mut caller, below)) = rest.pop() else {
                        return Step::Stuck(Stuck::new("hcomp: no caller below final frame"));
                    };
                    match self.resume_frame(&mut caller, a) {
                        Ok(()) => Step::Internal(
                            HState {
                                stack: below.push(caller),
                            },
                            vec![],
                        ),
                        Err(stuck) => Step::Stuck(stuck),
                    }
                }
            }
            // Rules "push" (cross/self call) and x∘ (escape to environment).
            Step::External(q) => match self.push_for(&q) {
                Some(Ok(frame)) => Step::Internal(
                    HState {
                        stack: s.stack.push(frame),
                    },
                    vec![],
                ),
                Some(Err(stuck)) => Step::Stuck(stuck),
                None => Step::External(q),
            },
            Step::Stuck(x) => Step::Stuck(x),
        }
    }

    fn resume(&self, s: &mut Self::State, a: Answer<I>) -> Result<(), Stuck> {
        // Rule x•: the environment's answer resumes the active component.
        match s.stack.top_mut() {
            Some(top) => self.resume_frame(top, a),
            None => Err(Stuck::new("hcomp: empty activation stack")),
        }
    }

    fn measure(&self, s: &Self::State) -> crate::lts::StateMeasure {
        // The top frame owns the current memory; every frame below it is a
        // suspended activation and counts as one call level.
        let Some(top) = s.stack.top() else {
            return crate::lts::StateMeasure::default();
        };
        let m = match top.side {
            Side::Left => top
                .left
                .as_ref()
                .map(|st| self.l1.measure(st))
                .unwrap_or_default(),
            Side::Right => top
                .right
                .as_ref()
                .map(|st| self.l2.measure(st))
                .unwrap_or_default(),
        };
        crate::lts::StateMeasure {
            mem_bytes: m.mem_bytes,
            call_depth: m
                .call_depth
                .saturating_add(s.stack.len().saturating_sub(1) as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pstack_push_pop_share_structure() {
        let s0: PStack<i32> = PStack::new();
        assert!(s0.is_empty());
        let s1 = s0.push(1);
        let s2 = s1.push(2);
        let s3 = s2.push(3);
        assert_eq!(s3.len(), 3);
        assert_eq!(s3.top(), Some(&3));
        // Popping returns the shared tail; the original is untouched.
        let (top, rest) = s3.pop().unwrap();
        assert_eq!(top, 3);
        assert_eq!(rest.len(), 2);
        assert_eq!(s3.len(), 3);
        // replace_top swaps only the head.
        let s3b = s3.replace_top(99);
        assert_eq!(s3b.top(), Some(&99));
        assert_eq!(s3b.pop().unwrap().1.top(), Some(&2));
        assert_eq!(s3.top(), Some(&3), "original unchanged");
    }

    #[test]
    fn pstack_replace_top_on_empty_pushes() {
        let s: PStack<i32> = PStack::new();
        let s = s.replace_top(7);
        assert_eq!(s.len(), 1);
        assert_eq!(s.top(), Some(&7));
    }
}
