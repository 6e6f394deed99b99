//! Simulation conventions (paper Def. 2.6) as executable relations.
//!
//! A simulation convention `R : A1 ⇔ A2` is a Kripke relation between the
//! questions and answers of two language interfaces: a set of worlds `W`, a
//! question relation `R∘ ∈ R_W(A1∘, A2∘)` and an answer relation
//! `R• ∈ R_W(A1•, A2•)`. The world chosen when a pair of questions is related
//! is the one at which the corresponding answers must be related — this is
//! what makes the rely/guarantee discipline of open simulations work
//! (paper Fig. 6).
//!
//! In Coq these are relations; here they are *checkers*:
//! [`SimConv::match_query`] enumerates candidate witness worlds for a pair of
//! questions (the ∃w of Def. 5.1), and [`SimConv::match_reply`] decides the
//! answer relation at a world. Conventions that admit a canonical *marshaling*
//! direction additionally implement [`SimConv::transport_query`] /
//! [`SimConv::transport_reply`], which the differential simulation checker
//! (module [`crate::sim`]) uses to construct the target side of a test run.

use std::fmt;
use std::marker::PhantomData;

use crate::iface::{Answer, LanguageInterface, Question};

/// An executable simulation convention `R : L ⇔ R` (paper Def. 2.6).
pub trait SimConv {
    /// Source-side language interface (`A1`).
    type Left: LanguageInterface;
    /// Target-side language interface (`A2`).
    type Right: LanguageInterface;
    /// Kripke worlds.
    type World: Clone + fmt::Debug;

    /// Display name (used in derivations and tables).
    fn name(&self) -> String;

    /// Candidate worlds `w` such that `w ⊩ q1 R∘ q2`; empty when unrelated.
    ///
    /// For most conventions the witness is unique, so the result has length
    /// 0 or 1.
    fn match_query(
        &self,
        q1: &Question<Self::Left>,
        q2: &Question<Self::Right>,
    ) -> Vec<Self::World>;

    /// Does `w ⊩ r1 R• r2` hold? Conventions whose answer relation is
    /// guarded by the `^` modality (paper §4.4) search for an accessible
    /// world internally.
    fn match_reply(
        &self,
        w: &Self::World,
        r1: &Answer<Self::Left>,
        r2: &Answer<Self::Right>,
    ) -> bool;

    /// Canonical marshaling: construct the target-side question (and the
    /// world witnessing the relation) from a source-side question.
    ///
    /// Returns `None` when the convention has no canonical forward direction
    /// (e.g. [`crate::cc::Lm`], whose natural direction is backward).
    fn transport_query(
        &self,
        _q1: &Question<Self::Left>,
    ) -> Option<(Self::World, Question<Self::Right>)> {
        None
    }

    /// Canonical marshaling of replies: construct the target-side reply from
    /// the source-side reply (used by simulation-checking environments to
    /// answer the target component consistently with the source).
    ///
    /// `q2` is the original target-side question, needed by conventions whose
    /// replies echo parts of the question (callee-save registers, stack
    /// pointers).
    fn transport_reply(
        &self,
        _w: &Self::World,
        _r1: &Answer<Self::Left>,
        _q2: &Question<Self::Right>,
    ) -> Option<Answer<Self::Right>> {
        None
    }
}

/// The identity simulation convention `id_A := ⟨1, =, =⟩ : A ⇔ A`
/// (paper Def. 2.6).
pub struct IdConv<I> {
    _marker: PhantomData<fn() -> I>,
}

impl<I> IdConv<I> {
    /// The identity convention for interface `I`.
    pub fn new() -> IdConv<I> {
        IdConv {
            _marker: PhantomData,
        }
    }
}

impl<I> Default for IdConv<I> {
    fn default() -> Self {
        IdConv::new()
    }
}

impl<I> fmt::Debug for IdConv<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("IdConv")
    }
}

impl<I: LanguageInterface> SimConv for IdConv<I> {
    type Left = I;
    type Right = I;
    type World = ();

    fn name(&self) -> String {
        "id".into()
    }

    fn match_query(&self, q1: &Question<I>, q2: &Question<I>) -> Vec<()> {
        if q1 == q2 {
            vec![()]
        } else {
            vec![]
        }
    }

    fn match_reply(&self, _w: &(), r1: &Answer<I>, r2: &Answer<I>) -> bool {
        r1 == r2
    }

    fn transport_query(&self, q1: &Question<I>) -> Option<((), Question<I>)> {
        Some(((), q1.clone()))
    }

    fn transport_reply(&self, _w: &(), r1: &Answer<I>, _q2: &Question<I>) -> Option<Answer<I>> {
        Some(r1.clone())
    }
}

/// Composition of simulation conventions `R · S : A ⇔ C` for `R : A ⇔ B`
/// and `S : B ⇔ C` (paper Def. 3.6).
///
/// Worlds are pairs `(w_R, w_S)` *plus the interpolating question* `q_B`:
/// the Coq definition existentially quantifies the middle question, and the
/// checker must remember the witness to transport replies through the middle
/// interface.
///
/// `match_query` synthesizes the middle question with
/// [`SimConv::transport_query`] of the first convention — composition is
/// therefore only checkable when its left factor has a canonical marshaling
/// direction (true of every composition the compiler pipeline uses).
pub struct ComposeConv<R, S> {
    r: R,
    s: S,
}

impl<R, S, B> ComposeConv<R, S>
where
    B: LanguageInterface,
    R: SimConv<Right = B>,
    S: SimConv<Left = B>,
{
    /// Compose two conventions sharing a middle interface.
    pub fn new(r: R, s: S) -> ComposeConv<R, S> {
        ComposeConv { r, s }
    }
}

impl<R, S, B> SimConv for ComposeConv<R, S>
where
    B: LanguageInterface,
    R: SimConv<Right = B>,
    S: SimConv<Left = B>,
{
    type Left = R::Left;
    type Right = S::Right;
    type World = (R::World, S::World, Question<B>);

    fn name(&self) -> String {
        format!("{} · {}", self.r.name(), self.s.name())
    }

    fn match_query(
        &self,
        q1: &Question<Self::Left>,
        q3: &Question<Self::Right>,
    ) -> Vec<Self::World> {
        let mut worlds = Vec::new();
        if let Some((_, q2)) = self.r.transport_query(q1) {
            for wr in self.r.match_query(q1, &q2) {
                for ws in self.s.match_query(&q2, q3) {
                    worlds.push((wr.clone(), ws, q2.clone()));
                }
            }
        }
        worlds
    }

    fn match_reply(
        &self,
        (wr, ws, q2): &Self::World,
        r1: &Answer<Self::Left>,
        r3: &Answer<Self::Right>,
    ) -> bool {
        match self.r.transport_reply(wr, r1, q2) {
            Some(r2) => self.r.match_reply(wr, r1, &r2) && self.s.match_reply(ws, &r2, r3),
            None => false,
        }
    }

    fn transport_query(
        &self,
        q1: &Question<Self::Left>,
    ) -> Option<(Self::World, Question<Self::Right>)> {
        let (wr, q2) = self.r.transport_query(q1)?;
        let (ws, q3) = self.s.transport_query(&q2)?;
        Some(((wr, ws, q2), q3))
    }

    fn transport_reply(
        &self,
        (wr, ws, q2): &Self::World,
        r1: &Answer<Self::Left>,
        q3: &Question<Self::Right>,
    ) -> Option<Answer<Self::Right>> {
        let r2 = self.r.transport_reply(wr, r1, q2)?;
        self.s.transport_reply(ws, &r2, q3)
    }
}

/// One sample of [`check_refinement_on`]: an `L`-level and an `R`-level
/// question, and the pairs of answers to compare.
pub type RefinementSample<L, R> = (Question<L>, Question<R>, Vec<(Answer<L>, Answer<R>)>);

/// Refinement check `R ⊑ S` on a *sample* of question/answer quadruples
/// (paper Def. 5.1): for every sampled pair of `S`-related questions there
/// must be an `R`-world relating them such that `R`-related answers are
/// `S`-related back at the original world.
///
/// This is the runtime analog of the refinement laws validated symbolically
/// by [`crate::algebra`]; it can only *refute* a refinement (by exhibiting a
/// counterexample from the sample), never prove it.
pub fn check_refinement_on<RC, SC>(
    r: &RC,
    s: &SC,
    samples: &[RefinementSample<RC::Left, RC::Right>],
) -> Result<(), String>
where
    RC: SimConv,
    SC: SimConv<Left = RC::Left, Right = RC::Right>,
{
    for (i, (q1, q2, answers)) in samples.iter().enumerate() {
        let s_worlds = s.match_query(q1, q2);
        if s_worlds.is_empty() {
            continue; // not S-related: nothing to check
        }
        let r_worlds = r.match_query(q1, q2);
        if r_worlds.is_empty() {
            return Err(format!(
                "sample {i}: questions are {}-related but not {}-related",
                s.name(),
                r.name()
            ));
        }
        // Some R-world must transport every R-related answer pair back to S.
        let ok = r_worlds.iter().any(|v| {
            answers.iter().all(|(n1, n2)| {
                !r.match_reply(v, n1, n2) || s_worlds.iter().any(|w| s.match_reply(w, n1, n2))
            })
        });
        if !ok {
            return Err(format!(
                "sample {i}: no {}-world transports answers back to {}",
                r.name(),
                s.name()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{CQuery, CReply, Signature, C};
    use mem::{Mem, Val};

    fn cq(n: i32) -> CQuery {
        CQuery {
            vf: Val::Ptr(0, 0),
            sig: Signature::int_fn(1),
            args: vec![Val::Int(n)],
            mem: Mem::new(),
        }
    }

    fn cr(n: i32) -> CReply {
        CReply {
            retval: Val::Int(n),
            mem: Mem::new(),
        }
    }

    #[test]
    fn identity_relates_equal_questions() {
        let id = IdConv::<C>::new();
        assert_eq!(id.match_query(&cq(1), &cq(1)).len(), 1);
        assert!(id.match_query(&cq(1), &cq(2)).is_empty());
        assert!(id.match_reply(&(), &cr(3), &cr(3)));
        assert!(!id.match_reply(&(), &cr(3), &cr(4)));
    }

    #[test]
    fn composition_of_identities_is_identity_like() {
        let c = ComposeConv::new(IdConv::<C>::new(), IdConv::<C>::new());
        let ws = c.match_query(&cq(1), &cq(1));
        assert_eq!(ws.len(), 1);
        assert!(c.match_reply(&ws[0], &cr(2), &cr(2)));
        assert!(!c.match_reply(&ws[0], &cr(2), &cr(3)));
        let (_, q) = c.transport_query(&cq(7)).unwrap();
        assert_eq!(q, cq(7));
    }

    #[test]
    fn refinement_id_refines_itself() {
        let id1 = IdConv::<C>::new();
        let id2 = IdConv::<C>::new();
        let samples = vec![(cq(1), cq(1), vec![(cr(2), cr(2)), (cr(3), cr(3))])];
        assert!(check_refinement_on(&id1, &id2, &samples).is_ok());
    }
}
