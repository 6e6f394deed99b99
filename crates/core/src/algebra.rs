//! The simulation convention algebra (paper §5): symbolic convention
//! expressions, the refinement laws of Thm. 5.2 / Lemmas 5.3–5.8 /
//! Thm. 5.6, and a rewriting engine that derives the whole-compiler
//! convention `C = R* · wt · CA · vainj` from the per-pass conventions of
//! Table 3 — the executable counterpart of the proof outlined in paper
//! Figs. 10 and 11.
//!
//! Expressions are *syntax*; each derivation step records the law that
//! justifies it, and [`Derivation::verify`] replays the steps, checking each
//! against its law's syntactic pattern. The runtime soundness of the
//! individual laws on concrete data is exercised separately by the property
//! tests in `tests/`.

use std::fmt;

/// The language interface an expression endpoint lives at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IfaceTag {
    /// C-level calls.
    C,
    /// Abstract locations.
    L,
    /// Machine registers.
    M,
    /// Architecture registers.
    A,
}

impl fmt::Display for IfaceTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IfaceTag::C => "C",
            IfaceTag::L => "L",
            IfaceTag::M => "M",
            IfaceTag::A => "A",
        };
        f.write_str(s)
    }
}

/// A CKLR name (interface-polymorphic; promoted to an interface by
/// [`Atom::Cklr`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CklrTag {
    /// Memory extensions.
    Ext,
    /// Memory injections.
    Inj,
    /// Injections with call-time protection.
    Injp,
    /// `va · ext`.
    VaExt,
    /// `va · inj`.
    VaInj,
}

impl CklrTag {
    /// All CKLRs in the sum `R` (paper §5).
    pub const R_COMPONENTS: [CklrTag; 5] = [
        CklrTag::Injp,
        CklrTag::Inj,
        CklrTag::Ext,
        CklrTag::VaInj,
        CklrTag::VaExt,
    ];
}

impl fmt::Display for CklrTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CklrTag::Ext => "ext",
            CklrTag::Inj => "inj",
            CklrTag::Injp => "injp",
            CklrTag::VaExt => "vaext",
            CklrTag::VaInj => "vainj",
        };
        f.write_str(s)
    }
}

/// An atomic simulation convention.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Atom {
    /// The identity convention at an interface.
    Id(IfaceTag),
    /// A CKLR promoted to an interface (`R_X`, paper §4.4).
    Cklr(CklrTag, IfaceTag),
    /// The typing invariant `wt` (C level, paper App. B.2).
    Wt,
    /// The value-analysis invariant `va` (C level, paper App. B.3).
    Va,
    /// The structural convention `CL : C ⇔ L` (paper App. C.1).
    Cl,
    /// The structural convention `LM : L ⇔ M` (paper App. C.2).
    Lm,
    /// The structural convention `MA : M ⇔ A` (paper App. C.3).
    Ma,
    /// The sum `R = injp + inj + ext + vainj + vaext` at an interface.
    RSum(IfaceTag),
    /// The Kleene star `R*` at an interface (paper Def. 5.5).
    RStar(IfaceTag),
}

impl Atom {
    /// The `(left, right)` interfaces this atom relates.
    pub fn typing(&self) -> (IfaceTag, IfaceTag) {
        match self {
            Atom::Id(x) => (*x, *x),
            Atom::Cklr(_, x) => (*x, *x),
            Atom::Wt | Atom::Va => (IfaceTag::C, IfaceTag::C),
            Atom::Cl => (IfaceTag::C, IfaceTag::L),
            Atom::Lm => (IfaceTag::L, IfaceTag::M),
            Atom::Ma => (IfaceTag::M, IfaceTag::A),
            Atom::RSum(x) | Atom::RStar(x) => (*x, *x),
        }
    }

    /// Is this a structural calling-convention atom (`CL`, `LM`, `MA`)?
    pub fn is_structural(&self) -> bool {
        matches!(self, Atom::Cl | Atom::Lm | Atom::Ma)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Id(x) => write!(f, "id@{x}"),
            Atom::Cklr(k, x) => {
                if *x == IfaceTag::C {
                    write!(f, "{k}")
                } else {
                    write!(f, "{k}@{x}")
                }
            }
            Atom::Wt => write!(f, "wt"),
            Atom::Va => write!(f, "va"),
            Atom::Cl => write!(f, "CL"),
            Atom::Lm => write!(f, "LM"),
            Atom::Ma => write!(f, "MA"),
            Atom::RSum(x) => {
                if *x == IfaceTag::C {
                    write!(f, "R")
                } else {
                    write!(f, "R@{x}")
                }
            }
            Atom::RStar(x) => {
                if *x == IfaceTag::C {
                    write!(f, "R*")
                } else {
                    write!(f, "R*@{x}")
                }
            }
        }
    }
}

/// A (flattened) composition of atomic conventions `a1 · a2 · … · an`.
///
/// The empty chain denotes the identity; composition is the monoid operation
/// (paper Thm. 5.2: `·` is associative with unit `id`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Chain {
    atoms: Vec<Atom>,
}

impl Chain {
    /// The empty (identity) chain.
    pub fn id() -> Chain {
        Chain::default()
    }

    /// A chain holding the given atoms.
    pub fn of(atoms: impl IntoIterator<Item = Atom>) -> Chain {
        Chain {
            atoms: atoms.into_iter().collect(),
        }
    }

    /// The atoms, left (source) to right (target).
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// Concatenate two chains (convention composition `·`).
    pub fn then(mut self, other: Chain) -> Chain {
        self.atoms.extend(other.atoms);
        self
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Is the chain the identity?
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Check the chain is well-typed, returning its end-to-end typing.
    ///
    /// # Errors
    /// Returns a description of the first interface mismatch.
    pub fn typing(&self) -> Result<(IfaceTag, IfaceTag), String> {
        let mut it = self.atoms.iter();
        let first = match it.next() {
            Some(a) => a,
            None => return Ok((IfaceTag::C, IfaceTag::C)),
        };
        let (l, mut r) = first.typing();
        for a in it {
            let (al, ar) = a.typing();
            if al != r {
                return Err(format!("type error: {a} expects {al}, got {r}"));
            }
            r = ar;
        }
        Ok((l, r))
    }
}

impl fmt::Display for Chain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "id");
        }
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " · ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

/// The refinement laws of paper §5 (each step of a derivation cites one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Law {
    /// `id · R ≡ R ≡ R · id` (Thm. 5.2).
    IdUnit,
    /// `ext·ext ≡ ext`, `ext·inj ≡ inj·ext ≡ inj·inj ≡ inj` (Lemma 5.3).
    CklrFuse,
    /// `va·ext ≡ vaext`, `va·inj ≡ vainj`, `vainj·vainj ≡ vainj`
    /// (Lemma 5.8).
    VaFuse,
    /// `R_X · XY ⊑ XY · R_Y` for `XY ∈ {CL, LM, MA}` (Lemma 5.4).
    CommuteCc,
    /// `wt · K⃗ · wt ≡ K⃗ · wt` and `wt·K ≡ wt·K·wt` for CKLR-built `K⃗`
    /// (Lemma 5.7 / App. B.2).
    WtAbsorb,
    /// `K ⊑ R` for each component `K` of the sum (Thm. 5.6, sum intro).
    SumIntro,
    /// `R^n ⊑ R*`, `id ⊑ R*`, `R*·R* ≡ R*` (Thm. 5.6, Kleene).
    StarIntro,
    /// `K@A · vainj@A ≡ vainj@A` for `K ∈ {ext, inj, injp}` — the target-side
    /// absorption steps of paper Fig. 10, justified by Asm parametricity
    /// (Thm. 4.3).
    VainjAbsorb,
    /// Insertion of a self-simulation pseudo-pass justified by parametricity
    /// (Thm. 4.3): `Clight(p) ≤R*↠R*` at the source, `Asm(p') ≤vainj↠vainj`
    /// at the target.
    Parametricity,
}

impl Law {
    /// Paper citation for the law.
    pub fn citation(self) -> &'static str {
        match self {
            Law::IdUnit => "Thm 5.2",
            Law::CklrFuse => "Lemma 5.3",
            Law::VaFuse => "Lemma 5.8",
            Law::CommuteCc => "Lemma 5.4",
            Law::WtAbsorb => "Lemma 5.7 / App B.2",
            Law::SumIntro => "Thm 5.6 (sum)",
            Law::StarIntro => "Thm 5.6 (star)",
            Law::VainjAbsorb => "Fig 10 / Thm 4.3",
            Law::Parametricity => "Thm 4.3",
        }
    }

    /// Does this law justify rewriting the sub-chain `before` into `after`?
    ///
    /// This is the verifier used by [`Derivation::verify`]; it accepts
    /// exactly the local patterns the engine emits.
    pub fn justifies(self, before: &[Atom], after: &[Atom]) -> bool {
        use Atom::*;
        use CklrTag::*;
        match self {
            Law::IdUnit => {
                // Dropping identities.
                let stripped: Vec<&Atom> = before.iter().filter(|a| !matches!(a, Id(_))).collect();
                stripped.len() == after.len() && stripped.iter().zip(after).all(|(a, b)| **a == *b)
            }
            Law::CklrFuse => match (before, after) {
                ([Cklr(k1, x1), Cklr(k2, x2)], [Cklr(k3, x3)]) => {
                    x1 == x2
                        && x2 == x3
                        && matches!(
                            (k1, k2, k3),
                            (Ext, Ext, Ext) | (Ext, Inj, Inj) | (Inj, Ext, Inj) | (Inj, Inj, Inj)
                        )
                }
                _ => false,
            },
            Law::VaFuse => match (before, after) {
                ([Va, Cklr(Ext, x)], [Cklr(VaExt, y)]) => x == y,
                ([Va, Cklr(Inj, x)], [Cklr(VaInj, y)]) => x == y,
                ([Cklr(VaInj, x), Cklr(VaInj, y)], [Cklr(VaInj, z)]) => x == y && y == z,
                _ => false,
            },
            Law::CommuteCc => match (before, after) {
                ([Cklr(k1, x), cc1], [cc2, Cklr(k2, y)]) => {
                    k1 == k2 && cc1 == cc2 && cc1.is_structural() && cc1.typing() == (*x, *y)
                }
                _ => false,
            },
            Law::WtAbsorb => {
                // wt · K⃗ · wt  ≡  K⃗ · wt
                let absorb = before.len() >= 2
                    && before.first() == Some(&Wt)
                    && before.last() == Some(&Wt)
                    && before[1..before.len() - 1]
                        .iter()
                        .all(|a| matches!(a, Cklr(_, _)))
                    && after == &before[1..];
                // wt · K  ≡  wt · K · wt (introduction)
                let intro = before.len() == 2
                    && before[0] == Wt
                    && matches!(before[1], Cklr(_, _))
                    && after.len() == 3
                    && after[0] == Wt
                    && after[1] == before[1]
                    && after[2] == Wt;
                // wt · wt ≡ wt
                let dup = before == [Wt, Wt] && after == [Wt];
                absorb || intro || dup
            }
            Law::SumIntro => match (before, after) {
                ([Cklr(k, x)], [RSum(y)]) => x == y && CklrTag::R_COMPONENTS.contains(k),
                _ => false,
            },
            Law::StarIntro => {
                // A run of R (and R*) atoms at the same interface collapses
                // to a single R*; the empty run (id ⊑ R*) is allowed too.
                match after {
                    [RStar(x)] => before
                        .iter()
                        .all(|a| matches!(a, RSum(y) | RStar(y) if y == x)),
                    _ => false,
                }
            }
            Law::VainjAbsorb => match (before, after) {
                ([Cklr(k, IfaceTag::A), Cklr(VaInj, IfaceTag::A)], [Cklr(VaInj, IfaceTag::A)]) => {
                    matches!(k, Ext | Inj | Injp)
                }
                _ => false,
            },
            Law::Parametricity => {
                // Inserting R* at the front (source self-simulation) or
                // vainj@A at the back (target self-simulation).
                (before.is_empty() && after == [RStar(IfaceTag::C)])
                    || (before.is_empty() && after == [Cklr(VaInj, IfaceTag::A)])
            }
        }
    }
}

impl fmt::Display for Law {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} ({})", self, self.citation())
    }
}

/// One rewriting step of a derivation: at `pos`, the sub-chain `before` was
/// replaced by `after`, justified by `law`.
#[derive(Debug, Clone)]
pub struct DerivStep {
    /// The law cited.
    pub law: Law,
    /// Index in the chain where the rewrite applies.
    pub pos: usize,
    /// The replaced sub-chain.
    pub before: Vec<Atom>,
    /// The replacement.
    pub after: Vec<Atom>,
    /// The whole chain after this step.
    pub result: Chain,
}

/// A derivation: an initial chain and a sequence of law-justified rewrites
/// (the executable form of the proof sketch in paper Figs. 10/11).
#[derive(Debug, Clone, Default)]
pub struct Derivation {
    /// The starting chain (the composed per-pass conventions).
    pub initial: Chain,
    /// The rewriting steps, in order.
    pub steps: Vec<DerivStep>,
}

/// Error from [`Derivation::verify`].
#[derive(Debug, Clone)]
pub struct DerivationError {
    /// Index of the offending step.
    pub step: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for DerivationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "derivation step {}: {}", self.step, self.reason)
    }
}

impl std::error::Error for DerivationError {}

impl Derivation {
    /// Start a derivation from `initial`.
    pub fn new(initial: Chain) -> Derivation {
        Derivation {
            initial,
            steps: Vec::new(),
        }
    }

    /// The current (latest) chain.
    pub fn current(&self) -> &Chain {
        self.steps
            .last()
            .map(|s| &s.result)
            .unwrap_or(&self.initial)
    }

    /// Apply a rewrite: replace `current[pos .. pos+len]` by `after`, citing
    /// `law`.
    ///
    /// # Errors
    /// Fails if the span is out of range or the law does not justify the
    /// rewrite.
    pub fn rewrite(
        &mut self,
        law: Law,
        pos: usize,
        len: usize,
        after: Vec<Atom>,
    ) -> Result<(), DerivationError> {
        let cur = self.current().clone();
        if pos + len > cur.len() {
            return Err(DerivationError {
                step: self.steps.len(),
                reason: format!("span {pos}+{len} out of range {}", cur.len()),
            });
        }
        let before: Vec<Atom> = cur.atoms()[pos..pos + len].to_vec();
        if !law.justifies(&before, &after) {
            return Err(DerivationError {
                step: self.steps.len(),
                reason: format!(
                    "law {law} does not justify [{}] => [{}]",
                    Chain::of(before.clone()),
                    Chain::of(after.clone())
                ),
            });
        }
        let mut atoms: Vec<Atom> = cur.atoms().to_vec();
        atoms.splice(pos..pos + len, after.clone());
        self.steps.push(DerivStep {
            law,
            pos,
            before,
            after,
            result: Chain::of(atoms),
        });
        Ok(())
    }

    /// Re-check every step against its cited law.
    ///
    /// # Errors
    /// Returns the first step whose rewrite is not justified.
    pub fn verify(&self) -> Result<(), DerivationError> {
        let mut cur = self.initial.clone();
        for (i, step) in self.steps.iter().enumerate() {
            let atoms = cur.atoms();
            if step.pos + step.before.len() > atoms.len()
                || atoms[step.pos..step.pos + step.before.len()] != step.before[..]
            {
                return Err(DerivationError {
                    step: i,
                    reason: "recorded sub-chain does not match".into(),
                });
            }
            if !step.law.justifies(&step.before, &step.after) {
                return Err(DerivationError {
                    step: i,
                    reason: format!("law {} does not justify step", step.law),
                });
            }
            let mut next: Vec<Atom> = atoms.to_vec();
            next.splice(step.pos..step.pos + step.before.len(), step.after.clone());
            let next = Chain::of(next);
            if next != step.result {
                return Err(DerivationError {
                    step: i,
                    reason: "recorded result does not match".into(),
                });
            }
            cur = next;
        }
        Ok(())
    }

    /// Render the derivation as a numbered proof trace (used to regenerate
    /// paper Figs. 10/11).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("  start: {}\n", self.initial));
        for (i, s) in self.steps.iter().enumerate() {
            out.push_str(&format!(
                "  [{:>2}] {:<14} {:<22} {}\n",
                i + 1,
                format!("{:?}", s.law),
                format!("({})", s.law.citation()),
                s.result
            ));
        }
        out
    }
}

/// The goal convention `C = R* · wt · CL · LM · MA · vainj@A` (paper §5).
pub fn goal_convention() -> Chain {
    Chain::of([
        Atom::RStar(IfaceTag::C),
        Atom::Wt,
        Atom::Cl,
        Atom::Lm,
        Atom::Ma,
        Atom::Cklr(CklrTag::VaInj, IfaceTag::A),
    ])
}

/// The rewriting engine: normalize a composed per-pass chain into the goal
/// convention, producing the law-by-law derivation (paper Figs. 10/11).
///
/// The strategy follows the paper's proof sketch:
/// 1. drop identity passes (Thm. 5.2);
/// 2. fuse `va · ext`/`va · inj` into `vaext`/`vainj` (Lemma 5.8);
/// 3. eliminate interior `wt`s (Lemma 5.7) so a single `wt` remains before
///    the first structural convention;
/// 4. commute CKLRs sitting between `CL`/`LM`/`MA` down to the `A` interface
///    (Lemma 5.4), fusing them on the way (Lemma 5.3);
/// 5. absorb the `A`-level CKLRs into the target-side `vainj`
///    (parametricity of Asm, Thm. 4.3);
/// 6. absorb every C-level CKLR into the sum `R` (Thm. 5.6) and collapse the
///    run into `R*`, merging with the source-side parametricity `R*`.
///
/// # Errors
/// Returns an error if the chain cannot be brought to the goal (e.g. it is
/// ill-typed or contains conventions outside the algebra's vocabulary).
pub fn derive(composed: Chain) -> Result<Derivation, DerivationError> {
    composed
        .typing()
        .map_err(|reason| DerivationError { step: 0, reason })?;
    let mut d = Derivation::new(composed);

    // Step 1: insert the parametricity pseudo-passes at both ends
    // (Clight self-simulation under R*; Asm self-simulation under vainj).
    d.rewrite(Law::Parametricity, 0, 0, vec![Atom::RStar(IfaceTag::C)])?;
    let end = d.current().len();
    d.rewrite(
        Law::Parametricity,
        end,
        0,
        vec![Atom::Cklr(CklrTag::VaInj, IfaceTag::A)],
    )?;

    // Step 2: drop identity passes.
    while let Some(pos) = d
        .current()
        .atoms()
        .iter()
        .position(|a| matches!(a, Atom::Id(_)))
    {
        d.rewrite(Law::IdUnit, pos, 1, vec![])?;
    }

    // Step 3: fuse va · ext / va · inj (Lemma 5.8).
    loop {
        let atoms = d.current().atoms().to_vec();
        let mut applied = false;
        for i in 0..atoms.len().saturating_sub(1) {
            match (&atoms[i], &atoms[i + 1]) {
                (Atom::Va, Atom::Cklr(CklrTag::Ext, x)) => {
                    let x = *x;
                    d.rewrite(Law::VaFuse, i, 2, vec![Atom::Cklr(CklrTag::VaExt, x)])?;
                    applied = true;
                    break;
                }
                (Atom::Va, Atom::Cklr(CklrTag::Inj, x)) => {
                    let x = *x;
                    d.rewrite(Law::VaFuse, i, 2, vec![Atom::Cklr(CklrTag::VaInj, x)])?;
                    applied = true;
                    break;
                }
                _ => {}
            }
        }
        if !applied {
            break;
        }
    }

    // Step 4: eliminate interior wt's. Find pairs wt … wt with only CKLRs in
    // between and absorb the leading one (Lemma 5.7).
    loop {
        let atoms = d.current().atoms().to_vec();
        let wt_positions: Vec<usize> = atoms
            .iter()
            .enumerate()
            .filter_map(|(i, a)| (*a == Atom::Wt).then_some(i))
            .collect();
        let mut applied = false;
        for w in wt_positions.windows(2) {
            let (i, j) = (w[0], w[1]);
            if atoms[i + 1..j]
                .iter()
                .all(|a| matches!(a, Atom::Cklr(_, _)))
            {
                let after: Vec<Atom> = atoms[i + 1..=j].to_vec();
                d.rewrite(Law::WtAbsorb, i, j - i + 1, after)?;
                applied = true;
                break;
            }
        }
        if !applied {
            break;
        }
    }

    // Step 5: hoist CKLRs trapped between the final wt and CL back to the
    // left of wt: wt·K ≡ wt·K·wt (intro), then wt·K·wt ≡ K·wt (absorb).
    loop {
        let atoms = d.current().atoms().to_vec();
        let wt_pos = atoms.iter().position(|a| *a == Atom::Wt);
        let cl_pos = atoms.iter().position(|a| *a == Atom::Cl);
        match (wt_pos, cl_pos) {
            (Some(i), Some(c)) if i + 1 < c && matches!(atoms[i + 1], Atom::Cklr(_, _)) => {
                let k = atoms[i + 1].clone();
                d.rewrite(Law::WtAbsorb, i, 2, vec![Atom::Wt, k.clone(), Atom::Wt])?;
                d.rewrite(Law::WtAbsorb, i, 3, vec![k, Atom::Wt])?;
            }
            _ => break,
        }
    }

    // Step 6: push CKLRs appearing after CL down through LM/MA to the A
    // interface (Lemma 5.4), fusing adjacent ext/inj on the way (Lemma 5.3),
    // then absorb them into vainj@A (Fig. 10).
    loop {
        let atoms = d.current().atoms().to_vec();
        let mut applied = false;
        for i in 0..atoms.len().saturating_sub(1) {
            match (&atoms[i], &atoms[i + 1]) {
                // CKLR followed by a structural convention: commute.
                (Atom::Cklr(k, x), cc) if cc.is_structural() => {
                    let (cl, cr) = cc.typing();
                    debug_assert_eq!(cl, *x);
                    let _ = cl;
                    d.rewrite(Law::CommuteCc, i, 2, vec![cc.clone(), Atom::Cklr(*k, cr)])?;
                    applied = true;
                    break;
                }
                // Adjacent fusible CKLRs at the same non-C interface.
                (Atom::Cklr(k1, x1), Atom::Cklr(k2, x2))
                    if x1 == x2
                        && *x1 != IfaceTag::C
                        && matches!(k1, CklrTag::Ext | CklrTag::Inj)
                        && matches!(k2, CklrTag::Ext | CklrTag::Inj) =>
                {
                    let fused = if *k1 == CklrTag::Ext && *k2 == CklrTag::Ext {
                        CklrTag::Ext
                    } else {
                        CklrTag::Inj
                    };
                    let x = *x1;
                    d.rewrite(Law::CklrFuse, i, 2, vec![Atom::Cklr(fused, x)])?;
                    applied = true;
                    break;
                }
                // A-level CKLR absorbed into vainj@A.
                (
                    Atom::Cklr(CklrTag::Ext | CklrTag::Inj | CklrTag::Injp, IfaceTag::A),
                    Atom::Cklr(CklrTag::VaInj, IfaceTag::A),
                ) => {
                    d.rewrite(
                        Law::VainjAbsorb,
                        i,
                        2,
                        vec![Atom::Cklr(CklrTag::VaInj, IfaceTag::A)],
                    )?;
                    applied = true;
                    break;
                }
                _ => {}
            }
        }
        if !applied {
            break;
        }
    }

    // Step 7: absorb every C-level CKLR into the sum R (Thm. 5.6).
    loop {
        let atoms = d.current().atoms().to_vec();
        let pos = atoms.iter().position(
            |a| matches!(a, Atom::Cklr(k, IfaceTag::C) if CklrTag::R_COMPONENTS.contains(k)),
        );
        match pos {
            Some(i) => {
                d.rewrite(Law::SumIntro, i, 1, vec![Atom::RSum(IfaceTag::C)])?;
            }
            None => break,
        }
    }

    // Step 8: collapse the leading run of R/R* into a single R*.
    {
        let atoms = d.current().atoms().to_vec();
        let run_len = atoms
            .iter()
            .take_while(|a| matches!(a, Atom::RSum(IfaceTag::C) | Atom::RStar(IfaceTag::C)))
            .count();
        if run_len > 0 {
            d.rewrite(Law::StarIntro, 0, run_len, vec![Atom::RStar(IfaceTag::C)])?;
        }
    }

    // Check we reached the goal.
    if *d.current() != goal_convention() {
        return Err(DerivationError {
            step: d.steps.len(),
            reason: format!(
                "normalization stopped at `{}`, expected `{}`",
                d.current(),
                goal_convention()
            ),
        });
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Atom::*;
    use CklrTag::*;
    use IfaceTag::*;

    /// The incoming conventions of paper Table 3, in pass order.
    pub(crate) fn table3_incoming() -> Chain {
        Chain::of([
            Cklr(Inj, C), // SimplLocals
            Id(C),        // Cshmgen
            Cklr(Inj, C), // Cminorgen
            Wt,
            Cklr(Ext, C), // Selection
            Cklr(Ext, C), // RTLgen
            Cklr(Ext, C), // Tailcall
            Cklr(Inj, C), // Inlining
            Id(C),        // Renumber
            Va,
            Cklr(Ext, C), // Constprop
            Va,
            Cklr(Ext, C), // CSE
            Va,
            Cklr(Ext, C), // Deadcode
            Wt,
            Cklr(Ext, C),
            Cl,           // Allocation
            Cklr(Ext, L), // Tunneling
            Id(L),        // Linearize
            Id(L),        // CleanupLabels
            Id(L),        // Debugvar
            Lm,
            Cklr(Inj, M), // Stacking (incoming: LM · inj)
            Cklr(Ext, M),
            Ma, // Asmgen
        ])
    }

    #[test]
    fn chains_type_check() {
        assert_eq!(table3_incoming().typing(), Ok((C, A)));
        assert_eq!(goal_convention().typing(), Ok((C, A)));
        let bad = Chain::of([Cl, Cl]);
        assert!(bad.typing().is_err());
    }

    #[test]
    fn derivation_reaches_goal_and_verifies() {
        let d = derive(table3_incoming()).expect("derivation succeeds");
        assert_eq!(*d.current(), goal_convention());
        d.verify().expect("all steps justified");
        // The derivation is non-trivial.
        assert!(d.steps.len() > 10, "steps: {}", d.steps.len());
    }

    #[test]
    fn outgoing_chain_also_derives() {
        // Outgoing conventions of Table 3 (injp instead of inj for the
        // injection passes; Stacking contributes injp · LM).
        let outgoing = Chain::of([
            Cklr(Injp, C), // SimplLocals
            Id(C),         // Cshmgen
            Cklr(Injp, C), // Cminorgen
            Wt,
            Cklr(Ext, C),  // Selection
            Cklr(Ext, C),  // RTLgen
            Cklr(Ext, C),  // Tailcall
            Cklr(Injp, C), // Inlining
            Id(C),         // Renumber
            Va,
            Cklr(Ext, C), // Constprop
            Va,
            Cklr(Ext, C), // CSE
            Va,
            Cklr(Ext, C), // Deadcode
            Wt,
            Cklr(Ext, C),
            Cl,           // Allocation
            Cklr(Ext, L), // Tunneling
            Id(L),
            Id(L),
            Id(L),
            Cklr(Injp, L),
            Lm, // Stacking (outgoing: injp · LM)
            Cklr(Ext, M),
            Ma, // Asmgen
        ]);
        let d = derive(outgoing).expect("outgoing derivation succeeds");
        assert_eq!(*d.current(), goal_convention());
        d.verify().expect("verified");
    }

    #[test]
    fn bogus_rewrite_is_rejected() {
        let mut d = Derivation::new(Chain::of([Cklr(Ext, C), Cklr(Ext, C)]));
        // ext·ext → inj is NOT Lemma 5.3.
        let err = d.rewrite(Law::CklrFuse, 0, 2, vec![Cklr(Inj, C)]);
        assert!(err.is_err());
        // ext·ext → ext is.
        d.rewrite(Law::CklrFuse, 0, 2, vec![Cklr(Ext, C)]).unwrap();
        assert_eq!(d.current().atoms(), &[Cklr(Ext, C)]);
    }

    #[test]
    fn tampered_derivation_fails_verification() {
        let mut d = derive(table3_incoming()).unwrap();
        // Corrupt a step's law citation.
        if let Some(step) = d.steps.iter_mut().find(|s| s.law == Law::CklrFuse) {
            step.law = Law::VaFuse;
        }
        assert!(d.verify().is_err());
    }

    #[test]
    fn render_mentions_all_laws() {
        let d = derive(table3_incoming()).unwrap();
        let text = d.render();
        assert!(text.contains("Lemma 5.3"));
        assert!(text.contains("Lemma 5.4"));
        assert!(text.contains("Lemma 5.7"));
        assert!(text.contains("Lemma 5.8"));
        assert!(text.contains("Thm 5.6"));
        assert!(text.contains("Thm 4.3"));
    }
}
