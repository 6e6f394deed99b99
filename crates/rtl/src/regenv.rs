//! Dense abstract register environments: one slot per pseudo-register,
//! indexed by the register number, with the domain's bottom as the implicit
//! value of every register past the end.
//!
//! Pseudo-registers are small dense integers (`RtlFunction::next_reg`
//! bounds them), so a register-indexed `Vec` beats a map: `get` is one
//! bounds check, `clone` is one flat copy, and the pointwise join walks two
//! slices in lockstep. Both value analyses store their per-node states in
//! it — the constant domain of [`crate::analysis`] ([`crate::AEnv`]) and
//! the interval domain of [`crate::absint`] ([`crate::VaEnv`]).

use crate::analysis::JoinSemiLattice;
use crate::lang::PReg;

/// An abstract value with a bottom element and a join: what a [`RegEnv`]
/// holds per register.
pub trait AbsVal: Clone + PartialEq + 'static {
    /// The value of every unbound register.
    const BOT: &'static Self;

    /// Least upper bound.
    #[must_use]
    fn join(&self, other: &Self) -> Self;
}

/// A register environment over the abstract domain `V` (unbound registers
/// are [`AbsVal::BOT`]).
///
/// Equality is semantic: trailing `BOT` slots do not count, so two
/// environments binding the same registers to the same values are equal
/// however they were built.
#[derive(Debug, Clone)]
pub struct RegEnv<V> {
    vals: Vec<V>,
}

impl<V> Default for RegEnv<V> {
    fn default() -> Self {
        RegEnv { vals: Vec::new() }
    }
}

impl<V: AbsVal> RegEnv<V> {
    /// Abstract value of `r`.
    #[must_use]
    pub fn get(&self, r: PReg) -> &V {
        self.vals.get(r as usize).unwrap_or(V::BOT)
    }

    /// Bind `r` (binding `BOT` erases the binding: it is the default).
    pub fn set(&mut self, r: PReg, v: V) {
        let i = r as usize;
        if i >= self.vals.len() {
            if v == *V::BOT {
                return;
            }
            self.vals.resize(i + 1, V::BOT.clone());
        }
        self.vals[i] = v;
    }

    /// The bound (non-`BOT`) registers, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (PReg, &V)> {
        self.vals
            .iter()
            .enumerate()
            .filter(|(_, v)| *v != V::BOT)
            .map(|(r, v)| (r as PReg, v))
    }
}

impl<V: AbsVal> PartialEq for RegEnv<V> {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.vals.len() <= other.vals.len() {
            (&self.vals, &other.vals)
        } else {
            (&other.vals, &self.vals)
        };
        let (head, tail) = long.split_at(short.len());
        short == head && tail.iter().all(|v| v == V::BOT)
    }
}

impl<V: AbsVal> JoinSemiLattice for RegEnv<V> {
    fn join(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.join_in_place(other);
        out
    }

    /// Pointwise join over every register either side binds; a register
    /// bound on one side only joins against the other side's `BOT`.
    fn join_in_place(&mut self, other: &Self) -> bool {
        if self.vals.len() < other.vals.len() {
            self.vals.resize(other.vals.len(), V::BOT.clone());
        }
        let mut changed = false;
        for (i, cur) in self.vals.iter_mut().enumerate() {
            let o = other.vals.get(i).unwrap_or(V::BOT);
            // Joins are idempotent: equal slots (the common case near the
            // fixpoint) need no join and no allocation.
            if cur == o {
                continue;
            }
            let j = cur.join(o);
            if j != *cur {
                *cur = j;
                changed = true;
            }
        }
        changed
    }
}
