//! Copy-on-write abstract register environments: the register-indexed slots
//! live in fixed chunks of 32 behind reference counts, with the
//! domain's bottom as the implicit value of every register past the end.
//!
//! Pseudo-registers are small dense integers (`RtlFunction::next_reg`
//! bounds them), so the environment is a vector indexed by the register
//! number: `get` is two index steps. The worklist solvers keep one
//! environment per CFG node and copy one into every successor they reach
//! first, and along a path consecutive states differ in a register or two.
//! So `clone` only bumps one reference count per chunk, `set` copies the
//! one chunk it writes and only when that chunk is shared, and the
//! pointwise join skips the chunks both sides share — near the fixpoint,
//! most of them. Both value analyses store their per-node states in it —
//! the constant domain of [`crate::analysis`] ([`crate::AEnv`]) and the
//! interval domain of [`crate::absint`] ([`crate::VaEnv`]).

use std::fmt;
use std::rc::Rc;

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

/// Registers per copy-on-write chunk: a generated function has about 120
/// pseudo-registers, so a state is a handful of chunks and a write copies
/// one of them.
const CHUNK: usize = 32;

type Chunk<V> = Rc<[V; CHUNK]>;

fn bot_chunk<V: AbsVal>() -> Chunk<V> {
    Rc::new(std::array::from_fn(|_| V::BOT.clone()))
}

/// A register environment over the abstract domain `V` (unbound registers
/// are [`AbsVal::BOT`]).
///
/// Clones share their chunks until one side writes, so a clone costs one
/// reference-count bump per chunk. Equality is semantic: trailing `BOT`
/// slots and chunks do not count, so two environments binding the same
/// registers to the same values are equal however they were built.
#[derive(Clone)]
pub struct RegEnv<V> {
    chunks: Vec<Chunk<V>>,
}

impl<V> Default for RegEnv<V> {
    fn default() -> Self {
        RegEnv { chunks: Vec::new() }
    }
}

impl<V: AbsVal> RegEnv<V> {
    /// Abstract value of `r`.
    #[must_use]
    pub fn get(&self, r: PReg) -> &V {
        let i = r as usize;
        match self.chunks.get(i / CHUNK) {
            Some(c) => &c[i % CHUNK],
            None => V::BOT,
        }
    }

    /// Bind `r` (binding `BOT` erases the binding: it is the default). An
    /// unchanged value writes nothing, so it never unshares a chunk.
    pub fn set(&mut self, r: PReg, v: V) {
        let i = r as usize;
        let c = i / CHUNK;
        if c >= self.chunks.len() {
            if v == *V::BOT {
                return;
            }
            self.chunks.resize_with(c + 1, bot_chunk);
        }
        let chunk = &mut self.chunks[c];
        if chunk[i % CHUNK] != v {
            Rc::make_mut(chunk)[i % CHUNK] = v;
        }
    }

    /// The bound (non-`BOT`) registers, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (PReg, &V)> {
        self.chunks
            .iter()
            .flat_map(|c| c.iter())
            .enumerate()
            .filter(|(_, v)| *v != V::BOT)
            .map(|(r, v)| (r as PReg, v))
    }

    /// Pointwise join of `other` into `self`, over every register either
    /// side binds (a register bound on one side only joins against the
    /// other side's `BOT`). Each register whose join differs from its old
    /// value is bound to `grow(r, old, joined)` — `joined` itself for a
    /// plain join, or a widening of it. Reports whether any register grew.
    ///
    /// Chunks both sides share are skipped without a look at their slots,
    /// and a grown chunk that ends equal to `other`'s adopts it, so states
    /// along a path keep sharing after joins.
    pub fn join_with(&mut self, other: &Self, mut grow: impl FnMut(PReg, &V, V) -> V) -> bool {
        if self.chunks.len() < other.chunks.len() {
            self.chunks.resize_with(other.chunks.len(), bot_chunk);
        }
        let mut changed = false;
        for (c, cur) in self.chunks.iter_mut().enumerate() {
            let theirs = other.chunks.get(c);
            if theirs.is_some_and(|o| Rc::ptr_eq(cur, o)) {
                continue;
            }
            let mut grew = false;
            for s in 0..CHUNK {
                let o = theirs.map_or(V::BOT, |o| &o[s]);
                // Joins are idempotent: equal slots (the common case near
                // the fixpoint) need no join and no allocation.
                if cur[s] == *o {
                    continue;
                }
                let j = cur[s].join(o);
                if j != cur[s] {
                    let v = grow((c * CHUNK + s) as PReg, &cur[s], j);
                    Rc::make_mut(cur)[s] = v;
                    grew = true;
                }
            }
            if grew {
                if let Some(o) = theirs.filter(|o| cur[..] == o[..]) {
                    *cur = Rc::clone(o);
                }
                changed = true;
            }
        }
        changed
    }
}

impl<V: AbsVal> PartialEq for RegEnv<V> {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.chunks.len() <= other.chunks.len() {
            (&self.chunks, &other.chunks)
        } else {
            (&other.chunks, &self.chunks)
        };
        let (head, tail) = long.split_at(short.len());
        short
            .iter()
            .zip(head)
            .all(|(a, b)| Rc::ptr_eq(a, b) || a[..] == b[..])
            && tail.iter().flat_map(|c| c.iter()).all(|v| v == V::BOT)
    }
}

impl<V: AbsVal + fmt::Debug> fmt::Debug for RegEnv<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
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
        self.join_with(other, |_, _, joined| joined)
    }
}
