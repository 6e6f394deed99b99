//! Deterministic symbol interning for the interpreter hot paths
//! (DESIGN.md §13).
//!
//! Every per-stage program mentions a small, fixed set of identifiers —
//! function names, global names, extern names. Keying per-step lookups on
//! `String`s costs map probes with full string comparisons and clones into
//! call states, so the prepared interpreters
//! intern every identifier into a [`Sym`] — a dense `u32` — once at
//! *prepare* time, so the step loop only ever moves and compares machine
//! words. Strings survive solely at the edges: stuck reports, external-call
//! observations, and anything else a human or a baseline file reads.
//!
//! Determinism contract: [`Sym`] assignment is a pure function of the
//! *insertion order* (first-come, first-served, starting at 0). Every
//! prepare pass walks its program in a deterministic order (declaration
//! order, then symbol-table order), so the same program yields the same
//! `Sym` ids on every run, every thread, and every `--jobs` setting — the
//! interner contains no hashing, no randomized state, and no global
//! counters.

use std::collections::BTreeMap;
use std::fmt;

use mem::Val;

use crate::symtab::SymbolTable;

/// An interned symbol: a dense index into one [`Interner`]'s table.
///
/// `Sym`s from different interners are not comparable; each prepared
/// program carries the interner its ids live in.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sym({})", self.0)
    }
}

impl Sym {
    /// The dense index, for direct use as a `Vec` subscript.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A deterministic string interner: insertion-order `u32` ids, `BTreeMap`
/// reverse index (no hashing anywhere — ids are schedule- and
/// platform-invariant by construction).
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<String>,
    index: BTreeMap<String, Sym>,
}

impl Interner {
    /// An empty interner.
    #[must_use]
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Intern `name`, returning its existing [`Sym`] or assigning the next
    /// dense id.
    pub fn intern(&mut self, name: &str) -> Sym {
        if let Some(&s) = self.index.get(name) {
            return s;
        }
        let s = Sym(self.names.len() as u32);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), s);
        s
    }

    /// The [`Sym`] of an already-interned name.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<Sym> {
        self.index.get(name).copied()
    }

    /// The name behind `s` (`None` for a foreign or out-of-range id).
    #[must_use]
    pub fn name(&self, s: Sym) -> Option<&str> {
        self.names.get(s.index()).map(String::as_str)
    }

    /// Number of interned symbols.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All `(Sym, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Sym(i as u32), n.as_str()))
    }
}

/// The function table of a prepared program: its defined function names
/// interned in definition order, then its extern names, and for each name
/// the index of the function that defines it. A name defined twice resolves
/// to its first definition, like the programs' own `function` lookups.
#[derive(Debug, Clone, Default)]
pub struct FuncIndex {
    syms: Interner,
    fidx_of_sym: Vec<Option<u32>>,
}

impl FuncIndex {
    /// Index a program whose `i`-th function is named by the `i`-th item of
    /// `defined`, and which declares `externs`.
    pub fn new<'a>(
        defined: impl IntoIterator<Item = &'a str>,
        externs: impl IntoIterator<Item = &'a str>,
    ) -> FuncIndex {
        let mut syms = Interner::new();
        let mut fidx_of_sym = Vec::new();
        for (i, name) in defined.into_iter().enumerate() {
            // Only a fresh name gets a slot: the first definition wins.
            if syms.intern(name).index() == fidx_of_sym.len() {
                fidx_of_sym.push(Some(i as u32));
            }
        }
        for name in externs {
            syms.intern(name);
        }
        fidx_of_sym.resize(syms.len(), None);
        FuncIndex { syms, fidx_of_sym }
    }

    /// The [`Sym`] `name` was interned to.
    #[must_use]
    pub fn sym(&self, name: &str) -> Option<Sym> {
        self.syms.lookup(name)
    }

    /// The index of the function named `name`.
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<u32> {
        self.fidx_of_sym[self.sym(name)?.index()]
    }

    /// The index of the function a callee pointer `vf` points to.
    #[must_use]
    pub fn by_ptr(&self, symtab: &SymbolTable, vf: Val) -> Option<u32> {
        match vf {
            Val::Ptr(b, 0) => self.by_name(symtab.ident_of(b)?),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_insertion_ordered() {
        let mut i = Interner::new();
        assert_eq!(i.intern("f"), Sym(0));
        assert_eq!(i.intern("g"), Sym(1));
        assert_eq!(i.intern("f"), Sym(0), "re-interning is idempotent");
        assert_eq!(i.intern("h"), Sym(2));
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn roundtrip_and_lookup() {
        let mut i = Interner::new();
        let names = ["entry", "buf", "acc", "inc", "entry"];
        let syms: Vec<Sym> = names.iter().map(|n| i.intern(n)).collect();
        for (n, s) in names.iter().zip(&syms) {
            assert_eq!(i.lookup(n), Some(*s));
            assert_eq!(i.name(*s), Some(*n));
        }
        assert_eq!(syms[0], syms[4], "same name, same id");
        assert_eq!(i.name(Sym(99)), None, "foreign ids resolve to nothing");
        assert_eq!(i.lookup("missing"), None);
    }

    #[test]
    fn distinct_names_never_collide() {
        // 1000 distinct names -> 1000 distinct dense ids covering 0..1000.
        let mut i = Interner::new();
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..1000u32 {
            let s = i.intern(&format!("sym_{k}"));
            assert!(seen.insert(s), "id {s:?} assigned twice");
        }
        assert_eq!(i.len(), 1000);
        assert_eq!(seen.iter().next_back(), Some(&Sym(999)));
    }

    #[test]
    fn func_index_resolves_first_definitions_by_name_and_pointer() {
        use crate::iface::Signature;
        use crate::symtab::GlobKind;
        // `f` is defined twice and `g` is also declared extern.
        let ix = FuncIndex::new(["f", "g", "f"], ["h", "g"]);
        let syms: Vec<_> = ["f", "g", "h"].iter().map(|n| ix.sym(n)).collect();
        assert_eq!(syms, [Some(Sym(0)), Some(Sym(1)), Some(Sym(2))]);
        assert_eq!(ix.by_name("f"), Some(0), "the first definition wins");
        assert_eq!(ix.by_name("g"), Some(1));
        assert_eq!(ix.by_name("h"), None, "externs index no function");
        assert_eq!(ix.by_name("missing"), None);

        let mut tbl = SymbolTable::new();
        for n in ["h", "g"] {
            tbl.define(n.into(), GlobKind::Func(Signature::int_fn(0)));
        }
        let Some(Val::Ptr(g, 0)) = tbl.func_ptr("g") else {
            panic!("`g` has a function pointer");
        };
        assert_eq!(ix.by_ptr(&tbl, Val::Ptr(g, 0)), Some(1));
        assert_eq!(
            ix.by_ptr(&tbl, Val::Ptr(g, 8)),
            None,
            "not a function start"
        );
        assert_eq!(
            ix.by_ptr(&tbl, tbl.func_ptr("h").unwrap_or(Val::Undef)),
            None
        );
        assert_eq!(ix.by_ptr(&tbl, Val::Int(0)), None);
    }

    #[test]
    fn assignment_is_a_pure_function_of_insertion_order() {
        let build = || {
            let mut i = Interner::new();
            for n in ["main", "f", "g", "buf", "f", "main"] {
                i.intern(n);
            }
            i
        };
        let a = build();
        let b = build();
        assert_eq!(a.len(), b.len());
        for (s, n) in a.iter() {
            assert_eq!(b.name(s), Some(n));
            assert_eq!(b.lookup(n), Some(s));
        }
    }
}
