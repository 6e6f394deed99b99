//! Syntactic linking of Clight-mini translation units and construction of
//! the shared symbol table.
//!
//! CompCert's `+` operator merges programs as sets of global definitions
//! (paper §3.1); CompCertO additionally fixes a single global symbol table
//! shared by every module (paper App. A.3). [`build_symtab`] computes that
//! table from all units participating in a link, and [`link`] merges two
//! units into one. [`Program::interface`] keeps only what the table reads.

use std::fmt;

use compcerto_core::iface::Signature;
use compcerto_core::symtab::{GlobKind, InitDatum, SymbolTable};

use crate::ast::{Function, Program, Stmt};
use crate::ty::Ty;

/// An error produced by linking.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkError {
    /// The same symbol is defined twice with incompatible kinds.
    Clash(String),
    /// A function is defined in both units.
    DuplicateFunction(String),
    /// A global variable is defined in both units.
    DuplicateGlobal(String),
    /// An extern declaration disagrees with the definition's signature.
    SignatureMismatch(String),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Clash(s) => write!(f, "symbol `{s}` defined with incompatible kinds"),
            LinkError::DuplicateFunction(s) => write!(f, "function `{s}` defined twice"),
            LinkError::DuplicateGlobal(s) => write!(f, "global `{s}` defined twice"),
            LinkError::SignatureMismatch(s) => {
                write!(f, "declaration of `{s}` does not match its definition")
            }
        }
    }
}

impl std::error::Error for LinkError {}

fn init_data(ty: &Ty, init: Option<i64>) -> Vec<InitDatum> {
    match (ty, init) {
        (Ty::Int, Some(v)) => vec![InitDatum::Int32(v as i32)],
        (Ty::Long, Some(v)) | (Ty::Ptr(_), Some(v)) => vec![InitDatum::Int64(v)],
        _ => vec![InitDatum::Space(ty.size())],
    }
}

impl Program {
    /// The unit's *interface*: exactly what [`build_symtab`] reads. The
    /// globals and extern declarations are kept; each function keeps its
    /// name, return type and parameters, with an empty body and no locals.
    /// [`build_symtab`] over interfaces returns the table it returns over
    /// the full programs, so a compile server can remember this projection
    /// instead of a whole typed program.
    #[must_use]
    pub fn interface(&self) -> Program {
        Program {
            globals: self.globals.clone(),
            functions: self
                .functions
                .iter()
                .map(|f| Function {
                    name: f.name.clone(),
                    ret: f.ret.clone(),
                    params: f.params.clone(),
                    vars: Vec::new(),
                    temps: Vec::new(),
                    body: Stmt::Skip,
                })
                .collect(),
            externs: self.externs.clone(),
        }
    }
}

/// Build the global symbol table shared by a collection of translation units
/// (paper App. A.3). Definitions claim blocks in unit order; extern
/// declarations resolve to the definition's entry or claim a fresh entry when
/// no unit defines them (truly-external functions).
///
/// # Errors
/// Reports clashes between incompatible definitions and mismatched
/// declaration signatures.
pub fn build_symtab(units: &[&Program]) -> Result<SymbolTable, LinkError> {
    let mut tbl = SymbolTable::new();
    // Pass 1: definitions.
    for unit in units {
        for g in &unit.globals {
            let kind = GlobKind::Var {
                init: init_data(&g.ty, g.init),
                readonly: g.readonly,
            };
            tbl.try_define(g.name.clone(), kind)
                .map_err(|e| LinkError::DuplicateGlobal(e.0))?;
        }
        for f in &unit.functions {
            tbl.try_define(f.name.clone(), GlobKind::Func(f.signature()))
                .map_err(|e| LinkError::Clash(e.0))?;
        }
    }
    // Pass 2: declarations (resolve or claim fresh entries).
    for unit in units {
        for e in &unit.externs {
            let sig: Signature = e.signature();
            match tbl.block_of(&e.name) {
                Some(b) => match tbl.kind_of(b) {
                    Some(GlobKind::Func(def_sig)) if *def_sig == sig => {}
                    _ => return Err(LinkError::SignatureMismatch(e.name.clone())),
                },
                None => {
                    tbl.define(e.name.clone(), GlobKind::Func(sig));
                }
            }
        }
    }
    Ok(tbl)
}

/// Link two translation units (CompCert's `+`, paper §3.1): the union of
/// their definitions, with extern declarations resolved against the other
/// unit's definitions.
///
/// # Errors
/// Duplicate definitions and signature mismatches are rejected.
pub fn link(p1: &Program, p2: &Program) -> Result<Program, LinkError> {
    let mut out = p1.clone();
    for g in &p2.globals {
        if out.globals.iter().any(|x| x.name == g.name) {
            return Err(LinkError::DuplicateGlobal(g.name.clone()));
        }
        out.globals.push(g.clone());
    }
    for f in &p2.functions {
        if out.functions.iter().any(|x| x.name == f.name) {
            return Err(LinkError::DuplicateFunction(f.name.clone()));
        }
        out.functions.push(f.clone());
    }
    for e in &p2.externs {
        if let Some(f) = out.function(&e.name) {
            if f.signature() != e.signature() {
                return Err(LinkError::SignatureMismatch(e.name.clone()));
            }
            continue; // resolved by p1's definition
        }
        if !out.externs.iter().any(|x| x.name == e.name) {
            out.externs.push(e.clone());
        }
    }
    // Declarations of p1 resolved by definitions of p2 are dropped.
    out.externs.retain(|e| {
        if let Some(f) = p2.function(&e.name) {
            f.signature() == e.signature() // keep only if mismatched (caught below)
        } else {
            true
        }
    });
    for e in &p1.externs {
        if let Some(f) = p2.function(&e.name) {
            if f.signature() != e.signature() {
                return Err(LinkError::SignatureMismatch(e.name.clone()));
            }
        }
    }
    out.externs
        .retain(|e| out.functions.iter().all(|f| f.name != e.name));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::typecheck::typecheck;

    fn unit(src: &str) -> Program {
        typecheck(&parse(src).unwrap()).unwrap()
    }

    #[test]
    fn symtab_assigns_blocks_in_order() {
        let a = unit("int f(void) { return 1; }");
        let b = unit("extern int f(void); int g(void) { int x; x = f(); return x; }");
        let tbl = build_symtab(&[&a, &b]).unwrap();
        assert_eq!(tbl.block_of("f"), Some(0));
        assert_eq!(tbl.block_of("g"), Some(1));
    }

    #[test]
    fn undefined_externs_claim_entries() {
        let a = unit("extern int mystery(int); int f(int x) { int r; r = mystery(x); return r; }");
        let tbl = build_symtab(&[&a]).unwrap();
        assert!(tbl.block_of("mystery").is_some());
    }

    #[test]
    fn mismatched_declaration_rejected() {
        let a = unit("int f(int x) { return x; }");
        let b = unit("extern int f(int, int); int g(void) { int r; r = f(1, 2); return r; }");
        assert_eq!(
            build_symtab(&[&a, &b]),
            Err(LinkError::SignatureMismatch("f".into()))
        );
    }

    #[test]
    fn interface_drops_bodies_and_links_alike() {
        let a = unit("int k = 3; int f(int x) { int y; y = x + k; return y; }");
        let b = unit("extern int f(int); int g(void) { int r; r = f(1); return r; }");
        let ia = a.interface();
        assert_eq!(ia.globals, a.globals);
        assert_eq!(ia.functions[0].body, Stmt::Skip);
        assert!(ia.functions[0].vars.is_empty() && ia.functions[0].temps.is_empty());
        assert_eq!(ia.functions[0].signature(), a.functions[0].signature());
        assert_eq!(
            build_symtab(&[&ia, &b.interface()]),
            build_symtab(&[&a, &b])
        );
    }

    #[test]
    fn link_merges_and_resolves() {
        let a =
            unit("extern int mult(int, int); int sqr(int n) { int r; r = mult(n, n); return r; }");
        let b = unit("int mult(int n, int p) { return n * p; }");
        let merged = link(&a, &b).unwrap();
        assert_eq!(merged.functions.len(), 2);
        assert!(merged.externs.is_empty());
    }

    #[test]
    fn link_rejects_duplicates() {
        let a = unit("int f(void) { return 1; }");
        let b = unit("int f(void) { return 2; }");
        assert_eq!(link(&a, &b), Err(LinkError::DuplicateFunction("f".into())));
    }
}
