//! Abstract syntax of Clight-mini.
//!
//! Following CompCert's Clight, expressions are side-effect free (no calls,
//! no assignments inside expressions); function calls occur only at the
//! statement level. Every expression node carries its type, established by
//! [`fn@crate::typecheck`].

use std::fmt;

use compcerto_core::iface::Signature;
use compcerto_core::symtab::Ident;
use mem::Cmp;

use crate::ty::Ty;

/// Identifier of a temporary (introduced by `SimplLocals`).
pub type TempId = u32;

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unop {
    /// Arithmetic negation `-e`.
    Neg,
    /// Bitwise complement `~e`.
    Not,
    /// Logical negation `!e`.
    LogicalNot,
}

impl fmt::Display for Unop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Unop::Neg => "-",
            Unop::Not => "~",
            Unop::LogicalNot => "!",
        };
        f.write_str(s)
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Binop {
    /// Addition (including pointer arithmetic).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Signed division.
    Div,
    /// Signed remainder.
    Mod,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
    /// Signed comparison.
    Cmp(Cmp),
}

impl fmt::Display for Binop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Binop::Add => write!(f, "+"),
            Binop::Sub => write!(f, "-"),
            Binop::Mul => write!(f, "*"),
            Binop::Div => write!(f, "/"),
            Binop::Mod => write!(f, "%"),
            Binop::And => write!(f, "&"),
            Binop::Or => write!(f, "|"),
            Binop::Xor => write!(f, "^"),
            Binop::Shl => write!(f, "<<"),
            Binop::Shr => write!(f, ">>"),
            Binop::Cmp(c) => write!(f, "{c}"),
        }
    }
}

/// A typed expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// 32-bit integer literal.
    ConstInt(i32),
    /// 64-bit integer literal.
    ConstLong(i64),
    /// A named variable (local in memory, or global); an lvalue.
    Var(Ident, Ty),
    /// A temporary (register-like, introduced by `SimplLocals`); not an
    /// lvalue.
    Temp(TempId, Ty),
    /// Pointer dereference `*e`; an lvalue.
    Deref(Box<Expr>, Ty),
    /// Address-of `&lv`.
    Addr(Box<Expr>, Ty),
    /// Unary operation.
    Unop(Unop, Box<Expr>, Ty),
    /// Binary operation.
    Binop(Binop, Box<Expr>, Box<Expr>, Ty),
    /// Type cast `(ty)e`.
    Cast(Box<Expr>, Ty),
    /// `sizeof(ty)`, a `long` constant.
    SizeOf(Ty),
    /// Surface-only array indexing `a[i]`; eliminated by the type checker
    /// (rewritten to pointer arithmetic plus [`Expr::Deref`]). The semantics
    /// rejects it.
    Index(Box<Expr>, Box<Expr>, Ty),
}

impl Expr {
    /// The type of the expression.
    pub fn ty(&self) -> Ty {
        match self {
            Expr::ConstInt(_) => Ty::Int,
            Expr::ConstLong(_) => Ty::Long,
            Expr::Var(_, t)
            | Expr::Temp(_, t)
            | Expr::Deref(_, t)
            | Expr::Addr(_, t)
            | Expr::Unop(_, _, t)
            | Expr::Binop(_, _, _, t)
            | Expr::Cast(_, t)
            | Expr::Index(_, _, t) => t.clone(),
            Expr::SizeOf(_) => Ty::Long,
        }
    }

    /// Is the expression an lvalue (denotes a memory location)?
    pub fn is_lvalue(&self) -> bool {
        matches!(
            self,
            Expr::Var(_, _) | Expr::Deref(_, _) | Expr::Index(_, _, _)
        )
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::ConstInt(n) => write!(f, "{n}"),
            Expr::ConstLong(n) => write!(f, "{n}L"),
            Expr::Var(x, _) => write!(f, "{x}"),
            Expr::Temp(t, _) => write!(f, "$t{t}"),
            Expr::Deref(e, _) => write!(f, "*({e})"),
            Expr::Addr(e, _) => write!(f, "&({e})"),
            Expr::Unop(op, e, _) => write!(f, "{op}({e})"),
            Expr::Binop(op, a, b, _) => write!(f, "({a} {op} {b})"),
            Expr::Cast(e, t) => write!(f, "({t})({e})"),
            Expr::SizeOf(t) => write!(f, "sizeof({t})"),
            Expr::Index(a, i, _) => write!(f, "{a}[{i}]"),
        }
    }
}

/// Destination of a call's result.
#[derive(Debug, Clone, PartialEq)]
pub enum CallDest {
    /// Discard the result.
    None,
    /// Store into an lvalue.
    Lvalue(Expr),
    /// Bind a temporary.
    Temp(TempId, Ty),
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Do nothing.
    Skip,
    /// Memory assignment `lv = e`.
    Assign(Expr, Expr),
    /// Temporary binding `$t = e` (post-`SimplLocals`).
    Set(TempId, Expr),
    /// Function call `dest = fn(args)`; `fn` names a global function.
    Call(CallDest, Ident, Vec<Expr>),
    /// Sequencing.
    Seq(Box<Stmt>, Box<Stmt>),
    /// Conditional.
    If(Expr, Box<Stmt>, Box<Stmt>),
    /// Loop.
    While(Expr, Box<Stmt>),
    /// Exit the nearest loop.
    Break,
    /// Continue the nearest loop.
    Continue,
    /// Return from the function.
    Return(Option<Expr>),
}

impl Stmt {
    /// Sequence two statements, dropping `Skip`s.
    pub fn seq(a: Stmt, b: Stmt) -> Stmt {
        match (a, b) {
            (Stmt::Skip, b) => b,
            (a, Stmt::Skip) => a,
            (a, b) => Stmt::Seq(Box::new(a), Box::new(b)),
        }
    }
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: Ident,
    /// Return type.
    pub ret: Ty,
    /// Parameters, in order. Each parameter's storage is determined by
    /// membership in [`Function::vars`] (memory) or [`Function::temps`]
    /// (register-like).
    pub params: Vec<(Ident, Ty)>,
    /// Memory-resident locals (including parameters before `SimplLocals`).
    pub vars: Vec<(Ident, Ty)>,
    /// Temporaries with optional source names (parameters/locals lifted by
    /// `SimplLocals`).
    pub temps: Vec<(TempId, Ty, Option<Ident>)>,
    /// Function body.
    pub body: Stmt,
}

impl Function {
    /// The interface-level signature of the function.
    pub fn signature(&self) -> Signature {
        Signature::new(
            self.params
                .iter()
                .filter_map(|(_, t)| t.machine_typ())
                .collect(),
            self.ret.machine_typ(),
        )
    }
}

/// A global variable definition.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalVar {
    /// Variable name.
    pub name: Ident,
    /// Type.
    pub ty: Ty,
    /// Initial value (scalar globals only); zero/space otherwise.
    pub init: Option<i64>,
    /// Is the variable `const`?
    pub readonly: bool,
}

/// An external function declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternDecl {
    /// Function name.
    pub name: Ident,
    /// Return type.
    pub ret: Ty,
    /// Parameter types.
    pub params: Vec<Ty>,
}

impl ExternDecl {
    /// The interface-level signature of the declaration.
    pub fn signature(&self) -> Signature {
        Signature::new(
            self.params.iter().filter_map(|t| t.machine_typ()).collect(),
            self.ret.machine_typ(),
        )
    }
}

/// A Clight-mini translation unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Global variables defined here.
    pub globals: Vec<GlobalVar>,
    /// Functions defined here.
    pub functions: Vec<Function>,
    /// External functions this unit calls.
    pub externs: Vec<ExternDecl>,
}

impl Program {
    /// Find a function definition by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Find an extern declaration by name.
    pub fn extern_decl(&self, name: &str) -> Option<&ExternDecl> {
        self.externs.iter().find(|e| e.name == name)
    }

    /// The signature associated with `name` in this unit, if any
    /// (definition or declaration).
    pub fn sig_of(&self, name: &str) -> Option<Signature> {
        self.function(name)
            .map(Function::signature)
            .or_else(|| self.extern_decl(name).map(ExternDecl::signature))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_types() {
        let e = Expr::Binop(
            Binop::Add,
            Box::new(Expr::ConstInt(1)),
            Box::new(Expr::ConstInt(2)),
            Ty::Int,
        );
        assert_eq!(e.ty(), Ty::Int);
        assert!(!e.is_lvalue());
        assert!(Expr::Var("x".into(), Ty::Int).is_lvalue());
    }

    #[test]
    fn seq_drops_skip() {
        assert_eq!(Stmt::seq(Stmt::Skip, Stmt::Break), Stmt::Break);
        assert_eq!(Stmt::seq(Stmt::Break, Stmt::Skip), Stmt::Break);
    }

    #[test]
    fn signature_of_function() {
        let f = Function {
            name: "f".into(),
            ret: Ty::Int,
            params: vec![
                ("a".into(), Ty::Int),
                ("p".into(), Ty::Ptr(Box::new(Ty::Int))),
            ],
            vars: vec![],
            temps: vec![],
            body: Stmt::Skip,
        };
        let sig = f.signature();
        assert_eq!(sig.params.len(), 2);
        assert_eq!(sig.ret, Some(mem::Typ::I32));
    }
}
