//! The RTL language: a control-flow graph of three-address instructions over
//! an unbounded supply of pseudo-registers (paper Table 3).

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;

use compcerto_core::iface::Signature;
use compcerto_core::symtab::Ident;
use mem::{Chunk, Val};
use minor::{MBinop, MUnop};

/// A CFG node identifier.
pub type Node = u32;

/// A pseudo-register.
pub type PReg = u32;

/// Pure operations (right-hand sides of [`Inst::Op`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RtlOp {
    /// Copy a register.
    Move(PReg),
    /// 32-bit constant.
    Int(i32),
    /// 64-bit constant.
    Long(i64),
    /// Address of a global symbol plus displacement.
    AddrGlobal(Ident, i64),
    /// Address within the activation's stack block.
    AddrStack(i64),
    /// Unary operation.
    Unop(MUnop, PReg),
    /// Binary operation.
    Binop(MBinop, PReg, PReg),
    /// Binary operation with immediate.
    BinopImm(MBinop, PReg, Val),
}

impl RtlOp {
    /// Registers read by the operation.
    pub fn uses(&self) -> Vec<PReg> {
        match self {
            RtlOp::Move(r) | RtlOp::Unop(_, r) | RtlOp::BinopImm(_, r, _) => vec![*r],
            RtlOp::Binop(_, a, b) => vec![*a, *b],
            _ => vec![],
        }
    }
}

impl fmt::Display for RtlOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtlOp::Move(r) => write!(f, "x{r}"),
            RtlOp::Int(n) => write!(f, "{n}"),
            RtlOp::Long(n) => write!(f, "{n}L"),
            RtlOp::AddrGlobal(s, d) => write!(f, "&{s}+{d}"),
            RtlOp::AddrStack(o) => write!(f, "&stack+{o}"),
            RtlOp::Unop(op, r) => write!(f, "{op} x{r}"),
            RtlOp::Binop(op, a, b) => write!(f, "{op} x{a}, x{b}"),
            RtlOp::BinopImm(op, a, i) => write!(f, "{op} x{a}, #{i}"),
        }
    }
}

/// An RTL instruction. Every instruction names its successor(s) explicitly.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst := op`; continue at the successor.
    Op(RtlOp, PReg, Node),
    /// `dst := chunk[base + disp]`.
    Load(Chunk, PReg, i64, PReg, Node),
    /// `chunk[base + disp] := src`.
    Store(Chunk, PReg, i64, PReg, Node),
    /// `dst := call f(args)` with the callee's signature.
    Call(Signature, Ident, Vec<PReg>, Option<PReg>, Node),
    /// Tail call (frees the frame first; function must have no stack data).
    Tailcall(Signature, Ident, Vec<PReg>),
    /// Branch on the truth of a register.
    Cond(PReg, Node, Node),
    /// No-op (used by optimization passes to blank instructions).
    Nop(Node),
    /// Return from the function.
    Return(Option<PReg>),
}

/// The successors of an instruction, in the order listed: at most two,
/// held inline, so reading them allocates nothing. Derefs to a slice and
/// iterates by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Succs {
    nodes: [Node; 2],
    len: u8,
}

impl Deref for Succs {
    type Target = [Node];

    fn deref(&self) -> &[Node] {
        &self.nodes[..usize::from(self.len)]
    }
}

impl IntoIterator for Succs {
    type Item = Node;
    type IntoIter = std::iter::Take<std::array::IntoIter<Node, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.nodes.into_iter().take(usize::from(self.len))
    }
}

impl Inst {
    /// Successor nodes.
    pub fn successors(&self) -> Succs {
        let (nodes, len) = match self {
            Inst::Op(_, _, n)
            | Inst::Load(_, _, _, _, n)
            | Inst::Store(_, _, _, _, n)
            | Inst::Call(_, _, _, _, n)
            | Inst::Nop(n) => ([*n, 0], 1),
            Inst::Cond(_, t, f) => ([*t, *f], 2),
            Inst::Tailcall(_, _, _) | Inst::Return(_) => ([0, 0], 0),
        };
        Succs { nodes, len }
    }

    /// Registers read by the instruction.
    pub fn uses(&self) -> Vec<PReg> {
        match self {
            Inst::Op(op, _, _) => op.uses(),
            Inst::Load(_, base, _, _, _) => vec![*base],
            Inst::Store(_, base, _, src, _) => vec![*base, *src],
            Inst::Call(_, _, args, _, _) | Inst::Tailcall(_, _, args) => args.clone(),
            Inst::Cond(r, _, _) => vec![*r],
            Inst::Nop(_) => vec![],
            Inst::Return(r) => r.iter().copied().collect(),
        }
    }

    /// Register written by the instruction, if any.
    pub fn def(&self) -> Option<PReg> {
        match self {
            Inst::Op(_, d, _) | Inst::Load(_, _, _, d, _) => Some(*d),
            Inst::Call(_, _, _, d, _) => *d,
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Op(op, d, n) => write!(f, "x{d} := {op}; goto {n}"),
            Inst::Load(c, b, disp, d, n) => write!(f, "x{d} := {c}[x{b}+{disp}]; goto {n}"),
            Inst::Store(c, b, disp, s, n) => write!(f, "{c}[x{b}+{disp}] := x{s}; goto {n}"),
            Inst::Call(_, callee, args, d, n) => {
                match d {
                    Some(d) => write!(f, "x{d} := ")?,
                    None => {}
                }
                write!(f, "call {callee}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "x{a}")?;
                }
                write!(f, "); goto {n}")
            }
            Inst::Tailcall(_, callee, args) => {
                write!(f, "tailcall {callee}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "x{a}")?;
                }
                write!(f, ")")
            }
            Inst::Cond(r, t, e) => write!(f, "if x{r} goto {t} else {e}"),
            Inst::Nop(n) => write!(f, "nop; goto {n}"),
            Inst::Return(Some(r)) => write!(f, "return x{r}"),
            Inst::Return(None) => write!(f, "return"),
        }
    }
}

/// An RTL function.
#[derive(Debug, Clone, PartialEq)]
pub struct RtlFunction {
    /// Name.
    pub name: Ident,
    /// Signature.
    pub sig: Signature,
    /// Parameter registers, in order.
    pub params: Vec<PReg>,
    /// Stack block size.
    pub stack_size: i64,
    /// Entry node.
    pub entry: Node,
    /// The CFG.
    pub code: BTreeMap<Node, Inst>,
    /// First unused pseudo-register (for passes that need fresh ones).
    pub next_reg: PReg,
}

impl RtlFunction {
    /// Pretty-print the CFG (entry first, then node order).
    pub fn dump(&self) -> String {
        let mut out = format!(
            "{} {} stack={} entry={}\n",
            self.name, self.sig, self.stack_size, self.entry
        );
        for (n, i) in &self.code {
            out.push_str(&format!("  {n:>4}: {i}\n"));
        }
        out
    }

    /// This function with its code replaced by `code`: what a pass that
    /// rewrites instructions in place builds, in one ordered `collect`.
    #[must_use]
    pub fn with_code(&self, code: BTreeMap<Node, Inst>) -> RtlFunction {
        RtlFunction {
            name: self.name.clone(),
            sig: self.sig.clone(),
            params: self.params.clone(),
            stack_size: self.stack_size,
            entry: self.entry,
            code,
            next_reg: self.next_reg,
        }
    }
}

/// An RTL translation unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RtlProgram {
    /// Function definitions.
    pub functions: Vec<RtlFunction>,
    /// Known external functions.
    pub externs: Vec<(Ident, Signature)>,
}

impl RtlProgram {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&RtlFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Signature of a definition or known external.
    pub fn sig_of(&self, name: &str) -> Option<Signature> {
        self.function(name).map(|f| f.sig.clone()).or_else(|| {
            self.externs
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| s.clone())
        })
    }

    /// Map every function definition through `f`.
    pub fn map_functions(&self, f: impl Fn(&RtlFunction) -> RtlFunction) -> RtlProgram {
        RtlProgram {
            functions: self.functions.iter().map(f).collect(),
            externs: self.externs.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uses_and_defs() {
        let i = Inst::Op(RtlOp::Binop(MBinop::Add32, 1, 2), 3, 4);
        assert_eq!(i.uses(), vec![1, 2]);
        assert_eq!(i.def(), Some(3));
        assert_eq!(i.successors()[..], [4]);
        let c = Inst::Cond(5, 10, 20);
        assert_eq!(c.successors()[..], [10, 20]);
        assert_eq!(
            c.successors().into_iter().rev().collect::<Vec<_>>(),
            [20, 10]
        );
        assert!(Inst::Return(None).successors().is_empty());
        assert_eq!(c.def(), None);
    }
}
