//! Runtime values and the operations CompCertO languages share on them.

use std::fmt;

use crate::mem::BlockId;

/// Machine-level types of runtime values (CompCert's `AST.typ`).
///
/// Pointers are 64-bit in this model, so they have type [`Typ::I64`]-like
/// width but keep their own tag for the `wt` invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Typ {
    /// 32-bit integer.
    I32,
    /// 64-bit integer; also the type of pointers.
    I64,
    /// 32-bit IEEE float.
    F32,
    /// 64-bit IEEE float.
    F64,
}

impl Typ {
    /// Size of a value of this type, in bytes.
    pub fn size(self) -> i64 {
        match self {
            Typ::I32 | Typ::F32 => 4,
            Typ::I64 | Typ::F64 => 8,
        }
    }
}

impl fmt::Display for Typ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Typ::I32 => "i32",
            Typ::I64 => "i64",
            Typ::F32 => "f32",
            Typ::F64 => "f64",
        };
        f.write_str(s)
    }
}

/// A runtime value (paper Fig. 4).
///
/// `Undef` is the undefined value; simulation relations allow it to be
/// *refined* into any concrete value (see [`Val::lessdef`]). Pointers pair a
/// memory block identifier with a byte offset.
#[derive(Debug, Clone, Copy, Default)]
pub enum Val {
    /// The undefined value.
    #[default]
    Undef,
    /// 32-bit machine integer.
    Int(i32),
    /// 64-bit machine integer.
    Long(i64),
    /// 32-bit float (`single` in the paper).
    Single(f32),
    /// 64-bit float.
    Float(f64),
    /// Pointer into block `.0` at byte offset `.1`.
    Ptr(BlockId, i64),
}

impl PartialEq for Val {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Val::Undef, Val::Undef) => true,
            (Val::Int(a), Val::Int(b)) => a == b,
            (Val::Long(a), Val::Long(b)) => a == b,
            (Val::Single(a), Val::Single(b)) => a.to_bits() == b.to_bits(),
            (Val::Float(a), Val::Float(b)) => a.to_bits() == b.to_bits(),
            (Val::Ptr(a, x), Val::Ptr(b, y)) => a == b && x == y,
            _ => false,
        }
    }
}

impl Eq for Val {}

impl std::hash::Hash for Val {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Val::Undef => {}
            Val::Int(n) => n.hash(state),
            Val::Long(n) => n.hash(state),
            Val::Single(x) => x.to_bits().hash(state),
            Val::Float(x) => x.to_bits().hash(state),
            Val::Ptr(b, o) => {
                b.hash(state);
                o.hash(state);
            }
        }
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Undef => write!(f, "undef"),
            Val::Int(n) => write!(f, "{n}"),
            Val::Long(n) => write!(f, "{n}L"),
            Val::Single(x) => write!(f, "{x}f"),
            Val::Float(x) => write!(f, "{x}"),
            Val::Ptr(b, o) => write!(f, "&b{b}+{o}"),
        }
    }
}

// `add`, `sub`, `mul`, `shl`, `shr`, `neg` and `not` are CompCert's partial
// `Val` operations (an ill-typed operand pair gives `Undef`), not std's
// operator traits, which would make `a + b` read as total arithmetic.
#[allow(clippy::should_implement_trait)]
impl Val {
    /// The canonical "true" value.
    pub const TRUE: Val = Val::Int(1);
    /// The canonical "false" value.
    pub const FALSE: Val = Val::Int(0);

    /// Build a boolean value.
    pub fn of_bool(b: bool) -> Val {
        if b {
            Val::TRUE
        } else {
            Val::FALSE
        }
    }

    /// Value refinement `v1 ≤v v2` (paper §3.1): `undef` may be refined into
    /// any value; otherwise values must be equal.
    pub fn lessdef(&self, other: &Val) -> bool {
        matches!(self, Val::Undef) || self == other
    }

    /// Does this value have machine type `t`? `Undef` has every type,
    /// pointers have type [`Typ::I64`] (64-bit model).
    pub fn has_type(&self, t: Typ) -> bool {
        matches!(
            (self, t),
            (Val::Undef, _)
                | (Val::Int(_), Typ::I32)
                | (Val::Long(_), Typ::I64)
                | (Val::Ptr(_, _), Typ::I64)
                | (Val::Single(_), Typ::F32)
                | (Val::Float(_), Typ::F64)
        )
    }

    /// Coerce the value to type `t`, replacing ill-typed values by `Undef`
    /// (used by the `wt` invariant to normalize interface data).
    pub fn ensure_type(self, t: Typ) -> Val {
        if self.has_type(t) {
            self
        } else {
            Val::Undef
        }
    }

    /// Truth value of this value as a branch condition, if defined.
    pub fn truth(&self) -> Option<bool> {
        match self {
            Val::Int(n) => Some(*n != 0),
            Val::Long(n) => Some(*n != 0),
            Val::Ptr(_, _) => Some(true),
            _ => None,
        }
    }

    /// Is this a defined (non-`Undef`) value?
    pub fn is_defined(&self) -> bool {
        !matches!(self, Val::Undef)
    }

    // ---- 32-bit integer arithmetic -------------------------------------

    /// Addition. Supports `int+int`, `long+long` and pointer arithmetic
    /// `ptr+int`/`ptr+long`/`int+ptr`/`long+ptr`; anything else is `Undef`.
    pub fn add(self, other: Val) -> Val {
        match (self, other) {
            (Val::Int(a), Val::Int(b)) => Val::Int(a.wrapping_add(b)),
            (Val::Long(a), Val::Long(b)) => Val::Long(a.wrapping_add(b)),
            (Val::Ptr(b, o), Val::Int(n)) | (Val::Int(n), Val::Ptr(b, o)) => {
                Val::Ptr(b, o.wrapping_add(n as i64))
            }
            (Val::Ptr(b, o), Val::Long(n)) | (Val::Long(n), Val::Ptr(b, o)) => {
                Val::Ptr(b, o.wrapping_add(n))
            }
            (Val::Float(a), Val::Float(b)) => Val::Float(a + b),
            (Val::Single(a), Val::Single(b)) => Val::Single(a + b),
            _ => Val::Undef,
        }
    }

    /// Subtraction; `ptr - int` and same-block `ptr - ptr` are defined.
    pub fn sub(self, other: Val) -> Val {
        match (self, other) {
            (Val::Int(a), Val::Int(b)) => Val::Int(a.wrapping_sub(b)),
            (Val::Long(a), Val::Long(b)) => Val::Long(a.wrapping_sub(b)),
            (Val::Ptr(b, o), Val::Int(n)) => Val::Ptr(b, o.wrapping_sub(n as i64)),
            (Val::Ptr(b, o), Val::Long(n)) => Val::Ptr(b, o.wrapping_sub(n)),
            (Val::Ptr(b1, o1), Val::Ptr(b2, o2)) if b1 == b2 => Val::Long(o1.wrapping_sub(o2)),
            (Val::Float(a), Val::Float(b)) => Val::Float(a - b),
            (Val::Single(a), Val::Single(b)) => Val::Single(a - b),
            _ => Val::Undef,
        }
    }

    /// Multiplication.
    pub fn mul(self, other: Val) -> Val {
        match (self, other) {
            (Val::Int(a), Val::Int(b)) => Val::Int(a.wrapping_mul(b)),
            (Val::Long(a), Val::Long(b)) => Val::Long(a.wrapping_mul(b)),
            (Val::Float(a), Val::Float(b)) => Val::Float(a * b),
            (Val::Single(a), Val::Single(b)) => Val::Single(a * b),
            _ => Val::Undef,
        }
    }

    /// Signed division; division by zero or overflow is `Undef`.
    pub fn divs(self, other: Val) -> Val {
        match (self, other) {
            (Val::Int(a), Val::Int(b)) => match a.checked_div(b) {
                Some(q) => Val::Int(q),
                None => Val::Undef,
            },
            (Val::Long(a), Val::Long(b)) => match a.checked_div(b) {
                Some(q) => Val::Long(q),
                None => Val::Undef,
            },
            (Val::Float(a), Val::Float(b)) => Val::Float(a / b),
            (Val::Single(a), Val::Single(b)) => Val::Single(a / b),
            _ => Val::Undef,
        }
    }

    /// Signed remainder; remainder by zero or overflow is `Undef`.
    pub fn mods(self, other: Val) -> Val {
        match (self, other) {
            (Val::Int(a), Val::Int(b)) => match a.checked_rem(b) {
                Some(r) => Val::Int(r),
                None => Val::Undef,
            },
            (Val::Long(a), Val::Long(b)) => match a.checked_rem(b) {
                Some(r) => Val::Long(r),
                None => Val::Undef,
            },
            _ => Val::Undef,
        }
    }

    /// Bitwise and.
    pub fn and(self, other: Val) -> Val {
        match (self, other) {
            (Val::Int(a), Val::Int(b)) => Val::Int(a & b),
            (Val::Long(a), Val::Long(b)) => Val::Long(a & b),
            _ => Val::Undef,
        }
    }

    /// Bitwise or.
    pub fn or(self, other: Val) -> Val {
        match (self, other) {
            (Val::Int(a), Val::Int(b)) => Val::Int(a | b),
            (Val::Long(a), Val::Long(b)) => Val::Long(a | b),
            _ => Val::Undef,
        }
    }

    /// Bitwise xor.
    pub fn xor(self, other: Val) -> Val {
        match (self, other) {
            (Val::Int(a), Val::Int(b)) => Val::Int(a ^ b),
            (Val::Long(a), Val::Long(b)) => Val::Long(a ^ b),
            _ => Val::Undef,
        }
    }

    /// Shift left; shift amounts ≥ bit width are `Undef` (as in CompCert).
    pub fn shl(self, other: Val) -> Val {
        match (self, other) {
            (Val::Int(a), Val::Int(b)) if (0..32).contains(&b) => {
                Val::Int(a.wrapping_shl(b as u32))
            }
            (Val::Long(a), Val::Int(b)) if (0..64).contains(&b) => {
                Val::Long(a.wrapping_shl(b as u32))
            }
            _ => Val::Undef,
        }
    }

    /// Arithmetic shift right.
    pub fn shr(self, other: Val) -> Val {
        match (self, other) {
            (Val::Int(a), Val::Int(b)) if (0..32).contains(&b) => {
                Val::Int(a.wrapping_shr(b as u32))
            }
            (Val::Long(a), Val::Int(b)) if (0..64).contains(&b) => {
                Val::Long(a.wrapping_shr(b as u32))
            }
            _ => Val::Undef,
        }
    }

    /// Logical shift right.
    pub fn shru(self, other: Val) -> Val {
        match (self, other) {
            (Val::Int(a), Val::Int(b)) if (0..32).contains(&b) => {
                Val::Int(((a as u32).wrapping_shr(b as u32)) as i32)
            }
            (Val::Long(a), Val::Int(b)) if (0..64).contains(&b) => {
                Val::Long(((a as u64).wrapping_shr(b as u32)) as i64)
            }
            _ => Val::Undef,
        }
    }

    /// Two's-complement negation.
    pub fn neg(self) -> Val {
        match self {
            Val::Int(a) => Val::Int(a.wrapping_neg()),
            Val::Long(a) => Val::Long(a.wrapping_neg()),
            Val::Float(a) => Val::Float(-a),
            Val::Single(a) => Val::Single(-a),
            _ => Val::Undef,
        }
    }

    /// Bitwise complement.
    pub fn not(self) -> Val {
        match self {
            Val::Int(a) => Val::Int(!a),
            Val::Long(a) => Val::Long(!a),
            _ => Val::Undef,
        }
    }

    /// Boolean negation (`!x` in C): defined on ints, longs and pointers.
    pub fn bool_not(self) -> Val {
        match self.truth() {
            Some(b) => Val::of_bool(!b),
            None => Val::Undef,
        }
    }

    /// Signed comparison producing a boolean [`Val`]. Pointer comparisons are
    /// defined within a single block (offsets compared); equality/inequality
    /// across distinct blocks is defined and false/true respectively, as a
    /// deliberate simplification of CompCert's weak-validity side conditions
    /// (documented in DESIGN.md).
    pub fn cmp(self, op: Cmp, other: Val) -> Val {
        use std::cmp::Ordering;
        let ord: Option<Ordering> = match (self, other) {
            (Val::Int(a), Val::Int(b)) => Some(a.cmp(&b)),
            (Val::Long(a), Val::Long(b)) => Some(a.cmp(&b)),
            (Val::Float(a), Val::Float(b)) => a.partial_cmp(&b),
            (Val::Single(a), Val::Single(b)) => a.partial_cmp(&b),
            (Val::Ptr(b1, o1), Val::Ptr(b2, o2)) => {
                if b1 == b2 {
                    Some(o1.cmp(&o2))
                } else {
                    return match op {
                        Cmp::Eq => Val::FALSE,
                        Cmp::Ne => Val::TRUE,
                        _ => Val::Undef,
                    };
                }
            }
            (Val::Ptr(_, _), Val::Long(0)) => {
                return match op {
                    Cmp::Eq => Val::FALSE,
                    Cmp::Ne => Val::TRUE,
                    _ => Val::Undef,
                }
            }
            (Val::Long(0), Val::Ptr(_, _)) => {
                return match op {
                    Cmp::Eq => Val::FALSE,
                    Cmp::Ne => Val::TRUE,
                    _ => Val::Undef,
                }
            }
            _ => None,
        };
        match ord {
            Some(o) => Val::of_bool(op.holds(o)),
            None => Val::Undef,
        }
    }

    /// Unsigned 32/64-bit comparison.
    pub fn cmpu(self, op: Cmp, other: Val) -> Val {
        match (self, other) {
            (Val::Int(a), Val::Int(b)) => Val::of_bool(op.holds((a as u32).cmp(&(b as u32)))),
            (Val::Long(a), Val::Long(b)) => Val::of_bool(op.holds((a as u64).cmp(&(b as u64)))),
            _ => self.cmp(op, other),
        }
    }

    // ---- conversions ----------------------------------------------------

    /// Sign-extend a 32-bit int to 64 bits.
    pub fn longofint(self) -> Val {
        match self {
            Val::Int(n) => Val::Long(n as i64),
            _ => Val::Undef,
        }
    }

    /// Zero-extend a 32-bit int to 64 bits.
    pub fn longofintu(self) -> Val {
        match self {
            Val::Int(n) => Val::Long((n as u32) as i64),
            _ => Val::Undef,
        }
    }

    /// Truncate a 64-bit value to 32 bits.
    pub fn intoflong(self) -> Val {
        match self {
            Val::Long(n) => Val::Int(n as i32),
            _ => Val::Undef,
        }
    }
}

/// Comparison operators shared by all languages in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Cmp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Strictly less.
    Lt,
    /// Less or equal.
    Le,
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
}

impl Cmp {
    /// Does an `Ordering` satisfy this comparison?
    pub fn holds(self, o: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            Cmp::Eq => o == Equal,
            Cmp::Ne => o != Equal,
            Cmp::Lt => o == Less,
            Cmp::Le => o != Greater,
            Cmp::Gt => o == Greater,
            Cmp::Ge => o != Less,
        }
    }

    /// The negated comparison (`!(a < b)` is `a >= b`).
    pub fn negate(self) -> Cmp {
        match self {
            Cmp::Eq => Cmp::Ne,
            Cmp::Ne => Cmp::Eq,
            Cmp::Lt => Cmp::Ge,
            Cmp::Le => Cmp::Gt,
            Cmp::Gt => Cmp::Le,
            Cmp::Ge => Cmp::Lt,
        }
    }

    /// The comparison with its arguments swapped (`a < b` is `b > a`).
    pub fn swap(self) -> Cmp {
        match self {
            Cmp::Eq => Cmp::Eq,
            Cmp::Ne => Cmp::Ne,
            Cmp::Lt => Cmp::Gt,
            Cmp::Le => Cmp::Ge,
            Cmp::Gt => Cmp::Lt,
            Cmp::Ge => Cmp::Le,
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cmp::Eq => "==",
            Cmp::Ne => "!=",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lessdef_undef_below_everything() {
        assert!(Val::Undef.lessdef(&Val::Int(5)));
        assert!(Val::Undef.lessdef(&Val::Undef));
        assert!(!Val::Int(5).lessdef(&Val::Int(6)));
        assert!(Val::Int(5).lessdef(&Val::Int(5)));
    }

    #[test]
    fn pointer_arithmetic() {
        let p = Val::Ptr(3, 8);
        assert_eq!(p.add(Val::Int(4)), Val::Ptr(3, 12));
        assert_eq!(p.sub(Val::Ptr(3, 2)), Val::Long(6));
        assert_eq!(p.sub(Val::Ptr(4, 2)), Val::Undef);
    }

    #[test]
    fn undef_propagates() {
        assert_eq!(Val::Undef.add(Val::Int(1)), Val::Undef);
        assert_eq!(Val::Int(1).mul(Val::Float(2.0)), Val::Undef);
    }

    #[test]
    fn division_by_zero_is_undef() {
        assert_eq!(Val::Int(1).divs(Val::Int(0)), Val::Undef);
        assert_eq!(Val::Int(i32::MIN).divs(Val::Int(-1)), Val::Undef);
        assert_eq!(Val::Long(10).mods(Val::Long(0)), Val::Undef);
    }

    #[test]
    fn comparisons() {
        assert_eq!(Val::Int(1).cmp(Cmp::Lt, Val::Int(2)), Val::TRUE);
        assert_eq!(Val::Int(-1).cmpu(Cmp::Lt, Val::Int(1)), Val::FALSE);
        assert_eq!(Val::Ptr(1, 4).cmp(Cmp::Lt, Val::Ptr(1, 8)), Val::TRUE);
        assert_eq!(Val::Ptr(1, 4).cmp(Cmp::Eq, Val::Ptr(2, 4)), Val::FALSE);
        assert_eq!(Val::Ptr(1, 4).cmp(Cmp::Lt, Val::Ptr(2, 4)), Val::Undef);
    }

    #[test]
    fn typing() {
        assert!(Val::Int(3).has_type(Typ::I32));
        assert!(Val::Ptr(0, 0).has_type(Typ::I64));
        assert!(Val::Undef.has_type(Typ::F32));
        assert!(!Val::Int(3).has_type(Typ::I64));
        assert_eq!(Val::Int(3).ensure_type(Typ::I64), Val::Undef);
    }

    #[test]
    fn shifts_out_of_range_undef() {
        assert_eq!(Val::Int(1).shl(Val::Int(32)), Val::Undef);
        assert_eq!(Val::Int(1).shl(Val::Int(31)), Val::Int(i32::MIN));
        assert_eq!(Val::Int(-2).shru(Val::Int(1)), Val::Int(0x7FFF_FFFF));
    }

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(Val::Int(-1).longofint(), Val::Long(-1));
        assert_eq!(Val::Int(-1).longofintu(), Val::Long(0xFFFF_FFFF));
        assert_eq!(Val::Long(0x1_0000_0005).intoflong(), Val::Int(5));
    }
}
