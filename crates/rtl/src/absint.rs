//! The abstract domains of the interval value analysis and the neededness
//! analysis (DESIGN.md §12).
//!
//! Only the *domains* live here — the lattice of abstract values
//! ([`VaVal`]: constants as singleton intervals, signed intervals per
//! machine width, pointer provenance into globals and the stack frame), the
//! abstract register environments ([`VaEnv`], [`NeedEnv`]), and the sound
//! transfer functions over [`RtlOp`]. The analyses that *run* these domains
//! live in `compcerto-validate::absint`: neededness is a
//! [`crate::analysis::backward_solve`] instance, and the interval value
//! analysis keeps its own widening loop on [`crate::analysis::DenseCfg`]
//! and the same pop counters. The optimization passes ([`crate::vprop`],
//! [`crate::ndce`]) consume the solved facts as plain data — so the passes
//! stay decoupled from the analysis engine and the translation validators
//! can recompute the same facts on the passes' *inputs*.
//!
//! Signed vs. unsigned: intervals are stored with signed bounds; when
//! `lo ≥ 0` the same bounds are exact unsigned bounds ([`Itv::unsigned`]),
//! which is what the transfer functions for `Shru`, `ZeroExt` and the
//! masking operators exploit.

use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use mem::{Cmp, Val};
use minor::{MBinop, MUnop};

use crate::analysis::JoinSemiLattice;
use crate::lang::{PReg, RtlOp};
use crate::regenv::{AbsVal, RegEnv};

const I32_MIN: i64 = i32::MIN as i64;
const I32_MAX: i64 = i32::MAX as i64;
const U32_MAX: i64 = u32::MAX as i64;

// ---------------------------------------------------------------------------
// Intervals
// ---------------------------------------------------------------------------

/// A non-empty signed interval `[lo, hi]` (inclusive bounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Itv {
    /// Lower bound.
    pub lo: i64,
    /// Upper bound.
    pub hi: i64,
}

impl Itv {
    /// The singleton interval `[n, n]`.
    #[must_use]
    pub fn point(n: i64) -> Itv {
        Itv { lo: n, hi: n }
    }

    /// The interval `[lo, hi]`, swapping the bounds if given reversed.
    #[must_use]
    pub fn range(lo: i64, hi: i64) -> Itv {
        if lo <= hi {
            Itv { lo, hi }
        } else {
            Itv { lo: hi, hi: lo }
        }
    }

    /// Every 32-bit integer.
    #[must_use]
    pub fn full32() -> Itv {
        Itv {
            lo: I32_MIN,
            hi: I32_MAX,
        }
    }

    /// Every 64-bit integer.
    #[must_use]
    pub fn full64() -> Itv {
        Itv {
            lo: i64::MIN,
            hi: i64::MAX,
        }
    }

    /// Is this the singleton `{n}`?
    #[must_use]
    pub fn as_point(&self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Does the interval contain `n`?
    #[must_use]
    pub fn contains(&self, n: i64) -> bool {
        self.lo <= n && n <= self.hi
    }

    /// Convex hull (the interval join).
    #[must_use]
    pub fn join(&self, other: &Itv) -> Itv {
        Itv {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Standard widening: a bound that grew since `self` jumps to the width
    /// extreme, a stable bound is kept. Guarantees termination of the
    /// fixpoint iteration on loop-carried counters.
    #[must_use]
    pub fn widen(&self, next: &Itv, min: i64, max: i64) -> Itv {
        Itv {
            lo: if next.lo < self.lo { min } else { self.lo },
            hi: if next.hi > self.hi { max } else { self.hi },
        }
    }

    /// Exact unsigned bounds, when the sign is known (`lo ≥ 0`).
    #[must_use]
    pub fn unsigned(&self) -> Option<(u64, u64)> {
        (self.lo >= 0).then_some((self.lo as u64, self.hi as u64))
    }

    /// Definite truth of the comparison `a ⋈ b` over all pairs drawn from
    /// the two intervals, when one answer covers every pair.
    #[must_use]
    pub fn cmp_definite(&self, op: Cmp, other: &Itv) -> Option<bool> {
        match op {
            Cmp::Eq => {
                if self.hi < other.lo || other.hi < self.lo {
                    Some(false)
                } else {
                    match (self.as_point(), other.as_point()) {
                        (Some(a), Some(b)) => Some(a == b),
                        _ => None,
                    }
                }
            }
            Cmp::Ne => self.cmp_definite(Cmp::Eq, other).map(|b| !b),
            Cmp::Lt => {
                if self.hi < other.lo {
                    Some(true)
                } else if self.lo >= other.hi {
                    Some(false)
                } else {
                    None
                }
            }
            Cmp::Le => {
                if self.hi <= other.lo {
                    Some(true)
                } else if self.lo > other.hi {
                    Some(false)
                } else {
                    None
                }
            }
            Cmp::Gt => other.cmp_definite(Cmp::Lt, self),
            Cmp::Ge => other.cmp_definite(Cmp::Le, self),
        }
    }
}

impl fmt::Display for Itv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_point() {
            Some(n) => write!(f, "{n}"),
            None => write!(f, "[{},{}]", self.lo, self.hi),
        }
    }
}

/// The smallest all-ones mask `2^k − 1 ≥ h` (for `h ≥ 0`): an upper bound
/// for `or`/`xor` of non-negative values below `h`.
fn up_mask(h: i64) -> i64 {
    let mut m: i64 = 0;
    while m < h && m < I32_MAX.max(h) {
        m = (m << 1) | 1;
        if m >= h {
            break;
        }
    }
    m.max(h)
}

// ---------------------------------------------------------------------------
// Abstract values
// ---------------------------------------------------------------------------

/// Abstract value of a register in the interval value analysis.
///
/// Concretization (`γ`): `I32 i` is the set of `Val::Int(n)` with
/// `n ∈ i` — *`Undef` is not in `γ` of an interval*, which is what lets the
/// branch-folding rewrite rely on the truth of an interval being defined.
/// `Global`/`Stack` are single symbolic pointers (provenance + exact
/// displacement); `Top` is every value including `Undef`.
///
/// `Bot` concretizes to `{Undef}` — "unwritten on every path here": the RTL
/// semantics reads a never-assigned register as `Undef`, and since the
/// differential oracle demands *exact* stage agreement (no CompCert-style
/// `lessdef` slack), the analysis must track `Undef` honestly rather than
/// treat it as refinable. Consequently `Bot ⊔ x = Top` for `x ∉ {Bot}`
/// (nothing smaller contains both `Undef` and a defined value), every
/// operation on a `Bot` operand yields `Bot` (every `mem::Val` operation
/// maps an `Undef` operand to `Undef`), and no rewrite ever fires on `Bot`.
/// The precision cost is nil for well-defined programs: a register merged
/// as defined-on-one-path-only may not be read afterwards anyway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VaVal {
    /// Unwritten on every path (reads as `Undef`).
    Bot,
    /// A 32-bit integer within the interval.
    I32(Itv),
    /// A 64-bit integer within the interval.
    I64(Itv),
    /// A pointer to global `ident` plus displacement (the symbol is shared,
    /// so copying an environment never copies a name).
    Global(Rc<str>, i64),
    /// A pointer into the activation's stack block plus displacement.
    Stack(i64),
    /// Unknown (includes `Undef`).
    Top,
}

impl VaVal {
    /// The abstract 32-bit constant `n`.
    #[must_use]
    pub fn int(n: i32) -> VaVal {
        VaVal::I32(Itv::point(n as i64))
    }

    /// The abstract 64-bit constant `n`.
    #[must_use]
    pub fn long(n: i64) -> VaVal {
        VaVal::I64(Itv::point(n))
    }

    /// Abstract a compile-time constant (non-numeric values go to `Top`).
    #[must_use]
    pub fn of_const(v: &Val) -> VaVal {
        match v {
            Val::Int(n) => VaVal::int(*n),
            Val::Long(n) => VaVal::long(*n),
            _ => VaVal::Top,
        }
    }

    /// The numeric constant this value denotes, if it is a singleton.
    #[must_use]
    pub fn as_const(&self) -> Option<Val> {
        match self {
            VaVal::I32(i) => i.as_point().map(|n| Val::Int(n as i32)),
            VaVal::I64(i) => i.as_point().map(Val::Long),
            _ => None,
        }
    }

    /// Definite truth value as a branch condition, if one is known.
    /// Sound because intervals exclude `Undef` and pointers are true.
    #[must_use]
    pub fn truth(&self) -> Option<bool> {
        match self {
            VaVal::I32(i) | VaVal::I64(i) => {
                if !i.contains(0) {
                    Some(true)
                } else if i.as_point() == Some(0) {
                    Some(false)
                } else {
                    None
                }
            }
            VaVal::Global(_, _) | VaVal::Stack(_) => Some(true),
            VaVal::Bot | VaVal::Top => None,
        }
    }

    /// Join of two abstract values. `Bot ⊔ x = Top` for non-`Bot` `x`:
    /// `γ(Bot) = {Undef}` and no interval or pointer contains `Undef`.
    #[must_use]
    pub fn join(&self, other: &VaVal) -> VaVal {
        match (self, other) {
            (VaVal::Bot, VaVal::Bot) => VaVal::Bot,
            (VaVal::Bot, _) | (_, VaVal::Bot) => VaVal::Top,
            (VaVal::I32(a), VaVal::I32(b)) => VaVal::I32(a.join(b)),
            (VaVal::I64(a), VaVal::I64(b)) => VaVal::I64(a.join(b)),
            (a, b) if a == b => a.clone(),
            _ => VaVal::Top,
        }
    }

    /// Widen `self` (the old state) against `next` (the joined state):
    /// growing interval bounds jump to the width extremes, everything else
    /// behaves like [`VaVal::join`].
    #[must_use]
    pub fn widen(&self, next: &VaVal) -> VaVal {
        match (self, next) {
            (VaVal::I32(a), VaVal::I32(b)) => VaVal::I32(a.widen(b, I32_MIN, I32_MAX)),
            (VaVal::I64(a), VaVal::I64(b)) => VaVal::I64(a.widen(b, i64::MIN, i64::MAX)),
            _ => self.join(next),
        }
    }

    /// Does every concrete value of `self` have the width/shape that makes
    /// `op` act as the identity on it (used by the algebraic rewrites of
    /// `vprop` and their validator)?
    #[must_use]
    pub fn is_i32(&self) -> bool {
        matches!(self, VaVal::I32(_))
    }

    /// Is this a 64-bit integer interval?
    #[must_use]
    pub fn is_i64(&self) -> bool {
        matches!(self, VaVal::I64(_))
    }

    /// Is this a known pointer (global or stack provenance)?
    #[must_use]
    pub fn is_pointer(&self) -> bool {
        matches!(self, VaVal::Global(_, _) | VaVal::Stack(_))
    }
}

impl fmt::Display for VaVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VaVal::Bot => write!(f, "bot"),
            VaVal::I32(i) => write!(f, "i32:{i}"),
            VaVal::I64(i) => write!(f, "i64:{i}"),
            VaVal::Global(s, d) => write!(f, "&{s}+{d}"),
            VaVal::Stack(d) => write!(f, "&stk+{d}"),
            VaVal::Top => write!(f, "top"),
        }
    }
}

impl AbsVal for VaVal {
    const BOT: &'static Self = &VaVal::Bot;

    fn join(&self, other: &Self) -> Self {
        VaVal::join(self, other)
    }
}

/// Abstract register environment of the value analysis (missing registers
/// are `Bot`). Iteration is ascending, so the JSON fact dump is
/// deterministic.
///
/// The join runs over the *union* of the two sides' bound registers: a
/// register bound on one side only joins against the other side's implicit
/// `Bot` (= `Undef`), which goes to `Top` — see [`VaVal::join`].
pub type VaEnv = RegEnv<VaVal>;

impl RegEnv<VaVal> {
    /// Widen `self` (old state) against `next` register-wise; registers
    /// `self` leaves unbound take `next`'s value as is.
    #[must_use]
    pub fn widen(&self, next: &VaEnv) -> VaEnv {
        let mut out = next.clone();
        for (r, old) in self.iter() {
            out.set(r, old.widen(next.get(r)));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Abstract evaluation (the value-analysis transfer function on operations)
// ---------------------------------------------------------------------------

/// Is `op` commutative on every pair of values (`eval(a,b) == eval(b,a)`)?
#[must_use]
pub fn commutes(op: MBinop) -> bool {
    use MBinop::*;
    matches!(
        op,
        Add32 | Mul32 | And32 | Or32 | Xor32 | Add64 | Mul64 | And64 | Or64 | Xor64
    )
}

fn add_itv32(a: &Itv, b: &Itv) -> VaVal {
    // i32 bounds summed in i64 cannot overflow i64; a result outside the
    // i32 range may wrap at run time, so it widens to every 32-bit value.
    let lo = a.lo + b.lo;
    let hi = a.hi + b.hi;
    if lo >= I32_MIN && hi <= I32_MAX {
        VaVal::I32(Itv { lo, hi })
    } else {
        VaVal::I32(Itv::full32())
    }
}

fn sub_itv32(a: &Itv, b: &Itv) -> VaVal {
    let lo = a.lo - b.hi;
    let hi = a.hi - b.lo;
    if lo >= I32_MIN && hi <= I32_MAX {
        VaVal::I32(Itv { lo, hi })
    } else {
        VaVal::I32(Itv::full32())
    }
}

fn mul_itv32(a: &Itv, b: &Itv) -> VaVal {
    // Corner products of i32-range bounds fit in i64 (≤ 2^62).
    let c = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
    let lo = c.iter().copied().fold(i64::MAX, i64::min);
    let hi = c.iter().copied().fold(i64::MIN, i64::max);
    if lo >= I32_MIN && hi <= I32_MAX {
        VaVal::I32(Itv { lo, hi })
    } else {
        VaVal::I32(Itv::full32())
    }
}

fn add_itv64(a: &Itv, b: &Itv) -> VaVal {
    match (a.lo.checked_add(b.lo), a.hi.checked_add(b.hi)) {
        (Some(lo), Some(hi)) => VaVal::I64(Itv { lo, hi }),
        _ => VaVal::I64(Itv::full64()),
    }
}

fn sub_itv64(a: &Itv, b: &Itv) -> VaVal {
    match (a.lo.checked_sub(b.hi), a.hi.checked_sub(b.lo)) {
        (Some(lo), Some(hi)) => VaVal::I64(Itv { lo, hi }),
        _ => VaVal::I64(Itv::full64()),
    }
}

fn mul_itv64(a: &Itv, b: &Itv) -> VaVal {
    let cs = [
        a.lo.checked_mul(b.lo),
        a.lo.checked_mul(b.hi),
        a.hi.checked_mul(b.lo),
        a.hi.checked_mul(b.hi),
    ];
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    for c in cs {
        match c {
            Some(v) => {
                lo = lo.min(v);
                hi = hi.max(v);
            }
            None => return VaVal::I64(Itv::full64()),
        }
    }
    VaVal::I64(Itv { lo, hi })
}

/// Quotient interval for a positive constant divisor (Rust division
/// truncates toward zero, which is monotone in the dividend; `d > 0` rules
/// out both division by zero and the `MIN / -1` overflow).
fn div_pos(a: &Itv, d: i64) -> Itv {
    Itv::range(a.lo / d, a.hi / d)
}

/// Remainder interval for a positive constant divisor: `a % d` has the sign
/// of `a` and magnitude below `d`.
fn mod_pos(a: &Itv, d: i64) -> Itv {
    let hi = if a.hi > 0 { d - 1 } else { 0 };
    let lo = if a.lo < 0 { -(d - 1) } else { 0 };
    Itv { lo, hi }
}

fn bool_itv(b: Option<bool>) -> VaVal {
    match b {
        Some(true) => VaVal::int(1),
        Some(false) => VaVal::int(0),
        None => VaVal::I32(Itv { lo: 0, hi: 1 }),
    }
}

/// Abstractly evaluate `a ⟨op⟩ b`. Sound with respect to [`MBinop::eval`]:
/// the concrete result of any pair drawn from the operands' concretizations
/// is in the result's concretization (`Top` whenever `Undef` is possible).
#[must_use]
pub fn eval_binop_va(op: MBinop, a: &VaVal, b: &VaVal) -> VaVal {
    use MBinop::*;
    if *a == VaVal::Bot || *b == VaVal::Bot {
        return VaVal::Bot;
    }
    // Exact constant folding first — mirrors the runtime op bit for bit
    // (including the division-by-zero and overflow cases, which fold to
    // nothing and land in `Top`).
    if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
        return match op.fold(&x, &y) {
            Some(v) => VaVal::of_const(&v),
            None => VaVal::Top,
        };
    }
    match (op, a, b) {
        // -- integer interval arithmetic ---------------------------------
        (Add32 | Add64, VaVal::I32(x), VaVal::I32(y)) => add_itv32(x, y),
        (Add32 | Add64, VaVal::I64(x), VaVal::I64(y)) => add_itv64(x, y),
        (Sub32 | Sub64, VaVal::I32(x), VaVal::I32(y)) => sub_itv32(x, y),
        (Sub32 | Sub64, VaVal::I64(x), VaVal::I64(y)) => sub_itv64(x, y),
        (Mul32 | Mul64, VaVal::I32(x), VaVal::I32(y)) => mul_itv32(x, y),
        (Mul32 | Mul64, VaVal::I64(x), VaVal::I64(y)) => mul_itv64(x, y),
        (Div32 | Div64, VaVal::I32(x), VaVal::I32(y)) => match y.as_point() {
            Some(d) if d > 0 => VaVal::I32(div_pos(x, d)),
            _ => VaVal::Top,
        },
        (Div32 | Div64, VaVal::I64(x), VaVal::I64(y)) => match y.as_point() {
            Some(d) if d > 0 => VaVal::I64(div_pos(x, d)),
            _ => VaVal::Top,
        },
        (Mod32 | Mod64, VaVal::I32(x), VaVal::I32(y)) => match y.as_point() {
            Some(d) if d > 0 => VaVal::I32(mod_pos(x, d)),
            _ => VaVal::Top,
        },
        (Mod32 | Mod64, VaVal::I64(x), VaVal::I64(y)) => match y.as_point() {
            Some(d) if d > 0 => VaVal::I64(mod_pos(x, d)),
            _ => VaVal::Top,
        },
        // -- masking operators (unsigned reasoning when signs are known) --
        (And32 | And64, VaVal::I32(x), VaVal::I32(y)) => match (x.unsigned(), y.unsigned()) {
            (Some(_), Some(_)) => VaVal::I32(Itv::range(0, x.hi.min(y.hi))),
            (Some(_), None) => VaVal::I32(Itv::range(0, x.hi)),
            (None, Some(_)) => VaVal::I32(Itv::range(0, y.hi)),
            (None, None) => VaVal::I32(Itv::full32()),
        },
        (And32 | And64, VaVal::I64(x), VaVal::I64(y)) => match (x.unsigned(), y.unsigned()) {
            (Some(_), Some(_)) => VaVal::I64(Itv::range(0, x.hi.min(y.hi))),
            (Some(_), None) => VaVal::I64(Itv::range(0, x.hi)),
            (None, Some(_)) => VaVal::I64(Itv::range(0, y.hi)),
            (None, None) => VaVal::I64(Itv::full64()),
        },
        (Or32 | Or64 | Xor32 | Xor64, VaVal::I32(x), VaVal::I32(y)) => {
            if x.lo >= 0 && y.lo >= 0 {
                VaVal::I32(Itv::range(0, up_mask(x.hi.max(y.hi))))
            } else {
                VaVal::I32(Itv::full32())
            }
        }
        (Or32 | Or64 | Xor32 | Xor64, VaVal::I64(x), VaVal::I64(y)) => {
            if x.lo >= 0 && y.lo >= 0 && x.hi.max(y.hi) < i64::MAX / 2 {
                VaVal::I64(Itv::range(0, up_mask(x.hi.max(y.hi))))
            } else {
                VaVal::I64(Itv::full64())
            }
        }
        // -- shifts (the amount is a 32-bit value for both widths) --------
        (Shl32 | Shr32 | Shru32, VaVal::I32(x), VaVal::I32(k)) => shift32(op, x, k),
        (Shl64 | Shr64 | Shru64, VaVal::I64(x), VaVal::I32(k)) => shift64(op, x, k),
        // -- comparisons --------------------------------------------------
        (Cmp32(c) | Cmp64(c), VaVal::I32(x), VaVal::I32(y)) => bool_itv(x.cmp_definite(c, y)),
        (Cmp32(c) | Cmp64(c), VaVal::I64(x), VaVal::I64(y)) => bool_itv(x.cmp_definite(c, y)),
        (Cmp32(c) | Cmp64(c), VaVal::Global(s1, d1), VaVal::Global(s2, d2)) => {
            if s1 == s2 {
                bool_itv(Some(c.holds(d1.cmp(d2))))
            } else {
                // Distinct symbols name distinct blocks: only (in)equality
                // is defined across blocks.
                match c {
                    Cmp::Eq => VaVal::int(0),
                    Cmp::Ne => VaVal::int(1),
                    _ => VaVal::Top,
                }
            }
        }
        (Cmp32(c) | Cmp64(c), VaVal::Stack(d1), VaVal::Stack(d2)) => {
            bool_itv(Some(c.holds(d1.cmp(d2))))
        }
        // -- pointer arithmetic (provenance tracking) ---------------------
        (Add32 | Add64, VaVal::Global(s, d), y) | (Add32 | Add64, y, VaVal::Global(s, d)) => {
            match y.as_const() {
                Some(Val::Int(n)) => VaVal::Global(s.clone(), d.wrapping_add(n as i64)),
                Some(Val::Long(n)) => VaVal::Global(s.clone(), d.wrapping_add(n)),
                _ => VaVal::Top,
            }
        }
        (Add32 | Add64, VaVal::Stack(d), y) | (Add32 | Add64, y, VaVal::Stack(d)) => {
            match y.as_const() {
                Some(Val::Int(n)) => VaVal::Stack(d.wrapping_add(n as i64)),
                Some(Val::Long(n)) => VaVal::Stack(d.wrapping_add(n)),
                _ => VaVal::Top,
            }
        }
        (Sub32 | Sub64, VaVal::Global(s, d), y) => match y.as_const() {
            Some(Val::Int(n)) => VaVal::Global(s.clone(), d.wrapping_sub(n as i64)),
            Some(Val::Long(n)) => VaVal::Global(s.clone(), d.wrapping_sub(n)),
            _ => match y {
                VaVal::Global(s2, d2) if s == s2 => VaVal::long(d.wrapping_sub(*d2)),
                _ => VaVal::Top,
            },
        },
        (Sub32 | Sub64, VaVal::Stack(d), y) => match y.as_const() {
            Some(Val::Int(n)) => VaVal::Stack(d.wrapping_sub(n as i64)),
            Some(Val::Long(n)) => VaVal::Stack(d.wrapping_sub(n)),
            _ => match y {
                VaVal::Stack(d2) => VaVal::long(d.wrapping_sub(*d2)),
                _ => VaVal::Top,
            },
        },
        _ => VaVal::Top,
    }
}

fn shift32(op: MBinop, x: &Itv, k: &Itv) -> VaVal {
    match k.as_point() {
        Some(k) if (0..32).contains(&k) => {
            let k = k as u32;
            match op {
                MBinop::Shl32 => {
                    if x.lo >= 0 && x.hi <= (I32_MAX >> k) {
                        VaVal::I32(Itv::range(x.lo << k, x.hi << k))
                    } else {
                        VaVal::I32(Itv::full32())
                    }
                }
                MBinop::Shr32 => VaVal::I32(Itv::range(x.lo >> k, x.hi >> k)),
                MBinop::Shru32 => {
                    if k == 0 {
                        VaVal::I32(*x)
                    } else if x.lo >= 0 {
                        VaVal::I32(Itv::range(x.lo >> k, x.hi >> k))
                    } else {
                        VaVal::I32(Itv::range(0, U32_MAX >> k))
                    }
                }
                _ => VaVal::Top,
            }
        }
        // An in-range but unknown amount still yields a defined 32-bit
        // integer; anything else may be `Undef`.
        _ if k.lo >= 0 && k.hi < 32 => VaVal::I32(Itv::full32()),
        _ => VaVal::Top,
    }
}

fn shift64(op: MBinop, x: &Itv, k: &Itv) -> VaVal {
    match k.as_point() {
        Some(k) if (0..64).contains(&k) => {
            let k = k as u32;
            match op {
                MBinop::Shl64 => {
                    if x.lo >= 0 && x.hi <= (i64::MAX >> k) {
                        VaVal::I64(Itv::range(x.lo << k, x.hi << k))
                    } else {
                        VaVal::I64(Itv::full64())
                    }
                }
                MBinop::Shr64 => VaVal::I64(Itv::range(x.lo >> k, x.hi >> k)),
                MBinop::Shru64 => {
                    if k == 0 {
                        VaVal::I64(*x)
                    } else if x.lo >= 0 {
                        VaVal::I64(Itv::range(x.lo >> k, x.hi >> k))
                    } else {
                        VaVal::I64(Itv::range(0, ((u64::MAX >> k) as i64).max(0)))
                    }
                }
                _ => VaVal::Top,
            }
        }
        _ if k.lo >= 0 && k.hi < 64 => VaVal::I64(Itv::full64()),
        _ => VaVal::Top,
    }
}

/// Abstractly evaluate a unary operation.
#[must_use]
pub fn eval_unop_va(op: MUnop, v: &VaVal) -> VaVal {
    if *v == VaVal::Bot {
        return VaVal::Bot;
    }
    if let Some(x) = v.as_const() {
        let out = op.eval(x);
        return if out.is_defined() && !matches!(out, Val::Ptr(_, _)) {
            VaVal::of_const(&out)
        } else {
            VaVal::Top
        };
    }
    match (op, v) {
        (MUnop::Neg32, VaVal::I32(i)) => {
            if i.lo > I32_MIN {
                VaVal::I32(Itv::range(-i.hi, -i.lo))
            } else {
                VaVal::I32(Itv::full32())
            }
        }
        (MUnop::Neg64, VaVal::I64(i)) => {
            if i.lo > i64::MIN {
                VaVal::I64(Itv::range(-i.hi, -i.lo))
            } else {
                VaVal::I64(Itv::full64())
            }
        }
        (MUnop::Not32, VaVal::I32(i)) => VaVal::I32(Itv::range(!i.hi, !i.lo)),
        (MUnop::Not64, VaVal::I64(i)) => VaVal::I64(Itv::range(!i.hi, !i.lo)),
        (MUnop::BoolNot, v) => match v.truth() {
            Some(b) => VaVal::int(if b { 0 } else { 1 }),
            None => match v {
                VaVal::I32(_) | VaVal::I64(_) => VaVal::I32(Itv { lo: 0, hi: 1 }),
                _ => VaVal::Top,
            },
        },
        (MUnop::SignExt, VaVal::I32(i)) => VaVal::I64(*i),
        (MUnop::ZeroExt, VaVal::I32(i)) => {
            if i.lo >= 0 {
                VaVal::I64(*i)
            } else {
                VaVal::I64(Itv::range(0, U32_MAX))
            }
        }
        (MUnop::Trunc, VaVal::I64(i)) => {
            if i.lo >= I32_MIN && i.hi <= I32_MAX {
                VaVal::I32(*i)
            } else {
                VaVal::I32(Itv::full32())
            }
        }
        _ => VaVal::Top,
    }
}

/// Abstractly evaluate a pure [`RtlOp`] under `env`.
#[must_use]
pub fn eval_op_va(env: &VaEnv, op: &RtlOp) -> VaVal {
    match op {
        RtlOp::Move(r) => env.get(*r).clone(),
        RtlOp::Int(n) => VaVal::int(*n),
        RtlOp::Long(n) => VaVal::long(*n),
        RtlOp::AddrGlobal(s, d) => VaVal::Global(s.as_str().into(), *d),
        RtlOp::AddrStack(o) => VaVal::Stack(*o),
        RtlOp::Unop(u, r) => eval_unop_va(*u, env.get(*r)),
        RtlOp::Binop(b, x, y) => eval_binop_va(*b, env.get(*x), env.get(*y)),
        RtlOp::BinopImm(b, x, imm) => eval_binop_va(*b, env.get(*x), &VaVal::of_const(imm)),
    }
}

// ---------------------------------------------------------------------------
// Neededness (liveness of bits)
// ---------------------------------------------------------------------------

/// How much of a register's value a continuation needs (CompCert's
/// `NeedDomain`, DESIGN.md §12): nothing, some bit positions, or the full
/// value.
///
/// The bit masks refine *reporting* (and power future narrowing rewrites);
/// the dead-code pass only acts on `Nothing`. To keep that deletion
/// unconditionally sound, mask propagation is floored: a non-`Nothing`
/// need never propagates `Nothing` to the registers an instruction reads —
/// so `Nothing` means "no instruction whose result is ever needed reads
/// this register", a transitive-use argument that does not depend on the
/// masked-agreement of possibly-`Undef` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Needs {
    /// The value is never observed.
    Nothing,
    /// Only these bit positions are observed (never the empty mask).
    Bits(u64),
    /// The whole value is observed.
    All,
}

impl Needs {
    /// Build a mask need, normalizing empty and full masks.
    #[must_use]
    pub fn bits(m: u64) -> Needs {
        if m == 0 {
            Needs::Nothing
        } else if m == u64::MAX {
            Needs::All
        } else {
            Needs::Bits(m)
        }
    }

    /// Like [`Needs::bits`], but floored: an empty computed mask still
    /// demands one bit, so a live chain never collapses to `Nothing`.
    #[must_use]
    pub fn bits_floor(m: u64) -> Needs {
        Needs::bits(if m == 0 { 1 } else { m })
    }

    /// Join (union of observations).
    #[must_use]
    pub fn join(&self, other: &Needs) -> Needs {
        match (self, other) {
            (Needs::Nothing, x) | (x, Needs::Nothing) => *x,
            (Needs::All, _) | (_, Needs::All) => Needs::All,
            (Needs::Bits(a), Needs::Bits(b)) => Needs::bits(a | b),
        }
    }

    /// Is anything needed?
    #[must_use]
    pub fn is_nothing(&self) -> bool {
        matches!(self, Needs::Nothing)
    }

    /// The mask of observed bits (`u64::MAX` for `All`).
    #[must_use]
    pub fn mask(&self) -> u64 {
        match self {
            Needs::Nothing => 0,
            Needs::Bits(m) => *m,
            Needs::All => u64::MAX,
        }
    }
}

impl fmt::Display for Needs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Needs::Nothing => write!(f, "nothing"),
            Needs::Bits(m) => write!(f, "bits:{m:#x}"),
            Needs::All => write!(f, "all"),
        }
    }
}

/// All bit positions up to (and including) the most significant needed bit:
/// the needed input bits of carry-propagating operators (`add`, `sub`,
/// `mul`, `neg`) — carries flow strictly upward, so input bits above the
/// highest observed output bit cannot influence it.
#[must_use]
pub fn up_to_msb(m: u64) -> u64 {
    if m == 0 {
        return 0;
    }
    let msb = 63 - m.leading_zeros();
    if msb >= 63 {
        u64::MAX
    } else {
        (1u64 << (msb + 1)) - 1
    }
}

/// The needs an instruction's *uses* inherit from the need `nv` of its
/// result, per operator (floored — see [`Needs`]). Returns the need of each
/// operand register of `op`, in `op.uses()` order.
#[must_use]
pub fn op_arg_needs(op: &RtlOp, nv: Needs) -> Vec<Needs> {
    use MBinop::*;
    if nv.is_nothing() {
        return op.uses().iter().map(|_| Needs::Nothing).collect();
    }
    let m = nv.mask();
    match op {
        RtlOp::Move(_) => vec![nv],
        RtlOp::Int(_) | RtlOp::Long(_) | RtlOp::AddrGlobal(_, _) | RtlOp::AddrStack(_) => vec![],
        RtlOp::Unop(u, _) => vec![match u {
            MUnop::Not32 | MUnop::Not64 => Needs::bits_floor(m),
            MUnop::Neg32 | MUnop::Neg64 => Needs::bits_floor(up_to_msb(m)),
            MUnop::BoolNot => Needs::All,
            MUnop::SignExt => {
                // Any observed high bit observes the sign bit 31.
                let low = m & 0xFFFF_FFFF;
                let sign = if m >> 31 != 0 { 1u64 << 31 } else { 0 };
                Needs::bits_floor(low | sign)
            }
            MUnop::ZeroExt => Needs::bits_floor(m & 0xFFFF_FFFF),
            MUnop::Trunc => Needs::bits_floor(m & 0xFFFF_FFFF),
        }],
        RtlOp::Binop(b, _, _) | RtlOp::BinopImm(b, _, _) => {
            let each = match b {
                And32 | Or32 | Xor32 | And64 | Or64 | Xor64 => Needs::bits_floor(m),
                Add32 | Sub32 | Mul32 | Add64 | Sub64 | Mul64 => Needs::bits_floor(up_to_msb(m)),
                _ => Needs::All,
            };
            // For `BinopImm` the masking by a known immediate refines the
            // single register operand.
            if let RtlOp::BinopImm(And32, _, Val::Int(k)) = op {
                return vec![Needs::bits_floor(m & (*k as u32 as u64))];
            }
            if let RtlOp::BinopImm(And64, _, Val::Long(k)) = op {
                return vec![Needs::bits_floor(m & (*k as u64))];
            }
            if let RtlOp::BinopImm(Shl32, _, Val::Int(k)) = op {
                if (0..32).contains(k) {
                    return vec![Needs::bits_floor((m & 0xFFFF_FFFF) >> k)];
                }
            }
            if let RtlOp::BinopImm(Shru32, _, Val::Int(k)) = op {
                if (0..32).contains(k) {
                    return vec![Needs::bits_floor((m << k) & 0xFFFF_FFFF)];
                }
            }
            op.uses().iter().map(|_| each).collect()
        }
    }
}

/// Needed-bits environment at a program point (missing registers are
/// `Nothing`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NeedEnv {
    regs: BTreeMap<PReg, Needs>,
}

impl NeedEnv {
    /// The need of `r`.
    #[must_use]
    pub fn get(&self, r: PReg) -> Needs {
        self.regs.get(&r).copied().unwrap_or(Needs::Nothing)
    }

    /// Record that `r` is needed at (at least) `n`.
    pub fn add(&mut self, r: PReg, n: Needs) {
        let j = self.get(r).join(&n);
        if j.is_nothing() {
            self.regs.remove(&r);
        } else {
            self.regs.insert(r, j);
        }
    }

    /// Forget `r` (it is being defined here).
    pub fn kill(&mut self, r: PReg) {
        self.regs.remove(&r);
    }

    /// The needed registers, ascending (for fact dumps).
    pub fn iter(&self) -> impl Iterator<Item = (PReg, Needs)> + '_ {
        self.regs.iter().map(|(r, n)| (*r, *n))
    }
}

impl JoinSemiLattice for NeedEnv {
    fn join(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.join_in_place(other);
        out
    }

    fn join_in_place(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (r, n) in &other.regs {
            let cur = self.get(*r);
            let j = cur.join(n);
            if j != cur {
                changed = true;
                self.regs.insert(*r, j);
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn itv_join_and_widen() {
        let a = Itv::point(3);
        let b = Itv::range(5, 9);
        assert_eq!(a.join(&b), Itv { lo: 3, hi: 9 });
        // A growing upper bound widens to the width maximum.
        let w = a.widen(&a.join(&b), I32_MIN, I32_MAX);
        assert_eq!(w, Itv { lo: 3, hi: I32_MAX });
        // Stable bounds stay.
        let w2 = b.widen(&b, I32_MIN, I32_MAX);
        assert_eq!(w2, b);
    }

    #[test]
    fn definite_comparisons() {
        let a = Itv::range(0, 4);
        let b = Itv::range(5, 9);
        assert_eq!(a.cmp_definite(Cmp::Lt, &b), Some(true));
        assert_eq!(b.cmp_definite(Cmp::Lt, &a), Some(false));
        assert_eq!(a.cmp_definite(Cmp::Eq, &b), Some(false));
        assert_eq!(a.cmp_definite(Cmp::Lt, &a), None);
        assert_eq!(
            Itv::point(7).cmp_definite(Cmp::Eq, &Itv::point(7)),
            Some(true)
        );
    }

    #[test]
    fn eval_mirrors_runtime_on_constants() {
        // Exhaustive-ish agreement between abstract and concrete eval on
        // singleton intervals.
        let cases = [
            (MBinop::Add32, 7, -3),
            (MBinop::Mul32, 6, 7),
            (MBinop::Div32, 9, 0), // folds to nothing => Top
            (MBinop::Shl32, 1, 31),
            (MBinop::Cmp32(Cmp::Lt), 2, 5),
        ];
        for (op, x, y) in cases {
            let av = eval_binop_va(op, &VaVal::int(x), &VaVal::int(y));
            match op.fold(&Val::Int(x), &Val::Int(y)) {
                Some(v) => assert_eq!(av.as_const(), Some(v), "{op} {x} {y}"),
                None => assert_eq!(av, VaVal::Top, "{op} {x} {y}"),
            }
        }
    }

    #[test]
    fn interval_arithmetic_is_sound_on_samples() {
        let a = Itv::range(-3, 10);
        let b = Itv::range(2, 5);
        let out = eval_binop_va(MBinop::Add32, &VaVal::I32(a), &VaVal::I32(b));
        let VaVal::I32(o) = out else {
            panic!("expected interval")
        };
        for x in a.lo..=a.hi {
            for y in b.lo..=b.hi {
                assert!(o.contains(x + y));
            }
        }
    }

    #[test]
    fn division_and_modulo_by_positive_constants() {
        let a = Itv::range(-7, 20);
        let q = eval_binop_va(MBinop::Div32, &VaVal::I32(a), &VaVal::int(3));
        let VaVal::I32(q) = q else { panic!() };
        let r = eval_binop_va(MBinop::Mod32, &VaVal::I32(a), &VaVal::int(3));
        let VaVal::I32(r) = r else { panic!() };
        for x in -7i64..=20 {
            assert!(q.contains(x / 3), "{x}/3 = {} ∉ {q}", x / 3);
            assert!(r.contains(x % 3), "{x}%3 = {} ∉ {r}", x % 3);
        }
        // Unknown divisor may trap: Top.
        assert_eq!(
            eval_binop_va(MBinop::Div32, &VaVal::I32(a), &VaVal::I32(Itv::range(0, 3))),
            VaVal::Top
        );
    }

    #[test]
    fn truth_of_intervals_and_pointers() {
        assert_eq!(VaVal::I32(Itv::range(1, 9)).truth(), Some(true));
        assert_eq!(VaVal::I32(Itv::range(-2, -1)).truth(), Some(true));
        assert_eq!(VaVal::int(0).truth(), Some(false));
        assert_eq!(VaVal::I32(Itv::range(0, 1)).truth(), None);
        assert_eq!(VaVal::Global("buf".into(), 8).truth(), Some(true));
        assert_eq!(VaVal::Top.truth(), None);
    }

    #[test]
    fn pointer_provenance_tracks_displacement() {
        let p = VaVal::Global("buf".into(), 8);
        let out = eval_binop_va(MBinop::Add64, &p, &VaVal::long(16));
        assert_eq!(out, VaVal::Global("buf".into(), 24));
        let diff = eval_binop_va(MBinop::Sub64, &out, &p);
        assert_eq!(diff.as_const(), Some(Val::Long(16)));
        // Distinct provenances only decide (in)equality.
        let q = VaVal::Global("acc".into(), 0);
        assert_eq!(eval_binop_va(MBinop::Cmp64(Cmp::Eq), &p, &q), VaVal::int(0));
        assert_eq!(eval_binop_va(MBinop::Cmp64(Cmp::Lt), &p, &q), VaVal::Top);
    }

    #[test]
    fn env_join_is_pointwise_over_the_union() {
        let mut a = VaEnv::default();
        a.set(1, VaVal::int(4));
        a.set(2, VaVal::int(9));
        let mut b = VaEnv::default();
        b.set(1, VaVal::int(6));
        let j = a.join(&b);
        assert_eq!(*j.get(1), VaVal::I32(Itv::range(4, 6)));
        // Register 2 is unwritten (= Undef) along `b`, so the merge can
        // only be Top: γ must contain both 9 and Undef.
        assert_eq!(*j.get(2), VaVal::Top);
        // And symmetrically.
        assert_eq!(*b.join(&a).get(2), VaVal::Top);
        // Bot ⊔ Bot stays Bot.
        assert_eq!(VaVal::Bot.join(&VaVal::Bot), VaVal::Bot);
    }

    #[test]
    fn needs_join_and_floor() {
        assert_eq!(Needs::bits(0), Needs::Nothing);
        assert_eq!(Needs::bits_floor(0), Needs::Bits(1));
        assert_eq!(
            Needs::Bits(0b0110).join(&Needs::Bits(0b1010)),
            Needs::Bits(0b1110)
        );
        assert_eq!(Needs::All.join(&Needs::Bits(1)), Needs::All);
        assert_eq!(up_to_msb(0b0100), 0b0111);
        assert_eq!(up_to_msb(1), 1);
        assert_eq!(up_to_msb(0), 0);
    }

    #[test]
    fn arg_needs_follow_operator_structure() {
        // x & 0x0F with only bit 4 observed: the mask misses, but the floor
        // keeps the operand needed (deletion stays a transitive-use fact).
        let op = RtlOp::BinopImm(MBinop::And32, 1, Val::Int(0x0F));
        let needs = op_arg_needs(&op, Needs::Bits(0x10));
        assert_eq!(needs, vec![Needs::Bits(1)]);
        // A dead result needs nothing from its operands (cascade deletion).
        let needs = op_arg_needs(&op, Needs::Nothing);
        assert_eq!(needs, vec![Needs::Nothing]);
        // Comparisons observe everything.
        let op = RtlOp::Binop(MBinop::Cmp32(Cmp::Lt), 1, 2);
        assert_eq!(op_arg_needs(&op, Needs::Bits(1)), vec![Needs::All; 2]);
    }
}
