//! Structural calling-convention conventions (paper §5 and Appendix C).
//!
//! These conventions bridge adjacent language interfaces:
//!
//! * [`Cl`]`: C ⇔ L` — marshal argument *values* into abstract locations
//!   (used by the `Allocation` pass, App. C.1);
//! * [`Lm`]`: L ⇔ M` — concretize locations into machine registers and
//!   in-memory stack slots, protecting the argument region (App. C.2,
//!   Fig. 13);
//! * [`Ma`]`: M ⇔ A` — move `sp`/`ra`/`pc` into their architectural
//!   registers (App. C.3);
//! * [`Ca`]`: C ⇔ A` — the fused convention `inj · CL · LM · MA` used by the
//!   end-to-end Theorem 3.8 harness. Its decomposition into the three
//!   structural pieces is validated symbolically by [`crate::algebra`].

use mem::{mem_inject, val_inject, Chunk, Mem, MemInj, Perm, Val};

use crate::cklr::{extend_parallel, infer_injection};
use crate::conv::SimConv;
use crate::iface::{
    abi, ARegs, CQuery, CReply, LQuery, LReply, MQuery, MReply, Signature, A, C, L, M,
};
use crate::regs::{Loc, Locset, Mreg, Regset, NREGS};

/// Remove all permissions on the argument region `[sp, sp+size_arguments)`
/// (CompCert's `free_args`, paper App. C.2): the L-level view of the M-level
/// memory, ensuring the source execution cannot touch stack-passed arguments.
pub fn free_args(sig: &Signature, m: &Mem, sp: &Val) -> Option<Mem> {
    let size = abi::size_arguments(sig);
    if size == 0 {
        return Some(m.clone());
    }
    let Val::Ptr(b, ofs) = sp else { return None };
    let mut out = m.clone();
    out.drop_perm(*b, *ofs, *ofs + size, Perm::None).ok()?;
    Some(out)
}

/// Restore the argument region of `outer` into `inner` (CompCert's `mix`,
/// paper App. C.2): the M-level post-call memory is the L-level post-call
/// memory with the argument region taken from the pre-call M-level memory.
pub fn mix_args(sig: &Signature, sp: &Val, outer: &Mem, inner: &Mem) -> Option<Mem> {
    let size = abi::size_arguments(sig);
    if size == 0 {
        return Some(inner.clone());
    }
    let Val::Ptr(b, ofs) = sp else { return None };
    let mut out = inner.clone();
    // Restore the bytes and permissions of the argument region from the
    // outer (M-level, pre-call) memory.
    out.copy_range_from(outer, *b, *ofs, *ofs + size).ok()?;
    Some(out)
}

/// Synthesize a location map from machine state (CompCert's `make_locset`,
/// paper App. C.2): registers from `rs`, `Outgoing` slots loaded from the
/// argument region at `sp`.
pub fn make_locset(sig: &Signature, rs: &[Val; NREGS], m: &Mem, sp: &Val) -> Locset {
    let mut ls = Locset::new();
    for r in Mreg::all() {
        ls.set(Loc::Reg(r), rs[r.index()]);
    }
    for loc in abi::loc_arguments(sig) {
        if let Loc::Outgoing(ofs) = loc {
            // Stack-argument slots are untyped 8-byte slots (Chunk::Any64).
            let v = match sp {
                Val::Ptr(b, base) => m.load(Chunk::Any64, *b, base + ofs).unwrap_or(Val::Undef),
                _ => Val::Undef,
            };
            ls.set(Loc::Outgoing(ofs), v);
        }
    }
    ls
}

/// Read argument values out of a location map (CompCert's `args(sg, ls)`,
/// paper App. C.1).
pub fn args_of_locset(sig: &Signature, ls: &Locset) -> Vec<Val> {
    abi::loc_arguments(sig).iter().map(|l| ls.get(*l)).collect()
}

// ---------------------------------------------------------------------------
// CL : C ⇔ L
// ---------------------------------------------------------------------------

/// The convention `CL : C ⇔ L` (paper App. C.1): the world remembers the
/// signature; arguments are read from the locations prescribed by
/// `loc_arguments`, the result from `loc_result`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cl;

impl SimConv for Cl {
    type Left = C;
    type Right = L;
    type World = Signature;

    fn name(&self) -> String {
        "CL".into()
    }

    fn match_query(&self, q1: &CQuery, q2: &LQuery) -> Vec<Signature> {
        let ok = q1.vf == q2.vf
            && q1.sig == q2.sig
            && q1.mem == q2.mem
            && q1.args == args_of_locset(&q1.sig, &q2.ls);
        if ok {
            vec![q1.sig.clone()]
        } else {
            vec![]
        }
    }

    fn match_reply(&self, sig: &Signature, r1: &CReply, r2: &LReply) -> bool {
        let res_ok = match sig.ret {
            Some(_) => r2.ls.get(Loc::Reg(abi::loc_result(sig))) == r1.retval,
            None => true,
        };
        res_ok && r1.mem == r2.mem
    }

    fn transport_query(&self, q1: &CQuery) -> Option<(Signature, LQuery)> {
        let mut ls = Locset::new();
        for (v, l) in q1.args.iter().zip(abi::loc_arguments(&q1.sig)) {
            ls.set(l, *v);
        }
        Some((
            q1.sig.clone(),
            LQuery {
                vf: q1.vf,
                sig: q1.sig.clone(),
                ls,
                mem: q1.mem.clone(),
            },
        ))
    }

    fn transport_reply(&self, sig: &Signature, r1: &CReply, q2: &LQuery) -> Option<LReply> {
        // Result in the result register; callee-save locations preserved from
        // the query; caller-save registers clobbered to Undef.
        let mut ls = Locset::new();
        for r in Mreg::all() {
            if abi::is_callee_save(r) {
                ls.set(Loc::Reg(r), q2.ls.get(Loc::Reg(r)));
            } else {
                ls.set(Loc::Reg(r), Val::Undef);
            }
        }
        if sig.ret.is_some() {
            ls.set(Loc::Reg(abi::loc_result(sig)), r1.retval);
        }
        Some(LReply {
            ls,
            mem: r1.mem.clone(),
        })
    }
}

// ---------------------------------------------------------------------------
// LM : L ⇔ M
// ---------------------------------------------------------------------------

/// The world of [`Lm`]: `signature × regset × mem × val` (paper App. C.2).
#[derive(Debug, Clone)]
pub struct LmWorld {
    /// Signature of the call.
    pub sig: Signature,
    /// Machine registers at the call.
    pub rs: [Val; NREGS],
    /// M-level memory at the call (with the argument region intact).
    pub mem: Mem,
    /// Stack pointer at the call.
    pub sp: Val,
}

/// The convention `LM : L ⇔ M` (paper App. C.2, Fig. 13): the L-level
/// location map is synthesized from the M-level machine state, and the
/// L-level memory is the M-level memory with the argument region's
/// permissions removed — encoding the separation property that previous
/// CompCert extensions needed heavyweight machinery for.
///
/// This convention has no canonical *forward* marshaling (the M-level stack
/// layout cannot be invented from an L-level query alone); use
/// [`Lm::source_of_with_sig`] to derive the L-level view of an M-level question.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lm;

impl Lm {
    /// Derive the L-level question for an M-level question whose signature is
    /// known (signatures travel in LM worlds, not in M-level questions).
    /// This is the functional, target-to-source direction of the convention.
    pub fn source_of_with_sig(&self, sig: &Signature, q2: &MQuery) -> Option<(LmWorld, LQuery)> {
        let ls = make_locset(sig, &q2.rs, &q2.mem, &q2.sp);
        let mem = free_args(sig, &q2.mem, &q2.sp)?;
        let w = LmWorld {
            sig: sig.clone(),
            rs: q2.rs,
            mem: q2.mem.clone(),
            sp: q2.sp,
        };
        Some((
            w,
            LQuery {
                vf: q2.vf,
                sig: sig.clone(),
                ls,
                mem,
            },
        ))
    }

    /// Derive the M-level reply corresponding to an L-level reply (used by
    /// checking environments): result/callee-save registers from the L-level
    /// location map, memory mixed per App. C.2.
    pub fn target_reply_of(&self, w: &LmWorld, r1: &LReply) -> Option<MReply> {
        let mut rs = [Val::Undef; NREGS];
        for r in Mreg::all() {
            rs[r.index()] = r1.ls.get(Loc::Reg(r));
        }
        let mem = mix_args(&w.sig, &w.sp, &w.mem, &r1.mem)?;
        Some(MReply { rs, mem })
    }
}

impl SimConv for Lm {
    type Left = L;
    type Right = M;
    type World = LmWorld;

    fn name(&self) -> String {
        "LM".into()
    }

    fn match_query(&self, q1: &LQuery, q2: &MQuery) -> Vec<LmWorld> {
        match self.source_of_with_sig(&q1.sig, q2) {
            Some((w, derived)) => {
                // Compare only the locations that matter: argument locations
                // and registers (the derived locset defines all registers).
                let args_ok =
                    args_of_locset(&q1.sig, &q1.ls) == args_of_locset(&q1.sig, &derived.ls);
                let regs_ok =
                    Mreg::all().all(|r| q1.ls.get(Loc::Reg(r)) == derived.ls.get(Loc::Reg(r)));
                if q1.vf == q2.vf && q1.mem == derived.mem && args_ok && regs_ok {
                    vec![w]
                } else {
                    vec![]
                }
            }
            None => vec![],
        }
    }

    fn match_reply(&self, w: &LmWorld, r1: &LReply, r2: &MReply) -> bool {
        // rs' ≡R ls': result registers agree.
        let res_ok = match w.sig.ret {
            Some(_) => {
                let r = abi::loc_result(&w.sig);
                r2.rs[r.index()] == r1.ls.get(Loc::Reg(r))
            }
            None => true,
        };
        // rs' ≡CS rs: callee-save registers preserved from the call.
        let cs_ok = abi::CALLEE_SAVE
            .iter()
            .all(|r| r2.rs[r.index()] == w.rs[r.index()]);
        // m' = mix(sg, sp, m, m̄').
        let mem_ok = match mix_args(&w.sig, &w.sp, &w.mem, &r1.mem) {
            Some(mixed) => mixed == r2.mem,
            None => false,
        };
        res_ok && cs_ok && mem_ok
    }
}

// ---------------------------------------------------------------------------
// MA : M ⇔ A
// ---------------------------------------------------------------------------

/// The world of [`Ma`]: the `(sp, ra)` pair (paper App. C.3).
#[derive(Debug, Clone, PartialEq)]
pub struct MaWorld {
    /// Stack pointer at the call.
    pub sp: Val,
    /// Return address at the call.
    pub ra: Val,
}

/// The convention `MA : M ⇔ A` (paper App. C.3): `sp`, `ra` and the function
/// address move into the architectural `sp`/`ra`/`pc` registers; the answer
/// must restore `sp` and jump to `ra`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ma;

impl SimConv for Ma {
    type Left = M;
    type Right = A;
    type World = MaWorld;

    fn name(&self) -> String {
        "MA".into()
    }

    fn match_query(&self, q1: &MQuery, q2: &ARegs) -> Vec<MaWorld> {
        let ok = q2.rs.pc == q1.vf
            && q2.rs.sp == q1.sp
            && q2.rs.ra == q1.ra
            && q2.rs.regs == q1.rs
            && q2.mem == q1.mem;
        if ok {
            vec![MaWorld {
                sp: q1.sp,
                ra: q1.ra,
            }]
        } else {
            vec![]
        }
    }

    fn match_reply(&self, w: &MaWorld, r1: &MReply, r2: &ARegs) -> bool {
        r2.rs.pc == w.ra && r2.rs.sp == w.sp && r2.rs.regs == r1.rs && r2.mem == r1.mem
    }

    fn transport_query(&self, q1: &MQuery) -> Option<(MaWorld, ARegs)> {
        let rs = Regset {
            regs: q1.rs,
            pc: q1.vf,
            sp: q1.sp,
            ra: q1.ra,
        };
        Some((
            MaWorld {
                sp: q1.sp,
                ra: q1.ra,
            },
            ARegs {
                rs,
                mem: q1.mem.clone(),
            },
        ))
    }

    fn transport_reply(&self, w: &MaWorld, r1: &MReply, q2: &ARegs) -> Option<ARegs> {
        let rs = Regset {
            regs: r1.rs,
            pc: w.ra,
            sp: w.sp,
            ra: q2.rs.ra,
        };
        Some(ARegs {
            rs,
            mem: r1.mem.clone(),
        })
    }
}

// ---------------------------------------------------------------------------
// CA : C ⇔ A (fused, with the injection step folded in)
// ---------------------------------------------------------------------------

/// The world of [`Ca`].
#[derive(Debug, Clone)]
pub struct CaWorld {
    /// Signature of the call.
    pub sig: Signature,
    /// Injection from C-level memory into A-level memory at the call.
    pub inj: MemInj,
    /// A-level register file at the call (for callee-save checking).
    pub rs: Regset,
    /// A-level memory at the call.
    pub mem: Mem,
}

/// The fused end-to-end convention `CA ≈ inj · CL · LM · MA : C ⇔ A` used by
/// the Theorem 3.8 harness: it marshals a C-level question directly into an
/// assembly-level question (allocating the stack-argument region and a
/// return-address sentinel), and checks assembly-level answers against
/// C-level answers (result register, callee-save preservation, `pc = ra`,
/// `sp` restored, memories injection-related).
///
/// `globals` is the number of shared global blocks (the symbol-table size):
/// the injection relating independently-evolved memories is *inferred* from
/// it plus the exchanged values ([`infer_injection`]).
///
/// The decomposition of the paper's `C = R* · wt · CA · vainj` into these
/// pieces is established symbolically by the [`crate::algebra`] engine; this
/// type is its executable counterpart.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ca {
    /// Number of shared global blocks (identity-mapped by the injection).
    pub globals: u32,
}

impl Ca {
    /// Offset stride of stack-passed arguments.
    const ARG_STRIDE: i64 = 8;

    /// A `CA` convention for a program with `globals` global blocks.
    pub fn new(globals: u32) -> Ca {
        Ca { globals }
    }
}

impl SimConv for Ca {
    type Left = C;
    type Right = A;
    type World = CaWorld;

    fn name(&self) -> String {
        "CA".into()
    }

    fn match_query(&self, q1: &CQuery, q2: &ARegs) -> Vec<CaWorld> {
        // Collect the corresponding value pairs exchanged by the call.
        let mut seeds: Vec<(Val, Val)> = vec![(q1.vf, q2.rs.pc)];
        let Val::Ptr(spb, spofs) = q2.rs.sp else {
            return vec![];
        };
        let mut target_args: Vec<Val> = Vec::with_capacity(q1.args.len());
        for i in 0..q1.args.len() {
            if i < abi::PARAM_REGS.len() {
                target_args.push(q2.rs.get(abi::PARAM_REGS[i]));
            } else {
                let ofs = spofs + ((i - abi::PARAM_REGS.len()) as i64) * Self::ARG_STRIDE;
                match q2.mem.load(Chunk::Any64, spb, ofs) {
                    Ok(v) => target_args.push(v),
                    Err(_) => return vec![],
                }
            }
        }
        seeds.extend(q1.args.iter().copied().zip(target_args.iter().copied()));
        // Infer the injection from the globals and the exchanged pointers.
        let Some(inj) = infer_injection(self.globals, &q1.mem, &q2.mem, &seeds) else {
            return vec![];
        };
        if mem_inject(&inj, &q1.mem, &q2.mem).is_err() {
            return vec![];
        }
        if !val_inject(&inj, &q1.vf, &q2.rs.pc) {
            return vec![];
        }
        for (v1, v2) in q1.args.iter().zip(&target_args) {
            if !val_inject(&inj, v1, v2) {
                return vec![];
            }
        }
        vec![CaWorld {
            sig: q1.sig.clone(),
            inj,
            rs: q2.rs.clone(),
            mem: q2.mem.clone(),
        }]
    }

    fn match_reply(&self, w: &CaWorld, r1: &CReply, r2: &ARegs) -> bool {
        // Control returned to the caller with the stack restored.
        if r2.rs.pc != w.rs.ra || r2.rs.sp != w.rs.sp {
            return false;
        }
        // Callee-save registers preserved.
        for r in abi::CALLEE_SAVE {
            if r2.rs.get(r) != w.rs.get(r) {
                return false;
            }
        }
        // Memories related at an evolved injection (the world's injection
        // extended by whatever the return value connects); result register
        // carries the (injected) return value.
        let mut seeds: Vec<(Val, Val)> = w
            .inj
            .iter()
            .map(|(b, (tb, d))| (Val::Ptr(b, 0), Val::Ptr(tb, d)))
            .collect();
        if w.sig.ret.is_some() {
            seeds.push((r1.retval, r2.rs.get(abi::RESULT_REG)));
        }
        let Some(f) = infer_injection(0, &r1.mem, &r2.mem, &seeds) else {
            return false;
        };
        if !w.inj.included_in(&f) {
            return false;
        }
        if mem_inject(&f, &r1.mem, &r2.mem).is_err() {
            return false;
        }
        match w.sig.ret {
            Some(_) => val_inject(&f, &r1.retval, &r2.rs.get(abi::RESULT_REG)),
            None => true,
        }
    }

    fn transport_query(&self, q1: &CQuery) -> Option<(CaWorld, ARegs)> {
        let mut m2 = q1.mem.clone();
        let asize = abi::size_arguments(&q1.sig);
        // Argument region (even when empty we allocate it so `sp` is a real
        // pointer, as the Asm semantics requires).
        let spb = m2.alloc(0, asize.max(0));
        // Return-address sentinel: a fresh empty block; the Asm semantics
        // recognizes `pc = ra` as the final state.
        let rab = m2.alloc(0, 0);
        let sp = Val::Ptr(spb, 0);
        let ra = Val::Ptr(rab, 0);
        let inj = MemInj::identity_below(q1.mem.next_block());

        let mut rs = Regset::new();
        rs.pc = q1.vf;
        rs.sp = sp;
        rs.ra = ra;
        for (i, v) in q1.args.iter().enumerate() {
            if i < abi::PARAM_REGS.len() {
                rs.set(abi::PARAM_REGS[i], *v);
            } else {
                let ofs = ((i - abi::PARAM_REGS.len()) as i64) * Self::ARG_STRIDE;
                m2.store(Chunk::Any64, spb, ofs, *v).ok()?;
            }
        }
        let w = CaWorld {
            sig: q1.sig.clone(),
            inj,
            rs: rs.clone(),
            mem: m2.clone(),
        };
        Some((w, ARegs { rs, mem: m2 }))
    }

    fn transport_reply(&self, w: &CaWorld, r1: &CReply, q2: &ARegs) -> Option<ARegs> {
        let f = extend_parallel(&w.inj, &r1.mem, &r1.mem);
        let mut rs = q2.rs.clone();
        rs.pc = w.rs.ra;
        rs.sp = w.rs.sp;
        for r in Mreg::all() {
            if abi::is_callee_save(r) {
                rs.set(r, w.rs.get(r));
            } else {
                rs.set(r, Val::Undef);
            }
        }
        if w.sig.ret.is_some() {
            let rv = f.apply(r1.retval)?;
            rs.set(abi::RESULT_REG, rv);
        }
        Some(ARegs {
            rs,
            mem: r1.mem.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cquery(nargs: usize) -> CQuery {
        let mut m = Mem::new();
        m.alloc(0, 1); // a pretend function block
        CQuery {
            vf: Val::Ptr(0, 0),
            sig: Signature::int_fn(nargs),
            args: (0..nargs as i32).map(Val::Int).collect(),
            mem: m,
        }
    }

    #[test]
    fn cl_marshals_register_and_stack_args() {
        let q1 = sample_cquery(6);
        let (w, q2) = Cl.transport_query(&q1).unwrap();
        assert_eq!(q2.ls.get(Loc::Reg(Mreg(0))), Val::Int(0));
        assert_eq!(q2.ls.get(Loc::Reg(Mreg(3))), Val::Int(3));
        assert_eq!(q2.ls.get(Loc::Outgoing(0)), Val::Int(4));
        assert_eq!(q2.ls.get(Loc::Outgoing(8)), Val::Int(5));
        assert_eq!(Cl.match_query(&q1, &q2).len(), 1);
        // Reply transport puts the result in r0.
        let r1 = CReply {
            retval: Val::Int(42),
            mem: q1.mem.clone(),
        };
        let r2 = Cl.transport_reply(&w, &r1, &q2).unwrap();
        assert!(Cl.match_reply(&w, &r1, &r2));
        assert_eq!(r2.ls.get(Loc::Reg(abi::RESULT_REG)), Val::Int(42));
    }

    #[test]
    fn ma_moves_control_registers() {
        let mut m = Mem::new();
        m.alloc(0, 1);
        let q1 = MQuery {
            vf: Val::Ptr(0, 0),
            sp: Val::Ptr(0, 0),
            ra: Val::Int(9),
            rs: [Val::Undef; NREGS],
            mem: m.clone(),
        };
        let (w, q2) = Ma.transport_query(&q1).unwrap();
        assert_eq!(q2.rs.pc, q1.vf);
        assert_eq!(Ma.match_query(&q1, &q2).len(), 1);
        let r1 = MReply {
            rs: [Val::Undef; NREGS],
            mem: m,
        };
        let r2 = Ma.transport_reply(&w, &r1, &q2).unwrap();
        assert!(Ma.match_reply(&w, &r1, &r2));
        assert_eq!(r2.rs.pc, q1.ra);
        assert_eq!(r2.rs.sp, q1.sp);
    }

    #[test]
    fn ca_roundtrip_with_stack_args() {
        let q1 = sample_cquery(6);
        let (w, q2) = Ca::default().transport_query(&q1).unwrap();
        // Register args in place.
        assert_eq!(q2.rs.get(Mreg(2)), Val::Int(2));
        // Stack args stored at sp.
        let Val::Ptr(spb, 0) = q2.rs.sp else { panic!() };
        assert_eq!(q2.mem.load(Chunk::Any64, spb, 0), Ok(Val::Int(4)));
        assert_eq!(q2.mem.load(Chunk::Any64, spb, 8), Ok(Val::Int(5)));
        // The constructed pair is indeed CA-related.
        assert_eq!(Ca::default().match_query(&q1, &q2).len(), 1);
        // And a well-behaved reply passes.
        let r1 = CReply {
            retval: Val::Int(7),
            mem: q1.mem.clone(),
        };
        let mut rs = q2.rs.clone();
        rs.pc = q2.rs.ra;
        rs.set(abi::RESULT_REG, Val::Int(7));
        let r2 = ARegs {
            rs,
            mem: q2.mem.clone(),
        };
        assert!(Ca::default().match_reply(&w, &r1, &r2));
    }

    #[test]
    fn ca_rejects_clobbered_callee_save() {
        let q1 = sample_cquery(1);
        let (w, mut q2) = Ca::default().transport_query(&q1).unwrap();
        q2.rs.set(Mreg(8), Val::Int(1234)); // callee-save now holds a value
        let w = CaWorld {
            rs: q2.rs.clone(),
            ..w
        };
        let r1 = CReply {
            retval: Val::Int(0),
            mem: q1.mem.clone(),
        };
        let mut rs = q2.rs.clone();
        rs.pc = q2.rs.ra;
        rs.set(abi::RESULT_REG, Val::Int(0));
        rs.set(Mreg(8), Val::Int(9999)); // clobbered!
        let r2 = ARegs {
            rs,
            mem: q2.mem.clone(),
        };
        assert!(!Ca::default().match_reply(&w, &r1, &r2));
    }

    #[test]
    fn ca_rejects_unrestored_sp() {
        let q1 = sample_cquery(1);
        let (w, q2) = Ca::default().transport_query(&q1).unwrap();
        let r1 = CReply {
            retval: Val::Int(0),
            mem: q1.mem.clone(),
        };
        let mut rs = q2.rs.clone();
        rs.pc = q2.rs.ra;
        rs.sp = Val::Int(0); // stack pointer trashed
        rs.set(abi::RESULT_REG, Val::Int(0));
        let r2 = ARegs {
            rs,
            mem: q2.mem.clone(),
        };
        assert!(!Ca::default().match_reply(&w, &r1, &r2));
    }

    #[test]
    fn lm_source_view_protects_argument_region() {
        // Build an M-level query with one stack argument.
        let sig = Signature::int_fn(5);
        let mut m = Mem::new();
        m.alloc(0, 1); // function block
        let spb = m.alloc(0, 8);
        m.store(Chunk::Any64, spb, 0, Val::Int(44)).unwrap();
        let mut rs = [Val::Undef; NREGS];
        for (i, r) in rs.iter_mut().take(4).enumerate() {
            *r = Val::Int(i as i32);
        }
        let q2 = MQuery {
            vf: Val::Ptr(0, 0),
            sp: Val::Ptr(spb, 0),
            ra: Val::Int(0),
            rs,
            mem: m,
        };
        let (w, q1) = Lm.source_of_with_sig(&sig, &q2).unwrap();
        // The stack argument shows up as an Outgoing location.
        assert_eq!(q1.ls.get(Loc::Outgoing(0)), Val::Int(44));
        // The L-level memory cannot touch the argument region (Fig. 13).
        assert!(q1.mem.load(Chunk::Any64, spb, 0).is_err());
        // The derived pair is LM-related.
        assert_eq!(Lm.match_query(&q1, &q2).len(), 1);
        // A reply that preserves callee-saves and mixes memory back passes.
        let mut ls = Locset::new();
        for r in Mreg::all() {
            if abi::is_callee_save(r) {
                ls.set(Loc::Reg(r), w.rs[r.index()]);
            }
        }
        ls.set(Loc::Reg(abi::RESULT_REG), Val::Int(99));
        let r1 = LReply {
            ls,
            mem: q1.mem.clone(),
        };
        let r2 = Lm.target_reply_of(&w, &r1).unwrap();
        assert!(Lm.match_reply(&w, &r1, &r2));
        // The argument region is intact in the M-level reply memory.
        assert_eq!(r2.mem.load(Chunk::Any64, spb, 0), Ok(Val::Int(44)));
    }
}
