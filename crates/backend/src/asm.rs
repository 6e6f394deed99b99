//! Asm-O: the target assembly language (paper Table 3; language interface
//! `A`, Table 2) and its syntactic linking operator `+` (paper Thm. 3.5).
//!
//! All control state lives in the register file: `pc` is a pointer into a
//! function's code block (`Ptr(block, index)`), `call` saves the return
//! address in `ra`, `ret` jumps to it. The open semantics is activated by an
//! arbitrary register file `rs@m` with `pc` pointing at one of the unit's
//! functions; it suspends on an external question whenever `pc` reaches a
//! function block the unit does not define, and its final states are those
//! where `pc` equals the activation's initial `ra` (the environment's return
//! address).

use std::collections::BTreeMap;
use std::fmt;

use compcerto_core::iface::{ARegs, Signature, A};
use compcerto_core::lts::{Batch, Event, Lts, Stuck};
use compcerto_core::regs::{Mreg, Regset};
use compcerto_core::symtab::{Ident, SymbolTable};
use mem::{BlockId, Chunk, Val};
use minor::{MBinop, MUnop};

/// A branch label.
pub type Label = u32;

/// Asm-O instructions.
#[derive(Debug, Clone, PartialEq)]
pub enum AsmInst {
    /// `dst := imm32`.
    MovImm32(Mreg, i32),
    /// `dst := imm64`.
    MovImm64(Mreg, i64),
    /// `dst := src`.
    Mov(Mreg, Mreg),
    /// `dst := &symbol + disp`.
    LoadSym(Mreg, Ident, i64),
    /// `dst := sp + ofs` (frame addresses).
    LeaSp(Mreg, i64),
    /// `dst := op src`.
    Unop(MUnop, Mreg, Mreg),
    /// `dst := op a b`.
    Binop(MBinop, Mreg, Mreg, Mreg),
    /// `dst := op a imm`.
    BinopImm(MBinop, Mreg, Mreg, Val),
    /// `dst := chunk[base + disp]`.
    Load(Chunk, Mreg, Mreg, i64),
    /// `chunk[base + disp] := src`.
    Store(Chunk, Mreg, Mreg, i64),
    /// `dst := chunk[sp + ofs]` (frame slots).
    LoadSp(Chunk, Mreg, i64),
    /// `chunk[sp + ofs] := src`.
    StoreSp(Chunk, Mreg, i64),
    /// `sp := sp + imm` (switch to/from the outgoing-arguments area around
    /// calls).
    AddSp(i64),
    /// Allocate a frame block of the given size, store the old `sp` in its
    /// link slot (offset 0), and point `sp` at it.
    AllocFrame(i64),
    /// Load the link slot, free the frame block, restore `sp`.
    FreeFrame(i64),
    /// `[sp + ofs] := ra` (prologue).
    SaveRa(i64),
    /// `ra := [sp + ofs]` (epilogue).
    RestoreRa(i64),
    /// A jump target.
    Label(Label),
    /// Unconditional branch.
    Jmp(Label),
    /// Branch when the register is true.
    Jcc(Mreg, Label),
    /// `ra := pc+1; pc := &symbol`.
    Call(Ident),
    /// `pc := ra`.
    Ret,
}

/// An Asm-O function: a flat instruction sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct AsmFunction {
    /// Name.
    pub name: Ident,
    /// Signature (metadata; the machine does not check it).
    pub sig: Signature,
    /// Code.
    pub code: Vec<AsmInst>,
}

impl AsmFunction {
    /// Pretty-print the function.
    pub fn dump(&self) -> String {
        let mut out = format!("{}:\n", self.name);
        for (i, inst) in self.code.iter().enumerate() {
            out.push_str(&format!("  {i:>4}: {inst:?}\n"));
        }
        out
    }
}

/// An Asm-O translation unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AsmProgram {
    /// Function definitions.
    pub functions: Vec<AsmFunction>,
    /// Known externals.
    pub externs: Vec<(Ident, Signature)>,
}

impl AsmProgram {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&AsmFunction> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// Error from [`link_asm`].
#[derive(Debug, Clone, PartialEq)]
pub enum AsmLinkError {
    /// A function is defined by both units.
    Duplicate(Ident),
    /// Declared and defined signatures disagree.
    SignatureMismatch(Ident),
}

impl fmt::Display for AsmLinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmLinkError::Duplicate(s) => write!(f, "function `{s}` defined twice"),
            AsmLinkError::SignatureMismatch(s) => {
                write!(f, "declaration of `{s}` does not match its definition")
            }
        }
    }
}

impl std::error::Error for AsmLinkError {}

/// Syntactic linking of Asm programs (CompCert's `+`, the substrate of paper
/// Thm. 3.5): the union of definitions, with externals resolved against the
/// other unit.
///
/// # Errors
/// Duplicate definitions and signature mismatches are rejected.
pub fn link_asm(p1: &AsmProgram, p2: &AsmProgram) -> Result<AsmProgram, AsmLinkError> {
    let mut out = p1.clone();
    for f in &p2.functions {
        if out.function(&f.name).is_some() {
            return Err(AsmLinkError::Duplicate(f.name.clone()));
        }
        out.functions.push(f.clone());
    }
    for (n, sig) in &p2.externs {
        if let Some(f) = out.function(n) {
            if f.sig != *sig {
                return Err(AsmLinkError::SignatureMismatch(n.clone()));
            }
            continue;
        }
        if !out.externs.iter().any(|(m, _)| m == n) {
            out.externs.push((n.clone(), sig.clone()));
        }
    }
    for (n, sig) in &p1.externs {
        if let Some(f) = p2.function(n) {
            if f.sig != *sig {
                return Err(AsmLinkError::SignatureMismatch(n.clone()));
            }
        }
    }
    let defined: Vec<Ident> = out.functions.iter().map(|f| f.name.clone()).collect();
    out.externs.retain(|(n, _)| !defined.contains(n));
    Ok(out)
}

/// The Asm machine state.
#[derive(Debug, Clone)]
pub struct AsmState {
    /// Register file.
    pub rs: Regset,
    /// Memory.
    pub mem: mem::Mem,
    /// The activation's return sentinel: the machine is final when
    /// `pc == ra0`.
    pub ra0: Val,
}

/// The open semantics `Asm(p) : A ↠ A`.
#[derive(Debug, Clone)]
pub struct AsmSem {
    prog: AsmProgram,
    symtab: SymbolTable,
    label: String,
    /// Per-symtab-block function index (first definition wins, like
    /// [`AsmProgram::function`]).
    func_of_block: Vec<Option<usize>>,
    /// Per-symtab-block "declared function this unit does not define" flag
    /// (the external-suspension test of `step_batch`).
    foreign_block: Vec<bool>,
    /// Per-function label → instruction index, parallel to
    /// `prog.functions`.
    labels: Vec<BTreeMap<Label, usize>>,
}

impl AsmSem {
    /// Wrap a program with the shared symbol table.
    pub fn new(prog: AsmProgram, symtab: SymbolTable) -> AsmSem {
        let labels: Vec<BTreeMap<Label, usize>> = prog
            .functions
            .iter()
            .map(|f| {
                crate::linear::first_label_targets(&f.code, |i| match i {
                    AsmInst::Label(l) => Some(*l),
                    _ => None,
                })
            })
            .collect();
        let mut func_of_block = Vec::with_capacity(symtab.len());
        let mut foreign_block = Vec::with_capacity(symtab.len());
        for b in 0..symtab.len() as u32 {
            let fidx = symtab
                .ident_of(b)
                .and_then(|name| prog.functions.iter().position(|f| f.name == name));
            let is_fn = symtab.sig_of_ptr(&Val::Ptr(b, 0)).is_some();
            foreign_block.push(is_fn && fidx.is_none());
            func_of_block.push(fidx);
        }
        AsmSem {
            prog,
            symtab,
            label: "Asm".into(),
            func_of_block,
            foreign_block,
            labels,
        }
    }

    /// Override the display label.
    pub fn with_label(mut self, label: impl Into<String>) -> AsmSem {
        self.label = label.into();
        self
    }

    /// The program.
    pub fn program(&self) -> &AsmProgram {
        &self.prog
    }

    /// The symbol table.
    pub fn symtab(&self) -> &SymbolTable {
        &self.symtab
    }

    fn stuck<T>(&self, msg: impl Into<String>) -> Result<T, Stuck> {
        Err(Stuck::new(format!("{}: {}", self.label, msg.into())))
    }

    /// Does `pc` enter a function this unit does not define (where the
    /// machine suspends on an external question)?
    fn foreign_entry(&self, pc: Val) -> bool {
        matches!(pc, Val::Ptr(b, 0) if self.foreign_block.get(b as usize).copied().unwrap_or(false))
    }

    fn function_at(&self, pc: &Val) -> Option<(&str, &AsmFunction, usize)> {
        match pc {
            Val::Ptr(b, idx) => {
                let name = self.symtab.ident_of(*b)?;
                let f = self.prog.function(name)?;
                Some((name, f, *idx as usize))
            }
            _ => None,
        }
    }
}

impl Lts for AsmSem {
    type I = A;
    type O = A;
    type State = AsmState;

    fn name(&self) -> String {
        self.label.clone()
    }

    fn accepts(&self, q: &ARegs) -> bool {
        matches!(self.function_at(&q.rs.pc), Some((_, _, 0)))
    }

    fn initial(&self, q: &ARegs) -> Result<AsmState, Stuck> {
        if !self.accepts(q) {
            return self.stuck("query not accepted");
        }
        Ok(AsmState {
            rs: q.rs.clone(),
            mem: q.mem.clone(),
            ra0: q.rs.ra,
        })
    }

    /// The instruction semantics (DESIGN.md §13), run in place. Code-block
    /// resolution is cached while `pc` stays in one function; label targets
    /// come from the precomputed maps. `step` is this loop at fuel 1.
    #[allow(clippy::too_many_lines)]
    fn step_batch(
        &self,
        s: &mut AsmState,
        fuel_left: u64,
        _events: &mut Vec<Event>,
    ) -> Batch<ARegs, ARegs> {
        let prefixed = |msg: String| Stuck::new(format!("{}: {msg}", self.label));
        let mut n: u64 = 0;
        let mut cached: Option<(BlockId, usize)> = None;
        loop {
            if n == fuel_left {
                return Batch::Ran(n);
            }
            // Final: control returned to the environment's return address.
            if s.rs.pc == s.ra0 && s.rs.pc.is_defined() {
                return Batch::Final(
                    n,
                    ARegs {
                        rs: s.rs.clone(),
                        mem: s.mem.clone(),
                    },
                );
            }
            // External: pc entered a function this unit does not define.
            if self.foreign_entry(s.rs.pc) {
                return Batch::External(
                    n,
                    ARegs {
                        rs: s.rs.clone(),
                        mem: s.mem.clone(),
                    },
                );
            }
            let Val::Ptr(fb, idx) = s.rs.pc else {
                return Batch::Stuck(
                    n,
                    prefixed(format!("pc is not a code pointer: {}", s.rs.pc)),
                );
            };
            let fi = match cached {
                Some((cb, fi)) if cb == fb => fi,
                _ => {
                    let Some(fi) = self.func_of_block.get(fb as usize).copied().flatten() else {
                        return Batch::Stuck(n, prefixed("pc outside this unit's code".into()));
                    };
                    cached = Some((fb, fi));
                    fi
                }
            };
            let f = &self.prog.functions[fi];
            let labels = &self.labels[fi];
            let idx = idx as usize;
            let Some(inst) = f.code.get(idx) else {
                return Batch::Stuck(n, prefixed(format!("pc {} past end of `{}`", idx, f.name)));
            };
            let next = Val::Ptr(fb, idx as i64 + 1);
            s.rs.pc = next;
            match inst {
                AsmInst::Label(_) => {}
                AsmInst::MovImm32(d, v) => s.rs.set(*d, Val::Int(*v)),
                AsmInst::MovImm64(d, v) => s.rs.set(*d, Val::Long(*v)),
                AsmInst::Mov(d, src) => {
                    let v = s.rs.get(*src);
                    s.rs.set(*d, v);
                }
                AsmInst::LoadSym(d, sym, disp) => match self.symtab.block_of(sym) {
                    Some(b) => s.rs.set(*d, Val::Ptr(b, *disp)),
                    None => return Batch::Stuck(n, prefixed(format!("unknown symbol `{sym}`"))),
                },
                AsmInst::LeaSp(d, ofs) => {
                    let v = s.rs.sp.add(Val::Long(*ofs));
                    s.rs.set(*d, v);
                }
                AsmInst::Unop(m, d, src) => {
                    let v = m.eval(s.rs.get(*src));
                    s.rs.set(*d, v);
                }
                AsmInst::Binop(m, d, a, b) => {
                    let v = m.eval(s.rs.get(*a), s.rs.get(*b));
                    s.rs.set(*d, v);
                }
                AsmInst::BinopImm(m, d, a, i) => {
                    let v = m.eval(s.rs.get(*a), *i);
                    s.rs.set(*d, v);
                }
                AsmInst::Load(c, d, base, disp) => {
                    let addr = s.rs.get(*base).add(Val::Long(*disp));
                    match s.mem.loadv(*c, addr) {
                        Ok(v) => s.rs.set(*d, v),
                        Err(e) => {
                            return Batch::Stuck(n, prefixed(format!("load failed: {e}")))
                        }
                    }
                }
                AsmInst::Store(c, src, base, disp) => {
                    let addr = s.rs.get(*base).add(Val::Long(*disp));
                    if let Err(e) = s.mem.storev(*c, addr, s.rs.get(*src)) {
                        return Batch::Stuck(n, prefixed(format!("store failed: {e}")));
                    }
                }
                AsmInst::LoadSp(c, d, ofs) => {
                    let addr = s.rs.sp.add(Val::Long(*ofs));
                    match s.mem.loadv(*c, addr) {
                        Ok(v) => s.rs.set(*d, v),
                        Err(e) => {
                            return Batch::Stuck(n, prefixed(format!("frame load failed: {e}")))
                        }
                    }
                }
                AsmInst::StoreSp(c, src, ofs) => {
                    let addr = s.rs.sp.add(Val::Long(*ofs));
                    if let Err(e) = s.mem.storev(*c, addr, s.rs.get(*src)) {
                        return Batch::Stuck(n, prefixed(format!("frame store failed: {e}")));
                    }
                }
                AsmInst::AddSp(imm) => {
                    s.rs.sp = s.rs.sp.add(Val::Long(*imm));
                }
                AsmInst::AllocFrame(size) => {
                    let b = s.mem.alloc(0, *size);
                    if let Err(e) = s.mem.store(Chunk::Any64, b, 0, s.rs.sp) {
                        return Batch::Stuck(n, prefixed(format!("storing link: {e}")));
                    }
                    s.rs.sp = Val::Ptr(b, 0);
                }
                AsmInst::FreeFrame(size) => {
                    let Val::Ptr(b, 0) = s.rs.sp else {
                        return Batch::Stuck(n, prefixed("sp is not a frame base".into()));
                    };
                    let link = match s.mem.load(Chunk::Any64, b, 0) {
                        Ok(v) => v,
                        Err(e) => {
                            return Batch::Stuck(n, prefixed(format!("loading link: {e}")))
                        }
                    };
                    if let Err(e) = s.mem.free(b, 0, *size) {
                        return Batch::Stuck(n, prefixed(format!("freeing frame: {e}")));
                    }
                    s.rs.sp = link;
                }
                AsmInst::SaveRa(ofs) => {
                    let addr = s.rs.sp.add(Val::Long(*ofs));
                    if let Err(e) = s.mem.storev(Chunk::Any64, addr, s.rs.ra) {
                        return Batch::Stuck(n, prefixed(format!("saving ra: {e}")));
                    }
                }
                AsmInst::RestoreRa(ofs) => {
                    let addr = s.rs.sp.add(Val::Long(*ofs));
                    match s.mem.loadv(Chunk::Any64, addr) {
                        Ok(v) => s.rs.ra = v,
                        Err(e) => {
                            return Batch::Stuck(n, prefixed(format!("restoring ra: {e}")))
                        }
                    }
                }
                AsmInst::Jmp(l) => match labels.get(l) {
                    Some(&i) => s.rs.pc = Val::Ptr(fb, i as i64),
                    None => return Batch::Stuck(n, prefixed(format!("missing label {l}"))),
                },
                AsmInst::Jcc(r, l) => match s.rs.get(*r).truth() {
                    Some(true) => match labels.get(l) {
                        Some(&i) => s.rs.pc = Val::Ptr(fb, i as i64),
                        None => return Batch::Stuck(n, prefixed(format!("missing label {l}"))),
                    },
                    Some(false) => {}
                    None => {
                        return Batch::Stuck(n, prefixed("undefined branch condition".into()))
                    }
                },
                AsmInst::Call(callee) => match self.symtab.func_ptr(callee) {
                    Some(target) => {
                        s.rs.ra = next;
                        s.rs.pc = target;
                    }
                    None => {
                        return Batch::Stuck(n, prefixed(format!("unknown callee `{callee}`")))
                    }
                },
                AsmInst::Ret => {
                    s.rs.pc = s.rs.ra;
                }
            }
            n += 1;
        }
    }

    fn resume(&self, s: &mut AsmState, a: ARegs) -> Result<(), Stuck> {
        // Suspended exactly where `step_batch` reports `External`: not
        // final, with pc at the entry of a foreign function.
        let is_final = s.rs.pc == s.ra0 && s.rs.pc.is_defined();
        if is_final || !self.foreign_entry(s.rs.pc) {
            return self.stuck("resume in non-external state");
        }
        // The environment's answer replaces the machine state wholesale; the
        // reply's pc is the return address the caller placed in `ra`.
        s.rs = a.rs;
        s.mem = a.mem;
        Ok(())
    }

    fn measure(&self, s: &AsmState) -> compcerto_core::lts::StateMeasure {
        // Assembly has no structured call stack to count (frames are memory
        // blocks); the live-byte footprint covers both heap and frames.
        compcerto_core::lts::StateMeasure {
            mem_bytes: s.mem.allocated_bytes(),
            call_depth: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compcerto_core::iface::abi;
    use compcerto_core::lts::run;
    use compcerto_core::symtab::GlobKind;
    use mem::Mem;

    /// Hand-written `add1`: r0 := r0 + 1; ret.
    fn sample() -> (AsmSem, Mem) {
        let f = AsmFunction {
            name: "add1".into(),
            sig: Signature::int_fn(1),
            code: vec![
                AsmInst::BinopImm(MBinop::Add32, Mreg(0), Mreg(0), Val::Int(1)),
                AsmInst::Ret,
            ],
        };
        let prog = AsmProgram {
            functions: vec![f],
            externs: vec![],
        };
        let mut tbl = SymbolTable::new();
        tbl.define("add1".into(), GlobKind::Func(Signature::int_fn(1)));
        let mem = tbl.build_init_mem().unwrap();
        (AsmSem::new(prog, tbl), mem)
    }

    fn query(sem: &AsmSem, mem: &Mem, n: i32) -> ARegs {
        let mut m = mem.clone();
        let rab = m.alloc(0, 0);
        let mut rs = Regset::new();
        rs.pc = sem.symtab().func_ptr("add1").unwrap();
        rs.ra = Val::Ptr(rab, 0);
        rs.sp = Val::Ptr(rab, 0);
        rs.set(abi::PARAM_REGS[0], Val::Int(n));
        ARegs { rs, mem: m }
    }

    #[test]
    fn executes_and_returns_via_ra() {
        let (sem, mem) = sample();
        let q = query(&sem, &mem, 41);
        let r = run(&sem, &q, &mut |_q| None, 1000).expect_complete();
        assert_eq!(r.rs.get(abi::RESULT_REG), Val::Int(42));
        assert_eq!(r.rs.pc, q.rs.ra);
    }

    #[test]
    fn rejects_mid_function_entry() {
        let (sem, mem) = sample();
        let mut q = query(&sem, &mem, 1);
        q.rs.pc = q.rs.pc.add(Val::Long(1));
        assert!(!sem.accepts(&q));
    }

    #[test]
    fn linking_merges_units() {
        let f = AsmFunction {
            name: "a".into(),
            sig: Signature::int_fn(0),
            code: vec![AsmInst::Ret],
        };
        let g = AsmFunction {
            name: "b".into(),
            sig: Signature::int_fn(0),
            code: vec![AsmInst::Ret],
        };
        let p1 = AsmProgram {
            functions: vec![f.clone()],
            externs: vec![("b".into(), Signature::int_fn(0))],
        };
        let p2 = AsmProgram {
            functions: vec![g],
            externs: vec![],
        };
        let merged = link_asm(&p1, &p2).unwrap();
        assert_eq!(merged.functions.len(), 2);
        assert!(merged.externs.is_empty());
        // Duplicates rejected.
        let p3 = AsmProgram {
            functions: vec![f],
            externs: vec![],
        };
        assert_eq!(link_asm(&p1, &p3), Err(AsmLinkError::Duplicate("a".into())));
    }

    #[test]
    fn frame_alloc_free_roundtrip() {
        let f = AsmFunction {
            name: "framed".into(),
            sig: Signature::int_fn(0),
            code: vec![
                AsmInst::AllocFrame(32),
                AsmInst::SaveRa(8),
                AsmInst::MovImm32(Mreg(0), 7),
                AsmInst::StoreSp(Chunk::Any64, Mreg(0), 16),
                AsmInst::LoadSp(Chunk::Any64, Mreg(1), 16),
                AsmInst::RestoreRa(8),
                AsmInst::FreeFrame(32),
                AsmInst::Ret,
            ],
        };
        let prog = AsmProgram {
            functions: vec![f],
            externs: vec![],
        };
        let mut tbl = SymbolTable::new();
        tbl.define("framed".into(), GlobKind::Func(Signature::int_fn(0)));
        let mem0 = tbl.build_init_mem().unwrap();
        let sem = AsmSem::new(prog, tbl.clone());
        let mut m = mem0;
        let rab = m.alloc(0, 0);
        let mut rs = Regset::new();
        rs.pc = tbl.func_ptr("framed").unwrap();
        rs.ra = Val::Ptr(rab, 0);
        rs.sp = Val::Ptr(rab, 0);
        let q = ARegs { rs, mem: m };
        let r = run(&sem, &q, &mut |_q| None, 1000).expect_complete();
        assert_eq!(r.rs.get(Mreg(1)), Val::Int(7));
        // sp restored, frame freed.
        assert_eq!(r.rs.sp, q.rs.sp);
    }
}
