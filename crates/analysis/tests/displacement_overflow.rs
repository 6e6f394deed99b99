//! Pointer displacements wrap in the value analyses exactly as they do at
//! run time.
//!
//! `mem::Val` offsets pointers with wrapping arithmetic, so `&g + i64::MAX`
//! plus one is the pointer `&g + i64::MIN`. The abstract transfer functions
//! must agree — and must not panic on the overflow, which a plain `+` does
//! in the debug builds the test suite runs in. Hand-built RTL drives every
//! displacement addition of the constant analysis (`value_analysis`, and
//! `constprop` on top of it) and of the interval analysis (`value_facts`):
//! pointer-plus-immediate and pointer-plus-register on global and stack
//! pointers, and a load whose base displacement overflows.

use compcerto_core::iface::Signature;
use compcerto_core::symtab::{GlobKind, InitDatum, SymbolTable};
use compcerto_validate::value_facts;
use mem::{Chunk, Val};
use minor::MBinop;
use rtl::{constprop, value_analysis, AVal, Inst, Romem, RtlFunction, RtlOp, RtlProgram, VaVal};

/// r1 := &g+MAX; r2 := r1 +l 1; r5 := 1L; r8 := r1 + r5;
/// r4 := &stk+MAX; r6 := r4 + r5; r7 := r4 +l 1; r3 := load32 [r1 + 1];
/// return r3.
fn overflowing() -> RtlFunction {
    let code = [
        (0, Inst::Op(RtlOp::AddrGlobal("g".into(), i64::MAX), 1, 1)),
        (
            1,
            Inst::Op(RtlOp::BinopImm(MBinop::Add64, 1, Val::Long(1)), 2, 2),
        ),
        (2, Inst::Op(RtlOp::Long(1), 5, 3)),
        (3, Inst::Op(RtlOp::Binop(MBinop::Add64, 1, 5), 8, 4)),
        (4, Inst::Op(RtlOp::AddrStack(i64::MAX), 4, 5)),
        (5, Inst::Op(RtlOp::Binop(MBinop::Add64, 4, 5), 6, 6)),
        (
            6,
            Inst::Op(RtlOp::BinopImm(MBinop::Add64, 4, Val::Long(1)), 7, 7),
        ),
        (7, Inst::Load(Chunk::I32, 1, 1, 3, 8)),
        (8, Inst::Return(Some(3))),
    ];
    RtlFunction {
        name: "f".into(),
        sig: Signature::int_fn(0),
        params: vec![],
        stack_size: 8,
        entry: 0,
        code: code.into_iter().collect(),
        next_reg: 9,
    }
}

/// `g` is a read-only global, so the load takes the folding path that adds
/// the displacements.
fn symtab() -> SymbolTable {
    let mut tbl = SymbolTable::new();
    tbl.define(
        "g".into(),
        GlobKind::Var {
            init: vec![InitDatum::Int32(9)],
            readonly: true,
        },
    );
    tbl
}

/// The offset the runtime computes for `ptr(MAX) + 1L`.
fn wrapped() -> i64 {
    match MBinop::Add64.eval(Val::Ptr(Default::default(), i64::MAX), Val::Long(1)) {
        Val::Ptr(_, o) => o,
        v => panic!("pointer + long must stay a pointer, got {v:?}"),
    }
}

#[test]
fn constant_analysis_wraps_like_the_runtime() {
    let romem = Romem::new(&symtab());
    let states = value_analysis(&overflowing(), &romem);
    let env = &states[&8];
    let global = AVal::Global("g".into(), wrapped());
    assert_eq!(*env.get(2), global, "BinopImm on a global pointer");
    assert_eq!(*env.get(8), global, "Binop on a global pointer");
    assert_eq!(
        *env.get(6),
        AVal::Stack(wrapped()),
        "Binop on a stack pointer"
    );
    assert_eq!(
        *env.get(7),
        AVal::Stack(wrapped()),
        "BinopImm on a stack pointer"
    );
    // The load's address is out of `g`'s bounds: no fold.
    assert_eq!(*env.get(3), AVal::Top);
}

#[test]
fn constprop_rewrites_to_the_wrapped_address() {
    let romem = Romem::new(&symtab());
    let prog = RtlProgram {
        functions: vec![overflowing()],
        externs: vec![],
    };
    let out = constprop(&prog, &romem);
    let code = &out.functions[0].code;
    assert_eq!(
        code[&1],
        Inst::Op(RtlOp::AddrGlobal("g".into(), wrapped()), 2, 2)
    );
    assert_eq!(code[&6], Inst::Op(RtlOp::AddrStack(wrapped()), 7, 7));
    // The load cannot fold, so it is left alone.
    assert_eq!(code[&7], prog.functions[0].code[&7]);
}

#[test]
fn interval_analysis_wraps_like_the_runtime() {
    let romem = Romem::new(&symtab());
    let facts = value_facts(&overflowing(), &romem);
    let env = &facts[&8];
    let global = VaVal::Global("g".into(), wrapped());
    assert_eq!(*env.get(2), global, "BinopImm on a global pointer");
    assert_eq!(*env.get(8), global, "Binop on a global pointer");
    assert_eq!(
        *env.get(6),
        VaVal::Stack(wrapped()),
        "Binop on a stack pointer"
    );
    assert_eq!(
        *env.get(7),
        VaVal::Stack(wrapped()),
        "BinopImm on a stack pointer"
    );
    assert_eq!(*env.get(3), VaVal::Top);
}
