//! Direct unit tests for the Linear and Mach open semantics (control flow,
//! slot traffic, parameter access) on hand-written programs — independent of
//! the passes that normally produce them — plus the duplicated-label rule
//! shared by Linear, Mach and Asm.

use backend::asm::{AsmFunction, AsmInst, AsmProgram, AsmSem};
use backend::linear::{LinFunction, LinInst, LinProgram, LinearSem};
use backend::ltl::LOp;
use backend::mach::{MOp, MachFunction, MachInst, MachProgram, MachSem};
use compcerto_core::iface::{abi, ARegs, LQuery, LReply, MQuery, MReply, Signature};
use compcerto_core::lts::{run, run_budgeted, RunBudget, RunOutcome};
use compcerto_core::regs::{Loc, Locset, Mreg, Regset, NREGS};
use compcerto_core::symtab::{GlobKind, SymbolTable};
use mem::{Chunk, Mem, Val};
use minor::MBinop;

fn table(name: &str, sig: Signature) -> SymbolTable {
    let mut t = SymbolTable::new();
    t.define(name.into(), GlobKind::Func(sig));
    t
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

#[test]
fn linear_loop_with_labels() {
    // sum(n) via an explicit label/branch loop:
    //   r4 := 0; L0: if n == 0 goto L1; r4 += n; n -= 1; goto L0; L1: ret r4
    let r = |i: u8| Loc::Reg(Mreg(i));
    let f = LinFunction {
        name: "sum".into(),
        sig: Signature::int_fn(1),
        stack_size: 0,
        locals_size: 0,
        outgoing_size: 0,
        used_callee_save: vec![],
        debug: vec![],
        code: vec![
            LinInst::Op(LOp::Int(0), r(4)),
            LinInst::Label(0),
            LinInst::Op(
                LOp::BinopImm(MBinop::Cmp32(mem::Cmp::Eq), r(0), Val::Int(0)),
                r(5),
            ),
            LinInst::CondGoto(r(5), 1),
            LinInst::Op(LOp::Binop(MBinop::Add32, r(4), r(0)), r(4)),
            LinInst::Op(LOp::BinopImm(MBinop::Sub32, r(0), Val::Int(1)), r(0)),
            LinInst::Goto(0),
            LinInst::Label(1),
            LinInst::Op(LOp::Move(r(4)), r(0)),
            LinInst::Return,
        ],
    };
    let tbl = table("sum", Signature::int_fn(1));
    let sem = LinearSem::new(
        LinProgram {
            functions: vec![f],
            externs: vec![],
        },
        tbl.clone(),
    );
    let q = LQuery {
        vf: tbl.func_ptr("sum").unwrap(),
        sig: Signature::int_fn(1),
        ls: Locset::new().with(r(0), Val::Int(10)),
        mem: tbl.build_init_mem().unwrap(),
    };
    let reply = run(&sem, &q, &mut |_: &LQuery| None::<LReply>, 10_000).expect_complete();
    assert_eq!(reply.ls.get(Loc::Reg(abi::RESULT_REG)), Val::Int(55));
}

#[test]
fn linear_missing_label_goes_wrong() {
    let f = LinFunction {
        name: "f".into(),
        sig: Signature::int_fn(0),
        stack_size: 0,
        locals_size: 0,
        outgoing_size: 0,
        used_callee_save: vec![],
        debug: vec![],
        code: vec![LinInst::Goto(42), LinInst::Return],
    };
    let tbl = table("f", Signature::int_fn(0));
    let sem = LinearSem::new(
        LinProgram {
            functions: vec![f],
            externs: vec![],
        },
        tbl.clone(),
    );
    let q = LQuery {
        vf: tbl.func_ptr("f").unwrap(),
        sig: Signature::int_fn(0),
        ls: Locset::new(),
        mem: tbl.build_init_mem().unwrap(),
    };
    assert!(matches!(
        run(&sem, &q, &mut |_: &LQuery| None::<LReply>, 1000),
        RunOutcome::Wrong { .. }
    ));
}

#[test]
fn linear_incoming_slots_readable() {
    // Read a stack-passed parameter through its Incoming location.
    let f = LinFunction {
        name: "get5th".into(),
        sig: Signature::int_fn(5),
        stack_size: 0,
        locals_size: 0,
        outgoing_size: 0,
        used_callee_save: vec![],
        debug: vec![],
        code: vec![
            LinInst::Op(LOp::Move(Loc::Incoming(0)), Loc::Reg(abi::RESULT_REG)),
            LinInst::Return,
        ],
    };
    let tbl = table("get5th", Signature::int_fn(5));
    let sem = LinearSem::new(
        LinProgram {
            functions: vec![f],
            externs: vec![],
        },
        tbl.clone(),
    );
    // The caller's locset has the fifth argument in Outgoing(0); entering
    // the function shifts it to Incoming(0).
    let mut ls = Locset::new();
    for (i, l) in abi::loc_arguments(&Signature::int_fn(5))
        .into_iter()
        .enumerate()
    {
        ls.set(l, Val::Int(i as i32 * 10));
    }
    let q = LQuery {
        vf: tbl.func_ptr("get5th").unwrap(),
        sig: Signature::int_fn(5),
        ls,
        mem: tbl.build_init_mem().unwrap(),
    };
    let reply = run(&sem, &q, &mut |_: &LQuery| None::<LReply>, 1000).expect_complete();
    assert_eq!(reply.ls.get(Loc::Reg(abi::RESULT_REG)), Val::Int(40));
}

// ---------------------------------------------------------------------------
// Mach
// ---------------------------------------------------------------------------

fn mach_query(tbl: &SymbolTable, name: &str, rs: [Val; NREGS], mem: Mem, sp: Val) -> MQuery {
    MQuery {
        vf: tbl.func_ptr(name).unwrap(),
        sp,
        ra: Val::Undef,
        rs,
        mem,
    }
}

#[test]
fn mach_frame_slots_roundtrip() {
    // Spill a value to the frame and reload it.
    let f = MachFunction {
        name: "spill".into(),
        sig: Signature::int_fn(1),
        frame_size: 32,
        stackdata_ofs: 24,
        outgoing_ofs: 32,
        code: vec![
            MachInst::SetStack(Mreg(0), 16),
            MachInst::Op(MOp::Int(0), Mreg(0)),
            MachInst::GetStack(16, Mreg(1)),
            MachInst::Op(MOp::Move(Mreg(1)), Mreg(0)),
            MachInst::Return,
        ],
    };
    let tbl = table("spill", Signature::int_fn(1));
    let sem = MachSem::new(
        MachProgram {
            functions: vec![f],
            externs: vec![],
        },
        tbl.clone(),
    );
    let mut rs = [Val::Undef; NREGS];
    rs[0] = Val::Int(77);
    let mut mem = tbl.build_init_mem().unwrap();
    let spb = mem.alloc(0, 0);
    let q = mach_query(&tbl, "spill", rs, mem, Val::Ptr(spb, 0));
    let reply = run(&sem, &q, &mut |_: &MQuery| None::<MReply>, 1000).expect_complete();
    assert_eq!(reply.rs[abi::RESULT_REG.index()], Val::Int(77));
}

#[test]
fn mach_getparam_reads_callers_region() {
    let f = MachFunction {
        name: "param".into(),
        sig: Signature::int_fn(5),
        frame_size: 16,
        stackdata_ofs: 16,
        outgoing_ofs: 16,
        code: vec![MachInst::GetParam(0, Mreg(0)), MachInst::Return],
    };
    let tbl = table("param", Signature::int_fn(5));
    let sem = MachSem::new(
        MachProgram {
            functions: vec![f],
            externs: vec![],
        },
        tbl.clone(),
    );
    let mut mem = tbl.build_init_mem().unwrap();
    let spb = mem.alloc(0, 8);
    mem.store(Chunk::Any64, spb, 0, Val::Int(123)).unwrap();
    let q = mach_query(&tbl, "param", [Val::Undef; NREGS], mem, Val::Ptr(spb, 0));
    let reply = run(&sem, &q, &mut |_: &MQuery| None::<MReply>, 1000).expect_complete();
    assert_eq!(reply.rs[abi::RESULT_REG.index()], Val::Int(123));
}

#[test]
fn mach_frames_freed_on_return() {
    let f = MachFunction {
        name: "noop".into(),
        sig: Signature::int_fn(0),
        frame_size: 64,
        stackdata_ofs: 16,
        outgoing_ofs: 64,
        code: vec![MachInst::Op(MOp::Int(0), Mreg(0)), MachInst::Return],
    };
    let tbl = table("noop", Signature::int_fn(0));
    let sem = MachSem::new(
        MachProgram {
            functions: vec![f],
            externs: vec![],
        },
        tbl.clone(),
    );
    let mut mem = tbl.build_init_mem().unwrap();
    let spb = mem.alloc(0, 0);
    let before = mem.next_block();
    let q = mach_query(&tbl, "noop", [Val::Undef; NREGS], mem, Val::Ptr(spb, 0));
    let reply = run(&sem, &q, &mut |_: &MQuery| None::<MReply>, 1000).expect_complete();
    // Exactly one frame allocated, and it is gone at return.
    assert_eq!(reply.mem.next_block(), before + 1);
    assert!(!reply.mem.valid_block(before));
}

#[test]
fn mach_frame_address_points_at_stackdata() {
    // FrameAddr + Store/Load through the merged stack data.
    let f = MachFunction {
        name: "sd".into(),
        sig: Signature::int_fn(1),
        frame_size: 48,
        stackdata_ofs: 24,
        outgoing_ofs: 48,
        code: vec![
            MachInst::Op(MOp::FrameAddr(24), Mreg(1)),
            MachInst::Store(Chunk::I32, Mreg(1), 0, Mreg(0)),
            MachInst::Op(MOp::Int(0), Mreg(0)),
            MachInst::Load(Chunk::I32, Mreg(1), 0, Mreg(0)),
            MachInst::Return,
        ],
    };
    let tbl = table("sd", Signature::int_fn(1));
    let sem = MachSem::new(
        MachProgram {
            functions: vec![f],
            externs: vec![],
        },
        tbl.clone(),
    );
    let mut rs = [Val::Undef; NREGS];
    rs[0] = Val::Int(31);
    let mut mem = tbl.build_init_mem().unwrap();
    let spb = mem.alloc(0, 0);
    let q = mach_query(&tbl, "sd", rs, mem, Val::Ptr(spb, 0));
    let reply = run(&sem, &q, &mut |_: &MQuery| None::<MReply>, 1000).expect_complete();
    assert_eq!(reply.rs[abi::RESULT_REG.index()], Val::Int(31));
}

// ---------------------------------------------------------------------------
// Duplicated labels
// ---------------------------------------------------------------------------

/// The budgets every duplicated-label run is checked under: the ring-traced
/// default (one step per batch) and `no_trace` (one batch for the run).
fn both_budgets() -> [RunBudget; 2] {
    [
        RunBudget::with_fuel(1000),
        RunBudget::with_fuel(1000).no_trace(),
    ]
}

#[test]
fn linear_duplicated_label_jumps_to_its_first_copy() {
    // goto 1; L1: r := 1; ret; L1: r := 2; ret
    let res = Loc::Reg(abi::RESULT_REG);
    let f = LinFunction {
        name: "dup".into(),
        sig: Signature::int_fn(0),
        stack_size: 0,
        locals_size: 0,
        outgoing_size: 0,
        used_callee_save: vec![],
        debug: vec![],
        code: vec![
            LinInst::Goto(1),
            LinInst::Label(1),
            LinInst::Op(LOp::Int(1), res),
            LinInst::Return,
            LinInst::Label(1),
            LinInst::Op(LOp::Int(2), res),
            LinInst::Return,
        ],
    };
    let tbl = table("dup", Signature::int_fn(0));
    let sem = LinearSem::new(
        LinProgram {
            functions: vec![f],
            externs: vec![],
        },
        tbl.clone(),
    );
    let q = LQuery {
        vf: tbl.func_ptr("dup").unwrap(),
        sig: Signature::int_fn(0),
        ls: Locset::new(),
        mem: tbl.build_init_mem().unwrap(),
    };
    for budget in both_budgets() {
        let reply =
            run_budgeted(&sem, &q, &mut |_: &LQuery| None::<LReply>, &budget).expect_complete();
        assert_eq!(reply.ls.get(res), Val::Int(1), "{budget:?}");
    }
}

#[test]
fn mach_duplicated_label_jumps_to_its_first_copy() {
    let res = abi::RESULT_REG;
    let f = MachFunction {
        name: "dup".into(),
        sig: Signature::int_fn(0),
        frame_size: 16,
        stackdata_ofs: 16,
        outgoing_ofs: 16,
        code: vec![
            MachInst::Goto(1),
            MachInst::Label(1),
            MachInst::Op(MOp::Int(1), res),
            MachInst::Return,
            MachInst::Label(1),
            MachInst::Op(MOp::Int(2), res),
            MachInst::Return,
        ],
    };
    let tbl = table("dup", Signature::int_fn(0));
    let sem = MachSem::new(
        MachProgram {
            functions: vec![f],
            externs: vec![],
        },
        tbl.clone(),
    );
    let mut mem = tbl.build_init_mem().unwrap();
    let spb = mem.alloc(0, 0);
    let q = mach_query(&tbl, "dup", [Val::Undef; NREGS], mem, Val::Ptr(spb, 0));
    for budget in both_budgets() {
        let reply =
            run_budgeted(&sem, &q, &mut |_: &MQuery| None::<MReply>, &budget).expect_complete();
        assert_eq!(reply.rs[res.index()], Val::Int(1), "{budget:?}");
    }
}

#[test]
fn asm_duplicated_label_jumps_to_its_first_copy() {
    let res = abi::RESULT_REG;
    let f = AsmFunction {
        name: "dup".into(),
        sig: Signature::int_fn(0),
        code: vec![
            AsmInst::Jmp(1),
            AsmInst::Label(1),
            AsmInst::MovImm32(res, 1),
            AsmInst::Ret,
            AsmInst::Label(1),
            AsmInst::MovImm32(res, 2),
            AsmInst::Ret,
        ],
    };
    let tbl = table("dup", Signature::int_fn(0));
    let sem = AsmSem::new(
        AsmProgram {
            functions: vec![f],
            externs: vec![],
        },
        tbl.clone(),
    );
    let mut mem = tbl.build_init_mem().unwrap();
    let rab = mem.alloc(0, 0);
    let mut rs = Regset::new();
    rs.pc = tbl.func_ptr("dup").unwrap();
    rs.ra = Val::Ptr(rab, 0);
    rs.sp = Val::Ptr(rab, 0);
    let q = ARegs { rs, mem };
    for budget in both_budgets() {
        let reply =
            run_budgeted(&sem, &q, &mut |_: &ARegs| None::<ARegs>, &budget).expect_complete();
        assert_eq!(reply.rs.get(res), Val::Int(1), "{budget:?}");
    }
}
