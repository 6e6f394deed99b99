//! The `CSE` pass: local value numbering within basic blocks
//! (paper Table 3, convention `va·ext ↠ va·ext`).
//!
//! Pure operations computing a value already available in a register are
//! replaced by moves; available loads are reused until a store or call
//! invalidates memory equations.

use std::collections::BTreeMap;

use mem::{Chunk, Val};

use crate::analysis::predecessors;
use crate::lang::{Inst, Node, PReg, RtlFunction, RtlOp, RtlProgram};

/// Run common-subexpression elimination over every function.
pub fn cse(prog: &RtlProgram) -> RtlProgram {
    prog.map_functions(cse_function)
}

/// A value number.
type Vn = u32;

/// Right-hand sides, keyed by the value numbers of their operands.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Int(i32),
    Long(i64),
    AddrGlobal(String, i64),
    AddrStack(i64),
    Unop(minor::MUnop, Vn),
    Binop(minor::MBinop, Vn, Vn),
    BinopImm(minor::MBinop, Vn, ValKey),
    Load(Chunk, Vn, i64),
}

/// An orderable projection of immediate values.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum ValKey {
    Int(i32),
    Long(i64),
    Other,
}

fn val_key(v: &Val) -> ValKey {
    match v {
        Val::Int(n) => ValKey::Int(*n),
        Val::Long(n) => ValKey::Long(*n),
        _ => ValKey::Other,
    }
}

#[derive(Default)]
struct Numbering {
    next_vn: Vn,
    reg_vn: BTreeMap<PReg, Vn>,
    /// Known equations: key → (value number, a register holding it).
    table: BTreeMap<Key, (Vn, PReg)>,
}

impl Numbering {
    /// Is `(vn, holder)` still valid — i.e. does the holder register still
    /// contain the numbered value? (It may have been overwritten since the
    /// equation was recorded.)
    fn holder_valid(&self, vn: Vn, holder: PReg) -> bool {
        self.reg_vn.get(&holder) == Some(&vn)
    }

    fn vn_of(&mut self, r: PReg) -> Vn {
        if let Some(v) = self.reg_vn.get(&r) {
            return *v;
        }
        let v = self.fresh();
        self.reg_vn.insert(r, v);
        v
    }

    fn fresh(&mut self) -> Vn {
        let v = self.next_vn;
        self.next_vn += 1;
        v
    }

    /// Invalidate all memory equations (after stores and calls).
    fn kill_loads(&mut self) {
        self.table.retain(|k, _| !matches!(k, Key::Load(_, _, _)));
    }

    fn key_of_op(&mut self, op: &RtlOp) -> Option<Key> {
        Some(match op {
            RtlOp::Move(_) => return None,
            RtlOp::Int(n) => Key::Int(*n),
            RtlOp::Long(n) => Key::Long(*n),
            RtlOp::AddrGlobal(s, d) => Key::AddrGlobal(s.clone(), *d),
            RtlOp::AddrStack(o) => Key::AddrStack(*o),
            RtlOp::Unop(m, r) => Key::Unop(*m, self.vn_of(*r)),
            RtlOp::Binop(m, a, b) => Key::Binop(*m, self.vn_of(*a), self.vn_of(*b)),
            RtlOp::BinopImm(m, a, i) => Key::BinopImm(*m, self.vn_of(*a), val_key(i)),
        })
    }
}

/// Compute the basic-block leaders: the entry, branch targets of conditional
/// jumps, and any node with several predecessors.
fn leaders(f: &RtlFunction) -> Vec<Node> {
    let preds = predecessors(f);
    let mut out = vec![f.entry];
    for (n, inst) in &f.code {
        if let Inst::Cond(_, t, e) = inst {
            out.push(*t);
            out.push(*e);
        }
        if preds.get(n).map(|p| p.len()).unwrap_or(0) > 1 {
            out.push(*n);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn cse_function(f: &RtlFunction) -> RtlFunction {
    let mut out = f.clone();
    let leader_list = leaders(f);
    for leader in leader_list.iter().copied() {
        let mut num = Numbering::default();
        let mut n = leader;
        // Walk the straight-line block.
        while let Some(inst) = f.code.get(&n) {
            match inst {
                Inst::Op(op, dst, next) => {
                    if let Some(key) = num.key_of_op(op) {
                        match num.table.get(&key).copied() {
                            // Available only while the holder register still
                            // carries the value.
                            Some((vn, src)) if num.holder_valid(vn, src) => {
                                out.code.insert(n, Inst::Op(RtlOp::Move(src), *dst, *next));
                                num.reg_vn.insert(*dst, vn);
                            }
                            _ => {
                                let vn = num.fresh();
                                num.reg_vn.insert(*dst, vn);
                                num.table.insert(key, (vn, *dst));
                            }
                        }
                    } else if let RtlOp::Move(src) = op {
                        let vn = num.vn_of(*src);
                        num.reg_vn.insert(*dst, vn);
                    }
                    n = *next;
                }
                Inst::Load(chunk, base, disp, dst, next) => {
                    let key = Key::Load(*chunk, num.vn_of(*base), *disp);
                    match num.table.get(&key).copied() {
                        Some((vn, src)) if num.holder_valid(vn, src) => {
                            out.code.insert(n, Inst::Op(RtlOp::Move(src), *dst, *next));
                            num.reg_vn.insert(*dst, vn);
                        }
                        _ => {
                            let vn = num.fresh();
                            num.reg_vn.insert(*dst, vn);
                            num.table.insert(key, (vn, *dst));
                        }
                    }
                    n = *next;
                }
                Inst::Store(_, _, _, _, next) => {
                    num.kill_loads();
                    n = *next;
                }
                Inst::Call(_, _, _, dst, next) => {
                    num.kill_loads();
                    if let Some(d) = dst {
                        let vn = num.fresh();
                        num.reg_vn.insert(*d, vn);
                    }
                    n = *next;
                }
                Inst::Nop(next) => {
                    n = *next;
                }
                Inst::Cond(_, _, _) | Inst::Return(_) | Inst::Tailcall(_, _, _) => break,
            }
            // Stop at the next leader (it starts its own block).
            if leader_list.binary_search(&n).is_ok() {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use compcerto_core::iface::Signature;
    use minor::MBinop;

    fn fun(code: Vec<(Node, Inst)>, params: Vec<PReg>) -> RtlFunction {
        RtlFunction {
            name: "f".into(),
            sig: Signature::int_fn(params.len()),
            params,
            stack_size: 0,
            entry: 0,
            code: code.into_iter().collect(),
            next_reg: 100,
        }
    }

    #[test]
    fn reuses_pure_computation() {
        // x2 := x0+x1; x3 := x0+x1; return x3  ==>  x3 := move x2
        let f = fun(
            vec![
                (0, Inst::Op(RtlOp::Binop(MBinop::Add32, 0, 1), 2, 1)),
                (1, Inst::Op(RtlOp::Binop(MBinop::Add32, 0, 1), 3, 2)),
                (2, Inst::Return(Some(3))),
            ],
            vec![0, 1],
        );
        let out = cse_function(&f);
        assert_eq!(out.code[&1], Inst::Op(RtlOp::Move(2), 3, 2));
    }

    #[test]
    fn reuses_loads_until_store() {
        let f = fun(
            vec![
                (0, Inst::Load(Chunk::I32, 0, 0, 2, 1)),
                (1, Inst::Load(Chunk::I32, 0, 0, 3, 2)), // same load: reused
                (2, Inst::Store(Chunk::I32, 0, 0, 1, 3)),
                (3, Inst::Load(Chunk::I32, 0, 0, 4, 4)), // after store: kept
                (4, Inst::Return(Some(4))),
            ],
            vec![0, 1],
        );
        let out = cse_function(&f);
        assert_eq!(out.code[&1], Inst::Op(RtlOp::Move(2), 3, 2));
        assert!(matches!(out.code[&3], Inst::Load(_, _, _, _, _)));
    }

    #[test]
    fn blocks_are_isolated() {
        // The computation in the branch target cannot see the one before the
        // branch (conservative local value numbering).
        let f = fun(
            vec![
                (0, Inst::Op(RtlOp::Binop(MBinop::Add32, 0, 1), 2, 1)),
                (1, Inst::Cond(2, 2, 3)),
                (2, Inst::Op(RtlOp::Binop(MBinop::Add32, 0, 1), 3, 4)),
                (3, Inst::Return(Some(2))),
                (4, Inst::Return(Some(3))),
            ],
            vec![0, 1],
        );
        let out = cse_function(&f);
        // Node 2 is a leader (branch target): not rewritten.
        assert!(matches!(
            out.code[&2],
            Inst::Op(RtlOp::Binop(_, _, _), _, _)
        ));
    }

    #[test]
    fn behaviour_preserved() {
        use crate::gen::tests::front_end;
        use crate::sem::RtlSem;
        use compcerto_core::iface::{CQuery, CReply};
        use compcerto_core::lts::run;

        let src = "
            long quad(long a, long b) {
                long x; long y;
                x = (a + b) * (a + b);
                y = (a + b) * (a + b);
                return x + y;
            }";
        let (_, r, tbl) = front_end(src);
        let opt = cse(&r);
        let mem0 = tbl.build_init_mem().unwrap();
        let q = CQuery {
            vf: tbl.func_ptr("quad").unwrap(),
            sig: r.function("quad").unwrap().sig.clone(),
            args: vec![Val::Long(3), Val::Long(4)],
            mem: mem0,
        };
        let s1 = RtlSem::new(r, tbl.clone());
        let s2 = RtlSem::new(opt, tbl);
        let r1 = run(&s1, &q, &mut |_: &CQuery| None::<CReply>, 100_000).expect_complete();
        let r2 = run(&s2, &q, &mut |_: &CQuery| None::<CReply>, 100_000).expect_complete();
        assert_eq!(r1.retval, Val::Long(98));
        assert!(r1.retval.lessdef(&r2.retval));
        assert!(mem::extends(&r1.mem, &r2.mem));
    }
}
