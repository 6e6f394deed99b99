//! Open semantics of RTL: an LTS over `C ↠ C` (paper §3.2, Thm. 4.3 lists
//! RTL among the languages parametric in CKLRs).
//!
//! The transition relation is the prepared µop interpreter in `fast`
//! (DESIGN.md §13): `step_batch` runs it for many steps in place, and
//! `step` is the same loop at fuel 1.

use compcerto_core::iface::{CQuery, CReply, C};
use compcerto_core::lts::{Batch, Event, Lts, Stuck};
use compcerto_core::symtab::{Ident, SymbolTable};
use mem::{BlockId, Mem, Val};

use crate::fast;
use crate::lang::{Node, PReg, RtlProgram};

/// The open semantics `RTL(p) : C ↠ C`.
#[derive(Debug, Clone)]
pub struct RtlSem {
    prog: RtlProgram,
    symtab: SymbolTable,
    pub(crate) label: String,
    /// Prepared µop form the interpreter runs on (see `fast`).
    pub(crate) fast: fast::PProg,
}

/// An RTL activation: the running function and µop (dense indices into the
/// prepared program), a dense register file and the stack block.
#[derive(Debug, Clone, Default)]
pub struct RtlFrame {
    pub(crate) fidx: u32,
    pub(crate) ix: u32,
    pub(crate) regs: Vec<Val>,
    pub(crate) sp: BlockId,
}

impl RtlFrame {
    /// The value of register `r` (`Undef` when it was never written).
    #[must_use]
    pub fn reg(&self, r: PReg) -> Val {
        self.regs.get(r as usize).copied().unwrap_or(Val::Undef)
    }

    /// The activation's stack block.
    #[must_use]
    pub fn sp(&self) -> BlockId {
        self.sp
    }
}

/// States of the RTL LTS.
#[derive(Debug, Clone)]
pub enum RtlState {
    /// Entering an internal function.
    Call {
        /// Callee (index into the prepared function arena).
        fidx: u32,
        /// Arguments.
        args: Vec<Val>,
        /// Memory.
        mem: Mem,
        /// Suspended callers (innermost last).
        stack: Vec<RtlFrame>,
    },
    /// Executing instructions.
    Exec {
        /// Active frame.
        cur: RtlFrame,
        /// Memory.
        mem: Mem,
        /// Suspended callers.
        stack: Vec<RtlFrame>,
    },
    /// Suspended on an external call.
    External {
        /// Outgoing question.
        q: CQuery,
        /// Active frame (still at the call; a tail call's frame is gone and
        /// carries a poisoned index).
        cur: RtlFrame,
        /// Suspended callers.
        stack: Vec<RtlFrame>,
    },
    /// Returning `v` to the innermost suspended caller (or the environment).
    Ret {
        /// Value.
        v: Val,
        /// Memory.
        mem: Mem,
        /// Suspended callers.
        stack: Vec<RtlFrame>,
    },
}

impl RtlSem {
    /// Wrap an RTL program and the shared symbol table.
    pub fn new(prog: RtlProgram, symtab: SymbolTable) -> RtlSem {
        let fast = fast::prepare(&prog, &symtab);
        RtlSem {
            prog,
            symtab,
            label: "RTL".into(),
            fast,
        }
    }

    /// Override the display label.
    pub fn with_label(mut self, label: impl Into<String>) -> RtlSem {
        self.label = label.into();
        self
    }

    /// The underlying program.
    pub fn program(&self) -> &RtlProgram {
        &self.prog
    }

    /// The shared symbol table.
    pub fn symtab(&self) -> &SymbolTable {
        &self.symtab
    }

    /// The program point of `frame`: its function's name and the CFG node
    /// about to execute. `None` for a frame this semantics did not create
    /// and for a tail call's discarded frame.
    #[must_use]
    pub fn program_point(&self, frame: &RtlFrame) -> Option<(&Ident, Node)> {
        let f = self.fast.funcs.get(frame.fidx as usize)?;
        Some((&f.name, *f.node_of_ix.get(frame.ix as usize)?))
    }

    /// The index of the function `q` calls, when this program defines it
    /// with `q`'s signature and arity.
    fn callee(&self, q: &CQuery) -> Option<u32> {
        let fidx = self.fast.fn_index.by_ptr(&self.symtab, q.vf)?;
        let f = self.prog.functions.get(fidx as usize)?;
        (f.sig == q.sig && q.args.len() == f.params.len()).then_some(fidx)
    }

    fn stuck<T>(&self, msg: impl Into<String>) -> Result<T, Stuck> {
        Err(Stuck::new(format!("{}: {}", self.label, msg.into())))
    }
}

impl Lts for RtlSem {
    type I = C;
    type O = C;
    type State = RtlState;

    fn name(&self) -> String {
        self.label.clone()
    }

    fn accepts(&self, q: &CQuery) -> bool {
        self.callee(q).is_some()
    }

    fn initial(&self, q: &CQuery) -> Result<RtlState, Stuck> {
        let Some(fidx) = self.callee(q) else {
            return self.stuck("query not accepted");
        };
        Ok(RtlState::Call {
            fidx,
            args: q.args.clone(),
            mem: q.mem.clone(),
            stack: vec![],
        })
    }

    fn step_batch(
        &self,
        s: &mut RtlState,
        fuel_left: u64,
        _events: &mut Vec<Event>,
    ) -> Batch<CQuery, CReply> {
        // RTL emits no events.
        fast::step_batch(self, s, fuel_left)
    }

    fn resume(&self, s: &mut RtlState, a: CReply) -> Result<(), Stuck> {
        let RtlState::External { cur, stack, .. } = s else {
            return self.stuck("resume in non-external state");
        };
        // A poisoned index marks a tail call: forward the answer.
        let resumed = if cur.ix == fast::TAILCALL_IX {
            RtlState::Ret {
                v: a.retval,
                mem: a.mem,
                stack: std::mem::take(stack),
            }
        } else if fast::return_into(&self.fast, cur, a.retval) {
            RtlState::Exec {
                cur: std::mem::take(cur),
                mem: a.mem,
                stack: std::mem::take(stack),
            }
        } else {
            // `return_into` leaves the frame alone when it fails.
            return self.stuck("external frame pc is not at a call");
        };
        *s = resumed;
        Ok(())
    }

    fn measure(&self, s: &RtlState) -> compcerto_core::lts::StateMeasure {
        let (mem_bytes, stack) = match s {
            RtlState::Call { mem, stack, .. } | RtlState::Exec { mem, stack, .. } => {
                (mem.allocated_bytes(), stack)
            }
            RtlState::External { q, stack, .. } => (q.mem.allocated_bytes(), stack),
            RtlState::Ret { mem, stack, .. } => (mem.allocated_bytes(), stack),
        };
        compcerto_core::lts::StateMeasure {
            mem_bytes,
            call_depth: stack.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{Inst, RtlFunction, RtlOp};
    use compcerto_core::iface::Signature;
    use compcerto_core::lts::{run, run_budgeted, RunBudget, RunOutcome};
    use compcerto_core::obs;
    use compcerto_core::symtab::GlobKind;
    use minor::MBinop;
    use std::collections::BTreeMap;

    /// Build `int double_add(a, b) { return a + a + b; }` by hand.
    fn sample() -> (RtlSem, Mem) {
        let mut code = BTreeMap::new();
        code.insert(0, Inst::Op(RtlOp::Binop(MBinop::Add32, 0, 0), 2, 1));
        code.insert(1, Inst::Op(RtlOp::Binop(MBinop::Add32, 2, 1), 3, 2));
        code.insert(2, Inst::Return(Some(3)));
        let f = RtlFunction {
            name: "double_add".into(),
            sig: Signature::int_fn(2),
            params: vec![0, 1],
            stack_size: 0,
            entry: 0,
            code,
            next_reg: 4,
        };
        let prog = RtlProgram {
            functions: vec![f],
            externs: vec![],
        };
        let mut tbl = SymbolTable::new();
        tbl.define("double_add".into(), GlobKind::Func(Signature::int_fn(2)));
        let mem = tbl.build_init_mem().unwrap();
        (RtlSem::new(prog, tbl), mem)
    }

    #[test]
    fn executes_cfg() {
        let (sem, mem) = sample();
        let q = CQuery {
            vf: sem.symtab().func_ptr("double_add").unwrap(),
            sig: Signature::int_fn(2),
            args: vec![Val::Int(10), Val::Int(3)],
            mem,
        };
        let r = run(&sem, &q, &mut |_q| None, 1000).expect_complete();
        assert_eq!(r.retval, Val::Int(23));
    }

    #[test]
    fn missing_node_goes_wrong() {
        // Each corruption is known at prepare time and decodes to a stuck
        // µop; the run must stick with the exact label-prefixed message
        // after the same number of steps whether the runner steps once per
        // batch (ring trace) or hands the batch all its fuel (no trace).
        type Corrupt = fn(&mut RtlFunction);
        let table: [(&str, Corrupt, &str, u64); 4] = [
            (
                "missing entry",
                |f| f.entry = 99,
                "RTL: no instruction at double_add:99",
                1,
            ),
            (
                "missing successor",
                |f| {
                    f.code
                        .insert(1, Inst::Op(RtlOp::Binop(MBinop::Add32, 2, 1), 3, 77));
                },
                "RTL: no instruction at double_add:77",
                3,
            ),
            (
                "undefined global",
                |f| {
                    f.code
                        .insert(1, Inst::Op(RtlOp::AddrGlobal("nowhere".into(), 0), 3, 2));
                },
                "RTL: unknown symbol `nowhere`",
                2,
            ),
            (
                "undefined callee",
                |f| {
                    let call =
                        Inst::Call(Signature::int_fn(1), "ghost".into(), vec![2], Some(3), 2);
                    f.code.insert(1, call);
                },
                "RTL: unknown callee `ghost`",
                2,
            ),
        ];
        let (sem, mem) = sample();
        for (what, corrupt, want_msg, want_steps) in table {
            let mut prog = sem.program().clone();
            corrupt(&mut prog.functions[0]);
            let bad = RtlSem::new(prog, sem.symtab().clone());
            let q = CQuery {
                vf: bad.symtab().func_ptr("double_add").unwrap(),
                sig: Signature::int_fn(2),
                args: vec![Val::Int(1), Val::Int(2)],
                mem: mem.clone(),
            };
            for budget in [
                RunBudget::with_fuel(1000),
                RunBudget::with_fuel(1000).no_trace(),
            ] {
                let before = obs::counters();
                let out = run_budgeted(&bad, &q, &mut |_q| None, &budget);
                let steps = obs::counters().since(&before).steps;
                let RunOutcome::Wrong { stuck, .. } = out else {
                    panic!("{what} under {:?}: {out:?}", budget.trace);
                };
                assert_eq!(stuck.reason, want_msg, "{what} under {:?}", budget.trace);
                assert_eq!(steps, want_steps, "{what} under {:?}", budget.trace);
            }
        }
    }
}
