//! Open semantics of Clight-mini: an LTS over the game `C ↠ C`
//! (paper §3.2).
//!
//! The component is activated by a [`CQuery`] naming one of its defined
//! functions; calls to functions it does not define suspend on an external
//! question (`X`), to be resumed by the environment's [`CReply`] (`Y`).
//! Locals live in memory blocks allocated at function entry and freed at
//! return, so the `SimplLocals` pass is observable in the memory footprint.
//!
//! The transition relation is the prepared-arena interpreter in
//! [`crate::fast`] (DESIGN.md §13): `step_batch` runs it for many steps in
//! place, and `step` is the same loop at fuel 1.

use compcerto_core::iface::{CQuery, CReply, C};
use compcerto_core::lts::{step_via_batch, Batch, Event, Lts, Step, Stuck};
use compcerto_core::symtab::SymbolTable;
use mem::{Mem, Val};

use crate::ast::Program;
use crate::fast;

/// The open semantics `Clight(p) : C ↠ C` of a translation unit.
///
/// All components of a linked program share a [`SymbolTable`] assigning
/// global blocks (paper App. A.3); the incoming memory is expected to contain
/// those blocks (build it with
/// [`SymbolTable::build_init_mem`]).
#[derive(Debug, Clone)]
pub struct ClightSem {
    prog: Program,
    symtab: SymbolTable,
    pub(crate) label: String,
    /// Prepared arenas the interpreter runs on (DESIGN.md §13).
    pub(crate) fast: fast::PProg,
}

impl ClightSem {
    /// Wrap a typed program as an open transition system.
    pub fn new(prog: Program, symtab: SymbolTable) -> ClightSem {
        let fast = fast::prepare(&prog, &symtab);
        ClightSem {
            prog,
            symtab,
            label: "Clight".into(),
            fast,
        }
    }

    /// Override the display name (useful when several units coexist).
    pub fn with_label(mut self, label: impl Into<String>) -> ClightSem {
        self.label = label.into();
        self
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// The shared symbol table.
    pub fn symtab(&self) -> &SymbolTable {
        &self.symtab
    }

    /// The index of the function `q` calls, when this unit defines it with
    /// `q`'s signature and arity.
    fn callee(&self, q: &CQuery) -> Option<u32> {
        let fidx = fast::fidx_of_val(&self.fast, &self.symtab, q.vf)?;
        let f = self.prog.functions.get(fidx as usize)?;
        (f.signature() == q.sig && q.args.len() == f.params.len()).then_some(fidx)
    }

    fn stuck<T>(&self, msg: impl Into<String>) -> Result<T, Stuck> {
        Err(Stuck::new(format!("{}: {}", self.label, msg.into())))
    }
}

/// States of the Clight LTS. Statements, frames and continuations are the
/// prepared arena forms of [`crate::fast`].
#[derive(Debug, Clone)]
pub enum State {
    /// About to enter a (locally-defined) function.
    Entry {
        /// Callee function index (into the prepared function arena).
        fidx: u32,
        /// Argument values.
        args: Vec<Val>,
        /// Memory.
        mem: Mem,
        /// Pending continuation.
        kont: fast::PKont,
    },
    /// Executing a statement.
    Stmt {
        /// Current statement id (into the frame's function arena).
        sid: u32,
        /// Activation frame.
        frame: fast::PFrame,
        /// Continuation.
        kont: fast::PKont,
        /// Memory.
        mem: Mem,
    },
    /// Unwinding a return value toward the caller (locals already freed).
    Returning {
        /// Value being returned.
        v: Val,
        /// Memory.
        mem: Mem,
        /// Continuation (always `Stop` or `Call`).
        kont: fast::PKont,
    },
    /// Suspended on an external call.
    External {
        /// The outgoing question.
        q: CQuery,
        /// Where the result goes.
        dest: fast::PDest,
        /// Suspended frame.
        frame: fast::PFrame,
        /// Continuation.
        kont: fast::PKont,
    },
}

impl State {
    /// The memory component of the state.
    fn mem_ref(&self) -> &Mem {
        match self {
            State::Entry { mem, .. } | State::Stmt { mem, .. } | State::Returning { mem, .. } => {
                mem
            }
            State::External { q, .. } => &q.mem,
        }
    }

    /// The call depth: the `Call` links of the continuation.
    fn call_depth(&self) -> u64 {
        match self {
            State::Entry { kont, .. }
            | State::Stmt { kont, .. }
            | State::Returning { kont, .. }
            | State::External { kont, .. } => kont.call_depth(),
        }
    }
}

impl Lts for ClightSem {
    type I = C;
    type O = C;
    type State = State;

    fn name(&self) -> String {
        self.label.clone()
    }

    fn accepts(&self, q: &CQuery) -> bool {
        self.callee(q).is_some()
    }

    fn initial(&self, q: &CQuery) -> Result<State, Stuck> {
        let Some(fidx) = self.callee(q) else {
            return self.stuck("query not accepted");
        };
        Ok(State::Entry {
            fidx,
            args: q.args.clone(),
            mem: q.mem.clone(),
            kont: fast::PKont::Stop,
        })
    }

    fn step(&self, s: &State) -> Step<State, CQuery, CReply> {
        step_via_batch(self, s)
    }

    fn step_batch(
        &self,
        s: &mut State,
        fuel_left: u64,
        _events: &mut Vec<Event>,
    ) -> Batch<CQuery, CReply> {
        // Clight emits no events.
        fast::step_batch(self, s, fuel_left)
    }

    fn resume(&self, s: &mut State, a: CReply) -> Result<(), Stuck> {
        let State::External {
            dest, frame, kont, ..
        } = s
        else {
            return self.stuck("resume in non-external state");
        };
        let mut mem = a.mem;
        // On failure this has changed neither the frame nor `s`.
        fast::write_dest(&self.fast, &self.label, dest, a.retval, frame, &mut mem)?;
        *s = State::Stmt {
            sid: self.fast.funcs[frame.fidx as usize].skip_sid,
            frame: std::mem::take(frame),
            kont: std::mem::replace(kont, fast::PKont::Stop),
            mem,
        };
        Ok(())
    }

    fn measure(&self, s: &State) -> compcerto_core::lts::StateMeasure {
        compcerto_core::lts::StateMeasure {
            mem_bytes: s.mem_ref().allocated_bytes(),
            call_depth: s.call_depth(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::build_symtab;
    use crate::parser::parse;
    use crate::typecheck::typecheck;
    use compcerto_core::lts::{run, RunOutcome};

    /// Compile source to a semantics plus symbol table and initial memory.
    pub(crate) fn load(src: &str) -> (ClightSem, Mem) {
        let prog = typecheck(&parse(src).unwrap()).unwrap();
        let symtab = build_symtab(&[&prog]).unwrap();
        let mem = symtab.build_init_mem().unwrap();
        (ClightSem::new(prog, symtab), mem)
    }

    fn call(sem: &ClightSem, mem: &Mem, fname: &str, args: Vec<Val>) -> RunOutcome<CReply> {
        let vf = sem.symtab().func_ptr(fname).unwrap();
        let sig = sem.program().sig_of(fname).unwrap();
        let q = CQuery {
            vf,
            sig,
            args,
            mem: mem.clone(),
        };
        run(sem, &q, &mut |_q: &CQuery| None, 100_000)
    }

    #[test]
    fn arithmetic_and_return() {
        let (sem, mem) = load("int add(int a, int b) { return a + b * 2; }");
        let r = call(&sem, &mem, "add", vec![Val::Int(3), Val::Int(4)]).expect_complete();
        assert_eq!(r.retval, Val::Int(11));
    }

    #[test]
    fn locals_and_loops() {
        let src = "
            int sum(int n) {
                int i; int s;
                s = 0;
                for (i = 1; i <= n; i = i + 1) { s = s + i; }
                return s;
            }";
        let (sem, mem) = load(src);
        let r = call(&sem, &mem, "sum", vec![Val::Int(10)]).expect_complete();
        assert_eq!(r.retval, Val::Int(55));
    }

    #[test]
    fn internal_recursion() {
        let src = "
            int fact(int n) {
                int r;
                if (n <= 1) { return 1; }
                r = fact(n - 1);
                return n * r;
            }";
        let (sem, mem) = load(src);
        let r = call(&sem, &mem, "fact", vec![Val::Int(6)]).expect_complete();
        assert_eq!(r.retval, Val::Int(720));
    }

    #[test]
    fn pointers_and_addressof() {
        let src = "
            int deref_roundtrip(int x) {
                int y; int* p;
                p = &y;
                *p = x + 1;
                return y;
            }";
        let (sem, mem) = load(src);
        let r = call(&sem, &mem, "deref_roundtrip", vec![Val::Int(9)]).expect_complete();
        assert_eq!(r.retval, Val::Int(10));
    }

    #[test]
    fn arrays_and_globals() {
        let src = "
            long buf[4];
            int fill(void) {
                int i;
                for (i = 0; i < 4; i = i + 1) { buf[i] = (long) (i * i); }
                return (int) buf[3];
            }";
        let (sem, mem) = load(src);
        let r = call(&sem, &mem, "fill", vec![]).expect_complete();
        assert_eq!(r.retval, Val::Int(9));
    }

    #[test]
    fn external_calls_suspend() {
        let src = "
            extern int twice(int);
            int f(int x) { int r; r = twice(x); return r + 1; }";
        let (sem, mem) = load(src);
        let vf = sem.symtab().func_ptr("f").unwrap();
        let q = CQuery {
            vf,
            sig: sem.program().sig_of("f").unwrap(),
            args: vec![Val::Int(5)],
            mem,
        };
        let out = run(
            &sem,
            &q,
            &mut |eq: &CQuery| {
                Some(CReply {
                    retval: eq.args[0].mul(Val::Int(2)),
                    mem: eq.mem.clone(),
                })
            },
            100_000,
        );
        assert_eq!(out.expect_complete().retval, Val::Int(11));
    }

    #[test]
    fn division_by_zero_goes_wrong() {
        let (sem, mem) = load("int f(int x) { if (x / 0) { return 1; } return 0; }");
        let out = call(&sem, &mem, "f", vec![Val::Int(1)]);
        assert!(matches!(out, RunOutcome::Wrong { .. }));
    }

    #[test]
    fn out_of_bounds_access_goes_wrong() {
        let src = "long buf[2]; long f(int i) { return buf[i]; }";
        let (sem, mem) = load(src);
        let out = call(&sem, &mem, "f", vec![Val::Int(7)]);
        assert!(matches!(out, RunOutcome::Wrong { .. }));
    }

    #[test]
    fn locals_are_freed_on_return() {
        let (sem, mem) = load("int f(void) { int x; x = 1; return x; }");
        let before = mem.next_block();
        let r = call(&sem, &mem, "f", vec![]).expect_complete();
        // The local block was allocated and freed; support grew but the
        // block is invalid.
        assert_eq!(r.mem.next_block(), before + 1);
        assert!(!r.mem.valid_block(before));
    }

    #[test]
    fn query_with_wrong_signature_rejected() {
        let (sem, mem) = load("int f(int x) { return x; }");
        let q = CQuery {
            vf: sem.symtab().func_ptr("f").unwrap(),
            sig: compcerto_core::iface::Signature::int_fn(2),
            args: vec![Val::Int(1), Val::Int(2)],
            mem,
        };
        assert!(!sem.accepts(&q));
    }
}
