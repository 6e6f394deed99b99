//! Closing open components: the whole-program semantics `1 ↠ W`
//! (paper §2.2 and §3.1).
//!
//! The original CompCert model runs a program as a *process*: loaded, `main`
//! invoked conventionally, external functions fixed by a parameter `χ`, and
//! the observable behaviour an event trace plus an exit status. [`Closed`]
//! reconstructs that model on top of any open `C ↠ C` component: the single
//! trivial question `*` loads the initial memory and calls `main`; outgoing
//! questions are answered by the `χ` parameter (an [`ExtLib`]), each
//! answered call surfacing as a syscall [`Event`]; the final answer is the
//! `int` exit status.
//!
//! This is the (Sep)CompCert row of paper Table 4, expressed inside
//! CompCertO's framework — closing is a *construction on open semantics*,
//! not a separate theory.

use compcerto_core::iface::{CQuery, One, Signature, Void, C, W};
use compcerto_core::lts::{Event, Lts, Step, Stuck};
use compcerto_core::symtab::SymbolTable;
use mem::{Typ, Val};

use crate::extlib::ExtLib;

/// A closed process built from an open `C ↠ C` component.
#[derive(Debug, Clone)]
pub struct Closed<L> {
    inner: L,
    symtab: SymbolTable,
    /// The conventional entry point.
    main: String,
    /// The external-function parameter χ.
    chi: ExtLib,
}

/// State of a closed process: the inner component's state, plus the phase.
#[derive(Debug, Clone)]
pub enum ClosedState<S> {
    /// Not yet loaded.
    Boot,
    /// Running the inner component.
    Running(S),
}

impl<L> Closed<L>
where
    L: Lts<I = C, O = C>,
{
    /// Close `inner` over `chi`, entering at `main`.
    pub fn new(inner: L, symtab: SymbolTable, main: impl Into<String>, chi: ExtLib) -> Closed<L> {
        Closed {
            inner,
            symtab,
            main: main.into(),
            chi,
        }
    }

    fn main_query(&self) -> Result<CQuery, Stuck> {
        let vf = self
            .symtab
            .func_ptr(&self.main)
            .ok_or_else(|| Stuck::new(format!("no `{}` in the symbol table", self.main)))?;
        let mem = self
            .symtab
            .build_init_mem()
            .map_err(|e| Stuck::new(format!("loader: {e}")))?;
        Ok(CQuery {
            vf,
            sig: Signature::new(vec![], Some(Typ::I32)),
            args: vec![],
            mem,
        })
    }
}

impl<L> Lts for Closed<L>
where
    L: Lts<I = C, O = C>,
{
    type I = W;
    type O = One;
    type State = ClosedState<L::State>;

    fn name(&self) -> String {
        format!("[{}]", self.inner.name())
    }

    fn accepts(&self, _q: &()) -> bool {
        true
    }

    fn initial(&self, _q: &()) -> Result<Self::State, Stuck> {
        Ok(ClosedState::Boot)
    }

    fn step(&self, s: &Self::State) -> Step<Self::State, Void, i32> {
        match s {
            ClosedState::Boot => {
                let q = match self.main_query() {
                    Ok(q) => q,
                    Err(stuck) => return Step::Stuck(stuck),
                };
                if !self.inner.accepts(&q) {
                    return Step::Stuck(Stuck::new(format!(
                        "`{}` is not defined by the component",
                        self.main
                    )));
                }
                match self.inner.initial(&q) {
                    Ok(st) => Step::Internal(ClosedState::Running(st), vec![]),
                    Err(stuck) => Step::Stuck(stuck),
                }
            }
            ClosedState::Running(st) => match self.inner.step(st) {
                Step::Internal(st2, evs) => Step::Internal(ClosedState::Running(st2), evs),
                Step::Final(reply) => match reply.retval {
                    Val::Int(code) => Step::Final(code),
                    other => Step::Stuck(Stuck::new(format!(
                        "main returned a non-int exit status: {other}"
                    ))),
                },
                // χ answers every external call; the call becomes a syscall
                // event in the trace (paper §2.2: interaction with the
                // environment is a sequence of events).
                Step::External(q) => match self.chi.answer_c(&q) {
                    Some(reply) => {
                        let name = match q.vf {
                            Val::Ptr(b, 0) => {
                                self.symtab.ident_of(b).unwrap_or("<unknown>").to_string()
                            }
                            _ => "<indirect>".into(),
                        };
                        let ev = Event::Syscall {
                            name,
                            args: q.args.clone(),
                            result: reply.retval,
                        };
                        let mut st = st.clone();
                        match self.inner.resume(&mut st, reply) {
                            Ok(()) => Step::Internal(ClosedState::Running(st), vec![ev]),
                            Err(stuck) => Step::Stuck(stuck),
                        }
                    }
                    None => Step::Stuck(Stuck::new(format!(
                        "χ does not define the external function {:?}",
                        q.vf
                    ))),
                },
                Step::Stuck(stuck) => Step::Stuck(stuck),
            },
        }
    }

    fn resume(&self, _s: &mut Self::State, a: Void) -> Result<(), Stuck> {
        match a {} // One has no answers: closed processes are never resumed
    }

    fn measure(&self, s: &Self::State) -> compcerto_core::lts::StateMeasure {
        match s {
            ClosedState::Boot => compcerto_core::lts::StateMeasure::default(),
            ClosedState::Running(st) => self.inner.measure(st),
        }
    }
}

/// Run a closed process to completion, returning the exit status and the
/// event trace (the observable behaviour of paper §3.1).
///
/// # Errors
/// Returns the inner [`Stuck`] on undefined behaviour.
pub fn run_closed<L>(closed: &Closed<L>, fuel: u64) -> Result<(i32, Vec<Event>), Stuck>
where
    L: Lts<I = C, O = C>,
{
    run_closed_budgeted(closed, &compcerto_core::lts::RunBudget::with_fuel(fuel))
}

/// Like [`run_closed`], but under a full [`RunBudget`] (memory / call-depth /
/// deadline quotas in addition to fuel).
///
/// # Errors
/// Returns the inner [`Stuck`] on undefined behaviour; budget violations are
/// reported as `Stuck` values describing the exceeded quota.
pub fn run_closed_budgeted<L>(
    closed: &Closed<L>,
    budget: &compcerto_core::lts::RunBudget,
) -> Result<(i32, Vec<Event>), Stuck>
where
    L: Lts<I = C, O = C>,
{
    match compcerto_core::lts::run_budgeted(closed, &(), &mut |q: &Void| match *q {}, budget) {
        compcerto_core::lts::RunOutcome::Complete { answer, trace, .. } => Ok((answer, trace)),
        // Every failing outcome (wrong, refused, budget) maps to a `Stuck`
        // describing the failure — `run_closed` must never panic.
        other => match other.into_answer() {
            Err(e) => Err(Stuck::new(e.to_string())),
            Ok(_) => Err(Stuck::new("unreachable: Complete handled above")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{compile_all, CompilerOptions};
    use compcerto_core::hcomp::HComp;

    const MAIN: &str = "
        extern int inc(int);
        int work(int n) {
            int i; int s;
            s = 0;
            for (i = 0; i < n; i = i + 1) { s = s + i; }
            return s;
        }
        int main() {
            int a; int b;
            a = work(10);
            b = inc(a);
            return b;
        }";

    #[test]
    fn closed_clight_process() {
        let (units, tbl) = compile_all(&[MAIN], CompilerOptions::default()).unwrap();
        let chi = ExtLib::demo(tbl.clone());
        let closed = Closed::new(units[0].clight_sem(&tbl), tbl, "main", chi);
        let (code, trace) = run_closed(&closed, 1_000_000).unwrap();
        assert_eq!(code, 46); // sum 0..9 = 45, inc -> 46
                              // The external call shows up as a syscall event (paper §2.2).
        assert_eq!(trace.len(), 1);
        assert!(matches!(&trace[0], Event::Syscall { name, .. } if name == "inc"));
    }

    #[test]
    fn closed_composition_of_units() {
        // SepCompCert's model: the closed semantics of linked units equals
        // the closed semantics of their ⊕-composition.
        let a = "extern int helper(int); int main() { int r; r = helper(20); return r; }";
        let b = "int helper(int x) { return x + 2; }";
        let (units, tbl) = compile_all(&[a, b], CompilerOptions::default()).unwrap();
        let chi = ExtLib::demo(tbl.clone());
        let composed = HComp::new(units[0].clight_sem(&tbl), units[1].clight_sem(&tbl));
        let closed = Closed::new(composed, tbl.clone(), "main", chi.clone());
        let (code, trace) = run_closed(&closed, 1_000_000).unwrap();
        assert_eq!(code, 22);
        assert!(
            trace.is_empty(),
            "cross-unit calls are internal, not events"
        );

        // And the linked source gives the same behaviour.
        let linked = clight::link(&units[0].clight, &units[1].clight).unwrap();
        let whole = clight::ClightSem::new(linked, tbl.clone());
        let closed2 = Closed::new(whole, tbl, "main", chi);
        assert_eq!(run_closed(&closed2, 1_000_000).unwrap().0, 22);
    }

    #[test]
    fn missing_chi_function_goes_wrong() {
        let src = "extern int nosuch(int); int main() { int r; r = nosuch(1); return r; }";
        let (units, tbl) = compile_all(&[src], CompilerOptions::default()).unwrap();
        let chi = ExtLib::demo(tbl.clone()); // does not define `nosuch`
        let closed = Closed::new(units[0].clight_sem(&tbl), tbl, "main", chi);
        assert!(run_closed(&closed, 1_000_000).is_err());
    }

    #[test]
    fn non_int_exit_status_rejected() {
        let src = "long main() { return 7L; }";
        let (units, tbl) = compile_all(&[src], CompilerOptions::default()).unwrap();
        let chi = ExtLib::demo(tbl.clone());
        let closed = Closed::new(units[0].clight_sem(&tbl), tbl, "main", chi);
        // `main` has the wrong signature: the component rejects the query.
        assert!(run_closed(&closed, 1_000_000).is_err());
    }
}
