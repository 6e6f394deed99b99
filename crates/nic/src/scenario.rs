//! The full heterogeneous scenario of paper Fig. 7.
//!
//! A driver written in Clight-mini is compiled by the CompCertO-rs pipeline
//! and layered over the I/O primitives and the NIC model with sequential
//! composition `∘` (paper §3.5):
//!
//! ```text
//!   source:  Clight(client) ⊕ Clight(driver)  ∘  σ_io   ∘ σ_NIC : Net ↠ C
//!   target:  Asm(client' + driver')           ∘  σ'_io  ∘ σ_NIC : Net ↠ A
//! ```
//!
//! [`Scenario::check_fig7`] verifies the bottom line of Fig. 7 on concrete runs: the
//! two stacks are related by the calling convention on the C/A side and by
//! the identity on the Net side, with the network medium as the environment.

use compcerto_core::cc::Ca;
use compcerto_core::conv::IdConv;
use compcerto_core::hcomp::HComp;
use compcerto_core::iface::CQuery;
use compcerto_core::lts::run;
use compcerto_core::seqcomp::SeqComp;
use compcerto_core::sim::{check_fwd_sim_env, EnvMode, SimCheckError, SimCheckReport};
use compcerto_core::symtab::SymbolTable;
use compiler::{compile_all, CompileError, CompilerOptions};
use mem::Val;

use crate::device::{LoopbackNet, NicModel};
use crate::iface::{Net, NetOp};
use crate::io::{IoAtA, IoAtC};

/// The driver translation unit: `ping` transmits a frame and waits for the
/// network's response (paper Example 1.1's "direct relationship between C
/// calls into the driver and network communication").
pub const DRIVER_SRC: &str = "
    extern long nic_send(long);
    extern long nic_recv();

    long ping(long payload) {
        long st; long r;
        st = nic_send(payload);
        if ((int) st != 0) { return -2L; }
        r = nic_recv();
        return r;
    }
";

/// A client translation unit using the driver.
pub const CLIENT_SRC: &str = "
    extern long ping(long);

    long client_main(long x) {
        long r;
        r = ping(x * 2L);
        return r + 1L;
    }
";

/// The compiled scenario: both units, their shared symbol table, and the
/// component semantics at both levels.
pub struct Scenario {
    /// Compiled client (unit 0) and driver (unit 1).
    pub units: Vec<compiler::CompiledUnit>,
    /// Shared symbol table (includes the I/O primitive symbols).
    pub symtab: SymbolTable,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario").finish()
    }
}

/// Build (compile) the scenario.
///
/// # Errors
/// Propagates compilation errors.
pub fn build() -> Result<Scenario, CompileError> {
    let (units, symtab) = compile_all(&[CLIENT_SRC, DRIVER_SRC], CompilerOptions::default())?;
    // `nic_send`/`nic_recv` were claimed as externals by `build_symtab`
    // already; nothing further to define.
    Ok(Scenario { units, symtab })
}

impl Scenario {
    /// The C-level query `client_main(x)`.
    pub fn query(&self, x: i64) -> CQuery {
        compiler::c_query(
            &self.symtab,
            &self.units[0],
            "client_main",
            vec![Val::Long(x)],
        )
    }

    /// The source stack `(Clight(client) ⊕ Clight(driver)) ∘ σ_io ∘ σ_NIC`.
    pub fn source_stack(
        &self,
    ) -> SeqComp<SeqComp<HComp<clight::ClightSem, clight::ClightSem>, IoAtC>, NicModel> {
        let c_components = HComp::new(
            self.units[0]
                .clight_sem(&self.symtab)
                .with_label("Clight(client)"),
            self.units[1]
                .clight_sem(&self.symtab)
                .with_label("Clight(driver)"),
        );
        SeqComp::new(
            SeqComp::new(c_components, IoAtC::new(self.symtab.clone())),
            NicModel,
        )
    }

    /// The target stack `Asm(client' + driver') ∘ σ'_io ∘ σ_NIC`.
    ///
    /// # Panics
    /// Panics if the two compiled units do not link (cannot happen for the
    /// built-in sources).
    pub fn target_stack(&self) -> SeqComp<SeqComp<backend::AsmSem, IoAtA>, NicModel> {
        let linked = backend::link_asm(&self.units[0].asm, &self.units[1].asm)
            .expect("client and driver link");
        SeqComp::new(
            SeqComp::new(
                backend::AsmSem::new(linked, self.symtab.clone()),
                IoAtA::new(self.symtab.clone()),
            ),
            NicModel,
        )
    }

    /// Run the *source* stack on `client_main(x)` against a network medium,
    /// reporting budget exhaustion or a stuck run as an error string.
    ///
    /// # Errors
    /// When the run goes wrong, runs out of fuel, or yields a non-`Long`
    /// result.
    pub fn try_run_source(&self, x: i64, net: &mut LoopbackNet) -> Result<i64, String> {
        let stack = self.source_stack();
        let out = run(
            &stack,
            &self.query(x),
            &mut |op: &NetOp| Some(net.answer(op)),
            1_000_000,
        );
        match out.into_answer().map_err(|e| e.to_string())?.retval {
            Val::Long(v) => Ok(v),
            other => Err(format!("unexpected result {other}")),
        }
    }

    /// Run the *source* stack on `client_main(x)` against a network medium.
    ///
    /// # Panics
    /// Panics when the run does not complete (demo/test usage; library code
    /// goes through [`Scenario::try_run_source`]).
    pub fn run_source(&self, x: i64, net: &mut LoopbackNet) -> i64 {
        match self.try_run_source(x, net) {
            Ok(v) => v,
            Err(e) => panic!("run_source: {e}"),
        }
    }

    /// Check the Fig. 7 bottom line on one run: the source and target stacks
    /// are related at `C` (incoming) and `id_Net` (outgoing).
    ///
    /// # Errors
    /// Reports the violated simulation edge.
    pub fn check_fig7(
        &self,
        x: i64,
        transform: fn(i64) -> i64,
    ) -> Result<SimCheckReport, SimCheckError> {
        let source = self.source_stack();
        let target = self.target_stack();
        let ca = Ca::new(self.symtab.len() as u32);
        // The medium is shared state: in dual mode each side gets its own
        // copy (the checker verifies the replies are identical, which for
        // `id_Net` forces the two media to behave identically — they do,
        // being deterministic with the same seed).
        let mut net1 = LoopbackNet::new(transform);
        let mut net2 = LoopbackNet::new(transform);
        let mut env1 = |op: &NetOp| Some(net1.answer(op));
        let mut env2 = |op: &NetOp| Some(net2.answer(op));
        check_fwd_sim_env(
            &source,
            &target,
            &IdConv::<Net>::new(),
            &ca,
            &self.query(x),
            EnvMode::Dual(&mut env1, &mut env2),
            1_000_000,
        )
    }

    /// Check paper Eqn. (7): `σ_io ≤_{id↠C} σ'_io` on one transaction.
    ///
    /// # Errors
    /// Reports the violated simulation edge.
    pub fn check_eqn7(&self, frame: i64) -> Result<SimCheckReport, SimCheckError> {
        let src = IoAtC::new(self.symtab.clone());
        let tgt = IoAtA::new(self.symtab.clone());
        let ca = Ca::new(self.symtab.len() as u32);
        let q = CQuery {
            vf: self.symtab.func_ptr("nic_send").expect("primitive defined"),
            sig: crate::io::sig_send(),
            args: vec![Val::Long(frame)],
            mem: self.symtab.build_init_mem().expect("initial memory"),
        };
        let mut dev1 = |op: &crate::iface::IoOp| {
            Some(crate::iface::IoReply(match op {
                crate::iface::IoOp::Send(_) => 0,
                crate::iface::IoOp::Recv => 9,
            }))
        };
        let mut dev2 = |op: &crate::iface::IoOp| {
            Some(crate::iface::IoReply(match op {
                crate::iface::IoOp::Send(_) => 0,
                crate::iface::IoOp::Recv => 9,
            }))
        };
        check_fwd_sim_env(
            &src,
            &tgt,
            &IdConv::<crate::iface::Io>::new(),
            &ca,
            &q,
            EnvMode::Dual(&mut dev1, &mut dev2),
            10_000,
        )
    }
}

/// Convenience: the expected result of `client_main(x)` over a loopback
/// medium applying `transform`: `transform(2x) + 1`.
pub fn expected(x: i64, transform: fn(i64) -> i64) -> i64 {
    transform(2 * x) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::NetReply;
    use compcerto_core::lts::RunOutcome;

    fn bump(f: i64) -> i64 {
        f + 1000
    }

    #[test]
    fn source_stack_runs_end_to_end() {
        let sc = build().unwrap();
        let mut net = LoopbackNet::new(bump);
        assert_eq!(sc.run_source(21, &mut net), expected(21, bump));
    }

    #[test]
    fn fig7_simulation_holds() {
        let sc = build().unwrap();
        for x in [0, 5, -3, 40] {
            let report = sc.check_fig7(x, bump).expect("Fig. 7 holds");
            // ping = one send + one recv on the wire.
            assert_eq!(report.external_calls, 2, "x = {x}");
        }
    }

    #[test]
    fn eqn7_io_primitives_related() {
        let sc = build().unwrap();
        sc.check_eqn7(7).expect("Eqn. (7) holds");
    }

    #[test]
    fn nic_goes_wrong_on_protocol_violation() {
        // A medium that answers Poll to a Transmit breaks the NIC.
        let sc = build().unwrap();
        let stack = sc.source_stack();
        let out = run(
            &stack,
            &sc.query(1),
            &mut |_op: &NetOp| Some(NetReply::Delivered(None)),
            100_000,
        );
        assert!(matches!(out, RunOutcome::Wrong { .. }));
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::iface::IoOp;
    use compcerto_core::conv::SimConv;
    use compcerto_core::lts::{run_budgeted, RunBudget, RunOutcome};
    use std::time::Duration;

    fn describe<A: std::fmt::Debug>(out: RunOutcome<A>) -> String {
        match out {
            RunOutcome::Complete { answer, steps, .. } => format!("{answer:?} after {steps} steps"),
            other => format!("{:?}", other.into_answer().err()),
        }
    }

    fn steps_of<A>(out: RunOutcome<A>) -> u64 {
        match out {
            RunOutcome::Complete { steps, .. } => steps,
            other => panic!("expected completion, got {:?}", other.into_answer().err()),
        }
    }

    #[test]
    fn stacks_agree_across_chunk_policies() {
        // One step per batch (ring trace), whole-fuel batches (no trace) and
        // stride-aligned batches (deadline only) must give the same answer
        // in the same number of steps, through ∘ over ⊕ and ∘ over Asm.
        let sc = build().unwrap();
        let budgets = [
            RunBudget::with_fuel(1_000_000),
            RunBudget::with_fuel(1_000_000).no_trace(),
            RunBudget::with_fuel(1_000_000)
                .deadline(Duration::from_secs(3600))
                .no_trace(),
        ];
        let q = sc.query(17);
        let (_, qa) = Ca::new(sc.symtab.len() as u32)
            .transport_query(&q)
            .expect("query transports to Asm");
        let (source, target) = (sc.source_stack(), sc.target_stack());
        let mut seen = Vec::new();
        for b in &budgets {
            let mut net = LoopbackNet::new(|f| f + 1000);
            let s = describe(run_budgeted(&source, &q, &mut |op| Some(net.answer(op)), b));
            let mut net = LoopbackNet::new(|f| f + 1000);
            let t = describe(run_budgeted(
                &target,
                &qa,
                &mut |op| Some(net.answer(op)),
                b,
            ));
            seen.push((s, t));
        }
        assert!(
            seen[0].0.contains(" after ") && seen[0].1.contains(" after "),
            "{seen:#?}"
        );
        assert!(seen.iter().all(|st| *st == seen[0]), "{seen:#?}");
    }

    #[test]
    fn seqcomp_rules_cost_one_step_each() {
        // Activating the lower component costs one step, and its answer
        // resumes the upper one in one step, as an environment's answer
        // would: the stack takes the upper component's own run, with the
        // lower one run as its environment, plus one step per activation.
        let sc = build().unwrap();
        let stack = sc.source_stack();
        let budget = RunBudget::with_fuel(1_000_000).no_trace();
        let q = sc.query(17);
        let mut net = LoopbackNet::new(|f| f + 1000);
        let whole = steps_of(run_budgeted(
            &stack,
            &q,
            &mut |op| Some(net.answer(op)),
            &budget,
        ));
        let mut net = LoopbackNet::new(|f| f + 1000);
        let (mut calls, mut lower_steps) = (0, 0);
        let upper = steps_of(run_budgeted(
            stack.upper(),
            &q,
            &mut |io: &IoOp| {
                calls += 1;
                let lower =
                    run_budgeted(stack.lower(), io, &mut |op| Some(net.answer(op)), &budget);
                match lower {
                    RunOutcome::Complete { answer, steps, .. } => {
                        lower_steps += steps;
                        Some(answer)
                    }
                    _ => None,
                }
            },
            &budget,
        ));
        assert_eq!(calls, 2, "one send and one receive");
        assert_eq!(whole, upper + calls + lower_steps);
    }

    #[test]
    fn driver_surfaces_device_errors() {
        // A medium that rejects transmission: σ_NIC goes wrong (protocol
        // violation), because `Sent` is the only legal reply to Transmit.
        let sc = build().unwrap();
        let stack = sc.source_stack();
        let out = run(
            &stack,
            &sc.query(5),
            &mut |op: &NetOp| match op {
                NetOp::Transmit(_) => Some(crate::iface::NetReply::Delivered(None)),
                NetOp::Poll => Some(crate::iface::NetReply::Delivered(None)),
            },
            100_000,
        );
        assert!(matches!(out, compcerto_core::lts::RunOutcome::Wrong { .. }));
    }

    #[test]
    fn empty_network_returns_sentinel() {
        // A medium that swallows frames: recv yields -1, so client_main
        // returns 0.
        let sc = build().unwrap();
        let stack = sc.source_stack();
        let out = run(
            &stack,
            &sc.query(5),
            &mut |op: &NetOp| match op {
                NetOp::Transmit(_) => Some(crate::iface::NetReply::Sent),
                NetOp::Poll => Some(crate::iface::NetReply::Delivered(None)),
            },
            100_000,
        );
        assert_eq!(out.expect_complete().retval, Val::Long(0)); // -1 + 1
    }

    #[test]
    fn repeated_pings_reuse_the_stack() {
        // Several independent activations against one evolving medium.
        let sc = build().unwrap();
        let mut net = LoopbackNet::new(|f| f + 10);
        for x in 1..5 {
            assert_eq!(sc.run_source(x, &mut net), 2 * x + 10 + 1);
        }
    }

    #[test]
    fn fig7_detects_sabotaged_driver() {
        // Corrupt the compiled driver: the Fig. 7 check must fail.
        let mut sc = build().unwrap();
        let driver_asm = sc
            .units
            .iter_mut()
            .flat_map(|u| u.asm.functions.iter_mut())
            .find(|f| f.name == "ping")
            .expect("driver function");
        // Double the payload register at entry (after the prologue).
        driver_asm.code.insert(
            2,
            backend::AsmInst::BinopImm(
                minor::MBinop::Add64,
                compcerto_core::regs::Mreg(0),
                compcerto_core::regs::Mreg(0),
                Val::Long(1),
            ),
        );
        let err = sc.check_fig7(5, |f| f).unwrap_err();
        // The corruption shows up at the wire (different frame transmitted)
        // or at the final answer.
        let msg = err.to_string();
        assert!(
            msg.contains("not related") || msg.contains("mismatch"),
            "unexpected error: {msg}"
        );
    }
}
