//! The NIC device model `σ_NIC : Net ↠ IO` (paper Example 3.10).
//!
//! Each IO transaction runs the device's internal register choreography:
//! `Send` latches the TX register and pulses CTRL, which puts the frame on
//! the medium (an outgoing `Net` question); `Recv` polls the medium and
//! reads the RX register.

use compcerto_core::lts::{Batch, Event, Lts, Stuck};

use crate::iface::{Io, IoOp, IoReply, Net, NetOp, NetReply};

/// The NIC model: an open LTS over `Net ↠ IO`.
#[derive(Debug, Clone, Default)]
pub struct NicModel;

/// Phases of a device transaction.
#[derive(Debug, Clone)]
pub enum NicState {
    /// `Send`: the frame has been latched into the TX register.
    TxLatched(i64),
    /// `Send`: CTRL pulsed; waiting for the medium to accept the frame.
    TxWaiting(i64),
    /// `Recv`: waiting for the medium's poll response.
    RxWaiting,
    /// Transaction complete with a result in the RX/status register.
    Done(i64),
}

impl Lts for NicModel {
    type I = Io;
    type O = Net;
    type State = NicState;

    fn name(&self) -> String {
        "σ_NIC".into()
    }

    fn accepts(&self, _q: &IoOp) -> bool {
        true
    }

    fn initial(&self, q: &IoOp) -> Result<NicState, Stuck> {
        Ok(match q {
            IoOp::Send(f) => NicState::TxLatched(*f),
            IoOp::Recv => NicState::RxWaiting,
        })
    }

    fn step_batch(
        &self,
        s: &mut NicState,
        _fuel_left: u64,
        _events: &mut Vec<Event>,
    ) -> Batch<NetOp, IoReply> {
        match *s {
            // Pulse CTRL: the frame goes on the wire.
            NicState::TxLatched(f) => {
                *s = NicState::TxWaiting(f);
                Batch::Ran(1)
            }
            NicState::TxWaiting(f) => Batch::External(0, NetOp::Transmit(f)),
            NicState::RxWaiting => Batch::External(0, NetOp::Poll),
            NicState::Done(v) => Batch::Final(0, IoReply(v)),
        }
    }

    fn resume(&self, s: &mut NicState, a: NetReply) -> Result<(), Stuck> {
        *s = match (&*s, a) {
            (NicState::TxWaiting(_), NetReply::Sent) => NicState::Done(0),
            (NicState::RxWaiting, NetReply::Delivered(f)) => NicState::Done(f.unwrap_or(-1)),
            (s, a) => {
                return Err(Stuck::new(format!(
                    "NIC: unexpected medium reply {a:?} in state {s:?}"
                )))
            }
        };
        Ok(())
    }
}

/// A simple network medium for tests and demos: a loopback that answers
/// `Poll` with the most recently transmitted frame, transformed by `f`.
#[derive(Debug, Clone)]
pub struct LoopbackNet {
    last: Option<i64>,
    transform: fn(i64) -> i64,
}

impl LoopbackNet {
    /// A loopback applying `transform` to echoed frames.
    pub fn new(transform: fn(i64) -> i64) -> LoopbackNet {
        LoopbackNet {
            last: None,
            transform,
        }
    }

    /// Answer a medium operation.
    pub fn answer(&mut self, op: &NetOp) -> NetReply {
        match op {
            NetOp::Transmit(f) => {
                self.last = Some((self.transform)(*f));
                NetReply::Sent
            }
            NetOp::Poll => NetReply::Delivered(self.last.take()),
        }
    }
}
