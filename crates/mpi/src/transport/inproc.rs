//! The in-process backend: ranks are OS threads in one address space,
//! one FIFO channel per `(src, dst)` pair, and a derived communicator
//! gets a genuinely private channel matrix by shipping fresh sender
//! halves to its peers. This is the original `mimir-mpi` data path,
//! now one implementation of [`Transport`].

use std::sync::mpsc::{self, Receiver, Sender};

use mimir_obs::CommCounters;

use super::{Derivation, DeriveState, Endpoint, EndpointInner, Transport};
use crate::error::CommError;
use crate::msg::Msg;

/// Channel-matrix transport: `txs[dst]` sends to `dst`, `rxs[src]`
/// receives from `src`, both indexed in the owning communicator's rank
/// space.
pub(crate) struct InprocTransport {
    me: usize,
    txs: Vec<Sender<Msg>>,
    rxs: Vec<Receiver<Msg>>,
}

impl InprocTransport {
    pub(crate) fn new(me: usize, txs: Vec<Sender<Msg>>, rxs: Vec<Receiver<Msg>>) -> Self {
        debug_assert_eq!(txs.len(), rxs.len());
        Self { me, txs, rxs }
    }

    /// Builds the full channel matrix for a fresh world of `n` ranks,
    /// returning one transport per rank.
    pub(crate) fn make_world(n: usize) -> Vec<InprocTransport> {
        let mut txs: Vec<Vec<Sender<Msg>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        let mut rxs: Vec<Vec<Receiver<Msg>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        for tx_row in txs.iter_mut() {
            for rx_row in rxs.iter_mut() {
                let (t, r) = mpsc::channel::<Msg>();
                tx_row.push(t);
                rx_row.push(r);
            }
        }
        txs.into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(me, (tx_row, rx_row))| InprocTransport::new(me, tx_row, rx_row))
            .collect()
    }
}

/// Derivation state: receiver halves created locally at `begin_derive`,
/// sender halves filled in (self at begin, peers via `accept_endpoint`).
#[derive(Debug)]
pub(crate) struct InprocDerive {
    txs: Vec<Option<Sender<Msg>>>,
    rxs: Vec<Receiver<Msg>>,
}

impl Transport for InprocTransport {
    fn send(&mut self, dst: usize, msg: Msg, _stats: &mut CommCounters) -> Result<(), CommError> {
        self.txs[dst]
            .send(msg)
            .map_err(|_| CommError::RankDisconnected {
                observer: self.me,
                peer: dst,
            })
    }

    fn recv(&mut self, src: usize, _stats: &mut CommCounters) -> Result<Msg, CommError> {
        self.rxs[src]
            .recv()
            .map_err(|_| CommError::RankDisconnected {
                observer: self.me,
                peer: src,
            })
    }

    fn begin_derive(&mut self, _seq: u64) -> (Derivation, Vec<Option<Endpoint>>) {
        // One fresh channel per source: keep every receiving half, hand
        // each sending half to the rank that will use it.
        let n = self.txs.len();
        let mut txs: Vec<Option<Sender<Msg>>> = (0..n).map(|_| None).collect();
        let mut rxs = Vec::with_capacity(n);
        let mut endpoints = Vec::with_capacity(n);
        for (rank, tx) in txs.iter_mut().enumerate() {
            let (t, r) = mpsc::channel::<Msg>();
            rxs.push(r);
            if rank == self.me {
                *tx = Some(t);
                endpoints.push(None);
            } else {
                endpoints.push(Some(Endpoint(EndpointInner::Chan(t))));
            }
        }
        (
            Derivation(DeriveState::Inproc(InprocDerive { txs, rxs })),
            endpoints,
        )
    }

    fn accept_endpoint(&mut self, d: &mut Derivation, from: usize, ep: Endpoint) {
        let DeriveState::Inproc(state) = &mut d.0 else {
            unreachable!("inproc transport handed a foreign derivation");
        };
        let EndpointInner::Chan(sender) = ep.0 else {
            panic!(
                "collective-consistency violation: rank {} received a \
                 socket-namespace endpoint on the in-process backend",
                self.me
            );
        };
        debug_assert_ne!(from, self.me);
        state.txs[from] = Some(sender);
    }

    fn finish_derive(&mut self, d: Derivation) -> Box<dyn Transport> {
        let DeriveState::Inproc(state) = d.0 else {
            unreachable!("inproc transport handed a foreign derivation");
        };
        let txs: Vec<Sender<Msg>> = state
            .txs
            .into_iter()
            .map(|t| t.expect("endpoint exchanged for every peer"))
            .collect();
        Box::new(InprocTransport::new(self.me, txs, state.rxs))
    }
}
