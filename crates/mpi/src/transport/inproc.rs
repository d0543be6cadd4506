//! The in-process backend: ranks are OS threads in one address space,
//! one FIFO channel per `(src, dst)` pair. This is the original
//! `mimir-mpi` data path, now one implementation of [`Transport`].

use std::sync::mpsc::{self, Receiver, Sender};

use mimir_obs::CommCounters;

use super::Transport;
use crate::error::CommError;
use crate::msg::Msg;

/// Channel-matrix transport: `txs[dst]` sends to `dst`, `rxs[src]`
/// receives from `src`, both indexed by world rank.
pub(crate) struct InprocTransport {
    me: usize,
    txs: Vec<Sender<Msg>>,
    rxs: Vec<Receiver<Msg>>,
}

impl InprocTransport {
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
            .map(|(me, (txs, rxs))| InprocTransport { me, txs, rxs })
            .collect()
    }
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
}
