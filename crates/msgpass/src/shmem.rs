//! Shared-memory transport: one mutex/condvar mailbox per rank.
//!
//! The fourth transport, completing the paper's four-library portability
//! story (PVM, MPI, MPL, PVMe → channel, TCP, loopback, shmem).  All
//! pending messages live in one shared mailbox per rank, so a probe
//! inspects the entire pending set without draining anything — closest
//! in spirit to MPL's behaviour on the SP2's shared switch adapters.
//! Unlike the channel transport a mailbox outlives its rank: a send to a
//! rank that is gone still succeeds, and nothing ever reports the loss.

use crate::mailbox::{self, Mailbox, Producer};
use crate::{CommError, Envelope, Message, Rank, Tag, Transport, World};
use std::sync::Arc;
use std::time::Duration;

/// Factory for a fixed-size shared-memory world.
pub struct ShmemWorld;

impl ShmemWorld {
    /// Create `n` endpoints; index `i` is rank `i`.
    /// `ShmemWorld` is a stateless factory, so this deliberately returns
    /// the endpoint set rather than `Self`; prefer [`World::endpoints`].
    #[allow(clippy::new_ret_no_self)]
    pub fn new(n: usize) -> Vec<ShmemEndpoint> {
        mailbox::world(n)
            .into_iter()
            .enumerate()
            .map(|(rank, (inbox, peers))| ShmemEndpoint { rank, inbox, peers })
            .collect()
    }
}

impl World for ShmemWorld {
    type Endpoint = ShmemEndpoint;

    const NAME: &'static str = "shmem";

    fn endpoints(n_ranks: usize) -> Result<Vec<ShmemEndpoint>, CommError> {
        if n_ranks == 0 {
            return Err(CommError::Unsupported("world needs at least one rank"));
        }
        Ok(ShmemWorld::new(n_ranks))
    }
}

/// One rank of a shared-memory world.
pub struct ShmemEndpoint {
    rank: Rank,
    inbox: Arc<Mailbox>,
    peers: Vec<Producer>,
}

impl Transport for ShmemEndpoint {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.peers.len()
    }

    fn send(&mut self, dest: Rank, tag: Tag, data: &[f64]) -> Result<(), CommError> {
        let peer = self.peers.get(dest).ok_or(CommError::NoSuchRank(dest))?;
        peer.push(Message {
            source: self.rank,
            tag,
            data: data.to_vec(),
        })
    }

    fn probe(&mut self, source: Option<Rank>, tag: Option<Tag>) -> Result<Envelope, CommError> {
        self.inbox.probe(source, tag)
    }

    fn probe_timeout(
        &mut self,
        source: Option<Rank>,
        tag: Option<Tag>,
        timeout: Duration,
    ) -> Result<Option<Envelope>, CommError> {
        self.inbox.probe_timeout(source, tag, timeout)
    }

    fn recv(&mut self, source: Rank, tag: Tag, buf: &mut Vec<f64>) -> Result<Envelope, CommError> {
        self.inbox.recv(source, tag, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Instant;

    #[test]
    fn ping_pong() {
        let mut eps = ShmemWorld::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let h = thread::spawn(move || {
            let mut buf = Vec::new();
            b.recv(0, 1, &mut buf).unwrap();
            b.send(0, 2, &[buf[0] + 1.0]).unwrap();
        });
        a.send(1, 1, &[41.0]).unwrap();
        let mut buf = Vec::new();
        a.recv(1, 2, &mut buf).unwrap();
        assert_eq!(buf, vec![42.0]);
        h.join().unwrap();
    }

    #[test]
    fn probe_does_not_consume() {
        let mut eps = ShmemWorld::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        b.send(0, 9, &[1.0, 2.0, 3.0]).unwrap();
        let env = a.probe(None, None).unwrap();
        assert_eq!(
            env,
            Envelope {
                source: 1,
                tag: 9,
                len: 3
            }
        );
        let env2 = a.probe(Some(1), Some(9)).unwrap();
        assert_eq!(env, env2);
        let mut buf = Vec::new();
        a.recv(1, 9, &mut buf).unwrap();
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn selective_receive_out_of_order() {
        let mut eps = ShmemWorld::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        b.send(0, 1, &[1.0]).unwrap();
        b.send(0, 2, &[2.0]).unwrap();
        let mut buf = Vec::new();
        a.recv(1, 2, &mut buf).unwrap();
        assert_eq!(buf, vec![2.0]);
        a.recv(1, 1, &mut buf).unwrap();
        assert_eq!(buf, vec![1.0]);
    }

    #[test]
    fn blocking_probe_wakes_on_send() {
        let mut eps = ShmemWorld::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let h = thread::spawn(move || {
            // a blocks in probe until b sends
            let env = a.probe(None, None).unwrap();
            env.tag
        });
        thread::sleep(std::time::Duration::from_millis(30));
        b.send(0, 7, &[0.0]).unwrap();
        assert_eq!(h.join().unwrap(), 7);
    }

    #[test]
    fn bounded_probe_times_out_and_wakes() {
        let mut eps = ShmemWorld::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let t0 = Instant::now();
        let none = a
            .probe_timeout(None, None, Duration::from_millis(20))
            .unwrap();
        assert!(none.is_none());
        assert!(t0.elapsed() >= Duration::from_millis(15));
        let h = thread::spawn(move || {
            a.probe_timeout(None, None, Duration::from_secs(5))
                .unwrap()
                .map(|e| e.tag)
        });
        thread::sleep(Duration::from_millis(20));
        b.send(0, 4, &[0.0]).unwrap();
        assert_eq!(h.join().unwrap(), Some(4));
    }

    #[test]
    fn broadcast_from_master() {
        let mut eps = ShmemWorld::new(3);
        let handles: Vec<_> = eps
            .drain(1..)
            .map(|mut ep| {
                thread::spawn(move || {
                    let mut buf = Vec::new();
                    ep.recv(0, 1, &mut buf).unwrap();
                    buf[0]
                })
            })
            .collect();
        let mut master = eps.pop().unwrap();
        master.broadcast(1, &[3.5]).unwrap();
        for h in handles {
            assert_eq!(h.join().unwrap(), 3.5);
        }
    }

    #[test]
    fn send_to_a_dropped_endpoint_still_succeeds() {
        let mut eps = ShmemWorld::new(2);
        let mut master = eps.remove(0);
        drop(eps); // rank 1 is gone; its mailbox is not
        assert_eq!(master.send(1, 3, &[1.0]), Ok(()));
    }
}
