//! In-process transport: one mailbox per rank.
//!
//! One [`ChannelWorld`] builds `n` [`ChannelEndpoint`]s that can be moved
//! to worker threads.  Each endpoint owns its inbox and a producer into
//! every peer's; probes scan the inbox in place, preserving per-pair
//! FIFO order exactly as the 1995 libraries did.  A dropped endpoint
//! closes its inbox, so a send to a rank that is gone is
//! [`CommError::Disconnected`].

use crate::mailbox::{self, Mailbox, Producer};
use crate::{CommError, Envelope, Message, Rank, Tag, Transport, World};
use std::sync::Arc;
use std::time::Duration;

/// Factory for a fixed-size in-process world.
pub struct ChannelWorld;

impl ChannelWorld {
    /// Create `n` endpoints; index `i` in the returned vector is rank `i`.
    /// `ChannelWorld` is a stateless factory, so this deliberately returns
    /// the endpoint set rather than `Self`; prefer [`World::endpoints`].
    #[allow(clippy::new_ret_no_self)]
    pub fn new(n: usize) -> Vec<ChannelEndpoint> {
        mailbox::world(n)
            .into_iter()
            .enumerate()
            .map(|(rank, (inbox, peers))| ChannelEndpoint { rank, inbox, peers })
            .collect()
    }
}

impl World for ChannelWorld {
    type Endpoint = ChannelEndpoint;

    const NAME: &'static str = "channel";

    fn endpoints(n_ranks: usize) -> Result<Vec<ChannelEndpoint>, CommError> {
        if n_ranks == 0 {
            return Err(CommError::Unsupported("world needs at least one rank"));
        }
        Ok(ChannelWorld::new(n_ranks))
    }
}

/// One rank of an in-process world.
pub struct ChannelEndpoint {
    rank: Rank,
    inbox: Arc<Mailbox>,
    peers: Vec<Producer>,
}

impl Drop for ChannelEndpoint {
    fn drop(&mut self) {
        self.inbox.close();
    }
}

impl Transport for ChannelEndpoint {
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

    #[test]
    fn world_has_correct_shape() {
        let eps = ChannelWorld::new(4);
        assert_eq!(eps.len(), 4);
        for (i, ep) in eps.iter().enumerate() {
            assert_eq!(ep.rank(), i);
            assert_eq!(ep.size(), 4);
        }
    }

    #[test]
    fn ping_pong_between_threads() {
        let mut eps = ChannelWorld::new(2);
        let mut worker = eps.pop().unwrap();
        let mut master = eps.pop().unwrap();
        let h = thread::spawn(move || {
            let mut buf = Vec::new();
            worker.recv(0, 7, &mut buf).unwrap();
            let doubled: Vec<f64> = buf.iter().map(|x| 2.0 * x).collect();
            worker.send(0, 8, &doubled).unwrap();
        });
        master.send(1, 7, &[1.0, 2.0, 3.0]).unwrap();
        let mut buf = Vec::new();
        let env = master.recv(1, 8, &mut buf).unwrap();
        assert_eq!(env.source, 1);
        assert_eq!(buf, vec![2.0, 4.0, 6.0]);
        h.join().unwrap();
    }

    #[test]
    fn probe_any_returns_metadata_without_consuming() {
        let mut eps = ChannelWorld::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        b.send(0, 3, &[9.0, 9.0]).unwrap();
        let env = a.probe(None, None).unwrap();
        assert_eq!(
            env,
            Envelope {
                source: 1,
                tag: 3,
                len: 2
            }
        );
        // probing again still sees it
        let env2 = a.probe(Some(1), Some(3)).unwrap();
        assert_eq!(env, env2);
        // and recv gets the data
        let mut buf = Vec::new();
        a.recv(1, 3, &mut buf).unwrap();
        assert_eq!(buf, vec![9.0, 9.0]);
    }

    #[test]
    fn probe_timeout_expires_then_matches() {
        let mut eps = ChannelWorld::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        // nothing pending: a short bounded probe returns None
        let none = a
            .probe_timeout(None, None, Duration::from_millis(10))
            .unwrap();
        assert!(none.is_none());
        b.send(0, 3, &[1.0]).unwrap();
        let env = a
            .probe_timeout(None, None, Duration::from_millis(200))
            .unwrap()
            .expect("message is pending");
        assert_eq!(env.tag, 3);
        // mismatched filter still times out without consuming
        let miss = a
            .probe_timeout(Some(1), Some(9), Duration::from_millis(10))
            .unwrap();
        assert!(miss.is_none());
        let mut buf = Vec::new();
        a.recv(1, 3, &mut buf).unwrap();
        assert_eq!(buf, vec![1.0]);
    }

    #[test]
    fn out_of_order_tags_are_reordered() {
        let mut eps = ChannelWorld::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        b.send(0, 1, &[1.0]).unwrap();
        b.send(0, 2, &[2.0]).unwrap();
        b.send(0, 1, &[3.0]).unwrap();
        let mut buf = Vec::new();
        // pull tag 2 first even though a tag-1 message is ahead of it
        a.recv(1, 2, &mut buf).unwrap();
        assert_eq!(buf, vec![2.0]);
        // tag-1 messages still arrive in FIFO order
        a.recv(1, 1, &mut buf).unwrap();
        assert_eq!(buf, vec![1.0]);
        a.recv(1, 1, &mut buf).unwrap();
        assert_eq!(buf, vec![3.0]);
    }

    #[test]
    fn fifo_order_per_pair() {
        let mut eps = ChannelWorld::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for i in 0..100 {
            b.send(0, 1, &[i as f64]).unwrap();
        }
        let mut buf = Vec::new();
        for i in 0..100 {
            a.recv(1, 1, &mut buf).unwrap();
            assert_eq!(buf[0], i as f64);
        }
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let mut eps = ChannelWorld::new(4);
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
        master.broadcast(1, &[5.5]).unwrap();
        for h in handles {
            assert_eq!(h.join().unwrap(), 5.5);
        }
    }

    #[test]
    fn send_to_missing_rank_errors() {
        let mut eps = ChannelWorld::new(1);
        let mut only = eps.pop().unwrap();
        assert_eq!(
            only.send(3, 0, &[1.0]).unwrap_err(),
            CommError::NoSuchRank(3)
        );
    }

    #[test]
    fn empty_world_is_rejected() {
        assert!(<ChannelWorld as World>::endpoints(0).is_err());
    }

    #[test]
    fn send_to_a_dropped_endpoint_is_disconnected() {
        let mut eps = ChannelWorld::new(2);
        let mut master = eps.remove(0);
        drop(eps); // rank 1 is gone
        assert_eq!(
            master.send(1, 3, &[1.0]).unwrap_err(),
            CommError::Disconnected
        );
    }

    #[test]
    fn master_probe_after_every_worker_dropped_times_out_quietly() {
        // the master holds a producer into its own inbox, so a dead
        // worker is never a hang-up: the watch and the heartbeat clock
        // find it, and a bounded probe simply expires
        let mut eps = ChannelWorld::new(3);
        let mut master = eps.remove(0);
        drop(eps);
        let got = master.probe_timeout(None, None, Duration::from_millis(10));
        assert_eq!(got, Ok(None));
    }
}
