//! Deterministic fault injection at the [`Transport`] seam: a
//! [`FaultyTransport`] drops, or corrupts the payload of, the `nth`
//! message its endpoint sends under one tag — a counter, never the
//! clock, so a fault strikes the same message on every run.  It sits
//! *outside* any instrumentation wrapper, so a dropped message is never
//! counted as sent and per-tag `sent == recv` survives fault runs.

use std::time::Duration;

use crate::{CommError, Envelope, Rank, Tag, Transport};

/// What a [`FaultyTransport`] does to the message it strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Swallow the message; the send reports success.
    Drop,
    /// Deliver the payload without its last real and with NaN for its
    /// first — tripping every wire decoder's length and finiteness checks.
    Corrupt,
}

/// A [`Transport`] wrapper whose `send` applies at most one scripted
/// fault; probes and receives pass straight through.
#[derive(Debug)]
pub struct FaultyTransport<T: Transport> {
    inner: T,
    /// `(action, tag, nth)`: `action` strikes the `nth` (0-based)
    /// message sent under `tag`.  `None` is a pure passthrough.
    strike: Option<(FaultAction, Tag, u64)>,
    /// Messages sent so far under the struck tag.
    seen: u64,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wrap `inner` under `strike` (see the field of that name).
    pub fn new(inner: T, strike: Option<(FaultAction, Tag, u64)>) -> Self {
        Self {
            inner,
            strike,
            seen: 0,
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn rank(&self) -> Rank {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&mut self, dest: Rank, tag: Tag, data: &[f64]) -> Result<(), CommError> {
        let action = match self.strike {
            Some((action, struck, nth)) if struck == tag => {
                self.seen += 1;
                (self.seen - 1 == nth).then_some(action)
            }
            _ => None,
        };
        match action {
            None => self.inner.send(dest, tag, data),
            Some(FaultAction::Drop) => Ok(()),
            Some(FaultAction::Corrupt) => {
                let mut bad = data.to_vec();
                bad.pop();
                if let Some(first) = bad.first_mut() {
                    *first = f64::NAN;
                }
                self.inner.send(dest, tag, &bad)
            }
        }
    }

    fn probe(&mut self, source: Option<Rank>, tag: Option<Tag>) -> Result<Envelope, CommError> {
        self.inner.probe(source, tag)
    }

    fn probe_timeout(
        &mut self,
        source: Option<Rank>,
        tag: Option<Tag>,
        timeout: Duration,
    ) -> Result<Option<Envelope>, CommError> {
        self.inner.probe_timeout(source, tag, timeout)
    }

    fn recv(&mut self, source: Rank, tag: Tag, buf: &mut Vec<f64>) -> Result<Envelope, CommError> {
        self.inner.recv(source, tag, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelEndpoint, ChannelWorld};
    use crate::World;

    fn pair() -> (ChannelEndpoint, ChannelEndpoint) {
        let mut eps = ChannelWorld::endpoints(2).unwrap();
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        (a, b)
    }

    #[test]
    fn nth_drop_swallows_exactly_one_message() {
        let (a, mut b) = pair();
        let mut a = FaultyTransport::new(a, Some((FaultAction::Drop, 5, 1)));
        for i in 0..3 {
            a.send(1, 5, &[i as f64]).unwrap();
        }
        a.send(1, 4, &[9.0]).unwrap(); // other tag: untouched
        let mut buf = Vec::new();
        b.recv(0, 5, &mut buf).unwrap();
        assert_eq!(buf, vec![0.0]);
        b.recv(0, 5, &mut buf).unwrap();
        assert_eq!(buf, vec![2.0], "message #1 must have been dropped");
        b.recv(0, 4, &mut buf).unwrap();
        assert_eq!(buf, vec![9.0]);
    }

    #[test]
    fn corrupt_truncates_and_poisons_payload() {
        let (a, mut b) = pair();
        let mut a = FaultyTransport::new(a, Some((FaultAction::Corrupt, 5, 0)));
        a.send(1, 5, &[1.0, 2.0, 3.0]).unwrap();
        a.send(1, 5, &[4.0, 5.0]).unwrap(); // fault spent: untouched
        let mut buf = Vec::new();
        b.recv(0, 5, &mut buf).unwrap();
        assert_eq!(buf.len(), 2, "one element removed");
        assert!(buf[0].is_nan(), "first element poisoned");
        assert_eq!(buf[1], 2.0);
        b.recv(0, 5, &mut buf).unwrap();
        assert_eq!(buf, vec![4.0, 5.0]);
    }

    #[test]
    fn passthrough_spec_is_transparent() {
        let (a, mut b) = pair();
        let mut a = FaultyTransport::new(a, None);
        a.send(1, 7, &[1.0, 2.0]).unwrap();
        let mut buf = Vec::new();
        let env = b.recv(0, 7, &mut buf).unwrap();
        assert_eq!(env.len, 2);
        assert_eq!(buf, vec![1.0, 2.0]);
        assert_eq!(a.rank(), 0);
        assert_eq!(a.size(), 2);
    }
}
