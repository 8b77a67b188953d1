//! Message-passing substrate: the paper's wrapper-routine layer.
//!
//! PLINGER's portability rests on a thin set of wrapper routines —
//! `initpass`, `endpass`, `mybcastreal`, `mysendreal`, `mycheckany`,
//! `mycheckone`, `mychecktid`, `myrecvreal` — re-implemented over each
//! message-passing library (PVM, MPI, MPL, PVMe).  This crate reproduces
//! exactly that architecture in Rust: the [`Transport`] trait captures
//! the primitives (tagged send, blocking probe by source and/or tag,
//! receive), the [`wrappers`] module spells out the paper's Fortran
//! routine names one-for-one, and two interchangeable transports play
//! the roles of the 1995 libraries:
//!
//! * [`channel::ChannelWorld`] — in-process mailboxes that refuse sends
//!   once their rank is gone (the "PVM on a shared-memory node"
//!   analogue),
//! * [`tcp::TcpWorld`] — localhost TCP sockets between OS processes
//!   (the "MPI across nodes" analogue).
//!
//! MPL and PVMe need no transport of their own: what the paper carried
//! over to them is the wrapper layer, and that layer is exercised in
//! full by one in-process and one cross-process transport.  The two
//! share one receive side, a private mutex/condvar mailbox per rank
//! scanned in place; they differ only in how a message gets there and
//! in what a lost rank looks like.
//!
//! The [`World`] trait is the single entry point for building all the
//! endpoints of a run at once: `W::endpoints(n)` returns one
//! [`Transport`] per rank, with rank 0 conventionally the master.  Farm
//! code written against `World` + `Transport` runs unchanged over every
//! transport — the paper's claim that "the choice of which library to
//! use … is simply a matter of which is most convenient to the user."

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod channel;
pub mod codec;
pub mod fault;
pub mod instrument;
mod mailbox;
pub mod tcp;
pub mod wrappers;

use std::fmt;
use std::time::Duration;

/// Message tag (the paper's `msgtype`).
pub type Tag = u32;

/// Process rank (the paper's `tid`); the master is rank 0.
pub type Rank = usize;

/// Metadata of a pending message, as returned by probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Sending rank.
    pub source: Rank,
    /// Message tag.
    pub tag: Tag,
    /// Payload length in `f64` words.
    pub len: usize,
}

/// Communication errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// Peer rank does not exist.
    NoSuchRank(Rank),
    /// The other side hung up.
    Disconnected,
    /// The transport does not support this communication pattern.
    Unsupported(&'static str),
    /// Malformed frame on the wire.
    Protocol(String),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::NoSuchRank(r) => write!(f, "no such rank: {r}"),
            CommError::Disconnected => write!(f, "peer disconnected"),
            CommError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            CommError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for CommError {}

/// A tagged, typed message-passing endpoint.
///
/// Semantics follow the 1995 libraries the paper targeted:
/// * messages between a pair of ranks are delivered in FIFO order (the
///   MPL constraint the paper notes "does not create difficulties");
/// * `probe` blocks until a matching message is pending and returns its
///   envelope without consuming it;
/// * `recv` blocks until a message with the exact `(source, tag)` is
///   pending and consumes it.
pub trait Transport: Send {
    /// This endpoint's rank (`mytid`).
    fn rank(&self) -> Rank;

    /// Number of ranks in the world (`nproc`).
    fn size(&self) -> usize;

    /// Send `data` to `dest` with tag `tag`.
    fn send(&mut self, dest: Rank, tag: Tag, data: &[f64]) -> Result<(), CommError>;

    /// Block until a message matching the filters is pending; `None`
    /// matches anything (the paper's `MPI_ANY_SOURCE`/`MPI_ANY_TAG`).
    fn probe(&mut self, source: Option<Rank>, tag: Option<Tag>) -> Result<Envelope, CommError>;

    /// Bounded probe: like [`Transport::probe`], but give up after
    /// `timeout` and return `Ok(None)` when no matching message arrived.
    ///
    /// This is the primitive behind liveness-aware event loops: a master
    /// that polls with a short timeout can interleave peer-health checks
    /// with message handling and so never deadlocks on a worker that
    /// died without saying goodbye (every thread endpoint holds a
    /// producer into its own mailbox, so a vanished worker is otherwise
    /// indistinguishable from a slow one).
    fn probe_timeout(
        &mut self,
        source: Option<Rank>,
        tag: Option<Tag>,
        timeout: Duration,
    ) -> Result<Option<Envelope>, CommError>;

    /// Receive the first pending message from `source` with tag `tag`
    /// into `buf` (resized to fit).
    fn recv(&mut self, source: Rank, tag: Tag, buf: &mut Vec<f64>) -> Result<Envelope, CommError>;

    /// Broadcast from this rank to every other rank (the paper's
    /// `mybcastreal` loops point-to-point sends, and so does this
    /// default).
    ///
    /// # Partial-failure semantics
    ///
    /// The loop stops at the **first** failing send: ranks earlier in
    /// rank order have already received the message, ranks after the
    /// failing one have not, and nothing is rolled back.  A broadcast
    /// error therefore leaves the world in a mixed state in which some
    /// peers hold the payload and others never will.  Callers that use
    /// the broadcast to open a session (as the farm's tag-1 spec
    /// broadcast does) must treat any `Err` as fatal for the whole
    /// session and tear everything down — the farm maps it to
    /// `FarmError::Setup` — rather than proceed with the subset that
    /// was reached.
    fn broadcast(&mut self, tag: Tag, data: &[f64]) -> Result<(), CommError> {
        let me = self.rank();
        for dest in 0..self.size() {
            if dest != me {
                self.send(dest, tag, data)?;
            }
        }
        Ok(())
    }

    /// Bytes that `len` `f64` words occupy on the wire (payload only).
    fn payload_bytes(len: usize) -> usize
    where
        Self: Sized,
    {
        len * 8
    }
}

/// A factory for the complete set of endpoints of one run.
///
/// `endpoints(n)` builds an `n`-rank world and returns its endpoints in
/// rank order (index `i` is rank `i`; rank 0 is the master by the
/// farm's convention).  Each endpoint is `Send + 'static` so it can be
/// moved to a worker thread.  This is the single seam through which the
/// farm selects a transport: `Farm::<ChannelWorld>` and
/// `Farm::<TcpWorld>` are the same code over different message-passing
/// substrates, exactly as PLINGER was the same Fortran over PVM, MPI,
/// MPL, and PVMe.
pub trait World {
    /// The endpoint type of this transport.
    type Endpoint: Transport + Send + 'static;

    /// Human-readable transport name (for logs and error messages).
    const NAME: &'static str;

    /// Build an `n`-rank world; index `i` of the result is rank `i`.
    fn endpoints(n_ranks: usize) -> Result<Vec<Self::Endpoint>, CommError>;
}

/// An owned message as stored in reorder queues.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending rank.
    pub source: Rank,
    /// Tag.
    pub tag: Tag,
    /// Payload.
    pub data: Vec<f64>,
}

impl Message {
    /// Envelope view of this message.
    pub fn envelope(&self) -> Envelope {
        Envelope {
            source: self.source,
            tag: self.tag,
            len: self.data.len(),
        }
    }

    /// True when the message matches the probe filters.
    pub fn matches(&self, source: Option<Rank>, tag: Option<Tag>) -> bool {
        source.map(|s| s == self.source).unwrap_or(true)
            && tag.map(|t| t == self.tag).unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_matching() {
        let m = Message {
            source: 3,
            tag: 5,
            data: vec![1.0],
        };
        assert!(m.matches(None, None));
        assert!(m.matches(Some(3), None));
        assert!(m.matches(None, Some(5)));
        assert!(m.matches(Some(3), Some(5)));
        assert!(!m.matches(Some(2), Some(5)));
        assert!(!m.matches(Some(3), Some(4)));
    }

    #[test]
    fn comm_error_display() {
        assert_eq!(CommError::NoSuchRank(7).to_string(), "no such rank: 7");
        assert!(CommError::Disconnected.to_string().contains("disconnected"));
    }

    #[test]
    fn worlds_build_uniformly() {
        fn shape<W: World>(n: usize) {
            let eps = W::endpoints(n).unwrap();
            assert_eq!(eps.len(), n, "{}", W::NAME);
            for (i, ep) in eps.iter().enumerate() {
                assert_eq!(ep.rank(), i, "{}", W::NAME);
                assert_eq!(ep.size(), n, "{}", W::NAME);
            }
        }
        shape::<channel::ChannelWorld>(3);
        shape::<tcp::TcpWorld>(3);
    }
}
