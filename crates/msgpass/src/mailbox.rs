//! The receive side every threaded transport shares: one mailbox per
//! rank, scanned in place.
//!
//! A [`Mailbox`] is a mutex-guarded queue of pending [`Message`]s in
//! arrival order plus one condition variable.  Its owner probes and
//! receives by scanning the queue for the first message that matches
//! `(source, tag)`, so per-pair FIFO order holds whatever the filters
//! are.  Messages arrive through [`Producer`] handles; two edges carry
//! the transports' failure semantics:
//!
//! * **closed** — [`Mailbox::close`] makes every later push fail with
//!   [`CommError::Disconnected`] (a channel endpoint closes on drop);
//! * **no producer left** — a blocking probe or receive that finds no
//!   match returns [`CommError::Disconnected`] (a TCP worker's only
//!   producer is its reader thread), while a bounded probe just waits
//!   out its timeout.

use crate::{CommError, Envelope, Message, Rank, Tag};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

#[derive(Default)]
struct State {
    queue: VecDeque<Message>,
    producers: usize,
    closed: bool,
}

/// One rank's inbox.
#[derive(Default)]
pub(crate) struct Mailbox {
    state: Mutex<State>,
    bell: Condvar,
}

/// A handle that can push into one [`Mailbox`]; counted while alive.
pub(crate) struct Producer {
    mailbox: Arc<Mailbox>,
}

impl Mailbox {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // no invariant spans a push or a scan, so a panicked holder
        // leaves the queue usable
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A new producer handle into this mailbox.
    pub(crate) fn producer(self: &Arc<Self>) -> Producer {
        self.lock().producers += 1;
        Producer {
            mailbox: Arc::clone(self),
        }
    }

    /// Refuse every later push.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
    }

    /// Wait for the first message matching the filters and return the
    /// guard with its index.  `Ok(None)` when `deadline` passes first;
    /// without a deadline, running out of producers is `Disconnected`.
    fn find(
        &self,
        source: Option<Rank>,
        tag: Option<Tag>,
        deadline: Option<Instant>,
    ) -> Result<Option<(MutexGuard<'_, State>, usize)>, CommError> {
        let mut st = self.lock();
        // only the owner removes, so entries already scanned stay misses
        let mut scanned = 0;
        loop {
            if let Some(i) = st
                .queue
                .range(scanned..)
                .position(|m| m.matches(source, tag))
            {
                return Ok(Some((st, scanned + i)));
            }
            scanned = st.queue.len();
            st = match deadline {
                None if st.producers == 0 => return Err(CommError::Disconnected),
                None => self.bell.wait(st).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Ok(None);
                    }
                    self.bell
                        .wait_timeout(st, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    /// Block until a matching message is pending; do not consume it.
    pub(crate) fn probe(
        &self,
        source: Option<Rank>,
        tag: Option<Tag>,
    ) -> Result<Envelope, CommError> {
        let (st, i) = self
            .find(source, tag, None)?
            .ok_or(CommError::Disconnected)?;
        Ok(st.queue[i].envelope())
    }

    /// [`Self::probe`] bounded by `timeout`; `Ok(None)` when it passes.
    pub(crate) fn probe_timeout(
        &self,
        source: Option<Rank>,
        tag: Option<Tag>,
        timeout: Duration,
    ) -> Result<Option<Envelope>, CommError> {
        let found = self.find(source, tag, Some(Instant::now() + timeout))?;
        Ok(found.map(|(st, i)| st.queue[i].envelope()))
    }

    /// Block until a message from `source` with `tag` is pending and
    /// consume it into `buf`.
    pub(crate) fn recv(
        &self,
        source: Rank,
        tag: Tag,
        buf: &mut Vec<f64>,
    ) -> Result<Envelope, CommError> {
        let (mut st, i) = self
            .find(Some(source), Some(tag), None)?
            .ok_or(CommError::Disconnected)?;
        let msg = st
            .queue
            .remove(i)
            .ok_or_else(|| CommError::Protocol("mailbox index vanished".into()))?;
        drop(st);
        buf.clear();
        buf.extend_from_slice(&msg.data);
        Ok(msg.envelope())
    }
}

impl Producer {
    /// Queue `msg` and wake the owner; `Disconnected` once the mailbox
    /// is closed.
    pub(crate) fn push(&self, msg: Message) -> Result<(), CommError> {
        let mut st = self.mailbox.lock();
        if st.closed {
            return Err(CommError::Disconnected);
        }
        st.queue.push_back(msg);
        drop(st);
        self.mailbox.bell.notify_one();
        Ok(())
    }
}

impl Clone for Producer {
    fn clone(&self) -> Self {
        self.mailbox.producer()
    }
}

impl Drop for Producer {
    fn drop(&mut self) {
        let mut st = self.mailbox.lock();
        st.producers -= 1;
        let last = st.producers == 0;
        drop(st);
        if last {
            // a blocked owner must learn that nothing more can arrive
            self.mailbox.bell.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn msg(source: Rank, tag: Tag, x: f64) -> Message {
        Message {
            source,
            tag,
            data: vec![x],
        }
    }

    #[test]
    fn last_producer_gone_wakes_a_blocked_receive() {
        let inbox = Mailbox::new();
        let p = inbox.producer();
        p.push(msg(3, 4, 5.0)).unwrap();
        let waiter = {
            let inbox = Arc::clone(&inbox);
            thread::spawn(move || {
                let mut buf = Vec::new();
                // what was queued before the hang-up is still delivered
                inbox.recv(3, 4, &mut buf).unwrap();
                inbox.recv(3, 4, &mut buf)
            })
        };
        thread::sleep(Duration::from_millis(20));
        drop(p);
        assert_eq!(waiter.join().unwrap(), Err(CommError::Disconnected));
        // a bounded probe with no producer waits out its timeout quietly
        let t0 = Instant::now();
        let none = inbox.probe_timeout(None, None, Duration::from_millis(15));
        assert_eq!(none, Ok(None));
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn bounded_probe_wakes_on_a_late_match_behind_a_miss() {
        let inbox = Mailbox::new();
        let p = inbox.producer();
        // already scanned and skipped: the late match is found past it
        p.push(msg(1, 9, 0.0)).unwrap();
        let waiter = {
            let inbox = Arc::clone(&inbox);
            thread::spawn(move || {
                inbox
                    .probe_timeout(Some(2), None, Duration::from_secs(5))
                    .map(|e| e.map(|e| e.source))
            })
        };
        thread::sleep(Duration::from_millis(20));
        p.push(msg(2, 9, 0.0)).unwrap();
        assert_eq!(waiter.join().unwrap(), Ok(Some(2)));
    }
}
