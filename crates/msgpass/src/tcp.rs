//! TCP transport: master/worker star over localhost sockets.
//!
//! This is the "distributed-memory" transport of the reproduction — the
//! role MPI/PVM played across SP2 or T3D nodes.  PLINGER's protocol only
//! ever communicates master ↔ worker, so the topology is a star rooted
//! at rank 0; worker-to-worker sends return
//! [`CommError::Unsupported`], which the farm never triggers.
//!
//! Each endpoint spawns one reader thread per socket that decodes frames
//! ([`crate::codec`]) into the endpoint's mailbox; probe/receive
//! semantics (blocking, per-pair FIFO, in-place scan) are those of the
//! in-process transports, as the paper demands of its wrapper layer.
//! A reader thread is its mailbox's producer: once a worker's reader
//! ends (the master hung up), its blocking probe and receive return
//! [`CommError::Disconnected`].  The master's [`RespawnPort`] holds a
//! producer too, so a master that can re-admit workers never hangs up
//! on itself.  A dropped endpoint shuts down the write side of its
//! sockets, so its peers see end-of-stream at once.
//!
//! Two assembly paths exist: [`TcpWorld`] builds all endpoints of a
//! star inside one process (for tests and thread-based farms over real
//! sockets), while [`PendingMaster`] + [`connect_worker`] split the
//! handshake across processes (the `plinger --transport tcp` deployment,
//! where each worker is an OS subprocess).

use crate::codec::{decode, encode};
use crate::mailbox::{Mailbox, Producer};
use crate::{CommError, Envelope, Message, Rank, Tag, Transport, World};
use bytes::BytesMut;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shared writer table: one slot per rank, swappable at respawn time.
type WriterTable = Arc<Mutex<Vec<Option<TcpStream>>>>;

/// Control tag used for the rank-introduction handshake.
const HELLO_TAG: Tag = u32::MAX;

/// A pending master endpoint: workers connect to [`Self::addr`].
pub struct PendingMaster {
    listener: TcpListener,
    addr: SocketAddr,
    n_workers: usize,
}

impl PendingMaster {
    /// Bind an ephemeral localhost port for `n_workers` workers.
    pub fn bind(n_workers: usize) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            addr,
            n_workers,
        })
    }

    /// The address workers should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accept all workers and build the master endpoint (rank 0).
    pub fn accept_all(self) -> Result<TcpEndpoint, CommError> {
        self.accept_all_keep().map(|(ep, _port)| ep)
    }

    /// Accept all workers like [`Self::accept_all`], but keep the
    /// listening socket open and return a [`RespawnPort`] through which
    /// a replacement worker can be re-handshaked into the star mid-run.
    pub fn accept_all_keep(self) -> Result<(TcpEndpoint, RespawnPort), CommError> {
        let inbox = Mailbox::new();
        let mut writers: Vec<Option<TcpStream>> = (0..=self.n_workers).map(|_| None).collect();
        for _ in 0..self.n_workers {
            let (stream, _) = self
                .listener
                .accept()
                .map_err(|e| CommError::Protocol(format!("accept failed: {e}")))?;
            stream.set_nodelay(true).ok();
            // handshake: first frame announces the worker's rank.  Any
            // bytes that arrive behind the hello (eager first messages)
            // are carried over into the reader thread's buffer.
            let mut hello_stream = clone_stream(&stream)?;
            let (hello, carry) = read_one_frame(&mut hello_stream)?;
            if hello.tag != HELLO_TAG {
                return Err(CommError::Protocol("expected hello frame".into()));
            }
            let rank = hello.source;
            if rank == 0 || rank > self.n_workers {
                return Err(CommError::Protocol(format!("bad hello rank {rank}")));
            }
            writers[rank] = Some(clone_stream(&stream)?);
            spawn_reader(stream, carry, inbox.producer());
        }
        let writers: WriterTable = Arc::new(Mutex::new(writers));
        let port = RespawnPort {
            listener: self.listener,
            addr: self.addr,
            n_workers: self.n_workers,
            producer: inbox.producer(),
            writers: Arc::clone(&writers),
        };
        let ep = TcpEndpoint {
            rank: 0,
            size: self.n_workers + 1,
            writers,
            inbox,
        };
        Ok((ep, port))
    }
}

/// The master's still-open listening socket, used to re-admit a
/// replacement worker after its predecessor died.
///
/// Obtained from [`PendingMaster::accept_all_keep`].  [`Self::admit`]
/// swaps the new connection into the master endpoint's writer table and
/// attaches a fresh reader thread, so the endpoint keeps working without
/// being rebuilt; stale frames from the dead predecessor may still be
/// queued and must be tolerated by the caller's protocol.
pub struct RespawnPort {
    listener: TcpListener,
    addr: SocketAddr,
    n_workers: usize,
    producer: Producer,
    writers: WriterTable,
}

impl RespawnPort {
    /// The address replacement workers should connect to (same as the
    /// original [`PendingMaster::addr`]).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait up to `timeout` for a replacement worker to connect and
    /// introduce itself as `expected_rank`, then splice it into the
    /// master endpoint's writer table and spawn its reader thread.
    pub fn admit(&self, expected_rank: Rank, timeout: Duration) -> Result<(), CommError> {
        if expected_rank == 0 || expected_rank > self.n_workers {
            return Err(CommError::NoSuchRank(expected_rank));
        }
        self.listener
            .set_nonblocking(true)
            .map_err(|e| CommError::Protocol(format!("set_nonblocking failed: {e}")))?;
        let deadline = Instant::now() + timeout;
        let accepted = loop {
            match self.listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        self.listener.set_nonblocking(false).ok();
                        return Err(CommError::Protocol(format!(
                            "no reconnection from rank {expected_rank} within {timeout:?}"
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    self.listener.set_nonblocking(false).ok();
                    return Err(CommError::Protocol(format!("accept failed: {e}")));
                }
            }
        };
        self.listener.set_nonblocking(false).ok();
        accepted
            .set_nonblocking(false)
            .map_err(|e| CommError::Protocol(format!("set_blocking failed: {e}")))?;
        accepted.set_nodelay(true).ok();
        let mut hello_stream = clone_stream(&accepted)?;
        // bound the hello read so a connect-and-hang client can't wedge us
        hello_stream
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
            .ok();
        let (hello, carry) = read_one_frame(&mut hello_stream)?;
        if hello.tag != HELLO_TAG {
            return Err(CommError::Protocol("expected hello frame".into()));
        }
        if hello.source != expected_rank {
            return Err(CommError::Protocol(format!(
                "expected hello from rank {expected_rank}, got {}",
                hello.source
            )));
        }
        let writer = clone_stream(&accepted)?;
        {
            let mut writers = self
                .writers
                .lock()
                .map_err(|_| CommError::Protocol("writer table poisoned".into()))?;
            writers[expected_rank] = Some(writer);
        }
        spawn_reader(accepted, carry, self.producer.clone());
        Ok(())
    }
}

/// Connect a worker endpoint with the given rank (1-based) to the master.
pub fn connect_worker(addr: SocketAddr, rank: Rank, size: usize) -> Result<TcpEndpoint, CommError> {
    if rank < 1 || rank >= size {
        return Err(CommError::NoSuchRank(rank));
    }
    let stream = TcpStream::connect(addr)
        .map_err(|e| CommError::Protocol(format!("connect failed: {e}")))?;
    stream.set_nodelay(true).ok();
    let mut hello_stream = clone_stream(&stream)?;
    hello_stream
        .write_all(&encode(rank, HELLO_TAG, &[]))
        .map_err(|e| CommError::Protocol(format!("hello failed: {e}")))?;
    let inbox = Mailbox::new();
    let mut writers: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
    writers[0] = Some(clone_stream(&stream)?);
    spawn_reader(stream, BytesMut::new(), inbox.producer());
    Ok(TcpEndpoint {
        rank,
        size,
        writers: Arc::new(Mutex::new(writers)),
        inbox,
    })
}

/// In-process factory for a localhost TCP star: all endpoints are built
/// inside the calling process, connected through real sockets.
///
/// The connect side runs before the accept side; the listener backlog
/// holds the pending connections, so no helper threads are needed.
pub struct TcpWorld;

impl World for TcpWorld {
    type Endpoint = TcpEndpoint;

    const NAME: &'static str = "tcp";

    fn endpoints(n_ranks: usize) -> Result<Vec<TcpEndpoint>, CommError> {
        if n_ranks == 0 {
            return Err(CommError::Unsupported("world needs at least one rank"));
        }
        let n_workers = n_ranks - 1;
        let pending = PendingMaster::bind(n_workers)
            .map_err(|e| CommError::Protocol(format!("bind failed: {e}")))?;
        let addr = pending.addr();
        let mut workers = Vec::with_capacity(n_workers);
        for rank in 1..n_ranks {
            workers.push(connect_worker(addr, rank, n_ranks)?);
        }
        let master = pending.accept_all()?;
        let mut eps = Vec::with_capacity(n_ranks);
        eps.push(master);
        eps.extend(workers);
        Ok(eps)
    }
}

/// Read exactly one frame; returns it together with any surplus bytes
/// already pulled off the socket (they belong to subsequent frames).
fn read_one_frame(stream: &mut TcpStream) -> Result<(Message, BytesMut), CommError> {
    let mut buf = BytesMut::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(msg) = decode(&mut buf)? {
            return Ok((msg, buf));
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| CommError::Protocol(format!("read failed: {e}")))?;
        if n == 0 {
            return Err(CommError::Disconnected);
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn clone_stream(stream: &TcpStream) -> Result<TcpStream, CommError> {
    stream
        .try_clone()
        .map_err(|e| CommError::Protocol(format!("clone failed: {e}")))
}

/// Decode frames off `stream` into the mailbox behind `producer` until
/// the socket ends or the mailbox closes.  Detached: the thread dies
/// with its socket.
fn spawn_reader(mut stream: TcpStream, carry: BytesMut, producer: Producer) {
    std::thread::spawn(move || {
        let mut buf = carry;
        let mut chunk = [0u8; 1 << 16];
        loop {
            loop {
                match decode(&mut buf) {
                    Ok(Some(msg)) => {
                        if producer.push(msg).is_err() {
                            return;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => return,
                }
            }
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        }
    });
}

/// One rank of a TCP star world.
pub struct TcpEndpoint {
    rank: Rank,
    size: usize,
    writers: WriterTable,
    inbox: Arc<Mailbox>,
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.inbox.close();
        if let Ok(writers) = self.writers.lock() {
            for stream in writers.iter().flatten() {
                stream.shutdown(Shutdown::Write).ok();
            }
        }
    }
}

impl Transport for TcpEndpoint {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, dest: Rank, tag: Tag, data: &[f64]) -> Result<(), CommError> {
        if dest >= self.size {
            return Err(CommError::NoSuchRank(dest));
        }
        let frame = encode(self.rank, tag, data);
        let mut writers = self
            .writers
            .lock()
            .map_err(|_| CommError::Protocol("writer table poisoned".into()))?;
        match writers.get_mut(dest).and_then(|w| w.as_mut()) {
            Some(stream) => stream
                .write_all(&frame)
                .map_err(|_| CommError::Disconnected),
            None => Err(CommError::Unsupported(
                "TCP star topology only links master and workers",
            )),
        }
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
    fn star_ping_pong() {
        let pending = PendingMaster::bind(2).unwrap();
        let addr = pending.addr();
        let workers: Vec<_> = (1..=2)
            .map(|rank| {
                thread::spawn(move || {
                    let mut ep = connect_worker(addr, rank, 3).unwrap();
                    let mut buf = Vec::new();
                    ep.recv(0, 1, &mut buf).unwrap();
                    ep.send(0, 2, &[buf[0] * rank as f64]).unwrap();
                })
            })
            .collect();
        let mut master = pending.accept_all().unwrap();
        master.broadcast(1, &[10.0]).unwrap();
        let mut got = Vec::new();
        let mut buf = Vec::new();
        for _ in 0..2 {
            let env = master.probe(None, Some(2)).unwrap();
            master.recv(env.source, 2, &mut buf).unwrap();
            got.push(buf[0]);
        }
        got.sort_by(f64::total_cmp);
        assert_eq!(got, vec![10.0, 20.0]);
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn in_process_world_over_sockets() {
        let mut eps = TcpWorld::endpoints(3).unwrap();
        assert_eq!(eps.len(), 3);
        let handles: Vec<_> = eps
            .drain(1..)
            .map(|mut ep| {
                thread::spawn(move || {
                    let mut buf = Vec::new();
                    ep.recv(0, 1, &mut buf).unwrap();
                    ep.send(0, 2, &[buf[0] + ep.rank() as f64]).unwrap();
                })
            })
            .collect();
        let mut master = eps.remove(0);
        master.broadcast(1, &[100.0]).unwrap();
        let mut got = Vec::new();
        let mut buf = Vec::new();
        for _ in 0..2 {
            let env = master.probe(None, Some(2)).unwrap();
            master.recv(env.source, 2, &mut buf).unwrap();
            got.push(buf[0]);
        }
        got.sort_by(f64::total_cmp);
        assert_eq!(got, vec![101.0, 102.0]);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn probe_timeout_detects_silence() {
        let mut eps = TcpWorld::endpoints(2).unwrap();
        let mut master = eps.remove(0);
        let none = master
            .probe_timeout(None, None, Duration::from_millis(20))
            .unwrap();
        assert!(none.is_none());
        let mut worker = eps.remove(0);
        worker.send(0, 3, &[1.5]).unwrap();
        let env = master
            .probe_timeout(None, None, Duration::from_secs(2))
            .unwrap()
            .expect("frame should arrive");
        assert_eq!(env.tag, 3);
    }

    #[test]
    fn large_message_integrity() {
        let pending = PendingMaster::bind(1).unwrap();
        let addr = pending.addr();
        let n = 100_000; // 800 kB, larger than the paper's 80 kB maximum
        let worker = thread::spawn(move || {
            let mut ep = connect_worker(addr, 1, 2).unwrap();
            let data: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            ep.send(0, 5, &data).unwrap();
        });
        let mut master = pending.accept_all().unwrap();
        let mut buf = Vec::new();
        let env = master.recv(1, 5, &mut buf).unwrap();
        assert_eq!(env.len, n);
        for (i, &x) in buf.iter().enumerate() {
            assert_eq!(x, (i as f64).sin());
        }
        worker.join().unwrap();
    }

    #[test]
    fn worker_to_worker_unsupported() {
        let pending = PendingMaster::bind(2).unwrap();
        let addr = pending.addr();
        let w = thread::spawn(move || {
            let mut ep = connect_worker(addr, 1, 3).unwrap();
            let err = ep.send(2, 1, &[1.0]).unwrap_err();
            assert!(matches!(err, CommError::Unsupported(_)));
            // unblock master accept-side bookkeeping by finishing cleanly
        });
        let w2 = thread::spawn(move || {
            let _ep = connect_worker(addr, 2, 3).unwrap();
        });
        let _master = pending.accept_all().unwrap();
        w.join().unwrap();
        w2.join().unwrap();
    }

    #[test]
    fn bad_worker_rank_is_error_not_panic() {
        let pending = PendingMaster::bind(1).unwrap();
        let addr = pending.addr();
        assert!(matches!(
            connect_worker(addr, 0, 2),
            Err(CommError::NoSuchRank(0))
        ));
        assert!(matches!(
            connect_worker(addr, 2, 2),
            Err(CommError::NoSuchRank(2))
        ));
    }

    #[test]
    fn respawn_port_readmits_a_replacement_worker() {
        let pending = PendingMaster::bind(1).unwrap();
        let addr = pending.addr();
        let first = thread::spawn(move || {
            let mut ep = connect_worker(addr, 1, 2).unwrap();
            ep.send(0, 3, &[1.0]).unwrap();
            // drop: the worker "dies" after one message
        });
        let (mut master, port) = pending.accept_all_keep().unwrap();
        let mut buf = Vec::new();
        master.recv(1, 3, &mut buf).unwrap();
        assert_eq!(buf, vec![1.0]);
        first.join().unwrap();

        // a replacement connects under the same rank
        let second = thread::spawn(move || {
            let mut ep = connect_worker(addr, 1, 2).unwrap();
            let mut buf = Vec::new();
            ep.recv(0, 1, &mut buf).unwrap();
            ep.send(0, 3, &[buf[0] + 1.0]).unwrap();
        });
        port.admit(1, Duration::from_secs(5)).unwrap();
        master.send(1, 1, &[41.0]).unwrap();
        master.recv(1, 3, &mut buf).unwrap();
        assert_eq!(buf, vec![42.0]);
        second.join().unwrap();
    }

    #[test]
    fn respawn_admit_times_out_cleanly() {
        let pending = PendingMaster::bind(1).unwrap();
        let addr = pending.addr();
        let w = thread::spawn(move || {
            let _ep = connect_worker(addr, 1, 2).unwrap();
        });
        let (_master, port) = pending.accept_all_keep().unwrap();
        w.join().unwrap();
        let err = port.admit(1, Duration::from_millis(50)).unwrap_err();
        assert!(matches!(err, CommError::Protocol(_)));
        assert_eq!(port.addr(), addr);
    }

    #[test]
    fn fifo_order_over_tcp() {
        let pending = PendingMaster::bind(1).unwrap();
        let addr = pending.addr();
        let worker = thread::spawn(move || {
            let mut ep = connect_worker(addr, 1, 2).unwrap();
            for i in 0..200 {
                ep.send(0, 1, &[i as f64]).unwrap();
            }
        });
        let mut master = pending.accept_all().unwrap();
        let mut buf = Vec::new();
        for i in 0..200 {
            master.recv(1, 1, &mut buf).unwrap();
            assert_eq!(buf[0], i as f64);
        }
        worker.join().unwrap();
    }

    #[test]
    fn worker_recv_after_its_master_drops_is_disconnected() {
        let pending = PendingMaster::bind(1).unwrap();
        let addr = pending.addr();
        let worker = thread::spawn(move || {
            let mut ep = connect_worker(addr, 1, 2).unwrap();
            let mut buf = Vec::new();
            ep.recv(0, 1, &mut buf).unwrap();
            // the master is gone: its reader thread ends and takes the
            // mailbox's only producer with it
            ep.recv(0, 1, &mut buf)
        });
        let mut master = pending.accept_all().unwrap();
        master.send(1, 1, &[1.0]).unwrap();
        drop(master);
        assert_eq!(worker.join().unwrap(), Err(CommError::Disconnected));
    }
}
