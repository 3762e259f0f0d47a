//! The poll(2) event-driven connection front end.
//!
//! One reactor thread owns every connection: it multiplexes the listener,
//! a wake pipe, and all client sockets through a single poll(2) call, so an
//! idle connection costs one `pollfd` — not a parked worker thread. Complete
//! request frames are handed to a small worker pool (which may block on the
//! admission scheduler); finished responses come back through a completion
//! list plus a wake byte, and the reactor writes them out strictly in
//! per-connection request order, so clients may *pipeline* many frames and
//! still read answers in the order they asked.
//!
//! Nonblocking I/O is handled in full: reads accumulate partial frames
//! across polls, writes park unsent bytes and re-arm `POLLOUT`, and both
//! treat `WouldBlock`/`TimedOut` (the two kinds a nonblocking socket
//! surfaces across platforms) as "try again later".
//!
//! Overload is shed per *request* rather than per connection: when more
//! requests are queued than `workers + max_pending`, new frames are answered
//! `ERR overloaded` locally (still in pipeline order) instead of waiting.
//!
//! Running out of descriptors never stops the server: when `accept` fails
//! with EMFILE/ENFILE/ENOBUFS/ENOMEM the reactor leaves the listener out of
//! the next poll round (so pending connections wait in the kernel backlog
//! instead of spinning the loop) and keeps serving the connections it has.
//!
//! Shutdown drains: in-flight requests are answered, idle connections get
//! `BYE`, new work is refused `ERR shutting_down` by the dispatcher, and a
//! grace period bounds how long a slow reader can hold the server open.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::locks;
use crate::protocol::err_frame;
use crate::scheduler::Job;
use crate::server::{handle_request, Reply, Shared};

/// Thin poll(2) binding. This module and [`crate::shutdown`] are the
/// crate's only `unsafe_code` exceptions (the crate root carries
/// `#![deny(unsafe_code)]`): multiplexing readiness across thousands of
/// sockets without an async runtime requires the one libc call `std`
/// doesn't wrap.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::fd::RawFd;

    /// Readable data (or a peer close, on some platforms) is available.
    pub(super) const POLLIN: i16 = 0x001;
    /// Writing would not block.
    pub(super) const POLLOUT: i16 = 0x004;
    /// Error condition (always polled; only meaningful in `revents`).
    pub(super) const POLLERR: i16 = 0x008;
    /// Peer hung up (always polled; only meaningful in `revents`).
    pub(super) const POLLHUP: i16 = 0x010;

    /// `struct pollfd`, laid out exactly as poll(2) expects.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub(super) struct PollFd {
        pub(super) fd: RawFd,
        pub(super) events: i16,
        pub(super) revents: i16,
    }

    // `nfds_t` is `unsigned long` on Linux and `unsigned int` on the BSDs
    // (including macOS).
    #[cfg(target_os = "linux")]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: std::os::raw::c_int) -> std::os::raw::c_int;
    }

    /// Block until some fd is ready or `timeout_ms` elapses; returns the
    /// number of entries with nonzero `revents` (zero on timeout). `EINTR`
    /// is reported as zero ready fds so callers simply re-poll.
    pub(super) fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        // Safety: `fds` is a valid exclusively-borrowed slice of `repr(C)`
        // pollfd records for the whole call; the kernel reads `fd`/`events`
        // and writes only the `revents` fields inside the slice bounds.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }

    /// `ENOBUFS`, whose number differs between Linux and the BSDs.
    #[cfg(target_os = "linux")]
    const ENOBUFS: i32 = 105;
    #[cfg(not(target_os = "linux"))]
    const ENOBUFS: i32 = 55;

    /// Whether an `accept` error means the process or the system is out of
    /// descriptors or buffer memory (ENOMEM, ENFILE, EMFILE, ENOBUFS) rather
    /// than that one incoming connection failed.
    pub(super) fn out_of_resources(err: &io::Error) -> bool {
        matches!(err.raw_os_error(), Some(12 | 23 | 24) | Some(ENOBUFS))
    }
}

/// A complete request frame handed to the worker pool.
struct WorkItem {
    token: usize,
    generation: u64,
    seq: u64,
    line: String,
}

/// A finished response travelling back to the reactor.
struct Completion {
    token: usize,
    generation: u64,
    seq: u64,
    bytes: Vec<u8>,
    close: bool,
}

/// Per-connection state owned by the reactor thread.
struct Conn {
    stream: TcpStream,
    /// Guards against completions for a previous occupant of this token.
    generation: u64,
    /// Bytes read but not yet forming a complete `\n`-terminated frame.
    read_buf: Vec<u8>,
    /// Response bytes accepted for writing, in order.
    write_buf: Vec<u8>,
    /// How much of `write_buf` has actually reached the socket.
    write_pos: usize,
    /// Sequence number assigned to the next request frame read.
    next_seq: u64,
    /// Sequence number of the next response allowed into `write_buf` —
    /// this is what keeps pipelined responses in request order.
    next_write: u64,
    /// Out-of-order finished responses waiting for their turn.
    pending: BTreeMap<u64, (Vec<u8>, bool)>,
    /// Requests dispatched (or shed) whose responses haven't entered
    /// `write_buf` yet.
    inflight: usize,
    /// Stop reading; close once `write_buf` drains.
    closing: bool,
    /// Peer closed its write half; serve what's pipelined, then close.
    read_eof: bool,
    /// Drain `BYE` already queued (shutdown path), never queue another.
    said_bye: bool,
}

impl Conn {
    fn new(stream: TcpStream, generation: u64) -> Conn {
        Conn {
            stream,
            generation,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            next_seq: 0,
            next_write: 0,
            pending: BTreeMap::new(),
            inflight: 0,
            closing: false,
            read_eof: false,
            said_bye: false,
        }
    }

    /// Move every response that is next in request order into the write
    /// buffer.
    fn flush_ordered(&mut self) {
        while let Some((bytes, close)) = self.pending.remove(&self.next_write) {
            self.write_buf.extend_from_slice(&bytes);
            self.next_write += 1;
            self.inflight = self.inflight.saturating_sub(1);
            if close {
                self.closing = true;
                self.pending.clear();
                break;
            }
        }
    }

    /// Whether this connection has nothing left to do and can be dropped.
    fn finished(&self) -> bool {
        let drained = self.write_pos >= self.write_buf.len();
        (self.closing && drained)
            || (self.read_eof && drained && self.inflight == 0 && self.pending.is_empty())
    }
}

/// How long, after a drain begins, a peer that won't read its responses may
/// keep its connection (and thus the server) alive.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Run the poll front end on the calling thread, spawning its worker pool
/// into `scope`. Returns when the server has drained after a stop signal,
/// or with the error of a failed setup step or poll(2) call. Accept errors
/// are never fatal (see [`Reactor::accept_ready`]).
pub(crate) fn serve<'scope>(
    scope: &'scope thread::Scope<'scope, '_>,
    listener: &TcpListener,
    shared: &Arc<Shared>,
    jobs: Sender<Job>,
) -> io::Result<()> {
    let (work_tx, work_rx) = mpsc::channel::<WorkItem>();
    let work_rx = Arc::new(Mutex::new(work_rx));
    let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    // One shared wake end for the whole pool, not a descriptor per worker.
    let wake_tx = Arc::new(wake_tx);

    for _ in 0..shared.cfg.workers.max(1) {
        let work_rx = Arc::clone(&work_rx);
        let completions = Arc::clone(&completions);
        let shared = Arc::clone(shared);
        let jobs = jobs.clone();
        let wake = Arc::clone(&wake_tx);
        scope.spawn(move || pool_worker(&work_rx, &completions, &shared, &jobs, &wake));
    }
    // Workers hold the only remaining job senders: when `work_tx` drops at
    // the end of the reactor loop they exit, their job senders drop, and
    // the scheduler's channel hangs up, so the scope join cannot deadlock.
    drop(jobs);

    let mut reactor = Reactor {
        shared,
        conns: Vec::new(),
        free: Vec::new(),
        generation: 0,
        work_tx,
        completions,
        wake_rx,
        queued: 0,
    };
    reactor.run(listener)
}

/// One pool worker: take a frame, run the shared dispatcher (blocking on
/// the scheduler is fine here), hand the rendered bytes back, wake the
/// reactor.
fn pool_worker(
    work_rx: &Mutex<Receiver<WorkItem>>,
    completions: &Mutex<Vec<Completion>>,
    shared: &Shared,
    jobs: &Sender<Job>,
    wake: &UnixStream,
) {
    loop {
        // Holding the lock while blocked in `recv` is the standard shared-
        // receiver pattern: exactly one worker waits in `recv`, the rest
        // wait on the mutex, and an arriving item releases both in turn.
        let item = match locks::lock(work_rx).recv() {
            Ok(item) => item,
            Err(_) => return,
        };
        let reply = handle_request(shared, jobs, &item.line);
        push_completion(
            completions,
            wake,
            Completion {
                token: item.token,
                generation: item.generation,
                seq: item.seq,
                bytes: render(&reply),
                close: reply.close,
            },
        );
    }
}

fn render(reply: &Reply) -> Vec<u8> {
    let mut bytes = Vec::new();
    for frame in &reply.frames {
        bytes.extend_from_slice(frame.as_bytes());
        bytes.push(b'\n');
    }
    bytes
}

fn push_completion(completions: &Mutex<Vec<Completion>>, mut wake: &UnixStream, c: Completion) {
    locks::lock(completions).push(c);
    // A failed or would-block write is fine: the pipe already holds an
    // unread wake byte, so the reactor is waking regardless.
    let _ = wake.write(&[1]);
}

struct Reactor<'a> {
    shared: &'a Shared,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    generation: u64,
    work_tx: Sender<WorkItem>,
    completions: Arc<Mutex<Vec<Completion>>>,
    wake_rx: UnixStream,
    queued: usize,
}

impl Reactor<'_> {
    fn run(&mut self, listener: &TcpListener) -> io::Result<()> {
        let mut fds: Vec<sys::PollFd> = Vec::new();
        let mut tokens: Vec<usize> = Vec::new();
        let mut drain_started: Option<Instant> = None;
        // Set when the last accept pass ran out of descriptors: the next
        // round leaves the listener out of the poll set.
        let mut accept_backoff = false;
        loop {
            let stopping = self.shared.stopping();
            if stopping {
                let started = *drain_started.get_or_insert_with(Instant::now);
                self.begin_drain();
                if self.open_conns() == 0 {
                    return Ok(());
                }
                if started.elapsed() > DRAIN_GRACE {
                    // A peer that won't read its BYE doesn't get to pin the
                    // process.
                    self.conns.clear();
                    self.publish_active();
                    return Ok(());
                }
            }

            fds.clear();
            tokens.clear();
            fds.push(sys::PollFd {
                fd: self.wake_rx.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            });
            let listener_slot = if stopping || std::mem::take(&mut accept_backoff) {
                None
            } else {
                fds.push(sys::PollFd {
                    fd: listener.as_raw_fd(),
                    events: sys::POLLIN,
                    revents: 0,
                });
                Some(1)
            };
            let base = fds.len();
            for (token, slot) in self.conns.iter().enumerate() {
                let Some(conn) = slot else { continue };
                let mut events = 0i16;
                if !conn.closing && !conn.read_eof {
                    events |= sys::POLLIN;
                }
                if conn.write_pos < conn.write_buf.len() {
                    events |= sys::POLLOUT;
                }
                fds.push(sys::PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                tokens.push(token);
            }

            // 100ms cap so the stop flag is polled even when fully idle.
            sys::wait(&mut fds, 100)?;

            if fds[0].revents != 0 {
                self.drain_completions();
            }
            if let Some(slot) = listener_slot {
                if fds[slot].revents != 0 {
                    accept_backoff = self.accept_ready(listener);
                }
            }
            for (i, token) in tokens.iter().enumerate() {
                let revents = fds[base + i].revents;
                if revents == 0 {
                    continue;
                }
                if revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0 {
                    self.read_ready(*token);
                }
                // Writes are attempted in the sweep below for every
                // connection with buffered output, covering POLLOUT too.
            }
            self.sweep();
        }
    }

    fn open_conns(&self) -> usize {
        self.conns.iter().filter(|slot| slot.is_some()).count()
    }

    fn publish_active(&self) {
        self.shared
            .active
            .store(self.open_conns(), Ordering::SeqCst);
    }

    /// On shutdown: every connection with no work in flight gets `BYE` and
    /// closes once it drains; connections still owed responses get their
    /// `BYE` on a later pass, after `flush_ordered` empties them.
    fn begin_drain(&mut self) {
        for slot in &mut self.conns {
            let Some(conn) = slot else { continue };
            if conn.inflight == 0 && conn.pending.is_empty() && !conn.said_bye && !conn.closing {
                conn.write_buf.extend_from_slice(b"BYE\n");
                conn.said_bye = true;
                conn.closing = true;
            }
        }
    }

    /// Accept every pending connection. Returns `true` when the pass stopped
    /// because descriptors or buffer memory ran out; any other accept error
    /// only costs the connection it belonged to.
    fn accept_ready(&mut self, listener: &TcpListener) -> bool {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    self.generation += 1;
                    let conn = Conn::new(stream, self.generation);
                    match self.free.pop() {
                        Some(token) => self.conns[token] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                    self.publish_active();
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return false
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if sys::out_of_resources(&e) => {
                    self.shared.metrics.accept_backoffs.inc();
                    return true;
                }
                // The failed accept already consumed that connection; the
                // next poll round picks up any others still pending.
                Err(_) => return false,
            }
        }
    }

    fn drain_completions(&mut self) {
        let mut buf = [0u8; 256];
        while matches!(self.wake_rx.read(&mut buf), Ok(n) if n > 0) {}
        let done = std::mem::take(&mut *locks::lock(&self.completions));
        for c in done {
            self.queued = self.queued.saturating_sub(1);
            self.shared.metrics.queue_depth.set(self.queued as f64);
            let Some(Some(conn)) = self.conns.get_mut(c.token) else {
                continue;
            };
            if conn.generation != c.generation {
                continue;
            }
            conn.pending.insert(c.seq, (c.bytes, c.close));
            conn.flush_ordered();
        }
    }

    fn read_ready(&mut self, token: usize) {
        let Some(Some(conn)) = self.conns.get_mut(token) else {
            return;
        };
        if conn.closing || conn.read_eof {
            return;
        }
        let mut chunk = [0u8; 4096];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_eof = true;
                    break;
                }
                Ok(n) => conn.read_buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    break
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Connection error: nothing further can be delivered.
                    self.conns[token] = None;
                    self.free.push(token);
                    self.publish_active();
                    return;
                }
            }
        }
        self.extract_frames(token);
    }

    /// Pull every complete line out of the read buffer and dispatch it;
    /// enforce the frame size cap on what remains.
    fn extract_frames(&mut self, token: usize) {
        loop {
            let Some(Some(conn)) = self.conns.get_mut(token) else {
                return;
            };
            let Some(pos) = conn.read_buf.iter().position(|&b| b == b'\n') else {
                break;
            };
            let mut line_bytes: Vec<u8> = conn.read_buf.drain(..=pos).collect();
            line_bytes.pop();
            if line_bytes.last() == Some(&b'\r') {
                line_bytes.pop();
            }
            if line_bytes.len() > self.shared.cfg.max_request_bytes {
                let max = self.shared.cfg.max_request_bytes;
                self.complete_local(
                    token,
                    err_frame("too_large", &format!("frame exceeds {max} bytes")),
                    true,
                );
                return;
            }
            match String::from_utf8(line_bytes) {
                Ok(line) => self.dispatch(token, line),
                Err(_) => {
                    // Framing survived but the payload is garbage; answer
                    // in order and keep the session.
                    self.complete_local(
                        token,
                        err_frame("proto", "frame is not valid UTF-8"),
                        false,
                    );
                }
            }
        }
        let Some(Some(conn)) = self.conns.get_mut(token) else {
            return;
        };
        if conn.read_buf.len() > self.shared.cfg.max_request_bytes {
            // An over-long partial frame can never complete; framing is
            // lost, so report and hang up.
            let max = self.shared.cfg.max_request_bytes;
            self.complete_local(
                token,
                err_frame("too_large", &format!("frame exceeds {max} bytes")),
                true,
            );
        }
    }

    /// Hand one frame to the worker pool — or shed it with `ERR overloaded`
    /// when more requests are queued than the pool plus the configured
    /// backlog would ever serve promptly.
    fn dispatch(&mut self, token: usize, line: String) {
        let shed_at = self.shared.cfg.workers.max(1) + self.shared.cfg.max_pending;
        if self.queued >= shed_at {
            self.shared.counters.update(|c| c.refused += 1);
            self.shared.metrics.refused.inc();
            self.complete_local(
                token,
                err_frame("overloaded", "server is at capacity"),
                false,
            );
            return;
        }
        let Some(Some(conn)) = self.conns.get_mut(token) else {
            return;
        };
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.inflight += 1;
        let generation = conn.generation;
        self.queued += 1;
        self.shared.metrics.queue_depth.set(self.queued as f64);
        self.shared
            .metrics
            .queue_depth_hwm
            .set_max(self.queued as f64);
        let queued = self.queued as u64;
        self.shared
            .counters
            .update(|c| c.queue_hwm = c.queue_hwm.max(queued));
        let _ = self.work_tx.send(WorkItem {
            token,
            generation,
            seq,
            line,
        });
    }

    /// Answer a frame from the reactor itself, still in pipeline order.
    fn complete_local(&mut self, token: usize, frame: String, close: bool) {
        let Some(Some(conn)) = self.conns.get_mut(token) else {
            return;
        };
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.inflight += 1;
        let mut bytes = frame.into_bytes();
        bytes.push(b'\n');
        conn.pending.insert(seq, (bytes, close));
        conn.flush_ordered();
    }

    /// Write out what can be written and reap finished connections.
    fn sweep(&mut self) {
        let mut changed = false;
        for token in 0..self.conns.len() {
            let Some(conn) = &mut self.conns[token] else {
                continue;
            };
            if !try_write(conn) || conn.finished() {
                self.conns[token] = None;
                self.free.push(token);
                changed = true;
            }
        }
        if changed {
            self.publish_active();
        }
    }
}

/// Push buffered bytes to the socket; `false` means the connection is dead.
fn try_write(conn: &mut Conn) -> bool {
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return false,
            Ok(n) => conn.write_pos += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                break
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    if conn.write_pos >= conn.write_buf.len() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_wait_sees_readable_pipe() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [sys::PollFd {
            fd: b.as_raw_fd(),
            events: sys::POLLIN,
            revents: 0,
        }];
        // Nothing written yet: times out with zero ready fds.
        assert_eq!(sys::wait(&mut fds, 10).unwrap(), 0);
        a.write_all(b"x").unwrap();
        fds[0].revents = 0;
        assert_eq!(sys::wait(&mut fds, 1000).unwrap(), 1);
        assert!(fds[0].revents & sys::POLLIN != 0);
    }

    #[test]
    fn flush_ordered_releases_responses_in_request_order() {
        let (stream, _peer) = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let peer = TcpStream::connect(addr).unwrap();
            let (stream, _) = listener.accept().unwrap();
            (stream, peer)
        };
        let mut conn = Conn::new(stream, 1);
        conn.next_seq = 3;
        conn.inflight = 3;
        // Responses 1 and 2 finish before 0: nothing may be written yet.
        conn.pending.insert(1, (b"second\n".to_vec(), false));
        conn.pending.insert(2, (b"third\n".to_vec(), false));
        conn.flush_ordered();
        assert!(conn.write_buf.is_empty());
        conn.pending.insert(0, (b"first\n".to_vec(), false));
        conn.flush_ordered();
        assert_eq!(conn.write_buf, b"first\nsecond\nthird\n".to_vec());
        assert_eq!(conn.inflight, 0);
    }

    #[test]
    fn a_closing_response_discards_later_pipeline_entries() {
        let (stream, _peer) = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let peer = TcpStream::connect(addr).unwrap();
            let (stream, _) = listener.accept().unwrap();
            (stream, peer)
        };
        let mut conn = Conn::new(stream, 1);
        conn.next_seq = 2;
        conn.inflight = 2;
        conn.pending.insert(0, (b"BYE\n".to_vec(), true));
        conn.pending.insert(1, (b"late\n".to_vec(), false));
        conn.flush_ordered();
        assert!(conn.closing);
        assert_eq!(conn.write_buf, b"BYE\n".to_vec());
        assert!(conn.pending.is_empty());
    }
}
