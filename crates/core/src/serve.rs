//! A long-lived TCP query server over one store.
//!
//! [`Server`] binds a [`std::net::TcpListener`] over a [`Store`] opened
//! **once** (at any partition count, so single-store and sharded
//! containers are served identically) and answers the
//! newline-delimited JSON protocol
//! of [`crate::wire`] — `PROTOCOL.md` documents the format. The decode
//! cache and query plans live in the shared store, so they stay warm
//! across requests and across connections: exactly the steady state the
//! benchmark's `serve.rtt_depth1_us` probe measures, instead of the
//! re-open-per-invocation cost the CLI's offline `query` pays.
//!
//! # One event loop per thread
//!
//! The server runs `threads` identical readiness loops, each built on
//! the raw-fd `epoll` wrappers in [`crate::poll`] (std-only, no async
//! runtime) and the per-connection state machines in [`crate::conn`].
//! Loop 0 also owns the listener: it accepts and hands connection *k*
//! to loop *k* mod `threads`, pushing it to that loop's inbox before
//! waking it. A connection then belongs to one loop for its whole life:
//! the loop reads it, cuts the bytes into request lines, runs each line
//! through [`wire::execute`] on its own thread, one after another, and
//! flushes the replies in one coalesced write. An idle connection costs
//! two buffers and a file descriptor, not a thread, so connection count
//! is not capped by `--threads`.
//!
//! Because one thread executes a connection's lines in arrival order,
//! pipelined order holds by construction: a pipelined query behind an
//! `ingest` on the same connection observes the ingest, and responses
//! stream back in request order (see `PROTOCOL.md`). Connections on
//! different loops run concurrently, sharing one decode cache.
//!
//! Clients may pipeline freely: send N request lines without awaiting,
//! read N responses in order (`utcq client --pipeline N` does exactly
//! this). A slow reader that lets its write backlog grow past the
//! [`crate::conn::WRITE_HIGH_WATERMARK`] stops being *read* until it
//! drains — backpressure by TCP flow control, not by server memory.
//!
//! # Writable servers
//!
//! [`Server::writable`] enables the protocol's `ingest` op: batches
//! append to the live store (`PROTOCOL.md` documents the request).
//! Ingest runs on the store's writer path — compression and indexing
//! happen against a private clone of the current snapshot, then publish
//! as a new epoch — so queries on the other loops never block, and
//! pipelined queries behind an ingest on the *same* connection resume
//! as soon as the batch publishes. `ingest` and `checkpoint` run on the
//! loop that read them and serialise on the store's writer lock, so a
//! connection that shares a loop with an ingesting one waits for that
//! ingest. Read-only servers (the default) answer `ingest` with the
//! `read_only` error code.
//!
//! # Shutdown
//!
//! Graceful, from either side: a client sends `{"op":"shutdown"}` (it
//! gets the acknowledgement as its response), or the process calls
//! [`ServerHandle::shutdown`]. Either way the flag is raised, every
//! registered connection's **read** side is half-closed, and every
//! loop's eventfd waker unblocks it. Each loop then
//!
//! 1. stops taking connections (loop 0 stops accepting),
//! 2. flushes what its connections have queued (no response is ever
//!    truncated mid-line; requests not yet read are dropped), bounded
//!    by a drain deadline for peers that never read, and
//! 3. returns; [`Server::run`] returns once every loop has.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::conn::{Conn, Frame};
use crate::error::Error;
use crate::poll;
use crate::store::Store;
use crate::wire;

pub use crate::conn::DRAIN_BUDGET_BYTES;

/// Default number of event loops for [`Server::bind`] callers that
/// take the CLI default.
pub const DEFAULT_THREADS: usize = 4;

/// Poller token of the listening socket (registered on loop 0 only).
const TOKEN_LISTENER: u64 = 0;
/// Poller token of a loop's waker.
const TOKEN_WAKER: u64 = 1;
/// Token of the first accepted connection; connection *k* gets this
/// plus *k*, unique across loops.
const TOKEN_FIRST_CONN: u64 = 2;

/// Readiness reports drained per `epoll_wait` call.
const EVENTS_PER_WAIT: usize = 256;

/// How long shutdown waits for queued responses to flush before
/// force-closing connections whose peers stopped reading.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);

/// How long the listener stays muted after `accept` failed for want of
/// a file descriptor. The pending connection stays queued, so the
/// level-triggered listener would report it again at once and the loop
/// would spin until a descriptor frees.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// `accept` errors that mean "no descriptor left": per process
/// (`EMFILE`) and system-wide (`ENFILE`).
const EMFILE: i32 = 24;
const ENFILE: i32 = 23;

/// What other threads may hand one loop: the waker that unblocks its
/// `epoll_wait`, and an inbox of connections accepted for it. A
/// hand-off pushes to the inbox *before* waking, and the loop drains
/// the waker *before* taking the inbox, so a connection never strands.
struct Mailbox {
    waker: poll::Waker,
    inbox: Mutex<Vec<Conn>>,
}

/// Shared shutdown state: the flag, the live-connection registry and
/// every loop's mailbox.
///
/// The registry maps a per-connection token to a clone of its stream,
/// inserted at accept and removed when its loop drops the connection —
/// entries exist exactly while a connection is live, so the registry
/// neither leaks descriptors on a long-lived server nor holds client
/// sockets half-open after shutdown. It exists so [`trigger`] can
/// half-close read sides from *any* thread, making EOF visible to
/// clients mid-read immediately, before the loops get to their own
/// sweeps.
///
/// [`trigger`]: ServerState::trigger
struct ServerState {
    shutting_down: AtomicBool,
    conns: Mutex<HashMap<u64, TcpStream>>,
    addr: SocketAddr,
    /// One per event loop, indexed by loop number.
    loops: Vec<Mailbox>,
}

impl ServerState {
    /// Flips the server into shutdown: raise the flag, half-close every
    /// registered connection's read side, wake every (possibly blocked)
    /// loop. Idempotent.
    fn trigger(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Ok(conns) = self.conns.lock() {
            for c in conns.values() {
                // Readers see EOF; the write half stays open so queued
                // responses finish intact.
                let _ = c.shutdown(Shutdown::Read);
            }
        }
        for mailbox in &self.loops {
            mailbox.waker.wake();
        }
    }

    /// Registers a freshly accepted connection under its token.
    fn register(&self, token: u64, stream: &TcpStream) {
        if let (Ok(mut conns), Ok(clone)) = (self.conns.lock(), stream.try_clone()) {
            conns.insert(token, clone);
        }
        // Close the race with a concurrent trigger(): a connection
        // accepted after the shutdown sweep but registered only now
        // would otherwise keep its read side open until its loop's own
        // sweep. Checking after the insert means either the sweep saw
        // our entry or we see the flag — also covers a failed try_clone
        // above, since we half-close the stream itself.
        if self.shutting_down.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }

    /// Drops the registry's clone, completing the close once the loop's
    /// own stream is gone.
    fn deregister(&self, token: u64) {
        if let Ok(mut conns) = self.conns.lock() {
            conns.remove(&token);
        }
    }
}

/// A handle that can stop a running [`Server`] from another thread —
/// what in-process embedders (tests, benchmarks) use instead of sending
/// a `shutdown` request over a socket.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Initiates the same graceful shutdown a `{"op":"shutdown"}`
    /// request does. Returns immediately; [`Server::run`] returns once
    /// every loop has flushed its connections and stopped.
    pub fn shutdown(&self) {
        self.state.trigger();
    }
}

/// A bound, not-yet-running query server. See the [module docs](self).
///
/// ```no_run
/// use std::sync::Arc;
/// use utcq_core::serve::Server;
/// use utcq_core::Store;
///
/// # fn main() -> Result<(), utcq_core::Error> {
/// let store = Arc::new(Store::open("data.utcq")?);
/// // Port 0 = ephemeral; read the real port back before blocking.
/// let server = Server::bind(store, "127.0.0.1:0", 4)?;
/// println!("listening on {}", server.local_addr());
/// server.run()?; // blocks until a shutdown request arrives
/// # Ok(()) }
/// ```
pub struct Server {
    listener: TcpListener,
    /// The store every loop executes against: an `Arc<Store>`, or
    /// anything else that lends one.
    store: Arc<dyn Borrow<Store> + Send + Sync>,
    /// Whether `ingest` requests are honored (`utcq serve --writable`).
    /// Read-only servers answer them with the `read_only` error code.
    writable: bool,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port) over a store,
    /// usually an `Arc<Store>`. `threads` is the number of event loops
    /// (clamped to ≥ 1); connection count is independent of it. The
    /// server starts read-only; see [`Server::writable`].
    pub fn bind<S: Borrow<Store> + Send + Sync + 'static>(
        store: Arc<S>,
        addr: &str,
        threads: usize,
    ) -> Result<Self, Error> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let loops = (0..threads.max(1))
            .map(|_| {
                Ok(Mailbox {
                    waker: poll::Waker::new()?,
                    inbox: Mutex::new(Vec::new()),
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Self {
            listener,
            store,
            writable: false,
            state: Arc::new(ServerState {
                shutting_down: AtomicBool::new(false),
                conns: Mutex::new(HashMap::new()),
                addr,
                loops,
            }),
        })
    }

    /// Enables (or disables) the `ingest` op for every connection.
    /// Ingest batches are serialized through the store's writer lock
    /// underneath, so any number of loops may carry them.
    pub fn writable(mut self, writable: bool) -> Self {
        self.writable = writable;
        self
    }

    /// The address actually bound — the resolved port when binding port
    /// `0`.
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// A shutdown handle usable from other threads while [`Server::run`]
    /// blocks.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until shut down (by a `shutdown` request or a
    /// [`ServerHandle`]) and returns once every loop has stopped. Loop
    /// 0 runs on the calling thread.
    pub fn run(self) -> Result<(), Error> {
        self.listener.set_nonblocking(true)?;
        let server = &self;
        // A loop that fails raises shutdown, so the others do not wait
        // forever.
        let run_loop = move |index| {
            server
                .event_loop(index)
                .inspect_err(|_| server.state.trigger())
        };
        let result = std::thread::scope(|scope| {
            let others: Vec<_> = (1..self.state.loops.len())
                .map(|index| scope.spawn(move || run_loop(index)))
                .collect();
            others.into_iter().fold(run_loop(0), |result, other| {
                let panicked = || Err(Error::Io(std::io::Error::other("event loop panicked")));
                result.and(other.join().unwrap_or_else(|_| panicked()))
            })
        });
        // Every loop is gone; drop the connections still in an inbox and
        // the registry clones so client sockets close fully (they would
        // otherwise linger half-open for as long as a ServerHandle is
        // alive).
        for mailbox in &self.state.loops {
            lock(&mailbox.inbox).clear();
        }
        if let Ok(mut conns) = self.state.conns.lock() {
            conns.clear();
        }
        result
    }

    /// Readiness loop `index`: adopts, reads, executes, flushes — and on
    /// loop 0 also accepts — until shutdown has drained its connections.
    fn event_loop(&self, index: usize) -> Result<(), Error> {
        let state = &*self.state;
        let Some(mailbox) = state.loops.get(index) else {
            return Ok(());
        };
        let store: &Store = (*self.store).borrow();
        let poller = poll::Poller::new()?;
        poller.add(mailbox.waker.fd(), TOKEN_WAKER, poll::IN)?;
        let listener = self.listener.as_raw_fd();
        let mut accepting = index == 0;
        if accepting {
            poller.add(listener, TOKEN_LISTENER, poll::IN)?;
        }
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut events = vec![poll::Event::zeroed(); EVENTS_PER_WAIT];
        let mut frames: Vec<Frame> = Vec::new();
        let mut accepted: u64 = 0;
        // Set while the listener is muted after running out of fds.
        let mut muted: Option<Instant> = None;
        // Set once the shutdown sweep has run; bounds the remaining drain.
        let mut draining: Option<Instant> = None;

        loop {
            let deadline = [
                draining.map(|at| at + SHUTDOWN_DRAIN),
                muted.map(|at| at + ACCEPT_BACKOFF),
            ];
            // Rounded up, so the wait never ends just short of a deadline.
            let timeout_ms = deadline.into_iter().flatten().min().map_or(-1, |at| {
                at.saturating_duration_since(Instant::now()).as_millis() as i32 + 1
            });
            let n = poller.wait(&mut events, timeout_ms)?;
            let mut woken = false;
            for &ev in events.iter().take(n) {
                match ev.token() {
                    TOKEN_LISTENER => {
                        muted = self.accept_ready(&poller, &mut conns, &mut accepted);
                    }
                    TOKEN_WAKER => {
                        mailbox.waker.drain();
                        woken = true;
                    }
                    token => {
                        let Some(conn) = conns.get_mut(&token) else {
                            continue;
                        };
                        let ready = ev.readiness();
                        if ready & poll::ERR != 0 {
                            conn.mark_fatal();
                        }
                        if ready & poll::OUT != 0 {
                            conn.flush();
                        }
                        if ready & (poll::IN | poll::HUP | poll::RDHUP) != 0 {
                            self.serve_lines(store, conn, &mut frames);
                        }
                        settle(&poller, state, &mut conns, token);
                    }
                }
            }
            // Taken only after the waker drained, so a connection pushed
            // before its wake is found here at the latest.
            if woken {
                let arrived = std::mem::take(&mut *lock(&mailbox.inbox));
                for conn in arrived {
                    if draining.is_some() {
                        // Past this loop's sweep: drop it unread.
                        state.deregister(conn.token());
                    } else {
                        adopt(&poller, state, &mut conns, conn);
                    }
                }
            }
            if muted.is_some_and(|at| at.elapsed() >= ACCEPT_BACKOFF) {
                muted = None;
                if accepting {
                    let _ = poller.modify(listener, TOKEN_LISTENER, poll::IN);
                }
            }
            // Shutdown sweep, once: stop accepting, half-close every read
            // side (the trigger thread already half-closed registered
            // streams; this also covers conns it raced with), then drain.
            if draining.is_none() && state.shutting_down.load(Ordering::SeqCst) {
                draining = Some(Instant::now());
                if accepting {
                    accepting = false;
                    let _ = poller.remove(listener);
                }
                let tokens: Vec<u64> = conns.keys().copied().collect();
                for token in tokens {
                    if let Some(conn) = conns.get_mut(&token) {
                        conn.half_close_read();
                    }
                    settle(&poller, state, &mut conns, token);
                }
            }
            if let Some(at) = draining {
                if conns.is_empty() {
                    break;
                }
                if at.elapsed() >= SHUTDOWN_DRAIN {
                    // Peers that never drained their responses: force the
                    // remaining sockets closed rather than hang run().
                    for (token, conn) in conns.drain() {
                        let _ = poller.remove(conn.raw_fd());
                        state.deregister(token);
                    }
                    break;
                }
            }
        }
        Ok(())
    }

    /// Accepts every pending connection (nonblocking listener),
    /// registers it for shutdown and hands connection *k* to loop *k*
    /// mod `threads`: loop 0 adopts its own at once, the others get
    /// theirs through their mailbox. Returns the instant the listener
    /// was muted when `accept` ran out of file descriptors.
    fn accept_ready(
        &self,
        poller: &poll::Poller,
        conns: &mut HashMap<u64, Conn>,
        accepted: &mut u64,
    ) -> Option<Instant> {
        let state = &*self.state;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if state.shutting_down.load(Ordering::SeqCst) {
                        continue; // drop it; we are no longer serving
                    }
                    let k = *accepted;
                    *accepted += 1;
                    let token = TOKEN_FIRST_CONN + k;
                    let Ok(conn) = Conn::new(stream, token) else {
                        continue;
                    };
                    state.register(token, conn.stream());
                    let owner = (k % state.loops.len() as u64) as usize;
                    match state.loops.get(owner) {
                        Some(mailbox) if owner != 0 => {
                            // Push, then wake: the other order lets the
                            // loop drain the wake, find an empty inbox
                            // and park with this connection stranded.
                            lock(&mailbox.inbox).push(conn);
                            mailbox.waker.wake();
                        }
                        _ => adopt(poller, state, conns, conn),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if matches!(e.raw_os_error(), Some(EMFILE | ENFILE)) => {
                    let _ = poller.modify(self.listener.as_raw_fd(), TOKEN_LISTENER, 0);
                    return Some(Instant::now());
                }
                // WouldBlock: backlog drained. Anything else: stop for
                // this round; level-triggered readiness retries.
                Err(_) => return None,
            }
        }
    }

    /// Reads whatever `conn` has and executes every complete line on
    /// this thread, in arrival order, queueing each reply behind the
    /// last; the replies leave in one flush.
    fn serve_lines(&self, store: &Store, conn: &mut Conn, frames: &mut Vec<Frame>) {
        frames.clear();
        conn.pump(frames);
        for frame in frames.drain(..) {
            let reply = match frame {
                Frame::Line(line) => wire::execute(store, self.writable, &line),
                Frame::Oversized => wire::oversized_reply(),
            };
            conn.queue_line(&reply.line);
            if reply.shutdown {
                // The ack is the last response this connection gets;
                // any frames pipelined behind it are dropped.
                conn.half_close_read();
                self.state.trigger();
                break;
            }
        }
        conn.flush();
    }
}

/// Locks an inbox; a panic elsewhere cannot leave a `Vec` of
/// connections half-updated, so a poisoned lock is still usable.
fn lock(inbox: &Mutex<Vec<Conn>>) -> std::sync::MutexGuard<'_, Vec<Conn>> {
    inbox.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Registers `conn` with this loop's poller and takes ownership of it.
fn adopt(
    poller: &poll::Poller,
    state: &ServerState,
    conns: &mut HashMap<u64, Conn>,
    mut conn: Conn,
) {
    let token = conn.token();
    if poller.add(conn.raw_fd(), token, poll::IN).is_ok() {
        conn.registered = poll::IN;
        conns.insert(token, conn);
    } else {
        state.deregister(token);
    }
}

/// Post-activity bookkeeping for one connection: drop it when it is
/// finished, otherwise converge its poller registration with the
/// interest it currently wants.
fn settle(poller: &poll::Poller, state: &ServerState, conns: &mut HashMap<u64, Conn>, token: u64) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    if conn.finished() {
        let _ = poller.remove(conn.raw_fd());
        conns.remove(&token);
        state.deregister(token);
        return;
    }
    let want = conn.desired_interest();
    if want != conn.registered && poller.modify(conn.raw_fd(), token, want).is_ok() {
        conn.registered = want;
    }
}

// ---------------------------------------------------------------------
// Replication: the follower loop behind `utcq serve --follow`.

/// How long a caught-up follower waits before asking the leader for
/// news again.
pub const FOLLOW_POLL: std::time::Duration = std::time::Duration::from_millis(200);

/// First reconnect delay; doubles per attempt.
pub const BACKOFF_BASE: Duration = Duration::from_millis(100);

/// Ceiling on the reconnect delay before jitter.
pub const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// The delay before reconnect attempt `attempt` (from 0) of a follower
/// or of `utcq client --addr`: `BACKOFF_BASE · 2^attempt`, capped at
/// [`BACKOFF_CAP`], plus up to half of itself in jitter. The jitter
/// mixes the clock, the process id and the attempt, enough to keep a
/// fleet of reconnecting processes from dialing in step without an RNG
/// dependency.
pub fn reconnect_backoff(attempt: u32) -> Duration {
    let capped = BACKOFF_BASE
        .saturating_mul(1u32 << attempt.min(8))
        .min(BACKOFF_CAP);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let seed = u64::from(nanos) << 17 ^ u64::from(std::process::id()) ^ u64::from(attempt) << 48;
    // splitmix64's finalizer
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    capped + Duration::from_millis(x % (capped.as_millis() as u64 / 2).max(1))
}

/// Sleeps in short slices so a raised `stop` flag is honored promptly.
fn sleep_unless_stopped(total: std::time::Duration, stop: &AtomicBool) {
    let slice = std::time::Duration::from_millis(20);
    let mut left = total;
    while !stop.load(Ordering::SeqCst) && !left.is_zero() {
        let step = left.min(slice);
        std::thread::sleep(step);
        left -= step;
    }
}

/// Streams accepted batches from a leader into this container — the
/// loop behind `utcq serve --follow <addr>`.
///
/// Connects to `leader`, repeatedly asks for batches after the epoch
/// this container is at (`{"op":"tail","from":<epoch>}`), and applies
/// each through the normal ingest path — the same compress-and-publish
/// code the leader ran, which is what makes leader and follower answers
/// byte-identical. On a disconnect it retries with capped exponential
/// backoff plus jitter and resumes from its own epoch, so no batch is
/// applied twice and none is skipped.
///
/// Returns `Ok(())` when `stop` is raised. Returns an error only when
/// following cannot meaningfully continue:
///
/// * the leader answers `tail_gap` — this follower is behind the
///   leader's last checkpoint or bounded feed (or the leader's log no
///   longer reads back) and must re-sync from a fresh container copy;
/// * the leader answers `no_wal` — it was started without `--wal`;
/// * an applied batch publishes under a different epoch than the leader
///   recorded (the stores have diverged).
pub fn follow(store: &Store, leader: &str, stop: &AtomicBool) -> Result<(), Error> {
    let mut attempt: u32 = 0;
    while !stop.load(Ordering::SeqCst) {
        // A failed `dup` (EMFILE, once `connect` took the last
        // descriptor) backs off like a failed connect, not at once.
        let halves = TcpStream::connect(leader).and_then(|s| Ok((s.try_clone()?, s)));
        let Ok((read_half, stream)) = halves else {
            sleep_unless_stopped(reconnect_backoff(attempt), stop);
            attempt = attempt.saturating_add(1);
            continue;
        };
        // A read timeout keeps a hung leader from pinning the loop; a
        // timed-out read is treated like a disconnect.
        let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(5)));
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(stream);
        attempt = 0;
        while !stop.load(Ordering::SeqCst) {
            let from = store.epoch();
            let request = format!("{{\"op\":\"tail\",\"from\":{from}}}\n");
            if writer
                .write_all(request.as_bytes())
                .and_then(|()| writer.flush())
                .is_err()
            {
                break; // reconnect
            }
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break, // EOF, timeout or torn connection
                Ok(_) => {}
            }
            let (batches, _current) = match wire::parse_tail_reply(line.trim_end()) {
                Ok(r) => r,
                Err(msg) => {
                    if msg.starts_with("tail_gap") || msg.starts_with("no_wal") {
                        return Err(Error::Io(std::io::Error::other(format!(
                            "cannot follow {leader}: {msg}"
                        ))));
                    }
                    break; // malformed reply: resync over a fresh connection
                }
            };
            if batches.is_empty() {
                sleep_unless_stopped(FOLLOW_POLL, stop);
                continue;
            }
            for (leader_epoch, batch) in &batches {
                let report = store.ingest(batch)?;
                if report.epoch != *leader_epoch {
                    return Err(Error::Io(std::io::Error::other(format!(
                        "follower diverged from {leader}: batch recorded at leader epoch \
                         {leader_epoch} published locally as epoch {}; re-sync from a fresh \
                         container copy",
                        report.epoch
                    ))));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CompressParams;
    use crate::stiu::StiuParams;
    use std::io::Read;
    use utcq_traj::{paper_fixture, Dataset};

    #[test]
    fn reconnect_backoff_doubles_to_the_cap_plus_half_in_jitter() {
        let ms = Duration::from_millis;
        for (attempt, least) in [(0, ms(100)), (1, ms(200)), (4, ms(1_600)), (6, BACKOFF_CAP)] {
            for _ in 0..50 {
                let d = reconnect_backoff(attempt);
                assert!(d >= least && d < least + least / 2, "{attempt}: {d:?}");
            }
        }
        assert!(reconnect_backoff(u32::MAX) < BACKOFF_CAP * 3 / 2);
    }

    fn paper_store() -> Arc<Store> {
        let fx = paper_fixture::build();
        let ds = Dataset {
            name: "paper".into(),
            default_interval: paper_fixture::DEFAULT_INTERVAL,
            trajectories: vec![fx.tu.clone()],
        };
        let store = Store::build(
            Arc::new(fx.example.net.clone()),
            &ds,
            CompressParams::with_interval(paper_fixture::DEFAULT_INTERVAL),
            StiuParams {
                partition_s: 900,
                grid_n: 4,
            },
        )
        .unwrap();
        Arc::new(store)
    }

    fn roundtrip(addr: SocketAddr, request: &str) -> String {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        writer.write_all(request.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    #[test]
    fn serves_and_shuts_down_over_tcp() {
        let server = Server::bind(paper_store(), "127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();
        let runner = std::thread::spawn(move || server.run().unwrap());

        assert_eq!(
            roundtrip(addr, r#"{"id":1,"op":"ping"}"#),
            r#"{"id":1,"ok":true,"op":"ping"}"#
        );
        let t = paper_fixture::hms(5, 21, 25);
        let resp = roundtrip(addr, &format!(r#"{{"op":"where","traj":1,"t":{t}}}"#));
        assert!(resp.contains(r#""ok":true"#), "{resp}");
        assert!(resp.contains(r#""items":[{"instance":0"#), "{resp}");

        assert_eq!(
            roundtrip(addr, r#"{"op":"shutdown"}"#),
            r#"{"ok":true,"op":"shutdown"}"#
        );
        runner.join().unwrap();
        // The listener is gone: a fresh connection cannot complete a
        // round-trip anymore.
        let dead = TcpStream::connect(addr).and_then(|s| {
            s.set_read_timeout(Some(std::time::Duration::from_millis(200)))?;
            let mut line = String::new();
            BufReader::new(s).read_line(&mut line)?;
            Ok(line)
        });
        match dead {
            Err(_) => {}
            Ok(line) => assert!(line.is_empty(), "unexpected response: {line:?}"),
        }
    }

    #[test]
    fn handle_shuts_down_without_a_client() {
        let server = Server::bind(paper_store(), "127.0.0.1:0", 1).unwrap();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run().unwrap());
        handle.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn pipelined_burst_answers_in_request_order() {
        let server = Server::bind(paper_store(), "127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run().unwrap());

        // Send a whole burst without reading a single response.
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let n = 32;
        for i in 0..n {
            writer
                .write_all(format!("{{\"id\":{i},\"op\":\"ping\"}}\n").as_bytes())
                .unwrap();
        }
        writer.flush().unwrap();
        for i in 0..n {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(
                line.trim_end(),
                format!("{{\"id\":{i},\"ok\":true,\"op\":\"ping\"}}"),
                "response {i} out of order"
            );
        }

        handle.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn idle_connections_survive_while_others_work() {
        let server = Server::bind(paper_store(), "127.0.0.1:0", 2).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run().unwrap());

        // Far more idle connections than event loops.
        let idle: Vec<TcpStream> = (0..16).map(|_| TcpStream::connect(addr).unwrap()).collect();
        assert_eq!(
            roundtrip(addr, r#"{"id":1,"op":"ping"}"#),
            r#"{"id":1,"ok":true,"op":"ping"}"#
        );
        // Idle sockets are still alive: they answer afterwards.
        for (i, s) in idle.iter().enumerate() {
            let mut reader = BufReader::new(s.try_clone().unwrap());
            (s).set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .unwrap();
            let mut w = s;
            w.write_all(format!("{{\"id\":{i},\"op\":\"ping\"}}\n").as_bytes())
                .unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(
                line.trim_end(),
                format!("{{\"id\":{i},\"ok\":true,\"op\":\"ping\"}}")
            );
        }

        handle.shutdown();
        runner.join().unwrap();
        // Idle connections see EOF after shutdown.
        for s in &idle {
            let mut buf = [0u8; 1];
            s.set_read_timeout(Some(std::time::Duration::from_secs(5)))
                .unwrap();
            let mut r = s;
            assert_eq!(r.read(&mut buf).unwrap_or(0), 0);
        }
    }

    #[test]
    fn follower_streams_batches_and_stays_byte_identical() {
        // Leader: paper store with a WAL attached (the tail op reads
        // the log).
        let leader = paper_store();
        let dir = std::env::temp_dir().join(format!("utcq-follow-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal_path = dir.join("leader.wal");
        let _ = std::fs::remove_file(&wal_path);
        leader
            .attach_wal(crate::wal::WalConfig::new(wal_path))
            .unwrap();
        let server = Server::bind(Arc::clone(&leader), "127.0.0.1:0", 2)
            .unwrap()
            .writable(true);
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run().unwrap());

        // Follower: an identical store, tailing the leader.
        let follower = paper_store();
        let stop = Arc::new(AtomicBool::new(false));
        let f_store = Arc::clone(&follower);
        let f_stop = Arc::clone(&stop);
        let leader_addr = addr.to_string();
        let tail = std::thread::spawn(move || follow(&f_store, &leader_addr, &f_stop).unwrap());

        // Publish a batch on the leader over the wire.
        let fx = paper_fixture::build();
        let mut tu = fx.tu.clone();
        tu.id = 9;
        for t in &mut tu.times {
            *t += 100_000;
        }
        let batch = Dataset {
            name: String::new(),
            default_interval: paper_fixture::DEFAULT_INTERVAL,
            trajectories: vec![tu.clone()],
        };
        leader.ingest(&batch).unwrap();

        // The follower catches up within the poll cadence.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while follower.epoch() < 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert_eq!(follower.epoch(), 1, "follower never caught up");

        stop.store(true, Ordering::SeqCst);
        tail.join().unwrap();
        handle.shutdown();
        runner.join().unwrap();

        // Leader and follower answer the same query byte-identically.
        let t = tu.times[0];
        let req = format!(r#"{{"op":"where","traj":9,"t":{t},"alpha":0}}"#);
        let a = wire::handle_line(&leader, &req).line;
        let b = wire::handle_line(&follower, &req).line;
        assert!(a.contains(r#""ok":true"#), "{a}");
        assert_eq!(a, b, "leader and follower answers must be byte-identical");
    }
}
