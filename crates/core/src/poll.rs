//! Minimal raw-fd readiness primitives for the event-loop server.
//!
//! [`Poller`] wraps Linux `epoll` and [`Waker`] wraps an `eventfd`,
//! both through hand-declared `extern "C"` prototypes — the workspace
//! builds offline with no async runtime and no `libc` crate, and the
//! serve loop needs exactly four syscalls: create, register, wait,
//! wake. Sockets themselves stay ordinary [`std::net`] types switched
//! to nonblocking mode; only the file descriptors cross this module's
//! boundary (borrowed via [`std::os::fd::AsRawFd`], never owned here,
//! so descriptor lifetime stays with the `TcpStream`/`TcpListener`
//! that owns it).
//!
//! Level-triggered only: the serve loop re-arms interest explicitly
//! per connection state (see `conn.rs`), which keeps the state machine
//! auditable — a readiness bit is never "remembered" by the kernel on
//! our behalf.

use std::io;
use std::os::fd::RawFd;

/// Readable readiness (kernel `EPOLLIN`).
pub const IN: u32 = 0x1;
/// Writable readiness (kernel `EPOLLOUT`).
pub const OUT: u32 = 0x4;
/// Error condition (kernel `EPOLLERR`; always reported, never armed).
pub const ERR: u32 = 0x8;
/// Peer hangup (kernel `EPOLLHUP`; always reported, never armed).
pub const HUP: u32 = 0x10;
/// Peer half-closed its write side (kernel `EPOLLRDHUP`).
pub const RDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// One readiness report from [`Poller::wait`] — mirrors the kernel's
/// `struct epoll_event` ABI (packed on x86, naturally aligned
/// elsewhere).
#[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
#[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
#[derive(Clone, Copy)]
pub struct Event {
    events: u32,
    data: u64,
}

impl Event {
    /// An empty slot for the wait buffer.
    pub fn zeroed() -> Event {
        Event { events: 0, data: 0 }
    }

    /// The token the fd was registered under.
    pub fn token(&self) -> u64 {
        self.data
    }

    /// The readiness bits ([`IN`], [`OUT`], [`ERR`], [`HUP`],
    /// [`RDHUP`]).
    pub fn readiness(&self) -> u32 {
        self.events
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An `epoll` instance. Registered fds are identified by caller-chosen
/// `u64` tokens; the poller never owns an fd except its own.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates a close-on-exec `epoll` instance.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes a flags int and returns an fd or
        // a negative errno indicator; no memory is exchanged.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = Event {
            events: interest,
            data: token,
        };
        // SAFETY: `ev` is a live, properly laid out epoll_event for the
        // duration of the call; the kernel reads it and does not retain
        // the pointer.
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest bits.
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces the interest bits of an already registered fd. An empty
    /// interest (`0`) keeps the fd registered but mutes readable /
    /// writable reports (`ERR`/`HUP` still fire).
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters `fd`. Harmless to call for an fd the kernel already
    /// dropped from the set (closing an fd auto-removes it).
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        match self.ctl(EPOLL_CTL_DEL, fd, 0, 0) {
            Ok(()) => Ok(()),
            Err(e) if e.raw_os_error() == Some(2) => Ok(()), // ENOENT
            Err(e) => Err(e),
        }
    }

    /// Blocks until at least one registered fd is ready (or `timeout_ms`
    /// elapses; `-1` blocks indefinitely), filling `events` from the
    /// front. Returns how many entries were filled. `EINTR` retries
    /// internally.
    pub fn wait(&self, events: &mut [Event], timeout_ms: i32) -> io::Result<usize> {
        let cap = events.len().min(i32::MAX as usize) as i32;
        if cap == 0 {
            return Ok(0);
        }
        loop {
            // SAFETY: `events` points at `cap` writable Event slots; the
            // kernel fills at most `cap` of them.
            let n = unsafe { epoll_wait(self.epfd, events.as_mut_ptr(), cap, timeout_ms) };
            match cvt(n) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` was returned by epoll_create1 and is closed
        // exactly once, here.
        unsafe { close(self.epfd) };
    }
}

/// A cross-thread wakeup channel for a blocked [`Poller::wait`]:
/// a nonblocking `eventfd` registered with the poller. Other threads
/// call [`Waker::wake`] (a connection hand-off, shutdown); the loop
/// drains it and re-checks its inbox and the shutdown flag.
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Creates a close-on-exec, nonblocking `eventfd` with a zero
    /// counter.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: eventfd takes an initial counter and flags, returns
        // an fd or a negative errno indicator.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Waker { fd })
    }

    /// The fd to register with a [`Poller`] (readable whenever the
    /// counter is nonzero).
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Makes the fd readable. Nonblocking and idempotent-enough: if the
    /// counter is already saturated the write fails with `EAGAIN`,
    /// which still leaves the fd readable — the wakeup is never lost.
    pub fn wake(&self) {
        let one: u64 = 1;
        let buf = one.to_ne_bytes();
        // SAFETY: writes 8 bytes from a live stack buffer; an eventfd
        // write either consumes exactly 8 or fails.
        unsafe { write(self.fd, buf.as_ptr(), buf.len()) };
    }

    /// Resets the counter so the fd stops reporting readable. Returns
    /// whether any wakeups had been posted since the last drain.
    pub fn drain(&self) -> bool {
        let mut buf = [0u8; 8];
        // SAFETY: reads at most 8 bytes into a live stack buffer.
        let n = unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
        n == 8
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: `fd` was returned by eventfd and is closed exactly
        // once, here.
        unsafe { close(self.fd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn waker_wakes_a_blocked_wait_across_threads() {
        let poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.add(waker.fd(), 7, IN).unwrap();

        let w = std::sync::Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            w.wake();
        });

        let mut events = [Event::zeroed(); 4];
        let n = poller.wait(&mut events, 5_000).unwrap();
        t.join().unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert!(events[0].readiness() & IN != 0);
        assert!(waker.drain());
        // Drained: an immediate poll reports nothing.
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
        assert!(!waker.drain());
    }

    #[test]
    fn socket_readiness_tracks_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        served.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(served.as_raw_fd(), 42, IN).unwrap();

        let mut events = [Event::zeroed(); 4];
        // Nothing sent yet: no readiness.
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);

        (&client).write_all(b"hello").unwrap();
        let n = poller.wait(&mut events, 2_000).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 42);
        assert!(events[0].readiness() & IN != 0);

        // Mute the interest: the pending bytes no longer report.
        poller.modify(served.as_raw_fd(), 42, 0).unwrap();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);

        // Re-arm and the level-triggered report returns.
        poller.modify(served.as_raw_fd(), 42, IN).unwrap();
        assert_eq!(poller.wait(&mut events, 2_000).unwrap(), 1);

        let mut buf = [0u8; 8];
        let got = (&served).read(&mut buf).unwrap();
        assert_eq!(&buf[..got], b"hello");

        poller.remove(served.as_raw_fd()).unwrap();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);
    }
}
