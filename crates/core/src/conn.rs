//! Per-connection state machine for the event-loop server.
//!
//! Each accepted socket becomes a [`Conn`]: a nonblocking stream plus
//! a read buffer (unparsed bytes), a write buffer (responses queued in
//! request order) and a handful of state bits. One of the readiness
//! loops in [`crate::serve`] owns each `Conn`; nothing here blocks, so
//! an idle connection costs the buffers below and a file descriptor —
//! not a thread.
//!
//! # Framing
//!
//! [`Conn::pump`] reads whatever the socket has and cuts it into
//! [`Frame`]s, mirroring the blocking server's `read_line` semantics
//! exactly — that parity is what keeps served answers byte-identical
//! to the offline executor:
//!
//! * lines are split on `\n`, trailing `\r`/`\n` stripped, blank lines
//!   skipped without a response;
//! * a line is handed to the executor as soon as its newline arrives —
//!   or at EOF for an unterminated final line, like `BufRead::lines`;
//! * invalid UTF-8 poisons the connection: queued responses still
//!   flush, nothing after the bad bytes is answered;
//! * a line that outgrows [`wire::MAX_REQUEST_BYTES`] without a newline
//!   yields [`Frame::Oversized`] (answered with the executor's own
//!   `bad_request` line, in order) and the remainder is discarded up to
//!   the next newline, never more than [`DRAIN_BUDGET_BYTES`].
//!
//! # Backpressure
//!
//! Responses append to the write buffer and flush opportunistically.
//! When a slow reader lets the backlog pass [`WRITE_HIGH_WATERMARK`],
//! the connection stops *reading* (its `desired_interest` drops the
//! readable bit) until the backlog drains below
//! [`WRITE_LOW_WATERMARK`] — pipelined producers are throttled by TCP
//! flow control instead of growing server memory.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::{AsRawFd, RawFd};

use crate::poll;
use crate::wire;

/// How many bytes of an over-long request line the server will discard
/// looking for its newline before giving up and closing the connection.
pub const DRAIN_BUDGET_BYTES: u64 = 64 * wire::MAX_REQUEST_BYTES as u64;

/// Write backlog (bytes queued but not yet accepted by the socket) at
/// which a connection stops reading new requests.
pub const WRITE_HIGH_WATERMARK: usize = 256 * 1024;

/// Write backlog below which a paused connection resumes reading.
pub const WRITE_LOW_WATERMARK: usize = 64 * 1024;

/// Most bytes a single [`Conn::pump`] call will pull off one socket —
/// a fairness bound so one firehose connection cannot starve the rest
/// of the loop. Level-triggered readiness re-reports the remainder.
const PUMP_BUDGET_BYTES: usize = 256 * 1024;

/// Read chunk size; also the granularity of the pump budget.
const READ_CHUNK: usize = 64 * 1024;

/// Buffered-line length at which an unterminated request is declared
/// over-long: the cap plus room for `\r\n` plus one sentinel byte —
/// the same `take(MAX + 3)` bound the blocking server used, so the
/// executor sees an identically sized rejection on both designs.
const OVERFLOW_BYTES: usize = wire::MAX_REQUEST_BYTES + 3;

/// One parsed request unit, in arrival order.
pub enum Frame {
    /// A complete request line (terminator stripped, not blank).
    Line(String),
    /// A line that exceeded [`wire::MAX_REQUEST_BYTES`]; the executor's
    /// canonical `bad_request` reply is owed in this slot.
    Oversized,
}

/// One live connection owned by a readiness loop. See the
/// [module docs](self) for the framing and backpressure rules.
pub struct Conn {
    stream: TcpStream,
    token: u64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    read_closed: bool,
    fatal: bool,
    paused: bool,
    /// Remaining discard budget while resynchronizing past an
    /// over-long line; `0` means not draining.
    drain_left: u64,
    /// The interest bits currently registered with the poller — cached
    /// so the loop only issues `epoll_ctl` on a real change.
    pub(crate) registered: u32,
}

impl Conn {
    /// Adopts an accepted stream: switches it nonblocking and disables
    /// Nagle (responses are already coalesced per read; delaying them
    /// further only hurts tail latency).
    pub fn new(stream: TcpStream, token: u64) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            token,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            read_closed: false,
            fatal: false,
            paused: false,
            drain_left: 0,
            registered: 0,
        })
    }

    /// The token this connection is registered under.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// The underlying socket fd, for poller registration.
    pub fn raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// The underlying stream (the serve registry clones it so shutdown
    /// can half-close reads from another thread).
    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Marks the connection unrecoverable; it reports [`finished`]
    /// immediately and is dropped without further I/O.
    ///
    /// [`finished`]: Conn::finished
    pub fn mark_fatal(&mut self) {
        self.fatal = true;
    }

    /// Half-closes the read side: no further requests are parsed (any
    /// buffered, not-yet-executed input is discarded), while queued
    /// responses still flush. Used at shutdown and after
    /// a `shutdown` acknowledgement.
    pub fn half_close_read(&mut self) {
        self.read_closed = true;
        self.read_buf.clear();
        self.drain_left = 0;
        let _ = self.stream.shutdown(Shutdown::Read);
    }

    /// Protocol violation (bad UTF-8, drain budget exhausted): stop
    /// reading, let queued responses flush, then close.
    fn poison(&mut self) {
        self.half_close_read();
    }

    /// Bytes queued but not yet accepted by the socket.
    pub fn write_backlog(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// True when the loop can drop this connection: it is either
    /// unrecoverable, or fully drained (read side closed, every queued
    /// response byte accepted by the socket).
    pub fn finished(&self) -> bool {
        self.fatal || (self.read_closed && self.write_backlog() == 0)
    }

    /// The readiness bits this connection currently wants, applying the
    /// backpressure hysteresis: readable unless the write backlog is
    /// past the high watermark (draining an over-long line keeps
    /// reading — those bytes are discarded, not buffered); writable
    /// while any response bytes are queued.
    pub fn desired_interest(&mut self) -> u32 {
        let backlog = self.write_backlog();
        if backlog > WRITE_HIGH_WATERMARK {
            self.paused = true;
        } else if self.paused && backlog <= WRITE_LOW_WATERMARK {
            self.paused = false;
        }
        if self.fatal {
            return 0;
        }
        let mut want = 0;
        if !self.read_closed && (self.drain_left > 0 || !self.paused) {
            want |= poll::IN;
        }
        if backlog > 0 {
            want |= poll::OUT;
        }
        want
    }

    /// Reads whatever the socket has (bounded by the pump budget) and
    /// appends completed [`Frame`]s in arrival order. Never blocks;
    /// EOF, errors and protocol violations update the connection state
    /// instead of being returned.
    pub fn pump(&mut self, frames: &mut Vec<Frame>) {
        let mut budget = PUMP_BUDGET_BYTES;
        let mut chunk = [0u8; READ_CHUNK];
        while budget > 0 && !self.fatal && !self.read_closed {
            match (&self.stream).read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    // An unterminated final line still executes, like
                    // `BufRead::lines` would have delivered it.
                    self.parse(frames, true);
                    return;
                }
                Ok(n) => {
                    // bounds: `Read::read` returns at most `chunk.len()`.
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    budget = budget.saturating_sub(n);
                    self.parse(frames, false);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.fatal = true;
                    return;
                }
            }
        }
    }

    /// Cuts `read_buf` into frames; `at_eof` additionally flushes an
    /// unterminated trailing line. Consumes from the front with a local
    /// cursor and compacts once, so a buffer full of small lines stays
    /// linear.
    fn parse(&mut self, frames: &mut Vec<Frame>, at_eof: bool) {
        let mut head = 0;
        loop {
            // bounds: `head` only advances past consumed bytes, ≤ len.
            let rest = &self.read_buf[head..];
            if self.drain_left > 0 {
                match rest.iter().position(|&b| b == b'\n') {
                    Some(pos) if (pos as u64) < self.drain_left => {
                        head += pos + 1;
                        self.drain_left = 0;
                        continue;
                    }
                    Some(_) => {
                        // Newline exists but past the budget: give up.
                        self.poison();
                        return;
                    }
                    None => {
                        let n = rest.len() as u64;
                        if n >= self.drain_left {
                            self.poison();
                            return;
                        }
                        self.drain_left -= n;
                        self.read_buf.clear();
                        return;
                    }
                }
            }
            match rest.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    // bounds: `position` returned an index < rest.len().
                    let line = &rest[..pos];
                    match frame_of(line) {
                        Ok(Some(f)) => frames.push(f),
                        Ok(None) => {} // blank line: no response
                        Err(()) => {
                            self.poison();
                            return;
                        }
                    }
                    head += pos + 1;
                }
                None => {
                    if rest.len() >= OVERFLOW_BYTES {
                        // Same shape the blocking server produced: the
                        // first `take(MAX + 3)` bytes must be text (a
                        // non-UTF-8 chunk tore the connection there
                        // too), then one bad_request reply and a
                        // bounded resynchronizing discard.
                        // bounds: rest.len() >= OVERFLOW_BYTES checked.
                        if std::str::from_utf8(&rest[..OVERFLOW_BYTES]).is_err() {
                            self.poison();
                            return;
                        }
                        frames.push(Frame::Oversized);
                        head += OVERFLOW_BYTES;
                        self.drain_left = DRAIN_BUDGET_BYTES;
                        continue;
                    }
                    if at_eof && !rest.is_empty() {
                        match frame_of(rest) {
                            Ok(Some(f)) => frames.push(f),
                            Ok(None) => {}
                            Err(()) => {
                                self.poison();
                                return;
                            }
                        }
                        self.read_buf.clear();
                        return;
                    }
                    break;
                }
            }
        }
        if head > 0 {
            self.read_buf.drain(..head);
        }
    }

    /// Queues one response line, newline-terminated, behind whatever is
    /// still unflushed.
    pub fn queue_line(&mut self, line: &str) {
        if self.fatal {
            return;
        }
        if self.write_pos > 0 {
            // Compact consumed front matter before growing the buffer.
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
        self.write_buf.extend_from_slice(line.as_bytes());
        self.write_buf.push(b'\n');
    }

    /// Writes queued bytes until the socket stops accepting them — one
    /// coalesced flush per read in the common case. Never blocks.
    pub fn flush(&mut self) {
        while !self.fatal && self.write_pos < self.write_buf.len() {
            // bounds: write_pos < len per the loop condition.
            match (&self.stream).write(&self.write_buf[self.write_pos..]) {
                Ok(0) => self.fatal = true,
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => self.fatal = true,
            }
        }
        if self.write_pos > 0 && self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
    }
}

/// Classifies one raw line: `Ok(None)` for blank, `Err` for bytes the
/// blocking server's `read_line` would have failed on (invalid UTF-8).
/// Trailing `\r`/`\n` are stripped exactly like the offline client's
/// `lines()` iterator strips them.
fn frame_of(raw: &[u8]) -> Result<Option<Frame>, ()> {
    let Ok(s) = std::str::from_utf8(raw) else {
        return Err(());
    };
    let s = s.trim_end_matches(['\r', '\n']);
    if s.trim().is_empty() {
        return Ok(None);
    }
    Ok(Some(Frame::Line(s.to_string())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        (client, Conn::new(served, 9).unwrap())
    }

    fn lines_of(frames: &[Frame]) -> Vec<String> {
        frames
            .iter()
            .map(|f| match f {
                Frame::Line(s) => s.clone(),
                Frame::Oversized => "<oversized>".to_string(),
            })
            .collect()
    }

    #[test]
    fn frames_lines_skips_blanks_and_trims_crlf() {
        let (client, mut conn) = pair();
        (&client)
            .write_all(b"{\"op\":\"ping\"}\r\n\n   \n{\"op\":\"info\"}\npartial")
            .unwrap();
        // Give loopback delivery a moment, then pump.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut frames = Vec::new();
        conn.pump(&mut frames);
        assert_eq!(
            lines_of(&frames),
            ["{\"op\":\"ping\"}", "{\"op\":\"info\"}"]
        );
        assert!(!conn.finished());

        // The unterminated tail executes once the peer closes.
        drop(client);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut frames = Vec::new();
        conn.pump(&mut frames);
        assert_eq!(lines_of(&frames), ["partial"]);
        assert!(conn.finished());
    }

    #[test]
    fn oversized_line_yields_marker_and_resynchronizes() {
        let (client, mut conn) = pair();
        // Long enough past the cap that a pump is guaranteed to see
        // OVERFLOW_BYTES of buffered line with the newline still far
        // away — the deterministic marker-and-drain path. (A line whose
        // newline lands in the same read window frames as a normal
        // over-long Line instead; the executor rejects both with the
        // identical bad_request bytes.)
        let big = vec![b'x'; OVERFLOW_BYTES + 300 * 1024];
        let c = client.try_clone().unwrap();
        let w = std::thread::spawn(move || {
            (&c).write_all(&big).unwrap();
            (&c).write_all(b"\n{\"op\":\"ping\"}\n").unwrap();
        });
        let mut frames = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while lines_of(&frames) != ["<oversized>", "{\"op\":\"ping\"}"]
            && std::time::Instant::now() < deadline
        {
            conn.pump(&mut frames);
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        w.join().unwrap();
        assert_eq!(lines_of(&frames), ["<oversized>", "{\"op\":\"ping\"}"]);
        assert!(
            !conn.finished(),
            "connection must survive an oversized line"
        );
    }

    #[test]
    fn invalid_utf8_poisons_after_earlier_lines() {
        let (client, mut conn) = pair();
        (&client)
            .write_all(b"{\"op\":\"ping\"}\n\xff\xfe\n")
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut frames = Vec::new();
        conn.pump(&mut frames);
        // The good line before the garbage still came through.
        assert_eq!(lines_of(&frames), ["{\"op\":\"ping\"}"]);
        // Nothing in flight, nothing queued: the poisoned conn is done.
        assert!(conn.finished());
    }

    #[test]
    fn backpressure_pauses_reads_until_backlog_drains() {
        let (_client, mut conn) = pair();
        conn.queue_line(&"a".repeat(WRITE_HIGH_WATERMARK));
        // Backlog above the high watermark: reads pause, writes wanted.
        let want = conn.desired_interest();
        assert_eq!(want & poll::IN, 0);
        assert_ne!(want & poll::OUT, 0);
        // Draining below the low watermark resumes reads. Simulate the
        // drain by flushing into the (empty) socket buffer.
        conn.flush();
        let want = conn.desired_interest();
        assert_ne!(want & poll::IN, 0);
    }
}
