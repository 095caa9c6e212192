//! The load generator: one TCP connection speaking newline-delimited
//! requests, driven closed-loop (a window of outstanding requests, or
//! depth 1 with a latency per request) or open-loop (a fixed schedule).
//!
//! Replies arrive in request order (PROTOCOL.md), so matching a reply
//! to its request is a FIFO and every reply is compared byte for byte
//! with the expected one as it arrives.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::trace::{SpanId, Trace};

/// A request line (no trailing newline) and the reply it must get.
pub struct Exchange {
    pub request: Vec<u8>,
    pub expected: Vec<u8>,
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        Conn {
            stream,
            buf: vec![0; 1 << 16],
            start: 0,
            end: 0,
        }
    }

    pub fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send request");
    }

    /// Blocks until one full reply line is buffered; returns it without
    /// its newline. The slice is valid until the next call.
    pub fn recv_line(&mut self) -> &[u8] {
        let mut scanned = self.start;
        loop {
            if let Some(off) = self.buf[scanned..self.end].iter().position(|&b| b == b'\n') {
                let line_start = self.start;
                let line_end = scanned + off;
                self.start = line_end + 1;
                return &self.buf[line_start..line_end];
            }
            scanned = self.end;
            if self.end == self.buf.len() {
                if self.start > 0 {
                    self.buf.copy_within(self.start..self.end, 0);
                    scanned -= self.start;
                    self.end -= self.start;
                    self.start = 0;
                } else {
                    let grown = self.buf.len() * 2;
                    self.buf.resize(grown, 0);
                }
            }
            let n = self
                .stream
                .read(&mut self.buf[self.end..])
                .expect("receive reply");
            assert!(n > 0, "server closed the connection mid-run");
            self.end += n;
        }
    }

    /// Whether a complete reply is already buffered (no syscall).
    fn has_line(&self) -> bool {
        self.buf[self.start..self.end].contains(&b'\n')
    }
}

/// Closed loop with `window` requests outstanding: `order` indexes
/// `set`; every reply is checked. Returns (seconds, failed replies).
pub fn run_windowed(conn: &mut Conn, set: &[Exchange], order: &[u32], window: usize) -> (f64, u64) {
    let mut out = Vec::with_capacity(window * 128);
    let mut failed = 0u64;
    let mut sent = 0usize;
    let mut received = 0usize;
    let started = Instant::now();
    while received < order.len() {
        out.clear();
        while sent < order.len() && sent - received < window {
            out.extend_from_slice(&set[order[sent] as usize].request);
            out.push(b'\n');
            sent += 1;
        }
        if !out.is_empty() {
            conn.send(&out);
        }
        // Take one reply (blocking), then whatever else already arrived,
        // so the refill above goes out as one write.
        loop {
            let expected = &set[order[received] as usize].expected;
            failed += u64::from(conn.recv_line() != expected.as_slice());
            received += 1;
            if received == sent || !conn.has_line() {
                break;
            }
        }
    }
    (started.elapsed().as_secs_f64(), failed)
}

/// Depth 1: send one, wait, repeat. Pushes each round trip (µs) onto
/// `latencies_us`; records an `rtt` span per request when tracing.
/// Returns failed replies.
pub fn run_depth1(
    conn: &mut Conn,
    set: &[Exchange],
    order: &[u32],
    latencies_us: &mut Vec<f64>,
    trace: &mut Trace,
    parent: SpanId,
) -> u64 {
    let mut failed = 0u64;
    let mut line = Vec::with_capacity(256);
    for (i, &idx) in order.iter().enumerate() {
        let ex = &set[idx as usize];
        line.clear();
        line.extend_from_slice(&ex.request);
        line.push(b'\n');
        let t0 = Instant::now();
        conn.send(&line);
        let ok = conn.recv_line() == ex.expected.as_slice();
        let t1 = Instant::now();
        failed += u64::from(!ok);
        latencies_us.push((t1 - t0).as_secs_f64() * 1e6);
        if trace.is_on() {
            let start = (t0 - trace.origin()).as_nanos() as u64;
            let end = (t1 - trace.origin()).as_nanos() as u64;
            trace.record("serve.rtt", i as u32, parent, start, end);
        }
    }
    failed
}

/// Depth-1 reads for as long as `stop` is unset (at least one).
pub fn run_depth1_until(
    conn: &mut Conn,
    set: &[Exchange],
    order: &[u32],
    stop: &AtomicBool,
    latencies_us: &mut Vec<f64>,
    trace: &mut Trace,
) -> u64 {
    let mut failed = 0u64;
    let mut at = 0usize;
    loop {
        let end = (at + 64).min(order.len());
        failed += run_depth1(
            conn,
            set,
            &order[at..end],
            latencies_us,
            trace,
            crate::trace::NONE,
        );
        at = if end == order.len() { 0 } else { end };
        if stop.load(Ordering::Acquire) {
            return failed;
        }
    }
}

pub struct OpenLoopReport {
    pub sent: usize,
    pub failed: u64,
    /// Latency from each request's *due* time to its reply, µs, sorted.
    pub latencies_us: Vec<f64>,
    /// How far behind its schedule the generator sent, µs, sorted.
    pub late_us: Vec<f64>,
}

/// Open loop at `rate` requests/s for `duration` on one connection: a
/// writer thread sends on an absolute schedule and never waits for
/// replies, a reader thread stamps replies against the request's due
/// time — so a stall shows up as latency on every request queued
/// behind it instead of as a lower offered rate.
pub fn run_open_loop(
    addr: SocketAddr,
    set: &[Exchange],
    order: &[u32],
    rate: f64,
    duration: Duration,
) -> OpenLoopReport {
    let conn = Conn::connect(addr);
    let writer_stream = conn.stream.try_clone().expect("clone the stream");
    let total = ((rate * duration.as_secs_f64()) as usize).max(1);
    let due_ns = |i: usize| (i as f64 / rate * 1e9) as u64;
    let started = Instant::now();
    let mut report = OpenLoopReport {
        sent: total,
        failed: 0,
        latencies_us: Vec::with_capacity(total),
        late_us: Vec::new(),
    };
    let sent_at = std::thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut stream = writer_stream;
            let mut out = Vec::with_capacity(1 << 14);
            let mut sent_at = Vec::with_capacity(total);
            while sent_at.len() < total {
                let now = started.elapsed().as_nanos() as u64;
                out.clear();
                while sent_at.len() < total && due_ns(sent_at.len()) <= now {
                    let idx = order[sent_at.len() % order.len()] as usize;
                    out.extend_from_slice(&set[idx].request);
                    out.push(b'\n');
                    sent_at.push(now);
                }
                if out.is_empty() {
                    // Sleeping (not spinning) leaves the second core to
                    // the server; the overshoot is reported as lateness.
                    let wait = due_ns(sent_at.len()).saturating_sub(now);
                    std::thread::sleep(Duration::from_nanos(wait));
                    continue;
                }
                stream.write_all(&out).expect("open-loop send");
            }
            stream
                .shutdown(Shutdown::Write)
                .expect("open-loop half-close");
            sent_at
        });
        let mut conn = conn;
        for i in 0..total {
            let expected = &set[order[i % order.len()] as usize].expected;
            let ok = conn.recv_line() == expected.as_slice();
            let now = started.elapsed().as_nanos() as u64;
            report.failed += u64::from(!ok);
            report
                .latencies_us
                .push(now.saturating_sub(due_ns(i)) as f64 / 1e3);
        }
        writer.join().expect("open-loop writer")
    });
    report.late_us = sent_at
        .iter()
        .enumerate()
        .map(|(i, &at)| at.saturating_sub(due_ns(i)) as f64 / 1e3)
        .collect();
    report.latencies_us.sort_by(f64::total_cmp);
    report.late_us.sort_by(f64::total_cmp);
    report
}
