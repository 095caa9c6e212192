//! A miniature deterministic model checker for the store's
//! concurrency protocols, in the spirit of `loom` (shipped in-tree —
//! the workspace builds offline).
//!
//! Virtual threads are plain OS threads gated so that **exactly one
//! runs at a time**; they hand control over at explicit yield points —
//! the `utcq_core::hooks::point` instrumentation compiled in by the
//! core's `audit` feature, or direct [`point`] calls in modelled code.
//! A schedule is the sequence of "which thread runs next" choices made
//! at those points. The explorer enumerates schedules by depth-first
//! search over a replayed choice prefix, bounded by the number of
//! *preemptions* (choices that switch away from a thread that could
//! have continued) — the classic CHESS result is that almost all
//! concurrency bugs surface within two or three preemptions, so a
//! small bound buys near-exhaustive coverage at a tractable cost.
//!
//! Determinism is the point: a reported violation carries the exact
//! schedule that produced it, and replaying that schedule reproduces
//! the failure every time.
//!
//! ## Placement rule for yield points
//!
//! A yield point must never sit inside a *contended* critical section:
//! a virtual thread suspended while holding a `std` lock would
//! deadlock any scheduled thread that then takes the same lock (the
//! scheduler detects and reports this as a stall rather than hanging).
//! The hooks in `utcq_core` observe this rule — they bracket lock
//! acquisitions from outside, and the only lock held across a point
//! (the store's writer mutex) is taken by exactly one modelled thread.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once, PoisonError};
use std::time::Duration;

/// Payload used to unwind virtual threads when a run is abandoned
/// (deadlock or replay divergence); never reported as a violation.
const ABORT: &str = "utcq-audit-sched-abort";

/// How long the driver waits without progress before declaring the
/// schedule stalled (a real deadlock, or a blocked virtual thread).
const STALL: Duration = Duration::from_secs(10);

/// Hard cap on choices in one schedule; past it the run is reported
/// as a livelock instead of spinning forever.
const MAX_TRACE: usize = 100_000;

/// Exploration parameters.
#[derive(Clone, Copy, Debug)]
pub struct SchedOpts {
    /// Maximum preemptive context switches per schedule (CHESS-style
    /// bound; non-preemptive switches at thread exit are free).
    pub preemption_bound: usize,
    /// Stop after this many schedules even if the space is larger.
    pub max_schedules: usize,
}

impl Default for SchedOpts {
    fn default() -> Self {
        Self {
            preemption_bound: 4,
            max_schedules: 1_000,
        }
    }
}

/// One interleaving's worth of work: the virtual threads to run, plus
/// an optional quiescence check executed after every thread finished.
pub struct Scenario {
    /// The virtual threads. Index = thread id in schedules/traces.
    pub threads: Vec<Box<dyn FnOnce() + Send + 'static>>,
    /// Runs on the driver after all threads join — for invariants that
    /// only hold at quiescence. A panic here is a violation.
    pub finale: Option<Box<dyn FnOnce() + Send + 'static>>,
}

/// A failed schedule: what broke and exactly how to replay it.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The panic/assertion message.
    pub message: String,
    /// The choice sequence to replay (thread id per yield point).
    pub schedule: Vec<usize>,
    /// Human-readable trace: one `t<id> @ label` entry per choice.
    pub trace: Vec<String>,
}

/// The result of exploring one scenario.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Scenario name (for reporting).
    pub name: String,
    /// Distinct schedules executed.
    pub schedules: usize,
    /// True when the bounded schedule space was fully enumerated.
    pub exhausted: bool,
    /// The first violation found, if any (exploration stops there).
    pub violation: Option<Violation>,
}

#[derive(Clone, Debug)]
struct Choice {
    chosen: usize,
    enabled: Vec<usize>,
    prev: Option<usize>,
    preemption: bool,
    label: &'static str,
}

struct State {
    n: usize,
    registered: usize,
    current: Option<usize>,
    finished: Vec<bool>,
    finished_count: usize,
    prefix: Vec<usize>,
    trace: Vec<Choice>,
    violation: Option<String>,
    aborted: bool,
}

struct Shared {
    mu: Mutex<State>,
    cv: Condvar,
}

impl Shared {
    fn new(n: usize, prefix: Vec<usize>) -> Self {
        Shared {
            mu: Mutex::new(State {
                n,
                registered: 0,
                current: None,
                finished: vec![false; n],
                finished_count: 0,
                prefix,
                trace: Vec::new(),
                violation: None,
                aborted: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        match self.mu.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// First call of every virtual thread: report in, then wait to be
    /// scheduled. The last thread to register makes the first choice.
    fn enter(&self, t: usize) {
        let mut st = self.lock();
        st.registered += 1;
        if st.registered == st.n {
            choose(&mut st, None, "start");
        }
        self.cv.notify_all();
        self.wait_for_turn(st, t);
    }

    /// A yield point: pick who runs next; park if it is not us.
    fn yield_point(&self, t: usize, label: &'static str) {
        let mut st = self.lock();
        if st.aborted {
            drop(st);
            std::panic::panic_any(ABORT);
        }
        choose(&mut st, Some(t), label);
        if st.current == Some(t) {
            return;
        }
        self.cv.notify_all();
        self.wait_for_turn(st, t);
    }

    fn wait_for_turn(&self, mut st: std::sync::MutexGuard<'_, State>, t: usize) {
        loop {
            if st.aborted {
                drop(st);
                std::panic::panic_any(ABORT);
            }
            if st.current == Some(t) {
                return;
            }
            st = match self.cv.wait_timeout(st, Duration::from_millis(100)) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    /// Last call of every virtual thread (normal return or panic):
    /// mark finished and hand control to a remaining thread.
    fn finish(&self, t: usize, panic_msg: Option<String>) {
        let mut st = self.lock();
        st.finished[t] = true;
        st.finished_count += 1;
        if let Some(m) = panic_msg {
            if m != ABORT && st.violation.is_none() {
                st.violation = Some(m);
            }
        }
        if st.finished_count < st.n && !st.aborted && st.violation.is_none() {
            choose(&mut st, Some(t), "exit");
        } else {
            st.current = None;
            // A violation ends the run: release every parked thread.
            if st.violation.is_some() {
                st.aborted = true;
            }
        }
        self.cv.notify_all();
    }

    /// Driver side: wait for all threads to finish; on a stall, mark
    /// the run aborted (parked threads unwind, stuck ones are leaked —
    /// exploration stops right after, so at most once per audit run).
    fn wait_done(&self) -> bool {
        let mut st = self.lock();
        let mut last_progress = (st.registered, st.finished_count, st.trace.len());
        let mut stalled_for = Duration::ZERO;
        loop {
            if st.finished_count == st.n {
                return true;
            }
            let before = std::time::Instant::now();
            st = match self.cv.wait_timeout(st, Duration::from_millis(100)) {
                Ok((g, _)) => g,
                Err(poisoned) => poisoned.into_inner().0,
            };
            let progress = (st.registered, st.finished_count, st.trace.len());
            if progress != last_progress {
                last_progress = progress;
                stalled_for = Duration::ZERO;
            } else {
                stalled_for += before.elapsed();
                if stalled_for >= STALL {
                    if st.violation.is_none() {
                        st.violation = Some(format!(
                            "schedule stalled: no progress for {STALL:?} \
                             (deadlock, or a virtual thread blocked on a real lock)"
                        ));
                    }
                    st.aborted = true;
                    self.cv.notify_all();
                    return false;
                }
            }
        }
    }
}

/// The default extension policy and the DFS alternative order share
/// this: the previously running thread first (run to completion —
/// zero preemptions), then the rest by ascending id.
fn alt_order(prev: Option<usize>, enabled: &[usize]) -> Vec<usize> {
    let default = match prev {
        Some(p) if enabled.contains(&p) => p,
        _ => enabled[0], // bounds: choose() never runs with an empty enabled set
    };
    let mut order = vec![default];
    order.extend(enabled.iter().copied().filter(|&e| e != default));
    order
}

fn choose(st: &mut State, prev: Option<usize>, label: &'static str) {
    let enabled: Vec<usize> = (0..st.n).filter(|&t| !st.finished[t]).collect();
    if enabled.is_empty() {
        st.current = None;
        return;
    }
    if st.trace.len() >= MAX_TRACE {
        if st.violation.is_none() {
            st.violation = Some(format!("livelock: more than {MAX_TRACE} scheduling points"));
        }
        st.aborted = true;
        return;
    }
    let order = alt_order(prev, &enabled);
    let chosen = if st.trace.len() < st.prefix.len() {
        let want = st.prefix[st.trace.len()];
        if enabled.contains(&want) {
            want
        } else {
            // Replay divergence would mean the scenario is
            // nondeterministic; surface it loudly instead of exploring
            // garbage.
            if st.violation.is_none() {
                st.violation = Some(format!(
                    "replay divergence: schedule wants t{want} at step {} \
                     but enabled set is {enabled:?}",
                    st.trace.len()
                ));
            }
            st.aborted = true;
            return;
        }
    } else {
        order[0] // bounds: alt_order returns at least the default
    };
    let preemption = matches!(prev, Some(p) if !st.finished[p] && chosen != p);
    st.trace.push(Choice {
        chosen,
        enabled,
        prev,
        preemption,
        label,
    });
    st.current = Some(chosen);
}

/// The deepest-first next prefix to explore, or `None` when the
/// bounded space is exhausted.
fn next_prefix(trace: &[Choice], bound: usize) -> Option<Vec<usize>> {
    // preemptions_before[i] = preemptions among choices 0..i
    let mut pre = Vec::with_capacity(trace.len() + 1);
    pre.push(0usize);
    for c in trace {
        // bounds: pushed one entry per iteration, last() always present
        let last = *pre.last().unwrap_or(&0);
        pre.push(last + usize::from(c.preemption));
    }
    for i in (0..trace.len()).rev() {
        let c = &trace[i]; // bounds: i < trace.len() by the loop range
        let order = alt_order(c.prev, &c.enabled);
        let Some(cur) = order.iter().position(|&x| x == c.chosen) else {
            continue;
        };
        for &alt in &order[cur + 1..] {
            // bounds: cur < order.len() from position()
            let is_pre = matches!(c.prev, Some(p) if p != alt && c.enabled.contains(&p));
            if pre[i] + usize::from(is_pre) <= bound {
                // bounds: pre has trace.len()+1 entries, i < trace.len()
                let mut p: Vec<usize> = trace[..i].iter().map(|c| c.chosen).collect();
                p.push(alt);
                return Some(p);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// Hook plumbing: route `utcq_core::hooks::point` calls made on
// registered virtual threads into the scheduler; every other thread
// (the driver, `par_run` workers, ordinary tests) no-ops.

thread_local! {
    static VT: std::cell::RefCell<Option<(Arc<Shared>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

fn dispatch(label: &'static str) {
    // Crash injection first: a thread running under `crash::crash_at`
    // dies here when the label matches (no-op for every other thread).
    crate::crash::hit(label);
    // Clone out of the TLS slot before parking: yield_point blocks for
    // arbitrarily long and must not hold the RefCell borrow.
    let ctx = VT.with(|v| v.borrow().clone());
    if let Some((sh, t)) = ctx {
        sh.yield_point(t, label);
    }
}

pub(crate) fn ensure_hooks_installed() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| utcq_core::hooks::install(dispatch));
}

/// An explicit yield point for modelled (non-core) code — mock
/// protocol models call this directly. No-op outside a virtual
/// thread, exactly like the core's instrumented points.
pub fn point(label: &'static str) {
    dispatch(label);
}

fn run_once(prefix: &[usize], factory: &dyn Fn() -> Scenario) -> (Vec<Choice>, Option<String>) {
    let scenario = factory();
    let n = scenario.threads.len();
    let shared = Arc::new(Shared::new(n, prefix.to_vec()));
    let mut handles = Vec::with_capacity(n);
    for (t, f) in scenario.threads.into_iter().enumerate() {
        let sh = Arc::clone(&shared);
        let h = std::thread::Builder::new()
            .name(format!("vthread-{t}"))
            .spawn(move || {
                VT.with(|v| *v.borrow_mut() = Some((Arc::clone(&sh), t)));
                let r = catch_unwind(AssertUnwindSafe(|| {
                    sh.enter(t);
                    f();
                }));
                VT.with(|v| *v.borrow_mut() = None);
                sh.finish(t, r.err().map(crate::quiet::payload_msg));
            })
            .expect("spawn virtual thread");
        handles.push(h);
    }
    let clean = shared.wait_done();
    if clean {
        for h in handles {
            let _ = h.join();
        }
    }
    // On a stall the stuck threads are intentionally leaked (joining
    // would hang); exploration stops at the violation either way.
    let mut st = shared.lock();
    let violation = st.violation.take();
    let trace = std::mem::take(&mut st.trace);
    drop(st);
    if violation.is_none() {
        if let Some(finale) = scenario.finale {
            if let Err(p) = catch_unwind(AssertUnwindSafe(finale)) {
                return (
                    trace,
                    Some(format!("finale: {}", crate::quiet::payload_msg(p))),
                );
            }
        }
        return (trace, None);
    }
    (trace, violation)
}

/// Explores `factory`'s scenario under `opts`, depth-first over the
/// preemption-bounded schedule space. Deterministic: same scenario,
/// same options → same schedules in the same order.
pub fn explore(name: &str, opts: SchedOpts, factory: &dyn Fn() -> Scenario) -> Outcome {
    ensure_hooks_installed();
    crate::quiet::with_quiet_panics(|| {
        let mut prefix: Vec<usize> = Vec::new();
        let mut schedules = 0usize;
        loop {
            let (trace, violation) = run_once(&prefix, factory);
            schedules += 1;
            if let Some(message) = violation {
                let schedule = trace.iter().map(|c| c.chosen).collect();
                let trace = trace
                    .iter()
                    .map(|c| {
                        format!(
                            "t{} @ {}{}",
                            c.chosen,
                            c.label,
                            if c.preemption { "  [preempt]" } else { "" }
                        )
                    })
                    .collect();
                return Outcome {
                    name: name.to_string(),
                    schedules,
                    exhausted: false,
                    violation: Some(Violation {
                        message,
                        schedule,
                        trace,
                    }),
                };
            }
            if schedules >= opts.max_schedules {
                return Outcome {
                    name: name.to_string(),
                    schedules,
                    exhausted: false,
                    violation: None,
                };
            }
            match next_prefix(&trace, opts.preemption_bound) {
                Some(p) => prefix = p,
                None => {
                    return Outcome {
                        name: name.to_string(),
                        schedules,
                        exhausted: true,
                        violation: None,
                    }
                }
            }
        }
    })
}

// ---------------------------------------------------------------------
// Scenarios.

use std::sync::OnceLock;
use utcq_core::snapshot::Swap;
use utcq_core::store::StoreBuilder;
use utcq_core::{CompressParams, Opened, PageRequest, QueryTarget, ShardPolicy, Store, WalConfig};
use utcq_traj::Dataset;

/// The shared tiny dataset: generated once, split into an initial
/// cohort and an ingest batch with disjoint trajectory ids.
fn tiny_batches() -> &'static (Arc<utcq_network::RoadNetwork>, Dataset, Dataset) {
    static DATA: OnceLock<(Arc<utcq_network::RoadNetwork>, Dataset, Dataset)> = OnceLock::new();
    DATA.get_or_init(|| {
        let (net, mut a) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 4, 11);
        let mut b = a.clone();
        b.trajectories = a.trajectories.split_off(2);
        (Arc::new(net), a, b)
    })
}

fn build_store() -> Arc<Store> {
    let (net, a, _) = tiny_batches();
    let store = StoreBuilder::new(
        Arc::clone(net),
        CompressParams::with_interval(a.default_interval),
    )
    .ingest(a)
    .and_then(|b| b.finish())
    .expect("build tiny store");
    Arc::new(store)
}

/// How [`build_sharded`] routes its two shards.
const SHARD_POLICY: utcq_core::ByTime = utcq_core::ByTime { interval_s: 3600 };

fn build_sharded() -> Arc<Store> {
    let (net, a, _) = tiny_batches();
    let store = StoreBuilder::new(
        Arc::clone(net),
        CompressParams::with_interval(a.default_interval),
    )
    .shard_by(Arc::new(SHARD_POLICY), 2)
    .and_then(|b| b.ingest(a))
    .and_then(|b| b.finish())
    .expect("build tiny sharded store");
    Arc::new(store)
}

/// Pinned snapshots are immutable and epochs only move forward, even
/// with an ingest racing the reader; a decode cached through the newer
/// snapshot serves the pin.
pub fn store_pin_vs_ingest() -> Scenario {
    let store = build_store();
    let (_, a, b) = tiny_batches();
    let base = a.trajectories[0].id;
    let new_ids: Vec<u64> = b.trajectories.iter().map(|t| t.id).collect();
    let writer = {
        let store = Arc::clone(&store);
        let b = b.clone();
        Box::new(move || {
            store.ingest(&b).expect("ingest batch");
        }) as Box<dyn FnOnce() + Send>
    };
    let reader = Box::new(move || {
        let pinned = store.snapshot();
        let e1 = pinned.epoch();
        let len1 = pinned.len();
        // Which of the batch's ids the pin already sees (it may see all
        // of them — the pin can land after the writer published).
        let had: Vec<bool> = new_ids
            .iter()
            .map(|&id| pinned.locate(id).is_some())
            .collect();
        // Interleaves with the writer's prepare/publish...
        let s2 = store.snapshot();
        assert!(
            s2.epoch() >= e1,
            "epoch went backwards: {} then {}",
            e1,
            s2.epoch()
        );
        assert!(s2.len() >= len1, "published snapshot lost trajectories");
        // ...but the pinned snapshot must be exactly what it was.
        assert_eq!(pinned.epoch(), e1, "pinned snapshot epoch mutated");
        assert_eq!(pinned.len(), len1, "pinned snapshot len mutated");
        for (&id, &seen_at_pin) in new_ids.iter().zip(&had) {
            assert_eq!(
                pinned.locate(id).is_some(),
                seen_at_pin,
                "pinned snapshot's membership of trajectory {id} changed \
                 after publish"
            );
        }
        // A store only appends, so a decode cached through the newer
        // snapshot serves the pin too: one hit, no miss.
        let times = |snap: &utcq_core::Snapshot| {
            snap.decode_times(base)
                .expect("decode_times")
                .expect("a base trajectory is in every snapshot")
        };
        let newer = times(&s2);
        let before = s2.cache_stats();
        assert_eq!(times(&pinned), newer, "pin and newer snapshot disagree");
        let after = pinned.cache_stats();
        assert_eq!(
            (after.hits - before.hits, after.misses - before.misses),
            (1, 0),
            "the pin's decode of trajectory {base} did not hit the newer snapshot's entry"
        );
    }) as Box<dyn FnOnce() + Send>;
    Scenario {
        threads: vec![writer, reader],
        finale: None,
    }
}

/// A sharded batch is visible on every shard at once or on none: the
/// partitions of `snapshots()` and the `info` total always sum to the
/// store's length before or after a batch the setup routes to both
/// shards, never to a mix. Every id a pinned `Snapshot` locates is the
/// trajectory stored at that partition and position and answers a
/// `where` from there, and epochs are monotonic.
pub fn sharded_ingest_vs_query() -> Scenario {
    let store = build_sharded();
    let (net, a, b) = tiny_batches();
    let routes: std::collections::BTreeSet<u32> = b
        .trajectories
        .iter()
        .map(|tu| SHARD_POLICY.route(net, tu, 2))
        .collect();
    assert_eq!(routes.len(), 2, "the batch must touch both shards");
    let (before, after) = (
        a.trajectories.len(),
        a.trajectories.len() + b.trajectories.len(),
    );
    let new_ids: Vec<(u64, i64)> = b.trajectories.iter().map(|t| (t.id, t.times[0])).collect();
    let writer = {
        let store = Arc::clone(&store);
        let b = b.clone();
        Box::new(move || {
            store.ingest(&b).expect("sharded ingest");
        }) as Box<dyn FnOnce() + Send>
    };
    let reader = Box::new(move || {
        let e1 = store.epoch();
        let summed: usize = store.snapshots().iter().map(|s| s.len()).sum();
        assert!(
            summed == before || summed == after,
            "torn cut: snapshots() sum to {summed} trajectories, \
             neither {before} (before the batch) nor {after} (after)"
        );
        let total = store.info().trajectories;
        assert!(
            total == before || total == after,
            "torn cut: info() reports {total} trajectories, \
             neither {before} (before the batch) nor {after} (after)"
        );
        let pinned = store.snapshot();
        for &(id, t0) in &new_ids {
            let Some((p, j)) = pinned.locate(id) else {
                continue;
            };
            let part = pinned.partitions().get(p as usize);
            let rows = part.map(|part| &part.compressed().trajectories);
            let stored = rows.and_then(|rows| rows.get(j as usize)).map(|ct| ct.id);
            assert_eq!(
                stored,
                Some(id),
                "half-published state: the pinned id map places {id} at \
                 ({p}, {j}), which holds {stored:?}"
            );
            let hits = pinned.where_query(id, t0, 0.0, PageRequest::all());
            assert!(
                hits.is_ok_and(|page| !page.items.is_empty()),
                "pinned where on {id} does not answer from partition {p}"
            );
        }
        let e2 = store.epoch();
        assert!(e2 >= e1, "epoch went backwards: {e1} then {e2}");
    }) as Box<dyn FnOnce() + Send>;
    Scenario {
        threads: vec![writer, reader],
        finale: None,
    }
}

/// `Swap` publication is atomic and ordered: a reader sees values in
/// publication order, never a torn or stale-after-fresh value.
pub fn swap_publish_order() -> Scenario {
    let sw = Arc::new(Swap::new(Arc::new(0u64)));
    let writer = {
        let sw = Arc::clone(&sw);
        Box::new(move || {
            sw.store(Arc::new(1));
            sw.store(Arc::new(2));
        }) as Box<dyn FnOnce() + Send>
    };
    let reader = Box::new(move || {
        let a = *sw.load();
        let b = *sw.load();
        assert!(b >= a, "swap went backwards: read {a} then {b}");
        assert!(a <= 2 && b <= 2, "swap produced a value never stored");
    }) as Box<dyn FnOnce() + Send>;
    Scenario {
        threads: vec![writer, reader],
        finale: None,
    }
}

// -- Serve shutdown model ---------------------------------------------

/// `serve.rs`'s shutdown handshake, modelled 1:1 so the checker can
/// enumerate its interleavings without real sockets:
///
/// * `trigger` = flag, then sweep: half-close the **read** side of
///   every registered connection (write sides stay open — queued
///   responses always complete), then wake every loop (the wake is
///   `serve_wake_order`'s subject).
/// * `register` = insert into the registry, then re-check the flag
///   (the real code's comment: either the sweep saw our entry or we
///   see the flag).
///
/// One loop owns a connection for its whole life: each connection's
/// virtual thread below is the loop that owns it, reading and
/// executing that connection's requests. "Parked in a read" is that
/// loop waiting on `EPOLLIN` for the connection, which the sweep's
/// half-close converts to EOF.
///
/// `serve_shutdown_scenario(false)` deletes the re-check — the seeded
/// bug the self-test proves the checker catches.
struct MockConn {
    read_open: AtomicBool,
    responses: Mutex<Vec<String>>,
    /// The owning loop waits for this connection to become readable
    /// (still registered, as in the real code — only an EOF from the
    /// shutdown sweep ends the wait).
    blocked_in_read: AtomicBool,
    /// The owning loop saw an open read side and executed the request.
    accepted: AtomicBool,
}

struct MockState {
    shutting_down: AtomicBool,
    conns: Mutex<HashMap<u64, Arc<MockConn>>>,
    next_token: AtomicU64,
    recheck: bool,
}

impl MockState {
    fn trigger(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        point("mock.trigger.flagged");
        let conns = match self.conns.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        for c in conns.values() {
            c.read_open.store(false, Ordering::SeqCst);
        }
        drop(conns);
        point("mock.trigger.swept");
    }

    fn register(&self, conn: &Arc<MockConn>) -> u64 {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        match self.conns.lock() {
            Ok(mut g) => {
                g.insert(token, Arc::clone(conn));
            }
            Err(p) => {
                p.into_inner().insert(token, Arc::clone(conn));
            }
        }
        point("mock.registered");
        if self.recheck && self.shutting_down.load(Ordering::SeqCst) {
            conn.read_open.store(false, Ordering::SeqCst);
        }
        token
    }

    fn deregister(&self, token: u64) {
        match self.conns.lock() {
            Ok(mut g) => {
                g.remove(&token);
            }
            Err(p) => {
                p.into_inner().remove(&token);
            }
        }
    }
}

fn serve_shutdown_scenario(recheck: bool) -> Scenario {
    let state = Arc::new(MockState {
        shutting_down: AtomicBool::new(false),
        conns: Mutex::new(HashMap::new()),
        next_token: AtomicU64::new(0),
        recheck,
    });
    let conns: Vec<Arc<MockConn>> = (0..2)
        .map(|_| {
            Arc::new(MockConn {
                read_open: AtomicBool::new(true),
                responses: Mutex::new(Vec::new()),
                blocked_in_read: AtomicBool::new(false),
                accepted: AtomicBool::new(false),
            })
        })
        .collect();

    let shutdown = {
        let state = Arc::clone(&state);
        Box::new(move || state.trigger()) as Box<dyn FnOnce() + Send>
    };
    let mut threads = vec![shutdown];
    // Conn 0 is an idle client (no request pending: its loop waits for
    // it to become readable at once); conn 1 has one request on the
    // wire. Each is owned by its own loop, which never deregisters a
    // connection it waits on — only the sweep's EOF ends the wait.
    for (i, conn) in conns.iter().enumerate() {
        let has_request = i == 1;
        let state = Arc::clone(&state);
        let conn = Arc::clone(conn);
        threads.push(Box::new(move || {
            let token = state.register(&conn);
            point("mock.read");
            if !has_request {
                // Nothing on the wire: wait for readability, keeping
                // the registry entry (as the real loop does).
                conn.blocked_in_read.store(true, Ordering::SeqCst);
                return;
            }
            if !conn.read_open.load(Ordering::SeqCst) {
                // Read side already half-closed: EOF, clean refusal.
                state.deregister(token);
                return;
            }
            conn.accepted.store(true, Ordering::SeqCst);
            point("mock.handled");
            // The write side is never closed by shutdown, so an
            // accepted request always produces one complete line.
            match conn.responses.lock() {
                Ok(mut g) => g.push("response".to_string()),
                Err(p) => p.into_inner().push("response".to_string()),
            }
            // The loop checks the flag after each round of requests.
            if state.shutting_down.load(Ordering::SeqCst) {
                state.deregister(token);
                return;
            }
            point("mock.read2");
            // Back to waiting for the next request.
            conn.blocked_in_read.store(true, Ordering::SeqCst);
        }) as Box<dyn FnOnce() + Send>);
    }

    let finale = {
        let state = Arc::clone(&state);
        Box::new(move || {
            // Quiescence: shutdown has completed and every loop has
            // either dropped its connection or waits on it. A waited-on
            // connection whose read side is still open never reports
            // EOF — that wedges shutdown (the race the register
            // re-check closes). A loop that finished with its
            // connection before shutdown may leave the read side open.
            assert!(state.shutting_down.load(Ordering::SeqCst));
            for (i, conn) in conns.iter().enumerate() {
                if conn.blocked_in_read.load(Ordering::SeqCst) {
                    assert!(
                        !conn.read_open.load(Ordering::SeqCst),
                        "conn {i}: loop waits on a connection with its \
                         read side still open — no EOF coming, shutdown wedges"
                    );
                }
                let responses = match conn.responses.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                if conn.accepted.load(Ordering::SeqCst) {
                    assert_eq!(
                        responses.len(),
                        1,
                        "conn {i}: accepted request must produce exactly one \
                         complete response: {responses:?}"
                    );
                } else {
                    assert!(
                        responses.is_empty(),
                        "conn {i}: refused connection wrote a response: \
                         {responses:?}"
                    );
                }
            }
        }) as Box<dyn FnOnce() + Send>
    };

    Scenario {
        threads,
        finale: Some(finale),
    }
}

// -- WAL append vs publish ordering -----------------------------------

/// The durability ordering invariant on the live ingest path: by the
/// time a reader can observe a new epoch, the batch's record is
/// already in the write-ahead log file. The container is seeded at
/// epoch 0, so the log's stored (base-relative) record epochs are
/// absolute here and "published epoch ≤ complete records on disk" is
/// exactly the append-before-publish window the hooks bracket.
pub fn wal_append_vs_publish() -> Scenario {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "utcq-sched-wal-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    std::fs::create_dir_all(&dir).expect("mk sched wal dir");
    let (_, _, b) = tiny_batches();
    let container = dir.join("c.utcq");
    build_store().save(&container).expect("seed container");
    let wal_path = dir.join("log.wal");
    let store = Arc::new(
        Opened::open_durable(&container, WalConfig::new(&wal_path)).expect("open durable"),
    );

    let writer = {
        let store = Arc::clone(&store);
        let b = b.clone();
        Box::new(move || {
            store.ingest(&b).expect("durable ingest");
        }) as Box<dyn FnOnce() + Send>
    };
    let reader = {
        let store = Arc::clone(&store);
        Box::new(move || {
            // Order matters: observe the published epoch FIRST, then
            // read the file. The log only grows, so any record count
            // read afterwards is an upper bound on what existed when
            // the epoch became visible.
            let e = store.epoch();
            point("wal.reader.scan");
            let logged = std::fs::read(&wal_path)
                .ok()
                .and_then(|bytes| utcq_core::wal::scan(&bytes).ok())
                .map_or(0, |s| s.records.len() as u64);
            assert!(
                e <= logged,
                "epoch {e} published before its record hit the log \
                 ({logged} complete records on disk)"
            );
        }) as Box<dyn FnOnce() + Send>
    };
    Scenario {
        threads: vec![writer, reader],
        finale: Some(Box::new(move || {
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        })),
    }
}

/// A 1:1 mock of the same append→publish window, parameterized on the
/// ordering: `append_first` is the real protocol (record into the log,
/// then publish the epoch); flipping it is the seeded bug the
/// self-test proves the checker catches.
fn wal_publish_order_scenario(append_first: bool) -> Scenario {
    let log = Arc::new(AtomicU64::new(0)); // complete records in the "file"
    let epoch = Arc::new(AtomicU64::new(0)); // published epoch
    let writer = {
        let log = Arc::clone(&log);
        let epoch = Arc::clone(&epoch);
        Box::new(move || {
            if append_first {
                log.fetch_add(1, Ordering::SeqCst);
                point("mock.wal.appended");
                epoch.store(1, Ordering::SeqCst);
            } else {
                epoch.store(1, Ordering::SeqCst);
                point("mock.wal.appended");
                log.fetch_add(1, Ordering::SeqCst);
            }
        }) as Box<dyn FnOnce() + Send>
    };
    let reader = Box::new(move || {
        let e = epoch.load(Ordering::SeqCst);
        point("mock.wal.scan");
        let logged = log.load(Ordering::SeqCst);
        assert!(
            e <= logged,
            "mock epoch {e} published before its record was appended \
             ({logged} records)"
        );
    }) as Box<dyn FnOnce() + Send>;
    Scenario {
        threads: vec![writer, reader],
        finale: None,
    }
}

/// The faithful mock of the append-then-publish ordering.
pub fn wal_publish_order() -> Scenario {
    wal_publish_order_scenario(true)
}

/// The broken publish-before-append variant; used by self-tests to
/// prove the checker finds the durability race it exists to close.
pub fn wal_publish_order_broken() -> Scenario {
    wal_publish_order_scenario(false)
}

// -- Batch ingest: results taken in input order ------------------------

/// A 1:1 mock of `utcq_core::par::par_in_order`, the work queue a batch
/// ingest runs on: two workers pull item indices from a shared counter,
/// make each item and leave it in the item's own slot; once both are
/// joined, the caller takes the slots in index order, and a thread of
/// the round, not the caller, frees what the workers made. Whatever the
/// workers' interleaving, the caller sees items 0, 1, 2 in that order
/// (so container bytes never depend on the core count), and it frees
/// nothing itself.
///
/// Taking the items in the order they were finished (`in_order =
/// false`) is the seeded bug the self-test proves the checker catches:
/// a worker that claims a later index and stores it first reorders the
/// batch.
fn par_in_order_scenario(in_order: bool) -> Scenario {
    const ITEMS: usize = 3;
    let next = Arc::new(AtomicU64::new(0));
    // Per slot, the item made for it; and the slots in finishing order.
    let made = Arc::new(Mutex::new((vec![None; ITEMS], Vec::new())));
    let worker = || {
        let (next, made) = (Arc::clone(&next), Arc::clone(&made));
        Box::new(move || loop {
            let k = next.fetch_add(1, Ordering::SeqCst) as usize;
            point("mock.par.claimed");
            if k >= ITEMS {
                return;
            }
            let item = vec![k as u64; 2]; // a worker's allocation
            point("mock.par.made");
            let mut slots = made.lock().unwrap_or_else(PoisonError::into_inner);
            slots.0[k] = Some(item);
            slots.1.push(k);
        }) as Box<dyn FnOnce() + Send>
    };
    let workers = vec![worker(), worker()];
    let finale = Box::new(move || {
        let (slots, finished) =
            std::mem::take(&mut *made.lock().unwrap_or_else(PoisonError::into_inner));
        let order: Vec<usize> = if in_order {
            (0..ITEMS).collect()
        } else {
            finished
        };
        let taken: Vec<u64> = order
            .iter()
            .filter_map(|&k| Some(slots[k].as_ref()?[0]))
            .collect();
        assert_eq!(taken, [0, 1, 2], "results taken out of input order");
        // The round's allocations are freed on another thread.
        let caller = std::thread::current().id();
        let freed_on = std::thread::spawn(move || {
            drop(slots);
            std::thread::current().id()
        });
        let freed_on = freed_on.join().unwrap_or(caller);
        assert_ne!(
            freed_on, caller,
            "a worker's allocation freed on the caller"
        );
    }) as Box<dyn FnOnce() + Send>;
    Scenario {
        threads: workers,
        finale: Some(finale),
    }
}

/// The faithful mock of `par_in_order`: slots taken in index order.
pub fn par_in_order() -> Scenario {
    par_in_order_scenario(true)
}

/// The broken variant that takes results as they finish; used by the
/// self-test to prove the checker finds the reordering.
pub fn par_in_order_broken() -> Scenario {
    par_in_order_scenario(false)
}

// -- Chunk-directory publication order --------------------------------

/// A 1:1 mock of the segmented snapshot publish path
/// (`utcq_core::segment::Segments` behind the epoch `Swap`): the writer
/// fills the tail chunk's storage and THEN publishes a directory that
/// claims the new length (`fill_first = true`, the real ordering — the
/// next epoch's directory only becomes reachable via `Swap::store`
/// after its chunks are complete). A reader pinned across the
/// directory swap must never observe a *half-published* directory: every
/// element the pinned length claims must already be backed by filled
/// chunk storage, and the published length is monotonic.
///
/// Flipping the order (publish the longer directory, then fill the
/// tail) is the seeded bug the self-test proves the checker catches.
fn chunk_publish_order_scenario(fill_first: bool) -> Scenario {
    let dir_len = Arc::new(AtomicU64::new(0)); // published directory length
    let chunk = Arc::new(Mutex::new(Vec::<u64>::new())); // tail-chunk storage
    fn lock(m: &Mutex<Vec<u64>>) -> std::sync::MutexGuard<'_, Vec<u64>> {
        match m.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }
    let writer = {
        let dir_len = Arc::clone(&dir_len);
        let chunk = Arc::clone(&chunk);
        Box::new(move || {
            // Two publish rounds so a reader can pin across a swap.
            for round in 1..=2u64 {
                if fill_first {
                    lock(&chunk).push(round);
                    point("mock.chunk.filled");
                    dir_len.store(round, Ordering::SeqCst);
                } else {
                    dir_len.store(round, Ordering::SeqCst);
                    point("mock.chunk.filled");
                    lock(&chunk).push(round);
                }
                point("mock.chunk.published");
            }
        }) as Box<dyn FnOnce() + Send>
    };
    let reader = Box::new(move || {
        let pinned = dir_len.load(Ordering::SeqCst) as usize;
        point("mock.chunk.pin");
        {
            let c = lock(&chunk);
            assert!(
                pinned <= c.len(),
                "half-published directory: claims {pinned} elements, \
                 chunk holds {}",
                c.len()
            );
            for (i, &v) in c.iter().take(pinned).enumerate() {
                assert_eq!(
                    v,
                    i as u64 + 1,
                    "published element {i} not yet backed by its data"
                );
            }
        }
        let later = dir_len.load(Ordering::SeqCst) as usize;
        assert!(
            later >= pinned,
            "directory length went backwards: {pinned} then {later}"
        );
    }) as Box<dyn FnOnce() + Send>;
    Scenario {
        threads: vec![writer, reader],
        finale: None,
    }
}

/// The faithful fill-then-publish chunk-directory model.
pub fn chunk_publish_order() -> Scenario {
    chunk_publish_order_scenario(true)
}

/// The broken publish-before-fill variant; used by self-tests to prove
/// the checker finds the torn-directory race it exists to rule out.
pub fn chunk_publish_order_broken() -> Scenario {
    chunk_publish_order_scenario(false)
}

/// The faithful serve shutdown model (with the register re-check).
pub fn serve_shutdown() -> Scenario {
    serve_shutdown_scenario(true)
}

/// The broken variant without the re-check; used by self-tests to
/// prove the checker finds the race it exists to close.
pub fn serve_shutdown_without_recheck() -> Scenario {
    serve_shutdown_scenario(false)
}

// -- Serve event-loop wake ordering -----------------------------------

/// The shutdown-flag/eventfd-wake handshake between
/// `ServerState::trigger` and the server's event loops, mocked 1:1:
///
/// * `trigger` sets the shutdown flag **before** it writes each loop's
///   eventfd (`flag_first = true`, the real ordering), and it wakes
///   every loop, since each loop owns connections only it can drain;
/// * a loop, when woken, drains its eventfd and *then* checks the flag;
///   with nothing pending and no flag it goes back to a blocking
///   `epoll_wait` — modelled here as parking.
///
/// Flipping the order (wakes before flag) lets a loop consume its wake,
/// observe a clear flag, and block again with no further wake coming —
/// shutdown wedges. The quiescence invariant: no loop is parked while
/// the flag is set with no wake pending for it.
fn serve_wake_order_scenario(flag_first: bool) -> Scenario {
    const LOOPS: usize = 2;
    let flag = Arc::new(AtomicBool::new(false));
    let wake_pending: Arc<Vec<AtomicBool>> =
        Arc::new((0..LOOPS).map(|_| AtomicBool::new(false)).collect());
    let parked: Arc<Vec<AtomicBool>> =
        Arc::new((0..LOOPS).map(|_| AtomicBool::new(false)).collect());

    let trigger = {
        let flag = Arc::clone(&flag);
        let wake_pending = Arc::clone(&wake_pending);
        Box::new(move || {
            let wake_all = || {
                for pending in wake_pending.iter() {
                    pending.store(true, Ordering::SeqCst);
                    point("mock.wake.woken");
                }
            };
            if flag_first {
                flag.store(true, Ordering::SeqCst);
                point("mock.wake.flagged");
                wake_all();
            } else {
                wake_all();
                flag.store(true, Ordering::SeqCst);
            }
        }) as Box<dyn FnOnce() + Send>
    };
    let mut threads = vec![trigger];
    for i in 0..LOOPS {
        let flag = Arc::clone(&flag);
        let wake_pending = Arc::clone(&wake_pending);
        let parked = Arc::clone(&parked);
        threads.push(Box::new(move || {
            // Terminates: the trigger arms each wake at most once, so at
            // most two iterations run before a park or a flag sighting.
            loop {
                let woke = wake_pending[i].swap(false, Ordering::SeqCst);
                point("mock.loop.drained");
                if flag.load(Ordering::SeqCst) {
                    return; // observed shutdown; sweep follows
                }
                if !woke {
                    // Nothing pending: the real loop re-enters a
                    // blocking epoll_wait here.
                    parked[i].store(true, Ordering::SeqCst);
                    return;
                }
            }
        }) as Box<dyn FnOnce() + Send>);
    }
    let finale = Box::new(move || {
        // A parked loop is fine while its wake is pending (epoll_wait
        // returns immediately) — but parked with the flag set and its
        // eventfd drained means no one will ever deliver the shutdown.
        for i in 0..LOOPS {
            assert!(
                !(parked[i].load(Ordering::SeqCst)
                    && flag.load(Ordering::SeqCst)
                    && !wake_pending[i].load(Ordering::SeqCst)),
                "event loop {i} parked in epoll_wait with the shutdown flag \
                 set and its wake already consumed — shutdown wedges"
            );
        }
    }) as Box<dyn FnOnce() + Send>;
    Scenario {
        threads,
        finale: Some(finale),
    }
}

/// The faithful flag-then-wake ordering of `ServerState::trigger`.
pub fn serve_wake_order() -> Scenario {
    serve_wake_order_scenario(true)
}

/// The broken wake-then-flag variant; used by self-tests to prove the
/// checker finds the lost-wakeup race it exists to close.
pub fn serve_wake_order_broken() -> Scenario {
    serve_wake_order_scenario(false)
}

// -- Serve pipelined response ordering --------------------------------

/// The pipelining contract (`PROTOCOL.md`): responses leave in request
/// order, and a read pipelined behind an `ingest` on the same
/// connection observes that ingest. The server guarantees both by
/// ownership: one loop owns a connection and executes its lines one
/// after another on its own thread; connections owned by different
/// loops interleave freely.
///
/// Connection A pipelines an ingest (which publishes epoch 1) and two
/// reads, each of which records the epoch it saw; connection B
/// pipelines two plain requests. `owned = false` models the tempting
/// design without ownership — loops sharing one readiness set, so two
/// loops may each take part of A's lines — and the self-test proves
/// the checker catches the reordering it allows.
fn serve_pipeline_order_scenario(owned: bool) -> Scenario {
    fn push(out: &Arc<Mutex<Vec<u64>>>, v: u64) {
        match out.lock() {
            Ok(mut g) => g.push(v),
            Err(p) => p.into_inner().push(v),
        }
    }
    let epoch = Arc::new(AtomicU64::new(0));
    let conn_a: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let conn_b: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    // Request `i` of connection A: 1 is the ingest, later ones are reads
    // that answer with the epoch they observed next to their number.
    let exec_a = {
        let epoch = Arc::clone(&epoch);
        let a = Arc::clone(&conn_a);
        move |i: u64| {
            point("mock.pipe.exec");
            if i == 1 {
                epoch.store(1, Ordering::SeqCst);
            }
            push(&a, i * 10 + epoch.load(Ordering::SeqCst));
        }
    };
    let threads: Vec<Box<dyn FnOnce() + Send>> = if owned {
        // Loop 0 owns connection A, loop 1 owns connection B.
        let b = Arc::clone(&conn_b);
        vec![
            Box::new(move || (1..=3).for_each(exec_a)),
            Box::new(move || {
                for i in 1..=2 {
                    point("mock.pipe.exec");
                    push(&b, i);
                }
            }),
        ]
    } else {
        // Connection A's lines split across two loops.
        let other = exec_a.clone();
        vec![
            Box::new(move || {
                exec_a(1);
                exec_a(3);
            }),
            Box::new(move || other(2)),
        ]
    };
    let finale = Box::new(move || {
        let a = match conn_a.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        };
        assert_eq!(
            a.iter().map(|v| v / 10).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "connection A's responses left out of request order"
        );
        assert!(
            a.iter().all(|v| v % 10 == 1),
            "a read pipelined behind connection A's ingest did not observe it: {a:?}"
        );
        let b = match conn_b.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        };
        if !b.is_empty() {
            assert_eq!(
                b,
                vec![1, 2],
                "connection B's responses left out of request order"
            );
        }
    }) as Box<dyn FnOnce() + Send>;
    Scenario {
        threads,
        finale: Some(finale),
    }
}

/// The faithful model: one loop owns each connection.
pub fn serve_pipeline_order() -> Scenario {
    serve_pipeline_order_scenario(true)
}

/// The broken variant where two loops share connection A; used by
/// self-tests to prove the checker finds the reordering it exists to
/// rule out.
pub fn serve_pipeline_order_broken() -> Scenario {
    serve_pipeline_order_scenario(false)
}

// -- Serve connection hand-off ----------------------------------------

/// Loop 0's hand-off of an accepted connection to another loop: push
/// the connection to that loop's inbox, **then** write its eventfd
/// (`push_first = true`, the real ordering). The receiving loop drains
/// its eventfd and *then* takes its inbox; with nothing taken and no
/// wake drained it re-enters a blocking `epoll_wait` — modelled here as
/// parking.
///
/// Flipping the order (wake, then push) lets the loop drain the wake,
/// find an empty inbox and park while the connection lands behind it:
/// a stranded connection nobody reads. The quiescence invariant: no
/// loop is parked with a connection in its inbox and no wake pending.
fn serve_handoff_order_scenario(push_first: bool) -> Scenario {
    let inbox = Arc::new(AtomicU64::new(0));
    let wake_pending = Arc::new(AtomicBool::new(false));
    let parked = Arc::new(AtomicBool::new(false));

    let acceptor = {
        let inbox = Arc::clone(&inbox);
        let wake_pending = Arc::clone(&wake_pending);
        Box::new(move || {
            if push_first {
                inbox.fetch_add(1, Ordering::SeqCst);
                point("mock.handoff.pushed");
                wake_pending.store(true, Ordering::SeqCst);
            } else {
                wake_pending.store(true, Ordering::SeqCst);
                point("mock.handoff.woken");
                inbox.fetch_add(1, Ordering::SeqCst);
            }
        }) as Box<dyn FnOnce() + Send>
    };
    let owner = {
        let inbox = Arc::clone(&inbox);
        let wake_pending = Arc::clone(&wake_pending);
        let parked = Arc::clone(&parked);
        Box::new(move || {
            // Terminates: one wake means at most two iterations before
            // the connection is adopted or the loop parks.
            loop {
                let woke = wake_pending.swap(false, Ordering::SeqCst);
                point("mock.handoff.drained");
                if inbox.swap(0, Ordering::SeqCst) > 0 {
                    return; // adopted; the loop serves it from here
                }
                if !woke {
                    parked.store(true, Ordering::SeqCst);
                    return;
                }
            }
        }) as Box<dyn FnOnce() + Send>
    };
    let finale = Box::new(move || {
        assert!(
            !(parked.load(Ordering::SeqCst)
                && inbox.load(Ordering::SeqCst) > 0
                && !wake_pending.load(Ordering::SeqCst)),
            "loop parked in epoll_wait with a connection in its inbox and \
             no wake pending — the connection is stranded"
        );
    }) as Box<dyn FnOnce() + Send>;
    Scenario {
        threads: vec![acceptor, owner],
        finale: Some(finale),
    }
}

/// The faithful push-then-wake hand-off.
pub fn serve_handoff_order() -> Scenario {
    serve_handoff_order_scenario(true)
}

/// The broken wake-then-push variant; used by self-tests to prove the
/// checker finds the stranded connection.
pub fn serve_handoff_order_broken() -> Scenario {
    serve_handoff_order_scenario(false)
}
/// A registered scenario: name, schedule budget, factory.
pub type NamedScenario = (&'static str, usize, fn() -> Scenario);

/// Every scenario `utcq audit sched` runs, with per-scenario schedule
/// budgets tuned so the default run comfortably exceeds 1,000
/// schedules total while staying fast.
pub fn all_scenarios() -> Vec<NamedScenario> {
    vec![
        (
            "swap_publish_order",
            400,
            swap_publish_order as fn() -> Scenario,
        ),
        ("serve_shutdown", 800, serve_shutdown),
        ("serve_wake_order", 400, serve_wake_order),
        ("serve_pipeline_order", 400, serve_pipeline_order),
        ("serve_handoff_order", 400, serve_handoff_order),
        ("store_pin_vs_ingest", 400, store_pin_vs_ingest),
        ("sharded_ingest_vs_query", 2_000, sharded_ingest_vs_query),
        ("wal_publish_order", 400, wal_publish_order),
        ("wal_append_vs_publish", 400, wal_append_vs_publish),
        ("chunk_publish_order", 400, chunk_publish_order),
        ("par_in_order", 400, par_in_order),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Two increments without mutual exclusion: the checker must find
    /// the lost-update interleaving.
    fn racy_counter() -> Scenario {
        let v = Arc::new(AtomicUsize::new(0));
        let check = Arc::clone(&v);
        let mk = |v: Arc<AtomicUsize>| {
            Box::new(move || {
                let read = v.load(Ordering::SeqCst);
                point("after-read");
                v.store(read + 1, Ordering::SeqCst);
            }) as Box<dyn FnOnce() + Send>
        };
        Scenario {
            threads: vec![mk(Arc::clone(&v)), mk(v)],
            finale: Some(Box::new(move || {
                assert_eq!(check.load(Ordering::SeqCst), 2, "lost update");
            })),
        }
    }

    #[test]
    fn finds_lost_update() {
        let out = explore(
            "racy_counter",
            SchedOpts {
                preemption_bound: 2,
                max_schedules: 200,
            },
            &racy_counter,
        );
        let v = out.violation.expect("checker must find the lost update");
        assert!(v.message.contains("lost update"), "{}", v.message);
        assert!(!v.schedule.is_empty());
    }

    #[test]
    fn replaying_the_reported_schedule_reproduces() {
        let opts = SchedOpts {
            preemption_bound: 2,
            max_schedules: 200,
        };
        let first = explore("racy_counter", opts, &racy_counter)
            .violation
            .expect("violation");
        let second = explore("racy_counter", opts, &racy_counter)
            .violation
            .expect("violation");
        assert_eq!(
            first.schedule, second.schedule,
            "exploration must be deterministic"
        );
        assert_eq!(first.message, second.message);
    }

    #[test]
    fn zero_preemptions_misses_the_race_bounded_search_is_real() {
        let out = explore(
            "racy_counter",
            SchedOpts {
                preemption_bound: 0,
                max_schedules: 200,
            },
            &racy_counter,
        );
        // With no preemptions each thread runs to completion; the lost
        // update needs a switch between read and write.
        assert!(out.violation.is_none());
        assert!(out.exhausted);
    }

    #[test]
    fn serve_model_without_recheck_has_the_race() {
        let out = explore(
            "serve_shutdown_without_recheck",
            SchedOpts {
                preemption_bound: 4,
                max_schedules: 2_000,
            },
            &serve_shutdown_without_recheck,
        );
        let v = out
            .violation
            .expect("the register/trigger race must be found");
        assert!(
            v.message.contains("read side still open"),
            "unexpected violation: {}",
            v.message
        );
    }

    #[test]
    fn serve_model_with_recheck_is_clean() {
        let out = explore(
            "serve_shutdown",
            SchedOpts {
                preemption_bound: 4,
                max_schedules: 2_000,
            },
            &serve_shutdown,
        );
        assert!(
            out.violation.is_none(),
            "faithful model violated: {:?}",
            out.violation
        );
        assert!(out.schedules > 50, "expected a real schedule space");
    }

    #[test]
    fn wake_model_wake_before_flag_has_the_race() {
        let out = explore(
            "serve_wake_order_broken",
            SchedOpts {
                preemption_bound: 4,
                max_schedules: 500,
            },
            &serve_wake_order_broken,
        );
        let v = out.violation.expect("the lost-wakeup race must be found");
        assert!(
            v.message.contains("shutdown wedges"),
            "unexpected violation: {}",
            v.message
        );
    }

    #[test]
    fn wake_model_flag_first_is_clean() {
        let out = explore(
            "serve_wake_order",
            SchedOpts {
                preemption_bound: 4,
                max_schedules: 500,
            },
            &serve_wake_order,
        );
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.exhausted, "wake model space should be enumerable");
    }

    #[test]
    fn pipeline_model_per_request_fanout_has_the_race() {
        let out = explore(
            "serve_pipeline_order_broken",
            SchedOpts {
                preemption_bound: 4,
                max_schedules: 500,
            },
            &serve_pipeline_order_broken,
        );
        let v = out.violation.expect("the reordering must be found");
        assert!(
            v.message.contains("out of request order"),
            "unexpected violation: {}",
            v.message
        );
    }

    #[test]
    fn handoff_model_wake_before_push_strands_the_connection() {
        let out = explore(
            "serve_handoff_order_broken",
            SchedOpts {
                preemption_bound: 4,
                max_schedules: 500,
            },
            &serve_handoff_order_broken,
        );
        let v = out.violation.expect("the stranded hand-off must be found");
        assert!(
            v.message.contains("stranded"),
            "unexpected violation: {}",
            v.message
        );
    }

    #[test]
    fn handoff_model_push_first_is_clean() {
        let out = explore(
            "serve_handoff_order",
            SchedOpts {
                preemption_bound: 4,
                max_schedules: 500,
            },
            &serve_handoff_order,
        );
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.exhausted, "hand-off model space should be enumerable");
    }

    #[test]
    fn pipeline_model_burst_dispatch_is_clean() {
        let out = explore(
            "serve_pipeline_order",
            SchedOpts {
                preemption_bound: 4,
                max_schedules: 500,
            },
            &serve_pipeline_order,
        );
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.schedules > 10, "the two loops never interleaved");
    }

    #[test]
    fn wal_mock_publish_before_append_has_the_race() {
        let out = explore(
            "wal_publish_order_broken",
            SchedOpts {
                preemption_bound: 2,
                max_schedules: 200,
            },
            &wal_publish_order_broken,
        );
        let v = out.violation.expect("publish-before-append must be caught");
        assert!(
            v.message.contains("published before its record"),
            "unexpected violation: {}",
            v.message
        );
    }

    #[test]
    fn wal_mock_append_first_is_clean() {
        let out = explore(
            "wal_publish_order",
            SchedOpts {
                preemption_bound: 2,
                max_schedules: 200,
            },
            &wal_publish_order,
        );
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.exhausted);
    }

    #[test]
    fn par_mock_taking_results_as_they_finish_reorders_them() {
        let out = explore(
            "par_in_order_broken",
            SchedOpts {
                preemption_bound: 4,
                max_schedules: 400,
            },
            &par_in_order_broken,
        );
        let v = out.violation.expect("the reordering must be found");
        assert!(v.message.contains("out of input order"), "{}", v.message);
    }

    #[test]
    fn par_mock_in_order_is_clean() {
        let out = explore(
            "par_in_order",
            SchedOpts {
                preemption_bound: 4,
                max_schedules: 400,
            },
            &par_in_order,
        );
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.schedules > 10, "the workers never interleaved");
    }

    #[test]
    fn wal_append_vs_publish_explores_cleanly() {
        let out = explore(
            "wal_append_vs_publish",
            SchedOpts {
                preemption_bound: 2,
                max_schedules: 60,
            },
            &wal_append_vs_publish,
        );
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(
            out.schedules > 5,
            "wal hooks produced too few yield points ({} schedules)",
            out.schedules
        );
    }

    #[test]
    fn chunk_mock_publish_before_fill_has_the_race() {
        let out = explore(
            "chunk_publish_order_broken",
            SchedOpts {
                preemption_bound: 4,
                max_schedules: 500,
            },
            &chunk_publish_order_broken,
        );
        let v = out
            .violation
            .expect("the publish-before-fill race must be found");
        assert!(
            v.message.contains("half-published") || v.message.contains("not yet backed"),
            "unexpected violation: {}",
            v.message
        );
        assert!(!v.schedule.is_empty());
    }

    #[test]
    fn chunk_mock_fill_first_is_clean() {
        let out = explore(
            "chunk_publish_order",
            SchedOpts {
                preemption_bound: 4,
                max_schedules: 500,
            },
            &chunk_publish_order,
        );
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.exhausted);
    }

    #[test]
    fn swap_scenario_explores_cleanly() {
        let out = explore(
            "swap_publish_order",
            SchedOpts {
                preemption_bound: 4,
                max_schedules: 500,
            },
            &swap_publish_order,
        );
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(
            out.schedules > 10,
            "hooks produced too few yield points ({} schedules)",
            out.schedules
        );
    }

    #[test]
    fn store_pin_scenario_explores_cleanly() {
        let out = explore(
            "store_pin_vs_ingest",
            SchedOpts {
                preemption_bound: 2,
                max_schedules: 100,
            },
            &store_pin_vs_ingest,
        );
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.schedules > 1, "writer/reader never interleaved");
    }

    #[test]
    fn sharded_scenario_explores_cleanly() {
        let out = explore(
            "sharded_ingest_vs_query",
            SchedOpts {
                preemption_bound: 2,
                max_schedules: 100,
            },
            &sharded_ingest_vs_query,
        );
        assert!(out.violation.is_none(), "{:?}", out.violation);
        assert!(out.schedules > 1, "writer/reader never interleaved");
    }
}
