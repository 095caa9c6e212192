//! Audit instrumentation points.
//!
//! The epoch-publish protocol ([`crate::snapshot::Swap`], live ingest
//! on both store shapes) is verified
//! by the `utcq_audit` model checker, which needs to pause a thread at
//! every protocol-relevant step and try the interleavings around it.
//! This module is that seam: [`point`] marks each step with a static
//! label.
//!
//! Without the `audit` cargo feature (the default, and what every
//! production artifact builds with) [`point`] is an empty
//! `#[inline(always)]` stub — the hot paths compile exactly as before.
//! With the feature, [`point`] dispatches through a process-global
//! function pointer installed once by the audit driver; unregistered
//! threads (everything outside a model-checking run) still take a
//! single `OnceLock` load and return.
//!
//! Placement rule: a point must never sit inside a held `std` lock. The
//! audit scheduler suspends threads at points; a thread suspended while
//! holding a mutex would deadlock any scheduled thread that takes the
//! same lock. Every `point` call in this crate is therefore placed
//! immediately before or after a critical section, never within one.

#[cfg(feature = "audit")]
mod imp {
    use std::sync::OnceLock;

    static HOOK: OnceLock<fn(&'static str)> = OnceLock::new();

    /// Installs the process-global audit dispatcher. First caller wins;
    /// later calls are ignored (the dispatcher itself decides per
    /// thread whether a point is part of a model-checking run).
    pub fn install(f: fn(&'static str)) {
        let _ = HOOK.set(f);
    }

    /// Marks an instrumentation point named `label`.
    #[inline]
    pub fn point(label: &'static str) {
        if let Some(f) = HOOK.get() {
            f(label);
        }
    }
}

#[cfg(not(feature = "audit"))]
mod imp {
    /// Marks an instrumentation point; compiled to nothing without the
    /// `audit` feature.
    #[inline(always)]
    pub fn point(_label: &'static str) {}
}

#[cfg(feature = "audit")]
pub use imp::install;
pub use imp::point;

use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes copied by publish-path copy-on-write events (see
/// [`crate::segment`] and [`crate::chunk`]). Unlike [`point`], this
/// counter is always compiled: it is a single relaxed atomic add on the rare
/// copy-on-write path (at most once per shared structure per publish),
/// and the copy-cost regression test and the benchmark's
/// `publish.copied_bytes_per_batch` probe read it without the `audit`
/// feature.
static COPIED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Records `bytes` copied out by a copy-on-write event.
#[inline]
pub fn copied(bytes: usize) {
    COPIED_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Total copy-on-write bytes recorded since process start. Monotonic;
/// callers measure a region by differencing. The count is exact: every
/// tail copy is a `memcpy` per flat table (records, offsets, index words,
/// postings, the id map's table) and reports the bytes of each.
pub fn copied_bytes() -> u64 {
    COPIED_BYTES.load(Ordering::Relaxed)
}
