//! The work queue every parallel path of the crate runs on: whole
//! queries ([`par_run`], `QueryTarget::par_range_query`) and batch ingest
//! ([`par_in_order`]: a store's ingest step, `stiu::build` and
//! `compress_dataset`), one pool of scoped threads pulling indices from
//! a shared atomic counter.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::error::Error;

/// The number of workers for `n` items: one per available core, at most
/// one per item.
fn workers(n: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    cores.min(n)
}

/// Runs `run_one(0..n)` across the available cores, pulling indices from
/// a shared atomic counter — the work-queue threading model every
/// parallel query path in this crate uses. A skewed batch (a few
/// expensive items amid many cheap ones) keeps every thread busy until
/// the queue drains; results come back in input order, and of several
/// failures the one at the lowest index is returned.
///
/// Single shared queue, single pool: a sharded range query touches its
/// shards *inside* `run_one`, so sharding never multiplies the thread
/// count.
pub(crate) fn par_run<T: Send>(
    n: usize,
    run_one: impl Fn(usize) -> Result<T, Error> + Sync,
) -> Result<Vec<T>, Error> {
    let threads = workers(n);
    if threads <= 1 {
        return (0..n).map(run_one).collect();
    }
    let next = AtomicUsize::new(0);
    let mut answered: Vec<(usize, Result<T, Error>)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return local;
                        }
                        local.push((i, run_one(i)));
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(local) => answered.extend(local),
                // A worker panic is a bug in `run_one`; re-raise the
                // original payload on the caller instead of minting a
                // second panic here.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    if answered.len() != n {
        return Err(Error::CorruptStore("parallel run left an index unanswered"));
    }
    // Input order, so the first error collected is the lowest index's.
    answered.sort_unstable_by_key(|(i, _)| *i);
    answered.into_iter().map(|(_, r)| r).collect()
}

/// Items [`par_in_order`] makes per round: the results the caller then
/// takes are held at once, a few MB for a round of trajectories.
const ROUND: usize = 1024;

/// Items [`par_in_order`] gives each worker at least; a smaller batch
/// runs serially on the caller. Starting workers and running two
/// prepares side by side cost more than a small batch saves: on 2 vCPUs
/// a 32-trajectory publish took 749 µs serially and 1,126 µs on two
/// workers.
const MIN_ITEMS_PER_WORKER: usize = 64;

/// Runs `make(0..n)` on the work queue of [`par_run`] and lends each
/// result to `take` on the calling thread, in input order — the batch
/// ingest: workers compress and index trajectories, the caller appends
/// them. It goes in rounds of [`ROUND`] items: the workers make a
/// round, the caller takes it, and a thread of the round drops it.
///
/// What a worker allocated is freed on a worker, never on the caller:
/// freed on the caller, glibc's worker arenas grew with every batch
/// (measured: +32 MB peak RSS on an 80k-trajectory build).
///
/// Returns the first error in input order, `make`'s or `take`'s, once
/// every item before it was taken; nothing after it is taken. With one
/// core, or fewer than [`MIN_ITEMS_PER_WORKER`] items for a second
/// worker, runs serially on the caller.
pub(crate) fn par_in_order<T: Send>(
    n: usize,
    make: impl Fn(usize) -> Result<T, Error> + Sync,
    mut take: impl FnMut(usize, &T) -> Result<(), Error>,
) -> Result<(), Error> {
    let threads = workers(n / MIN_ITEMS_PER_WORKER);
    if threads <= 1 {
        return (0..n).try_for_each(|i| take(i, &make(i)?));
    }
    (0..n).step_by(ROUND).try_for_each(|start| {
        let len = ROUND.min(n - start);
        let next = AtomicUsize::new(0);
        let slots = Mutex::new((0..len).map(|_| None).collect::<Vec<_>>());
        std::thread::scope(|scope| {
            let work = || loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= len {
                    return;
                }
                let made = make(start + k);
                let mut slots = slots.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(slot) = slots.get_mut(k) {
                    *slot = Some(made);
                }
            };
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
            for h in handles {
                if let Err(payload) = h.join() {
                    // A worker panic is a bug in `make`: re-raise it here.
                    std::panic::resume_unwind(payload);
                }
            }
            let mut made =
                std::mem::take(&mut *slots.lock().unwrap_or_else(PoisonError::into_inner));
            let taken = (start..).zip(made.iter_mut()).try_for_each(|(i, slot)| {
                match slot.as_ref() {
                    Some(Ok(item)) => take(i, item),
                    // Only the error leaves the round: moved out, not cloned.
                    Some(Err(_)) => match slot.take() {
                        Some(Err(e)) => Err(e),
                        _ => Err(Error::CorruptStore("work queue result vanished")),
                    },
                    None => Err(Error::CorruptStore("work queue left an item unmade")),
                }
            });
            scope.spawn(move || drop(made));
            taken
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails items 1 and `last`. With more than one core, item 1 is
    /// made only after item `last`, so the two run on different workers
    /// and the later index fails first.
    fn two_fail(last: usize) -> impl Fn(usize) -> Result<usize, Error> + Sync {
        let last_made = AtomicUsize::new(0);
        let parallel = workers(usize::MAX) > 1;
        move |i| match i {
            1 => {
                while parallel && last_made.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                Err(Error::SpanTooLong(1))
            }
            i if i == last => {
                last_made.store(1, Ordering::SeqCst);
                Err(Error::SpanTooLong(i as u64))
            }
            i => Ok(i),
        }
    }

    #[test]
    fn of_two_failures_the_lower_index_is_reported() {
        // Enough items for two workers.
        let n = 4 * MIN_ITEMS_PER_WORKER;
        for _ in 0..200 {
            let err = par_run(n, two_fail(n - 1)).err();
            assert!(
                matches!(err, Some(Error::SpanTooLong(1))),
                "par_run: {err:?}"
            );
            let mut taken = Vec::new();
            let err = par_in_order(n, two_fail(n - 1), |i, &v| {
                taken.push((i, v));
                Ok(())
            })
            .err();
            assert!(
                matches!(err, Some(Error::SpanTooLong(1))),
                "par_in_order: {err:?}"
            );
            assert_eq!(taken, [(0, 0)], "nothing past the failure is taken");
        }
    }

    #[test]
    fn results_are_taken_in_input_order_across_rounds() {
        let n = 2 * ROUND + 100;
        let mut taken = Vec::new();
        par_in_order(
            n,
            |i| Ok(vec![i; i % 5]),
            |i, v| {
                assert_eq!(v.len(), i % 5);
                taken.push(i);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(taken, (0..n).collect::<Vec<_>>());
        let stop_at = |i| {
            if i == 700 {
                Err(Error::SpanTooLong(700))
            } else {
                Ok(())
            }
        };
        let err = par_in_order(n, Ok, |i, _| stop_at(i)).err();
        assert!(matches!(err, Some(Error::SpanTooLong(700))), "{err:?}");
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            par_in_order(
                1_000,
                |i| if i == 37 { panic!("item 37") } else { Ok(i) },
                |_, _| Ok(()),
            )
        });
        let payload = caught.expect_err("the panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 37"));
    }
}
