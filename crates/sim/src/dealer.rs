//! The experiment dealer: the one place this workspace runs threads.
//!
//! An experiment matrix is a list of independent simulations, so
//! [`par_map`] hands them to scoped workers that take the next job off one
//! cursor, and puts the results back in input order: a matrix is the same
//! bytes at any width. The width is [`with_jobs`]'s on the calling thread,
//! else [`std::thread::available_parallelism`]; nothing else sets it.

use std::cell::Cell;
use std::sync::atomic::Ordering;

thread_local! {
    /// The width [`with_jobs`] pinned on this thread; 0 = unpinned.
    static JOBS: Cell<usize> = const { Cell::new(0) };
}

/// Run `f` with this thread's experiment matrices `n` wide (0 counts as
/// 1), and restore the previous width afterwards, even if `f` panics.
pub fn with_jobs<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            JOBS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(JOBS.with(|c| c.replace(n.max(1))));
    f()
}

/// `items.iter().map(f).collect()`, on `min(width, items)` workers.
///
/// One worker (or none) is the plain loop on the calling thread. A worker's
/// panic is re-raised here with its payload once every worker has stopped.
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the dealer is the one sanctioned use of threads and atomics: its workers run \
              independent simulations and it returns their results in input order"
)]
pub(crate) fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let width = match JOBS.with(Cell::get) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let workers = width.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor only hands out indices; the joins below
            // publish the results.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(item)));
        }
    };
    let joined: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut dealt = Vec::with_capacity(items.len());
    for done in joined {
        dealt.extend(done.unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
    }
    dealt.sort_unstable_by_key(|&(i, _)| i);
    dealt.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order_at_any_width() {
        for n in [0usize, 1, 3, 100] {
            let items: Vec<usize> = (0..n).collect();
            let expect: Vec<usize> = items.iter().map(|i| i * i).collect();
            for width in [1, 2, 7] {
                // The first `min(width, n)` jobs meet at a barrier, so each
                // is held by its own worker and they all run at once.
                let workers = width.min(n);
                let met = std::sync::Barrier::new(workers);
                let got = with_jobs(width, || {
                    par_map(&items, |&i| {
                        if i < workers {
                            met.wait();
                        }
                        i * i
                    })
                });
                assert_eq!(got, expect, "{n} items, width {width}");
            }
        }
    }

    #[test]
    fn an_empty_slice_maps_to_nothing() {
        let none: [u8; 0] = [];
        assert!(par_map(&none, |_| -> u8 { unreachable!() }).is_empty());
    }

    #[test]
    fn zero_jobs_is_one_and_the_pin_is_scoped() {
        let width = || JOBS.with(Cell::get);
        with_jobs(0, || assert_eq!(width(), 1));
        with_jobs(3, || {
            with_jobs(5, || assert_eq!(width(), 5));
            assert_eq!(width(), 3);
        });
        assert_eq!(width(), 0);
        // A one-wide map runs on the calling thread.
        let caller = std::thread::current().id();
        let ids = with_jobs(0, || par_map(&[1, 2, 3], |_| std::thread::current().id()));
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn a_workers_panic_reaches_the_caller_with_its_payload() {
        let items: Vec<u32> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            with_jobs(4, || {
                par_map(&items, |&i| {
                    assert!(i != 9, "bad job {i}");
                    i
                })
            })
        })
        .expect_err("the panic must propagate");
        let message = caught
            .downcast_ref::<String>()
            .expect("a formatted panic carries a String");
        assert_eq!(message, "bad job 9");
    }
}
