//! The discovery crate's one worker pool: scoped threads pulling task
//! indices off an atomic counter. Candidate verification and the shard
//! phase both run on it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ofd_core::ExecGuard;

/// Runs `task(i)` for every `i in 0..n` on `threads` scoped workers, or
/// inline on the calling thread when `threads <= 1`.
///
/// Each worker claims an index, probes the guard once (so a sequential
/// run probes exactly once per task), and stops at the first failed probe.
/// Per-worker results are merged by index after the join: slot `i` is
/// `None` when task `i` never ran or returned `None`. Also returns the
/// workers' summed busy time in µs.
pub(crate) fn run_indexed<T: Send>(
    n: usize,
    threads: usize,
    guard: &ExecGuard,
    task: impl Fn(usize) -> Option<T> + Sync,
) -> (Vec<Option<T>>, u64) {
    let next = AtomicUsize::new(0);
    let worker = || {
        let started = Instant::now();
        let mut done: Vec<(usize, T)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n || guard.check().is_err() {
                break;
            }
            if let Some(out) = task(i) {
                done.push((i, out));
            }
        }
        (done, started.elapsed().as_micros() as u64)
    };
    let per_worker: Vec<(Vec<(usize, T)>, u64)> = if threads <= 1 {
        vec![worker()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        })
    };
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    let mut busy_us = 0;
    for (done, us) in per_worker {
        busy_us += us;
        for (i, out) in done {
            slots[i] = Some(out);
        }
    }
    (slots, busy_us)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_land_by_index_at_any_thread_count() {
        for threads in [1usize, 2, 3, 8] {
            let (slots, _) = run_indexed(20, threads, &ExecGuard::unlimited(), |i| {
                (i % 3 != 0).then_some(i * 10)
            });
            let want: Vec<Option<usize>> =
                (0..20).map(|i| (i % 3 != 0).then_some(i * 10)).collect();
            assert_eq!(slots, want, "threads={threads}");
        }
    }

    #[test]
    fn sequential_run_probes_the_guard_once_per_task() {
        let guard = ExecGuard::unlimited();
        let (slots, _) = run_indexed(7, 1, &guard, Some);
        assert_eq!(slots.iter().flatten().count(), 7);
        assert_eq!(guard.work_done(), 7);
        // A tripped guard stops the pool before the next task.
        let guard = ExecGuard::unlimited();
        guard.fail_after(4);
        let (slots, _) = run_indexed(7, 1, &guard, Some);
        assert_eq!(
            slots,
            vec![Some(0), Some(1), Some(2), None, None, None, None]
        );
    }
}
