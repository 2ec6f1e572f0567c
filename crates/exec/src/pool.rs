//! A scoped thread-pool job engine with deterministic result ordering.
//!
//! Workers pull job indices from a shared atomic counter, so the pool is a
//! classic work queue: long jobs do not block short ones, and the schedule
//! adapts to however the host's cores are loaded. Results are written back
//! into per-index slots, which makes the output order equal to the input
//! order no matter which worker finished first — the property the
//! experiment harness relies on for cell-for-cell reproducibility.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A job that panicked instead of producing a value.
#[derive(Debug, Clone)]
pub struct JobPanic {
    /// Index of the panicking job in the input list.
    pub index: usize,
    /// The panic payload, rendered as text.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

/// What one job produced: its value (or captured panic) and how long it ran.
#[derive(Debug)]
pub struct JobOutput<T> {
    /// Wall-clock time the job spent executing.
    pub duration: Duration,
    /// The job's value, or the captured panic.
    pub result: Result<T, JobPanic>,
}

/// A progress event, delivered once per finished job (in completion order,
/// which is generally *not* input order).
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Index of the finished job in the input list.
    pub index: usize,
    /// How many jobs have finished so far (including this one).
    pub completed: usize,
    /// Total number of jobs in this batch.
    pub total: usize,
    /// Wall-clock time this job ran for.
    pub duration: Duration,
    /// True if the job panicked rather than returning.
    pub panicked: bool,
}

/// A fixed-width pool of scoped worker threads.
#[derive(Debug, Clone, Copy)]
pub struct JobPool {
    workers: usize,
}

impl JobPool {
    /// A pool with `workers` threads; `0` selects the host's available
    /// parallelism.
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            Self::available_workers()
        } else {
            workers
        };
        JobPool { workers }
    }

    /// The host's available parallelism (at least 1).
    pub fn available_workers() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Number of worker threads this pool runs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `f` over every input and return the outputs **in input order**.
    ///
    /// Panics inside `f` are captured per job (see [`JobOutput::result`]);
    /// the rest of the batch still runs to completion.
    pub fn run<I, T, F>(&self, inputs: Vec<I>, f: F) -> Vec<JobOutput<T>>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        self.run_with_progress(inputs, f, |_| {})
    }

    /// Like [`JobPool::run`], additionally invoking `on_complete` after each
    /// job finishes. The callback runs on worker threads (hence `Sync`) and
    /// must not panic.
    pub fn run_with_progress<I, T, F, C>(
        &self,
        inputs: Vec<I>,
        f: F,
        on_complete: C,
    ) -> Vec<JobOutput<T>>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
        C: Fn(Completion) + Sync,
    {
        let total = inputs.len();
        if total == 0 {
            return Vec::new();
        }
        let workers = self.workers.min(total).max(1);
        let next = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        // Serializes count-increment + callback so `completed` values are
        // delivered monotonically (a caller may treat `completed == total`
        // as the batch-done signal).
        let completion_order = Mutex::new(());
        let slots: Vec<Mutex<Option<JobOutput<T>>>> =
            (0..total).map(|_| Mutex::new(None)).collect();
        let inputs = &inputs;
        let f = &f;
        let on_complete = &on_complete;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= total {
                        break;
                    }
                    #[allow(
                        clippy::disallowed_methods,
                        reason = "per-job wall time for the run summary; never reaches a SimResult"
                    )]
                    let start = Instant::now();
                    let outcome = catch_unwind(AssertUnwindSafe(|| f(index, &inputs[index])));
                    let duration = start.elapsed();
                    let panicked = outcome.is_err();
                    let result = outcome.map_err(|payload| JobPanic {
                        index,
                        message: panic_message(payload),
                    });
                    *slots[index].lock().unwrap() = Some(JobOutput { duration, result });
                    let _ordered = completion_order.lock().unwrap();
                    let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                    on_complete(Completion {
                        index,
                        completed: done,
                        total,
                        duration,
                        panicked,
                    });
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every job slot is filled once the scope joins")
            })
            .collect()
    }
}

impl Default for JobPool {
    fn default() -> Self {
        JobPool::new(0)
    }
}

/// Render a panic payload (usually `&str` or `String`) as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        // Later jobs finish first (they sleep less), so completion order is
        // the reverse of input order — outputs must still line up.
        let inputs: Vec<u64> = (0..8).collect();
        let pool = JobPool::new(4);
        let outputs = pool.run(inputs.clone(), |_, &n| {
            std::thread::sleep(Duration::from_millis(8 * (8 - n)));
            n * 10
        });
        let values: Vec<u64> = outputs
            .into_iter()
            .map(|o| o.result.expect("no panics"))
            .collect();
        assert_eq!(values, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn panics_are_captured_per_job() {
        let pool = JobPool::new(2);
        let outputs = pool.run(vec![1u32, 2, 3, 4], |_, &n| {
            if n == 3 {
                panic!("boom on {n}");
            }
            n + 100
        });
        assert_eq!(outputs.len(), 4);
        assert_eq!(*outputs[0].result.as_ref().unwrap(), 101);
        assert_eq!(*outputs[1].result.as_ref().unwrap(), 102);
        let err = outputs[2].result.as_ref().unwrap_err();
        assert_eq!(err.index, 2);
        assert!(err.message.contains("boom on 3"), "{}", err.message);
        assert_eq!(*outputs[3].result.as_ref().unwrap(), 104);
    }

    #[test]
    fn progress_reports_every_completion() {
        let seen = Mutex::new(Vec::new());
        let pool = JobPool::new(3);
        let outputs = pool.run_with_progress(
            (0..5).collect::<Vec<u32>>(),
            |_, &n| n,
            |c| seen.lock().unwrap().push((c.index, c.completed, c.total)),
        );
        assert_eq!(outputs.len(), 5);
        let mut events = seen.into_inner().unwrap();
        assert_eq!(events.len(), 5);
        // Every job reported exactly once, with a consistent total.
        events.sort_by_key(|&(index, _, _)| index);
        assert_eq!(
            events.iter().map(|&(i, _, _)| i).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
        assert!(events.iter().all(|&(_, _, total)| total == 5));
        let mut counts: Vec<usize> = events.iter().map(|&(_, c, _)| c).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn zero_jobs_and_worker_clamping() {
        let pool = JobPool::new(0);
        assert!(pool.workers() >= 1);
        let outputs: Vec<JobOutput<u32>> = pool.run(Vec::<u32>::new(), |_, &n| n);
        assert!(outputs.is_empty());
        // More workers than jobs is fine.
        let wide = JobPool::new(64);
        let outputs = wide.run(vec![7u32], |_, &n| n);
        assert_eq!(*outputs[0].result.as_ref().unwrap(), 7);
    }

    #[test]
    fn durations_are_recorded() {
        let pool = JobPool::new(1);
        let outputs = pool.run(vec![()], |_, _| {
            std::thread::sleep(Duration::from_millis(5));
        });
        assert!(outputs[0].duration >= Duration::from_millis(4));
    }
}
