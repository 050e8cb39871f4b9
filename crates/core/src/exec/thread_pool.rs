//! Fixed-size thread pool used by the SMPE executor.
//!
//! "ReDe manages threads in a thread pool and reuses them instead of
//! creating them every time. It manages 1000 threads in the default
//! setting" (§ III-C) — a thousand because each of the paper's threads
//! blocks on its read. Here a dereference charges its accesses and hands
//! the wait to the event layers (device queues, fabric), so the executor's
//! workers do CPU work only and [`ThreadPool::cpu_bound`] caps them at the
//! machine's cores; the I/O concurrency the paper tunes with its thread
//! count is the device queue depth. Work items are boxed closures
//! delivered over an unbounded channel; the pool never blocks a submitter,
//! which is what makes the executor deadlock-free (tasks only ever
//! *enqueue* more work).
//!
//! Workers survive panicking work items: each closure runs under
//! `catch_unwind`, the panic is counted, and the worker goes back to the
//! queue. Without this, one panicking task silently killed its worker
//! thread — shrinking the pool until a job hung with work queued and
//! nobody left to run it.

use crossbeam::channel::{unbounded, Sender};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

type Work = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of worker threads executing boxed closures.
pub struct ThreadPool {
    tx: Option<Sender<Work>>,
    workers: Vec<JoinHandle<()>>,
    size: usize,
    panics: Arc<AtomicU64>,
}

impl ThreadPool {
    /// Spawn `size` workers named `name-<i>`.
    pub fn new(size: usize, name: &str) -> ThreadPool {
        assert!(size > 0, "thread pool needs at least one worker");
        let (tx, rx) = unbounded::<Work>();
        let panics = Arc::new(AtomicU64::new(0));
        let workers = (0..size)
            .map(|i| {
                let rx = rx.clone();
                let panics = panics.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .stack_size(128 * 1024)
                    .spawn(move || {
                        while let Ok(work) = rx.recv() {
                            if catch_unwind(AssertUnwindSafe(work)).is_err() {
                                panics.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool {
            tx: Some(tx),
            workers,
            size,
            panics,
        }
    }

    /// A pool for work that never blocks: `limit` workers, but no more
    /// than the machine has cores.
    pub fn cpu_bound(limit: usize, name: &str) -> ThreadPool {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        ThreadPool::new(limit.min(cores), name)
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of work items that panicked since the pool was created.
    /// Workers survive panics; this counter is how callers observe them.
    pub fn panic_count(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Shared handle to the panic counter, for callers that catch panics
    /// themselves (before this pool's own `catch_unwind` can see them)
    /// but still want them surfaced through the same count.
    pub fn panic_counter(&self) -> Arc<AtomicU64> {
        self.panics.clone()
    }

    /// Submit a closure; never blocks.
    pub fn execute(&self, work: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool alive")
            .send(Box::new(work))
            .expect("pool workers alive");
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel lets every worker drain and exit.
        drop(self.tx.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_all_submitted_work() {
        let pool = ThreadPool::new(8, "t");
        let counter = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = unbounded();
        for _ in 0..1000 {
            let c = counter.clone();
            let tx = done_tx.clone();
            pool.execute(move || {
                c.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(());
            });
        }
        for _ in 0..1000 {
            done_rx.recv().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn drop_waits_for_queued_work() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(2, "t");
            for _ in 0..100 {
                let c = counter.clone();
                pool.execute(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // drop joins workers after they drain the queue
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn tasks_can_submit_tasks_without_deadlock() {
        let pool = Arc::new(ThreadPool::new(2, "t"));
        let (tx, rx) = unbounded();
        let p2 = pool.clone();
        pool.execute(move || {
            let tx2 = tx.clone();
            p2.execute(move || {
                let _ = tx2.send(());
            });
        });
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("nested task must run");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_size_rejected() {
        let _ = ThreadPool::new(0, "t");
    }

    #[test]
    fn cpu_bound_pool_is_capped_by_cores_and_by_its_limit() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(ThreadPool::cpu_bound(usize::MAX, "t").size(), cores);
        assert_eq!(ThreadPool::cpu_bound(1, "t").size(), 1);
    }

    #[test]
    fn workers_survive_panicking_work() {
        // One worker: if the panic killed it, the follow-up tasks would
        // never run and recv_timeout below would time out.
        let pool = ThreadPool::new(1, "t");
        let (tx, rx) = unbounded();
        for i in 0..10 {
            let tx = tx.clone();
            pool.execute(move || {
                if i % 2 == 0 {
                    panic!("injected failure {i}");
                }
                let _ = tx.send(i);
            });
        }
        let mut survived = Vec::new();
        for _ in 0..5 {
            survived.push(
                rx.recv_timeout(std::time::Duration::from_secs(5))
                    .expect("worker must outlive panicking tasks"),
            );
        }
        survived.sort_unstable();
        assert_eq!(survived, vec![1, 3, 5, 7, 9]);
        assert_eq!(pool.panic_count(), 5);
    }
}
