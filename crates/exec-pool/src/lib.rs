//! # exec-pool — the workspace's scoped and service threads
//!
//! This crate is the only place in the workspace allowed to create
//! threads (`clippy.toml`'s disallowed methods refuse
//! `std::thread::{spawn, scope, Builder}` elsewhere): routing every
//! spawn through it means joins and panics can never be forgotten at a
//! call site. The engine itself runs each query on one thread; the threads
//! made here are client fan-outs (load generators, smoke tests) and
//! resident service loops.
//!
//! * [`WorkerPool::run`] runs a list of tasks on at most `threads`
//!   scoped threads, each taking the next task index from one shared
//!   counter. Tasks may borrow from the caller's stack or own `Send`
//!   payloads; each is consumed exactly once and dropped before `run`
//!   returns. Results come back in task order, and a panicking task
//!   surfaces as [`PoolError::WorkerPanic`] — `run` never deadlocks and
//!   never aborts the process.
//! * [`ServiceThread`] is a *named, long-lived, joined-on-shutdown*
//!   thread for subsystems that genuinely need one resident thread (a
//!   TCP acceptor, a storage-engine loop): the thread still gets a name,
//!   a panic-capturing join, and an owner that cannot forget to join it.

// Library code surfaces a broken invariant as a typed error, never as an
// abort, and drops no `Result` or span guard unread; test code may panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::unused_result_ok))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Errors surfaced by [`WorkerPool::run`] and [`ServiceThread`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A task panicked; the payload's message is preserved.
    WorkerPanic(String),
    /// A task result went missing — a pool invariant was broken.
    Internal(String),
    /// The OS refused to spawn a service thread.
    Spawn(String),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
            PoolError::Internal(msg) => write!(f, "pool invariant broken: {msg}"),
            PoolError::Spawn(msg) => write!(f, "cannot spawn service thread: {msg}"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Lock a mutex, recovering from poisoning: a panicking task leaves the
/// slot it held in a consistent state (`Option` take/put), and the pool
/// must keep operating to report that panic as an `Err`.
fn locked<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fixed-degree pool of scoped threads. Cheap to construct; holds no
/// threads between [`run`](WorkerPool::run) calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool that uses up to `threads` workers (`0` is treated as `1`).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// Configured degree.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run every task, returning results in task order.
    ///
    /// `min(threads, tasks)` workers take task indices from one shared
    /// counter; each task receives the id (0-based) of the worker that ran
    /// it. One worker runs on the calling thread and spawns nothing.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Result<Vec<T>, PoolError>
    where
        F: FnOnce(usize) -> T + Send,
        T: Send,
    {
        let n = tasks.len();
        let workers = self.threads.min(n);
        // Task slots: taken exactly once, under the slot's own lock.
        let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        // Both atomics are `Relaxed`: `fetch_add` alone makes each index
        // claimed once, `stop` only cuts the remaining work short, and the
        // tasks and results they lead to are published through the slot
        // locks and the scope's join.
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let panic_msg: Mutex<Option<String>> = Mutex::new(None);
        let work = |w: usize| {
            while !stop.load(Ordering::Relaxed) {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(idx) else { break };
                let Some(task) = locked(slot).take() else {
                    continue;
                };
                match catch_unwind(AssertUnwindSafe(|| task(w))) {
                    Ok(value) => *locked(&results[idx]) = Some(value),
                    Err(payload) => {
                        locked(&panic_msg).get_or_insert_with(|| panic_message(payload.as_ref()));
                        stop.store(true, Ordering::Relaxed);
                    }
                }
            }
        };
        if workers <= 1 {
            work(0);
        } else {
            #[expect(clippy::disallowed_methods, reason = "the pool makes the threads")]
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let work = &work;
                    scope.spawn(move || work(w));
                }
            });
        }
        // Tasks a panic left unrun still own their payloads: drop them here.
        drop(slots);
        if let Some(msg) = locked(&panic_msg).take() {
            return Err(PoolError::WorkerPanic(msg));
        }
        results
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .ok_or_else(|| PoolError::Internal(format!("task {i} produced no result")))
            })
            .collect()
    }
}

/// A named, long-lived service thread: the one sanctioned way (see the
/// crate docs) to hold a resident thread for the lifetime of a subsystem —
/// network acceptors, single-threaded engine loops, background daemons.
///
/// Contract:
///
/// * **Named.** The OS thread carries `name`, so stack traces, debuggers,
///   and `/proc` attribute work to the right subsystem.
/// * **Joined on shutdown.** [`join`](ServiceThread::join) blocks until
///   the body returns and surfaces a body panic as
///   [`PoolError::WorkerPanic`]. Dropping the handle also joins (panics
///   are swallowed there — call `join` to observe them), so a running
///   service thread can never be leaked by an early return.
/// * **Cooperative exit.** Because the owner always joins, the body must
///   observe some shutdown signal (a closed channel, an [`AtomicBool`])
///   and return; a body that loops forever turns `join` into a hang,
///   which is a bug at the spawn site, not in the pool.
#[derive(Debug)]
pub struct ServiceThread {
    name: String,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ServiceThread {
    /// Spawn `body` on a new thread named `name`.
    pub fn spawn<F>(name: impl Into<String>, body: F) -> Result<Self, PoolError>
    where
        F: FnOnce() + Send + 'static,
    {
        let name = name.into();
        #[expect(clippy::disallowed_methods, reason = "the pool makes the threads")]
        let handle = std::thread::Builder::new()
            .name(name.clone())
            .spawn(body)
            .map_err(|e| PoolError::Spawn(format!("{name}: {e}")))?;
        Ok(ServiceThread {
            name,
            handle: Some(handle),
        })
    }

    /// The thread's name, as given to [`spawn`](ServiceThread::spawn).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the body has returned (the join would not block).
    pub fn is_finished(&self) -> bool {
        self.handle
            .as_ref()
            .map(|h| h.is_finished())
            .unwrap_or(true)
    }

    /// Block until the body returns. A panicking body surfaces as
    /// [`PoolError::WorkerPanic`] with the panic message and thread name.
    pub fn join(mut self) -> Result<(), PoolError> {
        match self.handle.take() {
            None => Ok(()),
            Some(h) => h.join().map_err(|payload| {
                PoolError::WorkerPanic(format!(
                    "service thread {}: {}",
                    self.name,
                    panic_message(payload.as_ref())
                ))
            }),
        }
    }
}

impl Drop for ServiceThread {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            // Joining on drop keeps the no-leaked-threads invariant even on
            // early-return paths; a panic in the body was either already
            // reported via `join` or is deliberately swallowed here.
            drop(h.join());
        }
    }
}

/// Best-effort panic payload rendering (`&str` and `String` payloads
/// cover everything `panic!`/`assert!` produce).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_task_list_is_a_noop() {
        let pool = WorkerPool::new(4);
        let out: Vec<i32> = pool
            .run(Vec::<Box<dyn FnOnce(usize) -> i32 + Send>>::new())
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn results_come_back_in_task_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<_> = (0..100).map(|i| move |_w: usize| i * 2).collect();
        let out = pool.run(tasks).unwrap();
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_inline_and_identically() {
        let seq = WorkerPool::new(1);
        let par = WorkerPool::new(8);
        let make = || (0..57).map(|i| move |_w: usize| i * i).collect::<Vec<_>>();
        assert_eq!(seq.run(make()).unwrap(), par.run(make()).unwrap());
        let caller = std::thread::current().id();
        let on_caller = seq.run(vec![move |_w: usize| std::thread::current().id() == caller]);
        assert_eq!(on_caller.unwrap(), vec![true]);
    }

    #[test]
    fn more_workers_than_tasks() {
        let pool = WorkerPool::new(16);
        let out = pool.run(vec![|w: usize| w < 2, |w: usize| w < 2]).unwrap();
        assert_eq!(out, vec![true, true]);
    }

    /// Two tasks that wait for each other finish only if each ran on a
    /// worker of its own: loadgen's clients rely on that.
    #[test]
    fn every_task_gets_a_worker_when_threads_cover_them() {
        let barrier = std::sync::Barrier::new(2);
        let tasks: Vec<_> = (0..2)
            .map(|i| {
                let barrier = &barrier;
                move |w: usize| {
                    barrier.wait();
                    (i, w)
                }
            })
            .collect();
        let out = WorkerPool::new(2).run(tasks).unwrap();
        assert_eq!(out.len(), 2);
        assert_ne!(out[0].1, out[1].1);
    }

    #[test]
    fn tasks_may_borrow_from_the_caller() {
        let data: Vec<u64> = (0..10_000).collect();
        let pool = WorkerPool::new(4);
        let chunks: Vec<_> = data.chunks(1000).collect();
        let tasks: Vec<_> = chunks
            .iter()
            .map(|c| {
                let c = *c;
                move |_w: usize| c.iter().sum::<u64>()
            })
            .collect();
        let out = pool.run(tasks).unwrap();
        assert_eq!(out.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    /// A payload whose Drop releases a shared count.
    struct Payload {
        live: std::sync::Arc<std::sync::atomic::AtomicU32>,
    }

    impl Drop for Payload {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// `n` tasks, each owning a [`Payload`]; task `panics_at` panics.
    fn payload_tasks(
        n: u32,
        panics_at: Option<u32>,
        live: &std::sync::Arc<std::sync::atomic::AtomicU32>,
    ) -> Vec<Box<dyn FnOnce(usize) -> u32 + Send>> {
        (0..n)
            .map(|i| {
                live.fetch_add(1, Ordering::SeqCst);
                let payload = Payload {
                    live: std::sync::Arc::clone(live),
                };
                Box::new(move |_w: usize| {
                    // The payload is alive while the task runs.
                    assert!(payload.live.load(Ordering::SeqCst) > 0);
                    if Some(i) == panics_at {
                        panic!("task {i} exploded");
                    }
                    i
                }) as Box<dyn FnOnce(usize) -> u32 + Send>
            })
            .collect()
    }

    #[test]
    fn owned_send_payloads_are_consumed_and_dropped_by_run() {
        // After `run` returns, every payload must be dropped exactly
        // once — no payload may outlive the run.
        let live = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let out = WorkerPool::new(4)
            .run(payload_tasks(48, None, &live))
            .unwrap();
        assert_eq!(out, (0..48).collect::<Vec<_>>());
        assert_eq!(live.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn worker_panic_surfaces_as_err_without_deadlock() {
        for threads in [1, 4] {
            let live = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
            match WorkerPool::new(threads).run(payload_tasks(32, Some(17), &live)) {
                Err(PoolError::WorkerPanic(msg)) => assert!(msg.contains("exploded"), "{msg}"),
                other => panic!("expected WorkerPanic, got {other:?}"),
            }
            // Tasks left unrun by the panic drop their payloads too.
            assert_eq!(live.load(Ordering::SeqCst), 0, "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.run(vec![|w: usize| w]).unwrap(), vec![0]);
    }

    #[test]
    fn service_thread_runs_named_and_joins() {
        let (tx, rx) = std::sync::mpsc::channel();
        let t = ServiceThread::spawn("svc-test", move || {
            let name = std::thread::current().name().map(str::to_owned);
            tx.send(name).unwrap();
        })
        .unwrap();
        assert_eq!(t.name(), "svc-test");
        assert_eq!(rx.recv().unwrap().as_deref(), Some("svc-test"));
        t.join().unwrap();
    }

    #[test]
    fn service_thread_panic_surfaces_on_join() {
        let t = ServiceThread::spawn("svc-boom", || panic!("service exploded")).unwrap();
        match t.join() {
            Err(PoolError::WorkerPanic(msg)) => {
                assert!(msg.contains("svc-boom"), "{msg}");
                assert!(msg.contains("service exploded"), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn service_thread_drop_joins_the_body() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        {
            let _t = ServiceThread::spawn("svc-drop", move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                flag.store(true, Ordering::SeqCst);
            })
            .unwrap();
            // Dropping here must block until the body has run to completion.
        }
        assert!(done.load(Ordering::SeqCst), "drop must join the thread");
    }

    #[test]
    fn service_thread_observes_shutdown_via_closed_channel() {
        let (tx, rx) = std::sync::mpsc::channel::<u32>();
        let t = ServiceThread::spawn("svc-loop", move || {
            let mut seen = 0;
            while rx.recv().is_ok() {
                seen += 1;
            }
            assert_eq!(seen, 3);
        })
        .unwrap();
        for i in 0..3 {
            tx.send(i).unwrap();
        }
        drop(tx); // closing the channel is the shutdown signal
        t.join().unwrap();
        // `is_finished` on a consumed handle is unobservable; spawn another
        // to check the accessor.
        let t = ServiceThread::spawn("svc-done", || {}).unwrap();
        while !t.is_finished() {
            std::thread::yield_now();
        }
        t.join().unwrap();
    }
}
