//! Build-once coordination for lazy structure construction.
//!
//! Many concurrent clients may notice the same missing index and request
//! it at once ("ReDe builds indexes flexibly in the background", § III-D —
//! but nothing in the legacy path stopped ten tenants from scanning the
//! same base file ten times). The [`BuildRegistry`] keyed on index name
//! guarantees **exactly one** build per structure: the first request
//! starts a supervised build thread, every duplicate request coalesces
//! onto the same [`BuildState`] and blocks (or polls) until the one build
//! finishes. A failed build deregisters its partially built index and
//! leaves the registry, so a later request can retry from scratch. The
//! registry joins the threads that have finished each time it starts
//! one, so it holds only running ones.
//!
//! Builds are all the registry runs: under ingest, the commit that
//! writes a row posts its index entries (`crate::txn`).

use crate::maintenance::{IndexBuildReport, IndexBuilder};
use parking_lot::{Condvar, Mutex};
use rede_common::{FxHashMap, RedeError, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What `ensure_index` resolved to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnsureOutcome {
    /// The index already existed in the catalog; nothing was built.
    AlreadyPresent,
    /// A build ran (this request started it or coalesced onto it) and
    /// completed with this report.
    Built(IndexBuildReport),
}

/// Completion state of one coordinated build, shared by the building
/// thread and every waiter that coalesced onto it.
pub(crate) struct BuildState {
    done: Mutex<Option<Result<EnsureOutcome>>>,
    cv: Condvar,
}

impl BuildState {
    fn new() -> BuildState {
        BuildState {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fulfill(&self, result: Result<EnsureOutcome>) {
        *self.done.lock() = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<EnsureOutcome> {
        let mut done = self.done.lock();
        while done.is_none() {
            self.cv.wait(&mut done);
        }
        done.clone().expect("loop exits only when set")
    }

    /// Deadline-loop timeout wait: a spurious wakeup re-waits only the
    /// *remaining* time (never returns `None` early), and a retried call
    /// never sleeps past its own deadline.
    fn wait_timeout(&self, timeout: Duration) -> Option<Result<EnsureOutcome>> {
        let deadline = Instant::now() + timeout;
        let mut done = self.done.lock();
        while done.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            self.cv.wait_for(&mut done, deadline - now);
        }
        done.clone()
    }
}

/// A claim on a structure: either already resolved, or a place in line
/// behind the one in-flight build of that structure.
pub struct StructureTicket {
    state: TicketState,
}

enum TicketState {
    Ready(Result<EnsureOutcome>),
    Pending(Arc<BuildState>),
}

impl StructureTicket {
    pub(crate) fn ready(result: Result<EnsureOutcome>) -> StructureTicket {
        StructureTicket {
            state: TicketState::Ready(result),
        }
    }

    pub(crate) fn pending(state: Arc<BuildState>) -> StructureTicket {
        StructureTicket {
            state: TicketState::Pending(state),
        }
    }

    /// Block until the structure is available (or its build failed) and
    /// return the outcome.
    pub fn wait(self) -> Result<EnsureOutcome> {
        match self.state {
            TicketState::Ready(result) => result,
            TicketState::Pending(state) => state.wait(),
        }
    }

    /// Wait at most `timeout` for the build to resolve. Returns `None` on
    /// timeout; the ticket stays valid, so callers can retry (each retry
    /// gets its own full deadline — a spurious wakeup inside one call
    /// re-waits only the remaining time).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<EnsureOutcome>> {
        match &self.state {
            TicketState::Ready(result) => Some(result.clone()),
            TicketState::Pending(state) => state.wait_timeout(timeout),
        }
    }
}

/// The scheduler's registry of in-flight builds plus supervision of their
/// threads.
pub(crate) struct BuildRegistry {
    inflight: Mutex<FxHashMap<String, Arc<BuildState>>>,
    started: AtomicU64,
    coalesced: AtomicU64,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl BuildRegistry {
    pub(crate) fn new() -> BuildRegistry {
        BuildRegistry {
            inflight: Mutex::new(FxHashMap::default()),
            started: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Builds this registry has actually started.
    pub(crate) fn started(&self) -> u64 {
        self.started.load(Ordering::SeqCst)
    }

    /// Requests that found a build already in flight and waited on it
    /// instead of starting their own.
    pub(crate) fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::SeqCst)
    }

    /// The build-once decision point for an index. Exactly one of three
    /// things happens, atomically under the registry lock:
    ///
    /// 1. a build of this index is in flight → coalesce onto it;
    /// 2. the index already exists in the catalog → ready ticket, no work
    ///    (checked *after* 1, because a running build registers its index
    ///    in the catalog before populating it — the catalog alone cannot
    ///    distinguish "built" from "building");
    /// 3. neither → this request starts the one build. If it fails, its
    ///    partial index is dropped, so queries keep their scan path and a
    ///    retry registers the index afresh.
    ///
    /// The build runs on a thread named `rede-ixbuild:{index}`. A panic
    /// becomes `RedeError::Exec` with its message. The build leaves the
    /// registry BEFORE fulfilling, so a request arriving then starts
    /// afresh instead of inheriting a stale result.
    pub(crate) fn ensure(self: &Arc<Self>, builder: IndexBuilder) -> StructureTicket {
        let name = builder.spec().name.clone();
        let cluster = builder.cluster().clone();
        let state = {
            let mut inflight = self.inflight.lock();
            if let Some(existing) = inflight.get(&name) {
                self.coalesced.fetch_add(1, Ordering::SeqCst);
                return StructureTicket::pending(existing.clone());
            }
            if cluster.index(&name).is_ok() {
                return StructureTicket::ready(Ok(EnsureOutcome::AlreadyPresent));
            }
            let state = Arc::new(BuildState::new());
            inflight.insert(name.clone(), state.clone());
            self.started.fetch_add(1, Ordering::SeqCst);
            state
        };
        let registry = self.clone();
        let thread_state = state.clone();
        let handle = std::thread::Builder::new()
            .name(format!("rede-ixbuild:{name}"))
            .spawn(move || {
                let build = || builder.build().map(EnsureOutcome::Built);
                let result = catch_unwind(AssertUnwindSafe(build)).unwrap_or_else(|payload| {
                    Err(RedeError::Exec(format!(
                        "ixbuild:{name} panicked: {}",
                        crate::exec::smpe::panic_message(payload.as_ref())
                    )))
                });
                if result.is_err() {
                    let _ = cluster.drop_index(&name);
                }
                registry.inflight.lock().remove(&name);
                thread_state.fulfill(result);
            })
            .expect("spawn supervised index build");
        let mut threads = self.threads.lock();
        join_finished(&mut threads);
        threads.push(handle);
        StructureTicket::pending(state)
    }

    /// Join every thread still held (scheduler shutdown).
    pub(crate) fn join_all(&self) {
        let threads = std::mem::take(&mut *self.threads.lock());
        for t in threads {
            let _ = t.join();
        }
    }
}

/// Join and drop the handles of threads that have finished, so a
/// long-lived registry holds only the threads still running.
fn join_finished(threads: &mut Vec<JoinHandle<()>>) {
    for t in threads.extract_if(.., |t| t.is_finished()) {
        let _ = t.join();
    }
}

#[cfg(test)]
impl BuildRegistry {
    /// Whether each thread still held has finished.
    pub(crate) fn held_finished(&self) -> Vec<bool> {
        self.threads
            .lock()
            .iter()
            .map(|t| t.is_finished())
            .collect()
    }
}
