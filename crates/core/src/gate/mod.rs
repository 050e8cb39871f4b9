//! HarborGate: the cluster's front door.
//!
//! Everything below the gate — [`HarborScheduler`] admission, SMPE
//! fair-share dispatch, structure builds — already exists; what was
//! missing is the layer production traffic actually hits: sessions,
//! paginated result cursors, and overload shedding *before* a job is
//! built and seeded. The gate maps a small command vocabulary
//! ([`Command`]) onto the scheduler:
//!
//! * **Sessions** ([`SessionId`]) scope a tenant's cursors. Per-tenant
//!   session caps and per-session cursor caps reject with
//!   [`RedeError::Overloaded`] at the front door, counted in the
//!   `shed_commands` metric alongside the scheduler's own admission
//!   bound.
//! * **Cursors** ([`CursorId`]) page through a *streaming* job: the job
//!   is submitted with a bounded output sink
//!   (`HarborScheduler::submit_streaming`), and each
//!   [`HarborGate::fetch`] drains up to a page of records in emission
//!   order. A client that stops fetching saturates the sink, which
//!   parks the job's pooled work in the weighted queues — backpressure
//!   that costs **zero pool threads** (see `OutputSink` in the
//!   executor). With ingest attached, each cursor also pins its own
//!   [`Snapshot`] for the life of the cursor, so the versions a
//!   half-read result references cannot be vacuumed under it.
//! * **Reaping**: [`HarborGate::sweep_idle`] cancels the backing job of
//!   every cursor idle past the configured timeout and expires idle
//!   sessions — returning permits, pool slots, queue slots, and
//!   snapshots exactly as a client-initiated close would.
//!
//! Pages are exact: the concatenation of a cursor's pages is
//! byte-identical to the same job's one-shot collected result (as a
//! multiset — SMPE emission order is nondeterministic), no record
//! duplicated or dropped, and a partially-fetched cursor resumes at
//! precisely the next undelivered record.

use crate::job::Job;
use crate::scheduler::{HarborScheduler, JobHandle, SchedulerStats, SubmitOptions};
use crate::txn::Snapshot;
use parking_lot::Mutex;
use rede_common::{Counter, FxHashMap, Metrics, RedeError, Result};
use rede_storage::Record;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Front-door limits and defaults. All caps are enforced with
/// [`RedeError::Overloaded`] — the same error the scheduler's tenant
/// admission bound uses — so a client cannot tell (and need not care)
/// which layer shed it.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Open sessions allowed per tenant (`None` = unbounded).
    pub max_sessions_per_tenant: Option<usize>,
    /// Open cursors allowed per session.
    pub max_cursors_per_session: usize,
    /// Records buffered per cursor before the producing job's emit path
    /// stalls (the streaming sink capacity).
    pub cursor_buffer: usize,
    /// A cursor untouched for this long is reaped by
    /// [`HarborGate::sweep_idle`]: its backing job is cancelled and all
    /// of its resources return.
    pub cursor_idle_timeout: Duration,
    /// A session with no cursors and no activity for this long is
    /// expired by [`HarborGate::sweep_idle`].
    pub session_idle_timeout: Duration,
    /// How long one [`HarborGate::fetch`] will block waiting for the
    /// producing job to emit before giving up (deadline loop; the
    /// cursor stays valid and a later fetch resumes exactly).
    pub fetch_timeout: Duration,
    /// Fair-share weight applied to cursor-backed jobs unless the
    /// command overrides it.
    pub default_weight: u32,
    /// Deadline applied to cursor-backed jobs unless overridden.
    pub default_deadline: Option<Duration>,
}

impl Default for GateConfig {
    fn default() -> GateConfig {
        GateConfig {
            max_sessions_per_tenant: None,
            max_cursors_per_session: 8,
            cursor_buffer: 1024,
            cursor_idle_timeout: Duration::from_secs(60),
            session_idle_timeout: Duration::from_secs(300),
            fetch_timeout: Duration::from_secs(30),
            default_weight: 1,
            default_deadline: None,
        }
    }
}

/// Handle to one open session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// Handle to one open cursor. Unique gate-wide, not per session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CursorId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl std::fmt::Display for CursorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// One page of a cursor's results, in emission order.
#[derive(Debug, Clone)]
pub struct Page {
    /// Up to `max_rows` records (possibly fewer: a page is returned as
    /// soon as *something* is available rather than padded to size).
    pub records: Vec<Record>,
    /// Rows delivered by earlier pages of this cursor — the exact
    /// resume point this page continues from.
    pub offset: u64,
    /// True when the stream is exhausted: the job finished and every
    /// record has been delivered. The cursor is released the moment a
    /// done page is returned.
    pub done: bool,
}

/// Per-query knobs a command may carry (defaults from [`GateConfig`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryOptions {
    /// Fair-share weight override (0 = use the gate default).
    pub weight: u32,
    /// Deadline override (`None` = use the gate default).
    pub deadline: Option<Duration>,
}

/// The gate's command vocabulary — the wire-level face a driver would
/// speak, dispatched by [`HarborGate::handle`].
#[derive(Debug)]
pub enum Command {
    /// Open a session for `tenant`.
    OpenSession { tenant: String },
    /// Close a session, cancelling its cursors' backing jobs.
    CloseSession { session: SessionId },
    /// Submit `job` under `session` and open a cursor on its output.
    Query {
        session: SessionId,
        job: Job,
        opts: QueryOptions,
    },
    /// Fetch the next page (at most `max_rows` records) of a cursor.
    Fetch { cursor: CursorId, max_rows: usize },
    /// Close a cursor, cancelling its backing job if still running.
    CloseCursor { cursor: CursorId },
    /// Point-in-time gate + scheduler counters.
    Stats,
}

/// What a [`Command`] resolved to.
#[derive(Debug)]
pub enum Reply {
    SessionOpened(SessionId),
    SessionClosed,
    CursorOpened(CursorId),
    Page(Page),
    CursorClosed,
    Stats(GateStats),
}

/// Point-in-time gate observability counters.
#[derive(Debug, Clone)]
pub struct GateStats {
    /// Sessions currently open.
    pub sessions: usize,
    /// Cursors currently open (each pins a streaming job).
    pub cursors: usize,
    /// Open cursors whose sink is saturated right now — their producing
    /// jobs are parked, consuming zero pool threads, until a fetch
    /// drains below the low-water mark.
    pub cursors_stalled: usize,
    /// Commands this gate refused with `Overloaded` (session cap,
    /// cursor cap, or the scheduler's tenant admission bound).
    pub shed_commands: u64,
    /// Cursors reaped for idleness since the gate was created.
    pub cursors_reaped: u64,
    /// The scheduler's own counters at the same instant.
    pub scheduler: SchedulerStats,
}

/// What one [`HarborGate::sweep_idle`] pass reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Cursors whose backing job was cancelled for idleness.
    pub cursors_reaped: usize,
    /// Sessions expired (idle, with no open cursors).
    pub sessions_expired: usize,
}

/// One open cursor's state. Shared between the gate map and any
/// in-flight fetch, so a concurrent close cannot free state a fetch is
/// reading.
struct CursorInner {
    id: u64,
    session: u64,
    handle: JobHandle,
    /// Cursor-pinned snapshot (ingest-attached clusters only): held for
    /// the life of the cursor, not the life of the job, so the cut a
    /// half-read result was computed against stays pinned until the
    /// client is done paging.
    snapshot: Mutex<Option<Snapshot>>,
    /// Serializes fetches: pages of one cursor are exact only under a
    /// single consumer, so a second concurrent fetch queues here.
    /// Holds rows delivered so far (each page's resume offset).
    fetch: Mutex<u64>,
    last_used: Mutex<Instant>,
    released: AtomicBool,
}

impl CursorInner {
    /// Idempotently free everything the cursor holds: cancel the
    /// backing job (queued tasks drain, permits/pool slots return),
    /// drop the pinned snapshot, and lower the `cursors_active` gauge.
    fn release(&self, metrics: &Metrics) {
        if self.released.swap(true, Ordering::SeqCst) {
            return;
        }
        if !self.handle.is_finished() {
            self.handle.cancel();
        }
        drop(self.snapshot.lock().take());
        metrics.leave(Counter::cursors_active);
    }
}

struct SessionEntry {
    tenant: String,
    cursors: FxHashMap<u64, Arc<CursorInner>>,
    last_used: Instant,
}

#[derive(Default)]
struct GateState {
    sessions: FxHashMap<u64, SessionEntry>,
    /// Flat cursor index (`CursorId` is gate-wide); every entry is also
    /// reachable through its session. Both maps change together under
    /// the one state lock.
    cursors: FxHashMap<u64, Arc<CursorInner>>,
}

/// The front door. Owns the scheduler: every client command funnels
/// through here, and dropping the gate closes every session (cancelling
/// cursor-backed jobs) before the scheduler itself shuts down.
pub struct HarborGate {
    scheduler: HarborScheduler,
    config: GateConfig,
    /// The cluster-global metrics handle (gate gauges + shed counter
    /// live next to the I/O counters).
    metrics: Metrics,
    state: Mutex<GateState>,
    next_session: AtomicU64,
    next_cursor: AtomicU64,
    shed: AtomicU64,
    reaped: AtomicU64,
}

impl HarborGate {
    /// Wrap a scheduler with the default front-door config.
    pub fn new(scheduler: HarborScheduler) -> HarborGate {
        HarborGate::with_config(scheduler, GateConfig::default())
    }

    /// Wrap a scheduler, taking ownership: the gate is now the cluster's
    /// front door.
    pub fn with_config(scheduler: HarborScheduler, config: GateConfig) -> HarborGate {
        let metrics = scheduler.cluster().metrics().clone();
        HarborGate {
            scheduler,
            config,
            metrics,
            state: Mutex::new(GateState::default()),
            next_session: AtomicU64::new(1),
            next_cursor: AtomicU64::new(1),
            shed: AtomicU64::new(0),
            reaped: AtomicU64::new(0),
        }
    }

    /// The wrapped scheduler (index builds, direct submissions, stats).
    pub fn scheduler(&self) -> &HarborScheduler {
        &self.scheduler
    }

    /// The front-door configuration in force.
    pub fn config(&self) -> &GateConfig {
        &self.config
    }

    /// Dispatch one command — the handler a network frontend would call
    /// per request.
    pub fn handle(&self, command: Command) -> Result<Reply> {
        match command {
            Command::OpenSession { tenant } => self.open_session(&tenant).map(Reply::SessionOpened),
            Command::CloseSession { session } => {
                self.close_session(session).map(|()| Reply::SessionClosed)
            }
            Command::Query { session, job, opts } => self
                .open_cursor_with(session, &job, opts)
                .map(Reply::CursorOpened),
            Command::Fetch { cursor, max_rows } => self.fetch(cursor, max_rows).map(Reply::Page),
            Command::CloseCursor { cursor } => {
                self.close_cursor(cursor).map(|()| Reply::CursorClosed)
            }
            Command::Stats => Ok(Reply::Stats(self.stats())),
        }
    }

    fn shed(&self, what: std::fmt::Arguments<'_>) -> RedeError {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.metrics.add(Counter::shed_commands, 1);
        RedeError::Overloaded(what.to_string())
    }

    /// Open a session for `tenant`. Sheds with `Overloaded` when the
    /// tenant is at its session cap.
    pub fn open_session(&self, tenant: &str) -> Result<SessionId> {
        let mut st = self.state.lock();
        if let Some(cap) = self.config.max_sessions_per_tenant {
            let live = st.sessions.values().filter(|s| s.tenant == tenant).count();
            if live >= cap {
                return Err(self.shed(format_args!(
                    "tenant '{tenant}' has {live} open sessions (cap {cap})"
                )));
            }
        }
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        st.sessions.insert(
            id,
            SessionEntry {
                tenant: tenant.to_string(),
                cursors: FxHashMap::default(),
                last_used: Instant::now(),
            },
        );
        self.metrics.enter(Counter::sessions_active);
        Ok(SessionId(id))
    }

    /// Close a session: every open cursor is closed (backing jobs
    /// cancelled) and the tenant's session slot frees immediately.
    pub fn close_session(&self, session: SessionId) -> Result<()> {
        let entry = {
            let mut st = self.state.lock();
            let entry = st
                .sessions
                .remove(&session.0)
                .ok_or_else(|| RedeError::NotFound(format!("session {session}")))?;
            for id in entry.cursors.keys() {
                st.cursors.remove(id);
            }
            entry
        };
        for cursor in entry.cursors.values() {
            cursor.release(&self.metrics);
        }
        self.metrics.leave(Counter::sessions_active);
        Ok(())
    }

    /// Submit `job` under `session` with gate defaults and open a
    /// cursor on its streaming output.
    pub fn open_cursor(&self, session: SessionId, job: &Job) -> Result<CursorId> {
        self.open_cursor_with(session, job, QueryOptions::default())
    }

    /// Submit `job` under `session` and open a cursor on its streaming
    /// output. Sheds with `Overloaded` when the session is at its
    /// cursor cap or the scheduler refuses the tenant admission.
    pub fn open_cursor_with(
        &self,
        session: SessionId,
        job: &Job,
        opts: QueryOptions,
    ) -> Result<CursorId> {
        let tenant = {
            let mut st = self.state.lock();
            let entry = st
                .sessions
                .get_mut(&session.0)
                .ok_or_else(|| RedeError::NotFound(format!("session {session}")))?;
            entry.last_used = Instant::now();
            if entry.cursors.len() >= self.config.max_cursors_per_session {
                let open = entry.cursors.len();
                let cap = self.config.max_cursors_per_session;
                return Err(self.shed(format_args!(
                    "session {session} has {open} open cursors (cap {cap})"
                )));
            }
            entry.tenant.clone()
        };
        // Submit outside the gate lock: seeding stage 0 is real work and
        // must not serialize unrelated tenants' commands.
        let weight = if opts.weight == 0 {
            self.config.default_weight
        } else {
            opts.weight
        };
        let mut submit = SubmitOptions::new().tenant(tenant).weight(weight);
        if let Some(deadline) = opts.deadline.or(self.config.default_deadline) {
            submit = submit.deadline(deadline);
        }
        let handle = self
            .scheduler
            .submit_streaming(job, submit, self.config.cursor_buffer)
            .map_err(|err| match err {
                RedeError::Overloaded(msg) => self.shed(format_args!("{msg}")),
                other => other,
            })?;
        // Pin the cursor's own cut (ingest-attached clusters): the job
        // pins one for its reads, but that guard drops at job finish —
        // this one lives until the client is done paging.
        let snapshot = self.scheduler.txn_manager().map(|mgr| mgr.pin());
        let id = self.next_cursor.fetch_add(1, Ordering::Relaxed);
        let inner = Arc::new(CursorInner {
            id,
            session: session.0,
            handle,
            snapshot: Mutex::new(snapshot),
            fetch: Mutex::new(0),
            last_used: Mutex::new(Instant::now()),
            released: AtomicBool::new(false),
        });
        let mut st = self.state.lock();
        match st.sessions.get_mut(&session.0) {
            // Re-check the cap: another open may have raced in while the
            // lock was released for the submit.
            Some(entry) if entry.cursors.len() < self.config.max_cursors_per_session => {
                entry.cursors.insert(id, inner.clone());
                st.cursors.insert(id, inner);
                self.metrics.enter(Counter::cursors_active);
                Ok(CursorId(id))
            }
            Some(entry) => {
                let open = entry.cursors.len();
                let cap = self.config.max_cursors_per_session;
                drop(st);
                inner.handle.cancel();
                Err(self.shed(format_args!(
                    "session {session} has {open} open cursors (cap {cap})"
                )))
            }
            // The session closed while the job was being submitted; the
            // job must not outlive its session.
            None => {
                drop(st);
                inner.handle.cancel();
                drop(inner.snapshot.lock().take());
                Err(RedeError::NotFound(format!("session {session}")))
            }
        }
    }

    /// Fetch the next page of `cursor`: up to `max_rows` records in
    /// emission order. Blocks (deadline loop, at most
    /// `GateConfig::fetch_timeout`) while the producing job has emitted
    /// nothing new. A done page (or a job error) releases the cursor;
    /// fetching it again is `NotFound`.
    pub fn fetch(&self, cursor: CursorId, max_rows: usize) -> Result<Page> {
        let inner = self
            .state
            .lock()
            .cursors
            .get(&cursor.0)
            .cloned()
            .ok_or_else(|| RedeError::NotFound(format!("cursor {cursor}")))?;
        let mut delivered = inner.fetch.lock();
        if inner.released.load(Ordering::SeqCst) {
            return Err(RedeError::NotFound(format!("cursor {cursor}")));
        }
        *inner.last_used.lock() = Instant::now();
        let max_rows = max_rows.max(1);
        let deadline = Instant::now() + self.config.fetch_timeout;
        loop {
            // Observe completion *before* draining: emission strictly
            // precedes completion, so a drain that comes back empty after
            // a finished observation is exactly "exhausted". Checked the
            // other way round, records emitted between the empty drain
            // and the job finishing would be lost behind a done page.
            let finished = inner.handle.is_finished();
            let records = inner.handle.drain_output(max_rows);
            #[cfg(test)]
            if records.is_empty() {
                tests::after_empty_drain();
            }
            if !records.is_empty() {
                let offset = *delivered;
                *delivered += records.len() as u64;
                *inner.last_used.lock() = Instant::now();
                // `is_finished` implies every record is already in the
                // sink (emission strictly precedes completion), so
                // "finished and drained" is exactly "exhausted" — but a
                // failed job's buffered prefix is partial output, so
                // surface the error on the *next* fetch rather than
                // marking this page done.
                let done = inner.handle.is_finished()
                    && inner.handle.output_pending() == 0
                    && matches!(inner.handle.try_result(), Some(Ok(_)));
                if done {
                    self.remove_cursor(&inner);
                }
                return Ok(Page {
                    records,
                    offset,
                    done,
                });
            }
            if finished {
                // Nothing buffered and nothing coming. Either a clean
                // empty tail (done page) or the job's error. `wait`, not
                // `try_result`: the finished flag is raised before the
                // result is published, and this can land in the gap.
                let result = inner.handle.wait();
                self.remove_cursor(&inner);
                return match result {
                    Ok(_) => Ok(Page {
                        records: Vec::new(),
                        offset: *delivered,
                        done: true,
                    }),
                    Err(err) => Err(err),
                };
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RedeError::Exec(format!(
                    "cursor {cursor} fetch timed out after {:?} (job still running)",
                    self.config.fetch_timeout
                )));
            }
            // Park until the job emits or finishes; a spurious wakeup
            // re-enters the loop and waits only the *remaining* time.
            inner.handle.output_available(deadline - now);
        }
    }

    /// Close `cursor`, cancelling its backing job if still running. All
    /// resources (permits, pool slots, queue slots, snapshot) return.
    pub fn close_cursor(&self, cursor: CursorId) -> Result<()> {
        let inner = self
            .state
            .lock()
            .cursors
            .get(&cursor.0)
            .cloned()
            .ok_or_else(|| RedeError::NotFound(format!("cursor {cursor}")))?;
        self.remove_cursor(&inner);
        Ok(())
    }

    /// Unlink `inner` from both maps and free what it holds. Idempotent:
    /// losers of a close/done/reap race find the maps already clean.
    fn remove_cursor(&self, inner: &Arc<CursorInner>) {
        {
            let mut st = self.state.lock();
            st.cursors.remove(&inner.id);
            if let Some(entry) = st.sessions.get_mut(&inner.session) {
                entry.cursors.remove(&inner.id);
                entry.last_used = Instant::now();
            }
        }
        inner.release(&self.metrics);
    }

    /// Reap idle state: cursors untouched past
    /// [`GateConfig::cursor_idle_timeout`] (their backing jobs are
    /// cancelled — a client that stopped fetching stops costing pool
    /// shares, buffers, and snapshots) and cursor-less sessions idle
    /// past [`GateConfig::session_idle_timeout`]. Call this from a
    /// housekeeping timer; it is deliberately explicit (no background
    /// thread) so tests and simulations control time.
    pub fn sweep_idle(&self) -> SweepReport {
        let now = Instant::now();
        let mut report = SweepReport::default();
        let stale: Vec<Arc<CursorInner>> = {
            let st = self.state.lock();
            st.cursors
                .values()
                .filter(|c| {
                    now.duration_since(*c.last_used.lock()) >= self.config.cursor_idle_timeout
                })
                .cloned()
                .collect()
        };
        for cursor in stale {
            self.remove_cursor(&cursor);
            self.reaped.fetch_add(1, Ordering::Relaxed);
            report.cursors_reaped += 1;
        }
        let expired: Vec<u64> = {
            let st = self.state.lock();
            st.sessions
                .iter()
                .filter(|(_, s)| {
                    s.cursors.is_empty()
                        && now.duration_since(s.last_used) >= self.config.session_idle_timeout
                })
                .map(|(&id, _)| id)
                .collect()
        };
        for id in expired {
            if self.close_session(SessionId(id)).is_ok() {
                report.sessions_expired += 1;
            }
        }
        report
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> GateStats {
        let st = self.state.lock();
        GateStats {
            sessions: st.sessions.len(),
            cursors: st.cursors.len(),
            cursors_stalled: st
                .cursors
                .values()
                .filter(|c| c.handle.output_stalled())
                .count(),
            shed_commands: self.shed.load(Ordering::Relaxed),
            cursors_reaped: self.reaped.load(Ordering::Relaxed),
            scheduler: self.scheduler.stats(),
        }
    }
}

impl Drop for HarborGate {
    /// Closing the front door closes every session: cursor-backed jobs
    /// are cancelled and gauges return to zero *before* the scheduler's
    /// own drop cancels whatever else is active.
    fn drop(&mut self) {
        let ids: Vec<u64> = self.state.lock().sessions.keys().copied().collect();
        for id in ids {
            let _ = self.close_session(SessionId(id));
        }
    }
}

#[cfg(test)]
mod tests;
