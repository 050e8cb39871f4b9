//! The cluster's event loop: `SimFabric`.
//!
//! One deadline heap on one timer thread per cluster serves every place the
//! simulation waits without occupying a thread (DESIGN.md § 7). Each node
//! owns two **lanes**, each a window of slots with its own capacity,
//! in-flight count, FIFO queue and slot time:
//!
//! * **[`Lane::Device`]**, `IoModel::queue_depth` slots. Each charged
//!   access holds one of its serving node's slots for its modeled device
//!   time. "At most `capacity` outstanding, FIFO pending, deadline taken at
//!   promotion" is exactly an IOPS limiter.
//! * **[`Lane::Wire`]**, `IoModel::wire_window` slots. A dispatch that owes
//!   a network round trip flies it on its submitting node's wire lane once
//!   its device time has landed; the issuing thread returns to CPU work and
//!   the timer thread fires the continuation when the round trip lands.
//!   Slept on a pool thread, that RTT would cap cross-node concurrency by
//!   the pool size instead of by the window.
//!
//! **Runs.** The unit submitted is a [`Run`]: `count` requests to one lane
//! of one node with one delay and one completion. Requests granted their
//! slots at the same instant share a deadline, so they are one heap entry
//! and one timer event — a *wave* — however many they are: a run takes
//! `min(count, free)` slots at once, the rest queue FIFO (behind anything
//! already waiting on that lane) and follow in waves as slots return, and
//! the completion fires once, with the last wave. Per request nothing
//! changes: one slot, held for exactly its own delay, counted in
//! `in_service`, `slot_time` and the submitter's held-slot gauge. The wire
//! flies runs of one; a device lane receives the equal reads of a batch as
//! one run, so a batch costs the timer thread an event per wave instead of
//! one per read.
//!
//! **Timers** on the same heap hold no slot: a phase's wait
//! ([`SimFabric::after`]) and a job's deadline ([`SimFabric::timer`]).
//! Every other simulated wait outside the WAL is [`sleep`], the one inline
//! sleep of a caller blocked on its own accesses.
//!
//! Two properties make this a pure scheduling transformation:
//!
//! * **Per-lane in-flight windows.** Each lane of each node keeps at most
//!   its capacity of requests in the air; further submissions queue behind
//!   them (FIFO per lane, counted as window stalls) and take their deadline
//!   at *promotion* time, exactly as a real initiator with a bounded
//!   outstanding-request window — or a device with a bounded queue — would.
//!   A full device lane never stalls the same node's wire, nor the reverse.
//!   The wire window is the knob the in-flight sweep in `ablation_batching`
//!   measures.
//! * **Fault-at-submit.** All fault-injector consultation, retry
//!   accounting, counters, and cache updates happen on the submitting
//!   thread *before* a flight is armed, in input order — so a seeded chaos
//!   run issues exactly the same injector consults in exactly the same
//!   order whatever the window, and completions carry only CPU work.
//!
//! The timer thread is spawned by the first flight armed, so a loop that
//! never carries one (a latency-free cluster, a cluster only ever read one
//! synchronous access at a time) costs no thread. Completions always run
//! outside the loop's lock, and shutdown fires every remaining completion
//! immediately (a dropped completion would strand its job's in-flight
//! tokens forever).

use parking_lot::{Condvar, Mutex, MutexGuard};
use rede_common::{IoScope, PermitHold};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One of a node's two resources, each a window of slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane {
    /// Device slots: `IoModel::queue_depth` per node.
    Device,
    /// Wire window: `IoModel::wire_window` round trips per node.
    Wire,
}

/// What a flight runs when it lands (on the timer thread, or inline on
/// the submitter during teardown).
pub(crate) type Completion = Box<dyn FnOnce() + Send + 'static>;

/// One submission: `count` requests to `lane` of `node`, each holding one
/// of its slots for `delay`, and what runs when the last of them has
/// landed. The wire flies runs of one; a device lane receives the equal
/// accesses of a charge as one run, so a batch of reads costs one event
/// per wave instead of one per read.
pub(crate) struct Run {
    pub(crate) node: usize,
    pub(crate) lane: Lane,
    pub(crate) delay: Duration,
    pub(crate) count: usize,
    pub(crate) complete: Completion,
}

/// A flight armed in the completion heap: the part of a run (all of it,
/// when it fit) granted its slots together, so sharing one deadline.
struct Flight {
    deadline: Instant,
    /// Submission sequence, the deterministic tie-break for equal deadlines.
    seq: u64,
    /// The lane whose window this flight occupies and how many of its
    /// slots; `None` for a bare timer ([`SimFabric::after`]).
    slots: Option<(usize, Lane, usize)>,
    /// Armed by [`SimFabric::timer`]: not simulated I/O, so
    /// [`SimFabric::in_flight`] does not count it.
    timer: bool,
    /// The submitting job's held-slot gauge, up from grant to landing.
    _hold: Option<PermitHold>,
    /// What landing fires. Only the *last-granted* part of a run carries
    /// the run's completion: parts share one delay and are granted in
    /// order, so it is also the last to land.
    complete: Option<Completion>,
}

impl PartialEq for Flight {
    fn eq(&self, other: &Flight) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for Flight {}
impl PartialOrd for Flight {
    fn partial_cmp(&self, other: &Flight) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Flight {
    /// Reversed so the `BinaryHeap` (a max-heap) pops the *earliest*
    /// deadline first.
    fn cmp(&self, other: &Flight) -> std::cmp::Ordering {
        other
            .deadline
            .cmp(&self.deadline)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A run — or what is left of one — waiting for room on its lane.
struct Pending {
    delay: Duration,
    /// Requests of the run not yet granted a slot.
    count: usize,
    scope: Option<Arc<IoScope>>,
    complete: Completion,
}

#[derive(Default)]
struct LaneState {
    inflight: usize,
    pending: VecDeque<Pending>,
    /// Σ delay of every request ever granted a slot on this lane.
    slot_time: Duration,
}

#[derive(Default)]
struct State {
    heap: BinaryHeap<Flight>,
    /// How many of `heap`'s flights are [`SimFabric::timer`]s.
    timers: usize,
    /// Per node, its lanes indexed by `Lane as usize`.
    nodes: Vec<[LaneState; 2]>,
    next_seq: u64,
    /// The timer thread exists (spawned by the first armed flight).
    running: bool,
    shutdown: bool,
}

impl State {
    fn lane(&mut self, node: usize, lane: Lane) -> &mut LaneState {
        if self.nodes.len() <= node {
            self.nodes.resize_with(node + 1, Default::default);
        }
        &mut self.nodes[node][lane as usize]
    }

    /// Hand a lane's free slots to its queue, oldest first: each queued run
    /// is granted as many slots as are free — a wave of it — its requests'
    /// service starting only now, exactly like a bounded initiator window,
    /// or a device queue. Every grant holds one slot per request for the
    /// run's delay, with the submitter's held-slot gauge up until landing.
    fn promote(&mut self, node: usize, lane: Lane, now: Instant, capacity: usize) {
        loop {
            let slot = &mut self.nodes[node][lane as usize];
            let free = capacity.saturating_sub(slot.inflight);
            let Some(next) = slot.pending.front_mut() else {
                return;
            };
            if free == 0 {
                return;
            }
            let grant = free.min(next.count);
            next.count -= grant;
            let deadline = now + next.delay;
            let hold = next.scope.as_ref().map(|s| s.hold_permits(grant));
            slot.inflight += grant;
            slot.slot_time = slot
                .slot_time
                .saturating_add(next.delay.saturating_mul(grant as u32));
            let complete =
                (next.count == 0).then(|| slot.pending.pop_front().expect("peeked").complete);
            self.push(Some((node, lane, grant)), false, deadline, hold, complete);
        }
    }

    fn push(
        &mut self,
        slots: Option<(usize, Lane, usize)>,
        timer: bool,
        deadline: Instant,
        hold: Option<PermitHold>,
        complete: Option<Completion>,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.timers += usize::from(timer);
        self.heap.push(Flight {
            deadline,
            seq,
            slots,
            timer,
            _hold: hold,
            complete,
        });
    }

    /// Return `count` of a lane's slots and hand them on to its queue.
    fn release(&mut self, node: usize, lane: Lane, count: usize, now: Instant, capacity: usize) {
        self.nodes[node][lane as usize].inflight -= count;
        self.promote(node, lane, now, capacity);
    }

    fn head(&self) -> Option<u64> {
        self.heap.peek().map(|f| f.seq)
    }
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
}

/// The event loop. One instance serves a whole cluster, both lanes of
/// every node; submissions come from any thread, completions fire on the
/// single timer thread.
pub(crate) struct SimFabric {
    shared: Arc<Shared>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Slots per node, indexed by `Lane as usize`.
    capacity: [usize; 2],
}

impl SimFabric {
    /// A loop with `queue_depth` device slots and `wire_window` wire slots
    /// per node (each ≥ 1). Its timer thread starts with the first flight.
    pub(crate) fn new(queue_depth: usize, wire_window: usize) -> SimFabric {
        debug_assert!(queue_depth > 0 && wire_window > 0, "a lane needs a slot");
        SimFabric {
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
                wake: Condvar::new(),
            }),
            thread: Mutex::new(None),
            capacity: [queue_depth, wire_window],
        }
    }

    /// The configured slots per node on `lane`.
    pub(crate) fn capacity(&self, lane: Lane) -> usize {
        self.capacity[lane as usize]
    }

    /// Submit one flight: after `delay`, `complete` fires on the timer
    /// thread. If the lane's window is full the flight queues behind the
    /// outstanding ones and its deadline starts at promotion. Returns
    /// `true` when the submission stalled on the window (the caller's
    /// stall counter).
    pub(crate) fn submit(
        &self,
        node: usize,
        lane: Lane,
        delay: Duration,
        complete: Completion,
    ) -> bool {
        let run = Run {
            node,
            lane,
            delay,
            count: 1,
            complete,
        };
        self.submit_all(None, [run]) > 0
    }

    /// Submit `runs` under one lock, in order, and return how many of
    /// their requests stalled on their lane's window. A run is granted
    /// `min(count, free)` slots at once; what is left queues FIFO behind
    /// anything already waiting on that lane and proceeds in waves as
    /// slots return. Each request holds `scope`'s permit gauge from the
    /// moment it is granted a slot until it lands, and the run's
    /// completion fires once, when its last request has landed.
    pub(crate) fn submit_all(
        &self,
        scope: Option<&Arc<IoScope>>,
        runs: impl IntoIterator<Item = Run>,
    ) -> usize {
        let mut state = self.shared.state.lock();
        if state.shutdown {
            // Late submission during teardown: fire inline rather than
            // strand the job's in-flight tokens.
            drop(state);
            for run in runs {
                (run.complete)();
            }
            return 0;
        }
        let head = state.head();
        let now = Instant::now();
        let mut stalled = 0;
        for run in runs {
            debug_assert!(run.count > 0, "a run is at least one request");
            let capacity = self.capacity(run.lane);
            let slot = state.lane(run.node, run.lane);
            // A non-empty queue means a full window: nothing overtakes it.
            let free = if slot.pending.is_empty() {
                capacity.saturating_sub(slot.inflight)
            } else {
                0
            };
            stalled += run.count.saturating_sub(free);
            slot.pending.push_back(Pending {
                delay: run.delay,
                count: run.count,
                scope: scope.cloned(),
                complete: run.complete,
            });
            state.promote(run.node, run.lane, now, capacity);
        }
        self.armed(state, head);
        stalled
    }

    /// A bare timer: `complete` fires after `delay`, holding no slot
    /// (waits that are not a request to anything — page-fault service,
    /// retry backoff).
    pub(crate) fn after(&self, delay: Duration, complete: Completion) {
        self.arm(delay, false, complete);
    }

    /// [`SimFabric::after`] for a timer that is no simulated I/O (a job's
    /// deadline), so [`SimFabric::in_flight`] does not count it.
    pub(crate) fn timer(&self, delay: Duration, complete: Completion) {
        self.arm(delay, true, complete);
    }

    fn arm(&self, delay: Duration, timer: bool, complete: Completion) {
        let mut state = self.shared.state.lock();
        if state.shutdown {
            drop(state);
            complete();
            return;
        }
        let head = state.head();
        state.push(None, timer, Instant::now() + delay, None, Some(complete));
        self.armed(state, head);
    }

    /// The blocking counterpart of [`SimFabric::submit`] for a caller with
    /// nothing else to do: occupy one slot of `lane` on `node` for `delay`
    /// and return when the time is up. A free slot is slept in right here
    /// on the calling thread — no timer hand-off, so a lone synchronous
    /// access costs its modeled time and nothing more; a full window queues
    /// the caller FIFO behind the others like any submission. Slot count,
    /// slot time and `scope`'s gauge move exactly as for a flight.
    pub(crate) fn hold(
        &self,
        node: usize,
        lane: Lane,
        delay: Duration,
        scope: Option<&Arc<IoScope>>,
    ) {
        let capacity = self.capacity(lane);
        let mut state = self.shared.state.lock();
        if state.shutdown {
            return;
        }
        let slot = state.lane(node, lane);
        if slot.inflight >= capacity {
            let (landed_tx, landed) = std::sync::mpsc::sync_channel(1);
            slot.pending.push_back(Pending {
                delay,
                count: 1,
                scope: scope.cloned(),
                complete: Box::new(move || {
                    let _ = landed_tx.send(());
                }),
            });
            drop(state);
            let _ = landed.recv();
            return;
        }
        slot.inflight += 1;
        slot.slot_time = slot.slot_time.saturating_add(delay);
        drop(state);
        let held = scope.map(IoScope::hold_permit);
        sleep(delay);
        drop(held);
        let mut state = self.shared.state.lock();
        let head = state.head();
        state.release(node, lane, 1, Instant::now(), capacity);
        self.armed(state, head);
    }

    /// Tell the timer thread about what a submission armed — starting the
    /// thread if this is the first flight ever. It only needs to hear
    /// about a new *earliest* deadline: a stalled submission arms nothing,
    /// and a flight behind the head is found when the head lands.
    fn armed(&self, mut state: MutexGuard<'_, State>, head_before: Option<u64>) {
        if state.head() == head_before {
            return;
        }
        if state.running {
            drop(state);
            self.shared.wake.notify_one();
            return;
        }
        state.running = true;
        let worker = self.shared.clone();
        let capacity = self.capacity;
        // Stored under the state lock so a racing `shutdown` (which takes
        // the handle only after setting its flag under this same lock)
        // always finds it.
        *self.thread.lock() = Some(
            std::thread::Builder::new()
                .name("rede-fabric".into())
                .spawn(move || Self::run(&worker, capacity))
                .expect("spawn fabric thread"),
        );
    }

    /// Flights currently armed plus runs still queued, whole or in part,
    /// on either lane (diagnostic; 0 when quiescent). Timers armed by
    /// [`SimFabric::timer`] are not counted.
    pub(crate) fn in_flight(&self) -> usize {
        let state = self.shared.state.lock();
        let queued = state.nodes.iter().flatten().map(|l| l.pending.len());
        state.heap.len() - state.timers + queued.sum::<usize>()
    }

    /// Requests holding a slot of `lane` right now, per node (diagnostic;
    /// nodes that never saw a flight are absent).
    pub(crate) fn in_service(&self, lane: Lane) -> Vec<usize> {
        let state = self.shared.state.lock();
        state
            .nodes
            .iter()
            .map(|n| n[lane as usize].inflight)
            .collect()
    }

    /// Cumulative slot time granted on `lane` per node: Σ delay over every
    /// request that ever held one of its slots (diagnostic; nodes that
    /// never saw a flight are absent).
    pub(crate) fn slot_time(&self, lane: Lane) -> Vec<Duration> {
        let state = self.shared.state.lock();
        state
            .nodes
            .iter()
            .map(|n| n[lane as usize].slot_time)
            .collect()
    }

    fn run(shared: &Shared, capacity: [usize; 2]) {
        let mut state = shared.state.lock();
        loop {
            let now = Instant::now();
            // Land every due flight: collect its completion and return
            // its slots (promoting the lane's oldest queued runs).
            let mut due: Vec<Completion> = Vec::new();
            while state.heap.peek().is_some_and(|f| f.deadline <= now) {
                let flight = state.heap.pop().expect("peeked");
                state.timers -= usize::from(flight.timer);
                due.extend(flight.complete);
                if let Some((node, lane, count)) = flight.slots {
                    state.release(node, lane, count, now, capacity[lane as usize]);
                }
            }
            if !due.is_empty() {
                // Completions run without the lock: they re-enqueue
                // continuations, which may submit follow-up flights.
                drop(state);
                for complete in due {
                    complete();
                }
                state = shared.state.lock();
                continue;
            }
            if state.shutdown {
                // Teardown: fire everything left immediately, in deadline
                // order then FIFO per lane, so no token is stranded.
                let mut rest: Vec<Completion> = Vec::new();
                let mut heap = std::mem::take(&mut state.heap);
                state.timers = 0;
                while let Some(f) = heap.pop() {
                    // Slots taken by `hold` stay counted: their holders
                    // give them back themselves.
                    if let Some((node, lane, count)) = f.slots {
                        state.nodes[node][lane as usize].inflight -= count;
                    }
                    rest.extend(f.complete);
                }
                for lane in state.nodes.iter_mut().flatten() {
                    while let Some(p) = lane.pending.pop_front() {
                        rest.push(p.complete);
                    }
                }
                drop(state);
                for complete in rest {
                    complete();
                }
                return;
            }
            match state.heap.peek().map(|f| f.deadline) {
                Some(deadline) => {
                    let pause = deadline.saturating_duration_since(Instant::now());
                    if !pause.is_zero() {
                        shared.wake.wait_for(&mut state, pause);
                    }
                }
                None => shared.wake.wait(&mut state),
            }
        }
    }

    /// Stop the timer thread, firing every outstanding completion first.
    /// Idempotent; also called by `Drop`.
    pub(crate) fn shutdown(&self) {
        self.shared.state.lock().shutdown = true;
        self.shared.wake.notify_one();
        if let Some(t) = self.thread.lock().take() {
            // A completion may drop the last handle to whatever owns this
            // loop, landing here *on* the timer thread: it cannot join
            // itself, and it exits on the flag as soon as that completion
            // returns.
            if t.thread().id() != std::thread::current().id() {
                let _ = t.join();
            }
        }
    }
}

impl Drop for SimFabric {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spend `d` of modeled time on the calling thread, the one place outside
/// the WAL where `rede-storage` sleeps: a synchronous caller's wait, kept
/// inline because a hand-off to the timer thread adds its wake-up to
/// every lone access.
pub(crate) fn sleep(d: Duration) {
    if !d.is_zero() {
        std::thread::sleep(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    /// A loop whose two lanes both have `window` slots per node.
    fn windowed(window: usize) -> SimFabric {
        SimFabric::new(window, window)
    }

    #[test]
    fn completions_fire_in_deadline_order() {
        let fabric = windowed(8);
        let (tx, rx) = mpsc::channel();
        for (i, delay_us) in [(0u32, 3000u64), (1, 1000), (2, 2000)] {
            let tx = tx.clone();
            fabric.submit(
                0,
                Lane::Device,
                Duration::from_micros(delay_us),
                Box::new(move || tx.send(i).unwrap()),
            );
        }
        let order: Vec<u32> = (0..3)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        assert_eq!(order, vec![1, 2, 0], "earliest deadline lands first");
        assert_eq!(fabric.in_flight(), 0);
    }

    #[test]
    fn window_bounds_per_node_inflight_and_stalls_are_reported() {
        let fabric = windowed(2);
        let (tx, rx) = mpsc::channel();
        let mut stalls = 0;
        for _ in 0..10 {
            let tx = tx.clone();
            let stalled = fabric.submit(
                3,
                Lane::Device,
                Duration::from_micros(500),
                Box::new(move || tx.send(()).unwrap()),
            );
            if stalled {
                stalls += 1;
            }
        }
        for _ in 0..10 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert_eq!(stalls, 8, "window 2 admits 2 of 10 burst submissions");
        assert_eq!(fabric.in_flight(), 0);
    }

    #[test]
    fn nodes_have_independent_windows() {
        let fabric = windowed(1);
        // One long flight occupies node 0's window...
        fabric.submit(0, Lane::Device, Duration::from_millis(50), Box::new(|| {}));
        let (tx, rx) = mpsc::channel();
        // ...but node 1 is unaffected.
        let stalled = fabric.submit(
            1,
            Lane::Device,
            Duration::from_micros(100),
            Box::new(move || tx.send(()).unwrap()),
        );
        assert!(!stalled);
        rx.recv_timeout(Duration::from_secs(5)).unwrap();

        // Nor are a node's lanes: a full device lane leaves the wire free,
        // and a full wire leaves the device lane free.
        let hour = Duration::from_secs(3600);
        for (full, other) in [(Lane::Device, Lane::Wire), (Lane::Wire, Lane::Device)] {
            let fabric = windowed(1);
            assert!(!fabric.submit(0, full, hour, Box::new(|| {})));
            assert!(
                fabric.submit(0, full, hour, Box::new(|| {})),
                "{full:?} is full"
            );
            let (tx, rx) = mpsc::channel();
            let stalled = fabric.submit(
                0,
                other,
                Duration::from_micros(100),
                Box::new(move || tx.send(()).unwrap()),
            );
            assert!(!stalled, "a full {full:?} lane stalled the {other:?} lane");
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(fabric.in_service(full), vec![1]);
            assert_eq!(fabric.in_service(other), vec![0]);
        }
    }

    #[test]
    fn shutdown_fires_outstanding_completions() {
        let fired = Arc::new(AtomicUsize::new(0));
        let fabric = windowed(1);
        for _ in 0..5 {
            let fired = fired.clone();
            // Far-future deadlines: only shutdown can fire these.
            fabric.submit(
                0,
                Lane::Device,
                Duration::from_secs(3600),
                Box::new(move || {
                    fired.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        fabric.shutdown();
        assert_eq!(
            fired.load(Ordering::SeqCst),
            5,
            "shutdown must fire armed and window-queued flights alike"
        );
        assert_eq!(fabric.in_flight(), 0);
    }

    #[test]
    fn zero_delay_flights_complete_promptly() {
        let fabric = windowed(16);
        let (tx, rx) = mpsc::channel();
        fabric.submit(
            0,
            Lane::Device,
            Duration::ZERO,
            Box::new(move || tx.send(()).unwrap()),
        );
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
    }

    #[test]
    fn the_timer_thread_starts_with_the_first_flight() {
        let fabric = windowed(16);
        assert!(
            fabric.thread.lock().is_none(),
            "an idle fabric owns no thread"
        );
        fabric.shutdown();
        assert!(fabric.thread.lock().is_none());

        let fabric = windowed(16);
        let (tx, rx) = mpsc::channel();
        fabric.after(
            Duration::from_micros(100),
            Box::new(move || tx.send(()).unwrap()),
        );
        assert!(fabric.thread.lock().is_some());
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
    }

    #[test]
    fn slots_are_counted_and_attributed_from_grant_to_landing() {
        let fabric = windowed(2);
        let scope = Arc::new(IoScope::new(1));
        let hour = Duration::from_secs(3600);
        let flights = (0..5).map(|_| Run {
            node: 1,
            lane: Lane::Device,
            delay: hour,
            count: 1,
            complete: Box::new(|| {}),
        });
        assert_eq!(fabric.submit_all(Some(&scope), flights), 3);
        // Two granted, three queued: only granted slots are held, counted
        // in service, and charged slot time. A bare timer takes no slot,
        // and one that is no simulated I/O is not in flight either.
        fabric.after(hour, Box::new(|| {}));
        fabric.timer(hour, Box::new(|| {}));
        assert_eq!(fabric.in_service(Lane::Device), vec![0, 2]);
        assert_eq!(scope.permits_held(), 2);
        assert_eq!(
            fabric.slot_time(Lane::Device),
            vec![Duration::ZERO, hour * 2]
        );
        assert_eq!(fabric.in_flight(), 6);
        fabric.shutdown();
        assert_eq!(scope.permits_held(), 0);
        assert_eq!(fabric.in_service(Lane::Device), vec![0, 0]);
        assert_eq!(fabric.in_flight(), 0);
    }

    fn run_of(count: usize, delay: Duration, complete: Completion) -> Run {
        Run {
            node: 0,
            lane: Lane::Device,
            delay,
            count,
            complete,
        }
    }

    #[test]
    fn a_run_over_the_window_proceeds_in_fifo_waves_and_lands_once() {
        let fabric = windowed(4);
        let d = Duration::from_millis(2);
        let landed = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        let start = Instant::now();
        let run = run_of(10, d, {
            let (landed, tx) = (landed.clone(), tx.clone());
            Box::new(move || {
                landed.fetch_add(1, Ordering::SeqCst);
                tx.send(("run", start.elapsed())).unwrap();
            })
        });
        assert_eq!(fabric.submit_all(None, [run]), 6, "4 of 10 fit the window");
        // A later request queues behind the run's remainder: it shares the
        // run's last wave and lands after it.
        let stalled = fabric.submit(
            0,
            Lane::Device,
            d,
            Box::new(move || tx.send(("single", start.elapsed())).unwrap()),
        );
        assert!(stalled);
        let (first, run_took) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let (second, single_took) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((first, second), ("run", "single"), "FIFO: no overtaking");
        assert!(
            run_took >= d * 3,
            "10 requests / window 4 = 3 waves: {run_took:?}"
        );
        assert!(single_took >= d * 3, "{single_took:?}");
        assert_eq!(landed.load(Ordering::SeqCst), 1, "one completion per run");
        assert_eq!(
            fabric.slot_time(Lane::Device),
            vec![d * 11],
            "one slot time per request"
        );
        assert_eq!(fabric.in_service(Lane::Device), vec![0]);
        assert_eq!(fabric.in_flight(), 0);
    }

    #[test]
    fn a_run_holds_one_slot_per_request_and_shutdown_mid_run_lands_it_once() {
        let fabric = windowed(2);
        let scope = Arc::new(IoScope::new(1));
        let hour = Duration::from_secs(3600);
        let landed = Arc::new(AtomicUsize::new(0));
        let run = run_of(5, hour, {
            let landed = landed.clone();
            Box::new(move || {
                landed.fetch_add(1, Ordering::SeqCst);
            })
        });
        assert_eq!(fabric.submit_all(Some(&scope), [run]), 3);
        // Two of the five are in service as one flight; the gauge and the
        // slot time count requests, not flights.
        assert_eq!(fabric.in_service(Lane::Device), vec![2]);
        assert_eq!(scope.permits_held(), 2);
        assert_eq!(fabric.slot_time(Lane::Device), vec![hour * 2]);
        assert_eq!(fabric.in_flight(), 2, "the armed wave and the remainder");
        assert_eq!(landed.load(Ordering::SeqCst), 0);
        fabric.shutdown();
        assert_eq!(
            landed.load(Ordering::SeqCst),
            1,
            "teardown lands the run once"
        );
        assert_eq!(scope.permits_held(), 0);
        assert_eq!(fabric.in_service(Lane::Device), vec![0]);
        assert_eq!(fabric.in_flight(), 0);
    }

    #[test]
    fn queued_flights_take_their_slot_time_at_promotion() {
        let fabric = windowed(1);
        let (tx, rx) = mpsc::channel();
        let d = Duration::from_millis(2);
        let start = Instant::now();
        for _ in 0..4 {
            let tx = tx.clone();
            fabric.submit(0, Lane::Device, d, Box::new(move || tx.send(()).unwrap()));
        }
        for _ in 0..4 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert!(start.elapsed() >= d * 4, "window 1 serves one at a time");
        assert_eq!(fabric.slot_time(Lane::Device), vec![d * 4]);
    }

    #[test]
    fn shutdown_from_a_completion_does_not_join_itself() {
        let fabric = Arc::new(windowed(16));
        let (tx, rx) = mpsc::channel();
        let inner = fabric.clone();
        fabric.after(
            Duration::from_micros(100),
            Box::new(move || {
                inner.shutdown();
                tx.send(()).unwrap();
            }),
        );
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
    }

    #[test]
    fn hold_sleeps_in_a_free_slot_and_queues_behind_a_full_window() {
        let fabric = windowed(1);
        let scope = Arc::new(IoScope::new(1));
        let d = Duration::from_millis(2);
        let start = Instant::now();
        fabric.hold(0, Lane::Device, d, Some(&scope));
        assert!(start.elapsed() >= d);
        assert!(
            fabric.thread.lock().is_none(),
            "an uncontended hold needs no timer"
        );
        // Three holders against one slot: served one at a time, whoever
        // finds the slot taken queueing behind it.
        let barrier = std::sync::Barrier::new(3);
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    barrier.wait();
                    fabric.hold(0, Lane::Device, d, Some(&scope));
                });
            }
        });
        assert!(start.elapsed() >= d * 3, "window 1 serves one at a time");
        assert_eq!(fabric.slot_time(Lane::Device), vec![d * 4]);
        assert_eq!(fabric.in_service(Lane::Device), vec![0]);
        assert_eq!(scope.permits_held(), 0);
    }
}
