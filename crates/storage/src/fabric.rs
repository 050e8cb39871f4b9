//! Event-driven network-completion layer: `SimFabric`.
//!
//! The dereference path (DESIGN.md § 7) amortizes the remote round trip to
//! one RTT per submission and hands it back to the caller instead of
//! sleeping it. Slept on the issuing pool thread, that RTT would cap
//! cross-node concurrency by the pool size instead of by the fabric;
//! `SimFabric` is where the executor puts it instead: a remote batch is
//! **submitted** with its computed completion delay, the issuing thread
//! returns to CPU work immediately, and one fabric thread services a
//! min-heap of completion deadlines, firing each batch's continuation
//! when its round trip "lands".
//!
//! Two properties make this a pure scheduling transformation:
//!
//! * **Per-node in-flight windows.** Each submitting node may keep at most
//!   `window` batches in the air; further submissions queue behind them
//!   (FIFO per node, counted as window stalls) and take their deadline at
//!   *promotion* time, exactly as a real initiator with a bounded
//!   outstanding-request window would. `window` is the knob the in-flight
//!   sweep in `ablation_batching` measures.
//! * **Fault-at-submit.** All fault-injector consultation, retry/backoff
//!   accounting, device-time sleeps, and cache updates happen on the
//!   submitting thread *before* the flight is armed, in input order — so a
//!   seeded chaos run issues exactly the same injector consults in exactly
//!   the same order whatever the window, and completions carry only CPU
//!   work (output routing).
//!
//! Completions always run outside the fabric lock, and shutdown fires every
//! remaining completion immediately (a dropped completion would strand its
//! job's in-flight tokens forever).

use parking_lot::{Condvar, Mutex};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for the event-driven fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// Maximum remote batches one node keeps in flight; submissions over
    /// the window queue FIFO behind the outstanding ones. Clamped to ≥ 1.
    pub window: usize,
}

impl FabricConfig {
    /// A fabric window of `window` outstanding batches per node.
    pub fn window(window: usize) -> FabricConfig {
        FabricConfig {
            window: window.max(1),
        }
    }
}

impl Default for FabricConfig {
    /// Default outstanding-request window (16 per node): deep enough to
    /// saturate an RTT-dominant fabric from a small pool, shallow enough
    /// that one node cannot monopolize the completion thread.
    fn default() -> FabricConfig {
        FabricConfig { window: 16 }
    }
}

type Completion = Box<dyn FnOnce() + Send + 'static>;

/// A flight armed in the completion heap.
struct Flight {
    deadline: Instant,
    /// Submission sequence, the deterministic tie-break for equal deadlines.
    seq: u64,
    node: usize,
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

/// A submission waiting for window room on its node.
struct Pending {
    delay: Duration,
    complete: Completion,
}

#[derive(Default)]
struct NodeState {
    inflight: usize,
    pending: VecDeque<Pending>,
}

#[derive(Default)]
struct State {
    heap: BinaryHeap<Flight>,
    nodes: Vec<NodeState>,
    next_seq: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
}

/// The event-driven completion layer. One instance serves a whole
/// substrate; `submit` is called from pool threads, completions fire on
/// the single fabric thread.
pub struct SimFabric {
    shared: Arc<Shared>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    window: usize,
}

impl SimFabric {
    /// Spawn the fabric thread with the given per-node window.
    pub fn new(config: FabricConfig) -> SimFabric {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            wake: Condvar::new(),
        });
        let worker = shared.clone();
        let thread = std::thread::Builder::new()
            .name("rede-fabric".into())
            .spawn(move || Self::run(&worker, config.window.max(1)))
            .expect("spawn fabric thread");
        SimFabric {
            shared,
            thread: Mutex::new(Some(thread)),
            window: config.window.max(1),
        }
    }

    /// The configured per-node window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Submit a completed-at-device remote batch: after `delay` (its
    /// modeled round trip), `complete` fires on the fabric thread. If
    /// `node`'s window is full the flight queues behind the outstanding
    /// ones and its deadline starts at promotion. Returns `true` when the
    /// submission stalled on the window (the caller's stall counter).
    pub fn submit(&self, node: usize, delay: Duration, complete: Completion) -> bool {
        let mut state = self.shared.state.lock();
        if state.shutdown {
            // Late submission during teardown: fire inline rather than
            // strand the job's in-flight tokens.
            drop(state);
            complete();
            return false;
        }
        while state.nodes.len() <= node {
            state.nodes.push(NodeState::default());
        }
        let stalled = state.nodes[node].inflight >= self.window;
        if stalled {
            state.nodes[node]
                .pending
                .push_back(Pending { delay, complete });
        } else {
            state.nodes[node].inflight += 1;
            let seq = state.next_seq;
            state.next_seq += 1;
            state.heap.push(Flight {
                deadline: Instant::now() + delay,
                seq,
                node,
                complete: Some(complete),
            });
        }
        drop(state);
        self.shared.wake.notify_all();
        stalled
    }

    /// Flights currently armed or queued (diagnostic; 0 when quiescent).
    pub fn in_flight(&self) -> usize {
        let state = self.shared.state.lock();
        state.heap.len() + state.nodes.iter().map(|n| n.pending.len()).sum::<usize>()
    }

    fn run(shared: &Shared, window: usize) {
        let mut state = shared.state.lock();
        loop {
            let now = Instant::now();
            // Land every due flight: collect its completion, return its
            // window slot, and promote the node's oldest queued flight
            // (deadline computed now — its round trip starts only when a
            // slot frees, exactly like a bounded initiator window).
            let mut due: Vec<Completion> = Vec::new();
            while state.heap.peek().is_some_and(|f| f.deadline <= now) {
                let mut flight = state.heap.pop().expect("peeked");
                due.push(flight.complete.take().expect("unfired flight"));
                let node = flight.node;
                state.nodes[node].inflight -= 1;
                if state.nodes[node].inflight < window {
                    if let Some(next) = state.nodes[node].pending.pop_front() {
                        state.nodes[node].inflight += 1;
                        let seq = state.next_seq;
                        state.next_seq += 1;
                        state.heap.push(Flight {
                            deadline: now + next.delay,
                            seq,
                            node,
                            complete: Some(next.complete),
                        });
                    }
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
                // order then FIFO per node, so no token is stranded.
                let mut rest: Vec<Completion> = Vec::new();
                let mut heap = std::mem::take(&mut state.heap);
                while let Some(mut f) = heap.pop() {
                    rest.push(f.complete.take().expect("unfired flight"));
                }
                for node in &mut state.nodes {
                    node.inflight = 0;
                    while let Some(p) = node.pending.pop_front() {
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

    /// Stop the fabric thread, firing every outstanding completion first.
    /// Idempotent; also called by `Drop`. Callers that own both a fabric
    /// and the dispatchers its completions enqueue onto must call this
    /// *before* stopping the dispatchers.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
        }
        self.shared.wake.notify_all();
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for SimFabric {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for SimFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimFabric")
            .field("window", &self.window)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn completions_fire_in_deadline_order() {
        let fabric = SimFabric::new(FabricConfig::window(8));
        let (tx, rx) = mpsc::channel();
        for (i, delay_us) in [(0u32, 3000u64), (1, 1000), (2, 2000)] {
            let tx = tx.clone();
            fabric.submit(
                0,
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
        let fabric = SimFabric::new(FabricConfig::window(2));
        let (tx, rx) = mpsc::channel();
        let mut stalls = 0;
        for _ in 0..10 {
            let tx = tx.clone();
            let stalled = fabric.submit(
                3,
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
        let fabric = SimFabric::new(FabricConfig::window(1));
        // One long flight occupies node 0's window...
        fabric.submit(0, Duration::from_millis(50), Box::new(|| {}));
        let (tx, rx) = mpsc::channel();
        // ...but node 1 is unaffected.
        let stalled = fabric.submit(
            1,
            Duration::from_micros(100),
            Box::new(move || tx.send(()).unwrap()),
        );
        assert!(!stalled);
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
    }

    #[test]
    fn shutdown_fires_outstanding_completions() {
        let fired = Arc::new(AtomicUsize::new(0));
        let fabric = SimFabric::new(FabricConfig::window(1));
        for _ in 0..5 {
            let fired = fired.clone();
            // Far-future deadlines: only shutdown can fire these.
            fabric.submit(
                0,
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
        let fabric = SimFabric::new(FabricConfig::default());
        let (tx, rx) = mpsc::channel();
        fabric.submit(0, Duration::ZERO, Box::new(move || tx.send(()).unwrap()));
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
    }
}
