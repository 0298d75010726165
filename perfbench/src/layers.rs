//! Per-layer measurement from outside the program: a counting tracer
//! installed on the public trace scope, and timed probes that call each
//! layer's public functions on inputs of the workload's own shape.

use crate::stats::median;
use crate::workload::{inputs, mix, Shape};
use bvc_broadcast::{EigTree, RbMessage, ReliableBroadcastInstance};
use bvc_core::build_zi_full;
use bvc_geometry::{gamma_point, GammaCache, Point, PointMultiset};
use bvc_net::{
    broadcast_to_all, AsyncNetwork, AsyncProcess, Delivery, DeliveryPolicy, Outgoing, ProcessId,
    SyncNetwork, SyncProcess,
};
use bvc_trace::{GammaPath, TraceEvent, TraceHandle, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Event counts gathered by [`CountingTracer`].
#[derive(Debug, Clone, Default)]
pub struct EventCounts {
    /// Γ queries, all kinds and cache levels.
    pub gamma_queries: u64,
    /// Engine computations per Γ path (indexed by `GammaPath::index`).
    pub gamma_paths: [u64; 9],
    /// Γ queries per `(|Y|, f, d)` shape.
    pub gamma_shapes: BTreeMap<(usize, usize, usize), u64>,
    /// Simplex solves.
    pub simplex_solves: u64,
    /// Pivots over all solves.
    pub simplex_pivots: u64,
    /// Solves whose tableau buffer came from the workspace pool.
    pub simplex_reused: u64,
}

impl EventCounts {
    /// Engine computations attributed to `path`.
    pub fn path(&self, path: GammaPath) -> u64 {
        self.gamma_paths[path.index()]
    }

    /// The Γ query shape recorded most often (ties: the smallest shape).
    pub fn busiest_shape(&self) -> Option<(usize, usize, usize)> {
        self.gamma_shapes
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&shape, _)| shape)
    }
}

/// A tracer that only counts the events the per-layer metrics need.  It
/// shares its counts with the benchmark through an `Arc`, since the trace
/// handle owns the tracer itself.
pub struct CountingTracer {
    counts: Arc<Mutex<EventCounts>>,
}

impl CountingTracer {
    /// A trace handle over a fresh counting tracer, plus the counts it fills.
    pub fn handle() -> (TraceHandle, Arc<Mutex<EventCounts>>) {
        let counts = Arc::new(Mutex::new(EventCounts::default()));
        let tracer = CountingTracer {
            counts: Arc::clone(&counts),
        };
        (TraceHandle::new(Box::new(tracer), false), counts)
    }
}

impl Tracer for CountingTracer {
    fn record(&mut self, _slot: u32, _seq: u64, event: &TraceEvent) {
        let mut counts = self.counts.lock().unwrap_or_else(PoisonError::into_inner);
        match event {
            TraceEvent::Gamma {
                path, len, f, d, ..
            } => {
                counts.gamma_queries += 1;
                if let Some(path) = path {
                    counts.gamma_paths[path.index()] += 1;
                }
                *counts.gamma_shapes.entry((*len, *f, *d)).or_default() += 1;
            }
            TraceEvent::Simplex { pivots, reused, .. } => {
                counts.simplex_solves += 1;
                counts.simplex_pivots += pivots;
                counts.simplex_reused += u64::from(*reused);
            }
            _ => {}
        }
    }
}

/// Timed probe results, each the median over its repetitions.
#[derive(Debug)]
pub struct Probes {
    /// n `EigTree`s through `f + 1` rounds, ms.
    pub eig_ms: f64,
    /// n `ReliableBroadcastInstance`s run to delivery, µs.
    pub rb_us: f64,
    /// Synchronous executor, µs per delivered message.
    pub sync_us_per_msg: f64,
    /// Asynchronous executor, µs per delivery step.
    pub async_us_per_step: f64,
    /// `build_zi_full` over `n` entries at quorum `n − f`, ms.
    pub zi_ms: f64,
    /// `GammaCache::find_point` on a warmed cache, µs.
    pub gamma_hit_us: f64,
    /// `gamma_point` on fresh multisets, µs.
    pub gamma_engine_us: f64,
}

/// Repetitions of every probe (the median is reported).
const PROBE_REPS: usize = 9;
/// Multisets per Γ probe repetition.
const GAMMA_CASES: usize = 16;

/// Runs every probe at `shape`; the Γ probes use `gamma_shape`, the
/// `(|Y|, f, d)` the workload queried most.
pub fn run_probes(shape: &Shape, gamma_shape: (usize, usize, usize), seed: u64) -> Probes {
    let (n, f, d) = (shape.n, shape.f, shape.d);
    let values: Vec<Point> = inputs(mix(seed, 1), n, d);
    let (len, gf, gd) = gamma_shape;
    let multisets: Vec<PointMultiset> = (0..GAMMA_CASES)
        .map(|i| PointMultiset::new(inputs(mix(seed, 100 + i as u64), len, gd)))
        .collect();
    let warmed = GammaCache::new();
    for y in &multisets {
        black_box(warmed.find_point(y, gf));
    }
    Probes {
        eig_ms: time_median(|| black_box(eig_probe(n, f, &values))) * 1e3,
        rb_us: time_median(|| black_box(rb_probe(n, f, &values[0]))) * 1e6,
        sync_us_per_msg: per_unit(|| sync_probe(n, 2 * f + 2)),
        async_us_per_step: per_unit(|| async_probe(n, 4 * n, seed)),
        zi_ms: time_median(|| black_box(build_zi_full(&values, n - f, f).len())) * 1e3,
        gamma_hit_us: time_median(|| {
            for y in &multisets {
                black_box(warmed.find_point(y, gf));
            }
        }) * 1e6
            / GAMMA_CASES as f64,
        gamma_engine_us: time_median(|| {
            for y in &multisets {
                black_box(gamma_point(y, gf));
            }
        }) * 1e6
            / GAMMA_CASES as f64,
    }
}

/// Median wall seconds of `PROBE_REPS` calls.
fn time_median<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Median µs per unit of work, for probes that return how many units
/// (messages, steps) they executed.
fn per_unit(mut f: impl FnMut() -> usize) -> f64 {
    let samples: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let start = Instant::now();
            let units = black_box(f()).max(1);
            start.elapsed().as_secs_f64() * 1e6 / units as f64
        })
        .collect();
    median(&samples)
}

/// One consensus instance per process, the way Step 1 of Exact BVC runs n
/// of them: every tree relays to every other through `f + 1` rounds, then
/// decides.  Returns the number of trees, after checking they agree.
fn eig_probe(n: usize, f: usize, values: &[Point]) -> usize {
    let default = Point::origin(values[0].dim());
    let mut trees: Vec<EigTree<Point>> = (0..n)
        .map(|me| {
            let mut tree = EigTree::new(n, f, me, default.clone());
            tree.set_input(values[me].clone());
            tree
        })
        .collect();
    for round in 1..=f + 1 {
        let relays: Vec<_> = trees.iter().map(|t| t.messages_for_round(round)).collect();
        for (me, tree) in trees.iter_mut().enumerate() {
            tree.apply_own_relays(round);
            for (from, pairs) in relays.iter().enumerate() {
                if from != me {
                    tree.receive(round, from, pairs);
                }
            }
            tree.fill_defaults(round);
        }
    }
    let decided = trees[0].decide();
    assert!(
        trees.iter().all(|t| t.decide() == decided),
        "correct EIG trees agree"
    );
    trees.len()
}

/// One reliable-broadcast slot among `n` correct processes, FIFO routing,
/// run until every process delivered.  Returns the deliveries.
fn rb_probe(n: usize, f: usize, value: &Point) -> usize {
    let mut slots: Vec<ReliableBroadcastInstance<Point>> = (0..n)
        .map(|_| ReliableBroadcastInstance::new(n, f))
        .collect();
    let mut queue: VecDeque<(usize, usize, RbMessage<Point>)> = VecDeque::new();
    let mut delivered = 0usize;
    let step = slots[0].start_as_sender(0, value.clone());
    delivered += usize::from(step.delivered.is_some());
    for msg in step.broadcast {
        queue.extend((1..n).map(|to| (0, to, msg.clone())));
    }
    while let Some((from, to, msg)) = queue.pop_front() {
        let step = slots[to].handle(to, from, &msg);
        delivered += usize::from(step.delivered.is_some());
        for out in step.broadcast {
            queue.extend((0..n).filter(|&p| p != to).map(|p| (to, p, out.clone())));
        }
    }
    assert_eq!(delivered, n, "every correct process delivers");
    delivered
}

/// Processes that broadcast one word per round for `rounds` rounds.
struct Chatter {
    me: ProcessId,
    n: usize,
    rounds: usize,
    heard: u64,
    done: bool,
}

impl SyncProcess for Chatter {
    type Msg = u64;
    type Output = u64;

    fn round(&mut self, round: usize, inbox: &[Delivery<u64>]) -> Vec<Outgoing<u64>> {
        self.heard += inbox.iter().map(|d| d.msg).sum::<u64>();
        if round > self.rounds {
            self.done = true;
            return Vec::new();
        }
        broadcast_to_all(self.n, Some(self.me), &(round as u64))
    }

    fn output(&self) -> Option<u64> {
        self.done.then_some(self.heard)
    }
}

/// The synchronous executor with trivial processes; returns messages
/// delivered.
fn sync_probe(n: usize, rounds: usize) -> usize {
    let processes: Vec<Box<dyn SyncProcess<Msg = u64, Output = u64>>> = (0..n)
        .map(|i| {
            Box::new(Chatter {
                me: ProcessId::new(i),
                n,
                rounds,
                heard: 0,
                done: false,
            }) as Box<dyn SyncProcess<Msg = u64, Output = u64>>
        })
        .collect();
    let all: Vec<usize> = (0..n).collect();
    SyncNetwork::new(processes, rounds + 2)
        .run(&all)
        .stats
        .messages_delivered
}

/// Processes that answer every message with one broadcast until they have
/// heard `quota` messages.
struct Echoer {
    me: ProcessId,
    n: usize,
    quota: usize,
    heard: usize,
}

impl AsyncProcess for Echoer {
    type Msg = u64;
    type Output = usize;

    fn on_start(&mut self) -> Vec<Outgoing<u64>> {
        broadcast_to_all(self.n, Some(self.me), &0)
    }

    fn on_message(&mut self, _from: ProcessId, msg: u64) -> Vec<Outgoing<u64>> {
        self.heard += 1;
        if self.heard < self.quota {
            broadcast_to_all(self.n, Some(self.me), &(msg + 1))
        } else {
            Vec::new()
        }
    }

    fn output(&self) -> Option<usize> {
        (self.heard >= self.quota).then_some(self.heard)
    }
}

/// The asynchronous executor (random fair scheduling) with trivial
/// processes; returns delivery steps.
fn async_probe(n: usize, quota: usize, seed: u64) -> usize {
    let processes: Vec<Box<dyn AsyncProcess<Msg = u64, Output = usize>>> = (0..n)
        .map(|i| {
            Box::new(Echoer {
                me: ProcessId::new(i),
                n,
                quota,
                heard: 0,
            }) as Box<dyn AsyncProcess<Msg = u64, Output = usize>>
        })
        .collect();
    let all: Vec<usize> = (0..n).collect();
    AsyncNetwork::new(processes, DeliveryPolicy::RandomFair, seed, 1_000_000)
        .run(&all)
        .stats
        .steps
}
