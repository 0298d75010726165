//! The workloads: what each one runs, and how its instance list is generated
//! from the seed.
//!
//! Every workload is a fixed instance list generated from the seed; a run
//! repeats it for `--seconds`.  Throughput is decided instances over the
//! time that fixed list took, so a faster program shows as less time, never
//! as a different list.

use bvc_core::{
    BvcError, BvcSession, ByzantineStrategy, InstanceOverrides, ProtocolKind, RunConfig,
};
use bvc_geometry::{Point, WorkloadGenerator};
use bvc_service::{CacheMode, ServiceConfig};

/// One benchmark workload: a single-thread closed loop over
/// `BvcSession::run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exact BVC, synchronous, `n = 7, f = 2, d = 2`: Step 1's parallel EIG
    /// broadcasts dominate; the Γ engine sees seven queries an instance.
    ExactEig,
    /// Restricted-round BVC, synchronous, `n = 9, f = 2, d = 2, ε = 0.1`:
    /// every Step-2 subset sits at the Lemma-1 threshold `(d+1)f+1 = 7`, so
    /// the Γ front end, engine and simplex carry the run.
    RestrictedLemma1,
    /// Approximate BVC on the asynchronous executor, `n = 5, f = 1, d = 2,
    /// ε = 0.1`: the only workload on the async executor and reliable
    /// broadcast.
    ApproxAsync,
}

/// The protocol shape of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Protocol the instances run.
    pub protocol: ProtocolKind,
    /// Processes.
    pub n: usize,
    /// Byzantine processes.
    pub f: usize,
    /// Input dimension.
    pub d: usize,
    /// ε of ε-agreement (ignored by exact consensus).
    pub epsilon: f64,
}

impl Shape {
    /// The agreement tolerance a correct run must meet: ε, or the LP
    /// round-off allowance of exact consensus.
    pub fn agreement_tolerance(&self) -> f64 {
        if self.protocol.uses_epsilon() {
            self.epsilon
        } else {
            1e-6
        }
    }
}

/// Worker threads of the service probe, fixed so results never depend on
/// the host.
const SERVICE_WORKERS: usize = 2;

impl Workload {
    /// Every workload the binary runs.  `BENCHMARK.json` lists the steady
    /// ones; `restricted-lemma1` is for paired comparisons (see `README.md`).
    pub const ALL: [Workload; 3] = [
        Workload::ExactEig,
        Workload::RestrictedLemma1,
        Workload::ApproxAsync,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExactEig => "exact-eig",
            Workload::RestrictedLemma1 => "restricted-lemma1",
            Workload::ApproxAsync => "approx-async",
        }
    }

    /// Looks a workload up by its `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The protocol shape.
    pub fn shape(self) -> Shape {
        let (protocol, n, f) = match self {
            Workload::ExactEig => (ProtocolKind::Exact, 7, 2),
            Workload::RestrictedLemma1 => (ProtocolKind::RestrictedSync, 9, 2),
            Workload::ApproxAsync => (ProtocolKind::Approx, 5, 1),
        };
        Shape {
            protocol,
            n,
            f,
            d: 2,
            epsilon: 0.1,
        }
    }

    /// Instances in one pass over the list: the fixed work of a run.  A run
    /// repeats the pass for `--seconds`, so each instance meets the host's
    /// fast phase at least once (see `README.md`); the Γ-bound workload,
    /// whose instances cost 0.4–1.6 s each, needs distinct instances more
    /// than repetitions and makes a dozen per pass.
    pub fn pass_size(self) -> usize {
        match self {
            Workload::ExactEig => 110,
            Workload::RestrictedLemma1 => 12,
            Workload::ApproxAsync => 70,
        }
    }

    /// Instances each set-up runs to warm the program before timing.
    pub fn warmup_count(self) -> usize {
        match self {
            Workload::RestrictedLemma1 => 1,
            _ => 6,
        }
    }

    /// Distinct configurations of the service probe, each decided twice.
    /// Large enough that an instance never runs beside its earlier twin on
    /// the other worker, so the cross-instance hit count repeats exactly.
    fn service_cycle(self) -> usize {
        match self {
            Workload::RestrictedLemma1 => 8,
            _ => 16,
        }
    }

    /// The run configuration of instance `k` of the list generated from
    /// `seed`.
    pub fn instance_config(self, seed: u64, k: usize) -> RunConfig {
        let shape = self.shape();
        let instance_seed = mix(seed, k as u64);
        RunConfig::new(shape.n, shape.f, shape.d)
            .honest_inputs(inputs(instance_seed, shape.n - shape.f, shape.d))
            .adversary(ByzantineStrategy::Equivocate)
            .epsilon(shape.epsilon)
            .seed(instance_seed)
    }

    /// Generates the first `count` instances of the list for `seed` and
    /// admits them: `BvcSession::new` validates each configuration.
    pub fn admit(self, seed: u64, count: usize) -> Result<Vec<BvcSession>, BvcError> {
        (0..count)
            .map(|k| BvcSession::new(self.shape().protocol, self.instance_config(seed, k)))
            .collect()
    }

    /// A `BvcService` stream over the workload's first `service_cycle()`
    /// instances, each queued twice, with a shared Γ parent cache: the
    /// second cycle measures cross-instance reuse.
    pub fn service_probe_config(self, seed: u64) -> ServiceConfig {
        let cycle = self.service_cycle();
        let instances = (0..2 * cycle)
            .map(|k| {
                let config = self.instance_config(seed, k % cycle);
                InstanceOverrides {
                    seed: config.seed,
                    honest_inputs: Some(config.honest_inputs),
                    adversary: Some(config.adversary),
                    validity: None,
                }
            })
            .collect();
        ServiceConfig::new(self.shape().protocol, self.instance_config(seed, 0))
            .instances(instances)
            .workers(SERVICE_WORKERS)
            .batch(1)
            .cache_mode(CacheMode::Shared)
            .label(self.name())
    }
}

/// `count` honest inputs drawn uniformly from `[0, 1]^d`.
pub fn inputs(seed: u64, count: usize, d: usize) -> Vec<Point> {
    WorkloadGenerator::new(seed)
        .box_points(count, d, 0.0, 1.0)
        .into_points()
}

/// SplitMix64 finaliser over `seed` and a stream index: independent,
/// reproducible seeds per instance.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
