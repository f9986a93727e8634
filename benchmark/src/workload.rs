//! The workloads and the generator that turns a seed into the stream
//! bytes the program under test receives.
//!
//! Every workload runs the shipped Practical-mode configuration with
//! `threads = 1`, fed by one client in 1024-edge batches (the CLI's
//! batch). What varies is what the estimator's behaviour depends on:
//! α (how many lanes and how much state), arrival order and skew, the
//! sharded merge path, and the trivial `k·α ≥ m` branch that bypasses
//! the lane machinery altogether.

use kcov_baselines::greedy_max_cover;
use kcov_hash::SeedSequence;
use kcov_stream::gen::{planted_cover, rmat_incidence, RmatParams};
use kcov_stream::{edge_stream, write_edges, ArrivalOrder};

/// Edges per `observe_batch` call.
pub const BATCH: usize = 1024;

/// Where a workload's instance comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// `planted_cover`: exact OPT known by construction.
    Planted,
    /// `rmat_incidence`: skewed on both sides; OPT referenced by greedy.
    Rmat,
}

/// How the instance's edges are ordered into a stream.
#[derive(Debug, Clone, Copy)]
pub enum Order {
    /// Uniformly random permutation keyed by the run seed.
    Shuffled,
    /// Grouped by element (the paper's footnote-2 order).
    ElementContiguous,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub source: Source,
    pub order: Order,
    /// Cover budget as a multiple of the scale's `k`.
    pub k_factor: usize,
    pub alpha: f64,
    /// Contiguous stream shards, each ingested by its own replica.
    pub shards: usize,
    /// Timed repetitions every run makes; the deterministic metrics are
    /// taken over exactly these, so they repeat bit for bit.
    pub min_reps: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    // The headline stream: LargeSet is ~85% of ingest.
    Workload {
        name: "planted-a8",
        source: Source::Planted,
        order: Order::Shuffled,
        k_factor: 1,
        alpha: 8.0,
        shards: 1,
        min_reps: 5,
    },
    // State far beyond cache; SmallSet stores the most and dominates
    // finalize, so memory-traffic and SmallSet changes show here first.
    Workload {
        name: "planted-a2",
        source: Source::Planted,
        order: Order::Shuffled,
        k_factor: 1,
        alpha: 2.0,
        shards: 1,
        min_reps: 5,
    },
    // Small state in four shard replicas: LargeCommon's share rises, and
    // wire encode, decode and merge are on the path.
    Workload {
        name: "planted-a32-x4",
        source: Source::Planted,
        order: Order::Shuffled,
        k_factor: 1,
        alpha: 32.0,
        shards: 4,
        // Its answer varies most from seed to seed.
        min_reps: 7,
    },
    // Skewed on both sides and grouped by element: fewer heavy-hitter
    // evictions than planted-a8 and bursty survivor columns.
    Workload {
        name: "rmat-a8-elem",
        source: Source::Rmat,
        order: Order::ElementContiguous,
        k_factor: 1,
        alpha: 8.0,
        shards: 1,
        min_reps: 5,
    },
    // k·α ≥ m: Fig 1's first line bypasses fingerprints, lanes and
    // oracles, so lane and subroutine changes must leave it unmoved.
    Workload {
        name: "planted-trivial",
        source: Source::Planted,
        order: Order::Shuffled,
        k_factor: 2,
        alpha: 40.0,
        shards: 1,
        min_reps: 20,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Instance sizes.
#[derive(Debug)]
pub struct Scale {
    pub n: usize,
    pub m: usize,
    /// Planted sets, and the cover budget before `k_factor`.
    pub k: usize,
    pub decoy: usize,
    pub rmat_m: usize,
    pub rmat_edges: usize,
    /// Cap on every workload's `min_reps`.
    pub rep_cap: usize,
}

/// The measured scale: 532 945 planted edges, exact OPT = 40 000.
pub const FULL: Scale = Scale {
    n: 50_000,
    m: 5_000,
    k: 64,
    decoy: 100,
    rmat_m: 4_000,
    rmat_edges: 600_000,
    rep_cap: usize::MAX,
};

/// A tenth of the sets and elements at an eighth of the budget, so every
/// workload keeps its regime (trivial or not) and runs in well under a
/// second; one timed repetition each.
pub const SMOKE: Scale = Scale {
    n: 5_000,
    m: 500,
    k: 8,
    decoy: 100,
    rmat_m: 400,
    rmat_edges: 60_000,
    rep_cap: 1,
};

/// What the generator hands the program, plus the reference answer the
/// benchmark checks against.
pub struct Input {
    /// The stream in `kcov_stream`'s text format, in arrival order.
    pub bytes: Vec<u8>,
    pub edges: usize,
    pub k: usize,
    pub alpha: f64,
    pub shards: usize,
    /// Planted OPT, or greedy coverage on rmat.
    pub opt_ref: f64,
    /// Upper bound on OPT: planted OPT, or greedy/(1 − 1/e) on rmat.
    pub opt_upper: f64,
    pub min_reps: usize,
}

impl Workload {
    /// Build the workload's input from `seed`: the same seed gives the
    /// same bytes.
    pub fn input(&self, scale: &Scale, seed: u64) -> Input {
        let k = scale.k * self.k_factor;
        let (system, opt_ref, opt_upper) = match self.source {
            Source::Planted => {
                let inst = planted_cover(scale.n, scale.m, scale.k, 0.8, scale.decoy, seed);
                // Decoys lie inside the planted region, so a bigger
                // budget cannot cover more: OPT is exact for any k ≥ scale.k.
                let opt = inst.planted_coverage as f64;
                (inst.system, opt, opt)
            }
            Source::Rmat => {
                let system = rmat_incidence(
                    scale.n,
                    scale.rmat_m,
                    scale.rmat_edges,
                    RmatParams::default(),
                    seed,
                );
                let greedy = greedy_max_cover(&system, k).coverage as f64;
                (system, greedy, greedy / (1.0 - (-1.0f64).exp()))
            }
        };
        let order = match self.order {
            Order::Shuffled => ArrivalOrder::Shuffled(seed),
            Order::ElementContiguous => ArrivalOrder::ElementContiguous,
        };
        let edges = edge_stream(&system, order);
        let mut bytes = Vec::new();
        write_edges(system.num_elements(), system.num_sets(), &edges, &mut bytes)
            .expect("writing to a Vec cannot fail");
        Input {
            bytes,
            edges: edges.len(),
            k,
            alpha: self.alpha,
            shards: self.shards,
            opt_ref,
            opt_upper,
            min_reps: self.min_reps.min(scale.rep_cap),
        }
    }
}

/// Estimator seeds of successive repetitions of a run: a pure function
/// of the run seed.
pub fn rep_seeds(seed: u64) -> impl Iterator<Item = u64> {
    let mut seq = SeedSequence::labeled(seed, "benchmark-rep");
    std::iter::repeat_with(move || seq.next_seed())
}
