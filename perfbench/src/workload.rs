//! The benchmark's workloads: seeded input generation, one launch through
//! the public `Run` API, and the check against the sequential oracles.

use std::time::Instant;

use gluon_algos::{reference, Algorithm, DistOutcome, EngineKind, Run};
use gluon_graph::{gen, Csr, Gid, RmatProbs};
use gluon_metrics::MetricsHub;
use gluon_net::SocketKind;
use gluon_partition::Policy;
use gluon_trace::Tracer;

/// Edges per node of the generated power-law inputs.
const EDGE_FACTOR: u32 = 16;

/// How a workload's input graph is generated.
#[derive(Clone, Copy, Debug)]
pub enum Input {
    /// `gen::rmat(scale, 16, GRAPH500, seed)`.
    Rmat { scale: u32 },
    /// `gen::grid(rows, cols)` with node ids shuffled within each row by
    /// the seed: the graph (and so the bfs round count) is the same for
    /// every seed, only its labelling differs.
    Grid { rows: u32, cols: u32 },
}

/// The transport the simulated hosts talk over.
#[derive(Clone, Copy, Debug)]
pub enum Transport {
    Memory,
    Tcp,
}

impl Transport {
    pub fn name(self) -> &'static str {
        match self {
            Transport::Memory => "memory",
            Transport::Tcp => "tcp",
        }
    }
}

/// One named workload: an input recipe and a `Run` configuration.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub algo: Algorithm,
    pub input: Input,
    pub hosts: usize,
    pub threads: usize,
    pub engine: EngineKind,
    pub policy: Policy,
    pub transport: Transport,
}

/// The benchmark's workloads. Each uses at most two program threads of
/// work (hosts × threads), so a 2-core machine runs them uncontended. Why
/// each one is here is recorded in `BENCHMARK.json`.
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "pr-rmat18-2h",
        algo: Algorithm::Pagerank,
        input: Input::Rmat { scale: 18 },
        hosts: 2,
        threads: 1,
        engine: EngineKind::Galois,
        policy: Policy::Cvc,
        transport: Transport::Memory,
    },
    Spec {
        name: "bfs-grid-sock",
        algo: Algorithm::Bfs,
        input: Input::Grid {
            rows: 2048,
            cols: 128,
        },
        hosts: 2,
        threads: 1,
        engine: EngineKind::Ligra,
        policy: Policy::Oec,
        transport: Transport::Tcp,
    },
    Spec {
        name: "cc-rmat18-2h",
        algo: Algorithm::Cc,
        input: Input::Rmat { scale: 18 },
        hosts: 2,
        threads: 1,
        engine: EngineKind::Galois,
        policy: Policy::Oec,
        transport: Transport::Memory,
    },
];

impl Spec {
    /// The workload called `name`.
    pub fn find(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|s| s.name == name)
    }

    /// The same configuration on an input small enough to run in
    /// milliseconds (smoke mode).
    pub fn tiny(mut self) -> Spec {
        self.input = match self.input {
            Input::Rmat { .. } => Input::Rmat { scale: 10 },
            Input::Grid { .. } => Input::Grid { rows: 64, cols: 8 },
        };
        self
    }
}

/// A generated input.
pub struct Prepared {
    pub graph: Csr,
    /// Source of a traversal: the grid's top-left corner; `None` on
    /// inputs without one.
    pub source: Option<Gid>,
    /// Seconds spent generating `graph`.
    pub gen_s: f64,
}

/// The sequential reference answer a launch must reproduce.
pub enum Oracle {
    Labels(Vec<u32>),
    Ranks(Vec<f64>),
}

/// Pagerank tolerance against the oracle, as `gluon-run --verify` uses.
const RANK_TOLERANCE: f64 = 1e-6;

/// Generates `spec`'s input from `seed`.
pub fn prepare(spec: &Spec, seed: u64) -> Prepared {
    let start = Instant::now();
    let (graph, source) = match spec.input {
        Input::Rmat { scale } => (
            gen::rmat(scale, EDGE_FACTOR, RmatProbs::GRAPH500, seed),
            None,
        ),
        Input::Grid { rows, cols } => {
            let (g, corner) = shuffled_grid(rows, cols, seed);
            (g, Some(corner))
        }
    };
    let gen_s = start.elapsed().as_secs_f64();
    Prepared {
        graph,
        source,
        gen_s,
    }
}

/// The sequential oracle's answer for `input`.
pub fn oracle(spec: &Spec, input: &Prepared) -> Oracle {
    let g = &input.graph;
    let source = || {
        input
            .source
            .expect("traversals run on inputs with a source")
    };
    match spec.algo {
        Algorithm::Bfs => Oracle::Labels(reference::bfs(g, source())),
        Algorithm::Sssp => Oracle::Labels(reference::sssp(g, source())),
        Algorithm::Cc => Oracle::Labels(reference::cc(g)),
        Algorithm::Pagerank => {
            let cfg = gluon_algos::PagerankConfig::default();
            Oracle::Ranks(reference::pagerank(g, cfg.damping, cfg.tolerance, cfg.max_iters).0)
        }
    }
}

/// `gen::grid(rows, cols)` with each row's node ids permuted by `seed`,
/// and the id of the top-left corner, from which bfs reaches every node
/// in `rows + cols - 2` levels.
fn shuffled_grid(rows: u32, cols: u32, seed: u64) -> (Csr, Gid) {
    let mut rng = SplitMix64(seed);
    let mut relabel = Vec::with_capacity((rows * cols) as usize);
    let mut row: Vec<u32> = Vec::with_capacity(cols as usize);
    for r in 0..rows {
        row.clear();
        row.extend((0..cols).map(|c| r * cols + c));
        for i in (1..row.len()).rev() {
            row.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        relabel.extend_from_slice(&row);
    }
    let grid = gen::grid(rows, cols);
    let edges: Vec<(u32, u32)> = grid
        .edges()
        .map(|(src, e)| (relabel[src.index()], relabel[e.dst.index()]))
        .collect();
    (Csr::from_edge_list(rows * cols, &edges), Gid(relabel[0]))
}

/// Launches `spec` on `input` through the public `Run` API. A host
/// panic propagates to the caller.
pub fn launch(spec: &Spec, input: &Prepared, tracer: &Tracer, hub: &MetricsHub) -> DistOutcome {
    let mut run = Run::new(&input.graph, spec.algo)
        .hosts(spec.hosts)
        .policy(spec.policy)
        .engine(spec.engine)
        .threads(spec.threads)
        .tracer(tracer)
        .metrics(hub);
    if let Some(source) = input.source {
        run = run.source(source);
    }
    match spec.transport {
        Transport::Memory => run.launch(),
        Transport::Tcp => run.transport_sockets(SocketKind::Tcp).launch(),
    }
}

/// Whether `out` reproduces the oracle: labels exactly, ranks within
/// [`RANK_TOLERANCE`].
pub fn matches_oracle(oracle: &Oracle, out: &DistOutcome) -> bool {
    match oracle {
        Oracle::Labels(want) => out.int_labels == *want,
        Oracle::Ranks(want) => {
            out.ranks.len() == want.len()
                && out
                    .ranks
                    .iter()
                    .zip(want)
                    .all(|(got, want)| (got - want).abs() < RANK_TOLERANCE)
        }
    }
}

/// Whether two launches produced bit-identical labels.
pub fn same_labels(a: &DistOutcome, b: &DistOutcome) -> bool {
    a.int_labels == b.int_labels
        && a.ranks.len() == b.ranks.len()
        && a.ranks
            .iter()
            .zip(&b.ranks)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The seeded generator behind the grid relabelling (SplitMix64).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
