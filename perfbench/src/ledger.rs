//! The per-layer ledger of one traced launch.
//!
//! Layers are named after the crates. Times are for the critical host
//! (the one with the largest compute + communication time); counts are
//! cluster totals. The numbers come from the counters the `Tracer` and
//! `MetricsHub` already keep, from `DistOutcome`, and from the
//! benchmark's own timer around `reference::symmetrize`. The ledger
//! reconciles them: the critical host's layer times are subtracted from
//! the launch's wall, and what is left is `algos.unattributed_s`.

use std::time::Instant;

use gluon_algos::{reference, Algorithm, DistOutcome};
use gluon_graph::Csr;
use gluon_metrics::{MetricsHub, WIRE_MODE_NAMES};
use gluon_trace::{Stage, Tracer};

use crate::workload::Spec;
use crate::Metric;

/// Share of the launch's wall above which the unattributed remainder is
/// flagged.
const UNATTRIBUTED_FLAG: f64 = 0.05;

/// Times `reference::symmetrize`, the call `Run` makes for cc before
/// partitioning: the median of three calls, since the first one of a
/// process also pays for growing the heap. 0 for the algorithms that do
/// not symmetrize.
pub fn time_symmetrize(spec: &Spec, graph: &Csr) -> f64 {
    if spec.algo != Algorithm::Cc {
        return 0.0;
    }
    let secs = (0..3)
        .map(|_| {
            let start = Instant::now();
            let sym = reference::symmetrize(graph);
            let secs = start.elapsed().as_secs_f64();
            drop(std::hint::black_box(sym));
            secs
        })
        .collect();
    crate::median(secs)
}

/// What the ledger is built from.
pub struct TracedRun<'a> {
    /// The benchmark's wall around the traced `Run::launch`.
    pub launch_wall_s: f64,
    pub out: &'a DistOutcome,
    /// An untraced launch of the same input.
    pub reference: &'a DistOutcome,
    pub tracer: &'a Tracer,
    pub hub: &'a MetricsHub,
    pub symmetrize_s: f64,
    /// Median `algo_s` of the untraced launches.
    pub untraced_algo_s: f64,
    pub gen_s: f64,
}

pub struct Ledger {
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
    critical: usize,
    setup_rest_s: f64,
    algo_rest_s: f64,
    unattributed_frac: f64,
}

impl Ledger {
    pub fn build(t: &TracedRun<'_>) -> Ledger {
        let out = t.out;
        let hub = t.hub;
        let critical = (0..out.host_stats.len())
            .max_by(|&a, &b| {
                let busy =
                    |h: usize| out.host_stats[h].compute_secs() + out.host_stats[h].comm_secs();
                busy(a).total_cmp(&busy(b))
            })
            .expect("a launch has at least one host");
        let host = &out.host_stats[critical];
        let registry = hub.host_registry(critical);
        let stage = |name: &str| registry.counter_value(name) as f64 / 1e9;
        let cluster = |name: &str| hub.counter_across_hosts(name);

        let sync_bytes = out.run.total_bytes;
        let wire_bytes: u64 = out.net.bytes.iter().sum();
        let memo_bytes: u64 = out.host_stats.iter().map(|h| h.memo_bytes).sum();
        let collective_s = t
            .tracer
            .spans()
            .iter()
            .filter(|s| s.host == critical && s.stage == Stage::Collective)
            .map(|s| s.dur_ns as f64 / 1e9)
            .sum::<f64>();
        let stages = [
            ("core.extract_s", stage("stage_extract_ns")),
            ("core.translate_s", stage("stage_memo_translate_ns")),
            ("core.encode_s", stage("stage_encode_ns")),
            (
                "core.send_s",
                stage("stage_send_ns") + stage("stage_send_overlap_ns"),
            ),
            ("core.reset_s", stage("stage_reset_ns")),
            ("core.recv_wait_s", stage("stage_recv_wait_ns")),
            (
                "core.decode_s",
                stage("stage_decode_ns") + stage("stage_eager_decode_ns"),
            ),
            ("core.apply_s", stage("stage_apply_ns")),
        ];
        let compute_s = host.compute_secs();
        let sync_s: f64 = stages.iter().map(|(_, s)| s).sum();
        let algo_rest_s = out.algo_secs - (compute_s + sync_s + collective_s);
        let setup_s = t.launch_wall_s - out.algo_secs;
        let setup_rest_s = setup_s - (t.symmetrize_s + out.partition_secs + host.memo_secs);
        let unattributed_s = algo_rest_s + setup_rest_s;
        let unattributed_frac = unattributed_s / t.launch_wall_s;

        let hits = cluster("pool_hits") as f64;
        let misses = cluster("pool_misses") as f64;
        let seq_work = cluster("pool_seq_work") as f64;
        let crit_work = cluster("pool_crit_work") as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

        let mut metrics = vec![
            Metric::new("algos.rounds", f64::from(out.rounds), "count"),
            Metric::new("algos.symmetrize_s", t.symmetrize_s, "s"),
            Metric::new("algos.unattributed_s", unattributed_s, "s"),
            Metric::new("partition.partition_s", out.partition_secs, "s"),
            Metric::new(
                "partition.bytes",
                wire_bytes.saturating_sub(sync_bytes + memo_bytes) as f64,
                "B",
            ),
            Metric::new(
                "partition.replication",
                out.partition.replication_factor,
                "ratio",
            ),
            Metric::new("core.memo_s", host.memo_secs, "s"),
            Metric::new("core.memo_bytes", memo_bytes as f64, "B"),
        ];
        metrics.extend(stages.iter().map(|&(name, s)| Metric::new(name, s, "s")));
        metrics.push(Metric::new("core.collective_s", collective_s, "s"));
        metrics.push(Metric::new(
            "core.messages",
            out.run.total_messages as f64,
            "count",
        ));
        metrics.extend(WIRE_MODE_NAMES.iter().map(|mode| {
            Metric::new(
                format!("core.bytes.{mode}"),
                cluster(&format!("wire_bytes_{mode}")) as f64,
                "B",
            )
        }));
        metrics.extend([
            Metric::new("core.pool_hit_ratio", ratio(hits, hits + misses), "ratio"),
            Metric::new(
                "exec.parallel_ops",
                cluster("pool_parallel_ops") as f64,
                "count",
            ),
            Metric::new("exec.crit_ratio", ratio(seq_work, crit_work), "ratio"),
            Metric::new("engines.compute_s", compute_s, "s"),
            Metric::new(
                "engines.edges_per_s",
                ratio(host.work_units() as f64, compute_s),
                "1/s",
            ),
            Metric::new("engines.imbalance", out.run.imbalance(), "ratio"),
            Metric::new(
                "engines.bin_fills",
                cluster("engine_bin_fills") as f64,
                "count",
            ),
            Metric::new(
                "engines.binned_updates",
                cluster("engine_binned_updates") as f64,
                "count",
            ),
            Metric::new(
                "engines.pull_chunks_skipped",
                cluster("engine_pull_chunks_skipped") as f64,
                "count",
            ),
            Metric::new(
                "net.frames_sent",
                hub.cluster().counter_value("net_socket_frames_sent") as f64,
                "count",
            ),
            Metric::new(
                "net.short_reads",
                hub.cluster().counter_value("net_socket_short_reads") as f64,
                "count",
            ),
            Metric::new("trace.overhead_s", out.algo_secs - t.untraced_algo_s, "s"),
            Metric::new(
                "trace.dropped_spans",
                t.tracer.dropped_spans() as f64,
                "count",
            ),
            Metric::new("graph.gen_s", t.gen_s, "s"),
        ]);

        let mut problems = Vec::new();
        if !crate::workload::same_labels(out, t.reference) {
            problems.push("traced labels differ from the untraced launch's".to_string());
        }
        if sync_bytes != t.reference.run.total_bytes {
            problems.push(format!(
                "traced sync_bytes {sync_bytes} differ from untraced {}",
                t.reference.run.total_bytes
            ));
        }
        let hub_bytes = cluster("bytes_sent");
        if hub_bytes != sync_bytes {
            problems.push(format!(
                "MetricsHub bytes_sent {hub_bytes} differ from RunStats::total_bytes {sync_bytes}"
            ));
        }
        if t.tracer.dropped_spans() != 0 {
            problems.push(format!(
                "the tracer dropped {} spans",
                t.tracer.dropped_spans()
            ));
        }
        Ledger {
            metrics,
            problems,
            critical,
            setup_rest_s,
            algo_rest_s,
            unattributed_frac,
        }
    }

    pub fn print(&self) {
        println!(
            "  per layer, one traced launch (times on critical host {}, counts cluster-wide):",
            self.critical
        );
        for m in &self.metrics {
            println!("    {:<28} {:>18.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "    unattributed = {:.6} s of set-up + {:.6} s of algo",
            self.setup_rest_s, self.algo_rest_s
        );
        let frac = self.unattributed_frac;
        if frac > UNATTRIBUTED_FLAG {
            println!(
                "    FLAG: {:.1}% of the traced wall is unattributed (above {:.0}%)",
                frac * 100.0,
                UNATTRIBUTED_FLAG * 100.0
            );
        }
    }
}
