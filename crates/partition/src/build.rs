//! Constructing [`LocalGraph`]s from a global graph and a policy.
//!
//! Two paths produce *identical* partitions:
//!
//! * [`partition_all`] — a serial convenience that materializes every host's
//!   partition at once (tests, single-process tools);
//! * [`partition_on_host`] — the distributed path of the paper (§4.1: "each
//!   host reads from disk a subset of edges assigned to it and receives from
//!   other hosts the rest"): every host scans its 1/n slice of the edge
//!   list, routes edges to their assigned hosts through an all-to-all
//!   exchange, and builds only its own partition.

use crate::local::LocalGraph;
use crate::policy::{Policy, PolicyCtx};
use bytes::{BufMut, Bytes, BytesMut};
use gluon_graph::{Csr, Gid, GraphBuilder};
use gluon_net::{Communicator, Transport};

/// Partitions `graph` for `num_hosts` hosts, producing all partitions at
/// once (rank order).
///
/// # Examples
///
/// ```
/// use gluon_graph::gen;
/// use gluon_partition::{partition_all, Policy};
///
/// let g = gen::rmat(6, 4, Default::default(), 1);
/// let parts = partition_all(&g, 4, Policy::Cvc);
/// let local_edges: u64 = parts.iter().map(|p| p.num_local_edges()).sum();
/// assert_eq!(local_edges, g.num_edges());
/// ```
///
/// # Panics
///
/// Panics if `num_hosts` is zero.
pub fn partition_all(graph: &Csr, num_hosts: usize, policy: Policy) -> Vec<LocalGraph> {
    let ctx = PolicyCtx::new(policy, graph, num_hosts);
    let mut buckets: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); num_hosts];
    for (src, e) in graph.edges() {
        buckets[ctx.host_of_edge(src, e.dst)].push((src.0, e.dst.0, e.weight));
    }
    buckets
        .into_iter()
        .enumerate()
        .map(|(host, edges)| build_local(host, &ctx, graph, edges))
        .collect()
}

/// Distributed partitioning: call on every host of a cluster; each host
/// returns its own [`LocalGraph`].
///
/// `graph` models the cluster's shared filesystem — every host can see it,
/// but each host only *scans* its 1/n contiguous slice of the edge list and
/// learns the rest of its edges from the all-to-all exchange, exactly like
/// the disk-plus-network construction the paper describes. The produced
/// partition is bit-identical to the corresponding entry of
/// [`partition_all`].
pub fn partition_on_host<T: Transport + ?Sized>(
    graph: &Csr,
    policy: Policy,
    comm: &Communicator<'_, T>,
) -> LocalGraph {
    let num_hosts = comm.world_size();
    let rank = comm.rank();
    let ctx = PolicyCtx::new(policy, graph, num_hosts);
    let m = graph.num_edges();
    let lo = m * rank as u64 / num_hosts as u64;
    let hi = m * (rank as u64 + 1) / num_hosts as u64;

    let mut outgoing: Vec<BytesMut> = (0..num_hosts).map(|_| BytesMut::new()).collect();
    let mut own: Vec<(u32, u32, u32)> = Vec::new();
    for (src, e) in edge_slice(graph, lo, hi) {
        let host = ctx.host_of_edge(src, e.dst);
        if host == rank {
            own.push((src.0, e.dst.0, e.weight));
        } else {
            let buf = &mut outgoing[host];
            buf.put_u32_le(src.0);
            buf.put_u32_le(e.dst.0);
            buf.put_u32_le(e.weight);
        }
    }
    let incoming = comm.all_to_all(outgoing.into_iter().map(BytesMut::freeze).collect());
    for payload in incoming {
        decode_edges(&payload, &mut own);
    }
    build_local(rank, &ctx, graph, own)
}

/// Iterates over edges `lo..hi` (by CSR edge index) of `graph`.
fn edge_slice(
    graph: &Csr,
    lo: u64,
    hi: u64,
) -> impl Iterator<Item = (Gid, gluon_graph::Edge)> + '_ {
    let offsets = graph.offsets();
    // First node whose edge range extends past `lo`.
    let start_node = offsets.partition_point(|&o| o <= lo).saturating_sub(1);
    (start_node as u32..graph.num_nodes())
        .flat_map(move |v| {
            let base = offsets[v as usize];
            graph
                .out_edges(Gid(v))
                .enumerate()
                .map(move |(i, e)| (base + i as u64, Gid(v), e))
        })
        .skip_while(move |&(idx, _, _)| idx < lo)
        .take_while(move |&(idx, _, _)| idx < hi)
        .map(|(_, src, e)| (src, e))
}

fn decode_edges(payload: &Bytes, out: &mut Vec<(u32, u32, u32)>) {
    assert_eq!(
        payload.len() % 12,
        0,
        "edge payload must be 12-byte triples"
    );
    for chunk in payload.chunks_exact(12) {
        let src = u32::from_le_bytes(chunk[0..4].try_into().expect("4 bytes"));
        let dst = u32::from_le_bytes(chunk[4..8].try_into().expect("4 bytes"));
        let w = u32::from_le_bytes(chunk[8..12].try_into().expect("4 bytes"));
        out.push((src, dst, w));
    }
}

/// Builds host `host`'s [`LocalGraph`] from the edges assigned to it.
///
/// Lids are masters sorted by gid, then mirrors sorted by gid. One dense
/// gid → lid table finds the mirrors and relabels the edges in place.
fn build_local(
    host: usize,
    ctx: &PolicyCtx,
    graph: &Csr,
    mut edges: Vec<(u32, u32, u32)>,
) -> LocalGraph {
    const ABSENT: u32 = u32::MAX;
    const MIRROR: u32 = u32::MAX - 1;
    let n = graph.num_nodes();
    assert!(
        n < MIRROR,
        "gid space must leave room for the lid sentinels"
    );
    let mut lid_of = vec![ABSENT; n as usize];
    let mut gids = Vec::new();
    let mut owner = Vec::new();
    // Masters: every node this host owns — present even when isolated, so
    // reductions and initial values always have a home.
    for v in 0..n {
        if ctx.master_of(Gid(v)) == host {
            lid_of[v as usize] = gids.len() as u32;
            gids.push(Gid(v));
            owner.push(host);
        }
    }
    let num_masters = gids.len() as u32;
    // Mirrors: endpoints of local edges whose master is remote.
    for &(u, v, _) in &edges {
        for g in [u, v] {
            if lid_of[g as usize] == ABSENT {
                lid_of[g as usize] = MIRROR;
            }
        }
    }
    for (g, lid) in lid_of.iter_mut().enumerate() {
        if *lid == MIRROR {
            *lid = gids.len() as u32;
            gids.push(Gid(g as u32));
            owner.push(ctx.master_of(Gid(g as u32)));
        }
    }
    for (u, v, _) in &mut edges {
        *u = lid_of[*u as usize];
        *v = lid_of[*v as usize];
    }
    let local_csr = GraphBuilder::from_edges(gids.len() as u32, edges).build();
    LocalGraph::from_parts(
        host,
        ctx.num_hosts(),
        ctx.policy(),
        graph.num_nodes(),
        graph.num_edges(),
        local_csr,
        gids,
        owner,
        num_masters,
    )
}

/// Translates a local edge target back to global space (test helper).
pub fn local_edge_gids(lg: &LocalGraph) -> Vec<(Gid, Gid, u32)> {
    let mut out = Vec::with_capacity(lg.num_local_edges() as usize);
    for p in lg.proxies() {
        for e in lg.out_edges(p) {
            out.push((lg.gid(p), lg.gid(e.dst), e.weight));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gluon_graph::gen;
    use gluon_net::run_cluster;

    #[test]
    fn every_edge_lands_on_exactly_one_host() {
        let g = gen::with_random_weights(&gen::rmat(6, 4, Default::default(), 7), 9, 1);
        for policy in Policy::ALL {
            let parts = partition_all(&g, 3, policy);
            let mut all: Vec<_> = parts
                .iter()
                .flat_map(local_edge_gids)
                .map(|(s, d, w)| (s.0, d.0, w))
                .collect();
            all.sort_unstable();
            let mut orig: Vec<_> = g.edges().map(|(s, e)| (s.0, e.dst.0, e.weight)).collect();
            orig.sort_unstable();
            assert_eq!(all, orig, "policy {policy}");
        }
    }

    #[test]
    fn every_node_has_exactly_one_master() {
        let g = gen::rmat(6, 4, Default::default(), 2);
        for policy in Policy::ALL {
            let parts = partition_all(&g, 4, policy);
            let mut owners = vec![0u32; g.num_nodes() as usize];
            for p in &parts {
                for m in p.masters() {
                    owners[p.gid(m).index()] += 1;
                }
            }
            assert!(owners.iter().all(|&c| c == 1), "policy {policy}");
        }
    }

    #[test]
    fn single_host_partition_has_no_mirrors() {
        let g = gen::rmat(5, 4, Default::default(), 4);
        for policy in Policy::ALL {
            let parts = partition_all(&g, 1, policy);
            assert_eq!(parts.len(), 1);
            assert_eq!(parts[0].num_mirrors(), 0);
            assert_eq!(parts[0].num_local_edges(), g.num_edges());
        }
    }

    #[test]
    fn distributed_equals_serial() {
        let g = gen::with_random_weights(&gen::rmat(6, 4, Default::default(), 11), 5, 2);
        for policy in [Policy::Oec, Policy::Iec, Policy::Cvc, Policy::Hvc] {
            let serial = partition_all(&g, 4, policy);
            let distributed = run_cluster(4, |ep| {
                let comm = Communicator::new(ep);
                partition_on_host(&g, policy, &comm)
            });
            for (s, d) in serial.iter().zip(&distributed) {
                assert_eq!(s.num_masters(), d.num_masters(), "policy {policy}");
                assert_eq!(s.num_mirrors(), d.num_mirrors(), "policy {policy}");
                let mut se = local_edge_gids(s);
                let mut de = local_edge_gids(d);
                se.sort_unstable();
                de.sort_unstable();
                assert_eq!(se, de, "policy {policy}");
            }
        }
    }

    #[test]
    fn edge_slice_covers_all_edges_without_overlap() {
        let g = gen::rmat(6, 4, Default::default(), 5);
        let m = g.num_edges();
        for n in [1u64, 2, 3, 7] {
            let mut seen = 0u64;
            for h in 0..n {
                let lo = m * h / n;
                let hi = m * (h + 1) / n;
                seen += edge_slice(&g, lo, hi).count() as u64;
            }
            assert_eq!(seen, m, "hosts {n}");
        }
    }

    #[test]
    fn edge_slice_handles_isolated_leading_nodes() {
        // Node 0..9 isolated, edges start at node 10.
        let mut b = GraphBuilder::new(20);
        b.add_edge(Gid(10), Gid(1), 1);
        b.add_edge(Gid(15), Gid(2), 1);
        let g = b.build();
        let all: Vec<_> = edge_slice(&g, 0, 2).map(|(s, e)| (s.0, e.dst.0)).collect();
        assert_eq!(all, vec![(10, 1), (15, 2)]);
        let second: Vec<_> = edge_slice(&g, 1, 2).map(|(s, e)| (s.0, e.dst.0)).collect();
        assert_eq!(second, vec![(15, 2)]);
    }

    #[test]
    fn oec_mirrors_have_no_outgoing_edges() {
        // The structural invariant §2.3 relies on.
        let g = gen::rmat(6, 4, Default::default(), 6);
        for p in partition_all(&g, 4, Policy::Oec) {
            for m in p.mirrors() {
                assert!(!p.has_local_out_edges(m), "host {} {m}", p.host());
            }
        }
    }

    #[test]
    fn iec_mirrors_have_no_incoming_edges() {
        let g = gen::rmat(6, 4, Default::default(), 6);
        for p in partition_all(&g, 4, Policy::Iec) {
            for m in p.mirrors() {
                assert!(!p.has_local_in_edges(m), "host {} {m}", p.host());
            }
        }
    }

    #[test]
    fn cvc_mirrors_never_have_both_edge_directions() {
        let g = gen::rmat(7, 4, Default::default(), 8);
        for p in partition_all(&g, 4, Policy::Cvc) {
            for m in p.mirrors() {
                assert!(
                    !(p.has_local_in_edges(m) && p.has_local_out_edges(m)),
                    "host {} {m} has both directions",
                    p.host()
                );
            }
        }
    }
}
