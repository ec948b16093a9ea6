//! Differential tests of CSR construction: the counting-sort
//! `GraphBuilder::build` and `Csr::symmetrize` must equal, as `Csr`
//! values, the sort-and-dedup construction they replaced, kept here only
//! as the oracle.

use gluon_graph::{gen, Csr, Gid, GraphBuilder};
use proptest::prelude::*;

/// The replaced construction: sort copied `(src, dst, weight)` triples,
/// drop adjacent duplicates (the smaller weight sorts first), and store
/// weights unless every kept one is 1.
fn oracle_build(
    num_nodes: u32,
    edges: &[(u32, u32, u32)],
    dedup: bool,
    drop_self_loops: bool,
) -> Csr {
    let mut edges = edges.to_vec();
    if drop_self_loops {
        edges.retain(|&(s, d, _)| s != d);
    }
    edges.sort_unstable();
    if dedup {
        edges.dedup_by(|next, kept| kept.0 == next.0 && kept.1 == next.1);
    }
    let n = num_nodes as usize;
    let mut offsets = vec![0u64; n + 1];
    for &(s, _, _) in &edges {
        offsets[s as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let all_unit = edges.iter().all(|&(_, _, w)| w == 1);
    let targets = edges.iter().map(|&(_, d, _)| d).collect();
    let weights = if all_unit {
        Vec::new()
    } else {
        edges.iter().map(|&(_, _, w)| w).collect()
    };
    Csr::from_parts(offsets, targets, weights)
}

/// The replaced symmetrization: both directions of every edge through the
/// oracle builder, deduplicated and loop-free.
fn oracle_symmetrize(graph: &Csr) -> Csr {
    let mut both = Vec::new();
    for (src, e) in graph.edges() {
        both.push((src.0, e.dst.0, e.weight));
        both.push((e.dst.0, src.0, e.weight));
    }
    oracle_build(graph.num_nodes(), &both, true, true)
}

fn build(num_nodes: u32, edges: &[(u32, u32, u32)], dedup: bool, drop_self_loops: bool) -> Csr {
    let mut b = GraphBuilder::new(num_nodes);
    if dedup {
        b.dedup();
    }
    if drop_self_loops {
        b.drop_self_loops();
    }
    for &(s, d, w) in edges {
        b.add_edge(Gid(s), Gid(d), w);
    }
    b.build()
}

/// Checks every dedup/self-loop setting of the builder, and symmetrize,
/// against the oracle on one edge list.
fn assert_matches_oracle(num_nodes: u32, edges: &[(u32, u32, u32)]) {
    for dedup in [false, true] {
        for drop_self_loops in [false, true] {
            assert_eq!(
                build(num_nodes, edges, dedup, drop_self_loops),
                oracle_build(num_nodes, edges, dedup, drop_self_loops),
                "dedup {dedup}, drop_self_loops {drop_self_loops}, edges {edges:?}"
            );
        }
    }
    let graph = build(num_nodes, edges, false, false);
    assert_eq!(
        graph.symmetrize(),
        oracle_symmetrize(&graph),
        "edges {edges:?}"
    );
}

/// `(num_nodes, edges)` with few nodes (so parallel edges and self loops
/// are common) and weights in `1..=3` (so dedup can collapse a weighted
/// graph to an unweighted one).
fn arb_edge_list() -> impl Strategy<Value = (u32, Vec<(u32, u32, u32)>)> {
    (0u32..10).prop_flat_map(|n| {
        let ends = n.max(1);
        proptest::collection::vec((0..ends, 0..ends, 1u32..4), 0..40).prop_map(move |edges| {
            // n == 0 admits no edge at all.
            (n, if n == 0 { Vec::new() } else { edges })
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn builder_and_symmetrize_match_the_sort_oracle(case in arb_edge_list()) {
        assert_matches_oracle(case.0, &case.1);
    }

    #[test]
    fn unit_weight_edge_lists_match_the_sort_oracle(
        case in arb_edge_list().prop_map(|(n, edges)| {
            (n, edges.into_iter().map(|(s, d, _)| (s, d, 1)).collect::<Vec<_>>())
        })
    ) {
        assert_matches_oracle(case.0, &case.1);
    }
}

#[test]
fn weighted_parallel_edges_keep_the_minimum_weight() {
    let edges = [(0, 1, 9), (0, 1, 3), (0, 1, 5), (1, 0, 4), (0, 2, 7)];
    assert_matches_oracle(3, &edges);
    let g = build(3, &edges, true, false);
    let row: Vec<_> = g.out_edges(Gid(0)).map(|e| (e.dst.0, e.weight)).collect();
    assert_eq!(row, vec![(1, 3), (2, 7)]);
    // Symmetrize merges 0->1 (3, 5, 9) with 1->0 (4): 3 wins both ways.
    let s = g.symmetrize();
    assert_eq!(s.out_edges(Gid(1)).next().map(|e| e.weight), Some(3));
}

#[test]
fn weights_collapse_to_unweighted_after_dedup() {
    let edges = [(0, 1, 1), (0, 1, 5), (1, 2, 1), (1, 2, 2)];
    assert_matches_oracle(3, &edges);
    assert!(build(3, &edges, false, false).is_weighted());
    let deduped = build(3, &edges, true, false);
    assert!(!deduped.is_weighted());
    assert!(!deduped.symmetrize().is_weighted());
}

#[test]
fn self_loops_empty_rows_and_trailing_isolated_nodes() {
    // Node 1 has no edges, nodes 5..8 are isolated at the end, and node 3
    // carries a weighted self loop only.
    let edges = [(0, 2, 1), (2, 0, 1), (3, 3, 6), (4, 0, 2), (0, 0, 1)];
    assert_matches_oracle(8, &edges);
    let s = build(8, &edges, false, false).symmetrize();
    assert_eq!(s.num_nodes(), 8);
    assert_eq!(s.out_degree(Gid(3)), 0);
    assert!((5..8).all(|v| s.out_degree(Gid(v)) == 0));
}

#[test]
fn zero_and_one_node_graphs() {
    assert_matches_oracle(0, &[]);
    assert_matches_oracle(1, &[]);
    assert_matches_oracle(1, &[(0, 0, 1), (0, 0, 4), (0, 0, 2)]);
    assert_eq!(Csr::empty(0).symmetrize(), Csr::empty(0));
}

#[test]
fn generated_graphs_match_the_sort_oracle() {
    for g in [
        gen::rmat(9, 8, Default::default(), 3),
        gen::with_random_weights(&gen::rmat(8, 8, Default::default(), 4), 4, 9),
        gen::grid(6, 5),
        gen::star(12),
    ] {
        let edges: Vec<_> = g.edges().map(|(s, e)| (s.0, e.dst.0, e.weight)).collect();
        assert_matches_oracle(g.num_nodes(), &edges);
        assert_eq!(g.symmetrize(), oracle_symmetrize(&g));
    }
}
