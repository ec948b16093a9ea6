//! Incremental construction of [`Csr`] graphs.

use crate::csr::Csr;
use crate::ids::Gid;

/// Incremental builder for [`Csr`] graphs.
///
/// Collects edges in any order, then lays them out in CSR form on
/// [`GraphBuilder::build`] with one counting-sort pass. Optionally
/// deduplicates parallel edges (keeping the minimum weight, the natural
/// choice for shortest-path inputs) and drops self loops.
///
/// # Examples
///
/// ```
/// use gluon_graph::{GraphBuilder, Gid};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(Gid(2), Gid(0), 7);
/// b.add_edge(Gid(0), Gid(1), 1);
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.out_edges(Gid(2)).next().unwrap().weight, 7);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_nodes: u32,
    edges: Vec<(u32, u32, u32)>,
    dedup: bool,
    drop_self_loops: bool,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes.
    pub fn new(num_nodes: u32) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
            dedup: false,
            drop_self_loops: false,
        }
    }

    /// Creates a builder that owns an existing `(src, dst, weight)` buffer,
    /// so a caller holding its edges already pays no second copy.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_nodes`.
    pub fn from_edges(num_nodes: u32, edges: Vec<(u32, u32, u32)>) -> Self {
        assert!(
            edges
                .iter()
                .all(|&(s, d, _)| s < num_nodes && d < num_nodes),
            "edge out of range for {num_nodes} nodes"
        );
        GraphBuilder {
            edges,
            ..GraphBuilder::new(num_nodes)
        }
    }

    /// Requests deduplication of parallel edges; the smallest weight wins.
    pub fn dedup(&mut self) -> &mut Self {
        self.dedup = true;
        self
    }

    /// Requests removal of self loops.
    pub fn drop_self_loops(&mut self) -> &mut Self {
        self.drop_self_loops = true;
        self
    }

    /// Adds one directed edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is `>= num_nodes`.
    pub fn add_edge(&mut self, src: Gid, dst: Gid, weight: u32) -> &mut Self {
        assert!(
            src.0 < self.num_nodes && dst.0 < self.num_nodes,
            "edge ({src}, {dst}) out of range for {} nodes",
            self.num_nodes
        );
        self.edges.push((src.0, dst.0, weight));
        self
    }

    /// Number of edges currently buffered (before dedup/self-loop filtering).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges have been added yet.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Lays the buffered edges out as a [`Csr`] in O(E + V).
    ///
    /// The result follows the [`Csr`] row-order contract: every row is
    /// sorted by `(dst, weight)`; with [`GraphBuilder::dedup`] each
    /// `(src, dst)` pair keeps only its minimum weight; and the result is
    /// unweighted exactly when every kept edge has weight 1.
    ///
    /// A degree pass sizes the rows, a scatter writes each edge straight
    /// into its row of the final arrays (the offsets double as the
    /// cursors), and a row finish sorts, dedups and compacts the rows in
    /// place.
    pub fn build(&self) -> Csr {
        let keep = |&&(s, d, _): &&(u32, u32, u32)| !(self.drop_self_loops && s == d);
        let mut offsets = vec![0u64; self.num_nodes as usize + 1];
        for &(s, _, _) in self.edges.iter().filter(keep) {
            offsets[s as usize + 1] += 1;
        }
        let m = counts_to_cursors(&mut offsets);
        let weighted = self.edges.iter().filter(keep).any(|&(_, _, w)| w != 1);
        let mut targets = vec![0u32; m];
        let mut weights = vec![0u32; if weighted { m } else { 0 }];
        for &(s, d, w) in self.edges.iter().filter(keep) {
            let cursor = &mut offsets[s as usize + 1];
            let slot = *cursor as usize;
            *cursor += 1;
            targets[slot] = d;
            if weighted {
                weights[slot] = w;
            }
        }
        finish_rows(offsets, targets, weights, self.dedup)
    }
}

impl Csr {
    /// The undirected view of this graph: every edge in both directions,
    /// self loops dropped, parallel edges merged to their minimum weight.
    ///
    /// Equal to feeding both directions of every edge through a
    /// [`GraphBuilder`] with [`GraphBuilder::dedup`] and
    /// [`GraphBuilder::drop_self_loops`], but built straight from this
    /// graph's rows with no edge-triple buffer: one degree pass (out- plus
    /// in-degree), one scatter of both directions, then the same row
    /// finish as [`GraphBuilder::build`].
    ///
    /// # Examples
    ///
    /// ```
    /// use gluon_graph::{Csr, Gid};
    ///
    /// let g = Csr::from_weighted_edge_list(3, &[(0, 1, 5), (1, 0, 2), (2, 2, 1)]);
    /// let s = g.symmetrize();
    /// assert_eq!(s.num_edges(), 2);
    /// assert_eq!(s.out_edges(Gid(0)).next().unwrap().weight, 2);
    /// ```
    pub fn symmetrize(&self) -> Csr {
        let n = self.num_nodes() as usize;
        let (in_offsets, in_targets) = (self.offsets(), self.targets());
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            for &d in &in_targets[in_offsets[v] as usize..in_offsets[v + 1] as usize] {
                if d as usize != v {
                    offsets[v + 1] += 1;
                    offsets[d as usize + 1] += 1;
                }
            }
        }
        let m = counts_to_cursors(&mut offsets);
        let weighted = self.is_weighted();
        let mut targets = vec![0u32; m];
        let mut weights = vec![0u32; if weighted { m } else { 0 }];
        for v in 0..n {
            let (lo, hi) = (in_offsets[v] as usize, in_offsets[v + 1] as usize);
            for (e, &d) in (lo..hi).zip(&in_targets[lo..hi]) {
                let d = d as usize;
                if d == v {
                    continue;
                }
                for (from, to) in [(v, d), (d, v)] {
                    let cursor = &mut offsets[from + 1];
                    let slot = *cursor as usize;
                    *cursor += 1;
                    targets[slot] = to as u32;
                    if weighted {
                        weights[slot] = self.weights()[e];
                    }
                }
            }
        }
        finish_rows(offsets, targets, weights, true)
    }
}

/// Finishes a CSR whose rows were scattered in arbitrary order into
/// `targets`/`weights` (`offsets` already final, `weights` empty when every
/// weight is 1): sorts each row by `(dst, weight)`, with `dedup` keeps only
/// the first — minimum-weight — entry per `dst`, compacts the rows in
/// place, and drops the weights when every kept one is 1.
fn finish_rows(
    mut offsets: Vec<u64>,
    mut targets: Vec<u32>,
    mut weights: Vec<u32>,
    dedup: bool,
) -> Csr {
    let weighted = !weights.is_empty();
    // Weighted rows sort as packed `dst << 32 | weight` keys in a scratch
    // buffer sized by the largest row, not by the edge count.
    let mut keys: Vec<u64> = Vec::new();
    let mut kept = 0usize;
    let mut start = 0usize;
    for offset in offsets.iter_mut().skip(1) {
        let end = *offset as usize;
        let len = if weighted {
            keys.clear();
            keys.extend(
                targets[start..end]
                    .iter()
                    .zip(&weights[start..end])
                    .map(|(&d, &w)| u64::from(d) << 32 | u64::from(w)),
            );
            keys.sort_unstable();
            if dedup {
                keys.dedup_by_key(|k| *k >> 32);
            }
            for (i, &k) in keys.iter().enumerate() {
                targets[kept + i] = (k >> 32) as u32;
                weights[kept + i] = k as u32;
            }
            keys.len()
        } else {
            let row = &mut targets[start..end];
            row.sort_unstable();
            let len = if dedup { dedup_sorted(row) } else { row.len() };
            if kept < start {
                targets.copy_within(start..start + len, kept);
            }
            len
        };
        kept += len;
        *offset = kept as u64;
        start = end;
    }
    targets.truncate(kept);
    targets.shrink_to_fit();
    if weights.iter().take(kept).all(|&w| w == 1) {
        weights = Vec::new();
    } else {
        weights.truncate(kept);
        weights.shrink_to_fit();
    }
    Csr::from_parts(offsets, targets, weights)
}

/// Moves the distinct values of the sorted `row` to its front and returns
/// how many there are.
fn dedup_sorted(row: &mut [u32]) -> usize {
    let mut len = 0;
    for i in 0..row.len() {
        if len == 0 || row[i] != row[len - 1] {
            row[len] = row[i];
            len += 1;
        }
    }
    len
}

/// Turns per-row counts held at `offsets[v + 1]` into row *starts* held at
/// the same index, and returns the total. Scattering row `v`'s entries
/// through `offsets[v + 1]` as a post-incremented cursor then leaves it
/// at the row's end — exactly the CSR offset it must hold.
fn counts_to_cursors(offsets: &mut [u64]) -> usize {
    let mut total = 0u64;
    for slot in offsets.iter_mut().skip(1) {
        let count = *slot;
        *slot = total;
        total += count;
    }
    total as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_sorted_csr_from_unsorted_input() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(Gid(3), Gid(0), 1);
        b.add_edge(Gid(0), Gid(2), 1);
        b.add_edge(Gid(0), Gid(1), 1);
        let g = b.build();
        let n0: Vec<_> = g.out_edges(Gid(0)).map(|e| e.dst.0).collect();
        assert_eq!(n0, vec![1, 2]);
        assert_eq!(g.out_degree(Gid(3)), 1);
    }

    #[test]
    fn dedup_keeps_minimum_weight() {
        let mut b = GraphBuilder::new(2);
        b.dedup();
        b.add_edge(Gid(0), Gid(1), 9);
        b.add_edge(Gid(0), Gid(1), 3);
        b.add_edge(Gid(0), Gid(1), 5);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.out_edges(Gid(0)).next().unwrap().weight, 3);
    }

    #[test]
    fn drop_self_loops_removes_them() {
        let mut b = GraphBuilder::new(2);
        b.drop_self_loops();
        b.add_edge(Gid(0), Gid(0), 1);
        b.add_edge(Gid(0), Gid(1), 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn unit_weights_build_unweighted() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(Gid(0), Gid(1), 1);
        assert!(!b.build().is_weighted());
        b.add_edge(Gid(1), Gid(0), 2);
        assert!(b.build().is_weighted());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        GraphBuilder::new(2).add_edge(Gid(0), Gid(2), 1);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let b = GraphBuilder::new(3);
        assert!(b.is_empty());
        let g = b.build();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 0);
    }
}
