//! Checkable statements of the paper's partitioning invariants.
//!
//! These run in tests and in debug tooling; they encode §2.2's invariants
//! (a)/(b) plus the per-policy structural invariants of §3.1 that the
//! communication optimizer exploits.

use crate::local::LocalGraph;
use crate::policy::Policy;
use std::collections::HashMap;
use std::fmt;

/// A violated partition invariant.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InvariantViolation(String);

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "partition invariant violated: {}", self.0)
    }
}

impl std::error::Error for InvariantViolation {}

fn violation(msg: String) -> Result<(), InvariantViolation> {
    Err(InvariantViolation(msg))
}

/// Checks the invariants local to a single host's partition.
///
/// * masters-first proxy layout, both ranges gid-sorted (construction
///   contract);
/// * every local row sorted by `(dst, weight)` (the [`gluon_graph::Csr`]
///   row-order contract partitions are built under);
/// * per-policy structural invariants: OEC mirrors have no local outgoing
///   edges, IEC mirrors no local incoming edges, CVC mirrors never both.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_local_graph(lg: &LocalGraph) -> Result<(), InvariantViolation> {
    for p in lg.proxies() {
        let mut prev = None;
        for e in lg.out_edges(p) {
            let key = (e.dst, e.weight);
            if prev.is_some_and(|prev| prev > key) {
                return violation(format!(
                    "row of {p} on host {} is out of (dst, weight) order at {key:?}",
                    lg.host()
                ));
            }
            prev = Some(key);
        }
    }
    for m in lg.masters() {
        if lg.owner_of(m) != lg.host() {
            return violation(format!("master {m} owned by {}", lg.owner_of(m)));
        }
    }
    for m in lg.mirrors() {
        if lg.owner_of(m) == lg.host() {
            return violation(format!("mirror {m} owned locally"));
        }
        match lg.policy() {
            Policy::Oec | Policy::RandomOec | Policy::Fennel => {
                if lg.has_local_out_edges(m) {
                    return violation(format!(
                        "OEC mirror {m} on host {} has outgoing edges",
                        lg.host()
                    ));
                }
            }
            Policy::Iec => {
                if lg.has_local_in_edges(m) {
                    return violation(format!(
                        "IEC mirror {m} on host {} has incoming edges",
                        lg.host()
                    ));
                }
            }
            Policy::Cvc => {
                if lg.has_local_in_edges(m) && lg.has_local_out_edges(m) {
                    return violation(format!(
                        "CVC mirror {m} on host {} has both edge directions",
                        lg.host()
                    ));
                }
            }
            Policy::Hvc => {}
        }
    }
    Ok(())
}

/// Checks the cross-host invariants over a full set of partitions:
/// every global node has exactly one master, every global edge appears on
/// exactly one host, and every proxy's recorded owner really masters it.
///
/// # Errors
///
/// Returns the first violation found.
///
/// # Panics
///
/// Panics if `parts` is empty.
pub fn check_partitions(parts: &[LocalGraph]) -> Result<(), InvariantViolation> {
    assert!(!parts.is_empty(), "no partitions to check");
    let global_nodes = parts[0].global_nodes();
    let global_edges = parts[0].global_edges();
    let mut master_host: HashMap<u32, usize> = HashMap::new();
    for p in parts {
        for m in p.masters() {
            if let Some(prev) = master_host.insert(p.gid(m).0, p.host()) {
                return violation(format!(
                    "node {} mastered by both host {prev} and host {}",
                    p.gid(m),
                    p.host()
                ));
            }
        }
    }
    if master_host.len() != global_nodes as usize {
        return violation(format!(
            "{} of {global_nodes} nodes have masters",
            master_host.len()
        ));
    }
    let mut total_edges = 0u64;
    for p in parts {
        total_edges += p.num_local_edges();
        for m in p.proxies() {
            let recorded = p.owner_of(m);
            let actual = master_host[&p.gid(m).0];
            if recorded != actual {
                return violation(format!(
                    "host {} thinks {} is mastered by {recorded}, actually {actual}",
                    p.host(),
                    p.gid(m)
                ));
            }
        }
    }
    if total_edges != global_edges {
        return violation(format!(
            "{total_edges} local edges for {global_edges} global edges"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::partition_all;
    use gluon_graph::gen;

    #[test]
    fn all_policies_pass_on_random_graphs() {
        for seed in 0..3 {
            let g = gen::rmat(6, 4, Default::default(), seed);
            for policy in Policy::ALL {
                for hosts in [1, 2, 4, 5] {
                    let parts = partition_all(&g, hosts, policy);
                    for p in &parts {
                        check_local_graph(p).unwrap_or_else(|e| panic!("{policy} x{hosts}: {e}"));
                    }
                    check_partitions(&parts).unwrap_or_else(|e| panic!("{policy} x{hosts}: {e}"));
                }
            }
        }
    }

    #[test]
    fn passes_on_pathological_graphs() {
        for g in [
            gen::star(32),
            gen::star(32).transpose(),
            gen::path(17),
            gen::cycle(8),
            gluon_graph::Csr::empty(10),
            gen::complete(6),
        ] {
            for policy in Policy::ALL {
                let parts = partition_all(&g, 3, policy);
                for p in &parts {
                    check_local_graph(p).expect("local invariants");
                }
                check_partitions(&parts).expect("global invariants");
            }
        }
    }
}
