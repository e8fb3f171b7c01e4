//! Property tests of `TaskGraph::transitive_reduction` against the
//! definition of a transitive reduction, on random DAGs that need not come
//! from a derivation.

use fppn_core::ProcessId;
use fppn_taskgraph::{Job, JobId, TaskGraph};
use fppn_time::TimeQ;
use proptest::prelude::*;

/// Most nodes a generated DAG has; more than 128, so reachability rows
/// span several 64-bit words.
const MAX_NODES: usize = 160;

/// Strategy: a random DAG of 1–160 nodes. Each pair `i < j` of a hidden
/// topological order gets an edge with the drawn density, and the order
/// is shuffled into job ids, so id order is not a topological order.
fn dag_strategy() -> impl Strategy<Value = TaskGraph> {
    (
        1usize..=MAX_NODES,
        0u32..=100,
        prop::collection::vec(0u32..100, MAX_NODES * (MAX_NODES - 1) / 2),
        prop::collection::vec(any::<u64>(), MAX_NODES),
    )
        .prop_map(|(n, density, coins, keys)| {
            let mut ids: Vec<usize> = (0..n).collect();
            ids.sort_by_key(|&i| keys[i]);
            let jobs = (0..n)
                .map(|i| Job {
                    process: ProcessId::from_index(i),
                    k: 1,
                    arrival: TimeQ::ZERO,
                    deadline: TimeQ::from_ms(100),
                    wcet: TimeQ::from_ms(1),
                    is_server: false,
                })
                .collect();
            let mut g = TaskGraph::new(jobs, TimeQ::from_ms(100));
            let mut coin = coins.into_iter();
            for i in 0..n {
                for j in (i + 1)..n {
                    if coin.next().unwrap() < density {
                        g.add_edge(JobId::from_index(ids[i]), JobId::from_index(ids[j]));
                    }
                }
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The reduction keeps reachability, leaves no edge implied by a
    /// longer path, only removes edges, and is idempotent.
    #[test]
    fn reduction_matches_the_definition(g in dag_strategy()) {
        let mut reduced = g.clone();
        let removed = reduced.transitive_reduction();

        prop_assert_eq!(removed + reduced.edge_count(), g.edge_count());
        for (a, b) in reduced.edges() {
            prop_assert!(g.has_edge(a, b), "{a} -> {b} was added");
        }
        prop_assert_eq!(reduced.transitive_closure(), g.transitive_closure());

        // No remaining edge a -> b has b reachable from another direct
        // successor c of a.
        for a in reduced.job_ids() {
            for b in reduced.successors(a) {
                for c in reduced.successors(a).filter(|&c| c != b) {
                    prop_assert!(
                        !reduced.is_reachable(c, b),
                        "{a} -> {b} is implied by {a} -> {c} ->* {b}"
                    );
                }
            }
        }

        prop_assert_eq!(reduced.clone().transitive_reduction(), 0);
    }
}
