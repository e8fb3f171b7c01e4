//! The task graph DAG (Def. 3.1) and graph algorithms.

use std::collections::BTreeSet;

use fppn_core::ProcessId;
use fppn_time::TimeQ;

use crate::job::{Job, JobId};

/// A directed acyclic graph of jobs with precedence edges (Def. 3.1).
///
/// Nodes are [`Job`]s; an edge `(J_a, J_b)` constrains `J_a` to complete
/// before `J_b` starts. The graph is built by
/// [`derive_task_graph`](crate::derive_task_graph) but can also be
/// constructed directly for synthetic scheduling experiments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskGraph {
    jobs: Vec<Job>,
    succs: Vec<BTreeSet<JobId>>,
    preds: Vec<BTreeSet<JobId>>,
    hyperperiod: TimeQ,
}

impl TaskGraph {
    /// Creates a graph with the given jobs, no edges, and frame length
    /// (hyperperiod) `hyperperiod`.
    pub fn new(jobs: Vec<Job>, hyperperiod: TimeQ) -> Self {
        let n = jobs.len();
        TaskGraph {
            jobs,
            succs: vec![BTreeSet::new(); n],
            preds: vec![BTreeSet::new(); n],
            hyperperiod,
        }
    }

    /// The hyperperiod `H` (frame length) this graph covers.
    pub fn hyperperiod(&self) -> TimeQ {
        self.hyperperiod
    }

    /// The jobs, indexed by [`JobId`].
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The number of jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// One job.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.index()]
    }

    /// Iterates over all job ids.
    pub fn job_ids(&self) -> impl Iterator<Item = JobId> + '_ {
        (0..self.jobs.len()).map(JobId::from_index)
    }

    /// Finds the job of process `pid` with invocation count `k`.
    pub fn find(&self, pid: ProcessId, k: u64) -> Option<JobId> {
        self.jobs
            .iter()
            .position(|j| j.process == pid && j.k == k)
            .map(JobId::from_index)
    }

    /// Adds the precedence edge `from → to` (idempotent).
    ///
    /// # Panics
    ///
    /// Panics on self-edges; cycles are detected by
    /// [`TaskGraph::topological_order`].
    pub fn add_edge(&mut self, from: JobId, to: JobId) {
        assert_ne!(from, to, "self-edge on {from}");
        if self.succs[from.index()].insert(to) {
            self.preds[to.index()].insert(from);
        }
    }

    /// Removes an edge if present; returns whether it existed.
    pub fn remove_edge(&mut self, from: JobId, to: JobId) -> bool {
        let removed = self.succs[from.index()].remove(&to);
        if removed {
            self.preds[to.index()].remove(&from);
        }
        removed
    }

    /// Whether the edge `from → to` is present.
    pub fn has_edge(&self, from: JobId, to: JobId) -> bool {
        self.succs[from.index()].contains(&to)
    }

    /// Direct successors of a job.
    pub fn successors(&self, id: JobId) -> impl Iterator<Item = JobId> + '_ {
        self.succs[id.index()].iter().copied()
    }

    /// Direct predecessors of a job (`Pred(i)` in §III-B).
    pub fn predecessors(&self, id: JobId) -> impl Iterator<Item = JobId> + '_ {
        self.preds[id.index()].iter().copied()
    }

    /// The in-degree `|Pred(i)|` of a job, in O(1).
    pub fn pred_count(&self, id: JobId) -> usize {
        self.preds[id.index()].len()
    }

    /// The out-degree `|Succ(i)|` of a job, in O(1).
    pub fn succ_count(&self, id: JobId) -> usize {
        self.succs[id.index()].len()
    }

    /// All in-degrees, indexed by job id — the scheduler's initial
    /// `remaining_preds` vector in one O(n) pass.
    pub fn pred_counts(&self) -> Vec<usize> {
        self.preds.iter().map(BTreeSet::len).collect()
    }

    /// All out-degrees, indexed by job id.
    pub fn succ_counts(&self) -> Vec<usize> {
        self.succs.iter().map(BTreeSet::len).collect()
    }

    /// The total number of edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(BTreeSet::len).sum()
    }

    /// All edges `(from, to)` in id order.
    pub fn edges(&self) -> impl Iterator<Item = (JobId, JobId)> + '_ {
        self.succs
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.iter().map(move |&t| (JobId::from_index(i), t)))
    }

    /// A topological order of the jobs, or `None` if the graph has a cycle
    /// (which would make it not a task graph).
    pub fn topological_order(&self) -> Option<Vec<JobId>> {
        let n = self.jobs.len();
        let mut indegree: Vec<usize> = self.pred_counts();
        let mut ready: BTreeSet<JobId> = self
            .job_ids()
            .filter(|j| indegree[j.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(&next) = ready.iter().next() {
            ready.remove(&next);
            order.push(next);
            for s in self.succs[next.index()].iter() {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    ready.insert(*s);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Whether `to` is reachable from `from` following edges.
    pub fn is_reachable(&self, from: JobId, to: JobId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.jobs.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(node) = stack.pop() {
            for s in self.succs[node.index()].iter() {
                if *s == to {
                    return true;
                }
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(*s);
                }
            }
        }
        false
    }

    /// Removes every redundant edge (step 5 of the §III-A derivation):
    /// an edge `a → b` is redundant if `b` remains reachable from `a`
    /// through a longer path. Returns the number of removed edges.
    ///
    /// The standard DAG reduction over reachability bitsets: nodes are
    /// visited in reverse topological order, and each node `a` walks its
    /// direct successors in increasing topological position while
    /// accumulating the set `R` of nodes they reach. A successor already
    /// in `R` is reachable from an earlier successor, so its edge is
    /// redundant; otherwise its reachability row is OR-ed into `R`.
    /// `reach[a] = R ∪ {a}` is then final, because every successor of `a`
    /// comes later in the order. Takes O(V + E·V/64) time and V²/8 bytes
    /// of scratch (about 1 MB for the 2798 jobs of FMS Original), freed
    /// on return.
    ///
    /// The transitive reduction of a DAG is unique, so the result does not
    /// depend on traversal order.
    ///
    /// # Panics
    ///
    /// Panics if the graph has a cycle.
    pub fn transitive_reduction(&mut self) -> usize {
        let order = self
            .topological_order()
            .expect("transitive reduction requires a DAG");
        let n = order.len();
        let mut pos = vec![0usize; n];
        for (i, id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        // Row `i` holds the nodes reachable from `order[i]`, as a bitset
        // over topological positions. Every bit of row `i` is at a
        // position ≥ `i`, so ORs start at the successor's own word.
        let words = n.div_ceil(64);
        let mut reach = vec![0u64; n * words];
        let mut targets: Vec<usize> = Vec::new();
        let mut removed = 0usize;
        for i in (0..n).rev() {
            let a = order[i];
            targets.clear();
            targets.extend(self.succs[a.index()].iter().map(|s| pos[s.index()]));
            targets.sort_unstable();
            let (head, tail) = reach.split_at_mut((i + 1) * words);
            let row = &mut head[i * words..];
            for &p in &targets {
                let word = p / 64;
                if row[word] & (1 << (p % 64)) != 0 {
                    self.remove_edge(a, order[p]);
                    removed += 1;
                } else {
                    let succ_row = &tail[(p - i - 1) * words..][..words];
                    for (r, s) in row[word..].iter_mut().zip(&succ_row[word..]) {
                        *r |= s;
                    }
                }
            }
            row[i / 64] |= 1 << (i % 64);
        }
        removed
    }

    /// The set of reachable pairs `(a, b)`, `a ≠ b` (transitive closure).
    /// Intended for tests on small graphs (quadratic memory).
    pub fn transitive_closure(&self) -> BTreeSet<(JobId, JobId)> {
        let mut closure = BTreeSet::new();
        for a in self.job_ids() {
            let mut stack: Vec<JobId> = self.succs[a.index()].iter().copied().collect();
            let mut seen = vec![false; self.jobs.len()];
            while let Some(node) = stack.pop() {
                if seen[node.index()] {
                    continue;
                }
                seen[node.index()] = true;
                closure.insert((a, node));
                stack.extend(self.succs[node.index()].iter().copied());
            }
        }
        closure
    }

    /// Total work `Σ C_i`.
    pub fn total_work(&self) -> TimeQ {
        self.jobs.iter().map(|j| j.wcet).sum()
    }

    /// Utilization `Σ C_i / H` — a lower bound on the precedence-aware
    /// load of [`crate::analysis::load`].
    pub fn utilization(&self) -> TimeQ {
        self.total_work() / self.hyperperiod
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| Job {
                process: ProcessId::from_index(i),
                k: 1,
                arrival: TimeQ::ZERO,
                deadline: TimeQ::from_ms(100),
                wcet: TimeQ::from_ms(10),
                is_server: false,
            })
            .collect()
    }

    fn j(i: usize) -> JobId {
        JobId::from_index(i)
    }

    #[test]
    fn edges_and_topology() {
        let mut g = TaskGraph::new(mk_jobs(4), TimeQ::from_ms(100));
        g.add_edge(j(0), j(1));
        g.add_edge(j(1), j(2));
        g.add_edge(j(0), j(3));
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(j(0), j(1)));
        assert!(!g.has_edge(j(1), j(0)));
        let order = g.topological_order().unwrap();
        let pos = |x: JobId| order.iter().position(|&o| o == x).unwrap();
        assert!(pos(j(0)) < pos(j(1)));
        assert!(pos(j(1)) < pos(j(2)));
        assert!(g.is_reachable(j(0), j(2)));
        assert!(!g.is_reachable(j(2), j(0)));
        assert!(g.is_reachable(j(1), j(1)));
    }

    #[test]
    fn degree_accessors_match_iterators() {
        let mut g = TaskGraph::new(mk_jobs(4), TimeQ::from_ms(100));
        g.add_edge(j(0), j(1));
        g.add_edge(j(0), j(2));
        g.add_edge(j(1), j(2));
        for id in g.job_ids() {
            assert_eq!(g.pred_count(id), g.predecessors(id).count());
            assert_eq!(g.succ_count(id), g.successors(id).count());
        }
        assert_eq!(g.pred_counts(), vec![0, 1, 2, 0]);
        assert_eq!(g.succ_counts(), vec![2, 1, 0, 0]);
    }

    #[test]
    fn cycle_detected() {
        let mut g = TaskGraph::new(mk_jobs(2), TimeQ::from_ms(100));
        g.add_edge(j(0), j(1));
        g.add_edge(j(1), j(0));
        assert_eq!(g.topological_order(), None);
    }

    #[test]
    fn transitive_reduction_removes_shortcut() {
        // 0 -> 1 -> 2 plus shortcut 0 -> 2 (the Fig. 3 InputA→NormA case).
        let mut g = TaskGraph::new(mk_jobs(3), TimeQ::from_ms(100));
        g.add_edge(j(0), j(1));
        g.add_edge(j(1), j(2));
        g.add_edge(j(0), j(2));
        let removed = g.transitive_reduction();
        assert_eq!(removed, 1);
        assert!(!g.has_edge(j(0), j(2)));
        assert!(g.is_reachable(j(0), j(2)));
    }

    #[test]
    fn transitive_reduction_preserves_closure() {
        let mut g = TaskGraph::new(mk_jobs(5), TimeQ::from_ms(100));
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (3, 4), (1, 4)] {
            g.add_edge(j(a), j(b));
        }
        let before = g.transitive_closure();
        g.transitive_reduction();
        let after = g.transitive_closure();
        assert_eq!(before, after);
        // 0->3 (via 1 or 2) and 1->4 (via 3) were redundant.
        assert!(!g.has_edge(j(0), j(3)));
        assert!(!g.has_edge(j(1), j(4)));
    }

    #[test]
    fn work_and_utilization() {
        let g = TaskGraph::new(mk_jobs(4), TimeQ::from_ms(100));
        assert_eq!(g.total_work(), TimeQ::from_ms(40));
        assert_eq!(g.utilization(), TimeQ::new(2, 5));
    }

    #[test]
    fn find_by_process_and_k() {
        let g = TaskGraph::new(mk_jobs(3), TimeQ::from_ms(100));
        assert_eq!(g.find(ProcessId::from_index(1), 1), Some(j(1)));
        assert_eq!(g.find(ProcessId::from_index(1), 2), None);
    }
}
