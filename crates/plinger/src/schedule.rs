//! Work-dispatch order for the master.
//!
//! The paper: "Since larger wavenumbers require greater computation, one
//! simple method by which we minimized this idle time was to compute the
//! largest k first."  Largest-first is therefore the default; the other
//! policies exist for the scheduling ablation (`abl_sched` in
//! DESIGN.md), which quantifies how much that one-line choice buys.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Dispatch-order policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Largest wavenumber first — the paper's choice.
    LargestFirst,
    /// Smallest wavenumber first (pessimal: the longest job lands last).
    SmallestFirst,
    /// Grid order as given.
    Fifo,
    /// Uniformly random permutation with a fixed seed.
    Random(u64),
}

impl SchedulePolicy {
    /// Indices of `ks` in dispatch order.
    pub fn order(&self, ks: &[f64]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..ks.len()).collect();
        match self {
            SchedulePolicy::LargestFirst => {
                idx.sort_by(|&a, &b| ks[b].total_cmp(&ks[a]));
            }
            SchedulePolicy::SmallestFirst => {
                idx.sort_by(|&a, &b| ks[a].total_cmp(&ks[b]));
            }
            SchedulePolicy::Fifo => {}
            SchedulePolicy::Random(seed) => {
                let mut rng = StdRng::seed_from_u64(*seed);
                idx.shuffle(&mut rng);
            }
        }
        idx
    }
}

/// The master's pending-work queue: the dispatch order plus a per-mode
/// attempt counter, so requeued modes can be retried and budgeted.
///
/// Modes leave through [`Self::pop`] (incrementing their attempt
/// count) and come back through [`Self::requeue_front`] when the worker
/// holding them is lost — to the *front*, so a recovered mode is
/// retried before untouched work, preserving the largest-first rationale
/// (the requeued mode is the one most likely to be long).
#[derive(Debug, Clone)]
pub struct WorkQueue {
    pending: std::collections::VecDeque<usize>,
    attempts: Vec<usize>,
}

impl WorkQueue {
    /// Build from a dispatch order over `nk` modes (as produced by
    /// [`SchedulePolicy::order`]).
    pub fn new(order: &[usize], nk: usize) -> Self {
        Self {
            pending: order.iter().copied().collect(),
            attempts: vec![0; nk],
        }
    }

    /// Pop the next mode to dispatch, counting the attempt.
    pub fn pop(&mut self) -> Option<usize> {
        let ik = self.pending.pop_front()?;
        if let Some(a) = self.attempts.get_mut(ik) {
            *a += 1;
        }
        Some(ik)
    }

    /// Return a lost mode to the head of the queue.
    pub fn requeue_front(&mut self, ik: usize) {
        self.pending.push_front(ik);
    }

    /// How many times `ik` has been handed out so far.
    pub fn attempts(&self, ik: usize) -> usize {
        self.attempts.get(ik).copied().unwrap_or(0)
    }

    /// Modes still waiting for dispatch.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no modes wait for dispatch.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KS: [f64; 5] = [0.01, 0.5, 0.05, 0.2, 0.001];

    #[test]
    fn largest_first_sorts_descending() {
        let order = SchedulePolicy::LargestFirst.order(&KS);
        assert_eq!(order, vec![1, 3, 2, 0, 4]);
    }

    #[test]
    fn smallest_first_sorts_ascending() {
        let order = SchedulePolicy::SmallestFirst.order(&KS);
        assert_eq!(order, vec![4, 0, 2, 3, 1]);
    }

    #[test]
    fn fifo_keeps_grid_order() {
        let order = SchedulePolicy::Fifo.order(&KS);
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn work_queue_counts_attempts_and_requeues_to_front() {
        let order = SchedulePolicy::LargestFirst.order(&KS);
        let mut q = WorkQueue::new(&order, KS.len());
        assert_eq!(q.len(), 5);
        assert!(!q.is_empty());
        let first = q.pop().unwrap();
        assert_eq!(first, 1); // largest k
        assert_eq!(q.attempts(1), 1);
        assert_eq!(q.attempts(3), 0);
        // worker died holding ik=1: requeue; it must come back first
        q.requeue_front(1);
        assert_eq!(q.pop().unwrap(), 1);
        assert_eq!(q.attempts(1), 2);
        // drain the rest
        let rest: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(rest, vec![3, 2, 0, 4]);
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn random_is_a_seeded_permutation() {
        let o1 = SchedulePolicy::Random(42).order(&KS);
        let o2 = SchedulePolicy::Random(42).order(&KS);
        assert_eq!(o1, o2, "same seed must reproduce");
        let mut sorted = o1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        let o3 = SchedulePolicy::Random(43).order(&KS);
        assert!(o1 != o3 || KS.len() < 3, "different seeds should differ");
    }
}
