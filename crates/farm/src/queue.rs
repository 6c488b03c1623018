//! Bounded, sharded work-stealing job queues.
//!
//! One shard per worker. Admission hashes jobs across shards; each
//! worker drains its own shard from the back (LIFO — the freshest job is
//! the one whose tenant most recently showed demand) and, when empty,
//! steals from the *front* of its neighbours (FIFO — the oldest waiting
//! job, bounding starvation). Total occupancy is capped: a push against
//! a full queue fails and surfaces as admission backpressure rather than
//! unbounded buffering.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::tenant::Job;

#[derive(Debug)]
pub(crate) struct WorkQueues {
    shards: Vec<Mutex<VecDeque<Job>>>,
    /// Total jobs across all shards (kept outside the shard locks so
    /// admission and the scheduler read depth without sweeping).
    len: AtomicUsize,
    capacity: usize,
    steals: AtomicU64,
}

impl WorkQueues {
    pub(crate) fn new(shards: usize, capacity: usize) -> WorkQueues {
        assert!(shards > 0, "at least one shard");
        assert!(capacity > 0, "zero capacity would refuse every job");
        WorkQueues {
            shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            len: AtomicUsize::new(0),
            capacity,
            steals: AtomicU64::new(0),
        }
    }

    /// Total queued jobs.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Jobs popped from a shard other than the popping worker's own.
    pub(crate) fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Enqueues a job on its home shard, or returns it when the pool is
    /// at capacity (backpressure). `admitted` runs once the job has its
    /// slot and before any worker can pop it, so whatever it records
    /// (the job's trace begin) precedes everything a worker does with
    /// the job; a refused job never reaches it.
    pub(crate) fn try_push(&self, job: Job, admitted: impl FnOnce(&Job)) -> Result<(), Job> {
        // Optimistically reserve a slot; undo on the (racy but
        // conservative) full case. Occupancy may transiently read one
        // high, never over-admit.
        if self.len.fetch_add(1, Ordering::Relaxed) >= self.capacity {
            self.len.fetch_sub(1, Ordering::Relaxed);
            return Err(job);
        }
        admitted(&job);
        let shard = (job.id as usize) % self.shards.len();
        self.shards[shard]
            .lock()
            .expect("queue shard poisoned")
            .push_back(job);
        Ok(())
    }

    /// Pops a job for `worker`: own shard back first, then steals the
    /// front of the other shards. The flag reports whether the job was
    /// stolen from another worker's shard (telemetry attribution).
    pub(crate) fn pop(&self, worker: usize) -> Option<(Job, bool)> {
        let n = self.shards.len();
        let own = worker % n;
        if let Some(job) = self.shards[own]
            .lock()
            .expect("queue shard poisoned")
            .pop_back()
        {
            self.len.fetch_sub(1, Ordering::Relaxed);
            return Some((job, false));
        }
        for off in 1..n {
            let victim = (own + off) % n;
            if let Some(job) = self.shards[victim]
                .lock()
                .expect("queue shard poisoned")
                .pop_front()
            {
                self.len.fetch_sub(1, Ordering::Relaxed);
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some((job, true));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{JobSpec, TenantId};
    use ifc_lattice::Label;

    fn job(id: u64) -> Job {
        Job {
            id,
            tenant: TenantId(0),
            spec: JobSpec {
                key_slot: 0,
                blocks: 1,
                seed: id,
                decrypt: false,
                user: Label::PUBLIC_TRUSTED,
            },
        }
    }

    #[test]
    fn backpressure_at_capacity() {
        let q = WorkQueues::new(2, 3);
        for id in 0..3 {
            assert!(q.try_push(job(id), |_| {}).is_ok());
        }
        assert!(
            q.try_push(job(3), |_| {}).is_err(),
            "fourth push must bounce"
        );
        assert_eq!(q.len(), 3);
        assert!(q.pop(0).is_some());
        assert!(
            q.try_push(job(4), |_| {}).is_ok(),
            "freed slot accepts again"
        );
    }

    #[test]
    fn pop_reports_steals() {
        let q = WorkQueues::new(2, 8);
        q.try_push(job(0), |_| {}).unwrap(); // shard 0
        let (own, stolen) = q.pop(0).unwrap();
        assert_eq!(own.id, 0);
        assert!(!stolen, "own-shard pop is not a steal");
        q.try_push(job(2), |_| {}).unwrap(); // shard 0 again
        let (theft, stolen) = q.pop(1).unwrap();
        assert_eq!(theft.id, 2);
        assert!(stolen, "cross-shard pop is a steal");
    }

    #[test]
    fn steal_crosses_shards_and_counts() {
        let q = WorkQueues::new(2, 8);
        // Even ids land on shard 0; worker 1's own shard stays empty.
        for id in [0, 2, 4] {
            q.try_push(job(id), |_| {}).unwrap();
        }
        assert_eq!(q.steals(), 0);
        let (stolen, _) = q.pop(1).expect("steals from shard 0");
        assert_eq!(stolen.id, 0, "steal takes the oldest (front)");
        assert_eq!(q.steals(), 1);
        let (own, _) = q.pop(0).expect("own shard pops back");
        assert_eq!(own.id, 4, "own pop takes the freshest (back)");
        assert_eq!(q.steals(), 1, "own pop is not a steal");
    }

    #[test]
    fn drains_to_empty() {
        let q = WorkQueues::new(3, 16);
        for id in 0..10 {
            q.try_push(job(id), |_| {}).unwrap();
        }
        let mut seen = 0;
        while q.pop(seen % 3).is_some() {
            seen += 1;
        }
        assert_eq!(seen, 10);
        assert_eq!(q.len(), 0);
    }
}
