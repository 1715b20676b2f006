//! The bounded, sharded task queue between the event loop and a worker
//! lane: the tune lane's admission queue and the exec lane's FIFO.

use alpha_telemetry::Gauge;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Why [`ShardedTaskQueue::try_push`] refused an item.  The item is handed back so
/// the caller can reply with backpressure (or retry) without cloning it.
#[derive(Debug)]
pub(super) enum PushError<T> {
    /// The queue is at capacity — admission control says reject.
    Full(T),
    /// The queue was closed; no further items will ever be accepted.
    Closed(T),
}

/// A bounded multi-producer / multi-consumer queue of N FIFO shards behind
/// one lock and one global admission bound — the admission primitive a
/// long-lived service puts between its event loop and a worker lane.
///
/// Producers use [`ShardedTaskQueue::try_push`], which **never blocks**: a
/// full queue returns [`PushError::Full`] immediately so the caller can shed
/// load (reply "busy") instead of stacking unbounded work.  Consumers use
/// [`ShardedTaskQueue::pop`], which blocks until an item arrives or the
/// queue is [closed](ShardedTaskQueue::close) and drained — the
/// clean-shutdown signal for a worker pool.  With one shard it is a plain
/// global FIFO (the daemon's SpMV exec lane).
///
/// Shards are about fairness, not lock contention: every push and pop takes
/// the one lock.  Items go to the shard chosen by the caller's hash key (the
/// daemon hashes the submitting tenant, so one tenant's storm lands in one
/// shard), and consumers serve the non-empty shards round-robin — a cheap
/// fairness floor on top of the explicit per-tenant admission credits.
///
/// Capacity is **global**: the admission bound spans all shards (a
/// `queue_capacity = 1` daemon rejects the second concurrent job no matter
/// which shard it hashes to).
pub(super) struct ShardedTaskQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    capacity: usize,
    /// Number of shards, fixed at construction.
    shard_count: usize,
    /// This queue's depth gauge (the daemon's `net_queue_depth{lane}`),
    /// moved under the state lock so it never reads below zero.
    depth: Gauge,
}

struct QueueState<T> {
    /// One FIFO per shard.
    shards: Vec<VecDeque<T>>,
    /// Items queued across all shards.
    len: usize,
    closed: bool,
    /// The shard the next pop looks at first: one past the shard the last
    /// pop served, so consumers take the non-empty shards in turn.
    next_scan: usize,
}

impl<T> ShardedTaskQueue<T> {
    /// A queue of `shards` shards (minimum 1) admitting at most `capacity`
    /// items at a time across all of them (minimum 1), whose depth `depth`
    /// tracks.
    pub(super) fn bounded(capacity: usize, shards: usize, depth: Gauge) -> Self {
        let shard_count = shards.max(1);
        ShardedTaskQueue {
            state: Mutex::new(QueueState {
                shards: (0..shard_count).map(|_| VecDeque::new()).collect(),
                len: 0,
                closed: false,
                next_scan: 0,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            shard_count,
            depth,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state.lock().expect("sharded queue poisoned")
    }

    /// The shard a hash key routes to (Fibonacci multiplicative hash, so
    /// sequential keys spread instead of clustering).
    fn shard_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % self.shard_count
    }

    /// Enqueues `item` on the shard `key` hashes to unless the queue is full
    /// or closed; never blocks.
    pub(super) fn try_push(&self, key: u64, item: T) -> Result<(), PushError<T>> {
        let shard = self.shard_of(key);
        {
            let mut state = self.lock();
            if state.closed {
                return Err(PushError::Closed(item));
            }
            if state.len >= self.capacity {
                return Err(PushError::Full(item));
            }
            state.shards[shard].push_back(item);
            state.len += 1;
            self.depth.add(1);
        }
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues one item, blocking while all shards are empty.  The scan
    /// starts one past the shard the previous pop served, so consumers drain
    /// the non-empty shards round-robin instead of favouring the lowest
    /// index.  Returns `None` once the queue is closed **and** drained.
    pub(super) fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        while state.len == 0 {
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("sharded queue poisoned");
        }
        let shard = (0..self.shard_count)
            .map(|offset| (state.next_scan + offset) % self.shard_count)
            .find(|&shard| !state.shards[shard].is_empty())
            .expect("a queued item sits in some shard");
        state.next_scan = shard + 1;
        state.len -= 1;
        self.depth.sub(1);
        state.shards[shard].pop_front()
    }

    /// Closes the queue: further pushes fail with [`PushError::Closed`], and
    /// every blocked or future [`ShardedTaskQueue::pop`] returns `None` once
    /// the remaining items are drained.
    pub(super) fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Items currently queued across all shards (racy by nature; for stats).
    pub(super) fn len(&self) -> usize {
        self.lock().len
    }

    /// The global admission bound this queue was built with.
    pub(super) fn capacity(&self) -> usize {
        self.capacity
    }
}

impl<T> Drop for ShardedTaskQueue<T> {
    fn drop(&mut self) {
        // Undrained items leave with the queue; keep the gauge honest.
        let remaining = self
            .state
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .len;
        if remaining > 0 {
            self.depth.sub(remaining as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A depth gauge of a registry of its own.
    fn depth() -> Gauge {
        alpha_telemetry::Registry::new().gauge("net_queue_depth", &[])
    }

    #[test]
    fn pop_blocks_until_an_item_or_close_arrives() {
        let queue = ShardedTaskQueue::bounded(1, 1, depth());
        let consumed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    while queue.pop().is_some() {
                        consumed.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            for i in 0..20 {
                // Capacity 1: spin until the workers make room.
                let mut item = i;
                loop {
                    match queue.try_push(0, item) {
                        Ok(()) => break,
                        Err(PushError::Full(back)) => {
                            item = back;
                            std::thread::yield_now();
                        }
                        Err(PushError::Closed(_)) => unreachable!(),
                    }
                }
            }
            queue.close();
        });
        assert_eq!(consumed.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn sharded_queue_enforces_global_capacity_across_shards() {
        let gauge = depth();
        let queue = ShardedTaskQueue::bounded(2, 8, gauge.clone());
        assert_eq!(queue.capacity(), 2);
        assert_eq!(queue.shard_count, 8);
        // Keys chosen to land in different shards; the *global* bound still
        // rejects the third push.
        let (a, b) = (0u64, 1u64);
        assert_ne!(queue.shard_of(a), queue.shard_of(b));
        queue.try_push(a, 10).unwrap();
        queue.try_push(b, 20).unwrap();
        match queue.try_push(a, 30) {
            Err(PushError::Full(30)) => {}
            other => panic!("expected Full(30), got {other:?}"),
        }
        assert_eq!((queue.len(), gauge.get()), (2, 2));
        let mut drained = vec![queue.pop().unwrap(), queue.pop().unwrap()];
        drained.sort_unstable();
        assert_eq!(drained, vec![10, 20]);
        assert_eq!((queue.len(), gauge.get()), (0, 0));
    }

    #[test]
    fn sharded_queue_is_fifo_within_a_shard() {
        let queue = ShardedTaskQueue::bounded(16, 4, depth());
        for i in 0..8 {
            queue.try_push(7, i).unwrap(); // same key → same shard
        }
        for i in 0..8 {
            assert_eq!(queue.pop(), Some(i), "per-shard order must be FIFO");
        }
    }

    #[test]
    fn pops_rotate_across_shards() {
        // One consumer, one storming key and one quiet key in two of eight
        // shards: pops alternate between the shards while both hold items,
        // however unevenly they were filled — the per-tenant fairness floor
        // of the daemon's admission queue.
        let queue = ShardedTaskQueue::bounded(16, 8, depth());
        let (storm, quiet) = (1u64, 0u64);
        assert_ne!(queue.shard_of(storm), queue.shard_of(quiet));
        for i in 0..6 {
            queue.try_push(storm, 100 + i).unwrap();
        }
        for i in 0..2 {
            queue.try_push(quiet, i).unwrap();
        }
        let popped: Vec<u32> = (0..8).map(|_| queue.pop().unwrap()).collect();
        let from_storm: Vec<bool> = popped.iter().map(|&item| item >= 100).collect();
        assert!(
            from_storm[..4].windows(2).all(|pair| pair[0] != pair[1]),
            "pops must alternate between shards while both hold items: {popped:?}"
        );
        let (storm_items, quiet_items): (Vec<u32>, Vec<u32>) =
            popped.iter().partition(|&&item| item >= 100);
        assert_eq!(
            storm_items,
            (100..106).collect::<Vec<_>>(),
            "FIFO per shard"
        );
        assert_eq!(quiet_items, [0, 1], "FIFO per shard");
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn sharded_queue_close_drains_then_signals_exit() {
        let queue = ShardedTaskQueue::bounded(4, 2, depth());
        queue.try_push(0, 10).unwrap();
        queue.try_push(1, 11).unwrap();
        queue.close();
        match queue.try_push(2, 12) {
            Err(PushError::Closed(12)) => {}
            other => panic!("expected Closed(12), got {other:?}"),
        }
        let mut drained = vec![queue.pop().unwrap(), queue.pop().unwrap()];
        drained.sort_unstable();
        assert_eq!(drained, vec![10, 11], "closing must not drop queued work");
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.pop(), None, "pop after close stays None");
    }

    #[test]
    fn sharded_queue_single_shard_degenerates_to_task_queue() {
        let queue = ShardedTaskQueue::bounded(3, 1, depth());
        for (key, item) in [(3u64, 1), (99, 2), (12345, 3)] {
            assert_eq!(queue.shard_of(key), 0);
            queue.try_push(key, item).unwrap();
        }
        match queue.try_push(7, 4) {
            Err(PushError::Full(4)) => {}
            other => panic!("expected Full(4), got {other:?}"),
        }
        // One shard → global FIFO regardless of key, and a popped item frees
        // its slot.
        assert_eq!(queue.pop(), Some(1));
        queue.try_push(7, 4).unwrap();
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), Some(3));
        assert_eq!(queue.pop(), Some(4));
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn sharded_queue_survives_concurrent_producers_and_consumers() {
        let queue = ShardedTaskQueue::bounded(4, 8, depth());
        let consumed = AtomicUsize::new(0);
        let sum = AtomicUsize::new(0);
        let queue = &queue;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while let Some(item) = queue.pop() {
                        consumed.fetch_add(1, Ordering::SeqCst);
                        sum.fetch_add(item, Ordering::SeqCst);
                    }
                });
            }
            let producers: Vec<_> = (0..4u64)
                .map(|producer| {
                    scope.spawn(move || {
                        for i in 0..50usize {
                            let mut item = i;
                            loop {
                                match queue.try_push(producer.wrapping_mul(31) + i as u64, item) {
                                    Ok(()) => break,
                                    Err(PushError::Full(back)) => {
                                        item = back;
                                        std::thread::yield_now();
                                    }
                                    Err(PushError::Closed(_)) => unreachable!(),
                                }
                            }
                        }
                    })
                })
                .collect();
            for handle in producers {
                handle.join().unwrap();
            }
            // Close only after every producer finished, so the blocked
            // consumers drain the remainder and exit; the scope then joins
            // them without deadlocking.
            queue.close();
        });
        assert_eq!(consumed.load(Ordering::SeqCst), 200);
        assert_eq!(sum.load(Ordering::SeqCst), 4 * (0..50).sum::<usize>());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let queue = ShardedTaskQueue::bounded(0, 0, depth());
        assert_eq!((queue.capacity(), queue.shard_count), (1, 1));
        queue.try_push(0, 1).unwrap();
        assert!(matches!(queue.try_push(0, 2), Err(PushError::Full(2))));
    }
}
