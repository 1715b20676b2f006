//! The bounded task queue between the event loop and a worker lane: the
//! tune lane's admission queue and the exec lane's FIFO.

use alpha_telemetry::Gauge;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Why [`TaskQueue::try_push`] refused an item.  The item is handed back so
/// the caller can reply with backpressure (or retry) without cloning it.
#[derive(Debug)]
pub(super) enum PushError<T> {
    /// The queue is at capacity — admission control says reject.
    Full(T),
    /// The queue was closed; no further items will ever be accepted.
    Closed(T),
}

/// A bounded multi-producer / multi-consumer FIFO behind one lock — the
/// admission primitive a long-lived service puts between its event loop
/// and a worker lane.
///
/// Producers use [`TaskQueue::try_push`], which **never blocks**: a full
/// queue returns [`PushError::Full`] immediately so the caller can shed
/// load (reply "busy") instead of stacking unbounded work.  Consumers use
/// [`TaskQueue::pop`], which blocks until an item arrives or the queue is
/// [closed](TaskQueue::close) and drained — the clean-shutdown signal for a
/// worker pool.
pub(super) struct TaskQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    capacity: usize,
    /// This queue's depth gauge (the daemon's `net_queue_depth{lane}`),
    /// moved under the state lock so it never reads below zero.
    depth: Gauge,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> TaskQueue<T> {
    /// A queue admitting at most `capacity` items at a time (minimum 1),
    /// whose depth `depth` tracks.
    pub(super) fn bounded(capacity: usize, depth: Gauge) -> Self {
        TaskQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            depth,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        self.state.lock().expect("task queue poisoned")
    }

    /// Enqueues `item` unless the queue is full or closed; never blocks.
    pub(super) fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        {
            let mut state = self.lock();
            if state.closed {
                return Err(PushError::Closed(item));
            }
            if state.items.len() >= self.capacity {
                return Err(PushError::Full(item));
            }
            state.items.push_back(item);
            self.depth.add(1);
        }
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty.  Returns
    /// `None` once the queue is closed **and** drained.
    pub(super) fn pop(&self) -> Option<T> {
        let mut state = self.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                self.depth.sub(1);
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("task queue poisoned");
        }
    }

    /// Closes the queue: further pushes fail with [`PushError::Closed`], and
    /// every blocked or future [`TaskQueue::pop`] returns `None` once the
    /// remaining items are drained.
    pub(super) fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Items currently queued (racy by nature; for stats).
    pub(super) fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// The admission bound this queue was built with.
    pub(super) fn capacity(&self) -> usize {
        self.capacity
    }
}

impl<T> Drop for TaskQueue<T> {
    fn drop(&mut self) {
        // Undrained items leave with the queue; keep the gauge honest.
        let remaining = self
            .state
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .items
            .len();
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

    /// Pushes `item`, spinning while the queue is full.
    fn push_spinning(queue: &TaskQueue<usize>, mut item: usize) {
        loop {
            match queue.try_push(item) {
                Ok(()) => return,
                Err(PushError::Full(back)) => {
                    item = back;
                    std::thread::yield_now();
                }
                Err(PushError::Closed(_)) => unreachable!(),
            }
        }
    }

    #[test]
    fn pop_blocks_until_an_item_or_close_arrives() {
        let queue = TaskQueue::bounded(1, depth());
        let consumed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    while queue.pop().is_some() {
                        consumed.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            // Capacity 1: each push waits for the workers to make room.
            for i in 0..20 {
                push_spinning(&queue, i);
            }
            queue.close();
        });
        assert_eq!(consumed.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn sharded_queue_enforces_global_capacity_across_shards() {
        // One bound over every producer: the third push is refused and
        // handed back, and the depth gauge follows the queue.
        let gauge = depth();
        let queue = TaskQueue::bounded(2, gauge.clone());
        assert_eq!(queue.capacity(), 2);
        queue.try_push(10).unwrap();
        queue.try_push(20).unwrap();
        match queue.try_push(30) {
            Err(PushError::Full(30)) => {}
            other => panic!("expected Full(30), got {other:?}"),
        }
        assert_eq!((queue.len(), gauge.get()), (2, 2));
        assert_eq!([queue.pop(), queue.pop()], [Some(10), Some(20)]);
        assert_eq!((queue.len(), gauge.get()), (0, 0));
    }

    #[test]
    fn sharded_queue_is_fifo_within_a_shard() {
        let queue = TaskQueue::bounded(16, depth());
        for i in 0..8 {
            queue.try_push(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(queue.pop(), Some(i), "the queue must be FIFO");
        }
    }

    #[test]
    fn sharded_queue_close_drains_then_signals_exit() {
        let queue = TaskQueue::bounded(4, depth());
        queue.try_push(10).unwrap();
        queue.try_push(11).unwrap();
        queue.close();
        match queue.try_push(12) {
            Err(PushError::Closed(12)) => {}
            other => panic!("expected Closed(12), got {other:?}"),
        }
        let drained = [queue.pop(), queue.pop()];
        assert_eq!(
            drained,
            [Some(10), Some(11)],
            "closing must not drop queued work"
        );
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.pop(), None, "pop after close stays None");
    }

    #[test]
    fn sharded_queue_single_shard_degenerates_to_task_queue() {
        // A popped item frees its slot at once.
        let queue = TaskQueue::bounded(3, depth());
        for item in 1..=3 {
            queue.try_push(item).unwrap();
        }
        assert!(matches!(queue.try_push(4), Err(PushError::Full(4))));
        assert_eq!(queue.pop(), Some(1));
        queue.try_push(4).unwrap();
        for item in 2..=4 {
            assert_eq!(queue.pop(), Some(item));
        }
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn sharded_queue_survives_concurrent_producers_and_consumers() {
        let queue = TaskQueue::bounded(4, depth());
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
            let producers: Vec<_> = (0..4)
                .map(|_| scope.spawn(move || (0..50).for_each(|i| push_spinning(queue, i))))
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
        let queue = TaskQueue::bounded(0, depth());
        assert_eq!(queue.capacity(), 1);
        queue.try_push(1).unwrap();
        assert!(matches!(queue.try_push(2), Err(PushError::Full(2))));
    }
}
