//! A bounded MPMC queue with admission control.
//!
//! Every worker shard owns one of these.  The bound is the backpressure
//! mechanism: when producers outrun the worker, [`BoundedQueue::try_push`]
//! refuses instead of growing without limit, which is what keeps an
//! overloaded server's memory flat.  Replay-style clients that must not
//! lose requests use [`BoundedQueue::push_wait`] and block until a slot
//! frees up.
//!
//! Wake only parked threads, and only when what they wait for appears: the
//! queue counts the consumers and producers parked on each condvar under
//! its mutex, and signals only when a push finds the queue empty (a
//! consumer parks only on an empty queue) or a drain finds it full (a
//! producer parks only on a full one).  A `std` condvar signal is a
//! `futex` syscall even with no waiter; signalling every push while a
//! woken worker is still counted as parked would cost the producer one
//! syscall per push until the worker retakes the lock.  A drain that
//! leaves items queued passes the signal on to another parked consumer.
//! A thread counts itself in before it waits and out after it wakes, both
//! under the mutex, so a signaller that sees zero cannot miss a waiter.
//! [`BoundedQueue::close`] still wakes everyone.
//!
//! A marker ([`BoundedQueue::push_marker_all`]) keeps its place in the
//! FIFO but bypasses the bound: it is never refused for capacity, never
//! counted in [`BoundedQueue::len`] or toward a drain's `max`, and never
//! shed.  The serve pool queues a published snapshot generation this way,
//! so a publish never waits behind a full queue and never takes a
//! request's slot.  It queues the marker on every shard queue at once:
//! every queue is locked before any marker is pushed, so no producer can
//! queue behind the marker on one shard and ahead of it on another.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Why a `try_push` was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back.
    Full(T),
    /// The queue was closed; no more work is accepted.
    Closed(T),
}

#[derive(Debug)]
struct Inner<T> {
    /// Each queued item, and whether it counts toward the bound (a
    /// marker does not).
    items: VecDeque<(T, bool)>,
    /// Queued items that count toward the bound.
    bounded: usize,
    closed: bool,
    /// Consumers parked on `not_empty`.
    parked_consumers: usize,
    /// Producers parked on `not_full`.
    parked_producers: usize,
}

/// Bounded multi-producer / multi-consumer FIFO.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` (≥ 1) queued items.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                bounded: 0,
                closed: false,
                parked_consumers: 0,
                parked_producers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue under the lock, then wake one parked consumer if the queue
    /// was empty.  A push into a non-empty queue wakes nobody: every
    /// consumer parked since the queue was last empty was signalled by the
    /// push that filled it, and the one it woke passes the signal on.
    fn push_locked(&self, mut inner: MutexGuard<'_, Inner<T>>, item: T, bounded: bool) {
        let was_empty = inner.items.is_empty();
        inner.items.push_back((item, bounded));
        inner.bounded += usize::from(bounded);
        let wake = was_empty && inner.parked_consumers > 0;
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Admission-controlled push: enqueue or refuse immediately.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.bounded >= self.capacity {
            return Err(PushError::Full(item));
        }
        self.push_locked(inner, item, true);
        Ok(())
    }

    /// Enqueue one marker, made by `make`, behind everything already
    /// queued in each of `queues`, past the bound: never refused for
    /// capacity, never counted in [`Self::len`] or toward a drain's `max`,
    /// never shed.  A closed queue gets none.
    ///
    /// Every queue is locked, in slice order, before the first marker is
    /// pushed, so an item pushed behind the marker in one queue is pushed
    /// behind it in every other.  Calls must not overlap (the serve pool's
    /// publishes are serialized by its snapshot store) and no other path
    /// holds two queue locks, so the lock order cannot deadlock.
    pub fn push_marker_all(queues: &[Self], mut make: impl FnMut() -> T) {
        let locked: Vec<_> = queues.iter().map(|q| (q, q.lock())).collect();
        for (q, inner) in locked {
            if !inner.closed {
                q.push_locked(inner, make(), false);
            }
        }
    }

    /// Lossless push: block while the queue is full.  Returns the item
    /// back only when the queue has been closed.
    pub fn push_wait(&self, item: T) -> Result<(), T> {
        let mut inner = self.lock();
        loop {
            if inner.closed {
                return Err(item);
            }
            if inner.bounded < self.capacity {
                self.push_locked(inner, item, true);
                return Ok(());
            }
            inner.parked_producers += 1;
            inner = self.not_full.wait(inner).unwrap_or_else(PoisonError::into_inner);
            inner.parked_producers -= 1;
        }
    }

    /// Move up to `max` bounded items into `out` in FIFO order, with every
    /// marker queued ahead of the last of them, blocking while the queue
    /// is empty and open; returns how many bounded items moved.  The
    /// consumer owns `out`, so a drain allocates nothing once it has
    /// grown.  Nothing moved means the queue was closed and has been fully
    /// drained — the consumer should exit.
    ///
    /// `max == 0` is a degenerate poll: it returns **immediately, without
    /// blocking, moving nothing and without consulting the closed flag** —
    /// so a zero-`max` empty drain carries *no* shutdown meaning.  Only a
    /// `max ≥ 1` call can observe the closed+drained condition.
    /// (Consumers that spin on `pop_batch(0, ..)` would busy-loop; the
    /// serve config validates `batch ≥ 1` so its workers never can.)
    pub fn pop_batch(&self, max: usize, out: &mut Vec<T>) -> usize {
        if max == 0 {
            return 0;
        }
        let mut inner = self.lock();
        loop {
            if !inner.items.is_empty() {
                let was_full = inner.bounded >= self.capacity;
                let mut moved = 0;
                while moved < max {
                    let Some((item, bounded)) = inner.items.pop_front() else { break };
                    moved += usize::from(bounded);
                    out.push(item);
                }
                inner.bounded -= moved;
                let wake_producers = was_full && moved > 0 && inner.parked_producers > 0;
                let wake_consumer = !inner.items.is_empty() && inner.parked_consumers > 0;
                drop(inner);
                if wake_producers {
                    // Batch draining may have freed several slots.
                    self.not_full.notify_all();
                }
                if wake_consumer {
                    self.not_empty.notify_one();
                }
                return moved;
            }
            if inner.closed {
                return 0;
            }
            inner.parked_consumers += 1;
            inner = self.not_empty.wait(inner).unwrap_or_else(PoisonError::into_inner);
            inner.parked_consumers -= 1;
        }
    }

    /// Close the queue: producers are refused from now on, consumers drain
    /// the remainder and then see the closed state.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Items currently queued toward the bound (markers excluded).
    pub fn len(&self) -> usize {
        self.lock().bounded
    }

    /// True when no item is queued toward the bound.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Run `f` on its own thread and fail the test, instead of hanging it,
/// if it has not finished within 30 s: a lost wakeup parks a thread
/// forever.
#[cfg(test)]
pub(crate) fn watchdog<R: Send + 'static>(case: &str, f: impl FnOnce() -> R + Send + 'static) -> R {
    use std::sync::mpsc::RecvTimeoutError;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(30)) {
        Ok(r) => r,
        Err(RecvTimeoutError::Timeout) => panic!("{case}: no progress in 30 s (lost wakeup?)"),
        Err(RecvTimeoutError::Disconnected) => panic!("{case}: the case panicked"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// One drain into a fresh buffer.
    fn pop<T>(q: &BoundedQueue<T>, max: usize) -> Vec<T> {
        let mut out = Vec::new();
        q.pop_batch(max, &mut out);
        out
    }

    #[test]
    fn fifo_order_and_batch_drain() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        assert_eq!(pop(&q, 3), vec![0, 1, 2]);
        assert_eq!(pop(&q, 10), vec![3, 4]);
    }

    #[test]
    fn full_queue_refuses_and_hands_the_item_back() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.try_push(4), Err(PushError::Full(4)));
        assert_eq!(q.len(), 2, "refused items never entered the queue");
    }

    #[test]
    fn closed_queue_refuses_producers_and_drains_consumers() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(PushError::Closed(8)));
        assert_eq!(q.push_wait(9), Err(9));
        assert_eq!(pop(&q, 4), vec![7], "remainder drains after close");
        assert!(pop(&q, 4).is_empty(), "then consumers see the closed state");
    }

    /// Push one marker `tag` into `q` alone.
    fn marker(q: &BoundedQueue<i32>, tag: i32) {
        BoundedQueue::push_marker_all(std::slice::from_ref(q), || tag);
    }

    #[test]
    fn markers_bypass_the_bound_and_keep_their_place() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        // A full queue still takes a marker: not refused, not counted
        // toward the bound.
        marker(&q, -1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        // Markers do not count toward `max`: a drain of two moves both
        // bounded items and stops there, leaving the marker at the front.
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(2, &mut out), 2);
        assert_eq!(out, vec![1, 2]);
        // With the marker queued, the queue still admits exactly its bound.
        q.try_push(4).unwrap();
        q.try_push(5).unwrap();
        assert_eq!(q.try_push(6), Err(PushError::Full(6)));
        // The marker comes out ahead of what was queued behind it.
        out.clear();
        assert_eq!(q.pop_batch(1, &mut out), 1);
        assert_eq!(out, vec![-1, 4]);
        // A marker behind the drain's last bounded item waits for the
        // next drain, which moves no bounded item yet is not the closed
        // signal.  A closed queue drops markers.
        marker(&q, -2);
        out.clear();
        assert_eq!(q.pop_batch(1, &mut out), 1);
        assert_eq!(out, vec![5]);
        out.clear();
        assert_eq!(q.pop_batch(4, &mut out), 0);
        assert_eq!(out, vec![-2]);
        q.close();
        marker(&q, -3);
        out.clear();
        assert_eq!(q.pop_batch(4, &mut out), 0);
        assert!(out.is_empty(), "closed and drained");
    }

    #[test]
    fn one_marker_lands_behind_the_items_of_every_open_queue() {
        let queues: Vec<BoundedQueue<i32>> = (0..3).map(|_| BoundedQueue::new(1)).collect();
        queues[0].try_push(1).unwrap();
        queues[2].close();
        let mut made = 0;
        BoundedQueue::push_marker_all(&queues, || {
            made += 1;
            -made
        });
        assert_eq!(made, 2, "a closed queue gets no marker");
        assert_eq!(pop(&queues[0], 4), vec![1, -1]);
        assert_eq!(pop(&queues[1], 4), vec![-2]);
        assert!(pop(&queues[2], 4).is_empty());
    }

    #[test]
    fn pop_batch_zero_returns_immediately_and_means_nothing() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        // Non-blocking, consumes nothing — even with items queued.
        assert!(pop(&q, 0).is_empty());
        assert_eq!(q.len(), 1, "a zero-max poll must not consume");
        // And it does NOT signal closed+drained: the queue is still open
        // and a real drain still sees the item.
        assert_eq!(pop(&q, 1), vec![1]);
        // On a closed queue it is still just an empty poll (same shape as
        // the drained signal, which is why consumers must use max >= 1).
        q.close();
        assert!(pop(&q, 0).is_empty());
    }

    #[test]
    fn push_wait_blocks_until_a_slot_frees() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(0u64).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_wait(1).is_ok())
        };
        // The producer is blocked on a full queue; draining unblocks it.
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(pop(&q, 1), vec![0]);
        assert!(producer.join().unwrap());
        assert_eq!(pop(&q, 1), vec![1]);
    }

    #[test]
    fn pop_batch_blocks_until_work_arrives() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || pop(&q, 4))
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.try_push(42).unwrap();
        assert_eq!(consumer.join().unwrap(), vec![42]);
    }

    #[test]
    fn mpmc_stress_through_a_depth_2_queue_delivers_every_item_once() {
        // Three lossless producers and three batch consumers share two
        // slots, so both sides park and wake constantly.
        const PRODUCERS: u64 = 3;
        const PER_PRODUCER: u64 = 5_000;
        let (mut got, q) = watchdog("mpmc stress", || {
            let q = Arc::new(BoundedQueue::new(2));
            let consumers: Vec<_> = (0..3)
                .map(|c| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        let mut got = Vec::new();
                        loop {
                            let batch = pop(&q, 1 + c);
                            if batch.is_empty() {
                                return got;
                            }
                            got.extend(batch);
                        }
                    })
                })
                .collect();
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        for i in 0..PER_PRODUCER {
                            q.push_wait(p * PER_PRODUCER + i).unwrap();
                        }
                    })
                })
                .collect();
            producers.into_iter().for_each(|h| h.join().unwrap());
            q.close();
            let got: Vec<u64> = consumers.into_iter().flat_map(|h| h.join().unwrap()).collect();
            (got, q)
        });
        got.sort_unstable();
        assert_eq!(got, (0..PRODUCERS * PER_PRODUCER).collect::<Vec<_>>());
        let inner = q.lock();
        assert_eq!((inner.parked_consumers, inner.parked_producers), (0, 0));
    }

    #[test]
    fn a_drain_that_leaves_items_wakes_another_parked_consumer() {
        // Two items land while two one-item consumers are parked, under one
        // signal — as when a second push arrives before the consumer the
        // first push woke has taken the lock.  The woken consumer must pass
        // the signal on, or the other one parks forever beside an item.
        let mut got = watchdog("drain passes the wake on", || {
            let q = Arc::new(BoundedQueue::<u32>::new(4));
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || pop(&q, 1))
                })
                .collect();
            while q.lock().parked_consumers < 2 {
                std::thread::yield_now();
            }
            let mut inner = q.lock();
            inner.items.extend([(1, true), (2, true)]);
            inner.bounded += 2;
            drop(inner);
            q.not_empty.notify_one();
            consumers.into_iter().flat_map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn close_wakes_parked_consumers_and_producers() {
        watchdog("close wakes", || {
            let empty = Arc::new(BoundedQueue::<u32>::new(1));
            let full = Arc::new(BoundedQueue::new(1));
            full.try_push(0u32).unwrap();
            let consumer = {
                let q = Arc::clone(&empty);
                std::thread::spawn(move || pop(&q, 4))
            };
            let producer = {
                let q = Arc::clone(&full);
                std::thread::spawn(move || q.push_wait(1))
            };
            while empty.lock().parked_consumers == 0 || full.lock().parked_producers == 0 {
                std::thread::yield_now();
            }
            empty.close();
            full.close();
            assert!(consumer.join().unwrap().is_empty(), "closed and drained");
            assert_eq!(producer.join().unwrap(), Err(1), "closed: the item comes back");
        });
    }
}
