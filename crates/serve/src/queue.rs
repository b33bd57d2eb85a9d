//! A bounded MPMC work queue with both admission styles the service
//! offers: `try_push` (shed on overflow — the admission-control path)
//! and `push_wait` (block on overflow — the backpressure path).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Why a push did not enqueue.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue was at capacity (`try_push` only); the item returns
    /// to the caller.
    Full(T),
    /// The queue was closed; the item returns to the caller.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Mutex + condvar bounded queue. `pop` blocks until an item arrives
/// or the queue is closed *and* drained, so workers finish in-flight
/// work before exiting.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// An open queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues without blocking; [`PushError::Full`] at capacity.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues, blocking while the queue is full; [`PushError::Closed`]
    /// if it closes while waiting.
    pub fn push_wait(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.lock();
        while inner.items.len() >= self.capacity && !inner.closed {
            inner = self.not_full.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues, blocking while the queue is open and empty. `None`
    /// once the queue is closed and fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: pushes fail from now on, pops drain what is
    /// left and then return `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_push_sheds_at_capacity() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        match q.try_push(3) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        match q.try_push(3) {
            Err(PushError::Closed(3)) => {}
            other => panic!("expected Closed(3), got {other:?}"),
        }
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_wait_blocks_until_space() {
        let q = Arc::new(BoundedQueue::new(1));
        q.try_push(10).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push_wait(11).is_ok());
        // The consumer frees the slot; the blocked push completes.
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(q.pop(), Some(10));
        assert!(pusher.join().unwrap());
        assert_eq!(q.pop(), Some(11));
    }
}
