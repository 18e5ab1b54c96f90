//! Bounded FIFO queues: FTQ, Alt-FTQ, decode and dispatch buffers all share
//! this shape.

use sim_isa::{State, StateReader, StateWriter};
use std::collections::VecDeque;

/// A bounded FIFO. Pushing into a full queue is rejected (backpressure),
/// which is exactly how the paper's frontend queues throttle upstream
/// stages.
#[derive(Clone, Debug)]
pub struct BoundedQueue<T> {
    q: VecDeque<T>,
    cap: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates an empty queue with room for `cap` items.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be nonzero");
        BoundedQueue {
            q: VecDeque::with_capacity(cap),
            cap,
        }
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// `true` if no more items fit.
    pub fn is_full(&self) -> bool {
        self.q.len() >= self.cap
    }

    /// Free slots.
    pub fn free(&self) -> usize {
        self.cap - self.q.len()
    }

    /// Pushes an item; returns it back if the queue is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.is_full() {
            Err(item)
        } else {
            self.q.push_back(item);
            Ok(())
        }
    }

    /// Pops the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.q.pop_front()
    }

    /// The oldest item, if any.
    pub fn front(&self) -> Option<&T> {
        self.q.front()
    }

    /// Mutable access to the oldest item.
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.q.front_mut()
    }

    /// Drops everything (pipeline flush).
    pub fn clear(&mut self) {
        self.q.clear();
    }

    /// Iterates oldest → youngest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.q.iter()
    }

    /// The `i`-th oldest item, if present.
    pub fn get(&self, i: usize) -> Option<&T> {
        self.q.get(i)
    }

    /// Mutable access to the `i`-th oldest item.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        self.q.get_mut(i)
    }
}

/// The occupancy, then the items oldest first. The capacity is geometry:
/// restore clears the queue, and an item past the capacity panics.
impl<T: State + Default> State for BoundedQueue<T> {
    fn save_state(&self, w: &mut StateWriter) {
        self.q.save_state(w);
    }

    fn restore_state(&mut self, r: &mut StateReader) {
        self.q.clear();
        for _ in 0..r.get_usize() {
            let mut item = T::default();
            item.restore_state(r);
            assert!(
                self.push(item).is_ok(),
                "checkpoint geometry mismatch: more than {} queued items",
                self.cap
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedQueue::new(3);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn full_queue_rejects() {
        let mut q = BoundedQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert!(q.is_full());
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn clear_empties() {
        let mut q = BoundedQueue::new(2);
        q.push('a').unwrap();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.free(), 2);
    }

    #[test]
    fn front_views() {
        let mut q = BoundedQueue::new(2);
        q.push(10).unwrap();
        assert_eq!(q.front(), Some(&10));
        *q.front_mut().unwrap() = 11;
        assert_eq!(q.pop(), Some(11));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        let _: BoundedQueue<u8> = BoundedQueue::new(0);
    }

    #[test]
    fn state_round_trips_and_restore_clears() {
        let mut q = BoundedQueue::new(3);
        q.push(7u64).unwrap();
        q.push(8).unwrap();
        let mut w = StateWriter::new();
        q.save_state(&mut w);
        let mut back = BoundedQueue::new(3);
        back.push(1u64).unwrap();
        back.restore_state(&mut StateReader::new(w.bytes()));
        assert_eq!(back.iter().copied().collect::<Vec<_>>(), vec![7, 8]);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn state_restore_rejects_more_items_than_capacity() {
        let mut q = BoundedQueue::new(3);
        for i in 0..3u64 {
            q.push(i).unwrap();
        }
        let mut w = StateWriter::new();
        q.save_state(&mut w);
        BoundedQueue::<u64>::new(2).restore_state(&mut StateReader::new(w.bytes()));
    }
}
