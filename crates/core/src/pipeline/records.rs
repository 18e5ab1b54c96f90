//! The in-flight prediction-record ring.
//!
//! Every predicted branch gets a record that lives until the branch
//! resolves. Ids are handed out in prediction order and a flush discards a
//! suffix, so the live records always form an id-ordered sequence: one
//! `VecDeque` holds them, oldest first. A resolved record leaves an empty
//! slot behind that pops off the front once every older record has
//! resolved too; a flush truncates the back. Discarded ids are never
//! reused, so ids are strictly increasing but not contiguous, and lookups
//! binary-search.

use sim_isa::{State, StateReader, StateWriter};
use std::collections::VecDeque;

/// Id-ordered in-flight records: `Some` until resolved, `None` until
/// popped from the front.
pub(crate) struct RecordRing<T> {
    slots: VecDeque<(u64, Option<T>)>,
    next_id: u64,
}

impl<T> RecordRing<T> {
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        RecordRing {
            slots: VecDeque::with_capacity(capacity),
            next_id: 1,
        }
    }

    /// Appends a record and returns its id.
    pub(crate) fn push(&mut self, rec: T) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.slots.push_back((id, Some(rec)));
        id
    }

    /// Takes the record `id` out of the ring, leaving its slot resolved;
    /// `None` if it was already taken or discarded by a flush.
    pub(crate) fn take(&mut self, id: u64) -> Option<T> {
        let i = self.slots.binary_search_by_key(&id, |s| s.0).ok()?;
        self.slots[i].1.take()
    }

    /// Pops resolved slots off the front.
    pub(crate) fn pop_resolved(&mut self) {
        while matches!(self.slots.front(), Some((_, None))) {
            self.slots.pop_front();
        }
    }

    /// Discards the slot `id` and every younger one.
    pub(crate) fn truncate_from(&mut self, id: u64) {
        let keep = self.slots.partition_point(|s| s.0 < id);
        self.slots.truncate(keep);
    }
}

/// The live records with their ids, oldest first, then every slot id
/// (resolved ones included) oldest first, then the next id — the bytes of
/// the id-keyed record map and id-order list this ring replaced. Each
/// record's own bytes come from a caller-supplied codec.
impl<T: Default> RecordRing<T> {
    pub(crate) fn save_with(&self, w: &mut StateWriter, save: impl Fn(&T, &mut StateWriter)) {
        let RecordRing { slots, next_id } = self;
        let live = || {
            slots
                .iter()
                .filter_map(|(id, rec)| Some((*id, rec.as_ref()?)))
        };
        live().count().save_state(w);
        for (id, rec) in live() {
            id.save_state(w);
            save(rec, w);
        }
        slots.len().save_state(w);
        for (id, _) in slots {
            id.save_state(w);
        }
        next_id.save_state(w);
    }

    /// # Panics
    ///
    /// Panics if a live record's id is missing from the slot order.
    pub(crate) fn restore_with(
        &mut self,
        r: &mut StateReader,
        restore: impl Fn(&mut T, &mut StateReader),
    ) {
        let RecordRing { slots, next_id } = self;
        let mut live: VecDeque<(u64, T)> = VecDeque::new();
        // One record at a time, so a corrupt count underflows the reader
        // instead of allocating.
        for _ in 0..r.get_usize() {
            let id = r.get_u64();
            let mut rec = T::default();
            restore(&mut rec, r);
            live.push_back((id, rec));
        }
        slots.clear();
        for _ in 0..r.get_usize() {
            let id = r.get_u64();
            let rec = match live.front() {
                Some(&(live_id, _)) if live_id == id => live.pop_front().map(|(_, rec)| rec),
                _ => None,
            };
            slots.push_back((id, rec));
        }
        assert!(
            live.is_empty(),
            "checkpoint state corrupt: a live branch record is missing from the record order"
        );
        next_id.restore_state(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The encoding the ring replaced: records in a `HashMap` plus an
    /// id-order list from which resolved ids are popped lazily.
    #[derive(Default)]
    struct MapAndOrder {
        records: HashMap<u64, u32>,
        order: VecDeque<u64>,
        next_id: u64,
    }

    impl MapAndOrder {
        fn push(&mut self, rec: u32) -> u64 {
            let id = self.next_id;
            self.next_id += 1;
            self.records.insert(id, rec);
            self.order.push_back(id);
            id
        }

        fn take(&mut self, id: u64) -> Option<u32> {
            self.records.remove(&id)
        }

        fn pop_resolved(&mut self) {
            while let Some(&id) = self.order.front() {
                if self.records.contains_key(&id) {
                    break;
                }
                self.order.pop_front();
            }
        }

        fn truncate_from(&mut self, flushed: u64) {
            while let Some(&id) = self.order.back() {
                self.order.pop_back();
                self.records.remove(&id);
                if id == flushed {
                    break;
                }
            }
        }

        fn encode(&self, w: &mut StateWriter) {
            let mut ids: Vec<u64> = self.records.keys().copied().collect();
            ids.sort_unstable();
            w.put_usize(ids.len());
            for id in ids {
                w.put_u64(id);
                w.put_u32(self.records[&id]);
            }
            w.put_usize(self.order.len());
            for &id in &self.order {
                w.put_u64(id);
            }
            w.put_u64(self.next_id);
        }
    }

    fn ring_bytes(ring: &RecordRing<u32>) -> Vec<u8> {
        let mut w = StateWriter::new();
        ring.save_with(&mut w, u32::save_state);
        w.into_bytes()
    }

    fn model_bytes(model: &MapAndOrder) -> Vec<u8> {
        let mut w = StateWriter::new();
        model.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn out_of_order_resolves_and_a_flush_encode_like_the_map() {
        let mut ring = RecordRing::with_capacity(8);
        let mut model = MapAndOrder {
            next_id: 1,
            ..MapAndOrder::default()
        };
        for rec in 0..8 {
            assert_eq!(ring.push(rec), model.push(rec));
        }
        // Resolve out of order: a middle record, then the oldest.
        for id in [4, 1, 6] {
            assert_eq!(ring.take(id), model.take(id));
            assert_eq!(ring_bytes(&ring), model_bytes(&model));
        }
        ring.pop_resolved();
        model.pop_resolved();
        assert_eq!(ring_bytes(&ring), model_bytes(&model));
        // A mispredicted record resolves and flushes everything younger;
        // the resolved-but-unpopped id 4 stays in the order list.
        assert_eq!(ring.take(5), model.take(5));
        ring.truncate_from(5);
        model.truncate_from(5);
        assert_eq!(ring_bytes(&ring), model_bytes(&model));
        // A stale resolution of a flushed record finds nothing.
        assert_eq!(ring.take(7), None);
        assert_eq!(model.take(7), None);
        // New ids continue past the discarded ones.
        for rec in 10..13 {
            assert_eq!(ring.push(rec), model.push(rec));
        }
        assert_eq!(ring.take(9), model.take(9));
        assert_eq!(ring_bytes(&ring), model_bytes(&model));

        // The bytes restore into a ring that re-encodes them exactly.
        let bytes = ring_bytes(&ring);
        let mut back = RecordRing::with_capacity(0);
        let mut r = StateReader::new(&bytes);
        back.restore_with(&mut r, u32::restore_state);
        r.finish();
        assert_eq!(ring_bytes(&back), bytes);
        assert_eq!(back.take(2), Some(1));
    }

    #[test]
    fn random_event_sequences_encode_like_the_map() {
        let mut ring = RecordRing::with_capacity(64);
        let mut model = MapAndOrder {
            next_id: 1,
            ..MapAndOrder::default()
        };
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..4000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let live: Vec<u64> = model.order.iter().copied().collect();
            let pick = live.get((x >> 8) as usize % live.len().max(1)).copied();
            match x % 10 {
                0..=3 => assert_eq!(ring.push(step), model.push(step)),
                4..=6 => {
                    if let Some(id) = pick {
                        assert_eq!(ring.take(id), model.take(id));
                    }
                }
                7 | 8 => {
                    ring.pop_resolved();
                    model.pop_resolved();
                }
                _ => {
                    // A flush: only ever from a record that just resolved.
                    if let Some(id) = pick.filter(|id| model.records.contains_key(id)) {
                        assert_eq!(ring.take(id), model.take(id));
                        ring.truncate_from(id);
                        model.truncate_from(id);
                    }
                }
            }
            assert_eq!(ring_bytes(&ring), model_bytes(&model), "step {step}");
        }
    }
}
