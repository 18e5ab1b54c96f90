//! Return address stack, with checkpointing and the Alt-RAS copy
//! operation UCP needs when an alternate path starts (§IV-C).

use sim_isa::Addr;

/// A circular return-address stack.
///
/// Overflow wraps (oldest entries are silently overwritten); underflow
/// returns `None`. Checkpoints capture the stack pointer and the top entry,
/// which repairs the common single-call/return speculation case.
#[derive(Clone, Debug)]
pub struct Ras {
    entries: Box<[Addr]>,
    /// Index one past the top (number of pushes mod capacity semantics).
    sp: usize,
    depth: usize,
}

/// A RAS checkpoint (pointer + top entry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RasCheckpoint {
    sp: usize,
    depth: usize,
    top: Addr,
}

impl Ras {
    /// Creates an empty RAS with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Ras {
            entries: vec![Addr::NULL; capacity].into_boxed_slice(),
            sp: 0,
            depth: 0,
        }
    }

    /// Number of live entries (≤ capacity).
    pub fn depth(&self) -> usize {
        self.depth.min(self.entries.len())
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Pushes a return address (a call was fetched).
    pub fn push(&mut self, ra: Addr) {
        self.entries[self.sp] = ra;
        self.sp = (self.sp + 1) % self.entries.len();
        self.depth = (self.depth + 1).min(self.entries.len());
    }

    /// Pops the predicted return address (a return was fetched).
    pub fn pop(&mut self) -> Option<Addr> {
        if self.depth == 0 {
            return None;
        }
        self.sp = (self.sp + self.entries.len() - 1) % self.entries.len();
        self.depth -= 1;
        Some(self.entries[self.sp])
    }

    /// The address a `pop` would return, without popping.
    pub fn peek(&self) -> Option<Addr> {
        if self.depth == 0 {
            return None;
        }
        let i = (self.sp + self.entries.len() - 1) % self.entries.len();
        Some(self.entries[i])
    }

    /// Captures a checkpoint.
    pub fn checkpoint(&self) -> RasCheckpoint {
        RasCheckpoint {
            sp: self.sp,
            depth: self.depth,
            top: self.peek().unwrap_or(Addr::NULL),
        }
    }

    /// Restores a checkpoint (repairs the top entry).
    pub fn restore(&mut self, cp: &RasCheckpoint) {
        self.sp = cp.sp;
        self.depth = cp.depth;
        if cp.depth > 0 {
            let i = (self.sp + self.entries.len() - 1) % self.entries.len();
            self.entries[i] = cp.top;
        }
    }

    /// Replaces this RAS's contents with the top of `other` (the paper's
    /// "main RAS is copied into the Alt-RAS when alternate path UCP
    /// starts"). Keeps at most `self.capacity()` youngest entries.
    pub fn copy_from(&mut self, other: &Ras) {
        let take = other.depth().min(self.capacity());
        // The youngest `take` entries of `other`, oldest first, land at the
        // bottom of this stack.
        let n = other.entries.len();
        for (i, slot) in self.entries[..take].iter_mut().enumerate() {
            *slot = other.entries[(other.sp + n - take + i) % n];
        }
        self.sp = take % self.entries.len();
        self.depth = take;
    }

    /// Storage in bits (32-bit compressed return addresses).
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * 32
    }
}

sim_isa::state_fields!(Ras { entries, sp, depth } skip {});
sim_isa::state_fields!(RasCheckpoint { sp, depth, top } skip {});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_lifo() {
        let mut r = Ras::new(4);
        r.push(Addr::new(0x10));
        r.push(Addr::new(0x20));
        assert_eq!(r.pop(), Some(Addr::new(0x20)));
        assert_eq!(r.pop(), Some(Addr::new(0x10)));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn overflow_wraps_keeping_youngest() {
        let mut r = Ras::new(2);
        r.push(Addr::new(0x10));
        r.push(Addr::new(0x20));
        r.push(Addr::new(0x30)); // overwrites 0x10
        assert_eq!(r.pop(), Some(Addr::new(0x30)));
        assert_eq!(r.pop(), Some(Addr::new(0x20)));
        assert_eq!(r.pop(), None, "oldest was lost to wrap");
    }

    #[test]
    fn checkpoint_restores_simple_speculation() {
        let mut r = Ras::new(8);
        r.push(Addr::new(0x10));
        r.push(Addr::new(0x20));
        let cp = r.checkpoint();
        // Speculative: pop a return, push a call.
        let _ = r.pop();
        r.push(Addr::new(0x99));
        r.restore(&cp);
        assert_eq!(r.peek(), Some(Addr::new(0x20)));
        assert_eq!(r.depth(), 2);
    }

    #[test]
    fn copy_from_truncates_to_capacity() {
        let mut main = Ras::new(8);
        for i in 0..6 {
            main.push(Addr::new(0x100 + i * 0x10));
        }
        let mut alt = Ras::new(4);
        alt.copy_from(&main);
        assert_eq!(alt.depth(), 4);
        // Youngest four, LIFO order preserved.
        assert_eq!(alt.pop(), Some(Addr::new(0x150)));
        assert_eq!(alt.pop(), Some(Addr::new(0x140)));
        assert_eq!(alt.pop(), Some(Addr::new(0x130)));
        assert_eq!(alt.pop(), Some(Addr::new(0x120)));
    }

    #[test]
    fn copy_from_equals_pushing_the_youngest_entries() {
        for (main_cap, alt_cap, pushes) in
            [(8, 4, 6), (8, 4, 11), (4, 8, 9), (16, 16, 3), (4, 4, 4)]
        {
            let mut main = Ras::new(main_cap);
            for i in 0..pushes {
                main.push(Addr::new(0x100 + i * 4));
            }
            main.pop();
            let mut alt = Ras::new(alt_cap);
            for i in 0..=alt_cap as u64 {
                alt.push(Addr::new(0x900 + i * 4));
            }
            let mut expected = alt.clone();
            let mut youngest = main.clone();
            let take = main.depth().min(alt_cap);
            let mut addrs: Vec<Addr> = (0..take).map(|_| youngest.pop().unwrap()).collect();
            addrs.reverse();
            (expected.sp, expected.depth) = (0, 0);
            for a in addrs {
                expected.push(a);
            }
            alt.copy_from(&main);
            assert_eq!(
                (&alt.entries, alt.sp, alt.depth),
                (&expected.entries, expected.sp, expected.depth),
                "{main_cap}/{alt_cap}/{pushes}"
            );
        }
    }

    #[test]
    fn peek_does_not_pop() {
        let mut r = Ras::new(4);
        r.push(Addr::new(0x44));
        assert_eq!(r.peek(), Some(Addr::new(0x44)));
        assert_eq!(r.depth(), 1);
    }

    #[test]
    fn sixteen_entry_alt_ras_is_64_bytes() {
        // §IV-F: 16-entry Alt-RAS ≈ 0.06 KB.
        assert_eq!(Ras::new(16).storage_bits() / 8, 64);
    }
}
