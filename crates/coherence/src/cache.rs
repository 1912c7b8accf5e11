//! Per-core private caches with clock (second-chance) replacement.
//!
//! The simulator models one private cache level per core (collapsing
//! L1+L2: their latency difference is not what Fig. 7 is about) holding
//! whole lines with a MESI state and a data *version* — the version lets
//! the tests prove reads observe the latest write, i.e. that the protocol
//! is actually coherent rather than just charged for.
//!
//! Storage is one open-addressed, linear-probing table of 16-byte slots,
//! at least four slots per line of capacity (a power of two), so probe
//! chains stay short and the table never fills. Deletion shifts the
//! following chain back instead of leaving tombstones. A cache's memory is
//! therefore O(capacity), whatever the address range it sees: a 512-line
//! cache is 32 KiB, however large the workload's layout.
//!
//! A probe returns the hit as an [`Entry`] that remembers its slot, so the
//! protocol's write hit updates the line without a second lookup. The
//! replacement order lives apart from the table, in a clock ring of line
//! addresses that skips invalidated lines lazily.

use std::collections::VecDeque;

/// MESI states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mesi {
    /// Modified: sole dirty copy.
    M,
    /// Exclusive: sole clean copy.
    E,
    /// Shared: one of possibly many clean copies.
    S,
}

fn state_bits(s: Mesi) -> u8 {
    match s {
        Mesi::M => 0,
        Mesi::E => 1,
        Mesi::S => 2,
    }
}

fn bits_state(b: u8) -> Mesi {
    match b & 3 {
        0 => Mesi::M,
        1 => Mesi::E,
        _ => Mesi::S,
    }
}

/// Reference bit within a slot's metadata byte (low two bits: state).
const META_REF: u8 = 4;
/// Live bit: the slot holds a line. An all-zero slot is empty.
const META_LIVE: u8 = 8;

/// One resident line, as a lookup found it.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Coherence state.
    pub state: Mesi,
    /// Version of the data held (monotonic per line).
    pub version: u64,
    /// Table slot holding the line; valid until the cache is next inserted
    /// into or invalidated.
    slot: u32,
}

/// One table slot. Versions are `u32`, as in the protocol's line table.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    line: u64,
    version: u32,
    /// State bits (low 2) plus [`META_REF`] and [`META_LIVE`].
    meta: u8,
}

impl Slot {
    #[inline]
    fn live(&self) -> bool {
        self.meta & META_LIVE != 0
    }

    #[inline]
    fn entry(&self, slot: usize) -> Entry {
        Entry {
            state: bits_state(self.meta),
            version: self.version as u64,
            slot: slot as u32,
        }
    }
}

/// The version as stored in a slot.
#[inline]
fn version32(v: u64) -> u32 {
    debug_assert!(v <= u32::MAX as u64, "version overflow on a line");
    v as u32
}

/// A private cache of fixed line capacity.
#[derive(Debug, Clone)]
pub struct Cache {
    slots: Vec<Slot>,
    /// `slots.len() - 1`; the length is a power of two.
    mask: usize,
    /// Right shift taking a line's multiplicative hash to a slot index.
    shift: u32,
    len: usize,
    clock: VecDeque<u64>,
    capacity: usize,
    /// Hits observed.
    pub hits: u64,
    /// Misses observed.
    pub misses: u64,
}

impl Cache {
    /// A cache holding up to `capacity` lines.
    pub fn new(capacity: usize) -> Cache {
        assert!(capacity > 0);
        let n = (4 * capacity).next_power_of_two();
        Cache {
            slots: vec![Slot::default(); n],
            mask: n - 1,
            shift: 64 - n.trailing_zeros(),
            len: 0,
            clock: VecDeque::new(),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// The slot a line's probe chain starts at (Fibonacci hashing: the
    /// top bits of a golden-ratio multiply spread consecutive lines).
    #[inline]
    fn home(&self, line: u64) -> usize {
        (line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize
    }

    /// `Ok(slot)` holding `line`, or `Err(slot)`: the empty slot that ends
    /// its probe chain. Terminates because at most a quarter of the table
    /// is live.
    #[inline]
    fn lookup(&self, line: u64) -> Result<usize, usize> {
        let mut i = self.home(line);
        loop {
            let s = &self.slots[i];
            if !s.live() {
                return Err(i);
            }
            if s.line == line {
                return Ok(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The slot holding `line`, if resident.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        self.lookup(line).ok()
    }

    /// Empty slot `i`, shifting later members of its probe chain back so
    /// every resident line stays reachable from its home slot.
    fn remove_at(&mut self, mut i: usize) -> Entry {
        let e = self.slots[i].entry(i);
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let s = self.slots[j];
            if !s.live() {
                break;
            }
            // `s` may fill the hole at `i` only if its home does not lie
            // cyclically within `(i, j]`.
            if (j.wrapping_sub(self.home(s.line)) & self.mask) >= (j.wrapping_sub(i) & self.mask) {
                self.slots[i] = s;
                i = j;
            }
        }
        self.slots[i] = Slot::default();
        self.len -= 1;
        e
    }

    /// Look up a line, setting its reference bit on hit.
    #[inline]
    pub fn probe(&mut self, line: u64) -> Option<Entry> {
        match self.find(line) {
            Some(i) => {
                self.hits += 1;
                self.slots[i].meta |= META_REF;
                Some(self.slots[i].entry(i))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peek without statistics or reference-bit effects.
    #[inline]
    pub fn peek(&self, line: u64) -> Option<Entry> {
        self.find(line).map(|i| self.slots[i].entry(i))
    }

    /// Change the state of the resident line `at` (downgrade/upgrade).
    pub fn set_state(&mut self, at: Entry, state: Mesi) {
        let s = &mut self.slots[at.slot as usize];
        debug_assert!(s.live(), "set_state on an emptied slot");
        s.meta = (s.meta & !3) | state_bits(state);
    }

    /// Bump the version of the resident line `at` (a write hit) and mark M.
    #[inline]
    pub fn write_hit(&mut self, at: Entry, version: u64) {
        let s = &mut self.slots[at.slot as usize];
        debug_assert!(s.live(), "write_hit on an emptied slot");
        s.meta = (s.meta & !3) | state_bits(Mesi::M);
        s.version = version32(version);
    }

    /// Remove a line (invalidation); returns its entry if present.
    pub fn invalidate(&mut self, line: u64) -> Option<Entry> {
        self.find(line).map(|i| self.remove_at(i))
    }

    /// Insert a line, evicting by clock if full. Returns the evicted
    /// `(line, entry)` if any.
    pub fn insert(&mut self, line: u64, state: Mesi, version: u64) -> Option<(u64, Entry)> {
        let mut victim = None;
        let i = match self.lookup(line) {
            Ok(i) => i,
            Err(mut i) => {
                if self.len >= self.capacity {
                    // Clock: skip referenced or already-invalidated entries.
                    loop {
                        let cand = self.clock.pop_front().expect("clock tracks residents");
                        match self.find(cand) {
                            None => continue, // invalidated earlier; drop lazily
                            Some(j) if self.slots[j].meta & META_REF != 0 => {
                                // Second chance: clear the bit, recycle.
                                self.slots[j].meta &= !META_REF;
                                self.clock.push_back(cand);
                            }
                            Some(j) => {
                                victim = Some((cand, self.remove_at(j)));
                                break;
                            }
                        }
                    }
                    // The eviction may have shifted `line`'s chain.
                    i = self.lookup(line).expect_err("line is not resident");
                }
                self.len += 1;
                self.clock.push_back(line);
                i
            }
        };
        // Fresh lines start unreferenced: one probe earns clock protection
        // (second-chance discipline); re-inserts also reset the bit.
        self.slots[i] = Slot {
            line,
            version: version32(version),
            meta: META_LIVE | state_bits(state),
        };
        victim
    }

    /// Resident line count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate resident `(line, entry)` pairs, in no particular order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, Entry)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live())
            .map(|(i, s)| (s.line, s.entry(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_hit_and_miss_statistics() {
        let mut c = Cache::new(4);
        assert!(c.probe(1).is_none());
        c.insert(1, Mesi::E, 0);
        assert!(c.probe(1).is_some());
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn capacity_is_respected_with_clock_eviction() {
        let mut c = Cache::new(3);
        for l in 0..10 {
            c.insert(l, Mesi::S, 0);
        }
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn recently_referenced_lines_survive() {
        let mut c = Cache::new(3);
        c.insert(1, Mesi::S, 0);
        c.insert(2, Mesi::S, 0);
        c.insert(3, Mesi::S, 0);
        // Touch 1 so its ref bit protects it.
        c.probe(1);
        let evicted = c.insert(4, Mesi::S, 0).map(|(l, _)| l);
        assert_ne!(evicted, Some(1), "referenced line evicted first");
        assert!(c.peek(1).is_some());
    }

    #[test]
    fn eviction_returns_dirty_entry() {
        let mut c = Cache::new(1);
        c.insert(7, Mesi::E, 0);
        let e = c.peek(7).expect("resident");
        c.write_hit(e, 3);
        let (line, e) = c.insert(8, Mesi::E, 0).expect("eviction");
        assert_eq!(line, 7);
        assert_eq!(e.state, Mesi::M);
        assert_eq!(e.version, 3);
    }

    #[test]
    fn invalidate_then_insert_does_not_grow_clock_unboundedly() {
        let mut c = Cache::new(2);
        for round in 0..100 {
            c.insert(round, Mesi::S, 0);
            c.invalidate(round);
        }
        assert!(c.is_empty());
        // Insert two lines; the lazy clock must cope with dead entries.
        c.insert(1000, Mesi::S, 0);
        c.insert(1001, Mesi::S, 0);
        c.insert(1002, Mesi::S, 0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn entries_reports_every_resident_exactly_once() {
        let mut c = Cache::new(8);
        c.insert(3, Mesi::S, 1);
        c.insert(u64::MAX, Mesi::M, 2);
        c.insert(5, Mesi::E, 3);
        c.invalidate(3);
        let mut got: Vec<(u64, u64)> = c.entries().map(|(l, e)| (l, e.version)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![(5, 3), (u64::MAX, 2)]);
    }
}
