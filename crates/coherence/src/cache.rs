//! Per-core private caches with clock (second-chance) replacement.
//!
//! The simulator models one private cache level per core (collapsing
//! L1+L2: their latency difference is not what Fig. 7 is about) holding
//! whole lines with a MESI state and a data *version* — the version lets
//! the tests prove reads observe the latest write, i.e. that the protocol
//! is actually coherent rather than just charged for.
//!
//! Storage is a dense slot array over the workload's contiguous line
//! range (see [`Cache::reserve_dense`]): a probe is one bounds check and
//! one indexed load instead of a hash lookup. The dense side is laid out
//! as parallel primitive vectors whose all-zero initial state means
//! "empty" — `vec![0; n]` lowers to a zeroed (lazily mapped) allocation,
//! so reserving a large range costs pages only for lines actually
//! touched. A dropped cache hands its slot arrays to a per-thread spare
//! list, and the next reservation on that thread re-zeroes and reuses
//! them. Lines outside the dense range spill into a hash map, so the
//! cache behaves identically for arbitrary addresses. A side list of
//! resident lines (with swap-remove back-pointers) makes `len`,
//! `resident` and `entries` O(residents) rather than O(range).

use interweave_core::hash::LineMap;
use std::cell::RefCell;
use std::collections::VecDeque;

/// One cache's dense slot arrays: occupancy, version, state bits.
type DenseSlots = (Vec<u32>, Vec<u64>, Vec<u8>);

/// Most slot-array sets kept per thread: enough for a 48-core Fig. 7
/// system. Caches dropped beyond it free their arrays.
const MAX_SPARE_DENSE: usize = 64;

thread_local! {
    /// Slot arrays of caches dropped on this thread, reused by the next
    /// [`Cache::reserve_dense`]. A Fig. 7 sweep builds and drops one
    /// 24–48-core system per run, each with tens of MB of slot arrays.
    /// Handed back to the allocator, that memory was trimmed from the heap
    /// and faulted in again by the next run: on a 2-CPU VM, about 63k
    /// minor page faults per sweep of the 24 one-round, 1/8-volume cells
    /// at 48 and 24 cores, against almost none when reused.
    static SPARE_DENSE: RefCell<Vec<DenseSlots>> = const { RefCell::new(Vec::new()) };
}

/// `v` emptied and refilled with `n` zeros, or a fresh zeroed vector when
/// its capacity is too small.
fn zeroed<T: Copy + Default>(mut v: Vec<T>, n: usize) -> Vec<T> {
    if v.capacity() < n {
        return vec![T::default(); n];
    }
    v.clear();
    v.resize(n, T::default());
    v
}

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

/// Reference bit within the dense metadata byte (low two bits: state).
const META_REF: u8 = 4;

/// One resident line.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Coherence state.
    pub state: Mesi,
    /// Version of the data held (monotonic per line).
    pub version: u64,
    ref_bit: bool,
    /// Back-pointer into the resident list.
    res_idx: u32,
}

/// A private cache of fixed line capacity.
#[derive(Debug, Clone)]
pub struct Cache {
    base: u64,
    /// Dense slot occupancy: `res_idx + 1`, `0` = empty slot. Kept as its
    /// own primitive vector so `reserve_dense` gets a zeroed allocation.
    dense_res: Vec<u32>,
    dense_ver: Vec<u64>,
    /// State bits (low 2) plus [`META_REF`].
    dense_meta: Vec<u8>,
    spill: LineMap<Entry>,
    residents: Vec<u64>,
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
        Cache {
            base: 0,
            dense_res: Vec::new(),
            dense_ver: Vec::new(),
            dense_meta: Vec::new(),
            spill: LineMap::default(),
            residents: Vec::new(),
            clock: VecDeque::new(),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Back the line range `[base, base + n)` with dense slots. Must be
    /// called before any line is inserted; lines outside the range keep
    /// working through the spill map.
    pub fn reserve_dense(&mut self, base: u64, n: usize) {
        assert!(
            self.residents.is_empty(),
            "reserve_dense on a populated cache"
        );
        self.base = base;
        let (res, ver, meta) = SPARE_DENSE
            .with(|s| s.borrow_mut().pop())
            .unwrap_or_default();
        self.dense_res = zeroed(res, n);
        self.dense_ver = zeroed(ver, n);
        self.dense_meta = zeroed(meta, n);
    }

    #[inline]
    fn dense_idx(&self, line: u64) -> Option<usize> {
        let off = line.wrapping_sub(self.base);
        if off < self.dense_res.len() as u64 {
            Some(off as usize)
        } else {
            None
        }
    }

    #[inline]
    fn dense_entry(&self, i: usize) -> Option<Entry> {
        let res = self.dense_res[i];
        if res == 0 {
            return None;
        }
        let meta = self.dense_meta[i];
        Some(Entry {
            state: bits_state(meta),
            version: self.dense_ver[i],
            ref_bit: meta & META_REF != 0,
            res_idx: res - 1,
        })
    }

    /// Remove `line`'s entry, patching the resident list's swap-remove
    /// back-pointer. The clock ring lazily skips removed lines.
    fn remove_line(&mut self, line: u64) -> Option<Entry> {
        let e = match self.dense_idx(line) {
            Some(i) => {
                let e = self.dense_entry(i)?;
                self.dense_res[i] = 0;
                e
            }
            None => self.spill.remove(&line)?,
        };
        let ri = e.res_idx as usize;
        self.residents.swap_remove(ri);
        if let Some(&moved) = self.residents.get(ri) {
            match self.dense_idx(moved) {
                Some(j) => self.dense_res[j] = ri as u32 + 1,
                None => {
                    self.spill
                        .get_mut(&moved)
                        .expect("resident is present")
                        .res_idx = ri as u32;
                }
            }
        }
        Some(e)
    }

    /// Look up a line, setting its reference bit on hit.
    #[inline]
    pub fn probe(&mut self, line: u64) -> Option<Entry> {
        let hit = match self.dense_idx(line) {
            Some(i) => {
                let e = self.dense_entry(i);
                if e.is_some() {
                    self.dense_meta[i] |= META_REF;
                }
                e
            }
            None => self.spill.get_mut(&line).map(|e| {
                e.ref_bit = true;
                *e
            }),
        };
        match hit {
            Some(e) => {
                self.hits += 1;
                Some(e)
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
        match self.dense_idx(line) {
            Some(i) => self.dense_entry(i),
            None => self.spill.get(&line).copied(),
        }
    }

    /// Change the state of a resident line (downgrade/upgrade).
    pub fn set_state(&mut self, line: u64, state: Mesi) {
        match self.dense_idx(line) {
            Some(i) => {
                if self.dense_res[i] != 0 {
                    let meta = self.dense_meta[i];
                    self.dense_meta[i] = (meta & META_REF) | state_bits(state);
                }
            }
            None => {
                if let Some(e) = self.spill.get_mut(&line) {
                    e.state = state;
                }
            }
        }
    }

    /// Bump the version of a resident line (a write hit) and mark M.
    pub fn write_hit(&mut self, line: u64, version: u64) {
        match self.dense_idx(line) {
            Some(i) => {
                debug_assert_ne!(self.dense_res[i], 0, "write_hit on absent line");
                let meta = self.dense_meta[i];
                self.dense_meta[i] = (meta & META_REF) | state_bits(Mesi::M);
                self.dense_ver[i] = version;
            }
            None => {
                let e = self.spill.get_mut(&line).expect("write_hit on absent line");
                e.state = Mesi::M;
                e.version = version;
            }
        }
    }

    /// Remove a line (invalidation); returns its entry if present.
    pub fn invalidate(&mut self, line: u64) -> Option<Entry> {
        self.remove_line(line)
    }

    /// Insert a line, evicting by clock if full. Returns the evicted
    /// `(line, entry)` if any.
    pub fn insert(&mut self, line: u64, state: Mesi, version: u64) -> Option<(u64, Entry)> {
        let mut victim = None;
        let existing = self.peek(line);
        if existing.is_none() && self.residents.len() >= self.capacity {
            // Clock: skip referenced or already-invalidated entries.
            loop {
                let cand = self.clock.pop_front().expect("clock tracks residents");
                match self.peek(cand) {
                    None => continue, // invalidated earlier; drop lazily
                    Some(e) if e.ref_bit => {
                        // Second chance: clear the bit, recycle.
                        match self.dense_idx(cand) {
                            Some(i) => self.dense_meta[i] &= !META_REF,
                            None => {
                                self.spill.get_mut(&cand).expect("present").ref_bit = false;
                            }
                        }
                        self.clock.push_back(cand);
                    }
                    Some(_) => {
                        let e = self.remove_line(cand).expect("present");
                        victim = Some((cand, e));
                        break;
                    }
                }
            }
        }
        let fresh = existing.is_none();
        let res_idx = match existing {
            Some(e) => e.res_idx,
            None => {
                self.residents.push(line);
                (self.residents.len() - 1) as u32
            }
        };
        // Fresh lines start unreferenced: one probe earns clock protection
        // (second-chance discipline); re-inserts also reset the bit.
        match self.dense_idx(line) {
            Some(i) => {
                self.dense_res[i] = res_idx + 1;
                self.dense_ver[i] = version;
                self.dense_meta[i] = state_bits(state);
            }
            None => {
                self.spill.insert(
                    line,
                    Entry {
                        state,
                        version,
                        ref_bit: false,
                        res_idx,
                    },
                );
            }
        }
        if fresh {
            self.clock.push_back(line);
        }
        victim
    }

    /// Resident line count.
    pub fn len(&self) -> usize {
        self.residents.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.residents.is_empty()
    }

    /// All resident lines (for flushes).
    pub fn resident(&self) -> Vec<u64> {
        self.residents.clone()
    }

    /// Iterate resident `(line, entry)` pairs, in no particular order —
    /// callers that care about order (the SWMR checker) must sort.
    pub fn entries(&self) -> impl Iterator<Item = (u64, Entry)> + '_ {
        self.residents
            .iter()
            .map(|&l| (l, self.peek(l).expect("resident is present")))
    }
}

impl Drop for Cache {
    fn drop(&mut self) {
        if self.dense_res.capacity() == 0 {
            return;
        }
        let slots = (
            std::mem::take(&mut self.dense_res),
            std::mem::take(&mut self.dense_ver),
            std::mem::take(&mut self.dense_meta),
        );
        // `try_with`: the spare list may already be gone at thread exit.
        let _ = SPARE_DENSE.try_with(|s| {
            if let Ok(mut s) = s.try_borrow_mut() {
                if s.len() < MAX_SPARE_DENSE {
                    s.push(slots);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reused_slot_arrays_start_empty() {
        let mut a = Cache::new(4);
        a.reserve_dense(100, 64);
        for l in 100..104 {
            a.insert(l, Mesi::M, 7);
        }
        drop(a);
        let mut b = Cache::new(4);
        b.reserve_dense(100, 32);
        assert!(b.is_empty());
        assert!((100..132).all(|l| b.peek(l).is_none()));
        b.insert(101, Mesi::E, 1);
        assert_eq!(
            b.peek(101).map(|e| (e.state, e.version)),
            Some((Mesi::E, 1))
        );
    }

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
        c.write_hit(7, 3);
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
    fn dense_and_spill_storage_agree() {
        // Same operation sequence against a dense-backed cache and a
        // spill-only cache: externally identical at every step.
        let mut dense = Cache::new(4);
        dense.reserve_dense(100, 50);
        let mut plain = Cache::new(4);
        // Mix of in-range (100..150) and out-of-range lines.
        let ops = [120u64, 99, 120, 130, 151, 140, 145, 120, 99, 130];
        for (i, &l) in ops.iter().enumerate() {
            if i % 3 == 2 {
                assert_eq!(dense.invalidate(l).is_some(), plain.invalidate(l).is_some());
            } else {
                let ve = dense.insert(l, Mesi::E, i as u64).map(|(v, _)| v);
                let vp = plain.insert(l, Mesi::E, i as u64).map(|(v, _)| v);
                assert_eq!(ve, vp, "op {i}: divergent victim");
            }
            assert_eq!(dense.len(), plain.len(), "op {i}");
            let mut a: Vec<u64> = dense.resident();
            let mut b: Vec<u64> = plain.resident();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "op {i}");
        }
        assert_eq!(dense.hits, plain.hits);
        assert_eq!(dense.misses, plain.misses);
    }

    #[test]
    fn entries_reports_every_resident_exactly_once() {
        let mut c = Cache::new(8);
        c.reserve_dense(0, 10);
        c.insert(3, Mesi::S, 1);
        c.insert(20, Mesi::M, 2); // spill
        c.insert(5, Mesi::E, 3);
        c.invalidate(3);
        let mut got: Vec<(u64, u64)> = c.entries().map(|(l, e)| (l, e.version)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![(5, 3), (20, 2)]);
    }
}
