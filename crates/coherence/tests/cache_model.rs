//! Model-based property test for the private cache: the open-addressed
//! [`Cache`] must answer every call exactly as the implementation it
//! replaced — dense slot arrays over a reserved line range, a hash-map
//! spill for every other line and a resident list — does. Victims have to
//! match line for line, not only the invariants: the clock's choice of
//! victim is what keeps every simulated Fig. 7 run bit-identical.
//!
//! The new cache locates a line once and hands the hit back as an
//! [`Entry`], so `set_state` and `write_hit` take that entry where the
//! oracle takes the line address; the test looks the entry up with `peek`.

use interweave_coherence::cache::{Cache, Entry, Mesi};
use proptest::prelude::*;

/// The cache as it was before the open-addressed table, copied verbatim
/// except that it shares the crate's [`Mesi`].
mod oracle {
    use interweave_core::hash::LineMap;
    use std::cell::RefCell;
    use std::collections::VecDeque;

    use interweave_coherence::cache::Mesi;

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
}

#[derive(Debug, Clone)]
enum Op {
    Insert(usize, Mesi, u32),
    Probe(usize),
    Peek(usize),
    SetState(usize, Mesi),
    WriteHit(usize, u32),
    Invalidate(usize),
}

fn mesi() -> impl Strategy<Value = Mesi> {
    prop_oneof![Just(Mesi::M), Just(Mesi::E), Just(Mesi::S)]
}

/// Ops weighted towards inserts and probes, so caches fill, evict under
/// the clock and keep referenced lines; `usize` picks a line of the pool.
fn op() -> impl Strategy<Value = Op> {
    (0u32..12, any::<usize>(), mesi(), any::<u32>()).prop_map(|(kind, i, s, v)| match kind {
        0..=4 => Op::Insert(i, s, v),
        5..=7 => Op::Probe(i),
        8 => Op::Peek(i),
        9 => Op::SetState(i, s),
        10 => Op::WriteHit(i, v),
        _ => Op::Invalidate(i),
    })
}

fn view(e: Option<Entry>) -> Option<(Mesi, u64)> {
    e.map(|e| (e.state, e.version))
}

fn old_view(e: Option<oracle::Entry>) -> Option<(Mesi, u64)> {
    e.map(|e| (e.state, e.version))
}

/// Every observable agrees: counters, the sorted resident set and a peek
/// at every line of the pool.
fn agree(new: &Cache, old: &oracle::Cache, pool: &[u64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(new.len(), old.len());
    prop_assert_eq!(new.is_empty(), old.is_empty());
    prop_assert_eq!(new.hits, old.hits);
    prop_assert_eq!(new.misses, old.misses);
    let mut a: Vec<_> = new
        .entries()
        .map(|(l, e)| (l, e.state, e.version))
        .collect();
    let mut b: Vec<_> = old
        .entries()
        .map(|(l, e)| (l, e.state, e.version))
        .collect();
    a.sort_unstable_by_key(|&(l, _, _)| l);
    b.sort_unstable_by_key(|&(l, _, _)| l);
    prop_assert_eq!(a, b);
    let mut resident = old.resident();
    resident.sort_unstable();
    let mut lines: Vec<u64> = new.entries().map(|(l, _)| l).collect();
    lines.sort_unstable();
    prop_assert_eq!(lines, resident);
    for &l in pool {
        prop_assert_eq!(view(new.peek(l)), old_view(old.peek(l)), "peek({:#x})", l);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Call for call, the open-addressed cache matches the oracle under
    /// random interleavings of inserts, probes, peeks, state changes,
    /// write hits and invalidations, over a contiguous line range (the
    /// oracle's dense side), far-apart lines, `0` and `u64::MAX`.
    #[test]
    fn open_addressed_cache_matches_the_dense_and_spill_oracle(
        capacity in 1usize..=16,
        base in 1u64..1 << 40,
        span in 1u64..64,
        far in prop::collection::vec(any::<u64>(), 0..6),
        ops in prop::collection::vec(op(), 1..400),
    ) {
        let mut pool: Vec<u64> = (base..base + span).chain(far).collect();
        pool.extend([0, u64::MAX]);
        let mut new = Cache::new(capacity);
        let mut old = oracle::Cache::new(capacity);
        old.reserve_dense(base, span as usize);
        for op in ops {
            match op {
                Op::Insert(i, s, v) => {
                    let l = pool[i % pool.len()];
                    let got = new.insert(l, s, v as u64).map(|(vl, e)| (vl, e.state, e.version));
                    let want = old.insert(l, s, v as u64).map(|(vl, e)| (vl, e.state, e.version));
                    prop_assert_eq!(got, want, "insert({:#x})", l);
                }
                Op::Probe(i) => {
                    let l = pool[i % pool.len()];
                    prop_assert_eq!(view(new.probe(l)), old_view(old.probe(l)), "probe({:#x})", l);
                }
                Op::Peek(i) => {
                    let l = pool[i % pool.len()];
                    prop_assert_eq!(view(new.peek(l)), old_view(old.peek(l)), "peek({:#x})", l);
                }
                Op::SetState(i, s) => {
                    let l = pool[i % pool.len()];
                    if let Some(e) = new.peek(l) {
                        new.set_state(e, s);
                    }
                    old.set_state(l, s);
                }
                Op::WriteHit(i, v) => {
                    let l = pool[i % pool.len()];
                    // Like the protocol, write only to resident lines.
                    if let Some(e) = new.peek(l) {
                        new.write_hit(e, v as u64);
                        old.write_hit(l, v as u64);
                    }
                }
                Op::Invalidate(i) => {
                    let l = pool[i % pool.len()];
                    prop_assert_eq!(
                        view(new.invalidate(l)),
                        old_view(old.invalidate(l)),
                        "invalidate({:#x})",
                        l
                    );
                }
            }
            agree(&new, &old, &pool)?;
        }
    }
}
