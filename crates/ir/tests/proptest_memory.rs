//! Model-based equivalence: the page-backed [`Memory`] against a naive
//! reimplementation of the original seed layout — a per-byte-address
//! `BTreeMap<u64, (Val, Option<u64>)>` plus a *linear* allocation list —
//! under arbitrary interleaved alloc/free/load/store/move sequences,
//! including provenance patching. Words land at aligned and unaligned byte
//! addresses (so they overlap) and hold integers, pointers, and floats with
//! the bit patterns a value-typed layout could lose (`-0.0`, NaNs with
//! payloads); every load compares the exact bits and type.
//!
//! The model deliberately reproduces the seed's allocator policy bit for
//! bit (first-fit over a coalescing free list, bump fallback, ids consumed
//! even by the transient home of a move), so every observable — returned
//! bases and ids, loaded values and provenance, traps, the free list, and
//! live-byte accounting — must agree exactly at every step.

use interweave_ir::interp::{AllocId, InterpConfig, Memory};
use interweave_ir::types::Val;
use proptest::prelude::*;
use std::collections::BTreeMap;

const HEAP_BASE: u64 = 0x10_000;
const HEAP_SIZE: u64 = 1 << 30;

/// The seed-layout reference: word map + linear allocation list.
struct ModelMemory {
    words: BTreeMap<u64, (Val, Option<u64>)>,
    /// Live allocations as `(id, base, size)` in creation order — lookups
    /// are linear scans, as in the pre-page implementation's
    /// `move_allocation`.
    allocs: Vec<(u64, u64, u64)>,
    free: BTreeMap<u64, u64>,
    bump: u64,
    limit: u64,
    next_id: u64,
    live_bytes: u64,
}

impl ModelMemory {
    fn new() -> ModelMemory {
        ModelMemory {
            words: BTreeMap::new(),
            allocs: Vec::new(),
            free: BTreeMap::new(),
            bump: HEAP_BASE,
            limit: HEAP_BASE + HEAP_SIZE,
            next_id: 1,
            live_bytes: 0,
        }
    }

    fn alloc(&mut self, size: u64) -> Option<(u64, u64, u64)> {
        let size = size.max(8).div_ceil(8) * 8;
        let slot = self
            .free
            .iter()
            .find(|(_, &sz)| sz >= size)
            .map(|(&b, &sz)| (b, sz));
        let base = if let Some((b, sz)) = slot {
            self.free.remove(&b);
            if sz > size {
                self.free.insert(b + size, sz - size);
            }
            b
        } else {
            let b = self.bump;
            if b + size > self.limit {
                return None;
            }
            self.bump += size;
            b
        };
        let id = self.next_id;
        self.next_id += 1;
        self.allocs.push((id, base, size));
        self.live_bytes += size;
        Some((id, base, size))
    }

    fn free(&mut self, addr: u64) -> Option<(u64, u64, u64)> {
        let pos = self.allocs.iter().position(|&(_, b, _)| b == addr)?;
        let a = self.allocs.remove(pos);
        let keys: Vec<u64> = self.words.range(a.1..a.1 + a.2).map(|(&k, _)| k).collect();
        for k in keys {
            self.words.remove(&k);
        }
        self.free.insert(a.1, a.2);
        self.coalesce_around(a.1);
        self.live_bytes -= a.2;
        Some(a)
    }

    fn coalesce_around(&mut self, base: u64) {
        if let Some(&size) = self.free.get(&base) {
            if let Some((&nb, &nsz)) = self.free.range(base + size..).next() {
                if nb == base + size {
                    self.free.remove(&nb);
                    *self.free.get_mut(&base).expect("present") = size + nsz;
                }
            }
        }
        if let Some((&pb, &psz)) = self.free.range(..base).next_back() {
            if pb + psz == base {
                let size = self.free.remove(&base).expect("present");
                *self.free.get_mut(&pb).expect("present") = psz + size;
            }
        }
    }

    fn containing(&self, addr: u64) -> Option<(u64, u64, u64)> {
        self.allocs
            .iter()
            .copied()
            .find(|&(_, b, s)| addr >= b && addr < b + s)
    }

    fn load(&self, addr: u64) -> Option<(Val, Option<u64>)> {
        self.containing(addr)?;
        Some(self.words.get(&addr).copied().unwrap_or((Val::I(0), None)))
    }

    /// The escape scan's answer: the first of `base, base + 8, ...` in the
    /// allocation whose word is the integer `value`.
    fn find_int_word(&self, base: u64, size: u64, value: u64) -> Option<u64> {
        (base..base + size)
            .step_by(8)
            .find(|&a| matches!(self.load(a), Some((Val::I(v), _)) if v as u64 == value))
    }

    fn store(&mut self, addr: u64, val: Val, prov: Option<u64>) -> bool {
        if self.containing(addr).is_none() {
            return false;
        }
        self.words.insert(addr, (val, prov));
        true
    }

    fn move_allocation(&mut self, id: u64) -> Option<(u64, u64)> {
        let &(_, old_base, old_size) = self.allocs.iter().find(|&&(i, _, _)| i == id)?;
        let (new_id, new_base, _) = self.alloc(old_size)?;
        // The transient home keeps the moved allocation's identity.
        for a in self.allocs.iter_mut() {
            if a.0 == new_id {
                a.0 = id;
            }
        }
        let old_words: Vec<(u64, (Val, Option<u64>))> = self
            .words
            .range(old_base..old_base + old_size)
            .map(|(&k, &c)| (k, c))
            .collect();
        for (k, c) in &old_words {
            self.words.insert(new_base + (k - old_base), *c);
        }
        self.free(old_base)?;
        let patches: Vec<(u64, i64, Option<u64>)> = self
            .words
            .iter()
            .filter(|(_, c)| c.1 == Some(id))
            .map(|(&k, c)| (k, c.0.as_i(), c.1))
            .collect();
        for (k, v, prov) in patches {
            let off = (v as u64).wrapping_sub(old_base);
            self.words
                .insert(k, (Val::I((new_base + off) as i64), prov));
        }
        Some((old_base, new_base))
    }
}

/// One step of the interleaved workload. Indices select among live
/// allocations modulo the live count at execution time. A word's address is
/// `base + (slot * 8 + skew) % size`: a zero skew is an aligned word, a
/// non-zero one an unaligned word overlapping its neighbours.
#[derive(Debug, Clone)]
enum Op {
    Alloc {
        size: u64,
    },
    Free {
        idx: usize,
    },
    Load {
        idx: usize,
        slot: u64,
        skew: u64,
    },
    Store {
        idx: usize,
        slot: u64,
        skew: u64,
        val: Stored,
    },
    Move {
        idx: usize,
    },
    /// CARAT's escape scan for the integer now at an aligned slot (or an
    /// arbitrary value).
    Find {
        idx: usize,
        slot: u64,
        value: Option<u64>,
    },
}

/// What a store writes.
#[derive(Debug, Clone)]
enum Stored {
    Int(i64),
    /// A float, by its bit pattern.
    Float(u64),
    /// A pointer into another live allocation, carrying provenance.
    Ptr(usize),
}

/// `-0.0`, quiet and signalling NaNs with payloads, infinities, and
/// arbitrary bit patterns.
fn float_bits() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just((-0.0f64).to_bits()),
        Just(0.0f64.to_bits()),
        Just(f64::NAN.to_bits()),
        Just(0x7ff0_0000_0000_0001),
        Just(0xfff8_0000_dead_beef),
        Just(f64::NEG_INFINITY.to_bits()),
        any::<u64>(),
    ]
}

/// About half the words aligned, the rest at a byte skew of 1 to 7.
fn skew() -> impl Strategy<Value = u64> {
    (0u64..16).prop_map(|k| k.saturating_sub(8))
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let stored = || {
        prop_oneof![
            any::<i64>().prop_map(Stored::Int),
            float_bits().prop_map(Stored::Float),
            any::<usize>().prop_map(Stored::Ptr),
        ]
    };
    let store = move || {
        (any::<usize>(), 0u64..64, skew(), stored()).prop_map(|(idx, slot, skew, val)| Op::Store {
            idx,
            slot,
            skew,
            val,
        })
    };
    // Stores appear twice: the union has no weights.
    prop_oneof![
        store(),
        store(),
        (8u64..400).prop_map(|size| Op::Alloc { size }),
        any::<usize>().prop_map(|idx| Op::Free { idx }),
        (any::<usize>(), 0u64..64, skew()).prop_map(|(idx, slot, skew)| Op::Load {
            idx,
            slot,
            skew
        }),
        any::<usize>().prop_map(|idx| Op::Move { idx }),
        (any::<usize>(), 0u64..64, 0u64..8).prop_map(|(idx, slot, v)| Op::Find {
            idx,
            slot,
            value: (v < 4).then_some(v),
        }),
    ]
}

/// A load result with the value as exact `(is_float, bits)`, so `-0.0`
/// and NaN payloads compare by representation.
fn exact(r: Option<(Val, Option<u64>)>) -> Option<(bool, u64, Option<u64>)> {
    r.map(|(v, p)| match v {
        Val::I(i) => (false, i as u64, p),
        Val::F(f) => (true, f.to_bits(), p),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Page-backed memory and the seed-layout model observe identical
    /// results for every operation, and identical final state at every
    /// byte address of every live allocation.
    #[test]
    fn page_backed_memory_matches_seed_layout_model(
        ops in prop::collection::vec(op_strategy(), 1..80)
    ) {
        let cfg = InterpConfig {
            heap_base: HEAP_BASE,
            heap_size: HEAP_SIZE,
            ..InterpConfig::default()
        };
        let mut mem = Memory::new(&cfg);
        let mut model = ModelMemory::new();
        // Live allocations as (id, base, size), kept identically for both
        // sides (ids and bases must agree at creation).
        let mut live: Vec<(u64, u64, u64)> = Vec::new();

        for op in &ops {
            match *op {
                Op::Alloc { size } => {
                    let got = mem.alloc(size);
                    let want = model.alloc(size);
                    match (got, want) {
                        (Ok(a), Some((id, base, sz))) => {
                            prop_assert_eq!(a.id.0, id);
                            prop_assert_eq!(a.base, base);
                            prop_assert_eq!(a.size, sz);
                            live.push((id, base, sz));
                        }
                        (Err(_), None) => {}
                        (g, w) => prop_assert!(false, "alloc diverged: {g:?} vs {w:?}"),
                    }
                }
                Op::Free { idx } => {
                    if live.is_empty() { continue; }
                    let (_, base, _) = live.remove(idx % live.len());
                    let got = mem.free(base);
                    let want = model.free(base);
                    prop_assert_eq!(got.is_ok(), want.is_some(), "free diverged at {base:#x}");
                }
                Op::Load { idx, slot, skew } => {
                    if live.is_empty() { continue; }
                    let (_, base, size) = live[idx % live.len()];
                    let addr = base + (slot * 8 + skew) % size;
                    let got = exact(mem.load(addr).ok().map(|(v, p)| (v, p.map(|i| i.0))));
                    let want = exact(model.load(addr));
                    prop_assert_eq!(got, want, "load diverged at {:#x}", addr);
                }
                Op::Store { idx, slot, skew, ref val } => {
                    if live.is_empty() { continue; }
                    let (_, base, size) = live[idx % live.len()];
                    let addr = base + (slot * 8 + skew) % size;
                    let (val, prov) = match *val {
                        Stored::Int(v) => (Val::I(v), None),
                        Stored::Float(bits) => (Val::F(f64::from_bits(bits)), None),
                        Stored::Ptr(pi) => {
                            let (pid, pbase, psize) = live[pi % live.len()];
                            // A pointer into the target, at a stable offset.
                            (Val::I((pbase + (slot * 8) % psize) as i64), Some(pid))
                        }
                    };
                    let got = mem.store(addr, val, prov.map(AllocId)).is_ok();
                    let want = model.store(addr, val, prov);
                    prop_assert_eq!(got, want, "store diverged at {:#x}", addr);
                }
                Op::Find { idx, slot, value } => {
                    if live.is_empty() { continue; }
                    let (_, base, size) = live[idx % live.len()];
                    let value = value.unwrap_or_else(|| {
                        match model.load(base + (slot * 8) % size) {
                            Some((Val::I(v), _)) => v as u64,
                            Some((Val::F(f), _)) => f.to_bits(),
                            None => 0,
                        }
                    });
                    let got = mem.find_int_word(base, base + size, value);
                    let want = model.find_int_word(base, size, value);
                    prop_assert_eq!(got, want, "escape scan diverged in {:#x}", base);
                }
                Op::Move { idx } => {
                    if live.is_empty() { continue; }
                    let li = idx % live.len();
                    let (id, _, size) = live[li];
                    let got = mem.move_allocation(AllocId(id)).ok();
                    let want = model.move_allocation(id);
                    prop_assert_eq!(got, want, "move diverged for id {}", id);
                    if let Some((_, new_base)) = want {
                        live[li] = (id, new_base, size);
                        // Pointers we recorded in `live` stay by-id; stored
                        // pointer words were patched inside both memories.
                    }
                }
            }
        }

        // Final-state equivalence: allocator observables and every live word.
        prop_assert_eq!(mem.n_allocs(), model.allocs.len());
        prop_assert_eq!(mem.live_bytes, model.live_bytes);
        let model_free: Vec<(u64, u64)> = model.free.iter().map(|(&b, &s)| (b, s)).collect();
        prop_assert_eq!(mem.free_blocks(), model_free);
        for &(id, base, size) in &live {
            prop_assert_eq!(mem.base_of(AllocId(id)), Some(base));
            for off in 0..size {
                let got = exact(mem.load(base + off).ok().map(|(v, p)| (v, p.map(|i| i.0))));
                let want = exact(model.load(base + off));
                prop_assert_eq!(got, want, "final word diverged at {:#x}+{}", base, off);
            }
        }
    }
}
