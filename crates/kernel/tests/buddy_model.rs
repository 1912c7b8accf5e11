//! Model-based property test for the buddy zone: the dense-table
//! [`BuddyZone`] must answer every call exactly as the straightforward
//! implementation it replaced — a `BTreeMap` of live blocks plus a linear
//! scan of the free list for the buddy — does. Returned addresses have to
//! match too, not only the invariants: identical free-list order is what
//! keeps every simulated run that allocates task stacks bit-identical.
//!
//! The one intended difference: an address that is not min-block aligned
//! within the zone is a [`AllocError::BadFree`] for the new zone, while the
//! oracle truncates it and frees the block based below it. Such frees are
//! checked against the new zone alone.

use interweave_kernel::buddy::{AllocError, BuddyZone};
use proptest::prelude::*;

/// The buddy zone as it was before the dense table, copied verbatim.
mod oracle {
    use interweave_kernel::buddy::AllocError;

    const MAX_ORDER: usize = 24;

    /// One buddy zone managing a contiguous physical range.
    #[derive(Debug, Clone)]
    pub struct BuddyZone {
        base: u64,
        /// log2 of the minimum block size in bytes.
        min_order: u32,
        /// Order of the whole zone relative to min blocks.
        levels: usize,
        /// Free lists per order (order 0 = min block). Entries are offsets from
        /// `base` in min-block units.
        free: Vec<Vec<u64>>,
        /// Allocated blocks: offset (min-block units) → order.
        live: std::collections::BTreeMap<u64, usize>,
        /// Bytes currently allocated (as block sizes, i.e. including internal
        /// fragmentation).
        pub live_bytes: u64,
    }

    impl BuddyZone {
        /// A zone at `base` spanning `2^levels` min-blocks of `2^min_order`
        /// bytes each.
        pub fn new(base: u64, min_order: u32, levels: usize) -> BuddyZone {
            assert!(levels <= MAX_ORDER, "zone too large");
            let mut free = vec![Vec::new(); levels + 1];
            free[levels].push(0); // one block covering the whole zone
            BuddyZone {
                base,
                min_order,
                levels,
                free,
                live: std::collections::BTreeMap::new(),
                live_bytes: 0,
            }
        }

        /// Zone capacity in bytes.
        pub fn capacity(&self) -> u64 {
            (1u64 << self.levels) << self.min_order
        }

        fn order_for(&self, bytes: u64) -> Result<usize, AllocError> {
            let min = 1u64 << self.min_order;
            let blocks = bytes.max(1).div_ceil(min);
            let order = blocks.next_power_of_two().trailing_zeros() as usize;
            if order > self.levels {
                Err(AllocError::TooLarge)
            } else {
                Ok(order)
            }
        }

        /// Allocate at least `bytes`; returns the block's physical address.
        pub fn alloc(&mut self, bytes: u64) -> Result<u64, AllocError> {
            let want = self.order_for(bytes)?;
            // Find and pop the smallest available order ≥ want, with exhaustion
            // reported as a typed error — there is no panicking path here.
            let mut have = want;
            let off = loop {
                if have > self.levels {
                    return Err(AllocError::OutOfMemory);
                }
                if let Some(off) = self.free[have].pop() {
                    break off;
                }
                have += 1;
            };
            // Split down to the wanted order.
            while have > want {
                have -= 1;
                let buddy = off + (1u64 << have);
                self.free[have].push(buddy);
            }
            self.live.insert(off, want);
            self.live_bytes += (1u64 << want) << self.min_order;
            Ok(self.base + (off << self.min_order))
        }

        /// Free a previously allocated block; coalesces with free buddies.
        pub fn free(&mut self, addr: u64) -> Result<(), AllocError> {
            if addr < self.base {
                return Err(AllocError::BadFree);
            }
            let mut off = (addr - self.base) >> self.min_order;
            let mut order = self.live.remove(&off).ok_or(AllocError::BadFree)?;
            self.live_bytes -= (1u64 << order) << self.min_order;
            // Coalesce upward while the buddy is free.
            while order < self.levels {
                let buddy = off ^ (1u64 << order);
                match self.free[order].iter().position(|&b| b == buddy) {
                    Some(i) => {
                        self.free[order].swap_remove(i);
                        off = off.min(buddy);
                        order += 1;
                    }
                    None => break,
                }
            }
            self.free[order].push(off);
            Ok(())
        }

        /// Number of live allocations.
        pub fn n_live(&self) -> usize {
            self.live.len()
        }

        /// True when the zone has coalesced back into a single maximal block —
        /// i.e. everything was freed and coalescing worked perfectly.
        pub fn fully_coalesced(&self) -> bool {
            self.live.is_empty()
                && self.free[self.levels].len() == 1
                && self.free[..self.levels].iter().all(|l| l.is_empty())
        }

        /// The live block (base address, size in bytes) containing `addr`, if
        /// any.
        pub fn containing(&self, addr: u64) -> Option<(u64, u64)> {
            if addr < self.base {
                return None;
            }
            let off = (addr - self.base) >> self.min_order;
            self.live
                .range(..=off)
                .next_back()
                .map(|(&b, &o)| {
                    (
                        self.base + (b << self.min_order),
                        (1u64 << o) << self.min_order,
                    )
                })
                .filter(|&(b, sz)| addr < b + sz)
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Allocate this many bytes (from below one min-block to beyond the
    /// whole zone, so `TooLarge` and exhaustion both occur).
    Alloc(u64),
    /// Free the n-th live block (mod count).
    FreeLive(usize),
    /// Free the n-th address ever freed (mod count): a double free, unless
    /// a later allocation reused it.
    FreeAgain(usize),
    /// Free the n-th live block's base plus a byte offset inside it
    /// (aligned or not).
    FreeInterior(usize, u64),
    /// Free an arbitrary address in and around the zone.
    FreeBogus(u64),
    /// Probe `containing` at an arbitrary address in and around the zone.
    Probe(u64),
}

/// Ops weighted towards allocation and valid frees, so zones fill up and
/// drain again within one case.
fn op() -> impl Strategy<Value = Op> {
    (0u32..16, any::<u64>(), 1u64..1 << 16).prop_map(|(kind, raw, d)| match kind {
        0..=5 => Op::Alloc(raw % 4096),
        6 => Op::Alloc(raw % (1 << 20)),
        7..=10 => Op::FreeLive(raw as usize),
        11 => Op::FreeAgain(raw as usize),
        12 => Op::FreeInterior(raw as usize, d),
        13 => Op::FreeBogus(raw),
        _ => Op::Probe(raw),
    })
}

/// Both zones, plus the test's view of which addresses are live.
struct Pair {
    new: BuddyZone,
    old: oracle::BuddyZone,
    base: u64,
    min_order: u32,
    live: Vec<u64>,
    freed: Vec<u64>,
}

impl Pair {
    /// An address from `raw` in the zone or up to half its span around it.
    fn around(&self, raw: u64) -> u64 {
        let span = self.new.capacity();
        let lo = self.base - self.base.min(span / 4);
        lo + raw % (span + span / 2)
    }

    fn alloc(&mut self, bytes: u64) -> Result<(), TestCaseError> {
        let got = self.new.alloc(bytes);
        prop_assert_eq!(got, self.old.alloc(bytes), "alloc({})", bytes);
        if let Ok(a) = got {
            self.live.push(a);
        }
        Ok(())
    }

    fn free(&mut self, addr: u64) -> Result<(), TestCaseError> {
        let aligned = addr
            .checked_sub(self.base)
            .is_none_or(|rel| rel % (1u64 << self.min_order) == 0);
        let got = self.new.free(addr);
        if !aligned {
            // The oracle would truncate this to a block base; the new zone
            // rejects it and leaves every block as it was.
            prop_assert_eq!(got, Err(AllocError::BadFree), "free({:#x})", addr);
            return Ok(());
        }
        prop_assert_eq!(got, self.old.free(addr), "free({:#x})", addr);
        if got.is_ok() {
            self.live.retain(|&a| a != addr);
            self.freed.push(addr);
        }
        Ok(())
    }

    /// Every observable agrees, `containing` included on each live block's
    /// edges, just outside the zone and at `extra`.
    fn agree(&self, extra: u64) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.new.n_live(), self.old.n_live());
        prop_assert_eq!(self.new.live_bytes, self.old.live_bytes);
        prop_assert_eq!(self.new.fully_coalesced(), self.old.fully_coalesced());
        prop_assert_eq!(self.new.capacity(), self.old.capacity());
        let end = self.base + self.new.capacity();
        let edges = self.live.iter().flat_map(|&a| {
            let size = self.old.containing(a).map_or(1, |(_, s)| s);
            [a, a + size / 2, a + size - 1, a + size]
        });
        for p in edges.chain([self.base.wrapping_sub(1), end - 1, end, extra]) {
            prop_assert_eq!(
                self.new.containing(p),
                self.old.containing(p),
                "containing({:#x})",
                p
            );
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Call for call, the dense-table zone matches the oracle under random
    /// interleavings of allocation, valid frees, double frees, interior
    /// frees, bogus frees and probes.
    #[test]
    fn dense_zone_matches_the_linear_scan_oracle(
        base in prop_oneof![Just(0u64), 1u64..1 << 24],
        min_order in 3u32..=8,
        levels in 0usize..=9,
        ops in prop::collection::vec(op(), 1..300),
    ) {
        let mut p = Pair {
            new: BuddyZone::new(base, min_order, levels),
            old: oracle::BuddyZone::new(base, min_order, levels),
            base,
            min_order,
            live: Vec::new(),
            freed: Vec::new(),
        };
        p.agree(base)?;
        for op in ops {
            let mut extra = base;
            match op {
                Op::Alloc(bytes) => p.alloc(bytes)?,
                Op::FreeLive(i) => {
                    if !p.live.is_empty() {
                        p.free(p.live[i % p.live.len()])?;
                    }
                }
                Op::FreeAgain(i) => {
                    if !p.freed.is_empty() {
                        p.free(p.freed[i % p.freed.len()])?;
                    }
                }
                Op::FreeInterior(i, d) => {
                    if !p.live.is_empty() {
                        let a = p.live[i % p.live.len()];
                        let size = p.new.containing(a).map_or(1, |(_, s)| s);
                        extra = a + d % size;
                        p.free(extra)?;
                    }
                }
                Op::FreeBogus(raw) => {
                    extra = p.around(raw);
                    p.free(extra)?;
                }
                Op::Probe(raw) => extra = p.around(raw),
            }
            p.agree(extra)?;
        }
        // Draining what is left must coalesce both back to one block.
        for a in std::mem::take(&mut p.live) {
            p.free(a)?;
        }
        p.agree(base)?;
        prop_assert!(p.new.fully_coalesced());
    }
}
