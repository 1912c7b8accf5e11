//! The IR interpreter: cycle-accounted execution with runtime hooks.
//!
//! The interpreter plays the role of "the machine running compiled code" for
//! every compiler-involved experiment:
//!
//! - Each instruction has a cycle cost ([`InterpConfig`]); totals feed the
//!   overhead measurements (CARAT's <6 %, timing-check overhead, etc.).
//! - [`RuntimeHooks`] supplies the behaviour of interweaving intrinsics
//!   (guards, time checks, polls) *and* a per-access policy hook used by the
//!   paging/TLB model, so the same program can run under different stacks.
//! - Execution is *fuel-bounded*: [`Interp::run`] returns after a given
//!   cycle budget so kernels can schedule interpreted threads preemptively,
//!   and time checks can yield mid-program (the fiber experiments).
//! - Memory is a flat physical address space with an allocator that tracks
//!   *pointer provenance* per word and per register. Provenance is the
//!   ground truth CARAT's tracking runtime is validated against, and it is
//!   what makes defragmentation (§IV-A's "memory can be managed at
//!   arbitrary granularity") exact: when an allocation moves, every live
//!   pointer to it — in memory or in registers — is found and patched.
//!
//! The hot core is laid out for the host cache. Registers and memory cells
//! hold the same 16-byte word (value bits, packed provenance and type). A
//! page keeps its 64 word-aligned cells densely; every frame's registers are
//! a window of one shared register stack; and [`Interp::run`] executes a
//! block's straight-line instructions in an inner loop, looking the function
//! and block up again only on a call, a return or an exit.

use crate::inst::{BinOp, CmpOp, Inst, Intrinsic, Term};
use crate::module::Module;
use crate::types::{BlockId, FuncId, Reg, Val};
use interweave_core::hash::LineMap;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a live allocation (provenance tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AllocId(pub u64);

/// Per-instruction cycle costs and interpreter limits.
#[derive(Debug, Clone)]
pub struct InterpConfig {
    /// Cost of arithmetic/compare/select/mov/const.
    pub cost_arith: u64,
    /// Cost of a load (cache-hit assumption; translation extras come from
    /// hooks).
    pub cost_load: u64,
    /// Cost of a store.
    pub cost_store: u64,
    /// Cost of pointer arithmetic (`gep`).
    pub cost_gep: u64,
    /// Allocator fast-path cost.
    pub cost_alloc: u64,
    /// Free fast-path cost.
    pub cost_free: u64,
    /// Call (frame setup) cost.
    pub cost_call: u64,
    /// Return cost.
    pub cost_ret: u64,
    /// Branch cost.
    pub cost_branch: u64,
    /// Maximum call depth before a stack-overflow trap.
    pub max_depth: usize,
    /// Heap base address (allocations start here; 0 stays null).
    pub heap_base: u64,
    /// Heap size in bytes.
    pub heap_size: u64,
}

impl Default for InterpConfig {
    fn default() -> InterpConfig {
        InterpConfig {
            cost_arith: 1,
            cost_load: 3,
            cost_store: 3,
            cost_gep: 1,
            cost_alloc: 30,
            cost_free: 15,
            cost_call: 5,
            cost_ret: 3,
            cost_branch: 1,
            max_depth: 4096,
            heap_base: 0x10_000,
            heap_size: 1 << 30,
        }
    }
}

/// An execution fault.
#[derive(Debug, Clone, PartialEq)]
pub enum Trap {
    /// Access to an address outside every live allocation.
    BadAccess {
        /// Faulting address.
        addr: u64,
        /// Whether the access was a write.
        write: bool,
    },
    /// A guard or policy hook denied the access (CARAT protection fault).
    ProtectionFault {
        /// Faulting address.
        addr: u64,
    },
    /// Integer division or remainder by zero.
    DivByZero,
    /// Allocator exhausted.
    OutOfMemory,
    /// Call depth exceeded `max_depth`.
    StackOverflow,
    /// Free of an address that is not a live allocation base.
    BadFree {
        /// The bogus address.
        addr: u64,
    },
    /// A register that must hold an integer (an operand of integer
    /// arithmetic, an address, a size, a freed pointer or a traced value)
    /// held a float.
    TypeError,
    /// A hook aborted execution with a message.
    Aborted(String),
}

/// One word as a register or a memory cell holds it: the value's bits and
/// a tag packing `prov_raw << 1 | is_float`.
///
/// Provenance is a raw id with 0 meaning "none" — [`AllocId`]s start at 1,
/// so the all-zero word is exactly the never-written word
/// `(Val::I(0), None)` that fresh pages hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Word {
    bits: u64,
    tag: u64,
}

impl Word {
    /// The never-written word: integer zero, no provenance. Fresh pages and
    /// registers are filled with it, and `free` resets words back to it.
    const ZERO: Word = Word { bits: 0, tag: 0 };

    #[inline]
    fn int(v: i64, prov_raw: u64) -> Word {
        Word {
            bits: v as u64,
            tag: prov_raw << 1,
        }
    }

    #[inline]
    fn float(v: f64) -> Word {
        Word {
            bits: v.to_bits(),
            tag: 1,
        }
    }

    #[inline]
    fn new(val: Val, prov: Option<AllocId>) -> Word {
        let prov_raw = prov.map_or(0, |id| id.0);
        match val {
            Val::I(v) => Word::int(v, prov_raw),
            Val::F(v) => Word {
                bits: v.to_bits(),
                tag: prov_raw << 1 | 1,
            },
        }
    }

    #[inline]
    fn is_float(self) -> bool {
        self.tag & 1 != 0
    }

    #[inline]
    fn val(self) -> Val {
        if self.is_float() {
            Val::F(f64::from_bits(self.bits))
        } else {
            Val::I(self.bits as i64)
        }
    }

    /// The integer held, or `None` for a float (a guest type error).
    #[inline]
    fn as_int(self) -> Option<i64> {
        (!self.is_float()).then_some(self.bits as i64)
    }

    #[inline]
    fn as_f(self) -> f64 {
        self.val().as_f()
    }

    #[inline]
    fn prov_raw(self) -> u64 {
        self.tag >> 1
    }

    #[inline]
    fn prov(self) -> Option<AllocId> {
        match self.prov_raw() {
            0 => None,
            id => Some(AllocId(id)),
        }
    }
}

/// Byte addresses per page. The IR's loads and stores are 8-byte words at
/// arbitrary byte addresses, and two words at overlapping addresses are
/// independent cells (exactly as in the original word-map representation),
/// so a page spans `PAGE_CELLS` consecutive byte addresses, each of which
/// may hold a cell: the `PAGE_WORDS` word-aligned ones densely, the
/// unaligned ones in a spill array.
const PAGE_CELLS: usize = 512;
const PAGE_WORDS: usize = PAGE_CELLS / 8;
const PAGE_SHIFT: u32 = PAGE_CELLS.trailing_zeros();
const PAGE_MASK: u64 = PAGE_CELLS as u64 - 1;

/// One resident page: its cells plus a dirty watermark — the inclusive-lo /
/// exclusive-hi range of page offsets that may hold a non-zero word. Every
/// write path widens the watermark, so `free` can clear (and the provenance
/// patch sweep can scan) only the written span, keeping both proportional
/// to stored words rather than to the byte range.
#[derive(Clone)]
struct Page {
    /// The word-aligned cells: page offset `off` is `words[off / 8]`.
    words: [Word; PAGE_WORDS],
    /// The unaligned cells, indexed by page offset (the aligned entries
    /// stay zero). Allocated by the first unaligned store to the page.
    spill: Option<Box<[Word]>>,
    /// Lowest possibly-dirty page offset (`PAGE_CELLS` when clean).
    lo: u32,
    /// One past the highest possibly-dirty page offset (0 when clean).
    hi: u32,
}

impl Page {
    fn new() -> Box<Page> {
        Box::new(Page {
            words: [Word::ZERO; PAGE_WORDS],
            spill: None,
            lo: PAGE_CELLS as u32,
            hi: 0,
        })
    }

    #[inline]
    fn get(&self, off: usize) -> Word {
        if off.is_multiple_of(8) {
            self.words[off / 8]
        } else {
            self.spill.as_ref().map_or(Word::ZERO, |s| s[off])
        }
    }

    /// The cell at `off`, widening the dirty watermark over it.
    #[inline]
    fn get_mut(&mut self, off: usize) -> &mut Word {
        self.lo = self.lo.min(off as u32);
        self.hi = self.hi.max(off as u32 + 1);
        if off.is_multiple_of(8) {
            &mut self.words[off / 8]
        } else {
            let spill = self
                .spill
                .get_or_insert_with(|| vec![Word::ZERO; PAGE_CELLS].into_boxed_slice());
            &mut spill[off]
        }
    }

    /// Every cell at a page offset in `[s, e)` that may be non-zero: the
    /// part of the range inside the dirty watermark.
    fn dirty_mut(&mut self, s: usize, e: usize) -> impl Iterator<Item = &mut Word> {
        let s = s.max(self.lo as usize);
        let e = e.min(self.hi as usize).max(s);
        let words = self.words[s.div_ceil(8)..e.div_ceil(8)].iter_mut();
        let spill = self
            .spill
            .iter_mut()
            .flat_map(move |sp| sp[s..e].iter_mut());
        words.chain(spill)
    }
}

/// Metadata for one live allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocation {
    /// Provenance id.
    pub id: AllocId,
    /// Base address.
    pub base: u64,
    /// Size in bytes.
    pub size: u64,
}

/// Ways of the allocation cache in front of the allocation map.
const HIT_WAYS: usize = 4;
/// An empty cache way: it contains no address.
const NO_HIT: Allocation = Allocation {
    id: AllocId(0),
    base: 0,
    size: 0,
};

/// Flat physical memory with an allocator and provenance tracking.
///
/// Addresses are bytes; loads and stores move 8-byte words (the IR's only
/// access width). The allocator is first-fit over a free list with a bump
/// fallback — deliberately fragmentation-prone, because CARAT's
/// defragmentation experiment needs fragmentation to repair.
/// Words live in fixed-size pages allocated on first touch (zero-filled,
/// like fresh pages from an OS), so a load or store is index arithmetic
/// rather than a tree lookup. A small cache of recently hit allocations in
/// front of the allocation map makes the bounds check on the hot path a few
/// range compares, and an `AllocId → base` index lets defragmentation find
/// an allocation without scanning the live set.
#[derive(Clone)]
pub struct Memory {
    /// Sparse page table: `pages[(addr - page_origin) >> PAGE_SHIFT]`.
    /// Absent pages read as zero; they materialise on first store.
    pages: Vec<Option<Box<Page>>>,
    /// Address of cell 0 of page 0 (`heap_base` rounded down to a page
    /// boundary).
    page_origin: u64,
    /// Live allocations keyed by base address.
    allocs: BTreeMap<u64, Allocation>,
    /// O(1) id → base index (kept in lockstep with `allocs`). Allocation ids
    /// are simulator-internal, so the fast `u64` hasher replaces SipHash on
    /// the alloc/free path; the map is never iterated, so its order cannot
    /// leak into results.
    base_by_id: LineMap<u64>,
    /// Allocations that recently answered `containing()`, checked before
    /// the tree. Programs alternate between a few arrays, so one of these
    /// almost always hits. `alloc` primes a way with the fresh allocation
    /// (plain alloc never relocates a live one), `free` clears the way
    /// holding the freed base, and `move_allocation` re-primes with the new
    /// home.
    hits: [Cell<Allocation>; HIT_WAYS],
    /// The way the next prime replaces (round robin).
    hit_next: Cell<usize>,
    /// Free blocks keyed by base address → size.
    free: BTreeMap<u64, u64>,
    bump: u64,
    limit: u64,
    next_id: u64,
    /// Total bytes currently allocated.
    pub live_bytes: u64,
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("allocs", &self.allocs)
            .field("free", &self.free)
            .field("bump", &self.bump)
            .field("limit", &self.limit)
            .field("live_bytes", &self.live_bytes)
            .field("resident_pages", &self.resident_pages())
            .finish_non_exhaustive()
    }
}

impl Memory {
    /// Fresh memory per the config's heap geometry.
    pub fn new(cfg: &InterpConfig) -> Memory {
        Memory {
            pages: Vec::new(),
            page_origin: cfg.heap_base & !PAGE_MASK,
            allocs: BTreeMap::new(),
            base_by_id: LineMap::default(),
            hits: std::array::from_fn(|_| Cell::new(NO_HIT)),
            hit_next: Cell::new(0),
            free: BTreeMap::new(),
            bump: cfg.heap_base,
            limit: cfg.heap_base + cfg.heap_size,
            next_id: 1,
            live_bytes: 0,
        }
    }

    /// The resident page holding `addr`, if any.
    #[inline]
    fn page(&self, addr: u64) -> Option<&Page> {
        let pi = ((addr - self.page_origin) >> PAGE_SHIFT) as usize;
        self.pages.get(pi)?.as_deref()
    }

    /// Read the cell at `addr` (absent pages read as the zero word).
    #[inline]
    fn cell(&self, addr: u64) -> Word {
        self.page(addr)
            .map_or(Word::ZERO, |p| p.get((addr & PAGE_MASK) as usize))
    }

    /// Mutable cell at `addr`, materialising its page on first touch and
    /// widening the page's dirty watermark over the handed-out cell.
    #[inline]
    fn cell_mut(&mut self, addr: u64) -> &mut Word {
        let pi = ((addr - self.page_origin) >> PAGE_SHIFT) as usize;
        if pi >= self.pages.len() {
            self.pages.resize_with(pi + 1, || None);
        }
        self.pages[pi]
            .get_or_insert_with(Page::new)
            .get_mut((addr & PAGE_MASK) as usize)
    }

    /// Reset every cell in `[start, end)` to the never-written word,
    /// touching only resident pages — O(range), not O(live words).
    fn zero_range(&mut self, start: u64, end: u64) {
        let mut addr = start;
        while addr < end {
            let page_end = (addr & !PAGE_MASK) + PAGE_CELLS as u64;
            let chunk_end = end.min(page_end);
            let pi = ((addr - self.page_origin) >> PAGE_SHIFT) as usize;
            if let Some(Some(page)) = self.pages.get_mut(pi) {
                let s = (addr & PAGE_MASK) as usize;
                let e = s + (chunk_end - addr) as usize;
                // Only cells inside the dirty watermark can be non-zero, so
                // the clear is clamped to it: free's cost tracks the words
                // actually written, not the freed byte range.
                page.dirty_mut(s, e).for_each(|w| *w = Word::ZERO);
                // A clear covering the whole dirty range leaves the page
                // clean; partial clears leave the watermark conservative.
                if s <= page.lo as usize && page.hi as usize <= e {
                    page.lo = PAGE_CELLS as u32;
                    page.hi = 0;
                }
            }
            addr = chunk_end;
        }
    }

    /// Number of materialised pages (observability: the touched footprint).
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }

    /// Base address of the live allocation with id `id`, in O(1).
    pub fn base_of(&self, id: AllocId) -> Option<u64> {
        self.base_by_id.get(&id.0).copied()
    }

    /// Put `a` in the allocation cache: over the way already holding its
    /// base, else over the round-robin victim.
    fn prime(&self, a: Allocation) {
        if let Some(way) = self.hits.iter().find(|h| h.get().base == a.base) {
            way.set(a);
            return;
        }
        let i = self.hit_next.get();
        self.hits[i].set(a);
        self.hit_next.set((i + 1) % HIT_WAYS);
    }

    /// Allocate `size` bytes (rounded up to 8); returns the allocation.
    pub fn alloc(&mut self, size: u64) -> Result<Allocation, Trap> {
        let size = size.max(8).div_ceil(8) * 8;
        // First-fit in the free list.
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
                return Err(Trap::OutOfMemory);
            }
            self.bump += size;
            b
        };
        let a = Allocation {
            id: AllocId(self.next_id),
            base,
            size,
        };
        self.next_id += 1;
        self.allocs.insert(base, a);
        self.base_by_id.insert(a.id.0, base);
        // The fresh allocation is the most likely next access target.
        self.prime(a);
        self.live_bytes += size;
        Ok(a)
    }

    /// Free the allocation based at `addr`.
    pub fn free(&mut self, addr: u64) -> Result<Allocation, Trap> {
        let a = self.allocs.remove(&addr).ok_or(Trap::BadFree { addr })?;
        self.base_by_id.remove(&a.id.0);
        // A cached hit into the freed region must not survive (compare by
        // base: during a move the same id is briefly live at two bases).
        for way in &self.hits {
            if way.get().base == a.base {
                way.set(NO_HIT);
            }
        }
        // Reset its words and return the range to the free list.
        self.zero_range(a.base, a.base + a.size);
        self.free.insert(a.base, a.size);
        self.coalesce_around(a.base);
        self.live_bytes -= a.size;
        Ok(a)
    }

    fn coalesce_around(&mut self, base: u64) {
        // Merge with the next block if adjacent.
        if let Some(&size) = self.free.get(&base) {
            if let Some((&nb, &nsz)) = self.free.range(base + size..).next() {
                if nb == base + size {
                    self.free.remove(&nb);
                    *self.free.get_mut(&base).expect("present") = size + nsz;
                }
            }
        }
        // Merge with the previous block if adjacent.
        if let Some((&pb, &psz)) = self.free.range(..base).next_back() {
            if pb + psz == base {
                let size = self.free.remove(&base).expect("present");
                *self.free.get_mut(&pb).expect("present") = psz + size;
            }
        }
    }

    /// The allocation containing `addr`, if any. Recent hits are cached, so
    /// clustered accesses cost a few range compares.
    #[inline]
    pub fn containing(&self, addr: u64) -> Option<Allocation> {
        for way in &self.hits {
            let a = way.get();
            if addr.wrapping_sub(a.base) < a.size {
                return Some(a);
            }
        }
        let a = self
            .allocs
            .range(..=addr)
            .next_back()
            .map(|(_, &a)| a)
            .filter(|a| addr < a.base + a.size)?;
        self.prime(a);
        Some(a)
    }

    #[inline]
    fn load_word(&self, addr: u64) -> Result<Word, Trap> {
        if self.containing(addr).is_none() {
            return Err(Trap::BadAccess { addr, write: false });
        }
        Ok(self.cell(addr))
    }

    #[inline]
    fn store_word(&mut self, addr: u64, w: Word) -> Result<(), Trap> {
        if self.containing(addr).is_none() {
            return Err(Trap::BadAccess { addr, write: true });
        }
        *self.cell_mut(addr) = w;
        Ok(())
    }

    /// Load the word at `addr` (must lie in a live allocation; reads of
    /// never-written words are zero, like fresh pages).
    pub fn load(&self, addr: u64) -> Result<(Val, Option<AllocId>), Trap> {
        self.load_word(addr).map(|w| (w.val(), w.prov()))
    }

    /// Store a word (with provenance) at `addr`.
    pub fn store(&mut self, addr: u64, val: Val, prov: Option<AllocId>) -> Result<(), Trap> {
        self.store_word(addr, Word::new(val, prov))
    }

    /// The first of the addresses `start, start + 8, ...` below `end` whose
    /// word is the integer `value` (whatever its provenance), read as
    /// [`Memory::load`] would: a never-written word is `I(0)`. Scans the
    /// dense word cells of each page directly, one page lookup per page.
    pub fn find_int_word(&self, start: u64, end: u64, value: u64) -> Option<u64> {
        let hit = |w: Word| !w.is_float() && w.bits == value;
        let mut addr = start;
        while addr < end {
            let off = (addr & PAGE_MASK) as usize;
            // Addresses of the stride that fall in this page.
            let n = (end - addr).min((PAGE_CELLS - off) as u64).div_ceil(8) as usize;
            let found = match self.page(addr) {
                None => (value == 0).then_some(0),
                Some(p) if off.is_multiple_of(8) => {
                    p.words[off / 8..off / 8 + n].iter().position(|&w| hit(w))
                }
                Some(p) => (0..n).position(|k| hit(p.get(off + 8 * k))),
            };
            if let Some(k) = found {
                return Some(addr + 8 * k as u64);
            }
            addr += 8 * n as u64;
        }
        None
    }

    /// All live allocations in address order.
    pub fn allocations(&self) -> Vec<Allocation> {
        self.allocs.values().copied().collect()
    }

    /// Number of live allocations.
    pub fn n_allocs(&self) -> usize {
        self.allocs.len()
    }

    /// Free-list fragmentation: number of free holes below the bump pointer.
    pub fn free_holes(&self) -> usize {
        self.free.len()
    }

    /// The free list as `(base, size)` pairs in address order (used by
    /// CARAT's compaction to plan downward moves).
    pub fn free_blocks(&self) -> Vec<(u64, u64)> {
        self.free.iter().map(|(&b, &s)| (b, s)).collect()
    }

    /// Move the allocation with id `id` to a freshly allocated region,
    /// patching every memory word whose provenance is `id` so stored
    /// pointers stay valid. Returns `(old_base, new_base)`.
    ///
    /// This is the memory-mobility half of CARAT (§IV-A): data movement
    /// "operates similarly to a garbage collector". Register patching is the
    /// interpreter's job (the runtime cannot see registers) — see
    /// [`Interp::patch_provenance`].
    pub fn move_allocation(&mut self, id: AllocId) -> Result<(u64, u64), Trap> {
        let old = self
            .base_of(id)
            .and_then(|b| self.allocs.get(&b).copied())
            .ok_or(Trap::Aborted(format!("move of dead allocation {id:?}")))?;
        // Allocate the new home first (may trap OOM). This consumes a fresh
        // id that is immediately retired below, matching the original
        // allocator's id sequence.
        let size = old.size;
        let new = self.alloc(size)?;
        // Preserve identity: the moved allocation keeps its provenance id.
        let new_base = new.base;
        self.allocs.get_mut(&new_base).expect("just inserted").id = id;
        self.base_by_id.remove(&new.id.0);
        // Copy the non-zero cells (the new home is all-zero: it came from
        // freed or never-touched space, so this is exact). Absent pages are
        // skipped whole, and pages without a spill word by word.
        let mut addr = old.base;
        while addr < old.base + size {
            let (cell, step) = match self.page(addr) {
                None => (Word::ZERO, PAGE_CELLS as u64 - (addr & PAGE_MASK)),
                Some(p) => (
                    p.get((addr & PAGE_MASK) as usize),
                    if p.spill.is_some() { 1 } else { 8 - (addr & 7) },
                ),
            };
            if cell != Word::ZERO {
                *self.cell_mut(new_base + (addr - old.base)) = cell;
            }
            addr += step;
        }
        // Release the old region (also resets the old words). `free` drops
        // the id → base entry and any cached hit for the *old* base; the
        // moved allocation is then re-indexed at its new home.
        self.free(old.base)?;
        let moved = Allocation {
            id,
            base: new_base,
            size,
        };
        self.base_by_id.insert(id.0, new_base);
        self.prime(moved);
        // Patch every stored pointer into the moved allocation: scan the
        // dirty span of every resident page for cells carrying its
        // provenance. Patching rewrites cells that are already non-zero, so
        // the watermark needs no widening here.
        for page in self.pages.iter_mut().flatten() {
            for w in page.dirty_mut(0, PAGE_CELLS) {
                if w.prov_raw() == id.0 {
                    w.bits = w.bits.wrapping_sub(old.base).wrapping_add(new_base);
                }
            }
        }
        Ok((old.base, new_base))
    }

    /// Flip bit `bit` of the integer word at `addr`, returning
    /// `(old, new)` values. This is the fault plane's injection point for
    /// memory corruption: the word changes but its provenance tag does
    /// *not*, which is exactly the inconsistency CARAT's escape audit
    /// detects. Returns `None` for float cells (no meaningful bit index in
    /// the modeled word) — callers pick another site.
    pub fn flip_bit(&mut self, addr: u64, bit: u32) -> Option<(i64, i64)> {
        let w = self.cell_mut(addr);
        let old = w.as_int()?;
        w.bits ^= 1u64 << (bit % 64);
        Some((old, w.bits as i64))
    }

    /// Withdraw `[base, base + size)` from the free list so it is never
    /// handed out again — the quarantine half of CARAT's
    /// quarantine-and-relocate recovery. The range must currently be free
    /// (i.e. the damaged allocation was already moved away); returns
    /// `false` without modifying anything if it is not.
    pub fn quarantine_range(&mut self, base: u64, size: u64) -> bool {
        let Some((&fb, &fsz)) = self.free.range(..=base).next_back() else {
            return false;
        };
        if base + size > fb + fsz {
            return false;
        }
        self.free.remove(&fb);
        if fb < base {
            self.free.insert(fb, base - fb);
        }
        if base + size < fb + fsz {
            self.free.insert(base + size, (fb + fsz) - (base + size));
        }
        true
    }
}

/// One call frame: where it executes and where its registers start.
#[derive(Debug, Clone)]
struct Frame {
    func: FuncId,
    block: BlockId,
    ip: usize,
    /// Index of the frame's register 0 in the interpreter's register stack.
    base: usize,
    /// Register to receive the callee's return value.
    ret_to: Option<Reg>,
}

/// Result of an intrinsic hook.
#[derive(Debug, Clone)]
pub enum HookAction {
    /// Continue, charging `cycles` and writing `value` to the destination.
    Continue {
        /// Value produced (if the intrinsic has a destination).
        value: Option<Val>,
        /// Cycles charged for the intrinsic's work.
        cycles: u64,
    },
    /// Charge `cycles`, then pause execution (status [`ExecStatus::Yielded`]).
    Yield {
        /// Cycles charged before yielding.
        cycles: u64,
    },
    /// Abort with a trap.
    Trap(Trap),
}

/// Environment supplied by the stack the program runs on.
pub trait RuntimeHooks {
    /// Handle an interweaving intrinsic. `mem` is the program's memory;
    /// `now` is the cycles consumed so far in this interpreter.
    fn intrinsic(
        &mut self,
        which: Intrinsic,
        args: &[Val],
        mem: &mut Memory,
        now: u64,
    ) -> HookAction;

    /// Per-access policy (translation cost, protection). Returns extra
    /// cycles to charge. The default is a no-op (identity-mapped Nautilus:
    /// "TLB misses are extremely rare ... there are no page faults").
    fn check_access(&mut self, _addr: u64, _write: bool, _now: u64) -> Result<u64, Trap> {
        Ok(0)
    }

    /// Observe an allocation (CARAT cross-checks its tracking table).
    fn on_alloc(&mut self, _a: Allocation) {}

    /// Observe a free.
    fn on_free(&mut self, _a: Allocation) {}
}

/// Hooks for a plain run: no intrinsic behaviour, no access policy.
#[derive(Debug, Clone, Default)]
pub struct NullHooks;

impl RuntimeHooks for NullHooks {
    fn intrinsic(
        &mut self,
        which: Intrinsic,
        _args: &[Val],
        _mem: &mut Memory,
        _now: u64,
    ) -> HookAction {
        match which {
            // With no runtime attached, reading the timer returns the cycle
            // count so far — good enough for organic programs.
            Intrinsic::ReadTimer => HookAction::Continue {
                value: Some(Val::I(0)),
                cycles: 1,
            },
            _ => HookAction::Continue {
                value: Some(Val::I(0)),
                cycles: 0,
            },
        }
    }
}

/// Why [`Interp::run`] returned.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecStatus {
    /// The outermost function returned (with its value, if any).
    Done(Option<Val>),
    /// The cycle budget was exhausted mid-program.
    OutOfFuel,
    /// A hook requested a yield (fiber switch, heartbeat promotion point).
    Yielded,
    /// Execution trapped.
    Trapped(Trap),
}

/// Cumulative execution statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Total cycles consumed (instruction costs + hook charges).
    pub cycles: u64,
    /// Instructions executed (terminators included).
    pub insts: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Intrinsics executed, by injected/organic split.
    pub injected_intrinsics: u64,
    /// Cycles charged by hooks for injected intrinsics — the numerator of
    /// every "instrumentation overhead" measurement.
    pub injected_cycles: u64,
    /// Values emitted through the `Trace` intrinsic (testing).
    pub trace: Vec<i64>,
}

/// How the block loop left the top frame.
enum Exit<'m> {
    /// Push a frame: `(ret_to, callee, arguments)`.
    Call(Option<Reg>, FuncId, &'m [Reg]),
    /// Pop the frame, returning this word.
    Ret(Option<Word>),
    /// Stop with a trap.
    Trap(Trap),
    /// Stop: out of fuel or yielded.
    Stop(ExecStatus),
}

/// `x op y` for either operand type, with the same semantics as the
/// comparison operators (so NaN compares unequal and unordered).
#[inline]
fn compare<T: PartialOrd>(op: CmpOp, x: T, y: T) -> bool {
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

/// The interpreter: a module, a memory, a frame stack over one register
/// stack, and statistics.
pub struct Interp {
    cfg: InterpConfig,
    /// Program memory (public so runtimes can inspect/move allocations).
    pub mem: Memory,
    frames: Vec<Frame>,
    /// The register stack: each frame's registers are
    /// `regs[base..base + n_regs]`, and the top frame's window ends the
    /// stack, so calls and returns only grow and truncate it.
    regs: Vec<Word>,
    /// Execution statistics.
    pub stats: ExecStats,
    done_value: Option<Val>,
}

impl Interp {
    /// New interpreter. The module is passed to [`Interp::start`] and
    /// [`Interp::run`] rather than borrowed, so long-lived owners (PIK
    /// processes, virtines, fibers) can hold interpreter state without
    /// self-referential lifetimes. Passing a *different* module between
    /// calls is a logic error; debug builds catch gross mismatches through
    /// out-of-range panics.
    pub fn new(cfg: InterpConfig) -> Interp {
        let mem = Memory::new(&cfg);
        Interp {
            cfg,
            mem,
            frames: Vec::new(),
            regs: Vec::new(),
            stats: ExecStats::default(),
            done_value: None,
        }
    }

    /// Begin a call to `f` with integer/float arguments. Replaces any
    /// existing call stack.
    pub fn start(&mut self, module: &Module, f: FuncId, args: &[Val]) {
        let func = module.func(f);
        assert_eq!(
            args.len(),
            func.n_params,
            "{} expects {} args",
            func.name,
            func.n_params
        );
        self.regs.clear();
        self.regs.resize(func.n_regs, Word::ZERO);
        for (r, &v) in self.regs.iter_mut().zip(args) {
            *r = Word::new(v, None);
        }
        self.frames.clear();
        self.frames.push(Frame {
            func: f,
            block: BlockId(0),
            ip: 0,
            base: 0,
            ret_to: None,
        });
        self.done_value = None;
    }

    /// True when the program has finished or trapped (nothing to resume).
    pub fn finished(&self) -> bool {
        self.frames.is_empty()
    }

    /// Swap this interpreter's memory for another, returning the previous
    /// one. This is how a *shared single address space* is modelled (the
    /// PIK kernel, §IV-A): the kernel owns one [`Memory`] and lends it to
    /// whichever process runs its slice; allocator state and contents
    /// travel with it, so every process's allocations coexist in the same
    /// physical space.
    pub fn swap_memory(&mut self, mem: Memory) -> Memory {
        std::mem::replace(&mut self.mem, mem)
    }

    /// The value returned by the outermost call once finished.
    pub fn result(&self) -> Option<Val> {
        self.done_value
    }

    /// Patch every register (in every live frame) whose provenance is `id`,
    /// relocating it from `old_base` to `new_base`. Pairs with
    /// [`Memory::move_allocation`] to complete a defragmentation step.
    pub fn patch_provenance(&mut self, id: AllocId, old_base: u64, new_base: u64) -> usize {
        let mut patched = 0;
        for r in &mut self.regs {
            if r.prov_raw() == id.0 {
                r.bits = r.bits.wrapping_sub(old_base).wrapping_add(new_base);
                patched += 1;
            }
        }
        patched
    }

    /// Run until completion, yield, trap, or `fuel` cycles are consumed.
    /// Resumable: calling `run` again continues where the last call left
    /// off (after a yield or out-of-fuel return).
    ///
    /// The outer loop handles the frame stack; the inner loop runs the top
    /// frame's code with its block, `ip` and register window held locally,
    /// following branches within the function, and writes `block`/`ip`
    /// back when it leaves. The fuel check runs before every instruction
    /// and terminator, so every exit leaves the same `ip`, instruction count
    /// and cycle count as stepping one instruction at a time.
    pub fn run(&mut self, module: &Module, hooks: &mut dyn RuntimeHooks, fuel: u64) -> ExecStatus {
        let start_cycles = self.stats.cycles;
        let Interp {
            cfg,
            mem,
            frames,
            regs,
            stats,
            done_value,
        } = self;
        loop {
            let depth = frames.len();
            let Some(fr) = frames.last_mut() else {
                return ExecStatus::Done(*done_value);
            };
            let func = module.func(fr.func);
            let base = fr.base;
            let r = &mut regs[base..];
            let (mut block, mut ip) = (fr.block, fr.ip);
            let mut blk = &func.blocks[block.index()];
            let exit = loop {
                if stats.cycles - start_cycles >= fuel {
                    break Exit::Stop(ExecStatus::OutOfFuel);
                }
                let Some(inst) = blk.insts.get(ip) else {
                    stats.insts += 1;
                    match blk.term.as_ref().expect("verified IR") {
                        Term::Br(t) => {
                            stats.cycles += cfg.cost_branch;
                            block = *t;
                        }
                        Term::CondBr(c, t, e) => {
                            stats.cycles += cfg.cost_branch;
                            block = if r[c.index()].val().is_true() { *t } else { *e };
                        }
                        Term::Ret(v) => {
                            stats.cycles += cfg.cost_ret;
                            break Exit::Ret(v.map(|v| r[v.index()]));
                        }
                    }
                    blk = &func.blocks[block.index()];
                    ip = 0;
                    continue;
                };
                ip += 1;
                stats.insts += 1;
                match inst {
                    Inst::ConstI(d, v) => {
                        stats.cycles += cfg.cost_arith;
                        r[d.index()] = Word::int(*v, 0);
                    }
                    Inst::ConstF(d, v) => {
                        stats.cycles += cfg.cost_arith;
                        r[d.index()] = Word::float(*v);
                    }
                    Inst::Mov(d, s) => {
                        stats.cycles += cfg.cost_arith;
                        r[d.index()] = r[s.index()];
                    }
                    Inst::Bin(d, op, a, b) => {
                        stats.cycles += cfg.cost_arith;
                        let (wa, wb) = (r[a.index()], r[b.index()]);
                        r[d.index()] = match op {
                            BinOp::FAdd => Word::float(wa.as_f() + wb.as_f()),
                            BinOp::FSub => Word::float(wa.as_f() - wb.as_f()),
                            BinOp::FMul => Word::float(wa.as_f() * wb.as_f()),
                            BinOp::FDiv => Word::float(wa.as_f() / wb.as_f()),
                            _ => {
                                // The divisor alone decides a division by
                                // zero, so it is checked before the types.
                                if matches!(op, BinOp::Div | BinOp::Rem) && wb.as_int() == Some(0) {
                                    break Exit::Trap(Trap::DivByZero);
                                }
                                let (Some(x), Some(y)) = (wa.as_int(), wb.as_int()) else {
                                    break Exit::Trap(Trap::TypeError);
                                };
                                let v = match op {
                                    BinOp::Add => x.wrapping_add(y),
                                    BinOp::Sub => x.wrapping_sub(y),
                                    BinOp::Mul => x.wrapping_mul(y),
                                    BinOp::Div => x.wrapping_div(y),
                                    BinOp::Rem => x.wrapping_rem(y),
                                    BinOp::And => x & y,
                                    BinOp::Or => x | y,
                                    BinOp::Xor => x ^ y,
                                    BinOp::Shl => x.wrapping_shl(y as u32),
                                    BinOp::Shr => x.wrapping_shr(y as u32),
                                    BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => {
                                        unreachable!("float ops are matched above")
                                    }
                                };
                                // Pointer arithmetic through Add/Sub keeps
                                // provenance when exactly one operand is a
                                // pointer.
                                let p = match op {
                                    BinOp::Add | BinOp::Sub => match (wa.prov_raw(), wb.prov_raw())
                                    {
                                        (p, 0) | (0, p) => p,
                                        _ => 0,
                                    },
                                    _ => 0,
                                };
                                Word::int(v, p)
                            }
                        };
                    }
                    Inst::Cmp(d, op, a, b) => {
                        stats.cycles += cfg.cost_arith;
                        let (wa, wb) = (r[a.index()], r[b.index()]);
                        let t = match (wa.as_int(), wb.as_int()) {
                            (Some(x), Some(y)) => compare(*op, x, y),
                            _ => compare(*op, wa.as_f(), wb.as_f()),
                        };
                        r[d.index()] = Word::int(t as i64, 0);
                    }
                    Inst::Select(d, c, a, b) => {
                        stats.cycles += cfg.cost_arith;
                        let pick = if r[c.index()].val().is_true() { a } else { b };
                        r[d.index()] = r[pick.index()];
                    }
                    Inst::Alloc(d, s) => {
                        stats.cycles += cfg.cost_alloc;
                        let Some(size) = r[s.index()].as_int() else {
                            break Exit::Trap(Trap::TypeError);
                        };
                        match mem.alloc(size.max(0) as u64) {
                            Ok(a) => {
                                hooks.on_alloc(a);
                                r[d.index()] = Word::int(a.base as i64, a.id.0);
                            }
                            Err(t) => break Exit::Trap(t),
                        }
                    }
                    Inst::Free(p) => {
                        stats.cycles += cfg.cost_free;
                        let Some(addr) = r[p.index()].as_int() else {
                            break Exit::Trap(Trap::TypeError);
                        };
                        match mem.free(addr as u64) {
                            Ok(a) => hooks.on_free(a),
                            Err(t) => break Exit::Trap(t),
                        }
                    }
                    Inst::Load(d, a, off) => {
                        stats.cycles += cfg.cost_load;
                        stats.loads += 1;
                        let Some(ptr) = r[a.index()].as_int() else {
                            break Exit::Trap(Trap::TypeError);
                        };
                        let addr = ptr.wrapping_add(*off) as u64;
                        match hooks.check_access(addr, false, stats.cycles) {
                            Ok(extra) => stats.cycles += extra,
                            Err(t) => break Exit::Trap(t),
                        }
                        match mem.load_word(addr) {
                            Ok(w) => r[d.index()] = w,
                            Err(t) => break Exit::Trap(t),
                        }
                    }
                    Inst::Store(a, off, v) => {
                        stats.cycles += cfg.cost_store;
                        stats.stores += 1;
                        let Some(ptr) = r[a.index()].as_int() else {
                            break Exit::Trap(Trap::TypeError);
                        };
                        let addr = ptr.wrapping_add(*off) as u64;
                        match hooks.check_access(addr, true, stats.cycles) {
                            Ok(extra) => stats.cycles += extra,
                            Err(t) => break Exit::Trap(t),
                        }
                        if let Err(t) = mem.store_word(addr, r[v.index()]) {
                            break Exit::Trap(t);
                        }
                    }
                    Inst::Gep(d, b, i, scale, off) => {
                        stats.cycles += cfg.cost_gep;
                        let wb = r[b.index()];
                        let (Some(ptr), Some(idx)) = (wb.as_int(), r[i.index()].as_int()) else {
                            break Exit::Trap(Trap::TypeError);
                        };
                        let addr = ptr
                            .wrapping_add(idx.wrapping_mul(*scale))
                            .wrapping_add(*off);
                        r[d.index()] = Word::int(addr, wb.prov_raw());
                    }
                    Inst::Call(dst, g, args) => {
                        stats.cycles += cfg.cost_call;
                        if depth >= cfg.max_depth {
                            break Exit::Trap(Trap::StackOverflow);
                        }
                        break Exit::Call(*dst, *g, args);
                    }
                    Inst::Intr(dst, which, args) => {
                        let which = *which;
                        if which == Intrinsic::Trace {
                            if let Some(a) = args.first() {
                                let Some(v) = r[a.index()].as_int() else {
                                    break Exit::Trap(Trap::TypeError);
                                };
                                stats.trace.push(v);
                            }
                        }
                        // Intrinsics take at most a handful of arguments;
                        // marshal them through a stack buffer so the hot
                        // path stays allocation-free.
                        let mut buf = [Val::I(0); 4];
                        let heap: Vec<Val>;
                        let argv: &[Val] = if args.len() <= buf.len() {
                            for (slot, a) in buf.iter_mut().zip(args) {
                                *slot = r[a.index()].val();
                            }
                            &buf[..args.len()]
                        } else {
                            heap = args.iter().map(|a| r[a.index()].val()).collect();
                            &heap
                        };
                        if which.is_injected() {
                            stats.injected_intrinsics += 1;
                        }
                        let (cycles, value, yielded) =
                            match hooks.intrinsic(which, argv, mem, stats.cycles) {
                                HookAction::Continue { value, cycles } => (cycles, value, false),
                                HookAction::Yield { cycles } => (cycles, None, true),
                                HookAction::Trap(t) => break Exit::Trap(t),
                            };
                        stats.cycles += cycles;
                        if which.is_injected() {
                            stats.injected_cycles += cycles;
                        }
                        if let Some(d) = dst {
                            r[d.index()] = Word::new(value.unwrap_or(Val::I(0)), None);
                        }
                        if yielded {
                            break Exit::Stop(ExecStatus::Yielded);
                        }
                    }
                }
            };
            fr.block = block;
            fr.ip = ip;
            match exit {
                Exit::Call(ret_to, g, args) => {
                    let callee = module.func(g);
                    debug_assert_eq!(
                        args.len(),
                        callee.n_params,
                        "arity mismatch calling {}",
                        callee.name
                    );
                    let callee_base = regs.len();
                    regs.resize(callee_base + callee.n_regs, Word::ZERO);
                    for (i, a) in args.iter().enumerate() {
                        regs[callee_base + i] = regs[base + a.index()];
                    }
                    frames.push(Frame {
                        func: g,
                        block: BlockId(0),
                        ip: 0,
                        base: callee_base,
                        ret_to,
                    });
                }
                Exit::Ret(w) => {
                    let done = frames.pop().expect("a frame returned");
                    regs.truncate(done.base);
                    match frames.last() {
                        Some(caller) => {
                            if let Some(d) = done.ret_to {
                                regs[caller.base + d.index()] = w.unwrap_or(Word::ZERO);
                            }
                        }
                        None => *done_value = w.map(Word::val),
                    }
                }
                Exit::Trap(t) => return ExecStatus::Trapped(t),
                Exit::Stop(status) => return status,
            }
        }
    }

    /// Run to completion with a generous default budget; panics on traps.
    /// Convenience for tests and single-shot program execution.
    pub fn run_to_completion(
        &mut self,
        module: &Module,
        hooks: &mut dyn RuntimeHooks,
    ) -> Option<Val> {
        loop {
            match self.run(module, hooks, u64::MAX / 4) {
                ExecStatus::Done(v) => return v,
                ExecStatus::Yielded => continue,
                ExecStatus::OutOfFuel => continue,
                ExecStatus::Trapped(t) => panic!("program trapped: {t:?}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::FunctionBuilder;
    use crate::inst::{BinOp, CmpOp, Intrinsic};

    fn run_main(m: &Module, args: &[Val]) -> (Option<Val>, ExecStats) {
        let main = m.by_name("main").expect("main");
        let mut it = Interp::new(InterpConfig::default());
        it.start(m, main, args);
        let v = it.run_to_completion(m, &mut NullHooks);
        (v, it.stats.clone())
    }

    #[test]
    fn flip_bit_corrupts_word_but_not_provenance() {
        let mut mem = Memory::new(&InterpConfig::default());
        let a = mem.alloc(64).expect("alloc");
        mem.store(a.base, Val::I(0x10), Some(a.id)).expect("store");
        let (old, new) = mem.flip_bit(a.base, 3).expect("int cell");
        assert_eq!(old, 0x10);
        assert_eq!(new, 0x18);
        // The stale provenance tag survives the flip — that mismatch is
        // what the CARAT audit keys on.
        assert_eq!(mem.load(a.base).expect("load"), (Val::I(0x18), Some(a.id)));
        // Float cells are not flippable.
        mem.store(a.base + 8, Val::F(1.5), None).expect("store");
        assert!(mem.flip_bit(a.base + 8, 0).is_none());
    }

    #[test]
    fn quarantine_range_withholds_freed_frame() {
        let mut mem = Memory::new(&InterpConfig::default());
        let a = mem.alloc(64).expect("alloc");
        let _b = mem.alloc(64).expect("alloc"); // pin the bump past `a`
        let base = a.base;
        // Live range: not free, so not quarantinable.
        assert!(!mem.quarantine_range(base, 64));
        mem.free(base).expect("free");
        assert!(mem.quarantine_range(base, 64));
        // The hole is gone: a fresh 64-byte alloc must land elsewhere.
        let c = mem.alloc(64).expect("alloc");
        assert_ne!(c.base, base);
        // Double quarantine is a no-op failure.
        assert!(!mem.quarantine_range(base, 64));
    }

    #[test]
    fn quarantine_range_splits_larger_hole() {
        let mut mem = Memory::new(&InterpConfig::default());
        let a = mem.alloc(24).expect("alloc");
        let _pin = mem.alloc(8).expect("alloc");
        mem.free(a.base).expect("free");
        // Quarantine only the middle word of the 24-byte hole.
        assert!(mem.quarantine_range(a.base + 8, 8));
        let holes = mem.free_blocks();
        assert!(holes.contains(&(a.base, 8)));
        assert!(holes.contains(&(a.base + 16, 8)));
        assert!(!holes
            .iter()
            .any(|&(b, s)| b <= a.base + 8 && a.base + 16 <= b + s));
    }

    #[test]
    fn arithmetic_program() {
        // main(x) = x * 2 + 3
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 1);
        let x = fb.param(0);
        let two = fb.const_i(2);
        let three = fb.const_i(3);
        let t = fb.bin(BinOp::Mul, x, two);
        let r = fb.bin(BinOp::Add, t, three);
        fb.ret(Some(r));
        m.add(fb.finish());
        let (v, stats) = run_main(&m, &[Val::I(10)]);
        assert_eq!(v, Some(Val::I(23)));
        assert!(stats.cycles > 0);
    }

    #[test]
    fn loop_sums_array() {
        // main(n): a = alloc(8n); a[i] = i; return sum(a[i])
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 1);
        let n = fb.param(0);
        let eight = fb.const_i(8);
        let bytes = fb.bin(BinOp::Mul, n, eight);
        let a = fb.alloc(bytes);
        let zero = fb.const_i(0);
        let i = fb.mov(zero);
        let sum = fb.mov(zero);
        let head = fb.new_block();
        let body = fb.new_block();
        let head2 = fb.new_block();
        let body2 = fb.new_block();
        let exit = fb.new_block();
        fb.br(head);
        // fill loop
        fb.switch_to(head);
        let c = fb.cmp(CmpOp::Lt, i, n);
        fb.cond_br(c, body, head2);
        fb.switch_to(body);
        let p = fb.gep(a, i, 8, 0);
        fb.store(p, 0, i);
        let one = fb.const_i(1);
        fb.bin_to(i, BinOp::Add, i, one);
        fb.br(head);
        // sum loop
        fb.switch_to(head2);
        fb.mov_to(i, zero);
        fb.br(body2);
        fb.switch_to(body2);
        let c2 = fb.cmp(CmpOp::Lt, i, n);
        let cont = fb.new_block();
        fb.cond_br(c2, cont, exit);
        fb.switch_to(cont);
        let p2 = fb.gep(a, i, 8, 0);
        let v = fb.load(p2, 0);
        fb.bin_to(sum, BinOp::Add, sum, v);
        let one2 = fb.const_i(1);
        fb.bin_to(i, BinOp::Add, i, one2);
        fb.br(body2);
        fb.switch_to(exit);
        fb.free(a);
        fb.ret(Some(sum));
        m.add(fb.finish());

        let (v, stats) = run_main(&m, &[Val::I(10)]);
        assert_eq!(v, Some(Val::I(45)));
        assert_eq!(stats.loads, 10);
        assert_eq!(stats.stores, 10);
    }

    #[test]
    fn recursive_fib() {
        // fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)  — Fig. 5's kernel.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("fib", 1);
        let n = fb.param(0);
        let two = fb.const_i(2);
        let c = fb.cmp(CmpOp::Lt, n, two);
        let base = fb.new_block();
        let rec = fb.new_block();
        fb.cond_br(c, base, rec);
        fb.switch_to(base);
        fb.ret(Some(n));
        fb.switch_to(rec);
        let one = fb.const_i(1);
        let n1 = fb.bin(BinOp::Sub, n, one);
        let n2 = fb.bin(BinOp::Sub, n, two);
        let fid = FuncId(0);
        let a = fb.call(fid, &[n1]);
        let b = fb.call(fid, &[n2]);
        let s = fb.bin(BinOp::Add, a, b);
        fb.ret(Some(s));
        m.add(fb.finish());

        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, FuncId(0), &[Val::I(15)]);
        let v = it.run_to_completion(&m, &mut NullHooks);
        assert_eq!(v, Some(Val::I(610)));
    }

    #[test]
    fn fuel_bounds_execution() {
        // Infinite loop must return OutOfFuel, and remain resumable.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 0);
        let head = fb.new_block();
        fb.br(head);
        fb.switch_to(head);
        fb.br(head);
        m.add(fb.finish());

        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, FuncId(0), &[]);
        assert_eq!(it.run(&m, &mut NullHooks, 1000), ExecStatus::OutOfFuel);
        let c1 = it.stats.cycles;
        assert_eq!(it.run(&m, &mut NullHooks, 1000), ExecStatus::OutOfFuel);
        assert!(it.stats.cycles >= c1 + 1000);
    }

    #[test]
    fn div_by_zero_traps() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 1);
        let x = fb.param(0);
        let z = fb.const_i(0);
        let r = fb.bin(BinOp::Div, x, z);
        fb.ret(Some(r));
        m.add(fb.finish());
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, FuncId(0), &[Val::I(5)]);
        assert_eq!(
            it.run(&m, &mut NullHooks, u64::MAX / 4),
            ExecStatus::Trapped(Trap::DivByZero)
        );
    }

    #[test]
    fn wild_access_traps() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 0);
        let bogus = fb.const_i(0xdead_beef);
        let _ = fb.load(bogus, 0);
        fb.ret(None);
        m.add(fb.finish());
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, FuncId(0), &[]);
        match it.run(&m, &mut NullHooks, u64::MAX / 4) {
            ExecStatus::Trapped(Trap::BadAccess { addr, write: false }) => {
                assert_eq!(addr, 0xdead_beef)
            }
            other => panic!("expected BadAccess, got {other:?}"),
        }
    }

    #[test]
    fn stack_overflow_traps() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 0);
        fb.call_void(FuncId(0), &[]);
        fb.ret(None);
        m.add(fb.finish());
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, FuncId(0), &[]);
        assert_eq!(
            it.run(&m, &mut NullHooks, u64::MAX / 4),
            ExecStatus::Trapped(Trap::StackOverflow)
        );
    }

    #[test]
    fn trace_intrinsic_records() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 0);
        let v = fb.const_i(7);
        fb.intr_void(Intrinsic::Trace, &[v]);
        fb.ret(None);
        m.add(fb.finish());
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, FuncId(0), &[]);
        it.run_to_completion(&m, &mut NullHooks);
        assert_eq!(it.stats.trace, vec![7]);
    }

    #[test]
    fn allocator_reuses_freed_blocks_and_coalesces() {
        let cfg = InterpConfig::default();
        let mut mem = Memory::new(&cfg);
        let a = mem.alloc(64).unwrap();
        let b = mem.alloc(64).unwrap();
        let c = mem.alloc(64).unwrap();
        assert_eq!(mem.n_allocs(), 3);
        mem.free(a.base).unwrap();
        mem.free(b.base).unwrap();
        // a and b coalesce into one 128-byte hole.
        assert_eq!(mem.free_holes(), 1);
        let d = mem.alloc(128).unwrap();
        assert_eq!(d.base, a.base, "coalesced hole should be reused");
        mem.free(c.base).unwrap();
        mem.free(d.base).unwrap();
    }

    #[test]
    fn move_allocation_patches_stored_pointers() {
        let cfg = InterpConfig::default();
        let mut mem = Memory::new(&cfg);
        let a = mem.alloc(64).unwrap();
        let holder = mem.alloc(16).unwrap();
        // holder[0] = &a[24]; a[24] = 99.
        mem.store(holder.base, Val::I((a.base + 24) as i64), Some(a.id))
            .unwrap();
        mem.store(a.base + 24, Val::I(99), None).unwrap();

        let (old, new) = mem.move_allocation(a.id).unwrap();
        assert_eq!(old, a.base);
        assert_ne!(new, old);
        // The stored pointer has been patched and still reaches the value.
        let (ptr, prov) = mem.load(holder.base).unwrap();
        assert_eq!(ptr.as_ptr(), new + 24);
        assert_eq!(prov, Some(a.id));
        let (v, _) = mem.load(ptr.as_ptr()).unwrap();
        assert_eq!(v, Val::I(99));
        // The old location is gone.
        assert!(mem.load(old + 24).is_err());
    }

    #[test]
    fn free_leaves_no_residual_words() {
        // Fill a large allocation (pointer-carrying words included), free
        // it, and reclaim the same region: every word must read back as the
        // fresh zero with no provenance, and a later move of the pointee
        // must find nothing to patch in the reclaimed region.
        let cfg = InterpConfig::default();
        let mut mem = Memory::new(&cfg);
        let big = mem.alloc(64 * 1024).unwrap();
        let other = mem.alloc(64).unwrap();
        for i in 0..big.size / 8 {
            mem.store(big.base + i * 8, Val::I(other.base as i64), Some(other.id))
                .unwrap();
        }
        assert!(mem.resident_pages() > 0);
        mem.free(big.base).unwrap();

        let again = mem.alloc(64 * 1024).unwrap();
        assert_eq!(again.base, big.base, "first-fit reclaims the hole");
        for i in 0..again.size / 8 {
            assert_eq!(mem.load(again.base + i * 8).unwrap(), (Val::I(0), None));
        }
        // Residual provenant words would be rewritten here; zeros must stay.
        mem.move_allocation(other.id).unwrap();
        for i in 0..again.size / 8 {
            assert_eq!(mem.load(again.base + i * 8).unwrap(), (Val::I(0), None));
        }
    }

    #[test]
    fn allocation_cache_never_serves_stale_entries() {
        let cfg = InterpConfig::default();
        let mut mem = Memory::new(&cfg);
        let a = mem.alloc(64).unwrap();
        mem.store(a.base, Val::I(1), None).unwrap(); // cache primed on `a`
        mem.free(a.base).unwrap();
        // A stale cache entry would answer this load; it must trap.
        assert!(mem.load(a.base).is_err());

        let b = mem.alloc(64).unwrap();
        assert_eq!(b.base, a.base, "hole reused");
        mem.store(b.base + 8, Val::I(2), None).unwrap();
        let (old, new) = mem.move_allocation(b.id).unwrap();
        assert!(mem.load(old + 8).is_err(), "old home must be dead");
        assert_eq!(mem.load(new + 8).unwrap(), (Val::I(2), None));
        assert_eq!(mem.base_of(b.id), Some(new));
        assert_eq!(mem.base_of(a.id), None);
    }

    /// The escape scan CARAT used before `find_int_word`: a `load` of
    /// every aligned word of the holder.
    fn scan_by_load(mem: &Memory, a: Allocation, value: u64) -> Option<u64> {
        (a.base..a.base + a.size)
            .step_by(8)
            .find(|&addr| matches!(mem.load(addr), Ok((Val::I(v), _)) if v as u64 == value))
    }

    #[test]
    fn find_int_word_matches_the_load_scan() {
        let mut mem = Memory::new(&InterpConfig::default());
        // Spans three pages, the last one never touched.
        let a = mem.alloc(1200).unwrap();
        let target = 0x4000_0000_u64;
        // A float word with the same bits comes first and must not match;
        // an earlier integer word equal to the value must win over a later
        // one, and an unaligned cell never counts.
        mem.store(a.base + 8, Val::F(f64::from_bits(target)), None)
            .unwrap();
        mem.store(a.base + 17, Val::I(target as i64), None).unwrap();
        mem.store(a.base + 600, Val::I(target as i64), Some(a.id))
            .unwrap();
        mem.store(a.base + 640, Val::I(target as i64), None)
            .unwrap();
        mem.store(a.base + 16, Val::I(7), None).unwrap();
        let values = [target, 7, 0, 1, f64::from_bits(target).to_bits() ^ 1];
        for value in values {
            let want = scan_by_load(&mem, a, value);
            assert_eq!(mem.find_int_word(a.base, a.base + a.size, value), want);
        }
        assert_eq!(
            mem.find_int_word(a.base, a.base + a.size, target),
            Some(a.base + 600)
        );
        // Zero matches the first never-written word, here the holder's
        // first word; and a holder on an untouched page.
        assert_eq!(mem.find_int_word(a.base, a.base + a.size, 0), Some(a.base));
        let b = mem.alloc(64).unwrap();
        assert_eq!(mem.find_int_word(b.base, b.base + b.size, 0), Some(b.base));
        assert_eq!(scan_by_load(&mem, b, 0), Some(b.base));
        assert_eq!(mem.find_int_word(b.base, b.base + b.size, 5), None);
        // Every word written: zero is found only where it was stored.
        for i in 0..8 {
            mem.store(b.base + 8 * i, Val::I(i as i64 + 1), None)
                .unwrap();
        }
        mem.store(b.base + 40, Val::I(0), None).unwrap();
        for value in 0..10 {
            assert_eq!(
                mem.find_int_word(b.base, b.base + b.size, value),
                scan_by_load(&mem, b, value)
            );
        }
    }

    /// Run `main` and return how it stopped.
    fn run_status(m: &Module) -> ExecStatus {
        let mut it = Interp::new(InterpConfig::default());
        it.start(m, FuncId(0), &[]);
        it.run(m, &mut NullHooks, u64::MAX / 4)
    }

    /// A `main` that builds a float, hands it to `site`, and returns.
    fn float_into(site: impl FnOnce(&mut FunctionBuilder, Reg)) -> Module {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 0);
        let f = fb.const_f(2.5);
        site(&mut fb, f);
        fb.ret(None);
        m.add(fb.finish());
        m
    }

    #[test]
    fn float_operand_of_integer_bin_op_traps() {
        for op in [BinOp::Add, BinOp::Mul, BinOp::Div, BinOp::Shl, BinOp::Xor] {
            let m = float_into(|fb, f| {
                let one = fb.const_i(1);
                let _ = fb.bin(op, one, f);
            });
            assert_eq!(run_status(&m), ExecStatus::Trapped(Trap::TypeError));
        }
        // The divisor alone decides a division by zero.
        let m = float_into(|fb, f| {
            let zero = fb.const_i(0);
            let _ = fb.bin(BinOp::Rem, f, zero);
        });
        assert_eq!(run_status(&m), ExecStatus::Trapped(Trap::DivByZero));
    }

    #[test]
    fn float_gep_operand_traps() {
        let m = float_into(|fb, f| {
            let one = fb.const_i(1);
            let _ = fb.gep(one, f, 8, 0);
        });
        assert_eq!(run_status(&m), ExecStatus::Trapped(Trap::TypeError));
        let m = float_into(|fb, f| {
            let one = fb.const_i(1);
            let _ = fb.gep(f, one, 8, 0);
        });
        assert_eq!(run_status(&m), ExecStatus::Trapped(Trap::TypeError));
    }

    #[test]
    fn float_load_address_traps() {
        let m = float_into(|fb, f| {
            let _ = fb.load(f, 0);
        });
        assert_eq!(run_status(&m), ExecStatus::Trapped(Trap::TypeError));
    }

    #[test]
    fn float_store_address_traps() {
        let m = float_into(|fb, f| {
            let one = fb.const_i(1);
            fb.store(f, 0, one);
        });
        assert_eq!(run_status(&m), ExecStatus::Trapped(Trap::TypeError));
    }

    #[test]
    fn float_alloc_size_traps() {
        let m = float_into(|fb, f| {
            let _ = fb.alloc(f);
        });
        assert_eq!(run_status(&m), ExecStatus::Trapped(Trap::TypeError));
    }

    #[test]
    fn float_free_traps() {
        let m = float_into(|fb, f| fb.free(f));
        assert_eq!(run_status(&m), ExecStatus::Trapped(Trap::TypeError));
    }

    #[test]
    fn float_trace_value_traps() {
        let m = float_into(|fb, f| fb.intr_void(Intrinsic::Trace, &[f]));
        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, FuncId(0), &[]);
        assert_eq!(
            it.run(&m, &mut NullHooks, u64::MAX / 4),
            ExecStatus::Trapped(Trap::TypeError)
        );
        assert!(it.stats.trace.is_empty());
    }

    #[test]
    fn provenance_flows_through_gep_and_memory() {
        // p = alloc; q = gep p; store q to memory; load it back: provenance
        // must survive the round trip.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("main", 0);
        let sz = fb.const_i(64);
        let p = fb.alloc(sz);
        let one = fb.const_i(1);
        let q = fb.gep(p, one, 8, 0);
        let slot_sz = fb.const_i(8);
        let slot = fb.alloc(slot_sz);
        fb.store(slot, 0, q);
        let back = fb.load(slot, 0);
        fb.store(back, 0, one); // store through the reloaded pointer
        fb.ret(Some(p));
        m.add(fb.finish());

        let mut it = Interp::new(InterpConfig::default());
        it.start(&m, FuncId(0), &[]);
        let p = it.run_to_completion(&m, &mut NullHooks).unwrap().as_ptr();
        let (v, _) = it.mem.load(p + 8).unwrap();
        assert_eq!(v, Val::I(1));
    }
}
