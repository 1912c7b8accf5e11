//! The paging + TLB model the commodity stack pays for translation.
//!
//! §I names paging as the first example limitation: "virtual memory in the
//! form of paging ... demands the existence of TLBs and other hardware
//! structures \[with\] substantial overheads in time and energy." §III's
//! Nautilus answer is identity mapping with the largest page size — "TLB
//! misses are extremely rare ... There are no page faults." This model
//! charges exactly those costs so the CARAT experiment can compare three
//! translation regimes: paging (this model), raw identity mapping (zero
//! cost), and CARAT guards (compiler-inserted checks).

use interweave_core::hash::LineSet;
use interweave_core::machine::CostModel;
use interweave_core::time::Cycles;
use std::collections::VecDeque;

/// A TLB with FIFO replacement (a deterministic stand-in for LRU) plus a
/// demand-fault set: the first touch of each page takes a page fault.
///
/// The page sets use the fast deterministic hasher: they are probed on
/// every guest access and never iterated.
#[derive(Debug, Clone)]
pub struct PagingModel {
    page_shift: u32,
    capacity: usize,
    fifo: VecDeque<u64>,
    present: LineSet,
    touched: LineSet,
    /// The page of the last miss. It is always resident, because only a
    /// miss evicts and that miss makes its own page the last one, so a
    /// repeat access to it is a hit without a lookup.
    last_miss: Option<u64>,
    tlb_walk: Cycles,
    page_fault: Cycles,
    /// TLB miss count.
    pub misses: u64,
    /// TLB hit count.
    pub hits: u64,
    /// Demand page faults taken.
    pub faults: u64,
    /// Total translation cycles charged.
    pub charged: Cycles,
}

impl PagingModel {
    /// A paging model using the cost model's TLB geometry.
    pub fn new(cost: &CostModel) -> PagingModel {
        PagingModel {
            page_shift: cost.page_size.trailing_zeros(),
            capacity: cost.tlb_entries,
            fifo: VecDeque::new(),
            present: LineSet::default(),
            touched: LineSet::default(),
            last_miss: None,
            tlb_walk: cost.tlb_walk,
            page_fault: cost.page_fault,
            misses: 0,
            hits: 0,
            faults: 0,
            charged: Cycles::ZERO,
        }
    }

    /// Translate one access; returns the cycles the translation costs.
    pub fn access(&mut self, addr: u64) -> Cycles {
        let page = addr >> self.page_shift;
        if self.last_miss == Some(page) || self.present.contains(&page) {
            self.hits += 1;
            return Cycles::ZERO;
        }
        self.misses += 1;
        let mut cost = self.tlb_walk;
        if self.touched.insert(page) {
            // First touch: demand fault (fill the page table).
            self.faults += 1;
            cost += self.page_fault;
        }
        if self.fifo.len() == self.capacity {
            if let Some(old) = self.fifo.pop_front() {
                self.present.remove(&old);
            }
        }
        self.fifo.push_back(page);
        self.present.insert(page);
        self.last_miss = Some(page);
        self.charged += cost;
        cost
    }

    /// Hit rate over all accesses so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(entries: usize) -> PagingModel {
        let mut c = CostModel::x64_default();
        c.tlb_entries = entries;
        PagingModel::new(&c)
    }

    #[test]
    fn first_touch_faults_then_hits() {
        let mut p = model(16);
        let c1 = p.access(0x1000);
        assert_eq!(p.faults, 1);
        assert!(c1 >= p.page_fault);
        let c2 = p.access(0x1008); // same page
        assert_eq!(c2, Cycles::ZERO);
        assert_eq!(p.hits, 1);
    }

    #[test]
    fn capacity_eviction_causes_repeat_misses() {
        let mut p = model(2);
        // Touch 3 pages round-robin: every access after warm-up misses.
        for round in 0..4 {
            for pg in 0..3u64 {
                p.access(pg * 4096);
            }
            let _ = round;
        }
        // 3 cold misses+faults, then each revisit misses (working set >
        // capacity with FIFO).
        assert_eq!(p.faults, 3);
        assert!(p.misses > 3, "misses = {}", p.misses);
        assert_eq!(p.hits, 0);
    }

    #[test]
    fn large_pages_eliminate_misses_for_small_footprints() {
        // Nautilus's identity mapping with the largest page size: with 2 MiB
        // pages a 1 MiB footprint fits in one entry → no misses after the
        // first touch.
        let mut c = CostModel::x64_default();
        c.page_size = 2 * 1024 * 1024;
        let mut p = PagingModel::new(&c);
        for i in 0..10_000u64 {
            p.access(0x10_000 + i * 64 % (1 << 20));
        }
        assert_eq!(p.misses, 1);
        assert_eq!(p.faults, 1);
        assert!(p.hit_rate() > 0.999);
    }

    #[test]
    fn charged_accumulates() {
        let mut p = model(8);
        p.access(0);
        p.access(4096);
        assert_eq!(p.charged, (p.tlb_walk + p.page_fault) * 2);
    }
}
