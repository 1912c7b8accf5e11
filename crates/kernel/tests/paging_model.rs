//! Model-based property test for the paging model: [`PagingModel`], with
//! its fast-hasher page sets and its last-miss shortcut, must charge every
//! access exactly what the SipHash-set model it replaced charges, and keep
//! the same hit, miss, fault and charged-cycle counters, over random
//! address streams, TLB sizes and page sizes.

use interweave_core::machine::CostModel;
use interweave_core::time::Cycles;
use interweave_kernel::paging::PagingModel;
use proptest::prelude::*;

/// The paging model as it was before the fast-hasher sets, copied verbatim.
mod oracle {
    use interweave_core::machine::CostModel;
    use interweave_core::time::Cycles;
    use std::collections::{HashSet, VecDeque};

    /// A TLB with FIFO replacement (a deterministic stand-in for LRU) plus a
    /// demand-fault set: the first touch of each page takes a page fault.
    #[derive(Debug, Clone)]
    pub struct PagingModel {
        page_shift: u32,
        capacity: usize,
        fifo: VecDeque<u64>,
        present: HashSet<u64>,
        touched: HashSet<u64>,
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
                present: HashSet::new(),
                touched: HashSet::new(),
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
            let mut cost = Cycles::ZERO;
            if self.present.contains(&page) {
                self.hits += 1;
            } else {
                self.misses += 1;
                cost += self.tlb_walk;
                if !self.touched.contains(&page) {
                    // First touch: demand fault (fill the page table).
                    self.faults += 1;
                    cost += self.page_fault;
                    self.touched.insert(page);
                }
                if self.fifo.len() == self.capacity {
                    if let Some(old) = self.fifo.pop_front() {
                        self.present.remove(&old);
                    }
                }
                self.fifo.push_back(page);
                self.present.insert(page);
            }
            self.charged += cost;
            cost
        }
    }
}

/// One guest address: mostly inside a small working set of pages, so
/// repeats, evictions and re-misses all happen; sometimes anywhere.
fn addr_strategy() -> impl Strategy<Value = u64> {
    (0u8..9, 0u64..24, 0u64..4096, any::<u64>()).prop_map(|(pick, page, off, wild)| {
        if pick == 0 {
            wild
        } else {
            page * 4096 + off
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn paging_model_equals_the_siphash_model(
        tlb_entries in 0usize..12,
        huge_pages in any::<bool>(),
        stream in prop::collection::vec(addr_strategy(), 1..400),
    ) {
        let mut cost = CostModel::x64_default();
        cost.tlb_entries = tlb_entries;
        if huge_pages {
            cost.page_size = 2 * 1024 * 1024;
        }
        let mut model = PagingModel::new(&cost);
        let mut oracle = oracle::PagingModel::new(&cost);
        for &addr in &stream {
            let got: Cycles = model.access(addr);
            prop_assert_eq!(got, oracle.access(addr), "cost of {:#x}", addr);
            prop_assert_eq!(
                (model.hits, model.misses, model.faults, model.charged),
                (oracle.hits, oracle.misses, oracle.faults, oracle.charged)
            );
        }
    }
}
