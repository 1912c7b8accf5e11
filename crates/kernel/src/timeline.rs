//! Per-CPU clocks with busy/idle/stolen accounting.
//!
//! The multi-CPU experiments (heartbeat, OpenMP, blending) simulate each CPU
//! as a timeline that alternates useful work, runtime overhead, and — on the
//! commodity stack — stolen time (OS noise). [`CpuTimeline`] keeps those
//! categories separate so reports can say *where* the cycles went, which is
//! the essence of every "overhead %" number in the paper.

use interweave_core::time::Cycles;

/// Cycle-accounting categories for one CPU.
#[derive(Debug, Clone, Default)]
pub struct CpuTimeline {
    now: Cycles,
    /// Cycles spent on application work.
    pub busy: Cycles,
    /// Cycles spent in runtime/kernel machinery (switches, barriers,
    /// signal handling).
    pub overhead: Cycles,
    /// Cycles stolen by OS noise (ticks, daemons).
    pub stolen: Cycles,
    /// Cycles idle (waiting at barriers, blocked).
    pub idle: Cycles,
}

impl CpuTimeline {
    /// A fresh timeline at time zero.
    pub fn new() -> CpuTimeline {
        CpuTimeline::default()
    }

    /// Current local time.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Run application work for `c` cycles.
    pub fn work(&mut self, c: Cycles) {
        self.now += c;
        self.busy += c;
    }

    /// Spend `c` cycles in runtime/kernel machinery.
    pub fn spend(&mut self, c: Cycles) {
        self.now += c;
        self.overhead += c;
    }

    /// Lose `c` cycles to OS noise.
    pub fn steal(&mut self, c: Cycles) {
        self.now += c;
        self.stolen += c;
    }

    /// Wait (idle) until absolute time `t`; no-op if `t` is in the past.
    pub fn wait_until(&mut self, t: Cycles) {
        if t > self.now {
            self.idle += t - self.now;
            self.now = t;
        }
    }

    /// Fraction of elapsed time spent on application work.
    pub fn efficiency(&self) -> f64 {
        if self.now.get() == 0 {
            return 0.0;
        }
        self.busy.as_f64() / self.now.as_f64()
    }

    /// Fraction of elapsed time lost to overhead + noise.
    pub fn overhead_fraction(&self) -> f64 {
        if self.now.get() == 0 {
            return 0.0;
        }
        (self.overhead + self.stolen).as_f64() / self.now.as_f64()
    }
}

/// The maximum `now` across a set of timelines: the parallel completion
/// time (makespan).
pub fn makespan(cpus: &[CpuTimeline]) -> Cycles {
    cpus.iter().map(|c| c.now()).max().unwrap_or(Cycles::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_accumulate_independently() {
        let mut t = CpuTimeline::new();
        t.work(Cycles(100));
        t.spend(Cycles(20));
        t.steal(Cycles(30));
        t.wait_until(Cycles(200));
        assert_eq!(t.now(), Cycles(200));
        assert_eq!(t.busy, Cycles(100));
        assert_eq!(t.overhead, Cycles(20));
        assert_eq!(t.stolen, Cycles(30));
        assert_eq!(t.idle, Cycles(50));
    }

    #[test]
    fn efficiency_and_overhead_fractions() {
        let mut t = CpuTimeline::new();
        t.work(Cycles(80));
        t.spend(Cycles(15));
        t.steal(Cycles(5));
        assert!((t.efficiency() - 0.8).abs() < 1e-12);
        assert!((t.overhead_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn wait_until_past_is_noop() {
        let mut t = CpuTimeline::new();
        t.work(Cycles(100));
        t.wait_until(Cycles(50));
        assert_eq!(t.now(), Cycles(100));
        assert_eq!(t.idle, Cycles::ZERO);
    }

    #[test]
    fn makespan_is_max() {
        let mut a = CpuTimeline::new();
        let mut b = CpuTimeline::new();
        a.work(Cycles(10));
        b.work(Cycles(30));
        assert_eq!(makespan(&[a, b]), Cycles(30));
        assert_eq!(makespan(&[]), Cycles::ZERO);
    }
}
