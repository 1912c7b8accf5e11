//! `fig7-coherence`: the Fig. 7 coherence sweep.
//!
//! One step is one `coherence::experiment::run_one` call: one of the six
//! `fig7_mixes()` under one coherence mode (full MESI from the commodity
//! stack, selective from the interwoven stack, both composed through
//! `StackBuilder`) at 24 cores or at the 48-core scale-trend point. The
//! seed is the access-stream seed. Unit: simulated memory accesses in the
//! region of interest (stream, produce and consume phases).
//!
//! The probe replays each step through the public protocol API —
//! `round_stream_into` for generation, `System::read`/`write` per
//! core-round batch, `reclassify` at hand-offs, `check_swmr` per round —
//! timing each layer, and requires the replay to reproduce `run_one`'s
//! makespan and NoC energy bit for bit.

use crate::check::Checker;
use crate::trace::Tracer;
use crate::{guarded, run_step, Metric, StepResult, Workload};
use interweave::coherence::experiment::run_one;
use interweave::coherence::protocol::{Class, CohMode, CohStats, System, SystemConfig};
use interweave::coherence::workloads::{
    fig7_mixes, handoff_range, initialize_readonly, round_stream_into, Access, Layout, WorkloadMix,
};
use interweave::compose::StackBuilder;
use interweave::core::machine::MachineConfig;
use interweave::core::stack::StackConfig;
use std::time::{Duration, Instant};

/// Core counts: the scale-trend point and the paper's 24-core machine.
const SCALES: [usize; 2] = [48, 24];
/// The paper's machine, for the headline.
const PAPER_CORES: usize = 24;

const STEP: &str = "fig7.step";
const REPLAY: &str = "fig7.coherence.replay";
const RUN_ONE: &str = "fig7.coherence.experiment.run_one";
const GEN: &str = "fig7.coherence.workloads.round_stream_into";
const FULL: &str = "fig7.coherence.protocol.full.access_batch";
const SELECTIVE: &str = "fig7.coherence.protocol.selective.access_batch";
const RECLASSIFY: &str = "fig7.coherence.protocol.reclassify";
const INIT: &str = "fig7.coherence.protocol.init";
const SWMR: &str = "fig7.coherence.protocol.check_swmr";

struct Cell {
    mix: usize,
    cores: usize,
    mode: CohMode,
}

pub struct Fig7 {
    seed: u64,
    mixes: Vec<WorkloadMix>,
    cells: Vec<Cell>,
}

fn mode_name(mode: CohMode) -> &'static str {
    match mode {
        CohMode::Full => "full",
        CohMode::Selective => "selective",
    }
}

/// Accesses one `run_one` performs after initialization: each round's
/// stream and produce phase, plus the consume phase of every round after
/// the first.
fn roi_accesses(mix: &WorkloadMix, cores: usize) -> u64 {
    let (r, c, h) = (mix.rounds as u64, cores as u64, mix.handoff_lines);
    r * c * (mix.accesses_per_round as u64 + h) + r.saturating_sub(1) * c * h
}

impl Workload for Fig7 {
    fn setup(seed: u64) -> Fig7 {
        let mixes = fig7_mixes();
        let mut cells = Vec::new();
        for &cores in &SCALES {
            let mc = MachineConfig::xeon_server_2s().with_cores(cores);
            for stack in [StackConfig::commodity(), StackConfig::interwoven()] {
                let mode = StackBuilder::new(stack, mc.clone())
                    .build()
                    .expect("named presets compose")
                    .coherence;
                cells.extend((0..mixes.len()).map(|mix| Cell { mix, cores, mode }));
            }
        }
        // Warm-up: every cell once, one round at an eighth of the volume,
        // so each cell's full-size tables are allocated once before timing.
        for c in &cells {
            let mut small = mixes[c.mix].clone();
            small.rounds = 1;
            small.accesses_per_round /= 8;
            std::hint::black_box(run_one(&small, c.cores, c.mode, seed));
        }
        Fig7 { seed, mixes, cells }
    }

    fn cells(&self) -> usize {
        self.cells.len()
    }

    fn units(&self, cell: usize) -> u64 {
        let c = &self.cells[cell];
        roi_accesses(&self.mixes[c.mix], c.cores)
    }

    fn step(&mut self, cell: usize, tr: &mut Tracer) -> StepResult {
        let c = &self.cells[cell];
        let mix = &self.mixes[c.mix];
        let ((makespan, energy), _) = tr.time(RUN_ONE, || run_one(mix, c.cores, c.mode, self.seed));
        if makespan == 0 || !(energy.is_finite() && energy > 0.0) {
            return Err(format!(
                "{}: makespan {makespan}, energy {energy}",
                mix.name
            ));
        }
        let key = format!("fig7/{}@{}/{}", mix.name, c.cores, mode_name(c.mode));
        Ok(vec![
            (format!("{key}/makespan"), makespan),
            (format!("{key}/noc_energy_bits"), energy.to_bits()),
        ])
    }
}

/// What one replay saw: makespan, NoC energy, protocol statistics over the
/// region of interest, and the work counts the per-layer rates divide by.
struct Replay {
    makespan: u64,
    energy: f64,
    roi: CohStats,
    generated: u64,
    reclassified: u64,
}

fn stats_delta(a: &CohStats, b: &CohStats) -> CohStats {
    CohStats {
        reads: a.reads - b.reads,
        writes: a.writes - b.writes,
        l1_hits: a.l1_hits - b.l1_hits,
        dir_lookups: a.dir_lookups - b.dir_lookups,
        invalidations: a.invalidations - b.invalidations,
        forwards: a.forwards - b.forwards,
        writebacks: a.writebacks - b.writebacks,
        dram_fetches: a.dram_fetches - b.dram_fetches,
        deactivated: a.deactivated - b.deactivated,
    }
}

/// `run_one`'s round loop, rebuilt from the public protocol API with a span
/// around every layer call. Same order of operations, so the same result.
fn replay(mix: &WorkloadMix, cores: usize, mode: CohMode, seed: u64, tr: &mut Tracer) -> Replay {
    let batch = match mode {
        CohMode::Full => FULL,
        CohMode::Selective => SELECTIVE,
    };
    let open = tr.begin(INIT);
    let mut sys = System::new(SystemConfig {
        cores,
        l1_lines: 512,
        mode,
        ..SystemConfig::fig7(mode)
    });
    let layout = Layout::new(mix, cores);
    sys.reserve_dense(0x1000, layout.total_lines(mix));
    initialize_readonly(&mut sys, mix, &layout);
    if mode == CohMode::Selective {
        layout.classify(&mut sys, mix);
    }
    sys.energy = Default::default();
    let init = sys.stats.clone();
    tr.end(open);

    let mut makespan = 0u64;
    let mut per_core = vec![0u64; cores];
    let mut stream = Vec::new();
    let mut lines = Vec::new();
    let (mut generated, mut reclassified) = (0u64, 0u64);
    for round in 0..mix.rounds {
        per_core.iter_mut().for_each(|t| *t = 0);
        if round > 0 {
            for (core, pc) in per_core.iter_mut().enumerate() {
                let prev = (core + cores - 1) % cores;
                let open = tr.begin(batch);
                for l in handoff_range(mix, &layout, prev) {
                    *pc += sys.read(core, l);
                }
                tr.end(open);
                if mode == CohMode::Selective {
                    lines.clear();
                    lines.extend(handoff_range(mix, &layout, prev));
                    let open = tr.begin(RECLASSIFY);
                    *pc += sys.reclassify(&lines, Class::Private(prev));
                    tr.end(open);
                    reclassified += lines.len() as u64;
                }
            }
        }
        for (core, pc) in per_core.iter_mut().enumerate() {
            let open = tr.begin(GEN);
            round_stream_into(mix, &layout, core, round, seed, &mut stream);
            tr.end(open);
            generated += stream.len() as u64;
            let open = tr.begin(batch);
            for &acc in &stream {
                *pc += match acc {
                    Access::Read(l) => sys.read(core, l),
                    Access::Write(l) => sys.write(core, l),
                };
            }
            for l in handoff_range(mix, &layout, core) {
                *pc += sys.write(core, l);
            }
            tr.end(open);
        }
        let mut round_max = per_core.iter().copied().max().unwrap_or(0);
        if mode == CohMode::Selective {
            let mut handoff_max = 0u64;
            for core in 0..cores {
                lines.clear();
                lines.extend(handoff_range(mix, &layout, core));
                let open = tr.begin(RECLASSIFY);
                let cost = sys.reclassify(&lines, Class::Private((core + 1) % cores));
                tr.end(open);
                reclassified += lines.len() as u64;
                handoff_max = handoff_max.max(cost);
            }
            round_max += handoff_max;
        }
        makespan += round_max;
        let open = tr.begin(SWMR);
        sys.check_swmr();
        tr.end(open);
    }
    Replay {
        makespan,
        energy: sys.energy.interconnect.get(),
        roi: stats_delta(&sys.stats, &init),
        generated,
        reclassified,
    }
}

#[derive(Default)]
struct ModeTotals {
    accesses: u64,
    stats: CohStats,
}

impl ModeTotals {
    fn add(&mut self, s: &CohStats) {
        let t = &mut self.stats;
        self.accesses += s.reads + s.writes;
        t.l1_hits += s.l1_hits;
        t.dir_lookups += s.dir_lookups;
        t.invalidations += s.invalidations;
        t.forwards += s.forwards;
        t.writebacks += s.writebacks;
        t.dram_fetches += s.dram_fetches;
        t.deactivated += s.deactivated;
    }
}

/// The traced per-layer probe: whole sweeps of step + replay until
/// `budget` has passed (at least one sweep). Exact counters come from the
/// first sweep.
pub fn probe(seed: u64, budget: Duration, tr: &mut Tracer, ck: &mut Checker) -> Vec<Metric> {
    let mut w = Fig7::setup(seed);
    let mut totals = [ModeTotals::default(), ModeTotals::default()];
    let mut sim_makespan = 0u64;
    let (mut generated, mut reclassified, mut roi) = (0u64, 0u64, 0u64);
    let (mut full_acc, mut sel_acc) = (0u64, 0u64);
    // (speedup, energy cut) inputs at 24 cores: per mix, [full, selective].
    let mut headline = vec![[(0u64, 0f64); 2]; w.mixes.len()];
    let start = Instant::now();
    let mut first = true;
    while first || start.elapsed() < budget {
        for cell in 0..w.cells() {
            tr.next_step();
            let step = tr.begin(STEP);
            let out = run_step(&mut w, cell, tr);
            let c = &w.cells[cell];
            let mix = &w.mixes[c.mix];
            let open = tr.begin(REPLAY);
            let r = guarded(|| Ok(replay(mix, c.cores, c.mode, seed, tr)));
            tr.end(open);
            tr.end(step);
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    ck.check(Err(format!("{}@{} replay {e}", mix.name, c.cores)));
                    continue;
                }
            };
            let mi = (c.mode == CohMode::Selective) as usize;
            roi += w.units(cell);
            generated += r.generated;
            reclassified += r.reclassified;
            match c.mode {
                CohMode::Full => full_acc += r.roi.reads + r.roi.writes,
                CohMode::Selective => sel_acc += r.roi.reads + r.roi.writes,
            }
            let out = out.and_then(|o| {
                let (mk, e) = (o[0].1, o[1].1);
                if (r.makespan, r.energy.to_bits()) != (mk, e) {
                    return Err(format!(
                        "{}@{}: replay gave ({}, {}), run_one ({mk}, {})",
                        mix.name,
                        c.cores,
                        r.makespan,
                        r.energy,
                        f64::from_bits(e)
                    ));
                }
                if r.roi.reads + r.roi.writes != w.units(cell) {
                    return Err(format!("{}: replay access count drifted", mix.name));
                }
                Ok(o)
            });
            if first {
                totals[mi].add(&r.roi);
                sim_makespan += r.makespan;
                if c.cores == PAPER_CORES {
                    headline[c.mix][mi] = (r.makespan, r.energy);
                }
            }
            ck.check(out);
        }
        first = false;
    }

    let n = headline.len() as f64;
    let speedup = headline
        .iter()
        .map(|h| h[0].0 as f64 / h[1].0 as f64)
        .sum::<f64>()
        / n;
    let cut = headline.iter().map(|h| 1.0 - h[1].1 / h[0].1).sum::<f64>() / n;
    eprintln!(
        "fig7 headline at {} cores (information, not a metric): mean speedup {speedup:.3} (paper ~1.46), \
         NoC-energy cut {:.1} % (paper ~53 %)",
        PAPER_CORES,
        100.0 * cut
    );

    let ns = |s: f64, n: u64| s * 1e9 / n.max(1) as f64;
    let replayed = tr.total_s(GEN)
        + tr.total_s(FULL)
        + tr.total_s(SELECTIVE)
        + tr.total_s(RECLASSIFY)
        + tr.total_s(INIT)
        + tr.total_s(SWMR);
    let mut m = vec![
        Metric::new(
            "coherence.workloads.ns_per_access",
            ns(tr.self_s(GEN), generated),
            "ns",
        ),
        Metric::new(
            "coherence.protocol.full.ns_per_access",
            ns(tr.self_s(FULL), full_acc),
            "ns",
        ),
        Metric::new(
            "coherence.protocol.selective.ns_per_access",
            ns(tr.self_s(SELECTIVE), sel_acc),
            "ns",
        ),
        Metric::new(
            "coherence.protocol.reclassify_ns_per_line",
            ns(tr.self_s(RECLASSIFY), reclassified),
            "ns",
        ),
        Metric::new(
            "coherence.experiment.self_ns_per_access",
            ns(tr.total_s(RUN_ONE) - replayed, roi),
            "ns",
        ),
    ];
    for (mode, t) in ["full", "selective"].iter().zip(&totals) {
        let s = &t.stats;
        let p = |k: &str| format!("coherence.protocol.{mode}.{k}");
        m.push(Metric::exact(
            p("l1_hit_ratio"),
            s.l1_hits as f64 / t.accesses as f64,
            "ratio",
        ));
        for (k, v) in [
            ("dir_lookups", s.dir_lookups),
            ("invalidations", s.invalidations),
            ("forwards", s.forwards),
            ("writebacks", s.writebacks),
            ("dram_fetches", s.dram_fetches),
        ] {
            m.push(Metric::exact(p(k), v as f64, "count"));
        }
        // Full MESI never bypasses the directory: only selective mode has
        // deactivated accesses.
        if *mode == "selective" {
            m.push(Metric::exact(
                p("deactivated"),
                s.deactivated as f64,
                "count",
            ));
        }
    }
    m.push(Metric::exact(
        "coherence.sim_makespan_cycles",
        sim_makespan as f64,
        "cycles",
    ));
    m
}
