//! `kernel-exec`: a preemptive executor campaign per OS point.
//!
//! One step builds a `kernel::Executor` for one `OsPoint` (Nautilus-like,
//! Aster-like framekernel, Linux-like; composed through `StackBuilder`)
//! configured as tab_profile's campaign: a 10k-cycle quantum, a
//! `NumaAllocator` for task stacks, a fault plan that drops and delays
//! kick IPIs and fails stack allocations, and the 5k-cycle watchdog. It
//! spawns tab_profile's task round (three `LoopWork` loops per CPU, one
//! cooperative yielder, one fork/join pair) `ROUNDS` times with
//! `try_spawn`, and runs it to quiescence. The seed drives the fault plan.
//! Unit: scheduler dispatches, counted as preemptions + yields + blocks +
//! completions.
//!
//! This is the workload that drives `core::event` with dense dispatch
//! events (about 8k per campaign, a few of them cancelled); fig7 schedules
//! only a few window events per round.

use crate::check::Checker;
use crate::trace::Tracer;
use crate::{run_step, stats, Metric, StepResult, Workload};
use interweave::compose::StackBuilder;
use interweave::core::machine::MachineConfig;
use interweave::core::stack::{OsPoint, StackConfig};
use interweave::core::telemetry::{Layer, Level, Sink};
use interweave::core::time::Cycles;
use interweave::core::{FaultConfig, FaultPlan};
use interweave::kernel::work::{LoopWork, ScriptedWork, Work, WorkStep};
use interweave::kernel::{Executor, NumaAllocator};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const CPUS: usize = 8;
const QUANTUM: Cycles = Cycles(10_000);
const WATCHDOG: Cycles = Cycles(5_000);
/// Copies of tab_profile's 27-task round spawned per campaign.
const ROUNDS: usize = 128;
/// Stack zones: 2^LEVELS blocks of 2^MIN_ORDER bytes (one 16 KiB task stack
/// each) per socket. tab_profile's 4 levels hold one round; 11 hold every
/// task of `ROUNDS` rounds at once, so only injected faults shed spawns.
const MIN_ORDER: u32 = 14;
const LEVELS: usize = 11;

const STEP: &str = "kexec.step";
const SPAWN: &str = "kexec.kernel.executor.try_spawn";
const RUN: [&str; 3] = [
    "kexec.kernel.executor.run.nk",
    "kexec.kernel.executor.run.aster",
    "kexec.kernel.executor.run.linux",
];
/// Executor statistics reported as exact per-layer counters.
const EXEC_EXACT: [&str; 5] = [
    "preemptions",
    "lost_kicks",
    "watchdog_rekicks",
    "recovered_stalls",
    "shed_tasks",
];

/// The layers the executor charges in the attribution ledger.
const LEDGER_LAYERS: [Layer; 3] = [Layer::Hardware, Layer::Kernel, Layer::Application];

const RUN_SINK: &str = "kexec.kernel.executor.run.full_sink";

pub struct KernelExec {
    mc: MachineConfig,
    os: Vec<(&'static str, OsPoint)>,
    fault_seed: u64,
    /// Dispatches each cell performs, learned from its first step.
    units: Vec<u64>,
    /// Host seconds of every traced `try_spawn` (the probe's quantiles).
    spawn_s: Vec<f64>,
    /// Dispatch count of the last step.
    last_dispatches: u64,
    /// Telemetry sink for the next step (`Sink::off()` by default).
    sink: Sink,
}

/// Tasks a campaign spawned and shed, and the compute cycles the spawned
/// ones must execute.
#[derive(Default)]
struct Tally {
    spawned: u64,
    shed: u64,
    planned: u64,
}

impl KernelExec {
    /// `try_spawn` `body`, which computes for `cycles`, on `cpu`.
    fn spawn(
        &mut self,
        e: &mut Executor,
        cpu: usize,
        body: Box<dyn Work>,
        cycles: u64,
        tally: &mut Tally,
        tr: &mut Tracer,
    ) -> Option<u64> {
        let (r, dt) = tr.time(SPAWN, || e.try_spawn(cpu, body));
        if tr.is_on() {
            self.spawn_s.push(dt);
        }
        match r {
            Ok(id) => {
                tally.spawned += 1;
                tally.planned += cycles;
                Some(id)
            }
            Err(_) => {
                tally.shed += 1;
                None
            }
        }
    }

    /// One round of tab_profile's campaign: compute loops on every CPU, a
    /// cooperative yielder and a fork/join pair.
    fn spawn_round(&mut self, e: &mut Executor, tally: &mut Tally, tr: &mut Tracer) {
        for cpu in 0..CPUS {
            for _ in 0..3 {
                let body = Box::new(LoopWork::new(30, Cycles(400)));
                self.spawn(e, cpu, body, 30 * 400, tally, tr);
            }
        }
        let yielder = (0..6)
            .flat_map(|_| [WorkStep::Compute(Cycles(2_000)), WorkStep::Yield])
            .chain([WorkStep::Done])
            .collect();
        let yielder = Box::new(ScriptedWork::new(yielder));
        self.spawn(e, 1, yielder, 6 * 2_000, tally, tr);
        let child = Box::new(LoopWork::new(10, Cycles(2_000)));
        if let Some(child) = self.spawn(e, 3, child, 10 * 2_000, tally, tr) {
            let parent = ScriptedWork::new(vec![
                WorkStep::Compute(Cycles(1_000)),
                WorkStep::Block(child),
                WorkStep::Compute(Cycles(3_000)),
                WorkStep::Done,
            ]);
            self.spawn(e, 0, Box::new(parent), 1_000 + 3_000, tally, tr);
        }
    }
}

impl Workload for KernelExec {
    fn setup(seed: u64) -> KernelExec {
        let mc = MachineConfig::xeon_server_2s().with_cores(CPUS);
        let os = [
            ("nk", StackConfig::nautilus()),
            ("aster", StackConfig::framekernel()),
            ("linux", StackConfig::commodity()),
        ]
        .into_iter()
        .map(|(name, cfg)| {
            let stack = StackBuilder::new(cfg, mc.clone())
                .build()
                .expect("named presets compose");
            (name, stack.config.os)
        })
        .collect();
        let mut k = KernelExec {
            mc,
            os,
            fault_seed: seed ^ 0x0050_F11E,
            units: vec![0; 3],
            spawn_s: Vec::new(),
            last_dispatches: 0,
            sink: Sink::off(),
        };
        // Warm-up: one campaign per OS point.
        for cell in 0..k.cells() {
            let _ = k.step(cell, &mut Tracer::off());
        }
        k
    }

    fn cells(&self) -> usize {
        self.os.len()
    }

    fn units(&self, cell: usize) -> u64 {
        self.units[cell]
    }

    fn step(&mut self, cell: usize, tr: &mut Tracer) -> StepResult {
        let (name, os) = self.os[cell];
        let mut e = Executor::new(self.mc.clone(), QUANTUM);
        e.set_os(os);
        e.set_telemetry(self.sink.clone());
        e.set_stack_allocator(NumaAllocator::new(self.mc.sockets, MIN_ORDER, LEVELS));
        e.set_fault_plan(FaultPlan::new(FaultConfig {
            drop_ipi: 0.25,
            delay_ipi: 0.25,
            alloc_fail: 0.15,
            ..FaultConfig::quiet(self.fault_seed)
        }));
        e.enable_watchdog(WATCHDOG);

        let mut tally = Tally::default();
        for _ in 0..ROUNDS {
            self.spawn_round(&mut e, &mut tally, tr);
        }
        let Tally {
            spawned,
            shed,
            planned,
        } = tally;

        let span = if self.sink.is_on() {
            RUN_SINK
        } else {
            RUN[cell]
        };
        let (completed, _) = tr.time(span, || e.run());
        let s = &e.stats;
        if !completed {
            return Err(format!("kexec/{name}: surviving tasks did not complete"));
        }
        if s.shed_tasks != shed {
            return Err(format!(
                "kexec/{name}: shed {} tasks, the spawns saw {shed}",
                s.shed_tasks
            ));
        }
        let executed: u64 = s.task_executed.iter().map(|c| c.get()).sum();
        if executed != planned {
            return Err(format!(
                "kexec/{name}: executed {executed} cycles of {planned} planned"
            ));
        }
        if self.sink.is_on() {
            self.sink
                .verify_attribution(e.attribution_clock())
                .map_err(|x| format!("kexec/{name}: attribution: {x:?}"))?;
        }
        self.last_dispatches = s.preemptions + s.yields + s.blocks + spawned;
        self.units[cell] = self.last_dispatches;
        let k = |f: &str| format!("kexec/{name}/{f}");
        Ok(vec![
            (k("makespan"), s.makespan.get()),
            (k("preemptions"), s.preemptions),
            (k("yields"), s.yields),
            (k("blocks"), s.blocks),
            (k("completions"), spawned),
            (k("switch_cycles"), s.switch_cycles.get()),
            (k("lost_kicks"), s.lost_kicks),
            (k("delayed_kicks"), s.delayed_kicks),
            (k("watchdog_checks"), s.watchdog_checks),
            (k("watchdog_rekicks"), s.watchdog_rekicks),
            (k("recovered_stalls"), s.recovered_stalls),
            (k("stall_cycles"), s.stall_cycles.get()),
            (k("shed_tasks"), s.shed_tasks),
            (k("executed_cycles"), executed),
        ])
    }
}

/// The traced per-layer probe: sweeps over the three OS points, each run
/// once with telemetry off and once into a `Level::Full` sink, until
/// `budget` has passed (at least one sweep). Exact counters come from the
/// first sweep's sink runs.
pub fn probe(seed: u64, budget: Duration, tr: &mut Tracer, ck: &mut Checker) -> Vec<Metric> {
    let mut w = KernelExec::setup(seed);
    let n = w.cells();
    // Dispatches of the untraced-sink campaigns, per OS point.
    let mut dispatches = vec![0u64; n];
    let mut exact: BTreeMap<String, u64> = BTreeMap::new();
    let start = Instant::now();
    let mut first = true;
    while first || start.elapsed() < budget {
        for (cell, done) in dispatches.iter_mut().enumerate() {
            tr.next_step();
            let step = tr.begin(STEP);
            let out = run_step(&mut w, cell, tr);
            tr.end(step);
            if let Ok(o) = &out {
                *done += w.last_dispatches;
                for (key, v) in o.iter().filter(|_| first) {
                    if let Some(f) = EXEC_EXACT.iter().find(|f| key.ends_with(&format!("/{f}"))) {
                        *exact.entry(format!("kernel.executor.{f}")).or_default() += v;
                    }
                }
            }
            ck.check(out);

            // The same campaign into a full telemetry sink.
            tr.next_step();
            w.sink = Sink::on(Level::Full);
            let spawns = w.spawn_s.len();
            let step = tr.begin(STEP);
            let out = run_step(&mut w, cell, tr);
            tr.end(step);
            w.spawn_s.truncate(spawns);
            let sink = std::mem::replace(&mut w.sink, Sink::off());
            if first && out.is_ok() {
                for f in ["scheduled", "popped", "cancelled", "compactions"] {
                    *exact.entry(format!("core.event.{f}")).or_default() +=
                        sink.counter(&format!("core.evq.{f}"));
                }
                for layer in LEDGER_LAYERS {
                    let rows = sink.attribution_rows();
                    let cycles: u64 = rows
                        .iter()
                        .filter(|r| r.layer == layer.name())
                        .map(|r| r.cycles)
                        .sum();
                    *exact
                        .entry(format!("sim.layer.{}.cycles", layer.name()))
                        .or_default() += cycles;
                }
            }
            ck.check(out);
        }
        first = false;
    }

    let mut m: Vec<Metric> = (0..n)
        .map(|cell| {
            Metric::new(
                format!("kernel.executor.{}.ns_per_dispatch", w.os[cell].0),
                tr.self_s(RUN[cell]) * 1e9 / dispatches[cell].max(1) as f64,
                "ns",
            )
        })
        .collect();
    let spawn_ns: Vec<f64> = w.spawn_s.iter().map(|s| s * 1e9).collect();
    m.push(Metric::new(
        "kernel.executor.spawn_ns_p50",
        stats::median(&spawn_ns),
        "ns",
    ));
    m.push(Metric::new(
        "kernel.executor.spawn_ns_p99",
        stats::quantile(&spawn_ns, 0.99),
        "ns",
    ));
    // Every sweep runs each campaign once into the sink and once without.
    let off: f64 = RUN.iter().map(|r| tr.total_s(r)).sum();
    m.push(Metric::new(
        "core.telemetry.sink_overhead_ratio",
        tr.total_s(RUN_SINK) / off,
        "ratio",
    ));
    let (scheduled, cancelled) = (exact["core.event.scheduled"], exact["core.event.cancelled"]);
    m.push(Metric::exact(
        "core.event.cancel_ratio",
        cancelled as f64 / scheduled.max(1) as f64,
        "ratio",
    ));
    for (k, v) in exact {
        let unit = if k.ends_with(".cycles") {
            "cycles"
        } else {
            "count"
        };
        m.push(Metric::exact(k, v as f64, unit));
    }
    m
}
