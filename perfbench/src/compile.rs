//! `compile-run`: the IR pipeline, CARAT and the interpreter.
//!
//! One step takes one program of `ir::programs::suite` through
//! `print_module` -> `parse_module` -> `verify_module` -> `carat::instrument`
//! (naive and optimised), interprets the parsed program under `NullHooks`,
//! the two instrumented ones under `CaratRuntime` and the parsed one under
//! `PagingHooks`, and then invokes the program's virtine image through a
//! fresh `Wasp` (one cold start, then warm reuses). The programs take no
//! random input, so the seed changes nothing here. Unit: guest
//! instructions interpreted.

use crate::check::Checker;
use crate::trace::Tracer;
use crate::{run_step, stats, Metric, StepResult, Workload};
use interweave::carat::overhead::PagingHooks;
use interweave::carat::{instrument, CaratRuntime};
use interweave::compose::{StackBuilder, TranslationSetup};
use interweave::core::machine::MachineConfig;
use interweave::core::stack::StackConfig;
use interweave::ir::interp::{ExecStatus, Interp, InterpConfig, NullHooks, RuntimeHooks};
use interweave::ir::programs::{suite, Program};
use interweave::ir::text::{parse_module, print_module};
use interweave::ir::types::Val;
use interweave::ir::verify::verify_module;
use interweave::ir::Module;
use interweave::virtines::context::VirtineOutcome;
use interweave::virtines::extract::{extract_one, VirtineImage};
use interweave::virtines::wasp::Wasp;
use std::time::{Duration, Instant};

/// Suite scale: about 3 M guest instructions per uninstrumented sweep.
const SCALE: i64 = 16;
/// TLB geometry of the paging run: the one `carat::overhead`'s table uses.
const TLB_ENTRIES: usize = 64;
const PAGE_SIZE: u64 = 4096;
/// Warm invocations after each cold start. Ten programs give 1010
/// invocations per sweep, enough that ten lie beyond the p99.
const WARM_INVOKES: usize = 100;
const BUDGET: u64 = u64::MAX / 4;

const STEP: &str = "compile.step";
const PRINT: &str = "compile.ir.text.print_module";
const PARSE: &str = "compile.ir.text.parse_module";
const VERIFY: &str = "compile.ir.verify.verify_module";
const INSTR_NAIVE: &str = "compile.carat.instrument.naive";
const INSTR_OPT: &str = "compile.carat.instrument.opt";
const RUN_NULL: &str = "compile.ir.interp.null_hooks";
const RUN_NAIVE: &str = "compile.carat.runtime.naive";
const RUN_OPT: &str = "compile.carat.runtime.opt";
const RUN_PAGING: &str = "compile.carat.paging";
const INVOKE: &str = "compile.virtines.wasp.invoke";

/// A virtine image with its arguments and the result it must return.
struct Image {
    image: VirtineImage,
    args: Vec<Val>,
    result: Option<Val>,
    insts: u64,
}

pub struct Compile {
    programs: Vec<Program>,
    images: Vec<Image>,
    mc: MachineConfig,
    /// Guest instructions each cell interprets, learned from its first step.
    units: Vec<u64>,
    /// Host seconds of every traced Wasp invocation (the probe's quantiles).
    invoke_s: Vec<f64>,
    /// Work counts of the last step, for the probe's per-unit rates.
    last: Counts,
}

#[derive(Default, Clone, Copy)]
struct Counts {
    static_insts: u64,
    null: u64,
    naive: u64,
    opt: u64,
    paging: u64,
    guest_cycles: u64,
    guards_naive: u64,
    guards_opt: u64,
    cold: u64,
    reuses: u64,
}

impl Counts {
    fn add(&mut self, x: &Counts) {
        self.static_insts += x.static_insts;
        self.null += x.null;
        self.naive += x.naive;
        self.opt += x.opt;
        self.paging += x.paging;
        self.guest_cycles += x.guest_cycles;
        self.guards_naive += x.guards_naive;
        self.guards_opt += x.guards_opt;
        self.cold += x.cold;
        self.reuses += x.reuses;
    }
}

fn val_bits(v: Option<Val>) -> u64 {
    match v {
        Some(Val::I(i)) => i as u64,
        Some(Val::F(f)) => f.to_bits(),
        None => u64::MAX,
    }
}

/// Run `m` from `p`'s entry to completion: (result, cycles, instructions).
fn interpret(
    m: &Module,
    p: &Program,
    hooks: &mut dyn RuntimeHooks,
) -> Result<(Option<Val>, u64, u64), String> {
    let mut it = Interp::new(InterpConfig::default());
    it.start(m, p.entry, &p.args);
    match it.run(m, hooks, BUDGET) {
        ExecStatus::Done(v) => Ok((v, it.stats.cycles, it.stats.insts)),
        other => Err(format!("{}: {other:?}", p.name)),
    }
}

fn static_insts(m: &Module) -> u64 {
    m.funcs.iter().map(|f| f.count_insts(|_| true) as u64).sum()
}

impl Workload for Compile {
    fn setup(_seed: u64) -> Compile {
        let mc = MachineConfig::xeon_server_2s();
        // The interwoven stack's translation regime is CARAT.
        let stack = StackBuilder::new(StackConfig::interwoven(), mc.clone())
            .build()
            .expect("the interwoven preset composes");
        assert!(matches!(stack.translation, TranslationSetup::Carat { .. }));
        // Virtine images of the test-sized suite, invoked a hundred times
        // per step; interpreting each once gives the result every
        // invocation must return.
        let images = suite(1)
            .iter()
            .map(|p| {
                let image = extract_one(&p.module, p.entry);
                let mut it = Interp::new(InterpConfig::default());
                it.start(&image.module, interweave::ir::FuncId(0), &p.args);
                let result = it.run_to_completion(&image.module, &mut NullHooks);
                Image {
                    image,
                    args: p.args.clone(),
                    result,
                    insts: it.stats.insts,
                }
            })
            .collect();
        // Warm-up: one sweep over the suite at scale 2.
        let mut c = Compile {
            programs: suite(2),
            images,
            mc,
            units: Vec::new(),
            invoke_s: Vec::new(),
            last: Counts::default(),
        };
        c.units = vec![0; c.programs.len()];
        for cell in 0..c.cells() {
            let _ = c.step(cell, &mut Tracer::off());
        }
        c.programs = suite(SCALE);
        c.units = vec![0; c.programs.len()];
        c
    }

    fn cells(&self) -> usize {
        self.programs.len()
    }

    fn units(&self, cell: usize) -> u64 {
        self.units[cell]
    }

    fn step(&mut self, cell: usize, tr: &mut Tracer) -> StepResult {
        let p = &self.programs[cell];
        let (text, _) = tr.time(PRINT, || print_module(&p.module));
        let (parsed, _) = tr.time(PARSE, || parse_module(&text));
        let m = parsed.map_err(|e| format!("{}: parse: {e:?}", p.name))?;
        let (errors, _) = tr.time(VERIFY, || verify_module(&m));
        if !errors.is_empty() {
            return Err(format!("{}: verify: {}", p.name, errors[0]));
        }
        if print_module(&m) != text {
            return Err(format!(
                "{}: print/parse round trip changed the module",
                p.name
            ));
        }
        let mut naive_m = m.clone();
        tr.time(INSTR_NAIVE, || instrument(&mut naive_m, false));
        let mut opt_m = m.clone();
        tr.time(INSTR_OPT, || instrument(&mut opt_m, true));

        let (base, _) = tr.time(RUN_NULL, || interpret(&m, p, &mut NullHooks));
        let (v, cycles, null) = base?;
        let mut naive_rt = CaratRuntime::new();
        let (naive, _) = tr.time(RUN_NAIVE, || interpret(&naive_m, p, &mut naive_rt));
        let (naive_v, naive_cycles, naive) = naive?;
        let mut opt_rt = CaratRuntime::new();
        let (opt, _) = tr.time(RUN_OPT, || interpret(&opt_m, p, &mut opt_rt));
        let (opt_v, opt_cycles, opt) = opt?;
        let mut paging_hooks = PagingHooks::new(TLB_ENTRIES, PAGE_SIZE);
        let (paging, _) = tr.time(RUN_PAGING, || interpret(&m, p, &mut paging_hooks));
        let (paging_v, paging_cycles, paging) = paging?;
        if [naive_v, opt_v, paging_v] != [v; 3] {
            return Err(format!(
                "{}: instrumented or paged result differs: base {v:?}, naive {naive_v:?}, opt {opt_v:?}, paging {paging_v:?}",
                p.name
            ));
        }

        let img = &self.images[cell];
        let mut wasp = Wasp::new(img.image.clone(), self.mc.clone());
        let mut latency = Vec::with_capacity(1 + WARM_INVOKES);
        for _ in 0..=WARM_INVOKES {
            let ((outcome, lat), dt) = tr.time(INVOKE, || wasp.invoke(&img.args, BUDGET));
            if tr.is_on() {
                self.invoke_s.push(dt);
            }
            if outcome != VirtineOutcome::Returned(img.result) {
                return Err(format!("{}: virtine returned {outcome:?}", img.image.name));
            }
            latency.push(lat.get());
        }
        if latency[1..].iter().any(|&l| l >= latency[0]) {
            return Err(format!(
                "{}: a warm invocation was not faster than the cold one",
                p.name
            ));
        }

        let invocations = 1 + WARM_INVOKES as u64;
        let c = Counts {
            static_insts: static_insts(&m),
            null,
            naive,
            opt,
            paging,
            guest_cycles: cycles,
            guards_naive: naive_rt.stats.guards + naive_rt.stats.range_guards,
            guards_opt: opt_rt.stats.guards + opt_rt.stats.range_guards,
            cold: wasp.stats.cold_starts,
            reuses: wasp.stats.reuses,
        };
        self.units[cell] = null + naive + opt + paging + invocations * img.insts;
        self.last = c;
        let k = |name: &str| format!("compile/{}/{name}", p.name);
        Ok(vec![
            (k("result_bits"), val_bits(v)),
            (k("static_insts"), c.static_insts),
            (k("base_cycles"), cycles),
            (k("base_insts"), null),
            (k("naive_cycles"), naive_cycles),
            (k("naive_insts"), naive),
            (k("opt_cycles"), opt_cycles),
            (k("opt_insts"), opt),
            (k("paging_cycles"), paging_cycles),
            (k("dyn_guards_naive"), c.guards_naive),
            (k("dyn_guards_opt"), c.guards_opt),
            (k("wasp_cold_cycles"), latency[0]),
            (k("wasp_warm_cycles"), latency[1]),
            (k("wasp_cold_starts"), c.cold),
            (k("wasp_reuses"), c.reuses),
        ])
    }
}

/// The traced per-layer probe: whole sweeps until `budget` has passed (at
/// least one). Exact counters come from the first sweep.
pub fn probe(seed: u64, budget: Duration, tr: &mut Tracer, ck: &mut Checker) -> Vec<Metric> {
    let mut w = Compile::setup(seed);
    let mut sum = Counts::default();
    let mut first = Counts::default();
    let start = Instant::now();
    let mut sweeps = 0;
    while sweeps == 0 || start.elapsed() < budget {
        for cell in 0..w.cells() {
            tr.next_step();
            let step = tr.begin(STEP);
            let out = run_step(&mut w, cell, tr);
            tr.end(step);
            if out.is_ok() {
                sum.add(&w.last);
                if sweeps == 0 {
                    first.add(&w.last);
                }
            }
            ck.check(out);
        }
        sweeps += 1;
    }
    let per_call = |name: &str| tr.self_s(name) * 1e6 / tr.totals(name).calls.max(1) as f64;
    let ns = |name: &str, n: u64| tr.self_s(name) * 1e9 / n.max(1) as f64;
    let invoke_us: Vec<f64> = w.invoke_s.iter().map(|s| s * 1e6).collect();
    vec![
        Metric::new(
            "ir.text.ns_per_inst",
            (tr.self_s(PRINT) + tr.self_s(PARSE)) * 1e9 / sum.static_insts.max(1) as f64,
            "ns",
        ),
        Metric::new("ir.verify.us_per_module", per_call(VERIFY), "us"),
        Metric::new(
            "carat.instrument.naive.us_per_module",
            per_call(INSTR_NAIVE),
            "us",
        ),
        Metric::new(
            "carat.instrument.opt.us_per_module",
            per_call(INSTR_OPT),
            "us",
        ),
        Metric::new("ir.interp.ns_per_inst", ns(RUN_NULL, sum.null), "ns"),
        Metric::new(
            "carat.runtime.naive.ns_per_inst",
            ns(RUN_NAIVE, sum.naive),
            "ns",
        ),
        Metric::new("carat.runtime.opt.ns_per_inst", ns(RUN_OPT, sum.opt), "ns"),
        Metric::new("carat.paging.ns_per_inst", ns(RUN_PAGING, sum.paging), "ns"),
        Metric::new(
            "virtines.wasp.invoke_us_p50",
            stats::median(&invoke_us),
            "us",
        ),
        Metric::new(
            "virtines.wasp.invoke_us_p99",
            stats::quantile(&invoke_us, 0.99),
            "us",
        ),
        Metric::exact("ir.interp.insts", first.null as f64, "count"),
        Metric::exact(
            "ir.interp.guest_cycles",
            first.guest_cycles as f64,
            "cycles",
        ),
        Metric::exact("carat.dyn_guards.naive", first.guards_naive as f64, "count"),
        Metric::exact("carat.dyn_guards.opt", first.guards_opt as f64, "count"),
        Metric::exact(
            "carat.guard_elision_ratio",
            1.0 - first.guards_opt as f64 / first.guards_naive as f64,
            "ratio",
        ),
        Metric::exact("virtines.wasp.cold_starts", first.cold as f64, "count"),
        Metric::exact("virtines.wasp.reuses", first.reuses as f64, "count"),
    ]
}
