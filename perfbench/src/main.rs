//! Host-time benchmark of the interweave simulators.
//!
//! ```text
//! perfbench --workload <fig7-coherence|serve-campaign|compile-run|kernel-exec>
//!           --seed <n> --seconds <s> --trace <0|1> [--print-pins | --setup-only]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of one workload: set-up time,
//! simulated work units per host second, peak live heap and the share of
//! steps whose simulated outputs were correct. `--trace 1` is the separate traced
//! run: it probes every layer of all four workloads, writes the spans as
//! Chrome/Perfetto JSON under `perfbench/out/`, and prints the per-layer
//! metrics. The last stdout line is always one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--print-pins` prints the
//! simulated outputs of one pass of every workload for the seed, and the
//! traced run's exact metrics, in the format of `pins.txt`. `--setup-only` sets the workload up and prints the
//! seconds since process start. See `README.md` for the workloads and
//! metrics.

mod check;
mod compile;
mod fig7;
mod heap;
mod kexec;
mod serve;
mod stats;
mod trace;

use check::Checker;
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// One metric as printed: name, value, unit. An exact metric is a
/// simulated count that must repeat bit for bit for a seed.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub exact: bool,
}

impl Metric {
    /// A host-time metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            exact: false,
        }
    }

    /// An exact (simulated, deterministic) metric.
    pub fn exact(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            exact: true,
            ..Metric::new(name, value, unit)
        }
    }
}

/// The simulated outputs of one step, as `(key, value)` pairs. Floats are
/// carried as their bit patterns so comparisons are exact.
pub type Outputs = Vec<(String, u64)>;

/// A step's verdict: its outputs, or the invariant it broke.
pub type StepResult = Result<Outputs, String>;

/// A workload the end-to-end run measures. A workload is a fixed list of
/// cells; one step runs one cell through the workload's top-level entry
/// point and returns its simulated outputs.
pub trait Workload: Sized {
    /// Build inputs, compose stacks and run the warm-up pass.
    fn setup(seed: u64) -> Self;
    /// Number of cells in one sweep.
    fn cells(&self) -> usize;
    /// Simulated work units one step of `cell` completes.
    fn units(&self, cell: usize) -> u64;
    /// Run one step of `cell`, recording a span around each layer call.
    fn step(&mut self, cell: usize, tr: &mut Tracer) -> StepResult;
}

/// The four workloads, by their command-line names.
pub const WORKLOADS: [&str; 4] = [
    "fig7-coherence",
    "serve-campaign",
    "compile-run",
    "kernel-exec",
];

/// Share of the measured time spent on set-ups in child processes;
/// `setup_s` is the fastest of them and this process's own.
const SETUP_SHARE: f64 = 0.2;

/// Seeds whose simulated outputs are pinned in `pins.txt`: the default seed
/// and one held-out seed.
pub const PINNED_SEEDS: [u64; 2] = [1, 1729];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    print_pins: bool,
    setup_only: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <fig7-coherence|serve-campaign|compile-run|kernel-exec> \
--seed <n> --seconds <s> --trace <0|1> [--print-pins | --setup-only]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = PINNED_SEEDS[0];
    let mut seconds = 10.0;
    let mut trace = false;
    let mut print_pins = false;
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--print-pins" => print_pins = true,
            "--setup-only" => setup_only = true,
            "--workload" => {
                let v = value()?;
                let w = WORKLOADS.iter().find(|w| **w == v);
                workload = Some(*w.ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("bad seconds {v:?}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad trace {v:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = match (workload, print_pins) {
        (Some(w), _) => w,
        (None, true) => WORKLOADS[0],
        (None, false) => return Err("--workload is required".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        print_pins,
        setup_only,
    })
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.print_pins {
        print_pins(args.seed);
        return;
    }
    if args.setup_only {
        fn setup<W: Workload>(seed: u64, process_start: Instant) -> f64 {
            drop(std::hint::black_box(W::setup(seed)));
            process_start.elapsed().as_secs_f64()
        }
        let secs = match args.workload {
            "fig7-coherence" => setup::<fig7::Fig7>(args.seed, process_start),
            "serve-campaign" => setup::<serve::Serve>(args.seed, process_start),
            "compile-run" => setup::<compile::Compile>(args.seed, process_start),
            "kernel-exec" => setup::<kexec::KernelExec>(args.seed, process_start),
            _ => unreachable!("parse_args admits only known workloads"),
        };
        println!("{secs:?}");
        return;
    }
    let mut checker = Checker::new(args.seed);
    let metrics = if args.trace {
        traced_run(&args, &mut checker)
    } else {
        match args.workload {
            "fig7-coherence" => measured_run::<fig7::Fig7>(&args, process_start, &mut checker),
            "serve-campaign" => measured_run::<serve::Serve>(&args, process_start, &mut checker),
            "compile-run" => measured_run::<compile::Compile>(&args, process_start, &mut checker),
            "kernel-exec" => measured_run::<kexec::KernelExec>(&args, process_start, &mut checker),
            _ => unreachable!("parse_args admits only known workloads"),
        }
    };
    println!("{}", result_json(&checker, &metrics));
}

/// The end-to-end run. The workload is set up once, timed from process
/// start, and its cells are then stepped round robin until `--seconds`
/// have passed. Between steps, whenever less than `SETUP_SHARE` of the
/// time so far went to them, a child process sets the workload up once
/// more and reports its own time from process start; a set-up in this
/// process would reshape its heap and add to its peak. Both timings
/// report the fastest sample (best of N): throughput is one sweep's units
/// over the sum of each cell's fastest step, and `setup_s` is the fastest
/// set-up. On a shared host the same set-up or step runs at one of two
/// speeds, in stretches of a fraction of a second to minutes, and the
/// faster one (up to 1.5x faster) is taken for anywhere from a twentieth
/// to over half of a run. A median flips between the two speeds with that
/// share; the fastest of many samples spread over the run stays at the
/// faster one. A fixed share of the time, rather than a fixed count, gives
/// the short set-ups the most samples.
fn measured_run<W: Workload>(args: &Args, process_start: Instant, ck: &mut Checker) -> Vec<Metric> {
    let mut w = W::setup(args.seed);
    let mut fastest_setup = process_start.elapsed().as_secs_f64();
    let (mut setups, mut setup_time, mut children_ok) = (1, Duration::ZERO, true);

    let mut tr = Tracer::off();
    // Each cell's fastest step so far; a running minimum keeps the
    // benchmark's own heap constant however many steps run.
    let mut best = vec![f64::INFINITY; w.cells()];
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    'sweeps: loop {
        for (cell, cell_best) in best.iter_mut().enumerate() {
            let t = Instant::now();
            let out = run_step(&mut w, cell, &mut tr);
            *cell_best = cell_best.min(t.elapsed().as_secs_f64());
            ck.check(out);
            if children_ok && setup_time < start.elapsed().mul_f64(SETUP_SHARE) {
                let t = Instant::now();
                match setup_in_child(args) {
                    Ok(s) => (fastest_setup, setups) = (fastest_setup.min(s), setups + 1),
                    Err(e) => {
                        eprintln!("perfbench: set-up process failed: {e}");
                        children_ok = false;
                    }
                }
                setup_time += t.elapsed();
            }
            if start.elapsed() >= budget {
                break 'sweeps;
            }
        }
    }
    let ran = || (0..best.len()).filter(|&c| best[c].is_finite());
    let units: u64 = ran().map(|c| w.units(c)).sum();
    let busy: f64 = ran().map(|c| best[c]).sum();
    eprintln!("perfbench: setup_s is the fastest of {setups} set-ups");
    vec![
        Metric::new("setup_s", fastest_setup, "s"),
        Metric::new("sim_units_per_s", units as f64 / busy, "1/s"),
        Metric::new("peak_heap_mb", heap::peak_mb(), "MB"),
        Metric::new("ok_frac", ck.ok_frac(), "fraction"),
    ]
}

/// Run `--setup-only` in a child process; returns its set-up seconds.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--setup-only")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().parse()) {
        (true, Ok(secs)) => Ok(secs),
        _ => Err(format!("{}: {text:?}", out.status)),
    }
}

/// Run `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(format!("panicked: {}", stats::panic_text(&p))))
}

/// Run one step; a panic fails the step.
pub fn run_step<W: Workload>(w: &mut W, cell: usize, tr: &mut Tracer) -> StepResult {
    guarded(|| w.step(cell, tr))
}

/// The traced run: every layer probe of all four workloads (so the
/// per-layer table is complete whichever workload is named), then the
/// tracing overhead on the named workload's own steps.
fn traced_run(args: &Args, ck: &mut Checker) -> Vec<Metric> {
    let share = Duration::from_secs_f64(args.seconds / 5.0);
    let mut tr = Tracer::on();
    let mut metrics = probes(args.seed, share, &mut tr, ck);
    let ratio = match args.workload {
        "fig7-coherence" => trace_overhead::<fig7::Fig7>(args.seed, share, ck),
        "serve-campaign" => trace_overhead::<serve::Serve>(args.seed, share, ck),
        "compile-run" => trace_overhead::<compile::Compile>(args.seed, share, ck),
        "kernel-exec" => trace_overhead::<kexec::KernelExec>(args.seed, share, ck),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    // The exact metrics are checked like one more step's outputs.
    ck.check(Ok(exact_outputs(&metrics)));
    metrics.push(Metric::new("bench.trace_overhead_ratio", ratio, "ratio"));
    metrics.push(Metric::new(
        "bench.trace_spans",
        tr.span_count() as f64,
        "count",
    ));

    eprintln!("{}", tr.self_time_table());
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tr.chrome_json())) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    metrics
}

/// The layer probes of all four workloads, each run for `share`. The serve
/// probe goes first because its memory-growth metric reads the process's
/// high-water mark, which a larger earlier footprint would mask.
fn probes(seed: u64, share: Duration, tr: &mut Tracer, ck: &mut Checker) -> Vec<Metric> {
    let mut metrics = serve::probe(seed, share, tr, ck);
    metrics.extend(fig7::probe(seed, share, tr, ck));
    metrics.extend(compile::probe(seed, share, tr, ck));
    metrics.extend(kexec::probe(seed, share, tr, ck));
    metrics
}

/// The exact metrics as outputs, keyed `exact/<name>`.
fn exact_outputs(metrics: &[Metric]) -> Outputs {
    metrics
        .iter()
        .filter(|m| m.exact)
        .map(|m| (format!("exact/{}", m.name), m.value.to_bits()))
        .collect()
}

/// Median traced step time over median untraced step time, the same cells
/// interleaved, on one workload. Only the spans the step itself records
/// differ between the two; the probes' extra work is not in either side.
fn trace_overhead<W: Workload>(seed: u64, budget: Duration, ck: &mut Checker) -> f64 {
    let mut w = W::setup(seed);
    let n = w.cells();
    let mut on = Tracer::on();
    let mut off = Tracer::off();
    let (mut t_on, mut t_off) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    let start = Instant::now();
    while start.elapsed() < budget || t_on[n - 1].is_empty() {
        for cell in 0..n {
            for (tr, times) in [(&mut off, &mut t_off), (&mut on, &mut t_on)] {
                let t = Instant::now();
                let out = run_step(&mut w, cell, tr);
                times[cell].push(t.elapsed().as_secs_f64());
                ck.check(out);
            }
        }
    }
    let sum = |t: &[Vec<f64>]| t.iter().map(|v| stats::median(v)).sum::<f64>();
    sum(&t_on) / sum(&t_off)
}

fn result_json(ck: &Checker, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                stats::json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ck.failed() == 0 && ck.attempted() > 0,
        ck.attempted(),
        ck.failed(),
        body.join(", ")
    )
}

/// One pass of every cell of every workload, then the traced run's exact
/// metrics from one sweep of each probe, printed as pin lines.
fn print_pins(seed: u64) {
    fn pass<W: Workload>(name: &str, seed: u64) {
        // `name` only labels a failure: every output key carries its
        // workload's prefix.
        let mut w = W::setup(seed);
        let mut tr = Tracer::off();
        for cell in 0..w.cells() {
            match run_step(&mut w, cell, &mut tr) {
                Ok(outs) => {
                    for (k, v) in outs {
                        println!("{seed} {k} {v}");
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {name} cell {cell} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    pass::<fig7::Fig7>("fig7-coherence", seed);
    pass::<serve::Serve>("serve-campaign", seed);
    pass::<compile::Compile>("compile-run", seed);
    pass::<kexec::KernelExec>("kernel-exec", seed);
    let mut ck = Checker::unpinned();
    let metrics = probes(seed, Duration::ZERO, &mut Tracer::on(), &mut ck);
    if ck.failed() > 0 {
        eprintln!("perfbench: a probe step failed");
        std::process::exit(1);
    }
    for (k, v) in exact_outputs(&metrics) {
        println!("{seed} {k} {v}");
    }
}
