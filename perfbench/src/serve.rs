//! `serve-campaign`: the open-loop virtine serving campaign.
//!
//! One step is one `virtines::serve::run_serve` call: Poisson arrivals at
//! 1.0x the calibrated saturation load for `DURATION_MS` of simulated
//! time, tab_serve's chaos plan at that load, windowed streaming metrics
//! and 2 host threads. The seed drives the arrival, fault and per-worker
//! streams. Unit: offered requests. The interpreter runs only in the
//! calibration inside each call.
//!
//! The probe times the same campaign under `MetricsPolicy::Sketched` (the
//! difference is the windowed-metrics cost), iterates `ArrivalGen` on its
//! own, feeds a `Sketch`, and measures peak-RSS growth from a campaign of
//! length d to one of length 2d.

use crate::check::Checker;
use crate::trace::Tracer;
use crate::{guarded, stats, Metric, StepResult, Workload};
use interweave::compose::StackBuilder;
use interweave::core::arrivals::{ArrivalGen, ArrivalKind};
use interweave::core::machine::MachineConfig;
use interweave::core::rng::SplitMix64;
use interweave::core::stack::StackConfig;
use interweave::core::stats::Sketch;
use interweave::core::time::Cycles;
use interweave::core::FaultConfig;
use interweave::ir::programs;
use interweave::ir::types::Val;
use interweave::kernel::watchdog::WatchdogPolicy;
use interweave::virtines::extract::{extract_one, VirtineImage};
use interweave::virtines::serve::{
    run_serve, MetricsPolicy, PoolOptions, RetryPolicy, ServeConfig, ServeReport, ServiceProfile,
};
use interweave::virtines::wasp::snapshot_restore;
use interweave::virtines::LaunchPath;
use std::time::{Duration, Instant};

/// Simulated length of one campaign.
const DURATION_MS: f64 = 1000.0;
/// Host threads of the measured step. The probe's campaigns use
/// `PROBE_THREADS`; see the README for why the step uses one.
const THREADS: usize = 1;
const PROBE_THREADS: usize = 2;
/// Logical serving workers, as in tab_serve.
const WORKERS: usize = 8;
/// Offered load as a multiple of the calibrated saturation capacity.
const LOAD_X: f64 = 1.0;
/// tab_serve's default roll-up window: 2 ms of simulated time at 3.3 GHz.
const WINDOW_CYCLES: u64 = 6_600_000;
/// Latencies fed to the sketch per probe pass.
const SKETCH_ADDS: usize = 1 << 20;

const STEP: &str = "serve.step";
const RUN: &str = "serve.virtines.serve.run_serve";
const RUN_SKETCHED: &str = "serve.virtines.serve.run_serve.sketched";
const CALIBRATE: &str = "serve.virtines.serve.calibrate";
const ARRIVALS: &str = "serve.core.arrivals.iterate";
const SKETCH: &str = "serve.core.stats.sketch.add";

pub struct Serve {
    image: VirtineImage,
    args: Vec<Val>,
    mc: MachineConfig,
    cfg: ServeConfig,
    offered: u64,
}

/// tab_serve's chaos plan at `load_x`.
fn chaos(load_x: f64, seed: u64) -> FaultConfig {
    FaultConfig {
        virtine_kill: (0.10 * load_x).min(0.5),
        drop_ipi: (0.05 * load_x).min(0.5),
        alloc_fail: (0.05 * load_x).min(0.5),
        ..FaultConfig::quiet(seed ^ 0xC4A05)
    }
}

impl Serve {
    fn with_duration(&self, duration_ms: f64, metrics: MetricsPolicy) -> ServeConfig {
        ServeConfig {
            duration_us: duration_ms * 1e3,
            metrics,
            ..self.cfg.clone()
        }
    }

    fn offered_by(cfg: &ServeConfig) -> u64 {
        ArrivalGen::new(cfg.arrival, cfg.mean_gap_us, cfg.duration_us, cfg.seed).count() as u64
    }

    fn campaign(
        &self,
        cfg: &ServeConfig,
        threads: usize,
        tr: &mut Tracer,
        span: &'static str,
    ) -> StepResult {
        let (mut r, _) = tr.time(span, || {
            run_serve(&self.image, &self.args, &self.mc, cfg, threads)
        });
        let expected = if cfg.duration_us == self.cfg.duration_us {
            self.offered
        } else {
            Serve::offered_by(cfg)
        };
        outputs(&mut r, expected, cfg)
    }
}

/// The report's simulated outputs, after its invariants: every fault
/// class's ledger balances, offered == completed + shed, the arrival
/// stream was served whole, and a windowed run rolled up windows.
fn outputs(r: &mut ServeReport, expected: u64, cfg: &ServeConfig) -> StepResult {
    if !r.accounts_balanced() {
        return Err(format!(
            "serve: fault ledger out of balance: {:?}",
            r.faults
        ));
    }
    if r.offered != r.completed + r.shed() {
        return Err(format!(
            "serve: offered {} != completed {} + shed {} (queue {}, deadline {}, retry {})",
            r.offered,
            r.completed,
            r.shed(),
            r.shed_queue,
            r.shed_deadline,
            r.shed_retry
        ));
    }
    if r.offered != expected {
        return Err(format!(
            "serve: offered {} of {expected} arrivals",
            r.offered
        ));
    }
    let windows = r.series.as_ref().map_or(0, |s| s.len() as u64);
    if matches!(cfg.metrics, MetricsPolicy::Windowed { .. }) && windows == 0 {
        return Err("serve: windowed run produced no windows".into());
    }
    let d = cfg.duration_us as u64 / 1000;
    let k = |name: &str| format!("serve/{d}ms/{name}");
    let mut o = vec![
        (k("offered"), r.offered),
        (k("admitted"), r.admitted),
        (k("completed"), r.completed),
        (k("shed_queue"), r.shed_queue),
        (k("shed_deadline"), r.shed_deadline),
        (k("shed_retry"), r.shed_retry),
        (k("wd_reclaims"), r.wd_reclaims),
        (k("p50_us_bits"), r.latency_us.p50().to_bits()),
        (k("p99_us_bits"), r.latency_us.p99().to_bits()),
        (k("p999_us_bits"), r.latency_us.p999().to_bits()),
        (k("pool/invocations"), r.pool.invocations),
        (k("pool/cold_starts"), r.pool.cold_starts),
        (k("pool/reuses"), r.pool.reuses),
        (k("pool/restarts"), r.pool.restarts),
        (k("pool/faults_detected"), r.pool.faults_detected),
        (k("pool/oom_evictions"), r.pool.oom_evictions),
        (k("pool/oom_misses"), r.pool.oom_misses),
        (k("pool/backoff_cycles"), r.pool.backoff_cycles),
    ];
    for a in &r.faults {
        let c = a.class.name().replace(' ', "_");
        o.push((k(&format!("faults/{c}/injected")), a.injected));
        o.push((k(&format!("faults/{c}/recovered")), a.recovered));
        o.push((k(&format!("faults/{c}/shed")), a.shed));
        o.push((k(&format!("faults/{c}/absorbed")), a.absorbed));
    }
    if windows > 0 {
        o.push((k("windows"), windows));
    }
    Ok(o)
}

impl Workload for Serve {
    fn setup(seed: u64) -> Serve {
        let mc = MachineConfig::xeon_server_2s();
        let stack = StackBuilder::new(StackConfig::interwoven(), mc.clone())
            .build()
            .expect("the interwoven preset composes");
        assert!(
            matches!(stack.isolation, LaunchPath::VirtineSnapshot),
            "the interwoven stack serves from snapshots"
        );
        let prog = programs::fib(12);
        let image = extract_one(&prog.module, prog.entry);
        let args = prog.args.clone();
        let profile = ServiceProfile::calibrate(&image, &args, u64::MAX / 4);
        assert!(profile.ok, "calibration run must return");
        // Saturation: WORKERS warm servers each drain one request per warm
        // service time (tab_serve's derivation).
        let warm =
            snapshot_restore(profile.dirty_pages).total_cycles(&mc) + Cycles(profile.guest_cycles);
        let sat_gap_us = mc.freq.us(warm).get() / WORKERS as f64;
        let cfg = ServeConfig {
            arrival: ArrivalKind::Poisson,
            mean_gap_us: sat_gap_us / LOAD_X,
            duration_us: DURATION_MS * 1e3,
            seed: seed ^ 0x5E4E,
            workers: WORKERS,
            queue_cap: 8,
            deadline_slack_us: 400.0,
            budget: profile.guest_cycles + profile.guest_cycles / 3 + 2,
            pool: PoolOptions {
                cache_capacity: 32,
                prewarm: 2,
                retry: RetryPolicy {
                    max_attempts: 4,
                    base: Cycles(2_000),
                    cap: Cycles(16_000),
                    jitter_frac: 0.25,
                },
            },
            faults: chaos(LOAD_X, seed),
            watchdog: WatchdogPolicy::new(Cycles(100_000)),
            metrics: MetricsPolicy::Windowed {
                window: Cycles(WINDOW_CYCLES),
            },
            blackbox: 64,
        };
        let offered = Serve::offered_by(&cfg);
        let mut s = Serve {
            image,
            args,
            mc,
            cfg,
            offered,
        };
        // Warm-up: a campaign a tenth as long.
        let short = s.with_duration(DURATION_MS / 10.0, s.cfg.metrics);
        std::hint::black_box(run_serve(&s.image, &s.args, &s.mc, &short, THREADS));
        s.cfg.duration_us = DURATION_MS * 1e3;
        s
    }

    fn cells(&self) -> usize {
        1
    }

    fn units(&self, _cell: usize) -> u64 {
        self.offered
    }

    fn step(&mut self, _cell: usize, tr: &mut Tracer) -> StepResult {
        self.campaign(&self.cfg, THREADS, tr, RUN)
    }
}

/// The traced per-layer probe. Runs first in the traced process: the
/// memory-growth metric compares high-water marks.
pub fn probe(seed: u64, budget: Duration, tr: &mut Tracer, ck: &mut Checker) -> Vec<Metric> {
    let w = Serve::setup(seed);

    // Peak-RSS growth from a campaign of length d to one of length 2d.
    let double = w.with_duration(2.0 * DURATION_MS, w.cfg.metrics);
    let base = w.cfg.clone();
    ck.check(guarded(|| {
        w.campaign(&base, PROBE_THREADS, &mut Tracer::off(), RUN)
    }));
    let hwm_d = stats::peak_rss_mb();
    // The 2d campaign is not pinned: its invariants are checked, its
    // outputs are not compared.
    let doubled = guarded(|| w.campaign(&double, PROBE_THREADS, &mut Tracer::off(), RUN));
    ck.check(doubled.map(|_| Vec::new()));
    let hwm_2d = stats::peak_rss_mb();
    let extra_offered = Serve::offered_by(&double) - w.offered;
    let rss_per_m = (hwm_2d - hwm_d) / (extra_offered as f64 / 1e6);

    let sketched = w.with_duration(DURATION_MS, MetricsPolicy::Sketched);
    let mut rng = SplitMix64::new(seed ^ 0x5CE7C4);
    // Latency-shaped inputs: log-uniform over 10 µs .. 10 ms.
    let latencies: Vec<f64> = (0..SKETCH_ADDS)
        .map(|_| 10f64.powf(1.0 + 3.0 * rng.f64()))
        .collect();
    let (mut t_win, mut t_sk, mut t_cal) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu_s, mut wall_s) = (0.0, 0.0);
    let (mut arrivals, mut adds, mut windows) = (0u64, 0u64, 0u64);
    let mut report: Option<ServeReport> = None;
    let start = Instant::now();
    while t_win.is_empty() || start.elapsed() < budget {
        tr.next_step();
        let step = tr.begin(STEP);
        let cpu0 = stats::process_cpu_s();
        let t = Instant::now();
        let out = guarded(|| w.campaign(&w.cfg, PROBE_THREADS, tr, RUN));
        let wall = t.elapsed().as_secs_f64();
        cpu_s += stats::process_cpu_s() - cpu0;
        wall_s += wall;
        t_win.push(wall);
        if let Ok(o) = &out {
            windows = o
                .iter()
                .find(|(k, _)| k.ends_with("/windows"))
                .map_or(0, |kv| kv.1);
        }
        ck.check(out);

        let t = Instant::now();
        let out = guarded(|| {
            let (mut r, _) = tr.time(RUN_SKETCHED, || {
                run_serve(&w.image, &w.args, &w.mc, &sketched, PROBE_THREADS)
            });
            let out = outputs(&mut r, w.offered, &sketched);
            report.get_or_insert(r);
            out
        });
        t_sk.push(t.elapsed().as_secs_f64());
        ck.check(out);

        let (_, dt) = tr.time(CALIBRATE, || {
            ServiceProfile::calibrate(&w.image, &w.args, u64::MAX / 4)
        });
        t_cal.push(dt);

        let c = &w.cfg;
        let (n, _) = tr.time(ARRIVALS, || {
            ArrivalGen::new(c.arrival, c.mean_gap_us, c.duration_us, c.seed)
                .fold(0u64, |n, t| n + std::hint::black_box(t > 0.0) as u64)
        });
        arrivals += n;

        let mut sk = Sketch::for_latency_us();
        tr.time(SKETCH, || {
            for &x in &latencies {
                sk.add(x);
            }
        });
        std::hint::black_box(&sk);
        adds += latencies.len() as u64;
        tr.end(step);
    }

    let per_req = |t: &[f64]| stats::median(t) * 1e9 / w.offered as f64;
    let (win, sk) = (per_req(&t_win), per_req(&t_sk));
    let Some(mut r) = report else {
        return Vec::new();
    };
    vec![
        Metric::new(
            "core.arrivals.ns_per_arrival",
            tr.self_s(ARRIVALS) * 1e9 / arrivals as f64,
            "ns",
        ),
        Metric::new(
            "virtines.serve.calibrate_ms",
            stats::median(&t_cal) * 1e3,
            "ms",
        ),
        Metric::new("virtines.serve.windowed.ns_per_request", win, "ns"),
        Metric::new("virtines.serve.sketched.ns_per_request", sk, "ns"),
        Metric::new("virtines.serve.rss_mb_per_m_offered", rss_per_m, "MB/Mreq"),
        Metric::new("host.parallelism", cpu_s / wall_s, "ratio"),
        Metric::new("core.telemetry.windowed.ns_per_request", win - sk, "ns"),
        Metric::new("core.telemetry.windowed_ratio", win / sk, "ratio"),
        Metric::new(
            "core.stats.sketch.ns_per_add",
            tr.self_s(SKETCH) * 1e9 / adds as f64,
            "ns",
        ),
        Metric::exact("virtines.serve.offered", r.offered as f64, "count"),
        Metric::exact("virtines.serve.completed", r.completed as f64, "count"),
        Metric::exact("virtines.serve.shed", r.shed() as f64, "count"),
        Metric::exact("virtines.serve.wd_reclaims", r.wd_reclaims as f64, "count"),
        Metric::exact("virtines.serve.goodput", r.goodput(), "ratio"),
        Metric::exact("virtines.serve.sim_p99_us", r.latency_us.p99(), "us"),
        Metric::exact(
            "virtines.pool.cold_starts",
            r.pool.cold_starts as f64,
            "count",
        ),
        Metric::exact("virtines.pool.reuses", r.pool.reuses as f64, "count"),
        Metric::exact("virtines.pool.restarts", r.pool.restarts as f64, "count"),
        Metric::exact("core.telemetry.windows", windows as f64, "count"),
    ]
}
