//! Host-time spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, a parent (the span open when it
//! began) and a step id. Spans stay in memory and are written once, at the
//! end, as Chrome trace-event JSON that Perfetto loads. Per name the tracer
//! also keeps total and self time (duration minus the time covered by
//! child spans) and a call count; those totals cover every span, including
//! those beyond the per-name cap on kept spans.
//!
//! With the tracer off, `begin`/`end` still time the call (the caller may
//! need the duration) but record nothing.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

/// Spans kept per name for the JSON file; later spans of that name only
/// update the totals.
const MAX_SPANS_PER_NAME: u64 = 5_000;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    step: u64,
}

#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub total_ns: u64,
    pub self_ns: u64,
    pub calls: u64,
}

/// An open span, returned by [`Tracer::begin`].
pub struct Open {
    start: Instant,
}

struct Frame {
    name: &'static str,
    start_ns: u64,
    index: Option<u32>,
    child_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<Frame>,
    totals: BTreeMap<&'static str, Totals>,
    step: u64,
}

impl Tracer {
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            totals: BTreeMap::new(),
            step: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Start a new step: spans opened from now on carry its id.
    pub fn next_step(&mut self) {
        self.step += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        if self.on {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            let index = (self.totals(name).calls < MAX_SPANS_PER_NAME).then(|| {
                self.spans.push(Span {
                    name,
                    start_ns,
                    end_ns: start_ns,
                    parent: self.open.last().and_then(|f| f.index),
                    step: self.step,
                });
                (self.spans.len() - 1) as u32
            });
            self.open.push(Frame {
                name,
                start_ns,
                index,
                child_ns: 0,
            });
        }
        Open { start }
    }

    /// Close the innermost open span; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        let dur = end.duration_since(open.start);
        if self.on {
            let f = self.open.pop().expect("end matches a begin");
            let end_ns = end.duration_since(self.epoch).as_nanos() as u64;
            let d = end_ns - f.start_ns;
            if let Some(i) = f.index {
                self.spans[i as usize].end_ns = end_ns;
            }
            if let Some(parent) = self.open.last_mut() {
                parent.child_ns += d;
            }
            let t = self.totals.entry(f.name).or_default();
            t.total_ns += d;
            t.self_ns += d.saturating_sub(f.child_ns);
            t.calls += 1;
        }
        dur.as_secs_f64()
    }

    /// Time `f` as one span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name);
        let r = f();
        (r, self.end(open))
    }

    /// Totals for `name` (zero when never recorded).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Self seconds of spans named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.totals(name).self_ns as f64 * 1e-9
    }

    /// Total seconds of spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.totals(name).total_ns as f64 * 1e-9
    }

    /// Spans recorded, kept or not.
    pub fn span_count(&self) -> u64 {
        self.totals.values().map(|t| t.calls).sum()
    }

    /// Per-span-name table of calls, total and self time, for stderr.
    pub fn self_time_table(&self) -> String {
        let mut s = format!(
            "{:<44} {:>9} {:>12} {:>12}\n",
            "span (layer call)", "calls", "total ms", "self ms"
        );
        for (name, t) in &self.totals {
            let _ = writeln!(
                s,
                "{:<44} {:>9} {:>12.3} {:>12.3}",
                name,
                t.calls,
                t.total_ns as f64 * 1e-6,
                t.self_ns as f64 * 1e-6
            );
        }
        s
    }

    /// The kept spans as Chrome trace-event JSON (complete events, times in
    /// microseconds). One track per workload, named by the first span
    /// segment (`fig7`, `serve`, `compile`, `kexec`).
    pub fn chrome_json(&self) -> String {
        let track = |name: &str| match name.split('.').next() {
            Some("fig7") => 1,
            Some("serve") => 2,
            Some("compile") => 3,
            Some("kexec") => 4,
            _ => 5,
        };
        let mut s = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (tid, label) in [
            (1, "fig7-coherence"),
            (2, "serve-campaign"),
            (3, "compile-run"),
            (4, "kernel-exec"),
        ] {
            let _ = writeln!(
                s,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{label}\"}}}},"
            );
        }
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or(-1, i64::from);
            let _ = writeln!(
                s,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"step\":{}}}}},",
                track(sp.name),
                sp.name,
                sp.start_ns as f64 / 1e3,
                sp.end_ns.saturating_sub(sp.start_ns) as f64 / 1e3,
                sp.step
            );
        }
        let _ = writeln!(
            s,
            "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"perfbench\"}}}}\n]}}"
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::on();
        let outer = tr.begin("outer");
        let inner = tr.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(inner);
        tr.end(outer);
        let (o, i) = (tr.totals("outer"), tr.totals("inner"));
        assert!(o.total_ns >= i.total_ns);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(tr.chrome_json().contains("\"parent\":0"));
    }
}
