//! Correctness of simulated outputs.
//!
//! A step counts as failed when it panics, breaks an invariant, or returns
//! an output that differs from the value pinned in `pins.txt` for this seed
//! or, for a seed without pins, from the value the same key had earlier in
//! this run. Simulated outputs are deterministic, so any difference is a
//! defect, never noise. Failures are counted and reported on stderr; they
//! never abort the run.

use crate::{StepResult, PINNED_SEEDS};
use std::collections::BTreeMap;

const PINS: &str = include_str!("../pins.txt");

/// Failure messages printed per run; later ones are only counted.
const MAX_REPORTS: u64 = 10;

pub struct Checker {
    pins: Option<BTreeMap<String, u64>>,
    /// Reference value and its source, per output key.
    seen: BTreeMap<String, (u64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    pub fn new(seed: u64) -> Checker {
        let pins = PINNED_SEEDS.contains(&seed).then(|| {
            PINS.lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (s, k, v) = (f.next()?, f.next()?, f.next()?);
                    (s.parse() == Ok(seed)).then(|| (k.to_string(), v.parse().ok()))
                })
                .map(|(k, v)| (k, v.expect("pins.txt values are integers")))
                .collect()
        });
        Checker {
            pins,
            ..Checker::unpinned()
        }
    }

    /// A checker that holds every key to its first value in this run only,
    /// whatever the seed: for regenerating the pins.
    pub fn unpinned() -> Checker {
        Checker {
            pins: None,
            seen: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Judge one step.
    pub fn check(&mut self, result: StepResult) {
        self.attempted += 1;
        let problem = match result {
            Err(e) => Some(e),
            Ok(outs) => outs.into_iter().find_map(|(k, v)| self.mismatch(k, v)),
        };
        if let Some(p) = problem {
            self.failed += 1;
            if self.failed <= MAX_REPORTS {
                eprintln!("perfbench: step failed: {p}");
            }
        }
    }

    /// Compare `v` with the reference for `key`: its pin, or for a seed
    /// without pins the first value this run produced. The reference is
    /// fixed at the key's first sighting, so every later step that
    /// disagrees with it fails too.
    fn mismatch(&mut self, key: String, v: u64) -> Option<String> {
        if !self.seen.contains_key(&key) {
            let reference = match &self.pins {
                Some(pins) => match pins.get(&key) {
                    Some(&p) => (p, "pinned"),
                    None => return Some(format!("{key} = {v} has no pin")),
                },
                None => (v, "earlier in this run"),
            };
            self.seen.insert(key.clone(), reference);
        }
        let (want, source) = self.seen[&key];
        (want != v).then(|| format!("{key} = {v}, {source} {want}"))
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Share of attempted steps that passed.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }
}
