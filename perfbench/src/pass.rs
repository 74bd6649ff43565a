//! One pass of a workload: the simulated-clock results it produced, the
//! host cost it took, and the outcome of its correctness checks.

use std::collections::BTreeMap;
use std::sync::Arc;

use des::{RunReport, Simulation};
use obs::Layer;
use scramnet::RingStats;

use crate::host::{Probe, Spans};

/// How a pass is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    /// Record the benchmark's spans and the program's obs events.
    pub traced: bool,
    /// Worker threads for the parallel engine (ignored elsewhere).
    pub threads: usize,
}

impl Mode {
    /// An untraced pass on `threads` parallel workers.
    pub fn plain(threads: usize) -> Self {
        Mode {
            traced: false,
            threads,
        }
    }
}

/// The layers whose simulated self time the traced pass attributes.
pub const SIM_LAYERS: [(Layer, &str); 7] = [
    (Layer::Mpi, "mpi.sim_self_us"),
    (Layer::Adi, "adi.sim_self_us"),
    (Layer::Channel, "channel.sim_self_us"),
    (Layer::Device, "device.sim_self_us"),
    (Layer::Bbp, "bbp.sim_self_us"),
    (Layer::Nic, "nic.sim_self_us"),
    (Layer::Ring, "ring.sim_self_us"),
];

/// Everything one pass produced.
#[derive(Debug)]
pub struct Pass {
    /// How the pass ran.
    pub mode: Mode,
    /// Simulated-clock results and event counts. Deterministic for a
    /// seed: every pass of one seed must reproduce them exactly.
    pub sim: BTreeMap<&'static str, f64>,
    /// Counts that depend on host scheduling (parallel-engine stalls,
    /// mailbox depths), reported as medians, never compared.
    pub sched: BTreeMap<&'static str, f64>,
    /// Digest of the program's outputs (bank contents, delivered
    /// payloads); deterministic like `sim`.
    pub digest: u64,
    /// Host cost per phase.
    pub probe: Probe,
    /// The benchmark's spans around layer calls (enabled when traced).
    pub spans: Arc<Spans>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed correctness checks, described.
    pub problems: Vec<String>,
}

impl Pass {
    /// An empty pass in `mode`.
    pub fn new(mode: Mode) -> Self {
        Pass {
            mode,
            sim: BTreeMap::new(),
            sched: BTreeMap::new(),
            digest: 0,
            probe: Probe::default(),
            spans: Arc::new(Spans::new(mode.traced)),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Add `v` to simulated result `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sim.entry(key).or_insert(0.0) += v;
    }

    /// Raise simulated result `key` to at least `v`.
    pub fn max(&mut self, key: &'static str, v: f64) {
        let e = self.sim.entry(key).or_insert(v);
        *e = e.max(v);
    }

    /// Set simulated result `key`.
    pub fn set(&mut self, key: &'static str, v: f64) {
        self.sim.insert(key, v);
    }

    /// Simulated result `key` (0 when the pass never produced it).
    pub fn get(&self, key: &str) -> f64 {
        self.sim.get(key).copied().unwrap_or(0.0)
    }

    /// Record a failed check.
    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    /// Fold a sequential-engine run into the pass: dispatch counts, a
    /// deadlock check, and (when traced) the per-layer simulated self
    /// time of the run's obs events.
    pub fn finish_sim(&mut self, what: &str, sim: &Simulation, report: &RunReport) {
        self.add("des.dispatches", report.dispatches as f64);
        self.max("des.peak_queue_depth", report.peak_queue_depth as f64);
        if !report.is_clean() {
            self.failed += 1;
            self.problem(format!("{what}: deadlocked {:?}", report.deadlocked));
        }
        if self.mode.traced {
            let breakdown = obs::attribute(&sim.recorder().take_events());
            for (layer, key) in SIM_LAYERS {
                self.add(key, breakdown.layer_us(layer));
            }
        }
    }

    /// Fold a sequential ring's counters into the pass. `elapsed` is the
    /// run's simulated length.
    pub fn ring_stats(&mut self, s: &RingStats, links: usize, elapsed: des::Time) {
        self.add("scramnet.injections", s.injections as f64);
        self.add("scramnet.words_carried", s.words_carried as f64);
        self.add("scramnet.pio_writes", s.pio_writes as f64);
        self.add("scramnet.pio_reads", s.pio_reads as f64);
        self.add("scramnet.bit_errors", s.bit_errors as f64);
        self.add("scramnet.link_busy_ns", s.link_busy_ns as f64);
        self.add("scramnet.link_ns", (links as u64 * elapsed) as f64);
    }

    /// Account useful payload delivered over `elapsed` simulated time.
    pub fn payload(&mut self, bytes: u64, elapsed: des::Time) {
        self.add("payload_bytes", bytes as f64);
        self.add("payload_ns", elapsed as f64);
    }
}

/// FNV-1a over 32-bit words, for output digests.
pub fn fnv(mut h: u64, words: impl IntoIterator<Item = u32>) -> u64 {
    if h == 0 {
        h = 0xcbf2_9ce4_8422_2325;
    }
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
