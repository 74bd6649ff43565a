//! `ring_flood` and `ring_flood_par`: event-only ring stress with no
//! simulated processes. Every node of a 16-node ring sources 64-byte
//! packets (16 words) every 1 µs into its own 32-word region, which
//! oversubscribes the links, with seeded transit bit errors at 1e-4 —
//! on the sequential engine (`scramnet::Ring`) or on `des::par`
//! (`scramnet::ParRing`, one shard per node).
//!
//! The seed draws each node's start phase, every packet's contents, and
//! the ring's error stream.

use std::sync::Arc;

use des::{Simulation, Time};
use scramnet::{CostModel, Delivery, ParRing, ParRingConfig, Ring, RingConfig};

use crate::host::Engine;
use crate::pass::{fnv, Mode, Pass};

/// Ring size.
pub const NODES: usize = 16;
/// Words per packet (one 64-byte message).
pub const WORDS: usize = 16;
/// Per-word transit bit-error probability.
pub const BER: f64 = 1e-4;
/// Packet spacing per source, ns.
pub const GAP_NS: Time = 1_000;
/// Bank size: the 16 × 32-word regions.
const BANK_WORDS: usize = NODES * 2 * WORDS;

/// The seeded traffic of one pass.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    seed: u64,
    /// Packets each node sources.
    pub packets: usize,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Traffic {
    /// `packets` per node under `seed`.
    pub fn new(seed: u64, packets: usize) -> Self {
        Traffic { seed, packets }
    }

    /// The ring's error-stream seed.
    pub fn error_seed(&self) -> u64 {
        splitmix(self.seed ^ 0xE770_5EED)
    }

    /// When `node` sources its first packet (within one gap).
    pub fn start(&self, node: usize) -> Time {
        splitmix(self.seed ^ (node as u64) << 40) % GAP_NS
    }

    /// When `node` sources packet `i`.
    pub fn at(&self, node: usize, i: usize) -> Time {
        self.start(node) + i as Time * GAP_NS
    }

    /// Where packet `i` of `node` lands: alternate halves of its region.
    pub fn addr(node: usize, i: usize) -> usize {
        node * 2 * WORDS + (i % 2) * WORDS
    }

    /// Contents of packet `i` of `node`.
    pub fn data(&self, node: usize, i: usize) -> Vec<u32> {
        let w = splitmix(self.seed ^ ((node as u64) << 32) ^ i as u64);
        (0..WORDS as u64)
            .map(|k| (w ^ k.wrapping_mul(0x9E37_79B9)) as u32)
            .collect()
    }

    fn total(&self) -> u64 {
        (NODES * self.packets) as u64
    }
}

/// Check the final banks: every writer's own region holds its last two
/// packets, and every replica block that differs from the writer's copy
/// is one the ring reported as corrupted (`corrupt`). Digests every bank
/// into the pass.
fn check_banks(p: &mut Pass, traffic: &Traffic, banks: &[Vec<u32>], corrupt: u64) {
    let mut digest = 0;
    for bank in banks {
        digest = fnv(digest, bank.iter().copied());
    }
    p.digest = digest;
    let mut differing = 0u64;
    for w in 0..NODES {
        for half in 0..2 {
            let last = (0..traffic.packets).rev().find(|i| i % 2 == half);
            let Some(last) = last else { continue };
            let addr = Traffic::addr(w, half);
            let truth = &banks[w][addr..addr + WORDS];
            if truth != traffic.data(w, last).as_slice() {
                p.failed += 1;
                p.problem(format!("node {w}: own bank lost its last write at {addr}"));
            }
            differing += (0..NODES)
                .filter(|&n| n != w && &banks[n][addr..addr + WORDS] != truth)
                .count() as u64;
        }
    }
    if differing > corrupt {
        p.failed += differing - corrupt;
        p.problem(format!(
            "{differing} replica blocks differ from their writer but only {corrupt} corruptions were counted"
        ));
    }
}

/// Account the flood's useful payload: every replica that arrived intact.
fn account(p: &mut Pass, traffic: &Traffic, corrupt: u64, end: Time) {
    let replicas = traffic.total() * (NODES as u64 - 1);
    p.attempted += traffic.total();
    p.payload((replicas - corrupt) * (WORDS * 4) as u64, end);
}

fn tick(ring: &Ring, traffic: Traffic, node: usize, i: usize, t: Time) {
    let data = Arc::new(traffic.data(node, i));
    ring.source_packet(node, t, Traffic::addr(node, i), data);
    if i + 1 < traffic.packets {
        let r = ring.clone();
        ring.handle()
            .schedule_at(t + GAP_NS, move |t| tick(&r, traffic, node, i + 1, t));
    }
}

/// One pass on the sequential engine. With `verify`, every bank apply
/// is recorded and compared with the packet sourced, and the corrupted
/// replicas found must be exactly the ring's own `bit_errors` count;
/// other passes are checked against the verified pass through their
/// counters and bank digest.
pub fn pass_seq(traffic: Traffic, mode: Mode, verify: bool) -> Pass {
    let mut p = Pass::new(mode);
    let (mut sim, ring, logs) = p.probe.setup(Engine::Des, || {
        let sim = Simulation::new();
        if mode.traced {
            sim.recorder().enable();
        }
        let ring = Ring::with_config(
            &sim.handle(),
            NODES,
            BANK_WORDS,
            CostModel::default(),
            RingConfig {
                bit_error_rate: BER,
                error_seed: traffic.error_seed(),
                ..RingConfig::default()
            },
        );
        for node in 0..NODES {
            let r = ring.clone();
            sim.handle()
                .schedule_at(traffic.start(node), move |t| tick(&r, traffic, node, 0, t));
        }
        let logs: Vec<_> = match verify {
            true => (0..NODES).map(|n| ring.record_deliveries(n)).collect(),
            false => Vec::new(),
        };
        (sim, ring, logs)
    });
    let report = p.probe.run(Engine::Des, || sim.run());
    p.finish_sim("ring_flood", &sim, &report);
    let stats = ring.stats();
    p.ring_stats(&stats, NODES, report.end_time);
    if stats.injections != traffic.total() || stats.words_carried != traffic.total() * WORDS as u64
    {
        p.failed += traffic.total().saturating_sub(stats.injections);
        p.problem(format!(
            "ring carried {} packets / {} words of {} sourced",
            stats.injections,
            stats.words_carried,
            traffic.total()
        ));
    }
    for (n, log) in logs.iter().enumerate() {
        let corrupt = count_corrupt(&mut p, &traffic, n, &log.lock());
        p.add("verify.corrupt_replicas", corrupt as f64);
    }
    if verify && p.get("verify.corrupt_replicas") != stats.bit_errors as f64 {
        p.failed += 1;
        p.problem(format!(
            "{} replicas arrived corrupted but the ring counted {} bit errors",
            p.get("verify.corrupt_replicas"),
            stats.bit_errors
        ));
    }
    let banks: Vec<Vec<u32>> = (0..NODES).map(|n| ring.snapshot(n)).collect();
    check_banks(&mut p, &traffic, &banks, stats.bit_errors);
    account(&mut p, &traffic, stats.bit_errors, report.end_time);
    p
}

/// One pass on the parallel engine with `mode.threads` workers. With
/// `verify`, every delivery is recorded and compared with the packet
/// sourced, which is how corrupted replicas are counted (`ParRing`
/// keeps no error counter); other passes are checked against the
/// verified pass through their bank digest.
pub fn pass_par(traffic: Traffic, mode: Mode, verify: bool) -> Pass {
    let mut p = Pass::new(mode);
    let mut ring = p.probe.setup(Engine::Par, || {
        let mut ring = ParRing::new(
            NODES,
            BANK_WORDS,
            CostModel::default(),
            ParRingConfig {
                bit_error_rate: BER,
                error_seed: traffic.error_seed(),
                record_deliveries: verify,
                ..ParRingConfig::default()
            },
        );
        for node in 0..NODES {
            for i in 0..traffic.packets {
                ring.seed_packet(
                    node,
                    traffic.at(node, i),
                    Traffic::addr(node, i),
                    traffic.data(node, i),
                );
            }
        }
        if mode.traced {
            let rec = Arc::new(obs::Recorder::new());
            rec.telemetry().enable();
            ring.set_recorder(rec);
        }
        ring
    });
    let report = p.probe.run(Engine::Par, || ring.run(mode.threads));
    p.add("par.events", report.dispatches as f64);
    p.add("scramnet.injections", traffic.total() as f64);
    p.add(
        "scramnet.words_carried",
        (traffic.total() * WORDS as u64) as f64,
    );
    if report.late_arrivals() > 0 {
        p.problem(format!(
            "{} late cross-shard arrivals",
            report.late_arrivals()
        ));
    }
    let (busy, stalls): (u64, u64) = report.shards.iter().fold((0, 0), |(b, s), sh| {
        (b + sh.busy_passes, s + sh.stall_passes)
    });
    p.sched.insert("par.stall_passes", stalls as f64);
    p.sched.insert(
        "par.utilization",
        busy as f64 / (busy + stalls).max(1) as f64,
    );
    p.sched.insert(
        "par.spilled",
        report.shards.iter().map(|s| s.spilled).sum::<u64>() as f64,
    );
    p.sched.insert(
        "par.max_mailbox_depth",
        report
            .shards
            .iter()
            .map(|s| s.max_mailbox_depth)
            .max()
            .unwrap_or(0) as f64,
    );
    let banks: Vec<Vec<u32>> = (0..NODES).map(|n| ring.snapshot(n)).collect();
    if verify {
        let corrupt = (0..NODES)
            .map(|n| count_corrupt(&mut p, &traffic, n, ring.deliveries(n)))
            .sum();
        p.add("scramnet.bit_errors", corrupt as f64);
        check_banks(&mut p, &traffic, &banks, corrupt);
        account(&mut p, &traffic, corrupt, report.end_time);
    } else {
        p.digest = banks.iter().fold(0, |d, b| fnv(d, b.iter().copied()));
        p.attempted += traffic.total();
    }
    p
}

/// Compare every delivery recorded at `node` with the packet its writer
/// sourced: the k-th delivery from writer `w` is `w`'s packet k. Returns
/// the number of corrupted replicas; a missing, extra, or
/// corrupted-at-source delivery is a failure.
fn count_corrupt(p: &mut Pass, traffic: &Traffic, node: usize, log: &[Delivery]) -> u64 {
    let mut corrupt = 0;
    let mut next = [0usize; NODES];
    for d in log {
        let i = next[d.writer];
        next[d.writer] += 1;
        if i >= traffic.packets || d.addr != Traffic::addr(d.writer, i) {
            p.failed += 1;
            p.problem(format!(
                "node {node}: unexpected delivery from {} at {}",
                d.writer, d.addr
            ));
            continue;
        }
        if d.data != traffic.data(d.writer, i) {
            if d.writer == node {
                p.failed += 1;
                p.problem(format!("node {node}: its own write {i} was corrupted"));
            }
            corrupt += 1;
        }
    }
    let missing: usize = next
        .iter()
        .map(|&k| traffic.packets.saturating_sub(k))
        .sum();
    if missing > 0 {
        p.failed += missing as u64;
        p.problem(format!("node {node}: {missing} packets never delivered"));
    }
    corrupt
}
