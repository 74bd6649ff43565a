//! Two-clock benchmark of the SCRAMNet cluster simulator.
//!
//! Every metric is labelled by its clock: *sim* metrics are what the
//! modelled cluster would take (deterministic for a seed, and compared
//! exactly across passes), *host* metrics are what the simulator costs
//! on the machine running it. A run repeats one workload in passes for a
//! fixed host time and reports medians; with tracing it interleaves
//! traced passes, which time the benchmark's own calls into each layer
//! and fold the program's obs events into per-layer simulated self time.
//! See `README.md` for the workloads and what each metric should move.

pub mod host;
pub mod paper_micro;
pub mod pass;
pub mod ring_flood;
pub mod rpc_mixed;

use std::collections::BTreeMap;
use std::time::Instant;

use host::{ratio, Engine, Op, ALL_ENGINES};
use pass::{Mode, Pass};

/// Workers the parallel-engine workload runs on.
pub const PAR_THREADS: usize = 2;
/// Packets each node sources per `ring_flood` / `ring_flood_par` pass.
pub const FLOOD_PACKETS: usize = 500;
/// Fewest untraced passes a run measures, however long they take.
const MIN_PASSES: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline micro-measurements, closed loop.
    PaperMicro,
    /// Open-loop RPC incast plus an MPI sidecar, at load ×1 and ×4.
    RpcMixed,
    /// Event-only ring flood on the sequential engine.
    RingFlood,
    /// The same flood on the parallel engine.
    RingFloodPar,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperMicro,
        Workload::RpcMixed,
        Workload::RingFlood,
        Workload::RingFloodPar,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMicro => "paper_micro",
            Workload::RpcMixed => "rpc_mixed",
            Workload::RingFlood => "ring_flood",
            Workload::RingFloodPar => "ring_flood_par",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Parallel-engine workers the workload's measured passes use.
    pub fn threads(self) -> usize {
        match self {
            Workload::RingFloodPar => PAR_THREADS,
            _ => 1,
        }
    }

    /// One pass under `seed`. `verify` asks the floods for their full
    /// delivery check (the other workloads check every pass fully).
    pub fn pass(self, seed: u64, mode: Mode, verify: bool) -> Pass {
        match self {
            Workload::PaperMicro => paper_micro::pass(seed, mode),
            Workload::RpcMixed => rpc_mixed::pass(seed, mode),
            Workload::RingFlood => {
                ring_flood::pass_seq(ring_flood::Traffic::new(seed, FLOOD_PACKETS), mode, verify)
            }
            Workload::RingFloodPar => {
                ring_flood::pass_par(ring_flood::Traffic::new(seed, FLOOD_PACKETS), mode, verify)
            }
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// End-to-end metrics this program measures, with units and clocks.
/// `peak_rss_mb` is added by `run.py`, which measures it from outside.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("wall_s", "s", "host"),
    ("cpu_s", "s", "host"),
    ("setup_s", "s", "host"),
    ("ring_mb_s", "MB/s", "sim"),
];

/// Per-layer metrics of the traced run, with units and clocks.
pub const PER_LAYER: [(&str, &str, &str); 55] = [
    ("des.dispatches", "count", "sim"),
    ("des.peak_queue_depth", "count", "sim"),
    ("des.run_s", "s", "host"),
    ("des.setup_s", "s", "host"),
    ("des.host_ns_per_dispatch", "ns/dispatch", "host"),
    ("des.sys_share", "ratio", "host"),
    ("des.ctx_switches_per_dispatch", "switch/dispatch", "host"),
    ("par.events", "count", "sim"),
    ("par.host_ns_per_event", "ns/event", "host"),
    ("par.utilization", "ratio", "host"),
    ("par.stall_passes", "count", "host"),
    ("par.spilled", "count", "host"),
    ("par.max_mailbox_depth", "count", "host"),
    ("par.speedup_vs_1worker", "ratio", "host"),
    ("scramnet.injections", "count", "sim"),
    ("scramnet.words_carried", "count", "sim"),
    ("scramnet.pio_writes", "count", "sim"),
    ("scramnet.pio_reads", "count", "sim"),
    ("scramnet.bit_errors", "count", "sim"),
    ("scramnet.link_util", "ratio", "sim"),
    ("scramnet.host_ns_per_injection", "ns/injection", "host"),
    ("ring.sim_self_us", "us", "sim"),
    ("nic.sim_self_us", "us", "sim"),
    ("bbp.sends", "count", "sim"),
    ("bbp.recvs", "count", "sim"),
    ("bbp.no_credit", "count", "sim"),
    ("bbp.host_busy_ns_per_send", "ns/send", "host"),
    ("bbp.host_wait_ns_per_recv", "ns/recv", "host"),
    ("bbp.sim_self_us", "us", "sim"),
    ("smpi.calls", "count", "sim"),
    ("smpi.host_busy_ns_per_call", "ns/call", "host"),
    ("smpi.host_wait_ns_per_call", "ns/call", "host"),
    ("smpi.unexpected_peak", "count", "sim"),
    ("mpi.sim_self_us", "us", "sim"),
    ("adi.sim_self_us", "us", "sim"),
    ("channel.sim_self_us", "us", "sim"),
    ("device.sim_self_us", "us", "sim"),
    ("rpc.offered", "count", "sim"),
    ("rpc.sent", "count", "sim"),
    ("rpc.completed", "count", "sim"),
    ("rpc.shed", "count", "sim"),
    ("rpc.transport_shed", "count", "sim"),
    ("rpc.host_busy_ns_per_request", "ns/request", "host"),
    ("rpc.host_busy_ns_per_dispatch", "ns/dispatch", "host"),
    ("rpc.residency_p99_us", "us", "sim"),
    ("rpc.gen_lateness_us", "us", "sim"),
    ("netsim.host_s", "s", "host"),
    ("obs.trace_overhead_pct", "%", "host"),
    ("paper_dev_pct", "%", "sim"),
    ("bbp_lat_us", "us", "sim"),
    ("mpi_lat_us", "us", "sim"),
    ("rpc_p50_us", "us", "sim"),
    ("rpc_p999_us", "us", "sim"),
    ("rpc.samples", "count", "sim"),
    ("rpc_goodput_rps", "req/s", "sim"),
];

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Report {
    /// Metrics for the final JSON line: end-to-end, or per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Operations attempted over every pass.
    pub attempted: u64,
    /// Operations failed over every pass.
    pub failed: u64,
    /// Failed checks (empty when the run is correct).
    pub problems: Vec<String>,
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("host measurements are finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn med(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(passes.iter().map(f).collect())
}

const SEQ: [Engine; 2] = [Engine::Des, Engine::Netsim];

/// Compare a pass's simulated results with the reference pass (and,
/// for traced-only results, with the first traced pass).
fn compare(
    reference: &Pass,
    traced_ref: &mut BTreeMap<&'static str, f64>,
    pass: &Pass,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (&k, &v) in &pass.sim {
        let want = match reference.sim.get(k) {
            Some(&r) => r,
            None => *traced_ref.entry(k).or_insert(v),
        };
        if want != v {
            problems.push(format!(
                "sim metric {k} differs between passes of one seed: {want} vs {v} ({:?})",
                pass.mode
            ));
        }
    }
    if pass.digest != reference.digest {
        problems.push(format!(
            "output digest differs between passes ({:?})",
            pass.mode
        ));
    }
    problems
}

/// Run `workload` under `seed` for about `seconds` of measured passes,
/// after one warm-up pass that also serves as the reference for every
/// simulated result.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    let threads = workload.threads();
    let reference = workload.pass(seed, Mode::plain(threads), true);
    let mut problems = reference.problems.clone();
    let (mut attempted, mut failed) = (reference.attempted, reference.failed);
    let mut traced_ref = BTreeMap::new();
    let (mut plain, mut traced, mut one) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || plain.len() < MIN_PASSES {
        let mut modes = vec![Mode::plain(threads)];
        if trace {
            modes.push(Mode {
                traced: true,
                threads,
            });
            if workload == Workload::RingFloodPar {
                modes.push(Mode::plain(1));
            }
        }
        for mode in modes {
            let p = workload.pass(seed, mode, false);
            problems.extend(p.problems.iter().cloned());
            problems.extend(compare(&reference, &mut traced_ref, &p));
            attempted += p.attempted;
            failed += p.failed;
            match (mode.traced, mode.threads == threads) {
                (true, _) => traced.push(p),
                (false, true) => plain.push(p),
                (false, false) => one.push(p),
            }
        }
    }
    let mut traced_sim = reference.sim.clone();
    traced_sim.extend(traced_ref);
    let e2e = end_to_end(&reference, &plain);
    let layers = per_layer(&traced_sim, &plain, &traced, &one);
    let mut lines = vec![format!(
        "{}: seed {seed}, {} measured passes ({} traced), {attempted} operations, {failed} failed",
        workload.name(),
        plain.len(),
        traced.len()
    )];
    let clock = |name: &str| {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _, _)| *n == name)
            .map_or("", |(_, _, c)| c)
    };
    let line = |name: &str, value: f64, unit: &str| {
        format!("  {name:<32} {value:>16.6} {unit:<6} [{}]", clock(name))
    };
    for m in &e2e {
        lines.push(line(m.name, m.value, m.unit));
    }
    lines.push(line(
        "fail_frac",
        ratio(failed as f64, attempted as f64),
        "ratio",
    ));
    for &(name, unit, _) in PER_LAYER.iter().filter(|m| !m.0.contains('.')) {
        if let Some(&v) = reference.sim.get(name) {
            lines.push(line(name, v, unit));
        }
    }
    if workload == Workload::PaperMicro {
        lines.extend(paper_micro::anchor_lines(&reference));
    }
    if trace {
        lines.extend(layers.iter().map(|m| line(m.name, m.value, m.unit)));
    }
    let mut walls: Vec<f64> = plain
        .iter()
        .map(|p| p.probe.run_of(&ALL_ENGINES).wall_s)
        .collect();
    walls.sort_by(|a, b| a.partial_cmp(b).expect("host measurements are finite"));
    let q = |f: f64| walls[((walls.len() - 1) as f64 * f).round() as usize];
    lines.push(format!(
        "  wall_s over measured passes: min {:.6} p25 {:.6} p50 {:.6} p75 {:.6} max {:.6}",
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0)
    ));
    let (user, sys) = plain
        .iter()
        .map(|p| p.probe.run_of(&ALL_ENGINES).usage)
        .fold((0.0, 0.0), |(u, s), x| (u + x.user_s, s + x.sys_s));
    lines.push(format!(
        "  host CPU over measured run phases: user {user:.3} s, sys {sys:.3} s ({})",
        if sys > user {
            "sys > user"
        } else {
            "user >= sys"
        }
    ));
    Report {
        metrics: if trace { layers } else { e2e },
        lines,
        attempted,
        failed,
        problems,
    }
}

fn end_to_end(reference: &Pass, plain: &[Pass]) -> Vec<Metric> {
    let values = [
        med(plain, |p| p.probe.run_of(&ALL_ENGINES).wall_s),
        med(plain, |p| p.probe.run_of(&ALL_ENGINES).cpu_s()),
        med(plain, |p| p.probe.setup_of(&ALL_ENGINES).wall_s),
        ratio(
            reference.get("payload_bytes") / 1e6,
            reference.get("payload_ns") / 1e9,
        ),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), value)| Metric { name, value, unit })
        .collect()
}

fn per_layer(
    sim: &BTreeMap<&'static str, f64>,
    plain: &[Pass],
    traced: &[Pass],
    one: &[Pass],
) -> Vec<Metric> {
    let get = |k: &str| sim.get(k).copied().unwrap_or(0.0);
    let spans = |op: Op| {
        traced.iter().fold(host::OpTotals::default(), |mut acc, p| {
            let t = p.spans.totals(op);
            acc.calls += t.calls;
            acc.busy_ns += t.busy_ns;
            acc.wait_ns += t.wait_ns;
            acc
        })
    };
    let runs = traced.len().max(1) as u64;
    let sched = |k: &str| med(plain, |p| p.sched.get(k).copied().unwrap_or(0.0));
    let seq_run = |p: &Pass| p.probe.run_of(&SEQ);
    let dispatches = get("des.dispatches");
    let events = get("par.events");
    let par_wall = |ps: &[Pass]| med(ps, |p| p.probe.run_of(&[Engine::Par]).wall_s);
    let total_wall = |ps: &[Pass]| med(ps, |p| p.probe.run_of(&ALL_ENGINES).wall_s);
    let (send, recv, mpi) = (spans(Op::BbpSend), spans(Op::BbpRecv), spans(Op::Mpi));
    let value = |name: &str| -> f64 {
        match name {
            "des.run_s" => med(plain, |p| seq_run(p).wall_s),
            "des.setup_s" => med(plain, |p| p.probe.setup_of(&SEQ).wall_s),
            "des.host_ns_per_dispatch" => {
                med(plain, |p| ratio(seq_run(p).wall_s * 1e9, dispatches))
            }
            "des.sys_share" => med(plain, |p| ratio(seq_run(p).usage.sys_s, seq_run(p).cpu_s())),
            "des.ctx_switches_per_dispatch" => med(plain, |p| {
                let u = seq_run(p).usage;
                ratio((u.vcsw + u.ivcsw) as f64, dispatches)
            }),
            "par.host_ns_per_event" => ratio(par_wall(plain) * 1e9, events),
            "par.utilization" | "par.stall_passes" | "par.spilled" | "par.max_mailbox_depth" => {
                sched(name)
            }
            "par.speedup_vs_1worker" => ratio(par_wall(one), par_wall(plain)),
            "scramnet.link_util" => ratio(get("scramnet.link_busy_ns"), get("scramnet.link_ns")),
            "scramnet.host_ns_per_injection" => {
                ratio(total_wall(plain) * 1e9, get("scramnet.injections"))
            }
            "bbp.host_busy_ns_per_send" => send.busy_per(send.calls),
            "bbp.host_wait_ns_per_recv" => recv.wait_per(recv.calls),
            "smpi.calls" => (mpi.calls / runs) as f64,
            "smpi.host_busy_ns_per_call" => mpi.busy_per(mpi.calls),
            "smpi.host_wait_ns_per_call" => mpi.wait_per(mpi.calls),
            "rpc.host_busy_ns_per_request" => {
                let r = spans(Op::RpcRequest);
                r.busy_per(r.calls)
            }
            "rpc.host_busy_ns_per_dispatch" => {
                spans(Op::RpcServe).busy_per(get("rpc.dispatched") as u64 * runs)
            }
            "netsim.host_s" => med(plain, |p| {
                p.probe.setup_of(&[Engine::Netsim]).wall_s
                    + p.probe.run_of(&[Engine::Netsim]).wall_s
            }),
            "obs.trace_overhead_pct" => {
                (ratio(total_wall(traced), total_wall(plain)) - 1.0) * 100.0
            }
            _ => get(name),
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric {
            name,
            value: value(name),
            unit,
        })
        .collect()
}

/// The final JSON line of a run.
pub fn json_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.problems.is_empty() && report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
