//! `paper_micro`: the paper's headline measurements as a closed loop with
//! one message in flight — BBP and MPI (channel interface) ping-pong at
//! 0–1024 B on 4 nodes, 4-node BBP multicast, native-multicast
//! `MPI_Bcast`/`MPI_Barrier` on 3 and 4 nodes, the point-to-point
//! SCRAMNet barrier, and the Fast Ethernet and ATM barrier comparators.
//!
//! The seed draws every payload and the phase at which each process
//! enters its timed section, within two BBP poll sweeps: latencies move
//! by a few nanoseconds from seed to seed, as they would between runs on
//! the real cluster, and are exact for one seed.

use std::sync::Arc;

use bbp::{BbpCluster, BbpConfig};
use des::{ProcCtx, Simulation, Time, TimeExt};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smpi::{CollectiveImpl, Mpi, MpiWorld, SmpiCosts};

use crate::host::{Engine, Op};
use crate::pass::{Mode, Pass};

/// Ping-pong message sizes, bytes.
pub const SIZES: [usize; 5] = [0, 4, 64, 256, 1024];
const WARMUP: u64 = 2;
const REPS: u64 = 8;
/// Seeded entry phases are drawn from `0..PHASE_NS` (two poll sweeps).
const PHASE_NS: Time = 200;
/// Collectives enter their timed call after this much warm-up time.
const ALIGN: Time = 5_000_000;

/// The paper's headline anchors (EXPERIMENTS.md), microseconds.
pub const ANCHORS: [(&str, f64); 10] = [
    ("BBP one-way, 0 B", 6.5),
    ("BBP one-way, 4 B", 7.8),
    ("MPI one-way, 0 B", 44.0),
    ("MPI one-way, 4 B", 49.0),
    ("BBP 4-node multicast, 4 B", 10.1),
    ("4-node MPI_Barrier, native multicast", 37.0),
    ("3-node MPI_Barrier, native multicast", 37.0),
    ("3-node MPI_Barrier, SCRAMNet point-to-point", 179.0),
    ("3-node MPI_Barrier, Fast Ethernet", 554.0),
    ("3-node MPI_Barrier, ATM", 660.0),
];

/// What the processes of one measurement report back.
#[derive(Debug, Default)]
struct Tally {
    good: u64,
    t0: Time,
    t1: Time,
    bbp_sends: u64,
    bbp_recvs: u64,
    bbp_no_credit: u64,
    unexpected_peak: usize,
}

type Shared = Arc<Mutex<Tally>>;

impl Tally {
    fn bbp(t: &Shared, ep: &bbp::BbpEndpoint) {
        let s = ep.stats();
        let mut t = t.lock();
        t.bbp_sends += s.sends + s.mcasts;
        t.bbp_recvs += s.recvs;
        t.bbp_no_credit += s.no_credit_failures;
    }

    fn mpi(t: &Shared, mpi: &Mpi) {
        let mut t = t.lock();
        t.unexpected_peak = t.unexpected_peak.max(mpi.adi().unexpected_peak());
    }
}

fn bbp_config(nodes: usize) -> BbpConfig {
    let mut cfg = BbpConfig::for_nodes(nodes);
    cfg.data_words = 16 * 1024; // room for 8 KB messages plus headers
    cfg
}

/// The network under an MPI measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Net {
    Scramnet(CollectiveImpl),
    FastEthernet,
    Atm,
}

impl Net {
    fn engine(self) -> Engine {
        match self {
            Net::Scramnet(_) => Engine::Des,
            Net::FastEthernet | Net::Atm => Engine::Netsim,
        }
    }

    fn world(self, sim: &Simulation, nodes: usize) -> MpiWorld {
        match self {
            Net::Scramnet(coll) => MpiWorld::scramnet_with(
                &sim.handle(),
                bbp_config(nodes),
                scramnet::CostModel::default(),
                SmpiCosts::channel_interface(),
                coll,
            ),
            Net::FastEthernet => MpiWorld::fast_ethernet(&sim.handle(), nodes),
            Net::Atm => MpiWorld::atm(&sim.handle(), nodes),
        }
    }
}

/// A fresh simulation, recording obs events when the pass is traced.
fn new_sim(mode: Mode) -> Simulation {
    let sim = Simulation::new();
    if mode.traced {
        sim.recorder().enable();
    }
    sim
}

fn payload(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen()).collect()
}

/// Run `sim`, fold its results into the pass, and count `planned`
/// operations of which `tally.good` succeeded.
fn finish(
    p: &mut Pass,
    what: &str,
    engine: Engine,
    mut sim: Simulation,
    world: Option<&BbpCluster>,
    tally: &Shared,
    planned: u64,
) -> (des::RunReport, Tally) {
    let report = p.probe.run(engine, || sim.run());
    p.finish_sim(what, &sim, &report);
    if let Some(cluster) = world {
        p.ring_stats(
            &cluster.ring().stats(),
            cluster.ring().nodes(),
            report.end_time,
        );
    }
    let t = std::mem::take(&mut *tally.lock());
    p.attempted += planned;
    if t.good < planned {
        p.failed += planned - t.good;
        p.problem(format!("{what}: {}/{planned} operations correct", t.good));
    }
    p.add("bbp.sends", t.bbp_sends as f64);
    p.add("bbp.recvs", t.bbp_recvs as f64);
    p.add("bbp.no_credit", t.bbp_no_credit as f64);
    p.max("smpi.unexpected_peak", t.unexpected_peak as f64);
    (report, t)
}

/// BBP ping-pong between ring neighbours 0 and 1 on 4 nodes; one-way
/// latency in microseconds.
fn bbp_pingpong(p: &mut Pass, rng: &mut StdRng, len: usize) -> f64 {
    let phase = rng.gen_range(0..PHASE_NS);
    let data = payload(rng, len);
    let tally = Shared::default();
    let (mode, spans) = (p.mode, Arc::clone(&p.spans));
    let (sim, cluster) = p.probe.setup(Engine::Des, || {
        let mut sim = new_sim(mode);
        let cluster = BbpCluster::new(&sim.handle(), bbp_config(4));
        let (mut a, mut b) = (cluster.endpoint(0), cluster.endpoint(1));
        let (t, sp) = (Arc::clone(&tally), Arc::clone(&spans));
        sim.spawn("ping", move |ctx| {
            ctx.wait_until(phase);
            for i in 0..WARMUP + REPS {
                if i == WARMUP {
                    t.lock().t0 = ctx.now();
                }
                let sent = sp.time(Op::BbpSend, || a.send(ctx, 1, &data));
                let echo = sp.time(Op::BbpRecv, || a.recv(ctx, 1));
                if sent.is_ok() && echo.as_deref() == Ok(&data[..]) {
                    t.lock().good += 1;
                }
            }
            t.lock().t1 = ctx.now();
            Tally::bbp(&t, &a);
        });
        let t = Arc::clone(&tally);
        sim.spawn("pong", move |ctx| {
            for _ in 0..WARMUP + REPS {
                let Ok(m) = spans.time(Op::BbpRecv, || b.recv(ctx, 0)) else {
                    break;
                };
                if spans.time(Op::BbpSend, || b.send(ctx, 0, &m)).is_err() {
                    break;
                }
            }
            Tally::bbp(&t, &b);
        });
        (sim, cluster)
    });
    let what = format!("bbp ping-pong {len} B");
    let (report, t) = finish(
        p,
        &what,
        Engine::Des,
        sim,
        Some(&cluster),
        &tally,
        WARMUP + REPS,
    );
    p.payload(2 * len as u64 * (WARMUP + REPS), report.end_time);
    (t.t1 - t.t0).as_us() / (2 * REPS) as f64
}

/// MPI (channel interface over BBP) ping-pong between ranks 0 and 1 of
/// 4; one-way latency in microseconds.
fn mpi_pingpong(p: &mut Pass, rng: &mut StdRng, len: usize) -> f64 {
    let phase = rng.gen_range(0..PHASE_NS);
    let data = payload(rng, len);
    let tally = Shared::default();
    let (mode, spans) = (p.mode, Arc::clone(&p.spans));
    let net = Net::Scramnet(CollectiveImpl::Native);
    let (sim, world) = p.probe.setup(Engine::Des, || {
        let mut sim = new_sim(mode);
        let world = net.world(&sim, 4);
        let (mut p0, mut p1) = (world.proc(0), world.proc(1));
        let (t, sp) = (Arc::clone(&tally), Arc::clone(&spans));
        sim.spawn("rank0", move |ctx| {
            let comm = p0.comm_world();
            ctx.wait_until(phase);
            for i in 0..WARMUP + REPS {
                if i == WARMUP {
                    t.lock().t0 = ctx.now();
                }
                let sent = sp.time(Op::Mpi, || p0.send(ctx, &comm, 1, 1, &data));
                let echo = sp.time(Op::Mpi, || p0.recv(ctx, &comm, Some(1), Some(2)));
                if sent.is_ok() && matches!(&echo, Ok((_, m)) if *m == data) {
                    t.lock().good += 1;
                }
            }
            t.lock().t1 = ctx.now();
            Tally::mpi(&t, &p0);
        });
        let t = Arc::clone(&tally);
        sim.spawn("rank1", move |ctx| {
            let comm = p1.comm_world();
            for _ in 0..WARMUP + REPS {
                let Ok((_, m)) = spans.time(Op::Mpi, || p1.recv(ctx, &comm, Some(0), Some(1)))
                else {
                    break;
                };
                if spans
                    .time(Op::Mpi, || p1.send(ctx, &comm, 0, 2, &m))
                    .is_err()
                {
                    break;
                }
            }
            Tally::mpi(&t, &p1);
        });
        (sim, world)
    });
    let what = format!("mpi ping-pong {len} B");
    let (report, t) = finish(
        p,
        &what,
        Engine::Des,
        sim,
        world.bbp_cluster(),
        &tally,
        WARMUP + REPS,
    );
    p.payload(2 * len as u64 * (WARMUP + REPS), report.end_time);
    (t.t1 - t.t0).as_us() / (2 * REPS) as f64
}

/// BBP multicast from node 0 to every other node of `nodes`: time from
/// the root's post to the last receiver's delivery, microseconds.
fn bbp_mcast(p: &mut Pass, rng: &mut StdRng, len: usize, nodes: usize) -> f64 {
    const MCAST_ALIGN: Time = 300_000;
    let start = MCAST_ALIGN + rng.gen_range(0..PHASE_NS);
    let data = payload(rng, len);
    let tally = Shared::default();
    let (mode, spans) = (p.mode, Arc::clone(&p.spans));
    let (sim, cluster) = p.probe.setup(Engine::Des, || {
        let mut sim = new_sim(mode);
        let cluster = BbpCluster::new(&sim.handle(), bbp_config(nodes));
        let mut root = cluster.endpoint(0);
        let targets: Vec<usize> = (1..nodes).collect();
        let (t, sp, d) = (Arc::clone(&tally), Arc::clone(&spans), data.clone());
        sim.spawn("root", move |ctx| {
            let warm = sp.time(Op::BbpSend, || root.mcast(ctx, &targets, b"warm"));
            ctx.wait_until(start);
            let sent = sp.time(Op::BbpSend, || root.mcast(ctx, &targets, &d));
            if warm.is_ok() && sent.is_ok() {
                t.lock().good += 1;
            }
            Tally::bbp(&t, &root);
        });
        for r in 1..nodes {
            let mut ep = cluster.endpoint(r);
            let (t, sp, d) = (Arc::clone(&tally), Arc::clone(&spans), data.clone());
            sim.spawn(format!("r{r}"), move |ctx| {
                let warm = sp.time(Op::BbpRecv, || ep.recv(ctx, 0));
                let got = sp.time(Op::BbpRecv, || ep.recv(ctx, 0));
                let mut t2 = t.lock();
                if warm.is_ok() && got.as_deref() == Ok(&d[..]) {
                    t2.good += 1;
                }
                t2.t1 = t2.t1.max(ctx.now());
                drop(t2);
                Tally::bbp(&t, &ep);
            });
        }
        (sim, cluster)
    });
    let what = format!("bbp {nodes}-node multicast");
    let (report, t) = finish(
        p,
        &what,
        Engine::Des,
        sim,
        Some(&cluster),
        &tally,
        nodes as u64,
    );
    p.payload((nodes as u64 - 1) * len as u64, report.end_time);
    (t.t1 - start).as_us()
}

/// One MPI collective measurement: every rank enters its timed call at
/// `ALIGN` plus a seeded phase. `Bcast` is timed from the root's entry
/// to the last receiver's return, `Barrier` from the last entry to the
/// last exit; microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Coll {
    Bcast(usize),
    Barrier,
}

fn mpi_collective(p: &mut Pass, rng: &mut StdRng, net: Net, nodes: usize, coll: Coll) -> f64 {
    let entries: Vec<Time> = (0..nodes)
        .map(|_| ALIGN + rng.gen_range(0..PHASE_NS))
        .collect();
    let data = match coll {
        Coll::Bcast(len) => payload(rng, len),
        Coll::Barrier => Vec::new(),
    };
    let tally = Shared::default();
    let (mode, spans) = (p.mode, Arc::clone(&p.spans));
    let (sim, world) = p.probe.setup(net.engine(), || {
        let mut sim = new_sim(mode);
        let world = net.world(&sim, nodes);
        for (rank, &entry) in entries.iter().enumerate() {
            let mut mpi = world.proc(rank);
            let (t, sp, d) = (Arc::clone(&tally), Arc::clone(&spans), data.clone());
            sim.spawn(format!("rank{rank}"), move |ctx: &mut ProcCtx| {
                let comm = mpi.comm_world();
                let ok = match coll {
                    Coll::Bcast(_) => {
                        let warm = (rank == 0).then(|| vec![1u8; 4]);
                        let w = sp.time(Op::Mpi, || mpi.bcast(ctx, &comm, 0, warm.as_deref()));
                        ctx.wait_until(entry);
                        let root_data = (rank == 0).then_some(&d[..]);
                        let out = sp.time(Op::Mpi, || mpi.bcast(ctx, &comm, 0, root_data));
                        w == [1u8; 4] && out == d
                    }
                    Coll::Barrier => {
                        sp.time(Op::Mpi, || mpi.barrier(ctx, &comm));
                        ctx.wait_until(entry);
                        sp.time(Op::Mpi, || mpi.barrier(ctx, &comm));
                        true
                    }
                };
                let mut t2 = t.lock();
                t2.good += ok as u64;
                if !matches!(coll, Coll::Bcast(_) if rank == 0) {
                    t2.t1 = t2.t1.max(ctx.now());
                }
                drop(t2);
                Tally::mpi(&t, &mpi);
            });
        }
        (sim, world)
    });
    let what = format!("{net:?} {nodes}-node {coll:?}");
    let (report, t) = finish(
        p,
        &what,
        net.engine(),
        sim,
        world.bbp_cluster(),
        &tally,
        nodes as u64,
    );
    let from = match coll {
        Coll::Bcast(len) => {
            p.payload((nodes as u64 - 1) * len as u64, report.end_time);
            entries[0]
        }
        Coll::Barrier => {
            if world.bbp_cluster().is_some() {
                p.payload(0, report.end_time);
            }
            *entries.iter().max().expect("at least one rank")
        }
    };
    (t.t1 - from).as_us()
}

const ANCHOR_KEYS: [&str; 10] = [
    "anchor.0", "anchor.1", "anchor.2", "anchor.3", "anchor.4", "anchor.5", "anchor.6", "anchor.7",
    "anchor.8", "anchor.9",
];

/// One report line per headline anchor: paper value, measured value, deviation.
pub fn anchor_lines(p: &Pass) -> Vec<String> {
    ANCHORS
        .iter()
        .zip(ANCHOR_KEYS)
        .map(|(&(what, paper), key)| {
            let m = p.get(key);
            format!(
                "    {what:<44} paper {paper:>6.1} us  measured {m:>8.3} us  ({:+.1}%)",
                (m - paper) / paper * 100.0
            )
        })
        .collect()
}

/// One pass: every measurement once, on fresh simulations.
pub fn pass(seed: u64, mode: Mode) -> Pass {
    let mut p = Pass::new(mode);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9A9E_1A7E_0000_0001);
    let bbp: Vec<f64> = SIZES
        .iter()
        .map(|&len| bbp_pingpong(&mut p, &mut rng, len))
        .collect();
    let mpi: Vec<f64> = SIZES
        .iter()
        .map(|&len| mpi_pingpong(&mut p, &mut rng, len))
        .collect();
    let mcast4 = bbp_mcast(&mut p, &mut rng, 4, 4);
    let native = Net::Scramnet(CollectiveImpl::Native);
    let p2p = Net::Scramnet(CollectiveImpl::PointToPoint);
    let bcast3 = mpi_collective(&mut p, &mut rng, native, 3, Coll::Bcast(4));
    let bcast4 = mpi_collective(&mut p, &mut rng, native, 4, Coll::Bcast(4));
    let barrier4 = mpi_collective(&mut p, &mut rng, native, 4, Coll::Barrier);
    let barrier3 = mpi_collective(&mut p, &mut rng, native, 3, Coll::Barrier);
    let barrier3_p2p = mpi_collective(&mut p, &mut rng, p2p, 3, Coll::Barrier);
    let fe3 = mpi_collective(&mut p, &mut rng, Net::FastEthernet, 3, Coll::Barrier);
    let atm3 = mpi_collective(&mut p, &mut rng, Net::Atm, 3, Coll::Barrier);

    let measured = [
        bbp[0],
        bbp[1],
        mpi[0],
        mpi[1],
        mcast4,
        barrier4,
        barrier3,
        barrier3_p2p,
        fe3,
        atm3,
    ];
    let dev: f64 = ANCHORS
        .iter()
        .zip(measured)
        .map(|((_, paper), m)| (m - paper).abs() / paper * 100.0)
        .sum::<f64>()
        / ANCHORS.len() as f64;
    for (key, m) in ANCHOR_KEYS.into_iter().zip(measured) {
        p.set(key, m);
    }
    p.set("paper_dev_pct", dev);
    p.set("bbp_lat_us", bbp[1]);
    p.set("mpi_lat_us", mpi[1]);
    p.set("mpi_bcast3_us", bcast3);
    p.set("mpi_bcast4_us", bcast4);
    p
}
