//! `rpc_mixed`: the workload campaign's `mixed` scenario as an open loop
//! — seeded Poisson RPC incast from 3 client nodes × 16 channels onto one
//! server, plus an MPI ping-pong sidecar riding the same ring — at load
//! ×1 (below the knee) and ×4 (overload, shedding).
//!
//! The executor mirrors `workload::run_cell` call for call, so the
//! benchmark can time its own calls into `RpcClient` and `MessageQueue`;
//! the benchmark's tests pin that both produce the same counts.

use std::sync::Arc;

use bbp::{BbpCluster, BbpConfig, CreditConfig};
use des::{ms, us, Simulation, Time};
use obs::LogHistogram;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpc::{MessageQueue, Priority, RpcClient, RpcConfig};
use smpi::{BbpDevice, CollectiveImpl, Mpi, SmpiCosts, Tag};
use workload::cell::BUFS_PER_PROC;
use workload::{Sidecar, WorkloadKind, WorkloadPlan};

use crate::host::{Engine, Op, Spans};
use crate::pass::{Mode, Pass};

/// Request and reply body size, bytes.
pub const BODY_BYTES: usize = 64;
/// The two load multipliers: below the knee, and overload.
pub const MULTS: [f64; 2] = [1.0, 4.0];
/// Seeded plans per pass.
pub const PLANS: u64 = 3;

/// The campaign's `mixed` plan under `seed`.
pub fn plan(seed: u64) -> WorkloadPlan {
    WorkloadKind::Mixed.plan(seed, BODY_BYTES)
}

/// What one cell produced.
#[derive(Debug, Default)]
pub struct CellResult {
    /// Scripted arrivals (shed or not).
    pub offered: u64,
    /// Requests accepted by the transport.
    pub sent: u64,
    /// Requests completed with a matched reply.
    pub completed: u64,
    /// Arrivals shed at the channel-credit gate.
    pub shed: u64,
    /// Sends shed by the transport's fail-fast credit gate.
    pub transport_shed: u64,
    /// Replies that matched no pending request.
    pub unmatched: u64,
    /// Accepted requests never completed by the drain deadline.
    pub undrained: u64,
    /// Dispatches by class.
    pub high_dispatched: u64,
    /// Dispatches by class.
    pub normal_dispatched: u64,
    /// High-water mark of server buffers in use.
    pub max_residency: usize,
    /// Completed requests per client node.
    pub per_node: Vec<u64>,
    /// Arrivals offered per class.
    pub high_offered: u64,
    /// Arrivals offered per class.
    pub normal_offered: u64,
    /// Sidecar rounds echoed bit-exact.
    pub rounds_ok: u32,
    /// Sum over arrivals of (post time − due time), ns.
    pub lateness_ns: u64,
    /// BBP counters of every endpoint the cell's clients and server own.
    pub bbp_sends: u64,
    /// BBP counters of every endpoint the cell's clients and server own.
    pub bbp_recvs: u64,
    /// BBP counters of every endpoint the cell's clients and server own.
    pub bbp_no_credit: u64,
    /// Server dispatches.
    pub dispatched: u64,
    /// Largest unexpected-queue depth of the sidecar ranks.
    pub unexpected_peak: usize,
    /// A server's reply flush returned an error.
    pub flush_failed: bool,
}

/// The cell's transport: every rank gets the campaign's buffer count and
/// a fail-fast credit grant, with slots sized for the RPC frame.
fn bbp_config(plan: &WorkloadPlan) -> BbpConfig {
    let mut bbp = BbpConfig::for_nodes(plan.nprocs());
    bbp.bufs_per_proc = BUFS_PER_PROC;
    let frame_words = (rpc::HEADER_BYTES + plan.body_bytes).div_ceil(4) + 8;
    bbp.data_words = (bbp.bufs_per_proc * frame_words)
        .next_power_of_two()
        .max(4096);
    bbp.credit = Some(CreditConfig {
        per_peer: bbp.bufs_per_proc as u32,
        fail_fast: true,
    });
    bbp
}

/// The sidecar's MPI stack: ADI-direct costs over the shared billboard.
fn sidecar_mpi(ep: bbp::BbpEndpoint) -> Mpi {
    Mpi::new(
        Box::new(BbpDevice::new(ep)),
        SmpiCosts::adi_direct(),
        CollectiveImpl::PointToPoint,
    )
}

fn add_bbp(out: &Mutex<CellResult>, s: &bbp::EndpointStats) {
    let mut o = out.lock();
    o.bbp_sends += s.sends + s.mcasts;
    o.bbp_recvs += s.recvs;
    o.bbp_no_credit += s.no_credit_failures;
}

fn spawn_client(
    sim: &mut Simulation,
    cluster: &BbpCluster,
    plan: &WorkloadPlan,
    mult: f64,
    node_idx: usize,
    env: &CellEnv,
) {
    let ep = cluster.endpoint(plan.servers + node_idx);
    let plan = plan.clone();
    let (out, spans) = (Arc::clone(&env.out), Arc::clone(&env.spans));
    let (service, done) = (Arc::clone(&env.service), Arc::clone(&env.clients_done));
    let drain_deadline = plan.windows_end() + ms(60);
    sim.spawn(format!("client{node_idx}"), move |ctx| {
        let mut events: Vec<(Time, u32)> = Vec::new();
        for ch in 0..plan.channels_per_node {
            for at in plan.channel_arrivals(node_idx, ch, mult) {
                events.push((at, ch));
            }
        }
        events.sort_unstable();
        let mut rng = StdRng::seed_from_u64(
            plan.seed() ^ (node_idx as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407),
        );
        let mut cl = RpcClient::new(
            ep,
            plan.server_of(node_idx),
            plan.channels_per_node,
            plan.credits_per_channel,
            plan.body_bytes,
        );
        let body = vec![0xC3u8; plan.body_bytes];
        let (mut high, mut normal, mut lateness) = (0u64, 0u64, 0u64);
        let poll_gap = us(20);
        for &(at, ch) in &events {
            while ctx.now() + poll_gap < at {
                ctx.advance(poll_gap);
                spans.time(Op::RpcPollReplies, || cl.poll_replies(ctx));
            }
            if at > ctx.now() {
                ctx.wait_until(at);
            }
            spans.time(Op::RpcPollReplies, || cl.poll_replies(ctx));
            let class = if rng.gen_range(0u32..100) < plan.high_share_pct {
                high += 1;
                Priority::High
            } else {
                normal += 1;
                Priority::Normal
            };
            lateness += ctx.now() - at;
            // Open loop: a shed is counted by the client; the script
            // marches on regardless.
            let _ = spans.time(Op::RpcRequest, || cl.try_request(ctx, ch, class, &body));
        }
        while cl.total_outstanding() > 0 && ctx.now() < drain_deadline {
            ctx.advance(us(20));
            spans.time(Op::RpcPollReplies, || cl.poll_replies(ctx));
        }
        service.merge(&cl.service_hist());
        add_bbp(&out, cl.endpoint().stats());
        let st = cl.stats();
        let mut o = out.lock();
        o.undrained += cl.total_outstanding() as u64;
        o.per_node[node_idx] = st.completed;
        o.sent += st.sent;
        o.completed += st.completed;
        o.shed += st.shed;
        o.transport_shed += st.transport_shed;
        o.unmatched += st.unmatched_replies;
        o.high_offered += high;
        o.normal_offered += normal;
        o.lateness_ns += lateness;
        drop(o);
        done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    });
}

fn spawn_server(
    sim: &mut Simulation,
    cluster: &BbpCluster,
    plan: &WorkloadPlan,
    s: usize,
    env: &CellEnv,
) {
    let ep = cluster.endpoint(s);
    let plan = plan.clone();
    let (out, spans) = (Arc::clone(&env.out), Arc::clone(&env.spans));
    let (residency, done) = (Arc::clone(&env.residency), Arc::clone(&env.clients_done));
    let hard_stop = plan.windows_end() + ms(70);
    sim.spawn(format!("server{s}"), move |ctx| {
        let mut rng = StdRng::seed_from_u64(plan.seed() ^ 0x5EC7_0A11u64.wrapping_add(s as u64));
        let mut dispatched: u64 = 0;
        let mut mq = MessageQueue::new(
            ep,
            RpcConfig {
                pool: plan.pool,
                body_capacity: plan.body_bytes,
                max_high_streak: plan.max_high_streak,
            },
        );
        let mut flush_ok = true;
        loop {
            spans.time(Op::RpcServe, || mq.poll(ctx));
            while let Some(mut buf) = spans.time(Op::RpcServe, || mq.dispatch(ctx)) {
                ctx.advance(plan.service.sample(&mut rng, dispatched));
                dispatched += 1;
                let n = buf.body().len();
                buf.set_body_len(n);
                mq.reply_later(buf);
                spans.time(Op::RpcServe, || mq.poll(ctx));
            }
            flush_ok &= spans.time(Op::RpcServe, || mq.flush_ready(ctx)).is_ok();
            let idle = mq.queued() == 0 && mq.in_flight() == 0;
            if (done.load(std::sync::atomic::Ordering::SeqCst) == plan.client_nodes && idle)
                || ctx.now() >= hard_stop
            {
                break;
            }
            ctx.advance(us(2));
        }
        residency.merge(&mq.residency_hist());
        add_bbp(&out, mq.endpoint().stats());
        let st = mq.stats();
        let mut o = out.lock();
        o.max_residency = o.max_residency.max(st.max_residency);
        o.high_dispatched += st.high_dispatched;
        o.normal_dispatched += st.normal_dispatched;
        o.dispatched += dispatched;
        o.flush_failed |= !flush_ok;
    });
}

fn spawn_sidecar(
    sim: &mut Simulation,
    cluster: &BbpCluster,
    plan: &WorkloadPlan,
    rounds: u32,
    env: &CellEnv,
) {
    let nprocs = plan.nprocs();
    let (ponger, pinger) = (nprocs - 2, nprocs - 1);
    let body = plan.body_bytes;
    let (out, spans) = (Arc::clone(&env.out), Arc::clone(&env.spans));
    let ep = cluster.endpoint(ponger);
    sim.spawn("ponger", move |ctx| {
        let mut mpi = sidecar_mpi(ep);
        let comm = mpi.comm_world();
        for r in 0..rounds {
            let Ok((_, data)) = spans.time(Op::Mpi, || {
                mpi.recv(ctx, &comm, Some(pinger), Some(r as Tag))
            }) else {
                break;
            };
            if spans
                .time(Op::Mpi, || mpi.send(ctx, &comm, pinger, r as Tag, &data))
                .is_err()
            {
                break;
            }
        }
        let mut o = out.lock();
        o.unexpected_peak = o.unexpected_peak.max(mpi.adi().unexpected_peak());
    });
    let ep = cluster.endpoint(pinger);
    let (out, spans) = (Arc::clone(&env.out), Arc::clone(&env.spans));
    sim.spawn("pinger", move |ctx| {
        let mut mpi = sidecar_mpi(ep);
        let comm = mpi.comm_world();
        let body: Vec<u8> = (0..body)
            .map(|i| (i as u8).wrapping_mul(13) ^ 0x5A)
            .collect();
        let mut ok = 0;
        for r in 0..rounds {
            let sent = spans.time(Op::Mpi, || mpi.send(ctx, &comm, ponger, r as Tag, &body));
            let echo = spans.time(Op::Mpi, || {
                mpi.recv(ctx, &comm, Some(ponger), Some(r as Tag))
            });
            if sent.is_ok() && matches!(&echo, Ok((_, e)) if *e == body) {
                ok += 1;
            }
        }
        let mut o = out.lock();
        o.rounds_ok = ok;
        o.unexpected_peak = o.unexpected_peak.max(mpi.adi().unexpected_peak());
    });
}

/// Shared sinks of one cell's processes.
struct CellEnv {
    out: Arc<Mutex<CellResult>>,
    spans: Arc<Spans>,
    service: Arc<LogHistogram>,
    residency: Arc<LogHistogram>,
    clients_done: Arc<std::sync::atomic::AtomicUsize>,
}

/// Run one cell of `plan` at `mult` into the pass; returns the cell's
/// counts plus its service and residency histograms.
pub fn cell(
    p: &mut Pass,
    plan: &WorkloadPlan,
    mult: f64,
) -> (CellResult, LogHistogram, LogHistogram) {
    let env = CellEnv {
        out: Arc::new(Mutex::new(CellResult {
            per_node: vec![0; plan.client_nodes],
            ..CellResult::default()
        })),
        spans: Arc::clone(&p.spans),
        service: Arc::new(LogHistogram::new()),
        residency: Arc::new(LogHistogram::new()),
        clients_done: Arc::default(),
    };
    let traced = p.mode.traced;
    let (mut sim, cluster) = p.probe.setup(Engine::Des, || {
        let mut sim = Simulation::new();
        if traced {
            sim.recorder().enable();
        }
        let cluster = BbpCluster::new(&sim.handle(), bbp_config(plan));
        for node_idx in 0..plan.client_nodes {
            spawn_client(&mut sim, &cluster, plan, mult, node_idx, &env);
        }
        for s in 0..plan.servers {
            spawn_server(&mut sim, &cluster, plan, s, &env);
        }
        if let Sidecar::PingPong { rounds } = plan.sidecar {
            spawn_sidecar(&mut sim, &cluster, plan, rounds, &env);
        }
        (sim, cluster)
    });
    let report = p.probe.run(Engine::Des, || sim.run());
    p.finish_sim(&format!("rpc_mixed x{mult}"), &sim, &report);
    p.ring_stats(&cluster.ring().stats(), plan.nprocs(), report.end_time);
    let mut r = std::mem::take(&mut *env.out.lock());
    r.offered = (0..plan.client_nodes)
        .map(|n| {
            (0..plan.channels_per_node)
                .map(|c| plan.channel_arrivals(n, c, mult).len() as u64)
                .sum::<u64>()
        })
        .sum();
    let rounds = match plan.sidecar {
        Sidecar::PingPong { rounds } => rounds,
        _ => 0,
    };
    p.payload(
        2 * plan.body_bytes as u64 * (r.completed + r.rounds_ok as u64),
        report.end_time,
    );
    check(p, plan, mult, &r, rounds);
    let (service, residency) = (LogHistogram::new(), LogHistogram::new());
    service.merge(&env.service);
    residency.merge(&env.residency);
    (r, service, residency)
}

/// The cell's correctness checks and failure accounting. Sheds are the
/// open loop's designed response to overload, not failures: they are
/// reported as `rpc.shed` / `rpc.transport_shed`.
fn check(p: &mut Pass, plan: &WorkloadPlan, mult: f64, r: &CellResult, rounds: u32) {
    let what = format!("rpc_mixed x{mult}");
    p.attempted += r.offered + rounds as u64;
    let lost = r.undrained + r.unmatched + (rounds - r.rounds_ok.min(rounds)) as u64;
    p.failed += lost;
    if r.flush_failed {
        p.problem(format!("{what}: a server's reply flush failed"));
    }
    if r.undrained > 0 {
        p.problem(format!(
            "{what}: {} accepted requests never drained",
            r.undrained
        ));
    }
    if r.unmatched > 0 {
        p.problem(format!("{what}: {} unmatched replies", r.unmatched));
    }
    if r.rounds_ok != rounds {
        p.problem(format!(
            "{what}: sidecar echoed {}/{rounds} rounds",
            r.rounds_ok
        ));
    }
    if r.sent != r.completed + r.undrained {
        p.problem(format!(
            "{what}: {} sent but {} completed + {} undrained",
            r.sent, r.completed, r.undrained
        ));
    }
    if r.max_residency > plan.pool {
        p.problem(format!(
            "{what}: {} server buffers in use exceeds the pool of {}",
            r.max_residency, plan.pool
        ));
    }
    if r.high_offered >= 16 && r.normal_offered >= 16 {
        if r.high_dispatched == 0 {
            p.problem(format!("{what}: high class starved"));
        }
        if r.normal_dispatched == 0 {
            p.problem(format!("{what}: normal class starved"));
        }
    }
    let (min, max) = (
        r.per_node.iter().copied().min().unwrap_or(0),
        r.per_node.iter().copied().max().unwrap_or(0),
    );
    if max >= 32 && min * 4 < max {
        p.problem(format!("{what}: completions per source span {min}..{max}"));
    }
}

/// One pass: the ×1 and ×4 cells of each of the pass's plans, on fresh
/// simulations. Pooling several seeded plans keeps the work per pass
/// from swinging with one plan's Poisson draw.
pub fn pass(seed: u64, mode: Mode) -> Pass {
    let mut p = Pass::new(mode);
    let (service, residency) = (LogHistogram::new(), LogHistogram::new());
    let (mut lateness, mut x4_completed, mut x4_elapsed) = ((0u64, 0u64), 0u64, 0f64);
    for k in 0..PLANS {
        let plan = plan(seed.wrapping_mul(PLANS).wrapping_add(k));
        for mult in MULTS {
            let (r, svc, res) = cell(&mut p, &plan, mult);
            residency.merge(&res);
            if mult == MULTS[0] {
                service.merge(&svc);
            } else {
                x4_completed += r.completed;
                x4_elapsed += plan.windows_end() as f64 / 1e9;
            }
            for (key, v) in [
                ("rpc.offered", r.offered),
                ("rpc.sent", r.sent),
                ("rpc.completed", r.completed),
                ("rpc.shed", r.shed),
                ("rpc.transport_shed", r.transport_shed),
                ("rpc.dispatched", r.dispatched),
                ("bbp.sends", r.bbp_sends),
                ("bbp.recvs", r.bbp_recvs),
                ("bbp.no_credit", r.bbp_no_credit),
            ] {
                p.add(key, v as f64);
            }
            p.max("smpi.unexpected_peak", r.unexpected_peak as f64);
            lateness.0 += r.lateness_ns;
            lateness.1 += r.offered;
        }
    }
    p.set("rpc_p50_us", service.quantile(0.5) as f64 / 1e3);
    p.set("rpc_p999_us", service.quantile(0.999) as f64 / 1e3);
    p.set("rpc.samples", service.count() as f64);
    p.set("rpc_goodput_rps", x4_completed as f64 / x4_elapsed);
    p.set(
        "rpc.residency_p99_us",
        residency.quantile(0.99) as f64 / 1e3,
    );
    p.set(
        "rpc.gen_lateness_us",
        lateness.0 as f64 / lateness.1.max(1) as f64 / 1e3,
    );
    p
}
