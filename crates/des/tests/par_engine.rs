//! Engine-level integration tests for the sharded parallel simulator:
//! a non-trivial shard graph (denser than the ring the `scramnet` crate
//! exercises) driven by a deterministic pseudo-random cascade, checked
//! for identical observable outcomes across thread counts, mailbox
//! capacities, and the in-process sequential reference — plus the
//! late-arrival invariant that underwrites all of it.

use des::par::{Link, ParSim};
use des::Time;

/// splitmix64 — the repo's standard deterministic scramble.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Each shard's observable outcome: the exact `(time, tag)` execution
/// log of every cascade event it ran.
type Log = Vec<(Time, u64)>;

/// Build an `n`-shard graph that is denser than a ring — every shard
/// links to its +1 and +2 neighbours with different lookaheads — and
/// seed a pseudo-random cascade: each event logs itself, then fans out
/// to 0–2 outgoing links with seed-derived extra delays, for `depth`
/// hops.
fn build(n: u32, seed: u64, cap: usize) -> ParSim<Log> {
    let mut sim = ParSim::new((0..n).map(|_| Log::new()));
    sim.set_mailbox_cap(cap);
    // links[s] = the out-links of shard s, with distinct lookaheads so
    // the safe bound is genuinely per-link.
    let links: Vec<Vec<Link>> = (0..n)
        .map(|s| vec![sim.link(s, (s + 1) % n, 50), sim.link(s, (s + 2) % n, 130)])
        .collect();

    fn cascade(
        ctx: &mut des::par::ShardCtx<'_, Log>,
        links: &'static [Vec<Link>],
        tag: u64,
        depth: u32,
    ) {
        let now = ctx.now();
        ctx.state.push((now, tag));
        if depth == 0 {
            return;
        }
        let draw = mix(tag ^ u64::from(depth));
        let fanout = draw % 3; // 0, 1, or 2 onward posts
        for k in 0..fanout {
            let link = links[ctx.shard() as usize][k as usize];
            let jitter = (draw >> (8 * (k + 1))) % 97;
            let lookahead = if k == 0 { 50 } else { 130 };
            let child = mix(tag.wrapping_add(k + 1));
            ctx.post(link, now + lookahead + jitter, move |c| {
                cascade(c, links, child, depth - 1)
            });
        }
        // Every third event also reschedules locally, so shard-local
        // and cross-shard work interleave in the same queue.
        if draw.is_multiple_of(3) {
            let child = mix(tag ^ 0xDEAD);
            ctx.schedule_in(31 + draw % 11, move |c| cascade(c, links, child, depth - 1));
        }
    }

    // The link table must outlive every in-flight closure; leaking one
    // small Vec per test build is the simple way to get 'static.
    let links: &'static [Vec<Link>] = Box::leak(links.into_boxed_slice());
    for s in 0..n {
        for i in 0..8u64 {
            let tag = mix(seed ^ (u64::from(s) << 32) ^ i);
            let t = 1 + (tag % 500) * 10;
            sim.schedule(s, t, move |c| cascade(c, links, tag, 12));
        }
    }
    sim
}

#[test]
fn dense_graph_cascade_is_identical_across_thread_counts_and_caps() {
    for seed in [0x5EED_u64, 9_001, 0x00DD_BA11] {
        let mut reference = build(6, seed, 1024);
        let r = reference.run_seq();
        assert_eq!(r.late_arrivals(), 0, "seed {seed:#x} reference");
        assert!(r.dispatches > 500, "seed {seed:#x}: cascade fizzled");
        let golden = reference.into_states();
        // Thread counts × mailbox capacities, including a cap small
        // enough that the spill path carries most of the traffic.
        for threads in [1usize, 2, 4] {
            for cap in [2usize, 16, 1024] {
                let mut sim = build(6, seed, cap);
                let rep = sim.run(threads);
                assert_eq!(rep.late_arrivals(), 0, "seed {seed:#x} t{threads} cap{cap}");
                assert_eq!(
                    rep.dispatches, r.dispatches,
                    "seed {seed:#x} t{threads} cap{cap}: dispatch count"
                );
                assert_eq!(
                    sim.into_states(),
                    golden,
                    "seed {seed:#x} t{threads} cap{cap}: execution logs diverge"
                );
            }
        }
    }
}

#[test]
fn tiny_mailboxes_spill_but_never_stall_or_reorder() {
    let mut sim = build(6, 0xCAFE, 2);
    let rep = sim.run(2);
    assert_eq!(rep.late_arrivals(), 0);
    // With capacity-2 mailboxes under this fan-out, the overflow path
    // must actually engage — otherwise this test exercises nothing.
    let spilled: u64 = rep.shards.iter().map(|s| s.spilled).sum();
    assert!(spilled > 0, "expected the spill path to carry traffic");
    // Logs stay per-shard time-ordered even when posts overflowed.
    for (shard, log) in sim.into_states().iter().enumerate() {
        assert!(
            log.windows(2).all(|w| w[0].0 <= w[1].0),
            "shard {shard}: execution log is not time-ordered"
        );
    }
}

#[test]
fn uneven_shard_to_worker_splits_match_the_reference() {
    // Contiguous placement hands workers unequal id ranges when the
    // shard count is not a multiple of the worker count (6 shards on 4
    // workers runs in the test above).
    for (n, threads) in [(5u32, 3usize), (5, 4)] {
        for seed in [0x5EED_u64, 0x00DD_BA11] {
            let mut reference = build(n, seed, 1024);
            let r = reference.run_seq();
            assert!(r.dispatches > 300, "n{n} seed {seed:#x}: cascade fizzled");
            let golden = reference.into_states();
            for cap in [2usize, 1024] {
                let mut sim = build(n, seed, cap);
                let rep = sim.run(threads);
                assert_eq!(rep.late_arrivals(), 0, "n{n} t{threads} cap{cap}");
                assert_eq!(rep.dispatches, r.dispatches, "n{n} t{threads} cap{cap}");
                assert_eq!(
                    sim.into_states(),
                    golden,
                    "n{n} seed {seed:#x} t{threads} cap{cap}: execution logs diverge"
                );
            }
        }
    }
}

#[test]
fn token_chain_across_workers_runs_to_the_last_hop() {
    // One token hops around a ring of shards, one shard per worker.
    // Each hop also drops a leaf two shards ahead, then runs a short
    // local chain. The chain ends within the poster's pass, so the
    // poster's queue empties while the token and the leaf are in flight.
    // The chain's events advance the poster's clock bound, so the leaf's
    // receiver may execute it (and fold its -1 into the global pending
    // count) before the poster's pass ends. Workers batch local counts
    // per pass, so this pins that an in-flight post already holds the
    // global count above zero. Otherwise some worker sees zero, leaves
    // early, and hops go unexecuted.
    const HOPS: u64 = 4_000;
    const SPIN: u64 = 16;
    fn spin(ctx: &mut des::par::ShardCtx<'_, Log>, left: u64) {
        if left > 0 {
            ctx.schedule_in(1, move |c| spin(c, left - 1));
        }
    }
    fn hop(ctx: &mut des::par::ShardCtx<'_, Log>, links: &'static [[Link; 2]], left: u64) {
        let now = ctx.now();
        ctx.state.push((now, left));
        if left > 0 {
            let [next, skip] = links[ctx.shard() as usize];
            ctx.post(next, now + 2 * SPIN, move |c| hop(c, links, left - 1));
            ctx.post(skip, now + 7, move |c| {
                let t = c.now();
                c.state.push((t, u64::MAX));
            });
            ctx.schedule_in(1, |c| spin(c, SPIN - 1));
        }
    }
    for (n, threads) in [(3u32, 3usize), (4, 4), (5, 2)] {
        for _ in 0..3 {
            let mut sim = ParSim::new((0..n).map(|_| Log::new()));
            let links: Vec<[Link; 2]> = (0..n)
                .map(|s| [sim.link(s, (s + 1) % n, 7), sim.link(s, (s + 2) % n, 7)])
                .collect();
            let links: &'static [[Link; 2]] = Box::leak(links.into_boxed_slice());
            sim.schedule(0, 0, move |c| hop(c, links, HOPS));
            // A worker that leaves early strands events on its shards and
            // the others then spin forever: fail instead of hanging.
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let rep = sim.run(threads);
                let _ = tx.send((rep, sim));
            });
            let (rep, sim) = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("n{n} t{threads}: run did not terminate"));
            assert_eq!(rep.dispatches, (2 + SPIN) * HOPS + 1, "n{n} t{threads}");
            assert_eq!(rep.late_arrivals(), 0);
            let last = (HOPS % u64::from(n)) as u32;
            assert!(sim.state(last).contains(&(HOPS * 2 * SPIN, 0)));
        }
    }
}
