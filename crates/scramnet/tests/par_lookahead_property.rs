//! Property-based verification of the conservative lookahead bound.
//!
//! The parallel engine's safety argument rests on one invariant: a
//! cross-shard event may never arrive with a timestamp below the
//! receiving shard's committed clock. `des::par` counts every violation
//! in `late_arrivals`, so the property is directly observable. The
//! lookahead is derived from the cost model
//! ([`CostModel::link_lookahead_ns`] = the fastest possible node
//! crossing), so the property must hold for *arbitrary* calibrations —
//! fast rings, slow rings, bypass switches faster or slower than live
//! insertion registers — and arbitrary traffic, fault schedules, ring
//! sizes, and worker counts. A second property rides along: the
//! parallel run must reproduce the in-process sequential reference
//! exactly (streams and bank images), i.e. conservative synchronization
//! never reorders observable outcomes.
//!
//! The oversubscribed-burst arm drives every node's egress backlog far
//! past the lookahead, so `ParRing`'s output floor (the egress backlog)
//! is what releases downstream shards — including across a bypass
//! engagement scripted inside the backlog, where the floor must fall
//! back to the clock bound.

use proptest::collection::vec;
use proptest::prelude::*;
use scramnet::{CostModel, ParRing, ParRingConfig, Word};

/// A calibration where one packet's serialization always outlasts the
/// lookahead: `fixed_word_ns >= 60` over `>= 4` words is `>= 240` ns,
/// the lookahead is `< 600` ns, and a burst queues `>= 6` packets.
fn burst_cost_strategy() -> impl Strategy<Value = CostModel> {
    (1u64..600, 1u64..600, 60u64..800).prop_map(|(hop_ns, bypass_hop_ns, fixed_word_ns)| {
        CostModel {
            hop_ns,
            bypass_hop_ns,
            fixed_word_ns,
            ..CostModel::default()
        }
    })
}

/// An arbitrary-but-valid SCRAMNet calibration. Serialization and hop
/// costs span two orders of magnitude around the paper's numbers; the
/// bypass switch is allowed to be slower than a live node (the
/// lookahead derivation must pick whichever crossing is fastest).
fn cost_strategy() -> impl Strategy<Value = CostModel> {
    (1u64..1_500, 1u64..1_500, 1u64..800).prop_map(|(hop_ns, bypass_hop_ns, fixed_word_ns)| {
        CostModel {
            hop_ns,
            bypass_hop_ns,
            fixed_word_ns,
            ..CostModel::default()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn no_cross_shard_event_arrives_below_the_committed_clock(
        cost in cost_strategy(),
        n in 2usize..9,
        threads in 1usize..5,
        error_seed in any::<u64>(),
        fault_pick in any::<u64>(),
        // (node, time, addr, payload length) per packet; node and addr
        // are reduced modulo the generated ring below.
        packets in vec((0usize..16, 0u64..40_000u64, 0usize..240, 1usize..6), 1..36),
    ) {
        const WORDS: usize = 256;
        let lookahead = cost.link_lookahead_ns();
        prop_assert!(lookahead > 0, "lookahead must stay strictly positive");
        prop_assert_eq!(lookahead, cost.hop_ns.min(cost.bypass_hop_ns));

        let build = || {
            let mut ring = ParRing::new(
                n,
                WORDS,
                cost.clone(),
                ParRingConfig {
                    bit_error_rate: 1e-3,
                    error_seed,
                    record_deliveries: true,
                    ..ParRingConfig::default()
                },
            );
            for (i, &(node, t, addr, len)) in packets.iter().enumerate() {
                let node = node % n;
                let addr = addr.min(WORDS - len);
                let data: Vec<Word> = (0..len).map(|j| (i * 100 + j) as Word).collect();
                ring.seed_packet(node, t, addr, data);
            }
            // A deterministic fault draw: sometimes bypass a node,
            // sometimes break (then heal) an egress, sometimes crash.
            let victim = (fault_pick % n as u64) as usize;
            match fault_pick % 4 {
                0 => ring.bypass_at(victim, 8_000),
                1 => {
                    ring.break_egress_at(victim, 5_000);
                    ring.heal_egress_at(victim, 25_000);
                }
                2 => ring.kill_at(victim, 12_000),
                _ => {}
            }
            ring
        };

        let mut golden = build();
        let gr = golden.run_seq();
        prop_assert_eq!(gr.late_arrivals(), 0, "sequential reference");

        let mut par = build();
        let r = par.run(threads);
        prop_assert_eq!(
            r.late_arrivals(),
            0,
            "a cross-shard event undershot a committed clock \
             (n={}, threads={}, lookahead={})",
            n,
            threads,
            lookahead
        );
        prop_assert_eq!(r.dispatches, gr.dispatches);
        for node in 0..n {
            prop_assert_eq!(
                golden.deliveries(node),
                par.deliveries(node),
                "node {} delivered stream",
                node
            );
            prop_assert_eq!(
                golden.snapshot(node),
                par.snapshot(node),
                "node {} bank image",
                node
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn oversubscribed_bursts_stay_sound_under_the_egress_floor(
        cost in burst_cost_strategy(),
        n in 2usize..9,
        error_seed in any::<u64>(),
        fault_pick in any::<u64>(),
        // Per node: (burst start, packets, words per packet); the first
        // `n` entries are used.
        bursts in vec((0u64..2_000, 6usize..20, 4usize..9), 8),
    ) {
        const WORDS: usize = 256;
        let lookahead = cost.link_lookahead_ns();
        let backlog = |node: usize| {
            let (_, k, len) = bursts[node];
            k as u64 * cost.serialize_ns(len, scramnet::TxMode::Fixed4)
        };
        for node in 0..n {
            prop_assert!(
                backlog(node) > lookahead,
                "burst backlog {} must exceed lookahead {}",
                backlog(node),
                lookahead
            );
        }

        let build = || {
            let mut ring = ParRing::new(
                n,
                WORDS,
                cost.clone(),
                ParRingConfig {
                    bit_error_rate: 1e-3,
                    error_seed,
                    record_deliveries: true,
                    ..ParRingConfig::default()
                },
            );
            for (node, &(start, k, len)) in bursts.iter().take(n).enumerate() {
                for i in 0..k {
                    let addr = (node * 29 + i * 3) % (WORDS - len);
                    let data: Vec<Word> =
                        (0..len).map(|j| (node << 20 | i << 8 | j) as Word).collect();
                    ring.seed_packet(node, start + i as u64, addr, data);
                }
            }
            // Bypass one node halfway through its own backlog, crash a
            // second, and drop a few packets at a third.
            let bypassed = (fault_pick % n as u64) as usize;
            ring.bypass_at(bypassed, bursts[bypassed].0 + backlog(bypassed) / 2);
            let killed = ((fault_pick >> 8) % n as u64) as usize;
            ring.kill_at(killed, bursts[killed].0 + backlog(killed) / 3);
            let dropper = ((fault_pick >> 16) % n as u64) as usize;
            ring.arm_drops_at(dropper, bursts[dropper].0, 1 + (fault_pick >> 24) % 3);
            ring
        };

        let mut golden = build();
        let gr = golden.run_seq();
        prop_assert_eq!(gr.late_arrivals(), 0, "sequential reference");
        for threads in 1usize..=4 {
            let mut par = build();
            let r = par.run(threads);
            prop_assert_eq!(
                r.late_arrivals(),
                0,
                "a cross-shard event undershot a committed clock \
                 (n={}, threads={}, lookahead={})",
                n,
                threads,
                lookahead
            );
            prop_assert_eq!(r.dispatches, gr.dispatches);
            for node in 0..n {
                prop_assert_eq!(
                    golden.deliveries(node),
                    par.deliveries(node),
                    "node {} delivered stream @ {} threads",
                    node,
                    threads
                );
                prop_assert_eq!(
                    golden.snapshot(node),
                    par.snapshot(node),
                    "node {} bank image @ {} threads",
                    node,
                    threads
                );
            }
        }
    }
}
