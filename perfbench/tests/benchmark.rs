//! The benchmark's own guarantees: simulated results repeat exactly for
//! a seed, tracing leaves them unchanged, the seed drives the inputs, the
//! RPC executor reproduces the program's campaign cell, and
//! `BENCHMARK.json` lists exactly the metrics the program prints.

use perfbench::pass::{Mode, Pass};
use perfbench::{rpc_mixed, Workload, END_TO_END, PER_LAYER};

fn plain(w: Workload, seed: u64) -> Pass {
    let p = w.pass(seed, Mode::plain(w.threads()), true);
    assert!(p.problems.is_empty(), "{}: {:?}", w.name(), p.problems);
    assert_eq!(p.failed, 0, "{}", w.name());
    assert!(p.attempted > 0, "{}", w.name());
    p
}

#[test]
fn sim_results_repeat_exactly_for_one_seed() {
    for w in Workload::ALL {
        let (a, b) = (plain(w, 5), plain(w, 5));
        assert_eq!(a.sim, b.sim, "{}", w.name());
        assert_eq!(a.digest, b.digest, "{}", w.name());
    }
}

#[test]
fn the_parallel_flood_is_identical_on_one_and_two_workers() {
    let w = Workload::RingFloodPar;
    let two = w.pass(3, Mode::plain(2), false);
    let one = w.pass(3, Mode::plain(1), false);
    assert_eq!(one.sim, two.sim);
    assert_eq!(one.digest, two.digest);
}

#[test]
fn tracing_leaves_every_sim_result_unchanged() {
    for w in [
        Workload::PaperMicro,
        Workload::RpcMixed,
        Workload::RingFlood,
    ] {
        let untraced = plain(w, 2);
        let traced = w.pass(
            2,
            Mode {
                traced: true,
                threads: 1,
            },
            true,
        );
        for (k, v) in &untraced.sim {
            assert_eq!(traced.sim.get(k), Some(v), "{}: {k}", w.name());
        }
        assert!(
            traced.sim.keys().any(|k| k.ends_with("sim_self_us")),
            "{}: traced pass attributes layer self time",
            w.name()
        );
        assert!(traced.spans.enabled() && !untraced.spans.enabled());
    }
}

#[test]
fn the_seed_changes_rpc_arrivals_and_results() {
    let (a, b) = (rpc_mixed::plan(1), rpc_mixed::plan(7));
    assert_ne!(a.channel_arrivals(0, 0, 1.0), b.channel_arrivals(0, 0, 1.0));
    assert_eq!(
        a.channel_arrivals(0, 0, 1.0),
        rpc_mixed::plan(1).channel_arrivals(0, 0, 1.0)
    );
    let (a, b) = (plain(Workload::RpcMixed, 1), plain(Workload::RpcMixed, 7));
    assert_ne!(a.get("rpc.offered"), b.get("rpc.offered"));
}

#[test]
fn the_seed_moves_every_workload() {
    for w in Workload::ALL {
        let (a, b) = (plain(w, 11), plain(w, 12));
        assert_ne!(a.sim, b.sim, "{}", w.name());
    }
}

#[test]
fn the_rpc_executor_reproduces_the_campaign_cell() {
    std::env::set_var("FLIGHT_DUMP_DIR", env!("CARGO_TARGET_TMPDIR"));
    let plan = rpc_mixed::plan(42);
    for mult in rpc_mixed::MULTS {
        let cell = workload::run_cell(&plan, mult, "perfbench_rpc_mixed");
        assert!(cell.violations.is_empty(), "{:?}", cell.violations);
        let mut p = Pass::new(Mode::plain(1));
        let (r, service, residency) = rpc_mixed::cell(&mut p, &plan, mult);
        assert!(p.problems.is_empty(), "{:?}", p.problems);
        assert_eq!(
            (r.offered, r.sent, r.completed, r.shed, r.transport_shed),
            (
                cell.offered,
                cell.sent,
                cell.completed,
                cell.shed,
                cell.transport_shed
            ),
            "x{mult}"
        );
        assert_eq!(service.snapshot(), cell.service.snapshot(), "x{mult}");
        assert_eq!(residency.snapshot(), cell.residency.snapshot(), "x{mult}");
    }
}

#[test]
fn paper_micro_tracks_the_headline_anchors() {
    let p = plain(Workload::PaperMicro, 1);
    assert!(p.get("paper_dev_pct") < 15.0, "{}", p.get("paper_dev_pct"));
    assert!((p.get("bbp_lat_us") - 7.8).abs() < 1.2);
    assert!((p.get("mpi_lat_us") - 49.0).abs() < 8.0);
}

/// The `"name": "..."` entries of one top-level array of BENCHMARK.json.
fn names_in(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &json[start..];
    let end = body.find(']').expect("section is an array");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
    e2e.push("peak_rss_mb".to_string());
    assert_eq!(names_in(&json, "end_to_end"), e2e);
    let layers: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
    assert_eq!(names_in(&json, "per_layer"), layers);
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names_in(&json, "workloads"), workloads);
    let units = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|&(name, unit, _)| (name, unit))
        .chain([("peak_rss_mb", "MB")]);
    for (name, unit) in units {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{name} should have unit {unit}");
    }
}
