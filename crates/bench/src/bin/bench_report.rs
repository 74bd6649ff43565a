//! `bench-report` — the machine-readable latency report.
//!
//! Runs the paper's core microbenchmarks with the `obs` recorder, then
//! writes a schema-validated `BENCH_summary.json`: paper anchors,
//! latency sweeps, the MPI-over-BBP layering constant (≈37.5 µs), a
//! per-layer self-time attribution of a 4-node `MPI_Bcast`, and
//! per-repetition latency quantiles.
//!
//! ```text
//! bench-report [--quick] [--out PATH] [--trace PATH] [--messages] [--wallclock]
//!              [--baseline PATH] [--threads N] [--min-speedup X]
//! bench-report --check PATH
//! ```
//!
//! - `--quick`: smaller size sweep (the CI configuration).
//! - `--out PATH`: where to write the JSON summary
//!   (default `BENCH_summary.json`).
//! - `--trace PATH`: also write a Chrome `trace_event` JSON of the
//!   instrumented 4-node broadcast (load in Perfetto).
//! - `--messages`: reconstruct the per-message lifecycle waterfalls of
//!   the instrumented broadcast (send-enter → descriptor → ring →
//!   flag → match → deliver), print them, and record them in the
//!   report's `messages` section.
//! - `--wallclock`: also run the engine self-measurement scenarios
//!   (events/sec, simulated-ns/sec, peak queue depth) and record them in
//!   the report's `wallclock` section.
//! - `--baseline PATH`: read a previously committed summary, echo its
//!   wallclock entries into this report (tagged `@baseline`), and fail
//!   if any shared scenario is now more than
//!   [`WALLCLOCK_REGRESSION_FACTOR`]× slower in events/sec. Implies
//!   `--wallclock`.
//! - `--threads N`: also run the broadcast stress scenario on the
//!   conservative parallel engine with `N` worker threads (implies
//!   `--wallclock`; records per-shard utilization / lookahead-stall
//!   breakdowns). `N > 1` additionally runs the 1-thread parallel
//!   configuration and prints the measured speedup. One extra
//!   instrumented pass samples the per-shard `par.*` gauge series into
//!   the report's `timeseries` section — and, with `--trace PATH`, as
//!   Chrome counter tracks in a sibling `<PATH>_par.json`.
//! - `--min-speedup X`: fail unless the `N`-thread run achieves at
//!   least `X`× the 1-thread parallel run's events/sec (requires
//!   `--threads N` with `N > 1`; CI's perf-smoke matrix passes 2.0 on
//!   its multi-core runners — don't gate on single-core hosts, where
//!   no parallel engine can scale).
//! - `--check PATH`: validate an existing summary against the schema
//!   and exit (runs no benchmarks).
//!
//! Exits non-zero if the report fails its own schema validation, the
//! measured layering constant deviates from the paper by more than 20%,
//! or the wall-clock baseline or speedup gate trips.

use std::process::ExitCode;

use bench::{
    bbp_one_way_us, bbp_pingpong_histogram, best_of, crossover, event_chain_stress,
    mpi_bcast_events_telemetry, mpi_layering_log_histogram, mpi_one_way_us, mpi_pingpong_histogram,
    print_table, quorum_partition_counters, report, report_anchor, ring_bcast_stress,
    ring_bcast_stress_par, ring_bcast_stress_par_traced, ring_pio_writers, MpiNet, Series,
    WallclockRun,
};
use obs::report::{Wallclock, PAPER_LAYERING_US};
use smpi::CollectiveImpl;

/// Maximum tolerated deviation of the layering constant, percent.
const LAYERING_TOLERANCE_PCT: f64 = 20.0;

/// The perf-smoke gate trips only when a scenario's events/sec drops to
/// less than 1/3 of the committed baseline — informative, not flaky.
const WALLCLOCK_REGRESSION_FACTOR: f64 = 3.0;

const USAGE: &str = "usage: bench-report [--quick] [--out PATH] [--trace PATH] [--messages] \
                     [--wallclock] [--baseline PATH] [--threads N] [--min-speedup X] \
                     | --check PATH";

struct Args {
    quick: bool,
    out: String,
    trace: Option<String>,
    check: Option<String>,
    messages: bool,
    wallclock: bool,
    baseline: Option<String>,
    threads: Option<usize>,
    min_speedup: Option<f64>,
    help: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        out: "BENCH_summary.json".to_string(),
        trace: None,
        check: None,
        messages: false,
        wallclock: false,
        baseline: None,
        threads: None,
        min_speedup: None,
        help: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = it.next().ok_or("--out needs a path")?,
            "--trace" => args.trace = Some(it.next().ok_or("--trace needs a path")?),
            "--check" => args.check = Some(it.next().ok_or("--check needs a path")?),
            "--messages" => args.messages = true,
            "--wallclock" => args.wallclock = true,
            "--baseline" => {
                args.baseline = Some(it.next().ok_or("--baseline needs a path")?);
                args.wallclock = true;
            }
            "--threads" => {
                let n: usize = it
                    .next()
                    .ok_or("--threads needs a count")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                args.threads = Some(n);
                args.wallclock = true;
            }
            "--min-speedup" => {
                let x: f64 = it
                    .next()
                    .ok_or("--min-speedup needs a factor")?
                    .parse()
                    .map_err(|e| format!("--min-speedup: {e}"))?;
                args.min_speedup = Some(x);
            }
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if args.min_speedup.is_some() && args.threads.unwrap_or(1) < 2 {
        return Err("--min-speedup requires --threads N with N > 1".to_string());
    }
    Ok(args)
}

/// Parse the `wallclock` section out of a committed baseline summary.
fn load_baseline(path: &str) -> Result<Vec<Wallclock>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    obs::report::validate_json(&text)?;
    let doc = obs::json::parse(&text)?;
    let mut out = Vec::new();
    if let Some(entries) = doc.get("wallclock").and_then(obs::json::Json::as_arr) {
        for w in entries {
            let num = |key: &str| w.get(key).and_then(obs::json::Json::as_f64).unwrap_or(0.0);
            let scenario = w
                .get("scenario")
                .and_then(obs::json::Json::as_str)
                .unwrap_or("?")
                .to_string();
            // Ignore the previous report's own baseline echoes so chained
            // comparisons always gate against fresh measurements.
            if scenario.ends_with("@baseline") {
                continue;
            }
            // The per-shard breakdown is a point-in-time diagnostic,
            // not a gated quantity, so baseline echoes drop it.
            out.push(Wallclock {
                scenario,
                events: num("events") as u64,
                sim_ns: num("sim_ns") as u64,
                wall_ms: num("wall_ms"),
                events_per_sec: num("events_per_sec"),
                sim_ns_per_sec: num("sim_ns_per_sec"),
                peak_queue_depth: num("peak_queue_depth") as u64,
                threads: num("threads") as u64,
                shards: Vec::new(),
            });
        }
    }
    Ok(out)
}

/// Run the engine self-measurement scenarios, record them, and apply the
/// baseline regression gate. Returns `Err` with a message if the gate
/// trips.
fn run_wallclock(
    quick: bool,
    baseline: &[Wallclock],
    threads: Option<usize>,
    min_speedup: Option<f64>,
) -> Result<(), String> {
    // Best-of-3 per scenario: wall-clock self-measurement shares the
    // host, so the fastest repetition estimates the engine's real cost.
    let mut runs: Vec<WallclockRun> = if quick {
        vec![
            best_of(3, || ring_bcast_stress(16, 500)),
            best_of(3, || ring_pio_writers(16, 500)),
            best_of(3, || event_chain_stress(16, 5_000)),
        ]
    } else {
        vec![
            best_of(3, || ring_bcast_stress(16, 2_000)),
            best_of(3, || ring_pio_writers(16, 2_000)),
            best_of(3, || event_chain_stress(64, 20_000)),
        ]
    };
    // Parallel-engine runs of the broadcast stress. With N > 1 we also
    // run the 1-thread configuration so the speedup compares the same
    // engine at two thread counts (sharded-vs-sequential overhead is
    // what the sequential scenario above already captures).
    let mut speedup = None;
    if let Some(n) = threads {
        let packets = if quick { 500 } else { 2_000 };
        let t1 = best_of(3, || ring_bcast_stress_par(16, packets, 1));
        let tn = if n > 1 {
            let tn = best_of(3, || ring_bcast_stress_par(16, packets, n));
            speedup = Some(tn.events_per_sec() / t1.events_per_sec().max(1e-9));
            Some(tn)
        } else {
            None
        };
        runs.push(t1);
        runs.extend(tn);
    }
    println!("\n== engine wall-clock self-measurement ==");
    let mut failures = Vec::new();
    for run in &runs {
        report::push_wallclock(run);
        println!(
            "  {:<28} {:>9} events  {:>7.1} ms  {:>10.0} events/s  {:>12.3e} sim-ns/s  peak depth {}",
            run.scenario,
            run.events,
            run.wall.as_secs_f64() * 1e3,
            run.events_per_sec(),
            run.sim_ns_per_sec(),
            run.peak_queue_depth,
        );
        for s in &run.shards {
            println!(
                "  {:<28} shard {:>2}: {:>8} events  {:>5.1}% util  {:>7} stall passes  \
                 mbox peak {:>4}  spilled {:>4}  queue peak {}",
                "",
                s.shard,
                s.events,
                s.utilization() * 100.0,
                s.stall_passes,
                s.max_mailbox_depth,
                s.spilled,
                s.peak_queue_depth,
            );
        }
        if let Some(base) = baseline.iter().find(|b| b.scenario == run.scenario) {
            let ratio = run.events_per_sec() / base.events_per_sec.max(1e-9);
            println!(
                "  {:<28} vs baseline {:.0} events/s: {ratio:.2}x",
                "", base.events_per_sec
            );
            if run.events_per_sec() * WALLCLOCK_REGRESSION_FACTOR < base.events_per_sec {
                failures.push(format!(
                    "{}: {:.0} events/s is more than {WALLCLOCK_REGRESSION_FACTOR}x slower \
                     than baseline {:.0} events/s",
                    run.scenario,
                    run.events_per_sec(),
                    base.events_per_sec
                ));
            }
        }
    }
    if let (Some(n), Some(s)) = (threads, speedup) {
        println!("  parallel speedup: {s:.2}x at {n} threads (vs 1-thread parallel run)");
        if let Some(min) = min_speedup {
            if s < min {
                failures.push(format!(
                    "parallel speedup {s:.2}x at {n} threads is below the required {min:.2}x"
                ));
            }
        }
    }
    for base in baseline {
        report::push_wallclock_baseline(base);
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Reconstruct the instrumented broadcast's per-message lifecycle
/// waterfalls, print each checkpoint relative to the message's
/// send-enter, and record them into the armed report.
fn print_waterfalls(events: &[obs::Event], bcast_len: usize) {
    let waterfalls = obs::message_waterfalls(events);
    println!("\n== per-message waterfalls: MPI_Bcast {bcast_len} B on 4 nodes ==");
    if waterfalls.is_empty() {
        println!("  (no traced messages in the event stream)");
        return;
    }
    for w in &waterfalls {
        report::push_message(w);
        println!(
            "  message {:#012x} from node {}: {:.1} µs, {} checkpoints",
            w.id,
            w.src,
            w.total_ns() as f64 / 1000.0,
            w.steps.len()
        );
        let base = w.steps.first().map_or(0, |s| s.time);
        for s in &w.steps {
            println!(
                "    {:>8.2} µs  node {}  {}",
                s.time.saturating_sub(base) as f64 / 1000.0,
                s.node,
                s.stage.name()
            );
        }
    }
}

/// Validate an existing summary file against the schema.
fn check(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match obs::report::validate_json(&text) {
        Ok(()) => {
            println!("{path}: valid (schema v{})", obs::report::SCHEMA_VERSION);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: schema violation: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &args.check {
        return check(path);
    }
    report::begin(if args.quick {
        "bench-report --quick"
    } else {
        "bench-report"
    });

    // Paper anchors (Moorthy et al., IPPS 1999, Figures 1-3).
    report_anchor("BBP one-way 0 B", 6.5, bbp_one_way_us(0, 4));
    report_anchor("BBP one-way 4 B", 7.8, bbp_one_way_us(4, 4));
    let mpi0 = mpi_one_way_us(MpiNet::Scramnet, 0);
    report_anchor("MPI one-way 0 B (SCRAMNet)", 44.0, mpi0);
    report_anchor(
        "MPI one-way 4 B (SCRAMNet)",
        49.0,
        mpi_one_way_us(MpiNet::Scramnet, 4),
    );

    // The layering constant: what the MPICH stack adds on top of raw BBP.
    let bbp0 = bbp_one_way_us(0, 4);
    let layering = mpi0 - bbp0;
    report::set_layering(layering);
    println!(
        "\nMPI-over-BBP layering: {layering:.1} µs measured vs {PAPER_LAYERING_US:.1} µs paper \
         ({:+.0}%)",
        (layering - PAPER_LAYERING_US) / PAPER_LAYERING_US * 100.0
    );

    // Latency sweeps (recorded into the report by print_table).
    let sizes: &[usize] = if args.quick {
        &[0, 4, 64, 256, 1024]
    } else {
        &[0, 4, 16, 64, 256, 1024, 4096, 8192]
    };
    let bbp = Series::sweep("SCRAMNet (BBP)", sizes, |n| bbp_one_way_us(n, 4));
    let mpi_scr = Series::sweep("SCRAMNet (MPI)", sizes, |n| {
        mpi_one_way_us(MpiNet::Scramnet, n)
    });
    let mpi_fe = Series::sweep("Fast Ethernet (MPI)", sizes, |n| {
        mpi_one_way_us(MpiNet::FastEthernet, n)
    });
    print_table("one-way latency", &[bbp, mpi_scr.clone(), mpi_fe.clone()]);
    match crossover(&mpi_scr, &mpi_fe) {
        Some(b) => println!("Fast Ethernet overtakes SCRAMNet MPI at {b} B"),
        None => println!("Fast Ethernet never overtakes SCRAMNet MPI in this sweep"),
    }

    // Per-layer attribution of a 4-node MPI_Bcast, with continuous
    // telemetry: the same run feeds the report's `timeseries` section
    // and the Chrome counter tracks.
    let bcast_len = if args.quick { 256 } else { 1024 };
    let (bcast_us, events, series) =
        mpi_bcast_events_telemetry(MpiNet::Scramnet, bcast_len, 4, CollectiveImpl::Native);
    report::push_timeseries(&series);
    let breakdown = obs::attribute(&events);
    report::set_layers(&breakdown);
    println!("\n== MPI_Bcast {bcast_len} B on 4 nodes: {bcast_us:.1} µs, per-layer self time ==");
    for (layer, self_us) in breakdown.rows_us() {
        println!("  {:<8} {self_us:>8.1} µs", layer.name());
    }
    if breakdown.unbalanced > 0 {
        eprintln!(
            "warning: {} unbalanced spans in the trace",
            breakdown.unbalanced
        );
    }
    if let Some(path) = &args.trace {
        let trace = obs::chrome_trace_json_with_telemetry(&events, &series);
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "Chrome trace written to {path} ({} gauge counter tracks)",
            series.len()
        );
    }
    if args.messages {
        print_waterfalls(&events, bcast_len);
    }

    // Partition-tolerance counters (the schema-v6 `quorum` section): a
    // short quorum scenario cutting off a 2-node minority.
    let quorum = quorum_partition_counters(1);
    println!("\n== quorum partition counters (5 nodes, minority {{0,1}} cut) ==");
    for q in &quorum {
        println!(
            "  node {}: {} stale-epoch rejects, {} freezes, {} epoch bumps",
            q.node, q.stale_epoch_rejects, q.freezes, q.epoch_bumps
        );
    }
    report::push_quorum(quorum);

    // Per-repetition latency distributions.
    report::push_quantiles("bbp_pingpong_0B", &bbp_pingpong_histogram(0, 4));
    report::push_quantiles(
        "mpi_pingpong_0B",
        &mpi_pingpong_histogram(MpiNet::Scramnet, 0),
    );
    report::push_quantiles_log("mpi_layering_0B", &mpi_layering_log_histogram(0));

    // Engine self-measurement + regression gate against the committed
    // baseline.
    let mut wallclock_failure = None;
    if args.wallclock {
        let baseline = match &args.baseline {
            Some(path) => match load_baseline(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot load baseline: {e}");
                    return ExitCode::FAILURE;
                }
            },
            None => Vec::new(),
        };
        if let Err(e) = run_wallclock(args.quick, &baseline, args.threads, args.min_speedup) {
            wallclock_failure = Some(e);
        }
    }

    // Instrumented parallel run: one extra pass with per-shard gauge
    // sampling on (separate from the timed best-of runs, which stay
    // uninstrumented). The `par.*` series land in the `timeseries`
    // section, and with `--trace` also as Chrome counter tracks in a
    // sibling `<trace>_par.json` (one track per shard).
    if let Some(n) = args.threads {
        let packets = if args.quick { 500 } else { 2_000 };
        let (_run, par_series) = ring_bcast_stress_par_traced(16, packets, n);
        report::push_timeseries(&par_series);
        println!(
            "  per-shard gauge sampling: {} series recorded at {n} threads",
            par_series.len()
        );
        if let Some(path) = &args.trace {
            let par_path = format!("{}_par.json", path.trim_end_matches(".json"));
            let trace = obs::chrome_trace_json_with_telemetry(&[], &par_series);
            if let Err(e) = std::fs::write(&par_path, trace) {
                eprintln!("failed to write {par_path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("Parallel-engine counter tracks written to {par_path}");
        }
    }

    // Write and self-validate the summary.
    let rep = report::finish().expect("report sink was armed at startup");
    let json = rep.to_json();
    if let Err(e) = obs::report::validate_json(&json) {
        eprintln!("generated report fails schema validation: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("failed to write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("\nReport written to {}", args.out);

    let dev_pct = ((layering - PAPER_LAYERING_US) / PAPER_LAYERING_US * 100.0).abs();
    if dev_pct > LAYERING_TOLERANCE_PCT {
        eprintln!(
            "layering constant off by {dev_pct:.0}% (> {LAYERING_TOLERANCE_PCT:.0}% tolerance)"
        );
        return ExitCode::FAILURE;
    }
    if let Some(e) = wallclock_failure {
        eprintln!("wall-clock regression gate tripped: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
