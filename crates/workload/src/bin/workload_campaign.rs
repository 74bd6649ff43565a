//! `workload-campaign` — run the workload campaign matrix and emit the
//! schema-v5 capacity report.
//!
//! ```text
//! workload-campaign [--quick] [--out PATH]
//! workload-campaign --check PATH
//! ```
//!
//! With `--check`, validates an existing report against the versioned
//! schema and exits. Otherwise runs the matrix through the shared
//! `obs::campaign` runner: the `WORKLOAD_KIND`/`WORKLOAD_SEED`/
//! `WORKLOAD_SIZE`/`WORKLOAD_LOAD` repro environment narrows it (an
//! off-matrix seed, size or load runs that value) and
//! `CAMPAIGN_CELL_BUDGET_MS`, when set, caps each cell's wall-clock
//! time. The binary writes the JSON report, prints the capacity digest
//! and the 5 wall-clock-slowest cells, and fails on any budget overrun
//! or invariant violation.

use workload::campaign::{capacity_report, matrix, run_campaign};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut quick = false;
    let mut out_path = "workload_campaign.json".to_string();
    let mut check_path: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--check" => check_path = Some(args.next().expect("--check needs a path")),
            other => {
                eprintln!(
                    "unknown argument '{other}'; usage: workload-campaign \
                     [--quick] [--out PATH] | --check PATH"
                );
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        match obs::report::validate_json(&text) {
            Ok(()) => println!("{path}: schema valid"),
            Err(e) => {
                eprintln!("{path}: schema INVALID: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let run = run_campaign(matrix(quick));
    let report = capacity_report(
        run.results(),
        if quick {
            "workload-campaign --quick"
        } else {
            "workload-campaign"
        },
    );
    let json = report.to_json();
    obs::report::validate_json(&json).expect("generated report must self-validate");
    std::fs::write(&out_path, &json)
        .unwrap_or_else(|e| panic!("cannot write report {out_path}: {e}"));

    println!("\ncapacity at each scenario's p999 target:");
    for s in &report.capacity {
        println!(
            "  {:>16} size={:<4} target p999 {:>6.0}us: max sustainable {:>8.0} req/s (x{})",
            s.scenario, s.size, s.p999_target_us, s.max_sustainable_hz, s.max_sustainable_mult
        );
    }
    println!(
        "\nworkload campaign: {} cells, {} violating; report at {out_path}\n",
        run.cells.len(),
        run.violating()
    );
    run.finish();
}
