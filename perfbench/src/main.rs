//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! run one workload and print its report, ending with one JSON line.
//! Exits 1 when a correctness check fails, 2 on a usage error.

use std::process::ExitCode;

use perfbench::{json_line, run, Workload};

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::from_name(value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse()
                .map(|v: f64| seconds = v)
                .is_ok_and(|_| seconds > 0.0 && seconds.is_finite()),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let report = run(workload, seed, seconds, trace);
    for line in &report.lines {
        println!("{line}");
    }
    for p in report.problems.iter().take(20) {
        println!("  CHECK FAILED: {p}");
    }
    println!("{}", json_line(&report));
    if report.problems.is_empty() && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
