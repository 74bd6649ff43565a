//! A green campaign cell leaves no flight-recorder postmortem behind,
//! even when it sheds load at the transport's fail-fast credit gate:
//! back-pressure is not a fault, and cells dump only on panic or
//! violation.
//!
//! The dump directory comes from a process-wide environment variable, so
//! this file holds a single test.

use std::path::Path;

use workload::{run_cell, WorkloadKind};

#[test]
fn an_overloaded_green_cell_writes_no_postmortem() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("workload_flight_dumps");
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("FLIGHT_DUMP_DIR", &dir);

    let label = "wl_test_mixed_x4";
    let out = run_cell(&WorkloadKind::Mixed.plan(1, 64), 4.0, label);
    assert!(
        out.transport_shed > 0,
        "at x4 the mixed cell must shed at the transport's credit gate"
    );
    assert_eq!(out.violations, Vec::<String>::new(), "the cell is green");

    let names: Vec<String> = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.file_name().into_string().ok())
                .collect()
        })
        .unwrap_or_default();
    assert!(
        !names
            .iter()
            .any(|n| n.starts_with("flight_bbp_send_error_")),
        "credit sheds wrote postmortems: {names:?}"
    );
    assert!(
        !names.contains(&format!("flight_{label}.json")),
        "a green cell wrote its flight ring: {names:?}"
    );
}
