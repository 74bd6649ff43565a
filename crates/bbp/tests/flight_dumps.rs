//! Which typed errors write a flight-recorder postmortem. A fault
//! (`BadDestination` on a send, `Timeout` on a receive) dumps the flight
//! ring to `$FLIGHT_DUMP_DIR`; a fail-fast credit refusal (`NoCredit`) is
//! back-pressure the caller opted into, so it records its `error`
//! checkpoint in the ring but writes no file.
//!
//! The dump directory comes from a process-wide environment variable, so
//! every case runs inside the one test below, in order, and this file
//! holds no other test.

use std::path::{Path, PathBuf};

use bbp::{BbpCluster, BbpConfig, BbpError, CreditConfig, ReliabilityConfig};
use des::obs::Stage;
use des::Simulation;

/// The `flight_<prefix>*.json` files in `dir`, sorted.
fn dumps(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with(&format!("flight_{prefix}")))
                })
                .collect()
        })
        .unwrap_or_default();
    found.sort();
    found
}

/// `Stage::Error` checkpoints `node` left in the simulation's flight ring.
fn error_checkpoints(sim: &Simulation, node: u32) -> usize {
    sim.recorder()
        .flight()
        .snapshot()
        .iter()
        .filter(|e| e.stage == Stage::Error && e.node == node)
        .count()
}

/// A fail-fast send refused for want of credit records `error` but dumps
/// nothing.
fn no_credit_is_recorded_but_not_dumped(dir: &Path) {
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(2);
    cfg.credit = Some(CreditConfig {
        per_peer: 1,
        fail_fast: true,
    });
    let c = BbpCluster::new(&sim.handle(), cfg);
    let mut a = c.endpoint(0);
    let mut b = c.endpoint(1);
    sim.spawn("a", move |ctx| {
        a.send(ctx, 1, b"granted").unwrap();
        let err = a.send(ctx, 1, b"refused").unwrap_err();
        assert_eq!(err, BbpError::NoCredit { peer: 1 });
        assert!(err.is_backpressure());
    });
    sim.spawn("b", move |ctx| {
        assert_eq!(b.recv(ctx, 0).unwrap(), b"granted");
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    assert_eq!(
        error_checkpoints(&sim, 0),
        1,
        "the refusal still records its error checkpoint"
    );
    assert_eq!(
        dumps(dir, "bbp_send_error_n"),
        Vec::<PathBuf>::new(),
        "a credit refusal is back-pressure and writes no postmortem"
    );
}

/// A send to a rank outside the cluster is a fault and dumps.
fn bad_destination_dumps(dir: &Path) {
    let mut sim = Simulation::new();
    let c = BbpCluster::new(&sim.handle(), BbpConfig::for_nodes(2));
    let mut a = c.endpoint(0);
    sim.spawn("a", move |ctx| {
        let err = a.send(ctx, 2, b"nowhere").unwrap_err();
        assert_eq!(err, BbpError::BadDestination { dst: 2 });
        assert!(!err.is_backpressure());
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    assert_eq!(error_checkpoints(&sim, 0), 1);
    assert_eq!(
        dumps(dir, "bbp_send_error_n"),
        vec![dir.join("flight_bbp_send_error_n0.json")],
        "a bad destination writes its postmortem"
    );
}

/// A reliable receive that waits out its deadline is a fault and dumps.
fn recv_timeout_dumps(dir: &Path) {
    let mut sim = Simulation::new();
    let mut cfg = BbpConfig::for_nodes(2);
    cfg.reliability = Some(ReliabilityConfig {
        recv_timeout_ns: des::us(50),
        ..Default::default()
    });
    let c = BbpCluster::new(&sim.handle(), cfg);
    let mut b = c.endpoint(1);
    sim.spawn("b", move |ctx| {
        let err = b.recv(ctx, 0).unwrap_err();
        assert!(matches!(err, BbpError::Timeout { peer: 0, .. }), "{err:?}");
    });
    let report = sim.run();
    assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    assert_eq!(error_checkpoints(&sim, 1), 1);
    assert_eq!(
        dumps(dir, "bbp_recv_error_n"),
        vec![dir.join("flight_bbp_recv_error_n1.json")],
        "a receive timeout writes its postmortem"
    );
}

#[test]
fn only_faults_write_a_postmortem() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bbp_flight_dumps");
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("FLIGHT_DUMP_DIR", &dir);
    no_credit_is_recorded_but_not_dumped(&dir);
    bad_destination_dumps(&dir);
    recv_timeout_dumps(&dir);
}
