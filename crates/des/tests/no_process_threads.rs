//! Processes are coroutines on the scheduler's thread: spawning thousands
//! of them creates no OS thread. Alone in its test binary so that no
//! other test's threads come and go while it counts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use des::Simulation;

/// The `Threads:` line of `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("status has a Threads: line")
}

#[test]
fn five_thousand_processes_run_on_the_calling_thread() {
    const PROCS: usize = 5_000;
    let before = os_threads();
    let during = Arc::new(AtomicUsize::new(0));
    let mut sim = Simulation::new();
    for i in 0..PROCS {
        let during = Arc::clone(&during);
        sim.spawn(format!("p{i}"), move |ctx| {
            for step in 0..10 {
                ctx.advance(1);
                if i == PROCS / 2 && step == 5 {
                    during.store(os_threads(), Ordering::Relaxed);
                }
            }
        });
    }
    let report = sim.run();
    assert!(report.is_clean());
    assert_eq!(during.load(Ordering::Relaxed), before);
}
