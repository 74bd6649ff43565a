//! The simulation container and its run loop.

use std::marker::PhantomData;
use std::rc::Rc;
use std::sync::Arc;

use crate::process::{spawn_process, ProcCtx, ProcId, ProcTable, Slot, YieldReason};
use crate::sched::{SchedShared, SimHandle, WakeWhat};
use crate::time::Time;
use obs::{TraceEntry, TraceKind};

/// Outcome of [`Simulation::run`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual time of the last executed entity.
    pub end_time: Time,
    /// Total scheduler dispatches (events + process resumptions).
    pub dispatches: u64,
    /// Largest pending-queue length observed at a dispatch point during
    /// this run — a measure of how event-dense the workload is.
    pub peak_queue_depth: usize,
    /// Names of processes left blocked on signals when the queue drained.
    /// Empty on a clean completion; non-empty indicates a deadlock.
    pub deadlocked: Vec<String>,
}

impl RunReport {
    /// True when every process ran to completion.
    pub fn is_clean(&self) -> bool {
        self.deadlocked.is_empty()
    }
}

/// A discrete-event simulation: a set of processes, a pending-event queue,
/// and a deterministic run loop. See the crate docs for the model.
///
/// Processes are coroutines that run on the thread calling
/// [`Simulation::run_until`], and compiled code may cache thread-local
/// addresses across their switches, so a simulation must stay on the
/// thread that created it. It is not `Send`:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<des::Simulation>();
/// ```
pub struct Simulation {
    sched: Rc<SchedShared>,
    procs: ProcTable,
    _not_send: PhantomData<*const ()>,
}

impl Simulation {
    /// An empty simulation at virtual time 0.
    pub fn new() -> Self {
        Simulation {
            sched: SchedShared::new(),
            procs: ProcTable::default(),
            _not_send: PhantomData,
        }
    }

    /// Record every scheduling decision; retrieve with [`Simulation::take_trace`].
    /// This also turns on span/counter recording across all instrumented
    /// layers (see [`Simulation::recorder`]).
    pub fn enable_trace(&self) {
        self.sched.recorder.enable();
    }

    /// Drain the recorded scheduler trace and stop recording (empty if
    /// tracing was never enabled). Structured spans and counters recorded
    /// alongside are dropped; use [`Simulation::recorder`] to drain the
    /// full event log instead.
    pub fn take_trace(&self) -> Vec<TraceEntry> {
        self.sched.recorder.take_trace()
    }

    /// The simulation's observability recorder (see [`obs::Recorder`]).
    pub fn recorder(&self) -> &obs::Recorder {
        &self.sched.recorder
    }

    /// A clone of the recorder handle, e.g. for exporting after `run`.
    pub fn recorder_arc(&self) -> Arc<obs::Recorder> {
        Arc::clone(&self.sched.recorder)
    }

    /// A cloneable scheduler handle for wiring hardware models before the
    /// run starts.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            sched: Rc::clone(&self.sched),
        }
    }

    /// Add a process starting at virtual time 0.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&mut ProcCtx) + 'static,
    ) -> ProcId {
        spawn_process(&self.procs, &self.sched, name.into(), 0, Box::new(body))
    }

    /// Add a process whose first instruction executes at virtual time `start`.
    pub fn spawn_at(
        &mut self,
        start: Time,
        name: impl Into<String>,
        body: impl FnOnce(&mut ProcCtx) + 'static,
    ) -> ProcId {
        spawn_process(&self.procs, &self.sched, name.into(), start, Box::new(body))
    }

    /// Run until the pending queue drains. Panics (propagating the message)
    /// if any process panicked — assertion failures inside simulated
    /// processes surface as ordinary test failures.
    pub fn run(&mut self) -> RunReport {
        self.run_until(Time::MAX)
    }

    /// Run until the queue drains or the next entity would fire after
    /// `horizon`. Entities beyond the horizon stay queued.
    pub fn run_until(&mut self, horizon: Time) -> RunReport {
        self.sched.horizon.set(horizon);
        let mut now: Time = 0;
        let mut dispatches: u64 = 0;
        let mut peak_queue_depth: usize = 0;
        loop {
            let item = {
                let mut q = self.sched.pending.borrow_mut();
                peak_queue_depth = peak_queue_depth.max(q.len());
                q.pop_due(horizon)
            };
            let Some((time, what)) = item else { break };
            assert!(
                time >= now,
                "an entry was scheduled into the past: it is due at {time} ns, \
                 but the clock is already at {now} ns"
            );
            now = time;
            dispatches += 1;
            match what {
                WakeWhat::Event(f) => {
                    if self.sched.recorder.is_enabled() {
                        self.sched.record(TraceEntry {
                            time: now,
                            kind: TraceKind::Event,
                            detail: String::new(),
                        });
                    }
                    f.call(now);
                }
                WakeWhat::Resume(id) => {
                    self.resume(id, &mut now);
                }
            }
        }
        let deadlocked: Vec<String> = self
            .procs
            .borrow()
            .iter()
            .filter(|p| p.coro.is_some())
            .map(|p| p.shared.name.clone())
            .collect();
        RunReport {
            end_time: now,
            dispatches,
            peak_queue_depth,
            deadlocked,
        }
    }

    /// Hand the CPU to process `id` at time `t` (updating the caller's
    /// clock if the process fast-forwarded past it); returns when it
    /// yields.
    fn resume(&self, id: ProcId, now: &mut Time) {
        let t = *now;
        let (shared, coro) = {
            let table = self.procs.borrow();
            let entry = &table[id.0];
            match &entry.coro {
                Some(coro) => (Rc::clone(&entry.shared), coro.clone()),
                // A signal can race with normal completion and leave a
                // stale resume in the queue; ignore it.
                None => return,
            }
        };
        if self.sched.recorder.is_enabled() {
            // Gated so the hot dispatch path never clones the name.
            self.sched.record(TraceEntry {
                time: t,
                kind: TraceKind::Resume,
                detail: shared.name.clone(),
            });
        }
        shared.slot.set(Slot::Go(t));
        if let Err(payload) = coro.resume() {
            self.procs.borrow_mut()[id.0].coro = None;
            panic!(
                "simulated process '{}' panicked: {}",
                shared.name,
                panic_message(&*payload)
            );
        }
        let Slot::Yielded(reason) = shared.slot.replace(Slot::Parked) else {
            unreachable!("process returned control without yielding")
        };
        *now = (*now).max(reason.park_time());
        if let YieldReason::Finished(_) = reason {
            // Frees the process's stack once `coro` goes out of scope.
            self.procs.borrow_mut()[id.0].coro = None;
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Unwind every process still parked (deadlocked, stopped at a
        // horizon, or never started) so the locals on its stack drop.
        // The table is not borrowed while a process unwinds.
        let parked: Vec<_> = self
            .procs
            .borrow_mut()
            .iter_mut()
            .filter_map(|entry| Some((Rc::clone(&entry.shared), entry.coro.take()?)))
            .collect();
        for (shared, coro) in parked {
            shared.slot.set(Slot::Abort);
            // The process ends with `AbortToken`, or returns at once if it
            // never started; either way there is nothing to report.
            let _ = coro.resume();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;
    use parking_lot::Mutex;

    #[test]
    fn empty_simulation_completes_at_zero() {
        let mut sim = Simulation::new();
        let report = sim.run();
        assert_eq!(report.end_time, 0);
        assert_eq!(report.dispatches, 0);
        assert!(report.is_clean());
    }

    #[test]
    fn single_process_advances_time() {
        let mut sim = Simulation::new();
        sim.spawn("p", |ctx| {
            ctx.advance(us(5));
            ctx.advance(us(2));
            assert_eq!(ctx.now(), us(7));
        });
        let report = sim.run();
        assert!(report.is_clean());
        assert_eq!(report.end_time, us(7));
    }

    #[test]
    fn two_processes_interleave_deterministically() {
        use std::sync::Arc;
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        for (name, step) in [("a", us(3)), ("b", us(2))] {
            let order = Arc::clone(&order);
            sim.spawn(name, move |ctx| {
                for _ in 0..3 {
                    ctx.advance(step);
                    order.lock().push((ctx.now(), ctx.name().to_string()));
                }
            });
        }
        sim.run();
        let got = order.lock().clone();
        // b @2, a @3, b @4, a @6 then b @6 (a spawned first, ties FIFO by
        // queue insertion: a's resume for t=6 was pushed when it advanced at
        // t=3; b's resume for 6 was pushed at t=4), b @? ...
        let times: Vec<u64> = got.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![us(2), us(3), us(4), us(6), us(6), us(9)]);
        let at6: Vec<&str> = got
            .iter()
            .filter(|(t, _)| *t == us(6))
            .map(|(_, n)| n.as_str())
            .collect();
        assert_eq!(at6, vec!["a", "b"], "FIFO tie-break by push order");
    }

    #[test]
    fn events_fire_in_time_order() {
        let hits = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let h = sim.handle();
        for &t in &[us(5), us(1), us(3)] {
            let hits = Arc::clone(&hits);
            h.schedule_at(t, move |fire| hits.lock().push(fire));
        }
        sim.run();
        assert_eq!(*hits.lock(), vec![us(1), us(3), us(5)]);
    }

    #[test]
    fn signal_wakes_blocked_process() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let sig = h.new_signal();
        let sig2 = sig.clone();
        sim.spawn("waiter", move |ctx| {
            let s = sig2;
            ctx.wait(&s);
            assert_eq!(ctx.now(), us(10));
        });
        h.schedule_at(us(10), move |t| sig.notify_at(t));
        let report = sim.run();
        assert!(report.is_clean());
        assert_eq!(report.end_time, us(10));
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let sig = h.new_signal();
        sim.spawn("stuck", move |ctx| {
            ctx.wait(&sig); // never notified
        });
        let report = sim.run();
        assert_eq!(report.deadlocked, vec!["stuck".to_string()]);
    }

    #[test]
    #[should_panic(expected = "simulated process 'boom' panicked")]
    fn process_panic_propagates() {
        let mut sim = Simulation::new();
        sim.spawn("boom", |ctx| {
            ctx.advance(1);
            panic!("exploded");
        });
        sim.run();
    }

    #[test]
    fn dropping_a_simulation_drops_every_parked_process() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let token = Arc::new(());

        // One process panics while four siblings are parked mid-body; the
        // simulation drops while that panic unwinds.
        let mut sim = Simulation::new();
        let sig = sim.handle().new_signal();
        for i in 0..4 {
            let (held, sig) = (Arc::clone(&token), sig.clone());
            sim.spawn(format!("sibling{i}"), move |ctx| {
                let _held = held;
                ctx.wait(&sig);
                unreachable!("never notified");
            });
        }
        sim.spawn("boom", |ctx| {
            ctx.advance(1);
            panic!("exploded");
        });
        assert_eq!(Arc::strong_count(&token), 5);
        let payload = catch_unwind(AssertUnwindSafe(move || {
            let mut sim = sim;
            sim.run();
        }))
        .expect_err("the panic surfaces from run");
        let msg = payload.downcast_ref::<String>().expect("formatted message");
        assert_eq!(msg, "simulated process 'boom' panicked: exploded");
        assert_eq!(Arc::strong_count(&token), 1);

        // A process stopped at a horizon, and one that never started.
        let mut sim = Simulation::new();
        let held = Arc::clone(&token);
        sim.spawn("long", move |ctx| {
            let _held = held;
            for _ in 0..10 {
                ctx.advance(us(10));
            }
        });
        let held = Arc::clone(&token);
        sim.spawn_at(us(100), "late", move |_| drop(held));
        let report = sim.run_until(us(35));
        assert_eq!(report.deadlocked, ["long", "late"]);
        assert_eq!(Arc::strong_count(&token), 3);
        drop(sim);
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn nested_spawn_starts_at_parent_time() {
        let mut sim = Simulation::new();
        let end = Arc::new(Mutex::new(0));
        let end2 = Arc::clone(&end);
        sim.spawn("parent", move |ctx| {
            ctx.advance(us(4));
            let end3 = Arc::clone(&end2);
            ctx.spawn("child", move |c| {
                assert_eq!(c.now(), us(4));
                c.advance(us(1));
                *end3.lock() = c.now();
            });
        });
        let report = sim.run();
        assert!(report.is_clean());
        assert_eq!(*end.lock(), us(5));
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Simulation::new();
        sim.spawn("long", |ctx| {
            for _ in 0..10 {
                ctx.advance(us(10));
            }
        });
        let report = sim.run_until(us(35));
        assert_eq!(report.end_time, us(30));
        // The process is still mid-flight: reported as not finished.
        assert_eq!(report.deadlocked, vec!["long".to_string()]);
    }

    #[test]
    fn wait_until_is_noop_for_past_times() {
        let mut sim = Simulation::new();
        sim.spawn("p", |ctx| {
            ctx.advance(us(9));
            ctx.wait_until(us(5));
            assert_eq!(ctx.now(), us(9));
            ctx.wait_until(us(12));
            assert_eq!(ctx.now(), us(12));
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    fn fast_path_advances_do_not_change_results() {
        // A lone process's clock jumps without scheduler round-trips;
        // interleaved processes still serialize correctly.
        let mut sim = Simulation::new();
        sim.spawn("lone", |ctx| {
            for _ in 0..1000 {
                ctx.advance(10);
            }
            assert_eq!(ctx.now(), 10_000);
        });
        let report = sim.run();
        assert_eq!(report.end_time, 10_000);
        // Only the initial resume needed dispatching.
        assert_eq!(report.dispatches, 1);
    }

    #[test]
    fn fast_path_respects_concurrent_entities() {
        use std::sync::Arc;
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        for (name, step, count) in [("a", 7u64, 9u64), ("b", 11u64, 6u64)] {
            let log = Arc::clone(&log);
            sim.spawn(name, move |ctx| {
                for _ in 0..count {
                    ctx.advance(step);
                    log.lock().push((ctx.now(), ctx.name().to_string()));
                }
            });
        }
        sim.run();
        let got = log.lock().clone();
        // Events must be recorded in global time order despite fast paths.
        let times: Vec<u64> = got.iter().map(|e| e.0).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "interleaving broke time order: {got:?}");
        assert_eq!(times.last(), Some(&66));
    }

    #[test]
    fn spawn_at_delays_first_instruction() {
        let mut sim = Simulation::new();
        sim.spawn_at(us(9), "late", |ctx| {
            assert_eq!(ctx.now(), us(9));
            ctx.advance(us(1));
        });
        let report = sim.run();
        assert_eq!(report.end_time, us(10));
    }

    #[test]
    fn trace_mark_appears_in_trace() {
        let mut sim = Simulation::new();
        sim.enable_trace();
        let h = sim.handle();
        h.trace_mark(5, "wire-up");
        sim.spawn("p", |ctx| ctx.advance(1));
        sim.run();
        let trace = sim.take_trace();
        assert!(trace
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Mark) && e.detail == "wire-up"));
        // Entries render for humans.
        assert!(trace[0].to_string().contains('['));
    }

    #[test]
    fn handle_survives_simulation_lifetime_checks() {
        // Scheduling from an event into the future chains correctly.
        let mut sim = Simulation::new();
        let h = sim.handle();
        let h2 = h.clone();
        let hits = Arc::new(Mutex::new(0u32));
        let hits2 = Arc::clone(&hits);
        h.schedule_at(10, move |t| {
            let hits3 = Arc::clone(&hits2);
            h2.schedule_at(t + 5, move |_| {
                *hits3.lock() += 1;
            });
        });
        let report = sim.run();
        assert_eq!(*hits.lock(), 1);
        assert_eq!(report.end_time, 15);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulation::new();
        let h = sim.handle();
        let h2 = h.clone();
        h.schedule_at(10, move |_| h2.schedule_at(5, |_| {}));
        sim.run();
    }

    #[test]
    fn process_and_event_share_state_through_rc_refcell() {
        use std::cell::RefCell;
        let log: Rc<RefCell<Vec<Time>>> = Rc::default();
        let mut sim = Simulation::new();
        let from_event = Rc::clone(&log);
        sim.handle()
            .schedule_at(us(2), move |t| from_event.borrow_mut().push(t));
        let from_process = Rc::clone(&log);
        sim.spawn("p", move |ctx| {
            ctx.advance(us(3));
            from_process.borrow_mut().push(ctx.now());
        });
        assert!(sim.run().is_clean());
        assert_eq!(*log.borrow(), [us(2), us(3)]);
    }

    #[test]
    fn trace_is_recorded_when_enabled() {
        let mut sim = Simulation::new();
        sim.enable_trace();
        sim.spawn("p", |ctx| ctx.advance(us(1)));
        sim.run();
        let trace = sim.take_trace();
        assert!(!trace.is_empty());
        assert!(trace.iter().any(|e| matches!(e.kind, TraceKind::Resume)));
    }
}
