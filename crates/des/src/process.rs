//! Simulated processes: each runs as a stackful coroutine on the thread
//! that calls [`crate::Simulation::run_until`], scheduled cooperatively —
//! exactly one process (or event) executes at a time, so process code can
//! use plain blocking style while the simulation stays deterministic.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::coro::Coroutine;
use crate::sched::{SchedShared, SimHandle, WakeWhat};
use crate::signal::Signal;
use crate::time::Time;
use obs::{TraceEntry, TraceKind};

/// Identifies a process within one [`crate::Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub usize);

/// Handshake slot between the scheduler and one process.
#[derive(Clone, Copy)]
pub(crate) enum Slot {
    /// Process is parked, waiting for the scheduler.
    Parked,
    /// Scheduler granted execution, with the virtual time of resumption.
    Go(Time),
    /// Simulation is being dropped; the process must unwind.
    Abort,
    /// Process yielded back to the scheduler.
    Yielded(YieldReason),
}

/// Every yield carries the process's clock at the moment it parked, so
/// the scheduler's notion of elapsed time covers fast-path jumps (see
/// [`ProcCtx::advance`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum YieldReason {
    /// Resume me via the queue entry I pushed; I parked at `now`.
    ResumeAt {
        /// Process clock at park time (the queued entry holds the target).
        now: Time,
    },
    /// I registered with a [`Signal`]; resume me when it fires.
    Blocked {
        /// Process clock at park time.
        now: Time,
    },
    /// The process body returned at this virtual time.
    Finished(Time),
}

impl YieldReason {
    /// The parked process's clock.
    pub(crate) fn park_time(self) -> Time {
        match self {
            YieldReason::ResumeAt { now } | YieldReason::Blocked { now } => now,
            YieldReason::Finished(t) => t,
        }
    }
}

pub(crate) struct ProcShared {
    pub slot: Cell<Slot>,
    pub name: String,
}

pub(crate) struct ProcEntry {
    pub shared: Rc<ProcShared>,
    /// `None` once the process finished: its stack is freed then.
    pub coro: Option<Coroutine>,
}

/// The process table, shared by the simulation and every process.
pub(crate) type ProcTable = Rc<RefCell<Vec<ProcEntry>>>;

/// Payload used to unwind a process when its simulation is dropped
/// before the process finished (e.g. after a deadlock report).
pub(crate) struct AbortToken;

/// The execution context handed to every process body.
///
/// All interaction with virtual time flows through this object. It is
/// not `Send`: a process runs on the simulation's thread, and events
/// receive only the fire time.
pub struct ProcCtx {
    pub(crate) id: ProcId,
    pub(crate) now: Time,
    pub(crate) shared: Rc<ProcShared>,
    pub(crate) sched: Rc<SchedShared>,
    pub(crate) procs: ProcTable,
    coro: Coroutine,
}

impl ProcCtx {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// This process's id.
    #[inline]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// This process's name (as given to `spawn`).
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// A cloneable scheduler handle, for wiring hardware models.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            sched: Rc::clone(&self.sched),
        }
    }

    /// Consume `dt` nanoseconds of virtual time (CPU work, PIO stall, …).
    /// Other entities with earlier deadlines run in the meantime.
    pub fn advance(&mut self, dt: Time) {
        let target = self.now + dt;
        // Fast path: we are the only running entity; if nothing in the
        // queue is due before `target`, no other process or event can
        // possibly interleave (everyone else is parked behind a queue
        // entry or a signal only we could fire), so the clock can jump
        // without a scheduler round-trip. This keeps polling protocols
        // cheap in host time without changing any observable schedule.
        if self.no_wakeups_before(target) {
            self.now = target;
            return;
        }
        self.sched.push(target, WakeWhat::Resume(self.id));
        self.park(YieldReason::ResumeAt { now: self.now });
    }

    /// Block until absolute virtual time `t` (no-op if `t` has passed).
    pub fn wait_until(&mut self, t: Time) {
        if t > self.now {
            if self.no_wakeups_before(t) {
                self.now = t;
                return;
            }
            self.sched.push(t, WakeWhat::Resume(self.id));
            self.park(YieldReason::ResumeAt { now: self.now });
        }
    }

    /// True when the pending queue holds nothing due at or before `t`
    /// and `t` is inside the active run horizon.
    fn no_wakeups_before(&self, t: Time) -> bool {
        if t > self.sched.horizon.get() {
            return false;
        }
        match self.sched.pending.borrow().peek_time() {
            Some(first) => first > t,
            None => true,
        }
    }

    /// Yield at the current instant, letting every other entity already
    /// scheduled at `now` run first. Models releasing the CPU for one
    /// scheduling quantum without consuming measurable time.
    pub fn yield_now(&mut self) {
        self.advance(0);
    }

    /// Block until `signal` is notified. May wake spuriously if the signal
    /// is shared; callers re-check their condition in a loop.
    pub fn wait(&mut self, signal: &Signal) {
        signal.register(self.id);
        self.park(YieldReason::Blocked { now: self.now });
    }

    /// Spawn a sibling process starting at the current virtual time.
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        body: impl FnOnce(&mut ProcCtx) + 'static,
    ) -> ProcId {
        spawn_process(
            &self.procs,
            &self.sched,
            name.into(),
            self.now,
            Box::new(body),
        )
    }

    /// The simulation's observability recorder, for instrumenting layer
    /// spans and counters from inside process bodies.
    pub fn obs(&self) -> &obs::Recorder {
        &self.sched.recorder
    }

    /// Park this process and hand control to the scheduler; returns with
    /// the granted resumption time.
    fn park(&mut self, reason: YieldReason) {
        if self.sched.recorder.is_enabled() {
            // Gated so the hot yield path never formats the detail string.
            self.sched.record(TraceEntry {
                time: self.now,
                kind: TraceKind::Yield,
                detail: format!("{} {:?}", self.shared.name, reason),
            });
        }
        self.shared.slot.set(Slot::Yielded(reason));
        self.coro.suspend();
        match self.shared.slot.replace(Slot::Parked) {
            Slot::Go(t) => {
                debug_assert!(t >= self.now, "virtual time went backwards");
                self.now = t;
            }
            Slot::Abort => std::panic::resume_unwind(Box::new(AbortToken)),
            Slot::Parked | Slot::Yielded(_) => unreachable!("process resumed without a grant"),
        }
    }
}

type ProcBody = Box<dyn FnOnce(&mut ProcCtx) + 'static>;

/// Create the coroutine for a new process and schedule its first
/// resumption at `start`. Shared between `Simulation::spawn` and
/// `ProcCtx::spawn`.
pub(crate) fn spawn_process(
    procs: &ProcTable,
    sched: &Rc<SchedShared>,
    name: String,
    start: Time,
    body: ProcBody,
) -> ProcId {
    let mut table = procs.borrow_mut();
    let id = ProcId(table.len());
    let shared = Rc::new(ProcShared {
        slot: Cell::new(Slot::Parked),
        name,
    });
    let ctx_shared = Rc::clone(&shared);
    let ctx_sched = Rc::clone(sched);
    let ctx_procs = Rc::clone(procs);
    let coro = Coroutine::new(move |coro| {
        let first = match ctx_shared.slot.replace(Slot::Parked) {
            Slot::Go(t) => t,
            // Simulation dropped before the process ever ran.
            _ => return,
        };
        let mut ctx = ProcCtx {
            id,
            now: first,
            shared: ctx_shared,
            sched: ctx_sched,
            procs: ctx_procs,
            coro,
        };
        body(&mut ctx);
        ctx.shared
            .slot
            .set(Slot::Yielded(YieldReason::Finished(ctx.now)));
    });
    table.push(ProcEntry {
        shared,
        coro: Some(coro),
    });
    drop(table);
    sched.push(start, WakeWhat::Resume(id));
    id
}
