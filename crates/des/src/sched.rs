//! The scheduler's pending queue and the cloneable [`SimHandle`] through
//! which processes, events, and hardware models insert future work.
//!
//! Everything here lives on the thread that runs the simulation: the
//! state is shared through an `Rc` and plain cells, and neither
//! [`SimHandle`] nor the closures it schedules need be `Send`. Hot-path
//! design: one `RefCell` borrow per push and per pop (the banded
//! [`PendingQueue`]), and inline closure storage ([`EventFn`]) so a
//! steady-state schedule/dispatch cycle never touches the heap allocator
//! — and, past a few thousand pending events, never pays a per-pop
//! cache-miss chain through a deep heap either.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use crate::calq::CalendarQueue;
pub(crate) use crate::event::EventFn;
use crate::process::ProcId;
use crate::signal::Signal;
use crate::time::Time;
use obs::{TraceEntry, TraceKind};

/// What a queue entry wakes up.
pub(crate) enum WakeWhat {
    /// Run a pure event callback.
    Event(EventFn),
    /// Resume the process with this id.
    Resume(ProcId),
}

/// The sequential scheduler's pending queue: one banded calendar
/// ([`CalendarQueue`]) over `WakeWhat` payloads. The parallel engine
/// instantiates the same calendar once per shard (see [`crate::par`]).
pub(crate) type PendingQueue = CalendarQueue<WakeWhat>;

/// Scheduler state shared between the run loop, all processes, and every
/// [`SimHandle`] clone, all on one thread. Only one entity executes at a
/// time, and no borrow of `pending` outlives the push or pop it serves.
pub(crate) struct SchedShared {
    pub pending: RefCell<PendingQueue>,
    /// FIFO tie-break counter for same-time entries.
    pub seq: Cell<u64>,
    /// The cross-layer observability log. Scheduler trace entries, layer
    /// spans, and counters all land here; disabled (the default) it costs
    /// one relaxed atomic load per instrumentation site.
    pub recorder: Arc<obs::Recorder>,
    /// Active run horizon: the advance fast path must not carry a
    /// process's clock past it (see `ProcCtx::advance`). Read on every
    /// fast-path advance, written once per `run_until`.
    pub horizon: Cell<Time>,
}

impl SchedShared {
    pub fn new() -> Rc<Self> {
        Rc::new(SchedShared {
            pending: RefCell::new(PendingQueue::new()),
            seq: Cell::new(0),
            recorder: Arc::new(obs::Recorder::new()),
            horizon: Cell::new(Time::MAX),
        })
    }

    pub fn push(&self, time: Time, what: WakeWhat) {
        let seq = self.reserve_seqs(1);
        self.pending.borrow_mut().push(time, seq, what);
    }

    /// Reserve `n` consecutive tie-break values; returns the first.
    /// Entries later pushed via [`SchedShared::push_at_seq`] with these
    /// values interleave with other same-time entries exactly as if they
    /// had all been pushed at reservation time.
    pub fn reserve_seqs(&self, n: u64) -> u64 {
        let first = self.seq.get();
        self.seq.set(first + n);
        first
    }

    /// Push an entry with an explicitly reserved tie-break value.
    pub fn push_at_seq(&self, time: Time, seq: u64, what: WakeWhat) {
        self.pending.borrow_mut().push(time, seq, what);
    }

    pub fn record(&self, entry: TraceEntry) {
        self.recorder.sched(entry);
    }
}

/// A cloneable handle into the scheduler. Hardware models hold one to
/// schedule propagation events; processes obtain one via
/// [`crate::ProcCtx::handle`]. Like the simulation it belongs to, it
/// stays on the thread that runs the simulation:
///
/// ```compile_fail
/// fn assert_send<T: Send>() {}
/// assert_send::<des::SimHandle>();
/// ```
#[derive(Clone)]
pub struct SimHandle {
    pub(crate) sched: Rc<SchedShared>,
}

impl SimHandle {
    /// Schedule `f` to run at absolute virtual time `t`. Scheduling into
    /// the past is a logic error and panics when the event is reached:
    /// hardware cannot retroact.
    pub fn schedule_at(&self, t: Time, f: impl FnOnce(Time) + 'static) {
        self.sched.push(t, WakeWhat::Event(EventFn::new(f)));
    }

    /// Reserve `n` consecutive FIFO tie-break slots for
    /// [`SimHandle::schedule_at_ordered`]. Hardware models that unroll a
    /// multi-step activity into a self-rescheduling event chain use this
    /// to keep the chain's tie-break order identical to scheduling every
    /// step up front: reserve the block when the activity starts, then
    /// schedule step `k` with slot `base + k` as the chain walks.
    pub fn reserve_order(&self, n: u64) -> u64 {
        self.sched.reserve_seqs(n)
    }

    /// Schedule `f` at time `t` with an explicit tie-break slot obtained
    /// from [`SimHandle::reserve_order`]. Among entries scheduled for the
    /// same virtual time, lower slots fire first. Reusing a slot, or
    /// scheduling a slot after the queue has advanced past its time,
    /// breaks the determinism contract (but not memory safety).
    pub fn schedule_at_ordered(&self, t: Time, order: u64, f: impl FnOnce(Time) + 'static) {
        self.sched
            .push_at_seq(t, order, WakeWhat::Event(EventFn::new(f)));
    }

    /// Create a fresh [`Signal`] bound to this simulation.
    pub fn new_signal(&self) -> Signal {
        Signal::new(Rc::clone(&self.sched))
    }

    /// Append a custom entry to the deterministic trace (no-op when tracing
    /// is disabled). Components use this to label interesting transitions.
    pub fn trace_mark(&self, t: Time, label: impl Into<String>) {
        if !self.sched.recorder.is_enabled() {
            return; // skip the `label.into()` allocation entirely
        }
        self.sched.record(TraceEntry {
            time: t,
            kind: TraceKind::Mark,
            detail: label.into(),
        });
    }

    /// The simulation's observability recorder: layer spans, counters, and
    /// scheduler trace entries. Hardware and protocol models instrument
    /// through this; disabled (the default) every call is a single relaxed
    /// atomic load.
    pub fn recorder(&self) -> &obs::Recorder {
        &self.sched.recorder
    }

    /// A clone of the recorder handle, for exporters that outlive the
    /// simulation's borrow.
    pub fn recorder_arc(&self) -> Arc<obs::Recorder> {
        Arc::clone(&self.sched.recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pops_in_fifo_order_at_one_time() {
        let s = SchedShared::new();
        s.push(10, WakeWhat::Resume(ProcId(0)));
        s.push(10, WakeWhat::Resume(ProcId(1)));
        let mut q = s.pending.borrow_mut();
        assert_eq!(q.peek_time(), Some(10));
        match (q.pop().unwrap(), q.pop().unwrap()) {
            ((10, WakeWhat::Resume(a)), (10, WakeWhat::Resume(b))) => {
                assert_eq!(a, ProcId(0));
                assert_eq!(b, ProcId(1));
            }
            _ => panic!("expected resumes at t=10"),
        }
    }

    #[test]
    fn slab_slots_recycle_without_growing() {
        let s = SchedShared::new();
        for round in 0..50u64 {
            s.push(round, WakeWhat::Resume(ProcId(round as usize)));
            let popped = s.pending.borrow_mut().pop().unwrap();
            assert_eq!(popped.0, round);
        }
        let q = s.pending.borrow_mut();
        assert_eq!(q.len(), 0);
        assert_eq!(q.slab_slots(), 1, "one recycled slot suffices");
    }

    #[test]
    fn reserved_block_interleaves_as_if_pushed_at_reservation() {
        let s = SchedShared::new();
        let base = s.reserve_seqs(3);
        // A later plain push at the same time must fire *after* every
        // entry of the earlier reservation, even ones not yet pushed.
        s.push(10, WakeWhat::Resume(ProcId(99)));
        s.push_at_seq(10, base + 2, WakeWhat::Resume(ProcId(2)));
        s.push_at_seq(10, base, WakeWhat::Resume(ProcId(0)));
        s.push_at_seq(10, base + 1, WakeWhat::Resume(ProcId(1)));
        let mut q = s.pending.borrow_mut();
        let order: Vec<ProcId> = std::iter::from_fn(|| q.pop())
            .map(|(_, what)| match what {
                WakeWhat::Resume(id) => id,
                WakeWhat::Event(_) => unreachable!(),
            })
            .collect();
        assert_eq!(order, [ProcId(0), ProcId(1), ProcId(2), ProcId(99)]);
    }
}
