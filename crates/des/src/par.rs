//! Conservative parallel DES: sharded calendar queues synchronized by
//! link lookahead.
//!
//! The sequential engine ([`crate::Simulation`]) funnels every event
//! through one banded calendar queue behind one mutex — correct, fully
//! deterministic, and single-core. This module shards the event set:
//! each *shard* owns its own banded calendar queue, its own mutable state
//! `S`, and a committed virtual clock. Shards interact only through
//! declared *links*, each carrying a strictly positive **lookahead**:
//! a lower bound on how far in the future any cross-shard event posted
//! over that link must land (for the SCRAMNet ring, the calibrated hop
//! latency — one node cannot affect its neighbour sooner than the fiber
//! allows).
//!
//! ## The conservative bound
//!
//! Every shard continuously publishes a monotone *clock bound*: a
//! promise that it will never again execute an event (and therefore
//! never post a message) below that time. A shard may safely execute
//! all local events with timestamp strictly below
//!
//! ```text
//! safe = min over in-links (published bound of source + link lookahead)
//! ```
//!
//! because any message still in flight on a link was posted at or above
//! the source's published bound and carries at least the link's
//! lookahead of delay. The per-link lower-bound timestamps implied by
//! the published bounds stand in for explicit null messages: an idle
//! neighbour's bound keeps advancing (to `min(its next event, its own
//! safe)`), so no shard ever blocks on a neighbour that has nothing to
//! say. Strictly positive lookahead on every link of a cycle is what
//! makes the bound productive — around the ring the minimum hop cost
//! accumulates, so some shard can always move.
//!
//! ## The output floor
//!
//! The link lookahead is a worst case over every state a shard can be
//! in. A model that knows more can install an *output floor*
//! ([`ParSim::set_output_floor`]): a function of the shard's state that
//! lower-bounds the timestamp of every post the shard will ever make
//! from that state on — the classic conservative-PDES "earliest output
//! time". The engine publishes it beside the clock bound (monotone,
//! capped by every spilled post like the bound) and the receiver's
//! bound becomes
//!
//! ```text
//! safe = min over in-links max(source bound + link lookahead, source floor)
//! ```
//!
//! A promise broken at post time panics ("violates output floor"), just
//! as a post inside the lookahead does. For the SCRAMNet ring the floor
//! is the egress backlog: a packet cannot leave a node before the
//! packets queued ahead of it have serialized, which lies microseconds
//! past the 80 ns hop lookahead whenever the ring is loaded.
//!
//! Cross-shard events travel through bounded SPSC mailboxes (one per
//! link, lock-free, single-producer/single-consumer by construction:
//! a link's producer side is owned by exactly one shard and a shard is
//! owned by exactly one worker). When a mailbox is full the producer
//! spills into an unbounded sender-side overflow so lookahead cycles
//! can never deadlock on backpressure; spills are counted and flushed
//! opportunistically.
//!
//! ## Determinism
//!
//! Event keys are `(time, creator_shard << 48 | creator_seq)` — a total
//! order per shard that does not depend on arrival interleaving, worker
//! assignment, or thread count. Two shards' events at the *same*
//! timestamp may execute in either wall-clock order across engines, but
//! shard states are disjoint and any cross-shard influence is delayed
//! by at least one (positive) lookahead, so per-shard execution
//! histories — and therefore all observable outcomes — are identical
//! for every thread count and for the sequential reference executor
//! ([`ParSim::run_seq`]). The engine double-checks the conservative
//! bound at delivery: an entry arriving below its destination's
//! committed clock increments [`ShardStats::late_arrivals`] (asserted
//! zero by the lookahead-safety property tests).

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::calq::CalendarQueue;
use crate::time::Time;

/// A boxed shard event: runs against the owning shard's context at its
/// fire time.
pub type ShardEvent<S> = Box<dyn FnOnce(&mut ShardCtx<'_, S>) + Send + 'static>;

/// Maximum events one shard executes per scheduling pass before its
/// worker visits its sibling shards again (fairness within a worker).
const PASS_BATCH: u64 = 256;

/// Per-shard sender sequence numbers live in the low 48 bits of an
/// event key; the creator shard id in the high 16. 2^48 events per
/// shard is far beyond any simulated workload.
const SEQ_BITS: u32 = 48;

fn pack_key(shard: u32, seq: u64) -> u64 {
    debug_assert!(seq < 1 << SEQ_BITS, "per-shard event counter overflow");
    ((shard as u64) << SEQ_BITS) | seq
}

/// One cross-shard message: fire time, deterministic key, callback.
struct Entry<S> {
    time: Time,
    key: u64,
    ev: ShardEvent<S>,
}

/// A bounded lock-free SPSC ring. The producer side is touched only by
/// the worker executing the source shard, the consumer side only by the
/// worker owning the destination shard.
struct Mailbox<S> {
    buf: Box<[UnsafeCell<MaybeUninit<Entry<S>>>]>,
    /// Consumer index (monotone, wraps via masking).
    head: AtomicUsize,
    /// Producer index.
    tail: AtomicUsize,
}

// Safety: entries are `Send` (ShardEvent requires it) and the SPSC
// index protocol gives each slot exactly one owner at a time.
unsafe impl<S> Send for Mailbox<S> {}
unsafe impl<S> Sync for Mailbox<S> {}

impl<S> Mailbox<S> {
    fn new(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(2);
        let buf = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Mailbox {
            buf,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    fn mask(&self) -> usize {
        self.buf.len() - 1
    }

    /// Producer side: enqueue unless full.
    fn try_push(&self, e: Entry<S>) -> Result<(), Entry<S>> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) == self.buf.len() {
            return Err(e);
        }
        unsafe { (*self.buf[tail & self.mask()].get()).write(e) };
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer side: dequeue if non-empty.
    fn pop(&self) -> Option<Entry<S>> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let e = unsafe { (*self.buf[head & self.mask()].get()).assume_init_read() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(e)
    }

    /// Entries currently enqueued (approximate under concurrency; exact
    /// from either owning side).
    fn depth(&self) -> usize {
        self.tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.head.load(Ordering::Acquire))
    }
}

impl<S> Drop for Mailbox<S> {
    fn drop(&mut self) {
        // Sole owner at drop time: release any undelivered entries.
        while self.pop().is_some() {}
    }
}

/// A shard's published clock bound and output floor, cache-line padded
/// so neighbours polling them don't false-share with the owner's hot
/// state.
#[repr(align(128))]
struct PublishedBound {
    v: AtomicU64,
    /// Lower bound on every post the shard makes from now on (0 until
    /// an output floor is installed and published).
    floor: AtomicU64,
}

impl PublishedBound {
    fn new() -> Arc<Self> {
        Arc::new(PublishedBound {
            v: AtomicU64::new(0),
            floor: AtomicU64::new(0),
        })
    }
}

/// A handle naming one directed link created by [`ParSim::link`]; posts
/// go through it via [`ShardCtx::post`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    src: u32,
    /// Index into the source shard's out-link table.
    idx: u32,
}

impl Link {
    /// The source shard of this link.
    pub fn src(&self) -> u32 {
        self.src
    }
}

/// Producer side of one link, owned by the source shard.
struct OutLink<S> {
    dst: u32,
    mbox: Arc<Mailbox<S>>,
    /// Unbounded overflow for a full mailbox; drained FIFO before any
    /// new fast-path push so per-link order is preserved.
    spill: VecDeque<Entry<S>>,
    /// Minimum timestamp among entries spilled since the spill was last
    /// empty. Spill order is post order, NOT time order (posts carry
    /// variable extra delay beyond the lookahead), so the published
    /// clock bound must stay below *every* spilled entry, not just the
    /// front one. Reset to `Time::MAX` when the spill drains: entries
    /// then sit in the mailbox, whose pushes happen-before any bound
    /// published afterwards, and receivers drain before executing.
    spill_floor: Time,
}

/// Consumer side of one link, owned by the destination shard.
struct InLink<S> {
    mbox: Arc<Mailbox<S>>,
    /// The source shard's published clock bound and output floor.
    src_bound: Arc<PublishedBound>,
    lookahead: Time,
}

/// Per-shard execution counters, reported in [`ParReport::shards`] and
/// surfaced as per-shard `wallclock` breakdowns by the bench harness.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Events executed on this shard.
    pub executed: u64,
    /// Cross-shard events posted by this shard.
    pub posted: u64,
    /// Scheduling passes where local events were pending but none lay
    /// below the conservative safe bound (lookahead stalls).
    pub stall_passes: u64,
    /// Scheduling passes that executed at least one event.
    pub busy_passes: u64,
    /// Deepest in-link mailbox observed at drain time.
    pub max_mailbox_depth: usize,
    /// Posts that overflowed a bounded mailbox into the sender-side
    /// spill queue.
    pub spilled: u64,
    /// Cross-shard entries that arrived with a timestamp below the
    /// shard's committed clock — conservative-bound violations, always
    /// zero when every link's lookahead is a true lower bound.
    pub late_arrivals: u64,
    /// Largest local pending-queue depth observed.
    pub peak_queue_depth: usize,
}

/// One shard: disjoint state, a private calendar queue, link endpoints.
struct Shard<S> {
    id: u32,
    state: S,
    queue: CalendarQueue<ShardEvent<S>>,
    /// Creator-sequence counter for this shard's events (local and
    /// posted alike).
    next_seq: u64,
    /// Time of the last executed event.
    committed: Time,
    /// This shard's published clock bound (shared with every out-link's
    /// destination).
    bound: Arc<PublishedBound>,
    /// The output floor last published (the owner's copy of
    /// `bound.floor`); every post must land at or above it.
    floor: Time,
    /// Local schedules minus executions not yet folded into the global
    /// pending count (flushed once per scheduling pass).
    pending_delta: i64,
    inbox: Vec<InLink<S>>,
    out: Vec<OutLink<S>>,
    /// `(dst, lookahead)` per out-link — split from `out` so an
    /// executing event (which mutably borrows `state`/`queue`) can
    /// still read link metadata for the post-time contract check.
    out_meta: Vec<(u32, Time)>,
    /// Posts buffered during one event's execution, routed after it
    /// returns (reused, so steady-state posting allocates only the
    /// event box itself).
    outgoing: Vec<(u32, Entry<S>)>,
    stats: ShardStats,
    /// Telemetry sink (see [`ParSim::set_recorder`]): busy passes sample
    /// per-shard clock skew and queue/spill depths as gauge series.
    rec: Option<Arc<obs::Recorder>>,
}

/// Execution context handed to every shard event: the shard's state
/// plus its scheduling capabilities.
pub struct ShardCtx<'a, S> {
    now: Time,
    id: u32,
    /// The shard's mutable state.
    pub state: &'a mut S,
    queue: &'a mut CalendarQueue<ShardEvent<S>>,
    next_seq: &'a mut u64,
    outgoing: &'a mut Vec<(u32, Entry<S>)>,
    out_meta: &'a [(u32, Time)],
    floor: Time,
    pending: &'a AtomicU64,
    pending_delta: &'a mut i64,
    stats: &'a mut ShardStats,
}

impl<S> ShardCtx<'_, S> {
    /// Current virtual time (the fire time of the executing event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// The executing shard's id.
    pub fn shard(&self) -> u32 {
        self.id
    }

    /// Schedule a local event on this shard at absolute time `t >= now`.
    pub fn schedule_at(&mut self, t: Time, f: impl FnOnce(&mut ShardCtx<'_, S>) + Send + 'static) {
        assert!(t >= self.now, "local event scheduled into the past");
        let key = pack_key(self.id, *self.next_seq);
        *self.next_seq += 1;
        *self.pending_delta += 1;
        self.queue.push(t, key, Box::new(f));
    }

    /// Schedule a local event `dt` nanoseconds from now.
    pub fn schedule_in(&mut self, dt: Time, f: impl FnOnce(&mut ShardCtx<'_, S>) + Send + 'static) {
        self.schedule_at(self.now + dt, f)
    }

    /// Post a cross-shard event over `link`, to fire on the destination
    /// shard at absolute time `t`. The conservative contract: `t` must
    /// be at least `now + lookahead(link)` — the lookahead promised at
    /// [`ParSim::link`] time is exactly what the safe bound relies on,
    /// so posting closer than that is a model bug and panics. The same
    /// holds for the shard's last published output floor (see
    /// [`ParSim::set_output_floor`]).
    pub fn post(
        &mut self,
        link: Link,
        t: Time,
        f: impl FnOnce(&mut ShardCtx<'_, S>) + Send + 'static,
    ) {
        assert_eq!(link.src, self.id, "posting on another shard's link");
        let (_dst, lookahead) = self.out_meta[link.idx as usize];
        assert!(
            t >= self.now + lookahead,
            "cross-shard post at t={t} violates lookahead {lookahead} from now={}",
            self.now
        );
        assert!(
            t >= self.floor,
            "cross-shard post at t={t} violates output floor {} from now={}",
            self.floor,
            self.now
        );
        let key = pack_key(self.id, *self.next_seq);
        *self.next_seq += 1;
        // Counted globally before the entry can become visible to its
        // receiver, whose execution (and -1) must come after this +1.
        self.pending.fetch_add(1, Ordering::Relaxed);
        self.stats.posted += 1;
        self.outgoing.push((
            link.idx,
            Entry {
                time: t,
                key,
                ev: Box::new(f),
            },
        ));
    }
}

/// Summary of one parallel (or sequential-reference) run.
#[derive(Debug, Clone)]
pub struct ParReport {
    /// Largest committed event time across shards.
    pub end_time: Time,
    /// Total events executed.
    pub dispatches: u64,
    /// Worker threads used (1 for [`ParSim::run_seq`]).
    pub threads: usize,
    /// Per-shard counters, indexed by shard id.
    pub shards: Vec<ShardStats>,
}

impl ParReport {
    /// Total conservative-bound violations (must be zero for a sound
    /// lookahead assignment).
    pub fn late_arrivals(&self) -> u64 {
        self.shards.iter().map(|s| s.late_arrivals).sum()
    }

    /// Total lookahead stall passes across shards.
    pub fn stall_passes(&self) -> u64 {
        self.shards.iter().map(|s| s.stall_passes).sum()
    }

    /// Sum of per-shard peak queue depths — the engine-wide analogue of
    /// the sequential `peak_queue_depth`.
    pub fn peak_queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.peak_queue_depth).sum()
    }

    /// Emit per-shard counters into an [`obs::Recorder`] (one count per
    /// shard per metric, stamped at the run's end time).
    pub fn record_counters(&self, rec: &obs::Recorder) {
        for (id, s) in self.shards.iter().enumerate() {
            let node = id as u32;
            rec.count(self.end_time, node, "par.shard.events", s.executed);
            rec.count(self.end_time, node, "par.shard.stalls", s.stall_passes);
            rec.count(self.end_time, node, "par.shard.posts", s.posted);
            rec.count(self.end_time, node, "par.shard.spills", s.spilled);
            rec.count(
                self.end_time,
                node,
                "par.shard.mailbox_peak",
                s.max_mailbox_depth as u64,
            );
        }
    }
}

/// Default bounded mailbox capacity per link.
const DEFAULT_MAILBOX_CAP: usize = 1024;

/// The sharded simulation: `N` shards of state `S`, linked by
/// lookahead-carrying SPSC mailboxes.
pub struct ParSim<S> {
    shards: Vec<Shard<S>>,
    pending: Arc<AtomicU64>,
    mailbox_cap: usize,
    output_floor: Option<fn(&S) -> Time>,
}

impl<S: Send> ParSim<S> {
    /// Create one shard per element of `states`.
    pub fn new(states: impl IntoIterator<Item = S>) -> Self {
        let shards = states
            .into_iter()
            .enumerate()
            .map(|(i, state)| Shard {
                id: i as u32,
                state,
                queue: CalendarQueue::new(),
                next_seq: 0,
                committed: 0,
                bound: PublishedBound::new(),
                floor: 0,
                pending_delta: 0,
                inbox: Vec::new(),
                out: Vec::new(),
                out_meta: Vec::new(),
                outgoing: Vec::new(),
                stats: ShardStats::default(),
                rec: None,
            })
            .collect();
        ParSim {
            shards,
            pending: Arc::new(AtomicU64::new(0)),
            mailbox_cap: DEFAULT_MAILBOX_CAP,
            output_floor: None,
        }
    }

    /// Override the bounded per-link mailbox capacity (rounded up to a
    /// power of two). Tests use tiny capacities to exercise the spill
    /// path.
    pub fn set_mailbox_cap(&mut self, cap: usize) {
        assert!(cap >= 1, "mailbox capacity must be positive");
        self.mailbox_cap = cap;
    }

    /// Install an output floor: `floor(state)` must lower-bound the
    /// timestamp of every cross-shard post the shard makes from `state`
    /// on, whatever events it executes next. After each scheduling pass
    /// the engine publishes it (monotone, capped by spilled posts), and
    /// receivers may run up to `max(source bound + lookahead, floor)`
    /// instead of the lookahead alone. [`ShardCtx::post`] panics on a
    /// post below the last published floor, in [`ParSim::run`] and
    /// [`ParSim::run_seq`] alike. Without a floor the engine relies on
    /// the link lookahead only.
    pub fn set_output_floor(&mut self, floor: fn(&S) -> Time) {
        self.output_floor = Some(floor);
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Attach a telemetry sink: when the recorder's telemetry gate is
    /// on, every busy scheduling pass samples the shard's committed-
    /// clock skew (`par.clock_skew_ns` — distance from the conservative
    /// safe bound), local calendar depth (`par.queue_depth`), and
    /// sender-side spill backlog (`par.spill_depth`) as gauge series
    /// keyed by shard id. Worker threads sample concurrently, so the
    /// series are diagnostic (never golden-gated); with the gate off
    /// the cost is one relaxed load per pass.
    pub fn set_recorder(&mut self, rec: Arc<obs::Recorder>) {
        for sh in &mut self.shards {
            sh.rec = Some(Arc::clone(&rec));
        }
    }

    /// Borrow a shard's state (between runs; test observability).
    pub fn state(&self, shard: u32) -> &S {
        &self.shards[shard as usize].state
    }

    /// Mutably borrow a shard's state (setup between runs).
    pub fn state_mut(&mut self, shard: u32) -> &mut S {
        &mut self.shards[shard as usize].state
    }

    /// Consume the simulation, returning every shard's state.
    pub fn into_states(self) -> Vec<S> {
        self.shards.into_iter().map(|s| s.state).collect()
    }

    /// Declare a directed link `src → dst` whose cross-shard events are
    /// always posted at least `lookahead` nanoseconds into the future.
    /// The lookahead must be strictly positive: zero-lookahead cycles
    /// would let the conservative bound wedge.
    pub fn link(&mut self, src: u32, dst: u32, lookahead: Time) -> Link {
        assert!(lookahead > 0, "link lookahead must be strictly positive");
        assert!((src as usize) < self.shards.len(), "link src out of range");
        assert!((dst as usize) < self.shards.len(), "link dst out of range");
        let mbox = Arc::new(Mailbox::new(self.mailbox_cap));
        let src_bound = Arc::clone(&self.shards[src as usize].bound);
        self.shards[dst as usize].inbox.push(InLink {
            mbox: Arc::clone(&mbox),
            src_bound,
            lookahead,
        });
        let sh = &mut self.shards[src as usize];
        sh.out.push(OutLink {
            dst,
            mbox,
            spill: VecDeque::new(),
            spill_floor: Time::MAX,
        });
        sh.out_meta.push((dst, lookahead));
        Link {
            src,
            idx: (sh.out.len() - 1) as u32,
        }
    }

    /// Seed an initial event on `shard` at absolute time `t` (before a
    /// run; during a run events schedule through their [`ShardCtx`]).
    pub fn schedule(
        &mut self,
        shard: u32,
        t: Time,
        f: impl FnOnce(&mut ShardCtx<'_, S>) + Send + 'static,
    ) {
        let sh = &mut self.shards[shard as usize];
        let key = pack_key(sh.id, sh.next_seq);
        sh.next_seq += 1;
        self.pending.fetch_add(1, Ordering::Relaxed);
        sh.queue.push(t, key, Box::new(f));
    }

    /// Sequential reference executor: one merged loop over all shards in
    /// global `(time, lowest shard id)` order, with cross-shard posts
    /// delivered directly. Produces per-shard execution histories
    /// identical to [`ParSim::run`] at any thread count — the golden
    /// mode the parallel engine is gated against.
    pub fn run_seq(&mut self) -> ParReport {
        self.reset_floors();
        loop {
            let mut best: Option<(Time, usize)> = None;
            for (i, sh) in self.shards.iter().enumerate() {
                if let Some(t) = sh.queue.peek_time() {
                    if best.is_none_or(|(bt, _)| t < bt) {
                        best = Some((t, i));
                    }
                }
            }
            let Some((t, i)) = best else { break };
            let sh = &mut self.shards[i];
            let (et, ev) = sh.queue.pop_due(t).expect("peeked event present");
            exec_event(sh, et, ev, &self.pending);
            if let Some(floor_fn) = self.output_floor {
                publish_floor(sh, floor_fn);
            }
            // Route the event's posts directly into destination queues,
            // in post order (FIFO per link, like the mailboxes).
            let mut outgoing = std::mem::take(&mut self.shards[i].outgoing);
            for (idx, e) in outgoing.drain(..) {
                let dst = self.shards[i].out[idx as usize].dst as usize;
                if e.time < self.shards[dst].committed {
                    self.shards[dst].stats.late_arrivals += 1;
                }
                self.shards[dst].queue.push(e.time, e.key, e.ev);
                let depth = self.shards[dst].queue.len();
                let peak = &mut self.shards[dst].stats.peak_queue_depth;
                *peak = depth.max(*peak);
            }
            self.shards[i].outgoing = outgoing; // hand the buffer back
        }
        for sh in &mut self.shards {
            flush_pending(sh, &self.pending);
        }
        self.report(1)
    }

    /// Run to completion on `threads` worker threads. Shards are
    /// assigned in contiguous id ranges (so a ring of shards crosses
    /// workers `threads` times, not on every hop); each worker
    /// repeatedly passes over its shards — drain in-link mailboxes,
    /// execute everything below the conservative safe bound, publish a
    /// fresh clock bound and output floor — until the global
    /// pending-event count hits zero.
    pub fn run(&mut self, threads: usize) -> ParReport {
        assert!(threads >= 1, "need at least one worker thread");
        let n = self.shards.len();
        if n == 0 {
            return self.report(threads);
        }
        let threads = threads.min(n);
        self.reset_floors();
        let mut buckets: Vec<Vec<Shard<S>>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, sh) in self.shards.drain(..).enumerate() {
            buckets[i * threads / n].push(sh);
        }
        let pending = Arc::clone(&self.pending);
        let floor_fn = self.output_floor;
        let poisoned = Arc::new(AtomicBool::new(false));
        let mut returned: Vec<Shard<S>> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|bucket| {
                    let pending = Arc::clone(&pending);
                    let poisoned = Arc::clone(&poisoned);
                    scope.spawn(move || worker_loop(bucket, floor_fn, &pending, &poisoned))
                })
                .collect();
            let mut panic_payload = None;
            for h in handles {
                match h.join() {
                    Ok(shards) => returned.extend(shards),
                    Err(p) => panic_payload = Some(p),
                }
            }
            if let Some(p) = panic_payload {
                std::panic::resume_unwind(p);
            }
        });
        returned.sort_by_key(|s| s.id);
        self.shards = returned;
        self.report(threads)
    }

    /// Output floors promise posts from the state they were computed
    /// in, and events scheduled between runs may post below them: every
    /// run drops the old floors and publishes fresh ones from the
    /// initial states (before any worker starts, so a quiet shard can
    /// run ahead from its first pass).
    fn reset_floors(&mut self) {
        for sh in &mut self.shards {
            sh.floor = 0;
            sh.bound.floor.store(0, Ordering::Relaxed);
            if let Some(floor_fn) = self.output_floor {
                publish_floor(sh, floor_fn);
            }
        }
    }

    fn report(&self, threads: usize) -> ParReport {
        ParReport {
            end_time: self.shards.iter().map(|s| s.committed).max().unwrap_or(0),
            dispatches: self.shards.iter().map(|s| s.stats.executed).sum(),
            threads,
            shards: self.shards.iter().map(|s| s.stats.clone()).collect(),
        }
    }
}

/// Cap a candidate published bound so every post still sitting in a
/// sender-side spill queue stays covered: the receiver of link `L` adds
/// `L`'s lookahead back onto the bound, so a spilled entry at time `t`
/// forbids publishing anything above `t - lookahead(L)`. Without this
/// cap a neighbor could commit past an event that exists only in our
/// overflow buffer — a late arrival.
fn cap_by_spill<S>(sh: &Shard<S>, mut bound: Time) -> Time {
    for (link, &(_dst, lookahead)) in sh.out.iter().zip(&sh.out_meta) {
        bound = bound.min(link.spill_floor.saturating_sub(lookahead));
    }
    bound
}

/// Publish the model's output floor for `sh`'s current state, capped by
/// every post still sitting in a spill queue (a spilled entry is
/// invisible to its receiver, so the floor must stay at or below it —
/// the floor is a raw post time, so no lookahead comes off). Single
/// writer: a Release store of the owner's monotone copy suffices, and
/// orders every earlier mailbox push before the floor a receiver reads.
fn publish_floor<S>(sh: &mut Shard<S>, floor_fn: fn(&S) -> Time) {
    let f = sh
        .out
        .iter()
        .fold(floor_fn(&sh.state), |f, l| f.min(l.spill_floor));
    if f > sh.floor {
        sh.floor = f;
        sh.bound.floor.store(f, Ordering::Release);
    }
}

/// Fold `sh`'s local pending delta into the global count.
fn flush_pending<S>(sh: &mut Shard<S>, pending: &AtomicU64) {
    if sh.pending_delta != 0 {
        // Two's-complement wrap: a negative delta subtracts.
        pending.fetch_add(sh.pending_delta as u64, Ordering::AcqRel);
        sh.pending_delta = 0;
    }
}

/// Execute one event on `sh` at time `t`, leaving its cross-shard posts
/// buffered in `sh.outgoing`. Publishes the shard's clock *before*
/// running the event so any post the event makes is covered by the
/// bound its receiver reads (the event's own posts land at
/// `>= t + lookahead`, so publishing `t` covers them; older spilled
/// posts cap the publish below `t` when necessary).
fn exec_event<S>(sh: &mut Shard<S>, t: Time, ev: ShardEvent<S>, pending: &AtomicU64) {
    sh.bound.v.fetch_max(cap_by_spill(sh, t), Ordering::AcqRel);
    sh.committed = t;
    let mut ctx = ShardCtx {
        now: t,
        id: sh.id,
        state: &mut sh.state,
        queue: &mut sh.queue,
        next_seq: &mut sh.next_seq,
        outgoing: &mut sh.outgoing,
        out_meta: &sh.out_meta,
        floor: sh.floor,
        pending,
        pending_delta: &mut sh.pending_delta,
        stats: &mut sh.stats,
    };
    ev(&mut ctx);
    sh.stats.executed += 1;
    sh.pending_delta -= 1;
}

/// One worker's life: round-robin passes over its shards until the
/// global event count drains (or a sibling worker panics).
fn worker_loop<S: Send>(
    mut shards: Vec<Shard<S>>,
    floor_fn: Option<fn(&S) -> Time>,
    pending: &AtomicU64,
    poisoned: &AtomicBool,
) -> Vec<Shard<S>> {
    struct PoisonOnPanic<'a>(&'a AtomicBool);
    impl Drop for PoisonOnPanic<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.store(true, Ordering::Release);
            }
        }
    }
    let _guard = PoisonOnPanic(poisoned);
    let mut idle: u32 = 0;
    loop {
        let mut progress = false;
        for sh in &mut shards {
            progress |= shard_pass(sh, floor_fn, pending);
        }
        if pending.load(Ordering::Acquire) == 0 || poisoned.load(Ordering::Acquire) {
            break;
        }
        if progress {
            idle = 0;
        } else {
            idle += 1;
            backoff(idle);
        }
    }
    shards
}

/// Adaptive idle backoff: brief spins, then scheduler yields, then a
/// short sleep — the yield tier is what keeps oversubscribed runs
/// (more workers than cores) from burning a whole quantum spinning.
fn backoff(idle: u32) {
    if idle < 8 {
        std::hint::spin_loop();
    } else if idle < 128 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(std::time::Duration::from_micros(20));
    }
}

/// One scheduling pass over one shard. The order is load-bearing (see
/// the module docs): the safe bound is computed from in-link clocks
/// *before* the mailbox drain, so any entry the drain misses was posted
/// by a source whose clock had already reached the value we read —
/// i.e. its timestamp is at least `safe`, and executing strictly below
/// `safe` then publishing `min(next event, safe)` can never outrun it.
fn shard_pass<S>(sh: &mut Shard<S>, floor_fn: Option<fn(&S) -> Time>, pending: &AtomicU64) -> bool {
    let mut progress = false;
    // Flush any spilled posts (FIFO per link) before new work.
    for link in &mut sh.out {
        while let Some(e) = link.spill.pop_front() {
            match link.mbox.try_push(e) {
                Ok(()) => progress = true,
                Err(e) => {
                    link.spill.push_front(e);
                    break;
                }
            }
        }
        if link.spill.is_empty() {
            link.spill_floor = Time::MAX;
        }
    }
    // 1. Conservative safe bound from the in-link published clocks and
    //    output floors: every post the drain below misses lies at or
    //    above both promises, so at or above their max.
    let safe = sh
        .inbox
        .iter()
        .map(|l| {
            let bound = l.src_bound.v.load(Ordering::Acquire);
            let floor = l.src_bound.floor.load(Ordering::Acquire);
            bound.saturating_add(l.lookahead).max(floor)
        })
        .min()
        .unwrap_or(Time::MAX);
    // 2. Drain in-link mailboxes into the local calendar.
    let mut pass_mbox = 0usize;
    for l in &sh.inbox {
        let depth = l.mbox.depth();
        pass_mbox = pass_mbox.max(depth);
        if depth > sh.stats.max_mailbox_depth {
            sh.stats.max_mailbox_depth = depth;
        }
        while let Some(e) = l.mbox.pop() {
            if e.time < sh.committed {
                sh.stats.late_arrivals += 1;
            }
            sh.queue.push(e.time, e.key, e.ev);
            progress = true;
        }
    }
    let depth = sh.queue.len();
    if depth > sh.stats.peak_queue_depth {
        sh.stats.peak_queue_depth = depth;
    }
    // 3. Execute events strictly below the safe bound (bounded batch).
    let horizon = safe.saturating_sub(1);
    let mut executed = 0u64;
    while executed < PASS_BATCH {
        let Some((t, ev)) = sh.queue.pop_due(horizon) else {
            break;
        };
        exec_event(sh, t, ev, pending);
        // Route this event's posts in post order (FIFO per link):
        // mailbox fast path, spill when full.
        for (idx, e) in sh.outgoing.drain(..) {
            let link = &mut sh.out[idx as usize];
            if !link.spill.is_empty() {
                // Preserve per-link FIFO behind an existing backlog.
                sh.stats.spilled += 1;
                link.spill_floor = link.spill_floor.min(e.time);
                link.spill.push_back(e);
            } else if let Err(e) = link.mbox.try_push(e) {
                sh.stats.spilled += 1;
                link.spill_floor = link.spill_floor.min(e.time);
                link.spill.push_back(e);
            }
        }
        executed += 1;
    }
    if executed > 0 {
        sh.stats.busy_passes += 1;
        progress = true;
        // Telemetry: busy passes sample shard health (stalled passes
        // spin too fast to sample usefully). One relaxed load when off.
        if let Some(rec) = &sh.rec {
            if rec.telemetry_on() {
                let t = sh.committed;
                if safe != Time::MAX {
                    rec.gauge(
                        t,
                        sh.id,
                        "par.clock_skew_ns",
                        safe.saturating_sub(sh.committed),
                    );
                }
                rec.gauge(t, sh.id, "par.queue_depth", sh.queue.len() as u64);
                rec.gauge(t, sh.id, "par.mailbox_depth", pass_mbox as u64);
                let spill: usize = sh.out.iter().map(|l| l.spill.len()).sum();
                rec.gauge(t, sh.id, "par.spill_depth", spill as u64);
            }
        }
    } else if sh.queue.peek_time().is_some() {
        sh.stats.stall_passes += 1;
    }
    // 4. Publish a fresh clock bound: we will never again execute below
    //    min(next local event, safe) — capped by any spill backlog (see
    //    `cap_by_spill`).
    let bound = sh.queue.peek_time().unwrap_or(Time::MAX).min(safe);
    sh.bound
        .v
        .fetch_max(cap_by_spill(sh, bound), Ordering::AcqRel);
    if let Some(floor_fn) = floor_fn {
        publish_floor(sh, floor_fn);
    }
    // 5. Fold this pass's local schedules and executions into the global
    //    pending count. Soundness — the global count never reads zero
    //    while any event is alive: every event's +1 is published before
    //    its -1 (a cross-shard post adds +1 at post time, before the
    //    entry can reach a mailbox; a local schedule's +1 travels in the
    //    same delta as its own execution's -1, or in an earlier one).
    //    An alive event whose +1 is still unflushed was scheduled during
    //    this pass by an event executed in this pass, whose -1 is
    //    unflushed too; following creators back reaches an event whose
    //    +1 was published before the pass began (every queued event at
    //    pass start was) and whose -1 is not yet — so the global count
    //    holds at least that 1 until this flush, after which it is
    //    exact for this shard. Workers check for termination only
    //    after flushing every shard they own.
    flush_pending(sh, pending);
    progress
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each shard counts its own executions and records (time, tag)
    /// history.
    #[derive(Default)]
    struct Log {
        history: Vec<(Time, u64)>,
    }

    fn ping_pong(n_rounds: u64) -> ParSim<Log> {
        let mut sim = ParSim::new((0..2).map(|_| Log::default()));
        let ab = sim.link(0, 1, 100);
        let ba = sim.link(1, 0, 100);
        fn bounce(ctx: &mut ShardCtx<'_, Log>, out: Link, back: Link, left: u64) {
            let t = ctx.now();
            ctx.state.history.push((t, left));
            if left > 0 {
                ctx.post(out, t + 100, move |c| bounce(c, back, out, left - 1));
            }
        }
        sim.schedule(0, 0, move |c| bounce(c, ab, ba, n_rounds));
        sim
    }

    #[test]
    fn seq_and_parallel_agree_on_ping_pong() {
        let mut a = ping_pong(40);
        let ra = a.run_seq();
        let mut b = ping_pong(40);
        let rb = b.run(2);
        assert_eq!(ra.dispatches, rb.dispatches);
        assert_eq!(ra.end_time, rb.end_time);
        assert_eq!(rb.late_arrivals(), 0);
        for i in 0..2 {
            assert_eq!(a.state(i).history, b.state(i).history, "shard {i}");
        }
    }

    #[test]
    fn tiny_mailbox_spills_and_still_delivers_everything() {
        let mut sim = ParSim::new((0..2).map(|_| Log::default()));
        sim.set_mailbox_cap(2);
        let link = sim.link(0, 1, 10);
        // A burst of posts from one event floods the capacity-2 mailbox.
        sim.schedule(0, 0, move |c| {
            for k in 0..64u64 {
                c.post(link, 10 + k, move |c2| {
                    let t = c2.now();
                    c2.state.history.push((t, k));
                });
            }
        });
        let r = sim.run(2);
        assert_eq!(r.dispatches, 65);
        assert_eq!(r.late_arrivals(), 0);
        assert!(r.shards[0].spilled > 0, "capacity 2 must overflow");
        let h = &sim.state(1).history;
        assert_eq!(h.len(), 64);
        // Delivered in deterministic (time, key) order.
        assert!(h.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "violates lookahead")]
    fn posting_inside_the_lookahead_panics() {
        let mut sim = ParSim::new((0..2).map(|_| Log::default()));
        let link = sim.link(0, 1, 500);
        sim.schedule(0, 0, move |c| {
            c.post(link, 100, |_| {});
        });
        sim.run_seq();
    }

    /// Shard 0 ticks through a dense local chain and posts once, at
    /// `post_at`, when it ends; shard 1 only receives. `post_at` is
    /// what shard 0 promises as its output floor.
    struct Emitter {
        history: Vec<(Time, u64)>,
        post_at: Time,
    }

    fn emitter_sim(floor: bool) -> ParSim<Emitter> {
        let mut sim = ParSim::new((0..2).map(|_| Emitter {
            history: Vec::new(),
            post_at: 1_000_000,
        }));
        if floor {
            sim.set_output_floor(|s: &Emitter| s.post_at);
        }
        let link = sim.link(0, 1, 10);
        fn tick(ctx: &mut ShardCtx<'_, Emitter>, link: Link, left: u64) {
            let t = ctx.now();
            ctx.state.history.push((t, left));
            if left > 0 {
                ctx.schedule_in(1, move |c| tick(c, link, left - 1));
            } else {
                let at = ctx.state.post_at;
                ctx.post(link, at, |c| {
                    let t = c.now();
                    c.state.history.push((t, u64::MAX));
                });
            }
        }
        sim.schedule(0, 0, move |c| tick(c, link, 10_000));
        // The quiet downstream shard's own work sits far past anything
        // the 10 ns lookahead alone would release early in shard 0's run.
        for k in 0..50u64 {
            sim.schedule(1, 5_000 + k, move |c| {
                let t = c.now();
                c.state.history.push((t, k));
            });
        }
        sim
    }

    #[test]
    fn output_floor_lets_a_quiet_downstream_shard_run_without_stalls() {
        let mut golden = emitter_sim(true);
        let g = golden.run_seq();
        assert_eq!(g.dispatches, 10_001 + 50 + 1);
        // Lookahead alone: on one worker shard 1 waits for shard 0's
        // clock to creep up to 5 µs, one 256-event batch per pass.
        let mut plain = emitter_sim(false);
        assert!(plain.run(1).shards[1].stall_passes > 0);
        for threads in [1usize, 2] {
            let mut sim = emitter_sim(true);
            let r = sim.run(threads);
            assert_eq!(r.late_arrivals(), 0, "{threads} threads");
            assert_eq!(r.shards[1].stall_passes, 0, "{threads} threads");
            assert_eq!(r.dispatches, g.dispatches);
            for i in 0..2 {
                assert_eq!(golden.state(i).history, sim.state(i).history, "shard {i}");
            }
        }
    }

    #[test]
    fn output_floor_is_capped_by_spilled_posts() {
        let build = || {
            let mut sim = ParSim::new((0..2).map(|_| Emitter {
                history: Vec::new(),
                post_at: 0,
            }));
            sim.set_mailbox_cap(2);
            sim.set_output_floor(|s: &Emitter| s.post_at);
            let link = sim.link(0, 1, 10);
            sim.schedule(0, 0, move |c| {
                for k in 0..64u64 {
                    c.post(link, 1_000 + k, move |c2| {
                        let t = c2.now();
                        c2.state.history.push((t, k));
                    });
                }
                // Nothing more to post: the state now promises the far
                // future, but 62 of the posts still sit in the spill.
                c.state.post_at = Time::MAX;
            });
            for k in 0..8u64 {
                sim.schedule(1, 5_000 + k, move |c| {
                    let t = c.now();
                    c.state.history.push((t, 100 + k));
                });
            }
            sim
        };
        let mut golden = build();
        golden.run_seq();
        for threads in [1usize, 2] {
            let mut sim = build();
            let r = sim.run(threads);
            assert!(r.shards[0].spilled > 0, "capacity 2 must overflow");
            assert_eq!(r.late_arrivals(), 0, "{threads} threads");
            assert_eq!(golden.state(1).history, sim.state(1).history);
        }
    }

    #[test]
    #[should_panic(expected = "violates output floor")]
    fn posting_below_the_output_floor_panics() {
        let mut sim = ParSim::new((0..2).map(|_| Emitter {
            history: Vec::new(),
            post_at: 500,
        }));
        // Promises nothing below 1 µs, then posts at 500 ns.
        sim.set_output_floor(|_: &Emitter| 1_000);
        let link = sim.link(0, 1, 10);
        sim.schedule(0, 0, move |c| {
            let at = c.state.post_at;
            c.post(link, at, |_| {});
        });
        sim.run_seq();
    }

    #[test]
    fn ring_of_shards_makes_progress_under_cyclic_links() {
        // A 4-cycle with small lookahead: conservative engines wedge on
        // zero-lookahead cycles; positive lookahead must keep this live.
        let n = 4u32;
        let mut sim = ParSim::new((0..n).map(|_| Log::default()));
        let links: Vec<Link> = (0..n).map(|i| sim.link(i, (i + 1) % n, 50)).collect();
        fn hop(ctx: &mut ShardCtx<'_, Log>, links: Arc<Vec<Link>>, left: u64) {
            let t = ctx.now();
            ctx.state.history.push((t, left));
            if left > 0 {
                let link = links[ctx.shard() as usize];
                ctx.post(link, t + 50, move |c| hop(c, links, left - 1));
            }
        }
        let links = Arc::new(links);
        let l2 = Arc::clone(&links);
        sim.schedule(0, 0, move |c| hop(c, l2, 100));
        let r = sim.run(4);
        assert_eq!(r.dispatches, 101);
        assert_eq!(r.end_time, 100 * 50);
        assert_eq!(r.late_arrivals(), 0);
    }

    #[test]
    fn determinism_across_thread_counts() {
        let runs: Vec<Vec<Vec<(Time, u64)>>> = [1usize, 2, 4]
            .iter()
            .map(|&t| {
                let mut sim = ping_pong(25);
                sim.run(t);
                (0..2).map(|i| sim.state(i).history.clone()).collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        let mut sim = ParSim::new((0..2).map(|_| Log::default()));
        // Keep shard 1 busy while shard 0 panics.
        fn tick(ctx: &mut ShardCtx<'_, Log>, left: u64) {
            if left > 0 {
                ctx.schedule_in(10, move |c| tick(c, left - 1));
            }
        }
        sim.schedule(1, 0, |c| tick(c, 10_000));
        sim.schedule(0, 50, |_| panic!("event exploded"));
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.run(2)));
        assert!(res.is_err(), "panic must propagate out of run()");
    }
}
