//! Host-clock measurement from outside the simulator: process resource
//! usage (`getrusage`), per-thread CPU time, and the spans the benchmark
//! wraps around its own calls into each layer's public functions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as laid out by 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Whole-process resource counters at one instant (every thread).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary context switches.
    pub vcsw: u64,
    /// Involuntary context switches.
    pub ivcsw: u64,
}

impl Usage {
    /// The process's counters now.
    pub fn now() -> Self {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a valid, writable `struct rusage` for the
        // 64-bit Linux ABI, and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            user_s: secs(&ru.utime),
            sys_s: secs(&ru.stime),
            vcsw: ru.nvcsw as u64,
            ivcsw: ru.nivcsw as u64,
        }
    }

    fn minus(self, earlier: Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            vcsw: self.vcsw - earlier.vcsw,
            ivcsw: self.ivcsw - earlier.ivcsw,
        }
    }

    fn add(&mut self, d: Usage) {
        self.user_s += d.user_s;
        self.sys_s += d.sys_s;
        self.vcsw += d.vcsw;
        self.ivcsw += d.ivcsw;
    }
}

/// CPU time consumed by the calling thread, nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a valid, writable `struct timespec` and the clock
    // id is the calling thread's CPU clock.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Which engine a timed phase drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The sequential engine (`Simulation`) driving SCRAMNet worlds.
    Des,
    /// The sequential engine driving the Fast Ethernet / ATM comparators.
    Netsim,
    /// The parallel engine (`des::par` via `ParRing::run`).
    Par,
}

/// Wall time and resource usage summed over phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phase {
    /// Host wall seconds.
    pub wall_s: f64,
    /// Resource usage over the phases.
    pub usage: Usage,
}

impl Phase {
    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.usage.user_s + self.usage.sys_s
    }

    fn add(&mut self, other: Phase) {
        self.wall_s += other.wall_s;
        self.usage.add(other.usage);
    }
}

/// Host cost of one pass of a workload: set-up phases (building the
/// world, spawning processes, seeding events) and run phases, per engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    setup: [Phase; 3],
    run: [Phase; 3],
}

impl Probe {
    fn timed<T>(slot: &mut Phase, f: impl FnOnce() -> T) -> T {
        let u0 = Usage::now();
        let t0 = Instant::now();
        let out = f();
        slot.add(Phase {
            wall_s: t0.elapsed().as_secs_f64(),
            usage: Usage::now().minus(u0),
        });
        out
    }

    /// Time a set-up phase for `engine`.
    pub fn setup<T>(&mut self, engine: Engine, f: impl FnOnce() -> T) -> T {
        Self::timed(&mut self.setup[engine as usize], f)
    }

    /// Time a run phase on `engine`.
    pub fn run<T>(&mut self, engine: Engine, f: impl FnOnce() -> T) -> T {
        Self::timed(&mut self.run[engine as usize], f)
    }

    /// Set-up phases of `engines`, summed.
    pub fn setup_of(&self, engines: &[Engine]) -> Phase {
        Self::sum(&self.setup, engines)
    }

    /// Run phases of `engines`, summed.
    pub fn run_of(&self, engines: &[Engine]) -> Phase {
        Self::sum(&self.run, engines)
    }

    fn sum(slots: &[Phase; 3], engines: &[Engine]) -> Phase {
        let mut p = Phase::default();
        for &e in engines {
            p.add(slots[e as usize]);
        }
        p
    }
}

/// Every engine, for totals.
pub const ALL_ENGINES: [Engine; 3] = [Engine::Des, Engine::Netsim, Engine::Par];

/// The layer calls the benchmark times from inside simulated processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `BbpEndpoint::send` and `BbpEndpoint::mcast`.
    BbpSend,
    /// `BbpEndpoint::recv`.
    BbpRecv,
    /// Every `Mpi` point-to-point call and collective.
    Mpi,
    /// `RpcClient::try_request`.
    RpcRequest,
    /// `RpcClient::poll_replies`.
    RpcPollReplies,
    /// `MessageQueue::poll`, `dispatch` and `flush_ready`.
    RpcServe,
}

const OPS: usize = 6;

/// Per-op totals: calls, busy nanoseconds (thread CPU inside the span)
/// and wait nanoseconds (wall minus CPU: the time the process thread sat
/// parked while other simulated processes ran). The benchmark's spans
/// never nest, so a span's busy time is already its self time.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    calls: [AtomicU64; OPS],
    busy_ns: [AtomicU64; OPS],
    wait_ns: [AtomicU64; OPS],
}

/// Totals of one op, read back after a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpTotals {
    /// Calls timed.
    pub calls: u64,
    /// Busy nanoseconds summed over calls.
    pub busy_ns: u64,
    /// Wait nanoseconds summed over calls.
    pub wait_ns: u64,
}

impl OpTotals {
    /// Mean busy nanoseconds per `per` (0 when `per` is 0).
    pub fn busy_per(&self, per: u64) -> f64 {
        ratio(self.busy_ns as f64, per as f64)
    }

    /// Mean wait nanoseconds per `per` (0 when `per` is 0).
    pub fn wait_per(&self, per: u64) -> f64 {
        ratio(self.wait_ns as f64, per as f64)
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Spans {
    /// A span table; when `enabled` is false every [`Spans::time`] is a
    /// plain call.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            ..Spans::default()
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span of `op`.
    pub fn time<T>(&self, op: Op, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let (cpu0, wall0) = (thread_cpu_ns(), Instant::now());
        let out = f();
        let cpu = thread_cpu_ns() - cpu0;
        let wall = wall0.elapsed().as_nanos() as u64;
        let i = op as usize;
        self.calls[i].fetch_add(1, Ordering::Relaxed);
        self.busy_ns[i].fetch_add(cpu, Ordering::Relaxed);
        self.wait_ns[i].fetch_add(wall.saturating_sub(cpu), Ordering::Relaxed);
        out
    }

    /// Totals of `op` so far.
    pub fn totals(&self, op: Op) -> OpTotals {
        let i = op as usize;
        OpTotals {
            calls: self.calls[i].load(Ordering::Relaxed),
            busy_ns: self.busy_ns[i].load(Ordering::Relaxed),
            wait_ns: self.wait_ns[i].load(Ordering::Relaxed),
        }
    }
}
