//! Stackful coroutines: the execution substrate of `des` processes.
//!
//! A [`Coroutine`] runs a closure on a stack of its own, on the thread
//! that calls [`Coroutine::resume`]. The closure hands the thread back
//! with [`Coroutine::suspend`], and the next `resume` continues it where
//! it stopped. A switch is a few register moves in user space: no kernel
//! entry, no second thread. This module holds all of the unsafe code
//! behind that:
//!
//! - `switch`, the x86-64 System V context switch;
//! - `trampoline`, the bottom frame of every coroutine stack, whose CFI
//!   marks the end of the stack for unwinders and backtraces;
//! - the `mmap`'d stacks, each with a `PROT_NONE` guard page at its low
//!   end, unmapped when their coroutine finishes and is dropped.
//!
//! A panic never crosses a switch: `entry` catches it on the coroutine's
//! own stack and [`Coroutine::resume`] returns the payload.
//!
//! Compiled code may keep thread-local addresses in registers or spill
//! slots across a switch, so a suspended coroutine must only ever be
//! resumed on the thread that started it. `Coroutine` is `!Send` (it is
//! an `Rc`), and so is everything that owns one.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "des runs processes as coroutines whose context switch \
     (crates/des/src/coro.rs) is written for x86-64 Linux only"
);

use std::any::Any;
use std::arch::naked_asm;
use std::cell::Cell;
use std::ffi::c_void;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;
use std::rc::Rc;

/// Bytes mapped per coroutine stack, guard page included: the size of a
/// default std thread stack. The kernel commits pages only when touched.
const STACK_SIZE: usize = 2 << 20;
/// The lowest page of each stack. An overflow faults here with SIGSEGV.
const GUARD_SIZE: usize = 4096;

/// MXCSR (all exceptions masked, round to nearest) in the low 32 bits and
/// the x87 control word (64-bit precision, all exceptions masked) above
/// it: the state the ABI guarantees at a function entry.
const INITIAL_FP_CONTROL: u64 = 0x1F80 | (0x037F << 32);

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// Where a coroutine is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Created; the body has not started.
    Fresh,
    /// Running on its stack; its resumer waits in `resume`.
    Running,
    /// Parked in `suspend`, with live frames on its stack.
    Suspended,
    /// The body returned or panicked; the stack holds nothing live.
    Done,
}

type Body = Box<dyn FnOnce(Coroutine)>;

struct Inner {
    /// The saved stack pointer of whichever side is not running: the
    /// coroutine's while it is fresh or suspended, its resumer's while it
    /// runs. Every `switch` swaps it for the current one.
    sp: Cell<*mut u8>,
    state: Cell<State>,
    /// Taken by `entry` when the coroutine first runs.
    body: Cell<Option<Body>>,
    /// The payload of a panic that ended the body, for `resume` to return.
    panic: Cell<Option<Box<dyn Any + Send>>>,
    /// Low end of the stack mapping (the guard page).
    base: *mut u8,
}

impl Inner {
    fn on_stack(&self, addr: usize) -> bool {
        let lo = self.base as usize + GUARD_SIZE;
        (lo..self.base as usize + STACK_SIZE).contains(&addr)
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        if self.state.get() == State::Suspended {
            // Frames of the body are still live on the stack and will
            // never run their destructors. Leak the mapping rather than
            // free memory that something may still point into.
            return;
        }
        // SAFETY: `base` is the start of a `STACK_SIZE` mapping made in
        // `map_stack`, and nothing runs on it: the coroutine is fresh or
        // done, and a running coroutine's resumer holds a handle.
        unsafe { munmap(self.base.cast(), STACK_SIZE) };
    }
}

/// A stackful coroutine; clones are handles to the same one.
#[derive(Clone)]
pub(crate) struct Coroutine(Rc<Inner>);

impl Coroutine {
    /// A coroutine that will run `body` on a fresh stack at its first
    /// [`Coroutine::resume`]. `body` receives a handle to its coroutine,
    /// through which it suspends.
    pub(crate) fn new(body: impl FnOnce(Coroutine) + 'static) -> Coroutine {
        let base = map_stack();
        let raw = Rc::into_raw(Rc::new(Inner {
            sp: Cell::new(ptr::null_mut()),
            state: Cell::new(State::Fresh),
            body: Cell::new(Some(Box::new(body))),
            panic: Cell::new(None),
            base,
        }));
        // SAFETY: `raw` was returned by `Rc::into_raw` just above.
        let inner = unsafe { Rc::from_raw(raw) };
        // The frame `switch` pops on the first resume: the FP control
        // words, r15, r14, r13, r12 (the argument `trampoline` passes to
        // `entry`), rbx, rbp (zero: the end of the frame-pointer chain),
        // then the return address. The return address sits 24 bytes
        // below the top so that `trampoline` starts with the stack
        // 16-byte aligned, as its `call` requires.
        let frame: [u64; 8] = [
            INITIAL_FP_CONTROL,
            0,
            0,
            0,
            raw as u64,
            0,
            0,
            trampoline as *const () as u64,
        ];
        let sp = base.wrapping_add(STACK_SIZE - 24 - 7 * 8);
        // SAFETY: the 64 bytes at `sp` end 16 bytes below the top of the
        // fresh mapping, far above its guard page; `sp` is 8-aligned.
        unsafe { ptr::copy_nonoverlapping(frame.as_ptr(), sp.cast::<u64>(), frame.len()) };
        inner.sp.set(sp);
        Coroutine(inner)
    }

    /// Run the coroutine until its body suspends or ends. Returns the
    /// panic payload if the body panicked.
    ///
    /// # Panics
    ///
    /// If the coroutine is running (a resume from inside itself) or done.
    pub(crate) fn resume(&self) -> std::thread::Result<()> {
        let inner = &*self.0;
        assert!(
            matches!(inner.state.get(), State::Fresh | State::Suspended),
            "resumed a coroutine that is {:?}",
            inner.state.get()
        );
        inner.state.set(State::Running);
        // SAFETY: a fresh or suspended coroutine's `sp` holds the frame
        // `new` built or the one `switch` saved in `suspend`, on a stack
        // that stays mapped while `self` lives. `switch` leaves our stack
        // pointer in `sp`, where `suspend` or `entry` switches back to.
        unsafe { switch(inner.sp.as_ptr()) };
        match inner.panic.take() {
            Some(payload) => Err(payload),
            None => Ok(()),
        }
    }

    /// Hand the thread back to the caller of [`Coroutine::resume`];
    /// returns when the coroutine is resumed again.
    ///
    /// # Panics
    ///
    /// Unless called from this coroutine's body while it runs.
    pub(crate) fn suspend(&self) {
        let inner = &*self.0;
        let probe = 0u8;
        assert!(
            inner.state.get() == State::Running && inner.on_stack(ptr::addr_of!(probe) as usize),
            "suspend called from outside the running coroutine"
        );
        inner.state.set(State::Suspended);
        // SAFETY: we run on this coroutine's stack, so `sp` holds the
        // stack pointer `resume` saved, and that frame waits in `switch`.
        unsafe { switch(inner.sp.as_ptr()) };
    }
}

/// Map a `STACK_SIZE` stack whose lowest page is a guard.
fn map_stack() -> *mut u8 {
    // SAFETY: a new anonymous private mapping at an address the kernel
    // picks; no existing memory is affected.
    let base = unsafe {
        mmap(
            ptr::null_mut(),
            STACK_SIZE,
            PROT_READ | PROT_WRITE,
            MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
            -1,
            0,
        )
    };
    assert!(
        base != MAP_FAILED,
        "cannot map a des process stack: {}",
        std::io::Error::last_os_error()
    );
    // SAFETY: the guard is the lowest page of the mapping made above.
    let rc = unsafe { mprotect(base, GUARD_SIZE, PROT_NONE) };
    assert!(
        rc == 0,
        "cannot protect a des process stack's guard page: {}",
        std::io::Error::last_os_error()
    );
    base.cast()
}

/// The first Rust frame on every coroutine stack, called by `trampoline`
/// with the `Inner` that `Coroutine::new` leaked a pointer to. Runs the
/// body, records how it ended and switches back for good.
extern "C" fn entry(raw: *const Inner) -> ! {
    // SAFETY: `raw` came from `Rc::into_raw` in `Coroutine::new`, and the
    // resumer holds a handle until `resume` returns, so the allocation
    // outlives every use below.
    let inner = unsafe { &*raw };
    // SAFETY: as above; the count added here belongs to the body's handle.
    let co = Coroutine(unsafe {
        Rc::increment_strong_count(raw);
        Rc::from_raw(raw)
    });
    if let Some(body) = inner.body.take() {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(move || body(co))) {
            inner.panic.set(Some(payload));
        }
    }
    inner.state.set(State::Done);
    // SAFETY: `sp` holds the stack pointer `resume` saved. Nothing left
    // on this stack needs dropping: `co` and `body` were consumed above,
    // and this stack is never switched to again.
    unsafe { switch(inner.sp.as_ptr()) };
    std::process::abort()
}

/// Save the callee-saved registers, MXCSR and the x87 control word on
/// the current stack, swap the stack pointer with `*sp`, and restore the
/// same state from the new stack.
///
/// # Safety
///
/// `*sp` must hold a stack pointer saved by this function (or a frame
/// laid out like one, see `Coroutine::new`) on a mapped stack whose frame
/// waits to be resumed, on the calling thread.
#[unsafe(naked)]
unsafe extern "C" fn switch(sp: *mut *mut u8) {
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov rax, [rdi]",
        "mov [rdi], rsp",
        "mov rsp, rax",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Where a new coroutine's first `switch` returns to: passes r12 (set by
/// `Coroutine::new`) to `entry`. `rip` is undefined in its CFI, so
/// unwinders and backtraces stop here instead of walking off the stack.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "call {entry}",
        "ud2",
        ".cfi_endproc",
        entry = sym entry,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn resume_and_suspend_interleave() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = Rc::clone(&log);
        let co = Coroutine::new(move |me| {
            for i in 0..3 {
                l.borrow_mut().push(i);
                me.suspend();
            }
        });
        for _ in 0..4 {
            co.resume().expect("body does not panic");
            log.borrow_mut().push(-1);
        }
        assert_eq!(*log.borrow(), [0, -1, 1, -1, 2, -1, -1]);
        assert_eq!(co.0.state.get(), State::Done);
    }

    #[test]
    fn a_panic_is_returned_by_resume() {
        let co = Coroutine::new(|_| panic!("inside"));
        let payload = co.resume().expect_err("the body panicked");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"inside"));
    }

    #[test]
    #[should_panic(expected = "suspend called from outside")]
    fn suspend_from_outside_panics() {
        let co = Coroutine::new(|_| {});
        co.suspend();
    }

    #[test]
    fn fresh_coroutine_drops_its_body() {
        let token = Rc::new(());
        let t = Rc::clone(&token);
        drop(Coroutine::new(move |_| drop(t)));
        assert_eq!(Rc::strong_count(&token), 1);
    }
}
