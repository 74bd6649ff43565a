//! Allocation-free event callbacks.
//!
//! The scheduler's hot path dispatches millions of hardware callbacks
//! (ring hops, NIC DMA completions, switch forwards). Boxing each one as
//! `Box<dyn FnOnce(Time)>` costs a heap round-trip per event; [`EventFn`]
//! instead stores small closures inline in the queue entry itself and
//! dispatches through a hand-rolled static vtable. Closures up to
//! [`INLINE_BYTES`] bytes (enough for an `Arc` plus a pool pointer, the
//! shapes the ring and NIC models use) never touch the allocator; larger
//! ones fall back to a single thin `Box`.

use std::marker::PhantomData;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};

use crate::time::Time;

/// Inline storage size, in pointer-sized words.
const INLINE_WORDS: usize = 6;

/// Closures at most this many bytes (and at most pointer-aligned) are
/// stored inline; the common hardware callbacks capture an `Arc` or two
/// and fit easily.
pub const INLINE_BYTES: usize = INLINE_WORDS * size_of::<usize>();

/// The two operations the queue needs from an erased closure. `call`
/// consumes the value in place; `drop` destroys it without calling (a
/// queue being discarded mid-simulation).
struct VTable {
    call: unsafe fn(*mut u8, Time),
    drop: unsafe fn(*mut u8),
}

/// Per-closure-type vtable instances. `&VTableFor::<F>::INLINE` promotes
/// to a `'static` borrow, so no registration or allocation is needed.
struct VTableFor<F>(PhantomData<F>);

unsafe fn call_inline<F: FnOnce(Time)>(p: *mut u8, t: Time) {
    (p.cast::<F>().read())(t)
}

unsafe fn drop_inline<F>(p: *mut u8) {
    p.cast::<F>().drop_in_place()
}

unsafe fn call_boxed<F: FnOnce(Time)>(p: *mut u8, t: Time) {
    (*Box::from_raw(p.cast::<*mut F>().read()))(t)
}

unsafe fn drop_boxed<F>(p: *mut u8) {
    drop(Box::from_raw(p.cast::<*mut F>().read()))
}

impl<F: FnOnce(Time) + 'static> VTableFor<F> {
    const INLINE: VTable = VTable {
        call: call_inline::<F>,
        drop: drop_inline::<F>,
    };
    const BOXED: VTable = VTable {
        call: call_boxed::<F>,
        drop: drop_boxed::<F>,
    };
}

/// An erased `FnOnce(Time)` with inline small-closure storage. The
/// closure need not be `Send`, so neither is an `EventFn`: events run on
/// the simulation's thread.
pub struct EventFn {
    data: [MaybeUninit<usize>; INLINE_WORDS],
    vtable: &'static VTable,
    _not_send: PhantomData<*const ()>,
}

impl EventFn {
    /// Wrap a closure, storing it inline when it fits.
    pub fn new<F: FnOnce(Time) + 'static>(f: F) -> Self {
        let mut data = [MaybeUninit::<usize>::uninit(); INLINE_WORDS];
        if size_of::<F>() <= INLINE_BYTES && align_of::<F>() <= align_of::<usize>() {
            unsafe { data.as_mut_ptr().cast::<F>().write(f) };
            EventFn {
                data,
                vtable: &VTableFor::<F>::INLINE,
                _not_send: PhantomData,
            }
        } else {
            unsafe {
                data.as_mut_ptr()
                    .cast::<*mut F>()
                    .write(Box::into_raw(Box::new(f)))
            };
            EventFn {
                data,
                vtable: &VTableFor::<F>::BOXED,
                _not_send: PhantomData,
            }
        }
    }

    /// Invoke the closure at fire time `t`, consuming it.
    pub fn call(self, t: Time) {
        let mut this = ManuallyDrop::new(self);
        unsafe { (this.vtable.call)(this.data.as_mut_ptr().cast(), t) }
    }
}

impl Drop for EventFn {
    fn drop(&mut self) {
        unsafe { (self.vtable.drop)(self.data.as_mut_ptr().cast()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn small_closure_runs_inline() {
        let hit = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hit);
        let f = EventFn::new(move |t| h.store(t, Ordering::SeqCst));
        f.call(42);
        assert_eq!(hit.load(Ordering::SeqCst), 42);
    }

    #[test]
    fn large_closure_falls_back_to_box() {
        let big = [7u64; 32]; // 256 bytes, far over the inline budget
        let hit = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hit);
        let f = EventFn::new(move |t| h.store(t + big[31], Ordering::SeqCst));
        f.call(1);
        assert_eq!(hit.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn dropping_without_calling_releases_captures() {
        let payload = Arc::new(());
        let witness = Arc::clone(&payload);
        let f = EventFn::new(move |_| drop(payload));
        assert_eq!(Arc::strong_count(&witness), 2);
        drop(f);
        assert_eq!(Arc::strong_count(&witness), 1);
    }

    #[test]
    fn dropping_large_closure_releases_captures_and_box() {
        let payload = Arc::new([0u8; 128]);
        let witness = Arc::clone(&payload);
        let big = [0u64; 16];
        let f = EventFn::new(move |_| {
            std::hint::black_box(&big);
            drop(payload)
        });
        assert_eq!(Arc::strong_count(&witness), 2);
        drop(f);
        assert_eq!(Arc::strong_count(&witness), 1);
    }
}
