//! Stackful coroutines and the baton hand-off — the only `unsafe` code in
//! the scheduler, and in the simulator.
//!
//! Every simulated task runs as a coroutine on its own mmap'd stack, driven
//! from the host thread that created it. A scheduler grant to a coroutine is
//! a user-space context switch: the yielding context saves its callee-saved
//! registers on its own stack, stores the stack pointer in its [`Baton`],
//! and loads the grantee's. The host thread's original stack (the *main
//! context*) takes part in the same switches as the host task. A baton that
//! belongs to another OS thread (only the scheduler's own OS-thread tests
//! and the benchmark's hand-off probe create those) is still handed over
//! through its condvar.
//!
//! # Invariants
//!
//! - **One thread.** A coroutine is only ever resumed on the OS thread that
//!   created it (asserted at every switch into one): its stack holds
//!   references that are only valid there, and the thread-locals swapped at
//!   each switch are that thread's.
//! - **One switched-out context per baton.** A baton's `sp` is non-null
//!   exactly while its context is suspended in [`switch`]; the switch into
//!   it clears `sp` before jumping, so a context is never resumed twice.
//! - **Nothing held across a switch.** Callers switch only after releasing
//!   the scheduler lock; no `samhita_prof` phase guard may be live (debug
//!   assertion), or its span would count the other task's time as well.
//! - **No unwinding across a switch.** A coroutine body runs under
//!   `catch_unwind`; the panic payload is handed back to the host by
//!   [`Coroutine::join`] / [`TaskRef::drive`], never unwound through the
//!   entry trampoline.
//! - **Stack bound.** Each coroutine gets [`STACK_SIZE`] bytes (2 MiB, the
//!   size of a default `std::thread` stack) reserved with
//!   `mmap(MAP_NORESERVE)`, so only touched pages cost memory, plus one
//!   `PROT_NONE` guard page below it: an overflow faults instead of
//!   corrupting a neighbour. A finished coroutine's stack is unmapped when
//!   it is joined; the stack of one that never finished (the run
//!   deadlocked or a sibling panicked) is leaked, because frames that were
//!   never unwound still live on it.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "samhita-sched switches coroutine stacks with x86_64 SysV assembly and reserves them \
     with Linux mmap; only x86_64 Linux is supported"
);

use std::cell::Cell;
use std::ffi::{c_int, c_void};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::{TaskRef, CURRENT};

/// Usable stack bytes per coroutine (the guard page comes on top).
pub(crate) const STACK_SIZE: usize = 2 << 20;

/// The x86_64 base page size: the guard page's extent.
const PAGE: usize = 4096;

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x20000;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
}

thread_local! {
    /// The baton of the main context currently switched out on this thread:
    /// where a coroutine goes when nothing is ready to run.
    static MAIN: Cell<*const Baton> = const { Cell::new(ptr::null()) };
    /// Host instant the last switch on this thread started, while profiling.
    static SWITCH_T0: Cell<Option<Instant>> = const { Cell::new(None) };
    /// Only its address is used: a cheap identity for the calling thread.
    static TOKEN: u8 = const { 0 };
}

fn thread_token() -> usize {
    TOKEN.with(|t| t as *const u8 as usize)
}

/// The per-task hand-off gate. A grant carries the virtual time it was made
/// at. It reaches a context-switched task through `slot` plus a switch into
/// the saved `sp`, and a task blocked on another OS thread through `slot`
/// plus the condvar.
pub(crate) struct Baton {
    slot: Mutex<Option<u64>>,
    cv: Condvar,
    /// Saved stack pointer while this task's context is switched out.
    sp: AtomicPtr<u8>,
    /// Set once, before the first grant, for tasks that run as coroutines.
    coroutine: AtomicBool,
    /// [`thread_token`] of the thread this context runs on, once it has a
    /// context that can be switched out.
    home: AtomicUsize,
}

impl Baton {
    pub(crate) fn new() -> Self {
        Baton {
            slot: Mutex::new(None),
            cv: Condvar::new(),
            sp: AtomicPtr::new(ptr::null_mut()),
            coroutine: AtomicBool::new(false),
            home: AtomicUsize::new(0),
        }
    }

    fn is_coroutine(&self) -> bool {
        self.coroutine.load(Relaxed)
    }

    fn switched_out(&self) -> bool {
        !self.sp.load(Relaxed).is_null()
    }

    /// Hand the baton to a task blocked on another OS thread.
    fn grant(&self, at: u64) {
        let mut slot = self.slot.lock();
        debug_assert!(slot.is_none(), "baton granted twice without an intervening block");
        *slot = Some(at);
        self.cv.notify_one();
    }

    /// Block the calling OS thread until granted; returns the grant's time.
    pub(crate) fn block(&self) -> u64 {
        let mut slot = self.slot.lock();
        loop {
            if let Some(at) = slot.take() {
                return at;
            }
            self.cv.wait(&mut slot);
        }
    }

    /// Take a grant delivered by a switch into this context, if any.
    fn take(&self) -> Option<u64> {
        self.slot.lock().take()
    }

    /// Discard an unconsumed grant.
    pub(crate) fn clear(&self) {
        let _ = self.take();
    }
}

/// Save the callee-saved registers (SysV: rbx, rbp, r12–r15) plus MXCSR and
/// the x87 control word on the current stack, store the stack pointer at
/// `*save`, then load `load` as the stack pointer and restore the same set
/// from it. Returns into whatever context `load` was saved from.
///
/// # Safety
/// `load` must be a stack pointer saved by this function (or laid out by
/// [`init_stack`]) on this thread, not resumed since, whose stack is alive.
#[unsafe(naked)]
unsafe extern "C" fn switch_stacks(save: *mut *mut u8, load: *mut u8) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
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
    );
}

/// First code a fresh coroutine runs, reached by [`switch_stacks`]'s `ret`
/// with the stack 16-byte aligned: calls `r13(r12)`, which never returns.
/// It has no unwind info, so a backtrace taken on a coroutine ends here.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    core::arch::naked_asm!("mov rdi, r12", "call r13", "ud2");
}

/// Lay out a fresh stack so that switching to the returned stack pointer
/// enters [`trampoline`], which calls `entry(arg)`.
///
/// # Safety
/// `top` must be the 16-byte-aligned end of a writable region of at least
/// 80 bytes.
unsafe fn init_stack(top: *mut u8, entry: extern "C" fn(*mut u8) -> !, arg: *mut u8) -> *mut u8 {
    // Lowest address first, in the order `switch_stacks` restores them:
    // MXCSR (0x1F80) and x87 control word (0x037F) at their defaults, r15,
    // r14, r13 = entry, r12 = arg, rbx, rbp, the return address, and two
    // zero words that leave the trampoline's stack 16-byte aligned.
    let frame: [u64; 10] = [
        (0x037F << 32) | 0x1F80,
        0,
        0,
        entry as usize as u64,
        arg as u64,
        0,
        0,
        trampoline as *const () as u64,
        0,
        0,
    ];
    let sp = (top as *mut u64).sub(frame.len());
    ptr::copy_nonoverlapping(frame.as_ptr(), sp, frame.len());
    sp as *mut u8
}

/// Switch from the calling context, whose baton is `from`, to the context
/// saved in `to`, and return once some other context switches back. The
/// thread-locals that belong to a context — [`crate::Scheduler::current`]
/// and the profiler's active phase — are saved on the outgoing stack and
/// restored when it resumes.
fn switch(from: &Baton, to: &Baton) {
    assert_home(to);
    let main = !from.is_coroutine();
    let outer_main = if main {
        from.home.store(thread_token(), Relaxed);
        MAIN.with(|m| m.replace(from))
    } else {
        ptr::null()
    };
    let current = CURRENT.with(|c| c.borrow_mut().take());
    let phase = samhita_prof::swap_active(0);
    debug_assert_eq!(phase, 0, "a samhita_prof phase guard is live across a context switch");
    if samhita_prof::enabled() {
        SWITCH_T0.with(|t| t.set(Some(Instant::now())));
    }
    let to_sp = to.sp.swap(ptr::null_mut(), Relaxed);
    assert!(!to_sp.is_null(), "switch into a context that is not switched out");
    // SAFETY: `to_sp` was saved by `switch_stacks` (or laid out by
    // `init_stack`) for a context suspended on this thread (`assert_home`),
    // and it was cleared above, so that context is resumed exactly once.
    unsafe { switch_stacks(from.sp.as_ptr(), to_sp) };
    switched_in();
    samhita_prof::swap_active(phase);
    CURRENT.with(|c| *c.borrow_mut() = current);
    if main {
        MAIN.with(|m| m.set(outer_main));
    }
}

/// A switched-out context — a coroutine, or a main context that switched
/// into one — may only be resumed on the thread it belongs to.
fn assert_home(to: &Baton) {
    assert_eq!(
        to.home.load(Relaxed),
        thread_token(),
        "a context must be resumed on the OS thread it was suspended on"
    );
}

/// Book the switch that just resumed this context as handoff time.
fn switched_in() {
    if let Some(t0) = SWITCH_T0.with(|t| t.take()) {
        samhita_prof::record(samhita_prof::Phase::Handoff, t0);
    }
}

/// The main context switched out on this thread.
fn main_context() -> &'static Baton {
    let main = MAIN.with(|m| m.get());
    assert!(!main.is_null(), "a coroutine ran without a main context to return to");
    // SAFETY: MAIN is set only while that main context is suspended in
    // `switch`, whose caller holds the baton's task (and so the baton)
    // alive until it resumes and restores MAIN.
    unsafe { &*main }
}

/// Give the baton from the calling context (`from`) to the scheduler's pick
/// `to`, and — if `wait` — block until it comes back. Returns the grant's
/// virtual time, or `None` when the caller did not wait, when there was
/// nothing to pick, or when it is a main context resumed because nothing
/// was left to run.
pub(crate) fn hand_off(from: &Baton, to: Option<(&Baton, u64)>, wait: bool) -> Option<u64> {
    match to {
        Some((to, at)) if to.switched_out() => {
            *to.slot.lock() = Some(at);
            switch(from, to);
            from.take()
        }
        Some((to, at)) => {
            assert!(
                !from.is_coroutine(),
                "a coroutine cannot hand the baton to a task on another OS thread"
            );
            to.grant(at);
            wait.then(|| from.block())
        }
        None if from.is_coroutine() => {
            switch(from, main_context());
            from.take()
        }
        // Nothing runs and nothing is Ready, so nothing can grant the baton
        // back: the caller reports the deadlock if it meant to wait.
        None => None,
    }
}

/// A coroutine's stack: [`STACK_SIZE`] usable bytes above one guard page.
struct Stack {
    base: *mut u8,
}

impl Stack {
    const LEN: usize = STACK_SIZE + PAGE;

    fn new() -> Stack {
        // SAFETY: a fresh private anonymous mapping aliases nothing; the
        // guard page is its lowest page.
        unsafe {
            let base = mmap(
                ptr::null_mut(),
                Self::LEN,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            );
            if base as isize == -1 {
                panic!("mmap of a coroutine stack failed: {}", std::io::Error::last_os_error());
            }
            if mprotect(base, PAGE, PROT_NONE) != 0 {
                panic!(
                    "mprotect of a stack guard page failed: {}",
                    std::io::Error::last_os_error()
                );
            }
            Stack { base: base as *mut u8 }
        }
    }

    fn top(&self) -> *mut u8 {
        // SAFETY: one past the end of the mapping; page-aligned.
        unsafe { self.base.add(Self::LEN) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: unmapped once, only after its coroutine finished (see
        // `Handle::join`): no live frame remains on it.
        unsafe { munmap(self.base as *mut c_void, Self::LEN) };
    }
}

/// What a coroutine's body produced: its value, or its panic payload.
type Outcome<T> = std::thread::Result<T>;

/// State shared between a coroutine and its handle, on the heap so its
/// address is stable.
struct Frame<'a, T> {
    task: TaskRef,
    body: Option<Box<dyn FnOnce() -> T + 'a>>,
    result: Option<Outcome<T>>,
}

/// Entry point of every coroutine, called by [`trampoline`] on the fresh
/// stack with its frame. Never returns: the coroutine retires by switching
/// away for good.
extern "C" fn coroutine_main<T>(frame: *mut u8) -> ! {
    // SAFETY: `frame` is the `Frame` this coroutine was created with; its
    // handle keeps it alive and does not touch it while the coroutine runs.
    let frame = unsafe { &mut *(frame as *mut Frame<'static, T>) };
    switched_in();
    CURRENT.with(|c| *c.borrow_mut() = Some(frame.task.clone()));
    let body = frame.body.take().expect("coroutine entered twice");
    frame.result = Some(catch_unwind(AssertUnwindSafe(body)));
    retire(&frame.task)
}

/// Retire the calling coroutine's task and switch away for good. Nothing
/// owned may remain on this stack: it is never resumed or unwound.
fn retire(task: &TaskRef) -> ! {
    let next = task.retire();
    drop(CURRENT.with(|c| c.borrow_mut().take()));
    let to: &Baton = match next {
        Some((to, at)) => {
            // SAFETY: the scheduler's task table holds the baton alive, and
            // `task` holds the scheduler alive.
            let to = unsafe { &*to };
            assert!(to.switched_out(), "a coroutine retired into a task on another OS thread");
            assert_home(to);
            *to.slot.lock() = Some(at);
            to
        }
        None => main_context(),
    };
    let phase = samhita_prof::swap_active(0);
    debug_assert_eq!(phase, 0, "a samhita_prof phase guard is live across a context switch");
    if samhita_prof::enabled() {
        SWITCH_T0.with(|t| t.set(Some(Instant::now())));
    }
    let to_sp = to.sp.swap(ptr::null_mut(), Relaxed);
    let mut dead = ptr::null_mut();
    // SAFETY: as in `switch`; the outgoing context is saved into `dead` and
    // never resumed.
    unsafe { switch_stacks(&mut dead, to_sp) };
    std::process::abort()
}

/// A coroutine together with its stack.
struct Handle<'a, T> {
    frame: Box<Frame<'a, T>>,
    stack: Option<Stack>,
}

impl<'a, T> Handle<'a, T> {
    /// Make `task` run `body` as a coroutine on a fresh stack, from its
    /// first grant on.
    ///
    /// # Safety
    /// The handle must be joined or dropped before `'a` ends: that is what
    /// stops the coroutine from ever running again.
    unsafe fn new(task: &TaskRef, body: Box<dyn FnOnce() -> T + 'a>) -> Self {
        let baton = &task.baton;
        assert!(
            !baton.is_coroutine() && !baton.switched_out(),
            "task {} already has a context",
            task.id()
        );
        assert!(task.is_unstarted(), "a coroutine's task must be Ready or Parked, never run");
        let mut frame = Box::new(Frame { task: task.clone(), body: Some(body), result: None });
        let stack = Stack::new();
        let arg = &mut *frame as *mut Frame<'a, T> as *mut u8;
        let sp = init_stack(stack.top(), coroutine_main::<T>, arg);
        baton.home.store(thread_token(), Relaxed);
        baton.coroutine.store(true, Relaxed);
        baton.sp.store(sp, Relaxed);
        Handle { frame, stack: Some(stack) }
    }

    fn is_finished(&self) -> bool {
        self.frame.result.is_some()
    }

    /// The body's outcome, or `None` if it never finished. Unmaps the stack
    /// of a finished coroutine; one that never finished can never run again
    /// (its task is retired) and its stack is leaked.
    fn join(mut self) -> Option<Outcome<T>> {
        self.release();
        self.frame.result.take()
    }

    fn release(&mut self) {
        let Some(stack) = self.stack.take() else { return };
        if self.is_finished() {
            drop(stack);
        } else {
            self.frame.task.kill();
            std::mem::forget(stack);
        }
    }
}

impl<T> Drop for Handle<'_, T> {
    fn drop(&mut self) {
        self.release();
    }
}

/// A coroutine running a `'static` body, spawned with [`TaskRef::spawn`].
pub struct Coroutine<T: 'static>(Handle<'static, T>);

// SAFETY: a `Coroutine` only runs on the thread that created it (asserted
// at every switch into it); the handle itself only carries a `Send` body
// and result across threads, and `&Coroutine` exposes nothing but
// `is_finished`, a read of a field only the owning thread writes.
unsafe impl<T: Send> Send for Coroutine<T> {}
unsafe impl<T: 'static> Sync for Coroutine<T> {}

impl<T: 'static> Coroutine<T> {
    /// Whether the body has returned or panicked.
    pub fn is_finished(&self) -> bool {
        self.0.is_finished()
    }

    /// The body's outcome — its value, or the payload of its panic — or
    /// `None` if it never finished, in which case its task is retired so it
    /// can never run again.
    pub fn join(self) -> Option<std::thread::Result<T>> {
        self.0.join()
    }
}

impl TaskRef {
    /// Run `body` as a coroutine on this task, from its first grant on. The
    /// task must be Ready or Parked and never granted yet. The coroutine
    /// only runs on the calling thread, which drives it by handing over the
    /// baton (any blocking call of the host task). When it returns, its
    /// task retires.
    pub fn spawn<T: Send + 'static>(
        &self,
        body: impl FnOnce() -> T + Send + 'static,
    ) -> Coroutine<T> {
        // SAFETY: a `'static` body outlives any handle.
        Coroutine(unsafe { Handle::new(self, Box::new(body)) })
    }

    /// Run every `(task, body)` pair as a coroutine, with this (host) task
    /// giving up the baton until none of them can run any more, then take
    /// it back. Returns each body's outcome in order: `Some(Ok)` with its
    /// value, `Some(Err)` with the payload of its panic, or `None` if it
    /// never finished (the machine went quiescent with it blocked).
    ///
    /// The bodies may borrow from the caller: every coroutine has finished
    /// or been retired for good by the time this returns or unwinds.
    pub fn drive<'a, T: 'a, F: FnOnce() -> T + 'a>(
        &self,
        jobs: impl IntoIterator<Item = (TaskRef, F)>,
    ) -> Vec<Option<Outcome<T>>> {
        let handles: Vec<Handle<'a, T>> = jobs
            .into_iter()
            // SAFETY: every handle is joined below, or dropped while
            // unwinding out of this function — before `'a` ends either way.
            .map(|(task, body)| unsafe { Handle::new(&task, Box::new(body)) })
            .collect();
        self.suspend();
        self.resume();
        handles.into_iter().map(Handle::join).collect()
    }
}
