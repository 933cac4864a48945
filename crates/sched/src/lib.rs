//! Deterministic virtual-time scheduler.
//!
//! Every simulated task — compute thread, memory server, manager — runs as
//! a stackful coroutine driven from the host thread (see [`TaskRef::spawn`]
//! and [`TaskRef::drive`]), and **exactly one task runs at a time**. The
//! scheduler hands the baton to the unique task with the globally minimal
//! `(virtual_time, tie_break, task_id)` key among those ready to run, and a
//! grant is a user-space context switch. The tie-break is a seeded
//! `splitmix64` hash of the task id, so ties at equal virtual time resolve
//! the same way in every run with the same seed — and differently across
//! seeds, which is what makes schedule-sensitivity testable.
//!
//! This is a *conservative* discrete-event design: a task yields with a
//! candidate virtual time (the earliest instant at which it could next
//! act), and the scheduler only grants the baton to the minimal candidate.
//! Because a task granted at time `g` holds the smallest candidate, every
//! message any other task may later send is stamped `>= g`; the granted
//! task can therefore safely consume anything with effective time `<= g`.
//! Candidates may be *under*-estimates (that only changes which
//! deterministic order is picked, never causality); they must never be
//! over-estimates.
//!
//! A task that is not a coroutine blocks its own OS thread while it waits
//! for the baton; that is how the host task waits on the main stack, and
//! how tasks started with [`TaskRef::start`] on other OS threads take part.

#![warn(missing_docs)]
#![deny(unsafe_code)]

#[allow(unsafe_code)]
mod coro;
mod ready;

use parking_lot::Mutex;
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

pub use coro::Coroutine;
use coro::{hand_off, Baton};
use ready::ReadyQueue;

/// `splitmix64` — the canonical 64-bit finalizer used to derive a
/// reproducible per-task tie-break from the scheduler seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Where a task stands with respect to the baton.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    /// Holds (or has been granted and will imminently take) the baton.
    Running,
    /// Wants the baton no earlier than the contained virtual time.
    Ready(u64),
    /// Blocked with no wake-up scheduled; some other task must `wake_at` it.
    Parked,
    /// Finished; never schedulable again.
    Done,
}

/// The pick policy's state: every task's state and tie-break, the Ready
/// tasks indexed by `(candidate, tie, id)`, and who holds the baton.
struct Table {
    states: Vec<TaskState>,
    ties: Vec<u64>,
    ready: ReadyQueue,
    /// The task currently holding (or granted) the baton, if any.
    running: Option<usize>,
    /// Baton grants issued so far (picks plus quiescent resume takes).
    /// Observability only: never consulted by the pick policy.
    grants: u64,
}

impl Table {
    fn new() -> Self {
        Table {
            states: Vec::new(),
            ties: Vec::new(),
            ready: ReadyQueue::default(),
            running: None,
            grants: 0,
        }
    }

    fn push(&mut self, state: TaskState, tie: u64) -> usize {
        let id = self.states.len();
        self.states.push(TaskState::Parked);
        self.ties.push(tie);
        if state == TaskState::Running {
            assert!(self.running.is_none(), "two tasks registered Running");
            self.running = Some(id);
        }
        self.set(id, state);
        id
    }

    /// Move task `id` to `state`, keeping the ready index in step.
    fn set(&mut self, id: usize, state: TaskState) {
        match state {
            TaskState::Ready(at) => self.ready.upsert(id, (at, self.ties[id])),
            _ => self.ready.remove(id),
        }
        self.states[id] = state;
    }

    /// Merge a wake-up at `t` into task `id`: Parked becomes Ready(t), Ready
    /// keeps the earlier candidate, Running and Done ignore it.
    fn wake(&mut self, id: usize, t: u64) {
        match self.states[id] {
            TaskState::Parked => self.set(id, TaskState::Ready(t)),
            TaskState::Ready(c) if t < c => self.set(id, TaskState::Ready(t)),
            _ => {}
        }
    }

    /// Take the baton from the running task `id`, leaving it in `state`.
    fn release(&mut self, id: usize, state: TaskState) {
        assert_eq!(self.running, Some(id), "task {id} gave up a baton it does not hold");
        self.running = None;
        self.set(id, state);
    }

    /// Grant the baton to the Ready task with the minimal
    /// `(candidate, tie, id)` key, if any; returns it with its candidate.
    fn pick(&mut self) -> Option<(usize, u64)> {
        let _prof = samhita_prof::enter(samhita_prof::Phase::SchedStep);
        debug_assert!(self.running.is_none());
        let (id, (at, _)) = self.ready.pop()?;
        self.states[id] = TaskState::Running;
        self.running = Some(id);
        self.grants += 1;
        Some((id, at))
    }
}

struct Inner {
    table: Table,
    batons: Vec<Arc<Baton>>,
}

impl Inner {
    /// The baton of a pick, cloned out so the lock can be released first.
    fn grantee(&self, pick: Option<(usize, u64)>) -> Option<(Arc<Baton>, u64)> {
        pick.map(|(id, at)| (self.batons[id].clone(), at))
    }
}

/// The deterministic scheduler: a shared registry of tasks plus the single
/// global pick policy. Create one per simulated run via [`Scheduler::new`].
pub struct Scheduler {
    seed: u64,
    inner: Mutex<Inner>,
}

thread_local! {
    static CURRENT: RefCell<Option<TaskRef>> = const { RefCell::new(None) };
}

impl Scheduler {
    /// A fresh scheduler whose tie-breaks derive from `seed`.
    pub fn new(seed: u64) -> Arc<Scheduler> {
        Arc::new(Scheduler {
            seed,
            inner: Mutex::new(Inner { table: Table::new(), batons: Vec::new() }),
        })
    }

    /// The seed the tie-breaks derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total baton grants issued so far — a measure of how often the
    /// machine context-switched in virtual time. Purely observational.
    pub fn grants(&self) -> u64 {
        self.inner.lock().table.grants
    }

    /// The task running in the calling context: a coroutine's own task, or
    /// the task an OS thread bound with [`TaskRef::start`]. The host's main
    /// context and plain threads see `None`.
    pub fn current() -> Option<TaskRef> {
        CURRENT.with(|c| c.borrow().clone())
    }

    fn register(self: &Arc<Self>, state: TaskState) -> TaskRef {
        let baton = Arc::new(Baton::new());
        let mut inner = self.inner.lock();
        let tie = splitmix64(self.seed ^ (inner.batons.len() as u64 + 1));
        let id = inner.table.push(state, tie);
        inner.batons.push(baton.clone());
        TaskRef { sched: self.clone(), id, baton }
    }

    /// Register the calling context as the task that currently holds the
    /// baton (the host). Exactly one task may be Running at registration.
    pub fn register_running(self: &Arc<Self>) -> TaskRef {
        self.register(TaskState::Running)
    }

    /// Register a task ready to run no earlier than virtual time `at`.
    pub fn register_ready(self: &Arc<Self>, at: u64) -> TaskRef {
        self.register(TaskState::Ready(at))
    }

    /// Register a task blocked until somebody wakes it.
    pub fn register_parked(self: &Arc<Self>) -> TaskRef {
        self.register(TaskState::Parked)
    }
}

impl fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Scheduler")
            .field("seed", &self.seed)
            .field("tasks", &inner.batons.len())
            .field("running", &inner.table.running)
            .finish()
    }
}

/// A handle on one registered task. Clonable and sharable: wake-ups arrive
/// from whichever task is currently running.
pub struct TaskRef {
    sched: Arc<Scheduler>,
    id: usize,
    baton: Arc<Baton>,
}

impl Clone for TaskRef {
    fn clone(&self) -> Self {
        TaskRef { sched: self.sched.clone(), id: self.id, baton: self.baton.clone() }
    }
}

impl fmt::Debug for TaskRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskRef").field("id", &self.id).finish()
    }
}

impl TaskRef {
    /// This task's registration index (also the final tie-break key).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Give up the baton, leaving this task in `state`, to the scheduler's
    /// pick, and — if `wait` — block until granted again.
    fn give_up(&self, state: TaskState, wait: bool) -> Option<u64> {
        let next = {
            let mut inner = self.sched.inner.lock();
            inner.table.release(self.id, state);
            let pick = inner.table.pick();
            if let Some((_, at)) = pick.filter(|&(id, _)| id == self.id) {
                return Some(at);
            }
            inner.grantee(pick)
        };
        self.hand_off(next, wait)
    }

    fn hand_off(&self, next: Option<(Arc<Baton>, u64)>, wait: bool) -> Option<u64> {
        let granted = hand_off(&self.baton, next.as_ref().map(|(b, at)| (&**b, *at)), wait);
        assert!(
            granted.is_some() || !wait,
            "simulated deadlock: task {} waits for the baton but no task can run",
            self.id
        );
        granted
    }

    /// First block of a task run on its own OS thread: wait for the first
    /// baton grant, bind this task to the calling thread (so
    /// [`Scheduler::current`] finds it), and return the grant's candidate.
    pub fn start(&self) -> u64 {
        let at = self.baton.block();
        CURRENT.with(|c| *c.borrow_mut() = Some(self.clone()));
        at
    }

    /// Make this task schedulable no earlier than virtual time `t`. Merging
    /// is by minimum: an already-Ready task keeps the earlier of the two
    /// candidates; Running and Done tasks ignore wakes (a Running task will
    /// re-announce its own candidate when it next yields). Never hands the
    /// baton directly — only the scheduler pick does that.
    pub fn wake_at(&self, t: u64) {
        self.sched.inner.lock().table.wake(self.id, t);
    }

    /// Give up the baton until virtual time `t`, let the minimal-candidate
    /// task run, and block until re-granted. Returns the grant's candidate:
    /// the caller may consume anything with effective time `<=` that value.
    pub fn yield_until(&self, t: u64) -> u64 {
        self.give_up(TaskState::Ready(t), true).expect("a waiting task is granted")
    }

    /// Block with no wake-up scheduled; some other task must [`wake_at`]
    /// this one. Returns the grant's candidate time once re-granted.
    ///
    /// [`wake_at`]: TaskRef::wake_at
    pub fn park(&self) -> u64 {
        self.give_up(TaskState::Parked, true).expect("a waiting task is granted")
    }

    /// Release the baton for the other tasks. On the thread that drives
    /// coroutines this runs them until none can run any more; a grant to a
    /// task on another OS thread returns at once, and the host must not
    /// touch the simulated fabric until [`resume`].
    ///
    /// [`resume`]: TaskRef::resume
    pub fn suspend(&self) {
        let next = {
            let mut inner = self.sched.inner.lock();
            if inner.table.running != Some(self.id) {
                inner.table.set(self.id, TaskState::Parked);
                return;
            }
            inner.table.release(self.id, TaskState::Parked);
            let pick = inner.table.pick();
            inner.grantee(pick)
        };
        self.hand_off(next, false);
    }

    /// Re-acquire the baton after a [`suspend`]. Idempotent: a no-op if
    /// this task already runs. If the machine is quiescent (nothing Ready,
    /// nothing Running) the baton is taken immediately; otherwise the task
    /// queues at `u64::MAX` so every pending finite-candidate event drains
    /// before the host proceeds.
    ///
    /// [`suspend`]: TaskRef::suspend
    pub fn resume(&self) {
        let next = {
            let mut inner = self.sched.inner.lock();
            let table = &mut inner.table;
            if table.running == Some(self.id) {
                // Discard a grant issued while this task was briefly parked
                // by `suspend`: it is already running again.
                self.baton.clear();
                return;
            }
            table.set(self.id, TaskState::Ready(u64::MAX));
            if table.running.is_some() {
                // Another OS thread holds the baton; its hand-off wakes us.
                None
            } else {
                // When nothing else is Ready the machine is quiescent (wakes
                // only come from running tasks) and the pick is this task.
                match table.pick() {
                    Some((id, _)) if id == self.id => return,
                    pick => inner.grantee(pick),
                }
            }
        };
        match next {
            Some(_) => {
                self.hand_off(next, true);
            }
            None => {
                self.baton.block();
            }
        }
    }

    /// Retire this task. If it held the baton the next minimal candidate is
    /// granted (on the coroutine thread, the coroutines run until none can
    /// run any more). Unbinds [`Scheduler::current`] when called on the
    /// calling thread's own task. Safe to call for a task that never
    /// started.
    pub fn exit(&self) {
        let next = {
            let mut inner = self.sched.inner.lock();
            if inner.table.running == Some(self.id) {
                inner.table.release(self.id, TaskState::Done);
                let pick = inner.table.pick();
                inner.grantee(pick)
            } else {
                inner.table.set(self.id, TaskState::Done);
                None
            }
        };
        if next.is_some() {
            self.hand_off(next, false);
        }
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            if cur.as_ref().is_some_and(|t| t.id == self.id) {
                *cur = None;
            }
        });
    }

    /// Retire a finished coroutine's task and pick its successor, returning
    /// the successor's baton (held alive by the scheduler) and grant time.
    fn retire(&self) -> Option<(*const Baton, u64)> {
        let mut inner = self.sched.inner.lock();
        inner.table.release(self.id, TaskState::Done);
        let pick = inner.table.pick();
        pick.map(|(id, at)| (Arc::as_ptr(&inner.batons[id]), at))
    }

    /// Retire a coroutine that never finished, so nothing can run it again.
    fn kill(&self) {
        let mut inner = self.sched.inner.lock();
        assert_ne!(inner.table.running, Some(self.id), "cannot retire a running coroutine");
        inner.table.set(self.id, TaskState::Done);
    }

    /// Whether this task has neither run nor finished.
    fn is_unstarted(&self) -> bool {
        let inner = self.sched.inner.lock();
        matches!(inner.table.states[self.id], TaskState::Ready(_) | TaskState::Parked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    /// Workers yield at distinct virtual times; the recorded order must be
    /// exactly ascending-by-candidate regardless of spawn order.
    #[test]
    fn grants_follow_virtual_time_order() {
        let sched = Scheduler::new(1);
        let host = sched.register_running();
        let order = Arc::new(Mutex::new(Vec::new()));
        // Register in reverse so registration order != virtual-time order.
        let tasks: Vec<TaskRef> = (0..4).map(|i| sched.register_ready(100 - i * 10)).collect();
        let mut joins = Vec::new();
        for (i, task) in tasks.iter().enumerate() {
            let task = task.clone();
            let order = order.clone();
            joins.push(thread::spawn(move || {
                let granted = task.start();
                order.lock().push((i, granted));
                task.exit();
            }));
        }
        host.suspend();
        for j in joins {
            j.join().unwrap();
        }
        host.resume();
        assert_eq!(*order.lock(), vec![(3, 70), (2, 80), (1, 90), (0, 100)]);
    }

    /// Equal candidates: order is fixed per seed, and some seed pair orders
    /// them differently (the tie-break is really seeded, not id order).
    #[test]
    fn ties_break_by_seed_reproducibly() {
        let run = |seed: u64| {
            let sched = Scheduler::new(seed);
            let host = sched.register_running();
            let order = Arc::new(Mutex::new(Vec::new()));
            let tasks: Vec<TaskRef> = (0..6).map(|_| sched.register_ready(42)).collect();
            let mut joins = Vec::new();
            for (i, task) in tasks.iter().enumerate() {
                let task = task.clone();
                let order = order.clone();
                joins.push(thread::spawn(move || {
                    task.start();
                    order.lock().push(i);
                    task.exit();
                }));
            }
            host.suspend();
            for j in joins {
                j.join().unwrap();
            }
            host.resume();
            let o = order.lock().clone();
            o
        };
        assert_eq!(run(7), run(7), "same seed must give the same tie order");
        assert!(
            (0..32u64).any(|s| run(s) != run(s + 32)),
            "some seed pair must order ties differently"
        );
    }

    /// A parked task woken by a running one resumes at the wake's time; the
    /// waker keeps running until it yields past that time.
    #[test]
    fn park_wake_handoff_carries_virtual_time() {
        let sched = Scheduler::new(3);
        let host = sched.register_running();
        let a = sched.register_ready(0);
        let b = sched.register_parked();
        let log = Arc::new(Mutex::new(Vec::new()));

        let (la, lb) = (log.clone(), log.clone());
        let (a2, b2) = (a.clone(), b.clone());
        let ta = thread::spawn(move || {
            let g = a2.start();
            la.lock().push(("a-start", g));
            b2.wake_at(500);
            let g = a2.yield_until(900);
            la.lock().push(("a-resume", g));
            a2.exit();
        });
        let tb = thread::spawn(move || {
            let g = b.start();
            lb.lock().push(("b-start", g));
            b.exit();
        });
        host.suspend();
        ta.join().unwrap();
        tb.join().unwrap();
        host.resume();
        assert_eq!(
            *log.lock(),
            vec![("a-start", 0), ("b-start", 500), ("a-resume", 900)],
            "the wake must run at 500, before a's 900 candidate"
        );
    }

    /// yield_until may re-grant the caller when it stays minimal.
    #[test]
    fn yield_can_regrant_self() {
        let sched = Scheduler::new(9);
        let host = sched.register_running();
        let a = sched.register_ready(0);
        let _parked = sched.register_parked();
        let t = thread::spawn(move || {
            let g0 = a.start();
            let g1 = a.yield_until(10);
            a.exit();
            (g0, g1)
        });
        host.suspend();
        let (g0, g1) = t.join().unwrap();
        host.resume();
        assert_eq!((g0, g1), (0, 10));
    }

    /// resume() is idempotent and drains pending work first.
    #[test]
    fn resume_waits_for_ready_tasks_and_is_idempotent() {
        let sched = Scheduler::new(11);
        let host = sched.register_running();
        let done = Arc::new(AtomicUsize::new(0));
        let workers: Vec<TaskRef> = (0..3).map(|i| sched.register_ready(i * 5)).collect();
        let mut joins = Vec::new();
        for w in &workers {
            let w = w.clone();
            let done = done.clone();
            joins.push(thread::spawn(move || {
                w.start();
                done.fetch_add(1, Ordering::SeqCst);
                w.exit();
            }));
        }
        host.suspend();
        host.resume(); // must wait for (or outlast) the three workers
        assert_eq!(done.load(Ordering::SeqCst), 3, "resume must drain finite candidates first");
        host.resume(); // idempotent: already running
        for j in joins {
            j.join().unwrap();
        }
    }

    /// current() binds on start and unbinds on exit; alien threads see None.
    #[test]
    fn current_is_bound_per_thread() {
        assert!(Scheduler::current().is_none());
        let sched = Scheduler::new(5);
        let host = sched.register_running();
        let a = sched.register_ready(0);
        let t = thread::spawn(move || {
            assert!(Scheduler::current().is_none());
            a.start();
            let cur = Scheduler::current().expect("bound after start");
            assert_eq!(cur.id(), a.id());
            a.exit();
            assert!(Scheduler::current().is_none(), "unbound after exit");
        });
        host.suspend();
        t.join().unwrap();
        host.resume();
        assert!(Scheduler::current().is_none(), "host thread never bound");
    }

    /// A wake targeting a Running or Done task is ignored; a second wake at
    /// an earlier time lowers a Ready candidate.
    #[test]
    fn wake_merging_rules() {
        let sched = Scheduler::new(13);
        let host = sched.register_running();
        let a = sched.register_parked();
        a.wake_at(100);
        a.wake_at(40); // earlier wake wins
        a.wake_at(70); // later wake ignored
        let a2 = a.clone();
        let t = thread::spawn(move || {
            let g = a2.start();
            a2.exit();
            g
        });
        host.suspend();
        assert_eq!(t.join().unwrap(), 40);
        host.resume();
        a.wake_at(0); // Done: ignored, must not panic or grant
    }

    /// Coroutines interleave by virtual time on the host thread, see their
    /// own task as current, and hand back their values in job order.
    #[test]
    fn coroutines_interleave_by_virtual_time() {
        let sched = Scheduler::new(17);
        let host = sched.register_running();
        let log = RefCell::new(Vec::new());
        let jobs = (0..3u64).map(|i| {
            let task = sched.register_ready(i);
            let log = &log;
            let me = task.id();
            (task, move || {
                let cur = Scheduler::current().expect("a coroutine sees its own task");
                assert_eq!(cur.id(), me);
                for step in 0..3u64 {
                    let at = cur.yield_until(10 * step + i);
                    log.borrow_mut().push((i, at));
                }
                i * 100
            })
        });
        let out: Vec<u64> = host.drive(jobs).into_iter().map(|r| r.unwrap().unwrap()).collect();
        assert_eq!(out, vec![0, 100, 200]);
        let expected: Vec<(u64, u64)> =
            (0..3u64).flat_map(|s| (0..3u64).map(move |i| (i, 10 * s + i))).collect();
        assert_eq!(*log.borrow(), expected);
        assert!(Scheduler::current().is_none(), "the host context is restored");
    }

    /// A panicking coroutine hands its payload back; a sibling blocked
    /// forever comes back as unfinished; the host keeps the baton.
    #[test]
    fn drive_returns_panics_and_blocked_tasks() {
        let sched = Scheduler::new(19);
        let host = sched.register_running();
        let a = sched.register_ready(0);
        let b = sched.register_ready(1);
        let jobs: Vec<(TaskRef, Box<dyn FnOnce() -> u32>)> = vec![
            (a, Box::new(|| panic!("boom in a"))),
            (b, Box::new(|| Scheduler::current().expect("task").park() as u32)),
        ];
        let out = host.drive(jobs);
        let payload = out[0].as_ref().unwrap().as_ref().unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom in a"));
        assert!(out[1].is_none(), "the parked task never finished");
        // The host holds the baton again and can keep scheduling.
        let c = sched.register_ready(5);
        let out = host.drive([(c, || 7)]);
        assert_eq!(out[0].as_ref().unwrap().as_ref().ok(), Some(&7));
    }

    /// A spawned coroutine outlives the call that spawned it and runs
    /// whenever the host hands over the baton.
    #[test]
    fn spawned_coroutine_runs_on_host_hand_offs() {
        let sched = Scheduler::new(23);
        let host = sched.register_running();
        let task = sched.register_parked();
        let hits = Arc::new(AtomicUsize::new(0));
        let h2 = hits.clone();
        let t2 = task.clone();
        let co = task.spawn(move || {
            let me = Scheduler::current().expect("task");
            for _ in 0..3 {
                me.park();
                h2.fetch_add(1, Ordering::SeqCst);
            }
            "done"
        });
        for round in 1..=3u64 {
            t2.wake_at(round);
            host.yield_until(round * 10);
            assert_eq!(hits.load(Ordering::SeqCst), round as usize - 1);
        }
        assert!(!co.is_finished());
        t2.wake_at(100);
        host.suspend();
        host.resume();
        assert!(co.is_finished());
        assert_eq!(co.join().unwrap().unwrap(), "done");
    }

    /// Waiting for the baton when no task can run is a deadlock, reported
    /// as a panic instead of a hang.
    #[test]
    #[should_panic(expected = "simulated deadlock")]
    fn waiting_with_nothing_runnable_panics() {
        let sched = Scheduler::new(31);
        let host = sched.register_running();
        let _parked = sched.register_parked();
        host.park();
    }

    /// A body may use half a MiB of stack (debug builds spill generously).
    #[test]
    fn coroutine_stack_holds_half_a_mib() {
        let sched = Scheduler::new(29);
        let host = sched.register_running();
        let jobs = (0..4).map(|i| {
            (sched.register_ready(0), move || {
                let buf = [i as u8; 512 * 1024];
                std::hint::black_box(&buf).iter().map(|&b| b as u64).sum::<u64>()
            })
        });
        for (i, r) in host.drive(jobs).into_iter().enumerate() {
            assert_eq!(r.unwrap().unwrap(), i as u64 * 512 * 1024);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The pick policy as it was before the ready index: a linear scan over
    /// every task for the minimal `(candidate, tie, id)` key.
    struct LinearTable {
        states: Vec<TaskState>,
        ties: Vec<u64>,
        running: Option<usize>,
    }

    impl LinearTable {
        fn wake(&mut self, id: usize, t: u64) {
            match self.states[id] {
                TaskState::Parked => self.states[id] = TaskState::Ready(t),
                TaskState::Ready(c) => self.states[id] = TaskState::Ready(c.min(t)),
                _ => {}
            }
        }

        fn pick(&mut self) -> Option<(usize, u64)> {
            let mut best: Option<(u64, u64, usize)> = None;
            for (id, s) in self.states.iter().enumerate() {
                if let TaskState::Ready(at) = *s {
                    let key = (at, self.ties[id], id);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
            let (at, _, id) = best?;
            self.states[id] = TaskState::Running;
            self.running = Some(id);
            Some((id, at))
        }
    }

    proptest! {
        /// Random register / wake / yield / park / exit / resume sequences
        /// produce the same grant sequence from the indexed pick as from the
        /// linear scan.
        #[test]
        fn indexed_pick_matches_the_linear_scan(
            ops in proptest::collection::vec((0u8..7, 0usize..64, 0u64..40), 1..300)
        ) {
            let mut fast = Table::new();
            let mut slow = LinearTable { states: Vec::new(), ties: Vec::new(), running: None };
            let mut grants = (Vec::new(), Vec::new());
            for (op, who, t) in ops {
                let n = slow.states.len();
                match op {
                    // Register (ties collide often: only 4 distinct values).
                    0 | 1 => {
                        let state = if op == 0 { TaskState::Ready(t) } else { TaskState::Parked };
                        let tie = splitmix64(who as u64 % 4);
                        fast.push(state, tie);
                        slow.states.push(state);
                        slow.ties.push(tie);
                    }
                    2 if n > 0 => {
                        fast.wake(who % n, t);
                        slow.wake(who % n, t);
                    }
                    // The running task yields, parks or exits; then a pick.
                    3..=5 => {
                        if let Some(id) = slow.running {
                            let state = match op {
                                3 => TaskState::Ready(t),
                                4 => TaskState::Parked,
                                _ => TaskState::Done,
                            };
                            fast.release(id, state);
                            slow.states[id] = state;
                            slow.running = None;
                            grants.0.push(fast.pick());
                            grants.1.push(slow.pick());
                        }
                    }
                    // An idle machine: pick.
                    _ if slow.running.is_none() => {
                        grants.0.push(fast.pick());
                        grants.1.push(slow.pick());
                    }
                    _ => {}
                }
                prop_assert_eq!(&fast.states, &slow.states);
                prop_assert_eq!(fast.running, slow.running);
            }
            prop_assert_eq!(grants.0, grants.1);
        }
    }
}
