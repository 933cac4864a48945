//! Host-side self-profiling for the simulator.
//!
//! Everything else in this workspace measures *virtual* time; this crate
//! measures what the simulator itself costs on the host: phase-scoped
//! wall-clock timers, an optional counting global allocator that attributes
//! allocations to the active phase, and a peak-RSS readout. It is the only
//! place host clocks are read on purpose, and it is structurally invisible
//! to virtual time: no simulator code branches on anything recorded here.
//!
//! # Invisibility contract
//!
//! - Profiling is off by default. Disabled, every instrumentation point is a
//!   single relaxed atomic load — no `Instant::now()`, no TLS write.
//! - Nothing in this crate feeds back into the simulation: the counters are
//!   write-only from the simulator's perspective and are read only by the
//!   reporting layer after a run completes.
//! - Enabling or disabling profiling must never change a virtual-time
//!   result, a trace checksum, or a serialized `BenchReport` (minus its
//!   `host` section). `tests/prof.rs` asserts this at P ∈ {1, 8, 64}.
//!
//! # Usage
//!
//! ```
//! samhita_prof::enable(true);
//! {
//!     let _g = samhita_prof::enter(samhita_prof::Phase::RegcDiff);
//!     // ... hot-path work ...
//! }
//! let report = samhita_prof::snapshot();
//! assert!(report.phase(samhita_prof::Phase::RegcDiff).calls >= 1);
//! samhita_prof::enable(false);
//! ```
//!
//! Phase timers are *inclusive*: if phase B runs inside phase A's guard, the
//! span counts toward both. The instrumented phases are chosen not to nest
//! in practice (scheduler step, diffing, batch apply, channel send/recv,
//! trace emit, span-graph build, context switch), so the per-phase table
//! reads as a flat breakdown.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// A profiled hot-path phase. Discriminants are slot indices into the
/// global counter table; slot 0 is reserved for "no active phase" so that
/// allocator attribution can fall through to an `other` bucket.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    /// One scheduler grant decision (`Scheduler::pick`).
    SchedStep = 1,
    /// Word-granularity twin/current diffing (`Diff::compute`).
    RegcDiff = 2,
    /// Applying an `UpdateBatch` at a memory server.
    BatchApply = 3,
    /// Fabric message send (delay model + delivery).
    ChannelSend = 4,
    /// Deterministic endpoint receive (drain + heap ordering).
    ChannelRecv = 5,
    /// Trace-event construction and ring-buffer push.
    TraceEvent = 6,
    /// Span-graph and critical-path construction from a finished trace.
    SpanGraph = 7,
    /// One scheduler context switch, from the yielding task's switch-out to
    /// the grantee's switch-in.
    Handoff = 8,
}

/// Number of counter slots: one per phase plus the `other` bucket at 0.
const NUM_SLOTS: usize = 9;

impl Phase {
    /// All phases, in slot order.
    pub const ALL: [Phase; 8] = [
        Phase::SchedStep,
        Phase::RegcDiff,
        Phase::BatchApply,
        Phase::ChannelSend,
        Phase::ChannelRecv,
        Phase::TraceEvent,
        Phase::SpanGraph,
        Phase::Handoff,
    ];

    /// Stable snake_case label, used in JSON and summary tables.
    pub fn label(self) -> &'static str {
        match self {
            Phase::SchedStep => "sched_step",
            Phase::RegcDiff => "regc_diff",
            Phase::BatchApply => "batch_apply",
            Phase::ChannelSend => "channel_send",
            Phase::ChannelRecv => "channel_recv",
            Phase::TraceEvent => "trace_event",
            Phase::SpanGraph => "span_graph",
            Phase::Handoff => "handoff",
        }
    }

    /// The phase with `label`, if any.
    pub fn from_label(label: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.label() == label)
    }
}

struct Slot {
    wall_ns: AtomicU64,
    calls: AtomicU64,
    allocs: AtomicU64,
    alloc_bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // const used only as array-repeat initializer
const ZERO_SLOT: Slot = Slot {
    wall_ns: AtomicU64::new(0),
    calls: AtomicU64::new(0),
    allocs: AtomicU64::new(0),
    alloc_bytes: AtomicU64::new(0),
};

static SLOTS: [Slot; NUM_SLOTS] = [ZERO_SLOT; NUM_SLOTS];
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialized so reading it never allocates — the counting
    // allocator consults this from inside `GlobalAlloc::alloc`.
    static CURRENT: std::cell::Cell<u8> = const { std::cell::Cell::new(0) };
}

/// Turn profiling on or off. Off is the default; while off, every
/// instrumentation point costs one relaxed atomic load.
pub fn enable(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Whether profiling is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Zero all counters. Call between runs while no [`PhaseGuard`] is live;
/// a guard dropped after a reset adds its full span to the fresh counters.
pub fn reset() {
    for slot in &SLOTS {
        slot.wall_ns.store(0, Relaxed);
        slot.calls.store(0, Relaxed);
        slot.allocs.store(0, Relaxed);
        slot.alloc_bytes.store(0, Relaxed);
    }
}

/// Enter `phase`; the returned guard attributes wall time (and, with the
/// `alloc-count` feature, allocations) to it until dropped. When profiling
/// is disabled this is one relaxed load and the guard is inert.
#[inline]
pub fn enter(phase: Phase) -> PhaseGuard {
    if !ENABLED.load(Relaxed) {
        return PhaseGuard { start: None, slot: 0, prev: 0 };
    }
    let slot = phase as u8;
    let prev = CURRENT.with(|c| c.replace(slot));
    PhaseGuard { start: Some(Instant::now()), slot, prev }
}

/// Add the span from `start` to now to `phase`, as one call. For spans no
/// single scope can hold, such as a context switch, which starts in one
/// task and ends in another. A no-op while profiling is disabled.
pub fn record(phase: Phase, start: Instant) {
    if ENABLED.load(Relaxed) {
        add_span(phase as u8, start);
    }
}

/// Book one call of `slot` lasting from `start` to now.
fn add_span(slot: u8, start: Instant) {
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let slot = &SLOTS[slot as usize];
    slot.wall_ns.fetch_add(ns, Relaxed);
    slot.calls.fetch_add(1, Relaxed);
}

/// Replace the calling context's active-phase marker (0 while no enabled
/// guard is live) and return the old one. A coroutine scheduler swaps it at
/// every context switch, because the marker is a thread-local and several
/// simulated tasks share one thread.
pub fn swap_active(marker: u8) -> u8 {
    CURRENT.with(|c| c.replace(marker))
}

/// RAII scope for one phase; see [`enter`].
#[must_use = "a PhaseGuard records its span when dropped"]
pub struct PhaseGuard {
    start: Option<Instant>,
    slot: u8,
    prev: u8,
}

impl Drop for PhaseGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            CURRENT.with(|c| c.set(self.prev));
            add_span(self.slot, start);
        }
    }
}

/// Counter totals for one phase (or the `other` bucket).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Wall-clock nanoseconds spent inside the phase's guards.
    pub wall_ns: u64,
    /// Guard entries (phase invocations).
    pub calls: u64,
    /// Heap allocations attributed to the phase (`alloc-count` builds only).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl PhaseStat {
    /// Mean wall nanoseconds per call; 0 when never called.
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.wall_ns as f64 / self.calls as f64
        }
    }
}

/// A point-in-time copy of all profiling counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HostReport {
    /// Per-phase totals, in [`Phase::ALL`] order.
    pub phases: Vec<(Phase, PhaseStat)>,
    /// Allocations made while no phase guard was active.
    pub other: PhaseStat,
}

impl HostReport {
    /// The totals for `phase`.
    pub fn phase(&self, phase: Phase) -> PhaseStat {
        self.phases.iter().find(|(p, _)| *p == phase).map(|(_, s)| *s).unwrap_or_default()
    }

    /// Total allocations across all phases plus the `other` bucket.
    pub fn total_allocs(&self) -> u64 {
        self.other.allocs + self.phases.iter().map(|(_, s)| s.allocs).sum::<u64>()
    }

    /// Total wall nanoseconds attributed to tracked phases.
    pub fn tracked_wall_ns(&self) -> u64 {
        self.phases.iter().map(|(_, s)| s.wall_ns).sum()
    }
}

fn read_slot(i: usize) -> PhaseStat {
    let slot = &SLOTS[i];
    PhaseStat {
        wall_ns: slot.wall_ns.load(Relaxed),
        calls: slot.calls.load(Relaxed),
        allocs: slot.allocs.load(Relaxed),
        alloc_bytes: slot.alloc_bytes.load(Relaxed),
    }
}

/// Copy the current counter totals.
pub fn snapshot() -> HostReport {
    HostReport {
        phases: Phase::ALL.into_iter().map(|p| (p, read_slot(p as usize))).collect(),
        other: read_slot(0),
    }
}

/// Peak resident set size of this process in bytes, from `VmHWM` in
/// `/proc/self/status`; 0 where that interface is unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(feature = "alloc-count")]
mod counting_alloc {
    use super::{Relaxed, ENABLED, SLOTS};
    use std::alloc::{GlobalAlloc, Layout, System};

    /// System-allocator wrapper that attributes allocations to the active
    /// profiling phase. Installed as the global allocator by this crate's
    /// `alloc-count` feature.
    pub struct CountingAlloc;

    #[inline]
    fn record(size: usize) {
        if !ENABLED.load(Relaxed) {
            return;
        }
        // try_with: the TLS slot may already be torn down during thread
        // exit; attribute those stragglers to the `other` bucket.
        let slot = super::CURRENT.try_with(|c| c.get()).unwrap_or(0);
        let slot = &SLOTS[slot as usize];
        slot.allocs.fetch_add(1, Relaxed);
        slot.alloc_bytes.fetch_add(size as u64, Relaxed);
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            record(new_size);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

#[cfg(feature = "alloc-count")]
pub use counting_alloc::CountingAlloc;

#[cfg(test)]
mod tests {
    use super::*;

    // Counter state is process-global, so the tests that depend on it run
    // under one lock to keep `cargo test`'s default parallelism honest.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_guard_records_nothing() {
        let _l = LOCK.lock().unwrap();
        enable(false);
        reset();
        {
            let _g = enter(Phase::RegcDiff);
            std::hint::black_box(42);
        }
        assert_eq!(snapshot().phase(Phase::RegcDiff), PhaseStat::default());
    }

    #[test]
    fn enabled_guard_accumulates_wall_time_and_calls() {
        let _l = LOCK.lock().unwrap();
        enable(true);
        reset();
        for _ in 0..3 {
            let _g = enter(Phase::BatchApply);
            std::hint::black_box(vec![0u8; 64]);
        }
        let stat = snapshot().phase(Phase::BatchApply);
        enable(false);
        assert_eq!(stat.calls, 3);
        // Instant is monotone; three guard spans cannot sum to zero only on
        // clocks coarser than the guard body, which Linux does not have.
        assert!(stat.wall_ns > 0, "expected nonzero wall time, got {stat:?}");
    }

    #[test]
    fn nested_guards_restore_the_outer_phase() {
        let _l = LOCK.lock().unwrap();
        enable(true);
        reset();
        {
            let _outer = enter(Phase::ChannelSend);
            {
                let _inner = enter(Phase::TraceEvent);
                CURRENT.with(|c| assert_eq!(c.get(), Phase::TraceEvent as u8));
            }
            CURRENT.with(|c| assert_eq!(c.get(), Phase::ChannelSend as u8));
        }
        CURRENT.with(|c| assert_eq!(c.get(), 0));
        let snap = snapshot();
        enable(false);
        assert_eq!(snap.phase(Phase::ChannelSend).calls, 1);
        assert_eq!(snap.phase(Phase::TraceEvent).calls, 1);
    }

    #[test]
    fn reset_zeroes_every_slot() {
        let _l = LOCK.lock().unwrap();
        enable(true);
        {
            let _g = enter(Phase::SchedStep);
        }
        reset();
        enable(false);
        let snap = snapshot();
        for (_, stat) in &snap.phases {
            assert_eq!(*stat, PhaseStat::default());
        }
        assert_eq!(snap.other, PhaseStat::default());
    }

    #[test]
    fn labels_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_label(p.label()), Some(p));
        }
        assert_eq!(Phase::from_label("nonsense"), None);
    }

    #[test]
    fn peak_rss_reads_proc_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "VmHWM should be readable on Linux");
        }
    }

    #[cfg(feature = "alloc-count")]
    #[test]
    fn allocations_are_attributed_to_the_active_phase() {
        let _l = LOCK.lock().unwrap();
        enable(true);
        reset();
        {
            let _g = enter(Phase::RegcDiff);
            std::hint::black_box(vec![0u8; 4096]);
        }
        let stat = snapshot().phase(Phase::RegcDiff);
        enable(false);
        assert!(stat.allocs >= 1, "expected attributed allocations, got {stat:?}");
        assert!(stat.alloc_bytes >= 4096);
    }
}
