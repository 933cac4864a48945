//! Determinism at scale: under the virtual-time scheduler (the default
//! runtime), repeated runs of the same randomized parallel program are
//! bit-identical — not just in computed values but in every virtual-time
//! statistic and in the full protocol event timeline — at P = 2, 8, and 64
//! simulated cores.
//!
//! This is the property DESIGN.md §12 promises: event delivery and every
//! blocking point (locks, barriers, fetches, flushes) are ordered by
//! `(virtual_time, seeded tie-break)` alone, so host scheduling can never
//! leak into results.

mod common;

use common::{generate, interpret, run_on_dsm};
use samhita_repro::core::{Samhita, SamhitaConfig};

const PHASES: usize = 5;

fn scale_config() -> SamhitaConfig {
    SamhitaConfig { tracing: true, max_threads: 64, ..SamhitaConfig::small_for_tests() }
}

/// One full observation of a run: final memory, the report's complete debug
/// form (per-thread stats, histograms, fabric counters, makespan), and the
/// trace checksum. Equality of two observations is bit-identity of the runs.
fn observe(seed: u64, threads: u32) -> (Vec<u64>, Vec<u64>, String, u64) {
    let phases = generate(seed, threads, PHASES);
    let sys = Samhita::new(scale_config());
    let (slots, accs, report) = run_on_dsm(&sys, &phases, threads);
    let trace = sys.take_trace().expect("tracing was enabled");
    (slots, accs, format!("{report:?}"), trace.checksum())
}

#[test]
fn random_programs_reproduce_bit_identically_at_p2_p8_p64() {
    for threads in [2u32, 8, 64] {
        for seed in [11u64, 12] {
            let a = observe(seed, threads);
            let b = observe(seed, threads);
            assert_eq!(
                a.2, b.2,
                "P={threads} seed {seed}: makespan/stats must be bit-identical across runs"
            );
            assert_eq!(a.3, b.3, "P={threads} seed {seed}: trace checksums must match across runs");
            // And the values are not merely reproducible but correct.
            let phases = generate(seed, threads, PHASES);
            let (want_slots, want_accs) = interpret(&phases, threads);
            assert_eq!(a.0, want_slots, "P={threads} seed {seed}: slots diverged");
            assert_eq!(a.1, want_accs, "P={threads} seed {seed}: accumulators diverged");
        }
    }
}

#[test]
fn scheduler_seed_changes_tie_breaks_not_results() {
    // Two different scheduler seeds may order same-virtual-time events
    // differently (so traces can differ), but the computed memory must not:
    // determinism is a scheduling property, correctness a protocol one.
    let threads = 8u32;
    let phases = generate(21, threads, PHASES);
    let (want_slots, want_accs) = interpret(&phases, threads);
    for sched_seed in [0u64, 1, 0xfeed] {
        let sys = Samhita::new(SamhitaConfig { sched_seed, ..scale_config() });
        let (slots, accs, _) = run_on_dsm(&sys, &phases, threads);
        assert_eq!(slots, want_slots, "sched_seed {sched_seed}: slots diverged");
        assert_eq!(accs, want_accs, "sched_seed {sched_seed}: accumulators diverged");
    }
}
