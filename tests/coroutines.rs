//! Every simulated task runs as a stackful coroutine on the host thread
//! (DESIGN.md §12). These tests pin the failure and stack-size behaviour of
//! that execution model at the scales the simulator is run at.

use std::panic::{catch_unwind, AssertUnwindSafe};

use samhita_repro::core::{Samhita, SamhitaConfig};

fn config(max_threads: u32) -> SamhitaConfig {
    SamhitaConfig { max_threads, ..SamhitaConfig::small_for_tests() }
}

/// One tid panics while its 63 siblings wait at a barrier it never
/// reaches: `run` re-raises the original panic instead of hanging, and the
/// system still shuts down cleanly afterwards.
#[test]
fn a_panicking_task_fails_the_run_with_its_own_message() {
    let sys = Samhita::new(config(64));
    let barrier = sys.create_barrier(64);
    let addr = sys.alloc_global(64 * 8);
    let result = catch_unwind(AssertUnwindSafe(|| {
        sys.run(64, |ctx| {
            ctx.write_u64(addr + ctx.tid() as u64 * 8, 1);
            if ctx.tid() == 17 {
                panic!("boom on tid 17");
            }
            ctx.barrier(barrier);
        })
    }));
    let payload = result.expect_err("the run must fail");
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .expect("a string payload");
    assert_eq!(msg, "boom on tid 17");
    // The host holds the baton again: the control plane still answers, and
    // dropping the system runs the service loops to their shutdown.
    assert_eq!(sys.read_f64s(addr, 1).len(), 1);
    let stats = sys.shutdown();
    assert_eq!(stats.servers.len(), 1);
}

/// Debug builds spill generously to the stack; a body that uses half a MiB
/// of it runs on every one of 256 simulated cores at once.
#[test]
fn bodies_may_use_half_a_mib_of_stack_at_p256() {
    const BYTES: usize = 512 * 1024;
    let sys = Samhita::new(config(256));
    let barrier = sys.create_barrier(256);
    let report = sys.run(256, |ctx| {
        let buf = [ctx.tid() as u8; BYTES];
        let buf = std::hint::black_box(&buf);
        // Every stack is live across the barrier, all 256 at once.
        ctx.barrier(barrier);
        let sum: u64 = buf.iter().map(|&b| b as u64).sum();
        assert_eq!(sum, ctx.tid() as u64 * BYTES as u64);
    });
    assert_eq!(report.threads.len(), 256);
}

/// Coroutines never migrate: a system refuses to be driven from any thread
/// but the one that created it.
#[test]
fn a_system_is_driven_only_from_its_own_thread() {
    let sys = Samhita::new(config(2));
    let from_elsewhere = std::thread::scope(|s| s.spawn(|| sys.run(1, |_| {})).join());
    assert!(from_elsewhere.is_err(), "a run driven from another thread must be refused");
    assert_eq!(sys.run(2, |_| {}).threads.len(), 2);
}
