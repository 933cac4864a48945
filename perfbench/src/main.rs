//! The repository benchmark: whole simulated kernel runs ("jobs"), timed on
//! the host clock and read on the virtual clock.
//!
//! ```text
//! perfbench --workload jacobi-p256|md-p64|falseshare-p8 \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload, one job after another from a single
//! thread: one discarded warm-up job, then timed jobs until `S`
//! seconds have passed. Every job brings up a fresh `SamhitaRt`, runs the
//! kernel, tears the system down and checks the output against the serial
//! reference, and its virtual fingerprint against the run's first job.
//! With `--trace 1` one more job runs with event tracing and host
//! profiling on, and its trace is checked and analysed for the per-layer
//! metrics. Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `README.md` beside this crate for the
//! workloads and what each metric should move.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use samhita_bench::report::{fingerprint, git_rev};
use samhita_bench::{thread_windows, HarnessConfig};
use samhita_core::{RunReport, SamhitaConfig};
use samhita_kernels::{
    expected_gsum, run_jacobi, run_md, run_micro, serial_reference_jacobi, serial_reference_md,
    AllocMode, JacobiParams, MdParams, MicroParams,
};
use samhita_prof::{HostReport, Phase};
use samhita_rt::SamhitaRt;
use samhita_sched::Scheduler;
use samhita_scl::MsgClass;
use samhita_trace::{critical_path, PathClass, RunTrace, SpanGraph};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["jacobi-p256", "md-p64", "falseshare-p8"];

/// Timed jobs per run, at least, however short `--seconds` is.
const MIN_TIMED_JOBS: usize = 3;

/// Relative tolerance of the floating-point reference checks.
const REL_TOL: f64 = 1e-9;

/// One workload's kernel and parameters. The seed feeds `sched_seed` and,
/// for md, the initial condition.
#[derive(Clone, Copy, Debug)]
enum Kernel {
    Jacobi(JacobiParams),
    Md(MdParams),
    Micro(MicroParams),
}

/// What a job computed, compared against the serial reference.
enum Output {
    Grid(Vec<f64>),
    Positions(Vec<f64>),
    Gsum(f64),
}

impl Kernel {
    fn for_workload(name: &str, seed: u64) -> Option<Kernel> {
        match name {
            "jacobi-p256" => Some(Kernel::Jacobi(JacobiParams { n: 256, iters: 6, threads: 256 })),
            "md-p64" => {
                Some(Kernel::Md(MdParams { n: 512, steps: 8, dt: 1e-3, threads: 64, seed }))
            }
            "falseshare-p8" => Some(Kernel::Micro(MicroParams {
                n_outer: 400,
                m_inner: 10,
                s_rows: 2,
                b_cols: 68,
                mode: AllocMode::GlobalStrided,
                threads: 8,
            })),
            _ => None,
        }
    }

    fn threads(&self) -> u32 {
        match self {
            Kernel::Jacobi(p) => p.threads,
            Kernel::Md(p) => p.threads,
            Kernel::Micro(p) => p.threads,
        }
    }

    /// The workload's own configuration: the quick harness base (1 KiB
    /// pages, one memory server) provisioned for exactly its own P.
    fn config(&self, seed: u64) -> SamhitaConfig {
        SamhitaConfig {
            max_threads: self.threads(),
            sched_seed: seed,
            ..HarnessConfig::quick().base
        }
    }

    fn run(&self, rt: &SamhitaRt) -> (RunReport, Output) {
        match self {
            Kernel::Jacobi(p) => {
                let r = run_jacobi(rt, p);
                (r.report, Output::Grid(r.grid))
            }
            Kernel::Md(p) => {
                let r = run_md(rt, p);
                (r.report, Output::Positions(r.positions))
            }
            Kernel::Micro(p) => {
                let r = run_micro(rt, p);
                (r.report, Output::Gsum(r.gsum))
            }
        }
    }

    fn reference(&self) -> Output {
        match self {
            Kernel::Jacobi(p) => Output::Grid(serial_reference_jacobi(p.n, p.iters)),
            Kernel::Md(p) => Output::Positions(serial_reference_md(p)),
            Kernel::Micro(p) => Output::Gsum(expected_gsum(p)),
        }
    }
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= REL_TOL * want.abs()
}

/// Compare a job's output with the serial reference at [`REL_TOL`].
fn check_output(got: &Output, want: &Output) -> Result<(), String> {
    let (got, want) = match (got, want) {
        (Output::Grid(g), Output::Grid(w)) | (Output::Positions(g), Output::Positions(w)) => (g, w),
        (Output::Gsum(g), Output::Gsum(w)) => {
            return if close(*g, *w) { Ok(()) } else { Err(format!("gsum {g} vs {w}")) };
        }
        _ => return Err("output kind differs from the reference".into()),
    };
    if got.len() != want.len() {
        return Err(format!("{} values vs {} in the reference", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(g, w)| !close(*g, *w)) {
        None => Ok(()),
        Some(i) => Err(format!("value {i}: {} vs {}", got[i], want[i])),
    }
}

/// The exact virtual-clock identity of a job: makespan, per-class fabric
/// traffic and scheduler grants. Every job of a run must match the first.
#[derive(Clone, Debug, PartialEq, Eq)]
struct VirtualPrint {
    makespan_ns: u64,
    classes: [(u64, u64); 4],
    sched_grants: u64,
}

impl VirtualPrint {
    fn of(r: &RunReport) -> Self {
        VirtualPrint {
            makespan_ns: r.makespan.as_ns(),
            classes: MsgClass::ALL.map(|c| (r.fabric.msgs(c), r.fabric.bytes(c))),
            sched_grants: r.sched_grants,
        }
    }
}

/// One finished job: host timings of each public entry point called, and
/// what the job produced.
struct Job {
    setup_s: f64,
    wall_s: f64,
    teardown_s: f64,
    check_s: f64,
    report: RunReport,
    verdict: Result<(), String>,
    /// Traced job only: the event trace and the profiler counters of the
    /// kernel call.
    traced: Option<(RunTrace, HostReport)>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn run_job(cfg: &SamhitaConfig, kernel: &Kernel, reference: &Output) -> Job {
    let t = Instant::now();
    let rt = SamhitaRt::new(cfg.clone());
    let setup_s = secs(t);
    if cfg.tracing {
        samhita_prof::reset();
        samhita_prof::enable(true);
    }
    let t = Instant::now();
    let (report, out) = kernel.run(&rt);
    let wall_s = secs(t);
    let prof = cfg.tracing.then(|| {
        let snap = samhita_prof::snapshot();
        samhita_prof::enable(false);
        snap
    });
    let trace = rt.take_trace();
    let t = Instant::now();
    rt.shutdown();
    let teardown_s = secs(t);
    let t = Instant::now();
    let verdict = check_output(&out, reference);
    let check_s = secs(t);
    Job { setup_s, wall_s, teardown_s, check_s, report, verdict, traced: trace.zip(prof) }
}

/// The correctness gate: every job attempted, and every failure by check.
/// A failing job is counted and the run goes on.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed_jobs: BTreeSet<String>,
    by_check: BTreeMap<&'static str, u64>,
    first_print: Option<VirtualPrint>,
}

impl Gate {
    fn fail(&mut self, label: &str, check: &'static str, why: &str) {
        eprintln!("# job {label}: {check} check failed: {why}");
        *self.by_check.entry(check).or_default() += 1;
        self.failed_jobs.insert(label.to_string());
    }

    fn failed(&self) -> u64 {
        self.failed_jobs.len() as u64
    }

    /// Run one job under the gate. Returns the job unless it panicked.
    fn attempt(
        &mut self,
        label: &str,
        cfg: &SamhitaConfig,
        kernel: &Kernel,
        reference: &Output,
    ) -> Option<Job> {
        self.attempted += 1;
        let job = catch_unwind(AssertUnwindSafe(|| run_job(cfg, kernel, reference)));
        samhita_prof::enable(false);
        let job = match job {
            Ok(job) => Some(job),
            Err(_) => {
                self.fail(label, "panic", "the job panicked");
                None
            }
        };
        if let Some(job) = &job {
            if let Err(why) = &job.verdict {
                self.fail(label, "reference", why);
            }
            let print = VirtualPrint::of(&job.report);
            match &self.first_print {
                None => self.first_print = Some(print),
                Some(first) if *first != print => {
                    self.fail(label, "fingerprint", &format!("{print:?} vs first job {first:?}"))
                }
                Some(_) => {}
            }
        }
        job
    }
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Host cost of one scheduler baton pass between two OS threads, ns: two
/// tasks alternate `yield_until` at interleaved virtual times, so every
/// yield hands the baton to the other thread.
fn probe_handoff_ns() -> f64 {
    const PASSES: u64 = 2_000;
    let sched = Scheduler::new(0);
    let a = sched.register_running();
    let b = sched.register_ready(1);
    let t = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            b.start();
            for i in 1..=PASSES {
                b.yield_until(2 * i + 1);
            }
            b.exit();
        });
        for i in 1..=PASSES {
            a.yield_until(2 * i);
        }
        a.exit();
    });
    t.elapsed().as_nanos() as f64 / (2 * PASSES) as f64
}

/// Host cost of one scheduler step that re-grants the yielding task, ns.
fn probe_self_step_ns() -> f64 {
    const STEPS: u64 = 50_000;
    let sched = Scheduler::new(0);
    let a = sched.register_running();
    let t = Instant::now();
    for i in 1..=STEPS {
        std::hint::black_box(a.yield_until(i));
    }
    let ns = t.elapsed().as_nanos() as f64 / STEPS as f64;
    a.exit();
    ns
}

/// Median of five repetitions of each scheduler probe.
fn probes() -> (f64, f64) {
    let handoff: Vec<f64> = (0..5).map(|_| probe_handoff_ns()).collect();
    let self_step: Vec<f64> = (0..5).map(|_| probe_self_step_ns()).collect();
    (median(&handoff), median(&self_step))
}

/// Resident set size of this process now, KiB (`VmRSS`); 0 where
/// `/proc/self/status` is unavailable.
fn rss_kib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:")).unwrap_or("0 kB");
    line.trim().trim_end_matches("kB").trim().parse().unwrap_or(0.0)
}

/// FNV-1a over the benchmark's and the simulator's sources, so runs from a
/// checkout without git history can still be told apart by code.
fn source_hash() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Metrics in print order: name → (value, unit).
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let cells: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
            .collect();
        format!("{{{}}}", cells.join(","))
    }
}

/// The per-layer metrics of the traced job, beside the untraced medians.
fn layer_metrics(
    m: &mut Metrics,
    job: &Job,
    (trace, prof): &(RunTrace, HostReport),
    untraced_wall_s: f64,
    (handoff_ns, self_step_ns): (f64, f64),
    costs: &samhita_trace::ServiceCosts,
    gate: &mut Gate,
) {
    let r = &job.report;
    let msgs = r.fabric.total_msgs() as f64;
    let wall_ns = job.wall_s * 1e9;
    let phase = |p: Phase| prof.phase(p);

    // trace: span graph, critical path and invariant check, each timed.
    let windows = thread_windows(r);
    let t = Instant::now();
    let graph = SpanGraph::build(trace, &windows, costs);
    let cp = critical_path(trace, &windows, costs);
    let critpath_build_s = secs(t);
    std::hint::black_box(graph.len());
    let t = Instant::now();
    let checked = trace.check_invariants();
    let check_s = secs(t);
    if let Err(v) = &checked {
        let first = v.first().map(ToString::to_string).unwrap_or_default();
        gate.fail("traced", "invariants", &format!("{} violations, first: {first}", v.len()));
    }
    if cp.total_ns() != cp.makespan_ns {
        let why = format!("classes sum to {} ns of {} ns", cp.total_ns(), cp.makespan_ns);
        gate.fail("traced", "critical-path", &why);
    }
    let tracked = prof.tracked_wall_ns() as f64;
    if tracked > wall_ns {
        let why = format!("profiled phases {tracked} ns exceed the job wall {wall_ns} ns");
        gate.fail("traced", "host-accounting", &why);
    }

    m.add("sched.grants_per_event", ratio(r.sched_grants as f64, msgs), "1/msg");
    m.add("sched.step_ns", phase(Phase::SchedStep).ns_per_call(), "ns");
    m.add("sched.step_share", ratio(phase(Phase::SchedStep).wall_ns as f64, wall_ns), "frac");
    m.add("sched.handoff_ns", handoff_ns, "ns");
    m.add("sched.self_step_ns", self_step_ns, "ns");

    m.add("host.ns_per_event", ratio(untraced_wall_s * 1e9, msgs), "ns");
    m.add("host.unattributed_share", 1.0 - ratio(tracked, wall_ns), "frac");

    m.add("scl.send_ns", phase(Phase::ChannelSend).ns_per_call(), "ns");
    m.add("scl.recv_ns", phase(Phase::ChannelRecv).ns_per_call(), "ns");
    m.add("scl.recv_calls_per_event", ratio(phase(Phase::ChannelRecv).calls as f64, msgs), "1/msg");
    m.add("scl.msgs", msgs, "count");
    m.add("scl.bytes", r.fabric.total_bytes() as f64, "B");
    m.add("scl.data_bytes", r.fabric.bytes(MsgClass::Data) as f64, "B");

    m.add("proto.msgs_per_sync_op", r.msgs_per_sync_op(), "msg/op");
    m.add("proto.update_msgs", r.fabric.msgs(MsgClass::Update) as f64, "count");

    m.add("regc.diff_ns", phase(Phase::RegcDiff).ns_per_call(), "ns");
    m.add("regc.diff_calls", phase(Phase::RegcDiff).calls as f64, "count");
    m.add("regc.twins", r.total_of(|t| t.twins_created) as f64, "count");
    m.add("regc.diff_bytes", r.total_of(|t| t.diff_bytes_flushed) as f64, "B");
    m.add("regc.fine_bytes", r.total_of(|t| t.fine_bytes_flushed) as f64, "B");

    // Queue shares are over threads × makespan, as RunReport's own
    // manager queue-wait fraction is.
    let thread_span_ns = r.threads.len() as f64 * r.makespan.as_ns() as f64;
    let util = r.server_utilization();
    m.add("mem.batch_apply_ns", phase(Phase::BatchApply).ns_per_call(), "ns");
    m.add("mem.server_util", util.iter().sum::<f64>() / util.len().max(1) as f64, "frac");
    let server_wait: u64 = r.server_queue_wait_ns.iter().sum();
    m.add("mem.queue_wait_share", ratio(server_wait as f64, thread_span_ns), "frac");
    let server_peak = r.server_peak_queue_depth.iter().copied().max().unwrap_or(0);
    m.add("mem.peak_queue_depth", server_peak as f64, "count");

    m.add("mgr.util", r.mgr_utilization(), "frac");
    m.add("mgr.queue_wait_share", r.mgr_queue_wait_fraction(), "frac");
    m.add("mgr.peak_queue_depth", r.mgr_peak_queue_depth as f64, "count");
    m.add("mgr.requests", r.mgr_requests as f64, "count");

    let fetch = r.fetch_latency();
    m.add("cache.line_misses", r.total_of(|t| t.line_misses) as f64, "count");
    m.add("cache.refetches", r.total_of(|t| t.page_refetches) as f64, "count");
    m.add("cache.invalidations", r.total_of(|t| t.invalidations) as f64, "count");
    m.add("cache.prefetch_hits", r.total_of(|t| t.prefetch_hits) as f64, "count");
    m.add("cache.prefetch_late", r.total_of(|t| t.prefetch_late) as f64, "count");
    m.add("cache.fetch_p50_us", fetch.p50_ns() as f64 / 1e3, "us");
    m.add("cache.fetch_p99_us", fetch.p99_ns() as f64 / 1e3, "us");

    m.add("sync.lock_wait_p99_us", r.lock_wait().p99_ns() as f64 / 1e3, "us");
    m.add("sync.barrier_wait_p99_us", r.barrier_wait().p99_ns() as f64 / 1e3, "us");

    // Thread-time breakdown over the threads' own measured time (idle
    // excluded), so the six shares sum to 1.
    let b = r.wait_breakdown();
    let busy = b.total_ns as f64;
    if b.sum_ns() - b.idle_ns != b.total_ns {
        let why = format!("classes sum to {} ns of {} ns", b.sum_ns() - b.idle_ns, b.total_ns);
        gate.fail("traced", "thread-accounting", &why);
    }
    m.add("thread.compute_share", ratio(b.compute_ns as f64, busy), "frac");
    m.add("thread.fetch_share", ratio(b.fetch_ns as f64, busy), "frac");
    m.add("thread.lock_share", ratio(b.lock_ns as f64, busy), "frac");
    m.add("thread.barrier_share", ratio(b.barrier_ns as f64, busy), "frac");
    m.add("thread.flush_share", ratio(b.flush_ns as f64, busy), "frac");
    m.add("thread.mgr_share", ratio(b.mgr_ns as f64, busy), "frac");

    // Critical-path composition as extracted, misattributions included.
    let span = cp.makespan_ns as f64;
    let cp_share = |classes: &[PathClass]| {
        ratio(classes.iter().map(|&c| cp.class_total(c)).sum::<u64>() as f64, span)
    };
    m.add("cp.compute_share", cp_share(&[PathClass::Compute]), "frac");
    m.add("cp.fetch_share", cp_share(&[PathClass::Fetch]), "frac");
    m.add("cp.lock_wait_share", cp_share(&[PathClass::LockWait]), "frac");
    m.add("cp.barrier_wait_share", cp_share(&[PathClass::BarrierWait]), "frac");
    m.add("cp.mgr_share", cp_share(&[PathClass::MgrWait, PathClass::MgrService]), "frac");
    m.add("cp.server_service_share", cp_share(&[PathClass::ServerService]), "frac");
    m.add("cp.queue_wait_share", cp_share(&[PathClass::QueueWait]), "frac");

    m.add("trace.event_ns", phase(Phase::TraceEvent).ns_per_call(), "ns");
    m.add("trace.overhead_share", job.wall_s / untraced_wall_s - 1.0, "frac");
    m.add("trace.critpath_build_s", critpath_build_s, "s");
    m.add("trace.check_s", check_s, "s");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value '{value}' ({what})");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&WORKLOADS.join(" | "))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number of seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let kernel = Kernel::for_workload(&args.workload, args.seed).expect("workload was validated");
    let cfg = kernel.config(args.seed);
    let params = format!("{kernel:?}");
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# git_rev {} source {:016x} config_fingerprint {:016x}",
        if Path::new(".git").exists() { git_rev() } else { "none".to_string() },
        source_hash(),
        fingerprint(&cfg, &params)
    );
    println!("# params {params}");
    let (handoff_ns, self_step_ns) = probes();
    println!("# probes sched.handoff_ns {handoff_ns:.1} sched.self_step_ns {self_step_ns:.1}");

    let t = Instant::now();
    let reference = kernel.reference();
    let reference_s = secs(t);

    let mut gate = Gate::default();
    gate.attempt("warm-up", &cfg, &kernel, &reference);
    let mut jobs: Vec<Job> = Vec::new();
    let start = Instant::now();
    let mut label = 0;
    let (mut peak_rss_bytes, mut first_rss_kib) = (0, 0.0);
    while label < MIN_TIMED_JOBS || start.elapsed().as_secs_f64() < args.seconds {
        label += 1;
        jobs.extend(gate.attempt(&format!("{label}"), &cfg, &kernel, &reference));
        if label == 1 {
            peak_rss_bytes = samhita_prof::peak_rss_bytes();
            first_rss_kib = rss_kib();
        }
    }
    if jobs.is_empty() {
        eprintln!("error: no timed job completed");
        return ExitCode::FAILURE;
    }
    let last_rss_kib = rss_kib();
    let med = |f: fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    let wall_s = med(|j| j.wall_s);
    let report = &jobs[0].report;
    println!(
        "# {} timed jobs in {:.1}s; job wall min {:.4}s max {:.4}s; serial reference {:.3}s",
        jobs.len(),
        secs(start),
        jobs.iter().map(|j| j.wall_s).fold(f64::INFINITY, f64::min),
        jobs.iter().map(|j| j.wall_s).fold(0.0, f64::max),
        reference_s
    );
    println!(
        "# virtual: makespan {} ns, {} msgs, {} sched grants",
        report.makespan.as_ns(),
        report.fabric.total_msgs(),
        report.sched_grants
    );

    let mut m = Metrics::default();
    if args.trace {
        let traced_cfg = SamhitaConfig { tracing: true, ..cfg.clone() };
        match gate.attempt("traced", &traced_cfg, &kernel, &reference) {
            Some(job) => {
                let Some(traced) = &job.traced else {
                    eprintln!("error: the traced job returned no trace");
                    return ExitCode::FAILURE;
                };
                let costs = cfg.service_costs();
                let probes = (handoff_ns, self_step_ns);
                layer_metrics(&mut m, &job, traced, wall_s, probes, &costs, &mut gate);
                m.add("host.teardown_s", med(|j| j.teardown_s), "s");
                m.add("host.reference_check_s", med(|j| j.check_s), "s");
                let growth = (last_rss_kib - first_rss_kib) / (jobs.len() - 1).max(1) as f64;
                m.add("host.rss_growth_kib_per_job", growth, "KiB");
            }
            None => {
                eprintln!("error: the traced job panicked");
                return ExitCode::FAILURE;
            }
        }
        m.add("job_fail_frac", gate.failed() as f64 / gate.attempted as f64, "frac");
    } else {
        m.add("job_wall_s", wall_s, "s");
        m.add("setup_s", med(|j| j.setup_s), "s");
        m.add("peak_rss_mb", peak_rss_bytes as f64 / (1 << 20) as f64, "MiB");
        m.add("virt_makespan_us", report.makespan.as_ns() as f64 / 1e3, "us");
        m.add("job_pass_frac", 1.0 - gate.failed() as f64 / gate.attempted as f64, "frac");
    }

    for (name, value, unit) in &m.0 {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    println!("# attempted {} failed {}", gate.attempted, gate.failed());
    for (check, n) in &gate.by_check {
        println!("# failed check {check}: {n}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        gate.failed() == 0,
        gate.attempted,
        gate.failed(),
        m.json()
    );
    ExitCode::SUCCESS
}
