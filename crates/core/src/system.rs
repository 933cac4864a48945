//! System bring-up, the service event loops, and the host control client.
//!
//! A [`Samhita`] instance runs one scheduler task per memory server and one
//! for the manager (plus one for an optional hot standby), all joined by an
//! SCL fabric built from the configured topology. Every task is a coroutine
//! on the host thread that created the system (see `samhita-sched`), so the
//! system must be driven and dropped on that thread. The host (the code
//! that owns the `Samhita` value) interacts through a control client: it can
//! allocate global memory, create synchronization objects, and initialize /
//! inspect global memory outside of timed runs. [`Samhita::run`] then runs
//! one compute task per simulated thread, hands each a [`ThreadCtx`], and
//! collects a [`RunReport`].
//!
//! For timing experiments, create a fresh instance per measured run: virtual
//! service clocks (manager, memory servers) advance monotonically across
//! runs of one instance, which is harmless for correctness but perturbs
//! timings of later runs.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;

use parking_lot::Mutex;
use samhita_mem::{HomeMap, MemRequest, MemResponse, MemoryServer, PageId, ServerStats};
use samhita_regc::UpdatePart;
use samhita_sched::{Coroutine, Scheduler, TaskRef};
use samhita_scl::{DepthGauge, Endpoint, EndpointId, Fabric, MsgClass, QueueSample, SimTime};
use samhita_trace::{EventKind, RunTrace, SharedTrack, Tracer, TrackId};
use serde::{Deserialize, Serialize};

use crate::config::SamhitaConfig;
use crate::layout::{AddressLayout, Placement};
use crate::localsync::LocalSync;
use crate::manager::{ManagerEngine, ManagerStats};
use crate::msg::{MgrLogOp, MgrLogRecord, MgrRequest, MgrResponse, Msg};
use crate::proto::HostChannel;
use crate::stats::RunReport;
use crate::thread::ThreadCtx;

/// The manager tid reserved for the host control client.
const HOST_TID: u32 = u32::MAX;

/// Bound on host-side queue-occupancy samples retained per service per run.
const QUEUE_SAMPLE_CAP: usize = 65_536;

/// Live mirror of one service loop's queue accounting, published by the loop
/// after each request is handled and *before* its response is sent — the
/// same visibility discipline as the busy mirrors, so once every outstanding
/// request has been answered the host reads race-free, deterministic values.
/// Counters are cumulative (the host subtracts run-start snapshots); the
/// peak and the sample list are per-run (the host clears them at run start,
/// while it holds the baton and the loops are quiescent).
#[derive(Default)]
struct QueueMirror {
    /// Cumulative queue wait (virtual ns) at this service.
    wait_ns: u64,
    /// Per-run peak arrival-sampled queue occupancy.
    peak_depth: u64,
    /// Cumulative sum of arrival-sampled occupancies.
    depth_sum: u64,
    /// Cumulative requests handled.
    requests: u64,
    /// Per-run occupancy samples, bounded by [`QUEUE_SAMPLE_CAP`].
    samples: Vec<QueueSample>,
}

impl QueueMirror {
    /// Publish the loop's latest cumulative counters plus freshly drained
    /// samples (called with the loop's own service stats after each request).
    fn publish(&mut self, wait_ns: u64, depth_sum: u64, requests: u64, new: Vec<QueueSample>) {
        self.wait_ns = wait_ns;
        self.depth_sum = depth_sum;
        self.requests = requests;
        for s in new {
            self.peak_depth = self.peak_depth.max(s.depth);
            if self.samples.len() < QUEUE_SAMPLE_CAP {
                self.samples.push(s);
            }
        }
    }

    /// Run-start snapshot: returns the cumulative counters and clears the
    /// per-run peak and sample list.
    fn begin_run(&mut self) -> (u64, u64, u64) {
        self.peak_depth = 0;
        self.samples.clear();
        (self.wait_ns, self.depth_sum, self.requests)
    }
}

/// Post-shutdown server-side statistics.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SystemStats {
    /// Manager activity counters.
    pub manager: ManagerStats,
    /// Per-memory-server counters, in server-index order.
    pub servers: Vec<ServerStats>,
    /// The hot-standby manager's counters, when one was configured. Its
    /// `requests` count includes replayed log records (the replica's view of
    /// the workload), not just post-takeover serves.
    pub standby: Option<ManagerStats>,
}

/// Live mirrors of the crash-recovery machinery's counters, published by the
/// primary's and standby's loops under the same before-the-response-leaves
/// discipline as the busy mirrors (so end-of-run host reads are race-free
/// and deterministic). All cumulative except `takeover_ns`, which is the
/// absolute virtual instant of the standby's first post-takeover serve.
#[derive(Default)]
struct RecoveryMirror {
    /// Log records the primary shipped (counting re-ships of the unacked
    /// suffix — repair traffic is part of the cost story).
    log_records_shipped: AtomicU64,
    /// Lock leases the active standby reclaimed.
    lease_reclaims: AtomicU64,
    /// Stale releases (from deposed holders) the standby absorbed.
    stale_releases: AtomicU64,
    /// Requests the standby served after takeover.
    standby_serves: AtomicU64,
    /// Virtual ns of the first post-takeover serve (0 = no takeover).
    takeover_ns: AtomicU64,
}

/// A running Samhita system.
pub struct Samhita {
    cfg: Arc<SamhitaConfig>,
    layout: AddressLayout,
    home_map: HomeMap,
    fabric: Arc<Fabric<Msg>>,
    placement: Placement,
    mgr_ep: EndpointId,
    /// The hot-standby manager's endpoint, when `cfg.manager_standby` is on.
    standby_ep: Option<EndpointId>,
    mem_eps: Vec<EndpointId>,
    local_sync: Option<Arc<LocalSync>>,
    ctl: Mutex<HostChannel>,
    mgr_handle: Option<Coroutine<ManagerStats>>,
    standby_handle: Option<Coroutine<ManagerStats>>,
    mem_handles: Vec<Coroutine<ServerStats>>,
    /// Crash-recovery counter mirrors (see [`RecoveryMirror`]).
    recovery: Arc<RecoveryMirror>,
    tracer: Option<Arc<Tracer>>,
    // Live virtual-busy-time mirrors of the service loops, published after
    // each request is handled and before its response is sent. A thread
    // receiving the response therefore observes a busy value that already
    // includes its request; once every outstanding request has been answered
    // (threads drain their acks and prefetches before exiting), reading
    // these from the host is race-free and deterministic.
    mgr_busy: Arc<AtomicU64>,
    mem_busy: Vec<Arc<AtomicU64>>,
    // Queue-wait / queue-depth mirrors of the service loops (same publish
    // discipline as the busy mirrors) and endpoint backlog gauges, all
    // strictly observational: none of them is read on any timed path.
    mgr_queue: Arc<Mutex<QueueMirror>>,
    mem_queues: Vec<Arc<Mutex<QueueMirror>>>,
    mgr_gauge: Arc<DepthGauge>,
    mem_gauges: Vec<Arc<DepthGauge>>,
    // The scheduler serializing every simulated task, and the host's own
    // task. The host holds the baton whenever it is between runs; `run`
    // hands it to the compute tasks and takes it back (after all pending
    // service work drained) before reading any results.
    sched: Arc<Scheduler>,
    host_task: TaskRef,
    /// The thread that created the system: its coroutines run only there.
    owner: ThreadId,
}

impl Samhita {
    /// Bring up a system: memory servers, manager, control client.
    ///
    /// # Panics
    /// Panics on an invalid configuration (see [`SamhitaConfig::validate`]).
    pub fn new(cfg: SamhitaConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SamhitaConfig: {e}");
        }
        let cfg = Arc::new(cfg);
        let layout = AddressLayout::new(&cfg);
        let topo = cfg.build_topology();
        let placement = Placement::new(&cfg, &topo);
        let fabric = Fabric::<Msg>::new(topo);
        let home_map = HomeMap::new(cfg.mem_servers, cfg.line_pages);

        // Event tracing is strictly observational: services push into shared
        // tracks after their virtual-time accounting is done, and the fabric
        // observer fires after the cost model has charged the send. Enabling
        // it cannot move any virtual clock.
        let tracer = cfg.tracing.then(|| Arc::new(Tracer::new(cfg.trace_capacity)));
        if let Some(t) = &tracer {
            let track = t.shared_track(TrackId::Fabric);
            fabric.set_observer(Some(Box::new(move |src, dst, now, bytes, class, fault| {
                track.push(
                    now,
                    EventKind::FabricSend {
                        src: src.0 as u64,
                        dst: dst.0 as u64,
                        class,
                        bytes: bytes as u64,
                    },
                );
                if let Some(kind) = fault {
                    track.push(
                        now,
                        EventKind::FaultInjected { src: src.0 as u64, dst: dst.0 as u64, kind },
                    );
                }
            })));
        }

        // One scheduler per system, the host registered as the task
        // initially holding the baton. Every service endpoint is bound to a
        // (parked) scheduler task before its loop is spawned on it, so all
        // receives follow the virtual-time-ordered discipline.
        let sched = Scheduler::new(cfg.sched_seed);
        let host_task = sched.register_running();

        // Host control endpoint, created first so the service loops know it:
        // the host control plane models the experimenter's out-of-band access
        // and is exempt from fault injection (replies to it go reliably).
        let ctl_endpoint = fabric.add_endpoint(placement.manager);
        ctl_endpoint.bind_task(&host_task);
        let ctl_id = ctl_endpoint.id();
        let faults_active = cfg.faults.is_active();
        // Server-side replay protection. Duplicates reach the servers from
        // two sources: a fault plan (dup/drop-forced retransmission), and —
        // even in a fault-free run — the grant-liveness probe that a standby
        // configuration arms on every client (see `ThreadCtx::new`), which
        // re-sends a blocked request's token once per lease period. Replay
        // protection is a prerequisite of probing, so dedup is on whenever
        // either source exists; otherwise a probed-but-deferred acquire,
        // barrier wait, or cond wait would be applied twice.
        let dedup = faults_active || cfg.manager_standby;

        // Memory servers.
        let mut mem_eps = Vec::new();
        let mut mem_handles = Vec::new();
        let mut mem_busy = Vec::new();
        let mut mem_queues = Vec::new();
        let mut mem_gauges = Vec::new();
        for i in 0..cfg.mem_servers {
            let ep = fabric.add_endpoint(placement.mem_servers[i as usize]);
            mem_eps.push(ep.id());
            let task = sched.register_parked();
            ep.bind_task(&task);
            let gauge = Arc::new(DepthGauge::new());
            ep.set_depth_gauge(Arc::clone(&gauge));
            mem_gauges.push(gauge);
            let server = MemoryServer::new(cfg.page_size, cfg.service);
            let track = tracer.as_ref().map(|t| t.shared_track(TrackId::MemServer(i)));
            let busy = Arc::new(AtomicU64::new(0));
            mem_busy.push(Arc::clone(&busy));
            let queue = Arc::new(Mutex::new(QueueMirror::default()));
            mem_queues.push(Arc::clone(&queue));
            mem_handles.push(
                task.spawn(move || mem_server_loop(ep, server, track, ctl_id, dedup, busy, queue)),
            );
        }

        // Manager and (optional) hot-standby endpoints, created before the
        // fault plan so a configured manager crash can name the primary's
        // endpoint. No protocol traffic flows until the host Register RPC
        // below, so the plan is still installed before any send it could
        // affect.
        let mgr_endpoint = fabric.add_endpoint(placement.manager);
        let mgr_task = sched.register_parked();
        mgr_endpoint.bind_task(&mgr_task);
        let mgr_gauge = Arc::new(DepthGauge::new());
        mgr_endpoint.set_depth_gauge(Arc::clone(&mgr_gauge));
        let mgr_ep = mgr_endpoint.id();
        let standby_endpoint = cfg.manager_standby.then(|| {
            let ep = fabric.add_endpoint(placement.standby_node());
            let task = sched.register_parked();
            ep.bind_task(&task);
            (ep, task)
        });
        let standby_ep = standby_endpoint.as_ref().map(|(ep, _)| ep.id());

        // Deterministic fault injection: structural faults (crash windows
        // need the crashed endpoint's id) are resolved here, then the plan
        // is installed before any protocol traffic flows. Installed only for
        // an actually-active plan — a fault-free standby run stays on the
        // unfaulted fabric path.
        if faults_active {
            let f = &cfg.faults;
            let mut plan = samhita_scl::FaultPlan::lossy(
                f.seed,
                f.drop_p,
                f.dup_p,
                f.delay_p,
                SimTime::from_ns(f.delay_ns),
            );
            for p in &f.partitions {
                plan.partitions.push(samhita_scl::Partition {
                    a: samhita_scl::NodeId(p.a),
                    b: samhita_scl::NodeId(p.b),
                    from: SimTime::from_ns(p.from_ns),
                    until: SimTime::from_ns(p.until_ns),
                });
            }
            if let Some((server, at_ns)) = f.crash {
                plan.crashed.push((mem_eps[server as usize], SimTime::from_ns(at_ns)));
            }
            if let Some(at_ns) = f.mgr_crash {
                plan.crashed.push((mgr_ep, SimTime::from_ns(at_ns)));
            }
            fabric.set_fault_plan(plan);
        }

        // Manager (and standby) service loops.
        let recovery = Arc::new(RecoveryMirror::default());
        let engine = ManagerEngine::new(&cfg);
        let mgr_track = tracer.as_ref().map(|t| t.shared_track(TrackId::Manager));
        let mgr_busy = Arc::new(AtomicU64::new(0));
        let mgr_busy_loop = Arc::clone(&mgr_busy);
        let mgr_queue = Arc::new(Mutex::new(QueueMirror::default()));
        let mgr_queue_loop = Arc::clone(&mgr_queue);
        let mgr_recovery = Arc::clone(&recovery);
        let mgr_died_at =
            faults_active.then(|| cfg.faults.mgr_crash.map(SimTime::from_ns)).flatten();
        let mgr_handle = Some(mgr_task.spawn(move || {
            manager_loop(
                mgr_endpoint,
                engine,
                mgr_track,
                ctl_id,
                dedup,
                standby_ep,
                mgr_died_at,
                mgr_recovery,
                mgr_busy_loop,
                mgr_queue_loop,
            )
        }));
        let standby_handle = standby_endpoint.map(|(ep, task)| {
            // The standby folds the same records through the same engine as
            // the primary, starting from the same initial state — the whole
            // replication argument.
            let engine = ManagerEngine::new(&cfg);
            let track = tracer.as_ref().map(|t| t.shared_track(TrackId::MgrStandby));
            let rec = Arc::clone(&recovery);
            task.spawn(move || standby_loop(ep, engine, track, ctl_id, rec))
        });

        // Host control client (registers like a thread, but never syncs).
        let mut ctl = HostChannel::new(ctl_endpoint, standby_ep);
        let resp = ctl.rpc_mgr(
            mgr_ep,
            HOST_TID,
            MgrRequest::Register { observer: true },
            MsgClass::Control,
        );
        assert!(matches!(resp, MgrResponse::Registered { .. }), "host registration failed");

        let local_sync =
            cfg.manager_bypass.then(|| Arc::new(LocalSync::new(cfg.costs.local_sync_ns)));

        Samhita {
            cfg,
            layout,
            home_map,
            fabric,
            placement,
            mgr_ep,
            standby_ep,
            mem_eps,
            local_sync,
            ctl: Mutex::new(ctl),
            mgr_handle,
            standby_handle,
            mem_handles,
            recovery,
            tracer,
            mgr_busy,
            mem_busy,
            mgr_queue,
            mem_queues,
            mgr_gauge,
            mem_gauges,
            sched,
            host_task,
            owner: std::thread::current().id(),
        }
    }

    /// Coroutines never migrate: every call that hands the baton over must
    /// come from the thread that created the system.
    fn assert_owner_thread(&self) {
        assert_eq!(
            std::thread::current().id(),
            self.owner,
            "a Samhita system must be driven and dropped on the thread that created it"
        );
    }

    /// The active configuration.
    pub fn config(&self) -> &SamhitaConfig {
        &self.cfg
    }

    /// The address-space layout.
    pub fn layout(&self) -> &AddressLayout {
        &self.layout
    }

    /// Cumulative fabric traffic since bring-up, by message class
    /// (per-run deltas are already included in each [`RunReport`]).
    pub fn fabric_stats(&self) -> samhita_scl::FabricStatsSnapshot {
        self.fabric.stats()
    }

    /// Create a mutual-exclusion variable usable from any thread.
    pub fn create_mutex(&self) -> u32 {
        let id = self.ctl_sync_id(MgrRequest::CreateLock);
        if let Some(ls) = &self.local_sync {
            let lid = ls.create_lock();
            assert_eq!(lid, id, "manager and local-sync lock id spaces diverged");
        }
        id
    }

    /// Create a barrier over `parties` threads.
    pub fn create_barrier(&self, parties: u32) -> u32 {
        let id = self.ctl_sync_id(MgrRequest::CreateBarrier { parties });
        if let Some(ls) = &self.local_sync {
            let bid = ls.create_barrier(parties);
            assert_eq!(bid, id, "manager and local-sync barrier id spaces diverged");
        }
        id
    }

    /// Create a condition variable.
    pub fn create_cond(&self) -> u32 {
        self.ctl_sync_id(MgrRequest::CreateCond)
    }

    fn ctl_sync_id(&self, req: MgrRequest) -> u32 {
        let mut ctl = self.ctl.lock();
        match ctl.rpc_mgr(self.mgr_ep, HOST_TID, req, MsgClass::Control) {
            MgrResponse::SyncId(id) => id,
            other => panic!("unexpected create response: {other:?}"),
        }
    }

    /// Allocate `size` bytes of global memory from the host (shared zone or
    /// striped region by the configured threshold; the host has no arena).
    pub fn alloc_global(&self, size: u64) -> u64 {
        let req = if size >= self.cfg.large_threshold {
            MgrRequest::AllocStriped { size }
        } else {
            MgrRequest::AllocShared { size, align: 8 }
        };
        let mut ctl = self.ctl.lock();
        match ctl.rpc_mgr(self.mgr_ep, HOST_TID, req, MsgClass::Control) {
            MgrResponse::Addr(a) => a,
            MgrResponse::Err(e) => panic!("host allocation failed: {e}"),
            other => panic!("unexpected allocation response: {other:?}"),
        }
    }

    /// Free a host allocation.
    pub fn free_global(&self, addr: u64) {
        let mut ctl = self.ctl.lock();
        match ctl.rpc_mgr(self.mgr_ep, HOST_TID, MgrRequest::Free { addr }, MsgClass::Control) {
            MgrResponse::Ok => {}
            MgrResponse::Err(e) => panic!("host free failed: {e}"),
            other => panic!("unexpected free response: {other:?}"),
        }
    }

    /// Initialize global memory from the host (outside timed runs). With
    /// replication configured, every write also goes through to the replica
    /// as a shadow copy, so replicas mirror the primaries from time zero.
    pub fn write_global(&self, addr: u64, data: &[u8]) {
        let ps = self.cfg.page_size as u64;
        let mut ctl = self.ctl.lock();
        let mut cursor = 0usize;
        while cursor < data.len() {
            let at = addr + cursor as u64;
            let page = at / ps;
            let offset = (at % ps) as u32;
            let take = ((ps - at % ps) as usize).min(data.len() - cursor);
            let server = self.home_map.home_of_page(PageId(page));
            let req = MemRequest::ApplyFine {
                page: PageId(page),
                offset,
                bytes: data[cursor..cursor + take].to_vec(),
            };
            if let Some(r) = self.home_map.replica_of_server(server, self.cfg.replica_offset) {
                let resp = ctl.rpc_mem(self.mem_eps[r as usize], true, req.clone());
                assert!(matches!(resp, MemResponse::Ack { .. }));
            }
            let resp = ctl.rpc_mem(self.mem_eps[server as usize], false, req);
            assert!(matches!(resp, MemResponse::Ack { .. }));
            cursor += take;
        }
    }

    /// The server the host reads a page's home data from: the primary,
    /// unless the fault plan crashes it — the crashed store misses every
    /// update sent after the crash instant, so the host reads the
    /// write-through replica instead (validation guarantees one exists).
    fn host_read_server(&self, home: u32) -> u32 {
        match self.cfg.faults.crash {
            Some((dead, _)) if dead == home => self
                .home_map
                .replica_of_server(home, self.cfg.replica_offset)
                .expect("a crashed server always has a replica (config validation)"),
            _ => home,
        }
    }

    /// Read global memory from the host (outside timed runs).
    pub fn read_global(&self, addr: u64, out: &mut [u8]) {
        let ps = self.cfg.page_size as u64;
        let mut ctl = self.ctl.lock();
        let mut cursor = 0usize;
        while cursor < out.len() {
            let at = addr + cursor as u64;
            let page = at / ps;
            let offset = (at % ps) as usize;
            let take = ((ps - at % ps) as usize).min(out.len() - cursor);
            let server = self.host_read_server(self.home_map.home_of_page(PageId(page)));
            let resp = ctl.rpc_mem(
                self.mem_eps[server as usize],
                false,
                MemRequest::FetchPage { page: PageId(page) },
            );
            match resp {
                MemResponse::Page { data, .. } => {
                    out[cursor..cursor + take].copy_from_slice(&data[offset..offset + take]);
                }
                other => panic!("unexpected page response: {other:?}"),
            }
            cursor += take;
        }
    }

    /// Convenience: write a slice of `f64`s.
    pub fn write_f64s(&self, addr: u64, values: &[f64]) {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.write_global(addr, &bytes);
    }

    /// Convenience: read a slice of `f64`s.
    pub fn read_f64s(&self, addr: u64, n: usize) -> Vec<f64> {
        let mut bytes = vec![0u8; n * 8];
        self.read_global(addr, &mut bytes);
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect()
    }

    /// Spawn `nthreads` compute threads running `body` and collect their
    /// statistics. Thread ids are `0..nthreads`; placement follows the
    /// configured topology (fill compute nodes core by core).
    pub fn run<F>(&self, nthreads: u32, body: F) -> RunReport
    where
        F: Fn(&mut ThreadCtx) + Send + Sync,
    {
        assert!(nthreads >= 1, "need at least one compute thread");
        self.assert_owner_thread();
        assert!(
            nthreads <= self.cfg.max_threads,
            "nthreads {nthreads} exceeds provisioned max_threads {}",
            self.cfg.max_threads
        );
        // Host clock, read exactly twice (here and at return) and stored
        // only in the Debug-redacted `host_wall_ns`: wall time is reported,
        // never consulted, so it cannot perturb virtual execution.
        let host_start = std::time::Instant::now();
        let fabric_before = self.fabric.stats();
        let mgr_busy_before = self.mgr_busy.load(Ordering::Relaxed);
        let mem_busy_before: Vec<u64> =
            self.mem_busy.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        // Queue-accounting run-start snapshots. The host holds the baton, so
        // the mirrors are stable: counters are snapshotted for end-of-run
        // deltas, peaks and sample lists reset so they come out per-run
        // exact.
        let mgr_queue_before = self.mgr_queue.lock().begin_run();
        let mem_queue_before: Vec<(u64, u64, u64)> =
            self.mem_queues.iter().map(|q| q.lock().begin_run()).collect();
        self.mgr_gauge.reset();
        for g in &self.mem_gauges {
            g.reset();
        }
        let sched_grants_before = self.sched.grants();
        let local_before = self.local_sync.as_ref().map(|ls| ls.stats()).unwrap_or_default();
        let recovery_before = (
            self.recovery.log_records_shipped.load(Ordering::Relaxed),
            self.recovery.lease_reclaims.load(Ordering::Relaxed),
            self.recovery.stale_releases.load(Ordering::Relaxed),
            self.recovery.standby_serves.load(Ordering::Relaxed),
        );
        let endpoints: Vec<Endpoint<Msg>> = (0..nthreads)
            .map(|t| self.fabric.add_endpoint(self.placement.compute_node(t)))
            .collect();
        // One scheduler task per compute thread, all ready at virtual time
        // zero (the seeded tie-break orders their first steps), each bound
        // to its endpoint before any traffic can target it. Registration
        // happens in tid order, so task ids (the final tie-break key) are
        // reproducible.
        let body = &body;
        let jobs: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(t, ep)| {
                let task = self.sched.register_ready(0);
                ep.bind_task(&task);
                let cfg = Arc::clone(&self.cfg);
                let mem_eps = self.mem_eps.clone();
                let local_sync = self.local_sync.clone();
                let (mgr_ep, standby_ep) = (self.mgr_ep, self.standby_ep);
                let tracer = self.tracer.clone();
                let job = move || {
                    let mut ctx = ThreadCtx::new(
                        t as u32, nthreads, cfg, ep, mgr_ep, standby_ep, mem_eps, local_sync,
                    );
                    if let Some(tr) = &tracer {
                        ctx.attach_trace(tr.buf(TrackId::Thread(t as u32)));
                    }
                    body(&mut ctx);
                    let (stats, buf) = ctx.finish();
                    if let (Some(tr), Some(buf)) = (&tracer, buf) {
                        tr.submit(buf);
                    }
                    stats
                };
                (task, job)
            })
            .collect();
        // Hand the baton to the compute tasks for the whole run. It comes
        // back once nothing can run any more: every pending service event
        // (oneway releases, late acks) has drained, so the busy mirrors
        // below are final.
        let outcomes = self.host_task.drive(jobs);
        let stats = self.collect(outcomes);
        let mut report = RunReport::new(stats, self.fabric.stats().delta(&fabric_before));
        // Every thread settled its outstanding traffic before joining
        // (synchronous Exit RPC to the manager, ack/prefetch drains to the
        // servers), so the busy mirrors are final for this run.
        report.mgr_busy_ns = self.mgr_busy.load(Ordering::Relaxed) - mgr_busy_before;
        report.server_busy_ns = self
            .mem_busy
            .iter()
            .zip(&mem_busy_before)
            .map(|(b, &before)| b.load(Ordering::Relaxed) - before)
            .collect();
        // Queue accounting: same finality argument as the busy mirrors —
        // every request this run issued has been answered, and each answer
        // was preceded by a mirror publish.
        {
            let mut q = self.mgr_queue.lock();
            report.mgr_queue_wait_ns = q.wait_ns - mgr_queue_before.0;
            report.mgr_queue_depth_sum = q.depth_sum - mgr_queue_before.1;
            report.mgr_requests = q.requests - mgr_queue_before.2;
            report.mgr_peak_queue_depth = q.peak_depth;
            report.mgr_queue_samples = std::mem::take(&mut q.samples);
        }
        for (q, &(wait0, sum0, _req0)) in self.mem_queues.iter().zip(&mem_queue_before) {
            let mut q = q.lock();
            report.server_queue_wait_ns.push(q.wait_ns - wait0);
            report.server_queue_depth_sum.push(q.depth_sum - sum0);
            report.server_peak_queue_depth.push(q.peak_depth);
            report.server_queue_samples.push(std::mem::take(&mut q.samples));
        }
        report.mgr_endpoint_backlog_peak = self.mgr_gauge.peak();
        report.server_endpoint_backlog_peak = self.mem_gauges.iter().map(|g| g.peak()).collect();
        report.sched_grants = self.sched.grants() - sched_grants_before;
        if let Some(ls) = &self.local_sync {
            let st = ls.stats();
            report.local_contended_acquires =
                st.contended_acquires - local_before.contended_acquires;
            report.local_handoff_wait_ns = st.handoff_wait_ns - local_before.handoff_wait_ns;
        }
        // Recovery counters: cumulative mirrors published under the same
        // before-the-response-leaves discipline as the busy mirrors, so the
        // deltas are final once every thread has settled its traffic.
        report.log_records_shipped =
            self.recovery.log_records_shipped.load(Ordering::Relaxed) - recovery_before.0;
        report.lease_reclaims =
            self.recovery.lease_reclaims.load(Ordering::Relaxed) - recovery_before.1;
        report.stale_releases =
            self.recovery.stale_releases.load(Ordering::Relaxed) - recovery_before.2;
        report.standby_serves =
            self.recovery.standby_serves.load(Ordering::Relaxed) - recovery_before.3;
        report.takeover_ns = self.recovery.takeover_ns.load(Ordering::Relaxed);
        report.layout = Some(self.layout);
        report.host_wall_ns = crate::stats::HostNanos::new(
            u64::try_from(host_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        );
        report
    }

    /// Drain the event trace accumulated so far (threads that finished a
    /// run, plus manager / memory-server / fabric activity). Returns `None`
    /// unless the configuration enabled [`SamhitaConfig::tracing`]. Each
    /// call starts a fresh collection window.
    pub fn take_trace(&self) -> Option<RunTrace> {
        self.tracer.as_ref().map(|t| t.take())
    }

    /// Tear the system down and return server-side statistics.
    pub fn shutdown(mut self) -> SystemStats {
        self.shutdown_inner()
    }

    /// The compute tasks' statistics, in tid order. Re-raises the first
    /// compute panic with its original payload; a task that never finished
    /// means the run deadlocked.
    fn collect(
        &self,
        outcomes: Vec<Option<std::thread::Result<crate::stats::ThreadStats>>>,
    ) -> Vec<crate::stats::ThreadStats> {
        let blocked = outcomes.iter().filter(|o| o.is_none()).count();
        let mut stats = Vec::with_capacity(outcomes.len());
        for outcome in outcomes.into_iter().flatten() {
            match outcome {
                Ok(s) => stats.push(s),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        if blocked > 0 {
            // A service loop only returns on its shutdown message, so one
            // that finished mid-run panicked (its message is already on
            // stderr; shutdown reports it again).
            let dead = self.mem_handles.iter().any(Coroutine::is_finished)
                || self.mgr_handle.as_ref().is_some_and(Coroutine::is_finished)
                || self.standby_handle.as_ref().is_some_and(Coroutine::is_finished);
            let why = if dead { "a service task panicked" } else { "every task is blocked" };
            panic!("simulated deadlock: {blocked} compute tasks never finished ({why})");
        }
        stats
    }

    fn shutdown_inner(&mut self) -> SystemStats {
        self.assert_owner_thread();
        let mut stats = SystemStats::default();
        // If a compute body panicked mid-run the baton may be elsewhere;
        // re-acquire it first (idempotent when already running) so the
        // shutdown sends happen from a Running task.
        self.host_task.resume();
        {
            // Reliable sends: a crashed (or partitioned) server must still
            // receive its shutdown message, or its loop would never return.
            let ctl = self.ctl.lock();
            for &ep in &self.mem_eps {
                ctl.send_shutdown(ep);
            }
            ctl.send_shutdown(self.mgr_ep);
            if let Some(sb) = self.standby_ep {
                ctl.send_shutdown(sb);
            }
        }
        // Hand the baton over so the service tasks can run their loops to
        // the shutdown message and retire; take it back once they finished.
        self.host_task.suspend();
        self.host_task.resume();
        for h in self.mem_handles.drain(..) {
            stats.servers.push(join_service(h, "memory server"));
        }
        if let Some(h) = self.mgr_handle.take() {
            stats.manager = join_service(h, "manager");
        }
        if let Some(h) = self.standby_handle.take() {
            stats.standby = Some(join_service(h, "standby manager"));
        }
        stats
    }
}

/// A service loop's final statistics, once it returned on its shutdown
/// message.
fn join_service<T: Send>(h: Coroutine<T>, what: &str) -> T {
    match h.join() {
        Some(Ok(stats)) => stats,
        Some(Err(_)) => panic!("{what} panicked"),
        None => panic!("{what} never reached its shutdown message"),
    }
}

impl Drop for Samhita {
    fn drop(&mut self) {
        // While unwinding (a run re-raised a task's panic) a second panic
        // would abort, so the service tasks are left unjoined instead:
        // dropping their handles retires them for good.
        if self.mgr_handle.is_some() && !std::thread::panicking() {
            let _ = self.shutdown_inner();
        }
    }
}

/// Summarize a memory request as trace events (stamped later, at the
/// server's service-completion time). A batched update expands into one
/// event per component part, so byte-conservation checks over the server
/// track see exactly the same `ApplyDiff`/`ApplyFine` totals whether or not
/// the flushes travelled coalesced.
fn mem_events(req: &MemRequest) -> Vec<EventKind> {
    match req {
        MemRequest::FetchLine { first, pages } => {
            vec![EventKind::ServeFetch { page: first.0, pages: *pages }]
        }
        MemRequest::FetchPage { page } => vec![EventKind::ServeFetch { page: page.0, pages: 1 }],
        MemRequest::ApplyDiff { page, diff } => {
            vec![EventKind::ApplyDiff { page: page.0, bytes: diff.payload_bytes() as u64 }]
        }
        MemRequest::ApplyFine { page, bytes, .. } => {
            vec![EventKind::ApplyFine { page: page.0, bytes: bytes.len() as u64 }]
        }
        MemRequest::WritePage { page, .. } => vec![EventKind::ServeWrite { page: page.0 }],
        MemRequest::UpdateBatch { batch } => batch
            .parts()
            .map(|part| match part {
                UpdatePart::Diff { page, diff } => {
                    EventKind::ApplyDiff { page: *page, bytes: diff.payload_bytes() as u64 }
                }
                UpdatePart::Fine { page, bytes, .. } => {
                    EventKind::ApplyFine { page: *page, bytes: bytes.len() as u64 }
                }
            })
            .collect(),
    }
}

fn mem_resp_class(resp: &MemResponse) -> MsgClass {
    match resp {
        MemResponse::Line { .. } | MemResponse::Page { .. } => MsgClass::Data,
        MemResponse::Ack { .. } | MemResponse::BatchAck { .. } => MsgClass::Update,
    }
}

/// Requests kept in a server's idempotency cache. Retransmissions arrive
/// almost immediately after their original (the client blocks on the lost
/// copy's arrival), so a small window suffices; it only bounds memory.
const DEDUP_WINDOW: usize = 512;

fn mem_server_loop(
    ep: Endpoint<Msg>,
    mut server: MemoryServer,
    track: Option<SharedTrack>,
    ctl: EndpointId,
    dedup: bool,
    busy: Arc<AtomicU64>,
    queue: Arc<Mutex<QueueMirror>>,
) -> ServerStats {
    // Idempotency cache: (requester, token) → completed response. A replayed
    // request is re-acknowledged without re-applying, re-charging the service
    // resource, or re-tracing — exactly-once application under at-least-once
    // delivery.
    let mut seen: HashMap<(EndpointId, u64), (SimTime, MemResponse)> = HashMap::new();
    let mut order: VecDeque<(EndpointId, u64)> = VecDeque::new();
    while let Ok(env) = ep.recv() {
        match env.msg {
            Msg::MemReq { token, shadow, req } => {
                // A lost request never reached this server; discard it.
                if env.lost {
                    continue;
                }
                if let Some((done, resp)) = seen.get(&(env.src, token)) {
                    let at = (*done).max(env.deliver_at);
                    let wire = resp.wire_bytes();
                    let class = mem_resp_class(resp);
                    let msg = Msg::MemResp { token, resp: resp.clone() };
                    let _ = if env.src == ctl {
                        ep.send_reliable(env.src, at, wire, class, msg)
                    } else {
                        ep.send(env.src, at, wire, class, msg)
                    };
                    continue;
                }
                // Shadow (replica write-through) copies are applied and
                // counted, but kept off the event trace so replication does
                // not disturb the observable protocol timeline.
                let events = if shadow { None } else { track.as_ref().map(|_| mem_events(&req)) };
                let (resp, done) = server.handle(req, env.deliver_at);
                // Publish virtual busy time before the response leaves: the
                // requester's receipt then proves the new value is visible.
                // The queue mirror rides the same window, so it inherits the
                // same determinism argument.
                let st = server.stats();
                busy.store(st.busy_ns, Ordering::Relaxed);
                let (new_samples, _dropped) = server.take_queue_samples();
                queue.lock().publish(
                    st.queue_wait_ns,
                    st.queue_depth_sum,
                    st.requests,
                    new_samples,
                );
                if let (Some(track), Some(events)) = (&track, events) {
                    for event in events {
                        track.push(done, event);
                    }
                }
                if dedup {
                    seen.insert((env.src, token), (done, resp.clone()));
                    order.push_back((env.src, token));
                    if order.len() > DEDUP_WINDOW {
                        if let Some(old) = order.pop_front() {
                            seen.remove(&old);
                        }
                    }
                }
                let wire = resp.wire_bytes();
                let class = mem_resp_class(&resp);
                let msg = Msg::MemResp { token, resp };
                // A send failure means the requester is gone; nothing to do.
                let _ = if env.src == ctl {
                    ep.send_reliable(env.src, done, wire, class, msg)
                } else {
                    ep.send(env.src, done, wire, class, msg)
                };
            }
            Msg::Shutdown => break,
            other => panic!("memory server received unexpected message: {other:?}"),
        }
    }
    server.stats()
}

#[allow(clippy::too_many_arguments)]
fn manager_loop(
    ep: Endpoint<Msg>,
    mut engine: ManagerEngine,
    track: Option<SharedTrack>,
    ctl: EndpointId,
    dedup: bool,
    standby: Option<EndpointId>,
    died_at: Option<SimTime>,
    recovery: Arc<RecoveryMirror>,
    busy: Arc<AtomicU64>,
    queue: Arc<Mutex<QueueMirror>>,
) -> ManagerStats {
    // Replies to the host control endpoint are normally fault-exempt (the
    // host models out-of-band experimenter access), but no amount of
    // out-of-band reliability revives a dead process: once a configured
    // manager crash has passed, ctl replies go through the faulted path so
    // the crash fate drops them like everything else — otherwise a host
    // setup RPC could be answered while its log record dies with the ship,
    // leaving the standby permanently ignorant of state the host observed.
    let ctl_reliable = |at: SimTime| died_at.is_none_or(|d| at < d);
    // Replay protection. Each client's tokens arrive monotonically (its
    // requests are serialized and the fabric preserves per-sender order), so
    // a high-water mark per source detects retransmissions, and the last
    // response issued *to* each endpoint answers a retransmission whose
    // reply was lost. A retransmission of a still-queued request (a blocked
    // acquire or condition wait) is simply ignored: the original will be
    // answered when granted.
    let mut hwm: HashMap<EndpointId, u64> = HashMap::new();
    let mut done: HashMap<EndpointId, (u64, SimTime, MgrResponse)> = HashMap::new();
    // Write-ahead log records the standby has not yet acknowledged. Every
    // serve ships the whole suffix, so a batch lost on the wire (or to the
    // crash itself) is repaired by the next serve's re-ship; the standby
    // deduplicates replays by sequence number.
    let mut unacked: Vec<MgrLogRecord> = Vec::new();
    let mut shipped: u64 = 0;
    while let Ok(env) = ep.recv() {
        match env.msg {
            Msg::MgrReq { token, tid, req } => {
                // A lost request never reached the manager; discard it.
                if env.lost {
                    continue;
                }
                if dedup {
                    let seen = hwm.get(&env.src).copied().unwrap_or(0);
                    if token < seen {
                        continue;
                    }
                    if token == seen {
                        if let Some((t, at, resp)) = done.get(&env.src) {
                            if *t == token {
                                let at = (*at).max(env.deliver_at);
                                let wire = resp.wire_bytes();
                                let msg = Msg::MgrResp { token, resp: resp.clone() };
                                let _ = if env.src == ctl && ctl_reliable(at) {
                                    ep.send_reliable(env.src, at, wire, MsgClass::Sync, msg)
                                } else {
                                    ep.send(env.src, at, wire, MsgClass::Sync, msg)
                                };
                            }
                        }
                        continue;
                    }
                    hwm.insert(env.src, token);
                }
                let op = track.as_ref().map(|_| req.label());
                let rec = engine.record(env.src, tid, token, req, env.deliver_at);
                if standby.is_some() {
                    unacked.push(rec.clone());
                }
                let outgoing = engine.apply(rec);
                // Publish virtual busy time before any response leaves (see
                // mem_server_loop for the visibility argument). The queue
                // mirror rides the same window.
                let st = engine.stats();
                busy.store(st.busy_ns, Ordering::Relaxed);
                let (new_samples, _dropped) = engine.take_queue_samples();
                queue.lock().publish(
                    st.queue_wait_ns,
                    st.queue_depth_sum,
                    st.requests,
                    new_samples,
                );
                for out in outgoing {
                    let wire = out.resp.wire_bytes();
                    if dedup {
                        done.insert(out.dst, (out.token, out.at, out.resp.clone()));
                    }
                    let msg = Msg::MgrResp { token: out.token, resp: out.resp };
                    let _ = if out.dst == ctl && ctl_reliable(out.at) {
                        ep.send_reliable(out.dst, out.at, wire, MsgClass::Sync, msg)
                    } else {
                        ep.send(out.dst, out.at, wire, MsgClass::Sync, msg)
                    };
                }
                if let (Some(track), Some(op)) = (&track, op) {
                    track.push(engine.last_done(), EventKind::MgrServe { op, tid });
                }
                if let Some(sb) = standby {
                    // Write-ahead shipping: responses and the log batch leave
                    // at the same virtual instant (`last_done`), and a
                    // manager crash is a structural fault keyed on that
                    // instant — so the crash can never deliver a response
                    // whose record it dropped. Only a *random* loss can
                    // separate them, and the next serve's re-ship repairs it
                    // (with lock leases covering the tail case of a crash
                    // right after).
                    shipped += unacked.len() as u64;
                    recovery.log_records_shipped.store(shipped, Ordering::Relaxed);
                    let msg = Msg::MgrLog { records: unacked.clone() };
                    let wire = msg.wire_bytes();
                    let _ = ep.send(sb, engine.last_done(), wire, MsgClass::Control, msg);
                }
            }
            Msg::MgrLogAck { upto } => {
                // A lost ack is simply ignored: the suffix stays unacked and
                // the next serve re-ships it.
                if !env.lost {
                    unacked.retain(|r| r.seq > upto);
                }
            }
            Msg::Shutdown => break,
            other => panic!("manager received unexpected message: {other:?}"),
        }
    }
    let mut stats = engine.stats();
    stats.log_records_shipped = shipped;
    stats
}

/// The hot-standby manager's event loop.
///
/// **Before takeover** it is a pure log sink: every non-lost [`Msg::MgrLog`]
/// batch is folded into its own engine (skipping already-applied sequence
/// numbers — batches always restart at the first unacknowledged record), the
/// primary's replay-protection state is reconstructed from the records'
/// `(src, token)` pairs and the fold's outputs, and an ack is returned.
/// Nothing is sent to clients and nothing is traced: replay is bookkeeping,
/// not service.
///
/// **Takeover** is the first non-lost client request: a client only re-homes
/// after exhausting its retry budget against the primary, so the primary is
/// dead. From then on the standby serves exactly like the primary — same
/// record→apply path, same replay-cache discipline (a request the primary
/// already answered is re-answered from the reconstructed cache, never
/// re-applied), traced as `MgrServe` on its own track. Between requests it
/// sleeps only until the earliest lock-lease expiry; waking at that virtual
/// deadline with no message, it folds a `ReclaimExpired` sweep into the log
/// so a lock whose holder (or whose release) died with the primary is handed
/// to the next waiter instead of blocking the run forever. Leases expire in
/// virtual time, which the scheduler-bound endpoint's `recv_deadline`
/// observes exactly.
fn standby_loop(
    ep: Endpoint<Msg>,
    mut engine: ManagerEngine,
    track: Option<SharedTrack>,
    ctl: EndpointId,
    recovery: Arc<RecoveryMirror>,
) -> ManagerStats {
    let mut hwm: HashMap<EndpointId, u64> = HashMap::new();
    let mut done: HashMap<EndpointId, (u64, SimTime, MgrResponse)> = HashMap::new();
    let mut active = false;
    let mut serves: u64 = 0;
    loop {
        // An active standby sleeps only until the earliest lease expiry:
        // reaching the deadline with no message triggers a reclaim sweep.
        let deadline = if active { engine.next_lease_expiry() } else { None };
        let env = match deadline {
            Some(at) => match ep.recv_deadline(at) {
                Ok(Some(env)) => env,
                Ok(None) => {
                    let outs = engine.apply(engine.record_reclaim(at));
                    let st = engine.stats();
                    recovery.lease_reclaims.store(st.lease_reclaims, Ordering::Relaxed);
                    recovery.stale_releases.store(st.stale_releases, Ordering::Relaxed);
                    if let Some(track) = &track {
                        for (lock, holder) in engine.take_reclaims() {
                            track.push(at, EventKind::LeaseReclaim { lock, holder });
                        }
                    }
                    // Reclaimed locks hand to their next queued waiter: the
                    // grants answer those waiters' original acquire tokens.
                    for out in outs {
                        done.insert(out.dst, (out.token, out.at, out.resp.clone()));
                        let wire = out.resp.wire_bytes();
                        let msg = Msg::MgrResp { token: out.token, resp: out.resp };
                        let _ = if out.dst == ctl {
                            ep.send_reliable(out.dst, out.at, wire, MsgClass::Sync, msg)
                        } else {
                            ep.send(out.dst, out.at, wire, MsgClass::Sync, msg)
                        };
                    }
                    continue;
                }
                Err(_) => break,
            },
            None => match ep.recv() {
                Ok(env) => env,
                Err(_) => break,
            },
        };
        match env.msg {
            Msg::MgrLog { records } => {
                // A lost batch never reached the standby; the primary's next
                // serve re-ships the suffix.
                if env.lost {
                    continue;
                }
                for rec in records {
                    if rec.seq <= engine.applied_seq() {
                        continue; // already folded (batches re-ship the suffix)
                    }
                    if let MgrLogOp::Request { src, token, .. } = &rec.op {
                        let seen = hwm.entry(*src).or_insert(0);
                        *seen = (*seen).max(*token);
                    }
                    // Replay: fold the record, filing its outputs in the
                    // reconstructed replay cache WITHOUT sending them — the
                    // primary already answered these requests.
                    for out in engine.apply(rec) {
                        done.insert(out.dst, (out.token, out.at, out.resp));
                    }
                }
                let ack = Msg::MgrLogAck { upto: engine.applied_seq() };
                let wire = ack.wire_bytes();
                let _ = ep.send(env.src, env.deliver_at, wire, MsgClass::Control, ack);
            }
            Msg::MgrReq { token, tid, req } => {
                // A lost request never reached the standby; discard it.
                if env.lost {
                    continue;
                }
                if !active {
                    active = true;
                    recovery.takeover_ns.store(env.deliver_at.as_ns(), Ordering::Relaxed);
                }
                // Replay protection, seeded by the log replay above: a
                // request the primary already served is re-answered from the
                // reconstructed cache, never re-applied.
                let seen = hwm.get(&env.src).copied().unwrap_or(0);
                if token < seen {
                    continue;
                }
                if token == seen {
                    if let Some((t, at, resp)) = done.get(&env.src) {
                        if *t == token {
                            let at = (*at).max(env.deliver_at);
                            let wire = resp.wire_bytes();
                            let msg = Msg::MgrResp { token, resp: resp.clone() };
                            let _ = if env.src == ctl {
                                ep.send_reliable(env.src, at, wire, MsgClass::Sync, msg)
                            } else {
                                ep.send(env.src, at, wire, MsgClass::Sync, msg)
                            };
                        }
                    }
                    continue;
                }
                hwm.insert(env.src, token);
                let op = track.as_ref().map(|_| req.label());
                let outgoing =
                    engine.apply(engine.record(env.src, tid, token, req, env.deliver_at));
                serves += 1;
                // Publish before any response leaves (the busy-mirror
                // visibility discipline, applied to the recovery counters).
                let st = engine.stats();
                recovery.standby_serves.store(serves, Ordering::Relaxed);
                recovery.lease_reclaims.store(st.lease_reclaims, Ordering::Relaxed);
                recovery.stale_releases.store(st.stale_releases, Ordering::Relaxed);
                for out in outgoing {
                    let wire = out.resp.wire_bytes();
                    done.insert(out.dst, (out.token, out.at, out.resp.clone()));
                    let msg = Msg::MgrResp { token: out.token, resp: out.resp };
                    let _ = if out.dst == ctl {
                        ep.send_reliable(out.dst, out.at, wire, MsgClass::Sync, msg)
                    } else {
                        ep.send(out.dst, out.at, wire, MsgClass::Sync, msg)
                    };
                }
                if let (Some(track), Some(op)) = (&track, op) {
                    track.push(engine.last_done(), EventKind::MgrServe { op, tid });
                }
            }
            Msg::Shutdown => break,
            other => panic!("standby manager received unexpected message: {other:?}"),
        }
    }
    engine.stats()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> Samhita {
        Samhita::new(SamhitaConfig::small_for_tests())
    }

    #[test]
    fn bring_up_and_shutdown() {
        let s = system();
        let stats = s.shutdown();
        assert_eq!(stats.servers.len(), 1);
    }

    #[test]
    fn host_memory_roundtrip() {
        let s = system();
        let addr = s.alloc_global(1024);
        let values: Vec<f64> = (0..128).map(|i| i as f64 * 0.5).collect();
        s.write_f64s(addr, &values);
        assert_eq!(s.read_f64s(addr, 128), values);
        s.free_global(addr);
    }

    #[test]
    fn host_write_spanning_pages() {
        let s = system(); // 256-byte pages
        let addr = s.alloc_global(4096);
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        s.write_global(addr + 100, &data);
        let mut back = vec![0u8; 1000];
        s.read_global(addr + 100, &mut back);
        assert_eq!(back, data);
    }

    #[test]
    fn single_thread_run_reads_its_own_writes() {
        let s = system();
        let addr = s.alloc_global(2048);
        let report = s.run(1, |ctx| {
            for i in 0..256 {
                ctx.write_f64(addr + i * 8, i as f64);
            }
            for i in 0..256 {
                assert_eq!(ctx.read_f64(addr + i * 8), i as f64);
            }
        });
        assert_eq!(report.threads.len(), 1);
        assert!(report.makespan > SimTime::ZERO);
        // The final flush must have landed at the home.
        let back = s.read_f64s(addr, 256);
        assert_eq!(back[255], 255.0);
    }

    #[test]
    fn fabric_stats_classify_traffic() {
        use samhita_scl::MsgClass;
        let s = system();
        let addr = s.alloc_global(2048);
        let lock = s.create_mutex();
        s.run(2, |ctx| {
            ctx.write_u64(addr + ctx.tid() as u64 * 8, 1);
            ctx.lock(lock);
            ctx.unlock(lock);
        });
        let snap = s.fabric_stats();
        assert!(snap.msgs(MsgClass::Data) > 0, "line fetches are data traffic");
        assert!(snap.msgs(MsgClass::Sync) > 0, "lock RPCs are sync traffic");
        assert!(snap.msgs(MsgClass::Update) > 0, "flushes are update traffic");
        assert!(snap.msgs(MsgClass::Control) > 0, "registration/alloc are control traffic");
        assert!(snap.total_bytes() > snap.bytes(MsgClass::Sync));
    }

    #[test]
    fn two_runs_on_one_system() {
        let s = system();
        let addr = s.alloc_global(64);
        s.run(1, |ctx| ctx.write_u64(addr, 41));
        s.run(2, |ctx| {
            if ctx.tid() == 0 {
                let v = ctx.read_u64(addr);
                assert_eq!(v, 41);
            }
        });
    }

    #[test]
    #[should_panic(expected = "exceeds provisioned max_threads")]
    fn run_rejects_too_many_threads() {
        let s = system();
        s.run(1000, |_| {});
    }

    #[test]
    fn utilization_accounting_is_deterministic() {
        // Single-threaded on purpose: P=1 is the configuration whose virtual
        // timeline is bit-reproducible (multi-thread lock arbitration depends
        // on OS-level arrival order), so it is where exact equality holds.
        let run = || {
            let s = system();
            let addr = s.alloc_global(2048);
            let lock = s.create_mutex();
            s.run(1, |ctx| {
                for i in 0..128u64 {
                    ctx.write_u64(addr + i * 8, i);
                }
                ctx.lock(lock);
                ctx.unlock(lock);
            })
        };
        let a = run();
        let b = run();
        assert!(a.mgr_busy_ns > 0, "locks and registration must occupy the manager");
        assert_eq!(a.server_busy_ns.len(), 1);
        assert!(a.server_busy_ns[0] > 0, "fetches and flushes must occupy the server");
        assert!(a.mgr_utilization() > 0.0);
        assert!(a.server_utilization().iter().all(|&u| u > 0.0));
        assert!(a.layout.is_some());
        // Busy accounting is part of the deterministic report, not a
        // wall-clock artifact: two fresh systems agree exactly.
        assert_eq!(a.mgr_busy_ns, b.mgr_busy_ns);
        assert_eq!(a.server_busy_ns, b.server_busy_ns);
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    fn report_hotspots_name_the_written_pages() {
        let s = system(); // 256-byte pages
        let addr = s.alloc_global(1024);
        let report = s.run(1, |ctx| {
            for i in 0..128u64 {
                ctx.write_u64(addr + i * 8, i);
            }
        });
        let hot = report.hotspots();
        assert!(!hot.is_empty());
        let first_page = addr / 256;
        // Every written page shows write-side churn (a twin) and flushed
        // bytes; the first line also shows the demand miss (later lines can
        // be store-allocated without a fetch).
        for p in first_page..first_page + 4 {
            let c = hot.page(p).unwrap_or_else(|| panic!("page {p} missing from hotspot map"));
            assert!(c.twins >= 1);
            assert!(c.diff_bytes + c.fine_bytes > 0);
        }
        assert!(hot.total_of(|c| c.misses) >= 1);
        // And the report can label where each page lives.
        for (page, _) in hot.iter() {
            assert_ne!(report.site_label(page), "?");
        }
    }
}
