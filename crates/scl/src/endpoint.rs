//! Endpoints: the receiving half of a fabric attachment.
//!
//! Every endpoint a component receives on is bound to that component's
//! deterministic-scheduler task (see [`Endpoint::bind_task`]), and `recv`
//! delivers messages in **virtual-time order**: arrivals are staged in a
//! min-heap keyed by per-sender-monotone effective delivery time, and the
//! owning task yields to the scheduler until the earliest staged message is
//! provably final (no lower-keyed message can still be sent). That makes
//! multi-sender receive order a pure function of virtual time + seed, never
//! of host scheduling. An unbound endpoint can only be polled with
//! [`Endpoint::try_recv`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use crossbeam::channel::{Receiver, TryRecvError};
use parking_lot::Mutex;
use samhita_sched::TaskRef;

use crate::error::SclError;
use crate::fabric::Fabric;
use crate::fault::SendFate;
use crate::resource::DepthGauge;
use crate::stats::MsgClass;
use crate::time::SimTime;
use crate::topology::{EndpointId, NodeId};

/// A staged message on the deterministic receive path, ordered by
/// `(effective_time, arrival_seq)`. The effective time is the envelope's
/// delivery time made monotone per sender, so per-sender FIFO order (which
/// the protocol's idempotency machinery relies on) survives reordering.
struct DetItem<M> {
    eff: u64,
    seq: u64,
    env: Envelope<M>,
}

impl<M> PartialEq for DetItem<M> {
    fn eq(&self, other: &Self) -> bool {
        (self.eff, self.seq) == (other.eff, other.seq)
    }
}
impl<M> Eq for DetItem<M> {}
impl<M> PartialOrd for DetItem<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for DetItem<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.eff, self.seq).cmp(&(other.eff, other.seq))
    }
}

/// Deterministic receive state, present once the endpoint is bound.
struct DetState<M> {
    task: TaskRef,
    heap: BinaryHeap<Reverse<DetItem<M>>>,
    /// Last effective time handed out per sender; effective times are
    /// `max(deliver_at, last_eff[src])` so one sender's messages never
    /// reorder against each other (an ordering key only — the envelope
    /// keeps its true delivery time).
    last_eff: HashMap<EndpointId, u64>,
    /// Arrival counter: ties at equal effective time resolve in physical
    /// channel order, which is deterministic under serialized execution.
    seq: u64,
    closed: bool,
}

impl<M> DetState<M> {
    /// Pull everything physically available into the staging heap.
    fn drain(&mut self, rx: &Receiver<Envelope<M>>) {
        let _prof = samhita_prof::enter(samhita_prof::Phase::ChannelRecv);
        loop {
            match rx.try_recv() {
                Ok(env) => {
                    let last = self.last_eff.entry(env.src).or_insert(0);
                    let eff = env.deliver_at.as_ns().max(*last);
                    *last = eff;
                    let seq = self.seq;
                    self.seq += 1;
                    self.heap.push(Reverse(DetItem { eff, seq, env }));
                }
                Err(TryRecvError::Empty) => return,
                Err(TryRecvError::Disconnected) => {
                    self.closed = true;
                    return;
                }
            }
        }
    }
}

/// A message in flight (or just delivered).
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sending endpoint.
    pub src: EndpointId,
    /// Virtual time at which the sender posted the message.
    pub sent_at: SimTime,
    /// Virtual time at which the message reaches the receiver. Receivers
    /// must advance their clock to at least this before acting on `msg`.
    pub deliver_at: SimTime,
    /// Set by fault injection: the message was lost on the wire. Receivers
    /// must discard the payload without acting on it; a lost *response*
    /// arriving is how a client's virtual-time retransmission timeout fires
    /// without any wall-clock timer.
    pub lost: bool,
    /// Application payload.
    pub msg: M,
}

/// One attachment point on the fabric. Owned by exactly one component
/// thread; cloneable senders live inside the fabric.
pub struct Endpoint<M> {
    id: EndpointId,
    node: NodeId,
    rx: Receiver<Envelope<M>>,
    fabric: Arc<Fabric<M>>,
    det: Mutex<Option<DetState<M>>>,
    depth_gauge: Mutex<Option<Arc<DepthGauge>>>,
}

impl<M: Send + Clone + 'static> Endpoint<M> {
    pub(crate) fn new(
        id: EndpointId,
        node: NodeId,
        rx: Receiver<Envelope<M>>,
        fabric: Arc<Fabric<M>>,
    ) -> Self {
        Endpoint { id, node, rx, fabric, det: Mutex::new(None), depth_gauge: Mutex::new(None) }
    }

    /// Attach a backlog gauge: every successful [`Endpoint::recv`] samples
    /// how many messages remained staged (deterministic heap) or pending
    /// (physical channel) after one was taken. Sampling is observational —
    /// it never touches a virtual clock or the receive order.
    pub fn set_depth_gauge(&self, gauge: Arc<DepthGauge>) {
        *self.depth_gauge.lock() = Some(gauge);
    }

    fn sample_backlog(&self, depth: u64) {
        if let Some(g) = self.depth_gauge.lock().as_ref() {
            g.sample(depth);
        }
    }

    /// Switch this endpoint to the deterministic receive discipline, owned
    /// by scheduler task `task`: subsequent deliveries post virtual wake-ups
    /// to the task and [`Endpoint::recv`] returns messages in effective
    /// virtual-time order. Call once at bring-up, before any traffic
    /// targets this endpoint.
    pub fn bind_task(&self, task: &TaskRef) {
        *self.det.lock() = Some(DetState {
            task: task.clone(),
            heap: BinaryHeap::new(),
            last_eff: HashMap::new(),
            seq: 0,
            closed: false,
        });
        self.fabric.bind_task(self.id, task.clone());
    }

    /// This endpoint's fabric id.
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// The node this endpoint is placed on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The fabric this endpoint is attached to.
    pub fn fabric(&self) -> &Arc<Fabric<M>> {
        &self.fabric
    }

    /// Send a message; see [`Fabric::send`].
    pub fn send(
        &self,
        dst: EndpointId,
        now: SimTime,
        wire_bytes: usize,
        class: MsgClass,
        msg: M,
    ) -> Result<SimTime, SclError> {
        self.fabric.send(self.id, dst, now, wire_bytes, class, msg)
    }

    /// Send a message and learn its injected fate; see
    /// [`Fabric::send_faulted`].
    pub fn send_faulted(
        &self,
        dst: EndpointId,
        now: SimTime,
        wire_bytes: usize,
        class: MsgClass,
        msg: M,
    ) -> Result<(SimTime, SendFate), SclError> {
        self.fabric.send_faulted(self.id, dst, now, wire_bytes, class, msg)
    }

    /// Send a message that bypasses fault injection; see
    /// [`Fabric::send_reliable`].
    pub fn send_reliable(
        &self,
        dst: EndpointId,
        now: SimTime,
        wire_bytes: usize,
        class: MsgClass,
        msg: M,
    ) -> Result<SimTime, SclError> {
        self.fabric.send_reliable(self.id, dst, now, wire_bytes, class, msg)
    }

    /// Block until a message arrives, delivering in effective virtual-time
    /// order. Blocking is a scheduler yield: the wait ends when the earliest
    /// staged message is *final*, i.e. the task was granted at a virtual time
    /// `g` with the heap minimum's effective time `<= g`, so no yet-unsent
    /// message can ever sort in front of it.
    ///
    /// # Panics
    /// Panics if the endpoint is not bound to a scheduler task.
    pub fn recv(&self) -> Result<Envelope<M>, SclError> {
        let mut det = self.det.lock();
        let st = det.as_mut().expect("Endpoint::recv needs an endpoint bound to a scheduler task");
        // Holding `det` across yields/parks is deadlock-free: senders touch
        // only the fabric slot (wake hook) and the physical channel, never
        // this mutex.
        loop {
            st.drain(&self.rx);
            if let Some(Reverse(top)) = st.heap.peek() {
                let eff = top.eff;
                let granted = st.task.yield_until(eff);
                st.drain(&self.rx);
                if let Some(env) = self.pop_final(st, granted) {
                    return Ok(env);
                }
                // Granted below the minimum (an earlier wake-up raced in and
                // then monotonization lifted it, or a lower-keyed message
                // arrived meanwhile): loop and re-announce the new minimum.
            } else if st.closed {
                return Err(SclError::ChannelClosed);
            } else {
                st.task.park();
            }
        }
    }

    /// Pop the staged minimum if it is final at grant time `granted`.
    fn pop_final(&self, st: &mut DetState<M>, granted: u64) -> Option<Envelope<M>> {
        if st.heap.peek().is_some_and(|Reverse(top)| top.eff <= granted) {
            let env = st.heap.pop().expect("peeked").0.env;
            self.sample_backlog(st.heap.len() as u64);
            return Some(env);
        }
        None
    }

    /// Block until a message arrives *or* virtual time reaches `deadline`,
    /// whichever is earlier; `Ok(None)` means the deadline fired with no
    /// deliverable message at or before it. The wait is a scheduler yield,
    /// so the deadline is exact in virtual time — this is how a standby
    /// manager sleeps until the next lock-lease expiry without any
    /// wall-clock timer. A staged message due at or before the deadline
    /// always wins over the deadline itself.
    ///
    /// # Panics
    /// Panics if the endpoint is not bound to a scheduler task.
    pub fn recv_deadline(&self, deadline: SimTime) -> Result<Option<Envelope<M>>, SclError> {
        let mut det = self.det.lock();
        let st = det
            .as_mut()
            .expect("Endpoint::recv_deadline needs an endpoint bound to a scheduler task");
        let dl = deadline.as_ns();
        loop {
            st.drain(&self.rx);
            let target = match st.heap.peek() {
                Some(Reverse(top)) => top.eff.min(dl),
                None if st.closed => return Err(SclError::ChannelClosed),
                None => dl,
            };
            let granted = st.task.yield_until(target);
            st.drain(&self.rx);
            if let Some(env) = self.pop_final(st, granted) {
                return Ok(Some(env));
            }
            if granted >= dl {
                return Ok(None);
            }
        }
    }

    /// Non-blocking receive. On a bound endpoint this returns the staged
    /// minimum by effective time without any finality wait — callers that
    /// mix it with deterministic `recv` must tolerate tentative order.
    pub fn try_recv(&self) -> Option<Envelope<M>> {
        let mut det = self.det.lock();
        if let Some(st) = det.as_mut() {
            st.drain(&self.rx);
            return st.heap.pop().map(|Reverse(item)| item.env);
        }
        drop(det);
        match self.rx.try_recv() {
            Ok(env) => Some(env),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }
}

impl<M> std::fmt::Debug for Endpoint<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint").field("id", &self.id).field("node", &self.node).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn try_recv_polls_an_unbound_endpoint() {
        let fabric = Fabric::<u8>::new(Topology::single_node(1));
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(0));
        assert!(b.try_recv().is_none());
        a.send(b.id(), SimTime::ZERO, 1, MsgClass::Control, 9).unwrap();
        assert_eq!(b.try_recv().unwrap().msg, 9);
    }

    #[test]
    #[should_panic(expected = "bound to a scheduler task")]
    fn blocking_recv_needs_a_bound_endpoint() {
        let fabric = Fabric::<u8>::new(Topology::single_node(1));
        let b = fabric.add_endpoint(NodeId(0));
        let _ = b.recv();
    }

    #[test]
    fn recv_deadline_is_exact_in_virtual_time_on_bound_endpoints() {
        use samhita_sched::Scheduler;
        let sched = Scheduler::new(0);
        let host = sched.register_running();
        let fabric = Fabric::<u8>::new(Topology::single_node(1));
        let a = fabric.add_endpoint(NodeId(0));
        let b = fabric.add_endpoint(NodeId(0));
        let task = sched.register_parked();
        b.bind_task(&task);
        let b_id = b.id();
        let h = std::thread::spawn(move || {
            task.start();
            // The message is already in flight, due no earlier than 1000 ns;
            // a 500 ns deadline fires first, with the message left staged.
            assert!(b.recv_deadline(SimTime::from_ns(500)).unwrap().is_none());
            // With a late deadline the staged message wins over it.
            let env = b.recv_deadline(SimTime::from_ms(1)).unwrap().expect("message due first");
            assert_eq!(env.msg, 7);
            assert!(env.deliver_at >= SimTime::from_ns(1000));
            task.exit();
        });
        a.send(b_id, SimTime::from_ns(1000), 8, MsgClass::Control, 7).unwrap();
        host.suspend();
        h.join().unwrap();
        host.resume();
    }

    #[test]
    fn endpoint_reports_placement() {
        let fabric = Fabric::<u8>::new(Topology::cluster(3, crate::profiles::ib_qdr()));
        let e = fabric.add_endpoint(NodeId(2));
        assert_eq!(e.node(), NodeId(2));
        assert_eq!(e.fabric().topology().len(), 3);
    }
}
