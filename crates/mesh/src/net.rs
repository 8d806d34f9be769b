//! Message transport over the mesh.
//!
//! Timing model: a send serializes on the sender's NIC for the software
//! send overhead plus the wire time (`bytes / link_bw`), then the message
//! propagates `hops × hop_latency` plus the receive overhead before landing
//! in the destination mailbox. This reproduces the two facts that matter
//! for the paper's experiments — per-message software cost (~100 µs class,
//! which penalizes many small requests) and NIC serialization under fan-in —
//! while interior wormhole-link contention, which is negligible next to
//! 3 MB/s disks on a >150 MB/s mesh, is folded into the NIC term.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use paragon_sim::sync::{channel, Receiver, Semaphore, Sender};
use paragon_sim::{ev, EventKind, FaultPlan, MeshVerdict, ReqId, Sim, SimDuration, Track};

use crate::topology::{NodeId, Topology};

/// Mesh timing parameters.
#[derive(Debug, Clone)]
pub struct MeshParams {
    /// Per-link bandwidth, bytes/second.
    pub link_bw: f64,
    /// Router latency per hop.
    pub hop_latency: SimDuration,
    /// Software overhead on the sending side (syscall, packetization).
    pub send_overhead: SimDuration,
    /// Software overhead on the receiving side.
    pub recv_overhead: SimDuration,
    /// Cost of a loopback (same-node) message.
    pub local_overhead: SimDuration,
}

impl MeshParams {
    /// Paragon-class parameters: 175 MB/s links, 40 ns/hop routers, ~60 µs
    /// software overhead on each side (OSF/1 message passing was costly).
    pub fn paragon() -> Self {
        MeshParams {
            link_bw: 175e6,
            hop_latency: SimDuration::from_nanos(40),
            send_overhead: SimDuration::from_micros(60),
            recv_overhead: SimDuration::from_micros(60),
            local_overhead: SimDuration::from_micros(15),
        }
    }

    /// Zero-cost transport for unit tests of higher layers.
    pub fn instant() -> Self {
        MeshParams {
            link_bw: f64::INFINITY,
            hop_latency: SimDuration::ZERO,
            send_overhead: SimDuration::ZERO,
            recv_overhead: SimDuration::ZERO,
            local_overhead: SimDuration::ZERO,
        }
    }

    fn wire_time(&self, bytes: u64) -> SimDuration {
        if self.link_bw.is_infinite() || bytes == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::for_bytes(bytes, self.link_bw)
        }
    }
}

/// A delivered message: payload plus its wire-level metadata.
#[derive(Debug)]
pub struct Envelope<M> {
    pub src: NodeId,
    pub wire_bytes: u64,
    pub payload: M,
}

/// Per-mesh traffic counters.
#[derive(Debug, Default, Clone)]
pub struct MeshStats {
    pub messages: u64,
    pub bytes: u64,
    pub max_nic_queue: usize,
    /// Messages lost: injected drops, crash-window drops, and sends to a
    /// receiver that has shut down.
    pub drops: u64,
    /// Messages duplicated by the fault plan.
    pub dups: u64,
    /// Messages delayed by the fault plan.
    pub delays: u64,
    /// Router hops traversed, summed over all non-local messages.
    pub hops: u64,
}

struct MeshInner<M> {
    mailboxes: BTreeMap<NodeId, Sender<Envelope<M>>>,
    stats: MeshStats,
}

/// The interconnect: binds mailboxes and moves typed messages with
/// Paragon-calibrated latency. Clone freely.
pub struct Mesh<M> {
    sim: Sim,
    topo: Topology,
    params: MeshParams,
    nic_tx: Rc<Vec<Semaphore>>,
    faults: FaultPlan,
    inner: Rc<RefCell<MeshInner<M>>>,
    /// Payload+header bytes accepted by the fault plan but not yet landed
    /// in a mailbox; polled live by telemetry gauges.
    inflight_bytes: Rc<Cell<i64>>,
    /// Cumulative NIC-occupancy nanoseconds per source node.
    nic_busy_ns: Rc<Vec<Cell<u64>>>,
}

impl<M> Clone for Mesh<M> {
    fn clone(&self) -> Self {
        Mesh {
            sim: self.sim.clone(),
            topo: self.topo,
            params: self.params.clone(),
            nic_tx: self.nic_tx.clone(),
            faults: self.faults.clone(),
            inner: self.inner.clone(),
            inflight_bytes: self.inflight_bytes.clone(),
            nic_busy_ns: self.nic_busy_ns.clone(),
        }
    }
}

impl<M: Clone + 'static> Mesh<M> {
    /// Build a mesh over `topo` with the given timing parameters.
    pub fn new(sim: &Sim, topo: Topology, params: MeshParams) -> Self {
        let nic_tx = (0..topo.nodes()).map(|_| Semaphore::new(1)).collect();
        let nic_busy_ns = (0..topo.nodes()).map(|_| Cell::new(0u64)).collect();
        Mesh {
            sim: sim.clone(),
            topo,
            params,
            nic_tx: Rc::new(nic_tx),
            faults: sim.faults(),
            inner: Rc::new(RefCell::new(MeshInner {
                mailboxes: BTreeMap::new(),
                stats: MeshStats::default(),
            })),
            inflight_bytes: Rc::new(Cell::new(0)),
            nic_busy_ns: Rc::new(nic_busy_ns),
        }
    }

    /// Claim the mailbox of `node`. Panics if claimed twice: each simulated
    /// node has exactly one receive loop.
    pub fn bind(&self, node: NodeId) -> Receiver<Envelope<M>> {
        let (tx, rx) = channel();
        let prev = self.inner.borrow_mut().mailboxes.insert(node, tx);
        assert!(prev.is_none(), "mailbox for node {} bound twice", node.0);
        rx
    }

    /// Send `payload` (costing `wire_bytes` on the wire) from `src` to
    /// `dst`. Resolves when the sender's NIC is free again — i.e. after the
    /// send overhead and wire time — *not* when the message is delivered;
    /// delivery completes asynchronously after the propagation delay.
    pub async fn send(&self, src: NodeId, dst: NodeId, wire_bytes: u64, payload: M) {
        self.send_tagged(src, dst, wire_bytes, payload, 0).await
    }

    /// [`Mesh::send`] with a trace context: `req` stamps the `NetTx`
    /// (source NIC occupied) and `NetRx` (delivered) flight-recorder
    /// events, so one request's mesh crossings can be picked out of the
    /// stream. `0` records untagged events.
    pub async fn send_tagged(
        &self,
        src: NodeId,
        dst: NodeId,
        wire_bytes: u64,
        payload: M,
        req: ReqId,
    ) {
        let occupancy = if src == dst {
            self.params.local_overhead
        } else {
            self.params.send_overhead + self.params.wire_time(wire_bytes)
        };
        {
            let Some(sem) = self.nic_tx.get(src.0) else {
                // A source outside the topology has no NIC; the frame is
                // lost observably, like a send from a decommissioned node.
                self.sim.emit(|| {
                    ev(
                        Track::Node(src.0 as u16),
                        EventKind::MeshDrop,
                        req,
                        wire_bytes,
                        dst.0 as u64,
                    )
                });
                self.inner.borrow_mut().stats.drops += 1;
                return;
            };
            let guard = sem.acquire().await;
            {
                let mut inner = self.inner.borrow_mut();
                inner.stats.messages += 1;
                inner.stats.bytes += wire_bytes;
                inner.stats.hops += self.topo.hops(src, dst) as u64;
                inner.stats.max_nic_queue = inner.stats.max_nic_queue.max(sem.queue_len());
            }
            self.sim.emit(|| {
                ev(
                    Track::Node(src.0 as u16),
                    EventKind::NetTx,
                    req,
                    wire_bytes,
                    dst.0 as u64,
                )
            });
            self.sim.sleep(occupancy).await;
            if let Some(busy) = self.nic_busy_ns.get(src.0) {
                busy.set(busy.get() + occupancy.as_nanos());
            }
            drop(guard);
        }
        // The message has left the NIC; the fault plan now decides its
        // fate in transit. Verdicts are drawn in NIC-release order, which
        // the executor makes deterministic.
        let mut extra_delay = SimDuration::ZERO;
        let mut copies = 1usize;
        match self
            .faults
            .mesh_verdict(src.0 as u16, dst.0 as u16, self.sim.now())
        {
            MeshVerdict::Deliver => {}
            MeshVerdict::Drop => {
                self.sim.emit(|| {
                    ev(
                        Track::Node(src.0 as u16),
                        EventKind::MeshDrop,
                        req,
                        wire_bytes,
                        dst.0 as u64,
                    )
                });
                self.inner.borrow_mut().stats.drops += 1;
                return;
            }
            MeshVerdict::Duplicate => {
                self.sim.emit(|| {
                    ev(
                        Track::Node(src.0 as u16),
                        EventKind::MeshDup,
                        req,
                        wire_bytes,
                        dst.0 as u64,
                    )
                });
                self.inner.borrow_mut().stats.dups += 1;
                copies = 2;
            }
            MeshVerdict::Delay(d) => {
                self.sim.emit(|| {
                    ev(
                        Track::Node(src.0 as u16),
                        EventKind::MeshDelay,
                        req,
                        d.as_nanos(),
                        dst.0 as u64,
                    )
                });
                self.inner.borrow_mut().stats.delays += 1;
                extra_delay = d;
            }
        }
        let propagation = if src == dst {
            SimDuration::ZERO
        } else {
            self.params.hop_latency * self.topo.hops(src, dst) as u64 + self.params.recv_overhead
        } + extra_delay;
        let mut payloads = Vec::with_capacity(copies);
        for _ in 1..copies {
            payloads.push(payload.clone());
        }
        payloads.push(payload);
        for payload in payloads {
            self.inflight_bytes
                .set(self.inflight_bytes.get() + wire_bytes as i64);
            if propagation.is_zero() {
                self.finish_delivery(src, dst, wire_bytes, req, payload);
            } else {
                let mesh = self.clone();
                let sim = self.sim.clone();
                self.sim.spawn_named("mesh-deliver", async move {
                    sim.sleep(propagation).await;
                    mesh.finish_delivery(src, dst, wire_bytes, req, payload);
                });
            }
        }
    }

    /// The receiver half of a delivery: leave transit accounting, record
    /// the landing, and push into the destination mailbox.
    fn finish_delivery(&self, src: NodeId, dst: NodeId, wire_bytes: u64, req: ReqId, payload: M) {
        self.inflight_bytes
            .set(self.inflight_bytes.get() - wire_bytes as i64);
        self.sim.emit(|| {
            ev(
                Track::Node(dst.0 as u16),
                EventKind::NetRx,
                req,
                wire_bytes,
                src.0 as u64,
            )
        });
        let mailbox = self.inner.borrow().mailboxes.get(&dst).cloned();
        // An unbound destination or a dropped receiver means the node
        // never existed or shut down; either way the frame is lost like
        // on a real NIC — but observably so.
        if mailbox
            .map(|mb| {
                mb.send(Envelope {
                    src,
                    wire_bytes,
                    payload,
                })
            })
            .is_none_or(|r| r.is_err())
        {
            self.sim.emit(|| {
                ev(
                    Track::Node(dst.0 as u16),
                    EventKind::MeshDrop,
                    req,
                    wire_bytes,
                    dst.0 as u64,
                )
            });
            self.inner.borrow_mut().stats.drops += 1;
        }
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> MeshStats {
        self.inner.borrow().stats.clone()
    }

    /// Live bytes-in-transit cell (incremented when a frame leaves the
    /// fault plan, decremented when it lands in — or misses — a mailbox).
    pub fn inflight_bytes_cell(&self) -> Rc<Cell<i64>> {
        self.inflight_bytes.clone()
    }

    /// Cumulative NIC-occupancy nanoseconds, indexed by source node.
    pub fn nic_busy_ns(&self) -> Vec<u64> {
        self.nic_busy_ns.iter().map(Cell::get).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_sim::SimTime;

    fn two_node_mesh(sim: &Sim, params: MeshParams) -> Mesh<u64> {
        Mesh::new(sim, Topology::new(2, 1), params)
    }

    #[test]
    fn message_arrives_with_latency() {
        let sim = Sim::new(1);
        let params = MeshParams {
            link_bw: 1e6,
            hop_latency: SimDuration::from_micros(10),
            send_overhead: SimDuration::from_micros(100),
            recv_overhead: SimDuration::from_micros(50),
            local_overhead: SimDuration::ZERO,
        };
        let mesh = two_node_mesh(&sim, params);
        let mut rx = mesh.bind(NodeId(1));
        let m2 = mesh.clone();
        let s = sim.clone();
        let h = sim.spawn(async move {
            let env = rx.recv().await.unwrap();
            (env.src, env.payload, s.now())
        });
        sim.spawn(async move {
            // 1000 bytes at 1 MB/s = 1 ms wire time.
            m2.send(NodeId(0), NodeId(1), 1000, 7).await;
        });
        sim.run();
        let (src, payload, at) = h.try_take().unwrap();
        assert_eq!(src, NodeId(0));
        assert_eq!(payload, 7);
        // 100 µs send + 1 ms wire + 1 hop × 10 µs + 50 µs recv.
        assert_eq!(
            at,
            SimTime::ZERO + SimDuration::from_micros(100 + 1000 + 10 + 50)
        );
    }

    #[test]
    fn sender_nic_serializes_back_to_back_sends() {
        let sim = Sim::new(1);
        let params = MeshParams {
            link_bw: 1e6,
            hop_latency: SimDuration::ZERO,
            send_overhead: SimDuration::ZERO,
            recv_overhead: SimDuration::ZERO,
            local_overhead: SimDuration::ZERO,
        };
        let mesh = two_node_mesh(&sim, params);
        let mut rx = mesh.bind(NodeId(1));
        let s = sim.clone();
        let h = sim.spawn(async move {
            let mut arrivals = Vec::new();
            for _ in 0..3 {
                let env = rx.recv().await.unwrap();
                arrivals.push((env.payload, s.now().as_millis_round()));
            }
            arrivals
        });
        for i in 0..3u64 {
            let m = mesh.clone();
            sim.spawn(async move {
                m.send(NodeId(0), NodeId(1), 1000, i).await;
            });
        }
        sim.run();
        // Three 1 ms messages through one NIC: arrivals at 1, 2, 3 ms.
        let arrivals = h.try_take().unwrap();
        let times: Vec<u64> = arrivals.iter().map(|&(_, t)| t).collect();
        assert_eq!(times, vec![1, 2, 3]);
    }

    #[test]
    fn same_pair_messages_stay_fifo() {
        let sim = Sim::new(1);
        let mesh = two_node_mesh(&sim, MeshParams::paragon());
        let mut rx = mesh.bind(NodeId(1));
        let h = sim.spawn(async move {
            let mut got = Vec::new();
            for _ in 0..10 {
                got.push(rx.recv().await.unwrap().payload);
            }
            got
        });
        let m = mesh.clone();
        sim.spawn(async move {
            for i in 0..10u64 {
                m.send(NodeId(0), NodeId(1), 64 + i, i).await;
            }
        });
        sim.run();
        assert_eq!(h.try_take(), Some((0..10).collect::<Vec<u64>>()));
    }

    #[test]
    fn local_send_is_cheap_and_delivered() {
        let sim = Sim::new(1);
        let mesh = two_node_mesh(&sim, MeshParams::paragon());
        let mut rx = mesh.bind(NodeId(0));
        let s = sim.clone();
        let h = sim.spawn(async move {
            let env = rx.recv().await.unwrap();
            (env.payload, s.now())
        });
        let m = mesh.clone();
        sim.spawn(async move {
            m.send(NodeId(0), NodeId(0), 1 << 20, 42).await;
        });
        sim.run();
        let (p, at) = h.try_take().unwrap();
        assert_eq!(p, 42);
        assert_eq!(at, SimTime::ZERO + SimDuration::from_micros(15));
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let sim = Sim::new(1);
        let mesh = two_node_mesh(&sim, MeshParams::instant());
        let _rx = mesh.bind(NodeId(1));
        let m = mesh.clone();
        sim.spawn(async move {
            m.send(NodeId(0), NodeId(1), 100, 1).await;
            m.send(NodeId(0), NodeId(1), 200, 2).await;
        });
        sim.run();
        let st = mesh.stats();
        assert_eq!(st.messages, 2);
        assert_eq!(st.bytes, 300);
    }

    #[test]
    fn telemetry_cells_balance_and_count_hops() {
        let sim = Sim::new(1);
        let mesh = two_node_mesh(&sim, MeshParams::paragon());
        let inflight = mesh.inflight_bytes_cell();
        let mut rx = mesh.bind(NodeId(1));
        sim.spawn(async move {
            rx.recv().await.unwrap();
            rx.recv().await.unwrap();
        });
        let m = mesh.clone();
        sim.spawn(async move {
            m.send(NodeId(0), NodeId(1), 4096, 1u64).await;
            m.send(NodeId(0), NodeId(1), 4096, 2u64).await;
        });
        sim.run();
        // Every frame that entered transit also left it.
        assert_eq!(inflight.get(), 0);
        let st = mesh.stats();
        assert_eq!(st.hops, 2); // two messages, one hop each on a 2×1 mesh
        let busy = mesh.nic_busy_ns();
        assert!(busy[0] > 0, "sender NIC accumulated occupancy");
        assert_eq!(busy[1], 0, "receiver NIC sent nothing");
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let sim = Sim::new(1);
        let mesh = two_node_mesh(&sim, MeshParams::instant());
        let _a = mesh.bind(NodeId(0));
        let _b = mesh.bind(NodeId(0));
    }

    #[test]
    fn dead_receiver_drop_is_counted_and_traced() {
        let sim = Sim::new(1);
        let mesh = two_node_mesh(&sim, MeshParams::instant());
        let rx = mesh.bind(NodeId(1));
        drop(rx); // the node "shut down"
        sim.tracer().arm(16);
        let m = mesh.clone();
        sim.spawn(async move {
            m.send(NodeId(0), NodeId(1), 64, 1).await;
        });
        sim.run();
        assert_eq!(mesh.stats().drops, 1);
        assert!(sim
            .tracer()
            .events()
            .iter()
            .any(|e| e.kind == EventKind::MeshDrop));
    }

    #[test]
    fn injected_drop_loses_the_message() {
        let sim = Sim::new(1);
        let mesh = two_node_mesh(&sim, MeshParams::instant());
        let mut rx = mesh.bind(NodeId(1));
        sim.faults().set_mesh_faults(1000, 0, 0, SimDuration::ZERO);
        sim.faults().arm();
        let h = sim.spawn(async move { rx.recv().await });
        let m = mesh.clone();
        sim.spawn(async move {
            m.send(NodeId(0), NodeId(1), 64, 9u64).await;
        });
        sim.run();
        assert!(!h.is_finished(), "dropped message must never arrive");
        assert_eq!(mesh.stats().drops, 1);
        sim.shutdown();
    }

    #[test]
    fn injected_duplicate_delivers_twice() {
        let sim = Sim::new(1);
        let mesh = two_node_mesh(&sim, MeshParams::instant());
        let mut rx = mesh.bind(NodeId(1));
        sim.faults().set_mesh_faults(0, 1000, 0, SimDuration::ZERO);
        sim.faults().arm();
        let h = sim.spawn(async move {
            let a = rx.recv().await.unwrap().payload;
            let b = rx.recv().await.unwrap().payload;
            (a, b)
        });
        let m = mesh.clone();
        sim.spawn(async move {
            m.send(NodeId(0), NodeId(1), 64, 7u64).await;
        });
        sim.run();
        assert_eq!(h.try_take(), Some((7, 7)));
        assert_eq!(mesh.stats().dups, 1);
    }

    #[test]
    fn injected_delay_postpones_delivery() {
        let sim = Sim::new(1);
        let mesh = two_node_mesh(&sim, MeshParams::instant());
        let mut rx = mesh.bind(NodeId(1));
        sim.faults()
            .set_mesh_faults(0, 0, 1000, SimDuration::from_millis(5));
        sim.faults().arm();
        let s = sim.clone();
        let h = sim.spawn(async move {
            rx.recv().await.unwrap();
            s.now()
        });
        let m = mesh.clone();
        sim.spawn(async move {
            m.send(NodeId(0), NodeId(1), 64, 1u64).await;
        });
        sim.run();
        assert_eq!(
            h.try_take(),
            Some(SimTime::ZERO + SimDuration::from_millis(5))
        );
        assert_eq!(mesh.stats().delays, 1);
    }
}
