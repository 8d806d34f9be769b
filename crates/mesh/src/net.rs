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
use std::future::Future;
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
    /// Mailbox senders indexed by node id, up to the highest bound node;
    /// `None` where no node bound one.
    mailboxes: Vec<Option<Sender<Envelope<M>>>>,
    stats: MeshStats,
}

/// The interconnect: binds mailboxes and moves typed messages with
/// Paragon-calibrated latency. Clone freely: a clone is one `Rc` count
/// bump.
pub struct Mesh<M> {
    shared: Rc<Shared<M>>,
}

/// What every clone of a [`Mesh`] shares.
struct Shared<M> {
    sim: Sim,
    topo: Topology,
    params: MeshParams,
    nic_tx: Vec<Semaphore>,
    faults: FaultPlan,
    inner: RefCell<MeshInner<M>>,
    /// Payload+header bytes accepted by the fault plan but not yet landed
    /// in a mailbox; polled live by telemetry gauges.
    inflight_bytes: Rc<Cell<i64>>,
    /// Cumulative NIC-occupancy nanoseconds per source node.
    nic_busy_ns: Vec<Cell<u64>>,
}

impl<M> Clone for Mesh<M> {
    fn clone(&self) -> Self {
        Mesh {
            shared: self.shared.clone(),
        }
    }
}

impl<M: Clone + 'static> Mesh<M> {
    /// Build a mesh over `topo` with the given timing parameters.
    pub fn new(sim: &Sim, topo: Topology, params: MeshParams) -> Self {
        let nic_tx = (0..topo.nodes()).map(|_| Semaphore::new(1)).collect();
        let nic_busy_ns = (0..topo.nodes()).map(|_| Cell::new(0u64)).collect();
        Mesh {
            shared: Rc::new(Shared {
                sim: sim.clone(),
                topo,
                params,
                nic_tx,
                faults: sim.faults(),
                inner: RefCell::new(MeshInner {
                    mailboxes: Vec::new(),
                    stats: MeshStats::default(),
                }),
                inflight_bytes: Rc::new(Cell::new(0)),
                nic_busy_ns,
            }),
        }
    }

    /// Claim the mailbox of `node`. Panics if claimed twice: each simulated
    /// node has exactly one receive loop.
    pub fn bind(&self, node: NodeId) -> Receiver<Envelope<M>> {
        let (tx, rx) = channel();
        let mailboxes = &mut self.shared.inner.borrow_mut().mailboxes;
        if mailboxes.len() <= node.0 {
            mailboxes.resize_with(node.0 + 1, || None);
        }
        let prev = mailboxes.get_mut(node.0).and_then(|slot| slot.replace(tx));
        assert!(prev.is_none(), "mailbox for node {} bound twice", node.0);
        rx
    }

    /// Send `payload` (costing `wire_bytes` on the wire) from `src` to
    /// `dst`. Resolves when the sender's NIC is free again — i.e. after the
    /// send overhead and wire time — *not* when the message is delivered;
    /// delivery completes asynchronously after the propagation delay.
    ///
    /// `req` is the trace context: it stamps the `NetTx` (source NIC
    /// occupied) and `NetRx` (delivered) flight-recorder events, so one
    /// request's mesh crossings can be picked out of the stream. `0`
    /// records untagged events.
    ///
    /// Not an `async fn`: that would store `payload` twice, once as the
    /// argument and once as the body's local.
    pub fn send(
        &self,
        src: NodeId,
        dst: NodeId,
        wire_bytes: u64,
        payload: M,
        req: ReqId,
    ) -> impl Future<Output = ()> + '_ {
        let occupancy = if src == dst {
            self.shared.params.local_overhead
        } else {
            self.shared.params.send_overhead + self.shared.params.wire_time(wire_bytes)
        };
        async move {
            {
                let Some(sem) = self.shared.nic_tx.get(src.0) else {
                    // A source outside the topology has no NIC; the frame is
                    // lost observably, like a send from a decommissioned node.
                    self.shared.sim.emit(|| {
                        ev(
                            Track::Node(src.0 as u16),
                            EventKind::MeshDrop,
                            req,
                            wire_bytes,
                            dst.0 as u64,
                        )
                    });
                    self.shared.inner.borrow_mut().stats.drops += 1;
                    return;
                };
                let guard = sem.acquire().await;
                {
                    let mut inner = self.shared.inner.borrow_mut();
                    inner.stats.messages += 1;
                    inner.stats.bytes += wire_bytes;
                    inner.stats.hops += self.shared.topo.hops(src, dst) as u64;
                }
                self.shared.sim.emit(|| {
                    ev(
                        Track::Node(src.0 as u16),
                        EventKind::NetTx,
                        req,
                        wire_bytes,
                        dst.0 as u64,
                    )
                });
                self.shared.sim.sleep(occupancy).await;
                if let Some(busy) = self.shared.nic_busy_ns.get(src.0) {
                    busy.set(busy.get() + occupancy.as_nanos());
                }
                drop(guard);
            }
            // The message has left the NIC; the fault plan now decides its
            // fate in transit. Verdicts are drawn in NIC-release order, which
            // the executor makes deterministic.
            let mut extra_delay = SimDuration::ZERO;
            let mut duplicate = false;
            match self
                .shared
                .faults
                .mesh_verdict(src.0 as u16, dst.0 as u16, self.shared.sim.now())
            {
                MeshVerdict::Deliver => {}
                MeshVerdict::Drop => {
                    self.shared.sim.emit(|| {
                        ev(
                            Track::Node(src.0 as u16),
                            EventKind::MeshDrop,
                            req,
                            wire_bytes,
                            dst.0 as u64,
                        )
                    });
                    self.shared.inner.borrow_mut().stats.drops += 1;
                    return;
                }
                MeshVerdict::Duplicate => {
                    self.shared.sim.emit(|| {
                        ev(
                            Track::Node(src.0 as u16),
                            EventKind::MeshDup,
                            req,
                            wire_bytes,
                            dst.0 as u64,
                        )
                    });
                    self.shared.inner.borrow_mut().stats.dups += 1;
                    duplicate = true;
                }
                MeshVerdict::Delay(d) => {
                    self.shared.sim.emit(|| {
                        ev(
                            Track::Node(src.0 as u16),
                            EventKind::MeshDelay,
                            req,
                            d.as_nanos(),
                            dst.0 as u64,
                        )
                    });
                    self.shared.inner.borrow_mut().stats.delays += 1;
                    extra_delay = d;
                }
            }
            let propagation = if src == dst {
                SimDuration::ZERO
            } else {
                self.shared.params.hop_latency * self.shared.topo.hops(src, dst) as u64
                    + self.shared.params.recv_overhead
            } + extra_delay;
            let copy = duplicate.then(|| payload.clone());
            for payload in copy.into_iter().chain([payload]) {
                self.shared
                    .inflight_bytes
                    .set(self.shared.inflight_bytes.get() + wire_bytes as i64);
                if propagation.is_zero() {
                    self.finish_delivery(src, dst, wire_bytes, req, payload);
                } else {
                    let mesh = self.clone();
                    self.shared.sim.spawn_named("mesh-deliver", async move {
                        mesh.shared.sim.sleep(propagation).await;
                        mesh.finish_delivery(src, dst, wire_bytes, req, payload);
                    });
                }
            }
        }
    }

    /// The receiver half of a delivery: leave transit accounting, record
    /// the landing, and push into the destination mailbox.
    fn finish_delivery(&self, src: NodeId, dst: NodeId, wire_bytes: u64, req: ReqId, payload: M) {
        self.shared
            .inflight_bytes
            .set(self.shared.inflight_bytes.get() - wire_bytes as i64);
        self.shared.sim.emit(|| {
            ev(
                Track::Node(dst.0 as u16),
                EventKind::NetRx,
                req,
                wire_bytes,
                src.0 as u64,
            )
        });
        let envelope = Envelope {
            src,
            wire_bytes,
            payload,
        };
        // An unbound destination or a dropped receiver means the node
        // never existed or shut down; either way the frame is lost like
        // on a real NIC — but observably so. The lost envelope is
        // dropped only after the table's borrow ends.
        let lost = match self.shared.inner.borrow().mailboxes.get(dst.0) {
            Some(Some(mailbox)) => mailbox.send(envelope).err(),
            _ => Some(envelope),
        };
        if lost.is_some() {
            self.shared.sim.emit(|| {
                ev(
                    Track::Node(dst.0 as u16),
                    EventKind::MeshDrop,
                    req,
                    wire_bytes,
                    dst.0 as u64,
                )
            });
            self.shared.inner.borrow_mut().stats.drops += 1;
        }
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> MeshStats {
        self.shared.inner.borrow().stats.clone()
    }

    /// Live bytes-in-transit cell (incremented when a frame leaves the
    /// fault plan, decremented when it lands in — or misses — a mailbox).
    pub fn inflight_bytes_cell(&self) -> Rc<Cell<i64>> {
        self.shared.inflight_bytes.clone()
    }

    /// Cumulative NIC-occupancy nanoseconds, indexed by source node.
    pub fn nic_busy_ns(&self) -> Vec<u64> {
        self.shared.nic_busy_ns.iter().map(Cell::get).collect()
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
            m2.send(NodeId(0), NodeId(1), 1000, 7, 0).await;
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
                m.send(NodeId(0), NodeId(1), 1000, i, 0).await;
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
                m.send(NodeId(0), NodeId(1), 64 + i, i, 0).await;
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
            m.send(NodeId(0), NodeId(0), 1 << 20, 42, 0).await;
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
            m.send(NodeId(0), NodeId(1), 100, 1, 0).await;
            m.send(NodeId(0), NodeId(1), 200, 2, 0).await;
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
            m.send(NodeId(0), NodeId(1), 4096, 1u64, 0).await;
            m.send(NodeId(0), NodeId(1), 4096, 2u64, 0).await;
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
            m.send(NodeId(0), NodeId(1), 64, 1, 0).await;
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
    fn unbound_destination_drop_is_counted_and_traced() {
        // Node 2's mailbox sizes the table at three slots: node 1 has a
        // slot it never filled, and node 3 lies past the table's end.
        let sim = Sim::new(1);
        let mesh: Mesh<u64> = Mesh::new(&sim, Topology::new(2, 2), MeshParams::instant());
        let _rx = mesh.bind(NodeId(2));
        sim.tracer().arm(16);
        for dst in [1, 3] {
            let m = mesh.clone();
            sim.spawn(async move {
                m.send(NodeId(0), NodeId(dst), 64, 1, 0).await;
            });
        }
        sim.run();
        assert_eq!(mesh.stats().drops, 2);
        let dropped: Vec<Track> = sim
            .tracer()
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::MeshDrop)
            .map(|e| e.track)
            .collect();
        assert_eq!(dropped, vec![Track::Node(1), Track::Node(3)]);
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
            m.send(NodeId(0), NodeId(1), 64, 9u64, 0).await;
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
            m.send(NodeId(0), NodeId(1), 64, 7u64, 0).await;
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
            m.send(NodeId(0), NodeId(1), 64, 1u64, 0).await;
        });
        sim.run();
        assert_eq!(
            h.try_take(),
            Some(SimTime::ZERO + SimDuration::from_millis(5))
        );
        assert_eq!(mesh.stats().delays, 1);
    }
}
