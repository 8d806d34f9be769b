//! Typed request/reply messaging over the mesh.
//!
//! The Paragon OS server structure is client/server message passing: a
//! compute node sends a request message to an I/O or service node and the
//! reply (including any file data) comes back over the mesh. Both legs pay
//! the mesh timing model — software send/receive overheads plus wire time
//! proportional to the payload, so a 1 MB read reply really does occupy
//! the I/O node's NIC for 1 MB worth of link time.
//!
//! One [`RpcNet`] is built per machine; each node claims its single
//! mailbox either as a [`RpcClient`] (compute nodes) or by installing a
//! server handler with [`RpcNet::serve`] (I/O and service nodes).

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::ops::Deref;
use std::rc::Rc;

use paragon_mesh::{Mesh, MeshParams, MeshStats, NodeId, Topology};
use paragon_sim::sync::ReplyTable;
use paragon_sim::{ev, EventKind, ReqId, Sim, SimDuration, Track};

/// Types that know their size on the wire. Headers are added by the RPC
/// layer; implementations report payload bytes only.
pub trait WireSize {
    /// Serialized payload size in bytes.
    fn wire_bytes(&self) -> u64;

    /// Flight-recorder request id this message belongs to (`0` =
    /// untagged). The RPC layer stamps it on the mesh's NetTx/NetRx
    /// events; a reply inherits the tag of the call it answers.
    fn trace_req(&self) -> ReqId {
        0
    }
}

/// Fixed per-message header cost (routing, request ids, lengths).
pub(crate) const RPC_HEADER_BYTES: u64 = 64;

#[derive(Clone)]
enum RpcWire<Req, Resp> {
    Call { id: u64, reply_to: NodeId, req: Req },
    Reply { id: u64, resp: Resp },
}

/// Why an RPC failed. Healthy fabrics never produce these; they exist so
/// injected faults surface as values instead of hangs or panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// No reply arrived within the attempt deadline.
    Timeout,
    /// The reply path was torn down (server task gone, endpoint dropped).
    Dropped,
    /// Every attempt allowed by the retry policy failed.
    TooManyRetries {
        /// Attempts made (initial call + retries).
        attempts: u32,
    },
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Timeout => write!(f, "rpc timed out"),
            RpcError::Dropped => write!(f, "rpc reply path dropped"),
            RpcError::TooManyRetries { attempts } => {
                write!(f, "rpc failed after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for RpcError {}

/// Deadline and retry discipline for [`RpcClient::call_policy`].
///
/// Each attempt is given `attempt_timeout`; a failed attempt waits
/// `backoff × attempt-number` (deterministic linear backoff) before the
/// next. `retries == 0` means a single attempt whose failure is returned
/// as-is; with retries, exhaustion maps to [`RpcError::TooManyRetries`].
///
/// Only idempotent requests should be retried: a timed-out attempt may
/// still have executed on the server (the reply is discarded, the
/// side effect is not undone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RpcPolicy {
    /// Deadline per attempt. `None` waits forever (no retries fire).
    pub attempt_timeout: Option<SimDuration>,
    /// Extra attempts after the first failure.
    pub retries: u32,
    /// Base backoff; attempt `n`'s failure waits `backoff × n`.
    pub backoff: SimDuration,
}

impl Default for RpcPolicy {
    fn default() -> Self {
        RpcPolicy {
            attempt_timeout: None,
            retries: 0,
            backoff: SimDuration::ZERO,
        }
    }
}

impl RpcPolicy {
    /// `retries` extra attempts with a `timeout` deadline each and
    /// `backoff` linear backoff between them.
    pub fn with_retries(timeout: SimDuration, retries: u32, backoff: SimDuration) -> Self {
        RpcPolicy {
            attempt_timeout: Some(timeout),
            retries,
            backoff,
        }
    }
}

/// Counters for one RPC network.
#[derive(Debug, Default, Clone)]
pub struct RpcStats {
    pub calls: u64,
    pub replies: u64,
    /// Attempts abandoned on their deadline.
    pub timeouts: u64,
    /// Retries issued after a failed attempt.
    pub retries: u64,
    /// Calls that exhausted their retry policy.
    pub give_ups: u64,
    /// Frames of the wrong kind for their endpoint (a Call delivered to
    /// a client, a Reply delivered to a server); dropped on the floor.
    pub misrouted: u64,
}

/// The machine-wide RPC fabric. Clone freely.
pub struct RpcNet<Req, Resp> {
    sim: Sim,
    mesh: Mesh<RpcWire<Req, Resp>>,
    stats: Rc<RefCell<RpcStats>>,
}

impl<Req, Resp> Clone for RpcNet<Req, Resp> {
    fn clone(&self) -> Self {
        RpcNet {
            sim: self.sim.clone(),
            mesh: self.mesh.clone(),
            stats: self.stats.clone(),
        }
    }
}

impl<Req, Resp> RpcNet<Req, Resp>
where
    Req: WireSize + Clone + 'static,
    Resp: WireSize + Clone + 'static,
{
    /// Build the fabric over `topo`.
    pub fn new(sim: &Sim, topo: Topology, params: MeshParams) -> Self {
        RpcNet {
            sim: sim.clone(),
            mesh: Mesh::new(sim, topo, params),
            stats: Rc::new(RefCell::new(RpcStats::default())),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> RpcStats {
        self.stats.borrow().clone()
    }

    /// Transport-layer traffic counters from the underlying mesh.
    pub fn mesh_stats(&self) -> MeshStats {
        self.mesh.stats()
    }

    /// Live bytes-in-transit cell from the underlying mesh, for
    /// telemetry gauges.
    pub fn inflight_bytes_cell(&self) -> Rc<Cell<i64>> {
        self.mesh.inflight_bytes_cell()
    }

    /// Cumulative NIC-occupancy nanoseconds, indexed by node.
    pub fn nic_busy_ns(&self) -> Vec<u64> {
        self.mesh.nic_busy_ns()
    }

    /// Claim `node`'s mailbox as a client endpoint. Spawns the node's
    /// receive loop, which routes replies to their waiting callers. When
    /// the loop ends, its calls fail with [`RpcError::Dropped`].
    pub fn client(&self, node: NodeId) -> RpcClient<Req, Resp> {
        let mut rx = self.mesh.bind(node);
        let replies = Rc::new(ReplyTable::new());
        let table = replies.clone();
        let stats = self.stats.clone();
        self.sim.spawn_named("rpc-client-rx", async move {
            let _close = table.close_on_drop();
            while let Some(env) = rx.recv().await {
                match env.payload {
                    RpcWire::Reply { id, resp } => {
                        // `Err`: the caller timed out and gave up the
                        // call, or this is a duplicate of a reply that
                        // arrived; it is discarded.
                        let _ = table.reply(id, resp);
                    }
                    RpcWire::Call { .. } => {
                        // A client endpoint cannot serve calls; the frame
                        // is dropped and counted, never answered.
                        stats.borrow_mut().misrouted += 1;
                    }
                }
            }
        });
        RpcClient(Rc::new(Endpoint {
            net: self.clone(),
            node,
            replies,
            next_id: Cell::new(0),
        }))
    }

    /// Install `handler` as `node`'s server. Each incoming call runs as its
    /// own task (the Paragon OS server was multithreaded), so one slow disk
    /// request does not head-of-line-block the rest.
    pub fn serve<H, F>(&self, node: NodeId, handler: H)
    where
        H: Fn(NodeId, Req) -> F + 'static,
        F: Future<Output = Resp> + 'static,
    {
        let mut rx = self.mesh.bind(node);
        let net = self.clone();
        let handler = Rc::new(handler);
        self.sim.spawn_named("rpc-server", async move {
            while let Some(env) = rx.recv().await {
                match env.payload {
                    RpcWire::Call { id, reply_to, req } => {
                        // The reply rides under the request's trace tag —
                        // capture it before the request moves into the
                        // handler.
                        let tag = req.trace_req();
                        let src = env.src;
                        let handler = handler.clone();
                        let net2 = net.clone();
                        net.sim.spawn_named("rpc-handler", async move {
                            // Built here, not in the server loop, so the
                            // handler's future and the reply's send share
                            // the task's storage instead of adding up.
                            let resp = handler(src, req).await;
                            net2.stats.borrow_mut().replies += 1;
                            let bytes = resp.wire_bytes() + RPC_HEADER_BYTES;
                            net2.mesh
                                .send(node, reply_to, bytes, RpcWire::Reply { id, resp }, tag)
                                .await;
                        });
                    }
                    RpcWire::Reply { .. } => {
                        // A server endpoint never issued a call; the stray
                        // reply is dropped and counted.
                        net.stats.borrow_mut().misrouted += 1;
                    }
                }
            }
        });
    }
}

/// A node's client endpoint; issue calls with [`RpcClient::call`].
/// Clone freely: a clone is one `Rc` count bump.
pub struct RpcClient<Req, Resp>(Rc<Endpoint<Req, Resp>>);

/// What every clone of an [`RpcClient`] shares, reached through its
/// `Deref`; the fields stay private to this module.
pub struct Endpoint<Req, Resp> {
    net: RpcNet<Req, Resp>,
    node: NodeId,
    /// The calls awaiting replies, keyed by call id. A call abandoned
    /// before its reply (the attempt timed out, or the fabric lost the
    /// call or the reply) leaves it, so a late reply wakes nobody.
    replies: Rc<ReplyTable<Resp>>,
    next_id: Cell<u64>,
}

impl<Req, Resp> Deref for RpcClient<Req, Resp> {
    type Target = Endpoint<Req, Resp>;
    fn deref(&self) -> &Endpoint<Req, Resp> {
        &self.0
    }
}

impl<Req, Resp> Clone for RpcClient<Req, Resp> {
    fn clone(&self) -> Self {
        RpcClient(self.0.clone())
    }
}

impl<Req, Resp> RpcClient<Req, Resp>
where
    Req: WireSize + Clone + 'static,
    Resp: WireSize + Clone + 'static,
{
    /// Send `req` to `dst` and wait for its reply. No deadline: if the
    /// fabric loses the call or the reply, this waits forever (the run
    /// report will show the unfinished task). `Err(Dropped)` means the
    /// reply path was torn down: the endpoint's receive loop ended.
    ///
    /// Not an `async fn`: that would store `req` twice, once as the
    /// argument and once as the body's local.
    pub fn call(&self, dst: NodeId, req: Req) -> impl Future<Output = Result<Resp, RpcError>> + '_ {
        let node = self.node;
        async move {
            if self.replies.is_closed() {
                return Err(RpcError::Dropped);
            }
            let id = self.next_id.get();
            self.next_id.set(id + 1);
            let reply = self.replies.expect(id);
            self.net.stats.borrow_mut().calls += 1;
            let bytes = req.wire_bytes() + RPC_HEADER_BYTES;
            let tag = req.trace_req();
            let call = RpcWire::Call {
                id,
                reply_to: node,
                req,
            };
            self.net.mesh.send(node, dst, bytes, call, tag).await;
            reply.await.map_err(|_| RpcError::Dropped)
        }
    }

    /// [`RpcClient::call`] under a deadline/retry `policy`. Each failed
    /// attempt emits an [`EventKind::RpcRetry`] flight-recorder event;
    /// exhausting the policy emits [`EventKind::RpcGiveUp`]. Only use
    /// with idempotent requests — see [`RpcPolicy`].
    ///
    /// The future owns a clone of this endpoint, so it can be spawned as
    /// is. It holds the request and one attempt; everything a failed
    /// attempt needs (counting, backoff, the give-up) is in a boxed
    /// future built only when an attempt fails.
    pub fn call_policy(
        &self,
        dst: NodeId,
        req: Req,
        policy: RpcPolicy,
    ) -> impl Future<Output = Result<Resp, RpcError>> + 'static {
        let this = self.clone();
        async move {
            let mut attempt = 1;
            loop {
                let outcome = match policy.attempt_timeout {
                    Some(d) => {
                        let one = this.call(dst, req.clone());
                        let sim = &this.net.sim;
                        sim.timeout(d, one).await.unwrap_or(Err(RpcError::Timeout))
                    }
                    None => this.call(dst, req.clone()).await,
                };
                match outcome {
                    Ok(resp) => return Ok(resp),
                    Err(e) => Box::pin(this.after_failure(dst, &req, policy, attempt, e)).await?,
                }
                attempt += 1;
            }
        }
    }

    /// Attempt number `attempt` of a [`RpcClient::call_policy`] call
    /// failed with `err`: count it, then wait out the backoff before the
    /// next attempt (`Ok`), or give up with the call's error (`Err`).
    async fn after_failure(
        &self,
        dst: NodeId,
        req: &Req,
        policy: RpcPolicy,
        attempt: u32,
        err: RpcError,
    ) -> Result<(), RpcError> {
        let sim = &self.net.sim;
        let tag = req.trace_req();
        let track = Track::Node(self.node.0 as u16);
        let max_attempts = policy.retries + 1;
        if err == RpcError::Timeout {
            self.net.stats.borrow_mut().timeouts += 1;
        }
        if attempt < max_attempts {
            self.net.stats.borrow_mut().retries += 1;
            sim.emit(|| {
                ev(
                    track,
                    EventKind::RpcRetry,
                    tag,
                    attempt as u64,
                    dst.0 as u64,
                )
            });
            sim.sleep(policy.backoff * attempt as u64).await;
            return Ok(());
        }
        self.net.stats.borrow_mut().give_ups += 1;
        sim.emit(|| {
            ev(
                track,
                EventKind::RpcGiveUp,
                tag,
                max_attempts as u64,
                dst.0 as u64,
            )
        });
        if max_attempts > 1 {
            Err(RpcError::TooManyRetries {
                attempts: max_attempts,
            })
        } else {
            Err(err)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_sim::SimDuration;

    #[derive(Debug, Clone, PartialEq)]
    struct Ping(u64);
    #[derive(Debug, Clone, PartialEq)]
    struct Pong(u64, Vec<u8>);

    impl WireSize for Ping {
        fn wire_bytes(&self) -> u64 {
            8
        }
    }
    impl WireSize for Pong {
        fn wire_bytes(&self) -> u64 {
            8 + self.1.len() as u64
        }
    }

    fn net(sim: &Sim, params: MeshParams) -> RpcNet<Ping, Pong> {
        RpcNet::new(sim, Topology::new(3, 1), params)
    }

    #[test]
    fn call_reply_roundtrip() {
        let sim = Sim::new(1);
        let net = net(&sim, MeshParams::instant());
        net.serve(NodeId(1), |_src, Ping(x)| async move {
            Pong(x * 2, vec![0; 16])
        });
        let client = net.client(NodeId(0));
        let h = sim.spawn(async move { client.call(NodeId(1), Ping(21)).await.unwrap().0 });
        sim.run_until(paragon_sim::SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(h.try_take(), Some(42));
        let st = net.stats();
        assert_eq!((st.calls, st.replies), (1, 1));
        sim.shutdown();
    }

    #[test]
    fn reply_data_pays_wire_time() {
        let sim = Sim::new(1);
        let params = MeshParams {
            link_bw: 1e6, // 1 MB/s so a 1 MB reply costs ~1 s
            hop_latency: SimDuration::ZERO,
            send_overhead: SimDuration::ZERO,
            recv_overhead: SimDuration::ZERO,
            local_overhead: SimDuration::ZERO,
        };
        let net = net(&sim, params);
        net.serve(NodeId(1), |_src, Ping(x)| async move {
            Pong(x, vec![7; 1_000_000])
        });
        let client = net.client(NodeId(0));
        let s = sim.clone();
        let h = sim.spawn(async move {
            client.call(NodeId(1), Ping(0)).await.unwrap();
            s.now().as_millis_round()
        });
        sim.run_until(paragon_sim::SimTime::ZERO + SimDuration::from_secs(10));
        let ms = h.try_take().unwrap();
        assert!((1000..1100).contains(&ms), "reply took {ms} ms");
        sim.shutdown();
    }

    #[test]
    fn concurrent_calls_are_demultiplexed() {
        let sim = Sim::new(1);
        let net = net(&sim, MeshParams::instant());
        let s = sim.clone();
        // Handler finishes in *reverse* arrival order to stress the
        // pending-call routing.
        net.serve(NodeId(1), move |_src, Ping(x)| {
            let s = s.clone();
            async move {
                s.sleep(SimDuration::from_millis(100 - x * 10)).await;
                Pong(x + 100, Vec::new())
            }
        });
        let client = net.client(NodeId(0));
        let mut handles = Vec::new();
        for x in 0..5u64 {
            let c = client.clone();
            handles.push(sim.spawn(async move { c.call(NodeId(1), Ping(x)).await.unwrap().0 }));
        }
        sim.run_until(paragon_sim::SimTime::ZERO + SimDuration::from_secs(1));
        let got: Vec<u64> = handles.iter().map(|h| h.try_take().unwrap()).collect();
        assert_eq!(got, vec![100, 101, 102, 103, 104]);
        sim.shutdown();
    }

    #[test]
    fn two_servers_one_client() {
        let sim = Sim::new(1);
        let net = net(&sim, MeshParams::instant());
        net.serve(
            NodeId(1),
            |_s, Ping(x)| async move { Pong(x + 1, Vec::new()) },
        );
        net.serve(
            NodeId(2),
            |_s, Ping(x)| async move { Pong(x + 2, Vec::new()) },
        );
        let client = net.client(NodeId(0));
        let h = sim.spawn(async move {
            let a = client.call(NodeId(1), Ping(0)).await.unwrap().0;
            let b = client.call(NodeId(2), Ping(0)).await.unwrap().0;
            (a, b)
        });
        sim.run_until(paragon_sim::SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(h.try_take(), Some((1, 2)));
        sim.shutdown();
    }

    #[test]
    fn retry_policy_rides_out_a_crash_window() {
        let sim = Sim::new(1);
        let t0 = paragon_sim::SimTime::ZERO;
        // Node 1 is down for the first 60 ms: calls sent in the window
        // vanish. The third attempt (t = 70 ms) lands after the restart.
        let faults = sim.faults();
        faults.crash_node(1, t0, t0 + SimDuration::from_millis(60));
        faults.arm();
        let net = net(&sim, MeshParams::instant());
        net.serve(
            NodeId(1),
            |_src, Ping(x)| async move { Pong(x * 2, Vec::new()) },
        );
        let client = net.client(NodeId(0));
        let policy = RpcPolicy::with_retries(
            SimDuration::from_millis(20),
            5,
            SimDuration::from_millis(10),
        );
        let h = sim.spawn(async move {
            client
                .call_policy(NodeId(1), Ping(21), policy)
                .await
                .map(|p| p.0)
        });
        sim.run_until(t0 + SimDuration::from_secs(2));
        assert_eq!(h.try_take(), Some(Ok(42)));
        let st = net.stats();
        assert_eq!(st.timeouts, 2, "two attempts died in the window");
        assert_eq!(st.retries, 2);
        assert_eq!(st.give_ups, 0);
        sim.shutdown();
    }

    #[test]
    fn exhausted_policy_gives_up_with_too_many_retries() {
        let sim = Sim::new(1);
        let t0 = paragon_sim::SimTime::ZERO;
        let faults = sim.faults();
        faults.crash_node(1, t0, t0 + SimDuration::from_secs(100));
        faults.arm();
        let net = net(&sim, MeshParams::instant());
        net.serve(
            NodeId(1),
            |_src, Ping(x)| async move { Pong(x, Vec::new()) },
        );
        let client = net.client(NodeId(0));
        let policy =
            RpcPolicy::with_retries(SimDuration::from_millis(5), 2, SimDuration::from_millis(1));
        let caller = client.clone();
        let h = sim.spawn(async move { caller.call_policy(NodeId(1), Ping(0), policy).await });
        sim.run_until(t0 + SimDuration::from_secs(1));
        assert_eq!(
            h.try_take(),
            Some(Err(RpcError::TooManyRetries { attempts: 3 }))
        );
        assert_eq!(net.stats().give_ups, 1);
        // Every abandoned attempt gave its reply entry back.
        assert_eq!(client.replies.awaited(), 0);
        sim.shutdown();
    }

    #[test]
    fn a_duplicated_reply_is_discarded() {
        // Every frame is duplicated: a call runs twice on the server and
        // four replies come back for it (three duplicates per call). The
        // first answers the call; the other three find no waiter.
        let sim = Sim::new(1);
        let faults = sim.faults();
        faults.set_mesh_faults(0, 1000, 0, SimDuration::ZERO);
        faults.arm();
        let net = net(&sim, MeshParams::paragon());
        net.serve(
            NodeId(1),
            |_src, Ping(x)| async move { Pong(x + 1, Vec::new()) },
        );
        let client = net.client(NodeId(0));
        let caller = client.clone();
        let h = sim.spawn(async move {
            let a = caller.call(NodeId(1), Ping(10)).await.unwrap().0;
            let b = caller.call(NodeId(1), Ping(20)).await.unwrap().0;
            (a, b)
        });
        sim.run();
        assert_eq!(h.try_take(), Some((11, 21)));
        assert_eq!(net.stats().replies, 4, "each call ran twice");
        assert_eq!(net.mesh_stats().dups, 6);
        assert_eq!(client.replies.awaited(), 0);
        sim.shutdown();
    }

    /// Polls of a caller that times out on a server answering after
    /// `answer_in`, then sleeps on past the answer.
    fn polls_of_a_timed_out_caller(
        answer_in: SimDuration,
    ) -> (u32, Option<Result<Pong, RpcError>>) {
        let sim = Sim::new(1);
        let net = net(&sim, MeshParams::paragon());
        let s = sim.clone();
        net.serve(NodeId(1), move |_src, Ping(x)| {
            let s = s.clone();
            async move {
                s.sleep(answer_in).await;
                Pong(x, Vec::new())
            }
        });
        let client = net.client(NodeId(0));
        let policy = RpcPolicy {
            attempt_timeout: Some(SimDuration::from_millis(10)),
            retries: 0,
            backoff: SimDuration::ZERO,
        };
        let polls = Rc::new(Cell::new(0u32));
        let (p, s) = (polls.clone(), sim.clone());
        let mut caller = Box::pin(async move {
            let outcome = client.call_policy(NodeId(1), Ping(0), policy).await;
            s.sleep(SimDuration::from_secs(1)).await;
            outcome
        });
        let h = sim.spawn(std::future::poll_fn(move |cx| {
            p.set(p.get() + 1);
            caller.as_mut().poll(cx)
        }));
        sim.run_until(paragon_sim::SimTime::ZERO + SimDuration::from_secs(2));
        let answered = net.stats().replies;
        sim.shutdown();
        assert_eq!(answered, u64::from(answer_in < SimDuration::from_secs(1)));
        (polls.get(), h.try_take())
    }

    #[test]
    fn a_late_reply_after_a_timeout_wakes_nobody() {
        // The reply 50 ms in lands while the caller sleeps; one 10 s in
        // never comes within the run. The caller is polled the same
        // number of times either way.
        let late = polls_of_a_timed_out_caller(SimDuration::from_millis(50));
        let never = polls_of_a_timed_out_caller(SimDuration::from_secs(10));
        assert_eq!(late.1, Some(Err(RpcError::Timeout)));
        assert_eq!(late, never);
    }

    #[test]
    fn a_torn_down_endpoint_fails_its_calls_with_dropped() {
        // The caller runs in a world of its own; tearing down the
        // fabric's world drops the endpoint's receive loop (and the
        // server, which never answers) while the call waits.
        let sim = Sim::new(1);
        let net = net(&sim, MeshParams::instant());
        net.serve(NodeId(1), |_src, _ping| std::future::pending::<Pong>());
        let client = net.client(NodeId(0));
        let world = Sim::new(2);
        let caller = client.clone();
        let h = world.spawn(async move {
            let waiting = caller.call(NodeId(1), Ping(0)).await;
            let after = caller.call(NodeId(1), Ping(1)).await;
            (waiting, after)
        });
        // Alternate the worlds until the call sits on the server.
        let t = |ms| paragon_sim::SimTime::ZERO + SimDuration::from_millis(ms);
        world.run();
        sim.run_until(t(1));
        world.run();
        sim.run_until(t(2));
        assert_eq!((net.stats().calls, client.replies.awaited()), (1, 1));
        assert!(!h.is_finished());
        sim.shutdown();
        world.run();
        // The waiting call fails, and so does a call made afterwards,
        // without reaching the mesh.
        assert_eq!(
            h.try_take(),
            Some((Err(RpcError::Dropped), Err(RpcError::Dropped)))
        );
        assert_eq!(net.stats().calls, 1);
    }

    #[test]
    fn single_attempt_timeout_reports_timeout_not_retries() {
        let sim = Sim::new(1);
        let t0 = paragon_sim::SimTime::ZERO;
        let faults = sim.faults();
        faults.crash_node(1, t0, t0 + SimDuration::from_secs(100));
        faults.arm();
        let net = net(&sim, MeshParams::instant());
        net.serve(
            NodeId(1),
            |_src, Ping(x)| async move { Pong(x, Vec::new()) },
        );
        let client = net.client(NodeId(0));
        let policy = RpcPolicy {
            attempt_timeout: Some(SimDuration::from_millis(5)),
            retries: 0,
            backoff: SimDuration::ZERO,
        };
        let h = sim.spawn(async move { client.call_policy(NodeId(1), Ping(0), policy).await });
        sim.run_until(t0 + SimDuration::from_secs(1));
        assert_eq!(h.try_take(), Some(Err(RpcError::Timeout)));
        sim.shutdown();
    }
}
