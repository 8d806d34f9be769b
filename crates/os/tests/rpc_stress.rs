//! RPC fabric under load and cancellation: many clients against many
//! servers, timed-out calls, and ART/RPC composition.

use paragon_mesh::{MeshParams, NodeId, Topology};
use paragon_os::{ArtConfig, ArtPool, RpcNet, WireSize};
use paragon_sim::{Sim, SimDuration, SimTime, Track};

#[derive(Debug, Clone)]
struct Req(u64);
#[derive(Debug, Clone)]
struct Resp(u64);

impl WireSize for Req {
    fn wire_bytes(&self) -> u64 {
        8
    }
}
impl WireSize for Resp {
    fn wire_bytes(&self) -> u64 {
        8
    }
}

#[test]
fn all_pairs_heavy_traffic() {
    // 4 clients × 4 servers × 32 calls each; every reply must route back
    // to exactly its caller.
    let sim = Sim::new(11);
    let net: RpcNet<Req, Resp> = RpcNet::new(&sim, Topology::new(8, 1), MeshParams::paragon());
    for s in 4..8usize {
        let sim2 = sim.clone();
        net.serve(NodeId(s), move |src, Req(x)| {
            let sim2 = sim2.clone();
            async move {
                // Delay keyed on content so replies interleave heavily.
                sim2.sleep(SimDuration::from_micros(997 - (x % 997))).await;
                Resp(x * 1000 + src.0 as u64)
            }
        });
    }
    let mut handles = Vec::new();
    for c in 0..4usize {
        let client = net.client(NodeId(c));
        for k in 0..32u64 {
            let client = client.clone();
            let dst = NodeId(4 + ((c as u64 + k) % 4) as usize);
            let x = c as u64 * 100 + k;
            handles.push((
                x,
                c,
                sim.spawn(async move { client.call(dst, Req(x)).await.unwrap().0 }),
            ));
        }
    }
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    for (x, c, h) in handles {
        assert_eq!(
            h.try_take(),
            Some(x * 1000 + c as u64),
            "call {x} misrouted"
        );
    }
    let st = net.stats();
    assert_eq!(st.calls, 128);
    assert_eq!(st.replies, 128);
}

#[test]
fn timed_out_call_discards_late_reply() {
    let sim = Sim::new(12);
    let net: RpcNet<Req, Resp> = RpcNet::new(&sim, Topology::new(2, 1), MeshParams::instant());
    let sim2 = sim.clone();
    net.serve(NodeId(1), move |_src, Req(x)| {
        let sim2 = sim2.clone();
        async move {
            sim2.sleep(SimDuration::from_secs(10)).await; // too slow
            Resp(x)
        }
    });
    let client = net.client(NodeId(0));
    let sim3 = sim.clone();
    let h = sim.spawn(async move {
        // First call times out…
        let timed_out = sim3
            .timeout(SimDuration::from_secs(1), client.call(NodeId(1), Req(1)))
            .await
            .is_none();
        // …and the fabric keeps working for later calls (the stale reply
        // at t=10 s must not crash the router or leak into this call).
        let v = client.call(NodeId(1), Req(2)).await.unwrap().0;
        (timed_out, v)
    });
    let report = sim.run_until(SimTime::ZERO + SimDuration::from_secs(60));
    assert_eq!(h.try_take(), Some((true, 2)));
    // Sanity: the run got past the slow handler's 10 s sleep.
    assert!(report.end_time >= SimTime::ZERO + SimDuration::from_secs(10));
}

#[test]
fn art_submitted_rpcs_overlap_with_user_work() {
    // The composition the PFS client uses: an asynchronous read is an RPC
    // submitted through the ART pool, overlapping the user thread.
    let sim = Sim::new(13);
    let net: RpcNet<Req, Resp> = RpcNet::new(&sim, Topology::new(2, 1), MeshParams::instant());
    let sim2 = sim.clone();
    net.serve(NodeId(1), move |_src, Req(x)| {
        let sim2 = sim2.clone();
        async move {
            sim2.sleep(SimDuration::from_millis(40)).await; // "the disk"
            Resp(x + 1)
        }
    });
    let client = net.client(NodeId(0));
    let pool = ArtPool::new(&sim, ArtConfig::instant());
    let sim3 = sim.clone();
    let h = sim.spawn(async move {
        let c = client.clone();
        let req = pool
            .submit(0, Track::Sys, move || async move {
                c.call(NodeId(1), Req(41)).await.unwrap().0
            })
            .await;
        sim3.sleep(SimDuration::from_millis(40)).await; // compute
        let v = req.join().await;
        (v, sim3.now().as_millis_round())
    });
    sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
    // Full overlap: 40 ms total, not 80.
    assert_eq!(h.try_take(), Some((42, 40)));
}
