//! Randomized tests for the mesh: XY routing geometry and per-pair FIFO
//! delivery under arbitrary traffic. Cases come from the in-repo [`Rng`].

use paragon_mesh::{Mesh, MeshParams, NodeId, Topology};
use paragon_sim::{Rng, Sim};

/// Hop count is the Manhattan distance, symmetric, and triangle-
/// inequality-consistent; the XY route has exactly hops+1 nodes.
#[test]
fn routing_geometry() {
    let mut rng = Rng::seed_from_u64(0x4e57);
    for _ in 0..256 {
        let cols = rng.range_usize(1..12);
        let rows = rng.range_usize(1..12);
        let t = Topology::new(cols, rows);
        let n = t.nodes();
        let a = NodeId(rng.range_usize(0..144) % n);
        let b = NodeId(rng.range_usize(0..144) % n);
        let c = NodeId(rng.range_usize(0..144) % n);
        assert_eq!(t.hops(a, b), t.hops(b, a));
        assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
        let route = t.route(a, b);
        assert_eq!(route.len(), t.hops(a, b) + 1);
        assert_eq!(route[0], a);
        assert_eq!(*route.last().unwrap(), b);
        // Each step moves exactly one hop.
        for w in route.windows(2) {
            assert_eq!(t.hops(w[0], w[1]), 1);
        }
    }
}

/// Messages between one (src, dst) pair always arrive in send order,
/// whatever their sizes.
#[test]
fn per_pair_fifo() {
    let mut rng = Rng::seed_from_u64(0xf1f0);
    for _ in 0..32 {
        let sizes: Vec<u64> = (0..rng.range_usize(1..30))
            .map(|_| rng.range_u64(0..100_000))
            .collect();
        let sim = Sim::new(9);
        let mesh: Mesh<u64> = Mesh::new(&sim, Topology::new(4, 4), MeshParams::paragon());
        let mut rx = mesh.bind(NodeId(5));
        let n = sizes.len();
        let h = sim.spawn(async move {
            let mut got = Vec::new();
            for _ in 0..n {
                got.push(rx.recv().await.unwrap().payload);
            }
            got
        });
        let m = mesh.clone();
        sim.spawn(async move {
            for (i, bytes) in sizes.into_iter().enumerate() {
                m.send(NodeId(0), NodeId(5), bytes, i as u64).await;
            }
        });
        sim.run();
        let got = h.try_take().unwrap();
        assert_eq!(got, (0..n as u64).collect::<Vec<_>>());
    }
}
