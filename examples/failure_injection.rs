//! Failure injection: a hot-spotted I/O node.
//!
//! One member disk of one RAID array degrades to 5× its nominal service
//! time mid-run (a failing drive, a rebuild, a noisy neighbour). Because
//! every large request declusters over all I/O nodes, a single slow array
//! gates *every* collective read — and prefetching can hide part of the
//! degradation whenever there is computation to overlap. The example
//! asserts both orderings it prints.
//!
//! ```sh
//! cargo run --release --example failure_injection
//! ```

use std::rc::Rc;

use paragon::machine::{Machine, MachineConfig};
use paragon::pfs::{pattern_byte, IoMode, OpenOptions, ParallelFs, StripeAttrs};
use paragon::prefetch::{PrefetchConfig, PrefetchingFile};
use paragon::sim::{Sim, SimDuration};

const NODES: usize = 8;
const REQUEST: u32 = 64 * 1024;
const FILE: u64 = 32 << 20;
const DELAY: SimDuration = SimDuration::from_millis(40);

fn run_case(hotspot: bool, prefetch: bool) -> (f64, u64) {
    let sim = Sim::new(31);
    let machine = Rc::new(Machine::new(&sim, MachineConfig::paper_testbed()));
    if hotspot {
        // Member 1 of I/O node 3's array is failing.
        machine.raid(3).set_member_slowdown(1, 5.0);
    }
    let pfs = ParallelFs::new(machine);
    let pfs2 = pfs.clone();
    let sim2 = sim.clone();
    let run = sim.spawn(async move {
        let file = pfs2
            .create("/pfs/hot", StripeAttrs::across(8, 64 * 1024))
            .await
            .unwrap();
        pfs2.populate_with(file, FILE, |i| pattern_byte(3, i))
            .await
            .unwrap();
        let t0 = sim2.now();
        let rounds = FILE / (REQUEST as u64 * NODES as u64);
        let mut tasks = Vec::new();
        for rank in 0..NODES {
            let f = pfs2
                .open(rank, NODES, file, IoMode::MRecord, OpenOptions::default())
                .unwrap();
            let sim3 = sim2.clone();
            tasks.push(sim2.spawn(async move {
                let reader = prefetch
                    .then(|| PrefetchingFile::new(f.clone(), PrefetchConfig::paper_prototype()));
                let mut hits = 0;
                for _ in 0..rounds {
                    match &reader {
                        Some(pf) => {
                            pf.read(REQUEST).await.unwrap();
                        }
                        None => {
                            f.read(REQUEST).await.unwrap();
                        }
                    }
                    sim3.sleep(DELAY).await;
                }
                if let Some(pf) = reader {
                    hits = pf.close().await.hits();
                }
                hits
            }));
        }
        let mut hits = 0;
        for t in tasks {
            hits += t.await;
        }
        (sim2.now().since(t0), hits)
    });
    sim.run();
    let (elapsed, hits) = run.try_take().expect("finished");
    (FILE as f64 / (1 << 20) as f64 / elapsed.as_secs_f64(), hits)
}

fn main() {
    println!("Balanced M_RECORD workload, 64 KB requests, 40 ms compute per read;");
    println!("hot spot = one RAID member at I/O node 3 running 5x slow.\n");
    println!("{:<22} {:>16} {:>16}", "", "no prefetch", "prefetch");
    let [(healthy_np, healthy_pf), (hot_np, hot_pf)] = [false, true].map(|hotspot| {
        let (bw_np, _) = run_case(hotspot, false);
        let (bw_pf, hits) = run_case(hotspot, true);
        println!(
            "{:<22} {:>11.2} MB/s {:>11.2} MB/s   (hits {hits})",
            if hotspot {
                "degraded (hot spot)"
            } else {
                "healthy"
            },
            bw_np,
            bw_pf,
        );
        (bw_np, bw_pf)
    });
    println!(
        "\nThe hot spot gates every declustered read; prefetching still buys\n\
         its overlap on top of whatever the slowest array allows."
    );
    assert!(
        hot_np < healthy_np && hot_pf < healthy_pf,
        "the hot spot must be slower than healthy, with and without prefetch"
    );
    assert!(
        healthy_pf > healthy_np && hot_pf > hot_np,
        "prefetch must beat no prefetch on both rows"
    );
}
