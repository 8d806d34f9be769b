//! The reproduction's central safety property, tested property-style:
//! **enabling prefetching never changes the bytes an application reads**,
//! for arbitrary access scripts, stripe shapes, and machine sizes.

use std::rc::Rc;

use paragon::machine::{Machine, MachineConfig};
use paragon::pfs::{pattern_byte, IoMode, OpenOptions, ParallelFs, StripeAttrs};
use paragon::prefetch::{PrefetchConfig, PrefetchingFile};
use paragon::sim::{Rng, Sim};

/// One node's access script: a list of read sizes (mode-driven offsets).
#[derive(Debug, Clone)]
struct Script {
    mode: IoMode,
    nprocs: usize,
    stripe_unit: u64,
    io_nodes: usize,
    reads: Vec<u32>,
    depth: u32,
}

fn random_script(rng: &mut Rng) -> Script {
    let mode = [IoMode::MRecord, IoMode::MAsync, IoMode::MGlobal][rng.range_usize(0..3)];
    let stripe_unit = [4096u64, 10_000, 65_536][rng.range_usize(0..3)];
    Script {
        mode,
        nprocs: rng.range_usize(1..5),
        stripe_unit,
        io_nodes: rng.range_usize(1..4),
        reads: (0..rng.range_usize(1..12))
            .map(|_| rng.range_u64(1..40_000) as u32)
            .collect(),
        depth: rng.range_u64(1..4) as u32,
    }
}

/// Run one node's script and return the concatenated bytes it read.
fn run_script(s: &Script, prefetch: bool) -> Vec<u8> {
    // M_RECORD requires equal request sizes: collapse to the first size.
    let reads: Vec<u32> = if s.mode.requires_equal_sizes() {
        vec![s.reads[0]; s.reads.len()]
    } else {
        s.reads.clone()
    };
    // Size the file so every mode-driven offset is in range.
    let max_read = *reads.iter().max().unwrap() as u64;
    let file_size = (reads.len() as u64 + 2) * max_read * s.nprocs as u64;

    let sim = Sim::new(77);
    let machine = Rc::new(Machine::new(
        &sim,
        MachineConfig::tiny_instant(s.nprocs, s.io_nodes),
    ));
    let pfs = ParallelFs::new(machine);
    let s2 = s.clone();
    let h = sim.spawn(async move {
        let attrs = StripeAttrs::across(s2.io_nodes, s2.stripe_unit);
        let file = pfs.create("/pfs/prop", attrs).await.unwrap();
        pfs.populate_with(file, file_size, |i| pattern_byte(13, i))
            .await
            .unwrap();
        // Exercise rank nprocs-1 (the interesting stride for M_RECORD).
        let f = pfs
            .open(
                s2.nprocs - 1,
                s2.nprocs,
                file,
                s2.mode,
                OpenOptions::default(),
            )
            .unwrap();
        let mut out = Vec::new();
        if prefetch {
            let mut cfg = PrefetchConfig::with_depth(s2.depth);
            cfg.copy_bw = 1e12;
            let pf = PrefetchingFile::new(f, cfg);
            for len in &reads {
                out.extend_from_slice(&pf.read(*len).await.unwrap());
            }
            pf.close().await;
        } else {
            for len in &reads {
                out.extend_from_slice(&f.read(*len).await.unwrap());
            }
        }
        out
    });
    sim.run();
    h.try_take().expect("script completed")
}

#[test]
fn prefetching_is_invisible_to_the_application() {
    let mut rng = Rng::seed_from_u64(0xe9a1);
    for _ in 0..24 {
        let s = random_script(&mut rng);
        let plain = run_script(&s, false);
        let prefetched = run_script(&s, true);
        assert_eq!(plain, prefetched, "prefetching changed data: {s:?}");
    }
}
