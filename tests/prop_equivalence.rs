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

/// The kernel's future event list, tested property-style against the
/// obvious reference: the calendar queue must be observably identical to
/// a binary heap keyed on `(time, seq)` — same peeks, same pops, same
/// cancels, same lengths — across arbitrary interleavings of clustered,
/// far-future, and below-frontier pushes that drive its resize, frontier
/// lap, and direct-search fallback paths.
mod calendar_vs_heap {
    use paragon::sim::{CalendarQueue, Rng, SimTime};
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap};

    /// Reference model: a min binary heap over `(time, seq)` with a side
    /// map for payloads; cancellation is lazy deletion at the head.
    #[derive(Default)]
    struct RefHeap {
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        live: BTreeMap<(u64, u64), u64>,
    }

    impl RefHeap {
        fn push(&mut self, t: u64, seq: u64, item: u64) {
            self.heap.push(Reverse((t, seq)));
            self.live.insert((t, seq), item);
        }
        fn settle(&mut self) {
            while let Some(Reverse(k)) = self.heap.peek() {
                if self.live.contains_key(k) {
                    break;
                }
                self.heap.pop();
            }
        }
        fn peek(&mut self) -> Option<(u64, u64)> {
            self.settle();
            self.heap.peek().map(|Reverse(k)| *k)
        }
        fn pop(&mut self) -> Option<(u64, u64, u64)> {
            self.settle();
            let Reverse(k) = self.heap.pop()?;
            let item = self.live.remove(&k).expect("settled head is live");
            Some((k.0, k.1, item))
        }
        fn cancel(&mut self, t: u64, seq: u64) -> Option<u64> {
            self.live.remove(&(t, seq))
        }
        fn random_live_key(&self, rng: &mut Rng) -> Option<(u64, u64)> {
            if self.live.is_empty() {
                return None;
            }
            let n = rng.range_usize(0..self.live.len());
            self.live.keys().nth(n).copied()
        }
    }

    #[test]
    fn calendar_queue_matches_binary_heap_reference() {
        let mut rng = Rng::seed_from_u64(0xca1e);
        for case in 0..16 {
            let mut cal = CalendarQueue::new();
            let mut reference = RefHeap::default();
            let mut seq = 0u64;
            // Pushes cluster around the last popped time so the drain
            // frontier keeps chasing live buckets.
            let mut now = 0u64;
            for op in 0..800 {
                match rng.range_usize(0..12) {
                    // Clustered pushes; quantizing to a coarse grid makes
                    // equal timestamps common, exercising the FIFO seq
                    // tie-break within one bucket.
                    0..=4 => {
                        let mut t = now + rng.range_u64(0..2_000_000);
                        if rng.gen_bool(0.5) {
                            t = t / 500_000 * 500_000;
                        }
                        cal.push(SimTime::from_nanos(t), seq, seq);
                        reference.push(t, seq, seq);
                        seq += 1;
                    }
                    // Far-future push: more than a whole bucket lap away,
                    // forcing the direct-search fallback and a resize
                    // retune on the next rebuild.
                    5 => {
                        let t = now + 4_000_000_000_000 + rng.range_u64(0..1_000_000);
                        cal.push(SimTime::from_nanos(t), seq, seq);
                        reference.push(t, seq, seq);
                        seq += 1;
                    }
                    // Below-frontier push (timestamps may sit behind the
                    // frontier after a far-future pop).
                    6 => {
                        let t = now / 2;
                        cal.push(SimTime::from_nanos(t), seq, seq);
                        reference.push(t, seq, seq);
                        seq += 1;
                    }
                    7..=9 => {
                        let got = cal.pop().map(|(t, s, v)| (t.as_nanos(), s, v));
                        let want = reference.pop();
                        assert_eq!(got, want, "case {case} op {op}: pop diverged");
                        if let Some((t, _, _)) = got {
                            now = t;
                        }
                    }
                    10 => {
                        let got = cal.peek().map(|(t, s)| (t.as_nanos(), s));
                        assert_eq!(got, reference.peek(), "case {case} op {op}: peek diverged");
                    }
                    // Cancel: half the time an existing key, half a key
                    // that was never scheduled (or already popped).
                    _ => {
                        let (t, s) = if rng.gen_bool(0.5) {
                            reference.random_live_key(&mut rng).unwrap_or((1, u64::MAX))
                        } else {
                            (now + rng.range_u64(0..1000), u64::MAX - seq)
                        };
                        assert_eq!(
                            cal.cancel(SimTime::from_nanos(t), s),
                            reference.cancel(t, s),
                            "case {case} op {op}: cancel diverged"
                        );
                    }
                }
                assert_eq!(cal.len(), reference.live.len());
                assert_eq!(cal.is_empty(), reference.live.is_empty());
            }
            // Drain both to empty: total order must match exactly (this
            // sweeps every surviving entry through shrink rebuilds too).
            loop {
                let got = cal.pop().map(|(t, s, v)| (t.as_nanos(), s, v));
                let want = reference.pop();
                assert_eq!(got, want, "case {case}: drain diverged");
                if got.is_none() {
                    break;
                }
            }
        }
    }
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
