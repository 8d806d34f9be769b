//! Randomized tests for the simulation kernel: determinism, FIFO
//! fairness, and monotone time under arbitrary task structures. Cases
//! are driven by the in-repo [`Rng`] so the suite is hermetic.

use std::cell::RefCell;
use std::rc::Rc;

use paragon_sim::{ev, sync::Semaphore, EventKind, Rng, RunReport, Sim, SimDuration, Track};

/// A little random program: `n` tasks, each doing `k` sleeps of pseudo-random
/// length, contending on one semaphore of capacity `cap`.
fn run_model(seed: u64, tasks: u8, steps: u8, cap: u8) -> (RunReport, Vec<(u8, u64)>) {
    let sim = Sim::new(seed);
    let sem = Semaphore::new(cap.max(1) as usize);
    let log: Rc<RefCell<Vec<(u8, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    for t in 0..tasks {
        let s = sim.clone();
        let sem = sem.clone();
        let log = log.clone();
        sim.spawn(async move {
            for i in 0..steps {
                // Deterministic pseudo-random-ish delays from (t, i).
                let d = SimDuration::from_micros(((t as u64 + 1) * 97 + i as u64 * 31) % 211 + 1);
                s.sleep(d).await;
                let _g = sem.acquire().await;
                s.sleep(SimDuration::from_micros(13)).await;
                log.borrow_mut().push((t, s.now().as_nanos()));
            }
        });
    }
    let report = sim.run();
    let l = log.borrow().clone();
    (report, l)
}

/// Identical (seed, shape) must give identical traces and logs.
#[test]
fn equal_seed_equal_world() {
    let mut rng = Rng::seed_from_u64(0x5eed);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let tasks = rng.range_u64(1..8) as u8;
        let steps = rng.range_u64(1..6) as u8;
        let cap = rng.range_u64(1..4) as u8;
        let (ra, la) = run_model(seed, tasks, steps, cap);
        let (rb, lb) = run_model(seed, tasks, steps, cap);
        assert_eq!(ra, rb);
        assert_eq!(la, lb);
        assert_eq!(run_model(seed, tasks, steps, cap).0.unfinished_tasks, 0);
    }
}

/// Observed completion times never run backwards.
#[test]
fn time_is_monotone() {
    let mut rng = Rng::seed_from_u64(0x7133);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let tasks = rng.range_u64(1..8) as u8;
        let steps = rng.range_u64(1..6) as u8;
        let (_r, log) = run_model(seed, tasks, steps, 2);
        let times: Vec<u64> = log.iter().map(|&(_, t)| t).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
    }
}

/// With a capacity-1 semaphore and a fixed hold time, holds never overlap:
/// consecutive completion times are at least the hold time apart.
#[test]
fn mutex_holds_never_overlap() {
    for tasks in 2u8..8 {
        let sim = Sim::new(0);
        let sem = Semaphore::new(1);
        let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for t in 0..tasks {
            let s = sim.clone();
            let sem = sem.clone();
            let log = log.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_micros(t as u64)).await;
                let _g = sem.acquire().await;
                s.sleep(SimDuration::from_millis(5)).await;
                log.borrow_mut().push(s.now().as_nanos());
            });
        }
        sim.run();
        let log = log.borrow();
        for pair in log.windows(2) {
            assert!(pair[1] - pair[0] >= 5_000_000);
        }
    }
}

#[test]
fn rng_streams_are_stable_across_runs() {
    let a: Vec<u32> = {
        let sim = Sim::new(9);
        let mut rng = sim.rng("disk.seek");
        (0..8).map(|_| rng.next_u32()).collect()
    };
    let b: Vec<u32> = {
        let sim = Sim::new(9);
        let mut rng = sim.rng("disk.seek");
        (0..8).map(|_| rng.next_u32()).collect()
    };
    assert_eq!(a, b);
}

/// Two armed runs of the same seeded program record byte-identical
/// flight-recorder traces (equal FNV hashes), and a disarmed run of the
/// same program records nothing yet schedules identically.
#[test]
fn same_seed_same_trace_hash() {
    fn traced_run(seed: u64, arm: bool) -> (u64, usize, u64) {
        let sim = Sim::new(seed);
        if arm {
            sim.tracer().arm(4096);
        }
        let mut rng = sim.rng("trace-test");
        for t in 0..4u16 {
            let s = sim.clone();
            let jitter = rng.range_u64(1..50);
            sim.spawn(async move {
                for i in 0..3u64 {
                    let req = s.mint_req();
                    s.emit(|| ev(Track::Cn(t), EventKind::ReadStart, req, i * 64, 64));
                    s.sleep(SimDuration::from_micros(jitter + i)).await;
                    s.emit(|| ev(Track::Cn(t), EventKind::ReadDone, req, i * 64, 64));
                }
            });
        }
        let total = sim.run().trace_hash;
        (sim.tracer().hash(), sim.tracer().len(), total)
    }
    let (ha, na, ea) = traced_run(77, true);
    let (hb, nb, eb) = traced_run(77, true);
    assert_eq!(ha, hb, "same seed must give identical trace hashes");
    assert_eq!(na, nb);
    assert_eq!(ea, eb);
    assert_eq!(na, 24, "4 tasks x 3 reads x start+done");
    // A different seed reorders the interleaving and changes the hash.
    let (hc, nc, _) = traced_run(78, true);
    assert_eq!(nc, na);
    assert_ne!(ha, hc);
    // Disarmed: no events, but the virtual schedule is unchanged.
    let (hd, nd, ed) = traced_run(77, false);
    assert_eq!(nd, 0);
    assert_ne!(hd, ha);
    assert_eq!(ed, ea, "arming must not perturb the simulation");
}
