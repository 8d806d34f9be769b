//! Reusable barrier, used by the M_SYNC I/O mode (every node must arrive at
//! the collective call before any request is serviced) and by workload
//! drivers that align phases across compute nodes.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct BarrierState {
    n: usize,
    arrived: usize,
    generation: u64,
    wakers: VecDeque<Waker>,
}

/// A cyclic barrier for `n` parties.
#[derive(Clone)]
pub struct Barrier {
    state: Rc<RefCell<BarrierState>>,
}

/// Outcome of a barrier wait; exactly one waiter per generation is leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierWaitResult {
    /// True for the party whose arrival released the barrier.
    pub is_leader: bool,
}

impl Barrier {
    /// Barrier for `n` parties; `n == 0` is treated as 1.
    pub fn new(n: usize) -> Self {
        Barrier {
            state: Rc::new(RefCell::new(BarrierState {
                n: n.max(1),
                arrived: 0,
                generation: 0,
                wakers: VecDeque::new(),
            })),
        }
    }

    /// Wait until all `n` parties have called `wait` in this generation.
    pub fn wait(&self) -> BarrierWait {
        BarrierWait {
            barrier: self.clone(),
            generation: None,
        }
    }

    /// Parties currently blocked at the barrier.
    pub fn waiting(&self) -> usize {
        self.state.borrow().arrived
    }
}

/// Future returned by [`Barrier::wait`].
pub struct BarrierWait {
    barrier: Barrier,
    generation: Option<u64>,
}

impl Future for BarrierWait {
    type Output = BarrierWaitResult;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<BarrierWaitResult> {
        let mut st = self.barrier.state.borrow_mut();
        match self.generation {
            None => {
                st.arrived += 1;
                if st.arrived == st.n {
                    st.arrived = 0;
                    st.generation += 1;
                    while let Some(w) = st.wakers.pop_front() {
                        w.wake();
                    }
                    Poll::Ready(BarrierWaitResult { is_leader: true })
                } else {
                    let gen = st.generation;
                    st.wakers.push_back(cx.waker().clone());
                    drop(st);
                    self.generation = Some(gen);
                    Poll::Pending
                }
            }
            Some(gen) => {
                if st.generation != gen {
                    Poll::Ready(BarrierWaitResult { is_leader: false })
                } else {
                    st.wakers.push_back(cx.waker().clone());
                    Poll::Pending
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimDuration;

    #[test]
    fn releases_all_when_full() {
        let sim = Sim::new(1);
        let barrier = Barrier::new(3);
        let release_times: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u64 {
            let b = barrier.clone();
            let s = sim.clone();
            let rt = release_times.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_millis(i * 10)).await;
                b.wait().await;
                rt.borrow_mut().push(s.now().as_millis_round());
            });
        }
        sim.run();
        // All released at the last arrival (t = 20 ms).
        assert_eq!(*release_times.borrow(), vec![20, 20, 20]);
    }

    #[test]
    fn exactly_one_leader_per_generation() {
        let sim = Sim::new(1);
        let barrier = Barrier::new(4);
        let leaders: Rc<RefCell<u32>> = Rc::new(RefCell::new(0));
        for _ in 0..4 {
            let b = barrier.clone();
            let l = leaders.clone();
            sim.spawn(async move {
                for _ in 0..3 {
                    if b.wait().await.is_leader {
                        *l.borrow_mut() += 1;
                    }
                }
            });
        }
        let report = sim.run();
        assert_eq!(report.unfinished_tasks, 0);
        assert_eq!(*leaders.borrow(), 3); // one leader per generation
    }

    #[test]
    fn reusable_across_generations() {
        let sim = Sim::new(1);
        let barrier = Barrier::new(2);
        let ticks: Rc<RefCell<Vec<(u32, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        for id in 0..2u32 {
            let b = barrier.clone();
            let t = ticks.clone();
            let s = sim.clone();
            sim.spawn(async move {
                for round in 0..5u32 {
                    s.sleep(SimDuration::from_micros((id as u64 + 1) * 3)).await;
                    b.wait().await;
                    t.borrow_mut().push((round, id));
                }
            });
        }
        sim.run();
        // Rounds must be completed in lockstep: round r of both tasks before
        // round r+1 of either.
        let rounds: Vec<u32> = ticks.borrow().iter().map(|&(r, _)| r).collect();
        assert_eq!(rounds, vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
    }
}
