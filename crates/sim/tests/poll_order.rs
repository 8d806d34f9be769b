//! The executor's poll order, pinned against a FIFO reference model.
//!
//! Each case is a random program of up to 12 tasks. The model runs it
//! first, writing down what every poll does; the executor then runs that
//! script. In the model every spawn or wake appends its task to one FIFO,
//! each pop either polls a live task or counts a stale wake (the task
//! already finished), and a finishing task wakes the task awaiting its
//! handle. The `(task, poll number)` sequence the executor logs and its
//! `polls` count must equal the model's. Cases are driven by the in-repo
//! [`Rng`] so the suite is hermetic.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Poll, Waker};

use paragon_sim::{JoinHandle, Rng, Sim};

/// What a poll does before it ends.
#[derive(Debug, Clone, Copy)]
enum Op {
    Spawn,
    /// Keep a clone of this task's waker in the shared stash.
    Stash,
    WakeSelf,
    /// Fire stashed waker `at` (its owner may have finished) by
    /// reference, or through a clone that `wake` consumes.
    Fire {
        at: usize,
        by_ref: bool,
    },
}

/// How a poll ends: `Join(j)` polls task `j`'s handle and finishes if it
/// yields the output.
#[derive(Debug, Clone, Copy)]
enum End {
    Pending,
    Finish,
    Join(usize),
}

type Step = (Vec<Op>, End);

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Live,
    Finished,
    /// Finished and its output taken through the handle.
    Taken,
}

#[derive(Default)]
struct Model {
    roots: usize,
    /// `script[t][k]`: what poll `k` of task `t` does.
    script: Vec<Vec<Step>>,
    /// Stash indices fired from outside the executor after each run.
    rounds: Vec<Vec<(usize, bool)>>,
    queue: VecDeque<usize>,
    state: Vec<State>,
    joiner: Vec<Option<usize>>,
    /// The owner of each stashed waker.
    stash: Vec<usize>,
    polls: u64,
    log: Vec<(usize, usize)>,
}

impl Model {
    fn generate(rng: &mut Rng) -> Model {
        let mut m = Model {
            roots: rng.range_usize(1..4),
            ..Model::default()
        };
        (0..m.roots).for_each(|_| m.add_task());
        m.drain(rng);
        for _ in 0..rng.range_usize(0..4) {
            if m.stash.is_empty() {
                break;
            }
            let fires: Vec<(usize, bool)> = (0..rng.range_usize(1..4))
                .map(|_| (rng.range_usize(0..m.stash.len()), rng.gen_bool(0.5)))
                .collect();
            m.queue.extend(fires.iter().map(|&(at, _)| m.stash[at]));
            m.rounds.push(fires);
            m.drain(rng);
        }
        m
    }

    fn add_task(&mut self) {
        self.queue.push_back(self.state.len());
        self.state.push(State::Live);
        self.joiner.push(None);
        self.script.push(Vec::new());
    }

    fn drain(&mut self, rng: &mut Rng) {
        while let Some(t) = self.queue.pop_front() {
            self.polls += 1;
            if self.state[t] != State::Live {
                continue;
            }
            self.log.push((t, self.script[t].len()));
            let (ops, end) = self.step(rng, t);
            for &op in &ops {
                match op {
                    Op::Spawn => self.add_task(),
                    Op::Stash => self.stash.push(t),
                    Op::WakeSelf => self.queue.push_back(t),
                    Op::Fire { at, .. } => self.queue.push_back(self.stash[at]),
                }
            }
            let finished = match end {
                End::Pending => false,
                End::Finish => true,
                End::Join(j) if self.state[j] == State::Finished => {
                    self.state[j] = State::Taken;
                    true
                }
                End::Join(j) => {
                    self.joiner[j] = Some(t);
                    false
                }
            };
            if finished {
                self.state[t] = State::Finished;
                self.queue.extend(self.joiner[t].take());
            }
            self.script[t].push((ops, end));
        }
    }

    /// A random step for task `t`. After 120 handled wakes every poll
    /// finishes its task, so a program always runs out of work.
    fn step(&self, rng: &mut Rng, t: usize) -> Step {
        if self.polls > 120 {
            return (Vec::new(), End::Finish);
        }
        let (mut tasks, mut stashed) = (self.state.len(), self.stash.len());
        let mut ops = Vec::new();
        for _ in 0..rng.range_usize(0..4) {
            ops.push(match rng.range_u64(0..4) {
                0 if tasks < 12 => {
                    tasks += 1;
                    Op::Spawn
                }
                1 => {
                    stashed += 1;
                    Op::Stash
                }
                2 => Op::WakeSelf,
                _ if stashed > 0 => Op::Fire {
                    at: rng.range_usize(0..stashed),
                    by_ref: rng.gen_bool(0.5),
                },
                _ => continue,
            });
        }
        let end = match (rng.range_u64(0..10), rng.range_usize(0..tasks)) {
            (0..=4, _) => End::Pending,
            (5..=6, _) => End::Finish,
            (_, j) if j == t => End::Pending,
            (_, j) => End::Join(j),
        };
        (ops, end)
    }
}

/// What the executor's tasks share.
struct World {
    sim: Sim,
    script: Vec<Vec<Step>>,
    log: RefCell<Vec<(usize, usize)>>,
    stash: RefCell<Vec<Waker>>,
    handles: RefCell<Vec<JoinHandle<()>>>,
}

impl World {
    fn spawn(self: &Rc<Self>) {
        let t = self.handles.borrow().len();
        let handle = self.sim.spawn(task(self.clone(), t));
        self.handles.borrow_mut().push(handle);
    }

    fn fire(&self, at: usize, by_ref: bool) {
        let stash = self.stash.borrow();
        if by_ref {
            stash[at].wake_by_ref();
        } else {
            // A clone that `wake` consumes: the vtable's other wake path.
            let waker = stash[at].clone();
            waker.wake();
        }
    }
}

/// Task `t`: logs each poll and does what the script says. A poll the
/// script lacks is logged and parks, so the log comparison reports it.
fn task(world: Rc<World>, t: usize) -> impl Future<Output = ()> {
    let mut k = 0;
    poll_fn(move |cx| {
        world.log.borrow_mut().push((t, k));
        let Some((ops, end)) = world.script[t].get(k) else {
            return Poll::Pending;
        };
        k += 1;
        for &op in ops {
            match op {
                Op::Spawn => world.spawn(),
                Op::Stash => world.stash.borrow_mut().push(cx.waker().clone()),
                Op::WakeSelf => cx.waker().wake_by_ref(),
                Op::Fire { at, by_ref } => world.fire(at, by_ref),
            }
        }
        match *end {
            End::Pending => Poll::Pending,
            End::Finish => Poll::Ready(()),
            End::Join(j) => Pin::new(&mut world.handles.borrow_mut()[j]).poll(cx),
        }
    })
}

#[test]
fn tasks_are_polled_in_fifo_wake_order() {
    let mut rng = Rng::seed_from_u64(0x9011);
    let (mut stale, mut joins, mut parked_at_shutdown) = (0, 0, 0);
    for case in 0..400 {
        let model = Model::generate(&mut rng);
        let sim = Sim::new(case);
        let world = Rc::new(World {
            sim: sim.clone(),
            script: model.script.clone(),
            log: RefCell::default(),
            stash: RefCell::default(),
            handles: RefCell::default(),
        });
        (0..model.roots).for_each(|_| world.spawn());
        sim.run();
        for fires in &model.rounds {
            fires
                .iter()
                .for_each(|&(at, by_ref)| world.fire(at, by_ref));
            sim.run();
        }
        assert_eq!(*world.log.borrow(), model.log, "case {case}");
        let report = sim.report();
        assert_eq!(report.polls, model.polls, "case {case}");
        let live = model.state.iter().filter(|&&s| s == State::Live).count();
        assert_eq!(report.unfinished_tasks, live, "case {case}");
        stale += usize::from(model.polls as usize > model.log.len());
        joins += usize::from(model.state.contains(&State::Taken));

        // Tear down with tasks parked and their wakers outstanding, then
        // fire and drop those wakers: nothing is polled, nothing leaks.
        let stashed = world.stash.borrow().len();
        parked_at_shutdown += usize::from(live > 0 && stashed > 0);
        sim.shutdown();
        assert!(sim.pending_task_labels().is_empty(), "case {case}");
        (0..stashed.min(3)).for_each(|at| world.fire(at, at % 2 == 0));
        world.stash.borrow_mut().clear();
        assert_eq!(sim.report().polls, model.polls, "case {case}");
    }
    // The programs reach the cases the model distinguishes.
    assert!(stale > 50 && joins > 50 && parked_at_shutdown > 50);
}
