//! The shared-file-pointer server.
//!
//! Shared-pointer modes (M_UNIX, M_LOG, M_SYNC) coordinate through one
//! service-node process that owns the pointer of every shared PFS file:
//!
//! * **M_UNIX** — a FIFO token: the holder reads at the pointer and
//!   releases with the advance; everyone else queues. This is what makes
//!   M_UNIX serialize.
//! * **M_LOG** — fetch-and-add: reserve a range and go; transfers overlap.
//! * **M_SYNC** — a collective: all ranks must arrive, then node-ordered
//!   ranges are released at once.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use paragon_sim::sync::{oneshot, OneshotSender, Semaphore};
use paragon_sim::{ev, EventKind, Sim, SimDuration, Track};

use crate::proto::{PfsError, PfsFileId, PtrRequest};

#[derive(Default)]
struct FilePtr {
    offset: u64,
    token_held: bool,
    token_queue: VecDeque<OneshotSender<u64>>,
    sync_waiters: Vec<(u16, u64, OneshotSender<u64>)>,
}

/// The pointer state machine. The PFS mounts it on the service node; unit
/// tests drive it directly.
#[derive(Clone)]
pub(crate) struct PointerServer {
    sim: Sim,
    op_cost: SimDuration,
    /// The pointer server is one OS process: operations serialize on it.
    gate: Semaphore,
    files: Rc<RefCell<BTreeMap<PfsFileId, FilePtr>>>,
}

impl PointerServer {
    /// Create a pointer server charging `op_cost` per (serialized)
    /// operation.
    pub(crate) fn new(sim: &Sim, op_cost: SimDuration) -> Self {
        PointerServer {
            sim: sim.clone(),
            op_cost,
            gate: Semaphore::new(1),
            files: Rc::new(RefCell::new(BTreeMap::new())),
        }
    }

    /// Current pointer of `file` (0 if never touched).
    pub(crate) fn pointer(&self, file: PfsFileId) -> u64 {
        self.files
            .borrow()
            .get(&file)
            .map(|f| f.offset)
            .unwrap_or(0)
    }

    /// Service one pointer operation; resolves to the relevant offset,
    /// or [`PfsError::ServiceLost`] if the server abandoned the caller
    /// mid-operation. The op-cost section is serialized (one server
    /// process); waiting on a token or a collective happens *outside*
    /// the serialized section, so a held M_UNIX token never blocks
    /// unrelated operations.
    pub(crate) async fn handle(&self, req: PtrRequest) -> Result<u64, PfsError> {
        let gate = self.gate.acquire().await;
        self.sim.sleep(self.op_cost).await;
        drop(gate);
        let res: Result<u64, PfsError> = match req {
            PtrRequest::UnixAcquire { file } => {
                let waiter = {
                    let mut files = self.files.borrow_mut();
                    let f = files.entry(file).or_default();
                    if !f.token_held {
                        f.token_held = true;
                        None
                    } else {
                        let (tx, rx) = oneshot();
                        f.token_queue.push_back(tx);
                        Some(rx)
                    }
                };
                match waiter {
                    None => Ok(self.pointer(file)),
                    Some(rx) => rx.await.map_err(|_| PfsError::ServiceLost),
                }
            }
            PtrRequest::UnixRelease { file, advance } => {
                let mut files = self.files.borrow_mut();
                let f = files.entry(file).or_default();
                assert!(f.token_held, "UnixRelease without a held token");
                f.offset += advance;
                let new_offset = f.offset;
                if let Some(next) = f.token_queue.pop_front() {
                    // Token passes directly to the next waiter.
                    next.send(new_offset);
                } else {
                    f.token_held = false;
                }
                Ok(new_offset)
            }
            PtrRequest::LogFetchAdd { file, len } => {
                let mut files = self.files.borrow_mut();
                let f = files.entry(file).or_default();
                let at = f.offset;
                f.offset += len;
                Ok(at)
            }
            PtrRequest::SyncArrive {
                file,
                rank,
                nprocs,
                len,
            } => {
                let rx = {
                    let mut files = self.files.borrow_mut();
                    let f = files.entry(file).or_default();
                    let (tx, rx) = oneshot();
                    assert!(
                        !f.sync_waiters.iter().any(|(r, _, _)| *r == rank),
                        "rank {rank} arrived twice at an M_SYNC collective"
                    );
                    f.sync_waiters.push((rank, len, tx));
                    if f.sync_waiters.len() == nprocs as usize {
                        // Everyone is here: assign node-ordered ranges.
                        let mut arrivals = std::mem::take(&mut f.sync_waiters);
                        arrivals.sort_by_key(|(r, _, _)| *r);
                        let mut at = f.offset;
                        for (_, want, tx) in arrivals {
                            tx.send(at);
                            at += want;
                        }
                        f.offset = at;
                    }
                    rx
                };
                rx.await.map_err(|_| PfsError::ServiceLost)
            }
            PtrRequest::Rewind { file } => {
                let mut files = self.files.borrow_mut();
                let f = files.entry(file).or_default();
                assert!(
                    !f.token_held && f.sync_waiters.is_empty(),
                    "rewind while pointer operations are outstanding"
                );
                f.offset = 0;
                Ok(0)
            }
        };
        if let Ok(at) = res {
            // Flight-recorder record of the completed pointer operation:
            // `a` carries the offset the caller was handed.
            self.sim.emit(|| ev(Track::Svc, EventKind::PtrOp, 0, at, 0));
        }
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: PfsFileId = PfsFileId(0);

    fn server(sim: &Sim) -> PointerServer {
        PointerServer::new(sim, SimDuration::ZERO)
    }

    #[test]
    fn unix_token_serializes_and_is_fifo() {
        let sim = Sim::new(1);
        let ps = server(&sim);
        let log: Rc<RefCell<Vec<(u16, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        for rank in 0..3u16 {
            let ps2 = ps.clone();
            let s = sim.clone();
            let log2 = log.clone();
            sim.spawn(async move {
                // Stagger arrivals so queue order is 0,1,2.
                s.sleep(SimDuration::from_micros(rank as u64)).await;
                let at = ps2
                    .handle(PtrRequest::UnixAcquire { file: F })
                    .await
                    .unwrap();
                s.sleep(SimDuration::from_millis(10)).await; // "the I/O"
                ps2.handle(PtrRequest::UnixRelease {
                    file: F,
                    advance: 100,
                })
                .await
                .unwrap();
                log2.borrow_mut().push((rank, at));
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![(0, 0), (1, 100), (2, 200)]);
    }

    #[test]
    fn log_fetch_add_reserves_disjoint_ranges() {
        let sim = Sim::new(1);
        let ps = server(&sim);
        let offsets: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..4 {
            let ps2 = ps.clone();
            let o = offsets.clone();
            sim.spawn(async move {
                let at = ps2
                    .handle(PtrRequest::LogFetchAdd { file: F, len: 64 })
                    .await
                    .unwrap();
                o.borrow_mut().push(at);
            });
        }
        sim.run();
        let mut got = offsets.borrow().clone();
        got.sort();
        assert_eq!(got, vec![0, 64, 128, 192]);
        assert_eq!(ps.pointer(F), 256);
    }

    #[test]
    fn sync_arrive_blocks_until_all_ranks_arrive() {
        let sim = Sim::new(1);
        let ps = server(&sim);
        let releases: Rc<RefCell<Vec<(u16, u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
        // Ranks arrive out of order and with different sizes; offsets must
        // still come out in node order.
        for (rank, delay_ms, len) in [(2u16, 5u64, 300u64), (0, 10, 100), (1, 1, 200)] {
            let ps2 = ps.clone();
            let s = sim.clone();
            let r2 = releases.clone();
            sim.spawn(async move {
                s.sleep(SimDuration::from_millis(delay_ms)).await;
                let at = ps2
                    .handle(PtrRequest::SyncArrive {
                        file: F,
                        rank,
                        nprocs: 3,
                        len,
                    })
                    .await
                    .unwrap();
                r2.borrow_mut().push((rank, at, s.now().as_millis_round()));
            });
        }
        sim.run();
        let mut got = releases.borrow().clone();
        got.sort_by_key(|&(r, _, _)| r);
        // Node-ordered offsets: rank0 at 0 (100 B), rank1 at 100 (200 B),
        // rank2 at 300; all released at the last arrival (10 ms).
        assert_eq!(got, vec![(0, 0, 10), (1, 100, 10), (2, 300, 10)]);
        assert_eq!(ps.pointer(F), 600);
    }

    #[test]
    fn sync_generations_do_not_mix_across_files() {
        let sim = Sim::new(1);
        let ps = server(&sim);
        let g = PfsFileId(9);
        let ps2 = ps.clone();
        let h = sim.spawn(async move {
            let a = ps2
                .handle(PtrRequest::LogFetchAdd { file: F, len: 10 })
                .await
                .unwrap();
            let b = ps2
                .handle(PtrRequest::LogFetchAdd { file: g, len: 20 })
                .await
                .unwrap();
            (a, b)
        });
        sim.run();
        assert_eq!(h.try_take(), Some((0, 0)));
        assert_eq!(ps.pointer(F), 10);
        assert_eq!(ps.pointer(g), 20);
    }

    #[test]
    fn rewind_resets_pointer() {
        let sim = Sim::new(1);
        let ps = server(&sim);
        let ps2 = ps.clone();
        sim.spawn(async move {
            ps2.handle(PtrRequest::LogFetchAdd { file: F, len: 512 })
                .await
                .unwrap();
            ps2.handle(PtrRequest::Rewind { file: F }).await.unwrap();
        });
        sim.run();
        assert_eq!(ps.pointer(F), 0);
    }

    #[test]
    fn op_cost_is_charged() {
        let sim = Sim::new(1);
        let ps = PointerServer::new(&sim, SimDuration::from_micros(200));
        let s = sim.clone();
        let ps2 = ps.clone();
        let h = sim.spawn(async move {
            ps2.handle(PtrRequest::LogFetchAdd { file: F, len: 1 })
                .await
                .unwrap();
            s.now().as_nanos()
        });
        sim.run();
        assert_eq!(h.try_take(), Some(200_000));
    }
}
