//! Write-behind — the write-side dual of the prefetch prototype.
//!
//! Where prefetching moves a *read* off the critical path by issuing it
//! before the application asks, write-behind moves a *write* off the
//! critical path by letting the application continue as soon as the data
//! is captured in a compute-node buffer; the transfer proceeds on an ART
//! exactly like a prefetch does. The same trade-off applies in mirror
//! image: I/O-bound writers gain nothing (the disks are saturated either
//! way, and each write pays an extra buffer copy), while balanced
//! writers hide up to one transfer time per compute phase.
//!
//! The engine bounds its dirty window (`max_outstanding` buffered
//! writes); `write` stalls once the window is full — compute-node memory
//! is finite, and an unbounded window would just move the wait to
//! close-time. [`WriteBehindFile::flush`] drains everything, and close
//! without flush is a bug we make loud.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::Bytes;
use paragon_os::AsyncHandle;
use paragon_pfs::{PfsError, PfsFile};
use paragon_sim::{Sim, SimDuration};

/// Write-behind configuration.
#[derive(Debug, Clone)]
pub struct WriteBehindConfig {
    /// Maximum writes buffered/in-flight before `write` stalls.
    pub max_outstanding: usize,
    /// Compute-node memory bandwidth for the user → buffer copy, bytes/s.
    pub copy_bw: f64,
}

impl WriteBehindConfig {
    /// Mirror of the prefetch prototype: a small window, i860-class copy.
    pub fn prototype() -> Self {
        WriteBehindConfig {
            max_outstanding: 4,
            copy_bw: 45e6,
        }
    }
}

/// Write-behind counters.
#[derive(Debug, Default, Clone)]
pub struct WriteBehindStats {
    /// Writes accepted.
    pub writes: u64,
    /// Bytes accepted.
    pub bytes: u64,
    /// Bytes copied user buffer → write-behind buffer.
    pub bytes_copied: u64,
    /// Writes that stalled on a full window.
    pub stalls: u64,
    /// Total time spent stalled.
    pub stall_time: SimDuration,
    /// Transfer latency hidden from the application (time each transfer
    /// ran after `write` had already returned).
    pub overlap_saved: SimDuration,
}

/// A PFS file handle with system-level write-behind enabled.
pub struct WriteBehindFile {
    file: PfsFile,
    sim: Sim,
    cfg: WriteBehindConfig,
    window: RefCell<VecDeque<AsyncHandle<Result<u32, PfsError>>>>,
    stats: Rc<RefCell<WriteBehindStats>>,
    flushed: std::cell::Cell<bool>,
}

impl WriteBehindFile {
    /// Wrap `file`. Like the prefetcher, write-behind needs a locally
    /// computable pointer, so shared-pointer modes are rejected.
    pub fn new(file: PfsFile, cfg: WriteBehindConfig) -> Self {
        assert!(
            !file.mode().shared_pointer(),
            "write-behind is not supported for shared-pointer mode {}",
            file.mode()
        );
        assert!(cfg.max_outstanding > 0, "zero write window");
        let sim = file.sim().clone();
        WriteBehindFile {
            file,
            sim,
            cfg,
            window: RefCell::new(VecDeque::new()),
            stats: Rc::new(RefCell::new(WriteBehindStats::default())),
            flushed: std::cell::Cell::new(true),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WriteBehindStats {
        self.stats.borrow().clone()
    }

    /// Writes currently buffered or in flight.
    pub(crate) fn outstanding(&self) -> usize {
        let mut w = self.window.borrow_mut();
        w.retain(|h| !h.is_done());
        w.len()
    }

    /// Write the next `data.len()` bytes under the open mode's pointer
    /// semantics; returns once the data is captured (copy charged) and a
    /// window slot was available — the transfer itself proceeds on an ART.
    pub async fn write(&self, data: Bytes) -> Result<(), PfsError> {
        self.flushed.set(false);
        self.file.syscall().await;
        let len = data.len() as u32;
        let offset = self.file.advance_pointer(len).await;
        // Capture the user's buffer (the copy Fast Path would have
        // avoided — write-behind's intrinsic overhead, like the
        // prefetch-hit copy on the read side).
        self.sim
            .sleep(SimDuration::for_bytes(len as u64, self.cfg.copy_bw))
            .await;
        {
            let mut st = self.stats.borrow_mut();
            st.writes += 1;
            st.bytes += len as u64;
            st.bytes_copied += len as u64;
        }
        // Respect the window: wait for the oldest transfer if full.
        loop {
            let oldest = {
                let mut w = self.window.borrow_mut();
                w.retain(|h| !h.is_done());
                if w.len() < self.cfg.max_outstanding {
                    break;
                }
                // A full window is necessarily nonempty.
                match w.front().cloned() {
                    Some(h) => h,
                    None => break,
                }
            };
            let stall_from = self.sim.now();
            self.stats.borrow_mut().stalls += 1;
            oldest.wait().await;
            self.stats.borrow_mut().stall_time += self.sim.now().saturating_since(stall_from);
        }
        let file = self.file.clone();
        let handle = self
            .file
            .art_pool()
            .submit(async move {
                file.transfer_write(offset, data).await?;
                Ok(len)
            })
            .await;
        self.window.borrow_mut().push_back(handle);
        Ok(())
    }

    /// Wait for every outstanding transfer and surface the first error.
    pub async fn flush(&self) -> Result<(), PfsError> {
        let handles: Vec<_> = self.window.borrow_mut().drain(..).collect();
        let mut first_err = None;
        for h in handles {
            let done_at_call = h.is_done();
            // Whatever ran before we had to wait was hidden latency.
            let wait_from = self.sim.now();
            let result = h.join().await;
            // Joined implies complete; fall back to "now" defensively.
            let finished = h.completed_at().unwrap_or_else(|| self.sim.now());
            let hidden = if done_at_call {
                finished.saturating_since(h.submitted_at())
            } else {
                wait_from.saturating_since(h.submitted_at())
            };
            self.stats.borrow_mut().overlap_saved += hidden;
            if let Err(e) = result {
                first_err.get_or_insert(e);
            }
        }
        self.flushed.set(true);
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// True when no writes are pending.
    pub(crate) fn is_flushed(&self) -> bool {
        self.flushed.get() || self.outstanding() == 0
    }
}

impl Drop for WriteBehindFile {
    fn drop(&mut self) {
        // Dropping with unflushed writes silently loses the durability
        // guarantee the caller thinks it has; fail loudly in tests.
        debug_assert!(
            self.is_flushed(),
            "WriteBehindFile dropped with unflushed writes — call flush()"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragon_machine::{Machine, MachineConfig};
    use paragon_pfs::{pattern_slice, IoMode, OpenOptions, ParallelFs, StripeAttrs};

    const KB: u64 = 1024;

    fn with_writer<F, T>(cfg: WriteBehindConfig, body: F) -> T
    where
        F: FnOnce(WriteBehindFile) -> std::pin::Pin<Box<dyn std::future::Future<Output = T>>>
            + 'static,
        T: 'static,
    {
        let sim = Sim::new(21);
        let machine = Rc::new(Machine::new(&sim, MachineConfig::tiny_instant(1, 2)));
        let pfs = ParallelFs::new(machine);
        let h = sim.spawn(async move {
            let id = pfs
                .create("/pfs/wb", StripeAttrs::across(2, 16 * KB))
                .await
                .unwrap();
            let f = pfs
                .open(0, 1, id, IoMode::MAsync, OpenOptions::default())
                .unwrap();
            body(WriteBehindFile::new(f, cfg)).await
        });
        sim.run();
        h.try_take().expect("body completed")
    }

    #[test]
    fn data_lands_after_flush() {
        let ok = with_writer(WriteBehindConfig::prototype(), |wb| {
            Box::pin(async move {
                for i in 0..8u64 {
                    wb.write(pattern_slice(5, i * 32 * KB, 32 * 1024))
                        .await
                        .unwrap();
                }
                wb.flush().await.unwrap();
                let back = wb.file.transfer_read(0, 256 * 1024).await.unwrap();
                back == pattern_slice(5, 0, 256 * 1024)
            })
        });
        assert!(ok);
    }

    #[test]
    fn window_bounds_outstanding_writes() {
        let stats = with_writer(
            WriteBehindConfig {
                max_outstanding: 2,
                copy_bw: 1e12,
            },
            |wb| {
                Box::pin(async move {
                    for i in 0..6u64 {
                        wb.write(pattern_slice(5, i * 16 * KB, 16 * 1024))
                            .await
                            .unwrap();
                        assert!(wb.outstanding() <= 2);
                    }
                    wb.flush().await.unwrap();
                    wb.stats()
                })
            },
        );
        assert_eq!(stats.writes, 6);
        assert_eq!(stats.bytes, 6 * 16 * KB);
    }

    #[test]
    fn flush_is_idempotent_and_required() {
        let ok = with_writer(WriteBehindConfig::prototype(), |wb| {
            Box::pin(async move {
                wb.write(Bytes::from(vec![7u8; 1024])).await.unwrap();
                assert!(!wb.is_flushed());
                wb.flush().await.unwrap();
                assert!(wb.is_flushed());
                wb.flush().await.unwrap(); // idempotent
                true
            })
        });
        assert!(ok);
    }

    #[test]
    fn overlap_is_accounted() {
        let stats = with_writer(WriteBehindConfig::prototype(), |wb| {
            Box::pin(async move {
                let sim = wb.file.sim().clone();
                for i in 0..4u64 {
                    wb.write(pattern_slice(5, i * 16 * KB, 16 * 1024))
                        .await
                        .unwrap();
                    // Compute while the transfer runs.
                    sim.sleep(SimDuration::from_millis(5)).await;
                }
                wb.flush().await.unwrap();
                wb.stats()
            })
        });
        assert!(stats.overlap_saved > SimDuration::ZERO);
        assert_eq!(stats.stalls, 0);
    }
}
