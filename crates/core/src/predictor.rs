//! Access predictors: where will this node's next read land?
//!
//! The prototype's prediction is "totally driven by the application's
//! access requests": under M_RECORD, node `i`'s requests walk the file in
//! strides of `N × size`, so the next request is fully determined by the
//! current one. The trait also covers the paper's future-work directions:
//! per-node sequential streams (M_ASYNC), broadcast reuse (M_GLOBAL), and
//! a general stride detector for strided workloads.

use paragon_pfs::IoMode;

/// Predicts future request offsets from the observed request stream.
pub(crate) trait Predictor {
    /// Record an actual demand request.
    fn observe(&mut self, offset: u64, len: u32);

    /// Offset of the `k`-th next request (`k ≥ 1`) of size `len`, based on
    /// everything observed so far. `None` = no confident prediction.
    fn predict(&self, k: u32, len: u32) -> Option<u64>;
}

/// M_RECORD: node `rank` of `nprocs` reads records `rank`, `rank + N`,
/// `rank + 2N`, … — the next request is `offset + N·len`.
#[derive(Debug)]
pub(crate) struct RecordPredictor {
    nprocs: u64,
    last: Option<(u64, u32)>,
}

impl RecordPredictor {
    /// Predictor for an `nprocs`-process M_RECORD open.
    pub(crate) fn new(nprocs: usize) -> Self {
        assert!(nprocs > 0);
        RecordPredictor {
            nprocs: nprocs as u64,
            last: None,
        }
    }
}

impl Predictor for RecordPredictor {
    fn observe(&mut self, offset: u64, len: u32) {
        self.last = Some((offset, len));
    }

    fn predict(&self, k: u32, len: u32) -> Option<u64> {
        let (offset, last_len) = self.last?;
        // M_RECORD requires equal sizes; a size change resets confidence.
        if last_len != len {
            return None;
        }
        Some(offset + self.nprocs * len as u64 * k as u64)
    }
}

/// Sequential stream: next request is `offset + len` (M_ASYNC and
/// M_GLOBAL round streams, and any single-node sequential reader).
#[derive(Debug, Default)]
pub(crate) struct SequentialPredictor {
    last: Option<(u64, u32)>,
}

impl SequentialPredictor {
    /// Fresh sequential predictor.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl Predictor for SequentialPredictor {
    fn observe(&mut self, offset: u64, len: u32) {
        self.last = Some((offset, len));
    }

    fn predict(&self, k: u32, len: u32) -> Option<u64> {
        let (offset, last_len) = self.last?;
        Some(offset + last_len as u64 + (k as u64 - 1) * len as u64)
    }
}

/// General stride detector: after two consecutive requests with the same
/// inter-request stride, predicts the stride continues. Covers strided
/// numerical workloads; goes silent (predicts nothing) on random access,
/// which is exactly the safe behaviour.
#[derive(Debug, Default)]
pub(crate) struct StridedPredictor {
    prev: Option<u64>,
    last: Option<u64>,
    confirmed_stride: Option<i64>,
}

impl StridedPredictor {
    /// Fresh stride detector.
    pub(crate) fn new() -> Self {
        Self::default()
    }
}

impl Predictor for StridedPredictor {
    fn observe(&mut self, offset: u64, _len: u32) {
        if let Some(last) = self.last {
            let stride = offset as i64 - last as i64;
            let candidate = match self.prev {
                Some(prev) if last as i64 - prev as i64 == stride => Some(stride),
                // First pair: tentatively adopt the stride.
                None => Some(stride),
                _ => None,
            };
            self.confirmed_stride = candidate;
        }
        self.prev = self.last;
        self.last = Some(offset);
    }

    fn predict(&self, k: u32, _len: u32) -> Option<u64> {
        let stride = self.confirmed_stride?;
        let last = self.last? as i64;
        let target = last + stride * k as i64;
        u64::try_from(target).ok()
    }
}

/// The predictor the prototype installs for a given open mode. M_RECORD
/// is the paper's implementation; M_ASYNC and M_GLOBAL are the
/// future-work extensions — M_GLOBAL rounds walk the file sequentially,
/// while M_ASYNC promises *no* structure, so the engine installs the
/// adaptive stride detector (it locks onto sequential, record-interleaved,
/// or any other constant-stride stream after two requests). `None` for
/// shared-pointer modes: the next offset depends on other nodes' arrival
/// order, which the client cannot anticipate — prefetching there is out
/// of scope, as in the paper.
pub(crate) fn for_mode(mode: IoMode, nprocs: usize) -> Option<Box<dyn Predictor>> {
    match mode {
        IoMode::MRecord => Some(Box::new(RecordPredictor::new(nprocs))),
        IoMode::MGlobal => Some(Box::new(SequentialPredictor::new())),
        IoMode::MAsync => Some(Box::new(StridedPredictor::new())),
        IoMode::MUnix | IoMode::MLog | IoMode::MSync => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_predicts_node_strides() {
        let mut p = RecordPredictor::new(8);
        assert_eq!(p.predict(1, 1024), None); // nothing observed yet
        p.observe(2 * 1024, 1024); // rank 2's first record
        assert_eq!(p.predict(1, 1024), Some(2 * 1024 + 8 * 1024));
        assert_eq!(p.predict(3, 1024), Some(2 * 1024 + 24 * 1024));
        // A size change under M_RECORD invalidates the prediction.
        assert_eq!(p.predict(1, 2048), None);
    }

    #[test]
    fn sequential_predicts_next_byte() {
        let mut p = SequentialPredictor::new();
        p.observe(1000, 500);
        assert_eq!(p.predict(1, 500), Some(1500));
        assert_eq!(p.predict(2, 500), Some(2000));
        // Mixed sizes chain correctly: next starts after the last request.
        assert_eq!(p.predict(1, 100), Some(1500));
        assert_eq!(p.predict(2, 100), Some(1600));
    }

    #[test]
    fn strided_locks_on_and_drops_off() {
        let mut p = StridedPredictor::new();
        p.observe(0, 64);
        assert_eq!(p.predict(1, 64), None);
        p.observe(4096, 64);
        // One pair: tentative stride.
        assert_eq!(p.predict(1, 64), Some(8192));
        p.observe(8192, 64);
        assert_eq!(p.predict(1, 64), Some(12288));
        assert_eq!(p.predict(2, 64), Some(16384));
        // Break the pattern: predictor must go silent.
        p.observe(100, 64);
        assert_eq!(p.predict(1, 64), None);
    }

    #[test]
    fn strided_handles_negative_strides() {
        let mut p = StridedPredictor::new();
        p.observe(10_000, 64);
        p.observe(8_000, 64);
        p.observe(6_000, 64);
        assert_eq!(p.predict(1, 64), Some(4_000));
        // Predicting past zero yields nothing rather than wrapping.
        assert_eq!(p.predict(4, 64), None);
    }

    #[test]
    fn for_mode_covers_the_taxonomy() {
        let after_one = |mode| {
            let mut p = for_mode(mode, 8).unwrap();
            p.observe(0, 1024);
            p.predict(1, 1024)
        };
        assert_eq!(after_one(IoMode::MRecord), Some(8 * 1024), "record stride");
        assert_eq!(after_one(IoMode::MGlobal), Some(1024), "sequential");
        assert_eq!(after_one(IoMode::MAsync), None, "stride needs a pair");
        assert!(for_mode(IoMode::MUnix, 8).is_none());
        assert!(for_mode(IoMode::MLog, 8).is_none());
        assert!(for_mode(IoMode::MSync, 8).is_none());
    }
}
