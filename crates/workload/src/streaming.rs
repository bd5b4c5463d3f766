//! The shard cursor: a [`ShardSource`] consumed in order, one shard
//! resident at a time.
//!
//! [`StreamingShards`] walks a workload in VM-index order (which, for the
//! stitched trace, is also arrival-time order) and generates each shard
//! **inline, once, when it is first needed**. It serves two readers that
//! advance independently over the same buffer:
//!
//! * [`StreamingShards::next_arrivals`] hands out the VMs a consumer
//!   wants the *arrival times* of ahead of the VMs themselves — an event
//!   queue's arrival lane, a window at a time; and
//! * [`Iterator::next`] yields each VM once, when its arrival is
//!   dispatched.
//!
//! A VM stays buffered until the second reader has taken it, so peak
//! buffered VMs is one shard plus however far the first reader ran ahead
//! when the next shard was generated — one lane window at most in a
//! simulation, none when the engine refills the lane between events
//! (tracked exactly by [`StreamingShards::peak_buffered`], asserted by
//! `crates/sim/tests/streaming_bounds.rs`). The trace never exists as a
//! whole, and its arrival times are drawn once.
//!
//! ## Determinism
//!
//! The cursor yields the *byte-identical* VM sequence of
//! [`materialize`](crate::shard::materialize) on the same source:
//!
//! * each shard's VMs come from the same per-shard generation code
//!   ([`ShardSource::shard_vms`]), driven by `(seed, shard, stream)` RNGs
//!   that owe nothing to neighbouring shards;
//! * absolute arrivals are rebased with the same running-offset
//!   accumulation (`offset += total`, then `offset + local`) the
//!   materialized prefix sum performs — the identical `f64` additions in
//!   the identical order, hence bit-equal times;
//! * generation is inline on the consuming thread, so no thread count can
//!   matter.

use crate::shard::ShardSource;
use crate::vm::VmRequest;
use std::fmt;
use std::sync::Arc;

/// A bounded-memory cursor over a [`ShardSource`]; see the module docs.
pub struct StreamingShards {
    source: Arc<dyn ShardSource>,
    total: u32,
    num_shards: u32,
    /// VMs generated and not yet yielded, arrivals already rebased to
    /// absolute time: `buf[0]` is VM `base`.
    buf: Vec<VmRequest>,
    base: u32,
    /// Global index of the next VM [`Iterator::next`] yields.
    taken: u32,
    /// Global index of the next VM [`StreamingShards::next_arrivals`]
    /// hands out. `base <= taken <= handed <= base + buf.len()`.
    handed: u32,
    /// The next shard to generate, and its absolute time offset — the
    /// running prefix sum.
    next_shard: u32,
    offset: f64,
    peak_buffered: usize,
}

impl StreamingShards {
    /// Start a cursor at VM 0. Nothing is generated until it is read.
    pub fn new(source: Arc<dyn ShardSource>) -> Self {
        StreamingShards {
            total: source.total_vms(),
            num_shards: source.num_shards(),
            source,
            buf: Vec::new(),
            base: 0,
            taken: 0,
            handed: 0,
            next_shard: 0,
            offset: 0.0,
            peak_buffered: 0,
        }
    }

    /// Generate the next shard behind whatever of the buffer has not been
    /// yielded yet.
    fn load_next_shard(&mut self) {
        let (mut vms, total) = self.source.shard_vms(self.next_shard);
        debug_assert_eq!(vms.len(), self.source.shard_range(self.next_shard).len());
        // Rebase shard-local arrivals: `+=` is the same IEEE addition as
        // the materialized path's `offset + local` (f64 `+` commutes)
        // against the same running offset, so times stay bit-identical.
        let offset = self.offset;
        for vm in &mut vms {
            vm.arrival += offset;
        }
        self.offset += total;
        self.next_shard += 1;
        self.buf.drain(..(self.taken - self.base) as usize);
        self.base = self.taken;
        if self.buf.is_empty() {
            // The usual case: take the new shard's buffer, copy nothing.
            self.buf = vms;
        } else {
            self.buf.append(&mut vms);
        }
        self.peak_buffered = self.peak_buffered.max(self.buf.len());
    }

    /// The next VMs in arrival order that this method has not handed out
    /// before — up to `max` of them, fewer at the end of the resident
    /// shard, none only once the workload is exhausted — and the global
    /// index of the first. For the reader that needs arrival *times*
    /// ahead of the VMs; [`Iterator::next`] still yields every one.
    pub fn next_arrivals(&mut self, max: usize) -> (u32, &[VmRequest]) {
        if self.handed - self.base == self.buf.len() as u32 && self.next_shard < self.num_shards {
            self.load_next_shard();
        }
        let at = (self.handed - self.base) as usize;
        let n = (self.buf.len() - at).min(max);
        let first = self.handed;
        self.handed += n as u32;
        (first, &self.buf[at..at + n])
    }

    /// VMs not yet yielded (exact).
    pub fn remaining(&self) -> usize {
        (self.total - self.taken) as usize
    }

    /// Total VMs in the underlying workload.
    pub fn total_vms(&self) -> u32 {
        self.total
    }

    /// Workload name, from the source.
    pub fn label(&self) -> &str {
        self.source.label()
    }

    /// High-water mark of VMs buffered at once: one shard, plus the VMs
    /// handed out as arrivals but not yet yielded when the next shard was
    /// generated.
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Shards generated so far (consumed or in the buffer).
    pub fn shards_generated(&self) -> u32 {
        self.next_shard
    }
}

impl Iterator for StreamingShards {
    type Item = VmRequest;

    /// Yield the next VM in index order, or `None` when the workload is
    /// exhausted. Crossing a shard boundary generates the next shard,
    /// unless [`StreamingShards::next_arrivals`] already has.
    fn next(&mut self) -> Option<VmRequest> {
        if self.taken - self.base == self.buf.len() as u32 {
            if self.next_shard == self.num_shards {
                return None;
            }
            self.load_next_shard();
        }
        let vm = self.buf[(self.taken - self.base) as usize];
        self.taken += 1;
        self.handed = self.handed.max(self.taken);
        Some(vm)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

// Manual `Debug`: the source trait object is opaque; summarize progress
// instead.
impl fmt::Debug for StreamingShards {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamingShards")
            .field("label", &self.source.label())
            .field("taken", &self.taken)
            .field("handed", &self.handed)
            .field("total_vms", &self.total)
            .field("next_shard", &self.next_shard)
            .field("peak_buffered", &self.peak_buffered)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::azure::{AzureProcess, AzureShards, AzureSubset};
    use crate::shard::{materialize, SHARD_SIZE};
    use crate::synthetic::SyntheticShards;
    use crate::trace::TraceShards;
    use crate::{SyntheticConfig, Workload};
    use proptest::prelude::*;

    fn source(n: u32, seed: u64) -> Arc<dyn ShardSource> {
        Arc::new(SyntheticShards::new(&SyntheticConfig::small(n, seed)))
    }

    /// The cursor must reproduce the materialized VM sequence bit-for-bit
    /// — including arrivals across shard boundaries.
    #[test]
    fn cursor_matches_materialized_byte_for_byte() {
        let n = 3 * SHARD_SIZE + 123;
        let expect = materialize(&*source(n, 42));
        let got: Vec<VmRequest> = StreamingShards::new(source(n, 42)).collect();
        assert_eq!(got, expect);
    }

    /// Read by `next` alone the cursor holds exactly one shard. (The name
    /// predates the single buffer; two shards was the prefetching
    /// cursor's bound.)
    #[test]
    fn peak_buffered_is_bounded_by_two_shards() {
        let n = 5 * SHARD_SIZE + 7;
        let mut cursor = StreamingShards::new(source(n, 9));
        let mut count = 0u32;
        while cursor.next().is_some() {
            count += 1;
            assert!(cursor.peak_buffered() <= SHARD_SIZE as usize);
        }
        assert_eq!(count, n);
        assert_eq!(cursor.remaining(), 0);
        assert_eq!(cursor.peak_buffered(), SHARD_SIZE as usize);
        assert_eq!(cursor.shards_generated(), cursor.source.num_shards());
    }

    #[test]
    fn remaining_counts_down_exactly() {
        let n = SHARD_SIZE + 10;
        let mut cursor = StreamingShards::new(source(n, 3));
        assert_eq!(cursor.remaining(), n as usize);
        assert_eq!(cursor.total_vms(), n);
        assert_eq!(cursor.label(), "synthetic");
        for left in (0..n as usize).rev() {
            let vm = cursor.next().expect("not exhausted");
            assert_eq!(vm.id.0 as usize, n as usize - 1 - left);
            assert_eq!(cursor.remaining(), left);
        }
        assert!(cursor.next().is_none());
        assert!(cursor.next().is_none(), "exhaustion is stable");
    }

    #[test]
    fn empty_workload_yields_nothing() {
        let mut cursor = StreamingShards::new(source(0, 1));
        assert!(cursor.next_arrivals(8).1.is_empty());
        assert!(cursor.next().is_none());
        assert_eq!(cursor.remaining(), 0);
        assert_eq!(cursor.peak_buffered(), 0);
        assert_eq!(cursor.shards_generated(), 0);
    }

    /// Drive both readers the way a simulation does — the arrivals reader
    /// a `window` at a time, the VM reader trailing it by up to `lag`
    /// (a full window included, so a shard is generated while the tail of
    /// the previous one is still owed) — and check every byte both hand
    /// out against `expect`, and the buffer against its bound.
    fn check_cursor(
        source: Arc<dyn ShardSource>,
        expect: &[VmRequest],
        window: usize,
        lag: usize,
    ) -> Result<(), TestCaseError> {
        let mut cursor = StreamingShards::new(source);
        let mut ahead: std::collections::VecDeque<VmRequest> = Default::default();
        let (mut handed, mut taken) = (0usize, 0usize);
        loop {
            while ahead.len() > lag || (handed == expect.len() && !ahead.is_empty()) {
                let vm = cursor.next().expect("a handed-out VM is still owed");
                prop_assert_eq!(Some(vm), ahead.pop_front());
                prop_assert_eq!(vm, expect[taken]);
                taken += 1;
            }
            let (first, vms) = cursor.next_arrivals(window);
            if vms.is_empty() {
                break;
            }
            prop_assert_eq!(first as usize, handed);
            prop_assert!(vms.len() <= window);
            prop_assert_eq!(vms, &expect[handed..handed + vms.len()]);
            handed += vms.len();
            ahead.extend(vms.iter().copied());
        }
        prop_assert_eq!((handed, taken), (expect.len(), expect.len()));
        prop_assert!(cursor.next().is_none());
        prop_assert!(cursor.peak_buffered() <= SHARD_SIZE as usize + lag);
        Ok(())
    }

    /// The sizes shard arithmetic can get wrong.
    fn ragged_sizes() -> impl Strategy<Value = u32> {
        prop_oneof![
            Just(0u32),
            Just(1),
            Just(SHARD_SIZE - 1),
            Just(SHARD_SIZE),
            Just(SHARD_SIZE + 1),
            Just(3 * SHARD_SIZE + 123),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every kind of source through the one cursor, at ragged sizes:
        /// both readers yield `shard::materialize`'s bytes while the
        /// arrivals reader runs up to a full window ahead across shard
        /// boundaries.
        #[test]
        fn cursor_yields_materialized_bytes_for_every_source(
            n in ragged_sizes(),
            seed in 0u64..1000,
            window in prop_oneof![Just(1usize), Just(7), Just(1024)],
            lag in prop_oneof![Just(0usize), Just(1), Just(1024)],
        ) {
            let synthetic = source(n, seed);
            let trace = materialize(&*synthetic);
            check_cursor(Arc::clone(&synthetic), &trace, window, lag)?;

            let held = Workload::from_vms("held", trace.clone());
            check_cursor(Arc::new(TraceShards::new(held)), &trace, window, lag)?;
        }

        /// Likewise the Azure-like generator (its three fixed sizes).
        #[test]
        fn cursor_yields_materialized_bytes_for_azure(
            subset in prop_oneof![
                Just(AzureSubset::N3000),
                Just(AzureSubset::N5000),
                Just(AzureSubset::N7500),
            ],
            seed in 0u64..1000,
            lag in prop_oneof![Just(0usize), Just(1024)],
        ) {
            let azure: Arc<dyn ShardSource> =
                Arc::new(AzureShards::new(subset, seed, AzureProcess::default()));
            let trace = materialize(&*azure);
            check_cursor(azure, &trace, 1024, lag)?;
        }
    }
}
