//! Sharded, deterministic trace generation.
//!
//! Drawn from a single RNG stream, VM `i + 1`'s draws would depend on how
//! many values VM `i` consumed, and no VM could be drawn without all those
//! before it. This module breaks that dependency by splitting the index
//! space into **fixed-size shards** of [`SHARD_SIZE`] VMs and giving every
//! shard its own independently-derived RNG streams:
//!
//! * **Stream derivation** — each `(seed, shard, stream)` triple is mixed
//!   through a SplitMix64-style finalizer ([`stream_seed`]) into the seed of
//!   a fresh [`StdRng`], so shard streams are statistically independent and
//!   a shard can be generated without touching any other shard's state.
//!   Each shard draws from *two* streams: [`Stream::Arrivals`] for
//!   interarrival deltas and [`Stream::Resources`] for per-VM resource and
//!   lifetime draws — changing the arrival process therefore cannot perturb
//!   the resource sequence (and vice versa).
//! * **Stitching** — shards generate *interarrival deltas*; absolute
//!   arrival times are recovered by a prefix sum over the per-shard delta
//!   totals (the crate-internal `generate_stitched` helper the generators
//!   share). Within a shard the running sum is the shard's local time, so
//!   the stitched sequence is exactly `offset[shard] + local_cumsum` and
//!   monotonicity is preserved bit-for-bit.
//! * **Determinism** — shard boundaries depend only on [`SHARD_SIZE`], so
//!   a shard's VMs are the same whoever asks for them. [`materialize`] —
//!   for tests and references — generates and stitches the shards in
//!   one loop on the calling thread; a run never materializes: it
//!   generates one shard at a time, inline ([`crate::StreamingShards`]),
//!   and both produce the same bytes.
//!
//! This sharded stream is the canonical trace as of trace version 2 (the
//! PR that introduced this module): the same seed yields a different — but
//! equally distributed — trace than the legacy single-stream generator.

use crate::vm::VmRequest;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// Number of VMs per generation shard. Fixed, so shard boundaries (and
/// therefore every draw) never depend on how the trace is consumed.
pub const SHARD_SIZE: u32 = 4096;

/// Which of a shard's independent RNG streams to derive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stream {
    /// Interarrival deltas (the Poisson process).
    Arrivals,
    /// Per-VM resource and lifetime draws.
    Resources,
}

impl Stream {
    /// Domain-separation constant mixed into the stream seed.
    const fn salt(self) -> u64 {
        match self {
            // Odd constants (golden ratio / Weyl-style) keep the
            // multiplicative mix a bijection on u64.
            Stream::Arrivals => 0x9E37_79B9_7F4A_7C15,
            Stream::Resources => 0xD1B5_4A32_D192_ED03,
        }
    }
}

/// SplitMix64 finalizer: a bijective avalanche over the packed inputs.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the RNG seed of one `(seed, shard, stream)` triple.
///
/// SplitMix-style: the shard index (offset by 1 so shard 0 still
/// perturbs) is spread by the stream's odd constant, avalanched, folded
/// into the workload seed, and avalanched again. Distinct triples give
/// unrelated seeds; identical triples always give the same one.
pub fn stream_seed(seed: u64, shard: u32, stream: Stream) -> u64 {
    mix(seed ^ mix((u64::from(shard) + 1).wrapping_mul(stream.salt())))
}

/// A fresh [`StdRng`] positioned at the start of one shard stream.
#[expect(
    clippy::disallowed_methods,
    reason = "the sanctioned seeding site: stream_seed derives each shard stream"
)]
pub fn stream_rng(seed: u64, shard: u32, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(stream_seed(seed, shard, stream))
}

/// A workload that can generate any single shard independently — the lazy
/// counterpart of the closure `generate_stitched` fans out over.
///
/// This is what makes **on-demand** runs possible: because every shard
/// draws from its own `(seed, shard, stream)`-derived RNGs, shard `k` can
/// be produced without generating shards `0..k` first, and the absolute
/// time offset of shard `k+1` is known as soon as shard `k`'s delta total
/// is — so a cursor consuming shards in index order ([`crate::StreamingShards`])
/// needs only a running `offset += total` accumulator, performing *the
/// same sequential `f64` additions in the same order* as the materialized
/// prefix sum in [`materialize`]. That, plus sharing the per-shard
/// generation code verbatim between the two paths, is the determinism
/// argument: a cursor's VMs and a materialized trace are byte-identical
/// by construction (pinned by the generator tests, the cursor's proptest
/// and `crates/sim/tests/hot_path_differential.rs`).
///
/// Implementations must be shareable across threads (`Send + Sync`) — a
/// run, and the cursor it owns, may move to an experiment worker — and
/// must derive all randomness from per-shard streams, never from mutable
/// state.
pub trait ShardSource: Send + Sync {
    /// Total number of VMs in the workload.
    fn total_vms(&self) -> u32;

    /// Workload name for reports (e.g. `"synthetic"`, `"Azure-7500"`).
    fn label(&self) -> &str;

    /// Generate shard `shard`'s VMs with arrivals in **shard-local** time
    /// (the running sum of the shard's interarrival deltas, starting at
    /// zero), plus the shard's delta total (the final running sum).
    ///
    /// Must be a pure function of `(self, shard)`: the cursor and
    /// [`materialize`] must get the same VMs from it.
    fn shard_vms(&self, shard: u32) -> (Vec<VmRequest>, f64);

    /// The shard's delta total alone — `shard_vms(shard).1`, bit for bit.
    /// Generators override this to walk only the [`Stream::Arrivals`]
    /// stream; its one caller is [`ShardSource::span_units`].
    fn shard_total(&self, shard: u32) -> f64 {
        self.shard_vms(shard).1
    }

    /// The most any one request of the workload can ask for of each
    /// resource — `(cpu_cores, ram_gb, storage_gb)`, each an upper bound
    /// over every VM any shard yields. A run decides from this, before its
    /// first event, whether every VM fits one box (the paper's §2
    /// assumption): demand is monotone in each amount, so when the bound
    /// fits, every VM does.
    fn largest_request(&self) -> (u32, u32, u32);

    /// Number of [`SHARD_SIZE`] shards covering the workload.
    fn num_shards(&self) -> u32 {
        self.total_vms().div_ceil(SHARD_SIZE)
    }

    /// Global VM-index range of shard `shard` (the last shard may be
    /// ragged).
    fn shard_range(&self, shard: u32) -> Range<u32> {
        let lo = shard * SHARD_SIZE;
        let hi = lo.saturating_add(SHARD_SIZE).min(self.total_vms());
        lo..hi
    }

    /// Absolute arrival time of the workload's last VM (0 when empty) —
    /// the span the fault scenario stretches over.
    ///
    /// The default walks every shard's delta total with *the same
    /// sequential `f64` additions* as the materialized prefix sum, so for
    /// delta-based generators it is bit-identical to
    /// `materialize(self).last().arrival`. Sources whose "shard-local"
    /// times are already absolute (per-shard totals of `0.0`, e.g.
    /// [`crate::TraceShards`]) must override it to report the true last
    /// arrival.
    fn span_units(&self) -> f64 {
        let mut span = 0.0f64;
        for shard in 0..self.num_shards() {
            span += self.shard_total(shard);
        }
        span
    }
}

/// Materialize a [`ShardSource`] into the full VM vector: every shard
/// generated in index order, absolute arrivals stitched by the prefix sum
/// over per-shard delta totals. This is the oracle the on-demand cursor is
/// proven against — both paths run the same per-shard code and the same
/// offset additions.
pub fn materialize(source: &dyn ShardSource) -> Vec<VmRequest> {
    generate_stitched(source.total_vms(), |shard, range| {
        let out = source.shard_vms(shard);
        debug_assert_eq!(out.0.len(), range.len());
        out
    })
}

/// Generate `n` VM requests shard by shard and stitch absolute arrival
/// times.
///
/// `shard_vms(shard, range)` must return the requests for index `range`
/// (arrivals expressed in *shard-local* time, i.e. the running sum of that
/// shard's interarrival deltas starting at zero) together with the shard's
/// total delta — the final value of that running sum. Each shard is
/// rebased as it is generated: shard `s` starts where the stitched time of
/// shards `0..s` ends (`local + offset`, the addition `StreamingShards`
/// performs — IEEE addition commutes, so the bits equal `offset + local`),
/// and is then freed, so stitching never holds a second copy of the trace.
pub(crate) fn generate_stitched<F>(n: u32, shard_vms: F) -> Vec<VmRequest>
where
    F: Fn(u32, Range<u32>) -> (Vec<VmRequest>, f64),
{
    let mut offset = 0.0f64;
    let mut out = Vec::with_capacity(n as usize);
    for shard in 0..n.div_ceil(SHARD_SIZE) {
        let lo = shard * SHARD_SIZE;
        let hi = lo.saturating_add(SHARD_SIZE).min(n);
        let (vms, total) = shard_vms(shard, lo..hi);
        debug_assert_eq!(vms.len(), (hi - lo) as usize);
        out.extend(vms.into_iter().map(|mut vm| {
            vm.arrival += offset;
            vm
        }));
        offset += total;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmId;
    use rand::RngCore;

    #[test]
    fn stream_seeds_are_deterministic_and_distinct() {
        let a = stream_seed(42, 0, Stream::Arrivals);
        assert_eq!(a, stream_seed(42, 0, Stream::Arrivals));
        // Distinct along every axis: seed, shard, stream.
        assert_ne!(a, stream_seed(43, 0, Stream::Arrivals));
        assert_ne!(a, stream_seed(42, 1, Stream::Arrivals));
        assert_ne!(a, stream_seed(42, 0, Stream::Resources));
    }

    #[test]
    fn stream_rngs_produce_unrelated_streams() {
        let mut a = stream_rng(7, 0, Stream::Arrivals);
        let mut b = stream_rng(7, 1, Stream::Arrivals);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
        // And re-deriving the same shard restarts the same stream.
        let mut a2 = stream_rng(7, 0, Stream::Arrivals);
        let xs2: Vec<u64> = (0..16).map(|_| a2.next_u64()).collect();
        assert_eq!(xs, xs2);
    }

    /// A toy generator: every VM has delta 1, so the stitched arrival of
    /// VM `i` must be exactly `i + 1` across shard boundaries.
    fn unit_delta_shard(_: u32, range: std::ops::Range<u32>) -> (Vec<VmRequest>, f64) {
        let mut t = 0.0;
        let vms = range
            .map(|i| {
                t += 1.0;
                VmRequest {
                    id: VmId(i),
                    cpu_cores: 1,
                    ram_gb: 1,
                    storage_gb: 128,
                    arrival: t,
                    lifetime: 10.0,
                }
            })
            .collect();
        (vms, t)
    }

    #[test]
    fn stitching_recovers_absolute_arrivals_across_shards() {
        let n = SHARD_SIZE * 2 + 17; // three shards, last one ragged
        let vms = generate_stitched(n, unit_delta_shard);
        assert_eq!(vms.len(), n as usize);
        for (i, vm) in vms.iter().enumerate() {
            assert_eq!(vm.id, VmId(i as u32));
            assert_eq!(vm.arrival, (i + 1) as f64, "vm {i}");
        }
    }

    #[test]
    fn empty_and_subshard_inputs_work() {
        assert!(generate_stitched(0, unit_delta_shard).is_empty());
        let vms = generate_stitched(3, unit_delta_shard);
        assert_eq!(vms.len(), 3);
        assert_eq!(vms[2].arrival, 3.0);
    }
}
