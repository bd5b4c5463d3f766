//! Azure-2017-like workloads, histogram-matched to Figure 6 of the paper.
//!
//! The paper evaluates on the first 3000/5000/7500 VMs of the 2017 public
//! Azure trace \[5\]. The trace is not redistributable, but Figure 6 prints
//! the exact 10-bin histogram counts of CPU cores and RAM per slice. This
//! module regenerates populations whose CPU and RAM **marginals match those
//! counts exactly** (a "deck" draw: each value appears precisely its
//! published number of times, in a seeded random order), with storage fixed
//! at 128 GB as the paper assumes.
//!
//! CPU bars sit at Azure's A-series core counts {1, 2, 4, 8}; RAM bars at
//! the Azure sizes {small (≤4 GB), 7, 14, 28, 56}. Small-RAM VMs are drawn
//! from {2, 4} GB — both round to one 4 GB RAM unit, so the choice cannot
//! affect scheduling. The paper does not describe the Azure arrival
//! process; we reuse the §5.1 Poisson/staircase process with a mean
//! interarrival of 12 time units, the fastest rate at which no VM drops on
//! any slice — matching the paper's "no VMs were dropped" observation.

use crate::shard::{self, ShardSource, Stream};
use crate::synthetic::SyntheticConfig;
use crate::vm::{VmId, VmRequest, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Exp};
use serde::{Deserialize, Serialize};

/// Which slice of the Azure trace to regenerate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AzureSubset {
    /// First 3000 VMs (paper "Azure-3000").
    N3000,
    /// First 5000 VMs (paper "Azure-5000").
    N5000,
    /// First 7500 VMs (paper "Azure-7500").
    N7500,
}

impl AzureSubset {
    /// All three subsets in paper order.
    pub const ALL: [AzureSubset; 3] = [AzureSubset::N3000, AzureSubset::N5000, AzureSubset::N7500];

    /// Number of VMs in the slice.
    pub const fn len(self) -> u32 {
        match self {
            AzureSubset::N3000 => 3000,
            AzureSubset::N5000 => 5000,
            AzureSubset::N7500 => 7500,
        }
    }

    /// Slices are never empty (companion to [`AzureSubset::len`]).
    pub const fn is_empty(self) -> bool {
        false
    }

    /// Report label ("Azure-3000", …) matching the paper's x-axes.
    pub const fn label(self) -> &'static str {
        match self {
            AzureSubset::N3000 => "Azure-3000",
            AzureSubset::N5000 => "Azure-5000",
            AzureSubset::N7500 => "Azure-7500",
        }
    }

    /// Figure 6 CPU marginal: (cores, count) pairs. Counts sum to `len()`.
    pub const fn cpu_marginal(self) -> [(u32, u32); 4] {
        match self {
            AzureSubset::N3000 => [(1, 1326), (2, 1269), (4, 316), (8, 89)],
            AzureSubset::N5000 => [(1, 1931), (2, 2514), (4, 444), (8, 111)],
            AzureSubset::N7500 => [(1, 4153), (2, 2536), (4, 507), (8, 304)],
        }
    }

    /// Figure 6 RAM marginal: (GB, count) pairs; GB = 0 encodes the
    /// "small" bucket drawn from {2, 4} GB. Counts sum to `len()`.
    pub const fn ram_marginal(self) -> [(u32, u32); 5] {
        match self {
            AzureSubset::N3000 => [(0, 2591), (7, 299), (14, 15), (28, 17), (56, 78)],
            AzureSubset::N5000 => [(0, 4439), (7, 427), (14, 39), (28, 17), (56, 78)],
            AzureSubset::N7500 => [(0, 6682), (7, 488), (14, 203), (28, 19), (56, 108)],
        }
    }
}

/// Arrival/lifetime process parameters for the Azure-like workloads.
///
/// Defaults chosen so the paper's "no VMs were dropped" holds on the
/// Table 1 DDC for all three slices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AzureProcess {
    /// Mean interarrival, time units.
    pub interarrival_mean: f64,
    /// Lifetime staircase base, time units.
    pub lifetime_base: f64,
    /// Staircase increment per set.
    pub lifetime_step: f64,
    /// Requests per staircase set.
    pub lifetime_step_every: u32,
}

impl Default for AzureProcess {
    fn default() -> Self {
        AzureProcess {
            interarrival_mean: 12.0,
            lifetime_base: 6300.0,
            lifetime_step: 360.0,
            lifetime_step_every: 100,
        }
    }
}

/// Generate an Azure-like workload with the default process.
pub fn generate(subset: AzureSubset, seed: u64) -> Workload {
    generate_with(subset, seed, AzureProcess::default())
}

/// The Azure-like workload as a lazy [`ShardSource`].
///
/// Construction validates the process and performs the sequential deck
/// shuffles once (O(n) `u32`s retained for the source's lifetime — ~60 KB
/// at the largest slice, negligible next to a shard buffer); each shard's
/// per-VM draws then come from that shard's own RNG streams, so
/// [`ShardSource::shard_vms`] is a pure function of `(self, shard)` and
/// the shard cursor reproduces the materialized trace byte-for-byte.
/// [`ShardSource::shard_total`] walks only the arrivals stream — the
/// decks and the small-RAM coin never perturb arrival times.
pub struct AzureShards {
    subset: AzureSubset,
    deck_seed: u64,
    cpu_deck: Vec<u32>,
    ram_deck: Vec<u32>,
    staircase: SyntheticConfig,
    exp: Exp,
}

impl AzureShards {
    /// Validate `process`, draw the decks, and wrap everything as a shard
    /// source.
    ///
    /// # Panics
    /// On a non-finite/non-positive interarrival mean or a zero
    /// `lifetime_step_every` — the same contract as [`generate_with`].
    pub fn new(subset: AzureSubset, seed: u64, process: AzureProcess) -> Self {
        assert!(
            process.interarrival_mean.is_finite() && process.interarrival_mean > 0.0,
            "AzureProcess: interarrival_mean must be finite and > 0 (got {})",
            process.interarrival_mean
        );
        assert!(
            process.lifetime_step_every >= 1,
            "AzureProcess: lifetime_step_every must be at least 1 (got 0); \
             the staircase divides the request index by it"
        );
        let n = subset.len();
        let deck_seed = seed ^ 0xA2A2_5EED;
        #[expect(
            clippy::disallowed_methods,
            reason = "deck derivation predates and spans the shard streams; trace-v2 bytes are \
                      pinned by tests, so it must not move to stream_seed"
        )]
        let mut rng = StdRng::seed_from_u64(deck_seed);

        // Deck draws: exact marginal counts, seeded order.
        let mut cpu_deck: Vec<u32> = subset
            .cpu_marginal()
            .iter()
            .flat_map(|&(v, c)| std::iter::repeat_n(v, c as usize))
            .collect();
        let mut ram_deck: Vec<u32> = subset
            .ram_marginal()
            .iter()
            .flat_map(|&(v, c)| std::iter::repeat_n(v, c as usize))
            .collect();
        debug_assert_eq!(cpu_deck.len(), n as usize);
        debug_assert_eq!(ram_deck.len(), n as usize);
        cpu_deck.shuffle(&mut rng);
        ram_deck.shuffle(&mut rng);

        let staircase = SyntheticConfig {
            lifetime_base: process.lifetime_base,
            lifetime_step: process.lifetime_step,
            lifetime_step_every: process.lifetime_step_every,
            ..SyntheticConfig::paper(0)
        };
        let exp = Exp::new(1.0 / process.interarrival_mean).expect("positive rate");
        AzureShards {
            subset,
            deck_seed,
            cpu_deck,
            ram_deck,
            staircase,
            exp,
        }
    }
}

impl ShardSource for AzureShards {
    fn total_vms(&self) -> u32 {
        self.subset.len()
    }

    fn label(&self) -> &str {
        self.subset.label()
    }

    fn shard_vms(&self, shard_idx: u32) -> (Vec<VmRequest>, f64) {
        let mut arrivals = shard::stream_rng(self.deck_seed, shard_idx, Stream::Arrivals);
        let mut resources = shard::stream_rng(self.deck_seed, shard_idx, Stream::Resources);
        let mut t = 0.0f64;
        let vms = self
            .shard_range(shard_idx)
            .map(|i| {
                t += self.exp.sample(&mut arrivals);
                let ram_gb = match self.ram_deck[i as usize] {
                    // "Small" bucket: 2 or 4 GB, both one RAM unit.
                    0 => {
                        if resources.gen_bool(0.5) {
                            2
                        } else {
                            4
                        }
                    }
                    gb => gb,
                };
                VmRequest {
                    id: VmId(i),
                    cpu_cores: self.cpu_deck[i as usize],
                    ram_gb,
                    storage_gb: 128,
                    arrival: t,
                    lifetime: self.staircase.lifetime_of(i),
                }
            })
            .collect();
        (vms, t)
    }

    fn shard_total(&self, shard_idx: u32) -> f64 {
        // Arrivals-stream-only pass: decks, the small-RAM coin, and the
        // staircase never touch the arrivals RNG, so the delta sequence —
        // and its sum — is bit-identical to the full pass above.
        let mut arrivals = shard::stream_rng(self.deck_seed, shard_idx, Stream::Arrivals);
        let mut t = 0.0f64;
        for _ in self.shard_range(shard_idx) {
            t += self.exp.sample(&mut arrivals);
        }
        t
    }

    fn largest_request(&self) -> (u32, u32, u32) {
        // The decks' maxima; a "small" RAM card (0) draws 2 or 4 GB.
        let cpu = self.cpu_deck.iter().copied().max().unwrap_or(0);
        let ram = self.ram_deck.iter().map(|&gb| gb.max(4)).max().unwrap_or(0);
        (cpu, ram, 128)
    }
}

// Manual `Debug`: the decks are thousands of entries; summarize.
impl std::fmt::Debug for AzureShards {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AzureShards")
            .field("subset", &self.subset)
            .field("deck_seed", &self.deck_seed)
            .field("staircase", &self.staircase)
            .finish()
    }
}

/// Generate with an explicit arrival/lifetime process (ablation hook).
///
/// The deck shuffles walk one stream (they are O(n) swaps); the per-VM
/// draws — interarrival deltas and the small-RAM coin — are sharded
/// exactly like the synthetic generator (see [`crate::shard`]), so the
/// output is byte-identical to draining a [`crate::StreamingShards`]
/// cursor over [`AzureShards`]. Resource draws come from a stream separate from the
/// arrival deltas, so changing the [`AzureProcess`] moves arrivals and
/// lifetimes only, never the per-VM CPU/RAM sequence.
pub fn generate_with(subset: AzureSubset, seed: u64, process: AzureProcess) -> Workload {
    let source = AzureShards::new(subset, seed, process);
    Workload::from_vms(subset.label(), shard::materialize(&source))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 6: the regenerated CPU marginals match the paper bin-for-bin.
    #[test]
    fn cpu_marginals_match_fig6_exactly() {
        for subset in AzureSubset::ALL {
            let w = generate(subset, 11);
            for (cores, expect) in subset.cpu_marginal() {
                let got = w.vms().iter().filter(|v| v.cpu_cores == cores).count();
                assert_eq!(got as u32, expect, "{}: {cores}-core count", subset.label());
            }
        }
    }

    /// Figure 6: likewise for RAM (the small bucket collapses 2/4 GB).
    #[test]
    fn ram_marginals_match_fig6_exactly() {
        for subset in AzureSubset::ALL {
            let w = generate(subset, 11);
            for (gb, expect) in subset.ram_marginal() {
                let got = if gb == 0 {
                    w.vms().iter().filter(|v| v.ram_gb <= 4).count()
                } else {
                    w.vms().iter().filter(|v| v.ram_gb == gb).count()
                };
                assert_eq!(got as u32, expect, "{}: {gb} GB count", subset.label());
            }
        }
    }

    #[test]
    fn marginal_counts_sum_to_subset_size() {
        for subset in AzureSubset::ALL {
            let cpu_sum: u32 = subset.cpu_marginal().iter().map(|&(_, c)| c).sum();
            let ram_sum: u32 = subset.ram_marginal().iter().map(|&(_, c)| c).sum();
            assert_eq!(cpu_sum, subset.len());
            assert_eq!(ram_sum, subset.len());
        }
    }

    #[test]
    fn storage_is_fixed_128() {
        let w = generate(AzureSubset::N3000, 1);
        assert!(w.vms().iter().all(|v| v.storage_gb == 128));
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            generate(AzureSubset::N5000, 4),
            generate(AzureSubset::N5000, 4)
        );
        assert_ne!(
            generate(AzureSubset::N5000, 4),
            generate(AzureSubset::N5000, 5)
        );
    }

    #[test]
    fn arrivals_sorted_lifetimes_staircase() {
        let w = generate(AzureSubset::N7500, 2);
        assert!(w.vms().windows(2).all(|p| p[0].arrival <= p[1].arrival));
        assert_eq!(w.vms()[0].lifetime, 6300.0);
        assert_eq!(w.vms()[7499].lifetime, 6300.0 + 74.0 * 360.0);
    }

    #[test]
    fn every_vm_fits_one_box() {
        use risa_topology::TopologyConfig;
        for subset in AzureSubset::ALL {
            let w = generate(subset, 3);
            assert!(w.validate_fits(&TopologyConfig::paper()).is_ok());
        }
    }

    /// The paper's observation that storage is usually the most-contended
    /// resource for Azure workloads: unit demand of storage (2 units)
    /// exceeds CPU (≤2 units for ≤8 cores) and RAM (1 unit) for typical VMs.
    #[test]
    fn storage_dominates_unit_demand_for_typical_vms() {
        use risa_topology::{ResourceKind, TopologyConfig};
        let cfg = TopologyConfig::paper();
        let w = generate(AzureSubset::N3000, 8);
        let dominated = w
            .vms()
            .iter()
            .filter(|v| {
                let d = v.demand(&cfg);
                d.get(ResourceKind::Storage) >= d.get(ResourceKind::Cpu)
                    && d.get(ResourceKind::Storage) >= d.get(ResourceKind::Ram)
            })
            .count();
        assert!(
            dominated as f64 > 0.8 * w.len() as f64,
            "storage should dominate for most VMs, got {dominated}/{}",
            w.len()
        );
    }

    #[test]
    fn custom_process_changes_arrivals_only() {
        let fast = generate_with(
            AzureSubset::N3000,
            6,
            AzureProcess {
                interarrival_mean: 5.0,
                ..AzureProcess::default()
            },
        );
        let slow = generate_with(AzureSubset::N3000, 6, AzureProcess::default());
        let t_fast = fast.vms().last().unwrap().arrival;
        let t_slow = slow.vms().last().unwrap().arrival;
        assert!(t_fast < t_slow);
        // The property the name promises: the per-VM resource sequences are
        // identical — only the arrival process moved (resource draws come
        // from a stream independent of the arrival deltas).
        for (f, s) in fast.vms().iter().zip(slow.vms()) {
            assert_eq!(f.id, s.id);
            assert_eq!(f.cpu_cores, s.cpu_cores, "cpu sequence moved at {}", f.id);
            assert_eq!(f.ram_gb, s.ram_gb, "ram sequence moved at {}", f.id);
            assert_eq!(f.storage_gb, s.storage_gb);
        }
        assert!(fast
            .vms()
            .iter()
            .zip(slow.vms())
            .any(|(f, s)| f.arrival != s.arrival));
    }

    /// Regression: `lifetime_step_every == 0` used to reach the staircase
    /// division and die with an opaque divide-by-zero panic.
    #[test]
    #[should_panic(expected = "lifetime_step_every must be at least 1")]
    fn zero_lifetime_step_every_is_rejected_clearly() {
        let _ = generate_with(
            AzureSubset::N3000,
            1,
            AzureProcess {
                lifetime_step_every: 0,
                ..AzureProcess::default()
            },
        );
    }

    /// The arrivals-only pass must be bit-identical to the full per-shard
    /// pass's delta total (decks and the small-RAM coin draw from other
    /// streams), and the span summed from it to the last stitched arrival.
    #[test]
    fn shard_arrivals_match_full_pass_bit_for_bit() {
        let source = AzureShards::new(AzureSubset::N7500, 13, AzureProcess::default());
        assert_eq!(source.num_shards(), 2);
        for shard_idx in 0..source.num_shards() {
            let (vms, full_total) = source.shard_vms(shard_idx);
            let cheap_total = source.shard_total(shard_idx);
            assert_eq!(full_total.to_bits(), cheap_total.to_bits());
            assert_eq!(vms.last().unwrap().arrival.to_bits(), cheap_total.to_bits());
        }
        let last = generate(AzureSubset::N7500, 13)
            .vms()
            .last()
            .unwrap()
            .arrival;
        assert_eq!(source.span_units().to_bits(), last.to_bits());
    }

    /// The decks' maxima bound every VM of every slice, and are attained.
    #[test]
    fn largest_request_is_the_decks_maxima() {
        for subset in AzureSubset::ALL {
            let source = AzureShards::new(subset, 3, AzureProcess::default());
            assert_eq!(source.largest_request(), (8, 56, 128));
            let w = generate(subset, 3);
            assert_eq!(w.vms().iter().map(|v| v.cpu_cores).max(), Some(8));
            assert_eq!(w.vms().iter().map(|v| v.ram_gb).max(), Some(56));
        }
    }

    /// A streaming cursor over [`AzureShards`] reproduces the materialized
    /// trace byte-for-byte.
    #[test]
    fn streaming_cursor_matches_materialized() {
        use crate::StreamingShards;
        use std::sync::Arc;
        let expect = generate(AzureSubset::N7500, 5);
        let mut cursor = StreamingShards::new(Arc::new(AzureShards::new(
            AzureSubset::N7500,
            5,
            AzureProcess::default(),
        )));
        let got: Vec<VmRequest> = std::iter::from_fn(|| cursor.next()).collect();
        assert_eq!(got, expect.vms());
    }
}
