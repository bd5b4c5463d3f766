//! Fault injection: failure/repair processes as first-class events.
//!
//! A fault scenario runs three families of independent alternating-renewal
//! chains through the engine's future-event list, alongside the ordinary
//! arrival/departure traffic:
//!
//! * **Rack failure / repair** — every box of the rack is retracted from
//!   the schedulers ([`risa_topology::Cluster::remove_box`]); resident VMs
//!   are evacuated and re-placed through the active scheduler after a
//!   per-VM migration delay (dropped if nothing fits).
//! * **Trunk degradation / restore** — one link of a rack uplink trunk
//!   goes dark ([`risa_network::NetworkState::fail_link`]); its free
//!   bandwidth is *stranded* until restore, and in-flight grants stay
//!   charged so releases remain coherent.
//! * **Transceiver loss / replace** — the same, on a box uplink link.
//!
//! A run has a scenario only when its recipe names one
//! (`SimulationBuilder::faults`, `risa-cli run --faults`); nothing turns
//! faults on from outside the recipe.
//!
//! # Determinism
//!
//! Each chain owns an RNG seeded from `(spec.seed, component, family)`
//! with the same SplitMix64 derivation the workload shards use
//! ([`risa_workload::shard::stream_seed`]): the component index is spread
//! by an odd per-family constant, avalanched, folded into the scenario
//! seed, and avalanched again. Chains therefore never share state, draw
//! nothing from global RNGs, and advance only inside event handlers — a
//! fault scenario is a pure function of `(spec, workload span)`, so runs
//! are byte-identical at any thread count and on both arrival pipelines
//! (pinned by `tests/hot_path_differential.rs`).
//!
//! Failure onsets are gated on the workload *span* (the last arrival
//! time): a chain whose next onset lands past the span goes quiet. Repairs
//! are never gated — every failure is eventually repaired, so a drained
//! run always ends with the pristine topology (which keeps the faults-off
//! and faults-on report denominators comparable).

use rand::{SeedableRng, StdRng};
use risa_metrics::{OnlineStats, TimeWeighted};
use serde::{Deserialize, Serialize};

/// One fault scenario: per-component failure rates, repair times and the
/// evacuation cost model. Rates are **scale-free** — expressed per
/// workload span — so the same spec produces comparable churn on a
/// 100-VM smoke test and a 10M-VM run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Scenario seed: all chain RNGs derive from it.
    pub seed: u64,
    /// Expected failures of each rack per workload span.
    pub rack_failures_per_span: f64,
    /// Mean rack repair time as a fraction of the span.
    pub rack_downtime_frac: f64,
    /// Expected outages of each rack-uplink link per span.
    pub trunk_downs_per_span: f64,
    /// Mean trunk-link repair time as a fraction of the span.
    pub trunk_downtime_frac: f64,
    /// Expected losses of each box-uplink transceiver per span.
    pub xcvr_downs_per_span: f64,
    /// Mean transceiver replacement time as a fraction of the span.
    pub xcvr_downtime_frac: f64,
    /// Migration delay charged per unit of an evacuated VM's demand
    /// (paper time units): a 24-unit VM displaced by a rack failure is
    /// re-placed `24 × this` after the failure.
    pub migration_delay_per_unit: f64,
}

impl FaultSpec {
    /// The canonical churn scenario used by the differential tests and
    /// the `--faults` CLI flag.
    pub fn canonical() -> Self {
        FaultSpec::canonical_seeded(0x5EED_FA17)
    }

    /// [`FaultSpec::canonical`] with an explicit scenario seed.
    pub fn canonical_seeded(seed: u64) -> Self {
        FaultSpec {
            seed,
            rack_failures_per_span: 0.35,
            rack_downtime_frac: 0.02,
            trunk_downs_per_span: 0.08,
            trunk_downtime_frac: 0.03,
            xcvr_downs_per_span: 0.02,
            xcvr_downtime_frac: 0.04,
            migration_delay_per_unit: 0.05,
        }
    }

    /// Check that every rate, repair fraction and delay is finite and
    /// non-negative: a negative one would schedule a repair or migration
    /// in the past, or read as "never fails".
    pub fn validate(&self) -> Result<(), String> {
        for (name, value) in [
            ("rack_failures_per_span", self.rack_failures_per_span),
            ("rack_downtime_frac", self.rack_downtime_frac),
            ("trunk_downs_per_span", self.trunk_downs_per_span),
            ("trunk_downtime_frac", self.trunk_downtime_frac),
            ("xcvr_downs_per_span", self.xcvr_downs_per_span),
            ("xcvr_downtime_frac", self.xcvr_downtime_frac),
            ("migration_delay_per_unit", self.migration_delay_per_unit),
        ] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(format!(
                    "FaultSpec: {name} must be finite and >= 0 (got {value})"
                ));
            }
        }
        Ok(())
    }
}

/// Resilience metrics of one run under fault injection; `None` in
/// [`crate::RunReport::faults`] when the run had no fault scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Rack failures injected.
    pub rack_failures: u32,
    /// Rack repairs completed (== failures on a drained run).
    pub rack_repairs: u32,
    /// Rack-uplink link outages injected.
    pub trunk_link_downs: u32,
    /// Rack-uplink link restores completed.
    pub trunk_link_ups: u32,
    /// Box-uplink transceiver losses injected.
    pub xcvr_downs: u32,
    /// Box-uplink transceiver replacements completed.
    pub xcvr_ups: u32,
    /// VMs displaced by rack failures (a VM evacuated twice counts twice).
    pub evacuated: u32,
    /// Evacuated VMs successfully re-placed by the scheduler.
    pub evac_replaced: u32,
    /// Evacuated VMs dropped because nothing fit — the headline
    /// drops-under-churn number.
    pub dropped_churn: u32,
    /// Evacuated VMs whose lifetime ended while still in transit.
    pub evac_departed: u32,
    /// Mean failure→re-placement latency over re-placed VMs (time units).
    pub mean_evac_latency: f64,
    /// Mean rack failure→repair duration (time units).
    pub mean_recovery_time: f64,
    /// Time-weighted mean compute capacity (units, all kinds) stranded
    /// inside failed racks.
    pub mean_stranded_units: f64,
    /// Time-weighted mean bandwidth (Mb/s) stranded behind dark links:
    /// free capacity the schedulers cannot reach.
    pub mean_stranded_mbps: f64,
}

/// Which alternating-renewal family a chain belongs to; the per-family
/// odd constants domain-separate the RNG streams exactly like
/// [`risa_workload::shard::Stream`] separates arrival and resource draws.
#[derive(Debug, Clone, Copy)]
enum Family {
    Rack,
    TrunkLink,
    XcvrLink,
}

impl Family {
    const fn salt(self) -> u64 {
        match self {
            Family::Rack => 0xB5C0_FBCF_EC24_7A2F,
            Family::TrunkLink => 0x9E6C_63D0_876A_339B,
            Family::XcvrLink => 0xD6E8_FEB8_6659_FD93,
        }
    }
}

/// SplitMix64 finalizer (same avalanche as `risa_workload::shard`).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn chain_seed(seed: u64, component: u64, family: Family) -> u64 {
    mix(seed ^ mix((component + 1).wrapping_mul(family.salt())))
}

/// Exponential draw with the given mean (inverse CDF on `1 − [0,1)`, so
/// the argument of `ln` is strictly positive).
fn exp_draw(rng: &mut StdRng, mean: f64) -> f64 {
    let u = 1.0 - rand::next_f64(rng);
    if mean.is_finite() {
        -mean * u.ln()
    } else {
        // Still consume a draw so a quiet family leaves every other
        // chain's stream untouched.
        f64::INFINITY
    }
}

/// One component's alternating failure/repair process.
#[derive(Debug)]
pub(crate) struct Chain {
    rng: StdRng,
    up_mean: f64,
    down_mean: f64,
}

impl Chain {
    #[expect(
        clippy::disallowed_methods,
        reason = "the sanctioned seeding site: chain_seed derives each component's stream"
    )]
    fn new(spec_seed: u64, component: u64, family: Family, up_mean: f64, down_mean: f64) -> Self {
        Chain {
            rng: StdRng::seed_from_u64(chain_seed(spec_seed, component, family)),
            up_mean,
            down_mean,
        }
    }

    /// Next healthy interval (time to the next failure onset).
    pub(crate) fn uptime(&mut self) -> f64 {
        exp_draw(&mut self.rng, self.up_mean)
    }

    /// Next repair duration.
    pub(crate) fn downtime(&mut self) -> f64 {
        exp_draw(&mut self.rng, self.down_mean)
    }
}

/// Builds the per-family chain vectors for a scenario over a topology of
/// `racks` racks, `boxes` boxes, `trunk_width` links per rack uplink and
/// `xcvr_width` links per box uplink. `span` is the workload span the
/// scale-free rates are resolved against.
#[derive(Debug)]
pub(crate) struct ChainSet {
    pub(crate) racks: Vec<Chain>,
    /// Rack-major: chain of link `l` of rack `r` is at `r * width + l`.
    pub(crate) trunk_links: Vec<Chain>,
    pub(crate) trunk_width: u16,
    /// Box-major: chain of link `l` of box `b` is at `b * width + l`.
    pub(crate) xcvr_links: Vec<Chain>,
    pub(crate) xcvr_width: u16,
}

impl ChainSet {
    pub(crate) fn new(
        spec: &FaultSpec,
        span: f64,
        racks: u16,
        boxes: u32,
        trunk_width: u16,
        xcvr_width: u16,
    ) -> Self {
        // A rate of zero (or a zero span) means "this family never
        // fails": encode it as an infinite mean uptime, which exp_draw
        // maps to an onset past any horizon.
        let up_mean = |per_span: f64| {
            if per_span > 0.0 && span > 0.0 {
                span / per_span
            } else {
                f64::INFINITY
            }
        };
        let chains = |n: u64, family: Family, per_span: f64, down_frac: f64| {
            (0..n)
                .map(|c| Chain::new(spec.seed, c, family, up_mean(per_span), span * down_frac))
                .collect()
        };
        ChainSet {
            racks: chains(
                u64::from(racks),
                Family::Rack,
                spec.rack_failures_per_span,
                spec.rack_downtime_frac,
            ),
            trunk_links: chains(
                u64::from(racks) * u64::from(trunk_width),
                Family::TrunkLink,
                spec.trunk_downs_per_span,
                spec.trunk_downtime_frac,
            ),
            trunk_width,
            xcvr_links: chains(
                u64::from(boxes) * u64::from(xcvr_width),
                Family::XcvrLink,
                spec.xcvr_downs_per_span,
                spec.xcvr_downtime_frac,
            ),
            xcvr_width,
        }
    }

    /// Chain of link `link` of rack `rack`'s uplink trunk.
    pub(crate) fn trunk_chain(&mut self, rack: u16, link: u16) -> &mut Chain {
        &mut self.trunk_links[rack as usize * self.trunk_width as usize + link as usize]
    }

    /// Chain of transceiver `link` of box `box_idx`'s uplink trunk.
    pub(crate) fn xcvr_chain(&mut self, box_idx: u32, link: u16) -> &mut Chain {
        &mut self.xcvr_links[box_idx as usize * self.xcvr_width as usize + link as usize]
    }
}

/// A VM displaced by a rack failure, travelling to its re-placement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Migration {
    /// The demand to re-place (recovered from the released grants).
    pub(crate) demand: risa_topology::UnitDemand,
    /// When the rack failed (for the evacuation-latency metric).
    pub(crate) evacuated_at: f64,
}

/// Per-run fault bookkeeping carried by the world.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FaultTallies {
    pub(crate) rack_failures: u32,
    pub(crate) rack_repairs: u32,
    pub(crate) trunk_link_downs: u32,
    pub(crate) trunk_link_ups: u32,
    pub(crate) xcvr_downs: u32,
    pub(crate) xcvr_ups: u32,
    pub(crate) evacuated: u32,
    pub(crate) evac_replaced: u32,
    pub(crate) dropped_churn: u32,
    pub(crate) evac_departed: u32,
}

/// Aggregated resilience accumulators (the [`FaultReport`] inputs that
/// need more than a counter).
#[derive(Debug)]
pub(crate) struct FaultMeters {
    pub(crate) evac_latency: OnlineStats,
    pub(crate) recovery: OnlineStats,
    pub(crate) stranded_units: TimeWeighted,
    pub(crate) stranded_mbps: TimeWeighted,
}

impl FaultMeters {
    pub(crate) fn new() -> Self {
        FaultMeters {
            evac_latency: OnlineStats::new(),
            recovery: OnlineStats::new(),
            stranded_units: TimeWeighted::new(0.0, 0.0),
            stranded_mbps: TimeWeighted::new(0.0, 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_streams_are_deterministic_and_independent() {
        let mut a = Chain::new(7, 3, Family::Rack, 100.0, 10.0);
        let mut b = Chain::new(7, 3, Family::Rack, 100.0, 10.0);
        let draws_a: Vec<f64> = (0..8).map(|_| a.uptime()).collect();
        let draws_b: Vec<f64> = (0..8).map(|_| b.uptime()).collect();
        assert_eq!(draws_a, draws_b, "same (seed, component, family)");

        let mut other_component = Chain::new(7, 4, Family::Rack, 100.0, 10.0);
        let mut other_family = Chain::new(7, 3, Family::TrunkLink, 100.0, 10.0);
        assert_ne!(draws_a[0], other_component.uptime());
        assert_ne!(draws_a[0], other_family.uptime());
        assert!(draws_a.iter().all(|&d| d.is_finite() && d >= 0.0));
    }

    #[test]
    fn zero_rate_or_zero_span_never_fires() {
        let spec = FaultSpec {
            rack_failures_per_span: 0.0,
            ..FaultSpec::canonical()
        };
        let mut set = ChainSet::new(&spec, 1000.0, 2, 4, 2, 2);
        assert_eq!(set.racks[0].uptime(), f64::INFINITY);
        // Zero span: every family quiet.
        let mut set = ChainSet::new(&FaultSpec::canonical(), 0.0, 2, 4, 2, 2);
        assert_eq!(set.racks[0].uptime(), f64::INFINITY);
        assert_eq!(set.trunk_links[0].uptime(), f64::INFINITY);
        assert_eq!(set.xcvr_links[0].uptime(), f64::INFINITY);
    }

    #[test]
    fn chain_set_covers_every_component() {
        let set = ChainSet::new(&FaultSpec::canonical(), 500.0, 18, 108, 16, 8);
        assert_eq!(set.racks.len(), 18);
        assert_eq!(set.trunk_links.len(), 18 * 16);
        assert_eq!(set.xcvr_links.len(), 108 * 8);
    }

    #[test]
    fn canonical_seeds_are_pinned() {
        // The seeds the canonical scenario and `canonical_seeded` pin.
        assert_eq!(FaultSpec::canonical().seed, 0x5EED_FA17);
        assert_eq!(FaultSpec::canonical_seeded(9).seed, 9);
        assert_eq!(
            FaultSpec::canonical_seeded(9),
            FaultSpec {
                seed: 9,
                ..FaultSpec::canonical()
            }
        );
    }

    #[test]
    fn spec_serde_roundtrip() {
        let spec = FaultSpec::canonical_seeded(42);
        let back = FaultSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn report_serde_roundtrip() {
        let r = FaultReport {
            rack_failures: 3,
            rack_repairs: 3,
            trunk_link_downs: 5,
            trunk_link_ups: 5,
            xcvr_downs: 1,
            xcvr_ups: 1,
            evacuated: 12,
            evac_replaced: 10,
            dropped_churn: 1,
            evac_departed: 1,
            mean_evac_latency: 1.25,
            mean_recovery_time: 80.0,
            mean_stranded_units: 12.5,
            mean_stranded_mbps: 1e5,
        };
        let back = FaultReport::from_value(&r.to_value()).unwrap();
        assert_eq!(r, back);
    }
}
