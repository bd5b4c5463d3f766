//! The paper's synthetic random workload (§5.1).
//!
//! > "A VM can have a random amount of CPU cores from 1 to 32 cores and a
//! > random amount of RAM from 1 to 32 GB. Storage for every VM is 128 GB.
//! > Requests are produced dynamically based on a Poisson distribution with
//! > a mean interarrival period of 10 time units. The VM life cycle begins
//! > at 6300 time units, with an increment of 360 time units for each set
//! > of 100 requests. A total of 2500 VMs were generated."

use crate::shard::{self, ShardSource, Stream};
use crate::vm::{VmId, VmRequest, Workload};
use rand::Rng;
use rand_distr::{Distribution, Exp};
use serde::{Deserialize, Serialize};

/// How VM lifetimes are drawn.
///
/// The paper uses the deterministic staircase (§5.1); the other models are
/// ablation hooks showing RISA's advantage is not an artifact of the
/// staircase (`risa-cli experiment ablation` prints the lifetime table).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum LifetimeModel {
    /// The paper's staircase: `base + step × ⌊i / step_every⌋`.
    #[default]
    Staircase,
    /// I.i.d. exponential lifetimes with the given mean (time units).
    Exponential {
        /// Mean lifetime.
        mean: f64,
    },
    /// Every VM lives exactly this long.
    Fixed {
        /// The lifetime.
        value: f64,
    },
}

/// Parameters of the synthetic random workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Number of VM requests (paper: 2500).
    pub num_vms: u32,
    /// Mean interarrival period, time units (paper: 10; Poisson process ⇒
    /// exponential interarrival).
    pub interarrival_mean: f64,
    /// Inclusive CPU range in cores (paper: 1..=32).
    pub cpu_cores: (u32, u32),
    /// Inclusive RAM range in GB (paper: 1..=32).
    pub ram_gb: (u32, u32),
    /// Fixed storage per VM in GB (paper: 128).
    pub storage_gb: u32,
    /// Initial lifetime, time units (paper: 6300).
    pub lifetime_base: f64,
    /// Lifetime increment per completed request set (paper: 360).
    pub lifetime_step: f64,
    /// Requests per set (paper: 100).
    pub lifetime_step_every: u32,
    /// Lifetime model (paper: the staircase; see [`LifetimeModel`]).
    pub lifetime_model: LifetimeModel,
    /// RNG seed; identical seeds reproduce the workload bit-for-bit.
    pub seed: u64,
}

impl SyntheticConfig {
    /// The paper's §5.1 parameters with a chosen seed.
    pub fn paper(seed: u64) -> Self {
        SyntheticConfig {
            num_vms: 2500,
            interarrival_mean: 10.0,
            cpu_cores: (1, 32),
            ram_gb: (1, 32),
            storage_gb: 128,
            lifetime_base: 6300.0,
            lifetime_step: 360.0,
            lifetime_step_every: 100,
            lifetime_model: LifetimeModel::Staircase,
            seed,
        }
    }

    /// A scaled-down variant for fast tests and examples.
    pub fn small(num_vms: u32, seed: u64) -> Self {
        SyntheticConfig {
            num_vms,
            ..SyntheticConfig::paper(seed)
        }
    }

    /// Lifetime of the `i`-th request (0-based) under the staircase rule.
    pub fn lifetime_of(&self, i: u32) -> f64 {
        self.lifetime_base + self.lifetime_step * (i / self.lifetime_step_every) as f64
    }
}

/// The synthetic workload as a lazy [`ShardSource`]: any shard can be
/// generated on its own from the config's `(seed, shard, stream)` RNGs.
///
/// Construction validates the config once (the same panics as
/// `generate`); [`ShardSource::shard_vms`] then runs the per-shard
/// generation code shared with the materialized path, and
/// [`ShardSource::shard_total`] is overridden to walk only the
/// [`Stream::Arrivals`] stream — arrival deltas never depend on resource
/// draws, so the cheap pass is bit-identical to the full one's total
/// (asserted in this module's tests).
#[derive(Debug, Clone, Copy)]
pub struct SyntheticShards {
    cfg: SyntheticConfig,
    exp: Exp,
    lifetime_exp: Option<Exp>,
}

impl SyntheticShards {
    /// Validate `cfg` and wrap it as a shard source.
    ///
    /// # Panics
    /// On non-finite/non-positive interarrival or lifetime parameters,
    /// inverted resource ranges, or a zero `lifetime_step_every` — the
    /// same contract as `generate`.
    pub fn new(cfg: &SyntheticConfig) -> Self {
        assert!(
            cfg.interarrival_mean.is_finite() && cfg.interarrival_mean > 0.0,
            "SyntheticConfig: interarrival_mean must be finite and > 0 (got {})",
            cfg.interarrival_mean
        );
        assert!(cfg.cpu_cores.0 >= 1 && cfg.cpu_cores.0 <= cfg.cpu_cores.1);
        assert!(cfg.ram_gb.0 >= 1 && cfg.ram_gb.0 <= cfg.ram_gb.1);
        assert!(
            cfg.lifetime_step_every >= 1,
            "SyntheticConfig: lifetime_step_every must be at least 1 (got 0); \
             the staircase divides the request index by it"
        );
        match cfg.lifetime_model {
            LifetimeModel::Staircase => {}
            LifetimeModel::Exponential { mean } => {
                assert!(
                    mean.is_finite() && mean > 0.0,
                    "SyntheticConfig: exponential lifetime mean must be finite and > 0 (got {mean})"
                );
            }
            LifetimeModel::Fixed { value } => {
                assert!(
                    value.is_finite() && value >= 0.0,
                    "SyntheticConfig: fixed lifetime must be finite and non-negative (got {value})"
                );
            }
        }
        let exp = Exp::new(1.0 / cfg.interarrival_mean).expect("positive rate");
        let lifetime_exp = match cfg.lifetime_model {
            LifetimeModel::Exponential { mean } => {
                Some(Exp::new(1.0 / mean).expect("positive rate"))
            }
            _ => None,
        };
        SyntheticShards {
            cfg: *cfg,
            exp,
            lifetime_exp,
        }
    }
}

impl ShardSource for SyntheticShards {
    fn total_vms(&self) -> u32 {
        self.cfg.num_vms
    }

    fn label(&self) -> &str {
        "synthetic"
    }

    fn shard_vms(&self, shard_idx: u32) -> (Vec<VmRequest>, f64) {
        let cfg = &self.cfg;
        let mut arrivals = shard::stream_rng(cfg.seed, shard_idx, Stream::Arrivals);
        let mut resources = shard::stream_rng(cfg.seed, shard_idx, Stream::Resources);
        let mut t = 0.0f64;
        let vms = self
            .shard_range(shard_idx)
            .map(|i| {
                t += self.exp.sample(&mut arrivals);
                let lifetime = match cfg.lifetime_model {
                    LifetimeModel::Staircase => cfg.lifetime_of(i),
                    LifetimeModel::Exponential { .. } => self
                        .lifetime_exp
                        .expect("hoisted above")
                        .sample(&mut resources),
                    LifetimeModel::Fixed { value } => value,
                };
                VmRequest {
                    id: VmId(i),
                    cpu_cores: resources.gen_range(cfg.cpu_cores.0..=cfg.cpu_cores.1),
                    ram_gb: resources.gen_range(cfg.ram_gb.0..=cfg.ram_gb.1),
                    storage_gb: cfg.storage_gb,
                    arrival: t,
                    lifetime,
                }
            })
            .collect();
        (vms, t)
    }

    fn shard_total(&self, shard_idx: u32) -> f64 {
        // Arrivals-stream-only pass: the resource RNG is never touched, so
        // the delta sequence — and therefore its sum — is bit-identical
        // to the full pass above.
        let mut arrivals = shard::stream_rng(self.cfg.seed, shard_idx, Stream::Arrivals);
        let mut t = 0.0f64;
        for _ in self.shard_range(shard_idx) {
            t += self.exp.sample(&mut arrivals);
        }
        t
    }

    fn largest_request(&self) -> (u32, u32, u32) {
        (self.cfg.cpu_cores.1, self.cfg.ram_gb.1, self.cfg.storage_gb)
    }
}

/// Generate the workload described by `cfg`.
///
/// Generation is sharded: every [`shard::SHARD_SIZE`] VMs draw from their
/// own `(seed, shard)`-derived RNG streams and run concurrently on the
/// `rayon` pool, with absolute arrivals stitched by a prefix sum over
/// per-shard interarrival totals (see [`crate::shard`]). The output is
/// byte-identical at any thread count — and to draining a
/// [`crate::StreamingShards`] cursor over [`SyntheticShards`], which runs
/// the same per-shard code lazily.
pub fn generate(cfg: &SyntheticConfig) -> Workload {
    let source = SyntheticShards::new(cfg);
    Workload::from_vms("synthetic", shard::materialize(&source))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shape() {
        let w = generate(&SyntheticConfig::paper(1));
        assert_eq!(w.len(), 2500);
        for vm in w.vms() {
            assert!((1..=32).contains(&vm.cpu_cores));
            assert!((1..=32).contains(&vm.ram_gb));
            assert_eq!(vm.storage_gb, 128);
        }
        // Arrivals strictly ordered and positive.
        assert!(w.vms().windows(2).all(|p| p[0].arrival <= p[1].arrival));
        assert!(w.vms()[0].arrival > 0.0);
    }

    #[test]
    fn lifetime_staircase() {
        let cfg = SyntheticConfig::paper(1);
        assert_eq!(cfg.lifetime_of(0), 6300.0);
        assert_eq!(cfg.lifetime_of(99), 6300.0);
        assert_eq!(cfg.lifetime_of(100), 6660.0);
        assert_eq!(cfg.lifetime_of(250), 6300.0 + 2.0 * 360.0);
        // Last of 2500: floor(2499/100) = 24 steps ⇒ 14 940 time units.
        assert_eq!(cfg.lifetime_of(2499), 6300.0 + 24.0 * 360.0);
        let w = generate(&cfg);
        assert_eq!(w.vms()[2499].lifetime, 14_940.0);
    }

    #[test]
    fn mean_interarrival_approximates_config() {
        let w = generate(&SyntheticConfig::paper(7));
        let total = w.vms().last().unwrap().arrival;
        let mean = total / w.len() as f64;
        // Exponential with mean 10 over 2500 samples: ±5 % is generous.
        assert!((mean - 10.0).abs() < 0.5, "mean interarrival {mean}");
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let a = generate(&SyntheticConfig::paper(42));
        let b = generate(&SyntheticConfig::paper(42));
        let c = generate(&SyntheticConfig::paper(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_cpu_covers_range() {
        let w = generate(&SyntheticConfig::paper(3));
        let mut seen = [false; 33];
        for vm in w.vms() {
            seen[vm.cpu_cores as usize] = true;
        }
        // With 2500 draws over 32 values, every value appears w.h.p.
        assert!(seen[1..=32].iter().all(|&s| s));
    }

    #[test]
    fn small_config_scales_down() {
        let w = generate(&SyntheticConfig::small(50, 9));
        assert_eq!(w.len(), 50);
        assert_eq!(w.vms()[49].lifetime, 6300.0);
    }

    #[test]
    fn every_vm_fits_one_box() {
        use risa_topology::TopologyConfig;
        let w = generate(&SyntheticConfig::paper(5));
        assert!(w.validate_fits(&TopologyConfig::paper()).is_ok());
    }

    #[test]
    fn exponential_lifetimes_have_requested_mean() {
        let cfg = SyntheticConfig {
            lifetime_model: LifetimeModel::Exponential { mean: 5000.0 },
            ..SyntheticConfig::paper(8)
        };
        let w = generate(&cfg);
        let mean: f64 = w.vms().iter().map(|v| v.lifetime).sum::<f64>() / w.len() as f64;
        assert!((mean - 5000.0).abs() < 300.0, "mean lifetime {mean}");
        // Genuinely random: lifetimes differ.
        assert!(w.vms()[0].lifetime != w.vms()[1].lifetime);
    }

    #[test]
    fn fixed_lifetimes_are_constant() {
        let cfg = SyntheticConfig {
            lifetime_model: LifetimeModel::Fixed { value: 1234.0 },
            ..SyntheticConfig::small(50, 8)
        };
        let w = generate(&cfg);
        assert!(w.vms().iter().all(|v| v.lifetime == 1234.0));
    }

    /// Regression: `lifetime_step_every == 0` used to reach the staircase
    /// division and die with an opaque divide-by-zero panic.
    #[test]
    #[should_panic(expected = "lifetime_step_every must be at least 1")]
    fn zero_lifetime_step_every_is_rejected_clearly() {
        let cfg = SyntheticConfig {
            lifetime_step_every: 0,
            ..SyntheticConfig::small(10, 1)
        };
        let _ = generate(&cfg);
    }

    /// The sharded-generation contract: byte-identical output at any
    /// thread count, for a trace spanning several shards.
    #[test]
    fn byte_identical_at_any_thread_count() {
        let cfg = SyntheticConfig::small(3 * crate::shard::SHARD_SIZE + 123, 42);
        let one = rayon::with_num_threads(1, || generate(&cfg));
        for threads in [2, 8] {
            let many = rayon::with_num_threads(threads, || generate(&cfg));
            assert_eq!(many, one, "threads={threads}");
        }
    }

    /// Arrivals stay monotone across shard boundaries after stitching.
    #[test]
    fn arrivals_monotone_across_shard_boundaries() {
        let cfg = SyntheticConfig::small(2 * crate::shard::SHARD_SIZE + 7, 5);
        let w = generate(&cfg);
        assert!(w.vms().windows(2).all(|p| p[0].arrival <= p[1].arrival));
        // The staircase is index-based, so it crosses shards untouched.
        let i = crate::shard::SHARD_SIZE; // first VM of shard 1
        assert_eq!(w.vms()[i as usize].lifetime, cfg.lifetime_of(i));
    }

    #[test]
    fn default_model_is_the_paper_staircase() {
        assert_eq!(LifetimeModel::default(), LifetimeModel::Staircase);
        let w = generate(&SyntheticConfig::paper(8));
        assert_eq!(w.vms()[0].lifetime, 6300.0);
        assert_eq!(w.vms()[150].lifetime, 6660.0);
    }

    /// The arrivals-only pass must be bit-identical to the full per-shard
    /// pass's delta total — for every lifetime model, including the one
    /// whose lifetimes sample the *resources* stream — and so must the
    /// span summed from it to the last stitched arrival.
    #[test]
    fn shard_arrivals_match_full_pass_bit_for_bit() {
        let models = [
            LifetimeModel::Staircase,
            LifetimeModel::Exponential { mean: 5000.0 },
            LifetimeModel::Fixed { value: 7.0 },
        ];
        for model in models {
            let cfg = SyntheticConfig {
                lifetime_model: model,
                ..SyntheticConfig::small(2 * crate::shard::SHARD_SIZE + 50, 21)
            };
            let source = SyntheticShards::new(&cfg);
            for shard_idx in 0..source.num_shards() {
                let (vms, full_total) = source.shard_vms(shard_idx);
                let cheap_total = source.shard_total(shard_idx);
                assert_eq!(full_total.to_bits(), cheap_total.to_bits(), "{model:?}");
                assert_eq!(vms.last().unwrap().arrival.to_bits(), cheap_total.to_bits());
            }
            let last = generate(&cfg).vms().last().unwrap().arrival;
            assert_eq!(source.span_units().to_bits(), last.to_bits(), "{model:?}");
        }
    }

    /// The stated bound really bounds every VM, and is attained.
    #[test]
    fn largest_request_bounds_every_vm() {
        let cfg = SyntheticConfig {
            cpu_cores: (3, 17),
            ram_gb: (2, 9),
            storage_gb: 64,
            ..SyntheticConfig::small(5000, 4)
        };
        let (cpu, ram, sto) = SyntheticShards::new(&cfg).largest_request();
        let w = generate(&cfg);
        assert_eq!(w.vms().iter().map(|v| v.cpu_cores).max(), Some(cpu));
        assert_eq!(w.vms().iter().map(|v| v.ram_gb).max(), Some(ram));
        assert!(w.vms().iter().all(|v| v.storage_gb == sto));
    }
}
