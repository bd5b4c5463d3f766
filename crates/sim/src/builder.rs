//! Fluent construction of a ready-to-run DDC simulation.
//!
//! A [`SimulationBuilder`] is the whole recipe of a run — configuration,
//! algorithm, workload, faults, audit, the scheduler-timing batch and
//! the checkpoint cadence — and nothing else decides one: no setting is read from the environment, so the builder is
//! exactly what a checkpoint stores (`crate::checkpoint`).

use crate::config::SimConfig;
use crate::faults::FaultSpec;
use crate::report::RunReport;
use crate::sched_timer::DEFAULT_SCHED_TIMING_BATCH;
use crate::spec::WorkloadSpec;
use crate::world::DdcWorld;
use risa_des::{EventTrace, Simulation};
use risa_sched::Algorithm;
use risa_topology::{ResourceKind, TopologyConfig, UnitDemand, ALL_RESOURCES};
use risa_workload::{ShardSource, TraceError, VmRequest};
use std::sync::Arc;

/// Why a simulation could not be built. [`SimulationBuilder::try_build`]
/// returns these; [`SimulationBuilder::build`] panics with their
/// [`std::fmt::Display`] rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A VM's demand exceeds single-box capacity, violating the paper's
    /// §2 placement assumption: the first such VM of the workload —
    /// loaded, read from a file, or yet to be generated.
    OversizedVm {
        /// Offending VM id.
        id: u32,
        /// Workload name.
        workload: String,
    },
    /// A [`WorkloadSpec::TraceCsv`] file is missing, unreadable or
    /// invalid.
    TraceFile {
        /// The file's path, as the spec names it.
        path: String,
        /// Why the file was refused.
        error: TraceError,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::OversizedVm { id, workload } => write!(
                f,
                "VM vm{id} in workload '{workload}' exceeds single-box capacity \
                 (paper §2 assumption)"
            ),
            BuildError::TraceFile { path, error } => {
                write!(f, "cannot read trace file '{path}': {error}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for a [`DdcSimulation`]. Defaults reproduce the paper exactly:
/// Table 1 topology, §3.1 network, §3.2 photonics, RISA, and a small
/// synthetic workload.
///
/// Fields are `pub(crate)` so the checkpoint codec (`crate::checkpoint`)
/// can persist the builder as a run recipe.
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    pub(crate) cfg: SimConfig,
    pub(crate) algorithm: Algorithm,
    pub(crate) workload: WorkloadSpec,
    pub(crate) audit: bool,
    pub(crate) sched_timing_batch: u32,
    pub(crate) faults: Option<FaultSpec>,
    pub(crate) checkpoint_every: Option<f64>,
}

impl SimulationBuilder {
    /// Paper defaults.
    pub fn new() -> Self {
        SimulationBuilder {
            cfg: SimConfig::paper(),
            algorithm: Algorithm::Risa,
            workload: WorkloadSpec::synthetic(100, 0),
            audit: false,
            sched_timing_batch: DEFAULT_SCHED_TIMING_BATCH,
            faults: None,
            checkpoint_every: None,
        }
    }

    /// Checkpoint the run every `interval` simulated time units when driven
    /// by [`DdcSimulation::run_checkpointed`] (see `crate::checkpoint`).
    /// Plain [`DdcSimulation::run`] ignores the cadence; the interval is
    /// carried in every checkpoint's recipe so resumed runs keep it.
    pub fn checkpoint_every(mut self, interval: f64) -> Self {
        assert!(
            interval > 0.0 && interval.is_finite(),
            "checkpoint interval must be positive and finite"
        );
        self.checkpoint_every = Some(interval);
        self
    }

    /// Attach a fault-injection scenario: rack failure/repair, trunk-link
    /// and transceiver outages driven by deterministic per-component RNG
    /// chains (see [`FaultSpec`] and the `crate::faults` module docs).
    /// The run report gains a [`crate::FaultReport`] block. Without this
    /// call a run has no faults.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Scheduler-timing batch: one clock pair per `every` scheduling calls
    /// (default [`DEFAULT_SCHED_TIMING_BATCH`]); `1` restores exact
    /// per-call timing. See [`RunReport::sched_seconds`].
    pub fn sched_timing_batch(mut self, every: u32) -> Self {
        self.sched_timing_batch = every;
        self
    }

    /// Independently audit every assignment against a shadow ledger
    /// (`risa_sched::audit`); the run panics on any violation. Costs one
    /// ledger insert/remove per VM — enabled throughout the test suite.
    pub fn audit(mut self, on: bool) -> Self {
        self.audit = on;
        self
    }

    /// Choose the scheduling algorithm.
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// Choose the workload.
    pub fn workload(mut self, w: WorkloadSpec) -> Self {
        self.workload = w;
        self
    }

    /// Override the topology (Table 1 by default).
    pub fn topology(mut self, t: TopologyConfig) -> Self {
        self.cfg.topology = t;
        self
    }

    /// Override the whole configuration bundle.
    pub fn config(mut self, c: SimConfig) -> Self {
        self.cfg = c;
        self
    }

    /// Resolve the workload to a shard source and prime the event queue.
    ///
    /// No trace is built: the world reads the spec's
    /// [`risa_workload::ShardSource`] through one shard cursor,
    /// generating (or slicing) a 4096-VM shard at a time, inline, as the
    /// run reaches it — O(resident VMs + one shard) of memory for a
    /// generator, and the report's scheduler wall-clock (`sched_seconds`)
    /// times scheduling calls only, so generation between them never
    /// pollutes it. A CSV file is loaded into columns (20 B a row) and
    /// validated here, then served through the same cursor.
    ///
    /// Arrivals are fed to the engine through the two-lane queue's
    /// arrival lane ([`Simulation::attach_arrivals`]), which reads
    /// its window off that same cursor — nothing is copied, no arrival
    /// time is drawn twice — and the future-event list only ever holds
    /// in-flight departures, O(resident VMs) instead of O(trace length).
    ///
    /// Panics on an invalid workload (VM exceeding single-box capacity,
    /// unusable trace file) with the corresponding [`BuildError`]
    /// message; use [`SimulationBuilder::try_build`] where a typed error
    /// is preferable.
    pub fn build(self) -> DdcSimulation {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`SimulationBuilder::build`], but invalid workloads and
    /// unusable trace files surface as a typed [`BuildError`] instead of
    /// a panic.
    pub fn try_build(self) -> Result<DdcSimulation, BuildError> {
        let source = self.workload.shard_source()?;
        if let Some(vm) = first_oversized(&*source, &self.cfg.topology) {
            return Err(BuildError::OversizedVm {
                id: vm.id.0,
                workload: source.label().to_string(),
            });
        }
        let world = DdcWorld::new(self.cfg, self.algorithm, Arc::clone(&source));
        let mut sim = Simulation::new(self.primed(world, || source.span_units()));
        sim.attach_arrivals(source.total_vms() as usize);
        Self::seed_faults(&mut sim);
        Ok(DdcSimulation { sim, recipe: self })
    }

    /// Push each fault chain's first onset through the FEL. Must run
    /// *after* arrivals are queued: the lane reserves the trace's block of
    /// sequence numbers as pushing every arrival would, so the fault
    /// events' sequence numbers (and same-time ordering) are those of a
    /// run that pushed them all.
    pub(crate) fn seed_faults(sim: &mut Simulation<DdcWorld>) {
        if sim.world().faults.is_some() {
            for (at, event) in sim.world_mut().initial_fault_events() {
                sim.schedule(at, event);
            }
        }
    }

    /// Apply the builder knobs to a fresh world; `span` (the last
    /// arrival time — an arrivals-only pass over a generator) is only
    /// asked for when a fault scenario stretches over it.
    pub(crate) fn primed(&self, mut world: DdcWorld, span: impl FnOnce() -> f64) -> DdcWorld {
        world.set_sched_timing_batch(self.sched_timing_batch);
        if self.audit {
            world.enable_audit();
        }
        if let Some(spec) = &self.faults {
            world.enable_faults(spec.clone(), span());
        }
        world
    }
}

/// The first VM `source` yields that does not fit one box, if any.
/// Decided from [`ShardSource::largest_request`] alone when that fits —
/// demand is monotone in each amount — so only a source that *could*
/// yield an oversized VM is walked for the first one that does. Either
/// way no oversized VM reaches the run: the event path does not look.
fn first_oversized(source: &dyn ShardSource, cfg: &TopologyConfig) -> Option<VmRequest> {
    let cap = cfg.box_capacity_units();
    let (cpu, ram, sto) = source.largest_request();
    if UnitDemand::from_natural(&cfg.units, cpu, ram, sto).max_units() <= cap {
        return None;
    }
    (0..source.num_shards()).find_map(|shard| {
        let (vms, _) = source.shard_vms(shard);
        vms.into_iter().find(|vm| vm.demand(cfg).max_units() > cap)
    })
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        SimulationBuilder::new()
    }
}

/// A primed simulation; [`DdcSimulation::run`] drives it to completion and
/// summarizes.
#[derive(Debug)]
pub struct DdcSimulation {
    pub(crate) sim: Simulation<DdcWorld>,
    /// The builder that produced this run: a checkpoint's embedded recipe
    /// rebuilds the identical pristine run from it (see
    /// [`crate::checkpoint`]).
    pub(crate) recipe: SimulationBuilder,
}

impl DdcSimulation {
    /// Run every event and produce the run report.
    pub fn run(&mut self) -> RunReport {
        self.sim.run_to_completion();
        self.finish()
    }

    /// Post-run invariant checks + flushes, shared by every driver that
    /// drains the queue ([`DdcSimulation::run`] and the checkpointing
    /// loop in [`crate::checkpoint`]).
    pub(crate) fn finish(&mut self) -> RunReport {
        // Drained queue ⇒ every admitted VM departed and released its
        // slot (the assignment store's memory is bounded by residency).
        debug_assert!(self.sim.world().assignments.all_free());
        self.sim.world_mut().finish_audit();
        self.report()
    }

    /// Summarize current state (normally called after [`DdcSimulation::run`]).
    pub fn report(&self) -> RunReport {
        let w = self.sim.world();
        let t_end = w.end_time;
        let cap = |k: ResourceKind| w.cluster.total_capacity(k) as f64;
        let util = |k: ResourceKind| {
            if t_end > 0.0 && cap(k) > 0.0 {
                w.util[k.index()].mean_to(t_end) / cap(k)
            } else {
                0.0
            }
        };
        let mut us = [0.0; 3];
        for k in ALL_RESOURCES {
            us[k.index()] = util(k);
        }
        let intra_cap = w.net.intra_capacity_mbps() as f64;
        let inter_cap = w.net.inter_capacity_mbps() as f64;
        RunReport {
            algorithm: w.algorithm(),
            workload: w.cursor.label().to_string(),
            total_vms: w.cursor.total_vms(),
            admitted: w.counters.admitted,
            dropped: w.counters.dropped_compute + w.counters.dropped_network,
            dropped_compute: w.counters.dropped_compute,
            dropped_network: w.counters.dropped_network,
            inter_rack_assignments: w.counters.inter_rack,
            fallback_assignments: w.counters.fallback,
            cpu_utilization: us[0],
            ram_utilization: us[1],
            storage_utilization: us[2],
            intra_net_utilization: if t_end > 0.0 {
                w.intra_bw.mean_to(t_end) / intra_cap
            } else {
                0.0
            },
            inter_net_utilization: if t_end > 0.0 {
                w.inter_bw.mean_to(t_end) / inter_cap
            } else {
                0.0
            },
            optical_energy_j: w.optical_energy_j,
            optical_power_w: if t_end > 0.0 {
                w.optical_energy_j / t_end
            } else {
                0.0
            },
            mean_cpu_ram_latency_ns: w.latency.mean(),
            sched_seconds: w.sched_seconds(),
            work: *w.scheduler.work(),
            sim_duration: t_end,
            faults: w.fault_report(),
        }
    }

    /// Access the world (e.g. for white-box assertions in tests).
    pub fn world(&self) -> &DdcWorld {
        self.sim.world()
    }

    /// Keep a ring buffer of the last `capacity` dispatched events; with a
    /// capacity of at least `2 × total VMs` the dump is the complete event
    /// dispatch order (the hot-path differential compares these across
    /// engine configurations).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.sim.enable_trace(capacity);
    }

    /// The event trace, when enabled via [`DdcSimulation::enable_trace`].
    pub fn trace(&self) -> Option<&EventTrace> {
        self.sim.trace()
    }

    /// Total events dispatched so far: arrivals and departures, and on a
    /// run with faults the fault and `Migrate` events too.
    pub fn events_dispatched(&self) -> u64 {
        self.sim.dispatched()
    }

    /// High-water mark of the future-event list. With the arrival lane
    /// this is bounded by peak *resident* VMs, not trace length —
    /// asserted by `tests/hot_path_differential.rs`.
    pub fn peak_fel_len(&self) -> usize {
        self.sim.queue().peak_fel_len()
    }

    /// High-water mark of VMs buffered by the workload cursor: at most
    /// one [`risa_workload::shard::SHARD_SIZE`] shard plus one lane
    /// window, whatever the trace length (asserted by
    /// `tests/streaming_bounds.rs`).
    pub fn peak_buffered_arrivals(&self) -> usize {
        self.sim.world().cursor.peak_buffered()
    }

    /// High-water mark of arrivals the event queue itself held at once:
    /// one window of its arrival lane at most, whatever the trace length.
    /// Asserted by `tests/streaming_bounds.rs`.
    pub fn peak_arrival_window(&self) -> usize {
        self.sim.queue().peak_arrival_window()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_produces_consistent_report() {
        let report = SimulationBuilder::new()
            .algorithm(Algorithm::RisaBf)
            .workload(WorkloadSpec::synthetic(120, 5))
            .build()
            .run();
        assert_eq!(report.total_vms, 120);
        assert_eq!(report.admitted + report.dropped, 120);
        assert_eq!(report.dropped, 0);
        assert_eq!(
            report.dropped,
            report.dropped_compute + report.dropped_network
        );
        assert!(report.sim_duration > 6300.0, "runs past the first lifetime");
        assert!(report.cpu_utilization > 0.0 && report.cpu_utilization < 1.0);
        assert!(report.optical_power_w > 0.0);
        assert_eq!(report.mean_cpu_ram_latency_ns, 110.0);
        assert_eq!(report.inter_rack_percent(), 0.0);
    }

    #[test]
    fn reports_are_deterministic_modulo_wall_clock() {
        let run = || {
            let mut r = SimulationBuilder::new()
                .algorithm(Algorithm::Nulb)
                .workload(WorkloadSpec::synthetic(150, 77))
                .build()
                .run();
            r.sched_seconds = 0.0; // the only wall-clock field
            r
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_algorithms_share_workload() {
        // Same seed ⇒ identical workload across algorithms, as the paper's
        // comparisons require.
        let a = SimulationBuilder::new()
            .algorithm(Algorithm::Nulb)
            .workload(WorkloadSpec::synthetic(60, 9))
            .build()
            .run();
        let b = SimulationBuilder::new()
            .algorithm(Algorithm::Risa)
            .workload(WorkloadSpec::synthetic(60, 9))
            .build()
            .run();
        assert_eq!(a.total_vms, b.total_vms);
        assert_eq!(a.workload, b.workload);
    }

    #[test]
    fn streaming_bounds_buffered_arrivals() {
        use risa_workload::shard::SHARD_SIZE;
        let mut sim = SimulationBuilder::new()
            .workload(WorkloadSpec::synthetic(3 * SHARD_SIZE, 5))
            .build();
        sim.run();
        assert_eq!(sim.peak_buffered_arrivals(), SHARD_SIZE as usize);
    }

    /// A trace whose ids are not its rows' ranks once ran — swapped rows
    /// to exit 0 with each arrival placed as the *other* row's VM, sparse
    /// and duplicate ids into an index panic mid-run. The CSV reader
    /// refuses it, typed, and so does the build.
    #[test]
    fn non_dense_ids_rejected_typed_from_file_and_trace() {
        use risa_workload::{csv, TraceError, VmId, Workload};
        let good = WorkloadSpec::synthetic(4, 3).materialize();
        // (what, ids by row, first offending row, id found there)
        for (what, ids, index, found) in [
            ("swapped", [1, 0, 2, 3], 0usize, 1u32),
            ("sparse", [0, 1, 5, 6], 2, 5),
            ("duplicate", [0, 1, 1, 2], 2, 1),
        ] {
            let mut vms = good.vms().to_vec();
            for (vm, id) in vms.iter_mut().zip(ids) {
                vm.id = VmId(id);
            }
            let trace = Workload::from_vms("odd", vms);
            let path = std::env::temp_dir()
                .join(format!("risa_builder_{}_{what}.csv", std::process::id()));
            std::fs::write(&path, csv::to_csv(&trace)).unwrap();
            let build = |spec| {
                SimulationBuilder::new()
                    .workload(spec)
                    .try_build()
                    .expect_err("non-dense ids must not build")
            };
            let path = path.display().to_string();
            assert_eq!(
                build(WorkloadSpec::TraceCsv {
                    name: "odd".into(),
                    path: path.clone()
                }),
                BuildError::TraceFile {
                    path: path.clone(),
                    error: TraceError::NonDenseId {
                        line: index + 2, // a header line, and lines count from 1
                        expected: index as u32,
                        found
                    }
                },
                "{what}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    /// A trace file that cannot be loaded is a `BuildError::TraceFile`
    /// naming its path beside the reader's error — not a panic inside the
    /// builder.
    #[test]
    fn unusable_trace_files_are_build_errors() {
        use risa_workload::TraceError;
        let dir = std::env::temp_dir();
        let file = |tag: &str, contents: &str| {
            let path = dir.join(format!("risa_builder_{}_{tag}.csv", std::process::id()));
            std::fs::write(&path, contents).unwrap();
            path.display().to_string()
        };
        let header = risa_workload::csv::HEADER;
        let missing = "/nonexistent/risa/builder.csv";
        let cases = [
            (
                missing.to_string(),
                TraceError::Io(std::fs::File::open(missing).unwrap_err().to_string()),
            ),
            (
                file("header", "id,cpu\n0,1,2,128,1.0,10\n"),
                TraceError::BadHeader,
            ),
            (
                file(
                    "row",
                    &format!("{header}\n0,1,2,128,1.0,10\n\n1,1,two,128,2.0,10\n"),
                ),
                TraceError::BadField {
                    line: 4,
                    column: "ram_gb",
                },
            ),
        ];
        for (path, error) in cases {
            let built = SimulationBuilder::new()
                .workload(WorkloadSpec::TraceCsv {
                    name: "t".into(),
                    path: path.clone(),
                })
                .try_build()
                .expect_err("unusable trace file must not build");
            let want = BuildError::TraceFile {
                path: path.clone(),
                error,
            };
            assert_eq!(built, want);
            std::fs::remove_file(&path).ok();
        }
    }

    /// A VM past a box is the typed `OversizedVm` naming the first one,
    /// whatever would have yielded it — a generator config that was never
    /// going to be materialized, a CSV file — and never a panic at the
    /// offending arrival.
    #[test]
    fn oversized_requests_are_typed_build_errors_from_every_source() {
        use risa_workload::SyntheticConfig;
        let topology = TopologyConfig::paper();
        let try_build =
            |spec: &WorkloadSpec| SimulationBuilder::new().workload(spec.clone()).try_build();
        // A box holds 512 cores; this config asks for up to 4096.
        let cfg = SyntheticConfig {
            cpu_cores: (1, 4096),
            ..SyntheticConfig::small(9000, 3)
        };
        let spec = WorkloadSpec::Synthetic(cfg);
        let trace = spec.materialize();
        let first = trace
            .validate_fits(&topology)
            .expect_err("some VM is oversized");
        assert!(first.cpu_cores > 512);
        let want = BuildError::OversizedVm {
            id: first.id.0,
            workload: "synthetic".into(),
        };
        let path =
            std::env::temp_dir().join(format!("risa_builder_{}_oversized.csv", std::process::id()));
        std::fs::write(&path, risa_workload::csv::to_csv(&trace)).unwrap();
        let file = WorkloadSpec::TraceCsv {
            name: "synthetic".into(),
            path: path.display().to_string(),
        };
        for spec in [&spec, &file] {
            let err = try_build(spec).expect_err("must not build");
            assert_eq!(err, want, "{spec:?}");
        }
        std::fs::remove_file(&path).ok();
        assert!(want.to_string().contains("single-box capacity"));

        // A bound past a box that no VM of this seed reaches is no error:
        // the build walked the workload and found every VM fits.
        let cfg = SyntheticConfig {
            cpu_cores: (1, 513),
            ..SyntheticConfig::small(5, 3)
        };
        let spec = WorkloadSpec::Synthetic(cfg);
        assert!(spec.materialize().validate_fits(&topology).is_ok());
        let report = try_build(&spec).expect("every VM fits").run();
        assert_eq!(report.admitted + report.dropped, 5);
    }

    /// The CSV reader's bound on a row's departure lies inside the engine
    /// clock: a VM leaving at `csv::MAX_TIME` itself departs there,
    /// exactly, with room to spare — not clamped to the clock's end (the
    /// fate of the times the bound refuses).
    #[test]
    fn csv_time_bound_is_inside_the_engine_clock() {
        use risa_des::{SimDuration, SimTime};
        use risa_workload::csv::{from_csv, HEADER, MAX_TIME};
        let (arrival, lifetime) = (6e12, 4e12);
        assert_eq!(arrival + lifetime, MAX_TIME);
        let departure = SimTime::from_units(arrival) + SimDuration::from_units(lifetime);
        assert_eq!(departure.as_units(), MAX_TIME);
        assert!(SimTime::from_units(1.8 * MAX_TIME) < SimTime::MAX);

        let csv = format!("{HEADER}\n0,1,2,128,{arrival},{lifetime}\n");
        assert!(from_csv("edge", &csv).is_ok());
        let path =
            std::env::temp_dir().join(format!("risa_builder_{}_edge.csv", std::process::id()));
        std::fs::write(&path, &csv).unwrap();
        let report = SimulationBuilder::new()
            .workload(WorkloadSpec::TraceCsv {
                name: "edge".into(),
                path: path.display().to_string(),
            })
            .build()
            .run();
        std::fs::remove_file(&path).ok();
        assert_eq!(report.admitted, 1);
        assert_eq!(report.sim_duration, MAX_TIME);
        assert!(report.optical_energy_j.is_finite() && report.optical_energy_j > 0.0);
    }

    #[test]
    #[should_panic(expected = "single-box capacity")]
    fn oversized_vm_rejected_at_build() {
        let cfg = risa_workload::SyntheticConfig {
            cpu_cores: (4096, 4096),
            ..risa_workload::SyntheticConfig::small(1, 0)
        };
        SimulationBuilder::new()
            .workload(WorkloadSpec::Synthetic(cfg))
            .build();
    }
}
