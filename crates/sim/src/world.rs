//! The simulated world: cluster + network + scheduler + metric streams,
//! driven by VM arrival/departure events.
//!
//! [`DdcWorld`] holds each decision once: a timed `schedule` asks the
//! scheduler, `admit` records a placement and `release` frees one,
//! whether the VM arrived, departed, was evacuated or re-placed. Its books
//! live beside it: `meters` (counters, energy, the time-weighted
//! meters), `churn` (the fault scenario and its handlers), `slots` (the
//! per-VM store) and `sched_timer` (the scheduler wall clock).

use crate::churn::FaultState;
use crate::config::SimConfig;
use crate::meters::{Counters, PathEnergy};
use crate::sched_timer::{SchedTimer, DEFAULT_SCHED_TIMING_BATCH};
use crate::slots::PerVmSlots;
use risa_des::{EventCtx, SimDuration, SimTime, World};
use risa_metrics::{OnlineStats, TimeWeighted};
use risa_network::{NetworkState, TrunkId};
use risa_photonics::EnergyModel;
use risa_sched::audit::ScheduleAuditor;
use risa_sched::{Algorithm, DropReason, ScheduleOutcome, Scheduler, VmAssignment};
use risa_topology::{Cluster, ResourceKind, UnitDemand};
use risa_workload::{ShardSource, StreamingShards};
use std::sync::Arc;

/// Events driving the DDC simulation. The fault variants are injected
/// only when a [`crate::FaultSpec`] is attached (see `crate::faults`);
/// faults-off runs dispatch arrivals and departures exclusively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// VM `idx` (index into the workload) arrives and must be scheduled.
    Arrival(u32),
    /// VM `idx` departs; its resources and bandwidth are released.
    Departure(u32),
    /// Rack `rack` fails: every box is retracted from the schedulers and
    /// resident VMs are evacuated (a [`SimEvent::Migrate`] per victim).
    RackFail(u16),
    /// Rack `rack` is repaired: its boxes rejoin every aggregate.
    RackRepair(u16),
    /// Link `link` of rack `rack`'s uplink trunk goes dark.
    TrunkDown {
        /// The degraded rack uplink.
        rack: u16,
        /// Link index within the trunk.
        link: u16,
    },
    /// Link `link` of rack `rack`'s uplink trunk is restored.
    TrunkUp {
        /// The restored rack uplink.
        rack: u16,
        /// Link index within the trunk.
        link: u16,
    },
    /// Transceiver `link` of box `box_idx`'s uplink is lost.
    XcvrDown {
        /// The box whose uplink degraded.
        box_idx: u32,
        /// Link index within the trunk.
        link: u16,
    },
    /// Transceiver `link` of box `box_idx`'s uplink is replaced.
    XcvrUp {
        /// The box whose uplink recovered.
        box_idx: u32,
        /// Link index within the trunk.
        link: u16,
    },
    /// VM `idx`, evacuated from a failed rack, finishes its migration and
    /// is re-placed through the scheduler (or dropped if nothing fits).
    Migrate(u32),
}

/// How arrival `idx` of a trace maps onto the event timeline — the one
/// definition the arrival lane ([`DdcWorld`]'s `fill_arrivals`) and the
/// tests' push-every-arrival reference run share.
pub(crate) fn arrival_event(idx: u32, arrival: f64) -> (SimTime, SimEvent) {
    (SimTime::from_units(arrival), SimEvent::Arrival(idx))
}

/// The [`World`] implementation: owns all mutable simulation state.
#[derive(Debug)]
pub struct DdcWorld {
    pub(crate) cluster: Cluster,
    pub(crate) net: NetworkState,
    pub(crate) scheduler: Scheduler,
    /// The one source of VM requests, taken in VM-index order. It also
    /// feeds the arrival lane ([`World::fill_arrivals`]), which delivers
    /// them as pushing every arrival through the FEL would (sorted trace,
    /// ties in push order).
    pub(crate) cursor: StreamingShards,
    pub(crate) energy: EnergyModel,
    /// Indexed by "is inter-rack".
    pub(crate) path_energy: [PathEnergy; 2],
    pub(crate) cfg: SimConfig,
    pub(crate) assignments: PerVmSlots<VmAssignment>,
    pub(crate) counters: Counters,
    /// Time-weighted used units per resource kind.
    pub(crate) util: [TimeWeighted; 3],
    /// Time-weighted used Mb/s on the intra- and inter-rack layers.
    pub(crate) intra_bw: TimeWeighted,
    pub(crate) inter_bw: TimeWeighted,
    /// Per-admitted-VM CPU-RAM round-trip latency (ns).
    pub(crate) latency: OnlineStats,
    /// Total optical energy (switch trim/reconfig + transceivers), joules.
    pub(crate) optical_energy_j: f64,
    /// Amortized wall-clock of `Scheduler::schedule` (Figures 11/12).
    pub(crate) sched: SchedTimer,
    /// Latest event time seen, in paper units.
    pub(crate) end_time: f64,
    /// High-water mark of [`DdcWorld::resident`] — the bound the two-lane
    /// event queue's FEL length is tested against.
    pub(crate) peak_resident: u32,
    /// Optional independent auditor replaying every assignment, keyed by
    /// VM index, against a shadow ledger; violations fail the run loudly.
    pub(crate) auditor: Option<ScheduleAuditor>,
    /// Fault-injection scenario state; `None` on faults-off runs.
    pub(crate) faults: Option<Box<FaultState>>,
}

impl DdcWorld {
    /// Build a pristine world for `algorithm` over the workload `source`
    /// yields, read on demand through one shard cursor.
    pub(crate) fn new(cfg: SimConfig, algorithm: Algorithm, source: Arc<dyn ShardSource>) -> Self {
        let cluster = Cluster::new(cfg.topology);
        let net = NetworkState::new(cfg.network, &cluster);
        let scheduler = Scheduler::new(algorithm, &cluster);
        let energy = EnergyModel::new(cfg.photonics);
        DdcWorld {
            cluster,
            net,
            scheduler,
            cursor: StreamingShards::new(source),
            path_energy: PathEnergy::both(&energy, &cfg.network),
            energy,
            cfg,
            assignments: PerVmSlots::new(),
            counters: Counters::default(),
            util: std::array::from_fn(|_| TimeWeighted::new(0.0, 0.0)),
            intra_bw: TimeWeighted::new(0.0, 0.0),
            inter_bw: TimeWeighted::new(0.0, 0.0),
            latency: OnlineStats::new(),
            optical_energy_j: 0.0,
            sched: SchedTimer::new(DEFAULT_SCHED_TIMING_BATCH),
            end_time: 0.0,
            peak_resident: 0,
            auditor: None,
            faults: None,
        }
    }

    /// Enable independent auditing of every assignment/release (shadow
    /// ledger; see `risa_sched::audit`). The driver calls
    /// `finish_audit` at end of run and panics on violations.
    pub(crate) fn enable_audit(&mut self) {
        self.auditor = Some(ScheduleAuditor::new(&self.cluster));
    }

    /// Close the audit; panics with the violation list if the scheduler
    /// and the shadow ledger ever disagreed.
    pub(crate) fn finish_audit(&mut self) {
        if let Some(auditor) = self.auditor.take() {
            if let Err(violations) = auditor.finish() {
                panic!("schedule audit failed: {violations:?}");
            }
        }
    }

    /// The algorithm driving this world.
    pub fn algorithm(&self) -> Algorithm {
        self.scheduler.algorithm()
    }

    /// Set the scheduler-timing batch: one clock pair per `every`
    /// scheduling calls (`every = 1` ⇒ exact per-call timing); see
    /// [`crate::RunReport::sched_seconds`] for the estimator semantics.
    /// Configure before running.
    pub(crate) fn set_sched_timing_batch(&mut self, every: u32) {
        self.sched = SchedTimer::new(every);
    }

    /// Estimated wall-clock spent inside `Scheduler::schedule`, in seconds
    /// (exact when the timing batch is 1; see
    /// [`crate::RunReport::sched_seconds`] for the full semantics).
    pub fn sched_seconds(&self) -> f64 {
        self.sched.estimate_seconds()
    }

    /// Currently resident (admitted, not yet departed) VMs.
    pub fn resident(&self) -> u32 {
        self.assignments.occupied() as u32
    }

    /// High-water mark of [`DdcWorld::resident`] over the run.
    pub fn peak_resident(&self) -> u32 {
        self.peak_resident
    }

    /// Assignment of VM `idx`, if admitted and still resident.
    pub fn assignment(&self, idx: u32) -> Option<&VmAssignment> {
        self.assignments.get(idx)
    }

    /// Shards the cursor has generated so far.
    pub fn stream_shards_generated(&self) -> u32 {
        self.cursor.shards_generated()
    }

    /// Ask the scheduler for a placement of `demand`, on the scheduler
    /// wall clock.
    pub(crate) fn schedule(&mut self, demand: &UnitDemand) -> ScheduleOutcome {
        let timing = self.sched.start();
        let outcome = self
            .scheduler
            .schedule(&mut self.cluster, &mut self.net, demand);
        self.sched.finish(timing);
        outcome
    }

    /// Make VM `idx` resident on `a`, the placement the scheduler granted.
    pub(crate) fn admit(&mut self, idx: u32, a: VmAssignment) {
        if let Some(auditor) = self.auditor.as_mut() {
            auditor.admit(&self.cluster, idx, &a);
        }
        self.assignments.insert(idx, a);
        self.peak_resident = self.peak_resident.max(self.resident());
    }

    /// Free VM `idx`'s resources and return its placement; `None` if it
    /// is not resident.
    pub(crate) fn release(&mut self, idx: u32) -> Option<VmAssignment> {
        let a = self.assignments.take(idx)?;
        Scheduler::release(&mut self.cluster, &mut self.net, &a);
        if let Some(auditor) = self.auditor.as_mut() {
            auditor.release(idx);
        }
        Some(a)
    }

    fn on_arrival(&mut self, idx: u32, now: f64, ctx: &mut EventCtx<'_, SimEvent>) {
        let vm = self
            .cursor
            .next()
            .expect("arrival event beyond the end of the workload");
        debug_assert_eq!(
            vm.id.0, idx,
            "cursor out of step with the arrival event order"
        );
        let demand = vm.demand(&self.cfg.topology);
        // Unreachable otherwise: `try_build` refuses a workload whose
        // `ShardSource::largest_request` does not fit a box unless a walk
        // of every VM finds none that does not (`first_oversized`).
        debug_assert!(
            demand.max_units() <= self.cfg.topology.box_capacity_units(),
            "{} exceeds single-box capacity past the build-time check",
            vm.id
        );

        match self.schedule(&demand) {
            ScheduleOutcome::Assigned(a) => {
                self.counters.admitted += 1;
                if !a.intra_rack {
                    self.counters.inter_rack += 1;
                }
                if a.used_fallback {
                    self.counters.fallback += 1;
                }
                // CPU-RAM round-trip latency (Figure 10): depends on
                // whether CPU and RAM share a rack.
                let cpu_rack = self
                    .cluster
                    .rack_of(a.placement.grant(ResourceKind::Cpu).box_id);
                let ram_rack = self
                    .cluster
                    .rack_of(a.placement.grant(ResourceKind::Ram).box_id);
                let lat = if cpu_rack == ram_rack {
                    self.cfg.latency.intra_rack_ns
                } else {
                    self.cfg.latency.inter_rack_ns
                };
                self.latency.record(lat);
                // Optical energy (Figure 9), 1 time unit ≡ 1 s.
                let life_s = vm.lifetime;
                self.optical_energy_j +=
                    self.flow_energy(a.network.cpu_ram.inter_rack, a.network.cpu_ram.mbps, life_s);
                self.optical_energy_j +=
                    self.flow_energy(a.network.ram_sto.inter_rack, a.network.ram_sto.mbps, life_s);
                self.admit(idx, a);
                ctx.schedule_in(
                    SimDuration::from_units(vm.lifetime),
                    SimEvent::Departure(idx),
                );
            }
            ScheduleOutcome::Dropped(DropReason::Compute) => {
                self.counters.dropped_compute += 1;
            }
            ScheduleOutcome::Dropped(DropReason::Network) => {
                self.counters.dropped_network += 1;
            }
        }
        self.sample_state(now);
    }

    fn on_departure(&mut self, idx: u32, now: f64) {
        if self.release(idx).is_some() {
            self.sample_state(now);
        } else {
            self.depart_displaced(idx);
        }
    }
}

impl World for DdcWorld {
    type Event = SimEvent;

    /// The arrival lane's window, straight off the cursor's resident
    /// shard: the arrival column of the VMs `on_arrival` is about to take.
    fn fill_arrivals(&mut self, out: &mut Vec<(SimTime, SimEvent)>, max: usize) {
        let (first, vms) = self.cursor.next_arrivals(max);
        out.extend(
            vms.iter()
                .zip(first..)
                .map(|(vm, idx)| arrival_event(idx, vm.arrival)),
        );
    }

    fn handle(&mut self, ctx: &mut EventCtx<'_, SimEvent>, event: SimEvent) {
        let now = ctx.now().as_units();
        self.end_time = self.end_time.max(now);
        match event {
            SimEvent::Arrival(idx) => self.on_arrival(idx, now, ctx),
            SimEvent::Departure(idx) => self.on_departure(idx, now),
            SimEvent::RackFail(rack) => self.on_rack_fail(rack, now, ctx),
            SimEvent::RackRepair(rack) => self.on_rack_repair(rack, now, ctx),
            SimEvent::TrunkDown { rack, link } => {
                self.on_link(TrunkId::RackUplink(rack), link, false, now, ctx)
            }
            SimEvent::TrunkUp { rack, link } => {
                self.on_link(TrunkId::RackUplink(rack), link, true, now, ctx)
            }
            SimEvent::XcvrDown { box_idx, link } => {
                self.on_link(TrunkId::BoxUplink(box_idx), link, false, now, ctx)
            }
            SimEvent::XcvrUp { box_idx, link } => {
                self.on_link(TrunkId::BoxUplink(box_idx), link, true, now, ctx)
            }
            SimEvent::Migrate(idx) => self.on_migrate(idx, now),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use risa_des::Simulation;
    use risa_workload::{SyntheticConfig, SyntheticShards, TraceShards, Workload};

    /// A world over `source` with its arrivals on the queue's arrival
    /// lane — read off the cursor the world takes its VMs from, nothing
    /// entering the FEL.
    pub(crate) fn primed(algo: Algorithm, source: Arc<dyn ShardSource>) -> Simulation<DdcWorld> {
        let total = source.total_vms() as usize;
        let mut sim = Simulation::new(DdcWorld::new(SimConfig::paper(), algo, source));
        sim.attach_arrivals(total);
        sim
    }

    pub(crate) fn synthetic(n: u32, seed: u64) -> Arc<dyn ShardSource> {
        Arc::new(SyntheticShards::new(&SyntheticConfig::small(n, seed)))
    }

    pub(crate) fn run_world(algo: Algorithm, n: u32, seed: u64) -> DdcWorld {
        let mut sim = primed(algo, synthetic(n, seed));
        sim.run_to_completion();
        sim.into_world()
    }

    #[test]
    fn small_run_admits_everything_and_releases() {
        let w = run_world(Algorithm::Risa, 50, 3);
        assert_eq!(w.counters.admitted, 50);
        assert_eq!(w.counters.dropped_compute + w.counters.dropped_network, 0);
        // Everything departed: cluster and network back to pristine.
        assert_eq!(w.cluster.total_available(ResourceKind::Cpu), 4608);
        assert_eq!(w.net.intra_used_mbps(), 0);
        assert_eq!(w.net.inter_used_mbps(), 0);
        assert!(w.assignments.all_free());
        w.cluster.check_invariants().unwrap();
    }

    /// A world generating its workload on demand reaches the same end
    /// state as one served the materialized trace (the full differential
    /// lives in `tests/hot_path_differential.rs`; this is the in-module
    /// smoke).
    #[test]
    fn streaming_world_matches_materialized_end_state() {
        let mut sim = primed(Algorithm::Risa, synthetic(200, 3));
        sim.world_mut().enable_audit();
        sim.run_to_completion();
        let mut w = sim.into_world();
        w.finish_audit();

        let trace = Workload::synthetic(&SyntheticConfig::small(200, 3));
        let mut held = primed(Algorithm::Risa, Arc::new(TraceShards::new(trace)));
        held.run_to_completion();
        let oracle = held.into_world();
        assert_eq!(w.counters.admitted, oracle.counters.admitted);
        assert_eq!(w.counters.inter_rack, oracle.counters.inter_rack);
        assert_eq!(w.optical_energy_j, oracle.optical_energy_j);
        assert_eq!(w.end_time, oracle.end_time);
        assert!(w.assignments.all_free());
        assert_eq!(w.cursor.label(), "synthetic");
        assert_eq!(w.cursor.total_vms(), 200);
        assert_eq!(w.cursor.peak_buffered(), 200);
        assert_eq!(w.stream_shards_generated(), 1);
        assert_eq!(oracle.cursor.peak_buffered(), 200);
    }

    /// What the world hands the arrival lane must be exactly the
    /// materialized trace's schedule — VM `i` at its arrival time,
    /// bit-equal, in index order — at any window size, with a window
    /// stopping short at a shard's end and never coming back empty before
    /// the trace does.
    #[test]
    fn streaming_arrivals_match_materialized_schedule() {
        use crate::spec::WorkloadSpec;
        for spec in [
            WorkloadSpec::synthetic(9000, 11), // > 2 shards
            WorkloadSpec::azure(risa_workload::AzureSubset::N3000, 4),
        ] {
            let expect: Vec<_> = spec
                .materialize()
                .vms()
                .iter()
                .map(|vm| (SimTime::from_units(vm.arrival), SimEvent::Arrival(vm.id.0)))
                .collect();
            for max in [1, 7, 1024, usize::MAX] {
                let source = spec
                    .shard_source()
                    .expect("generators have no file to fail");
                let mut world = DdcWorld::new(SimConfig::paper(), Algorithm::Risa, source);
                let mut got = Vec::new();
                while got.len() < expect.len() {
                    let before = got.len();
                    world.fill_arrivals(&mut got, max);
                    assert!((1..=max).contains(&(got.len() - before)), "max {max}");
                }
                world.fill_arrivals(&mut got, max); // an exhausted cursor hands over nothing
                assert_eq!(got, expect, "max {max}");
            }
        }
    }

    /// Bytes per resident VM: one slab entry and one future-event-list
    /// entry. Pinned so neither grows unnoticed (an assignment was 112 B
    /// plus two heap blocks of hops before they moved inline).
    #[test]
    fn bytes_per_resident_are_pinned() {
        assert!(
            std::mem::size_of::<VmAssignment>() <= 128,
            "VmAssignment is {} B",
            std::mem::size_of::<VmAssignment>()
        );
        assert_eq!(
            std::mem::size_of::<Option<VmAssignment>>(),
            std::mem::size_of::<VmAssignment>(),
            "a slab entry is a bare assignment"
        );
        assert_eq!(std::mem::size_of::<risa_des::QueueEntry<SimEvent>>(), 24);
    }

    #[test]
    fn deterministic_counters_across_reruns() {
        let a = run_world(Algorithm::Nalb, 80, 13);
        let b = run_world(Algorithm::Nalb, 80, 13);
        assert_eq!(a.counters.admitted, b.counters.admitted);
        assert_eq!(a.counters.inter_rack, b.counters.inter_rack);
        assert_eq!(a.optical_energy_j, b.optical_energy_j);
        assert_eq!(a.latency.mean(), b.latency.mean());
    }

    #[test]
    fn peak_resident_tracks_high_water_mark() {
        let w = run_world(Algorithm::Risa, 60, 9);
        assert!(w.peak_resident() > 0);
        assert!(w.peak_resident() <= 60);
        assert_eq!(w.resident(), 0, "everything departed");
    }
}
