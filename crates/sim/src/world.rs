//! The simulated world: cluster + network + scheduler + metric streams,
//! driven by VM arrival/departure events.

use crate::config::SimConfig;
use crate::faults::{ChainSet, FaultMeters, FaultReport, FaultSpec, FaultTallies, Migration};
use crate::streaming::arrival_event;
use crate::timeline::{Timeline, TimelinePoint};
use risa_des::{EventCtx, SimDuration, SimTime, World};
use risa_metrics::{OnlineStats, TimeWeighted};
use risa_network::{NetworkState, TrunkId};
use risa_photonics::{EnergyModel, SwitchPath};
use risa_sched::audit::ScheduleAuditor;
use risa_sched::{Algorithm, DropReason, ScheduleOutcome, Scheduler, VmAssignment};
use risa_topology::{BoxId, Cluster, RackId, ResourceKind, UnitDemand, ALL_RESOURCES};
use risa_workload::{ShardSource, StreamingShards, VmRequest, Workload};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default scheduler-timing batch: one clock pair per 16 scheduling calls
/// (see `SchedTimer` in this module).
pub const DEFAULT_SCHED_TIMING_BATCH: u32 = 16;

/// Amortized wall-clock instrumentation for `Scheduler::schedule`.
///
/// The seed implementation read `Instant::now()` twice around *every*
/// scheduling call — two clock reads per arrival on the hottest path of the
/// whole simulation. This timer instead samples one call in every `every`
/// (calls `every−1, 2·every−1, …` — deterministic in *which* calls are
/// timed, and keeping the cold first call out of the scaled samples, see
/// [`SchedTimer::start`]) and reports `sampled_wall × calls / sampled` — an
/// unbiased estimate of total scheduler wall-clock under the paper's
/// workloads, at roughly `2/every` clock reads per arrival. `every == 1`
/// restores the seed's exact per-call measurement (used by the
/// Figure 11/12 experiments, where `sched_seconds` *is* the result).
#[derive(Debug, Clone)]
pub(crate) struct SchedTimer {
    every: u32,
    calls: u64,
    sampled: u64,
    wall: Duration,
    /// Call 0's wall time, kept out of the regular samples (it pays
    /// first-touch/cold-cache costs that `calls/sampled` scaling would
    /// inflate) but used as the fallback estimate for runs too short to
    /// reach the first regular sample point.
    cold: Duration,
}

impl SchedTimer {
    pub(crate) fn new(every: u32) -> Self {
        assert!(every >= 1, "sched timing batch must be at least 1");
        SchedTimer {
            every,
            calls: 0,
            sampled: 0,
            wall: Duration::ZERO,
            cold: Duration::ZERO,
        }
    }

    /// Start timing if this call is a sample point: the regular points
    /// are calls `every−1, 2·every−1, …` (deterministic, and skipping the
    /// cold first call), plus call 0 itself as the fallback sample (with
    /// `every == 1` call 0 *is* a regular point, so exact mode includes
    /// the cold call like the seed did).
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "SchedTimer is the sanctioned scheduler-wall instrument; sched_seconds is \
                  left out of every report comparison"
    )]
    fn start(&self) -> Option<Instant> {
        (self.calls == 0 || (self.calls + 1).is_multiple_of(u64::from(self.every)))
            .then(Instant::now)
    }

    /// Account one finished scheduling call.
    #[inline]
    fn finish(&mut self, started: Option<Instant>) {
        if let Some(t0) = started {
            let elapsed = t0.elapsed();
            if self.calls == 0 && self.every > 1 {
                self.cold = elapsed;
            } else {
                self.wall += elapsed;
                self.sampled += 1;
            }
        }
        self.calls += 1;
    }

    /// Estimated total scheduler wall-clock, in seconds. Runs shorter
    /// than one timing batch never hit a regular sample point; they fall
    /// back to scaling the always-timed first call, so a run that did
    /// real scheduling work never reports zero.
    pub(crate) fn estimate_seconds(&self) -> f64 {
        if self.sampled > 0 {
            // Scale factor first: with every call sampled it is exactly
            // 1.0, so the estimate degenerates to the measured total.
            self.wall.as_secs_f64() * (self.calls as f64 / self.sampled as f64)
        } else if self.calls > 0 {
            self.cold.as_secs_f64() * self.calls as f64
        } else {
            0.0
        }
    }
}

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

/// Where the world's VM requests come from.
///
/// Arrival events are delivered strictly in VM-index order off the
/// arrival lane (the stitched trace is sorted and the lane preserves
/// insertion order among equal times), so the cursor — which can only
/// move forward — always has the VM the next `Arrival(idx)` event asks
/// for.
#[derive(Debug)]
pub(crate) enum VmSource {
    /// Every run but the oracle's: the one shard cursor, which also feeds
    /// the queue's arrival lane ([`World::fill_arrivals`]).
    Cursor(StreamingShards),
    /// `legacy_arrival_path` only: the loaded trace, looked up by index —
    /// that path delivers arrivals through the FEL in time order, which
    /// for the unsorted traces it accepts is not index order.
    Oracle(Arc<Workload>),
}

impl VmSource {
    /// Workload label for reports.
    pub(crate) fn name(&self) -> &str {
        match self {
            VmSource::Cursor(c) => c.label(),
            VmSource::Oracle(w) => w.name(),
        }
    }

    /// Total requests in the workload.
    pub(crate) fn total(&self) -> u32 {
        match self {
            VmSource::Cursor(c) => c.total_vms(),
            VmSource::Oracle(w) => w.len() as u32,
        }
    }

    /// The request for arrival event `idx`.
    fn take(&mut self, idx: u32) -> VmRequest {
        match self {
            VmSource::Cursor(cursor) => {
                let vm = cursor
                    .next()
                    .expect("arrival event beyond the end of the workload");
                debug_assert_eq!(
                    vm.id.0, idx,
                    "cursor out of step with the arrival event order"
                );
                vm
            }
            VmSource::Oracle(w) => w.vms()[idx as usize],
        }
    }
}

/// Per-VM slot storage whose memory follows *residents*, not the trace:
/// a ring of slab indices over the live VM-index span in front of a slab
/// of values. VM indices are admitted in ascending order and depart in
/// any order, so the ring costs 4 B × (newest − oldest live index) and
/// the slab `size_of::<Option<T>>()` × peak residents — a VM that is
/// dropped, or has departed, holds nothing. Nothing is hashed: inserts
/// and takes walk the ring the way a dense array would be walked.
#[derive(Debug, Clone)]
pub(crate) struct PerVmSlots<T> {
    /// VM index of `ring[0]` (meaningless while the ring is empty).
    base: u32,
    /// Slab index of each VM in `base..base + ring.len()`, [`NO_SLOT`]
    /// for a VM without a value. Kept trimmed: a non-empty ring starts
    /// and ends on a live VM.
    ring: VecDeque<u32>,
    /// The values; `None` entries are exactly the ones listed in `free`.
    slab: Vec<Option<T>>,
    /// Vacant slab entries, reused before the slab grows.
    free: Vec<u32>,
}

/// Ring entry of a VM that holds no value (never a slab index: the slab
/// holds at most one entry per `u32` VM index).
const NO_SLOT: u32 = u32::MAX;

impl<T> PerVmSlots<T> {
    fn new() -> Self {
        PerVmSlots {
            base: 0,
            ring: VecDeque::new(),
            slab: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Ring position of VM `idx`, if inside the live span.
    fn ring_pos(&self, idx: u32) -> Option<usize> {
        let pos = idx.checked_sub(self.base)? as usize;
        (pos < self.ring.len()).then_some(pos)
    }

    /// Store `value` for VM `idx` (slot must be empty). Ascending `idx`
    /// appends; an `idx` below the live span (an evacuated VM re-placed
    /// after the span moved on) extends the front.
    fn insert(&mut self, idx: u32, value: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(value);
                slot
            }
            None => {
                self.slab.push(Some(value));
                (self.slab.len() - 1) as u32
            }
        };
        if self.ring.is_empty() {
            self.base = idx;
        }
        if idx < self.base {
            for _ in idx + 1..self.base {
                self.ring.push_front(NO_SLOT);
            }
            self.ring.push_front(slot);
            self.base = idx;
        } else {
            let pos = (idx - self.base) as usize;
            if pos >= self.ring.len() {
                // The hot case: the next arrival, past any dropped ones.
                self.ring.resize(pos, NO_SLOT);
                self.ring.push_back(slot);
            } else {
                debug_assert_eq!(self.ring[pos], NO_SLOT, "slot {idx} already occupied");
                self.ring[pos] = slot;
            }
        }
    }

    /// Remove and return VM `idx`'s value, if present.
    fn take(&mut self, idx: u32) -> Option<T> {
        let pos = self.ring_pos(idx)?;
        let slot = std::mem::replace(&mut self.ring[pos], NO_SLOT);
        if slot == NO_SLOT {
            return None;
        }
        let value = self.slab[slot as usize].take();
        debug_assert!(value.is_some(), "ring points at a vacant slab entry");
        self.free.push(slot);
        while self.ring.front() == Some(&NO_SLOT) {
            self.ring.pop_front();
            self.base += 1;
        }
        while self.ring.back() == Some(&NO_SLOT) {
            self.ring.pop_back();
        }
        value
    }

    /// Borrow VM `idx`'s value, if present.
    fn get(&self, idx: u32) -> Option<&T> {
        match self.ring[self.ring_pos(idx)?] {
            NO_SLOT => None,
            slot => self.slab[slot as usize].as_ref(),
        }
    }

    /// True when no VM holds a value (end-of-run: everything departed).
    pub(crate) fn all_free(&self) -> bool {
        self.ring.is_empty()
    }

    /// Live entries (resident VMs with a value).
    pub(crate) fn occupied(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Every occupied `(vm index, value)` in ascending index order.
    fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.ring
            .iter()
            .enumerate()
            .filter(|&(_, &slot)| slot != NO_SLOT)
            .map(|(pos, &slot)| {
                let value = self.slab[slot as usize]
                    .as_ref()
                    .expect("ring points at a vacant slab entry");
                (self.base + pos as u32, value)
            })
    }
}

/// Raw per-run counters, exposed through [`crate::RunReport`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Counters {
    pub admitted: u32,
    pub dropped_compute: u32,
    pub dropped_network: u32,
    pub inter_rack: u32,
    pub fallback: u32,
}

/// Everything a running fault scenario needs: the renewal chains, the
/// evacuation pipeline and the resilience accumulators. Lives on the
/// world only when faults are enabled, so faults-off runs pay nothing.
#[derive(Debug)]
pub(crate) struct FaultState {
    spec: FaultSpec,
    /// Workload span the scale-free rates were resolved against; failure
    /// onsets past it are not scheduled (repairs always are).
    span: f64,
    chains: ChainSet,
    pub(crate) tallies: FaultTallies,
    meters: FaultMeters,
    /// Failure time of each currently-down rack.
    rack_down_since: Vec<Option<f64>>,
    /// Evacuated VMs still in transit to their re-placement. BTreeMap:
    /// bounded by in-flight migrations (cold), and orderable if a future
    /// report ever lists them.
    pub(crate) in_transit: BTreeMap<u32, Migration>,
    /// Evacuated VMs dropped at re-placement whose original departure
    /// event is still in flight (swallowed when it fires).
    tombstones: BTreeSet<u32>,
    /// Total capacity units (all kinds) of the pristine cluster — the
    /// baseline the stranded-capacity meter measures against.
    pristine_units: u64,
}

impl FaultState {
    fn new(
        spec: FaultSpec,
        span: f64,
        cluster: &Cluster,
        net_cfg: &risa_network::NetworkConfig,
    ) -> Self {
        let racks = cluster.num_racks();
        let chains = ChainSet::new(
            &spec,
            span,
            racks,
            cluster.num_boxes() as u32,
            net_cfg.rack_uplink_width,
            net_cfg.box_uplink_width,
        );
        FaultState {
            spec,
            span,
            chains,
            tallies: FaultTallies::default(),
            meters: FaultMeters::new(),
            rack_down_since: vec![None; racks as usize],
            in_transit: BTreeMap::new(),
            tombstones: BTreeSet::new(),
            pristine_units: ALL_RESOURCES
                .iter()
                .map(|&k| cluster.total_capacity(k))
                .sum(),
        }
    }

    /// Summarize into the report's resilience block. The evacuation
    /// pipeline must balance: every displaced VM is re-placed, dropped,
    /// departed in transit, or still travelling.
    pub(crate) fn report(&self, t_end: f64) -> FaultReport {
        let t = &self.tallies;
        debug_assert_eq!(
            t.evacuated,
            t.evac_replaced + t.dropped_churn + t.evac_departed + self.in_transit.len() as u32,
            "evacuation accounting identity"
        );
        let mean_to = |m: &TimeWeighted| if t_end > 0.0 { m.mean_to(t_end) } else { 0.0 };
        FaultReport {
            rack_failures: t.rack_failures,
            rack_repairs: t.rack_repairs,
            trunk_link_downs: t.trunk_link_downs,
            trunk_link_ups: t.trunk_link_ups,
            xcvr_downs: t.xcvr_downs,
            xcvr_ups: t.xcvr_ups,
            evacuated: t.evacuated,
            evac_replaced: t.evac_replaced,
            dropped_churn: t.dropped_churn,
            evac_departed: t.evac_departed,
            mean_evac_latency: self.meters.evac_latency.mean(),
            mean_recovery_time: self.meters.recovery.mean(),
            mean_stranded_units: mean_to(&self.meters.stranded_units),
            mean_stranded_mbps: mean_to(&self.meters.stranded_mbps),
        }
    }
}

/// The terms of one flow's optical energy that depend only on whether the
/// path is intra- or inter-rack, evaluated once per world.
#[derive(Debug, Clone, Copy)]
struct PathEnergy {
    reconfiguration_j: f64,
    trim_w: f64,
    link_hops: u32,
}

impl PathEnergy {
    fn new(model: &EnergyModel, path: &SwitchPath) -> Self {
        PathEnergy {
            reconfiguration_j: model.reconfiguration_energy_j(path),
            trim_w: model.trim_power_w(path.total_path_cells()),
            link_hops: path.link_hops,
        }
    }
}

/// The [`World`] implementation: owns all mutable simulation state.
#[derive(Debug)]
pub struct DdcWorld {
    pub(crate) cluster: Cluster,
    pub(crate) net: NetworkState,
    pub(crate) scheduler: Scheduler,
    pub(crate) source: VmSource,
    energy: EnergyModel,
    /// Indexed by "is inter-rack".
    path_energy: [PathEnergy; 2],
    cfg: SimConfig,
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
    /// Currently resident VMs.
    pub(crate) resident: u32,
    /// High-water mark of `resident` — the bound the two-lane event
    /// queue's FEL length is tested against.
    pub(crate) peak_resident: u32,
    /// Optional fixed-grid series recorder.
    pub(crate) timeline: Option<Timeline>,
    /// Optional independent auditor replaying every assignment against a
    /// shadow ledger; violations fail the run loudly.
    pub(crate) auditor: Option<(ScheduleAuditor, PerVmSlots<u64>)>,
    /// Fault-injection scenario state; `None` on faults-off runs.
    pub(crate) faults: Option<Box<FaultState>>,
}

impl DdcWorld {
    /// Build a pristine world for `algorithm` over the workload `source`
    /// yields, read on demand through one shard cursor. Run it behind
    /// [`risa_des::Simulation::attach_arrivals`].
    pub fn new(cfg: SimConfig, algorithm: Algorithm, source: Arc<dyn ShardSource>) -> Self {
        Self::with_source(
            cfg,
            algorithm,
            VmSource::Cursor(StreamingShards::new(source)),
        )
    }

    /// Build the `legacy_arrival_path` oracle's world over a loaded trace
    /// (the caller schedules every arrival through the FEL).
    pub(crate) fn new_oracle(
        cfg: SimConfig,
        algorithm: Algorithm,
        workload: Arc<Workload>,
    ) -> Self {
        Self::with_source(cfg, algorithm, VmSource::Oracle(workload))
    }

    fn with_source(cfg: SimConfig, algorithm: Algorithm, source: VmSource) -> Self {
        let cluster = Cluster::new(cfg.topology);
        let net = NetworkState::new(cfg.network, &cluster);
        let scheduler = Scheduler::new(algorithm, &cluster);
        let energy = EnergyModel::new(cfg.photonics);
        let n = &cfg.network;
        let intra = SwitchPath::intra_rack(n.box_switch_ports, n.rack_switch_ports);
        let inter = SwitchPath::inter_rack(
            n.box_switch_ports,
            n.rack_switch_ports,
            n.inter_rack_switch_ports,
        );
        DdcWorld {
            cluster,
            net,
            scheduler,
            source,
            path_energy: [
                PathEnergy::new(&energy, &intra),
                PathEnergy::new(&energy, &inter),
            ],
            energy,
            cfg,
            assignments: PerVmSlots::new(),
            counters: Counters::default(),
            util: [
                TimeWeighted::new(0.0, 0.0),
                TimeWeighted::new(0.0, 0.0),
                TimeWeighted::new(0.0, 0.0),
            ],
            intra_bw: TimeWeighted::new(0.0, 0.0),
            inter_bw: TimeWeighted::new(0.0, 0.0),
            latency: OnlineStats::new(),
            optical_energy_j: 0.0,
            sched: SchedTimer::new(DEFAULT_SCHED_TIMING_BATCH),
            end_time: 0.0,
            resident: 0,
            peak_resident: 0,
            timeline: None,
            auditor: None,
            faults: None,
        }
    }

    /// Attach a fault scenario resolved against the workload `span` (the
    /// last arrival time; see `crate::faults` for the determinism
    /// argument). Call before running; the driver injects the initial
    /// onsets via `DdcWorld::initial_fault_events`.
    pub fn enable_faults(&mut self, spec: FaultSpec, span: f64) {
        self.faults = Some(Box::new(FaultState::new(
            spec,
            span,
            &self.cluster,
            &self.cfg.network,
        )));
    }

    /// Draw each component chain's first failure onset and return the
    /// events to seed the queue with (onsets past the span are skipped —
    /// the chain stays quiet for the whole run). Component order is
    /// fixed — racks, trunk links, transceivers — so the event sequence
    /// numbers are identical on every arrival pipeline.
    pub(crate) fn initial_fault_events(&mut self) -> Vec<(SimTime, SimEvent)> {
        let fs = self.faults.as_mut().expect("faults enabled");
        let span = fs.span;
        let mut out = Vec::new();
        for (r, chain) in fs.chains.racks.iter_mut().enumerate() {
            let onset = chain.uptime();
            if onset < span {
                out.push((SimTime::from_units(onset), SimEvent::RackFail(r as u16)));
            }
        }
        let width = fs.chains.trunk_width as usize;
        for (i, chain) in fs.chains.trunk_links.iter_mut().enumerate() {
            let onset = chain.uptime();
            if onset < span {
                out.push((
                    SimTime::from_units(onset),
                    SimEvent::TrunkDown {
                        rack: (i / width) as u16,
                        link: (i % width) as u16,
                    },
                ));
            }
        }
        let width = fs.chains.xcvr_width as usize;
        for (i, chain) in fs.chains.xcvr_links.iter_mut().enumerate() {
            let onset = chain.uptime();
            if onset < span {
                out.push((
                    SimTime::from_units(onset),
                    SimEvent::XcvrDown {
                        box_idx: (i / width) as u32,
                        link: (i % width) as u16,
                    },
                ));
            }
        }
        out
    }

    /// The resilience metrics of the attached fault scenario, if any
    /// (normally read through [`crate::RunReport::faults`]).
    pub fn fault_report(&self) -> Option<FaultReport> {
        self.faults.as_ref().map(|fs| fs.report(self.end_time))
    }

    /// Enable independent auditing of every assignment/release (shadow
    /// ledger; see `risa_sched::audit`). The driver calls
    /// `finish_audit` at end of run and panics on violations.
    pub fn enable_audit(&mut self) {
        self.auditor = Some((ScheduleAuditor::new(&self.cluster), PerVmSlots::new()));
    }

    /// Close the audit; panics with the violation list if the scheduler
    /// and the shadow ledger ever disagreed.
    pub(crate) fn finish_audit(&mut self) {
        if let Some((auditor, _)) = self.auditor.take() {
            if let Err(violations) = auditor.finish() {
                panic!("schedule audit failed: {violations:?}");
            }
        }
    }

    /// Record a utilization/occupancy series with the given sampling
    /// interval (paper time units).
    pub fn enable_timeline(&mut self, interval: f64) {
        self.timeline = Some(Timeline::new(interval));
    }

    /// The recorded series, if enabled.
    pub fn timeline(&self) -> Option<&Timeline> {
        self.timeline.as_ref()
    }

    /// Flush the current state into the timeline regardless of the grid
    /// (called once by the driver when the event queue drains).
    pub(crate) fn flush_timeline(&mut self) {
        let point = self.timeline_point(self.end_time);
        if let Some(tl) = self.timeline.as_mut() {
            tl.force(point);
        }
    }

    /// The current state as one timeline point — every field an O(1)
    /// read of a running total (shared by the per-event sampler and the
    /// end-of-run flush).
    fn timeline_point(&self, t: f64) -> TimelinePoint {
        let used = |k: ResourceKind| {
            (self.cluster.total_capacity(k) - self.cluster.total_available(k)) as f64
        };
        TimelinePoint {
            t,
            cpu_used: used(ResourceKind::Cpu),
            ram_used: used(ResourceKind::Ram),
            sto_used: used(ResourceKind::Storage),
            intra_mbps: self.net.intra_used_mbps() as f64,
            inter_mbps: self.net.inter_used_mbps() as f64,
            resident_vms: self.resident,
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
    pub fn set_sched_timing_batch(&mut self, every: u32) {
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
        self.resident
    }

    /// High-water mark of [`DdcWorld::resident`] over the run.
    pub fn peak_resident(&self) -> u32 {
        self.peak_resident
    }

    /// Assignment of VM `idx`, if admitted and still resident.
    pub fn assignment(&self, idx: u32) -> Option<&VmAssignment> {
        self.assignments.get(idx)
    }

    /// High-water mark of VMs buffered by the workload cursor: one shard,
    /// plus at most the lane's window; `None` only on the legacy path,
    /// which holds the whole trace instead.
    pub fn stream_peak_buffered(&self) -> Option<usize> {
        match &self.source {
            VmSource::Cursor(c) => Some(c.peak_buffered()),
            VmSource::Oracle(_) => None,
        }
    }

    /// Shards the cursor has generated so far; `None` on the legacy path.
    pub fn stream_shards_generated(&self) -> Option<u32> {
        match &self.source {
            VmSource::Cursor(c) => Some(c.shards_generated()),
            VmSource::Oracle(_) => None,
        }
    }

    fn sample_state(&mut self, t: f64) {
        let p = self.timeline_point(t);
        self.util[ResourceKind::Cpu.index()].set(t, p.cpu_used);
        self.util[ResourceKind::Ram.index()].set(t, p.ram_used);
        self.util[ResourceKind::Storage.index()].set(t, p.sto_used);
        self.intra_bw.set(t, p.intra_mbps);
        self.inter_bw.set(t, p.inter_mbps);
        if let Some(fs) = self.faults.as_mut() {
            // Stranded capacity: retracted compute inside failed racks
            // plus free bandwidth behind dark links. Both change only at
            // event times, so per-event sampling is exact.
            let live: u64 = ALL_RESOURCES
                .iter()
                .map(|&k| self.cluster.total_capacity(k))
                .sum();
            fs.meters
                .stranded_units
                .set(t, (fs.pristine_units - live) as f64);
            fs.meters
                .stranded_mbps
                .set(t, self.net.stranded_mbps() as f64);
        }
        if let Some(tl) = self.timeline.as_mut() {
            tl.offer(p);
        }
    }

    /// Energy of one flow given whether it crossed racks (Eq. 1 + the
    /// transceiver model), charged at admission for the known lifetime:
    /// `EnergyModel::flow_total_energy_j`'s operations in its order — so
    /// its bits — with the per-path terms read instead of rebuilt.
    fn flow_energy(&self, inter: bool, mbps: u64, lifetime_s: f64) -> f64 {
        let path = &self.path_energy[usize::from(inter)];
        (path.reconfiguration_j + path.trim_w * lifetime_s)
            + self
                .energy
                .transceiver_energy_j(mbps, lifetime_s, path.link_hops)
    }

    fn on_arrival(&mut self, idx: u32, now: f64, ctx: &mut EventCtx<'_, SimEvent>) {
        let vm = self.source.take(idx);
        let demand = vm.demand(&self.cfg.topology);
        // Unreachable otherwise: `try_build` refuses a workload whose
        // `ShardSource::largest_request` does not fit a box unless a walk
        // of every VM finds none that does not (`first_oversized`).
        debug_assert!(
            demand.max_units() <= self.cfg.topology.box_capacity_units(),
            "{} exceeds single-box capacity past the build-time check",
            vm.id
        );

        let timing = self.sched.start();
        let outcome = self
            .scheduler
            .schedule(&mut self.cluster, &mut self.net, &demand);
        self.sched.finish(timing);

        match outcome {
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
                if let Some((auditor, seqs)) = self.auditor.as_mut() {
                    seqs.insert(idx, auditor.admit(&self.cluster, &a));
                }
                self.assignments.insert(idx, a);
                self.resident += 1;
                self.peak_resident = self.peak_resident.max(self.resident);
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
        let Some(a) = self.assignments.take(idx) else {
            // Only reachable under fault injection: the VM was displaced
            // by a rack failure after admission and holds no resources —
            // it was either dropped at re-placement (tombstoned) or is
            // still in transit (its migration is hereby cancelled).
            let fs = self
                .faults
                .as_mut()
                .expect("departure of a VM that was never admitted");
            if !fs.tombstones.remove(&idx) {
                fs.in_transit
                    .remove(&idx)
                    .expect("departure of a VM that was never admitted");
                fs.tallies.evac_departed += 1;
            }
            return;
        };
        Scheduler::release(&mut self.cluster, &mut self.net, &a);
        if let Some((auditor, seqs)) = self.auditor.as_mut() {
            let seq = seqs.take(idx).expect("audited VM has a seq");
            auditor.release(seq);
        }
        self.resident -= 1;
        self.sample_state(now);
    }

    /// A rack fails: evacuate its residents (release now, re-place after
    /// a per-VM migration delay), retract every box, schedule the repair.
    fn on_rack_fail(&mut self, rack: u16, now: f64, ctx: &mut EventCtx<'_, SimEvent>) {
        let rid = RackId(rack);
        // Victims in ascending VM index: every resident VM with at least
        // one grant in this rack (grants on other racks evacuate too —
        // a VM is placed and released as a whole). Derived here, by one
        // pass over the residents, so that no arrival or departure pays
        // for an index only a handful of failures ever read.
        let victims: Vec<u32> = self
            .assignments
            .iter()
            .filter(|(_, a)| {
                let grants = &a.placement.grants;
                grants.iter().any(|g| self.cluster.rack_of(g.box_id) == rid)
            })
            .map(|(idx, _)| idx)
            .collect();
        for idx in victims {
            let a = self
                .assignments
                .take(idx)
                .expect("evacuating a VM that is not resident");
            Scheduler::release(&mut self.cluster, &mut self.net, &a);
            if let Some((auditor, seqs)) = self.auditor.as_mut() {
                let seq = seqs.take(idx).expect("audited VM has a seq");
                auditor.release(seq);
            }
            self.resident -= 1;
            let fs = self
                .faults
                .as_mut()
                .expect("fault event without a scenario");
            let demand = UnitDemand::new(
                a.placement.grant(ResourceKind::Cpu).units,
                a.placement.grant(ResourceKind::Ram).units,
                a.placement.grant(ResourceKind::Storage).units,
            );
            let units: u32 = ALL_RESOURCES.iter().map(|&k| demand.get(k)).sum();
            let delay = fs.spec.migration_delay_per_unit * f64::from(units);
            fs.tallies.evacuated += 1;
            fs.in_transit.insert(
                idx,
                Migration {
                    demand,
                    evacuated_at: now,
                },
            );
            ctx.schedule_in(SimDuration::from_units(delay), SimEvent::Migrate(idx));
        }
        // With every grant released, each box's availability freezes at
        // full capacity — restore returns the rack pristine.
        let boxes: Vec<BoxId> = ALL_RESOURCES
            .iter()
            .flat_map(|&k| self.cluster.boxes_in_rack(rid, k))
            .copied()
            .collect();
        for b in boxes {
            self.cluster
                .remove_box(b)
                .expect("rack chains alternate fail/repair");
        }
        let fs = self
            .faults
            .as_mut()
            .expect("fault event without a scenario");
        fs.tallies.rack_failures += 1;
        fs.rack_down_since[rack as usize] = Some(now);
        let down = fs.chains.racks[rack as usize].downtime();
        ctx.schedule_in(SimDuration::from_units(down), SimEvent::RackRepair(rack));
        self.sample_state(now);
    }

    /// A rack is repaired: its boxes rejoin every scheduler aggregate and
    /// the next failure onset is drawn (scheduled only within the span).
    fn on_rack_repair(&mut self, rack: u16, now: f64, ctx: &mut EventCtx<'_, SimEvent>) {
        let rid = RackId(rack);
        let boxes: Vec<BoxId> = ALL_RESOURCES
            .iter()
            .flat_map(|&k| self.cluster.boxes_in_rack(rid, k))
            .copied()
            .collect();
        for b in boxes {
            self.cluster
                .restore_box(b)
                .expect("repair of a rack that is down");
        }
        let fs = self
            .faults
            .as_mut()
            .expect("fault event without a scenario");
        fs.tallies.rack_repairs += 1;
        let since = fs.rack_down_since[rack as usize]
            .take()
            .expect("repair of a rack that is down");
        fs.meters.recovery.record(now - since);
        let up = fs.chains.racks[rack as usize].uptime();
        if now + up < fs.span {
            ctx.schedule_in(SimDuration::from_units(up), SimEvent::RackFail(rack));
        }
        self.sample_state(now);
    }

    /// One link of a trunk goes dark; its repair is always scheduled.
    fn on_link_down(&mut self, id: TrunkId, link: u16, now: f64, ctx: &mut EventCtx<'_, SimEvent>) {
        self.net
            .fail_link(id, link as usize)
            .expect("link chains alternate down/up");
        let fs = self
            .faults
            .as_mut()
            .expect("fault event without a scenario");
        let (chain, up_event) = match id {
            TrunkId::RackUplink(rack) => {
                fs.tallies.trunk_link_downs += 1;
                (
                    fs.chains.trunk_chain(rack, link),
                    SimEvent::TrunkUp { rack, link },
                )
            }
            TrunkId::BoxUplink(box_idx) => {
                fs.tallies.xcvr_downs += 1;
                (
                    fs.chains.xcvr_chain(box_idx, link),
                    SimEvent::XcvrUp { box_idx, link },
                )
            }
        };
        let down = chain.downtime();
        ctx.schedule_in(SimDuration::from_units(down), up_event);
        self.sample_state(now);
    }

    /// A dark link is restored; the next outage is drawn and scheduled
    /// only if its onset lands within the span.
    fn on_link_up(&mut self, id: TrunkId, link: u16, now: f64, ctx: &mut EventCtx<'_, SimEvent>) {
        self.net
            .restore_link(id, link as usize)
            .expect("link chains alternate down/up");
        let fs = self
            .faults
            .as_mut()
            .expect("fault event without a scenario");
        let (chain, down_event) = match id {
            TrunkId::RackUplink(rack) => {
                fs.tallies.trunk_link_ups += 1;
                (
                    fs.chains.trunk_chain(rack, link),
                    SimEvent::TrunkDown { rack, link },
                )
            }
            TrunkId::BoxUplink(box_idx) => {
                fs.tallies.xcvr_ups += 1;
                (
                    fs.chains.xcvr_chain(box_idx, link),
                    SimEvent::XcvrDown { box_idx, link },
                )
            }
        };
        let up = chain.uptime();
        if now + up < fs.span {
            ctx.schedule_in(SimDuration::from_units(up), down_event);
        }
        self.sample_state(now);
    }

    /// An evacuated VM completes its migration: re-place it through the
    /// active scheduler (the search is charged to the work counters like
    /// any arrival) or drop it if nothing fits. A no-op if the VM's
    /// lifetime already ended in transit.
    fn on_migrate(&mut self, idx: u32, now: f64) {
        let Some(m) = self
            .faults
            .as_mut()
            .expect("fault event without a scenario")
            .in_transit
            .remove(&idx)
        else {
            return; // departed while in transit — already accounted
        };
        let timing = self.sched.start();
        let outcome = self
            .scheduler
            .schedule(&mut self.cluster, &mut self.net, &m.demand);
        self.sched.finish(timing);
        match outcome {
            ScheduleOutcome::Assigned(a) => {
                if let Some((auditor, seqs)) = self.auditor.as_mut() {
                    seqs.insert(idx, auditor.admit(&self.cluster, &a));
                }
                let fs = self
                    .faults
                    .as_mut()
                    .expect("fault event without a scenario");
                fs.tallies.evac_replaced += 1;
                fs.meters.evac_latency.record(now - m.evacuated_at);
                self.assignments.insert(idx, a);
                self.resident += 1;
                self.peak_resident = self.peak_resident.max(self.resident);
                // The original departure event is still pending and will
                // release this re-placement; energy/latency stay the
                // admission-time estimates.
            }
            ScheduleOutcome::Dropped(_) => {
                let fs = self
                    .faults
                    .as_mut()
                    .expect("fault event without a scenario");
                fs.tallies.dropped_churn += 1;
                fs.tombstones.insert(idx);
            }
        }
        self.sample_state(now);
    }
}

impl World for DdcWorld {
    type Event = SimEvent;

    /// The arrival lane's window, straight off the cursor's resident
    /// shard: the arrival column of the VMs `on_arrival` is about to take.
    fn fill_arrivals(&mut self, out: &mut Vec<(SimTime, SimEvent)>, max: usize) {
        let VmSource::Cursor(cursor) = &mut self.source else {
            return; // the legacy path attaches no lane
        };
        let (first, vms) = cursor.next_arrivals(max);
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
                self.on_link_down(TrunkId::RackUplink(rack), link, now, ctx)
            }
            SimEvent::TrunkUp { rack, link } => {
                self.on_link_up(TrunkId::RackUplink(rack), link, now, ctx)
            }
            SimEvent::XcvrDown { box_idx, link } => {
                self.on_link_down(TrunkId::BoxUplink(box_idx), link, now, ctx)
            }
            SimEvent::XcvrUp { box_idx, link } => {
                self.on_link_up(TrunkId::BoxUplink(box_idx), link, now, ctx)
            }
            SimEvent::Migrate(idx) => self.on_migrate(idx, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use risa_des::Simulation;
    use risa_workload::{SyntheticConfig, SyntheticShards, TraceShards};
    use std::collections::btree_map;

    /// A world over `source` with its arrivals on the queue's arrival
    /// lane — read off the cursor the world takes its VMs from, nothing
    /// entering the FEL.
    fn primed(algo: Algorithm, source: Arc<dyn ShardSource>) -> Simulation<DdcWorld> {
        let total = source.total_vms() as usize;
        let mut sim = Simulation::new(DdcWorld::new(SimConfig::paper(), algo, source));
        sim.attach_arrivals(total);
        sim
    }

    fn synthetic(n: u32, seed: u64) -> Arc<dyn ShardSource> {
        Arc::new(SyntheticShards::new(&SyntheticConfig::small(n, seed)))
    }

    fn run_world(algo: Algorithm, n: u32, seed: u64) -> DdcWorld {
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
        assert_eq!(w.source.name(), "synthetic");
        assert_eq!(w.source.total(), 200);
        assert_eq!(w.stream_peak_buffered(), Some(200));
        assert_eq!(w.stream_shards_generated(), Some(1));
        assert_eq!(oracle.stream_peak_buffered(), Some(200));
    }

    /// One scripted operation against the store.
    #[derive(Debug, Clone, Copy)]
    enum SlotOp {
        /// Insert the next index, this far past the newest one inserted.
        Insert(u32),
        /// Take the live index of this rank (modulo the population).
        TakeLive(u32),
        /// Take whatever index this is, live or not.
        TakeAny(u32),
        /// Read whatever index this is.
        Get(u32),
        /// Re-insert the index taken this long ago, unless it is live
        /// again — by now it may lie below the ring's base.
        Reinsert(u32),
    }

    fn slot_ops() -> impl Strategy<Value = Vec<SlotOp>> {
        prop::collection::vec(
            (0u32..10, 0u32..1 << 16).prop_map(|(sel, arg)| match sel {
                0..=3 => SlotOp::Insert(1 + arg % 3),
                4..=5 => SlotOp::TakeLive(arg),
                6 => SlotOp::TakeAny(arg),
                7 => SlotOp::Get(arg),
                _ => SlotOp::Reinsert(arg),
            }),
            0..300,
        )
    }

    proptest! {
        /// The store against a `BTreeMap` model, step by step: same
        /// answers, same ascending pairs, and the two memory bounds the
        /// design promises — the slab never outgrows the peak population
        /// and the ring never outgrows the live index span.
        #[test]
        fn slots_match_an_ordered_map_within_their_bounds(script in slot_ops()) {
            let mut slots: PerVmSlots<u64> = PerVmSlots::new();
            let mut model: BTreeMap<u32, u64> = BTreeMap::new();
            let mut taken: Vec<u32> = Vec::new();
            let (mut next, mut stamp, mut peak) = (0u32, 0u64, 0usize);
            for op in script {
                stamp += 1;
                match op {
                    SlotOp::Insert(gap) => {
                        next += gap;
                        slots.insert(next, stamp);
                        model.insert(next, stamp);
                    }
                    SlotOp::TakeLive(rank) if !model.is_empty() => {
                        let idx = *model.keys().nth(rank as usize % model.len()).unwrap();
                        prop_assert_eq!(slots.take(idx), model.remove(&idx));
                        taken.push(idx);
                    }
                    SlotOp::TakeLive(idx) | SlotOp::TakeAny(idx) => {
                        let idx = idx % (next + 3);
                        let got = slots.take(idx);
                        prop_assert_eq!(got, model.remove(&idx));
                        taken.extend(got.map(|_| idx));
                    }
                    SlotOp::Get(idx) => {
                        let idx = idx % (next + 3);
                        prop_assert_eq!(slots.get(idx), model.get(&idx));
                    }
                    SlotOp::Reinsert(age) if !taken.is_empty() => {
                        let idx = taken[taken.len() - 1 - age as usize % taken.len()];
                        if let btree_map::Entry::Vacant(gone) = model.entry(idx) {
                            slots.insert(idx, stamp);
                            gone.insert(stamp);
                        }
                    }
                    SlotOp::Reinsert(_) => {}
                }
                peak = peak.max(model.len());
                prop_assert_eq!(slots.occupied(), model.len());
                prop_assert_eq!(slots.all_free(), model.is_empty());
                let pairs: Vec<(u32, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                prop_assert_eq!(slots.iter().map(|(k, &v)| (k, v)).collect::<Vec<_>>(), pairs);
                prop_assert!(slots.slab.len() <= peak, "slab {} > peak {peak}", slots.slab.len());
                let span = match (model.keys().next(), model.keys().next_back()) {
                    (Some(oldest), Some(newest)) => (newest - oldest + 1) as usize,
                    _ => 0,
                };
                prop_assert!(slots.ring.len() <= span, "ring {} > span {span}", slots.ring.len());
            }
        }
    }

    /// End to end: far past saturation most arrivals are dropped and
    /// never touch the store, and the rest reuse departed VMs' slab
    /// entries — the slab ends no longer than the peak residency.
    #[test]
    fn saturated_run_keeps_the_slab_within_peak_residency() {
        let w = run_world(Algorithm::Risa, 60_000, 42);
        assert!(w.counters.dropped_compute > 0, "the run must saturate");
        assert!(w.assignments.all_free());
        assert!(
            w.assignments.slab.len() <= w.peak_resident() as usize,
            "slab {} > peak resident {}",
            w.assignments.slab.len(),
            w.peak_resident()
        );
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

    /// The world's per-path energy terms give `flow_total_energy_j`'s
    /// bits, for both paths, over sizes and lifetimes of every magnitude.
    #[test]
    fn flow_energy_has_the_models_bits() {
        let w = DdcWorld::new(SimConfig::paper(), Algorithm::Risa, synthetic(1, 1));
        let n = &w.cfg.network;
        let paths = [
            SwitchPath::intra_rack(n.box_switch_ports, n.rack_switch_ports),
            SwitchPath::inter_rack(
                n.box_switch_ports,
                n.rack_switch_ports,
                n.inter_rack_switch_ports,
            ),
        ];
        for (inter, path) in [false, true].into_iter().zip(&paths) {
            for mbps in [0, 1, 1_000, 5_000, 37_123, 160_000, u64::MAX / 3] {
                for life in [
                    0.0,
                    1e-9,
                    0.1 + 0.2,
                    1.0,
                    6_300.000_000_000_001,
                    8.64e7,
                    1e300,
                ] {
                    assert_eq!(
                        w.flow_energy(inter, mbps, life).to_bits(),
                        w.energy.flow_total_energy_j(path, mbps, life).to_bits(),
                        "inter={inter} mbps={mbps} life={life}"
                    );
                }
            }
        }
    }

    #[test]
    fn latency_recorded_per_admitted_vm() {
        let w = run_world(Algorithm::RisaBf, 40, 5);
        assert_eq!(w.latency.count(), 40);
        // RISA-BF on an underloaded cluster: all intra-rack, all 110 ns.
        assert_eq!(w.latency.mean(), 110.0);
        assert_eq!(w.counters.inter_rack, 0);
    }

    #[test]
    fn energy_accumulates_only_for_admitted() {
        let w = run_world(Algorithm::Nulb, 30, 7);
        assert!(w.optical_energy_j > 0.0);
        // 30 VMs × 2 flows × (37 cells × 0.9 × 22.67 mW × ~6300 s) ≈ 280 kJ.
        assert!(w.optical_energy_j > 1e4);
        assert!(w.optical_energy_j < 1e7);
    }

    #[test]
    fn utilization_signal_rises_then_falls() {
        let w = run_world(Algorithm::Risa, 60, 9);
        let cpu = &w.util[ResourceKind::Cpu.index()];
        assert!(cpu.peak() > 0.0);
        assert_eq!(cpu.current(), 0.0, "all VMs departed");
        let mean = cpu.mean_to(w.end_time);
        assert!(mean > 0.0 && mean < cpu.peak());
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
    fn scheduler_wall_clock_is_measured() {
        let w = run_world(Algorithm::Nalb, 50, 1);
        // Default batch of 16 over 50 arrivals ⇒ calls 15/31/47 sampled
        // (the cold call 0 is deliberately skipped).
        assert_eq!(w.sched.calls, 50);
        assert_eq!(w.sched.sampled, 3);
        assert!(w.sched.wall > Duration::ZERO);
        assert!(w.sched_seconds() > 0.0);
    }

    #[test]
    fn exact_timing_batch_samples_every_call() {
        let mut sim = primed(Algorithm::Risa, synthetic(20, 3));
        sim.world_mut().set_sched_timing_batch(1);
        sim.run_to_completion();
        let w = sim.world();
        assert_eq!(w.sched.sampled, w.sched.calls);
        // With every call sampled the estimate *is* the measured total.
        assert_eq!(w.sched_seconds(), w.sched.wall.as_secs_f64());
    }

    /// Regression: a run shorter than one timing batch must still report
    /// nonzero scheduler time (the always-timed first call is the
    /// fallback sample).
    #[test]
    fn short_run_scheduler_time_is_nonzero() {
        let w = run_world(Algorithm::Risa, 10, 2);
        assert_eq!(w.sched.calls, 10);
        assert_eq!(w.sched.sampled, 0, "no regular sample point reached");
        assert!(w.sched.cold > Duration::ZERO);
        assert!(w.sched_seconds() > 0.0);
    }

    #[test]
    fn peak_resident_tracks_high_water_mark() {
        let w = run_world(Algorithm::Risa, 60, 9);
        assert!(w.peak_resident() > 0);
        assert!(w.peak_resident() <= 60);
        assert_eq!(w.resident(), 0, "everything departed");
    }
}
