//! A running fault scenario: its state on the world ([`FaultState`]) and
//! the handlers of the fault events — rack failure and repair, link
//! outages and restores, and the re-placement of evacuated VMs through the
//! world's one `admit`. The scenario itself (rates, chains, tallies) is
//! `crate::faults`.

use crate::faults::{ChainSet, FaultMeters, FaultReport, FaultSpec, FaultTallies, Migration};
use crate::world::{DdcWorld, SimEvent};
use risa_des::{EventCtx, SimDuration, SimTime};
use risa_metrics::TimeWeighted;
use risa_network::{NetworkState, TrunkId};
use risa_sched::ScheduleOutcome;
use risa_topology::{BoxId, Cluster, RackId, ResourceKind, UnitDemand, ALL_RESOURCES};
use std::collections::{BTreeMap, BTreeSet};

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
    tallies: FaultTallies,
    pub(crate) meters: FaultMeters,
    /// Failure time of each currently-down rack.
    rack_down_since: Vec<Option<f64>>,
    /// Evacuated VMs still in transit to their re-placement. BTreeMap:
    /// bounded by in-flight migrations (cold), and orderable if a future
    /// report ever lists them.
    in_transit: BTreeMap<u32, Migration>,
    /// Evacuated VMs dropped at re-placement whose original departure
    /// event is still in flight (swallowed when it fires).
    tombstones: BTreeSet<u32>,
    /// Total capacity units (all kinds) of the pristine cluster — the
    /// baseline the stranded-capacity meter measures against.
    pub(crate) pristine_units: u64,
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

impl DdcWorld {
    /// Attach a fault scenario resolved against the workload `span` (the
    /// last arrival time; see `crate::faults` for the determinism
    /// argument). Call before running; `SimulationBuilder` seeds the
    /// queue with the onsets of `DdcWorld::initial_fault_events`.
    pub(crate) fn enable_faults(&mut self, spec: FaultSpec, span: f64) {
        self.faults = Some(Box::new(FaultState::new(
            spec,
            span,
            &self.cluster,
            &self.cfg.network,
        )));
    }

    /// The attached scenario; every fault event has one.
    fn fault_state(&mut self) -> &mut FaultState {
        self.faults
            .as_deref_mut()
            .expect("fault event without a scenario")
    }

    /// Draw each component chain's first failure onset and return the
    /// events to seed the queue with (onsets past the span are skipped —
    /// the chain stays quiet for the whole run). Component order is
    /// fixed — racks, trunk links, transceivers — so the event sequence
    /// numbers are identical on every arrival pipeline.
    pub(crate) fn initial_fault_events(&mut self) -> Vec<(SimTime, SimEvent)> {
        let fs = self.fault_state();
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

    /// The departure of a VM the world no longer holds. Only reachable
    /// under fault injection: the VM was displaced by a rack failure after
    /// admission and holds no resources — it was either dropped at
    /// re-placement (tombstoned) or is still in transit (its migration is
    /// hereby cancelled).
    pub(crate) fn depart_displaced(&mut self, idx: u32) {
        let fs = self
            .faults
            .as_deref_mut()
            .expect("departure of a VM that was never admitted");
        if !fs.tombstones.remove(&idx) {
            fs.in_transit
                .remove(&idx)
                .expect("departure of a VM that was never admitted");
            fs.tallies.evac_departed += 1;
        }
    }

    /// Every box of rack `rack`, all kinds.
    fn rack_boxes(&self, rack: RackId) -> Vec<BoxId> {
        ALL_RESOURCES
            .iter()
            .flat_map(|&k| self.cluster.boxes_in_rack(rack, k))
            .copied()
            .collect()
    }

    /// A rack fails: evacuate its residents (release now, re-place after
    /// a per-VM migration delay), retract every box, schedule the repair.
    pub(crate) fn on_rack_fail(&mut self, rack: u16, now: f64, ctx: &mut EventCtx<'_, SimEvent>) {
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
                .release(idx)
                .expect("evacuating a VM that is not resident");
            let fs = self.fault_state();
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
        for b in self.rack_boxes(rid) {
            self.cluster
                .remove_box(b)
                .expect("rack chains alternate fail/repair");
        }
        let fs = self.fault_state();
        fs.tallies.rack_failures += 1;
        fs.rack_down_since[rack as usize] = Some(now);
        let down = fs.chains.racks[rack as usize].downtime();
        ctx.schedule_in(SimDuration::from_units(down), SimEvent::RackRepair(rack));
        self.sample_state(now);
    }

    /// A rack is repaired: its boxes rejoin every scheduler aggregate and
    /// the next failure onset is drawn (scheduled only within the span).
    pub(crate) fn on_rack_repair(&mut self, rack: u16, now: f64, ctx: &mut EventCtx<'_, SimEvent>) {
        for b in self.rack_boxes(RackId(rack)) {
            self.cluster
                .restore_box(b)
                .expect("repair of a rack that is down");
        }
        let fs = self.fault_state();
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

    /// Link `link` of trunk `id` goes dark (`up == false`; its restore is
    /// always scheduled) or is restored (the next outage is drawn and
    /// scheduled only if its onset lands within the span).
    pub(crate) fn on_link(
        &mut self,
        id: TrunkId,
        link: u16,
        up: bool,
        now: f64,
        ctx: &mut EventCtx<'_, SimEvent>,
    ) {
        let flip = if up {
            NetworkState::restore_link
        } else {
            NetworkState::fail_link
        };
        flip(&mut self.net, id, link as usize).expect("link chains alternate down/up");
        let fs = self.fault_state();
        let t = &mut fs.tallies;
        // Tallies and the next event, indexed by `up`.
        let (tally, chain, next) = match id {
            TrunkId::RackUplink(rack) => (
                [&mut t.trunk_link_downs, &mut t.trunk_link_ups],
                fs.chains.trunk_chain(rack, link),
                [
                    SimEvent::TrunkUp { rack, link },
                    SimEvent::TrunkDown { rack, link },
                ],
            ),
            TrunkId::BoxUplink(box_idx) => (
                [&mut t.xcvr_downs, &mut t.xcvr_ups],
                fs.chains.xcvr_chain(box_idx, link),
                [
                    SimEvent::XcvrUp { box_idx, link },
                    SimEvent::XcvrDown { box_idx, link },
                ],
            ),
        };
        *tally[usize::from(up)] += 1;
        let wait = if up { chain.uptime() } else { chain.downtime() };
        if !up || now + wait < fs.span {
            ctx.schedule_in(SimDuration::from_units(wait), next[usize::from(up)]);
        }
        self.sample_state(now);
    }

    /// An evacuated VM completes its migration: re-place it through the
    /// active scheduler (the search is charged to the work counters like
    /// any arrival) or drop it if nothing fits. A no-op if the VM's
    /// lifetime already ended in transit.
    pub(crate) fn on_migrate(&mut self, idx: u32, now: f64) {
        let Some(m) = self.fault_state().in_transit.remove(&idx) else {
            return; // departed while in transit — already accounted
        };
        match self.schedule(&m.demand) {
            ScheduleOutcome::Assigned(a) => {
                // The original departure event is still pending and will
                // release this re-placement; energy/latency stay the
                // admission-time estimates.
                self.admit(idx, a);
                let fs = self.fault_state();
                fs.tallies.evac_replaced += 1;
                fs.meters.evac_latency.record(now - m.evacuated_at);
            }
            ScheduleOutcome::Dropped(_) => {
                let fs = self.fault_state();
                fs.tallies.dropped_churn += 1;
                fs.tombstones.insert(idx);
            }
        }
        self.sample_state(now);
    }
}
