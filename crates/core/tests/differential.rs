//! Differential verification: the index-backed schedulers must make the
//! *identical* decisions the seed's naive scan-based implementations made
//! — same box grants, same link choices, same drop reasons, and the same
//! deterministic work counters (the Figure 11/12 cost model) — over
//! randomized schedule/release/rack-churn histories (failures evacuate
//! and re-place residents, exactly like the simulator's fault pipeline),
//! on the paper topology and on a
//! 10× cluster, **and** over replayed canonical v2 traces from
//! `risa_workload::shard` (synthetic + Azure-7500), so the differential
//! spec covers exactly the arrival/departure histories the simulator
//! feeds the schedulers, not just hand-built ones.

use proptest::prelude::*;
use risa_network::{NetworkConfig, NetworkState};
use risa_sched::oracle::OracleScheduler;
use risa_sched::{Algorithm, DropReason, ScheduleOutcome, Scheduler, VmAssignment};
use risa_topology::{Cluster, RackId, ResourceKind, TopologyConfig, UnitDemand, ALL_RESOURCES};
use risa_workload::{AzureSubset, SyntheticConfig, Workload};

/// One step of a history: schedule a fresh VM, release the n-th oldest
/// still-resident one, or churn a rack — fail it (evacuating and
/// re-placing every resident VM that touched it, exactly as the
/// simulator's fault pipeline does) or repair it.
#[derive(Debug, Clone)]
enum Step {
    Schedule(UnitDemand),
    Release(usize),
    FailRack(u16),
    RepairRack(u16),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        // Paper-realistic single-box demands (synthetic ≤ 8/8/2 units,
        // Azure RAM up to 14); occasional zero components stress edge
        // handling.
        4 => (0u32..=8, 0u32..=14, 0u32..=2)
            .prop_map(|(c, r, s)| Step::Schedule(UnitDemand::new(c, r, s))),
        2 => (0usize..32).prop_map(Step::Release),
        // Rack churn keeps the failed-capacity paths in the differential:
        // both sides must agree while boxes are dark and after restores.
        1 => (0u16..512).prop_map(Step::FailRack),
        1 => (0u16..512).prop_map(Step::RepairRack),
    ]
}

/// Fail or restore every box in `rack` on one cluster.
fn flip_rack(cluster: &mut Cluster, rack: RackId, fail: bool) {
    let boxes: Vec<_> = ALL_RESOURCES
        .iter()
        .flat_map(|&k| cluster.boxes_in_rack(rack, k))
        .copied()
        .collect();
    for b in boxes {
        if fail {
            cluster.remove_box(b).expect("rack not already failed");
        } else {
            cluster.restore_box(b).expect("rack was failed");
        }
    }
}

/// Reconstruct the unit demand a placement was granted for.
fn demand_of(a: &VmAssignment) -> UnitDemand {
    UnitDemand::new(
        a.placement.grant(ResourceKind::Cpu).units,
        a.placement.grant(ResourceKind::Ram).units,
        a.placement.grant(ResourceKind::Storage).units,
    )
}

fn scaled(racks: u16) -> TopologyConfig {
    TopologyConfig {
        racks,
        ..TopologyConfig::paper()
    }
}

/// Drive the same history through the production scheduler and the oracle
/// on independent state, asserting lock-step equality.
fn run_differential(
    cfg: TopologyConfig,
    algo: Algorithm,
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let mut cluster = Cluster::new(cfg);
    let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
    let mut sched = Scheduler::new(algo, &cluster);

    let mut cluster_o = Cluster::new(cfg);
    let mut net_o = NetworkState::new(NetworkConfig::paper(), &cluster_o);
    let mut oracle = OracleScheduler::new(algo, &cluster_o);

    let racks = cfg.racks;
    let mut down = vec![false; racks as usize];
    let mut held = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Schedule(demand) => {
                let ours = sched.schedule(&mut cluster, &mut net, demand);
                let theirs = oracle.schedule(&mut cluster_o, &mut net_o, demand);
                prop_assert_eq!(
                    &ours,
                    &theirs,
                    "step {} ({}, {:?}): index and oracle diverged",
                    i,
                    algo,
                    demand
                );
                if let ScheduleOutcome::Assigned(a) = ours {
                    held.push(a);
                }
            }
            Step::Release(n) => {
                if held.is_empty() {
                    continue;
                }
                let a = held.remove(n % held.len());
                Scheduler::release(&mut cluster, &mut net, &a);
                Scheduler::release(&mut cluster_o, &mut net_o, &a);
            }
            Step::FailRack(r) => {
                let rid = RackId(r % racks);
                if down[rid.0 as usize] {
                    continue;
                }
                // Evacuate exactly as the simulator does: release every
                // resident touching the rack (in admission order), dark
                // the boxes, then re-place each victim through the
                // scheduler under test — both sides must keep agreeing.
                let mut victims = Vec::new();
                held.retain(|a| {
                    if a.placement.racks(&cluster).contains(&rid) {
                        victims.push(a.clone());
                        false
                    } else {
                        true
                    }
                });
                for a in &victims {
                    Scheduler::release(&mut cluster, &mut net, a);
                    Scheduler::release(&mut cluster_o, &mut net_o, a);
                }
                flip_rack(&mut cluster, rid, true);
                flip_rack(&mut cluster_o, rid, true);
                down[rid.0 as usize] = true;
                for a in &victims {
                    let demand = demand_of(a);
                    let ours = sched.schedule(&mut cluster, &mut net, &demand);
                    let theirs = oracle.schedule(&mut cluster_o, &mut net_o, &demand);
                    prop_assert_eq!(
                        &ours,
                        &theirs,
                        "step {} ({}, {:?}): evacuation re-placement diverged",
                        i,
                        algo,
                        demand
                    );
                    if let ScheduleOutcome::Assigned(a) = ours {
                        held.push(a);
                    }
                }
            }
            Step::RepairRack(r) => {
                let rid = RackId(r % racks);
                if !down[rid.0 as usize] {
                    continue;
                }
                flip_rack(&mut cluster, rid, false);
                flip_rack(&mut cluster_o, rid, false);
                down[rid.0 as usize] = false;
            }
        }
        prop_assert_eq!(
            sched.work(),
            oracle.work(),
            "step {} ({}): work-counter cost models diverged",
            i,
            algo
        );
    }
    // Restore any still-dark racks so the pristine-capacity invariants
    // apply, then check both ledgers.
    for r in 0..racks {
        if down[r as usize] {
            flip_rack(&mut cluster, RackId(r), false);
            flip_rack(&mut cluster_o, RackId(r), false);
        }
    }
    cluster.check_invariants().map_err(TestCaseError::fail)?;
    net.check_invariants().map_err(TestCaseError::fail)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Paper topology (18 racks), all four algorithms.
    #[test]
    fn index_matches_oracle_on_paper_topology(
        steps in prop::collection::vec(step_strategy(), 1..120),
        algo_idx in 0usize..4,
    ) {
        run_differential(TopologyConfig::paper(), Algorithm::ALL[algo_idx], &steps)?;
    }

    /// 10× topology (180 racks): the same lock-step equality must hold at
    /// the scale the index exists for.
    #[test]
    fn index_matches_oracle_on_10x_topology(
        steps in prop::collection::vec(step_strategy(), 1..80),
        algo_idx in 0usize..4,
    ) {
        run_differential(scaled(180), Algorithm::ALL[algo_idx], &steps)?;
    }
}

/// Replay a generated trace as the schedule/release history the
/// simulator would produce — arrivals and departures merged in event-time
/// order (departures first on ties, so capacity frees before the
/// simultaneous arrival is placed; the *same* deterministic order feeds
/// both sides) — asserting lock-step outcome and work-counter equality.
fn run_trace_differential(algo: Algorithm, trace: &Workload, expect_drops: bool) {
    let cfg = TopologyConfig::paper();
    let mut cluster = Cluster::new(cfg);
    let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
    let mut sched = Scheduler::new(algo, &cluster);

    let mut cluster_o = Cluster::new(cfg);
    let mut net_o = NetworkState::new(NetworkConfig::paper(), &cluster_o);
    let mut oracle = OracleScheduler::new(algo, &cluster_o);

    const DEPART: u8 = 0;
    const ARRIVE: u8 = 1;
    let vms = trace.vms();
    let mut events: Vec<(f64, u8, u32)> = Vec::with_capacity(vms.len() * 2);
    for (i, vm) in vms.iter().enumerate() {
        events.push((vm.arrival, ARRIVE, i as u32));
        events.push((vm.departure(), DEPART, i as u32));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let mut held: Vec<Option<VmAssignment>> = vec![None; vms.len()];
    let mut drops = 0u32;
    for &(_, kind, idx) in &events {
        let idx = idx as usize;
        if kind == ARRIVE {
            let demand = vms[idx].demand(&cfg);
            let ours = sched.schedule(&mut cluster, &mut net, &demand);
            let theirs = oracle.schedule(&mut cluster_o, &mut net_o, &demand);
            assert_eq!(
                ours,
                theirs,
                "{algo} diverged on {} at VM {idx}",
                trace.name()
            );
            match ours {
                ScheduleOutcome::Assigned(a) => held[idx] = Some(a),
                ScheduleOutcome::Dropped(_) => drops += 1,
            }
        } else if let Some(a) = held[idx].take() {
            Scheduler::release(&mut cluster, &mut net, &a);
            Scheduler::release(&mut cluster_o, &mut net_o, &a);
        }
    }
    assert_eq!(
        sched.work(),
        oracle.work(),
        "{algo}: cost models diverged on {}",
        trace.name()
    );
    if expect_drops {
        assert!(
            drops > 0,
            "{algo}: the paper cluster should saturate under {} ({} VMs)",
            trace.name(),
            vms.len()
        );
    }
    cluster
        .check_invariants()
        .expect("index cluster invariants");
    net.check_invariants().expect("index network invariants");
}

/// Canonical sharded synthetic trace (v2 stream, > 1 shard so the
/// multi-stream stitching is exercised), all four algorithms.
#[test]
fn sharded_synthetic_trace_matches_oracle() {
    let trace = Workload::synthetic(&SyntheticConfig::small(6000, 9));
    assert!(
        trace.len() as u32 > risa_workload::shard::SHARD_SIZE,
        "trace must span multiple generation shards"
    );
    for algo in Algorithm::ALL {
        // 6000 synthetic VMs overload the paper cluster: the drop and
        // fallback paths must agree too.
        run_trace_differential(algo, &trace, true);
    }
}

/// Canonical sharded Azure-7500 trace (the paper's largest subset, two
/// generation shards), all four algorithms. Like the paper's runs, this
/// workload fits the cluster (no drops) — the differential here covers
/// the steady churn of realistic demands.
#[test]
fn sharded_azure_7500_trace_matches_oracle() {
    let trace = Workload::azure(AzureSubset::N7500, 2023);
    assert!(trace.len() as u32 > risa_workload::shard::SHARD_SIZE);
    for algo in Algorithm::ALL {
        run_trace_differential(algo, &trace, false);
    }
}

/// A deterministic overload run: drive the paper cluster into saturation
/// (forcing drops and fallbacks) and compare the full outcome streams.
#[test]
fn saturation_histories_stay_identical() {
    for algo in Algorithm::ALL {
        let cfg = TopologyConfig::paper();
        let mut cluster = Cluster::new(cfg);
        let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
        let mut sched = Scheduler::new(algo, &cluster);
        let mut cluster_o = Cluster::new(cfg);
        let mut net_o = NetworkState::new(NetworkConfig::paper(), &cluster_o);
        let mut oracle = OracleScheduler::new(algo, &cluster_o);

        let mut drops = 0;
        for i in 0..1500u32 {
            let d = risa_sched::cycle::paper_mix_demand(i);
            let ours = sched.schedule(&mut cluster, &mut net, &d);
            let theirs = oracle.schedule(&mut cluster_o, &mut net_o, &d);
            assert_eq!(ours, theirs, "{algo} diverged at VM {i}");
            if !ours.is_assigned() {
                drops += 1;
            }
        }
        assert_eq!(sched.work(), oracle.work(), "{algo}: cost models diverged");
        assert!(drops > 0, "{algo}: saturation run should drop some VMs");
    }
}

/// Set every box of `kind` outside `keep` to `units` free.
fn drain_kind(cluster: &mut Cluster, kind: ResourceKind, units: u32, keep: Option<RackId>) {
    let boxes: Vec<_> = cluster.boxes_of_kind(kind).map(|b| b.id).collect();
    for b in boxes {
        if Some(cluster.rack_of(b)) != keep {
            cluster.force_available(b, units);
        }
    }
}

/// RISA's fallback answers "is some kind's SUPER_RACK list empty?" from
/// the placement index's root before building the lists; the oracle still
/// builds them and asks `infeasible()`. Targeted states where the two
/// could part ways: exactly one kind without an admitting rack (drained,
/// then with the other racks dark), the feasible neighbour of that state
/// (the fast path must not over-trigger), and a zero-unit demand for a
/// kind whose every box is dark.
#[test]
fn infeasible_fast_path_matches_oracle() {
    let d = UnitDemand::new(2, 4, 2);
    let (compute, fallback) = (Some(DropReason::Compute), None);
    type Prepare = fn(&mut Cluster);
    let cases: [(&str, Prepare, UnitDemand, Option<DropReason>); 4] = [
        (
            "CPU only in rack 0, storage only in rack 1: empty pool, feasible SUPER_RACK",
            |c| {
                drain_kind(c, ResourceKind::Cpu, 1, Some(RackId(0)));
                drain_kind(c, ResourceKind::Storage, 1, Some(RackId(1)));
            },
            d,
            fallback,
        ),
        (
            "saturated: storage alone has no admitting rack",
            |c| {
                drain_kind(c, ResourceKind::Cpu, 1, Some(RackId(0)));
                drain_kind(c, ResourceKind::Storage, 1, None);
            },
            d,
            compute,
        ),
        (
            "racks 1.. removed, rack 0's storage drained",
            |c| {
                drain_kind(c, ResourceKind::Storage, 1, None);
                for r in 1..c.num_racks() {
                    flip_rack(c, RackId(r), true);
                }
            },
            d,
            compute,
        ),
        (
            "zero-unit storage demand, every storage box dark",
            |c| {
                let boxes: Vec<_> = c
                    .boxes_of_kind(ResourceKind::Storage)
                    .map(|b| b.id)
                    .collect();
                for b in boxes {
                    c.remove_box(b).expect("box is live");
                }
            },
            UnitDemand::new(2, 4, 0),
            compute,
        ),
    ];
    for algo in [Algorithm::Risa, Algorithm::RisaBf] {
        for (what, prepare, demand, expect_drop) in &cases {
            let mut cluster = Cluster::new(TopologyConfig::paper());
            prepare(&mut cluster);
            let mut cluster_o = cluster.clone();
            let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
            let mut net_o = net.clone();
            let mut sched = Scheduler::new(algo, &cluster);
            let mut oracle = OracleScheduler::new(algo, &cluster_o);
            // Twice: the second call meets warm scratch buffers.
            for _ in 0..2 {
                let ours = sched.schedule(&mut cluster, &mut net, demand);
                let theirs = oracle.schedule(&mut cluster_o, &mut net_o, demand);
                assert_eq!(ours, theirs, "{algo}, {what}: outcomes diverged");
                match (&ours, expect_drop) {
                    (ScheduleOutcome::Dropped(reason), Some(expected)) => {
                        assert_eq!(reason, expected, "{algo}, {what}")
                    }
                    (ScheduleOutcome::Assigned(a), None) => {
                        assert!(a.used_fallback && !a.intra_rack, "{algo}, {what}")
                    }
                    _ => panic!("{algo}, {what}: unexpected {ours:?}"),
                }
                assert_eq!(
                    sched.work(),
                    oracle.work(),
                    "{algo}, {what}: work counters diverged"
                );
            }
        }
    }
}
