//! Differential verification: the index-backed schedulers must make the
//! *identical* decisions the seed's naive scan-based implementations made
//! — same box grants, same link choices, same drop reasons, and the same
//! deterministic work counters (the Figure 11/12 cost model) — over
//! randomized schedule/release/rack-churn histories (failures evacuate
//! and re-place residents, exactly like the simulator's fault pipeline),
//! on the paper topology, on a 10× cluster and — from hand-drained states
//! that keep RISA in its restricted-NULB fallback and NALB walking past
//! empty racks — on the benchmark's 40× cluster, **and** over replayed canonical v2 traces from
//! `risa_workload::shard` (synthetic + Azure-7500), so the differential
//! spec covers exactly the arrival/departure histories the simulator
//! feeds the schedulers, not just hand-built ones.

use proptest::prelude::*;
use risa_network::{NetworkConfig, NetworkState, TrunkId};
use risa_sched::oracle::OracleScheduler;
use risa_sched::{Algorithm, DropReason, ScheduleOutcome, Scheduler, VmAssignment};
use risa_topology::{
    BoxId, Cluster, RackId, ResourceKind, TopologyConfig, UnitDemand, ALL_RESOURCES,
};
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
/// on independent copies of `cluster`, asserting lock-step equality.
/// Returns how many VMs were placed by RISA's fallback.
fn run_differential(
    mut cluster: Cluster,
    algo: Algorithm,
    steps: &[Step],
) -> Result<usize, TestCaseError> {
    let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
    let mut sched = Scheduler::new(algo, &cluster);

    let mut cluster_o = cluster.clone();
    let mut net_o = net.clone();
    let mut oracle = OracleScheduler::new(algo, &cluster_o);

    let racks = cluster.num_racks();
    let mut down = vec![false; racks as usize];
    let mut held = Vec::new();
    let mut fallbacks = 0;
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
                    fallbacks += usize::from(a.used_fallback);
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
    Ok(fallbacks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Paper topology (18 racks), all four algorithms.
    #[test]
    fn index_matches_oracle_on_paper_topology(
        steps in prop::collection::vec(step_strategy(), 1..120),
        algo_idx in 0usize..4,
    ) {
        run_differential(Cluster::new(TopologyConfig::paper()), Algorithm::ALL[algo_idx], &steps)?;
    }

    /// 10× topology (180 racks): the same lock-step equality must hold at
    /// the scale the index exists for.
    #[test]
    fn index_matches_oracle_on_10x_topology(
        steps in prop::collection::vec(step_strategy(), 1..80),
        algo_idx in 0usize..4,
    ) {
        run_differential(Cluster::new(scaled(180)), Algorithm::ALL[algo_idx], &steps)?;
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

/// A production scheduler and the oracle on equal, independent state.
struct Lockstep {
    cluster: Cluster,
    net: NetworkState,
    sched: Scheduler,
    cluster_o: Cluster,
    net_o: NetworkState,
    oracle: OracleScheduler,
}

impl Lockstep {
    fn new(algo: Algorithm, cluster: Cluster, net: NetworkState) -> Self {
        Lockstep {
            sched: Scheduler::new(algo, &cluster),
            oracle: OracleScheduler::new(algo, &cluster),
            cluster_o: cluster.clone(),
            net_o: net.clone(),
            cluster,
            net,
        }
    }

    /// Schedule `demand` on both sides; outcome and every work counter
    /// must agree. Returns the outcome and the racks the call scanned.
    fn schedule(&mut self, what: &str, demand: &UnitDemand) -> (ScheduleOutcome, u64) {
        let before = self.sched.work().racks_scanned;
        let ours = self
            .sched
            .schedule(&mut self.cluster, &mut self.net, demand);
        let theirs = self
            .oracle
            .schedule(&mut self.cluster_o, &mut self.net_o, demand);
        assert_eq!(ours, theirs, "{what}: outcomes diverged");
        assert_eq!(
            self.sched.work(),
            self.oracle.work(),
            "{what}: work counters diverged"
        );
        (ours, self.sched.work().racks_scanned - before)
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
            let net = NetworkState::new(NetworkConfig::paper(), &cluster);
            let mut pair = Lockstep::new(algo, cluster, net);
            // Twice: the second call meets the state the first one left.
            for _ in 0..2 {
                let (ours, _) = pair.schedule(&format!("{algo}, {what}"), demand);
                match (&ours, expect_drop) {
                    (ScheduleOutcome::Dropped(reason), Some(expected)) => {
                        assert_eq!(reason, expected, "{algo}, {what}")
                    }
                    (ScheduleOutcome::Assigned(a), None) => {
                        assert!(a.used_fallback && !a.intra_rack, "{algo}, {what}")
                    }
                    _ => panic!("{algo}, {what}: unexpected {ours:?}"),
                }
            }
        }
    }
}

/// RISA reads the index root for all three kinds *before* its pool search
/// and charges both of the seed's O(racks) scans when a kind has no
/// admitting rack; the oracle still scans for the pool, builds the
/// `SUPER_RACK` and finds a list empty. A history in which storage — held
/// by the last rack alone, three VMs' worth — runs out and comes back
/// while every rack keeps CPU and RAM: the calls on either side of each
/// flip, a zero-storage demand that must keep finding its pool rack while
/// storage is "out", and, on 257 racks, a last rack that sits alone in its
/// block on both upper levels of the index's tree.
#[test]
fn feasibility_first_matches_oracle_while_a_kind_runs_out() {
    let (with_sto, no_sto) = (UnitDemand::new(2, 4, 2), UnitDemand::new(2, 4, 0));
    for algo in [Algorithm::Risa, Algorithm::RisaBf] {
        for racks in [18, 257] {
            let what = |phase: &str| format!("{algo}, {racks} racks, {phase}");
            let last = RackId(racks - 1);
            let mut cluster = Cluster::new(scaled(racks));
            drain_kind(&mut cluster, ResourceKind::Storage, 0, Some(last));
            for b in cluster.boxes_in_rack(last, ResourceKind::Storage).to_vec() {
                cluster.force_available(b, 3);
            }
            let net = NetworkState::new(NetworkConfig::paper(), &cluster);
            let mut pair = Lockstep::new(algo, cluster, net);
            let both_scans = 2 * racks as u64;

            // Two boxes of 3 units: two VMs of 2 fit, one to a box.
            let mut held = Vec::new();
            for _ in 0..2 {
                let (out, _) = pair.schedule(&what("storage left"), &with_sto);
                let a = out.assigned().expect("storage left").clone();
                assert!(a.intra_rack && !a.used_fallback, "{}", what("pool rack"));
                held.push(a);
            }
            for round in 0..3 {
                // Out of storage: dropped from the root, both scans charged,
                // and the round-robin cursor and box cursors untouched — the
                // zero-storage VMs in between land where the oracle's do.
                for _ in 0..3 {
                    let (out, scanned) = pair.schedule(&what("storage out"), &with_sto);
                    assert_eq!(out, ScheduleOutcome::Dropped(DropReason::Compute));
                    assert_eq!(scanned, both_scans, "{}", what("storage out"));
                    let (out, scanned) = pair.schedule(&what("zero storage"), &no_sto);
                    let a = out.assigned().expect("every rack is in the pool").clone();
                    assert!(a.intra_rack && scanned == racks as u64);
                    held.push(a);
                }
                // A departure brings storage back for exactly one VM.
                let a = held.remove(held.iter().position(|a| demand_of(a) == with_sto).unwrap());
                for (c, n) in [
                    (&mut pair.cluster, &mut pair.net),
                    (&mut pair.cluster_o, &mut pair.net_o),
                ] {
                    Scheduler::release(c, n, &a);
                }
                let (out, _) = pair.schedule(&what(&format!("round {round}")), &with_sto);
                held.push(out.assigned().expect("storage is back").clone());
            }
            pair.cluster.check_invariants().expect("cluster invariants");
            pair.net.check_invariants().expect("network invariants");
        }
    }
}

/// A deterministic per-box draw (SplitMix64's finalizer), so hand-built
/// states are irregular without a generator to seed.
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The benchmark's `--scale 40` topology (`scale_admit`, `scale_nalb`).
const SCALE_40X: u16 = 720;

/// RISA's restricted-NULB fallback at the benchmark's scale. No rack of
/// the prepared cluster holds all three kinds (rack `r` keeps CPU, RAM,
/// storage or CPU + RAM as `r % 4` says, 8..=31 units a box), so the pool
/// is always empty and every VM takes the fallback: `SUPER_RACK`
/// membership that differs per kind and per demand size, home racks that
/// do and do not admit the second kind, and compute drops once a kind
/// runs out, with releases and rack churn moving racks between fit keys
/// throughout. Outcome, drop
/// reason and every work counter must match the oracle's built lists.
#[test]
fn fallback_matches_oracle_on_40x_topology() {
    let mut cluster = Cluster::new(scaled(SCALE_40X));
    for b in 0..cluster.num_boxes() as u32 {
        let id = BoxId(b);
        let kept = match cluster.rack_of(id).0 % 4 {
            0 => cluster.kind_of(id) == ResourceKind::Cpu,
            1 => cluster.kind_of(id) == ResourceKind::Ram,
            2 => cluster.kind_of(id) == ResourceKind::Storage,
            _ => cluster.kind_of(id) != ResourceKind::Storage,
        };
        let units = if kept { 8 + mix(b as u64) % 24 } else { 0 };
        cluster.force_available(id, units as u32);
    }
    let steps: Vec<Step> = (0..3000u32)
        .flat_map(|i| {
            let churn = match i % 400 {
                150 => Some(Step::FailRack((mix(i as u64) % 64) as u16)),
                350 => Some(Step::RepairRack((mix(i as u64 - 200) % 64) as u16)),
                _ => None,
            };
            let release = (i % 3 == 2).then_some(Step::Release(i as usize));
            [
                Some(Step::Schedule(risa_sched::cycle::paper_mix_demand(i))),
                release,
                churn,
            ]
        })
        .flatten()
        .collect();
    for algo in [Algorithm::Risa, Algorithm::RisaBf] {
        let fallbacks = run_differential(cluster.clone(), algo, &steps).unwrap();
        assert!(
            fallbacks >= 1000,
            "{algo}: only {fallbacks} fallback placements"
        );
    }
}

/// NALB's bandwidth-ordered walk charges a rack that cannot grant the
/// demand without sorting or reading it. On the benchmark's 40× cluster
/// with CPU left in under 10 % of the racks, ten racks dark and the
/// uplink order shuffled by standing flows, the walk passes hundreds of
/// such racks (and every rack, when nothing fits); the oracle sorts and
/// scans each one for real, and the counters must agree. The standing
/// flows are granted before any read of the order, so the first walk
/// re-ranks every rack they moved at once — and each later walk the racks
/// the grants since the last one moved.
#[test]
fn nalb_skipped_racks_match_oracle_on_40x_topology() {
    let mut cluster = Cluster::new(scaled(SCALE_40X));
    let keeps_cpu = |r: RackId| r.0 % 11 == 7;
    for b in cluster
        .boxes_of_kind(ResourceKind::Cpu)
        .map(|b| b.id)
        .collect::<Vec<_>>()
    {
        if !keeps_cpu(cluster.rack_of(b)) {
            cluster.force_available(b, 0);
        }
    }
    // Dark racks of both sorts, among them the first CPU rack in id order.
    for r in [3, 7, 18, 40, 95, 250, 251, 400, 590, 719] {
        flip_rack(&mut cluster, RackId(r), true);
    }
    let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
    for j in 0..300u64 {
        let (a, b) = (mix(2 * j) % 4320, mix(2 * j + 1) % 4320);
        let mbps = 20_000 * (1 + j % 5);
        // Refusals (a full trunk, a pair sharing a box) leave no trace.
        let _ = net.alloc_flow(
            &cluster,
            BoxId(a as u32),
            BoxId(b as u32),
            mbps,
            risa_network::LinkPolicy::FirstFit,
        );
    }
    // Nothing has read the order yet: every rack a flow moved is pending.
    let moved = (0..SCALE_40X)
        .map(TrunkId::RackUplink)
        .filter(|&t| net.trunk(t).free_mbps() < net.trunk(t).capacity_mbps())
        .count();
    assert!(moved >= 100, "only {moved} racks pending at the first read");
    net.check_invariants()
        .expect("network invariants, racks pending");
    let mut pair = Lockstep::new(Algorithm::Nalb, cluster, net);

    // CPU is scarce: the home rack holds it, and RAM and storage too.
    let (out, racks) = pair.schedule("home rack admits", &UnitDemand::new(8, 1, 1));
    assert!(out.assigned().is_some_and(|a| a.intra_rack));
    assert_eq!(racks, 2, "one home-rack check per searched kind");

    // RAM is scarce: home is rack 0, which has no CPU left, so the CPU
    // search walks the uplink order past racks that cannot grant it.
    let (out, racks) = pair.schedule("home rack does not admit", &UnitDemand::new(1, 14, 1));
    let a = out.assigned().expect("CPU exists elsewhere");
    let cpu_rack = pair
        .cluster
        .rack_of(a.placement.grant(ResourceKind::Cpu).box_id);
    assert!(keeps_cpu(cpu_rack) && !a.intra_rack);
    assert!(racks > 10, "walked past {racks} racks only");

    // Nothing admits: plenty of storage, no box with 101 units of it (and
    // RAM in the even racks only, which keeps RAM the scarce kind). The
    // storage search passes the home rack and all 719 others.
    for c in [&mut pair.cluster, &mut pair.cluster_o] {
        for b in 0..c.num_boxes() as u32 {
            let id = BoxId(b);
            match c.kind_of(id) {
                _ if c.is_failed(id) => {}
                ResourceKind::Storage => c.force_available(id, 100),
                ResourceKind::Ram if c.rack_of(id).0 % 2 == 1 => c.force_available(id, 0),
                _ => {}
            }
        }
    }
    let (out, racks) = pair.schedule("nothing admits", &UnitDemand::new(1, 128, 101));
    assert_eq!(out, ScheduleOutcome::Dropped(DropReason::Compute));
    assert!(racks > 720, "CPU walk + 720 for storage, got {racks}");

    for i in 0..200 {
        pair.schedule("paper mix", &risa_sched::cycle::paper_mix_demand(i));
    }
    pair.cluster.check_invariants().expect("cluster invariants");
    pair.net.check_invariants().expect("network invariants");
}
