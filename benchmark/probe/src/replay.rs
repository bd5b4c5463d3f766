//! Shadow replay of a trace through the public layer API, and replays of
//! the recorded operation stream through each layer alone.
//!
//! The shadow replay is the event loop of `risa-sim` reduced to what the
//! scheduler needs: arrivals in trace order, a departure heap ordered as
//! the engine orders it (tick, then insertion; an arrival wins a tie with
//! a departure), `Scheduler::schedule` per arrival and
//! `Scheduler::release` per departure. It injects no faults.

use crate::spans::{SpanId, Tracer};
use risa::des::{EventQueue, SimDuration, SimTime};
use risa::metrics::{OnlineStats, TimeWeighted};
use risa::network::{NetworkConfig, NetworkState};
use risa::photonics::{EnergyModel, SwitchPath};
use risa::sched::{Algorithm, DropReason, ScheduleOutcome, Scheduler, VmAssignment, WorkCounters};
use risa::sim::SimConfig;
use risa::topology::Cluster;
use risa::workload::Workload;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Spans are recorded once per this many arrivals (or operations).
pub const BATCH: usize = 4096;

/// The network layer's totals are read once per this many operations in
/// the network replay; reading them on every one, as the real loop does,
/// would cost as much as the real loop.
const SAMPLE_EVERY: usize = 64;

/// Back-to-back reads timed by one clock pair at each sampling point.
const SAMPLE_READS: u64 = 8;

#[derive(Clone, Copy)]
pub enum OpKind {
    /// Arrival admitted; the index is into [`Recorded::admits`].
    Admit(u32),
    /// Arrival dropped.
    Drop,
    /// Departure of the admit with this index.
    Release(u32),
}

#[derive(Clone, Copy)]
pub struct Op {
    /// Simulated time of the event, paper units.
    pub t: f64,
    pub kind: OpKind,
}

pub struct Admit {
    pub assignment: VmAssignment,
    pub lifetime: f64,
    pub departs: SimTime,
}

/// What the shadow replay did, in execution order.
pub struct Recorded {
    pub ops: Vec<Op>,
    pub admits: Vec<Admit>,
    pub dropped_compute: u32,
    pub dropped_network: u32,
    pub inter_rack: u32,
    pub work: WorkCounters,
    pub schedule_ns: u64,
    pub release_ns: u64,
}

/// Release every queued departure due strictly before `limit` (all of
/// them when `None`). Returns (nanoseconds in `release`, releases).
fn release_due(
    limit: Option<SimTime>,
    departures: &mut BinaryHeap<Reverse<(SimTime, u32)>>,
    cluster: &mut Cluster,
    net: &mut NetworkState,
    rec: &mut Recorded,
) -> (u64, u64) {
    let (mut ns, mut n) = (0, 0);
    while let Some(&Reverse((at, idx))) = departures.peek() {
        if limit.is_some_and(|l| at >= l) {
            break;
        }
        departures.pop();
        let started = Instant::now();
        Scheduler::release(cluster, net, &rec.admits[idx as usize].assignment);
        ns += started.elapsed().as_nanos() as u64;
        n += 1;
        rec.ops.push(Op {
            t: at.as_units(),
            kind: OpKind::Release(idx),
        });
    }
    (ns, n)
}

pub fn shadow_replay(
    tr: &mut Tracer,
    parent: SpanId,
    trace: &Workload,
    algo: Algorithm,
    cfg: &SimConfig,
) -> Recorded {
    let span = tr.open(Some(parent), "shadow.replay");
    let mut cluster = Cluster::new(cfg.topology);
    let mut net = NetworkState::new(cfg.network, &cluster);
    let mut sched = Scheduler::new(algo, &cluster);
    // Admit indices grow in push order, so `(time, index)` orders equal
    // departure times by insertion, as the engine's sequence number does.
    let mut departures = BinaryHeap::new();
    let mut rec = Recorded {
        ops: Vec::with_capacity(2 * trace.len()),
        admits: Vec::new(),
        dropped_compute: 0,
        dropped_network: 0,
        inter_rack: 0,
        work: WorkCounters::new(),
        schedule_ns: 0,
        release_ns: 0,
    };
    for batch in trace.vms().chunks(BATCH) {
        let begin = tr.now();
        let (mut schedule_ns, mut release_ns, mut releases) = (0u64, 0u64, 0u64);
        for vm in batch {
            let now = SimTime::from_units(vm.arrival);
            let (ns, n) = release_due(Some(now), &mut departures, &mut cluster, &mut net, &mut rec);
            release_ns += ns;
            releases += n;
            let demand = vm.demand(&cfg.topology);
            let started = Instant::now();
            let outcome = sched.schedule(&mut cluster, &mut net, &demand);
            schedule_ns += started.elapsed().as_nanos() as u64;
            let kind = match outcome {
                ScheduleOutcome::Assigned(assignment) => {
                    if !assignment.intra_rack {
                        rec.inter_rack += 1;
                    }
                    let idx = rec.admits.len() as u32;
                    let departs = now + SimDuration::from_units(vm.lifetime);
                    departures.push(Reverse((departs, idx)));
                    rec.admits.push(Admit {
                        assignment,
                        lifetime: vm.lifetime,
                        departs,
                    });
                    OpKind::Admit(idx)
                }
                ScheduleOutcome::Dropped(DropReason::Compute) => {
                    rec.dropped_compute += 1;
                    OpKind::Drop
                }
                ScheduleOutcome::Dropped(DropReason::Network) => {
                    rec.dropped_network += 1;
                    OpKind::Drop
                }
            };
            rec.ops.push(Op {
                t: now.as_units(),
                kind,
            });
        }
        // The two children are sums over the batch laid end to end from
        // its start: their durations are measured, their offsets are not.
        let end = tr.now();
        let schedule_ns = tr.less_clock(schedule_ns, batch.len() as u64);
        let release_ns = tr.less_clock(release_ns, releases);
        let batch_span = tr.add(Some(span), "shadow.batch", begin, end, batch.len() as u64);
        let mid = begin + schedule_ns;
        tr.add(
            Some(batch_span),
            "sched.schedule",
            begin,
            mid,
            batch.len() as u64,
        );
        tr.add(
            Some(batch_span),
            "sched.release",
            mid,
            mid + release_ns,
            releases,
        );
        rec.schedule_ns += schedule_ns;
        rec.release_ns += release_ns;
    }
    let begin = tr.now();
    let (ns, n) = release_due(None, &mut departures, &mut cluster, &mut net, &mut rec);
    let end = tr.now();
    let ns = tr.less_clock(ns, n);
    let drain = tr.add(Some(span), "shadow.drain", begin, end, n);
    tr.add(Some(drain), "sched.release", begin, begin + ns, n);
    rec.release_ns += ns;
    rec.work = *sched.work();
    tr.close(span, rec.ops.len() as u64);
    rec
}

/// Time `step` over the operation stream in [`BATCH`]-sized spans named
/// `name` under `parent`; returns the total nanoseconds.
fn replay_ops(
    tr: &mut Tracer,
    parent: SpanId,
    name: &'static str,
    ops: &[Op],
    mut step: impl FnMut(&Op),
) -> u64 {
    let mut total = 0;
    for chunk in ops.chunks(BATCH) {
        let begin = tr.now();
        for op in chunk {
            step(op);
        }
        let end = tr.now();
        tr.add(Some(parent), name, begin, end, chunk.len() as u64);
        total += end - begin;
    }
    total
}

/// `des`: departures pushed and popped through `EventQueue` in the order
/// the run needs them, with the peek the arrival merge makes per arrival.
/// Returns (nanoseconds, peak future-event-list length).
pub fn replay_des(tr: &mut Tracer, parent: SpanId, rec: &Recorded) -> (u64, usize) {
    let mut queue: EventQueue<u32> = EventQueue::new();
    let ns = replay_ops(tr, parent, "des.queue", &rec.ops, |op| match op.kind {
        OpKind::Admit(idx) => {
            black_box(queue.peek_time());
            queue.push(rec.admits[idx as usize].departs, idx);
        }
        OpKind::Drop => {
            black_box(queue.peek_time());
        }
        OpKind::Release(idx) => {
            let entry = queue
                .pop()
                .expect("a departure is queued for every release");
            assert_eq!(
                entry.event, idx,
                "EventQueue order differs from the shadow heap"
            );
        }
    });
    assert!(queue.is_empty());
    (ns, queue.peak_fel_len())
}

/// `topology`: the recorded placements taken and given back.
pub fn replay_topology(tr: &mut Tracer, parent: SpanId, rec: &Recorded, cfg: &SimConfig) -> u64 {
    let mut cluster = Cluster::new(cfg.topology);
    replay_ops(tr, parent, "topology.place", &rec.ops, |op| match op.kind {
        OpKind::Admit(idx) => cluster
            .take_placement(&rec.admits[idx as usize].assignment.placement)
            .expect("a recorded placement fits a fresh cluster"),
        OpKind::Release(idx) => cluster
            .give_placement(&rec.admits[idx as usize].assignment.placement)
            .expect("a taken placement can be given back"),
        OpKind::Drop => {}
    })
}

/// `network`: the recorded flows granted and released, and the two layer
/// totals the world samples per event read once per [`SAMPLE_EVERY`]
/// operations. Returns (grant nanoseconds, sample nanoseconds, samples).
pub fn replay_network(
    tr: &mut Tracer,
    parent: SpanId,
    rec: &Recorded,
    cfg: &SimConfig,
) -> (u64, u64, u64) {
    let cluster = Cluster::new(cfg.topology);
    let mut net = NetworkState::new(cfg.network, &cluster);
    let (mut grant_ns, mut sample_ns, mut samples) = (0, 0, 0);
    for chunk in rec.ops.chunks(BATCH) {
        let begin = tr.now();
        let mut chunk_sample_ns = 0;
        let mut chunk_samples = 0;
        for (i, op) in chunk.iter().enumerate() {
            match op.kind {
                OpKind::Admit(idx) => net
                    .replay_vm(&rec.admits[idx as usize].assignment.network)
                    .expect("recorded flows fit a fresh network"),
                OpKind::Release(idx) => net
                    .release_vm(&rec.admits[idx as usize].assignment.network)
                    .expect("granted flows can be released"),
                OpKind::Drop => {}
            }
            if i % SAMPLE_EVERY == 0 {
                let started = Instant::now();
                for _ in 0..SAMPLE_READS {
                    let net = black_box(&net);
                    black_box(net.intra_used_mbps() + net.inter_used_mbps());
                }
                chunk_sample_ns += started.elapsed().as_nanos() as u64;
                chunk_samples += SAMPLE_READS;
            }
        }
        let end = tr.now();
        let chunk_sample_ns = tr.less_clock(chunk_sample_ns, chunk_samples / SAMPLE_READS);
        let span = tr.add(
            Some(parent),
            "network.grant",
            begin,
            end,
            chunk.len() as u64,
        );
        tr.add(
            Some(span),
            "network.sample",
            begin,
            begin + chunk_sample_ns,
            chunk_samples,
        );
        grant_ns += (end - begin).saturating_sub(chunk_sample_ns);
        sample_ns += chunk_sample_ns;
        samples += chunk_samples;
    }
    (grant_ns, sample_ns, samples)
}

/// `metrics`: what the world accumulates per event — five time-weighted
/// signals set, and a latency recorded per admit.
pub fn replay_metrics(tr: &mut Tracer, parent: SpanId, rec: &Recorded, cfg: &SimConfig) -> u64 {
    let mut signals: [TimeWeighted; 5] = std::array::from_fn(|_| TimeWeighted::new(0.0, 0.0));
    let mut latency = OnlineStats::new();
    let mut used = [0.0f64; 5];
    let ns = replay_ops(tr, parent, "metrics.sample", &rec.ops, |op| {
        let (sign, idx) = match op.kind {
            OpKind::Admit(idx) => (1.0, idx),
            OpKind::Release(idx) => (-1.0, idx),
            OpKind::Drop => (0.0, 0),
        };
        if sign != 0.0 {
            let a = &rec.admits[idx as usize].assignment;
            for (u, grant) in used.iter_mut().zip(a.placement.grants) {
                *u += sign * f64::from(grant.units);
            }
            used[3] += sign * a.network.cpu_ram.mbps as f64;
            used[4] += sign * a.network.ram_sto.mbps as f64;
            if sign > 0.0 {
                latency.record(if a.intra_rack {
                    cfg.latency.intra_rack_ns
                } else {
                    cfg.latency.inter_rack_ns
                });
            }
        }
        for (signal, u) in signals.iter_mut().zip(used) {
            signal.set(op.t, u);
        }
    });
    black_box((&signals, &latency));
    ns
}

/// `photonics`: Eq. 1 plus transceiver energy for the two flows of every
/// admitted VM, as the world charges them at admission.
pub fn replay_photonics(tr: &mut Tracer, parent: SpanId, rec: &Recorded, cfg: &SimConfig) -> u64 {
    let model = EnergyModel::new(cfg.photonics);
    let n: &NetworkConfig = &cfg.network;
    let mut joules = 0.0;
    let mut total = 0;
    for chunk in rec.admits.chunks(BATCH) {
        let begin = tr.now();
        for admit in chunk {
            let flows = &admit.assignment.network;
            for flow in [&flows.cpu_ram, &flows.ram_sto] {
                let path = if flow.inter_rack {
                    SwitchPath::inter_rack(
                        n.box_switch_ports,
                        n.rack_switch_ports,
                        n.inter_rack_switch_ports,
                    )
                } else {
                    SwitchPath::intra_rack(n.box_switch_ports, n.rack_switch_ports)
                };
                joules += model.flow_total_energy_j(&path, flow.mbps, admit.lifetime);
            }
        }
        let end = tr.now();
        tr.add(
            Some(parent),
            "photonics.energy",
            begin,
            end,
            2 * chunk.len() as u64,
        );
        total += end - begin;
    }
    black_box(joules);
    total
}
