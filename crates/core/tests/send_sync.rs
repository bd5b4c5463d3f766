//! Send/Sync audit for the scheduling types that parallel experiment
//! matrices move across worker threads.
//!
//! The experiment dealer in `risa-sim` runs whole simulation jobs on
//! scoped threads: every scheduler/cluster/network value lives inside a
//! job that may be produced on one thread and consumed on another. These
//! assertions are compile-time (auto-trait) checks; if a future refactor
//! introduces `Rc`, `RefCell`, or a raw pointer into any of these types,
//! this test stops compiling rather than an experiment matrix failing at
//! a distance.

use risa_network::NetworkState;
use risa_sched::cycle::ScheduleCycle;
use risa_sched::{Algorithm, DropReason, ScheduleOutcome, Scheduler, VmAssignment, WorkCounters};
use risa_topology::Cluster;

fn assert_send<T: Send>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn scheduling_state_crosses_threads() {
    assert_send_sync::<Algorithm>();
    assert_send_sync::<Scheduler>();
    assert_send_sync::<Cluster>();
    assert_send_sync::<NetworkState>();
    assert_send_sync::<WorkCounters>();
    assert_send_sync::<VmAssignment>();
    assert_send_sync::<ScheduleOutcome>();
    assert_send_sync::<DropReason>();
    // The throughput treadmill only needs to *move* between threads, not
    // be shared.
    assert_send::<ScheduleCycle>();
}

#[test]
fn a_schedule_cycle_built_on_one_thread_steps_on_another() {
    let mut cycle = std::thread::spawn(|| {
        let mut cycle = ScheduleCycle::new(12, Algorithm::Risa);
        for _ in 0..32 {
            cycle.step();
        }
        cycle
    })
    .join()
    .expect("builder thread");
    for _ in 0..32 {
        cycle.step();
    }
}
