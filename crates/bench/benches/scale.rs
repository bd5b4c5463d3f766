//! Scheduling throughput vs cluster size — the scaling study the
//! incremental `PlacementIndex` exists for.
//!
//! Sweeps racks ∈ {12, 48, 192, 768} for all four algorithms, measuring
//! steady-state schedule/release cycles (the shared
//! `risa_sched::cycle::ScheduleCycle` treadmill, so `risa-cli bench` and
//! this bench measure the same workload). With the seed's linear scans the
//! per-VM cost grew linearly in racks; with the index it stays near-flat
//! (the acceptance bar: 768-rack throughput within 5× of 12-rack).

use criterion::{BenchmarkId, Criterion};
use rayon::prelude::*;
use risa_sched::cycle::ScheduleCycle;
use risa_sched::Algorithm;

const RACK_SWEEP: [u16; 4] = [12, 48, 192, 768];

fn bench_scale(c: &mut Criterion) {
    // Build and warm all 16 (algorithm × racks) treadmills concurrently —
    // the replication setup dominates total bench time at 768 racks.
    // Measurement below stays sequential so samples are uncontended.
    let cells: Vec<(Algorithm, u16)> = Algorithm::ALL
        .iter()
        .flat_map(|&algo| RACK_SWEEP.iter().map(move |&racks| (algo, racks)))
        .collect();
    let mut warmed: Vec<((Algorithm, u16), ScheduleCycle)> = cells
        .par_iter()
        .map(|&(algo, racks)| {
            let mut cycle = ScheduleCycle::new(racks, algo);
            // Warm to the steady-state window before measuring.
            for _ in 0..512 {
                cycle.step();
            }
            ((algo, racks), cycle)
        })
        .collect();
    for algo in Algorithm::ALL {
        let mut g = c.benchmark_group(format!("scale_{algo}"));
        g.sample_size(10);
        for racks in RACK_SWEEP {
            let slot = warmed
                .iter()
                .position(|&((a, r), _)| a == algo && r == racks)
                .expect("every cell was warmed");
            let (_, mut cycle) = warmed.swap_remove(slot);
            g.bench_with_input(BenchmarkId::from_parameter(racks), &racks, |b, _| {
                b.iter(|| cycle.step())
            });
        }
        g.finish();
    }
}

fn main() {
    println!("schedule/release cycle time vs cluster size (paper rack shape)");
    let mut c = Criterion::default().configure_from_args();
    bench_scale(&mut c);
    c.final_summary();
}
