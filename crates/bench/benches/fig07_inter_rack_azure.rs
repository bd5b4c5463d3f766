//! Figure 7: percentage of inter-rack VM assignments on the Azure-like
//! workloads (paper: up to 52 % NULB / 48 % NALB, 0 % RISA and RISA-BF).
//! Benchmarks the Azure-3000 end-to-end run per algorithm.

use criterion::{BenchmarkId, Criterion};
use risa_sim::{experiments, Algorithm, SimulationBuilder, WorkloadSpec};
use risa_workload::AzureSubset;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig07_azure3000_full_sim");
    g.sample_size(10);
    for algo in Algorithm::ALL {
        g.bench_with_input(BenchmarkId::from_parameter(algo), &algo, |b, &algo| {
            b.iter(|| {
                SimulationBuilder::new()
                    .algorithm(algo)
                    .workload(WorkloadSpec::azure(AzureSubset::N3000, 2023))
                    .faults_off()
                    .build()
                    .run()
            });
        });
    }
    g.finish();
}

fn main() {
    println!("{}", experiments::fig7(2023));
    println!("paper: NULB/NALB up to 52/48 %; RISA and RISA-BF exactly 0 % (reproduced);");
    println!("our NULB/NALB fragment less than the paper's\n");

    let mut c = Criterion::default().configure_from_args();
    bench(&mut c);
    c.final_summary();
}
