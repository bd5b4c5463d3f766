//! Workload-generation throughput — the sharded-generation scaling story.
//!
//! Trace generation is sharded per 4096-VM index block with
//! `(seed, shard)`-derived RNG streams (`risa_workload::shard`), so a
//! single big trace fans out over the thread pool. This bench sweeps the
//! pinned thread count over a ≥1M-VM synthetic trace and the largest
//! Azure-like deck; the acceptance bar is **≥3× throughput at 8 threads
//! vs 1 thread** for the 1M-VM synthetic trace (on a machine with ≥8
//! cores — shard boundaries are fixed, so the *output* is byte-identical
//! at every point of the sweep, only the wall clock moves).

use criterion::{black_box, BenchmarkId, Criterion};
use rayon::with_num_threads;
use risa_workload::{AzureSubset, SyntheticConfig, Workload};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn bench_synthetic_1m(c: &mut Criterion) {
    let cfg = SyntheticConfig::small(1_000_000, 42);
    let mut g = c.benchmark_group("generate_synthetic_1M_vms");
    g.sample_size(10);
    for threads in THREAD_SWEEP {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| with_num_threads(t, || black_box(Workload::synthetic(&cfg)).len()))
        });
    }
    g.finish();
}

fn bench_azure_7500(c: &mut Criterion) {
    let mut g = c.benchmark_group("generate_azure_7500");
    g.sample_size(10);
    for threads in THREAD_SWEEP {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                with_num_threads(t, || {
                    black_box(Workload::azure(AzureSubset::N7500, 7)).len()
                })
            })
        });
    }
    g.finish();
}

fn main() {
    println!("sharded workload-generation throughput vs pinned thread count");
    let mut c = Criterion::default().configure_from_args();
    bench_synthetic_1m(&mut c);
    bench_azure_7500(&mut c);
    c.final_summary();
}
