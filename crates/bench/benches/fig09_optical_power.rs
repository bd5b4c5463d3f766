//! Figure 9: power consumption of the optical components on the Azure
//! workloads (paper: RISA 3.36 kW vs NULB 5.22 kW on Azure-3000, a 33 %
//! reduction). Benchmarks the Eq. (1) energy-model kernel.

use criterion::{black_box, Criterion};
use risa_photonics::{EnergyModel, PhotonicsConfig, SwitchPath};
use risa_sim::experiments;

fn bench(c: &mut Criterion) {
    let model = EnergyModel::new(PhotonicsConfig::paper());
    let intra = SwitchPath::intra_rack(64, 256);
    let inter = SwitchPath::inter_rack(64, 256, 512);
    c.bench_function("fig09_eq1_intra_flow_energy", |b| {
        b.iter(|| model.flow_total_energy_j(black_box(&intra), 40_000, 6300.0))
    });
    c.bench_function("fig09_eq1_inter_flow_energy", |b| {
        b.iter(|| model.flow_total_energy_j(black_box(&inter), 40_000, 6300.0))
    });
}

fn main() {
    println!("{}", experiments::fig9(2023));
    println!("paper: Azure-3000 5.22 (NULB) / 5.27 (NALB) / 3.36 kW (RISA, -33 %);");
    println!("direction reproduced — RISA strictly below NULB/NALB; magnitude tracks");
    println!("the inter-rack rate, which is far below the paper's here (fig7)\n");

    let mut c = Criterion::default().configure_from_args();
    bench(&mut c);
    c.final_summary();
}
