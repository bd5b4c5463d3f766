//! Tables 1–5 of the paper: prints the configuration tables and the §4.3
//! toy-example traces (Tables 3/4), then benchmarks the contention-ratio
//! and `SUPER_RACK` membership kernels shared by the algorithms.

use criterion::{black_box, Criterion};
use risa_metrics::{Align, Table};
use risa_network::NetworkConfig;
use risa_sched::{contention_ratios, toy, RackFilter};
use risa_topology::{Cluster, TopologyConfig, UnitDemand, ALL_RESOURCES};

fn print_table1() {
    let cfg = TopologyConfig::paper();
    let mut t = Table::new(
        "Table 1: disaggregated architecture configuration",
        &["parameter", "value"],
    )
    .align(&[Align::Left, Align::Right]);
    t.row_display(&["cluster size", &format!("{} racks", cfg.racks)]);
    t.row_display(&["rack size", &format!("{} boxes", cfg.box_mix.total())]);
    t.row_display(&["box size", &format!("{} bricks", cfg.bricks_per_box)]);
    t.row_display(&["brick size", &format!("{} units", cfg.units_per_brick)]);
    t.row_display(&[
        "CPU unit",
        &format!("{} cores", cfg.units.cpu_cores_per_unit),
    ]);
    t.row_display(&["RAM unit", &format!("{} GB", cfg.units.ram_gb_per_unit)]);
    t.row_display(&[
        "storage unit",
        &format!("{} GB", cfg.units.storage_gb_per_unit),
    ]);
    println!("{t}");
}

fn print_table2() {
    let n = NetworkConfig::paper();
    let mut t = Table::new("Table 2: network requirements", &["flow", "bandwidth"])
        .align(&[Align::Left, Align::Right]);
    t.row_display(&[
        "CPU-RAM",
        &format!("{} Gb/s/unit", n.cpu_ram_mbps_per_unit / 1000),
    ]);
    t.row_display(&[
        "RAM-STO",
        &format!("{} Gb/s/unit", n.ram_sto_mbps_per_unit / 1000),
    ]);
    println!("{t}");
}

fn print_table3() {
    let c = toy::table3_cluster();
    let ids = toy::table3_ids();
    let mut t = Table::new(
        "Table 3: toy-example DDC state (availability in units)",
        &["resource", "id0", "id1", "id2", "id3"],
    )
    .align(&[
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for (label, list) in [("CPU", ids.cpu), ("RAM", ids.ram), ("STO", ids.sto)] {
        let row: Vec<String> = std::iter::once(label.to_string())
            .chain(list.iter().map(|&b| c.available(b).to_string()))
            .collect();
        t.row(&row);
    }
    println!("{t}");
}

fn print_table5() {
    println!("Table 5 analogue — {}", risa_sim::host_info());
    println!();
}

fn bench(c: &mut Criterion) {
    let cluster = Cluster::new(TopologyConfig::paper());
    let demand = UnitDemand::new(2, 4, 2);
    c.bench_function("tables_contention_ratio_scan", |b| {
        b.iter(|| contention_ratios(black_box(&cluster), &demand, RackFilter::All))
    });
    // What RISA's fallback asks per VM in place of building the SUPER_RACK:
    // per kind, how many racks admit the demand and what they hold. The
    // cost is set by the box capacity, not by the rack count.
    for scale in [1, 40] {
        let cluster = Cluster::new(TopologyConfig::paper().scaled(scale));
        let racks = cluster.num_racks();
        c.bench_function(&format!("tables_admitting_racks/{racks}"), |b| {
            b.iter(|| {
                ALL_RESOURCES
                    .map(|kind| black_box(&cluster).admitting_racks(kind, demand.get(kind)))
            })
        });
    }
    c.bench_function("tables_rack_fits_all_racks", |b| {
        b.iter(|| {
            (0..cluster.num_racks())
                .filter(|&r| cluster.rack_fits(risa_topology::RackId(r), &demand))
                .count()
        })
    });
}

fn main() {
    print_table1();
    print_table2();
    print_table3();
    print_table5();

    let mut c = Criterion::default().configure_from_args();
    bench(&mut c);
    c.final_summary();
}
