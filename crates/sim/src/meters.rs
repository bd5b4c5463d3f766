//! The world's books beside the scheduler: raw counters, the per-path
//! energy terms, and the sampling of the time-weighted meters after every
//! event.

use crate::world::DdcWorld;
use risa_network::NetworkConfig;
use risa_photonics::{EnergyModel, SwitchPath};
use risa_topology::ALL_RESOURCES;

/// Raw per-run counters, exposed through [`crate::RunReport`].
#[derive(Debug, Clone, Default)]
pub(crate) struct Counters {
    pub admitted: u32,
    pub dropped_compute: u32,
    pub dropped_network: u32,
    pub inter_rack: u32,
    pub fallback: u32,
}

/// The terms of one flow's optical energy that depend only on whether the
/// path is intra- or inter-rack, evaluated once per world.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PathEnergy {
    reconfiguration_j: f64,
    trim_w: f64,
    link_hops: u32,
}

impl PathEnergy {
    fn new(model: &EnergyModel, path: &SwitchPath) -> Self {
        PathEnergy {
            reconfiguration_j: model.reconfiguration_energy_j(path),
            trim_w: model.trim_power_w(path.total_path_cells()),
            link_hops: path.link_hops,
        }
    }

    /// The intra- and inter-rack paths' terms over network `n`, indexed
    /// by "is inter-rack".
    pub(crate) fn both(model: &EnergyModel, n: &NetworkConfig) -> [Self; 2] {
        let intra = SwitchPath::intra_rack(n.box_switch_ports, n.rack_switch_ports);
        let inter = SwitchPath::inter_rack(
            n.box_switch_ports,
            n.rack_switch_ports,
            n.inter_rack_switch_ports,
        );
        [Self::new(model, &intra), Self::new(model, &inter)]
    }
}

impl DdcWorld {
    /// Sample the running totals into the time-weighted meters — every
    /// value an O(1) read, so sampling after every event is cheap and
    /// exact.
    #[inline]
    pub(crate) fn sample_state(&mut self, t: f64) {
        for k in ALL_RESOURCES {
            let used = self.cluster.total_capacity(k) - self.cluster.total_available(k);
            self.util[k.index()].set(t, used as f64);
        }
        self.intra_bw.set(t, self.net.intra_used_mbps() as f64);
        self.inter_bw.set(t, self.net.inter_used_mbps() as f64);
        if let Some(fs) = self.faults.as_mut() {
            // Stranded capacity: retracted compute inside failed racks
            // plus free bandwidth behind dark links. Both change only at
            // event times, so per-event sampling is exact.
            let live: u64 = ALL_RESOURCES
                .iter()
                .map(|&k| self.cluster.total_capacity(k))
                .sum();
            fs.meters
                .stranded_units
                .set(t, (fs.pristine_units - live) as f64);
            fs.meters
                .stranded_mbps
                .set(t, self.net.stranded_mbps() as f64);
        }
    }

    /// Energy of one flow given whether it crossed racks (Eq. 1 + the
    /// transceiver model), charged at admission for the known lifetime:
    /// `EnergyModel::flow_total_energy_j`'s operations in its order — so
    /// its bits — with the per-path terms read instead of rebuilt.
    #[inline]
    pub(crate) fn flow_energy(&self, inter: bool, mbps: u64, lifetime_s: f64) -> f64 {
        let path = &self.path_energy[usize::from(inter)];
        (path.reconfiguration_j + path.trim_w * lifetime_s)
            + self
                .energy
                .transceiver_energy_j(mbps, lifetime_s, path.link_hops)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SimConfig;
    use crate::world::tests::{run_world, synthetic};
    use crate::world::DdcWorld;
    use risa_photonics::SwitchPath;
    use risa_sched::Algorithm;
    use risa_topology::ResourceKind;

    /// The world's per-path energy terms give `flow_total_energy_j`'s
    /// bits, for both paths, over sizes and lifetimes of every magnitude.
    #[test]
    fn flow_energy_has_the_models_bits() {
        let w = DdcWorld::new(SimConfig::paper(), Algorithm::Risa, synthetic(1, 1));
        let n = &w.cfg.network;
        let paths = [
            SwitchPath::intra_rack(n.box_switch_ports, n.rack_switch_ports),
            SwitchPath::inter_rack(
                n.box_switch_ports,
                n.rack_switch_ports,
                n.inter_rack_switch_ports,
            ),
        ];
        for (inter, path) in [false, true].into_iter().zip(&paths) {
            for mbps in [0, 1, 1_000, 5_000, 37_123, 160_000, u64::MAX / 3] {
                for life in [
                    0.0,
                    1e-9,
                    0.1 + 0.2,
                    1.0,
                    6_300.000_000_000_001,
                    8.64e7,
                    1e300,
                ] {
                    assert_eq!(
                        w.flow_energy(inter, mbps, life).to_bits(),
                        w.energy.flow_total_energy_j(path, mbps, life).to_bits(),
                        "inter={inter} mbps={mbps} life={life}"
                    );
                }
            }
        }
    }

    #[test]
    fn latency_recorded_per_admitted_vm() {
        let w = run_world(Algorithm::RisaBf, 40, 5);
        assert_eq!(w.latency.count(), 40);
        // RISA-BF on an underloaded cluster: all intra-rack, all 110 ns.
        assert_eq!(w.latency.mean(), 110.0);
        assert_eq!(w.counters.inter_rack, 0);
    }

    #[test]
    fn energy_accumulates_only_for_admitted() {
        let w = run_world(Algorithm::Nulb, 30, 7);
        assert!(w.optical_energy_j > 0.0);
        // 30 VMs × 2 flows × (37 cells × 0.9 × 22.67 mW × ~6300 s) ≈ 280 kJ.
        assert!(w.optical_energy_j > 1e4);
        assert!(w.optical_energy_j < 1e7);
    }

    #[test]
    fn utilization_signal_rises_then_falls() {
        let w = run_world(Algorithm::Risa, 60, 9);
        let cpu = &w.util[ResourceKind::Cpu.index()];
        assert!(cpu.peak() > 0.0);
        assert_eq!(cpu.current(), 0.0, "all VMs departed");
        let mean = cpu.mean_to(w.end_time);
        assert!(mean > 0.0 && mean < cpu.peak());
    }
}
