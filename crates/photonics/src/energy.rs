//! Equation (1): per-flow optical switch energy, plus transceiver energy.

use crate::benes;
use crate::config::PhotonicsConfig;

/// The ordered list of optical switches (by port count) a flow traverses.
///
/// From Figure 2 of the paper: an intra-rack flow goes
/// `box switch → rack switch → box switch`; an inter-rack flow goes
/// `box → rack → inter-rack → rack → box`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchPath {
    /// Port counts of the traversed switches, in order.
    pub switch_ports: Vec<u16>,
    /// Number of optical links traversed (each link = one transceiver pair).
    pub link_hops: u32,
}

impl SwitchPath {
    /// Intra-rack path: source box switch, rack switch, destination box
    /// switch; two link traversals.
    pub fn intra_rack(box_ports: u16, rack_ports: u16) -> Self {
        SwitchPath {
            switch_ports: vec![box_ports, rack_ports, box_ports],
            link_hops: 2,
        }
    }

    /// Inter-rack path: box, rack, inter-rack, rack, box; four link
    /// traversals (Figure 2's communication journey).
    pub fn inter_rack(box_ports: u16, rack_ports: u16, inter_ports: u16) -> Self {
        SwitchPath {
            switch_ports: vec![box_ports, rack_ports, inter_ports, rack_ports, box_ports],
            link_hops: 4,
        }
    }

    /// Total MRR cells along the whole path (Σ per-switch path cells) —
    /// the `n` of Equation (1).
    pub fn total_path_cells(&self) -> u32 {
        self.switch_ports
            .iter()
            .map(|&p| benes::path_cells(p))
            .sum()
    }
}

/// Evaluates Equation (1) and the transceiver model.
#[derive(Debug, Clone, Copy)]
pub struct EnergyModel {
    cfg: PhotonicsConfig,
}

impl EnergyModel {
    /// Build from validated constants.
    pub fn new(cfg: PhotonicsConfig) -> Self {
        cfg.validate().expect("invalid photonics configuration");
        EnergyModel { cfg }
    }

    /// The constants in force.
    pub fn config(&self) -> &PhotonicsConfig {
        &self.cfg
    }

    /// Steady trim power for `n` path cells: `α · n · P_trimcell`, watts.
    pub fn trim_power_w(&self, n_cells: u32) -> f64 {
        self.cfg.alpha * n_cells as f64 * self.cfg.p_trim_mw * 1e-3
    }

    /// One-off reconfiguration energy for a path, joules:
    /// `Σ_switch (n_sw / 2) · P_swcell · lat_sw(N_sw)`.
    pub fn reconfiguration_energy_j(&self, path: &SwitchPath) -> f64 {
        path.switch_ports
            .iter()
            .map(|&ports| {
                let n = benes::path_cells(ports) as f64;
                let lat = benes::switch_latency_s(ports, self.cfg.switch_latency_ns_per_stage);
                (n / 2.0) * self.cfg.p_sw_mw * 1e-3 * lat
            })
            .sum()
    }

    /// Equation (1) in full for one flow alive `lifetime_s` seconds.
    pub fn flow_switch_energy_j(&self, path: &SwitchPath, lifetime_s: f64) -> f64 {
        self.reconfiguration_energy_j(path)
            + self.trim_power_w(path.total_path_cells()) * lifetime_s
    }

    /// Transceiver energy for a flow of `mbps` alive `lifetime_s` seconds,
    /// crossing `link_hops` optical links: `pJ/bit × bits × hops`.
    pub fn transceiver_energy_j(&self, mbps: u64, lifetime_s: f64, link_hops: u32) -> f64 {
        let bits = mbps as f64 * 1e6 * lifetime_s;
        self.cfg.transceiver_pj_per_bit * 1e-12 * bits * link_hops as f64
    }

    /// Total optical energy for one flow: switches + transceivers.
    pub fn flow_total_energy_j(&self, path: &SwitchPath, mbps: u64, lifetime_s: f64) -> f64 {
        self.flow_switch_energy_j(path, lifetime_s)
            + self.transceiver_energy_j(mbps, lifetime_s, path.link_hops)
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::new(PhotonicsConfig::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EnergyModel {
        EnergyModel::default()
    }

    #[test]
    fn paper_path_cell_counts() {
        // Intra-rack: 11 + 15 + 11 = 37 cells.
        assert_eq!(SwitchPath::intra_rack(64, 256).total_path_cells(), 37);
        // Inter-rack: 11 + 15 + 17 + 15 + 11 = 69 cells.
        assert_eq!(SwitchPath::inter_rack(64, 256, 512).total_path_cells(), 69);
    }

    #[test]
    fn trim_power_matches_hand_calculation() {
        // α·n·P_trim = 0.9 × 37 × 22.67 mW = 754.911 mW.
        let w = model().trim_power_w(37);
        assert!((w - 0.754_911).abs() < 1e-9, "{w}");
    }

    /// The paper's observation that inter-rack paths burn ~1.9× the
    /// switch power of intra-rack paths (69 vs 37 cells).
    #[test]
    fn inter_rack_costs_more() {
        let m = model();
        let intra = SwitchPath::intra_rack(64, 256);
        let inter = SwitchPath::inter_rack(64, 256, 512);
        let t = 10_000.0;
        let ei = m.flow_switch_energy_j(&intra, t);
        let ex = m.flow_switch_energy_j(&inter, t);
        let ratio = ex / ei;
        assert!((ratio - 69.0 / 37.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn reconfiguration_energy_is_negligible_but_positive() {
        let m = model();
        let p = SwitchPath::intra_rack(64, 256);
        let reconf = m.reconfiguration_energy_j(&p);
        assert!(reconf > 0.0);
        // Micro-joules vs. hundreds of joules of trim for a 1000 s VM.
        assert!(reconf < 1e-3);
        assert!(m.flow_switch_energy_j(&p, 1000.0) > 700.0);
    }

    #[test]
    fn switch_energy_is_linear_in_lifetime() {
        let m = model();
        let p = SwitchPath::intra_rack(64, 256);
        let e1 = m.flow_switch_energy_j(&p, 100.0);
        let e2 = m.flow_switch_energy_j(&p, 200.0);
        let reconf = m.reconfiguration_energy_j(&p);
        assert!(((e2 - reconf) / (e1 - reconf) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn transceiver_energy_hand_check() {
        // 200 Gb/s for 1 s over 1 hop: 2e11 bits × 22.5 pJ = 4.5 J.
        let e = model().transceiver_energy_j(200_000, 1.0, 1);
        assert!((e - 4.5).abs() < 1e-9, "{e}");
        // Two hops double it.
        let e2 = model().transceiver_energy_j(200_000, 1.0, 2);
        assert!((e2 - 9.0).abs() < 1e-9);
    }

    #[test]
    fn total_is_sum_of_parts() {
        let m = model();
        let p = SwitchPath::inter_rack(64, 256, 512);
        let total = m.flow_total_energy_j(&p, 40_000, 500.0);
        let parts = m.flow_switch_energy_j(&p, 500.0) + m.transceiver_energy_j(40_000, 500.0, 4);
        assert!((total - parts).abs() < 1e-9);
    }

    #[test]
    fn zero_lifetime_leaves_only_reconfiguration() {
        let m = model();
        let p = SwitchPath::intra_rack(64, 256);
        let e = m.flow_total_energy_j(&p, 40_000, 0.0);
        assert!((e - m.reconfiguration_energy_j(&p)).abs() < 1e-15);
    }

    #[test]
    fn alpha_scales_trim_linearly() {
        let mut cfg = PhotonicsConfig::paper();
        cfg.alpha = 0.5;
        let half = EnergyModel::new(cfg).trim_power_w(100);
        cfg.alpha = 1.0;
        let full = EnergyModel::new(cfg).trim_power_w(100);
        assert!((full / half - 2.0).abs() < 1e-12);
    }
}
