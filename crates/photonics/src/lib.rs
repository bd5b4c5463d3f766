//! # risa-photonics — optical switch and transceiver energy models
//!
//! Section 3.2 of the paper models each optical circuit switch as a
//! **Beneš network of microring-resonator (MRR) 2×2 cells**. A flow through
//! an N-port Beneš switch crosses one cell per stage, i.e.
//! `n = 2·log2(N) − 1` cells; setting the path up reconfigures about half
//! of them, and every crossed cell must be *trimmed* (thermally held at its
//! state) for the flow's whole lifetime. Equation (1):
//!
//! ```text
//! E_sw = (n/2 · P_swcell · lat_sw)  +  (α · n · P_trimcell · T)
//! ```
//!
//! with the paper's constants `P_trimcell = 22.67 mW`,
//! `P_swcell = 13.75 mW`, `α = 0.9` (cell sharing factor), and `lat_sw`
//! growing with switch size. Every electronic→photonic conversion goes
//! through a Luxtera-style SiP transceiver at **22.5 pJ/bit** (§3.1).
//!
//! ```
//! use risa_photonics::{benes, EnergyModel, PhotonicsConfig, SwitchPath};
//!
//! // A 64-port box switch: 2*log2(64)-1 = 11 stages, 32 cells each.
//! assert_eq!(benes::stages(64), 11);
//! assert_eq!(benes::total_cells(64), 11 * 32);
//! assert_eq!(benes::path_cells(64), 11);
//!
//! let model = EnergyModel::new(PhotonicsConfig::paper());
//! // An intra-rack flow crosses box(64) + rack(256) + box(64) switches.
//! let path = SwitchPath::intra_rack(64, 256);
//! assert_eq!(path.total_path_cells(), 11 + 15 + 11);
//!
//! // Trim power dominates for any realistic lifetime.
//! let e = model.flow_switch_energy_j(&path, 3600.0);
//! let trim_only = model.trim_power_w(path.total_path_cells()) * 3600.0;
//! assert!((e - trim_only) / e < 0.001);
//! ```

#![warn(missing_docs)]

pub mod benes;
mod config;
mod energy;

pub use config::PhotonicsConfig;
pub use energy::{EnergyModel, SwitchPath};
