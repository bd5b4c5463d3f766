//! Shared scheduler vocabulary: algorithm ids, outcomes, assignments.

use risa_network::VmNetAllocation;
use risa_topology::VmPlacement;
use serde::{Deserialize, Serialize};

/// The four algorithms of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// Network-unaware locality-based baseline (Zervas et al., Alg. 2).
    Nulb,
    /// Network-aware locality-based baseline (Zervas et al.).
    Nalb,
    /// Round-robin intra-rack friendly scheduling (Alg. 1, this paper).
    Risa,
    /// RISA with best-fit within-rack packing (Alg. 3).
    RisaBf,
}

impl Algorithm {
    /// All four, in the paper's presentation order.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Nulb,
        Algorithm::Nalb,
        Algorithm::Risa,
        Algorithm::RisaBf,
    ];

    /// Report label matching the paper's figures.
    pub const fn label(self) -> &'static str {
        match self {
            Algorithm::Nulb => "NULB",
            Algorithm::Nalb => "NALB",
            Algorithm::Risa => "RISA",
            Algorithm::RisaBf => "RISA-BF",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "NULB" => Ok(Algorithm::Nulb),
            "NALB" => Ok(Algorithm::Nalb),
            "RISA" => Ok(Algorithm::Risa),
            "RISA-BF" | "RISABF" | "RISA_BF" => Ok(Algorithm::RisaBf),
            other => Err(format!("unknown algorithm '{other}'")),
        }
    }
}

/// Why a VM was dropped (the paper drops on either phase failing, §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// No box set could satisfy the compute demand.
    Compute,
    /// Compute found, but some link lacked bandwidth.
    Network,
}

/// A successfully admitted VM: its compute grants and reserved flows.
#[derive(Debug, Clone, PartialEq)]
pub struct VmAssignment {
    /// One box grant per resource kind.
    pub placement: VmPlacement,
    /// The two reserved flows.
    pub network: VmNetAllocation,
    /// True when all three boxes share a rack (the paper's headline metric).
    pub intra_rack: bool,
    /// True when RISA/RISA-BF had to fall back to the NULB/SUPER_RACK path.
    pub used_fallback: bool,
}

/// Result of one scheduling attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleOutcome {
    /// The VM was admitted.
    Assigned(VmAssignment),
    /// The VM was dropped.
    Dropped(DropReason),
}

impl ScheduleOutcome {
    /// The assignment, if admitted.
    pub fn assigned(&self) -> Option<&VmAssignment> {
        match self {
            ScheduleOutcome::Assigned(a) => Some(a),
            ScheduleOutcome::Dropped(_) => None,
        }
    }

    /// True when the VM was admitted.
    pub fn is_assigned(&self) -> bool {
        matches!(self, ScheduleOutcome::Assigned(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(Algorithm::Nulb.label(), "NULB");
        assert_eq!(Algorithm::RisaBf.to_string(), "RISA-BF");
        assert_eq!(Algorithm::ALL.len(), 4);
    }

    #[test]
    fn parse_roundtrip() {
        for a in Algorithm::ALL {
            let parsed: Algorithm = a.label().parse().unwrap();
            assert_eq!(parsed, a);
        }
        assert!("frob".parse::<Algorithm>().is_err());
        assert_eq!("risa-bf".parse::<Algorithm>().unwrap(), Algorithm::RisaBf);
    }

    #[test]
    fn outcome_accessors() {
        let d = ScheduleOutcome::Dropped(DropReason::Network);
        assert!(!d.is_assigned());
        assert!(d.assigned().is_none());
    }
}
