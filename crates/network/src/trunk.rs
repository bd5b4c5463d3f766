//! Trunks: bundles of parallel 200 Gb/s links with per-link accounting.

use serde::{Deserialize, Serialize};

/// Identifies one trunk in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TrunkId {
    /// The trunk between box `box_idx` and its rack switch.
    BoxUplink(u32),
    /// The trunk between rack `rack_idx`'s switch and the inter-rack switch.
    RackUplink(u16),
}

impl TrunkId {
    /// True for rack↔inter-rack trunks (the "inter-rack network" of Fig 8).
    pub fn is_inter_rack(&self) -> bool {
        matches!(self, TrunkId::RackUplink(_))
    }
}

/// Why a trunk-level mutation was refused. These are *loud* typed errors:
/// the release path used to saturate silently (debug-only assert), which
/// failure evacuation makes reachable in release builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrunkError {
    /// Returning `freed_mbps` to `link` would exceed its capacity — the
    /// caller is replaying a grant that was never taken (or taken twice).
    OverRelease {
        /// The link being over-released.
        link: usize,
        /// The release that did not fit.
        freed_mbps: u64,
        /// The link's current free bandwidth (unchanged by the failure).
        free_mbps: u64,
        /// The link's capacity.
        link_capacity_mbps: u64,
    },
    /// The link is already down (double fault).
    LinkDown {
        /// The offending link.
        link: usize,
    },
    /// The link is already up (spurious repair).
    LinkNotDown {
        /// The offending link.
        link: usize,
    },
    /// The link index exceeds the trunk's width.
    NoSuchLink {
        /// The offending link.
        link: usize,
    },
}

impl std::fmt::Display for TrunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrunkError::OverRelease {
                link,
                freed_mbps,
                free_mbps,
                link_capacity_mbps,
            } => write!(
                f,
                "link {link} over-released: {free_mbps} + {freed_mbps} > {link_capacity_mbps} Mb/s"
            ),
            TrunkError::LinkDown { link } => write!(f, "link {link} is already down"),
            TrunkError::LinkNotDown { link } => write!(f, "link {link} is not down"),
            TrunkError::NoSuchLink { link } => write!(f, "link {link} does not exist"),
        }
    }
}

impl std::error::Error for TrunkError {}

/// One trunk: `width` independent links, each with its own free-bandwidth
/// counter in Mb/s and an up/down flag, plus incrementally-maintained
/// headroom aggregates (schedulable free, reserved total, max link free)
/// so schedulers read summaries in O(1) instead of re-summing links on
/// every probe.
///
/// A **down** link (transceiver loss, [`Trunk::fail_link`]) keeps its
/// free-bandwidth ledger — flows granted before the fault stay charged and
/// may still release — but contributes nothing to the schedulable
/// aggregates and is skipped by [`Trunk::first_fit`] /
/// [`Trunk::most_available`], so no new flow lands on it. Its trapped free
/// bandwidth is reported as *stranded* until [`Trunk::restore_link`].
#[derive(Debug, Clone)]
pub struct Trunk {
    link_mbps: u64,
    free: Vec<u64>,
    /// Per-link up/down flags (`false` = down, excluded from scheduling).
    up: Vec<bool>,
    /// Cached Σ free over **up** links (kept coherent by every mutation).
    free_total: u64,
    /// Cached Σ free over **all** links — the flow-reservation ledger,
    /// unaffected by link state.
    free_all: u64,
    /// Cached max over **up** links' free (kept coherent likewise).
    max_free: u64,
}

impl Trunk {
    /// A pristine trunk of `width` links of `link_mbps` each.
    pub fn new(width: u16, link_mbps: u64) -> Self {
        Trunk {
            link_mbps,
            free: vec![link_mbps; width as usize],
            up: vec![true; width as usize],
            free_total: link_mbps * width as u64,
            free_all: link_mbps * width as u64,
            max_free: if width == 0 { 0 } else { link_mbps },
        }
    }

    /// Number of links.
    pub fn width(&self) -> usize {
        self.free.len()
    }

    /// Capacity of each individual link.
    pub fn link_capacity_mbps(&self) -> u64 {
        self.link_mbps
    }

    /// Total trunk capacity.
    pub fn capacity_mbps(&self) -> u64 {
        self.link_mbps * self.free.len() as u64
    }

    /// Schedulable free bandwidth: Σ free over **up** links. O(1)
    /// (incremental cache). Down links' trapped headroom is excluded —
    /// see [`Trunk::stranded_mbps`].
    pub fn free_mbps(&self) -> u64 {
        self.free_total
    }

    /// Bandwidth reserved by flows, regardless of link state. A down
    /// link's outstanding grants stay counted until released.
    pub fn used_mbps(&self) -> u64 {
        self.capacity_mbps() - self.free_all
    }

    /// Free bandwidth trapped behind down links — capacity that is
    /// neither reserved nor schedulable. O(1).
    pub fn stranded_mbps(&self) -> u64 {
        self.free_all - self.free_total
    }

    /// The two cached sums every aggregate derives from, read together:
    /// `(free_mbps, Σ free over all links)`. `used_mbps` is capacity minus
    /// the second, `stranded_mbps` the second minus the first — so the
    /// network's mutation funnel can difference them without the
    /// capacity product.
    #[inline]
    pub(crate) fn ledger(&self) -> (u64, u64) {
        (self.free_total, self.free_all)
    }

    /// Free bandwidth of link `i` (the ledger value, kept even while the
    /// link is down).
    pub fn link_free_mbps(&self, i: usize) -> u64 {
        self.free[i]
    }

    /// Whether link `i` is up.
    pub fn link_up(&self, i: usize) -> bool {
        self.up[i]
    }

    /// Number of up links.
    pub fn up_width(&self) -> usize {
        self.up.iter().filter(|&&u| u).count()
    }

    /// Largest free bandwidth on any single **up** link — what NALB sorts
    /// by, and what feasibility pre-checks compare flow demands against.
    /// O(1) (incremental cache).
    pub fn max_link_free_mbps(&self) -> u64 {
        self.max_free
    }

    /// Index of the **first** up link with at least `mbps` free
    /// (NULB/RISA link policy), or `None`.
    pub fn first_fit(&self, mbps: u64) -> Option<usize> {
        (0..self.free.len()).find(|&i| self.up[i] && self.free[i] >= mbps)
    }

    /// Index of the **up** link with the most free bandwidth, provided it
    /// has at least `mbps` free (NALB link policy), or `None`. Ties break
    /// to the lowest index for determinism: the first up link holding the
    /// cached maximum.
    pub fn most_available(&self, mbps: u64) -> Option<usize> {
        if self.max_free < mbps {
            return None;
        }
        (0..self.free.len()).find(|&i| self.up[i] && self.free[i] == self.max_free)
    }

    /// Reserve `mbps` on link `i`; `false` when the link does not exist,
    /// is down or lacks capacity (nothing is taken in any case).
    #[must_use]
    pub fn take(&mut self, i: usize, mbps: u64) -> bool {
        if i >= self.free.len() || !self.up[i] || self.free[i] < mbps {
            return false;
        }
        let was_max = self.free[i] == self.max_free;
        self.free[i] -= mbps;
        self.free_total -= mbps;
        self.free_all -= mbps;
        if was_max && mbps > 0 {
            // The previous maximum shrank; rescan the (small, fixed-width)
            // link vector once. Reads stay O(1).
            self.max_free = self.up_max();
        }
        true
    }

    /// Return `mbps` to link `i`. Over-release is a loud typed error —
    /// the state is untouched and the caller learns exactly which grant
    /// replay went wrong. Releasing onto a **down** link is legal (the
    /// flow predates the fault): the ledger updates, the schedulable
    /// aggregates do not.
    pub fn give(&mut self, i: usize, mbps: u64) -> Result<(), TrunkError> {
        let free = *self.free.get(i).ok_or(TrunkError::NoSuchLink { link: i })?;
        // A replayed hop's `mbps` is the caller's word: no wrapping past the test.
        if free
            .checked_add(mbps)
            .is_none_or(|sum| sum > self.link_mbps)
        {
            return Err(TrunkError::OverRelease {
                link: i,
                freed_mbps: mbps,
                free_mbps: free,
                link_capacity_mbps: self.link_mbps,
            });
        }
        self.free[i] += mbps;
        self.free_all += mbps;
        if self.up[i] {
            self.free_total += mbps;
            self.max_free = self.max_free.max(self.free[i]);
        }
        Ok(())
    }

    /// Take link `i` down (transceiver loss). Its free bandwidth leaves
    /// the schedulable aggregates (becoming stranded) and the link stops
    /// matching [`Trunk::first_fit`] / [`Trunk::most_available`];
    /// outstanding grants stay charged. O(width) when the link held the
    /// max.
    pub fn fail_link(&mut self, i: usize) -> Result<(), TrunkError> {
        match self.up.get(i) {
            None => return Err(TrunkError::NoSuchLink { link: i }),
            Some(false) => return Err(TrunkError::LinkDown { link: i }),
            Some(true) => {}
        }
        self.up[i] = false;
        self.free_total -= self.free[i];
        if self.free[i] == self.max_free {
            self.max_free = self.up_max();
        }
        Ok(())
    }

    /// Bring link `i` back up, re-entering its (ledger-preserved) free
    /// bandwidth into the schedulable aggregates. O(1).
    pub fn restore_link(&mut self, i: usize) -> Result<(), TrunkError> {
        match self.up.get(i) {
            None => return Err(TrunkError::NoSuchLink { link: i }),
            Some(true) => return Err(TrunkError::LinkNotDown { link: i }),
            Some(false) => {}
        }
        self.up[i] = true;
        self.free_total += self.free[i];
        self.max_free = self.max_free.max(self.free[i]);
        Ok(())
    }

    fn up_max(&self) -> u64 {
        self.free
            .iter()
            .zip(&self.up)
            .filter_map(|(&f, &u)| u.then_some(f))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_trunk() {
        let t = Trunk::new(2, 200_000);
        assert_eq!(t.width(), 2);
        assert_eq!(t.capacity_mbps(), 400_000);
        assert_eq!(t.free_mbps(), 400_000);
        assert_eq!(t.used_mbps(), 0);
        assert_eq!(t.max_link_free_mbps(), 200_000);
    }

    #[test]
    fn first_fit_scans_in_order() {
        let mut t = Trunk::new(3, 100);
        assert!(t.take(0, 95));
        // link0 has 5 free; demand 10 skips to link1.
        assert_eq!(t.first_fit(10), Some(1));
        assert_eq!(t.first_fit(5), Some(0));
        assert_eq!(t.first_fit(101), None);
    }

    #[test]
    fn most_available_prefers_emptiest_link() {
        let mut t = Trunk::new(3, 100);
        assert!(t.take(0, 10)); // 90 free
        assert!(t.take(1, 50)); // 50 free
        assert_eq!(t.most_available(1), Some(2)); // 100 free
        assert!(t.take(2, 60)); // 40 free
        assert_eq!(t.most_available(1), Some(0));
        assert_eq!(t.most_available(95), None);
    }

    #[test]
    fn most_available_ties_break_low_index() {
        let t = Trunk::new(4, 100);
        assert_eq!(t.most_available(1), Some(0));
    }

    #[test]
    fn take_give_roundtrip() {
        let mut t = Trunk::new(2, 100);
        assert!(t.take(1, 60));
        assert_eq!(t.link_free_mbps(1), 40);
        assert_eq!(t.used_mbps(), 60);
        t.give(1, 60).unwrap();
        assert_eq!(t.free_mbps(), 200);
    }

    #[test]
    fn take_fails_without_capacity() {
        let mut t = Trunk::new(1, 100);
        assert!(t.take(0, 100));
        assert!(!t.take(0, 1));
        assert!(
            !t.take(1, 0),
            "a link past the width is refused, not indexed"
        );
    }

    #[test]
    fn over_release_is_a_loud_error_and_leaves_state_untouched() {
        let mut t = Trunk::new(2, 100);
        assert!(t.take(0, 30));
        let err = t.give(0, 31).unwrap_err();
        assert_eq!(
            err,
            TrunkError::OverRelease {
                link: 0,
                freed_mbps: 31,
                free_mbps: 70,
                link_capacity_mbps: 100,
            }
        );
        assert_eq!(t.link_free_mbps(0), 70, "failed give must not mutate");
        assert_eq!(t.free_mbps(), 170);
        // A release that would wrap `u64` is the same error, not a wrap (or,
        // in debug, a panic).
        assert!(matches!(
            t.give(0, u64::MAX).unwrap_err(),
            TrunkError::OverRelease {
                freed_mbps: u64::MAX,
                free_mbps: 70,
                ..
            }
        ));
        assert_eq!((t.link_free_mbps(0), t.free_mbps()), (70, 170));
        assert_eq!(
            t.give(9, 1).unwrap_err(),
            TrunkError::NoSuchLink { link: 9 }
        );
        t.give(0, 30).unwrap();
        assert_eq!(t.free_mbps(), 200);
    }

    #[test]
    fn down_link_leaves_aggregates_and_scheduling() {
        let mut t = Trunk::new(3, 100);
        assert!(t.take(0, 40)); // 60 free
        t.fail_link(0).unwrap();
        assert_eq!(t.free_mbps(), 200, "link 0's 60 free is stranded");
        assert_eq!(t.stranded_mbps(), 60);
        assert_eq!(t.used_mbps(), 40, "grants stay charged while down");
        assert_eq!(t.up_width(), 2);
        assert!(!t.link_up(0));
        assert_eq!(t.first_fit(10), Some(1), "first-fit skips the down link");
        assert_eq!(t.most_available(1), Some(1));
        assert!(!t.take(0, 1), "no new flow lands on a down link");
        // Pre-fault flow may still depart.
        t.give(0, 40).unwrap();
        assert_eq!(t.stranded_mbps(), 100);
        assert_eq!(t.used_mbps(), 0);
        assert_eq!(
            t.fail_link(0).unwrap_err(),
            TrunkError::LinkDown { link: 0 }
        );
        t.restore_link(0).unwrap();
        assert_eq!(t.free_mbps(), 300);
        assert_eq!(t.stranded_mbps(), 0);
        assert_eq!(t.max_link_free_mbps(), 100);
        assert_eq!(
            t.restore_link(0).unwrap_err(),
            TrunkError::LinkNotDown { link: 0 }
        );
        assert_eq!(
            t.fail_link(7).unwrap_err(),
            TrunkError::NoSuchLink { link: 7 }
        );
    }

    #[test]
    fn max_free_tracks_link_state() {
        let mut t = Trunk::new(2, 100);
        assert!(t.take(1, 70)); // link 1: 30 free
        assert_eq!(t.max_link_free_mbps(), 100);
        t.fail_link(0).unwrap();
        assert_eq!(t.max_link_free_mbps(), 30, "max recomputed over up links");
        t.restore_link(0).unwrap();
        assert_eq!(t.max_link_free_mbps(), 100);
    }

    #[test]
    fn trunk_id_classification() {
        assert!(TrunkId::RackUplink(0).is_inter_rack());
        assert!(!TrunkId::BoxUplink(0).is_inter_rack());
    }
}
