//! Trunks: bundles of parallel 200 Gb/s links with per-link accounting,
//! stored flat, one vector per network layer.
//!
//! ## Layout
//!
//! A [`TrunkLayer`] holds every trunk of one layer (all box uplinks, or
//! all rack uplinks) in one `Vec<u64>`, one fixed-stride *record* per
//! trunk: four ledger words, then one word per link.
//!
//! | word | holds |
//! |------|-------|
//! | 0 | Σ free over **up** links (schedulable headroom) |
//! | 1 | Σ free over **all** links (the flow-reservation ledger) |
//! | 2 | max free over **up** links |
//! | 3 | how many **up** links hold that max |
//! | 4 + i | link `i`: its free Mb/s, and the [`DOWN`] bit while it is down |
//!
//! Word 3 keeps the maximum O(1) under NALB, whose every grant shrinks a
//! link holding it: the links are rescanned only when the last holder
//! shrinks or goes down.
//!
//! A hop therefore reads one contiguous record and follows no pointer, and
//! building a layer is one allocation whatever its trunk count or width.
//! The down flag fits in the link word because a link's free bandwidth
//! stays below 2⁴⁸ ([`crate::NetworkConfig::validate`] bounds a rack trunk,
//! and so any link, there), so a down word compares above every demand and
//! never equals a ledger value: that is what keeps it out of
//! [`Trunk::first_fit`] and [`Trunk::most_available`] at no extra test.
//!
//! Reads go through a borrowed [`Trunk`] view; every mutation goes through
//! a crate-private [`TrunkMut`], which only the network's mutation funnel
//! hands out, so the layer totals and the rack ordering built on the
//! ledgers stay coherent by construction.

use std::cmp::Ordering;

/// Identifies one trunk in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// Record word: Σ free over up links.
const FREE_UP: usize = 0;
/// Record word: Σ free over all links.
const FREE_ALL: usize = 1;
/// Record word: max free over up links.
const MAX_UP: usize = 2;
/// Record word: how many up links hold `MAX_UP` (0 if none is up).
const MAX_N: usize = 3;
/// Record words before the first link's.
const LEDGERS: usize = 4;
/// The bit of a link word set while the link is down; the rest of the
/// word is the link's free Mb/s either way.
const DOWN: u64 = 1 << 63;

/// Largest free bandwidth on any up link of `links` and how many up
/// links hold it (`[0, 0]` if none is up). One pass with no branch on a
/// link: a down word counts as 0 toward the maximum and, at or above
/// `DOWN`, never equals it.
fn up_max(links: &[u64]) -> [u64; 2] {
    links.iter().fold([0, 0], |[max, n], &w| {
        let up = if w & DOWN == 0 { w } else { 0 };
        if up > max {
            [up, 1]
        } else {
            [max, n + u64::from(w == max)]
        }
    })
}

/// An up link that held `before` shrank or went down: if it held the
/// maximum, the maximum has one holder fewer, and the (small,
/// fixed-width) link words are rescanned only when none is left.
#[inline]
fn shrank(ledgers: &mut [u64], links: &[u64], before: u64) {
    if before == ledgers[MAX_UP] {
        ledgers[MAX_N] -= 1;
        if ledgers[MAX_N] == 0 {
            [ledgers[MAX_UP], ledgers[MAX_N]] = up_max(links);
        }
    }
}

/// An up link now holds `after`, having held less or been down.
#[inline]
fn grew(ledgers: &mut [u64], after: u64) {
    match after.cmp(&ledgers[MAX_UP]) {
        Ordering::Greater => [ledgers[MAX_UP], ledgers[MAX_N]] = [after, 1],
        Ordering::Equal => ledgers[MAX_N] += 1,
        Ordering::Less => {}
    }
}

/// Every trunk of one layer, one fixed-stride record each (see the module
/// docs for the layout).
#[derive(Debug, Clone)]
pub(crate) struct TrunkLayer {
    link_mbps: u64,
    /// Words per record: the ledgers, then one per link.
    stride: usize,
    words: Vec<u64>,
}

impl TrunkLayer {
    /// `count` pristine trunks of `width` links of `link_mbps` each.
    pub(crate) fn new(count: usize, width: u16, link_mbps: u64) -> Self {
        assert!(
            link_mbps < DOWN,
            "a link's free bandwidth must leave the down bit clear"
        );
        let width = usize::from(width);
        let capacity = link_mbps * width as u64;
        let max = if width == 0 { 0 } else { link_mbps };
        let mut record = vec![capacity, capacity, max, width as u64];
        record.resize(LEDGERS + width, link_mbps);
        TrunkLayer {
            link_mbps,
            stride: record.len(),
            words: record.repeat(count),
        }
    }

    /// Number of trunks.
    pub(crate) fn len(&self) -> usize {
        self.words.len() / self.stride
    }

    /// Capacity of the whole layer.
    pub(crate) fn capacity_mbps(&self) -> u64 {
        (self.len() * (self.stride - LEDGERS)) as u64 * self.link_mbps
    }

    /// Read-only view of trunk `t`.
    #[inline]
    pub(crate) fn trunk(&self, t: usize) -> Trunk<'_> {
        Trunk {
            link_mbps: self.link_mbps,
            record: &self.words[t * self.stride..(t + 1) * self.stride],
        }
    }

    /// Every trunk, in index order.
    pub(crate) fn trunks(&self) -> impl Iterator<Item = Trunk<'_>> {
        self.words.chunks_exact(self.stride).map(|record| Trunk {
            link_mbps: self.link_mbps,
            record,
        })
    }

    /// Mutable view of trunk `t`: for the network's mutation funnel only.
    #[inline]
    pub(crate) fn trunk_mut(&mut self, t: usize) -> TrunkMut<'_> {
        TrunkMut {
            link_mbps: self.link_mbps,
            record: &mut self.words[t * self.stride..(t + 1) * self.stride],
        }
    }
}

/// One trunk, borrowed from its layer: `width` independent links, each
/// with its own free-bandwidth counter in Mb/s and an up/down flag, plus
/// incrementally-maintained headroom aggregates (schedulable free,
/// reserved total, max link free) so schedulers read summaries in O(1)
/// instead of re-summing links on every probe.
///
/// A **down** link (transceiver loss, `NetworkState::fail_link`) keeps its
/// free-bandwidth ledger — flows granted before the fault stay charged and
/// may still release — but contributes nothing to the schedulable
/// aggregates and is skipped by [`Trunk::first_fit`] /
/// [`Trunk::most_available`], so no new flow lands on it. Its trapped free
/// bandwidth is reported as *stranded* until the link is restored.
#[derive(Debug, Clone, Copy)]
pub struct Trunk<'a> {
    link_mbps: u64,
    record: &'a [u64],
}

impl<'a> Trunk<'a> {
    /// The link words.
    #[inline]
    fn link_words(self) -> &'a [u64] {
        &self.record[LEDGERS..]
    }

    /// Number of links.
    pub fn width(self) -> usize {
        self.record.len() - LEDGERS
    }

    /// Capacity of each individual link.
    pub fn link_capacity_mbps(self) -> u64 {
        self.link_mbps
    }

    /// Total trunk capacity.
    pub fn capacity_mbps(self) -> u64 {
        self.link_mbps * self.width() as u64
    }

    /// Schedulable free bandwidth: Σ free over **up** links. O(1)
    /// (incremental cache). Down links' trapped headroom is excluded —
    /// see [`Trunk::stranded_mbps`].
    #[inline]
    pub fn free_mbps(self) -> u64 {
        self.record[FREE_UP]
    }

    /// Bandwidth reserved by flows, regardless of link state. A down
    /// link's outstanding grants stay counted until released.
    pub fn used_mbps(self) -> u64 {
        self.capacity_mbps() - self.record[FREE_ALL]
    }

    /// Free bandwidth trapped behind down links — capacity that is
    /// neither reserved nor schedulable. O(1).
    pub fn stranded_mbps(self) -> u64 {
        self.record[FREE_ALL] - self.record[FREE_UP]
    }

    /// The two cached sums every aggregate derives from, read together:
    /// `(free_mbps, Σ free over all links)`. `used_mbps` is capacity minus
    /// the second, `stranded_mbps` the second minus the first — so the
    /// network's mutation funnel can difference them without the
    /// capacity product.
    #[inline]
    pub(crate) fn ledger(self) -> (u64, u64) {
        (self.record[FREE_UP], self.record[FREE_ALL])
    }

    /// Free bandwidth of link `i` (the ledger value, kept even while the
    /// link is down).
    pub fn link_free_mbps(self, i: usize) -> u64 {
        self.link_words()[i] & !DOWN
    }

    /// Whether link `i` is up.
    pub fn link_up(self, i: usize) -> bool {
        self.link_words()[i] & DOWN == 0
    }

    /// Number of up links.
    pub fn up_width(self) -> usize {
        self.link_words().iter().filter(|&&w| w & DOWN == 0).count()
    }

    /// Largest free bandwidth on any single **up** link — what NALB sorts
    /// by, and what feasibility pre-checks compare flow demands against.
    /// O(1) (incremental cache).
    #[inline]
    pub fn max_link_free_mbps(self) -> u64 {
        self.record[MAX_UP]
    }

    /// The record against its own link words, read through the accessors
    /// above: every link's free bandwidth within the link capacity, and
    /// the four ledgers equal to the sums, the maximum and its holders'
    /// count they cache.
    /// Names the first disagreement.
    pub(crate) fn check(self) -> Result<(), String> {
        let free = |l| self.link_free_mbps(l);
        if let Some(l) = (0..self.width()).find(|&l| free(l) > self.link_mbps) {
            return Err(format!("link {l} over capacity"));
        }
        let up_links = || (0..self.width()).filter(|&l| self.link_up(l));
        let max = up_links().map(free).max().unwrap_or(0);
        let recomputed = [
            up_links().map(free).sum::<u64>(),
            (0..self.width()).map(free).sum(),
            max,
            up_links().filter(|&l| free(l) == max).count() as u64,
        ];
        if self.record[..LEDGERS] != recomputed {
            return Err("stale headroom cache".into());
        }
        Ok(())
    }

    /// Index of the **first** up link with at least `mbps` free
    /// (NULB/RISA link policy), or `None`.
    #[inline]
    pub fn first_fit(self, mbps: u64) -> Option<usize> {
        // A down link's word is at or above `DOWN`, past the range.
        self.link_words()
            .iter()
            .position(|&w| (mbps..DOWN).contains(&w))
    }

    /// Index of the **up** link with the most free bandwidth, provided it
    /// has at least `mbps` free (NALB link policy), or `None`. Ties break
    /// to the lowest index for determinism: the first up link holding the
    /// cached maximum.
    #[inline]
    pub fn most_available(self, mbps: u64) -> Option<usize> {
        let max = self.record[MAX_UP];
        if max < mbps {
            return None;
        }
        // A down link's word carries the `DOWN` bit, so it never equals
        // the maximum over up links.
        self.link_words().iter().position(|&w| w == max)
    }
}

/// One trunk's record, mutably: reserve, release, fail and restore links
/// with the ledgers kept in step. Only the network's mutation funnel
/// holds one, so every ledger movement reaches the layer totals.
pub(crate) struct TrunkMut<'a> {
    link_mbps: u64,
    record: &'a mut [u64],
}

impl TrunkMut<'_> {
    /// The same record, read-only.
    #[inline]
    pub(crate) fn view(&self) -> Trunk<'_> {
        Trunk {
            link_mbps: self.link_mbps,
            record: self.record,
        }
    }

    /// Reserve `mbps` on link `i`; `false` when the link does not exist,
    /// is down or lacks capacity (nothing is taken in any case).
    #[must_use]
    #[inline]
    pub(crate) fn take(&mut self, i: usize, mbps: u64) -> bool {
        let (ledgers, links) = self.record.split_at_mut(LEDGERS);
        let Some(w) = links.get_mut(i) else {
            return false;
        };
        // An up link with room: a down word is at or above `DOWN`.
        if !(mbps..DOWN).contains(w) {
            return false;
        }
        let before = *w;
        *w -= mbps;
        ledgers[FREE_UP] -= mbps;
        ledgers[FREE_ALL] -= mbps;
        if mbps > 0 {
            shrank(ledgers, links, before);
        }
        true
    }

    /// Return `mbps` to link `i`. Over-release is a loud typed error —
    /// the state is untouched and the caller learns exactly which grant
    /// replay went wrong. Releasing onto a **down** link is legal (the
    /// flow predates the fault): the ledger updates, the schedulable
    /// aggregates do not.
    pub(crate) fn give(&mut self, i: usize, mbps: u64) -> Result<(), TrunkError> {
        let (ledgers, links) = self.record.split_at_mut(LEDGERS);
        let w = links.get_mut(i).ok_or(TrunkError::NoSuchLink { link: i })?;
        let free = *w & !DOWN;
        // A replayed hop's `mbps` is the caller's word: no wrapping past the test.
        let Some(after) = free.checked_add(mbps).filter(|&sum| sum <= self.link_mbps) else {
            return Err(TrunkError::OverRelease {
                link: i,
                freed_mbps: mbps,
                free_mbps: free,
                link_capacity_mbps: self.link_mbps,
            });
        };
        // `after` stays below the link capacity, so the down bit survives.
        *w += mbps;
        ledgers[FREE_ALL] += mbps;
        if *w & DOWN == 0 && mbps > 0 {
            ledgers[FREE_UP] += mbps;
            grew(ledgers, after);
        }
        Ok(())
    }

    /// Take link `i` down (transceiver loss). Its free bandwidth leaves
    /// the schedulable aggregates (becoming stranded) and the link stops
    /// matching [`Trunk::first_fit`] / [`Trunk::most_available`];
    /// outstanding grants stay charged. O(width) when the link was the
    /// last to hold the max.
    pub(crate) fn fail_link(&mut self, i: usize) -> Result<(), TrunkError> {
        let (ledgers, links) = self.record.split_at_mut(LEDGERS);
        let w = links.get_mut(i).ok_or(TrunkError::NoSuchLink { link: i })?;
        if *w & DOWN != 0 {
            return Err(TrunkError::LinkDown { link: i });
        }
        let free = *w;
        *w |= DOWN;
        ledgers[FREE_UP] -= free;
        shrank(ledgers, links, free);
        Ok(())
    }

    /// Bring link `i` back up, re-entering its (ledger-preserved) free
    /// bandwidth into the schedulable aggregates. O(1).
    pub(crate) fn restore_link(&mut self, i: usize) -> Result<(), TrunkError> {
        let (ledgers, links) = self.record.split_at_mut(LEDGERS);
        let w = links.get_mut(i).ok_or(TrunkError::NoSuchLink { link: i })?;
        if *w & DOWN == 0 {
            return Err(TrunkError::LinkNotDown { link: i });
        }
        *w &= !DOWN;
        ledgers[FREE_UP] += *w;
        grew(ledgers, *w);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Run `test` on the middle trunk of a three-trunk layer of `width`
    /// links, then check the stride arithmetic left both neighbours
    /// pristine.
    fn on_middle(width: u16, link_mbps: u64, test: impl FnOnce(&mut TrunkLayer, usize)) {
        let mut layer = TrunkLayer::new(3, width, link_mbps);
        test(&mut layer, 1);
        let pristine = TrunkLayer::new(1, width, link_mbps);
        for t in [0, 2] {
            assert_eq!(layer.trunk(t).record, pristine.trunk(0).record, "trunk {t}");
        }
    }

    #[test]
    fn pristine_trunk() {
        let layer = TrunkLayer::new(4, 2, 200_000);
        assert_eq!(layer.len(), 4);
        assert_eq!(layer.capacity_mbps(), 4 * 400_000);
        for t in layer.trunks() {
            assert_eq!(t.width(), 2);
            assert_eq!(t.capacity_mbps(), 400_000);
            assert_eq!(t.free_mbps(), 400_000);
            assert_eq!(t.used_mbps(), 0);
            assert_eq!(t.max_link_free_mbps(), 200_000);
        }
    }

    #[test]
    fn first_fit_scans_in_order() {
        on_middle(3, 100, |l, t| {
            assert!(l.trunk_mut(t).take(0, 95));
            // link0 has 5 free; demand 10 skips to link1.
            assert_eq!(l.trunk(t).first_fit(10), Some(1));
            assert_eq!(l.trunk(t).first_fit(5), Some(0));
            assert_eq!(l.trunk(t).first_fit(101), None);
            assert!(l.trunk_mut(t).give(0, 95).is_ok());
        });
    }

    #[test]
    fn most_available_prefers_emptiest_link() {
        on_middle(3, 100, |l, t| {
            assert!(l.trunk_mut(t).take(0, 10)); // 90 free
            assert!(l.trunk_mut(t).take(1, 50)); // 50 free
            assert_eq!(l.trunk(t).most_available(1), Some(2)); // 100 free
            assert!(l.trunk_mut(t).take(2, 60)); // 40 free
            assert_eq!(l.trunk(t).most_available(1), Some(0));
            assert_eq!(l.trunk(t).most_available(95), None);
            for (link, mbps) in [(0, 10), (1, 50), (2, 60)] {
                l.trunk_mut(t).give(link, mbps).unwrap();
            }
        });
    }

    #[test]
    fn most_available_ties_break_low_index() {
        let layer = TrunkLayer::new(2, 4, 100);
        assert_eq!(layer.trunk(1).most_available(1), Some(0));
    }

    #[test]
    fn take_give_roundtrip() {
        on_middle(2, 100, |l, t| {
            assert!(l.trunk_mut(t).take(1, 60));
            assert_eq!(l.trunk(t).link_free_mbps(1), 40);
            assert_eq!(l.trunk(t).used_mbps(), 60);
            l.trunk_mut(t).give(1, 60).unwrap();
            assert_eq!(l.trunk(t).free_mbps(), 200);
        });
    }

    #[test]
    fn take_fails_without_capacity() {
        let mut layer = TrunkLayer::new(2, 1, 100);
        let mut t = layer.trunk_mut(0);
        assert!(t.take(0, 100));
        assert!(!t.take(0, 1));
        assert!(
            !t.take(1, 0),
            "a link past the width is refused, not indexed into the next record"
        );
        assert_eq!(layer.trunk(1).free_mbps(), 100);
    }

    #[test]
    fn over_release_is_a_loud_error_and_leaves_state_untouched() {
        on_middle(2, 100, |l, t| {
            assert!(l.trunk_mut(t).take(0, 30));
            let err = l.trunk_mut(t).give(0, 31).unwrap_err();
            assert_eq!(
                err,
                TrunkError::OverRelease {
                    link: 0,
                    freed_mbps: 31,
                    free_mbps: 70,
                    link_capacity_mbps: 100,
                }
            );
            assert_eq!(
                l.trunk(t).link_free_mbps(0),
                70,
                "failed give must not mutate"
            );
            assert_eq!(l.trunk(t).free_mbps(), 170);
            // A release that would wrap `u64` is the same error, not a wrap
            // (or, in debug, a panic).
            assert!(matches!(
                l.trunk_mut(t).give(0, u64::MAX).unwrap_err(),
                TrunkError::OverRelease {
                    freed_mbps: u64::MAX,
                    free_mbps: 70,
                    ..
                }
            ));
            assert_eq!(
                (l.trunk(t).link_free_mbps(0), l.trunk(t).free_mbps()),
                (70, 170)
            );
            assert_eq!(
                l.trunk_mut(t).give(9, 1).unwrap_err(),
                TrunkError::NoSuchLink { link: 9 }
            );
            l.trunk_mut(t).give(0, 30).unwrap();
            assert_eq!(l.trunk(t).free_mbps(), 200);
        });
    }

    #[test]
    fn down_link_leaves_aggregates_and_scheduling() {
        on_middle(3, 100, |l, t| {
            assert!(l.trunk_mut(t).take(0, 40)); // 60 free
            l.trunk_mut(t).fail_link(0).unwrap();
            assert_eq!(l.trunk(t).free_mbps(), 200, "link 0's 60 free is stranded");
            assert_eq!(l.trunk(t).stranded_mbps(), 60);
            assert_eq!(l.trunk(t).used_mbps(), 40, "grants stay charged while down");
            assert_eq!(l.trunk(t).up_width(), 2);
            assert!(!l.trunk(t).link_up(0));
            assert_eq!(l.trunk(t).link_free_mbps(0), 60, "the down bit is masked");
            assert_eq!(
                l.trunk(t).first_fit(10),
                Some(1),
                "first-fit skips the down link"
            );
            assert_eq!(l.trunk(t).most_available(1), Some(1));
            assert!(
                !l.trunk_mut(t).take(0, 1),
                "no new flow lands on a down link"
            );
            // Pre-fault flow may still depart.
            l.trunk_mut(t).give(0, 40).unwrap();
            assert_eq!(l.trunk(t).stranded_mbps(), 100);
            assert_eq!(l.trunk(t).used_mbps(), 0);
            assert_eq!(
                l.trunk_mut(t).fail_link(0).unwrap_err(),
                TrunkError::LinkDown { link: 0 }
            );
            l.trunk_mut(t).restore_link(0).unwrap();
            assert_eq!(l.trunk(t).free_mbps(), 300);
            assert_eq!(l.trunk(t).stranded_mbps(), 0);
            assert_eq!(l.trunk(t).max_link_free_mbps(), 100);
            assert_eq!(
                l.trunk_mut(t).restore_link(0).unwrap_err(),
                TrunkError::LinkNotDown { link: 0 }
            );
            assert_eq!(
                l.trunk_mut(t).fail_link(7).unwrap_err(),
                TrunkError::NoSuchLink { link: 7 }
            );
        });
    }

    #[test]
    fn max_free_tracks_link_state() {
        on_middle(2, 100, |l, t| {
            assert!(l.trunk_mut(t).take(1, 70)); // link 1: 30 free
            assert_eq!(l.trunk(t).max_link_free_mbps(), 100);
            l.trunk_mut(t).fail_link(0).unwrap();
            assert_eq!(
                l.trunk(t).max_link_free_mbps(),
                30,
                "max recomputed over up links"
            );
            l.trunk_mut(t).restore_link(0).unwrap();
            assert_eq!(l.trunk(t).max_link_free_mbps(), 100);
            l.trunk_mut(t).give(1, 70).unwrap();
        });
    }

    /// `check` recomputes every ledger from the link words: a link word,
    /// a ledger word or a down bit changed behind the mutations' back is
    /// named, and an over-full link too.
    #[test]
    fn check_recomputes_every_ledger_from_the_link_words() {
        let mut layer = TrunkLayer::new(2, 3, 100);
        assert!(layer.trunk_mut(1).take(2, 30));
        layer.trunk_mut(1).fail_link(0).unwrap();
        let good = layer.clone();
        assert_eq!(good.trunk(1).check(), Ok(()));
        let base = good.stride;
        // (record word, bits flipped, what `check` must say). The links
        // are [down 100, 100, 70]; 100 ^ 4 = 96, 70 ^ 128 = 198.
        let corruptions: [(usize, u64, &str); 8] = [
            (FREE_UP, 1, "stale headroom cache"),
            (FREE_ALL, 1, "stale headroom cache"),
            (MAX_UP, 1, "stale headroom cache"),
            (MAX_N, 1, "stale headroom cache"),
            (FREE_UP, DOWN, "stale headroom cache"),
            (LEDGERS + 1, 4, "stale headroom cache"),
            (LEDGERS + 1, DOWN, "stale headroom cache"),
            (LEDGERS + 2, 128, "link 2 over capacity"),
        ];
        for (word, flip, named) in corruptions {
            let mut bad = good.clone();
            bad.words[base + word] ^= flip;
            assert_eq!(bad.trunk(1).check(), Err(named.into()), "word {word}");
            assert_eq!(bad.trunk(0).check(), Ok(()), "the neighbour is untouched");
        }
    }

    /// `record` with its ledgers recomputed from its link words the slow
    /// way.
    fn recounted(record: &[u64]) -> Vec<u64> {
        let links = &record[LEDGERS..];
        let up = || links.iter().copied().filter(|w| w & DOWN == 0);
        let max = up().max().unwrap_or(0);
        let mut naive = vec![
            up().sum(),
            links.iter().map(|w| w & !DOWN).sum(),
            max,
            up().filter(|&w| w == max).count() as u64,
        ];
        naive.extend_from_slice(links);
        naive
    }

    /// Flow sizes on a 100 Mb/s link: none, and sizes that leave many
    /// links tied at the maximum.
    const FLOWS: [u64; 4] = [0, 10, 50, 100];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random `take` / `give` / `fail_link` / `restore_link` sequences
        /// at every width from 1 to 65, each grant on the link a policy
        /// picks (first fit, most available) or on any link, leave the
        /// record equal to its recount after every step; returning every
        /// grant and restoring every link leaves it pristine, and its
        /// neighbours are never touched.
        #[test]
        fn ledgers_equal_a_recount_after_every_step(
            width in 1u16..=65,
            ops in prop::collection::vec((0u8..5, 0..FLOWS.len(), any::<u32>()), 1..300),
        ) {
            on_middle(width, 100, |layer, t| {
                let mut grants: Vec<(usize, u64)> = Vec::new();
                for (kind, flow, pick) in ops {
                    let (mbps, pick) = (FLOWS[flow], pick as usize);
                    let link = pick % usize::from(width);
                    match kind {
                        0..=2 => {
                            let chosen = match kind {
                                0 => layer.trunk(t).first_fit(mbps),
                                1 => layer.trunk(t).most_available(mbps),
                                _ => Some(link),
                            };
                            if let Some(l) = chosen.filter(|&l| layer.trunk_mut(t).take(l, mbps)) {
                                grants.push((l, mbps));
                            }
                        }
                        3 if !grants.is_empty() => {
                            let (l, mbps) = grants.swap_remove(pick % grants.len());
                            layer.trunk_mut(t).give(l, mbps).unwrap();
                        }
                        3 => {}
                        _ if layer.trunk(t).link_up(link) => {
                            layer.trunk_mut(t).fail_link(link).unwrap();
                        }
                        _ => layer.trunk_mut(t).restore_link(link).unwrap(),
                    }
                    let record = layer.trunk(t).record;
                    assert_eq!(record, recounted(record), "after {kind} {mbps} {pick}");
                    assert_eq!(layer.trunk(t).check(), Ok(()));
                }
                for (l, mbps) in grants {
                    layer.trunk_mut(t).give(l, mbps).unwrap();
                }
                for l in 0..usize::from(width) {
                    // Refused on an up link, which is already as it began.
                    let _ = layer.trunk_mut(t).restore_link(l);
                }
                let pristine = TrunkLayer::new(1, width, 100);
                assert_eq!(layer.trunk(t).record, pristine.trunk(0).record);
            });
        }
    }

    #[test]
    fn trunk_id_classification() {
        assert!(TrunkId::RackUplink(0).is_inter_rack());
        assert!(!TrunkId::BoxUplink(0).is_inter_rack());
    }
}
