//! The live bandwidth ledger and flow allocation with rollback.

use crate::config::NetworkConfig;
use crate::demand::FlowDemands;
use crate::trunk::{Trunk, TrunkId, TrunkLayer, TrunkMut};
use risa_topology::{BoxId, Cluster, RackId};
use serde::{Deserialize, Serialize};

/// How a link is chosen within a trunk — the paper's §4.1 distinction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkPolicy {
    /// First link with enough free bandwidth (NULB, and RISA's AllocNet).
    FirstFit,
    /// Link with the most free bandwidth (NALB).
    MostAvailable,
}

/// Bandwidth reserved on one specific link of one trunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopGrant {
    /// Which trunk.
    pub trunk: TrunkId,
    /// Link index within the trunk.
    pub link: usize,
    /// Reserved bandwidth.
    pub mbps: u64,
}

/// The most trunks a flow crosses: box uplink, two rack uplinks, box
/// uplink.
const MAX_HOPS: usize = 4;

/// One hop as [`FlowPath`] stores it: the trunk and the link. The
/// bandwidth is the flow's, and a link index is below a `u16` trunk width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedHop {
    /// Box or rack index of the trunk, per `rack_trunk`.
    index: u32,
    link: u16,
    rack_trunk: bool,
}

impl PackedHop {
    /// Filler of the unused tail of [`FlowPath`]'s hop array (one fixed
    /// value, so derived equality compares paths).
    const VACANT: PackedHop = PackedHop {
        index: 0,
        link: 0,
        rack_trunk: false,
    };

    fn new(trunk: TrunkId, link: u16) -> Self {
        let (index, rack_trunk) = match trunk {
            TrunkId::BoxUplink(b) => (b, false),
            TrunkId::RackUplink(r) => (u32::from(r), true),
        };
        PackedHop {
            index,
            link,
            rack_trunk,
        }
    }

    fn trunk(self) -> TrunkId {
        if self.rack_trunk {
            TrunkId::RackUplink(self.index as u16)
        } else {
            TrunkId::BoxUplink(self.index)
        }
    }
}

/// A fully reserved end-to-end flow. The hops live inline — granting or
/// releasing a flow never touches the allocator — and are read through
/// [`FlowPath::hops`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowPath {
    /// Per-trunk grants along the path (2 hops intra-rack, 4 inter-rack);
    /// entries from `len` on are [`PackedHop::VACANT`].
    hops: [PackedHop; MAX_HOPS],
    len: u8,
    /// Whether the flow crosses the inter-rack switch.
    pub inter_rack: bool,
    /// The flow's bandwidth.
    pub mbps: u64,
}

impl FlowPath {
    fn new(mbps: u64, inter_rack: bool) -> Self {
        FlowPath {
            hops: [PackedHop::VACANT; MAX_HOPS],
            len: 0,
            inter_rack,
            mbps,
        }
    }

    fn push(&mut self, hop: PackedHop) {
        self.hops[self.len as usize] = hop;
        self.len += 1;
    }

    fn packed(&self) -> &[PackedHop] {
        &self.hops[..self.len as usize]
    }

    /// Per-trunk grants along the path, in order (2 hops intra-rack, 4
    /// inter-rack, none inside one box).
    pub fn hops(&self) -> impl ExactSizeIterator<Item = HopGrant> + '_ {
        self.packed().iter().map(|h| HopGrant {
            trunk: h.trunk(),
            link: usize::from(h.link),
            mbps: self.mbps,
        })
    }
}

/// The two reserved flows of one admitted VM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmNetAllocation {
    /// CPU↔RAM flow.
    pub cpu_ram: FlowPath,
    /// RAM↔storage flow.
    pub ram_sto: FlowPath,
}

impl VmNetAllocation {
    /// True when either flow crosses racks.
    pub fn is_inter_rack(&self) -> bool {
        self.cpu_ram.inter_rack || self.ram_sto.inter_rack
    }

    /// Total bandwidth reserved across both flows (counting each once, not
    /// per hop).
    pub fn total_mbps(&self) -> u64 {
        self.cpu_ram.mbps + self.ram_sto.mbps
    }
}

/// Why a flow could not be wired, or a trunk mutation was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetError {
    /// No up link in `trunk` had `needed_mbps` free.
    InsufficientBandwidth {
        /// The saturated trunk.
        trunk: TrunkId,
        /// The demand that did not fit.
        needed_mbps: u64,
    },
    /// A per-link operation on `trunk` failed (over-release, double
    /// fault, spurious repair, bad link index).
    Trunk {
        /// The trunk the operation targeted.
        trunk: TrunkId,
        /// The underlying per-link failure.
        error: crate::trunk::TrunkError,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::InsufficientBandwidth { trunk, needed_mbps } => {
                write!(f, "no link in {trunk:?} has {needed_mbps} Mb/s free")
            }
            NetError::Trunk { trunk, error } => write!(f, "{trunk:?}: {error}"),
        }
    }
}

impl std::error::Error for NetError {}

/// The most a rack uplink trunk may carry: a rack's key in the bandwidth
/// ordering holds its trunk's free Mb/s in the 48 bits above the rack id.
/// (The paper's trunk is 3.2 × 10⁶ Mb/s.) Enforced by
/// [`NetworkConfig::validate`].
pub(crate) const MAX_RACK_TRUNK_MBPS: u64 = (1 << 48) - 1;

/// `(free_mbps, Reverse(rack))` in one word: more bandwidth sorts higher,
/// and among equals the lower rack id does.
fn rack_key(free_mbps: u64, rack: u16) -> u64 {
    debug_assert!(free_mbps <= MAX_RACK_TRUNK_MBPS);
    (free_mbps << 16) | u64::from(!rack)
}

fn key_rack(key: u64) -> RackId {
    RackId(!(key as u16))
}

/// The mutable network: one trunk per box and one per rack, each layer
/// stored flat (one vector of fixed-stride records: `trunk.rs` has the
/// layout), plus two pieces of derived state kept coherent by the single
/// private mutation funnel (`mutate`): an ordering of racks by free uplink
/// bandwidth (so NALB's "modified BFS" reads its neighbour order instead
/// of re-sorting every rack per probe) and per-layer running totals (so
/// the world's per-event sampler reads three fields instead of every
/// trunk). The ordering is one flat sorted array: a re-rank is two binary
/// searches and a rotate of the entries in between, the walk a reverse
/// slice scan.
#[derive(Debug, Clone)]
pub struct NetworkState {
    cfg: NetworkConfig,
    box_trunks: TrunkLayer,
    rack_trunks: TrunkLayer,
    /// Every rack's [`rack_key`], ascending, so reverse iteration yields
    /// NALB's neighbour order: descending bandwidth, ties to the lower id.
    rack_bw: Vec<u64>,
    /// Σ `used_mbps` over the box trunks.
    intra_used: u64,
    /// Σ `used_mbps` over the rack trunks.
    inter_used: u64,
    /// Σ `stranded_mbps` over both layers.
    stranded: u64,
}

impl NetworkState {
    /// Build a pristine network mirroring `cluster`'s boxes and racks.
    pub fn new(cfg: NetworkConfig, cluster: &Cluster) -> Self {
        cfg.validate().expect("invalid network configuration");
        let box_trunks = TrunkLayer::new(cluster.num_boxes(), cfg.box_uplink_width, cfg.link_mbps);
        let rack_trunks = TrunkLayer::new(
            cluster.num_racks() as usize,
            cfg.rack_uplink_width,
            cfg.link_mbps,
        );
        let [intra_used, inter_used, stranded] = Self::sum_totals(&box_trunks, &rack_trunks);
        NetworkState {
            rack_bw: Self::build_rack_bw(&rack_trunks),
            intra_used,
            inter_used,
            stranded,
            cfg,
            box_trunks,
            rack_trunks,
        }
    }

    fn build_rack_bw(rack_trunks: &TrunkLayer) -> Vec<u64> {
        let mut order: Vec<u64> = rack_trunks
            .trunks()
            .enumerate()
            .map(|(r, t)| rack_key(t.free_mbps(), r as u16))
            .collect();
        order.sort_unstable();
        order
    }

    /// Move `rack` from its place under `old` free bandwidth to its place
    /// under `new`: keys are unique, so the old entry is found by binary
    /// search, and only the entries between the two places shift.
    fn rerank(order: &mut [u64], rack: u16, old: u64, new: u64) {
        let from = order
            .binary_search(&rack_key(old, rack))
            .expect("every rack is ranked under its trunk's free bandwidth");
        let key = rack_key(new, rack);
        let to = if new > old {
            let to = from + order[from + 1..].partition_point(|k| *k < key);
            order[from..=to].rotate_left(1);
            to
        } else {
            let to = order[..from].partition_point(|k| *k < key);
            order[to..=from].rotate_right(1);
            to
        };
        order[to] = key;
    }

    /// `[intra_used, inter_used, stranded]` summed over every trunk — what
    /// the running totals must equal (construction and
    /// [`NetworkState::check_invariants`] only; never on the event path).
    fn sum_totals(box_trunks: &TrunkLayer, rack_trunks: &TrunkLayer) -> [u64; 3] {
        let used = |l: &TrunkLayer| l.trunks().map(Trunk::used_mbps).sum::<u64>();
        let stranded = |l: &TrunkLayer| l.trunks().map(Trunk::stranded_mbps).sum::<u64>();
        [
            used(box_trunks),
            used(rack_trunks),
            stranded(box_trunks) + stranded(rack_trunks),
        ]
    }

    /// The configuration in force.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Read-only view of a trunk.
    #[inline]
    pub fn trunk(&self, id: TrunkId) -> Trunk<'_> {
        match id {
            TrunkId::BoxUplink(b) => self.box_trunks.trunk(b as usize),
            TrunkId::RackUplink(r) => self.rack_trunks.trunk(r as usize),
        }
    }

    /// The single mutation funnel: run `op` on trunk `id` and fold the
    /// movement of its two O(1) ledgers into the layer totals, re-ranking
    /// the rack in the bandwidth ordering only when a rack trunk's free
    /// bandwidth moved. A refused `op` leaves the trunk untouched, so
    /// every delta is zero and nothing else changes.
    fn mutate<R>(&mut self, id: TrunkId, op: impl FnOnce(&mut TrunkMut<'_>) -> R) -> R {
        let (mut trunk, layer_used) = match id {
            TrunkId::BoxUplink(b) => (self.box_trunks.trunk_mut(b as usize), &mut self.intra_used),
            TrunkId::RackUplink(r) => {
                (self.rack_trunks.trunk_mut(r as usize), &mut self.inter_used)
            }
        };
        let (free, free_all) = trunk.view().ledger();
        let out = op(&mut trunk);
        let (free_after, free_all_after) = trunk.view().ledger();
        // used = capacity − free_all and stranded = free_all − free, so
        // the deltas need no capacity product. Unsigned totals: add
        // before subtracting what each total already contains.
        *layer_used = *layer_used + free_all - free_all_after;
        self.stranded = self.stranded + (free_all_after - free_after) - (free_all - free);
        if let TrunkId::RackUplink(r) = id {
            if free_after != free {
                Self::rerank(&mut self.rack_bw, r, free, free_after);
            }
        }
        out
    }

    /// Reserve on one link of one trunk; `false` (nothing taken) when the
    /// link is down or lacks capacity.
    fn trunk_take(&mut self, id: TrunkId, link: usize, mbps: u64) -> bool {
        self.mutate(id, |t| t.take(link, mbps))
    }

    /// Release on one link of one trunk (companion to
    /// [`NetworkState::trunk_take`]). Over-release propagates as a loud
    /// typed error with the state untouched.
    fn trunk_give(&mut self, id: TrunkId, link: usize, mbps: u64) -> Result<(), NetError> {
        self.mutate(id, |t| t.give(link, mbps))
            .map_err(|error| NetError::Trunk { trunk: id, error })
    }

    /// Take one link of one trunk down. New flows stop landing on the
    /// link, its free bandwidth becomes stranded, and (for rack uplinks)
    /// the NALB neighbour ordering re-ranks the rack immediately.
    pub fn fail_link(&mut self, id: TrunkId, link: usize) -> Result<(), NetError> {
        self.mutate(id, |t| t.fail_link(link))
            .map_err(|error| NetError::Trunk { trunk: id, error })
    }

    /// Bring one link of one trunk back up, re-entering its preserved free
    /// bandwidth into the schedulable aggregates and neighbour ordering.
    pub fn restore_link(&mut self, id: TrunkId, link: usize) -> Result<(), NetError> {
        self.mutate(id, |t| t.restore_link(link))
            .map_err(|error| NetError::Trunk { trunk: id, error })
    }

    /// Racks ordered by descending free uplink bandwidth, ties to the
    /// lower rack id — NALB's modified-BFS neighbour order, read from the
    /// incremental ordering instead of sorting per probe.
    pub fn racks_by_free_bw_desc(&self) -> impl Iterator<Item = RackId> + '_ {
        self.rack_bw.iter().rev().copied().map(key_rack)
    }

    /// Total free bandwidth on a box's uplink trunk (NALB's sort key).
    pub fn box_uplink_free_mbps(&self, b: BoxId) -> u64 {
        self.box_trunks.trunk(b.0 as usize).free_mbps()
    }

    /// Total free bandwidth on a rack's uplink trunk.
    pub fn rack_uplink_free_mbps(&self, r: RackId) -> u64 {
        self.rack_trunks.trunk(r.0 as usize).free_mbps()
    }

    /// The trunks an `src → dst` flow must cross, in order: the first
    /// `len` entries of the array, and whether the path is inter-rack.
    fn path_trunks(
        cluster: &Cluster,
        src: BoxId,
        dst: BoxId,
    ) -> ([TrunkId; MAX_HOPS], usize, bool) {
        let (ra, rb) = (cluster.rack_of(src), cluster.rack_of(dst));
        let (a, b) = (TrunkId::BoxUplink(src.0), TrunkId::BoxUplink(dst.0));
        if src == dst {
            // Both endpoints in the same box: stays on the box's internal
            // electronic crossbar, no optical trunk crossed. (Cannot happen
            // with single-resource boxes, but the model stays total.)
            ([a; MAX_HOPS], 0, false)
        } else if ra == rb {
            ([a, b, b, b], 2, false)
        } else {
            (
                [a, TrunkId::RackUplink(ra.0), TrunkId::RackUplink(rb.0), b],
                4,
                true,
            )
        }
    }

    /// Reserve one flow of `mbps` between two boxes. All-or-nothing: on
    /// failure every hop taken so far is rolled back.
    pub fn alloc_flow(
        &mut self,
        cluster: &Cluster,
        src: BoxId,
        dst: BoxId,
        mbps: u64,
        policy: LinkPolicy,
    ) -> Result<FlowPath, NetError> {
        let (trunks, len, inter_rack) = Self::path_trunks(cluster, src, dst);
        let mut path = FlowPath::new(mbps, inter_rack);
        for &tid in &trunks[..len] {
            let trunk = self.trunk(tid);
            let link = match policy {
                LinkPolicy::FirstFit => trunk.first_fit(mbps),
                LinkPolicy::MostAvailable => trunk.most_available(mbps),
            };
            match link {
                Some(i) => {
                    let taken = self.trunk_take(tid, i, mbps);
                    debug_assert!(taken, "selected link was checked to fit");
                    // A trunk's width is a `u16`, at construction and on load.
                    path.push(PackedHop::new(tid, i as u16));
                }
                None => {
                    self.give_back(path.packed(), mbps);
                    return Err(NetError::InsufficientBandwidth {
                        trunk: tid,
                        needed_mbps: mbps,
                    });
                }
            }
        }
        Ok(path)
    }

    /// Roll back hops taken a moment ago.
    fn give_back(&mut self, hops: &[PackedHop], mbps: u64) {
        for h in hops {
            self.trunk_give(h.trunk(), usize::from(h.link), mbps)
                .expect("rollback replays grants just taken");
        }
    }

    /// Return every hop of a flow. Fails loudly (typed, state mostly
    /// untouched — hops before the bad one are already released) when a
    /// hop replay would over-release its link.
    pub fn release_flow(&mut self, path: &FlowPath) -> Result<(), NetError> {
        for h in path.packed() {
            self.trunk_give(h.trunk(), usize::from(h.link), path.mbps)?;
        }
        Ok(())
    }

    /// Re-reserve a flow on exactly its recorded hops — the inverse of
    /// [`NetworkState::release_flow`] — without re-running link selection
    /// (so the replay is independent of the [`LinkPolicy`] the algorithm
    /// used). All-or-nothing: on failure every hop taken so far is rolled
    /// back.
    pub fn replay_flow(&mut self, path: &FlowPath) -> Result<(), NetError> {
        for (i, h) in path.packed().iter().enumerate() {
            if !self.trunk_take(h.trunk(), usize::from(h.link), path.mbps) {
                self.give_back(&path.packed()[..i], path.mbps);
                return Err(NetError::InsufficientBandwidth {
                    trunk: h.trunk(),
                    needed_mbps: path.mbps,
                });
            }
        }
        Ok(())
    }

    /// Re-reserve both flows of a VM on their recorded hops, atomically
    /// (see [`NetworkState::replay_flow`]).
    pub fn replay_vm(&mut self, alloc: &VmNetAllocation) -> Result<(), NetError> {
        self.replay_flow(&alloc.cpu_ram)?;
        if let Err(e) = self.replay_flow(&alloc.ram_sto) {
            self.release_flow(&alloc.cpu_ram)
                .expect("rollback replays the flow just granted");
            return Err(e);
        }
        Ok(())
    }

    /// Reserve both flows of a VM (CPU↔RAM then RAM↔storage), atomically.
    pub fn alloc_vm(
        &mut self,
        cluster: &Cluster,
        cpu_box: BoxId,
        ram_box: BoxId,
        sto_box: BoxId,
        demand: &FlowDemands,
        policy: LinkPolicy,
    ) -> Result<VmNetAllocation, NetError> {
        let cpu_ram = self.alloc_flow(cluster, cpu_box, ram_box, demand.cpu_ram_mbps, policy)?;
        match self.alloc_flow(cluster, ram_box, sto_box, demand.ram_sto_mbps, policy) {
            Ok(ram_sto) => Ok(VmNetAllocation { cpu_ram, ram_sto }),
            Err(e) => {
                self.release_flow(&cpu_ram)
                    .expect("rollback replays the flow just granted");
                Err(e)
            }
        }
    }

    /// Release both flows of a VM. Propagates the first over-release as a
    /// loud typed error.
    pub fn release_vm(&mut self, alloc: &VmNetAllocation) -> Result<(), NetError> {
        self.release_flow(&alloc.cpu_ram)?;
        self.release_flow(&alloc.ram_sto)
    }

    /// Cheap feasibility pre-check used by RISA's
    /// `AVAIL_INTRA_RACK_NET ≠ ∅` test (Alg. 1): could `rack` plausibly
    /// carry the VM's two intra-rack flows?
    ///
    /// Necessary (not sufficient) conditions: some CPU box uplink fits the
    /// CPU-RAM flow, some storage box uplink fits the RAM-storage flow, and
    /// some RAM box trunk can carry both flows (on one link or two). The
    /// definitive answer is still the actual [`NetworkState::alloc_vm`],
    /// which the scheduler performs afterwards.
    pub fn rack_intra_feasible(
        &self,
        cluster: &Cluster,
        rack: RackId,
        demand: &FlowDemands,
    ) -> bool {
        use risa_topology::ResourceKind;
        let fits =
            |b: &BoxId, mbps: u64| self.box_trunks.trunk(b.0 as usize).max_link_free_mbps() >= mbps;
        let cpu_ok = cluster
            .boxes_in_rack(rack, ResourceKind::Cpu)
            .iter()
            .any(|b| fits(b, demand.cpu_ram_mbps));
        let sto_ok = cluster
            .boxes_in_rack(rack, ResourceKind::Storage)
            .iter()
            .any(|b| fits(b, demand.ram_sto_mbps));
        let ram_ok = cluster
            .boxes_in_rack(rack, ResourceKind::Ram)
            .iter()
            .any(|b| {
                let t = self.box_trunks.trunk(b.0 as usize);
                t.max_link_free_mbps() >= demand.cpu_ram_mbps.max(demand.ram_sto_mbps)
                    && t.free_mbps() >= demand.ram_box_mbps()
            });
        cpu_ok && ram_ok && sto_ok
    }

    /// Total capacity of the intra-rack layer (all box uplink trunks).
    pub fn intra_capacity_mbps(&self) -> u64 {
        self.box_trunks.capacity_mbps()
    }

    /// Bandwidth currently reserved on the intra-rack layer. O(1).
    pub fn intra_used_mbps(&self) -> u64 {
        self.intra_used
    }

    /// Total capacity of the inter-rack layer (all rack uplink trunks).
    pub fn inter_capacity_mbps(&self) -> u64 {
        self.rack_trunks.capacity_mbps()
    }

    /// Bandwidth currently reserved on the inter-rack layer. O(1).
    pub fn inter_used_mbps(&self) -> u64 {
        self.inter_used
    }

    /// Free bandwidth trapped behind down links across both layers —
    /// the network contribution to the stranded-capacity resilience
    /// metric. O(1).
    pub fn stranded_mbps(&self) -> u64 {
        self.stranded
    }

    /// Every aggregate recomputed from the link words: each link's free
    /// bandwidth (the down bit masked off) within `[0, capacity]` and each
    /// trunk's three ledgers (`Trunk::check`), then the rack ordering and
    /// the layer totals from those (guaranteed by construction; kept for
    /// the property suites' belt and braces).
    pub fn check_invariants(&self) -> Result<(), String> {
        for (layer, trunks) in [("box", &self.box_trunks), ("rack", &self.rack_trunks)] {
            for (i, t) in trunks.trunks().enumerate() {
                t.check().map_err(|e| format!("{layer} trunk {i}: {e}"))?;
            }
        }
        if self.rack_bw != Self::build_rack_bw(&self.rack_trunks) {
            return Err("rack bandwidth ordering stale".into());
        }
        if [self.intra_used, self.inter_used, self.stranded]
            != Self::sum_totals(&self.box_trunks, &self.rack_trunks)
        {
            return Err("layer totals stale".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use risa_topology::TopologyConfig;

    fn setup() -> (Cluster, NetworkState) {
        let cluster = Cluster::new(TopologyConfig::paper());
        let net = NetworkState::new(NetworkConfig::paper(), &cluster);
        (cluster, net)
    }

    #[test]
    fn pristine_network_capacities() {
        let (_c, net) = setup();
        // 108 box trunks x 8 links x 200 Gb/s.
        assert_eq!(net.intra_capacity_mbps(), 108 * 8 * 200_000);
        // 18 rack trunks x 16 links x 200 Gb/s.
        assert_eq!(net.inter_capacity_mbps(), 18 * 16 * 200_000);
        assert_eq!(net.intra_used_mbps(), 0);
        assert_eq!(net.inter_used_mbps(), 0);
    }

    #[test]
    fn intra_rack_flow_touches_only_box_trunks() {
        let (c, mut net) = setup();
        let f = net
            .alloc_flow(&c, BoxId(0), BoxId(2), 5_000, LinkPolicy::FirstFit)
            .unwrap();
        assert!(!f.inter_rack);
        assert_eq!(f.hops().len(), 2);
        assert_eq!(net.intra_used_mbps(), 10_000);
        assert_eq!(net.inter_used_mbps(), 0);
        net.release_flow(&f).unwrap();
        assert_eq!(net.intra_used_mbps(), 0);
    }

    #[test]
    fn inter_rack_flow_crosses_four_trunks() {
        let (c, mut net) = setup();
        // Box 0 in rack 0, box 8 (RAM) in rack 1.
        let f = net
            .alloc_flow(&c, BoxId(0), BoxId(8), 5_000, LinkPolicy::FirstFit)
            .unwrap();
        assert!(f.inter_rack);
        assert_eq!(f.hops().len(), 4);
        assert_eq!(net.intra_used_mbps(), 10_000);
        assert_eq!(net.inter_used_mbps(), 10_000);
        net.release_flow(&f).unwrap();
        net.check_invariants().unwrap();
    }

    #[test]
    fn first_fit_packs_link_zero() {
        let (c, mut net) = setup();
        let f1 = net
            .alloc_flow(&c, BoxId(0), BoxId(2), 50_000, LinkPolicy::FirstFit)
            .unwrap();
        let f2 = net
            .alloc_flow(&c, BoxId(0), BoxId(2), 50_000, LinkPolicy::FirstFit)
            .unwrap();
        assert_eq!(f1.hops().next().unwrap().link, 0);
        assert_eq!(
            f2.hops().next().unwrap().link,
            0,
            "first-fit keeps filling link 0"
        );
        let _ = (f1, f2);
    }

    #[test]
    fn most_available_spreads_across_links() {
        let (c, mut net) = setup();
        let f1 = net
            .alloc_flow(&c, BoxId(0), BoxId(2), 50_000, LinkPolicy::MostAvailable)
            .unwrap();
        let f2 = net
            .alloc_flow(&c, BoxId(0), BoxId(2), 50_000, LinkPolicy::MostAvailable)
            .unwrap();
        assert_eq!(f1.hops().next().unwrap().link, 0);
        assert_eq!(
            f2.hops().next().unwrap().link,
            1,
            "most-available moves to the emptier link"
        );
    }

    #[test]
    fn flow_failure_rolls_back_all_hops() {
        let (c, mut net) = setup();
        // Saturate box 2's trunk entirely (8 full-link flows).
        let fills: Vec<FlowPath> = (0..8)
            .map(|_| {
                net.alloc_flow(&c, BoxId(2), BoxId(4), 200_000, LinkPolicy::FirstFit)
                    .unwrap()
            })
            .collect();
        let before = net.intra_used_mbps();
        let err = net
            .alloc_flow(&c, BoxId(0), BoxId(2), 1_000, LinkPolicy::FirstFit)
            .unwrap_err();
        assert!(matches!(
            err,
            NetError::InsufficientBandwidth {
                trunk: TrunkId::BoxUplink(2),
                ..
            }
        ));
        assert_eq!(
            net.intra_used_mbps(),
            before,
            "failed flow must not leak bandwidth on box 0's trunk"
        );
        for f in &fills {
            net.release_flow(f).unwrap();
        }
        assert_eq!(net.intra_used_mbps(), 0);
    }

    #[test]
    fn vm_allocation_reserves_both_flows() {
        let (c, mut net) = setup();
        let d = FlowDemands {
            cpu_ram_mbps: 20_000,
            ram_sto_mbps: 2_000,
        };
        let a = net
            .alloc_vm(&c, BoxId(0), BoxId(2), BoxId(4), &d, LinkPolicy::FirstFit)
            .unwrap();
        assert!(!a.is_inter_rack());
        assert_eq!(a.total_mbps(), 22_000);
        // cpu-ram crosses 2 trunks, ram-sto crosses 2: 2*20k + 2*2k.
        assert_eq!(net.intra_used_mbps(), 44_000);
        net.release_vm(&a).unwrap();
        assert_eq!(net.intra_used_mbps(), 0);
    }

    #[test]
    fn vm_allocation_rolls_back_first_flow_when_second_fails() {
        let (c, mut net) = setup();
        // Saturate storage box 4's trunk.
        let fills: Vec<FlowPath> = (0..8)
            .map(|_| {
                net.alloc_flow(&c, BoxId(4), BoxId(5), 200_000, LinkPolicy::FirstFit)
                    .unwrap()
            })
            .collect();
        let d = FlowDemands {
            cpu_ram_mbps: 20_000,
            ram_sto_mbps: 2_000,
        };
        let before_box0 = net.box_uplink_free_mbps(BoxId(0));
        assert!(net
            .alloc_vm(&c, BoxId(0), BoxId(2), BoxId(4), &d, LinkPolicy::FirstFit)
            .is_err());
        assert_eq!(
            net.box_uplink_free_mbps(BoxId(0)),
            before_box0,
            "cpu-ram flow must be rolled back"
        );
        for f in &fills {
            net.release_flow(f).unwrap();
        }
    }

    #[test]
    fn vm_replay_retakes_recorded_hops_or_nothing() {
        let (c, mut net) = setup();
        let d = FlowDemands {
            cpu_ram_mbps: 20_000,
            ram_sto_mbps: 2_000,
        };
        let a = net
            .alloc_vm(&c, BoxId(0), BoxId(2), BoxId(4), &d, LinkPolicy::FirstFit)
            .unwrap();
        net.release_vm(&a).unwrap();
        // Fill link 0 of storage box 4's trunk — the link ram-sto recorded.
        let fill = net
            .alloc_flow(&c, BoxId(4), BoxId(5), 200_000, LinkPolicy::FirstFit)
            .unwrap();
        let before_box0 = net.box_uplink_free_mbps(BoxId(0));
        assert!(net.replay_vm(&a).is_err());
        assert_eq!(
            net.box_uplink_free_mbps(BoxId(0)),
            before_box0,
            "cpu-ram flow must be rolled back"
        );
        net.release_flow(&fill).unwrap();
        net.replay_vm(&a).unwrap();
        assert_eq!(net.intra_used_mbps(), 44_000);
        net.release_vm(&a).unwrap();
        assert_eq!(net.intra_used_mbps(), 0);
    }

    #[test]
    fn rack_feasibility_precheck() {
        let (c, mut net) = setup();
        let d = FlowDemands {
            cpu_ram_mbps: 40_000,
            ram_sto_mbps: 8_000,
        };
        assert!(net.rack_intra_feasible(&c, RackId(0), &d));
        // Saturate both CPU box trunks in rack 0 (spreading the far ends
        // across both RAM boxes; each RAM trunk fills too, which is fine —
        // the feasibility check must fail on the CPU side regardless).
        let mut fills = vec![];
        for cpu_box in [BoxId(0), BoxId(1)] {
            for ram_box in [BoxId(2), BoxId(3)] {
                for _ in 0..4 {
                    fills.push(
                        net.alloc_flow(&c, cpu_box, ram_box, 200_000, LinkPolicy::FirstFit)
                            .unwrap(),
                    );
                }
            }
        }
        assert!(!net.rack_intra_feasible(&c, RackId(0), &d));
        assert!(net.rack_intra_feasible(&c, RackId(1), &d));
        for f in &fills {
            net.release_flow(f).unwrap();
        }
        assert!(net.rack_intra_feasible(&c, RackId(0), &d));
    }

    #[test]
    fn same_box_flow_is_free() {
        let (c, mut net) = setup();
        let f = net
            .alloc_flow(&c, BoxId(0), BoxId(0), 99_999, LinkPolicy::FirstFit)
            .unwrap();
        assert_eq!(f.hops().len(), 0);
        assert_eq!(net.intra_used_mbps(), 0);
    }

    #[test]
    fn link_faults_reorder_racks_and_strand_bandwidth() {
        let (c, mut net) = setup();
        net.check_invariants().unwrap();
        // Downing rack 0's entire uplink pushes it to the back of NALB's
        // neighbour order (all racks tie otherwise; ties go low-id first).
        let width = net.trunk(TrunkId::RackUplink(0)).width();
        for l in 0..width {
            net.fail_link(TrunkId::RackUplink(0), l).unwrap();
        }
        net.check_invariants().unwrap();
        let order: Vec<RackId> = net.racks_by_free_bw_desc().collect();
        assert_eq!(order[0], RackId(1), "rack 0 no longer leads the order");
        assert_eq!(*order.last().unwrap(), RackId(0));
        assert_eq!(net.rack_uplink_free_mbps(RackId(0)), 0);
        assert_eq!(
            net.stranded_mbps(),
            width as u64 * net.config().link_mbps,
            "downed links' free bandwidth is stranded, not used"
        );
        // Inter-rack flows from rack 0 now fail on its uplink trunk.
        let err = net
            .alloc_flow(&c, BoxId(0), BoxId(8), 5_000, LinkPolicy::FirstFit)
            .unwrap_err();
        assert!(matches!(
            err,
            NetError::InsufficientBandwidth {
                trunk: TrunkId::RackUplink(0),
                ..
            }
        ));
        for l in 0..width {
            net.restore_link(TrunkId::RackUplink(0), l).unwrap();
        }
        net.check_invariants().unwrap();
        assert_eq!(net.stranded_mbps(), 0);
        assert_eq!(net.racks_by_free_bw_desc().next(), Some(RackId(0)));
        // Double-fault and spurious repair surface as typed errors.
        net.fail_link(TrunkId::BoxUplink(3), 2).unwrap();
        assert!(matches!(
            net.fail_link(TrunkId::BoxUplink(3), 2).unwrap_err(),
            NetError::Trunk {
                trunk: TrunkId::BoxUplink(3),
                error: crate::trunk::TrunkError::LinkDown { link: 2 },
            }
        ));
        net.restore_link(TrunkId::BoxUplink(3), 2).unwrap();
        assert!(matches!(
            net.restore_link(TrunkId::BoxUplink(3), 2).unwrap_err(),
            NetError::Trunk {
                trunk: TrunkId::BoxUplink(3),
                error: crate::trunk::TrunkError::LinkNotDown { link: 2 },
            }
        ));
    }

    #[test]
    fn flows_granted_before_a_fault_release_through_it() {
        let (c, mut net) = setup();
        let f = net
            .alloc_flow(&c, BoxId(0), BoxId(2), 5_000, LinkPolicy::FirstFit)
            .unwrap();
        let hop = f.hops().next().unwrap();
        net.fail_link(hop.trunk, hop.link).unwrap();
        net.release_flow(&f).unwrap();
        net.check_invariants().unwrap();
        assert_eq!(net.intra_used_mbps(), 0);
        // The freed bandwidth sits stranded behind the down link.
        assert_eq!(
            net.stranded_mbps(),
            net.config().link_mbps,
            "released grant returns to the downed link's ledger"
        );
        net.restore_link(hop.trunk, hop.link).unwrap();
        assert_eq!(net.stranded_mbps(), 0);
    }

    #[test]
    fn over_release_propagates_as_typed_error() {
        let (c, mut net) = setup();
        let f = net
            .alloc_flow(&c, BoxId(0), BoxId(2), 5_000, LinkPolicy::FirstFit)
            .unwrap();
        net.release_flow(&f).unwrap();
        let err = net.release_flow(&f).unwrap_err();
        assert!(matches!(
            err,
            NetError::Trunk {
                error: crate::trunk::TrunkError::OverRelease { .. },
                ..
            }
        ));
        net.check_invariants().unwrap();
    }

    /// `check_invariants` recomputes the derived state from the trunks
    /// too: a trunk changed outside the mutation funnel leaves the layer
    /// totals or the rack ordering behind, and is caught.
    #[test]
    fn check_invariants_catches_a_mutation_outside_the_funnel() {
        let (_c, mut net) = setup();
        assert!(net.box_trunks.trunk_mut(5).take(0, 1_000));
        assert_eq!(net.check_invariants(), Err("layer totals stale".into()));
        let (_c, mut net) = setup();
        assert!(net.rack_trunks.trunk_mut(3).take(0, 1_000));
        assert_eq!(
            net.check_invariants(),
            Err("rack bandwidth ordering stale".into())
        );
    }

    #[test]
    fn zero_demand_always_succeeds() {
        let (c, mut net) = setup();
        let f = net
            .alloc_flow(&c, BoxId(0), BoxId(2), 0, LinkPolicy::FirstFit)
            .unwrap();
        assert_eq!(f.hops().len(), 2);
        assert_eq!(net.intra_used_mbps(), 0);
        net.release_flow(&f).unwrap();
    }
}
