//! A routable Beneš fabric: the looping algorithm, per-path cell lists,
//! and an *empirical* cell-sharing factor α.
//!
//! Section 3.2 of the paper assumes a constant α = 0.9 in Equation (1) to
//! account for two VMs sharing an MRR cell (its Figure 4 shows two paths
//! `P1`/`P2` crossing the same cell). This module actually routes
//! connection sets through the Beneš network with the classic looping
//! algorithm, so the sharing factor can be **measured** for a given
//! traffic pattern instead of assumed — the `ablation` bench compares the
//! measured α against the paper's 0.9.
//!
//! ```
//! use risa_photonics::fabric::Fabric;
//!
//! // Route the reversal permutation through an 8-port Beneš.
//! let perm: Vec<Option<u16>> = (0..8).rev().map(Some).collect();
//! let routing = Fabric::route(8, &perm).unwrap();
//! // Every path crosses one cell per stage: 2*log2(8)-1 = 5.
//! for input in 0..8 {
//!     assert_eq!(routing.path(input).unwrap().len(), 5);
//! }
//! // A full permutation shares every cell between two paths: α = 0.5.
//! assert!((routing.empirical_alpha() - 0.5).abs() < 1e-12);
//! ```

use crate::benes;
use serde::{Deserialize, Serialize};

/// State of one 2×2 MRR cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellState {
    /// Unused by any routed connection.
    Idle,
    /// Pass-through: upper→upper, lower→lower.
    Bar,
    /// Exchange: upper→lower, lower→upper.
    Cross,
}

/// Cell coordinates: `(stage, index-within-stage)`.
pub type CellRef = (u32, u32);

/// Routing failures.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouteError {
    /// `ports` is not a power of two ≥ 2.
    BadPortCount(u16),
    /// The connection list is not a partial permutation (an output is
    /// requested twice, or an index is out of range).
    NotAPartialPermutation,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::BadPortCount(p) => write!(f, "bad Benes port count {p}"),
            RouteError::NotAPartialPermutation => {
                write!(f, "connection set is not a partial permutation")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// The result of routing a connection set: cell settings plus the exact
/// cell list of every routed input.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Routing {
    ports: u16,
    stages: u32,
    /// `cells[stage][idx]`.
    cells: Vec<Vec<CellState>>,
    /// Per input: the cells its signal crosses, or `None` if idle.
    paths: Vec<Option<Vec<CellRef>>>,
}

/// Namespace for fabric routing (constructed through [`Fabric::route`]).
pub struct Fabric;

impl Fabric {
    /// Route a partial permutation through an N-port Beneš network.
    ///
    /// `perm[i] = Some(o)` requests a connection from input `i` to output
    /// `o`; `None` leaves the input idle. Beneš networks are rearrangeably
    /// non-blocking, so every partial permutation routes successfully.
    pub fn route(ports: u16, perm: &[Option<u16>]) -> Result<Routing, RouteError> {
        if !ports.is_power_of_two() || ports < 2 {
            return Err(RouteError::BadPortCount(ports));
        }
        if perm.len() != ports as usize {
            return Err(RouteError::NotAPartialPermutation);
        }
        let mut seen = vec![false; ports as usize];
        for &p in perm {
            if let Some(o) = p {
                if o >= ports || std::mem::replace(&mut seen[o as usize], true) {
                    return Err(RouteError::NotAPartialPermutation);
                }
            }
        }
        let stages = benes::stages(ports);
        let mut routing = Routing {
            ports,
            stages,
            cells: (0..stages)
                .map(|_| vec![CellState::Idle; ports as usize / 2])
                .collect(),
            paths: vec![None; ports as usize],
        };
        for (i, &p) in perm.iter().enumerate() {
            if p.is_some() {
                routing.paths[i] = Some(Vec::with_capacity(stages as usize));
            }
        }
        let pairs: Vec<(u16, u16)> = perm
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| p.map(|o| (i as u16, o)))
            .collect();
        route_recursive(ports, &pairs, 0, 0, &mut routing)?;
        // Paths are collected outer-first on both flanks; sort by stage so
        // callers see them in signal order.
        for p in routing.paths.iter_mut().flatten() {
            p.sort_unstable();
        }
        Ok(routing)
    }
}

/// Recursively route `pairs` through the sub-Beneš whose first stage is
/// `stage0` and whose cells start at row offset `row0` in every stage.
fn route_recursive(
    ports: u16,
    pairs: &[(u16, u16)],
    stage0: u32,
    row0: u32,
    routing: &mut Routing,
) -> Result<(), RouteError> {
    debug_assert!(ports.is_power_of_two());
    if pairs.is_empty() {
        return Ok(());
    }
    if ports == 2 {
        // Base case: one cell.
        let stage = stage0;
        let idx = row0;
        for &(i, o) in pairs {
            let want = if i == o {
                CellState::Bar
            } else {
                CellState::Cross
            };
            let cell = &mut routing.cells[stage as usize][idx as usize];
            debug_assert!(
                *cell == CellState::Idle || *cell == want,
                "base-cell conflict: permutation invariant violated"
            );
            *cell = want;
            record(routing, i, o, stage, idx, stage0, row0, ports);
        }
        return Ok(());
    }

    let half = ports / 2;
    let n_sw = half as usize; // outer switches per flank

    // Looping algorithm: 2-colour the connections so that the two
    // connections sharing an input switch take different subnets, and
    // likewise for output switches.
    //
    // `in_conn[s]` / `out_conn[t]`: up to two connection indices touching
    // input switch s / output switch t.
    let mut in_conn: Vec<Vec<usize>> = vec![Vec::with_capacity(2); n_sw];
    let mut out_conn: Vec<Vec<usize>> = vec![Vec::with_capacity(2); n_sw];
    for (c, &(i, o)) in pairs.iter().enumerate() {
        in_conn[(i / 2) as usize].push(c);
        out_conn[(o / 2) as usize].push(c);
    }
    // colour[c]: 0 = upper subnet, 1 = lower, usize::MAX = unset.
    let mut colour = vec![usize::MAX; pairs.len()];
    for start in 0..pairs.len() {
        if colour[start] != usize::MAX {
            continue;
        }
        // Walk the alternating chain starting from `start`.
        colour[start] = 0;
        let mut frontier = vec![start];
        while let Some(c) = frontier.pop() {
            let (i, o) = pairs[c];
            // Sibling on the same input switch must take the other subnet.
            for &c2 in &in_conn[(i / 2) as usize] {
                if c2 != c && colour[c2] == usize::MAX {
                    colour[c2] = 1 - colour[c];
                    frontier.push(c2);
                }
            }
            // Sibling on the same output switch likewise.
            for &c2 in &out_conn[(o / 2) as usize] {
                if c2 != c && colour[c2] == usize::MAX {
                    colour[c2] = 1 - colour[c];
                    frontier.push(c2);
                }
            }
        }
    }

    let last_stage = stage0 + 2 * (benes::stages(ports) - 1) / 2; // stage0 + stages-1
    let out_stage = stage0 + benes::stages(ports) - 1;
    debug_assert_eq!(last_stage, out_stage);

    // Set outer cells and build the two subnet pair lists.
    let mut upper: Vec<(u16, u16)> = Vec::new();
    let mut lower: Vec<(u16, u16)> = Vec::new();
    for (c, &(i, o)) in pairs.iter().enumerate() {
        let sub = colour[c] as u16; // 0 upper, 1 lower
        let in_sw = i / 2;
        let out_sw = o / 2;
        // Input cell: input port i is the (i % 2) leg; it must exit on leg
        // `sub` (upper leg feeds the upper subnet).
        let in_state = if i % 2 == sub {
            CellState::Bar
        } else {
            CellState::Cross
        };
        set_cell(routing, stage0, row0 + in_sw as u32, in_state)?;
        // Output cell: the signal arrives on leg `sub` and must leave on
        // leg (o % 2).
        let out_state = if o % 2 == sub {
            CellState::Bar
        } else {
            CellState::Cross
        };
        set_cell(routing, out_stage, row0 + out_sw as u32, out_state)?;
        record(
            routing,
            i,
            o,
            stage0,
            row0 + in_sw as u32,
            stage0,
            row0,
            ports,
        );
        record(
            routing,
            i,
            o,
            out_stage,
            row0 + out_sw as u32,
            stage0,
            row0,
            ports,
        );
        let pair = (in_sw, out_sw);
        if sub == 0 {
            upper.push(pair);
        } else {
            lower.push(pair);
        }
    }

    // Recurse. Upper subnet occupies rows [row0, row0 + half/2), lower the
    // next half/2 rows, in stages [stage0+1, out_stage-1].
    remap_and_recurse(half, &upper, stage0 + 1, row0, routing, pairs, &colour, 0)?;
    remap_and_recurse(
        half,
        &lower,
        stage0 + 1,
        row0 + half as u32 / 2,
        routing,
        pairs,
        &colour,
        1,
    )
}

/// Recurse into one subnet, translating sub-paths back onto the original
/// inputs so `paths` stays keyed by the outermost input index.
#[expect(
    clippy::too_many_arguments,
    reason = "one recursion level's whole frame"
)]
fn remap_and_recurse(
    ports: u16,
    sub_pairs: &[(u16, u16)],
    stage0: u32,
    row0: u32,
    routing: &mut Routing,
    parent_pairs: &[(u16, u16)],
    colour: &[usize],
    want_colour: usize,
) -> Result<(), RouteError> {
    if sub_pairs.is_empty() {
        return Ok(());
    }
    // Route the subnet into a scratch Routing, then merge cells and remap
    // paths onto the parent's input indices.
    let stages = benes::stages(ports);
    let mut scratch = Routing {
        ports,
        stages,
        cells: (0..stages)
            .map(|_| vec![CellState::Idle; ports as usize / 2])
            .collect(),
        paths: vec![None; ports as usize],
    };
    for &(i, _) in sub_pairs {
        scratch.paths[i as usize] = Some(Vec::new());
    }
    route_recursive(ports, sub_pairs, 0, 0, &mut scratch)?;

    // Merge cells.
    for (s, stage_cells) in scratch.cells.iter().enumerate() {
        for (r, &state) in stage_cells.iter().enumerate() {
            if state != CellState::Idle {
                set_cell(routing, stage0 + s as u32, row0 + r as u32, state)?;
            }
        }
    }
    // Remap paths: the k-th connection of `sub_pairs` corresponds to the
    // k-th parent connection with this colour.
    let parents: Vec<usize> = (0..parent_pairs.len())
        .filter(|&c| colour[c] == want_colour)
        .collect();
    for (k, &(si, _)) in sub_pairs.iter().enumerate() {
        let parent_input = parent_pairs[parents[k]].0 as usize;
        let sub_path = scratch.paths[si as usize].clone().unwrap_or_default();
        if let Some(p) = routing.paths[parent_input].as_mut() {
            for (s, r) in sub_path {
                p.push((stage0 + s, row0 + r));
            }
        }
    }
    Ok(())
}

fn set_cell(
    routing: &mut Routing,
    stage: u32,
    idx: u32,
    want: CellState,
) -> Result<(), RouteError> {
    let cell = &mut routing.cells[stage as usize][idx as usize];
    debug_assert!(
        *cell == CellState::Idle || *cell == want,
        "cell ({stage},{idx}) conflict: looping algorithm invariant violated"
    );
    *cell = want;
    Ok(())
}

/// Append `cell` to input `i`'s path if this call belongs to the outermost
/// recursion level (paths for inner levels are remapped by the caller).
#[expect(
    clippy::too_many_arguments,
    reason = "one recursion level's whole frame"
)]
fn record(
    routing: &mut Routing,
    i: u16,
    _o: u16,
    stage: u32,
    idx: u32,
    stage0: u32,
    _row0: u32,
    _ports: u16,
) {
    // Only the top-level call (stage0 == 0 at the outermost) owns `paths`
    // keyed by true inputs; inner calls run on scratch routings where the
    // local input indices ARE the path keys.
    let _ = stage0;
    if let Some(p) = routing.paths[i as usize].as_mut() {
        p.push((stage, idx));
    }
}

impl Routing {
    /// Port count of the routed fabric.
    pub fn ports(&self) -> u16 {
        self.ports
    }

    /// State of one cell.
    pub fn cell(&self, stage: u32, idx: u32) -> CellState {
        self.cells[stage as usize][idx as usize]
    }

    /// Cells crossed by input `i`'s signal, in stage order; `None` if idle.
    pub fn path(&self, input: u16) -> Option<&[CellRef]> {
        self.paths[input as usize].as_deref()
    }

    /// Number of distinct cells in use.
    pub fn active_cells(&self) -> usize {
        self.cells
            .iter()
            .flatten()
            .filter(|&&c| c != CellState::Idle)
            .count()
    }

    /// Total path-cell crossings (Σ per-path cells) — the `Σ n` of Eq. (1).
    pub fn total_crossings(&self) -> usize {
        self.paths.iter().flatten().map(|p| p.len()).sum()
    }

    /// Measured cell-sharing factor: `active cells / total crossings`.
    ///
    /// 1.0 = no sharing, 0.5 = every active cell carries two paths. The
    /// paper assumes 0.9; the ablation bench reports measured values.
    pub fn empirical_alpha(&self) -> f64 {
        let crossings = self.total_crossings();
        if crossings == 0 {
            1.0
        } else {
            self.active_cells() as f64 / crossings as f64
        }
    }

    /// Verify that every routed signal actually reaches its output when
    /// the cell settings are simulated stage by stage. Returns the routed
    /// input→output map.
    pub fn simulate(&self) -> Vec<Option<u16>> {
        let n = self.ports as usize;
        let mut at: Vec<Option<u16>> = (0..n).map(|i| Some(i as u16)).collect();
        // at[w] = which input's signal currently occupies wire w.
        let mut wires: Vec<Option<u16>> = (0..n).map(|i| Some(i as u16)).collect();
        for stage in 0..self.stages {
            let mut next: Vec<Option<u16>> = vec![None; n];
            for cell in 0..n / 2 {
                let a = wires[2 * cell];
                let b = wires[2 * cell + 1];
                match self.cells[stage as usize][cell] {
                    CellState::Cross => {
                        next[wire_after(self.ports, stage, (2 * cell + 1) as u16) as usize] = a;
                        next[wire_after(self.ports, stage, (2 * cell) as u16) as usize] = b;
                    }
                    _ => {
                        next[wire_after(self.ports, stage, (2 * cell) as u16) as usize] = a;
                        next[wire_after(self.ports, stage, (2 * cell + 1) as u16) as usize] = b;
                    }
                }
            }
            wires = next;
        }
        let mut out = vec![None; n];
        for (w, sig) in wires.iter().enumerate() {
            if let Some(input) = sig {
                if self.paths[*input as usize].is_some() {
                    out[*input as usize] = Some(w as u16);
                }
            }
        }
        at.truncate(0);
        drop(at);
        out
    }
}

/// The wire permutation between `stage` and `stage+1` of the recursive
/// Beneš layout used here.
fn wire_after(ports: u16, stage: u32, leg: u16) -> u16 {
    let total = benes::stages(ports); // 2k-1
    if stage + 1 == total {
        return leg; // after the last stage, wires go straight to outputs
    }
    // Boundary b sits after stage b. On the way in (b < k-1) it is the
    // butterfly of the sub-network of size N/2^b; on the way out it is the
    // inverse butterfly of size N/2^(total-2-b).
    let b = stage;
    let half_point = (total - 1) / 2; // k-1
    let going_in = b < half_point;
    let d = if going_in { b } else { total - 2 - b };
    let sub = ports >> d; // size of the Benes at this boundary
    let within = leg % sub;
    let base = leg - within;
    let mapped = if going_in {
        // Outer stage of `sub`: leg w goes to subnet (w%2), position w/2.
        let subnet = within % 2;
        let pos = within / 2;
        subnet * (sub / 2) + pos
    } else {
        // Leaving a subnet: inverse mapping.
        let subnet = within / (sub / 2);
        let pos = within % (sub / 2);
        2 * pos + subnet
    };
    base + mapped
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_perm(ports: u16, f: impl Fn(u16) -> u16) -> Vec<Option<u16>> {
        (0..ports).map(|i| Some(f(i))).collect()
    }

    fn assert_routes(ports: u16, perm: &[Option<u16>]) -> Routing {
        let r = Fabric::route(ports, perm).unwrap();
        let out = r.simulate();
        for (i, &want) in perm.iter().enumerate() {
            assert_eq!(
                out[i], want,
                "{ports}-port: input {i} should reach {want:?}, got {:?}",
                out[i]
            );
        }
        // Every routed path crosses exactly one cell per stage.
        let stages = benes::stages(ports) as usize;
        for (i, p) in perm.iter().enumerate() {
            if p.is_some() {
                let path = r.path(i as u16).unwrap();
                assert_eq!(path.len(), stages, "input {i} path length");
                // One cell per stage, in order.
                for (s, &(stage, _)) in path.iter().enumerate() {
                    assert_eq!(stage as usize, s);
                }
            } else {
                assert!(r.path(i as u16).is_none());
            }
        }
        r
    }

    #[test]
    fn identity_routes_all_bar_reachability() {
        for ports in [2u16, 4, 8, 16, 32, 64] {
            assert_routes(ports, &full_perm(ports, |i| i));
        }
    }

    #[test]
    fn reversal_routes() {
        for ports in [2u16, 4, 8, 16, 32, 64, 128] {
            assert_routes(ports, &full_perm(ports, |i| ports - 1 - i));
        }
    }

    #[test]
    fn rotation_routes() {
        for ports in [4u16, 8, 16, 64] {
            assert_routes(ports, &full_perm(ports, |i| (i + 1) % ports));
        }
    }

    #[test]
    fn pseudo_random_permutations_route() {
        // Deterministic LCG-shuffled permutations at several sizes.
        for ports in [8u16, 16, 32, 64, 256] {
            let mut p: Vec<u16> = (0..ports).collect();
            let mut state = 0x2545F4914F6CDD1Du64;
            for i in (1..p.len()).rev() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let j = (state >> 33) as usize % (i + 1);
                p.swap(i, j);
            }
            let perm: Vec<Option<u16>> = p.into_iter().map(Some).collect();
            assert_routes(ports, &perm);
        }
    }

    #[test]
    fn partial_permutations_route() {
        // Only a quarter of the inputs active.
        let mut perm = vec![None; 16];
        perm[3] = Some(9);
        perm[7] = Some(0);
        perm[12] = Some(15);
        perm[13] = Some(1);
        let r = assert_routes(16, &perm);
        assert!(r.empirical_alpha() > 0.5);
        assert!(r.total_crossings() == 4 * 7); // 4 paths x 7 stages
    }

    #[test]
    fn full_permutation_shares_every_cell() {
        // With all N inputs active every cell carries exactly two paths.
        let r = assert_routes(16, &full_perm(16, |i| i));
        assert_eq!(r.active_cells(), benes::total_cells(16) as usize);
        assert!((r.empirical_alpha() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_connection_shares_nothing() {
        let mut perm = vec![None; 8];
        perm[5] = Some(2);
        let r = assert_routes(8, &perm);
        assert_eq!(r.active_cells(), 5);
        assert_eq!(r.empirical_alpha(), 1.0);
    }

    #[test]
    fn empty_routing_is_alpha_one() {
        let r = Fabric::route(8, &[None; 8]).unwrap();
        assert_eq!(r.total_crossings(), 0);
        assert_eq!(r.empirical_alpha(), 1.0);
        assert_eq!(r.active_cells(), 0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert_eq!(
            Fabric::route(6, &[None; 6]).unwrap_err(),
            RouteError::BadPortCount(6)
        );
        // Duplicate output.
        let mut perm = vec![None; 4];
        perm[0] = Some(1);
        perm[2] = Some(1);
        assert_eq!(
            Fabric::route(4, &perm).unwrap_err(),
            RouteError::NotAPartialPermutation
        );
        // Out-of-range output.
        let mut perm = vec![None; 4];
        perm[0] = Some(4);
        assert_eq!(
            Fabric::route(4, &perm).unwrap_err(),
            RouteError::NotAPartialPermutation
        );
        // Wrong length.
        assert_eq!(
            Fabric::route(4, &[None; 3]).unwrap_err(),
            RouteError::NotAPartialPermutation
        );
    }

    /// The paper's α = 0.9 sits between a lightly loaded switch (α → 1)
    /// and a fully loaded one (α = 0.5): measured α decreases with load.
    #[test]
    fn alpha_decreases_with_load() {
        let ports = 64u16;
        let mut alphas = vec![];
        for active in [8usize, 24, 48, 64] {
            let mut perm = vec![None; ports as usize];
            // Deterministic spread: input k -> output (k*37+11) % ports.
            for k in 0..active {
                let i = (k * (ports as usize / active)) % ports as usize;
                let o = ((i * 37 + 11) % ports as usize) as u16;
                // Avoid duplicate outputs.
                if perm.iter().all(|&p| p != Some(o)) {
                    perm[i] = Some(o);
                }
            }
            let r = Fabric::route(ports, &perm).unwrap();
            let out = r.simulate();
            for (i, want) in perm.iter().enumerate() {
                assert_eq!(out[i], *want);
            }
            alphas.push(r.empirical_alpha());
        }
        assert!(
            alphas.windows(2).all(|w| w[0] >= w[1] - 1e-9),
            "alpha should not increase with load: {alphas:?}"
        );
        // Light load shares little (α → 1), full load shares everything
        // (α = 0.5); the paper's assumed 0.9 corresponds to a lightly
        // loaded switch.
        assert!(alphas[0] > 0.7, "light load mostly share-free: {alphas:?}");
        assert_eq!(*alphas.last().unwrap(), 0.5);
    }
}
