//! A recorded flow is replayed onto exactly its hops, and a hop the
//! network does not have is refused — typed, with nothing taken — never
//! an index panic, whichever network the flow was recorded on.

use risa_network::{LinkPolicy, NetworkConfig, NetworkState};
use risa_topology::{BoxId, Cluster, TopologyConfig};

/// A flow recorded on a network with 16-link box trunks whose second hop
/// uses link 8 replays onto the paper's 8-link trunks as a refusal, and
/// the first hop it had taken is rolled back.
#[test]
fn replaying_a_hop_past_the_trunk_width_is_refused() {
    let cluster = Cluster::new(TopologyConfig::paper());
    let paper = NetworkConfig::paper();
    let mut wide = NetworkState::new(
        NetworkConfig {
            box_uplink_width: 16,
            ..paper
        },
        &cluster,
    );
    let full = paper.link_mbps;
    for _ in 0..8 {
        // Fill links 0..8 of box 2's trunk (and of box 3's).
        wide.alloc_flow(&cluster, BoxId(3), BoxId(2), full, LinkPolicy::FirstFit)
            .unwrap();
    }
    let flow = wide
        .alloc_flow(&cluster, BoxId(0), BoxId(2), full, LinkPolicy::FirstFit)
        .unwrap();
    let links: Vec<usize> = flow.hops().map(|h| h.link).collect();
    assert_eq!(links, [0, 8]);

    let mut net = NetworkState::new(paper, &cluster);
    assert!(net.replay_flow(&flow).is_err());
    assert_eq!(net.intra_used_mbps(), 0, "the first hop was rolled back");
    net.check_invariants().unwrap();
}
