//! The serialized form of a VM's flows is the one checkpoints have always
//! carried — `{hops: [{trunk, link, mbps}, …], inter_rack, mbps}` — though
//! the hops are now stored packed and inline; and what the packed form
//! cannot hold is refused with a typed error, never truncated.

use risa_network::{HopGrant, NetworkConfig, NetworkState, TrunkId, VmNetAllocation};
use risa_topology::{Cluster, TopologyConfig};

/// One resident's `network` block, copied out of a checkpoint the parent
/// of the inline-hops change wrote (NALB, `--scale 4`): a 4-hop inter-rack
/// flow and a 2-hop intra-rack one.
const PARENT_WRITTEN: &str = concat!(
    r#"{"cpu_ram":{"hops":[{"trunk":{"BoxUplink":414},"link":1,"mbps":25000},"#,
    r#"{"trunk":{"RackUplink":69},"link":2,"mbps":25000},"#,
    r#"{"trunk":{"RackUplink":16},"link":1,"mbps":25000},"#,
    r#"{"trunk":{"BoxUplink":99},"link":3,"mbps":25000}],"inter_rack":true,"mbps":25000},"#,
    r#""ram_sto":{"hops":[{"trunk":{"BoxUplink":99},"link":2,"mbps":5000},"#,
    r#"{"trunk":{"BoxUplink":101},"link":7,"mbps":5000}],"inter_rack":false,"mbps":5000}}"#,
);

#[test]
fn a_parent_written_allocation_round_trips_to_the_same_bytes() {
    let alloc: VmNetAllocation = serde_json::from_str(PARENT_WRITTEN).unwrap();
    assert_eq!(serde_json::to_string(&alloc).unwrap(), PARENT_WRITTEN);
    assert!(alloc.is_inter_rack());
    assert_eq!(alloc.total_mbps(), 30_000);
    let hops: Vec<HopGrant> = alloc.cpu_ram.hops().collect();
    assert_eq!(hops.len(), 4);
    assert_eq!(
        hops[1],
        HopGrant {
            trunk: TrunkId::RackUplink(69),
            link: 2,
            mbps: 25_000
        }
    );
    assert_eq!(alloc.ram_sto.hops().len(), 2);
    assert_eq!(
        alloc.ram_sto.hops().last().unwrap().trunk,
        TrunkId::BoxUplink(101)
    );
    // And it is live state, not just text: it replays onto a network.
    let cluster = Cluster::new(TopologyConfig::paper().scaled(4));
    let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
    net.replay_vm(&alloc).unwrap();
    assert_eq!(net.inter_used_mbps(), 2 * 25_000);
    net.release_vm(&alloc).unwrap();
    net.check_invariants().unwrap();
}

fn flow(hops: &[(u32, u64, u64)], mbps: u64) -> String {
    let hops: Vec<String> = hops
        .iter()
        .map(|(b, link, mbps)| {
            format!(r#"{{"trunk":{{"BoxUplink":{b}}},"link":{link},"mbps":{mbps}}}"#)
        })
        .collect();
    format!(
        r#"{{"hops":[{}],"inter_rack":false,"mbps":{mbps}}}"#,
        hops.join(",")
    )
}

fn refusal(cpu_ram: &str) -> String {
    let doc = format!(r#"{{"cpu_ram":{cpu_ram},"ram_sto":{}}}"#, flow(&[], 0));
    serde_json::from_str::<VmNetAllocation>(&doc)
        .expect_err("the packed form cannot hold this flow")
        .to_string()
}

#[test]
fn flows_the_inline_form_cannot_hold_are_refused() {
    // Four hops is the longest path there is.
    let five = [(0, 0, 7), (1, 0, 7), (2, 0, 7), (3, 0, 7), (4, 0, 7)];
    assert!(serde_json::from_str::<VmNetAllocation>(&format!(
        r#"{{"cpu_ram":{},"ram_sto":{}}}"#,
        flow(&five[..4], 7),
        flow(&[], 0)
    ))
    .is_ok());
    assert!(refusal(&flow(&five, 7)).contains("at most 4"));
    // A hop carries the flow's bandwidth: it is no longer stored per hop.
    assert!(refusal(&flow(&[(0, 0, 7), (1, 0, 8)], 7)).contains("8 Mb/s of a 7 Mb/s flow"));
    // A link index is below a u16 trunk width.
    assert!(refusal(&flow(&[(0, 65_536, 7)], 7)).contains("link 65536"));
}

/// A hop that names a link its trunk does not have (a tampered
/// checkpoint) is a typed refusal with nothing taken, not an index panic.
#[test]
fn replaying_a_hop_past_the_trunk_width_is_refused() {
    let cluster = Cluster::new(TopologyConfig::paper());
    let mut net = NetworkState::new(NetworkConfig::paper(), &cluster);
    let doc = format!(
        r#"{{"cpu_ram":{},"ram_sto":{}}}"#,
        flow(&[(0, 0, 7), (2, 8, 7)], 7),
        flow(&[], 0)
    );
    let alloc: VmNetAllocation = serde_json::from_str(&doc).unwrap();
    assert!(net.replay_vm(&alloc).is_err());
    assert_eq!(net.intra_used_mbps(), 0, "the first hop was rolled back");
    net.check_invariants().unwrap();
}
