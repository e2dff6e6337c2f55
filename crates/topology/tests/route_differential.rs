//! Differential test of the compact route tables against the all-pairs
//! reference oracle.
//!
//! `RouteTable` keeps rows only for forwarding nodes and resolves leaf
//! hosts through their attach switch; `FlatRoutes` lays the same table
//! out for the simulators' per-hop lookup. Both must answer exactly as
//! the all-pairs table does — the same ECMP sets in the same order, so
//! every flow-hash pick and every simulated output stays the same — for
//! every builder family, pristine and through a fault script that cuts
//! a host access link, kills and revives a ToR, flaps a mesh channel and
//! kills a host. Each scripted step also pins `patch` against a scratch
//! `degraded` rebuild.

mod oracle;

use oracle::AllPairs;
use quartz_topology::builders::{
    bcube, camcube, dcell_1, dual_tor_mesh, fat_tree, jellyfish, leaf_spine, prototype_quartz,
    prototype_two_tier, quartz_in_core, quartz_in_edge, quartz_in_edge_and_core,
    quartz_in_jellyfish, quartz_mesh, three_tier,
};
use quartz_topology::graph::{LinkId, Network, NodeId};
use quartz_topology::route::{FlatRoutes, RouteChange, RouteTable};

const HASHES: [u64; 6] = [0, 1, 2, 3, 7, u64::MAX];

/// Every builder family at a small size, plus the prototypes and a
/// two-host net with no links.
fn cases() -> Vec<(&'static str, Network)> {
    let mut unreachable = Network::new();
    unreachable.add_host(None);
    unreachable.add_host(None);
    vec![
        ("quartz_mesh", quartz_mesh(5, 3, 10.0, 10.0).net),
        ("dual_tor_mesh", dual_tor_mesh(3, 3, 10.0, 10.0).net),
        ("three_tier", three_tier(2, 2, 2, 2, 10.0, 40.0).net),
        ("fat_tree", fat_tree(4, 10.0).net),
        // Two links per leaf–spine pair: parallel links.
        ("leaf_spine", leaf_spine(3, 2, 2, 2, 10.0).net),
        ("jellyfish", jellyfish(8, 4, 2, 10.0, 10.0, 5).net),
        ("bcube_k0", bcube(3, 0, 10.0).net),
        ("bcube_k1", bcube(3, 1, 10.0).net),
        ("dcell_1", dcell_1(3, 10.0).net),
        ("camcube", camcube(3, 10.0).net),
        ("quartz_in_core", quartz_in_core(2, 2, 2, 3).net),
        ("quartz_in_edge", quartz_in_edge(2, 3, 2, 2).net),
        // A two-switch core ring doubles every edge→core uplink.
        (
            "quartz_in_edge_and_core",
            quartz_in_edge_and_core(2, 4, 2, 2).net,
        ),
        (
            "quartz_in_jellyfish",
            quartz_in_jellyfish(3, 3, 2, 3, 7).net,
        ),
        ("prototype_quartz", prototype_quartz().net),
        ("prototype_two_tier", prototype_two_tier().net),
        ("two_hosts_unreachable", unreachable),
    ]
}

fn ids(net: &Network) -> impl Iterator<Item = NodeId> + Clone {
    (0..net.node_count() as u32).map(NodeId)
}

/// The slot a forwarding decision from `at` takes for an ECMP entry
/// found over live link `own` to neighbor `hop`: the first link between
/// them, in `at`'s adjacency order, while that link is up, and `own`
/// once it is cut (a parallel link carries the traffic).
fn slot_of(
    net: &Network,
    at: NodeId,
    hop: NodeId,
    own: LinkId,
    dead_link: &impl Fn(LinkId) -> bool,
) -> u32 {
    let first = net.link_between(at, hop).expect("next hop is adjacent");
    let l = if dead_link(first) { own } else { first };
    2 * l.0 + u32::from(net.link(l).a != at)
}

/// Every query of `table` (and of its flat form) against `oracle`, at
/// every (at, dst) pair, with `dead_link` the links cut so far.
fn assert_agrees(
    ctx: &str,
    net: &Network,
    table: &RouteTable,
    oracle: &AllPairs,
    dead_link: &impl Fn(LinkId) -> bool,
) {
    let flat = FlatRoutes::new(table, net);
    assert_eq!(table.node_count(), net.node_count(), "{ctx}");
    assert_eq!(flat.node_count(), net.node_count(), "{ctx}");
    for at in ids(net) {
        for dst in ids(net) {
            let want = oracle.next_hops(at, dst);
            assert_eq!(
                table.next_hops(at, dst),
                want,
                "{ctx}: next_hops {at} -> {dst}"
            );
            assert_eq!(
                table.path_len(at, dst),
                oracle.path_len(at, dst),
                "{ctx}: path_len {at} -> {dst}"
            );
            assert_eq!(
                table.a_path(at, dst),
                oracle.a_path(at, dst),
                "{ctx}: a_path {at} -> {dst}"
            );
            for hash in HASHES {
                let entry = oracle.ecmp_entry(at, dst, hash);
                let hop = entry.map(|(h, _)| h);
                assert_eq!(table.ecmp_next(at, dst, hash), hop, "{ctx}: {at} -> {dst}");
                assert_eq!(
                    flat.ecmp_next(at, dst, hash),
                    entry.map(|(h, own)| (h, slot_of(net, at, h, own, dead_link))),
                    "{ctx}: flat {at} -> {dst} hash {hash}"
                );
            }
        }
    }
}

/// The script's targets: a host with a link, its access link, the node
/// on the other end (its ToR, or a relay server), and a channel between
/// two other forwarding nodes.
fn fault_script(net: &Network) -> Vec<RouteChange> {
    let Some(host) = net.hosts().into_iter().find(|&h| net.degree(h) > 0) else {
        return Vec::new();
    };
    let (tor, access) = net.neighbors(host)[0];
    let is_leaf = |v: NodeId| net.node(v).kind.is_host() && net.degree(v) == 1;
    let channel = net
        .links()
        .find(|l| {
            [l.a, l.b]
                .iter()
                .all(|&v| v != host && v != tor && !is_leaf(v))
        })
        .map(|l| l.id);
    let mut script = vec![RouteChange::LinkDown(access), RouteChange::NodeDown(tor)];
    script.extend(channel.map(RouteChange::LinkDown));
    script.push(RouteChange::NodeUp(tor));
    script.extend(channel.map(RouteChange::LinkUp));
    script.extend([
        RouteChange::LinkUp(access),
        RouteChange::NodeDown(host),
        RouteChange::NodeUp(host),
    ]);
    script
}

#[test]
fn compact_tables_match_the_all_pairs_oracle() {
    for (name, net) in cases() {
        let mut table = RouteTable::all_shortest_paths(&net);
        let pristine = AllPairs::degraded(&net, |_| false, |_| false);
        assert_agrees(
            &format!("{name} pristine"),
            &net,
            &table,
            &pristine,
            &|_| false,
        );

        let mut dead_links = vec![false; net.link_count()];
        let mut dead_nodes = vec![false; net.node_count()];
        for change in fault_script(&net) {
            match change {
                RouteChange::LinkDown(l) => dead_links[l.0 as usize] = true,
                RouteChange::LinkUp(l) => dead_links[l.0 as usize] = false,
                RouteChange::NodeDown(x) => dead_nodes[x.0 as usize] = true,
                RouteChange::NodeUp(x) => dead_nodes[x.0 as usize] = false,
            }
            let dead_link = |l: LinkId| dead_links[l.0 as usize];
            let dead_node = |x: NodeId| dead_nodes[x.0 as usize];
            table.patch(&net, change, dead_link, dead_node);
            let scratch = RouteTable::degraded(&net, dead_link, dead_node);
            let ctx = format!("{name} after {change:?}");
            assert_eq!(table, scratch, "{ctx}: patch diverged from scratch rebuild");
            let oracle = AllPairs::degraded(&net, dead_link, dead_node);
            assert_agrees(&ctx, &net, &table, &oracle, &dead_link);
        }
        // Everything recovered: the pristine table again.
        assert_eq!(
            table,
            RouteTable::all_shortest_paths(&net),
            "{name} recovered"
        );
    }
}

#[test]
fn spanning_trees_match_the_oracle_on_the_tree_network() {
    // The tree table routes on `net` with off-tree links dead; the
    // oracle routes on the tree as a network of its own. Paths agree;
    // slots are `net`'s, where the simulator forwards.
    for (name, net) in cases() {
        let Some(root) = net
            .switches()
            .first()
            .copied()
            .or(net.hosts().first().copied())
        else {
            continue;
        };
        let table = RouteTable::spanning_tree(&net, root);
        let tree = oracle::spanning_tree(&net, root);
        let oracle = AllPairs::degraded(&tree, |_| false, |_| false);
        // The tree table's dead links are the off-tree ones; every tree
        // edge is the first link of its pair, so no slot moves.
        assert_agrees(
            &format!("{name} spanning tree"),
            &net,
            &table,
            &oracle,
            &|_| false,
        );
    }
}
