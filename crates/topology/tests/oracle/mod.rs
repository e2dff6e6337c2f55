//! Reference oracle for the route tables: the all-pairs builder, one
//! reverse BFS per destination over every node, with a nested next-hop
//! set for every (node, destination) pair. Quadratic in nodes, so it
//! lives only here, where it pins the compact tables' answers.

use quartz_topology::graph::{LinkId, Network, NodeId};
use std::collections::VecDeque;

/// All-pairs distances and ECMP sets.
pub struct AllPairs {
    /// `dist[dst][node]` in links; `u32::MAX` = unreachable.
    dist: Vec<Vec<u32>>,
    /// `next[dst][node]` = shortest-path next hops from `node` toward
    /// `dst`, in `net.neighbors(node)` order.
    next: Vec<Vec<Vec<NodeId>>>,
    /// `links[dst][node][i]` = the link entry `next[dst][node][i]`
    /// came from (one entry per live parallel link).
    links: Vec<Vec<Vec<LinkId>>>,
}

impl AllPairs {
    /// The table over `net` minus the dead links and nodes (a dead node
    /// kills its links; nothing routes into, out of or toward it).
    pub fn degraded(
        net: &Network,
        dead_link: impl Fn(LinkId) -> bool,
        dead_node: impl Fn(NodeId) -> bool,
    ) -> Self {
        let n = net.node_count();
        let mut dist = Vec::with_capacity(n);
        let mut next = Vec::with_capacity(n);
        let mut links = Vec::with_capacity(n);
        for d in 0..n {
            let dst = NodeId(d as u32);
            if dead_node(dst) {
                dist.push(vec![u32::MAX; n]);
                next.push(vec![Vec::new(); n]);
                links.push(vec![Vec::new(); n]);
                continue;
            }
            let (dv, nv, lv) = bfs_to(net, dst, &dead_link, &dead_node);
            dist.push(dv);
            next.push(nv);
            links.push(lv);
        }
        AllPairs { dist, next, links }
    }

    /// Shortest-path length in links, if reachable.
    pub fn path_len(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let d = self.dist[to.0 as usize][from.0 as usize];
        (d != u32::MAX).then_some(d as usize)
    }

    /// The ECMP set at `at` toward `dst`.
    pub fn next_hops(&self, at: NodeId, dst: NodeId) -> &[NodeId] {
        &self.next[dst.0 as usize][at.0 as usize]
    }

    /// Entry `flow_hash mod |set|` of the ECMP set: the hop and the
    /// live link it was found over.
    pub fn ecmp_entry(&self, at: NodeId, dst: NodeId, flow_hash: u64) -> Option<(NodeId, LinkId)> {
        let hops = self.next_hops(at, dst);
        let links = &self.links[dst.0 as usize][at.0 as usize];
        let i = (flow_hash % hops.len().max(1) as u64) as usize;
        (!hops.is_empty()).then(|| (hops[i], links[i]))
    }

    /// One shortest path following ECMP choice 0, both ends included.
    pub fn a_path(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        self.path_len(from, to)?;
        let mut path = vec![from];
        let mut cur = from;
        while cur != to {
            cur = *self.next_hops(cur, to).first()?;
            path.push(cur);
        }
        Some(path)
    }
}

/// Reverse BFS from `dst` over the surviving graph.
fn bfs_to(
    net: &Network,
    dst: NodeId,
    dead_link: &impl Fn(LinkId) -> bool,
    dead_node: &impl Fn(NodeId) -> bool,
) -> (Vec<u32>, Vec<Vec<NodeId>>, Vec<Vec<LinkId>>) {
    let n = net.node_count();
    let mut dist = vec![u32::MAX; n];
    let mut q = VecDeque::new();
    dist[dst.0 as usize] = 0;
    q.push_back(dst);
    while let Some(u) = q.pop_front() {
        for &(v, l) in net.neighbors(u) {
            if dead_link(l) || dead_node(v) {
                continue;
            }
            if dist[v.0 as usize] == u32::MAX {
                dist[v.0 as usize] = dist[u.0 as usize] + 1;
                q.push_back(v);
            }
        }
    }
    let mut next = vec![Vec::new(); n];
    let mut links = vec![Vec::new(); n];
    for u in 0..n {
        if dist[u] == u32::MAX || dist[u] == 0 || dead_node(NodeId(u as u32)) {
            continue;
        }
        for &(v, l) in net.neighbors(NodeId(u as u32)) {
            if dead_link(l) || dead_node(v) {
                continue;
            }
            if dist[v.0 as usize] + 1 == dist[u] {
                next[u].push(v);
                links[u].push(l);
            }
        }
    }
    (dist, next, links)
}

/// The BFS spanning tree of `net` rooted at `root` as a network of its
/// own: the same nodes, one link from every reached node to its parent.
pub fn spanning_tree(net: &Network, root: NodeId) -> Network {
    let n = net.node_count();
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut q = VecDeque::new();
    seen[root.0 as usize] = true;
    q.push_back(root);
    while let Some(u) = q.pop_front() {
        for &(v, _) in net.neighbors(u) {
            if !seen[v.0 as usize] {
                seen[v.0 as usize] = true;
                parent[v.0 as usize] = Some(u);
                q.push_back(v);
            }
        }
    }
    let mut tree = Network::new();
    for node in net.nodes() {
        match node.kind {
            quartz_topology::graph::NodeKind::Host => tree.add_host(node.rack),
            quartz_topology::graph::NodeKind::Switch(r) => tree.add_switch(r, node.rack),
        };
    }
    for (v, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            tree.connect(NodeId(v as u32), *p, 1.0);
        }
    }
    tree
}
