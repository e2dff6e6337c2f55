//! Routing tables: all-shortest-paths ECMP and spanning-tree (L2)
//! forwarding.
//!
//! The paper routes Quartz with ECMP ("since there is a single shortest
//! path between any pair of switches in a full mesh, ECMP always selects
//! the direct one-hop path", §3.4) and uses per-VLAN spanning trees on the
//! prototype (via SPAIN, §6). Valiant load balancing is expressed on top
//! of this table by routing to a chosen intermediate switch first.
//!
//! [`RouteTable`] stores, for every destination, the set of shortest-path
//! next hops at every node — the ECMP DAG. Selection among equal-cost
//! hops is by flow hash, so a flow's packets stay on one path (no
//! reordering), which is how real ECMP behaves.
//!
//! The table is kept over **forwarding nodes** only. A *leaf host* — a
//! host with exactly one link, and that link to a switch — can never
//! relay, so it gets no row and no column: it keeps its attach switch
//! and access link, and queries that involve it resolve through the
//! attach switch (the first hop from a leaf is its switch; the last hop
//! into a leaf is its access link; in between, packets follow the attach
//! switch's ECMP set). Switches, relaying servers (BCube, DCell,
//! CamCube), dual-homed hosts and hosts cabled to hosts are forwarding
//! nodes. §7's composites put thousands of hosts under a few hundred
//! switches, so the table scales with switches², not nodes².

use crate::graph::{LinkId, Network, NodeId};
use std::collections::VecDeque;

/// [`Place::slot`] of a forwarding node.
const FORWARDING: u32 = u32::MAX;
/// [`FlatRoutes`]' slot column for a leaf host that is cut off.
const CUT_OFF: u32 = u32::MAX - 1;

/// Liveness of a leaf host's attachment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Leaf {
    /// Host, access link and attach switch all alive (and always, for
    /// forwarding nodes, which do not use this field).
    Up,
    /// The host is alive but its access link or attach switch is dead:
    /// it reaches only itself.
    CutOff,
    /// The host itself is dead.
    Dead,
}

/// Where a node sits in the forwarding tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Place {
    /// The node itself, so a one-hop answer into a leaf host can be
    /// served as a slice.
    id: NodeId,
    /// Forwarding index of the node, or of a leaf host's attach switch.
    fwd: u32,
    /// Leaf hosts: the directed slot host → attach switch of the access
    /// link. [`FORWARDING`] for forwarding nodes.
    slot: u32,
    /// Leaf hosts: attachment liveness.
    leaf: Leaf,
}

impl Place {
    fn is_leaf(&self) -> bool {
        self.slot != FORWARDING
    }
}

/// Shortest-path next-hop table over every node pair, stored over
/// forwarding nodes (see the module docs).
///
/// # Examples
///
/// ```
/// use quartz_topology::builders::prototype_quartz;
/// use quartz_topology::route::RouteTable;
///
/// // §3.4: in a full mesh, ECMP always picks the single direct hop.
/// let p = prototype_quartz();
/// let table = RouteTable::all_shortest_paths(&p.net);
/// assert_eq!(table.next_hops(p.switches[0], p.switches[3]), &[p.switches[3]]);
/// // A host's only next hop is its switch.
/// assert_eq!(table.next_hops(p.hosts[0], p.hosts[7]), &[p.switches[0]]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteTable {
    /// Per node, in id order.
    place: Vec<Place>,
    /// Forwarding nodes in id order; a forwarding index indexes this.
    fwd: Vec<NodeId>,
    /// `dist[dst * f + at]` in links between forwarding nodes;
    /// `u32::MAX` = unreachable.
    dist: Vec<u32>,
    /// CSR offsets into `hops`/`slots`, `f * f + 1` entries, cell
    /// `dst * f + at`.
    offsets: Vec<u32>,
    /// Concatenated ECMP sets, each in `net.neighbors(at)` order.
    hops: Vec<NodeId>,
    /// Directed link slot (`2 × link + direction`) of each hop.
    slots: Vec<u32>,
}

impl RouteTable {
    /// Builds the full ECMP table with one reverse BFS per forwarding
    /// destination.
    pub fn all_shortest_paths(net: &Network) -> Self {
        Self::degraded(net, |_| false, |_| false)
    }

    /// Builds the ECMP table over the network *minus* failed elements —
    /// the table a converged control plane installs after the failures
    /// in §3.5's model. `dead_link` / `dead_node` mark the casualties; a
    /// dead node implicitly kills every link incident to it, and no
    /// route ever enters or leaves a dead node.
    pub fn degraded(
        net: &Network,
        dead_link: impl Fn(LinkId) -> bool,
        dead_node: impl Fn(NodeId) -> bool,
    ) -> Self {
        let g = FwdGraph::new(net);
        let f = g.fwd.len();
        let cells = f.checked_mul(f).expect("forwarding cells fit usize");
        let mut table = RouteTable {
            place: g.place.clone(),
            fwd: g.fwd.clone(),
            dist: vec![u32::MAX; cells],
            offsets: Vec::with_capacity(cells + 1),
            hops: Vec::new(),
            slots: Vec::new(),
        };
        table.offsets.push(0);
        let mut queue = VecDeque::with_capacity(f);
        for (d, row) in table.dist.chunks_exact_mut(f.max(1)).enumerate() {
            g.fill_row(
                d,
                &dead_link,
                &dead_node,
                row,
                (&mut table.offsets, &mut table.hops, &mut table.slots),
                &mut queue,
            );
        }
        table.refresh_leaves(&dead_link, &dead_node);
        table
    }

    /// Builds a single-path table routed along the BFS spanning tree
    /// rooted at `root` — the behaviour of classic L2 Ethernet, where
    /// "Ethernet creates a single spanning tree … it can only utilize a
    /// small fraction of the links in the network" (§3.4). The table is
    /// `net`'s, with every link off the tree treated as dead.
    pub fn spanning_tree(net: &Network, root: NodeId) -> Self {
        let n = net.node_count();
        let mut in_tree = vec![false; net.link_count()];
        let mut seen = vec![false; n];
        let mut q = VecDeque::new();
        seen[root.0 as usize] = true;
        q.push_back(root);
        while let Some(u) = q.pop_front() {
            for &(v, l) in net.neighbors(u) {
                if !seen[v.0 as usize] {
                    seen[v.0 as usize] = true;
                    in_tree[l.0 as usize] = true;
                    q.push_back(v);
                }
            }
        }
        Self::degraded(net, |l| !in_tree[l.0 as usize], |_| false)
    }

    /// The ECMP set between two forwarding indices.
    fn cell(&self, at: u32, dst: u32) -> &[NodeId] {
        let i = dst as usize * self.fwd.len() + at as usize;
        &self.hops[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Shortest-path length in links, if reachable.
    pub fn path_len(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let (a, d) = (self.place[from.0 as usize], self.place[to.0 as usize]);
        let f = self.fwd.len();
        if from == to {
            let alive = if a.is_leaf() {
                a.leaf != Leaf::Dead
            } else {
                self.dist[a.fwd as usize * f + a.fwd as usize] == 0
            };
            return alive.then_some(0);
        }
        let mut access = 0;
        for p in [a, d] {
            if p.is_leaf() {
                if p.leaf != Leaf::Up {
                    return None;
                }
                access += 1;
            }
        }
        let core = self.dist[d.fwd as usize * f + a.fwd as usize];
        (core != u32::MAX).then_some(core as usize + access)
    }

    /// The ECMP next-hop set at `at` toward `dst` (empty at `dst` itself
    /// or if unreachable).
    pub fn next_hops(&self, at: NodeId, dst: NodeId) -> &[NodeId] {
        if at == dst {
            return &[];
        }
        let (a, d) = (&self.place[at.0 as usize], &self.place[dst.0 as usize]);
        if d.is_leaf() && d.leaf != Leaf::Up {
            return &[];
        }
        if a.is_leaf() {
            // A leaf's only hop is its switch, when `dst` is reachable
            // from there.
            let reach =
                a.leaf == Leaf::Up && (a.fwd == d.fwd || !self.cell(a.fwd, d.fwd).is_empty());
            return if reach {
                std::slice::from_ref(&self.fwd[a.fwd as usize])
            } else {
                &[]
            };
        }
        if d.is_leaf() && a.fwd == d.fwd {
            // The attach switch delivers over the access link.
            return std::slice::from_ref(&d.id);
        }
        self.cell(a.fwd, d.fwd)
    }

    /// Deterministic ECMP selection: pick among the equal-cost next hops
    /// by `flow_hash`, so all packets of a flow take the same path.
    pub fn ecmp_next(&self, at: NodeId, dst: NodeId, flow_hash: u64) -> Option<NodeId> {
        let hops = self.next_hops(at, dst);
        if hops.is_empty() {
            None
        } else {
            Some(hops[(flow_hash % hops.len() as u64) as usize])
        }
    }

    /// One shortest path from `from` to `to` (following ECMP choice 0),
    /// inclusive of both endpoints.
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

    /// Number of nodes in the table.
    pub fn node_count(&self) -> usize {
        self.place.len()
    }

    /// Number of forwarding nodes (the table's rows and columns).
    pub fn forwarding_count(&self) -> usize {
        self.fwd.len()
    }

    /// Heap bytes the table holds.
    pub fn heap_bytes(&self) -> usize {
        heap(&self.place)
            + heap(&self.fwd)
            + heap(&self.dist)
            + heap(&self.offsets)
            + heap(&self.hops)
            + heap(&self.slots)
    }

    /// Incrementally updates the table for one topology `change`,
    /// recomputing only the destinations whose shortest-path DAG the
    /// change can touch. `dead_link` / `dead_node` must describe the
    /// full failure state **after** the change (the same predicates a
    /// from-scratch [`RouteTable::degraded`] would get), and the table
    /// must currently match the pre-change state; the result is then
    /// identical to the full rebuild — the invariant the simulator
    /// `debug_assert`s on every reconvergence and
    /// `incremental_patch_matches_scratch_rebuild` pins.
    ///
    /// A change at a leaf host (its access link, or the host itself)
    /// touches no forwarding destination: only the host's attachment
    /// state changes. Otherwise the affected-destination tests are exact
    /// for links and conservative for nodes:
    ///
    /// * a removed link `(a, b)` only matters for destinations whose
    ///   DAG contains it, i.e. `|dist[a] − dist[b]| == 1` (removing an
    ///   edge on no shortest path changes no distance). Those are also
    ///   exactly the rows whose ECMP sets carry the link's slot, so when
    ///   the cut link is the first of parallel links, every entry that
    ///   named it moves onto a surviving parallel link's own slot;
    /// * a restored link only matters where it shortens a distance or
    ///   adds an equal-cost edge: `dist[a] + 1 <= dist[b]` (or the
    ///   mirror), including the `==` case that only widens the ECMP
    ///   set — and the rows that moved off it as a cut first parallel
    ///   link, which move back;
    /// * a removed node matters for destinations it could reach (it is
    ///   on no path toward any other destination);
    /// * a restored node matters for destinations any of its live
    ///   neighbors can reach (otherwise it remains isolated).
    pub fn patch(
        &mut self,
        net: &Network,
        change: RouteChange,
        dead_link: impl Fn(LinkId) -> bool,
        dead_node: impl Fn(NodeId) -> bool,
    ) {
        let f = self.fwd.len();
        // Forwarding index of `x`, `None` for a leaf host.
        let fwd_of = |x: NodeId| {
            let p = self.place[x.0 as usize];
            (!p.is_leaf()).then_some(p.fwd as usize)
        };
        let dist = |d: usize, x: usize| self.dist[d * f + x];
        let affected: Vec<bool> = match change {
            RouteChange::LinkDown(l) | RouteChange::LinkUp(l) => {
                let link = net.link(l);
                match (fwd_of(link.a), fwd_of(link.b)) {
                    (Some(a), Some(b)) => {
                        let down = matches!(change, RouteChange::LinkDown(_));
                        // A leg into a dead switch stays unusable when
                        // the link itself recovers: nothing to recompute.
                        let dead_leg = dead_node(link.a) || dead_node(link.b);
                        (0..f)
                            .map(|d| {
                                let (da, db) = (dist(d, a), dist(d, b));
                                if down {
                                    da != u32::MAX
                                        && db != u32::MAX
                                        && (da == db + 1 || db == da + 1)
                                } else {
                                    !dead_leg
                                        && ((da != u32::MAX && (db == u32::MAX || da < db))
                                            || (db != u32::MAX && (da == u32::MAX || db < da)))
                                }
                            })
                            .collect()
                    }
                    _ => vec![false; f],
                }
            }
            RouteChange::NodeDown(x) => match fwd_of(x) {
                Some(xi) => (0..f).map(|d| d == xi || dist(d, xi) != u32::MAX).collect(),
                None => vec![false; f],
            },
            RouteChange::NodeUp(x) => match fwd_of(x) {
                Some(xi) => (0..f)
                    .map(|d| {
                        d == xi
                            || net.neighbors(x).iter().any(|&(v, l)| {
                                !dead_link(l)
                                    && !dead_node(v)
                                    && fwd_of(v).is_some_and(|vi| dist(d, vi) != u32::MAX)
                            })
                    })
                    .collect(),
                None => vec![false; f],
            },
        };
        if affected.contains(&true) {
            self.rebuild_rows(net, &affected, &dead_link, &dead_node);
        }
        self.refresh_leaves(&dead_link, &dead_node);
    }

    /// Recomputes the `affected` destination rows and re-packs the CSR,
    /// copying every other row as it stands.
    fn rebuild_rows(
        &mut self,
        net: &Network,
        affected: &[bool],
        dead_link: &impl Fn(LinkId) -> bool,
        dead_node: &impl Fn(NodeId) -> bool,
    ) {
        let g = FwdGraph::new(net);
        debug_assert_eq!(g.fwd, self.fwd, "patch must see the table's network");
        let f = self.fwd.len();
        let mut offsets = Vec::with_capacity(self.offsets.len());
        let mut hops = Vec::with_capacity(self.hops.len());
        let mut slots = Vec::with_capacity(self.slots.len());
        offsets.push(0);
        let mut queue = VecDeque::with_capacity(f);
        for (d, row) in self.dist.chunks_exact_mut(f.max(1)).enumerate() {
            if affected[d] {
                g.fill_row(
                    d,
                    dead_link,
                    dead_node,
                    row,
                    (&mut offsets, &mut hops, &mut slots),
                    &mut queue,
                );
                continue;
            }
            let cells = &self.offsets[d * f..=(d + 1) * f];
            let (lo, hi) = (cells[0] as usize, cells[f] as usize);
            let base = hops.len();
            offsets.extend(
                cells[1..]
                    .iter()
                    .map(|&o| csr_offset(base + o as usize - lo)),
            );
            hops.extend_from_slice(&self.hops[lo..hi]);
            slots.extend_from_slice(&self.slots[lo..hi]);
        }
        self.offsets = offsets;
        self.hops = hops;
        self.slots = slots;
    }

    /// Re-derives every leaf host's attachment state from the failure
    /// predicates.
    fn refresh_leaves(
        &mut self,
        dead_link: &impl Fn(LinkId) -> bool,
        dead_node: &impl Fn(NodeId) -> bool,
    ) {
        for p in self.place.iter_mut().filter(|p| p.is_leaf()) {
            p.leaf = if dead_node(p.id) {
                Leaf::Dead
            } else if dead_link(LinkId(p.slot / 2)) || dead_node(self.fwd[p.fwd as usize]) {
                Leaf::CutOff
            } else {
                Leaf::Up
            };
        }
    }
}

/// One topology delta for [`RouteTable::patch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteChange {
    /// Link `l` failed (both directions).
    LinkDown(LinkId),
    /// Link `l` recovered.
    LinkUp(LinkId),
    /// Node `n` failed (kills every incident link).
    NodeDown(NodeId),
    /// Node `n` recovered.
    NodeUp(NodeId),
}

/// [`RouteTable`] laid out for the per-hop fast path: the table's CSR
/// with each next hop paired with its directed link slot (`slot = 2 ×
/// link + direction` matches the simulator's per-direction link array
/// layout), plus a per-node column that resolves leaf hosts. A
/// forwarding decision is two column loads, two offset loads and one
/// entry load — no nested `Vec` chasing and no adjacency search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatRoutes {
    /// Per node: `(forwarding index of the node or of its attach switch,
    /// slot)`, where slot is the host → switch access slot of a live leaf
    /// host, [`CUT_OFF`] for a cut-off one and [`FORWARDING`] otherwise.
    col: Vec<(u32, u32)>,
    /// Forwarding nodes in id order.
    fwd: Vec<NodeId>,
    /// CSR offsets, `f * f + 1` entries, cell `dst * f + at`.
    offsets: Vec<u32>,
    /// Concatenated ECMP sets, in [`RouteTable::next_hops`] order.
    hops: Vec<(NodeId, u32)>,
}

impl FlatRoutes {
    /// Lays `table` out for forwarding over `net`. The table already
    /// carries every hop's link slot, so this is a copy.
    ///
    /// # Panics
    /// Panics if `table` does not cover `net`'s nodes, and in debug
    /// builds if a hop's slot is not a link of `net` from the node to
    /// that hop.
    pub fn new(table: &RouteTable, net: &Network) -> Self {
        assert_eq!(
            table.node_count(),
            net.node_count(),
            "route table must cover the network"
        );
        debug_assert!(
            table.offsets.windows(2).enumerate().all(|(i, cell)| {
                let at = table.fwd[i % table.fwd.len()];
                (cell[0] as usize..cell[1] as usize).all(|k| {
                    let l = LinkId(table.slots[k] / 2);
                    (l.0 as usize) < net.link_count() && {
                        let link = net.link(l);
                        let ends = if table.slots[k] & 1 == 0 {
                            (link.a, link.b)
                        } else {
                            (link.b, link.a)
                        };
                        ends == (at, table.hops[k])
                    }
                })
            }),
            "route table was built over another network"
        );
        let col = table
            .place
            .iter()
            .map(|p| {
                let slot = if !p.is_leaf() {
                    FORWARDING
                } else if p.leaf == Leaf::Up {
                    p.slot
                } else {
                    CUT_OFF
                };
                (p.fwd, slot)
            })
            .collect();
        FlatRoutes {
            col,
            fwd: table.fwd.clone(),
            offsets: table.offsets.clone(),
            hops: table
                .hops
                .iter()
                .copied()
                .zip(table.slots.iter().copied())
                .collect(),
        }
    }

    /// Deterministic ECMP pick by flow hash — selects the same hop as
    /// [`RouteTable::ecmp_next`] on the source table, plus its directed
    /// link slot. ECMP sets are almost always 1, 2, or 4 wide, where
    /// the modulo reduces to a mask — worth special-casing because this
    /// runs once per hop of every simulated packet.
    // lint:hot
    #[inline]
    pub fn ecmp_next(&self, at: NodeId, dst: NodeId, flow_hash: u64) -> Option<(NodeId, u32)> {
        let (af, aslot) = self.col[at.0 as usize];
        let (df, dslot) = self.col[dst.0 as usize];
        if dslot == CUT_OFF {
            return None;
        }
        let i = df as usize * self.fwd.len() + af as usize;
        if aslot != FORWARDING {
            // A leaf host's one hop is its switch, when `dst` is
            // reachable from there.
            let reach = af == df || self.offsets[i] != self.offsets[i + 1];
            return (aslot != CUT_OFF && at != dst && reach)
                .then(|| (self.fwd[af as usize], aslot));
        }
        if dslot != FORWARDING && af == df {
            // The attach switch delivers over the access link.
            return Some((dst, dslot ^ 1));
        }
        let hops = &self.hops[self.offsets[i] as usize..self.offsets[i + 1] as usize];
        let idx = match hops.len() {
            0 => return None,
            1 => 0,
            2 => (flow_hash & 1) as usize,
            4 => (flow_hash & 3) as usize,
            n => (flow_hash % n as u64) as usize,
        };
        Some(hops[idx])
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.col.len()
    }

    /// Heap bytes the flattened table holds.
    pub fn heap_bytes(&self) -> usize {
        heap(&self.col) + heap(&self.fwd) + heap(&self.offsets) + heap(&self.hops)
    }
}

/// A CSR offset: hop counts must fit `u32`, checked in release builds
/// too — a wrapped offset would silently route packets wrongly.
fn csr_offset(len: usize) -> u32 {
    u32::try_from(len).expect("route entries overflow the u32 CSR offsets")
}

/// Bytes `v` has allocated.
fn heap<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// The directed slot of link `l` leaving `from`.
fn slot(net: &Network, l: LinkId, from: NodeId) -> u32 {
    2 * l.0 + u32::from(net.link(l).a != from)
}

/// One directed edge of the forwarding graph.
#[derive(Clone, Copy, Debug)]
struct Edge {
    /// Forwarding index of the neighbor.
    to: u32,
    link: LinkId,
    /// Directed slot of the *first* link from the tail to `to` — the
    /// link a forwarding decision toward that neighbor takes while it
    /// is up, also when parallel links join the pair.
    first: u32,
    /// Directed slot of `link` itself: taken instead of `first` once
    /// the first link is dead, so a reconverged table never forwards
    /// onto a cut link while a parallel one is alive.
    own: u32,
}

/// The forwarding nodes of a network, their adjacency in
/// `net.neighbors` order, and every node's [`Place`].
struct FwdGraph {
    place: Vec<Place>,
    fwd: Vec<NodeId>,
    /// CSR offsets into `edges`, one run per forwarding node.
    edge_off: Vec<usize>,
    edges: Vec<Edge>,
}

impl FwdGraph {
    fn new(net: &Network) -> Self {
        let n = net.node_count();
        assert!(
            u32::try_from(2 * net.link_count()).is_ok_and(|s| s < CUT_OFF),
            "directed link slots fit u32"
        );
        let attach_of = |v: NodeId| match net.neighbors(v) {
            [(s, l)] if net.node(v).kind.is_host() && net.node(*s).kind.is_switch() => {
                Some((*s, *l))
            }
            _ => None,
        };
        let mut index = vec![u32::MAX; n];
        let mut fwd = Vec::new();
        for node in net.nodes() {
            if attach_of(node.id).is_none() {
                index[node.id.0 as usize] =
                    u32::try_from(fwd.len()).expect("forwarding indices fit u32");
                fwd.push(node.id);
            }
        }
        let place = net
            .nodes()
            .map(|node| match attach_of(node.id) {
                Some((s, l)) => Place {
                    id: node.id,
                    fwd: index[s.0 as usize],
                    slot: slot(net, l, node.id),
                    leaf: Leaf::Up,
                },
                None => Place {
                    id: node.id,
                    fwd: index[node.id.0 as usize],
                    slot: FORWARDING,
                    leaf: Leaf::Up,
                },
            })
            .collect();
        // `first[v]` = slot of the first link from the current tail to
        // `v`, valid while `owner[v]` names that tail.
        let mut owner = vec![u32::MAX; n];
        let mut first = vec![0u32; n];
        let mut edge_off = Vec::with_capacity(fwd.len() + 1);
        let mut edges = Vec::new();
        edge_off.push(0);
        for &u in &fwd {
            for &(v, l) in net.neighbors(u) {
                let to = index[v.0 as usize];
                if to == u32::MAX {
                    continue; // a leaf host: never a relay
                }
                let vi = v.0 as usize;
                if owner[vi] != index[u.0 as usize] {
                    owner[vi] = index[u.0 as usize];
                    first[vi] = slot(net, l, u);
                }
                edges.push(Edge {
                    to,
                    link: l,
                    first: first[vi],
                    own: slot(net, l, u),
                });
            }
            edge_off.push(edges.len());
        }
        FwdGraph {
            place,
            fwd,
            edge_off,
            edges,
        }
    }

    fn edges(&self, u: usize) -> &[Edge] {
        &self.edges[self.edge_off[u]..self.edge_off[u + 1]]
    }

    /// Reverse BFS from forwarding destination `d` over the surviving
    /// graph: writes the distances into `dist` and appends the row's
    /// ECMP sets (one per forwarding `at`, in index order) to the CSR.
    fn fill_row(
        &self,
        d: usize,
        dead_link: &impl Fn(LinkId) -> bool,
        dead_node: &impl Fn(NodeId) -> bool,
        dist: &mut [u32],
        (offsets, hops, slots): (&mut Vec<u32>, &mut Vec<NodeId>, &mut Vec<u32>),
        queue: &mut VecDeque<usize>,
    ) {
        dist.fill(u32::MAX);
        let live = |e: &Edge| !dead_link(e.link) && !dead_node(self.fwd[e.to as usize]);
        if !dead_node(self.fwd[d]) {
            dist[d] = 0;
            queue.push_back(d);
        }
        while let Some(u) = queue.pop_front() {
            for e in self.edges(u).iter().filter(|e| live(e)) {
                if dist[e.to as usize] == u32::MAX {
                    dist[e.to as usize] = dist[u] + 1;
                    queue.push_back(e.to as usize);
                }
            }
        }
        for (u, &du) in dist.iter().enumerate() {
            if du != u32::MAX && du != 0 {
                for e in self.edges(u).iter().filter(|e| live(e)) {
                    if dist[e.to as usize].wrapping_add(1) == du {
                        hops.push(self.fwd[e.to as usize]);
                        // `e` is live, so `own` always is; `first` only
                        // while no fault has cut it.
                        let first_dead = dead_link(LinkId(e.first / 2));
                        slots.push(if first_dead { e.own } else { e.first });
                    }
                }
            }
            offsets.push(csr_offset(hops.len()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{
        bcube, prototype_quartz, prototype_two_tier, quartz_in_core, three_tier,
    };
    use crate::graph::SwitchRole;

    #[test]
    fn mesh_ecmp_always_direct() {
        // §3.4: in a full mesh ECMP always selects the one-hop path.
        let p = prototype_quartz();
        let t = RouteTable::all_shortest_paths(&p.net);
        for &a in &p.switches {
            for &b in &p.switches {
                if a != b {
                    assert_eq!(t.next_hops(a, b), &[b]);
                }
            }
        }
    }

    #[test]
    fn tree_paths_go_through_root() {
        let p = prototype_two_tier();
        let t = RouteTable::all_shortest_paths(&p.net);
        let path = t.a_path(p.hosts[0], p.hosts[2]).unwrap();
        assert_eq!(path.len(), 5); // h, tor, root, tor, h
        assert_eq!(path[2], p.switches[0]);
    }

    #[test]
    fn ecmp_spreads_across_equal_paths_deterministically() {
        let t3 = three_tier(2, 2, 1, 2, 10.0, 40.0);
        let table = RouteTable::all_shortest_paths(&t3.net);
        // From a ToR toward a core-adjacent destination there are two agg
        // choices; different hashes may differ, same hash never does.
        let tor = t3.tors[0];
        let far_host = *t3.hosts.last().unwrap();
        let h1 = table.ecmp_next(tor, far_host, 1).unwrap();
        let h1b = table.ecmp_next(tor, far_host, 1).unwrap();
        assert_eq!(h1, h1b);
        let hops = table.next_hops(tor, far_host);
        assert!(!hops.is_empty() && hops.len() <= 2);
    }

    #[test]
    fn path_len_matches_a_path() {
        let t3 = three_tier(3, 2, 2, 2, 10.0, 40.0);
        let table = RouteTable::all_shortest_paths(&t3.net);
        for &a in t3.hosts.iter().take(4) {
            for &b in t3.hosts.iter().rev().take(4) {
                if a == b {
                    continue;
                }
                let p = table.a_path(a, b).unwrap();
                assert_eq!(p.len() - 1, table.path_len(a, b).unwrap());
            }
        }
    }

    #[test]
    fn degraded_table_detours_around_a_cut_link() {
        // Cut the direct S0↔S3 channel of the prototype mesh: ECMP must
        // fall back to the two-hop detours through S1/S2 (§3.5).
        let p = prototype_quartz();
        let cut = p.net.link_between(p.switches[0], p.switches[3]).unwrap();
        let t = RouteTable::degraded(&p.net, |l| l == cut, |_| false);
        assert_eq!(t.path_len(p.switches[0], p.switches[3]), Some(2));
        let hops = t.next_hops(p.switches[0], p.switches[3]);
        assert_eq!(hops.len(), 2, "{hops:?}");
        assert!(!hops.contains(&p.switches[3]));
        // Untouched pairs keep their direct hop.
        assert_eq!(t.next_hops(p.switches[0], p.switches[1]), &[p.switches[1]]);
    }

    #[test]
    fn degraded_table_excludes_a_dead_switch() {
        let p = prototype_quartz();
        let dead = p.switches[2];
        let t = RouteTable::degraded(&p.net, |_| false, |n| n == dead);
        // No route enters, leaves, or targets the dead switch.
        for &s in &p.switches {
            if s != dead {
                assert_eq!(t.path_len(s, dead), None);
                assert!(!t.next_hops(s, p.hosts[0]).contains(&dead));
            }
        }
        // Its hosts are cut off; everyone else still talks.
        let orphan = p.hosts[4]; // hosts 4,5 hang off switch 2
        assert_eq!(t.path_len(p.hosts[0], orphan), None);
        assert_eq!(t.path_len(p.hosts[0], p.hosts[7]), Some(3));
    }

    #[test]
    fn unreachable_is_none() {
        let mut net = Network::new();
        let a = net.add_host(None);
        let b = net.add_host(None);
        let t = RouteTable::all_shortest_paths(&net);
        assert_eq!(t.path_len(a, b), None);
        assert_eq!(t.ecmp_next(a, b, 0), None);
    }

    #[test]
    fn spanning_tree_uses_single_paths() {
        let p = prototype_quartz();
        // Root the tree at S1: S2↔S3 traffic must detour via S1 even
        // though a direct mesh link exists.
        let t = RouteTable::spanning_tree(&p.net, p.switches[0]);
        let path = t.a_path(p.switches[1], p.switches[2]).unwrap();
        assert!(path.contains(&p.switches[0]), "path {path:?} skips root");
        // Every pair still reachable.
        for &a in &p.hosts {
            for &b in &p.hosts {
                if a != b {
                    assert!(t.path_len(a, b).is_some());
                }
            }
        }
    }

    #[test]
    fn spanning_tree_stretches_mesh_paths() {
        // On the Quartz mesh, STP forfeits the direct links: §3.4's
        // argument for ECMP over plain Ethernet.
        let p = prototype_quartz();
        let ecmp = RouteTable::all_shortest_paths(&p.net);
        let stp = RouteTable::spanning_tree(&p.net, p.switches[0]);
        let mut longer = 0;
        for &a in &p.hosts {
            for &b in &p.hosts {
                if a == b {
                    continue;
                }
                let e = ecmp.path_len(a, b).unwrap();
                let s = stp.path_len(a, b).unwrap();
                assert!(s >= e);
                if s > e {
                    longer += 1;
                }
            }
        }
        assert!(longer > 0, "expected some stretched STP paths");
    }

    #[test]
    fn flat_routes_agree_with_the_table() {
        let t3 = three_tier(3, 2, 2, 2, 10.0, 40.0);
        let table = RouteTable::all_shortest_paths(&t3.net);
        let flat = FlatRoutes::new(&table, &t3.net);
        assert_eq!(flat.node_count(), table.node_count());
        let n = t3.net.node_count() as u32;
        for a in 0..n {
            for b in 0..n {
                let (at, dst) = (NodeId(a), NodeId(b));
                for hash in [0u64, 1, 7, u64::MAX] {
                    let picked = flat.ecmp_next(at, dst, hash);
                    assert_eq!(picked.map(|(h, _)| h), table.ecmp_next(at, dst, hash));
                    if let Some((hop, slot)) = picked {
                        let l = t3.net.link_between(at, hop).unwrap();
                        let dir = u32::from(t3.net.link(l).a != at);
                        assert_eq!(slot, 2 * l.0 + dir);
                    }
                }
            }
        }
    }

    #[test]
    fn leaf_hosts_collapse_onto_their_switch() {
        // Three-tier hosts hang off one ToR each: only switches keep rows.
        let t3 = three_tier(3, 2, 2, 2, 10.0, 40.0);
        let table = RouteTable::all_shortest_paths(&t3.net);
        assert_eq!(table.forwarding_count(), t3.net.switches().len());
        // BCube servers relay, so every node keeps its row there.
        let b = bcube(2, 1, 10.0);
        let table = RouteTable::all_shortest_paths(&b.net);
        assert_eq!(table.forwarding_count(), b.net.node_count());
    }

    #[test]
    fn quartz_in_core_routes_match_closed_form() {
        // §7 Quartz in the core: host→host is 2 links under one ToR, 4
        // within a pod (via either aggregation switch) and 6 across pods
        // (ToR → 2 aggs → m core switches → agg → ToR).
        let (t, p, h, m) = (4, 3, 2, 5);
        let c = quartz_in_core(t, p, h, m);
        let table = RouteTable::all_shortest_paths(&c.net);
        let tor_of = |i: usize| i / h;
        let pod_of = |i: usize| i / (t * h);
        for (i, &a) in c.hosts.iter().enumerate() {
            for (j, &b) in c.hosts.iter().enumerate() {
                let want = if i == j {
                    0
                } else if tor_of(i) == tor_of(j) {
                    2
                } else if pod_of(i) == pod_of(j) {
                    4
                } else {
                    6
                };
                assert_eq!(table.path_len(a, b), Some(want), "{a} -> {b}");
            }
        }
        let (tor, far_host) = (c.edges[0], *c.hosts.last().unwrap());
        let aggs = table.next_hops(tor, far_host);
        assert_eq!(aggs.len(), 2);
        for &agg in aggs {
            assert_eq!(table.next_hops(agg, far_host), &c.uppers[..]);
        }
    }

    #[test]
    fn quartz_in_core_route_entries_are_pinned() {
        // The composite benchmark's `topology.route_entries`: Σ of ECMP
        // set sizes over all node pairs of quartz_in_core(16, 16, 8, 8).
        let c = quartz_in_core(16, 16, 8, 8);
        let table = RouteTable::all_shortest_paths(&c.net);
        let n = c.net.node_count() as u32;
        let entries: usize = (0..n)
            .flat_map(|a| (0..n).map(move |b| (NodeId(a), NodeId(b))))
            .map(|(a, b)| table.next_hops(a, b).len())
            .sum();
        assert_eq!(entries, 6_598_968);
    }

    #[test]
    #[should_panic(expected = "overflow the u32 CSR offsets")]
    fn csr_offsets_refuse_to_wrap() {
        assert_eq!(csr_offset(u32::MAX as usize), u32::MAX);
        csr_offset(u32::MAX as usize + 1);
    }

    /// Drives `patch` through a fault/recovery script and cross-checks
    /// every step against a from-scratch `degraded` build.
    #[test]
    fn patch_matches_scratch_rebuild_through_a_fault_script() {
        let p = prototype_quartz();
        let l01 = p.net.link_between(p.switches[0], p.switches[1]).unwrap();
        let l23 = p.net.link_between(p.switches[2], p.switches[3]).unwrap();
        let script = [
            RouteChange::LinkDown(l01),
            RouteChange::NodeDown(p.switches[2]),
            RouteChange::LinkDown(l23), // already implicitly dead leg
            RouteChange::LinkUp(l01),
            RouteChange::NodeUp(p.switches[2]),
            RouteChange::LinkUp(l23),
        ];
        let mut dead_links = vec![false; p.net.link_count()];
        let mut dead_nodes = vec![false; p.net.node_count()];
        let mut table = RouteTable::all_shortest_paths(&p.net);
        for change in script {
            match change {
                RouteChange::LinkDown(l) => dead_links[l.0 as usize] = true,
                RouteChange::LinkUp(l) => dead_links[l.0 as usize] = false,
                RouteChange::NodeDown(x) => dead_nodes[x.0 as usize] = true,
                RouteChange::NodeUp(x) => dead_nodes[x.0 as usize] = false,
            }
            let (dl, dn) = (&dead_links, &dead_nodes);
            table.patch(&p.net, change, |l| dl[l.0 as usize], |x| dn[x.0 as usize]);
            let scratch = RouteTable::degraded(&p.net, |l| dl[l.0 as usize], |x| dn[x.0 as usize]);
            assert_eq!(table, scratch, "diverged after {change:?}");
        }
        // Everything recovered: back to the pristine table.
        assert_eq!(table, RouteTable::all_shortest_paths(&p.net));
    }

    #[test]
    fn patch_handles_equal_cost_set_changes_on_recovery() {
        // Three-tier has real ECMP fan-out; flapping an agg→core link
        // must restore the exact equal-cost sets, not just distances.
        let t3 = three_tier(2, 2, 2, 2, 10.0, 40.0);
        let mut table = RouteTable::all_shortest_paths(&t3.net);
        let agg_core = t3
            .net
            .links()
            .find(|l| t3.cores.contains(&l.a) || t3.cores.contains(&l.b))
            .map(|l| l.id)
            .unwrap();
        for change in [
            RouteChange::LinkDown(agg_core),
            RouteChange::LinkUp(agg_core),
        ] {
            let dead = matches!(change, RouteChange::LinkDown(_));
            table.patch(&t3.net, change, |l| dead && l == agg_core, |_| false);
            let scratch = RouteTable::degraded(&t3.net, |l| dead && l == agg_core, |_| false);
            assert_eq!(table, scratch, "diverged after {change:?}");
        }
    }

    #[test]
    fn spanning_tree_on_three_tier_never_shortens() {
        let t3 = three_tier(2, 2, 1, 2, 10.0, 40.0);
        let ecmp = RouteTable::all_shortest_paths(&t3.net);
        let stp = RouteTable::spanning_tree(&t3.net, t3.cores[0]);
        for &a in &t3.hosts {
            for &b in &t3.hosts {
                if a != b {
                    assert!(stp.path_len(a, b).unwrap() >= ecmp.path_len(a, b).unwrap());
                }
            }
        }
        let _ = SwitchRole::Core;
    }
}
