//! Property-based tests of graph algorithms: topological order, critical
//! path, and max-flow/min-cut against brute force.

use ntc_check::prelude::*;

use ntc_simcore::rng::RngStream;
use ntc_simcore::units::SimDuration;
use ntc_taskgraph::{random_layered_dag, ComponentId, FlowNetwork, RandomDagConfig};

/// Brute-force minimum s-t cut by enumerating all node bipartitions.
fn brute_force_min_cut(n: usize, edges: &[(usize, usize, u64)], s: usize, t: usize) -> u64 {
    let mut best = u64::MAX;
    for mask in 0u32..(1 << n) {
        if mask & (1 << s) == 0 || mask & (1 << t) != 0 {
            continue; // source must be on the source side, sink must not
        }
        let cut: u64 = edges
            .iter()
            .filter(|&&(u, v, _)| mask & (1 << u) != 0 && mask & (1 << v) == 0)
            .map(|&(_, _, c)| c)
            .sum();
        best = best.min(cut);
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Dinic's max flow equals the brute-force minimum cut
    /// (max-flow/min-cut duality) on small random networks.
    #[test]
    fn max_flow_equals_brute_force_min_cut(
        n in 3usize..8,
        edge_seeds in prop::collection::vec((0usize..8, 0usize..8, 1u64..50), 1..20),
    ) {
        let edges: Vec<(usize, usize, u64)> = edge_seeds
            .into_iter()
            .map(|(u, v, c)| (u % n, v % n, c))
            .filter(|&(u, v, _)| u != v)
            .collect();
        prop_assume!(!edges.is_empty());
        let mut net = FlowNetwork::new(n);
        for &(u, v, c) in &edges {
            net.add_edge(u, v, c);
        }
        let flow = net.max_flow(0, n - 1);
        let brute = brute_force_min_cut(n, &edges, 0, n - 1);
        prop_assert_eq!(flow, brute);

        // The reported cut side must be consistent: s in, t out, and the
        // crossing capacity equals the flow.
        let side = net.min_cut_source_side(0);
        prop_assert!(side[0] && !side[n - 1]);
        let crossing: u64 = edges
            .iter()
            .filter(|&&(u, v, _)| side[u] && !side[v])
            .map(|&(_, _, c)| c)
            .sum();
        prop_assert_eq!(crossing, flow);
    }

    /// Topological order puts every edge forward, and the critical path is
    /// at least as long as any single component's time and at most the sum.
    #[test]
    fn topo_and_critical_path_are_consistent(seed in 0u64..5_000, nodes in 2usize..25) {
        let layers = (nodes / 2).clamp(2, 5).min(nodes);
        let cfg = RandomDagConfig { nodes, layers, ..Default::default() };
        let g = random_layered_dag(&mut RngStream::root(seed).derive("prop"), &cfg);

        let order = g.topo_order();
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        for f in g.flows() {
            prop_assert!(pos[&f.from] < pos[&f.to], "edge goes backwards in topo order");
        }

        let node_time = |id: ntc_taskgraph::ComponentId| {
            SimDuration::from_micros(1 + id.index() as u64 * 7)
        };
        let (len, path) = g.critical_path(node_time, |_| SimDuration::from_micros(3));
        let max_single = g.ids().map(node_time).max().unwrap();
        let total: SimDuration = g.ids().map(node_time).sum();
        let edge_total = SimDuration::from_micros(3 * g.flows().len() as u64);
        prop_assert!(len >= max_single);
        prop_assert!(len <= total + edge_total);
        prop_assert!(!path.is_empty());
        // The path itself is a real chain in the graph.
        for w in path.windows(2) {
            prop_assert!(g.successors(w[0]).any(|s| s == w[1]), "path edge missing");
        }
    }
}

proptest! {
    /// A component id, as an RNG key, spells exactly its `Display`,
    /// `c{n}`: alone and inside the engine's `{first}-{comp}` key.
    #[test]
    fn component_ids_spell_their_display(
        seed in any::<u64>(),
        index in 0u32..=u32::MAX,
        first in any::<u64>(),
    ) {
        let (root, id) = (RngStream::root(seed), ComponentId::from_index(index as usize));
        prop_assert_eq!(root.derive(id).next_u64(), root.derive(id.to_string()).next_u64());
        let label = format!("{first}-{id}");
        prop_assert_eq!(root.derive((first, "-", id)).next_u64(), root.derive(&label).next_u64());
    }
}
