//! The immutable query DAG and its structural queries.

use std::collections::BTreeSet;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ir::{Node, NodeId, OpKind};

/// A frozen query plan: an arena of [`Node`]s plus the set of root (output)
/// nodes. Construct one with [`crate::DagBuilder`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryDag {
    nodes: Vec<Node>,
    roots: Vec<NodeId>,
    /// `consumers[id]` lists the nodes that take `id` as an input, in id
    /// order. Computed once at freeze time.
    consumers: Vec<Vec<NodeId>>,
}

impl QueryDag {
    /// Builds a DAG from an arena and root list, computing consumer lists.
    /// Callers normally go through [`crate::DagBuilder::finish`].
    pub fn new(nodes: Vec<Node>, roots: Vec<NodeId>) -> Self {
        let mut consumers = vec![Vec::new(); nodes.len()];
        for node in &nodes {
            for &input in &node.inputs {
                consumers[input].push(node.id);
            }
        }
        QueryDag {
            nodes,
            roots,
            consumers,
        }
    }

    /// All nodes, in arena (and therefore topological) order: every node's
    /// inputs have smaller ids because the builder only references existing
    /// nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Root (output) node ids.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Nodes that consume `id`'s output.
    pub fn consumers(&self, id: NodeId) -> &[NodeId] {
        &self.consumers[id]
    }

    /// Fan-out of a node counting root-ness: a root's output is consumed by
    /// the user even if no other operator reads it.
    pub fn fanout(&self, id: NodeId) -> usize {
        self.consumers[id].len() + usize::from(self.roots.contains(&id))
    }

    /// `true` if the node's output must be materialized because more than
    /// one consumer (or a consumer plus the user) reads it — the paper's
    /// *materialization point* (§4.1, termination-operator class 1).
    pub fn is_materialization_point(&self, id: NodeId) -> bool {
        self.fanout(id) > 1
    }

    /// Ids of all matrix-multiplication nodes, ascending.
    pub fn matmuls(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind.is_matmul())
            .map(|n| n.id)
            .collect()
    }

    /// Undirected adjacency of a *set* of operators: all operators adjacent
    /// to any member, excluding members themselves. When `exclude_outgoing`
    /// is set, consumers of the set are omitted (the paper's
    /// `adjacent(F, top)` with `top = true`).
    pub fn adjacent_of_set(&self, set: &BTreeSet<NodeId>, exclude_outgoing: bool) -> Vec<NodeId> {
        let mut out = BTreeSet::new();
        for &id in set {
            for &input in &self.nodes[id].inputs {
                if !self.nodes[input].kind.is_leaf() && !set.contains(&input) {
                    out.insert(input);
                }
            }
            if !exclude_outgoing {
                for &c in &self.consumers[id] {
                    if !set.contains(&c) {
                        out.insert(c);
                    }
                }
            }
        }
        out.into_iter().collect()
    }

    /// All operators reachable from `id` through input edges while staying
    /// inside `within` (inclusive of `id`). Used when splitting a fusion
    /// plan: a split point takes its in-plan descendants with it (§4.2).
    pub fn descendants_within(&self, id: NodeId, within: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if !within.contains(&n) || !seen.insert(n) {
                continue;
            }
            for &input in &self.nodes[n].inputs {
                if within.contains(&input) {
                    stack.push(input);
                }
            }
        }
        seen
    }

    /// Minimum hop distance between two nodes treating edges as undirected,
    /// or `None` if disconnected. The exploitation phase sorts split
    /// candidates by distance from the main matmul (Algorithm 3, line 7).
    pub fn distance(&self, a: NodeId, b: NodeId) -> Option<usize> {
        if a == b {
            return Some(0);
        }
        let mut dist = vec![usize::MAX; self.nodes.len()];
        dist[a] = 0;
        let mut queue = std::collections::VecDeque::from([a]);
        while let Some(n) = queue.pop_front() {
            let d = dist[n] + 1;
            let neighbors = self.nodes[n].inputs.iter().chain(self.consumers[n].iter());
            for &m in neighbors {
                if dist[m] == usize::MAX {
                    dist[m] = d;
                    if m == b {
                        return Some(d);
                    }
                    queue.push_back(m);
                }
            }
        }
        None
    }

    /// Validates structural invariants (topological ids, arity, root
    /// existence). Builder-produced DAGs always pass; this guards DAGs
    /// arriving from the language frontend or deserialization.
    pub fn validate(&self) -> Result<(), String> {
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id != i {
                return Err(format!("node {i} has mismatched id {}", n.id));
            }
            for &input in &n.inputs {
                if input >= i {
                    return Err(format!("node {i} references non-prior input {input}"));
                }
            }
            let arity = n.inputs.len();
            let expected = match n.kind {
                OpKind::Input { .. } | OpKind::Scalar(_) => 0,
                OpKind::Unary(_)
                | OpKind::Transpose
                | OpKind::FullAgg(_)
                | OpKind::RowAgg(_)
                | OpKind::ColAgg(_) => 1,
                OpKind::Binary(_) | OpKind::MatMul => 2,
            };
            if arity != expected {
                return Err(format!(
                    "node {i} ({}) has arity {arity}, expected {expected}",
                    n.kind.label()
                ));
            }
        }
        if self.roots.is_empty() {
            return Err("DAG has no roots".into());
        }
        for &r in &self.roots {
            if r >= self.nodes.len() {
                return Err(format!("root {r} out of range"));
            }
        }
        Ok(())
    }
}

impl fmt::Display for QueryDag {
    /// Renders the DAG one node per line, e.g. `3: b(*) <- [0, 2]  [100x100 d=0.10]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for n in &self.nodes {
            let root_mark = if self.roots.contains(&n.id) {
                " (root)"
            } else {
                ""
            };
            writeln!(
                f,
                "{}: {} <- {:?}  [{}x{} d={:.3}]{root_mark}",
                n.id,
                n.kind.label(),
                n.inputs,
                n.meta.shape.rows,
                n.meta.shape.cols,
                n.meta.density,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
    use fuseme_matrix::{BinOp, MatrixMeta};

    /// `(X * (U ×(Vᵀ))) / (Vᵀ × V × U)`-shaped fixture: returns (dag, ids of
    /// interest).
    fn gnmf_like() -> QueryDag {
        let mut b = DagBuilder::new();
        let x = b.input("X", MatrixMeta::sparse(40, 40, 10, 0.05));
        let u = b.input("U", MatrixMeta::dense(40, 4, 10));
        let v = b.input("V", MatrixMeta::dense(40, 4, 10));
        let vt = b.transpose(v);
        let xv = b.matmul(x, v);
        let num = b.binary(u, xv, BinOp::Mul);
        let vtv = b.matmul(vt, v);
        let den = b.matmul(u, vtv);
        let out = b.binary(num, den, BinOp::Div);
        b.finish(vec![out])
    }

    #[test]
    fn validate_accepts_builder_output() {
        let dag = gnmf_like();
        dag.validate().unwrap();
        assert_eq!(dag.roots().len(), 1);
    }

    #[test]
    fn consumers_and_fanout() {
        let dag = gnmf_like();
        // V is consumed by transpose, matmul(x,v), and matmul(vt,v).
        let v = dag
            .nodes()
            .iter()
            .find(|n| matches!(&n.kind, OpKind::Input { name } if name == "V"))
            .unwrap()
            .id;
        assert_eq!(dag.consumers(v).len(), 3);
        assert!(dag.is_materialization_point(v));
        // The root has no consumers but fanout 1.
        let root = dag.roots()[0];
        assert_eq!(dag.consumers(root).len(), 0);
        assert_eq!(dag.fanout(root), 1);
        assert!(!dag.is_materialization_point(root));
    }

    #[test]
    fn matmuls_found() {
        let dag = gnmf_like();
        assert_eq!(dag.matmuls().len(), 3);
    }

    #[test]
    fn adjacent_of_set_direction_control() {
        let dag = gnmf_like();
        let root = dag.roots()[0];
        let inputs_of_root: BTreeSet<NodeId> = dag.node(root).inputs.iter().copied().collect();
        let set = BTreeSet::from([root]);
        let with_out = dag.adjacent_of_set(&set, false);
        let without_out = dag.adjacent_of_set(&set, true);
        assert_eq!(with_out, without_out); // root has no consumers
        for id in without_out {
            assert!(inputs_of_root.contains(&id));
        }
    }

    #[test]
    fn distance_bfs() {
        let dag = gnmf_like();
        let root = dag.roots()[0];
        assert_eq!(dag.distance(root, root), Some(0));
        let num = dag.node(root).inputs[0];
        assert_eq!(dag.distance(root, num), Some(1));
    }

    #[test]
    fn descendants_within_stays_inside() {
        let dag = gnmf_like();
        let root = dag.roots()[0];
        let all: BTreeSet<NodeId> = dag
            .nodes()
            .iter()
            .filter(|n| !n.kind.is_leaf())
            .map(|n| n.id)
            .collect();
        let desc = dag.descendants_within(root, &all);
        assert!(desc.contains(&root));
        assert_eq!(desc, all, "root reaches every operator in this query");
        // Restricting `within` restricts the result.
        let only_root = BTreeSet::from([root]);
        assert_eq!(dag.descendants_within(root, &only_root), only_root);
    }

    #[test]
    fn display_renders_every_node() {
        let dag = gnmf_like();
        let text = format!("{dag}");
        assert_eq!(text.lines().count(), dag.len());
        assert!(text.contains("ba(×)"));
        assert!(text.contains("(root)"));
    }
}
