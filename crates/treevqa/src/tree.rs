//! Execution-tree bookkeeping.
//!
//! TreeVQA's execution forms a tree (paper Figure 2b): the root cluster covers every task,
//! and each split adds two children covering a partition of the parent's tasks.  The tree
//! is recorded for reporting — in particular the *Tree Critical Depth* used by the
//! hyperparameter study (Section 9.1) — and for debugging split behaviour.

/// One node of the execution tree.
#[derive(Clone, Debug)]
pub struct TreeNode {
    /// Node id (index into the tree's node list).
    pub id: usize,
    /// Parent node id (`None` for roots).
    pub parent: Option<usize>,
    /// Tree level (roots are level 1, matching the paper's `HL1B1` naming).
    pub level: usize,
    /// Indices of the application tasks covered by this node's cluster.
    pub task_indices: Vec<usize>,
    /// Optimizer iterations this cluster executed before retiring (or until the run ended).
    pub iterations: usize,
    /// Shots charged while this cluster was active.
    pub shots: u64,
    /// Whether the cluster was retired by a split (`true`) or survived to the end (`false`).
    pub retired: bool,
}

/// The TreeVQA execution tree.
#[derive(Clone, Debug, Default)]
pub struct ExecutionTree {
    nodes: Vec<TreeNode>,
}

impl ExecutionTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        ExecutionTree::default()
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, parent: Option<usize>, task_indices: Vec<usize>) -> usize {
        let id = self.nodes.len();
        let level = match parent {
            None => 1,
            Some(p) => {
                assert!(p < self.nodes.len(), "parent id out of range");
                self.nodes[p].level + 1
            }
        };
        self.nodes.push(TreeNode {
            id,
            parent,
            level,
            task_indices,
            iterations: 0,
            shots: 0,
            retired: false,
        });
        id
    }

    /// Records final statistics for a node.
    pub fn finalize_node(&mut self, id: usize, iterations: usize, shots: u64, retired: bool) {
        let node = &mut self.nodes[id];
        node.iterations = iterations;
        node.shots = shots;
        node.retired = retired;
    }

    /// Replaces the task list of a node (used when children are registered before their
    /// task partition is known).
    pub fn replace_node_tasks(&mut self, id: usize, task_indices: Vec<usize>) {
        self.nodes[id].task_indices = task_indices;
    }

    /// All nodes.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Leaf nodes (nodes that were never split).
    pub fn leaves(&self) -> Vec<&TreeNode> {
        self.nodes.iter().filter(|n| !n.retired).collect()
    }

    /// The *Tree Critical Depth*: the maximum level of any leaf, i.e. the longest
    /// root-to-leaf path (paper Section 9.1).  Zero for an empty tree.
    pub fn critical_depth(&self) -> usize {
        self.leaves().iter().map(|n| n.level).max().unwrap_or(0)
    }

    /// Total number of splits that occurred.
    pub fn num_splits(&self) -> usize {
        self.nodes.iter().filter(|n| n.retired).count()
    }

    /// A compact multi-line rendering of the tree for logs and experiment reports.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for node in &self.nodes {
            let indent = "  ".repeat(node.level.saturating_sub(1));
            out.push_str(&format!(
                "{indent}L{}B{} tasks={:?} iters={} shots={}{}\n",
                node.level,
                node.id,
                node.task_indices,
                node.iterations,
                node.shots,
                if node.retired { " [split]" } else { "" }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_level_one_and_children_increment() {
        let mut tree = ExecutionTree::new();
        let root = tree.add_node(None, vec![0, 1, 2, 3]);
        let left = tree.add_node(Some(root), vec![0, 1]);
        let right = tree.add_node(Some(root), vec![2, 3]);
        assert_eq!(tree.nodes()[root].level, 1);
        assert_eq!(tree.nodes()[left].level, 2);
        assert_eq!(tree.nodes()[right].level, 2);
        assert_eq!(tree.num_nodes(), 3);
    }

    #[test]
    fn critical_depth_tracks_deepest_leaf() {
        let mut tree = ExecutionTree::new();
        let root = tree.add_node(None, vec![0, 1, 2]);
        tree.finalize_node(root, 10, 100, true);
        let a = tree.add_node(Some(root), vec![0]);
        let b = tree.add_node(Some(root), vec![1, 2]);
        tree.finalize_node(b, 20, 200, true);
        let c = tree.add_node(Some(b), vec![1]);
        let d = tree.add_node(Some(b), vec![2]);
        tree.finalize_node(a, 30, 300, false);
        tree.finalize_node(c, 5, 50, false);
        tree.finalize_node(d, 5, 50, false);
        assert_eq!(tree.critical_depth(), 3);
        assert_eq!(tree.num_splits(), 2);
        assert_eq!(tree.leaves().len(), 3);
    }

    #[test]
    fn unsplit_root_has_depth_one() {
        let mut tree = ExecutionTree::new();
        let root = tree.add_node(None, vec![0]);
        tree.finalize_node(root, 1, 1, false);
        assert_eq!(tree.critical_depth(), 1);
        assert_eq!(tree.num_splits(), 0);
    }

    #[test]
    fn render_mentions_every_node() {
        let mut tree = ExecutionTree::new();
        let root = tree.add_node(None, vec![0, 1]);
        tree.add_node(Some(root), vec![0]);
        tree.add_node(Some(root), vec![1]);
        let text = tree.render();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("L1B0"));
        assert!(text.contains("L2B1"));
    }

    #[test]
    fn empty_tree_has_zero_depth() {
        assert_eq!(ExecutionTree::new().critical_depth(), 0);
    }
}
