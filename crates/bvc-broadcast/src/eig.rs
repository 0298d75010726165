//! Exponential Information Gathering (EIG) Byzantine consensus core.
//!
//! Step 1 of the Exact BVC algorithm (Section 2.2 of the paper) uses a
//! "scalar Byzantine broadcast algorithm (such as [12, 6])" as a black box
//! with the two classical properties: all non-faulty processes decide the same
//! value, and if the sender is non-faulty they decide the sender's value.
//! This module implements the textbook construction behind those citations:
//! the EIG (a.k.a. `OM(f)`) protocol, correct for `n ≥ 3f + 1` in a
//! synchronous complete graph.
//!
//! [`EigTree`] is the per-process data structure for one *consensus* instance:
//! a tree of values indexed by strings of distinct process ids, filled in over
//! `f + 1` relay rounds and resolved bottom-up by recursive majority.  The
//! broadcast wrapper (source sends, then everybody runs consensus on what they
//! received) lives in [`crate::broadcast`].
//!
//! # Node numbering
//!
//! The tree has levels `0..=f + 1`.  Level `k` holds one node per sequence of
//! `k` distinct process ids (its *label*); the root is the empty label.
//! [`EigShape`] numbers the nodes breadth-first: level by level, and within a
//! level parent by parent, each parent's children in ascending order of the
//! id they append.  So every level is a contiguous range of ids, and so are
//! the `n − k` children of a level-`k` node: the child `label · p` is the
//! node's first child plus `p` minus the number of ids in `label` below `p`.
//! An [`EigTree`] keeps one `Option<V>` per node in a flat arena in that
//! order, and a relay names its node by that id (a [`Label`]).  The shape
//! depends only on `(n, f)`, so the trees of one process share it.
//!
//! # Validation
//!
//! In relay round `r`, a pair `(id, value)` from process `from` assigns
//! `value` to the node `label(id) · from`.  The pair is ignored unless `id`
//! lies in level `r − 1` (which drops ids past the end of the arena and ids
//! of any other level) and `label(id)` does not contain `from`.  The first
//! value written to a node wins, so duplicates cannot overwrite it.

use std::ops::Range;
use std::sync::Arc;

#[cfg(test)]
mod reference;

/// The id of an EIG tree node in its [`EigShape`]'s breadth-first numbering.
/// The root is node `0`.
pub type Label = usize;

/// The node layout of every EIG tree for one `(n, f)`: level ranges, the
/// label of each node, and where each node's children start.
#[derive(Debug)]
pub struct EigShape {
    n: usize,
    f: usize,
    /// Level `k` is the id range `level_start[k]..level_start[k + 1]`; the
    /// last entry is the node count.
    level_start: Vec<usize>,
    /// The label of node `x` is `labels[x * (f + 1)..]`, cut to its level.
    labels: Vec<usize>,
    /// The children of internal node `x` are `first_child[x]..first_child[x + 1]`.
    first_child: Vec<usize>,
}

impl EigShape {
    /// Lays out the tree for `n` processes tolerating `f` faults.
    ///
    /// # Panics
    ///
    /// Panics unless `n ≥ 3f + 1` and `f ≥ 1`.
    pub fn new(n: usize, f: usize) -> Self {
        assert!(f >= 1, "EIG needs f >= 1 (use direct exchange for f = 0)");
        assert!(n > 3 * f, "EIG requires n >= 3f + 1 (n = {n}, f = {f})");
        let stride = f + 1;
        let mut level_start = vec![0, 1];
        let mut labels = vec![0; stride];
        let mut first_child = Vec::new();
        let mut parent = Vec::with_capacity(stride);
        for level in 0..=f {
            for x in level_start[level]..level_start[level + 1] {
                first_child.push(labels.len() / stride);
                parent.clear();
                parent.extend_from_slice(&labels[x * stride..x * stride + level]);
                for p in (0..n).filter(|p| !parent.contains(p)) {
                    labels.extend_from_slice(&parent);
                    labels.push(p);
                    labels.resize(labels.len() + stride - level - 1, 0);
                }
            }
            level_start.push(labels.len() / stride);
        }
        first_child.push(labels.len() / stride);
        Self {
            n,
            f,
            level_start,
            labels,
            first_child,
        }
    }

    /// Number of processes.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Number of tolerated faults.
    pub(crate) fn f(&self) -> usize {
        self.f
    }

    /// Number of nodes in the tree.
    pub(crate) fn node_count(&self) -> usize {
        self.level_start[self.f + 2]
    }

    /// The ids of the nodes at `level` (`0..=f + 1`).
    pub(crate) fn level(&self, level: usize) -> Range<usize> {
        self.level_start[level]..self.level_start[level + 1]
    }

    /// The id of the node with the given label, or `None` if the label is
    /// not a sequence of at most `f + 1` distinct ids below `n`.
    pub fn node(&self, label: &[usize]) -> Option<Label> {
        if label.len() > self.f + 1 {
            return None;
        }
        let mut id = 0;
        for (level, &p) in label.iter().enumerate() {
            if p >= self.n || self.label_at(id, level).contains(&p) {
                return None;
            }
            id = self.child(id, level, p);
        }
        Some(id)
    }

    /// The label of node `id`, known to lie at `level`.
    fn label_at(&self, id: Label, level: usize) -> &[usize] {
        let start = id * (self.f + 1);
        &self.labels[start..start + level]
    }

    /// The child `label(id) · p` of node `id` at `level`; `p` must not be in
    /// the label.
    fn child(&self, id: Label, level: usize, p: usize) -> Label {
        let below = self.label_at(id, level).iter().filter(|&&q| q < p).count();
        self.first_child[id] + p - below
    }
}

/// Per-process EIG tree for one Byzantine consensus instance over values of
/// type `V`.
///
/// `V` only needs `Clone + PartialEq`: majorities are computed by pairwise
/// comparison, so no `Ord`/`Hash` is required (the consensus values in this
/// workspace are vectors of `f64`).
#[derive(Debug, Clone)]
pub struct EigTree<V> {
    shape: Arc<EigShape>,
    me: usize,
    default: V,
    /// Value stored at each node, indexed by node id.
    values: Vec<Option<V>>,
}

impl<V: Clone + PartialEq> EigTree<V> {
    /// Creates the tree for a system of `n` processes tolerating `f` faults,
    /// as seen by process `me`, with `default` used for missing/garbled
    /// values.
    ///
    /// # Panics
    ///
    /// Panics unless `n ≥ 3f + 1`, `f ≥ 1` and `me < n`.
    pub fn new(n: usize, f: usize, me: usize, default: V) -> Self {
        Self::with_shape(Arc::new(EigShape::new(n, f)), me, default)
    }

    /// Creates the tree on a shape shared with other trees of the same
    /// `(n, f)`.
    ///
    /// # Panics
    ///
    /// Panics unless `me < shape.n()`.
    pub fn with_shape(shape: Arc<EigShape>, me: usize, default: V) -> Self {
        assert!(me < shape.n(), "process index {me} out of range");
        let values = (0..shape.node_count()).map(|_| None).collect();
        Self {
            shape,
            me,
            default,
            values,
        }
    }

    /// Number of relay rounds the protocol needs: `f + 1`.
    pub fn rounds(&self) -> usize {
        self.shape.f() + 1
    }

    /// Sets this process's input (the value stored at the root).
    pub fn set_input(&mut self, value: V) {
        self.values[0] = Some(value);
    }

    /// The id of the node with the given label, if the label is well-formed.
    pub fn node(&self, label: &[usize]) -> Option<Label> {
        self.shape.node(label)
    }

    /// The value currently stored at `label`, if any.
    pub fn value(&self, label: &[usize]) -> Option<&V> {
        self.node(label).and_then(|id| self.values[id].as_ref())
    }

    /// The `(node, value)` pairs this process must relay in round `round`
    /// (1-based): the values of all level-`round − 1` nodes whose labels do
    /// not contain this process.
    ///
    /// Missing values are relayed as the default, which keeps the relay
    /// schedule deterministic even if earlier senders were silent.
    pub fn messages_for_round(&self, round: usize) -> Vec<(Label, V)> {
        let level = self.relay_level(round);
        self.shape
            .level(level)
            .filter(|&id| !self.shape.label_at(id, level).contains(&self.me))
            .map(|id| (id, self.value_or_default(id).clone()))
            .collect()
    }

    /// Applies this process's own round-`round` relays to its own tree: the
    /// classical protocol has every process broadcast to *all* processes,
    /// including itself, so the nodes `label · me` must be populated with the
    /// values this process relays.  Call once per round, alongside
    /// [`EigTree::messages_for_round`].
    pub fn apply_own_relays(&mut self, round: usize) {
        let level = self.relay_level(round);
        let shape = &*self.shape;
        for id in shape.level(level) {
            if shape.label_at(id, level).contains(&self.me) {
                continue;
            }
            let child = shape.child(id, level, self.me);
            if self.values[child].is_none() {
                self.values[child] = Some(self.value_or_default(id).clone());
            }
        }
    }

    /// Records the relays received from `from` in round `round`.  A pair
    /// `(id, value)` sent by `from` assigns `value` to the node
    /// `label(id) · from`, provided `id` is a level-`round − 1` node whose
    /// label does not contain `from`.  Other pairs are ignored, which is how
    /// a Byzantine sender's garbage is neutralised.
    pub fn receive(&mut self, round: usize, from: usize, pairs: &[(Label, V)]) {
        let level = self.relay_level(round);
        let shape = &*self.shape;
        if from >= shape.n() {
            return;
        }
        let ids = shape.level(level);
        for (id, value) in pairs {
            if !ids.contains(id) || shape.label_at(*id, level).contains(&from) {
                continue;
            }
            // First write wins: a FIFO channel delivers at most one relay per
            // (round, node, sender) in a correct execution; keeping the first
            // protects against duplicates.
            let slot = &mut self.values[shape.child(*id, level, from)];
            if slot.is_none() {
                *slot = Some(value.clone());
            }
        }
    }

    /// Fills every still-missing node of level `round` with the default
    /// value.  Call at the end of round `round` so silent senders are treated
    /// as having sent the default, as the classical protocol prescribes.
    pub fn fill_defaults(&mut self, round: usize) {
        let ids = self.shape.level(self.relay_level(round) + 1);
        for slot in &mut self.values[ids] {
            if slot.is_none() {
                *slot = Some(self.default.clone());
            }
        }
    }

    /// Resolves the tree bottom-up by recursive strict majority and returns
    /// the decision value.  Call after all `f + 1` rounds have completed (and
    /// defaults have been filled).
    pub fn decide(&self) -> V {
        let shape = &*self.shape;
        let mut resolved: Vec<&V> = (0..shape.node_count())
            .map(|id| self.value_or_default(id))
            .collect();
        // Children follow their parent in the numbering, so a reverse sweep
        // over the internal nodes sees every child resolved before its parent.
        for id in (0..shape.level_start[shape.f() + 1]).rev() {
            let children = &resolved[shape.first_child[id]..shape.first_child[id + 1]];
            let majority = strict_majority(children).copied();
            resolved[id] = majority.unwrap_or(&self.default);
        }
        resolved[0].clone()
    }

    fn value_or_default(&self, id: Label) -> &V {
        self.values[id].as_ref().unwrap_or(&self.default)
    }

    /// The level whose nodes are relayed in round `round`.
    fn relay_level(&self, round: usize) -> usize {
        assert!(
            round >= 1 && round <= self.rounds(),
            "round {round} out of range"
        );
        round - 1
    }
}

/// Returns the first of `values` that a strict majority of `values` equals
/// (by `PartialEq` comparison), if one exists.
pub fn strict_majority<T: PartialEq>(values: &[T]) -> Option<&T> {
    let quorum = values.len() / 2 + 1;
    values.iter().find(|candidate| {
        values
            .iter()
            .filter(|v| v == candidate)
            .take(quorum)
            .count()
            == quorum
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The id of the node with `label` in the `(n, f)` tree.
    fn node(n: usize, f: usize, label: &[usize]) -> Label {
        EigShape::new(n, f).node(label).expect("well-formed label")
    }

    /// The label of node `id` (`id` must lie in the arena).
    fn label(shape: &EigShape, id: Label) -> &[usize] {
        let level = shape.level_start.partition_point(|&start| start <= id) - 1;
        shape.label_at(id, level)
    }

    /// Drives a full synchronous execution of one EIG consensus instance with
    /// the given inputs; `byzantine` processes send `garbage(round, from, to)`
    /// instead of honest relays (possibly different values to different
    /// receivers).  Returns the decisions of the honest processes.
    fn run_eig(
        n: usize,
        f: usize,
        inputs: &[i64],
        byzantine: &[usize],
        mut garbage: impl FnMut(usize, usize, usize) -> Vec<(Label, i64)>,
    ) -> Vec<i64> {
        let default = -1i64;
        let shape = Arc::new(EigShape::new(n, f));
        let mut trees: Vec<EigTree<i64>> = (0..n)
            .map(|i| {
                let mut t = EigTree::with_shape(Arc::clone(&shape), i, default);
                t.set_input(inputs[i]);
                t
            })
            .collect();
        let rounds = f + 1;
        for round in 1..=rounds {
            // Gather every process's outgoing relays for this round and apply
            // each process's own relays to its own tree (self-delivery).
            let mut outgoing: Vec<Vec<(Label, i64)>> = Vec::with_capacity(n);
            for tree in trees.iter_mut() {
                outgoing.push(tree.messages_for_round(round));
                tree.apply_own_relays(round);
            }
            // Deliver.
            for (to, tree) in trees.iter_mut().enumerate() {
                for (from, out) in outgoing.iter().enumerate() {
                    if from == to {
                        continue;
                    }
                    if byzantine.contains(&from) {
                        tree.receive(round, from, &garbage(round, from, to));
                    } else {
                        tree.receive(round, from, out);
                    }
                }
            }
            for tree in trees.iter_mut() {
                tree.fill_defaults(round);
            }
        }
        (0..n)
            .filter(|i| !byzantine.contains(i))
            .map(|i| trees[i].decide())
            .collect()
    }

    #[test]
    fn all_honest_processes_agree_with_no_faults_present() {
        let decisions = run_eig(4, 1, &[7, 7, 7, 7], &[], |_, _, _| Vec::new());
        assert!(decisions.iter().all(|&d| d == 7));
    }

    #[test]
    fn validity_holds_when_all_honest_inputs_equal() {
        // Byzantine process 3 sends nothing at all; honest inputs are all 5.
        let decisions = run_eig(4, 1, &[5, 5, 5, 99], &[3], |_, _, _| Vec::new());
        assert_eq!(decisions, vec![5, 5, 5]);
    }

    #[test]
    fn agreement_holds_under_equivocation() {
        // Byzantine process 0 relays different values to different receivers.
        let decisions = run_eig(4, 1, &[10, 20, 30, 40], &[0], |round, _from, to| {
            // Send a per-receiver fabricated root value in round 1, and
            // per-receiver garbage relays in round 2.
            if round == 1 {
                vec![(node(4, 1, &[]), 1000 + to as i64)]
            } else {
                vec![
                    (node(4, 1, &[1]), 2000 + to as i64),
                    (node(4, 1, &[2]), 3000 + to as i64),
                    (node(4, 1, &[3]), 4000 + to as i64),
                ]
            }
        });
        // All honest processes decide identically (agreement), whatever value
        // that is.
        assert!(decisions.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn agreement_holds_with_two_faults_and_seven_processes() {
        let inputs = [1, 1, 1, 1, 1, 9, 9];
        let decisions = run_eig(7, 2, &inputs, &[5, 6], |round, from, to| {
            vec![(node(7, 2, &[]), (round * 100 + from * 10 + to) as i64)]
        });
        assert!(decisions.windows(2).all(|w| w[0] == w[1]));
        // Honest inputs are all 1, so validity forces the decision to 1.
        assert_eq!(decisions[0], 1);
    }

    #[test]
    fn seventy_processes_decide_without_an_id_cap() {
        // n > 64: label membership is a scan over at most f + 1 stored ids,
        // not a machine-word bitmask.
        let n = 70;
        let mut inputs = vec![4i64; n];
        inputs[69] = -9;
        let leaf = node(n, 1, &[68]);
        let decisions = run_eig(n, 1, &inputs, &[69], |round, _from, to| {
            if round == 1 {
                vec![(0, to as i64)]
            } else {
                vec![(leaf, 7), (node(n, 1, &[69]), 8)]
            }
        });
        assert_eq!(decisions, vec![4; n - 1]);
        assert_eq!(EigShape::new(65, 1).node_count(), 4226);
    }

    #[test]
    fn shape_numbers_nodes_breadth_first() {
        let shape = EigShape::new(4, 1);
        assert_eq!(shape.node_count(), 1 + 4 + 12);
        assert_eq!(shape.level(1), 1..5);
        assert_eq!(shape.level(2), 5..17);
        assert_eq!(shape.node(&[]), Some(0));
        assert_eq!(shape.node(&[2]), Some(3));
        // Children of [2] are [2,0], [2,1], [2,3] at ids 11, 12, 13.
        assert_eq!(shape.node(&[2, 0]), Some(11));
        assert_eq!(shape.node(&[2, 3]), Some(13));
        for id in 0..shape.node_count() {
            assert_eq!(shape.node(label(&shape, id)), Some(id));
        }
        // Malformed labels have no node.
        assert_eq!(shape.node(&[2, 2]), None);
        assert_eq!(shape.node(&[4]), None);
        assert_eq!(shape.node(&[0, 1, 2]), None);
    }

    #[test]
    fn malformed_relays_are_ignored() {
        let mut tree = EigTree::new(4, 1, 0, 0i64);
        tree.set_input(3);
        let (root, two) = (node(4, 1, &[]), node(4, 1, &[2]));
        tree.receive(1, 2, &[(two, 50)]); // wrong level for round 1
        tree.receive(2, 2, &[(two, 50)]); // label contains sender
        tree.receive(2, 2, &[(root, 50)]); // wrong level for round 2
        tree.receive(2, 2, &[(17, 50), (usize::MAX, 50)]); // past the arena
        tree.receive(2, 9, &[(node(4, 1, &[1]), 50)]); // sender out of range
        assert!(tree.values.iter().skip(1).all(Option::is_none));
        assert_eq!(tree.value(&[]), Some(&3));
    }

    #[test]
    fn duplicate_relays_keep_first_value() {
        let mut tree = EigTree::new(4, 1, 0, 0i64);
        tree.receive(1, 1, &[(0, 5)]);
        tree.receive(1, 1, &[(0, 6)]);
        assert_eq!(tree.value(&[1]), Some(&5));
        let one = node(4, 1, &[1]);
        tree.receive(2, 3, &[(one, 7), (one, 8)]);
        assert_eq!(tree.value(&[1, 3]), Some(&7));
    }

    #[test]
    fn strict_majority_detects_presence_and_absence() {
        assert_eq!(strict_majority(&[1, 1, 2]), Some(&1));
        assert_eq!(strict_majority(&[1, 2, 3]), None);
        assert_eq!(strict_majority::<i32>(&[]), None);
        assert_eq!(strict_majority(&[4]), Some(&4));
        assert_eq!(strict_majority(&[2, 1, 2, 1]), None);
    }

    #[test]
    fn rounds_is_f_plus_one() {
        let tree = EigTree::new(7, 2, 0, 0i64);
        assert_eq!(tree.rounds(), 3);
    }

    #[test]
    #[should_panic(expected = "n >= 3f + 1")]
    fn too_few_processes_panics() {
        let _ = EigTree::new(3, 1, 0, 0i64);
    }

    #[test]
    fn fill_defaults_populates_missing_level_nodes() {
        let mut tree = EigTree::new(4, 1, 0, -7i64);
        tree.fill_defaults(1);
        // Level 1 is [0], [1], [2], [3]: every level-1 node gets the default,
        // including [0], whose relay this process makes to itself.
        assert_eq!(tree.value(&[1]), Some(&-7));
        assert_eq!(tree.value(&[2]), Some(&-7));
        assert_eq!(tree.value(&[0]), Some(&-7));
        assert_eq!(tree.value(&[0, 1]), None);
    }

    /// SplitMix64: enough seeded randomness for the differential sweep.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        }
    }

    /// One Byzantine relay batch for round `round`: node ids of the right
    /// level (some containing the sender), of other levels, past the arena,
    /// and repeats with a different value.
    fn forged_batch(rng: &mut SplitMix, shape: &EigShape, round: usize) -> Vec<(Label, i64)> {
        let level = shape.level(round - 1);
        let count = rng.below(level.len() + 3);
        let mut batch: Vec<(Label, i64)> = Vec::with_capacity(count);
        for _ in 0..count {
            let value = rng.below(3) as i64;
            let id = match rng.below(8) {
                0..=4 => level.start + rng.below(level.len()),
                5 => rng.below(shape.node_count()),
                6 => shape.node_count() + rng.below(4),
                _ => match batch.last() {
                    Some(&(id, _)) => id,
                    None => level.start,
                },
            };
            batch.push((id, value));
        }
        batch
    }

    /// The reference tree's wire form of a node id; an id past the arena
    /// becomes a label the reference tree rejects too.
    fn to_reference(shape: &EigShape, round: usize, id: Label) -> reference::Label {
        if id < shape.node_count() {
            label(shape, id).to_vec()
        } else {
            vec![shape.n(); round.max(2) - 1]
        }
    }

    /// Runs the arena tree and the label-keyed reference tree side by side
    /// on the same execution, with `f` Byzantine processes sending each
    /// receiver its own forged batch, and checks that they store the same
    /// value at every node and reach the same decision.
    fn differential(n: usize, f: usize, seed: u64) {
        let mut rng = SplitMix(seed);
        let shape = Arc::new(EigShape::new(n, f));
        let mut byzantine: Vec<usize> = Vec::new();
        while byzantine.len() < f {
            let p = rng.below(n);
            if !byzantine.contains(&p) {
                byzantine.push(p);
            }
        }
        let mut arena: Vec<EigTree<i64>> = Vec::new();
        let mut oracle: Vec<reference::EigTree<i64>> = Vec::new();
        for me in 0..n {
            let input = rng.below(3) as i64;
            arena.push(EigTree::with_shape(Arc::clone(&shape), me, -1));
            oracle.push(reference::EigTree::new(n, f, me, -1));
            arena[me].set_input(input);
            oracle[me].set_input(input);
        }
        for round in 1..=f + 1 {
            let mut outgoing = Vec::with_capacity(n);
            for (new, old) in arena.iter_mut().zip(oracle.iter_mut()) {
                let relays = new.messages_for_round(round);
                let translated: Vec<_> = relays
                    .iter()
                    .map(|(id, v)| (to_reference(&shape, round, *id), *v))
                    .collect();
                assert_eq!(translated, old.messages_for_round(round));
                outgoing.push((relays, translated));
                new.apply_own_relays(round);
                old.apply_own_relays(round);
            }
            for to in 0..n {
                for (from, (relays, translated)) in outgoing.iter().enumerate() {
                    if from == to {
                        continue;
                    }
                    if byzantine.contains(&from) {
                        let forged = forged_batch(&mut rng, &shape, round);
                        let translated: Vec<_> = forged
                            .iter()
                            .map(|(id, v)| (to_reference(&shape, round, *id), *v))
                            .collect();
                        arena[to].receive(round, from, &forged);
                        oracle[to].receive(round, from, &translated);
                    } else {
                        arena[to].receive(round, from, relays);
                        oracle[to].receive(round, from, translated);
                    }
                }
            }
            for (new, old) in arena.iter_mut().zip(oracle.iter_mut()) {
                new.fill_defaults(round);
                old.fill_defaults(round);
            }
        }
        for (new, old) in arena.iter().zip(&oracle) {
            for id in 0..shape.node_count() {
                let path = label(&shape, id);
                assert_eq!(new.value(path), old.value(path), "node {path:?}");
            }
            assert_eq!(new.decide(), old.decide());
        }
    }

    #[test]
    fn arena_tree_matches_the_label_keyed_reference() {
        for (n, f, seeds) in [(4, 1, 0..24), (7, 2, 0..8), (10, 3, 0..2)] {
            for seed in seeds {
                differential(n, f, seed);
            }
        }
    }
}
