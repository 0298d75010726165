//! The label-keyed EIG tree, kept only as a test oracle for the arena tree.
//!
//! Nodes are keyed by their label (`Vec<usize>`) in a `HashMap`, relays carry
//! the label itself and every relay is validated against it.  This is the
//! textbook shape the arena tree in [`super`] must reproduce node for node.

use super::strict_majority;
use std::collections::HashMap;

/// A label: a sequence of distinct process indices; the root is empty.
pub(crate) type Label = Vec<usize>;

/// Label-keyed EIG tree with the same protocol surface as the arena tree.
#[derive(Debug, Clone)]
pub(crate) struct EigTree<V> {
    n: usize,
    f: usize,
    me: usize,
    default: V,
    values: HashMap<Label, V>,
}

impl<V: Clone + PartialEq> EigTree<V> {
    pub(crate) fn new(n: usize, f: usize, me: usize, default: V) -> Self {
        assert!(f >= 1 && n > 3 * f && me < n);
        Self {
            n,
            f,
            me,
            default,
            values: HashMap::new(),
        }
    }

    fn rounds(&self) -> usize {
        self.f + 1
    }

    pub(crate) fn set_input(&mut self, value: V) {
        self.values.insert(Vec::new(), value);
    }

    pub(crate) fn value(&self, label: &[usize]) -> Option<&V> {
        self.values.get(label)
    }

    pub(crate) fn messages_for_round(&self, round: usize) -> Vec<(Label, V)> {
        assert!(round >= 1 && round <= self.rounds());
        self.labels_at_level(round - 1)
            .into_iter()
            .filter(|label| !label.contains(&self.me))
            .map(|label| {
                let value = self
                    .values
                    .get(&label)
                    .cloned()
                    .unwrap_or_else(|| self.default.clone());
                (label, value)
            })
            .collect()
    }

    pub(crate) fn apply_own_relays(&mut self, round: usize) {
        let own = self.messages_for_round(round);
        for (label, value) in own {
            let mut child = label;
            child.push(self.me);
            self.values.entry(child).or_insert(value);
        }
    }

    pub(crate) fn receive(&mut self, round: usize, from: usize, pairs: &[(Label, V)]) {
        assert!(round >= 1 && round <= self.rounds());
        for (label, value) in pairs {
            if label.len() != round - 1 {
                continue;
            }
            if label.contains(&from) || from >= self.n {
                continue;
            }
            if !labels_distinct(label) || label.iter().any(|&p| p >= self.n) {
                continue;
            }
            let mut child = label.clone();
            child.push(from);
            self.values.entry(child).or_insert_with(|| value.clone());
        }
    }

    pub(crate) fn fill_defaults(&mut self, round: usize) {
        assert!(round >= 1 && round <= self.rounds());
        for label in self.labels_at_level(round) {
            self.values
                .entry(label)
                .or_insert_with(|| self.default.clone());
        }
    }

    pub(crate) fn decide(&self) -> V {
        self.resolve(&Vec::new())
    }

    fn resolve(&self, label: &Label) -> V {
        if label.len() == self.rounds() {
            return self
                .values
                .get(label)
                .cloned()
                .unwrap_or_else(|| self.default.clone());
        }
        let children: Vec<V> = (0..self.n)
            .filter(|p| !label.contains(p))
            .map(|p| {
                let mut child = label.clone();
                child.push(p);
                self.resolve(&child)
            })
            .collect();
        strict_majority(&children)
            .cloned()
            .unwrap_or_else(|| self.default.clone())
    }

    fn labels_at_level(&self, level: usize) -> Vec<Label> {
        let mut result = vec![Vec::new()];
        for _ in 0..level {
            let mut next = Vec::new();
            for label in &result {
                for p in 0..self.n {
                    if !label.contains(&p) {
                        let mut extended = label.clone();
                        extended.push(p);
                        next.push(extended);
                    }
                }
            }
            result = next;
        }
        result
    }
}

fn labels_distinct(label: &[usize]) -> bool {
    for (i, a) in label.iter().enumerate() {
        if label[i + 1..].contains(a) {
            return false;
        }
    }
    true
}
