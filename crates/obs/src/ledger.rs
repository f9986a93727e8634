//! Path-addressed attribution trees (DESIGN.md §13 and §15).
//!
//! One tree type, [`Ledger`], generic over the [`Metric`] it attributes:
//! [`Space`] (resident words plus update heat) or [`Time`] (wall-clock
//! nanoseconds). Both follow the same schema: attribution lives on
//! **leaves** only, so a grouping node's own metric is zero and every
//! subtree total is the sum of its children's by construction. Children
//! keep insertion order, which makes rows, events and reports a pure
//! function of the tree.
//!
//! Space is attributed by walks written against [`SpaceSink`], which a
//! tree node implements and so does a bare [`Space`] running total: the
//! same walk builds the tree or, allocation-free, its total.

use std::fmt;

use crate::{Recorder, Value};

/// What a [`Ledger`] attributes: a fixed tuple of additive `u64`
/// counters, the ranking counter first.
pub trait Metric: Copy + Default + PartialEq + Eq + fmt::Debug {
    /// Kind of the NDJSON event each emitted row becomes.
    const EVENT: &'static str;
    /// Event field names of the counters, the ranking counter first.
    /// The first name doubles as the report's unit.
    const FIELDS: &'static [&'static str];
    /// Report column width of the ranking counter.
    const WIDTH: usize;

    /// The counters, in [`Metric::FIELDS`] order.
    fn counters(&self) -> Vec<u64>;

    /// Rebuild from counters in [`Metric::FIELDS`] order.
    fn from_counters(counters: &[u64]) -> Self;

    /// Report columns after the share: the header for `None`, a leaf's
    /// cells for `Some`. None by default.
    fn report_columns(_leaf: Option<&Self>) -> String {
        String::new()
    }

    /// The ranking counter.
    fn primary(&self) -> u64;

    /// Counter-wise sum (the merge and subtree-total rule).
    fn plus(self, other: Self) -> Self;

    /// `"5 words, 0 updates, …"`: the counters as violation text.
    fn describe(&self) -> String {
        Self::FIELDS
            .iter()
            .zip(self.counters())
            .map(|(name, v)| format!("{v} {name}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Resident 64-bit words plus heat: the space ledger's metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Space {
    /// Resident 64-bit words.
    pub words: u64,
    /// Heat: sketch-update operations absorbed by this structure.
    pub updates: u64,
    /// Heat: resident words written by those updates (e.g. one counter
    /// per CountSketch row per update).
    pub touched_words: u64,
}

impl Metric for Space {
    const EVENT: &'static str = "ledger";
    const FIELDS: &'static [&'static str] = &["words", "updates", "touched_words"];
    const WIDTH: usize = 10;

    fn counters(&self) -> Vec<u64> {
        vec![self.words, self.updates, self.touched_words]
    }

    fn from_counters(c: &[u64]) -> Self {
        Space {
            words: c[0],
            updates: c[1],
            touched_words: c[2],
        }
    }

    fn primary(&self) -> u64 {
        self.words
    }

    fn plus(self, o: Self) -> Self {
        Space {
            words: self.words + o.words,
            updates: self.updates + o.updates,
            touched_words: self.touched_words + o.touched_words,
        }
    }

    /// Updates and updates-per-word traffic density.
    fn report_columns(leaf: Option<&Self>) -> String {
        let Some(s) = leaf else {
            return format!("  {:>12}  {:>9}", "updates", "upd/word");
        };
        let density = if s.words > 0 {
            format!("{:.2}", s.updates as f64 / s.words as f64)
        } else if s.updates > 0 {
            "inf".to_string()
        } else {
            "0.00".to_string()
        };
        format!("  {:>12}  {:>9}", s.updates, density)
    }
}

/// Wall-clock nanoseconds: the time ledger's metric. The value rides in
/// the event field named exactly `ns`, which every determinism-diffing
/// normalizer strips, so normalized traces stay bit-neutral.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Time {
    /// Attributed nanoseconds.
    pub ns: u64,
}

impl Metric for Time {
    const EVENT: &'static str = "time_ledger";
    const FIELDS: &'static [&'static str] = &["ns"];
    const WIDTH: usize = 14;

    fn counters(&self) -> Vec<u64> {
        vec![self.ns]
    }

    fn from_counters(c: &[u64]) -> Self {
        Time { ns: c[0] }
    }

    fn primary(&self) -> u64 {
        self.ns
    }

    fn plus(self, o: Self) -> Self {
        Time { ns: self.ns + o.ns }
    }
}

/// One node of an attribution tree: a pure grouping node (children,
/// zero own metric) or a leaf carrying its attribution in `own`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Node<M> {
    /// Metric attributed directly to this node (leaves only under the
    /// schema).
    pub own: M,
    children: Vec<(String, Node<M>)>,
}

/// A space-attribution node.
pub type LedgerNode = Node<Space>;
/// A time-attribution node.
pub type TimeNode = Node<Time>;

impl<M: Metric> Node<M> {
    /// An empty node.
    pub fn new() -> Self {
        Node {
            own: M::default(),
            children: Vec::new(),
        }
    }

    /// Find-or-append the child `name` (insertion order is preserved,
    /// so repeated attribution — e.g. one call per repetition — lands
    /// in the same child).
    pub fn child(&mut self, name: &str) -> &mut Node<M> {
        if let Some(i) = self.children.iter().position(|(n, _)| n == name) {
            return &mut self.children[i].1;
        }
        self.children.push((name.to_string(), Node::new()));
        &mut self.children.last_mut().expect("just pushed").1
    }

    /// The child `name`, if present.
    pub fn get(&self, name: &str) -> Option<&Node<M>> {
        self.children
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
    }

    /// Resolve a `/`-separated path relative to this node.
    pub fn at(&self, path: &str) -> Option<&Node<M>> {
        let mut node = self;
        for seg in path.split('/').filter(|s| !s.is_empty()) {
            node = node.get(seg)?;
        }
        Some(node)
    }

    /// Children in insertion order.
    pub fn children(&self) -> impl Iterator<Item = (&str, &Node<M>)> {
        self.children.iter().map(|(n, c)| (n.as_str(), c))
    }

    /// Whether this node carries its attribution directly (no children).
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Subtree total (own + all descendants).
    pub fn total(&self) -> M {
        self.children
            .iter()
            .fold(self.own, |acc, (_, c)| acc.plus(c.total()))
    }

    /// Additive merge: fold `other` into `self` by child-name union, so
    /// Σ shard totals == merged total exactly.
    pub fn merge(&mut self, other: &Node<M>) {
        self.own = self.own.plus(other.own);
        for (name, child) in other.children() {
            self.child(name).merge(child);
        }
    }

    /// Preorder walk with `/`-joined paths rooted at `name`.
    fn visit(&self, name: &str, prefix: &str, f: &mut impl FnMut(&str, &Node<M>)) {
        let path = if prefix.is_empty() {
            name.to_string()
        } else {
            format!("{prefix}/{name}")
        };
        f(&path, self);
        for (child_name, child) in self.children() {
            child.visit(child_name, &path, f);
        }
    }
}

impl Space {
    /// `words` resident words and no heat.
    pub fn resident(words: usize) -> Self {
        Space {
            words: words as u64,
            ..Space::default()
        }
    }
}

/// Where a space walk (`SpaceUsage::space_ledger`) attributes its words
/// and heat: a [`LedgerNode`] builds the attribution tree, a [`Space`]
/// keeps only the running total. One walk serves both, so the total
/// and the tree cannot disagree, and the total costs no allocation.
pub trait SpaceSink {
    /// The sink for the component `name` (find-or-append in a tree; the
    /// total itself for a running total).
    fn child(&mut self, name: &str) -> &mut Self;

    /// The sink for the component `{prefix}{index}` (e.g. `lane3`),
    /// named only where a tree keeps names.
    fn child_indexed(&mut self, prefix: &str, index: usize) -> &mut Self {
        self.child(&format!("{prefix}{index}"))
    }

    /// Attribute `space` to this node.
    fn add(&mut self, space: Space);

    /// Attribute `words` resident words to the leaf child `name`.
    fn leaf(&mut self, name: &str, words: usize) {
        self.child(name).add(Space::resident(words));
    }

    /// Attribute heat to the child `name`: `updates` operations touching
    /// `touched_words` resident words.
    fn heat(&mut self, name: &str, updates: u64, touched_words: u64) {
        self.child(name).add(Space {
            words: 0,
            updates,
            touched_words,
        });
    }
}

impl SpaceSink for Space {
    fn child(&mut self, _name: &str) -> &mut Self {
        self
    }

    fn child_indexed(&mut self, _prefix: &str, _index: usize) -> &mut Self {
        self
    }

    fn add(&mut self, space: Space) {
        *self = self.plus(space);
    }
}

impl SpaceSink for Node<Space> {
    fn child(&mut self, name: &str) -> &mut Self {
        Node::child(self, name)
    }

    fn add(&mut self, space: Space) {
        self.own = self.own.plus(space);
    }
}

impl Node<Space> {
    /// Subtree total of resident words.
    pub fn total_words(&self) -> u64 {
        self.total().words
    }

    /// Subtree total of update operations.
    pub fn total_updates(&self) -> u64 {
        self.total().updates
    }

    /// Subtree total of touched words.
    pub fn total_touched_words(&self) -> u64 {
        self.total().touched_words
    }
}

impl Node<Time> {
    /// Attribute `ns` nanoseconds to the leaf child `name`.
    pub fn leaf(&mut self, name: &str, ns: u64) {
        self.child(name).own.ns += ns;
    }

    /// Subtree total nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.total().ns
    }
}

/// One flattened row of a [`Ledger`]: the `/`-joined path plus the
/// **subtree total**, so a parent row always equals the sum of its
/// children's — the invariant [`crate::audit`] re-checks when it reads
/// a trace back.
#[derive(Debug, Clone, PartialEq)]
pub struct Row<M> {
    /// `/`-joined path from the ledger root (the root itself is the
    /// bare root name).
    pub path: String,
    /// Subtree total.
    pub total: M,
    /// Number of immediate children (0 = leaf).
    pub children: usize,
}

/// A named attribution tree, rendered as nested NDJSON events (one per
/// node), a ranked leaf report, and folded stacks.
#[derive(Debug, Clone, Default)]
pub struct Ledger<M> {
    name: String,
    /// The root node (attribution goes into its children).
    pub root: Node<M>,
}

/// The space-attribution ledger built by the `space_ledger`
/// implementations across the estimator stack.
pub type SpaceLedger = Ledger<Space>;
/// The time-attribution ledger: batch-granular wall intervals
/// apportioned by heat (see [`apportion_by_heat`]).
pub type TimeLedger = Ledger<Time>;

impl<M: Metric> Ledger<M> {
    /// An empty ledger whose root is named `name` (e.g. `"estimator"`).
    pub fn new(name: &str) -> Self {
        Ledger {
            name: name.to_string(),
            root: Node::new(),
        }
    }

    /// The root name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Flatten to rows in preorder (parent before children, children in
    /// insertion order), with subtree totals per row.
    pub fn rows(&self) -> Vec<Row<M>> {
        let mut out = Vec::new();
        self.root.visit(&self.name, "", &mut |path, node| {
            out.push(Row {
                path: path.to_string(),
                total: node.total(),
                children: node.children.len(),
            })
        });
        out
    }

    /// Schema violations: grouping nodes that carry direct attribution.
    /// Empty means the parent-sum invariant holds at every interior node
    /// by construction.
    pub fn audit(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.root.visit(&self.name, "", &mut |path, node| {
            if !node.is_leaf() && node.own != M::default() {
                out.push(format!(
                    "{path}: grouping node carries direct attribution ({})",
                    node.own.describe()
                ));
            }
        });
        out
    }

    /// Emit one [`Metric::EVENT`] event per node (preorder, subtree
    /// totals): `path`, the metric's fields, `children`. Deterministic in
    /// shape; only the metric values can be wall-clock.
    pub fn emit(&self, rec: &Recorder) {
        if !rec.is_enabled() {
            return;
        }
        for row in self.rows() {
            let mut fields: Vec<(&str, Value)> = vec![("path", row.path.as_str().into())];
            fields.extend(
                M::FIELDS
                    .iter()
                    .zip(row.total.counters())
                    .map(|(k, v)| (*k, v.into())),
            );
            fields.push(("children", (row.children as u64).into()));
            rec.event(M::EVENT, &fields);
        }
    }

    /// The ranked leaf report (see [`render_report`]).
    pub fn report(&self, top: usize) -> String {
        render_report(&self.rows(), top)
    }

    /// Folded stacks of the leaves (see [`render_folded`]).
    pub fn folded(&self) -> String {
        render_folded(&self.rows())
    }

    /// Additive merge by root-name match (shards of the same stage).
    pub fn merge(&mut self, other: &Ledger<M>) {
        assert_eq!(
            self.name, other.name,
            "ledger merge requires identical root names"
        );
        self.root.merge(&other.root);
    }
}

impl Ledger<Space> {
    /// Total resident words attributed anywhere in the tree.
    pub fn total_words(&self) -> u64 {
        self.root.total_words()
    }
}

impl Ledger<Time> {
    /// Total nanoseconds attributed anywhere in the tree.
    pub fn total_ns(&self) -> u64 {
        self.root.total_ns()
    }
}

/// Render the ranked attribution report from flattened rows: leaves by
/// the ranking counter descending (ties by path) with their share of the
/// first row's total and the metric's extra columns. `top == 0` means
/// all leaves. Shared by live ledgers and rows rebuilt from a trace.
pub fn render_report<M: Metric>(rows: &[Row<M>], top: usize) -> String {
    let unit = M::FIELDS[0];
    let w = M::WIDTH;
    let total: u64 = rows.first().map_or(0, |r| r.total.primary());
    let mut leaves: Vec<&Row<M>> = rows.iter().filter(|r| r.children == 0).collect();
    leaves.sort_by(|a, b| {
        b.total
            .primary()
            .cmp(&a.total.primary())
            .then_with(|| a.path.cmp(&b.path))
    });
    let shown = if top == 0 {
        leaves.len()
    } else {
        top.min(leaves.len())
    };
    let width = leaves
        .iter()
        .take(shown)
        .map(|r| r.path.len())
        .max()
        .unwrap_or(4)
        .max(4);
    let mut out = format!(
        "{:<width$}  {unit:>w$}  {:>6}{}\n",
        "path",
        "%",
        M::report_columns(None)
    );
    for row in leaves.iter().take(shown) {
        let value = row.total.primary();
        let pct = if total > 0 {
            value as f64 / total as f64 * 100.0
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<width$}  {value:>w$}  {pct:>5.1}%{}\n",
            row.path,
            M::report_columns(Some(&row.total))
        ));
    }
    if shown < leaves.len() {
        let rest: u64 = leaves[shown..].iter().map(|r| r.total.primary()).sum();
        out.push_str(&format!(
            "… {} more leaves ({rest} {unit})\n",
            leaves.len() - shown
        ));
    }
    out.push_str(&format!("total: {total} {unit}\n"));
    out
}

/// Render Brendan-Gregg folded stacks — one line per leaf row,
/// `root;seg;…;leaf <value>` — directly consumable by standard
/// flamegraph tooling (`flamegraph.pl`, inferno, speedscope).
pub fn render_folded<M: Metric>(rows: &[Row<M>]) -> String {
    let mut out = String::new();
    for row in rows.iter().filter(|r| r.children == 0) {
        out.push_str(&format!(
            "{} {}\n",
            row.path.replace('/', ";"),
            row.total.primary()
        ));
    }
    out
}

/// Apportion one batch-granular wall-clock interval across the leaves
/// of a space-attribution subtree, mirroring its structure into `out`.
///
/// This is the rule that buys per-sketch time attribution *without*
/// per-sketch clock reads: the caller times a whole batched call (one
/// monotonic read per chunk per lane) and this splits the interval over
/// the structures that did the work, weighted by the heat counters the
/// space ledger already maintains (`updates + touched_words`). When the
/// subtree carries no heat at all, the split falls back to uniform
/// weights so the time tree's shape stays a pure function of
/// configuration. The split is exact: the cumulative-floor rule assigns
/// `⌊ns·cum_i/W⌋ − ⌊ns·cum_{i−1}/W⌋` to leaf `i`, so assigned
/// nanoseconds sum to `ns` with no remainder — parent == Σ children is
/// an identity, not an approximation.
pub fn apportion_by_heat(ns: u64, space: &LedgerNode, out: &mut TimeNode) {
    fn collect(node: &LedgerNode, path: &mut Vec<String>, leaves: &mut Vec<(Vec<String>, u64)>) {
        if node.is_leaf() {
            leaves.push((path.clone(), node.own.updates + node.own.touched_words));
            return;
        }
        for (name, child) in node.children() {
            path.push(name.to_string());
            collect(child, path, leaves);
            path.pop();
        }
    }
    let mut leaves = Vec::new();
    collect(space, &mut Vec::new(), &mut leaves);
    if leaves.is_empty() || (leaves.len() == 1 && leaves[0].0.is_empty()) {
        // The subtree is itself a leaf: attribute directly.
        out.own.ns += ns;
        return;
    }
    let mut weights: Vec<u64> = leaves.iter().map(|(_, w)| *w).collect();
    if weights.iter().all(|&w| w == 0) {
        weights.iter_mut().for_each(|w| *w = 1);
    }
    let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    let mut cum: u128 = 0;
    let mut prev: u128 = 0;
    for ((path, _), &w) in leaves.iter().zip(&weights) {
        cum += u128::from(w);
        let assigned = u128::from(ns) * cum / total;
        let share = (assigned - prev) as u64;
        prev = assigned;
        let mut node = &mut *out;
        for seg in path {
            node = node.child(seg);
        }
        node.own.ns += share;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::parent_sum_violations;

    fn sample_ledger() -> SpaceLedger {
        let mut ledger = SpaceLedger::new("estimator");
        let lane = ledger.root.child("lane0");
        let cs = lane.child("large_set").child("countsketch");
        cs.leaf("rows", 100);
        cs.leaf("hashes", 20);
        cs.heat("rows", 50, 150);
        lane.child("reducer").leaf("hash", 4);
        ledger.root.child("fingerprints").leaf("set_base", 8);
        ledger
    }

    fn sample_time_ledger() -> TimeLedger {
        let mut ledger = TimeLedger::new("estimator");
        let lane = ledger.root.child("lane0");
        lane.leaf("reducer", 40);
        let ls = lane.child("large_set");
        ls.leaf("countsketch", 500);
        ls.leaf("tracker", 60);
        ledger.root.leaf("fingerprints", 100);
        ledger
    }

    #[test]
    fn child_is_find_or_append_and_totals_sum() {
        let ledger = sample_ledger();
        assert_eq!(ledger.total_words(), 132);
        let lane = ledger.root.get("lane0").unwrap();
        assert_eq!(lane.total_words(), 124);
        assert_eq!(lane.total_updates(), 50);
        assert_eq!(lane.total_touched_words(), 150);
        // Path lookup resolves nested components.
        let rows = ledger.root.at("lane0/large_set/countsketch/rows").unwrap();
        assert_eq!(rows.own.words, 100);
        assert!(rows.is_leaf());
        assert!(ledger.root.at("lane0/missing").is_none());
        // Repeated attribution accumulates in the same child.
        let mut node = LedgerNode::new();
        node.leaf("values", 3);
        node.leaf("values", 4);
        assert_eq!(node.get("values").unwrap().own.words, 7);
        assert_eq!(node.children().count(), 1);
        assert_eq!(sample_time_ledger().total_ns(), 700);
    }

    #[test]
    fn rows_are_preorder_with_subtree_totals_for_both_metrics() {
        let rows = sample_ledger().rows();
        assert_eq!(rows[0].path, "estimator");
        assert_eq!(rows[0].total.words, 132);
        assert!(rows[0].children > 0);
        assert!(parent_sum_violations(&rows).is_empty());
        // Leaf rows carry their own attribution verbatim.
        let cs_rows = rows
            .iter()
            .find(|r| r.path.ends_with("countsketch/rows"))
            .unwrap();
        assert_eq!(
            cs_rows.total,
            Space {
                words: 100,
                updates: 50,
                touched_words: 150
            }
        );
        assert_eq!(cs_rows.children, 0);

        let times = sample_time_ledger().rows();
        assert_eq!(
            (times[0].path.as_str(), times[0].total.ns),
            ("estimator", 700)
        );
        assert!(parent_sum_violations(&times).is_empty());
    }

    #[test]
    fn audit_flags_attribution_on_grouping_nodes() {
        let mut ledger = sample_ledger();
        assert!(ledger.audit().is_empty(), "{:?}", ledger.audit());
        ledger.root.child("lane0").own.words += 5;
        let violations = ledger.audit();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("estimator/lane0"), "{violations:?}");
        assert!(violations[0].contains("5 words"), "{violations:?}");

        let mut times = sample_time_ledger();
        times.root.child("lane0").own.ns += 5;
        assert_eq!(times.audit().len(), 1);
        assert!(times.audit()[0].contains("(5 ns)"), "{:?}", times.audit());
    }

    #[test]
    fn emit_writes_one_event_per_node_with_the_metric_fields() {
        let ledger = sample_ledger();
        let rec = Recorder::enabled();
        ledger.emit(&rec);
        let events = rec.events_of("ledger");
        assert_eq!(events.len(), ledger.rows().len());
        assert_eq!(events[0].str_field("path"), Some("estimator"));
        assert_eq!(events[0].u64_field("words"), Some(132));
        let keys: Vec<&str> = events[0].fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["path", "words", "updates", "touched_words", "children"]
        );

        let times = sample_time_ledger();
        times.emit(&rec);
        let events = rec.events_of("time_ledger");
        assert_eq!(events.len(), times.rows().len());
        let keys: Vec<&str> = events[0].fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["path", "ns", "children"]);
        assert_eq!(events[0].u64_field("ns"), Some(700));

        // Disabled recorder: emit is a no-op.
        let off = Recorder::disabled();
        ledger.emit(&off);
        assert!(off.events().is_empty());
    }

    #[test]
    fn reports_rank_leaves_and_fold_stacks() {
        let ledger = sample_ledger();
        let report = ledger.report(2);
        assert!(report.starts_with("path"), "{report}");
        assert!(
            report.lines().next().unwrap().ends_with("upd/word"),
            "{report}"
        );
        let first_data_line = report.lines().nth(1).unwrap();
        assert!(first_data_line.contains("countsketch/rows"), "{report}");
        assert!(first_data_line.ends_with("0.50"), "{report}");
        assert!(report.contains("total: 132 words"), "{report}");
        assert!(report.contains("more leaves"), "{report}");
        assert!(!ledger.report(0).contains("more leaves"));

        let times = sample_time_ledger();
        let report = times.report(2);
        assert!(report.lines().next().unwrap().ends_with('%'), "{report}");
        assert!(
            report.lines().nth(1).unwrap().contains("countsketch"),
            "{report}"
        );
        assert!(report.contains("total: 700 ns"), "{report}");
        assert!(report.contains("more leaves"), "{report}");
        // Folded stacks: leaves only, `/` → `;`, one trailing count.
        assert_eq!(
            times.folded().lines().collect::<Vec<_>>(),
            vec![
                "estimator;lane0;reducer 40",
                "estimator;lane0;large_set;countsketch 500",
                "estimator;lane0;large_set;tracker 60",
                "estimator;fingerprints 100",
            ]
        );
    }

    #[test]
    fn merge_is_exactly_additive_and_unions_shapes() {
        let mut a = sample_time_ledger();
        a.merge(&sample_time_ledger());
        assert_eq!(a.total_ns(), 1400);
        assert_eq!(
            a.root.at("lane0/large_set/countsketch").unwrap().own.ns,
            1000
        );
        let mut c = TimeLedger::new("estimator");
        c.root.leaf("extra", 7);
        a.merge(&c);
        assert_eq!(a.root.get("extra").unwrap().own.ns, 7);
        assert_eq!(a.total_ns(), 1407);

        let mut s = sample_ledger();
        s.merge(&sample_ledger());
        assert_eq!(s.total_words(), 264);
        assert_eq!(s.root.total_updates(), 100);
    }

    #[test]
    fn apportion_by_heat_splits_exactly_by_weight() {
        // Heat 50+150 on `rows`, 0 on `hashes`/`hash`/`set_base` — all
        // weight lands on one leaf of the mirrored structure.
        let space = sample_ledger();
        let lane_space = space.root.get("lane0").unwrap();
        let mut out = TimeNode::new();
        apportion_by_heat(1000, lane_space, &mut out);
        assert_eq!(out.total_ns(), 1000, "apportionment must be exact");
        assert_eq!(out.at("large_set/countsketch/rows").unwrap().own.ns, 1000);
        // Mirrored shape: every space leaf exists in the time tree.
        assert!(out.at("large_set/countsketch/hashes").is_some());
        assert!(out.at("reducer/hash").is_some());
    }

    #[test]
    fn apportion_by_heat_is_exact_under_awkward_remainders() {
        let mut space = LedgerNode::new();
        for name in ["a", "b", "c"] {
            space.leaf(name, 1);
            space.heat(name, 1, 0);
        }
        let mut out = TimeNode::new();
        apportion_by_heat(1000, &space, &mut out);
        let shares: Vec<u64> = ["a", "b", "c"]
            .iter()
            .map(|n| out.get(n).unwrap().own.ns)
            .collect();
        assert_eq!(shares.iter().sum::<u64>(), 1000);
        assert!(
            shares.iter().all(|&s| (332..=334).contains(&s)),
            "{shares:?}"
        );
    }

    #[test]
    fn apportion_by_heat_falls_back_to_uniform_without_heat() {
        let mut space = LedgerNode::new();
        space.leaf("a", 10);
        space.leaf("b", 20);
        let mut out = TimeNode::new();
        apportion_by_heat(100, &space, &mut out);
        assert_eq!(out.get("a").unwrap().own.ns, 50);
        assert_eq!(out.get("b").unwrap().own.ns, 50);
        // A bare-leaf subtree attributes directly to `out`.
        let mut leaf_only = TimeNode::new();
        apportion_by_heat(42, &LedgerNode::new(), &mut leaf_only);
        assert_eq!(leaf_only.own.ns, 42);
    }
}
