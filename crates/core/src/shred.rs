//! XML→relational shredding: compiling `(D, Σ)` to a table design,
//! shredding documents into rows, and reconstructing them exactly.
//!
//! The scheme is the hybrid-inlining variant of the Atay et al. recipe
//! (PAPERS.md), specialized to the paper's tree model: one table per
//! element path of `D`, except that a **singleton text child** — a
//! `#PCDATA` element that occurs exactly once under its parent and
//! carries no attributes — is inlined as a column of the parent's
//! table. Each table has a surrogate `xnf_id` (the node's ordinal among
//! the nodes at its path, document order), an `xnf_parent` foreign key
//! into the parent path's table, an `xnf_pos` column (index in the
//! parent's child list, making reconstruction *exact*, not just up to
//! sibling reordering; inlined children record their position too), one
//! column per DTD attribute and one per inlined child / own `#PCDATA`
//! content. The shreddable subset is exactly the non-recursive DTDs —
//! the same class the normalization algorithm accepts — since
//! `paths(D)` must be finite.
//!
//! The Σ-derived FDs on each table are computed through the chase
//! ([`ImplicationCache`]): a column set `X` functionally determines a
//! value column `y` in the table of path `p` iff `(D, Σ) ⊢ X̂ → ŷ` for
//! the corresponding paths, and `X` is a key iff `(D, Σ) ⊢ X̂ → p`.
//! With that dictionary, a BCNF violation in an emitted table *is* an
//! anomalous FD of Definition 8 whose left-hand side lies in the
//! table's columns: for inlined columns `p.c.S` this uses the
//! chase-provable bijection `p ↔ p.c` of singleton children, so the
//! paper's two running anomalies both surface as table-local BCNF
//! defects (`@sno → name.S` in `student`, `issue → @year` in
//! `inproceedings`). This is why every table of an XNF-normalized
//! schema is BCNF — the executable Proposition 4 correspondence; see
//! DESIGN.md §12 for the exact statement and its boundary.

use crate::fd::ResolvedFd;
use crate::implication::{Chase, Implication, ImplicationCache};
use crate::{CoreError, Result, XmlFdSet};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use xnf_dtd::{Dtd, Path, PathId, PathSet, Step};
use xnf_govern::Budget;
use xnf_relational::shred::{Column, ColumnRole, ForeignKey, RelDesign, ShreddedDoc, TableRows};
use xnf_relational::{AttrSet, Fd, FdSet, TableSchema, Value};
use xnf_xml::{nodes_at, NodeId, XmlTree};

/// Above this many chase-representable columns the FD derivation stops
/// enumerating the full powerset of left-hand sides and falls back to
/// singletons, pairs, and the Σ-mapped sets (`xnf-lint`'s wide-table
/// diagnostic surfaces the truncation).
pub const FD_ENUMERATION_WIDTH: usize = 6;

/// Where a column's value comes from when shredding a node.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ColSource {
    /// The node ordinal (primary key).
    Id,
    /// The parent node's ordinal in the parent table.
    Parent,
    /// The node's index in its parent's child list.
    Pos,
    /// The value of attribute `@name`.
    Attr(Box<str>),
    /// The node's own `#PCDATA` content.
    Text,
    /// The text of the inlined singleton child element `name`.
    InlineText(Box<str>),
    /// The child-list index of the inlined singleton child `name`.
    InlinePos(Box<str>),
}

/// Per-table mapping back to the DTD: the element path, the parent
/// table, and each column's source.
#[derive(Debug, Clone)]
struct TableMap {
    /// The element path this table stores.
    path: PathId,
    /// Index of the parent path's table (`None` for the root table).
    parent_table: Option<usize>,
    /// Column sources, parallel to the design table's columns.
    sources: Vec<ColSource>,
}

/// A compiled shredding schema: the relational design plus the mapping
/// back to `paths(D)` needed to shred and reconstruct documents.
#[derive(Debug, Clone)]
pub struct ShredSchema {
    /// The relational design: tables (parent-before-child), keys,
    /// foreign keys, and the Σ-derived per-table FDs.
    pub design: RelDesign,
    paths: PathSet,
    maps: Vec<TableMap>,
    root_name: Box<str>,
}

impl ShredSchema {
    /// Number of tables (= element paths of `D` minus inlined ones).
    pub fn num_tables(&self) -> usize {
        self.design.tables.len()
    }

    /// The element path stored by table `ix`.
    pub fn table_path(&self, ix: usize) -> Path {
        self.paths.path(self.maps[ix].path)
    }

    /// Whether table `ix` is named after its element's leaf name, which
    /// it loses when the leaf name is shared or its identifier taken.
    pub fn keeps_leaf_name(&self, ix: usize) -> bool {
        let name = &self.design.tables[ix].name;
        matches!(self.paths.step(self.maps[ix].path), Step::Elem(leaf) if *name == sanitize_ident(leaf))
    }

    /// The DTD path a column of table `ix` corresponds to: the table's
    /// element path for the id, the parent element path for the parent
    /// column, `p.@l` / `p.S` / `p.c.S` for data columns, and `None`
    /// for the order-only position columns.
    pub fn column_path(&self, ix: usize, col: usize) -> Option<Path> {
        let map = &self.maps[ix];
        let p = self.paths.path(map.path);
        match map.sources.get(col)? {
            ColSource::Id => Some(p),
            ColSource::Parent => p.parent(),
            ColSource::Pos | ColSource::InlinePos(_) => None,
            ColSource::Attr(name) => Some(p.child_attr(name.clone())),
            ColSource::Text => Some(p.child_text()),
            ColSource::InlineText(name) => Some(p.child_elem(name.clone()).child_text()),
        }
    }

    /// Renders a per-table BCNF violation as the XML FD it witnesses
    /// (`None` only if an order-only column is involved, which derived
    /// FDs never are).
    pub fn violation_as_xml_fd(&self, ix: usize, fd: &Fd) -> Option<crate::XmlFd> {
        let lhs: Option<Vec<Path>> = fd.lhs.iter().map(|c| self.column_path(ix, c)).collect();
        let rhs: Option<Vec<Path>> = fd
            .rhs
            .minus(fd.lhs)
            .iter()
            .map(|c| self.column_path(ix, c))
            .collect();
        crate::XmlFd::new(lhs?, rhs?).ok()
    }

    /// The tables (index, name, violation) that are **not** in BCNF
    /// under their Σ-derived FDs. Empty for XNF-normalized specs.
    pub fn non_bcnf_tables(&self) -> Vec<(usize, String, Fd)> {
        self.design
            .tables
            .iter()
            .enumerate()
            .filter_map(|(ix, t)| t.bcnf_violation().map(|fd| (ix, t.name.clone(), fd)))
            .collect()
    }
}

/// Compiles `(D, Σ)` into a [`ShredSchema`]: tables, keys, foreign
/// keys, and the Σ-derived per-table FDs. Fails with
/// [`CoreError::RecursiveNormalization`] on recursive DTDs (the
/// shreddable subset is the non-recursive one) and with
/// [`CoreError::Exhausted`] when `budget` runs out.
pub fn compile_schema(dtd: &Dtd, sigma: &XmlFdSet, budget: &Budget) -> Result<ShredSchema> {
    let _span = budget.recorder().span("shred.compile", "shred");
    if dtd.is_recursive() {
        return Err(CoreError::RecursiveNormalization);
    }
    let paths = dtd.paths()?;
    let resolved = sigma.resolve(&paths)?;
    let chase = Chase::new(dtd, &paths).with_budget(budget.clone());

    // Singleton text children get inlined into their parent's table.
    let inlined: BTreeSet<PathId> = paths
        .epaths()
        .filter(|&p| {
            let elem = paths.last_elem(p).expect("element paths end in elements");
            paths.parent(p).is_some()
                && chase.is_singleton_child(p)
                && dtd.content(elem).is_text()
                && dtd.attrs(elem).next().is_none()
        })
        .collect();

    // Table paths, parents before children (path length, then the
    // rendered path, for determinism; each path is rendered once).
    let mut epaths: Vec<PathId> = paths.epaths().filter(|p| !inlined.contains(p)).collect();
    epaths.sort_by_cached_key(|&p| (paths.path_len(p), paths.format(p)));
    let table_of: BTreeMap<PathId, usize> =
        epaths.iter().enumerate().map(|(i, &p)| (p, i)).collect();

    // How often each element name occurs as a table path's tail: unique
    // names keep the element name as table name, shared ones get the
    // full path, and residual clashes a numeric suffix.
    let mut name_count: BTreeMap<&str, usize> = BTreeMap::new();
    for &p in &epaths {
        let elem = paths.last_elem(p).expect("element paths end in elements");
        *name_count.entry(dtd.name(elem)).or_default() += 1;
    }
    let mut used_names: BTreeSet<String> = BTreeSet::new();

    let oracle = ImplicationCache::new(&chase, &resolved);
    let mut tables: Vec<TableSchema> = Vec::with_capacity(epaths.len());
    let mut maps = Vec::with_capacity(epaths.len());
    for &p in &epaths {
        budget.checkpoint("shred.table")?;
        let elem = paths.last_elem(p).expect("element paths end in elements");
        let base = if name_count[dtd.name(elem)] == 1 {
            sanitize_ident(dtd.name(elem))
        } else {
            sanitize_ident(&paths.format(p).replace('.', "_"))
        };
        let mut table_name = base.clone();
        let mut n = 1;
        while !used_names.insert(table_name.clone()) {
            n += 1;
            table_name = format!("{base}_{n}");
        }

        let is_root = paths.parent(p).is_none();
        let mut columns = vec![Column {
            name: "xnf_id".to_string(),
            role: ColumnRole::Id,
        }];
        let mut sources = vec![ColSource::Id];
        if !is_root {
            columns.push(Column {
                name: "xnf_parent".to_string(),
                role: ColumnRole::Parent,
            });
            sources.push(ColSource::Parent);
            columns.push(Column {
                name: "xnf_pos".to_string(),
                role: ColumnRole::Pos,
            });
            sources.push(ColSource::Pos);
        }
        for attr in dtd.attrs(elem) {
            let name = unique_column_name(&columns, &sanitize_ident(attr));
            columns.push(Column {
                name,
                role: ColumnRole::Attr,
            });
            sources.push(ColSource::Attr(attr.into()));
        }
        if dtd.content(elem).is_text() {
            let name = unique_column_name(&columns, "xnf_text");
            columns.push(Column {
                name,
                role: ColumnRole::Text,
            });
            sources.push(ColSource::Text);
        }
        for cp in paths.children_of(p) {
            if !inlined.contains(&cp) {
                continue;
            }
            let Step::Elem(child) = paths.step(cp) else {
                continue;
            };
            let text_name = unique_column_name(&columns, &sanitize_ident(child));
            columns.push(Column {
                name: text_name,
                role: ColumnRole::Text,
            });
            sources.push(ColSource::InlineText(child.clone()));
            let pos_name = unique_column_name(&columns, &format!("{}_pos", sanitize_ident(child)));
            columns.push(Column {
                name: pos_name,
                role: ColumnRole::Pos,
            });
            sources.push(ColSource::InlinePos(child.clone()));
        }

        let mut table = TableSchema::new(table_name, columns);
        let parent_table = paths.parent(p).map(|pp| table_of[&pp]);
        if let Some(pt) = parent_table {
            table.foreign_key = Some(ForeignKey {
                column: "xnf_parent".to_string(),
                parent_table: tables[pt].name.clone(),
                parent_column: "xnf_id".to_string(),
            });
        }
        derive_table_fds(&oracle, &resolved, &paths, p, &mut table, &sources, budget)?;
        tables.push(table);
        maps.push(TableMap {
            path: p,
            parent_table,
            sources,
        });
    }

    let root_name: Box<str> = match paths.step(paths.root()) {
        Step::Elem(name) => name.clone(),
        _ => unreachable!("the root path is an element path"),
    };
    Ok(ShredSchema {
        design: RelDesign { tables },
        paths,
        maps,
        root_name,
    })
}

/// Derives the Σ-implied FDs over one table's columns through the
/// chase, records them in `table.fds`, and distills unique keys.
///
/// Every chase query is anchored at the table's path `p`: for a set `X`
/// of column paths, `X → p` makes `X` a superkey (the surrogate id *is*
/// the node), otherwise each implied, non-trivial `X → y` onto a value
/// column is recorded — precisely an anomalous FD of Definition 8
/// localized to this table. FDs onto the parent column are deliberately
/// not derived: Definition 8 only ranges over attribute and text
/// right-hand sides, so `X → parent(p)` without `X → p` is not an
/// anomaly and must not read as a BCNF defect.
///
/// On a simple chase the key and each value column are first asked about
/// their largest left-hand side, and every later question is answered
/// from its [`Target`]'s frontier where monotonicity decides it, so a
/// target that nothing implies costs one chase. The FDs and keys are
/// those that asking the chase about every left-hand side records.
fn derive_table_fds(
    oracle: &ImplicationCache<'_>,
    sigma: &[ResolvedFd],
    paths: &PathSet,
    p: PathId,
    table: &mut TableSchema,
    sources: &[ColSource],
    budget: &Budget,
) -> Result<()> {
    let ncols = table.columns.len();
    let col_path = |i: usize| -> Option<PathId> {
        match &sources[i] {
            ColSource::Id => Some(p),
            ColSource::Parent => paths.parent(p),
            ColSource::Pos | ColSource::InlinePos(_) => None,
            ColSource::Attr(name) => paths.resolve(&paths.path(p).child_attr(name.clone())),
            ColSource::Text => paths.resolve(&paths.path(p).child_text()),
            ColSource::InlineText(name) => {
                paths.resolve(&paths.path(p).child_elem(name.clone()).child_text())
            }
        }
    };
    let id_col = 0usize;
    let (mut parent_col, mut pos_col) = (None, None);
    let mut value_cols: Vec<(usize, PathId)> = Vec::new();
    let mut lhs_candidates: Vec<(usize, PathId)> = Vec::new();
    for (i, source) in sources.iter().enumerate() {
        match source {
            ColSource::Id | ColSource::InlinePos(_) => {}
            ColSource::Parent => {
                parent_col = Some(i);
                if let Some(q) = col_path(i) {
                    lhs_candidates.push((i, q));
                }
            }
            ColSource::Pos => pos_col = Some(i),
            ColSource::Attr(_) | ColSource::Text | ColSource::InlineText(_) => {
                if let Some(q) = col_path(i) {
                    value_cols.push((i, q));
                    lhs_candidates.push((i, q));
                }
            }
        }
    }

    let mut fds = FdSet::new();
    // Structural axioms: the surrogate id is the node, and a node is
    // its parent's child at its position.
    fds.push(Fd::new(AttrSet::singleton(id_col), AttrSet::full(ncols)));
    if let (Some(parent), Some(pos)) = (parent_col, pos_col) {
        let mut lhs = AttrSet::singleton(parent);
        lhs.insert(pos);
        fds.push(Fd::new(lhs, AttrSet::singleton(id_col)));
    }

    // Left-hand sides to probe: the full powerset on narrow tables,
    // singletons + pairs + Σ-mapped sets on wide ones.
    let mut lhs_sets: Vec<AttrSet> = Vec::new();
    if lhs_candidates.len() <= FD_ENUMERATION_WIDTH {
        for mask in 1u32..(1 << lhs_candidates.len()) {
            lhs_sets.push(attr_set(
                (0..lhs_candidates.len())
                    .filter(|b| mask & (1 << b) != 0)
                    .map(|b| lhs_candidates[b].0),
            ));
        }
    } else {
        for &(i, _) in &lhs_candidates {
            lhs_sets.push(AttrSet::singleton(i));
        }
        for &(a, _) in &lhs_candidates {
            for &(b, _) in &lhs_candidates {
                if a < b {
                    lhs_sets.push(attr_set([a, b]));
                }
            }
        }
        // Σ FDs whose left-hand side lies entirely in this table keep
        // their exact shape even past the width cap.
        let by_path: BTreeMap<PathId, usize> =
            lhs_candidates.iter().map(|&(i, q)| (q, i)).collect();
        for fd in sigma {
            let cols: Option<Vec<usize>> = fd.lhs.iter().map(|q| by_path.get(q).copied()).collect();
            if let Some(cols) = cols {
                if cols.len() > 2 {
                    lhs_sets.push(attr_set(cols));
                }
            }
        }
    }

    let mut col_paths = vec![None; ncols];
    for &(i, q) in &lhs_candidates {
        col_paths[i] = Some(q);
    }
    let probe = Probe {
        oracle,
        sigma,
        col_paths,
        monotone: oracle.chase().is_simple(),
    };
    let mut key = Target::new(p, false);
    let mut implied: Vec<Target> = value_cols
        .iter()
        .map(|&(_, q)| Target::new(q, false))
        .collect();
    let mut trivial: Vec<Target> = value_cols
        .iter()
        .map(|&(_, q)| Target::new(q, true))
        .collect();
    if probe.monotone {
        let all = attr_set(lhs_candidates.iter().map(|&(i, _)| i));
        if !all.is_empty() {
            probe.ask(&mut key, all)?;
        }
        for (target, &(y, _)) in implied.iter_mut().zip(&value_cols) {
            let rest = all.minus(AttrSet::singleton(y));
            if !rest.is_empty() {
                probe.ask(target, rest)?;
            }
        }
    }

    let mut key_sets: Vec<AttrSet> = Vec::new();
    for lhs in lhs_sets {
        budget.checkpoint("shred.fd")?;
        if probe.ask(&mut key, lhs)? {
            fds.push(Fd::new(lhs, AttrSet::singleton(id_col)));
            key_sets.push(lhs);
            continue;
        }
        for (k, &(y, _)) in value_cols.iter().enumerate() {
            if lhs.contains(y) {
                continue;
            }
            budget.checkpoint("shred.fd")?;
            if probe.ask(&mut implied[k], lhs)? && !probe.ask(&mut trivial[k], lhs)? {
                fds.push(Fd::new(lhs, AttrSet::singleton(y)));
            }
        }
    }

    // Unique keys: minimal derived keys over data columns only (the
    // structural (parent, pos) pair is added as an integrity key).
    let data_cols = attr_set(value_cols.iter().map(|&(i, _)| i));
    let mut unique: Vec<AttrSet> = key_sets
        .iter()
        .copied()
        .filter(|&k| k.is_subset(data_cols))
        .collect();
    unique.retain(|&k| {
        !key_sets
            .iter()
            .any(|&other| other != k && other.is_subset(k))
    });
    unique.sort();
    unique.dedup();
    for key in unique {
        table
            .unique_keys
            .push(key.iter().map(|i| table.columns[i].name.clone()).collect());
    }
    if let (Some(parent), Some(pos)) = (parent_col, pos_col) {
        table.unique_keys.push(vec![
            table.columns[parent].name.clone(),
            table.columns[pos].name.clone(),
        ]);
    }
    table.fds = fds;
    Ok(())
}

/// The set of the given column indices.
fn attr_set(cols: impl IntoIterator<Item = usize>) -> AttrSet {
    cols.into_iter().fold(AttrSet::empty(), |mut s, i| {
        s.insert(i);
        s
    })
}

/// One question that [`derive_table_fds`] asks about many left-hand sides
/// `X` of a table: whether `X → q` follows from Σ, or from ∅ when the
/// question is the triviality of `X → q`, for one fixed `q`. On a simple
/// chase the answer is monotone in `X`, so the sets the chase has answered
/// decide every superset of an implied one and every subset of a refuted
/// one.
struct Target {
    q: PathId,
    trivial: bool,
    /// Left-hand sides the chase found implied.
    implied: Vec<AttrSet>,
    /// Left-hand sides the chase refuted.
    refuted: Vec<AttrSet>,
}

impl Target {
    fn new(q: PathId, trivial: bool) -> Target {
        Target {
            q,
            trivial,
            implied: Vec::new(),
            refuted: Vec::new(),
        }
    }

    /// The verdict on `lhs` that the answered sets decide, if any.
    fn inferred(&self, lhs: AttrSet) -> Option<bool> {
        if self.implied.iter().any(|&s| s.is_subset(lhs)) {
            Some(true)
        } else if self.refuted.iter().any(|&s| lhs.is_subset(s)) {
            Some(false)
        } else {
            None
        }
    }
}

/// Asks the chase about one table's [`Target`]s.
struct Probe<'o, 'a> {
    oracle: &'o ImplicationCache<'a>,
    sigma: &'o [ResolvedFd],
    /// Each column's path, `None` for the columns no left-hand side holds.
    col_paths: Vec<Option<PathId>>,
    /// Whether the chase is simple, so that a target's verdicts are
    /// monotone in the left-hand side. A chase with case splits answers
    /// under a split budget that reads Σ in order, so every question goes
    /// to the chase there.
    monotone: bool,
}

impl Probe<'_, '_> {
    /// `target`'s verdict on `lhs`: inferred from its frontier when the
    /// chase is simple and the frontier decides, asked of the chase (and
    /// added to the frontier) otherwise.
    fn ask(&self, target: &mut Target, lhs: AttrSet) -> Result<bool> {
        let sigma = if target.trivial { &[] } else { self.sigma };
        let fd = || {
            let lhs_ids = lhs
                .iter()
                .map(|i| self.col_paths[i].expect("lhs columns have paths"));
            ResolvedFd::from_ids(lhs_ids, [target.q])
        };
        if !self.monotone {
            return Ok(self.oracle.try_implies(sigma, &fd())?);
        }
        if let Some(verdict) = target.inferred(lhs) {
            debug_assert_eq!(
                verdict,
                self.oracle.chase().implies(sigma, &fd()),
                "the frontier inferred a verdict the chase does not give"
            );
            return Ok(verdict);
        }
        let verdict = self.oracle.try_implies(sigma, &fd())?;
        if verdict {
            target.implied.push(lhs);
        } else {
            target.refuted.push(lhs);
        }
        Ok(verdict)
    }
}

/// Shreds a document into rows for every table of `schema`. The tree
/// must be compatible with the schema's DTD (every node lies at some
/// element path and singleton children are actually singleton); order
/// is captured in the position columns, so [`unshred_document`]
/// reconstructs the document *exactly*.
pub fn shred_document(
    schema: &ShredSchema,
    tree: &XmlTree,
    budget: &Budget,
) -> Result<ShreddedDoc> {
    let _span = budget.recorder().span("shred.rows", "shred");
    if tree.label(tree.root()) != &*schema.root_name {
        return Err(CoreError::NotCompatible);
    }
    // Node → ordinal per table: nodes_at returns document order, which
    // fixes the surrogate ids.
    let mut ordinal: HashMap<NodeId, u64> = HashMap::new();
    let mut per_table: Vec<Vec<NodeId>> = Vec::with_capacity(schema.maps.len());
    let mut covered = 0usize;
    for map in &schema.maps {
        let nodes = nodes_at(tree, &schema.paths.path(map.path));
        for (ord, &v) in nodes.iter().enumerate() {
            ordinal.insert(v, ord as u64);
        }
        covered += nodes.len();
        per_table.push(nodes);
    }

    // Resolves the singleton child `name` of `v`, checking it really is
    // a lone, attribute-free node without element children.
    let singleton_child = |v: NodeId, name: &str| -> Result<NodeId> {
        let found = tree.children_labelled(v, name);
        let [child] = found[..] else {
            return Err(CoreError::NotCompatible);
        };
        if tree.num_attrs(child) > 0 || !tree.children(child).is_empty() {
            return Err(CoreError::NotCompatible);
        }
        Ok(child)
    };
    let child_pos = |v: NodeId| -> u64 {
        let parent = tree.parent(v).expect("non-root nodes have parents");
        tree.children(parent)
            .iter()
            .position(|&c| c == v)
            .expect("children lists contain their members") as u64
    };

    let mut tables = Vec::with_capacity(schema.maps.len());
    for (ix, map) in schema.maps.iter().enumerate() {
        let mut rows = Vec::with_capacity(per_table[ix].len());
        for (ord, &v) in per_table[ix].iter().enumerate() {
            budget.checkpoint("shred.row")?;
            let mut row = Vec::with_capacity(map.sources.len());
            for source in &map.sources {
                row.push(match source {
                    ColSource::Id => Value::Vert(ord as u64),
                    ColSource::Parent => {
                        let parent = tree.parent(v).expect("non-root nodes have parents");
                        Value::Vert(*ordinal.get(&parent).ok_or(CoreError::NotCompatible)?)
                    }
                    ColSource::Pos => Value::Vert(child_pos(v)),
                    ColSource::Attr(name) => tree.attr(v, name).map_or(Value::Null, Value::str),
                    ColSource::Text => tree.text(v).map_or(Value::Null, Value::str),
                    ColSource::InlineText(name) => {
                        let child = singleton_child(v, name)?;
                        covered += 1;
                        tree.text(child).map_or(Value::Null, Value::str)
                    }
                    ColSource::InlinePos(name) => Value::Vert(child_pos(singleton_child(v, name)?)),
                });
            }
            rows.push(row);
        }
        tables.push(TableRows {
            table: schema.design.tables[ix].name.clone(),
            rows,
        });
    }
    if covered != tree.num_nodes() {
        // Some node sits at no element path of D: not shreddable.
        return Err(CoreError::NotCompatible);
    }
    Ok(ShreddedDoc { tables })
}

/// A child slot of a node being rebuilt: a nested row to recurse into
/// or an inlined leaf to materialize directly. Ordered by the recorded
/// position, restoring the exact child sequence.
enum ChildSlot {
    /// `(table, row)` of a child-table row.
    Row(usize, usize),
    /// Inlined singleton: label and optional text.
    Leaf(Box<str>, Option<Box<str>>),
}

/// Reconstructs the document from shredded rows: the exact inverse of
/// [`shred_document`] (child order is restored from the position
/// columns). Fails with a structured [`CoreError::InconsistentTuples`]
/// on tampered rows — dangling parents, duplicated positions, arity
/// mismatches — never panics.
pub fn unshred_document(
    schema: &ShredSchema,
    doc: &ShreddedDoc,
    budget: &Budget,
) -> Result<XmlTree> {
    let _span = budget.recorder().span("shred.rebuild", "shred");
    let shred_err = |msg: String| CoreError::InconsistentTuples(msg);
    if doc.tables.len() != schema.maps.len() {
        return Err(shred_err(format!(
            "expected rows for {} tables, got {}",
            schema.maps.len(),
            doc.tables.len()
        )));
    }
    let vert = |v: &Value, what: &str| -> Result<u64> {
        match v {
            Value::Vert(n) => Ok(*n),
            other => Err(shred_err(format!("{what} must be an ordinal, got {other}"))),
        }
    };

    // Nested-row children of each node, keyed by (table, surrogate id)
    // of the parent; consumed as parents materialize. Each child is its
    // position ordinal plus its own (table, row) coordinates.
    type ChildRef = (u64, usize, usize);
    let mut children: HashMap<(usize, u64), Vec<ChildRef>> = HashMap::new();
    let mut root_row: Option<usize> = None;
    for (ix, (map, rows)) in schema.maps.iter().zip(&doc.tables).enumerate() {
        if rows.table != schema.design.tables[ix].name {
            return Err(shred_err(format!(
                "table `{}` out of place (expected `{}`)",
                rows.table, schema.design.tables[ix].name
            )));
        }
        let (id_col, parent_col, pos_col) = structural_columns(&map.sources);
        for (r, row) in rows.rows.iter().enumerate() {
            budget.checkpoint("shred.rebuild")?;
            if row.len() != map.sources.len() {
                return Err(shred_err(format!(
                    "table `{}` row has {} values, schema has {} columns",
                    rows.table,
                    row.len(),
                    map.sources.len()
                )));
            }
            match map.parent_table {
                None => {
                    if vert(&row[id_col], "xnf_id")? != 0 || root_row.replace(r).is_some() {
                        return Err(shred_err("the root table must hold exactly row 0".into()));
                    }
                }
                Some(pt) => {
                    let parent = vert(
                        &row[parent_col.expect("non-root tables have parents")],
                        "xnf_parent",
                    )?;
                    let pos = vert(
                        &row[pos_col.expect("non-root tables have positions")],
                        "xnf_pos",
                    )?;
                    children.entry((pt, parent)).or_default().push((pos, ix, r));
                }
            }
        }
    }
    let root_row = root_row.ok_or_else(|| shred_err("missing root row".into()))?;

    let mut tree = XmlTree::new(schema.root_name.clone());
    let mut placed = 1usize;
    // Depth-first rebuild: (table, row, node). Parents always
    // materialize before their child rows are consumed, so traversal
    // order is otherwise irrelevant.
    let mut stack: Vec<(usize, usize, NodeId)> = vec![(0, root_row, tree.root())];
    while let Some((ix, r, node)) = stack.pop() {
        budget.checkpoint("shred.rebuild")?;
        let map = &schema.maps[ix];
        let row = &doc.tables[ix].rows[r];

        // Data columns and inlined-child slots of this row.
        let mut inline_text: BTreeMap<&str, Option<Box<str>>> = BTreeMap::new();
        let mut slots: Vec<(u64, ChildSlot)> = Vec::new();
        for (source, value) in map.sources.iter().zip(row) {
            match (source, value) {
                (ColSource::Attr(name), Value::Str(s)) => {
                    tree.set_attr(node, name.clone(), s.clone());
                }
                (ColSource::Text, Value::Str(s)) => tree.set_text(node, s.clone()),
                (ColSource::InlineText(name), v) => {
                    inline_text.insert(
                        name,
                        match v {
                            Value::Str(s) => Some(s.clone()),
                            _ => None,
                        },
                    );
                }
                (ColSource::InlinePos(name), v) => {
                    let text = inline_text
                        .remove(&**name)
                        .ok_or_else(|| shred_err(format!("stray inlined column `{name}`")))?;
                    slots.push((
                        vert(v, "inlined position")?,
                        ChildSlot::Leaf(name.clone(), text),
                    ));
                }
                _ => {}
            }
        }

        // Nested rows claiming this node as their parent.
        let (id_col, _, _) = structural_columns(&map.sources);
        let id = vert(&row[id_col], "xnf_id")?;
        for (pos, cix, cr) in children.remove(&(ix, id)).unwrap_or_default() {
            slots.push((pos, ChildSlot::Row(cix, cr)));
        }

        // Interleave inlined leaves and nested rows by recorded
        // position; a duplicated position cannot come from a shred.
        slots.sort_by_key(|&(pos, _)| pos);
        if slots.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(shred_err(format!(
                "node {id} of `{}` has two children at one position",
                doc.tables[ix].table
            )));
        }
        if !slots.is_empty() && tree.text(node).is_some() {
            return Err(shred_err(format!(
                "node {id} of `{}` has both text and element children",
                doc.tables[ix].table
            )));
        }
        for (_, slot) in slots {
            match slot {
                ChildSlot::Leaf(label, text) => {
                    let leaf = tree.add_child(node, label);
                    if let Some(text) = text {
                        tree.set_text(leaf, text);
                    }
                }
                ChildSlot::Row(cix, cr) => {
                    let label = match schema.paths.step(schema.maps[cix].path) {
                        Step::Elem(name) => name.clone(),
                        _ => unreachable!("table paths are element paths"),
                    };
                    let child = tree.add_child(node, label);
                    stack.push((cix, cr, child));
                    placed += 1;
                }
            }
        }
    }
    let total: usize = doc.tables.iter().map(|t| t.rows.len()).sum();
    if placed != total {
        return Err(shred_err(format!(
            "{} of {total} rows are orphaned (dangling xnf_parent)",
            total - placed
        )));
    }
    Ok(tree)
}

/// Positions of the id / parent / pos columns in a source list.
fn structural_columns(sources: &[ColSource]) -> (usize, Option<usize>, Option<usize>) {
    let mut id = 0;
    let (mut parent, mut pos) = (None, None);
    for (i, s) in sources.iter().enumerate() {
        match s {
            ColSource::Id => id = i,
            ColSource::Parent => parent = Some(i),
            ColSource::Pos => pos = Some(i),
            _ => {}
        }
    }
    (id, parent, pos)
}

/// Sanitizes a DTD name into a SQL identifier (`[A-Za-z0-9_]`, not
/// starting with a digit).
fn sanitize_ident(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, 't');
    }
    out
}

/// Appends numeric suffixes until `base` clashes with no existing
/// column.
fn unique_column_name(columns: &[Column], base: &str) -> String {
    if !columns.iter().any(|c| c.name == base) {
        return base.to_string();
    }
    let mut n = 2;
    loop {
        let candidate = format!("{base}_{n}");
        if !columns.iter().any(|c| c.name == candidate) {
            return candidate;
        }
        n += 1;
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::exhaustive_design;
    use super::*;
    use crate::fd::{DBLP_FDS, UNIVERSITY_FDS};
    use crate::fixtures::{dblp_doc, dblp_dtd, figure_1a, university_dtd};
    use xnf_xml::ordered_eq;

    fn compile(dtd: &Dtd, fds: &str) -> ShredSchema {
        let sigma = XmlFdSet::parse(fds).expect("fixture FDs parse");
        compile_schema(dtd, &sigma, crate::UNLIMITED).expect("fixture compiles")
    }

    #[test]
    fn university_schema_inlines_singleton_text_children() {
        let schema = compile(&university_dtd(), UNIVERSITY_FDS);
        let names: Vec<&str> = schema
            .design
            .tables
            .iter()
            .map(|t| t.name.as_str())
            .collect();
        assert_eq!(names, ["courses", "course", "taken_by", "student"]);
        let course = schema.design.table("course").unwrap();
        let cols: Vec<&str> = course.columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            cols,
            [
                "xnf_id",
                "xnf_parent",
                "xnf_pos",
                "cno",
                "title",
                "title_pos"
            ]
        );
        // FD1 (@cno → course) makes the attribute a data key.
        assert!(course.unique_keys.contains(&vec!["cno".to_string()]));
        assert_eq!(course.foreign_key.as_ref().unwrap().parent_table, "courses");
        let student = schema.design.table("student").unwrap();
        let cols: Vec<&str> = student.columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            cols,
            [
                "xnf_id",
                "xnf_parent",
                "xnf_pos",
                "sno",
                "name",
                "name_pos",
                "grade",
                "grade_pos"
            ]
        );
    }

    #[test]
    fn university_round_trip_is_exact() {
        let schema = compile(&university_dtd(), UNIVERSITY_FDS);
        let doc = figure_1a();
        let rows = shred_document(&schema, &doc, crate::UNLIMITED).unwrap();
        // 19 nodes; the 10 singleton text leaves are inlined.
        assert_eq!(rows.row_count(), 9);
        let back = unshred_document(&schema, &rows, crate::UNLIMITED).unwrap();
        assert!(ordered_eq(&doc, &back));
    }

    #[test]
    fn dblp_round_trip_is_exact() {
        let schema = compile(&dblp_dtd(), DBLP_FDS);
        let names: Vec<&str> = schema
            .design
            .tables
            .iter()
            .map(|t| t.name.as_str())
            .collect();
        assert_eq!(names, ["db", "conf", "issue", "inproceedings", "author"]);
        let doc = dblp_doc();
        let rows = shred_document(&schema, &doc, crate::UNLIMITED).unwrap();
        let back = unshred_document(&schema, &rows, crate::UNLIMITED).unwrap();
        assert!(ordered_eq(&doc, &back));
    }

    #[test]
    fn anomalous_specs_surface_paper_fds_as_bcnf_violations() {
        // University: (FD3) @sno → name.S violates BCNF in `student`.
        let schema = compile(&university_dtd(), UNIVERSITY_FDS);
        let bad = schema.non_bcnf_tables();
        assert_eq!(bad.len(), 1, "only `student` should violate: {bad:?}");
        let (ix, name, fd) = &bad[0];
        assert_eq!(name, "student");
        assert_eq!(
            schema.violation_as_xml_fd(*ix, fd).unwrap().to_string(),
            "courses.course.taken_by.student.@sno -> \
             courses.course.taken_by.student.name.S"
        );

        // DBLP: (FD5) issue → @year violates BCNF in `inproceedings`,
        // while (FD4) title.S → conf is just a key of `conf`.
        let schema = compile(&dblp_dtd(), DBLP_FDS);
        let bad = schema.non_bcnf_tables();
        assert_eq!(bad.len(), 1, "only `inproceedings` should violate: {bad:?}");
        let (ix, name, fd) = &bad[0];
        assert_eq!(name, "inproceedings");
        assert_eq!(
            schema.violation_as_xml_fd(*ix, fd).unwrap().to_string(),
            "db.conf.issue -> db.conf.issue.inproceedings.@year"
        );
        let conf = schema.design.table("conf").unwrap();
        assert!(conf.unique_keys.contains(&vec!["title".to_string()]));
    }

    #[test]
    fn normalized_specs_shred_to_all_bcnf_tables() {
        for (dtd, fds) in [(university_dtd(), UNIVERSITY_FDS), (dblp_dtd(), DBLP_FDS)] {
            let sigma = XmlFdSet::parse(fds).unwrap();
            let norm = crate::normalize(&dtd, &sigma, &crate::NormalizeOptions::default()).unwrap();
            let schema = compile_schema(&norm.dtd, &norm.sigma, crate::UNLIMITED).unwrap();
            assert!(
                schema.non_bcnf_tables().is_empty(),
                "XNF output must shred to BCNF tables, got {:?}",
                schema.non_bcnf_tables()
            );
        }
    }

    #[test]
    fn colliding_leaf_names_fall_back_to_path_names() {
        let dtd = xnf_dtd::parse_dtd(
            "<!ELEMENT r (a*, b*)>
             <!ELEMENT a (x*)>
             <!ELEMENT b (x*)>
             <!ELEMENT x (#PCDATA)>",
        )
        .unwrap();
        let schema = compile_schema(&dtd, &XmlFdSet::new(), crate::UNLIMITED).unwrap();
        let names: Vec<&str> = schema
            .design
            .tables
            .iter()
            .map(|t| t.name.as_str())
            .collect();
        assert_eq!(names, ["r", "a", "b", "r_a_x", "r_b_x"]);
    }

    #[test]
    fn recursive_dtds_are_rejected() {
        let dtd = xnf_dtd::parse_dtd(
            "<!ELEMENT r (part)>
             <!ELEMENT part (part*)>",
        )
        .unwrap();
        assert!(matches!(
            compile_schema(&dtd, &XmlFdSet::new(), crate::UNLIMITED),
            Err(CoreError::RecursiveNormalization)
        ));
    }

    #[test]
    fn incompatible_documents_are_refused() {
        let schema = compile(&university_dtd(), UNIVERSITY_FDS);
        for doc in [
            // Wrong root.
            "<wrong/>",
            // A node at no path of D.
            "<courses><foo/></courses>",
            // A duplicated singleton-text child.
            r#"<courses><course cno="c"><title>a</title><title>b</title>
               <taken_by/></course></courses>"#,
        ] {
            let t = xnf_xml::parse(doc).unwrap();
            assert!(
                matches!(
                    shred_document(&schema, &t, crate::UNLIMITED),
                    Err(CoreError::NotCompatible)
                ),
                "{doc} must be refused"
            );
        }
    }

    #[test]
    fn tampered_rows_surface_structured_errors() {
        let schema = compile(&university_dtd(), UNIVERSITY_FDS);
        let good = shred_document(&schema, &figure_1a(), crate::UNLIMITED).unwrap();
        let rebuild = |doc: &ShreddedDoc| unshred_document(&schema, doc, crate::UNLIMITED);
        assert!(rebuild(&good).is_ok());

        // Dangling parent pointer.
        let mut bad = good.clone();
        bad.tables.last_mut().unwrap().rows[0][1] = Value::Vert(99);
        assert!(matches!(
            rebuild(&bad),
            Err(CoreError::InconsistentTuples(_))
        ));

        // Two children at one position.
        let mut bad = good.clone();
        let student = bad.tables.last_mut().unwrap();
        student.rows[1][1] = student.rows[0][1].clone();
        student.rows[1][2] = student.rows[0][2].clone();
        assert!(matches!(
            rebuild(&bad),
            Err(CoreError::InconsistentTuples(_))
        ));

        // Arity mismatch.
        let mut bad = good.clone();
        bad.tables[0].rows[0].push(Value::Null);
        assert!(matches!(
            rebuild(&bad),
            Err(CoreError::InconsistentTuples(_))
        ));

        // A string where an ordinal belongs.
        let mut bad = good.clone();
        bad.tables.last_mut().unwrap().rows[0][2] = Value::str("zero");
        assert!(matches!(
            rebuild(&bad),
            Err(CoreError::InconsistentTuples(_))
        ));
    }

    /// An exclusive group makes the chase split, so every left-hand side
    /// goes to the chase, as in the exhaustive loop.
    #[test]
    fn a_disjunctive_spec_asks_every_lhs() {
        let dtd = xnf_dtd::parse_dtd(
            "<!ELEMENT r (e*)>\n<!ELEMENT e (a | b)>\n<!ATTLIST e k CDATA #REQUIRED \
             v CDATA #REQUIRED w CDATA #REQUIRED>\n<!ELEMENT a EMPTY>\n<!ELEMENT b EMPTY>",
        )
        .unwrap();
        let sigma = XmlFdSet::parse("r.e.@k -> r.e.@v").unwrap();
        let counting = || {
            Budget::builder()
                .recorder(xnf_obs::Recorder::enabled())
                .build()
        };
        let chase_runs = |budget: &Budget| {
            budget
                .recorder()
                .sites()
                .into_iter()
                .find(|&(site, _)| site == "chase.run")
                .map_or(0, |(_, tally)| tally.visits)
        };
        let budget = counting();
        let schema = compile_schema(&dtd, &sigma, &budget).unwrap();
        let reference = counting();
        let design = exhaustive_design(&dtd, &sigma, &schema, &reference).unwrap();
        assert_eq!(schema.design, design);
        assert_eq!(chase_runs(&budget), chase_runs(&reference));
        assert!(chase_runs(&budget) > 0);
    }

    #[test]
    fn governed_shred_exhausts_cleanly_and_never_lies() {
        let dtd = university_dtd();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        let doc = figure_1a();
        let tiny = Budget::builder().fuel(1).build();
        assert!(matches!(
            compile_schema(&dtd, &sigma, &tiny),
            Err(CoreError::Exhausted(_))
        ));

        let mut fuel = 1u64;
        loop {
            assert!(fuel < 1 << 30, "pipeline never fit in the fuel sweep");
            let budget = Budget::builder().fuel(fuel).build();
            let result = compile_schema(&dtd, &sigma, &budget)
                .and_then(|s| shred_document(&s, &doc, &budget).map(|rows| (s, rows)))
                .and_then(|(s, rows)| unshred_document(&s, &rows, &budget));
            match result {
                Ok(back) => {
                    assert!(ordered_eq(&doc, &back));
                    break;
                }
                Err(CoreError::Exhausted(_)) => fuel *= 2,
                Err(e) => panic!("governed shred must exhaust or succeed, got {e}"),
            }
        }
    }
}
