//! The exhaustive derivation of each table's Σ-implied FDs, as
//! `compile_schema` ran it before the frontier of monotone verdicts: every
//! left-hand side is asked of the chase, once as a key and once per value
//! column, on every DTD.
//!
//! `shred.rs`'s unit tests and `tests/shred_frontier_props.rs` use it; the
//! latter includes this file by path. It reads a compiled schema through
//! the public API only, and the including module's parent provides the
//! names imported from `super`.

use super::{
    AttrSet, Budget, Chase, ColumnRole, Dtd, Fd, FdSet, Implication, ImplicationCache, RelDesign,
    ResolvedFd, Result, ShredSchema, XmlFdSet, FD_ENUMERATION_WIDTH,
};
use std::collections::BTreeMap;

/// `schema`'s design with every table's FDs and unique keys derived anew
/// by asking the chase about every left-hand side, through one cache over
/// a chase that charges `budget`.
pub fn exhaustive_design(
    dtd: &Dtd,
    sigma: &XmlFdSet,
    schema: &ShredSchema,
    budget: &Budget,
) -> Result<RelDesign> {
    let paths = dtd.paths()?;
    let resolved = sigma.resolve(&paths)?;
    let chase = Chase::new(dtd, &paths).with_budget(budget.clone());
    let oracle = ImplicationCache::new(&chase, &resolved);
    let mut design = schema.design.clone();
    for (ix, table) in design.tables.iter_mut().enumerate() {
        let p = paths
            .resolve(&schema.table_path(ix))
            .expect("table paths lie in paths(D)");
        let col_path = |i: usize| {
            schema
                .column_path(ix, i)
                .map(|path| paths.resolve(&path).expect("column paths lie in paths(D)"))
        };
        let ncols = table.columns.len();
        let id_col = 0usize;
        let (mut parent_col, mut pos_col) = (None, None);
        let mut value_cols: Vec<(usize, _)> = Vec::new();
        let mut lhs_candidates: Vec<(usize, _)> = Vec::new();
        for (i, column) in table.columns.iter().enumerate() {
            match column.role {
                ColumnRole::Id => {}
                ColumnRole::Parent => {
                    parent_col = Some(i);
                    if let Some(q) = col_path(i) {
                        lhs_candidates.push((i, q));
                    }
                }
                // The table's own position column comes first; the
                // inlined children's follow their text columns.
                ColumnRole::Pos => {
                    pos_col = pos_col.or(Some(i));
                }
                ColumnRole::Attr | ColumnRole::Text => {
                    if let Some(q) = col_path(i) {
                        value_cols.push((i, q));
                        lhs_candidates.push((i, q));
                    }
                }
            }
        }

        let mut fds = FdSet::new();
        fds.push(Fd::new(AttrSet::singleton(id_col), AttrSet::full(ncols)));
        if let (Some(parent), Some(pos)) = (parent_col, pos_col) {
            let mut lhs = AttrSet::singleton(parent);
            lhs.insert(pos);
            fds.push(Fd::new(lhs, AttrSet::singleton(id_col)));
        }

        let mut lhs_sets: Vec<Vec<usize>> = Vec::new();
        if lhs_candidates.len() <= FD_ENUMERATION_WIDTH {
            for mask in 1u32..(1 << lhs_candidates.len()) {
                lhs_sets.push(
                    (0..lhs_candidates.len())
                        .filter(|b| mask & (1 << b) != 0)
                        .map(|b| lhs_candidates[b].0)
                        .collect(),
                );
            }
        } else {
            for &(i, _) in &lhs_candidates {
                lhs_sets.push(vec![i]);
            }
            for &(a, _) in &lhs_candidates {
                for &(b, _) in &lhs_candidates {
                    if a < b {
                        lhs_sets.push(vec![a, b]);
                    }
                }
            }
            let by_path: BTreeMap<_, usize> = lhs_candidates.iter().map(|&(i, q)| (q, i)).collect();
            for fd in &resolved {
                let cols: Option<Vec<usize>> =
                    fd.lhs.iter().map(|q| by_path.get(q).copied()).collect();
                if let Some(cols) = cols {
                    if cols.len() > 2 {
                        lhs_sets.push(cols);
                    }
                }
            }
        }

        let mut key_sets: Vec<AttrSet> = Vec::new();
        for cols in lhs_sets {
            budget.checkpoint("shred.fd")?;
            let lhs_ids: Vec<_> = cols
                .iter()
                .map(|&i| col_path(i).expect("lhs candidates are chase-representable"))
                .collect();
            let mut lhs = AttrSet::empty();
            for &i in &cols {
                lhs.insert(i);
            }
            let node_fd = ResolvedFd::from_ids(lhs_ids.iter().copied(), [p]);
            if oracle.try_implies(&resolved, &node_fd)? {
                fds.push(Fd::new(lhs, AttrSet::singleton(id_col)));
                key_sets.push(lhs);
                continue;
            }
            for &(y, yq) in &value_cols {
                if lhs.contains(y) {
                    continue;
                }
                budget.checkpoint("shred.fd")?;
                let fd = ResolvedFd::from_ids(lhs_ids.iter().copied(), [yq]);
                if oracle.try_implies(&resolved, &fd)? && !oracle.try_is_trivial(&fd)? {
                    fds.push(Fd::new(lhs, AttrSet::singleton(y)));
                }
            }
        }

        let data_cols: AttrSet = value_cols.iter().fold(AttrSet::empty(), |mut s, &(i, _)| {
            s.insert(i);
            s
        });
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
        table.unique_keys = unique
            .into_iter()
            .map(|key| key.iter().map(|i| table.columns[i].name.clone()).collect())
            .collect();
        if let (Some(parent), Some(pos)) = (parent_col, pos_col) {
            table.unique_keys.push(vec![
                table.columns[parent].name.clone(),
                table.columns[pos].name.clone(),
            ]);
        }
        table.fds = fds;
    }
    Ok(design)
}
