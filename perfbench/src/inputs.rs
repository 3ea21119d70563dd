//! Seeded workload inputs.
//!
//! The seed relabels names and values but never changes the shape of a
//! spec or document: the engine's tie-breaking is structural, so a
//! relabelled input costs what the original costs while its bytes (and
//! every cache key derived from them) differ from seed to seed.

use rand::Rng as _;
use xnf_xml::XmlTree;

/// The workspace's seeded generator.
pub type Rng = rand::rngs::StdRng;

/// A lowercase tag of `len` letters.
fn tag(rng: &mut Rng, len: usize) -> String {
    (0..len)
        .map(|_| char::from(rng.random_range(b'a'..=b'z')))
        .collect()
}

/// One `(D, Σ)` spec as source text.
#[derive(Clone)]
pub struct Spec {
    /// Display name (`university`, `family8`, …).
    pub name: String,
    pub dtd: String,
    pub fds: String,
    /// The root element's name, the token cold service requests rename.
    pub root: String,
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Rewrites every maximal name token (`[A-Za-z0-9_]+`) of `text` that
/// `map` relabels, leaving punctuation, paths separators and all other
/// tokens untouched.
pub fn rename_tokens(text: &str, map: impl Fn(&str) -> Option<String>) -> String {
    let bytes = text.as_bytes();
    let mut out = String::with_capacity(text.len() + 16);
    let mut i = 0;
    while i < bytes.len() {
        if is_name_byte(bytes[i]) {
            let start = i;
            while i < bytes.len() && is_name_byte(bytes[i]) {
                i += 1;
            }
            let token = &text[start..i];
            match map(token) {
                Some(new) => out.push_str(&new),
                None => out.push_str(token),
            }
        } else {
            let start = i;
            while i < bytes.len() && !is_name_byte(bytes[i]) {
                i += 1;
            }
            out.push_str(&text[start..i]);
        }
    }
    out
}

/// Renames the single token `from` to `to`.
pub fn rename_one(text: &str, from: &str, to: &str) -> String {
    rename_tokens(text, |t| (t == from).then(|| to.to_string()))
}

/// A generated spec whose names are `root` and `<stem><digits>`: the
/// root and every stem are replaced by seeded ones.
fn relabel_generated(name: String, dtd: &str, fds: &str, stems: &[&str], rng: &mut Rng) -> Spec {
    let stems: Vec<(&str, String)> = stems
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, format!("{}{}", tag(rng, 3), char::from(b'a' + i as u8))))
        .collect();
    let root = format!("r{}", tag(rng, 4));
    let map = |t: &str| -> Option<String> {
        if t == "root" {
            return Some(root.clone());
        }
        stems.iter().find_map(|(old, new)| {
            let digits = t.strip_prefix(old)?;
            (!digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
                .then(|| format!("{new}{digits}"))
        })
    };
    Spec {
        name,
        dtd: rename_tokens(dtd, map),
        fds: rename_tokens(fds, map),
        root: root.clone(),
    }
}

/// The E22 family (`xnf_core::analyze::e22_family(k)`): `k` key FDs
/// whose reversed value fragments force `k` MoveAttribute repairs with
/// heavily overlapping implication queries.
pub fn family_spec(k: usize, rng: &mut Rng) -> Spec {
    let (dtd, sigma) = xnf_core::analyze::e22_family(k);
    relabel_generated(
        format!("family{k}"),
        &dtd.to_string(),
        &sigma.to_string(),
        &["key", "val", "item", "a"],
        rng,
    )
}

/// The E20 wide spec: `xnf_gen::dtd::wide_dtd(width)` with one planted
/// anomalous FD `item_i.@id_i -> item_i.@val_i` per hub, so the sharded
/// candidate search has one fragment shard per hub.
pub fn wide_spec(width: usize, rng: &mut Rng) -> Spec {
    let dtd = xnf_gen::dtd::wide_dtd(width);
    let fds: String = (0..width)
        .map(|i| format!("root.hub{i}.item{i}.@id{i} -> root.hub{i}.item{i}.@val{i}\n"))
        .collect();
    relabel_generated(
        format!("wide{width}"),
        &dtd.to_string(),
        &fds,
        &["hub", "item", "k", "id", "val"],
        rng,
    )
}

/// The three specs of the paper (`examples/specs`): Example 1.1
/// (university), Example 1.2 (DBLP) and the ebXML fragment of Figure 5.
pub const PAPER_SPECS: [(&str, &str, &str, &str); 3] = [
    (
        "university",
        include_str!("../../examples/specs/university.dtd"),
        include_str!("../../examples/specs/university.fds"),
        "courses",
    ),
    (
        "dblp",
        include_str!("../../examples/specs/dblp.dtd"),
        include_str!("../../examples/specs/dblp.fds"),
        "db",
    ),
    (
        "ebxml",
        include_str!("../../examples/specs/ebxml.dtd"),
        include_str!("../../examples/specs/ebxml.fds"),
        "ProcessSpecification",
    ),
];

/// Paper spec `ix` of [`PAPER_SPECS`] with a seeded root element name.
pub fn paper_spec(ix: usize, rng: &mut Rng) -> Spec {
    let (name, dtd, fds, root) = PAPER_SPECS[ix];
    let new_root = format!("{root}_{}", tag(rng, 4));
    Spec {
        name: name.to_string(),
        dtd: rename_one(dtd, root, &new_root),
        fds: rename_one(fds, root, &new_root),
        root: new_root,
    }
}

/// A document for paper spec `spec` (built by [`paper_spec`] from
/// [`PAPER_SPECS`] entry `ix`): the scaled Example 1.1 / 1.2 documents
/// of E23 and the checked-in ebXML document, with every attribute and
/// text value prefixed by a seeded tag (a bijection on values, so each
/// FD of Σ still holds) and the root renamed to match the spec.
pub fn paper_document(ix: usize, spec: &Spec, rng: &mut Rng) -> String {
    let mut tree = match ix {
        0 => xnf_gen::doc::university_document(16, 8, 40, 6),
        1 => xnf_gen::doc::dblp_document(4, 4, 6),
        _ => xnf_xml::parse(include_str!("../../examples/docs/ebxml.xml"))
            .expect("the checked-in ebXML document parses"),
    };
    relabel_values(&mut tree, &tag(rng, 3));
    let xml = xnf_xml::to_string_pretty(&tree);
    rename_one(&xml, PAPER_SPECS[ix].3, &spec.root)
}

fn relabel_values(tree: &mut XmlTree, prefix: &str) {
    let ids: Vec<_> = tree.node_ids().collect();
    for v in ids {
        let attrs: Vec<(String, String)> = tree
            .attrs(v)
            .map(|(k, val)| (k.to_string(), format!("{prefix}{val}")))
            .collect();
        for (k, val) in attrs {
            tree.set_attr(v, k, val);
        }
        if let Some(text) = tree.text(v).map(|t| format!("{prefix}{t}")) {
            tree.set_text(v, text);
        }
    }
}
