//! The FD-set text's one reader, `FdListing::read`, against the loop
//! `XmlFdSet::parse` ran before the listing existed, kept here verbatim
//! as the reference. The two differ only on a `;` after a `#` on the
//! same line (the listing's comment runs to the end of its line), so the
//! generated texts put no `;` after a comment.

use proptest::prelude::*;
use xnf::core::fd::FdListing;
use xnf::core::{CoreError, XmlFdSet};

/// The reference: `XmlFdSet::parse`'s loop before the listing.
fn reference_parse(input: &str) -> Result<XmlFdSet, CoreError> {
    let mut fds = Vec::new();
    for line in input.split(['\n', ';']) {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        fds.push(line.parse()?);
    }
    Ok(XmlFdSet::from_fds(fds))
}

/// The trimmed FD texts the reference parses, in source order.
fn reference_texts(input: &str) -> Vec<&str> {
    input
        .split(['\n', ';'])
        .map(str::trim)
        .filter(|t| !t.is_empty() && !t.starts_with('#'))
        .collect()
}

/// FD texts: well-formed (one listed twice), malformed, and blank.
const BODIES: &[&str] = &[
    "r.a -> r",
    "r.a.@k, r.a.b.S -> r.a",
    "db.conf.title.S -> db.conf",
    "r.a -> r",
    "no arrow",
    " -> r.a",
    "r.a ->",
    "r..a -> r",
    "r.a -> r # not a comment",
    "",
];

/// Padding around an FD: ASCII and non-ASCII whitespace.
const PADS: &[&str] = &[
    "",
    " ",
    "\t",
    "  ",
    "\u{a0}",
    "\u{3000}",
    "\u{2003} ",
    " \u{85}",
];

/// Comments, none with a `;`.
const COMMENTS: &[&str] = &["# note", "#", "# r.a -> r", "#\u{3000}x -> y", "##"];

const NEWLINES: &[&str] = &["\n", "\r\n"];

/// One line: its `;`-separated FDs (left pad, body, right pad), a
/// comment index (past the end: none), its newline.
type Line = (Vec<(usize, usize, usize)>, usize, usize);

fn line() -> impl Strategy<Value = Line> {
    let fd = (0..PADS.len(), 0..BODIES.len(), 0..PADS.len());
    (
        prop::collection::vec(fd, 0..4),
        0..COMMENTS.len() + 2,
        0..NEWLINES.len(),
    )
}

/// Renders lines into one text; `terminated` ends the last line too.
fn render(lines: &[Line], terminated: bool) -> String {
    let mut text = String::new();
    for (i, (fds, comment, newline)) in lines.iter().enumerate() {
        let fds: Vec<String> = fds
            .iter()
            .map(|&(l, b, r)| format!("{}{}{}", PADS[l], BODIES[b], PADS[r]))
            .collect();
        text.push_str(&fds.join(";"));
        if let Some(comment) = COMMENTS.get(*comment) {
            if !fds.is_empty() {
                text.push(';');
            }
            text.push_str(PADS[i % PADS.len()]);
            text.push_str(comment);
        }
        if i + 1 < lines.len() || terminated {
            text.push_str(NEWLINES[*newline]);
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The listing's set (or first error) is the reference parse, its
    /// entries are the reference's FD texts in order, and every span
    /// slices the source to its entry's trimmed text.
    #[test]
    fn listing_agrees_with_the_reference_parse(
        lines in prop::collection::vec(line(), 0..6),
        terminated in 0..2u8,
    ) {
        let src = render(&lines, terminated == 1);
        let listing = FdListing::read(&src);
        prop_assert_eq!(listing.to_set(), reference_parse(&src), "{:?}", src);
        prop_assert_eq!(XmlFdSet::parse(&src), reference_parse(&src), "{:?}", src);
        let texts: Vec<&str> = listing
            .entries()
            .iter()
            .map(|e| &src[e.span.clone()])
            .collect();
        prop_assert_eq!(&texts, &reference_texts(&src), "{:?}", src);
        for (entry, text) in listing.entries().iter().zip(&texts) {
            prop_assert_eq!(*text, text.trim(), "{:?}", src);
            prop_assert_eq!(&entry.fd, &text.parse(), "{:?}", src);
        }
    }
}

/// Fixed texts and the FD texts the listing finds in them. In the last,
/// a `;` inside a comment, where the reference splits, ends nothing.
#[test]
fn listing_splits_and_spans() {
    let cases: [(&str, &[&str]); 2] = [
        (
            "# header\na -> b\n\nc, d -> e ; f -> g\n  # trailing comment",
            &["a -> b", "c, d -> e", "f -> g"],
        ),
        (
            "# FD1; the key of a course -> courses.course\nr.a -> r",
            &["r.a -> r"],
        ),
    ];
    for (src, expected) in cases {
        let texts: Vec<&str> = (FdListing::read(src).entries().iter())
            .map(|e| &src[e.span.clone()])
            .collect();
        assert_eq!(texts, expected, "{src:?}");
    }
}
