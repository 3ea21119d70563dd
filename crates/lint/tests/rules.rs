//! Per-rule coverage: every registered lint rule has at least one firing
//! test (a minimal spec mutated to trip it) and one non-firing test (the
//! closest clean spec). The ISSUE's acceptance floor — ≥ 8 distinct coded
//! rules, ≥ 4 structural and ≥ 4 implication-backed — is pinned by
//! `registry_floor` at the bottom.

use xnf_dtd::{DtdListing, ParseLimits};
use xnf_govern::Budget;
use xnf_lint::{lint, lint_spec, Code, LintReport, OptIn, Severity, Tier};

/// The university spec (Figure 1 / Example 1.1) — the canonical clean spec.
const UNIVERSITY_DTD: &str = "\
<!ELEMENT courses (course*)>
<!ELEMENT course (title, taken_by)>
<!ATTLIST course cno CDATA #REQUIRED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT taken_by (student*)>
<!ELEMENT student (name, grade)>
<!ATTLIST student sno CDATA #REQUIRED>
<!ELEMENT name (#PCDATA)>
<!ELEMENT grade (#PCDATA)>";

const UNIVERSITY_FDS: &str = "\
courses.course.@cno -> courses.course
courses.course, courses.course.taken_by.student.@sno -> courses.course.taken_by.student
courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name.S";

fn codes(dtd: &str, fds: Option<&str>) -> Vec<Code> {
    lint_spec(dtd, fds).codes()
}

fn fires(dtd: &str, fds: Option<&str>, code: Code) -> bool {
    codes(dtd, fds).contains(&code)
}

/// The lint with the shred tier, over the listing `lint_spec` reads.
fn lint_shred(dtd: &str) -> LintReport {
    let unlimited = Budget::unlimited();
    let listing = DtdListing::read(dtd, ParseLimits::default(), &unlimited);
    lint(&listing, None, OptIn::Shred, &unlimited).expect("unlimited budget cannot exhaust")
}

#[test]
fn university_spec_is_clean() {
    let report = lint_spec(UNIVERSITY_DTD, Some(UNIVERSITY_FDS));
    assert!(report.is_clean(), "{}", report.render_human());
}

// ---------------------------------------------------------------- XNF001

#[test]
fn xnf001_fires_on_broken_dtd_with_line_col_span() {
    let report = lint_spec("<!ELEMENT r (a)>\n<!ELEMENT a (b >", None);
    assert_eq!(report.codes(), vec![Code::DtdSyntax]);
    let d = &report.diagnostics()[0];
    assert_eq!(d.severity, Severity::Error);
    let span = d.span.as_ref().expect("syntax errors carry a span");
    assert_eq!(span.at.line, 2, "error is on the second line");
}

#[test]
fn xnf001_points_at_the_byte_in_place_of_an_attribute_default() {
    // The declaration's `>` stands where the default's quote should: the
    // caret marks that byte, the last of the 20-byte line, not the one
    // past it.
    let dtd = "<!ELEMENT r EMPTY>\n<!ATTLIST r x CDATA>";
    let report = lint_spec(dtd, None);
    assert_eq!(report.codes(), vec![Code::DtdSyntax]);
    let span = report.diagnostics()[0]
        .span
        .as_ref()
        .expect("syntax errors carry a span");
    assert_eq!((span.at.line, span.at.col), (2, 20));
    assert_eq!(&dtd[span.offset..], ">");
    assert!(report.render_human().contains("--> dtd:2:20\n"));
}

#[test]
fn xnf001_does_not_fire_on_parseable_dtd() {
    assert!(!fires(UNIVERSITY_DTD, None, Code::DtdSyntax));
}

// ---------------------------------------------------------------- XNF002

#[test]
fn xnf002_fires_on_duplicate_element_with_note_to_first() {
    let report = lint_spec(
        "<!ELEMENT r (a)>\n<!ELEMENT a EMPTY>\n<!ELEMENT a (b)>\n<!ELEMENT b EMPTY>",
        None,
    );
    assert!(report.codes().contains(&Code::DuplicateElement));
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::DuplicateElement)
        .unwrap();
    assert_eq!(
        d.span.as_ref().unwrap().at.line,
        3,
        "points at the second decl"
    );
    assert!(d.notes[0].contains("dtd:2:11"), "note: {:?}", d.notes);
}

#[test]
fn xnf002_does_not_fire_without_duplicates() {
    assert!(!fires(UNIVERSITY_DTD, None, Code::DuplicateElement));
}

/// A declaration inside a comment inside a content model declares
/// nothing: the parser skips the comment, and so does the lint.
#[test]
fn xnf002_does_not_fire_on_a_declaration_inside_a_comment() {
    let dtd = "<!ELEMENT r (a <!-- > <!ELEMENT a EMPTY> --> )>\n<!ELEMENT a EMPTY>\n";
    let report = lint_spec(dtd, Some("r -> r"));
    assert!(!report.has_errors(), "{}", report.render_human());
    assert_eq!(report.codes(), vec![Code::TrivialFd]);
}

// ---------------------------------------------------------------- XNF003

#[test]
fn xnf003_fires_on_duplicate_attribute_even_across_blocks() {
    let dtd = "<!ELEMENT r (a)>\n<!ELEMENT a EMPTY>\n\
               <!ATTLIST a x CDATA #REQUIRED>\n<!ATTLIST a x CDATA #IMPLIED>";
    assert!(fires(dtd, None, Code::DuplicateAttribute));
}

#[test]
fn xnf003_does_not_fire_on_distinct_attributes() {
    let dtd = "<!ELEMENT r (a)>\n<!ELEMENT a EMPTY>\n\
               <!ATTLIST a x CDATA #REQUIRED y CDATA #IMPLIED>";
    assert!(!fires(dtd, None, Code::DuplicateAttribute));
}

// ---------------------------------------------------------------- XNF004

#[test]
fn xnf004_fires_on_undeclared_reference() {
    let report = lint_spec("<!ELEMENT r (ghost)>", None);
    assert_eq!(report.codes(), vec![Code::UndeclaredElement]);
    assert!(report.has_errors());
}

#[test]
fn xnf004_does_not_fire_when_all_references_resolve() {
    assert!(!fires(UNIVERSITY_DTD, None, Code::UndeclaredElement));
}

// ---------------------------------------------------------------- XNF005

#[test]
fn xnf005_fires_when_root_is_referenced() {
    let dtd = "<!ELEMENT r (a)>\n<!ELEMENT a (r?)>";
    let report = lint_spec(dtd, None);
    assert_eq!(report.codes(), vec![Code::RootReferenced]);
    let d = &report.diagnostics()[0];
    assert_eq!(d.span.as_ref().unwrap().at.line, 2, "points at `a`'s decl");
}

#[test]
fn xnf005_does_not_fire_on_definition_1_conformant_dtds() {
    assert!(!fires(UNIVERSITY_DTD, None, Code::RootReferenced));
}

// ---------------------------------------------------------------- XNF006

#[test]
fn xnf006_fires_on_attlist_for_undeclared_element() {
    let dtd = "<!ELEMENT r EMPTY>\n<!ATTLIST ghost x CDATA #REQUIRED>";
    assert_eq!(codes(dtd, None), vec![Code::AttlistForUndeclared]);
}

#[test]
fn xnf006_does_not_fire_when_attlists_match_declarations() {
    assert!(!fires(UNIVERSITY_DTD, None, Code::AttlistForUndeclared));
}

// ---------------------------------------------------------------- XNF007

#[test]
fn xnf007_fires_on_unreachable_element() {
    let dtd = "<!ELEMENT r (a)>\n<!ELEMENT a EMPTY>\n<!ELEMENT orphan EMPTY>";
    let report = lint_spec(dtd, None);
    assert_eq!(report.codes(), vec![Code::UnreachableElement]);
    assert!(!report.has_errors(), "unreachability is a warning");
    assert!(report.diagnostics()[0].message.contains("orphan"));
}

#[test]
fn xnf007_does_not_fire_when_everything_is_reachable() {
    assert!(!fires(UNIVERSITY_DTD, None, Code::UnreachableElement));
}

// ---------------------------------------------------------------- XNF008

#[test]
fn xnf008_fires_on_non_generating_element() {
    // `a` needs itself forever; `r` survives because `a` is optional.
    let dtd = "<!ELEMENT r (a?)>\n<!ELEMENT a (a)>";
    let report = lint_spec(dtd, None);
    assert!(report.codes().contains(&Code::NonGeneratingElement));
    assert!(
        report.codes().contains(&Code::RecursiveDtd),
        "a reachable non-generating element always sits on a cycle"
    );
}

#[test]
fn xnf008_does_not_fire_when_every_element_generates() {
    assert!(!fires(UNIVERSITY_DTD, None, Code::NonGeneratingElement));
}

// ---------------------------------------------------------------- XNF009

#[test]
fn xnf009_fires_when_the_root_cannot_generate() {
    let dtd = "<!ELEMENT r (a)>\n<!ELEMENT a (a)>";
    let report = lint_spec(dtd, None);
    assert!(report.codes().contains(&Code::UnsatisfiableDtd));
    assert!(report.has_errors(), "unsatisfiability is a hard error");
}

#[test]
fn xnf009_does_not_fire_on_satisfiable_dtds() {
    // Same cycle, but optional: the root generates the empty word.
    assert!(!fires(
        "<!ELEMENT r (a?)>\n<!ELEMENT a (a)>",
        None,
        Code::UnsatisfiableDtd
    ));
}

// ---------------------------------------------------------------- XNF010

#[test]
fn xnf010_fires_on_nondeterministic_content_model() {
    // (a, b) | (a?, b) ≡ a?, b — Parikh-wise a simple model (so XNF012
    // stays quiet), but not 1-unambiguous: on reading `a` the matcher
    // cannot tell which branch it entered.
    let dtd = "<!ELEMENT r ((a, b) | (a?, b))>\n<!ELEMENT a EMPTY>\n<!ELEMENT b EMPTY>";
    let report = lint_spec(dtd, None);
    assert_eq!(report.codes(), vec![Code::NondeterministicContent]);
    assert!(report.has_errors());
    assert!(report.diagnostics()[0].message.contains('a'));
}

#[test]
fn xnf010_does_not_fire_on_deterministic_models() {
    assert!(!fires(UNIVERSITY_DTD, None, Code::NondeterministicContent));
}

// ---------------------------------------------------------------- XNF011

#[test]
fn xnf011_fires_on_recursive_dtd_and_skips_semantic_tier() {
    // Recursion must sit below the root: a root-recursive DTD is already
    // rejected at parse (Definition 1 → XNF005).
    let dtd = "<!ELEMENT r (part)>\n<!ELEMENT part (name, part*)>\n<!ELEMENT name (#PCDATA)>";
    let report = lint_spec(dtd, Some("r.part.part -> r.part"));
    assert_eq!(report.codes(), vec![Code::RecursiveDtd]);
    assert!(!report.has_errors(), "recursion is a warning, not an error");
}

#[test]
fn xnf011_still_reports_fd_syntax_errors_for_recursive_dtds() {
    let dtd = "<!ELEMENT r (part)>\n<!ELEMENT part (name, part*)>\n<!ELEMENT name (#PCDATA)>";
    let report = lint_spec(dtd, Some("not an fd ->"));
    assert_eq!(report.codes(), vec![Code::RecursiveDtd, Code::FdSyntax]);
}

#[test]
fn xnf011_does_not_fire_on_non_recursive_dtds() {
    assert!(!fires(UNIVERSITY_DTD, None, Code::RecursiveDtd));
}

// ---------------------------------------------------------------- XNF012

#[test]
fn xnf012_fires_on_a_general_class_dtd() {
    // (a, a): Parikh count [2,2] is not a multiplicity, so the model is
    // neither simple nor a disjunction — General class (Theorem 5). It is
    // still deterministic, so XNF012 is the only diagnostic.
    let dtd = "<!ELEMENT r (a, a)>\n<!ELEMENT a EMPTY>";
    let report = lint_spec(dtd, None);
    assert_eq!(report.codes(), vec![Code::GeneralClass]);
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::GeneralClass)
        .unwrap();
    assert_eq!(d.severity, Severity::Info);
}

#[test]
fn xnf012_does_not_fire_on_simple_dtds() {
    assert!(!fires(UNIVERSITY_DTD, None, Code::GeneralClass));
}

// ---------------------------------------------------------------- XNF101

#[test]
fn xnf101_fires_per_broken_fd_with_spans() {
    let fds = "courses.course.@cno -> courses.course\nbroken fd here\n-> also.broken";
    let report = lint_spec(UNIVERSITY_DTD, Some(fds));
    let fd_errors: Vec<_> = report
        .diagnostics()
        .iter()
        .filter(|d| d.code == Code::FdSyntax)
        .collect();
    assert_eq!(fd_errors.len(), 2, "{}", report.render_human());
    assert_eq!(fd_errors[0].span.as_ref().unwrap().at.line, 2);
    assert_eq!(fd_errors[1].span.as_ref().unwrap().at.line, 3);
}

#[test]
fn xnf101_does_not_fire_on_wellformed_fds() {
    assert!(!fires(UNIVERSITY_DTD, Some(UNIVERSITY_FDS), Code::FdSyntax));
}

// ---------------------------------------------------------------- XNF102

#[test]
fn xnf102_fires_on_a_path_outside_paths_d() {
    let report = lint_spec(
        UNIVERSITY_DTD,
        Some("courses.course.ghost -> courses.course"),
    );
    assert_eq!(report.codes(), vec![Code::UnknownFdPath]);
    assert!(report.diagnostics()[0].message.contains("ghost"));
    assert!(report.has_errors());
}

#[test]
fn xnf102_does_not_fire_when_paths_resolve() {
    assert!(!fires(
        UNIVERSITY_DTD,
        Some(UNIVERSITY_FDS),
        Code::UnknownFdPath
    ));
}

// ---------------------------------------------------------------- XNF103

const DISJUNCTIVE_DTD: &str = "\
<!ELEMENT r ((a | b), c)>
<!ELEMENT a EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ELEMENT b EMPTY>
<!ATTLIST b y CDATA #REQUIRED>
<!ELEMENT c EMPTY>
<!ATTLIST c z CDATA #REQUIRED>";

#[test]
fn xnf103_fires_when_the_dtd_makes_fd_paths_exclusive() {
    let report = lint_spec(DISJUNCTIVE_DTD, Some("r.a.@x -> r.b.@y"));
    assert!(
        report.codes().contains(&Code::VacuousFd),
        "{}",
        report.render_human()
    );
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::VacuousFd)
        .unwrap();
    assert!(d.message.contains("r.a.@x") && d.message.contains("r.b.@y"));
    assert!(
        !report.codes().contains(&Code::TrivialFd),
        "vacuous FDs are excluded from the chase-backed rules"
    );
}

#[test]
fn xnf103_fires_on_exclusive_lhs_pairs_too() {
    let report = lint_spec(DISJUNCTIVE_DTD, Some("r.a.@x, r.b.@y -> r.c.@z"));
    assert!(report.codes().contains(&Code::VacuousFd));
}

#[test]
fn xnf103_does_not_fire_when_paths_can_cooccur() {
    assert!(!fires(
        DISJUNCTIVE_DTD,
        Some("r.a.@x -> r.c.@z"),
        Code::VacuousFd
    ));
}

// ---------------------------------------------------------------- XNF104

#[test]
fn xnf104_fires_on_a_repeated_fd() {
    let fds = "courses.course.@cno -> courses.course\ncourses.course.@cno -> courses.course";
    let report = lint_spec(UNIVERSITY_DTD, Some(fds));
    assert_eq!(report.codes(), vec![Code::DuplicateFd]);
    assert_eq!(report.diagnostics()[0].span.as_ref().unwrap().at.line, 2);
}

/// On a Σ of 2 100 FDs — 700 FDs, each listed three times in three
/// spellings — every repeat gets XNF104, naming its FD's first listing.
/// The FDs are vacuous (`a` and `b` never co-occur), so no chase runs.
#[test]
fn xnf104_names_the_first_listing_of_every_repeat() {
    const N: usize = 700;
    let attrs: String = (0..N).map(|i| format!(" a{i} CDATA #REQUIRED")).collect();
    let dtd = format!(
        "<!ELEMENT r (a | b)>\n<!ELEMENT a EMPTY>\n<!ATTLIST a{attrs}>\n<!ELEMENT b EMPTY>"
    );
    let first = |i: usize| format!("r.a.@a{i} -> r.b");
    let mut lines: Vec<String> = (0..N).map(first).collect();
    lines.extend((0..N).rev().map(|i| format!("r.a.@a{i}  ->  r.b")));
    lines.extend((0..N).map(|i| format!("r.a.@a{i}, r.a.@a{i} -> r.b")));
    let report = lint_spec(&dtd, Some(&lines.join("\n")));
    let repeats: Vec<_> = (report.diagnostics().iter())
        .filter(|d| d.code == Code::DuplicateFd)
        .collect();
    assert_eq!(repeats.len(), 2 * N);
    for d in repeats {
        let line = d.span.as_ref().expect("XNF104 has a span").at.line as usize;
        assert!(line > N, "line {line} is a first listing");
        let digits = &lines[line - 1]["r.a.@a".len()..];
        let i: usize = digits[..digits.find(|c: char| !c.is_ascii_digit()).unwrap()]
            .parse()
            .unwrap();
        assert_eq!(d.notes, [format!("first listed as `{}`", first(i))]);
    }
}

#[test]
fn xnf104_does_not_fire_on_distinct_fds() {
    assert!(!fires(
        UNIVERSITY_DTD,
        Some(UNIVERSITY_FDS),
        Code::DuplicateFd
    ));
}

// ---------------------------------------------------------------- XNF105

#[test]
fn xnf105_fires_on_a_trivial_fd() {
    // A node determines its ancestors: child → parent holds in every tree.
    let report = lint_spec(
        UNIVERSITY_DTD,
        Some("courses.course.title -> courses.course"),
    );
    assert_eq!(report.codes(), vec![Code::TrivialFd]);
    assert!(!report.has_errors(), "trivial FDs are warnings");
}

#[test]
fn xnf105_fires_on_node_determines_own_attribute() {
    let report = lint_spec(
        UNIVERSITY_DTD,
        Some("courses.course -> courses.course.@cno"),
    );
    assert_eq!(report.codes(), vec![Code::TrivialFd]);
}

#[test]
fn xnf105_does_not_fire_on_genuine_constraints() {
    assert!(!fires(
        UNIVERSITY_DTD,
        Some(UNIVERSITY_FDS),
        Code::TrivialFd
    ));
}

// ---------------------------------------------------------------- XNF106

#[test]
fn xnf106_fires_on_an_fd_implied_by_the_rest_of_sigma() {
    // cno → course makes cno → course.title.S derivable (each course has
    // exactly one title), but not vice versa: only the second is flagged.
    let fds = "courses.course.@cno -> courses.course\n\
               courses.course.@cno -> courses.course.title.S";
    let report = lint_spec(UNIVERSITY_DTD, Some(fds));
    assert_eq!(report.codes(), vec![Code::RedundantFd]);
    assert_eq!(
        report.diagnostics()[0].span.as_ref().unwrap().at.line,
        2,
        "the derivable FD is the one flagged"
    );
}

#[test]
fn xnf106_does_not_fire_on_an_independent_sigma() {
    assert!(!fires(
        UNIVERSITY_DTD,
        Some(UNIVERSITY_FDS),
        Code::RedundantFd
    ));
}

// ---------------------------------------------------------------- XNF107

#[test]
fn xnf107_fires_once_per_equivalent_pair() {
    // cno → course and cno → taken_by: course determines its unique
    // taken_by child and vice versa (child determines parent), so the two
    // FDs derive each other — one XNF107, and no XNF106 double-report.
    let fds = "courses.course.@cno -> courses.course\n\
               courses.course.@cno -> courses.course.taken_by";
    let report = lint_spec(UNIVERSITY_DTD, Some(fds));
    assert_eq!(
        report.codes(),
        vec![Code::EquivalentFds],
        "{}",
        report.render_human()
    );
}

#[test]
fn xnf107_does_not_fire_on_inequivalent_fds() {
    assert!(!fires(
        UNIVERSITY_DTD,
        Some(UNIVERSITY_FDS),
        Code::EquivalentFds
    ));
}

// ---------------------------------------------------------------- XNF108

#[test]
fn xnf108_fires_on_a_determined_lhs_path() {
    // course already determines its own @cno, so @cno is dead weight in
    // {course, course.@cno} → student. (The RHS must not itself be
    // determined by `course` alone — a course has many students — or the
    // whole FD would be flagged trivial instead.)
    let fds = "courses.course, courses.course.@cno -> courses.course.taken_by.student";
    let report = lint_spec(UNIVERSITY_DTD, Some(fds));
    assert_eq!(report.codes(), vec![Code::RedundantLhsPath]);
    assert!(report.diagnostics()[0].message.contains("@cno"));
}

#[test]
fn xnf108_does_not_fire_on_a_minimal_lhs() {
    // FD2's {course, student.@sno} is genuinely minimal: neither member
    // determines the other.
    assert!(!fires(
        UNIVERSITY_DTD,
        Some(UNIVERSITY_FDS),
        Code::RedundantLhsPath
    ));
}

// ---------------------------------------------------------------- XNF301

#[test]
fn xnf301_fires_on_pcdata_beside_an_element_name_in_either_position() {
    for model in ["(#PCDATA | em)*", "(em | #PCDATA)*"] {
        let dtd = format!("<!ELEMENT r (p)>\n<!ELEMENT p {model}>\n<!ELEMENT em EMPTY>");
        let report = lint_shred(&dtd);
        assert_eq!(
            report.codes(),
            vec![Code::ShredMixedContent, Code::DtdSyntax],
            "{model}: {}",
            report.render_human()
        );
    }
}

#[test]
fn xnf301_does_not_fire_on_pcdata_alone() {
    // Nested parentheses and a truncated model: syntax errors, not mixing.
    for model in ["((#PCDATA))>", "(#PCDATA"] {
        let dtd = format!("<!ELEMENT r (p)>\n<!ELEMENT p {model}");
        let report = lint_shred(&dtd);
        assert_eq!(report.codes(), vec![Code::DtdSyntax], "{model}");
    }
    // A comment inside `(#PCDATA)` names no element: the spec shreds.
    let dtd = "<!ELEMENT r (t)>\n<!ELEMENT t (#PCDATA <!-- note -->)>\n";
    let report = lint_shred(dtd);
    assert!(report.is_clean(), "{}", report.render_human());
}

// ----------------------------------------------------------- registry

#[test]
fn registry_floor() {
    let rules = xnf_lint::registry();
    assert!(rules.len() >= 8, "at least 8 coded rules");
    let structural = rules
        .iter()
        .filter(|r| !matches!(r.tier, Tier::Semantic))
        .count();
    let implication = rules.iter().filter(|r| r.implication_backed).count();
    assert!(
        structural >= 4,
        "at least 4 structural rules, got {structural}"
    );
    assert!(
        implication >= 4,
        "at least 4 implication-backed rules, got {implication}"
    );
}

// ------------------------------------------------------------- output

#[test]
fn json_output_is_schema_shaped() {
    let report = lint_spec("<!ELEMENT r (ghost)>", Some("broken ->"));
    let json = report.to_json();
    for needle in [
        "\"version\": 1",
        "\"clean\": false",
        "\"summary\"",
        "\"errors\": 2",
        "\"code\": \"XNF004\"",
        "\"rule\": \"undeclared-element\"",
        "\"code\": \"XNF101\"",
        "\"severity\": \"error\"",
        "\"source\": \"dtd\"",
        "\"source\": \"fds\"",
        "\"diagnostics\"",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
}

#[test]
fn human_output_renders_every_part() {
    let report = lint_spec(
        "<!ELEMENT r (a)>\n<!ELEMENT a EMPTY>\n<!ELEMENT orphan EMPTY>",
        None,
    );
    let text = report.render_human();
    assert!(text.contains("warning[XNF007]"), "{text}");
    assert!(text.contains("--> dtd:3:11"), "{text}");
    assert!(text.contains("<!ELEMENT orphan EMPTY>"), "{text}");
    assert!(text.contains("^^^^^^"), "{text}");
    assert!(
        text.contains("lint: 0 errors, 1 warning, 0 infos"),
        "{text}"
    );
}
