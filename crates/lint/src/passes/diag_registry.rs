//! Pass 4 — diagnostic-code registry.
//!
//! `srmac_models::diag` promises operators *stable, machine-greppable*
//! codes (`SERVE0004`, `CKPT0002`, …). That promise has three mechanical
//! failure modes nothing else checks: two declarations sharing an id
//! (two different events logging the same tag), a renumbering hole
//! (dashboards keyed on a tag that silently vanished), and a code that
//! never made it into the README table operators grep.
//!
//! This pass rebuilds the registry *from source* — every
//! `DiagCode::new("ns", id, "name")` (and this tool's own
//! `LintCode::new`) in non-test code across the policed crates — and
//! enforces:
//!
//! - (namespace, id) unique  → [`codes::DIAG_DUPLICATE_ID`]
//! - (namespace, name) unique → [`codes::DIAG_DUPLICATE_NAME`]
//! - ids per namespace are contiguous `1..=k` → [`codes::DIAG_GAP`]
//! - every tag appears in the README → [`codes::DIAG_UNDOCUMENTED`]
//!
//! A code is retired, never renumbered: its constant is deleted and its
//! README row's Meaning cell starts with `*Retired*`. A retired
//! row still reserves its tag — it counts as declared for contiguity, and
//! a source site reusing its id or name is a duplicate.

use crate::findings::{codes, Finding};
use crate::policy;
use crate::workspace::SourceFile;

/// One `DiagCode::new(…)` site recovered from source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagSite {
    /// Namespace string literal (`"serve"`).
    pub namespace: String,
    /// Numeric id.
    pub id: u64,
    /// Name string literal (`"worker-panic"`).
    pub name: String,
    /// Declaring file.
    pub file: String,
    /// Declaring line.
    pub line: u32,
}

impl DiagSite {
    /// The stable tag this site renders as (`SERVE0007`).
    #[must_use]
    pub fn tag(&self) -> String {
        format!("{}{:04}", self.namespace.to_uppercase(), self.id)
    }
}

/// Opens the Meaning cell of a README table row whose code is retired.
const RETIRED_MARKER: &str = "*Retired*";

/// Recovers the retired rows of the README table
/// (`` | `SERVE0008` | `serve::worker-lost` | *Retired* … | ``) as
/// sites declared in the README itself.
fn retired_sites(readme: &str) -> Vec<DiagSite> {
    let mut out = Vec::new();
    for (i, line) in readme.lines().enumerate() {
        let cells: Vec<&str> = line
            .split('|')
            .map(|c| c.trim().trim_matches('`'))
            .collect();
        let [_, tag, code, meaning, ..] = cells.as_slice() else {
            continue;
        };
        if !meaning.starts_with(RETIRED_MARKER) {
            continue;
        }
        let digits = tag.trim_start_matches(|c: char| c.is_ascii_alphabetic());
        let (Ok(id), Some((ns, name))) = (digits.parse::<u64>(), code.split_once("::")) else {
            continue;
        };
        out.push(DiagSite {
            namespace: ns.to_owned(),
            id,
            name: name.to_owned(),
            file: policy::README.to_owned(),
            line: u32::try_from(i + 1).unwrap_or(u32::MAX),
        });
    }
    out
}

/// Extracts the `Ctor::new("ns", id, "name")` sites from one file's
/// non-test code, for each constructor ident in
/// [`policy::DIAG_CONSTRUCTORS`].
#[must_use]
pub fn extract_sites(f: &SourceFile) -> Vec<DiagSite> {
    use crate::lexer::TokKind;
    let code: Vec<(usize, &crate::lexer::Tok)> = f.code_toks().collect();
    let mut out = Vec::new();
    for (ci, &(ti, t)) in code.iter().enumerate() {
        if f.in_test[ti] {
            continue;
        }
        if !policy::DIAG_CONSTRUCTORS.iter().any(|c| t.is_ident(c)) {
            continue;
        }
        // Ctor :: new ( "ns" , id , "name" )
        let tok = |off: usize| code.get(ci + off).map(|&(_, t)| t);
        let shape_ok = tok(1).is_some_and(|t| t.is_punct(':'))
            && tok(2).is_some_and(|t| t.is_punct(':'))
            && tok(3).is_some_and(|t| t.is_ident("new"))
            && tok(4).is_some_and(|t| t.is_punct('('))
            && tok(5).is_some_and(|t| t.kind == TokKind::Str)
            && tok(6).is_some_and(|t| t.is_punct(','))
            && tok(7).is_some_and(|t| t.kind == TokKind::Num)
            && tok(8).is_some_and(|t| t.is_punct(','))
            && tok(9).is_some_and(|t| t.kind == TokKind::Str)
            && tok(10).is_some_and(|t| t.is_punct(')'));
        if !shape_ok {
            continue;
        }
        let (ns, num, name) = (tok(5), tok(7), tok(9));
        // PANIC-OK: shape_ok proved tokens 5/7/9 exist.
        let (ns, num, name) = (ns.unwrap(), num.unwrap(), name.unwrap());
        let digits: String = num.text.chars().filter(char::is_ascii_digit).collect();
        let Ok(id) = digits.parse::<u64>() else {
            continue; // hex/float literal — not a registry id shape
        };
        out.push(DiagSite {
            namespace: ns.text.clone(),
            id,
            name: name.text.clone(),
            file: f.rel_path.clone(),
            line: t.line,
        });
    }
    out
}

/// Runs the registry checks over all recovered sites plus the README
/// text the tags must be documented in. The README's retired rows join
/// the registry ahead of the source sites, so reusing one reports at
/// the source site.
#[must_use]
pub fn check(sites: &[DiagSite], readme: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut all = retired_sites(readme);
    all.extend_from_slice(sites);
    let sites = all.as_slice();
    // Duplicates: report at the *later* declaration, pointing back.
    for (i, s) in sites.iter().enumerate() {
        if let Some(prev) = sites[..i]
            .iter()
            .find(|p| p.namespace == s.namespace && p.id == s.id)
        {
            out.push(Finding::new(
                codes::DIAG_DUPLICATE_ID,
                &s.file,
                s.line,
                format!(
                    "diagnostic id {} already declared as `{}::{}` at {}:{}",
                    s.tag(),
                    prev.namespace,
                    prev.name,
                    prev.file,
                    prev.line
                ),
            ));
        } else if let Some(prev) = sites[..i]
            .iter()
            .find(|p| p.namespace == s.namespace && p.name == s.name)
        {
            out.push(Finding::new(
                codes::DIAG_DUPLICATE_NAME,
                &s.file,
                s.line,
                format!(
                    "diagnostic name `{}::{}` already declared as {} at {}:{}",
                    s.namespace,
                    s.name,
                    prev.tag(),
                    prev.file,
                    prev.line
                ),
            ));
        }
    }
    // Contiguity per namespace: unique ids must be exactly 1..=k.
    let mut namespaces: Vec<&str> = sites.iter().map(|s| s.namespace.as_str()).collect();
    namespaces.sort_unstable();
    namespaces.dedup();
    for ns in namespaces {
        let mut ids: Vec<u64> = sites
            .iter()
            .filter(|s| s.namespace == ns)
            .map(|s| s.id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let k = ids.len() as u64;
        if ids != (1..=k).collect::<Vec<_>>() {
            // PANIC-OK: ns came from sites, so a max id exists.
            let top = *ids.last().unwrap();
            let missing: Vec<String> = (1..=top.max(k))
                .filter(|i| !ids.contains(i))
                .map(|i| i.to_string())
                .collect();
            let anchor = sites
                .iter()
                .filter(|s| s.namespace == ns)
                .max_by_key(|s| s.id);
            // PANIC-OK: same — at least one site has this namespace.
            let anchor = anchor.unwrap();
            out.push(Finding::new(
                codes::DIAG_GAP,
                &anchor.file,
                anchor.line,
                format!(
                    "namespace `{ns}` ids are not contiguous 1..={}: missing {}",
                    top.max(k),
                    missing.join(", ")
                ),
            ));
        }
    }
    // Documentation: every tag must appear in the README table.
    let mut tags: Vec<(String, &DiagSite)> = sites.iter().map(|s| (s.tag(), s)).collect();
    tags.sort_by(|a, b| a.0.cmp(&b.0));
    tags.dedup_by(|a, b| a.0 == b.0);
    for (tag, s) in tags {
        if !readme.contains(&tag) {
            out.push(Finding::new(
                codes::DIAG_UNDOCUMENTED,
                &s.file,
                s.line,
                format!(
                    "diagnostic {tag} (`{}::{}`) is not documented in {}",
                    s.namespace,
                    s.name,
                    policy::README
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites_of(src: &str) -> Vec<DiagSite> {
        extract_sites(&SourceFile::parse("crates/models/src/x.rs", src))
    }

    #[test]
    fn extracts_the_three_field_shape() {
        let got =
            sites_of("pub const A: DiagCode = DiagCode::new(\"serve\", 4, \"overloaded\");\n");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].namespace, "serve");
        assert_eq!(got[0].id, 4);
        assert_eq!(got[0].name, "overloaded");
        assert_eq!(got[0].tag(), "SERVE0004");
    }

    #[test]
    fn test_code_and_doc_comments_are_ignored() {
        let src = "//! const DEMO: DiagCode = DiagCode::new(\"serve\", 7, \"worker-panic\");\n\
                   #[cfg(test)]\nmod t {\n    const C: DiagCode = DiagCode::new(\"serve\", 7, \"worker-panic\");\n}\n";
        assert!(sites_of(src).is_empty());
    }

    fn site(ns: &str, id: u64, name: &str, line: u32) -> DiagSite {
        DiagSite {
            namespace: ns.into(),
            id,
            name: name.into(),
            file: "f.rs".into(),
            line,
        }
    }

    #[test]
    fn duplicate_id_and_name_fire_at_the_later_site() {
        let sites = vec![
            site("serve", 1, "a", 1),
            site("serve", 1, "b", 2),
            site("serve", 2, "a", 3),
        ];
        let got = check(&sites, "SERVE0001 SERVE0002");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].code, codes::DIAG_DUPLICATE_ID);
        assert_eq!(got[0].line, 2);
        assert_eq!(got[1].code, codes::DIAG_DUPLICATE_NAME);
        assert_eq!(got[1].line, 3);
    }

    #[test]
    fn gap_detection_names_the_missing_ids() {
        let sites = vec![site("ckpt", 1, "a", 1), site("ckpt", 4, "d", 2)];
        let got = check(&sites, "CKPT0001 CKPT0004");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].code, codes::DIAG_GAP);
        assert!(got[0].message.contains("missing 2, 3"));
    }

    const RETIRED_ROWS: &str = "| Tag | Code | Meaning |\n|---|---|---|\n\
        | `SERVE0001` | `serve::a` | A |\n\
        | `SERVE0002` | `serve::lost` | *Retired* — was the router's |\n\
        | `SERVE0003` | `serve::c` | C |\n";

    #[test]
    fn retired_row_fills_the_gap_it_leaves() {
        let sites = vec![site("serve", 1, "a", 1), site("serve", 3, "c", 2)];
        assert_eq!(
            retired_sites(RETIRED_ROWS),
            vec![DiagSite {
                namespace: "serve".into(),
                id: 2,
                name: "lost".into(),
                file: policy::README.into(),
                line: 4,
            }]
        );
        assert!(check(&sites, RETIRED_ROWS).is_empty());
        // Without the marker the row is an ordinary doc line: gap again.
        let live = RETIRED_ROWS.replace("*Retired* — ", "");
        let got = check(&sites, &live);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].code, codes::DIAG_GAP);
        assert!(got[0].message.contains("missing 2"));
    }

    #[test]
    fn reusing_a_retired_id_or_name_is_a_duplicate() {
        let base = [site("serve", 1, "a", 1), site("serve", 3, "c", 2)];
        let mut sites = base.to_vec();
        sites.push(site("serve", 2, "fresh", 9));
        let got = check(&sites, RETIRED_ROWS);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].code, codes::DIAG_DUPLICATE_ID);
        assert_eq!((got[0].file.as_str(), got[0].line), ("f.rs", 9));
        assert!(got[0].message.contains("README.md:4"));

        let mut sites = base.to_vec();
        sites.push(site("serve", 4, "lost", 9));
        let got = check(&sites, &format!("{RETIRED_ROWS}SERVE0004"));
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].code, codes::DIAG_DUPLICATE_NAME);
        assert_eq!(got[0].line, 9);
    }

    #[test]
    fn undocumented_tag_is_flagged() {
        let sites = vec![site("serve", 1, "a", 1)];
        let got = check(&sites, "no table here");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].code, codes::DIAG_UNDOCUMENTED);
        assert!(got[0].message.contains("SERVE0001"));
        assert!(check(&sites, "| SERVE0001 | serve::a | …|").is_empty());
    }

    #[test]
    fn two_namespaces_are_independent() {
        let sites = vec![
            site("serve", 1, "a", 1),
            site("ckpt", 1, "a", 2),
            site("train", 1, "resume", 3),
        ];
        assert!(check(&sites, "SERVE0001 CKPT0001 TRAIN0001").is_empty());
    }
}
