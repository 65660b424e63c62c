//! Markdown link check over README/ROADMAP/docs: every relative link in
//! the repository's documentation must point at a file or directory
//! that exists, so the architecture doc (and everything it references)
//! cannot rot silently.  CI runs this as part of the test suite and as
//! an explicit docs-job step.

use std::path::{Path, PathBuf};

/// The documentation files under the link check.
fn documented_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![root.join("README.md"), root.join("ROADMAP.md")];
    let docs = root.join("docs");
    if docs.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&docs)
            .expect("docs/ must be readable")
            .map(|e| e.expect("docs/ entry").path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "md"))
            .collect();
        entries.sort();
        files.extend(entries);
    }
    files
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Extract every inline markdown link target: the `target` of
/// `[text](target)`, ignoring code spans is overkill for these files —
/// a false positive here means a confusing doc, which is worth flagging
/// anyway.
fn link_targets(markdown: &str) -> Vec<String> {
    let bytes = markdown.as_bytes();
    let mut targets = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            let start = i + 2;
            if let Some(len) = markdown[start..].find(')') {
                targets.push(markdown[start..start + len].to_string());
                i = start + len;
                continue;
            }
        }
        i += 1;
    }
    targets
}

fn is_external(target: &str) -> bool {
    target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
        || target.starts_with('#')
}

#[test]
fn relative_documentation_links_resolve() {
    let mut broken = Vec::new();
    for file in documented_files() {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        let dir = file.parent().unwrap_or_else(|| Path::new("."));
        for target in link_targets(&text) {
            if is_external(&target) || target.is_empty() {
                continue;
            }
            // Drop an in-file anchor suffix; the file itself must exist.
            let path_part = target.split('#').next().unwrap_or(&target);
            if path_part.is_empty() {
                continue;
            }
            let resolved = dir.join(path_part);
            if !resolved.exists() {
                broken.push(format!("{} -> {target}", file.display()));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken relative links:\n{}",
        broken.join("\n")
    );
}

#[test]
fn architecture_doc_exists_and_is_linked_from_readme() {
    let root = repo_root();
    assert!(
        root.join("docs/ARCHITECTURE.md").is_file(),
        "docs/ARCHITECTURE.md must exist"
    );
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    assert!(
        readme.contains("docs/ARCHITECTURE.md"),
        "README must link the architecture doc"
    );
}

#[test]
fn reproduction_matrix_names_every_experiment() {
    // The README's "Reproducing the paper" matrix must hold one
    // `reproduce <name>` row per entry of the experiment table the
    // binary prints — and no row for an experiment that is gone — so
    // the two cannot drift.  Only the matrix section counts: a mention
    // elsewhere in the README must not satisfy the check.
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let start = readme
        .find("## Reproducing the paper")
        .expect("README must keep the 'Reproducing the paper' section");
    let section = &readme[start..];
    let section = match section[2..].find("\n## ") {
        Some(end) => &section[..end + 2],
        None => section,
    };
    let rows: Vec<&str> = section
        .lines()
        .filter(|line| line.starts_with('|'))
        .filter_map(|line| line.split("--bin reproduce -- ").nth(1))
        .filter_map(|rest| rest.split([' ', '`']).next())
        .collect();
    let table: Vec<&str> = unsnap_bench::EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(
        rows, table,
        "README reproduction matrix rows vs the experiment table"
    );
}

/// What follows each `marker` on `line`, up to the closing backtick of
/// its code span.
fn command_arguments<'a>(line: &'a str, marker: &str) -> Vec<&'a str> {
    line.split(marker)
        .skip(1)
        .map(|rest| rest.split('`').next().unwrap_or(""))
        .collect()
}

#[test]
fn every_example_command_names_an_example() {
    // A command a reader copies from the docs must run: every
    // `--example NAME` names a file under `examples/`, and every
    // `--bin reproduce -- NAME...` names only experiments of the table
    // `reproduce` prints.  A command continued over `\`-ended lines is
    // read as one line.
    let root = repo_root();
    let mut files = vec![
        root.join("README.md"),
        root.join(".claude/skills/verify/SKILL.md"),
    ];
    files.extend(
        documented_files()
            .into_iter()
            .filter(|f| f.starts_with(root.join("docs"))),
    );
    let experiments: Vec<&str> = unsnap_bench::EXPERIMENTS.iter().map(|e| e.name).collect();
    let mut broken = Vec::new();
    let mut checked = 0;
    for file in files {
        let text = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()))
            .replace("\\\n", " ");
        let shown = file.strip_prefix(&root).unwrap_or(&file).display();
        for line in text.lines() {
            for rest in command_arguments(line, "--example ") {
                let name = rest.split_whitespace().next().unwrap_or("");
                checked += 1;
                if !root.join("examples").join(format!("{name}.rs")).is_file() {
                    broken.push(format!("{shown}: --example {name}"));
                }
            }
            for rest in command_arguments(line, "--bin reproduce -- ") {
                let names: Vec<&str> = rest
                    .split_whitespace()
                    .take_while(|word| !word.starts_with('-') && !word.starts_with('#'))
                    .collect();
                checked += 1;
                if names.is_empty() || names.iter().any(|name| !experiments.contains(name)) {
                    broken.push(format!("{shown}: --bin reproduce -- {rest}"));
                }
            }
        }
    }
    assert!(checked > 0, "no example or reproduce command found");
    assert!(
        broken.is_empty(),
        "commands naming no example or experiment:\n{}",
        broken.join("\n")
    );
}
