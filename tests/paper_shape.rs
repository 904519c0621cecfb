//! The paper's shape, generated: every §4 figure at scales 0.25 and 1.0,
//! each scale from one campaign and its extra runs (`apt_bench::paper`),
//! against `tests/golden/paper.txt`. For each scale the golden holds each
//! figure's table as its bench prints it, then the orderings of the
//! paper's shape that the numbers break. At 1.0 they must break none.
//! EXPERIMENTS.md §4 copies its tables from the golden, and a copy that
//! differs from it fails the second test.
//!
//! The evaluation takes minutes, so the first test is ignored by default
//! and runs in release. Regenerate the golden after an intentional change:
//!
//! ```text
//! cargo test --release -p apt-bench --test paper_shape -- --ignored
//! UPDATE_GOLDEN=1 cargo test --release -p apt-bench --test paper_shape -- --ignored
//! ```

use std::path::PathBuf;

use apt_bench::paper::Paper;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `[key]` sections of a golden, each with its body up to the next
/// key. The body's trailing blank lines are not part of it.
fn sections(text: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        if line.starts_with('[') && line.ends_with(']') {
            out.push((line.to_string(), String::new()));
        } else if let Some((_, body)) = out.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    for (_, body) in &mut out {
        while body.ends_with("\n\n") {
            body.pop();
        }
    }
    out
}

/// The fenced blocks of a Markdown document that open with a `[key]`
/// line, parsed as golden sections.
fn markdown_sections(markdown: &str) -> Vec<(String, String)> {
    let blocks = markdown.split("```").skip(1).step_by(2);
    let bodies = blocks.filter_map(|b| b.split_once('\n').map(|(_, body)| body));
    bodies.flat_map(sections).collect()
}

#[test]
#[ignore = "runs the paper's evaluation at 0.25 and 1.0 (minutes; use --release)"]
fn paper_shape_matches_the_golden() {
    let mut actual = String::new();
    for scale in [0.25, 1.0] {
        let figures = Paper::run(scale).figures();
        let mut violations = String::new();
        for f in &figures {
            actual.push_str(&format!("[{} @ {scale}]\n{}\n", f.name, f.text()));
            for v in &f.violations {
                violations.push_str(&format!("{v}\n"));
            }
        }
        actual.push_str(&format!("[violations @ {scale}]\n{violations}\n"));
        if scale == 1.0 {
            assert!(violations.is_empty(), "at full scale:\n{violations}");
        }
    }

    let path = root().join("tests/golden/paper.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden paper.txt ({e}); run with UPDATE_GOLDEN=1"));
    let (actual, expected) = (sections(&actual), sections(&expected));
    for ((key, body), (want_key, want)) in actual.iter().zip(&expected) {
        assert_eq!(key, want_key, "golden sections differ");
        assert_eq!(body, want, "{key} differs from the golden");
    }
    assert_eq!(actual.len(), expected.len(), "golden section count");
}

/// EXPERIMENTS.md carries every figure's table at 0.25, each a copy of the
/// golden's; cheap, so it runs with the default tests.
#[test]
fn experiments_tables_are_copies_of_the_golden() {
    let read = |path: &str| std::fs::read_to_string(root().join(path)).unwrap();
    let golden = sections(&read("tests/golden/paper.txt"));
    let copies = markdown_sections(&read("EXPERIMENTS.md"));
    for (key, body) in &copies {
        let found = golden.iter().find(|(k, _)| k == key);
        let (_, want) =
            found.unwrap_or_else(|| panic!("EXPERIMENTS.md: {key} is not in the golden"));
        assert_eq!(body, want, "EXPERIMENTS.md: {key} differs from the golden");
    }
    for (key, _) in golden.iter().filter(|(k, _)| k.ends_with("@ 0.25]")) {
        assert!(
            copies.iter().any(|(k, _)| k == key),
            "EXPERIMENTS.md carries no copy of {key}"
        );
    }
}
