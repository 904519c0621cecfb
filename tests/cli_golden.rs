//! Golden pins for the `aptgetsim` command line.
//!
//! Each case runs the built binary in a fresh scratch directory with
//! relative paths, so no machine-specific path reaches the output, and
//! with `APT_SCALE` and `APT_JOBS` cleared unless the case sets them. The
//! golden records each command line, its exit status, its stdout and the
//! bytes of the files it names. A command that fails must exit 1 with a
//! first stderr line starting `error:` (a panic exits 101). The cases run
//! in order: the profile-database chain reads what earlier cases wrote.
//! Regenerate `tests/golden/cli.txt` after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p apt-bench --test cli_golden
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Command lines (leading `NAME=VALUE` words set the environment), each
/// with the files it writes whose bytes are pinned too.
const CASES: &[(&str, &[&str])] = &[
    ("list", &[]),
    ("ir RandAcc --scale 0.02", &[]),
    ("hints BFS --scale 0.02", &[]),
    ("run BFS --scale 0.02", &[]),
    (
        "campaign --scale 0.02 --workloads BFS,CG --no-cache --jobs 1 --csv-out c.csv",
        &["c.csv"],
    ),
    // The profile-database chain: two profiles of different inputs, the
    // drift between them, a drift gate that trips, hints from history.
    ("export BFS --scale 0.02 --out bfs42.perf", &[]),
    ("export BFS --scale 0.02 --seed 43 --out bfs43.perf", &[]),
    ("ingest bfs42.perf --db t.aptdb", &[]),
    ("ingest bfs43.perf --db t.aptdb", &[]),
    ("drift --db t.aptdb", &[]),
    ("drift --db t.aptdb --fail-threshold 0.0001", &[]),
    ("hints BFS --scale 0.02 --db t.aptdb", &[]),
    // Errors.
    ("", &[]),
    ("bench-gate", &[]),
    ("run BFS --jobs 2", &[]),
    ("campaign --jobs", &[]),
    ("run BFS --scale abc", &[]),
    ("run NOPE", &[]),
    ("hints", &[]),
    ("perf-history bench/history --tolerance 0.05", &[]),
    // Every value is checked once, by its flag's kind, and a flag its
    // command does not read is an error.
    ("ir RandAcc --scale inf", &[]),
    ("ir RandAcc --scale nan", &[]),
    ("ir RandAcc --scale 0", &[]),
    ("ir RandAcc --scale -1", &[]),
    ("APT_SCALE=abc ir RandAcc", &[]),
    (
        "APT_SCALE=-1 campaign --workloads BFS --no-cache --jobs 1",
        &[],
    ),
    (
        "campaign --scale -1 --workloads BFS --no-cache --jobs 1",
        &[],
    ),
    (
        "campaign --scale 0.02 --workloads , --no-cache --jobs 1",
        &[],
    ),
    ("drift --db t.aptdb --fail-threshold nan", &[]),
    ("drift --db t.aptdb --fail-threshold -1", &[]),
    ("list --tenant x", &[]),
    // `APT_JOBS` gets `--jobs`'s check, and a rollback of a tenant with
    // no hint directory creates none.
    (
        "APT_JOBS=abc campaign --scale 0.02 --workloads BFS --no-cache",
        &[],
    ),
    ("rollback --tenant NOPE --hints-dir h", &[]),
];

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with UPDATE_GOLDEN=1"));
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "golden mismatch for {name} at line {}:\n  actual:   {:?}\n  expected: {:?}",
            first + 1,
            actual.lines().nth(first),
            expected.lines().nth(first)
        );
    }
}

/// Runs one case in `dir` and appends its record to `out`.
fn run_case(dir: &Path, line: &str, files: &[&str], out: &mut String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_aptgetsim"));
    cmd.current_dir(dir)
        .env_remove("APT_SCALE")
        .env_remove("APT_JOBS");
    let mut words = line.split_whitespace().peekable();
    let mut header = String::from("$ ");
    while let Some((name, value)) = words.peek().and_then(|w| w.split_once('=')) {
        cmd.env(name, value);
        header += words.next().unwrap();
        header.push(' ');
    }
    header += "aptgetsim";
    for word in words {
        cmd.arg(word);
        header.push(' ');
        header += word;
    }
    let output = cmd.output().expect("aptgetsim starts");
    let code = output.status.code().expect("aptgetsim exits by itself");
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    let stderr = String::from_utf8_lossy(&output.stderr);
    if code != 0 {
        assert_eq!(code, 1, "`{line}` exited {code}; stderr:\n{stderr}");
        assert!(
            stderr.starts_with("error:"),
            "`{line}` failed without an `error:` line first; stderr:\n{stderr}"
        );
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "exit {code}");
    out.push_str(&stdout);
    for file in files {
        let bytes = std::fs::read_to_string(dir.join(file))
            .unwrap_or_else(|e| panic!("`{line}` did not write {file}: {e}"));
        let _ = writeln!(out, "--- {file}");
        out.push_str(&bytes);
    }
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out.push('\n');
}

#[test]
fn commands_match_the_golden() {
    let dir = std::env::temp_dir().join(format!("apt-cli-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut out = String::new();
    for (line, files) in CASES {
        run_case(&dir, line, files, &mut out);
    }
    let stray = dir.join("h/NOPE").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!stray, "`rollback --tenant NOPE` created h/NOPE");
    assert!(
        !out.contains(dir.to_str().unwrap()),
        "a scratch path reached the output"
    );
    check_golden("cli.txt", &out);
}
