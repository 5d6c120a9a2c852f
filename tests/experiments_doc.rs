//! EXPERIMENTS.md quotes the harness, it does not restate it by hand.
//!
//! `ci/experiments_all.golden.txt` is the standard output of
//! `experiments all` (400 transactions, seed `0x5eed`); CI regenerates it
//! and `cmp`s. Here the document's "Raw harness output" block must be that
//! file byte for byte, and the Verdict summary's measured column must read
//! the golden's averages, so a simulated number that moves shows as a text
//! diff of the golden and fails until the document follows.

use std::path::PathBuf;

fn read(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The fenced block right after `heading` in `doc`.
fn fenced_after<'a>(doc: &'a str, heading: &str) -> &'a str {
    let start = doc.find(heading).expect("heading present") + heading.len();
    let body = doc[start..]
        .trim_start_matches('\n')
        .strip_prefix("```\n")
        .expect("a fence opens right after the heading");
    &body[..body.find("```\n").expect("the fence closes")]
}

/// The whitespace-separated cells of the first golden line under the
/// section titled `section` that starts with `label`.
fn golden_row<'a>(golden: &'a str, section: &str, label: &str) -> Vec<&'a str> {
    let start = golden.find(section).expect("section present");
    golden[start..]
        .lines()
        .map(str::trim_start)
        .find(|line| line.starts_with(label))
        .expect("row present")
        .split_whitespace()
        .collect()
}

/// The Verdict summary row whose first cell is `experiment`.
fn verdict_row<'a>(doc: &'a str, experiment: &str) -> &'a str {
    let prefix = format!("| {experiment} |");
    doc.lines()
        .find(|line| line.starts_with(&prefix))
        .expect("verdict row present")
}

#[test]
fn raw_harness_output_is_the_golden() {
    let doc = read("EXPERIMENTS.md");
    let golden = read("ci/experiments_all.golden.txt");
    assert!(
        fenced_after(&doc, "## Raw harness output\n") == golden,
        "EXPERIMENTS.md's raw block differs from ci/experiments_all.golden.txt"
    );
}

#[test]
fn verdict_summary_reads_the_golden() {
    let doc = read("EXPERIMENTS.md");
    let golden = read("ci/experiments_all.golden.txt");
    // The Full / Partial / Post averages, to two places.
    for (section, experiment) in [
        ("## Figure 12 ", "Fig 12 (headline)"),
        ("## Figure 16 ", "Fig 16 (lazy ToC)"),
    ] {
        let avg = golden_row(&golden, section, "AVG");
        let cell = avg[1..4]
            .iter()
            .map(|v| format!("{:.2}", v.parse::<f64>().expect("a speedup")))
            .collect::<Vec<_>>()
            .join(" / ");
        let row = verdict_row(&doc, experiment);
        assert!(row.contains(&cell), "{experiment}: want {cell} in {row}");
    }
    // Full-WPQ recovery: estimated cycles and milliseconds.
    let full = golden_row(&golden, "## §5.5 ", "full-WPQ-MiSU");
    let cycles: u64 = full[1].parse().expect("cycles");
    let cell = format!(
        "{},{:03} cycles, {} ms",
        cycles / 1000,
        cycles % 1000,
        full[2]
    );
    let row = verdict_row(&doc, "§5.5 recovery");
    assert!(row.contains(&cell), "§5.5: want {cell} in {row}");
}
