//! Table III: line counts of user code in the gravity application.
//!
//! The paper's productivity claim: the whole Barnes-Hut application is
//! 135 lines of user code (50 for `CentroidData`, 45 for
//! `GravityVisitor`, 40 for the driver) against ~4,500 lines of
//! Barnes-Hut-specific code in ChaNGa. This harness counts the
//! equivalent Rust: the non-blank, non-comment, non-test lines of the
//! gravity module split by the same three roles, plus each example.
//!
//! ```text
//! cargo run -p paratreet-bench --bin table3_loc
//! ```

use std::path::Path;

/// Counts non-blank, non-comment lines of the given source text between
/// optional `start`/`end` markers (section headers in the file).
fn count_lines(text: &str) -> usize {
    let mut in_tests = false;
    text.lines()
        .filter(|l| {
            let t = l.trim();
            if t.starts_with("#[cfg(test)]") {
                in_tests = true;
            }
            !in_tests && !t.is_empty() && !t.starts_with("//")
        })
        .count()
}

/// Extracts the lines of `text` belonging to the item whose declaration
/// contains `marker` (struct/impl blocks located by brace matching).
fn section(text: &str, markers: &[&str]) -> String {
    let mut out = String::new();
    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0;
    while i < lines.len() {
        if markers.iter().any(|m| lines[i].contains(m)) {
            let mut depth = 0i32;
            let mut started = false;
            while i < lines.len() {
                out.push_str(lines[i]);
                out.push('\n');
                depth += lines[i].matches('{').count() as i32;
                depth -= lines[i].matches('}').count() as i32;
                if lines[i].contains('{') {
                    started = true;
                }
                i += 1;
                if started && depth <= 0 {
                    break;
                }
            }
        } else {
            i += 1;
        }
    }
    out
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let gravity =
        std::fs::read_to_string(root.join("crates/apps/src/gravity.rs")).expect("gravity source");

    let data_lines = count_lines(&section(
        &gravity,
        &["struct CentroidData", "impl CentroidData", "impl Data for CentroidData"],
    ));
    let visitor_lines = count_lines(&section(
        &gravity,
        &[
            "struct NodeMoments",
            "impl NodeMoments",
            "struct GravityVisitor",
            "impl Default for GravityVisitor",
            "impl Visitor for GravityVisitor",
        ],
    ));
    // The per-pair math lives in the lane-generic `exact` / `approx`
    // (the public `grav_*` are their one-lane instantiation); the bucket
    // loops and lane types around them are framework-side machinery.
    let kernel_lines = count_lines(&section(
        &gravity,
        &["pub fn grav_exact", "pub fn grav_approx", "fn exact(", "fn approx("],
    ));

    println!("TABLE III: line counts of user code in the gravity application\n");
    println!("{:<34} {:>10}  Paper equivalent", "Role (this repo)", "Lines");
    println!("{}", "-".repeat(78));
    println!("{:<34} {data_lines:>10}  CentroidData.h: 50 lines", "CentroidData (Data impl)");
    println!(
        "{:<34} {visitor_lines:>10}  GravityVisitor.h: 45 lines",
        "GravityVisitor (Visitor impl)"
    );
    println!(
        "{:<34} {kernel_lines:>10}  (counted in the 135 total)",
        "Numeric kernels (gravExact/Approx)"
    );

    // Driver: the quickstart example is the paper's GravityMain.
    let mut example_total = 0;
    for (file, role) in [
        ("examples/quickstart.rs", "GravityMain.C: 40 lines"),
        ("examples/gravity_cosmology.rs", "(full simulation loop)"),
        ("examples/sph_blob.rs", "(SPH app, paper: 250 lines)"),
        ("examples/planetesimal_disk.rs", "(case-study app)"),
        ("examples/knn_search.rs", "(kNN app)"),
    ] {
        if let Ok(text) = std::fs::read_to_string(root.join(file)) {
            let lines = count_lines(&text);
            example_total += lines;
            println!("{file:<34} {lines:>10}  {role}");
        }
    }

    let user_total = data_lines + visitor_lines + kernel_lines;
    println!("{}", "-".repeat(78));
    println!("{:<34} {user_total:>10}  paper: 135 lines", "gravity app total (excl. examples)");
    println!("{:<34} {example_total:>10}", "all example drivers");
    println!();
    println!("For comparison, ChaNGa's Barnes-Hut-specific code is ~4,500 lines;");
    println!("this repo's whole framework (not user code) is what absorbs that.");
}
