//! `orpheus-lint` — lint the workspace (or single files) against the
//! L001–L013 rule catalog. Exit codes: 0 clean, 1 findings, 2 usage or
//! I/O error.

use obs::Json;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let started = Instant::now();
    let mut json = false;
    let mut file_mode = false;
    let mut operands: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: orpheus-lint [--json] [ROOT]        lint the workspace rooted at ROOT (default .)\n\
                     \x20      orpheus-lint [--json] --file F...  lint files jointly (//@path directive aware)"
                );
                return ExitCode::SUCCESS;
            }
            "--json" => json = true,
            "--file" => file_mode = true,
            _ => operands.push(arg),
        }
    }
    if file_mode {
        if operands.is_empty() {
            eprintln!("orpheus-lint: --file needs at least one path");
            return ExitCode::from(2);
        }
        let paths: Vec<&Path> = operands.iter().map(Path::new).collect();
        match lint::lint_files(&paths) {
            Ok(findings) => report(findings, paths.len(), json, started),
            Err(e) => {
                eprintln!("orpheus-lint: {e}");
                ExitCode::from(2)
            }
        }
    } else {
        if operands.len() > 1 {
            eprintln!("orpheus-lint: expected at most one ROOT");
            return ExitCode::from(2);
        }
        let root = Path::new(operands.first().map(String::as_str).unwrap_or("."));
        match lint::lint_workspace(root) {
            Ok((findings, scanned)) => report(findings, scanned, json, started),
            Err(e) => {
                eprintln!("orpheus-lint: {}: {e}", root.display());
                ExitCode::from(2)
            }
        }
    }
}

fn report(
    findings: Vec<lint::FileFinding>,
    files: usize,
    json: bool,
    started: Instant,
) -> ExitCode {
    if json {
        print!("{}", render_json(&findings, files));
    } else {
        for f in &findings {
            println!("{f}");
        }
    }
    eprintln!(
        "orpheus-lint: {files} files, {} finding(s) in {:.1} ms",
        findings.len(),
        started.elapsed().as_secs_f64() * 1e3
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `--json` report, schema `orpheus-lint/1` (pinned by
/// `tests/cli.rs`): `{"schema", "files_scanned", "findings": [{"path",
/// "line", "rule", "msg"}]}` with keys in that order, strings escaped by
/// `obs::json`. Findings arrive sorted, so the bytes are stable.
fn render_json(findings: &[lint::FileFinding], files: usize) -> String {
    let s = |v: &str| Json::Str(v.to_owned());
    let items: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "{{\"path\":{},\"line\":{},\"rule\":{},\"msg\":{}}}",
                s(&f.path),
                f.finding.line,
                s(&f.finding.rule.id()),
                s(&f.finding.msg)
            )
        })
        .collect();
    format!(
        "{{\"schema\":{},\"files_scanned\":{files},\"findings\":[{}]}}\n",
        s("orpheus-lint/1"),
        items.join(",")
    )
}
