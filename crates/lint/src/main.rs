//! `orpheus-lint` — lint the workspace (or files, jointly) for rule
//! L010. Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let started = Instant::now();
    let mut file_mode = false;
    let mut operands: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: orpheus-lint [ROOT]        lint the workspace rooted at ROOT (default .)\n\
                     \x20      orpheus-lint --file F...  lint files jointly (//@path directive aware)"
                );
                return ExitCode::SUCCESS;
            }
            "--file" => file_mode = true,
            _ => operands.push(arg),
        }
    }
    let linted = if file_mode {
        if operands.is_empty() {
            eprintln!("orpheus-lint: --file needs at least one path");
            return ExitCode::from(2);
        }
        let paths: Vec<&Path> = operands.iter().map(Path::new).collect();
        lint::lint_files(&paths)
            .map(|findings| (findings, paths.len()))
            .map_err(|e| e.to_string())
    } else {
        if operands.len() > 1 {
            eprintln!("orpheus-lint: expected at most one ROOT");
            return ExitCode::from(2);
        }
        let root = Path::new(operands.first().map_or(".", String::as_str));
        lint::lint_workspace(root).map_err(|e| format!("{}: {e}", root.display()))
    };
    let (findings, files) = match linted {
        Ok(linted) => linted,
        Err(e) => {
            eprintln!("orpheus-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
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
