//@path crates/pagestore/tests/helpers.rs
//! L010 cross-file negative, half 1: an integration-test helper named
//! `load` that syncs a file. Test code is reachable from its own file
//! only, so it is no call target for `x.load()` in library code (see
//! `l010_x_library.rs`).

use std::fs::File;
use std::path::Path;

pub fn load(path: &Path) -> std::io::Result<File> {
    let file = File::open(path)?;
    file.sync_all()?;
    Ok(file)
}

#[test]
fn loads() {
    let file = load(Path::new("Cargo.toml")).unwrap();
    drop(file);
}
