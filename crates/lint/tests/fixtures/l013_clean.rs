//@path crates/relstore/src/env_demo.rs
//! L013 negative: settings arrive as parameters; scratch paths, compile-
//! time `env!`, test code and a reasoned suppression are fine.

pub struct Settings {
    pub pool_pages: usize,
}

pub fn pool_pages(settings: &Settings) -> usize {
    settings.pool_pages.max(1)
}

pub fn scratch_file(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("{tag}-{}", env!("CARGO_PKG_NAME")))
}

pub fn legacy_default() -> usize {
    // lint:allow(L013): an embedder's override, read once where no settings value can reach
    std::env::var("DEMO_POOL_PAGES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(512)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_set_the_environment() {
        std::env::set_var("DEMO_POOL_PAGES", "8");
        assert_eq!(super::legacy_default(), 8);
        std::env::remove_var("DEMO_POOL_PAGES");
    }
}
