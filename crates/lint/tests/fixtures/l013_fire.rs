//@path crates/deltastore/src/env_demo.rs
//! L013 positive: library code reading and changing the process
//! environment instead of taking its settings as parameters.

use std::env;

pub fn budget() -> f64 {
    std::env::var("DEMO_BUDGET")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.0)
}

pub fn has_override() -> bool {
    env::var_os("DEMO_OVERRIDE").is_some()
}

pub fn knobs() -> usize {
    std::env::vars().filter(|(k, _)| k.starts_with("DEMO_")).count()
}

pub fn export(budget: f64) {
    std::env::set_var("DEMO_BUDGET", budget.to_string());
    env::remove_var("DEMO_OVERRIDE");
}
