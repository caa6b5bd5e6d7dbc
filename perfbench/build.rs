//! Records the toolchain and the CPU features the benchmark was compiled
//! for, so every result can be stamped with them.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let features = std::env::var("CARGO_CFG_TARGET_FEATURE").unwrap_or_default();
    println!("cargo:rustc-env=PERFBENCH_TARGET_FEATURES={features}");
    println!("cargo:rerun-if-changed=build.rs");
}
