//! Stamps the build with what it measures: the git commit when the
//! library sits in a git checkout, and always a hash of the library's
//! sources (the checkout a benchmark runs in may not be a git repository).

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let root = Path::new("..");
    let commit = if root.join(".git").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        println!("cargo:rerun-if-changed=../.git/refs");
        Command::new("git")
            .arg("--git-dir")
            .arg(root.join(".git"))
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    } else {
        None
    };
    println!(
        "cargo:rustc-env=STEPBENCH_COMMIT={}",
        commit.as_deref().unwrap_or("none")
    );

    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "crates"] {
        println!("cargo:rerun-if-changed=../{top}");
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let bytes = std::fs::read(file).unwrap_or_default();
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=STEPBENCH_SOURCE={hash:016x}");
}

/// Every `.rs` and `Cargo.toml` file under `path` (or `path` itself).
fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        for entry in std::fs::read_dir(path).into_iter().flatten().flatten() {
            collect(&entry.path(), out);
        }
    } else if path.extension().is_some_and(|e| e == "rs" || e == "lock") || path.ends_with("Cargo.toml") {
        out.push(path.to_path_buf());
    }
}
