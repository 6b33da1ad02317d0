//! The run context recorded with every result: host, build and source
//! revision, so a number can be traced back to where it was measured.

use crate::report::escape;
use std::path::{Path, PathBuf};

/// The source checkout the benchmark was built from (the parent of its own
/// package directory).
pub fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn read(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of the cache at `level` as the kernel reports it (e.g. `"2048K"`).
fn cache_size(level: u32) -> String {
    (0..8)
        .map(|i| format!("/sys/devices/system/cpu/cpu0/cache/index{i}"))
        .find(|dir| {
            read(format!("{dir}/level")).is_some_and(|l| l.trim() == level.to_string())
                && read(format!("{dir}/type")).is_some_and(|t| t.trim() != "Instruction")
        })
        .and_then(|dir| read(format!("{dir}/size")))
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The checkout's git revision when it carries its `.git` directory.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Some(head) = read(git.join("HEAD")) else {
        return "unavailable (no .git in checkout)".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(git.join(r))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(git.join("packed-refs")).and_then(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next().map(str::to_string))
                })
            })
            .unwrap_or_else(|| format!("unresolved {r}")),
    }
}

/// FNV-1a digest of the workspace sources (every file under `crates/`
/// plus the root manifests), identifying the measured code even where the
/// checkout is not a git repository.
fn source_digest(root: &Path) -> String {
    fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                collect(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        if let Ok(content) = std::fs::read(f) {
            bytes.extend_from_slice(
                f.strip_prefix(root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            bytes.extend_from_slice(&content);
        }
    }
    format!("{:016x} over {} files", ncg_lab::fnv1a(&bytes), files.len())
}

fn target_cpu_native(root: &Path) -> bool {
    read(root.join(".cargo").join("config.toml")).is_some_and(|c| {
        c.lines()
            .any(|l| !l.trim_start().starts_with('#') && l.contains("target-cpu=native"))
    })
}

/// The context as JSON object members (no surrounding braces).
pub fn json_members() -> String {
    let root = checkout_root();
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    format!(
        "\"cpu_model\":\"{}\",\"nproc\":{nproc},\"l2\":\"{}\",\"l3\":\"{}\",\
         \"target_cpu_native\":{},\"rustc\":\"{}\",\"git_revision\":\"{}\",\"source_digest\":\"{}\"",
        escape(&cpu_model()),
        escape(&cache_size(2)),
        escape(&cache_size(3)),
        target_cpu_native(&root),
        escape(&rustc_version()),
        escape(&git_revision(&root)),
        escape(&source_digest(&root)),
    )
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    read("/proc/self/status")?
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse::<f64>()
        .ok()
        .map(|kib| kib / 1024.0)
}
