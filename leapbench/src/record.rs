//! The run record: what a result was measured on and with.

use leap_obs::Json;
use std::path::Path;

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read(path: impl AsRef<Path>) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Data and unified cache sizes of CPU 0 by level, e.g. `("L2", "2048K")`.
fn caches() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(kind), Some(size)) = (
            read(format!("{dir}/level")),
            read(format!("{dir}/type")),
            read(format!("{dir}/size")),
        ) else {
            break;
        };
        if kind != "Instruction" {
            out.push((format!("L{level}"), size));
        }
    }
    out
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs")).and_then(|p| {
                p.lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn run_record(workload: &str, seed: u64, threads: usize, seconds: u64, trace: bool) -> Json {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let caches = caches().into_iter().fold(Json::obj(), |j, (level, size)| {
        j.field(&level, Json::str(size))
    });
    Json::obj()
        .field("workload", Json::str(workload))
        .field("seed", Json::U64(seed))
        .field("seconds", Json::U64(seconds))
        .field("trace", Json::Bool(trace))
        .field("client_threads", Json::U64(threads as u64))
        .field("nproc", Json::U64(nproc() as u64))
        .field("cpu_model", Json::str(cpu_model()))
        .field("caches", caches)
        .field(
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        )
        .field("git_commit", Json::str(git_commit(&root)))
}
