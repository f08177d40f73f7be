//! Host facts: peak memory from `/proc` and the provenance line.

use catnap_util::Json;
use std::fs;
use std::path::Path;

/// Peak resident set (`VmHWM`) of a process, in MiB. `pid = None` reads
/// this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = pid.map_or("/proc/self/status".to_string(), |p| format!("/proc/{p}/status"));
    let status = fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Pids of this process's live children whose command name is `comm`.
fn children_named(comm: &str) -> Vec<u32> {
    let me = std::process::id();
    let Ok(entries) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut pids: Vec<u32> = entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            let Ok(stat) = fs::read_to_string(format!("/proc/{pid}/stat")) else {
                return false;
            };
            // `pid (comm) state ppid …`; comm may itself hold spaces.
            let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
                return false;
            };
            let ppid = stat[close + 1..].split_whitespace().nth(1);
            &stat[open + 1..close] == comm && ppid == Some(me.to_string().as_str())
        })
        .collect();
    pids.sort_unstable();
    pids
}

/// Largest peak resident set among this process's live children named
/// `comm`, in MiB.
pub fn children_peak_rss_mb(comm: &str) -> Option<f64> {
    children_named(comm)
        .into_iter()
        .filter_map(|pid| peak_rss_mb(Some(pid)))
        .reduce(f64::max)
}

/// The commit checked out at `root`, read from `.git` without running
/// git; `"unknown"` outside a git checkout.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how a result was produced.
pub fn provenance(root: &Path) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var(catnap_util::pool::THREADS_ENV).map_or(Json::Null, Json::Str);
    Json::Obj(vec![
        ("nproc".to_string(), Json::Int(nproc as i64)),
        ("catnap_threads".to_string(), threads),
        ("git_commit".to_string(), Json::Str(git_commit(root))),
        ("rustc".to_string(), Json::Str(env!("CATBENCH_RUSTC").to_string())),
        ("profile".to_string(), Json::Str(env!("CATBENCH_PROFILE").to_string())),
    ])
}
