//! The host block recorded beside every timing: what the numbers were
//! measured on. Each fact is captured when the benchmark runs and is
//! `null` where it cannot be found offline (no git checkout, no
//! `/proc`, no `rustc` on the path).

use std::path::Path;
use std::process::Command;

use crate::json::{num, quote};

/// The host block as a JSON object; `root` is the checkout whose git
/// revision is recorded.
pub fn host_json(root: &Path) -> String {
    let opt = |v: Option<String>| v.map_or("null".to_string(), |s| quote(&s));
    let cores = std::thread::available_parallelism().map(|n| n.get()).ok();
    format!(
        "{{\"logical_cores\":{},\"cpus_allowed\":{},\"cpu_model\":{},\"profile\":{},\"rustc\":{},\"git_rev\":{}}}",
        cores.map_or("null".to_string(), |n| num(n as f64)),
        opt(proc_field("/proc/self/status", "Cpus_allowed_list")),
        opt(proc_field("/proc/cpuinfo", "model name")),
        quote(if cfg!(debug_assertions) { "debug" } else { "release" }),
        opt(command_line(Command::new("rustc").arg("-V"))),
        opt(git_rev(root)),
    )
}

/// `git rev-parse HEAD` of `root` itself: a checkout without its own
/// `.git` must not report the revision of a repository around it.
fn git_rev(root: &Path) -> Option<String> {
    let root = root.canonicalize().ok()?;
    let mut git = Command::new("git");
    git.arg("-C").arg(&root).args(["rev-parse", "HEAD"]);
    if let Some(parent) = root.parent() {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command_line(&mut git)
}

/// The value of the first `key: value` line of a `/proc` file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.split(':').next().is_some_and(|k| k.trim() == key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// First line of a command's stdout, if it ran and succeeded.
fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.stderr(std::process::Stdio::null()).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let line = String::from_utf8(out.stdout)
        .ok()?
        .lines()
        .next()?
        .trim()
        .to_string();
    (!line.is_empty()).then_some(line)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = proc_field("/proc/self/status", "VmHWM")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
