//! The host that produced a result, and process resource counters.

use std::fs;

/// Host description printed with every result.
pub fn host_json() -> String {
    let nproc = nproc();
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let (avx2, avx512f, avx512bw, avx512vnni) = cpu_flags();
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":\"{}\",\"avx2\":{avx2},\"avx512f\":{avx512f},\
         \"avx512bw\":{avx512bw},\"avx512vnni\":{avx512vnni},\"kernel_path\":\"{}\",\
         \"parallel\":{},\"commit\":\"{}\"}}",
        cpu.replace('"', "'"),
        hnlpu_llm::kernels::kernel_path(),
        cfg!(feature = "parallel"),
        commit(),
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(target_arch = "x86_64")]
fn cpu_flags() -> (bool, bool, bool, bool) {
    (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f"),
        std::arch::is_x86_feature_detected!("avx512bw"),
        std::arch::is_x86_feature_detected!("avx512vnni"),
    )
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_flags() -> (bool, bool, bool, bool) {
    (false, false, false, false)
}

/// The checked-out commit when run from a git working tree, else
/// `"unknown"` (an exported source tree has no `.git`).
fn commit() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs").and_then(|packed| {
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Process high-water resident set, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of the whole process, all threads
/// (`/proc/self/stat` fields 14 and 15, in USER_HZ = 100 ticks).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields restart after its ')'.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // `rest` starts at field 3 (state), so utime (14) is index 11.
    (ticks(11) + ticks(12)) / 100.0
}

/// Seconds the hypervisor ran other guests while this machine's CPUs
/// wanted to run (`steal` in `/proc/stat`, summed over CPUs, USER_HZ = 100).
pub fn steal_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |t| t / 100.0)
}
