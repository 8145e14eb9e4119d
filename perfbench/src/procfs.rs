//! Process counters read from `/proc/self` (Linux): bytes written, CPU
//! time and peak resident memory. Each reader returns `None` where the
//! file or field is missing, so the caller decides what that means.

/// Bytes this process has passed to `write`-family calls (`wchar` of
/// `/proc/self/io`), whether or not they reached the disk.
pub fn write_chars() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    field_u64(&io, "wchar:")
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    Some(field_u64(&status, "VmHWM:")? as f64 / 1024.0)
}

/// User plus system CPU seconds of the whole process (`utime + stime`
/// of `/proc/self/stat`, in clock ticks of 1/100 s).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name is parenthesised and may hold spaces: split
    // after its closing parenthesis. utime and stime are fields 14 and
    // 15, i.e. the 12th and 13th after the name.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn field_u64(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Total size in bytes of the regular files under `dir` (recursive).
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_readable_and_move() {
        let probe = std::path::PathBuf::from(format!(".procfs-probe-{}", std::process::id()));
        let before = write_chars().expect("wchar");
        std::fs::write(&probe, [0u8; 4096]).expect("write probe");
        let after = write_chars().expect("wchar");
        std::fs::remove_file(&probe).expect("remove probe");
        assert!(after >= before + 4096);
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
        assert!(cpu_seconds().expect("cpu") >= 0.0);
        assert!(nproc() >= 1);
    }
}
