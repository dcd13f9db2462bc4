//! What a run records about the code and the machine it ran on.

use std::fs;
use std::path::Path;

/// The checked-out revision, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
pub fn git_rev() -> String {
    read_git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".to_string())
}

fn read_git_rev(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size in bytes of the last-level cache of CPU 0, as `lscpu` reports it
/// (0 if sysfs does not describe the caches).
pub fn llc_bytes() -> u64 {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            let level: u32 = fs::read_to_string(path.join("level"))
                .ok()?
                .trim()
                .parse()
                .ok()?;
            let size = parse_cache_size(&fs::read_to_string(path.join("size")).ok()?)?;
            Some((level, size))
        })
        .max()
        .map_or(0, |(_, size)| size)
}

/// Parses a sysfs cache size such as `307200K`.
pub fn parse_cache_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, scale) = match text.chars().last()? {
        'K' => (&text[..text.len() - 1], 1 << 10),
        'M' => (&text[..text.len() - 1], 1 << 20),
        'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|n| n * scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_with_their_suffix() {
        assert_eq!(parse_cache_size("307200K\n"), Some(300 << 20));
        assert_eq!(parse_cache_size("2M"), Some(2 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("lots"), None);
    }

    #[test]
    fn git_rev_follows_refs_and_packed_refs() {
        let dir = std::env::temp_dir().join(format!("perfbench-git-{}", std::process::id()));
        fs::create_dir_all(dir.join("refs/heads")).expect("scratch git dir");
        fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").expect("HEAD");
        fs::write(dir.join("packed-refs"), "# pack\nabc123 refs/heads/main\n").expect("packed");
        assert_eq!(read_git_rev(&dir).as_deref(), Some("abc123"));
        fs::write(dir.join("refs/heads/main"), "def456\n").expect("loose ref");
        assert_eq!(read_git_rev(&dir).as_deref(), Some("def456"));
        fs::write(dir.join("HEAD"), "0123abcd\n").expect("detached HEAD");
        assert_eq!(read_git_rev(&dir).as_deref(), Some("0123abcd"));
        fs::remove_dir_all(&dir).expect("cleanup");
        assert_eq!(read_git_rev(&dir), None);
    }
}
