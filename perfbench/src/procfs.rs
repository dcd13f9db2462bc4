//! A small `/proc/self` sampler: page faults, CPU time, context switches,
//! peak resident memory and the mapping count.
//!
//! Every reader has a pure parser next to it so the parsing is tested on
//! fixed text.

use std::fs;

/// Kernel clock ticks per second of the `utime`/`stime` fields (`USER_HZ`,
/// 100 on every mainstream Linux architecture).
const CLOCK_TICKS_PER_S: u64 = 100;

/// Process-wide counters from `/proc/self/stat`. They include threads that
/// have already exited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcStat {
    /// Minor page faults.
    pub minflt: u64,
    /// User CPU time, microseconds.
    pub utime_us: u64,
    /// System CPU time, microseconds.
    pub stime_us: u64,
}

impl ProcStat {
    /// User plus system CPU time, microseconds.
    pub fn cpu_us(&self) -> u64 {
        self.utime_us + self.stime_us
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            minflt: self.minflt.saturating_sub(earlier.minflt),
            utime_us: self.utime_us.saturating_sub(earlier.utime_us),
            stime_us: self.stime_us.saturating_sub(earlier.stime_us),
        }
    }
}

/// Parses the text of `/proc/<pid>/stat`. The command name (field 2) may
/// hold spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat(text: &str) -> Option<ProcStat> {
    let rest = &text[text.rfind(')')? + 1..];
    // After the name: state(3) ppid pgrp session tty_nr tpgid flags
    // minflt(10) cminflt majflt cmajflt utime(14) stime(15).
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    let to_us = |ticks: u64| ticks * 1_000_000 / CLOCK_TICKS_PER_S;
    Some(ProcStat {
        minflt: field(10)?,
        utime_us: to_us(field(14)?),
        stime_us: to_us(field(15)?),
    })
}

/// The numeric value of a `Key:   123 kB` line of a `status` file.
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Voluntary plus involuntary context switches of a `status` file.
pub fn parse_ctx_switches(text: &str) -> Option<u64> {
    Some(
        parse_status_field(text, "voluntary_ctxt_switches")?
            + parse_status_field(text, "nonvoluntary_ctxt_switches")?,
    )
}

/// Samples `/proc/self/stat`.
pub fn stat() -> ProcStat {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|text| parse_stat(&text))
        .unwrap_or_default()
}

/// Peak resident set size (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| parse_status_field(&text, "VmHWM"))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Context switches of the calling thread so far (`/proc/thread-self`:
/// the process-wide `status` file counts only the main thread).
pub fn thread_ctx_switches() -> u64 {
    fs::read_to_string("/proc/thread-self/status")
        .ok()
        .and_then(|text| parse_ctx_switches(&text))
        .unwrap_or(0)
}

/// Number of mappings in `/proc/self/maps`.
pub fn maps_lines() -> u64 {
    fs::read_to_string("/proc/self/maps").map_or(0, |text| text.lines().count() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (perf bench (x)) R 1 4242 4242 0 -1 4194304 \
                        1234 0 5 0 250 75 0 0 20 0 3 0 99 1000 200";

    const STATUS: &str = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t   20480 kB\n\
                          VmRSS:\t   10240 kB\nvoluntary_ctxt_switches:\t17\n\
                          nonvoluntary_ctxt_switches:\t3\n";

    #[test]
    fn stat_fields_are_counted_from_the_last_parenthesis() {
        let stat = parse_stat(STAT).expect("well-formed stat line");
        assert_eq!(stat.minflt, 1234);
        assert_eq!(stat.utime_us, 2_500_000);
        assert_eq!(stat.stime_us, 750_000);
        assert_eq!(stat.cpu_us(), 3_250_000);
        assert_eq!(parse_stat("12 (x) R 1 2"), None);
        assert_eq!(parse_stat("no parenthesis"), None);
    }

    #[test]
    fn stat_deltas_saturate() {
        let a = ProcStat {
            minflt: 10,
            utime_us: 5,
            stime_us: 7,
        };
        let b = ProcStat {
            minflt: 15,
            utime_us: 5,
            stime_us: 9,
        };
        assert_eq!(
            b.since(&a),
            ProcStat {
                minflt: 5,
                utime_us: 0,
                stime_us: 2
            }
        );
        assert_eq!(a.since(&b).minflt, 0);
    }

    #[test]
    fn status_fields_parse_by_exact_key() {
        assert_eq!(parse_status_field(STATUS, "VmHWM"), Some(20_480));
        assert_eq!(parse_status_field(STATUS, "VmRSS"), Some(10_240));
        assert_eq!(parse_status_field(STATUS, "VmSwap"), None);
        // "voluntary" must not match the "nonvoluntary" line.
        assert_eq!(
            parse_status_field(STATUS, "voluntary_ctxt_switches"),
            Some(17)
        );
        assert_eq!(parse_ctx_switches(STATUS), Some(20));
    }

    #[test]
    fn live_samples_are_plausible() {
        assert!(peak_rss_mib() > 0.0);
        assert!(maps_lines() > 0);
        let before = stat();
        let burn: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        std::hint::black_box(burn);
        assert!(stat().minflt >= before.minflt);
    }
}
