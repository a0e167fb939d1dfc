//! What the host is and what this process used: core count, compiler,
//! cache sizes from sysfs, peak resident memory and CPU time from procfs.

use sketch_obs::{rustc_version, JsonValue};

/// Kernel clock ticks per second for `/proc/self/stat` (USER_HZ, fixed at 100
/// on every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// One CPU cache level as sysfs describes it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cache {
    level: u32,
    kind: String,
    bytes: u64,
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Parse a sysfs cache size such as `4096K` or `300M`.
fn parse_size(text: &str) -> Option<u64> {
    let (digits, scale) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * scale)
}

fn caches() -> Vec<Cache> {
    (0..8)
        .map_while(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            Some(Cache {
                level: read(&format!("{dir}/level"))?.parse().ok()?,
                kind: read(&format!("{dir}/type"))?,
                bytes: parse_size(&read(&format!("{dir}/size"))?)?,
            })
        })
        .collect()
}

/// The host header: cores, compiler, caches, and the workload's operand
/// bytes beside the LLC, so a reader can tell whether the data fit in cache.
pub fn header(workload: &str, operand_bytes: u64) -> JsonValue {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let caches = caches();
    let l2 = caches.iter().find(|c| c.level == 2).map_or(0, |c| c.bytes);
    // The last-level cache is the highest level sysfs lists (0 if none).
    let llc = caches.iter().max_by_key(|c| c.level).map_or(0, |c| c.bytes);
    JsonValue::Object(vec![
        ("workload".into(), JsonValue::Str(workload.into())),
        ("cores".into(), JsonValue::UInt(cores as u64)),
        (
            "rayon_threads".into(),
            JsonValue::UInt(rayon::current_num_threads() as u64),
        ),
        ("rustc".into(), JsonValue::Str(rustc_version())),
        ("l2_bytes".into(), JsonValue::UInt(l2)),
        ("llc_bytes".into(), JsonValue::UInt(llc)),
        ("operand_bytes".into(), JsonValue::UInt(operand_bytes)),
        (
            "operand_fits_llc".into(),
            JsonValue::Bool(llc > 0 && operand_bytes <= llc),
        ),
        (
            "caches".into(),
            JsonValue::Array(
                caches
                    .iter()
                    .map(|c| {
                        JsonValue::Object(vec![
                            ("level".into(), JsonValue::UInt(u64::from(c.level))),
                            ("type".into(), JsonValue::Str(c.kind.clone())),
                            ("bytes".into(), JsonValue::UInt(c.bytes)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// User plus system CPU seconds this process has used.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')').ok_or("malformed /proc/self/stat")? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((tick(11)? + tick(12)?) / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("4096K"), Some(4 << 20));
        assert_eq!(parse_size("300M"), Some(300 << 20));
        assert_eq!(parse_size("64"), Some(64));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn procfs_readings_are_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(cpu_seconds().unwrap() >= 0.0);
    }
}
