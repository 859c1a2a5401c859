//! Engine counters, read by name.
//!
//! The benchmark never touches a `Stats` field. It reads the `key=value`
//! line that `Stats` prints (the line `datalog eval --stats` shows) and the
//! service's `stats` JSON, so counters can be added, renamed or removed in
//! the engine without editing the benchmark: a counter that is gone is
//! simply absent here.

use datalog_json::Value;
use std::collections::BTreeMap;

/// Named counters from one `Stats` display line.
pub type Counters = BTreeMap<String, f64>;

/// Counters of anything that prints like `Stats`
/// (`iterations=9 probes=18450 ...`).
pub fn of(stats: impl std::fmt::Display) -> Counters {
    stats
        .to_string()
        .split_whitespace()
        .filter_map(|pair| pair.split_once('='))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse::<f64>().ok()?)))
        .collect()
}

/// Sum counters into `total`.
pub fn add(total: &mut Counters, more: &Counters) {
    for (k, v) in more {
        *total.entry(k.clone()).or_insert(0.0) += v;
    }
}

/// `after - before`, counter by counter.
pub fn diff(after: &Counters, before: &Counters) -> Counters {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - get(before, k)))
        .collect()
}

/// A counter by name, 0 when the engine does not report it.
pub fn get(counters: &Counters, name: &str) -> f64 {
    counters.get(name).copied().unwrap_or(0.0)
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Follow a path of object keys through a JSON value.
pub fn json_path<'a>(value: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(value, |v, key| v.get(key))
}
