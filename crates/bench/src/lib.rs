//! Shared plumbing for the evaluation harnesses.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the index). They share a tiny argument
//! parser — `--particles N`, `--seed S`, and harness-specific flags —
//! and the seconds / bytes / bar formatting their tables use.

use paratreet_telemetry::{export, MetricsRegistry, Telemetry};
use std::collections::HashMap;

/// Parsed `--key value` command-line options.
pub struct Args {
    opts: HashMap<String, String>,
}

impl Args {
    /// Parses `std::env::args()`. Flags must come as `--key value`.
    pub fn parse() -> Args {
        let mut opts = HashMap::new();
        let mut iter = std::env::args().skip(1);
        while let Some(k) = iter.next() {
            if let Some(name) = k.strip_prefix("--") {
                if let Some(v) = iter.next() {
                    opts.insert(name.to_string(), v);
                }
            }
        }
        Args { opts }
    }

    /// A `usize` option with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.opts.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// A `u64` option with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.opts.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// An `f64` option with a default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.opts.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// A boolean option with a default; accepts `true`/`false`/`1`/`0`.
    pub fn get_bool(&self, key: &str, default: bool) -> bool {
        match self.opts.get(key).map(String::as_str) {
            Some("true") | Some("1") => true,
            Some("false") | Some("0") => false,
            _ => default,
        }
    }

    /// The raw value of an option, when present.
    pub fn get_opt(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }
}

/// The telemetry handle for a harness: an enabled recorder when
/// `--trace-out` was given (virtual clock for machine-model harnesses),
/// the free disabled handle otherwise. Sweep harnesses attach the same
/// handle to every engine and drain between runs, so the exported trace
/// holds the final configuration of the sweep.
pub fn harness_telemetry(args: &Args, virtual_clock: bool) -> Telemetry {
    if args.get_opt("trace-out").is_none() {
        return Telemetry::disabled();
    }
    if virtual_clock {
        Telemetry::virtual_time(1)
    } else {
        Telemetry::wall(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(8) + 1)
    }
}

/// Honours `--trace-out` / `--metrics-out`: drains `telemetry` into a
/// Chrome trace and dumps `metrics` as JSON (or CSV for a `.csv` path).
pub fn write_telemetry_outputs(
    args: &Args,
    telemetry: &Telemetry,
    metrics: Option<&MetricsRegistry>,
) {
    if let Some(path) = args.get_opt("trace-out") {
        export::write_chrome_trace(path, &telemetry.drain()).expect("write trace");
        eprintln!("wrote Chrome trace to {path}");
    }
    if let (Some(path), Some(metrics)) = (args.get_opt("metrics-out"), metrics) {
        export::write_metrics(path, metrics).expect("write metrics");
        eprintln!("wrote metrics to {path}");
    }
}

/// Human-readable seconds (µs/ms/s autoscale).
pub fn fmt_seconds(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

/// Human-readable byte counts.
pub fn fmt_bytes(b: u64) -> String {
    if b < 1024 {
        format!("{b}B")
    } else if b < 1024 * 1024 {
        format!("{:.1}KB", b as f64 / 1024.0)
    } else if b < 1024 * 1024 * 1024 {
        format!("{:.1}MB", b as f64 / (1024.0 * 1024.0))
    } else {
        format!("{:.2}GB", b as f64 / (1024.0 * 1024.0 * 1024.0))
    }
}

/// A crude ASCII bar for profile plots: `frac` in 0..=1 over `width`.
pub fn bar(frac: f64, width: usize) -> String {
    let n = ((frac.clamp(0.0, 1.0)) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(n), ".".repeat(width - n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_options_parse() {
        let args = Args {
            opts: HashMap::from([
                ("json".to_string(), "true".to_string()),
                ("bar".to_string(), "0".to_string()),
                ("bad".to_string(), "maybe".to_string()),
            ]),
        };
        assert!(args.get_bool("json", false));
        assert!(!args.get_bool("bar", true));
        assert!(args.get_bool("bad", true), "unparsable values fall back to the default");
        assert!(!args.get_bool("absent", false));
        assert_eq!(args.get_opt("json"), Some("true"));
        assert_eq!(args.get_opt("absent"), None);
    }

    #[test]
    fn seconds_format_autoscales() {
        assert_eq!(fmt_seconds(5e-5), "50.0us");
        assert_eq!(fmt_seconds(0.0123), "12.30ms");
        assert_eq!(fmt_seconds(2.5), "2.500s");
    }

    #[test]
    fn bytes_format_autoscales() {
        assert_eq!(fmt_bytes(100), "100B");
        assert_eq!(fmt_bytes(2048), "2.0KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0MB");
    }

    #[test]
    fn bar_is_bounded() {
        assert_eq!(bar(0.0, 10), "..........");
        assert_eq!(bar(1.0, 10), "##########");
        assert_eq!(bar(0.5, 10), "#####.....");
        assert_eq!(bar(7.0, 4), "####");
    }
}
