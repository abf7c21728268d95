//! The machine a result was measured on: core count, CPU model, compiler,
//! and how much CPU time the hypervisor stole while the run measured.

/// Worker threads the benchmark uses for `jobs` and server workers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The first `model name` in `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The compiler that built this benchmark (recorded by `build.rs`).
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

/// Peak resident set size of this process in MiB (`VmHWM`), `0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().next()?;
    let fields: Vec<u64> = line.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user/nice, so it is left out.
    let total: u64 = fields.iter().take(8).sum();
    Some((fields.get(7).copied().unwrap_or(0), total))
}

/// Measures the share of CPU time stolen between [`StealMeter::start`] and
/// [`StealMeter::share`].
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    /// Starts measuring.
    pub fn start() -> Self {
        StealMeter(cpu_jiffies())
    }

    /// Stolen jiffies over all jiffies since `start` (`0` without `/proc`).
    pub fn share(&self) -> f64 {
        match (self.0, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// The fingerprint stored with every result, as one JSON object.
pub fn fingerprint_json(steal_share: f64) -> String {
    format!(
        "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"cpu_steal_share\": {}}}",
        nproc(),
        json_string(&cpu_model()),
        json_string(rustc_version()),
        steal_share
    )
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}
