//! Unit helpers shared across the workspace.
//!
//! The paper mixes decimal (GB/s link bandwidth, GFlop/s) and binary
//! (GiB memory, KiB caches) units, as HPC papers do. Keeping the
//! conversions in one place avoids the classic 7%-at-GB-scale bugs.

/// Bytes in one decimal kilobyte.
pub const KB: u64 = 1_000;
/// Bytes in one decimal megabyte.
pub const MB: u64 = 1_000_000;
/// Bytes in one decimal gigabyte.
pub const GB: u64 = 1_000_000_000;

/// Bytes in one kibibyte.
pub const KIB: u64 = 1 << 10;
/// Bytes in one mebibyte.
pub const MIB: u64 = 1 << 20;
/// Bytes in one gibibyte.
pub const GIB: u64 = 1 << 30;

/// Floating-point operations per second in one GFlop/s.
pub const GFLOPS: f64 = 1e9;
/// Floating-point operations per second in one TFlop/s.
pub const TFLOPS: f64 = 1e12;

/// Render a byte count with a binary-unit suffix (e.g. `32KiB`, `2GiB`).
pub fn fmt_bytes_bin(bytes: u64) -> String {
    if bytes >= GIB && bytes.is_multiple_of(GIB) {
        format!("{}GiB", bytes / GIB)
    } else if bytes >= MIB && bytes.is_multiple_of(MIB) {
        format!("{}MiB", bytes / MIB)
    } else if bytes >= KIB && bytes.is_multiple_of(KIB) {
        format!("{}KiB", bytes / KIB)
    } else {
        format!("{bytes}B")
    }
}

/// Render a flop rate (e.g. `13.60 GF/s`, `1.00 TF/s`).
pub fn fmt_flops(flops_per_sec: f64) -> String {
    if flops_per_sec >= TFLOPS {
        format!("{:.2} TF/s", flops_per_sec / TFLOPS)
    } else if flops_per_sec >= GFLOPS {
        format!("{:.2} GF/s", flops_per_sec / GFLOPS)
    } else {
        format!("{:.2} MF/s", flops_per_sec / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_and_decimal_units_differ() {
        assert_eq!(KIB, 1024);
        assert_eq!(KB, 1000);
        assert_eq!(GIB - GB, 73_741_824);
    }

    #[test]
    fn fmt_bytes_picks_exact_unit() {
        assert_eq!(fmt_bytes_bin(32 * KIB), "32KiB");
        assert_eq!(fmt_bytes_bin(8 * MIB), "8MiB");
        assert_eq!(fmt_bytes_bin(2 * GIB), "2GiB");
        assert_eq!(fmt_bytes_bin(1000), "1000B");
    }

    #[test]
    fn fmt_flops_scales() {
        assert_eq!(fmt_flops(13.6e9), "13.60 GF/s");
        assert_eq!(fmt_flops(1e12), "1.00 TF/s");
        assert_eq!(fmt_flops(3.4e8), "340.00 MF/s");
    }
}
