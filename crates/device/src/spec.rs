//! Device and interconnect specifications.
//!
//! Constants come from vendor datasheets for the hardware named in the paper
//! (§9 "Hardware Configuration"): one NVIDIA L20 (48 GB) plus two Intel Xeon
//! Gold 6542Y CPUs with 512 GB DRAM, and the consumer RTX 4090 the paper
//! cites as the "24 GB" deployment floor (§9.1.1).

use serde::{Deserialize, Serialize};

/// Gibibytes → bytes.
pub const GIB: u64 = 1 << 30;

/// Which side of the PCIe link a device sits on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// A GPU-like accelerator: high compute, small dedicated memory.
    Gpu,
    /// A host CPU: lower compute, large DRAM.
    Cpu,
}

/// Static description of one compute device.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human-readable name (appears in experiment output).
    pub name: String,
    /// GPU or CPU.
    pub kind: DeviceKind,
    /// Total device memory in bytes.
    pub memory_bytes: u64,
    /// Dense f16/bf16 tensor throughput in FLOP/s (the dtype the paper's
    /// models run in).
    pub compute_flops: f64,
    /// Device-local memory bandwidth in bytes/s (HBM for GPUs, DDR for CPUs).
    pub mem_bandwidth: f64,
}

impl DeviceSpec {
    /// NVIDIA L20: 48 GB GDDR6, 119.5 TFLOPS bf16 (dense), 864 GB/s.
    /// The GPU used in the paper's evaluation.
    pub fn nvidia_l20() -> Self {
        Self {
            name: "NVIDIA L20".into(),
            kind: DeviceKind::Gpu,
            memory_bytes: 48 * GIB,
            compute_flops: 119.5e12,
            mem_bandwidth: 864e9,
        }
    }

    /// Dual Intel Xeon Gold 6542Y: 48 cores / 96 threads, 512 GB DRAM.
    /// AVX-512 f32 throughput estimate ~7.3 TFLOPS across both sockets;
    /// 16-channel DDR5-5200 ≈ 666 GB/s aggregate.
    pub fn xeon_6542y_dual() -> Self {
        Self {
            name: "2x Xeon Gold 6542Y".into(),
            kind: DeviceKind::Cpu,
            memory_bytes: 512 * GIB,
            compute_flops: 7.3e12,
            mem_bandwidth: 666e9,
        }
    }
}

/// A host↔device interconnect.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Human-readable name.
    pub name: String,
    /// Sustained bandwidth in bytes/s.
    pub bandwidth: f64,
    /// Per-transfer fixed latency in seconds.
    pub latency_s: f64,
}

impl LinkSpec {
    /// PCIe 4.0 x16: ~25 GB/s sustained (of 32 GB/s peak), ~10 µs setup.
    pub fn pcie_gen4_x16() -> Self {
        Self {
            name: "PCIe4.0x16".into(),
            bandwidth: 25e9,
            latency_s: 10e-6,
        }
    }

    /// Time to move `bytes` across the link.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_magnitudes() {
        let l20 = DeviceSpec::nvidia_l20();
        assert_eq!(l20.memory_bytes, 48 * GIB);
        assert!(l20.compute_flops > 1e13);
        let cpu = DeviceSpec::xeon_6542y_dual();
        assert_eq!(cpu.kind, DeviceKind::Cpu);
        assert!(cpu.memory_bytes > l20.memory_bytes);
        assert!(cpu.compute_flops < l20.compute_flops);
    }

    #[test]
    fn transfer_time_scales_linearly_past_latency() {
        let link = LinkSpec::pcie_gen4_x16();
        let t1 = link.transfer_time(GIB);
        let t2 = link.transfer_time(2 * GIB);
        // Doubling payload roughly doubles time (latency is negligible at GiB scale).
        assert!((t2 / t1 - 2.0).abs() < 0.01);
        // Tiny transfer is dominated by latency.
        assert!(link.transfer_time(1) >= link.latency_s);
    }

    #[test]
    fn gen5_faster_than_gen4() {
        let g4 = LinkSpec::pcie_gen4_x16();
        // PCIe 5.0 x16 sustains twice gen4's bandwidth at the same setup cost.
        let g5 = LinkSpec {
            name: "PCIe5.0x16".into(),
            bandwidth: 2.0 * g4.bandwidth,
            latency_s: g4.latency_s,
        };
        assert!(g5.transfer_time(GIB) < g4.transfer_time(GIB));
    }
}
