//! The paper's 8 OS-intensive benchmarks (Section 4.2), expressed as
//! synthetic workload models calibrated to the characterization in
//! Section 4.3 (Figure 4 instruction breakups).
//!
//! Two cross-benchmark sharing effects from the paper are reproduced
//! faithfully through named code regions:
//!
//! * `Iscp` and `Oscp` run the *same* `scp` executable, so their
//!   application SuperFunctions share physical code pages;
//! * `DSS` and `OLTP` both run `mysqld`, likewise;
//! * every application links `libc`, which is mapped once.

use crate::dist::LenDist;
use crate::footprint::Footprint;
use crate::pagealloc::PageAllocator;
use crate::services::ServiceCatalog;
use crate::types::{SfCategory, SuperFuncType};
use rand::Rng;
use std::sync::Arc;

/// The eight benchmarks of Section 4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BenchmarkKind {
    /// `find` over a large ext3 tree (single-threaded).
    Find,
    /// Inbound `scp` of a 10 GB file (single-threaded).
    Iscp,
    /// Outbound `scp` of a 10 GB file (single-threaded).
    Oscp,
    /// Apache web server driven by ApacheBench (multi-threaded).
    Apache,
    /// TPC-H minimal-cost-supplier query on MySQL (multi-threaded).
    Dss,
    /// Filebench `fileserver`, 400 threads (multi-threaded).
    FileSrv,
    /// Filebench `mailserver`, 96 threads (multi-threaded).
    MailSrvIo,
    /// Sysbench OLTP on MySQL, 96 threads (multi-threaded).
    Oltp,
}

impl BenchmarkKind {
    /// All benchmarks in the paper's presentation order.
    pub fn all() -> [BenchmarkKind; 8] {
        [
            BenchmarkKind::Find,
            BenchmarkKind::Iscp,
            BenchmarkKind::Oscp,
            BenchmarkKind::Apache,
            BenchmarkKind::Dss,
            BenchmarkKind::FileSrv,
            BenchmarkKind::MailSrvIo,
            BenchmarkKind::Oltp,
        ]
    }

    /// Display name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            BenchmarkKind::Find => "Find",
            BenchmarkKind::Iscp => "Iscp",
            BenchmarkKind::Oscp => "Oscp",
            BenchmarkKind::Apache => "Apache",
            BenchmarkKind::Dss => "DSS",
            BenchmarkKind::FileSrv => "FileSrv",
            BenchmarkKind::MailSrvIo => "MailSrvIO",
            BenchmarkKind::Oltp => "OLTP",
        }
    }

    /// The benchmark whose display name is `name`, ignoring ASCII case:
    /// the one lookup the wire, `repro` and the examples use.
    pub fn parse(name: &str) -> Option<BenchmarkKind> {
        BenchmarkKind::all()
            .into_iter()
            .find(|b| b.name().eq_ignore_ascii_case(name))
    }
}

/// One entry in a benchmark's system-call mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyscallMix {
    /// Catalog name of the system call.
    pub name: &'static str,
    /// Relative weight (need not be normalized).
    pub weight: f64,
}

/// Static description of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Which benchmark.
    pub kind: BenchmarkKind,
    /// True for Find/Iscp/Oscp (one process per core, as in Section 4.2).
    pub single_threaded: bool,
    /// Threads per core at the 1X workload (Apache's 96 requests on 32
    /// cores is 3 per core, FileSrv's 400 threads is 12.5, ...).
    pub threads_per_core: f64,
    /// Application code footprint in pages (excluding shared libc).
    pub app_code_pages: u64,
    /// Fraction of the application footprint forming the hot loop.
    pub app_hot_fraction: f64,
    /// Per-thread private data pages.
    pub app_private_data_pages: u64,
    /// Process-wide shared data pages (e.g. a database buffer pool).
    pub app_shared_data_pages: u64,
    /// Application instructions between consecutive system calls.
    pub app_burst: LenDist,
    /// System-call mix.
    pub syscall_mix: Vec<SyscallMix>,
    /// System calls per application-level operation (used for the
    /// "application's performance" metric of Section 6.1).
    pub op_syscalls: u32,
    /// Multiplier on the catalog's per-syscall blocking probabilities:
    /// models how often this benchmark's IO misses the page cache (e.g.
    /// Filebench's `fileserver` hits the disk constantly, while the
    /// `mailserver` workload mostly works from cached files).
    pub blocking_multiplier: f64,
    /// Spontaneous external interrupts (e.g. unsolicited inbound network
    /// packets): (interrupt name, arrivals per core per million cycles).
    pub spontaneous_irq: Option<(&'static str, f64)>,
    /// Named region for the executable, so benchmarks running the same
    /// binary share code pages.
    executable_region: &'static str,
}

impl BenchmarkSpec {
    /// The spec for `kind`, with Figure 4-calibrated parameters.
    pub fn for_kind(kind: BenchmarkKind) -> Self {
        match kind {
            BenchmarkKind::Find => BenchmarkSpec {
                kind,
                single_threaded: true,
                threads_per_core: 1.0,
                app_code_pages: 18,
                app_hot_fraction: 0.18,
                app_private_data_pages: 4,
                app_shared_data_pages: 0,
                app_burst: LenDist::uniform(1_200, 3_400),
                syscall_mix: vec![
                    SyscallMix {
                        name: "getdents",
                        weight: 0.30,
                    },
                    SyscallMix {
                        name: "stat",
                        weight: 0.30,
                    },
                    SyscallMix {
                        name: "open",
                        weight: 0.15,
                    },
                    SyscallMix {
                        name: "close",
                        weight: 0.15,
                    },
                    SyscallMix {
                        name: "read",
                        weight: 0.10,
                    },
                ],
                op_syscalls: 4,
                blocking_multiplier: 0.15,
                spontaneous_irq: None,
                executable_region: "app:find",
            },
            BenchmarkKind::Iscp => BenchmarkSpec {
                kind,
                single_threaded: true,
                threads_per_core: 1.0,
                app_code_pages: 40,
                app_hot_fraction: 0.1,
                app_private_data_pages: 6,
                app_shared_data_pages: 0,
                app_burst: LenDist::uniform(10_000, 22_000),
                syscall_mix: vec![
                    SyscallMix {
                        name: "sock_read",
                        weight: 0.50,
                    },
                    SyscallMix {
                        name: "write",
                        weight: 0.35,
                    },
                    SyscallMix {
                        name: "open",
                        weight: 0.05,
                    },
                    SyscallMix {
                        name: "close",
                        weight: 0.05,
                    },
                    SyscallMix {
                        name: "futex",
                        weight: 0.05,
                    },
                ],
                op_syscalls: 2,
                blocking_multiplier: 0.5,
                spontaneous_irq: Some(("network_irq", 3.0)),
                executable_region: "app:scp",
            },
            BenchmarkKind::Oscp => BenchmarkSpec {
                kind,
                single_threaded: true,
                threads_per_core: 1.0,
                app_code_pages: 40,
                app_hot_fraction: 0.1,
                app_private_data_pages: 6,
                app_shared_data_pages: 0,
                app_burst: LenDist::uniform(9_000, 20_000),
                syscall_mix: vec![
                    SyscallMix {
                        name: "sendto",
                        weight: 0.50,
                    },
                    SyscallMix {
                        name: "read",
                        weight: 0.35,
                    },
                    SyscallMix {
                        name: "open",
                        weight: 0.05,
                    },
                    SyscallMix {
                        name: "close",
                        weight: 0.05,
                    },
                    SyscallMix {
                        name: "futex",
                        weight: 0.05,
                    },
                ],
                op_syscalls: 2,
                blocking_multiplier: 0.5,
                spontaneous_irq: Some(("network_irq", 2.0)),
                executable_region: "app:scp",
            },
            BenchmarkKind::Apache => BenchmarkSpec {
                kind,
                single_threaded: false,
                threads_per_core: 3.0,
                app_code_pages: 50,
                app_hot_fraction: 0.09,
                app_private_data_pages: 4,
                app_shared_data_pages: 16,
                app_burst: LenDist::uniform(3_500, 7_500),
                syscall_mix: vec![
                    SyscallMix {
                        name: "accept",
                        weight: 0.15,
                    },
                    SyscallMix {
                        name: "recvfrom",
                        weight: 0.25,
                    },
                    SyscallMix {
                        name: "sendto",
                        weight: 0.25,
                    },
                    SyscallMix {
                        name: "read",
                        weight: 0.10,
                    },
                    SyscallMix {
                        name: "stat",
                        weight: 0.10,
                    },
                    SyscallMix {
                        name: "open",
                        weight: 0.05,
                    },
                    SyscallMix {
                        name: "close",
                        weight: 0.05,
                    },
                    SyscallMix {
                        name: "epoll_wait",
                        weight: 0.05,
                    },
                ],
                op_syscalls: 6,
                blocking_multiplier: 0.8,
                spontaneous_irq: Some(("network_irq", 8.0)),
                executable_region: "app:httpd",
            },
            BenchmarkKind::Dss => BenchmarkSpec {
                kind,
                single_threaded: false,
                threads_per_core: 2.0,
                app_code_pages: 80,
                app_hot_fraction: 0.06,
                app_private_data_pages: 8,
                app_shared_data_pages: 64,
                app_burst: LenDist::uniform(14_000, 26_000),
                syscall_mix: vec![
                    SyscallMix {
                        name: "read",
                        weight: 0.45,
                    },
                    SyscallMix {
                        name: "pread",
                        weight: 0.35,
                    },
                    SyscallMix {
                        name: "write",
                        weight: 0.10,
                    },
                    SyscallMix {
                        name: "futex",
                        weight: 0.10,
                    },
                ],
                op_syscalls: 12,
                blocking_multiplier: 0.2,
                spontaneous_irq: None,
                executable_region: "app:mysqld",
            },
            BenchmarkKind::FileSrv => BenchmarkSpec {
                kind,
                single_threaded: false,
                threads_per_core: 12.5,
                app_code_pages: 28,
                app_hot_fraction: 0.13,
                app_private_data_pages: 4,
                app_shared_data_pages: 8,
                app_burst: LenDist::uniform(2_200, 4_600),
                syscall_mix: vec![
                    SyscallMix {
                        name: "read",
                        weight: 0.25,
                    },
                    SyscallMix {
                        name: "write",
                        weight: 0.25,
                    },
                    SyscallMix {
                        name: "creat",
                        weight: 0.10,
                    },
                    SyscallMix {
                        name: "unlink",
                        weight: 0.10,
                    },
                    SyscallMix {
                        name: "open",
                        weight: 0.10,
                    },
                    SyscallMix {
                        name: "close",
                        weight: 0.10,
                    },
                    SyscallMix {
                        name: "fsync",
                        weight: 0.05,
                    },
                    SyscallMix {
                        name: "stat",
                        weight: 0.05,
                    },
                ],
                op_syscalls: 5,
                blocking_multiplier: 1.4,
                spontaneous_irq: None,
                executable_region: "app:filebench",
            },
            BenchmarkKind::MailSrvIo => BenchmarkSpec {
                kind,
                single_threaded: false,
                threads_per_core: 3.0,
                app_code_pages: 24,
                app_hot_fraction: 0.14,
                app_private_data_pages: 4,
                app_shared_data_pages: 8,
                app_burst: LenDist::uniform(500, 1_400),
                syscall_mix: vec![
                    SyscallMix {
                        name: "read",
                        weight: 0.30,
                    },
                    SyscallMix {
                        name: "write",
                        weight: 0.30,
                    },
                    SyscallMix {
                        name: "open",
                        weight: 0.10,
                    },
                    SyscallMix {
                        name: "close",
                        weight: 0.10,
                    },
                    SyscallMix {
                        name: "creat",
                        weight: 0.05,
                    },
                    SyscallMix {
                        name: "unlink",
                        weight: 0.05,
                    },
                    SyscallMix {
                        name: "fsync",
                        weight: 0.05,
                    },
                    SyscallMix {
                        name: "stat",
                        weight: 0.05,
                    },
                ],
                op_syscalls: 4,
                blocking_multiplier: 0.12,
                spontaneous_irq: None,
                executable_region: "app:filebench",
            },
            BenchmarkKind::Oltp => BenchmarkSpec {
                kind,
                single_threaded: false,
                threads_per_core: 3.0,
                app_code_pages: 80,
                app_hot_fraction: 0.06,
                app_private_data_pages: 8,
                app_shared_data_pages: 64,
                app_burst: LenDist::uniform(11_000, 21_000),
                syscall_mix: vec![
                    SyscallMix {
                        name: "pread",
                        weight: 0.40,
                    },
                    SyscallMix {
                        name: "read",
                        weight: 0.20,
                    },
                    SyscallMix {
                        name: "write",
                        weight: 0.20,
                    },
                    SyscallMix {
                        name: "futex",
                        weight: 0.20,
                    },
                ],
                op_syscalls: 10,
                blocking_multiplier: 0.2,
                spontaneous_irq: None,
                executable_region: "app:mysqld",
            },
        }
    }

    /// Thread (or process-instance) count for `num_cores` cores at the
    /// given workload scale (Section 6.3's 1X/2X/4X/8X).
    pub fn threads(&self, num_cores: usize, scale: f64) -> usize {
        assert!(scale > 0.0, "workload scale must be positive");
        ((self.threads_per_core * num_cores as f64 * scale).round() as usize).max(1)
    }

    /// Mean system-call handler length under this mix, given the catalog.
    pub fn mean_syscall_len(&self, catalog: &ServiceCatalog) -> f64 {
        let total_w: f64 = self.syscall_mix.iter().map(|m| m.weight).sum();
        self.syscall_mix
            .iter()
            .map(|m| catalog.syscall(m.name).len.mean() * m.weight / total_w)
            .sum()
    }
}

/// A benchmark instantiated into a concrete physical address space.
#[derive(Debug, Clone)]
pub struct BenchmarkInstance {
    /// The static spec.
    pub spec: BenchmarkSpec,
    /// Application code footprint (executable + libc).
    pub app_code: Arc<Footprint>,
    /// Process-wide shared data footprint.
    pub app_shared_data: Arc<Footprint>,
    /// The application's SuperFunction type (category 3; subcategory is a
    /// checksum of the code pages, Section 3.1).
    pub app_super_func_type: SuperFuncType,
    cdf: Vec<(f64, &'static str)>,
}

impl BenchmarkInstance {
    /// Instantiates `spec` in the address space managed by `alloc`.
    ///
    /// Calling this twice for benchmarks that share an executable region
    /// (Iscp/Oscp, DSS/OLTP) yields overlapping application footprints,
    /// reproducing the paper's physical-page sharing.
    pub fn new(spec: BenchmarkSpec, alloc: &mut PageAllocator) -> Self {
        let libc = alloc.region("lib:libc", 12);
        let exe = alloc.region(spec.executable_region, spec.app_code_pages);
        let mut code = Footprint::from_regions([&exe]);
        code.add_region(&libc);

        let shared_data = if spec.app_shared_data_pages > 0 {
            let r = alloc.region(
                // Shared data belongs to the process image, so key it by
                // executable too (DSS and OLTP share a buffer pool).
                &format!("data:{}", spec.executable_region),
                spec.app_shared_data_pages,
            );
            Footprint::from_regions([&r])
        } else {
            Footprint::new()
        };

        let app_super_func_type =
            SuperFuncType::new(SfCategory::Application, checksum_pages(code.pages()));

        let total_w: f64 = spec.syscall_mix.iter().map(|m| m.weight).sum();
        let mut acc = 0.0;
        let cdf = spec
            .syscall_mix
            .iter()
            .map(|m| {
                acc += m.weight / total_w;
                (acc, m.name)
            })
            .collect();

        BenchmarkInstance {
            spec,
            app_code: Arc::new(code),
            app_shared_data: Arc::new(shared_data),
            app_super_func_type,
            cdf,
        }
    }

    /// Samples the next system call from the benchmark's mix.
    pub fn sample_syscall<R: Rng + ?Sized>(&self, rng: &mut R) -> &'static str {
        let x: f64 = rng.gen();
        for &(cum, name) in &self.cdf {
            if x <= cum {
                return name;
            }
        }
        // Static mixes are never empty; fall back to a name the kernel
        // maps to a typed UnknownService error rather than panicking.
        debug_assert!(!self.cdf.is_empty(), "syscall mix must be non-empty");
        self.cdf.last().map_or("<empty-mix>", |&(_, name)| name)
    }

    /// Allocates a fresh per-thread private data footprint.
    pub fn private_data(&self, alloc: &mut PageAllocator, thread_tag: &str) -> Footprint {
        if self.spec.app_private_data_pages == 0 {
            return Footprint::new();
        }
        let r = alloc.anonymous(thread_tag, self.spec.app_private_data_pages);
        Footprint::from_regions([&r])
    }
}

/// The 62-bit page checksum used for application superFuncTypes
/// (Section 3.1: "a hash of all code pages that it accesses at runtime").
fn checksum_pages(pages: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut sorted: Vec<u64> = pages.to_vec();
    sorted.sort_unstable();
    for p in sorted {
        h ^= p;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h & ((1u64 << 62) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_benchmarks_have_specs() {
        for kind in BenchmarkKind::all() {
            let spec = BenchmarkSpec::for_kind(kind);
            assert_eq!(spec.kind, kind);
            assert!(!spec.syscall_mix.is_empty());
            assert!(spec.app_code_pages > 0);
        }
    }

    #[test]
    fn single_threaded_flags_match_paper() {
        use BenchmarkKind::*;
        for kind in [Find, Iscp, Oscp] {
            assert!(BenchmarkSpec::for_kind(kind).single_threaded);
        }
        for kind in [Apache, Dss, FileSrv, MailSrvIo, Oltp] {
            assert!(!BenchmarkSpec::for_kind(kind).single_threaded);
        }
    }

    #[test]
    fn paper_thread_counts_at_32_cores() {
        // Apache: 96 simultaneous requests = 3 per core; FileSrv: 400
        // threads; MailSrvIO and OLTP: 96 threads.
        assert_eq!(
            BenchmarkSpec::for_kind(BenchmarkKind::Apache).threads(32, 1.0),
            96
        );
        assert_eq!(
            BenchmarkSpec::for_kind(BenchmarkKind::FileSrv).threads(32, 1.0),
            400
        );
        assert_eq!(
            BenchmarkSpec::for_kind(BenchmarkKind::MailSrvIo).threads(32, 1.0),
            96
        );
        assert_eq!(
            BenchmarkSpec::for_kind(BenchmarkKind::Oltp).threads(32, 1.0),
            96
        );
        assert_eq!(
            BenchmarkSpec::for_kind(BenchmarkKind::Find).threads(32, 1.0),
            32
        );
    }

    #[test]
    fn doubling_scale_doubles_threads() {
        let spec = BenchmarkSpec::for_kind(BenchmarkKind::Apache);
        assert_eq!(spec.threads(32, 2.0), 192);
        assert_eq!(spec.threads(32, 0.5), 48);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        BenchmarkSpec::for_kind(BenchmarkKind::Find).threads(32, 0.0);
    }

    #[test]
    fn iscp_and_oscp_share_the_scp_binary() {
        let mut alloc = PageAllocator::new();
        let iscp = BenchmarkInstance::new(BenchmarkSpec::for_kind(BenchmarkKind::Iscp), &mut alloc);
        let oscp = BenchmarkInstance::new(BenchmarkSpec::for_kind(BenchmarkKind::Oscp), &mut alloc);
        let overlap = iscp.app_code.overlap_pages(&oscp.app_code);
        assert_eq!(overlap, iscp.app_code.num_pages());
        assert_eq!(iscp.app_super_func_type, oscp.app_super_func_type);
    }

    #[test]
    fn dss_and_oltp_share_mysqld() {
        let mut alloc = PageAllocator::new();
        let dss = BenchmarkInstance::new(BenchmarkSpec::for_kind(BenchmarkKind::Dss), &mut alloc);
        let oltp = BenchmarkInstance::new(BenchmarkSpec::for_kind(BenchmarkKind::Oltp), &mut alloc);
        assert!(dss.app_code.overlap_pages(&oltp.app_code) > 80);
    }

    #[test]
    fn different_binaries_share_only_libc() {
        let mut alloc = PageAllocator::new();
        let find = BenchmarkInstance::new(BenchmarkSpec::for_kind(BenchmarkKind::Find), &mut alloc);
        let apache =
            BenchmarkInstance::new(BenchmarkSpec::for_kind(BenchmarkKind::Apache), &mut alloc);
        assert_eq!(find.app_code.overlap_pages(&apache.app_code), 12);
        assert_ne!(find.app_super_func_type, apache.app_super_func_type);
    }

    #[test]
    fn app_super_func_type_is_application_category() {
        let mut alloc = PageAllocator::new();
        let inst = BenchmarkInstance::new(BenchmarkSpec::for_kind(BenchmarkKind::Find), &mut alloc);
        assert_eq!(inst.app_super_func_type.category(), SfCategory::Application);
    }

    #[test]
    fn syscall_sampling_matches_weights() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut alloc = PageAllocator::new();
        let inst = BenchmarkInstance::new(BenchmarkSpec::for_kind(BenchmarkKind::Dss), &mut alloc);
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 20_000;
        let reads = (0..n)
            .filter(|_| inst.sample_syscall(&mut rng) == "read")
            .count();
        let frac = reads as f64 / n as f64;
        assert!((frac - 0.45).abs() < 0.02, "read fraction = {frac}");
    }

    #[test]
    fn private_data_is_per_thread() {
        let mut alloc = PageAllocator::new();
        let inst = BenchmarkInstance::new(BenchmarkSpec::for_kind(BenchmarkKind::Oltp), &mut alloc);
        let a = inst.private_data(&mut alloc, "t0");
        let b = inst.private_data(&mut alloc, "t1");
        assert_eq!(a.overlap_pages(&b), 0);
        assert_eq!(a.num_pages() as u64, inst.spec.app_private_data_pages);
    }

    #[test]
    fn checksum_is_order_insensitive_but_content_sensitive() {
        assert_eq!(checksum_pages(&[1, 2, 3]), checksum_pages(&[3, 1, 2]));
        assert_ne!(checksum_pages(&[1, 2, 3]), checksum_pages(&[1, 2, 4]));
        assert!(checksum_pages(&[1, 2, 3]) < (1u64 << 62));
    }

    #[test]
    fn mean_syscall_len_is_positive_for_all() {
        let mut alloc = PageAllocator::new();
        let cat = ServiceCatalog::standard(&mut alloc);
        for kind in BenchmarkKind::all() {
            let spec = BenchmarkSpec::for_kind(kind);
            assert!(spec.mean_syscall_len(&cat) > 500.0);
        }
    }
}
