//! The OS service catalog: system-call handlers, interrupt handlers, and
//! bottom-half handlers with their code footprints, lengths, and blocking
//! behaviour. All three kinds are one [`ServiceSpec`] type, told apart by
//! the category of its [`SuperFuncType`] (Table 1).
//!
//! Footprints are built from named regions so that related services share
//! physical pages exactly as the paper describes: `read` and `pread`
//! "mostly execute the same set of instructions" (Section 3.2), all
//! filesystem calls share VFS code, and all network calls share the
//! socket/TCP stack. These shared regions are what the Page-heatmap
//! Bloom filters detect at run time.

use crate::dist::LenDist;
use crate::footprint::{Footprint, Region, LINES_PER_PAGE};
use crate::pagealloc::PageAllocator;
use crate::types::{SfCategory, SuperFuncType};
use std::collections::HashMap;
use std::sync::Arc;

/// A device a SuperFunction can block on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Block storage (latency ≈ tens of microseconds, e.g. an SSD-backed
    /// ext3 volume).
    Disk,
    /// Network interface.
    Network,
    /// Timer (sleeps).
    Timer,
}

impl DeviceKind {
    /// All devices.
    pub fn all() -> [DeviceKind; 3] {
        [DeviceKind::Disk, DeviceKind::Network, DeviceKind::Timer]
    }
}

/// How (and whether) a system call blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingProfile {
    /// Device awaited.
    pub device: DeviceKind,
    /// Probability that a given invocation blocks.
    pub probability: f64,
    /// Fraction of the handler's instructions executed before blocking
    /// (the remainder runs after wake-up).
    pub at_fraction: f64,
}

/// A system call's blocking behaviour, in catalog shorthand.
fn blocks(device: DeviceKind, probability: f64, at_fraction: f64) -> Option<BlockingProfile> {
    Some(BlockingProfile {
        device,
        probability,
        at_fraction,
    })
}

/// One OS service handler: a system call, an interrupt top half, or a
/// bottom half.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// The handler's SuperFunction type. Its subcategory is the
    /// system-call number (Linux 2.6 x86 table where the paper pins one:
    /// `read` is 3), the IRQ line, or a bottom half's entry PC (the
    /// first instruction line of its footprint).
    pub sf_type: SuperFuncType,
    /// Handler name, unique across the catalog.
    pub name: &'static str,
    /// Code footprint (includes shared kernel regions).
    pub code: Arc<Footprint>,
    /// Kernel data structures shared by all invocations of this handler.
    pub shared_data: Arc<Footprint>,
    /// Instruction-count distribution per invocation.
    pub len: LenDist,
    /// Blocking behaviour of a system call, if any.
    pub blocking: Option<BlockingProfile>,
    /// Bottom half an interrupt schedules when its top half completes,
    /// if any.
    pub bottom_half: Option<&'static str>,
}

/// The complete catalog of OS services for one simulated machine.
///
/// # Examples
///
/// ```
/// use schedtask_workload::{PageAllocator, ServiceCatalog};
///
/// let mut alloc = PageAllocator::new();
/// let cat = ServiceCatalog::standard(&mut alloc);
///
/// let read = cat.syscall("read");
/// let pread = cat.syscall("pread");
/// // read and pread mostly share instructions (Section 3.2).
/// let overlap = read.code.overlap_pages(&pread.code);
/// assert!(overlap as f64 / read.code.num_pages() as f64 > 0.6);
/// ```
#[derive(Debug, Clone)]
pub struct ServiceCatalog {
    services: HashMap<&'static str, ServiceSpec>,
}

impl ServiceCatalog {
    /// Builds the standard Linux-2.6-flavoured catalog on `alloc`.
    pub fn standard(alloc: &mut PageAllocator) -> Self {
        let mut cat = ServiceCatalog {
            services: HashMap::new(),
        };

        // ---- Shared kernel code regions -------------------------------
        let vfs = alloc.region("k:vfs_common", 6);
        let namei = alloc.region("k:namei", 5);
        let buffer_io = alloc.region("k:buffer_io", 4);
        let block = alloc.region("k:block_common", 5);
        let net = alloc.region("k:net_common", 8);
        let tcp = alloc.region("k:tcp", 6);
        let mm = alloc.region("k:mm_common", 5);
        let sched_code = alloc.region("k:sched", 4);
        let crypto = alloc.region("k:crypto", 4);

        // ---- Shared kernel data regions -------------------------------
        let d_vfs = alloc.region("kd:vfs", 6);
        let d_net = alloc.region("kd:net", 6);
        let d_block = alloc.region("kd:block", 4);
        let d_mm = alloc.region("kd:mm", 3);
        let d_sched = alloc.region("kd:sched", 3);

        // Helper closures -----------------------------------------------
        let fpr = |regions: &[&Region]| Arc::new(Footprint::from_regions(regions.iter().copied()));
        let syscall = |nr| SuperFuncType::new(SfCategory::SystemCall, nr);
        let irq = |line| SuperFuncType::new(SfCategory::Interrupt, line);
        let entry_pc = |code: &Region| {
            SuperFuncType::new(SfCategory::BottomHalf, code.first_page() * LINES_PER_PAGE)
        };

        // ---- System calls ---------------------------------------------
        // Filesystem family: heavy mutual overlap through vfs/namei.
        let read_priv = alloc.region("k:read_priv", 3);
        cat.add(ServiceSpec {
            sf_type: syscall(3),
            name: "read",
            code: fpr(&[&vfs, &buffer_io, &read_priv]),
            shared_data: fpr(&[&d_vfs, &d_block]),
            len: LenDist::uniform(2_000, 5_000),
            blocking: blocks(DeviceKind::Disk, 0.25, 0.6),
            bottom_half: None,
        });
        let pread_priv = alloc.region("k:pread_priv", 1);
        cat.add(ServiceSpec {
            sf_type: syscall(180),
            name: "pread",
            code: fpr(&[&vfs, &buffer_io, &read_priv, &pread_priv]),
            shared_data: fpr(&[&d_vfs, &d_block]),
            len: LenDist::uniform(2_000, 5_000),
            blocking: blocks(DeviceKind::Disk, 0.25, 0.6),
            bottom_half: None,
        });
        let write_priv = alloc.region("k:write_priv", 3);
        cat.add(ServiceSpec {
            sf_type: syscall(4),
            name: "write",
            code: fpr(&[&vfs, &buffer_io, &write_priv]),
            shared_data: fpr(&[&d_vfs, &d_block]),
            len: LenDist::uniform(2_500, 6_000),
            blocking: blocks(DeviceKind::Disk, 0.15, 0.7),
            bottom_half: None,
        });
        let open_priv = alloc.region("k:open_priv", 2);
        cat.add(ServiceSpec {
            sf_type: syscall(5),
            name: "open",
            code: fpr(&[&vfs, &namei, &open_priv]),
            shared_data: fpr(&[&d_vfs]),
            len: LenDist::uniform(3_000, 7_000),
            blocking: blocks(DeviceKind::Disk, 0.10, 0.5),
            bottom_half: None,
        });
        let close_priv = alloc.region("k:close_priv", 1);
        cat.add(ServiceSpec {
            sf_type: syscall(6),
            name: "close",
            code: fpr(&[&vfs, &close_priv]),
            shared_data: fpr(&[&d_vfs]),
            len: LenDist::uniform(800, 2_000),
            blocking: None,
            bottom_half: None,
        });
        let stat_priv = alloc.region("k:stat_priv", 1);
        cat.add(ServiceSpec {
            sf_type: syscall(106),
            name: "stat",
            code: fpr(&[&vfs, &namei, &stat_priv]),
            shared_data: fpr(&[&d_vfs]),
            len: LenDist::uniform(1_500, 4_000),
            blocking: blocks(DeviceKind::Disk, 0.08, 0.5),
            bottom_half: None,
        });
        let getdents_priv = alloc.region("k:getdents_priv", 2);
        cat.add(ServiceSpec {
            sf_type: syscall(141),
            name: "getdents",
            code: fpr(&[&vfs, &namei, &getdents_priv]),
            shared_data: fpr(&[&d_vfs, &d_block]),
            len: LenDist::uniform(2_500, 6_000),
            blocking: blocks(DeviceKind::Disk, 0.20, 0.5),
            bottom_half: None,
        });
        let unlink_priv = alloc.region("k:unlink_priv", 1);
        cat.add(ServiceSpec {
            sf_type: syscall(10),
            name: "unlink",
            code: fpr(&[&vfs, &namei, &unlink_priv]),
            shared_data: fpr(&[&d_vfs]),
            len: LenDist::uniform(2_000, 5_000),
            blocking: blocks(DeviceKind::Disk, 0.10, 0.6),
            bottom_half: None,
        });
        let creat_priv = alloc.region("k:creat_priv", 1);
        cat.add(ServiceSpec {
            sf_type: syscall(8),
            name: "creat",
            code: fpr(&[&vfs, &namei, &creat_priv]),
            shared_data: fpr(&[&d_vfs]),
            len: LenDist::uniform(3_000, 7_000),
            blocking: blocks(DeviceKind::Disk, 0.15, 0.6),
            bottom_half: None,
        });
        let fsync_priv = alloc.region("k:fsync_priv", 1);
        cat.add(ServiceSpec {
            sf_type: syscall(118),
            name: "fsync",
            code: fpr(&[&vfs, &buffer_io, &block, &fsync_priv]),
            shared_data: fpr(&[&d_vfs, &d_block]),
            len: LenDist::uniform(3_000, 8_000),
            blocking: blocks(DeviceKind::Disk, 0.7, 0.4),
            bottom_half: None,
        });

        // Network family: heavy mutual overlap through net/tcp.
        let socket_priv = alloc.region("k:socket_priv", 2);
        cat.add(ServiceSpec {
            sf_type: syscall(359),
            name: "socket",
            code: fpr(&[&net, &socket_priv]),
            shared_data: fpr(&[&d_net]),
            len: LenDist::uniform(2_000, 4_000),
            blocking: None,
            bottom_half: None,
        });
        let accept_priv = alloc.region("k:accept_priv", 2);
        cat.add(ServiceSpec {
            sf_type: syscall(364),
            name: "accept",
            code: fpr(&[&net, &tcp, &accept_priv]),
            shared_data: fpr(&[&d_net]),
            len: LenDist::uniform(2_000, 5_000),
            blocking: blocks(DeviceKind::Network, 0.5, 0.3),
            bottom_half: None,
        });
        let sendto_priv = alloc.region("k:sendto_priv", 2);
        cat.add(ServiceSpec {
            sf_type: syscall(369),
            name: "sendto",
            code: fpr(&[&net, &tcp, &sendto_priv]),
            shared_data: fpr(&[&d_net]),
            len: LenDist::uniform(3_000, 7_000),
            blocking: blocks(DeviceKind::Network, 0.10, 0.8),
            bottom_half: None,
        });
        let recvfrom_priv = alloc.region("k:recvfrom_priv", 2);
        cat.add(ServiceSpec {
            sf_type: syscall(371),
            name: "recvfrom",
            code: fpr(&[&net, &tcp, &recvfrom_priv]),
            shared_data: fpr(&[&d_net]),
            len: LenDist::uniform(3_000, 7_000),
            blocking: blocks(DeviceKind::Network, 0.45, 0.3),
            bottom_half: None,
        });
        let epoll_priv = alloc.region("k:epoll_priv", 2);
        cat.add(ServiceSpec {
            sf_type: syscall(256),
            name: "epoll_wait",
            code: fpr(&[&vfs, &epoll_priv]),
            shared_data: fpr(&[&d_net, &d_vfs]),
            len: LenDist::uniform(1_000, 3_000),
            blocking: blocks(DeviceKind::Network, 0.4, 0.5),
            bottom_half: None,
        });

        // Memory / process family.
        let mmap_priv = alloc.region("k:mmap_priv", 2);
        cat.add(ServiceSpec {
            sf_type: syscall(90),
            name: "mmap",
            code: fpr(&[&mm, &mmap_priv]),
            shared_data: fpr(&[&d_mm]),
            len: LenDist::uniform(2_000, 5_000),
            blocking: None,
            bottom_half: None,
        });
        let brk_priv = alloc.region("k:brk_priv", 1);
        cat.add(ServiceSpec {
            sf_type: syscall(45),
            name: "brk",
            code: fpr(&[&mm, &brk_priv]),
            shared_data: fpr(&[&d_mm]),
            len: LenDist::uniform(800, 2_000),
            blocking: None,
            bottom_half: None,
        });
        let fork_priv = alloc.region("k:fork_priv", 4);
        cat.add(ServiceSpec {
            sf_type: syscall(2),
            name: "fork",
            code: fpr(&[&mm, &sched_code, &fork_priv]),
            shared_data: fpr(&[&d_mm, &d_sched]),
            len: LenDist::uniform(10_000, 20_000),
            blocking: None,
            bottom_half: None,
        });
        let futex_priv = alloc.region("k:futex_priv", 1);
        cat.add(ServiceSpec {
            sf_type: syscall(240),
            name: "futex",
            code: fpr(&[&sched_code, &futex_priv]),
            shared_data: fpr(&[&d_sched]),
            len: LenDist::uniform(500, 1_500),
            blocking: None,
            bottom_half: None,
        });
        let nanosleep_priv = alloc.region("k:nanosleep_priv", 1);
        cat.add(ServiceSpec {
            sf_type: syscall(162),
            name: "nanosleep",
            code: fpr(&[&sched_code, &nanosleep_priv]),
            shared_data: fpr(&[&d_sched]),
            len: LenDist::uniform(400, 1_200),
            blocking: blocks(DeviceKind::Timer, 1.0, 0.5),
            bottom_half: None,
        });
        // Crypto-flavoured read for scp-style benchmarks: shares the VFS
        // entry path but also drags in the kernel crypto code.
        let sread_priv = alloc.region("k:sockread_priv", 2);
        cat.add(ServiceSpec {
            sf_type: syscall(397),
            name: "sock_read",
            code: fpr(&[&net, &tcp, &crypto, &sread_priv]),
            shared_data: fpr(&[&d_net]),
            len: LenDist::uniform(4_000, 9_000),
            blocking: blocks(DeviceKind::Network, 0.35, 0.3),
            bottom_half: None,
        });

        // ---- Bottom halves --------------------------------------------
        let bh_net_code = alloc.region("k:bh_net_rx", 6);
        cat.add(ServiceSpec {
            sf_type: entry_pc(&bh_net_code),
            name: "net_rx_softirq",
            code: fpr(&[&bh_net_code, &net]),
            shared_data: fpr(&[&d_net]),
            len: LenDist::uniform(3_000, 9_000),
            blocking: None,
            bottom_half: None,
        });
        let bh_block_code = alloc.region("k:bh_block", 6);
        cat.add(ServiceSpec {
            sf_type: entry_pc(&bh_block_code),
            name: "block_softirq",
            code: fpr(&[&bh_block_code, &block]),
            shared_data: fpr(&[&d_block]),
            // FileSrv's bottom halves average ≈24k instructions
            // (Section 6.4).
            len: LenDist::uniform(12_000, 36_000),
            blocking: None,
            bottom_half: None,
        });
        let bh_timer_code = alloc.region("k:bh_timer", 2);
        cat.add(ServiceSpec {
            sf_type: entry_pc(&bh_timer_code),
            name: "timer_softirq",
            code: fpr(&[&bh_timer_code, &sched_code]),
            shared_data: fpr(&[&d_sched]),
            len: LenDist::uniform(1_000, 3_000),
            blocking: None,
            bottom_half: None,
        });

        // ---- Interrupt top halves -------------------------------------
        let irq_timer_code = alloc.region("k:irq_timer", 2);
        cat.add(ServiceSpec {
            sf_type: irq(0),
            name: "timer_irq",
            code: fpr(&[&irq_timer_code, &sched_code]),
            shared_data: fpr(&[&d_sched]),
            len: LenDist::uniform(400, 1_200),
            blocking: None,
            bottom_half: Some("timer_softirq"),
        });
        let irq_kbd_code = alloc.region("k:irq_kbd", 1);
        cat.add(ServiceSpec {
            sf_type: irq(1),
            name: "keyboard_irq",
            code: fpr(&[&irq_kbd_code]),
            shared_data: Arc::new(Footprint::new()),
            len: LenDist::uniform(300, 800),
            blocking: None,
            bottom_half: None,
        });
        let irq_net_code = alloc.region("k:irq_net", 3);
        cat.add(ServiceSpec {
            sf_type: irq(11),
            name: "network_irq",
            code: fpr(&[&irq_net_code, &net]),
            shared_data: fpr(&[&d_net]),
            len: LenDist::uniform(800, 2_500),
            blocking: None,
            bottom_half: Some("net_rx_softirq"),
        });
        let irq_disk_code = alloc.region("k:irq_disk", 3);
        cat.add(ServiceSpec {
            sf_type: irq(14),
            name: "disk_irq",
            code: fpr(&[&irq_disk_code, &block]),
            shared_data: fpr(&[&d_block]),
            len: LenDist::uniform(800, 2_500),
            blocking: None,
            bottom_half: Some("block_softirq"),
        });

        cat
    }

    fn add(&mut self, s: ServiceSpec) {
        assert!(
            self.services.insert(s.name, s).is_none(),
            "duplicate service name"
        );
    }

    /// Looks up the `category` handler called `name`; `None` if no
    /// handler has that name, or it belongs to another category.
    pub fn get(&self, category: SfCategory, name: &str) -> Option<&ServiceSpec> {
        self.services
            .get(name)
            .filter(|s| s.sf_type.category() == category)
    }

    /// Looks up a system call by name.
    ///
    /// # Panics
    ///
    /// Panics if no system call has that name — catalog names are static
    /// and a typo is a programming error.
    pub fn syscall(&self, name: &str) -> &ServiceSpec {
        self.get(SfCategory::SystemCall, name)
            .unwrap_or_else(|| panic!("unknown syscall {name:?}"))
    }

    /// The interrupt raised when `device` completes a request.
    pub fn interrupt_for_device(&self, device: DeviceKind) -> &ServiceSpec {
        &self.services[match device {
            DeviceKind::Disk => "disk_irq",
            DeviceKind::Network => "network_irq",
            DeviceKind::Timer => "timer_irq",
        }]
    }

    /// Every handler of every category, in no particular order.
    pub fn services(&self) -> impl Iterator<Item = &ServiceSpec> {
        self.services.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> (PageAllocator, ServiceCatalog) {
        let mut alloc = PageAllocator::new();
        let cat = ServiceCatalog::standard(&mut alloc);
        (alloc, cat)
    }

    #[test]
    fn read_has_paper_syscall_id() {
        let (_, cat) = catalog();
        assert_eq!(cat.syscall("read").sf_type.subcategory(), 3);
        assert_eq!(cat.syscall("read").sf_type.raw(), 3);
    }

    #[test]
    fn read_and_pread_mostly_overlap() {
        let (_, cat) = catalog();
        let read = cat.syscall("read");
        let pread = cat.syscall("pread");
        let overlap = read.code.overlap_pages(&pread.code);
        // All of read's pages appear in pread (pread = read + 1 page).
        assert_eq!(overlap, read.code.num_pages());
    }

    #[test]
    fn read_and_fork_barely_overlap() {
        let (_, cat) = catalog();
        let read = cat.syscall("read");
        let fork = cat.syscall("fork");
        assert_eq!(read.code.overlap_pages(&fork.code), 0);
    }

    #[test]
    fn fs_family_shares_vfs() {
        let (_, cat) = catalog();
        for name in ["read", "write", "open", "close", "stat", "getdents"] {
            for other in ["read", "write", "open", "close", "stat", "getdents"] {
                if name != other {
                    let a = cat.syscall(name);
                    let b = cat.syscall(other);
                    assert!(
                        a.code.overlap_pages(&b.code) >= 6,
                        "{name} and {other} should share the 6 VFS pages"
                    );
                }
            }
        }
    }

    #[test]
    fn net_family_shares_stack() {
        let (_, cat) = catalog();
        let send = cat.syscall("sendto");
        let recv = cat.syscall("recvfrom");
        assert!(send.code.overlap_pages(&recv.code) >= 14); // net(8) + tcp(6)
    }

    #[test]
    fn fs_and_net_families_disjoint() {
        let (_, cat) = catalog();
        let read = cat.syscall("read");
        let send = cat.syscall("sendto");
        assert_eq!(read.code.overlap_pages(&send.code), 0);
    }

    #[test]
    fn every_device_has_an_interrupt() {
        let (_, cat) = catalog();
        for d in DeviceKind::all() {
            let irq = cat.interrupt_for_device(d);
            assert!(irq.len.mean() > 0.0);
        }
    }

    #[test]
    fn disk_irq_chains_to_block_softirq() {
        let (_, cat) = catalog();
        let irq = cat.get(SfCategory::Interrupt, "disk_irq").expect("irq");
        assert_eq!(irq.bottom_half, Some("block_softirq"));
        let bh = cat
            .get(SfCategory::BottomHalf, "block_softirq")
            .expect("bottom half");
        // FileSrv's bottom halves average around 24k instructions.
        assert!((20_000.0..28_000.0).contains(&bh.len.mean()));
    }

    #[test]
    fn keyboard_interrupt_type_matches_paper() {
        let (_, cat) = catalog();
        let kbd = cat.get(SfCategory::Interrupt, "keyboard_irq").expect("irq");
        assert_eq!(kbd.sf_type.raw(), 0x4000_0000_0000_0001);
    }

    #[test]
    fn bottom_half_types_use_entry_pc() {
        let (_, cat) = catalog();
        let bh = cat
            .get(SfCategory::BottomHalf, "net_rx_softirq")
            .expect("bottom half");
        // The first instruction line of the handler's footprint.
        assert_eq!(bh.sf_type.subcategory(), bh.code.line(0, 0));
        assert_eq!(bh.sf_type.category(), SfCategory::BottomHalf);
    }

    #[test]
    fn get_finds_a_name_only_in_its_own_category() {
        let (_, cat) = catalog();
        assert!(cat.get(SfCategory::Interrupt, "disk_irq").is_some());
        assert!(cat.get(SfCategory::SystemCall, "disk_irq").is_none());
        assert!(cat.get(SfCategory::BottomHalf, "read").is_none());
        assert!(cat.get(SfCategory::Interrupt, "nope").is_none());
    }

    #[test]
    #[should_panic(expected = "unknown syscall")]
    fn unknown_syscall_panics() {
        let (_, cat) = catalog();
        cat.syscall("nope");
    }

    #[test]
    fn nanosleep_always_blocks_on_the_timer() {
        let (_, cat) = catalog();
        let ns = cat.syscall("nanosleep");
        let b = ns.blocking.expect("nanosleep blocks");
        assert_eq!(b.device, DeviceKind::Timer);
        assert_eq!(b.probability, 1.0);
        // It shares the scheduler code pages (timer wheel lives there).
        let fork = cat.syscall("fork");
        assert!(ns.code.overlap_pages(&fork.code) >= 4);
    }

    #[test]
    fn combined_footprint_exceeds_icache() {
        // The premise of the paper: combined OS footprints exceed 32 KB.
        let (_, cat) = catalog();
        let mut pages = std::collections::HashSet::new();
        for s in cat.services() {
            pages.extend(s.code.pages().iter().copied());
        }
        assert!(
            pages.len() * 4096 > 64 * 1024,
            "combined OS footprint is only {} KB",
            pages.len() * 4
        );
    }
}
