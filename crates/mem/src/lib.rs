//! Memory subsystem for the SpecMPK simulator.
//!
//! Reproduces the gem5-SE-mode memory stack the paper evaluates on
//! (Table III):
//!
//! * a sparse, byte-addressable backing store ([`SparseMemory`]);
//! * a software-walked [`PageTable`] whose entries carry the 4-bit
//!   protection-key field MPK repurposes (paper Fig. 1);
//! * a set-associative, LRU [`Tlb`] that returns the page's pkey with every
//!   translation — with *separate probe and update operations*, because
//!   SpecMPK defers TLB state changes for loads that fail the PKRU check
//!   (§V-C5);
//! * a three-level data/instruction [`CacheHierarchy`] (32 KiB L1I, 48 KiB
//!   L1D, 512 KiB L2, 2 MiB L3, DDR4-like backing latency) supporting
//!   `clflush`, which the flush+reload proof-of-concept needs;
//! * [`MemorySystem`], the façade the out-of-order core drives, including
//!   [`MemorySystem::load_program`] for pkey-colored [`Program`] images.
//!
//! [`Program`]: specmpk_isa::Program
//!
//! # Examples
//!
//! ```
//! use specmpk_mem::{MemConfig, MemorySystem};
//! use specmpk_mpk::{AccessKind, Pkey};
//!
//! let mut mem = MemorySystem::new(MemConfig::default());
//! mem.map_region(0x8000, 4096, Pkey::new(3)?, specmpk_isa::SegmentPerms::RW);
//! mem.write(0x8010, 8, 0xDEAD_BEEF);
//! assert_eq!(mem.read(0x8010, 8), 0xDEAD_BEEF);
//!
//! let t = mem.translate(0x8010, AccessKind::Read, true).unwrap();
//! assert_eq!(t.pkey, Pkey::new(3)?);
//! # Ok::<(), specmpk_mpk::InvalidPkeyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod cache;
mod hierarchy;
mod memory;
mod page_table;
mod system;
mod tlb;
mod ways;

pub use addr::{line_base, page_base, page_offset, vpn, LINE_BYTES, PAGE_BYTES};
pub use cache::{Cache, CacheConfig, CacheStats};
pub use hierarchy::{AccessLevel, AccessOutcome, CacheHierarchy, HierarchyConfig};
pub use memory::SparseMemory;
pub use page_table::{PageFault, PageTable, PageTableEntry};
pub use system::{MemConfig, MemStats, MemorySystem, TlbLookup, Translation};
pub use tlb::{Tlb, TlbConfig, TlbEntry, TlbStats};
