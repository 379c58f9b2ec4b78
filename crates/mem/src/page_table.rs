//! Page table with protection-key fields.

use std::collections::HashMap;
use std::fmt;

use specmpk_isa::SegmentPerms;
use specmpk_mpk::{AccessKind, Pkey};

use crate::{vpn, PAGE_BYTES};

/// One page-table entry: conventional permissions plus the 4-bit pkey field
/// MPK adds (paper Fig. 1: "pkey_mprotect … updates the PTE(s) … to reflect
/// the assigned key").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageTableEntry {
    /// Loads allowed.
    pub read: bool,
    /// Stores allowed.
    pub write: bool,
    /// Instruction fetch allowed.
    pub exec: bool,
    /// Protection key coloring this page.
    pub pkey: Pkey,
}

impl PageTableEntry {
    /// Whether the *page-table* permissions (not PKRU) allow `kind`.
    #[must_use]
    pub fn allows(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.read,
            AccessKind::Write => self.write,
        }
    }
}

/// A single-level, hash-backed page table mapping virtual page numbers to
/// [`PageTableEntry`]s. Translation is identity (VA = PA) as in gem5 SE mode;
/// what matters to SpecMPK is the pkey and permissions, not frame placement.
///
/// # Examples
///
/// ```
/// use specmpk_mem::PageTable;
/// use specmpk_mpk::Pkey;
/// use specmpk_isa::SegmentPerms;
///
/// let mut pt = PageTable::new();
/// pt.map_range(0x8000, 8192, SegmentPerms::RW, false);
/// pt.pkey_mprotect(0x8000, 4096, Pkey::new(2)?).unwrap();
/// assert_eq!(pt.entry(0x8000).unwrap().pkey, Pkey::new(2)?);
/// assert_eq!(pt.entry(0x9000).unwrap().pkey, Pkey::DEFAULT);
/// # Ok::<(), specmpk_mpk::InvalidPkeyError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    entries: HashMap<u64, PageTableEntry>,
}

impl PageTable {
    /// Creates an empty page table.
    #[must_use]
    pub fn new() -> Self {
        PageTable { entries: HashMap::new() }
    }

    /// Maps every page overlapping `[base, base + size)` with `perms`,
    /// pkey 0, and the given executability. Remapping an existing page
    /// overwrites its entry.
    pub fn map_range(&mut self, base: u64, size: u64, perms: SegmentPerms, exec: bool) {
        let first = vpn(base);
        let last = vpn(base + size.saturating_sub(1));
        for page in first..=last {
            self.entries.insert(
                page,
                PageTableEntry { read: perms.read, write: perms.write, exec, pkey: Pkey::DEFAULT },
            );
        }
        if size == 0 {
            self.entries.remove(&first);
        }
    }

    /// Recolors every page overlapping `[base, base + size)` with `pkey` —
    /// the `pkey_mprotect(2)` system call.
    ///
    /// # Errors
    ///
    /// Returns a [`PageFault`] naming the first unmapped page, leaving
    /// earlier pages recolored (matching Linux's partial-failure semantics).
    pub fn pkey_mprotect(&mut self, base: u64, size: u64, pkey: Pkey) -> Result<(), PageFault> {
        let first = vpn(base);
        let last = vpn(base + size.saturating_sub(1));
        for page in first..=last {
            match self.entries.get_mut(&page) {
                Some(e) => e.pkey = pkey,
                None => return Err(PageFault::NotMapped { addr: page * PAGE_BYTES }),
            }
        }
        Ok(())
    }

    /// Looks up the entry covering `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PageFault::NotMapped`] if no mapping exists.
    pub fn entry(&self, addr: u64) -> Result<PageTableEntry, PageFault> {
        self.entries.get(&vpn(addr)).copied().ok_or(PageFault::NotMapped { addr })
    }

    /// Number of mapped pages.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.entries.len()
    }

    /// Serializes every mapping for a checkpoint as
    /// `[vpn, read, write, exec, pkey]` rows in ascending-VPN order
    /// (byte-deterministic despite the hash-backed store).
    #[must_use]
    pub fn snapshot(&self) -> specmpk_trace::Json {
        use specmpk_trace::Json;
        let mut vpns: Vec<(u64, PageTableEntry)> =
            self.entries.iter().map(|(&v, &e)| (v, e)).collect();
        vpns.sort_unstable_by_key(|&(vpn, _)| vpn);
        let entries: Vec<Json> = vpns
            .into_iter()
            .map(|(vpn, e)| {
                Json::from(vec![
                    Json::hex(vpn),
                    Json::from(e.read),
                    Json::from(e.write),
                    Json::from(e.exec),
                    Json::from(e.pkey.index() as u64),
                ])
            })
            .collect();
        Json::object().with("entries", entries)
    }

    /// Replaces all mappings with the ones captured by
    /// [`PageTable::snapshot`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn restore_snapshot(&mut self, snap: &specmpk_trace::Json) -> Result<(), String> {
        let entries =
            snap.get("entries").and_then(|j| j.as_arr()).ok_or("page table: bad entries")?;
        self.entries = HashMap::with_capacity(entries.len());
        for e in entries {
            let row = e.as_arr().filter(|r| r.len() == 5).ok_or("page table: malformed entry")?;
            let vpn = row[0].as_hex_u64().ok_or("page table: bad vpn")?;
            let pte = PageTableEntry {
                read: row[1].as_bool().ok_or("page table: bad read bit")?,
                write: row[2].as_bool().ok_or("page table: bad write bit")?,
                exec: row[3].as_bool().ok_or("page table: bad exec bit")?,
                pkey: Pkey::new(
                    row[4]
                        .as_u64()
                        .and_then(|k| u8::try_from(k).ok())
                        .ok_or("page table: bad pkey")?,
                )
                .map_err(|e| format!("page table: {e}"))?,
            };
            self.entries.insert(vpn, pte);
        }
        Ok(())
    }
}

/// A translation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageFault {
    /// No page-table entry covers the address.
    NotMapped {
        /// The faulting virtual address.
        addr: u64,
    },
    /// The page-table permissions (R/W bits, not PKRU) deny the access.
    PermissionDenied {
        /// The faulting virtual address.
        addr: u64,
        /// The denied access kind.
        kind: AccessKind,
    },
}

impl fmt::Display for PageFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageFault::NotMapped { addr } => write!(f, "page fault: {addr:#x} not mapped"),
            PageFault::PermissionDenied { addr, kind } => {
                write!(f, "page fault: {kind} access to {addr:#x} denied by page table")
            }
        }
    }
}

impl std::error::Error for PageFault {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_range_covers_partial_pages() {
        let mut pt = PageTable::new();
        // 1 byte in page 1, so exactly one page mapped.
        pt.map_range(0x1FFF, 1, SegmentPerms::RW, false);
        assert!(pt.entry(0x1000).is_ok());
        assert!(pt.entry(0x2000).is_err());
        // Range straddling a boundary maps both pages.
        pt.map_range(0x2FFF, 2, SegmentPerms::RW, false);
        assert!(pt.entry(0x2000).is_ok());
        assert!(pt.entry(0x3000).is_ok());
    }

    #[test]
    fn unmapped_access_faults() {
        let pt = PageTable::new();
        assert_eq!(pt.entry(0x5000), Err(PageFault::NotMapped { addr: 0x5000 }));
    }

    #[test]
    fn pkey_mprotect_recolors_only_the_range() {
        let mut pt = PageTable::new();
        pt.map_range(0x0, 3 * PAGE_BYTES, SegmentPerms::RW, false);
        let k = Pkey::new(5).unwrap();
        pt.pkey_mprotect(PAGE_BYTES, PAGE_BYTES, k).unwrap();
        assert_eq!(pt.entry(0x0).unwrap().pkey, Pkey::DEFAULT);
        assert_eq!(pt.entry(PAGE_BYTES).unwrap().pkey, k);
        assert_eq!(pt.entry(2 * PAGE_BYTES).unwrap().pkey, Pkey::DEFAULT);
    }

    #[test]
    fn pkey_mprotect_requires_mapping() {
        let mut pt = PageTable::new();
        let err = pt.pkey_mprotect(0x4000, 4096, Pkey::new(1).unwrap());
        assert_eq!(err, Err(PageFault::NotMapped { addr: 0x4000 }));
    }

    #[test]
    fn perms_checked_per_kind() {
        let e = PageTableEntry { read: true, write: false, exec: false, pkey: Pkey::DEFAULT };
        assert!(e.allows(AccessKind::Read));
        assert!(!e.allows(AccessKind::Write));
    }

    #[test]
    fn restore_refuses_out_of_range_pkeys() {
        let mut pt = PageTable::new();
        // 260 must not wrap around to the valid pkey 4.
        for pkey in [16, 260] {
            let text = format!(r#"{{"entries":[["0xa",true,true,false,{pkey}]]}}"#);
            let snap = specmpk_trace::Json::parse(&text).unwrap();
            assert!(pt.restore_snapshot(&snap).is_err(), "pkey {pkey} accepted");
        }
    }

    #[test]
    fn remap_overwrites() {
        let mut pt = PageTable::new();
        pt.map_range(0x1000, 4096, SegmentPerms::R, false);
        assert!(!pt.entry(0x1000).unwrap().write);
        pt.map_range(0x1000, 4096, SegmentPerms::RW, true);
        let e = pt.entry(0x1000).unwrap();
        assert!(e.write && e.exec);
    }
}
