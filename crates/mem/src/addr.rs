//! Address arithmetic helpers shared across the memory subsystem.

/// Page size in bytes (4 KiB, the x86-64 base page).
pub const PAGE_BYTES: u64 = 4096;

/// Cache line size in bytes.
pub const LINE_BYTES: u64 = 64;

/// The virtual page number of `addr`.
#[must_use]
#[inline]
pub fn vpn(addr: u64) -> u64 {
    addr / PAGE_BYTES
}

/// The base address of the page containing `addr`.
#[must_use]
#[inline]
pub fn page_base(addr: u64) -> u64 {
    addr & !(PAGE_BYTES - 1)
}

/// The offset of `addr` within its page.
#[must_use]
#[inline]
pub fn page_offset(addr: u64) -> u64 {
    addr & (PAGE_BYTES - 1)
}

/// The base address of the cache line containing `addr`.
#[must_use]
#[inline]
pub fn line_base(addr: u64) -> u64 {
    addr & !(LINE_BYTES - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_decomposition() {
        let addr = 0x1234_5678;
        assert_eq!(page_base(addr) + page_offset(addr), addr);
        assert_eq!(vpn(addr), addr / 4096);
        assert_eq!(page_offset(page_base(addr)), 0);
    }

    #[test]
    fn line_base_is_aligned() {
        assert_eq!(line_base(0x1003F), 0x10000);
        assert_eq!(line_base(0x10040), 0x10040);
    }
}
