//! The per-pkey Disabling Counters (paper §V-C1).

use specmpk_mpk::{Pkey, NUM_PKEYS};

/// A pair of per-pkey counters tracking how many *in-flight, executed*
/// `WRPKRU` instructions carry an Access-Disable / Write-Disable bit for
/// each key.
///
/// Counters are incremented when a `WRPKRU` executes (its PKRU value becomes
/// known) and decremented by the *same* instruction at retirement or squash,
/// using the AD/WD bitmaps stored in its `ROB_pkru` entry. Because WRPKRUs
/// execute in order among themselves (PKRU is a source operand of WRPKRU),
/// the counters are never incremented out of order.
///
/// The required width per counter is `⌊log2(ROB_pkru size)⌋ + 1` bits; with
/// Rust we simply use `u8` (a `ROB_pkru` larger than 255 would be absurd)
/// and let the §VIII cost model report the architectural bit count.
///
/// Beside the counters it keeps one `u16` mask per kind with bit *k* set
/// while counter *k* is non-zero, so the PKRU checks read the whole
/// window as two bitmaps and [`all_zero`](Self::all_zero) is one test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DisablingCounters {
    access_disable: [u8; NUM_PKEYS],
    write_disable: [u8; NUM_PKEYS],
    access_disable_mask: u16,
    write_disable_mask: u16,
}

impl DisablingCounters {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments counters for every key set in the AD/WD bitmaps — called
    /// when a `WRPKRU` executes.
    pub fn increment(&mut self, ad_bitmap: u16, wd_bitmap: u16) {
        for k in set_bits(ad_bitmap) {
            self.access_disable[k] = self.access_disable[k].checked_add(1).expect(
                "AccessDisableCounter overflow: more WRPKRUs in flight than ROB_pkru allows",
            );
        }
        for k in set_bits(wd_bitmap) {
            self.write_disable[k] = self.write_disable[k].checked_add(1).expect(
                "WriteDisableCounter overflow: more WRPKRUs in flight than ROB_pkru allows",
            );
        }
        self.access_disable_mask |= ad_bitmap;
        self.write_disable_mask |= wd_bitmap;
    }

    /// Decrements counters for every key set in the bitmaps — called when
    /// the incrementing `WRPKRU` retires or squashes.
    ///
    /// # Panics
    ///
    /// Panics on underflow, which would indicate a bookkeeping bug in the
    /// pipeline (a decrement without a matching increment).
    pub fn decrement(&mut self, ad_bitmap: u16, wd_bitmap: u16) {
        for k in set_bits(ad_bitmap) {
            let c = &mut self.access_disable[k];
            *c = c.checked_sub(1).expect("AccessDisableCounter underflow");
            if *c == 0 {
                self.access_disable_mask &= !(1 << k);
            }
        }
        for k in set_bits(wd_bitmap) {
            let c = &mut self.write_disable[k];
            *c = c.checked_sub(1).expect("WriteDisableCounter underflow");
            if *c == 0 {
                self.write_disable_mask &= !(1 << k);
            }
        }
    }

    /// Number of in-flight executed WRPKRUs with Access-Disable for `pkey`.
    #[must_use]
    pub fn access_disable(&self, pkey: Pkey) -> u8 {
        self.access_disable[pkey.index()]
    }

    /// Number of in-flight executed WRPKRUs with Write-Disable for `pkey`.
    #[must_use]
    pub fn write_disable(&self, pkey: Pkey) -> u8 {
        self.write_disable[pkey.index()]
    }

    /// The keys whose Access-Disable counter is non-zero (bit *k* = pkey *k*).
    #[must_use]
    #[inline]
    pub fn access_disable_mask(&self) -> u16 {
        self.access_disable_mask
    }

    /// The keys whose Write-Disable counter is non-zero (bit *k* = pkey *k*).
    #[must_use]
    #[inline]
    pub fn write_disable_mask(&self) -> u16 {
        self.write_disable_mask
    }

    /// Whether every counter is zero (no disabling updates in flight).
    #[must_use]
    #[inline]
    pub fn all_zero(&self) -> bool {
        self.access_disable_mask | self.write_disable_mask == 0
    }
}

/// The indices of the set bits of `bitmap`, lowest first.
fn set_bits(mut bitmap: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let k = bitmap.trailing_zeros() as usize;
        bitmap &= bitmap.wrapping_sub(1);
        (k < NUM_PKEYS).then_some(k)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: u8) -> Pkey {
        Pkey::new(i).unwrap()
    }

    #[test]
    fn fresh_counters_are_zero() {
        let c = DisablingCounters::new();
        assert!(c.all_zero());
        for key in Pkey::all() {
            assert_eq!(c.access_disable(key), 0);
            assert_eq!(c.write_disable(key), 0);
        }
    }

    #[test]
    fn increment_decrement_round_trip() {
        let mut c = DisablingCounters::new();
        c.increment(0b0011, 0b0100);
        assert_eq!(c.access_disable(k(0)), 1);
        assert_eq!(c.access_disable(k(1)), 1);
        assert_eq!(c.write_disable(k(2)), 1);
        assert!(!c.all_zero());
        c.decrement(0b0011, 0b0100);
        assert!(c.all_zero());
    }

    #[test]
    fn counters_accumulate_across_wrpkrus() {
        let mut c = DisablingCounters::new();
        c.increment(1 << 5, 0);
        c.increment(1 << 5, 0);
        assert_eq!(c.access_disable(k(5)), 2);
        c.decrement(1 << 5, 0);
        assert_eq!(c.access_disable(k(5)), 1);
    }

    #[test]
    fn masks_clear_only_when_a_counter_drains() {
        let mut c = DisablingCounters::new();
        c.increment(0b101, 0b100);
        c.increment(0b001, 0);
        assert_eq!((c.access_disable_mask(), c.write_disable_mask()), (0b101, 0b100));
        c.decrement(0b101, 0b100);
        assert_eq!((c.access_disable_mask(), c.write_disable_mask()), (0b001, 0));
        assert!(!c.all_zero());
        c.decrement(0b001, 0);
        assert!(c.all_zero());
        assert_eq!(c, DisablingCounters::new());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn unmatched_decrement_panics() {
        DisablingCounters::new().decrement(1, 0);
    }
}
