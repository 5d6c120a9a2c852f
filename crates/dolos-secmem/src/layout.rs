//! NVM metadata layout: where counters, MACs, shadow entries and the ADR
//! dump live in the physical address space.
//!
//! The protected data region starts at address 0. Metadata regions are
//! placed above it, each region sized from the data-region geometry:
//!
//! ```text
//! [0, data_bytes)                  protected data
//! [counter_base, ..)               one 64 B split-counter block per 4 KiB page
//! [mac_base, ..)                   8 B data MAC per data line (8 per 64 B line)
//! [shadow_base, ..)                Anubis shadow-table entries
//! [wpq_dump_base, ..)              ADR dump target for the WPQ (+ Mi-SU MACs)
//! ```
//!
//! Persistent *registers* (BMT root, Mi-SU persistent counter, redo-log
//! buffer) live inside the processor and are not part of this layout.

use dolos_nvm::addr::LineAddr;

/// Bytes per protected page.
pub const PAGE_BYTES: u64 = 4096;

/// The physical region a line address belongs to.
///
/// Adversarial fault injection targets regions by *kind* ("flip a bit in a
/// counter block", "tear the WPQ dump") rather than by raw address; this
/// taxonomy names them. [`MetadataLayout::region_of`] classifies an address
/// and [`MetadataLayout::region_range`] returns a region's extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetaRegion {
    /// Protected application data (ciphertext lines).
    Data,
    /// Split-counter blocks (one per protected page).
    Counters,
    /// Per-line data MACs.
    Macs,
    /// Anubis shadow-table entries.
    Shadow,
    /// The WPQ ADR-dump target (payload lines + Mi-SU tables).
    WpqDump,
}

impl MetaRegion {
    /// All regions, for exhaustive tamper sweeps.
    pub const ALL: [MetaRegion; 5] = [
        MetaRegion::Data,
        MetaRegion::Counters,
        MetaRegion::Macs,
        MetaRegion::Shadow,
        MetaRegion::WpqDump,
    ];

    /// Short stable name (used in reports and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            MetaRegion::Data => "data",
            MetaRegion::Counters => "counters",
            MetaRegion::Macs => "macs",
            MetaRegion::Shadow => "shadow",
            MetaRegion::WpqDump => "wpq-dump",
        }
    }
}

impl core::fmt::Display for MetaRegion {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Address-space layout for one protected region.
///
/// # Examples
///
/// ```
/// use dolos_secmem::layout::MetadataLayout;
///
/// let layout = MetadataLayout::new(1 << 20); // 1 MiB protected region
/// assert_eq!(layout.pages(), 256);
/// let ctr = layout.counter_block_addr(3);
/// assert!(ctr.as_u64() >= 1 << 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetadataLayout {
    data_bytes: u64,
    counter_base: u64,
    mac_base: u64,
    shadow_base: u64,
    shadow_entries: u64,
    wpq_dump_base: u64,
}

impl MetadataLayout {
    /// Default number of shadow-table entries (counter cache blocks +
    /// MT cache blocks at the Table 1 geometry: 2048 + 4096).
    pub const DEFAULT_SHADOW_ENTRIES: u64 = 6144;

    /// The largest protected region a layout accepts: with the counter,
    /// MAC, shadow and dump regions above it, every metadata address still
    /// fits in 64 bits.
    pub const MAX_DATA_BYTES: u64 = 1 << 63;

    /// Creates a layout for a protected data region of `data_bytes` bytes
    /// (rounded up to a whole number of pages).
    ///
    /// # Panics
    ///
    /// Panics if `data_bytes` is zero or exceeds [`Self::MAX_DATA_BYTES`].
    pub fn new(data_bytes: u64) -> Self {
        assert!(data_bytes > 0, "protected region must be non-empty");
        assert!(
            data_bytes <= Self::MAX_DATA_BYTES,
            "protected region exceeds MetadataLayout::MAX_DATA_BYTES"
        );
        let data_bytes = data_bytes.div_ceil(PAGE_BYTES) * PAGE_BYTES;
        let pages = data_bytes / PAGE_BYTES;
        let counter_base = data_bytes;
        let counter_bytes = pages * 64;
        let mac_base = counter_base + counter_bytes;
        let data_lines = data_bytes / 64;
        // 8-byte MAC per line, 8 MACs per metadata line.
        let mac_bytes = data_lines.div_ceil(8) * 64;
        let shadow_base = mac_base + mac_bytes;
        let shadow_entries = Self::DEFAULT_SHADOW_ENTRIES;
        let shadow_bytes = shadow_entries.div_ceil(8) * 64;
        let wpq_dump_base = shadow_base + shadow_bytes;
        Self {
            data_bytes,
            counter_base,
            mac_base,
            shadow_base,
            shadow_entries,
            wpq_dump_base,
        }
    }

    /// Size of the protected data region in bytes.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Number of protected 4 KiB pages.
    pub fn pages(&self) -> u64 {
        self.data_bytes / PAGE_BYTES
    }

    /// Number of protected cachelines.
    pub fn data_lines(&self) -> u64 {
        self.data_bytes / 64
    }

    /// Whether `addr` falls inside the protected data region.
    pub fn is_data_addr(&self, addr: LineAddr) -> bool {
        addr.as_u64() < self.data_bytes
    }

    /// NVM address of the split-counter block for `page`.
    pub fn counter_block_addr(&self, page: u64) -> LineAddr {
        debug_assert!(page < self.pages());
        LineAddr::containing(self.counter_base + page * 64)
    }

    /// NVM location of the data MAC for a data line:
    /// `(metadata line, byte offset of the 8-byte MAC within it)`.
    pub fn mac_slot(&self, addr: LineAddr) -> (LineAddr, usize) {
        debug_assert!(self.is_data_addr(addr));
        let line_index = addr.line_index();
        let meta_line = LineAddr::containing(self.mac_base + (line_index / 8) * 64);
        (meta_line, (line_index % 8) as usize * 8)
    }

    /// NVM location of Anubis shadow entry `slot`:
    /// `(metadata line, byte offset of the 8-byte entry)`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` exceeds the shadow table size.
    pub fn shadow_slot(&self, slot: u64) -> (LineAddr, usize) {
        assert!(slot < self.shadow_entries, "shadow slot out of range");
        let line = LineAddr::containing(self.shadow_base + (slot / 8) * 64);
        (line, (slot % 8) as usize * 8)
    }

    /// Number of shadow-table entries.
    pub fn shadow_entries(&self) -> u64 {
        self.shadow_entries
    }

    /// Base address of the WPQ ADR-dump region; slot `i` of the dump is one
    /// line at `base + 64 i`.
    pub fn wpq_dump_addr(&self, slot: u64) -> LineAddr {
        LineAddr::containing(self.wpq_dump_base + slot * 64)
    }

    /// First address past all metadata regions (for collision checks).
    pub fn end(&self) -> u64 {
        // Generous bound: dump region of 256 lines.
        self.wpq_dump_base + 256 * 64
    }

    /// Which region an address falls in, or `None` past the layout's end.
    pub fn region_of(&self, addr: LineAddr) -> Option<MetaRegion> {
        let a = addr.as_u64();
        if a < self.data_bytes {
            Some(MetaRegion::Data)
        } else if a < self.mac_base {
            Some(MetaRegion::Counters)
        } else if a < self.shadow_base {
            Some(MetaRegion::Macs)
        } else if a < self.wpq_dump_base {
            Some(MetaRegion::Shadow)
        } else if a < self.end() {
            Some(MetaRegion::WpqDump)
        } else {
            None
        }
    }

    /// The `[start, end)` byte extent of a region.
    pub fn region_range(&self, region: MetaRegion) -> (u64, u64) {
        match region {
            MetaRegion::Data => (0, self.data_bytes),
            MetaRegion::Counters => (self.counter_base, self.mac_base),
            MetaRegion::Macs => (self.mac_base, self.shadow_base),
            MetaRegion::Shadow => (self.shadow_base, self.wpq_dump_base),
            MetaRegion::WpqDump => (self.wpq_dump_base, self.end()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let l = MetadataLayout::new(1 << 22); // 4 MiB
        assert!(l.counter_base >= l.data_bytes);
        assert!(l.mac_base > l.counter_base);
        assert!(l.shadow_base > l.mac_base);
        assert!(l.wpq_dump_base > l.shadow_base);
    }

    #[test]
    fn rounds_up_to_pages() {
        let l = MetadataLayout::new(5000);
        assert_eq!(l.data_bytes(), 8192);
        assert_eq!(l.pages(), 2);
    }

    #[test]
    fn counter_blocks_are_per_page() {
        let l = MetadataLayout::new(1 << 20);
        let a = l.counter_block_addr(0);
        let b = l.counter_block_addr(1);
        assert_eq!(b.as_u64() - a.as_u64(), 64);
    }

    #[test]
    fn mac_slots_pack_8_per_line() {
        let l = MetadataLayout::new(1 << 20);
        let (line0, off0) = l.mac_slot(LineAddr::from_index(0));
        let (line7, off7) = l.mac_slot(LineAddr::from_index(7));
        let (line8, off8) = l.mac_slot(LineAddr::from_index(8));
        assert_eq!(line0, line7);
        assert_eq!(off0, 0);
        assert_eq!(off7, 56);
        assert_ne!(line0, line8);
        assert_eq!(off8, 0);
    }

    #[test]
    fn data_addr_classification() {
        let l = MetadataLayout::new(1 << 20);
        assert!(l.is_data_addr(LineAddr::new(0).unwrap()));
        assert!(!l.is_data_addr(l.counter_block_addr(0)));
    }

    #[test]
    fn shadow_slots_pack_8_per_line() {
        let l = MetadataLayout::new(1 << 20);
        let (la, oa) = l.shadow_slot(0);
        let (lb, ob) = l.shadow_slot(9);
        assert_eq!(oa, 0);
        assert_eq!(ob, 8);
        assert_ne!(la, lb);
    }

    #[test]
    fn wpq_dump_slots_are_line_spaced() {
        let l = MetadataLayout::new(1 << 20);
        assert_eq!(
            l.wpq_dump_addr(1).as_u64() - l.wpq_dump_addr(0).as_u64(),
            64
        );
        assert!(l.wpq_dump_addr(255).as_u64() < l.end());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_region_panics() {
        let _ = MetadataLayout::new(0);
    }

    #[test]
    #[should_panic(expected = "MAX_DATA_BYTES")]
    fn oversized_region_panics() {
        let l = MetadataLayout::new(MetadataLayout::MAX_DATA_BYTES);
        assert!(l.wpq_dump_addr(255).as_u64() < l.end());
        let _ = MetadataLayout::new(MetadataLayout::MAX_DATA_BYTES + 1);
    }

    #[test]
    fn region_classification_covers_every_region() {
        let l = MetadataLayout::new(1 << 20);
        assert_eq!(
            l.region_of(LineAddr::new(0).unwrap()),
            Some(MetaRegion::Data)
        );
        assert_eq!(
            l.region_of(l.counter_block_addr(0)),
            Some(MetaRegion::Counters)
        );
        let (mac_line, _) = l.mac_slot(LineAddr::from_index(0));
        assert_eq!(l.region_of(mac_line), Some(MetaRegion::Macs));
        let (shadow_line, _) = l.shadow_slot(0);
        assert_eq!(l.region_of(shadow_line), Some(MetaRegion::Shadow));
        assert_eq!(l.region_of(l.wpq_dump_addr(0)), Some(MetaRegion::WpqDump));
        assert_eq!(l.region_of(LineAddr::containing(l.end())), None);
    }

    #[test]
    fn region_ranges_tile_the_address_space() {
        let l = MetadataLayout::new(1 << 22);
        let mut cursor = 0u64;
        for region in MetaRegion::ALL {
            let (start, end) = l.region_range(region);
            assert_eq!(start, cursor, "{region} must start where the last ended");
            assert!(end > start, "{region} must be non-empty");
            cursor = end;
        }
        assert_eq!(cursor, l.end());
    }
}
