//! The §4.1 hot-page list.
//!
//! Step S1 of the paper's evaluation protocol modifies each page-migration
//! solution to *record* the PFNs of identified hot pages instead of (or in
//! addition to) migrating them; the harness later looks those PFNs up in
//! PAC's access-count table to compute the average access-count ratio.
//! Every solution in this workspace (ANB, DAMON, and the M5-manager) feeds
//! one of these logs.

use crate::addr::{Pfn, Vpn};
use std::collections::HashSet;

/// Capacity of every daemon's hot-page log: the paper collects up to 128K
/// identified pages.
pub const HOT_LOG_CAP: usize = 128 * 1024;

/// A capped, deduplicated list of identified hot pages, recorded as
/// `(vpn, pfn-at-identification-time)`.
#[derive(Clone, Debug)]
pub struct HotPageLog {
    entries: Vec<(Vpn, Pfn)>,
    seen: HashSet<Vpn>,
    cap: usize,
}

impl HotPageLog {
    /// A log holding at most `cap` distinct pages (every daemon uses
    /// [`HOT_LOG_CAP`]).
    pub fn new(cap: usize) -> HotPageLog {
        HotPageLog {
            entries: Vec::new(),
            seen: HashSet::new(),
            cap,
        }
    }

    /// Records an identified hot page. Returns `true` if it was new and
    /// there was room.
    pub fn record(&mut self, vpn: Vpn, pfn: Pfn) -> bool {
        if self.entries.len() >= self.cap || !self.seen.insert(vpn) {
            return false;
        }
        self.entries.push((vpn, pfn));
        true
    }

    /// The recorded `(vpn, pfn)` pairs in identification order.
    pub fn entries(&self) -> &[(Vpn, Pfn)] {
        &self.entries
    }

    /// The recorded PFNs (for PAC lookups, step S4).
    pub fn pfns(&self) -> impl Iterator<Item = Pfn> + '_ {
        self.entries.iter().map(|&(_, p)| p)
    }

    /// Number of distinct pages recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The capacity `K`.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Serializes the log (identification order preserved) for a
    /// checkpoint. The dedup set is derived state, rebuilt on restore, and
    /// the capacity is [`HOT_LOG_CAP`].
    pub fn save(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_u64(self.entries.len() as u64);
        for &(vpn, pfn) in &self.entries {
            w.put_u64(vpn.0);
            w.put_u64(pfn.0);
        }
    }

    /// Rebuilds a log of capacity [`HOT_LOG_CAP`] from a checkpoint section.
    ///
    /// # Errors
    ///
    /// Propagates codec errors from a truncated or corrupt payload, and
    /// rejects with [`CodecError::BadValue`] a log that
    /// [`HotPageLog::record`] cannot build: more entries than its
    /// capacity, or a page listed twice.
    ///
    /// [`CodecError::BadValue`]: crate::checkpoint::CodecError::BadValue
    pub fn restore(
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<HotPageLog, crate::checkpoint::CodecError> {
        use crate::checkpoint::CodecError;
        let n = r.get_u64()?;
        if n > HOT_LOG_CAP as u64 {
            return Err(CodecError::BadValue {
                what: "hot-page log length",
                value: n,
            });
        }
        let mut log = HotPageLog::new(HOT_LOG_CAP);
        for _ in 0..n {
            let vpn = Vpn(r.get_u64()?);
            let pfn = Pfn(r.get_u64()?);
            if !log.record(vpn, pfn) {
                return Err(CodecError::BadValue {
                    what: "hot-page log vpn",
                    value: vpn.0,
                });
            }
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CodecError;

    #[test]
    fn log_dedups_and_caps() {
        let mut log = HotPageLog::new(2);
        assert!(log.record(Vpn(1), Pfn(10)));
        assert!(!log.record(Vpn(1), Pfn(10)), "duplicate ignored");
        assert!(log.record(Vpn(2), Pfn(20)));
        assert!(!log.record(Vpn(3), Pfn(30)), "cap reached");
        assert_eq!(log.len(), 2);
        assert_eq!(log.pfns().collect::<Vec<_>>(), vec![Pfn(10), Pfn(20)]);
        assert_eq!(log.capacity(), 2);
        assert!(!log.is_empty());
    }

    /// Restores a payload declaring `len` entries followed by `entries`.
    fn restored(len: usize, entries: &[(u64, u64)]) -> Result<HotPageLog, CodecError> {
        let mut w = crate::checkpoint::StateWriter::new();
        w.put_u64(len as u64);
        for &(vpn, pfn) in entries {
            w.put_u64(vpn);
            w.put_u64(pfn);
        }
        let bytes = w.finish();
        HotPageLog::restore(&mut crate::checkpoint::StateReader::new(&bytes))
    }

    #[test]
    fn restore_rejects_states_record_cannot_build() {
        let mut log = restored(2, &[(1, 10), (2, 20)]).unwrap();
        assert_eq!(log.entries(), &[(Vpn(1), Pfn(10)), (Vpn(2), Pfn(20))]);
        assert!(!log.record(Vpn(1), Pfn(11)), "the dedup set was rebuilt");
        assert_eq!(log.capacity(), HOT_LOG_CAP);
        // The length is checked before any entry is read.
        assert!(matches!(
            restored(HOT_LOG_CAP + 1, &[]),
            Err(CodecError::BadValue {
                what: "hot-page log length",
                value
            }) if value == HOT_LOG_CAP as u64 + 1
        ));
        assert!(matches!(
            restored(3, &[(1, 10), (2, 20), (1, 30)]),
            Err(CodecError::BadValue {
                what: "hot-page log vpn",
                value: 1
            })
        ));
    }
}
