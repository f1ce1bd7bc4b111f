//! Output checks. Every value a workload writes is tagged with its key and
//! the stamp of the write that put it there, so any value read back can be
//! checked against the key it was read under, and the keys of one
//! multi-key write can be checked for having landed together.

/// Bits of a value that hold the stamp; the key sits above them.
const STAMP_BITS: u32 = 40;
/// Bits of a stamp that hold the per-thread counter; the writer id sits
/// above them (0 = set-up, `1..` = client threads).
const COUNTER_BITS: u32 = 32;
/// Largest writer id a stamp may carry.
pub const MAX_WRITER: u64 = 64;

/// The stamp of write number `seq` by `writer`.
pub fn stamp(writer: u64, seq: u64) -> u64 {
    debug_assert!(writer <= MAX_WRITER && seq < 1 << COUNTER_BITS);
    writer << COUNTER_BITS | seq
}

/// The value stored under `key` by the write stamped `stamp`.
pub fn tag(key: u64, stamp: u64) -> u64 {
    debug_assert!(key < 1 << (64 - STAMP_BITS));
    key << STAMP_BITS | stamp
}

/// The stamp a value carries.
pub fn stamp_of(value: u64) -> u64 {
    value & ((1 << STAMP_BITS) - 1)
}

/// A value read under `key` must carry that key and a valid writer id.
pub fn check_value(key: u64, value: u64) -> Result<(), String> {
    if value >> STAMP_BITS != key {
        return Err(format!(
            "key {key} holds value {value:#x} tagged for key {}",
            value >> STAMP_BITS
        ));
    }
    if stamp_of(value) >> COUNTER_BITS > MAX_WRITER {
        return Err(format!(
            "key {key} holds value {value:#x} with no valid writer"
        ));
    }
    Ok(())
}

/// A range result must be strictly ascending, inside `[lo, hi]`, and
/// carry correctly tagged values.
pub fn check_range(lo: u64, hi: u64, pairs: &[(u64, u64)]) -> Result<(), String> {
    let mut prev: Option<u64> = None;
    for &(k, v) in pairs {
        if k < lo || k > hi {
            return Err(format!("range [{lo}, {hi}] returned key {k}"));
        }
        if prev.is_some_and(|p| p >= k) {
            return Err(format!(
                "range [{lo}, {hi}] out of order: {} then {k}",
                prev.unwrap_or_default()
            ));
        }
        prev = Some(k);
        check_value(k, v)?;
    }
    Ok(())
}

/// How a workload's multi-key writes group their keys. Every write to a
/// grouped workload covers one whole group, so at any linearizable read
/// a group is either absent or present with a single stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Groups {
    /// `size` adjacent keys: group `g` is `g*size .. g*size + size`.
    Adjacent { size: u64 },
    /// `size` keys `stride` apart: group `b` is `b + i*stride`.
    Strided { stride: u64, size: u64 },
}

impl Groups {
    pub fn size(self) -> u64 {
        match self {
            Groups::Adjacent { size } | Groups::Strided { size, .. } => size,
        }
    }

    /// The keys of the group whose base (for adjacent groups, index) is `g`.
    pub fn keys(self, g: u64) -> Vec<u64> {
        match self {
            Groups::Adjacent { size } => (g * size..(g + 1) * size).collect(),
            Groups::Strided { stride, size } => (0..size).map(|i| g + i * stride).collect(),
        }
    }

    fn group_of(self, key: u64) -> u64 {
        match self {
            Groups::Adjacent { size } => key / size,
            Groups::Strided { stride, .. } => key % stride,
        }
    }

    fn covered(self, g: u64, lo: u64, hi: u64) -> bool {
        match self {
            Groups::Adjacent { size } => g * size >= lo && (g + 1) * size - 1 <= hi,
            Groups::Strided { stride, size } => g >= lo && g + (size - 1) * stride <= hi,
        }
    }

    /// Every group that `[lo, hi]` fully covers must appear in `pairs`
    /// (the result of reading `[lo, hi]`) with all of its keys and one
    /// stamp, or not at all.
    pub fn check_range(self, lo: u64, hi: u64, pairs: &[(u64, u64)]) -> Result<(), String> {
        let mut seen: Vec<(u64, u64)> = pairs
            .iter()
            .map(|&(k, v)| (self.group_of(k), stamp_of(v)))
            .filter(|&(g, _)| self.covered(g, lo, hi))
            .collect();
        if matches!(self, Groups::Strided { .. }) {
            seen.sort_unstable_by_key(|&(g, _)| g);
        }
        for run in seen.chunk_by(|a, b| a.0 == b.0) {
            let g = run[0].0;
            if run.len() as u64 != self.size() {
                return Err(format!(
                    "group {g} torn: {} of {} keys present in [{lo}, {hi}]",
                    run.len(),
                    self.size()
                ));
            }
            if run.iter().any(|&(_, s)| s != run[0].1) {
                return Err(format!("group {g} mixes stamps of different writes"));
            }
        }
        Ok(())
    }

    /// The previous values a whole-group write returned must likewise be
    /// all absent or all present with one stamp.
    pub fn check_prev(self, keys: &[u64], prev: &[Option<u64>]) -> Result<(), String> {
        let present: Vec<u64> = prev.iter().flatten().map(|&v| stamp_of(v)).collect();
        if !present.is_empty() && present.len() != keys.len() {
            return Err(format!(
                "write to group {keys:?} found it torn: {} of {} keys present",
                present.len(),
                keys.len()
            ));
        }
        if present.iter().any(|&s| s != present[0]) {
            return Err(format!("write to group {keys:?} found mixed stamps"));
        }
        Ok(())
    }
}

/// The previous values a write returned must be tagged for their keys.
pub fn check_prev(keys: &[u64], prev: &[Option<u64>]) -> Result<(), String> {
    if keys.len() != prev.len() {
        return Err(format!(
            "write of {} keys returned {} results",
            keys.len(),
            prev.len()
        ));
    }
    for (&k, p) in keys.iter().zip(prev) {
        if let Some(v) = p {
            check_value(k, *v)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ADJ: Groups = Groups::Adjacent { size: 4 };
    const STRIDED: Groups = Groups::Strided {
        stride: 100,
        size: 4,
    };

    fn write(groups: Groups, g: u64, s: u64) -> Vec<(u64, u64)> {
        groups.keys(g).into_iter().map(|k| (k, tag(k, s))).collect()
    }

    #[test]
    fn values_must_match_their_key() {
        let s = stamp(1, 7);
        assert!(check_value(9, tag(9, s)).is_ok());
        assert!(check_value(8, tag(9, s)).is_err());
        assert!(check_value(9, tag(9, (MAX_WRITER + 1) << COUNTER_BITS)).is_err());
    }

    #[test]
    fn range_check_fires_on_disorder_and_strays() {
        let s = stamp(1, 1);
        let ok: Vec<(u64, u64)> = [3, 5, 9].iter().map(|&k| (k, tag(k, s))).collect();
        assert!(check_range(3, 9, &ok).is_ok());
        let swapped = vec![ok[1], ok[0], ok[2]];
        assert!(check_range(3, 9, &swapped).is_err());
        let dup = vec![ok[0], ok[0]];
        assert!(check_range(3, 9, &dup).is_err());
        assert!(check_range(4, 9, &ok).is_err());
        assert!(check_range(3, 8, &ok).is_err());
        let mistagged = vec![(3, tag(4, s))];
        assert!(check_range(0, 9, &mistagged).is_err());
    }

    #[test]
    fn clean_groups_pass() {
        let mut pairs = write(ADJ, 1, stamp(1, 1));
        pairs.extend(write(ADJ, 3, stamp(2, 9)));
        assert!(ADJ.check_range(0, 15, &pairs).is_ok());
        // Group 1 is only partly covered by [5, 15]: its visible keys are
        // not checked as a group.
        assert!(ADJ.check_range(5, 15, &pairs[1..]).is_ok());
        let mut strided = write(STRIDED, 7, stamp(1, 3));
        strided.sort_unstable();
        assert!(STRIDED.check_range(0, 399, &strided).is_ok());
    }

    #[test]
    fn torn_groups_fire() {
        let pairs = write(ADJ, 2, stamp(1, 1));
        let err = ADJ.check_range(0, 15, &pairs[..3]).unwrap_err();
        assert!(err.contains("torn"), "{err}");
        let mut mixed = pairs.clone();
        mixed[2] = (10, tag(10, stamp(2, 5)));
        assert!(ADJ.check_range(0, 15, &mixed).is_err());
        let strided = write(STRIDED, 7, stamp(1, 3));
        assert!(STRIDED.check_range(0, 399, &strided[1..]).is_err());
    }

    #[test]
    fn group_writes_check_their_previous_values() {
        let keys = ADJ.keys(0);
        let s = stamp(1, 4);
        let whole: Vec<Option<u64>> = keys.iter().map(|&k| Some(tag(k, s))).collect();
        assert!(ADJ.check_prev(&keys, &whole).is_ok());
        assert!(ADJ.check_prev(&keys, &[None; 4]).is_ok());
        let mut torn = whole.clone();
        torn[3] = None;
        assert!(ADJ.check_prev(&keys, &torn).is_err());
        let mut mixed = whole;
        mixed[0] = Some(tag(0, stamp(2, 4)));
        assert!(ADJ.check_prev(&keys, &mixed).is_err());
        assert!(check_prev(&keys, &[Some(tag(1, s)), None, None, None]).is_err());
        assert!(check_prev(&keys, &[None]).is_err());
    }
}
