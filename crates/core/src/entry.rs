//! Internal entry representation: user key + sequence number + kind.
//!
//! Deletes are out-of-place tombstones (tutorial Module I.1): a `Delete`
//! entry shadows older versions of its key until compaction garbage-
//! collects both at the last level.

/// What an entry represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// A live value.
    Put,
    /// A tombstone.
    Delete,
}

impl ValueKind {
    /// Single-byte encoding.
    pub fn to_u8(self) -> u8 {
        match self {
            ValueKind::Put => 0,
            ValueKind::Delete => 1,
        }
    }

    /// Decodes [`ValueKind::to_u8`].
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(ValueKind::Put),
            1 => Some(ValueKind::Delete),
            _ => None,
        }
    }
}

/// A fully-resolved internal entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InternalEntry {
    /// User key.
    pub key: Vec<u8>,
    /// Monotone sequence number; higher = newer.
    pub seqno: u64,
    /// Put or tombstone.
    pub kind: ValueKind,
    /// Value bytes (empty for tombstones).
    pub value: Vec<u8>,
}

impl InternalEntry {
    /// A live entry.
    pub fn put(key: Vec<u8>, seqno: u64, value: Vec<u8>) -> Self {
        InternalEntry {
            key,
            seqno,
            kind: ValueKind::Put,
            value,
        }
    }

    /// A tombstone.
    pub fn delete(key: Vec<u8>, seqno: u64) -> Self {
        InternalEntry {
            key,
            seqno,
            kind: ValueKind::Delete,
            value: Vec::new(),
        }
    }

    /// Approximate in-memory footprint in bytes.
    pub fn footprint(&self) -> usize {
        self.key.len() + self.value.len() + 16
    }
}

/// Variable-length integer encoding (LEB128), used throughout the block
/// and log formats.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`put_varint`] writes for `v`.
pub(crate) fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Decodes a varint; returns `(value, bytes_consumed)`.
pub fn get_varint(bytes: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &b) in bytes.iter().enumerate() {
        if shift >= 64 {
            return None;
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Some((v, i + 1));
        }
        shift += 7;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip() {
        assert_eq!(ValueKind::from_u8(ValueKind::Put.to_u8()), Some(ValueKind::Put));
        assert_eq!(
            ValueKind::from_u8(ValueKind::Delete.to_u8()),
            Some(ValueKind::Delete)
        );
        assert_eq!(ValueKind::from_u8(9), None);
    }

    #[test]
    fn tombstones() {
        let t = InternalEntry::delete(b"k".to_vec(), 3);
        assert_eq!(t.kind, ValueKind::Delete);
        assert!(t.value.is_empty());
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let (back, used) = get_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn varint_sizes() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_varint(&mut buf, 128);
        assert_eq!(buf.len(), 2);
        buf.clear();
        put_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        assert_eq!(get_varint(&[]), None);
        assert_eq!(get_varint(&[0x80]), None);
        assert_eq!(get_varint(&[0x80; 11]), None);
    }

    #[test]
    fn varint_ignores_trailing_bytes() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 300);
        buf.extend_from_slice(b"rest");
        let (v, used) = get_varint(&buf).unwrap();
        assert_eq!(v, 300);
        assert_eq!(used, 2);
    }
}
