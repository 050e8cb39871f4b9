//! [`SlottedPage`] — the unit of paged storage.
//!
//! A page is a contiguous byte heap plus a slot directory: slot `i` is a
//! `(offset, len)` window into the heap. Heap-file pages additionally carry
//! the in-partition key per slot (so batched scans can return `(key,
//! record)` pairs without consulting resident metadata); index pages store
//! bare entry records and leave the key column empty.
//!
//! Records are stored as their raw payload bytes in one shared buffer and
//! read back as [`Bytes::slice`]s of it: a read neither copies nor
//! allocates. A page that round-trips through the simulated disk (evict →
//! write-back → fault) reproduces records byte-identically — floats,
//! separators and all. Mutation is copy-on-write: while a live record or
//! another copy of the page shares the buffer, `push` and `replace` copy it
//! first, so a record already read keeps its bytes.
//!
//! A [`PageId`] is three integers: the owning file's namespace (interned
//! by the pool, see [`BufferPool::namespace`](super::BufferPool::namespace)),
//! the partition and the page number. It is `Copy`, so hashing and
//! comparing one on the read path touches no string.

use crate::record::Record;
use bytes::{Bytes, BytesMut};
use rede_common::Value;

/// Default target page size. A page may exceed this by one oversized
/// record (records are never split across pages); writers roll to a new
/// page once the open page reaches the target.
pub const DEFAULT_PAGE_BYTES: usize = 4096;

/// Fixed accounting overhead per slot: directory entry plus the key cell.
const SLOT_OVERHEAD: usize = 16;

/// Fixed accounting overhead per page (frame bookkeeping, directory
/// headers). Keeps even empty pages from being budget-free.
const PAGE_OVERHEAD: usize = 64;

/// Address of one page: which file, which partition, which page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId {
    /// Owning file's page namespace, as interned by
    /// [`BufferPool::namespace`](super::BufferPool::namespace) (heap files
    /// and indexes prefix their catalog name so the namespaces cannot
    /// collide).
    pub ns: u32,
    /// Partition the page belongs to.
    pub partition: u32,
    /// Page number within the partition, in append order.
    pub page_no: u32,
}

/// Budgeted byte cost of a [`Value`] stored in a page's key column.
fn value_bytes(v: &Value) -> usize {
    match v {
        Value::Str(s) => s.len(),
        Value::Bytes(b) => b.len(),
        _ => 0,
    }
}

/// A page offset or length as stored in the slot directory: converted with
/// a check, never truncated.
fn slot_u32(n: usize) -> u32 {
    u32::try_from(n).expect("page offset or length exceeds u32")
}

/// A slotted page: raw record bytes plus a slot directory.
#[derive(Debug, Clone, Default)]
pub struct SlottedPage {
    /// Concatenated record payloads, shared with every record read from
    /// the page (and with clones of the page). Replaced records may leave
    /// dead bytes behind; those stay charged to the budget until the page
    /// is dropped (honest fragmentation — a real pager pays for it too).
    data: Bytes,
    /// Slot directory: `(offset, len)` into `data`.
    slots: Vec<(u32, u32)>,
    /// Per-slot in-partition key (heap pages). Empty for index pages.
    keys: Vec<Value>,
}

impl SlottedPage {
    /// An empty page.
    pub fn new() -> SlottedPage {
        SlottedPage::default()
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no slots exist.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Budgeted size of this page in bytes.
    pub fn byte_size(&self) -> usize {
        PAGE_OVERHEAD
            + self.data.len()
            + self.slots.len() * SLOT_OVERHEAD
            + self.keys.iter().map(value_bytes).sum::<usize>()
    }

    /// Exact [`SlottedPage::byte_size`] growth an append of `bytes` (with
    /// optional key) will cause. Writers charge this *before* mutating so
    /// the budget is never exceeded, not even transiently.
    pub fn push_cost(key: Option<&Value>, bytes: usize) -> usize {
        bytes + SLOT_OVERHEAD + key.map_or(0, value_bytes)
    }

    /// Exact growth of replacing slot `slot`'s payload with `new_len`
    /// bytes. Shrinking replacements cost zero; growing ones append the
    /// whole new payload (the old bytes go dead but stay charged).
    pub fn replace_cost(&self, slot: usize, new_len: usize) -> usize {
        let (_, len) = self.slots[slot];
        if new_len <= len as usize {
            0
        } else {
            new_len
        }
    }

    /// Mutate the payload buffer: in place while the page is its only
    /// holder, on a private copy while records or page clones share it.
    fn edit_data(&mut self, f: impl FnOnce(&mut BytesMut)) {
        let mut data = std::mem::take(&mut self.data)
            .try_into_mut()
            .unwrap_or_else(|shared| BytesMut::from(&shared[..]));
        f(&mut data);
        self.data = data.freeze();
    }

    /// Append `bytes` to the payload buffer; returns their slot entry.
    fn append(&mut self, bytes: &[u8]) -> (u32, u32) {
        let entry = (slot_u32(self.data.len()), slot_u32(bytes.len()));
        self.edit_data(|data| data.extend_from_slice(bytes));
        entry
    }

    /// Append a record, returning its slot number.
    pub fn push(&mut self, key: Option<Value>, bytes: &[u8]) -> usize {
        let entry = self.append(bytes);
        self.slots.push(entry);
        if let Some(k) = key {
            debug_assert_eq!(
                self.keys.len() + 1,
                self.slots.len(),
                "keyed and bare appends must not mix on one page"
            );
            self.keys.push(k);
        }
        self.slots.len() - 1
    }

    /// Replace slot `slot`'s payload in place, keeping its key. A payload
    /// no longer than the old one overwrites in place; a longer one is
    /// appended at the end of the heap (the old bytes go dead).
    pub fn replace(&mut self, slot: usize, bytes: &[u8]) {
        let (offset, len) = self.slots[slot];
        self.slots[slot] = if bytes.len() <= len as usize {
            let start = offset as usize;
            self.edit_data(|data| data[start..start + bytes.len()].copy_from_slice(bytes));
            (offset, slot_u32(bytes.len()))
        } else {
            self.append(bytes)
        };
    }

    /// The record in `slot`: a slice of the page's buffer, so the read
    /// neither copies nor allocates. It keeps the bytes it was read with
    /// however the page changes afterwards.
    pub fn record(&self, slot: usize) -> Option<Record> {
        let &(offset, len) = self.slots.get(slot)?;
        let start = offset as usize;
        Some(Record::from_bytes(
            self.data.slice(start..start + len as usize),
        ))
    }

    /// The key stored with `slot` (heap pages only).
    pub fn key(&self, slot: usize) -> Option<&Value> {
        self.keys.get(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut p = SlottedPage::new();
        let a = p.push(Some(Value::Int(1)), b"alpha");
        let b = p.push(Some(Value::Int(2)), b"bravo-longer");
        assert_eq!(p.record(a).unwrap().bytes(), b"alpha");
        assert_eq!(p.record(b).unwrap().bytes(), b"bravo-longer");
        assert_eq!(p.key(a), Some(&Value::Int(1)));
        assert_eq!(p.len(), 2);
        assert!(p.record(2).is_none());
    }

    #[test]
    fn push_cost_matches_actual_growth() {
        let mut p = SlottedPage::new();
        for (key, bytes) in [
            (Some(Value::Int(9)), b"x".as_slice()),
            (Some(Value::str("a-longer-key")), b"payload bytes here"),
        ] {
            let before = p.byte_size();
            let cost = SlottedPage::push_cost(key.as_ref(), bytes.len());
            p.push(key, bytes);
            assert_eq!(p.byte_size() - before, cost);
        }
    }

    #[test]
    fn replace_shrink_in_place_and_grow_appends() {
        let mut p = SlottedPage::new();
        let s = p.push(None, b"0123456789");
        let grow = p.byte_size();
        p.replace(s, b"abc");
        assert_eq!(p.record(s).unwrap().bytes(), b"abc");
        assert_eq!(p.byte_size(), grow, "shrink leaves dead bytes charged");
        let cost = p.replace_cost(s, 20);
        let before = p.byte_size();
        p.replace(s, &[b'z'; 20]);
        assert_eq!(p.record(s).unwrap().bytes(), &[b'z'; 20]);
        assert_eq!(p.byte_size() - before, cost);
    }

    #[test]
    fn clone_is_byte_identical() {
        let mut p = SlottedPage::new();
        p.push(Some(Value::Float(0.1 + 0.2)), b"\x00\xff\x1f binary \x7f");
        let q = p.clone();
        assert_eq!(q.record(0).unwrap().bytes(), p.record(0).unwrap().bytes());
        assert_eq!(q.key(0), p.key(0));
    }

    #[test]
    fn records_are_slices_of_the_page() {
        let mut p = SlottedPage::new();
        let a = p.push(None, b"alpha");
        let b = p.push(None, b"bravo");
        let (ra, rb) = (p.record(a).unwrap(), p.record(b).unwrap());
        assert_eq!(
            rb.bytes().as_ptr(),
            ra.bytes().as_ptr().wrapping_add(5),
            "both records point into one buffer"
        );
        assert_eq!(p.record(a).unwrap().bytes().as_ptr(), ra.bytes().as_ptr());
    }

    #[test]
    fn a_record_read_before_a_write_keeps_its_bytes() {
        let mut p = SlottedPage::new();
        let s = p.push(Some(Value::Int(1)), b"0123456789");
        let before = p.record(s).unwrap();
        p.replace(s, b"abc");
        assert_eq!(before.bytes(), b"0123456789");
        assert_eq!(p.record(s).unwrap().bytes(), b"abc");

        let shrunk = p.record(s).unwrap();
        p.replace(s, &[b'z'; 20]);
        let t = p.push(Some(Value::Int(2)), b"tail");
        assert_eq!(shrunk.bytes(), b"abc");
        assert_eq!(before.bytes(), b"0123456789");
        assert_eq!(p.record(s).unwrap().bytes(), &[b'z'; 20]);
        assert_eq!(p.record(t).unwrap().bytes(), b"tail");
    }

    #[test]
    fn a_clone_keeps_its_bytes_when_the_original_is_written() {
        let mut p = SlottedPage::new();
        let s = p.push(None, b"original");
        let q = p.clone();
        p.replace(s, b"new");
        p.push(None, b"more");
        assert_eq!(q.record(s).unwrap().bytes(), b"original");
        assert_eq!(q.len(), 1);
        assert_eq!(p.record(s).unwrap().bytes(), b"new");
    }

    #[test]
    fn slot_entries_are_converted_with_a_check() {
        assert_eq!(slot_u32(u32::MAX as usize), u32::MAX);
        let overflow = std::panic::catch_unwind(|| slot_u32(u32::MAX as usize + 1));
        assert!(overflow.is_err(), "an offset past u32 must not truncate");
    }
}
