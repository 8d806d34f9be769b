//! PFS file metadata.
//!
//! One machine-wide registry maps a [`PfsFileId`] to its stripe attributes
//! and the per-slot UFS inodes. In the Paragon this lived in the mount
//! metadata replicated to the servers; here it is a shared table the
//! client library and the I/O-node servers both consult (metadata RPCs are
//! folded into the calibrated per-request server cost).

use std::cell::RefCell;
use std::rc::Rc;

use paragon_ufs::InodeId;

use crate::proto::{PfsError, PfsFileId};
use crate::stripe::StripeAttrs;

/// One physical copy of a stripe slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Replica {
    /// I/O node hosting this copy.
    pub ion: usize,
    /// Inode of the copy's stripe file on that node's UFS.
    pub inode: InodeId,
    /// Readable. A rebuild target starts `false` (staging): the server
    /// resolves it so recovery writes land, but readers never choose it
    /// until the copy is complete and committed.
    pub ready: bool,
}

/// Per-slot replica lists of one file, shared between every clone of its
/// [`FileMeta`] (open handles, servers, and the recovery coordinator all
/// see replacement replicas the moment they commit).
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotReplicas {
    table: Rc<RefCell<Vec<Vec<Replica>>>>,
}

impl SlotReplicas {
    fn new(table: Vec<Vec<Replica>>) -> Self {
        SlotReplicas {
            table: Rc::new(RefCell::new(table)),
        }
    }
}

/// Metadata of one PFS file.
#[derive(Debug, Clone)]
pub(crate) struct FileMeta {
    /// Machine-wide id.
    pub id: PfsFileId,
    /// Mount-relative name.
    pub name: String,
    /// Stripe layout.
    pub attrs: StripeAttrs,
    /// Per group slot: `(I/O-node index, inode of that slot's stripe
    /// file)` — the *primary* (initial) placement. Replicated mounts
    /// keep further copies in [`FileMeta::replicas`].
    pub slots: Vec<(usize, InodeId)>,
    /// Every live copy of every slot, primary first. Shared across
    /// clones (interior `Rc`), so recovery-time replacements are seen by
    /// open handles.
    pub replicas: SlotReplicas,
}

impl FileMeta {
    /// Resolve a slot to its primary I/O node and inode.
    pub(crate) fn slot(&self, slot: u16) -> Result<(usize, InodeId), PfsError> {
        self.slots
            .get(slot as usize)
            .copied()
            .ok_or(PfsError::BadSlot {
                slot,
                factor: self.slots.len(),
            })
    }

    /// Run `f` on every copy of `slot` (ready and staging, preference
    /// order) under the replica table's borrow, copying nothing. `f` must
    /// not reach the table itself.
    pub(crate) fn with_replicas<R>(
        &self,
        slot: u16,
        f: impl FnOnce(&[Replica]) -> R,
    ) -> Result<R, PfsError> {
        match self.replicas.table.borrow().get(slot as usize) {
            Some(copies) => Ok(f(copies)),
            None => Err(PfsError::BadSlot {
                slot,
                factor: self.slots.len(),
            }),
        }
    }

    /// Every copy of `slot` (ready and staging), preference order.
    pub(crate) fn slot_replicas(&self, slot: u16) -> Result<Vec<Replica>, PfsError> {
        self.with_replicas(slot, <[Replica]>::to_vec)
    }

    /// The inode of `slot`'s copy hosted on I/O node `ion`, staging
    /// included (servers resolve incoming requests with this).
    pub(crate) fn inode_on(&self, slot: u16, ion: usize) -> Result<InodeId, PfsError> {
        self.with_replicas(slot, |copies| {
            copies.iter().find(|r| r.ion == ion).map(|r| r.inode)
        })?
        .ok_or(PfsError::BadSlot {
            slot,
            factor: self.slots.len(),
        })
    }

    /// Register a staging copy of `slot` on `ion` (rebuild target).
    /// Not readable until [`FileMeta::commit_replica`].
    pub(crate) fn add_staging_replica(&self, slot: u16, ion: usize, inode: InodeId) {
        let mut table = self.replicas.table.borrow_mut();
        if let Some(list) = table.get_mut(slot as usize) {
            list.push(Replica {
                ion,
                inode,
                ready: false,
            });
        }
    }

    /// Mark the staging copy of `slot` on `ion` readable and drop the
    /// copy it replaces (`lost_ion`), completing one re-replication.
    pub(crate) fn commit_replica(&self, slot: u16, ion: usize, lost_ion: usize) {
        let mut table = self.replicas.table.borrow_mut();
        if let Some(list) = table.get_mut(slot as usize) {
            for r in list.iter_mut() {
                if r.ion == ion {
                    r.ready = true;
                }
            }
            list.retain(|r| r.ion != lost_ion);
        }
    }
}

/// The machine-wide file table; a file's id is its index.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    files: Vec<FileMeta>,
}

impl Registry {
    /// Empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Register a file with explicit per-slot replica lists (entry 0 of
    /// each list is the primary; `slots` must match the primaries).
    pub(crate) fn insert_replicated(
        &mut self,
        name: &str,
        attrs: StripeAttrs,
        slots: Vec<(usize, InodeId)>,
        replicas: Vec<Vec<Replica>>,
    ) -> PfsFileId {
        assert_eq!(
            attrs.factor(),
            slots.len(),
            "slot list does not match stripe factor"
        );
        assert_eq!(
            slots.len(),
            replicas.len(),
            "replica table does not match stripe factor"
        );
        let id = PfsFileId(self.files.len() as u32);
        self.files.push(FileMeta {
            id,
            name: name.to_owned(),
            attrs,
            slots,
            replicas: SlotReplicas::new(replicas),
        });
        id
    }

    /// Look a file up by id.
    pub(crate) fn get(&self, id: PfsFileId) -> Result<&FileMeta, PfsError> {
        self.files
            .get(id.0 as usize)
            .ok_or(PfsError::UnknownFile(id))
    }

    /// Iterate over every file, creation order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &FileMeta> {
        self.files.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Register a single-copy file: each slot's primary is its only copy.
    fn insert(
        r: &mut Registry,
        name: &str,
        attrs: StripeAttrs,
        slots: Vec<(usize, InodeId)>,
    ) -> PfsFileId {
        let replicas = slots
            .iter()
            .map(|&(ion, inode)| {
                vec![Replica {
                    ion,
                    inode,
                    ready: true,
                }]
            })
            .collect();
        r.insert_replicated(name, attrs, slots, replicas)
    }

    #[test]
    fn insert_and_resolve() {
        let mut r = Registry::new();
        let attrs = StripeAttrs::across(2, 64 * 1024);
        let id = insert(
            &mut r,
            "/pfs/a",
            attrs,
            vec![(0, InodeId(0)), (1, InodeId(0))],
        );
        assert_eq!(id, PfsFileId(0));
        let meta = r.get(id).unwrap();
        assert_eq!(meta.slot(1).unwrap(), (1, InodeId(0)));
        assert!(matches!(
            meta.slot(2),
            Err(PfsError::BadSlot { slot: 2, factor: 2 })
        ));
    }

    #[test]
    fn replica_table_supports_staging_commit_and_sharing() {
        let mut r = Registry::new();
        let attrs = StripeAttrs::across(2, 64 * 1024);
        let rep = |ion: usize, inode: u64| Replica {
            ion,
            inode: InodeId(inode),
            ready: true,
        };
        let id = r.insert_replicated(
            "/pfs/rep",
            attrs,
            vec![(0, InodeId(0)), (1, InodeId(1))],
            vec![vec![rep(0, 0), rep(2, 7)], vec![rep(1, 1), rep(3, 8)]],
        );
        let meta = r.get(id).unwrap().clone();
        let readable = |meta: &FileMeta| {
            meta.with_replicas(0, |copies| {
                copies
                    .iter()
                    .filter(|c| c.ready)
                    .copied()
                    .collect::<Vec<_>>()
            })
            .unwrap()
        };
        assert_eq!(readable(&meta).len(), 2);
        assert_eq!(meta.inode_on(0, 2).unwrap(), InodeId(7));
        assert!(meta.inode_on(0, 1).is_err());
        assert!(meta.slot_replicas(5).is_err());
        // Stage a replacement for the copy on ion 2, then commit it.
        meta.add_staging_replica(0, 3, InodeId(9));
        assert_eq!(readable(&meta).len(), 2, "staging copy must be unreadable");
        assert_eq!(
            meta.inode_on(0, 3).unwrap(),
            InodeId(9),
            "staging copy must resolve on its server"
        );
        meta.commit_replica(0, 3, 2);
        let now = readable(&meta);
        assert_eq!(now.len(), 2);
        assert!(now.iter().any(|c| c.ion == 3 && c.ready));
        assert!(meta.inode_on(0, 2).is_err(), "lost copy must be dropped");
        // Clones taken before the commit share the same table.
        let clone = r.get(id).unwrap().clone();
        assert!(clone.inode_on(0, 3).is_ok());
    }

    #[test]
    fn unknown_file_is_an_error() {
        let r = Registry::new();
        assert!(matches!(
            r.get(PfsFileId(3)),
            Err(PfsError::UnknownFile(PfsFileId(3)))
        ));
    }
}
