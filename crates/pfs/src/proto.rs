//! Wire protocol between PFS clients, I/O-node servers, and the pointer
//! server. One request/response pair rides the machine-wide RPC fabric.

use bytes::Bytes;
use paragon_disk::DiskError;
use paragon_os::{RpcError, WireSize};
use paragon_sim::ReqId;
use paragon_ufs::UfsError;

/// Identifier of a PFS file (machine-wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PfsFileId(pub u32);

/// Requests a client can send. `Clone` so the client can re-send an
/// idempotent request under its retry policy (and so the mesh can model
/// duplicated deliveries).
#[derive(Debug, Clone)]
pub enum PfsRequest {
    /// Read a contiguous run of one stripe file.
    Read {
        /// Flight-recorder request id minted at the client (`0` = none).
        req: ReqId,
        file: PfsFileId,
        /// Group slot whose stripe file is addressed.
        slot: u16,
        /// Byte offset within the stripe file.
        offset: u64,
        /// Bytes to read.
        len: u32,
        /// Fast Path (bypass the server's buffer cache)?
        fast_path: bool,
        /// Is the file opened shared (pays the consistency check)?
        shared: bool,
        /// M_GLOBAL: if nonzero, this many nodes will issue the identical
        /// read and one physical I/O should serve them all.
        global_parties: u16,
    },
    /// Write a contiguous run of one stripe file.
    Write {
        /// Flight-recorder request id minted at the client (`0` = none).
        req: ReqId,
        file: PfsFileId,
        slot: u16,
        offset: u64,
        data: Bytes,
        fast_path: bool,
        shared: bool,
    },
    /// Shared-file-pointer operation (service node).
    Ptr(PtrRequest),
}

/// Shared-pointer operations, one per shared-pointer mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtrRequest {
    /// M_UNIX: acquire the pointer token; the reply carries the current
    /// pointer. The token is held until [`PtrRequest::UnixRelease`].
    UnixAcquire { file: PfsFileId },
    /// M_UNIX: advance the pointer by `advance` and release the token.
    UnixRelease { file: PfsFileId, advance: u64 },
    /// M_LOG: atomically fetch the pointer and advance it by `len`.
    LogFetchAdd { file: PfsFileId, len: u64 },
    /// M_SYNC: rank `rank` of `nprocs` arrives at a collective call
    /// wanting `len` bytes; the reply (sent once all ranks arrive)
    /// carries this rank's node-ordered offset.
    SyncArrive {
        file: PfsFileId,
        rank: u16,
        nprocs: u16,
        len: u64,
    },
    /// Reset the pointer (file rewind; also used between experiments).
    Rewind { file: PfsFileId },
}

/// Responses.
#[derive(Debug, Clone)]
pub enum PfsResponse {
    /// Read reply.
    Data(Result<Bytes, PfsError>),
    /// Write acknowledgement.
    WriteAck(Result<u32, PfsError>),
    /// Pointer-operation reply: the relevant file offset, or why the
    /// service node could not produce one.
    Ptr(Result<u64, PfsError>),
}

/// PFS-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PfsError {
    /// The underlying UFS failed.
    Ufs(UfsError),
    /// Request addressed a slot outside the file's stripe group.
    BadSlot { slot: u16, factor: usize },
    /// No such PFS file.
    UnknownFile(PfsFileId),
    /// The device under an I/O node failed the request (dead member
    /// without parity cover, transient media error, disk server gone).
    DiskError(DiskError),
    /// A data-transfer RPC attempt exceeded its deadline.
    Timeout,
    /// The I/O node (or the reply path back from it) is down.
    IoNodeDown,
    /// The client's retry policy was exhausted without a good reply.
    TooManyRetries {
        /// Attempts made (initial call + retries).
        attempts: u32,
    },
    /// Protocol violation: a peer answered with the wrong reply kind.
    BadReply,
    /// The request was routed to a node type that cannot serve it (e.g.
    /// a data read sent to the service node).
    BadRequest,
    /// The service node abandoned the operation mid-call (its process
    /// went away while the caller was queued on it).
    ServiceLost,
}

impl std::fmt::Display for PfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PfsError::Ufs(e) => write!(f, "ufs: {e}"),
            PfsError::BadSlot { slot, factor } => {
                write!(f, "slot {slot} out of range (stripe factor {factor})")
            }
            PfsError::UnknownFile(id) => write!(f, "unknown PFS file {}", id.0),
            PfsError::DiskError(e) => write!(f, "device failure: {e}"),
            PfsError::Timeout => write!(f, "request timed out"),
            PfsError::IoNodeDown => write!(f, "I/O node down"),
            PfsError::TooManyRetries { attempts } => {
                write!(f, "gave up after {attempts} attempts")
            }
            PfsError::BadReply => write!(f, "protocol violation: wrong reply kind"),
            PfsError::BadRequest => {
                write!(f, "request routed to a node that cannot serve it")
            }
            PfsError::ServiceLost => write!(f, "service node abandoned the operation"),
        }
    }
}

impl std::error::Error for PfsError {}

impl From<UfsError> for PfsError {
    fn from(e: UfsError) -> Self {
        match e {
            // Surface device failures under their own variant so callers
            // can tell an injected fault from a file-system error.
            UfsError::Disk(d) => PfsError::DiskError(d),
            other => PfsError::Ufs(other),
        }
    }
}

impl From<RpcError> for PfsError {
    fn from(e: RpcError) -> Self {
        match e {
            RpcError::Timeout => PfsError::Timeout,
            RpcError::Dropped => PfsError::IoNodeDown,
            RpcError::TooManyRetries { attempts } => PfsError::TooManyRetries { attempts },
        }
    }
}

impl WireSize for PfsRequest {
    fn wire_bytes(&self) -> u64 {
        match self {
            PfsRequest::Read { .. } => 32,
            PfsRequest::Write { data, .. } => 32 + data.len() as u64,
            PfsRequest::Ptr(_) => 24,
        }
    }

    fn trace_req(&self) -> ReqId {
        match self {
            PfsRequest::Read { req, .. } | PfsRequest::Write { req, .. } => *req,
            PfsRequest::Ptr(_) => 0,
        }
    }
}

impl WireSize for PfsResponse {
    fn wire_bytes(&self) -> u64 {
        match self {
            PfsResponse::Data(Ok(data)) => 16 + data.len() as u64,
            PfsResponse::Data(Err(_)) | PfsResponse::WriteAck(_) | PfsResponse::Ptr(_) => 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_requests_are_small_on_the_wire() {
        let req = PfsRequest::Read {
            req: 0,
            file: PfsFileId(0),
            slot: 0,
            offset: 0,
            len: 1 << 20,
            fast_path: true,
            shared: true,
            global_parties: 0,
        };
        assert!(req.wire_bytes() < 64);
    }

    #[test]
    fn data_replies_carry_their_payload() {
        let resp = PfsResponse::Data(Ok(Bytes::from(vec![0u8; 4096])));
        assert_eq!(resp.wire_bytes(), 16 + 4096);
        let err = PfsResponse::Data(Err(PfsError::UnknownFile(PfsFileId(9))));
        assert_eq!(err.wire_bytes(), 16);
    }

    /// One of every `PfsError` variant, for exhaustive protocol tests.
    fn all_errors() -> Vec<PfsError> {
        vec![
            PfsError::Ufs(UfsError::NotFound),
            PfsError::BadSlot { slot: 9, factor: 4 },
            PfsError::UnknownFile(PfsFileId(3)),
            PfsError::DiskError(DiskError::Transient),
            PfsError::DiskError(DiskError::Dead),
            PfsError::DiskError(DiskError::Down),
            PfsError::Timeout,
            PfsError::IoNodeDown,
            PfsError::TooManyRetries { attempts: 4 },
            PfsError::BadReply,
            PfsError::BadRequest,
            PfsError::ServiceLost,
        ]
    }

    #[test]
    fn every_error_variant_displays() {
        for e in all_errors() {
            let text = e.to_string();
            assert!(!text.is_empty(), "{e:?} has an empty Display");
            // Errors are protocol values: Display must be stable under
            // the Clone the reply path performs.
            assert_eq!(text, e.clone().to_string());
        }
    }

    #[test]
    fn every_error_variant_roundtrips_through_the_reply_protocol() {
        for e in all_errors() {
            // A read reply carrying the error…
            let reply = PfsResponse::Data(Err(e.clone()));
            assert_eq!(reply.wire_bytes(), 16, "error replies are headers only");
            let PfsResponse::Data(Err(back)) = reply.clone() else {
                panic!("reply kind changed in flight")
            };
            assert_eq!(back, e);
            // …a write acknowledgement carrying the same error…
            let ack = PfsResponse::WriteAck(Err(e.clone()));
            let PfsResponse::WriteAck(Err(back)) = ack else {
                panic!("ack kind changed in flight")
            };
            assert_eq!(back, e);
            // …and a pointer reply carrying it.
            let ptr = PfsResponse::Ptr(Err(e.clone()));
            assert_eq!(ptr.wire_bytes(), 16, "pointer replies are headers only");
            let PfsResponse::Ptr(Err(back)) = ptr else {
                panic!("pointer reply kind changed in flight")
            };
            assert_eq!(back, e);
        }
    }

    #[test]
    fn rpc_errors_map_onto_pfs_errors() {
        assert_eq!(PfsError::from(RpcError::Timeout), PfsError::Timeout);
        assert_eq!(PfsError::from(RpcError::Dropped), PfsError::IoNodeDown);
        assert_eq!(
            PfsError::from(RpcError::TooManyRetries { attempts: 7 }),
            PfsError::TooManyRetries { attempts: 7 }
        );
    }

    #[test]
    fn ufs_disk_errors_surface_as_device_failures() {
        assert_eq!(
            PfsError::from(UfsError::Disk(DiskError::Dead)),
            PfsError::DiskError(DiskError::Dead)
        );
        assert_eq!(
            PfsError::from(UfsError::NotFound),
            PfsError::Ufs(UfsError::NotFound)
        );
    }

    #[test]
    fn write_requests_carry_their_payload() {
        let req = PfsRequest::Write {
            req: 0,
            file: PfsFileId(1),
            slot: 2,
            offset: 0,
            data: Bytes::from(vec![1u8; 1000]),
            fast_path: true,
            shared: false,
        };
        assert_eq!(req.wire_bytes(), 1032);
    }
}
