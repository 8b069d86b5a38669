//! The block protocol: a SCSI-flavoured command set carried over FC, IP
//! (iSCSI-style), or Infiniband framing (§8 — "IP or Infiniband
//! encapsulated as SCSI").
//!
//! Commands serialize to real wire frames (via `bytes`) so protocol
//! round-trip correctness is tested, not assumed.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// 512-byte sectors, as the era's hosts expect.
pub const SECTOR: u64 = 512;

/// A block command descriptor.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BlockCmd {
    /// Read `sectors` sectors starting at `lba`.
    Read { lun: u32, lba: u64, sectors: u32 },
    /// Write `sectors` sectors starting at `lba`.
    Write { lun: u32, lba: u64, sectors: u32 },
    /// Release sectors (DMSD free-on-unuse, §3).
    Unmap { lun: u32, lba: u64, sectors: u32 },
    /// Enumerate LUNs visible to this initiator (LUN masking applies).
    ReportLuns,
    /// Identify the target.
    Inquiry,
}

/// Command completion status.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockStatus {
    Good,
    /// Initiator may not address this LUN (masked).
    AccessDenied,
    /// Address beyond the volume.
    LbaOutOfRange,
    /// Thin pool exhausted.
    SpaceExhausted,
    /// Target failed mid-command.
    TargetFailure,
}

const OP_READ: u8 = 0x28;
const OP_WRITE: u8 = 0x2A;
const OP_UNMAP: u8 = 0x42;
const OP_REPORT_LUNS: u8 = 0xA0;
const OP_INQUIRY: u8 = 0x12;

/// Frame a command for the wire.
pub fn encode(cmd: &BlockCmd) -> Bytes {
    let mut b = BytesMut::with_capacity(24);
    match cmd {
        BlockCmd::Read { lun, lba, sectors } => {
            b.put_u8(OP_READ);
            b.put_u32(*lun);
            b.put_u64(*lba);
            b.put_u32(*sectors);
        }
        BlockCmd::Write { lun, lba, sectors } => {
            b.put_u8(OP_WRITE);
            b.put_u32(*lun);
            b.put_u64(*lba);
            b.put_u32(*sectors);
        }
        BlockCmd::Unmap { lun, lba, sectors } => {
            b.put_u8(OP_UNMAP);
            b.put_u32(*lun);
            b.put_u64(*lba);
            b.put_u32(*sectors);
        }
        BlockCmd::ReportLuns => b.put_u8(OP_REPORT_LUNS),
        BlockCmd::Inquiry => b.put_u8(OP_INQUIRY),
    }
    b.freeze()
}

/// Decode failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    Empty,
    UnknownOpcode(u8),
    Truncated,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Empty => write!(f, "empty frame"),
            DecodeError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#x}"),
            DecodeError::Truncated => write!(f, "truncated frame"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Parse a frame back into a command.
pub fn decode(mut frame: Bytes) -> Result<BlockCmd, DecodeError> {
    if frame.is_empty() {
        return Err(DecodeError::Empty);
    }
    let op = frame.get_u8();
    let need = |frame: &Bytes, n: usize| if frame.remaining() < n { Err(DecodeError::Truncated) } else { Ok(()) };
    match op {
        OP_READ | OP_WRITE | OP_UNMAP => {
            need(&frame, 16)?;
            let lun = frame.get_u32();
            let lba = frame.get_u64();
            let sectors = frame.get_u32();
            Ok(match op {
                OP_READ => BlockCmd::Read { lun, lba, sectors },
                OP_WRITE => BlockCmd::Write { lun, lba, sectors },
                _ => BlockCmd::Unmap { lun, lba, sectors },
            })
        }
        OP_REPORT_LUNS => Ok(BlockCmd::ReportLuns),
        OP_INQUIRY => Ok(BlockCmd::Inquiry),
        other => Err(DecodeError::UnknownOpcode(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_commands() {
        let cmds = [
            BlockCmd::Read { lun: 3, lba: 123456789, sectors: 128 },
            BlockCmd::Write { lun: 0, lba: 0, sectors: 1 },
            BlockCmd::Unmap { lun: 7, lba: u64::MAX / 2, sectors: u32::MAX },
            BlockCmd::ReportLuns,
            BlockCmd::Inquiry,
        ];
        for cmd in cmds {
            assert_eq!(decode(encode(&cmd)).unwrap(), cmd);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode(Bytes::new()).unwrap_err(), DecodeError::Empty);
        assert_eq!(decode(Bytes::from_static(&[0xFF])).unwrap_err(), DecodeError::UnknownOpcode(0xFF));
        assert_eq!(decode(Bytes::from_static(&[0x28, 0, 0])).unwrap_err(), DecodeError::Truncated);
    }
}
