//! The versioned binary codec for compiled programs and their IR.
//!
//! Layout of every framed document:
//!
//! ```text
//! offset 0  magic      b"FIRC"
//! offset 4  version    u32 LE  (FORMAT_VERSION)
//! offset 8  length     u64 LE  (payload byte count)
//! offset 16 checksum   u64 LE  (FNV-1a 64 of the payload)
//! offset 24 payload
//! ```
//!
//! All integers are little-endian fixed width; `f64` travels as its IEEE
//! bit pattern (`to_bits`), so NaN payloads and signed zeros round-trip
//! bitwise. Enums are encoded as explicit `u8` tags assigned here (not
//! via `as` casts of declaration order), so reordering a Rust enum can
//! never silently change the on-disk format — it either keeps the tag or
//! fails to compile the codec.
//!
//! Decoding is total: hostile, truncated, or corrupt input returns a
//! typed [`CacheError`], never a panic and never a fabricated program. On
//! top of the checksum, every decoded [`Program`] passes structural
//! validation ([`validate_program`]) — register operands in range, kernel
//! indices in range, jump targets within the instruction stream — so even
//! a forged document that clears the checksum cannot make the VM index
//! out of bounds.

use std::fmt;

use fir::ir::{Atom, BinOp, Body, Const, Exp, Fun, Lambda, Param, ReduceOp, Stm, UnOp, VarId};
use fir::types::{ScalarType, Type};
use firvm::bytecode::{CodeObject, Instr, Opnd, Reg};
use firvm::{Kernel, Program};

/// The on-disk format version. Bump on any change to the byte layout;
/// decoders reject every version but their own (the store then recompiles
/// and overwrites).
pub const FORMAT_VERSION: u32 = 2;

/// The four magic bytes opening every framed document.
pub const MAGIC: [u8; 4] = *b"FIRC";

/// Frame header size: magic + version + payload length + checksum.
const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// A register-file bound no real program approaches (the largest workload
/// compiles to a few thousand registers); a decoded frame size past it is
/// hostile input, not a program.
const MAX_REGS: usize = 1 << 24;

/// What went wrong decoding a document. Every variant is a typed error —
/// decode never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// The document does not start with [`MAGIC`].
    BadMagic,
    /// The document's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// The version the document claims.
        found: u32,
    },
    /// The input ended before the value at `at` could be read.
    Truncated {
        /// Byte offset of the read that ran out of input.
        at: usize,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch,
    /// The declared payload length disagrees with the document size.
    LengthMismatch {
        /// Payload bytes the header declares.
        declared: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// An enum tag outside the encodable range.
    BadTag {
        /// Which encoded type the tag belongs to.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// Structurally invalid content (out-of-range register, kernel index,
    /// jump target, absurd length, key-field mismatch, ...).
    Malformed {
        /// What exactly is malformed.
        what: String,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::BadMagic => write!(f, "not a fir-cache document (bad magic)"),
            CacheError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "format version {found} (this build reads {FORMAT_VERSION})"
                )
            }
            CacheError::Truncated { at } => write!(f, "truncated at byte {at}"),
            CacheError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            CacheError::LengthMismatch { declared, actual } => {
                write!(f, "payload length {declared} declared, {actual} present")
            }
            CacheError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag:#04x}"),
            CacheError::Malformed { what } => write!(f, "malformed document: {what}"),
        }
    }
}

impl std::error::Error for CacheError {}

fn malformed(what: impl Into<String>) -> CacheError {
    CacheError::Malformed { what: what.into() }
}

/// FNV-1a 64 over `bytes` (the workspace is dependency-free; this is the
/// payload checksum, an integrity check against torn or flipped bytes,
/// not a cryptographic authenticator — decoded programs are additionally
/// structurally validated).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------

/// Append-only payload writer.
#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Wrap the accumulated payload in the framed document header.
    pub(crate) fn frame(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.buf.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(&self.buf).to_le_bytes());
        out.extend_from_slice(&self.buf);
        out
    }
}

/// Bounds-checked payload reader.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CacheError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(CacheError::Truncated { at: self.pos })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CacheError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool(&mut self) -> Result<bool, CacheError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CacheError::BadTag { what: "bool", tag }),
        }
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CacheError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CacheError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn i64(&mut self) -> Result<i64, CacheError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, CacheError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A collection length, sanity-bounded by the remaining input: every
    /// encoded element is at least one byte, so a length past `remaining`
    /// is hostile — reject it before any allocation happens.
    pub(crate) fn len(&mut self) -> Result<usize, CacheError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(malformed(format!(
                "length {n} exceeds the {} bytes left in the document",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    pub(crate) fn str(&mut self) -> Result<String, CacheError> {
        let n = self.len()?;
        let at = self.pos;
        std::str::from_utf8(self.take(n)?)
            .map(str::to_string)
            .map_err(|_| malformed(format!("invalid UTF-8 string at byte {at}")))
    }
}

/// Strip and verify the frame header, returning a reader over the
/// checksummed payload.
pub(crate) fn open_frame(bytes: &[u8]) -> Result<Reader<'_>, CacheError> {
    if bytes.len() < 4 {
        return Err(CacheError::BadMagic);
    }
    if bytes[0..4] != MAGIC {
        return Err(CacheError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(CacheError::Truncated { at: bytes.len() });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4"));
    if version != FORMAT_VERSION {
        return Err(CacheError::UnsupportedVersion { found: version });
    }
    let declared = u64::from_le_bytes(bytes[8..16].try_into().expect("8"));
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("8"));
    let payload = &bytes[HEADER_LEN..];
    if declared != payload.len() as u64 {
        return Err(CacheError::LengthMismatch {
            declared,
            actual: payload.len() as u64,
        });
    }
    if fnv1a(payload) != checksum {
        return Err(CacheError::ChecksumMismatch);
    }
    Ok(Reader {
        bytes: payload,
        pos: 0,
    })
}

/// Error unless the reader consumed its whole payload.
pub(crate) fn finish(r: &Reader<'_>) -> Result<(), CacheError> {
    if r.remaining() != 0 {
        return Err(malformed(format!(
            "{} trailing payload bytes after the document body",
            r.remaining()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// IR (fir::ir) encoding
// ---------------------------------------------------------------------

fn emit_scalar_type(w: &mut Writer, t: ScalarType) {
    w.u8(match t {
        ScalarType::F64 => 0,
        ScalarType::I64 => 1,
        ScalarType::Bool => 2,
    });
}

fn read_scalar_type(r: &mut Reader<'_>) -> Result<ScalarType, CacheError> {
    match r.u8()? {
        0 => Ok(ScalarType::F64),
        1 => Ok(ScalarType::I64),
        2 => Ok(ScalarType::Bool),
        tag => Err(CacheError::BadTag {
            what: "scalar type",
            tag,
        }),
    }
}

fn emit_type(w: &mut Writer, t: &Type) {
    match t {
        Type::Scalar(s) => {
            w.u8(0);
            emit_scalar_type(w, *s);
        }
        Type::Array { elem, rank } => {
            w.u8(1);
            emit_scalar_type(w, *elem);
            w.len(*rank);
        }
        Type::Acc { elem, rank } => {
            w.u8(2);
            emit_scalar_type(w, *elem);
            w.len(*rank);
        }
    }
}

fn read_type(r: &mut Reader<'_>) -> Result<Type, CacheError> {
    match r.u8()? {
        0 => Ok(Type::Scalar(read_scalar_type(r)?)),
        1 => Ok(Type::Array {
            elem: read_scalar_type(r)?,
            rank: r.u64()? as usize,
        }),
        2 => Ok(Type::Acc {
            elem: read_scalar_type(r)?,
            rank: r.u64()? as usize,
        }),
        tag => Err(CacheError::BadTag { what: "type", tag }),
    }
}

fn emit_types(w: &mut Writer, ts: &[Type]) {
    w.len(ts.len());
    for t in ts {
        emit_type(w, t);
    }
}

fn read_types(r: &mut Reader<'_>) -> Result<Vec<Type>, CacheError> {
    let n = r.len()?;
    (0..n).map(|_| read_type(r)).collect()
}

fn emit_atom(w: &mut Writer, a: &Atom) {
    match a {
        Atom::Var(VarId(v)) => {
            w.u8(0);
            w.u32(*v);
        }
        Atom::Const(Const::F64(x)) => {
            w.u8(1);
            w.f64(*x);
        }
        Atom::Const(Const::I64(x)) => {
            w.u8(2);
            w.i64(*x);
        }
        Atom::Const(Const::Bool(x)) => {
            w.u8(3);
            w.bool(*x);
        }
    }
}

fn read_atom(r: &mut Reader<'_>) -> Result<Atom, CacheError> {
    match r.u8()? {
        0 => Ok(Atom::Var(VarId(r.u32()?))),
        1 => Ok(Atom::Const(Const::F64(r.f64()?))),
        2 => Ok(Atom::Const(Const::I64(r.i64()?))),
        3 => Ok(Atom::Const(Const::Bool(r.bool()?))),
        tag => Err(CacheError::BadTag { what: "atom", tag }),
    }
}

fn emit_atoms(w: &mut Writer, atoms: &[Atom]) {
    w.len(atoms.len());
    for a in atoms {
        emit_atom(w, a);
    }
}

fn read_atoms(r: &mut Reader<'_>) -> Result<Vec<Atom>, CacheError> {
    let n = r.len()?;
    (0..n).map(|_| read_atom(r)).collect()
}

fn emit_var(w: &mut Writer, v: VarId) {
    w.u32(v.0);
}

fn read_var(r: &mut Reader<'_>) -> Result<VarId, CacheError> {
    Ok(VarId(r.u32()?))
}

fn emit_vars(w: &mut Writer, vs: &[VarId]) {
    w.len(vs.len());
    for v in vs {
        emit_var(w, *v);
    }
}

fn read_vars(r: &mut Reader<'_>) -> Result<Vec<VarId>, CacheError> {
    let n = r.len()?;
    (0..n).map(|_| read_var(r)).collect()
}

fn un_op_tag(op: UnOp) -> u8 {
    match op {
        UnOp::Neg => 0,
        UnOp::Sin => 1,
        UnOp::Cos => 2,
        UnOp::Exp => 3,
        UnOp::Log => 4,
        UnOp::Sqrt => 5,
        UnOp::Tanh => 6,
        UnOp::Sigmoid => 7,
        UnOp::Abs => 8,
        UnOp::Recip => 9,
        UnOp::Not => 10,
        UnOp::ToF64 => 11,
        UnOp::ToI64 => 12,
    }
}

fn read_un_op(r: &mut Reader<'_>) -> Result<UnOp, CacheError> {
    Ok(match r.u8()? {
        0 => UnOp::Neg,
        1 => UnOp::Sin,
        2 => UnOp::Cos,
        3 => UnOp::Exp,
        4 => UnOp::Log,
        5 => UnOp::Sqrt,
        6 => UnOp::Tanh,
        7 => UnOp::Sigmoid,
        8 => UnOp::Abs,
        9 => UnOp::Recip,
        10 => UnOp::Not,
        11 => UnOp::ToF64,
        12 => UnOp::ToI64,
        tag => return Err(CacheError::BadTag { what: "unop", tag }),
    })
}

fn bin_op_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Pow => 4,
        BinOp::Min => 5,
        BinOp::Max => 6,
        BinOp::Rem => 7,
        BinOp::Eq => 8,
        BinOp::Neq => 9,
        BinOp::Lt => 10,
        BinOp::Le => 11,
        BinOp::Gt => 12,
        BinOp::Ge => 13,
        BinOp::And => 14,
        BinOp::Or => 15,
    }
}

fn read_bin_op(r: &mut Reader<'_>) -> Result<BinOp, CacheError> {
    Ok(match r.u8()? {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Pow,
        5 => BinOp::Min,
        6 => BinOp::Max,
        7 => BinOp::Rem,
        8 => BinOp::Eq,
        9 => BinOp::Neq,
        10 => BinOp::Lt,
        11 => BinOp::Le,
        12 => BinOp::Gt,
        13 => BinOp::Ge,
        14 => BinOp::And,
        15 => BinOp::Or,
        tag => return Err(CacheError::BadTag { what: "binop", tag }),
    })
}

fn reduce_op_tag(op: ReduceOp) -> u8 {
    match op {
        ReduceOp::Add => 0,
        ReduceOp::Mul => 1,
        ReduceOp::Min => 2,
        ReduceOp::Max => 3,
    }
}

fn read_reduce_op(r: &mut Reader<'_>) -> Result<ReduceOp, CacheError> {
    Ok(match r.u8()? {
        0 => ReduceOp::Add,
        1 => ReduceOp::Mul,
        2 => ReduceOp::Min,
        3 => ReduceOp::Max,
        tag => {
            return Err(CacheError::BadTag {
                what: "reduce op",
                tag,
            })
        }
    })
}

fn emit_params(w: &mut Writer, ps: &[Param]) {
    w.len(ps.len());
    for p in ps {
        emit_var(w, p.var);
        emit_type(w, &p.ty);
    }
}

fn read_params(r: &mut Reader<'_>) -> Result<Vec<Param>, CacheError> {
    let n = r.len()?;
    (0..n)
        .map(|_| {
            Ok(Param {
                var: read_var(r)?,
                ty: read_type(r)?,
            })
        })
        .collect()
}

fn emit_lambda(w: &mut Writer, l: &Lambda) {
    emit_params(w, &l.params);
    emit_body(w, &l.body);
    emit_types(w, &l.ret);
}

fn read_lambda(r: &mut Reader<'_>) -> Result<Lambda, CacheError> {
    Ok(Lambda {
        params: read_params(r)?,
        body: read_body(r)?,
        ret: read_types(r)?,
    })
}

fn emit_body(w: &mut Writer, b: &Body) {
    w.len(b.stms.len());
    for Stm { pat, exp } in &b.stms {
        emit_params(w, pat);
        emit_exp(w, exp);
    }
    emit_atoms(w, &b.result);
}

fn read_body(r: &mut Reader<'_>) -> Result<Body, CacheError> {
    let n = r.len()?;
    let stms = (0..n)
        .map(|_| {
            Ok(Stm {
                pat: read_params(r)?,
                exp: read_exp(r)?,
            })
        })
        .collect::<Result<Vec<_>, CacheError>>()?;
    Ok(Body {
        stms,
        result: read_atoms(r)?,
    })
}

fn emit_exp(w: &mut Writer, e: &Exp) {
    match e {
        Exp::Atom(a) => {
            w.u8(0);
            emit_atom(w, a);
        }
        Exp::UnOp(op, a) => {
            w.u8(1);
            w.u8(un_op_tag(*op));
            emit_atom(w, a);
        }
        Exp::BinOp(op, a, b) => {
            w.u8(2);
            w.u8(bin_op_tag(*op));
            emit_atom(w, a);
            emit_atom(w, b);
        }
        Exp::Select { cond, t, f } => {
            w.u8(3);
            emit_atom(w, cond);
            emit_atom(w, t);
            emit_atom(w, f);
        }
        Exp::Index { arr, idx } => {
            w.u8(4);
            emit_var(w, *arr);
            emit_atoms(w, idx);
        }
        Exp::Update { arr, idx, val } => {
            w.u8(5);
            emit_var(w, *arr);
            emit_atoms(w, idx);
            emit_atom(w, val);
        }
        Exp::Len(v) => {
            w.u8(6);
            emit_var(w, *v);
        }
        Exp::Iota(a) => {
            w.u8(7);
            emit_atom(w, a);
        }
        Exp::Replicate { n, val } => {
            w.u8(8);
            emit_atom(w, n);
            emit_atom(w, val);
        }
        Exp::Reverse(v) => {
            w.u8(9);
            emit_var(w, *v);
        }
        Exp::Copy(v) => {
            w.u8(10);
            emit_var(w, *v);
        }
        Exp::If {
            cond,
            then_br,
            else_br,
        } => {
            w.u8(11);
            emit_atom(w, cond);
            emit_body(w, then_br);
            emit_body(w, else_br);
        }
        Exp::Loop {
            params,
            index,
            count,
            body,
        } => {
            w.u8(12);
            w.len(params.len());
            for (p, init) in params {
                emit_var(w, p.var);
                emit_type(w, &p.ty);
                emit_atom(w, init);
            }
            emit_var(w, *index);
            emit_atom(w, count);
            emit_body(w, body);
        }
        Exp::Map { lam, args } => {
            w.u8(13);
            emit_lambda(w, lam);
            emit_vars(w, args);
        }
        Exp::Reduce { lam, neutral, args } => {
            w.u8(14);
            emit_lambda(w, lam);
            emit_atoms(w, neutral);
            emit_vars(w, args);
        }
        Exp::Scan { lam, neutral, args } => {
            w.u8(15);
            emit_lambda(w, lam);
            emit_atoms(w, neutral);
            emit_vars(w, args);
        }
        Exp::Redomap {
            red_lam,
            map_lam,
            neutral,
            args,
        } => {
            w.u8(16);
            emit_lambda(w, red_lam);
            emit_lambda(w, map_lam);
            emit_atoms(w, neutral);
            emit_vars(w, args);
        }
        Exp::Hist {
            op,
            num_bins,
            inds,
            vals,
        } => {
            w.u8(17);
            w.u8(reduce_op_tag(*op));
            emit_atom(w, num_bins);
            emit_var(w, *inds);
            emit_var(w, *vals);
        }
        Exp::Scatter { dest, inds, vals } => {
            w.u8(18);
            emit_var(w, *dest);
            emit_var(w, *inds);
            emit_var(w, *vals);
        }
        Exp::WithAcc { arrs, lam } => {
            w.u8(19);
            emit_vars(w, arrs);
            emit_lambda(w, lam);
        }
        Exp::UpdAcc { acc, idx, val } => {
            w.u8(20);
            emit_var(w, *acc);
            emit_atoms(w, idx);
            emit_atom(w, val);
        }
    }
}

fn read_exp(r: &mut Reader<'_>) -> Result<Exp, CacheError> {
    Ok(match r.u8()? {
        0 => Exp::Atom(read_atom(r)?),
        1 => Exp::UnOp(read_un_op(r)?, read_atom(r)?),
        2 => Exp::BinOp(read_bin_op(r)?, read_atom(r)?, read_atom(r)?),
        3 => Exp::Select {
            cond: read_atom(r)?,
            t: read_atom(r)?,
            f: read_atom(r)?,
        },
        4 => Exp::Index {
            arr: read_var(r)?,
            idx: read_atoms(r)?,
        },
        5 => Exp::Update {
            arr: read_var(r)?,
            idx: read_atoms(r)?,
            val: read_atom(r)?,
        },
        6 => Exp::Len(read_var(r)?),
        7 => Exp::Iota(read_atom(r)?),
        8 => Exp::Replicate {
            n: read_atom(r)?,
            val: read_atom(r)?,
        },
        9 => Exp::Reverse(read_var(r)?),
        10 => Exp::Copy(read_var(r)?),
        11 => Exp::If {
            cond: read_atom(r)?,
            then_br: read_body(r)?,
            else_br: read_body(r)?,
        },
        12 => {
            let n = r.len()?;
            let params = (0..n)
                .map(|_| {
                    let var = read_var(r)?;
                    let ty = read_type(r)?;
                    let init = read_atom(r)?;
                    Ok((Param { var, ty }, init))
                })
                .collect::<Result<Vec<_>, CacheError>>()?;
            Exp::Loop {
                params,
                index: read_var(r)?,
                count: read_atom(r)?,
                body: read_body(r)?,
            }
        }
        13 => Exp::Map {
            lam: read_lambda(r)?,
            args: read_vars(r)?,
        },
        14 => Exp::Reduce {
            lam: read_lambda(r)?,
            neutral: read_atoms(r)?,
            args: read_vars(r)?,
        },
        15 => Exp::Scan {
            lam: read_lambda(r)?,
            neutral: read_atoms(r)?,
            args: read_vars(r)?,
        },
        16 => Exp::Redomap {
            red_lam: read_lambda(r)?,
            map_lam: read_lambda(r)?,
            neutral: read_atoms(r)?,
            args: read_vars(r)?,
        },
        17 => Exp::Hist {
            op: read_reduce_op(r)?,
            num_bins: read_atom(r)?,
            inds: read_var(r)?,
            vals: read_var(r)?,
        },
        18 => Exp::Scatter {
            dest: read_var(r)?,
            inds: read_var(r)?,
            vals: read_var(r)?,
        },
        19 => Exp::WithAcc {
            arrs: read_vars(r)?,
            lam: read_lambda(r)?,
        },
        20 => Exp::UpdAcc {
            acc: read_var(r)?,
            idx: read_atoms(r)?,
            val: read_atom(r)?,
        },
        tag => return Err(CacheError::BadTag { what: "exp", tag }),
    })
}

pub(crate) fn emit_fun(w: &mut Writer, f: &Fun) {
    w.str(&f.name);
    emit_params(w, &f.params);
    emit_body(w, &f.body);
    emit_types(w, &f.ret);
}

pub(crate) fn read_fun(r: &mut Reader<'_>) -> Result<Fun, CacheError> {
    Ok(Fun {
        name: r.str()?,
        params: read_params(r)?,
        body: read_body(r)?,
        ret: read_types(r)?,
    })
}

// ---------------------------------------------------------------------
// Bytecode (firvm) encoding
// ---------------------------------------------------------------------

fn emit_opnd(w: &mut Writer, o: Opnd) {
    match o {
        Opnd::Reg(r) => {
            w.u8(0);
            w.u32(r);
        }
        Opnd::F64(x) => {
            w.u8(1);
            w.f64(x);
        }
        Opnd::I64(x) => {
            w.u8(2);
            w.i64(x);
        }
        Opnd::Bool(x) => {
            w.u8(3);
            w.bool(x);
        }
    }
}

fn read_opnd(r: &mut Reader<'_>) -> Result<Opnd, CacheError> {
    match r.u8()? {
        0 => Ok(Opnd::Reg(r.u32()?)),
        1 => Ok(Opnd::F64(r.f64()?)),
        2 => Ok(Opnd::I64(r.i64()?)),
        3 => Ok(Opnd::Bool(r.bool()?)),
        tag => Err(CacheError::BadTag {
            what: "operand",
            tag,
        }),
    }
}

fn emit_opnds(w: &mut Writer, os: &[Opnd]) {
    w.len(os.len());
    for o in os {
        emit_opnd(w, *o);
    }
}

fn read_opnds(r: &mut Reader<'_>) -> Result<Vec<Opnd>, CacheError> {
    let n = r.len()?;
    (0..n).map(|_| read_opnd(r)).collect()
}

fn emit_regs(w: &mut Writer, rs: &[Reg]) {
    w.len(rs.len());
    for reg in rs {
        w.u32(*reg);
    }
}

fn read_regs(r: &mut Reader<'_>) -> Result<Box<[Reg]>, CacheError> {
    let n = r.len()?;
    (0..n).map(|_| r.u32()).collect()
}

fn emit_instr(w: &mut Writer, i: &Instr) {
    match i {
        Instr::Mov { dst, src } => {
            w.u8(0);
            w.u32(*dst);
            emit_opnd(w, *src);
        }
        Instr::Take { dst, src } => {
            w.u8(1);
            w.u32(*dst);
            w.u32(*src);
        }
        Instr::Un { op, dst, a } => {
            w.u8(2);
            w.u8(un_op_tag(*op));
            w.u32(*dst);
            emit_opnd(w, *a);
        }
        Instr::Bin { op, dst, a, b } => {
            w.u8(3);
            w.u8(bin_op_tag(*op));
            w.u32(*dst);
            emit_opnd(w, *a);
            emit_opnd(w, *b);
        }
        Instr::Select { dst, cond, t, f } => {
            w.u8(4);
            w.u32(*dst);
            emit_opnd(w, *cond);
            emit_opnd(w, *t);
            emit_opnd(w, *f);
        }
        Instr::Index { dst, arr, idx } => {
            w.u8(5);
            w.u32(*dst);
            w.u32(*arr);
            emit_opnds(w, idx);
        }
        Instr::Update {
            dst,
            arr,
            idx,
            val,
            consume,
        } => {
            w.u8(6);
            w.u32(*dst);
            w.u32(*arr);
            emit_opnds(w, idx);
            emit_opnd(w, *val);
            w.bool(*consume);
        }
        Instr::Len { dst, arr } => {
            w.u8(7);
            w.u32(*dst);
            w.u32(*arr);
        }
        Instr::Iota { dst, n } => {
            w.u8(8);
            w.u32(*dst);
            emit_opnd(w, *n);
        }
        Instr::Replicate { dst, n, val } => {
            w.u8(9);
            w.u32(*dst);
            emit_opnd(w, *n);
            emit_opnd(w, *val);
        }
        Instr::Reverse { dst, arr } => {
            w.u8(10);
            w.u32(*dst);
            w.u32(*arr);
        }
        Instr::Jmp { target } => {
            w.u8(11);
            w.len(*target);
        }
        Instr::JmpIfNot { cond, target } => {
            w.u8(12);
            emit_opnd(w, *cond);
            w.len(*target);
        }
        Instr::Map {
            kernel,
            dsts,
            args,
            captures,
        } => {
            w.u8(13);
            w.len(*kernel);
            emit_regs(w, dsts);
            emit_regs(w, args);
            emit_regs(w, captures);
        }
        Instr::Reduce {
            kernel,
            dsts,
            neutral,
            args,
            captures,
        } => {
            w.u8(14);
            w.len(*kernel);
            emit_regs(w, dsts);
            emit_opnds(w, neutral);
            emit_regs(w, args);
            emit_regs(w, captures);
        }
        Instr::Scan {
            kernel,
            dsts,
            neutral,
            args,
            captures,
        } => {
            w.u8(15);
            w.len(*kernel);
            emit_regs(w, dsts);
            emit_opnds(w, neutral);
            emit_regs(w, args);
            emit_regs(w, captures);
        }
        Instr::Redomap {
            red_kernel,
            map_kernel,
            dsts,
            neutral,
            args,
            red_captures,
            map_captures,
        } => {
            w.u8(16);
            w.len(*red_kernel);
            w.len(*map_kernel);
            emit_regs(w, dsts);
            emit_opnds(w, neutral);
            emit_regs(w, args);
            emit_regs(w, red_captures);
            emit_regs(w, map_captures);
        }
        Instr::Hist {
            op,
            dst,
            num_bins,
            inds,
            vals,
        } => {
            w.u8(17);
            w.u8(reduce_op_tag(*op));
            w.u32(*dst);
            emit_opnd(w, *num_bins);
            w.u32(*inds);
            w.u32(*vals);
        }
        Instr::Scatter {
            dst,
            dest,
            inds,
            vals,
            consume,
        } => {
            w.u8(18);
            w.u32(*dst);
            w.u32(*dest);
            w.u32(*inds);
            w.u32(*vals);
            w.bool(*consume);
        }
        Instr::WithAcc {
            kernel,
            dsts,
            arrs,
            captures,
        } => {
            w.u8(19);
            w.len(*kernel);
            emit_regs(w, dsts);
            emit_regs(w, arrs);
            emit_regs(w, captures);
        }
        Instr::UpdAcc { dst, acc, idx, val } => {
            w.u8(20);
            w.u32(*dst);
            w.u32(*acc);
            emit_opnds(w, idx);
            emit_opnd(w, *val);
        }
    }
}

fn read_instr(r: &mut Reader<'_>) -> Result<Instr, CacheError> {
    Ok(match r.u8()? {
        0 => Instr::Mov {
            dst: r.u32()?,
            src: read_opnd(r)?,
        },
        1 => Instr::Take {
            dst: r.u32()?,
            src: r.u32()?,
        },
        2 => Instr::Un {
            op: read_un_op(r)?,
            dst: r.u32()?,
            a: read_opnd(r)?,
        },
        3 => Instr::Bin {
            op: read_bin_op(r)?,
            dst: r.u32()?,
            a: read_opnd(r)?,
            b: read_opnd(r)?,
        },
        4 => Instr::Select {
            dst: r.u32()?,
            cond: read_opnd(r)?,
            t: read_opnd(r)?,
            f: read_opnd(r)?,
        },
        5 => Instr::Index {
            dst: r.u32()?,
            arr: r.u32()?,
            idx: read_opnds(r)?.into(),
        },
        6 => Instr::Update {
            dst: r.u32()?,
            arr: r.u32()?,
            idx: read_opnds(r)?.into(),
            val: read_opnd(r)?,
            consume: r.bool()?,
        },
        7 => Instr::Len {
            dst: r.u32()?,
            arr: r.u32()?,
        },
        8 => Instr::Iota {
            dst: r.u32()?,
            n: read_opnd(r)?,
        },
        9 => Instr::Replicate {
            dst: r.u32()?,
            n: read_opnd(r)?,
            val: read_opnd(r)?,
        },
        10 => Instr::Reverse {
            dst: r.u32()?,
            arr: r.u32()?,
        },
        11 => Instr::Jmp {
            target: r.u64()? as usize,
        },
        12 => Instr::JmpIfNot {
            cond: read_opnd(r)?,
            target: r.u64()? as usize,
        },
        13 => Instr::Map {
            kernel: r.u64()? as usize,
            dsts: read_regs(r)?,
            args: read_regs(r)?,
            captures: read_regs(r)?,
        },
        14 => Instr::Reduce {
            kernel: r.u64()? as usize,
            dsts: read_regs(r)?,
            neutral: read_opnds(r)?.into(),
            args: read_regs(r)?,
            captures: read_regs(r)?,
        },
        15 => Instr::Scan {
            kernel: r.u64()? as usize,
            dsts: read_regs(r)?,
            neutral: read_opnds(r)?.into(),
            args: read_regs(r)?,
            captures: read_regs(r)?,
        },
        16 => Instr::Redomap {
            red_kernel: r.u64()? as usize,
            map_kernel: r.u64()? as usize,
            dsts: read_regs(r)?,
            neutral: read_opnds(r)?.into(),
            args: read_regs(r)?,
            red_captures: read_regs(r)?,
            map_captures: read_regs(r)?,
        },
        17 => Instr::Hist {
            op: read_reduce_op(r)?,
            dst: r.u32()?,
            num_bins: read_opnd(r)?,
            inds: r.u32()?,
            vals: r.u32()?,
        },
        18 => Instr::Scatter {
            dst: r.u32()?,
            dest: r.u32()?,
            inds: r.u32()?,
            vals: r.u32()?,
            consume: r.bool()?,
        },
        19 => Instr::WithAcc {
            kernel: r.u64()? as usize,
            dsts: read_regs(r)?,
            arrs: read_regs(r)?,
            captures: read_regs(r)?,
        },
        20 => Instr::UpdAcc {
            dst: r.u32()?,
            acc: r.u32()?,
            idx: read_opnds(r)?.into(),
            val: read_opnd(r)?,
        },
        tag => {
            return Err(CacheError::BadTag {
                what: "instruction",
                tag,
            })
        }
    })
}

fn emit_code(w: &mut Writer, c: &CodeObject) {
    w.len(c.instrs.len());
    for i in &c.instrs {
        emit_instr(w, i);
    }
    w.len(c.num_regs);
    emit_opnds(w, &c.ret);
}

fn read_code(r: &mut Reader<'_>) -> Result<CodeObject, CacheError> {
    let n = r.len()?;
    let instrs = (0..n)
        .map(|_| read_instr(r))
        .collect::<Result<Vec<_>, CacheError>>()?;
    Ok(CodeObject {
        instrs,
        num_regs: r.u64()? as usize,
        ret: read_opnds(r)?,
    })
}

fn emit_kernel(w: &mut Writer, k: &Kernel) {
    emit_code(w, &k.code);
    w.len(k.num_params);
    w.len(k.num_captures);
    emit_types(w, &k.ret);
}

fn read_kernel(r: &mut Reader<'_>) -> Result<Kernel, CacheError> {
    Ok(Kernel {
        code: read_code(r)?,
        num_params: r.u64()? as usize,
        num_captures: r.u64()? as usize,
        ret: read_types(r)?,
    })
}

pub(crate) fn emit_program(w: &mut Writer, p: &Program) {
    w.str(&p.name);
    emit_code(w, &p.main);
    w.len(p.kernels.len());
    for k in &p.kernels {
        emit_kernel(w, k);
    }
    w.len(p.num_params);
}

pub(crate) fn read_program(r: &mut Reader<'_>) -> Result<Program, CacheError> {
    let name = r.str()?;
    let main = read_code(r)?;
    let n = r.len()?;
    let kernels = (0..n)
        .map(|_| read_kernel(r))
        .collect::<Result<Vec<_>, CacheError>>()?;
    let num_params = r.u64()? as usize;
    let prog = Program::assemble(name, main, kernels, num_params);
    validate_program(&prog)?;
    Ok(prog)
}

// ---------------------------------------------------------------------
// Structural validation
// ---------------------------------------------------------------------

fn check_opnd(what: &str, o: Opnd, num_regs: usize) -> Result<(), CacheError> {
    match o {
        Opnd::Reg(r) if (r as usize) >= num_regs => Err(malformed(format!(
            "{what}: register {r} out of range (frame has {num_regs})"
        ))),
        _ => Ok(()),
    }
}

fn check_reg(what: &str, r: Reg, num_regs: usize) -> Result<(), CacheError> {
    if (r as usize) >= num_regs {
        return Err(malformed(format!(
            "{what}: register {r} out of range (frame has {num_regs})"
        )));
    }
    Ok(())
}

fn check_kernel_idx(what: &str, k: usize, nkernels: usize) -> Result<(), CacheError> {
    if k >= nkernels {
        return Err(malformed(format!(
            "{what}: kernel index {k} out of range (program has {nkernels})"
        )));
    }
    Ok(())
}

fn check_code(what: &str, code: &CodeObject, nkernels: usize) -> Result<(), CacheError> {
    if code.num_regs > MAX_REGS {
        return Err(malformed(format!(
            "{what}: absurd register count {}",
            code.num_regs
        )));
    }
    let nr = code.num_regs;
    let regs = |rs: &[Reg]| rs.iter().try_for_each(|&r| check_reg(what, r, nr));
    let opnds = |os: &[Opnd]| os.iter().try_for_each(|&o| check_opnd(what, o, nr));
    let target = |t: usize| {
        // Jumping to `instrs.len()` falls off the end (a legal return).
        if t > code.instrs.len() {
            return Err(malformed(format!(
                "{what}: jump target {t} past the {} instructions",
                code.instrs.len()
            )));
        }
        Ok(())
    };
    for i in &code.instrs {
        match i {
            Instr::Mov { dst, src } => {
                check_reg(what, *dst, nr)?;
                check_opnd(what, *src, nr)?;
            }
            Instr::Take { dst, src } => {
                check_reg(what, *dst, nr)?;
                check_reg(what, *src, nr)?;
            }
            Instr::Un { dst, a, .. } => {
                check_reg(what, *dst, nr)?;
                check_opnd(what, *a, nr)?;
            }
            Instr::Bin { dst, a, b, .. } => {
                check_reg(what, *dst, nr)?;
                check_opnd(what, *a, nr)?;
                check_opnd(what, *b, nr)?;
            }
            Instr::Select { dst, cond, t, f } => {
                check_reg(what, *dst, nr)?;
                opnds(&[*cond, *t, *f])?;
            }
            Instr::Index { dst, arr, idx } => {
                check_reg(what, *dst, nr)?;
                check_reg(what, *arr, nr)?;
                opnds(idx)?;
            }
            Instr::Update {
                dst, arr, idx, val, ..
            } => {
                check_reg(what, *dst, nr)?;
                check_reg(what, *arr, nr)?;
                opnds(idx)?;
                check_opnd(what, *val, nr)?;
            }
            Instr::Len { dst, arr } | Instr::Reverse { dst, arr } => {
                check_reg(what, *dst, nr)?;
                check_reg(what, *arr, nr)?;
            }
            Instr::Iota { dst, n } => {
                check_reg(what, *dst, nr)?;
                check_opnd(what, *n, nr)?;
            }
            Instr::Replicate { dst, n, val } => {
                check_reg(what, *dst, nr)?;
                opnds(&[*n, *val])?;
            }
            Instr::Jmp { target: t } => target(*t)?,
            Instr::JmpIfNot { cond, target: t } => {
                check_opnd(what, *cond, nr)?;
                target(*t)?;
            }
            Instr::Map {
                kernel,
                dsts,
                args,
                captures,
            } => {
                check_kernel_idx(what, *kernel, nkernels)?;
                regs(dsts)?;
                regs(args)?;
                regs(captures)?;
            }
            Instr::Reduce {
                kernel,
                dsts,
                neutral,
                args,
                captures,
            }
            | Instr::Scan {
                kernel,
                dsts,
                neutral,
                args,
                captures,
            } => {
                check_kernel_idx(what, *kernel, nkernels)?;
                regs(dsts)?;
                opnds(neutral)?;
                regs(args)?;
                regs(captures)?;
            }
            Instr::Redomap {
                red_kernel,
                map_kernel,
                dsts,
                neutral,
                args,
                red_captures,
                map_captures,
            } => {
                check_kernel_idx(what, *red_kernel, nkernels)?;
                check_kernel_idx(what, *map_kernel, nkernels)?;
                regs(dsts)?;
                opnds(neutral)?;
                regs(args)?;
                regs(red_captures)?;
                regs(map_captures)?;
            }
            Instr::Hist {
                dst,
                num_bins,
                inds,
                vals,
                ..
            } => {
                check_reg(what, *dst, nr)?;
                check_opnd(what, *num_bins, nr)?;
                check_reg(what, *inds, nr)?;
                check_reg(what, *vals, nr)?;
            }
            Instr::Scatter {
                dst,
                dest,
                inds,
                vals,
                ..
            } => {
                regs(&[*dst, *dest, *inds, *vals])?;
            }
            Instr::WithAcc {
                kernel,
                dsts,
                arrs,
                captures,
            } => {
                check_kernel_idx(what, *kernel, nkernels)?;
                regs(dsts)?;
                regs(arrs)?;
                regs(captures)?;
            }
            Instr::UpdAcc { dst, acc, idx, val } => {
                check_reg(what, *dst, nr)?;
                check_reg(what, *acc, nr)?;
                opnds(idx)?;
                check_opnd(what, *val, nr)?;
            }
        }
    }
    opnds(&code.ret)
}

/// Check the structural invariants the VM's dispatch loop relies on:
/// every register operand fits its frame, every kernel index names a
/// kernel, every jump lands inside (or exactly at the end of) its
/// instruction stream, and kernel frames have room for parameters plus
/// captures. A program passing this cannot make the VM index out of
/// bounds, whatever bytes it was decoded from.
pub fn validate_program(p: &Program) -> Result<(), CacheError> {
    if p.main.num_regs < p.num_params {
        return Err(malformed(format!(
            "main frame has {} registers for {} parameters",
            p.main.num_regs, p.num_params
        )));
    }
    check_code("main", &p.main, p.kernels.len())?;
    for (i, k) in p.kernels.iter().enumerate() {
        let what = format!("kernel {i}");
        if k.num_params.saturating_add(k.num_captures) > k.code.num_regs {
            return Err(malformed(format!(
                "{what}: frame has {} registers for {} parameters + {} captures",
                k.code.num_regs, k.num_params, k.num_captures
            )));
        }
        check_code(&what, &k.code, p.kernels.len())?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Framed public entry points
// ---------------------------------------------------------------------

/// Encode a program as a self-contained framed document (magic, format
/// version, checksum, payload).
pub fn encode_program(p: &Program) -> Vec<u8> {
    let mut w = Writer::default();
    emit_program(&mut w, p);
    w.frame()
}

/// Decode a framed program document. Verifies the magic, format version,
/// declared length, and payload checksum, then structurally validates the
/// decoded program. Any failure is a typed [`CacheError`].
pub fn decode_program(bytes: &[u8]) -> Result<Program, CacheError> {
    let mut r = open_frame(bytes)?;
    let prog = read_program(&mut r)?;
    finish(&r)?;
    Ok(prog)
}

/// Encode a function as a self-contained framed document.
pub fn encode_fun(f: &Fun) -> Vec<u8> {
    let mut w = Writer::default();
    emit_fun(&mut w, f);
    w.frame()
}

/// Decode a framed function document.
pub fn decode_fun(bytes: &[u8]) -> Result<Fun, CacheError> {
    let mut r = open_frame(bytes)?;
    let fun = read_fun(&mut r)?;
    finish(&r)?;
    Ok(fun)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::builder::Builder;

    fn dot() -> Fun {
        let mut b = Builder::new();
        b.build_fun("dot", &[Type::arr_f64(1), Type::arr_f64(1)], |b, ps| {
            let prods = b.map1(Type::arr_f64(1), &[ps[0], ps[1]], |b, es| {
                vec![b.fmul(es[0].into(), es[1].into())]
            });
            vec![b.sum(prods).into()]
        })
    }

    #[test]
    fn programs_round_trip_bitwise() {
        let prog = firvm::compile(&dot());
        let bytes = encode_program(&prog);
        let back = decode_program(&bytes).unwrap();
        assert_eq!(prog, back);
        // Re-encoding the decoded program reproduces the document exactly.
        assert_eq!(bytes, encode_program(&back));
    }

    #[test]
    fn funs_round_trip_and_keep_their_fingerprint() {
        let f = dot();
        let back = decode_fun(&encode_fun(&f)).unwrap();
        assert_eq!(firvm::fingerprint_pair(&f), firvm::fingerprint_pair(&back));
        assert_eq!(f, back);
    }

    #[test]
    fn nan_and_negative_zero_constants_survive_bitwise() {
        let mut b = Builder::new();
        let f = b.build_fun("weird", &[Type::F64], |b, ps| {
            let n = b.fadd(ps[0].into(), Atom::f64(f64::NAN));
            vec![b.fmul(n, Atom::f64(-0.0))]
        });
        let bytes = encode_fun(&f);
        let back = decode_fun(&bytes).unwrap();
        // NaN != NaN, so compare the re-encoded bytes instead.
        assert_eq!(bytes, encode_fun(&back));
    }

    #[test]
    fn bad_magic_version_and_checksum_are_typed_errors() {
        let good = encode_program(&firvm::compile(&dot()));
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert_eq!(decode_program(&bad), Err(CacheError::BadMagic));
        let mut bad = good.clone();
        bad[4] = 0xfe;
        assert!(matches!(
            decode_program(&bad),
            Err(CacheError::UnsupportedVersion { found }) if found != FORMAT_VERSION
        ));
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert_eq!(decode_program(&bad), Err(CacheError::ChecksumMismatch));
        assert_eq!(decode_program(&[]), Err(CacheError::BadMagic));
        assert!(matches!(
            decode_program(&good[..10]),
            Err(CacheError::Truncated { .. })
        ));
    }

    #[test]
    fn out_of_range_registers_and_kernels_are_rejected() {
        let mut prog = firvm::compile(&dot());
        prog.main.num_regs = 1;
        let doc = encode_program(&prog);
        assert!(matches!(
            decode_program(&doc),
            Err(CacheError::Malformed { .. })
        ));
        let mut prog = firvm::compile(&dot());
        if let Some(Instr::Map { kernel, .. }) = prog
            .main
            .instrs
            .iter_mut()
            .find(|i| matches!(i, Instr::Map { .. }))
        {
            *kernel = 999;
        }
        assert!(matches!(
            decode_program(&encode_program(&prog)),
            Err(CacheError::Malformed { .. })
        ));
    }
}
