//! Little-endian byte codec shared by the WAL and snapshot formats.
//!
//! Fixed-width integers are little-endian; strings are `u32` length +
//! UTF-8 bytes; schemas are arity-prefixed attribute lists. Decoding never
//! panics: every read is bounds-checked and surfaces a rendered reason,
//! which the callers wrap into [`CorruptWal`](crate::StoreError::CorruptWal)
//! or [`CorruptSnapshot`](crate::StoreError::CorruptSnapshot); no length
//! read from disk sizes an allocation past the bytes left.

use mera_core::prelude::*;

/// A decode failure with a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl DecodeError {
    fn new(msg: impl Into<String>) -> Self {
        DecodeError(msg.into())
    }
}

/// Result alias for decoding.
pub type DecodeResult<T> = Result<T, DecodeError>;

/// A bounds-checked reader over a byte slice.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(DecodeError::new(format!(
                "unexpected end of input: wanted {n} bytes, have {}",
                self.remaining()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> DecodeResult<u16> {
        Ok(u16::from_le_bytes(
            self.bytes(2)?.try_into().expect("len 2"),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("len 4"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("len 8"),
        ))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> DecodeResult<i64> {
        Ok(i64::from_le_bytes(
            self.bytes(8)?.try_into().expect("len 8"),
        ))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> DecodeResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::new("string is not valid UTF-8"))
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// The on-disk tag of a [`DataType`].
pub fn dtype_tag(t: DataType) -> u8 {
    match t {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Real => 2,
        DataType::Str => 3,
        DataType::Date => 4,
        DataType::Time => 5,
        DataType::Money => 6,
    }
}

/// Decodes a [`DataType`] tag.
pub fn dtype_of_tag(tag: u8) -> DecodeResult<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Real,
        3 => DataType::Str,
        4 => DataType::Date,
        5 => DataType::Time,
        6 => DataType::Money,
        other => return Err(DecodeError::new(format!("unknown data-type tag {other}"))),
    })
}

/// Encodes a schema: `u16` arity, then per attribute a named flag (with
/// the name when set) and the domain tag.
pub fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    out.extend_from_slice(&(schema.arity() as u16).to_le_bytes());
    for attr in schema.attributes() {
        match &attr.name {
            Some(name) => {
                out.push(1);
                put_str(out, name);
            }
            None => out.push(0),
        }
        out.push(dtype_tag(attr.dtype));
    }
}

/// Decodes a schema written by [`put_schema`].
pub fn read_schema(r: &mut Reader<'_>) -> DecodeResult<Schema> {
    let arity = r.u16()? as usize;
    let mut attrs = Vec::with_capacity(arity.min(r.remaining()));
    for _ in 0..arity {
        let name = match r.u8()? {
            0 => None,
            1 => Some(r.str()?),
            other => return Err(DecodeError::new(format!("bad named flag {other}"))),
        };
        let dtype = dtype_of_tag(r.u8()?)?;
        attrs.push(match name {
            Some(n) => Attribute::named(n, dtype),
            None => Attribute::anon(dtype),
        });
    }
    Ok(Schema::new(attrs))
}

/// Encodes 1-based attribute positions: `u32` count, `u32` each.
pub fn put_attrs(out: &mut Vec<u8>, attrs: &[usize]) {
    out.extend_from_slice(&(attrs.len() as u32).to_le_bytes());
    for &a in attrs {
        out.extend_from_slice(&(a as u32).to_le_bytes());
    }
}

/// Decodes an attribute list written by [`put_attrs`].
pub fn read_attrs(r: &mut Reader<'_>) -> DecodeResult<Vec<usize>> {
    let n = r.u32()? as usize;
    let mut attrs = Vec::with_capacity(n.min(r.remaining() / 4));
    for _ in 0..n {
        attrs.push(r.u32()? as usize);
    }
    Ok(attrs)
}

/// Encodes counted tuples, each as its multiplicity (`u64le`: an ℕ count,
/// or the bits of a ℤ one) and its values; the caller writes the count.
pub fn put_counted<'t>(out: &mut Vec<u8>, pairs: impl IntoIterator<Item = (&'t Tuple, u64)>) {
    for (tuple, m) in pairs {
        out.extend_from_slice(&m.to_le_bytes());
        for v in tuple.values() {
            put_value(out, v);
        }
    }
}

/// Decodes `n` tuples of the given domains written by [`put_counted`].
pub fn read_counted(
    r: &mut Reader<'_>,
    n: usize,
    dtypes: &[DataType],
) -> DecodeResult<Vec<(Tuple, u64)>> {
    let mut pairs = Vec::with_capacity(n.min(r.remaining() / 8));
    for _ in 0..n {
        let m = r.u64()?;
        let values = dtypes.iter().map(|&t| read_value(r, t));
        pairs.push((Tuple::new(values.collect::<DecodeResult<_>>()?), m));
    }
    Ok(pairs)
}

/// Encodes one value. The type is *not* written — the enclosing schema
/// fixes it, so a tuple costs exactly its payload (interned strings are
/// resolved to their text, the ground truth of the bag instance).
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Bool(b) => out.push(u8::from(*b)),
        Value::Int(i) => out.extend_from_slice(&i.to_le_bytes()),
        Value::Real(r) => out.extend_from_slice(&r.get().to_bits().to_le_bytes()),
        Value::Str(s) => put_str(out, s.as_str()),
        Value::Date(d) => out.extend_from_slice(&d.0.to_le_bytes()),
        Value::Time(t) => out.extend_from_slice(&t.0.to_le_bytes()),
        Value::Money(m) => out.extend_from_slice(&m.0.to_le_bytes()),
    }
}

/// Decodes one value of the given domain.
pub fn read_value(r: &mut Reader<'_>, dtype: DataType) -> DecodeResult<Value> {
    Ok(match dtype {
        DataType::Bool => match r.u8()? {
            0 => Value::Bool(false),
            1 => Value::Bool(true),
            other => return Err(DecodeError::new(format!("bad bool byte {other}"))),
        },
        DataType::Int => Value::Int(r.i64()?),
        DataType::Real => {
            let bits = r.u64()?;
            Value::Real(
                Real::new(f64::from_bits(bits))
                    .map_err(|_| DecodeError::new("real value is NaN"))?,
            )
        }
        DataType::Str => Value::str(r.str()?),
        DataType::Date => {
            let raw: [u8; 4] = r.bytes(4)?.try_into().expect("len 4");
            Value::Date(Date(i32::from_le_bytes(raw)))
        }
        DataType::Time => Value::Time(Time(r.u32()?)),
        DataType::Money => Value::Money(Money(r.i64()?)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mera_core::tuple;

    #[test]
    fn value_roundtrip_all_domains() {
        let schema = Schema::anon(&[
            DataType::Bool,
            DataType::Int,
            DataType::Real,
            DataType::Str,
            DataType::Date,
            DataType::Time,
            DataType::Money,
        ]);
        let t = tuple![
            true,
            -42_i64,
            1.5_f64,
            "héllo\nwörld'",
            Value::Date(Date::from_ymd(1994, 2, 14).unwrap()),
            Value::Time(Time::from_hms(23, 59, 59).unwrap()),
            Value::Money(Money(-12345))
        ];
        let mut buf = Vec::new();
        for v in t.values() {
            put_value(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for (v, attr) in t.values().iter().zip(schema.attributes()) {
            assert_eq!(&read_value(&mut r, attr.dtype).unwrap(), v);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn schema_roundtrip() {
        let s = Schema::new(vec![
            Attribute::named("owner", DataType::Str),
            Attribute::anon(DataType::Int),
            Attribute::named("naïve", DataType::Real),
        ]);
        let mut buf = Vec::new();
        put_schema(&mut buf, &s);
        let back = read_schema(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        for cut in 0..buf.len() {
            assert!(Reader::new(&buf[..cut]).str().is_err());
        }
    }
}
