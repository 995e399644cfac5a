// Package wire holds the one binary field encoding every format witchd
// and the witch pusher write is built from: the WITCHB2 profile
// document (package witch), the WITCHA1 State payloads (internal/agg
// and its owners), the daemon's journal envelope and hint record, and
// the pusher's spool record. A format is a sequence of these fields in
// an order its owner fixes:
//
//	uint         uvarint, minimal length
//	int          zig-zag varint, minimal length
//	bool         one byte, 0 or 1
//	float64      8 bytes, IEEE 754 bits little-endian
//	string, blob uint length, then the raw bytes
//	list         uint count, then the elements
//	map          uint count, then (string key, value) entries in
//	             strictly ascending byte-wise key order
//
// Decoding is strict, so every accepted encoding re-encodes to its own
// bytes: a non-minimal varint, a bool other than 0 or 1, an unordered
// map key or (at Close) a trailing byte is an error. A count is checked
// against the bytes left before anything is allocated for it.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Encoder appends fields to a byte slice.
type Encoder struct {
	buf []byte
}

// NewEncoder appends to dst, which may be a recycled buffer's slice.
func NewEncoder(dst []byte) *Encoder { return &Encoder{buf: dst} }

// Bytes returns the encoding so far.
func (e *Encoder) Bytes() []byte { return e.buf }

// Raw appends b as it is: a magic, or a body that runs to the end.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

func (e *Encoder) Uint(x uint64) { e.buf = binary.AppendUvarint(e.buf, x) }

func (e *Encoder) Int(x int64) { e.buf = binary.AppendVarint(e.buf, x) }

func (e *Encoder) Bool(b bool) {
	var c byte
	if b {
		c = 1
	}
	e.buf = append(e.buf, c)
}

func (e *Encoder) Float(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

func (e *Encoder) Str(s string) {
	e.Uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob writes a byte string.
func (e *Encoder) Blob(b []byte) {
	e.Uint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Strs writes a list of strings.
func (e *Encoder) Strs(ss []string) {
	e.Uint(uint64(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

// BeginBlob starts a blob whose bytes are encoded in place, before its
// length is known; EndBlob(mark) ends it.
func (e *Encoder) BeginBlob() (mark int) { return len(e.buf) }

// EndBlob makes the bytes written since mark a blob, as Blob would have
// written them, by shifting them right past their length.
func (e *Encoder) EndBlob(mark int) {
	var n [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(n[:], uint64(len(e.buf)-mark))
	e.buf = append(e.buf, n[:k]...)
	copy(e.buf[mark+k:], e.buf[mark:len(e.buf)-k])
	copy(e.buf[mark:], n[:k])
}

// EncodeMap writes m's entries in ascending key order, each value
// through put.
func EncodeMap[V any](e *Encoder, m map[string]V, put func(V)) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.Uint(uint64(len(keys)))
	for _, k := range keys {
		e.Str(k)
		put(m[k])
	}
}

// Decoder reads fields from a byte slice. Errors are sticky: after the
// first, every read returns a zero value and Count returns 0, so a
// decode loop runs out without checking each field, and Err or Close
// reports the error.
type Decoder struct {
	b    []byte
	err  error
	what string
	// intern, when non-nil, holds the strings Str has returned, so a
	// string read again shares the first copy; it is cleared when it
	// reaches internMax entries, which bounds it against input that
	// never repeats.
	intern    map[string]string
	internMax int
}

// NewDecoder reads b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Reset reads b from its start, clearing any error and keeping the
// intern table.
func (d *Decoder) Reset(b []byte) {
	d.b, d.err, d.what = b, nil, ""
}

// Intern makes Str intern its strings in a table of at most max
// entries (see Decoder.intern); the table outlives Reset, and a copy of
// the Decoder shares it.
func (d *Decoder) Intern(max int) {
	if d.intern == nil {
		d.intern = make(map[string]string)
	}
	d.internMax = max
}

// Field names what the following reads decode, in the message of the
// first error; "" stops naming.
func (d *Decoder) Field(what string) *Decoder {
	d.what = what
	return d
}

// Len reports the bytes left.
func (d *Decoder) Len() int { return len(d.b) }

// Err reports the first decode error.
func (d *Decoder) Err() error { return d.err }

// Close ends the encoding: it reports the first decode error, or
// trailing bytes after the last field.
func (d *Decoder) Close() error {
	if d.err == nil && len(d.b) > 0 {
		d.what = ""
		d.Fail("%d trailing bytes past its fields", len(d.b))
	}
	return d.err
}

// Fail fails the decode with an error of its owner's, unless an earlier
// error already has.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
		if d.what != "" {
			d.err = fmt.Errorf("%s: %w", d.what, d.err)
		}
	}
	d.b = nil
}

// Magic consumes m, reporting whether the bytes left start with it.
func (d *Decoder) Magic(m string) bool {
	if len(d.b) < len(m) || string(d.b[:len(m)]) != m {
		return false
	}
	d.b = d.b[len(m):]
	return true
}

func (d *Decoder) Uint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.Fail("truncated or non-minimal uvarint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *Decoder) Int() int64 {
	x, n := binary.Varint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.Fail("truncated or non-minimal varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

// IntN reads an int field, which must fit the platform's int.
func (d *Decoder) IntN() int {
	x := d.Int()
	if int64(int(x)) != x {
		d.Fail("int %d overflows", x)
		return 0
	}
	return int(x)
}

func (d *Decoder) Bool() bool {
	if len(d.b) == 0 || d.b[0] > 1 {
		d.Fail("truncated or invalid bool")
		return false
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c == 1
}

func (d *Decoder) Float() float64 {
	if len(d.b) < 8 {
		d.Fail("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return f
}

// raw reads a blob; the bytes alias the input.
func (d *Decoder) raw() []byte {
	n := d.Uint()
	if n > uint64(len(d.b)) {
		d.Fail("length %d exceeds the %d bytes left", n, len(d.b))
		return nil
	}
	raw := d.b[:n]
	d.b = d.b[n:]
	return raw
}

// Blob reads a blob copied out of the input; an empty one reads as
// nil.
func (d *Decoder) Blob() []byte {
	if raw := d.raw(); len(raw) > 0 {
		return append([]byte(nil), raw...)
	}
	return nil
}

// Sub reads a blob as a Decoder of its own, sharing the intern table.
func (d *Decoder) Sub() Decoder {
	b := d.raw() // before d.err is read: it may fail the blob
	return Decoder{b: b, err: d.err, what: d.what, intern: d.intern, internMax: d.internMax}
}

// Rest reads every byte left, which alias the input.
func (d *Decoder) Rest() []byte {
	rest := d.b
	d.b = d.b[len(d.b):]
	return rest
}

func (d *Decoder) Str() string {
	raw := d.raw()
	if d.intern == nil {
		return string(raw)
	}
	if s, ok := d.intern[string(raw)]; ok { // no allocation: the compiler keys the lookup by raw
		return s
	}
	if len(d.intern) >= d.internMax {
		clear(d.intern)
	}
	s := string(raw)
	d.intern[s] = s
	return s
}

// Count reads a list or map count whose elements take at least
// minSize bytes each, failing when the bytes left cannot hold them.
func (d *Decoder) Count(minSize int) int {
	n := d.Uint()
	if n > uint64(len(d.b)/minSize) {
		d.Fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// Strs reads a list of strings; an empty list reads as nil.
func (d *Decoder) Strs() []string {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Str()
	}
	return out
}

// DecodeMap reads a map EncodeMap wrote, each value (at least minSize
// bytes) through get. The result is never nil; keys must be strictly
// ascending.
func DecodeMap[V any](d *Decoder, minSize int, get func() V) map[string]V {
	n := d.Count(1 + minSize)
	m := make(map[string]V, n)
	prev := ""
	for i := 0; i < n && d.err == nil; i++ {
		k := d.Str()
		if i > 0 && k <= prev {
			d.Fail("map key %q after %q", k, prev)
			break
		}
		m[k] = get()
		prev = k
	}
	return m
}
