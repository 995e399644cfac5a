package agg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
)

// The binary encoding is the one form in which witchd writes States,
// between nodes and at rest: the delta scatter leg, the anti-entropy
// partition transfer, the digest's checksum, the store snapshot and the
// dedup image all use it. It shares its field encodings with the
// WITCHB2 profile codec in package witch (uvarint counts and lengths,
// zig-zag ints, one-byte bools, float bits little-endian, Stats and
// Health inlined in the same field order) and is
// canonical: the bytes are a function of the value, so equal data
// hashes equal on every node and a snapshot of a restored store is the
// snapshot it was restored from.
//
//	"WITCHA1\n"      8-byte magic, once per payload
//	uint             uvarint, minimal length
//	int              zig-zag varint, minimal length
//	bool             one byte, 0 or 1
//	float64          8 bytes, IEEE 754 bits little-endian
//	string, blob     uint length, then the raw bytes
//	list             uint count, then the elements
//	map              uint count, then (string key, value) entries in
//	                 strictly ascending byte-wise key order
//	State            list of MetaState, then list of PairState, each
//	                 row its fields in declaration order (Stats and
//	                 Health inlined the same way)
//
// A payload is the magic and its fields in a fixed order; its owners
// say which (internal/cluster's envelopes, store.PartitionImage and the
// store snapshot, the daemon's dedup image). Decoding is strict: a non-
// minimal varint, a bool other than 0 or 1, an unordered map key or a
// trailing byte is an error, so every accepted payload re-encodes to
// its own bytes. Every count is checked against the bytes left before
// anything is allocated for it, so a few bytes claiming a million rows
// fail at once. A decoded State must keep the State order contract
// (State.CheckOrder), or the payload fails: every State a payload
// carries is then safe to adopt as a sorted base.

// magic self-identifies a binary payload. Payloads in any other format
// (a gob stream from a peer on an older build, say) fail at the first
// eight bytes.
const magic = "WITCHA1\n"

// ContentType is the Content-Type peers send binary payloads under.
const ContentType = "application/x-witch-agg"

// Smallest encodings, in bytes, of the rows a count claims: every
// field takes at least one byte, each float eight.
const (
	minMetaBytes  = 2 + 1 + 16 + 5 + 1 + 9 + 11 // strings, Profiles, floats, WallNanos to Stores, Exhaustive, Stats, Health
	minPairBytes  = 5 + 16 + 2
	MinStateBytes = 2 // two empty lists
)

// Encoder appends one payload's binary encoding to a byte slice.
type Encoder struct {
	buf []byte
}

// NewEncoder starts a payload: it appends the magic to dst, which may
// be a recycled buffer's empty slice.
func NewEncoder(dst []byte) *Encoder {
	return &Encoder{buf: append(dst, magic...)}
}

// Bytes returns the payload encoded so far.
func (e *Encoder) Bytes() []byte { return e.buf }

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

// State writes st; nil writes as the empty State.
func (e *Encoder) State(st *State) {
	if st == nil {
		st = &State{}
	}
	e.Uint(uint64(len(st.Metas)))
	for i := range st.Metas {
		m := &st.Metas[i]
		e.Str(m.Tool)
		e.Str(m.Program)
		e.Uint(m.Profiles)
		e.Float(m.Waste)
		e.Float(m.Use)
		e.Int(m.WallNanos)
		e.Uint(m.ToolBytes)
		e.Uint(m.Instrs)
		e.Uint(m.Loads)
		e.Uint(m.Stores)
		e.Bool(m.Exhaustive)
		s := &m.Stats
		for _, x := range [...]uint64{s.Samples, s.Monitored, s.Traps, s.SpuriousTraps, s.MaxBlindSpot, s.Opens, s.Closes, s.Modifies, s.DisasmInstrs} {
			e.Uint(x)
		}
		h := &m.Health
		for _, x := range [...]uint64{h.SignalsLost, h.RingLost, h.ArmFailures, h.ArmRetries, h.ModifyFallbacks, h.LBROutages} {
			e.Uint(x)
		}
		e.Int(int64(h.ConfiguredRegs))
		e.Int(int64(h.EffectiveRegs))
		e.Bool(h.RegistersShrunk)
		e.Bool(h.SampleLoss)
		e.Bool(h.Degraded)
	}
	e.Uint(uint64(len(st.Pairs)))
	for i := range st.Pairs {
		p := &st.Pairs[i]
		e.Str(p.Tool)
		e.Str(p.Program)
		e.Str(p.Src)
		e.Str(p.Dst)
		e.Str(p.Chain)
		e.Float(p.Waste)
		e.Float(p.Use)
		e.Int(int64(p.SrcLine))
		e.Int(int64(p.DstLine))
	}
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

// Decoder reads one payload. Errors are sticky: after the first, every
// read returns a zero value and Count returns 0, so a decode loop runs
// out without checking each field, and Close reports the error.
// Strings are interned per Decoder: the rows of one payload repeat
// their tool, program and source locations, which then share one copy.
type Decoder struct {
	b      []byte
	err    error
	intern map[string]string
}

// NewDecoder starts reading payload, which must begin with magic.
func NewDecoder(payload []byte) *Decoder {
	d := &Decoder{b: payload}
	if len(payload) < len(magic) || string(payload[:len(magic)]) != magic {
		d.err = errors.New("agg: not a binary payload (bad magic)")
		return d
	}
	d.b = payload[len(magic):]
	return d
}

// Close ends the payload: it reports the first decode error, or
// trailing bytes after the last field.
func (d *Decoder) Close() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("agg: %d trailing bytes", len(d.b))
	}
	return d.err
}

// Fail fails the payload with a decode error of its owner's, unless an
// earlier error already has.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("agg: "+format, args...)
	}
	d.b = nil
}

func (d *Decoder) Uint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.Fail("truncated or non-minimal uvarint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *Decoder) Int() int64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Varint(d.b)
	if n <= 0 || (n > 1 && d.b[n-1] == 0) {
		d.Fail("truncated or non-minimal varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

// int reads an int field, which must fit the platform's int.
func (d *Decoder) int() int {
	x := d.Int()
	if int64(int(x)) != x {
		d.Fail("int %d overflows", x)
		return 0
	}
	return int(x)
}

func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) == 0 || d.b[0] > 1 {
		d.Fail("truncated or invalid bool")
		return false
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c == 1
}

func (d *Decoder) Float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.Fail("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return f
}

// raw reads a length and that many bytes, which alias the payload.
func (d *Decoder) raw() []byte {
	n := d.Uint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.Fail("length %d exceeds the %d bytes left", n, len(d.b))
		return nil
	}
	raw := d.b[:n]
	d.b = d.b[n:]
	return raw
}

// Blob reads a byte string Blob wrote, copied out of the payload; an
// empty one reads as nil.
func (d *Decoder) Blob() []byte {
	if raw := d.raw(); len(raw) > 0 {
		return append([]byte(nil), raw...)
	}
	return nil
}

func (d *Decoder) Str() string {
	raw := d.raw()
	if d.err != nil {
		return ""
	}
	if s, ok := d.intern[string(raw)]; ok {
		return s
	}
	if d.intern == nil {
		d.intern = make(map[string]string)
	}
	s := string(raw)
	d.intern[s] = s
	return s
}

// Count reads a list or map count whose elements take at least
// minSize bytes each, failing when the bytes left cannot hold them.
func (d *Decoder) Count(minSize int) int {
	n := d.Uint()
	if d.err != nil {
		return 0
	}
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

// State reads a State; it is never nil, and its empty row lists are. A
// State out of the order contract fails the payload.
func (d *Decoder) State() *State {
	st := &State{}
	if n := d.Count(minMetaBytes); n > 0 {
		st.Metas = make([]MetaState, n)
		for i := range st.Metas {
			m := &st.Metas[i]
			m.Tool = d.Str()
			m.Program = d.Str()
			m.Profiles = d.Uint()
			m.Waste = d.Float()
			m.Use = d.Float()
			m.WallNanos = d.Int()
			m.ToolBytes = d.Uint()
			m.Instrs = d.Uint()
			m.Loads = d.Uint()
			m.Stores = d.Uint()
			m.Exhaustive = d.Bool()
			s := &m.Stats
			for _, x := range [...]*uint64{&s.Samples, &s.Monitored, &s.Traps, &s.SpuriousTraps, &s.MaxBlindSpot, &s.Opens, &s.Closes, &s.Modifies, &s.DisasmInstrs} {
				*x = d.Uint()
			}
			h := &m.Health
			for _, x := range [...]*uint64{&h.SignalsLost, &h.RingLost, &h.ArmFailures, &h.ArmRetries, &h.ModifyFallbacks, &h.LBROutages} {
				*x = d.Uint()
			}
			h.ConfiguredRegs = d.int()
			h.EffectiveRegs = d.int()
			h.RegistersShrunk = d.Bool()
			h.SampleLoss = d.Bool()
			h.Degraded = d.Bool()
		}
	}
	if n := d.Count(minPairBytes); n > 0 {
		st.Pairs = make([]PairState, n)
		for i := range st.Pairs {
			p := &st.Pairs[i]
			p.Tool = d.Str()
			p.Program = d.Str()
			p.Src = d.Str()
			p.Dst = d.Str()
			p.Chain = d.Str()
			p.Waste = d.Float()
			p.Use = d.Float()
			p.SrcLine = d.int()
			p.DstLine = d.int()
		}
	}
	if d.err == nil {
		if err := st.CheckOrder(); err != nil {
			d.err = err
			d.b = nil
		}
	}
	return st
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
