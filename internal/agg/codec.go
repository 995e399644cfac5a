package agg

import (
	"repro/internal/wire"
	"repro/witch"
)

// This file owns the WITCHA1 State payload: the one form in which
// witchd writes States, between nodes and at rest (the delta scatter
// leg, the anti-entropy partition transfer, the digest's checksum, the
// store snapshot and the dedup image). Its fields are internal/wire's,
// and it is canonical: the bytes are a function of the value, so equal
// data hashes equal on every node and a snapshot of a restored store is
// the snapshot it was restored from.
//
//	"WITCHA1\n"      8-byte magic, once per payload
//	State            list of MetaState, then list of PairState, each
//	                 row its fields in declaration order, Stats and
//	                 Health inlined as witch.EncodeStatsHealth writes them
//
// A payload is the magic and its fields in a fixed order; its owners
// say which (internal/cluster's envelopes, store.PartitionImage and the
// store snapshot, the daemon's dedup image). A decoded State must keep
// the State order contract (State.CheckOrder), or the payload fails:
// every State a payload carries is then safe to adopt as a sorted base.

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

// internMax bounds a payload decoder's string intern table. A payload's
// rows repeat their tool, program and source locations, which then
// share one copy; past this many distinct strings the table starts
// over, so strings that never repeat cost a small table's inserts and
// not a growing one's.
const internMax = 1 << 12

// NewEncoder starts a payload: it appends the magic to dst, which may
// be a recycled buffer's empty slice.
func NewEncoder(dst []byte) *wire.Encoder {
	e := wire.NewEncoder(dst)
	e.Raw([]byte(magic))
	return e
}

// NewDecoder starts reading payload, which must begin with magic.
func NewDecoder(payload []byte) *wire.Decoder {
	d := wire.NewDecoder(payload)
	if !d.Magic(magic) {
		d.Fail("not a binary payload (bad magic)")
	}
	d.Intern(internMax)
	return d
}

// EncodeState writes st; nil writes as the empty State.
func EncodeState(e *wire.Encoder, st *State) {
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
		witch.EncodeStatsHealth(e, &m.Stats, &m.Health)
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

// DecodeState reads a State; it is never nil, and its empty row lists
// are. A State out of the order contract fails the payload.
func DecodeState(d *wire.Decoder) *State {
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
			witch.DecodeStatsHealth(d, &m.Stats, &m.Health)
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
			p.SrcLine = d.IntN()
			p.DstLine = d.IntN()
		}
	}
	if d.Err() == nil {
		if err := st.CheckOrder(); err != nil {
			d.Fail("%w", err)
		}
	}
	return st
}
