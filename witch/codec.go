package witch

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/wire"
)

// This file is the ingest fast-path codec: the compact binary profile
// encoding witch.Pusher always sends, and a pooled batch decoder that
// serves both that format and the JSON schema (curl, older spool
// entries) without per-batch allocation churn.
//
// Binary wire format (one document; a batch is documents concatenated),
// in internal/wire's fields:
//
//	"WITCHB2\n"                          8-byte magic
//	header blob                          program, tool strings;
//	                                     exhaustive bool; redundancy,
//	                                     waste, use floats; wall ns int;
//	                                     tool bytes, instrs, loads,
//	                                     stores uints; Stats and Health
//	                                     as EncodeStatsHealth writes them
//	list of pairs                        src, dst, chain strings; waste,
//	                                     use floats; src line, dst line
//	                                     uints below 2^31
//
// A header not consumed exactly by its fields is an error, so every
// accepted WITCHB2 document re-encodes to its own bytes. A new metadata
// field therefore needs a new magic, and the magic stands for the JSON
// schema's format_version.
//
// "WITCHB1\n" documents, which older builds wrote, are read but never
// written: the same layout with the header carried as the profileJSON
// schema (sans pairs) instead of binary fields. Journals, hint records
// and spools written by those builds hold them, so dropping the read
// path would lose acknowledged batches at upgrade.
//
// The magic makes documents self-identifying, so witchd's journal
// replay and its ingest handler sniff bytes rather than trusting a
// Content-Type header.

// BinaryContentType is the Content-Type under which a Pusher sends the
// compact binary profile encoding. The daemon sniffs the magic rather
// than trusting the header, so the type is informational.
const BinaryContentType = "application/x-witch-profile"

// binaryMagic self-identifies a binary profile document; legacyMagic
// one with a JSON header, which this build reads but does not write.
const (
	binaryMagic = "WITCHB2\n"
	legacyMagic = "WITCHB1\n"
)

// IsBinaryProfile reports whether body starts with a binary profile
// document of either format.
func IsBinaryProfile(body []byte) bool {
	return bytes.HasPrefix(body, []byte(binaryMagic)) || bytes.HasPrefix(body, []byte(legacyMagic))
}

// AppendBinary appends the profile's binary encoding to dst and returns
// the extended buffer — the appending shape lets a Pusher reuse one
// encode buffer across deliveries.
func (pr *Profile) AppendBinary(dst []byte) []byte {
	e := wire.NewEncoder(dst)
	e.Raw([]byte(binaryMagic))
	mark := e.BeginBlob()
	pr.encodeHeader(e)
	e.EndBlob(mark)
	e.Uint(uint64(len(pr.pairs)))
	for i := range pr.pairs {
		p := &pr.pairs[i]
		e.Str(p.Src)
		e.Str(p.Dst)
		e.Str(p.Chain)
		e.Float(p.Waste)
		e.Float(p.Use)
		e.Uint(uint64(p.SrcLine))
		e.Uint(uint64(p.DstLine))
	}
	return e.Bytes()
}

// encodeHeader writes the WITCHB2 header fields; readHeader is its
// inverse.
func (pr *Profile) encodeHeader(e *wire.Encoder) {
	e.Str(pr.Program)
	e.Str(pr.Tool)
	e.Bool(pr.Exhaustive)
	e.Float(pr.Redundancy)
	e.Float(pr.Waste)
	e.Float(pr.Use)
	e.Int(pr.WallTime.Nanoseconds())
	for _, x := range [...]uint64{pr.ToolBytes, pr.Instrs, pr.Loads, pr.Stores} {
		e.Uint(x)
	}
	EncodeStatsHealth(e, &pr.Stats, &pr.Health)
}

// EncodeStatsHealth writes s and h as their fields in declaration
// order. The WITCHB2 header and internal/agg's State rows both inline
// them so; DecodeStatsHealth is the inverse.
func EncodeStatsHealth(e *wire.Encoder, s *Stats, h *Health) {
	for _, x := range [...]uint64{s.Samples, s.Monitored, s.Traps, s.SpuriousTraps, s.MaxBlindSpot, s.Opens, s.Closes, s.Modifies, s.DisasmInstrs} {
		e.Uint(x)
	}
	for _, x := range [...]uint64{h.SignalsLost, h.RingLost, h.ArmFailures, h.ArmRetries, h.ModifyFallbacks, h.LBROutages} {
		e.Uint(x)
	}
	e.Int(int64(h.ConfiguredRegs))
	e.Int(int64(h.EffectiveRegs))
	e.Bool(h.RegistersShrunk)
	e.Bool(h.SampleLoss)
	e.Bool(h.Degraded)
}

// DecodeStatsHealth reads what EncodeStatsHealth wrote into s and h.
func DecodeStatsHealth(d *wire.Decoder, s *Stats, h *Health) {
	d.Field("stats counter")
	for _, x := range [...]*uint64{&s.Samples, &s.Monitored, &s.Traps, &s.SpuriousTraps, &s.MaxBlindSpot, &s.Opens, &s.Closes, &s.Modifies, &s.DisasmInstrs} {
		*x = d.Uint()
	}
	d.Field("health counter")
	for _, x := range [...]*uint64{&h.SignalsLost, &h.RingLost, &h.ArmFailures, &h.ArmRetries, &h.ModifyFallbacks, &h.LBROutages} {
		*x = d.Uint()
	}
	h.ConfiguredRegs = d.Field("register count").IntN()
	h.EffectiveRegs = d.IntN()
	h.RegistersShrunk = d.Field("registers shrunk").Bool()
	h.SampleLoss = d.Field("sample loss").Bool()
	h.Degraded = d.Field("degraded").Bool()
	d.Field("")
}

// BatchDecoder decodes ingest bodies — a single profile or a batch, in
// either the JSON schema or the binary format (sniffed by magic) — while
// recycling every intermediate it can: profile structs, pair slices, and
// (for binary) a string intern table, so a steady ingest load decodes
// with near-zero allocations per pair.
//
// A BatchDecoder is not safe for concurrent use, and the profiles one
// Decode returns are valid only until the next Decode — callers that
// pool decoders must finish (or copy out of) the batch before putting
// the decoder back. Aggregation via agg.Partition.Merge is safe: it
// copies every scalar and retains only strings, which are immutable and
// never recycled.
type BatchDecoder struct {
	arena []Profile // backing store for returned *Profiles
	profs []*Profile
	pairs [][]Pair     // per-profile pair slices, capacity kept across batches
	strs  wire.Decoder // holds the binary intern table, which outlives a batch
	pj    profileJSON  // scratch for header/JSON decoding
}

// batchInternMax bounds a BatchDecoder's intern table, which it keeps
// across batches: the fleet pushes the same programs, tools and
// file:func:line locations over and over, so steady state hits the
// table and allocates nothing, while hostile ever-unique strings only
// make it start over past a generous fleet-vocabulary cap.
const batchInternMax = 1 << 16

// Decode parses one ingest body into its profiles. Every profile is
// validated exactly as ReadProfileJSON validates: a batch with any bad
// profile fails whole, so an ack always covers everything in the body.
func (d *BatchDecoder) Decode(body []byte) ([]*Profile, error) {
	d.profs = d.profs[:0]
	d.arena = d.arena[:0]
	if IsBinaryProfile(body) {
		return d.decodeBinary(body)
	}
	return d.decodeJSON(body)
}

// next hands out a recycled profile slot and its pair slice (len 0,
// capacity preserved).
func (d *BatchDecoder) next() (*Profile, []Pair) {
	if len(d.arena) == cap(d.arena) {
		// Growing the arena moves it; earlier *Profiles in d.profs would
		// dangle. Append to a fresh arena chunk instead: d.arena only ever
		// grows within its capacity below, so grow capacity out-of-band.
		grown := make([]Profile, len(d.arena), 2*cap(d.arena)+4)
		copy(grown, d.arena)
		for i := range d.profs {
			d.profs[i] = &grown[i]
		}
		d.arena = grown
	}
	d.arena = d.arena[:len(d.arena)+1]
	i := len(d.arena) - 1
	d.arena[i] = Profile{}
	if i >= len(d.pairs) {
		d.pairs = append(d.pairs, nil)
	}
	return &d.arena[i], d.pairs[i][:0]
}

// take records a decoded profile built from the scratch profileJSON.
func (d *BatchDecoder) take(slot *Profile, pairs []Pair) {
	d.pairs[len(d.arena)-1] = pairs // keep grown capacity for next batch
	pj := &d.pj
	*slot = Profile{
		Program:    pj.Program,
		Tool:       pj.Tool,
		Exhaustive: pj.Exhaustive,
		Redundancy: pj.Redundancy,
		Waste:      pj.Waste,
		Use:        pj.Use,
		WallTime:   time.Duration(pj.WallNanos),
		ToolBytes:  pj.ToolBytes,
		Instrs:     pj.Instrs,
		Loads:      pj.Loads,
		Stores:     pj.Stores,
		Stats:      pj.Stats,
		Health:     pj.Health,
		pairs:      pairs,
	}
	d.profs = append(d.profs, slot)
}

// decodeJSON handles the schema ReadProfileJSON reads: one profile
// object or an array of them, streamed per element so a large batch
// never materializes a second copy as raw messages.
func (d *BatchDecoder) decodeJSON(body []byte) ([]*Profile, error) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("witch: empty ingest body")
	}
	if trimmed[0] != '[' {
		// One document, or a stream of concatenated documents. The stream
		// ends on a clean io.EOF between documents; truncation inside a
		// document surfaces as a different error and fails the whole batch.
		dec := json.NewDecoder(bytes.NewReader(trimmed))
		for {
			err := d.decodeJSONProfile(dec)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("witch: stream profile %d: %w", len(d.profs), err)
			}
		}
		return d.profs, nil
	}
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	if _, err := dec.Token(); err != nil { // consume '['
		return nil, fmt.Errorf("witch: decoding profile batch: %w", err)
	}
	for dec.More() {
		if err := d.decodeJSONProfile(dec); err != nil {
			return nil, fmt.Errorf("witch: batch profile %d: %w", len(d.profs), err)
		}
	}
	if _, err := dec.Token(); err != nil { // consume ']'
		return nil, fmt.Errorf("witch: decoding profile batch: %w", err)
	}
	if len(d.profs) == 0 {
		return nil, fmt.Errorf("witch: empty profile batch")
	}
	return d.profs, nil
}

func (d *BatchDecoder) decodeJSONProfile(dec *json.Decoder) error {
	slot, pairs := d.next()
	d.pj = profileJSON{Pairs: pairs}
	if err := dec.Decode(&d.pj); err != nil {
		if errors.Is(err, io.EOF) && len(d.profs) > 0 {
			// Clean end of a document stream: hand the unused slot back.
			d.arena = d.arena[:len(d.arena)-1]
			return io.EOF
		}
		return fmt.Errorf("witch: decoding profile: %w", err)
	}
	if err := d.pj.validate(); err != nil {
		return err
	}
	d.take(slot, d.pj.Pairs)
	return nil
}

// decodeBinary handles one or more concatenated binary documents.
func (d *BatchDecoder) decodeBinary(body []byte) ([]*Profile, error) {
	// Documents are read through a copy on the stack, which shares the
	// intern table: the cursor's every step is then a register update,
	// not a store into the heap.
	d.strs.Intern(batchInternMax)
	r := d.strs
	r.Reset(body)
	for r.Len() > 0 {
		var err error
		switch {
		case r.Magic(binaryMagic):
			err = d.decodeBinaryProfile(&r, false)
		case r.Magic(legacyMagic):
			err = d.decodeBinaryProfile(&r, true)
		default:
			err = errors.New("bad magic")
		}
		if err != nil {
			return nil, fmt.Errorf("witch: binary batch document %d: %w", len(d.profs), err)
		}
	}
	return d.profs, nil
}

// decodeBinaryProfile reads one document past its magic; legacy
// selects the WITCHB1 JSON header.
func (d *BatchDecoder) decodeBinaryProfile(r *wire.Decoder, legacy bool) error {
	hdr := r.Field("header").Sub()
	if err := r.Err(); err != nil {
		return err
	}
	slot, pairs := d.next()
	if legacy {
		d.pj = profileJSON{}
		if err := json.Unmarshal(hdr.Rest(), &d.pj); err != nil {
			return fmt.Errorf("decoding header: %w", err)
		}
	} else {
		d.readHeader(&hdr)
		if err := hdr.Close(); err != nil {
			return fmt.Errorf("header: %w", err)
		}
	}
	// Each pair costs at least 3 one-byte string lengths + 16 float bytes
	// + 2 line uvarints = 21 bytes, so a count the remaining bytes cannot
	// hold is hostile input, not a big batch.
	n := r.Field("pair count").Count(21)
	if err := r.Err(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		pairs = append(pairs, Pair{
			Src:     r.Field("src").Str(),
			Dst:     r.Field("dst").Str(),
			Chain:   r.Field("chain").Str(),
			Waste:   r.Field("waste").Float(),
			Use:     r.Field("use").Float(),
			SrcLine: line(r.Field("src line")),
			DstLine: line(r.Field("dst line")),
		})
		if err := r.Err(); err != nil {
			return fmt.Errorf("pair %d: %w", i, err)
		}
	}
	d.pj.Pairs = pairs
	if err := d.pj.validate(); err != nil {
		return err
	}
	d.take(slot, pairs)
	return nil
}

// readHeader reads the WITCHB2 header fields AppendBinary's
// encodeHeader wrote into the scratch profileJSON.
func (d *BatchDecoder) readHeader(h *wire.Decoder) {
	pj := &d.pj
	*pj = profileJSON{
		FormatVersion: currentFormatVersion,
		Program:       h.Field("program").Str(),
		Tool:          h.Field("tool").Str(),
		Exhaustive:    h.Field("exhaustive").Bool(),
		Redundancy:    h.Field("redundancy").Float(),
		Waste:         h.Field("waste").Float(),
		Use:           h.Field("use").Float(),
		WallNanos:     h.Field("wall ns").Int(),
	}
	h.Field("counter")
	for _, x := range [...]*uint64{&pj.ToolBytes, &pj.Instrs, &pj.Loads, &pj.Stores} {
		*x = h.Uint()
	}
	DecodeStatsHealth(h, &pj.Stats, &pj.Health)
}

// line reads a source line number: a uvarint that fits an int32.
func line(d *wire.Decoder) int {
	x := d.Uint()
	if x > math.MaxInt32 {
		d.Fail("%d out of range", x)
		return 0
	}
	return int(x)
}
