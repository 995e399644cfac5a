package witch

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// This file is the ingest fast-path codec: the compact binary profile
// encoding witch.Pusher always sends, and a pooled batch decoder that
// serves both that format and the JSON schema (curl, older spool
// entries) without per-batch allocation churn.
//
// Binary wire format (one document; a batch is documents concatenated):
//
//	"WITCHB1\n"                                   8-byte magic
//	uvarint header length, then that many bytes   profileJSON sans pairs
//	uvarint pair count
//	per pair: uvarint-length src, dst, chain      raw string bytes
//	          waste, use                          float64 LE bits
//	          uvarint src line, dst line
//
// The header stays JSON on purpose: profile metadata (Stats, Health)
// evolves additively, and reusing the JSON schema there means a new
// metadata field needs no binary format bump. Only the pairs array —
// the part that dominates both size and decode allocations — gets the
// dense encoding. The magic makes documents self-identifying, so
// witchd's journal replay and its ingest handler sniff bytes rather
// than trusting a Content-Type header.

// BinaryContentType is the Content-Type under which a Pusher sends the
// compact binary profile encoding. The daemon sniffs the magic rather
// than trusting the header, so the type is informational.
const BinaryContentType = "application/x-witch-profile"

// binaryMagic self-identifies a binary profile document.
const binaryMagic = "WITCHB1\n"

// IsBinaryProfile reports whether body starts with a binary profile
// document.
func IsBinaryProfile(body []byte) bool {
	return len(body) >= len(binaryMagic) && string(body[:len(binaryMagic)]) == binaryMagic
}

// AppendBinary appends the profile's binary encoding to dst and returns
// the extended buffer — the appending shape lets a Pusher reuse one
// encode buffer across deliveries.
func (pr *Profile) AppendBinary(dst []byte) ([]byte, error) {
	hdr, err := json.Marshal(profileJSON{
		FormatVersion: currentFormatVersion,
		Program:       pr.Program,
		Tool:          pr.Tool,
		Exhaustive:    pr.Exhaustive,
		Redundancy:    pr.Redundancy,
		Waste:         pr.Waste,
		Use:           pr.Use,
		WallNanos:     pr.WallTime.Nanoseconds(),
		ToolBytes:     pr.ToolBytes,
		Instrs:        pr.Instrs,
		Loads:         pr.Loads,
		Stores:        pr.Stores,
		Stats:         pr.Stats,
		Health:        pr.Health,
	})
	if err != nil {
		return dst, fmt.Errorf("witch: encoding binary profile header: %w", err)
	}
	dst = append(dst, binaryMagic...)
	dst = binary.AppendUvarint(dst, uint64(len(hdr)))
	dst = append(dst, hdr...)
	dst = binary.AppendUvarint(dst, uint64(len(pr.pairs)))
	for i := range pr.pairs {
		p := &pr.pairs[i]
		dst = appendString(dst, p.Src)
		dst = appendString(dst, p.Dst)
		dst = appendString(dst, p.Chain)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Waste))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Use))
		dst = binary.AppendUvarint(dst, uint64(p.SrcLine))
		dst = binary.AppendUvarint(dst, uint64(p.DstLine))
	}
	return dst, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
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
	arena  []Profile // backing store for returned *Profiles
	profs  []*Profile
	pairs  [][]Pair // per-profile pair slices, capacity kept across batches
	intern map[string]string
	pj     profileJSON // scratch for header/JSON decoding
}

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
	// The intern table persists across batches by design (that is the
	// win), but hostile ever-unique strings must not grow it without
	// bound — reset it past a generous fleet-vocabulary cap.
	if d.intern == nil || len(d.intern) > 1<<16 {
		d.intern = make(map[string]string)
	}
	rest := body
	for len(rest) > 0 {
		if !IsBinaryProfile(rest) {
			return nil, fmt.Errorf("witch: binary batch document %d: bad magic", len(d.profs))
		}
		var err error
		rest, err = d.decodeBinaryProfile(rest[len(binaryMagic):])
		if err != nil {
			return nil, fmt.Errorf("witch: binary batch document %d: %w", len(d.profs), err)
		}
	}
	return d.profs, nil
}

func (d *BatchDecoder) decodeBinaryProfile(b []byte) (rest []byte, err error) {
	hdr, b, err := readBytes(b, "header")
	if err != nil {
		return nil, err
	}
	slot, pairs := d.next()
	d.pj = profileJSON{}
	if err := json.Unmarshal(hdr, &d.pj); err != nil {
		return nil, fmt.Errorf("decoding header: %w", err)
	}
	n, b, err := readUvarint(b, "pair count")
	if err != nil {
		return nil, err
	}
	// Each pair costs at least 3 one-byte string lengths + 16 float bytes
	// + 2 line uvarints = 21 bytes, so a count the remaining bytes cannot
	// hold is hostile input, not a big batch.
	if n > uint64(len(b))/21 {
		return nil, fmt.Errorf("pair count %d exceeds body", n)
	}
	for i := uint64(0); i < n; i++ {
		var p Pair
		if p.Src, b, err = d.readString(b, "src"); err != nil {
			return nil, fmt.Errorf("pair %d: %w", i, err)
		}
		if p.Dst, b, err = d.readString(b, "dst"); err != nil {
			return nil, fmt.Errorf("pair %d: %w", i, err)
		}
		if p.Chain, b, err = d.readString(b, "chain"); err != nil {
			return nil, fmt.Errorf("pair %d: %w", i, err)
		}
		if len(b) < 16 {
			return nil, fmt.Errorf("pair %d: truncated metrics", i)
		}
		p.Waste = math.Float64frombits(binary.LittleEndian.Uint64(b))
		p.Use = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
		b = b[16:]
		var line uint64
		if line, b, err = readUvarint(b, "src line"); err != nil || line > math.MaxInt32 {
			return nil, fmt.Errorf("pair %d: bad src line", i)
		}
		p.SrcLine = int(line)
		if line, b, err = readUvarint(b, "dst line"); err != nil || line > math.MaxInt32 {
			return nil, fmt.Errorf("pair %d: bad dst line", i)
		}
		p.DstLine = int(line)
		pairs = append(pairs, p)
	}
	d.pj.Pairs = pairs
	if err := d.pj.validate(); err != nil {
		return nil, err
	}
	d.take(slot, pairs)
	return b, nil
}

// readString reads one length-prefixed string, interning it: the fleet
// pushes the same file:func:line locations over and over, so steady
// state hits the table and allocates nothing.
func (d *BatchDecoder) readString(b []byte, what string) (string, []byte, error) {
	raw, rest, err := readBytes(b, what)
	if err != nil {
		return "", nil, err
	}
	if s, ok := d.intern[string(raw)]; ok { // no alloc: compiler-optimized map lookup
		return s, rest, nil
	}
	s := string(raw)
	d.intern[s] = s
	return s, rest, nil
}

func readBytes(b []byte, what string) (raw, rest []byte, err error) {
	n, b, err := readUvarint(b, what)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) {
		return nil, nil, fmt.Errorf("%s length %d exceeds body", what, n)
	}
	return b[:n], b[n:], nil
}

func readUvarint(b []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated %s", what)
	}
	return v, b[n:], nil
}
