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
//	"WITCHB2\n"                                   8-byte magic
//	uvarint header length, then that many bytes   the header:
//	  program, tool                               uvarint length, raw bytes
//	  exhaustive                                  one byte, 0 or 1
//	  redundancy, waste, use                      float64 LE bits
//	  wall ns                                     zig-zag varint
//	  tool bytes, instrs, loads, stores           uvarint
//	  Stats, Health                               fields in declaration
//	                                              order: uint64 uvarint,
//	                                              int zig-zag varint,
//	                                              bool one byte
//	uvarint pair count
//	per pair: uvarint-length src, dst, chain      raw string bytes
//	          waste, use                          float64 LE bits
//	          uvarint src line, dst line
//
// Stats and Health are inlined as internal/agg's State codec inlines
// them in a MetaState row. Decoding is strict: a non-minimal varint, a
// bool other than 0 or 1, or a header not consumed exactly by its
// fields is an error, so every accepted WITCHB2 document re-encodes to
// its own bytes. A new metadata field therefore needs a new magic, and
// the magic stands for the JSON schema's format_version.
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
	return hasMagic(body, binaryMagic) || hasMagic(body, legacyMagic)
}

func hasMagic(b []byte, magic string) bool {
	return len(b) >= len(magic) && string(b[:len(magic)]) == magic
}

// AppendBinary appends the profile's binary encoding to dst and returns
// the extended buffer — the appending shape lets a Pusher reuse one
// encode buffer across deliveries.
func (pr *Profile) AppendBinary(dst []byte) []byte {
	dst = append(dst, binaryMagic...)
	// The header's length precedes it, so encode the header first and
	// then shift it right past its length.
	mark := len(dst)
	dst = pr.appendHeader(dst)
	var n [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(n[:], uint64(len(dst)-mark))
	dst = append(dst, n[:k]...)
	copy(dst[mark+k:], dst[mark:len(dst)-k])
	copy(dst[mark:], n[:k])

	dst = binary.AppendUvarint(dst, uint64(len(pr.pairs)))
	for i := range pr.pairs {
		p := &pr.pairs[i]
		dst = appendString(dst, p.Src)
		dst = appendString(dst, p.Dst)
		dst = appendString(dst, p.Chain)
		dst = appendFloat(dst, p.Waste)
		dst = appendFloat(dst, p.Use)
		dst = binary.AppendUvarint(dst, uint64(p.SrcLine))
		dst = binary.AppendUvarint(dst, uint64(p.DstLine))
	}
	return dst
}

// appendHeader appends the WITCHB2 header fields; readHeader is its
// inverse.
func (pr *Profile) appendHeader(dst []byte) []byte {
	dst = appendString(dst, pr.Program)
	dst = appendString(dst, pr.Tool)
	dst = appendBool(dst, pr.Exhaustive)
	dst = appendFloat(dst, pr.Redundancy)
	dst = appendFloat(dst, pr.Waste)
	dst = appendFloat(dst, pr.Use)
	dst = binary.AppendVarint(dst, pr.WallTime.Nanoseconds())
	for _, x := range [...]uint64{pr.ToolBytes, pr.Instrs, pr.Loads, pr.Stores} {
		dst = binary.AppendUvarint(dst, x)
	}
	s := &pr.Stats
	for _, x := range [...]uint64{s.Samples, s.Monitored, s.Traps, s.SpuriousTraps, s.MaxBlindSpot, s.Opens, s.Closes, s.Modifies, s.DisasmInstrs} {
		dst = binary.AppendUvarint(dst, x)
	}
	h := &pr.Health
	for _, x := range [...]uint64{h.SignalsLost, h.RingLost, h.ArmFailures, h.ArmRetries, h.ModifyFallbacks, h.LBROutages} {
		dst = binary.AppendUvarint(dst, x)
	}
	dst = binary.AppendVarint(dst, int64(h.ConfiguredRegs))
	dst = binary.AppendVarint(dst, int64(h.EffectiveRegs))
	dst = appendBool(dst, h.RegistersShrunk)
	dst = appendBool(dst, h.SampleLoss)
	return appendBool(dst, h.Degraded)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
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
	r := reader{b: body}
	for len(r.b) > 0 {
		var err error
		switch {
		case hasMagic(r.b, binaryMagic):
			r.b = r.b[len(binaryMagic):]
			err = d.decodeBinaryProfile(&r, false)
		case hasMagic(r.b, legacyMagic):
			r.b = r.b[len(legacyMagic):]
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
func (d *BatchDecoder) decodeBinaryProfile(r *reader, legacy bool) error {
	hdr := reader{b: r.raw("header")}
	if r.err != nil {
		return r.err
	}
	slot, pairs := d.next()
	if legacy {
		d.pj = profileJSON{}
		if err := json.Unmarshal(hdr.b, &d.pj); err != nil {
			return fmt.Errorf("decoding header: %w", err)
		}
	} else {
		d.readHeader(&hdr)
		if len(hdr.b) > 0 {
			hdr.fail("%d bytes past its fields", len(hdr.b))
		}
		if hdr.err != nil {
			return fmt.Errorf("header: %w", hdr.err)
		}
	}
	n := r.uint("pair count")
	// Each pair costs at least 3 one-byte string lengths + 16 float bytes
	// + 2 line uvarints = 21 bytes, so a count the remaining bytes cannot
	// hold is hostile input, not a big batch.
	if n > uint64(len(r.b))/21 {
		r.fail("pair count %d exceeds the %d bytes left", n, len(r.b))
	}
	if r.err != nil {
		return r.err
	}
	for i := uint64(0); i < n; i++ {
		p := Pair{
			Src:   d.str(r.raw("src")),
			Dst:   d.str(r.raw("dst")),
			Chain: d.str(r.raw("chain")),
			Waste: r.float("waste"),
			Use:   r.float("use"),
		}
		p.SrcLine = r.line("src line")
		p.DstLine = r.line("dst line")
		if r.err != nil {
			return fmt.Errorf("pair %d: %w", i, r.err)
		}
		pairs = append(pairs, p)
	}
	d.pj.Pairs = pairs
	if err := d.pj.validate(); err != nil {
		return err
	}
	d.take(slot, pairs)
	return nil
}

// readHeader reads the WITCHB2 header fields AppendBinary's
// appendHeader wrote into the scratch profileJSON.
func (d *BatchDecoder) readHeader(h *reader) {
	pj := &d.pj
	*pj = profileJSON{
		FormatVersion: currentFormatVersion,
		Program:       d.str(h.raw("program")),
		Tool:          d.str(h.raw("tool")),
		Exhaustive:    h.bool("exhaustive"),
		Redundancy:    h.float("redundancy"),
		Waste:         h.float("waste"),
		Use:           h.float("use"),
		WallNanos:     h.int("wall ns"),
	}
	for _, x := range [...]*uint64{&pj.ToolBytes, &pj.Instrs, &pj.Loads, &pj.Stores} {
		*x = h.uint("counter")
	}
	s := &pj.Stats
	for _, x := range [...]*uint64{&s.Samples, &s.Monitored, &s.Traps, &s.SpuriousTraps, &s.MaxBlindSpot, &s.Opens, &s.Closes, &s.Modifies, &s.DisasmInstrs} {
		*x = h.uint("stats counter")
	}
	hl := &pj.Health
	for _, x := range [...]*uint64{&hl.SignalsLost, &hl.RingLost, &hl.ArmFailures, &hl.ArmRetries, &hl.ModifyFallbacks, &hl.LBROutages} {
		*x = h.uint("health counter")
	}
	for _, x := range [...]*int{&hl.ConfiguredRegs, &hl.EffectiveRegs} {
		v := h.int("register count")
		if int64(int(v)) != v {
			h.fail("register count %d overflows int", v)
		}
		*x = int(v)
	}
	hl.RegistersShrunk = h.bool("registers shrunk")
	hl.SampleLoss = h.bool("sample loss")
	hl.Degraded = h.bool("degraded")
}

// str interns one string read from a document: the fleet pushes the
// same programs, tools and file:func:line locations over and over, so
// steady state hits the table and allocates nothing.
func (d *BatchDecoder) str(raw []byte) string {
	if s, ok := d.intern[string(raw)]; ok { // no alloc: compiler-optimized map lookup
		return s
	}
	s := string(raw)
	d.intern[s] = s
	return s
}

// reader is a strict cursor over binary document bytes. Its first
// error sticks and empties it, so every later read fails too and
// returns a zero value: a run of reads is checked once, at its end.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

// uint reads a uvarint, which must be minimal.
func (r *reader) uint(what string) uint64 {
	x, n := binary.Uvarint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail("truncated or non-minimal %s", what)
		return 0
	}
	r.b = r.b[n:]
	return x
}

// int reads a zig-zag varint, which must be minimal.
func (r *reader) int(what string) int64 {
	x, n := binary.Varint(r.b)
	if n <= 0 || (n > 1 && r.b[n-1] == 0) {
		r.fail("truncated or non-minimal %s", what)
		return 0
	}
	r.b = r.b[n:]
	return x
}

// line reads a source line number: a uvarint that fits an int32.
func (r *reader) line(what string) int {
	x := r.uint(what)
	if x > math.MaxInt32 {
		r.fail("%s %d out of range", what, x)
		return 0
	}
	return int(x)
}

func (r *reader) bool(what string) bool {
	if len(r.b) == 0 || r.b[0] > 1 {
		r.fail("truncated or invalid %s", what)
		return false
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c == 1
}

func (r *reader) float(what string) float64 {
	if len(r.b) < 8 {
		r.fail("truncated %s", what)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return f
}

// raw reads a uvarint length and that many bytes, which alias the
// document.
func (r *reader) raw(what string) []byte {
	n := r.uint(what)
	if n > uint64(len(r.b)) {
		r.fail("%s length %d exceeds the %d bytes left", what, n, len(r.b))
		return nil
	}
	raw := r.b[:n]
	r.b = r.b[n:]
	return raw
}
