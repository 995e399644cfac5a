package witch

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wal"
)

// FuzzSpoolOpen opens a spool directory made of fuzzed spool.meta bytes
// and one fuzzed journal record, framed by internal/wal so that it
// reaches the spool's own record decoder. Neither openSpool nor
// readChunk may panic, and every entry readChunk returns re-encodes to
// the record's bytes.
func FuzzSpoolOpen(f *testing.F) {
	// Seeds come from a real spool: its meta file before and after an
	// ack, and each record it journaled.
	dir := f.TempDir()
	s, err := openSpool(dir, 1<<20, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	for seq, body := range [][]byte{goldenProfiles()[0].AppendBinary(nil), []byte(`{"format_version":1}`)} {
		if _, err := s.append(uint64(seq)+1<<10, body); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.reserveSeq(1 << 12); err != nil {
		f.Fatal(err)
	}
	metaPath := filepath.Join(dir, "spool.meta")
	fresh, err := os.ReadFile(metaPath)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.ack(1); err != nil {
		f.Fatal(err)
	}
	acked, err := os.ReadFile(metaPath)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.close(); err != nil {
		f.Fatal(err)
	}
	var recs [][]byte
	if err := wal.Replay(dir, 0, func(r wal.Record) error {
		recs = append(recs, append([]byte(nil), r.Payload...))
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	for _, rec := range recs {
		f.Add(fresh, rec)
		f.Add(acked, rec)
	}
	f.Add([]byte("{}"), recs[0])
	f.Add([]byte("not json"), recs[0])
	f.Add(fresh, []byte{0x80})       // truncated sequence
	f.Add(fresh, []byte{0x80, 0x00}) // non-minimal sequence

	f.Fuzz(func(t *testing.T, meta, rec []byte) {
		if len(rec) == 0 {
			return // a journal cannot hold an empty record
		}
		dir := t.TempDir()
		j, err := wal.Open(dir, wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "spool.meta"), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := openSpool(dir, 1<<20, 0, nil)
		if err != nil {
			return
		}
		defer s.close()
		entries, err := s.readChunk(2)
		if err != nil {
			return
		}
		for _, e := range entries {
			if again := appendSpoolRecord(nil, e.seq, e.body); !bytes.Equal(again, rec) {
				t.Fatalf("record %x replays as seq %d and %d body bytes, which re-encode to %x", rec, e.seq, len(e.body), again)
			}
		}
	})
}
