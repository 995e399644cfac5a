package wire

import (
	"strings"
	"testing"
)

// TestRoundTripAndStrictness: every field reads back what was written,
// the decoder consumes exactly the encoding, and each strictness rule
// rejects its violation with the field's label in the message.
func TestRoundTripAndStrictness(t *testing.T) {
	e := NewEncoder(nil)
	e.Raw([]byte("MAGIC"))
	mark := e.BeginBlob()
	e.Uint(300)
	e.Int(-5)
	e.EndBlob(mark)
	e.Bool(true)
	e.Float(-0.25)
	e.Str("s")
	e.Strs([]string{"a", "b"})
	EncodeMap(e, map[string]uint64{"y": 2, "x": 1}, e.Uint)
	e.Raw([]byte("rest"))
	b := e.Bytes()

	d := NewDecoder(b)
	if !d.Magic("MAGIC") {
		t.Fatal("magic not found")
	}
	sub := d.Sub()
	if u, i := sub.Uint(), sub.Int(); u != 300 || i != -5 || sub.Close() != nil {
		t.Fatalf("blob read %d, %d, %v", u, i, sub.Close())
	}
	if !d.Bool() || d.Float() != -0.25 || d.Str() != "s" || strings.Join(d.Strs(), ",") != "a,b" {
		t.Fatal("fields read back wrong")
	}
	if m := DecodeMap(d, 1, d.Uint); len(m) != 2 || m["x"] != 1 || m["y"] != 2 {
		t.Fatalf("map read back %v", m)
	}
	if rest := d.Rest(); string(rest) != "rest" || d.Close() != nil {
		t.Fatalf("rest %q, close %v", rest, d.Close())
	}

	for _, c := range []struct {
		name string
		in   []byte
		read func(d *Decoder)
		want string
	}{
		{"non-minimal uint", []byte{0x80, 0x00}, func(d *Decoder) { d.Field("count").Uint() }, "count: truncated or non-minimal"},
		{"non-minimal int", []byte{0x80, 0x00}, func(d *Decoder) { d.Int() }, "non-minimal"},
		{"bool 2", []byte{2}, func(d *Decoder) { d.Field("flag").Bool() }, "flag: truncated or invalid bool"},
		{"short float", []byte{1, 2, 3}, func(d *Decoder) { d.Float() }, "truncated float"},
		{"long string", []byte{5, 'a'}, func(d *Decoder) { d.Str() }, "exceeds"},
		{"big count", []byte{3, 0, 0}, func(d *Decoder) { d.Count(2) }, "exceeds"},
		{"unordered map", []byte{2, 1, 'b', 0, 1, 'a', 0}, func(d *Decoder) { DecodeMap(d, 1, d.Uint) }, "map key"},
		{"trailing byte", []byte{1, 9}, func(d *Decoder) { d.Uint() }, "trailing"},
	} {
		d := NewDecoder(c.in)
		c.read(d)
		if err := d.Close(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want %q", c.name, err, c.want)
		}
	}
	if sub := NewDecoder([]byte{5, 'a'}).Sub(); sub.Err() == nil {
		t.Error("a Sub of a blob longer than its input reports no error")
	}
}

// TestInternBound: interned strings share one copy, and a table that
// reaches its bound starts over instead of growing.
func TestInternBound(t *testing.T) {
	e := NewEncoder(nil)
	for _, s := range []string{"a", "b", "a", "c", "d", "c"} {
		e.Str(s)
	}
	d := NewDecoder(e.Bytes())
	d.Intern(2)
	var got []string
	for d.Len() > 0 {
		got = append(got, d.Str())
		if len(d.intern) > 2 {
			t.Fatalf("intern table holds %d strings, bound 2", len(d.intern))
		}
	}
	if strings.Join(got, "") != "abacdc" || d.Close() != nil {
		t.Fatalf("read %q", got)
	}
	if _, ok := d.intern["c"]; !ok {
		t.Fatal("recent string not interned after the table started over")
	}
}
