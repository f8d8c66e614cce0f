package snapshot

import (
	"bytes"
	"testing"
)

// FuzzDecoder decodes a fixed sequence of primitives from arbitrary
// bytes. Decoding must never panic, and a stream that passes Verify
// must re-encode to the same bytes: the format has exactly one encoding
// of each value, so a checksum-valid stream is the encoder's own.
// Bytes after the checksum footer are not part of the stream.
func FuzzDecoder(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		d, err := NewDecoder(bytes.NewReader(stream))
		if err != nil {
			return
		}
		i := d.Int()
		b := d.Bool()
		s := d.String()
		ss := d.Strings()
		is := d.Ints()
		fs := d.Floats()
		m := d.Matrix()
		if d.Verify() != nil {
			return
		}
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		e.Int(i)
		e.Bool(b)
		e.String(s)
		e.Strings(ss)
		e.Ints(is)
		e.Floats(fs)
		e.Matrix(m)
		if err := e.Finish(); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(stream, buf.Bytes()) {
			t.Fatalf("a %d-byte stream passed Verify but re-encodes to %d different bytes", len(stream), buf.Len())
		}
	})
}
