package snapshot

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dssddi/internal/mat"
)

func TestRoundTripPrimitives(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Int(-42)
	e.Int64(1 << 40)
	e.Bool(true)
	e.Bool(false)
	e.Float(math.Pi)
	e.Float(math.Copysign(0, -1))
	e.Float(math.Inf(-1))
	e.String("hello, snapshot")
	e.String("")
	e.Ints([]int{7, -8, 9})
	e.Ints(nil)
	e.Floats([]float64{1.5, -2.25})
	e.Strings([]string{"a", "", "bc"})
	m := mat.New(2, 3)
	for i, v := range []float64{1, 2, 3, 4, 5, 6} {
		m.Data()[i] = v
	}
	e.Matrix(m)
	e.Matrix(nil)
	// Payloads that span several chunks, ending mid-chunk.
	long := strings.Repeat("0123456789", 3*chunkSize/10+1)
	longInts := make([]int, chunkSize/4+3)
	longFloats := make([]float64, len(longInts))
	for i := range longInts {
		longInts[i] = -i * 7919
		longFloats[i] = float64(i) / 3
	}
	e.String(long)
	e.Ints(longInts)
	e.Floats(longFloats)
	if err := e.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if d.Version() != Version {
		t.Fatalf("version %d, want %d", d.Version(), Version)
	}
	if got := d.Int(); got != -42 {
		t.Fatalf("Int: %d", got)
	}
	if got := d.Int64(); got != 1<<40 {
		t.Fatalf("Int64: %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip failed")
	}
	if got := d.Float(); got != math.Pi {
		t.Fatalf("Float: %v", got)
	}
	if got := d.Float(); !math.Signbit(got) || got != 0 {
		t.Fatalf("negative zero lost: %v", got)
	}
	if got := d.Float(); !math.IsInf(got, -1) {
		t.Fatalf("-Inf lost: %v", got)
	}
	if got := d.String(); got != "hello, snapshot" {
		t.Fatalf("String: %q", got)
	}
	if got := d.String(); got != "" {
		t.Fatalf("empty String: %q", got)
	}
	ints := d.Ints()
	if len(ints) != 3 || ints[0] != 7 || ints[1] != -8 || ints[2] != 9 {
		t.Fatalf("Ints: %v", ints)
	}
	if got := d.Ints(); len(got) != 0 {
		t.Fatalf("nil Ints: %v", got)
	}
	fs := d.Floats()
	if len(fs) != 2 || fs[0] != 1.5 || fs[1] != -2.25 {
		t.Fatalf("Floats: %v", fs)
	}
	ss := d.Strings()
	if len(ss) != 3 || ss[0] != "a" || ss[1] != "" || ss[2] != "bc" {
		t.Fatalf("Strings: %v", ss)
	}
	got := d.Matrix()
	if got.Rows() != 2 || got.Cols() != 3 {
		t.Fatalf("Matrix shape %dx%d", got.Rows(), got.Cols())
	}
	for i, v := range m.Data() {
		if got.Data()[i] != v {
			t.Fatalf("Matrix data[%d] = %v, want %v", i, got.Data()[i], v)
		}
	}
	if d.Matrix() != nil {
		t.Fatal("nil Matrix must round-trip to nil")
	}
	if got := d.String(); got != long {
		t.Fatalf("multi-chunk String: %d bytes back, want %d", len(got), len(long))
	}
	if got := d.Ints(); !slices.Equal(got, longInts) {
		t.Fatalf("multi-chunk Ints: %d values back, want %v...", len(got), longInts[:3])
	}
	if got := d.Floats(); !slices.Equal(got, longFloats) {
		t.Fatalf("multi-chunk Floats: %d values back, want %v...", len(got), longFloats[:3])
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestEncodingIsDeterministic(t *testing.T) {
	encode := func() []byte {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		e.Ints([]int{1, 2, 3})
		e.String("x")
		e.Float(0.1)
		if err := e.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(), encode()) {
		t.Fatal("identical values must produce identical bytes")
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := NewDecoder(strings.NewReader("GIF89a not a snapshot at all")); err == nil {
		t.Fatal("foreign file must be rejected")
	}
}

func TestUnsupportedVersionRejected(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Int(1)
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(Magic)] = 99 // bump the little-endian version field
	if _, err := NewDecoder(bytes.NewReader(raw)); err == nil ||
		!strings.Contains(err.Error(), "unsupported format version") {
		t.Fatalf("future version must be rejected, got %v", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Floats([]float64{1, 2, 3, 4})
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-10] ^= 0x40 // flip a payload bit

	d, err := NewDecoder(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	d.Floats()
	if err := d.Verify(); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("bit flip must fail Verify, got %v", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Matrix(mat.New(4, 4))
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()/2]
	d, err := NewDecoder(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	d.Matrix()
	if d.Err() == nil {
		if err := d.Verify(); err == nil {
			t.Fatal("truncated stream must not verify")
		}
	}
}

// TestMatrixInto reads a matrix into an unallocated one of its shape,
// and fails on a nil matrix or on other dimensions before any payload:
// the mismatched stream below ends after its dimensions, yet the error
// names them rather than the missing payload.
func TestMatrixInto(t *testing.T) {
	src := mat.FromRows([][]float64{{1, 2, 3}, {4, 5, math.Inf(-1)}})
	decoder := func(write func(e *Encoder)) *Decoder {
		t.Helper()
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		write(e)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		d, err := NewDecoder(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	dst := mat.Unallocated(2, 3)
	d := decoder(func(e *Encoder) { e.Matrix(src) })
	d.MatrixInto(dst)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	for i, v := range src.Data() {
		if got := dst.Data()[i]; got != v {
			t.Fatalf("MatrixInto data[%d] = %v, want %v", i, got, v)
		}
	}

	for _, dims := range [][2]int{{2, 3}, {1 << 62, 4}} {
		d = decoder(func(e *Encoder) { e.Bool(true); e.Int(dims[0]); e.Int(dims[1]) })
		d.MatrixInto(mat.Unallocated(3, 2))
		if d.Err() == nil || !strings.Contains(d.Err().Error(), "matrix where a 3x2 one belongs") {
			t.Fatalf("a %dx%d matrix read into a 3x2 one: got %v", dims[0], dims[1], d.Err())
		}
	}
	d = decoder(func(e *Encoder) { e.Matrix(nil) })
	d.MatrixInto(mat.Unallocated(2, 3))
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "no matrix") {
		t.Fatalf("a nil matrix read into a 2x3 one: got %v", d.Err())
	}
}

func TestGiantLengthRejectedBeforeAllocation(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Int(1 << 60) // masquerades as a slice length
	if err := e.Finish(); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Floats(); got != nil {
		t.Fatalf("corrupt length must yield nil, got len %d", len(got))
	}
	if d.Err() == nil || !strings.Contains(d.Err().Error(), "corrupt") {
		t.Fatalf("want corrupt-length error, got %v", d.Err())
	}
}

// TestDeclaredLengthAllocationBounded: a stream that declares a long
// payload and then ends costs at most maxPrealloc up front, for every
// reader that allocates by a declared length. Each claim is 64 MiB of
// payload, within maxLen, so only the allocation bound stops it.
func TestDeclaredLengthAllocationBounded(t *testing.T) {
	const claim = 1 << 23 // elements; 64 MiB of 8-byte values
	var arena FloatArena
	cases := []struct {
		name  string
		write func(e *Encoder)
		read  func(d *Decoder)
	}{
		{"Matrix", func(e *Encoder) { e.Bool(true); e.Int(claim >> 11); e.Int(1 << 11) }, func(d *Decoder) { d.Matrix() }},
		{"Floats", func(e *Encoder) { e.Int(claim) }, func(d *Decoder) { d.Floats() }},
		{"FloatsArena", func(e *Encoder) { e.Int(claim) }, func(d *Decoder) { d.FloatsArena(&arena) }},
		{"Ints", func(e *Encoder) { e.Int(claim) }, func(d *Decoder) { d.Ints() }},
		{"Strings", func(e *Encoder) { e.Int(claim / 2) }, func(d *Decoder) { d.Strings() }},
		{"String", func(e *Encoder) { e.Int(8 * claim) }, func(d *Decoder) { _ = d.String() }},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		c.write(e)
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c.read(d)
		runtime.ReadMemStats(&after)
		if d.Err() == nil {
			t.Fatalf("%s: a stream that ends after its length prefix decoded without error", c.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > maxPrealloc+1<<20 {
			t.Errorf("%s: a %d-byte stream declaring 64 MiB allocated %.1f MiB, want at most %d MiB", c.name, buf.Len(), float64(got)/(1<<20), maxPrealloc>>20+1)
		}
	}
}

// TestFloatsArena covers the allocation-reusing decode variant:
// FloatsArena carves retained slices out of shared blocks and reads
// exactly the bits Floats would.
func TestFloatsArena(t *testing.T) {
	vals := [][]float64{
		{1.5, -2.25, math.Pi},
		nil,
		{math.Copysign(0, -1)},
		make([]float64, 100),
	}
	for i := range vals[3] {
		vals[3][i] = float64(i) * 0.75
	}
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	for i := 0; i < 2; i++ {
		for _, v := range vals {
			e.Floats(v)
		}
	}
	if err := e.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	check := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: element %d: %v != %v", what, j, got[j], want[j])
			}
		}
	}

	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	for _, want := range vals {
		check("Floats", d.Floats(), want)
	}
	var arena FloatArena
	got := make([][]float64, len(vals))
	for i, want := range vals {
		got[i] = d.FloatsArena(&arena)
		check("FloatsArena", got[i], want)
	}
	// Arena slices must be independent (full-capacity slices of one
	// block): appending to one cannot clobber its neighbor.
	got[0] = append(got[0], 99)
	check("FloatsArena neighbor after append", got[2], vals[2])
	if err := d.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestFloatArenaAmortizes pins the arena's purpose: decoding many
// retained slices costs a bounded number of block allocations, not one
// per slice.
func TestFloatArenaAmortizes(t *testing.T) {
	var arena FloatArena
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			_ = arena.Alloc(8)
		}
	})
	if allocs > 2 {
		t.Fatalf("1000 arena allocs of 8 floats cost %.0f heap allocations, want <= 2", allocs)
	}
	if big := arena.Alloc(floatArenaBlock + 1); len(big) != floatArenaBlock+1 {
		t.Fatalf("oversized request returned %d floats", len(big))
	}
}
