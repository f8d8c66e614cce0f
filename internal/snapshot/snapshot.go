// Package snapshot provides the low-level binary format shared by the
// model save/load path: a magic header, an explicit format version, a
// small set of typed primitives (integers, floats, strings, slices,
// matrices) and a CRC32 footer that detects truncation and corruption.
//
// The encoding is deterministic — the same values always produce the
// same bytes — which is what lets the round-trip tests demand bitwise
// identity between a saved system and its reload. All multi-byte
// values are little-endian; float64 values are written as their IEEE
// 754 bit patterns, so NaN payloads and signed zeros survive exactly.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"strings"

	"dssddi/internal/mat"
)

// Magic identifies a DSSDDI snapshot stream. It is written before the
// checksummed region, so a reader can cheaply reject foreign files.
const Magic = "dssddi-snapshot\x00"

// Version is the current format version. Readers reject versions they
// do not know; writers always emit the current one.
const Version = 1

// maxLen bounds every length prefix read from the stream, which keeps
// sizes derived from one, such as 8*n bytes or rows*cols elements, far
// from overflow.
const maxLen = 1 << 28

// maxPrealloc bounds the bytes a declared length may allocate before
// any of its payload has arrived: a longer payload grows as its chunks
// arrive, so a corrupt or adversarial length costs no more memory than
// the stream actually carries (the checksum is only verified at the
// end).
const maxPrealloc = 8 << 20

// chunkSize is the size of the one buffer every slice and string
// payload moves through, so a payload costs one read or write and one
// checksum update per chunk rather than per value.
const chunkSize = 4096

// Encoder writes the snapshot format to an underlying writer while
// maintaining the running checksum. Errors are sticky: after the first
// failed write every later call is a no-op and Finish reports the
// error.
type Encoder struct {
	w     *bufio.Writer
	crc   hash.Hash32
	err   error
	chunk [chunkSize]byte
}

// NewEncoder starts an encoder on w and writes the magic and version.
func NewEncoder(w io.Writer) *Encoder {
	e := NewRawEncoder(w)
	if _, err := e.w.WriteString(Magic); err != nil {
		e.err = err
		return e
	}
	e.Uint32(Version)
	return e
}

// NewRawEncoder returns an encoder that emits only the primitive
// encoding — no magic, no version, no checksum footer. It exists for
// hashing sections (e.g. the dataset identity digest): stream the
// fields into a hash.Hash and call Flush. Pair with Finish only on
// encoders created by NewEncoder.
func NewRawEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriter(w), crc: crc32.NewIEEE()}
}

// Flush flushes buffered output without writing the checksum footer
// (for raw encoders). It returns the sticky error, if any.
func (e *Encoder) Flush() error {
	if e.err != nil {
		return e.err
	}
	return e.w.Flush()
}

func (e *Encoder) write(p []byte) {
	if e.err != nil {
		return
	}
	if _, err := e.w.Write(p); err != nil {
		e.err = err
		return
	}
	e.crc.Write(p)
}

// Uint32 writes a fixed 32-bit unsigned integer.
func (e *Encoder) Uint32(v uint32) {
	binary.LittleEndian.PutUint32(e.chunk[:4], v)
	e.write(e.chunk[:4])
}

// Int writes a signed integer as a fixed 64-bit value.
func (e *Encoder) Int(v int) {
	binary.LittleEndian.PutUint64(e.chunk[:8], uint64(int64(v)))
	e.write(e.chunk[:8])
}

// Int64 writes a signed 64-bit integer.
func (e *Encoder) Int64(v int64) {
	binary.LittleEndian.PutUint64(e.chunk[:8], uint64(v))
	e.write(e.chunk[:8])
}

// Bool writes a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	e.chunk[0] = 0
	if v {
		e.chunk[0] = 1
	}
	e.write(e.chunk[:1])
}

// Float writes a float64 as its IEEE 754 bit pattern.
func (e *Encoder) Float(v float64) {
	binary.LittleEndian.PutUint64(e.chunk[:8], math.Float64bits(v))
	e.write(e.chunk[:8])
}

// String writes a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.Int(len(s))
	for len(s) > 0 && e.err == nil {
		n := copy(e.chunk[:], s)
		e.write(e.chunk[:n])
		s = s[n:]
	}
}

// Ints writes a length-prefixed []int.
func (e *Encoder) Ints(v []int) {
	e.Int(len(v))
	for len(v) > 0 && e.err == nil {
		n := min(len(v), chunkSize/8)
		for i, x := range v[:n] {
			binary.LittleEndian.PutUint64(e.chunk[8*i:], uint64(int64(x)))
		}
		e.write(e.chunk[:8*n])
		v = v[n:]
	}
}

// Floats writes a length-prefixed []float64.
func (e *Encoder) Floats(v []float64) {
	e.Int(len(v))
	e.floats(v)
}

// floats writes v's bit patterns, one chunk at a time.
func (e *Encoder) floats(v []float64) {
	for len(v) > 0 && e.err == nil {
		n := min(len(v), chunkSize/8)
		for i, x := range v[:n] {
			binary.LittleEndian.PutUint64(e.chunk[8*i:], math.Float64bits(x))
		}
		e.write(e.chunk[:8*n])
		v = v[n:]
	}
}

// Strings writes a length-prefixed []string.
func (e *Encoder) Strings(v []string) {
	e.Int(len(v))
	for _, s := range v {
		e.String(s)
	}
}

// Matrix writes a dense matrix: dimensions followed by the row-major
// backing data. A nil matrix is encoded distinctly and round-trips to
// nil.
func (e *Encoder) Matrix(m *mat.Dense) {
	if m == nil {
		e.Bool(false)
		return
	}
	e.Bool(true)
	e.Int(m.Rows())
	e.Int(m.Cols())
	e.floats(m.Data())
}

// Finish flushes buffered output, appends the CRC32 footer and returns
// the first error encountered, if any.
func (e *Encoder) Finish() error {
	if e.err != nil {
		return e.err
	}
	binary.LittleEndian.PutUint32(e.chunk[:4], e.crc.Sum32())
	if _, err := e.w.Write(e.chunk[:4]); err != nil {
		return err
	}
	return e.w.Flush()
}

// Err returns the sticky encoder error.
func (e *Encoder) Err() error { return e.err }

// Fail records a caller-detected error (e.g. unsupported state) as the
// sticky error, so it surfaces through Finish like an I/O failure. The
// first error wins.
func (e *Encoder) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Decoder reads the snapshot format. Like the encoder its error is
// sticky; the caller checks Err (or the error of Verify) once after
// reading a section rather than after every field.
type Decoder struct {
	r       *bufio.Reader
	crc     hash.Hash32
	err     error
	version uint32
	chunk   [chunkSize]byte
}

// NewDecoder starts a decoder on r, checking the magic and reading the
// version (available via Version).
func NewDecoder(r io.Reader) (*Decoder, error) {
	// The stream is read from r 64 KiB at a time: a model snapshot is a
	// few MB, and each read is a system call on a file.
	d := &Decoder{r: bufio.NewReaderSize(r, 64<<10), crc: crc32.NewIEEE()}
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(d.r, magic); err != nil {
		return nil, fmt.Errorf("snapshot: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q: not a dssddi snapshot", magic)
	}
	d.version = d.Uint32()
	if d.err != nil {
		return nil, fmt.Errorf("snapshot: reading version: %w", d.err)
	}
	if d.version == 0 || d.version > Version {
		return nil, fmt.Errorf("snapshot: unsupported format version %d (this build reads <= %d)", d.version, Version)
	}
	return d, nil
}

// Version returns the format version declared by the stream.
func (d *Decoder) Version() int { return int(d.version) }

func (d *Decoder) read(p []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.err = err
		return
	}
	d.crc.Write(p)
}

// Uint32 reads a fixed 32-bit unsigned integer.
func (d *Decoder) Uint32() uint32 {
	d.read(d.chunk[:4])
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(d.chunk[:4])
}

// Int reads a signed integer written by Encoder.Int.
func (d *Decoder) Int() int {
	d.read(d.chunk[:8])
	if d.err != nil {
		return 0
	}
	return int(int64(binary.LittleEndian.Uint64(d.chunk[:8])))
}

// Int64 reads a signed 64-bit integer.
func (d *Decoder) Int64() int64 {
	d.read(d.chunk[:8])
	if d.err != nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(d.chunk[:8]))
}

// Bool reads a boolean. The encoder writes only 0 or 1, so any other
// byte is corrupt.
func (d *Decoder) Bool() bool {
	d.read(d.chunk[:1])
	if d.err == nil && d.chunk[0] > 1 {
		d.err = fmt.Errorf("snapshot: corrupt bool byte %d", d.chunk[0])
	}
	return d.err == nil && d.chunk[0] == 1
}

// Float reads a float64 bit pattern.
func (d *Decoder) Float() float64 {
	d.read(d.chunk[:8])
	if d.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(d.chunk[:8]))
}

// length reads and bounds-checks a length prefix.
func (d *Decoder) length(what string) int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > maxLen {
		d.err = fmt.Errorf("snapshot: corrupt %s length %d", what, n)
		return 0
	}
	return n
}

// next reads the next min(n, chunkSize) bytes of the stream into the
// chunk buffer and returns them, or nil once the decoder has failed.
func (d *Decoder) next(n int) []byte {
	p := d.chunk[:min(n, chunkSize)]
	d.read(p)
	if d.err != nil {
		return nil
	}
	return p
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.length("string")
	var b strings.Builder
	b.Grow(min(n, maxPrealloc))
	for n > 0 {
		p := d.next(n)
		if p == nil {
			return ""
		}
		b.Write(p)
		n -= len(p)
	}
	return b.String()
}

// Ints reads a length-prefixed []int.
func (d *Decoder) Ints() []int {
	n := d.length("int slice")
	if d.err != nil {
		return nil
	}
	v := make([]int, 0, min(n, maxPrealloc/8))
	for n > 0 {
		p := d.next(8 * n)
		if p == nil {
			return nil
		}
		for i := 0; i < len(p); i += 8 {
			v = append(v, int(int64(binary.LittleEndian.Uint64(p[i:]))))
		}
		n -= len(p) / 8
	}
	return v
}

// Floats reads a length-prefixed []float64.
func (d *Decoder) Floats() []float64 {
	n := d.length("float slice")
	if d.err != nil {
		return nil
	}
	return d.floats(n)
}

// floats reads n float64 bit patterns into a fresh slice.
func (d *Decoder) floats(n int) []float64 {
	return d.appendFloats(make([]float64, 0, min(n, maxPrealloc/8)), n)
}

// appendFloats reads n float64 bit patterns onto v, one chunk at a
// time, growing v past its capacity only as the payload arrives.
func (d *Decoder) appendFloats(v []float64, n int) []float64 {
	for n > 0 {
		p := d.next(8 * n)
		if p == nil {
			return nil
		}
		for i := 0; i < len(p); i += 8 {
			v = append(v, math.Float64frombits(binary.LittleEndian.Uint64(p[i:])))
		}
		n -= len(p) / 8
	}
	return v
}

// FloatArena hands out float64 slices carved from large shared blocks,
// amortizing the per-slice allocation of decode loops that retain what
// they read (a checkpoint's per-entry feature vectors, for example:
// thousands of tiny Floats calls become a handful of block
// allocations). Slices obtained from an arena live as long as the
// arena's blocks; the arena never reclaims them individually.
type FloatArena struct {
	block []float64
}

// floatArenaBlock is the allocation granularity of a FloatArena; a
// request larger than the block gets its own exact-sized allocation.
const floatArenaBlock = 16384

// Alloc returns a zeroed slice of n float64s carved from the arena.
func (a *FloatArena) Alloc(n int) []float64 {
	if n > floatArenaBlock {
		return make([]float64, n)
	}
	if len(a.block) < n {
		a.block = make([]float64, floatArenaBlock)
	}
	v := a.block[:n:n]
	a.block = a.block[n:]
	return v
}

// FloatsArena reads a length-prefixed []float64 into arena-backed
// storage — Floats for callers that retain the decoded slice and
// decode many of them. A slice longer than an arena block gets its own
// allocation, as Floats would.
func (d *Decoder) FloatsArena(a *FloatArena) []float64 {
	n := d.length("float slice")
	if d.err != nil {
		return nil
	}
	if n > floatArenaBlock {
		return d.floats(n)
	}
	return d.appendFloats(a.Alloc(n)[:0], n)
}

// Strings reads a length-prefixed []string.
func (d *Decoder) Strings() []string {
	n := d.length("string slice")
	if d.err != nil {
		return nil
	}
	v := make([]string, 0, min(n, maxPrealloc/16))
	for ; n > 0 && d.err == nil; n-- {
		v = append(v, d.String())
	}
	if d.err != nil {
		return nil
	}
	return v
}

// Matrix reads a dense matrix written by Encoder.Matrix (nil-aware).
func (d *Decoder) Matrix() *mat.Dense {
	if !d.Bool() {
		return nil
	}
	rows, cols := d.Int(), d.Int()
	if d.err != nil {
		return nil
	}
	if rows < 0 || cols < 0 || (cols != 0 && rows > maxLen/cols) {
		d.err = fmt.Errorf("snapshot: corrupt matrix dimensions %dx%d", rows, cols)
		return nil
	}
	data := d.floats(rows * cols)
	if d.err != nil {
		return nil
	}
	return mat.NewFrom(rows, cols, data)
}

// MatrixInto reads a matrix written by Encoder.Matrix into m, whose
// dimensions the stream must declare: a nil matrix or any other
// dimensions fail the decoder before a payload byte is read. The
// payload replaces m's storage and is allocated as it arrives, as
// Matrix's is, so m may be a mat.Unallocated placeholder: the caller
// decides the shape, and the stream pays for the memory.
func (d *Decoder) MatrixInto(m *mat.Dense) {
	if !d.Bool() {
		d.Fail(fmt.Errorf("snapshot: no matrix where a %dx%d one belongs", m.Rows(), m.Cols()))
		return
	}
	rows, cols := d.Int(), d.Int()
	if d.err != nil {
		return
	}
	if rows != m.Rows() || cols != m.Cols() {
		d.err = fmt.Errorf("snapshot: %dx%d matrix where a %dx%d one belongs", rows, cols, m.Rows(), m.Cols())
		return
	}
	if data := d.floats(rows * cols); d.err == nil {
		*m = *mat.NewFrom(rows, cols, data)
	}
}

// Err returns the sticky decoder error.
func (d *Decoder) Err() error { return d.err }

// Fail records a caller-detected validation error (e.g. inconsistent
// decoded values) as the sticky error. The first error wins.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Verify consumes the CRC32 footer and checks it against the running
// checksum of everything read so far. It must be called exactly once,
// after the final field.
func (d *Decoder) Verify() error {
	if d.err != nil {
		return d.err
	}
	want := d.crc.Sum32() // snapshot before the footer bytes perturb it
	if _, err := io.ReadFull(d.r, d.chunk[:4]); err != nil {
		return fmt.Errorf("snapshot: reading checksum footer: %w", err)
	}
	got := binary.LittleEndian.Uint32(d.chunk[:4])
	if got != want {
		return fmt.Errorf("snapshot: checksum mismatch (stored %08x, computed %08x): file is corrupt or truncated", got, want)
	}
	return nil
}
